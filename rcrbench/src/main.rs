//! `rcrbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path rcrbench/Cargo.toml -- \
//!     --workload serve-scripts --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each workload does a fixed amount of work made from `--seed` and sized
//! by `--seconds` (the op count is `seconds × a nominal rate`, so it
//! repeats exactly for a given seed). The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones, from a traced run.
//! The line before it is the run record (seed, op count, threads, git
//! revision, outcome digest, host-speed probe), which is context, not a
//! metric. See `README.md` for the workloads and the metric map.

mod cluster;
mod serve;
mod survey;
mod trace;
mod util;

use std::path::Path;
use std::process::ExitCode;

use trace::Tracer;
use util::Json;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeScripts,
    ClusterBackfill,
    ClusterFaults,
    SurveyQuery,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServeScripts,
        Workload::ClusterBackfill,
        Workload::ClusterFaults,
        Workload::SurveyQuery,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeScripts => "serve-scripts",
            Workload::ClusterBackfill => "cluster-backfill",
            Workload::ClusterFaults => "cluster-faults",
            Workload::SurveyQuery => "survey-query",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, p: &Params, tracer: &Tracer, layers: Option<&mut Layers>) -> Result<Run, String> {
        match self {
            Workload::ServeScripts => serve::run(p, tracer, layers),
            Workload::ClusterBackfill => cluster::run_backfill(p, tracer, layers),
            Workload::ClusterFaults => cluster::run_faults(p, tracer, layers),
            Workload::SurveyQuery => survey::run(p, tracer, layers),
        }
    }
}

/// Share of a workload's ops that a traced run spends on each workload
/// other than the one selected. A traced run reports every per-layer
/// metric, so it also passes briefly through the layers the selected
/// workload does not exercise.
const PROBE_SCALE: f64 = 0.125;

/// How much work one pass does.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    /// Fraction of the nominal op count (1 for a measured run).
    pub scale: f64,
}

impl Params {
    /// Op count for a workload whose nominal rate is `per_second`.
    pub fn ops(&self, per_second: f64) -> usize {
        ((self.seconds as f64 * per_second * self.scale).round() as usize).max(100)
    }

    /// Set-up repetitions before and after the timed phase (`setup_s` is
    /// the median of all of them); one in a probe pass. On a shared host a
    /// single-threaded stretch of work runs up to 1.5× slower for tens of
    /// seconds at a time, so repetitions on both sides of the timed phase
    /// keep one slow stretch from setting the median.
    pub fn setup_reps(&self, before: usize, after: usize) -> (usize, usize) {
        if self.scale < 1.0 {
            (1, 0)
        } else {
            (before, after)
        }
    }
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Process user+sys CPU over the timed phase.
    pub cpu_s: f64,
    /// One latency sample per op or step; `INFINITY` for a failed op.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops whose outcome did not match the oracle.
    pub failed: u64,
    /// Outcome digest: equal across runs iff the program behaved the same.
    pub digest: u64,
    /// Failed oracle checks (the first 20); the run is correct iff empty.
    pub problems: Vec<String>,
    /// Threads the program was given.
    pub threads: usize,
}

impl Run {
    /// Records a failed oracle check.
    pub fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }
}

/// Per-layer metrics of a traced run, in emission order.
#[derive(Debug, Default)]
pub struct Layers(Vec<(String, f64, &'static str)>);

impl Layers {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// `name.p50` and `name.p99` of `samples`.
    pub fn put_p50_p99(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let s = util::sorted(samples);
        self.put(&format!("{name}.p50"), util::percentile(&s, 0.5), unit);
        self.put(&format!("{name}.p99"), util::percentile(&s, 0.99), unit);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<(String, Json)> {
    let ok = run.attempted - run.failed;
    let lat = util::sorted(&run.latencies_ms);
    let setup = util::median(&run.setup_s);
    vec![
        ("setup_s".into(), metric(setup, "s")),
        ("ops_per_s".into(), metric(ok as f64 / run.wall_s, "1/s")),
        (
            "latency_p50_ms".into(),
            metric(util::percentile(&lat, 0.5), "ms"),
        ),
        (
            "latency_p99_ms".into(),
            metric(util::percentile(&lat, 0.99), "ms"),
        ),
        (
            "ok_share".into(),
            metric(ok as f64 / run.attempted as f64, "ratio"),
        ),
        (
            "cpu_ms_per_op".into(),
            metric(run.cpu_s * 1e3 / run.attempted as f64, "ms"),
        ),
        ("peak_rss_mb".into(), metric(util::peak_rss_mb(), "MiB")),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rcrbench: {e}");
            eprintln!(
                "usage: rcrbench --workload <{}> --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rcrbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        scale: 1.0,
    };
    let probe_before_ms = util::host_probe_ms();
    let steal_before = util::steal_ticks();

    let mut layers = Layers::default();
    let mut extra = Vec::new();
    // Every failed oracle check of every pass, prefixed by its workload.
    let mut problems = Vec::new();
    let mut checked = |w: Workload, run: Run| {
        problems.extend(
            run.problems
                .iter()
                .map(|p| Json::Str(format!("{}: {p}", w.name()))),
        );
        run
    };
    let (run, metrics) = if !args.trace {
        let run = checked(
            args.workload,
            args.workload.run(&params, &Tracer::off(), None)?,
        );
        let metrics = end_to_end(&run);
        (run, metrics)
    } else {
        let untraced = checked(
            args.workload,
            args.workload.run(&params, &Tracer::off(), None)?,
        );
        let tracer = Tracer::on();
        let traced = checked(
            args.workload,
            args.workload.run(&params, &tracer, Some(&mut layers))?,
        );
        for other in Workload::ALL {
            if other == args.workload {
                continue;
            }
            let probe = Params {
                scale: PROBE_SCALE,
                ..params
            };
            checked(other, other.run(&probe, &Tracer::on(), Some(&mut layers))?);
        }
        layers.put("trace.span_ns", trace::span_cost_ns(), "ns");
        layers.put(
            "trace.overhead_share",
            traced.wall_s / untraced.wall_s - 1.0,
            "ratio",
        );
        let self_ms = tracer
            .self_time_ns()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::Num(v as f64 / 1e6)))
            .collect();
        extra.push(("span_self_ms".into(), Json::Obj(self_ms)));
        let out = root.join("out");
        let path = out.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        extra.push((
            "chrome_trace".into(),
            Json::Str(
                path.strip_prefix(root)
                    .unwrap_or(&path)
                    .display()
                    .to_string(),
            ),
        ));
        let metrics = layers
            .0
            .iter()
            .map(|(name, value, unit)| (name.clone(), metric(*value, unit)))
            .collect();
        (traced, metrics)
    };
    let correct = problems.is_empty();

    let probe_after_ms = util::host_probe_ms();
    let steal_delta = util::steal_ticks().saturating_sub(steal_before);
    let mut record = vec![
        (
            "workload".to_owned(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Int(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("ops".into(), Json::Int(run.attempted)),
        (
            "latency_samples".into(),
            Json::Int(run.latencies_ms.len() as u64),
        ),
        ("threads".into(), Json::Int(run.threads as u64)),
        (
            "nproc".into(),
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "git_rev".into(),
            Json::Str(util::git_rev(root.parent().unwrap_or(root))),
        ),
        ("digest".into(), Json::Str(format!("{:016x}", run.digest))),
        (
            "setup_s_all".into(),
            Json::Arr(run.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("timed_wall_s".into(), Json::Num(run.wall_s)),
        ("host_probe_ms_before".into(), Json::Num(probe_before_ms)),
        ("host_probe_ms_after".into(), Json::Num(probe_after_ms)),
        ("steal_ticks_delta".into(), Json::Int(steal_delta)),
        ("problems".into(), Json::Arr(problems)),
    ];
    record.extend(extra);
    println!("{}", Json::obj([("record", Json::Obj(record))]).render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(run.attempted)),
        ("failed", Json::Int(run.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}
