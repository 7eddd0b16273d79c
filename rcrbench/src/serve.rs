//! `serve-scripts`: a closed loop of `nproc` clients, each submitting one
//! ResearchScript job to `rcr_serve::Service` and waiting on its handle.
//!
//! Op classes (exact shares per 100 ops, shuffled per block):
//! - hot (75): E22-style kernels and vector builtins, resubmitted, so
//!   they hit the program cache and run JIT-compiled code;
//! - cold (10): seeded unique programs, more of them than the program
//!   cache holds, so the whole front end and LRU eviction run;
//! - alloc (10): `push`, array literals, string concatenation and
//!   `zeros`/`fill`, all below the memory quota;
//! - fuel (3), memory (1), static (1): jobs that end in a quota error at
//!   run time or are refused at submit by static admission.
//!
//! The fuel jobs are the slowest class and make up 3% of ops, so the p99
//! falls a third of the way into them; the p50 falls inside the hot
//! class. The oracle is a direct fused-VM run of each distinct source
//! under the tenant's limits, computed before the timed phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rcr_kernels::par;
use rcr_minilang::absint::{self, TypeFacts};
use rcr_minilang::bytecode::{self, Compiled};
use rcr_minilang::error::Error as ScriptError;
use rcr_minilang::jit::{Jit, JitConfig};
use rcr_minilang::vm::Vm;
use rcr_minilang::{optimize, parser, peephole};
use rcr_serve::{JobError, JobSpec, Outcome, Rejected, Service, ServiceConfig, TenantQuota};

use crate::trace::Tracer;
use crate::util::{self, Fnv, Rng};
use crate::{Layers, Params, Run};

/// Nominal throughput used to size a run (ops per second of `--seconds`).
const OPS_PER_SECOND: f64 = 450.0;

const HOT: usize = 0;
const COLD: usize = 1;
const ALLOC: usize = 2;
const FUEL: usize = 3;
const CLASS_NAMES: [&str; 6] = ["hot", "cold", "alloc", "fuel", "memory", "static"];
const SHARES: [usize; 6] = [75, 10, 10, 3, 1, 1];

/// Bound on cached programs. Each run submits more distinct cold programs
/// than this, so the cache evicts.
const CACHE_CAPACITY: usize = 128;
const TENANTS: usize = 4;
/// Set-up takes about 15 ms, so it is repeated often enough for a steady
/// median: this many times before the timed phase and after it.
const SETUP_REPS: (usize, usize) = (5, 4);
/// Every tenant's limits. A fuel job spends 1M fuel, several times a hot
/// job's run time.
const QUOTA: TenantQuota = TenantQuota {
    fuel: 1_000_000,
    memory: 16 << 20,
};

/// The hot set: the E22 kernels (scalar loops) and their vector-builtin
/// forms, each sized to spend about 300k fuel (about 1.3 ms on the JIT
/// tier, 3 ms through the service). The service runs a job in doubling
/// fuel slices from 50k, so
/// equal fuel means equal slicing too: the hot class stays one cluster of
/// latencies and the p50 sits inside it, not on a step between kernels
/// that need different numbers of slices. Jobs of a few milliseconds also
/// keep the service's thread hand-offs, whose delay depends on what else
/// the host runs, a small part of a hot job's latency.
fn hot_sources() -> Vec<String> {
    let init = |n: usize, a: &str, b: &str| {
        format!(
            "let n = {n};\nlet {a} = zeros(n);\nlet {b} = zeros(n);\nfor i in range(0, n) {{\n  {a}[i] = (i % 7) * 0.25;\n  {b}[i] = ((i % 5) + 1) * 0.5;\n}}\n"
        )
    };
    vec![
        format!(
            "fn dot(a, b, n) {{\n  let acc = 0;\n  for i in range(0, n) {{ acc = acc + a[i] * b[i]; }}\n  return acc;\n}}\n{}dot(a, b, n)",
            init(18000, "a", "b")
        ),
        format!("{}vdot(a, b)", init(27000, "a", "b")),
        format!(
            "{}for i in range(0, n) {{ y[i] = y[i] + 2.5 * x[i]; }}\nvsum(y)",
            init(16800, "x", "y")
        ),
        format!("{}vaxpy(2.5, x, y);\nvsum(y)", init(28800, "x", "y")),
        "fn mcpi(n) {\n  let seed = 12345;\n  let hits = 0;\n  for i in range(0, n) {\n    seed = (seed * 16807) % 2147483647;\n    let x = seed / 2147483647;\n    seed = (seed * 16807) % 2147483647;\n    let y = seed / 2147483647;\n    if x * x + y * y <= 1 { hits = hits + 1; }\n  }\n  return 4 * hits / n;\n}\nmcpi(15200)".to_owned(),
        "fn matmul(a, b, c, n) {\n  for i in range(0, n) {\n    for j in range(0, n) {\n      let acc = 0;\n      for k in range(0, n) { acc = acc + a[i * n + k] * b[k * n + j]; }\n      c[i * n + j] = acc;\n    }\n  }\n}\nlet n = 25;\nlet a = zeros(n * n);\nlet b = zeros(n * n);\nlet c = zeros(n * n);\nfor i in range(0, n * n) {\n  a[i] = (i % 7) * 0.25;\n  b[i] = ((i % 5) + 1) * 0.5;\n}\nmatmul(a, b, c, n);\nvsum(c)".to_owned(),
    ]
}

/// A cold program: unique text (and constants) per `key`, a short run.
fn cold_source(key: u64) -> String {
    let (c, m, k) = (key % 997, 3 + key % 11, 1 + key % 5);
    format!(
        "fn f{key}(n, c) {{\n  let acc = c;\n  for i in range(0, n) {{\n    if i % {m} == 0 {{ acc = acc + i * {k}; }} else {{ acc = acc - 1; }}\n  }}\n  return acc;\n}}\nlet xs = zeros(16);\nfor i in range(0, 16) {{ xs[i] = f{key}(i * 8, {c}); }}\nvsum(xs) + {key}"
    )
}

/// Allocation-heavy programs, all well below the memory quota.
fn alloc_sources() -> Vec<String> {
    [200usize, 400, 600, 800]
        .iter()
        .map(|&n| {
            format!(
                "let a = [];\nfor i in range(0, {n}) {{ push(a, i * 0.5); }}\nlet f = fill({n}, 0.25);\nlet z = zeros({n});\nfor i in range(0, {n}) {{ z[i] = f[i] + a[i]; push(f, i); }}\nlet s = \"\";\nfor i in range(0, {m}) {{ s = s + \"ab\"; }}\nlet lit = [1, 2, [3, 4], \"x\", s];\nlen(a) + len(s) + vsum(z) + vsum(f) + len(lit)",
                m = n / 4
            )
        })
        .collect()
}

/// Loops until fuel runs out; its static lower bound is small, so it is
/// admitted and fails at run time.
const FUEL_SOURCE: &str =
    "let x = 1;\nlet n = 0;\nwhile x > 0 {\n  x = (x * 16807) % 2147483647;\n  n = n + 1;\n}\nn";
/// Asks for 24 MB against a 16 MB quota.
const MEMORY_SOURCE: &str = "let z = zeros(3000000);\nvsum(z)";
/// Provably needs far more fuel than the quota: refused at submit.
const STATIC_SOURCE: &str = "let s = 0;\nfor i in range(0, 1000000000) { s = s + i; }\ns";

/// What a job should end in: a rendered value or an error class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expect {
    Value(String),
    Fuel,
    Memory,
    Script,
    Compile,
}

impl Expect {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Expect::Value(v) => h.push_str(v),
            other => h.push_str(&format!("{other:?}")),
        }
        h.finish()
    }
}

/// Maps what the service returned onto the oracle's classes; `None` for
/// outcomes the oracle never predicts (shed, deadline, crash, ...).
fn observed(result: Result<Outcome, Rejected>) -> Option<Expect> {
    match result {
        Ok(Outcome::Completed { output, .. }) => Some(Expect::Value(output)),
        Ok(Outcome::Failed(JobError::FuelQuotaExceeded { .. })) => Some(Expect::Fuel),
        Ok(Outcome::Failed(JobError::MemoryQuotaExceeded { .. })) => Some(Expect::Memory),
        Ok(Outcome::Failed(JobError::Script(_))) => Some(Expect::Script),
        Ok(Outcome::Failed(JobError::Compile(_))) => Some(Expect::Compile),
        Err(Rejected::StaticallyInfeasible { .. }) => Some(Expect::Fuel),
        _ => None,
    }
}

/// The service's compile pipeline, called stage by stage so each stage
/// can be timed: parse, optimize + compile, absint, peephole.
fn pipeline(src: &str, tracer: &Tracer, op: u64) -> Result<(Compiled, TypeFacts), ScriptError> {
    let program = tracer.time("minilang.parse", op, || parser::parse(src))?;
    let (optimized, compiled) = tracer.time("minilang.compile", op, || {
        let optimized = optimize::optimize(&program);
        let compiled = bytecode::compile(&optimized);
        (optimized, compiled)
    });
    let compiled = compiled?;
    let facts = tracer.time("minilang.absint", op, || absint::analyze(&optimized).facts);
    let fused = tracer.time("minilang.peephole", op, || {
        peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts))
    });
    Ok((fused, facts))
}

fn classify(result: Result<rcr_minilang::value::Value, ScriptError>) -> Expect {
    match result {
        Ok(v) => Expect::Value(v.to_string()),
        Err(ScriptError::FuelExhausted { .. }) => Expect::Fuel,
        Err(ScriptError::MemoryExhausted { .. }) => Expect::Memory,
        Err(_) => Expect::Script,
    }
}

/// Oracle: a direct fused-VM run under the tenant's limits.
fn oracle(src: &str, quota: TenantQuota) -> Expect {
    match pipeline(src, &Tracer::off(), 0) {
        Ok((fused, _)) => {
            classify(Vm::with_limits(Some(quota.fuel), Some(quota.memory)).run(&fused))
        }
        Err(_) => Expect::Compile,
    }
}

struct Op {
    class: usize,
    source: usize,
    tenant: usize,
}

struct Input {
    sources: Vec<String>,
    expect: Vec<Expect>,
    ops: Vec<Op>,
    hot: Vec<usize>,
    alloc: Vec<usize>,
    cold: Vec<usize>,
}

fn make_input(p: &Params, quota: TenantQuota) -> Input {
    let n = p.ops(OPS_PER_SECOND);
    let mut rng = Rng::new(p.seed);
    let classes = util::class_sequence(n, &SHARES, &mut rng);
    let mut sources = hot_sources();
    let hot: Vec<usize> = (0..sources.len()).collect();
    let alloc: Vec<usize> = alloc_sources()
        .into_iter()
        .map(|s| {
            sources.push(s);
            sources.len() - 1
        })
        .collect();
    let fixed: Vec<usize> = [FUEL_SOURCE, MEMORY_SOURCE, STATIC_SOURCE]
        .iter()
        .map(|s| {
            sources.push((*s).to_owned());
            sources.len() - 1
        })
        .collect();
    let key_base = rng.next_u64() % 1_000_000 * 1_000_000;
    let mut cold = Vec::new();
    let mut quota_jobs = 0usize;
    let mut counts = [0usize; CLASS_NAMES.len()];
    let ops = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            counts[class] += 1;
            let source = match class {
                // Hot and alloc programs rotate, so each seed has the same
                // mix; only the order differs.
                HOT => hot[counts[HOT] % hot.len()],
                ALLOC => alloc[counts[ALLOC] % alloc.len()],
                COLD => {
                    sources.push(cold_source(key_base + i as u64));
                    cold.push(sources.len() - 1);
                    sources.len() - 1
                }
                c => fixed[c - FUEL],
            };
            // Failing jobs go to tenants round-robin, so no tenant sees
            // enough failures in a row to trip its circuit breaker.
            let tenant = if class >= FUEL {
                quota_jobs += 1;
                quota_jobs % TENANTS
            } else {
                i % TENANTS
            };
            Op {
                class,
                source,
                tenant,
            }
        })
        .collect();
    let expect = sources.iter().map(|s| oracle(s, quota)).collect();
    Input {
        sources,
        expect,
        ops,
        hot,
        alloc,
        cold,
    }
}

fn config(quota: TenantQuota) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![quota; TENANTS],
        executors: par::default_threads(),
        // A closed loop never has more jobs in flight than clients, so
        // with these limits nothing is ever shed.
        queue_capacity: 1024,
        admission_rate: 1e9,
        admission_burst: 1e9,
        // Far above any service time: quota outcomes come from fuel and
        // memory, never from the wall clock.
        default_deadline: Duration::from_secs(120),
        program_cache_capacity: CACHE_CAPACITY,
        ..ServiceConfig::default()
    }
}

/// Set-up: start the service and let its caches fill (each hot and alloc
/// program compiled and JIT-translated once).
fn setup(input: &Input, quota: TenantQuota) -> Result<Service, String> {
    let service = Service::new(config(quota));
    for &s in input.hot.iter().chain(&input.alloc) {
        let handle = service
            .submit(JobSpec::new(0, input.sources[s].clone()))
            .map_err(|e| format!("warm-up submit refused: {e}"))?;
        if !handle.wait().is_completed() {
            return Err("warm-up job failed".into());
        }
    }
    Ok(service)
}

pub fn run(p: &Params, tracer: &Tracer, layers: Option<&mut Layers>) -> Result<Run, String> {
    let quota = QUOTA;
    let input = make_input(p, quota);
    let mut run = Run {
        threads: par::default_threads(),
        ..Run::default()
    };
    let (before, after) = p.setup_reps(SETUP_REPS.0, SETUP_REPS.1);
    let timed_setup = |setup_s: &mut Vec<f64>| -> Result<Service, String> {
        let t0 = Instant::now();
        let s = tracer.time("serve.setup", u64::MAX, || setup(&input, quota))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(s)
    };
    let mut service = timed_setup(&mut run.setup_s)?;
    for _ in 1..before {
        drop(service);
        service = timed_setup(&mut run.setup_s)?;
    }
    let metrics_before = service.metrics();
    let cache_before = service.cache_stats();

    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let n = input.ops.len();
    let next = AtomicUsize::new(0);
    // Per op: latency (ms, INFINITY if wrong), result digest.
    let results: Mutex<Vec<(f64, u64)>> = Mutex::new(vec![(0.0, 0); n]);
    let queue_lens: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let cpu0 = util::process_cpu_s();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                let mut qlens = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let op = &input.ops[i];
                    let spec = JobSpec::new(op.tenant, input.sources[op.source].clone());
                    let _op_span = tracer.span("serve.op", i as u64);
                    let start = Instant::now();
                    if tracer.is_on() {
                        qlens.push(service.queue_len() as f64);
                    }
                    let submitted = tracer.time("serve.submit", i as u64, || service.submit(spec));
                    let result =
                        submitted.map(|h| tracer.time("serve.wait", i as u64, || h.wait()));
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    let got = observed(result);
                    let expected = &input.expect[op.source];
                    match got {
                        Some(g) if &g == expected => local.push((i, ms, g.digest())),
                        _ => local.push((i, f64::INFINITY, 0)),
                    }
                }
                let mut all = results.lock().expect("results poisoned");
                for (i, ms, d) in local {
                    all[i] = (ms, d);
                }
                queue_lens
                    .lock()
                    .expect("queue samples poisoned")
                    .extend(qlens);
            });
        }
    });
    run.wall_s = t0.elapsed().as_secs_f64();
    run.cpu_s = util::process_cpu_s() - cpu0;

    let results = results.into_inner().expect("results poisoned");
    let mut digest = Fnv::default();
    for (i, &(ms, d)) in results.iter().enumerate() {
        digest.push(d);
        if ms.is_infinite() {
            run.failed += 1;
            let op = &input.ops[i];
            run.problem(format!(
                "op {i} ({}) did not match {:?}",
                CLASS_NAMES[op.class], input.expect[op.source]
            ));
        }
        run.latencies_ms.push(ms);
    }
    run.attempted = n as u64;
    run.digest = digest.finish();

    let m = service.metrics();
    let c = service.cache_stats();
    drop(service);
    for _ in 0..after {
        drop(timed_setup(&mut run.setup_s)?);
    }
    let shed = m.shed_overloaded - metrics_before.shed_overloaded;
    let retries = m.retries - metrics_before.retries;
    if shed + retries > 0 {
        run.problem(format!(
            "{shed} jobs shed and {retries} retried; both must be 0"
        ));
    }

    if let Some(layers) = layers {
        let submit_us: Vec<f64> = tracer
            .durations_ms("serve.submit")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        layers.put_p50_p99("serve.submit_us", &submit_us, "us");
        let q = util::sorted(&queue_lens.into_inner().expect("queue samples poisoned"));
        layers.put("serve.queue_len.p99", util::percentile(&q, 0.99), "count");
        let (hits, misses) = (c.hits - cache_before.hits, c.misses - cache_before.misses);
        layers.put(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        layers.put(
            "serve.cache_evictions",
            (c.evictions - cache_before.evictions) as f64,
            "count",
        );
        let delta = |now: u64, before: u64| (now - before) as f64;
        layers.put(
            "serve.rejected_static",
            delta(
                m.rejected_statically_infeasible,
                metrics_before.rejected_statically_infeasible,
            ),
            "count",
        );
        layers.put(
            "serve.failed_expected",
            delta(m.failed, metrics_before.failed),
            "count",
        );
        layers.put("serve.shed", shed as f64, "count");
        layers.put("serve.retries", retries as f64, "count");
        // Per-class p50 of the end-to-end samples; `quota` groups the
        // fuel, memory and static jobs.
        for (name, classes) in [
            ("hot", HOT..HOT + 1),
            ("cold", COLD..COLD + 1),
            ("alloc", ALLOC..ALLOC + 1),
            ("quota", FUEL..CLASS_NAMES.len()),
        ] {
            let xs: Vec<f64> = input
                .ops
                .iter()
                .zip(&run.latencies_ms)
                .filter(|(op, _)| classes.contains(&op.class))
                .map(|(_, &ms)| ms)
                .collect();
            layers.put(
                &format!("serve.latency_ms.{name}.p50"),
                util::median(&xs),
                "ms",
            );
        }
        minilang_layers(&input, quota, tracer, layers, &mut run);
    }
    Ok(run)
}

/// Direct calls into the ResearchScript pipeline: stage times on the
/// cold programs, execution times of the hot and alloc programs on the
/// JIT and fused-VM tiers, and the JIT's exact counters.
fn minilang_layers(
    input: &Input,
    quota: TenantQuota,
    tracer: &Tracer,
    layers: &mut Layers,
    run: &mut Run,
) {
    for (k, &s) in input.cold.iter().enumerate() {
        let op = k as u64;
        if let Ok((fused, facts)) = pipeline(&input.sources[s], tracer, op) {
            let jit = tracer.time("minilang.jit_new", op, || {
                Jit::new(&fused, JitConfig::default(), Some(&facts))
            });
            std::hint::black_box(&jit);
        }
    }
    for stage in ["parse", "absint", "compile", "peephole", "jit_new"] {
        let us: Vec<f64> = tracer
            .durations_ms(&format!("minilang.{stage}"))
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        layers.put(&format!("minilang.{stage}_us"), util::median(&us), "us");
    }

    const RUNS: usize = 30;
    let (mut compiled, mut calls, mut deopts) = (0u64, 0u64, 0u64);
    let mut exec = |name: &'static str, sources: &[usize], use_jit: bool| -> Vec<f64> {
        let mut ms = Vec::new();
        for &s in sources {
            let (fused, facts) = pipeline(&input.sources[s], &Tracer::off(), 0)
                .expect("hot and alloc programs compile");
            let jit = Jit::new(&fused, JitConfig::default(), Some(&facts));
            for r in 0..RUNS {
                let mut vm = Vm::with_limits(Some(quota.fuel), Some(quota.memory));
                let t0 = Instant::now();
                let out = tracer.time(name, r as u64, || {
                    if use_jit {
                        vm.run_jit(&fused, &jit)
                    } else {
                        vm.run(&fused)
                    }
                });
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if classify(out) != input.expect[s] {
                    run.problem(format!(
                        "direct {name} run of source {s} disagrees with the oracle"
                    ));
                }
            }
            if use_jit {
                compiled += u64::from(jit.stats().compiled());
                calls += jit.stats().jit_calls();
                deopts += jit.stats().deopts();
            }
        }
        ms
    };
    let hot_jit = exec("minilang.exec_jit", &input.hot, true);
    let alloc_jit = exec("minilang.exec_jit", &input.alloc, true);
    let hot_fused = exec("minilang.exec_fused", &input.hot, false);
    layers.put("minilang.exec_ms.hot.p50", util::median(&hot_jit), "ms");
    layers.put("minilang.exec_ms.alloc.p50", util::median(&alloc_jit), "ms");
    layers.put(
        "minilang.exec_fused_ms.hot.p50",
        util::median(&hot_fused),
        "ms",
    );
    layers.put("minilang.jit_compiled", compiled as f64, "count");
    layers.put("minilang.jit_calls", calls as f64, "count");
    layers.put("minilang.jit_deopts", deopts as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_classes_cover_every_op_class() {
        let quota = QUOTA;
        for src in hot_sources().iter().chain(&alloc_sources()) {
            assert!(matches!(oracle(src, quota), Expect::Value(_)), "{src}");
        }
        assert!(matches!(oracle(&cold_source(42), quota), Expect::Value(_)));
        assert_eq!(oracle(FUEL_SOURCE, quota), Expect::Fuel);
        assert_eq!(oracle(MEMORY_SOURCE, quota), Expect::Memory);
        assert_eq!(oracle(STATIC_SOURCE, quota), Expect::Fuel);
    }

    #[test]
    fn hot_programs_share_one_fuel_slice_bucket() {
        // Fuel one run needs: the least budget under which it completes.
        let fuel = |src: &str| {
            let (fused, _) = pipeline(src, &Tracer::off(), 0).unwrap();
            let (mut lo, mut hi) = (1u64, QUOTA.fuel);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if Vm::with_fuel(mid).run(&fused).is_ok() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        for src in hot_sources() {
            let f = fuel(&src);
            assert!((200_001..=400_000).contains(&f), "{f} fuel: {src}");
        }
    }

    #[test]
    fn a_wrong_answer_is_not_matched() {
        let got = observed(Ok(Outcome::Completed {
            output: "41".into(),
            attempts: 1,
            latency: Duration::ZERO,
        }));
        assert_ne!(got, Some(Expect::Value("42".into())));
        assert_eq!(observed(Err(Rejected::Overloaded)), None);
    }
}
