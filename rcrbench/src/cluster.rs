//! The two cluster-simulator workloads.
//!
//! `cluster-backfill` replays a synthetic trace under EASY backfill on
//! one serial `Engine`, advanced window by window; the queue stays deep,
//! so the scheduler's `select` does most of the work and the event queue
//! little. `cluster-faults` streams an SWF trace through the windowed
//! parallel runner under FCFS with node failures and software faults, so
//! events per job, fault bookkeeping, SWF parsing and the window barrier
//! dominate and `select` is cheap. An optimisation of backfill should
//! show on the first and not move the second.
//!
//! An op is one simulated job; a latency sample is one window step. The
//! oracle checks replay invariants: every job resolves exactly once, none
//! starts before it was submitted or finishes before it starts, and no
//! instant has more nodes busy than the (sub-)cluster has.

use std::collections::HashMap;
use std::time::Instant;

use rcr_cluster::engine::Engine;
use rcr_cluster::event::QueueKind;
use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::job::Job;
use rcr_cluster::sched::Policy;
use rcr_cluster::sim::{Outcome, Simulator};
use rcr_cluster::swf;
use rcr_cluster::windowed::{shard_of, WindowedSim, WindowedSpec};
use rcr_cluster::workload::{generate, WorkloadSpec};
use rcr_kernels::par;

use crate::trace::Tracer;
use crate::util::{self, Fnv};
use crate::{Layers, Params, Run};

/// Nominal jobs per second of `--seconds` for each workload.
const BACKFILL_JOBS_PER_SECOND: f64 = 330_000.0;
const FAULTS_JOBS_PER_SECOND: f64 = 350_000.0;
/// Jobs per round: each round is one trace, set up and replayed.
const BACKFILL_JOBS_PER_ROUND: usize = 20_000;
const FAULTS_JOBS_PER_ROUND: usize = 25_000;

/// Window steps per trace span. Every run has at least 1000 latency
/// samples, so the p99 has at least ten samples beyond it, and at most
/// about 100 000: with 500 000 samples (4 MB) the backfill peak RSS read
/// either 15.0 or 17.7 MB from run to run.
/// The windowed runner's steps are about 6 ms: a step waits for both of
/// its threads, so a vCPU descheduled for a few ms by a shared host delays
/// it, and at steps of 0.3–1 ms such delays set the p99 in some runs and
/// not others.
const BACKFILL_WINDOWS: f64 = 200.0;
const FAULTS_WINDOWS: f64 = 8.0;

const BACKFILL_NODES: usize = 128;
/// Offered load above 1: the wait queue grows through the trace and is
/// hundreds of jobs deep for most of it, which is where EASY's `select`
/// costs the most. Above saturation the queue depth follows the load
/// almost deterministically, so it varies little from seed to seed.
const BACKFILL_LOAD: f64 = 1.15;

const SHARDS: usize = 16;
const NODES_PER_SHARD: usize = 64;

fn backfill_spec(n_jobs: usize) -> WorkloadSpec {
    WorkloadSpec {
        n_jobs,
        cluster_nodes: BACKFILL_NODES,
        offered_load: BACKFILL_LOAD,
        ..WorkloadSpec::default()
    }
}

/// Checks the replay invariants of one (sub-)cluster's outcome against
/// the jobs routed to it. Returns the number of jobs that violate them;
/// a capacity violation is a problem of the whole run.
fn check(jobs: &[Job], outcome: &Outcome, nodes: usize, run: &mut Run) -> u64 {
    let mut seen: HashMap<u64, u32> = jobs.iter().map(|j| (j.id, 0)).collect();
    let mut bad = 0u64;
    let mut intervals = Vec::with_capacity(outcome.completed.len() * 2);
    for c in &outcome.completed {
        match seen.get_mut(&c.job.id) {
            Some(n) => *n += 1,
            None => bad += 1,
        }
        if c.start < c.job.submit || c.finish < c.start {
            bad += 1;
        }
        intervals.push((c.start, c.job.nodes as i64));
        intervals.push((c.finish, -(c.job.nodes as i64)));
    }
    for a in &outcome.abandoned {
        match seen.get_mut(&a.job.id) {
            Some(n) => *n += 1,
            None => bad += 1,
        }
    }
    bad += seen.values().filter(|&&n| n != 1).count() as u64;
    // Releases sort before acquisitions at equal times.
    intervals.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite times")
            .then(a.1.cmp(&b.1))
    });
    let mut busy = 0i64;
    for (t, d) in intervals {
        busy += d;
        if busy > nodes as i64 {
            run.problem(format!(
                "{busy} nodes busy at t={t} on a {nodes}-node cluster"
            ));
            break;
        }
    }
    if bad > 0 {
        run.problem(format!("{bad} jobs broke a replay invariant"));
    }
    bad
}

/// Set-up of `cluster-backfill`: generate the trace, send it through SWF
/// text and back, and build the engine.
fn backfill_setup(seed: u64, tracer: &Tracer) -> Result<(Vec<Job>, Engine), String> {
    let spec = backfill_spec(BACKFILL_JOBS_PER_ROUND);
    let jobs = tracer.time("cluster.trace_gen", 0, || generate(&spec, seed));
    let text = tracer.time("cluster.swf_write", 0, || swf::to_swf(&jobs));
    let jobs = tracer
        .time("cluster.swf_parse", 0, || swf::from_swf(&text))
        .map_err(|e| e.to_string())?;
    let engine = Engine::new(
        BACKFILL_NODES,
        Policy::EasyBackfill,
        FaultSpec::none(seed),
        QueueKind::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok((jobs, engine))
}

/// Seed of round `r` of a run: each round replays a fresh trace, so one
/// run averages over several traces.
fn round_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Rounds of `per_round` jobs that make up a run's nominal job count.
fn rounds(p: &Params, per_second: f64, per_round: usize) -> usize {
    p.ops(per_second).div_ceil(per_round)
}

pub fn run_backfill(
    p: &Params,
    tracer: &Tracer,
    mut layers: Option<&mut Layers>,
) -> Result<Run, String> {
    let mut run = Run {
        threads: 1,
        ..Run::default()
    };
    let mut digest = Fnv::default();
    let mut in_flight = Vec::new();
    let mut events = 0u64;
    for r in 0..rounds(p, BACKFILL_JOBS_PER_SECOND, BACKFILL_JOBS_PER_ROUND) {
        let seed = round_seed(p.seed, r);
        let t0 = Instant::now();
        let (jobs, mut engine) =
            tracer.time("cluster.setup", r as u64, || backfill_setup(seed, tracer))?;
        run.setup_s.push(t0.elapsed().as_secs_f64());
        let width = jobs.last().map_or(1.0, |j| j.submit) / BACKFILL_WINDOWS;

        let mut next = 0usize;
        let cpu0 = util::process_cpu_s();
        let t0 = Instant::now();
        let mut w = 0u64;
        loop {
            w += 1;
            let step = Instant::now();
            let g = tracer.span("cluster.window", w);
            let horizon = w as f64 * width;
            while next < jobs.len() && jobs[next].submit < horizon {
                engine.inject(jobs[next]).map_err(|e| e.to_string())?;
                next += 1;
            }
            // Past the last arrival the engine keeps stepping window by
            // window until the backlog is resolved (bounded, then drained).
            let stuck = w as f64 > 100.0 * BACKFILL_WINDOWS;
            engine.advance_to(if stuck { f64::INFINITY } else { horizon });
            drop(g);
            run.latencies_ms.push(step.elapsed().as_secs_f64() * 1e3);
            if layers.is_some() {
                in_flight.push((engine.submitted() - engine.resolved()) as f64);
            }
            if next == jobs.len() && engine.resolved() == jobs.len() {
                break;
            }
        }
        run.wall_s += t0.elapsed().as_secs_f64();
        run.cpu_s += util::process_cpu_s() - cpu0;
        let outcome = engine.into_outcome();
        run.attempted += jobs.len() as u64;
        run.failed += check(&jobs, &outcome, BACKFILL_NODES, &mut run);
        digest.push(outcome.digest());
        events += outcome.events;

        // Whole-trace replays of the first round's trace, per policy.
        if let (0, Some(layers)) = (r, layers.as_deref_mut()) {
            let replay = |policy| -> Result<f64, String> {
                let sim = Simulator::new(BACKFILL_NODES, policy);
                let copy = jobs.clone();
                let t0 = Instant::now();
                let out = sim.run(copy).map_err(|e| e.to_string())?;
                let s = t0.elapsed().as_secs_f64();
                std::hint::black_box(out);
                Ok(s)
            };
            let easy = replay(Policy::EasyBackfill)?;
            let fcfs = replay(Policy::Fcfs)?;
            layers.put("cluster.replay_s.easy", easy, "s");
            layers.put("cluster.replay_s.fcfs", fcfs, "s");
            layers.put("cluster.sched_share_est", 1.0 - fcfs / easy, "ratio");
        }
    }
    run.digest = digest.finish();

    if let Some(layers) = layers {
        let ms = |name: &str| util::median(&tracer.durations_ms(name));
        layers.put("cluster.trace_gen_ms", ms("cluster.trace_gen"), "ms");
        layers.put("cluster.swf_parse_ms", ms("cluster.swf_parse"), "ms");
        layers.put("cluster.events", events as f64, "count");
        layers.put(
            "cluster.events_per_job",
            events as f64 / run.attempted as f64,
            "count",
        );
        let f = util::sorted(&in_flight);
        layers.put("cluster.in_flight.p50", util::percentile(&f, 0.5), "count");
        layers.put("cluster.in_flight.max", util::percentile(&f, 1.0), "count");
    }
    Ok(run)
}

fn faults_spec(seed: u64, window: f64, threads: usize) -> WindowedSpec {
    WindowedSpec {
        nodes_per_shard: NODES_PER_SHARD,
        shards: SHARDS,
        policy: Policy::Fcfs,
        faults: FaultSpec {
            node_mtbf: 2.0e5,
            repair_time: 1800.0,
            job_failure_prob: 0.02,
            recovery: RecoveryPolicy::Checkpoint {
                interval: 600.0,
                overhead: 10.0,
                max_retries: 5,
            },
            seed,
        },
        queue: QueueKind::default(),
        window,
        threads,
    }
}

/// Set-up of `cluster-faults`: one federation-wide trace (load 0.85 of
/// the whole federation, requests bounded by a shard's size) as SWF text
/// in canonical order, and the windowed runner.
fn faults_setup(
    seed: u64,
    tracer: &Tracer,
) -> Result<(String, Vec<Job>, WindowedSim, f64), String> {
    let spec = WorkloadSpec {
        n_jobs: FAULTS_JOBS_PER_ROUND,
        cluster_nodes: NODES_PER_SHARD,
        offered_load: 0.85 * SHARDS as f64,
        ..WorkloadSpec::default()
    };
    let jobs = tracer.time("cluster.trace_gen", 1, || generate(&spec, seed));
    // Export, re-import and export again: SWF keeps centiseconds, and the
    // second text is in the order a streaming replay must see.
    let jobs = swf::from_swf(&swf::to_swf(&jobs)).map_err(|e| e.to_string())?;
    let text = swf::to_swf(&jobs);
    let window = jobs.last().map_or(1.0, |j| j.submit) / FAULTS_WINDOWS;
    let sim = WindowedSim::new(faults_spec(seed, window, par::default_threads()))
        .map_err(|e| e.to_string())?;
    Ok((text, jobs, sim, window))
}

/// Iterator wrapper that observes the runner from outside: the runner
/// pulls a window's arrivals just before advancing that window, so the
/// time between two pulls that enter new windows is one window step.
/// Records the instant of every such pull.
struct Observed<'a, I> {
    inner: I,
    width: f64,
    window: i64,
    boundaries: &'a mut Vec<Instant>,
}

impl<I: Iterator<Item = rcr_cluster::Result<Job>>> Iterator for Observed<'_, I> {
    type Item = rcr_cluster::Result<Job>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next();
        if let Some(Ok(job)) = &item {
            let w = (job.submit / self.width).floor() as i64;
            if w > self.window {
                self.boundaries.push(Instant::now());
                self.window = w;
            }
        }
        item
    }
}

pub fn run_faults(
    p: &Params,
    tracer: &Tracer,
    mut layers: Option<&mut Layers>,
) -> Result<Run, String> {
    let threads = par::default_threads();
    let mut run = Run {
        threads,
        ..Run::default()
    };
    let mut digest = Fnv::default();
    let (mut windows, mut node_failures, mut retries) = (0u64, 0usize, 0u64);
    let (mut goodput, mut badput) = (0.0, 0.0);
    for r in 0..rounds(p, FAULTS_JOBS_PER_SECOND, FAULTS_JOBS_PER_ROUND) {
        let seed = round_seed(p.seed, r);
        let t0 = Instant::now();
        let (text, jobs, sim, window) =
            tracer.time("cluster.setup", r as u64, || faults_setup(seed, tracer))?;
        run.setup_s.push(t0.elapsed().as_secs_f64());

        let mut boundaries = Vec::new();
        let cpu0 = util::process_cpu_s();
        let t0 = Instant::now();
        let outcome = {
            let _g = tracer.span("cluster.windowed_run", r as u64);
            let observed = Observed {
                inner: swf::stream_jobs(&text),
                width: window,
                window: -1,
                boundaries: &mut boundaries,
            };
            sim.run_stream(observed).map_err(|e| e.to_string())?
        };
        // The last step ends when the runner returns: the final window,
        // which drains the backlog left at the last arrival.
        boundaries.push(Instant::now());
        let wall = t0.elapsed().as_secs_f64();
        run.wall_s += wall;
        run.cpu_s += util::process_cpu_s() - cpu0;
        run.latencies_ms.extend(
            boundaries
                .windows(2)
                .map(|b| (b[1] - b[0]).as_secs_f64() * 1e3),
        );
        run.attempted += jobs.len() as u64;

        let mut routed: Vec<Vec<Job>> = vec![Vec::new(); SHARDS];
        for j in &jobs {
            routed[shard_of(j.id, SHARDS)].push(*j);
        }
        for (shard, out) in outcome.shards.iter().enumerate() {
            run.failed += check(&routed[shard], out, NODES_PER_SHARD, &mut run);
        }
        digest.push(outcome.digest());
        windows += outcome.windows;
        node_failures += outcome.node_failures();
        let res = outcome.resilience();
        retries += res.total_retries;
        goodput += res.goodput;
        badput += res.badput;

        // The first round again on one thread: same digest, and the
        // runner's parallel speed-up.
        if let (0, Some(layers)) = (r, layers.as_deref_mut()) {
            let serial =
                WindowedSim::new(faults_spec(seed, window, 1)).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let one = serial
                .run_stream(swf::stream_jobs(&text))
                .map_err(|e| e.to_string())?;
            let serial_s = t1.elapsed().as_secs_f64();
            if one.digest() != outcome.digest() {
                run.problem("1-thread windowed replay digest differs".into());
            }
            layers.put("cluster.parallel_speedup", serial_s / wall, "ratio");
        }
    }
    run.digest = digest.finish();

    if let Some(layers) = layers {
        layers.put("cluster.windows", windows as f64, "count");
        layers.put("cluster.node_failures", node_failures as f64, "count");
        layers.put("cluster.retries", retries as f64, "count");
        layers.put(
            "cluster.goodput_share",
            goodput / (goodput + badput),
            "ratio",
        );
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay() -> (Vec<Job>, Outcome) {
        let jobs = generate(&backfill_spec(300), 5);
        let outcome = Simulator::new(BACKFILL_NODES, Policy::EasyBackfill)
            .run(jobs.clone())
            .unwrap();
        (jobs, outcome)
    }

    fn verdict(jobs: &[Job], outcome: &Outcome) -> (u64, bool) {
        let mut run = Run::default();
        let bad = check(jobs, outcome, BACKFILL_NODES, &mut run);
        (bad, run.problems.is_empty())
    }

    #[test]
    fn a_faithful_replay_passes() {
        let (jobs, outcome) = replay();
        assert_eq!(verdict(&jobs, &outcome), (0, true));
    }

    #[test]
    fn a_corrupted_replay_turns_correct_false() {
        let (jobs, outcome) = replay();

        let mut early = outcome.clone();
        early.completed[7].start = early.completed[7].job.submit - 1.0;
        assert_eq!(verdict(&jobs, &early), (1, false));

        let mut twice = outcome.clone();
        let dup = twice.completed[3];
        twice.completed.push(dup);
        assert!(!verdict(&jobs, &twice).1);

        let mut lost = outcome.clone();
        lost.completed.pop();
        assert_eq!(verdict(&jobs, &lost), (1, false));

        let mut crowded = outcome;
        let mut wide = crowded.completed[0];
        wide.job.nodes = BACKFILL_NODES;
        crowded.completed[0] = wide;
        assert!(!verdict(&jobs, &crowded).1);
    }
}
