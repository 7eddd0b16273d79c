//! Pinned outcome digests: a fixed set of traces replayed under each
//! policy, with and without fault injection, must reproduce these exact
//! [`Outcome::digest`] values. A scheduler or engine change that moves
//! any start time, finish time, attempt count, waste figure or event
//! count by one bit fails here.
//!
//! The cases cover the paths a backfill change can disturb:
//! - a deep, saturated queue (offered load 1.15);
//! - estimates quantized to a coarse grid, so many running jobs share an
//!   expected finish time and EASY's shadow crossing falls inside a tie;
//! - checkpoint recovery with `estimate == runtime`, so every first
//!   attempt overruns its estimate by the checkpoint overhead and the
//!   scheduler clamps its expected finish to `now`;
//! - resubmit recovery with backoff, so requeues land mid-queue.

use std::sync::OnceLock;

use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::job::Job;
use rcr_cluster::sched::Policy;
use rcr_cluster::sched::Policy::{
    ConservativeBackfill as Conservative, EasyBackfill as Easy, Fcfs,
};
use rcr_cluster::sim::{Outcome, Simulator};
use rcr_cluster::workload::{generate, WorkloadSpec};

const NODES: usize = 64;
/// Jobs per trace. Conservative backfill replans every queued job on
/// every event, so its traces are shorter to keep the test quick.
const N: usize = 1500;
const N_CONSERVATIVE: usize = 700;

fn saturated(n_jobs: usize, seed: u64) -> Vec<Job> {
    generate(
        &WorkloadSpec {
            n_jobs,
            cluster_nodes: NODES,
            offered_load: 1.15,
            ..WorkloadSpec::default()
        },
        seed,
    )
}

/// Estimates rounded up to whole hours: jobs started together with the
/// same rounded estimate share one expected finish time.
fn quantized(n_jobs: usize, seed: u64) -> Vec<Job> {
    let mut jobs = saturated(n_jobs, seed);
    for j in &mut jobs {
        j.estimate = (j.estimate / 3600.0).ceil() * 3600.0;
    }
    jobs
}

/// Exact estimates: under checkpointing every attempt overruns them.
fn exact(n_jobs: usize, seed: u64) -> Vec<Job> {
    let mut jobs = saturated(n_jobs, seed);
    for j in &mut jobs {
        j.estimate = j.runtime;
    }
    jobs
}

fn checkpoint_faults() -> FaultSpec {
    FaultSpec {
        node_mtbf: 40_000.0,
        repair_time: 900.0,
        job_failure_prob: 0.03,
        recovery: RecoveryPolicy::Checkpoint {
            interval: 300.0,
            overhead: 20.0,
            max_retries: 4,
        },
        seed: 0x5EED,
    }
}

fn resubmit_faults() -> FaultSpec {
    FaultSpec {
        node_mtbf: 40_000.0,
        repair_time: 900.0,
        job_failure_prob: 0.03,
        recovery: RecoveryPolicy::Resubmit {
            max_retries: 3,
            backoff_base: 120.0,
        },
        seed: 0xBAC0FF,
    }
}

fn run(policy: Policy, jobs: Vec<Job>, faults: Option<FaultSpec>) -> Outcome {
    let mut sim = Simulator::new(NODES, policy);
    if let Some(spec) = faults {
        sim = sim.with_faults(spec).expect("valid spec");
    }
    sim.run(jobs).expect("valid trace")
}

type Case = (&'static str, Policy, Outcome);

/// `(case, policy, outcome)`: every case runs under both EASY and FCFS,
/// and the two quantized cases under conservative backfill too. Computed
/// once and shared by the tests below.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(compute_cases)
}

fn compute_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for policy in [Easy, Fcfs] {
        out.push(("saturated", policy, run(policy, saturated(N, 1), None)));
        out.push(("quantized", policy, run(policy, quantized(N, 2), None)));
        out.push((
            "exact+checkpoint",
            policy,
            run(policy, exact(N, 3), Some(checkpoint_faults())),
        ));
        out.push((
            "quantized+resubmit",
            policy,
            run(policy, quantized(N, 4), Some(resubmit_faults())),
        ));
    }
    let p = Conservative;
    out.push(("quantized", p, run(p, quantized(N_CONSERVATIVE, 2), None)));
    out.push((
        "quantized+resubmit",
        p,
        run(p, quantized(N_CONSERVATIVE, 4), Some(resubmit_faults())),
    ));
    out
}

/// Recorded before EASY backfill became incremental; the incremental
/// scheduler must reproduce them bit for bit.
const PINNED: [(&str, Policy, u64); 10] = [
    ("saturated", Easy, 0xb35e_e7ca_f352_8201),
    ("quantized", Easy, 0x1cdb_a666_a41d_9b32),
    ("exact+checkpoint", Easy, 0x7392_cabe_87f9_525e),
    ("quantized+resubmit", Easy, 0x770e_02b8_93b0_f294),
    ("saturated", Fcfs, 0x7289_988f_1748_0cd2),
    ("quantized", Fcfs, 0x533d_9ed8_dda5_4c26),
    ("exact+checkpoint", Fcfs, 0xc7fe_2233_187f_a263),
    ("quantized+resubmit", Fcfs, 0x8ca9_d402_5e52_2fea),
    ("quantized", Conservative, 0x2ccb_f6c8_8cc3_ba78),
    ("quantized+resubmit", Conservative, 0x9ec6_32f7_d8fe_3591),
];

#[test]
fn outcome_digests_are_pinned() {
    let got = cases();
    assert_eq!(got.len(), PINNED.len());
    let mut mismatches = Vec::new();
    for ((case, policy, outcome), (pcase, ppolicy, digest)) in got.iter().zip(PINNED) {
        assert_eq!((*case, *policy), (pcase, ppolicy), "case order");
        if outcome.digest() != digest {
            mismatches.push(format!(
                "(\"{case}\", {policy:?}, {:#018x}),",
                outcome.digest()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn fault_cases_exercise_faults_and_the_overrun_clamp() {
    for (case, policy, outcome) in cases() {
        let (case, policy) = (*case, *policy);
        assert!(!outcome.completed.is_empty(), "{case} {policy:?}");
        if case.contains('+') {
            assert!(outcome.node_failures > 0, "{case} {policy:?}: no faults");
            assert!(
                outcome.completed.iter().any(|c| c.attempts > 1),
                "{case} {policy:?}: no retries"
            );
        }
        if case == "exact+checkpoint" {
            // Some attempt ran past its planned finish: its wall time
            // exceeds the estimate the scheduler planned with.
            assert!(
                outcome
                    .completed
                    .iter()
                    .any(|c| c.finish - c.start > c.job.estimate),
                "{case} {policy:?}: no overrun"
            );
        }
    }
}
