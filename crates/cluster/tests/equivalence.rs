//! Executor equivalence: the arrival-barrier epoch contract, enforced.
//!
//! The cluster's determinism argument is that replicas never observe each
//! other between router dispatch points, so *where* their epoch work runs
//! (coordinator thread vs pooled workers) cannot change any result. These
//! tests hold every shipped router to the strongest version of that
//! claim between [`Execution::Sequential`] and [`Execution::Parallel`]:
//! the same merged-report digest (the canonical form renders every
//! counter but the pool's own), the same epoch count, and per-replica
//! records, reports, and assignments equal under `PartialEq` *and* under
//! their full `Debug` serialization, so even a single differing bit in
//! an `f64` fails the suite.

use tokenflow_cluster::{
    BacklogAwareRouter, ClusterEngine, ClusterOutcome, Execution, LeastLoadedRouter,
    RateAwareRouter, RoundRobinRouter, Router,
};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{FcfsScheduler, Scheduler, TokenFlowScheduler};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_workload::{ControlledSetup, RateDist, RequestSpec, Workload};

const ROUTERS: [&str; 4] = ["round-robin", "least-loaded", "backlog-aware", "rate-aware"];

fn router(which: &str) -> Box<dyn Router> {
    match which {
        "round-robin" => Box::new(RoundRobinRouter::new()),
        "least-loaded" => Box::new(LeastLoadedRouter::new()),
        "backlog-aware" => Box::new(BacklogAwareRouter::new()),
        _ => Box::new(RateAwareRouter::new()),
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16)
}

/// The paper's flash-crowd burst with heterogeneous streaming rates —
/// the workload the acceptance contract names.
fn burst_workload() -> Workload {
    ControlledSetup::rtx4090_a()
        .generator(RateDist::Uniform { lo: 6.0, hi: 30.0 })
        .generate(42)
}

/// Staggered Poisson arrivals: many distinct barrier times, so the epoch
/// slicing itself (not just the single-barrier drain) is exercised.
fn staggered_workload() -> Workload {
    ControlledSetup::rtx4090_c()
        .generator(RateDist::Uniform { lo: 8.0, hi: 25.0 })
        .generate(7)
}

/// One request per second over a wide fleet: every arrival finds the
/// whole fleet drained, so each barrier's dispatch lands on a quiescent
/// replica — the traffic where coalescing barriers would be tempting.
fn trickle_workload(requests: usize) -> Workload {
    let specs = (0..requests)
        .map(|i| RequestSpec {
            id: RequestId(i as u64),
            arrival: SimTime::from_secs(i as u64),
            prompt_tokens: 48,
            output_tokens: 8,
            rate: 30.0,
        })
        .collect();
    Workload::new(specs)
}

fn assert_byte_identical(a: &ClusterOutcome, b: &ClusterOutcome, label: &str) {
    assert_eq!(a.assignments, b.assignments, "{label}: assignments differ");
    assert_eq!(
        a.merged.digest(),
        b.merged.digest(),
        "{label}: merged report digests differ"
    );
    assert_eq!(
        a.merged.runtime.epochs, b.merged.runtime.epochs,
        "{label}: epoch counts differ"
    );
    assert_eq!(a.complete, b.complete, "{label}: completion differs");
    assert_eq!(
        a.replicas.len(),
        b.replicas.len(),
        "{label}: replica count differs"
    );
    for (i, (x, y)) in a.replicas.iter().zip(&b.replicas).enumerate() {
        assert_eq!(x.records, y.records, "{label}: replica {i} records differ");
        assert_eq!(
            format!("{:?}", x.records),
            format!("{:?}", y.records),
            "{label}: replica {i} record serialization differs"
        );
        assert_eq!(
            x.iterations, y.iterations,
            "{label}: replica {i} iteration counts differ"
        );
        assert_eq!(x.report, y.report, "{label}: replica {i} reports differ");
    }
}

fn run(
    workload: &Workload,
    replicas: usize,
    which: &str,
    scheduler: fn() -> Box<dyn Scheduler>,
    execution: Execution,
) -> ClusterOutcome {
    ClusterEngine::new(config(), replicas, router(which), scheduler)
        .with_execution(execution)
        .run(workload)
}

#[test]
fn every_router_is_executor_invariant_on_the_burst() {
    let w = burst_workload();
    for which in ROUTERS {
        let sequential = run(&w, 4, which, || Box::new(TokenFlowScheduler::new()), {
            Execution::Sequential
        });
        assert!(sequential.complete, "{which}: sequential run incomplete");
        for threads in [2usize, 3, 8] {
            let parallel = run(
                &w,
                4,
                which,
                || Box::new(TokenFlowScheduler::new()),
                Execution::parallel(threads),
            );
            assert_byte_identical(
                &sequential,
                &parallel,
                &format!("{which} vs parallel({threads})"),
            );
        }
    }
}

#[test]
fn every_router_is_executor_invariant_on_staggered_arrivals() {
    let w = staggered_workload();
    for which in ROUTERS {
        let sequential = run(
            &w,
            3,
            which,
            || Box::new(FcfsScheduler::new()),
            Execution::Sequential,
        );
        let parallel = run(
            &w,
            3,
            which,
            || Box::new(FcfsScheduler::new()),
            Execution::parallel(3),
        );
        assert_byte_identical(&sequential, &parallel, which);
    }
}

#[test]
fn auto_parallelism_is_executor_invariant() {
    let w = burst_workload();
    let sequential = run(
        &w,
        8,
        "least-loaded",
        || Box::new(TokenFlowScheduler::new()),
        Execution::Sequential,
    );
    let parallel = run(
        &w,
        8,
        "least-loaded",
        || Box::new(TokenFlowScheduler::new()),
        Execution::parallel_auto(),
    );
    assert_byte_identical(&sequential, &parallel, "parallel_auto");
}

#[test]
fn more_workers_than_replicas_is_executor_invariant() {
    let w = burst_workload();
    let sequential = run(
        &w,
        2,
        "rate-aware",
        || Box::new(TokenFlowScheduler::new()),
        Execution::Sequential,
    );
    let parallel = run(
        &w,
        2,
        "rate-aware",
        || Box::new(TokenFlowScheduler::new()),
        Execution::parallel(16),
    );
    assert_byte_identical(&sequential, &parallel, "over-provisioned workers");
}

#[test]
fn drained_fleet_trickle_runs_the_same_barriers() {
    let w = trickle_workload(24);
    let sequential = run(
        &w,
        8,
        "round-robin",
        || Box::new(TokenFlowScheduler::new()),
        Execution::Sequential,
    );
    assert!(sequential.complete, "trickle run incomplete");
    let parallel = run(
        &w,
        8,
        "round-robin",
        || Box::new(TokenFlowScheduler::new()),
        Execution::parallel(2),
    );
    assert_byte_identical(&sequential, &parallel, "drained-fleet trickle");
}
