//! Every shipped router serves the paper's flash-crowd burst, and a wide
//! fleet serves a drained-fleet trickle, to completion.

use tokenflow_cluster::{
    BacklogAwareRouter, ClusterEngine, ClusterOutcome, LeastLoadedRouter, RateAwareRouter,
    RoundRobinRouter, Router,
};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{Scheduler, TokenFlowScheduler};
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

fn run(
    workload: &Workload,
    replicas: usize,
    which: &str,
    scheduler: fn() -> Box<dyn Scheduler>,
) -> ClusterOutcome {
    ClusterEngine::new(config(), replicas, router(which), scheduler).run(workload)
}

#[test]
fn every_router_completes_the_burst() {
    let w = burst_workload();
    for which in ROUTERS {
        let out = run(&w, 4, which, || Box::new(TokenFlowScheduler::new()));
        assert!(out.complete, "{which}: run incomplete");
    }
}

#[test]
fn drained_fleet_trickle_completes() {
    let w = trickle_workload(24);
    let out = run(&w, 8, "round-robin", || Box::new(TokenFlowScheduler::new()));
    assert!(out.complete, "trickle run incomplete");
}
