//! Cluster experiment: replica scaling and routing policy under burst.
//!
//! Not a paper figure — this is the repo's extension experiment: the
//! staged pipeline's reusable serving loop behind a cluster router
//! (TokenScale-style disaggregated scaling motivates the 1/2/4-replica
//! sweep; Andes-style QoE scheduling motivates the rate-aware policy).

use tokenflow_cluster::{
    ClusterEngine, ClusterOutcome, LeastLoadedRouter, RateAwareRouter, RoundRobinRouter, Router,
};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{Scheduler, TokenFlowScheduler};
use tokenflow_workload::{ControlledSetup, RateDist};

use crate::table::{f, Table};

fn make_router(which: &str) -> Box<dyn Router> {
    match which {
        "round-robin" => Box::new(RoundRobinRouter::new()),
        "least-loaded" => Box::new(LeastLoadedRouter::new()),
        "rate-aware" => Box::new(RateAwareRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

fn scheduler() -> Box<dyn Scheduler> {
    Box::new(TokenFlowScheduler::new())
}

fn spread(out: &ClusterOutcome) -> String {
    let counts: Vec<String> = out
        .replicas
        .iter()
        .map(|o| o.report.submitted.to_string())
        .collect();
    counts.join("/")
}

/// The cluster burst experiment: the Table 1 RTX 4090 (a) flash crowd
/// served by 1, 2, and 4 TokenFlow replicas under each routing policy,
/// reporting merged QoS plus the per-replica request spread.
pub fn cluster_burst() -> String {
    // Multi-rate burst (Figure 19's client mix, stretched): listeners at
    // ~6 tok/s up to fast readers at ~30 tok/s. Uniform rates would make
    // every routing policy coincide on a simultaneous burst; the spread in
    // declared demand is precisely what rate-aware routing balances.
    let workload = ControlledSetup::rtx4090_a()
        .generator(RateDist::Uniform { lo: 6.0, hi: 30.0 })
        .generate(42);
    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
    let mut s = format!(
        "Burst workload: {} requests arriving at once ({} tokens mean output,\n\
         rates uniform in [6, 30] tok/s).\n\
         Scaling out splits the flash crowd; the rate-aware router balances\n\
         declared streaming demand rather than request counts.\n\n",
        workload.len(),
        workload.stats().mean_output.round()
    );
    let mut table = Table::new(vec![
        "replicas",
        "router",
        "eff thpt (tok/s)",
        "thpt (tok/s)",
        "mean TTFT (s)",
        "p99 TTFT (s)",
        "QoS",
        "rebuffer (s)",
        "req spread",
        "complete",
    ]);
    let mut quad_rate_aware: Option<ClusterOutcome> = None;
    for replicas in [1usize, 2, 4] {
        let routers: &[&str] = if replicas == 1 {
            // Every policy degenerates to the same choice on one replica.
            &["round-robin"]
        } else {
            &["round-robin", "least-loaded", "rate-aware"]
        };
        for which in routers {
            let out = ClusterEngine::new(config.clone(), replicas, make_router(which), scheduler)
                .run(&workload);
            table.row(vec![
                replicas.to_string(),
                (*which).to_string(),
                f(out.merged.effective_throughput, 1),
                f(out.merged.throughput, 1),
                f(out.merged.ttft.mean, 2),
                f(out.merged.ttft.p99, 2),
                f(out.merged.qos, 1),
                f(out.merged.total_rebuffer_secs, 1),
                spread(&out),
                out.complete.to_string(),
            ]);
            if replicas == 4 && *which == "rate-aware" {
                quad_rate_aware = Some(out);
            }
        }
    }
    s.push_str(&table.render());

    // Per-replica detail for the sweep's 4-replica rate-aware run (runs
    // are deterministic, so reusing the outcome is free): the merged
    // report must be the conservation-exact recombination of these rows.
    let out = quad_rate_aware.expect("sweep covers 4/rate-aware");
    s.push_str("\n4 replicas, rate-aware router — per-replica detail:\n");
    let mut detail = Table::new(vec![
        "replica",
        "requests",
        "eff thpt (tok/s)",
        "mean TTFT (s)",
        "p99 TTFT (s)",
        "preempts",
    ]);
    for (i, o) in out.replicas.iter().enumerate() {
        detail.row(vec![
            i.to_string(),
            o.report.submitted.to_string(),
            f(o.report.effective_throughput, 1),
            f(o.report.ttft.mean, 2),
            f(o.report.ttft.p99, 2),
            o.report.preemptions.to_string(),
        ]);
    }
    detail.row(vec![
        "merged".to_string(),
        out.merged.submitted.to_string(),
        f(out.merged.effective_throughput, 1),
        f(out.merged.ttft.mean, 2),
        f(out.merged.ttft.p99, 2),
        out.merged.preemptions.to_string(),
    ]);
    s.push_str(&detail.render());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_burst_renders_all_rows() {
        let out = cluster_burst();
        assert!(out.contains("rate-aware"));
        assert!(out.contains("least-loaded"));
        assert!(out.contains("merged"));
        // 1 + 3 + 3 sweep rows plus 4 detail rows plus the merged row.
        assert!(out.lines().count() > 15);
    }
}
