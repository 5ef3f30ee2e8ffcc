//! Fleet experiment: replica scaling to 32 replicas under a
//! barrier-dense flash crowd, the pooled epoch executor against the
//! sequential one.
//!
//! Not a paper figure — this is the repo's fleet-scale extension. The
//! arrival-barrier epoch design makes every replica independent between
//! router dispatch points; *where* each replica's epoch runs is the
//! executor's job, and this experiment measures both strategies head to
//! head on the regime the paper cares about (TokenFlow §6: flash crowds,
//! where arrivals — and therefore barriers — are densest and per-epoch
//! overhead hurts most):
//!
//! * `sequential` — the reference loop on the coordinator thread.
//! * `pooled` — the persistent condvar-parked worker pool.
//!
//! The sweep is *weak scaling* (a fixed per-replica share of the crowd,
//! so the fleet serves a crowd that grows with it — the TokenScale
//! tens-of-instances regime), and every parallel run is asserted
//! byte-identical to its sequential twin before any number is reported.
//!
//! Results are also emitted as machine-readable JSON (`BENCH_fleet.json`
//! in the working directory) so CI can gate the speedup floor and the
//! perf trajectory can be tracked across commits without parsing tables.

use std::num::NonZeroUsize;
use std::time::Instant;

use tokenflow_cluster::{
    ClusterEngine, ClusterOutcome, Execution, ExecutorStats, RoundRobinRouter,
};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::json::{ni, obj, s, Json};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::SimDuration;
use tokenflow_workload::{ArrivalSpec, LengthDist, RateDist, Workload, WorkloadGen};

use crate::experiments::fixed;
use crate::table::{f, Table};

/// Requests each replica is sized for.
const PER_REPLICA_REQUESTS: u32 = 120;

/// The crowd's arrival window: every arrival is its own barrier, so the
/// run crosses thousands of epochs at fleet scale.
const CROWD_WINDOW_SECS: u64 = 60;

/// One row of the fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Fleet size.
    pub replicas: usize,
    /// Flash-crowd size served (scales with the fleet).
    pub requests: usize,
    /// Merged effective throughput, tokens/second.
    pub effective_throughput: f64,
    /// Merged P99 time-to-first-token, seconds.
    pub p99_ttft: f64,
    /// Merged QoS score.
    pub qos: f64,
    /// Whether every replica completed its share.
    pub complete: bool,
    /// Wall-clock of the sequential reference executor, seconds.
    pub sequential_secs: f64,
    /// Wall-clock of the persistent-pool executor, seconds.
    pub pooled_secs: f64,
    /// `sequential_secs / pooled_secs`.
    pub speedup_vs_sequential: f64,
    /// Executor counters from the pooled run.
    pub stats: ExecutorStats,
}

/// The flash crowd sized for `replicas` engines: a Poisson storm of
/// short interactive (chat-sized) requests over a fixed window, with
/// heterogeneous streaming rates. Short outputs keep per-epoch
/// simulation work small, which is the barrier-dense regime where
/// executor overhead — not simulation work — dominates.
fn crowd(replicas: usize) -> Workload {
    WorkloadGen {
        arrivals: ArrivalSpec::Poisson {
            rate: f64::from(PER_REPLICA_REQUESTS * replicas as u32) / CROWD_WINDOW_SECS as f64,
            duration: SimDuration::from_secs(CROWD_WINDOW_SECS),
        },
        prompt: LengthDist::Normal {
            mean: 128.0,
            std: 32.0,
            min: 16,
            max: 256,
        },
        output: LengthDist::Normal {
            mean: 32.0,
            std: 8.0,
            min: 8,
            max: 64,
        },
        rate: RateDist::Uniform { lo: 6.0, hi: 30.0 },
    }
    .generate(42)
}

/// Lane count asked of the pool: every available core, but at least 4
/// so single-core hosts still measure what a user asking for
/// `parallel(4)` gets. The pool never runs more lanes than the host has
/// cores, so there it is the coordinator alone — sequential plus the
/// batch bookkeeping.
fn lanes() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .max(4)
}

/// Timing repetitions per executor; the reported wall-clock is the
/// median, because individual runs are sub-second and scheduler noise
/// on a busy host would otherwise dominate the speedup ratios.
const TIMING_REPS: usize = 3;

fn run_fleet(
    config: &EngineConfig,
    replicas: usize,
    workload: &Workload,
    execution: Execution,
) -> (ClusterOutcome, f64, ExecutorStats) {
    let mut secs = Vec::with_capacity(TIMING_REPS);
    let mut kept = None;
    for _ in 0..TIMING_REPS {
        let mut cluster =
            ClusterEngine::new(config.clone(), replicas, RoundRobinRouter::new(), || {
                Box::new(TokenFlowScheduler::new())
            })
            .with_execution(execution);
        cluster.submit_workload(workload);
        let start = Instant::now();
        cluster.run_to_completion();
        secs.push(start.elapsed().as_secs_f64());
        let stats = cluster.executor_stats();
        kept = Some((cluster.into_outcome(), stats));
    }
    secs.sort_by(f64::total_cmp);
    let (outcome, stats) = kept.expect("TIMING_REPS > 0");
    (outcome, secs[secs.len() / 2], stats)
}

/// Runs the sweep over `fleet_sizes`, timing both executors per size and
/// asserting their outcomes byte-identical before reporting.
///
/// # Panics
///
/// Panics if a parallel run diverges from its sequential twin — a fleet
/// number from a broken determinism contract is worse than no number.
pub fn fleet_sweep(fleet_sizes: &[usize], lanes: usize) -> Vec<FleetRow> {
    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
    fleet_sizes
        .iter()
        .map(|&replicas| {
            let workload = crowd(replicas);
            let (seq, sequential_secs, _) =
                run_fleet(&config, replicas, &workload, Execution::Sequential);
            let (pooled, pooled_secs, stats) =
                run_fleet(&config, replicas, &workload, Execution::parallel(lanes));
            // The canonical report leaves out only the pool's own
            // counters.
            assert_eq!(
                seq.merged.digest(),
                pooled.merged.digest(),
                "pooled executor divergence at {replicas} replicas"
            );
            assert_eq!(
                seq.assignments, pooled.assignments,
                "pooled assignment divergence at {replicas} replicas"
            );
            FleetRow {
                replicas,
                requests: workload.len(),
                effective_throughput: seq.merged.effective_throughput,
                p99_ttft: seq.merged.ttft.p99,
                qos: seq.merged.qos,
                complete: seq.complete,
                sequential_secs,
                pooled_secs,
                speedup_vs_sequential: sequential_secs / pooled_secs.max(1e-9),
                stats,
            }
        })
        .collect()
}

/// Renders the rows as machine-readable JSON through the workspace codec
/// (`tokenflow_scenario::json`): one `rows` array of flat objects, stable
/// across commits for trend tooling and the CI `fleet-speedup` gate.
pub fn fleet_json(rows: &[FleetRow], lanes: usize, host_parallelism: usize) -> String {
    let rows = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("replicas", ni(r.replicas as u64)),
                ("requests", ni(r.requests as u64)),
                ("effective_throughput", fixed(r.effective_throughput, 3)),
                ("p99_ttft", fixed(r.p99_ttft, 4)),
                ("qos", fixed(r.qos, 3)),
                ("complete", Json::Bool(r.complete)),
                ("sequential_secs", fixed(r.sequential_secs, 4)),
                ("pooled_secs", fixed(r.pooled_secs, 4)),
                ("speedup_vs_sequential", fixed(r.speedup_vs_sequential, 3)),
                ("pool_workers", ni(r.stats.pool_workers as u64)),
                ("pool_submissions", ni(r.stats.pool_submissions)),
                ("epochs", ni(r.stats.epochs)),
            ])
        })
        .collect();
    obj(vec![
        ("experiment", s("fleet")),
        ("router", s("round-robin")),
        ("scheduler", s("TokenFlow")),
        ("lanes", ni(lanes as u64)),
        ("host_parallelism", ni(host_parallelism as u64)),
        ("per_replica_requests", ni(PER_REPLICA_REQUESTS.into())),
        ("crowd_window_secs", ni(CROWD_WINDOW_SECS)),
        ("rows", Json::Arr(rows)),
    ])
    .emit_pretty()
}

/// The fleet experiment: 1–32 replicas, weak-scaled barrier-dense flash
/// crowd, pooled vs sequential, JSON trajectory in `BENCH_fleet.json`.
pub fn fleet() -> String {
    let host = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let lanes = lanes();
    let rows = fleet_sweep(&[1, 2, 4, 8, 16, 32], lanes);

    let json = fleet_json(&rows, lanes, host);
    let json_note = match std::fs::write("BENCH_fleet.json", &json) {
        Ok(()) => "JSON trajectory written to BENCH_fleet.json".to_string(),
        Err(e) => format!("(could not write BENCH_fleet.json: {e})"),
    };

    let mut s = format!(
        "Weak-scaling flash crowd: {PER_REPLICA_REQUESTS} short requests per replica arriving\n\
         as a Poisson storm over {CROWD_WINDOW_SECS}s (every arrival its own barrier),\n\
         round-robin routing, TokenFlow scheduling. Both executors are\n\
         asserted byte-identical per size. `×seq` is the persistent pool\n\
         ({lanes} lanes asked) against the sequential reference and tracks\n\
         the host's real parallelism ({host} core(s) here).\n\n"
    );
    let mut table = Table::new(vec![
        "replicas",
        "requests",
        "eff thpt (tok/s)",
        "complete",
        "seq (s)",
        "pooled (s)",
        "×seq",
    ]);
    for r in &rows {
        table.row(vec![
            r.replicas.to_string(),
            r.requests.to_string(),
            f(r.effective_throughput, 1),
            r.complete.to_string(),
            f(r.sequential_secs, 3),
            f(r.pooled_secs, 3),
            f(r.speedup_vs_sequential, 2),
        ]);
    }
    s.push_str(&table.render());
    s.push('\n');
    s.push_str(&json_note);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_keys;
    use tokenflow_scenario::json;

    #[test]
    fn fleet_sweep_small_sizes_complete_and_match() {
        // The full 1–32 sweep runs in the bench harness; tests pin the
        // contract on a small fleet to stay fast.
        let rows = fleet_sweep(&[1, 2], 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.complete, "{} replicas incomplete", r.replicas);
            assert!(r.effective_throughput > 0.0);
            assert!(r.sequential_secs > 0.0 && r.pooled_secs > 0.0);
            let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            assert_eq!(
                r.stats.pool_workers,
                2.min(host) - 1,
                "parallel(2) spawns min(2, host) - 1 workers"
            );
            assert!(r.stats.pool_submissions > 0, "the pool must be exercised");
        }
        // Weak scaling: the doubled fleet serves the doubled crowd with
        // more aggregate throughput.
        assert!(rows[1].effective_throughput > rows[0].effective_throughput);
    }

    #[test]
    fn fleet_json_parses_with_every_key_ci_reads() {
        let rows = fleet_sweep(&[1], 1);
        let doc = json::parse(&fleet_json(&rows, 1, 1)).unwrap();
        assert_eq!(doc.get("experiment"), Some(&s("fleet")));
        assert_keys(
            &doc,
            &[
                "router",
                "scheduler",
                "lanes",
                "host_parallelism",
                "per_replica_requests",
                "crowd_window_secs",
                "rows",
            ],
            "",
        );
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("replicas"), Some(&ni(1)));
        assert_eq!(rows[0].get("complete"), Some(&Json::Bool(true)));
        assert_keys(
            &rows[0],
            &[
                "requests",
                "effective_throughput",
                "p99_ttft",
                "qos",
                "complete",
                "sequential_secs",
                "pooled_secs",
                "speedup_vs_sequential",
                "pool_workers",
                "pool_submissions",
                "epochs",
            ],
            "rows[].",
        );
    }
}
