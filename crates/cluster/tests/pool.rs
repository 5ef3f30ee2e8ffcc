//! The persistent pool's contract, enforced: byte-identity under extreme
//! replica skew, observable worker reuse, and panic-payload survival.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};

use tokenflow_cluster::{ClusterEngine, ClusterOutcome, Execution, RoundRobinRouter};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{FcfsScheduler, SchedContext, SchedPlan, Scheduler, TokenFlowScheduler};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_workload::{RequestSpec, Workload};

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16)
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
    }
}

/// Round-robin over `replicas` replicas with every request that lands on
/// replica 0 carrying a ~100x heavier decode than the rest: the worst
/// case for a contiguous-slice split, where the slice holding replica 0
/// serializes behind it while other workers idle.
fn skewed_workload(replicas: usize, rounds: usize) -> Workload {
    let mut specs = Vec::new();
    for i in 0..replicas * rounds {
        let heavy = i % replicas == 0;
        specs.push(RequestSpec {
            id: RequestId(i as u64),
            // Distinct arrival instants: every request is its own
            // barrier, so the run crosses many epochs.
            arrival: SimTime::from_millis(40 * i as u64),
            prompt_tokens: 64,
            output_tokens: if heavy { 300 } else { 3 },
            rate: 25.0,
        });
    }
    Workload::new(specs)
}

#[test]
fn skewed_replicas_are_byte_identical_across_all_strategies() {
    let workload = skewed_workload(4, 20);
    let run = |execution| {
        ClusterEngine::new(config(), 4, RoundRobinRouter::new(), || {
            Box::new(TokenFlowScheduler::new())
        })
        .with_execution(execution)
        .run(&workload)
    };
    let sequential = run(Execution::Sequential);
    let pooled = run(Execution::parallel(3));
    assert_byte_identical(&sequential, &pooled, "skew: sequential vs pooled");
    assert!(sequential.complete, "skewed run must complete");
}

#[test]
fn pool_is_reused_across_epochs_not_respawned() {
    let workload = skewed_workload(4, 20);
    let mut cluster = ClusterEngine::new(config(), 4, RoundRobinRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_execution(Execution::parallel(3));
    cluster.submit_workload(&workload);
    assert!(cluster.run_to_completion());
    let stats = cluster.executor_stats();
    // Parallel(3) = coordinator + min(3, host) - 1 spawned threads,
    // created exactly once; every epoch with busy replicas fed the same
    // pool.
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    assert_eq!(stats.pool_workers, 3.min(host) - 1, "pool spawn count");
    assert!(
        stats.pool_submissions > 10,
        "many epochs should reuse the pool (got {} submissions)",
        stats.pool_submissions
    );
    assert!(
        stats.pool_submissions <= stats.epochs,
        "at most one batch per epoch"
    );
}

/// A scheduler that works normally for a fixed number of planning calls,
/// then fails the way a real invariant assertion would.
struct PanicAfter {
    inner: FcfsScheduler,
    remaining: u32,
}

impl Scheduler for PanicAfter {
    fn name(&self) -> &'static str {
        "panic-after"
    }

    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan {
        assert!(
            self.remaining > 0,
            "replica scheduler invariant violated: kv accounting drifted"
        );
        self.remaining -= 1;
        self.inner.plan(ctx)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("<non-string payload>")
}

fn run_panicking(execution: Execution) -> String {
    let workload = skewed_workload(4, 6);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        ClusterEngine::new(config(), 4, RoundRobinRouter::new(), || {
            Box::new(PanicAfter {
                inner: FcfsScheduler::new(),
                remaining: 5,
            })
        })
        .with_execution(execution)
        .run(&workload)
    }));
    let payload = result.expect_err("a panicking scheduler must fail the run");
    panic_message(payload.as_ref()).to_string()
}

#[test]
fn scheduler_panic_message_survives_the_pool() {
    let message = run_panicking(Execution::parallel(3));
    assert!(
        message.contains("kv accounting drifted"),
        "pooled execution must re-raise the original payload, got: {message}"
    );
}
