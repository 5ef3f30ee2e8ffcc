//! The `Send` surface, pinned at compile time.
//!
//! The parallel epoch executor hands whole replicas (engine + boxed
//! scheduler) to pooled worker threads, which requires every shipped
//! scheduler, router, engine, and the cluster itself to be `Send`. These
//! assertions fail to *compile* if anyone threads a non-`Send` handle
//! (an `Rc`, a raw pointer, a thread-local cache) into that surface —
//! the regression shows up long before any test runs.

use tokenflow_cluster::{
    ClusterEngine, Execution, LeastLoadedRouter, RateAwareRouter, RoundRobinRouter, Router,
};
use tokenflow_core::{Engine, EngineConfig};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};
use tokenflow_workload::{ControlledSetup, RateDist};

fn assert_send<T: Send>() {}

#[test]
fn engines_and_cluster_are_send() {
    assert_send::<Engine>();
    assert_send::<ClusterEngine>();
    assert_send::<Execution>();
}

#[test]
fn all_shipped_schedulers_are_send() {
    assert_send::<FcfsScheduler>();
    assert_send::<ChunkedPrefillScheduler>();
    assert_send::<AndesScheduler>();
    assert_send::<TokenFlowScheduler>();
    assert_send::<Box<dyn Scheduler>>();
}

#[test]
fn all_shipped_routers_are_send() {
    assert_send::<RoundRobinRouter>();
    assert_send::<LeastLoadedRouter>();
    assert_send::<RateAwareRouter>();
    assert_send::<Box<dyn Router>>();
}

/// `Parallel(1)` runs one worker over the same replica list in the same
/// order as `Sequential` — the degenerate case must be *exactly* the
/// sequential result, not merely statistically close.
#[test]
fn parallel_one_equals_sequential() {
    let w = ControlledSetup::rtx4090_a()
        .generator(RateDist::Uniform { lo: 6.0, hi: 30.0 })
        .generate(11);
    let config =
        EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16);
    let run = |execution: Execution| {
        ClusterEngine::new(config.clone(), 3, LeastLoadedRouter::new(), || {
            Box::new(TokenFlowScheduler::new())
        })
        .with_execution(execution)
        .run(&w)
    };
    let sequential = run(Execution::Sequential);
    let parallel_one = run(Execution::parallel(1));
    assert!(sequential.complete);
    assert_eq!(sequential.assignments, parallel_one.assignments);
    assert_eq!(sequential.merged.digest(), parallel_one.merged.digest());
    assert_eq!(
        sequential.merged.runtime.epochs,
        parallel_one.merged.runtime.epochs
    );
    for (x, y) in sequential.replicas.iter().zip(&parallel_one.replicas) {
        assert_eq!(x.records, y.records);
        assert_eq!(x.iterations, y.iterations);
    }
}
