//! The `Send` surface, pinned at compile time.
//!
//! Every shipped scheduler, router, engine, and the cluster itself is
//! `Send`, so a caller can build a simulation on one thread and run it
//! on another. These assertions fail to *compile* if anyone threads a
//! non-`Send` handle (an `Rc`, a raw pointer, a thread-local cache) into
//! that surface — the regression shows up long before any test runs.

use tokenflow_cluster::{
    ClusterEngine, LeastLoadedRouter, RateAwareRouter, RoundRobinRouter, Router,
};
use tokenflow_core::Engine;
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};

fn assert_send<T: Send>() {}

#[test]
fn engines_and_cluster_are_send() {
    assert_send::<Engine>();
    assert_send::<ClusterEngine>();
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
