//! A persistent worker pool for parallel epoch execution.
//!
//! Under a flash crowd — the regime the cluster layer exists to study —
//! arrival barriers are a few simulated milliseconds apart, so a run
//! crosses tens of thousands of epochs. Spawning (and joining) threads
//! per epoch would cost as much as the simulation work itself.
//! [`WorkerPool`] spawns its threads once, parks them on a condvar
//! between epochs, and feeds each epoch as a batch of per-replica work
//! items claimed through a shared cursor, so an uneven replica never
//! idles a pre-carved slice.
//!
//! # Protocol
//!
//! One epoch = one batch. The coordinator publishes the batch under the
//! state mutex, wakes at most `len - 1` workers, and then **claims items
//! itself** alongside them — a one-lane pool therefore spawns no threads
//! at all and degenerates to the sequential loop. Each item
//! is claimed exactly once (cursor increments under the mutex), executed
//! outside the lock, and its verdict written back into the item slot.
//! The last finisher clears the batch and signals the coordinator, which
//! is blocked until then — so the raw pointers in a batch never outlive
//! the `&mut [Engine]` borrow that produced them.
//!
//! A panicking item (e.g. a scheduler assertion inside
//! [`Engine::step_until`]) is caught with [`std::panic::catch_unwind`];
//! the first payload is stored and re-raised **on the coordinator** via
//! [`std::panic::resume_unwind`] after the batch drains, so the original
//! panic message survives the pool instead of being replaced by a
//! generic join error.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tokenflow_core::Engine;
use tokenflow_sim::SimTime;

/// One replica's slice of an epoch: advance `engine` until `until` and
/// record [`Engine::step_until`]'s verdict.
struct WorkItem {
    engine: *mut Engine,
    replica: usize,
    finished: bool,
}

/// A published batch: a raw view over the coordinator's item buffer,
/// alive only while [`State::batch`] is `Some`.
#[derive(Clone, Copy)]
struct Batch {
    items: *mut WorkItem,
    len: usize,
    until: SimTime,
}

// SAFETY: a batch is only reachable while the coordinator is inside
// `WorkerPool::advance`, which holds the `&mut [Engine]` borrow the item
// pointers were derived from and blocks until every item completed. Each
// item index is claimed exactly once under the state mutex, so no two
// threads ever touch the same `WorkItem` or `Engine`. `Engine` itself is
// `Send` (compile-asserted via `ClusterEngine`).
unsafe impl Send for Batch {}

struct State {
    batch: Option<Batch>,
    /// Claim cursor into the current batch.
    next: usize,
    /// Items not yet completed in the current batch.
    remaining: usize,
    /// First panic payload caught while running an item.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between batches.
    work_ready: Condvar,
    /// The coordinator parks here until the batch drains.
    work_done: Condvar,
}

impl Shared {
    /// Claims and runs items until the current batch is exhausted. Both
    /// parked workers and the coordinator drain batches through this
    /// loop.
    fn drain_batch(&self) {
        loop {
            let (batch, idx) = {
                let mut st = self.state.lock().expect("pool state poisoned");
                match st.batch {
                    Some(b) if st.next < b.len => {
                        let idx = st.next;
                        st.next += 1;
                        (b, idx)
                    }
                    _ => return,
                }
            };
            // SAFETY: `idx` was claimed exactly once under the lock, so
            // this thread holds the only live reference into item `idx`;
            // the item buffer is the coordinator's `items` vec, which is
            // not touched (or reallocated) while a batch is published
            // and outlives it (see `Batch`).
            let item = unsafe { &mut *batch.items.add(idx) };
            // SAFETY: each engine appears in at most one work item — the
            // coordinator derives the pointers from one `&mut [Engine]`,
            // one item per distinct index — so the exclusive claim on
            // item `idx` is also an exclusive claim on its engine, and
            // `advance` keeps that borrow alive until the batch drains.
            let engine = unsafe { &mut *item.engine };
            let result = panic::catch_unwind(AssertUnwindSafe(|| engine.step_until(batch.until)));
            let mut st = self.state.lock().expect("pool state poisoned");
            match result {
                Ok(finished) => item.finished = finished,
                Err(payload) => {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                st.batch = None;
                self.work_done.notify_one();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.batch.is_some_and(|b| st.next < b.len) {
                    break;
                }
                st = shared.work_ready.wait(st).expect("pool state poisoned");
            }
        }
        shared.drain_batch();
    }
}

/// Cores the host can run at once (one when that cannot be determined).
fn host_cores() -> usize {
    // audit: allow(determinism, reason = "the host core count only bounds how many threads drain a batch; item claim order cannot reach any outcome byte (pinned by the executor equivalence and chaos suites)")
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The persistent pool behind [`Execution::Parallel`](crate::Execution).
///
/// Created lazily by the cluster on the first parallel epoch and reused
/// for the rest of the run; dropped (threads joined) when the cluster is
/// consumed.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Reusable per-epoch item buffer. Filled before a batch is
    /// published and never reallocated while one is live.
    items: Vec<WorkItem>,
    submissions: u64,
}

// SAFETY: the raw pointers in `items` are only ever dereferenced while a
// batch is live — i.e. inside `advance`, which holds the `&mut [Engine]`
// borrow they were derived from and blocks until the batch drains.
// Between epochs they are inert values, so moving the pool across
// threads (as `ClusterEngine: Send` requires) is sound; worker threads
// communicate only through `Shared`.
unsafe impl Send for WorkerPool {}

impl WorkerPool {
    /// Spawns a pool of `min(threads, host cores)` concurrent lanes: the
    /// coordinator is one of them, so at most that many minus one OS
    /// threads are created (named `tokenflow-pool-<i>`). Lanes beyond the
    /// host's cores buy no concurrency, only a context switch per epoch.
    /// A refused spawn keeps the workers already running — the
    /// coordinator alone is a valid pool — so no lane count can fail a
    /// run.
    pub fn new(threads: NonZeroUsize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batch: None,
                next: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let mut workers = Vec::new();
        for i in 0..threads.get().min(host_cores()) - 1 {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("tokenflow-pool-{i}"))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(_) => break,
            }
        }
        WorkerPool {
            shared,
            workers,
            items: Vec::new(),
            submissions: 0,
        }
    }

    /// OS threads this pool spawned (its lane count minus the
    /// coordinator). Constant for the pool's lifetime — the observable
    /// proof that epochs reuse workers instead of respawning them.
    pub fn spawned_workers(&self) -> usize {
        self.workers.len()
    }

    /// Batches submitted so far (one per parallel epoch that had busy
    /// replicas).
    pub fn submissions(&self) -> u64 {
        self.submissions
    }

    /// Advances every busy replica (`done[i] == false`) until `until`,
    /// updating `done` from each verdict — the pooled equivalent of the
    /// sequential loop, with identical results.
    ///
    /// # Panics
    ///
    /// Re-raises (via [`panic::resume_unwind`]) the first panic any item
    /// produced, after the whole batch drained.
    pub(crate) fn advance(&mut self, replicas: &mut [Engine], done: &mut [bool], until: SimTime) {
        debug_assert_eq!(replicas.len(), done.len());
        self.items.clear();
        for (i, engine) in replicas.iter_mut().enumerate() {
            if !done[i] {
                self.items.push(WorkItem {
                    engine: engine as *mut Engine,
                    replica: i,
                    finished: false,
                });
            }
        }
        if self.items.is_empty() {
            return;
        }
        let len = self.items.len();
        self.submissions += 1;
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            debug_assert!(st.batch.is_none(), "overlapping batches");
            st.batch = Some(Batch {
                items: self.items.as_mut_ptr(),
                len,
                until,
            });
            st.next = 0;
            st.remaining = len;
            // The coordinator claims items too, so only workers needed
            // beyond its own first claim are woken — a one-item epoch
            // (the common sparse case) takes no futex at all.
            let wake = (len - 1).min(self.workers.len());
            if wake == self.workers.len() {
                self.shared.work_ready.notify_all();
            } else {
                for _ in 0..wake {
                    self.shared.work_ready.notify_one();
                }
            }
        }
        self.shared.drain_batch();
        let payload = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.batch.is_some() {
                st = self.shared.work_done.wait(st).expect("pool state poisoned");
            }
            st.panic.take()
        };
        for item in &self.items {
            done[item.replica] = item.finished;
        }
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_one_spawns_no_threads() {
        let pool = WorkerPool::new(NonZeroUsize::new(1).expect("non-zero"));
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    fn pool_spawns_lanes_minus_coordinator_up_to_the_host() {
        let host = host_cores();
        let pool = WorkerPool::new(NonZeroUsize::new(4).expect("non-zero"));
        assert_eq!(pool.spawned_workers(), 4.min(host) - 1);
        assert_eq!(pool.submissions(), 0);
    }

    #[test]
    fn lanes_beyond_the_host_spawn_at_most_host_minus_one() {
        let host = host_cores();
        let pool = WorkerPool::new(NonZeroUsize::new(host + 2000).expect("non-zero"));
        assert!(
            pool.spawned_workers() < host,
            "{} workers on a {host}-core host",
            pool.spawned_workers()
        );
    }
}
