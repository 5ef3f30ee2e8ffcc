//! Epoch execution strategies: how replicas advance between arrival
//! barriers.
//!
//! The cluster's execution model is a sequence of **arrival-barrier
//! epochs**. At a barrier the coordinator routes every request due at the
//! barrier time (reading [`EngineLoad`](tokenflow_core::EngineLoad)
//! snapshots); during the epoch that follows — up to the next arrival, or
//! the final drain — replicas never observe each other, so each one can
//! be advanced independently via
//! [`Engine::step_until`](tokenflow_core::Engine::step_until).
//!
//! Every executor runs the same epoch loop over the same barrier
//! sequence; [`Execution`] picks only *where* each replica's
//! `step_until` runs:
//!
//! * [`Execution::Sequential`] — one replica after another on the calling
//!   thread. Zero threading overhead; wall-clock cost grows linearly with
//!   replica count. This is the reference implementation the pool is
//!   differentially tested against.
//! * [`Execution::Parallel`] — busy replicas are claimed one at a time
//!   from a batch by a persistent, condvar-parked
//!   [`WorkerPool`](crate::WorkerPool) that the cluster spawns once and
//!   reuses for every epoch of the run.
//!
//! Because an epoch's per-replica work is closed over the replica's own
//! state (each [`Engine`] is a self-contained deterministic simulator and
//! the router only runs on the coordinator between epochs), the executor
//! choice cannot change a single byte of any outcome — property tests
//! hold every shipped router and both strategies to exactly that
//! contract, epoch count included.

use std::num::NonZeroUsize;
use std::thread;

use tokenflow_core::Engine;
use tokenflow_sim::SimTime;

use crate::pool::WorkerPool;

/// How the cluster advances its replicas within one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Advance replicas one at a time on the coordinator thread.
    #[default]
    Sequential,
    /// Advance busy replicas on a persistent worker pool with up to this
    /// many lanes (the coordinator itself is one lane, and the pool never
    /// runs more lanes than the host has cores, so `Parallel(1)` spawns
    /// no threads and is observably identical to
    /// [`Execution::Sequential`]). Replicas are claimed item-by-item
    /// from a shared cursor, so one slow replica cannot idle a whole
    /// pre-carved slice.
    Parallel(NonZeroUsize),
}

impl Execution {
    /// Parallel execution sized to the host: one lane per available
    /// core (as reported by [`std::thread::available_parallelism`]),
    /// falling back to sequential execution when parallelism cannot be
    /// determined.
    pub fn parallel_auto() -> Self {
        // audit: allow(determinism, reason = "lane count is a capability, not an input: both Execution variants run one barrier sequence and canonical reports zero the pool counters, so sizing to the host cannot reach an outcome")
        thread::available_parallelism()
            .map(Execution::Parallel)
            .unwrap_or(Execution::Sequential)
    }

    /// Convenience constructor clamping `threads` to at least one.
    pub fn parallel(threads: usize) -> Self {
        Execution::Parallel(NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"))
    }

    /// Short name for reports (`"sequential"` / `"parallel(n)"`).
    pub fn describe(&self) -> String {
        match self {
            Execution::Sequential => "sequential".to_string(),
            Execution::Parallel(n) => format!("parallel({n})"),
        }
    }
}

/// Observability counters for a cluster's epoch executor (see
/// [`ClusterEngine::executor_stats`](crate::ClusterEngine::executor_stats)).
/// All counters are exact for a given run and executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Arrival-barrier epochs the coordinator ran — the same under every
    /// executor.
    pub epochs: u64,
    /// OS threads the persistent pool spawned; zero until the first
    /// parallel epoch, then constant (the pool is reused, never
    /// respawned).
    pub pool_workers: usize,
    /// Pool batches submitted (one per parallel epoch with busy
    /// replicas).
    pub pool_submissions: u64,
}

/// Advances every busy replica (`done[i] == false`) until its clock
/// reaches `until`, it finishes all submitted work, or it goes quiescent;
/// updates `done` in place from each replica's
/// [`step_until`](Engine::step_until) verdict. For
/// [`Execution::Parallel`] the pool is created on first use and reused
/// afterwards.
///
/// The executor only chooses *where* each replica's loop runs — never
/// *what* it does — so both strategies produce identical replica states.
pub(crate) fn advance_until(
    replicas: &mut [Engine],
    done: &mut [bool],
    until: SimTime,
    execution: Execution,
    pool: &mut Option<WorkerPool>,
) {
    debug_assert_eq!(replicas.len(), done.len());
    match execution {
        Execution::Sequential => {
            for (i, engine) in replicas.iter_mut().enumerate() {
                if !done[i] {
                    done[i] = engine.step_until(until);
                }
            }
        }
        Execution::Parallel(threads) => {
            pool.get_or_insert_with(|| WorkerPool::new(threads))
                .advance(replicas, done, until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_names_strategies() {
        assert_eq!(Execution::Sequential.describe(), "sequential");
        assert_eq!(Execution::parallel(4).describe(), "parallel(4)");
    }

    #[test]
    fn parallel_clamps_to_one_worker() {
        assert_eq!(Execution::parallel(0), Execution::parallel(1));
    }

    #[test]
    fn auto_parallelism_is_parallel_on_multicore() {
        // On any host where available_parallelism succeeds this is
        // Parallel(n >= 1); the fallback is Sequential. Either way the
        // value must be usable.
        let e = Execution::parallel_auto();
        assert!(!e.describe().is_empty());
    }
}
