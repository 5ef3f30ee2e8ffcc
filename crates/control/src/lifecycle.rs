//! The deterministic replica lifecycle.
//!
//! Every replica a control plane manages is in exactly one of four
//! phases, and every transition happens on the coordinator thread at an
//! arrival barrier — never mid-epoch — which is what keeps elastic
//! clusters byte-reproducible:
//!
//! ```text
//!             scale-up                    ready_at ≤ barrier
//!   (new) ──▶ Provisioning ─────────────────────────▶ Active
//!                                                      │  ▲
//!                                          scale-down  │  │ scale-up
//!                                                      ▼  │ (reactivate)
//!                              live == 0   ◀── Draining ──┘
//!                    Retired ◀─────────────────┘
//! ```
//!
//! * **Provisioning** — the replica is booting (configurable delay); it
//!   bills but serves nothing and is invisible to routers.
//! * **Active** — the only phase routers dispatch to.
//! * **Draining** — no new dispatch; resident requests run to completion.
//!   A scale-up may reactivate a draining replica (cheaper than booting a
//!   new one).
//! * **Retired** — empty and permanently out of the fleet: no dispatch,
//!   no epoch stepping, no billing.

use tokenflow_sim::SimTime;

/// Lifecycle phase of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPhase {
    /// Booting; becomes [`ReplicaPhase::Active`] at the first arrival
    /// barrier at or after `ready_at`.
    Provisioning {
        /// Earliest barrier instant at which the replica can activate.
        ready_at: SimTime,
    },
    /// Serving and eligible for dispatch.
    Active,
    /// Excluded from dispatch; finishing resident requests.
    Draining,
    /// Empty and permanently decommissioned.
    Retired,
    /// Fail-stopped (crash or boot failure): permanently out of the
    /// fleet, like [`ReplicaPhase::Retired`], but its resident requests
    /// were *lost*, not completed — the cluster's recovery path re-queues
    /// them. Only fault-injected runs ever reach this phase.
    Failed,
}

impl ReplicaPhase {
    /// True for the only phase routers may dispatch to.
    pub fn accepts_dispatch(self) -> bool {
        self == ReplicaPhase::Active
    }

    /// True while the replica costs replica-seconds (everything but
    /// [`ReplicaPhase::Retired`] and [`ReplicaPhase::Failed`] — booting
    /// machines bill too; a crashed machine stops billing at the barrier
    /// that observes the crash).
    pub fn is_billable(self) -> bool {
        !matches!(self, ReplicaPhase::Retired | ReplicaPhase::Failed)
    }

    /// Short name for reports and event logs.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaPhase::Provisioning { .. } => "provisioning",
            ReplicaPhase::Active => "active",
            ReplicaPhase::Draining => "draining",
            ReplicaPhase::Retired => "retired",
            ReplicaPhase::Failed => "failed",
        }
    }
}

/// What happened to one replica at one barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEventKind {
    /// A new replica was created in [`ReplicaPhase::Provisioning`].
    Provisioned {
        /// When its boot delay elapses.
        ready_at: SimTime,
    },
    /// A provisioning replica finished booting and joined the active set.
    Activated,
    /// An active replica was marked draining by a scale-down.
    DrainStarted,
    /// A draining replica was pulled back into the active set by a
    /// scale-up before it emptied.
    Reactivated,
    /// A draining replica emptied and left the fleet for good.
    Retired,
    /// A replica fail-stopped mid-run; its resident requests were lost
    /// to the recovery path. Only fault-injected runs record this.
    Crashed,
    /// A provisioning replica failed to boot and went straight to
    /// [`ReplicaPhase::Failed`]. Only fault-injected runs record this.
    BootFailed,
}

/// One entry of the control plane's decision log. The log is part of the
/// determinism contract: one spec always produces one event sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Barrier instant the transition happened at.
    pub at: SimTime,
    /// Replica index (stable for the lifetime of the cluster).
    pub replica: usize,
    /// The transition.
    pub kind: ScaleEventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_active_accepts_dispatch() {
        assert!(ReplicaPhase::Active.accepts_dispatch());
        assert!(!ReplicaPhase::Draining.accepts_dispatch());
        assert!(!ReplicaPhase::Retired.accepts_dispatch());
        assert!(!ReplicaPhase::Failed.accepts_dispatch());
        assert!(!ReplicaPhase::Provisioning {
            ready_at: SimTime::ZERO
        }
        .accepts_dispatch());
    }

    #[test]
    fn retired_is_the_only_free_phase() {
        assert!(ReplicaPhase::Provisioning {
            ready_at: SimTime::ZERO
        }
        .is_billable());
        assert!(ReplicaPhase::Active.is_billable());
        assert!(ReplicaPhase::Draining.is_billable());
        assert!(!ReplicaPhase::Retired.is_billable());
        assert!(!ReplicaPhase::Failed.is_billable());
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(ReplicaPhase::Active.name(), "active");
        assert_eq!(ReplicaPhase::Retired.name(), "retired");
        assert_eq!(ReplicaPhase::Failed.name(), "failed");
    }
}
