//! Elastic control plane for TokenFlow clusters.
//!
//! TokenFlow absorbs request bursts *within* a fixed fleet by
//! preemptive, buffer-aware scheduling; this crate absorbs the bursts
//! that outlive what preemption can hide by resizing the fleet itself.
//! The design follows the same insight at a larger radius: TTFT under
//! burst is dominated by *admission pressure* — prompts queued ahead of
//! a request's own prefill — so the autoscaler watches the fleet's
//! pending-prefill backlog and its `Σ rᵢ / Γ` rate headroom (the demand
//! side of the paper's schedulability test) rather than resident batch
//! sizes.
//!
//! * [`policy`] — the [`ScalePolicy`] trait and the built-in spectrum:
//!   [`ReactivePolicy`] (thresholds on backlog + headroom),
//!   [`PredictivePolicy`] (EWMA forecast of the arrival token rate), and
//!   [`ScriptedPolicy`] (a fixed schedule, for tests and replays).
//! * [`lifecycle`] — the deterministic replica lifecycle: `Provisioning
//!   → Active → Draining → Retired`, with every transition logged as a
//!   [`ScaleEvent`].
//! * [`plane`] — the [`ControlPlane`] gluing the two together: billing,
//!   promotion, retirement, policy consultation, and clamped application
//!   — all at arrival barriers, all on the coordinator thread.
//!
//! **Determinism.** The control plane runs only at arrival barriers,
//! where every replica's state is already pinned byte-for-byte by the
//! cluster's epoch contract. Its inputs (load snapshots, the arrival
//! group) and its arithmetic are therefore pinned by the barrier, which
//! extends the cluster's determinism to elastic fleets — scale
//! decisions, event logs, and fleet timelines reproduce bit-for-bit.
//! The golden suite pins every shipped policy's outcome.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub mod lifecycle;
pub mod plane;
pub mod policy;

pub use lifecycle::{ReplicaPhase, ScaleEvent, ScaleEventKind};
pub use plane::{ControlConfig, ControlPlane};
pub use policy::{
    FleetObservation, PredictivePolicy, ReactivePolicy, ScaleDecision, ScalePolicy, ScriptedPolicy,
};
