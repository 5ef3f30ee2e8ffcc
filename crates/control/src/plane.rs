//! The control plane: policy decisions applied to a replica lifecycle.
//!
//! A [`ControlPlane`] is the bookkeeping half of fleet elasticity. The
//! cluster calls [`ControlPlane::barrier`] on the coordinator thread at
//! every arrival barrier — the only instants at which replicas are
//! mutually observable — and the plane, in order:
//!
//! 1. **bills** the interval since the previous barrier (billable
//!    replicas × seconds into the [`FleetStats`] integral),
//! 2. **promotes** provisioning replicas whose boot delay has elapsed,
//! 3. **retires** draining replicas that have emptied,
//! 4. **consults** the [`ScalePolicy`] over the active replicas' load
//!    snapshots and the arrival group about to be dispatched, and
//! 5. **applies** the decision, clamped to `[min_replicas,
//!    max_replicas]` and gated by the cooldown: scale-ups reactivate
//!    draining replicas first (lowest index — the stable core of the
//!    fleet) and then provision new ones; scale-downs drain the active
//!    replicas with the fewest live requests (tie-break: highest index,
//!    so the bootstrap fleet retires last).
//!
//! Everything is synchronous, deterministic, and logged as
//! [`ScaleEvent`]s — the event log is part of the determinism contract
//! the golden digests pin.

use tokenflow_core::{EngineConfig, EngineLoad};
use tokenflow_metrics::FleetStats;
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_trace::{TraceEvent, TraceEventKind, TraceSink, TraceSource};
use tokenflow_workload::RequestSpec;

use crate::lifecycle::{ReplicaPhase, ScaleEvent, ScaleEventKind};
use crate::policy::{FleetObservation, ScaleDecision, ScalePolicy};

/// Static configuration of a control plane.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// The active fleet never shrinks below this (must be ≥ 1).
    pub min_replicas: usize,
    /// Billable replicas (provisioning + active + draining) never exceed
    /// this.
    pub max_replicas: usize,
    /// Boot delay of a newly provisioned replica.
    pub boot_delay: SimDuration,
    /// Minimum time after any applied scale decision before a
    /// **scale-down** is applied. Scale-ups are never gated — a burst
    /// cannot wait out a cooldown, while draining too eagerly right
    /// after scaling (in either direction) is the classic flap that
    /// guts a fleet mid-crowd. Promotion and retirement are lifecycle
    /// facts, not decisions, and ignore it entirely.
    pub cooldown: SimDuration,
    /// Per-replica sustainable decode throughput Γ, tokens/second — the
    /// capacity side of the fleet-level `Σ rᵢ ≤ n·Γ` test.
    pub gamma: f64,
    /// Periodic control tick: when set, the cluster inserts a synthetic
    /// arrival barrier at this interval whenever the next real arrival is
    /// further away (or the trace has ended). Scale decisions are
    /// otherwise only observed at arrival barriers, which leaves the
    /// plane blind through long idle drains — a replica whose residents
    /// finish mid-drain would not retire (and stop billing) until the
    /// run's terminal barrier. `None` (the default) keeps the plane
    /// arrival-driven.
    pub control_tick: Option<SimDuration>,
}

impl ControlConfig {
    /// A configuration with Γ derived from the engine's own cost model,
    /// a 10 s boot delay, and a 5 s cooldown.
    ///
    /// Γ is the **stall-free streaming capacity**, not the raw batch
    /// throughput: a decode batch of `b` streams delivers each member
    /// one token per iteration, so a member stalls as soon as the
    /// iteration takes longer than its inter-token deadline `1/r`. Γ is
    /// therefore `b* × r̄` for the largest batch `b*` whose iteration
    /// (at a chat-scale running context) still meets the reference
    /// rate r̄ — the paper's Figure 2 reference of twice adult reading
    /// speed. Raw batch throughput keeps rising long past that point,
    /// which is exactly the regime where every stream rebuffers.
    pub fn for_engine(config: &EngineConfig) -> Self {
        let cost = config.cost_model();
        let reference_rate = tokenflow_workload::presets::DEFAULT_RATE;
        let deadline = 1.0 / reference_rate;
        let mut b = 1u32;
        while b < config.max_batch
            && cost
                .decode_time(b + 1, u64::from(b + 1) * 1_024)
                .as_secs_f64()
                <= deadline
        {
            b += 1;
        }
        ControlConfig {
            min_replicas: 1,
            max_replicas: 64,
            boot_delay: SimDuration::from_secs(10),
            cooldown: SimDuration::from_secs(5),
            gamma: f64::from(b) * reference_rate,
            control_tick: None,
        }
    }

    /// Sets the fleet floor.
    pub fn with_min_replicas(mut self, n: usize) -> Self {
        self.min_replicas = n;
        self
    }

    /// Sets the fleet ceiling.
    pub fn with_max_replicas(mut self, n: usize) -> Self {
        self.max_replicas = n;
        self
    }

    /// Sets the boot delay.
    pub fn with_boot_delay(mut self, d: SimDuration) -> Self {
        self.boot_delay = d;
        self
    }

    /// Sets the decision cooldown.
    pub fn with_cooldown(mut self, d: SimDuration) -> Self {
        self.cooldown = d;
        self
    }

    /// Overrides Γ.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Enables the periodic control tick (see
    /// [`ControlConfig::control_tick`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero interval (it would stall the cluster's epoch
    /// loop on a barrier that never advances time).
    pub fn with_control_tick(mut self, interval: SimDuration) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "control tick interval must be positive"
        );
        self.control_tick = Some(interval);
        self
    }
}

/// The control plane: a [`ScalePolicy`] plus the replica lifecycle it
/// drives and the cost accounting it owns.
pub struct ControlPlane {
    policy: Box<dyn ScalePolicy>,
    config: ControlConfig,
    phases: Vec<ReplicaPhase>,
    /// Replica indices that fail to boot: when their boot delay elapses
    /// they move to [`ReplicaPhase::Failed`] instead of activating.
    /// Empty outside fault-injected runs.
    boot_failures: Vec<usize>,
    last_scale_at: Option<SimTime>,
    last_billed_at: SimTime,
    stats: FleetStats,
    events: Vec<ScaleEvent>,
    /// Decision-event journal sink (source [`TraceSource::Control`]);
    /// a no-op unless [`ControlPlane::enable_trace`] was called.
    trace: TraceSink,
    /// Retained term buffer for traced policy consultations.
    trace_terms: Vec<(&'static str, f64)>,
}

impl ControlPlane {
    /// Creates a plane managing a bootstrap fleet of `bootstrap` already-
    /// active replicas, observed from time zero.
    ///
    /// # Panics
    ///
    /// Panics on a zero `min_replicas`, a ceiling below the floor, a
    /// non-positive Γ, or a bootstrap fleet outside the configured
    /// bounds.
    pub fn new(
        policy: impl ScalePolicy + 'static,
        config: ControlConfig,
        bootstrap: usize,
    ) -> Self {
        assert!(config.min_replicas >= 1, "fleet floor must be at least 1");
        assert!(
            config.max_replicas >= config.min_replicas,
            "fleet ceiling below floor"
        );
        assert!(
            config.gamma.is_finite() && config.gamma > 0.0,
            "gamma must be positive"
        );
        assert!(
            (config.min_replicas..=config.max_replicas).contains(&bootstrap),
            "bootstrap fleet of {bootstrap} outside [{}, {}]",
            config.min_replicas,
            config.max_replicas
        );
        let mut stats = FleetStats::new("active-replicas");
        stats.provisioned = bootstrap;
        stats.sample(SimTime::ZERO, bootstrap);
        ControlPlane {
            policy: Box::new(policy),
            config,
            phases: vec![ReplicaPhase::Active; bootstrap],
            boot_failures: Vec::new(),
            last_scale_at: None,
            last_billed_at: SimTime::ZERO,
            stats,
            events: Vec::new(),
            trace: TraceSink::disabled(),
            trace_terms: Vec::new(),
        }
    }

    /// Enables decision tracing: scale decisions (with the policy's term
    /// values) are journaled under [`TraceSource::Control`].
    pub fn enable_trace(&mut self) {
        self.trace = TraceSink::enabled(TraceSource::Control);
    }

    /// Takes the trace events buffered so far, leaving the sink (and its
    /// sequence counter) running. Empty when tracing is off.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Lifecycle phase of every replica ever provisioned, by index.
    pub fn phases(&self) -> &[ReplicaPhase] {
        &self.phases
    }

    /// Total replicas ever provisioned (the cluster must keep one engine
    /// per entry).
    pub fn replica_count(&self) -> usize {
        self.phases.len()
    }

    /// Indices of replicas currently eligible for dispatch.
    pub fn active_indices(&self) -> Vec<usize> {
        (0..self.phases.len())
            .filter(|&i| self.phases[i].accepts_dispatch())
            .collect()
    }

    /// The decision log so far.
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    /// The cost accounting so far (finalise with
    /// [`ControlPlane::finalize`] before reading at run end).
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    fn count(&self, pred: impl Fn(ReplicaPhase) -> bool) -> usize {
        self.phases.iter().filter(|&&p| pred(p)).count()
    }

    fn bill_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_billed_at).as_secs_f64();
        let billable = self.count(ReplicaPhase::is_billable);
        self.stats.bill(billable, dt);
        self.last_billed_at = self.last_billed_at.max(now);
    }

    fn record(&mut self, at: SimTime, replica: usize, kind: ScaleEventKind) {
        self.events.push(ScaleEvent { at, replica, kind });
    }

    /// Runs one barrier step (see the module docs for the exact order)
    /// and returns how many events it appended to the log.
    ///
    /// `loads` must hold one snapshot per managed replica, in replica
    /// order; `arrivals` is the group about to be dispatched at `now`.
    /// Barrier times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not cover every managed replica.
    pub fn barrier(&mut self, now: SimTime, loads: &[EngineLoad], arrivals: &[RequestSpec]) {
        assert_eq!(
            loads.len(),
            self.phases.len(),
            "one load snapshot per managed replica"
        );
        // 1. Bill the elapsed interval under the old phase set.
        self.bill_to(now);

        // 2. Promote provisioning replicas whose boot delay elapsed —
        //    unless fault injection scripted the boot to fail, in which
        //    case the replica fail-stops instead of activating.
        for i in 0..self.phases.len() {
            if let ReplicaPhase::Provisioning { ready_at } = self.phases[i] {
                if ready_at <= now {
                    if self.boot_failures.contains(&i) {
                        self.phases[i] = ReplicaPhase::Failed;
                        self.record(now, i, ScaleEventKind::BootFailed);
                    } else {
                        self.phases[i] = ReplicaPhase::Active;
                        self.record(now, i, ScaleEventKind::Activated);
                    }
                }
            }
        }

        // 3. Retire draining replicas that have emptied.
        self.retire_empty(now, loads);

        // 4. Consult the policy — on every barrier, so stateful policies
        //    observe all traffic even when the cooldown will gate them.
        let active_indices = self.active_indices();
        let active_loads: Vec<EngineLoad> = active_indices.iter().map(|&i| loads[i]).collect();
        let obs = FleetObservation {
            now,
            active: &active_loads,
            provisioning: self.count(|p| matches!(p, ReplicaPhase::Provisioning { .. })),
            draining: self.count(|p| p == ReplicaPhase::Draining),
            arrivals,
            gamma: self.config.gamma,
        };
        let decision = if self.trace.is_enabled() {
            let mut terms = std::mem::take(&mut self.trace_terms);
            let d = self.policy.decide_traced(&obs, &mut terms);
            self.trace_terms = terms;
            d
        } else {
            self.policy.decide(&obs)
        };

        let in_cooldown = self
            .last_scale_at
            .is_some_and(|t| now.saturating_since(t) < self.config.cooldown);

        // 5. Apply, clamped; the cooldown gates only scale-downs.
        let (delta, applied) = match decision {
            ScaleDecision::Hold => (0, true),
            ScaleDecision::ScaleUp(k) => {
                self.scale_up(now, k);
                (k as i64, true)
            }
            ScaleDecision::ScaleDown(k) if !in_cooldown => {
                self.scale_down(now, k, loads);
                (-(k as i64), true)
            }
            ScaleDecision::ScaleDown(k) => (-(k as i64), false),
        };
        // Journal every non-Hold decision — including cooldown-gated
        // ones, which explain why the fleet did not shrink.
        if delta != 0 {
            self.trace.emit(
                now,
                TraceEventKind::Scale {
                    delta,
                    applied,
                    active: active_indices.len() as u64,
                    terms: self.trace_terms.clone(),
                },
            );
        }

        let active_now = self.count(ReplicaPhase::accepts_dispatch);
        self.stats.sample(now, active_now);
    }

    fn scale_up(&mut self, now: SimTime, k: usize) {
        let mut remaining = k;
        let mut changed = false;
        // Reactivate draining replicas first — already booted, already
        // warm; lowest index first keeps the fleet's stable core.
        for i in 0..self.phases.len() {
            if remaining == 0 {
                break;
            }
            if self.phases[i] == ReplicaPhase::Draining {
                self.phases[i] = ReplicaPhase::Active;
                self.record(now, i, ScaleEventKind::Reactivated);
                remaining -= 1;
                changed = true;
            }
        }
        // Then provision new ones, up to the billable ceiling.
        while remaining > 0 && self.count(ReplicaPhase::is_billable) < self.config.max_replicas {
            let ready_at = now.saturating_add(self.config.boot_delay);
            let replica = self.phases.len();
            self.phases.push(ReplicaPhase::Provisioning { ready_at });
            self.stats.provisioned += 1;
            self.record(now, replica, ScaleEventKind::Provisioned { ready_at });
            remaining -= 1;
            changed = true;
        }
        if changed {
            self.last_scale_at = Some(now);
        }
    }

    fn scale_down(&mut self, now: SimTime, k: usize, loads: &[EngineLoad]) {
        let active = self.active_indices();
        let allowed = active.len().saturating_sub(self.config.min_replicas);
        if allowed == 0 {
            return;
        }
        // Victims: fewest live requests first (cheapest to drain),
        // tie-break highest index (the bootstrap fleet retires last).
        let mut victims = active;
        victims.sort_by_key(|&i| (loads[i].live, usize::MAX - i));
        let mut changed = false;
        for &i in victims.iter().take(k.min(allowed)) {
            self.phases[i] = ReplicaPhase::Draining;
            self.record(now, i, ScaleEventKind::DrainStarted);
            changed = true;
        }
        if changed {
            self.last_scale_at = Some(now);
        }
    }

    /// Marks replica indices that will fail to boot: when their boot
    /// delay elapses they move to [`ReplicaPhase::Failed`] (with a
    /// [`ScaleEventKind::BootFailed`] event) instead of activating.
    /// Indices the fleet never grows to are simply never hit.
    pub fn set_boot_failures(&mut self, indices: impl IntoIterator<Item = usize>) {
        self.boot_failures.extend(indices);
    }

    /// Fail-stops replica `replica` at `now`: bills the elapsed interval
    /// under the old phase set first (the machine was alive — and
    /// billing — until this very instant), then moves it to
    /// [`ReplicaPhase::Failed`] and records a
    /// [`ScaleEventKind::Crashed`] event. Failed replicas stop billing,
    /// never dispatch, and never return; the cluster's recovery path
    /// owns the requests they lost. A replica already out of the fleet
    /// (retired or failed) is left untouched.
    pub fn mark_failed(&mut self, now: SimTime, replica: usize) {
        if matches!(
            self.phases[replica],
            ReplicaPhase::Retired | ReplicaPhase::Failed
        ) {
            return;
        }
        self.bill_to(now);
        self.phases[replica] = ReplicaPhase::Failed;
        self.record(now, replica, ScaleEventKind::Crashed);
    }

    /// A lifecycle-only barrier for the run's end: bills the final
    /// interval and retires draining replicas that have emptied, but
    /// consults no policy — there are no arrivals left to size for.
    /// Without this, a replica drained after the last arrival would
    /// stay `Draining` forever (retirement is observed at barriers, and
    /// barriers stop with the arrivals).
    ///
    /// # Panics
    ///
    /// Panics if `loads` does not cover every managed replica.
    pub fn close(&mut self, now: SimTime, loads: &[EngineLoad]) {
        assert_eq!(
            loads.len(),
            self.phases.len(),
            "one load snapshot per managed replica"
        );
        self.bill_to(now);
        self.retire_empty(now, loads);
    }

    /// Retires every draining replica whose snapshot shows no live work.
    fn retire_empty(&mut self, now: SimTime, loads: &[EngineLoad]) {
        let empties: Vec<usize> = self
            .phases
            .iter()
            .zip(loads)
            .enumerate()
            .filter(|(_, (&phase, load))| phase == ReplicaPhase::Draining && load.live == 0)
            .map(|(i, _)| i)
            .collect();
        for i in empties {
            self.phases[i] = ReplicaPhase::Retired;
            self.stats.retired += 1;
            self.record(now, i, ScaleEventKind::Retired);
        }
    }

    /// Closes the cost integral and timeline at the run's end instant
    /// and returns the final accounting plus the full decision log.
    pub fn finalize(mut self, end: SimTime) -> (FleetStats, Vec<ScaleEvent>) {
        let end = end.max(self.last_billed_at);
        self.bill_to(end);
        let active_now = self.count(ReplicaPhase::accepts_dispatch);
        self.stats.sample(end, active_now);
        (self.stats, self.events)
    }
}

// Evaluated at compile time: a control plane (with its boxed policy)
// must stay movable across threads alongside its cluster.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ControlPlane>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ScriptedPolicy;
    use tokenflow_sim::RequestId;

    fn cfg(gamma: f64) -> ControlConfig {
        ControlConfig {
            min_replicas: 1,
            max_replicas: 8,
            boot_delay: SimDuration::from_secs(10),
            cooldown: SimDuration::ZERO,
            gamma,
            control_tick: None,
        }
    }

    fn load(live: usize, rate_sum: f64) -> EngineLoad {
        EngineLoad {
            now: SimTime::ZERO,
            submitted: live,
            live,
            arrived: live,
            waiting: 0,
            running: live,
            transitioning: 0,
            rate_sum,
            gpu_free_tokens: 50_000,
            gpu_total_tokens: 100_000,
            d2h_queue_len: 0,
            h2d_queue_len: 0,
            pending_prefill_tokens: 0,
        }
    }

    fn spec(rate: f64) -> RequestSpec {
        RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: 128,
            output_tokens: 256,
            rate,
        }
    }

    #[test]
    fn provision_boot_delay_then_activation() {
        let script = ScriptedPolicy::new(vec![(SimTime::ZERO, 3)]);
        let mut plane = ControlPlane::new(script, cfg(100.0), 1);
        plane.barrier(SimTime::ZERO, &[load(0, 0.0)], &[spec(10.0)]);
        assert_eq!(plane.replica_count(), 3);
        assert_eq!(plane.active_indices(), vec![0]);
        // Before the boot delay: still provisioning.
        plane.barrier(
            SimTime::from_secs(5),
            &[load(1, 10.0), load(0, 0.0), load(0, 0.0)],
            &[],
        );
        assert_eq!(plane.active_indices(), vec![0]);
        // After: both promoted.
        plane.barrier(
            SimTime::from_secs(10),
            &[load(1, 10.0), load(0, 0.0), load(0, 0.0)],
            &[],
        );
        assert_eq!(plane.active_indices(), vec![0, 1, 2]);
        let activated = plane
            .events()
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Activated)
            .count();
        assert_eq!(activated, 2);
    }

    #[test]
    fn drain_excludes_then_retires_when_empty() {
        let script = ScriptedPolicy::new(vec![(SimTime::from_secs(1), 1)]);
        let mut plane = ControlPlane::new(script, cfg(100.0), 2);
        // Scale-down at t=1: replica 1 (fewest live, higher index) drains.
        plane.barrier(SimTime::from_secs(1), &[load(3, 30.0), load(2, 20.0)], &[]);
        assert_eq!(plane.active_indices(), vec![0]);
        assert_eq!(plane.phases()[1], ReplicaPhase::Draining);
        // Still busy at the next barrier: stays draining.
        plane.barrier(SimTime::from_secs(2), &[load(3, 30.0), load(1, 10.0)], &[]);
        assert_eq!(plane.phases()[1], ReplicaPhase::Draining);
        // Empty: retired.
        plane.barrier(SimTime::from_secs(3), &[load(3, 30.0), load(0, 0.0)], &[]);
        assert_eq!(plane.phases()[1], ReplicaPhase::Retired);
        let (stats, events) = plane.finalize(SimTime::from_secs(3));
        assert_eq!(stats.retired, 1);
        assert!(events
            .iter()
            .any(|e| e.kind == ScaleEventKind::Retired && e.replica == 1));
    }

    #[test]
    fn scale_up_reactivates_draining_before_provisioning() {
        let script =
            ScriptedPolicy::new(vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]);
        let mut plane = ControlPlane::new(script, cfg(100.0), 2);
        plane.barrier(SimTime::from_secs(1), &[load(3, 30.0), load(2, 20.0)], &[]);
        assert_eq!(plane.phases()[1], ReplicaPhase::Draining);
        // Target back to 2: the draining replica is reactivated, no new
        // replica is provisioned.
        plane.barrier(SimTime::from_secs(2), &[load(3, 30.0), load(2, 20.0)], &[]);
        assert_eq!(plane.replica_count(), 2);
        assert_eq!(plane.active_indices(), vec![0, 1]);
        assert!(plane
            .events()
            .iter()
            .any(|e| e.kind == ScaleEventKind::Reactivated && e.replica == 1));
    }

    #[test]
    fn fleet_bounds_clamp_decisions() {
        let script = ScriptedPolicy::new(vec![(SimTime::ZERO, 100), (SimTime::from_secs(1), 0)]);
        let mut plane = ControlPlane::new(script, cfg(100.0), 2);
        plane.barrier(SimTime::ZERO, &[load(1, 10.0), load(1, 10.0)], &[]);
        // Ceiling of 8 billable replicas.
        assert_eq!(plane.replica_count(), 8);
        // Target 0 clamps at the floor of 1 active replica.
        let loads: Vec<EngineLoad> = (0..8).map(|_| load(1, 10.0)).collect();
        plane.barrier(SimTime::from_secs(1), &loads, &[]);
        assert_eq!(plane.active_indices().len(), 1);
    }

    #[test]
    fn cooldown_gates_scale_down_but_not_scale_up_or_lifecycle() {
        let script = ScriptedPolicy::new(vec![(SimTime::ZERO, 2), (SimTime::from_secs(1), 1)]);
        let mut config = cfg(100.0);
        config.cooldown = SimDuration::from_secs(30);
        config.boot_delay = SimDuration::from_secs(2);
        let mut plane = ControlPlane::new(script, config, 1);
        // t=0: the scale-up to 2 applies immediately (ups are never
        // gated) and starts the cooldown window.
        plane.barrier(SimTime::ZERO, &[load(1, 10.0)], &[]);
        assert_eq!(plane.replica_count(), 2);
        // t=3: the step down to 1 is gated by the cooldown, but the
        // pending promotion of replica 1 (ready at t=2) still happens.
        plane.barrier(SimTime::from_secs(3), &[load(1, 10.0), load(0, 0.0)], &[]);
        assert_eq!(plane.active_indices(), vec![0, 1]);
        // t=31: cooldown over, the scale-down applies.
        plane.barrier(SimTime::from_secs(31), &[load(1, 10.0), load(0, 0.0)], &[]);
        assert_eq!(plane.active_indices().len(), 1);
    }

    #[test]
    fn billing_integrates_billable_replicas_and_stops_at_retirement() {
        let script = ScriptedPolicy::new(vec![(SimTime::from_secs(10), 1)]);
        let mut plane = ControlPlane::new(script, cfg(100.0), 2);
        // [0, 10): 2 active → 20 replica-seconds.
        plane.barrier(SimTime::from_secs(10), &[load(1, 10.0), load(0, 0.0)], &[]);
        // Replica 1 drained AND retired at t=10 (it was already empty).
        assert_eq!(plane.phases()[1], ReplicaPhase::Draining);
        plane.barrier(SimTime::from_secs(10), &[load(1, 10.0), load(0, 0.0)], &[]);
        assert_eq!(plane.phases()[1], ReplicaPhase::Retired);
        // [10, 30): only replica 0 bills.
        let (stats, _) = plane.finalize(SimTime::from_secs(30));
        assert_eq!(stats.replica_seconds, 20.0 + 20.0);
        assert_eq!(stats.peak_active, 2);
        assert_eq!(stats.provisioned, 2);
    }

    #[test]
    #[should_panic(expected = "one load snapshot per managed replica")]
    fn mismatched_snapshot_count_rejected() {
        let script = ScriptedPolicy::new(vec![]);
        let mut plane = ControlPlane::new(script, cfg(100.0), 2);
        plane.barrier(SimTime::ZERO, &[load(0, 0.0)], &[]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bootstrap_outside_bounds_rejected() {
        let script = ScriptedPolicy::new(vec![]);
        let _ = ControlPlane::new(script, cfg(100.0), 9);
    }
}
