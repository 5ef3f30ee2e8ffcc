//! Scale policies: how a fleet decides to grow or shrink.
//!
//! A [`ScalePolicy`] is the pluggable brain of the control plane. It is
//! consulted at **every** arrival barrier (so stateful policies can
//! track traffic), sees only a [`FleetObservation`] — load snapshots of
//! the active replicas plus the arrival group about to be dispatched —
//! and answers with a [`ScaleDecision`]. The control plane clamps the
//! decision to the configured fleet bounds and cooldown before applying
//! it, so policies stay pure sizing logic.
//!
//! The built-in spectrum:
//!
//! * [`ReactivePolicy`] — thresholds on *admission pressure*: the
//!   `Σ rᵢ / Γ` headroom test of the paper lifted to the fleet level,
//!   plus the pending-prefill backlog (work a new request must queue
//!   behind before its own prefill — the TTFT-dominating quantity).
//! * [`PredictivePolicy`] — an EWMA of the observed arrival token rate;
//!   by Little's law the steady-state streaming demand equals the
//!   arrival rate of output tokens, so the estimate pre-sizes the fleet
//!   for where traffic is heading rather than where it is.
//! * [`ScriptedPolicy`] — a fixed fleet-size schedule, for tests and
//!   what-if replays.

use tokenflow_core::EngineLoad;
use tokenflow_sim::SimTime;
use tokenflow_workload::RequestSpec;

/// Everything a policy sees at one arrival barrier.
#[derive(Debug, Clone, Copy)]
pub struct FleetObservation<'a> {
    /// The barrier instant.
    pub now: SimTime,
    /// Load snapshots of the **active** replicas only, in replica order.
    pub active: &'a [EngineLoad],
    /// Replicas currently booting (capacity already paid for).
    pub provisioning: usize,
    /// Replicas currently draining.
    pub draining: usize,
    /// The arrival group about to be dispatched at this barrier.
    pub arrivals: &'a [RequestSpec],
    /// Per-replica sustainable decode throughput Γ, tokens/second.
    pub gamma: f64,
}

impl FleetObservation<'_> {
    /// Declared streaming demand resident on active replicas, tokens/s.
    pub fn resident_demand(&self) -> f64 {
        self.active.iter().map(|l| l.rate_sum).sum()
    }

    /// Declared streaming demand of the arrival group, tokens/s.
    pub fn incoming_demand(&self) -> f64 {
        self.arrivals.iter().map(|s| s.rate).sum()
    }

    /// Total demand the fleet must absorb after this barrier.
    pub fn demand(&self) -> f64 {
        self.resident_demand() + self.incoming_demand()
    }

    /// Prefill backlog after this barrier: tokens already queued on
    /// active replicas plus the arrival group's prompts.
    pub fn backlog_tokens(&self) -> u64 {
        let resident: u64 = self.active.iter().map(|l| l.pending_prefill_tokens).sum();
        let incoming: u64 = self.arrivals.iter().map(|s| s.prompt_tokens).sum();
        resident + incoming
    }

    /// Capacity already bought: active plus booting replicas.
    pub fn capacity_units(&self) -> usize {
        self.active.len() + self.provisioning
    }

    /// `demand / (capacity_units × Γ)` — the fleet-level schedulability
    /// ratio. Infinite when no capacity exists.
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity_units() as f64 * self.gamma;
        if cap <= 0.0 {
            f64::INFINITY
        } else {
            self.demand() / cap
        }
    }
}

/// A policy's answer at one barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the fleet as is.
    Hold,
    /// Add this many replicas (reactivating draining ones first).
    ScaleUp(usize),
    /// Drain this many active replicas.
    ScaleDown(usize),
}

/// A fleet-sizing policy.
///
/// Implementations must be deterministic — identical observation
/// sequences must produce identical decision sequences — so elastic
/// cluster runs reproduce bit-for-bit.
/// `Send` is a supertrait for the same reason as `Router`'s: the control
/// plane travels with its cluster across threads, but `decide` only ever
/// runs on the coordinator.
pub trait ScalePolicy: Send {
    /// Short policy name for reports (e.g. `"reactive"`).
    fn name(&self) -> &'static str;

    /// Called at every arrival barrier, even during cooldown (the plane
    /// then ignores a non-[`ScaleDecision::Hold`] answer but the policy
    /// still observes the traffic).
    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision;

    /// [`ScalePolicy::decide`], additionally naming the term values
    /// behind the decision into `terms` (cleared first) for the trace
    /// journal. Must return exactly the decision `decide` would — the
    /// default ignores `terms` and delegates.
    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        terms.clear();
        self.decide(obs)
    }
}

/// Boxed policies are policies.
impl<P: ScalePolicy + ?Sized> ScalePolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision {
        (**self).decide(obs)
    }

    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        (**self).decide_traced(obs, terms)
    }
}

/// Threshold autoscaling on admission pressure: the fleet is sized to
/// the **maximum** of three per-replica pressure terms, and the
/// decision is simply `desired vs. current`.
///
/// 1. **Rate headroom** — `Σ rᵢ / (Γ × target_utilization)`: the
///    paper's schedulability test lifted to the fleet, with slack.
/// 2. **Prefill backlog** — queued prompt tokens (resident backlog plus
///    the arrival group) divided by `backlog_per_replica`. This is the
///    TTFT budget expressed in tokens: a replica `backlog_per_replica`
///    deep delays a new arrival's first token by roughly
///    `backlog_per_replica / prefill_rate` seconds, so the threshold is
///    the knob that trades replica-seconds for tail TTFT.
/// 3. **KV footprint** — resident KV tokens plus incoming prompts,
///    against `kv_watermark` of one replica's pool, so the fleet never
///    shrinks into preemption thrash.
///
/// Scale-up jumps to the desired size in one step (bursts punish late
/// capacity immediately); scale-down drains one replica per decision —
/// draining replicas are already out of the active set, so `desired <
/// active` is net of them and repeated drains cannot overshoot. The
/// control plane's cooldown paces the descent and damps flapping at a
/// term boundary.
#[derive(Debug, Clone)]
pub struct ReactivePolicy {
    /// Rate-headroom slack: the fleet is sized so `Σ rᵢ ≤ n·Γ×this`.
    pub target_utilization: f64,
    /// Queued prefill tokens one replica is allowed to hold — the TTFT
    /// budget in tokens.
    pub backlog_per_replica: u64,
    /// Fraction of one replica's KV pool the sizing fills to.
    pub kv_watermark: f64,
}

impl Default for ReactivePolicy {
    fn default() -> Self {
        ReactivePolicy {
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        }
    }
}

/// The admission-pressure floor shared by the sizing policies: the
/// larger of the prefill-backlog term (queued prompt tokens per
/// `backlog_per_replica`, the TTFT budget) and the KV-footprint term
/// (resident KV plus incoming prompts against `kv_watermark` of one
/// replica's pool). Expressed in replicas, un-ceiled.
fn pressure_floor(obs: &FleetObservation<'_>, backlog_per_replica: u64, kv_watermark: f64) -> f64 {
    let (backlog, kv) = pressure_terms(obs, backlog_per_replica, kv_watermark);
    backlog.max(kv)
}

/// The two admission-pressure terms behind [`pressure_floor`], exposed
/// separately so traced decisions can journal each term's value.
fn pressure_terms(
    obs: &FleetObservation<'_>,
    backlog_per_replica: u64,
    kv_watermark: f64,
) -> (f64, f64) {
    let backlog = obs.backlog_tokens() as f64 / backlog_per_replica as f64;
    let per_replica_kv = obs
        .active
        .iter()
        .map(|l| l.gpu_total_tokens)
        .max()
        .unwrap_or(0);
    let kv = if per_replica_kv == 0 {
        0.0
    } else {
        let resident: u64 = obs
            .active
            .iter()
            .map(|l| l.gpu_total_tokens - l.gpu_free_tokens)
            .sum();
        let incoming: u64 = obs.arrivals.iter().map(|s| s.prompt_tokens).sum();
        (resident + incoming) as f64 / (per_replica_kv as f64 * kv_watermark)
    };
    (backlog, kv)
}

impl ReactivePolicy {
    /// The default thresholds (60 % rate target, 1 024-token TTFT
    /// budget, 50 % KV watermark).
    pub fn new() -> Self {
        ReactivePolicy::default()
    }

    /// Sets the TTFT budget: queued prefill tokens one replica may hold
    /// before the sizing demands more capacity.
    pub fn with_backlog_budget(mut self, tokens: u64) -> Self {
        self.backlog_per_replica = tokens;
        self
    }

    fn desired(&self, obs: &FleetObservation<'_>) -> usize {
        let rate = obs.demand() / (obs.gamma * self.target_utilization);
        let floor = pressure_floor(obs, self.backlog_per_replica, self.kv_watermark);
        (rate.max(floor).ceil() as usize).max(1)
    }
}

impl ScalePolicy for ReactivePolicy {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision {
        let n = obs.active.len();
        if n == 0 && obs.provisioning == 0 {
            return ScaleDecision::ScaleUp(1);
        }
        let desired = self.desired(obs);
        let cap = obs.capacity_units();
        if desired > cap {
            return ScaleDecision::ScaleUp(desired - cap);
        }
        // Drain one at a time (the cooldown paces the descent). Already-
        // draining replicas are out of the active set, so `desired < n`
        // is already net of them — no overshoot from issuing another
        // drain while one empties.
        if desired < n {
            return ScaleDecision::ScaleDown(1);
        }
        ScaleDecision::Hold
    }

    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        terms.clear();
        let (backlog, kv) = pressure_terms(obs, self.backlog_per_replica, self.kv_watermark);
        terms.push(("rate", obs.demand() / (obs.gamma * self.target_utilization)));
        terms.push(("backlog", backlog));
        terms.push(("kv", kv));
        terms.push(("desired", self.desired(obs) as f64));
        terms.push(("capacity", obs.capacity_units() as f64));
        self.decide(obs)
    }
}

/// EWMA-predictive autoscaling on the arrival token rate.
///
/// Tracks an exponentially weighted moving average of the rate at which
/// output tokens *arrive* (Σ output lengths per barrier interval). By
/// Little's law the steady-state resident demand `E[Σ rᵢ]` equals that
/// arrival token rate, so the EWMA is a direct forecast of the demand
/// the fleet must sustain — it rises as a burst ramps (pre-scaling
/// before the backlog materialises) and decays with the time constant
/// `tau_secs` once traffic ebbs (deferring scale-down past transient
/// lulls). The fleet is sized to `max(forecast, current demand)` so the
/// forecast can never starve resident streams, and the same
/// admission-pressure floor as [`ReactivePolicy`] applies — an EWMA
/// cannot foresee a step burst, so the backlog/KV terms handle what the
/// forecast misses.
#[derive(Debug, Clone)]
pub struct PredictivePolicy {
    /// EWMA time constant in seconds.
    pub tau_secs: f64,
    /// Utilization the fleet is sized toward.
    pub target_utilization: f64,
    /// TTFT budget in queued prefill tokens (see [`ReactivePolicy`]).
    pub backlog_per_replica: u64,
    /// Fraction of one replica's KV pool the sizing fills to.
    pub kv_watermark: f64,
    demand_ewma: f64,
    last_barrier: Option<SimTime>,
}

impl Default for PredictivePolicy {
    fn default() -> Self {
        PredictivePolicy {
            tau_secs: 30.0,
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
            demand_ewma: 0.0,
            last_barrier: None,
        }
    }
}

impl PredictivePolicy {
    /// The default forecast (τ = 30 s, 60 % target utilization).
    pub fn new() -> Self {
        PredictivePolicy::default()
    }

    /// A policy with an explicit time constant.
    pub fn with_tau(tau_secs: f64) -> Self {
        PredictivePolicy {
            tau_secs,
            ..PredictivePolicy::default()
        }
    }

    /// Sets the TTFT budget: queued prefill tokens one replica may hold
    /// before the sizing demands more capacity.
    pub fn with_backlog_budget(mut self, tokens: u64) -> Self {
        self.backlog_per_replica = tokens;
        self
    }

    /// The current demand forecast, tokens/second.
    pub fn forecast(&self) -> f64 {
        self.demand_ewma
    }
}

impl ScalePolicy for PredictivePolicy {
    fn name(&self) -> &'static str {
        "predictive-ewma"
    }

    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision {
        let incoming_tokens: u64 = obs.arrivals.iter().map(|s| s.output_tokens).sum();
        match self.last_barrier {
            Some(prev) => {
                let dt = obs.now.saturating_since(prev).as_secs_f64();
                if dt > 0.0 {
                    let inst = incoming_tokens as f64 / dt;
                    let w = 1.0 - (-dt / self.tau_secs).exp();
                    self.demand_ewma = w * inst + (1.0 - w) * self.demand_ewma;
                }
            }
            // First barrier: no interval to rate over, so seed the
            // forecast with what is observably resident + incoming.
            None => self.demand_ewma = obs.demand(),
        }
        self.last_barrier = Some(obs.now);

        let est = self.demand_ewma.max(obs.demand());
        let rate = est / (obs.gamma * self.target_utilization);
        let floor = pressure_floor(obs, self.backlog_per_replica, self.kv_watermark);
        let desired = (rate.max(floor).ceil() as usize).max(1);
        let cap = obs.capacity_units();
        if desired > cap {
            ScaleDecision::ScaleUp(desired - cap)
        } else if desired < obs.active.len() {
            ScaleDecision::ScaleDown(1)
        } else {
            ScaleDecision::Hold
        }
    }

    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        // Decide first (the EWMA update is part of the decision), then
        // journal the post-update state the decision was made from.
        let decision = self.decide(obs);
        terms.clear();
        let (backlog, kv) = pressure_terms(obs, self.backlog_per_replica, self.kv_watermark);
        terms.push(("forecast", self.demand_ewma));
        terms.push(("demand", obs.demand()));
        terms.push(("backlog", backlog));
        terms.push(("kv", kv));
        terms.push(("capacity", obs.capacity_units() as f64));
        decision
    }
}

/// A fixed fleet-size schedule: `(from, target)` steps, each holding
/// until the next. Built for tests (forcing lifecycle transitions at
/// known instants) and for replaying operator runbooks.
#[derive(Debug, Clone)]
pub struct ScriptedPolicy {
    /// `(effective_from, target_fleet_size)`, sorted by time.
    steps: Vec<(SimTime, usize)>,
}

impl ScriptedPolicy {
    /// Builds a schedule; steps are sorted by their effective time.
    pub fn new(mut steps: Vec<(SimTime, usize)>) -> Self {
        steps.sort_by_key(|&(t, _)| t);
        ScriptedPolicy { steps }
    }

    /// The target size in force at `now`, if any step has started.
    pub fn target_at(&self, now: SimTime) -> Option<usize> {
        self.steps
            .iter()
            .take_while(|&&(t, _)| t <= now)
            .last()
            .map(|&(_, n)| n)
    }
}

impl ScalePolicy for ScriptedPolicy {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision {
        let Some(target) = self.target_at(obs.now) else {
            return ScaleDecision::Hold;
        };
        let cap = obs.capacity_units();
        if target > cap {
            ScaleDecision::ScaleUp(target - cap)
        } else if target < obs.active.len() {
            ScaleDecision::ScaleDown(obs.active.len() - target)
        } else {
            ScaleDecision::Hold
        }
    }

    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        terms.clear();
        if let Some(target) = self.target_at(obs.now) {
            terms.push(("target", target as f64));
        }
        terms.push(("capacity", obs.capacity_units() as f64));
        self.decide(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_sim::RequestId;

    fn load_kv(rate_sum: f64, backlog: u64, gpu_free: u64) -> EngineLoad {
        EngineLoad {
            now: SimTime::ZERO,
            submitted: 4,
            live: 4,
            arrived: 4,
            waiting: 0,
            running: 4,
            transitioning: 0,
            rate_sum,
            gpu_free_tokens: gpu_free,
            gpu_total_tokens: 100_000,
            d2h_queue_len: 0,
            h2d_queue_len: 0,
            pending_prefill_tokens: backlog,
        }
    }

    /// A lightly KV-loaded replica (5 % pool usage).
    fn load(rate_sum: f64, backlog: u64) -> EngineLoad {
        load_kv(rate_sum, backlog, 95_000)
    }

    fn spec(rate: f64, prompt: u64, output: u64) -> RequestSpec {
        RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: prompt,
            output_tokens: output,
            rate,
        }
    }

    fn obs<'a>(
        now: SimTime,
        active: &'a [EngineLoad],
        arrivals: &'a [RequestSpec],
        gamma: f64,
    ) -> FleetObservation<'a> {
        FleetObservation {
            now,
            active,
            provisioning: 0,
            draining: 0,
            arrivals,
            gamma,
        }
    }

    #[test]
    fn observation_totals_add_resident_and_incoming() {
        let loads = [load_kv(100.0, 1_000, 50_000), load_kv(50.0, 500, 50_000)];
        let arrivals = [spec(10.0, 200, 300), spec(20.0, 100, 400)];
        let o = obs(SimTime::ZERO, &loads, &arrivals, 500.0);
        assert_eq!(o.resident_demand(), 150.0);
        assert_eq!(o.incoming_demand(), 30.0);
        assert_eq!(o.demand(), 180.0);
        assert_eq!(o.backlog_tokens(), 1_800);
        assert_eq!(o.capacity_units(), 2);
        assert!((o.utilization() - 180.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn reactive_scales_up_past_utilization_threshold() {
        let mut p = ReactivePolicy::new();
        // One replica at Γ=100 with 95 tok/s demand: 95 % utilization.
        let loads = [load(95.0, 0)];
        let d = p.decide(&obs(SimTime::ZERO, &loads, &[], 100.0));
        // Sized toward 60 %: ceil(95 / 60) = 2 replicas → grow by 1.
        assert_eq!(d, ScaleDecision::ScaleUp(1));
    }

    #[test]
    fn reactive_scales_up_on_backlog_even_with_rate_headroom() {
        let mut p = ReactivePolicy::new();
        // Demand is tiny but a burst just queued 100k prompt tokens:
        // the backlog term sizes the fleet to drain the queue within
        // the TTFT budget.
        let loads = [load(10.0, 100_000)];
        let d = p.decide(&obs(SimTime::ZERO, &loads, &[], 1_000.0));
        assert!(matches!(d, ScaleDecision::ScaleUp(k) if k >= 40), "{d:?}");
    }

    #[test]
    fn reactive_scales_up_on_kv_pressure_alone() {
        let mut p = ReactivePolicy::new();
        // Rates and backlog are low, but the replica's pool is 95 %
        // full: shrinking (or even holding) would mean preemption
        // thrash, so the KV term forces a second replica.
        let loads = [load_kv(10.0, 0, 5_000)];
        let d = p.decide(&obs(SimTime::ZERO, &loads, &[], 1_000.0));
        assert_eq!(d, ScaleDecision::ScaleUp(1));
    }

    #[test]
    fn reactive_counts_incoming_arrivals_as_pressure() {
        let mut p = ReactivePolicy::new();
        let loads = [load(10.0, 0)];
        // The arrival group alone saturates the replica.
        let arrivals: Vec<RequestSpec> = (0..20).map(|_| spec(10.0, 512, 512)).collect();
        let d = p.decide(&obs(SimTime::ZERO, &loads, &arrivals, 100.0));
        assert!(matches!(d, ScaleDecision::ScaleUp(_)), "{d:?}");
    }

    #[test]
    fn reactive_holds_in_the_comfort_band_and_drains_when_idle() {
        let mut p = ReactivePolicy::new();
        // 60 % utilization: hold.
        let loads = [load(60.0, 0)];
        assert_eq!(
            p.decide(&obs(SimTime::ZERO, &loads, &[], 100.0)),
            ScaleDecision::Hold
        );
        // Two replicas nearly idle: drain one.
        let loads = [load(5.0, 0), load(5.0, 0)];
        assert_eq!(
            p.decide(&obs(SimTime::ZERO, &loads, &[], 100.0)),
            ScaleDecision::ScaleDown(1)
        );
    }

    #[test]
    fn reactive_drains_one_at_a_time_and_never_below_one() {
        let mut p = ReactivePolicy::new();
        // Three idle replicas: one drain per decision, even while an
        // earlier drain is still emptying (draining replicas are
        // already out of the active set, so there is no overshoot).
        let loads = [load(5.0, 0), load(5.0, 0), load(5.0, 0)];
        let mut o = obs(SimTime::ZERO, &loads, &[], 100.0);
        o.draining = 1;
        assert_eq!(p.decide(&o), ScaleDecision::ScaleDown(1));
        // A lone replica is never drained.
        let loads = [load(1.0, 0)];
        assert_eq!(
            p.decide(&obs(SimTime::ZERO, &loads, &[], 100.0)),
            ScaleDecision::Hold
        );
    }

    #[test]
    fn predictive_seeds_then_tracks_arrival_rate() {
        let mut p = PredictivePolicy::with_tau(10.0);
        let loads = [load(50.0, 0)];
        // Barrier 1 seeds the forecast with resident demand.
        p.decide(&obs(SimTime::ZERO, &loads, &[], 1_000.0));
        assert_eq!(p.forecast(), 50.0);
        // A heavy barrier 10 s later pulls the forecast up hard: 50k
        // tokens over 10 s is a 5 000 tok/s arrival rate.
        let arrivals: Vec<RequestSpec> = (0..100).map(|_| spec(15.0, 256, 500)).collect();
        let d = p.decide(&obs(SimTime::from_secs(10), &loads, &arrivals, 100.0));
        assert!(p.forecast() > 1_000.0, "forecast {}", p.forecast());
        assert!(matches!(d, ScaleDecision::ScaleUp(_)), "{d:?}");
    }

    #[test]
    fn predictive_forecast_decays_during_lulls() {
        let mut p = PredictivePolicy::with_tau(5.0);
        let loads = [load(200.0, 0)];
        p.decide(&obs(SimTime::ZERO, &loads, &[], 1_000.0));
        let peak = p.forecast();
        // Three empty barriers, far apart: the forecast decays.
        for s in [20u64, 40, 60] {
            p.decide(&obs(SimTime::from_secs(s), &[load(1.0, 0)], &[], 1_000.0));
        }
        assert!(p.forecast() < peak / 10.0, "forecast {}", p.forecast());
    }

    #[test]
    fn predictive_never_sizes_below_resident_demand() {
        let mut p = PredictivePolicy::with_tau(1.0);
        // Forecast decays to ~0, but 150 tok/s is still resident on one
        // replica with Γ=100 — the policy must still grow the fleet.
        let loads = [load(150.0, 0)];
        p.decide(&obs(SimTime::ZERO, &loads, &[], 100.0));
        let d = p.decide(&obs(SimTime::from_secs(100), &loads, &[], 100.0));
        assert!(matches!(d, ScaleDecision::ScaleUp(_)), "{d:?}");
    }

    #[test]
    fn scripted_follows_the_schedule() {
        let mut p = ScriptedPolicy::new(vec![
            (SimTime::from_secs(10), 4),
            (SimTime::from_secs(20), 1),
        ]);
        let loads2 = [load(1.0, 0), load(1.0, 0)];
        // Before any step: hold.
        assert_eq!(
            p.decide(&obs(SimTime::ZERO, &loads2, &[], 100.0)),
            ScaleDecision::Hold
        );
        // Step to 4 with 2 active: grow by 2.
        assert_eq!(
            p.decide(&obs(SimTime::from_secs(10), &loads2, &[], 100.0)),
            ScaleDecision::ScaleUp(2)
        );
        // Step to 1 with 2 active: drain 1.
        assert_eq!(
            p.decide(&obs(SimTime::from_secs(25), &loads2, &[], 100.0)),
            ScaleDecision::ScaleDown(1)
        );
    }

    #[test]
    fn scripted_counts_provisioning_toward_target() {
        let mut p = ScriptedPolicy::new(vec![(SimTime::ZERO, 4)]);
        let loads = [load(1.0, 0), load(1.0, 0)];
        let mut o = obs(SimTime::from_secs(1), &loads, &[], 100.0);
        o.provisioning = 2;
        // 2 active + 2 booting already meets the target of 4.
        assert_eq!(p.decide(&o), ScaleDecision::Hold);
    }
}
