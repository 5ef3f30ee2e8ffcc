//! The traced run: the scenario's stack assembled from its `Harness`
//! fields with the decision journal on, every scheduler, router and
//! scale-policy call timed by a forwarding wrapper, and every
//! `Engine::step_into` / `ClusterEngine::epoch` call timed by the benchmark's own loop.
//!
//! The wrappers forward every trait method, the defaulted ones included,
//! so the wrapped stack makes exactly the decisions the plain one does:
//! the self-test and every traced run check its report digest against
//! `Harness::run`'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tokenflow_cluster::{ClusterEngine, Router};
use tokenflow_control::{FleetObservation, ScaleDecision, ScalePolicy};
use tokenflow_core::{Completion, Engine, EngineLoad, StepOutcome};
use tokenflow_metrics::RunReport;
use tokenflow_scenario::{request_timeline, Harness, TopologySpec};
use tokenflow_sched::{
    PlanHorizon, PreemptMode, PrefillPolicy, ReqView, SchedContext, SchedPlan, Scheduler,
};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{TraceEventKind, TraceJournal};
use tokenflow_workload::RequestSpec;

/// Call count and busy time at one layer boundary. Counters are
/// statistics that publish no other data, so `Relaxed` suffices.
#[derive(Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }

    fn record(&self, d: Duration) -> u64 {
        let nanos = d.as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        nanos
    }

    /// Calls timed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total busy time, seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Spans shared by every wrapper of one traced run (cluster replicas
/// each own a scheduler, possibly on pool threads).
#[derive(Default)]
pub struct Clocks {
    /// `Scheduler::plan`.
    pub plan: Span,
    /// Per-call `plan` durations, nanoseconds, for the p99.
    plan_nanos: Mutex<Vec<u64>>,
    /// `Scheduler::decode_gate`.
    pub decode_gate: Span,
    /// The remaining scheduler methods: `plan_horizon`,
    /// `prefill_policy`, `emergency_preempt_mode`, `emergency_victim`.
    pub sched_other: Span,
    /// `Router::route` / `route_scored`.
    pub route: Span,
    /// `ScalePolicy::decide` / `decide_traced`.
    pub decide: Span,
}

impl Clocks {
    /// Total time inside scheduler calls, seconds.
    pub fn sched_secs(&self) -> f64 {
        self.plan.secs() + self.decode_gate.secs() + self.sched_other.secs()
    }

    /// The p99 `plan` call, microseconds.
    pub fn plan_us_p99(&self) -> f64 {
        let mut nanos = self.plan_nanos.lock().expect("plan timer poisoned").clone();
        p99_us(&mut nanos)
    }
}

/// The p99 of a set of nanosecond samples, in microseconds (0 when empty).
pub fn p99_us(nanos: &mut [u64]) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    nanos.sort_unstable();
    let rank = ((nanos.len() as f64 * 0.99).ceil() as usize).clamp(1, nanos.len());
    nanos[rank - 1] as f64 * 1e-3
}

/// A [`Scheduler`] that times every call into the one it wraps.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    clocks: Arc<Clocks>,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan {
        let start = Instant::now();
        let plan = self.inner.plan(ctx);
        let nanos = self.clocks.plan.record(start.elapsed());
        self.clocks
            .plan_nanos
            .lock()
            .expect("plan timer poisoned")
            .push(nanos);
        plan
    }

    fn plan_horizon(&self, ctx: &SchedContext) -> Option<PlanHorizon> {
        self.clocks
            .sched_other
            .time(|| self.inner.plan_horizon(ctx))
    }

    fn prefill_policy(&self) -> PrefillPolicy {
        self.clocks.sched_other.time(|| self.inner.prefill_policy())
    }

    fn decode_gate(&self, view: &ReqView, ctx: &SchedContext) -> bool {
        self.clocks
            .decode_gate
            .time(|| self.inner.decode_gate(view, ctx))
    }

    fn emergency_preempt_mode(&self) -> PreemptMode {
        self.clocks
            .sched_other
            .time(|| self.inner.emergency_preempt_mode())
    }

    fn emergency_victim(&self, ctx: &SchedContext) -> Option<RequestId> {
        self.clocks
            .sched_other
            .time(|| self.inner.emergency_victim(ctx))
    }
}

/// A [`Router`] that times every routing call into the one it wraps.
struct TimedRouter {
    inner: Box<dyn Router>,
    clocks: Arc<Clocks>,
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        let inner = &mut self.inner;
        self.clocks.route.time(|| inner.route(spec, loads))
    }

    fn load_oblivious(&self) -> bool {
        self.inner.load_oblivious()
    }

    fn route_scored(
        &mut self,
        spec: &RequestSpec,
        loads: &[EngineLoad],
        scores: &mut Vec<f64>,
    ) -> usize {
        let inner = &mut self.inner;
        self.clocks
            .route
            .time(|| inner.route_scored(spec, loads, scores))
    }
}

/// A [`ScalePolicy`] that times every decision of the one it wraps.
struct TimedPolicy {
    inner: Box<dyn ScalePolicy>,
    clocks: Arc<Clocks>,
}

impl ScalePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision {
        let inner = &mut self.inner;
        self.clocks.decide.time(|| inner.decide(obs))
    }

    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        let inner = &mut self.inner;
        self.clocks.decide.time(|| inner.decide_traced(obs, terms))
    }
}

/// Fleet-level facts of a cluster run.
pub struct FleetFacts {
    /// Per-epoch wall time, nanoseconds, one entry per epoch.
    pub epoch_nanos: Vec<u64>,
    /// Largest simultaneous active replica count (elastic runs).
    pub peak_replicas: u64,
    /// Scale decisions the control plane logged.
    pub scale_events: u64,
    /// Max over mean dispatched requests per replica that served any.
    pub dispatch_imbalance: f64,
}

/// Everything one traced run measured.
pub struct Profile {
    /// The run's (merged) report.
    pub report: RunReport,
    /// Why the run stopped.
    pub completion: Completion,
    /// The decision journal.
    pub journal: TraceJournal,
    /// Wrapper spans.
    pub clocks: Arc<Clocks>,
    /// Wall time from the first submission to the finished report.
    pub wall: Duration,
    /// Submitting the workload.
    pub submit: Duration,
    /// Inside `step_into` (single engine) or `epoch` (cluster) calls.
    pub drive: Duration,
    /// `into_outcome`: finalising the report.
    pub finalize: Duration,
    /// Engine iterations, summed over replicas.
    pub steps: u64,
    /// Per-step wall time of full-pipeline steps, nanoseconds (single
    /// engine only: cluster replicas step inside the epoch executor).
    pub full_step_nanos: Vec<u64>,
    /// Per-step wall time of plan-horizon fast steps, nanoseconds.
    pub fast_step_nanos: Vec<u64>,
    /// Cluster runs only.
    pub fleet: Option<FleetFacts>,
}

/// Runs `harness` traced and timed. The stack is assembled exactly as
/// `Harness::run` assembles it, only with timing wrappers around the
/// scheduler, router and scale policy.
pub fn run(harness: &Harness) -> Profile {
    let clocks = Arc::new(Clocks::default());
    let config = harness.config.clone().with_trace(true);
    let scheduler_spec = harness.scheduler.clone();
    let factory_clocks = Arc::clone(&clocks);
    let factory = move || -> Box<dyn Scheduler> {
        Box::new(TimedScheduler {
            inner: scheduler_spec.build_scheduler(),
            clocks: Arc::clone(&factory_clocks),
        })
    };
    let fault = harness.fault.clone().filter(|p| !p.is_empty());
    let router = |spec: &tokenflow_scenario::RouterSpec| TimedRouter {
        inner: spec.build_router(),
        clocks: Arc::clone(&clocks),
    };
    let cluster = match &harness.topology {
        TopologySpec::Single => return run_single(harness, config, factory(), clocks),
        TopologySpec::Cluster {
            replicas,
            router: router_spec,
            execution,
        } => {
            let mut c =
                ClusterEngine::new(config, *replicas as usize, router(router_spec), factory);
            if let Some(plan) = fault {
                c = c.with_fault_plan(plan);
            }
            c.with_execution(execution.build_execution())
        }
        TopologySpec::Autoscaled {
            bootstrap,
            router: router_spec,
            policy,
            control,
            execution,
        } => {
            let policy = TimedPolicy {
                inner: policy.build_policy(),
                clocks: Arc::clone(&clocks),
            };
            let mut c =
                ClusterEngine::new(config, *bootstrap as usize, router(router_spec), factory)
                    .with_autoscaler(policy, control.build_control(&harness.config));
            if let Some(plan) = fault {
                c = c.with_fault_plan(plan);
            }
            c.with_execution(execution.build_execution())
        }
    };
    run_cluster(harness, cluster, clocks)
}

fn run_single(
    harness: &Harness,
    config: tokenflow_core::EngineConfig,
    scheduler: Box<dyn Scheduler>,
    clocks: Arc<Clocks>,
) -> Profile {
    let deadline = SimTime::ZERO + config.deadline;
    let max_iterations = config.max_iterations;
    let mut engine = Engine::from_boxed(config, scheduler);
    let start = Instant::now();
    for spec in harness.workload.iter() {
        engine.submit(*spec);
    }
    let submit = start.elapsed();
    let mut full = Vec::new();
    let mut fast = Vec::new();
    let mut out = StepOutcome::default();
    // The loop of `Engine::run_to_completion`, with each step timed and
    // classified by whether it took the plan-horizon fast path.
    loop {
        let fast_before = engine.fast_path_stats().fast_steps;
        let t = Instant::now();
        engine.step_into(&mut out);
        let nanos = t.elapsed().as_nanos() as u64;
        if engine.fast_path_stats().fast_steps > fast_before {
            fast.push(nanos);
        } else {
            full.push(nanos);
        }
        if out.done || out.now >= deadline || engine.iterations() >= max_iterations {
            break;
        }
    }
    let drive = Duration::from_nanos(full.iter().chain(&fast).sum());
    let t = Instant::now();
    let outcome = engine.into_outcome();
    let finalize = t.elapsed();
    let wall = start.elapsed();
    Profile {
        report: outcome.report,
        completion: outcome.completion,
        journal: outcome.trace.expect("traced engine keeps a journal"),
        clocks,
        wall,
        submit,
        drive,
        finalize,
        steps: outcome.iterations,
        full_step_nanos: full,
        fast_step_nanos: fast,
        fleet: None,
    }
}

fn run_cluster(harness: &Harness, mut cluster: ClusterEngine, clocks: Arc<Clocks>) -> Profile {
    let start = Instant::now();
    cluster.submit_workload(&harness.workload);
    let submit = start.elapsed();
    let mut epoch_nanos = Vec::new();
    // The loop of `ClusterEngine::run_to_completion`, each epoch timed.
    loop {
        let t = Instant::now();
        let more = cluster.epoch();
        epoch_nanos.push(t.elapsed().as_nanos() as u64);
        if !more {
            break;
        }
    }
    let drive = Duration::from_nanos(epoch_nanos.iter().sum());
    let t = Instant::now();
    let outcome = cluster.into_outcome();
    let finalize = t.elapsed();
    let wall = start.elapsed();
    let served: Vec<f64> = outcome
        .replicas
        .iter()
        .map(|r| r.report.submitted as f64)
        .filter(|&n| n > 0.0)
        .collect();
    let dispatch_imbalance = if served.is_empty() {
        0.0
    } else {
        let mean = served.iter().sum::<f64>() / served.len() as f64;
        served.iter().copied().fold(0.0, f64::max) / mean
    };
    Profile {
        completion: if outcome.complete {
            Completion::Finished
        } else {
            Completion::Deadline
        },
        journal: outcome.trace.expect("traced cluster keeps a journal"),
        clocks,
        wall,
        submit,
        drive,
        finalize,
        steps: outcome.replicas.iter().map(|r| r.iterations).sum(),
        full_step_nanos: Vec::new(),
        fast_step_nanos: Vec::new(),
        fleet: Some(FleetFacts {
            epoch_nanos,
            peak_replicas: outcome.fleet.as_ref().map_or(0, |f| f.peak_active as u64),
            scale_events: outcome.scale_events.len() as u64,
            dispatch_imbalance,
        }),
        report: outcome.merged,
    }
}

/// Counts and simulated wait times read off a decision journal.
#[derive(Default)]
pub struct JournalFacts {
    /// Events recorded.
    pub events: u64,
    /// `reprice` events.
    pub reprices: u64,
    /// `swap` events.
    pub swaps: u64,
    /// `preempted` events.
    pub preemptions: u64,
    /// `load_start` events: host-to-device KV loads.
    pub loads: u64,
    /// `evict_start` events: device-to-host KV copies.
    pub evictions: u64,
    /// Admissions that re-prefilled a discarded context.
    pub recomputes: u64,
    /// `replica_crashed` events.
    pub crashes: u64,
    /// `request_lost` events.
    pub lost: u64,
    /// `request_abandoned` events.
    pub abandoned: u64,
    /// Simulated seconds requests spent `queued`, summed.
    pub queued_secs: f64,
    /// Simulated seconds requests spent `preempted` or `gated`, summed.
    pub held_secs: f64,
    /// Simulated seconds requests spent `reloading` KV, summed.
    pub reload_secs: f64,
}

/// Reads counts off the journal's event kinds and wait times off each
/// request's `request_timeline` phases.
///
/// Events are bucketed by the request ids they mention first, so each
/// timeline is rebuilt from its own events and the pass stays linear in
/// the journal.
pub fn journal_facts(journal: &mut TraceJournal) -> JournalFacts {
    let mut facts = JournalFacts {
        events: journal.len() as u64,
        ..JournalFacts::default()
    };
    let mut mentions: Vec<(u64, u32)> = Vec::with_capacity(journal.len());
    for (i, e) in journal.events.iter_mut().enumerate() {
        match &e.kind {
            TraceEventKind::Reprice { .. } => facts.reprices += 1,
            TraceEventKind::Swap { .. } => facts.swaps += 1,
            TraceEventKind::Preempted { .. } => facts.preemptions += 1,
            TraceEventKind::LoadStart { .. } => facts.loads += 1,
            TraceEventKind::EvictStart { .. } => facts.evictions += 1,
            TraceEventKind::Admitted {
                recompute: true, ..
            } => facts.recomputes += 1,
            TraceEventKind::ReplicaCrashed { .. } => facts.crashes += 1,
            TraceEventKind::RequestLost { .. } => facts.lost += 1,
            TraceEventKind::RequestAbandoned { .. } => facts.abandoned += 1,
            _ => {}
        }
        let index = u32::try_from(i).expect("journal fits u32 indices");
        e.kind.map_ids(|id| {
            mentions.push((id.0, index));
            id
        });
    }
    mentions.sort_unstable();
    mentions.dedup();
    let mut queued_us = 0u64;
    let mut held_us = 0u64;
    let mut reload_us = 0u64;
    for group in mentions.chunk_by(|a, b| a.0 == b.0) {
        let id = RequestId(group[0].0);
        let own = TraceJournal {
            events: group
                .iter()
                .map(|&(_, i)| journal.events[i as usize].clone())
                .collect(),
        };
        let Some(timeline) = request_timeline(&own, id) else {
            continue;
        };
        for phase in &timeline.phases {
            match phase.label {
                "queued" => queued_us += phase.micros(),
                "preempted" | "gated" => held_us += phase.micros(),
                "reloading" => reload_us += phase.micros(),
                _ => {}
            }
        }
    }
    facts.queued_secs = queued_us as f64 * 1e-6;
    facts.held_secs = held_us as f64 * 1e-6;
    facts.reload_secs = reload_us as f64 * 1e-6;
    facts
}
