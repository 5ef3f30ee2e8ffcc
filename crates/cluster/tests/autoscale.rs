//! Elastic-cluster contracts: executor invariance of every shipped
//! scale policy, and the lifecycle rules routers must never break.
//!
//! The control plane runs only at arrival barriers, where replica state
//! is already pinned byte-for-byte by the epoch contract — so scale
//! decisions, event logs, fleet timelines, and final reports must be
//! identical under [`Execution::Sequential`] and
//! [`Execution::Parallel`]. These tests hold every shipped
//! [`ScalePolicy`] to that, and pin the two lifecycle regressions that
//! matter most: a draining replica never receives a dispatch, and a
//! provisioning replica receives nothing before its boot delay elapses.

use tokenflow_cluster::{ClusterEngine, ClusterOutcome, Execution, LeastLoadedRouter};
use tokenflow_control::{
    ControlConfig, PredictivePolicy, ReactivePolicy, ScaleEventKind, ScalePolicy, ScriptedPolicy,
};
use tokenflow_core::EngineConfig;
use tokenflow_fault::{CrashFault, FaultPlan};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, RequestSpec, Workload};

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16)
}

fn control(gamma: f64) -> ControlConfig {
    ControlConfig::for_engine(&config())
        .with_gamma(gamma)
        .with_min_replicas(1)
        .with_max_replicas(6)
        .with_boot_delay(SimDuration::from_secs(2))
        .with_cooldown(SimDuration::ZERO)
}

/// A small diurnal trace with a flash crowd landing mid-run — the
/// workload the control plane exists for.
fn stress_workload() -> Workload {
    diurnal_flash_crowd(
        1.5,
        SimDuration::from_secs(120),
        30,
        SimTime::from_secs(30),
        RateDist::Uniform { lo: 8.0, hi: 24.0 },
        42,
    )
}

fn policy(which: &str) -> Box<dyn ScalePolicy> {
    match which {
        "reactive" => Box::new(ReactivePolicy::new()),
        "predictive-ewma" => Box::new(PredictivePolicy::with_tau(20.0)),
        _ => Box::new(ScriptedPolicy::new(vec![
            (SimTime::ZERO, 2),
            (SimTime::from_secs(30), 5),
            (SimTime::from_secs(80), 1),
        ])),
    }
}

const POLICIES: [&str; 3] = ["reactive", "predictive-ewma", "scripted"];

fn run(w: &Workload, which: &str, execution: Execution) -> ClusterOutcome {
    ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(policy(which), control(300.0))
    .with_execution(execution)
    .run(w)
}

fn assert_byte_identical(a: &ClusterOutcome, b: &ClusterOutcome, label: &str) {
    assert_eq!(a.assignments, b.assignments, "{label}: assignments differ");
    assert_eq!(a.scale_events, b.scale_events, "{label}: scale logs differ");
    assert_eq!(a.fleet, b.fleet, "{label}: fleet stats differ");
    assert_eq!(
        a.merged.digest(),
        b.merged.digest(),
        "{label}: merged report digests differ"
    );
    assert_eq!(
        a.merged.runtime.epochs, b.merged.runtime.epochs,
        "{label}: epoch counts differ"
    );
    assert_eq!(
        format!("{:?}{:?}", a.scale_events, a.fleet),
        format!("{:?}{:?}", b.scale_events, b.fleet),
        "{label}: serialization differs"
    );
    assert_eq!(a.complete, b.complete, "{label}: completion differs");
    assert_eq!(
        a.replicas.len(),
        b.replicas.len(),
        "{label}: fleet size differs"
    );
    for (i, (x, y)) in a.replicas.iter().zip(&b.replicas).enumerate() {
        assert_eq!(x.records, y.records, "{label}: replica {i} records differ");
        assert_eq!(
            x.iterations, y.iterations,
            "{label}: replica {i} iteration counts differ"
        );
    }
}

#[test]
fn every_policy_is_executor_invariant_on_the_stress_trace() {
    let w = stress_workload();
    for which in POLICIES {
        let sequential = run(&w, which, Execution::Sequential);
        assert!(sequential.complete, "{which}: sequential run incomplete");
        assert_eq!(sequential.merged.submitted, w.len());
        for threads in [2usize, 3] {
            let parallel = run(&w, which, Execution::parallel(threads));
            assert_byte_identical(
                &sequential,
                &parallel,
                &format!("{which} vs parallel({threads})"),
            );
        }
    }
}

#[test]
fn reactive_policy_grows_the_fleet_under_the_crowd_and_shrinks_after() {
    let w = stress_workload();
    let out = run(&w, "reactive", Execution::Sequential);
    assert!(out.complete);
    assert_eq!(out.policy.as_deref(), Some("reactive"));
    let fleet = out.fleet.as_ref().expect("elastic run carries fleet stats");
    assert!(
        fleet.peak_active > 2,
        "crowd never grew the fleet: peak {}",
        fleet.peak_active
    );
    assert!(
        fleet.provisioned > 2,
        "no replica was provisioned beyond bootstrap"
    );
    assert!(
        fleet.retired > 0,
        "no replica was retired after the crowd passed"
    );
    // The bill matches the merged report and undercuts peak × duration.
    assert_eq!(out.merged.replica_seconds, fleet.replica_seconds);
    let peak_cost = fleet.peak_active as f64 * out.merged.duration.as_secs_f64();
    assert!(
        fleet.replica_seconds < peak_cost,
        "bill {} should undercut peak-sized static cost {peak_cost}",
        fleet.replica_seconds
    );
}

#[test]
fn draining_replica_never_receives_a_dispatch() {
    // Three bootstrap replicas; the script drains down to one at t=10 s
    // while arrivals keep coming afterwards.
    let mut specs: Vec<RequestSpec> = (0..9)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(i * 200),
            prompt_tokens: 128,
            output_tokens: 64,
            rate: 20.0,
        })
        .collect();
    specs.extend((0..8).map(|i| RequestSpec {
        id: RequestId(0),
        arrival: SimTime::from_secs(12 + i),
        prompt_tokens: 128,
        output_tokens: 64,
        rate: 20.0,
    }));
    let w = Workload::new(specs);
    let out = ClusterEngine::new(config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(
        ScriptedPolicy::new(vec![(SimTime::from_secs(10), 1)]),
        control(300.0).with_min_replicas(1).with_max_replicas(3),
    )
    .run(&w);
    assert!(out.complete);
    // The script never scales back up, so a drained replica stays out of
    // the active set forever: collect the drain instants per replica.
    let drains: Vec<(usize, SimTime)> = out
        .scale_events
        .iter()
        .filter(|e| e.kind == ScaleEventKind::DrainStarted)
        .map(|e| (e.replica, e.at))
        .collect();
    assert_eq!(drains.len(), 2, "script should drain two of three");
    for (spec, assignment) in w.iter().zip(&out.assignments) {
        for &(replica, at) in &drains {
            assert!(
                assignment.replica != replica || spec.arrival < at,
                "request arriving at {:?} was dispatched to replica {replica}, \
                 which started draining at {at:?}",
                spec.arrival
            );
        }
    }
    // Both drained replicas eventually retire, and their residents all
    // finished (the run is complete).
    let retired = out
        .scale_events
        .iter()
        .filter(|e| e.kind == ScaleEventKind::Retired)
        .count();
    assert_eq!(retired, 2);
    assert_eq!(out.merged.completed, w.len());
}

#[test]
fn provisioning_replica_receives_nothing_before_its_boot_delay() {
    // One bootstrap replica; the script wants three from t=0, with a 5 s
    // boot delay. Arrivals run from t=0 through t=9 s.
    let specs: Vec<RequestSpec> = (0..20)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(i * 450),
            prompt_tokens: 128,
            output_tokens: 64,
            rate: 20.0,
        })
        .collect();
    let w = Workload::new(specs);
    let boot = SimDuration::from_secs(5);
    let out = ClusterEngine::new(config(), 1, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(
        ScriptedPolicy::new(vec![(SimTime::ZERO, 3)]),
        control(300.0).with_max_replicas(3).with_boot_delay(boot),
    )
    .run(&w);
    assert!(out.complete);
    let ready = SimTime::ZERO + boot;
    for (spec, assignment) in w.iter().zip(&out.assignments) {
        if assignment.replica > 0 {
            assert!(
                spec.arrival >= ready,
                "request arriving at {:?} was dispatched to replica {} before \
                 its boot completed at {ready:?}",
                spec.arrival,
                assignment.replica
            );
        }
    }
    // The late replicas did activate and serve.
    assert!(out.assignments.iter().any(|a| a.replica > 0));
    let activated = out
        .scale_events
        .iter()
        .filter(|e| e.kind == ScaleEventKind::Activated)
        .count();
    assert_eq!(activated, 2);
}

#[test]
fn post_deadline_arrivals_do_not_inflate_the_bill() {
    // A post-deadline arrival is still routed (conservation), but the
    // control plane must not bill the fleet across instants the frozen
    // engines can never reach: the bill stays bounded by the fleet
    // ceiling times the run's actual timespan.
    let mut cfg = config();
    cfg.deadline = SimDuration::from_secs(10);
    let mut specs: Vec<RequestSpec> = (0..3)
        .map(|_| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: 64,
            output_tokens: 20,
            rate: 20.0,
        })
        .collect();
    specs.push(RequestSpec {
        id: RequestId(0),
        arrival: SimTime::from_secs(100),
        prompt_tokens: 64,
        output_tokens: 20,
        rate: 20.0,
    });
    let out = ClusterEngine::new(cfg, 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(
        ReactivePolicy::new(),
        control(300.0).with_min_replicas(2).with_max_replicas(4),
    )
    .run(&Workload::new(specs));
    assert!(!out.complete);
    assert_eq!(out.assignments.len(), 4);
    let dur = out.merged.duration.as_secs_f64();
    assert!(
        out.merged.replica_seconds <= 4.0 * dur + 1e-9,
        "bill {} exceeds ceiling x duration {}",
        out.merged.replica_seconds,
        4.0 * dur
    );
}

#[test]
fn control_tick_retires_idle_drain_within_one_tick() {
    // One burst at t=0 and nothing after: the only *real* arrival
    // barrier is t=0. The script drains replica 1 there (it never
    // receives a dispatch, so it is empty immediately), and the
    // residents of replica 0 stream for ~10 s. Without the periodic
    // control tick the plane is blind for that whole drain — the empty
    // replica is only retired (and stops billing) at the run's terminal
    // barrier. With a 1 s tick it must retire within one tick of the
    // drain decision.
    let specs: Vec<RequestSpec> = (0..4)
        .map(|_| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: 64,
            output_tokens: 128,
            rate: 12.0,
        })
        .collect();
    let w = Workload::new(specs);
    let tick = SimDuration::from_secs(1);
    let run_with = |control: ControlConfig, execution: Execution| {
        ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
            Box::new(TokenFlowScheduler::new())
        })
        .with_autoscaler(ScriptedPolicy::new(vec![(SimTime::ZERO, 1)]), control)
        .with_execution(execution)
        .run(&w)
    };
    let base = control(300.0).with_min_replicas(1).with_max_replicas(2);
    let ticked = run_with(base.clone().with_control_tick(tick), Execution::Sequential);
    let blind = run_with(base, Execution::Sequential);
    assert!(ticked.complete && blind.complete);

    let retired_at = |out: &ClusterOutcome| -> SimTime {
        out.scale_events
            .iter()
            .find(|e| e.kind == ScaleEventKind::Retired && e.replica == 1)
            .expect("replica 1 must retire")
            .at
    };
    // Ticked: retired within one tick of the t=0 drain decision.
    assert!(
        retired_at(&ticked) <= SimTime::ZERO + tick,
        "tick left the drain unretired until {:?}",
        retired_at(&ticked)
    );
    // Blind: the same retirement only happens at the terminal barrier —
    // the run's end instant — long after the drain actually emptied.
    let end = SimTime::ZERO + blind.merged.duration;
    assert_eq!(
        retired_at(&blind),
        end,
        "without a tick retirement should wait for run end"
    );
    assert!(
        retired_at(&ticked) < retired_at(&blind),
        "tick must retire strictly earlier than the terminal barrier"
    );
    // Stopping the bill ~10 s earlier shows up directly in the cost.
    let (f_tick, f_blind) = (ticked.fleet.clone().unwrap(), blind.fleet.clone().unwrap());
    assert!(
        f_tick.replica_seconds < f_blind.replica_seconds,
        "tick bill {} should undercut blind bill {}",
        f_tick.replica_seconds,
        f_blind.replica_seconds
    );

    // Synthetic barriers are part of the determinism contract too: the
    // ticked run must be byte-identical under the parallel executor.
    let ticked_par = run_with(
        control(300.0)
            .with_min_replicas(1)
            .with_max_replicas(2)
            .with_control_tick(tick),
        Execution::parallel(2),
    );
    assert_byte_identical(&ticked, &ticked_par, "control tick vs parallel(2)");
}

#[test]
fn crashed_draining_replica_retires_immediately_and_residents_recover() {
    // Three replicas share a burst of long streams; the script drains
    // down to one at t=2 s, so replicas 1 and 2 spend a long time in
    // Draining with residents. Replica 2 then crashes mid-drain at
    // t=5 s. The regression this pins: a crash must end the drain *now*
    // — the replica leaves the fleet (Failed, never Retired) and stops
    // billing at the crash barrier — and its residents must re-queue
    // through the recovery path instead of pinning the drain forever.
    let specs: Vec<RequestSpec> = (0..9)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(i * 100),
            prompt_tokens: 128,
            output_tokens: 400,
            rate: 10.0,
        })
        .collect();
    let w = Workload::new(specs);
    let crash_at = SimTime::from_secs(5);
    let plan = FaultPlan {
        crashes: vec![CrashFault {
            replica: 2,
            at: crash_at,
        }],
        ..FaultPlan::default()
    };
    let out = ClusterEngine::new(config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(
        ScriptedPolicy::new(vec![(SimTime::from_secs(2), 1)]),
        control(300.0)
            .with_max_replicas(3)
            .with_control_tick(SimDuration::from_secs(1)),
    )
    .with_fault_plan(plan)
    .run(&w);
    assert!(out.complete, "recovery must finish the run");
    let events_for = |replica: usize| -> Vec<ScaleEventKind> {
        out.scale_events
            .iter()
            .filter(|e| e.replica == replica)
            .map(|e| e.kind)
            .collect()
    };
    // Replica 2 was draining when it crashed: DrainStarted precedes
    // Crashed, and it never reaches Retired (the drain did not linger).
    let r2 = events_for(2);
    assert!(
        r2.contains(&ScaleEventKind::DrainStarted),
        "replica 2 should have been draining: {r2:?}"
    );
    assert!(
        r2.contains(&ScaleEventKind::Crashed),
        "replica 2 should crash mid-drain: {r2:?}"
    );
    assert!(
        !r2.contains(&ScaleEventKind::Retired),
        "a crashed drain must not also retire: {r2:?}"
    );
    let crashed_at = out
        .scale_events
        .iter()
        .find(|e| e.kind == ScaleEventKind::Crashed)
        .expect("crash event logged")
        .at;
    assert_eq!(crashed_at, crash_at, "crash lands at its barrier instant");
    // The healthy drain (replica 1) still retires normally.
    assert!(
        events_for(1).contains(&ScaleEventKind::Retired),
        "healthy drain must still retire: {:?}",
        events_for(1)
    );
    // Every resident lost to the crash recovered on the survivor.
    let faults = out.merged.faults.as_ref().expect("fault stats present");
    assert_eq!(faults.crashes, 1);
    assert!(faults.lost_events > 0, "a draining replica held residents");
    assert_eq!(faults.abandoned, 0);
    assert_eq!(faults.recovered, faults.lost_events);
    assert_eq!(out.merged.completed, w.len());
    // Billing stopped at the crash: the fleet integral is strictly below
    // what three replicas over the whole run would cost.
    let fleet = out.fleet.as_ref().expect("elastic run carries fleet stats");
    assert!(
        fleet.replica_seconds < 3.0 * out.merged.duration.as_secs_f64(),
        "crashed replica must stop billing at the crash barrier"
    );
}

#[test]
fn static_cluster_outcome_reports_no_fleet_and_full_bill() {
    let w = stress_workload();
    let out = ClusterEngine::new(config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .run(&w);
    assert!(out.fleet.is_none());
    assert!(out.scale_events.is_empty());
    assert_eq!(out.policy, None);
    // A static fleet bills every replica for the whole run.
    let expect = 3.0 * out.merged.duration.as_secs_f64();
    assert!((out.merged.replica_seconds - expect).abs() < 1e-9);
}
