//! Spec/hand-built equivalence: the scenario layer is a *construction
//! path*, not a reimplementation.
//!
//! For every shipped scheduler × router × scale-policy combination, the
//! spec-built stack's `RunReport` digest must be byte-identical to the
//! hand-built one assembled exactly as `tests/golden.rs` (and every
//! pre-spec example) does it: same constructors, same defaults, same
//! seeded trace. A digest mismatch means `ScenarioSpec::build` drifted
//! from the hand-written construction path — the one bug class a
//! declarative layer must never have.

use tokenflow_cluster::{
    BacklogAwareRouter, ClusterEngine, LeastLoadedRouter, RateAwareRouter, RoundRobinRouter, Router,
};
use tokenflow_control::{
    ControlConfig, PredictivePolicy, ReactivePolicy, ScalePolicy, ScriptedPolicy,
};
use tokenflow_core::{Engine, EngineConfig};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{
    parse_scenario, scenario_to_json, ControlSpec, ExecutionSpec, Json, RateDistSpec, RouterSpec,
    ScalePolicySpec, ScenarioSpec, SchedulerSpec, SpecError, TokenFlowSpec, TopologySpec,
    WorkloadSpec,
};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, Workload};

/// The shared small seeded trace: bursty enough to exercise preemption
/// and scaling, small enough that the 48-combination grid stays cheap.
fn trace() -> Workload {
    diurnal_flash_crowd(
        1.0,
        SimDuration::from_secs(40),
        10,
        SimTime::from_secs(10),
        RateDist::Uniform { lo: 8.0, hi: 24.0 },
        7,
    )
}

/// The equivalent workload spec.
fn workload_spec() -> WorkloadSpec {
    WorkloadSpec::DiurnalFlashCrowd {
        peak_rate: 1.0,
        duration_secs: 40.0,
        crowd_size: 10,
        crowd_at_secs: 10.0,
        rate: RateDistSpec::Uniform { lo: 8.0, hi: 24.0 },
        seed: 7,
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(8)
}

fn base_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::default();
    spec.engine.max_batch = 8;
    spec.workload = workload_spec();
    spec
}

const SCHEDULERS: [&str; 4] = ["fcfs", "chunked", "andes", "tokenflow"];
const ROUTERS: [&str; 4] = ["round-robin", "least-loaded", "backlog-aware", "rate-aware"];
const POLICIES: [&str; 3] = ["reactive", "predictive-ewma", "scripted"];

fn hand_scheduler(which: &str) -> Box<dyn Scheduler> {
    match which {
        "fcfs" => Box::new(FcfsScheduler::new()),
        "chunked" => Box::new(ChunkedPrefillScheduler::new()),
        "andes" => Box::new(AndesScheduler::new()),
        "tokenflow" => Box::new(TokenFlowScheduler::new()),
        other => panic!("unknown scheduler {other}"),
    }
}

fn spec_scheduler(which: &str) -> SchedulerSpec {
    match which {
        "fcfs" => SchedulerSpec::Fcfs { headroom: None },
        "chunked" => SchedulerSpec::Chunked { chunk: 512 },
        "andes" => SchedulerSpec::Andes { interval_ms: 500 },
        "tokenflow" => SchedulerSpec::TokenFlow(TokenFlowSpec::default()),
        other => panic!("unknown scheduler {other}"),
    }
}

fn hand_router(which: &str) -> Box<dyn Router> {
    match which {
        "round-robin" => Box::new(RoundRobinRouter::new()),
        "least-loaded" => Box::new(LeastLoadedRouter::new()),
        "backlog-aware" => Box::new(BacklogAwareRouter::new()),
        "rate-aware" => Box::new(RateAwareRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

fn spec_router(which: &str) -> RouterSpec {
    match which {
        "round-robin" => RouterSpec::RoundRobin,
        "least-loaded" => RouterSpec::LeastLoaded,
        "backlog-aware" => RouterSpec::BacklogAware,
        "rate-aware" => RouterSpec::RateAware,
        other => panic!("unknown router {other}"),
    }
}

fn hand_policy(which: &str) -> Box<dyn ScalePolicy> {
    match which {
        "reactive" => Box::new(ReactivePolicy::new()),
        "predictive-ewma" => Box::new(PredictivePolicy::with_tau(20.0)),
        "scripted" => Box::new(ScriptedPolicy::new(vec![
            (SimTime::ZERO, 1),
            (SimTime::from_secs(10), 3),
            (SimTime::from_secs(30), 1),
        ])),
        other => panic!("unknown policy {other}"),
    }
}

fn spec_policy(which: &str) -> ScalePolicySpec {
    match which {
        "reactive" => ScalePolicySpec::default(),
        "predictive-ewma" => ScalePolicySpec::PredictiveEwma {
            tau_secs: 20.0,
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        },
        "scripted" => ScalePolicySpec::Scripted {
            steps: vec![(0.0, 1), (10.0, 3), (30.0, 1)],
        },
        other => panic!("unknown policy {other}"),
    }
}

fn hand_control() -> ControlConfig {
    ControlConfig::for_engine(&config())
        .with_gamma(300.0)
        .with_min_replicas(1)
        .with_max_replicas(4)
        .with_boot_delay(SimDuration::from_secs(2))
        .with_cooldown(SimDuration::ZERO)
}

fn spec_control() -> ControlSpec {
    ControlSpec {
        min_replicas: 1,
        max_replicas: 4,
        boot_delay_secs: 2.0,
        cooldown_secs: 0.0,
        gamma: Some(300.0),
        control_tick_secs: None,
    }
}

#[test]
fn single_engine_spec_equals_hand_built_per_scheduler() {
    let w = trace();
    for which in SCHEDULERS {
        let hand = Engine::from_boxed(config(), hand_scheduler(which)).run(&w);
        let spec = ScenarioSpec {
            scheduler: spec_scheduler(which),
            ..base_spec()
        };
        let built = spec.build().expect("buildable").run();
        assert_eq!(
            built.digest(),
            hand.report.digest(),
            "{which}: spec-built single engine diverged from hand-built\n\
             spec: {}\nhand: {}",
            built.report.canonical_json(),
            hand.report.canonical_json()
        );
        assert!(built.complete && hand.complete, "{which}: incomplete");
    }
}

#[test]
fn cluster_spec_equals_hand_built_per_scheduler_and_router() {
    let w = trace();
    for sched in SCHEDULERS {
        for router in ROUTERS {
            let hand = ClusterEngine::new(config(), 3, hand_router(router), move || {
                hand_scheduler(sched)
            })
            .run(&w);
            let spec = ScenarioSpec {
                scheduler: spec_scheduler(sched),
                topology: TopologySpec::Cluster {
                    replicas: 3,
                    router: spec_router(router),
                    execution: ExecutionSpec::Sequential,
                },
                ..base_spec()
            };
            let built = spec.build().expect("buildable").run();
            assert_eq!(
                built.digest(),
                hand.merged.digest(),
                "{sched} × {router}: spec-built cluster diverged from hand-built"
            );
        }
    }
}

/// The full grid: every shipped scheduler × router × scale-policy
/// combination, spec-built vs hand-built, digest-identical.
#[test]
fn autoscaled_spec_equals_hand_built_per_scheduler_router_policy() {
    let w = trace();
    for sched in SCHEDULERS {
        for router in ROUTERS {
            for policy in POLICIES {
                let hand = ClusterEngine::new(config(), 2, hand_router(router), move || {
                    hand_scheduler(sched)
                })
                .with_autoscaler(hand_policy(policy), hand_control())
                .run(&w);
                let spec = ScenarioSpec {
                    scheduler: spec_scheduler(sched),
                    topology: TopologySpec::Autoscaled {
                        bootstrap: 2,
                        router: spec_router(router),
                        policy: spec_policy(policy),
                        control: spec_control(),
                        execution: ExecutionSpec::Sequential,
                    },
                    ..base_spec()
                };
                let built = spec.build().expect("buildable").run();
                assert_eq!(
                    built.digest(),
                    hand.merged.digest(),
                    "{sched} × {router} × {policy}: spec-built fleet diverged from hand-built"
                );
            }
        }
    }
}

/// A 4-replica least-loaded cluster on the shared trace, with
/// `execution` spliced into its topology (empty: no field).
fn cluster_spec_with_execution(execution: &str) -> String {
    let field = if execution.is_empty() {
        String::new()
    } else {
        format!(r#", "execution": {execution}"#)
    };
    format!(
        r#"{{"name": "legacy-execution", "model": "Llama3-8B", "hardware": "RTX4090",
  "engine": {{"max_batch": 8}}, "scheduler": "tokenflow",
  "workload": {{"type": "diurnal-flash-crowd", "peak_rate": 1, "duration_secs": 40,
               "crowd_size": 10, "crowd_at_secs": 10,
               "rate": {{"type": "uniform", "lo": 8, "hi": 24}}, "seed": 7}},
  "topology": {{"type": "cluster", "replicas": 4, "router": "least-loaded"{field}}}}}"#
    )
}

/// Specs written for the removed worker pool still parse and run: every
/// `execution` form the grammar has ever accepted emits as
/// `"sequential"` and builds the same cluster as the hand-built stack,
/// with the digest every form gave when the pool existed. The forms it
/// has always rejected are still typed errors at the same paths.
#[test]
fn every_legacy_execution_form_runs_the_one_executor() {
    const DIGEST: u64 = 0x4f5a_8c61_a755_8072;
    let hand = ClusterEngine::new(config(), 4, hand_router("least-loaded"), || {
        hand_scheduler("tokenflow")
    })
    .run(&trace());
    assert_eq!(hand.merged.digest(), DIGEST, "hand-built stack moved");
    for form in [
        "",
        r#""sequential""#,
        r#""auto""#,
        r#""parallel""#,
        r#"{"type": "sequential"}"#,
        r#"{"type": "auto"}"#,
        r#"{"type": "parallel"}"#,
        r#"{"type": "parallel", "threads": 3}"#,
        r#"{"sequential": {}}"#,
        r#"{"auto": {}}"#,
        r#"{"parallel": {}}"#,
        r#"{"parallel": {"threads": 2}}"#,
    ] {
        let spec = parse_scenario(&cluster_spec_with_execution(form))
            .unwrap_or_else(|e| panic!("{form}: {e}"));
        let emitted = scenario_to_json(&spec);
        assert_eq!(
            emitted.get("topology").and_then(|t| t.get("execution")),
            Some(&Json::Str("sequential".to_string())),
            "{form}: canonical form must name the one executor"
        );
        let built = spec.build().expect("buildable").run();
        assert!(built.complete, "{form}: incomplete");
        assert_eq!(built.digest(), DIGEST, "{form}");
    }

    let rejected = [
        (
            r#"{"type": "parallel", "threads": 0}"#,
            "invalid",
            "scenario.topology.execution.threads",
        ),
        (
            r#"{"parallel": {"threads": 0}}"#,
            "invalid",
            "scenario.topology.execution.parallel.threads",
        ),
        (
            r#""threaded""#,
            "unknown name",
            "scenario.topology.execution.type",
        ),
        (
            r#"{"threaded": {"threads": 2}}"#,
            "unknown name",
            "scenario.topology.execution",
        ),
        (
            r#"{"type": "parallel", "threads": 2, "lanes": 1}"#,
            "unknown field",
            "scenario.topology.execution.lanes",
        ),
        (
            r#"{"parallel": {"treads": 2}}"#,
            "unknown field",
            "scenario.topology.execution.parallel.treads",
        ),
        (
            r#"{"type": "auto", "threads": 2}"#,
            "unknown field",
            "scenario.topology.execution.threads",
        ),
        (
            r#"{"parallel": {}, "sequential": {}}"#,
            "invalid",
            "scenario.topology.execution",
        ),
    ];
    for (form, kind, path) in rejected {
        let err = parse_scenario(&cluster_spec_with_execution(form))
            .expect_err(&format!("{form} must be rejected"));
        let got = match &err {
            SpecError::Invalid { field, .. } => ("invalid", field.as_str()),
            SpecError::UnknownName { field, .. } => ("unknown name", field.as_str()),
            SpecError::UnknownField { field, .. } => ("unknown field", field.as_str()),
            other => panic!("{form}: untyped error {other:?}"),
        };
        assert_eq!(got, (kind, path), "{form}");
    }
}
