//! Serde round-trip properties for every spec variant.
//!
//! The canonical contract: for any spec value, `parse(emit(spec)) ==
//! spec`, and emission is a fixed point (`emit(parse(text)) == text` for
//! emitted `text`) — so specs survive arbitrarily many JSON hops without
//! drift. Unknown names must come back as typed errors listing the valid
//! alternatives, never as panics. The same generators, cut down to cheap
//! workloads, also drive specs through `build` and `run`: a spec either
//! fails to build with a typed error or runs to an outcome, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use tokenflow_scenario::{
    codec, json, ArrivalSpecSpec, ControlSpec, CrashSpec, EngineSpec, ExecutionSpec, FaultSpec,
    InlineRequest, LengthDistSpec, RateDistSpec, RetrySpec, RouterSpec, ScalePolicySpec,
    ScenarioSpec, SchedulerSpec, SpecError, TokenFlowSpec, TopologySpec, WindowFaultSpec,
    WorkloadSpec, PRESET_NAMES, ROUTER_NAMES, SCALE_POLICY_NAMES, SCHEDULER_NAMES,
};

/// Strings exercising the emitter's escaping: spaces, quotes, newlines,
/// non-ASCII, path separators.
fn arb_name() -> impl Strategy<Value = String> {
    const CANDIDATES: [&str; 8] = [
        "plain",
        "with space",
        "quo\"ted",
        "back\\slash",
        "line\nbreak",
        "tabbed\there",
        "ünïcode-π",
        "rel/path_01.csv",
    ];
    (0usize..CANDIDATES.len()).prop_map(|i| CANDIDATES[i].to_string())
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        (0u64..2, 1u64..4096).prop_map(|(tag, h)| SchedulerSpec::Fcfs {
            headroom: (tag == 1).then_some(h),
        }),
        (1u64..4096).prop_map(|chunk| SchedulerSpec::Chunked { chunk }),
        (1u64..5_000).prop_map(|interval_ms| SchedulerSpec::Andes { interval_ms }),
        (
            (1u64..5_000, 1.0f64..20.0, 0.0f64..1.0, 0.0f64..4.0),
            (0.0f64..10.0, 0u64..512, 0.5f64..1.0),
            (0u64..1024, 0.0f64..4.0, 0.1f64..1.0, 1u64..8192, 0u64..64),
        )
            .prop_map(
                |(
                    (schedule_interval_ms, buffer_conservativeness, ws_adjust_rate, gamma),
                    (critical_buffer_secs, headroom_tokens, util_target),
                    (
                        max_transitions,
                        io_backpressure,
                        capacity_safety,
                        prefill_chunk,
                        swap_candidates,
                    ),
                )| SchedulerSpec::TokenFlow(TokenFlowSpec {
                    schedule_interval_ms,
                    buffer_conservativeness,
                    ws_adjust_rate,
                    gamma,
                    critical_buffer_secs,
                    headroom_tokens,
                    util_target,
                    max_transitions,
                    io_backpressure,
                    capacity_safety,
                    prefill_chunk,
                    swap_candidates,
                })
            ),
    ]
}

fn arb_router() -> impl Strategy<Value = RouterSpec> {
    prop_oneof![
        Just(RouterSpec::RoundRobin),
        Just(RouterSpec::LeastLoaded),
        Just(RouterSpec::BacklogAware),
        Just(RouterSpec::RateAware),
    ]
}

fn arb_policy() -> impl Strategy<Value = ScalePolicySpec> {
    prop_oneof![
        (0.1f64..1.0, 1u64..65_536, 0.1f64..1.0).prop_map(
            |(target_utilization, backlog_per_replica, kv_watermark)| {
                ScalePolicySpec::Reactive {
                    target_utilization,
                    backlog_per_replica,
                    kv_watermark,
                }
            }
        ),
        (1.0f64..300.0, 0.1f64..1.0, 1u64..65_536, 0.1f64..1.0).prop_map(
            |(tau_secs, target_utilization, backlog_per_replica, kv_watermark)| {
                ScalePolicySpec::PredictiveEwma {
                    tau_secs,
                    target_utilization,
                    backlog_per_replica,
                    kv_watermark,
                }
            }
        ),
        collection::vec((0.0f64..600.0, 1u64..16), 0usize..6)
            .prop_map(|steps| ScalePolicySpec::Scripted { steps }),
    ]
}

fn arb_control() -> impl Strategy<Value = ControlSpec> {
    (
        (1u64..4, 4u64..64, 0.0f64..30.0, 0.0f64..30.0),
        (0u64..2, 1.0f64..2_000.0),
        (0u64..2, 0.001f64..60.0),
    )
        .prop_map(
            |((min, max, boot, cooldown), (has_gamma, gamma), (has_tick, tick))| ControlSpec {
                min_replicas: min,
                max_replicas: max,
                boot_delay_secs: boot,
                cooldown_secs: cooldown,
                gamma: (has_gamma == 1).then_some(gamma),
                control_tick_secs: (has_tick == 1).then_some(tick),
            },
        )
}

fn arb_execution() -> impl Strategy<Value = ExecutionSpec> {
    prop_oneof![
        Just(ExecutionSpec::Sequential),
        Just(ExecutionSpec::Auto),
        (1u64..64).prop_map(ExecutionSpec::Parallel),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalSpecSpec> {
    prop_oneof![
        (1u64..500, 0.0f64..600.0)
            .prop_map(|(size, at_secs)| ArrivalSpecSpec::Burst { size, at_secs }),
        (0.1f64..50.0, 1.0f64..600.0).prop_map(|(rate, duration_secs)| {
            ArrivalSpecSpec::Poisson {
                rate,
                duration_secs,
            }
        }),
        (
            0.1f64..10.0,
            1.0f64..100.0,
            1.0f64..60.0,
            1.0f64..30.0,
            1.0f64..600.0
        )
            .prop_map(
                |(base_rate, burst_rate, mean_calm_secs, mean_burst_secs, duration_secs)| {
                    ArrivalSpecSpec::Mmpp {
                        base_rate,
                        burst_rate,
                        mean_calm_secs,
                        mean_burst_secs,
                        duration_secs,
                    }
                }
            ),
        (0.01f64..5.0, 1.0f64..50.0, 10.0f64..600.0, 10.0f64..600.0).prop_map(
            |(trough_rate, peak_rate, period_secs, duration_secs)| ArrivalSpecSpec::Diurnal {
                trough_rate,
                peak_rate,
                period_secs,
                duration_secs,
            }
        ),
    ]
}

fn arb_length_dist() -> impl Strategy<Value = LengthDistSpec> {
    prop_oneof![
        (1u64..8192).prop_map(LengthDistSpec::Fixed),
        (16.0f64..4096.0, 1.0f64..1024.0, 1u64..64, 4096u64..16_384).prop_map(
            |(mean, std, min, max)| LengthDistSpec::Normal {
                mean,
                std,
                min,
                max
            }
        ),
        (16.0f64..4096.0, 1.0f64..1024.0, 1u64..64, 4096u64..16_384).prop_map(
            |(mean, std, min, max)| LengthDistSpec::LogNormal {
                mean,
                std,
                min,
                max
            }
        ),
        (1u64..512, 512u64..4096).prop_map(|(lo, hi)| LengthDistSpec::Uniform { lo, hi }),
        Just(LengthDistSpec::SharegptPrompt),
        Just(LengthDistSpec::SharegptOutput),
    ]
}

fn arb_rate_dist() -> impl Strategy<Value = RateDistSpec> {
    prop_oneof![
        (1.0f64..50.0).prop_map(RateDistSpec::Fixed),
        (1.0f64..10.0, 10.0f64..50.0).prop_map(|(lo, hi)| RateDistSpec::Uniform { lo, hi }),
        collection::vec((0.01f64..1.0, 1.0f64..50.0), 1usize..5).prop_map(RateDistSpec::Mix),
    ]
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (0usize..PRESET_NAMES.len(), 0u64..1_000).prop_map(|(i, seed)| WorkloadSpec::Preset {
            name: PRESET_NAMES[i].to_string(),
            seed,
        }),
        (
            (0.1f64..10.0, 10.0f64..600.0, 1u64..200, 0.0f64..300.0),
            arb_rate_dist(),
            0u64..1_000
        )
            .prop_map(
                |((peak_rate, duration_secs, crowd_size, crowd_at_secs), rate, seed)| {
                    WorkloadSpec::DiurnalFlashCrowd {
                        peak_rate,
                        duration_secs,
                        crowd_size,
                        crowd_at_secs,
                        rate,
                        seed,
                    }
                }
            ),
        (
            arb_arrivals(),
            arb_length_dist(),
            arb_length_dist(),
            arb_rate_dist(),
            0u64..1_000
        )
            .prop_map(
                |(arrivals, prompt, output, rate, seed)| WorkloadSpec::Synthetic {
                    arrivals,
                    prompt,
                    output,
                    rate,
                    seed,
                }
            ),
        arb_name().prop_map(|path| WorkloadSpec::TraceCsv { path }),
        arb_inline_workload(),
    ]
}

/// An inline workload of at most four requests.
fn arb_inline_workload() -> impl Strategy<Value = WorkloadSpec> {
    collection::vec(
        (0.0f64..100.0, 1u64..4096, 1u64..4096, 1.0f64..50.0).prop_map(
            |(arrival_secs, prompt_tokens, output_tokens, rate)| InlineRequest {
                arrival_secs,
                prompt_tokens,
                output_tokens,
                rate,
            },
        ),
        0usize..5,
    )
    .prop_map(|requests| WorkloadSpec::Inline { requests })
}

fn arb_engine() -> impl Strategy<Value = EngineSpec> {
    (
        1u64..512,
        (0u64..2, 0u64..2, 0u64..2),
        1_024u64..16_384,
        60.0f64..20_000.0,
    )
        .prop_map(
            |(max_batch, (offload, wt, overlap), max_prefill_tokens, deadline_secs)| EngineSpec {
                max_batch,
                mem_frac: 0.3 + (max_batch % 7) as f64 * 0.1,
                offload_enabled: offload == 1,
                write_through: wt == 1,
                load_evict_overlap: overlap == 1,
                max_prefill_tokens,
                deadline_secs,
                plan_horizon: (max_batch + offload) % 2 == 0,
            },
        )
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Single),
        (1u64..16, arb_router(), arb_execution()).prop_map(|(replicas, router, execution)| {
            TopologySpec::Cluster {
                replicas,
                router,
                execution,
            }
        }),
        // The bootstrap fleet lies inside `[min_replicas, max_replicas]`
        // — the cross-field topology check rejects anything else.
        (
            0u64..8,
            arb_router(),
            arb_policy(),
            arb_control(),
            arb_execution()
        )
            .prop_map(|(offset, router, policy, control, execution)| {
                let span = control.max_replicas - control.min_replicas + 1;
                TopologySpec::Autoscaled {
                    bootstrap: control.min_replicas + offset % span,
                    router,
                    policy,
                    control,
                    execution,
                }
            }),
    ]
}

fn arb_window_fault(bound: u64) -> impl Strategy<Value = WindowFaultSpec> {
    (0..bound, 0.0f64..300.0, 0.1f64..200.0, 0.05f64..1.0).prop_map(
        |(replica, from_secs, width, factor)| WindowFaultSpec {
            replica,
            from_secs,
            until_secs: from_secs + width,
            factor,
        },
    )
}

/// A fault schedule whose replica indices all lie inside `bound` — the
/// cross-field topology check would reject anything larger, so the
/// round-trip property generates only specs that parse back.
fn arb_fault(bound: u64) -> impl Strategy<Value = Option<FaultSpec>> {
    let full = (
        collection::vec(
            (0..bound, 0.0f64..600.0).prop_map(|(replica, at_secs)| CrashSpec { replica, at_secs }),
            0usize..3,
        ),
        collection::vec(arb_window_fault(bound), 0usize..3),
        collection::vec(arb_window_fault(bound), 0usize..3),
        collection::vec(0..bound, 0usize..3),
        (1u64..8, 1u64..5_000, 1.0f64..4.0, 1u64..60_000),
        (0u64..2, 0.5f64..8.0),
    )
        .prop_map(
            |(crashes, stragglers, kv_link, boot_failures, retry, (has_shed, shed))| {
                Some(FaultSpec {
                    crashes,
                    stragglers,
                    kv_link,
                    boot_failures,
                    retry: RetrySpec {
                        max_attempts: retry.0,
                        base_backoff_ms: retry.1,
                        multiplier: retry.2,
                        max_backoff_ms: retry.3,
                    },
                    shed_utilization: (has_shed == 1).then_some(shed),
                })
            },
        );
    prop_oneof![Just(None), full]
}

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        (arb_name(), 0usize..4, 0usize..4),
        arb_engine(),
        arb_scheduler(),
        arb_workload(),
        arb_topology(),
    )
        .prop_flat_map(|(names, engine, scheduler, workload, topology)| {
            // Fault replica indices must respect the topology's bound —
            // single topologies take no fault at all.
            let fault = match &topology {
                TopologySpec::Single => Just(None).boxed(),
                TopologySpec::Cluster { replicas, .. } => arb_fault(*replicas).boxed(),
                TopologySpec::Autoscaled { control, .. } => arb_fault(control.max_replicas).boxed(),
            };
            (
                Just(names),
                Just(engine),
                Just(scheduler),
                Just(workload),
                Just(topology),
                fault,
            )
        })
        .prop_map(
            |((name, model_i, hw_i), engine, scheduler, workload, topology, fault)| ScenarioSpec {
                name,
                model: tokenflow_scenario::MODEL_NAMES[model_i].to_string(),
                hardware: tokenflow_scenario::HARDWARE_NAMES[hw_i].to_string(),
                engine,
                scheduler,
                workload,
                topology,
                fault,
            },
        )
}

/// A round-trip spec made cheap to run: an inline workload, a deadline of
/// at most 600 s and control ticks of at least 0.5 s. Memory fraction and
/// bootstrap fleet are redrawn over wider ranges than the round trip uses,
/// so models that do not fit their GPU and bootstrap fleets outside
/// `[min_replicas, max_replicas]` both turn up.
fn arb_runnable_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        arb_scenario(),
        arb_inline_workload(),
        (0.01f64..1.0, 0.0f64..600.0, 1u64..8),
    )
        .prop_map(|(mut spec, workload, (mem_frac, deadline_secs, boot))| {
            spec.workload = workload;
            spec.engine.mem_frac = mem_frac;
            spec.engine.deadline_secs = deadline_secs;
            if let TopologySpec::Autoscaled {
                bootstrap, control, ..
            } = &mut spec.topology
            {
                *bootstrap = boot;
                control.control_tick_secs = control.control_tick_secs.map(|t| t.max(0.5));
            }
            spec
        })
}

proptest! {
    #[test]
    fn scenario_json_roundtrip_is_identity(spec in arb_scenario()) {
        let text = codec::scenario_to_json(&spec).emit();
        let parsed = codec::parse_scenario(&text)
            .map_err(|e| format!("emitted spec failed to parse: {e}\n{text}"))?;
        prop_assert_eq!(&parsed, &spec);
        // Emission is a fixed point: JSON → spec → JSON is identity on
        // canonical documents.
        prop_assert_eq!(codec::scenario_to_json(&parsed).emit(), text);
        // The pretty form parses back to the same spec too.
        let pretty = codec::scenario_to_json(&spec).emit_pretty();
        let reparsed = codec::parse_scenario(&pretty)
            .map_err(|e| format!("pretty form failed to parse: {e}"))?;
        prop_assert_eq!(reparsed, spec);
    }

    #[test]
    fn scheduler_json_roundtrip_is_identity(spec in arb_scheduler()) {
        let j = codec::scheduler_to_json(&spec);
        let parsed = codec::scheduler_from_json(&j, "s")
            .map_err(|e| format!("{e}"))?;
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn router_json_roundtrip_is_identity(spec in arb_router()) {
        let j = codec::router_to_json(&spec);
        let parsed = codec::router_from_json(&j, "r").map_err(|e| format!("{e}"))?;
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn policy_json_roundtrip_is_identity(spec in arb_policy()) {
        let j = codec::policy_to_json(&spec);
        let parsed = codec::policy_from_json(&j, "p").map_err(|e| format!("{e}"))?;
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn parsing_never_panics_on_mutated_documents(spec in arb_scenario(), cut in 0usize..400) {
        // Truncating an emitted document at any byte boundary must yield
        // a typed error (or still parse, for trailing-whitespace cuts) —
        // never a panic.
        let text = codec::scenario_to_json(&spec).emit();
        let cut = cut.min(text.len());
        let truncated: String = text.chars().take(cut).collect();
        let _ = codec::parse_scenario(&truncated);
    }

    #[test]
    fn valid_specs_never_panic_through_build_and_run(spec in arb_runnable_scenario()) {
        let text = codec::scenario_to_json(&spec).emit();
        catch_unwind(AssertUnwindSafe(|| {
            if let Ok(harness) = spec.build() {
                harness.run();
            }
        }))
        .map_err(|_| format!("build or run panicked on {text}"))?;
    }
}

#[test]
fn unknown_names_are_typed_errors_listing_valid_ones() {
    let cases: [(&str, &[&str]); 4] = [
        (r#"{"scheduler": "mlfq"}"#, SCHEDULER_NAMES),
        (
            r#"{"topology": {"type": "cluster", "router": "random"}}"#,
            ROUTER_NAMES,
        ),
        (
            r#"{"topology": {"type": "autoscaled", "policy": "oracle"}}"#,
            SCALE_POLICY_NAMES,
        ),
        (
            r#"{"workload": {"type": "preset", "name": "tpu-pod"}}"#,
            PRESET_NAMES,
        ),
    ];
    for (doc, expected_valid) in cases {
        match codec::parse_scenario(doc) {
            Err(SpecError::UnknownName { valid, .. }) => {
                assert_eq!(valid, expected_valid.to_vec(), "for {doc}");
            }
            other => panic!("{doc}: expected UnknownName, got {other:?}"),
        }
    }
}

#[test]
fn execution_grammar_accepts_every_documented_form() {
    let parse = |doc: &str| {
        codec::execution_from_json(&json::parse(doc).unwrap(), "topology.execution").unwrap()
    };
    // Bare strings.
    assert_eq!(parse(r#""sequential""#), ExecutionSpec::Sequential);
    assert_eq!(parse(r#""auto""#), ExecutionSpec::Auto);
    // The canonical tagged object.
    assert_eq!(
        parse(r#"{"type": "parallel", "threads": 8}"#),
        ExecutionSpec::Parallel(8)
    );
    // The nested single-key shorthand, with and without threads.
    assert_eq!(
        parse(r#"{"parallel": {"threads": 8}}"#),
        ExecutionSpec::Parallel(8)
    );
    assert_eq!(parse(r#"{"parallel": {}}"#), ExecutionSpec::Parallel(4));
    // Every accepted form survives the canonical round trip.
    for spec in [
        ExecutionSpec::Sequential,
        ExecutionSpec::Auto,
        ExecutionSpec::Parallel(8),
    ] {
        let emitted = codec::scenario_to_json(&ScenarioSpec {
            topology: TopologySpec::Cluster {
                replicas: 2,
                router: RouterSpec::RoundRobin,
                execution: spec,
            },
            ..ScenarioSpec::default()
        })
        .emit();
        let reparsed = codec::parse_scenario(&emitted).unwrap();
        match reparsed.topology {
            TopologySpec::Cluster { execution, .. } => assert_eq!(execution, spec),
            other => panic!("expected cluster topology, got {other:?}"),
        }
    }
}

#[test]
fn execution_grammar_rejects_bad_forms_with_typed_errors() {
    let parse = |doc: &str| codec::execution_from_json(&json::parse(doc).unwrap(), "e");
    // Unknown strategy names list the valid alternatives, in both the
    // tagged and the nested form.
    for doc in [r#""threaded""#, r#"{"threaded": {"threads": 2}}"#] {
        match parse(doc) {
            Err(SpecError::UnknownName { got, valid, .. }) => {
                assert_eq!(got, "threaded", "for {doc}");
                assert_eq!(valid, vec!["sequential", "parallel", "auto"], "for {doc}");
            }
            other => panic!("{doc}: expected UnknownName, got {other:?}"),
        }
    }
    // Zero threads is a parse-time error in both object forms.
    for doc in [
        r#"{"type": "parallel", "threads": 0}"#,
        r#"{"parallel": {"threads": 0}}"#,
    ] {
        assert!(
            matches!(parse(doc), Err(SpecError::Invalid { .. })),
            "{doc} must be rejected"
        );
    }
    // Stray fields inside the nested body are typo-checked.
    assert!(matches!(
        parse(r#"{"parallel": {"treads": 2}}"#),
        Err(SpecError::UnknownField { .. })
    ));
    // A multi-key untagged object is not a strategy.
    assert!(matches!(
        parse(r#"{"parallel": {}, "sequential": {}}"#),
        Err(SpecError::Invalid { .. })
    ));
}

#[test]
fn json_error_reports_position_not_panic() {
    let err = codec::parse_scenario("{\"name\": \"x\",\n  broken\n}").unwrap_err();
    match err {
        SpecError::Json(e) => assert_eq!(e.line, 2, "{e}"),
        other => panic!("expected Json error, got {other:?}"),
    }
}

#[test]
fn committed_grammar_examples_parse() {
    // The exact shorthand forms the docs promise: bare-string scheduler,
    // router, execution, topology, and length-dist names.
    let spec = codec::parse_scenario(
        r#"{
            "scheduler": "fcfs",
            "workload": {"type": "synthetic",
                         "arrivals": {"type": "poisson", "rate": 1.0, "duration_secs": 10},
                         "prompt": "sharegpt-prompt",
                         "output": "sharegpt-output"},
            "topology": {"type": "cluster", "replicas": 2, "router": "rate-aware",
                          "execution": "sequential"}
        }"#,
    )
    .unwrap();
    assert_eq!(spec.scheduler, SchedulerSpec::Fcfs { headroom: None });
    assert!(matches!(
        spec.topology,
        TopologySpec::Cluster { replicas: 2, .. }
    ));
    // Shorthand and canonical forms parse to the same spec.
    let canonical = codec::scenario_to_json(&spec).emit();
    assert_eq!(codec::parse_scenario(&canonical).unwrap(), spec);
}

#[test]
fn emitted_pretty_files_are_stable_fixed_points() {
    // What `scenarios/` files rely on: pretty emission parses back and
    // re-emits identically.
    let spec = ScenarioSpec::default();
    let pretty = codec::scenario_to_json(&spec).emit_pretty();
    let reparsed = codec::parse_scenario(&pretty).unwrap();
    assert_eq!(codec::scenario_to_json(&reparsed).emit_pretty(), pretty);
}

// Silence an unused-import lint when the json helpers aren't referenced
// directly: the module is exercised through codec.
#[allow(unused_imports)]
use json as _json;
