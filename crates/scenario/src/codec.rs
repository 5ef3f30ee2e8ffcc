//! JSON ⇄ spec conversion with typed errors.
//!
//! Parsing is lenient about *omissions* — any missing field takes its
//! default, so `{"workload": {"type": "preset", "name": "rtx4090-a"}}`
//! is a complete scenario — but strict about *mistakes*: unknown `type`
//! names produce [`SpecError::UnknownName`] listing the valid names,
//! unknown fields produce [`SpecError::UnknownField`], and type
//! mismatches produce [`SpecError::Invalid`]. Nothing panics on
//! malformed input.
//!
//! Emission is canonical: every field explicit, in declaration order,
//! knob-free enums as bare strings. `parse(emit(spec)) == spec` for any
//! spec, and emission is a fixed point over parse — the round-trip
//! property suite pins both.

use crate::json::{self, n, ni, obj, s, Json, JsonError};
use crate::spec::*;

/// A spec-level failure: where in the document, and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document was not JSON at all.
    Json(JsonError),
    /// A name (policy, preset, profile, …) did not match any shipped one.
    UnknownName {
        /// Dotted path of the offending field, e.g. `"scheduler.type"`.
        field: String,
        /// What the document said.
        got: String,
        /// Every valid name for this field.
        valid: Vec<String>,
    },
    /// An object carried a field the spec does not define (typo guard).
    UnknownField {
        /// Dotted path of the unknown field.
        field: String,
        /// Fields the object does define.
        valid: Vec<String>,
    },
    /// A field was present but malformed (wrong type, bad value).
    Invalid {
        /// Dotted path of the offending field.
        field: String,
        /// What was wrong.
        msg: String,
    },
    /// The spec was well-formed but unbuildable (e.g. unreadable trace).
    Build {
        /// What failed.
        msg: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::UnknownName { field, got, valid } => write!(
                f,
                "unknown {field} \"{got}\"; valid names: {}",
                valid.join(", ")
            ),
            SpecError::UnknownField { field, valid } => write!(
                f,
                "unknown field {field}; this object accepts: {}",
                valid.join(", ")
            ),
            SpecError::Invalid { field, msg } => write!(f, "invalid {field}: {msg}"),
            SpecError::Build { msg } => write!(f, "cannot build scenario: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

fn unknown_name(field: &str, got: &str, valid: &[&str]) -> SpecError {
    SpecError::UnknownName {
        field: field.to_string(),
        got: got.to_string(),
        valid: valid.iter().map(|v| v.to_string()).collect(),
    }
}

fn invalid(field: &str, msg: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        field: field.to_string(),
        msg: msg.into(),
    }
}

/// Checks an object's keys against the accepted set (typo guard).
fn check_fields(v: &Json, path: &str, accepted: &[&str]) -> Result<(), SpecError> {
    let Some(members) = v.as_obj() else {
        return Err(invalid(path, "expected an object"));
    };
    for (k, _) in members {
        if !accepted.contains(&k.as_str()) {
            return Err(SpecError::UnknownField {
                field: format!("{path}.{k}"),
                valid: accepted.iter().map(|a| a.to_string()).collect(),
            });
        }
    }
    Ok(())
}

fn get_f64(v: &Json, path: &str, key: &str, default: f64) -> Result<f64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => match j.as_f64() {
            Some(x) if x.is_finite() => Ok(x),
            _ => Err(invalid(
                &format!("{path}.{key}"),
                "expected a finite number",
            )),
        },
    }
}

/// Strictly positive finite number — rates and intervals the engine
/// asserts on at run time fail here with a typed error instead.
fn get_pos_f64(v: &Json, path: &str, key: &str, default: f64) -> Result<f64, SpecError> {
    let x = get_f64(v, path, key, default)?;
    if x > 0.0 {
        Ok(x)
    } else {
        Err(invalid(&format!("{path}.{key}"), "must be positive"))
    }
}

/// Non-negative finite number — times and delays (`SimTime::from_secs_f64`
/// rejects negatives) fail here with a typed error instead.
fn get_nonneg_f64(v: &Json, path: &str, key: &str, default: f64) -> Result<f64, SpecError> {
    let x = get_f64(v, path, key, default)?;
    if x >= 0.0 {
        Ok(x)
    } else {
        Err(invalid(&format!("{path}.{key}"), "must be non-negative"))
    }
}

/// Integer that must also fit the engine's `u32` fields (batch caps,
/// burst sizes) — out-of-range values error instead of silently wrapping
/// at build time.
fn get_u32_sized(v: &Json, path: &str, key: &str, default: u64) -> Result<u64, SpecError> {
    let x = get_u64(v, path, key, default)?;
    if x <= u64::from(u32::MAX) {
        Ok(x)
    } else {
        Err(invalid(
            &format!("{path}.{key}"),
            format!("must fit in 32 bits (≤ {})", u32::MAX),
        ))
    }
}

/// Millisecond interval that must survive `SimDuration::from_millis`'s
/// `×1000` conversion — bounded to `u32` range (~49 days), far beyond any
/// meaningful scheduling interval, so oversized values error at parse
/// time instead of overflowing at build time.
fn get_millis(v: &Json, path: &str, key: &str, default: u64) -> Result<u64, SpecError> {
    let x = get_u64(v, path, key, default)?;
    if x <= u64::from(u32::MAX) {
        Ok(x)
    } else {
        Err(invalid(
            &format!("{path}.{key}"),
            format!("interval too large (at most {} ms)", u32::MAX),
        ))
    }
}

fn get_u64(v: &Json, path: &str, key: &str, default: u64) -> Result<u64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| invalid(&format!("{path}.{key}"), "expected a non-negative integer")),
    }
}

fn get_bool(v: &Json, path: &str, key: &str, default: bool) -> Result<bool, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_bool()
            .ok_or_else(|| invalid(&format!("{path}.{key}"), "expected true or false")),
    }
}

fn get_opt_f64(v: &Json, path: &str, key: &str) -> Result<Option<f64>, SpecError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => match j.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(invalid(
                &format!("{path}.{key}"),
                "expected a finite number or null",
            )),
        },
    }
}

fn get_str<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a str, SpecError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(&format!("{path}.{key}"), "expected a string"))
}

/// The `type` tag of a tagged object, or the bare string itself.
fn type_tag<'a>(v: &'a Json, path: &str, valid: &[&str]) -> Result<&'a str, SpecError> {
    let name = match v {
        Json::Str(name) => name.as_str(),
        Json::Obj(_) => get_str(v, path, "type")?,
        _ => return Err(invalid(path, "expected a string or a {\"type\": …} object")),
    };
    if valid.contains(&name) {
        Ok(name)
    } else {
        Err(unknown_name(&format!("{path}.type"), name, valid))
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses a [`ScenarioSpec`] from JSON text.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, SpecError> {
    scenario_from_json(&json::parse(text)?, "scenario")
}

/// Parses a [`ScenarioSpec`] from an already-parsed JSON value.
pub fn scenario_from_json(v: &Json, path: &str) -> Result<ScenarioSpec, SpecError> {
    check_fields(
        v,
        path,
        &[
            "name",
            "model",
            "hardware",
            "engine",
            "scheduler",
            "workload",
            "topology",
            "fault",
        ],
    )?;
    let d = ScenarioSpec::default();
    let model = match v.get("model") {
        None => d.model,
        Some(j) => {
            let name = j
                .as_str()
                .ok_or_else(|| invalid(&format!("{path}.model"), "expected a string"))?;
            canonical_name(name, MODEL_NAMES)
                .ok_or_else(|| unknown_name(&format!("{path}.model"), name, MODEL_NAMES))?
        }
    };
    let hardware = match v.get("hardware") {
        None => d.hardware,
        Some(j) => {
            let name = j
                .as_str()
                .ok_or_else(|| invalid(&format!("{path}.hardware"), "expected a string"))?;
            canonical_name(name, HARDWARE_NAMES)
                .ok_or_else(|| unknown_name(&format!("{path}.hardware"), name, HARDWARE_NAMES))?
        }
    };
    let spec = ScenarioSpec {
        name: match v.get("name") {
            None => d.name,
            Some(j) => j
                .as_str()
                .ok_or_else(|| invalid(&format!("{path}.name"), "expected a string"))?
                .to_string(),
        },
        model,
        hardware,
        engine: match v.get("engine") {
            None => EngineSpec::default(),
            Some(j) => engine_from_json(j, &format!("{path}.engine"))?,
        },
        scheduler: match v.get("scheduler") {
            None => SchedulerSpec::default(),
            Some(j) => scheduler_from_json(j, &format!("{path}.scheduler"))?,
        },
        workload: match v.get("workload") {
            None => WorkloadSpec::default(),
            Some(j) => workload_from_json(j, &format!("{path}.workload"))?,
        },
        topology: match v.get("topology") {
            None => TopologySpec::default(),
            Some(j) => topology_from_json(j, &format!("{path}.topology"))?,
        },
        fault: match v.get("fault") {
            None | Some(Json::Null) => None,
            Some(j) => Some(fault_from_json(j, &format!("{path}.fault"))?),
        },
    };
    check_fault_topology(&spec, path)?;
    Ok(spec)
}

/// Cross-field check: an elastic fleet's `bootstrap` must lie inside
/// `[control.min_replicas, control.max_replicas]`; a fault schedule needs
/// a multi-replica topology, and every replica index it names must lie
/// inside it (`replicas` for a fixed cluster, `control.max_replicas` for
/// an elastic fleet). `ScenarioSpec::build` re-runs this so
/// programmatically constructed specs hit the same typed error instead
/// of a run-time panic.
pub fn check_fault_topology(spec: &ScenarioSpec, path: &str) -> Result<(), SpecError> {
    if let TopologySpec::Autoscaled {
        bootstrap, control, ..
    } = &spec.topology
    {
        let (min, max) = (control.min_replicas, control.max_replicas);
        if !(min..=max).contains(bootstrap) {
            return Err(invalid(
                &format!("{path}.topology.bootstrap"),
                format!("bootstrap fleet of {bootstrap} is outside [min_replicas, max_replicas] = [{min}, {max}]"),
            ));
        }
    }
    let Some(fault) = &spec.fault else {
        return Ok(());
    };
    let bound = match &spec.topology {
        TopologySpec::Single => {
            return Err(invalid(
                &format!("{path}.fault"),
                "fault injection needs a cluster or autoscaled topology",
            ));
        }
        TopologySpec::Cluster { replicas, .. } => *replicas,
        TopologySpec::Autoscaled { control, .. } => control.max_replicas,
    };
    let check = |field: String, replica: u64| {
        if replica >= bound {
            Err(invalid(
                &field,
                format!(
                    "replica {replica} is outside the topology (valid replica indices: 0..{bound})"
                ),
            ))
        } else {
            Ok(())
        }
    };
    for (i, c) in fault.crashes.iter().enumerate() {
        check(format!("{path}.fault.crashes[{i}].replica"), c.replica)?;
    }
    for (i, w) in fault.stragglers.iter().enumerate() {
        check(format!("{path}.fault.stragglers[{i}].replica"), w.replica)?;
    }
    for (i, w) in fault.kv_link.iter().enumerate() {
        check(format!("{path}.fault.kv_link[{i}].replica"), w.replica)?;
    }
    for (i, &b) in fault.boot_failures.iter().enumerate() {
        check(format!("{path}.fault.boot_failures[{i}]"), b)?;
    }
    Ok(())
}

/// Case-insensitive lookup returning the canonical spelling.
fn canonical_name(name: &str, valid: &[&str]) -> Option<String> {
    valid
        .iter()
        .find(|v| v.eq_ignore_ascii_case(name))
        .map(|v| v.to_string())
}

/// Parses a [`SchedulerSpec`].
pub fn scheduler_from_json(v: &Json, path: &str) -> Result<SchedulerSpec, SpecError> {
    match type_tag(v, path, SCHEDULER_NAMES)? {
        "fcfs" => {
            if v.as_obj().is_some() {
                check_fields(v, path, &["type", "headroom"])?;
            }
            let headroom = match v.get("headroom") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.as_u64().ok_or_else(|| {
                    invalid(&format!("{path}.headroom"), "expected an integer or null")
                })?),
            };
            Ok(SchedulerSpec::Fcfs { headroom })
        }
        "chunked" => {
            if v.as_obj().is_some() {
                check_fields(v, path, &["type", "chunk"])?;
            }
            let chunk = get_u64(v, path, "chunk", 512)?;
            if chunk == 0 {
                return Err(invalid(&format!("{path}.chunk"), "must be positive"));
            }
            Ok(SchedulerSpec::Chunked { chunk })
        }
        "andes" => {
            if v.as_obj().is_some() {
                check_fields(v, path, &["type", "interval_ms"])?;
            }
            Ok(SchedulerSpec::Andes {
                interval_ms: get_millis(v, path, "interval_ms", 500)?,
            })
        }
        "tokenflow" => {
            if v.as_obj().is_some() {
                check_fields(
                    v,
                    path,
                    &[
                        "type",
                        "schedule_interval_ms",
                        "buffer_conservativeness",
                        "ws_adjust_rate",
                        "gamma",
                        "critical_buffer_secs",
                        "headroom_tokens",
                        "util_target",
                        "max_transitions",
                        "io_backpressure",
                        "capacity_safety",
                        "prefill_chunk",
                        "swap_candidates",
                    ],
                )?;
            }
            let d = TokenFlowSpec::default();
            Ok(SchedulerSpec::TokenFlow(TokenFlowSpec {
                schedule_interval_ms: get_millis(
                    v,
                    path,
                    "schedule_interval_ms",
                    d.schedule_interval_ms,
                )?,
                buffer_conservativeness: get_nonneg_f64(
                    v,
                    path,
                    "buffer_conservativeness",
                    d.buffer_conservativeness,
                )?,
                ws_adjust_rate: get_f64(v, path, "ws_adjust_rate", d.ws_adjust_rate)?,
                gamma: get_f64(v, path, "gamma", d.gamma)?,
                critical_buffer_secs: get_f64(
                    v,
                    path,
                    "critical_buffer_secs",
                    d.critical_buffer_secs,
                )?,
                headroom_tokens: get_u64(v, path, "headroom_tokens", d.headroom_tokens)?,
                util_target: get_f64(v, path, "util_target", d.util_target)?,
                max_transitions: get_u64(v, path, "max_transitions", d.max_transitions)?,
                io_backpressure: get_f64(v, path, "io_backpressure", d.io_backpressure)?,
                capacity_safety: get_f64(v, path, "capacity_safety", d.capacity_safety)?,
                prefill_chunk: get_u64(v, path, "prefill_chunk", d.prefill_chunk)?,
                swap_candidates: get_u64(v, path, "swap_candidates", d.swap_candidates)?,
            }))
        }
        _ => unreachable!("type_tag validated"),
    }
}

/// Parses a [`RouterSpec`] (a bare string or `{"type": …}`).
pub fn router_from_json(v: &Json, path: &str) -> Result<RouterSpec, SpecError> {
    Ok(match type_tag(v, path, ROUTER_NAMES)? {
        "round-robin" => RouterSpec::RoundRobin,
        "least-loaded" => RouterSpec::LeastLoaded,
        "backlog-aware" => RouterSpec::BacklogAware,
        "rate-aware" => RouterSpec::RateAware,
        _ => unreachable!("type_tag validated"),
    })
}

/// Parses a [`ScalePolicySpec`].
pub fn policy_from_json(v: &Json, path: &str) -> Result<ScalePolicySpec, SpecError> {
    match type_tag(v, path, SCALE_POLICY_NAMES)? {
        "reactive" => {
            if v.as_obj().is_some() {
                check_fields(
                    v,
                    path,
                    &[
                        "type",
                        "target_utilization",
                        "backlog_per_replica",
                        "kv_watermark",
                    ],
                )?;
            }
            Ok(ScalePolicySpec::Reactive {
                target_utilization: get_f64(v, path, "target_utilization", 0.60)?,
                backlog_per_replica: get_u64(v, path, "backlog_per_replica", 1_024)?,
                kv_watermark: get_f64(v, path, "kv_watermark", 0.50)?,
            })
        }
        "predictive-ewma" => {
            if v.as_obj().is_some() {
                check_fields(
                    v,
                    path,
                    &[
                        "type",
                        "tau_secs",
                        "target_utilization",
                        "backlog_per_replica",
                        "kv_watermark",
                    ],
                )?;
            }
            Ok(ScalePolicySpec::PredictiveEwma {
                tau_secs: get_f64(v, path, "tau_secs", 30.0)?,
                target_utilization: get_f64(v, path, "target_utilization", 0.60)?,
                backlog_per_replica: get_u64(v, path, "backlog_per_replica", 1_024)?,
                kv_watermark: get_f64(v, path, "kv_watermark", 0.50)?,
            })
        }
        "scripted" => {
            check_fields(v, path, &["type", "steps"])?;
            let steps_json = v
                .get("steps")
                .and_then(Json::as_arr)
                .ok_or_else(|| invalid(&format!("{path}.steps"), "expected an array"))?;
            let mut steps = Vec::with_capacity(steps_json.len());
            for (i, step) in steps_json.iter().enumerate() {
                let pair = step.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                    invalid(
                        &format!("{path}.steps[{i}]"),
                        "expected [at_secs, fleet_size]",
                    )
                })?;
                let at = match pair[0].as_f64() {
                    Some(at) if at.is_finite() && at >= 0.0 => at,
                    _ => {
                        return Err(invalid(
                            &format!("{path}.steps[{i}][0]"),
                            "expected a non-negative number",
                        ))
                    }
                };
                let fleet = pair[1].as_u64().ok_or_else(|| {
                    invalid(&format!("{path}.steps[{i}][1]"), "expected an integer")
                })?;
                steps.push((at, fleet));
            }
            Ok(ScalePolicySpec::Scripted { steps })
        }
        _ => unreachable!("type_tag validated"),
    }
}

/// Parses a [`ControlSpec`].
pub fn control_from_json(v: &Json, path: &str) -> Result<ControlSpec, SpecError> {
    check_fields(
        v,
        path,
        &[
            "min_replicas",
            "max_replicas",
            "boot_delay_secs",
            "cooldown_secs",
            "gamma",
            "control_tick_secs",
        ],
    )?;
    let d = ControlSpec::default();
    let spec = ControlSpec {
        min_replicas: get_u64(v, path, "min_replicas", d.min_replicas)?,
        max_replicas: get_u64(v, path, "max_replicas", d.max_replicas)?,
        boot_delay_secs: get_nonneg_f64(v, path, "boot_delay_secs", d.boot_delay_secs)?,
        cooldown_secs: get_nonneg_f64(v, path, "cooldown_secs", d.cooldown_secs)?,
        gamma: get_opt_f64(v, path, "gamma")?,
        control_tick_secs: get_opt_f64(v, path, "control_tick_secs")?,
    };
    if spec.min_replicas == 0 {
        return Err(invalid(&format!("{path}.min_replicas"), "must be ≥ 1"));
    }
    if spec.max_replicas < spec.min_replicas {
        return Err(invalid(
            &format!("{path}.max_replicas"),
            "must be ≥ min_replicas",
        ));
    }
    if spec.gamma.is_some_and(|g| g <= 0.0 || g.is_nan()) {
        return Err(invalid(&format!("{path}.gamma"), "must be positive"));
    }
    if spec.control_tick_secs.is_some_and(|t| t <= 0.0) {
        return Err(invalid(
            &format!("{path}.control_tick_secs"),
            "must be positive",
        ));
    }
    Ok(spec)
}

/// Parses an [`ExecutionSpec`]: a bare string (`"sequential"`,
/// `"auto"`, `"parallel"`), a `{"type": "parallel", "threads": n}`
/// object, or the nested shorthand `{"parallel": {"threads": n}}`.
/// Every form yields [`ExecutionSpec::Sequential`], the one executor;
/// the parallel forms are accepted so that older specs still parse, and
/// are still checked (`threads` ≥ 1, no unknown fields). Unknown
/// strategy names list the valid alternatives.
pub fn execution_from_json(v: &Json, path: &str) -> Result<ExecutionSpec, SpecError> {
    // The parallel forms' `threads`, checked though nothing reads it.
    let check_threads = |body: &Json, path: &str| {
        if get_u64(body, path, "threads", 4)? == 0 {
            return Err(invalid(&format!("{path}.threads"), "must be ≥ 1"));
        }
        Ok(())
    };
    // Nested shorthand: a single-key object whose key names the
    // strategy, e.g. {"parallel": {"threads": 8}}.
    if let Some(members) = v.as_obj() {
        if v.get("type").is_none() {
            let [(name, body)] = members else {
                return Err(invalid(
                    path,
                    "expected a strategy string, a {\"type\": …} object, \
                     or a single-key {\"parallel\": {…}} object",
                ));
            };
            if !EXECUTION_NAMES.contains(&name.as_str()) {
                return Err(unknown_name(path, name, EXECUTION_NAMES));
            }
            let inner = format!("{path}.{name}");
            if name == "parallel" {
                check_fields(body, &inner, &["threads"])?;
                check_threads(body, &inner)?;
            } else {
                check_fields(body, &inner, &[])?;
            }
            return Ok(ExecutionSpec::Sequential);
        }
    }
    match type_tag(v, path, EXECUTION_NAMES)? {
        "sequential" => {}
        "auto" => {
            if v.as_obj().is_some() {
                check_fields(v, path, &["type"])?;
            }
        }
        _ => {
            if v.as_obj().is_some() {
                check_fields(v, path, &["type", "threads"])?;
            }
            check_threads(v, path)?;
        }
    }
    Ok(ExecutionSpec::Sequential)
}

/// Parses a [`WorkloadSpec`].
pub fn workload_from_json(v: &Json, path: &str) -> Result<WorkloadSpec, SpecError> {
    match type_tag(v, path, WORKLOAD_TYPE_NAMES)? {
        "preset" => {
            check_fields(v, path, &["type", "name", "seed"])?;
            let name = get_str(v, path, "name")?;
            let Some(name) = canonical_name(name, PRESET_NAMES) else {
                return Err(unknown_name(&format!("{path}.name"), name, PRESET_NAMES));
            };
            Ok(WorkloadSpec::Preset {
                name,
                seed: get_u64(v, path, "seed", 42)?,
            })
        }
        "diurnal-flash-crowd" => {
            check_fields(
                v,
                path,
                &[
                    "type",
                    "peak_rate",
                    "duration_secs",
                    "crowd_size",
                    "crowd_at_secs",
                    "rate",
                    "seed",
                ],
            )?;
            let WorkloadSpec::DiurnalFlashCrowd {
                peak_rate,
                duration_secs,
                crowd_size,
                crowd_at_secs,
                rate,
                seed,
            } = WorkloadSpec::default()
            else {
                unreachable!("default is diurnal-flash-crowd");
            };
            Ok(WorkloadSpec::DiurnalFlashCrowd {
                peak_rate: get_pos_f64(v, path, "peak_rate", peak_rate)?,
                duration_secs: get_nonneg_f64(v, path, "duration_secs", duration_secs)?,
                crowd_size: get_u32_sized(v, path, "crowd_size", crowd_size)?,
                crowd_at_secs: get_nonneg_f64(v, path, "crowd_at_secs", crowd_at_secs)?,
                rate: match v.get("rate") {
                    None => rate,
                    Some(j) => rate_dist_from_json(j, &format!("{path}.rate"))?,
                },
                seed: get_u64(v, path, "seed", seed)?,
            })
        }
        "synthetic" => {
            check_fields(
                v,
                path,
                &["type", "arrivals", "prompt", "output", "rate", "seed"],
            )?;
            let arrivals = v
                .get("arrivals")
                .ok_or_else(|| invalid(&format!("{path}.arrivals"), "required for synthetic"))?;
            Ok(WorkloadSpec::Synthetic {
                arrivals: arrivals_from_json(arrivals, &format!("{path}.arrivals"))?,
                prompt: match v.get("prompt") {
                    None => LengthDistSpec::SharegptPrompt,
                    Some(j) => length_dist_from_json(j, &format!("{path}.prompt"))?,
                },
                output: match v.get("output") {
                    None => LengthDistSpec::SharegptOutput,
                    Some(j) => length_dist_from_json(j, &format!("{path}.output"))?,
                },
                rate: match v.get("rate") {
                    None => RateDistSpec::Fixed(tokenflow_workload::presets::DEFAULT_RATE),
                    Some(j) => rate_dist_from_json(j, &format!("{path}.rate"))?,
                },
                seed: get_u64(v, path, "seed", 42)?,
            })
        }
        "trace-csv" => {
            check_fields(v, path, &["type", "path"])?;
            Ok(WorkloadSpec::TraceCsv {
                path: get_str(v, path, "path")?.to_string(),
            })
        }
        "inline" => {
            check_fields(v, path, &["type", "requests"])?;
            let arr = v
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or_else(|| invalid(&format!("{path}.requests"), "expected an array"))?;
            let mut requests = Vec::with_capacity(arr.len());
            for (i, r) in arr.iter().enumerate() {
                let rpath = format!("{path}.requests[{i}]");
                check_fields(
                    r,
                    &rpath,
                    &["arrival_secs", "prompt_tokens", "output_tokens", "rate"],
                )?;
                requests.push(InlineRequest {
                    arrival_secs: get_nonneg_f64(r, &rpath, "arrival_secs", 0.0)?,
                    prompt_tokens: get_u64(r, &rpath, "prompt_tokens", 256)?,
                    output_tokens: match get_u64(r, &rpath, "output_tokens", 128)? {
                        0 => {
                            return Err(invalid(
                                &format!("{rpath}.output_tokens"),
                                "must be \u{2265} 1",
                            ))
                        }
                        n => n,
                    },
                    rate: get_pos_f64(
                        r,
                        &rpath,
                        "rate",
                        tokenflow_workload::presets::DEFAULT_RATE,
                    )?,
                });
            }
            Ok(WorkloadSpec::Inline { requests })
        }
        _ => unreachable!("type_tag validated"),
    }
}

fn arrivals_from_json(v: &Json, path: &str) -> Result<ArrivalSpecSpec, SpecError> {
    match type_tag(v, path, ARRIVAL_NAMES)? {
        "burst" => {
            check_fields(v, path, &["type", "size", "at_secs"])?;
            Ok(ArrivalSpecSpec::Burst {
                size: get_u32_sized(v, path, "size", 60)?,
                at_secs: get_nonneg_f64(v, path, "at_secs", 0.0)?,
            })
        }
        "poisson" => {
            check_fields(v, path, &["type", "rate", "duration_secs"])?;
            Ok(ArrivalSpecSpec::Poisson {
                rate: get_pos_f64(v, path, "rate", 2.0)?,
                duration_secs: get_nonneg_f64(v, path, "duration_secs", 60.0)?,
            })
        }
        "mmpp" => {
            check_fields(
                v,
                path,
                &[
                    "type",
                    "base_rate",
                    "burst_rate",
                    "mean_calm_secs",
                    "mean_burst_secs",
                    "duration_secs",
                ],
            )?;
            Ok(ArrivalSpecSpec::Mmpp {
                base_rate: get_pos_f64(v, path, "base_rate", 1.0)?,
                burst_rate: get_pos_f64(v, path, "burst_rate", 20.0)?,
                mean_calm_secs: get_pos_f64(v, path, "mean_calm_secs", 25.0)?,
                mean_burst_secs: get_pos_f64(v, path, "mean_burst_secs", 6.0)?,
                duration_secs: get_nonneg_f64(v, path, "duration_secs", 300.0)?,
            })
        }
        "diurnal" => {
            check_fields(
                v,
                path,
                &[
                    "type",
                    "trough_rate",
                    "peak_rate",
                    "period_secs",
                    "duration_secs",
                ],
            )?;
            let duration = get_nonneg_f64(v, path, "duration_secs", 600.0)?;
            Ok(ArrivalSpecSpec::Diurnal {
                trough_rate: get_nonneg_f64(v, path, "trough_rate", 0.5)?,
                peak_rate: get_pos_f64(v, path, "peak_rate", 5.0)?,
                period_secs: get_pos_f64(v, path, "period_secs", duration)?,
                duration_secs: duration,
            })
        }
        _ => unreachable!("type_tag validated"),
    }
}

fn length_dist_from_json(v: &Json, path: &str) -> Result<LengthDistSpec, SpecError> {
    match type_tag(v, path, LENGTH_DIST_NAMES)? {
        "fixed" => {
            check_fields(v, path, &["type", "tokens"])?;
            Ok(LengthDistSpec::Fixed(get_u64(v, path, "tokens", 256)?))
        }
        "normal" => {
            check_fields(v, path, &["type", "mean", "std", "min", "max"])?;
            let mean = get_f64(v, path, "mean", 512.0)?;
            Ok(LengthDistSpec::Normal {
                mean,
                std: get_f64(v, path, "std", mean / 4.0)?,
                min: get_u64(v, path, "min", 16)?,
                max: get_u64(v, path, "max", (mean * 4.0) as u64)?,
            })
        }
        "lognormal" => {
            check_fields(v, path, &["type", "mean", "std", "min", "max"])?;
            let mean = get_f64(v, path, "mean", 350.0)?;
            Ok(LengthDistSpec::LogNormal {
                mean,
                std: get_f64(v, path, "std", mean)?,
                min: get_u64(v, path, "min", 8)?,
                max: get_u64(v, path, "max", 8_192)?,
            })
        }
        "uniform" => {
            check_fields(v, path, &["type", "lo", "hi"])?;
            Ok(LengthDistSpec::Uniform {
                lo: get_u64(v, path, "lo", 16)?,
                hi: get_u64(v, path, "hi", 1_024)?,
            })
        }
        "sharegpt-prompt" => Ok(LengthDistSpec::SharegptPrompt),
        "sharegpt-output" => Ok(LengthDistSpec::SharegptOutput),
        _ => unreachable!("type_tag validated"),
    }
}

fn rate_dist_from_json(v: &Json, path: &str) -> Result<RateDistSpec, SpecError> {
    match type_tag(v, path, RATE_DIST_NAMES)? {
        "fixed" => {
            check_fields(v, path, &["type", "rate"])?;
            Ok(RateDistSpec::Fixed(get_pos_f64(
                v,
                path,
                "rate",
                tokenflow_workload::presets::DEFAULT_RATE,
            )?))
        }
        "uniform" => {
            check_fields(v, path, &["type", "lo", "hi"])?;
            let lo = get_pos_f64(v, path, "lo", 8.0)?;
            let hi = get_pos_f64(v, path, "hi", 24.0)?;
            if hi < lo {
                return Err(invalid(&format!("{path}.hi"), "must be \u{2265} lo"));
            }
            Ok(RateDistSpec::Uniform { lo, hi })
        }
        "mix" => {
            check_fields(v, path, &["type", "entries"])?;
            let arr = v
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or_else(|| invalid(&format!("{path}.entries"), "expected an array"))?;
            let mut entries = Vec::with_capacity(arr.len());
            for (i, e) in arr.iter().enumerate() {
                let pair = e.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                    invalid(&format!("{path}.entries[{i}]"), "expected [weight, rate]")
                })?;
                let w = match pair[0].as_f64() {
                    Some(w) if w.is_finite() && w > 0.0 => w,
                    _ => {
                        return Err(invalid(
                            &format!("{path}.entries[{i}][0]"),
                            "weight must be a positive number",
                        ))
                    }
                };
                let r = match pair[1].as_f64() {
                    Some(r) if r.is_finite() && r > 0.0 => r,
                    _ => {
                        return Err(invalid(
                            &format!("{path}.entries[{i}][1]"),
                            "rate must be a positive number",
                        ))
                    }
                };
                entries.push((w, r));
            }
            if entries.is_empty() {
                return Err(invalid(&format!("{path}.entries"), "must be non-empty"));
            }
            Ok(RateDistSpec::Mix(entries))
        }
        _ => unreachable!("type_tag validated"),
    }
}

fn engine_from_json(v: &Json, path: &str) -> Result<EngineSpec, SpecError> {
    check_fields(
        v,
        path,
        &[
            "max_batch",
            "mem_frac",
            "offload_enabled",
            "write_through",
            "load_evict_overlap",
            "max_prefill_tokens",
            "deadline_secs",
            "plan_horizon",
        ],
    )?;
    let d = EngineSpec::default();
    let spec = EngineSpec {
        max_batch: get_u32_sized(v, path, "max_batch", d.max_batch)?,
        mem_frac: get_f64(v, path, "mem_frac", d.mem_frac)?,
        offload_enabled: get_bool(v, path, "offload_enabled", d.offload_enabled)?,
        write_through: get_bool(v, path, "write_through", d.write_through)?,
        load_evict_overlap: get_bool(v, path, "load_evict_overlap", d.load_evict_overlap)?,
        max_prefill_tokens: get_u64(v, path, "max_prefill_tokens", d.max_prefill_tokens)?,
        deadline_secs: get_nonneg_f64(v, path, "deadline_secs", d.deadline_secs)?,
        plan_horizon: get_bool(v, path, "plan_horizon", d.plan_horizon)?,
    };
    if spec.max_batch == 0 {
        return Err(invalid(&format!("{path}.max_batch"), "must be ≥ 1"));
    }
    if !(spec.mem_frac > 0.0 && spec.mem_frac <= 1.0) {
        return Err(invalid(&format!("{path}.mem_frac"), "must be in (0, 1]"));
    }
    Ok(spec)
}

/// Parses a [`TopologySpec`].
pub fn topology_from_json(v: &Json, path: &str) -> Result<TopologySpec, SpecError> {
    match type_tag(v, path, TOPOLOGY_NAMES)? {
        "single" => Ok(TopologySpec::Single),
        "cluster" => {
            check_fields(v, path, &["type", "replicas", "router", "execution"])?;
            let replicas = get_u64(v, path, "replicas", 2)?;
            if replicas == 0 {
                return Err(invalid(&format!("{path}.replicas"), "must be ≥ 1"));
            }
            Ok(TopologySpec::Cluster {
                replicas,
                router: match v.get("router") {
                    None => RouterSpec::default(),
                    Some(j) => router_from_json(j, &format!("{path}.router"))?,
                },
                execution: match v.get("execution") {
                    None => ExecutionSpec::default(),
                    Some(j) => execution_from_json(j, &format!("{path}.execution"))?,
                },
            })
        }
        "autoscaled" => {
            check_fields(
                v,
                path,
                &[
                    "type",
                    "bootstrap",
                    "router",
                    "policy",
                    "control",
                    "execution",
                ],
            )?;
            let bootstrap = get_u64(v, path, "bootstrap", 1)?;
            if bootstrap == 0 {
                return Err(invalid(&format!("{path}.bootstrap"), "must be ≥ 1"));
            }
            Ok(TopologySpec::Autoscaled {
                bootstrap,
                router: match v.get("router") {
                    None => RouterSpec::default(),
                    Some(j) => router_from_json(j, &format!("{path}.router"))?,
                },
                policy: match v.get("policy") {
                    None => ScalePolicySpec::default(),
                    Some(j) => policy_from_json(j, &format!("{path}.policy"))?,
                },
                control: match v.get("control") {
                    None => ControlSpec::default(),
                    Some(j) => control_from_json(j, &format!("{path}.control"))?,
                },
                execution: match v.get("execution") {
                    None => ExecutionSpec::default(),
                    Some(j) => execution_from_json(j, &format!("{path}.execution"))?,
                },
            })
        }
        _ => unreachable!("type_tag validated"),
    }
}

/// Integer field that must be present (fault entries have no sensible
/// default replica or instant).
fn req_u64(v: &Json, path: &str, key: &str) -> Result<u64, SpecError> {
    if v.get(key).is_none() {
        return Err(invalid(&format!("{path}.{key}"), "required"));
    }
    get_u64(v, path, key, 0)
}

/// Non-negative number field that must be present.
fn req_nonneg_f64(v: &Json, path: &str, key: &str) -> Result<f64, SpecError> {
    if v.get(key).is_none() {
        return Err(invalid(&format!("{path}.{key}"), "required"));
    }
    get_nonneg_f64(v, path, key, 0.0)
}

fn window_fault_from_json(v: &Json, path: &str) -> Result<WindowFaultSpec, SpecError> {
    check_fields(v, path, &["replica", "from_secs", "until_secs", "factor"])?;
    let spec = WindowFaultSpec {
        replica: req_u64(v, path, "replica")?,
        from_secs: req_nonneg_f64(v, path, "from_secs")?,
        until_secs: req_nonneg_f64(v, path, "until_secs")?,
        factor: {
            if v.get("factor").is_none() {
                return Err(invalid(&format!("{path}.factor"), "required"));
            }
            get_f64(v, path, "factor", 1.0)?
        },
    };
    if spec.until_secs <= spec.from_secs {
        return Err(invalid(
            &format!("{path}.until_secs"),
            "must be greater than from_secs",
        ));
    }
    if !(spec.factor > 0.0 && spec.factor <= 1.0) {
        return Err(invalid(&format!("{path}.factor"), "must be in (0, 1]"));
    }
    Ok(spec)
}

fn fault_array<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a [Json], SpecError> {
    match v.get(key) {
        None => Ok(&[]),
        Some(j) => j
            .as_arr()
            .ok_or_else(|| invalid(&format!("{path}.{key}"), "expected an array")),
    }
}

/// Parses a [`FaultSpec`]. Field-level checks live here; the cross-field
/// replica-vs-topology check is [`check_fault_topology`].
pub fn fault_from_json(v: &Json, path: &str) -> Result<FaultSpec, SpecError> {
    check_fields(
        v,
        path,
        &[
            "crashes",
            "stragglers",
            "kv_link",
            "boot_failures",
            "retry",
            "shed_utilization",
        ],
    )?;
    let mut crashes = Vec::new();
    for (i, c) in fault_array(v, path, "crashes")?.iter().enumerate() {
        let cpath = format!("{path}.crashes[{i}]");
        check_fields(c, &cpath, &["replica", "at_secs"])?;
        crashes.push(CrashSpec {
            replica: req_u64(c, &cpath, "replica")?,
            at_secs: req_nonneg_f64(c, &cpath, "at_secs")?,
        });
    }
    let mut stragglers = Vec::new();
    for (i, w) in fault_array(v, path, "stragglers")?.iter().enumerate() {
        stragglers.push(window_fault_from_json(
            w,
            &format!("{path}.stragglers[{i}]"),
        )?);
    }
    let mut kv_link = Vec::new();
    for (i, w) in fault_array(v, path, "kv_link")?.iter().enumerate() {
        kv_link.push(window_fault_from_json(w, &format!("{path}.kv_link[{i}]"))?);
    }
    let mut boot_failures = Vec::new();
    for (i, b) in fault_array(v, path, "boot_failures")?.iter().enumerate() {
        boot_failures.push(b.as_u64().ok_or_else(|| {
            invalid(
                &format!("{path}.boot_failures[{i}]"),
                "expected a non-negative integer",
            )
        })?);
    }
    let retry = match v.get("retry") {
        None => RetrySpec::default(),
        Some(j) => {
            let rpath = format!("{path}.retry");
            check_fields(
                j,
                &rpath,
                &[
                    "max_attempts",
                    "base_backoff_ms",
                    "multiplier",
                    "max_backoff_ms",
                ],
            )?;
            let d = RetrySpec::default();
            let spec = RetrySpec {
                max_attempts: get_u32_sized(j, &rpath, "max_attempts", d.max_attempts)?,
                base_backoff_ms: get_millis(j, &rpath, "base_backoff_ms", d.base_backoff_ms)?,
                multiplier: get_f64(j, &rpath, "multiplier", d.multiplier)?,
                max_backoff_ms: get_millis(j, &rpath, "max_backoff_ms", d.max_backoff_ms)?,
            };
            if spec.multiplier < 1.0 {
                return Err(invalid(&format!("{rpath}.multiplier"), "must be ≥ 1"));
            }
            spec
        }
    };
    let shed_utilization = get_opt_f64(v, path, "shed_utilization")?;
    if shed_utilization.is_some_and(|u| u <= 0.0) {
        return Err(invalid(
            &format!("{path}.shed_utilization"),
            "must be positive",
        ));
    }
    Ok(FaultSpec {
        crashes,
        stragglers,
        kv_link,
        boot_failures,
        retry,
        shed_utilization,
    })
}

// ---------------------------------------------------------------------
// Emission (canonical: every field explicit, declaration order)
// ---------------------------------------------------------------------

/// Emits the canonical JSON for a [`ScenarioSpec`].
pub fn scenario_to_json(spec: &ScenarioSpec) -> Json {
    obj(vec![
        ("name", s(&spec.name)),
        ("model", s(&spec.model)),
        ("hardware", s(&spec.hardware)),
        ("engine", engine_to_json(&spec.engine)),
        ("scheduler", scheduler_to_json(&spec.scheduler)),
        ("workload", workload_to_json(&spec.workload)),
        ("topology", topology_to_json(&spec.topology)),
        (
            "fault",
            spec.fault.as_ref().map_or(Json::Null, fault_to_json),
        ),
    ])
}

fn window_fault_to_json(w: &WindowFaultSpec) -> Json {
    obj(vec![
        ("replica", ni(w.replica)),
        ("from_secs", n(w.from_secs)),
        ("until_secs", n(w.until_secs)),
        ("factor", n(w.factor)),
    ])
}

/// Emits the canonical JSON for a [`FaultSpec`].
pub fn fault_to_json(spec: &FaultSpec) -> Json {
    obj(vec![
        (
            "crashes",
            Json::Arr(
                spec.crashes
                    .iter()
                    .map(|c| obj(vec![("replica", ni(c.replica)), ("at_secs", n(c.at_secs))]))
                    .collect(),
            ),
        ),
        (
            "stragglers",
            Json::Arr(spec.stragglers.iter().map(window_fault_to_json).collect()),
        ),
        (
            "kv_link",
            Json::Arr(spec.kv_link.iter().map(window_fault_to_json).collect()),
        ),
        (
            "boot_failures",
            Json::Arr(spec.boot_failures.iter().copied().map(ni).collect()),
        ),
        (
            "retry",
            obj(vec![
                ("max_attempts", ni(spec.retry.max_attempts)),
                ("base_backoff_ms", ni(spec.retry.base_backoff_ms)),
                ("multiplier", n(spec.retry.multiplier)),
                ("max_backoff_ms", ni(spec.retry.max_backoff_ms)),
            ]),
        ),
        (
            "shed_utilization",
            spec.shed_utilization.map_or(Json::Null, n),
        ),
    ])
}

/// Emits the canonical JSON for a [`SchedulerSpec`].
pub fn scheduler_to_json(spec: &SchedulerSpec) -> Json {
    match spec {
        SchedulerSpec::Fcfs { headroom } => obj(vec![
            ("type", s("fcfs")),
            ("headroom", headroom.map_or(Json::Null, ni)),
        ]),
        SchedulerSpec::Chunked { chunk } => {
            obj(vec![("type", s("chunked")), ("chunk", ni(*chunk))])
        }
        SchedulerSpec::Andes { interval_ms } => obj(vec![
            ("type", s("andes")),
            ("interval_ms", ni(*interval_ms)),
        ]),
        SchedulerSpec::TokenFlow(t) => obj(vec![
            ("type", s("tokenflow")),
            ("schedule_interval_ms", ni(t.schedule_interval_ms)),
            ("buffer_conservativeness", n(t.buffer_conservativeness)),
            ("ws_adjust_rate", n(t.ws_adjust_rate)),
            ("gamma", n(t.gamma)),
            ("critical_buffer_secs", n(t.critical_buffer_secs)),
            ("headroom_tokens", ni(t.headroom_tokens)),
            ("util_target", n(t.util_target)),
            ("max_transitions", ni(t.max_transitions)),
            ("io_backpressure", n(t.io_backpressure)),
            ("capacity_safety", n(t.capacity_safety)),
            ("prefill_chunk", ni(t.prefill_chunk)),
            ("swap_candidates", ni(t.swap_candidates)),
        ]),
    }
}

/// Emits the canonical JSON for a [`RouterSpec`] (a bare string).
pub fn router_to_json(spec: &RouterSpec) -> Json {
    s(spec.type_name())
}

/// Emits the canonical JSON for a [`ScalePolicySpec`].
pub fn policy_to_json(spec: &ScalePolicySpec) -> Json {
    match spec {
        ScalePolicySpec::Reactive {
            target_utilization,
            backlog_per_replica,
            kv_watermark,
        } => obj(vec![
            ("type", s("reactive")),
            ("target_utilization", n(*target_utilization)),
            ("backlog_per_replica", ni(*backlog_per_replica)),
            ("kv_watermark", n(*kv_watermark)),
        ]),
        ScalePolicySpec::PredictiveEwma {
            tau_secs,
            target_utilization,
            backlog_per_replica,
            kv_watermark,
        } => obj(vec![
            ("type", s("predictive-ewma")),
            ("tau_secs", n(*tau_secs)),
            ("target_utilization", n(*target_utilization)),
            ("backlog_per_replica", ni(*backlog_per_replica)),
            ("kv_watermark", n(*kv_watermark)),
        ]),
        ScalePolicySpec::Scripted { steps } => obj(vec![
            ("type", s("scripted")),
            (
                "steps",
                Json::Arr(
                    steps
                        .iter()
                        .map(|&(at, fleet)| Json::Arr(vec![n(at), ni(fleet)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

fn control_to_json(spec: &ControlSpec) -> Json {
    obj(vec![
        ("min_replicas", ni(spec.min_replicas)),
        ("max_replicas", ni(spec.max_replicas)),
        ("boot_delay_secs", n(spec.boot_delay_secs)),
        ("cooldown_secs", n(spec.cooldown_secs)),
        ("gamma", spec.gamma.map_or(Json::Null, n)),
        (
            "control_tick_secs",
            spec.control_tick_secs.map_or(Json::Null, n),
        ),
    ])
}

fn execution_to_json(spec: &ExecutionSpec) -> Json {
    match spec {
        ExecutionSpec::Sequential => s("sequential"),
    }
}

/// Emits the canonical JSON for a [`WorkloadSpec`].
pub fn workload_to_json(spec: &WorkloadSpec) -> Json {
    match spec {
        WorkloadSpec::Preset { name, seed } => obj(vec![
            ("type", s("preset")),
            ("name", s(name)),
            ("seed", ni(*seed)),
        ]),
        WorkloadSpec::DiurnalFlashCrowd {
            peak_rate,
            duration_secs,
            crowd_size,
            crowd_at_secs,
            rate,
            seed,
        } => obj(vec![
            ("type", s("diurnal-flash-crowd")),
            ("peak_rate", n(*peak_rate)),
            ("duration_secs", n(*duration_secs)),
            ("crowd_size", ni(*crowd_size)),
            ("crowd_at_secs", n(*crowd_at_secs)),
            ("rate", rate_dist_to_json(rate)),
            ("seed", ni(*seed)),
        ]),
        WorkloadSpec::Synthetic {
            arrivals,
            prompt,
            output,
            rate,
            seed,
        } => obj(vec![
            ("type", s("synthetic")),
            ("arrivals", arrivals_to_json(arrivals)),
            ("prompt", length_dist_to_json(prompt)),
            ("output", length_dist_to_json(output)),
            ("rate", rate_dist_to_json(rate)),
            ("seed", ni(*seed)),
        ]),
        WorkloadSpec::TraceCsv { path } => obj(vec![("type", s("trace-csv")), ("path", s(path))]),
        WorkloadSpec::Inline { requests } => obj(vec![
            ("type", s("inline")),
            (
                "requests",
                Json::Arr(
                    requests
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("arrival_secs", n(r.arrival_secs)),
                                ("prompt_tokens", ni(r.prompt_tokens)),
                                ("output_tokens", ni(r.output_tokens)),
                                ("rate", n(r.rate)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn arrivals_to_json(spec: &ArrivalSpecSpec) -> Json {
    match spec {
        ArrivalSpecSpec::Burst { size, at_secs } => obj(vec![
            ("type", s("burst")),
            ("size", ni(*size)),
            ("at_secs", n(*at_secs)),
        ]),
        ArrivalSpecSpec::Poisson {
            rate,
            duration_secs,
        } => obj(vec![
            ("type", s("poisson")),
            ("rate", n(*rate)),
            ("duration_secs", n(*duration_secs)),
        ]),
        ArrivalSpecSpec::Mmpp {
            base_rate,
            burst_rate,
            mean_calm_secs,
            mean_burst_secs,
            duration_secs,
        } => obj(vec![
            ("type", s("mmpp")),
            ("base_rate", n(*base_rate)),
            ("burst_rate", n(*burst_rate)),
            ("mean_calm_secs", n(*mean_calm_secs)),
            ("mean_burst_secs", n(*mean_burst_secs)),
            ("duration_secs", n(*duration_secs)),
        ]),
        ArrivalSpecSpec::Diurnal {
            trough_rate,
            peak_rate,
            period_secs,
            duration_secs,
        } => obj(vec![
            ("type", s("diurnal")),
            ("trough_rate", n(*trough_rate)),
            ("peak_rate", n(*peak_rate)),
            ("period_secs", n(*period_secs)),
            ("duration_secs", n(*duration_secs)),
        ]),
    }
}

fn length_dist_to_json(spec: &LengthDistSpec) -> Json {
    match spec {
        LengthDistSpec::Fixed(tokens) => obj(vec![("type", s("fixed")), ("tokens", ni(*tokens))]),
        LengthDistSpec::Normal {
            mean,
            std,
            min,
            max,
        } => obj(vec![
            ("type", s("normal")),
            ("mean", n(*mean)),
            ("std", n(*std)),
            ("min", ni(*min)),
            ("max", ni(*max)),
        ]),
        LengthDistSpec::LogNormal {
            mean,
            std,
            min,
            max,
        } => obj(vec![
            ("type", s("lognormal")),
            ("mean", n(*mean)),
            ("std", n(*std)),
            ("min", ni(*min)),
            ("max", ni(*max)),
        ]),
        LengthDistSpec::Uniform { lo, hi } => obj(vec![
            ("type", s("uniform")),
            ("lo", ni(*lo)),
            ("hi", ni(*hi)),
        ]),
        LengthDistSpec::SharegptPrompt => s("sharegpt-prompt"),
        LengthDistSpec::SharegptOutput => s("sharegpt-output"),
    }
}

fn rate_dist_to_json(spec: &RateDistSpec) -> Json {
    match spec {
        RateDistSpec::Fixed(rate) => obj(vec![("type", s("fixed")), ("rate", n(*rate))]),
        RateDistSpec::Uniform { lo, hi } => {
            obj(vec![("type", s("uniform")), ("lo", n(*lo)), ("hi", n(*hi))])
        }
        RateDistSpec::Mix(entries) => obj(vec![
            ("type", s("mix")),
            (
                "entries",
                Json::Arr(
                    entries
                        .iter()
                        .map(|&(w, r)| Json::Arr(vec![n(w), n(r)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

fn engine_to_json(spec: &EngineSpec) -> Json {
    obj(vec![
        ("max_batch", ni(spec.max_batch)),
        ("mem_frac", n(spec.mem_frac)),
        ("offload_enabled", Json::Bool(spec.offload_enabled)),
        ("write_through", Json::Bool(spec.write_through)),
        ("load_evict_overlap", Json::Bool(spec.load_evict_overlap)),
        ("max_prefill_tokens", ni(spec.max_prefill_tokens)),
        ("deadline_secs", n(spec.deadline_secs)),
        ("plan_horizon", Json::Bool(spec.plan_horizon)),
    ])
}

/// Emits the canonical JSON for a [`TopologySpec`].
pub fn topology_to_json(spec: &TopologySpec) -> Json {
    match spec {
        TopologySpec::Single => s("single"),
        TopologySpec::Cluster {
            replicas,
            router,
            execution,
        } => obj(vec![
            ("type", s("cluster")),
            ("replicas", ni(*replicas)),
            ("router", router_to_json(router)),
            ("execution", execution_to_json(execution)),
        ]),
        TopologySpec::Autoscaled {
            bootstrap,
            router,
            policy,
            control,
            execution,
        } => obj(vec![
            ("type", s("autoscaled")),
            ("bootstrap", ni(*bootstrap)),
            ("router", router_to_json(router)),
            ("policy", policy_to_json(policy)),
            ("control", control_to_json(control)),
            ("execution", execution_to_json(execution)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document_takes_defaults() {
        let spec = parse_scenario("{}").unwrap();
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn unknown_scheduler_lists_valid_names() {
        let err = parse_scenario(r#"{"scheduler": {"type": "lottery"}}"#).unwrap_err();
        match err {
            SpecError::UnknownName { field, got, valid } => {
                assert_eq!(field, "scenario.scheduler.type");
                assert_eq!(got, "lottery");
                assert_eq!(valid, SCHEDULER_NAMES.to_vec());
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
    }

    #[test]
    fn unknown_field_is_a_typo_guard() {
        let err = parse_scenario(r#"{"scheduler": {"type": "fcfs", "headrom": 5}}"#).unwrap_err();
        assert!(matches!(err, SpecError::UnknownField { ref field, .. }
            if field == "scenario.scheduler.headrom"));
    }

    #[test]
    fn default_roundtrips_canonically() {
        let spec = ScenarioSpec::default();
        let text = scenario_to_json(&spec).emit();
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(scenario_to_json(&parsed).emit(), text);
    }

    #[test]
    fn fault_replica_outside_cluster_names_the_valid_range() {
        let err = parse_scenario(
            r#"{"topology": {"type": "cluster", "replicas": 2},
                "fault": {"crashes": [{"replica": 5, "at_secs": 10}]}}"#,
        )
        .unwrap_err();
        match err {
            SpecError::Invalid { field, msg } => {
                assert_eq!(field, "scenario.fault.crashes[0].replica");
                assert!(msg.contains("replica 5"), "{msg}");
                assert!(msg.contains("0..2"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn fault_replica_bound_is_max_replicas_for_elastic_fleets() {
        // Inside the ceiling but above the bootstrap size: valid — the
        // fleet can grow to meet it.
        let ok = parse_scenario(
            r#"{"topology": {"type": "autoscaled", "bootstrap": 1,
                            "control": {"max_replicas": 8}},
                "fault": {"stragglers": [{"replica": 6, "from_secs": 1,
                                          "until_secs": 2, "factor": 0.5}]}}"#,
        );
        assert!(ok.is_ok(), "{ok:?}");
        let err = parse_scenario(
            r#"{"topology": {"type": "autoscaled", "bootstrap": 1,
                            "control": {"max_replicas": 8}},
                "fault": {"boot_failures": [8]}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, ref msg }
            if field == "scenario.fault.boot_failures[0]" && msg.contains("0..8")));
    }

    #[test]
    fn bootstrap_outside_the_fleet_bounds_is_rejected() {
        for (topology, range) in [
            (
                r#"{"type": "autoscaled", "bootstrap": 5,
                    "control": {"min_replicas": 1, "max_replicas": 2}}"#,
                "[1, 2]",
            ),
            (
                r#"{"type": "autoscaled", "bootstrap": 1,
                    "control": {"min_replicas": 2}}"#,
                "[2, 64]",
            ),
        ] {
            let err = parse_scenario(&format!(r#"{{"topology": {topology}}}"#)).unwrap_err();
            assert!(
                matches!(err, SpecError::Invalid { ref field, ref msg }
                    if field == "scenario.topology.bootstrap" && msg.contains(range)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn fault_on_single_topology_is_rejected() {
        let err = parse_scenario(r#"{"fault": {}}"#).unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, ref msg }
            if field == "scenario.fault"
            && msg.contains("cluster or autoscaled")));
    }

    #[test]
    fn null_fault_means_fault_free() {
        let spec = parse_scenario(r#"{"fault": null}"#).unwrap();
        assert_eq!(spec.fault, None);
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn fault_spec_roundtrips_canonically() {
        let spec = parse_scenario(
            r#"{"topology": {"type": "cluster", "replicas": 3},
                "fault": {"crashes": [{"replica": 2, "at_secs": 35}],
                          "stragglers": [{"replica": 1, "from_secs": 30,
                                          "until_secs": 45, "factor": 0.5}],
                          "shed_utilization": 4.0}}"#,
        )
        .unwrap();
        let fault = spec.fault.as_ref().unwrap();
        assert_eq!(fault.retry, RetrySpec::default());
        assert_eq!(fault.max_replica(), Some(2));
        let text = scenario_to_json(&spec).emit();
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(scenario_to_json(&parsed).emit(), text);
    }

    #[test]
    fn window_fault_field_checks() {
        let base = |body: &str| {
            format!(
                r#"{{"topology": {{"type": "cluster", "replicas": 4}},
                    "fault": {{"kv_link": [{body}]}}}}"#
            )
        };
        let err = parse_scenario(&base(
            r#"{"replica": 0, "from_secs": 5, "until_secs": 5, "factor": 0.5}"#,
        ))
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref msg, .. }
            if msg.contains("greater than from_secs")));
        let err = parse_scenario(&base(
            r#"{"replica": 0, "from_secs": 1, "until_secs": 2, "factor": 1.5}"#,
        ))
        .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref msg, .. }
            if msg.contains("(0, 1]")));
        let err = parse_scenario(&base(r#"{"replica": 0, "from_secs": 1, "until_secs": 2}"#))
            .unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, .. }
            if field.ends_with(".factor")));
    }

    #[test]
    fn seeds_an_f64_cannot_hold_exactly_are_rejected() {
        let spec = |seed: &str| {
            parse_scenario(&format!(
                r#"{{"workload": {{"type": "diurnal-flash-crowd", "seed": {seed}}}}}"#
            ))
        };
        assert!(spec("9007199254740991").is_ok());
        // 2^53 + 1 would otherwise run as seed 2^53; 2^64 as u64::MAX.
        for seed in ["9007199254740993", "18446744073709551616"] {
            let err = spec(seed).unwrap_err();
            assert!(
                matches!(err, SpecError::Invalid { ref field, ref msg }
                    if field == "scenario.workload.seed"
                    && msg.contains("non-negative integer")),
                "{seed}: {err:?}"
            );
        }
    }

    #[test]
    fn model_and_hardware_names_are_case_insensitive() {
        let spec = parse_scenario(r#"{"model": "llama3-8b", "hardware": "h200"}"#).unwrap();
        assert_eq!(spec.model, "Llama3-8B");
        assert_eq!(spec.hardware, "H200");
        let err = parse_scenario(r#"{"hardware": "tpu-v9"}"#).unwrap_err();
        assert!(matches!(err, SpecError::UnknownName { .. }), "{err:?}");
    }
}
