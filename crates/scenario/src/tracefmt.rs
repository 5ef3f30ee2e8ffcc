//! Rendering decision journals: canonical JSONL, Perfetto (Chrome
//! trace-event) JSON, and causal per-request explanations.
//!
//! The JSONL form is the journal's canonical serialization: one compact
//! JSON object per event, in merge order, emitted through the same
//! canonical [`json`] emitter the report uses — so two runs produce
//! byte-identical files exactly when their journals are equal, and the
//! trace digest (FNV-1a over the canonical, meta-filtered lines) is
//! golden-pinnable the same way report digests are.
//!
//! The Perfetto form renders the same journal for `chrome://tracing` /
//! [ui.perfetto.dev](https://ui.perfetto.dev): one process track per
//! replica (plus control-plane and coordinator tracks), one thread lane
//! per request carrying its phase slices, and flow arrows stitching
//! dispatch → arrival and preemption → resumption across lanes.
//!
//! [`explain`] reconstructs one request's causal timeline and attributes
//! every microsecond between arrival and first token (and through to
//! completion) to a wait phase — the sums reproduce TTFT and latency
//! *exactly* because phases are contiguous integer-microsecond segments
//! cut at the journal's own event boundaries.

use tokenflow_metrics::fnv1a64;
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{TraceEvent, TraceEventKind, TraceJournal, TraceSource};

use crate::json::{n, ni, obj, s, Json};

/// Renders one event as its canonical JSON object: the `(t_us, src,
/// seq, kind)` envelope followed by the kind's payload fields.
pub fn event_json(e: &TraceEvent) -> Json {
    event_json_inner(e, true)
}

fn event_json_inner(e: &TraceEvent, with_seq: bool) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("t_us".to_string(), ni(e.time.as_micros())),
        ("src".to_string(), Json::Str(e.source.label())),
        ("seq".to_string(), ni(e.seq)),
        ("kind".to_string(), s(e.kind.name())),
    ];
    if !with_seq {
        // Meta events (horizon arm/end) consume sequence numbers from
        // the same per-source counter as decisions, so canonical seq
        // *values* shift with the fast path even though the canonical
        // *order* does not. The digestable rendering drops them.
        members.remove(2);
    }
    let id = |v: RequestId| ni(v.0);
    match &e.kind {
        TraceEventKind::Arrived { id: r, arrival } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("arrival_us".to_string(), ni(arrival.as_micros())));
        }
        TraceEventKind::Dispatch {
            id: r,
            replica,
            scores,
        } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("replica".to_string(), ni(u64::from(*replica))));
            members.push((
                "scores".to_string(),
                Json::Arr(scores.iter().map(|&v| n(v)).collect()),
            ));
        }
        TraceEventKind::Admitted {
            id: r,
            recompute,
            queued_behind_tokens,
        } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("recompute".to_string(), Json::Bool(*recompute)));
            members.push((
                "queued_behind_tokens".to_string(),
                ni(*queued_behind_tokens),
            ));
        }
        TraceEventKind::PrefillChunk {
            id: r,
            tokens,
            completes,
        } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("tokens".to_string(), ni(*tokens)));
            members.push(("completes".to_string(), Json::Bool(*completes)));
        }
        TraceEventKind::FirstToken { id: r }
        | TraceEventKind::Finished { id: r }
        | TraceEventKind::Shed { id: r }
        | TraceEventKind::Resumed { id: r }
        | TraceEventKind::EvictDone { id: r }
        | TraceEventKind::LoadDone { id: r } => {
            members.push(("id".to_string(), id(*r)));
        }
        TraceEventKind::Preempted {
            id: r,
            discard,
            cause,
        } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("discard".to_string(), Json::Bool(*discard)));
            members.push(("cause".to_string(), s(cause.label())));
        }
        TraceEventKind::DecodeGate { id: r, paused } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("paused".to_string(), Json::Bool(*paused)));
        }
        TraceEventKind::EvictStart { id: r, tokens }
        | TraceEventKind::LoadStart { id: r, tokens } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("tokens".to_string(), ni(*tokens)));
        }
        TraceEventKind::Reprice {
            id: r,
            before,
            after,
        } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("before".to_string(), n(*before)));
            members.push(("after".to_string(), n(*after)));
        }
        TraceEventKind::Swap {
            evicted,
            admitted,
            evicted_priority,
            admitted_priority,
        } => {
            members.push(("evicted".to_string(), id(*evicted)));
            members.push(("admitted".to_string(), id(*admitted)));
            members.push(("evicted_priority".to_string(), n(*evicted_priority)));
            members.push(("admitted_priority".to_string(), n(*admitted_priority)));
        }
        TraceEventKind::Scale {
            delta,
            applied,
            active,
            terms,
        } => {
            members.push(("delta".to_string(), n(*delta as f64)));
            members.push(("applied".to_string(), Json::Bool(*applied)));
            members.push(("active".to_string(), ni(*active)));
            members.push((
                "terms".to_string(),
                Json::Obj(
                    terms
                        .iter()
                        .map(|&(name, v)| (name.to_string(), n(v)))
                        .collect(),
                ),
            ));
        }
        TraceEventKind::HorizonArmed {
            valid_until,
            gates_static,
        } => {
            // `SimTime::MAX` encodes an unbounded certificate.
            let until = if *valid_until == SimTime::MAX {
                Json::Null
            } else {
                ni(valid_until.as_micros())
            };
            members.push(("valid_until_us".to_string(), until));
            members.push(("gates_static".to_string(), Json::Bool(*gates_static)));
        }
        TraceEventKind::HorizonEnded { reason } => {
            members.push(("reason".to_string(), s(reason.label())));
        }
        TraceEventKind::ReplicaCrashed { replica, lost } => {
            members.push(("replica".to_string(), ni(u64::from(*replica))));
            members.push(("lost".to_string(), ni(*lost)));
        }
        TraceEventKind::ReplicaDegraded { replica, factor }
        | TraceEventKind::LinkDegraded { replica, factor } => {
            members.push(("replica".to_string(), ni(u64::from(*replica))));
            members.push(("factor".to_string(), n(*factor)));
        }
        TraceEventKind::BootFailed { replica } => {
            members.push(("replica".to_string(), ni(u64::from(*replica))));
        }
        TraceEventKind::RequestLost { id: r, replica } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("replica".to_string(), ni(u64::from(*replica))));
        }
        TraceEventKind::RetryScheduled { id: r, attempt } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("attempt".to_string(), ni(u64::from(*attempt))));
        }
        TraceEventKind::RequestAbandoned { id: r, attempts } => {
            members.push(("id".to_string(), id(*r)));
            members.push(("attempts".to_string(), ni(u64::from(*attempts))));
        }
        TraceEventKind::AdmissionShed { id: r } => {
            members.push(("id".to_string(), id(*r)));
        }
    }
    Json::Obj(members)
}

/// The full journal as JSONL: one canonical JSON object per line (meta
/// events included), trailing newline.
pub fn trace_jsonl(journal: &TraceJournal) -> String {
    let mut out = String::new();
    for e in &journal.events {
        out.push_str(&event_json(e).emit());
        out.push('\n');
    }
    out
}

/// The canonical (meta-filtered, seq-stripped) journal as JSONL — the
/// view that is invariant under the plan-horizon fast path, and the bytes [`trace_digest`] is taken over. Sequence
/// numbers are dropped because meta events share the per-source
/// counter; the line *order* still carries the total `(time, source,
/// seq)` merge order.
pub fn canonical_trace_jsonl(journal: &TraceJournal) -> String {
    let mut out = String::new();
    for e in journal.canonical() {
        out.push_str(&event_json_inner(e, false).emit());
        out.push('\n');
    }
    out
}

/// FNV-1a digest of the canonical JSONL bytes — the golden-pinnable
/// fingerprint of a run's decision record.
pub fn trace_digest(journal: &TraceJournal) -> u64 {
    fnv1a64(canonical_trace_jsonl(journal).as_bytes())
}

/// Payload fields the validator requires per kind name; `None` for an
/// unknown kind.
fn required_keys(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "arrived" => &["id", "arrival_us"],
        "dispatch" => &["id", "replica", "scores"],
        "admitted" => &["id", "recompute", "queued_behind_tokens"],
        "prefill_chunk" => &["id", "tokens", "completes"],
        "first_token" | "finished" | "shed" | "resumed" | "evict_done" | "load_done" => &["id"],
        "preempted" => &["id", "discard", "cause"],
        "decode_gate" => &["id", "paused"],
        "evict_start" | "load_start" => &["id", "tokens"],
        "reprice" => &["id", "before", "after"],
        "swap" => &[
            "evicted",
            "admitted",
            "evicted_priority",
            "admitted_priority",
        ],
        "scale" => &["delta", "applied", "active", "terms"],
        "horizon_armed" => &["valid_until_us", "gates_static"],
        "horizon_ended" => &["reason"],
        "replica_crashed" => &["replica", "lost"],
        "replica_degraded" | "link_degraded" => &["replica", "factor"],
        "boot_failed" => &["replica"],
        "request_lost" => &["id", "replica"],
        "retry_scheduled" => &["id", "attempt"],
        "request_abandoned" => &["id", "attempts"],
        "admission_shed" => &["id"],
        _ => return None,
    })
}

/// Validates a JSONL trace file: every non-empty line must parse as a
/// JSON object carrying the `(t_us, src, seq, kind)` envelope, a known
/// kind name, that kind's payload fields, and non-decreasing `t_us`.
/// Returns the event count.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_t = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = crate::json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        for key in ["t_us", "src", "seq", "kind"] {
            if v.get(key).is_none() {
                return Err(format!("line {lineno}: missing \"{key}\""));
            }
        }
        let t = v
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: \"t_us\" is not an integer"))?;
        if t < last_t {
            return Err(format!(
                "line {lineno}: time goes backwards ({t} < {last_t})"
            ));
        }
        last_t = t;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: \"kind\" is not a string"))?;
        let required =
            required_keys(kind).ok_or_else(|| format!("line {lineno}: unknown kind \"{kind}\""))?;
        for key in required {
            if v.get(key).is_none() {
                return Err(format!("line {lineno}: kind \"{kind}\" missing \"{key}\""));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// One contiguous wait/progress segment of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// What the request was doing (or waiting on): `queued`, `prefill`,
    /// `decode`, `gated`, `preempted`, or `reloading`.
    pub label: &'static str,
    /// Segment start (inclusive).
    pub from: SimTime,
    /// Segment end (exclusive).
    pub to: SimTime,
}

impl Phase {
    /// Segment length in integer microseconds.
    pub fn micros(&self) -> u64 {
        self.to.as_micros() - self.from.as_micros()
    }
}

/// One request's causal story, reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline {
    /// The request (journal id space: submission order).
    pub id: RequestId,
    /// The replica that served it, when the journal records one.
    pub replica: Option<u32>,
    /// Workload arrival instant (from the `arrived` payload).
    pub arrival: SimTime,
    /// First-token instant, if reached.
    pub first_token_at: Option<SimTime>,
    /// Completion instant, if reached.
    pub finished_at: Option<SimTime>,
    /// True when the request was shed.
    pub shed: bool,
    /// Every event mentioning the request, in journal order.
    pub events: Vec<TraceEvent>,
    /// Contiguous phases from arrival to the last state change. Summing
    /// the phases that end at or before `first_token_at` reproduces
    /// TTFT exactly; summing all phases reproduces latency exactly.
    pub phases: Vec<Phase>,
}

impl RequestTimeline {
    /// Per-label wait totals (micros) over phases inside `[arrival,
    /// until]`, in first-appearance order. Their sum is exactly
    /// `until - arrival`.
    pub fn attribution(&self, until: SimTime) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for p in &self.phases {
            if p.from >= until {
                break;
            }
            let end = p.to.min(until);
            let micros = end.as_micros() - p.from.as_micros();
            if micros == 0 {
                continue;
            }
            match totals.iter_mut().find(|(l, _)| *l == p.label) {
                Some((_, total)) => *total += micros,
                None => totals.push((p.label, micros)),
            }
        }
        totals
    }

    /// Per-label totals up to first token; `None` before first token.
    pub fn ttft_attribution(&self) -> Option<Vec<(&'static str, u64)>> {
        self.first_token_at.map(|t| self.attribution(t))
    }
}

/// Reconstructs `id`'s timeline from the journal, or `None` when the
/// journal never mentions it.
pub fn request_timeline(journal: &TraceJournal, id: RequestId) -> Option<RequestTimeline> {
    let events: Vec<TraceEvent> = journal.for_request(id).cloned().collect();
    let arrival = events.iter().find_map(|e| match e.kind {
        TraceEventKind::Arrived { arrival, .. } => Some(arrival),
        TraceEventKind::Dispatch { .. } => Some(e.time),
        _ => None,
    })?;
    let replica = events.iter().find_map(|e| match (e.source, &e.kind) {
        (_, TraceEventKind::Dispatch { replica, .. }) => Some(*replica),
        (TraceSource::Replica(i), _) => Some(i),
        _ => None,
    });
    let mut timeline = RequestTimeline {
        id,
        replica,
        arrival,
        first_token_at: None,
        finished_at: None,
        shed: false,
        events,
        phases: Vec::new(),
    };
    // Walk the event sequence as a state machine, cutting a phase at
    // every state change. Events are already in time order.
    let mut label = "queued";
    let mut start = arrival;
    let change = |phases: &mut Vec<Phase>,
                  label: &mut &'static str,
                  start: &mut SimTime,
                  next: &'static str,
                  at: SimTime| {
        if at > *start {
            phases.push(Phase {
                label,
                from: *start,
                to: at,
            });
            *start = at;
        }
        *label = next;
    };
    let events = std::mem::take(&mut timeline.events);
    for e in &events {
        let at = e.time;
        match &e.kind {
            TraceEventKind::Admitted { .. } => {
                change(&mut timeline.phases, &mut label, &mut start, "prefill", at);
            }
            TraceEventKind::FirstToken { .. } => {
                change(&mut timeline.phases, &mut label, &mut start, "decode", at);
                timeline.first_token_at = Some(at);
            }
            TraceEventKind::Preempted { .. } => {
                change(
                    &mut timeline.phases,
                    &mut label,
                    &mut start,
                    "preempted",
                    at,
                );
            }
            TraceEventKind::Resumed { .. } => {
                change(
                    &mut timeline.phases,
                    &mut label,
                    &mut start,
                    "reloading",
                    at,
                );
            }
            TraceEventKind::LoadDone { .. } => {
                let next = if timeline.first_token_at.is_some() {
                    "decode"
                } else {
                    "prefill"
                };
                change(&mut timeline.phases, &mut label, &mut start, next, at);
            }
            TraceEventKind::DecodeGate { paused, .. } => {
                let next = if *paused { "gated" } else { "decode" };
                change(&mut timeline.phases, &mut label, &mut start, next, at);
            }
            TraceEventKind::Finished { .. } => {
                change(&mut timeline.phases, &mut label, &mut start, "done", at);
                timeline.finished_at = Some(at);
            }
            TraceEventKind::Shed { .. } => {
                change(&mut timeline.phases, &mut label, &mut start, "shed", at);
                timeline.shed = true;
            }
            // Transfer progress and scheduler pricing don't change what
            // the request is waiting on; swaps are covered by the
            // preempt/admit events they cause.
            _ => {}
        }
    }
    timeline.events = events;
    Some(timeline)
}

fn secs(t: SimTime) -> String {
    format!("{:.6}s", t.as_micros() as f64 / 1e6)
}

fn dur_secs(micros: u64) -> String {
    format!("{:.6}s", micros as f64 / 1e6)
}

/// One human-readable line per journal event.
fn describe(e: &TraceEvent) -> String {
    let what = match &e.kind {
        TraceEventKind::Arrived { arrival, .. } => {
            format!("arrived (spec arrival {})", secs(*arrival))
        }
        TraceEventKind::Dispatch {
            replica, scores, ..
        } => {
            if scores.is_empty() {
                format!("dispatched to replica {replica}")
            } else {
                let scores: Vec<String> = scores.iter().map(|v| format!("{v:.3}")).collect();
                format!(
                    "dispatched to replica {replica} (scores [{}])",
                    scores.join(", ")
                )
            }
        }
        TraceEventKind::Admitted {
            recompute,
            queued_behind_tokens,
            ..
        } => format!(
            "admitted{} behind {queued_behind_tokens} queued prefill tokens",
            if *recompute { " (recompute)" } else { "" }
        ),
        TraceEventKind::PrefillChunk {
            tokens, completes, ..
        } => format!(
            "prefilled {tokens} tokens{}",
            if *completes {
                " (prefill complete)"
            } else {
                ""
            }
        ),
        TraceEventKind::FirstToken { .. } => "first token".to_string(),
        TraceEventKind::Finished { .. } => "finished".to_string(),
        TraceEventKind::Preempted { discard, cause, .. } => format!(
            "preempted ({}, {})",
            if *discard { "discarded" } else { "offloaded" },
            cause.label()
        ),
        TraceEventKind::Shed { .. } => "shed (admission gave up under memory pressure)".to_string(),
        TraceEventKind::Resumed { .. } => "resumed".to_string(),
        TraceEventKind::DecodeGate { paused, .. } => {
            if *paused {
                "decode gated (scheduler paused streaming)".to_string()
            } else {
                "decode gate released".to_string()
            }
        }
        TraceEventKind::EvictStart { tokens, .. } => {
            format!("evicting {tokens} KV tokens to host")
        }
        TraceEventKind::EvictDone { .. } => "eviction complete".to_string(),
        TraceEventKind::LoadStart { tokens, .. } => {
            format!("loading {tokens} KV tokens back to GPU")
        }
        TraceEventKind::LoadDone { .. } => "load complete".to_string(),
        TraceEventKind::Reprice { before, after, .. } => {
            format!("repriced {before:.4} -> {after:.4}")
        }
        TraceEventKind::Swap {
            evicted, admitted, ..
        } => format!("swap: {evicted} out, {admitted} in"),
        TraceEventKind::ReplicaCrashed { replica, lost } => {
            format!("replica {replica} crashed ({lost} in-flight requests lost)")
        }
        TraceEventKind::ReplicaDegraded { replica, factor } => {
            if (*factor - 1.0).abs() < f64::EPSILON {
                format!("replica {replica} recovered full compute throughput")
            } else {
                format!("replica {replica} degraded to {factor:.2}x compute throughput")
            }
        }
        TraceEventKind::BootFailed { replica } => {
            format!("replica {replica} failed to boot")
        }
        TraceEventKind::LinkDegraded { replica, factor } => {
            if (*factor - 1.0).abs() < f64::EPSILON {
                format!("replica {replica} KV link restored")
            } else {
                format!("replica {replica} KV link degraded to {factor:.2}x bandwidth")
            }
        }
        TraceEventKind::RequestLost { replica, .. } => {
            format!("lost to replica {replica} crash")
        }
        TraceEventKind::RetryScheduled { attempt, .. } => {
            format!("retry scheduled (attempt {attempt})")
        }
        TraceEventKind::RequestAbandoned { attempts, .. } => {
            format!("abandoned after {attempts} lost attempts")
        }
        TraceEventKind::AdmissionShed { .. } => {
            "shed at the dispatch barrier (cluster overload)".to_string()
        }
        TraceEventKind::Scale { .. }
        | TraceEventKind::HorizonArmed { .. }
        | TraceEventKind::HorizonEnded { .. } => e.kind.name().to_string(),
    };
    format!("  {:>12}  [{}] {}", secs(e.time), e.source.label(), what)
}

/// Renders `id`'s causal timeline and wait attribution, or `None` when
/// the journal never mentions it.
pub fn explain(journal: &TraceJournal, id: RequestId) -> Option<String> {
    let timeline = request_timeline(journal, id)?;
    let mut out = String::new();
    out.push_str(&format!("{id} — decision timeline\n"));
    for e in &timeline.events {
        out.push_str(&describe(e));
        out.push('\n');
    }
    if let (Some(first), Some(attribution)) = (timeline.first_token_at, timeline.ttft_attribution())
    {
        let ttft = first.as_micros() - timeline.arrival.as_micros();
        out.push_str(&format!("time to first token {}:\n", dur_secs(ttft)));
        for (label, micros) in &attribution {
            out.push_str(&format!("  {label:<10} {}\n", dur_secs(*micros)));
        }
        debug_assert_eq!(attribution.iter().map(|(_, us)| us).sum::<u64>(), ttft);
    }
    if let Some(finished) = timeline.finished_at {
        let latency = finished.as_micros() - timeline.arrival.as_micros();
        out.push_str(&format!("total latency {}:\n", dur_secs(latency)));
        for (label, micros) in timeline.attribution(finished) {
            out.push_str(&format!("  {label:<10} {}\n", dur_secs(micros)));
        }
    } else if timeline.shed {
        out.push_str("request was shed and never completed\n");
    } else {
        out.push_str("request did not complete within the run\n");
    }
    Some(out)
}

/// Perfetto track identity for a source: control and coordinator get
/// their own processes, each replica gets one process track.
fn pid_of(source: TraceSource) -> u64 {
    match source {
        TraceSource::Control => 1,
        TraceSource::Coordinator => 2,
        TraceSource::Replica(i) => 10 + u64::from(i),
    }
}

/// Renders the journal as Chrome trace-event JSON (Perfetto-loadable):
/// one process per replica (plus control/coordinator tracks), one
/// thread lane per request carrying its phase slices and markers, and
/// flow arrows stitching dispatch → arrival and preempt → resume.
pub fn perfetto_json(journal: &TraceJournal) -> String {
    let mut events: Vec<Json> = Vec::new();
    let meta = |name: &str, pid: u64, tid: Option<u64>, label: &str| {
        let mut members = vec![("name", s(name)), ("ph", s("M")), ("pid", ni(pid))];
        if let Some(tid) = tid {
            members.push(("tid", ni(tid)));
        }
        members.push(("args", obj(vec![("name", s(label))])));
        obj(members)
    };
    // Track naming: processes for every source seen, lanes per request.
    let mut sources: Vec<TraceSource> = journal.events.iter().map(|e| e.source).collect();
    sources.sort_unstable();
    sources.dedup();
    for source in &sources {
        events.push(meta("process_name", pid_of(*source), None, &source.label()));
    }
    // Requests, in id order, with the replica lane they ran on.
    let mut ids: Vec<RequestId> = journal
        .events
        .iter()
        .filter_map(|e| e.kind.request())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let mut flow = 0u64;
    for id in ids {
        let Some(timeline) = request_timeline(journal, id) else {
            continue;
        };
        let pid = pid_of(TraceSource::Replica(timeline.replica.unwrap_or(0)));
        let tid = id.0 + 1;
        events.push(meta("thread_name", pid, Some(tid), &format!("{id}")));
        for p in &timeline.phases {
            events.push(obj(vec![
                ("name", s(p.label)),
                ("cat", s("request")),
                ("ph", s("X")),
                ("pid", ni(pid)),
                ("tid", ni(tid)),
                ("ts", ni(p.from.as_micros())),
                ("dur", ni(p.micros())),
            ]));
        }
        for e in &timeline.events {
            match &e.kind {
                TraceEventKind::FirstToken { .. } | TraceEventKind::Finished { .. } => {
                    events.push(obj(vec![
                        ("name", s(e.kind.name())),
                        ("cat", s("request")),
                        ("ph", s("i")),
                        ("s", s("t")),
                        ("pid", ni(pid)),
                        ("tid", ni(tid)),
                        ("ts", ni(e.time.as_micros())),
                    ]));
                }
                // Flow arrow: the coordinator's dispatch decision flows
                // into the replica-side arrival it caused.
                TraceEventKind::Dispatch { .. } => {
                    flow += 1;
                    events.push(obj(vec![
                        ("name", s("dispatch")),
                        ("cat", s("flow")),
                        ("ph", s("s")),
                        ("id", ni(flow)),
                        ("pid", ni(pid_of(TraceSource::Coordinator))),
                        ("tid", ni(tid)),
                        ("ts", ni(e.time.as_micros())),
                    ]));
                    let arrived = timeline
                        .events
                        .iter()
                        .find(|a| matches!(a.kind, TraceEventKind::Arrived { .. }));
                    if let Some(a) = arrived {
                        events.push(obj(vec![
                            ("name", s("dispatch")),
                            ("cat", s("flow")),
                            ("ph", s("f")),
                            ("bp", s("e")),
                            ("id", ni(flow)),
                            ("pid", ni(pid)),
                            ("tid", ni(tid)),
                            ("ts", ni(a.time.as_micros())),
                        ]));
                    }
                }
                // Flow arrow: a preemption flows into the resumption (or
                // recompute re-admission) that undoes it.
                TraceEventKind::Preempted { .. } => {
                    let revival = timeline.events.iter().find(|r| {
                        r.time >= e.time
                            && matches!(
                                r.kind,
                                TraceEventKind::Resumed { .. }
                                    | TraceEventKind::Admitted {
                                        recompute: true,
                                        ..
                                    }
                            )
                    });
                    if let Some(r) = revival {
                        flow += 1;
                        events.push(obj(vec![
                            ("name", s("preempt")),
                            ("cat", s("flow")),
                            ("ph", s("s")),
                            ("id", ni(flow)),
                            ("pid", ni(pid)),
                            ("tid", ni(tid)),
                            ("ts", ni(e.time.as_micros())),
                        ]));
                        events.push(obj(vec![
                            ("name", s("preempt")),
                            ("cat", s("flow")),
                            ("ph", s("f")),
                            ("bp", s("e")),
                            ("id", ni(flow)),
                            ("pid", ni(pid)),
                            ("tid", ni(tid)),
                            ("ts", ni(r.time.as_micros())),
                        ]));
                    }
                }
                _ => {}
            }
        }
    }
    // Source-level events (scale decisions, horizon arms) as instants on
    // their own track's lane 0.
    for e in &journal.events {
        if e.kind.request().is_some() {
            continue;
        }
        events.push(obj(vec![
            ("name", s(e.kind.name())),
            ("cat", s(if e.kind.is_meta() { "meta" } else { "control" })),
            ("ph", s("i")),
            ("s", s("p")),
            ("pid", ni(pid_of(e.source))),
            ("tid", ni(0)),
            ("ts", ni(e.time.as_micros())),
        ]));
    }
    obj(vec![
        ("displayTimeUnit", s("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
    .emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_trace::{TraceSink, TraceSource};

    fn sample_journal() -> TraceJournal {
        let mut sink = TraceSink::enabled(TraceSource::Replica(0));
        let t = SimTime::from_micros;
        let id = RequestId(0);
        sink.emit(t(0), TraceEventKind::Arrived { id, arrival: t(0) });
        sink.emit(
            t(100),
            TraceEventKind::Admitted {
                id,
                recompute: false,
                queued_behind_tokens: 64,
            },
        );
        sink.emit(
            t(300),
            TraceEventKind::PrefillChunk {
                id,
                tokens: 128,
                completes: true,
            },
        );
        sink.emit(t(300), TraceEventKind::FirstToken { id });
        sink.emit(t(900), TraceEventKind::Finished { id });
        sink.into_journal().expect("enabled sink yields a journal")
    }

    #[test]
    fn jsonl_lines_validate_and_digest_is_stable() {
        let journal = sample_journal();
        let text = trace_jsonl(&journal);
        assert_eq!(validate_trace_jsonl(&text).unwrap(), 5);
        assert_eq!(trace_digest(&journal), trace_digest(&journal.clone()));
        // Canonical covers the same events here (no meta emitted), but
        // drops the fast-path-variant seq field.
        let canonical = canonical_trace_jsonl(&journal);
        assert_eq!(canonical.lines().count(), 5);
        assert!(!canonical.contains("\"seq\""));
    }

    #[test]
    fn validator_rejects_missing_payload_fields() {
        let bad = r#"{"t_us":0,"src":"replica-0","seq":0,"kind":"admitted","id":0}"#;
        let err = validate_trace_jsonl(bad).unwrap_err();
        assert!(err.contains("recompute"), "{err}");
        let unknown = r#"{"t_us":0,"src":"replica-0","seq":0,"kind":"nope"}"#;
        assert!(validate_trace_jsonl(unknown).is_err());
    }

    #[test]
    fn timeline_attribution_sums_to_ttft_and_latency() {
        let journal = sample_journal();
        let timeline = request_timeline(&journal, RequestId(0)).unwrap();
        assert_eq!(timeline.first_token_at, Some(SimTime::from_micros(300)));
        let attribution = timeline.ttft_attribution().unwrap();
        assert_eq!(attribution, vec![("queued", 100), ("prefill", 200)]);
        let total: u64 = timeline
            .attribution(timeline.finished_at.unwrap())
            .iter()
            .map(|(_, us)| us)
            .sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn explain_renders_every_event_and_the_attribution() {
        let journal = sample_journal();
        let text = explain(&journal, RequestId(0)).unwrap();
        assert!(text.contains("decision timeline"));
        assert!(text.contains("first token"));
        assert!(text.contains("time to first token 0.000300s"));
        assert!(text.contains("total latency 0.000900s"));
        assert!(explain(&journal, RequestId(99)).is_none());
    }

    #[test]
    fn perfetto_output_is_valid_json_with_tracks() {
        let journal = sample_journal();
        let doc = crate::json::parse(&perfetto_json(&journal)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        // Phase slices carry durations; metadata names the tracks.
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("X")));
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
    }
}
