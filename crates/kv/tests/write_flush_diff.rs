//! Differential property test: the span pump must leave exactly the state
//! the ordered pump leaves.
//!
//! Two managers see the same random operations. At every pump, `exact`
//! re-prices its queue and runs `pump_writes`; `span` runs the engine's
//! entry point `pump_writes_as_span` and falls back to the same re-price
//! and `pump_writes` when its certificate fails. Both then advance to the
//! end of the pump window, as the caller contract requires, and every
//! observable — residency, context, dirty tokens, backlog, pool usage, the
//! host link's queues, ETAs and next completion, the lifecycle events with
//! their times, and block conservation — must agree after every operation.

use proptest::prelude::*;
use proptest::{seed_from_name, TestRng};
use tokenflow_kv::{Direction, KvConfig, KvEvent, KvManager, WriteFlushStats};
use tokenflow_sim::{RequestId, SimDuration, SimTime};

/// Request ids drawn from `0..REQS`; one more id is probed but never used.
const REQS: u8 = 6;
/// Few distinct values so priority ties are common.
const PRIORITIES: [f64; 5] = [0.0, 1.0, 2.5, 7.0, 7.0];
const SLOWDOWNS: [f64; 3] = [1.0, 1.5, 4.0];

#[derive(Debug, Clone)]
enum Op {
    Prefill {
        req: u8,
        tokens: u16,
    },
    Append {
        req: u8,
        priority: u8,
    },
    /// One decode step: a token for every request that takes one.
    AppendAll {
        priority: u8,
    },
    Evict {
        req: u8,
    },
    Load {
        req: u8,
    },
    Drop {
        req: u8,
    },
    /// Drop and prefill the same id at once, while its old transfers may
    /// still be in flight.
    Recompute {
        req: u8,
        tokens: u16,
    },
    Slowdown {
        factor: u8,
    },
    /// Pump over a window of `micros`, then advance to its end.
    Pump {
        micros: u32,
        priority: u8,
    },
    Advance {
        micros: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..REQS, 1u16..300).prop_map(|(req, tokens)| Op::Prefill { req, tokens }),
        (0u8..REQS, 0u8..5).prop_map(|(req, priority)| Op::Append { req, priority }),
        (0u8..5).prop_map(|priority| Op::AppendAll { priority }),
        (0u8..5).prop_map(|priority| Op::AppendAll { priority }),
        (0u8..REQS).prop_map(|req| Op::Evict { req }),
        (0u8..REQS).prop_map(|req| Op::Load { req }),
        (0u8..REQS).prop_map(|req| Op::Drop { req }),
        (0u8..REQS, 1u16..300).prop_map(|(req, tokens)| Op::Recompute { req, tokens }),
        (0u8..3).prop_map(|factor| Op::Slowdown { factor }),
        // Windows from far shorter than one chunk to far longer than a pull.
        (1u32..40, 0u8..5).prop_map(|(micros, priority)| Op::Pump { micros, priority }),
        (40u32..400, 0u8..5).prop_map(|(micros, priority)| Op::Pump { micros, priority }),
        (400u32..30_000, 0u8..5).prop_map(|(micros, priority)| Op::Pump { micros, priority }),
        (400u32..30_000, 0u8..5).prop_map(|(micros, priority)| Op::Pump { micros, priority }),
        (1u32..20_000).prop_map(|micros| Op::Advance { micros }),
    ]
}

fn ids() -> impl Iterator<Item = RequestId> {
    (0..=REQS as u64).map(RequestId)
}

/// The ordered pump's caller: re-price every queued request, then pull.
fn ordered_pump(kv: &mut KvManager, now: SimTime, window: SimDuration, priority: u8) {
    for req in ids() {
        if kv.write_backlog_for(req) > 0 {
            let p = PRIORITIES[(req.0 as usize + priority as usize) % PRIORITIES.len()];
            kv.set_write_priority(req, p);
        }
    }
    kv.pump_writes(now, window);
}

fn same_state(exact: &KvManager, span: &KvManager, now: SimTime) -> Result<(), String> {
    for req in ids() {
        prop_assert_eq!(exact.residency(req), span.residency(req), "{req:?}");
        prop_assert_eq!(
            exact.context_tokens(req),
            span.context_tokens(req),
            "{req:?}"
        );
        prop_assert_eq!(exact.dirty_tokens(req), span.dirty_tokens(req), "{req:?}");
        prop_assert_eq!(
            exact.write_backlog_for(req),
            span.write_backlog_for(req),
            "{req:?}"
        );
    }
    prop_assert_eq!(exact.write_backlog_tokens(), span.write_backlog_tokens());
    prop_assert_eq!(
        exact.gpu_pool().used_blocks(),
        span.gpu_pool().used_blocks()
    );
    prop_assert_eq!(
        exact.cpu_pool().used_blocks(),
        span.cpu_pool().used_blocks()
    );
    for dir in [Direction::H2D, Direction::D2H] {
        prop_assert_eq!(exact.io_eta(dir, now), span.io_eta(dir, now), "{dir:?}");
        prop_assert_eq!(exact.io_queue_len(dir), span.io_queue_len(dir), "{dir:?}");
        prop_assert_eq!(
            exact.pcie().queue_bytes(dir),
            span.pcie().queue_bytes(dir),
            "{dir:?}"
        );
        prop_assert_eq!(
            exact.pcie().completed_bytes(dir),
            span.pcie().completed_bytes(dir),
            "{dir:?}"
        );
    }
    prop_assert_eq!(exact.next_io_completion(), span.next_io_completion());
    prop_assert_eq!(exact.evicting_requests(), span.evicting_requests());
    prop_assert_eq!(exact.loading_requests(), span.loading_requests());
    prop_assert!(exact.check_conservation(), "exact manager leaks blocks");
    prop_assert!(span.check_conservation(), "span manager leaks blocks");
    Ok(())
}

/// Runs `ops` on both managers; returns the span manager's path counts.
fn run(cfg: &KvConfig, ops: &[Op]) -> Result<WriteFlushStats, String> {
    let mut exact = KvManager::new(cfg.clone());
    let mut span = KvManager::new(cfg.clone());
    let (mut exact_events, mut span_events) = (Vec::<KvEvent>::new(), Vec::<KvEvent>::new());
    let mut now = SimTime::ZERO;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Prefill { req, tokens } => {
                let r = RequestId(req as u64);
                let got = span.on_prefill(r, tokens as u64, now);
                prop_assert_eq!(exact.on_prefill(r, tokens as u64, now), got);
            }
            Op::Append { req, priority } => {
                let r = RequestId(req as u64);
                let p = PRIORITIES[priority as usize];
                prop_assert_eq!(exact.append_token(r, p), span.append_token(r, p));
            }
            Op::AppendAll { priority } => {
                for r in ids() {
                    let p = PRIORITIES[(r.0 as usize + priority as usize) % PRIORITIES.len()];
                    prop_assert_eq!(exact.append_token(r, p), span.append_token(r, p));
                }
            }
            Op::Evict { req } => {
                let r = RequestId(req as u64);
                prop_assert_eq!(exact.begin_evict(r, now), span.begin_evict(r, now));
            }
            Op::Load { req } => {
                let r = RequestId(req as u64);
                prop_assert_eq!(exact.begin_load(r, now), span.begin_load(r, now));
            }
            Op::Drop { req } => {
                exact.drop_kv(RequestId(req as u64));
                span.drop_kv(RequestId(req as u64));
            }
            Op::Recompute { req, tokens } => {
                let r = RequestId(req as u64);
                exact.drop_kv(r);
                span.drop_kv(r);
                let got = span.on_prefill(r, tokens as u64, now);
                prop_assert_eq!(exact.on_prefill(r, tokens as u64, now), got);
            }
            Op::Slowdown { factor } => {
                exact.set_link_slowdown(SLOWDOWNS[factor as usize]);
                span.set_link_slowdown(SLOWDOWNS[factor as usize]);
            }
            Op::Pump { micros, priority } => {
                let window = SimDuration::from_micros(micros as u64);
                ordered_pump(&mut exact, now, window, priority);
                if !span.pump_writes_as_span(now, window) {
                    ordered_pump(&mut span, now, window, priority);
                }
                now += window;
                exact.advance_into(now, &mut exact_events);
                span.advance_into(now, &mut span_events);
                prop_assert_eq!(
                    &exact_events,
                    &span_events,
                    "events after op {step}: {op:?}"
                );
            }
            Op::Advance { micros } => {
                now += SimDuration::from_micros(micros as u64);
                exact.advance_into(now, &mut exact_events);
                span.advance_into(now, &mut span_events);
                prop_assert_eq!(
                    &exact_events,
                    &span_events,
                    "events after op {step}: {op:?}"
                );
            }
        }
        if let Err(msg) = same_state(&exact, &span, now) {
            return Err(format!("after op {step} ({op:?}): {msg}"));
        }
    }
    Ok(span.write_flush_stats())
}

/// Runs `cases` seeded random sequences under `cfg` and asserts that the
/// span manager took both paths, so neither side of the fallback goes
/// untested.
fn check(name: &str, cfg: KvConfig, cases: u32) {
    let mut rng = TestRng::new(seed_from_name(name));
    let sequences = prop::collection::vec(arb_op(), 1..160);
    let mut total = WriteFlushStats::default();
    for case in 0..cases {
        let ops = sequences.generate(&mut rng);
        match run(&cfg, &ops) {
            Ok(stats) => {
                total.span_pulls += stats.span_pulls;
                total.ordered_pulls += stats.ordered_pulls;
            }
            Err(msg) => panic!("{name} failed at case {case}: {msg}"),
        }
    }
    assert!(
        total.span_pulls > 0 && total.ordered_pulls > 0,
        "{name}: both pump paths must be exercised, got {total:?}"
    );
}

fn base() -> KvConfig {
    let mut cfg = KvConfig::test_config();
    cfg.gpu_blocks = 256; // 4096 tokens
    cfg.cpu_blocks = 2_048;
    cfg
}

#[test]
fn span_pump_matches_ordered_pump_in_priority_mode() {
    check("priority", base(), 128);
}

#[test]
fn span_pump_matches_ordered_pump_in_fifo_mode() {
    let mut cfg = base();
    cfg.priority_writes = false;
    check("fifo", cfg, 96);
}

#[test]
fn span_pump_matches_ordered_pump_in_half_duplex() {
    let mut cfg = base();
    cfg.load_evict_overlap = false;
    check("half_duplex", cfg, 96);
}

#[test]
fn span_pump_matches_ordered_pump_with_a_tiny_host_pool() {
    let mut cfg = base();
    cfg.cpu_blocks = 12; // 192 tokens: write-through runs the host pool full
    check("tiny_host_pool", cfg, 96);
}

#[test]
fn span_pump_matches_ordered_pump_with_small_chunks() {
    let mut cfg = base();
    cfg.chunk_tokens = 16; // prefills split into many chunks per request
    check("small_chunks", cfg, 96);
}

#[test]
fn span_pump_matches_ordered_pump_on_a_zero_latency_link() {
    let mut cfg = base();
    // Sub-microsecond chunks round to zero time, so a window can hold
    // every chunk while its byte budget cannot drain the queue.
    cfg.pcie_latency_us = 0;
    cfg.kv_bytes_per_token = 4_096;
    check("zero_latency", cfg, 96);
}
