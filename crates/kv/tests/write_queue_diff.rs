//! Differential property test: the indexed `WriteQueue` must pull exactly
//! the chunk sequence of the reference queue below — a `VecDeque` scanned
//! for the flush-order argmax once per chunk — under any sequence of
//! pushes, re-prioritisations, cancels and pulls, in both modes.

use std::collections::VecDeque;

use proptest::prelude::*;
use tokenflow_kv::write_queue::WriteChunk;
use tokenflow_kv::WriteQueue;
use tokenflow_sim::RequestId;

/// The reference implementation: one argmax scan and one `VecDeque`
/// removal per pulled chunk, one linear search per push.
mod oracle {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct WriteItem {
        req: RequestId,
        tokens: u64,
        priority: f64,
        seq: u64,
    }

    pub struct OracleQueue {
        items: VecDeque<WriteItem>,
        priority_mode: bool,
        next_seq: u64,
    }

    impl OracleQueue {
        pub fn new(priority_mode: bool) -> Self {
            OracleQueue {
                items: VecDeque::new(),
                priority_mode,
                next_seq: 0,
            }
        }

        pub fn push(&mut self, req: RequestId, tokens: u64, priority: f64) {
            if tokens == 0 {
                return;
            }
            if let Some(item) = self.items.iter_mut().find(|i| i.req == req) {
                item.tokens += tokens;
                item.priority = priority;
                return;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.items.push_back(WriteItem {
                req,
                tokens,
                priority,
                seq,
            });
        }

        pub fn set_priority(&mut self, req: RequestId, priority: f64) {
            if let Some(item) = self.items.iter_mut().find(|i| i.req == req) {
                item.priority = priority;
            }
        }

        pub fn cancel(&mut self, req: RequestId) -> u64 {
            let mut removed = 0;
            self.items.retain(|i| {
                if i.req == req {
                    removed += i.tokens;
                    false
                } else {
                    true
                }
            });
            removed
        }

        pub fn pull(&mut self, budget: u64, max_chunk: u64) -> Vec<WriteChunk> {
            let mut out = Vec::new();
            let mut remaining = budget;
            while remaining > 0 {
                let Some(idx) = self.next_index() else {
                    break;
                };
                let take = self.items[idx].tokens.min(max_chunk).min(remaining);
                self.items[idx].tokens -= take;
                let req = self.items[idx].req;
                if self.items[idx].tokens == 0 {
                    self.items.remove(idx);
                }
                out.push(WriteChunk { req, tokens: take });
                remaining -= take;
            }
            out
        }

        fn next_index(&self) -> Option<usize> {
            if self.items.is_empty() {
                return None;
            }
            if !self.priority_mode {
                return Some(0);
            }
            let mut best = 0;
            for i in 1..self.items.len() {
                let (a, b) = (&self.items[i], &self.items[best]);
                if a.priority > b.priority || (a.priority == b.priority && a.seq < b.seq) {
                    best = i;
                }
            }
            Some(best)
        }

        pub fn pending_tokens(&self) -> u64 {
            self.items.iter().map(|i| i.tokens).sum()
        }

        pub fn pending_for(&self, req: RequestId) -> u64 {
            self.items
                .iter()
                .filter(|i| i.req == req)
                .map(|i| i.tokens)
                .sum()
        }

        pub fn is_empty(&self) -> bool {
            self.items.is_empty()
        }
    }
}

use oracle::OracleQueue;

/// Few distinct values so ties are common; `-0.0` ties `0.0`.
const PRIORITIES: [f64; 6] = [0.0, -0.0, 1.0, 2.5, 7.0, 7.0];
/// Request ids drawn from `0..REQS`; one more id is probed but never used.
const REQS: u8 = 8;

#[derive(Debug, Clone)]
enum Op {
    Push { req: u8, tokens: u16, priority: u8 },
    SetPriority { req: u8, priority: u8 },
    Cancel { req: u8 },
    Pull { budget: u16, max_chunk: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..REQS, 0u16..200, 0u8..6).prop_map(|(req, tokens, priority)| Op::Push {
            req,
            tokens,
            priority
        }),
        (0u8..REQS, 1u16..2).prop_map(|(req, tokens)| Op::Push {
            req,
            tokens,
            priority: req % 6
        }),
        (0u8..REQS, 0u8..6).prop_map(|(req, priority)| Op::SetPriority { req, priority }),
        (0u8..REQS).prop_map(|req| Op::Cancel { req }),
        (0u16..400, 1u8..80).prop_map(|(budget, max_chunk)| Op::Pull { budget, max_chunk }),
    ]
}

fn run(priority_mode: bool, ops: &[Op]) -> Result<(), String> {
    let mut q = WriteQueue::new(priority_mode);
    let mut o = OracleQueue::new(priority_mode);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push {
                req,
                tokens,
                priority,
            } => {
                let p = PRIORITIES[priority as usize];
                q.push(RequestId(req as u64), tokens as u64, p);
                o.push(RequestId(req as u64), tokens as u64, p);
            }
            Op::SetPriority { req, priority } => {
                let p = PRIORITIES[priority as usize];
                q.set_priority(RequestId(req as u64), p);
                o.set_priority(RequestId(req as u64), p);
            }
            Op::Cancel { req } => {
                let got = q.cancel(RequestId(req as u64));
                let want = o.cancel(RequestId(req as u64));
                prop_assert_eq!(got, want, "cancel at op {step}: {op:?}");
            }
            Op::Pull { budget, max_chunk } => {
                let got = q.pull(budget as u64, max_chunk as u64);
                let want = o.pull(budget as u64, max_chunk as u64);
                prop_assert_eq!(got, want, "pull at op {step}: {op:?}");
            }
        }
        prop_assert_eq!(q.pending_tokens(), o.pending_tokens(), "after op {step}");
        prop_assert_eq!(q.is_empty(), o.is_empty(), "after op {step}");
        for req in 0..=REQS as u64 {
            prop_assert_eq!(
                q.pending_for(RequestId(req)),
                o.pending_for(RequestId(req)),
                "request {req} after op {step}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn priority_mode_pulls_the_reference_sequence(ops in prop::collection::vec(arb_op(), 1..200)) {
        run(true, &ops)?;
    }

    #[test]
    fn fifo_mode_pulls_the_reference_sequence(ops in prop::collection::vec(arb_op(), 1..200)) {
        run(false, &ops)?;
    }
}
