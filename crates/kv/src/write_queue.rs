//! The write-through buffer (paper §5.1–5.2).
//!
//! Newly generated KV entries are *dirty*: they exist only in GPU memory.
//! Under the write-through policy every dirty token range is queued here and
//! synced to host memory in the background, so that when the scheduler later
//! preempts the request most of its cache has already been written back.
//!
//! The queue supports the paper's *priority-based write ordering*: requests
//! with larger output buffers are more likely to be preempted soon, so their
//! dirty tokens are flushed first (§5.2). A FIFO mode is kept for the
//! Figure 8 comparison.
//!
//! Every decoded token is pushed here and every decode member is
//! re-prioritised before each ordered pull, so the queue keeps one item
//! per request and a dense position index keyed by the dense `RequestId`:
//! `push`, `set_priority`, `cancel`, `pending_for` and `pending_tokens`
//! are O(1). A pull sorts the items once by flush order and drains the
//! sorted prefix, O(Q log Q) for Q queued requests.
//!
//! When a pull would drain everything and nothing can observe the order
//! the sort chose, the manager skips the sort: it reads the queue in
//! storage order and empties it whole (see
//! [`KvManager::pump_writes_as_span`](crate::KvManager::pump_writes_as_span)).

use std::cmp::Ordering;

use tokenflow_sim::RequestId;

/// Position-index value for a request with nothing queued.
const ABSENT: u32 = u32::MAX;

/// One pending dirty range.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WriteItem {
    req: RequestId,
    tokens: u64,
    /// Larger = flushed earlier in priority mode (the owner's buffer size).
    priority: f64,
    /// Arrival order for FIFO mode and stable tie-breaking.
    seq: u64,
}

/// A chunk pulled from the queue, ready to enqueue on the D2H stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteChunk {
    /// Owning request.
    pub req: RequestId,
    /// Tokens in the chunk.
    pub tokens: u64,
}

/// The pending write-through buffer.
///
/// # Examples
///
/// ```
/// use tokenflow_kv::WriteQueue;
/// use tokenflow_sim::RequestId;
///
/// let mut q = WriteQueue::new(true);
/// q.push(RequestId(0), 100, 5.0);
/// q.push(RequestId(1), 100, 50.0); // bigger buffer: flushed first
/// let chunks = q.pull(64, 64);
/// assert_eq!(chunks[0].req, RequestId(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteQueue {
    /// One item per request with pending tokens, in no particular order
    /// (flush order right after a pull).
    items: Vec<WriteItem>,
    /// `slots[req]` is the position of `req`'s item in `items`, or
    /// [`ABSENT`]. Grows on first push of an id.
    slots: Vec<u32>,
    /// Σ `items[..].tokens`, kept in step with every change.
    pending: u64,
    priority_mode: bool,
    next_seq: u64,
}

impl WriteQueue {
    /// Creates a queue; `priority_mode` selects buffer-priority ordering
    /// (the paper's default) over FIFO.
    pub fn new(priority_mode: bool) -> Self {
        WriteQueue {
            priority_mode,
            ..WriteQueue::default()
        }
    }

    fn position(&self, req: RequestId) -> Option<usize> {
        match self.slots.get(req.0 as usize) {
            Some(&pos) if pos != ABSENT => Some(pos as usize),
            _ => None,
        }
    }

    fn item_mut(&mut self, req: RequestId) -> Option<&mut WriteItem> {
        let pos = self.position(req)?;
        self.items.get_mut(pos)
    }

    fn set_slot(&mut self, req: RequestId, pos: u32) {
        let idx = req.0 as usize;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, ABSENT);
        }
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = pos;
        }
    }

    /// Adds `tokens` dirty tokens for `req` at the given priority, merging
    /// with an existing entry for the same request if present.
    pub fn push(&mut self, req: RequestId, tokens: u64, priority: f64) {
        if tokens == 0 {
            return;
        }
        self.pending += tokens;
        if let Some(item) = self.item_mut(req) {
            item.tokens += tokens;
            item.priority = priority;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.set_slot(req, self.items.len() as u32);
        self.items.push(WriteItem {
            req,
            tokens,
            priority,
            seq,
        });
    }

    /// Updates the flush priority of a request's pending tokens.
    pub fn set_priority(&mut self, req: RequestId, priority: f64) {
        if let Some(item) = self.item_mut(req) {
            item.priority = priority;
        }
    }

    /// Removes and returns all pending tokens for `req` (used when the
    /// request is preempted — the remainder flushes via the eviction path —
    /// or released).
    pub fn cancel(&mut self, req: RequestId) -> u64 {
        let Some(pos) = self.position(req) else {
            return 0;
        };
        self.set_slot(req, ABSENT);
        let item = self.items.swap_remove(pos);
        if let Some(moved) = self.items.get(pos) {
            self.set_slot(moved.req, pos as u32);
        }
        self.pending -= item.tokens;
        item.tokens
    }

    /// Pulls up to `budget` tokens of chunks, each at most `max_chunk`
    /// tokens, in flush order.
    ///
    /// In priority mode the highest-priority request flushes first; ties
    /// break FIFO. Partial pulls leave the remainder queued.
    pub fn pull(&mut self, budget: u64, max_chunk: u64) -> Vec<WriteChunk> {
        let mut out = Vec::new();
        self.pull_into(budget, max_chunk, &mut out);
        out
    }

    /// [`WriteQueue::pull`] into a caller-retained buffer (cleared first),
    /// for per-step callers that must not allocate in the steady state.
    ///
    /// Priorities are fixed for the whole pull, so flush order is one sort:
    /// each item drains completely before the next starts, and a partly
    /// pulled item keeps its key and stays first.
    pub fn pull_into(&mut self, budget: u64, max_chunk: u64, out: &mut Vec<WriteChunk>) {
        assert!(max_chunk > 0, "max_chunk must be positive");
        out.clear();
        if budget == 0 || self.items.is_empty() {
            return;
        }
        if self.priority_mode {
            self.items.sort_unstable_by(priority_order);
        } else {
            self.items.sort_unstable_by_key(|i| i.seq);
        }
        let mut remaining = budget;
        let mut drained = 0;
        for item in &mut self.items {
            while item.tokens > 0 && remaining > 0 {
                let take = item.tokens.min(max_chunk).min(remaining);
                item.tokens -= take;
                remaining -= take;
                out.push(WriteChunk {
                    req: item.req,
                    tokens: take,
                });
            }
            if item.tokens > 0 {
                break;
            }
            drained += 1;
        }
        self.pending -= budget - remaining;
        for item in self.items.drain(..drained) {
            if let Some(slot) = self.slots.get_mut(item.req.0 as usize) {
                *slot = ABSENT;
            }
        }
        for (pos, item) in self.items.iter().enumerate() {
            if let Some(slot) = self.slots.get_mut(item.req.0 as usize) {
                *slot = pos as u32;
            }
        }
    }

    /// Drops every pending item.
    pub(crate) fn clear(&mut self) {
        for item in self.items.drain(..) {
            if let Some(slot) = self.slots.get_mut(item.req.0 as usize) {
                *slot = ABSENT;
            }
        }
        self.pending = 0;
    }

    /// Advances the FIFO sequence counter past `n` pushes that a caller
    /// has shown would have been flushed before anything could read them
    /// (a replayed run of steps whose every pull drained the queue).
    pub(crate) fn skip_seq(&mut self, n: u64) {
        self.next_seq += n;
    }

    /// Every pending item, one per queued request with all its tokens, in
    /// storage order — not flush order: for callers that have shown the
    /// order is unobservable.
    pub(crate) fn items(&self) -> impl Iterator<Item = WriteChunk> + '_ {
        self.items.iter().map(|i| WriteChunk {
            req: i.req,
            tokens: i.tokens,
        })
    }

    /// Total pending tokens.
    pub fn pending_tokens(&self) -> u64 {
        self.pending
    }

    /// Pending tokens for a specific request.
    pub fn pending_for(&self, req: RequestId) -> u64 {
        self.position(req)
            .and_then(|pos| self.items.get(pos))
            .map_or(0, |i| i.tokens)
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Priority-mode flush order: priority descending, ties by arrival — the
/// order an argmax under `a.priority > b.priority || (a.priority ==
/// b.priority && a.seq < b.seq)` visits. `+ 0.0` folds `-0.0` into `0.0`
/// so `total_cmp` ties them as `==` does; `seq` is unique, so no two
/// items compare equal.
fn priority_order(a: &WriteItem, b: &WriteItem) -> Ordering {
    (b.priority + 0.0)
        .total_cmp(&(a.priority + 0.0))
        .then(a.seq.cmp(&b.seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u64) -> RequestId {
        RequestId(i)
    }

    #[test]
    fn push_merges_same_request() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 10, 1.0);
        q.push(r(0), 5, 2.0);
        assert_eq!(q.pending_for(r(0)), 15);
        assert_eq!(q.pending_tokens(), 15);
    }

    #[test]
    fn priority_mode_flushes_largest_buffer_first() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 100, 1.0);
        q.push(r(1), 100, 9.0);
        q.push(r(2), 100, 5.0);
        let order: Vec<u64> = q.pull(300, 100).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn fifo_mode_preserves_arrival_order() {
        let mut q = WriteQueue::new(false);
        q.push(r(0), 100, 1.0);
        q.push(r(1), 100, 9.0);
        let order: Vec<u64> = q.pull(200, 100).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn pull_respects_budget_and_chunk_size() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 1000, 1.0);
        let chunks = q.pull(300, 128);
        let total: u64 = chunks.iter().map(|c| c.tokens).sum();
        assert_eq!(total, 300);
        assert!(chunks.iter().all(|c| c.tokens <= 128));
        assert_eq!(q.pending_for(r(0)), 700);
    }

    #[test]
    fn pull_stops_when_empty() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 50, 1.0);
        let chunks = q.pull(1000, 64);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].tokens, 50);
        assert!(q.is_empty());
        assert!(q.pull(100, 64).is_empty());
    }

    #[test]
    fn cancel_removes_pending() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 40, 1.0);
        q.push(r(1), 60, 2.0);
        assert_eq!(q.cancel(r(0)), 40);
        assert_eq!(q.pending_tokens(), 60);
        assert_eq!(q.cancel(r(0)), 0);
    }

    #[test]
    fn set_priority_reorders() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 10, 1.0);
        q.push(r(1), 10, 2.0);
        q.set_priority(r(0), 10.0);
        let order: Vec<u64> = q.pull(20, 10).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn priority_ties_break_fifo() {
        let mut q = WriteQueue::new(true);
        q.push(r(5), 10, 3.0);
        q.push(r(6), 10, 3.0);
        let order: Vec<u64> = q.pull(20, 10).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![5, 6]);
    }

    #[test]
    fn cancel_keeps_the_other_requests_indexed() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 10, 1.0);
        q.push(r(1), 20, 2.0);
        q.push(r(2), 30, 3.0);
        assert_eq!(q.cancel(r(0)), 10);
        q.push(r(2), 5, 0.5);
        assert_eq!(q.pending_for(r(1)), 20);
        assert_eq!(q.pending_for(r(2)), 35);
        let order: Vec<u64> = q.pull(55, 64).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.pending_tokens(), 0);
    }

    #[test]
    fn negative_zero_ties_zero() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 10, 0.0);
        q.push(r(1), 10, -0.0);
        q.set_priority(r(0), -0.0);
        q.set_priority(r(1), 0.0);
        let order: Vec<u64> = q.pull(20, 10).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn partial_pull_keeps_its_place() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 100, 5.0);
        q.push(r(1), 100, 5.0);
        let first: Vec<(u64, u64)> = q.pull(30, 16).iter().map(|c| (c.req.0, c.tokens)).collect();
        assert_eq!(first, vec![(0, 16), (0, 14)]);
        let next: Vec<(u64, u64)> = q
            .pull(100, 64)
            .iter()
            .map(|c| (c.req.0, c.tokens))
            .collect();
        assert_eq!(next, vec![(0, 64), (0, 6), (1, 30)]);
        assert_eq!(q.pending_for(r(1)), 70);
    }

    #[test]
    fn items_list_everything_and_clear_keeps_the_index() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 10, 1.0);
        q.push(r(1), 20, 9.0);
        q.push(r(2), 30, 5.0);
        q.cancel(r(0));
        let mut listed: Vec<(u64, u64)> = q.items().map(|c| (c.req.0, c.tokens)).collect();
        listed.sort_unstable();
        assert_eq!(listed, vec![(1, 20), (2, 30)]);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.items().count(), 0);
        assert_eq!(q.pending_tokens(), 0);
        assert_eq!(q.pending_for(r(1)), 0);
        q.push(r(1), 4, 1.0);
        assert_eq!(q.pending_for(r(1)), 4);
        assert_eq!(q.pending_tokens(), 4);
    }

    #[test]
    fn zero_push_is_noop() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 1.0);
        assert!(q.is_empty());
    }
}
