//! The timestamp-ordered discrete-event queue.

use crate::VirtualTime;

struct IndexedEntry<T> {
    at: VirtualTime,
    seq: u64,
    /// `None` while the slot sits on the free list.
    item: Option<T>,
}

/// A deterministic min-heap of `(VirtualTime, seq, T)` events.
///
/// Entries pop in `(at, seq)` order, where `seq` is the insertion sequence
/// number — so execution is fully deterministic even when many events share a
/// timestamp (a broadcast to 100 clients all stamped with the same instant).
/// `push_at_seq` / `reserve_seqs` let a caller stamp a cohort of future
/// entries up front and schedule them one at a time (one heap entry per
/// broadcast instead of one per recipient) without changing the pop order
/// per-recipient pushes would have produced. Payloads stay in a slot table;
/// only `u32` slot indices move during sifts.
pub struct IndexedEventQueue<T> {
    slots: Vec<IndexedEntry<T>>,
    free: Vec<u32>,
    /// Binary min-heap of slot indices, keyed by `(slots[i].at, slots[i].seq)`.
    heap: Vec<u32>,
    next_seq: u64,
}

impl<T> Default for IndexedEventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IndexedEventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` at `at` with the next insertion sequence number.
    pub fn push(&mut self, at: VirtualTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, item);
    }

    /// Schedules `item` at `at` under an explicit sequence number.
    ///
    /// The caller must guarantee `(at, seq)` pairs are unique across live
    /// entries; the internal counter is bumped past `seq` so later `push`
    /// calls never collide.
    pub fn push_at_seq(&mut self, at: VirtualTime, seq: u64, item: T) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.insert(at, seq, item);
    }

    /// Reserves `n` consecutive sequence numbers and returns the first, for
    /// callers that stamp a batch of future entries up front.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Removes and returns the earliest event as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(VirtualTime, u64, T)> {
        let slot = *self.heap.first()?;
        let last = self.heap.pop()?; // non-empty: first() just succeeded
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let e = &mut self.slots[slot as usize];
        // a scheduled slot always holds an item; finish the bookkeeping
        // before unwrapping so a broken invariant degrades to a lost event
        let item = e.item.take();
        let (at, seq) = (e.at, e.seq);
        self.free.push(slot);
        item.map(|item| (at, seq, item))
    }

    fn insert(&mut self, at: VirtualTime, seq: u64, item: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                e.at = at;
                e.seq = seq;
                e.item = Some(item);
                s
            }
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "event queue slot overflow"
                );
                self.slots.push(IndexedEntry {
                    at,
                    seq,
                    item: Some(item),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(slot);
        self.sift_up(self.heap.len() - 1);
    }

    fn key(&self, slot: u32) -> (VirtualTime, u64) {
        let e = &self.slots[slot as usize];
        (e.at, e.seq)
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(self.heap[pos]) < self.key(self.heap[parent]) {
                self.heap.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < self.heap.len() && self.key(self.heap[right]) < self.key(self.heap[left]) {
                smallest = right;
            }
            if self.key(self.heap[smallest]) < self.key(self.heap[pos]) {
                self.heap.swap(pos, smallest);
                pos = smallest;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_pops_in_key_order() {
        let mut q = IndexedEventQueue::new();
        q.push(VirtualTime::from_secs(3.0), "c");
        q.push(VirtualTime::from_secs(1.0), "a");
        q.push(VirtualTime::from_secs(2.0), "b");
        assert_eq!(q.len(), 3);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn indexed_ties_break_by_seq() {
        let mut q = IndexedEventQueue::new();
        let t = VirtualTime::from_secs(5.0);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<(u64, i32)> =
            std::iter::from_fn(|| q.pop().map(|(_, s, v)| (s, v))).collect();
        assert_eq!(order, (0..10).map(|i| (i as u64, i)).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = IndexedEventQueue::new();
        q.push(VirtualTime::from_secs(10.0), "late");
        q.push(VirtualTime::from_secs(1.0), "early");
        assert_eq!(q.pop().unwrap().2, "early");
        q.push(VirtualTime::from_secs(5.0), "mid");
        assert_eq!(q.pop().unwrap().2, "mid");
        assert_eq!(q.pop().unwrap().2, "late");
    }

    #[test]
    fn indexed_explicit_seqs_reproduce_interleaving() {
        let mut q = IndexedEventQueue::new();
        let first = q.reserve_seqs(3);
        assert_eq!(first, 0);
        let t = VirtualTime::from_secs(1.0);
        // Insert out of order; pops must follow seq, not insertion.
        q.push_at_seq(t, first + 2, "third");
        q.push_at_seq(t, first, "first");
        q.push_at_seq(t, first + 1, "second");
        // A plain push after explicit seqs never collides.
        q.push(t, "fourth");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, vec!["first", "second", "third", "fourth"]);
    }
}

#[cfg(test)]
mod indexed_proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u16),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest has no `prop_oneof`; pick the variant by a
        // mapped discriminant with a 4:3 push:pop weighting.
        (0u8..7, 0u16..1000).prop_map(|(which, t)| match which {
            0..=3 => Op::Push(t),
            _ => Op::Pop,
        })
    }

    proptest! {
        /// Random push/pop sequences agree with a sorted reference model
        /// keyed by `(at, seq)`.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut q = IndexedEventQueue::new();
            let mut live: Vec<(VirtualTime, u64, u32)> = Vec::new();
            let mut next = 0u32;
            for op in ops {
                match op {
                    Op::Push(t) => {
                        let at = VirtualTime::from_secs(t as f64);
                        q.push(at, next);
                        live.push((at, u64::from(next), next));
                        next += 1;
                    }
                    Op::Pop => {
                        let got = q.pop();
                        match live.iter().min().copied() {
                            None => prop_assert!(got.is_none()),
                            Some(min) => {
                                live.retain(|e| *e != min);
                                prop_assert_eq!(got, Some(min));
                            }
                        }
                    }
                }
            }
            // Drain and compare the tail.
            let rest: Vec<(VirtualTime, u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
            live.sort();
            prop_assert_eq!(rest, live);
        }
    }
}
