//! The event wheel: a min-heap of future cycles at which *something can
//! happen* — a packet becomes ready, a wire frees up, a TTL deadline
//! matures. During the drain phase the engine fast-forwards from one wheel
//! entry to the next instead of executing provably-inert cycles.
//!
//! Entries are plain cycle numbers, deliberately not `(cycle, payload)`
//! pairs: the engine re-derives all work from queue state when it executes
//! a cycle, so the wheel only has to guarantee that no cycle in which state
//! *could* change is skipped. Duplicate and stale entries are harmless
//! (executing an inert cycle is a no-op) and are discarded lazily.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap of wake-up cycles (see module docs).
#[derive(Debug, Default)]
pub(crate) struct EventWheel {
    heap: BinaryHeap<Reverse<u64>>,
}

impl EventWheel {
    /// Schedule a wake-up at `cycle`. Duplicates are fine.
    pub(crate) fn push(&mut self, cycle: u64) {
        self.heap.push(Reverse(cycle));
    }

    /// The earliest scheduled cycle `>= cycle`, discarding every stale
    /// entry before it. `None` when nothing is scheduled at or after
    /// `cycle`.
    pub(crate) fn next_at_or_after(&mut self, cycle: u64) -> Option<u64> {
        while let Some(&Reverse(t)) = self.heap.peek() {
            if t >= cycle {
                return Some(t);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventWheel {
        /// Entries currently queued (stale ones included until discarded).
        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = EventWheel::default();
        for t in [9, 3, 7, 3, 100] {
            w.push(t);
        }
        assert_eq!(w.next_at_or_after(0), Some(3));
        assert_eq!(w.next_at_or_after(4), Some(7));
        // Stale entries (3, 3) were discarded by the previous call.
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_at_or_after(8), Some(9));
        assert_eq!(w.next_at_or_after(101), None);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_does_not_consume_live_entries() {
        let mut w = EventWheel::default();
        w.push(5);
        assert_eq!(w.next_at_or_after(5), Some(5));
        assert_eq!(w.next_at_or_after(5), Some(5));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn empty_wheel_reports_none() {
        let mut w = EventWheel::default();
        assert_eq!(w.next_at_or_after(0), None);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }
}
