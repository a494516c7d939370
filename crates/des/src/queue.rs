//! The pending-event set: a binary heap ordered by (time, sequence).
//!
//! Two events scheduled for the same instant pop in the order they were
//! scheduled (FIFO), which makes runs bit-reproducible — the property the
//! determinism integration tests assert. The sequence number makes the
//! key unique, so the pop order is a pure function of the schedule/pop
//! sequence, whatever the heap's internal layout.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One pending event. Ordered by (time, sequence) alone: the payload
/// never takes part in a comparison.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Priority queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// High-water mark of the pending count — the queue-depth peak a run
    /// profiler reports. Deterministic: a pure function of the
    /// schedule/pop sequence.
    len_peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            len_peak: 0,
        }
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of the pending count over the queue's whole
    /// lifetime — the depth peak the run profiler reports.
    pub fn len_peak(&self) -> usize {
        self.len_peak
    }

    /// Schedule `payload` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.len_peak = self.len_peak.max(self.heap.len());
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop().unwrap(), (t(10), "a"));
        assert_eq!(q.pop().unwrap(), (t(20), "b"));
        assert_eq!(q.pop().unwrap(), (t(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_for_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_peak_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.len_peak(), 0);
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        assert_eq!(q.len_peak(), 3);
        q.pop();
        q.pop();
        // Peak is a lifetime high-water mark; draining doesn't lower it.
        assert_eq!(q.len(), 1);
        assert_eq!(q.len_peak(), 3);
        q.schedule(t(4), "d");
        assert_eq!(q.len_peak(), 3);
    }
}
