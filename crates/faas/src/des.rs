//! A minimal discrete-event queue: events carry a payload `E` and pop in
//! time order, FIFO among ties.
//!
//! The serving runtime does not use it: `gillis-core`'s scheduler keeps its
//! own `(time, stage, query)` completion heap. What still calls this queue
//! is a property test of this crate and the repo benchmark's
//! `faas.des.push_pop_ns` probe, which times a queue the simulator never
//! runs; the queue goes with that probe.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Micros;

struct Entry<E> {
    at: Micros,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // Reverse for a min-heap on (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered event queue over payload type `E`.
///
/// # Examples
///
/// ```
/// use gillis_faas::des::EventQueue;
/// use gillis_faas::Micros;
///
/// let mut q = EventQueue::new();
/// q.push(Micros(20), "late");
/// q.push(Micros(10), "early");
/// assert_eq!(q.pop(), Some((Micros(10), "early")));
/// assert_eq!(q.pop(), Some((Micros(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at virtual time `at`.
    pub fn push(&mut self, at: Micros, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pops the earliest event, FIFO among equal times.
    pub fn pop(&mut self) -> Option<(Micros, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<Micros> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Micros(30), 3);
        q.push(Micros(10), 1);
        q.push(Micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Micros(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Micros(5), "a");
        assert_eq!(q.peek_time(), Some(Micros(5)));
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Micros(5), "a"));
        // Schedule follow-up relative to popped time.
        q.push(t + Micros(3), "b");
        q.push(t + Micros(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
