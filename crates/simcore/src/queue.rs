//! Deterministic event queue.
//!
//! Orders events by `(time, sequence)`: earliest time first, and FIFO
//! among events scheduled for the same instant. The sequence number makes
//! the pop order a pure function of the push order, which is what makes
//! whole-simulation determinism possible.
//!
//! The store is tuned for the engine's dominant pop-handle-push cycle.
//! Every pushed event lands in exactly one lane, each lane is sorted by
//! `(at, seq)`, and `pop` takes the smallest of the lanes' fronts, so the
//! global order is exactly that of a single priority queue. There are
//! two kinds of lane:
//!
//! * **FIFO lanes** for [`EventQueue::push_periodic`], one per distinct
//!   period: a recurring timer (a scheduler tick per device queue, the
//!   broker sync, the metrics sampler) re-arms one period after the
//!   instant it fires, and the clock never runs backwards, so the pushes
//!   of one period arrive in nondecreasing time and appending keeps the
//!   lane sorted by construction. A cluster keeps one tick per device
//!   queue pending at all times; in a lane they cost O(1) per push and
//!   pop instead of O(log n) sifts through a heap they would otherwise
//!   dominate. Timers with different periods interleave out of time
//!   order, which is why each period gets its own lane; a run has a
//!   handful of periods at most.
//! * A manual `Vec`-backed **binary min-heap** keyed on `(at, seq)` for
//!   everything else — no inverted-`Ord` wrapper, and `pop` fuses the
//!   peek and the sift-down into one pass (the root is replaced by the
//!   last element and sifted, instead of a generic remove-then-rebalance).
//!   Events scheduled at exactly the current instant go here too: the
//!   engine makes a handful per run, too few to pay for a lane that
//!   `pop` would compare on every call.
//!
//! Which lane a push takes depends only on the push method, never on the
//! time or the payload; [`QueueStats`] counts the pushes per lane and the
//! heap's high-water mark.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A scheduled event: payload `E` due at `at`.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// The lane holding an event.
#[derive(Clone, Copy)]
enum Lane {
    /// Index into `EventQueue::periodic`.
    Periodic(usize),
    Heap,
}

/// Deterministic work counters of an [`EventQueue`]: pushes per lane and
/// the largest heap length reached. Pure functions of the push/pop
/// sequence, so they are stable across runs and hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Periodic pushes, served by the per-period FIFO lanes.
    pub fifo_pushes: u64,
    /// Pushes that went to the binary heap.
    pub heap_pushes: u64,
    /// Largest number of events the heap held at once.
    pub peak_heap_len: u64,
}

/// Priority queue of timestamped events with deterministic tie-breaking.
///
/// ```
/// use ibis_simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// q.push_periodic(SimDuration::from_secs(3), "tick");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(3), "tick")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Min-heap on `(at, seq)` for every non-periodic event.
    heap: Vec<Scheduled<E>>,
    /// One lane per period passed to `push_periodic`, in first-use
    /// order. Each is sorted by `(at, seq)` because both grow along it.
    periodic: Vec<(SimDuration, VecDeque<Scheduled<E>>)>,
    next_seq: u64,
    last_popped: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            periodic: Vec::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `event` at instant `at`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic
    /// error in the caller; it is caught by a debug assertion and clamped to
    /// the current time in release builds so a report run degrades instead
    /// of deadlocking.
    pub fn push(&mut self, at: SimTime, event: E) {
        let s = self.stamp(at, event);
        self.push_heap(s);
    }

    /// Schedules the next firing of a recurring timer, `period` after
    /// the current instant. Same ordering contract as
    /// [`push`](Self::push) at `now() + period`; only the lane differs:
    /// the event is appended to the FIFO lane of its period.
    pub fn push_periodic(&mut self, period: SimDuration, event: E) {
        let s = self.stamp(self.last_popped + period, event);
        self.stats.fifo_pushes += 1;
        let lane = match self.periodic.iter().position(|(p, _)| *p == period) {
            Some(i) => i,
            None => {
                self.periodic.push((period, VecDeque::new()));
                self.periodic.len() - 1
            }
        };
        self.periodic[lane].1.push_back(s);
    }

    /// Removes and returns the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (lane, _) = self.head()?;
        let s = match lane {
            Lane::Periodic(i) => self.periodic[i].1.pop_front(),
            Lane::Heap => self.pop_heap(),
        }
        .expect("head lane is non-empty");
        self.last_popped = s.at;
        Some((s.at, s.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(_, (at, _))| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        let periodic: usize = self.periodic.iter().map(|(_, q)| q.len()).sum();
        self.heap.len() + periodic
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the queue's notion of
    /// "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Pushes per lane and the heap's high-water mark so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Clamps `at` to the clock and draws the next sequence number.
    fn stamp(&mut self, at: SimTime, event: E) -> Scheduled<E> {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled in the past: {at} < {}",
            self.last_popped
        );
        let at = at.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled { at, seq, event }
    }

    /// The lane holding the earliest event, with that event's key. Keys
    /// are unique (seq is), so the minimum is unambiguous.
    #[inline]
    fn head(&self) -> Option<(Lane, (SimTime, u64))> {
        let mut best = self.heap.first().map(|h| (Lane::Heap, h.key()));
        for (i, (_, q)) in self.periodic.iter().enumerate() {
            if let Some(s) = q.front() {
                if best.is_none_or(|(_, key)| s.key() < key) {
                    best = Some((Lane::Periodic(i), s.key()));
                }
            }
        }
        best
    }

    fn push_heap(&mut self, s: Scheduled<E>) {
        self.stats.heap_pushes += 1;
        self.heap.push(s);
        self.stats.peak_heap_len = self.stats.peak_heap_len.max(self.heap.len() as u64);
        self.sift_up(self.heap.len() - 1);
    }

    /// Fused peek-then-pop: replace the root with the last element and
    /// sift it down in a single pass.
    fn pop_heap(&mut self) -> Option<Scheduled<E>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let root = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(root)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() >= self.heap[parent].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut smallest = if self.heap[l].key() < self.heap[i].key() {
                l
            } else {
                i
            };
            if r < n && self.heap[r].key() < self.heap[smallest].key() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 30);
        q.push(SimTime::from_secs(1), 10);
        q.push(SimTime::from_secs(1), 11);
        q.push(SimTime::from_secs(2), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(1), "a"));
        // Push relative to the popped time, as event handlers do.
        q.push(t + SimDuration::from_secs(1), "b");
        q.push(t + SimDuration::from_millis(500), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn now_tracks_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_secs(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pushes_at_now_follow_earlier_seq() {
        // Same-instant events scheduled *before* the clock reached t=5
        // must still precede events pushed *at* t=5, because their
        // sequence numbers are smaller.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "heap-1");
        q.push(SimTime::from_secs(5), "heap-2");
        q.push(SimTime::from_secs(5), "heap-3");
        assert_eq!(q.pop().unwrap().1, "heap-1");
        // now() == 5: pushed at the current instant.
        q.push(SimTime::from_secs(5), "now-1");
        q.push(SimTime::from_secs(6), "later");
        q.push(SimTime::from_secs(5), "now-2");
        assert_eq!(q.pop().unwrap().1, "heap-2");
        assert_eq!(q.pop().unwrap().1, "heap-3");
        assert_eq!(q.pop().unwrap().1, "now-1");
        assert_eq!(q.pop().unwrap().1, "now-2");
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_sees_push_at_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), "future");
        // At t=0 this is same-instant.
        q.push(SimTime::ZERO, "immediate");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "immediate");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn pushes_at_now_drain_before_clock_advances() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 0);
        q.pop();
        for i in 1..=100 {
            q.push(SimTime::from_secs(1), i);
        }
        q.push(SimTime::from_secs(2), 999);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<i32> = (1..=100).chain([999]).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn heap_order_matches_reference_model() {
        // Deterministic pseudo-random push/pop sequence checked against a
        // sorted reference: the manual heap must agree with (at, seq) order.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (at_secs, seq)
        let mut seq = 0u64;
        let mut state = 0x1b15_u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for _ in 0..500 {
            if rand() % 3 != 0 || model.is_empty() {
                let at = now + rand() % 50;
                q.push(SimTime::from_secs(at), seq);
                model.push((at, seq));
                seq += 1;
            } else {
                let (t, got) = q.pop().unwrap();
                model.sort();
                let (at, expect) = model.remove(0);
                assert_eq!(t, SimTime::from_secs(at));
                assert_eq!(got, expect);
                now = at;
            }
        }
        model.sort();
        for (at, expect) in model {
            let (t, got) = q.pop().unwrap();
            assert_eq!((t, got), (SimTime::from_secs(at), expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }
}
