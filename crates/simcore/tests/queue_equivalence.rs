//! The laned event queue against a single binary heap: random
//! interleavings of same-instant, fixed-period and arbitrary future
//! pushes with pops and peeks must see exactly the `(time, seq)` order
//! of `BinaryHeap<Reverse<(SimTime, u64)>>`.

use ibis_simcore::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
enum Op {
    /// `push` at the current instant.
    PushNow,
    /// `push_periodic` one period of timer `timer` after now.
    PushPeriodic {
        timer: u8,
    },
    /// `push` `delay` ms after now.
    PushFuture {
        delay: u32,
    },
    Pop,
    Peek,
}

/// Timer periods in ms: two share a period, one differs.
const PERIODS: [u64; 3] = [10, 10, 25];

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::PushNow),
        4 => (0u8..3).prop_map(|timer| Op::PushPeriodic { timer }),
        3 => (1u32..60).prop_map(|delay| Op::PushFuture { delay }),
        5 => Just(Op::Pop),
        1 => Just(Op::Peek),
    ]
}

/// Drives the queue and the reference through `ops`, comparing every
/// observable. The payload is the push index, which is also the seq the
/// queue draws, so the reference key is `(at, payload)`.
fn check(ops: &[Op]) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut pushed = 0u64;
    let ms = SimDuration::from_millis;
    for op in ops {
        let now = q.now();
        let at = match *op {
            Op::PushNow => Some(now),
            Op::PushPeriodic { timer } => Some(now + ms(PERIODS[timer as usize])),
            Op::PushFuture { delay } => Some(now + ms(delay as u64)),
            _ => None,
        };
        if let Some(at) = at {
            match *op {
                Op::PushPeriodic { timer } => q.push_periodic(ms(PERIODS[timer as usize]), pushed),
                _ => q.push(at, pushed),
            }
            reference.push(Reverse((at, pushed)));
            pushed += 1;
        }
        match *op {
            Op::PushNow | Op::PushPeriodic { .. } | Op::PushFuture { .. } => {}
            Op::Pop => {
                let want = reference.pop().map(|Reverse(k)| k);
                assert_eq!(q.pop(), want);
            }
            Op::Peek => {
                let want = reference.peek().map(|&Reverse((at, _))| at);
                assert_eq!(q.peek_time(), want);
            }
        }
        assert_eq!(q.len(), reference.len());
        assert_eq!(q.is_empty(), reference.is_empty());
    }
    let s = q.stats();
    assert_eq!(s.fifo_pushes + s.heap_pushes, pushed);
    while let Some(Reverse(k)) = reference.pop() {
        assert_eq!(q.pop(), Some(k));
    }
    assert_eq!(q.pop(), None);
}

proptest! {
    #[test]
    fn laned_queue_matches_a_binary_heap(ops in prop::collection::vec(op(), 1..400)) {
        check(&ops);
    }
}

/// Timers re-arm through their period's FIFO lane and never touch the
/// heap, even when a slow timer's period spans many fast ones.
#[test]
fn periodic_timers_never_touch_the_heap() {
    let mut q = EventQueue::new();
    let period = |timer: u32| SimDuration::from_secs(if timer == 0 { 20 } else { 1 });
    for timer in 0..64u32 {
        q.push_periodic(period(timer), timer);
    }
    let mut last = SimTime::ZERO;
    for _ in 0..64 * 50 {
        let (now, timer) = q.pop().expect("timers re-arm forever");
        assert!(now >= last);
        last = now;
        q.push_periodic(period(timer), timer);
    }
    let s = q.stats();
    assert_eq!((s.heap_pushes, s.peak_heap_len), (0, 0));
    assert_eq!(s.fifo_pushes, 64 * 51);
}
