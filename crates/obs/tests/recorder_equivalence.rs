//! The flight recorder stores events in one append-only vector with
//! per-node counts, removes evicted events in compaction passes, and
//! orders the recording in one pass. Its behaviour must equal a recorder
//! that keeps one ring per node, concatenates the rings in node order and
//! stably sorts the result by time, kept here as the model. Streams have
//! 1–16 nodes, capacities 1–64 or unbounded, and come either in time
//! order with same-instant runs that interleave nodes (as the engine
//! records them) or in arbitrary order. Events, drops per node, `seen`
//! and `retained` must be equal, storage must stay within its documented
//! bound, and `seen` must equal retained plus dropped, events stamped
//! with a node the recorder does not have included.

use ibis_obs::recorder::COMPACT_MIN;
use ibis_obs::{EventKind, FlightRecorder, ObsEvent, RecordingMeta};
use ibis_simcore::SimTime;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The model: one bounded ring per node.
struct Rings {
    capacity: usize,
    rings: Vec<VecDeque<ObsEvent>>,
    dropped: Vec<u64>,
    seen: u64,
}

impl Rings {
    fn new(nodes: u32, capacity: usize) -> Self {
        Rings {
            capacity,
            rings: vec![VecDeque::new(); nodes as usize],
            dropped: vec![0; nodes as usize],
            seen: 0,
        }
    }

    fn record(&mut self, ev: ObsEvent) {
        self.seen += 1;
        let n = ev.node as usize;
        if self.rings[n].len() == self.capacity {
            self.rings[n].pop_front();
            self.dropped[n] += 1;
        }
        self.rings[n].push_back(ev);
    }

    fn retained(&self) -> usize {
        self.rings.iter().map(VecDeque::len).sum()
    }

    fn finish(self) -> (Vec<ObsEvent>, Vec<u64>, u64) {
        let mut events: Vec<ObsEvent> = self.rings.into_iter().flatten().collect();
        events.sort_by_key(|e| e.at);
        (events, self.dropped, self.seen)
    }
}

/// SplitMix64: the stream generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `len` events on `nodes` nodes (plus `extra` nodes the recorder does
/// not have), each with a distinct payload. Time-ordered streams advance
/// by 0–2 ns per event, so most instants hold several nodes' events.
fn stream(seed: u64, nodes: u32, extra: u32, len: usize, ordered: bool) -> Vec<ObsEvent> {
    let mut rng = Rng(seed);
    let mut t = 0;
    (0..len)
        .map(|i| {
            t = if ordered {
                t + rng.below(3)
            } else {
                rng.below(16)
            };
            ObsEvent {
                at: SimTime::from_nanos(t),
                node: rng.below(u64::from(nodes + extra)) as u32,
                dev: rng.below(2) as u8,
                kind: EventKind::DepthAdjusted { depth: i as u32 },
            }
        })
        .collect()
}

/// Feeds `events` to the recorder and to the model (which sees only the
/// recorder's own nodes) and compares them throughout.
fn check(nodes: u32, capacity: usize, events: &[ObsEvent]) {
    let mut rec = FlightRecorder::new(nodes, capacity);
    let mut model = Rings::new(nodes, capacity);
    let mut unrouted = 0;
    for &ev in events {
        rec.record(ev);
        if ev.node < nodes {
            model.record(ev);
        } else {
            unrouted += 1;
        }
        let retained = model.retained();
        assert_eq!(rec.retained(), retained);
        assert_eq!(rec.seen(), model.seen + unrouted);
        assert!(
            rec.held() < (2 * retained).max(retained + COMPACT_MIN),
            "{} events held for {retained} retained",
            rec.held()
        );
    }
    let r = rec.finish(RecordingMeta::default());
    let (expect, dropped, seen) = model.finish();
    assert_eq!(r.events(), &expect[..], "nodes={nodes} capacity={capacity}");
    for (n, &d) in dropped.iter().enumerate() {
        assert_eq!(r.dropped_on(n as u32), d, "drops on node {n}");
    }
    assert_eq!(r.dropped_total(), dropped.iter().sum::<u64>() + unrouted);
    assert_eq!(r.seen(), seen + unrouted);
    assert_eq!(r.seen(), r.len() as u64 + r.dropped_total());
}

fn capacity() -> impl Strategy<Value = usize> {
    prop_oneof![3 => 1usize..65, 1 => Just(usize::MAX)]
}

proptest! {
    #[test]
    fn time_ordered_streams_match_the_ring_model(
        seed in 0u64..u64::MAX,
        nodes in 1u32..17,
        capacity in capacity(),
        len in 0usize..4096,
    ) {
        check(nodes, capacity, &stream(seed, nodes, 0, len, true));
    }

    #[test]
    fn arbitrary_order_streams_match_the_ring_model(
        seed in 0u64..u64::MAX,
        nodes in 1u32..17,
        capacity in capacity(),
        len in 0usize..4096,
    ) {
        check(nodes, capacity, &stream(seed, nodes, 0, len, false));
    }

    #[test]
    fn events_for_missing_nodes_count_as_dropped(
        seed in 0u64..u64::MAX,
        nodes in 1u32..17,
        capacity in capacity(),
        ordered in prop::bool::ANY,
    ) {
        check(nodes, capacity, &stream(seed, nodes, 2, 512, ordered));
    }
}
