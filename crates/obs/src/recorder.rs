//! The flight recorder: a bounded per-node history of [`ObsEvent`]s.
//!
//! Events are appended to one vector in record order, and the recorder
//! counts each node's live and dropped events beside it. Once a node
//! holds `capacity` live events, each new one evicts the node's oldest:
//! the evicted event is counted as dropped at once and removed from
//! storage by the next compaction pass, one in-order sweep that deletes
//! each node's oldest stored events up to its evicted count. A pass runs
//! once evicted events are as many as live ones (and at least
//! [`COMPACT_MIN`]), so each event is swept a constant number of times
//! and a long run keeps its most recent history (the "flight recorder"
//! contract) in bounded memory.
//!
//! Memory is bounded by `nodes × capacity` live events, plus at most as
//! many evicted ones (or [`COMPACT_MIN`], if that is more) awaiting
//! compaction, each `size_of::<ObsEvent>()` bytes. Finishing a recorder
//! yields an immutable [`Recording`] — the input to the fairness auditor
//! and the trace exporters.

use crate::event::ObsEvent;

/// Recorder configuration, carried inside the cluster config.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Record events at all. Off by default: the disabled path is a single
    /// branch per emission site, keeping sweep results byte-identical.
    pub enabled: bool,
    /// Events retained per node.
    pub capacity: usize,
}

/// Default per-node capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Reads the environment: `IBIS_OBS=1` enables recording at the
    /// default per-node capacity.
    pub fn from_env() -> Self {
        let enabled = std::env::var("IBIS_OBS")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on"))
            .unwrap_or(false);
        ObsConfig {
            enabled,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// An enabled config with the given per-node capacity.
    pub fn enabled(capacity: usize) -> Self {
        ObsConfig {
            enabled: true,
            capacity: capacity.max(1),
        }
    }
}

/// Evicted events a recorder may hold before a compaction pass runs,
/// at minimum: small capacities do not compact on every event.
pub const COMPACT_MIN: usize = 1024;

/// One node's event counts.
#[derive(Debug, Clone, Copy, Default)]
struct NodeCount {
    /// Retained events: the node's newest `live` stored events.
    live: usize,
    /// Evicted events still stored: the node's oldest `stale` stored
    /// events, removed by the next compaction pass.
    stale: usize,
    /// Events evicted over the run.
    dropped: u64,
}

/// The per-run flight recorder. The engine routes stamped events here;
/// each node keeps its own bound so one chatty node cannot evict
/// another node's history.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Every stored event, in record order.
    events: Vec<ObsEvent>,
    nodes: Vec<NodeCount>,
    /// Evicted events still stored (Σ `NodeCount::stale`).
    stale: usize,
    seen: u64,
    /// Events stamped with a node the recorder does not have.
    unrouted: u64,
}

impl FlightRecorder {
    /// A recorder for `nodes` nodes with `capacity` events per node.
    pub fn new(nodes: u32, capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            events: Vec::new(),
            nodes: vec![NodeCount::default(); nodes.max(1) as usize],
            stale: 0,
            seen: 0,
            unrouted: 0,
        }
    }

    /// Records one event, evicting the node's oldest if it already
    /// holds `capacity`. An event stamped with a node outside the
    /// recorder is dropped and counted in [`Recording::dropped_total`].
    pub fn record(&mut self, ev: ObsEvent) {
        self.seen += 1;
        let Some(n) = self.nodes.get_mut(ev.node as usize) else {
            self.unrouted += 1;
            return;
        };
        self.events.push(ev);
        if n.live < self.capacity {
            n.live += 1;
        } else {
            n.stale += 1;
            n.dropped += 1;
            self.stale += 1;
            if self.stale >= self.retained().max(COMPACT_MIN) {
                self.compact();
            }
        }
    }

    /// Events offered so far (retained + dropped).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events currently retained across all nodes.
    pub fn retained(&self) -> usize {
        self.events.len() - self.stale
    }

    /// Events in storage: the retained ones plus evicted ones awaiting
    /// compaction. Always below `max(2 × retained, retained +`
    /// [`COMPACT_MIN`]`)`.
    pub fn held(&self) -> usize {
        self.events.len()
    }

    /// Removes every evicted event from storage: per node, its oldest
    /// `stale` stored events.
    fn compact(&mut self) {
        let nodes = &mut self.nodes;
        self.events.retain(|e| {
            let n = &mut nodes[e.node as usize];
            let evicted = n.stale > 0;
            n.stale -= usize::from(evicted);
            !evicted
        });
        self.stale = 0;
    }

    /// Freezes the recorder into a [`Recording`] whose events are sorted
    /// by time, then node, each node's events in record order: the order
    /// that merging per-node streams in node order and stably sorting
    /// them by time gives.
    pub fn finish(mut self, meta: RecordingMeta) -> Recording {
        if self.stale > 0 {
            self.compact();
        }
        let mut events = self.events;
        order(&mut events);
        events.shrink_to_fit();
        Recording {
            meta,
            events,
            seen: self.seen,
            dropped: self.nodes.iter().map(|n| n.dropped).collect(),
            unrouted: self.unrouted,
        }
    }
}

/// Puts `events`, given in record order, into recording order: a stable
/// sort by `(time, node)`. The engine records in time order, so that is
/// one pass that stably reorders each same-instant run by node; input
/// recorded out of time order takes the sort.
fn order(events: &mut [ObsEvent]) {
    let mut start = 0;
    while start < events.len() {
        let at = events[start].at;
        let end = start + events[start..].iter().take_while(|e| e.at == at).count();
        if events.get(end).is_some_and(|e| e.at < at) {
            events.sort_by_key(|e| (e.at, e.node));
            return;
        }
        let run = &mut events[start..end];
        if !run.is_sorted_by_key(|e| e.node) {
            run.sort_by_key(|e| e.node);
        }
        start = end;
    }
}

/// Run-level context the auditor and exporters need alongside the raw
/// event stream.
#[derive(Debug, Clone, Default)]
pub struct RecordingMeta {
    /// `(app id, io_weight)` for every application in the run — the
    /// source of truth for proportional-share expectations (weight events
    /// could be evicted from a ring; the metadata cannot).
    pub weights: Vec<(u32, f64)>,
    /// Broker sync period in nanoseconds (0 when coordination is off).
    pub sync_period_ns: u64,
    /// Number of nodes in the run.
    pub nodes: u32,
    /// Schedulers per coordination-tree rack (0 = flat broker, no rack
    /// failure domains). Lets the auditor scope rack-local fault markers
    /// (node stamp = `rack * rack_size`) to their affected node range.
    pub rack_size: u32,
}

impl RecordingMeta {
    /// The configured weight of `app` (1.0 when unknown).
    pub fn weight_of(&self, app: u32) -> f64 {
        self.weights
            .iter()
            .find(|&&(a, _)| a == app)
            .map(|&(_, w)| w)
            .unwrap_or(1.0)
    }
}

/// A frozen flight-recorder capture: the time-sorted event stream plus
/// run metadata and drop accounting. `seen() == len() + dropped_total()`.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Run metadata.
    pub meta: RecordingMeta,
    events: Vec<ObsEvent>,
    seen: u64,
    dropped: Vec<u64>,
    unrouted: u64,
}

impl Recording {
    /// The event stream, sorted by time, then node; each node's events
    /// keep their record order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events offered to the recorder over the run (retained + dropped).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted from `node`'s history.
    pub fn dropped_on(&self, node: u32) -> u64 {
        self.dropped.get(node as usize).copied().unwrap_or(0)
    }

    /// Total events lost: evicted from every node's history, plus any
    /// stamped with a node the recorder did not have.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum::<u64>() + self.unrouted
    }

    /// True if `node`'s history is incomplete (it evicted events).
    /// Invariants that reconstruct cumulative state are skipped for
    /// truncated nodes.
    pub fn truncated(&self, node: u32) -> bool {
        self.dropped_on(node) > 0
    }

    /// Approximate resident bytes of the retained events.
    pub fn retained_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<ObsEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use ibis_simcore::SimTime;

    fn ev(at: u64, node: u32, depth: u32) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(at),
            node,
            dev: 0,
            kind: EventKind::DepthAdjusted { depth },
        }
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut rec = FlightRecorder::new(1, 3);
        for i in 0..5 {
            rec.record(ev(i, 0, i as u32));
        }
        assert_eq!(rec.seen(), 5);
        assert_eq!(rec.retained(), 3);
        let r = rec.finish(RecordingMeta::default());
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped_on(0), 2);
        assert!(r.truncated(0));
        // The *newest* events survive.
        assert!(matches!(
            r.events()[0].kind,
            EventKind::DepthAdjusted { depth: 2 }
        ));
    }

    #[test]
    fn per_node_rings_are_independent() {
        let mut rec = FlightRecorder::new(2, 2);
        for i in 0..10 {
            rec.record(ev(i, 0, 0));
        }
        rec.record(ev(100, 1, 7));
        let r = rec.finish(RecordingMeta::default());
        assert_eq!(r.dropped_on(0), 8);
        assert_eq!(r.dropped_on(1), 0);
        assert!(!r.truncated(1));
        assert_eq!(r.dropped_total(), 8);
    }

    #[test]
    fn finish_merges_sorted_by_time() {
        let mut rec = FlightRecorder::new(2, 16);
        rec.record(ev(5, 1, 1));
        rec.record(ev(3, 0, 2));
        rec.record(ev(5, 0, 3));
        let r = rec.finish(RecordingMeta::default());
        let order: Vec<(u64, u32)> = r
            .events()
            .iter()
            .map(|e| (e.at.as_nanos(), e.node))
            .collect();
        assert_eq!(order, vec![(3, 0), (5, 0), (5, 1)]);
    }

    #[test]
    fn same_instant_runs_order_by_node_keeping_record_order() {
        let mut rec = FlightRecorder::new(3, 16);
        for (node, depth) in [(2, 0), (0, 1), (2, 2), (1, 3), (0, 4)] {
            rec.record(ev(7, node, depth));
        }
        rec.record(ev(8, 0, 5));
        let r = rec.finish(RecordingMeta::default());
        let order: Vec<(u32, EventKind)> = r.events().iter().map(|e| (e.node, e.kind)).collect();
        let depth = |depth| EventKind::DepthAdjusted { depth };
        assert_eq!(
            order,
            [
                (0, depth(1)),
                (0, depth(4)),
                (1, depth(3)),
                (2, depth(0)),
                (2, depth(2)),
                (0, depth(5))
            ]
        );
    }

    #[test]
    fn compaction_keeps_each_nodes_newest_events_in_bounded_storage() {
        let mut rec = FlightRecorder::new(3, 2);
        for i in 0..10_000u64 {
            rec.record(ev(i, (i % 3) as u32, i as u32));
            assert!(rec.held() < (2 * rec.retained()).max(rec.retained() + COMPACT_MIN));
        }
        let r = rec.finish(RecordingMeta::default());
        let kept: Vec<u64> = r.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(kept, [9994, 9995, 9996, 9997, 9998, 9999]);
        assert_eq!(
            (r.dropped_on(0), r.dropped_on(1), r.dropped_on(2)),
            (3332, 3331, 3331)
        );
        assert_eq!(r.seen(), r.len() as u64 + r.dropped_total());
    }

    #[test]
    fn out_of_range_events_count_as_dropped() {
        let mut rec = FlightRecorder::new(2, 4);
        rec.record(ev(1, 0, 0));
        rec.record(ev(2, 5, 0));
        let r = rec.finish(RecordingMeta::default());
        assert_eq!((r.seen(), r.len(), r.dropped_total()), (2, 1, 1));
        assert!(!r.truncated(0) && !r.truncated(1));
    }

    #[test]
    fn meta_weight_lookup() {
        let meta = RecordingMeta {
            weights: vec![(1, 32.0), (2, 1.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 8,
            rack_size: 0,
        };
        assert_eq!(meta.weight_of(1), 32.0);
        assert_eq!(meta.weight_of(9), 1.0);
    }

    #[test]
    fn env_config_defaults_off() {
        std::env::remove_var("IBIS_OBS");
        let c = ObsConfig::from_env();
        assert!(!c.enabled);
        assert_eq!(c.capacity, DEFAULT_CAPACITY);
    }
}
