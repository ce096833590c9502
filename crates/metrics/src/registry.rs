//! Instrument registry: counters, gauges, and fixed-bucket histograms.
//!
//! Instruments live behind `Arc`-shared atomic cells so call sites can hold
//! cheap clonable handles while the registry retains ownership for
//! snapshotting. A registry created with [`MetricsRegistry::disabled`] hands
//! out inert handles whose operations are a single `None` branch — the same
//! zero-cost-when-off contract as the `ibis-obs` flight recorder.
//!
//! Values use relaxed atomics: a simulation run is single-threaded, and the
//! parallel sweep engine gives each run its own registry, so the atomics are
//! only for shared-ownership ergonomics, not cross-thread contention.

use ibis_simcore::hash::FxHashMap;
use std::collections::hash_map::Entry as Slot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Label set attached to an instrument. All IBIS telemetry is identified by
/// at most (node, device class, application), so labels are a fixed struct
/// rather than an open-ended map — comparison and sorting stay trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Labels {
    /// Node index within the cluster, if node-scoped.
    pub node: Option<u32>,
    /// Device class (0 = HDFS disk, 1 = scratch disk), if device-scoped.
    pub dev: Option<u8>,
    /// Application (flow) id, if per-flow.
    pub app: Option<u32>,
}

impl Labels {
    /// No labels: a cluster-global instrument.
    pub const NONE: Labels = Labels { node: None, dev: None, app: None };

    /// Node + device scoped labels (the common case for scheduler gauges).
    pub fn on(node: u32, dev: u8) -> Self {
        Labels { node: Some(node), dev: Some(dev), app: None }
    }

    /// Device-class scoped labels (broker instruments).
    pub fn dev(dev: u8) -> Self {
        Labels { node: None, dev: Some(dev), app: None }
    }

    /// Return a copy with the application label set.
    pub fn with_app(mut self, app: Option<u32>) -> Self {
        self.app = app;
        self
    }

    /// True if no label is set.
    pub fn is_empty(&self) -> bool {
        self.node.is_none() && self.dev.is_none() && self.app.is_none()
    }
}

/// Shared histogram cell: fixed upper bounds, one atomic bucket per bound
/// plus an overflow bucket, and running sum/count.
#[derive(Debug)]
pub(crate) struct HistoCell {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl HistoCell {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistoCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) + v;
        self.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Handle to a monotonic counter. No-op when obtained from a disabled
/// registry.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to a gauge (last-write-wins f64). No-op when obtained from a
/// disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a disabled handle).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Handle to a fixed-bucket histogram. No-op when obtained from a disabled
/// registry.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistoCell>>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.observe(v);
        }
    }

    /// Total number of observations (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistoCell>),
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    labels: Labels,
    cell: Cell,
}

/// The instrument registry. Registration is get-or-create keyed on
/// `(name, labels)`. A hash index finds an instrument in O(1) however
/// many a run registers (a SWIM run with tracing creates ~2,200), while
/// the dense `entries` vector keeps registration order — which is also
/// sampling, series and export order — deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    entries: Vec<Entry>,
    /// `(name, labels)` → position in `entries`.
    index: FxHashMap<(&'static str, Labels), usize>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// A disabled registry: every handle it returns is an inert no-op and
    /// nothing is ever allocated or retained.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no instrument has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cell registered under `(name, labels)`, created by `make` on
    /// first use. Callers check the kind.
    fn cell(&mut self, name: &'static str, labels: Labels, make: impl FnOnce() -> Cell) -> &Cell {
        let i = match self.index.entry((name, labels)) {
            Slot::Occupied(e) => *e.get(),
            Slot::Vacant(e) => {
                let i = self.entries.len();
                e.insert(i);
                self.entries.push(Entry {
                    name,
                    labels,
                    cell: make(),
                });
                i
            }
        };
        &self.entries[i].cell
    }

    /// Get or create a counter.
    pub fn counter(&mut self, name: &'static str, labels: Labels) -> Counter {
        if !self.enabled {
            return Counter(None);
        }
        match self.cell(name, labels, || Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Cell::Counter(c) => Counter(Some(c.clone())),
            _ => kind_mismatch(name),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&mut self, name: &'static str, labels: Labels) -> Gauge {
        if !self.enabled {
            return Gauge(None);
        }
        match self.cell(name, labels, new_gauge) {
            Cell::Gauge(c) => Gauge(Some(c.clone())),
            _ => kind_mismatch(name),
        }
    }

    /// Get or create a gauge and set it to `v` — [`MetricsRegistry::gauge`]
    /// followed by [`Gauge::set`], without taking a handle.
    pub fn set_gauge(&mut self, name: &'static str, labels: Labels, v: f64) {
        if !self.enabled {
            return;
        }
        match self.cell(name, labels, new_gauge) {
            Cell::Gauge(c) => c.store(v.to_bits(), Ordering::Relaxed),
            _ => kind_mismatch(name),
        }
    }

    /// Get or create a histogram with the given strictly-increasing bucket
    /// upper bounds. Bounds are fixed at first registration.
    pub fn histogram(&mut self, name: &'static str, labels: Labels, bounds: &[f64]) -> Histogram {
        if !self.enabled {
            return Histogram(None);
        }
        match self.cell(name, labels, || {
            Cell::Histogram(Arc::new(HistoCell::new(bounds)))
        }) {
            Cell::Histogram(c) => Histogram(Some(c.clone())),
            _ => kind_mismatch(name),
        }
    }

    /// Get or create a histogram and record `v` in it —
    /// [`MetricsRegistry::histogram`] followed by [`Histogram::observe`],
    /// without taking a handle.
    pub fn observe(&mut self, name: &'static str, labels: Labels, bounds: &[f64], v: f64) {
        if !self.enabled {
            return;
        }
        match self.cell(name, labels, || {
            Cell::Histogram(Arc::new(HistoCell::new(bounds)))
        }) {
            Cell::Histogram(c) => c.observe(v),
            _ => kind_mismatch(name),
        }
    }

    /// Visit `(index, name, labels, sampled value)` for every scalar
    /// instrument in registration order. Counters report their value,
    /// gauges their last write, histograms their observation count — the
    /// sampler records each as one time-series point.
    pub(crate) fn for_each_scalar(&self, mut f: impl FnMut(usize, &'static str, Labels, f64)) {
        for (i, e) in self.entries.iter().enumerate() {
            let v = match &e.cell {
                Cell::Counter(c) => c.load(Ordering::Relaxed) as f64,
                Cell::Gauge(c) => f64::from_bits(c.load(Ordering::Relaxed)),
                Cell::Histogram(c) => c.count.load(Ordering::Relaxed) as f64,
            };
            f(i, e.name, e.labels, v);
        }
    }

    /// Snapshot every instrument's current value, in registration order.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            rows: self
                .entries
                .iter()
                .map(|e| MetricRow {
                    name: e.name.to_string(),
                    labels: e.labels,
                    value: match &e.cell {
                        Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                        Cell::Gauge(c) => {
                            MetricValue::Gauge(f64::from_bits(c.load(Ordering::Relaxed)))
                        }
                        Cell::Histogram(c) => MetricValue::Histogram(c.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn new_gauge() -> Cell {
    Cell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
}

fn kind_mismatch(name: &str) -> ! {
    panic!("metric {name:?} already registered with a different kind")
}

/// Point-in-time snapshot of every registered instrument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// One row per instrument, in registration order.
    pub rows: Vec<MetricRow>,
}

impl Snapshot {
    /// Find a row by name and labels.
    pub fn row(&self, name: &str, labels: Labels) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.name == name && r.labels == labels)
    }
}

/// One instrument's identity and value within a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Instrument name.
    pub name: String,
    /// Instrument labels.
    pub labels: Labels,
    /// Captured value.
    pub value: MetricValue,
}

/// Captured value of one instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Captured histogram state: per-bucket (non-cumulative) counts, where
/// `counts[i]` pairs with `bounds[i]` and the final entry counts
/// observations above every bound.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Strictly-increasing bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Non-cumulative bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("reqs_total", Labels::on(0, 1));
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("depth", Labels::on(0, 1));
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        // get-or-create returns a handle to the same cell
        let c2 = reg.counter("reqs_total", Labels::on(0, 1));
        c2.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let mut reg = MetricsRegistry::disabled();
        let c = reg.counter("reqs_total", Labels::NONE);
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = reg.gauge("depth", Labels::NONE);
        g.set(1.0);
        assert_eq!(g.get(), 0.0);
        let h = reg.histogram("lat", Labels::NONE, &[1.0, 2.0]);
        h.observe(1.5);
        assert_eq!(h.count(), 0);
        assert!(reg.is_empty());
        assert!(reg.snapshot().rows.is_empty());
    }

    #[test]
    fn histogram_buckets() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ms", Labels::NONE, &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.9, 5.0, 50.0, 5000.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let row = snap.row("lat_ms", Labels::NONE).unwrap();
        match &row.value {
            MetricValue::Histogram(hs) => {
                assert_eq!(hs.counts, vec![2, 1, 1, 1]);
                assert_eq!(hs.count, 5);
                assert!((hs.sum - 5056.4).abs() < 1e-9);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x", Labels::NONE);
        reg.gauge("x", Labels::NONE);
    }

    #[test]
    fn labels_distinguish_instruments() {
        let mut reg = MetricsRegistry::new();
        let a = reg.gauge("g", Labels::on(0, 0));
        let b = reg.gauge("g", Labels::on(1, 0));
        a.set(1.0);
        b.set(2.0);
        assert_eq!(a.get(), 1.0);
        assert_eq!(b.get(), 2.0);
        assert_eq!(reg.len(), 2);
    }
}
