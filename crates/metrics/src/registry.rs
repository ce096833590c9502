//! Instrument registry: gauges and fixed-bucket histograms.
//!
//! Each value lives inline in the registry's entry vector — a gauge's
//! `f64`, a histogram's bounds, bucket counts, sum and count — and has one
//! write path: [`MetricsRegistry::set_gauge`] and
//! [`MetricsRegistry::observe`] find or create the instrument and write it
//! in place. A run is single-threaded and owns its registry, so nothing
//! else holds a value, and the engine builds a registry only when
//! sampling is on, so the registry has no off switch.
//!
//! The snapshot's [`MetricValue::Counter`] kind has no cell here: it is
//! part of the exposition format, for counts that enter a [`Snapshot`] as
//! rows of their own.

use ibis_simcore::hash::FxHashMap;
use std::collections::hash_map::Entry as Slot;

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
    pub const NONE: Labels = Labels {
        node: None,
        dev: None,
        app: None,
    };

    /// Node + device scoped labels (the common case for scheduler gauges).
    pub fn on(node: u32, dev: u8) -> Self {
        Labels {
            node: Some(node),
            dev: Some(dev),
            app: None,
        }
    }

    /// Device-class scoped labels (broker instruments).
    pub fn dev(dev: u8) -> Self {
        Labels {
            node: None,
            dev: Some(dev),
            app: None,
        }
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

#[derive(Debug)]
enum Cell {
    Gauge(f64),
    Histogram(HistogramSnapshot),
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
    entries: Vec<Entry>,
    /// `(name, labels)` → position in `entries`.
    index: FxHashMap<(&'static str, Labels), usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
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
    fn cell(
        &mut self,
        name: &'static str,
        labels: Labels,
        make: impl FnOnce() -> Cell,
    ) -> &mut Cell {
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
        &mut self.entries[i].cell
    }

    /// Get or create a gauge and set it to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, labels: Labels, v: f64) {
        match self.cell(name, labels, || Cell::Gauge(0.0)) {
            Cell::Gauge(g) => *g = v,
            _ => kind_mismatch(name),
        }
    }

    /// Get or create a histogram with the given strictly-increasing bucket
    /// upper bounds and record `v` in it. Bounds are fixed at first
    /// registration.
    pub fn observe(&mut self, name: &'static str, labels: Labels, bounds: &[f64], v: f64) {
        match self.cell(name, labels, || {
            Cell::Histogram(HistogramSnapshot::empty(bounds))
        }) {
            Cell::Histogram(h) => h.record(v),
            _ => kind_mismatch(name),
        }
    }

    /// Visit `(index, name, labels, sampled value)` for every instrument
    /// in registration order. Gauges report their last write, histograms
    /// their observation count — the sampler records each as one
    /// time-series point.
    pub(crate) fn for_each_scalar(&self, mut f: impl FnMut(usize, &'static str, Labels, f64)) {
        for (i, e) in self.entries.iter().enumerate() {
            let v = match &e.cell {
                Cell::Gauge(g) => *g,
                Cell::Histogram(h) => h.count as f64,
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
                        Cell::Gauge(g) => MetricValue::Gauge(*g),
                        Cell::Histogram(h) => MetricValue::Histogram(h.clone()),
                    },
                })
                .collect(),
        }
    }
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
        self.rows
            .iter()
            .find(|r| r.name == name && r.labels == labels)
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

impl HistogramSnapshot {
    fn empty(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_get_or_create() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("depth", Labels::on(0, 1), 3.5);
        reg.set_gauge("depth", Labels::on(0, 1), 4.0);
        assert_eq!(reg.len(), 1);
        let snap = reg.snapshot();
        let row = snap.row("depth", Labels::on(0, 1)).unwrap();
        assert_eq!(row.value, MetricValue::Gauge(4.0));
    }

    #[test]
    fn histogram_buckets() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 0.9, 5.0, 50.0, 5000.0] {
            reg.observe("lat_ms", Labels::NONE, &[1.0, 10.0, 100.0], v);
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
        reg.set_gauge("x", Labels::NONE, 1.0);
        reg.observe("x", Labels::NONE, &[1.0], 1.0);
    }

    #[test]
    fn labels_distinguish_instruments() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", Labels::on(0, 0), 1.0);
        reg.set_gauge("g", Labels::on(1, 0), 2.0);
        assert_eq!(reg.len(), 2);
        let snap = reg.snapshot();
        let values: Vec<&MetricValue> = snap.rows.iter().map(|r| &r.value).collect();
        assert_eq!(values, [&MetricValue::Gauge(1.0), &MetricValue::Gauge(2.0)]);
    }
}
