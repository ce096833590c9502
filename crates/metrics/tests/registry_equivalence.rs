//! The instrument registry finds `(name, labels)` through a hash index.
//! Its behaviour must equal a registry that scans every instrument, kept
//! here as the model: random get-or-create sequences of `set_gauge` and
//! `observe` over 50 names and random labels must write one value per
//! identity, snapshot and sample in registration order, and panic on a
//! kind mismatch without registering anything.

use ibis_metrics::{Labels, MetricValue, MetricsRegistry, Sampler};
use ibis_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};

const NAMES: [&str; 50] = [
    "m00", "m01", "m02", "m03", "m04", "m05", "m06", "m07", "m08", "m09", "m10", "m11", "m12",
    "m13", "m14", "m15", "m16", "m17", "m18", "m19", "m20", "m21", "m22", "m23", "m24", "m25",
    "m26", "m27", "m28", "m29", "m30", "m31", "m32", "m33", "m34", "m35", "m36", "m37", "m38",
    "m39", "m40", "m41", "m42", "m43", "m44", "m45", "m46", "m47", "m48", "m49",
];

const BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];

const MISMATCH: &str = "already registered with a different kind";

/// The same 50 names at other addresses: identity is by content.
fn aliases() -> &'static [&'static str] {
    static ALIASES: OnceLock<Vec<&'static str>> = OnceLock::new();
    ALIASES.get_or_init(|| {
        NAMES
            .iter()
            .map(|n| &*Box::leak(n.to_string().into_boxed_str()))
            .collect()
    })
}

/// Keeps the expected kind-mismatch panics out of the test output.
fn quiet_mismatch_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            if !msg.contains(MISMATCH) {
                default(info);
            }
        }));
    });
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Gauge,
    Histogram,
}

/// The linear-scan model: registration order, kind and the scalar the
/// sampler reads (last gauge write, observation count).
#[derive(Default)]
struct Model {
    entries: Vec<(&'static str, Labels, Kind, f64)>,
}

impl Model {
    fn position(&self, name: &str, labels: Labels) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.0 == name && e.1 == labels)
    }
}

proptest! {
    #[test]
    fn hash_index_behaves_like_a_linear_scan(
        ops in prop::collection::vec(
            (
                (0u32..50, 0u32..16),
                (0u32..3, 0u32..2, 0u32..2),
                (0u32..1000, 0u32..6, prop::bool::ANY),
            ),
            1..300,
        ),
    ) {
        quiet_mismatch_panics();
        let mut reg = MetricsRegistry::new();
        let mut model = Model::default();
        let mut sampler = Sampler::new(SimDuration::from_secs(1));
        // Expected series: (model index, points) in creation order.
        let mut series: Vec<(usize, Vec<(SimTime, f64)>)> = Vec::new();
        let mut now = SimTime::ZERO;
        for ((name_ix, kind_roll), (node, dev, app), (x, sample_roll, alias)) in ops {
            let name = if alias { aliases()[name_ix as usize] } else { NAMES[name_ix as usize] };
            let labels = Labels {
                node: node.checked_sub(1),
                dev: dev.checked_sub(1).map(|d| d as u8),
                app: app.checked_sub(1),
            };
            // Mostly each name's own kind, sometimes the other one.
            let kind = match (name_ix + kind_roll / 15) % 2 {
                0 => Kind::Gauge,
                _ => Kind::Histogram,
            };
            let v = f64::from(x);
            let write = |reg: &mut MetricsRegistry| match kind {
                Kind::Gauge => reg.set_gauge(name, labels, v),
                Kind::Histogram => reg.observe(name, labels, &BOUNDS, v),
            };
            let existing = model.position(name, labels);
            if existing.is_some_and(|i| model.entries[i].2 != kind) {
                let len = reg.len();
                let r = catch_unwind(AssertUnwindSafe(|| write(&mut reg)));
                let err = r.expect_err("kind mismatch must panic");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                prop_assert!(msg.contains(MISMATCH), "unexpected panic {msg:?}");
                prop_assert_eq!(reg.len(), len);
                continue;
            }
            let i = existing.unwrap_or_else(|| {
                model.entries.push((name, labels, kind, 0.0));
                model.entries.len() - 1
            });
            write(&mut reg);
            match kind {
                Kind::Gauge => model.entries[i].3 = v,
                Kind::Histogram => model.entries[i].3 += 1.0,
            }
            prop_assert_eq!(reg.len(), model.entries.len());
            if sample_roll == 0 {
                now += SimDuration::from_secs(1);
                sampler.sample(now, &reg);
                for (k, e) in model.entries.iter().enumerate() {
                    if k == series.len() {
                        series.push((k, Vec::new()));
                    }
                    series[k].1.push((now, e.3));
                }
            }
        }

        // The snapshot lists instruments in registration order.
        let snap = reg.snapshot();
        prop_assert_eq!(snap.rows.len(), model.entries.len());
        for (row, e) in snap.rows.iter().zip(&model.entries) {
            prop_assert_eq!((row.name.as_str(), row.labels), (e.0, e.1));
            let (kind, scalar) = match &row.value {
                MetricValue::Gauge(g) => (Kind::Gauge, *g),
                MetricValue::Histogram(h) => (Kind::Histogram, h.count as f64),
                MetricValue::Counter(c) => panic!("the registry holds no counter, got {c}"),
            };
            prop_assert_eq!((kind, scalar), (e.2, e.3));
        }
        // The sampler's series follow registration order too.
        let cap = sampler.into_capture(snap);
        prop_assert_eq!(cap.series.len(), series.len());
        for (s, (i, points)) in cap.series.iter().zip(&series) {
            let e = &model.entries[*i];
            prop_assert_eq!((s.key.name.as_str(), s.key.labels), (e.0, e.1));
            prop_assert_eq!(&s.points, points);
        }
    }
}
