//! Property tests for the Prometheus text encoder: any registry-shaped
//! snapshot of counters, gauges and histograms must survive
//! `encode → parse → encode` with both structural equality and
//! byte-identical re-encoding.

use ibis_metrics::prometheus::{encode, parse};
use ibis_metrics::{HistogramSnapshot, Labels, MetricRow, MetricValue, Snapshot};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A finite f64 spanning many magnitudes (no NaN/Inf: equality-based
/// round-tripping excludes them by design).
fn finite(rng: &mut TestRng) -> f64 {
    (rng.next_f64() - 0.5) * 10f64.powi(rng.below(9) as i32 - 3)
}

fn gen_labels(rng: &mut TestRng) -> Labels {
    Labels {
        node: (rng.below(2) == 1).then(|| rng.below(64) as u32),
        dev: (rng.below(2) == 1).then(|| rng.below(2) as u8),
        app: (rng.below(2) == 1).then(|| rng.below(16) as u32),
    }
}

/// Build a registry-shaped snapshot: rows grouped by family, unique
/// `(name, labels)` pairs, one kind per family, histogram `count` equal to
/// the bucket-count sum (the registry maintains that invariant).
fn gen_snapshot(seed: u64) -> Snapshot {
    let mut rng = TestRng::for_case("prom_roundtrip", seed);
    let n_fam = 1 + rng.below(6) as usize;
    let mut rows = Vec::new();
    for f in 0..n_fam {
        let name = format!("fam{f}_io");
        let kind = rng.below(3);
        let mut used: Vec<Labels> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let labels = gen_labels(&mut rng);
            if used.contains(&labels) {
                continue;
            }
            used.push(labels);
            let value = match kind {
                0 => MetricValue::Counter(rng.next_u64()),
                1 => MetricValue::Gauge(finite(&mut rng)),
                _ => {
                    let mut bounds: Vec<f64> =
                        (0..rng.below(5)).map(|_| finite(&mut rng).abs()).collect();
                    bounds.sort_by(f64::total_cmp);
                    bounds.dedup();
                    let counts: Vec<u64> = (0..=bounds.len()).map(|_| rng.below(1_000)).collect();
                    let count: u64 = counts.iter().sum();
                    MetricValue::Histogram(HistogramSnapshot {
                        bounds,
                        counts,
                        sum: finite(&mut rng),
                        count,
                    })
                }
            };
            rows.push(MetricRow {
                name: name.clone(),
                labels,
                value,
            });
        }
    }
    Snapshot { rows }
}

proptest! {
    /// encode → parse recovers the exact snapshot, and re-encoding the
    /// parsed snapshot reproduces the text byte for byte.
    #[test]
    fn encode_parse_roundtrip(seed in 0u64..(1u64 << 48)) {
        let snap = gen_snapshot(seed);
        let text = encode(&snap);
        let parsed = parse(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n--- text ---\n{text}"));
        prop_assert_eq!(&parsed, &snap, "structural mismatch");
        prop_assert_eq!(encode(&parsed), text, "re-encode not byte-identical");
    }

    /// The parser rejects texts whose histogram counts are inconsistent —
    /// guarding against a silently-lossy encoder.
    #[test]
    fn parser_validates_histogram_count(extra in 1u64..1_000) {
        let snap = Snapshot { rows: vec![MetricRow {
            name: "h_io".to_string(),
            labels: Labels::NONE,
            value: MetricValue::Histogram(HistogramSnapshot {
                bounds: vec![1.0],
                counts: vec![2, 3],
                sum: 4.0,
                count: 5,
            }),
        }]};
        let text = encode(&snap).replace("h_io_count 5", &format!("h_io_count {}", 5 + extra));
        prop_assert!(parse(&text).is_err());
    }
}
