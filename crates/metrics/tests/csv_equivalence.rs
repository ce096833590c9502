//! The long-form CSV exporter formats each series' label prefix and each
//! sample instant's time field once. Its bytes must equal those of the
//! straightforward per-row formatter kept here as the reference: for
//! series born mid-run, points dropped as non-finite, missing labels,
//! instants only some series hold, and `export_with` extra rows.

use ibis_metrics::csv::{export, export_with, ExtraRow, HEADER};
use ibis_metrics::{Labels, MetricsCapture, MetricsRegistry, Sampler, Series, SeriesKey};
use ibis_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::fmt::Write as _;

/// The exporter as one `format!` per point.
fn reference(capture: &MetricsCapture, extra: &[ExtraRow]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for series in &capture.series {
        let k = &series.key;
        let node = k.labels.node.map(|v| v.to_string()).unwrap_or_default();
        let dev = k.labels.dev.map(|v| v.to_string()).unwrap_or_default();
        let app = k.labels.app.map(|v| v.to_string()).unwrap_or_default();
        for &(t, v) in &series.points {
            let _ = writeln!(
                out,
                "{},{node},{dev},{app},{:?},{v:?}",
                k.name,
                t.as_secs_f64()
            );
        }
    }
    for r in extra {
        let _ = writeln!(out, "{},,,{},{:?},{:?}", r.metric, r.app, r.t_secs, r.value);
    }
    out
}

const NAMES: [&str; 6] = [
    "ctl_depth",
    "sfq_vtime",
    "broker_total_bytes",
    "io_latency_ms",
    "tenant_jobs_finished",
    "engine_events_total",
];

/// A value: whole numbers of every size, fractions, signed zeros,
/// non-finite values (which the sampler drops) and large magnitudes.
fn value(kind: u32, x: u64) -> f64 {
    match kind {
        0 => (x % 1000) as f64,
        1 => -((x % 100_000) as f64),
        2 => (x >> 11) as f64,
        3 => (x % 10_000) as f64 / 7.0,
        4 => f64::from_bits(x),
        5 => [0.0, -0.0, 9.0e15, 1.0e16, 2f64.powi(53) + 2.0, 1.0e-5][x as usize % 6],
        6 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][x as usize % 3],
        _ => x as f64 * 1.0e-3,
    }
}

fn labels(node: u32, dev: u32, app: u32) -> Labels {
    Labels {
        node: node.checked_sub(1),
        dev: dev.checked_sub(1).map(|d| d as u8),
        app: app.checked_sub(1),
    }
}

proptest! {
    /// Captures from the real sampler: gauges registered at random
    /// points of the run, so series start at different sample instants.
    #[test]
    fn sampled_captures_match_the_reference(
        steps in prop::collection::vec(
            ((0u32..6, 0u32..3, 0u32..3), (0u32..3, 0u32..8, 0u64..u64::MAX), 0u32..4),
            1..80,
        ),
        period_ms in 1u64..3_000,
        extra in prop::collection::vec((0u32..4, 0u64..u64::MAX, 0u32..8), 0..6),
    ) {
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(SimDuration::from_millis(period_ms));
        let mut now = SimTime::ZERO;
        for ((name, node, dev), (app, kind, x), sample) in steps {
            reg.set_gauge(NAMES[name as usize], labels(node, dev, app), value(kind, x));
            if sample == 0 {
                now += SimDuration::from_millis(period_ms);
                sampler.sample(now, &reg);
            }
        }
        now += SimDuration::from_millis(period_ms);
        sampler.sample(now, &reg);
        let cap = sampler.into_capture(reg.snapshot());
        let extra: Vec<ExtraRow> = extra
            .into_iter()
            .map(|(app, x, kind)| ExtraRow {
                metric: format!("latency_component_ms/c{}", x % 6),
                app,
                t_secs: now.as_secs_f64(),
                value: value(kind % 6, x),
            })
            .collect();
        prop_assert_eq!(export(&cap), reference(&cap, &[]));
        prop_assert_eq!(export_with(&cap, &extra), reference(&cap, &extra));
    }

    /// Hand-built captures whose series hold arbitrary, partly disjoint
    /// instant sets (including instants no earlier series holds).
    #[test]
    fn arbitrary_instant_sets_match_the_reference(
        series in prop::collection::vec(
            (
                (0u32..6, 0u32..3, 0u32..3),
                prop::collection::vec((0u64..40, 0u32..8, 0u64..u64::MAX), 0..30),
            ),
            0..12,
        ),
    ) {
        let series: Vec<Series> = series
            .into_iter()
            .map(|((name, node, dev), points)| {
                let mut points: Vec<(SimTime, f64)> = points
                    .into_iter()
                    .map(|(t, kind, x)| (SimTime::from_nanos(t * 250_000_000), value(kind, x)))
                    .filter(|&(_, v)| v.is_finite())
                    .collect();
                points.sort_by_key(|&(t, _)| t);
                Series {
                    key: SeriesKey {
                        name: NAMES[name as usize].to_string(),
                        labels: labels(node, dev, name % 3),
                    },
                    points,
                }
            })
            .collect();
        let cap = MetricsCapture {
            series,
            ..MetricsCapture::default()
        };
        prop_assert_eq!(export(&cap), reference(&cap, &[]));
    }
}
