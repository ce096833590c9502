//! Long-form CSV export of sampled series, one row per point — the shape
//! pandas/R/gnuplot want for faceted plots of the control loop.

use crate::sampler::MetricsCapture;
use ibis_simcore::time::SimTime;
use std::fmt::Write as _;

/// Column header emitted by [`export`].
pub const HEADER: &str = "metric,node,dev,app,t_secs,value";

/// An extra row for [`export_with`]: an app-labelled end-of-run value
/// from another subsystem (e.g. `ibis-trace` latency attribution),
/// joined onto the sampled series without any schema change. `t_secs`
/// is the row's time column; end-of-run summaries pass the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtraRow {
    /// Metric name (may carry a `/component` suffix).
    pub metric: String,
    /// Application (flow) id.
    pub app: u32,
    /// Time column, seconds.
    pub t_secs: f64,
    /// The value.
    pub value: f64,
}

/// Render every sampled point as `metric,node,dev,app,t_secs,value` rows.
/// Missing labels are empty fields. Values use shortest-exact float
/// formatting so the CSV round-trips through `f64::from_str`.
pub fn export(capture: &MetricsCapture) -> String {
    export_with(capture, &[])
}

/// [`export`] plus caller-supplied rows in the same long-form schema —
/// the join point other subsystems use to land per-app summaries (node
/// and dev stay empty, as for any cluster-wide app series) in the same
/// file the sampled series already occupy.
///
/// Every series is sampled at the same instants, so each series'
/// `metric,node,dev,app,` prefix and each instant's `t_secs` field are
/// formatted once; only the value is formatted per row.
pub fn export_with(capture: &MetricsCapture, extra: &[ExtraRow]) -> String {
    let mut out = String::with_capacity(64 * (capture.total_points() + extra.len() + 1));
    out.push_str(HEADER);
    out.push('\n');
    let mut instants = Instants::default();
    let mut prefix = String::new();
    for series in &capture.series {
        let k = &series.key;
        prefix.clear();
        let _ = write!(prefix, "{},", k.name);
        for label in [k.labels.node, k.labels.dev.map(u32::from), k.labels.app] {
            if let Some(v) = label {
                let _ = write!(prefix, "{v}");
            }
            prefix.push(',');
        }
        instants.rewind();
        for &(t, v) in &series.points {
            out.push_str(&prefix);
            out.push_str(instants.field(t));
            out.push(',');
            push_value(&mut out, v);
            out.push('\n');
        }
    }
    for r in extra {
        let _ = writeln!(out, "{},,,{},{:?},{:?}", r.metric, r.app, r.t_secs, r.value);
    }
    out
}

/// Appends `v` exactly as `{:?}` renders it. Most sampled values are
/// whole numbers (counts, bytes, depths); for those `{:?}` prints the
/// integer's digits and `.0` — below 2^53 no shorter digit string lies
/// within half an ulp of an integer — which integer formatting produces
/// for a fraction of the cost. Everything else, and `-0.0`, goes through
/// `{:?}` itself.
fn push_value(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9.0e15 && (v != 0.0 || v.is_sign_positive()) {
        let _ = write!(out, "{}.0", v as i64);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// The `t_secs` fields of the sample instants seen so far, sorted by
/// time. A series' points are in time order, so a cursor that only moves
/// forward finds each instant in amortised O(1); an instant the cursor
/// has not seen (a series holding a point that every earlier series
/// dropped) is formatted and inserted in place.
#[derive(Default)]
struct Instants {
    fields: Vec<(SimTime, String)>,
    cursor: usize,
}

impl Instants {
    /// Restarts the cursor for the next series.
    fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// The formatted `t_secs` field of instant `t`.
    fn field(&mut self, t: SimTime) -> &str {
        while self.cursor < self.fields.len() && self.fields[self.cursor].0 < t {
            self.cursor += 1;
        }
        if self.fields.get(self.cursor).is_none_or(|f| f.0 != t) {
            self.fields
                .insert(self.cursor, (t, format!("{:?}", t.as_secs_f64())));
        }
        &self.fields[self.cursor].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Labels, MetricsRegistry};
    use crate::sampler::Sampler;
    use ibis_simcore::time::{SimDuration, SimTime};

    #[test]
    fn export_long_form() {
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(SimDuration::from_secs(1));
        let flow = Labels::on(0, 1).with_app(Some(3));
        reg.set_gauge("ctl_depth", Labels::on(0, 1), 4.0);
        reg.set_gauge("sfq_flow_backlog_reqs", flow, 2.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(1), &reg);
        reg.set_gauge("ctl_depth", Labels::on(0, 1), 5.5);
        reg.set_gauge("sfq_flow_backlog_reqs", flow, 3.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(2), &reg);
        let cap = sampler.into_capture(reg.snapshot());

        let text = export(&cap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], HEADER);
        assert_eq!(lines.len(), 5);
        assert!(lines.contains(&"ctl_depth,0,1,,1.0,4.0"));
        assert!(lines.contains(&"ctl_depth,0,1,,2.0,5.5"));
        assert!(lines.contains(&"sfq_flow_backlog_reqs,0,1,3,1.0,2.0"));
        assert!(lines.contains(&"sfq_flow_backlog_reqs,0,1,3,2.0,3.0"));
    }

    #[test]
    fn values_render_as_debug() {
        let mut vals = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e-7,
            1e15,
            8.999_999_999_999_999e15,
            9.0e15,
        ];
        vals.extend([
            2f64.powi(52),
            2f64.powi(52) + 1.0,
            2f64.powi(53) - 1.0,
            2f64.powi(53),
        ]);
        vals.extend([
            1e16,
            1e17,
            -123_456_789.0,
            4_294_967_296.0,
            1.0e-4,
            0.1 + 0.2,
        ]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vals.push((x >> 11) as f64);
            vals.push(-((x >> 20) as f64));
            vals.push(f64::from_bits(x));
        }
        for v in vals.into_iter().filter(|v| v.is_finite()) {
            let mut got = String::new();
            push_value(&mut got, v);
            assert_eq!(got, format!("{v:?}"), "bits {:#x}", v.to_bits());
        }
    }

    #[test]
    fn export_with_joins_extra_rows() {
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(SimDuration::from_secs(1));
        reg.set_gauge("ctl_depth", Labels::on(0, 1), 4.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(1), &reg);
        let cap = sampler.into_capture(reg.snapshot());

        let extra = vec![ExtraRow {
            metric: "latency_component_ms/queue_wait".into(),
            app: 3,
            t_secs: 12.5,
            value: 7.25,
        }];
        let text = export_with(&cap, &extra);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], HEADER);
        assert!(lines.contains(&"ctl_depth,0,1,,1.0,4.0"));
        assert!(lines.contains(&"latency_component_ms/queue_wait,,,3,12.5,7.25"));
        // Same column count everywhere: the join adds rows, not schema.
        for l in &lines {
            assert_eq!(l.matches(',').count(), 5, "bad row: {l}");
        }
    }
}
