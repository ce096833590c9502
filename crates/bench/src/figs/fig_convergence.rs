//! Convergence diagnostics of the SFQ(D2) depth controller under a step
//! load: WordCount holds half the slots from t=0, then TeraGen's write
//! flood arrives mid-run and steps the offered load. The `ibis-metrics`
//! sampler records node 0's `L(k)`, `L_ref`, and `D(k)` each controller
//! period; the convergence module turns those series into settling time,
//! overshoot, steady-state error, and depth-oscillation amplitude —
//! the control-theoretic companion to Fig. 7's qualitative trace.

use crate::experiments::{hdd_cluster, sfqd2, tg_half, wc_half};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_metrics::convergence::{diagnose, oscillation_amplitude, zip_by_time, ConvergenceConfig};
use ibis_metrics::{Labels, MetricsCapture, MetricsConfig};
use ibis_simcore::SimDuration;

/// Virtual time at which the step load (TeraGen) arrives.
const STEP_AT_SECS: u64 = 60;

/// Runs the fig07 step-load scenario on `cluster`, the HDD testbed under
/// SFQ(D2) (`hdd_cluster(sfqd2())`) with the caller's sampler setting, and
/// returns the report (shared with `bench metrics`, so the figure and the
/// overhead record measure the same workload).
pub fn step_load_run(scale: ScaleProfile, cluster: ClusterConfig) -> RunReport {
    let mut exp = Experiment::new(cluster);
    exp.add_job(wc_half(scale).io_weight(32.0));
    exp.add_job(
        tg_half(scale)
            .io_weight(1.0)
            .arriving_at(SimDuration::from_secs(STEP_AT_SECS)),
    );
    exp.run()
}

/// Convergence diagnostics extracted from a capture's node-0 HDFS
/// controller series, plus the depth-oscillation amplitude.
pub fn controller_diagnostics(
    cap: &MetricsCapture,
) -> (ibis_metrics::convergence::ConvergenceReport, f64) {
    let labels = Labels::on(0, 0);
    let latency = cap
        .series_for("ctl_latency_ms", labels)
        .expect("ctl_latency_ms sampled");
    let reference = cap
        .series_for("ctl_ref_ms", labels)
        .expect("ctl_ref_ms sampled");
    let triples = zip_by_time(&latency.points_secs(), &reference.points_secs());
    let report = diagnose(&triples, &ConvergenceConfig::default());
    let depth = cap
        .series_for("ctl_depth", labels)
        .expect("ctl_depth sampled");
    let osc = oscillation_amplitude(&depth.values(), ConvergenceConfig::default().tail_fraction);
    (report, osc)
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig_convergence", scale.label());
    println!(
        "Convergence — SFQ(D2) controller under a step load at t={STEP_AT_SECS}s ({})\n",
        scale.label()
    );

    let r = step_load_run(
        scale,
        ClusterConfig {
            metrics: MetricsConfig::enabled(SimDuration::from_secs(1)),
            ..hdd_cluster(sfqd2())
        },
    );
    let cap = r.metrics.as_ref().expect("metrics captured");
    let (report, depth_osc) = controller_diagnostics(cap);

    let labels = Labels::on(0, 0);
    let depth = cap.series_for("ctl_depth", labels).expect("depth series");
    let latency = cap
        .series_for("ctl_latency_ms", labels)
        .expect("latency series");
    let n = depth.points.len();
    let stride = (n / 40).max(1);
    let mut table = Table::new(&["t (s)", "D", "L(k) (ms)", "L(k)/L_ref"]);
    let reference = cap.series_for("ctl_ref_ms", labels).expect("ref series");
    let ratio_at = |t: f64| -> Option<f64> {
        let l = latency
            .points_secs()
            .iter()
            .find(|p| p.0 == t)
            .map(|p| p.1)?;
        let r = reference
            .points_secs()
            .iter()
            .find(|p| p.0 == t)
            .map(|p| p.1)?;
        (r > 0.0).then(|| l / r)
    };
    for (t, d) in depth.points_secs().iter().step_by(stride) {
        table.row(&[
            format!("{t:.0}"),
            format!("{d:.0}"),
            latency
                .points_secs()
                .iter()
                .find(|p| p.0 == *t)
                .map_or("—".into(), |p| format!("{:.0}", p.1)),
            ratio_at(*t).map_or("—".into(), |v| format!("{v:.2}")),
        ]);
    }
    table.print();

    println!(
        "\nL(k) vs L_ref: settled={} settling_time={} overshoot {:.1}%, \
         steady-state error {:.1}%, depth oscillation ±{:.2} over {} samples",
        report.settled,
        report
            .settling_time_s
            .map_or("—".into(), |s| format!("{s:.0}s")),
        report.overshoot_pct,
        report.steady_state_error_pct,
        depth_osc,
        report.samples,
    );

    sink.record("samples", report.samples as f64);
    sink.record("settled", if report.settled { 1.0 } else { 0.0 });
    if let Some(s) = report.settling_time_s {
        sink.record("settling_time_s", s);
    }
    sink.record("overshoot_pct", report.overshoot_pct);
    sink.record("steady_state_error_pct", report.steady_state_error_pct);
    sink.record("tail_mean_ratio", report.tail_mean_ratio);
    sink.record("depth_oscillation", depth_osc);
    sink.record("samples_taken", cap.samples_taken as f64);
    sink.note(
        "Diagnostics of L(k) relative to L_ref (±10% band) on node 0's HDFS \
         controller. On the contended HDD the loop may track rather than \
         settle — the numbers quantify how far from the reference the \
         steady state sits; the deterministic settling guarantee is asserted \
         by the synthetic step-load test in ibis-core.",
    );
    sink
}
