//! Fig. 7 — "Adaptation of D by SFQ(D2) based on the observed I/O latency
//! on one datanode": the per-second depth and mean-latency traces of one
//! node's HDFS scheduler during the WordCount-vs-TeraGen run, including
//! the latency spikes caused by foreground write-back flushes.
//!
//! Both curves come from the metrics sampler. It samples once per
//! controller period, on the same periodic lane as the scheduler ticks
//! and after them, so each sample sees that instant's control update.

use crate::experiments::{hdd_cluster, sfqd2, tg_half, wc_half};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_metrics::{Labels, MetricsCapture, MetricsConfig};
use ibis_simcore::SimTime;

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig07_depth_trace", scale.label());
    println!(
        "Fig. 7 — SFQ(D2) depth adaptation on node 0's HDFS device ({})\n",
        scale.label()
    );

    let mut cluster = hdd_cluster(sfqd2());
    let Policy::SfqD2(ctl) = &cluster.policy else {
        unreachable!("Fig. 7 runs SFQ(D2)")
    };
    cluster.metrics = MetricsConfig::enabled(ctl.controller.period);
    // Make flush spikes land inside the (scaled) run.
    if scale == ScaleProfile::Quick {
        if let DeviceSpec::Hdd(cfg) = &mut cluster.hdfs_device {
            cfg.flush_interval = ibis_simcore::SimDuration::from_secs(40);
        }
    }
    let mut exp = Experiment::new(cluster);
    exp.add_job(wc_half(scale).io_weight(32.0));
    exp.add_job(tg_half(scale).io_weight(1.0));
    let r = exp.run();

    let cap = r.metrics.as_ref().expect("metrics sampled");
    let (depth, latency) = controller_traces(cap);
    if let Some(refs) = r.reference_latencies_ms {
        println!(
            "profiled reference latency: read {:.1} ms, write {:.1} ms",
            refs[0], refs[1]
        );
        sink.record("l_ref_read_ms", refs[0]);
        sink.record("l_ref_write_ms", refs[1]);
    }

    // Downsample the traces for terminal output, joining the latency
    // curve (Fig. 7 plots both).
    let lat_at =
        |t: SimTime| -> Option<f64> { latency.iter().find(|(lt, _)| *lt == t).map(|&(_, v)| v) };
    let n = depth.len();
    let stride = (n / 60).max(1);
    let mut table = Table::new(&["t (s)", "D", "latency (ms)"]);
    for &(t, d) in depth.iter().step_by(stride) {
        table.row(&[
            format!("{:.0}", t.as_secs_f64()),
            format!("{d:.0}"),
            lat_at(t).map_or("—".into(), |v| format!("{v:.0}")),
        ]);
    }
    table.print();
    if !latency.is_empty() {
        let (mean, peak) = (mean(&latency), peak(&latency));
        println!("latency: mean {mean:.0} ms, peak {peak:.0} ms (flush spikes)");
        sink.record("latency_mean_ms", mean);
        sink.record("latency_peak_ms", peak);
    }

    let mean_d = mean(&depth);
    let max_d = peak(&depth);
    let min_d = depth.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
    println!("\nD: mean {mean_d:.1}, range [{min_d:.0}, {max_d:.0}] over {n} samples");
    sink.record("depth_mean", mean_d);
    sink.record("depth_min", min_d);
    sink.record("depth_max", max_d);
    sink.record("samples", n as f64);
    sink.note(
        "Paper: D adapts within [1, 12], dropping under contention and \
         during the write-back flush latency spikes (~260 s and ~790 s), \
         recovering quickly afterwards. Shape target: D is low while \
         WordCount contends, rises when TeraGen runs alone, and dips at \
         flush spikes.",
    );
    sink
}

/// `(instant, value)` points of one curve.
type Trace = Vec<(SimTime, f64)>;

/// Node 0's HDFS controller as Fig. 7 plots it: the depth the dispatcher
/// uses at every sample (the controller's float, rounded as
/// `DepthController::depth` rounds it), and the mean latency `L(k)` at
/// the samples where a control update fired (a period without
/// completions updates nothing).
fn controller_traces(cap: &MetricsCapture) -> (Trace, Trace) {
    let hdfs = Labels::on(0, 0);
    let series = |name| {
        &cap.series_for(name, hdfs)
            .expect("controller sampled")
            .points
    };
    let depth = series("ctl_depth")
        .iter()
        .map(|&(t, d)| (t, d.round().max(1.0)))
        .collect();
    // `ctl_latency_ms` starts at the first update; every later sample
    // has a point.
    let mut latency_at = series("ctl_latency_ms").iter();
    let mut updates = 0.0;
    let mut latency = Vec::new();
    for &(t, u) in series("ctl_updates") {
        if u > updates {
            let &(_, l) = latency_at
                .find(|&&(lt, _)| lt == t)
                .expect("an update sets L(k)");
            latency.push((t, l));
        }
        updates = u;
    }
    (depth, latency)
}

/// Unweighted mean of the sampled values, 0 if empty.
fn mean(trace: &[(SimTime, f64)]) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    trace.iter().map(|&(_, v)| v).sum::<f64>() / trace.len() as f64
}

/// Largest sampled value, 0 if empty.
fn peak(trace: &[(SimTime, f64)]) -> f64 {
    trace.iter().map(|&(_, v)| v).fold(0.0, f64::max)
}
