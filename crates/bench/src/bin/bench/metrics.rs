//! `bench metrics` → `BENCH_metrics.json`, the cost-and-correctness
//! record of the `ibis-metrics` sampler:
//!
//! 1. **Simulation wall-clock**: the fig07 step-load scenario timed with
//!    the sampler off and on (best of three each). The sampler-off path
//!    must be unchanged within noise — sampling runs on its own
//!    virtual-time event, so a disabled run pays one branch per
//!    completion and nothing else.
//! 2. **Controller convergence**: settling time, overshoot, and
//!    steady-state error of `L(k)` vs `L_ref` on node 0's HDFS
//!    controller, plus the depth-oscillation amplitude.
//!
//! `--prom PATH` and `--csv PATH` also write the Prometheus text
//! exposition of the end-of-run snapshot and the long-form CSV of the
//! sampled series.
//!
//! The gate is the sampling cost per captured point, `(on − off) /
//! total_points`, against [`NS_PER_POINT_BUDGET`]. The on-vs-off
//! percentage is the wrong gate at quick scale: the sampler fires on
//! *virtual* time, so its fixed cost dominates a deliberately short sim
//! and the percentage swings with scenario length. The raw off/on wall
//! clocks and percentage are recorded for cross-commit trend tooling; the
//! off path's *correctness* guarantee (identical events/makespan/runtimes)
//! is asserted by `metrics_do_not_perturb_results` in `ibis-cluster`.

use crate::best_of_3;
use ibis_bench::experiments::{hdd_cluster, pinned, sfqd2};
use ibis_bench::figs::fig_convergence::{controller_diagnostics, step_load_run};
use ibis_bench::gate::{Args, Baseline, Verdict};
use ibis_bench::{json, ScaleProfile};
use ibis_cluster::prelude::*;
use ibis_metrics::{csv, prometheus, MetricsConfig};
use ibis_simcore::SimDuration;

/// Sampling cost budget per captured point (release builds measure
/// ~110–190 ns).
const NS_PER_POINT_BUDGET: f64 = 2000.0;

/// The sampling cost limit. The budget is absolute, so the baseline only
/// says whether wall-clock limits apply.
fn gate(ns_per_point: f64, base: &Baseline) -> Vec<String> {
    (base.timed && ns_per_point > NS_PER_POINT_BUDGET)
        .then(|| {
            format!(
                "sampling cost {ns_per_point:.0} ns/point exceeds the \
                 {NS_PER_POINT_BUDGET:.0} ns/point budget"
            )
        })
        .into_iter()
        .collect()
}

/// Measures the record into `out`, writes the `--prom`/`--csv` exports,
/// and gates against `base`.
pub fn run(out: &str, args: &Args, base: Option<&Baseline>) -> Verdict {
    let scale = ScaleProfile::from_env();
    let timed = |metrics| {
        let cfg = ClusterConfig {
            metrics,
            ..pinned(hdd_cluster(sfqd2()))
        };
        best_of_3(|| step_load_run(scale, cfg.clone()))
    };
    eprintln!("[bench metrics] timing step-load sim, sampler off ...");
    let (off_secs, _) = timed(MetricsConfig::default());
    eprintln!("[bench metrics] timing step-load sim, sampler on ...");
    let (on_secs, on_report) = timed(MetricsConfig::enabled(SimDuration::from_secs(1)));
    let cap = on_report.metrics.as_ref().expect("sampler on");
    let overhead_pct = (on_secs / off_secs - 1.0) * 100.0;
    let ns_per_point = (on_secs - off_secs).max(0.0) * 1e9 / cap.total_points().max(1) as f64;

    let (conv, depth_osc) = controller_diagnostics(cap);

    let mut w = json::bench_writer("metrics");
    w.string(Some("scale"), scale.label());
    w.open_object(Some("sim_wall_clock"));
    w.string(Some("case"), "fig07_step_load_sfqd2");
    w.number(Some("sampler_off_secs"), off_secs);
    w.number(Some("sampler_on_secs"), on_secs);
    w.number(Some("overhead_pct"), overhead_pct);
    w.number(Some("sampling_ns_per_point"), ns_per_point);
    w.number(Some("budget_ns_per_point"), NS_PER_POINT_BUDGET);
    w.close();
    w.open_object(Some("capture"));
    w.number(Some("samples_taken"), cap.samples_taken as f64);
    w.number(Some("series"), cap.series.len() as f64);
    w.number(Some("total_points"), cap.total_points() as f64);
    w.number(Some("snapshot_rows"), cap.snapshot.rows.len() as f64);
    w.close();
    w.open_object(Some("convergence"));
    w.string(Some("series"), "ctl_latency_ms vs ctl_ref_ms, node 0 hdfs");
    w.number(Some("samples"), conv.samples as f64);
    w.number(Some("settled"), if conv.settled { 1.0 } else { 0.0 });
    w.number(
        Some("settling_time_s"),
        conv.settling_time_s.unwrap_or(f64::NAN),
    );
    w.number(Some("overshoot_pct"), conv.overshoot_pct);
    w.number(Some("steady_state_error_pct"), conv.steady_state_error_pct);
    w.number(Some("tail_mean_ratio"), conv.tail_mean_ratio);
    w.number(Some("depth_oscillation"), depth_osc);
    w.close();
    json::write_bench(w, out);

    if let Some(path) = &args.prom {
        let text = prometheus::encode(&cap.snapshot);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[bench metrics] prometheus exposition written to {path}");
    }
    if let Some(path) = &args.csv {
        let text = csv::export(cap);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[bench metrics] series CSV written to {path}");
    }

    eprintln!(
        "[bench metrics] {out}: sim {off_secs:.2}s → {on_secs:.2}s ({overhead_pct:+.1}%, \
         {ns_per_point:.0} ns/point); \
         {} samples, {} series, {} points; L(k)/L_ref settled={} \
         (settling {}, overshoot {:.1}%, steady-state {:.1}%, depth ±{:.2})",
        cap.samples_taken,
        cap.series.len(),
        cap.total_points(),
        conv.settled,
        conv.settling_time_s
            .map_or("—".into(), |s| format!("{s:.0}s")),
        conv.overshoot_pct,
        conv.steady_state_error_pct,
        depth_osc,
    );
    Ok(base.map(|b| gate(ns_per_point, b)).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_2000_ns_per_point() {
        let committed = |profile| {
            let doc = include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_metrics.json"
            ));
            Baseline::parse("BENCH_metrics.json", doc, profile)
        };
        let base = committed("release");
        assert_eq!(
            base.num("sim_wall_clock", "budget_ns_per_point"),
            Ok(NS_PER_POINT_BUDGET)
        );
        let fresh = base.num("sim_wall_clock", "sampling_ns_per_point").unwrap();
        for (ns, want) in [(fresh, 0), (1999.0, 0), (2001.0, 1)] {
            assert_eq!(gate(ns, &base).len(), want, "{ns} ns/point");
        }
        assert!(gate(2001.0, &committed("debug")).is_empty());
    }
}
