//! Emits `BENCH_metrics.json` — the cost-and-correctness record of the
//! `ibis-metrics` sampler:
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
//! Usage: `metrics [--out PATH] [--prom PATH] [--csv PATH] [--check]`
//! (default record path `BENCH_metrics.json`). `--prom`/`--csv` also
//! write the Prometheus text exposition of the end-of-run snapshot and
//! the long-form CSV of the sampled series.
//!
//! `--check` is the CI overhead guard. The on-vs-off percentage is the
//! wrong gate at quick scale: the sampler fires on *virtual* time, so
//! its fixed cost dominates a deliberately short sim and the percentage
//! swings with scenario length. The scale-invariant quantity is the
//! sampling cost per captured point — `(on − off) / total_points` —
//! so `--check` exits non-zero when that exceeds the budget
//! (`IBIS_METRICS_NS_PER_POINT`, default 2000 ns; measured ~110–190 ns).
//! The raw off/on wall clocks and percentage are recorded for
//! cross-commit trend tooling; the off path's *correctness* guarantee
//! (identical events/makespan/runtimes) is asserted by
//! `metrics_do_not_perturb_results` in `ibis-cluster`.

use ibis_bench::figs::fig_convergence::{controller_diagnostics, step_load_run};
use ibis_bench::{json, ScaleProfile};
use ibis_cluster::prelude::*;
use ibis_metrics::{csv, prometheus, MetricsConfig};
use ibis_simcore::SimDuration;

/// Best-of-three wall-clock for one sampler setting, plus the last report.
fn time_sim(scale: ScaleProfile, metrics: MetricsConfig) -> (f64, RunReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let r = step_load_run(scale, metrics);
        best = best.min(r.wall_secs);
        last = Some(r);
    }
    (best, last.expect("ran"))
}

struct Args {
    out: String,
    prom: Option<String>,
    csv: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_metrics.json".to_string(),
        prom: None,
        csv: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut path_for = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} requires a path argument"))
        };
        match a.as_str() {
            "--out" => args.out = path_for("--out"),
            "--prom" => args.prom = Some(path_for("--prom")),
            "--csv" => args.csv = Some(path_for("--csv")),
            "--check" => args.check = true,
            other => panic!("unknown argument {other:?} (see the bin docs)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scale = ScaleProfile::from_env();
    let budget_ns_per_point: f64 = std::env::var("IBIS_METRICS_NS_PER_POINT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000.0);

    eprintln!("[metrics] timing step-load sim, sampler off ...");
    let (off_secs, _) = time_sim(scale, MetricsConfig::default());
    eprintln!("[metrics] timing step-load sim, sampler on ...");
    let (on_secs, on_report) = time_sim(
        scale,
        MetricsConfig::enabled(SimDuration::from_secs(1)),
    );
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
    w.number(Some("budget_ns_per_point"), budget_ns_per_point);
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
    json::write_bench(w, &args.out);

    if let Some(path) = &args.prom {
        let text = prometheus::encode(&cap.snapshot);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[metrics] prometheus exposition written to {path}");
    }
    if let Some(path) = &args.csv {
        let text = csv::export(cap);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[metrics] series CSV written to {path}");
    }

    eprintln!(
        "[metrics] {}: sim {off_secs:.2}s → {on_secs:.2}s ({overhead_pct:+.1}%, \
         {ns_per_point:.0} ns/point); \
         {} samples, {} series, {} points; L(k)/L_ref settled={} \
         (settling {}, overshoot {:.1}%, steady-state {:.1}%, depth ±{:.2})",
        args.out,
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

    if args.check && ns_per_point > budget_ns_per_point {
        eprintln!(
            "[metrics] FAIL: sampling cost {ns_per_point:.0} ns/point exceeds \
             the {budget_ns_per_point:.0} ns/point budget \
             (IBIS_METRICS_NS_PER_POINT)"
        );
        std::process::exit(1);
    }
}
