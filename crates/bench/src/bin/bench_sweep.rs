//! Emits `BENCH_sweep.json` — the machine-readable record behind the
//! sweep engine's acceptance number: the full quick-scale figure suite
//! timed once serially (`IBIS_JOBS=1`) and once at the parallel width
//! (`IBIS_BENCH_JOBS`, default the host's cores). On a multi-core machine
//! the parallel pass is the `all_experiments` speedup; on a single core
//! the two times coincide (recorded as-is, with the core count).
//!
//! The record states whether the speedup is meaningful: each run is one
//! serial event loop and the sweep's calling thread only waits on its
//! workers, so the pass keeps exactly `width` threads busy. When the
//! width exceeds the host's cores, the "parallel" pass time-slices them
//! and the ratio measures scheduler overhead, not the sweep engine —
//! `speedup_meaningful` is `false` and the number must not be gated on.
//!
//! Usage: `bench_sweep [output-path]` (default `BENCH_sweep.json`).

use ibis_bench::figs::suite;
use ibis_bench::{json, ScaleProfile};
use std::hint::black_box;
use std::time::Instant;

/// Times one full suite pass at the given sweep width.
fn time_suite(jobs: usize) -> f64 {
    std::env::set_var("IBIS_JOBS", jobs.to_string());
    let scale = ScaleProfile::from_env();
    let t = Instant::now();
    for e in suite() {
        let sink = (e.run)(scale);
        black_box(sink); // figure outputs are printed, not saved
        eprintln!("[bench_sweep jobs={jobs}] {} done", e.name);
    }
    t.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let cores = ibis_core::env::available_cores();
    let par_jobs = ibis_core::env::count_from_env("IBIS_BENCH_JOBS").unwrap_or(cores);

    eprintln!("[bench_sweep] timing suite at IBIS_JOBS=1 ...");
    let serial_secs = time_suite(1);
    eprintln!("[bench_sweep] timing suite at IBIS_JOBS={par_jobs} ...");
    let parallel_secs = time_suite(par_jobs);

    // A "speedup" measured with fewer cores than workers is host
    // saturation, not the sweep engine: record it, but mark it so no
    // gate treats a time-sliced ratio as a regression.
    let speedup = serial_secs / parallel_secs;
    let speedup_meaningful = par_jobs <= cores;

    let mut w = json::bench_writer("sweep");
    w.string(Some("scale"), ScaleProfile::from_env().label());
    w.number(Some("host_cores"), cores as f64);
    w.open_object(Some("suite_wall_clock"));
    w.number(Some("experiments"), suite().len() as f64);
    w.number(Some("requested_jobs"), par_jobs as f64);
    w.number(Some("effective_workers"), par_jobs.min(cores) as f64);
    w.number(Some("jobs_1_secs"), serial_secs);
    w.number(Some(&format!("jobs_{par_jobs}_secs")), parallel_secs);
    w.number(Some("speedup"), speedup);
    w.boolean(Some("speedup_meaningful"), speedup_meaningful);
    w.string(
        Some("speedup_status"),
        if speedup_meaningful {
            "parallel speedup over dedicated cores"
        } else {
            "not_meaningful: host has fewer cores than the sweep width"
        },
    );
    w.close();
    json::write_bench(w, &out_path);
    eprintln!(
        "[bench_sweep] {out_path}: suite {serial_secs:.1}s → {parallel_secs:.1}s \
         (×{speedup:.2} at {par_jobs} jobs, {cores} cores{})",
        if speedup_meaningful { "" } else { ", not meaningful" },
    );
}
