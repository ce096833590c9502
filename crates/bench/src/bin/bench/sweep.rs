//! `bench sweep` → `BENCH_sweep.json`, the record behind the sweep
//! engine's acceptance number: the full quick-scale figure suite timed
//! once serially (`IBIS_JOBS=1`) and once at the host's core count. Each
//! run is one serial event loop and the sweep's calling thread only waits
//! on its workers, so a pass at the core count keeps every core busy and
//! the ratio is the `all_experiments` speedup. A one-core host runs the
//! serial pass only.

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
        eprintln!("[bench sweep jobs={jobs}] {} done", e.name);
    }
    t.elapsed().as_secs_f64()
}

/// Measures the record into `out`; it has no gate.
pub fn run(out: &str) {
    let cores = ibis_core::env::available_cores();
    eprintln!("[bench sweep] timing suite at IBIS_JOBS=1 ...");
    let serial_secs = time_suite(1);
    let parallel_secs = if cores > 1 {
        eprintln!("[bench sweep] timing suite at IBIS_JOBS={cores} ...");
        time_suite(cores)
    } else {
        serial_secs
    };
    let speedup = serial_secs / parallel_secs;

    let mut w = json::bench_writer("sweep");
    w.string(Some("scale"), ScaleProfile::from_env().label());
    w.open_object(Some("suite_wall_clock"));
    w.number(Some("experiments"), suite().len() as f64);
    w.number(Some("jobs_1_secs"), serial_secs);
    if cores > 1 {
        w.number(Some(&format!("jobs_{cores}_secs")), parallel_secs);
    }
    w.number(Some("speedup"), speedup);
    w.close();
    json::write_bench(w, out);
    eprintln!(
        "[bench sweep] {out}: suite {serial_secs:.1}s → {parallel_secs:.1}s \
         (×{speedup:.2} at {cores} jobs)"
    );
}
