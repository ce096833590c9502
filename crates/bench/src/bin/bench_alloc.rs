//! Emits `BENCH_alloc.json` — the allocation-regression record behind
//! the slab refactor's acceptance numbers (DESIGN.md §12):
//!
//! 1. **Steady state**: the `sfq_d8_lifecycle_8flows` table micro run
//!    under a counting global allocator. The slab tables must perform
//!    **zero** heap allocations per event once warm. ns/event comes from
//!    the shared harness in `ibis_bench::tables`.
//! 2. **Full run**: a small two-job cluster simulation, reported as
//!    allocs/event over the whole run (informational — startup, report
//!    building, and workload construction are included).
//!
//! Usage: `bench_alloc [output-path] [--check <baseline.json>]`
//! (default output `BENCH_alloc.json`). With `--check`, the freshly
//! measured numbers are gated against the committed baseline: non-zero
//! steady-state slab allocs/event or a >10% ns/event regression exits
//! non-zero. Build with `--features alloc-count --release`.

use ibis_bench::alloc::{count_in, CountingAlloc};
use ibis_bench::json;
use ibis_bench::tables::{time_lifecycle, SlabTables, MICRO_CASE};
use ibis_cluster::prelude::*;
use ibis_simcore::units::GIB;
use ibis_workloads::{terasort, wordcount};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Events per steady-state measurement window (matches the shared
/// harness batch size).
const WINDOW: u64 = 200_000;

/// Allowed ns/event regression vs the committed baseline before the
/// `--check` gate fails.
const NS_REGRESSION_PCT: f64 = 10.0;

struct Steady {
    allocs_per_event: f64,
    bytes_per_event: f64,
    ns_per_event: f64,
}

/// Warm one batch, then count a window of steps, then time the same
/// closure with the shared best-of-7 protocol.
fn measure_steady(mut step: impl FnMut()) -> Steady {
    for _ in 0..WINDOW {
        step(); // warm: tables, scheduler heap, and scratch reach capacity
    }
    let (allocs, bytes, ()) = count_in(|| {
        for _ in 0..WINDOW {
            step();
        }
    });
    let ns_per_event = time_lifecycle(step);
    Steady {
        allocs_per_event: allocs as f64 / WINDOW as f64,
        bytes_per_event: bytes as f64 / WINDOW as f64,
        ns_per_event,
    }
}

/// The informational full-run workload: small enough to finish in
/// seconds, mixed enough (terasort + wordcount under SFQ(D)) to exercise
/// every engine table.
fn full_run_experiment() -> Experiment {
    let mut exp = Experiment::new(
        ClusterConfig::default().with_policy(Policy::SfqD { depth: 8 }),
    );
    exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
    exp.add_job(wordcount(GIB).max_slots(8));
    exp
}

/// Pulls the first number following `"key":` after `anchor` in a JSON
/// document. Enough parser for the fixed-shape baseline we emit
/// ourselves; `None` if either marker is missing.
fn extract_after(doc: &str, anchor: &str, key: &str) -> Option<f64> {
    let tail = &doc[doc.find(anchor)? + anchor.len()..];
    let needle = format!("\"{key}\":");
    let tail = &tail[tail.find(&needle)? + needle.len()..];
    let num: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    num.parse().ok()
}

/// Gates fresh numbers against the committed baseline. Returns the list
/// of failures (empty = pass).
fn check(baseline_path: &str, slab: &Steady) -> Vec<String> {
    let mut failures = Vec::new();
    if slab.allocs_per_event > 0.0 {
        failures.push(format!(
            "steady-state slab allocs/event = {} (must be 0)",
            slab.allocs_per_event
        ));
    }
    let doc = match std::fs::read_to_string(baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            failures.push(format!("read baseline {baseline_path}: {e}"));
            return failures;
        }
    };
    let profile_matches = doc.contains(&format!(
        "\"build_profile\": \"{}\"",
        json::build_profile()
    ));
    match extract_after(&doc, "\"steady_state_slab\"", "ns_per_event") {
        Some(base_ns) if profile_matches => {
            let limit = base_ns * (1.0 + NS_REGRESSION_PCT / 100.0);
            if slab.ns_per_event > limit {
                failures.push(format!(
                    "steady-state slab ns/event {:.1} exceeds baseline {:.1} by >{}% (limit {:.1})",
                    slab.ns_per_event, base_ns, NS_REGRESSION_PCT, limit
                ));
            }
        }
        Some(_) => eprintln!(
            "[bench_alloc] baseline build profile differs from {}; skipping ns gate",
            json::build_profile()
        ),
        None => failures.push(format!(
            "baseline {baseline_path} has no steady_state_slab.ns_per_event"
        )),
    }
    failures
}

fn main() {
    let mut out_path = "BENCH_alloc.json".to_string();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            baseline = Some(args.next().expect("--check needs a baseline path"));
        } else {
            out_path = arg;
        }
    }

    eprintln!("[bench_alloc] steady state: slab tables ...");
    let mut slab_tables = SlabTables::new();
    let slab = measure_steady(|| slab_tables.step());
    eprintln!(
        "[bench_alloc]   {:.4} allocs/event, {:.1} bytes/event, {:.0} ns/event",
        slab.allocs_per_event, slab.bytes_per_event, slab.ns_per_event
    );

    eprintln!("[bench_alloc] full run (terasort+wordcount, SFQ d=8) ...");
    let (allocs, bytes, report) = count_in(|| full_run_experiment().run());
    let events = report.events.max(1);
    eprintln!(
        "[bench_alloc]   {} events, {:.2} allocs/event, {:.1} bytes/event",
        report.events,
        allocs as f64 / events as f64,
        bytes as f64 / events as f64
    );

    let mut w = json::bench_writer("alloc");
    w.string(Some("case"), MICRO_CASE);
    w.number(Some("events_per_window"), WINDOW as f64);
    w.open_object(Some("steady_state_slab"));
    w.number(Some("allocs_per_event"), slab.allocs_per_event);
    w.number(Some("bytes_per_event"), slab.bytes_per_event);
    w.number(Some("ns_per_event"), slab.ns_per_event);
    w.close();
    w.open_object(Some("full_run"));
    w.string(Some("experiment"), "terasort_1gib+wordcount_1gib_sfq_d8");
    w.number(Some("events"), report.events as f64);
    w.number(Some("allocs_per_event"), allocs as f64 / events as f64);
    w.number(Some("bytes_per_event"), bytes as f64 / events as f64);
    w.close();
    json::write_bench(w, &out_path);
    eprintln!(
        "[bench_alloc] {out_path}: slab {:.0} ns/event, {:.4} allocs/event",
        slab.ns_per_event, slab.allocs_per_event
    );

    if let Some(baseline_path) = baseline {
        let failures = check(&baseline_path, &slab);
        if failures.is_empty() {
            eprintln!("[bench_alloc] check vs {baseline_path}: PASS");
        } else {
            for f in &failures {
                eprintln!("[bench_alloc] check FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
