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
//! Usage: `bench_alloc [--check BASELINE] [OUT]` (default output
//! `BENCH_alloc.json`). With `--check`, non-zero steady-state slab
//! allocs/event or a >10% ns/event regression against `BASELINE` exits 1.
//! This is a binary of its own, not a `bench` record, because the
//! counting allocator counts for the whole process.

use ibis_bench::alloc::{count_in, CountingAlloc};
use ibis_bench::experiments::pinned;
use ibis_bench::gate::{self, Args, Baseline, Verdict};
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

/// Allowed ns/event regression vs the baseline before the gate fails.
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
    let mut exp =
        Experiment::new(pinned(ClusterConfig::default()).with_policy(Policy::SfqD { depth: 8 }));
    exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
    exp.add_job(wordcount(GIB).max_slots(8));
    exp
}

/// Zero steady-state allocations, always; ns/event within
/// [`NS_REGRESSION_PCT`] of the baseline when it is timed.
fn gate(slab: &Steady, base: &Baseline) -> Verdict {
    let mut failures = Vec::new();
    if slab.allocs_per_event > 0.0 {
        failures.push(format!(
            "steady-state slab allocs/event = {} (must be 0)",
            slab.allocs_per_event
        ));
    }
    if base.timed {
        failures.extend(base.at_most(
            "steady_state_slab",
            "ns_per_event",
            slab.ns_per_event,
            NS_REGRESSION_PCT,
        )?);
    }
    Ok(failures)
}

fn main() {
    let args = Args::parse(std::env::args().skip(1), false).unwrap_or_else(|e| {
        eprintln!("bench_alloc: {e}\nusage: bench_alloc [--check BASELINE] [OUT]");
        std::process::exit(2);
    });
    let base = gate::baseline("bench_alloc", &args);
    let out = args.out.as_deref().unwrap_or("BENCH_alloc.json");

    eprintln!("[bench_alloc] steady state: slab tables ...");
    let mut slab_tables = SlabTables::new();
    let slab = measure_steady(|| slab_tables.step());
    eprintln!(
        "[bench_alloc]   {:.4} allocs/event, {:.1} bytes/event, {:.0} ns/event",
        slab.allocs_per_event, slab.bytes_per_event, slab.ns_per_event
    );

    eprintln!("[bench_alloc] full run (terasort+wordcount, SFQ d=8) ...");
    let (allocs, bytes, full) = count_in(|| full_run_experiment().run());
    let events = full.events.max(1);
    eprintln!(
        "[bench_alloc]   {} events, {:.2} allocs/event, {:.1} bytes/event",
        full.events,
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
    w.number(Some("events"), full.events as f64);
    w.number(Some("allocs_per_event"), allocs as f64 / events as f64);
    w.number(Some("bytes_per_event"), bytes as f64 / events as f64);
    w.close();
    json::write_bench(w, out);
    eprintln!(
        "[bench_alloc] {out}: slab {:.0} ns/event, {:.4} allocs/event",
        slab.ns_per_event, slab.allocs_per_event
    );

    if let Some(base) = &base {
        gate::report("bench_alloc", base, gate(&slab, base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_hold_against_the_committed_record() {
        let committed = |profile| {
            let doc = include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_alloc.json"
            ));
            Baseline::parse("BENCH_alloc.json", doc, profile)
        };
        let base = committed("release");
        let ns = base.num("steady_state_slab", "ns_per_event").unwrap();
        let failures = |allocs_per_event, ns_per_event, base: &Baseline| {
            let slab = Steady {
                allocs_per_event,
                bytes_per_event: 0.0,
                ns_per_event,
            };
            gate(&slab, base).unwrap().len()
        };
        // 0 allocs/event, in any build; ns/event +10 %.
        for (allocs, factor, want) in [
            (0.0, 1.0, 0),
            (0.0, 1.099, 0),
            (0.0, 1.101, 1),
            (1e-6, 1.0, 1),
        ] {
            assert_eq!(
                failures(allocs, ns * factor, &base),
                want,
                "{allocs} allocs, ns ×{factor}"
            );
        }
        assert_eq!(failures(1e-6, ns * 2.0, &committed("debug")), 1);
    }
}
