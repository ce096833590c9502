//! `bench` — measures the `BENCH_*.json` records and gates them against
//! the committed ones.
//!
//! * `bench <record> [--check BASELINE] [OUT]` measures one record and
//!   writes it to `OUT` (default `BENCH_<record>.json`). With `--check`
//!   it exits 1 when a fresh number breaks a limit against `BASELINE`;
//!   wall-clock limits apply only when `BASELINE` was measured under this
//!   binary's build profile. `bench metrics` also takes `--prom PATH` and
//!   `--csv PATH`.
//! * `bench all [DIR]` measures every record into `DIR` (default `.`).
//!
//! Records: `metrics`, `obs` and `scale` (see their modules), `sweep`
//! (the figure suite's wall clock), `trace` and `workloads`.
//! `BENCH_alloc.json` comes from the separate `bench_alloc` binary, whose
//! counting global allocator would tax every record here.

mod metrics;
mod obs;
mod scale;
mod sweep;
mod trace;
mod workloads;

use ibis_bench::gate::{self, Args, Baseline, Verdict};
use ibis_cluster::prelude::RunReport;
use std::path::Path;

/// Every record, in `bench all` order.
const RECORDS: [&str; 6] = ["metrics", "obs", "scale", "sweep", "trace", "workloads"];

fn usage(problem: &str) -> ! {
    eprintln!("bench: {problem}");
    eprintln!("usage: bench <record> [--check BASELINE] [OUT]   (bench metrics also: --prom PATH --csv PATH)");
    eprintln!("       bench all [DIR]");
    eprintln!("records: {}", RECORDS.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let args = Args::parse(argv, name == "metrics").unwrap_or_else(|e| usage(&e));
    if name == "all" {
        if args.check.is_some() {
            usage("bench all takes no --check");
        }
        let dir = Path::new(args.out.as_deref().unwrap_or("."));
        for record in RECORDS {
            let out = dir.join(format!("BENCH_{record}.json"));
            // No baseline, so the verdict is empty.
            let _ = measure(
                record,
                out.to_str().expect("UTF-8 output path"),
                &Args::default(),
                None,
            );
        }
        return;
    }
    let base = gate::baseline(&format!("bench {name}"), &args);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{name}.json"));
    let verdict = measure(&name, &out, &args, base.as_ref());
    if let Some(base) = &base {
        gate::report(&format!("bench {name}"), base, verdict);
    }
}

/// Measures `record` into `out` and gates it against `base`, if given.
/// An unknown record, or a baseline for one without a gate, is a usage
/// error.
fn measure(record: &str, out: &str, args: &Args, base: Option<&Baseline>) -> Verdict {
    match (record, base) {
        ("metrics", _) => metrics::run(out, args, base),
        ("obs", None) => {
            obs::run(out);
            Ok(Vec::new())
        }
        ("scale", _) => scale::run(out, base),
        ("sweep", None) => {
            sweep::run(out);
            Ok(Vec::new())
        }
        ("trace", _) => trace::run(out, base),
        ("workloads", _) => workloads::run(out, base),
        ("obs" | "sweep", Some(_)) => usage(&format!("bench {record} has no gate")),
        _ => usage(&format!("unknown record {record:?}")),
    }
}

/// Best-of-three wall clock of a simulation, with the last report.
fn best_of_3(mut run: impl FnMut() -> RunReport) -> (f64, RunReport) {
    let mut last = run();
    let mut best = last.wall_secs;
    for _ in 1..3 {
        last = run();
        best = best.min(last.wall_secs);
    }
    (best, last)
}
