//! `bench trace` → `BENCH_trace.json`, the record behind the
//! causal-tracing overhead acceptance (DESIGN.md §16): what span assembly
//! costs the engine, and — the hard requirement — that the trace-*off*
//! path still runs at the untraced event rate.
//!
//! One scenario, [`arrival_run`], run with tracing off and with tracing
//! on. The metrics are ns of wall clock per simulation event for each
//! mode, and the relative overhead of the traced run. The two reports
//! must agree on event count and makespan (tracing is non-perturbing by
//! construction; the integration tests assert byte-identity, this record
//! spot-checks it).
//!
//! The gate fails when the trace-off event cost regresses materially
//! against the baseline — and, when `BENCH_workloads.json` is readable in
//! the working directory, against its untraced arrival run too, holding
//! the zero-cost-when-off claim to the pre-tracing number.

use crate::workloads::{arrival_run, ARRIVAL_JOBS, REGRESSION_PCT};
use ibis_bench::gate::{Baseline, Verdict};
use ibis_bench::{json, ScaleProfile};
use ibis_trace::TraceConfig;

/// The untraced arrival-run record the trace-off cost is also held to.
const WORKLOADS_BASELINE: &str = "BENCH_workloads.json";

/// The trace-off cost limit against the trace baseline and, when given,
/// the workloads baseline's arrival run; both are wall-clock.
fn gate(off_ns: f64, base: &Baseline, workloads: Option<&Baseline>) -> Verdict {
    if !base.timed {
        return Ok(Vec::new());
    }
    let mut failures = base.at_most("trace_off", "ns_per_event", off_ns, REGRESSION_PCT)?;
    if let Some(w) = workloads {
        failures.extend(w.at_most("arrival_run", "ns_per_event", off_ns, REGRESSION_PCT)?);
    }
    Ok(failures)
}

/// Measures the record into `out` and gates against `base`.
pub fn run(out: &str, base: Option<&Baseline>) -> Verdict {
    eprintln!("[bench trace] open-system run, tracing off: {ARRIVAL_JOBS} burst arrivals ...");
    let (off, off_secs) = arrival_run(TraceConfig::default());
    eprintln!("[bench trace] open-system run, tracing on ...");
    let (on, on_secs) = arrival_run(TraceConfig::on());

    // Non-perturbation spot-check: same simulation either way.
    assert_eq!(off.events, on.events, "tracing changed the event count");
    assert_eq!(off.makespan, on.makespan, "tracing changed the makespan");
    assert!(off.trace.is_none(), "untraced run published a trace");
    let trace = on.trace.as_ref().expect("traced run must publish a trace");
    assert!(
        !trace.per_app.is_empty(),
        "traced run assembled no attribution"
    );

    let events = off.events;
    let off_ns_per_event = off_secs * 1e9 / events as f64;
    let on_ns_per_event = on_secs * 1e9 / events as f64;
    let overhead_pct = (on_secs / off_secs - 1.0) * 100.0;
    let spans: usize = trace.forest.jobs.iter().map(|j| j.requests.len()).sum();

    let mut w = json::bench_writer("trace");
    w.string(Some("scale"), ScaleProfile::from_env().label());
    w.open_object(Some("trace_off"));
    w.number(Some("jobs"), f64::from(ARRIVAL_JOBS));
    w.number(Some("events"), events as f64);
    w.number(Some("secs"), off_secs);
    w.number(Some("ns_per_event"), off_ns_per_event);
    w.close();
    w.open_object(Some("trace_on"));
    w.number(Some("events"), events as f64);
    w.number(Some("secs"), on_secs);
    w.number(Some("ns_per_event"), on_ns_per_event);
    w.number(Some("request_spans"), spans as f64);
    w.close();
    w.number(Some("overhead_pct"), overhead_pct);
    json::write_bench(w, out);

    eprintln!(
        "[bench trace] {out}: off {off_secs:.2}s ({off_ns_per_event:.0} ns/event), on \
         {on_secs:.2}s ({on_ns_per_event:.0} ns/event, {spans} request spans), overhead \
         {overhead_pct:+.1}% over {events} events"
    );
    base.map_or(Ok(Vec::new()), |b| {
        gate(
            off_ns_per_event,
            b,
            Baseline::read(WORKLOADS_BASELINE).ok().as_ref(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_hold_against_the_committed_records() {
        let records = |profile| {
            let trace = include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_trace.json"
            ));
            let workloads = include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_workloads.json"
            ));
            (
                Baseline::parse("BENCH_trace.json", trace, profile),
                Baseline::parse(WORKLOADS_BASELINE, workloads, profile),
            )
        };
        let (base, workloads) = records("release");
        let traced = base.num("trace_off", "ns_per_event").unwrap();
        let untraced = workloads.num("arrival_run", "ns_per_event").unwrap();
        assert!(traced < untraced, "the trace record is the tighter limit");
        // +40 % against each record.
        for (ns, want) in [
            (traced, 0),
            (traced * 1.399, 0),
            (traced * 1.401, 1),
            (untraced * 1.399, 1),
            (untraced * 1.401, 2),
        ] {
            assert_eq!(
                gate(ns, &base, Some(&workloads)).unwrap().len(),
                want,
                "{ns} ns/event"
            );
        }
        let (base, workloads) = records("debug");
        assert_eq!(gate(1e12, &base, Some(&workloads)), Ok(Vec::new()));
    }
}
