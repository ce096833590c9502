//! `bench workloads` → `BENCH_workloads.json`, the record behind the
//! workload-generation acceptance numbers (DESIGN.md §15): how fast the
//! `ibis-workgen` samplers produce jobs, and what an open-system arrival
//! stream costs the engine per event.
//!
//! 1. **Generation throughput** (pure sampling, no simulation): a
//!    20 000-job two-tenant mix (heavy-tailed batch + FaaS bursts) is
//!    composed repeatedly and timed, alongside the SWIM/Facebook2009
//!    sampler and the JSONL trace parser. The metric is jobs per second
//!    of wall clock.
//! 2. **Arrival-event overhead** (engine-side): [`arrival_run`] with
//!    tracing off. The metrics are ns per simulation event and µs of wall
//!    clock per arriving job — the end-to-end cost of open-system
//!    admission, mid-run flow registration included.
//!
//! The gate fails when generation throughput falls below an absolute
//! floor or either metric regresses materially against the baseline.

use ibis_bench::experiments::pinned;
use ibis_bench::gate::{Baseline, Verdict};
use ibis_bench::{json, ScaleProfile};
use ibis_cluster::prelude::*;
use ibis_simcore::SimDuration;
use ibis_trace::TraceConfig;
use ibis_workgen::{
    burst_tenant, trace, ArrivalProcess, BurstProfile, JobShape, MixConfig, TenantSpec, TraceRecord,
};
use ibis_workloads::{facebook2009, SwimConfig};
use std::time::Instant;

/// Absolute floor for mix composition throughput. Sampling is arithmetic
/// plus one `String` pair per job; six figures of jobs per second is
/// conservative on any release build.
const GEN_FLOOR_JOBS_PER_SEC: f64 = 100_000.0;

/// Maximum tolerated regression vs the baseline, in percent. Wall-clock
/// generation rates wobble with host load, so the margin is wide.
pub const REGRESSION_PCT: f64 = 40.0;

/// Timed generation repetitions (after one warm-up).
const REPS: u32 = 5;

/// Jobs carried by the arrival run.
pub const ARRIVAL_JOBS: u32 = 1500;

/// The 20 000-job generation mix: a heavy-tailed batch tenant plus a
/// FaaS burst tenant, the two ends of the sampler cost spectrum.
fn gen_mix() -> MixConfig {
    MixConfig::new(0x6e2a)
        .tenant(TenantSpec::new(
            "batch",
            4.0,
            4_000,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(5),
            },
            JobShape::heavy_tailed(),
        ))
        .tenant(burst_tenant("faas", BurstProfile::faas(16_000).weight(1.0)))
}

/// The open-system arrival run: a FaaS burst tenant feeds
/// [`ARRIVAL_JOBS`] short jobs through `Event::JobArrival` on a small
/// cluster of fast `Ideal` devices, with every env-read subsystem pinned
/// off and tracing set by `trace`. One warm-up run, then one timed run;
/// returns its report and wall seconds.
pub fn arrival_run(trace: TraceConfig) -> (RunReport, f64) {
    let experiment = || {
        let cfg = ClusterConfig {
            nodes: 4,
            cores_per_node: 4,
            seed: 0x9e4a,
            hdfs_device: DeviceSpec::Ideal {
                bandwidth: 300e6,
                latency: SimDuration::from_millis(2),
            },
            scratch_device: DeviceSpec::Ideal {
                bandwidth: 300e6,
                latency: SimDuration::from_millis(2),
            },
            auto_reference: false,
            trace,
            ..pinned(ClusterConfig::default())
        }
        .with_policy(Policy::SfqD { depth: 4 });
        let mut exp = Experiment::new(cfg);
        exp.add_mix(&MixConfig::new(0xA221).tenant(burst_tenant(
            "faas",
            BurstProfile::faas(ARRIVAL_JOBS).weight(1.0),
        )));
        exp
    };
    let _ = experiment().run();
    let exp = experiment();
    let t = Instant::now();
    let report = exp.run();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        report.tenant("faas").map(|t| t.finished),
        Some(u64::from(ARRIVAL_JOBS)),
        "arrival run lost jobs (trace {trace:?})"
    );
    (report, secs)
}

/// Times `f` over [`REPS`] repetitions after one warm-up call, returning
/// units-of-work per second given `per_rep` units per call.
fn rate(per_rep: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..REPS {
        f();
    }
    per_rep * REPS as f64 / t.elapsed().as_secs_f64()
}

/// The generation floor and both regression limits; all are wall-clock.
fn gate(mix: f64, ns: f64, base: &Baseline) -> Verdict {
    if !base.timed {
        return Ok(Vec::new());
    }
    let mut failures = Vec::new();
    if mix < GEN_FLOOR_JOBS_PER_SEC {
        failures.push(format!(
            "mix generation {mix:.0} jobs/s below the {GEN_FLOOR_JOBS_PER_SEC:.0} jobs/s floor"
        ));
    }
    failures.extend(base.at_least("generation", "mix_jobs_per_sec", mix, REGRESSION_PCT)?);
    failures.extend(base.at_most("arrival_run", "ns_per_event", ns, REGRESSION_PCT)?);
    Ok(failures)
}

/// Measures the record into `out` and gates against `base`.
pub fn run(out: &str, base: Option<&Baseline>) -> Verdict {
    // Generation throughput: the composed mix, the SWIM sampler, and the
    // JSONL trace parser, each warmed once and timed over REPS passes.
    eprintln!("[bench workloads] timing job generation ...");
    let mix = gen_mix();
    let mix_jobs = mix.total_jobs() as f64;
    let mix_jobs_per_sec = rate(mix_jobs, || {
        std::hint::black_box(mix.compose());
    });

    let swim_cfg = SwimConfig {
        jobs: 2000,
        ..SwimConfig::default()
    };
    let swim_jobs_per_sec = rate(f64::from(swim_cfg.jobs), || {
        std::hint::black_box(facebook2009(&swim_cfg));
    });

    let records: Vec<TraceRecord> = (0..5000)
        .map(|i| TraceRecord {
            at_secs: f64::from(i) * 0.25,
            tenant: format!("t{}", i % 7),
            weight: 1.0 + f64::from(i % 4),
            maps: 1 + i % 40,
            shuffle_ratio: 0.5,
            output_ratio: 0.5,
            reduces: i % 5,
            ..TraceRecord::default()
        })
        .collect();
    let text = trace::emit(&records);
    let trace_recs_per_sec = rate(records.len() as f64, || {
        std::hint::black_box(trace::parse(&text).expect("bench trace parses"));
    });

    eprintln!("[bench workloads] open-system run: {ARRIVAL_JOBS} burst arrivals ...");
    let (report, secs) = arrival_run(TraceConfig::default());
    let events = report.events;
    let ns_per_event = secs * 1e9 / events as f64;
    let us_per_job = secs * 1e6 / f64::from(ARRIVAL_JOBS);

    let mut w = json::bench_writer("workloads");
    w.string(Some("scale"), ScaleProfile::from_env().label());
    w.open_object(Some("generation"));
    w.number(Some("mix_jobs"), mix_jobs);
    w.number(Some("mix_jobs_per_sec"), mix_jobs_per_sec);
    w.number(Some("swim_jobs"), f64::from(swim_cfg.jobs));
    w.number(Some("swim_jobs_per_sec"), swim_jobs_per_sec);
    w.number(Some("trace_records"), records.len() as f64);
    w.number(Some("trace_records_per_sec"), trace_recs_per_sec);
    w.close();
    w.open_object(Some("arrival_run"));
    w.number(Some("jobs"), f64::from(ARRIVAL_JOBS));
    w.number(Some("events"), events as f64);
    w.number(Some("secs"), secs);
    w.number(Some("ns_per_event"), ns_per_event);
    w.number(Some("us_per_job"), us_per_job);
    w.close();
    w.number(Some("gen_floor_jobs_per_sec"), GEN_FLOOR_JOBS_PER_SEC);
    json::write_bench(w, out);

    eprintln!(
        "[bench workloads] {out}: mix {mix_jobs_per_sec:.0} jobs/s, swim \
         {swim_jobs_per_sec:.0} jobs/s, trace {trace_recs_per_sec:.0} rec/s; arrival run \
         {secs:.2}s ({ns_per_event:.0} ns/event, {us_per_job:.0} µs/job, {events} events)"
    );
    base.map_or(Ok(Vec::new()), |b| gate(mix_jobs_per_sec, ns_per_event, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(profile: &str) -> Baseline {
        let doc = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_workloads.json"
        ));
        Baseline::parse("BENCH_workloads.json", doc, profile)
    }

    #[test]
    fn limits_hold_against_the_committed_record() {
        let base = committed("release");
        let mix = base.num("generation", "mix_jobs_per_sec").unwrap();
        let ns = base.num("arrival_run", "ns_per_event").unwrap();
        let failures = |mix, ns| gate(mix, ns, &base).unwrap();
        // −40 % mix generation and +40 % arrival ns/event.
        for (m, n, want) in [
            (1.0, 1.0, 0),
            (0.601, 1.0, 0),
            (0.599, 1.0, 1),
            (1.0, 1.399, 0),
            (1.0, 1.401, 1),
        ] {
            assert_eq!(failures(mix * m, ns * n).len(), want, "mix ×{m}, ns ×{n}");
        }
        // The 100 k jobs/s floor, far below the −40 % limit.
        assert!(!failures(100_001.0, ns).iter().any(|f| f.contains("floor")));
        assert!(failures(99_999.0, ns).iter().any(|f| f.contains("floor")));
        assert_eq!(gate(1.0, 1e12, &committed("debug")), Ok(Vec::new()));
    }
}
