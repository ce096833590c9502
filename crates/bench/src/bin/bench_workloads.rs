//! Emits `BENCH_workloads.json` — the machine-readable record behind the
//! workload-generation acceptance numbers (DESIGN.md §15): how fast the
//! `ibis-workgen` samplers produce jobs, and what an open-system arrival
//! stream costs the engine per event.
//!
//! Two measurements:
//!
//! 1. **Generation throughput** (pure sampling, no simulation): a
//!    20 000-job two-tenant mix (heavy-tailed batch + FaaS bursts) is
//!    composed repeatedly and timed, alongside the SWIM/Facebook2009
//!    sampler and the JSONL trace parser. The metric is jobs per second
//!    of wall clock.
//! 2. **Arrival-event overhead** (engine-side): a burst tenant feeds
//!    1 500 short jobs through `Event::JobArrival` on a small cluster
//!    with observability, metrics, and faults explicitly off. The
//!    metrics are ns per simulation event and µs of wall clock per
//!    arriving job — the end-to-end cost of open-system admission,
//!    mid-run flow registration included.
//!
//! Usage: `bench_workloads [--check <baseline.json>] [output-path]`
//! (default `BENCH_workloads.json`). With `--check`, exits non-zero when
//! generation throughput falls below the absolute floor or either metric
//! regresses materially against the committed baseline. The gate skips
//! debug builds.

use ibis_bench::{json, ScaleProfile};
use ibis_cluster::prelude::*;
use ibis_simcore::SimDuration;
use ibis_workgen::{
    burst_tenant, trace, ArrivalProcess, BurstProfile, JobShape, MixConfig, TenantSpec,
    TraceRecord,
};
use ibis_workloads::{facebook2009, SwimConfig};
use std::time::Instant;

/// Absolute floor for mix composition throughput. Sampling is arithmetic
/// plus one `String` pair per job; six figures of jobs per second is
/// conservative on any release build.
const GEN_FLOOR_JOBS_PER_SEC: f64 = 100_000.0;

/// Maximum tolerated regression vs the committed baseline, in percent.
/// Wall-clock generation rates wobble with host load, so the margin is
/// wide.
const REGRESSION_PCT: f64 = 40.0;

/// Timed generation repetitions (after one warm-up).
const REPS: u32 = 5;

/// Jobs carried by the arrival-overhead run.
const ARRIVAL_JOBS: u32 = 1500;

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

/// The arrival-overhead cluster: small topology, fast `Ideal` devices,
/// observability/metrics/faults spelled out as off so environment
/// variables cannot skew the timing (the struct default reads them).
fn arrival_experiment() -> Experiment {
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
        obs: ibis_obs::ObsConfig::default(),
        metrics: ibis_metrics::MetricsConfig::default(),
        faults: ibis_faults::FaultsConfig::default(),
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD { depth: 4 });
    let mut exp = Experiment::new(cfg);
    exp.add_mix(
        &MixConfig::new(0xA221)
            .tenant(burst_tenant("faas", BurstProfile::faas(ARRIVAL_JOBS).weight(1.0))),
    );
    exp
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

/// Finds `"key": <number>` after the first occurrence of `anchor` (the
/// mini-parser shared by the bench gates' fixed-shape records).
fn extract_after(doc: &str, anchor: &str, key: &str) -> Option<f64> {
    let at = doc.find(anchor)?;
    let rest = &doc[at..];
    let kat = rest.find(&format!("\"{key}\":"))?;
    let tail = rest[kat..].split_once(':')?.1;
    let end = tail.find([',', '\n', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// Gates the fresh numbers against the floor and the committed baseline.
/// Returns the failures, empty on pass.
fn check(baseline_path: &str, mix_jobs_per_sec: f64, ns_per_event: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let doc = match std::fs::read_to_string(baseline_path) {
        Ok(d) => d,
        Err(e) => return vec![format!("cannot read baseline {baseline_path}: {e}")],
    };

    if json::build_profile() != "release" {
        eprintln!("[bench_workloads] debug build: timing gate skipped");
        return failures;
    }

    if mix_jobs_per_sec < GEN_FLOOR_JOBS_PER_SEC {
        failures.push(format!(
            "mix generation {mix_jobs_per_sec:.0} jobs/s below the \
             {GEN_FLOOR_JOBS_PER_SEC:.0} jobs/s floor"
        ));
    }
    match extract_after(&doc, "\"generation\"", "mix_jobs_per_sec") {
        Some(base) => {
            let allowed = base * (1.0 - REGRESSION_PCT / 100.0);
            if mix_jobs_per_sec < allowed {
                failures.push(format!(
                    "mix generation regressed: {mix_jobs_per_sec:.0} jobs/s vs baseline \
                     {base:.0} (allowed ≥ {allowed:.0})"
                ));
            }
        }
        None => failures.push(format!(
            "baseline {baseline_path} has no generation mix_jobs_per_sec"
        )),
    }
    match extract_after(&doc, "\"arrival_run\"", "ns_per_event") {
        Some(base) => {
            let allowed = base * (1.0 + REGRESSION_PCT / 100.0);
            if ns_per_event > allowed {
                failures.push(format!(
                    "arrival-run event cost regressed: {ns_per_event:.0} ns/event vs \
                     baseline {base:.0} (allowed ≤ {allowed:.0})"
                ));
            }
        }
        None => failures.push(format!(
            "baseline {baseline_path} has no arrival_run ns_per_event"
        )),
    }
    failures
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut out_path = "BENCH_workloads.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--check" {
            baseline = Some(args.next().unwrap_or_else(|| {
                eprintln!("usage: bench_workloads [--check <baseline.json>] [output-path]");
                std::process::exit(2);
            }));
        } else {
            out_path = a;
        }
    }

    let cores = ibis_core::env::available_cores();
    let scale = ScaleProfile::from_env();

    // Generation throughput: the composed mix, the SWIM sampler, and the
    // JSONL trace parser, each warmed once and timed over REPS passes.
    eprintln!("[bench_workloads] timing job generation ...");
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

    // Arrival-event overhead: one warm-up, one timed open-system run.
    eprintln!(
        "[bench_workloads] open-system run: {ARRIVAL_JOBS} burst arrivals ..."
    );
    let _ = arrival_experiment().run();
    let exp = arrival_experiment();
    let t = Instant::now();
    let report = exp.run();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        report.tenant("faas").map(|t| t.finished),
        Some(u64::from(ARRIVAL_JOBS)),
        "arrival run lost jobs"
    );
    let events = report.events;
    let ns_per_event = secs * 1e9 / events as f64;
    let us_per_job = secs * 1e6 / f64::from(ARRIVAL_JOBS);

    let mut w = json::bench_writer("workloads");
    w.string(Some("scale"), scale.label());
    w.number(Some("host_cores"), cores as f64);
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
    json::write_bench(w, &out_path);

    eprintln!(
        "[bench_workloads] {out_path}: mix {mix_jobs_per_sec:.0} jobs/s, swim \
         {swim_jobs_per_sec:.0} jobs/s, trace {trace_recs_per_sec:.0} rec/s; arrival run \
         {secs:.2}s ({ns_per_event:.0} ns/event, {us_per_job:.0} µs/job, {events} events, \
         {cores} cores)"
    );

    if let Some(path) = baseline {
        let failures = check(&path, mix_jobs_per_sec, ns_per_event);
        if failures.is_empty() {
            eprintln!("[bench_workloads] --check vs {path}: OK");
        } else {
            for f in &failures {
                eprintln!("[bench_workloads] CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
