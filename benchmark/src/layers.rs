//! The traced pass: where one workload's time goes, layer by layer.
//!
//! 1. Baseline: the workload with every tap off, a few reps.
//! 2. The recorder alone, tracing alone, and the metrics sampler as the
//!    workload's timed reps run it, once each; a run's `run_s` minus the
//!    baseline median is that tap's overhead.
//! 3. The recorder-alone run's capture (never evicting) gives the event
//!    counts, the report's counters and, through the trace attribution,
//!    the simulated waits.
//! 4. Replays feed the recorded call streams into fresh instances of the
//!    scheduler, device, namenode, broker and job-manager layers, with
//!    spans around the calls (see [`crate::replay`]).
//! 5. The spans are written as a Chrome trace under the build directory.

use crate::replay;
use crate::run::{Ledger, Sample};
use crate::spans::Spans;
use crate::stats::{percentile, tail_percentile, Summary};
use crate::workloads::{Kind, Workload, OBS_CAPACITY};
use ibis_cluster::{Experiment, RunReport};
use ibis_obs::{EventKind, ObsConfig, Recording};
use ibis_trace::TraceConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Taps-off reps the overheads and `cluster.ns_per_event` are measured
/// against.
const BASELINE_REPS: usize = 3;

/// Input generations timed for `workgen.gen_s`.
const GEN_SAMPLES: usize = 5;

/// The traced pass's per-layer metrics and verdict.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Runs and failures.
    pub ledger: Ledger,
    /// Context lines for the printed table.
    pub notes: Vec<String>,
}

/// Simulated seconds the trace attribution charges to `component`, over
/// every application.
fn attributed(attr: &[ibis_trace::AppAttribution], component: &str) -> f64 {
    attr.iter().map(|a| a.component_ns(component)).sum::<u64>() as f64 / 1e9
}

/// Where the Chrome trace goes: the cargo build directory.
fn trace_path(w: &Workload) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("ibis-benchmark")
        .join(format!("trace-{}-seed{}.json", w.kind.name(), w.seed))
}

/// Runs the traced pass over `w`.
pub fn traced_pass(w: &Workload) -> Traced {
    let run_id = Kind::ALL.iter().position(|&k| k == w.kind).unwrap_or(0) as u32;
    let mut spans = Spans::new(run_id);
    let mut t = Traced::default();
    let jobs = w.jobs() as u64;
    spans.enter("traced_pass");

    let gen: Vec<f64> = (0..GEN_SAMPLES)
        .map(|_| Workload::build(w.kind, w.seed).gen_s)
        .collect();
    t.metrics.insert("workgen.jobs", jobs as f64);
    t.metrics.insert("workgen.gen_s", Summary::of(&gen).median);

    let base = w.taps_off();
    spans.enter("baseline");
    let base_runs: Vec<f64> = (0..BASELINE_REPS)
        .filter_map(|i| {
            t.ledger
                .attempt(w, &base, &format!("baseline {}", i + 1), false)
        })
        .map(|s| s.run_s)
        .collect();
    spans.exit();
    let base_run = Summary::of(&base_runs).median;

    let mut tap = |name: &'static str, set: &dyn Fn(&mut Experiment), spans: &mut Spans| {
        let mut exp = base.clone();
        set(&mut exp);
        spans
            .time(name, |_| t.ledger.attempt(w, &exp, name, false))
            .0
    };
    let recorded = tap(
        "tap.recorder",
        &|e| e.cluster.obs = ObsConfig::enabled(OBS_CAPACITY),
        &mut spans,
    );
    let traced = tap(
        "tap.trace",
        &|e| e.cluster.trace = TraceConfig::on(),
        &mut spans,
    );
    // The sampler as the workload's timed reps run it. Only the observed
    // workload samples: elsewhere this run repeats the baseline, and its
    // overhead reads as noise around zero. (Every sampler operation scans
    // the registry linearly, so sampling a 1024-node run takes longer than
    // ten minutes.)
    let sampled = tap(
        "tap.metrics",
        &|e| e.cluster.metrics = w.exp.cluster.metrics,
        &mut spans,
    );
    let overhead = |s: &Option<Sample>| s.as_ref().map_or(0.0, |s| s.run_s - base_run);
    t.metrics
        .insert("obs.recorder_overhead_s", overhead(&recorded));
    t.metrics.insert("trace.overhead_s", overhead(&traced));
    t.metrics
        .insert("metrics.sampler_overhead_s", overhead(&sampled));
    drop(traced);

    let empty = ibis_metrics::Sampler::new(ibis_metrics::DEFAULT_SAMPLE_PERIOD)
        .into_capture(ibis_metrics::MetricsRegistry::new().snapshot());
    let cap = sampled
        .as_ref()
        .and_then(|s| s.report.metrics.as_ref())
        .unwrap_or(&empty);
    t.metrics.insert("metrics.series", cap.series.len() as f64);
    t.metrics
        .insert("metrics.points", cap.total_points() as f64);
    let (_, secs) = spans.time("metrics.export", |_| {
        black_box(ibis_metrics::prometheus::encode(&cap.snapshot));
        black_box(ibis_metrics::csv::export(cap));
    });
    t.metrics.insert("metrics.export_s", secs);
    drop(sampled);

    if let Some(mut s) = recorded {
        match s.report.recording.take() {
            Some(rec) => {
                let ns_per_event = base_run * 1e9 / s.report.events.max(1) as f64;
                t.metrics.insert("cluster.ns_per_event", ns_per_event);
                let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    layer_metrics(w, &s.report, &rec, &mut spans, &mut t)
                }));
                if replayed.is_err() {
                    t.ledger.fail(jobs, "layer replays panicked".into());
                }
            }
            None => t.ledger.fail(jobs, "recorder alone: no recording".into()),
        }
    }
    spans.exit();
    // A failed run leaves some layers unmeasured; report them as 0 so the
    // result still lists every metric (the pass is marked failed).
    for metric in &crate::metrics::PER_LAYER {
        t.metrics.entry(metric.name).or_insert(0.0);
    }

    let top: Vec<String> = spans
        .totals()
        .iter()
        .filter(|(name, _)| name.starts_with("replay.") || name.starts_with("tap."))
        .map(|(name, s)| {
            format!(
                "{name} {:.3}s (self {:.3}s)",
                s.total_ns as f64 / 1e9,
                s.self_ns as f64 / 1e9
            )
        })
        .collect();
    t.notes.push(format!("spans: {}", top.join(", ")));
    let path = trace_path(w);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, spans.chrome()));
    t.notes.push(match written {
        Ok(()) => format!("chrome trace: {}", path.display()),
        Err(e) => format!("chrome trace not written ({}): {e}", path.display()),
    });
    t
}

/// Counts, attribution and replays over the recorder-alone run.
fn layer_metrics(w: &Workload, r: &RunReport, rec: &Recording, spans: &mut Spans, t: &mut Traced) {
    let m = &mut t.metrics;
    let cfg = &w.exp.cluster;
    let nodes = cfg.nodes as f64;

    let mut queued = 0u64;
    let mut completed = 0u64;
    let mut delays = 0u64;
    let mut depths = 0u64;
    let mut started = 0u64;
    let mut placed = 0u64;
    for ev in rec.events() {
        match ev.kind {
            EventKind::IoQueued { .. } => queued += 1,
            EventKind::Completed { .. } => completed += 1,
            EventKind::DelayApplied { .. } => delays += 1,
            EventKind::DepthAdjusted { .. } => depths += 1,
            EventKind::TaskStarted { .. } => started += 1,
            EventKind::BlockPlaced { .. } => placed += 1,
            _ => {}
        }
    }
    m.insert("cluster.events", r.events as f64);
    let lat = crate::run::job_latencies(r);
    let tail = tail_percentile(lat.len());
    m.insert("cluster.sim_job_p50_s", percentile(&lat, 50));
    m.insert("cluster.sim_job_tail_s", percentile(&lat, tail));
    t.notes
        .push(format!("{} jobs, tail latency at p{tail}", lat.len()));
    m.insert("mapreduce.tasks_started", started as f64);
    m.insert("core.sched.submits", queued as f64);
    m.insert("core.sched.decisions", r.sched_decisions as f64);
    m.insert("core.sched.delay_charges", delays as f64);
    m.insert("core.sched.depth_changes", depths as f64);
    m.insert("storage.completions", completed as f64);
    m.insert("dfs.blocks_placed", placed as f64);
    m.insert("dfs.rack_local_transfers", r.rack_local_transfers as f64);
    m.insert("dfs.cross_rack_transfers", r.cross_rack_transfers as f64);

    let b = &r.broker;
    m.insert("core.coord.reports", b.reports as f64);
    m.insert("core.coord.payload_bytes", b.payload_bytes as f64);
    m.insert("core.coord.agg_msgs", b.agg_msgs as f64);
    m.insert("core.coord.agg_bytes", b.agg_bytes as f64);
    m.insert(
        "core.coord.sync_bytes_per_node",
        b.total_bytes() as f64 / nodes,
    );
    // The busiest coordination endpoint: the one flat broker sees every
    // report; under the tree, the root sees the rack aggregates and each
    // leaf its rack's share of both levels.
    let hotspot = match cfg.broker_tree {
        None => b.payload_bytes as f64,
        Some(tc) => {
            let racks = (cfg.nodes / tc.rack_size.max(1)).max(1) as f64;
            (b.agg_bytes as f64).max((b.payload_bytes + b.agg_bytes) as f64 / racks)
        }
    };
    m.insert("core.coord.hotspot_bytes", hotspot);
    m.insert("core.coord.resyncs", b.resyncs as f64);
    m.insert("core.coord.dup_ignored", b.dup_ignored as f64);
    let shares: Vec<f64> = {
        let mut v: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &s)| (a.0, s)).collect();
        v.sort_unstable();
        v.iter()
            .map(|&(a, s)| s as f64 / rec.meta.weight_of(a))
            .collect()
    };
    m.insert("core.coord.jain", RunReport::jain_index(&shares));

    let f = r.faults.unwrap_or_default();
    let injected = f.broker_outages
        + f.report_drops
        + f.reply_delays
        + f.crashes
        + f.agg_crashes
        + f.rack_partitions
        + f.dup_reports
        + f.reorder_reports;
    m.insert("faults.injected", injected as f64);
    m.insert("faults.retries", f.retries as f64);
    m.insert("faults.degraded_entries", f.degraded_entries as f64);
    m.insert("faults.aborted_tasks", f.aborted_tasks as f64);

    m.insert("obs.recorded_events", rec.seen() as f64);
    m.insert("obs.dropped_events", rec.dropped_total() as f64);
    m.insert("obs.retained_mb", rec.retained_bytes() as f64 / 1e6);
    let jobs = w.jobs() as u64;
    if rec.dropped_total() != 0 {
        let why = format!("recorder dropped {} events", rec.dropped_total());
        t.ledger.fail(jobs, why);
    }

    let (audit, secs) = spans.time("obs.audit", |_| {
        ibis_obs::audit(rec, &ibis_obs::AuditConfig::default())
    });
    m.insert("obs.audit_s", secs);
    m.insert("obs.audit_violations", audit.violation_count as f64);
    let (check, secs) = spans.time("trace.check", |_| {
        ibis_trace::check(rec, ibis_trace::SUM_REL_TOL)
    });
    m.insert("trace.check_s", secs);
    if check.violations != 0 {
        t.ledger
            .fail(jobs, format!("{} attribution violations", check.violations));
    }

    let (attr, _) = spans.time("trace.attribute", |_| ibis_trace::attribute(rec));
    m.insert("core.sched.queue_wait_s", attributed(&attr, "queue_wait"));
    m.insert("core.sched.dsfq_delay_s", attributed(&attr, "dsfq_delay"));
    m.insert("storage.service_s", attributed(&attr, "device_service"));
    m.insert(
        "faults.stall_s",
        attributed(&attr, "fault_stall") + attributed(&attr, "degraded_wait"),
    );

    let start = Instant::now();
    let sched = replay::sched(cfg, rec, spans);
    m.insert("core.sched.replay_calls", sched.all.calls as f64);
    m.insert("core.sched.replay_ns_per_call", sched.all.ns_per_call());
    m.insert("core.sched.set_weight_calls", sched.set_weight.calls as f64);
    m.insert(
        "core.sched.set_weight_ns_per_call",
        sched.set_weight.ns_per_call(),
    );
    let storage = replay::storage(cfg, rec, spans);
    m.insert("storage.replay_ns_per_call", storage.ns_per_call());
    let dfs = replay::dfs(&w.exp, rec, spans);
    m.insert("dfs.replay_ns_per_call", dfs.ns_per_call());
    let coord = replay::coord(cfg, rec, spans);
    m.insert("core.coord.round_ns", coord.ns_per_call());
    let mr = replay::mapreduce(&w.exp, rec, spans);
    m.insert("mapreduce.assign_calls", mr.assign.calls as f64);
    m.insert(
        "mapreduce.assign_hit_ratio",
        mr.placed as f64 / mr.assign.calls.max(1) as f64,
    );
    m.insert("mapreduce.assign_ns_per_call", mr.assign.ns_per_call());
    t.notes.push(format!(
        "replays {:.2}s: sched {} calls ({} submits, {} completes), storage {} calls, \
         dfs {} calls, coord {} rounds, mapreduce {} placed of {} recorded starts, {} unmatched finishes",
        start.elapsed().as_secs_f64(),
        sched.all.calls,
        sched.submits,
        sched.completes,
        storage.calls,
        dfs.calls,
        coord.calls,
        mr.placed,
        started,
        mr.unmatched
    ));
}
