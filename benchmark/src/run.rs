//! The timed pass: repeated runs of one workload through the public
//! engine API, checked for correctness, timed end to end.

use crate::alloc;
use crate::workloads::Workload;
use ibis_cluster::engine::Sim;
use ibis_cluster::{Experiment, RunReport};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Timed reps never stop before this many, however long each takes.
const MIN_REPS: usize = 3;

/// `Sim::new` calls timed back to back for `setup_s`.
const SETUP_SAMPLES: usize = 21;

/// What the post-run analysis of an observed run found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analysis {
    /// Events the recorder evicted.
    pub dropped_events: u64,
    /// Latency-attribution invariant violations.
    pub trace_violations: u64,
}

/// One simulation of an experiment.
pub struct Sample {
    /// `Sim::new` seconds.
    pub setup_s: f64,
    /// `Sim::run` seconds.
    pub run_s: f64,
    /// Post-run analysis seconds (0 when not analysed).
    pub analysis_s: f64,
    /// The run's report.
    pub report: RunReport,
    /// Analysis results, for observed runs.
    pub analysis: Option<Analysis>,
}

/// Builds and runs `exp`, timing each stage, then runs the post-run
/// analysis when the experiment carries the captures for it.
pub fn simulate(exp: &Experiment, analyse: bool) -> Sample {
    let t = Instant::now();
    let sim: Sim = Sim::new(exp);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = sim.run();
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let analysis = analyse.then(|| analyse_report(&report));
    let analysis_s = if analyse {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    Sample {
        setup_s,
        run_s,
        analysis_s,
        report,
        analysis,
    }
}

/// The analysis users run over an observed run: the fairness audit and
/// the attribution check on the recording, Prometheus and CSV export of
/// the metrics capture.
fn analyse_report(r: &RunReport) -> Analysis {
    let mut a = Analysis::default();
    if let Some(rec) = &r.recording {
        a.dropped_events = rec.dropped_total();
        // Audit violations are recorded by the traced pass, not failed.
        black_box(ibis_obs::audit(rec, &ibis_obs::AuditConfig::default()));
        a.trace_violations = ibis_trace::check(rec, ibis_trace::SUM_REL_TOL).violations;
    }
    if let Some(cap) = &r.metrics {
        black_box(ibis_metrics::prometheus::encode(&cap.snapshot));
        black_box(ibis_metrics::csv::export(cap));
    }
    a
}

/// Everything a run's outcome must reproduce: jobs, tenants, service,
/// coordination and fault counters, events and makespan. Wall-clock
/// fields are left out.
fn canon(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "events {} makespan {}", r.events, r.makespan.as_nanos());
    for j in &r.jobs {
        let _ = writeln!(
            s,
            "job {} app={} sub={} fin={}",
            j.name,
            j.app.0,
            j.submitted.as_nanos(),
            j.finished.as_nanos()
        );
    }
    for t in &r.tenants {
        let _ = writeln!(
            s,
            "tenant {} sub={} fin={} n={} p50={:?} p99={:?}",
            t.name,
            t.submitted,
            t.finished,
            t.latency.count(),
            t.latency.quantile(0.5),
            t.latency.quantile(0.99)
        );
    }
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    let _ = writeln!(s, "service {service:?}");
    let _ = writeln!(s, "broker {:?} decisions {}", r.broker, r.sched_decisions);
    let _ = writeln!(s, "faults {:?}", r.faults);
    let _ = writeln!(
        s,
        "racks {} {}",
        r.rack_local_transfers, r.cross_rack_transfers
    );
    s
}

/// FNV-1a over [`canon`].
pub fn digest(r: &RunReport) -> u64 {
    canon(r).bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Why a run's outcome is wrong, if it is.
pub fn check(w: &Workload, s: &Sample) -> Vec<String> {
    let mut bad = Vec::new();
    let r = &s.report;
    if r.jobs.len() != w.jobs() {
        bad.push(format!("{} of {} jobs finished", r.jobs.len(), w.jobs()));
    }
    if let Some(a) = s.analysis {
        if a.dropped_events != 0 {
            bad.push(format!("recorder dropped {} events", a.dropped_events));
        }
        if a.trace_violations != 0 {
            bad.push(format!("{} attribution violations", a.trace_violations));
        }
    }
    match (w.kind.chaotic(), &r.faults) {
        (true, Some(f)) => {
            if f.agg_crashes == 0 || f.rack_partitions == 0 || f.crashes == 0 || f.resyncs == 0 {
                bad.push(format!("chaos schedule did not fire: {f:?}"));
            }
        }
        (true, None) => bad.push("chaos run recorded no faults".into()),
        (false, Some(f)) => bad.push(format!("fault-free workload injected faults: {f:?}")),
        (false, None) => {}
    }
    bad
}

/// Simulated job latencies (arrival to completion) of a run, sorted.
pub fn job_latencies(r: &RunReport) -> Vec<f64> {
    let mut v: Vec<f64> = r.jobs.iter().map(|j| j.runtime.as_secs_f64()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Every run a pass makes, and what went wrong in them.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Jobs submitted across every run.
    pub attempted: u64,
    /// Jobs in runs that panicked or failed a check.
    pub failed: u64,
    /// What went wrong, one line each.
    pub failures: Vec<String>,
    /// The outcome digest every run must reproduce.
    pub digest: Option<u64>,
}

impl Ledger {
    /// Runs `exp` once under the checks, analysing the captures when
    /// `analyse` is set; records failures and returns the sample when it
    /// is clean.
    pub fn attempt(
        &mut self,
        w: &Workload,
        exp: &Experiment,
        what: &str,
        analyse: bool,
    ) -> Option<Sample> {
        let jobs = w.jobs() as u64;
        self.attempted += jobs;
        let sample = match catch_unwind(AssertUnwindSafe(|| simulate(exp, analyse))) {
            Ok(s) => s,
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| e.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.fail(jobs, format!("{what}: panicked: {msg}"));
                return None;
            }
        };
        let mut bad = check(w, &sample);
        let d = digest(&sample.report);
        match self.digest {
            None => self.digest = Some(d),
            Some(first) if first != d => {
                bad.push(format!("digest {d:016x} differs from {first:016x}"));
            }
            Some(_) => {}
        }
        if bad.is_empty() {
            return Some(sample);
        }
        self.fail(jobs, format!("{what}: {}", bad.join("; ")));
        None
    }

    /// Records a failed check that voids a run of `jobs` jobs.
    pub fn fail(&mut self, jobs: u64, why: String) {
        self.failed += jobs;
        self.failures.push(why);
    }

    /// Share of submitted jobs that belong to clean runs.
    pub fn completed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// The timed pass's measurements and verdict.
#[derive(Debug, Default)]
pub struct Timed {
    /// `Sim::new` seconds, back-to-back samples.
    pub setup: Vec<f64>,
    /// `Sim::run` seconds per timed rep.
    pub run: Vec<f64>,
    /// Setup + run + analysis seconds per timed rep.
    pub wall: Vec<f64>,
    /// Live-heap high-water mark of the warm-up rep, MB.
    pub peak_heap_mb: f64,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Simulated events per run.
    pub events: u64,
    /// The observed workload's taps-off twin: its `Sim::run` seconds.
    pub twin_run_s: Option<f64>,
    /// Runs and failures.
    pub ledger: Ledger,
}

/// Runs the timed pass: a warm-up rep that measures the heap, the
/// observed workload's taps-off twin, back-to-back `Sim::new` samples,
/// then timed reps until `seconds` have passed (at least [`MIN_REPS`]).
pub fn timed_pass(w: &Workload, seconds: f64) -> Timed {
    let mut t = Timed::default();
    let observed = w.kind.observed();

    alloc::start();
    let warm = t.ledger.attempt(w, &w.exp, "warm-up", observed);
    t.peak_heap_mb = alloc::stop() as f64 / 1e6;
    if let Some(s) = &warm {
        t.makespan_s = s.report.makespan.as_secs_f64();
        t.events = s.report.events;
    }
    drop(warm);

    if observed {
        let twin = w.taps_off();
        t.twin_run_s = t
            .ledger
            .attempt(w, &twin, "taps-off twin", false)
            .map(|s| s.run_s);
    }

    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let sim: Sim = Sim::new(&w.exp);
        t.setup.push(start.elapsed().as_secs_f64());
        drop(black_box(sim));
    }

    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep += 1;
        if let Some(s) = t.ledger.attempt(w, &w.exp, &format!("rep {rep}"), observed) {
            t.run.push(s.run_s);
            t.wall.push(s.setup_s + s.run_s + s.analysis_s);
        }
    }
    t
}
