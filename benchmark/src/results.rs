//! Per-workload results: the printed table, the saved results file and
//! the one-line JSON summary.

use crate::json::Value;
use crate::layers::Traced;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run::{Ledger, Timed};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Where and how a set of results was measured.
pub struct Provenance {
    /// Source revision (`unknown` outside a git checkout).
    pub rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Cores the process may use.
    pub nproc: usize,
    /// The benchmark seed.
    pub seed: u64,
    /// Measured seconds per timed pass.
    pub seconds: f64,
    /// `IBIS_*` variables present at start (pinned, so without effect).
    pub ibis_env: Vec<(String, String)>,
}

impl Provenance {
    /// Prints the header lines.
    pub fn print(&self) {
        println!(
            "# ibis-benchmark rev={} profile={} nproc={} seed={} seconds={}",
            self.rev, self.profile, self.nproc, self.seed, self.seconds
        );
        if self.ibis_env.is_empty() {
            println!("# IBIS_* environment: none");
        }
        for (k, v) in &self.ibis_env {
            println!("# IBIS_* environment (pinned, ignored): {k}={v}");
        }
    }

    fn value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("rev".into(), Value::Str(self.rev.clone()));
        m.insert("profile".into(), Value::Str(self.profile.into()));
        m.insert("nproc".into(), Value::Num(self.nproc as f64));
        m.insert("seed".into(), Value::Num(self.seed as f64));
        m.insert("seconds".into(), Value::Num(self.seconds));
        let env = self
            .ibis_env
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        m.insert("ibis_env".into(), Value::Obj(env));
        Value::Obj(m)
    }
}

/// One workload's results.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// End-to-end metrics over the timed reps.
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics from the traced pass.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Jobs submitted across every run.
    pub attempted: u64,
    /// Jobs in runs that panicked or failed a check.
    pub failed: u64,
    /// Every failed check.
    pub failures: Vec<String>,
    /// Outcome digest shared by every run.
    pub digest: Option<u64>,
    /// Lines of context printed under the table.
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    pub fn new(workload: &str) -> WorkloadResult {
        WorkloadResult {
            workload: workload.into(),
            ..WorkloadResult::default()
        }
    }

    /// True when every run was clean.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn add_ledger(&mut self, what: &str, l: &Ledger) {
        self.attempted += l.attempted;
        self.failed += l.failed;
        self.failures.extend(l.failures.iter().cloned());
        match (self.digest, l.digest) {
            (None, d) => self.digest = d,
            (Some(a), Some(b)) if a != b => self.failures.push(format!(
                "{what} digest {b:016x} differs from the timed runs' {a:016x}"
            )),
            _ => {}
        }
    }

    /// Adds the timed pass.
    pub fn add_timed(&mut self, t: &Timed) {
        let one = |v: f64| Summary::of(&[v]);
        self.end_to_end.insert("wall_s", Summary::of(&t.wall));
        self.end_to_end.insert("run_s", Summary::of(&t.run));
        self.end_to_end.insert("setup_s", Summary::of(&t.setup));
        self.end_to_end.insert("peak_heap_mb", one(t.peak_heap_mb));
        self.end_to_end.insert("sim_makespan_s", one(t.makespan_s));
        self.end_to_end
            .insert("completed_frac", one(t.ledger.completed_frac()));
        self.add_ledger("timed", &t.ledger);
        self.notes.push(format!(
            "timed: {} reps, {} events/run",
            t.run.len(),
            t.events
        ));
        if let Some(twin) = t.twin_run_s {
            let run = Summary::of(&t.run).median;
            self.notes.push(format!(
                "taps-off twin: run_s {twin:.4} (observed run {:.1}x)",
                run / twin
            ));
        }
    }

    /// Adds the traced pass.
    pub fn add_traced(&mut self, l: &Traced) {
        for (&name, &v) in &l.metrics {
            self.per_layer.insert(name, v);
        }
        self.add_ledger("traced", &l.ledger);
        self.notes.extend(l.notes.iter().cloned());
    }

    /// Prints the workload's table.
    pub fn print(&self) {
        let verdict = if self.correct() { "ok" } else { "FAILED" };
        let digest = self.digest.map_or("-".into(), |d| format!("{d:016x}"));
        println!("\n## {}  [{verdict}]  digest {digest}", self.workload);
        if !self.end_to_end.is_empty() {
            println!(
                "{:<18} {:>14} {:>14} {:>14} {:>4}  unit",
                "end-to-end", "median", "q1", "q3", "n"
            );
            for m in &END_TO_END {
                if let Some(s) = self.end_to_end.get(m.name) {
                    println!(
                        "{:<18} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
                        m.name, s.median, s.q1, s.q3, s.n, m.unit
                    );
                }
            }
        }
        if !self.per_layer.is_empty() {
            println!("{:<36} {:>16}  unit", "per-layer", "value");
            for m in &PER_LAYER {
                if let Some(v) = self.per_layer.get(m.name) {
                    println!("{:<36} {:>16.6}  {}", m.name, v, m.unit);
                }
            }
        }
        for n in &self.notes {
            println!("  {n}");
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    fn value(&self) -> Value {
        let mut e2e = BTreeMap::new();
        for m in &END_TO_END {
            if let Some(s) = self.end_to_end.get(m.name) {
                let mut o = BTreeMap::new();
                o.insert("median".into(), Value::Num(s.median));
                o.insert("q1".into(), Value::Num(s.q1));
                o.insert("q3".into(), Value::Num(s.q3));
                o.insert("n".into(), Value::Num(s.n as f64));
                o.insert("unit".into(), Value::Str(m.unit.into()));
                e2e.insert(m.name.to_string(), Value::Obj(o));
            }
        }
        let mut layers = BTreeMap::new();
        for m in &PER_LAYER {
            if let Some(&v) = self.per_layer.get(m.name) {
                layers.insert(m.name.to_string(), unit_value(v, m));
            }
        }
        let mut o = BTreeMap::new();
        o.insert("correct".into(), Value::Bool(self.correct()));
        o.insert("attempted".into(), Value::Num(self.attempted as f64));
        o.insert("failed".into(), Value::Num(self.failed as f64));
        o.insert(
            "failures".into(),
            Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
        );
        o.insert(
            "digest".into(),
            self.digest
                .map_or(Value::Null, |d| Value::Str(format!("{d:016x}"))),
        );
        o.insert("end_to_end".into(), Value::Obj(e2e));
        o.insert("per_layer".into(), Value::Obj(layers));
        Value::Obj(o)
    }
}

fn unit_value(v: f64, m: &Metric) -> Value {
    let mut o = BTreeMap::new();
    o.insert("value".into(), Value::Num(v));
    o.insert("unit".into(), Value::Str(m.unit.into()));
    Value::Obj(o)
}

/// Writes the results file `--check` reads back.
pub fn save(path: &str, p: &Provenance, results: &[WorkloadResult]) -> std::io::Result<()> {
    let mut doc = BTreeMap::new();
    doc.insert("provenance".into(), p.value());
    let w = results
        .iter()
        .map(|r| (r.workload.clone(), r.value()))
        .collect();
    doc.insert("workloads".into(), Value::Obj(w));
    let mut text = String::new();
    Value::Obj(doc).write(&mut text);
    text.push('\n');
    std::fs::write(path, text)
}

/// The last line of output: verdict, job counts, and every metric of
/// `lists` with its unit. Metric names are bare for a single workload
/// and prefixed `<workload>/` otherwise.
pub fn summary_line(results: &[WorkloadResult], lists: &[&[Metric]]) -> String {
    let single = results.len() == 1;
    let mut metrics = BTreeMap::new();
    for r in results {
        for m in lists.iter().flat_map(|l| l.iter()) {
            let v = r
                .end_to_end
                .get(m.name)
                .map(|s| s.median)
                .or_else(|| r.per_layer.get(m.name).copied());
            if let Some(v) = v {
                let key = if single {
                    m.name.to_string()
                } else {
                    format!("{}/{}", r.workload, m.name)
                };
                metrics.insert(key, unit_value(v, m));
            }
        }
    }
    let mut o = BTreeMap::new();
    o.insert(
        "correct".into(),
        Value::Bool(results.iter().all(WorkloadResult::correct)),
    );
    o.insert(
        "attempted".into(),
        Value::Num(results.iter().map(|r| r.attempted).sum::<u64>() as f64),
    );
    o.insert(
        "failed".into(),
        Value::Num(results.iter().map(|r| r.failed).sum::<u64>() as f64),
    );
    o.insert("metrics".into(), Value::Obj(metrics));
    let mut line = String::new();
    Value::Obj(o).write(&mut line);
    line
}
