//! `--check`: compares fresh results with a saved run, using the bounds
//! `BENCHMARK.json` fixes for the end-to-end metrics.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::results::WorkloadResult;
use crate::stats::Summary;

/// Reads `BENCHMARK.json` from the working directory, or from the
/// repository the benchmark was built in.
pub fn benchmark_json() -> Result<Value, String> {
    let built_in = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(built_in))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    json::parse(&text)
}

/// The bound `BENCHMARK.json` gives end-to-end metric `name`.
fn bound(spec: &Value, name: &str) -> Option<f64> {
    spec.get("end_to_end")?
        .arr()
        .iter()
        .find(|m| m.get("name").and_then(Value::str) == Some(name))?
        .get("bound")?
        .num()
}

/// One comparison's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound.
    Unresolved,
}

/// Compares a fresh summary with a saved one under `bound` (a share of
/// the saved median).
pub fn verdict(fresh: &Summary, saved: &Summary, better: Better, bound: f64) -> Verdict {
    if fresh.spread().max(saved.spread()) > bound {
        return Verdict::Unresolved;
    }
    let base = saved.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (fresh.median - saved.median) / base,
        Better::Higher => (saved.median - fresh.median) / base,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn saved_summary(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.num()?,
        q1: v.get("q1")?.num()?,
        q3: v.get("q3")?.num()?,
        n: v.get("n")?.num()? as usize,
    })
}

/// Prints one row per (workload, end-to-end metric) and the per-layer
/// metrics that moved. Returns false when any end-to-end metric is worse
/// or fewer jobs completed.
pub fn against(path: &str, fresh: &[WorkloadResult]) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let saved = json::parse(&text)?;
    let spec = benchmark_json()?;
    let same_seed = saved
        .get("provenance")
        .and_then(|p| p.get("seed"))
        .and_then(Value::num);
    println!("\n# --check against {path} (saved seed {same_seed:?})");
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "saved", "fresh", "change", "bound"
    );
    let mut ok = true;
    for r in fresh {
        let Some(old) = saved.get("workloads").and_then(|w| w.get(&r.workload)) else {
            println!("{:<16} (not in the saved run)", r.workload);
            continue;
        };
        for m in &END_TO_END {
            let (Some(f), Some(s)) = (
                r.end_to_end.get(m.name),
                old.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(saved_summary),
            ) else {
                continue;
            };
            let b = bound(&spec, m.name).ok_or_else(|| format!("no bound for {}", m.name))?;
            let v = verdict(f, &s, m.better, b);
            // Any job lost that the saved run completed fails the check,
            // however small a share of the jobs it is.
            let lost_jobs = m.name == "completed_frac" && f.median < s.median;
            if v == Verdict::Worse || lost_jobs {
                ok = false;
            }
            let change = (f.median - s.median) / s.median.abs().max(f64::MIN_POSITIVE);
            println!(
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {v:?}",
                r.workload,
                m.name,
                s.median,
                f.median,
                change * 100.0,
                b * 100.0
            );
        }
        let mut unchanged = 0;
        for m in &PER_LAYER {
            let (Some(&f), Some(s)) = (
                r.per_layer.get(m.name),
                old.get("per_layer")
                    .and_then(|e| e.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::num),
            ) else {
                continue;
            };
            // Host times always move; the other units are simulation
            // counts that a pure speed-up must leave identical.
            if matches!(m.unit, "s" | "ns") {
                continue;
            }
            if f == s {
                unchanged += 1;
            } else {
                println!(
                    "{:<16} {:<26} {:>14.6} {:>14.6} {:>8} {:>6}  moved",
                    r.workload, m.name, s, f, "", ""
                );
            }
        }
        println!(
            "{:<16} {unchanged} deterministic per-layer metrics unchanged",
            r.workload
        );
    }
    Ok(ok)
}
