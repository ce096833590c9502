//! Automatic tuning of the IBIS I/O-weight knob — the paper's §9 future
//! work: *"it does not answer the question of how to automatically tune
//! this new knob to meet an application's desired performance target …
//! based on such models, admission control and resource allocation can
//! then be done automatically."*
//!
//! [`tune_weight`] closes that loop empirically: it searches the protected
//! application's I/O weight until its runtime under contention lands
//! within a tolerance of a target slowdown. Because runtime is monotone
//! non-increasing in the application's weight (more weight → at least as
//! much service at every backlogged instant), a bisection over
//! `log2(weight)` converges in a handful of simulated runs — the
//! simulator stands in for the paper's envisioned performance models.

use crate::report::RunReport;

/// Outcome of a tuning search.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The selected weight.
    pub weight: f64,
    /// The slowdown achieved at that weight (runtime / baseline).
    pub achieved_slowdown: f64,
    /// Every `(weight, slowdown)` probe, in search order.
    pub probes: Vec<(f64, f64)>,
}

/// Searches for the smallest I/O weight (within `[1, max_weight]`, probed
/// on a log scale) whose resulting slowdown is at most `target_slowdown`.
///
/// * `run` — executes the contended experiment with the candidate weight
///   applied to the protected application and returns the report.
/// * `runtime_of` — extracts the protected application's runtime (seconds)
///   from the report.
/// * `baseline_secs` — the application's standalone runtime.
///
/// Returns the best weight found; if even `max_weight` misses the target,
/// the result carries `max_weight` and its achieved slowdown, so the
/// caller can detect infeasibility via `achieved_slowdown`.
pub fn tune_weight(
    mut run: impl FnMut(f64) -> RunReport,
    runtime_of: impl Fn(&RunReport) -> f64,
    baseline_secs: f64,
    target_slowdown: f64,
    max_weight: f64,
) -> TuneResult {
    assert!(baseline_secs > 0.0, "baseline must be positive");
    assert!(target_slowdown >= 1.0, "targets below 1.0 are unreachable");
    assert!(max_weight >= 1.0);

    let mut probes = Vec::new();
    let mut probe = |w: f64, run: &mut dyn FnMut(f64) -> RunReport| -> f64 {
        let report = run(w);
        let sd = runtime_of(&report) / baseline_secs;
        probes.push((w, sd));
        sd
    };

    // Bisection over log2(weight) on [0, log2(max_weight)].
    let mut lo = 0.0f64; // log2(1)
    let mut hi = max_weight.log2();

    // If the maximum weight cannot reach the target, report that.
    let sd_hi = probe(max_weight, &mut run);
    if sd_hi > target_slowdown {
        return TuneResult {
            weight: max_weight,
            achieved_slowdown: sd_hi,
            probes,
        };
    }
    let mut best = (max_weight, sd_hi);

    for _ in 0..6 {
        let mid = (lo + hi) / 2.0;
        let w = mid.exp2();
        let sd = probe(w, &mut run);
        if sd <= target_slowdown {
            // Feasible: try a smaller weight.
            best = (w, sd);
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 0.25 {
            break;
        }
    }

    TuneResult {
        weight: best.0,
        achieved_slowdown: best.1,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, DeviceSpec, Experiment};
    use ibis_core::scheduler::Policy;
    use ibis_core::SfqD2Config;
    use ibis_simcore::units::GIB;
    use ibis_simcore::SimDuration;
    use ibis_workloads::{teragen, wordcount};

    fn cluster() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            cores_per_node: 4,
            hdfs_device: DeviceSpec::Ideal {
                bandwidth: 60e6,
                latency: SimDuration::from_millis(2),
            },
            scratch_device: DeviceSpec::Ideal {
                bandwidth: 60e6,
                latency: SimDuration::from_millis(2),
            },
            auto_reference: false,
            ..ClusterConfig::default()
        }
        .with_policy(Policy::SfqD2(SfqD2Config::default()))
        .with_coordination(true)
    }

    fn contended(weight: f64) -> RunReport {
        let mut exp = Experiment::new(cluster());
        exp.add_job(wordcount(GIB).max_slots(8).io_weight(weight));
        exp.add_job(teragen(4 * GIB).max_slots(8).io_weight(1.0));
        exp.run()
    }

    #[test]
    fn finds_a_weight_meeting_a_loose_target() {
        let mut exp = Experiment::new(cluster());
        exp.add_job(wordcount(GIB).max_slots(8));
        let base = exp.run().runtime_secs("WordCount").unwrap();

        let result = tune_weight(
            contended,
            |r| r.runtime_secs("WordCount").unwrap(),
            base,
            1.5,
            64.0,
        );
        assert!(result.achieved_slowdown <= 1.5, "missed target: {result:?}");
        assert!(result.weight >= 1.0 && result.weight <= 64.0);
        assert!(result.probes.len() >= 2);
    }

    #[test]
    fn reports_infeasible_targets_honestly() {
        let base = 1.0; // absurd baseline: nothing can match it
        let result = tune_weight(
            contended,
            |r| r.runtime_secs("WordCount").unwrap(),
            base,
            1.01,
            8.0,
        );
        assert!(result.achieved_slowdown > 1.01);
        assert_eq!(result.weight, 8.0);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn rejects_sub_one_targets() {
        let _ = tune_weight(contended, |_| 1.0, 1.0, 0.5, 8.0);
    }
}
