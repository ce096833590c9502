//! Shared experiment builders used by the figure modules.

use crate::scale::ScaleProfile;
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_mapreduce::JobSpec;
use ibis_simcore::units::{GIB, TIB};
use ibis_workloads::{teragen, terasort, teravalidate, wordcount};

/// The evaluation's standard data volumes (§7.1), before scaling.
pub mod volumes {
    use super::*;
    /// TeraGen output (1 TB).
    pub const TERAGEN: u64 = TIB;
    /// WordCount input — the paper uses 50 GB of Wikipedia; we round to
    /// 48 GiB so the map count is an exact multiple of the 48-slot
    /// allocation at both scales (a trailing 1-2-map wave otherwise
    /// inflates the *standalone* baseline with an almost-idle wave and
    /// distorts the slowdown percentages).
    pub const WORDCOUNT: u64 = 48 * GIB;
    /// TeraSort input for the isolation experiments (within the paper's
    /// 50–400 GB sweep; large enough that its write phases outlast the
    /// co-running job, and a full-wave multiple of both 48 and 96 slots).
    pub const TERASORT: u64 = 192 * GIB;
    /// TeraValidate input (validates the TeraGen output).
    pub const TERAVALIDATE: u64 = TIB;
}

/// The paper's HDD testbed running `policy`; broker coordination is on
/// whenever the policy supports it (the paper's default configuration).
pub fn hdd_cluster(policy: Policy) -> ClusterConfig {
    let coordinated = policy.coordinates();
    ClusterConfig::default()
        .with_policy(policy)
        .with_coordination(coordinated)
}

/// `cfg` with every subsystem that `ClusterConfig::default()` reads from
/// the environment (`IBIS_OBS`, `IBIS_METRICS`, `IBIS_FAULTS`,
/// `IBIS_TRACE`) switched off, so a timed run measures the same work under
/// any environment. Set a field after pinning to time it switched on.
pub fn pinned(cfg: ClusterConfig) -> ClusterConfig {
    ClusterConfig {
        obs: ibis_obs::ObsConfig::default(),
        metrics: ibis_metrics::MetricsConfig::default(),
        faults: ibis_faults::FaultsConfig::default(),
        trace: ibis_trace::TraceConfig::default(),
        ..cfg
    }
}

/// The paper's SSD testbed (§7.2's second setup).
pub fn ssd_cluster(policy: Policy) -> ClusterConfig {
    hdd_cluster(policy).with_ssd()
}

/// The default SFQ(D2) policy (controller parameters from §4/§7.1;
/// reference latencies come from the cluster's automatic profiling).
pub fn sfqd2() -> Policy {
    Policy::SfqD2(SfqD2Config::default())
}

/// WordCount at the given scale, pinned to half the cluster's slots as in
/// Fig. 3/6 ("the CPU allocation to WordCount is kept the same in all
/// cases").
pub fn wc_half(scale: ScaleProfile) -> JobSpec {
    wordcount(scale.bytes(volumes::WORDCOUNT)).max_slots(48)
}

/// TeraGen at the given scale, pinned to the other half of the slots.
pub fn tg_half(scale: ScaleProfile) -> JobSpec {
    teragen(scale.bytes(volumes::TERAGEN)).max_slots(48)
}

/// TeraSort at the given scale, half the slots.
pub fn ts_half(scale: ScaleProfile) -> JobSpec {
    terasort(scale.bytes(volumes::TERASORT)).max_slots(48)
}

/// TeraValidate at the given scale, half the slots.
pub fn tv_half(scale: ScaleProfile) -> JobSpec {
    teravalidate(scale.bytes(volumes::TERAVALIDATE)).max_slots(48)
}

/// A boxed experiment thunk: one independent simulation in a
/// [`SweepRunner`] batch. Boxing erases the closure type so a figure can
/// mix baseline and contended runs in a single fan-out and post-process
/// the reports in submission order.
pub type RunThunk = Box<dyn FnOnce() -> RunReport + Send>;

/// Boxes a run closure into a [`RunThunk`] batch entry.
pub fn run_thunk(f: impl FnOnce() -> RunReport + Send + 'static) -> RunThunk {
    Box::new(f)
}

/// Audits a run's flight recording, when one was captured (`IBIS_OBS=1`
/// or an explicit `ClusterConfig::obs`). Prints the auditor summary and
/// panics on any invariant violation, so a traced figure run doubles as a
/// fairness regression check. A no-op for untraced runs.
pub fn audit_recording(label: &str, r: &RunReport) {
    let Some(rec) = r.recording.as_ref() else {
        return;
    };
    let mut report = ibis_obs::audit(rec, &ibis_obs::AuditConfig::default());
    let summary = report.summary();
    println!("[audit {label}] {summary}");
    assert!(
        report.passed(),
        "{label}: recorded run violates fairness invariants: {summary}"
    );
}

/// Percentage slowdown of `runtime` w.r.t. `baseline` (the paper's "107%"
/// notation: runtime 2.07× baseline → 107).
pub fn slowdown_pct(runtime: f64, baseline: f64) -> f64 {
    (runtime / baseline - 1.0) * 100.0
}

/// Relative performance (the Fig. 10 metric): `baseline / runtime`, 1.0 =
/// standalone speed.
pub fn relative_perf(runtime: f64, baseline: f64) -> f64 {
    baseline / runtime
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_and_relative_agree() {
        assert!((slowdown_pct(207.0, 100.0) - 107.0).abs() < 1e-9);
        assert!((relative_perf(125.0, 100.0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn clusters_carry_policy_and_coordination() {
        let c = hdd_cluster(sfqd2());
        assert!(c.coordination);
        let c = hdd_cluster(Policy::Native);
        assert!(!c.coordination);
        let c = ssd_cluster(sfqd2());
        assert!(matches!(c.hdfs_device, DeviceSpec::Ssd(_)));
    }

    #[test]
    fn pinned_switches_off_every_env_read_subsystem() {
        let on = ClusterConfig {
            obs: ibis_obs::ObsConfig::enabled(1 << 10),
            metrics: ibis_metrics::MetricsConfig::enabled(ibis_simcore::SimDuration::from_secs(1)),
            faults: ibis_faults::FaultsConfig {
                enabled: true,
                ..ibis_faults::FaultsConfig::default()
            },
            trace: ibis_trace::TraceConfig::on(),
            ..hdd_cluster(sfqd2())
        };
        let off = pinned(on);
        let enabled = (
            off.obs.enabled,
            off.metrics.enabled,
            off.faults.enabled,
            off.trace.enabled,
        );
        assert_eq!(enabled, (false, false, false, false));
        assert!(off.coordination, "pinning keeps every other field");
    }

    #[test]
    fn half_cluster_specs_pin_slots() {
        assert_eq!(wc_half(ScaleProfile::Quick).max_slots, Some(48));
        assert_eq!(tg_half(ScaleProfile::Quick).max_slots, Some(48));
    }
}
