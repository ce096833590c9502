//! Property-based tests of the causal-tracing pipeline (ISSUE 8): for
//! random open-system mixes (a Poisson batch tenant plus a FaaS burst
//! tenant, and under chaos a tenant of multi-map jobs) with and without
//! a random chaos schedule, the recorded event
//! timeline must assemble into a **well-formed span forest** and every
//! application's latency-attribution components must **sum exactly to
//! the swept total** — and to the measured latency when the recording
//! is complete. Every request's task must be the one a scan over its
//! job's tasks picks. Each case is a full engine run, so the case count
//! is deliberately small; the mixes still cover hundreds of jobs per case.

use ibis_cluster::prelude::*;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_obs::ObsConfig;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::{
    burst_tenant, ArrivalProcess, BurstProfile, JobShape, MixConfig, SizeDist, TenantSpec,
};
use proptest::prelude::*;

fn cluster(seed: u64, chaos: Option<FaultSchedule>) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        seed,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        chunk: ibis_simcore::units::MIB,
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 18),
        ..ClusterConfig::default()
    }
    .with_trace();
    if let Some(schedule) = chaos {
        cfg.faults = FaultsConfig {
            enabled: true,
            schedule,
            staleness_bound: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(100),
            retry_limit: 3,
        };
    }
    cfg
}

fn mix(seed: u64, interarrival_ms: u64, batch_jobs: u32, burst_jobs: u32) -> MixConfig {
    MixConfig::new(seed)
        .tenant(TenantSpec::new(
            "batch",
            4.0,
            batch_jobs,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_millis(interarrival_ms),
            },
            JobShape::short_task(),
        ))
        .tenant(burst_tenant("faas", BurstProfile::faas(burst_jobs).weight(1.0)))
}

/// A tenant of 2–12-map jobs. The other tenants' jobs are single-map,
/// so only these put several tasks of one job on the cluster at once: a
/// crash then aborts a task whose re-run can start on a lower-numbered
/// node at the crash instant, before the aborted run's finish in the
/// merged recording.
fn multi_map_tenant(interarrival_ms: u64, jobs: u32) -> TenantSpec {
    TenantSpec::new(
        "multi",
        2.0,
        jobs,
        ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_millis(interarrival_ms),
        },
        JobShape {
            maps: SizeDist::Uniform { lo: 2.0, hi: 13.0 },
            ..JobShape::short_task()
        },
    )
}

/// Streams reads 8 chunks deep in every job that sets no read-ahead of
/// its own (generated and trace-replayed specs set none).
fn read_ahead_8(exp: &mut Experiment) {
    for w in &mut exp.workloads {
        if let Workload::Job(spec) = w {
            spec.read_ahead.get_or_insert(8);
        }
    }
}

fn run(
    seed: u64,
    interarrival_ms: u64,
    batch_jobs: u32,
    burst_jobs: u32,
    chaos: bool,
) -> RunReport {
    let schedule = chaos.then(|| {
        FaultSchedule::new(seed ^ 0xFA17)
            .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 4)
            .node_crash(
                (seed % 3) as u32 + 1,
                SimTime::from_secs(5 + seed % 20),
                Some(SimDuration::from_secs(4)),
            )
    });
    let mut m = mix(seed ^ 0x5eed, interarrival_ms, batch_jobs, burst_jobs);
    if chaos {
        m = m.tenant(multi_map_tenant(interarrival_ms, 2 * batch_jobs));
    }
    let mut exp = Experiment::new(cluster(seed, schedule));
    exp.add_mix(&m);
    read_ahead_8(&mut exp);
    exp.run()
}

fn assert_trace_invariants(r: &RunReport, chaos: bool) {
    let rec = r.recording.as_ref().expect("recording enabled");
    assert_eq!(rec.dropped_total(), 0, "ring overflow would void the sum check");

    // Span forest structure: every request queued once, completed after
    // dispatch; every task and job closed (crashed nodes exempt).
    let (jobs, _tasks, _reqs) = ibis_trace::check_well_formed(rec)
        .unwrap_or_else(|e| panic!("span forest malformed (chaos={chaos}): {e}"));
    assert!(jobs > 0, "no jobs recorded");

    // Attribution: components sum exactly to the swept total (integer
    // sweep) and match the measured latency within float tolerance.
    let chk = ibis_trace::check(rec, ibis_trace::SUM_REL_TOL);
    assert!(chk.checked > 0, "nothing attributed");
    assert_eq!(
        chk.violations, 0,
        "attribution sums violated (chaos={chaos}, worst rel err {})",
        chk.worst_rel_err
    );

    let trace = r.trace.as_ref().expect("trace assembled");
    for a in &trace.per_app {
        assert_eq!(a.swept_ns, a.components_sum_ns(), "app {} sum not exact", a.app);
    }

    // Task attribution equals the rule applied request by request: the
    // unique task of the job running on the request's node at its queue
    // instant, none when zero or several match.
    let forest = ibis_trace::build_forest(rec);
    for job in &forest.jobs {
        for req in &job.requests {
            assert_eq!(
                req.task,
                scan_task(job, req),
                "job {} request {} on node {} (chaos={chaos})",
                job.job,
                req.io,
                req.node
            );
        }
    }
    assert!(forest.unattached.iter().all(|r| r.task.is_none()));
}

/// The task-attribution rule as a scan over every task of the job.
fn scan_task(job: &ibis_trace::JobTree, r: &ibis_trace::RequestSpan) -> Option<u32> {
    let mut hits = job
        .tasks
        .iter()
        .filter(|t| t.node == r.node && t.start_ns <= r.queued_ns && r.queued_ns < t.end_ns)
        .map(|t| t.task);
    match (hits.next(), hits.next()) {
        (Some(t), None) => Some(t),
        _ => None,
    }
}

proptest! {
    /// Clean open-system runs: random Poisson rate and tenant sizes.
    #[test]
    fn spans_and_sums_hold_on_random_mixes(
        seed in 0u64..1_000_000,
        interarrival_ms in 200u64..2_000,
        batch_jobs in 4u32..16,
        burst_jobs in 50u32..200,
    ) {
        let r = run(seed, interarrival_ms, batch_jobs, burst_jobs, false);
        prop_assert!(r.tenants.iter().all(|t| t.finished == t.submitted));
        assert_trace_invariants(&r, false);
    }

    /// Chaos runs: a random node crash plus report drops must not break
    /// well-formedness (crashed-node exemptions) or the exact sums.
    #[test]
    fn spans_and_sums_hold_under_chaos(
        seed in 0u64..1_000_000,
        interarrival_ms in 200u64..2_000,
        batch_jobs in 4u32..12,
        burst_jobs in 50u32..150,
    ) {
        let r = run(seed, interarrival_ms, batch_jobs, burst_jobs, true);
        assert_trace_invariants(&r, true);
    }
}
