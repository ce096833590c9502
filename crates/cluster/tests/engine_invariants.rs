//! Cluster-engine invariants that must hold for any scenario: byte
//! accounting consistency, resource bookkeeping, and report coherence.

use ibis_cluster::prelude::*;
use ibis_core::scheduler::Policy;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_simcore::units::{GIB, MIB};
use ibis_simcore::{SimDuration, SimTime};
use ibis_workloads::{facebook2009, terasort, wordcount, SwimConfig};

fn ideal_cluster(policy: Policy) -> ClusterConfig {
    let coordinated = policy.coordinates();
    ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        auto_reference: false,
        ..ClusterConfig::default()
    }
    .with_policy(policy)
    .with_coordination(coordinated)
}

/// The time-series totals and the per-app service accounting must agree:
/// both count every completed interposed I/O once — also when a node
/// crashes and restarts mid-run, which replaces its schedulers.
#[test]
fn series_and_service_accounting_agree() {
    for policy in [Policy::Native, Policy::SfqD2(SfqD2Config::default())] {
        for restart in [false, true] {
            let mut cfg = ideal_cluster(policy.clone());
            if restart {
                cfg.faults = FaultsConfig {
                    enabled: true,
                    schedule: FaultSchedule::new(1).node_crash(
                        1,
                        SimTime::from_secs(6),
                        Some(SimDuration::from_secs(4)),
                    ),
                    ..FaultsConfig::default()
                };
            }
            let mut exp = Experiment::new(cfg);
            exp.add_job(terasort(GIB).max_slots(8));
            exp.add_job(wordcount(GIB).max_slots(8));
            let r = exp.run();
            let restarts = r.faults.map_or(0, |s| s.restarts);
            assert_eq!(restarts, u64::from(restart), "{}", policy.label());
            let service_total: u64 = r.app_service.values().sum();
            assert_eq!(
                r.bytes_read() + r.bytes_written(),
                service_total,
                "{} restart={restart}",
                policy.label()
            );
            for (app, &served) in &r.app_service {
                let series = [&r.app_read, &r.app_write]
                    .iter()
                    .filter_map(|m| m.get(app))
                    .map(|s| s.total())
                    .sum::<f64>();
                assert!((series - served as f64).abs() < 1.0, "app {app:?}");
            }
        }
    }
}

/// Makespan covers every job's completion.
#[test]
fn makespan_bounds_all_jobs() {
    let mut exp = Experiment::new(ideal_cluster(Policy::Native));
    for job in facebook2009(&SwimConfig {
        jobs: 6,
        small_maps_max: 4,
        large_maps_max: 8,
        ..SwimConfig::default()
    }) {
        exp.add_job(job.max_slots(8));
    }
    let r = exp.run();
    for j in &r.jobs {
        assert!(
            j.finished.as_secs_f64() <= r.makespan.as_secs_f64() + 1e-9,
            "{} finished after makespan",
            j.name
        );
        assert!(j.map_phase + j.reduce_phase <= j.runtime + SimDuration::from_millis(1));
    }
}

/// A job's reported I/O service is bounded below by its mandatory volume
/// (input + replicated output) and above by a small multiple of it.
#[test]
fn per_job_service_within_physical_bounds() {
    let mut exp = Experiment::new(ideal_cluster(Policy::Native));
    exp.add_job(terasort(GIB));
    let r = exp.run();
    let app = r.jobs[0].app;
    let service = r.app_service[&app] as f64;
    // Mandatory: read 1 GiB input + write 3 GiB replicated output.
    let floor = (4 * GIB) as f64;
    // Ceiling: spills, merges and shuffle add at most ~6× input on top.
    let ceil = (10 * GIB) as f64;
    assert!(
        (floor..ceil).contains(&service),
        "service {service} outside [{floor}, {ceil}]"
    );
}

/// Identical experiments differing only in the master seed produce
/// different but valid runs (the seed is actually plumbed through).
#[test]
fn seed_changes_the_run_but_not_its_validity() {
    let run = |seed: u64| {
        let mut cfg = ideal_cluster(Policy::Native);
        cfg.seed = seed;
        let mut exp = Experiment::new(cfg);
        exp.add_job(terasort(GIB).max_slots(8));
        let r = exp.run();
        (r.events, r.jobs[0].runtime.as_nanos())
    };
    let a = run(1);
    let b = run(2);
    // Placement and jitter differ → almost surely different event counts.
    assert_ne!(a, b, "seed appears to be ignored");
}

/// Zero-byte-output jobs (aggregates) and single-map jobs run fine.
#[test]
fn degenerate_jobs_complete() {
    let mut exp = Experiment::new(ideal_cluster(Policy::SfqD2(SfqD2Config::default())));
    exp.add_job(ibis_mapreduce::JobSpec {
        input: ibis_mapreduce::InputSpec::DfsFile {
            name: "tiny".into(),
            bytes: MIB, // one 1 MiB block → a single map
        },
        map_output_ratio: 0.001,
        reduces: 1,
        reduce_output_ratio: 0.0, // empty output
        ..ibis_mapreduce::JobSpec::named("tiny-agg")
    });
    let r = exp.run();
    assert_eq!(r.jobs.len(), 1);
    assert!(r.jobs[0].runtime.as_secs_f64() > 0.0);
}

/// The strict partitioner runs end-to-end through the engine.
#[test]
fn strict_policy_completes_workload() {
    let mut exp = Experiment::new(ideal_cluster(Policy::Strict { depth: 8 }));
    exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
    exp.add_job(wordcount(GIB).max_slots(8).io_weight(1.0));
    let r = exp.run();
    assert_eq!(r.jobs.len(), 2);
}

/// Broker coordination must not change *what* completes, only when.
#[test]
fn coordination_preserves_work() {
    let run = |sync: bool| {
        let cfg = ideal_cluster(Policy::SfqD2(SfqD2Config::default())).with_coordination(sync);
        let mut exp = Experiment::new(cfg);
        exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
        exp.add_job(wordcount(GIB).max_slots(8));
        let r = exp.run();
        let mut totals: Vec<(u32, u64)> =
            r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
        totals.sort();
        totals
    };
    assert_eq!(run(false), run(true), "service volumes must be identical");
}
