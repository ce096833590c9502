//! Cross-crate integration tests: full-stack scenarios exercising the
//! public API end to end on small workloads.

use ibis::core::SfqD2Config;
use ibis::prelude::*;
use ibis::simcore::units::{GIB, MIB};
use ibis::simcore::SimDuration;

fn fast_cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 200e6,
            latency: SimDuration::from_micros(200),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 200e6,
            latency: SimDuration::from_micros(200),
        },
        auto_reference: false,
        ..ClusterConfig::default()
    }
}

#[test]
fn every_policy_completes_the_same_workload() {
    let policies = vec![
        Policy::Native,
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
        Policy::CgroupWeight,
        Policy::CgroupThrottle {
            caps: vec![(ibis::core::AppId(2), 2e6)],
        },
    ];
    for policy in policies {
        let label = policy.label();
        let mut exp = Experiment::new(fast_cluster().with_policy(policy));
        exp.add_job(terasort(GIB).max_slots(8));
        exp.add_job(teragen(GIB).max_slots(8));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 2, "{label}: both jobs must finish");
        assert!(
            r.jobs.iter().all(|j| j.runtime.as_secs_f64() > 0.0),
            "{label}: zero runtime"
        );
    }
}

#[test]
fn isolation_under_ibis_is_at_least_as_good_as_native() {
    // The headline property on the real device models, downscaled.
    let wc = || wordcount(2 * GIB).max_slots(48).io_weight(32.0);
    let tg = || teragen(16 * GIB).max_slots(48).io_weight(1.0);

    let mut alone = Experiment::new(ClusterConfig::default());
    alone.add_job(wc());
    let base = alone.run().runtime_secs("WordCount").unwrap();

    let mut native = Experiment::new(ClusterConfig::default());
    native.add_job(wc());
    native.add_job(tg());
    let native_rt = native.run().runtime_secs("WordCount").unwrap();

    let cfg = ClusterConfig::default()
        .with_policy(Policy::SfqD2(SfqD2Config::default()))
        .with_coordination(true);
    let mut ibis = Experiment::new(cfg);
    ibis.add_job(wc());
    ibis.add_job(tg());
    let ibis_rt = ibis.run().runtime_secs("WordCount").unwrap();

    assert!(
        native_rt > 1.3 * base,
        "native must show contention: {native_rt} vs alone {base}"
    );
    assert!(
        ibis_rt < 0.6 * native_rt,
        "IBIS must isolate: {ibis_rt} vs native {native_rt}"
    );
    assert!(
        ibis_rt < 1.35 * base,
        "IBIS should restore near-standalone: {ibis_rt} vs {base}"
    );
}

#[test]
fn byte_conservation_for_teragen() {
    // TeraGen writes exactly output × replication persistent bytes.
    let mut exp = Experiment::new(fast_cluster());
    exp.add_job(teragen(GIB));
    let r = exp.run();
    let written = r.bytes_written() as f64;
    let expected = (3 * GIB) as f64;
    assert!(
        (written - expected).abs() < (8 * MIB) as f64,
        "written {written}, expected {expected}"
    );
    // And the per-app service accounting agrees.
    let app_total: u64 = r.app_service.values().sum();
    assert!((app_total as f64 - expected).abs() < (8 * MIB) as f64);
}

#[test]
fn full_run_is_deterministic() {
    let run = || {
        let cfg = ClusterConfig::default()
            .with_policy(Policy::SfqD2(SfqD2Config::default()))
            .with_coordination(true);
        let mut exp = Experiment::new(cfg);
        exp.add_job(wordcount(GIB).max_slots(24).io_weight(32.0));
        exp.add_job(teragen(4 * GIB).max_slots(24));
        exp.add_job(
            terasort(GIB)
                .max_slots(24)
                .arriving_at(SimDuration::from_secs(5)),
        );
        let r = exp.run();
        (
            r.events,
            r.jobs
                .iter()
                .map(|j| (j.name.clone(), j.runtime.as_nanos()))
                .collect::<Vec<_>>(),
            r.broker.payload_bytes,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn hive_query_chains_all_stages_to_completion() {
    let mut q = tpch_q21();
    if let Some(first) = q.stages.first_mut() {
        if let ibis::mapreduce::InputSpec::DfsFile { bytes, .. } = &mut first.input {
            *bytes = 4 * GIB;
        }
    }
    let stages = q.stages.len();
    let mut exp = Experiment::new(fast_cluster());
    exp.add_query(q);
    let r = exp.run();
    assert_eq!(r.jobs.len(), stages, "every stage must run");
    let summary = r.query("Q21").expect("query recorded");
    assert!(summary.runtime.as_secs_f64() > 0.0);
    // Stages execute strictly in sequence.
    for w in r.jobs.windows(2) {
        assert!(w[1].submitted >= w[0].finished);
    }
}

#[test]
fn facebook_workload_runs_to_completion_under_contention() {
    let jobs = facebook2009(&SwimConfig {
        jobs: 10,
        small_maps_max: 4,
        large_maps_max: 8,
        ..SwimConfig::default()
    });
    let cfg = fast_cluster().with_policy(Policy::SfqD2(SfqD2Config::default()));
    let mut exp = Experiment::new(cfg);
    for j in jobs {
        exp.add_job(j.io_weight(32.0).max_slots(8));
    }
    exp.add_job(teragen(2 * GIB).max_slots(8));
    let r = exp.run();
    assert_eq!(r.jobs.len(), 11);
}

#[test]
fn depth_trace_stays_within_controller_bounds() {
    let mut cfg = ClusterConfig::default()
        .with_policy(Policy::SfqD2(SfqD2Config::default()))
        .with_coordination(true);
    cfg.metrics = ibis::metrics::MetricsConfig::enabled(SimDuration::from_secs(1));
    let mut exp = Experiment::new(cfg);
    exp.add_job(wordcount(GIB).max_slots(24).io_weight(32.0));
    exp.add_job(teragen(8 * GIB).max_slots(24));
    let r = exp.run();
    let cap = r.metrics.expect("metrics");
    let depth = cap
        .series_for("ctl_depth", ibis::metrics::Labels::on(0, 0))
        .expect("node 0's HDFS controller sampled");
    assert!(!depth.points.is_empty());
    for &(_, d) in &depth.points {
        assert!((1.0..=12.0).contains(&d), "D={d} out of [1,12]");
    }
}

#[test]
fn broker_overhead_scales_with_time_not_data() {
    // Doubling the data volume must not double broker traffic per second.
    let run = |gib: u64| {
        let cfg = ClusterConfig::default()
            .with_policy(Policy::SfqD2(SfqD2Config::default()))
            .with_coordination(true);
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(gib * GIB).max_slots(48));
        exp.add_job(terasort(GIB).max_slots(48));
        let r = exp.run();
        r.broker.payload_bytes as f64 / r.makespan.as_secs_f64()
    };
    let small = run(4);
    let large = run(16);
    assert!(
        large < 2.0 * small,
        "broker rate grew with data volume: {small} vs {large} bytes/s"
    );
}
