//! One weight per flow. A tenant's jobs share one application flow, and
//! that flow's IBIS I/O weight is fixed when the tenant's first job
//! registers. A JSONL trace gives every record its own `weight`, so a
//! later job of the same tenant may carry a different one; it must change
//! nothing. That covers the weight a node restart re-applies to its cold
//! schedulers, the network share, and the recording metadata that the
//! fairness auditor and the benchmark's scheduler replay read.
//!
//! The check is metamorphic: the trace whose second `etl` record says
//! `weight: 1` must produce exactly the report of the same trace with
//! `weight: 4` there, under a crash that restarts a node while that job
//! is still running.

use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_obs::ObsConfig;
use ibis_simcore::SimDuration;
use std::fmt::Write as _;

/// Node 1 crashes at 4 s and rejoins at 6 s.
const CRASH: &str = "crash@4+2:n1";

/// Two `etl` jobs, the second carrying `second_weight`, against an
/// `adhoc` tenant at weight 1 that contends with both through the
/// restart.
fn trace(second_weight: u32) -> String {
    format!(
        "{{\"at\": 0.5, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 8, \"shuffle_ratio\": 0.5, \"reduces\": 2}}\n\
         {{\"at\": 1.0, \"tenant\": \"adhoc\", \"maps\": 24, \"shuffle_ratio\": 0.5, \"reduces\": 2}}\n\
         {{\"at\": 3.0, \"tenant\": \"etl\", \"weight\": {second_weight}, \"maps\": 8, \"shuffle_ratio\": 1.0, \"reduces\": 2}}\n"
    )
}

fn run(second_weight: u32) -> RunReport {
    let device = DeviceSpec::Ideal {
        bandwidth: 60e6,
        latency: SimDuration::from_millis(2),
    };
    let cluster = ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        hdfs_device: device.clone(),
        scratch_device: device,
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 18),
        metrics: ibis_metrics::MetricsConfig::default(),
        trace: ibis_trace::TraceConfig::default(),
        faults: FaultsConfig {
            enabled: true,
            schedule: FaultSchedule::parse(CRASH, 7).expect("crash spec parses"),
            staleness_bound: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(100),
            retry_limit: 3,
        },
        partitions: 1,
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_coordination(true);
    let mut exp = Experiment::new(cluster);
    exp.add_trace(&trace(second_weight)).expect("trace parses");
    exp.run()
}

/// Everything a run decides, plus the recording and its metadata.
fn canon(r: &RunReport) -> String {
    let mut s = String::new();
    for j in &r.jobs {
        writeln!(s, "job {} app={} fin={:?}", j.name, j.app.0, j.finished).unwrap();
    }
    for t in &r.tenants {
        writeln!(
            s,
            "tenant {} app={} w={} fin={} p99={:?}",
            t.name,
            t.app.0,
            t.weight,
            t.finished,
            t.latency.quantile(0.99)
        )
        .unwrap();
    }
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    writeln!(s, "service {service:?}").unwrap();
    writeln!(
        s,
        "events {} makespan {} decisions {} faults {:?}",
        r.events,
        r.makespan.as_nanos(),
        r.sched_decisions,
        r.faults
    )
    .unwrap();
    let rec = r.recording.as_ref().expect("recording enabled");
    writeln!(s, "meta {:?}", rec.meta).unwrap();
    for e in rec.events() {
        writeln!(s, "ev {:?} n{} d{} {:?}", e.at, e.node, e.dev, e.kind).unwrap();
    }
    s
}

#[test]
fn a_later_tenant_weight_changes_nothing_across_a_restart() {
    let matching = run(4);
    let faults = matching.faults.expect("fault schedule active");
    assert_eq!((faults.crashes, faults.restarts), (1, 1));
    // The restart really happens while the second etl job is live.
    let second = matching.job("etl-t2").expect("second etl job finished");
    assert!(second.submitted.as_secs_f64() < 6.0, "{second:?}");
    assert!(second.finished.as_secs_f64() > 6.0, "{second:?}");
    let etl = matching.tenant("etl").expect("etl tenant");
    assert_eq!(etl.weight, 4.0);
    let meta = &matching.recording.as_ref().expect("recording").meta;
    assert_eq!(meta.weight_of(etl.app.0), 4.0);

    assert_same(&canon(&matching), &canon(&run(1)));
}

/// `assert_eq!` on two canons, reporting only the first line that differs.
fn assert_same(expected: &str, got: &str) {
    let diverged = expected.lines().zip(got.lines()).position(|(a, b)| a != b);
    if let Some(i) = diverged {
        let (a, b) = (expected.lines().nth(i), got.lines().nth(i));
        panic!("canon line {i} differs:\n  matching weights: {a:?}\n  later weight 1:   {b:?}");
    }
    assert_eq!(
        expected.lines().count(),
        got.lines().count(),
        "canon lengths differ"
    );
}
