//! Fault-injection determinism (ISSUE 5): the chaos subsystem must be as
//! replayable as the engine it perturbs. A fixed seed and fault schedule
//! — broker outage, probabilistic report drops, delayed replies, a node
//! crash with restart, and a device slowdown, all at once — must produce
//! **byte-identical** reports through the parallel sweep engine at
//! `IBIS_JOBS=1` vs `IBIS_JOBS=2`, and a pinned canon. The canonical
//! serialization includes the flight recording, every metrics series
//! point, and the `FaultSummary`, so any nondeterminism in crash sweeps,
//! retry chains, or failover routing shows up as a text diff.

use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workloads::{teragen, terasort, wordcount};
use std::fmt::Write as _;

/// A schedule exercising every fault kind in one run. Windows are chosen
/// to overlap the busy phase of the small workloads below.
fn chaos_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .broker_outage(SimTime::from_secs(4), SimDuration::from_secs(4))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 3)
        .delay_replies(
            SimTime::from_secs(10),
            SimDuration::from_secs(3),
            SimDuration::from_millis(1500),
        )
        .node_crash(1, SimTime::from_secs(6), Some(SimDuration::from_secs(4)))
        .device_slowdown(0, 0, 3.0, SimTime::from_secs(2), SimDuration::from_secs(5))
}

fn chaos_cluster(policy: Policy, seed: u64) -> ClusterConfig {
    let coordinated = policy.coordinates();
    ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        seed,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 18),
        metrics: MetricsConfig::enabled(SimDuration::from_millis(500)),
        faults: FaultsConfig {
            enabled: true,
            schedule: chaos_schedule(0xFA17 ^ seed),
            staleness_bound: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(100),
            retry_limit: 3,
        },
        ..ClusterConfig::default()
    }
    .with_policy(policy)
    .with_coordination(coordinated)
}

/// Canonical serialization of everything determinism-relevant, fault
/// accounting included. `wall_secs` is the only excluded field.
fn canonical_full(r: &RunReport) -> String {
    let mut s = String::new();
    for j in &r.jobs {
        writeln!(
            s,
            "job {} app={} sub={:?} fin={:?} rt={} map={} red={}",
            j.name,
            j.app.0,
            j.submitted,
            j.finished,
            j.runtime.as_nanos(),
            j.map_phase.as_nanos(),
            j.reduce_phase.as_nanos(),
        )
        .unwrap();
    }
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    writeln!(s, "service {service:?}").unwrap();
    let bits = |bytes: u64| (bytes as f64).to_bits();
    writeln!(
        s,
        "reads {:#x} writes {:#x}",
        bits(r.bytes_read()),
        bits(r.bytes_written())
    )
    .unwrap();
    let mut lat: Vec<(u32, Option<u64>)> = r
        .app_latency
        .iter()
        .map(|(a, h)| (a.0, h.quantile(0.99)))
        .collect();
    lat.sort_unstable();
    writeln!(s, "p99 {lat:?}").unwrap();
    writeln!(
        s,
        "broker {:?} decisions {} makespan {} events {}",
        r.broker,
        r.sched_decisions,
        r.makespan.as_nanos(),
        r.events,
    )
    .unwrap();
    writeln!(s, "faults {:?}", r.faults).unwrap();

    let rec = r.recording.as_ref().expect("recording enabled");
    writeln!(s, "rec seen={} retained={}", rec.seen(), rec.len()).unwrap();
    for e in rec.events() {
        writeln!(s, "ev {:?} n{} d{} {:?}", e.at, e.node, e.dev, e.kind).unwrap();
    }

    let m = r.metrics.as_ref().expect("metrics enabled");
    writeln!(s, "metrics samples={}", m.samples_taken).unwrap();
    let mut series: Vec<&ibis_metrics::Series> = m.series.iter().collect();
    series.sort_by(|a, b| (&a.key.name, a.key.labels).cmp(&(&b.key.name, b.key.labels)));
    for sr in series {
        write!(s, "series {} {:?}:", sr.key.name, sr.key.labels).unwrap();
        for &(at, v) in &sr.points {
            write!(s, " {:?}={:#x}", at, v.to_bits()).unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

/// Chaos runs on the two coordinated policies, SFQ(D) and SFQ(D2), both
/// through the flat broker with every flat-plane fault kind active.
fn batch() -> Vec<Experiment> {
    let policies = [
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
    ];
    policies
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut exp = Experiment::new(chaos_cluster(policy, 90 + i as u64));
            exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
            exp.add_job(wordcount(GIB).max_slots(8));
            if i % 2 == 1 {
                exp.add_job(teragen(GIB).arriving_at(SimDuration::from_secs(5)));
            }
            exp
        })
        .collect()
}

#[test]
fn chaos_runs_are_byte_identical_across_sweep_parallelism() {
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(batch())
        .iter()
        .map(canonical_full)
        .collect();
    let parallel: Vec<String> = SweepRunner::with_jobs(2)
        .run_all(batch())
        .iter()
        .map(canonical_full)
        .collect();
    assert_eq!(
        serial, parallel,
        "IBIS_JOBS=1 vs =2 diverged under fault injection"
    );
}

/// FNV-1a over `s`'s bytes: a short fingerprint of a canonical report.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The batch's canonical reports, pinned. The sweep test above compares
/// two runs of one build, so a change that moves both runs the same way
/// passes it; this pin moves with it. Both runs count the
/// heartbeats of idle flat-broker schedulers: their reports, drops and
/// replies, and the degraded entries those replies prevent. The service,
/// decision and degraded-entry totals include what the crashed node's
/// schedulers counted before its restart replaced them.
#[test]
fn chaos_batch_canon_is_pinned() {
    let digests: Vec<u64> = batch()
        .iter()
        .map(|e| fnv(&canonical_full(&e.run())))
        .collect();
    assert_eq!(
        digests,
        [0x3ffd_784d_de06_c990, 0xc460_319d_42d0_e765],
        "chaos batch canon moved"
    );
}

#[test]
fn chaos_run_actually_injected_faults() {
    let exp = &batch()[1];
    let r = exp.run();
    let f = r.faults.expect("fault schedule active");
    assert!(
        f.crashes == 1 && f.restarts == 1,
        "crash/restart missing: {f:?}"
    );
    assert!(
        f.broker_outages > 0,
        "outage window never hit a sync: {f:?}"
    );
    assert!(f.report_drops > 0, "probabilistic drops never fired: {f:?}");
    assert!(f.degraded_entries > 0, "no scheduler ever degraded: {f:?}");
    assert!(
        r.jobs.len() == 3,
        "all jobs should still finish: {:?}",
        r.jobs
    );
}

/// A rack-chaos recording: a 4-node-rack broker tree under a node crash,
/// a leaf-aggregator crash and a rack partition, so schedulers degrade
/// and re-converge while the rack-scoped checks are armed.
fn rack_chaos_recording() -> ibis_obs::Recording {
    let cfg = ClusterConfig {
        nodes: 8,
        cores_per_node: 4,
        seed: 3,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 40e6,
            latency: SimDuration::from_millis(2),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 40e6,
            latency: SimDuration::from_millis(2),
        },
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 18),
        faults: FaultsConfig {
            enabled: true,
            schedule: FaultSchedule::new(0xFA17)
                .aggregator_crash(0, SimTime::from_secs(3), SimDuration::from_secs(4))
                .node_crash(5, SimTime::from_secs(6), Some(SimDuration::from_secs(3)))
                .rack_partition(1, SimTime::from_secs(9), SimDuration::from_secs(4)),
            staleness_bound: SimDuration::from_secs(1),
            retry_backoff: SimDuration::from_millis(100),
            retry_limit: 3,
        },
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_broker_tree(4, SimDuration::from_micros(50));
    let mut exp = Experiment::new(cfg);
    exp.add_job(teragen(2 * GIB).max_slots(16).io_weight(4.0));
    exp.add_job(teragen(2 * GIB).max_slots(16));
    exp.add_job(wordcount(GIB).arriving_at(SimDuration::from_secs(2)));
    exp.run().recording.expect("recording enabled")
}

/// The auditor's whole report on the rack-chaos recording, pinned field
/// by field. The auditor rebuilds state per `(node, dev)` stream; a pin
/// moves if that state leaks between streams or is lost between events.
#[test]
fn audit_report_on_rack_chaos_recording_is_pinned() {
    let rec = rack_chaos_recording();
    assert_eq!(rec.dropped_total(), 0);
    let cfg = ibis_obs::AuditConfig {
        window: SimDuration::from_secs(1),
        min_window_bytes: 4 << 20,
        max_violations: 1000,
        ..ibis_obs::AuditConfig::default()
    };
    let mut a = ibis_obs::audit(&rec, &cfg);
    let counts = (
        a.events,
        a.dispatches,
        a.windows_checked,
        a.delay_checks,
        a.degraded_marks,
        a.rack_checks,
    );
    let violations = (
        a.violation_count,
        a.start_tag_violations,
        a.share_violations,
        a.delay_violations,
        a.degraded_violations,
        a.rack_violations,
    );
    let errors = (
        a.share_errors.len(),
        a.share_errors.mean().to_bits(),
        a.share_errors.quantile(0.5).map(f64::to_bits),
        a.share_errors.quantile(1.0).map(f64::to_bits),
    );
    let detail = fnv(&a
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<String>());
    // Every check ran: share windows, delay charges, degraded spans and
    // the rack-scoped checks.
    assert_eq!(counts, (15653, 3652, 46, 224, 32, 290));
    assert_eq!(violations, (55, 1, 53, 1, 0, 0));
    assert_eq!(
        errors,
        (
            92,
            4598323599011260316,
            Some(4596373779694328216),
            Some(4605380978949069210)
        )
    );
    assert!(a.truncated_nodes.is_empty());
    assert_eq!(detail, 0x1fdf_f3d4_a302_5704, "violation details moved");
}
