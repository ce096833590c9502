//! The sweep engine's core guarantee: a batch fanned across worker
//! threads produces **byte-identical** reports to the serial loop, at any
//! width. Each experiment is a self-contained simulation, so the only
//! thing parallelism may change is wall-clock time — `wall_secs` is the
//! one report field excluded from the canonical serialization below.
//!
//! CI runs this suite under `IBIS_JOBS=2` so the env-selected path is
//! exercised too (see `env_selected_width_matches_serial`).

use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::SimDuration;
use ibis_workloads::{teragen, terasort, wordcount};
use std::fmt::Write as _;

fn ideal_cluster(policy: Policy, seed: u64) -> ClusterConfig {
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
        ..ClusterConfig::default()
    }
    .with_policy(policy)
    .with_coordination(coordinated)
}

/// A representative batch: different policies, seeds, and job mixes, so
/// reordered execution would be caught on any of them.
fn batch() -> Vec<Experiment> {
    let policies = [
        Policy::Native,
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
        Policy::CgroupWeight,
        Policy::Strict { depth: 8 },
        Policy::SfqD2(SfqD2Config::default()),
    ];
    policies
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut exp = Experiment::new(ideal_cluster(policy, 40 + i as u64));
            exp.add_job(terasort(GIB).max_slots(8).io_weight(8.0));
            if i % 2 == 0 {
                exp.add_job(wordcount(GIB).max_slots(8).io_weight(1.0));
            }
            exp
        })
        .collect()
}

/// Canonical, deterministic serialization of a report. Every field except
/// `wall_secs` (wall-clock, legitimately run-dependent) is included;
/// hash-map-backed fields are emitted in sorted key order.
fn canonical(r: &RunReport) -> String {
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
    for q in &r.queries {
        writeln!(
            s,
            "query {} app={} rt={}",
            q.name,
            q.first_app.0,
            q.runtime.as_nanos()
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
        "broker {:?} decisions {} makespan {} events {} refs {:?}",
        r.broker,
        r.sched_decisions,
        r.makespan.as_nanos(),
        r.events,
        r.reference_latencies_ms.map(|a| a.map(f64::to_bits)),
    )
    .unwrap();
    s
}

#[test]
fn parallel_results_byte_identical_to_serial_at_two_widths() {
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(batch())
        .iter()
        .map(canonical)
        .collect();
    assert_eq!(serial.len(), 6);
    for width in [2, 4] {
        let parallel: Vec<String> = SweepRunner::with_jobs(width)
            .run_all(batch())
            .iter()
            .map(canonical)
            .collect();
        assert_eq!(serial, parallel, "width {width} diverged from serial");
    }
}

#[test]
fn env_selected_width_matches_serial() {
    // Under CI this runs with IBIS_JOBS=2; locally it covers whatever
    // width the machine defaults to.
    let runner = SweepRunner::from_env();
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(batch())
        .iter()
        .map(canonical)
        .collect();
    let env: Vec<String> = runner.run_all(batch()).iter().map(canonical).collect();
    assert_eq!(
        serial,
        env,
        "env width {} diverged from serial",
        runner.jobs()
    );
}

/// Mixed workloads across the policies whose engine paths differ most:
/// Native (no interposition), SFQ(D), and coordinated SFQ(D2), with the
/// flight recorder and the metrics sampler on: the most id- and
/// order-sensitive outputs the engine has.
fn observed_batch() -> Vec<Experiment> {
    let policies = [
        Policy::Native,
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
    ];
    policies
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut exp = Experiment::new(ClusterConfig {
                obs: ObsConfig::enabled(1 << 18),
                metrics: MetricsConfig::enabled(SimDuration::from_millis(500)),
                ..ideal_cluster(policy, 70 + i as u64)
            });
            exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
            exp.add_job(wordcount(GIB).max_slots(8));
            if i % 2 == 0 {
                exp.add_job(teragen(GIB).arriving_at(SimDuration::from_secs(5)));
            }
            exp
        })
        .collect()
}

/// [`canonical`] plus the flight recording, every event verbatim in
/// record order, and every metrics series point, bit-exact. Ids inside
/// the events are encoded slab keys, so identical text means identical
/// key assignment, not just identical timing.
fn canonical_full(r: &RunReport) -> String {
    let mut s = canonical(r);
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

/// FNV-1a over `s`'s bytes: a short fingerprint of a canonical report.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The observed batch at widths 1 and 2 under the full canon, and that
/// canon pinned. The width comparison runs one build twice, so a change
/// that moves both runs the same way passes it; the pins move with it.
#[test]
fn observed_batch_byte_identical_at_width_2_and_pinned() {
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(observed_batch())
        .iter()
        .map(canonical_full)
        .collect();
    let parallel: Vec<String> = SweepRunner::with_jobs(2)
        .run_all(observed_batch())
        .iter()
        .map(canonical_full)
        .collect();
    assert_eq!(
        serial, parallel,
        "width 2 diverged from serial on the observed batch"
    );
    let digests: Vec<u64> = serial.iter().map(|s| fnv(s)).collect();
    assert_eq!(
        digests,
        [
            0xfcc9_273a_1653_5fbc,
            0x53ba_a196_1f96_308d,
            0xb5b8_bd0b_3625_1c5e
        ],
        "observed batch canon moved"
    );
}
