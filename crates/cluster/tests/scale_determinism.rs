//! Hierarchical-broker determinism at scale (ISSUE 9): a rack-sharded
//! cluster (64 nodes in debug tier-1 runs, 256 in release / CI's
//! scale-smoke job) coordinated through the `BrokerTree` — leaf
//! aggregators per rack, delta-encoded reports up, delta-encoded replies
//! down — running a `MixConfig::flood` open-system mix under the full
//! chaos schedule must produce **byte-identical** reports from two runs
//! of one seed, and a pinned canon. The canon serializes jobs,
//! per-app service and latency, the recording and the metrics series,
//! plus the per-tenant section, the broker's per-level traffic counters,
//! the rack-topology transfer counters, the slot-assignment work
//! counters, and the event-queue lane counters, so any nondeterminism in leaf aggregation order, delta
//! encoding, round completion, rack-aware placement, assignment sweeps,
//! or event-queue lane routing shows up as a text diff.

use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::MixConfig;
use std::fmt::Write as _;

/// Debug builds (plain `cargo test -q`, the tier-1 pass) run the same
/// suite at 64 nodes / 4 racks so it fits the tier-1 time budget; the
/// full 256-node ladder is release-scale and runs in CI's `scale-smoke`
/// job (`cargo test --release --test scale_determinism`).
const NODES: u32 = if cfg!(debug_assertions) { 64 } else { 256 };
const TENANTS: u32 = if cfg!(debug_assertions) { 12 } else { 24 };
const RACK: u32 = 16;

/// The all-kinds chaos schedule: a broker outage, dropped / duplicated /
/// reordered reports, delayed replies, a node crash with restart, a leaf
/// aggregator crash, and a rack partition — every fault path the
/// tree-coordination plane shares with the flat broker plus every
/// rack-scoped failure domain of the fault-tolerant protocol (ISSUE 10).
fn chaos_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .broker_outage(SimTime::from_secs(15), SimDuration::from_secs(6))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 5)
        .dup_reports(SimTime::ZERO, SimDuration::from_secs(3600), 7)
        .reorder_reports(SimTime::ZERO, SimDuration::from_secs(3600), 9)
        .delay_replies(
            SimTime::from_secs(30),
            SimDuration::from_secs(4),
            SimDuration::from_millis(1500),
        )
        .node_crash(33, SimTime::from_secs(20), Some(SimDuration::from_secs(10)))
        .aggregator_crash(1, SimTime::from_secs(18), SimDuration::from_secs(6))
        .rack_partition(2, SimTime::from_secs(26), SimDuration::from_secs(5))
}

/// A `NODES`-wide observed cluster, tree-coordinated over 16-node racks
/// with a 50 µs per-hop latency, rack-aware placement on, fast devices
/// so the flood jobs finish quickly.
fn scale_cluster(seed: u64, chaos: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
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
        chunk: 2 * ibis_simcore::units::MIB,
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 16),
        metrics: MetricsConfig::enabled(SimDuration::from_secs(20)),
        faults: if chaos {
            FaultsConfig {
                enabled: true,
                schedule: chaos_schedule(0xFA17 ^ seed),
                staleness_bound: SimDuration::from_secs(2),
                retry_backoff: SimDuration::from_millis(100),
                retry_limit: 3,
            }
        } else {
            FaultsConfig::default()
        },
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_broker_tree(RACK, SimDuration::from_micros(50))
}

/// The flood mix: `TENANTS` tenants (every 16th premium at weight 4)
/// cycling short-task / SWIM / heavy-tailed shapes, arriving
/// open-system. Small enough that three full runs fit a CI budget; the
/// thousands-of-tenants regime is `fig_scale`'s job.
fn flood(seed: u64) -> MixConfig {
    MixConfig::flood(seed, TENANTS, 2, SimDuration::from_secs(12))
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

fn scale_experiment(seed: u64, chaos: bool) -> Experiment {
    let mut exp = Experiment::new(scale_cluster(seed, chaos));
    exp.add_mix(&flood(seed ^ 0x5eed));
    read_ahead_8(&mut exp);
    exp
}

/// Jobs, per-app service and latency, the recording and the metrics
/// series, plus tenants, per-level broker counters (inside
/// `BrokerStats`'s `Debug`), rack transfer counters, assignment
/// counters, and event-queue counters. Excluded: `wall_secs`.
fn canonical_full(r: &RunReport) -> String {
    let mut s = String::new();
    for j in &r.jobs {
        writeln!(
            s,
            "job {} app={} sub={:?} fin={:?} rt={}",
            j.name,
            j.app.0,
            j.submitted,
            j.finished,
            j.runtime.as_nanos(),
        )
        .unwrap();
    }
    for t in &r.tenants {
        write!(
            s,
            "tenant {} app={} w={} sub={} fin={} n={}",
            t.name,
            t.app.0,
            t.weight,
            t.submitted,
            t.finished,
            t.latency.count(),
        )
        .unwrap();
        for q in [0.5, 0.99, 1.0] {
            write!(s, " q{q}={:?}", t.latency.quantile(q)).unwrap();
        }
        writeln!(s, " mean={:#x}", t.latency.mean().to_bits()).unwrap();
    }
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    writeln!(s, "service {service:?}").unwrap();
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
    writeln!(
        s,
        "racks local={} cross={}",
        r.rack_local_transfers, r.cross_rack_transfers
    )
    .unwrap();
    writeln!(s, "faults {:?}", r.faults).unwrap();
    writeln!(s, "assign {:?}", r.assign).unwrap();
    writeln!(s, "queue {:?}", r.queue).unwrap();

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

#[test]
fn tree_broker_chaos_run_is_byte_identical_across_runs() {
    let serial = scale_experiment(9, true).run();
    // The run really coordinated through the tree: scheduler reports
    // reached rack leaves, aggregator traffic flowed on level 1, the
    // rack topology steered transfers, and the chaos schedule fired.
    assert!(serial.broker.reports > 0, "no scheduler reports reached a leaf");
    assert!(serial.broker.agg_msgs > 0, "no leaf→root aggregator traffic");
    let faults = serial.faults.expect("chaos active");
    assert!(faults.crashes > 0);
    // The rack-scoped fault paths really fired: a leaf aggregator crashed
    // and restarted, a rack partitioned, wire-level dup/reorder faults
    // hit reports, and the protocol repaired at least one gap with a
    // snapshot resync.
    assert!(faults.agg_crashes > 0, "aggregator crash never fired");
    assert!(faults.agg_restarts > 0, "aggregator never restarted");
    assert!(faults.rack_partitions > 0, "rack partition never fired");
    assert!(faults.dup_reports > 0, "no duplicated reports");
    assert!(faults.reorder_reports > 0, "no reordered reports");
    assert!(faults.resyncs > 0, "protocol never ran a snapshot resync");
    assert!(serial.broker.resyncs > 0, "tree stats saw no resyncs");
    assert!(serial.broker.dup_ignored > 0, "no duplicate was ever ignored");
    assert!(serial.rack_local_transfers > 0, "rack topology saw no local transfers");
    // Assignment ran through per-sweep candidate sets: some sweeps found
    // nothing placeable and stopped before visiting a node, and placements
    // cover every task at least once (crash-aborted tasks run again).
    let a = serial.assign;
    assert!(a.empty_sweeps > 0 && a.empty_sweeps < a.sweeps, "{a:?}");
    assert!(a.placements > 0 && a.placements <= a.attempts, "{a:?}");
    // Every scheduler tick (one per device queue per second) re-armed
    // through a FIFO lane; device completions went through the heap.
    let q = serial.queue;
    let ticks = serial.makespan.as_nanos() / 1_000_000_000 * u64::from(NODES) * 2;
    assert!(q.fifo_pushes >= ticks && q.heap_pushes > 0, "{q:?}");
    assert_eq!(
        canonical_full(&serial),
        canonical_full(&scale_experiment(9, true).run()),
        "tree-broker chaos run diverged between two runs of one seed"
    );
}

/// FNV-1a over `s`'s bytes: a short fingerprint of a canonical report.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The clean and chaos canons, pinned per build profile (`NODES` is 64
/// in debug, 256 in release). The test above compares two runs of one
/// build, so a change that moves both runs the same way passes
/// it; these pins move with it.
#[test]
fn clean_and_chaos_canons_are_pinned() {
    let pins: (u64, u64) = if cfg!(debug_assertions) {
        (0x7761_074f_0f22_31ad, 0xc743_9700_d33c_cbb8)
    } else {
        (0xb99d_eac0_f805_8a5f, 0x8eea_45ef_e50c_e21f)
    };
    let digests = (
        fnv(&canonical_full(&scale_experiment(9, false).run())),
        fnv(&canonical_full(&scale_experiment(9, true).run())),
    );
    assert_eq!(digests, pins, "clean / chaos canon moved");
}
