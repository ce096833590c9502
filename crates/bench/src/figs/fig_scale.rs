//! `fig_scale` — fairness holding 64→1024 nodes under the hierarchical
//! coordination plane (ROADMAP item 1, ISSUE 9 acceptance figure, plus
//! the ISSUE 10 rack-chaos acceptance cells).
//!
//! Each ladder size runs the same open-system flood (two `ibis-workgen`
//! tenants per node — 2048 tenants at 1024 nodes — cycling short-task /
//! SWIM / heavy-tailed shapes, every 16th tenant premium-weighted) twice:
//! once under the flat centralized broker and once under the rack-sharded
//! `BrokerTree`. A mid-run broker outage with a 2 s staleness bound makes
//! the schedulers' degraded pure-local fallback engage, so the audit's
//! degraded invariant is checked non-vacuously at every size.
//!
//! The **largest rung** additionally runs the ISSUE 10 acceptance
//! scenario: the same tree run fault-free (calm) and under a mid-run
//! aggregator crash plus a *disjoint-rack* control-plane partition,
//! built by parsing the `IBIS_FAULTS` string `RACK_FAULTS` — the whole
//! failure scenario is reproducible from that string alone. The chaos
//! cell must pass the six-invariant audit (the five `ibis-obs`
//! invariants, including rack-scoped recovery, plus the `ibis-trace`
//! attribution sum) non-vacuously, and the *unaffected* racks must hold
//! Jain fairness parity with the calm run over service delivered during
//! the fault window (|Δ| ≤ `JAIN_PARITY`): a rack-local fault may not
//! move who gets served on the racks it never touched.
//!
//! Reported per size:
//!
//! * **Jain fairness** over weight-normalized per-tenant delivered
//!   service, flat vs tree. The mix is heterogeneous (tenants differ in
//!   demand), so the index is not expected to be ≈1 — the claim is
//!   *parity*: sharding the broker must not change who gets served.
//! * **Sync bytes per node** over the whole run — the tree's per-node
//!   coordination cost stays flat up the ladder while the flat broker's
//!   single-endpoint payload grows with the cluster (`bench scale` gates
//!   these curves exactly; the figure records them alongside fairness).
//! * The **fairness audit**: the five `ibis-obs` invariants (start-tag
//!   monotonicity, windowed proportional share, DSFQ delay identity,
//!   degraded pure-local, rack-scoped recovery) plus the `ibis-trace`
//!   attribution-sum identity on the tree run's recording — all six must
//!   pass.

use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_obs::{audit, AuditConfig, EventKind, ObsConfig};
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::MixConfig;
use std::collections::HashMap;

const SEED: u64 = 0x5ca1e;

/// Nodes per rack — one leaf aggregator per rack in tree mode.
pub const RACK: u32 = 16;

/// Maximum tolerated Jain-index gap between the flat and tree planes at
/// one size — and between the calm and rack-chaos runs on unaffected
/// racks during the fault window. The runs schedule the identical
/// workload; neither sharding nor a rack-local fault may change the
/// weighted-share outcome elsewhere by more than a hundredth.
const JAIN_PARITY: f64 = 0.01;

/// The ISSUE 10 acceptance scenario as an `IBIS_FAULTS` string: rack 0's
/// leaf aggregator crashes and a *disjoint* rack (2) partitions from the
/// control plane, both mid-run over the same window. Parsed — not built —
/// so the whole chaos cell reproduces from this string alone.
const RACK_FAULTS: &str = "agg:0@15s+8s; partition:2@15s+8s";

/// `[start, end)` of both rack faults in [`RACK_FAULTS`], nanoseconds.
const FAULT_WINDOW: (u64, u64) = (15_000_000_000, 23_000_000_000);

/// The racks [`RACK_FAULTS`] touches; every other rack must be unmoved.
const DARK_RACKS: [u32; 2] = [0, 2];

/// The fault shape of one figure cell.
#[derive(Clone, Copy, PartialEq)]
enum Chaos {
    /// Mid-run whole-cluster broker outage (the ISSUE 9 ladder cells).
    Outage,
    /// No faults at all: the fault-free reference for the chaos cell.
    Calm,
    /// [`RACK_FAULTS`]: aggregator crash + disjoint-rack partition.
    Rack,
}

/// The ladder, capped by profile: the full 64→1024 span regenerates the
/// paper record; quick keeps CI inside a small multiple of the
/// `scale_determinism` suite.
fn sizes(scale: ScaleProfile) -> Vec<u32> {
    match scale {
        ScaleProfile::Paper => vec![64, 256, 1024],
        ScaleProfile::Quick => vec![64, 256],
    }
}

/// Two flood tenants per node, two jobs each: constant per-node demand
/// density up the ladder, thousands of tenants at the top.
fn mix(nodes: u32) -> MixConfig {
    MixConfig::flood(
        SEED ^ u64::from(nodes),
        nodes * 2,
        2,
        SimDuration::from_secs(10),
    )
}

/// The scale ladder's cluster, shared with `bench scale`: `nodes`
/// four-core nodes on fast `Ideal` devices in racks of [`RACK`], running
/// coordinated SFQ(D2) through the flat broker or, with `tree`, the
/// rack-sharded broker tree (50 µs per hop).
pub fn ladder_cluster(nodes: u32, tree: bool) -> ClusterConfig {
    let ideal = DeviceSpec::Ideal {
        bandwidth: 300e6,
        latency: SimDuration::from_millis(2),
    };
    let cfg = ClusterConfig {
        nodes,
        cores_per_node: 4,
        seed: SEED,
        hdfs_device: ideal.clone(),
        scratch_device: ideal,
        auto_reference: false,
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_racks(RACK)
    .with_coordination(true);
    if tree {
        cfg.with_broker_tree(RACK, SimDuration::from_micros(50))
    } else {
        cfg
    }
}

/// The [`ladder_cluster`] with the flight recorder on and the cell's
/// fault shape: a single mid-run broker outage (15 s in, 6 s long, 2 s
/// staleness bound) for the ladder cells — long enough that every
/// scheduler declares its broker totals stale and drops to pure-local
/// SFQ(D2) — or the parsed [`RACK_FAULTS`] scenario / no faults at all
/// for the top rung's chaos pair.
fn cluster(nodes: u32, tree: bool, chaos: Chaos) -> ClusterConfig {
    let faults = match chaos {
        Chaos::Outage => FaultsConfig {
            enabled: true,
            schedule: FaultSchedule::new(0xFA17 ^ u64::from(nodes))
                .broker_outage(SimTime::from_secs(15), SimDuration::from_secs(6)),
            staleness_bound: SimDuration::from_secs(2),
            ..FaultsConfig::default()
        },
        Chaos::Calm => FaultsConfig::default(),
        Chaos::Rack => FaultsConfig {
            enabled: true,
            schedule: FaultSchedule::parse(RACK_FAULTS, 0xFA17 ^ u64::from(nodes))
                .expect("RACK_FAULTS parses"),
            staleness_bound: SimDuration::from_secs(2),
            ..FaultsConfig::default()
        },
    };
    ClusterConfig {
        obs: ObsConfig::enabled(1 << 20),
        metrics: ibis_metrics::MetricsConfig::default(),
        faults,
        ..ladder_cluster(nodes, tree)
    }
}

struct Cell {
    nodes: u32,
    tree: bool,
    chaos: Chaos,
    report: RunReport,
}

fn run_cell(nodes: u32, tree: bool, chaos: Chaos) -> Cell {
    let mut exp = Experiment::new(cluster(nodes, tree, chaos));
    exp.add_mix(&mix(nodes));
    Cell {
        nodes,
        tree,
        chaos,
        report: exp.run(),
    }
}

/// Jain's fairness index over weight-normalized per-tenant delivered
/// service: `(Σx)² / (n·Σx²)` with `x = service / weight`.
fn jain(r: &RunReport) -> f64 {
    let xs: Vec<f64> = r
        .tenants
        .iter()
        .map(|t| r.app_service.get(&t.app).copied().unwrap_or(0) as f64 / t.weight)
        .collect();
    jain_of(&xs)
}

fn jain_of(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return f64::NAN;
    }
    sum * sum / (n * sq)
}

/// Jain's index over per-tenant service *completed on unaffected racks
/// during the fault window*, from the flight recording: the scoped-
/// fairness witness. Returns `(index, bytes)` so the caller can reject a
/// vacuous (empty-window) comparison.
fn windowed_jain(cell: &Cell) -> (f64, u64) {
    let rec = cell.report.recording.as_ref().expect("recorder forced on");
    let mut per_app: HashMap<u32, u64> = HashMap::new();
    let mut total = 0u64;
    for e in rec.events() {
        let t = e.at.as_nanos();
        if t < FAULT_WINDOW.0 || t >= FAULT_WINDOW.1 || DARK_RACKS.contains(&(e.node / RACK)) {
            continue;
        }
        if let EventKind::Completed { app, bytes, .. } = e.kind {
            *per_app.entry(app).or_insert(0) += bytes;
            total += bytes;
        }
    }
    let xs: Vec<f64> = cell
        .report
        .tenants
        .iter()
        .map(|t| per_app.get(&t.app.0).copied().unwrap_or(0) as f64 / t.weight)
        .collect();
    (jain_of(&xs), total)
}

/// All six invariants on `cell`'s recording: the five audited by
/// `ibis-obs` plus the `ibis-trace` attribution-sum identity. Returns
/// `(violations, events, degraded_marks, rack_checks)`; panics carry the
/// size so a CI failure names the rung.
fn audit_cell(cell: &Cell) -> (u64, u64, u64, u64) {
    let rec = cell.report.recording.as_ref().expect("recorder forced on");
    let mut report = audit(rec, &AuditConfig::default());
    let attribution = ibis_trace::check(rec, ibis_trace::SUM_REL_TOL);
    assert!(
        report.passed() && report.violation_count == 0,
        "{} nodes: fairness audit violated:\n{}",
        cell.nodes,
        report.summary()
    );
    assert!(
        attribution.violations == 0 && attribution.checked > 0,
        "{} nodes: attribution sums: {} of {} apps violate (worst rel err {:.3e})",
        cell.nodes,
        attribution.violations,
        attribution.checked,
        attribution.worst_rel_err
    );
    assert!(
        report.degraded_marks > 0,
        "{} nodes: the fault never tripped degraded mode — the pure-local \
         invariant was checked vacuously",
        cell.nodes
    );
    (
        report.violation_count + attribution.violations,
        report.events,
        report.degraded_marks,
        report.rack_checks,
    )
}

/// The top rung's ISSUE 10 acceptance block: the rack-chaos cell passes
/// the six-invariant audit non-vacuously, the protocol actually repaired
/// (resyncs fired, no job was lost), and the unaffected racks held
/// windowed Jain parity with the calm run. Records everything to `sink`.
fn rack_chaos_block(calm: &Cell, chaos: &Cell, sink: &mut ResultSink) {
    let nodes = chaos.nodes;
    for (cell, label) in [(calm, "calm"), (chaos, "rack-chaos")] {
        for t in &cell.report.tenants {
            assert_eq!(
                t.finished, t.submitted,
                "{nodes} nodes ({label}): tenant {} lost jobs",
                t.name
            );
        }
    }
    assert!(
        calm.report.faults.is_none() && calm.report.broker.resyncs == 0,
        "calm cell ran faults — it must be the fault-free reference"
    );
    let f = chaos.report.faults.as_ref().expect("rack chaos active");
    assert!(f.agg_crashes > 0, "aggregator crash never fired");
    assert!(f.agg_restarts > 0, "aggregator never restarted");
    assert!(f.rack_partitions > 0, "rack partition never fired");
    assert!(
        f.resyncs > 0 && chaos.report.broker.resyncs > 0,
        "failover never ran a snapshot resync"
    );

    let (violations, events, degraded, rack_checks) = audit_cell(chaos);
    assert!(
        rack_checks > 0,
        "{nodes} nodes: rack-scoped recovery was checked vacuously"
    );

    let (j_calm, b_calm) = windowed_jain(calm);
    let (j_chaos, b_chaos) = windowed_jain(chaos);
    assert!(
        b_calm > 0 && b_chaos > 0,
        "{nodes} nodes: no unaffected-rack service completed in the fault window"
    );
    let delta = (j_calm - j_chaos).abs();
    assert!(
        delta <= JAIN_PARITY,
        "{nodes} nodes: the rack-local fault moved unaffected-rack fairness: \
         calm {j_calm:.4} vs chaos {j_chaos:.4} over the fault window"
    );

    println!(
        "\nrack chaos @ {nodes} nodes ({RACK_FAULTS:?}): windowed jain calm \
         {j_calm:.4} vs chaos {j_chaos:.4} (|Δ| {delta:.4}), {} resyncs, \
         audit pass ({events} events, {degraded} degraded marks, \
         {rack_checks} rack checks)",
        chaos.report.broker.resyncs
    );
    for (k, v) in [
        ("windowed_jain_calm", j_calm),
        ("windowed_jain_chaos", j_chaos),
        ("windowed_jain_delta", delta),
        ("window_bytes_calm", b_calm as f64),
        ("window_bytes_chaos", b_chaos as f64),
        ("resyncs", chaos.report.broker.resyncs as f64),
        ("audit_violations", violations as f64),
        ("degraded_marks", degraded as f64),
        ("rack_checks", rack_checks as f64),
    ] {
        sink.record(&format!("rackchaos_n{nodes}_{k}"), v);
    }
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig_scale", scale.label());
    println!(
        "fig_scale — fairness vs cluster size, flat vs tree broker ({})\n",
        scale.label()
    );

    let sizes = sizes(scale);
    let top = *sizes.last().expect("ladder non-empty");
    let mut grid: Vec<(u32, bool, Chaos)> = sizes
        .iter()
        .flat_map(|&n| [(n, false, Chaos::Outage), (n, true, Chaos::Outage)])
        .collect();
    // The top rung's acceptance pair: fault-free reference + rack chaos.
    grid.push((top, true, Chaos::Calm));
    grid.push((top, true, Chaos::Rack));
    let cells: Vec<Cell> = SweepRunner::from_env()
        .map(grid, |_, (nodes, tree, chaos)| run_cell(nodes, tree, chaos))
        .into_iter()
        .collect();

    let mut table = Table::new(&[
        "nodes",
        "tenants",
        "jain flat",
        "jain tree",
        "|Δ|",
        "tree B/node",
        "flat B/node",
        "audit (events, degraded)",
    ]);
    for &nodes in &sizes {
        let flat = cells
            .iter()
            .find(|c| c.nodes == nodes && !c.tree && c.chaos == Chaos::Outage)
            .unwrap();
        let tree = cells
            .iter()
            .find(|c| c.nodes == nodes && c.tree && c.chaos == Chaos::Outage)
            .unwrap();
        for cell in [flat, tree] {
            let r = &cell.report;
            assert_eq!(r.tenants.len() as u32, nodes * 2, "tenant population");
            for t in &r.tenants {
                assert_eq!(
                    t.finished, t.submitted,
                    "{nodes} nodes: tenant {} lost jobs",
                    t.name
                );
            }
        }
        assert!(tree.report.broker.agg_msgs > 0, "tree run never aggregated");
        assert_eq!(flat.report.broker.agg_msgs, 0, "flat run grew a level 1");

        let (jf, jt) = (jain(&flat.report), jain(&tree.report));
        let delta = (jf - jt).abs();
        assert!(
            delta <= JAIN_PARITY,
            "{nodes} nodes: sharding the broker moved the fairness index: \
             flat {jf:.4} vs tree {jt:.4}"
        );
        let tree_bpn = tree.report.broker.total_bytes() as f64 / nodes as f64;
        let flat_bpn = flat.report.broker.total_bytes() as f64 / nodes as f64;
        let (violations, events, degraded, _) = audit_cell(tree);

        table.row(&[
            nodes.to_string(),
            (nodes * 2).to_string(),
            format!("{jf:.4}"),
            format!("{jt:.4}"),
            format!("{delta:.4}"),
            format!("{tree_bpn:.0}"),
            format!("{flat_bpn:.0}"),
            format!("pass ({events}, {degraded})"),
        ]);
        for (k, v) in [
            ("jain_flat", jf),
            ("jain_tree", jt),
            ("jain_delta", delta),
            ("tree_bytes_per_node", tree_bpn),
            ("flat_bytes_per_node", flat_bpn),
            ("flat_hotspot_bytes", flat.report.broker.payload_bytes as f64),
            ("audit_violations", violations as f64),
            ("audit_events", events as f64),
            ("degraded_marks", degraded as f64),
            ("makespan_s", tree.report.makespan.as_secs_f64()),
        ] {
            sink.record(&format!("n{nodes}_{k}"), v);
        }
    }
    table.print();

    let calm = cells.iter().find(|c| c.chaos == Chaos::Calm).unwrap();
    let chaos = cells.iter().find(|c| c.chaos == Chaos::Rack).unwrap();
    rack_chaos_block(calm, chaos, &mut sink);

    sink.note(
        "Scale ladder, constant per-node demand (2 flood tenants/node). \
         Shape targets: the weighted Jain index under the rack-sharded \
         tree matches the flat broker's at every size (sharding changes \
         where totals aggregate, not who gets served); the tree's \
         whole-run sync bytes per node stay flat up the ladder while the \
         flat broker's single endpoint absorbs payload that grows with \
         the cluster; and the tree recording passes all six audit \
         invariants — with the mid-run broker outage making the degraded \
         pure-local check non-vacuous. The top rung adds the rack-chaos \
         acceptance pair: an aggregator crash plus a disjoint-rack \
         partition (parsed from the IBIS_FAULTS string) must keep \
         unaffected racks at windowed Jain parity with the fault-free \
         run, re-converge within two sync periods of heal, and never \
         regress broker totals — the rack-scoped-recovery invariant, \
         checked non-vacuously.",
    );
    sink
}
