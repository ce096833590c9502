//! `bench scale` → `BENCH_scale.json`, the coordination-plane scaling record
//! behind ROADMAP item 1 (broker tree to O(1000) nodes): the same
//! per-node workload density simulated at 64, 256, and 1024 datanodes,
//! under the flat centralized broker, the rack-sharded `BrokerTree`,
//! and the tree with the fault-tolerant protocol armed but idle,
//! recording engine throughput (ns/event) and the deterministic
//! coordination-traffic counters.
//!
//! The figure of merit is **sync bytes per node** over the run and the
//! **hotspot** — whole-run bytes through the busiest coordination
//! endpoint. (Whole-run totals, not per-period rates: the heavy-tailed
//! mix leaves a long mostly-idle makespan tail whose length varies with
//! the sample count, and delta encoding makes idle periods free, so
//! dividing by makespan would just dilute the numbers with idle time.)
//! Flat mode terminates every scheduler's delta report at one broker,
//! so its hotspot grows with the node count; the tree fans reports into
//! per-rack leaf aggregators and forwards only changed totals, so its
//! per-node cost stays flat as the cluster grows 16×. Both numbers are
//! simulation-deterministic (no wall clock), which is what lets
//! `--check` gate on them exactly:
//!
//! * tree sync bytes per node at the largest size within ±20 % of the
//!   smallest size (flat curve),
//! * flat-broker hotspot growing at least half as fast as the node
//!   count over the same span (8× on the full 16× ladder — superlinear
//!   against the tree's flat per-node curve), and
//! * the **resync-overhead gate**: the `ft` cells arm the
//!   epoch/seq protocol with a schedule whose only window is
//!   zero-length, so no fault ever fires — and the run must then be
//!   outcome-identical to the plain tree (same events, makespan,
//!   per-app service, and tenant latencies) with **zero** snapshot
//!   resyncs. Robustness must be free when idle; only the wire
//!   counters may move (per-round heartbeats are the armed protocol's
//!   honest cost, and are recorded, not hidden).
//!
//! Wall-clock ns/event is recorded for trend tooling but only gated
//! loosely: the plain tree's within 50 % of the baseline's at the
//! largest size, and the armed-idle tree's within 50 % of the plain
//! tree's fresh ns/event there.
//!
//! The node ladder tops out at `IBIS_BENCH_NODES` (default 1024), so the
//! CI smoke job can run the 64→256 prefix cheaply while the committed
//! record keeps the full 64→1024 span.
//!
//! Each cell also records the engine's deterministic work counters: slot
//! assignment attempts and placements, and event-queue pushes per lane
//! with the heap's high-water mark. With `IBIS_TRACE=1` every cell runs
//! traced and prints its engine self-profile, handler time split by
//! event kind, to stderr (the JSON's timings then include tracing).

use ibis_bench::experiments::pinned;
use ibis_bench::figs::fig_scale::{ladder_cluster, RACK};
use ibis_bench::gate::{at_most, Baseline, Verdict};
use ibis_bench::{bench_nodes, json};
use ibis_cluster::prelude::*;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::MixConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Tolerance for the tree per-node curve: largest vs smallest size.
const TREE_FLAT_PCT: f64 = 20.0;

/// The flat-broker hotspot must grow at least this fraction of the node
/// ratio over the measured ladder (half leaves headroom for delta-
/// encoding savings on the bigger, more idle-tailed runs): 8× on the
/// full 16× span, 2× on the CI smoke job's 64→256 prefix.
const FLAT_GROWTH_FRACTION: f64 = 0.5;

/// Tolerated ns/event regression vs the baseline, percent.
const NS_REGRESSION_PCT: f64 = 50.0;

/// Tolerated armed-idle ns/event overhead vs the plain tree, percent
/// (fresh vs fresh on the same build, so noise, not drift).
const FT_OVERHEAD_PCT: f64 = 50.0;

/// One coordination-plane mode of the ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Flat centralized broker.
    Flat,
    /// Rack-sharded `BrokerTree`, fault-free (protocol unarmed).
    Tree,
    /// The tree with the fault-tolerant protocol armed but never
    /// exercised: the schedule's only window is zero-length, so the run
    /// pays epoch/seq bookkeeping and per-round heartbeats but no fault
    /// ever fires — the idle-cost cell the resync gate compares.
    TreeFt,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Flat, Mode::Tree, Mode::TreeFt];

    fn label(self) -> &'static str {
        match self {
            Mode::Flat => "flat",
            Mode::Tree => "tree",
            Mode::TreeFt => "ft",
        }
    }
}

/// The ladder: every size up to `IBIS_BENCH_NODES` (default: the full
/// 64→1024 span).
fn sizes() -> Vec<u32> {
    let cap = bench_nodes(1024).max(64);
    [64u32, 256, 1024]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect()
}

/// Constant per-node workload density: one flood tenant per four nodes,
/// two jobs each, so doubling the cluster doubles the tenant population
/// and the aggregate arrival rate while each node's share stays put —
/// the regime where a flat per-node coordination cost is meaningful.
fn experiment(nodes: u32, mode: Mode) -> Experiment {
    let faults = if mode == Mode::TreeFt {
        // Non-empty schedule (arms the protocol), but the only window
        // opens far past any plausible makespan and its coin never
        // fires even then — wire windows schedule no engine events, so
        // this is the pure cost of being ready to fail over.
        FaultsConfig {
            enabled: true,
            schedule: FaultSchedule::new(0x5ca1e ^ u64::from(nodes)).drop_reports(
                SimTime::from_secs(1 << 20),
                SimDuration::from_secs(1),
                u64::MAX,
            ),
            ..FaultsConfig::default()
        }
    } else {
        FaultsConfig::default()
    };
    let base = ladder_cluster(nodes, mode != Mode::Flat);
    let cfg = ClusterConfig {
        faults,
        // `IBIS_TRACE=1` runs every cell traced for its self-profile.
        trace: base.trace,
        ..pinned(base)
    };
    let mut exp = Experiment::new(cfg);
    exp.add_mix(&MixConfig::flood(
        0x5ca1e ^ u64::from(nodes),
        nodes / 4,
        2,
        SimDuration::from_secs(10),
    ));
    exp
}

/// One measured cell of the (nodes × mode) grid, as the gate reads it.
#[derive(Clone, Debug)]
struct Cell {
    nodes: u32,
    mode: Mode,
    ns_per_event: f64,
    /// Whole-run coordination bytes per node, all levels. The workload
    /// carries a fixed per-node job density, so this is the per-node
    /// coordination cost of one unit of work — the curve that must stay
    /// flat as the ladder climbs.
    bytes_per_node: f64,
    /// Whole-run bytes through the busiest coordination endpoint.
    hotspot_bytes: f64,
    /// Snapshot resyncs, broker and fault plane together.
    resyncs: u64,
    /// The scheduling outcome, canonicalized by [`outcome_canon`].
    outcome: String,
}

/// Runs one cell; returns it with its wall seconds and report.
fn run_cell(nodes: u32, mode: Mode) -> (Cell, f64, RunReport) {
    let exp = experiment(nodes, mode);
    let t = Instant::now();
    let report = exp.run();
    let secs = t.elapsed().as_secs_f64();
    let b = &report.broker;
    // Flat: the one broker sees all level-0 payload. Tree: the root sees
    // the level-1 aggregate stream and each of the `nodes / RACK` leaves
    // an even share of level 0 plus its level-1 half — take the larger.
    let hotspot_bytes = if mode == Mode::Flat {
        b.payload_bytes as f64
    } else {
        let racks = (nodes / RACK).max(1) as f64;
        let leaf = (b.payload_bytes as f64 + b.agg_bytes as f64) / racks;
        (b.agg_bytes as f64).max(leaf)
    };
    let cell = Cell {
        nodes,
        mode,
        ns_per_event: secs * 1e9 / report.events as f64,
        bytes_per_node: b.total_bytes() as f64 / nodes as f64,
        hotspot_bytes,
        resyncs: b.resyncs + report.faults.as_ref().map_or(0, |f| f.resyncs),
        outcome: outcome_canon(&report),
    };
    (cell, secs, report)
}

/// The scheduling *outcome* of a run, canonicalized: everything the
/// armed-idle protocol must leave untouched. Deliberately excludes the
/// coordination-traffic counters (heartbeats are the armed cost) and
/// the decision counter (empty heartbeat replies tick it).
fn outcome_canon(r: &RunReport) -> String {
    let mut s = String::new();
    writeln!(s, "events {} makespan {}", r.events, r.makespan.as_nanos()).unwrap();
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    writeln!(s, "service {service:?}").unwrap();
    for t in &r.tenants {
        writeln!(
            s,
            "tenant {} sub={} fin={} n={} q99={:?}",
            t.name,
            t.submitted,
            t.finished,
            t.latency.count(),
            t.latency.quantile(0.99),
        )
        .unwrap();
    }
    s
}

/// The deterministic shape limits, plus the loose wall-clock limits when
/// the baseline is timed.
fn gate(cells: &[Cell], base: &Baseline) -> Verdict {
    let mut failures = Vec::new();
    let of = |mode| cells.iter().filter(move |c| c.mode == mode);
    let tree: Vec<&Cell> = of(Mode::Tree).collect();
    let (t0, tn) = (tree[0], tree[tree.len() - 1]);
    let (f0, fn_) = (
        of(Mode::Flat).next().unwrap(),
        of(Mode::Flat).next_back().unwrap(),
    );

    if tn.nodes > t0.nodes {
        let (small, large) = (t0.bytes_per_node, tn.bytes_per_node);
        let dev = (large / small - 1.0).abs() * 100.0;
        if dev > TREE_FLAT_PCT {
            failures.push(format!(
                "tree per-node sync traffic not flat: {small:.0} B at {} nodes vs \
                 {large:.0} B at {} nodes ({dev:.0}% > {TREE_FLAT_PCT:.0}%)",
                t0.nodes, tn.nodes
            ));
        }
        let growth = fn_.hotspot_bytes / f0.hotspot_bytes;
        let floor = FLAT_GROWTH_FRACTION * fn_.nodes as f64 / f0.nodes as f64;
        if growth < floor {
            failures.push(format!(
                "flat-broker hotspot grew only {growth:.2}x from {} to {} nodes \
                 (floor {floor:.0}x)",
                f0.nodes, fn_.nodes
            ));
        }
    }

    // Resync-overhead gate: arming the protocol with nothing to survive
    // must not change the schedule's outcome or run a single resync.
    for ft in of(Mode::TreeFt) {
        let plain = tree
            .iter()
            .find(|c| c.nodes == ft.nodes)
            .expect("tree cell for every ft cell");
        if ft.outcome != plain.outcome {
            failures.push(format!(
                "{} nodes: armed-idle tree diverged from the plain tree ({} vs {})",
                ft.nodes,
                ft.outcome.lines().next().unwrap_or(""),
                plain.outcome.lines().next().unwrap_or(""),
            ));
        }
        if ft.resyncs != 0 {
            failures.push(format!(
                "{} nodes: armed-idle tree ran {} snapshot resyncs with no fault scheduled",
                ft.nodes, ft.resyncs
            ));
        }
    }

    if base.timed {
        let ft = of(Mode::TreeFt)
            .next_back()
            .expect("an armed-idle cell per size");
        let what = format!(
            "armed-idle tree ns/event at {} nodes vs the plain tree",
            ft.nodes
        );
        failures.extend(at_most(
            &what,
            ft.ns_per_event,
            tn.ns_per_event,
            FT_OVERHEAD_PCT,
        ));
        let top = format!("tree_{}", tn.nodes);
        failures.extend(base.at_most(&top, "ns_per_event", tn.ns_per_event, NS_REGRESSION_PCT)?);
    }
    Ok(failures)
}

/// Measures the record into `out` and gates against `base`.
pub fn run(out: &str, base: Option<&Baseline>) -> Verdict {
    let sizes = sizes();
    let mut runs = Vec::new();
    for &nodes in &sizes {
        for mode in Mode::ALL {
            eprintln!(
                "[bench scale] {nodes}-node run, {} broker ...",
                mode.label()
            );
            let (cell, secs, report) = run_cell(nodes, mode);
            eprintln!(
                "[bench scale]   {secs:.2}s, {} events, {:.0} B/node, hotspot {:.0} B",
                report.events, cell.bytes_per_node, cell.hotspot_bytes,
            );
            if let Some(p) = &report.engine_profile {
                eprintln!("[bench scale]   {p}\n{}", p.kind_table());
            }
            runs.push((cell, secs, report));
        }
    }

    let mut w = json::bench_writer("scale");
    w.number(Some("rack_size"), RACK as f64);
    w.open_array(Some("nodes"));
    for &n in &sizes {
        w.number(None, n as f64);
    }
    w.close();
    for (cell, secs, report) in &runs {
        let b = &report.broker;
        w.open_object(Some(&format!("{}_{}", cell.mode.label(), cell.nodes)));
        w.number(Some("secs"), *secs);
        w.number(Some("events"), report.events as f64);
        w.number(Some("ns_per_event"), cell.ns_per_event);
        w.number(Some("makespan_secs"), report.makespan.as_secs_f64());
        w.number(Some("reports"), b.reports as f64);
        w.number(Some("replies"), b.replies as f64);
        w.number(Some("payload_bytes"), b.payload_bytes as f64);
        w.number(Some("agg_msgs"), b.agg_msgs as f64);
        w.number(Some("agg_bytes"), b.agg_bytes as f64);
        w.number(Some("resyncs"), b.resyncs as f64);
        w.number(Some("sync_bytes_per_node"), cell.bytes_per_node);
        // Per-scheduler-report payload bytes — the paper's
        // O(apps-served) claim: a scheduler's delta report carries its
        // own active apps, never the cluster's.
        w.number(
            Some("payload_bytes_per_report"),
            b.payload_bytes as f64 / b.reports.max(1) as f64,
        );
        w.number(Some("hotspot_bytes"), cell.hotspot_bytes);
        w.number(
            Some("rack_local_transfers"),
            report.rack_local_transfers as f64,
        );
        w.number(
            Some("cross_rack_transfers"),
            report.cross_rack_transfers as f64,
        );
        w.number(Some("assign_attempts"), report.assign.attempts as f64);
        w.number(Some("assign_placements"), report.assign.placements as f64);
        let q = report.queue;
        w.number(Some("queue_fifo_pushes"), q.fifo_pushes as f64);
        w.number(Some("queue_heap_pushes"), q.heap_pushes as f64);
        w.number(Some("queue_peak_heap_len"), q.peak_heap_len as f64);
        w.close();
    }
    w.number(Some("tree_flat_pct"), TREE_FLAT_PCT);
    w.number(Some("flat_growth_fraction"), FLAT_GROWTH_FRACTION);
    w.number(Some("ft_overhead_pct"), FT_OVERHEAD_PCT);
    json::write_bench(w, out);
    eprintln!("[bench scale] wrote {out}");

    let cells: Vec<Cell> = runs.into_iter().map(|(cell, _, _)| cell).collect();
    base.map_or(Ok(Vec::new()), |b| gate(&cells, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(profile: &str) -> Baseline {
        let doc = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_scale.json"
        ));
        Baseline::parse("BENCH_scale.json", doc, profile)
    }

    /// The committed record's cells up to `top` nodes; each armed-idle
    /// cell's outcome equals its plain tree's.
    fn ladder(top: u32) -> Vec<Cell> {
        let base = committed("release");
        let sizes = [64, 256, 1024].into_iter().filter(|&n| n <= top);
        let grid = sizes.flat_map(|nodes| Mode::ALL.map(|mode| (nodes, mode)));
        grid.map(|(nodes, mode)| {
            let num = |key| base.num(&format!("{}_{nodes}", mode.label()), key).unwrap();
            Cell {
                nodes,
                mode,
                ns_per_event: num("ns_per_event"),
                bytes_per_node: num("sync_bytes_per_node"),
                hotspot_bytes: num("hotspot_bytes"),
                resyncs: num("resyncs") as u64,
                outcome: format!("events {}", num("events")),
            }
        })
        .collect()
    }

    fn at(cells: &mut [Cell], nodes: u32, mode: Mode) -> &mut Cell {
        cells
            .iter_mut()
            .find(|c| c.nodes == nodes && c.mode == mode)
            .unwrap()
    }

    fn failures(cells: &[Cell], profile: &str) -> usize {
        gate(cells, &committed(profile)).unwrap().len()
    }

    #[test]
    fn shape_limits_hold_against_the_committed_record() {
        for top in [64, 256, 1024] {
            assert_eq!(failures(&ladder(top), "release"), 0, "ladder to {top}");
        }
        // Tree bytes/node at the top rung within ±20 % of the bottom's.
        for (factor, want) in [(1.199, 0), (1.201, 1), (0.801, 0), (0.799, 1)] {
            let mut c = ladder(1024);
            at(&mut c, 1024, Mode::Tree).bytes_per_node =
                at(&mut c, 64, Mode::Tree).bytes_per_node * factor;
            assert_eq!(failures(&c, "release"), want, "tree bytes ×{factor}");
        }
        // Flat hotspot growth at least half the node ratio, on either ladder.
        for (top, factor, want) in [
            (256, 0.501, 0),
            (256, 0.499, 1),
            (1024, 0.501, 0),
            (1024, 0.499, 1),
        ] {
            let mut c = ladder(top);
            let ratio = f64::from(top / 64);
            at(&mut c, top, Mode::Flat).hotspot_bytes =
                at(&mut c, 64, Mode::Flat).hotspot_bytes * ratio * factor;
            assert_eq!(
                failures(&c, "release"),
                want,
                "hotspot growth {factor} × {ratio}"
            );
        }
        // The armed-idle tree: the plain tree's outcome, no resyncs; in any build.
        let mut c = ladder(256);
        at(&mut c, 64, Mode::TreeFt).outcome.push_str(" moved");
        at(&mut c, 256, Mode::TreeFt).resyncs = 1;
        assert_eq!(failures(&c, "release"), 2);
        assert_eq!(failures(&c, "debug"), 2);
    }

    #[test]
    fn timing_limits_hold_against_the_committed_record() {
        // Armed-idle ns/event within 50 % of the plain tree's at the top.
        for (factor, want) in [(1.499, 0), (1.501, 1)] {
            let mut c = ladder(1024);
            at(&mut c, 1024, Mode::TreeFt).ns_per_event =
                at(&mut c, 1024, Mode::Tree).ns_per_event * factor;
            assert_eq!(failures(&c, "release"), want, "armed-idle ×{factor}");
        }
        // The top tree rung within 50 % of the baseline's, with the
        // armed-idle cell moved along.
        for (top, factor, want) in [
            (64, 1.499, 0),
            (64, 1.501, 1),
            (256, 1.499, 0),
            (256, 1.501, 1),
            (1024, 1.501, 1),
        ] {
            let mut c = ladder(top);
            let ns = at(&mut c, top, Mode::Tree).ns_per_event * factor;
            at(&mut c, top, Mode::Tree).ns_per_event = ns;
            at(&mut c, top, Mode::TreeFt).ns_per_event = ns;
            assert_eq!(failures(&c, "release"), want, "tree_{top} ×{factor}");
            assert_eq!(failures(&c, "debug"), 0);
        }
    }
}
