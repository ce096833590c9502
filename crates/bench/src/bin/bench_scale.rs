//! Emits `BENCH_scale.json` — the coordination-plane scaling record
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
//! * the **resync-overhead gate** (ISSUE 10): the `ft` cells arm the
//!   epoch/seq protocol with a schedule whose only window is
//!   zero-length, so no fault ever fires — and the run must then be
//!   outcome-identical to the plain tree (same events, makespan,
//!   per-app service, and tenant latencies) with **zero** snapshot
//!   resyncs. Robustness must be free when idle; only the wire
//!   counters may move (per-round heartbeats are the armed protocol's
//!   honest cost, and are recorded, not hidden).
//!
//! Wall-clock ns/event is recorded for trend tooling but, as in
//! `bench_par`, only gated loosely and only on release builds — the
//! armed-idle tree additionally must stay within 50 % of the plain
//! tree's fresh ns/event at the largest size.
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
//!
//! Usage: `bench_scale [--check <baseline.json>] [output-path]`
//! (default `BENCH_scale.json`).

use ibis_bench::{bench_nodes, json};
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::MixConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Nodes per rack (one leaf aggregator per rack in tree mode).
const RACK: u32 = 16;

/// Tolerance for the tree per-node curve: largest vs smallest size.
const TREE_FLAT_PCT: f64 = 20.0;

/// The flat-broker hotspot must grow at least this fraction of the node
/// ratio over the measured ladder (half leaves headroom for delta-
/// encoding savings on the bigger, more idle-tailed runs): 8× on the
/// full 16× span, 2× on the CI smoke job's 64→256 prefix.
const FLAT_GROWTH_FRACTION: f64 = 0.5;

/// Tolerated ns/event regression vs the committed baseline, percent.
const NS_REGRESSION_PCT: f64 = 50.0;

/// Tolerated armed-idle ns/event overhead vs the plain tree, percent
/// (fresh vs fresh on the same build, so noise, not drift).
const FT_OVERHEAD_PCT: f64 = 50.0;

/// One coordination-plane mode of the ladder.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Flat centralized broker.
    Flat,
    /// Rack-sharded `BrokerTree`, fault-free fast path.
    Tree,
    /// The tree with the fault-tolerant protocol armed but never
    /// exercised: the schedule's only window is zero-length, so the run
    /// pays epoch/seq bookkeeping and per-round heartbeats but no fault
    /// ever fires — the idle-cost cell the resync gate compares.
    TreeFt,
}

impl Mode {
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
    [64u32, 256, 1024].into_iter().filter(|&n| n <= cap).collect()
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
        ibis_faults::FaultsConfig::default()
    };
    let mut cfg = ClusterConfig {
        nodes,
        cores_per_node: 4,
        seed: 0x5ca1e,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        auto_reference: false,
        // Deterministic run: keep env-read subsystems pinned off, as in
        // bench_par, so IBIS_OBS / IBIS_METRICS / IBIS_FAULTS cannot
        // skew the traffic counters.
        obs: ibis_obs::ObsConfig::default(),
        metrics: ibis_metrics::MetricsConfig::default(),
        faults,
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_racks(RACK)
    .with_coordination(true);
    if mode != Mode::Flat {
        cfg = cfg.with_broker_tree(RACK, SimDuration::from_micros(50));
    }
    let mut exp = Experiment::new(cfg);
    exp.add_mix(&MixConfig::flood(
        0x5ca1e ^ u64::from(nodes),
        nodes / 4,
        2,
        SimDuration::from_secs(10),
    ));
    exp
}

/// One measured cell of the (nodes × mode) grid.
struct Cell {
    nodes: u32,
    mode: Mode,
    secs: f64,
    report: RunReport,
}

impl Cell {
    /// Whole-run coordination bytes per node, all levels. The workload
    /// carries a fixed per-node job density, so this is the per-node
    /// coordination cost of one unit of work — the curve that must stay
    /// flat as the ladder climbs.
    fn bytes_per_node(&self) -> f64 {
        self.report.broker.total_bytes() as f64 / self.nodes as f64
    }

    /// Per-scheduler-report payload bytes — the paper's O(apps-served)
    /// claim: a scheduler's delta report carries its own active apps,
    /// never the cluster's.
    fn bytes_per_report(&self) -> f64 {
        let b = &self.report.broker;
        b.payload_bytes as f64 / (b.reports.max(1)) as f64
    }

    /// Whole-run bytes through the busiest coordination endpoint. Flat:
    /// the one broker sees all level-0 payload. Tree: the root sees the
    /// level-1 aggregate stream and each of the `nodes / RACK` leaves an
    /// even share of level 0 plus its level-1 half — take the larger.
    fn hotspot_bytes(&self) -> f64 {
        let b = &self.report.broker;
        if self.mode == Mode::Flat {
            return b.payload_bytes as f64;
        }
        let racks = (self.nodes / RACK).max(1) as f64;
        let leaf = (b.payload_bytes as f64 + b.agg_bytes as f64) / racks;
        (b.agg_bytes as f64).max(leaf)
    }
}

fn run_cell(nodes: u32, mode: Mode) -> Cell {
    let exp = experiment(nodes, mode);
    let t = Instant::now();
    let report = exp.run();
    let secs = t.elapsed().as_secs_f64();
    Cell { nodes, mode, secs, report }
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

/// `"key": <number>` after `anchor` — the shared fixed-shape mini-parser.
fn extract_after(doc: &str, anchor: &str, key: &str) -> Option<f64> {
    let at = doc.find(anchor)?;
    let rest = &doc[at..];
    let kat = rest.find(&format!("\"{key}\":"))?;
    let tail = rest[kat..].split_once(':')?.1;
    let end = tail.find([',', '\n', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// The deterministic shape gates plus the loose wall-clock gate against
/// the committed baseline. Returns the failures, empty on pass.
fn check(baseline_path: &str, cells: &[Cell]) -> Vec<String> {
    let mut failures = Vec::new();

    let tree: Vec<&Cell> = cells.iter().filter(|c| c.mode == Mode::Tree).collect();
    let flat: Vec<&Cell> = cells.iter().filter(|c| c.mode == Mode::Flat).collect();
    let (t0, tn) = (tree.first().unwrap(), tree.last().unwrap());
    let (f0, fn_) = (flat.first().unwrap(), flat.last().unwrap());

    if tn.nodes > t0.nodes {
        let (small, large) = (t0.bytes_per_node(), tn.bytes_per_node());
        let dev = (large / small - 1.0).abs() * 100.0;
        if dev > TREE_FLAT_PCT {
            failures.push(format!(
                "tree per-node sync traffic not flat: {small:.0} B at {} nodes vs \
                 {large:.0} B at {} nodes ({dev:.0}% > {TREE_FLAT_PCT:.0}%)",
                t0.nodes, tn.nodes
            ));
        }
        let growth = fn_.hotspot_bytes() / f0.hotspot_bytes();
        let floor = FLAT_GROWTH_FRACTION * fn_.nodes as f64 / f0.nodes as f64;
        if growth < floor {
            failures.push(format!(
                "flat-broker hotspot grew only {growth:.1}x from {} to {} nodes \
                 (floor {floor:.0}x)",
                f0.nodes, fn_.nodes
            ));
        }
    } else {
        eprintln!("[bench_scale] single ladder size: shape gates skipped");
    }

    // Resync-overhead gate: arming the protocol with nothing to survive
    // must not change the schedule's outcome or run a single resync.
    for ft in cells.iter().filter(|c| c.mode == Mode::TreeFt) {
        let plain = tree
            .iter()
            .find(|c| c.nodes == ft.nodes)
            .expect("tree cell for every ft cell");
        if outcome_canon(&ft.report) != outcome_canon(&plain.report) {
            failures.push(format!(
                "{} nodes: armed-idle tree diverged from the plain tree \
                 (events {} vs {}, makespan {:?} vs {:?})",
                ft.nodes,
                ft.report.events,
                plain.report.events,
                ft.report.makespan,
                plain.report.makespan,
            ));
        }
        let resyncs = ft.report.broker.resyncs
            + ft.report.faults.as_ref().map_or(0, |f| f.resyncs);
        if resyncs != 0 {
            failures.push(format!(
                "{} nodes: armed-idle tree ran {resyncs} snapshot resyncs \
                 with no fault scheduled",
                ft.nodes
            ));
        }
    }

    let doc = match std::fs::read_to_string(baseline_path) {
        Ok(d) => d,
        Err(e) => {
            failures.push(format!("cannot read baseline {baseline_path}: {e}"));
            return failures;
        }
    };
    if json::build_profile() != "release" {
        eprintln!("[bench_scale] debug build: timing gate skipped");
        return failures;
    }
    if let Some(ft) = cells.iter().rfind(|c| c.mode == Mode::TreeFt) {
        let fresh = ft.secs * 1e9 / ft.report.events as f64;
        let base = tn.secs * 1e9 / tn.report.events as f64;
        let allowed = base * (1.0 + FT_OVERHEAD_PCT / 100.0);
        if fresh > allowed {
            failures.push(format!(
                "armed-idle tree ns/event overhead at {} nodes: {fresh:.0} vs plain \
                 {base:.0} (allowed ≤ {allowed:.0})",
                ft.nodes
            ));
        }
    }
    let anchor = format!("\"tree_{}\"", tn.nodes);
    match extract_after(&doc, &anchor, "ns_per_event") {
        Some(base) => {
            let fresh = tn.secs * 1e9 / tn.report.events as f64;
            let allowed = base * (1.0 + NS_REGRESSION_PCT / 100.0);
            if fresh > allowed {
                failures.push(format!(
                    "tree {}-node ns/event regressed: {fresh:.0} vs baseline {base:.0} \
                     (allowed ≤ {allowed:.0})",
                    tn.nodes
                ));
            }
        }
        None => eprintln!(
            "[bench_scale] baseline has no {anchor} ns_per_event (different ladder cap?): \
             timing gate skipped"
        ),
    }
    failures
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut out_path = "BENCH_scale.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--check" {
            baseline = Some(args.next().unwrap_or_else(|| {
                eprintln!("usage: bench_scale [--check <baseline.json>] [output-path]");
                std::process::exit(2);
            }));
        } else {
            out_path = a;
        }
    }

    let sizes = sizes();
    let mut cells = Vec::new();
    for &nodes in &sizes {
        for mode in [Mode::Flat, Mode::Tree, Mode::TreeFt] {
            eprintln!("[bench_scale] {nodes}-node run, {} broker ...", mode.label());
            let cell = run_cell(nodes, mode);
            eprintln!(
                "[bench_scale]   {:.2}s, {} events, {:.0} B/node, {:.0} B/report, \
                 hotspot {:.0} B",
                cell.secs,
                cell.report.events,
                cell.bytes_per_node(),
                cell.bytes_per_report(),
                cell.hotspot_bytes(),
            );
            if let Some(p) = &cell.report.engine_profile {
                eprintln!("[bench_scale]   {p}\n{}", p.kind_table());
            }
            cells.push(cell);
        }
    }

    let mut w = json::bench_writer("scale");
    w.number(Some("rack_size"), RACK as f64);
    w.open_array(Some("nodes"));
    for &n in &sizes {
        w.number(None, n as f64);
    }
    w.close();
    for cell in &cells {
        let b = &cell.report.broker;
        w.open_object(Some(&format!("{}_{}", cell.mode.label(), cell.nodes)));
        w.number(Some("secs"), cell.secs);
        w.number(Some("events"), cell.report.events as f64);
        w.number(Some("ns_per_event"), cell.secs * 1e9 / cell.report.events as f64);
        w.number(Some("makespan_secs"), cell.report.makespan.as_secs_f64());
        w.number(Some("reports"), b.reports as f64);
        w.number(Some("replies"), b.replies as f64);
        w.number(Some("payload_bytes"), b.payload_bytes as f64);
        w.number(Some("agg_msgs"), b.agg_msgs as f64);
        w.number(Some("agg_bytes"), b.agg_bytes as f64);
        w.number(Some("resyncs"), b.resyncs as f64);
        w.number(Some("sync_bytes_per_node"), cell.bytes_per_node());
        w.number(Some("payload_bytes_per_report"), cell.bytes_per_report());
        w.number(Some("hotspot_bytes"), cell.hotspot_bytes());
        w.number(Some("rack_local_transfers"), cell.report.rack_local_transfers as f64);
        w.number(Some("cross_rack_transfers"), cell.report.cross_rack_transfers as f64);
        w.number(Some("assign_attempts"), cell.report.assign.attempts as f64);
        w.number(Some("assign_placements"), cell.report.assign.placements as f64);
        let q = cell.report.queue;
        w.number(Some("queue_same_instant_pushes"), q.same_instant_pushes as f64);
        w.number(Some("queue_fifo_pushes"), q.fifo_pushes as f64);
        w.number(Some("queue_heap_pushes"), q.heap_pushes as f64);
        w.number(Some("queue_peak_heap_len"), q.peak_heap_len as f64);
        w.close();
    }
    w.number(Some("tree_flat_pct"), TREE_FLAT_PCT);
    w.number(Some("flat_growth_fraction"), FLAT_GROWTH_FRACTION);
    w.number(Some("ft_overhead_pct"), FT_OVERHEAD_PCT);
    json::write_bench(w, &out_path);
    eprintln!("[bench_scale] wrote {out_path}");

    if let Some(path) = baseline {
        let failures = check(&path, &cells);
        if failures.is_empty() {
            eprintln!("[bench_scale] --check vs {path}: OK");
        } else {
            for f in &failures {
                eprintln!("[bench_scale] CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
