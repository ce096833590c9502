//! Certifies traced experiment runs with the `ibis-obs` fairness auditor.
//!
//! Runs a set of small scenarios with the flight recorder forced on,
//! replays each recording through the auditor (start-tag monotonicity,
//! windowed proportional share, DSFQ delay identity, degraded pure-local
//! fallback, rack-scoped recovery) plus the `ibis-trace` attribution
//! checker (per-app latency components must sum to the measured
//! latency), and exits non-zero if any invariant is violated — or if the
//! chaos scenarios never actually degraded / never evaluated a rack
//! check, so those invariants cannot pass vacuously. A run of every
//! scenario writes `results/audit.json`; a named subset leaves it alone.
//!
//! Usage: `audit [--list] [--trace DIR] [--json PATH] [scenario ...]`
//!
//! * `--list` prints the scenario names and exits.
//! * `--trace DIR` additionally writes each recording as Chrome
//!   `trace_event` JSON (`DIR/<scenario>.trace.json`, viewable in
//!   `chrome://tracing` or Perfetto).
//! * `--json PATH` writes a machine-readable verdict — per scenario and
//!   per invariant, checked/violation counts plus pass/fail — so CI can
//!   gate on structure instead of grepping the human summary.
//! * Naming scenarios runs only those (and does not rewrite
//!   `results/audit.json`); unknown names error.

use ibis_bench::experiments::{hdd_cluster, sfqd2};
use ibis_bench::{json, ResultSink};
use ibis_cluster::prelude::*;
use ibis_dfs::Placement;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_obs::{audit, chrome, AuditConfig, AuditReport, Invariant, ObsConfig};
use ibis_simcore::units::GIB;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workloads::{teragen, wordcount};

struct Scenario {
    name: &'static str,
    title: &'static str,
    build: fn() -> Experiment,
}

fn traced(policy: Policy) -> ClusterConfig {
    let mut cfg = hdd_cluster(policy);
    cfg.obs = ObsConfig::enabled(1 << 18);
    cfg
}

/// Two write-heavy jobs at a moderate 4:1 ratio: both stay continuously
/// backlogged, so the proportional-share windows actually engage (at the
/// paper's 32:1 the light app is rarely backlogged and the check —
/// correctly — mostly skips).
fn proportional() -> Experiment {
    let mut exp = Experiment::new(traced(sfqd2()));
    exp.add_job(teragen(8 * GIB).io_weight(4.0).max_slots(48));
    exp.add_job(teragen(8 * GIB).io_weight(1.0).max_slots(48));
    exp
}

/// The Fig. 6 pairing (WordCount protected 32:1 against TeraGen) —
/// start-tag monotonicity under a mixed read/write request stream.
fn isolation() -> Experiment {
    let mut exp = Experiment::new(traced(sfqd2()));
    exp.add_job(wordcount(6 * GIB).io_weight(32.0).max_slots(48));
    exp.add_job(teragen(8 * GIB).io_weight(1.0).max_slots(48));
    exp
}

/// Skewed placement with broker coordination — foreign service flows
/// through BrokerSync and DSFQ delays, exercising the delay identity.
fn coordination() -> Experiment {
    let mut cfg = traced(sfqd2());
    cfg.placement = Placement::Skewed {
        hot_nodes: 2,
        hot_weight: 6.0,
    };
    let mut exp = Experiment::new(cfg);
    exp.add_job(wordcount(8 * GIB).io_weight(8.0).max_slots(48));
    exp.add_job(teragen(8 * GIB).io_weight(1.0).max_slots(48));
    exp
}

/// The coordination workload with the broker knocked dark mid-run (plus
/// probabilistic report drops): schedulers must declare their totals
/// stale, fall back to pure local SFQ(D2), and charge **zero** DSFQ delay
/// until the broker recovers — the degraded pure-local invariant.
fn degraded() -> Experiment {
    let mut cfg = traced(sfqd2());
    cfg.placement = Placement::Skewed {
        hot_nodes: 2,
        hot_weight: 6.0,
    };
    cfg.faults = FaultsConfig {
        enabled: true,
        schedule: FaultSchedule::new(0xFA17)
            .broker_outage(SimTime::from_secs(20), SimDuration::from_secs(25))
            .drop_reports(SimTime::ZERO, SimDuration::from_secs(36_000), 4),
        staleness_bound: SimDuration::from_secs(2),
        ..FaultsConfig::default()
    };
    let mut exp = Experiment::new(cfg);
    exp.add_job(wordcount(8 * GIB).io_weight(8.0).max_slots(48));
    exp.add_job(teragen(8 * GIB).io_weight(1.0).max_slots(48));
    exp
}

/// Tree coordination over 4-node racks with *only* rack-scoped faults: a
/// leaf aggregator crash on rack 0 and a later partition of rack 1 —
/// disjoint failure domains, no global faults, so the rack-scoped
/// recovery invariant is fully armed. The affected racks may degrade and
/// must re-converge within two sync periods of each heal; the unaffected
/// rack must never degrade; broker totals must stay monotone across the
/// failover.
fn rack() -> Experiment {
    let mut cfg = traced(sfqd2()).with_broker_tree(4, SimDuration::from_micros(50));
    cfg.placement = Placement::Skewed {
        hot_nodes: 2,
        hot_weight: 6.0,
    };
    cfg.faults = FaultsConfig {
        enabled: true,
        schedule: FaultSchedule::new(0xFA17)
            .aggregator_crash(0, SimTime::from_secs(20), SimDuration::from_secs(10))
            .rack_partition(1, SimTime::from_secs(45), SimDuration::from_secs(10)),
        staleness_bound: SimDuration::from_secs(2),
        ..FaultsConfig::default()
    };
    let mut exp = Experiment::new(cfg);
    exp.add_job(wordcount(8 * GIB).io_weight(8.0).max_slots(48));
    exp.add_job(teragen(8 * GIB).io_weight(1.0).max_slots(48));
    exp
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "proportional",
        title: "4:1 TeraGen pair — windowed proportional share",
        build: proportional,
    },
    Scenario {
        name: "isolation",
        title: "Fig. 6 pairing — start-tag monotonicity under mixed I/O",
        build: isolation,
    },
    Scenario {
        name: "coordination",
        title: "skewed data + broker — DSFQ delay identity",
        build: coordination,
    },
    Scenario {
        name: "degraded",
        title: "mid-run broker outage — degraded pure-local fallback",
        build: degraded,
    },
    Scenario {
        name: "rack",
        title: "aggregator crash + rack partition — rack-scoped recovery",
        build: rack,
    },
];

/// The five audited invariants with the number of opportunities each had
/// to fire in `report` — pairing every violation count with its
/// denominator so a "0 violations" verdict distinguishable from "never
/// checked".
fn invariant_rows(report: &AuditReport) -> [(Invariant, u64); 5] {
    [
        (Invariant::StartTagMonotone, report.dispatches),
        (Invariant::ProportionalShare, report.windows_checked),
        (Invariant::DelayIdentity, report.delay_checks),
        (Invariant::DegradedPureLocal, report.degraded_marks),
        (Invariant::RackScopedRecovery, report.rack_checks),
    ]
}

/// Appends one scenario's verdict to the open `scenarios` array. `passed`
/// is the same flag the process exit code is derived from, so the payload
/// and the exit status cannot disagree.
fn json_scenario(
    w: &mut json::Writer,
    name: &str,
    report: &AuditReport,
    attribution: &ibis_trace::AttributionCheck,
    dropped: u64,
    passed: bool,
) {
    w.open_object(None);
    w.string(Some("scenario"), name);
    w.value(Some("passed"), if passed { "true" } else { "false" });
    w.number(Some("events"), report.events as f64);
    w.number(Some("events_dropped"), dropped as f64);
    w.number(Some("violations"), report.violation_count as f64);
    w.open_array(Some("invariants"));
    for (inv, checked) in invariant_rows(report) {
        let violations = report.violations_of(inv);
        w.open_object(None);
        w.string(Some("invariant"), &inv.to_string());
        w.value(Some("passed"), if violations == 0 { "true" } else { "false" });
        w.number(Some("checked"), checked as f64);
        w.number(Some("violations"), violations as f64);
        w.close();
    }
    // The sixth invariant comes from `ibis-trace`, not the obs auditor:
    // every app's latency components sum to its measured latency.
    w.open_object(None);
    w.string(Some("invariant"), "attribution-sums");
    w.value(
        Some("passed"),
        if attribution.violations == 0 { "true" } else { "false" },
    );
    w.number(Some("checked"), attribution.checked as f64);
    w.number(Some("violations"), attribution.violations as f64);
    w.close();
    w.close();
    w.close();
}

fn main() {
    let mut trace_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" | "-l" => {
                for s in SCENARIOS {
                    println!("{:13} {}", s.name, s.title);
                }
                return;
            }
            "--trace" => {
                trace_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace needs a directory argument");
                    std::process::exit(2);
                }));
            }
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a file argument");
                    std::process::exit(2);
                }));
            }
            other => names.push(other.to_string()),
        }
    }
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| !SCENARIOS.iter().any(|s| s.name == *n))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown scenario(s): {}", unknown.join(", "));
        eprintln!(
            "valid scenarios (see --list): {}",
            SCENARIOS
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }

    let mut sink = ResultSink::new("audit", "fixed small scenarios");
    let mut failed = false;
    let mut verdict = json_path.as_ref().map(|_| {
        let mut w = json::bench_writer("audit");
        w.open_array(Some("scenarios"));
        w
    });
    for s in SCENARIOS {
        if !names.is_empty() && !names.iter().any(|n| n == s.name) {
            continue;
        }
        println!("\n================ {} ================", s.name);
        println!("{}\n", s.title);
        let r = (s.build)().run();
        let rec = r.recording.as_ref().expect("recorder forced on");
        let mut report = audit(rec, &AuditConfig::default());
        let attribution = ibis_trace::check(rec, ibis_trace::SUM_REL_TOL);
        println!(
            "{} events ({} dropped), {} dispatches, {} share windows, \
             {} delay checks, {} degraded marks, {} rack checks, \
             {} attribution sums",
            report.events,
            rec.dropped_total(),
            report.dispatches,
            report.windows_checked,
            report.delay_checks,
            report.degraded_marks,
            report.rack_checks,
            attribution.checked,
        );
        let summary = report.summary();
        println!("{summary}");
        for v in &report.violations {
            println!("  {v}");
        }
        // The exit status derives from the same per-invariant rows the
        // JSON verdict is built from — not just the aggregate violation
        // count — so `--json` can never write a failing invariant while
        // the process exits zero.
        let mut scenario_failed = !report.passed()
            || invariant_rows(&report)
                .iter()
                .any(|&(inv, _)| report.violations_of(inv) > 0);
        if attribution.violations > 0 || attribution.checked == 0 {
            println!(
                "  ATTRIBUTION: {} of {} apps violate the sum identity \
                 (worst rel err {:.3e})",
                attribution.violations, attribution.checked, attribution.worst_rel_err
            );
            scenario_failed = true;
        }
        if s.name == "degraded" && report.degraded_marks == 0 {
            println!(
                "  VACUOUS: the degraded scenario never entered degraded \
                 mode — the invariant had nothing to check"
            );
            scenario_failed = true;
        }
        if s.name == "rack" && (report.rack_checks == 0 || report.degraded_marks == 0) {
            println!(
                "  VACUOUS: the rack scenario evaluated {} rack checks and \
                 {} degraded marks — the rack-scoped recovery invariant \
                 needs the affected racks to actually degrade and re-converge",
                report.rack_checks, report.degraded_marks
            );
            scenario_failed = true;
        }
        failed |= scenario_failed;
        sink.record(&format!("{}_events", s.name), report.events as f64);
        sink.record(&format!("{}_dispatches", s.name), report.dispatches as f64);
        sink.record(
            &format!("{}_share_windows", s.name),
            report.windows_checked as f64,
        );
        sink.record(
            &format!("{}_delay_checks", s.name),
            report.delay_checks as f64,
        );
        sink.record(
            &format!("{}_violations", s.name),
            report.violation_count as f64,
        );
        sink.record(
            &format!("{}_degraded_marks", s.name),
            report.degraded_marks as f64,
        );
        sink.record(&format!("{}_rack_checks", s.name), report.rack_checks as f64);
        sink.record(
            &format!("{}_attribution_checked", s.name),
            attribution.checked as f64,
        );
        if let Some(w) = verdict.as_mut() {
            json_scenario(
                w,
                s.name,
                &report,
                &attribution,
                rec.dropped_total(),
                !scenario_failed,
            );
        }
        if let Some(dir) = &trace_dir {
            std::fs::create_dir_all(dir).expect("create trace dir");
            let path = format!("{dir}/{}.trace.json", s.name);
            std::fs::write(&path, chrome::export(rec)).expect("write trace");
            println!("chrome trace → {path}");
        }
    }
    if names.is_empty() {
        sink.save();
    }
    if let (Some(mut w), Some(path)) = (verdict, json_path) {
        w.close(); // scenarios array
        w.value(Some("passed"), if failed { "false" } else { "true" });
        json::write_bench(w, &path);
        println!("machine-readable verdict → {path}");
    }
    if failed {
        eprintln!("\naudit FAILED: at least one invariant violated");
        std::process::exit(1);
    }
    println!("\naudit passed: every recorded invariant holds");
}
