//! Chaos figure (DESIGN.md §13): how fairness and completion time degrade
//! under injected faults, against the fault-free baseline. One workload —
//! a 4:1-weighted WordCount/TeraGen pair on the coordinated SFQ(D2)
//! cluster — runs under four scenarios: fault-free, a mid-run broker
//! outage (with probabilistic report drops), a datanode crash + restart,
//! and a device straggler. For each we report the makespan slowdown and
//! Jain's fairness index over *weight-normalised* per-app service (1.0 =
//! perfect proportional sharing), plus the injected/reacted fault
//! counters from the [`ibis_cluster::report::RunReport`] `FaultSummary`.
//!
//! The paper's §5 claim under test: DSFQ tolerates imprecise total-service
//! information, so a dark broker should cost fairness *gracefully* (the
//! schedulers fall back to pure local SFQ(D2)) rather than collapse — and
//! a crash should cost makespan, not correctness.

use crate::experiments::{hdd_cluster, sfqd2};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_simcore::units::GIB;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workloads::{teragen, wordcount};

/// Paper-scale data volumes (scaled down 8× under `IBIS_SCALE=quick`).
const WC_BYTES: u64 = 32 * GIB;
const TG_BYTES: u64 = 64 * GIB;

/// The protected application's I/O weight (WordCount : TeraGen = 4 : 1).
const WC_WEIGHT: f64 = 4.0;

/// One chaos scenario: a name and the fault schedule it injects.
struct Scenario {
    name: &'static str,
    title: &'static str,
    schedule: fn() -> FaultSchedule,
}

fn no_faults() -> FaultSchedule {
    FaultSchedule::new(0xFA17)
}

/// Broker dark for 30 s mid-run, with 1-in-4 report drops the whole run:
/// every scheduler's view of total service goes stale and DSFQ must fall
/// back to pure local SFQ(D2) until the broker returns.
fn broker_outage() -> FaultSchedule {
    FaultSchedule::new(0xFA17)
        .broker_outage(SimTime::from_secs(30), SimDuration::from_secs(30))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(36_000), 4)
}

/// Datanode n2 crashes at t=30 s and comes back 20 s later: running tasks
/// abort and re-queue, in-flight reads fail over to surviving replicas,
/// and the rebuilt schedulers re-converge from a cold (Dark) state.
fn node_crash() -> FaultSchedule {
    FaultSchedule::new(0xFA17).node_crash(
        2,
        SimTime::from_secs(30),
        Some(SimDuration::from_secs(20)),
    )
}

/// Node 0's HDFS disk runs 3× slow for a 60 s window — the straggler
/// case: no machinery fails, the device is just late.
fn straggler() -> FaultSchedule {
    FaultSchedule::new(0xFA17).device_slowdown(
        0,
        0,
        3.0,
        SimTime::from_secs(20),
        SimDuration::from_secs(60),
    )
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "baseline",
        title: "fault-free",
        schedule: no_faults,
    },
    Scenario {
        name: "broker_outage",
        title: "broker dark 30 s + 1-in-4 report drops",
        schedule: broker_outage,
    },
    Scenario {
        name: "node_crash",
        title: "n2 crashes at 30 s, restarts 20 s later",
        schedule: node_crash,
    },
    Scenario {
        name: "straggler",
        title: "n0 HDFS disk 3× slow for 60 s",
        schedule: straggler,
    },
];

fn experiment(scale: ScaleProfile, schedule: FaultSchedule) -> Experiment {
    let mut cluster = hdd_cluster(sfqd2());
    cluster.faults = FaultsConfig {
        enabled: !schedule.is_empty(),
        schedule,
        ..FaultsConfig::default()
    };
    let mut exp = Experiment::new(cluster);
    exp.add_job(
        wordcount(scale.bytes(WC_BYTES))
            .io_weight(WC_WEIGHT)
            .max_slots(48),
    );
    exp.add_job(teragen(scale.bytes(TG_BYTES)).io_weight(1.0).max_slots(48));
    exp
}

/// Jain's index over weight-normalised per-app service: each app's bytes
/// divided by its I/O weight, so 1.0 means service was split exactly
/// proportionally to the 4:1 weights.
fn weighted_jain(r: &RunReport) -> f64 {
    let norm: Vec<f64> = r
        .jobs
        .iter()
        .map(|j| {
            let w = if j.name.starts_with("WordCount") {
                WC_WEIGHT
            } else {
                1.0
            };
            r.app_service.get(&j.app).copied().unwrap_or(0) as f64 / w
        })
        .collect();
    RunReport::jain_index(&norm)
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig_faults", scale.label());
    println!(
        "Chaos — fairness and makespan under injected faults ({})\n",
        scale.label()
    );

    let runner = SweepRunner::from_env();
    let exps: Vec<Experiment> = SCENARIOS
        .iter()
        .map(|s| experiment(scale, (s.schedule)()))
        .collect();
    let reports = runner.run_all(exps);

    let baseline = reports[0].makespan.as_secs_f64();
    let mut table = Table::new(&[
        "scenario",
        "makespan (s)",
        "slowdown",
        "Jain (weighted)",
        "degraded",
        "retries",
        "aborted",
    ]);
    for (s, r) in SCENARIOS.iter().zip(&reports) {
        let makespan = r.makespan.as_secs_f64();
        let jain = weighted_jain(r);
        let f = r.faults.unwrap_or_default();
        table.row(&[
            s.name.to_string(),
            format!("{makespan:.0}"),
            format!("{:.2}x", RunReport::slowdown(makespan, baseline)),
            format!("{jain:.4}"),
            format!("{}", f.degraded_entries),
            format!("{}", f.retries),
            format!("{}", f.aborted_tasks),
        ]);

        sink.record(&format!("{}_makespan_s", s.name), makespan);
        sink.record(
            &format!("{}_slowdown", s.name),
            RunReport::slowdown(makespan, baseline),
        );
        sink.record(&format!("{}_jain_weighted", s.name), jain);
        sink.record(
            &format!("{}_broker_outages", s.name),
            f.broker_outages as f64,
        );
        sink.record(&format!("{}_report_drops", s.name), f.report_drops as f64);
        sink.record(&format!("{}_retries", s.name), f.retries as f64);
        sink.record(&format!("{}_crashes", s.name), f.crashes as f64);
        sink.record(&format!("{}_restarts", s.name), f.restarts as f64);
        sink.record(&format!("{}_aborted_tasks", s.name), f.aborted_tasks as f64);
        sink.record(&format!("{}_lost_replicas", s.name), f.lost_replicas as f64);
        sink.record(
            &format!("{}_degraded_entries", s.name),
            f.degraded_entries as f64,
        );
    }
    table.print();

    for s in SCENARIOS {
        println!("  {:14} {}", s.name, s.title);
    }

    // Sanity: the chaos scenarios must actually have injected something,
    // and every job must still finish in every scenario.
    let outage = &reports[1].faults.expect("faults active");
    assert!(outage.broker_outages > 0, "outage window never hit a sync");
    assert!(
        outage.degraded_entries > 0,
        "no scheduler degraded during the outage"
    );
    let crash = &reports[2].faults.expect("faults active");
    assert!(
        crash.crashes == 1 && crash.restarts == 1,
        "crash/restart not injected"
    );
    // A straggler breaks no coordination: the broker answers every round
    // and idle schedulers heartbeat, so none may fall back to local SFQ.
    let straggler = &reports[3].faults.expect("faults active");
    assert_eq!(
        straggler.degraded_entries, 0,
        "straggler degraded a scheduler"
    );
    for (s, r) in SCENARIOS.iter().zip(&reports) {
        assert!(
            r.jobs.len() == 2,
            "{}: expected both jobs to finish, got {}",
            s.name,
            r.jobs.len()
        );
    }

    sink.note(
        "Jain index over per-app service divided by I/O weight (1.0 = exact \
         4:1 proportional split). Graceful degradation means the outage \
         column stays near the baseline's index — the schedulers keep \
         enforcing local weighted fairness while the broker is dark — and \
         the crash costs makespan (re-execution) rather than fairness.",
    );
    sink
}
