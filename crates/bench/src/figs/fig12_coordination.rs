//! Fig. 12 — the value of distributed scheduling coordination (§5/§7.6):
//! TeraSort vs TeraGen with CPU 1:1 and I/O 32:1, with the scheduling
//! broker disabled (No Sync: each SFQ(D2) enforces 32:1 locally) and
//! enabled (Sync: DSFQ total-service sharing).
//!
//! TeraSort's per-node I/O demand is uneven (slot placement, reduce
//! distribution and replica traffic all contribute, §5) — the condition
//! under which purely local sharing ratios fail to produce the intended
//! *total*-service ratio.

use crate::experiments::{hdd_cluster, run_thunk, sfqd2, slowdown_pct, volumes, RunThunk};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_workloads::{teragen, terasort};

/// TeraSort's I/O weight against TeraGen's 1 (the figure's 32:1).
const TS_IO_WEIGHT: f64 = 32.0;

/// Per-node unevenness arises naturally from slot placement, reduce
/// distribution and replica traffic (§5 lists all three), so input
/// placement stays uniform: an explicit input skew also slows the
/// standalone baselines and tends to wash the slowdown ratios out.
fn cluster(sync: bool) -> ClusterConfig {
    hdd_cluster(sfqd2()).with_coordination(sync)
}

fn standalone_thunks(scale: ScaleProfile, sync: bool) -> [RunThunk; 2] {
    [
        run_thunk(move || {
            let mut exp = Experiment::new(cluster(sync));
            exp.add_job(ts_spec(scale));
            exp.run()
        }),
        run_thunk(move || {
            let mut exp = Experiment::new(cluster(sync));
            exp.add_job(teragen(scale.bytes(volumes::TERAGEN)));
            exp.run()
        }),
    ]
}

fn ts_spec(scale: ScaleProfile) -> ibis_mapreduce::JobSpec {
    let mut s = terasort(scale.bytes(volumes::TERASORT));
    // Synchronous streaming: the coordination benefit is largest for
    // bursty, latency-coupled I/O (see the figure's note); read-ahead
    // smooths arrivals and hides residual unfairness.
    s.read_ahead = Some(1);
    s
}

fn contended(scale: ScaleProfile, sync: bool) -> RunThunk {
    run_thunk(move || {
        let mut exp = Experiment::new(cluster(sync));
        exp.add_job(ts_spec(scale).cpu_weight(1.0).io_weight(TS_IO_WEIGHT));
        exp.add_job(
            teragen(scale.bytes(volumes::TERAGEN))
                .cpu_weight(1.0)
                .io_weight(1.0),
        );
        exp.run()
    })
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig12_coordination", scale.label());
    println!(
        "Fig. 12 — coordinated vs uncoordinated scheduling, CPU 1:1, \
         I/O 32:1, synchronous-read TeraSort ({})\n",
        scale.label()
    );

    // One batch: the two standalone baselines plus both contended runs.
    let mut thunks: Vec<RunThunk> = standalone_thunks(scale, false).into();
    thunks.push(contended(scale, false));
    thunks.push(contended(scale, true));
    let mut reports = SweepRunner::from_env().run_thunks(thunks).into_iter();

    let ts_base = reports
        .next()
        .expect("ts standalone")
        .runtime_secs("TeraSort")
        .expect("ts");
    let tg_base = reports
        .next()
        .expect("tg standalone")
        .runtime_secs("TeraGen")
        .expect("tg");
    sink.record("ts_alone_s", ts_base);
    sink.record("tg_alone_s", tg_base);

    let mut table = Table::new(&[
        "config",
        "TS slowdown",
        "TG slowdown",
        "average",
        "broker msgs",
    ]);
    for (label, _sync) in [("No Sync", false), ("Sync", true)] {
        let r = reports.next().expect("contended report");
        let (ts, tg, msgs) = (
            r.runtime_secs("TeraSort").expect("ts"),
            r.runtime_secs("TeraGen").expect("tg"),
            r.broker.reports,
        );
        let ts_sd = slowdown_pct(ts, ts_base);
        let tg_sd = slowdown_pct(tg, tg_base);
        table.row(&[
            label.into(),
            format!("{ts_sd:+.0}%"),
            format!("{tg_sd:+.0}%"),
            format!("{:.0}%", (ts_sd + tg_sd) / 2.0),
            format!("{msgs}"),
        ]);
        let key = label.to_lowercase().replace(' ', "_");
        sink.record(&format!("{key}_ts_slowdown_pct"), ts_sd);
        sink.record(&format!("{key}_tg_slowdown_pct"), tg_sd);
        sink.record(&format!("{key}_avg_slowdown_pct"), (ts_sd + tg_sd) / 2.0);
    }
    table.print();

    sink.note(
        "Paper: enabling the coordination reduces the average slowdown of \
         the pair by 25% (No Sync 86%/71% → Sync better-balanced, lower \
         average). Shape target: Sync yields a lower average slowdown than \
         No Sync under skewed data distribution.",
    );
    sink
}
