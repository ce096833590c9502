//! Fig. 11 — the proportional-slowdown policy: make TeraSort and TeraGen
//! suffer the *same* relative slowdown w.r.t. their standalone runtimes.
//!
//! The paper's §7.5 numbers come from *manual tuning*: "the best equal
//! slowdown [the Fair Scheduler alone] can get" vs tuning "both CPU slot
//! and I/O bandwidth allocations together" with IBIS. This module
//! reproduces that methodology: it sweeps the CPU ratio for the FS-only
//! configuration and the (CPU, I/O) ratio grid for FS+IBIS, then reports
//! the best equal-slowdown configuration of each (ranked by slowdown gap,
//! then by average slowdown).

use crate::experiments::{hdd_cluster, run_thunk, sfqd2, slowdown_pct, volumes, RunThunk};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_workloads::{teragen, terasort};

/// One contended run at the given CPU and I/O ratios (TeraSort : TeraGen).
fn contended(scale: ScaleProfile, policy: Policy, cpu_ratio: f64, io_ratio: f64) -> RunThunk {
    run_thunk(move || {
        let mut exp = Experiment::new(hdd_cluster(policy));
        exp.add_job(
            terasort(scale.bytes(volumes::TERASORT))
                .cpu_weight(cpu_ratio)
                .io_weight(io_ratio),
        );
        exp.add_job(
            teragen(scale.bytes(volumes::TERAGEN))
                .cpu_weight(1.0)
                .io_weight(1.0),
        );
        exp.run()
    })
}

/// The paper's selection criterion: closest to equal slowdown; average
/// slowdown breaks ties.
fn better(a: (f64, f64), b: (f64, f64)) -> bool {
    let gap = |x: (f64, f64)| (x.0 - x.1).abs();
    let avg = |x: (f64, f64)| (x.0 + x.1) / 2.0;
    (gap(a), avg(a)) < (gap(b), avg(b))
}

const FS_SWEEP: [f64; 5] = [1.0, 2.0, 3.0, 5.0, 8.0];
const IBIS_FS_SWEEP: [f64; 3] = [1.0, 2.0, 3.0];
const IBIS_IO_SWEEP: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig11_prop_slowdown", scale.label());
    println!(
        "Fig. 11 — proportional slowdown for TeraSort vs TeraGen ({})\n",
        scale.label()
    );

    // One batch: both standalone baselines, the five FS-only CPU ratios,
    // and the 3×4 (CPU, I/O) IBIS grid — nineteen simulations.
    let mut thunks: Vec<RunThunk> = vec![
        run_thunk(move || {
            let mut exp = Experiment::new(hdd_cluster(Policy::Native));
            exp.add_job(terasort(scale.bytes(volumes::TERASORT)));
            exp.run()
        }),
        run_thunk(move || {
            let mut exp = Experiment::new(hdd_cluster(Policy::Native));
            exp.add_job(teragen(scale.bytes(volumes::TERAGEN)));
            exp.run()
        }),
    ];
    for fs in FS_SWEEP {
        thunks.push(contended(scale, Policy::Native, fs, 1.0));
    }
    for fs in IBIS_FS_SWEEP {
        for io in IBIS_IO_SWEEP {
            thunks.push(contended(scale, sfqd2(), fs, io));
        }
    }
    let mut reports = SweepRunner::from_env().run_thunks(thunks).into_iter();

    let base = (
        reports
            .next()
            .expect("ts standalone")
            .runtime_secs("TeraSort")
            .expect("ts"),
        reports
            .next()
            .expect("tg standalone")
            .runtime_secs("TeraGen")
            .expect("tg"),
    );
    sink.record("ts_alone_s", base.0);
    sink.record("tg_alone_s", base.1);

    let mut slowdowns = move || {
        let r = reports.next().expect("contended report");
        (
            slowdown_pct(r.runtime_secs("TeraSort").expect("ts"), base.0),
            slowdown_pct(r.runtime_secs("TeraGen").expect("tg"), base.1),
        )
    };

    // Sweep 1: Fair Scheduler CPU ratio only (Native I/O).
    let mut fs_table = Table::new(&["FS ratio", "TS slowdown", "TG slowdown", "gap"]);
    let mut best_fs: Option<(f64, (f64, f64))> = None;
    for fs in FS_SWEEP {
        let sd = slowdowns();
        fs_table.row(&[
            format!("{fs:.0}:1"),
            format!("{:+.0}%", sd.0),
            format!("{:+.0}%", sd.1),
            format!("{:.0}pp", (sd.0 - sd.1).abs()),
        ]);
        if best_fs.as_ref().is_none_or(|(_, b)| better(sd, *b)) {
            best_fs = Some((fs, sd));
        }
    }
    println!("Fair Scheduler only (CPU ratio sweep):");
    fs_table.print();

    // Sweep 2: FS + IBIS, tuning CPU and I/O ratios together.
    let mut ibis_table = Table::new(&["FS", "IBIS", "TS slowdown", "TG slowdown", "gap"]);
    let mut best_ibis: Option<((f64, f64), (f64, f64))> = None;
    for fs in IBIS_FS_SWEEP {
        for io in IBIS_IO_SWEEP {
            let sd = slowdowns();
            ibis_table.row(&[
                format!("{fs:.0}:1"),
                format!("{io:.0}:1"),
                format!("{:+.0}%", sd.0),
                format!("{:+.0}%", sd.1),
                format!("{:.0}pp", (sd.0 - sd.1).abs()),
            ]);
            if best_ibis.as_ref().is_none_or(|(_, b)| better(sd, *b)) {
                best_ibis = Some(((fs, io), sd));
            }
        }
    }
    println!("\nFair Scheduler + IBIS ((CPU, I/O) ratio sweep):");
    ibis_table.print();

    let (fs_ratio, fs_sd) = best_fs.expect("fs sweep ran");
    let ((ib_fs, ib_io), ib_sd) = best_ibis.expect("ibis sweep ran");
    println!(
        "\nbest FS-only   (FS {fs_ratio:.0}:1):            TS {:+.0}%  TG {:+.0}%  avg {:.0}%",
        fs_sd.0,
        fs_sd.1,
        (fs_sd.0 + fs_sd.1) / 2.0
    );
    println!(
        "best FS + IBIS (FS {ib_fs:.0}:1, IBIS {ib_io:.0}:1): TS {:+.0}%  TG {:+.0}%  avg {:.0}%",
        ib_sd.0,
        ib_sd.1,
        (ib_sd.0 + ib_sd.1) / 2.0
    );

    sink.record("fs_only_ts_slowdown_pct", fs_sd.0);
    sink.record("fs_only_tg_slowdown_pct", fs_sd.1);
    sink.record("fs_only_avg_pct", (fs_sd.0 + fs_sd.1) / 2.0);
    sink.record("ibis_ts_slowdown_pct", ib_sd.0);
    sink.record("ibis_tg_slowdown_pct", ib_sd.1);
    sink.record("ibis_avg_pct", (ib_sd.0 + ib_sd.1) / 2.0);
    sink.record("ibis_best_cpu_ratio", ib_fs);
    sink.record("ibis_best_io_ratio", ib_io);

    sink.note(
        "Paper: CPU-only tuning bottoms out at 83 %/61 % (FS 5:1); tuning \
         CPU and I/O together with IBIS reaches a perfect 42 %/42 % — a \
         30 % better average. Shape targets: the joint (CPU, I/O) search \
         space contains a configuration with a smaller slowdown gap and a \
         lower average than anything CPU-only tuning can reach.",
    );
    sink
}
