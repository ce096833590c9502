//! Fig. 8 — WordCount vs TeraGen on the SSD setup: standalone, native,
//! and SFQ(D2) runtimes plus the pair's total throughput. §7.2's point:
//! faster storage does not make the contention problem go away, and
//! SFQ(D2)'s implicit read promotion can even beat the standalone run.

use crate::experiments::{run_thunk, sfqd2, slowdown_pct, ssd_cluster, tg_half, wc_half, RunThunk};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig08_isolation_ssd", scale.label());
    println!(
        "Fig. 8 — WordCount vs TeraGen isolation, SSD, weights 32:1 ({})\n",
        scale.label()
    );

    let labels = ["Native", "SFQ(D2)"];
    // One batch: the standalone baseline plus the two contended runs.
    let mut thunks: Vec<RunThunk> = vec![run_thunk(move || {
        let mut exp = Experiment::new(ssd_cluster(Policy::Native));
        exp.add_job(wc_half(scale));
        exp.run()
    })];
    for policy in [Policy::Native, sfqd2()] {
        thunks.push(run_thunk(move || {
            let mut exp = Experiment::new(ssd_cluster(policy));
            exp.add_job(wc_half(scale).io_weight(32.0));
            exp.add_job(tg_half(scale).io_weight(1.0));
            exp.run()
        }));
    }
    let mut reports = SweepRunner::from_env().run_thunks(thunks).into_iter();

    let base = reports
        .next()
        .expect("baseline report")
        .runtime_secs("WordCount")
        .expect("wc finished");
    sink.record("wc_alone_s", base);

    let mut table = Table::new(&["config", "wc runtime (s)", "slowdown", "total thr (MB/s)"]);
    table.row(&[
        "wc alone".into(),
        format!("{base:.1}"),
        "—".into(),
        "—".into(),
    ]);

    let mut native_thr = 0.0;
    for label in labels {
        let r = reports.next().expect("contended report");
        let rt = r.runtime_secs("WordCount").expect("wc finished");
        let thr = r.mean_total_throughput();
        if label == "Native" {
            native_thr = thr;
        }
        let sd = slowdown_pct(rt, base);
        table.row(&[
            label.into(),
            format!("{rt:.1}"),
            format!("{sd:+.0}%"),
            format!("{:.0}", thr / 1e6),
        ]);
        let key = label.to_lowercase().replace(['(', ')'], "");
        sink.record(&format!("{key}_slowdown_pct"), sd);
        sink.record(&format!("{key}_thr_mbs"), thr / 1e6);
    }
    table.print();
    let _ = native_thr;

    sink.note(
        "Paper: Native +50%, SFQ(D2) -5% (faster than standalone, thanks to \
         read/write asymmetry + implicit read promotion at small D); \
         SFQ(D2) total throughput +2% over native. Shape targets: \
         contention persists on SSD; SFQ(D2) restores WordCount to \
         (or past) its standalone runtime.",
    );
    sink
}
