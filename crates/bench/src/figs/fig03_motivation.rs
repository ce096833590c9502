//! Fig. 3 — the motivating example: runtime of WordCount alone vs
//! co-running with TeraValidate / TeraGen / TeraSort on native Hadoop,
//! on both the HDD and SSD storage setups. The numbers on the bars are
//! slowdowns w.r.t. the standalone runtime; CPU allocation to WordCount is
//! pinned in all cases.

use crate::experiments::{
    hdd_cluster, run_thunk, slowdown_pct, ssd_cluster, tg_half, ts_half, tv_half, wc_half, RunThunk,
};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;

fn wc_phases(r: &RunReport) -> (f64, f64, f64) {
    let j = r.job("WordCount").expect("wordcount finished");
    (
        j.runtime.as_secs_f64(),
        j.map_phase.as_secs_f64(),
        j.reduce_phase.as_secs_f64(),
    )
}

/// Runs the figure for both storage setups.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig03_motivation", scale.label());
    println!(
        "Fig. 3 — WordCount under contention on native Hadoop ({})\n",
        scale.label()
    );

    let setups = [
        ("HDD", hdd_cluster(Policy::Native)),
        ("SSD", ssd_cluster(Policy::Native)),
    ];

    // One batch: per setup the standalone baseline plus the three
    // contended pairs — eight independent simulations.
    let mut thunks: Vec<RunThunk> = Vec::new();
    for (_, cluster) in &setups {
        for contender in [
            None,
            Some(tv_half(scale)),
            Some(tg_half(scale)),
            Some(ts_half(scale)),
        ] {
            let cluster = cluster.clone();
            thunks.push(run_thunk(move || {
                let mut exp = Experiment::new(cluster);
                exp.add_job(wc_half(scale));
                if let Some(c) = contender {
                    exp.add_job(c);
                }
                exp.run()
            }));
        }
    }
    let mut reports = SweepRunner::from_env().run_thunks(thunks).into_iter();

    for (setup, _) in setups {
        let mut table = Table::new(&[
            "co-runner",
            "wc runtime (s)",
            "map (s)",
            "reduce (s)",
            "slowdown",
        ]);
        let (base, bmap, bred) = wc_phases(&reports.next().expect("baseline report"));
        table.row(&[
            "— (alone)".into(),
            format!("{base:.1}"),
            format!("{bmap:.1}"),
            format!("{bred:.1}"),
            "—".into(),
        ]);
        sink.record(&format!("{}_alone_s", setup.to_lowercase()), base);

        for name in ["TeraValidate", "TeraGen", "TeraSort"] {
            let (rt, map, red) = wc_phases(&reports.next().expect("contended report"));
            let sd = slowdown_pct(rt, base);
            table.row(&[
                name.into(),
                format!("{rt:.1}"),
                format!("{map:.1}"),
                format!("{red:.1}"),
                format!("{sd:+.0}%"),
            ]);
            sink.record(
                &format!(
                    "{}_{}_slowdown_pct",
                    setup.to_lowercase(),
                    name.to_lowercase()
                ),
                sd,
            );
        }
        println!("{setup} setup:");
        table.print();
        println!();
    }

    sink.note(
        "Paper (HDD): TeraValidate +62.6%, TeraGen +107%, TeraSort +108%; \
         (SSD): +9%, +50%, +22%. Shape target: write-heavy co-runners hurt \
         most; SSD softens but does not remove the interference.",
    );
    sink
}
