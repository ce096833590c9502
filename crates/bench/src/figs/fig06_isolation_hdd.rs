//! Fig. 6 — performance isolation for WordCount against TeraGen on the
//! HDD setup: (a) WordCount runtime under Native, static SFQ(D) at
//! D = 12/8/4/2, and SFQ(D2); (b) total throughput of the pair and its
//! loss w.r.t. native. Weights 32:1 in favour of WordCount. Also prints
//! the §7.2 footnote runs at a 2:1 sharing ratio.

use crate::experiments::{
    audit_recording, hdd_cluster, run_thunk, sfqd2, slowdown_pct, tg_half, wc_half, RunThunk,
};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;

struct Outcome {
    wc_runtime: f64,
    total_throughput: f64,
    wc_p99_latency_ms: f64,
}

fn outcome(r: &RunReport) -> Outcome {
    let wc_app = r.job("WordCount").expect("wc finished").app;
    Outcome {
        wc_runtime: r.runtime_secs("WordCount").expect("wc finished"),
        total_throughput: r.mean_total_throughput(),
        wc_p99_latency_ms: r.latency_ms(wc_app, 0.99).unwrap_or(0.0),
    }
}

fn contended(policy: Policy, scale: ScaleProfile, wc_weight: f64) -> RunThunk {
    run_thunk(move || {
        let mut exp = Experiment::new(hdd_cluster(policy));
        exp.add_job(wc_half(scale).io_weight(wc_weight));
        exp.add_job(tg_half(scale).io_weight(1.0));
        exp.run()
    })
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig06_isolation_hdd", scale.label());
    println!(
        "Fig. 6 — WordCount vs TeraGen isolation, HDD, weights 32:1 ({})\n",
        scale.label()
    );

    let configs: Vec<(String, Policy)> = std::iter::once(("Native".to_string(), Policy::Native))
        .chain(
            [12u32, 8, 4, 2]
                .into_iter()
                .map(|d| (format!("SFQ(D={d})"), Policy::SfqD { depth: d })),
        )
        .chain(std::iter::once(("SFQ(D2)".to_string(), sfqd2())))
        .collect();

    // One batch: the standalone baseline (same CPU allocation), the six
    // contended configs, and the two §7.2 footnote runs at a 2:1 ratio.
    let mut thunks: Vec<RunThunk> = vec![run_thunk(move || {
        let mut exp = Experiment::new(hdd_cluster(Policy::Native));
        exp.add_job(wc_half(scale));
        exp.run()
    })];
    for (_, policy) in &configs {
        thunks.push(contended(policy.clone(), scale, 32.0));
    }
    thunks.push(contended(Policy::SfqD { depth: 2 }, scale, 2.0));
    thunks.push(contended(sfqd2(), scale, 2.0));
    let mut reports = SweepRunner::from_env().run_thunks(thunks).into_iter();

    let base = reports
        .next()
        .expect("baseline report")
        .runtime_secs("WordCount")
        .expect("wc finished");
    sink.record("wc_alone_s", base);

    let mut table = Table::new(&[
        "config",
        "wc runtime (s)",
        "slowdown",
        "total thr (MB/s)",
        "thr vs native",
        "wc p99 lat",
    ]);
    table.row(&[
        "wc alone".into(),
        format!("{base:.1}"),
        "—".into(),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);

    let mut native_thr = 0.0;
    for (label, _) in &configs {
        let r = reports.next().expect("contended report");
        audit_recording(label, &r);
        let o = outcome(&r);
        if label == "Native" {
            native_thr = o.total_throughput;
        }
        let sd = slowdown_pct(o.wc_runtime, base);
        let thr_loss = (o.total_throughput / native_thr - 1.0) * 100.0;
        table.row(&[
            label.clone(),
            format!("{:.1}", o.wc_runtime),
            format!("{sd:+.0}%"),
            format!("{:.0}", o.total_throughput / 1e6),
            format!("{thr_loss:+.0}%"),
            format!("{:.0} ms", o.wc_p99_latency_ms),
        ]);
        let key = label
            .to_lowercase()
            .replace(['(', ')', '='], "_")
            .replace("__", "_");
        sink.record(&format!("{key}_slowdown_pct"), sd);
        sink.record(&format!("{key}_thr_mbs"), o.total_throughput / 1e6);
    }
    table.print();

    // §7.2 footnote: a 2:1 sharing ratio favours WordCount less.
    let r = reports.next().expect("2:1 static report");
    audit_recording("SFQ(D=2) 2:1", &r);
    let d2_21 = outcome(&r);
    let r = reports.next().expect("2:1 dynamic report");
    audit_recording("SFQ(D2) 2:1", &r);
    let dd_21 = outcome(&r);
    println!(
        "\n2:1 ratio footnote: SFQ(D=2) {:+.0}%, SFQ(D2) {:+.0}% \
         (paper: +48% and +18%)",
        slowdown_pct(d2_21.wc_runtime, base),
        slowdown_pct(dd_21.wc_runtime, base)
    );
    sink.record(
        "ratio21_sfqd2_slowdown_pct",
        slowdown_pct(dd_21.wc_runtime, base),
    );
    sink.record(
        "ratio21_sfqd2_static_slowdown_pct",
        slowdown_pct(d2_21.wc_runtime, base),
    );

    sink.note(
        "Paper: Native +107%; SFQ(D=12) +86%, (D=8) +52%, (D=4) +14%, \
         (D=2) +13%, SFQ(D2) +8%; throughput loss vs native: -11%, -10%, \
         -13%, -20%, -4%. Shape targets: smaller D isolates better but \
         wastes bandwidth; SFQ(D2) reaches the best isolation without the \
         D=2 throughput penalty.",
    );
    sink
}
