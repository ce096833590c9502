//! Fig. 13 — IBIS overhead on standalone applications: WordCount,
//! TeraGen, and TeraSort each run alone with the full 96 cores, on native
//! Hadoop vs under IBIS (SFQ(D2) + coordination). The paper measures
//! 1–4% runtime overhead; in this reproduction the analogue is the cost
//! of bounded dispatch and coordination when there is no contention to
//! manage.

use crate::experiments::{hdd_cluster, sfqd2, volumes};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_workloads::{teragen, terasort, wordcount};

fn run_alone(specs: Vec<(ibis_mapreduce::JobSpec, Policy)>) -> Vec<f64> {
    SweepRunner::from_env().map(specs, |_, (spec, policy)| {
        let name = spec.name.clone();
        let mut exp = Experiment::new(hdd_cluster(policy));
        exp.add_job(spec);
        exp.run().runtime_secs(&name).expect("job finished")
    })
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig13_overhead", scale.label());
    println!(
        "Fig. 13 — standalone runtime, native vs IBIS, full cluster ({})\n",
        scale.label()
    );

    let benchmarks = [
        ("WordCount", wordcount(scale.bytes(volumes::WORDCOUNT))),
        ("TeraGen", teragen(scale.bytes(volumes::TERAGEN))),
        ("TeraSort", terasort(scale.bytes(volumes::TERASORT))),
    ];
    // One batch: each benchmark under Native and under IBIS — six
    // independent standalone simulations.
    let runs: Vec<(ibis_mapreduce::JobSpec, Policy)> = benchmarks
        .iter()
        .flat_map(|(_, spec)| [(spec.clone(), Policy::Native), (spec.clone(), sfqd2())])
        .collect();
    let mut runtimes = run_alone(runs).into_iter();

    let mut table = Table::new(&["benchmark", "Native (s)", "IBIS (s)", "overhead"]);
    for (name, _) in benchmarks {
        let native = runtimes.next().expect("native runtime");
        let ibis = runtimes.next().expect("ibis runtime");
        let overhead = (ibis / native - 1.0) * 100.0;
        table.row(&[
            name.into(),
            format!("{native:.1}"),
            format!("{ibis:.1}"),
            format!("{overhead:+.1}%"),
        ]);
        sink.record(&format!("{}_overhead_pct", name.to_lowercase()), overhead);
    }
    table.print();

    sink.note(
        "Paper: 1% (WordCount), 2% (TeraGen), 4% (TeraSort) runtime \
         overhead. Shape target: single-digit percentage overheads — the \
         scheduler must not hurt uncontended applications.",
    );
    sink
}
