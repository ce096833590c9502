//! Fig. 9 — cumulative distribution of Facebook2009 job runtimes in three
//! configurations: Standalone (the 50-job workload alone on half the
//! cluster), Interfered (plus TeraGen under native scheduling), and
//! SFQ(D2) (plus TeraGen under IBIS with a 32:1 ratio favouring the
//! Facebook jobs).

use crate::experiments::{hdd_cluster, sfqd2, tg_half, volumes};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_simcore::metrics::Cdf;
use ibis_workloads::{facebook2009, SwimConfig};

fn swim_cfg(scale: ScaleProfile) -> SwimConfig {
    match scale {
        ScaleProfile::Paper => SwimConfig::default(),
        // Fewer, smaller jobs at quick scale but the same ratio envelopes.
        ScaleProfile::Quick => SwimConfig {
            jobs: 30,
            small_maps_max: 8,
            large_maps_max: 48,
            mean_interarrival: ibis_simcore::SimDuration::from_secs(8),
            ..SwimConfig::default()
        },
    }
}

fn run_case(scale: ScaleProfile, policy: Policy, with_tg: bool, half_cluster: bool) -> Cdf {
    let mut cluster = hdd_cluster(policy);
    if half_cluster {
        // Standalone baseline: the workload alone on half the resources,
        // as the paper keeps Facebook2009's CPU/memory share constant.
        cluster.cores_per_node /= 2;
        cluster.memory_per_node /= 2;
    }
    let mut exp = Experiment::new(cluster);
    for mut job in facebook2009(&swim_cfg(scale)) {
        job.io_weight = 32.0;
        if !half_cluster {
            job.max_slots = Some(48);
        }
        exp.add_job(job);
    }
    if with_tg {
        exp.add_job(tg_half(scale).io_weight(1.0));
    }
    let r = exp.run();
    Cdf::from_samples(
        r.jobs
            .iter()
            .filter(|j| j.name.starts_with("FB2009"))
            .map(|j| j.runtime.as_secs_f64()),
    )
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig09_facebook", scale.label());
    println!(
        "Fig. 9 — Facebook2009 (SWIM) job runtime CDFs ({})\n",
        scale.label()
    );
    let _ = volumes::TERAGEN;

    // The three cases are independent simulations: fan them out.
    let cases = vec![
        (Policy::Native, false, true),
        (Policy::Native, true, false),
        (sfqd2(), true, false),
    ];
    let mut cdfs = SweepRunner::from_env()
        .map(cases, |_, (policy, with_tg, half)| {
            run_case(scale, policy, with_tg, half)
        })
        .into_iter();
    let mut standalone = cdfs.next().expect("standalone case");
    let mut interfered = cdfs.next().expect("interfered case");
    let mut isolated = cdfs.next().expect("isolated case");

    let mut table = Table::new(&[
        "percentile",
        "Standalone (s)",
        "Interfered (s)",
        "SFQ(D2) (s)",
    ]);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        table.row(&[
            format!("p{:.0}", q * 100.0),
            format!("{:.0}", standalone.quantile(q).unwrap_or(0.0)),
            format!("{:.0}", interfered.quantile(q).unwrap_or(0.0)),
            format!("{:.0}", isolated.quantile(q).unwrap_or(0.0)),
        ]);
    }
    table.print();
    println!(
        "\nmean runtime: standalone {:.0}s, interfered {:.0}s, SFQ(D2) {:.0}s",
        standalone.mean(),
        interfered.mean(),
        isolated.mean()
    );

    for (name, cdf) in [
        ("standalone", &mut standalone),
        ("interfered", &mut interfered),
        ("sfqd2", &mut isolated),
    ] {
        sink.record(&format!("{name}_mean_s"), cdf.mean());
        sink.record(&format!("{name}_p90_s"), cdf.quantile(0.9).unwrap_or(0.0));
        sink.record(&format!("{name}_p50_s"), cdf.quantile(0.5).unwrap_or(0.0));
    }

    sink.note(
        "Paper: standalone p90 = 120 s and mean 98 s; interfered p90 = \
         230 s (no job under 50 s) and mean 168 s; SFQ(D2) p90 = 138 s and \
         mean 115 s. Shape targets: interference shifts the whole CDF \
         right; SFQ(D2) pulls it back close to standalone.",
    );
    sink
}
