//! `fig_burst` — FaaS-style burst tenant vs a batch pipeline: tail
//! latency of interactive bursts under Native vs SFQ(D2).
//!
//! An on/off burst tenant (the `ibis-workgen` FaaS profile: ~2 s bursts
//! of ~50 ms-spaced short jobs, ~30 s silences, 4× cold-start slowdown
//! after a ≥10 s idle gap) shares the HDD testbed with a Poisson batch
//! tenant running SWIM-envelope multi-map jobs. The paper's 32:1 weight
//! ratio favours the interactive tenant. Under native scheduling each
//! burst lands behind whatever batch I/O is in flight and the burst
//! tail stretches; SFQ(D2) holds the short-job tail near its service
//! floor while the batch tenant absorbs the slack.

use crate::experiments::{hdd_cluster, sfqd2};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_simcore::SimDuration;
use ibis_workgen::{
    burst_tenant, ArrivalProcess, BurstProfile, JobShape, MixConfig, SizeDist, TenantSpec,
};

const SEED: u64 = 0xB125;

/// The two-tenant open-system mix: a SWIM-envelope batch tenant plus the
/// FaaS burst tenant at the paper's 32:1 interactive weight.
fn mix(scale: ScaleProfile) -> MixConfig {
    let (batch_jobs, faas_jobs) = match scale {
        ScaleProfile::Paper => (16u32, 400u32),
        ScaleProfile::Quick => (8, 150),
    };
    // The SWIM envelope with quick-scale map counts (as fig09's quick
    // SwimConfig): small jobs 1..=8 maps, the heavy class 8..=32.
    let batch_shape = JobShape {
        maps: SizeDist::Bimodal {
            heavy_fraction: 0.2,
            lo: 1.0,
            hi: 9.0,
            heavy_lo: 8.0,
            heavy_hi: 33.0,
        },
        ..JobShape::swim()
    };
    MixConfig::new(SEED)
        .tenant(TenantSpec::new(
            "batch",
            1.0,
            batch_jobs,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(15),
            },
            batch_shape,
        ))
        .tenant(burst_tenant(
            "faas",
            BurstProfile::faas(faas_jobs).weight(32.0),
        ))
}

struct Case {
    label: &'static str,
    report: RunReport,
}

fn run_case(label: &'static str, policy: Policy, scale: ScaleProfile) -> Case {
    let mut exp = Experiment::new(hdd_cluster(policy));
    exp.add_mix(&mix(scale));
    Case {
        label,
        report: exp.run(),
    }
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig_burst", scale.label());
    println!(
        "fig_burst — FaaS burst tenant vs batch pipeline, tail latency ({})\n",
        scale.label()
    );

    // Cold-start jobs are identifiable from the sampled specs: the 4×
    // penalty pushes their map rate below the warm shape's floor.
    let specs = mix(scale).compose();
    let warm_floor = JobShape::short_task().map_cpu_rate.bounds().0;
    let cold: std::collections::HashSet<String> = specs
        .iter()
        .filter(|s| s.tenant.as_deref() == Some("faas") && s.map_cpu_rate < warm_floor)
        .map(|s| s.name.clone())
        .collect();
    println!(
        "mix: {} jobs ({} cold-start), faas:batch weight 32:1\n",
        specs.len(),
        cold.len()
    );

    let cases: Vec<Case> = SweepRunner::from_env()
        .map(
            vec![("native", Policy::Native), ("sfqd2", sfqd2())],
            |_, (label, policy)| run_case(label, policy, scale),
        )
        .into_iter()
        .collect();

    let mut table = Table::new(&[
        "policy",
        "faas p50 (ms)",
        "faas p99 (ms)",
        "faas max (ms)",
        "cold mean (ms)",
        "warm mean (ms)",
        "batch p99 (s)",
    ]);
    for case in &cases {
        let r = &case.report;
        let faas = r.tenant("faas").expect("faas tenant reported");
        let batch = r.tenant("batch").expect("batch tenant reported");
        assert_eq!(
            faas.finished, faas.submitted,
            "{}: faas lost jobs",
            case.label
        );
        assert_eq!(
            batch.finished, batch.submitted,
            "{}: batch lost jobs",
            case.label
        );

        // Cold vs warm arrival→completion latency, from the per-job rows.
        let (mut cold_sum, mut cold_n, mut warm_sum, mut warm_n) = (0.0f64, 0u64, 0.0f64, 0u64);
        for j in r.jobs.iter().filter(|j| j.name.starts_with("faas")) {
            let ms = (j.finished - j.submitted).as_secs_f64() * 1e3;
            if cold.contains(&j.name) {
                cold_sum += ms;
                cold_n += 1;
            } else {
                warm_sum += ms;
                warm_n += 1;
            }
        }
        let cold_mean = if cold_n > 0 {
            cold_sum / cold_n as f64
        } else {
            f64::NAN
        };
        let warm_mean = if warm_n > 0 {
            warm_sum / warm_n as f64
        } else {
            f64::NAN
        };

        let fq = |q: f64| faas.latency_ms(q).unwrap_or(f64::NAN);
        let batch_p99_s = batch.latency_ms(0.99).map_or(f64::NAN, |ms| ms / 1e3);
        table.row(&[
            case.label.to_string(),
            format!("{:.0}", fq(0.5)),
            format!("{:.0}", fq(0.99)),
            format!("{:.0}", fq(1.0)),
            format!("{cold_mean:.0}"),
            format!("{warm_mean:.0}"),
            format!("{batch_p99_s:.1}"),
        ]);
        for (k, v) in [
            ("faas_p50_ms", fq(0.5)),
            ("faas_p99_ms", fq(0.99)),
            ("faas_max_ms", fq(1.0)),
            ("cold_mean_ms", cold_mean),
            ("warm_mean_ms", warm_mean),
            ("batch_p99_s", batch_p99_s),
        ] {
            sink.record(&format!("{}_{k}", case.label), v);
        }
    }
    table.print();

    sink.note(
        "Open-system burst scenario. Shape targets: every burst and batch \
         arrival completes under both policies; cold-start jobs run \
         slower than warm ones (the 4× compute penalty is visible \
         end-to-end); SFQ(D2) keeps the 32×-weighted burst tenant's p99 \
         at or below Native's while batch p99 gives up at most the \
         proportional-share slack.",
    );
    sink
}
