//! `fig_attribution` — where does a tenant's latency go?
//!
//! Replays the `fig_trace` scan-flood scenario (an "etl" pipeline at
//! weight 8 under a wide "scan" flood at weight 1) with causal tracing
//! on, and decomposes each tenant's arrival→completion latency into the
//! `ibis-trace` components — device service, DSFQ delay charge,
//! degraded-mode wait, queue wait, fault stall, other — which sum
//! exactly to the swept total. Native vs SFQ(D2) side by side shows the
//! *mechanism* behind the fig_trace headline: under Native the etl
//! tenant's latency is dominated by queue wait behind the flood, while
//! SFQ(D2) moves that wait onto the scan tenant as its DSFQ delay
//! charge.
//!
//! A second section runs a diamond dataflow DAG with tracing on and
//! extracts its critical path from the measured stage intervals —
//! the chain that would bound the makespan under parallel stage
//! execution — plus its coverage of the observed span.
//!
//! A joined long-form CSV (sampled metrics series + per-tenant latency
//! components, same schema) lands next to the results JSON.

use crate::experiments::{hdd_cluster, sfqd2};
use crate::figs::fig_trace::build_traces;
use crate::results::{self, ResultSink};
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_metrics::csv::ExtraRow;
use ibis_metrics::MetricsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::SimDuration;
use ibis_trace::COMPONENTS;
use ibis_workgen::{DagSpec, DagStage};

fn traced_cluster(policy: Policy) -> ClusterConfig {
    let mut cfg = hdd_cluster(policy).with_trace();
    cfg.metrics = MetricsConfig::enabled(SimDuration::from_secs(5));
    cfg
}

fn run_case(label: &'static str, policy: Policy, text: &str) -> (&'static str, RunReport) {
    let mut exp = Experiment::new(traced_cluster(policy));
    exp.add_trace(text)
        .expect("fig_attribution: trace must parse");
    (label, exp.run())
}

/// The diamond DAG of the workgen tests, sized for the figure: scan
/// forks into filter and project, which join.
fn diamond(scale: ScaleProfile) -> DagSpec {
    let input = match scale {
        ScaleProfile::Paper => 8 * GIB,
        ScaleProfile::Quick => 2 * GIB,
    };
    DagSpec::new("diamond", "diamond-input", input)
        .stage(DagStage::new("scan", &[], 1.0, 0.8, 8))
        .stage(DagStage::new("filter", &[0], 0.5, 0.25, 4))
        .stage(DagStage::new("project", &[0], 0.3, 0.30, 4))
        .stage(DagStage::new("join", &[1, 2], 1.2, 0.10, 8))
}

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig_attribution", scale.label());
    println!(
        "fig_attribution — per-tenant latency decomposition and DAG \
         critical path ({})\n",
        scale.label()
    );
    let (full, _) = build_traces(scale);

    let cases: Vec<(&'static str, RunReport)> = SweepRunner::from_env()
        .map(
            vec![("native", Policy::Native, &full), ("sfqd2", sfqd2(), &full)],
            |_, (label, policy, text)| run_case(label, policy, text),
        )
        .into_iter()
        .collect();

    let mut header = vec!["policy".to_string(), "tenant".to_string()];
    header.extend(COMPONENTS.iter().map(|c| format!("{c} (%)")));
    header.push("measured (s)".to_string());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for (label, r) in &cases {
        for tenant in ["etl", "scan"] {
            let a = r
                .tenant_breakdown(tenant)
                .unwrap_or_else(|| panic!("{label}: no breakdown for {tenant}"));
            // The sum identity is the figure's foundation; assert it
            // before printing percentages of it.
            assert_eq!(
                a.swept_ns,
                a.components_sum_ns(),
                "{label}/{tenant}: components do not sum to the swept total"
            );
            let mut row = vec![label.to_string(), tenant.to_string()];
            for comp in COMPONENTS {
                let pct = a.fraction(comp) * 100.0;
                row.push(format!("{pct:.1}"));
                sink.record(
                    &format!("{label}_{tenant}_{}_pct", comp.replace('-', "_")),
                    pct,
                );
            }
            row.push(format!("{:.1}", a.measured_ns as f64 / 1e9));
            sink.record(
                &format!("{label}_{tenant}_measured_s"),
                a.measured_ns as f64 / 1e9,
            );
            table.row(&row);
            let (dom, _) = a.dominant();
            println!("{label}/{tenant}: dominant component {dom}");
        }
    }
    table.print();

    // Joined long-form CSV: the sampled series plus the per-tenant
    // decomposition, one schema.
    let (_, sfq) = cases
        .iter()
        .find(|(l, _)| *l == "sfqd2")
        .expect("sfqd2 case");
    let trace = sfq.trace.as_ref().expect("trace assembled");
    let makespan = sfq.makespan.as_secs_f64();
    let extra: Vec<ExtraRow> = trace
        .csv_rows()
        .into_iter()
        .map(|(metric, app, value)| ExtraRow {
            metric,
            app,
            t_secs: makespan,
            value,
        })
        .collect();
    let metrics = sfq.metrics.as_ref().expect("metrics enabled");
    let csv = ibis_metrics::csv::export_with(metrics, &extra);
    let path = results::dir()
        .expect("create the results directory")
        .join("fig_attribution.csv");
    std::fs::write(&path, &csv).expect("write joined csv");
    println!(
        "\njoined CSV (metrics series + latency components) → {} ({} rows)",
        path.display(),
        csv.lines().count() - 1
    );

    // DAG critical path from measured stage intervals.
    println!("\ndiamond DAG critical path (SFQ(D2), traced):");
    let dag = diamond(scale);
    let mut exp = Experiment::new(traced_cluster(sfqd2()));
    // Chained-input stages only run inside a workflow; compile the DAG
    // to a Hive-style query so the engine sequences the stage chain.
    exp.add_query(ibis_workloads::HiveQuery::from_dag(&dag));
    let r = exp.run();
    let times: Vec<(u64, u64)> = dag
        .stages
        .iter()
        .map(|s| {
            let j = r
                .job(&format!("{}-{}", dag.name, s.name))
                .unwrap_or_else(|| panic!("stage {} missing from report", s.name));
            (
                (j.submitted - ibis_simcore::SimTime::ZERO).as_nanos(),
                (j.finished - ibis_simcore::SimTime::ZERO).as_nanos(),
            )
        })
        .collect();
    let nodes = dag.cp_nodes(&times);
    let cp = dag.critical_path(&times);
    let path: Vec<&str> = cp.nodes.iter().map(|&i| nodes[i].label.as_str()).collect();
    println!(
        "  path: {} ({:.1} s, coverage {:.2})",
        path.join(" → "),
        cp.length_ns as f64 / 1e9,
        cp.coverage
    );
    assert!(!cp.nodes.is_empty(), "critical path must be non-empty");
    assert!(
        cp.coverage > 0.0 && cp.coverage <= 1.0 + 1e-9,
        "coverage out of range: {}",
        cp.coverage
    );
    sink.record("dag_critical_path_s", cp.length_ns as f64 / 1e9);
    sink.record("dag_critical_path_coverage", cp.coverage);
    sink.record("dag_critical_path_stages", cp.nodes.len() as f64);

    sink.note(
        "Per-tenant latency attribution under the fig_trace scan flood: \
         components sum exactly to the swept arrival→completion total \
         (asserted). Shape targets: under Native the etl tenant's \
         non-service latency concentrates in queue_wait behind the scan \
         flood; under SFQ(D2) the protected tenant's queue share shrinks \
         and the scan tenant absorbs dsfq_delay instead. The DAG section \
         reports the dependency chain bounding the diamond's makespan \
         and its coverage of the observed span.",
    );
    sink
}
