//! Fig. 10 — multi-framework I/O scheduling: TPC-H queries (Q9, Q21) on
//! Hive running against TeraSort on MapReduce, under Native YARN, the
//! cgroups-based extensions (proportional weights 100:1 and a 1 MB/s
//! throttle on TeraSort), and IBIS at 100:1.
//!
//! (a) relative performance of each query w.r.t. its standalone runtime;
//! (b) the average relative performance of the query/TeraSort pair.

use crate::experiments::{
    hdd_cluster, relative_perf, run_thunk, sfqd2, ts_half, volumes, RunThunk,
};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_core::AppId;
use ibis_simcore::units::GIB;
use ibis_workloads::{tpch_q21, tpch_q9, HiveQuery};

fn scaled_query(q: HiveQuery, scale: ScaleProfile) -> HiveQuery {
    let mut q = q;
    if let Some(first) = q.stages.first_mut() {
        if let ibis_mapreduce::InputSpec::DfsFile { bytes, .. } = &mut first.input {
            *bytes = scale.bytes(*bytes).max(2 * GIB);
        }
    }
    q
}

/// Runs the query (workload 1, AppIds from 1) against TeraSort (workload
/// 2; because stages chain after TeraSort's submission, TeraSort is always
/// the second JobId ⇒ AppId(2) — relied on by the throttle caps).
fn contended(query: HiveQuery, scale: ScaleProfile, policy: Policy) -> RunThunk {
    run_thunk(move || {
        let mut exp = Experiment::new(hdd_cluster(policy));
        exp.add_query(query.with_io_weight(100.0).with_max_slots(48));
        exp.add_job(ts_half(scale).io_weight(1.0));
        exp.run()
    })
}

fn standalone_query(query: HiveQuery) -> RunThunk {
    run_thunk(move || {
        let mut exp = Experiment::new(hdd_cluster(Policy::Native));
        exp.add_query(query.with_max_slots(48));
        exp.run()
    })
}

/// TeraSort is the second submitted workload ⇒ AppId(2); see `contended`.
const TERASORT_APP: AppId = AppId(2);

/// Runs the figure.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig10_multiframework", scale.label());
    println!(
        "Fig. 10 — TPC-H on Hive vs TeraSort on MapReduce ({})\n",
        scale.label()
    );
    let _ = volumes::TERASORT;

    let configs: Vec<(&str, Policy)> = vec![
        ("Native", Policy::Native),
        ("CG(weight)-100:1", Policy::CgroupWeight),
        (
            "CG(throttle)-1MB/s",
            Policy::CgroupThrottle {
                // blkio throttling is per container: ~6 TeraSort containers
                // share each node device, so the per-device aggregate cap
                // is 6 × 1 MB/s.
                caps: vec![(TERASORT_APP, 6e6)],
            },
        ),
        ("IBIS-100:1", sfqd2()),
    ];

    let queries = [
        ("Q21", scaled_query(tpch_q21(), scale)),
        ("Q9", scaled_query(tpch_q9(), scale)),
    ];

    // One batch: the TeraSort standalone, then per query its standalone
    // plus the four contended configurations — eleven simulations.
    let mut thunks: Vec<RunThunk> = vec![run_thunk(move || {
        let mut exp = Experiment::new(hdd_cluster(Policy::Native));
        exp.add_job(ts_half(scale));
        exp.run()
    })];
    for (_, query) in &queries {
        thunks.push(standalone_query(query.clone()));
        for (_, policy) in &configs {
            thunks.push(contended(query.clone(), scale, policy.clone()));
        }
    }
    let mut reports = SweepRunner::from_env().run_thunks(thunks).into_iter();

    let ts_base = reports
        .next()
        .expect("ts standalone report")
        .runtime_secs("TeraSort")
        .expect("ts finished");
    sink.record("ts_alone_s", ts_base);

    for (qname, query) in &queries {
        let q_base = reports
            .next()
            .expect("query standalone report")
            .query(&query.name)
            .expect("query finished")
            .runtime
            .as_secs_f64();
        sink.record(&format!("{}_alone_s", qname.to_lowercase()), q_base);
        println!("{qname} (standalone {q_base:.0}s, TeraSort standalone {ts_base:.0}s):");

        let mut table = Table::new(&[
            "config",
            "query rel. perf",
            "TeraSort rel. perf",
            "pair average",
        ]);
        for (label, _) in &configs {
            let r = reports.next().expect("contended report");
            let qr = relative_perf(
                r.query(&query.name)
                    .expect("query finished")
                    .runtime
                    .as_secs_f64(),
                q_base,
            );
            let tr = relative_perf(
                r.runtime_secs("TeraSort").expect("terasort finished"),
                ts_base,
            );
            table.row(&[
                (*label).into(),
                format!("{qr:.2}"),
                format!("{tr:.2}"),
                format!("{:.2}", (qr + tr) / 2.0),
            ]);
            let key = format!(
                "{}_{}",
                qname.to_lowercase(),
                label
                    .to_lowercase()
                    .replace(['(', ')', ':', '/'], "")
                    .replace('-', "_")
            );
            sink.record(&format!("{key}_query_rel"), qr);
            sink.record(&format!("{key}_ts_rel"), tr);
        }
        table.print();
        println!();
    }

    sink.note(
        "Paper: Q21 native rel. perf 0.65; cgroups improves ≤2.5 points; \
         IBIS reaches 0.80 (+15% over native). Q9: native 0.74; throttle \
         and IBIS both ~0.91. Throttling costs TeraSort up to 16% vs IBIS. \
         Shape targets: cgroups barely helps Q21 (HDFS I/O undifferen- \
         tiated); IBIS lifts both queries; IBIS keeps TeraSort fastest \
         among the managed configs.",
    );
    sink
}
