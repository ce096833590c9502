//! Distributed scheduling coordination (the paper's §5/§7.6): the same
//! two-job contention run with the scheduling broker disabled and enabled.
//! With the broker, each datanode's SFQ(D2) learns how much *total*
//! service every application received cluster-wide and delays locally
//! over-served flows (the DSFQ rule), converging to total-service
//! proportional sharing.
//!
//! ```sh
//! cargo run --release --example coordination
//! ```

use ibis::core::SfqD2Config;
use ibis::prelude::*;
use ibis::simcore::units::GIB;

fn main() {
    // Standalone baselines on the full cluster.
    let base = |spec: ibis::mapreduce::JobSpec| {
        let name = spec.name.clone();
        let mut exp = Experiment::new(ClusterConfig::default());
        exp.add_job(spec);
        exp.run().runtime_secs(&name).unwrap()
    };
    let ts_base = base(terasort(24 * GIB));
    let tg_base = base(teragen(128 * GIB));
    println!("standalone: TeraSort {ts_base:.0} s, TeraGen {tg_base:.0} s\n");

    for (label, sync) in [
        ("broker OFF (local ratios only)", false),
        ("broker ON (total-service DSFQ)", true),
    ] {
        let cfg = ClusterConfig::default()
            .with_policy(Policy::SfqD2(SfqD2Config::default()))
            .with_coordination(sync);
        let mut exp = Experiment::new(cfg);
        exp.add_job(terasort(24 * GIB).cpu_weight(1.0).io_weight(32.0));
        exp.add_job(teragen(128 * GIB).cpu_weight(1.0).io_weight(1.0));
        let r = exp.run();
        let ts = r.runtime_secs("TeraSort").unwrap();
        let tg = r.runtime_secs("TeraGen").unwrap();
        println!(
            "{label}:\n  TeraSort {ts:.0} s ({:+.0}%)   TeraGen {tg:.0} s ({:+.0}%)\n  \
             broker: {} reports, {} payload bytes\n",
            (ts / ts_base - 1.0) * 100.0,
            (tg / tg_base - 1.0) * 100.0,
            r.broker.reports,
            r.broker.payload_bytes,
        );
    }

    println!(
        "The broker's state is one counter per live application and its \
         messages are bounded by (apps × schedulers × period) — the \
         lightweight design §5 argues scales to thousands of nodes."
    );
}
