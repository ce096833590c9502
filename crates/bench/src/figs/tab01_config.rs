//! Table 1 — the YARN/HDFS configuration used in the evaluation, as
//! realised by this reproduction's defaults (plus the testbed constants of
//! §7.1 for reference).

use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;

/// Prints the configuration table.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("tab01_config", scale.label());
    let c = ClusterConfig::default();

    println!("Table 1 — configuration used in the evaluation\n");
    let mut t = Table::new(&["key", "paper", "this reproduction"]);
    t.row(&[
        "dfs.replication".into(),
        "3".into(),
        c.replication.to_string(),
    ]);
    t.row(&[
        "dfs.block.size".into(),
        "134,217,728".into(),
        c.block_size.to_string(),
    ]);
    t.row(&[
        "fairscheduler.preemption".into(),
        "true, 5s".into(),
        "fair re-pick on every slot change".into(),
    ]);
    t.row(&["worker nodes".into(), "8".into(), c.nodes.to_string()]);
    t.row(&[
        "cores / node".into(),
        "12 (2×6-core Opteron)".into(),
        c.cores_per_node.to_string(),
    ]);
    t.row(&[
        "memory / node".into(),
        "24 GB usable of 32 GB".into(),
        format!("{} GiB", c.memory_per_node >> 30),
    ]);
    t.row(&[
        "disks / node".into(),
        "2 (HDFS + intermediate)".into(),
        "2 (HDFS + intermediate)".into(),
    ]);
    t.row(&[
        "network".into(),
        "Gigabit Ethernet".into(),
        format!("{:.0} MB/s ingress/node", c.nic_bw / 1e6),
    ]);
    t.row(&[
        "map task".into(),
        "1 core, 2 GB".into(),
        "1 core, 2 GiB".into(),
    ]);
    t.row(&[
        "reduce task".into(),
        "1 core, 8 GB".into(),
        "1 core, 8 GiB".into(),
    ]);
    t.row(&[
        "SFQ(D2) control period".into(),
        "1 s".into(),
        format!("{}", c.sync_period),
    ]);
    t.print();

    sink.record("replication", c.replication as f64);
    sink.record("block_size", c.block_size as f64);
    sink.record("nodes", c.nodes as f64);
    sink.record("total_cores", c.total_cores() as f64);
    sink
}
