//! Table 3 — development cost of IBIS by component, counted over this
//! repository's sources and mapped onto the paper's component breakdown
//! (Interposition / SFQ(D) / SFQ(D2) / Scheduling Coordination).

use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/bench → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Counts non-blank, non-`//`-comment lines of one file.
fn loc_of_file(path: &Path) -> u64 {
    let Ok(text) = fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

fn loc_of(paths: &[&str]) -> u64 {
    let root = workspace_root();
    paths.iter().map(|p| loc_of_file(&root.join(p))).sum()
}

fn loc_of_dir(dir: &str) -> u64 {
    fn walk(p: &Path, total: &mut u64) {
        if let Ok(entries) = fs::read_dir(p) {
            for e in entries.flatten() {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, total);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    *total += loc_of_file(&path);
                }
            }
        }
    }
    let mut total = 0;
    walk(&workspace_root().join(dir), &mut total);
    total
}

/// Runs the table.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("tab03_loc", scale.label());
    println!("Table 3 — development cost by IBIS component (this repo vs paper)\n");

    let interposition = loc_of(&[
        "crates/core/src/request.rs",
        "crates/core/src/scheduler.rs",
        "crates/cluster/src/engine.rs",
        "crates/cluster/src/engine/coord.rs",
        "crates/cluster/src/engine/faults.rs",
    ]);
    let sfqd = loc_of(&["crates/core/src/sfq.rs"]);
    let sfqd2 = loc_of(&["crates/core/src/controller.rs", "crates/core/src/sfqd2.rs"]);
    let coordination = loc_of(&["crates/core/src/broker.rs"]);

    let mut t = Table::new(&["component", "paper LoC", "this repo LoC"]);
    t.row(&[
        "Interposition".into(),
        "2593".into(),
        interposition.to_string(),
    ]);
    t.row(&["SFQ(D) scheduler".into(), "734".into(), sfqd.to_string()]);
    t.row(&["SFQ(D2) scheduler".into(), "1520".into(), sfqd2.to_string()]);
    t.row(&[
        "Scheduling coordination".into(),
        "1705".into(),
        coordination.to_string(),
    ]);
    t.row(&[
        "Total (IBIS components)".into(),
        "6552".into(),
        (interposition + sfqd + sfqd2 + coordination).to_string(),
    ]);
    t.print();

    println!("\nFull workspace (including the Hadoop-substitute substrates):");
    let mut t2 = Table::new(&["crate", "LoC"]);
    let mut workspace_total = 0;
    for c in [
        "crates/simcore",
        "crates/storage",
        "crates/core",
        "crates/dfs",
        "crates/mapreduce",
        "crates/workloads",
        "crates/cluster",
        "crates/bench",
    ] {
        let n = loc_of_dir(c);
        workspace_total += n;
        t2.row(&[c.into(), n.to_string()]);
    }
    t2.row(&["total".into(), workspace_total.to_string()]);
    t2.print();

    sink.record("interposition_loc", interposition as f64);
    sink.record("sfqd_loc", sfqd as f64);
    sink.record("sfqd2_loc", sfqd2 as f64);
    sink.record("coordination_loc", coordination as f64);
    sink.record("workspace_loc", workspace_total as f64);
    let _ = scale;
    sink.note(
        "The paper counts Java patched into Hadoop/YARN; this repo counts \
         Rust. The substrates (simulator, devices, DFS, MapReduce) replace \
         Hadoop itself and are therefore outside the component comparison.",
    );
    sink
}
