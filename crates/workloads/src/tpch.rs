//! TPC-H queries Q9 and Q21 on Hive (§7.4).
//!
//! Hive compiles each query to a chain of MapReduce jobs over the tables
//! stored in HDFS. The paper reports, for its 53 GB scale:
//!
//! * **Q9** (product type profit): 53 GB of initial input from five
//!   tables, ~120 GB of intermediate I/O, up to 15 sequential Hadoop
//!   jobs, 5 KB final output.
//! * **Q21** (suppliers who kept orders waiting): 45 GB from four tables,
//!   ~40 GB of intermediate I/O, 2.6 GB final output.
//!
//! Without Hive itself we model each query as a [`HiveQuery`] — a named
//! workflow of stages whose volumes telescope from the table scan down to
//! the final aggregate. Hive's 15 jobs include many metadata-only stages;
//! we keep the six (resp. five) data-bearing ones and size them so the
//! cumulative intermediate traffic (map spills + merges + reduce merges)
//! lands at the paper's totals. The substitution is recorded in DESIGN.md.

use ibis_mapreduce::{InputSpec, JobSpec};
use ibis_simcore::units::{GIB, KIB, MIB};

/// A Hive query: a named chain of MapReduce stages executed sequentially,
/// stage *n+1* reading stage *n*'s DFS output.
#[derive(Debug, Clone)]
pub struct HiveQuery {
    /// Query name ("Q9", "Q21").
    pub name: String,
    /// The stages, in execution order. The first stage's `input` names the
    /// table file the harness must create; later stages use
    /// [`InputSpec::Chained`].
    pub stages: Vec<JobSpec>,
}

impl HiveQuery {
    /// Compiles an [`ibis_workgen::DagSpec`] into a Hive-style query: the
    /// DAG is lowered to the sequential stage chain the engine executes
    /// ([`ibis_workgen::DagSpec::lower`]), preserving per-stage I/O byte
    /// volumes exactly. This generalises the hand-built TPC-H chains
    /// below to arbitrary fork/join dataflows.
    pub fn from_dag(dag: &ibis_workgen::DagSpec) -> Self {
        HiveQuery {
            name: dag.name.clone(),
            stages: dag.lower(),
        }
    }

    /// Total bytes of initial table input.
    pub fn input_bytes(&self) -> u64 {
        self.stages.first().map_or(0, JobSpec::input_bytes)
    }

    /// Applies an IBIS I/O weight to every stage.
    pub fn with_io_weight(mut self, w: f64) -> Self {
        for s in &mut self.stages {
            s.io_weight = w;
        }
        self
    }

    /// Applies a Fair Scheduler CPU weight to every stage.
    pub fn with_cpu_weight(mut self, w: f64) -> Self {
        for s in &mut self.stages {
            s.cpu_weight = w;
        }
        self
    }

    /// Caps every stage's concurrent tasks.
    pub fn with_max_slots(mut self, slots: u32) -> Self {
        for s in &mut self.stages {
            s.max_slots = Some(slots);
        }
        self
    }
}

/// Builds one join/aggregate stage. `shrink` = output ÷ input of the
/// stage; `shuffle_ratio` = shuffled bytes ÷ input (join width).
fn stage(name: &str, shuffle_ratio: f64, shrink: f64, reduces: u32) -> JobSpec {
    JobSpec {
        input: InputSpec::Chained,
        map_output_ratio: shuffle_ratio,
        // Query operators are moderately CPU-intensive (deserialisation,
        // predicate evaluation, hash probing).
        map_cpu_rate: 60e6,
        reduces,
        reduce_output_ratio: (shrink / shuffle_ratio).min(4.0),
        reduce_cpu_rate: 60e6,
        merge_threshold: 512 * MIB,
        ..JobSpec::named(name)
    }
}

/// TPC-H Q9 — product type profit — at the paper's 53 GB scale.
pub fn tpch_q9() -> HiveQuery {
    let mut stages = vec![
        // Stage 1 scans the five tables (lineitem-dominated) and performs
        // the first join: wide shuffle.
        JobSpec {
            input: InputSpec::DfsFile {
                name: "tpch-q9-tables".to_string(),
                bytes: 53 * GIB,
            },
            ..stage("Q9-s1-scan-join", 1.1, 0.55, 32)
        },
        stage("Q9-s2-join-partsupp", 1.2, 0.6, 24),
        stage("Q9-s3-join-supplier", 1.0, 0.5, 16),
        stage("Q9-s4-join-orders", 1.0, 0.35, 12),
        stage("Q9-s5-groupby", 0.8, 0.02, 8),
        // Final aggregate: 5 KB answer.
        JobSpec {
            reduce_output_ratio: 1e-6,
            ..stage("Q9-s6-aggregate", 0.5, 1e-6, 1)
        },
    ];
    // Hive writes the tiny answer with default replication.
    if let Some(last) = stages.last_mut() {
        last.gen_bytes_per_map = 4 * KIB;
    }
    HiveQuery {
        name: "Q9".to_string(),
        stages,
    }
}

/// TPC-H Q1 — pricing summary report. A single scan + aggregate over
/// lineitem (the lightest of the classic queries); not evaluated in the
/// paper but included to exercise single-stage Hive plans.
pub fn tpch_q1() -> HiveQuery {
    HiveQuery {
        name: "Q1".to_string(),
        stages: vec![JobSpec {
            input: InputSpec::DfsFile {
                name: "tpch-q1-lineitem".to_string(),
                bytes: 40 * GIB,
            },
            reduce_output_ratio: 1e-5,
            ..stage("Q1-s1-scan-aggregate", 0.05, 1e-6, 4)
        }],
    }
}

/// TPC-H Q5 — local supplier volume: a five-table join chain with a small
/// aggregate answer; not evaluated in the paper but included for coverage
/// of mid-weight query plans.
pub fn tpch_q5() -> HiveQuery {
    HiveQuery {
        name: "Q5".to_string(),
        stages: vec![
            JobSpec {
                input: InputSpec::DfsFile {
                    name: "tpch-q5-tables".to_string(),
                    bytes: 48 * GIB,
                },
                ..stage("Q5-s1-scan-join", 0.8, 0.4, 24)
            },
            stage("Q5-s2-join-orders", 0.9, 0.3, 16),
            stage("Q5-s3-join-region", 0.8, 0.1, 8),
            stage("Q5-s4-groupby", 0.5, 1e-5, 1),
        ],
    }
}

/// TPC-H Q21 — suppliers who kept orders waiting — at the paper's 45 GB
/// scale.
pub fn tpch_q21() -> HiveQuery {
    let stages = vec![
        JobSpec {
            input: InputSpec::DfsFile {
                name: "tpch-q21-tables".to_string(),
                bytes: 45 * GIB,
            },
            ..stage("Q21-s1-scan-join", 0.45, 0.40, 24)
        },
        stage("Q21-s2-self-join", 0.6, 0.45, 16),
        stage("Q21-s3-exists-filter", 0.5, 0.50, 12),
        stage("Q21-s4-groupby", 0.7, 0.65, 8),
        // 2.6 GB final output = 45 GB · 0.40 · 0.45 · 0.50 · 0.65;
        // cumulative shuffle ≈ 40 GB, the paper's intermediate volume.
        stage("Q21-s5-order-limit", 1.0, 1.0, 4),
    ];
    HiveQuery {
        name: "Q21".to_string(),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chains the stage ratios to compute the final output volume.
    fn final_output_bytes(q: &HiveQuery) -> f64 {
        let mut bytes = q.input_bytes() as f64;
        for s in &q.stages {
            bytes *= s.map_output_ratio * s.reduce_output_ratio;
        }
        bytes
    }

    /// Sums shuffle volumes across stages (a proxy for intermediate I/O:
    /// each shuffled byte is spilled, merged and re-read at least once).
    fn total_shuffle_bytes(q: &HiveQuery) -> f64 {
        let mut input = q.input_bytes() as f64;
        let mut total = 0.0;
        for s in &q.stages {
            let shuffle = input * s.map_output_ratio;
            total += shuffle;
            input = shuffle * s.reduce_output_ratio;
        }
        total
    }

    #[test]
    fn q9_matches_paper_volumes() {
        let q = tpch_q9();
        assert_eq!(q.input_bytes(), 53 * GIB);
        assert!(q.stages.len() >= 5, "Q9 launches a chain of jobs");
        // ~120 GB intermediate: shuffle total should be in the ballpark
        // (spill+merge multiplies it further at run time).
        let shuffle_gb = total_shuffle_bytes(&q) / GIB as f64;
        assert!(
            (80.0..170.0).contains(&shuffle_gb),
            "Q9 intermediate volume off: {shuffle_gb} GB"
        );
        // 5 KB final output (order of magnitude).
        let out = final_output_bytes(&q);
        assert!(out < 1e6, "Q9 output too large: {out} B");
    }

    #[test]
    fn q21_matches_paper_volumes() {
        let q = tpch_q21();
        assert_eq!(q.input_bytes(), 45 * GIB);
        let shuffle_gb = total_shuffle_bytes(&q) / GIB as f64;
        assert!(
            (25.0..60.0).contains(&shuffle_gb),
            "Q21 intermediate volume off: {shuffle_gb} GB"
        );
        let out_gb = final_output_bytes(&q) / GIB as f64;
        assert!(
            (1.5..4.0).contains(&out_gb),
            "Q21 output should be ~2.6 GB, got {out_gb}"
        );
    }

    #[test]
    fn q1_is_a_light_single_stage_scan() {
        let q = tpch_q1();
        assert_eq!(q.stages.len(), 1);
        assert!(final_output_bytes(&q) < 1e6);
        assert!(total_shuffle_bytes(&q) < 4.0 * GIB as f64);
    }

    #[test]
    fn q5_telescopes_to_a_small_answer() {
        let q = tpch_q5();
        assert!(q.stages.len() >= 3);
        assert!(final_output_bytes(&q) < 1e7, "{}", final_output_bytes(&q));
    }

    #[test]
    fn later_stages_chain_inputs() {
        for q in [tpch_q9(), tpch_q21(), tpch_q1(), tpch_q5()] {
            assert!(matches!(q.stages[0].input, InputSpec::DfsFile { .. }));
            for s in &q.stages[1..] {
                assert_eq!(s.input, InputSpec::Chained, "{} not chained", s.name);
            }
        }
    }

    #[test]
    fn from_dag_builds_a_chained_query() {
        use ibis_workgen::{DagSpec, DagStage};
        let dag = DagSpec::new("Qdag", "qdag-tables", 10 * GIB)
            .stage(DagStage::new("scan", &[], 1.0, 0.5, 8))
            .stage(DagStage::new("filter", &[0], 0.4, 0.2, 4))
            .stage(DagStage::new("join", &[0, 1], 0.9, 0.05, 4));
        let q = HiveQuery::from_dag(&dag).with_io_weight(8.0);
        assert_eq!(q.name, "Qdag");
        assert_eq!(q.input_bytes(), 10 * GIB);
        assert_eq!(q.stages.len(), 3);
        assert!(matches!(q.stages[0].input, InputSpec::DfsFile { .. }));
        for s in &q.stages[1..] {
            assert_eq!(s.input, InputSpec::Chained);
        }
        // Chained output telescopes to the DAG's sink volume.
        let out = final_output_bytes(&q);
        assert!((out - dag.sink_output_bytes()).abs() / out < 1e-9);
        assert!(q.stages.iter().all(|s| s.io_weight == 8.0));
    }

    #[test]
    fn weight_helpers_apply_to_all_stages() {
        let q = tpch_q9()
            .with_io_weight(100.0)
            .with_cpu_weight(2.0)
            .with_max_slots(48);
        for s in &q.stages {
            assert_eq!(s.io_weight, 100.0);
            assert_eq!(s.cpu_weight, 2.0);
            assert_eq!(s.max_slots, Some(48));
        }
    }
}
