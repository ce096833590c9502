//! DAG jobs with explicit I/O dependencies.
//!
//! Hive compiles a query to a *tree* of MapReduce jobs, but general
//! dataflow engines (Tez, Spark, Dryad) produce arbitrary DAGs: a stage
//! may consume the outputs of several predecessors (joins) and feed
//! several successors (forks). [`DagSpec`] describes such a graph by
//! byte-volume edges, and [`DagSpec::lower`] compiles it to the
//! sequential stage chain the cluster engine already executes
//! ([`InputSpec::Chained`]), rescaling each stage's ratios so the chain
//! moves exactly the bytes the DAG declares.
//!
//! The approximation is explicit: lowering serialises stage *parallelism*
//! (the engine runs one stage at a time per workflow) but preserves stage
//! *I/O volumes* byte-for-byte — the quantity IBIS schedules on. A
//! fork-join DAG therefore costs the same disk traffic as it would under
//! true parallel execution, just spread over a longer critical path.

use ibis_mapreduce::{InputSpec, JobSpec};
use ibis_simcore::units::MIB;

/// One stage of a [`DagSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct DagStage {
    /// Stage name; the lowered JobSpec is `{dag}-{name}`.
    pub name: String,
    /// Indices of the stages whose outputs this stage reads. Every index
    /// must be **smaller** than this stage's own index, so a `DagSpec` is
    /// acyclic by construction. Empty = the stage reads the DAG input.
    pub deps: Vec<usize>,
    /// Shuffled bytes ÷ stage input bytes (join width).
    pub shuffle_ratio: f64,
    /// Stage output bytes ÷ stage input bytes (shrink/expand factor).
    pub output_ratio: f64,
    /// Reduce-task count (0 = map-only stage; its output is HDFS-sized by
    /// the map ratio directly).
    pub reduces: u32,
    /// Compute rate for both phases, bytes/s per core.
    pub cpu_rate: f64,
}

impl DagStage {
    /// A stage with the default query-operator compute rate (60 MB/s per
    /// core, matching the Hive model in `ibis-workloads`).
    pub fn new(
        name: &str,
        deps: &[usize],
        shuffle_ratio: f64,
        output_ratio: f64,
        reduces: u32,
    ) -> Self {
        DagStage {
            name: name.to_string(),
            deps: deps.to_vec(),
            shuffle_ratio,
            output_ratio,
            reduces,
            cpu_rate: 60e6,
        }
    }

    /// Overrides the compute rate (builder style).
    pub fn cpu_rate(mut self, rate: f64) -> Self {
        self.cpu_rate = rate;
        self
    }
}

/// A dataflow DAG over one DFS input file.
#[derive(Debug, Clone, PartialEq)]
pub struct DagSpec {
    /// DAG name; prefixes stage job names.
    pub name: String,
    /// Input file the harness registers with the namenode.
    pub input_file: String,
    /// Input file size.
    pub input_bytes: u64,
    /// Stages in topological index order (enforced by [`DagSpec::stage`]).
    pub stages: Vec<DagStage>,
}

impl DagSpec {
    /// An empty DAG over the given input.
    pub fn new(name: &str, input_file: &str, input_bytes: u64) -> Self {
        assert!(input_bytes > 0, "DAG input is empty");
        DagSpec {
            name: name.to_string(),
            input_file: input_file.to_string(),
            input_bytes,
            stages: Vec::new(),
        }
    }

    /// Appends a stage (builder style), validating its dependencies: each
    /// must reference an *earlier* stage, with no duplicates.
    pub fn stage(mut self, s: DagStage) -> Self {
        let idx = self.stages.len();
        let mut seen = Vec::new();
        for &d in &s.deps {
            assert!(
                d < idx,
                "stage {idx} ({}) depends on {d}, which is not an earlier stage",
                s.name
            );
            assert!(!seen.contains(&d), "stage {idx} lists dep {d} twice");
            seen.push(d);
        }
        assert!(
            s.shuffle_ratio > 0.0 || s.reduces == 0,
            "zero shuffle into reduces"
        );
        assert!(s.output_ratio > 0.0, "stage output must be positive");
        self.stages.push(s);
        self
    }

    /// Per-stage `(input, shuffle, output)` byte volumes, propagated
    /// through the dependency edges: a stage's input is the sum of its
    /// parents' outputs (or the DAG input for root stages).
    pub fn volumes(&self) -> Vec<(f64, f64, f64)> {
        let mut v: Vec<(f64, f64, f64)> = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            let input = if s.deps.is_empty() {
                self.input_bytes as f64
            } else {
                s.deps.iter().map(|&d| v[d].2).sum()
            };
            let shuffle = if s.reduces == 0 {
                0.0
            } else {
                input * s.shuffle_ratio
            };
            let output = input * s.output_ratio;
            v.push((input, shuffle, output));
        }
        v
    }

    /// Total bytes written to the final (sink) stages — stages no other
    /// stage consumes.
    pub fn sink_output_bytes(&self) -> f64 {
        let v = self.volumes();
        let mut consumed = vec![false; self.stages.len()];
        for s in &self.stages {
            for &d in &s.deps {
                consumed[d] = true;
            }
        }
        v.iter()
            .zip(&consumed)
            .filter(|(_, &c)| !c)
            .map(|((_, _, out), _)| out)
            .sum()
    }

    /// Builds the timed dependency DAG for [`ibis_trace::critical_path()`]
    /// from a finished run of the lowered chain: `times[i]` is stage
    /// *i*'s measured `[start_ns, end_ns)` interval (submission →
    /// completion of the job named `{dag}-{stage}`). The returned nodes
    /// carry the DAG's *true* edges, so the extracted path answers the
    /// counterfactual the sequential lowering obscures: which chain
    /// would bound the makespan under parallel stage execution.
    pub fn cp_nodes(&self, times: &[(u64, u64)]) -> Vec<ibis_trace::CpNode> {
        assert_eq!(
            times.len(),
            self.stages.len(),
            "one (start, end) interval per stage"
        );
        self.stages
            .iter()
            .zip(times)
            .map(|(s, &(start_ns, end_ns))| ibis_trace::CpNode {
                label: format!("{}-{}", self.name, s.name),
                start_ns,
                end_ns,
                deps: s.deps.clone(),
            })
            .collect()
    }

    /// The critical path of this DAG under the measured stage intervals
    /// (see [`DagSpec::cp_nodes`]).
    pub fn critical_path(&self, times: &[(u64, u64)]) -> ibis_trace::CriticalPath {
        ibis_trace::critical_path(&self.cp_nodes(times))
    }

    /// Compiles the DAG to a sequential stage chain. Stage *i*'s lowered
    /// ratios are computed against the chain's carried volume (stage
    /// *i−1*'s output), so every stage's absolute shuffle and output byte
    /// volumes equal the DAG's — the lowering preserves I/O demand
    /// exactly while serialising stage parallelism.
    pub fn lower(&self) -> Vec<JobSpec> {
        assert!(!self.stages.is_empty(), "DAG has no stages");
        let vols = self.volumes();
        let mut out = Vec::with_capacity(self.stages.len());
        // Volume the chain carries into the next stage; starts at the DAG
        // input, then each stage's own output.
        let mut carried = self.input_bytes as f64;
        for (i, (s, &(_, shuffle, output))) in self.stages.iter().zip(&vols).enumerate() {
            assert!(carried > 0.0, "stage {i} receives no bytes from the chain");
            let name = format!("{}-{}", self.name, s.name);
            let spec = if s.reduces == 0 {
                // Map-only: the map ratio sizes the HDFS output directly.
                JobSpec {
                    input: InputSpec::Chained,
                    map_output_ratio: output / carried,
                    map_cpu_rate: s.cpu_rate,
                    reduces: 0,
                    merge_threshold: 512 * MIB,
                    ..JobSpec::named(&name)
                }
            } else {
                JobSpec {
                    input: InputSpec::Chained,
                    map_output_ratio: shuffle / carried,
                    map_cpu_rate: s.cpu_rate,
                    reduces: s.reduces,
                    reduce_output_ratio: output / shuffle,
                    reduce_cpu_rate: s.cpu_rate,
                    merge_threshold: 512 * MIB,
                    ..JobSpec::named(&name)
                }
            };
            out.push(spec);
            carried = output;
        }
        // The chain's head reads the DAG input file.
        out[0].input = InputSpec::DfsFile {
            name: self.input_file.clone(),
            bytes: self.input_bytes,
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_simcore::units::GIB;

    /// scan → (filter, project) → join: the smallest genuine DAG (a
    /// diamond) — two stages read the scan, the join reads both.
    fn diamond() -> DagSpec {
        DagSpec::new("diamond", "diamond-input", 10 * GIB)
            .stage(DagStage::new("scan", &[], 1.0, 0.8, 8))
            .stage(DagStage::new("filter", &[0], 0.5, 0.25, 4))
            .stage(DagStage::new("project", &[0], 0.3, 0.30, 4))
            .stage(DagStage::new("join", &[1, 2], 1.2, 0.10, 8))
    }

    #[test]
    fn volumes_propagate_through_edges() {
        let d = diamond();
        let v = d.volumes();
        let gib = GIB as f64;
        assert_eq!(v[0].0, 10.0 * gib); // scan reads the DAG input
        assert_eq!(v[1].0, 8.0 * gib); // filter reads scan's output
        assert_eq!(v[2].0, 8.0 * gib); // project too (fork)
                                       // join reads filter (8·0.25 = 2 GiB) + project (8·0.30 = 2.4 GiB)
        assert!((v[3].0 - 4.4 * gib).abs() < 1.0);
        assert!((d.sink_output_bytes() - 0.44 * gib).abs() < 1.0);
    }

    #[test]
    fn lowering_preserves_absolute_io_volumes() {
        let d = diamond();
        let dag_vols = d.volumes();
        let chain = d.lower();
        // Telescope the chain exactly as the engine resolves Chained
        // inputs and compare per-stage absolute volumes.
        let mut carried = chain[0].input_bytes() as f64;
        for (spec, &(_, shuffle, output)) in chain.iter().zip(&dag_vols) {
            if spec.reduces == 0 {
                let out = carried * spec.map_output_ratio;
                assert!((out - output).abs() / output < 1e-9);
                carried = out;
            } else {
                let sh = carried * spec.map_output_ratio;
                let out = sh * spec.reduce_output_ratio;
                assert!(
                    (sh - shuffle).abs() / shuffle < 1e-9,
                    "{}: shuffle {sh} vs {shuffle}",
                    spec.name
                );
                assert!(
                    (out - output).abs() / output < 1e-9,
                    "{}: out {out} vs {output}",
                    spec.name
                );
                carried = out;
            }
        }
    }

    #[test]
    fn lowered_chain_shape() {
        let chain = diamond().lower();
        assert_eq!(chain.len(), 4);
        assert!(
            matches!(chain[0].input, InputSpec::DfsFile { ref name, bytes }
            if name == "diamond-input" && bytes == 10 * GIB)
        );
        for s in &chain[1..] {
            assert_eq!(s.input, InputSpec::Chained);
        }
        assert_eq!(chain[3].name, "diamond-join");
    }

    #[test]
    fn map_only_stages_lower() {
        let d = DagSpec::new("mo", "mo-in", GIB)
            .stage(DagStage::new("scan", &[], 0.0, 0.5, 0))
            .stage(DagStage::new("agg", &[0], 1.0, 0.01, 2));
        let chain = d.lower();
        assert_eq!(chain[0].reduces, 0);
        assert!((chain[0].map_output_ratio - 0.5).abs() < 1e-12);
        // agg's shuffle = 0.5 GiB · 1.0, against carried 0.5 GiB → ratio 1.
        assert!((chain[1].map_output_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_follows_dag_edges_not_the_chain() {
        let d = diamond();
        // Hypothetical parallel-stage timings: filter is the long arm.
        let times = [(0, 100), (100, 500), (100, 150), (500, 600)];
        let cp = d.critical_path(&times);
        assert_eq!(cp.nodes, vec![0, 1, 3]); // scan → filter → join
        assert_eq!(cp.length_ns, 600);
        let nodes = d.cp_nodes(&times);
        assert_eq!(nodes[3].label, "diamond-join");
        assert_eq!(nodes[3].deps, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "not an earlier stage")]
    fn forward_deps_rejected() {
        let _ = DagSpec::new("bad", "f", GIB).stage(DagStage::new("s", &[0], 1.0, 1.0, 1));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_deps_rejected() {
        let _ = DagSpec::new("bad", "f", GIB)
            .stage(DagStage::new("a", &[], 1.0, 1.0, 1))
            .stage(DagStage::new("b", &[0, 0], 1.0, 1.0, 1));
    }
}
