//! `assign_equivalence`: building the fair-share candidate set once per
//! sweep places exactly what building it once per node did.
//!
//! Two job managers receive the same random script of submissions
//! (DFS-input and generator jobs, memory-reserving reduces, `max_slots`
//! caps, slow-start reduces, two-stage workflows), task completions and
//! crash aborts. After each step both run the engine's assignment scan —
//! a node-local pass, then a remote pass, each sweeping every node until
//! a sweep places nothing. The reference calls `try_assign_constrained`
//! (a fresh candidate set) for every node; the other builds the set at
//! the top of each sweep with `build_candidates` and attempts nodes with
//! `try_assign_prepared`. The `(node, task, memory)` placement sequences
//! must be identical, and a sweep whose set is empty must visit no node.

use ibis_dfs::{BlockId, BlockInfo, NodeId};
use ibis_mapreduce::{InputSpec, JobManager, JobSpec, TaskAssignment, TaskRef};
use ibis_simcore::units::{GIB, MIB};
use ibis_simcore::SimTime;
use proptest::prelude::*;

const NODES: u32 = 6;
const CORES: u32 = 3;
const NODE_MEM: u64 = 16 * GIB;

/// A job to submit, in small integer parameters.
#[derive(Debug, Clone)]
struct JobParams {
    /// `false` = generator job (no input, placement-indifferent).
    dfs_input: bool,
    maps: u32,
    reduces: u32,
    /// `0` = uncapped.
    max_slots: u32,
    map_mem_gib: u64,
    reduce_mem_gib: u64,
    slowstart: f64,
    cpu_weight: u32,
    /// First replica node of block 0; later blocks rotate from here.
    primary: u32,
    /// Adds a second, generator stage that starts when this one finishes.
    workflow: bool,
}

#[derive(Debug, Clone)]
enum Op {
    Submit(JobParams),
    /// Finish the running task at this index (mod the running count).
    Finish(u32),
    /// Abort the running task at this index, as a node crash would.
    Abort(u32),
}

fn job_strategy() -> impl Strategy<Value = JobParams> {
    (
        (prop::bool::ANY, 1u32..8, 0u32..3, 0u32..4),
        (1u64..4, 1u64..12, 0.0f64..1.0, 1u32..4),
        (0u32..NODES, prop_oneof![4 => Just(false), 1 => Just(true)]),
    )
        .prop_map(
            |(
                (dfs_input, maps, reduces, max_slots),
                (map_mem_gib, reduce_mem_gib, slowstart, cpu_weight),
                (primary, workflow),
            )| JobParams {
                dfs_input,
                maps,
                reduces,
                max_slots,
                map_mem_gib,
                reduce_mem_gib,
                slowstart,
                cpu_weight,
                primary,
                workflow,
            },
        )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => job_strategy().prop_map(Op::Submit),
        6 => (0u32..64).prop_map(Op::Finish),
        1 => (0u32..64).prop_map(Op::Abort),
    ]
}

fn spec(p: &JobParams, name: &str) -> JobSpec {
    JobSpec {
        input: if p.dfs_input {
            InputSpec::DfsFile {
                name: name.into(),
                bytes: p.maps as u64 * 128 * MIB,
            }
        } else {
            InputSpec::None { maps: p.maps }
        },
        reduces: p.reduces,
        max_slots: (p.max_slots > 0).then_some(p.max_slots),
        map_memory: p.map_mem_gib * GIB,
        reduce_memory: p.reduce_mem_gib * GIB,
        reduce_slowstart: p.slowstart,
        cpu_weight: p.cpu_weight as f64,
        ..JobSpec::named(name)
    }
}

fn blocks(p: &JobParams, first_id: u64) -> Vec<BlockInfo> {
    if !p.dfs_input {
        return Vec::new();
    }
    (0..p.maps)
        .map(|i| BlockInfo {
            id: BlockId(first_id + i as u64),
            bytes: 128 * MIB,
            replicas: (0..2)
                .map(|r| NodeId((p.primary + i + r) % NODES))
                .collect(),
        })
        .collect()
}

/// One job manager plus the engine's per-node slot accounting.
struct Cluster {
    jm: JobManager,
    free_cores: Vec<u32>,
    free_mem: Vec<u64>,
    /// Running tasks in placement order: (task, node, memory).
    running: Vec<(TaskRef, usize, u64)>,
    /// Every placement made, in order.
    placed: Vec<(u32, TaskRef, u64)>,
    /// Per-node attempts made (only counted by the prepared scan).
    attempts: u64,
}

impl Cluster {
    fn new() -> Self {
        Cluster {
            jm: JobManager::new(4 * MIB),
            free_cores: vec![CORES; NODES as usize],
            free_mem: vec![NODE_MEM; NODES as usize],
            running: Vec::new(),
            placed: Vec::new(),
            attempts: 0,
        }
    }

    fn take(&mut self, n: usize, a: TaskAssignment) {
        self.free_cores[n] -= 1;
        self.free_mem[n] -= a.memory;
        self.running.push((a.task, n, a.memory));
        self.placed.push((n as u32, a.task, a.memory));
    }

    fn release(&mut self, idx: u32) -> Option<TaskRef> {
        if self.running.is_empty() {
            return None;
        }
        let (task, n, mem) = self.running.remove(idx as usize % self.running.len());
        self.free_cores[n] += 1;
        self.free_mem[n] += mem;
        Some(task)
    }

    /// The scan with one candidate build per node visit.
    fn scan_per_node(&mut self) {
        for allow_remote in [false, true] {
            loop {
                let mut progress = false;
                for n in 0..NODES as usize {
                    while self.free_cores[n] > 0 {
                        let Some(a) = self.jm.try_assign_constrained(
                            NodeId(n as u32),
                            self.free_mem[n],
                            allow_remote,
                        ) else {
                            break;
                        };
                        self.take(n, a);
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
        }
    }

    /// The engine's scan: one candidate build per sweep.
    fn scan_per_sweep(&mut self) {
        for allow_remote in [false, true] {
            loop {
                if !self.jm.build_candidates() {
                    break;
                }
                let mut progress = false;
                for n in 0..NODES as usize {
                    while self.free_cores[n] > 0 {
                        self.attempts += 1;
                        let Some(a) = self.jm.try_assign_prepared(
                            NodeId(n as u32),
                            self.free_mem[n],
                            allow_remote,
                        ) else {
                            break;
                        };
                        self.take(n, a);
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
        }
    }
}

/// Applies `op` to both clusters, then runs each one's scan.
fn step(old: &mut Cluster, new: &mut Cluster, op: &Op, k: usize, now: SimTime) {
    match op {
        Op::Submit(p) => {
            let name = format!("j{k}");
            for c in [&mut *old, &mut *new] {
                let input = blocks(p, k as u64 * 16);
                if p.workflow {
                    let next = spec(
                        &JobParams {
                            dfs_input: false,
                            ..p.clone()
                        },
                        &format!("{name}b"),
                    );
                    c.jm.submit_workflow(&name, vec![spec(p, &name), next], input, now);
                } else {
                    c.jm.submit(spec(p, &name), input, now);
                }
            }
        }
        Op::Finish(i) => {
            for c in [&mut *old, &mut *new] {
                if let Some(task) = c.release(*i) {
                    c.jm.on_task_finished(task, now);
                }
            }
        }
        Op::Abort(i) => {
            for c in [&mut *old, &mut *new] {
                if let Some(task) = c.release(*i) {
                    c.jm.on_task_aborted(task);
                }
            }
        }
    }
    old.scan_per_node();
    new.scan_per_sweep();
}

proptest! {
    #[test]
    fn per_sweep_candidates_place_like_per_node(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut old = Cluster::new();
        let mut new = Cluster::new();
        for (k, op) in ops.iter().enumerate() {
            step(&mut old, &mut new, op, k, SimTime::from_secs(k as u64));
            prop_assert_eq!(&old.placed, &new.placed, "diverged after op {} ({:?})", k, op);
        }
        // Drain: finish everything still running so every job completes
        // through the same path on both sides.
        let mut k = ops.len();
        while !old.running.is_empty() {
            step(&mut old, &mut new, &Op::Finish(0), k, SimTime::from_secs(k as u64));
            prop_assert_eq!(&old.placed, &new.placed, "diverged while draining");
            k += 1;
        }
        prop_assert!(new.jm.all_done());
        prop_assert!(!new.jm.build_candidates());
    }
}

#[test]
fn empty_candidate_set_visits_no_node() {
    let mut c = Cluster::new();
    // Nothing submitted: both passes stop before any node visit.
    c.scan_per_sweep();
    assert_eq!(c.attempts, 0);

    // A job whose only reduce waits on slow-start while every map runs:
    // the set is empty although every node still has a free core.
    let p = JobParams {
        dfs_input: false,
        maps: 2,
        reduces: 1,
        max_slots: 0,
        map_mem_gib: 2,
        reduce_mem_gib: 4,
        slowstart: 1.0,
        cpu_weight: 1,
        primary: 0,
        workflow: false,
    };
    c.jm.submit(spec(&p, "slow"), Vec::new(), SimTime::ZERO);
    c.scan_per_sweep();
    assert_eq!(c.placed.len(), 2, "both maps placed");
    let before = c.attempts;
    c.scan_per_sweep();
    assert_eq!(
        c.attempts, before,
        "a pass with nothing placeable attempted a node"
    );
    assert!(!c.jm.build_candidates());
}
