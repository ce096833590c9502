//! Job and task lifecycle bookkeeping: the Application-Master +
//! Resource-Manager responsibilities the cluster engine delegates.
//!
//! [`JobManager`] owns every submitted job, hands out task assignments
//! under weighted fair sharing with data-locality preference, registers
//! map outputs for the shuffle, and advances sequential workflows (Hive
//! queries are chains of MapReduce jobs whose stage *n+1* reads stage
//! *n*'s DFS output).
//!
//! Scheduling rules (see DESIGN.md §ablations for knobs):
//!
//! * Slot grant: most underserved job by `running / cpu_weight`
//!   ([`crate::fair::FairScheduler`]), respecting each job's optional
//!   `max_slots` pin.
//! * Within a job: node-local map → eligible reduce → remote map. Reduces
//!   become eligible after the slowstart fraction of maps completes.
//! * Memory-deadlock guard: while a job still has maps to run, a reduce is
//!   only placed if the node retains at least one map task's memory of
//!   headroom, so reduce tasks (8 GB each) can never starve the map phase
//!   of memory.

use crate::fair::{FairScheduler, ShareEntry};
use crate::plan::{plan_map_task, plan_reduce_task, TaskPlan};
use crate::shuffle::{MapOutput, ShuffleTracker};
use crate::spec::{InputSpec, JobSpec};
use ibis_core::AppId;
use ibis_dfs::{BlockInfo, NodeId};
use ibis_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Identifier of a submitted job; numerically equal to the IBIS
/// application id its I/Os are tagged with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

impl JobId {
    /// The IBIS application id for this job's I/O tagging.
    pub fn app(self) -> AppId {
        AppId(self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Map or reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

/// A task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskRef {
    /// Owning job.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Index within the job's maps or reduces.
    pub index: u32,
}

/// A granted slot: the task, where it runs, its step plan, and the memory
/// it occupies.
#[derive(Debug, Clone)]
pub struct TaskAssignment {
    /// The task.
    pub task: TaskRef,
    /// The node it was placed on.
    pub node: NodeId,
    /// The steps to execute.
    pub plan: TaskPlan,
    /// Memory the slot holds for the task's lifetime.
    pub memory: u64,
}

/// Lifecycle notifications returned by [`JobManager::on_task_finished`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// All of a job's maps completed.
    MapsFinished(JobId),
    /// A job fully completed.
    JobFinished(JobId),
    /// A workflow advanced: the next stage was submitted.
    StageSubmitted {
        /// The new stage's job id.
        job: JobId,
        /// The finished predecessor.
        after: JobId,
    },
}

/// Per-job runtime state.
#[derive(Debug, Clone)]
pub struct JobRuntime {
    /// The job's id.
    pub id: JobId,
    /// The spec it was submitted with.
    pub spec: JobSpec,
    /// Resolved input blocks (empty for generator jobs).
    pub input_blocks: Vec<BlockInfo>,
    /// Total resolved input bytes.
    pub input_bytes: u64,
    maps_total: u32,
    maps_done: u32,
    maps_running: u32,
    /// Unassigned map indices (lazy-deleted via `map_assigned`).
    pending_maps: Vec<u32>,
    map_assigned: Vec<bool>,
    /// Count of `false` entries in `map_assigned` — every unassigned index
    /// is always present in `pending_maps` (grants only remove entries by
    /// assigning them; aborts re-push), so this counter answers
    /// "any pending map?" without scanning the lazy-deleted queue.
    maps_unassigned: u32,
    /// node → map indices with a local replica.
    local_index: HashMap<NodeId, Vec<u32>>,
    reduces_done: u32,
    reduces_running: u32,
    pending_reduces: Vec<u32>,
    /// node of each running or finished map (for shuffle registration).
    task_nodes: HashMap<(TaskKind, u32), NodeId>,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// When the last map finished.
    pub maps_finished_at: Option<SimTime>,
    /// When the job completed.
    pub finished_at: Option<SimTime>,
    /// DFS blocks this job's reduces (or map-only outputs) allocated.
    pub output_blocks: Vec<BlockInfo>,
    workflow: Option<usize>,
}

impl JobRuntime {
    /// Concurrently running tasks.
    pub fn running(&self) -> u32 {
        self.maps_running + self.reduces_running
    }

    /// True once every map and reduce has completed.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Completed maps / total maps.
    pub fn maps_done(&self) -> u32 {
        self.maps_done
    }

    /// Total map tasks.
    pub fn maps_total(&self) -> u32 {
        self.maps_total
    }

    /// True when reduces may be launched (slowstart reached).
    fn reduces_eligible(&self) -> bool {
        if self.spec.reduces == 0 {
            return false;
        }
        let needed = (self.spec.reduce_slowstart * self.maps_total as f64).ceil() as u32;
        self.maps_done >= needed.min(self.maps_total)
    }

    fn has_pending_map(&self) -> bool {
        self.maps_unassigned > 0
    }

    /// True while the job still has any unplaced work — the membership
    /// predicate of [`JobManager`]'s assignment index. Deliberately a
    /// superset of "would pass the candidate filters" (it ignores
    /// `max_slots` and reduce slow-start, which flip back and forth): a
    /// job leaves the index only when every map is assigned and every
    /// reduce popped, which is irreversible short of a task abort.
    fn has_unplaced_work(&self) -> bool {
        self.has_pending_map() || !self.pending_reduces.is_empty()
    }

    fn maps_outstanding(&self) -> bool {
        self.maps_done < self.maps_total
    }

    /// End-to-end runtime, once finished.
    pub fn runtime(&self) -> Option<SimDuration> {
        self.finished_at.map(|f| f - self.submitted_at)
    }

    /// Duration of the map phase (submission → last map completion).
    pub fn map_phase(&self) -> Option<SimDuration> {
        self.maps_finished_at.map(|m| m - self.submitted_at)
    }

    /// Duration from last map completion to job completion (the
    /// reduce-tail the paper's stacked bars show).
    pub fn reduce_phase(&self) -> Option<SimDuration> {
        match (self.maps_finished_at, self.finished_at) {
            (Some(m), Some(f)) => Some(f - m),
            _ => None,
        }
    }
}

/// A sequential multi-job workflow (a Hive query).
#[derive(Debug, Clone)]
struct WorkflowState {
    name: String,
    /// Remaining stages, front = next.
    remaining: Vec<JobSpec>,
    /// Completion time of the final stage.
    finished_at: Option<SimTime>,
    started_at: SimTime,
    /// Job ids of submitted stages, in order.
    stages_submitted: Vec<JobId>,
}

/// The job manager. See the module docs.
pub struct JobManager {
    jobs: BTreeMap<JobId, JobRuntime>,
    /// Jobs with unplaced work ([`JobRuntime::has_unplaced_work`]): the
    /// assignment path iterates this instead of every job ever submitted,
    /// which is what keeps per-completion scheduling O(live work) rather
    /// than O(total jobs) on thousand-node, thousand-job runs. Sorted so
    /// candidate order matches `jobs`' ascending-id iteration exactly —
    /// `FairScheduler::pick` is order-insensitive, but identical order
    /// makes the equivalence unconditional.
    work_index: BTreeSet<JobId>,
    /// The fair-share candidate set of the current assignment pass
    /// ([`JobManager::build_candidates`]). Node-independent, so one build
    /// serves every node of a sweep; rebuilt after every placement.
    candidates: Vec<ShareEntry>,
    /// Per-node working copy of `candidates` that the pick loop shrinks.
    attempt: Vec<ShareEntry>,
    next_id: u32,
    /// Map-output registry for the shuffle phase.
    pub shuffle: ShuffleTracker,
    workflows: Vec<WorkflowState>,
    /// Interposed request chunk size used in plans.
    chunk: u64,
    /// Rack topology for replica choice (`0` = no rack awareness — plans
    /// are byte-identical to a rack-less manager).
    rack_size: u32,
}

impl JobManager {
    /// Creates a manager; `chunk` is the interposed I/O request size used
    /// for all task plans.
    pub fn new(chunk: u64) -> Self {
        assert!(chunk > 0);
        JobManager {
            jobs: BTreeMap::new(),
            work_index: BTreeSet::new(),
            candidates: Vec::new(),
            attempt: Vec::new(),
            next_id: 1,
            shuffle: ShuffleTracker::new(),
            workflows: Vec::new(),
            chunk,
            rack_size: 0,
        }
    }

    /// Sets the rack topology (node *n* ∈ rack *n / rack_size*): remote
    /// map reads then prefer a replica on the reader's rack. `0` disables.
    pub fn set_rack_size(&mut self, rack_size: u32) {
        self.rack_size = rack_size;
    }

    /// Submits a job. `input_blocks` must already be resolved against the
    /// namenode (empty for generator jobs).
    pub fn submit(&mut self, spec: JobSpec, input_blocks: Vec<BlockInfo>, now: SimTime) -> JobId {
        self.submit_internal(spec, input_blocks, now, None)
    }

    fn submit_internal(
        &mut self,
        spec: JobSpec,
        input_blocks: Vec<BlockInfo>,
        now: SimTime,
        workflow: Option<usize>,
    ) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let maps_total = match spec.input {
            InputSpec::None { maps } => maps,
            _ => input_blocks.len() as u32,
        };
        assert!(maps_total > 0, "job {} has no map tasks", spec.name);
        let input_bytes: u64 = input_blocks.iter().map(|b| b.bytes).sum();
        let mut local_index: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (i, b) in input_blocks.iter().enumerate() {
            for &r in &b.replicas {
                local_index.entry(r).or_default().push(i as u32);
            }
        }
        let rt = JobRuntime {
            id,
            maps_total,
            maps_done: 0,
            maps_running: 0,
            pending_maps: (0..maps_total).collect(),
            map_assigned: vec![false; maps_total as usize],
            maps_unassigned: maps_total,
            local_index,
            reduces_done: 0,
            reduces_running: 0,
            pending_reduces: (0..spec.reduces).rev().collect(),
            task_nodes: HashMap::new(),
            submitted_at: now,
            maps_finished_at: None,
            finished_at: None,
            output_blocks: Vec::new(),
            input_bytes,
            input_blocks,
            workflow,
            spec,
        };
        self.jobs.insert(id, rt);
        // maps_total > 0, so a fresh job always has unplaced work.
        self.work_index.insert(id);
        id
    }

    /// Re-derives `id`'s membership in the assignment index after a
    /// mutation that may have placed its last task or handed work back.
    fn reindex(&mut self, id: JobId) {
        let has_work = self
            .jobs
            .get(&id)
            .is_some_and(JobRuntime::has_unplaced_work);
        if has_work {
            self.work_index.insert(id);
        } else {
            self.work_index.remove(&id);
        }
    }

    /// Submits a workflow: stage 0 starts now with `first_input`; each
    /// later stage starts when its predecessor finishes, reading the
    /// predecessor's output blocks. Returns the first stage's job id.
    pub fn submit_workflow(
        &mut self,
        name: &str,
        mut stages: Vec<JobSpec>,
        first_input: Vec<BlockInfo>,
        now: SimTime,
    ) -> JobId {
        assert!(!stages.is_empty(), "workflow {name} has no stages");
        let first = stages.remove(0);
        let wf_idx = self.workflows.len();
        self.workflows.push(WorkflowState {
            name: name.to_string(),
            remaining: stages,
            finished_at: None,
            started_at: now,
            stages_submitted: Vec::new(),
        });
        let id = self.submit_internal(first, first_input, now, Some(wf_idx));
        self.workflows[wf_idx].stages_submitted.push(id);
        id
    }

    /// The runtime record for a job.
    pub fn job(&self, id: JobId) -> Option<&JobRuntime> {
        self.jobs.get(&id)
    }

    /// Iterates all jobs in submission order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRuntime> {
        self.jobs.values()
    }

    /// True once every job (including unsubmitted workflow stages) is done.
    pub fn all_done(&self) -> bool {
        self.jobs.values().all(JobRuntime::is_done)
            && self.workflows.iter().all(|w| w.remaining.is_empty())
    }

    /// End-to-end runtime of the workflow that contains `first_stage`,
    /// once complete.
    pub fn workflow_runtime(&self, first_stage: JobId) -> Option<SimDuration> {
        let wf = self
            .workflows
            .iter()
            .find(|w| w.stages_submitted.first() == Some(&first_stage))?;
        wf.finished_at.map(|f| f - wf.started_at)
    }

    /// Name of the workflow containing `first_stage` (diagnostics).
    pub fn workflow_name(&self, first_stage: JobId) -> Option<&str> {
        self.workflows
            .iter()
            .find(|w| w.stages_submitted.first() == Some(&first_stage))
            .map(|w| w.name.as_str())
    }

    /// Records an output block allocated by one of `job`'s tasks (the
    /// engine calls this from the HDFS write path).
    pub fn add_output_block(&mut self, job: JobId, block: BlockInfo) {
        if let Some(rt) = self.jobs.get_mut(&job) {
            rt.output_blocks.push(block);
        }
    }

    fn stream_base(task: &TaskRef) -> u64 {
        let kind_bit = match task.kind {
            TaskKind::Map => 0u64,
            TaskKind::Reduce => 1u64,
        };
        ((task.job.0 as u64) << 40) | (kind_bit << 39) | ((task.index as u64) << 4)
    }

    /// Tries to place one task on `node`, which currently has `free_mem`
    /// bytes of container memory available. Returns `None` when no
    /// eligible task fits.
    ///
    /// Equivalent to [`JobManager::try_assign_constrained`] with remote
    /// maps allowed.
    pub fn try_assign(&mut self, node: NodeId, free_mem: u64) -> Option<TaskAssignment> {
        self.try_assign_constrained(node, free_mem, true)
    }

    /// Like [`JobManager::try_assign`], but with `allow_remote = false`
    /// only node-local maps (and reduces) are considered. The engine runs
    /// a local-only pass across all nodes before allowing remote maps —
    /// a stand-in for Hadoop's delay scheduling, which achieves near-total
    /// data locality on the paper's testbed.
    ///
    /// One call is [`JobManager::build_candidates`] followed by
    /// [`JobManager::try_assign_prepared`].
    pub fn try_assign_constrained(
        &mut self,
        node: NodeId,
        free_mem: u64,
        allow_remote: bool,
    ) -> Option<TaskAssignment> {
        self.build_candidates();
        self.try_assign_prepared(node, free_mem, allow_remote)
    }

    /// Jobs with any eligible pending work, by fairness. Memory fit is
    /// deliberately NOT a filter here: if the most underserved job's task
    /// does not fit the node's free memory, the node is *reserved* for it
    /// (no other job may grab the slot) — YARN's reserved-container
    /// mechanism, without which an 8 GB reduce never finds a hole between
    /// a competitor's stream of 2 GB maps. Nothing here depends on the
    /// node, which is what lets one set serve a whole sweep.
    fn eligible(&self) -> impl Iterator<Item = ShareEntry> + '_ {
        self.work_index
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| !j.is_done())
            .filter(|j| j.spec.max_slots.is_none_or(|cap| j.running() < cap))
            .filter(|j| {
                let has_map = j.has_pending_map();
                let has_reduce = j.reduces_eligible() && !j.pending_reduces.is_empty();
                has_map || has_reduce
            })
            .map(|j| ShareEntry {
                job: j.id,
                cpu_weight: j.spec.cpu_weight,
                running: j.running(),
            })
    }

    /// Rebuilds the fair-share candidate set for an assignment pass and
    /// returns whether it is non-empty. An empty set means no node can be
    /// given anything, so a sweep can stop before visiting any node.
    ///
    /// The set stays valid until the manager next changes state; a
    /// placement through [`JobManager::try_assign_prepared`] rebuilds it
    /// itself, and any other change (a finished or aborted task, a new
    /// job) needs a fresh call before the next attempt.
    pub fn build_candidates(&mut self) -> bool {
        let mut set = std::mem::take(&mut self.candidates);
        set.clear();
        set.extend(self.eligible());
        self.candidates = set;
        !self.candidates.is_empty()
    }

    /// Tries to place one task on `node` from the set the last
    /// [`JobManager::build_candidates`] produced: the same fair pick,
    /// memory reservation and locality fallback as
    /// [`JobManager::try_assign_constrained`], without rebuilding the set
    /// for every node. On success the set is rebuilt from scratch, never
    /// patched, so the next attempt sees the placement.
    pub fn try_assign_prepared(
        &mut self,
        node: NodeId,
        free_mem: u64,
        allow_remote: bool,
    ) -> Option<TaskAssignment> {
        debug_assert!(
            self.eligible().eq(self.candidates.iter().copied()),
            "candidate set is stale: rebuild it after changing the manager"
        );
        self.attempt.clear();
        self.attempt.extend_from_slice(&self.candidates);
        while let Some(job_id) = FairScheduler::pick(&self.attempt) {
            if let Some(assignment) = self.try_assign_from(job_id, node, free_mem, allow_remote) {
                self.reindex(job_id);
                self.build_candidates();
                return Some(assignment);
            }
            // The fairest job could not be placed. If it was memory that
            // blocked it, reserve the node (give nothing to anyone) so the
            // freed memory can accumulate; if it was locality (no local map
            // during the local-only pass), let the next job try.
            if self.blocked_on_memory(job_id, free_mem, allow_remote) {
                return None;
            }
            self.attempt.retain(|e| e.job != job_id);
        }
        None
    }

    /// True when `job` has eligible pending work on this pass that failed
    /// to place purely because the node's free memory is too small.
    fn blocked_on_memory(&self, job_id: JobId, free_mem: u64, allow_remote: bool) -> bool {
        let Some(rt) = self.jobs.get(&job_id) else {
            return false;
        };
        let reduce_headroom = if rt.maps_outstanding() {
            rt.spec.reduce_memory + rt.spec.map_memory
        } else {
            rt.spec.reduce_memory
        };
        let reduce_wants = rt.reduces_eligible() && !rt.pending_reduces.is_empty();
        if reduce_wants && free_mem < reduce_headroom {
            return true;
        }
        let map_wants = allow_remote && rt.has_pending_map();
        if map_wants && free_mem < rt.spec.map_memory {
            return true;
        }
        false
    }

    fn try_assign_from(
        &mut self,
        job_id: JobId,
        node: NodeId,
        free_mem: u64,
        allow_remote: bool,
    ) -> Option<TaskAssignment> {
        let chunk = self.chunk;
        let rt = self.jobs.get_mut(&job_id)?;

        let rack_size = self.rack_size;

        // 1. node-local map
        if free_mem >= rt.spec.map_memory {
            let local = rt.local_index.get_mut(&node).and_then(|v| loop {
                let i = v.pop()?;
                if !rt.map_assigned[i as usize] {
                    break Some(i);
                }
            });
            if let Some(i) = local {
                return Some(Self::grant_map(rt, node, i, chunk, rack_size));
            }
        }

        // 2. eligible reduce, with the map-memory headroom guard
        let reduce_headroom = if rt.maps_outstanding() {
            rt.spec.reduce_memory + rt.spec.map_memory
        } else {
            rt.spec.reduce_memory
        };
        if rt.reduces_eligible() && free_mem >= reduce_headroom {
            if let Some(i) = rt.pending_reduces.pop() {
                rt.reduces_running += 1;
                let task = TaskRef {
                    job: rt.id,
                    kind: TaskKind::Reduce,
                    index: i,
                };
                rt.task_nodes.insert((TaskKind::Reduce, i), node);
                let plan = plan_reduce_task(
                    &rt.spec,
                    rt.effective_input_bytes(),
                    Self::stream_base(&task),
                    chunk,
                );
                return Some(TaskAssignment {
                    task,
                    node,
                    plan,
                    memory: rt.spec.reduce_memory,
                });
            }
        }

        // 3. any remaining map (rack-remote read). Generator jobs have no
        // input blocks and are placement-indifferent, so they never wait
        // for the remote pass.
        let placement_free = rt.input_blocks.is_empty();
        if (allow_remote || placement_free) && free_mem >= rt.spec.map_memory {
            let i = loop {
                let i = rt.pending_maps.pop()?;
                if !rt.map_assigned[i as usize] {
                    break i;
                }
            };
            return Some(Self::grant_map(rt, node, i, chunk, rack_size));
        }
        None
    }

    fn grant_map(
        rt: &mut JobRuntime,
        node: NodeId,
        index: u32,
        chunk: u64,
        rack_size: u32,
    ) -> TaskAssignment {
        rt.map_assigned[index as usize] = true;
        rt.maps_unassigned -= 1;
        rt.maps_running += 1;
        rt.task_nodes.insert((TaskKind::Map, index), node);
        let task = TaskRef {
            job: rt.id,
            kind: TaskKind::Map,
            index,
        };
        let block = rt.input_blocks.get(index as usize);
        let plan = plan_map_task(
            &rt.spec,
            node,
            block,
            index,
            Self::stream_base(&task),
            chunk,
            rack_size,
        );
        TaskAssignment {
            task,
            node,
            plan,
            memory: rt.spec.map_memory,
        }
    }

    /// Returns an aborted task (node crash) to the pending pool so it can
    /// be re-assigned. Maps regain their locality entries for every
    /// replica of their input block; reduces simply re-queue. Any partial
    /// output is discarded by the caller — the re-run starts from scratch,
    /// as a failed YARN container would.
    pub fn on_task_aborted(&mut self, task: TaskRef) {
        let Some(rt) = self.jobs.get_mut(&task.job) else {
            return;
        };
        rt.task_nodes.remove(&(task.kind, task.index));
        match task.kind {
            TaskKind::Map => {
                debug_assert!(rt.map_assigned[task.index as usize]);
                rt.maps_running -= 1;
                rt.map_assigned[task.index as usize] = false;
                rt.maps_unassigned += 1;
                rt.pending_maps.push(task.index);
                if let Some(b) = rt.input_blocks.get(task.index as usize) {
                    for &r in &b.replicas {
                        rt.local_index.entry(r).or_default().push(task.index);
                    }
                }
            }
            TaskKind::Reduce => {
                rt.reduces_running -= 1;
                rt.pending_reduces.push(task.index);
            }
        }
        self.reindex(task.job);
    }

    /// Marks a task complete, registers shuffle output, advances workflow
    /// stages, and reports lifecycle events.
    pub fn on_task_finished(&mut self, task: TaskRef, now: SimTime) -> Vec<JobEvent> {
        let mut events = Vec::new();
        let Some(rt) = self.jobs.get_mut(&task.job) else {
            return events;
        };
        match task.kind {
            TaskKind::Map => {
                rt.maps_running -= 1;
                rt.maps_done += 1;
                if rt.spec.reduces > 0 {
                    let map_input = rt
                        .input_blocks
                        .get(task.index as usize)
                        .map_or(rt.spec.gen_bytes_per_map, |b| b.bytes);
                    let out = (map_input as f64 * rt.spec.map_output_ratio) as u64;
                    let node = rt.task_nodes[&(TaskKind::Map, task.index)];
                    self.shuffle.register(
                        task.job,
                        MapOutput {
                            map_task: task.index,
                            node,
                            bytes_per_reduce: out / rt.spec.reduces as u64,
                        },
                    );
                }
                if rt.maps_done == rt.maps_total {
                    rt.maps_finished_at = Some(now);
                    events.push(JobEvent::MapsFinished(task.job));
                }
            }
            TaskKind::Reduce => {
                rt.reduces_running -= 1;
                rt.reduces_done += 1;
            }
        }
        let done = rt.maps_done == rt.maps_total && rt.reduces_done == rt.spec.reduces;
        if done && rt.finished_at.is_none() {
            rt.finished_at = Some(now);
            events.push(JobEvent::JobFinished(task.job));
            self.shuffle.retire(task.job);
            // Advance the workflow, if any.
            if let Some(wf_idx) = rt.workflow {
                let output = rt.output_blocks.clone();
                let wf = &mut self.workflows[wf_idx];
                if wf.remaining.is_empty() {
                    wf.finished_at = Some(now);
                } else {
                    let next_spec = wf.remaining.remove(0);
                    let next = self.submit_internal(next_spec, output, now, Some(wf_idx));
                    self.workflows[wf_idx].stages_submitted.push(next);
                    events.push(JobEvent::StageSubmitted {
                        job: next,
                        after: task.job,
                    });
                }
            }
        }
        events
    }
}

impl JobRuntime {
    /// Input volume driving shuffle sizing: real input bytes, or the
    /// generated volume for generator jobs.
    pub fn effective_input_bytes(&self) -> u64 {
        if self.input_bytes > 0 {
            self.input_bytes
        } else {
            self.maps_total as u64 * self.spec.gen_bytes_per_map
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_dfs::{BlockId, NodeId};
    use ibis_simcore::units::{GIB, MIB};

    const NODE_MEM: u64 = 24 * GIB;

    fn blocks(n: u32, primary: impl Fn(u32) -> u32) -> Vec<BlockInfo> {
        (0..n)
            .map(|i| BlockInfo {
                id: BlockId(i as u64),
                bytes: 128 * MIB,
                replicas: vec![
                    NodeId(primary(i)),
                    NodeId((primary(i) + 1) % 8),
                    NodeId((primary(i) + 2) % 8),
                ],
            })
            .collect()
    }

    fn simple_spec(reduces: u32) -> JobSpec {
        JobSpec {
            reduces,
            input: InputSpec::DfsFile {
                name: "in".into(),
                bytes: 0,
            },
            ..JobSpec::named("t")
        }
    }

    #[test]
    fn submit_counts_maps_from_blocks() {
        let mut jm = JobManager::new(4 * MIB);
        let id = jm.submit(simple_spec(2), blocks(10, |i| i % 8), SimTime::ZERO);
        let rt = jm.job(id).unwrap();
        assert_eq!(rt.maps_total(), 10);
        assert_eq!(rt.input_bytes, 10 * 128 * MIB);
    }

    #[test]
    fn locality_preferred() {
        let mut jm = JobManager::new(4 * MIB);
        // all blocks primary on node 3
        let id = jm.submit(simple_spec(0), blocks(4, |_| 3), SimTime::ZERO);
        let a = jm.try_assign(NodeId(3), NODE_MEM).unwrap();
        assert_eq!(a.task.job, id);
        assert_eq!(a.task.kind, TaskKind::Map);
        // the plan must contain no remote reads
        assert!(
            !a.plan
                .steps
                .iter()
                .any(|s| matches!(s, crate::plan::Step::RemoteRead { .. })),
            "local assignment read remotely"
        );
    }

    #[test]
    fn remote_map_when_no_local_blocks() {
        let mut jm = JobManager::new(4 * MIB);
        // replicas on nodes 0,1,2 only; assign on node 7
        jm.submit(simple_spec(0), blocks(2, |_| 0), SimTime::ZERO);
        let a = jm.try_assign(NodeId(7), NODE_MEM).unwrap();
        assert!(a
            .plan
            .steps
            .iter()
            .any(|s| matches!(s, crate::plan::Step::RemoteRead { .. })));
    }

    #[test]
    fn fair_sharing_alternates_between_equal_jobs() {
        let mut jm = JobManager::new(4 * MIB);
        let j1 = jm.submit(simple_spec(0), blocks(20, |i| i % 8), SimTime::ZERO);
        let j2 = jm.submit(simple_spec(0), blocks(20, |i| i % 8), SimTime::ZERO);
        let mut counts = HashMap::new();
        for n in 0..8 {
            let a = jm.try_assign(NodeId(n), NODE_MEM).unwrap();
            *counts.entry(a.task.job).or_insert(0) += 1;
            let b = jm.try_assign(NodeId(n), NODE_MEM).unwrap();
            *counts.entry(b.task.job).or_insert(0) += 1;
        }
        assert_eq!(counts[&j1], 8);
        assert_eq!(counts[&j2], 8);
    }

    #[test]
    fn cpu_weights_skew_slot_allocation() {
        let mut jm = JobManager::new(4 * MIB);
        let heavy = jm.submit(
            JobSpec {
                cpu_weight: 5.0,
                ..simple_spec(0)
            },
            blocks(60, |i| i % 8),
            SimTime::ZERO,
        );
        let light = jm.submit(simple_spec(0), blocks(60, |i| i % 8), SimTime::ZERO);
        let mut counts = HashMap::new();
        for k in 0..48 {
            let a = jm.try_assign(NodeId(k % 8), NODE_MEM).unwrap();
            *counts.entry(a.task.job).or_insert(0u32) += 1;
        }
        assert_eq!(counts[&heavy], 40);
        assert_eq!(counts[&light], 8);
    }

    #[test]
    fn max_slots_caps_job() {
        let mut jm = JobManager::new(4 * MIB);
        let capped = jm.submit(
            JobSpec {
                max_slots: Some(3),
                ..simple_spec(0)
            },
            blocks(20, |i| i % 8),
            SimTime::ZERO,
        );
        for _ in 0..3 {
            let a = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
            assert_eq!(a.task.job, capped);
        }
        assert!(jm.try_assign(NodeId(0), NODE_MEM).is_none());
    }

    #[test]
    fn reduces_wait_for_slowstart() {
        let mut jm = JobManager::new(4 * MIB);
        let spec = JobSpec {
            reduce_slowstart: 0.5,
            ..simple_spec(4)
        };
        let id = jm.submit(spec, blocks(4, |i| i % 8), SimTime::ZERO);
        // Assign and finish 1 of 4 maps (25 % < 50 % slowstart).
        let a = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        assert_eq!(a.task.kind, TaskKind::Map);
        jm.on_task_finished(a.task, SimTime::from_secs(1));
        // Exhaust remaining maps.
        let mut kinds = Vec::new();
        while let Some(x) = jm.try_assign(NodeId(1), NODE_MEM) {
            kinds.push((x.task.kind, x.task));
            if kinds.len() > 10 {
                break;
            }
        }
        // 3 maps remain; no reduce yet (slowstart unmet).
        assert_eq!(kinds.iter().filter(|(k, _)| *k == TaskKind::Map).count(), 3);
        assert_eq!(
            kinds.iter().filter(|(k, _)| *k == TaskKind::Reduce).count(),
            0
        );
        // Finish the maps → reduces become eligible.
        for (_, t) in kinds {
            jm.on_task_finished(t, SimTime::from_secs(2));
        }
        let a = jm.try_assign(NodeId(2), NODE_MEM).unwrap();
        assert_eq!(a.task.kind, TaskKind::Reduce);
        let _ = id;
    }

    #[test]
    fn reduce_headroom_guard_blocks_tight_memory() {
        let mut jm = JobManager::new(4 * MIB);
        let spec = JobSpec {
            reduce_slowstart: 0.0,
            ..simple_spec(4)
        };
        // All replicas live on nodes 0..2, so nodes 5+ have no local maps
        // and the map-vs-reduce choice is down to the headroom guard.
        jm.submit(spec, blocks(8, |_| 0), SimTime::ZERO);
        // Finish one map so reduces are eligible (slowstart 0 needs 0).
        let a = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        jm.on_task_finished(a.task, SimTime::from_secs(1));
        // 9 GiB free: reduce (8 GiB) would fit, but the guard demands
        // 8 + 2 = 10 GiB while maps are outstanding → must get a (remote)
        // map instead.
        let a = jm.try_assign(NodeId(5), 9 * GIB).unwrap();
        assert_eq!(a.task.kind, TaskKind::Map);
        // 10 GiB free → reduce is allowed.
        let a = jm.try_assign(NodeId(5), 10 * GIB).unwrap();
        assert_eq!(a.task.kind, TaskKind::Reduce);
    }

    #[test]
    fn map_finish_registers_shuffle_output() {
        let mut jm = JobManager::new(4 * MIB);
        let spec = JobSpec {
            map_output_ratio: 0.5,
            ..simple_spec(4)
        };
        let id = jm.submit(spec, blocks(2, |_| 0), SimTime::ZERO);
        let a = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        jm.on_task_finished(a.task, SimTime::from_secs(1));
        assert_eq!(jm.shuffle.available(id), 1);
        let out = jm.shuffle.outputs(id)[0];
        assert_eq!(out.node, NodeId(0));
        assert_eq!(out.bytes_per_reduce, (128 * MIB) / 2 / 4);
    }

    #[test]
    fn job_lifecycle_events() {
        let mut jm = JobManager::new(4 * MIB);
        let id = jm.submit(simple_spec(1), blocks(1, |_| 0), SimTime::ZERO);
        let m = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        let ev = jm.on_task_finished(m.task, SimTime::from_secs(1));
        assert_eq!(ev, vec![JobEvent::MapsFinished(id)]);
        let r = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        assert_eq!(r.task.kind, TaskKind::Reduce);
        let ev = jm.on_task_finished(r.task, SimTime::from_secs(2));
        assert_eq!(ev, vec![JobEvent::JobFinished(id)]);
        let rt = jm.job(id).unwrap();
        assert!(rt.is_done());
        assert_eq!(rt.runtime(), Some(SimDuration::from_secs(2)));
        assert_eq!(rt.map_phase(), Some(SimDuration::from_secs(1)));
        assert_eq!(rt.reduce_phase(), Some(SimDuration::from_secs(1)));
        assert!(jm.all_done());
    }

    #[test]
    fn aborted_tasks_requeue_and_rerun() {
        let mut jm = JobManager::new(4 * MIB);
        let id = jm.submit(simple_spec(1), blocks(1, |_| 0), SimTime::ZERO);
        let m = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        assert_eq!(jm.job(id).unwrap().running(), 1);
        jm.on_task_aborted(m.task);
        assert_eq!(jm.job(id).unwrap().running(), 0);
        // The map is pending again and keeps its locality preference: a
        // local-only pass on a replica node can still place it.
        let m2 = jm
            .try_assign_constrained(NodeId(0), NODE_MEM, false)
            .unwrap();
        assert_eq!(m2.task, m.task);
        jm.on_task_finished(m2.task, SimTime::from_secs(1));
        let r = jm.try_assign(NodeId(1), NODE_MEM).unwrap();
        assert_eq!(r.task.kind, TaskKind::Reduce);
        jm.on_task_aborted(r.task);
        let r2 = jm.try_assign(NodeId(2), NODE_MEM).unwrap();
        assert_eq!(r2.task, r.task);
        jm.on_task_finished(r2.task, SimTime::from_secs(2));
        assert!(jm.all_done());
    }

    #[test]
    fn map_only_job_finishes_without_reduces() {
        let mut jm = JobManager::new(4 * MIB);
        let id = jm.submit(simple_spec(0), blocks(1, |_| 0), SimTime::ZERO);
        let m = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        let ev = jm.on_task_finished(m.task, SimTime::from_secs(1));
        assert!(ev.contains(&JobEvent::JobFinished(id)));
    }

    #[test]
    fn workflow_chains_stages_through_output_blocks() {
        let mut jm = JobManager::new(4 * MIB);
        let s1 = simple_spec(0);
        let s2 = JobSpec {
            input: InputSpec::Chained,
            ..simple_spec(0)
        };
        let first = jm.submit_workflow("q", vec![s1, s2], blocks(1, |_| 0), SimTime::ZERO);
        let m = jm.try_assign(NodeId(0), NODE_MEM).unwrap();
        // Pretend the task wrote an output block before finishing.
        jm.add_output_block(
            first,
            BlockInfo {
                id: BlockId(99),
                bytes: 64 * MIB,
                replicas: vec![NodeId(0), NodeId(1), NodeId(2)],
            },
        );
        let ev = jm.on_task_finished(m.task, SimTime::from_secs(1));
        let next = ev
            .iter()
            .find_map(|e| match e {
                JobEvent::StageSubmitted { job, after } => {
                    assert_eq!(*after, first);
                    Some(*job)
                }
                _ => None,
            })
            .expect("stage 2 submitted");
        let rt2 = jm.job(next).unwrap();
        assert_eq!(rt2.maps_total(), 1);
        assert_eq!(rt2.input_bytes, 64 * MIB);
        assert!(!jm.all_done());
        // Finish stage 2 → workflow complete.
        let m2 = jm.try_assign(NodeId(1), NODE_MEM).unwrap();
        jm.on_task_finished(m2.task, SimTime::from_secs(3));
        assert!(jm.all_done());
        assert_eq!(jm.workflow_runtime(first), Some(SimDuration::from_secs(3)));
        assert_eq!(jm.workflow_name(first), Some("q"));
    }

    #[test]
    fn generator_job_counts_maps_from_spec() {
        let mut jm = JobManager::new(4 * MIB);
        let id = jm.submit(
            JobSpec {
                input: InputSpec::None { maps: 16 },
                ..JobSpec::named("gen")
            },
            Vec::new(),
            SimTime::ZERO,
        );
        assert_eq!(jm.job(id).unwrap().maps_total(), 16);
        assert_eq!(jm.job(id).unwrap().effective_input_bytes(), 16 * 128 * MIB);
    }
}
