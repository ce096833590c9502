//! Task plans: the exact compute/I/O step sequence a scheduled task
//! executes.
//!
//! A task is modelled as a *closed loop*: it has one step in flight at a
//! time (Hadoop tasks issue synchronous stream I/O), and cluster-level I/O
//! concurrency comes from the many tasks running per node — which is also
//! how the paper's testbed saturates its storage. Chunking follows the
//! workspace convention (4 MiB interposed requests, `units::IO_CHUNK`).

use crate::spec::{InputSpec, JobSpec};
use ibis_core::{IoClass, IoKind};
use ibis_dfs::{BlockInfo, NodeId};
use ibis_simcore::units::{chunks, transfer_time};
use ibis_simcore::SimDuration;

/// One step of a task plan, executed by the cluster engine in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Hold the task's core for this long.
    Compute(SimDuration),
    /// One interposed I/O on the task's own node.
    DiskIo {
        /// Which interposed interface the request goes through.
        class: IoClass,
        /// Read or write.
        kind: IoKind,
        /// Request size.
        bytes: u64,
        /// Sequential-stream key.
        stream: u64,
    },
    /// Read a chunk whose replica lives on `source` (≠ task node): a
    /// persistent read at `source` plus a network transfer to the task.
    RemoteRead {
        /// Node holding the replica.
        source: NodeId,
        /// The HDFS block being read (raw [`BlockId`](ibis_dfs::BlockId)),
        /// so a crashed `source` can be failed over to another replica via
        /// the namenode.
        block: u64,
        /// Request size.
        bytes: u64,
        /// Sequential-stream key (scoped to `source`).
        stream: u64,
    },
    /// One chunk of an HDFS output write through the replication pipeline.
    /// When `new_block` is set, the engine asks the namenode for a fresh
    /// block (writer-local primary + remote replicas) before writing.
    HdfsWriteChunk {
        /// Chunk size.
        bytes: u64,
        /// Sequential-stream key.
        stream: u64,
        /// Allocate a new output block before this chunk.
        new_block: bool,
    },
    /// Pull this reduce task's partition from every map output as they
    /// become available (engine-managed via the shuffle tracker).
    ShuffleGather {
        /// Concurrent fetcher threads (Hadoop `parallelcopies`).
        fetchers: u32,
        /// Expected total shuffle bytes (reporting only).
        expected_bytes: u64,
    },
}

/// An ordered step list for one task.
#[derive(Debug, Clone, Default)]
pub struct TaskPlan {
    /// The steps, executed front to back.
    pub steps: Vec<Step>,
}

impl TaskPlan {
    /// Total compute time across all steps.
    pub fn total_compute(&self) -> SimDuration {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Compute(d) => *d,
                _ => SimDuration::ZERO,
            })
            .sum()
    }

    /// Bytes written to the given class.
    pub fn class_bytes(&self, want: IoClass, want_kind: IoKind) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::DiskIo {
                    class, kind, bytes, ..
                } if *class == want && *kind == want_kind => *bytes,
                Step::RemoteRead { bytes, .. }
                    if want == IoClass::Persistent && want_kind == IoKind::Read =>
                {
                    *bytes
                }
                Step::HdfsWriteChunk { bytes, .. }
                    if want == IoClass::Persistent && want_kind == IoKind::Write =>
                {
                    *bytes
                }
                _ => 0,
            })
            .sum()
    }
}

/// Stream-key layout within a task: `stream_base + OFFSET`.
const STREAM_INPUT: u64 = 0;
const STREAM_SPILL: u64 = 1;
const STREAM_MERGE: u64 = 2;
const STREAM_OUTPUT: u64 = 3;

/// Emits `total` bytes of I/O as chunked steps.
fn push_chunked(steps: &mut Vec<Step>, total: u64, chunk: u64, mk: impl Fn(u64) -> Step) {
    for part in chunks(total, chunk) {
        steps.push(mk(part));
    }
}

/// Builds the plan for map task `task_idx` of `spec`, scheduled on `node`,
/// reading `block` (None for generator jobs). `stream_base` must be unique
/// per task; `chunk` is the interposed request size. `rack_size` > 0 makes
/// remote reads prefer a replica on the reader's rack (node *n* ∈ rack
/// *n / rack_size*); `0` reproduces the rack-less plans exactly.
pub fn plan_map_task(
    spec: &JobSpec,
    node: NodeId,
    block: Option<&BlockInfo>,
    task_idx: u32,
    stream_base: u64,
    chunk: u64,
    rack_size: u32,
) -> TaskPlan {
    let mut steps = Vec::new();
    let input_bytes = match (&spec.input, block) {
        (InputSpec::None { .. }, _) => 0,
        (_, Some(b)) => b.bytes,
        (_, None) => 0,
    };

    // Pick the replica to read: the task's own node when local (the Fair
    // Scheduler tries to place us there), else spread deterministically
    // over the replicas by task index. With a rack topology, prefer the
    // replicas on the reader's rack — the transfer then stays inside the
    // rack switch instead of crossing the core.
    let source = block.map(|b| {
        if b.is_local_to(node) {
            return node;
        }
        if let Some(rack) = node.0.checked_div(rack_size) {
            let same = b
                .replicas
                .iter()
                .filter(|r| r.0 / rack_size == rack)
                .count();
            if same > 0 {
                return *b
                    .replicas
                    .iter()
                    .filter(|r| r.0 / rack_size == rack)
                    .nth(task_idx as usize % same)
                    .expect("counted above");
            }
        }
        b.replicas[task_idx as usize % b.replicas.len()]
    });

    let is_map_only = spec.reduces == 0;
    let gen_bytes = if matches!(spec.input, InputSpec::None { .. }) {
        spec.gen_bytes_per_map
    } else {
        0
    };
    // Map output volume: shuffle input for jobs with reduces, HDFS output
    // for map-only jobs.
    let out_total = if gen_bytes > 0 {
        (gen_bytes as f64 * spec.map_output_ratio) as u64
    } else {
        (input_bytes as f64 * spec.map_output_ratio) as u64
    };
    let drive_bytes = if gen_bytes > 0 {
        gen_bytes
    } else {
        input_bytes
    };

    let mut spill_acc: f64 = 0.0;
    let mut spill_count: u32 = 0;
    let mut hdfs_written: u64 = 0;
    let out_ratio = if drive_bytes > 0 {
        out_total as f64 / drive_bytes as f64
    } else {
        0.0
    };
    let block_size = block.map_or(128 * 1024 * 1024, |b| b.bytes.max(1));

    for part in chunks(drive_bytes.max(1), chunk) {
        if drive_bytes == 0 {
            break;
        }
        // ① input read (skipped for generators)
        if input_bytes > 0 {
            let src = source.expect("input task has a block");
            if src == node {
                steps.push(Step::DiskIo {
                    class: IoClass::Persistent,
                    kind: IoKind::Read,
                    bytes: part,
                    stream: stream_base + STREAM_INPUT,
                });
            } else {
                steps.push(Step::RemoteRead {
                    source: src,
                    block: block.expect("remote read has a block").id.0,
                    bytes: part,
                    stream: stream_base + STREAM_INPUT,
                });
            }
        }
        // compute on the chunk
        steps.push(Step::Compute(transfer_time(part, spec.map_cpu_rate)));
        // produce output
        spill_acc += part as f64 * out_ratio;
        if is_map_only {
            // ⑤-style direct HDFS output (TeraGen): write as it is produced
            while spill_acc >= chunk as f64 {
                let new_block = hdfs_written.is_multiple_of(block_size);
                steps.push(Step::HdfsWriteChunk {
                    bytes: chunk,
                    stream: stream_base + STREAM_OUTPUT,
                    new_block,
                });
                hdfs_written += chunk;
                spill_acc -= chunk as f64;
            }
        } else if spill_acc >= spec.sort_buffer as f64 {
            // ② sort-buffer spill to local FS
            let spill = spill_acc as u64;
            push_chunked(&mut steps, spill, chunk, |bytes| Step::DiskIo {
                class: IoClass::Intermediate,
                kind: IoKind::Write,
                bytes,
                stream: stream_base + STREAM_SPILL,
            });
            spill_acc = 0.0;
            spill_count += 1;
        }
    }

    // Tail output.
    let tail = spill_acc as u64;
    if tail > 0 {
        if is_map_only {
            let new_block = hdfs_written.is_multiple_of(block_size);
            steps.push(Step::HdfsWriteChunk {
                bytes: tail,
                stream: stream_base + STREAM_OUTPUT,
                new_block,
            });
        } else {
            push_chunked(&mut steps, tail, chunk, |bytes| Step::DiskIo {
                class: IoClass::Intermediate,
                kind: IoKind::Write,
                bytes,
                stream: stream_base + STREAM_SPILL,
            });
            spill_count += 1;
        }
    }

    // ② merge pass when the map spilled more than once: re-read and
    // re-write the full output on the local FS.
    if !is_map_only && spill_count > 1 {
        push_chunked(&mut steps, out_total, chunk, |bytes| Step::DiskIo {
            class: IoClass::Intermediate,
            kind: IoKind::Read,
            bytes,
            stream: stream_base + STREAM_SPILL,
        });
        push_chunked(&mut steps, out_total, chunk, |bytes| Step::DiskIo {
            class: IoClass::Intermediate,
            kind: IoKind::Write,
            bytes,
            stream: stream_base + STREAM_MERGE,
        });
    }

    TaskPlan { steps }
}

/// Builds the plan for one reduce task. `job_input_bytes` is the job's
/// total (resolved) map input, from which the per-reduce shuffle volume is
/// derived.
pub fn plan_reduce_task(
    spec: &JobSpec,
    job_input_bytes: u64,
    stream_base: u64,
    chunk: u64,
) -> TaskPlan {
    assert!(spec.reduces > 0, "reduce plan for a map-only job");
    let mut steps = Vec::new();
    let shuffle_total = spec.shuffle_bytes(job_input_bytes);
    let per_reduce = shuffle_total / spec.reduces as u64;

    // ③ gather this partition from every map output.
    steps.push(Step::ShuffleGather {
        fetchers: 4,
        expected_bytes: per_reduce,
    });

    let on_disk = per_reduce > spec.merge_threshold;
    if on_disk {
        // ④ merge spill: write the gathered data to the local FS…
        push_chunked(&mut steps, per_reduce, chunk, |bytes| Step::DiskIo {
            class: IoClass::Intermediate,
            kind: IoKind::Write,
            bytes,
            stream: stream_base + STREAM_SPILL,
        });
    }

    // Process the partition chunk by chunk: merged-run read (if on disk)
    // then compute.
    let out_total = (per_reduce as f64 * spec.reduce_output_ratio) as u64;
    let mut out_acc: f64 = 0.0;
    let out_ratio = if per_reduce > 0 {
        out_total as f64 / per_reduce as f64
    } else {
        0.0
    };
    let mut hdfs_written: u64 = 0;
    let block_size: u64 = 128 * 1024 * 1024;
    for part in chunks(per_reduce, chunk) {
        if on_disk {
            steps.push(Step::DiskIo {
                class: IoClass::Intermediate,
                kind: IoKind::Read,
                bytes: part,
                stream: stream_base + STREAM_MERGE,
            });
        }
        steps.push(Step::Compute(transfer_time(part, spec.reduce_cpu_rate)));
        // ⑤ stream the output through the HDFS pipeline as produced.
        out_acc += part as f64 * out_ratio;
        while out_acc >= chunk as f64 {
            let new_block = hdfs_written.is_multiple_of(block_size);
            steps.push(Step::HdfsWriteChunk {
                bytes: chunk,
                stream: stream_base + STREAM_OUTPUT,
                new_block,
            });
            hdfs_written += chunk;
            out_acc -= chunk as f64;
        }
    }
    let tail = out_acc as u64;
    if tail > 0 {
        let new_block = hdfs_written.is_multiple_of(block_size);
        steps.push(Step::HdfsWriteChunk {
            bytes: tail,
            stream: stream_base + STREAM_OUTPUT,
            new_block,
        });
    }

    TaskPlan { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_dfs::BlockId;
    use ibis_simcore::units::MIB;

    const CHUNK: u64 = 4 * MIB;

    fn block(bytes: u64, replicas: Vec<u32>) -> BlockInfo {
        BlockInfo {
            id: BlockId(1),
            bytes,
            replicas: replicas.into_iter().map(NodeId).collect(),
        }
    }

    fn terasort_like() -> JobSpec {
        JobSpec {
            input: InputSpec::DfsFile {
                name: "in".into(),
                bytes: 0, // planning uses the real BlockInfo, not this
            },
            map_output_ratio: 1.0,
            reduces: 4,
            reduce_output_ratio: 1.0,
            map_cpu_rate: 400e6,
            ..JobSpec::named("ts")
        }
    }

    #[test]
    fn local_map_reads_locally() {
        let spec = terasort_like();
        let b = block(128 * MIB, vec![0, 1, 2]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        let local_reads = plan.class_bytes(IoClass::Persistent, IoKind::Read);
        assert_eq!(local_reads, 128 * MIB);
        assert!(
            !plan
                .steps
                .iter()
                .any(|s| matches!(s, Step::RemoteRead { .. })),
            "local task must not read remotely"
        );
    }

    #[test]
    fn remote_map_reads_via_network() {
        let spec = terasort_like();
        let b = block(128 * MIB, vec![1, 2, 3]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        let remote: u64 = plan
            .steps
            .iter()
            .map(|s| match s {
                Step::RemoteRead { bytes, source, .. } => {
                    assert_ne!(*source, NodeId(0));
                    *bytes
                }
                _ => 0,
            })
            .sum();
        assert_eq!(remote, 128 * MIB);
    }

    #[test]
    fn remote_map_prefers_same_rack_replica() {
        let spec = terasort_like();
        // Reader on node 0 (rack 0 = nodes 0..4 with rack_size 4); the
        // only same-rack replica is node 1, listed *after* off-rack ones.
        let b = block(128 * MIB, vec![4, 5, 1]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 4);
        for s in &plan.steps {
            if let Step::RemoteRead { source, .. } = s {
                assert_eq!(*source, NodeId(1), "crossed the rack: {s:?}");
            }
        }
        // Rack-less planning keeps the index-spread rule: task 0 reads
        // replica 0 (node 4).
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::RemoteRead { source, .. } if *source == NodeId(4))));
        // No same-rack replica at all: fall back to index spread.
        let far = block(128 * MIB, vec![4, 5, 6]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&far), 1, 0, CHUNK, 4);
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::RemoteRead { source, .. } if *source == NodeId(5))));
    }

    #[test]
    fn map_spills_equal_output_volume() {
        let spec = terasort_like(); // ratio 1.0, spills > 1 → merge pass
        let b = block(128 * MIB, vec![0]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        let spill_writes = plan.class_bytes(IoClass::Intermediate, IoKind::Write);
        // 128 MiB of output spilled once + rewritten once by the merge.
        assert_eq!(spill_writes, 2 * 128 * MIB);
        let merge_reads = plan.class_bytes(IoClass::Intermediate, IoKind::Read);
        assert_eq!(merge_reads, 128 * MIB);
    }

    #[test]
    fn small_output_map_spills_once_no_merge() {
        let spec = JobSpec {
            map_output_ratio: 0.25, // 32 MiB output < 100 MiB sort buffer
            reduces: 4,
            input: InputSpec::DfsFile {
                name: "in".into(),
                bytes: 0,
            },
            ..JobSpec::named("wc")
        };
        let b = block(128 * MIB, vec![0]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        let spill = plan.class_bytes(IoClass::Intermediate, IoKind::Write);
        assert_eq!(spill, 32 * MIB);
        assert_eq!(plan.class_bytes(IoClass::Intermediate, IoKind::Read), 0);
    }

    #[test]
    fn generator_map_writes_hdfs_directly() {
        let spec = JobSpec {
            input: InputSpec::None { maps: 8 },
            gen_bytes_per_map: 128 * MIB,
            reduces: 0,
            map_output_ratio: 1.0,
            ..JobSpec::named("teragen")
        };
        let plan = plan_map_task(&spec, NodeId(0), None, 0, 0, CHUNK, 0);
        let hdfs = plan.class_bytes(IoClass::Persistent, IoKind::Write);
        assert_eq!(hdfs, 128 * MIB);
        assert_eq!(plan.class_bytes(IoClass::Intermediate, IoKind::Write), 0);
        // exactly one new_block for 128 MiB = one block
        let new_blocks = plan
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::HdfsWriteChunk {
                        new_block: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(new_blocks, 1);
    }

    #[test]
    fn compute_time_matches_rate() {
        let spec = JobSpec {
            map_cpu_rate: 128.0 * MIB as f64, // whole block in 1 s
            reduces: 4,
            map_output_ratio: 0.0,
            input: InputSpec::DfsFile {
                name: "in".into(),
                bytes: 0,
            },
            ..JobSpec::named("cpu")
        };
        let b = block(128 * MIB, vec![0]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        let total = plan.total_compute();
        assert!((total.as_secs_f64() - 1.0).abs() < 1e-9, "compute {total}");
    }

    #[test]
    fn reduce_small_partition_stays_in_memory() {
        let spec = JobSpec {
            reduces: 4,
            map_output_ratio: 1.0,
            merge_threshold: 1024 * MIB,
            ..JobSpec::named("r")
        };
        // total shuffle = 512 MiB → 128 MiB per reduce < threshold
        let plan = plan_reduce_task(&spec, 512 * MIB, 0, CHUNK);
        assert_eq!(plan.class_bytes(IoClass::Intermediate, IoKind::Write), 0);
        assert_eq!(plan.class_bytes(IoClass::Intermediate, IoKind::Read), 0);
        assert!(matches!(plan.steps[0], Step::ShuffleGather { .. }));
    }

    #[test]
    fn reduce_large_partition_merges_on_disk() {
        let spec = JobSpec {
            reduces: 2,
            map_output_ratio: 1.0,
            merge_threshold: 256 * MIB,
            ..JobSpec::named("r")
        };
        // 2 GiB shuffle → 1 GiB per reduce > 256 MiB threshold
        let plan = plan_reduce_task(&spec, 2048 * MIB, 0, CHUNK);
        assert_eq!(
            plan.class_bytes(IoClass::Intermediate, IoKind::Write),
            1024 * MIB
        );
        assert_eq!(
            plan.class_bytes(IoClass::Intermediate, IoKind::Read),
            1024 * MIB
        );
    }

    #[test]
    fn reduce_output_written_to_hdfs() {
        let spec = JobSpec {
            reduces: 4,
            map_output_ratio: 1.0,
            reduce_output_ratio: 0.5,
            ..JobSpec::named("r")
        };
        let plan = plan_reduce_task(&spec, 1024 * MIB, 0, CHUNK);
        let hdfs = plan.class_bytes(IoClass::Persistent, IoKind::Write);
        // 256 MiB per reduce × 0.5 = 128 MiB (± one chunk of rounding)
        assert!(
            (hdfs as i64 - (128 * MIB) as i64).unsigned_abs() <= CHUNK,
            "hdfs out {hdfs}"
        );
    }

    #[test]
    fn chunks_never_exceed_chunk_size() {
        let spec = terasort_like();
        let b = block(128 * MIB, vec![0]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 0, CHUNK, 0);
        for s in &plan.steps {
            let bytes = match s {
                Step::DiskIo { bytes, .. }
                | Step::RemoteRead { bytes, .. }
                | Step::HdfsWriteChunk { bytes, .. } => *bytes,
                _ => 0,
            };
            assert!(bytes <= CHUNK, "oversized step {s:?}");
        }
    }

    #[test]
    fn streams_separate_phases() {
        let spec = terasort_like();
        let b = block(128 * MIB, vec![0]);
        let plan = plan_map_task(&spec, NodeId(0), Some(&b), 0, 100, CHUNK, 0);
        let mut input_streams = std::collections::HashSet::new();
        let mut spill_streams = std::collections::HashSet::new();
        for s in &plan.steps {
            match s {
                Step::DiskIo {
                    class: IoClass::Persistent,
                    stream,
                    ..
                } => {
                    input_streams.insert(*stream);
                }
                Step::DiskIo {
                    class: IoClass::Intermediate,
                    kind: IoKind::Write,
                    stream,
                    ..
                } => {
                    spill_streams.insert(*stream);
                }
                _ => {}
            }
        }
        assert!(input_streams.is_disjoint(&spill_streams));
    }
}
