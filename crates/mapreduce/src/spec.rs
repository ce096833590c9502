//! Declarative job descriptions.
//!
//! A [`JobSpec`] captures everything about a benchmark that shapes its I/O
//! demand: input volume, the input→shuffle and shuffle→output ratios the
//! paper uses to characterise the Facebook2009 jobs (§7.3), per-phase
//! compute rates, and the slot resources each task needs (§7.1: map task =
//! 1 core + 2 GB, reduce task = 1 core + 8 GB).

use ibis_simcore::units::{GIB, MIB};
use ibis_simcore::SimDuration;

/// Where a job's map inputs come from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSpec {
    /// Read an existing DFS file (one map task per block).
    DfsFile {
        /// File name registered with the namenode.
        name: String,
        /// Total size; the experiment harness creates the file.
        bytes: u64,
    },
    /// Input is the DFS output of the previous stage of the same workflow
    /// (Hive query chains).
    Chained,
    /// No input — generator jobs (TeraGen): `maps` synthetic tasks, each
    /// producing [`JobSpec::gen_bytes_per_map`] of HDFS output.
    None {
        /// Number of map tasks to run.
        maps: u32,
    },
}

/// A MapReduce job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name ("TeraSort", "WordCount", …).
    pub name: String,
    /// IBIS I/O-service weight (§4); relative across concurrent jobs.
    pub io_weight: f64,
    /// Fair Scheduler CPU-share weight (slot allocation).
    pub cpu_weight: f64,
    /// Submission offset from experiment start.
    pub arrival: SimDuration,
    /// Input source.
    pub input: InputSpec,
    /// Map output ÷ map input ("input-to-shuffle" ratio of §7.3 is the
    /// inverse of this). For map-only jobs this sizes the HDFS output.
    pub map_output_ratio: f64,
    /// Bytes of HDFS output per map for generator jobs.
    pub gen_bytes_per_map: u64,
    /// Rate at which one map task's compute processes its input,
    /// bytes/sec per core. Lower = more CPU-bound (WordCount), higher =
    /// more I/O-bound (TeraGen).
    pub map_cpu_rate: f64,
    /// Map-side sort buffer: intermediate output accumulates here and is
    /// spilled to the local FS when full (Hadoop `io.sort.mb`, 100 MB).
    pub sort_buffer: u64,
    /// Number of reduce tasks (0 = map-only job).
    pub reduces: u32,
    /// Reduce output ÷ shuffle input.
    pub reduce_output_ratio: f64,
    /// Reduce compute rate, bytes of shuffle input per second per core.
    pub reduce_cpu_rate: f64,
    /// Shuffle volume per reduce above which the reduce merges on disk
    /// (write + re-read of the shuffle data) instead of in memory.
    pub merge_threshold: u64,
    /// Replication factor of the job's HDFS output (Table 1: 3).
    pub output_replication: u32,
    /// Memory per map task, bytes (§7.1: 2 GB).
    pub map_memory: u64,
    /// Memory per reduce task, bytes (§7.1: 8 GB).
    pub reduce_memory: u64,
    /// Fraction of maps that must finish before reduces may launch
    /// (Hadoop slowstart; default 0.05).
    pub reduce_slowstart: f64,
    /// Hard cap on concurrently running tasks for this job — how the
    /// experiments pin a job's CPU allocation ("the CPU allocation to
    /// WordCount is kept the same in all cases", Fig. 3). `None` = only
    /// fair sharing limits it.
    pub max_slots: Option<u32>,
    /// Per-task read-ahead window override (chunks in flight). Linux
    /// read-ahead scales with consumption rate, so fast sequential
    /// scanners keep several requests outstanding while slow (CPU-bound)
    /// readers effectively run synchronously. `None` = the engine's
    /// default of 1 (synchronous reads).
    pub read_ahead: Option<u32>,
    /// Owning tenant in a multi-tenant mix. Jobs sharing a tenant share
    /// one IBIS I/O flow (one DSFQ weight, pooled service accounting) and
    /// one per-tenant latency series in the run report. `None` = the job
    /// is its own flow, the closed-system default.
    pub tenant: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: "job".to_string(),
            io_weight: 1.0,
            cpu_weight: 1.0,
            arrival: SimDuration::ZERO,
            input: InputSpec::None { maps: 1 },
            map_output_ratio: 1.0,
            gen_bytes_per_map: 128 * MIB,
            map_cpu_rate: 200e6,
            sort_buffer: 100 * MIB,
            reduces: 0,
            reduce_output_ratio: 1.0,
            reduce_cpu_rate: 200e6,
            merge_threshold: GIB,
            output_replication: 3,
            map_memory: 2 * GIB,
            reduce_memory: 8 * GIB,
            reduce_slowstart: 0.05,
            max_slots: None,
            read_ahead: None,
            tenant: None,
        }
    }
}

impl JobSpec {
    /// Starts a spec with a name and defaults for everything else.
    pub fn named(name: &str) -> Self {
        JobSpec {
            name: name.to_string(),
            ..JobSpec::default()
        }
    }

    /// Total input bytes (0 for generator jobs until chained inputs are
    /// resolved).
    pub fn input_bytes(&self) -> u64 {
        match &self.input {
            InputSpec::DfsFile { bytes, .. } => *bytes,
            InputSpec::Chained | InputSpec::None { .. } => 0,
        }
    }

    /// Expected total map-output (shuffle) bytes given `input_bytes` of
    /// real input.
    pub fn shuffle_bytes(&self, input_bytes: u64) -> u64 {
        if self.reduces == 0 {
            0
        } else {
            (input_bytes as f64 * self.map_output_ratio) as u64
        }
    }

    /// Sets the IBIS I/O weight (builder style).
    pub fn io_weight(mut self, w: f64) -> Self {
        assert!(w > 0.0);
        self.io_weight = w;
        self
    }

    /// Sets the Fair Scheduler CPU weight (builder style).
    pub fn cpu_weight(mut self, w: f64) -> Self {
        assert!(w > 0.0);
        self.cpu_weight = w;
        self
    }

    /// Sets the arrival offset (builder style).
    pub fn arriving_at(mut self, at: SimDuration) -> Self {
        self.arrival = at;
        self
    }

    /// Caps the job's concurrent tasks (builder style).
    pub fn max_slots(mut self, slots: u32) -> Self {
        self.max_slots = Some(slots);
        self
    }

    /// Assigns the job to a tenant flow (builder style).
    pub fn tenant(mut self, name: &str) -> Self {
        self.tenant = Some(name.to_string());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let s = JobSpec::default();
        assert_eq!(s.map_memory, 2 * GIB);
        assert_eq!(s.reduce_memory, 8 * GIB);
        assert_eq!(s.output_replication, 3);
        assert_eq!(s.sort_buffer, 100 * MIB);
        assert!((s.reduce_slowstart - 0.05).abs() < 1e-12);
    }

    #[test]
    fn builders_chain() {
        let s = JobSpec::named("x")
            .io_weight(32.0)
            .cpu_weight(2.0)
            .arriving_at(SimDuration::from_secs(5));
        assert_eq!(s.name, "x");
        assert_eq!(s.io_weight, 32.0);
        assert_eq!(s.cpu_weight, 2.0);
        assert_eq!(s.arrival, SimDuration::from_secs(5));
    }

    #[test]
    fn shuffle_bytes_zero_for_map_only() {
        let map_only = JobSpec {
            reduces: 0,
            ..JobSpec::default()
        };
        assert_eq!(map_only.shuffle_bytes(1000), 0);
        let with_reduces = JobSpec {
            reduces: 4,
            map_output_ratio: 0.5,
            ..JobSpec::default()
        };
        assert_eq!(with_reduces.shuffle_bytes(1000), 500);
    }

    #[test]
    fn input_bytes_by_variant() {
        let f = JobSpec {
            input: InputSpec::DfsFile {
                name: "in".into(),
                bytes: 42,
            },
            ..JobSpec::default()
        };
        assert_eq!(f.input_bytes(), 42);
        assert_eq!(JobSpec::default().input_bytes(), 0);
    }
}
