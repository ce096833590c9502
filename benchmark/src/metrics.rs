//! The metrics the benchmark reports, with their units and directions.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in results and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit. `sim_s` is simulated seconds; `s` and `ns` are host time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, reported per workload.
pub const END_TO_END: [Metric; 6] = [
    m("wall_s", "s", Lower),
    m("run_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_heap_mb", "MB", Lower),
    m("sim_makespan_s", "sim_s", Lower),
    m("completed_frac", "ratio", Higher),
];

/// Single-layer metrics from the traced pass, grouped by layer.
pub const PER_LAYER: [Metric; 54] = [
    m("cluster.events", "count", Lower),
    m("cluster.ns_per_event", "ns", Lower),
    m("cluster.sim_job_p50_s", "sim_s", Lower),
    m("cluster.sim_job_tail_s", "sim_s", Lower),
    m("workgen.jobs", "count", Lower),
    m("workgen.gen_s", "s", Lower),
    m("mapreduce.tasks_started", "count", Lower),
    m("mapreduce.assign_calls", "count", Lower),
    m("mapreduce.assign_hit_ratio", "ratio", Higher),
    m("mapreduce.assign_ns_per_call", "ns", Lower),
    m("core.sched.submits", "count", Lower),
    m("core.sched.decisions", "count", Lower),
    m("core.sched.delay_charges", "count", Lower),
    m("core.sched.depth_changes", "count", Lower),
    m("core.sched.replay_calls", "count", Lower),
    m("core.sched.replay_ns_per_call", "ns", Lower),
    m("core.sched.set_weight_calls", "count", Lower),
    m("core.sched.set_weight_ns_per_call", "ns", Lower),
    m("core.sched.queue_wait_s", "sim_s", Lower),
    m("core.sched.dsfq_delay_s", "sim_s", Lower),
    m("storage.completions", "count", Lower),
    m("storage.replay_ns_per_call", "ns", Lower),
    m("storage.service_s", "sim_s", Lower),
    m("dfs.blocks_placed", "count", Lower),
    m("dfs.rack_local_transfers", "count", Lower),
    m("dfs.cross_rack_transfers", "count", Lower),
    m("dfs.replay_ns_per_call", "ns", Lower),
    m("core.coord.reports", "count", Lower),
    m("core.coord.payload_bytes", "B", Lower),
    m("core.coord.agg_msgs", "count", Lower),
    m("core.coord.agg_bytes", "B", Lower),
    m("core.coord.sync_bytes_per_node", "B", Lower),
    m("core.coord.hotspot_bytes", "B", Lower),
    m("core.coord.resyncs", "count", Lower),
    m("core.coord.dup_ignored", "count", Lower),
    m("core.coord.round_ns", "ns", Lower),
    m("core.coord.jain", "ratio", Higher),
    m("faults.injected", "count", Lower),
    m("faults.retries", "count", Lower),
    m("faults.degraded_entries", "count", Lower),
    m("faults.aborted_tasks", "count", Lower),
    m("faults.stall_s", "sim_s", Lower),
    m("obs.recorded_events", "count", Lower),
    m("obs.dropped_events", "count", Lower),
    m("obs.retained_mb", "MB", Lower),
    m("obs.audit_s", "s", Lower),
    m("obs.audit_violations", "count", Lower),
    m("obs.recorder_overhead_s", "s", Lower),
    m("metrics.series", "count", Lower),
    m("metrics.points", "count", Lower),
    m("metrics.export_s", "s", Lower),
    m("metrics.sampler_overhead_s", "s", Lower),
    m("trace.check_s", "s", Lower),
    m("trace.overhead_s", "s", Lower),
];
