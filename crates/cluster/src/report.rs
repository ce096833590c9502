//! Experiment results.

use ibis_core::broker::BrokerStats;
use ibis_core::AppId;
use ibis_simcore::metrics::{Histogram, TimeSeries};
use ibis_simcore::{QueueStats, SimDuration, SimTime};
use std::collections::HashMap;

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Job name from its spec.
    pub name: String,
    /// The IBIS application id its I/O was tagged with.
    pub app: AppId,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// End-to-end runtime.
    pub runtime: SimDuration,
    /// Submission → last map completion.
    pub map_phase: SimDuration,
    /// Last map completion → job completion.
    pub reduce_phase: SimDuration,
}

/// A completed Hive query (workflow).
#[derive(Debug, Clone)]
pub struct QuerySummary {
    /// Query name ("Q9").
    pub name: String,
    /// First-stage application id.
    pub first_app: AppId,
    /// End-to-end runtime across all stages.
    pub runtime: SimDuration,
}

/// One tenant of a multi-tenant (open-system) run. Present only for jobs
/// submitted with [`ibis_mapreduce::JobSpec::tenant`] set: all of a
/// tenant's jobs share one application flow (one DSFQ weight, pooled
/// broker service totals) and contribute to one arrival→completion
/// latency distribution — the open-system figure of merit.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name (from the job specs).
    pub name: String,
    /// The shared application (flow) id — the first tenant job's.
    pub app: AppId,
    /// The flow's IBIS I/O weight.
    pub weight: f64,
    /// Jobs that entered the system.
    pub submitted: u64,
    /// Jobs that completed.
    pub finished: u64,
    /// Arrival→completion latency distribution, nanoseconds.
    pub latency: Histogram,
}

impl TenantSummary {
    /// A latency quantile in milliseconds, if any job finished.
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q).map(|ns| ns as f64 / 1e6)
    }
}

/// Chaos-run accounting, present only when fault injection was active
/// (`ClusterConfig::faults`): what was injected and how the cluster
/// reacted. `None` in fault-free runs, so enabling the subsystem without
/// a schedule cannot change a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Broker sync rounds that found the broker unreachable.
    pub broker_outages: u64,
    /// Report messages dropped in flight.
    pub report_drops: u64,
    /// Sync rounds whose replies were delivered late.
    pub reply_delays: u64,
    /// Report retry attempts (bounded backoff) after failed rounds.
    pub retries: u64,
    /// Datanode crashes injected.
    pub crashes: u64,
    /// Datanode restarts completed.
    pub restarts: u64,
    /// Running tasks aborted by crashes and re-queued.
    pub aborted_tasks: u64,
    /// Pipeline replica writes acknowledged-as-failed because the target
    /// datanode was down (durability reduced for those blocks).
    pub lost_replicas: u64,
    /// In-flight I/Os parked at a crashed node and re-issued on restart.
    pub parked_ios: u64,
    /// Times any scheduler entered degraded (pure local SFQ) mode.
    pub degraded_entries: u64,
    /// Leaf aggregators crashed (coordination-tree failure domain).
    pub agg_crashes: u64,
    /// Leaf aggregators restarted empty and reconstructed from their
    /// schedulers' epoch-bumped full re-reports.
    pub agg_restarts: u64,
    /// Rack partitions injected (control-plane unreachability windows).
    pub rack_partitions: u64,
    /// Report messages duplicated in flight (absorbed by the seq guard).
    pub dup_reports: u64,
    /// Report messages delivered out of order.
    pub reorder_reports: u64,
    /// Snapshot resyncs the tree protocol ran to repair gaps, reordering,
    /// or post-crash state loss.
    pub resyncs: u64,
}

/// Deterministic work counters of the slot-assignment layer. Every task
/// finish and job arrival runs a node-local pass and then a remote pass,
/// each made of sweeps over every node until a sweep places nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Sweeps started, each with one fair-share candidate build.
    pub sweeps: u64,
    /// Sweeps that stopped before visiting any node because no job had
    /// placeable work.
    pub empty_sweeps: u64,
    /// Per-node placement attempts (nodes visited with a free core).
    pub attempts: u64,
    /// Attempts that placed a task.
    pub placements: u64,
}

/// Everything a bench binary needs to print a paper figure.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Finished jobs, in submission order (workflow stages included).
    pub jobs: Vec<JobSummary>,
    /// Finished Hive queries.
    pub queries: Vec<QuerySummary>,
    /// Tenants of a multi-tenant run, in first-arrival order. Empty when
    /// no submitted job named a tenant, so closed-system reports are
    /// unchanged.
    pub tenants: Vec<TenantSummary>,
    /// Cluster-wide read throughput per application.
    pub app_read: HashMap<AppId, TimeSeries>,
    /// Cluster-wide write throughput per application.
    pub app_write: HashMap<AppId, TimeSeries>,
    /// Total bytes of I/O service delivered per application (all nodes,
    /// all classes).
    pub app_service: HashMap<AppId, u64>,
    /// Device-latency distribution (nanoseconds) per application across
    /// all interposed I/Os — the per-request view behind the runtime
    /// numbers: isolation shows up as a bounded tail for the protected
    /// application.
    pub app_latency: HashMap<AppId, Histogram>,
    /// Broker overhead counters (zeros when coordination is off).
    pub broker: BrokerStats,
    /// Total scheduling decisions across all schedulers (Table 2 proxy).
    pub sched_decisions: u64,
    /// Simulated end time of the last event.
    pub makespan: SimDuration,
    /// Wall-clock seconds the simulation took (harness overhead metric).
    pub wall_secs: f64,
    /// Events processed (simulator throughput diagnostics).
    pub events: u64,
    /// Slot-assignment work counters.
    pub assign: AssignStats,
    /// Event-queue work counters: pushes per lane (same-instant, periodic
    /// FIFO, heap) and the heap's high-water mark.
    pub queue: QueueStats,
    /// The SFQ(D2) reference latencies used, if profiling ran
    /// (hdfs-read, hdfs-write, scratch-read, scratch-write) in ms.
    pub reference_latencies_ms: Option<[f64; 4]>,
    /// The flight-recorder capture, when recording was enabled
    /// (`ClusterConfig::obs`). Feed it to `ibis_obs::audit` or
    /// `ibis_obs::chrome::export`.
    pub recording: Option<ibis_obs::Recording>,
    /// Sampled time-series telemetry plus the end-of-run snapshot, when
    /// metrics were enabled (`ClusterConfig::metrics`). Feed it to
    /// `ibis_metrics::csv::export`, `ibis_metrics::prometheus::encode`
    /// (via the snapshot), or `ibis_metrics::convergence::diagnose`.
    pub metrics: Option<ibis_metrics::MetricsCapture>,
    /// Fault-injection accounting, when a fault schedule was active
    /// (`ClusterConfig::faults`).
    pub faults: Option<FaultSummary>,
    /// The causal trace, when tracing was enabled (`ClusterConfig::trace`):
    /// per-app latency attribution (components sum exactly to the swept
    /// total). Join tenant names via [`RunReport::tenants`] or
    /// [`RunReport::tenant_breakdown`].
    pub trace: Option<ibis_trace::TraceReport>,
    /// Wall-clock self-profile of the engine's phases, when tracing was
    /// enabled. Like `wall_secs`, excluded from the determinism canon.
    pub engine_profile: Option<ibis_trace::EngineProfile>,
    /// Data-plane transfer events (remote-read chunks and pipeline
    /// replica chunks) that stayed inside one rack. Zero unless
    /// `ClusterConfig::rack_size` defines a topology.
    pub rack_local_transfers: u64,
    /// Data-plane transfer events that crossed a rack boundary. Zero
    /// unless a rack topology is defined — rack-aware placement exists to
    /// push this down relative to `rack_local_transfers`.
    pub cross_rack_transfers: u64,
}

impl RunReport {
    /// The summary for the first job whose name matches.
    pub fn job(&self, name: &str) -> Option<&JobSummary> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Runtime of the first job whose name matches, in seconds.
    pub fn runtime_secs(&self, name: &str) -> Option<f64> {
        self.job(name).map(|j| j.runtime.as_secs_f64())
    }

    /// The summary for a query by name.
    pub fn query(&self, name: &str) -> Option<&QuerySummary> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// Bytes the devices read, over every application's read series.
    /// Bins hold whole byte counts, so the sum is exact.
    pub fn bytes_read(&self) -> u64 {
        self.app_read.values().map(|s| s.total() as u64).sum()
    }

    /// Bytes the devices wrote, over every application's write series.
    pub fn bytes_written(&self) -> u64 {
        self.app_write.values().map(|s| s.total() as u64).sum()
    }

    /// The summary for a tenant by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantSummary> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// A tenant's latency attribution, joined by name through the tenant
    /// table. `None` when tracing was off or the tenant is unknown.
    pub fn tenant_breakdown(&self, name: &str) -> Option<&ibis_trace::AppAttribution> {
        let app = self.tenant(name)?.app;
        self.trace.as_ref()?.app(app.0)
    }

    /// Slowdown of `runtime` relative to `baseline` (1.0 = unchanged,
    /// 2.07 = the paper's "107 % slowdown").
    pub fn slowdown(runtime: f64, baseline: f64) -> f64 {
        if baseline <= 0.0 {
            return f64::NAN;
        }
        runtime / baseline
    }

    /// An application's latency quantile in milliseconds, if it did any
    /// I/O.
    pub fn latency_ms(&self, app: AppId, q: f64) -> Option<f64> {
        self.app_latency
            .get(&app)
            .and_then(|h| h.quantile(q))
            .map(|ns| ns as f64 / 1e6)
    }

    /// Jain's fairness index of `values`: 1.0 when all are equal, 1/n at
    /// maximal concentration. Empty or all-zero input yields 0.0. Feed it
    /// weight-normalised per-app service to score proportional sharing.
    pub fn jain_index(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let sum: f64 = values.iter().sum();
        let sq: f64 = values.iter().map(|v| v * v).sum();
        if sq == 0.0 {
            return 0.0;
        }
        (sum * sum) / (values.len() as f64 * sq)
    }

    /// Mean total throughput (bytes/sec) over the run: all I/O divided by
    /// the makespan — the Fig. 6b metric.
    pub fn mean_total_throughput(&self) -> f64 {
        let total: u64 = self.app_service.values().sum();
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            total as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_math() {
        assert!((RunReport::slowdown(207.0, 100.0) - 2.07).abs() < 1e-12);
        assert!(RunReport::slowdown(1.0, 0.0).is_nan());
    }

    #[test]
    fn lookup_by_name() {
        let mut r = RunReport::default();
        r.jobs.push(JobSummary {
            name: "WordCount".into(),
            app: AppId(1),
            submitted: SimTime::ZERO,
            finished: SimTime::from_secs(10),
            runtime: SimDuration::from_secs(10),
            map_phase: SimDuration::from_secs(7),
            reduce_phase: SimDuration::from_secs(3),
        });
        assert_eq!(r.runtime_secs("WordCount"), Some(10.0));
        assert!(r.job("TeraGen").is_none());
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(RunReport::jain_index(&[]), 0.0);
        assert_eq!(RunReport::jain_index(&[0.0, 0.0]), 0.0);
        assert!((RunReport::jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One app hogging everything: index → 1/n.
        assert!((RunReport::jain_index(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_throughput() {
        let mut r = RunReport::default();
        r.app_service.insert(AppId(1), 1_000_000);
        r.makespan = SimDuration::from_secs(10);
        assert_eq!(r.mean_total_throughput(), 100_000.0);
    }
}
