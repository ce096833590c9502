//! Declarative experiment configuration.

use ibis_core::scheduler::Policy;
use ibis_dfs::Placement;
use ibis_simcore::units::{GIB, HDFS_BLOCK, IO_CHUNK};
use ibis_simcore::SimDuration;
use ibis_storage::{DeviceModel, Hdd, HddConfig, Ssd, SsdConfig};
use ibis_workloads::HiveQuery;
use ibis_mapreduce::JobSpec;

// Re-exported so configs can name the ideal device without importing
// ibis-storage directly.
use ibis_storage::device::Ideal as IdealDevice;

/// Which storage model backs a node device.
#[derive(Debug, Clone)]
pub enum DeviceSpec {
    /// Rotating disk (the paper's HDD setup).
    Hdd(HddConfig),
    /// Flash device (the paper's SSD setup).
    Ssd(SsdConfig),
    /// Idealised constant-rate device (tests / controls).
    Ideal {
        /// Per-request bandwidth, bytes/sec.
        bandwidth: f64,
        /// Fixed per-request latency.
        latency: SimDuration,
    },
}

impl DeviceSpec {
    /// Instantiates the device model, deriving a per-node seed (via
    /// [`ibis_simcore::rng::SimRng::stream_seed`], pure in the salt, so
    /// nodes can be built in any order) so identical disks on different
    /// nodes don't share jitter streams.
    pub fn build(&self, node_salt: u64) -> DeviceModel {
        use ibis_simcore::rng::SimRng;
        match self {
            DeviceSpec::Hdd(cfg) => {
                let mut c = cfg.clone();
                c.seed = SimRng::stream_seed(c.seed, node_salt);
                DeviceModel::Hdd(Hdd::new(c))
            }
            DeviceSpec::Ssd(cfg) => {
                let mut c = cfg.clone();
                c.seed = SimRng::stream_seed(c.seed, node_salt);
                DeviceModel::Ssd(Ssd::new(c))
            }
            DeviceSpec::Ideal { bandwidth, latency } => {
                DeviceModel::Ideal(IdealDevice::new(*bandwidth, *latency))
            }
        }
    }

    /// The paper's HDD setup.
    pub fn default_hdd() -> Self {
        DeviceSpec::Hdd(HddConfig::default())
    }

    /// The paper's SSD setup.
    pub fn default_ssd() -> Self {
        DeviceSpec::Ssd(SsdConfig::default())
    }
}

/// Full cluster description. Defaults reproduce the paper's testbed
/// (§7.1): 8 worker nodes, 12 cores and 24 GB of container memory each
/// (96 cores / 192 GB total), two disks per node (HDFS + intermediate),
/// Gigabit Ethernet, Table 1 HDFS settings, and a 1-second broker sync
/// and controller period.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker datanodes.
    pub nodes: u32,
    /// CPU cores (task slots) per node.
    pub cores_per_node: u32,
    /// Container memory per node, bytes.
    pub memory_per_node: u64,
    /// Device storing HDFS data.
    pub hdfs_device: DeviceSpec,
    /// Device storing intermediate data (spills, merges, map outputs).
    pub scratch_device: DeviceSpec,
    /// Node ingress bandwidth, bytes/sec. The paper observes that storage
    /// saturates before the network (§3); with strict GigE and 3×
    /// replication the model would invert that (the replica traffic of a
    /// full-speed writer alone exceeds GigE), so the default models a
    /// fatter ingress (e.g. bonded links) to stay in the paper's regime.
    /// See DESIGN.md.
    pub nic_bw: f64,
    /// The I/O scheduler on every device queue.
    pub policy: Policy,
    /// Enable the distributed scheduling coordination (§5).
    pub coordination: bool,
    /// Apply IBIS application weights to network transfers as well
    /// (weighted fair sharing on every ingress link) — the §3 future-work
    /// network bandwidth control (an OpenFlow stand-in). Off by default:
    /// the paper's IBIS controls storage endpoints only.
    pub network_control: bool,
    /// Broker sync period (§5: 1 s).
    pub sync_period: SimDuration,
    /// HDFS block size (Table 1).
    pub block_size: u64,
    /// HDFS replication factor (Table 1).
    pub replication: u32,
    /// Placement policy for pre-loaded input files.
    pub placement: Placement,
    /// Rack topology: consecutive groups of `rack_size` nodes share a
    /// rack (node *n* lives in rack *n / rack_size*). `0` — the default —
    /// disables rack awareness entirely: placement, replica choice, and
    /// coordination behave exactly as before (byte-identical reports).
    /// With racks on, the namenode spreads one replica off-rack for
    /// durability and keeps the rest near the writer, and readers prefer
    /// a same-rack replica — cutting cross-rack transfer events, the
    /// dominant event-count term at O(1000) nodes.
    pub rack_size: u32,
    /// Coordinate through the hierarchical broker tree (DESIGN.md §17)
    /// instead of the flat centralized broker: one leaf aggregator per
    /// rack under a root, delta-encoded traffic at every level, sync age
    /// reflecting tree depth. `None` — the default — keeps the paper's
    /// flat §5 broker. The tree's rack size should match `rack_size`;
    /// [`ClusterConfig::with_broker_tree`] sets both consistently.
    pub broker_tree: Option<ibis_core::broker_tree::BrokerTreeConfig>,
    /// Interposed I/O request size.
    pub chunk: u64,
    /// HDFS write pipelining window: chunks a task may have in flight
    /// before its next `HdfsWriteChunk` step blocks. Hadoop's
    /// DFSOutputStream queues packets asynchronously, which is what makes
    /// write-heavy jobs (TeraGen) flood the storage under native
    /// scheduling; 1 = fully synchronous writes.
    pub hdfs_write_window: u32,
    /// Profile the devices at start-up and use the measured knee latency
    /// as the SFQ(D2) reference (§4's offline profiling). When false, the
    /// references in the policy's controller config are used as-is.
    pub auto_reference: bool,
    /// Master RNG seed.
    pub seed: u64,
    /// Flight-recorder configuration (see `ibis-obs`). Defaults to the
    /// environment (`IBIS_OBS=1` enables recording), so any experiment
    /// binary can be traced without a config change; disabled it adds one
    /// branch per emission site and does not perturb results.
    pub obs: ibis_obs::ObsConfig,
    /// Metrics-sampler configuration (see `ibis-metrics`). Defaults to the
    /// environment (`IBIS_METRICS=1` enables sampling), so any experiment
    /// binary can export time-series telemetry without a config change;
    /// disabled, the engine schedules no sampling events and the hot paths
    /// are untouched.
    pub metrics: ibis_metrics::MetricsConfig,
    /// Fault-injection configuration (see `ibis-faults`). Defaults to the
    /// environment (`IBIS_FAULTS="broker@10+5;crash@20+30:n2"` injects a
    /// schedule); with no schedule the engine allocates no fault state,
    /// schedules no fault events, and produces byte-identical results to a
    /// build without fault support.
    pub faults: ibis_faults::FaultsConfig,
    /// Causal-tracing configuration (see `ibis-trace`). Defaults to the
    /// environment (`IBIS_TRACE=1` enables span assembly and the latency
    /// attribution report on [`crate::report::RunReport`]); enabling it
    /// runs a flight recorder internally when observability is off, but
    /// never changes results — reports are byte-identical with tracing
    /// on or off.
    pub trace: ibis_trace::TraceConfig,
    /// Inert: nothing reads it, and it defaults to 1. A run is one serial
    /// event loop (DESIGN.md §14); the field stays only because the repo
    /// benchmark's struct literal still sets it.
    pub partitions: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            cores_per_node: 12,
            memory_per_node: 24 * GIB,
            hdfs_device: DeviceSpec::default_hdd(),
            scratch_device: DeviceSpec::default_hdd(),
            nic_bw: 250e6,
            policy: Policy::Native,
            coordination: false,
            network_control: false,
            sync_period: SimDuration::from_secs(1),
            block_size: HDFS_BLOCK,
            replication: 3,
            placement: Placement::Uniform,
            rack_size: 0,
            broker_tree: None,
            chunk: IO_CHUNK,
            hdfs_write_window: 16,
            auto_reference: true,
            seed: 0x1b15,
            obs: ibis_obs::ObsConfig::from_env(),
            metrics: ibis_metrics::MetricsConfig::from_env(),
            faults: ibis_faults::FaultsConfig::from_env(),
            trace: ibis_trace::TraceConfig::from_env(),
            partitions: 1,
        }
    }
}

impl ClusterConfig {
    /// Total CPU cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Sets the scheduling policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables broker coordination (builder style).
    pub fn with_coordination(mut self, on: bool) -> Self {
        self.coordination = on;
        self
    }

    /// Uses the SSD device models on both devices (builder style).
    pub fn with_ssd(mut self) -> Self {
        self.hdfs_device = DeviceSpec::default_ssd();
        self.scratch_device = DeviceSpec::default_ssd();
        self
    }

    /// Enables causal tracing (builder style): the latency attribution
    /// report and the engine self-profile on the report.
    pub fn with_trace(mut self) -> Self {
        self.trace = ibis_trace::TraceConfig::on();
        self
    }

    /// Groups nodes into racks of `rack_size` (builder style): the
    /// namenode keeps replicas near the writer (one off-rack for
    /// durability), readers and failover prefer same-rack replicas, and
    /// the broker tree — if enabled — places one leaf aggregator per
    /// rack. Clamped to ≥ 1.
    pub fn with_racks(mut self, rack_size: u32) -> Self {
        self.rack_size = rack_size.max(1);
        self
    }

    /// Coordinates through the hierarchical broker tree (builder style):
    /// racks of `rack_size` nodes each report to a leaf aggregator under
    /// one root, with `hop_latency` of control latency per tree hop. Sets
    /// the rack topology too, so placement and coordination agree on it,
    /// and switches coordination on (a tree with no sync is meaningless).
    pub fn with_broker_tree(mut self, rack_size: u32, hop_latency: SimDuration) -> Self {
        self.coordination = true;
        self.rack_size = rack_size.max(1);
        self.broker_tree = Some(ibis_core::broker_tree::BrokerTreeConfig {
            rack_size: self.rack_size,
            hop_latency,
        });
        self
    }
}

/// One unit of submitted work.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A single MapReduce job.
    Job(JobSpec),
    /// A Hive query: a sequential chain of jobs.
    Query(HiveQuery),
}

/// A complete experiment: a cluster plus the work submitted to it.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The cluster description.
    pub cluster: ClusterConfig,
    /// Submitted workloads.
    pub workloads: Vec<Workload>,
}

impl Experiment {
    /// Creates an empty experiment on `cluster`.
    pub fn new(cluster: ClusterConfig) -> Self {
        Experiment {
            cluster,
            workloads: Vec::new(),
        }
    }

    /// Adds a MapReduce job.
    pub fn add_job(&mut self, spec: JobSpec) -> &mut Self {
        self.workloads.push(Workload::Job(spec));
        self
    }

    /// Adds a batch of jobs in order — e.g. a generated open-system
    /// workload (`ibis_workgen::MixConfig::compose`, `swim::facebook2009`).
    pub fn add_jobs(&mut self, specs: impl IntoIterator<Item = JobSpec>) -> &mut Self {
        for spec in specs {
            self.workloads.push(Workload::Job(spec));
        }
        self
    }

    /// Composes a multi-tenant mix from its seed and submits every
    /// generated job (arrival-ordered). The engine registers one I/O flow
    /// per tenant on first arrival and reports per-tenant
    /// arrival→completion latency in [`crate::report::RunReport::tenants`].
    pub fn add_mix(&mut self, mix: &ibis_workgen::MixConfig) -> &mut Self {
        self.add_jobs(mix.compose())
    }

    /// Parses a JSONL workload trace (`ibis_workgen::trace`) and submits
    /// its jobs. Errors name the offending trace line.
    pub fn add_trace(&mut self, text: &str) -> Result<&mut Self, String> {
        let records = ibis_workgen::trace::parse(text)?;
        Ok(self.add_jobs(ibis_workgen::trace::to_specs(&records)))
    }

    /// Adds a Hive query workflow.
    pub fn add_query(&mut self, query: HiveQuery) -> &mut Self {
        self.workloads.push(Workload::Query(query));
        self
    }

    /// Runs the experiment to completion and returns the report.
    pub fn run(&self) -> crate::report::RunReport {
        crate::engine::Sim::new(self).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.total_cores(), 96);
        assert_eq!(c.nodes as u64 * c.memory_per_node, 192 * GIB);
        assert_eq!(c.block_size, 134_217_728);
        assert_eq!(c.replication, 3);
        assert_eq!(c.sync_period, SimDuration::from_secs(1));
    }

    #[test]
    fn builders() {
        let c = ClusterConfig::default()
            .with_policy(Policy::SfqD { depth: 4 })
            .with_coordination(true)
            .with_ssd();
        assert!(matches!(c.policy, Policy::SfqD { depth: 4 }));
        assert!(c.coordination);
        assert!(matches!(c.hdfs_device, DeviceSpec::Ssd(_)));
    }

    #[test]
    fn device_spec_builds_distinct_seeds() {
        let spec = DeviceSpec::default_hdd();
        let a = spec.build(0);
        let b = spec.build(1);
        match (a, b) {
            (DeviceModel::Hdd(x), DeviceModel::Hdd(y)) => {
                assert_ne!(x.config().seed, y.config().seed);
            }
            _ => panic!("expected HDDs"),
        }
    }
}
