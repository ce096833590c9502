//! The benchmark's workloads and the cluster configurations they run on.
//!
//! Every input is generated here, before any timed region starts. Each
//! workload submits a fixed job trace: the SWIM jobs are the paper
//! figure's own sample, the flood jobs the scale bench's, with arrivals on
//! open Poisson schedules in simulated time, so the offered load never
//! depends on how fast the host runs the simulator. The benchmark seed
//! drives the randomized parts of the system — block placement, HDD seek
//! and rotation jitter, and the fault schedule's coins — so every seed
//! offers the same work and the spread of a timing across seeds measures
//! the simulator and the host. (Redrawing the arrivals too moved `run_s`
//! by up to 20% from seed to seed: how many jobs overlap sets the cost of
//! every assignment scan.)
//!
//! Every `ClusterConfig` field that `ClusterConfig::default()` would read
//! from the environment (`obs`, `metrics`, `faults`, `trace`,
//! `partitions`) is set explicitly, so no `IBIS_*` variable can change
//! what a workload measures.

use ibis_cluster::{ClusterConfig, DeviceSpec, Experiment};
use ibis_core::scheduler::Policy;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::rng::SimRng;
use ibis_simcore::units::GIB;
use ibis_simcore::{SimDuration, SimTime};
use ibis_storage::HddConfig;
use ibis_trace::TraceConfig;
use ibis_workgen::MixConfig;
use ibis_workloads::{facebook2009, teragen, SwimConfig};

/// Nodes per rack in the rack-scale workloads (one leaf aggregator each).
const RACK: u32 = 16;

/// Seed of the flood workloads' job trace (the scale bench's).
const FLOOD_CATALOG: u64 = 0x5ca1e;

/// Flight-recorder ring per node for observed runs: large enough that no
/// workload here ever evicts an event.
pub const OBS_CAPACITY: usize = 1 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 9 IBIS case: SWIM jobs beside a TeraGen on the
    /// 8-node HDD testbed under SFQ(D2) and the flat broker.
    PaperSwimHdd,
    /// A smaller Fig. 9 case with every observability tap on, plus the
    /// post-run analysis users run over the captures.
    SwimObserved,
    /// The 1024-node broker-tree flood: costs that grow with node count.
    Flood1024,
    /// 256 nodes under the all-kinds chaos schedule: the armed
    /// fault-tolerant coordination protocol and degraded SFQ(D2).
    RackChaos256,
}

impl Kind {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Kind; 4] = [
        Kind::PaperSwimHdd,
        Kind::SwimObserved,
        Kind::Flood1024,
        Kind::RackChaos256,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSwimHdd => "paper_swim_hdd",
            Kind::SwimObserved => "swim_observed",
            Kind::Flood1024 => "flood_1024",
            Kind::RackChaos256 => "rack_chaos_256",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload's timed reps run the observability taps.
    pub fn observed(self) -> bool {
        self == Kind::SwimObserved
    }

    /// Whether the workload injects faults.
    pub fn chaotic(self) -> bool {
        self == Kind::RackChaos256
    }
}

/// The scale of one workload instance: SWIM jobs and TeraGen GiB for the
/// HDD workloads, flood tenants (two jobs each) and nodes for the rack
/// workloads. The reduced scale keeps each workload's structure — cluster
/// shape, fault schedule, taps — and runs in seconds in a debug build.
fn scale(kind: Kind, reduced: bool) -> (u32, u64) {
    match (kind, reduced) {
        (Kind::PaperSwimHdd, false) => (50, 1024),
        (Kind::PaperSwimHdd, true) => (6, 4),
        (Kind::SwimObserved, false) => (24, 256),
        (Kind::SwimObserved, true) => (4, 2),
        (Kind::Flood1024, false) => (128, 1024),
        (Kind::Flood1024, true) => (8, 64),
        (Kind::RackChaos256, false) => (192, 256),
        (Kind::RackChaos256, true) => (12, 64),
    }
}

/// Stream numbers for the per-purpose seeds derived from the benchmark
/// seed.
mod stream {
    pub const CLUSTER: u64 = 1;
    pub const DEVICES: u64 = 2;
    pub const FAULTS: u64 = 3;
}

/// A generated workload instance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The benchmark seed it was generated from.
    pub seed: u64,
    /// The experiment the timed reps run, with the workload's own taps.
    pub exp: Experiment,
    /// Wall seconds spent generating the inputs.
    pub gen_s: f64,
}

impl Workload {
    /// The full-size workload for `seed`.
    pub fn build(kind: Kind, seed: u64) -> Workload {
        Workload::at_scale(kind, seed, false)
    }

    /// A reduced-size twin of [`Workload::build`] that runs in seconds in
    /// a debug build. Exists for the benchmark's own tests.
    pub fn reduced(kind: Kind, seed: u64) -> Workload {
        Workload::at_scale(kind, seed, true)
    }

    fn at_scale(kind: Kind, seed: u64, reduced: bool) -> Workload {
        let t = std::time::Instant::now();
        let (jobs, volume) = scale(kind, reduced);
        let cluster_seed = SimRng::stream_seed(seed, stream::CLUSTER);
        let mut exp = match kind {
            Kind::PaperSwimHdd | Kind::SwimObserved => {
                let hdd = HddConfig {
                    seed: SimRng::stream_seed(seed, stream::DEVICES),
                    ..HddConfig::default()
                };
                let cluster = ClusterConfig {
                    hdfs_device: DeviceSpec::Hdd(hdd.clone()),
                    scratch_device: DeviceSpec::Hdd(hdd),
                    ..pinned(cluster_seed)
                }
                .with_policy(Policy::SfqD2(SfqD2Config::default()))
                .with_coordination(true);
                let mut exp = Experiment::new(cluster);
                let swim = SwimConfig {
                    jobs,
                    ..SwimConfig::default()
                };
                for mut job in facebook2009(&swim) {
                    job.io_weight = 32.0;
                    job.max_slots = Some(48);
                    exp.add_job(job);
                }
                exp.add_job(teragen(volume * GIB).io_weight(1.0).max_slots(48));
                exp
            }
            Kind::Flood1024 | Kind::RackChaos256 => {
                let ideal = DeviceSpec::Ideal {
                    bandwidth: 300e6,
                    latency: SimDuration::from_millis(2),
                };
                let mut cluster = ClusterConfig {
                    nodes: volume as u32,
                    cores_per_node: 4,
                    hdfs_device: ideal.clone(),
                    scratch_device: ideal,
                    auto_reference: false,
                    ..pinned(cluster_seed)
                }
                .with_policy(Policy::SfqD2(SfqD2Config::default()))
                .with_broker_tree(RACK, SimDuration::from_micros(50));
                if kind.chaotic() {
                    cluster.faults = FaultsConfig {
                        enabled: true,
                        schedule: chaos_schedule(SimRng::stream_seed(seed, stream::FAULTS)),
                        staleness_bound: SimDuration::from_secs(2),
                        retry_backoff: SimDuration::from_millis(100),
                        retry_limit: 3,
                    };
                }
                let mut exp = Experiment::new(cluster);
                exp.add_mix(&MixConfig::flood(
                    FLOOD_CATALOG,
                    jobs,
                    2,
                    SimDuration::from_secs(10),
                ));
                exp
            }
        };
        if kind.observed() {
            set_taps(&mut exp.cluster, true);
        }
        Workload {
            kind,
            seed,
            exp,
            gen_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Jobs the workload submits.
    pub fn jobs(&self) -> usize {
        self.exp.workloads.len()
    }

    /// The same input with every observability tap off — the twin whose
    /// outcome an observed run must reproduce exactly.
    pub fn taps_off(&self) -> Experiment {
        let mut exp = self.exp.clone();
        set_taps(&mut exp.cluster, false);
        exp
    }
}

/// Turns the recorder, the metrics sampler and tracing on or off together.
fn set_taps(cluster: &mut ClusterConfig, on: bool) {
    if on {
        cluster.obs = ObsConfig::enabled(OBS_CAPACITY);
        cluster.metrics = MetricsConfig::enabled(ibis_metrics::DEFAULT_SAMPLE_PERIOD);
        cluster.trace = TraceConfig::on();
    } else {
        cluster.obs = ObsConfig::default();
        cluster.metrics = MetricsConfig::default();
        cluster.trace = TraceConfig::default();
    }
}

/// The paper's testbed defaults with every environment-read field pinned
/// off and a serial engine.
fn pinned(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        obs: ObsConfig::default(),
        metrics: MetricsConfig::default(),
        faults: FaultsConfig::default(),
        trace: TraceConfig::default(),
        partitions: 1,
        ..ClusterConfig::default()
    }
}

/// The all-kinds chaos schedule of the 256-node determinism suite: a
/// broker outage, dropped, duplicated and reordered reports, delayed
/// replies, a node crash with restart, a leaf-aggregator crash and a rack
/// partition.
fn chaos_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .broker_outage(SimTime::from_secs(15), SimDuration::from_secs(6))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 5)
        .dup_reports(SimTime::ZERO, SimDuration::from_secs(3600), 7)
        .reorder_reports(SimTime::ZERO, SimDuration::from_secs(3600), 9)
        .delay_replies(
            SimTime::from_secs(30),
            SimDuration::from_secs(4),
            SimDuration::from_millis(1500),
        )
        .node_crash(33, SimTime::from_secs(20), Some(SimDuration::from_secs(10)))
        .aggregator_crash(1, SimTime::from_secs(18), SimDuration::from_secs(6))
        .rack_partition(2, SimTime::from_secs(26), SimDuration::from_secs(5))
}
