//! The discrete-event cluster engine.
//!
//! One `Sim` owns the full system state of Fig. 5: worker nodes (CPU/memory
//! slots, two storage devices each with an interposed IBIS scheduler, an
//! ingress network link), the namenode, the YARN-style job manager, and
//! the scheduling broker. The event loop advances simulated time and
//! drives task plans through the interposed I/O paths:
//!
//! * `DiskIo` steps are submitted to the node's scheduler (persistent I/O
//!   to the HDFS device, intermediate/shuffle I/O to the scratch device),
//!   dispatched to the device under the scheduler's concurrency bound, and
//!   completed with the measured device latency fed back to the SFQ(D2)
//!   controller.
//! * `RemoteRead` = persistent read at the replica holder + ingress
//!   transfer at the reader.
//! * `HdfsWriteChunk` = the replication pipeline: a local persistent write
//!   plus per-remote-replica transfer + persistent write, completing when
//!   all replicas are durable.
//! * `ShuffleGather` = bounded-parallel pulls of map outputs (shuffle-class
//!   read at the map's node + ingress transfer at the reducer), resumed as
//!   further maps finish.

use crate::config::{ClusterConfig, DeviceSpec, Experiment, Workload};
use crate::report::{AssignStats, JobSummary, QuerySummary, RunReport};
use ibis_core::scheduler::{IoScheduler, Policy};
use ibis_core::slab::{ChainKey, CompKey, IoKey, Slab, SlabKey, TaskKey, XferKey};
use ibis_core::{
    AppId, BrokerTree, IoClass, IoKind, Request, SchedulingBroker, SfqD2Config, Staleness,
};
use ibis_dfs::{BlockInfo, Namenode, NamenodeConfig, NodeId};
use ibis_mapreduce::job::JobEvent;
use ibis_mapreduce::{JobId, JobManager, Step, TaskAssignment, TaskKind, TaskRef};
use ibis_metrics::{Labels, MetricsRegistry, Sampler};
use ibis_obs::{EventKind, FlightRecorder, ObsEvent, RecordingMeta};
use ibis_simcore::metrics::{Histogram, TimeSeries};
use ibis_simcore::{EventQueue, SimDuration, SimTime};
use ibis_storage::{profile_device, Device, DeviceModel, DeviceRequest, PsLink, ReferenceLatency};
use ibis_workloads::HiveQuery;
use std::collections::HashMap;
use std::time::Instant;

mod coord;
mod faults;

use coord::CoordPlane;
use faults::FaultState;

/// Index of the HDFS-data device on each node.
const DEV_HDFS: usize = 0;
/// Index of the intermediate-data device on each node.
const DEV_SCRATCH: usize = 1;

fn dev_of(class: IoClass) -> usize {
    match class {
        IoClass::Persistent => DEV_HDFS,
        // The paper's testbed stores intermediate data on the second disk;
        // shuffle serves map outputs, which are intermediate data.
        IoClass::Intermediate | IoClass::Shuffle => DEV_SCRATCH,
    }
}

fn storage_kind(kind: IoKind) -> ibis_storage::IoKind {
    match kind {
        IoKind::Read => ibis_storage::IoKind::Read,
        IoKind::Write => ibis_storage::IoKind::Write,
    }
}

#[derive(Debug, Clone)]
enum Event {
    /// A job (or workflow head) arrives: submit the pending workload with
    /// this index, registering its tenant flow on first arrival. The
    /// open-system entry point — arrival processes schedule one of these
    /// per generated job.
    JobArrival(usize),
    /// A device finished servicing request `io`.
    DeviceDone { node: u32, dev: usize, io: IoKey },
    /// A node's ingress link timer.
    LinkTimer { node: u32, epoch: u64 },
    /// Periodic scheduler housekeeping on one device queue.
    SchedTick { node: u32, dev: usize },
    /// Periodic broker synchronisation (§5).
    BrokerSync,
    /// A task finished a compute step.
    ComputeDone { slot: TaskKey },
    /// Metrics sampling tick. A pure observer: it is excluded from the
    /// event/end-time accounting so enabling telemetry cannot change the
    /// reported `events` or `makespan`.
    MetricsSample,
    /// The start (or, with `end`, the end) of fault `fault`'s window:
    /// an index into the fault schedule (fault injection).
    FaultEdge { fault: u32, end: bool },
    /// Bounded-backoff retry of a sync round that found the broker dark.
    BrokerRetry { attempt: u32 },
    /// Deliver a batch of broker replies held back by a reply-delay fault.
    DeliverReplies { batch: u32 },
    /// Bounded-backoff rack re-convergence probe after a rack-local
    /// fault window (PR 5's retry-chain shape, scoped to one rack).
    RackRetry { rack: u32, attempt: u32 },
}

impl Event {
    /// Event kind names, indexed by [`Event::kind`]: the rows of the
    /// engine self-profile's per-kind handler split.
    const KINDS: [&'static str; 11] = [
        "JobArrival",
        "DeviceDone",
        "LinkTimer",
        "SchedTick",
        "BrokerSync",
        "ComputeDone",
        "MetricsSample",
        "FaultEdge",
        "BrokerRetry",
        "DeliverReplies",
        "RackRetry",
    ];

    /// This event's index into [`Event::KINDS`].
    fn kind(&self) -> usize {
        match self {
            Event::JobArrival(_) => 0,
            Event::DeviceDone { .. } => 1,
            Event::LinkTimer { .. } => 2,
            Event::SchedTick { .. } => 3,
            Event::BrokerSync => 4,
            Event::ComputeDone { .. } => 5,
            Event::MetricsSample => 6,
            Event::FaultEdge { .. } => 7,
            Event::BrokerRetry { .. } => 8,
            Event::DeliverReplies { .. } => 9,
            Event::RackRetry { .. } => 10,
        }
    }
}

/// HDFS pipeline ack window: chunks of one block pipeline that may be
/// unacknowledged (in transfer or queued at the downstream disk) before
/// the sender stalls. Models the aggregate buffering along a real
/// pipeline — the DFSClient's in-flight packet allowance, both sockets'
/// TCP buffers, and the receiving DataNode's write-behind — which
/// together absorb tens of MB per block chain.
const PIPELINE_WINDOW: u32 = 12;

/// Intermediate-write window: Hadoop spills via a background thread
/// while the task keeps producing, so spill writes overlap compute.
const INTERMEDIATE_WRITE_WINDOW: u32 = 2;

/// Read-ahead window of a job that sets no `JobSpec::read_ahead`: input
/// and merge read chunks a task may have in flight (HDFS client
/// streaming + datanode readahead). At 1 reads are synchronous at the
/// 4 MiB chunk level — Hadoop's effective readahead is small relative to
/// the chunk size. Larger windows overlap reads with compute (the
/// per-chunk read→compute causality is relaxed to aggregate streaming
/// behaviour; see DESIGN.md).
const READ_WINDOW: u32 = 1;

/// Bin width of the throughput time series.
const SERIES_BIN: SimDuration = SimDuration::from_secs(1);

/// Deadlock guard: a run aborts if simulated time exceeds this bound.
const MAX_SIM_TIME: SimDuration = SimDuration::from_secs(48 * 3600);

/// Bucket upper bounds (ms) for the per-device completion-latency
/// histograms recorded when metrics are enabled.
const IO_LATENCY_BOUNDS_MS: [f64; 10] =
    [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];

/// Bucket upper bounds (seconds) for the broker reply-staleness
/// histogram sampled during fault-injection runs.
const STALENESS_BOUNDS_S: [f64; 8] = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0];

/// Engine-side telemetry state (None unless `cfg.metrics.enabled`).
struct MetricsState {
    registry: MetricsRegistry,
    sampler: Sampler,
    /// Reusable buffer schedulers append their samples into.
    scratch: Vec<ibis_metrics::Sample>,
}

/// Async-I/O categories a task holds credits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoCat {
    /// Input / merge reads (streamed with readahead).
    Read,
    /// Intermediate (local-FS) writes (background spill thread).
    IWrite,
    /// HDFS output writes (DFSOutputStream pipelining).
    HWrite,
}

/// What to do when an async operation completes. `Copy`: continuations
/// carry only typed arena keys and scalars, so queuing and re-queuing
/// them (pipeline chains) never touches the heap.
#[derive(Debug, Clone, Copy)]
enum Cont {
    /// An async task I/O of the given category completed.
    AsyncDone { slot: TaskKey, cat: IoCat },
    /// Remote-read disk part done: stream the data to the reader. Carries
    /// the raw block id and stream key so a crashed source node can be
    /// failed over to a surviving HDFS replica.
    RemoteReadDisk {
        slot: TaskKey,
        bytes: u64,
        block: u64,
        stream: u64,
    },
    /// Shuffle pull disk part done: stream to the reducer (or complete if
    /// the map output is local).
    PullDisk {
        slot: TaskKey,
        from: u32,
        bytes: u64,
    },
    /// Shuffle pull fully delivered.
    PullDone { slot: TaskKey },
    /// One replica of a pipelined HDFS write is durable. When the write
    /// happened at a remote replica, `chain` identifies the (writer task,
    /// target node) pipeline to release — HDFS streams a block over one
    /// TCP chain, and a stalled downstream disk back-pressures the sender
    /// (the paper's §3: storage endpoint control indirectly throttles the
    /// network).
    WritePart {
        comp: CompKey,
        chain: Option<(TaskKey, u32)>,
    },
    /// Pipeline transfer delivered: write the replica at `target`.
    ReplicaXfer {
        comp: CompKey,
        slot: TaskKey,
        target: u32,
        bytes: u64,
        stream: u64,
        app: AppId,
    },
}

struct DeviceQueue {
    device: DeviceModel,
    sched: Box<dyn IoScheduler + Send>,
}

struct Node {
    free_cores: u32,
    free_mem: u64,
    devs: [DeviceQueue; 2],
    rx: PsLink,
}

struct GatherState {
    job: JobId,
    fetched: usize,
    active: u32,
    done: u32,
    fetchers: u32,
    maps_total: u32,
}

struct RunningTask {
    assignment: TaskAssignment,
    node: u32,
    step_idx: usize,
    gather: Option<GatherState>,
    /// Current open HDFS output block and bytes written into it.
    block: Option<(BlockInfo, u64)>,
    /// In-flight async I/Os per category (reads, intermediate writes,
    /// HDFS writes).
    inflight: [u32; 3],
    /// Effective read-ahead window for this task (job override or
    /// `READ_WINDOW`).
    read_window: u32,
    /// The category whose full window paused this task, if any.
    blocked_on: Option<IoCat>,
    /// The plan is exhausted; waiting for in-flight I/O to drain.
    draining: bool,
    /// Open HDFS pipeline chains of this (writer) task, one per remote
    /// replica node. At most `replication − 1` entries, so a linear scan
    /// beats any map.
    open_chains: Vec<(u32, ChainKey)>,
}

fn cat_idx(cat: IoCat) -> usize {
    match cat {
        IoCat::Read => 0,
        IoCat::IWrite => 1,
        IoCat::HWrite => 2,
    }
}

/// Everything the engine must remember about an interposed I/O from
/// submission until the device completes it: the continuation plus the
/// routing and dispatch-time state. One arena entry per I/O (completion
/// does a single lookup).
struct IoCtx {
    cont: Cont,
    app: AppId,
    kind: IoKind,
    bytes: u64,
    /// Set when the scheduler dispatches the request to the device; until
    /// then it holds the submission instant.
    dispatched: SimTime,
    /// Node the I/O physically executes at (crash sweeps match on it).
    node: u32,
    /// Device index at that node.
    dev: u8,
    /// Stream key, kept so a parked I/O can be re-submitted on restart.
    stream: u64,
}

struct CompState {
    remaining: u32,
    slot: TaskKey,
}

/// One HDFS block-pipeline chain (writer task → replica node).
#[derive(Default)]
struct Chain {
    /// Chunks produced but not yet on the wire.
    queued: std::collections::VecDeque<(u64, Cont)>,
    /// A chunk is currently in transfer.
    wire_busy: bool,
    /// Chunks transferred or transferring whose downstream disk write has
    /// not yet completed.
    unacked: u32,
}

/// One pending workload submission.
enum Pending {
    Job(ibis_mapreduce::JobSpec),
    Query(HiveQuery),
}

/// Engine-side state for one tenant of a multi-tenant run. All of a
/// tenant's jobs map onto one application flow (the first job's `AppId`),
/// so DSFQ weights, broker totals and service accounting are pooled per
/// tenant — the paper's per-application scheduling generalised to
/// open-system tenants.
struct TenantState {
    name: String,
    /// The shared flow id (first tenant job's app).
    app: AppId,
    submitted: u64,
    finished: u64,
    /// Arrival→completion latency, nanoseconds.
    latency: Histogram,
}

/// Engine-side record of one application flow, dense by `AppId.0`: its
/// registration and its I/O ledger. The ledger is the run's one count of
/// what each flow was served: `device_done` writes every completion here
/// whichever scheduler was in place, so a node restart, which replaces
/// the node's schedulers, loses none of it.
struct FlowRecord {
    /// Live jobs on the flow. Broker flow state is retired only when the
    /// count returns to zero, so a tenant's pooled service totals survive
    /// across its jobs.
    live: u32,
    /// The flow's IBIS I/O weight, fixed when its first job registers (a
    /// tenant's first-arrival weight, or a tenant-less job's own). Every
    /// reader — scheduler registration, node restarts, network sharing
    /// and the recording — takes it from here, so a tenant whose jobs
    /// carry different weights still has one weight everywhere.
    weight: f64,
    /// Storage bytes served to the flow.
    served: u64,
    /// Bytes read per `SERIES_BIN`; empty until a read completes.
    read: TimeSeries,
    /// Bytes written per `SERIES_BIN`; empty until a write completes.
    write: TimeSeries,
    /// Dispatch→complete latency of every completion, ns. Created on the
    /// flow's first completion, so only flows with I/O allocate one; its
    /// presence is what puts the flow in `RunReport::app_service`.
    latency: Option<Histogram>,
}

impl Default for FlowRecord {
    /// An unregistered flow runs at the schedulers' default weight.
    fn default() -> Self {
        FlowRecord {
            live: 0,
            weight: 1.0,
            served: 0,
            read: TimeSeries::new(SERIES_BIN),
            write: TimeSeries::new(SERIES_BIN),
            latency: None,
        }
    }
}

impl FlowRecord {
    /// Counts one device completion.
    fn io_done(&mut self, kind: IoKind, bytes: u64, latency: SimDuration, now: SimTime) {
        self.served += bytes;
        let series = match kind {
            IoKind::Read => &mut self.read,
            IoKind::Write => &mut self.write,
        };
        series.add(now, bytes as f64);
        self.latency
            .get_or_insert_with(Histogram::new)
            .record(latency.as_nanos());
    }
}

/// Builds node `n`'s two device queues: fresh devices seeded per node
/// (HDFS salt `n`, scratch salt `1000 + n`) under fresh schedulers, each
/// SFQ(D2) controller given its device class's profiled reference
/// latencies. `Sim::new` builds every node with it, and a node restart
/// rebuilds one the same way mid-run.
fn device_queues(
    cfg: &ClusterConfig,
    refs: &[Option<ReferenceLatency>; 2],
    n: u32,
    recording: bool,
) -> [DeviceQueue; 2] {
    let queue = |dev: usize, spec: &DeviceSpec, salt: u64| {
        let mut sched = match (&cfg.policy, &refs[dev]) {
            (Policy::SfqD2(c), Some(r)) => {
                let mut c: SfqD2Config = c.clone();
                c.controller.ref_read = r.read;
                c.controller.ref_write = r.write;
                Policy::SfqD2(c).build()
            }
            (policy, _) => policy.build(),
        };
        if recording {
            sched.set_recording(true);
        }
        DeviceQueue {
            device: spec.build(salt),
            sched,
        }
    };
    [
        queue(DEV_HDFS, &cfg.hdfs_device, u64::from(n)),
        queue(DEV_SCRATCH, &cfg.scratch_device, 1000 + u64::from(n)),
    ]
}

/// The simulator. Construct with [`Sim::new`], run with [`Sim::run`].
///
/// Per-task and per-I/O state lives in generational [`Slab`]s: zero
/// allocations per event at steady state (DESIGN.md §12).
pub struct Sim {
    cfg: ClusterConfig,
    queue: EventQueue<Event>,
    nodes: Vec<Node>,
    namenode: Namenode,
    job_mgr: JobManager,
    /// One broker aggregation domain per device class (HDFS, scratch).
    /// The DSFQ delay rule assumes a homogeneous resource pool; mixing
    /// classes would let an application's use of an uncontended private
    /// resource lower its priority on the contended one (see DESIGN.md §8).
    coord: [CoordPlane; 2],
    /// Pooled buffer every scheduler drains its service report into —
    /// sync rounds allocate nothing at steady state.
    report_scratch: Vec<(AppId, u64)>,
    /// Data-plane transfer events inside one rack / across racks
    /// (both stay zero when `cfg.rack_size == 0`).
    rack_local_transfers: u64,
    cross_rack_transfers: u64,
    assign: AssignStats,
    pending: Vec<Option<Pending>>,
    submitted: usize,
    /// Job → application flow, dense by `JobId.0`. `None` until the job
    /// is registered at arrival; tenant jobs all map to the tenant's
    /// shared flow, tenant-less jobs to their own `JobId`-derived app.
    job_app: Vec<Option<AppId>>,
    /// Live-job refcount, weight and I/O ledger per application flow,
    /// dense by `AppId.0`.
    app_flows: Vec<FlowRecord>,
    /// Tenants in first-arrival order (deterministic: arrivals are
    /// totally ordered by the event queue).
    tenants: Vec<TenantState>,
    /// Tenant name → index in `tenants`. Lookup-only (never iterated), so
    /// the map's internal order cannot leak into results.
    tenant_index: HashMap<String, usize>,
    /// Job → index in `tenants`, dense by `JobId.0` (`None` = no tenant).
    job_tenant: Vec<Option<u32>>,
    /// first-stage job id → query name, for workflow reporting.
    queries: Vec<(JobId, String)>,
    tasks: Slab<TaskKey, RunningTask>,
    io_table: Slab<IoKey, IoCtx>,
    transfers: Slab<XferKey, Cont>,
    comps: Slab<CompKey, CompState>,
    /// HDFS pipeline state, one entry per open (writer task, replica
    /// node) chain — addressed through the writer's
    /// `RunningTask::open_chains`: one TCP chain per block pipeline — one
    /// chunk on the wire at a time, at most `PIPELINE_WINDOW` chunks
    /// unacknowledged (in flight or waiting at the downstream disk). A
    /// stalled downstream write back-pressures the sender (§3).
    chains: Slab<ChainKey, Chain>,
    /// Retired [`Chain`] shells kept to recycle their chunk deques.
    chain_pool: Vec<Chain>,
    /// Reducers waiting for more map outputs, indexed by `JobId` (dense:
    /// job ids are assigned sequentially). Slots are cleared, not
    /// removed, when a job finishes, so the per-job vectors are reused.
    gather_waiters: Vec<Vec<TaskKey>>,
    /// Reused snapshot buffer for `wake_gatherers`.
    waiter_scratch: Vec<TaskKey>,
    /// Reused device-completion buffer for the dispatch/completion paths.
    started_scratch: Vec<ibis_storage::Started>,
    /// Reused sink for finished link-transfer ids.
    link_scratch: Vec<u64>,
    events: u64,
    /// Profiled SFQ(D2) reference latencies per device class, indexed
    /// like `Node::devs`; `None` unless SFQ(D2) runs with
    /// `auto_reference`.
    refs: [Option<ReferenceLatency>; 2],
    finished: bool,
    last_event_time: SimTime,
    /// Flight recorder (None unless `cfg.obs.enabled`). Scheduler-side
    /// event buffers are drained into it through `obs_scratch` right
    /// inside the handler that produced them, so record order is true
    /// processing order.
    recorder: Option<FlightRecorder>,
    obs_scratch: Vec<(SimTime, EventKind)>,
    /// Metrics registry + sampler (None unless `cfg.metrics.enabled`).
    /// Sampling runs on its own virtual-time event; disabled it costs one
    /// branch on the completion path and nothing anywhere else.
    metrics: Option<MetricsState>,
    /// Fault-injection state (None unless `cfg.faults.active()`): with no
    /// schedule the engine allocates nothing, schedules no fault events,
    /// and every guard reduces to one `is_some` branch.
    faults: Option<FaultState>,
    /// Wall-clock self-profile accumulators (None unless `cfg.trace`):
    /// the event loop adds per-kind handler timings here, and `build_report` stamps
    /// the total. Pure wall-clock diagnostics — never in the canon.
    profile: Option<ibis_trace::EngineProfile>,
}

impl Sim {
    /// Builds the simulator for an experiment: creates nodes, devices and
    /// schedulers, registers every input file with the namenode, and
    /// schedules all workload arrivals.
    pub fn new(exp: &Experiment) -> Self {
        let cfg = exp.cluster.clone();
        assert!(cfg.nodes >= 1, "cluster needs nodes");

        // §4 offline profiling: derive reference latencies per device type
        // when running SFQ(D2) with auto_reference.
        let refs = if cfg.auto_reference && matches!(cfg.policy, Policy::SfqD2(_)) {
            let profile =
                |spec: &DeviceSpec, salt| Some(profile_device(&spec.build(salt), 4, cfg.chunk));
            [
                profile(&cfg.hdfs_device, u64::MAX),
                profile(&cfg.scratch_device, u64::MAX - 1),
            ]
        } else {
            [None, None]
        };

        // Tracing attributes latency from the same event stream, so it
        // runs the recorder too (internally when obs is off: the recording
        // is then consumed by assembly and never published, keeping reports
        // byte-identical with tracing on or off). The internal recorder
        // never evicts — a truncated stream would silently attribute only
        // its suffix — and costs O(events) like the attribution sweep.
        let mut recorder = match (cfg.obs.enabled, cfg.trace.enabled) {
            (true, _) => Some(FlightRecorder::new(cfg.nodes, cfg.obs.capacity)),
            (false, true) => Some(FlightRecorder::new(cfg.nodes, usize::MAX)),
            (false, false) => None,
        };

        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|n| Node {
                free_cores: cfg.cores_per_node,
                free_mem: cfg.memory_per_node,
                devs: device_queues(&cfg, &refs, n, recorder.is_some()),
                rx: PsLink::new(cfg.nic_bw),
            })
            .collect();

        let mut namenode = Namenode::new(NamenodeConfig {
            nodes: cfg.nodes,
            block_size: cfg.block_size,
            replication: cfg.replication,
            placement: cfg.placement.clone(),
            seed: cfg.seed,
            rack_size: cfg.rack_size,
        });
        namenode.set_recording(recorder.is_some());

        // Register every referenced input file once.
        let mut seen = std::collections::HashSet::new();
        let mut register = |spec: &ibis_mapreduce::JobSpec, nn: &mut Namenode| {
            if let ibis_mapreduce::InputSpec::DfsFile { name, bytes } = &spec.input {
                if seen.insert(name.clone()) {
                    nn.create_file(name, *bytes);
                }
            }
        };
        for w in &exp.workloads {
            match w {
                Workload::Job(spec) => register(spec, &mut namenode),
                Workload::Query(q) => {
                    if let Some(first) = q.stages.first() {
                        register(first, &mut namenode);
                    }
                }
            }
        }
        // Setup-time placements (pre-loaded input files) are stamped at
        // t=0 on the block's primary node.
        if let Some(rec) = recorder.as_mut() {
            let mut placed = Vec::new();
            namenode.take_placements(&mut placed);
            for kind in placed {
                let node = match kind {
                    EventKind::BlockPlaced { primary, .. } => primary,
                    _ => 0,
                };
                rec.record(ObsEvent {
                    at: SimTime::ZERO,
                    node,
                    dev: DEV_HDFS as u8,
                    kind,
                });
            }
        }

        let mut queue = EventQueue::new();
        let mut pending = Vec::new();
        for (i, w) in exp.workloads.iter().enumerate() {
            let (arrival, p) = match w {
                Workload::Job(spec) => (spec.arrival, Pending::Job(spec.clone())),
                Workload::Query(q) => (
                    q.stages.first().map_or(SimDuration::ZERO, |s| s.arrival),
                    Pending::Query(q.clone()),
                ),
            };
            pending.push(Some(p));
            queue.push(SimTime::ZERO + arrival, Event::JobArrival(i));
        }

        // Periodic events. Each re-arms one period after it fires, so
        // they take the queue's per-period FIFO lanes, not the heap.
        if cfg.coordination && cfg.policy.coordinates() {
            queue.push_periodic(cfg.sync_period, Event::BrokerSync);
        }
        if let Some(tick) = cfg.policy.build().tick_period() {
            for n in 0..cfg.nodes {
                for dev in 0..2 {
                    queue.push_periodic(tick, Event::SchedTick { node: n, dev });
                }
            }
        }
        let metrics = cfg.metrics.enabled.then(|| {
            queue.push_periodic(cfg.metrics.sample_period, Event::MetricsSample);
            MetricsState {
                registry: MetricsRegistry::new(),
                sampler: Sampler::new(cfg.metrics.sample_period),
                scratch: Vec::new(),
            }
        });

        let faults = cfg
            .faults
            .active()
            .then(|| FaultState::new(&cfg, &mut queue));

        let profile = cfg
            .trace
            .enabled
            .then(|| ibis_trace::EngineProfile::with_kinds(&Event::KINDS));
        let mut coord = match cfg.broker_tree {
            Some(tc) => [
                CoordPlane::Tree(BrokerTree::new(tc)),
                CoordPlane::Tree(BrokerTree::new(tc)),
            ],
            None => [
                CoordPlane::Flat(SchedulingBroker::new()),
                CoordPlane::Flat(SchedulingBroker::new()),
            ],
        };
        // Fault-injected tree runs speak the self-healing protocol
        // (epoch/seq links + snapshot resync). Fault-free runs leave it
        // unarmed: an armed round on 1024 nodes costs ~3.4× the time and
        // 3.0× the sync bytes (DESIGN.md §18).
        if faults.is_some() {
            for c in &mut coord {
                if let CoordPlane::Tree(t) = c {
                    t.enable_protocol();
                }
            }
        }
        Sim {
            job_mgr: {
                let mut jm = JobManager::new(cfg.chunk);
                jm.set_rack_size(cfg.rack_size);
                jm
            },
            cfg,
            queue,
            nodes,
            namenode,
            coord,
            report_scratch: Vec::new(),
            pending,
            submitted: 0,
            job_app: Vec::new(),
            app_flows: Vec::new(),
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            job_tenant: Vec::new(),
            queries: Vec::new(),
            tasks: Default::default(),
            io_table: Default::default(),
            transfers: Default::default(),
            comps: Default::default(),
            chains: Default::default(),
            chain_pool: Vec::new(),
            gather_waiters: Vec::new(),
            waiter_scratch: Vec::new(),
            started_scratch: Vec::new(),
            link_scratch: Vec::new(),
            events: 0,
            refs,
            finished: false,
            last_event_time: SimTime::ZERO,
            profile,
            recorder,
            obs_scratch: Vec::new(),
            metrics,
            faults,
            rack_local_transfers: 0,
            cross_rack_transfers: 0,
            assign: AssignStats::default(),
        }
    }

    /// Moves any events buffered by a device's scheduler into the flight
    /// recorder, stamping node and device. Called from each handler that
    /// can make a scheduler emit, so record order matches processing order.
    /// Outlined: callers on the dispatch hot path guard on
    /// `self.recorder.is_some()` so a disabled recorder costs one branch.
    #[inline(never)]
    fn drain_sched_obs(&mut self, node: u32, dev: usize) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        self.obs_scratch.clear();
        self.nodes[node as usize].devs[dev]
            .sched
            .take_events(&mut self.obs_scratch);
        for &(at, kind) in &self.obs_scratch {
            rec.record(ObsEvent {
                at,
                node,
                dev: dev as u8,
                kind,
            });
        }
    }

    /// Outlined `Completed` emission (see `device_done`): keeps the event
    /// construction out of the completion hot path when tracing is off.
    #[expect(clippy::too_many_arguments)]
    #[inline(never)]
    fn record_completion(
        &mut self,
        node: u32,
        dev: usize,
        io: u64,
        app: AppId,
        kind: IoKind,
        bytes: u64,
        latency: SimDuration,
        now: SimTime,
    ) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        rec.record(ObsEvent {
            at: now,
            node,
            dev: dev as u8,
            kind: EventKind::Completed {
                io,
                app: app.0,
                bytes,
                write: matches!(kind, IoKind::Write),
                latency_ns: latency.as_nanos(),
            },
        });
    }

    /// Outlined `IoQueued` emission (see `issue_io`): one branch on the
    /// submit path when no recorder runs, one call when one does. The
    /// caller builds the event kind behind its recorder check.
    #[inline(never)]
    fn record_queued(&mut self, node: u32, dev: usize, queued: EventKind, now: SimTime) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        rec.record(ObsEvent {
            at: now,
            node,
            dev: dev as u8,
            kind: queued,
        });
    }

    /// Outlined task-lifecycle emission: `TaskStarted` when `app` is
    /// `Some`, `TaskFinished` otherwise. The task id packs the in-job
    /// index with the high bit set for reduces, so span assembly can
    /// tell phases apart without another field.
    #[inline(never)]
    fn record_task(&mut self, node: u32, tref: TaskRef, app: Option<AppId>, now: SimTime) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let task = tref.index
            | if matches!(tref.kind, TaskKind::Reduce) {
                0x8000_0000
            } else {
                0
            };
        let kind = match app {
            Some(app) => EventKind::TaskStarted {
                job: tref.job.0,
                task,
                app: app.0,
            },
            None => EventKind::TaskFinished {
                job: tref.job.0,
                task,
            },
        };
        rec.record(ObsEvent {
            at: now,
            node,
            dev: DEV_HDFS as u8,
            kind,
        });
    }

    /// Runs to completion and produces the report.
    pub fn run(mut self) -> RunReport {
        let wall = Instant::now();
        self.event_loop();
        assert!(
            self.finished || self.pending.is_empty(),
            "event queue drained before completion: deadlock with {} running \
             tasks at {}",
            self.tasks.len(),
            self.last_event_time
        );
        self.build_report(wall.elapsed().as_secs_f64())
    }

    /// The serial event loop: pop, account, handle, until the workload
    /// is done or the queue drains. With the self-profile on, a
    /// stopwatch around each handler banks its time by event kind;
    /// without it the loop reads no clock.
    fn event_loop(&mut self) {
        while let Some((now, ev)) = self.queue.pop() {
            // Sampling ticks are pure observers: they bypass the event and
            // end-time accounting so a metrics-enabled run reports the
            // same `events` and `makespan` as a disabled one.
            if !matches!(ev, Event::MetricsSample) {
                self.events += 1;
                self.last_event_time = now;
            }
            assert!(
                now - SimTime::ZERO <= MAX_SIM_TIME,
                "simulation exceeded MAX_SIM_TIME at {now}: likely deadlock \
                 ({} tasks running, {} queued events)",
                self.tasks.len(),
                self.queue.len()
            );
            let timed = self.profile.is_some().then(|| (ev.kind(), Instant::now()));
            self.handle(ev, now);
            if let (Some(p), Some((kind, t0))) = (self.profile.as_mut(), timed) {
                p.add_handler(kind, t0.elapsed().as_secs_f64());
            }
            if self.submitted == self.pending.len() && self.job_mgr.all_done() {
                self.finished = true;
                break;
            }
        }
    }

    fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::JobArrival(i) => self.submit_workload(i, now),
            Event::DeviceDone { node, dev, io } => self.device_done(node, dev, io, now),
            Event::LinkTimer { node, epoch } => self.link_timer(node, epoch, now),
            Event::SchedTick { node, dev } => {
                // Down nodes skip the dead queue but keep the timer alive so
                // a restarted scheduler resumes ticking without rescheduling.
                if !self.node_down(node) {
                    let dq = &mut self.nodes[node as usize].devs[dev];
                    dq.sched.on_tick(now);
                    self.pump_dispatch(node, dev, now);
                }
                if !self.finished {
                    if let Some(p) = self.nodes[node as usize].devs[dev].sched.tick_period() {
                        self.queue.push_periodic(p, Event::SchedTick { node, dev });
                    }
                }
            }
            Event::BrokerSync => {
                self.broker_sync(now);
                if !self.finished {
                    self.queue
                        .push_periodic(self.cfg.sync_period, Event::BrokerSync);
                }
            }
            Event::ComputeDone { slot } => self.advance(slot, now),
            Event::MetricsSample => {
                self.metrics_sample(now);
                if !self.finished {
                    self.queue
                        .push_periodic(self.cfg.metrics.sample_period, Event::MetricsSample);
                }
            }
            Event::FaultEdge { fault, end } => self.fault_edge(fault, end, now),
            Event::BrokerRetry { attempt } => self.broker_retry(attempt, now),
            Event::DeliverReplies { batch } => self.deliver_replies(batch, now),
            Event::RackRetry { rack, attempt } => self.rack_recover(rack, attempt, now),
        }
    }

    /// Whether fault injection has this node marked down. One branch in
    /// fault-free runs.
    #[inline]
    fn node_down(&self, node: u32) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| !f.node_up[node as usize])
    }

    // ---- workload submission -------------------------------------------

    fn submit_workload(&mut self, i: usize, now: SimTime) {
        let pending = self.pending[i].take().expect("double arrival");
        self.submitted += 1;
        match pending {
            Pending::Job(spec) => {
                let blocks = self.resolve_input(&spec);
                let id = self.job_mgr.submit(spec, blocks, now);
                self.register_job(id, now);
            }
            Pending::Query(q) => {
                let HiveQuery { name, stages } = q;
                let first = stages.first().expect("query has stages");
                let blocks = self.resolve_input(first);
                let id = self.job_mgr.submit_workflow(&name, stages, blocks, now);
                self.queries.push((id, name));
                self.register_job(id, now);
            }
        }
        self.try_assign_all(now);
    }

    /// The application flow a job's I/O is tagged with: the registered
    /// mapping (shared for tenant jobs), or the job's own id-derived app
    /// for anything submitted outside `register_job`.
    #[inline]
    fn app_of(&self, job: JobId) -> AppId {
        self.job_app
            .get(job.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| job.app())
    }

    /// Registers a newly submitted job with the flow layer. Tenant-less
    /// jobs get their own flow (`JobId`-derived app) at their spec
    /// weight, as before. Jobs carrying [`ibis_mapreduce::JobSpec::tenant`]
    /// share the tenant's flow, created on first arrival from the first
    /// job's app and weight: one DSFQ weight and one broker service total
    /// per tenant, with per-tenant arrival accounting. Later tenant jobs
    /// keep the flow's weight whatever their own spec says. Called for
    /// every submission path — direct jobs, workflow heads, and later
    /// workflow stages.
    fn register_job(&mut self, id: JobId, now: SimTime) {
        let (tenant, weight) = {
            let rt = self.job_mgr.job(id).expect("registering unknown job");
            (rt.spec.tenant.clone(), rt.spec.io_weight)
        };
        let (app, weight, tenant_idx) = match tenant {
            None => (id.app(), weight, None),
            Some(name) => match self.tenant_index.get(&name) {
                Some(&ti) => {
                    let t = &mut self.tenants[ti];
                    t.submitted += 1;
                    let app = t.app;
                    (app, self.weight_of(app), Some(ti as u32))
                }
                None => {
                    let app = id.app();
                    let ti = self.tenants.len();
                    self.tenant_index.insert(name.clone(), ti);
                    self.tenants.push(TenantState {
                        name,
                        app,
                        submitted: 1,
                        finished: 0,
                        latency: Histogram::new(),
                    });
                    (app, weight, Some(ti as u32))
                }
            },
        };
        let slot = id.0 as usize;
        if self.job_app.len() <= slot {
            self.job_app.resize(slot + 1, None);
            self.job_tenant.resize(slot + 1, None);
        }
        self.job_app[slot] = Some(app);
        self.job_tenant[slot] = tenant_idx;
        let flow = self.flow_mut(app);
        flow.live += 1;
        flow.weight = weight;
        self.set_app_weight(app, weight);
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(ObsEvent {
                at: now,
                node: 0,
                dev: 0,
                kind: EventKind::JobArrived {
                    job: id.0,
                    app: app.0,
                },
            });
        }
    }

    fn resolve_input(&mut self, spec: &ibis_mapreduce::JobSpec) -> Vec<BlockInfo> {
        match &spec.input {
            ibis_mapreduce::InputSpec::DfsFile { name, .. } => {
                // Copy the ids out first: `locate` re-borrows the namenode.
                let ids = self
                    .namenode
                    .file_blocks(name)
                    .unwrap_or_else(|| panic!("input file {name} not registered"))
                    .to_vec();
                ids.iter()
                    .map(|&b| self.namenode.locate(b).expect("block exists").clone())
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    fn set_app_weight(&mut self, app: AppId, weight: f64) {
        for node in &mut self.nodes {
            for dq in &mut node.devs {
                dq.sched.set_weight(app, weight);
            }
        }
    }

    // ---- slot assignment -------------------------------------------------

    fn try_assign_all(&mut self, now: SimTime) {
        // Two passes: local maps (and reduces) first across every node,
        // then remote maps — delay-scheduling-style locality preference.
        for allow_remote in [false, true] {
            self.assign_pass(allow_remote, now);
        }
    }

    /// Sweeps every node until a sweep places nothing. The fair-share
    /// candidate set does not depend on the node, so it is built once per
    /// sweep (and rebuilt by each placement) instead of once per node; a
    /// sweep whose set is empty stops before visiting any node.
    ///
    /// A placement's `advance` can finish a zero-step task, whose
    /// `finish_task` re-enters `try_assign_all` and rebuilds the set as
    /// its last step, so the set is still current when this sweep goes on.
    fn assign_pass(&mut self, allow_remote: bool, now: SimTime) {
        loop {
            self.assign.sweeps += 1;
            if !self.job_mgr.build_candidates() {
                self.assign.empty_sweeps += 1;
                break;
            }
            let mut progress = false;
            for n in 0..self.nodes.len() {
                loop {
                    let node = &self.nodes[n];
                    if node.free_cores == 0 {
                        break;
                    }
                    let free_mem = node.free_mem;
                    self.assign.attempts += 1;
                    let Some(assignment) =
                        self.job_mgr
                            .try_assign_prepared(NodeId(n as u32), free_mem, allow_remote)
                    else {
                        break;
                    };
                    self.assign.placements += 1;
                    let node = &mut self.nodes[n];
                    node.free_cores -= 1;
                    node.free_mem -= assignment.memory;
                    let tref = assignment.task;
                    if self.recorder.is_some() {
                        let app = self.app_of(tref.job);
                        self.record_task(n as u32, tref, Some(app), now);
                    }
                    let read_window = self
                        .job_mgr
                        .job(assignment.task.job)
                        .and_then(|j| j.spec.read_ahead)
                        .unwrap_or(READ_WINDOW);
                    let slot = self.tasks.insert(RunningTask {
                        assignment,
                        node: n as u32,
                        step_idx: 0,
                        gather: None,
                        block: None,
                        inflight: [0; 3],
                        read_window,
                        blocked_on: None,
                        draining: false,
                        open_chains: Vec::new(),
                    });
                    progress = true;
                    self.advance(slot, now);
                }
            }
            if !progress {
                break;
            }
        }
    }

    // ---- task driver -----------------------------------------------------

    fn advance(&mut self, slot: TaskKey, now: SimTime) {
        loop {
            let Some(task) = self.tasks.get(slot) else {
                return;
            };
            let idx = task.step_idx;
            if idx >= task.assignment.plan.steps.len() {
                if task.inflight.iter().any(|&n| n > 0) {
                    // Close-time flush: the task ends only once every
                    // pipelined read/spill/HDFS chunk has landed.
                    self.tasks.get_mut(slot).expect("exists").draining = true;
                    return;
                }
                self.finish_task(slot, now);
                return;
            }
            let node = task.node;
            let job = task.assignment.task.job;
            let app = self.app_of(job);
            let step = task.assignment.plan.steps[idx].clone();
            self.tasks.get_mut(slot).expect("exists").step_idx += 1;

            match step {
                Step::Compute(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.queue.push(now + d, Event::ComputeDone { slot });
                    return;
                }
                Step::DiskIo {
                    class,
                    kind,
                    bytes,
                    stream,
                } => {
                    if bytes == 0 {
                        continue;
                    }
                    let cat = match kind {
                        IoKind::Read => IoCat::Read,
                        IoKind::Write => IoCat::IWrite,
                    };
                    self.issue_io(
                        node,
                        class,
                        kind,
                        bytes,
                        stream,
                        app,
                        Cont::AsyncDone { slot, cat },
                        now,
                    );
                    if self.charge_credit(slot, cat) {
                        continue;
                    }
                    return;
                }
                Step::RemoteRead {
                    source,
                    block,
                    bytes,
                    stream,
                } => {
                    if bytes == 0 {
                        continue;
                    }
                    self.count_rack_transfer(source.0, node);
                    // `issue_io` fails a down source over to a surviving
                    // replica (or parks the read) via the block id carried
                    // in the continuation.
                    self.issue_io(
                        source.0,
                        IoClass::Persistent,
                        IoKind::Read,
                        bytes,
                        stream,
                        app,
                        Cont::RemoteReadDisk {
                            slot,
                            bytes,
                            block,
                            stream,
                        },
                        now,
                    );
                    if self.charge_credit(slot, IoCat::Read) {
                        continue;
                    }
                    return;
                }
                Step::HdfsWriteChunk {
                    bytes,
                    stream,
                    new_block,
                } => {
                    if bytes == 0 {
                        continue;
                    }
                    self.hdfs_write(slot, bytes, stream, new_block, now);
                    // DFSOutputStream pipelining: keep computing while up
                    // to hdfs_write_window chunks are in flight.
                    if self.charge_credit(slot, IoCat::HWrite) {
                        continue;
                    }
                    return;
                }
                Step::ShuffleGather { fetchers, .. } => {
                    let maps_total = self.job_mgr.job(job).map(|j| j.maps_total()).unwrap_or(0);
                    self.tasks.get_mut(slot).expect("exists").gather = Some(GatherState {
                        job,
                        fetched: 0,
                        active: 0,
                        done: 0,
                        fetchers: fetchers.max(1),
                        maps_total,
                    });
                    let jidx = job.0 as usize;
                    if self.gather_waiters.len() <= jidx {
                        self.gather_waiters.resize_with(jidx + 1, Vec::new);
                    }
                    self.gather_waiters[jidx].push(slot);
                    if self.pump_gather(slot, now) {
                        continue;
                    }
                    return;
                }
            }
        }
    }

    fn finish_task(&mut self, slot: TaskKey, now: SimTime) {
        let mut task = self.tasks.remove(slot).expect("finishing unknown task");
        debug_assert!(
            task.open_chains.is_empty(),
            "task finished with open pipeline chains"
        );
        // Close any open output block with its true size.
        if let Some((mut info, accum)) = task.block.take() {
            info.bytes = accum;
            self.job_mgr
                .add_output_block(task.assignment.task.job, info);
        }
        let node = &mut self.nodes[task.node as usize];
        node.free_cores += 1;
        node.free_mem += task.assignment.memory;

        let tref = task.assignment.task;
        if self.recorder.is_some() {
            self.record_task(task.node, tref, None, now);
        }
        let events = self.job_mgr.on_task_finished(tref, now);
        // A finished map publishes a shuffle output: wake waiting reduces.
        if tref.kind == TaskKind::Map {
            self.wake_gatherers(tref.job, now);
        }
        for ev in events {
            match ev {
                JobEvent::JobFinished(job) => self.job_finished(job, now),
                JobEvent::StageSubmitted { job, .. } => {
                    // Later workflow stages register like fresh arrivals:
                    // same tenant pooling, same obs/weight plumbing.
                    self.register_job(job, now);
                }
                JobEvent::MapsFinished(_) => {}
            }
        }
        self.try_assign_all(now);
    }

    /// Job-completion bookkeeping: retire the flow only when its last
    /// live job finishes (tenants keep one flow across many jobs), record
    /// the tenant's arrival→completion latency, and emit the obs marker.
    fn job_finished(&mut self, job: JobId, now: SimTime) {
        let app = self.app_of(job);
        let runtime = self.job_mgr.job(job).and_then(|j| j.runtime());
        match self.app_flows.get_mut(app.0 as usize) {
            Some(FlowRecord { live, .. }) if *live > 0 => {
                *live -= 1;
                if *live == 0 {
                    for c in &mut self.coord {
                        c.retire(app);
                    }
                }
            }
            // Unregistered job (submitted outside the arrival path):
            // retire immediately, the pre-tenancy behaviour.
            _ => {
                for c in &mut self.coord {
                    c.retire(app);
                }
            }
        }
        if let Some(ti) = self.job_tenant.get(job.0 as usize).copied().flatten() {
            let t = &mut self.tenants[ti as usize];
            t.finished += 1;
            if let Some(rt) = runtime {
                t.latency.record(rt.as_nanos());
            }
        }
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(ObsEvent {
                at: now,
                node: 0,
                dev: 0,
                kind: EventKind::JobCompleted {
                    job: job.0,
                    app: app.0,
                    latency_ns: runtime.map_or(0, |r| r.as_nanos()),
                },
            });
        }
        if let Some(w) = self.gather_waiters.get_mut(job.0 as usize) {
            w.clear();
        }
    }

    // ---- shuffle ----------------------------------------------------------

    fn wake_gatherers(&mut self, job: JobId, now: SimTime) {
        let Some(waiters) = self.gather_waiters.get(job.0 as usize) else {
            return;
        };
        if waiters.is_empty() {
            return;
        }
        // Snapshot into the reused scratch: `pump_gather` edits the live
        // list while we iterate (same semantics as cloning it, without
        // the per-wake allocation).
        let mut snapshot = std::mem::take(&mut self.waiter_scratch);
        snapshot.clear();
        snapshot.extend_from_slice(waiters);
        for &slot in &snapshot {
            if self.pump_gather(slot, now) {
                self.advance(slot, now);
            }
        }
        self.waiter_scratch = snapshot;
    }

    /// Starts as many pulls as the fetcher bound allows. Returns true when
    /// the gather completed (and was cleared).
    fn pump_gather(&mut self, slot: TaskKey, now: SimTime) -> bool {
        loop {
            let app = match self.tasks.get(slot) {
                Some(t) => self.app_of(t.assignment.task.job),
                None => return false,
            };
            let Some(task) = self.tasks.get_mut(slot) else {
                return false;
            };
            let node = task.node;
            let Some(g) = task.gather.as_mut() else {
                // Gather already completed earlier (stale waiter entry).
                return false;
            };
            if g.done >= g.maps_total {
                task.gather = None;
                let job = task.assignment.task.job;
                if let Some(w) = self.gather_waiters.get_mut(job.0 as usize) {
                    w.retain(|&s| s != slot);
                }
                return true;
            }
            if g.active >= g.fetchers {
                return false;
            }
            let job = g.job;
            let fetched = g.fetched;
            if fetched >= self.job_mgr.shuffle.available(job) {
                return false;
            }
            let out = self.job_mgr.shuffle.outputs(job)[fetched];
            // Reserve before issuing (issue_io re-borrows self).
            {
                let g = self
                    .tasks
                    .get_mut(slot)
                    .and_then(|t| t.gather.as_mut())
                    .expect("gather state");
                g.fetched += 1;
                if out.bytes_per_reduce == 0 {
                    g.done += 1;
                    continue;
                }
                g.active += 1;
            }
            // Stream key: the producing map's spill file on its node.
            let stream = (((job.0 as u64) << 40) | ((out.map_task as u64) << 4)) + 1;
            self.issue_io(
                out.node.0,
                IoClass::Shuffle,
                IoKind::Read,
                out.bytes_per_reduce,
                stream,
                app,
                Cont::PullDisk {
                    slot,
                    from: out.node.0,
                    bytes: out.bytes_per_reduce,
                },
                now,
            );
            let _ = node;
        }
    }

    fn pull_done(&mut self, slot: TaskKey, now: SimTime) {
        if let Some(g) = self.tasks.get_mut(slot).and_then(|t| t.gather.as_mut()) {
            g.active -= 1;
            g.done += 1;
        }
        if self.pump_gather(slot, now) {
            self.advance(slot, now);
        }
    }

    /// Charges one async-I/O credit of `cat` to the task. Returns true if
    /// the task may keep executing (window not yet full), false if it must
    /// pause until a completion frees the window.
    fn charge_credit(&mut self, slot: TaskKey, cat: IoCat) -> bool {
        let t = self.tasks.get_mut(slot).expect("task exists");
        let window = match cat {
            IoCat::Read => t.read_window,
            IoCat::IWrite => INTERMEDIATE_WRITE_WINDOW,
            IoCat::HWrite => self.cfg.hdfs_write_window,
        }
        .max(1);
        let t = self.tasks.get_mut(slot).expect("task exists");
        t.inflight[cat_idx(cat)] += 1;
        if t.inflight[cat_idx(cat)] < window {
            true
        } else {
            t.blocked_on = Some(cat);
            false
        }
    }

    /// An async task I/O completed: release the credit, resume the task if
    /// it was paused on this category, or finish it if it was draining.
    fn async_done(&mut self, slot: TaskKey, cat: IoCat, now: SimTime) {
        let Some(t) = self.tasks.get_mut(slot) else {
            return;
        };
        let n = &mut t.inflight[cat_idx(cat)];
        debug_assert!(*n > 0, "async completion without credit");
        *n = n.saturating_sub(1);
        if t.blocked_on == Some(cat) {
            t.blocked_on = None;
            self.advance(slot, now);
        } else if t.draining && t.inflight.iter().all(|&x| x == 0) {
            self.finish_task(slot, now);
        }
    }

    // ---- HDFS write pipeline ----------------------------------------------

    fn hdfs_write(
        &mut self,
        slot: TaskKey,
        bytes: u64,
        stream: u64,
        new_block: bool,
        now: SimTime,
    ) {
        /// Replication factors are small (the paper uses 3); a fixed
        /// stack buffer replaces the per-chunk `replicas.clone()`.
        const MAX_REPLICAS: usize = 16;
        let (node, app, job) = {
            let t = self.tasks.get(slot).expect("task exists");
            (
                t.node,
                self.app_of(t.assignment.task.job),
                t.assignment.task.job,
            )
        };
        if new_block || self.tasks.get(slot).expect("t").block.is_none() {
            // Close the previous block with its true size, open a new one.
            if let Some((mut info, accum)) = self.tasks.get_mut(slot).expect("t").block.take() {
                info.bytes = accum;
                self.job_mgr.add_output_block(job, info);
            }
            let info = self
                .namenode
                .allocate_block(NodeId(node), self.cfg.block_size);
            self.tasks.get_mut(slot).expect("t").block = Some((info, 0));
            if let Some(rec) = self.recorder.as_mut() {
                let mut placed = Vec::new();
                self.namenode.take_placements(&mut placed);
                for kind in placed {
                    rec.record(ObsEvent {
                        at: now,
                        node,
                        dev: DEV_HDFS as u8,
                        kind,
                    });
                }
            }
        }
        let mut replicas = [NodeId(0); MAX_REPLICAS];
        let nreps = {
            let t = self.tasks.get_mut(slot).expect("t");
            let (info, accum) = t.block.as_mut().expect("block open");
            *accum += bytes;
            let n = info.replicas.len();
            assert!(n <= MAX_REPLICAS, "replication {n} exceeds pipeline buffer");
            replicas[..n].copy_from_slice(&info.replicas);
            n
        };

        let comp = self.comps.insert(CompState {
            remaining: nreps as u32,
            slot,
        });
        // Local (primary) replica write.
        self.issue_io(
            node,
            IoClass::Persistent,
            IoKind::Write,
            bytes,
            stream,
            app,
            Cont::WritePart { comp, chain: None },
            now,
        );
        // Remote replicas: pipeline transfer, then write on arrival. One
        // chunk at a time per (writer, replica) chain — the HDFS pipeline
        // is a single streamed TCP chain, not parallel flows.
        for &r in replicas[..nreps].iter().skip(1) {
            debug_assert_ne!(r.0, node, "pipeline replica equals writer");
            self.count_rack_transfer(node, r.0);
            let replica_stream = stream | ((r.0 as u64 + 1) << 48);
            let cont = Cont::ReplicaXfer {
                comp,
                slot,
                target: r.0,
                bytes,
                stream: replica_stream,
                app,
            };
            self.chain_transfer(slot, r.0, bytes, cont, now);
        }
    }

    // ---- I/O plumbing -------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn issue_io(
        &mut self,
        node: u32,
        class: IoClass,
        kind: IoKind,
        bytes: u64,
        stream: u64,
        app: AppId,
        cont: Cont,
        now: SimTime,
    ) {
        let dev = dev_of(class);
        if self.node_down(node) {
            self.io_on_down_node(node, dev, kind, bytes, stream, app, cont, now);
            return;
        }
        let key = self.io_table.insert(IoCtx {
            cont,
            app,
            kind,
            bytes,
            dispatched: now,
            node,
            dev: dev as u8,
            stream,
        });
        if self.recorder.is_some() {
            let queued = EventKind::IoQueued {
                io: key.encode(),
                app: app.0,
                bytes,
                write: matches!(kind, IoKind::Write),
            };
            self.record_queued(node, dev, queued, now);
        }
        let req = Request {
            id: key.encode(),
            app,
            class,
            kind,
            bytes,
            stream,
            submitted: now,
        };
        self.nodes[node as usize].devs[dev].sched.submit(req, now);
        self.pump_dispatch(node, dev, now);
    }

    fn pump_dispatch(&mut self, node: u32, dev: usize, now: SimTime) {
        let mut started = std::mem::take(&mut self.started_scratch);
        let dq = &mut self.nodes[node as usize].devs[dev];
        while let Some(req) = dq.sched.pop_dispatch(now) {
            // Stamp the dispatch instant: completion latency is measured
            // from here, not from submission.
            self.io_table
                .get_mut(IoKey::decode(req.id))
                .expect("dispatched io has ctx")
                .dispatched = now;
            dq.device.submit(
                DeviceRequest {
                    id: req.id,
                    kind: storage_kind(req.kind),
                    stream: req.stream,
                    bytes: req.bytes,
                },
                now,
                &mut started,
            );
        }
        for s in &started {
            self.queue.push(
                self.stretched(s.complete_at, node, dev, now),
                Event::DeviceDone {
                    node,
                    dev,
                    io: IoKey::decode(s.id),
                },
            );
        }
        started.clear();
        self.started_scratch = started;
        if self.recorder.is_some() {
            self.drain_sched_obs(node, dev);
        }
    }

    /// Applies any active straggler (device-slowdown) window to a service
    /// completion time: the remaining service stretches by the window's
    /// factor. Identity in fault-free runs and outside windows.
    #[inline]
    fn stretched(&self, complete_at: SimTime, node: u32, dev: usize, now: SimTime) -> SimTime {
        let schedule = &self.cfg.faults.schedule;
        if self.faults.is_none() || !schedule.has_slowdowns() {
            return complete_at;
        }
        let factor = schedule.slowdown(now, node, dev as u8);
        if factor == 1.0 {
            return complete_at;
        }
        let nanos = (complete_at - now).as_nanos() as f64 * factor;
        now + SimDuration::from_nanos(nanos.round() as u64)
    }

    /// Kept out of line: `handle` is its only caller, and inlined there
    /// it made the whole event loop ~10 % slower on a 1024-node flood.
    #[inline(never)]
    fn device_done(&mut self, node: u32, dev: usize, io: IoKey, now: SimTime) {
        // One arena lookup covers routing, timing, and the continuation.
        // A stale key means the I/O was swept by a node crash after the
        // device had already scheduled its completion: the generational
        // arena returns None and the event is simply dropped. Impossible
        // without fault injection.
        let Some(IoCtx {
            cont,
            app,
            kind,
            bytes,
            dispatched,
            ..
        }) = self.io_table.remove(io)
        else {
            assert!(
                self.faults.is_some(),
                "device completion for unknown io in a fault-free run"
            );
            return;
        };
        let latency = now - dispatched;
        let dq = &mut self.nodes[node as usize].devs[dev];
        dq.sched.on_complete(app, kind, bytes, latency, now);
        self.flow_mut(app).io_done(kind, bytes, latency, now);
        if let Some(m) = self.metrics.as_mut() {
            m.registry.observe(
                "io_latency_ms",
                Labels::on(node, dev as u8),
                &IO_LATENCY_BOUNDS_MS,
                latency.as_nanos() as f64 / 1e6,
            );
        }
        // The engine emits Completed itself: it has the full request
        // context here and covers every policy, including Native.
        if self.recorder.is_some() {
            self.record_completion(node, dev, io.encode(), app, kind, bytes, latency, now);
        }
        let mut started = std::mem::take(&mut self.started_scratch);
        // Re-borrow: `record_completion` above needed `&mut self`.
        let dq = &mut self.nodes[node as usize].devs[dev];
        dq.device.on_complete(io.encode(), now, &mut started);
        for s in &started {
            self.queue.push(
                self.stretched(s.complete_at, node, dev, now),
                Event::DeviceDone {
                    node,
                    dev,
                    io: IoKey::decode(s.id),
                },
            );
        }
        // Return the scratch before `pump_dispatch` takes it again.
        started.clear();
        self.started_scratch = started;
        self.pump_dispatch(node, dev, now);
        self.dispatch_cont(cont, now);
    }

    /// The open chain of `(slot, to_node)`, resolved through the writer
    /// task's `open_chains` (≤ replication−1 entries: a scan, no map).
    fn chain_key(&self, slot: TaskKey, to_node: u32) -> Option<ChainKey> {
        self.tasks
            .get(slot)?
            .open_chains
            .iter()
            .find(|&&(n, _)| n == to_node)
            .map(|&(_, k)| k)
    }

    /// Enqueues one chunk on the per-(writer, replica) pipeline chain and
    /// pumps it.
    fn chain_transfer(
        &mut self,
        slot: TaskKey,
        to_node: u32,
        bytes: u64,
        cont: Cont,
        now: SimTime,
    ) {
        let key = match self.chain_key(slot, to_node) {
            Some(k) => k,
            None => {
                // Recycle a retired chain shell (keeps its deque buffer).
                let chain = self.chain_pool.pop().unwrap_or_default();
                let k = self.chains.insert(chain);
                self.tasks
                    .get_mut(slot)
                    .expect("chain writer exists")
                    .open_chains
                    .push((to_node, k));
                k
            }
        };
        self.chains
            .get_mut(key)
            .expect("open chain")
            .queued
            .push_back((bytes, cont));
        self.pump_chain(slot, to_node, now);
    }

    /// Starts the next queued transfer if the wire is free and the ack
    /// window has room.
    fn pump_chain(&mut self, slot: TaskKey, to_node: u32, now: SimTime) {
        let window = PIPELINE_WINDOW;
        let Some(key) = self.chain_key(slot, to_node) else {
            return;
        };
        let chain = self.chains.get_mut(key).expect("open chain");
        if chain.wire_busy || chain.unacked >= window {
            return;
        }
        let Some((bytes, cont)) = chain.queued.pop_front() else {
            if chain.unacked == 0 {
                let chain = self.chains.remove(key).expect("open chain");
                debug_assert!(chain.queued.is_empty() && !chain.wire_busy);
                self.chain_pool.push(chain);
                if let Some(t) = self.tasks.get_mut(slot) {
                    t.open_chains.retain(|&(_, k)| k != key);
                }
            }
            return;
        };
        chain.wire_busy = true;
        chain.unacked += 1;
        self.start_transfer(to_node, bytes, cont, now);
    }

    /// A chain's transfer left the wire (the chunk is now queued at the
    /// downstream disk).
    fn chain_wire_free(&mut self, slot: TaskKey, to_node: u32, now: SimTime) {
        if let Some(key) = self.chain_key(slot, to_node) {
            self.chains.get_mut(key).expect("open chain").wire_busy = false;
        }
        self.pump_chain(slot, to_node, now);
    }

    /// A downstream disk write completed: the ack releases window space.
    fn chain_ack(&mut self, slot: TaskKey, to_node: u32, now: SimTime) {
        if let Some(key) = self.chain_key(slot, to_node) {
            let chain = self.chains.get_mut(key).expect("open chain");
            chain.unacked = chain.unacked.saturating_sub(1);
        }
        self.pump_chain(slot, to_node, now);
    }

    /// Tallies one data-plane transfer event against the rack topology.
    /// No-op (both counters stay zero) without racks configured.
    fn count_rack_transfer(&mut self, from: u32, to: u32) {
        let rs = self.cfg.rack_size;
        if rs == 0 {
            return;
        }
        if from / rs == to / rs {
            self.rack_local_transfers += 1;
        } else {
            self.cross_rack_transfers += 1;
        }
    }

    /// I/O-service weight of an application flow, as registered.
    fn weight_of(&self, app: AppId) -> f64 {
        self.app_flows.get(app.0 as usize).map_or(1.0, |f| f.weight)
    }

    /// `app`'s flow record, created unregistered if no job made one.
    fn flow_mut(&mut self, app: AppId) -> &mut FlowRecord {
        let ai = app.0 as usize;
        if self.app_flows.len() <= ai {
            self.app_flows.resize_with(ai + 1, FlowRecord::default);
        }
        &mut self.app_flows[ai]
    }

    fn start_transfer(&mut self, to_node: u32, bytes: u64, cont: Cont, now: SimTime) {
        // Sub-chunk transfers below the per-transfer floor are treated as
        // instantaneous control traffic.
        if bytes == 0 {
            self.dispatch_cont(cont, now);
            return;
        }
        // §3 future work: weighted fair sharing on the wire. The owning
        // application is recovered from the continuation.
        let weight = if self.cfg.network_control {
            let app = match cont {
                Cont::ReplicaXfer { app, .. } => Some(app),
                Cont::AsyncDone { slot, .. }
                | Cont::PullDone { slot }
                | Cont::PullDisk { slot, .. }
                | Cont::RemoteReadDisk { slot, .. } => self
                    .tasks
                    .get(slot)
                    .map(|t| self.app_of(t.assignment.task.job)),
                Cont::WritePart { .. } => None,
            };
            app.map_or(1.0, |a| self.weight_of(a))
        } else {
            1.0
        };
        let id = self.transfers.insert(cont).encode();
        let timer = self.nodes[to_node as usize]
            .rx
            .start(id, bytes, weight, now);
        self.queue.push(
            timer.at,
            Event::LinkTimer {
                node: to_node,
                epoch: timer.epoch,
            },
        );
    }

    fn link_timer(&mut self, node: u32, epoch: u64, now: SimTime) {
        let mut finished = std::mem::take(&mut self.link_scratch);
        finished.clear();
        let next = self.nodes[node as usize]
            .rx
            .on_timer(now, epoch, &mut finished);
        if let Some(t) = next {
            self.queue.push(
                t.at,
                Event::LinkTimer {
                    node,
                    epoch: t.epoch,
                },
            );
        }
        for &id in &finished {
            if let Some(cont) = self.transfers.remove(XferKey::decode(id)) {
                self.dispatch_cont(cont, now);
            }
        }
        finished.clear();
        self.link_scratch = finished;
    }

    fn dispatch_cont(&mut self, cont: Cont, now: SimTime) {
        match cont {
            Cont::AsyncDone { slot, cat } => self.async_done(slot, cat, now),
            Cont::RemoteReadDisk { slot, bytes, .. } => {
                let Some(task) = self.tasks.get(slot) else {
                    return;
                };
                let node = task.node;
                self.start_transfer(
                    node,
                    bytes,
                    Cont::AsyncDone {
                        slot,
                        cat: IoCat::Read,
                    },
                    now,
                );
            }
            Cont::PullDisk { slot, from, bytes } => {
                let Some(task) = self.tasks.get(slot) else {
                    return;
                };
                if task.node == from {
                    self.pull_done(slot, now);
                } else {
                    let node = task.node;
                    self.start_transfer(node, bytes, Cont::PullDone { slot }, now);
                }
            }
            Cont::PullDone { slot } => self.pull_done(slot, now),
            Cont::WritePart { comp, chain } => {
                if let Some((slot, target)) = chain {
                    // The downstream disk write finished: the ack releases
                    // pipeline window space.
                    self.chain_ack(slot, target, now);
                }
                let done = {
                    let c = self.comps.get_mut(comp).expect("composite exists");
                    c.remaining -= 1;
                    c.remaining == 0
                };
                if done {
                    let c = self.comps.remove(comp).expect("composite");
                    self.async_done(c.slot, IoCat::HWrite, now);
                }
            }
            Cont::ReplicaXfer {
                comp,
                slot,
                target,
                bytes,
                stream,
                app,
            } => {
                // The chunk left the wire; the ack (window release) comes
                // only when the downstream disk write finishes.
                self.chain_wire_free(slot, target, now);
                self.issue_io(
                    target,
                    IoClass::Persistent,
                    IoKind::Write,
                    bytes,
                    stream,
                    app,
                    Cont::WritePart {
                        comp,
                        chain: Some((slot, target)),
                    },
                    now,
                );
            }
        }
    }

    // ---- metrics ------------------------------------------------------------

    /// One sampling tick: pulls every scheduler's telemetry into gauges,
    /// refreshes the broker and engine gauges, and records one time-series
    /// point per instrument. Runs only on its own virtual-time event when
    /// `cfg.metrics.enabled`, so the submit/dispatch/complete paths never
    /// pay for it.
    fn metrics_sample(&mut self, now: SimTime) {
        let staleness_bound = self.cfg.faults.staleness_bound;
        let node_up = self.faults.as_ref().map(|fs| fs.node_up.clone());
        let tree_rs = self.tree_rack_size();
        let rack_dark: Vec<bool> = match (tree_rs, self.faults.as_ref()) {
            (rs, Some(_)) if rs > 0 => {
                let racks = (self.nodes.len() as u32).div_ceil(rs);
                let schedule = &self.cfg.faults.schedule;
                (0..racks).map(|r| schedule.rack_dark(now, r)).collect()
            }
            _ => Vec::new(),
        };
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        for (n, node) in self.nodes.iter().enumerate() {
            // A down node's schedulers are about to be replaced wholesale;
            // their last pre-crash gauges would read as live telemetry.
            if node_up.as_ref().is_some_and(|up| !up[n]) {
                continue;
            }
            for (d, dq) in node.devs.iter().enumerate() {
                m.scratch.clear();
                dq.sched.sample_metrics(now, &mut m.scratch);
                let base = Labels::on(n as u32, d as u8);
                for s in &m.scratch {
                    m.registry.set_gauge(s.name, base.with_app(s.app), s.value);
                }
            }
        }
        for (d, broker) in self.coord.iter().enumerate() {
            let labels = Labels::dev(d as u8);
            m.registry
                .set_gauge("broker_live_apps", labels, broker.live_apps() as f64);
            m.registry
                .set_gauge("broker_state_bytes", labels, broker.state_bytes() as f64);
            match broker.staleness(now, staleness_bound) {
                Staleness::Fresh(age) | Staleness::Stale(age) => {
                    m.registry
                        .set_gauge("broker_sync_age_s", labels, age.as_secs_f64());
                }
                Staleness::Dark => {}
            }
            for (app, bytes) in broker.totals_sorted() {
                m.registry.set_gauge(
                    "broker_total_bytes",
                    labels.with_app(Some(app.0)),
                    bytes as f64,
                );
            }
        }
        if let Some(fs) = &self.faults {
            let down = fs.node_up.iter().filter(|&&up| !up).count();
            m.registry
                .set_gauge("faults_nodes_down", Labels::NONE, down as f64);
            m.registry.set_gauge(
                "faults_retries_total",
                Labels::NONE,
                fs.summary.retries as f64,
            );
            m.registry.set_gauge(
                "faults_report_drops_total",
                Labels::NONE,
                fs.summary.report_drops as f64,
            );
            m.registry.set_gauge(
                "faults_broker_outages_total",
                Labels::NONE,
                fs.summary.broker_outages as f64,
            );
            m.registry.set_gauge(
                "faults_aborted_tasks_total",
                Labels::NONE,
                fs.summary.aborted_tasks as f64,
            );
            // Reply-age distribution over the run: fault-free samples
            // cluster under the sync period; outages grow the tail.
            for (d, broker) in self.coord.iter().enumerate() {
                if let Staleness::Fresh(age) | Staleness::Stale(age) =
                    broker.staleness(now, staleness_bound)
                {
                    m.registry.observe(
                        "broker_staleness_s",
                        Labels::dev(d as u8),
                        &STALENESS_BOUNDS_S,
                        age.as_secs_f64(),
                    );
                }
            }
            // Per-rack failure-domain gauges (tree runs only): the node
            // label slot carries the *rack* id. `coord_rack_dark` is the
            // injected window; `coord_rack_degraded` counts the rack's
            // schedulers that actually fell back to pure-local SFQ —
            // rack-scoped degradation keeps the two aligned and every
            // other rack's count at zero.
            for (rack, &dark) in rack_dark.iter().enumerate() {
                let rack = rack as u32;
                let lo = rack * tree_rs;
                let hi = ((rack + 1) * tree_rs).min(self.nodes.len() as u32);
                let mut degraded = 0u32;
                for n in lo..hi {
                    if fs.node_up.get(n as usize).is_some_and(|&up| !up) {
                        continue;
                    }
                    for d in 0..2 {
                        if self.nodes[n as usize].devs[d].sched.is_degraded() {
                            degraded += 1;
                        }
                    }
                }
                let labels = Labels::on(rack, 0);
                m.registry
                    .set_gauge("coord_rack_dark", labels, if dark { 1.0 } else { 0.0 });
                m.registry
                    .set_gauge("coord_rack_degraded", labels, degraded as f64);
            }
        }
        // Per-tenant open-system telemetry; no-op in closed-system runs
        // (no tenants), so legacy captures are unchanged.
        for t in &self.tenants {
            let labels = Labels::NONE.with_app(Some(t.app.0));
            m.registry
                .set_gauge("tenant_jobs_submitted", labels, t.submitted as f64);
            m.registry
                .set_gauge("tenant_jobs_finished", labels, t.finished as f64);
            if let Some(p99) = t.latency.quantile(0.99) {
                m.registry
                    .set_gauge("tenant_latency_p99_ms", labels, p99 as f64 / 1e6);
            }
        }
        m.registry.set_gauge(
            "engine_tasks_running",
            Labels::NONE,
            self.tasks.len() as f64,
        );
        m.registry
            .set_gauge("engine_events_total", Labels::NONE, self.events as f64);
        m.sampler.sample(now, &m.registry);
    }

    // ---- report ----------------------------------------------------------------

    fn build_report(mut self, wall_secs: f64) -> RunReport {
        let mut jobs = Vec::new();
        for rt in self.job_mgr.jobs() {
            let (Some(finished), Some(runtime)) = (rt.finished_at, rt.runtime()) else {
                continue;
            };
            jobs.push(JobSummary {
                name: rt.spec.name.clone(),
                app: self.app_of(rt.id),
                submitted: rt.submitted_at,
                finished,
                runtime,
                map_phase: rt.map_phase().unwrap_or(SimDuration::ZERO),
                reduce_phase: rt.reduce_phase().unwrap_or(SimDuration::ZERO),
            });
        }
        let queries = self
            .queries
            .iter()
            .filter_map(|(first, name)| {
                self.job_mgr
                    .workflow_runtime(*first)
                    .map(|rt| QuerySummary {
                        name: name.clone(),
                        first_app: first.app(),
                        runtime: rt,
                    })
            })
            .collect();

        // Final drain so anything a scheduler buffered after its last
        // handler-side drain still lands in the recording, then seal it.
        if self.recorder.is_some() {
            for n in 0..self.cfg.nodes {
                for dev in 0..2 {
                    self.drain_sched_obs(n, dev);
                }
            }
        }
        // Flow weights for the recording, deduplicated: a tenant's jobs
        // all map to one app, which must appear once.
        let flow_weights: std::collections::BTreeMap<u32, f64> = self
            .job_mgr
            .jobs()
            .map(|rt| {
                let app = self.app_of(rt.id);
                (app.0, self.weight_of(app))
            })
            .collect();
        let recording = self.recorder.take().map(|rec| {
            rec.finish(RecordingMeta {
                weights: flow_weights.into_iter().collect(),
                sync_period_ns: self.cfg.sync_period.as_nanos(),
                nodes: self.cfg.nodes,
                rack_size: self.tree_rack_size(),
            })
        });
        // Trace assembly is post-run analysis over the sealed recording.
        // The recording itself is published only when observability asked
        // for it: with tracing alone, it exists purely to feed assembly,
        // so the report differs from a tracing-off run only in the two
        // trace-owned (non-canon) fields.
        let trace = if self.cfg.trace.enabled {
            recording.as_ref().map(ibis_trace::TraceReport::assemble)
        } else {
            None
        };
        let recording = if self.cfg.obs.enabled {
            recording
        } else {
            None
        };
        let engine_profile = self.profile.take().map(|mut p| {
            p.total_secs = wall_secs;
            p
        });

        let tenants = std::mem::take(&mut self.tenants)
            .into_iter()
            .map(|t| crate::report::TenantSummary {
                weight: self.weight_of(t.app),
                name: t.name,
                app: t.app,
                submitted: t.submitted,
                finished: t.finished,
                latency: t.latency,
            })
            .collect();

        // The per-flow ledger becomes the report's per-app maps: service
        // and latency for every flow with a completion, a series for
        // every flow with a completion of that kind.
        let with_io = self
            .app_flows
            .iter()
            .filter(|f| f.latency.is_some())
            .count();
        let mut app_service = HashMap::with_capacity(with_io);
        let mut app_latency = HashMap::with_capacity(with_io);
        let mut app_read = HashMap::with_capacity(with_io);
        let mut app_write = HashMap::with_capacity(with_io);
        for (i, flow) in std::mem::take(&mut self.app_flows).into_iter().enumerate() {
            let Some(latency) = flow.latency else {
                continue;
            };
            let app = AppId(i as u32);
            app_service.insert(app, flow.served);
            app_latency.insert(app, latency);
            if !flow.read.is_empty() {
                app_read.insert(app, flow.read);
            }
            if !flow.write.is_empty() {
                app_write.insert(app, flow.write);
            }
        }

        let mut sched_decisions = self.faults.as_ref().map_or(0, |fs| fs.retired_decisions);
        for node in &self.nodes {
            for dq in &node.devs {
                sched_decisions += dq.sched.decisions();
            }
        }

        let metrics = self
            .metrics
            .take()
            .map(|m| m.sampler.into_capture(m.registry.snapshot()));

        let faults = self.faults.as_ref().map(|fs| {
            let mut s = fs.summary;
            s.degraded_entries += self
                .nodes
                .iter()
                .flat_map(|n| n.devs.iter())
                .map(|dq| dq.sched.degraded_entries())
                .sum::<u64>();
            s
        });

        RunReport {
            jobs,
            queries,
            tenants,
            app_read,
            app_write,
            app_latency,
            app_service,
            broker: {
                let mut s = self.coord[0].stats();
                s.merge(&self.coord[1].stats());
                s
            },
            sched_decisions,
            makespan: self.last_event_time - SimTime::ZERO,
            wall_secs,
            events: self.events,
            assign: self.assign,
            queue: self.queue.stats(),
            reference_latencies_ms: match &self.refs {
                [Some(h), Some(s)] => {
                    Some([h.read, h.write, s.read, s.write].map(|d| d.as_nanos() as f64 / 1e6))
                }
                _ => None,
            },
            recording,
            metrics,
            faults,
            trace,
            engine_profile,
            rack_local_transfers: self.rack_local_transfers,
            cross_rack_transfers: self.cross_rack_transfers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_faults::FaultSchedule;
    use ibis_obs::fault;
    use ibis_simcore::units::{GIB, MIB};
    use ibis_workloads::{teragen, terasort, wordcount};

    /// A small, fast cluster for engine tests: ideal devices so behaviour
    /// is easy to reason about.
    fn tiny_cluster() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            cores_per_node: 4,
            memory_per_node: 24 * GIB,
            hdfs_device: DeviceSpec::Ideal {
                bandwidth: 200e6,
                latency: SimDuration::from_micros(200),
            },
            scratch_device: DeviceSpec::Ideal {
                bandwidth: 200e6,
                latency: SimDuration::from_micros(200),
            },
            auto_reference: false,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn teragen_completes_and_writes_replicated_volume() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(teragen(2 * GIB));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].name, "TeraGen");
        // 2 GiB × 3 replicas of persistent writes.
        let written = r.bytes_written() as f64;
        assert!(
            (written - (6 * GIB) as f64).abs() < (64 * MIB) as f64,
            "replicated write volume {written}"
        );
        assert!(r.jobs[0].runtime.as_secs_f64() > 1.0);
    }

    #[test]
    fn terasort_moves_data_through_all_phases() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::Native;
        let mut exp = Experiment::new(cfg);
        exp.add_job(terasort(2 * GIB));
        let r = exp.run();
        let job = r.job("TeraSort").expect("finished");
        assert!(job.map_phase.as_secs_f64() > 0.0);
        assert!(job.reduce_phase.as_secs_f64() > 0.0);
        // Reads: 2 GiB input + merge re-reads; writes: spills + merge +
        // 3× replicated output.
        let read = r.bytes_read() as f64;
        let written = r.bytes_written() as f64;
        assert!(read > (3 * GIB) as f64, "reads {read}");
        assert!(written > (9 * GIB) as f64, "writes {written}");
    }

    #[test]
    fn wordcount_output_is_small() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(wordcount(GIB));
        let r = exp.run();
        let job = r.job("WordCount").expect("finished");
        assert!(job.runtime.as_secs_f64() > 0.0);
        // Persistent writes ≈ input × 0.25 × 0.05 × 3 replicas ≈ 38 MiB.
        // Intermediate adds ~256 MiB of spills; total far below TeraSort.
        let written = r.bytes_written() as f64;
        assert!(written < GIB as f64, "wordcount wrote {written}");
    }

    #[test]
    fn concurrent_jobs_share_and_both_finish() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(teragen(GIB).max_slots(8));
        exp.add_job(wordcount(GIB).max_slots(8));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 2);
        assert!(r.app_service.len() >= 2);
    }

    #[test]
    fn tree_broker_run_completes_with_aggregator_traffic() {
        // Same workload, flat vs hierarchical coordination: both finish
        // every job; only the tree produces leaf→root aggregator traffic,
        // and its per-scheduler (level-0) reply count matches its report
        // count — every reporter hears back, end-of-round.
        let run = |tree: bool| {
            let mut cfg = tiny_cluster()
                .with_policy(Policy::SfqD2(SfqD2Config::default()))
                .with_coordination(true);
            if tree {
                cfg = cfg.with_broker_tree(2, SimDuration::from_micros(50));
            }
            let mut exp = Experiment::new(cfg);
            exp.add_job(teragen(GIB).max_slots(8));
            exp.add_job(wordcount(GIB).max_slots(8));
            exp.run()
        };
        let flat = run(false);
        let tree = run(true);
        assert_eq!(flat.jobs.len(), 2);
        assert_eq!(tree.jobs.len(), 2);
        assert_eq!(flat.broker.agg_msgs, 0);
        assert_eq!(flat.broker.agg_bytes, 0);
        assert!(tree.broker.reports > 0, "tree run never synced");
        assert_eq!(tree.broker.replies, tree.broker.reports);
        assert!(tree.broker.agg_msgs > 0, "no aggregator traffic");
        assert!(tree.broker.agg_bytes > 0);
        // The aggregator level carries merged deltas: never more messages
        // than twice the reports that fed it (one up + one down per dirty
        // rack per round, racks ≤ reporters).
        assert!(tree.broker.agg_msgs <= 2 * tree.broker.reports);
    }

    #[test]
    fn tree_broker_runs_are_deterministic() {
        let run = || {
            let mut exp = Experiment::new(
                tiny_cluster()
                    .with_policy(Policy::SfqD2(SfqD2Config::default()))
                    .with_broker_tree(2, SimDuration::from_micros(50)),
            );
            exp.add_job(terasort(GIB).max_slots(8));
            exp.add_job(wordcount(GIB).max_slots(8));
            exp.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{:?}", a.broker), format!("{:?}", b.broker));
        assert_eq!(a.events, b.events);
        assert_eq!(a.makespan, b.makespan);
        let sorted = |r: &RunReport| {
            let mut v: Vec<_> = r.app_service.iter().map(|(a, s)| (a.0, *s)).collect();
            v.sort_unstable_by_key(|&(a, _)| a);
            v
        };
        assert_eq!(sorted(&a), sorted(&b));
    }

    #[test]
    fn rack_topology_counts_transfers_and_prefers_local() {
        // No racks: the counters stay untouched.
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(terasort(GIB));
        let r = exp.run();
        assert_eq!(r.rack_local_transfers, 0);
        assert_eq!(r.cross_rack_transfers, 0);

        // Two racks of two: every block keeps exactly one replica
        // off-rack, remote reads prefer the on-rack copy, so rack-local
        // transfer events dominate cross-rack ones.
        let mut exp = Experiment::new(tiny_cluster().with_racks(2));
        exp.add_job(terasort(GIB));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 1);
        assert!(r.rack_local_transfers > 0, "no rack-local transfers seen");
        assert!(r.cross_rack_transfers > 0, "durability replica must cross");
        assert!(
            r.rack_local_transfers >= r.cross_rack_transfers,
            "rack placement failed to localize traffic: local {} cross {}",
            r.rack_local_transfers,
            r.cross_rack_transfers,
        );
    }

    #[test]
    fn sfqd2_run_samples_controller_depth() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.metrics = ibis_metrics::MetricsConfig::enabled(SimDuration::from_secs(1));
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB));
        let cap = exp.run().metrics.expect("metrics captured");
        let depth = cap
            .series_for("ctl_depth", Labels::on(0, DEV_HDFS as u8))
            .expect("depth series");
        assert!(!depth.points.is_empty());
        assert_eq!(depth.points.len() as u64, cap.samples_taken);
    }

    #[test]
    fn recording_off_by_default_and_on_when_asked() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(teragen(GIB));
        assert!(exp.run().recording.is_none());

        let mut cfg = tiny_cluster();
        cfg.obs = ibis_obs::ObsConfig::enabled(1 << 16);
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB));
        let rec = exp.run().recording.expect("recording present");
        assert!(!rec.is_empty());
        // TeraGen writes blocks: placements and completions must appear.
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::BlockPlaced { .. })));
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Completed { write: true, .. })));
        // Events arrive time-sorted from finish().
        assert!(rec.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn recorded_sfqd2_run_passes_fairness_audit() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.coordination = true;
        cfg.obs = ibis_obs::ObsConfig::enabled(1 << 18);
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB).io_weight(4.0).max_slots(8));
        exp.add_job(wordcount(GIB).max_slots(8));
        let r = exp.run();
        let rec = r.recording.expect("recording present");
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RequestTagged { .. })));
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Dispatched { .. })));
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::BrokerSync { .. })));
        let mut report = ibis_obs::audit(&rec, &ibis_obs::AuditConfig::default());
        assert!(report.passed(), "audit failed: {}", report.summary());
        assert!(report.dispatches > 0);
    }

    #[test]
    fn recording_does_not_perturb_results() {
        let run = |obs: ibis_obs::ObsConfig| {
            let mut cfg = tiny_cluster();
            cfg.policy = Policy::SfqD2(SfqD2Config::default());
            cfg.coordination = true;
            cfg.obs = obs;
            let mut exp = Experiment::new(cfg);
            exp.add_job(teragen(GIB));
            exp.add_job(wordcount(GIB));
            exp.run()
        };
        let off = run(ibis_obs::ObsConfig::default());
        let on = run(ibis_obs::ObsConfig::enabled(1 << 16));
        assert_eq!(off.events, on.events);
        assert_eq!(off.makespan, on.makespan);
        for j in &off.jobs {
            assert_eq!(Some(j.runtime), on.job(&j.name).map(|x| x.runtime));
        }
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let run = |trace: ibis_trace::TraceConfig| {
            let mut cfg = tiny_cluster();
            cfg.policy = Policy::SfqD2(SfqD2Config::default());
            cfg.coordination = true;
            cfg.obs = ibis_obs::ObsConfig::default();
            cfg.trace = trace;
            let mut exp = Experiment::new(cfg);
            exp.add_job(teragen(GIB));
            exp.add_job(wordcount(GIB));
            exp.run()
        };
        let off = run(ibis_trace::TraceConfig::default());
        let on = run(ibis_trace::TraceConfig::on());
        assert_eq!(off.events, on.events);
        assert_eq!(off.makespan, on.makespan);
        for j in &off.jobs {
            assert_eq!(Some(j.runtime), on.job(&j.name).map(|x| x.runtime));
        }
        // Tracing alone publishes no recording — it feeds assembly only.
        assert!(off.trace.is_none() && off.recording.is_none());
        assert!(on.recording.is_none());
        let trace = on.trace.expect("trace assembled");
        assert!(!trace.per_app.is_empty());
        for a in &trace.per_app {
            assert_eq!(a.swept_ns, a.components_sum_ns(), "exact sum per app");
        }
        let profile = on.engine_profile.expect("profile");
        assert!(profile.total_secs > 0.0);
        // Every handled event lands in its kind's row.
        let handled: u64 = profile.by_kind.iter().map(|k| k.count).sum();
        assert_eq!(handled, on.events);
        let done = profile.by_kind.iter().find(|k| k.kind == "DeviceDone");
        assert!(done.expect("DeviceDone row").count > 0);
    }

    #[test]
    fn recorded_lifecycles_cover_jobs_tasks_and_requests() {
        let mut cfg = tiny_cluster();
        cfg.obs = ibis_obs::ObsConfig::enabled(usize::MAX);
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB));
        let rec = exp.run().recording.expect("recording");
        let (reqs, tasks, jobs) = ibis_trace::check_well_formed(&rec).expect("well-formed");
        assert_eq!(jobs, 1);
        assert!(tasks > 0, "task lifecycles recorded");
        assert!(reqs > 0, "request lifecycles recorded");
    }

    #[test]
    fn metrics_off_by_default_and_captured_when_enabled() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(teragen(GIB));
        assert!(exp.run().metrics.is_none());

        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.coordination = true;
        cfg.metrics = ibis_metrics::MetricsConfig::enabled(SimDuration::from_secs(1));
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB));
        let r = exp.run();
        let cap = r.metrics.expect("metrics captured");
        assert!(cap.samples_taken > 0);
        // Node 0's HDFS controller depth stays within the clamp across the
        // whole series.
        let depth = cap
            .series_for("ctl_depth", Labels::on(0, 0))
            .expect("depth series");
        assert!(!depth.points.is_empty());
        assert!(depth.values().iter().all(|&v| (1.0..=12.0).contains(&v)));
        // The end-of-run snapshot carries the same instruments, plus the
        // completion-latency histograms only the engine records.
        assert!(cap.snapshot.row("ctl_depth", Labels::on(0, 0)).is_some());
        assert!(cap
            .snapshot
            .rows
            .iter()
            .any(|row| row.name == "io_latency_ms"));
        // Broker telemetry appears once coordination ran.
        assert!(cap.series_named("broker_sync_age_s").next().is_some());
    }

    /// Each metrics sample follows that instant's controller update: the
    /// sampler shares the scheduler ticks' periodic lane and was queued
    /// after them. So node 0's sampled HDFS depth, rounded as the
    /// dispatcher rounds it, is the depth of the last `DepthAdjusted` on
    /// that device at or before the sample (`d_init` before the first).
    /// Fig. 7 reads its depth curve this way.
    #[test]
    fn sampler_observes_each_same_instant_controller_tick() {
        let mut cfg = tiny_cluster();
        cfg.hdfs_device = DeviceSpec::default_hdd();
        // A steep gain, so the rounded depth moves at many updates.
        let controller = ibis_core::ControllerConfig {
            gain_per_us: 1e-4,
            ..Default::default()
        };
        cfg.policy = Policy::SfqD2(SfqD2Config {
            controller,
            ..SfqD2Config::default()
        });
        cfg.obs = ibis_obs::ObsConfig::enabled(usize::MAX);
        cfg.metrics = ibis_metrics::MetricsConfig::enabled(SimDuration::from_secs(1));
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB));
        exp.add_job(wordcount(GIB));
        let r = exp.run();
        let rec = r.recording.expect("recording");
        let mut adjusted = rec
            .events()
            .iter()
            .filter(|e| e.node == 0 && e.dev == DEV_HDFS as u8)
            .filter_map(|e| match e.kind {
                EventKind::DepthAdjusted { depth } => Some((e.at, depth)),
                _ => None,
            })
            .peekable();
        let cap = r.metrics.expect("metrics");
        let sampled = cap
            .series_for("ctl_depth", Labels::on(0, DEV_HDFS as u8))
            .expect("depth series");
        let mut depth = ibis_core::DepthController::new(Default::default()).depth();
        // Samples whose instant's update changed the depth: the ones a
        // sample taken before the ticks would get wrong.
        let mut moved = 0;
        for &(t, d) in &sampled.points {
            while let Some((_, next)) = adjusted.next_if(|&(at, _)| at <= t) {
                if next != depth && adjusted.peek().is_none_or(|&(at, _)| at > t) {
                    moved += 1;
                }
                depth = next;
            }
            assert_eq!(d.round().max(1.0) as u32, depth, "sample at {t}");
        }
        assert!(moved > 0, "no sampled instant moved the depth");
    }

    #[test]
    fn metrics_do_not_perturb_results() {
        let run = |metrics: ibis_metrics::MetricsConfig| {
            let mut cfg = tiny_cluster();
            cfg.policy = Policy::SfqD2(SfqD2Config::default());
            cfg.coordination = true;
            cfg.metrics = metrics;
            let mut exp = Experiment::new(cfg);
            exp.add_job(teragen(GIB));
            exp.add_job(wordcount(GIB));
            exp.run()
        };
        let off = run(ibis_metrics::MetricsConfig::default());
        let on = run(ibis_metrics::MetricsConfig::enabled(
            SimDuration::from_millis(250),
        ));
        assert_eq!(off.events, on.events);
        assert_eq!(off.makespan, on.makespan);
        for j in &off.jobs {
            assert_eq!(Some(j.runtime), on.job(&j.name).map(|x| x.runtime));
        }
    }

    #[test]
    fn broker_runs_when_coordinated() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.coordination = true;
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(GIB));
        exp.add_job(wordcount(GIB));
        let r = exp.run();
        assert!(r.broker.reports > 0, "broker never syncked");
        assert!(r.broker.payload_bytes > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut exp = Experiment::new(tiny_cluster());
            exp.add_job(terasort(GIB));
            exp.add_job(teragen(GIB));
            let r = exp.run();
            (
                r.jobs
                    .iter()
                    .map(|j| (j.name.clone(), j.runtime.as_nanos()))
                    .collect::<Vec<_>>(),
                r.events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn arrival_offsets_respected() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(teragen(GIB));
        exp.add_job(wordcount(512 * MIB).arriving_at(SimDuration::from_secs(30)));
        let r = exp.run();
        let wc = r.job("WordCount").unwrap();
        assert_eq!(wc.submitted, SimTime::from_secs(30));
    }

    #[test]
    fn query_workflow_completes_all_stages() {
        let mut cfg = tiny_cluster();
        cfg.nodes = 8;
        let mut exp = Experiment::new(cfg);
        // A downsized 2-stage query.
        let q = ibis_workloads::HiveQuery {
            name: "Q-test".into(),
            stages: vec![
                ibis_mapreduce::JobSpec {
                    input: ibis_mapreduce::InputSpec::DfsFile {
                        name: "q-tables".into(),
                        bytes: GIB,
                    },
                    map_output_ratio: 0.5,
                    reduces: 4,
                    reduce_output_ratio: 0.5,
                    ..ibis_mapreduce::JobSpec::named("q-s1")
                },
                ibis_mapreduce::JobSpec {
                    input: ibis_mapreduce::InputSpec::Chained,
                    map_output_ratio: 1.0,
                    reduces: 2,
                    reduce_output_ratio: 0.1,
                    ..ibis_mapreduce::JobSpec::named("q-s2")
                },
            ],
        };
        exp.add_query(q);
        let r = exp.run();
        assert_eq!(r.jobs.len(), 2, "both stages must run: {:?}", r.jobs);
        let q = r.query("Q-test").expect("query summary");
        assert!(q.runtime.as_secs_f64() > 0.0);
        // Stage 2 starts after stage 1 finishes.
        assert!(r.jobs[1].submitted >= r.jobs[0].finished);
    }

    #[test]
    fn service_accounting_sums_all_classes() {
        let mut exp = Experiment::new(tiny_cluster());
        exp.add_job(terasort(GIB));
        let r = exp.run();
        let app = r.jobs[0].app;
        let service = r.app_service[&app];
        // input reads + spills + merges + shuffle + output×3: well over
        // 4× input.
        assert!(service > 4 * GIB, "service {service}");
    }

    // ---- fault injection -------------------------------------------------

    fn faults_cfg(schedule: FaultSchedule) -> ibis_faults::FaultsConfig {
        ibis_faults::FaultsConfig {
            enabled: true,
            schedule,
            ..ibis_faults::FaultsConfig::default()
        }
    }

    #[test]
    fn armed_but_inert_fault_schedule_does_not_perturb_results() {
        for tree in [false, true] {
            let run = |faults: ibis_faults::FaultsConfig| {
                let mut cfg = tiny_cluster();
                cfg.policy = Policy::SfqD2(SfqD2Config::default());
                cfg.coordination = true;
                if tree {
                    cfg = cfg.with_broker_tree(2, SimDuration::from_micros(50));
                }
                cfg.faults = faults;
                let mut exp = Experiment::new(cfg);
                exp.add_job(teragen(GIB));
                exp.add_job(wordcount(GIB));
                exp.run()
            };
            let off = run(ibis_faults::FaultsConfig::default());
            // Armed subsystem, but every window opens long after the run
            // ends: the fault-aware sync path must replay the fault-free
            // exchange exactly.
            let far = SimTime::from_secs(1_000_000);
            let on = run(faults_cfg(
                FaultSchedule::new(7)
                    .broker_outage(far, SimDuration::from_secs(10))
                    .drop_reports(far, SimDuration::from_secs(10), 2)
                    .delay_replies(far, SimDuration::from_secs(10), SimDuration::from_secs(1)),
            ));
            // The armed run pops the extra far-future window-edge markers
            // never (run ends first), so event counts and timings must
            // match.
            assert_eq!(off.events, on.events, "tree={tree}");
            assert_eq!(off.makespan, on.makespan, "tree={tree}");
            for j in &off.jobs {
                assert_eq!(Some(j.runtime), on.job(&j.name).map(|x| x.runtime));
            }
            assert!(
                off.faults.is_none(),
                "disabled runs report no fault summary"
            );
            let s = on.faults.expect("armed runs report a fault summary");
            assert_eq!(s.broker_outages, 0);
            assert_eq!(s.report_drops, 0);
            assert_eq!(s.reply_delays, 0);
            assert_eq!(s.retries, 0);
            assert_eq!(s.crashes, 0);
            assert_eq!(s.lost_replicas, 0);
            // The broker answers every round, so an idle scheduler's
            // heartbeat keeps it fresh: nothing degrades.
            assert_eq!(s.degraded_entries, 0, "tree={tree}");
        }
    }

    #[test]
    fn broker_outage_degrades_then_reconverges() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.coordination = true;
        cfg.obs = ibis_obs::ObsConfig::enabled(1 << 18);
        cfg.faults = ibis_faults::FaultsConfig {
            enabled: true,
            staleness_bound: SimDuration::from_secs(2),
            schedule: FaultSchedule::new(1)
                .broker_outage(SimTime::from_secs(3), SimDuration::from_secs(6)),
            ..ibis_faults::FaultsConfig::default()
        };
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(2 * GIB).io_weight(4.0).max_slots(8));
        exp.add_job(wordcount(2 * GIB).max_slots(8));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 2, "both jobs survive the outage");
        let s = r.faults.expect("fault summary");
        assert!(s.broker_outages > 0, "outage rounds counted: {s:?}");
        assert!(s.retries > 0, "retry chain ran: {s:?}");
        assert!(s.degraded_entries > 0, "schedulers fell back: {s:?}");

        let rec = r.recording.expect("recording");
        // Degradation engages once replies age past the 2 s bound inside
        // the outage window [3 s, 9 s).
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::DegradedEnter { .. })
                    && e.at >= SimTime::from_secs(4)
                    && e.at <= SimTime::from_secs(9)),
            "no degraded entry inside the outage window"
        );
        // Re-convergence: the first successful sync after recovery (t=9 s)
        // lifts degraded mode within two sync periods.
        let exits: Vec<SimTime> = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::DegradedExit { .. }))
            .map(|e| e.at)
            .collect();
        assert!(
            exits.iter().any(|&at| at <= SimTime::from_secs(11)),
            "no re-convergence within two sync periods of recovery: {exits:?}"
        );
        // Invariant 4: while degraded, schedulers charge no DSFQ delay.
        let mut report = ibis_obs::audit(&rec, &ibis_obs::AuditConfig::default());
        assert!(report.passed(), "audit failed: {}", report.summary());
        assert!(report.degraded_marks > 0, "auditor saw the degraded spans");
    }

    /// A restart replaces the node's schedulers; the run's degraded-entry
    /// total still counts the entries the replaced ones made.
    #[test]
    fn restart_keeps_the_replaced_schedulers_degraded_entries() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.coordination = true;
        cfg.obs = ibis_obs::ObsConfig::enabled(1 << 18);
        let crash = SimTime::from_secs(10);
        cfg.faults = ibis_faults::FaultsConfig {
            enabled: true,
            staleness_bound: SimDuration::from_secs(2),
            schedule: FaultSchedule::new(1)
                .broker_outage(SimTime::from_secs(3), SimDuration::from_secs(6))
                .node_crash(1, crash, Some(SimDuration::from_secs(2))),
            ..ibis_faults::FaultsConfig::default()
        };
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(2 * GIB).io_weight(4.0).max_slots(8));
        exp.add_job(wordcount(2 * GIB).max_slots(8));
        let r = exp.run();
        let s = r.faults.expect("fault summary");
        assert_eq!(s.restarts, 1);
        let rec = r.recording.expect("recording");
        assert_eq!(rec.dropped_total(), 0);
        let entered = |e: &&ObsEvent| matches!(e.kind, EventKind::DegradedEnter { .. });
        assert!(
            rec.events()
                .iter()
                .filter(entered)
                .any(|e| e.node == 1 && e.at < crash),
            "n1's first schedulers degraded before the crash"
        );
        let recorded = rec.events().iter().filter(entered).count() as u64;
        assert_eq!(s.degraded_entries, recorded);
    }

    #[test]
    fn node_crash_and_restart_completes_with_requeued_tasks() {
        let mut cfg = tiny_cluster();
        cfg.faults = faults_cfg(FaultSchedule::new(2).node_crash(
            1,
            SimTime::from_secs(3),
            Some(SimDuration::from_secs(5)),
        ));
        let mut exp = Experiment::new(cfg);
        exp.add_job(terasort(2 * GIB));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 1, "terasort finishes despite the crash");
        let s = r.faults.expect("fault summary");
        assert_eq!(s.crashes, 1);
        assert_eq!(s.restarts, 1);
        assert!(s.aborted_tasks > 0, "crash at t=3 s aborts running tasks");
    }

    #[test]
    fn node_crash_without_restart_finishes_on_survivors() {
        let mut cfg = tiny_cluster();
        cfg.faults = faults_cfg(FaultSchedule::new(3).node_crash(2, SimTime::from_secs(3), None));
        let mut exp = Experiment::new(cfg);
        // 2 GiB → 16 maps, so every node (including n2) is busy writing
        // replicated output when the crash lands.
        exp.add_job(teragen(2 * GIB));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 1, "teragen finishes on 3 surviving nodes");
        let s = r.faults.expect("fault summary");
        assert_eq!(s.crashes, 1);
        assert_eq!(s.restarts, 0);
        assert!(s.aborted_tasks > 0, "n2's running maps re-queue: {s:?}");
        assert!(
            s.lost_replicas > 0,
            "pipeline writes at the dead node ack as failed: {s:?}"
        );
    }

    #[test]
    fn device_slowdown_stretches_makespan() {
        let base = {
            let mut exp = Experiment::new(tiny_cluster());
            exp.add_job(teragen(GIB));
            exp.run()
        };
        let slow = {
            let mut cfg = tiny_cluster();
            // 4× straggler on every node's HDFS device for the whole run.
            let mut sched = FaultSchedule::new(4);
            for n in 0..4 {
                sched =
                    sched.device_slowdown(n, 0, 4.0, SimTime::ZERO, SimDuration::from_secs(3600));
            }
            cfg.faults = faults_cfg(sched);
            let mut exp = Experiment::new(cfg);
            exp.add_job(teragen(GIB));
            exp.run()
        };
        assert!(
            slow.makespan > base.makespan,
            "straggler windows must cost time: {:?} !> {:?}",
            slow.makespan,
            base.makespan
        );
    }

    #[test]
    fn dropped_and_delayed_reports_do_not_wedge_the_run() {
        let mut cfg = tiny_cluster();
        cfg.policy = Policy::SfqD2(SfqD2Config::default());
        cfg.coordination = true;
        cfg.faults = faults_cfg(
            FaultSchedule::new(5)
                .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 2)
                .delay_replies(
                    SimTime::from_secs(4),
                    SimDuration::from_secs(4),
                    SimDuration::from_millis(2500),
                ),
        );
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(2 * GIB));
        exp.add_job(wordcount(GIB));
        let r = exp.run();
        assert_eq!(r.jobs.len(), 2);
        let s = r.faults.expect("fault summary");
        assert!(s.report_drops > 0, "one-in-two drops must hit: {s:?}");
        assert!(s.reply_delays > 0, "delay window must defer a round: {s:?}");
        assert!(
            r.broker.reports > 0,
            "surviving reports still reach the broker"
        );
    }

    /// Each fault-window edge leaves its marker: the window's code at the
    /// edge's instant, on the node and device the code names, with the
    /// code's detail. One edge-bearing fault of each kind, at distinct
    /// instants, on an 8-node tree with racks of 4: rack markers land on
    /// the rack's first node and carry the rack id.
    #[test]
    fn each_fault_edge_records_its_marker() {
        let (at, len) = (SimTime::from_secs, SimDuration::from_secs);
        let mut cfg = tiny_cluster()
            .with_policy(Policy::SfqD2(SfqD2Config::default()))
            .with_broker_tree(4, SimDuration::from_micros(50));
        cfg.nodes = 8;
        cfg.obs = ibis_obs::ObsConfig::enabled(usize::MAX);
        cfg.faults = faults_cfg(
            FaultSchedule::new(6)
                .broker_outage(at(2), len(1))
                .device_slowdown(1, 1, 2.5, at(4), len(1))
                .node_crash(6, at(6), Some(len(1)))
                .aggregator_crash(1, at(9), len(1))
                .rack_partition(0, at(12), len(1)),
        );
        let mut exp = Experiment::new(cfg);
        exp.add_job(teragen(12 * GIB));
        let r = exp.run();
        assert!(r.makespan > len(13), "the job outlasts the schedule");
        let markers: Vec<(SimTime, u32, u8, u32, u64)> = r
            .recording
            .expect("recording")
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultInjected {
                    kind: kind @ (fault::BROKER_OUTAGE | fault::NODE_CRASH..=fault::PARTITION_HEAL),
                    detail,
                } => Some((e.at, e.node, e.dev, kind, detail)),
                _ => None,
            })
            .collect();
        let factor = 2.5f64.to_bits();
        assert_eq!(
            markers,
            [
                (at(2), 0, 0, fault::BROKER_OUTAGE, len(1).as_nanos()),
                (at(4), 1, 1, fault::SLOWDOWN_BEGIN, factor),
                (at(5), 1, 1, fault::SLOWDOWN_END, factor),
                (at(6), 6, 0, fault::NODE_CRASH, 0),
                (at(7), 6, 0, fault::NODE_RESTART, 0),
                (at(9), 4, 0, fault::AGG_CRASH, 1),
                (at(10), 4, 0, fault::AGG_RESTART, 1),
                (at(12), 0, 0, fault::PARTITION_BEGIN, 0),
                (at(13), 0, 0, fault::PARTITION_HEAL, 0),
            ]
        );
    }
}
