//! Replays of a recorded run's call streams into fresh instances of each
//! layer, through the layers' public APIs.
//!
//! The engine calls each layer in a pattern the flight recording exposes:
//! schedulers see `IoQueued` submits, `Completed` acknowledgements and
//! `BrokerSync` replies; devices see the dispatch instants implied by
//! `Completed`; the namenode sees `BlockPlaced`; the job manager sees
//! arrivals and task completions. A replay rebuilds the layer exactly as
//! `Sim::new` does and makes those calls in recorded order, timing them
//! from outside. Calls the engine makes without leaving a trace in the
//! recording cannot be replayed; README.md lists those limits.

use crate::spans::Spans;
use ibis_cluster::{ClusterConfig, Experiment, Workload as Submission};
use ibis_core::scheduler::{IoScheduler, Policy};
use ibis_core::{AppId, BrokerTree, Delivery, IoClass, IoKind, Request, SchedulingBroker};
use ibis_dfs::{BlockInfo, Namenode, NamenodeConfig, NodeId};
use ibis_mapreduce::{InputSpec, JobManager, JobSpec, TaskKind, TaskRef};
use ibis_obs::{EventKind, Recording};
use ibis_simcore::{SimDuration, SimTime};
use ibis_storage::{profile_device, Device, DeviceRequest};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Calls made into one layer and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    /// Calls made.
    pub calls: u64,
    /// Host seconds inside them.
    pub secs: f64,
}

impl Calls {
    /// Host nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.calls as f64
        }
    }
}

/// Index of `(node, dev)` in a flat per-device vector.
fn slot(node: u32, dev: u8) -> usize {
    node as usize * 2 + dev as usize
}

/// The input jobs in the order the engine submits them: arrival time,
/// ties by position in the experiment (the event queue's tie-break).
/// The `k`-th `JobArrived` of a recording is job `order[k]`.
fn arrival_order(exp: &Experiment) -> Vec<usize> {
    let arrival = |w: &Submission| match w {
        Submission::Job(s) => s.arrival,
        Submission::Query(q) => q.stages.first().map_or(SimDuration::ZERO, |s| s.arrival),
    };
    let mut order: Vec<usize> = (0..exp.workloads.len()).collect();
    order.sort_by_key(|&i| (arrival(&exp.workloads[i]), i));
    order
}

/// The job spec the engine submits for experiment entry `i` (a query's
/// first stage).
fn spec_of(exp: &Experiment, i: usize) -> Option<&JobSpec> {
    match &exp.workloads[i] {
        Submission::Job(s) => Some(s),
        Submission::Query(q) => q.stages.first(),
    }
}

/// A namenode set up as `Sim::new` sets one up — every input file
/// registered once, in experiment order — and the count of blocks that
/// setup placed.
fn setup_namenode(exp: &Experiment) -> (Namenode, usize) {
    let cfg = &exp.cluster;
    let mut nn = Namenode::new(NamenodeConfig {
        nodes: cfg.nodes,
        block_size: cfg.block_size,
        replication: cfg.replication,
        placement: cfg.placement.clone(),
        seed: cfg.seed,
        rack_size: cfg.rack_size,
    });
    let mut seen = HashSet::new();
    for i in 0..exp.workloads.len() {
        if let Some(InputSpec::DfsFile { name, bytes }) = spec_of(exp, i).map(|s| &s.input) {
            if seen.insert(name.clone()) {
                nn.create_file(name, *bytes);
            }
        }
    }
    let placed = nn.block_count();
    (nn, placed)
}

/// What the scheduler replay did.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedReplay {
    /// `submit` calls, one per `IoQueued`.
    pub submits: u64,
    /// `on_complete` calls, one per `Completed`.
    pub completes: u64,
    /// `pop_dispatch` calls, including each drain's final `None`.
    pub pops: u64,
    /// `on_tick` calls.
    pub ticks: u64,
    /// `drain_service_report` calls.
    pub drains: u64,
    /// `apply_global_service` calls.
    pub applies: u64,
    /// All of the above, with their host time.
    pub all: Calls,
    /// `set_weight` calls, mirroring the engine's per-arrival sweep over
    /// every scheduler.
    pub set_weight: Calls,
}

/// The engine's schedulers, one per `(node, device)`, built as `Sim::new`
/// builds them: SFQ(D2) with auto-reference gets the profiled reference
/// latencies of its device model.
fn build_schedulers(cfg: &ClusterConfig) -> Vec<Box<dyn IoScheduler + Send>> {
    let refs = |spec: &ibis_cluster::DeviceSpec, salt: u64| match &cfg.policy {
        Policy::SfqD2(c) if cfg.auto_reference => {
            let r = profile_device(&spec.build(salt), 4, cfg.chunk);
            let mut c = c.clone();
            c.controller.ref_read = r.read;
            c.controller.ref_write = r.write;
            c.trace = false;
            Policy::SfqD2(c)
        }
        p => p.clone(),
    };
    let policies = [
        refs(&cfg.hdfs_device, u64::MAX),
        refs(&cfg.scratch_device, u64::MAX - 1),
    ];
    (0..cfg.nodes)
        .flat_map(|_| policies.iter().map(Policy::build))
        .collect()
}

fn drain(s: &mut (dyn IoScheduler + Send), now: SimTime) -> u64 {
    let mut calls = 1;
    while s.pop_dispatch(now).is_some() {
        calls += 1;
    }
    calls
}

fn class_of(dev: u8) -> IoClass {
    if dev == 0 {
        IoClass::Persistent
    } else {
        IoClass::Intermediate
    }
}

fn kind_of(write: bool) -> IoKind {
    if write {
        IoKind::Write
    } else {
        IoKind::Read
    }
}

/// Replays every scheduler's call stream in recorded order: weight
/// sweeps at arrivals, submits, completions and broker replies, with the
/// controller ticks and sync-time service drains the engine makes on its
/// fixed periods.
pub fn sched(cfg: &ClusterConfig, rec: &Recording, spans: &mut Spans) -> SchedReplay {
    let mut scheds = build_schedulers(cfg);
    let tick = scheds.first().and_then(|s| s.tick_period());
    let sync = (cfg.coordination && cfg.policy.coordinates()).then_some(cfg.sync_period);
    let mut next_tick = tick.map(|p| SimTime::ZERO + p);
    let mut next_sync = sync.map(|p| SimTime::ZERO + p);
    let mut out = SchedReplay::default();
    let mut report = Vec::new();
    let mut totals = Vec::new();
    let evs = rec.events();

    spans.enter("replay.sched");
    let start = Instant::now();
    let mut i = 0;
    while i < evs.len() {
        let ev = &evs[i];
        while let (Some(t), Some(p)) = (next_tick.filter(|&t| t <= ev.at), tick) {
            spans.enter("sched.tick_sweep");
            for s in &mut scheds {
                s.on_tick(t);
                out.ticks += 1;
                out.pops += drain(s.as_mut(), t);
            }
            spans.exit();
            next_tick = Some(t + p);
        }
        while let (Some(t), Some(p)) = (next_sync.filter(|&t| t <= ev.at), sync) {
            spans.enter("sched.sync_drain");
            for s in &mut scheds {
                s.drain_service_report(&mut report);
                out.drains += 1;
            }
            spans.exit();
            next_sync = Some(t + p);
        }
        let k = slot(ev.node, ev.dev);
        match ev.kind {
            EventKind::JobArrived { app, .. } => {
                let weight = rec.meta.weight_of(app);
                spans.enter("sched.set_app_weight");
                let t = Instant::now();
                for s in &mut scheds {
                    s.set_weight(AppId(app), weight);
                }
                out.set_weight.secs += t.elapsed().as_secs_f64();
                spans.exit();
                out.set_weight.calls += scheds.len() as u64;
            }
            EventKind::IoQueued {
                io,
                app,
                bytes,
                write,
            } => {
                let s = scheds[k].as_mut();
                s.submit(
                    Request {
                        id: io,
                        app: AppId(app),
                        class: class_of(ev.dev),
                        kind: kind_of(write),
                        bytes,
                        stream: u64::from(app),
                        submitted: ev.at,
                    },
                    ev.at,
                );
                out.submits += 1;
                out.pops += drain(s, ev.at);
            }
            EventKind::Completed {
                app,
                bytes,
                write,
                latency_ns,
                ..
            } => {
                let latency = SimDuration::from_nanos(latency_ns);
                let s = scheds[k].as_mut();
                s.on_complete(AppId(app), kind_of(write), bytes, latency, ev.at);
                out.completes += 1;
                out.pops += drain(s, ev.at);
            }
            EventKind::BrokerSync { .. } => {
                // One reply per scheduler and round: the engine applies
                // the whole reply at once and the recorder writes one
                // event per application in it.
                totals.clear();
                let mut j = i;
                while let Some(e) = evs.get(j) {
                    match e.kind {
                        EventKind::BrokerSync { app, total }
                            if e.at == ev.at && e.node == ev.node && e.dev == ev.dev =>
                        {
                            totals.push((AppId(app), total));
                            j += 1;
                        }
                        _ => break,
                    }
                }
                scheds[k].apply_global_service(&totals, ev.at);
                out.applies += 1;
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    let total = start.elapsed().as_secs_f64();
    spans.exit();
    out.all.calls = out.submits + out.completes + out.pops + out.ticks + out.drains + out.applies;
    out.all.secs = total - out.set_weight.secs;
    out
}

/// Replays each device's dispatch stream: requests enter the device at
/// the instants the recording implies (`Completed` time minus latency),
/// and complete when the device model itself says they do.
pub fn storage(cfg: &ClusterConfig, rec: &Recording, spans: &mut Spans) -> Calls {
    let mut streams: Vec<Vec<(SimTime, DeviceRequest)>> = vec![Vec::new(); cfg.nodes as usize * 2];
    for ev in rec.events() {
        if let EventKind::Completed {
            io,
            app,
            bytes,
            write,
            latency_ns,
        } = ev.kind
        {
            let req = DeviceRequest {
                id: io,
                kind: if write {
                    ibis_storage::IoKind::Write
                } else {
                    ibis_storage::IoKind::Read
                },
                stream: u64::from(app),
                bytes,
            };
            let dispatched = SimTime::from_nanos(ev.at.as_nanos().saturating_sub(latency_ns));
            streams[slot(ev.node, ev.dev)].push((dispatched, req));
        }
    }
    let mut out = Calls::default();
    let mut started = Vec::new();
    spans.enter("replay.storage");
    for (k, stream) in streams.iter_mut().enumerate() {
        if stream.is_empty() {
            continue;
        }
        stream.sort_by_key(|&(at, r)| (at, r.id));
        let node = (k / 2) as u64;
        let mut dev = if k % 2 == 0 {
            cfg.hdfs_device.build(node)
        } else {
            cfg.scratch_device.build(1000 + node)
        };
        let mut due: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut next = 0;
        spans.enter("storage.device");
        let t = Instant::now();
        loop {
            let complete = due.peek().map(|r| r.0 .0);
            let submit = stream.get(next).map(|&(at, _)| at);
            let complete_first = match (complete, submit) {
                (Some(c), Some(s)) => c <= s,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if complete_first {
                let Reverse((at, id)) = due.pop().expect("peeked");
                dev.on_complete(id, at, &mut started);
            } else {
                let (at, req) = stream[next];
                dev.submit(req, at, &mut started);
                next += 1;
            }
            out.calls += 1;
            due.extend(started.drain(..).map(|s| Reverse((s.complete_at, s.id))));
        }
        out.secs += t.elapsed().as_secs_f64();
        spans.exit();
    }
    spans.exit();
    out
}

/// Replays the namenode's run-time calls: one `allocate_block` per output
/// block the run placed, and the `locate` of every input block the
/// engine resolves when a job arrives.
pub fn dfs(exp: &Experiment, rec: &Recording, spans: &mut Spans) -> Calls {
    let (mut nn, setup_blocks) = setup_namenode(exp);
    let order = arrival_order(exp);
    let mut arrivals = order.iter();
    let block_size = exp.cluster.block_size;
    let mut out = Calls::default();
    spans.enter("replay.dfs");
    let t = Instant::now();
    for ev in rec.events() {
        match ev.kind {
            EventKind::BlockPlaced { block, primary, .. } if block >= setup_blocks as u64 => {
                black_box(nn.allocate_block(NodeId(primary), block_size));
                out.calls += 1;
            }
            EventKind::JobArrived { .. } => {
                let Some(&i) = arrivals.next() else { continue };
                if let Some(InputSpec::DfsFile { name, .. }) = spec_of(exp, i).map(|s| &s.input) {
                    for &b in nn.file_blocks(name).unwrap_or(&[]) {
                        black_box(nn.locate(b));
                        out.calls += 1;
                    }
                }
            }
            _ => {}
        }
    }
    out.secs = t.elapsed().as_secs_f64();
    spans.exit();
    out
}

/// The two coordination planes (one per device class).
enum Planes {
    Flat(Vec<SchedulingBroker>),
    Tree(Vec<BrokerTree>),
}

/// Adds `bytes` of service for `app` to a scheduler's pending report.
fn add_service(report: &mut Vec<(AppId, u64)>, app: AppId, bytes: u64) {
    match report.iter_mut().find(|e| e.0 == app) {
        Some(e) => e.1 += bytes,
        None => report.push((app, bytes)),
    }
}

/// Replays the coordination rounds: at every sync instant each scheduler
/// reports the service its devices completed since the last round, and
/// the broker (or the broker tree, with its fault-tolerant protocol armed
/// when the run injected faults) folds the reports and answers. Returns
/// the rounds replayed (one per sync instant, both device classes).
pub fn coord(cfg: &ClusterConfig, rec: &Recording, spans: &mut Spans) -> Calls {
    let mut out = Calls::default();
    if !(cfg.coordination && cfg.policy.coordinates()) {
        return out;
    }
    let armed = cfg.faults.active();
    let mut planes = match cfg.broker_tree {
        Some(tc) => {
            let mut t = vec![BrokerTree::new(tc), BrokerTree::new(tc)];
            if armed {
                for p in &mut t {
                    p.enable_protocol();
                }
            }
            Planes::Tree(t)
        }
        None => Planes::Flat(vec![SchedulingBroker::new(), SchedulingBroker::new()]),
    };
    let nodes = cfg.nodes as usize;
    let mut reports: Vec<Vec<(AppId, u64)>> = vec![Vec::new(); nodes * 2];
    let mut live: HashMap<u32, u32> = HashMap::new();
    let mut next = SimTime::ZERO + cfg.sync_period;
    let end = rec.events().last().map_or(SimTime::ZERO, |e| e.at);

    let mut round = |now: SimTime,
                     reports: &mut Vec<Vec<(AppId, u64)>>,
                     planes: &mut Planes,
                     spans: &mut Spans| {
        for r in reports.iter_mut() {
            r.sort_unstable_by_key(|e| e.0);
        }
        spans.enter("coord.round");
        let t = Instant::now();
        match planes {
            Planes::Flat(b) => {
                for n in 0..nodes {
                    for (dev, broker) in b.iter_mut().enumerate() {
                        let r = &reports[n * 2 + dev];
                        if !r.is_empty() {
                            black_box(broker.report(r));
                        }
                    }
                }
            }
            Planes::Tree(trees) => {
                for (dev, tree) in trees.iter_mut().enumerate() {
                    tree.begin_round();
                    for n in 0..nodes {
                        let r = &reports[n * 2 + dev];
                        if armed {
                            black_box(tree.report_ft(n as u32, r, Delivery::Ok));
                        } else if !r.is_empty() {
                            tree.report(n as u32, r);
                        }
                    }
                    tree.complete_round(now);
                    for i in 0..tree.subs_len() {
                        black_box(tree.reply_for(i));
                    }
                }
            }
        }
        out.secs += t.elapsed().as_secs_f64();
        out.calls += 1;
        spans.exit();
        for r in reports.iter_mut() {
            r.clear();
        }
    };

    spans.enter("replay.coord");
    for ev in rec.events() {
        while next < ev.at {
            round(next, &mut reports, &mut planes, spans);
            next += cfg.sync_period;
        }
        match ev.kind {
            EventKind::Completed { app, bytes, .. } => {
                add_service(&mut reports[slot(ev.node, ev.dev)], AppId(app), bytes);
            }
            EventKind::JobArrived { app, .. } => *live.entry(app).or_default() += 1,
            EventKind::JobCompleted { app, .. } => {
                let n = live.entry(app).or_default();
                *n = n.saturating_sub(1);
                if *n == 0 {
                    match &mut planes {
                        Planes::Flat(b) => b.iter_mut().for_each(|p| p.retire(AppId(app))),
                        Planes::Tree(t) => t.iter_mut().for_each(|p| p.retire(AppId(app))),
                    }
                }
            }
            _ => {}
        }
    }
    while next <= end {
        round(next, &mut reports, &mut planes, spans);
        next += cfg.sync_period;
    }
    spans.exit();
    out
}

/// What the job-manager replay did.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapReduceReplay {
    /// `try_assign_constrained` calls and the host time of the scans
    /// that made them.
    pub assign: Calls,
    /// Calls that placed a task.
    pub placed: u64,
    /// Recorded task completions the replay had no running task for
    /// (tasks the engine aborted and re-ran, which the recording does not
    /// tell apart from completions).
    pub unmatched: u64,
}

/// The job manager with the engine's per-node slot accounting.
struct Assigner {
    jm: JobManager,
    free_cores: Vec<u32>,
    free_mem: Vec<u64>,
    running: HashMap<(u32, u32), (usize, u64)>,
    out: MapReduceReplay,
}

impl Assigner {
    /// The engine's assignment scan: a node-local pass then a remote
    /// pass, each walking every node until no node takes another task.
    fn scan(&mut self, spans: &mut Spans) {
        spans.enter("mapreduce.assign_scan");
        let t = Instant::now();
        for allow_remote in [false, true] {
            loop {
                let mut progress = false;
                for n in 0..self.free_cores.len() {
                    while self.free_cores[n] > 0 {
                        self.out.assign.calls += 1;
                        let Some(a) = self.jm.try_assign_constrained(
                            NodeId(n as u32),
                            self.free_mem[n],
                            allow_remote,
                        ) else {
                            break;
                        };
                        self.out.placed += 1;
                        self.free_cores[n] -= 1;
                        self.free_mem[n] -= a.memory;
                        self.running.insert(task_key(&a.task), (n, a.memory));
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
        }
        self.out.assign.secs += t.elapsed().as_secs_f64();
        spans.exit();
    }
}

/// Replays the job manager: jobs are submitted at their recorded
/// arrivals and tasks finish at their recorded completions, each followed
/// by the engine's assignment scan.
pub fn mapreduce(exp: &Experiment, rec: &Recording, spans: &mut Spans) -> MapReduceReplay {
    let cfg = &exp.cluster;
    let (nn, _) = setup_namenode(exp);
    let order = arrival_order(exp);
    let mut arrivals = order.iter();
    let mut jm = JobManager::new(cfg.chunk);
    jm.set_rack_size(cfg.rack_size);
    let mut a = Assigner {
        jm,
        free_cores: vec![cfg.cores_per_node; cfg.nodes as usize],
        free_mem: vec![cfg.memory_per_node; cfg.nodes as usize],
        running: HashMap::new(),
        out: MapReduceReplay::default(),
    };
    spans.enter("replay.mapreduce");
    for ev in rec.events() {
        match ev.kind {
            EventKind::JobArrived { .. } => {
                let Some(spec) = arrivals.next().and_then(|&i| spec_of(exp, i)) else {
                    continue;
                };
                let blocks: Vec<BlockInfo> = match &spec.input {
                    InputSpec::DfsFile { name, .. } => nn
                        .file_blocks(name)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|&b| nn.locate(b).cloned())
                        .collect(),
                    _ => Vec::new(),
                };
                a.jm.submit(spec.clone(), blocks, ev.at);
                a.scan(spans);
            }
            EventKind::TaskFinished { job, task } => {
                let Some((n, mem)) = a.running.remove(&(job, task)) else {
                    a.out.unmatched += 1;
                    continue;
                };
                a.free_cores[n] += 1;
                a.free_mem[n] += mem;
                let tref = TaskRef {
                    job: ibis_mapreduce::JobId(job),
                    kind: if task & 0x8000_0000 != 0 {
                        TaskKind::Reduce
                    } else {
                        TaskKind::Map
                    },
                    index: task & 0x7fff_ffff,
                };
                black_box(a.jm.on_task_finished(tref, ev.at));
                a.scan(spans);
            }
            _ => {}
        }
    }
    spans.exit();
    a.out
}

/// The recording's task id for a task: the index, high bit set for
/// reduces.
fn task_key(t: &TaskRef) -> (u32, u32) {
    let reduce = if t.kind == TaskKind::Reduce {
        0x8000_0000
    } else {
        0
    };
    (t.job.0, t.index | reduce)
}
