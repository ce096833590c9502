//! The engine's fault-injection layer (DESIGN.md §13, §18): the state
//! of a run under a fault schedule, the handler for every fault-window
//! edge, and the crash and restart path, which aborts and re-queues a
//! dead node's tasks, fails its I/O over or parks it, and rebuilds the
//! node cold on restart. A fault-free run never builds this state.

use super::coord::{CoordPlane, DeferredReply};
use super::{device_queues, Cont, Event, Sim, DEV_HDFS};
use crate::config::ClusterConfig;
use crate::report::FaultSummary;
use ibis_core::{AppId, IoClass, IoKind};
use ibis_dfs::{BlockId, NodeId};
use ibis_faults::Fault;
use ibis_obs::{fault, EventKind, ObsEvent};
use ibis_simcore::{EventQueue, SimTime};

/// An I/O swept off a crashed node that cannot fail over (shuffle pulls
/// and un-replicated reads): parked until the node restarts, then
/// re-submitted to the cold scheduler.
struct ParkedIo {
    node: u32,
    dev: usize,
    kind: IoKind,
    bytes: u64,
    stream: u64,
    app: AppId,
    cont: Cont,
}

/// Fault-injection state (`None` unless `cfg.faults.active()`): per-node
/// liveness, parked I/O awaiting restarts, reply batches held back by
/// delay windows, and the reaction counters that end up in
/// [`FaultSummary`]. The schedule and the reaction settings are read
/// from `cfg.faults`, and only while this state exists. Fault-free runs
/// never allocate it, so the engine stays byte-identical with the
/// subsystem compiled in.
pub(super) struct FaultState {
    /// Liveness per datanode (false while crashed).
    pub(super) node_up: Vec<bool>,
    /// Nodes with a scheduled restart — parking I/O is only legal for
    /// these; anything stranded on a permanently dead node is a modelling
    /// error and panics.
    will_restart: Vec<bool>,
    /// Reply batches deferred by a delay window:
    /// (generated_at, per-(node, dev) replies).
    pub(super) reply_batches: Vec<(SimTime, Vec<DeferredReply>)>,
    /// I/O waiting for its node to restart.
    parked: Vec<ParkedIo>,
    /// Monotone sync-round counter; the deterministic drop decision
    /// hashes it so re-runs drop the same reports.
    pub(super) sync_index: u64,
    /// Latest instant the brokers were marked synced at, so a late
    /// delayed-reply delivery never moves `sync_age` backwards.
    pub(super) last_mark: SimTime,
    /// A retry backoff chain is currently in flight (suppresses
    /// overlapping chains from consecutive dark sync rounds).
    pub(super) retrying: bool,
    /// Run totals. `degraded_entries` holds those of the schedulers a
    /// restart replaced until `build_report` adds the survivors'.
    pub(super) summary: FaultSummary,
    /// Scheduling decisions of the schedulers a restart replaced.
    pub(super) retired_decisions: u64,
}

impl FaultState {
    /// The state of a run under `cfg.faults`: checks the schedule against
    /// the topology and pushes every window edge onto `queue`.
    pub(super) fn new(cfg: &ClusterConfig, queue: &mut EventQueue<Event>) -> FaultState {
        let schedule = &cfg.faults.schedule;
        // Rack-scoped and wire-level message faults exercise the tree
        // protocol; they are meaningless against the flat broker.
        if schedule.needs_tree() {
            let tc = cfg.broker_tree.expect(
                "agg/partition/dup/reorder faults require the hierarchical broker tree \
                 (ClusterConfig::with_broker_tree / with_coordination)",
            );
            let racks = cfg.nodes.div_ceil(tc.rack_size.max(1));
            if let Err(e) = schedule.validate_racks(racks) {
                panic!("{e}");
            }
        }
        let mut will_restart = vec![false; cfg.nodes as usize];
        // Window edges: `(pass, fault, start, end)`. An outage has no
        // end edge; its start and the slowdown edges are markers that
        // let traces show a window even when no sync round or I/O
        // lands inside it.
        let mut edges = Vec::new();
        for (i, f) in schedule.faults().iter().enumerate() {
            let (pass, start, end) = match *f {
                Fault::AggregatorCrash {
                    start, duration, ..
                }
                | Fault::RackPartition {
                    start, duration, ..
                } => (0, start, Some(start + duration)),
                Fault::NodeCrash {
                    node,
                    at,
                    restart_after,
                } => {
                    assert!(
                        node < cfg.nodes,
                        "fault schedule crashes unknown node n{node} (cluster has {})",
                        cfg.nodes
                    );
                    will_restart[node as usize] |= restart_after.is_some();
                    (1, at, restart_after.map(|d| at + d))
                }
                Fault::BrokerOutage { start, .. } => (2, start, None),
                Fault::DeviceSlowdown {
                    start, duration, ..
                } => (2, start, Some(start + duration)),
                _ => continue,
            };
            edges.push((pass, i as u32, start, end));
        }
        // Edges due at one instant pop in push order: rack faults
        // first, then crashes, then markers, each in schedule order.
        edges.sort_by_key(|&(pass, ..)| pass);
        for (_, fault, start, end) in edges {
            queue.push(start, Event::FaultEdge { fault, end: false });
            if let Some(end) = end {
                queue.push(end, Event::FaultEdge { fault, end: true });
            }
        }
        FaultState {
            node_up: vec![true; cfg.nodes as usize],
            will_restart,
            reply_batches: Vec::new(),
            parked: Vec::new(),
            sync_index: 0,
            last_mark: SimTime::ZERO,
            retrying: false,
            summary: FaultSummary::default(),
            retired_decisions: 0,
        }
    }
}

impl Sim {
    /// Records a `FaultInjected` marker (no-op without a recorder).
    pub(super) fn record_fault(
        &mut self,
        node: u32,
        dev: u8,
        kind: u32,
        detail: u64,
        now: SimTime,
    ) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(ObsEvent {
                at: now,
                node,
                dev,
                kind: EventKind::FaultInjected { kind, detail },
            });
        }
    }

    /// An edge of fault `fault`'s window (an index into the schedule):
    /// its start, or with `end` its close. A crash or restart acts on its
    /// node; outage and slowdown edges only leave their marker. A rack's
    /// window itself comes from the schedule (`rack_dark`), so its edges
    /// count and mark, and its close starts a bounded recovery probe
    /// ahead of the periodic sync. A restarted aggregator comes back
    /// *empty*: both device classes' leaf state is wiped and the rack's
    /// epoch bumped, so each scheduler's next contact is a full snapshot
    /// re-report. A healed partition lost nothing.
    pub(super) fn fault_edge(&mut self, fault: u32, end: bool, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let (rack, kind) = match self.cfg.faults.schedule.faults()[fault as usize] {
            Fault::NodeCrash { node, .. } if end => return self.node_restart(node, now),
            Fault::NodeCrash { node, .. } => return self.node_crash(node, now),
            Fault::BrokerOutage { duration, .. } => {
                let detail = duration.as_nanos();
                return self.record_fault(0, 0, fault::BROKER_OUTAGE, detail, now);
            }
            Fault::DeviceSlowdown {
                node, dev, factor, ..
            } => {
                let kind = if end {
                    fault::SLOWDOWN_END
                } else {
                    fault::SLOWDOWN_BEGIN
                };
                return self.record_fault(node, dev, kind, factor.to_bits(), now);
            }
            Fault::AggregatorCrash { rack, .. } if end => {
                for c in &mut self.coord {
                    if let CoordPlane::Tree(t) = c {
                        t.leaf_restart(rack);
                    }
                }
                fs.summary.agg_restarts += 1;
                (rack, fault::AGG_RESTART)
            }
            Fault::AggregatorCrash { rack, .. } => {
                fs.summary.agg_crashes += 1;
                (rack, fault::AGG_CRASH)
            }
            Fault::RackPartition { rack, .. } if end => (rack, fault::PARTITION_HEAL),
            Fault::RackPartition { rack, .. } => {
                fs.summary.rack_partitions += 1;
                (rack, fault::PARTITION_BEGIN)
            }
            _ => unreachable!("only windows with edges schedule them"),
        };
        self.record_fault(self.rack_node(rack), 0, kind, u64::from(rack), now);
        if end {
            self.schedule_rack_recovery(rack, now);
        }
    }

    // ---- fault injection: crash / restart ----------------------------------

    /// An I/O aimed at a dead datanode. Remote reads fail over to a
    /// surviving HDFS replica; shuffle pulls park until the node restarts
    /// (map outputs have no replicas); pipeline replica writes are
    /// acknowledged-as-failed so remote writers don't hang — the block
    /// simply keeps fewer live replicas, as a real HDFS pipeline does when
    /// a downstream datanode dies mid-write.
    #[expect(clippy::too_many_arguments)]
    pub(super) fn io_on_down_node(
        &mut self,
        node: u32,
        dev: usize,
        kind: IoKind,
        bytes: u64,
        stream: u64,
        app: AppId,
        cont: Cont,
        now: SimTime,
    ) {
        match cont {
            Cont::RemoteReadDisk {
                slot,
                bytes: rb,
                block,
                stream: rs,
            } => {
                let near = self.tasks.get(slot).map(|t| t.node);
                match self.live_replica(block, near) {
                    Some(src) => {
                        self.issue_io(
                            src.0,
                            IoClass::Persistent,
                            IoKind::Read,
                            rb,
                            rs,
                            app,
                            cont,
                            now,
                        );
                    }
                    None => self.park_io(node, dev, kind, bytes, stream, app, cont),
                }
            }
            Cont::PullDisk { .. } => {
                self.park_io(node, dev, kind, bytes, stream, app, cont);
            }
            Cont::WritePart { .. } => {
                self.faults
                    .as_mut()
                    .expect("fault state")
                    .summary
                    .lost_replicas += 1;
                self.dispatch_cont(cont, now);
            }
            // Local task I/O on a dead node: the owning task is (being)
            // aborted and re-queued; the credit dies with it.
            Cont::AsyncDone { .. } | Cont::PullDone { .. } | Cont::ReplicaXfer { .. } => {}
        }
    }

    /// The first live holder of `block`, if any replica survives. With a
    /// rack topology and a reader to be `near`, a live replica on the
    /// reader's rack wins over an earlier-listed off-rack one — failover
    /// keeps traffic inside the rack when it can.
    fn live_replica(&self, block: u64, near: Option<u32>) -> Option<NodeId> {
        let fs = self.faults.as_ref()?;
        let info = self.namenode.locate(BlockId(block))?;
        let rack_size = self.cfg.rack_size;
        if rack_size > 0 {
            if let Some(near) = near {
                let found = info
                    .replicas
                    .iter()
                    .copied()
                    .find(|r| fs.node_up[r.0 as usize] && r.0 / rack_size == near / rack_size);
                if found.is_some() {
                    return found;
                }
            }
        }
        info.replicas
            .iter()
            .copied()
            .find(|r| fs.node_up[r.0 as usize])
    }

    /// Parks an I/O until its node restarts. Only legal when a restart is
    /// scheduled: data with no surviving copy and no returning node is
    /// unrecoverable, which the experiment author must fix in the
    /// schedule, not the engine.
    #[expect(clippy::too_many_arguments)]
    fn park_io(
        &mut self,
        node: u32,
        dev: usize,
        kind: IoKind,
        bytes: u64,
        stream: u64,
        app: AppId,
        cont: Cont,
    ) {
        let fs = self.faults.as_mut().expect("parking requires fault state");
        assert!(
            fs.will_restart[node as usize],
            "I/O stranded on n{node}, which crashed with no scheduled restart \
             (shuffle outputs and fully-dead blocks cannot fail over)"
        );
        fs.summary.parked_ios += 1;
        fs.parked.push(ParkedIo {
            node,
            dev,
            kind,
            bytes,
            stream,
            app,
            cont,
        });
    }

    /// A datanode dies: its running tasks abort and re-queue, its
    /// capacity leaves the pool, the namenode stops placing new blocks on
    /// it, and every I/O physically at the node is swept (failed over,
    /// parked, or acknowledged-as-lost depending on kind).
    fn node_crash(&mut self, node: u32, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        if !fs.node_up[node as usize] {
            return;
        }
        fs.node_up[node as usize] = false;
        fs.summary.crashes += 1;
        self.namenode.set_node_down(NodeId(node));
        self.record_fault(node, 0, fault::NODE_CRASH, 0, now);

        // Abort every task running on the node and hand it back to the
        // job manager for re-queueing on surviving nodes.
        let mut keys = Vec::new();
        self.tasks.keys_into(&mut keys);
        for k in keys {
            if self.tasks.get(k).is_none_or(|t| t.node != node) {
                continue;
            }
            let mut task = self.tasks.remove(k).expect("swept task exists");
            // Open pipeline chains and the partial output block die with
            // the task (the re-run rewrites from scratch).
            for (_, ck) in task.open_chains.drain(..) {
                if let Some(mut chain) = self.chains.remove(ck) {
                    chain.queued.clear();
                    chain.wire_busy = false;
                    chain.unacked = 0;
                    self.chain_pool.push(chain);
                }
            }
            if task.gather.is_some() {
                let job = task.assignment.task.job;
                if let Some(w) = self.gather_waiters.get_mut(job.0 as usize) {
                    w.retain(|&s| s != k);
                }
            }
            if self.recorder.is_some() {
                // Close the aborted task's span at the crash instant; its
                // re-run starts a fresh one on a surviving node.
                self.record_task(node, task.assignment.task, None, now);
            }
            self.job_mgr.on_task_aborted(task.assignment.task);
            self.faults
                .as_mut()
                .expect("fault state")
                .summary
                .aborted_tasks += 1;
        }
        // No capacity while down.
        self.nodes[node as usize].free_cores = 0;
        self.nodes[node as usize].free_mem = 0;

        // Sweep in-flight I/O physically at the node.
        let mut ios = Vec::new();
        self.io_table.keys_into(&mut ios);
        for k in ios {
            if self.io_table.get(k).is_none_or(|c| c.node != node) {
                continue;
            }
            let ctx = self.io_table.remove(k).expect("swept io exists");
            self.io_on_down_node(
                node,
                ctx.dev as usize,
                ctx.kind,
                ctx.bytes,
                ctx.stream,
                ctx.app,
                ctx.cont,
                now,
            );
        }
        // Surviving nodes pick up the re-queued tasks immediately.
        self.try_assign_all(now);
    }

    /// A crashed datanode rejoins: cold devices and schedulers (rebuilt
    /// exactly as `Sim::new` built them, same per-node seeds), full
    /// capacity, parked I/O re-issued. The fresh schedulers have never
    /// seen a broker reply, so they start Dark — pure local SFQ — until
    /// the next sync round re-converges them.
    fn node_restart(&mut self, node: u32, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        if fs.node_up[node as usize] {
            return;
        }
        fs.node_up[node as usize] = true;
        fs.summary.restarts += 1;
        let bound = self.cfg.faults.staleness_bound;
        // The run totals keep what the schedulers about to be replaced
        // counted.
        for dq in &self.nodes[node as usize].devs {
            fs.retired_decisions += dq.sched.decisions();
            fs.summary.degraded_entries += dq.sched.degraded_entries();
        }
        self.namenode.set_node_up(NodeId(node));
        self.record_fault(node, 0, fault::NODE_RESTART, 0, now);

        let devs = device_queues(&self.cfg, &self.refs, node, self.recorder.is_some());
        let n = &mut self.nodes[node as usize];
        n.devs = devs;
        n.free_cores = self.cfg.cores_per_node;
        n.free_mem = self.cfg.memory_per_node;
        // Live applications' weights must survive the restart: each live
        // job re-applies its flow's registered weight (tenant repeats are
        // idempotent: same app, same weight).
        let weights: Vec<(AppId, f64)> = self
            .job_mgr
            .jobs()
            .filter(|j| j.finished_at.is_none())
            .map(|j| {
                let app = self.app_of(j.id);
                (app, self.weight_of(app))
            })
            .collect();
        for (app, w) in weights {
            for dq in &mut self.nodes[node as usize].devs {
                dq.sched.set_weight(app, w);
            }
        }
        // The cold schedulers are Dark from the first request: classify
        // now so they run degraded until a reply arrives.
        for dev in 0..2 {
            self.nodes[node as usize].devs[dev]
                .sched
                .update_staleness(now, bound);
            if self.recorder.is_some() {
                self.drain_sched_obs(node, dev);
            }
        }
        // Re-issue I/O that parked waiting for this node.
        let fs = self.faults.as_mut().expect("fault state");
        let mut mine = Vec::new();
        let mut rest = Vec::new();
        for p in fs.parked.drain(..) {
            if p.node == node {
                mine.push(p);
            } else {
                rest.push(p);
            }
        }
        fs.parked = rest;
        for p in mine {
            self.reissue_parked(p, now);
        }
        self.try_assign_all(now);
    }

    /// Re-submits a parked I/O to the restarted node's cold scheduler.
    fn reissue_parked(&mut self, p: ParkedIo, now: SimTime) {
        let class = if p.dev == DEV_HDFS {
            IoClass::Persistent
        } else {
            IoClass::Shuffle
        };
        self.issue_io(p.node, class, p.kind, p.bytes, p.stream, p.app, p.cont, now);
    }
}
