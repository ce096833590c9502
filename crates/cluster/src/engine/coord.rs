//! The engine's coordination layer (paper §5; DESIGN.md §17–18): one
//! plane per device class, flat broker or broker tree, and the round
//! that trades scheduler service reports for broker totals. The periodic
//! sync, the broker retry and a rack's recovery probe all run
//! `Sim::sync_round`; under a fault schedule this layer also runs the
//! retry chains, delivers held-back reply batches and re-checks every
//! scheduler's staleness. A fault-free run reaches it once per sync
//! round.

use super::{Event, Node, Sim};
use ibis_core::broker::BrokerStats;
use ibis_core::{AppId, BrokerTree, Delivery, SchedulingBroker, Staleness};
use ibis_obs::{fault, EventKind, ObsEvent};
use ibis_simcore::{SimDuration, SimTime};
use std::ops::Range;

/// One scheduler's sync reply held back by a delay window: the target
/// (node, device) and the per-app global totals to apply on delivery.
pub(super) type DeferredReply = (u32, usize, Vec<(AppId, u64)>);

/// One device class's coordination plane: the paper's flat §5 broker, or
/// the hierarchical broker tree (DESIGN.md §17) when
/// [`ClusterConfig::broker_tree`] is set. Both arms serve the one
/// exchange in [`Sim::sync_round`]; the flat broker replies to each
/// report with its totals as of that report, as the paper's does.
// One instance per device class, never stored in bulk — the size gap
// between the arms (the tree carries its recovery-protocol state
// inline) costs nothing, while boxing would add a pointer hop to
// every sync round.
#[allow(clippy::large_enum_variant)]
pub(super) enum CoordPlane {
    Flat(SchedulingBroker),
    Tree(BrokerTree),
}

impl CoordPlane {
    pub(super) fn retire(&mut self, app: AppId) {
        match self {
            CoordPlane::Flat(b) => b.retire(app),
            CoordPlane::Tree(t) => t.retire(app),
        }
    }

    pub(super) fn live_apps(&self) -> usize {
        match self {
            CoordPlane::Flat(b) => b.live_apps(),
            CoordPlane::Tree(t) => t.live_apps(),
        }
    }

    pub(super) fn state_bytes(&self) -> u64 {
        match self {
            CoordPlane::Flat(b) => b.state_bytes(),
            CoordPlane::Tree(t) => t.state_bytes(),
        }
    }

    pub(super) fn stats(&self) -> BrokerStats {
        match self {
            CoordPlane::Flat(b) => b.stats(),
            CoordPlane::Tree(t) => t.stats(),
        }
    }

    pub(super) fn staleness(&self, now: SimTime, bound: SimDuration) -> Staleness {
        match self {
            CoordPlane::Flat(b) => b.staleness(now, bound),
            CoordPlane::Tree(t) => t.staleness(now, bound),
        }
    }

    pub(super) fn totals_sorted(&self) -> Vec<(AppId, u64)> {
        match self {
            CoordPlane::Flat(b) => b.totals_sorted(),
            CoordPlane::Tree(t) => t.totals_sorted(),
        }
    }

    /// Marks a completed exchange at `at`. Flat replies carry the
    /// broker's state as of `at` itself; tree replies crossed two extra
    /// hops, so the view they carry is `info_delay` older than the round
    /// instant — sync age honestly reflects tree depth.
    fn mark_sync_at(&mut self, at: SimTime) {
        match self {
            CoordPlane::Flat(b) => b.mark_sync(at),
            CoordPlane::Tree(t) => {
                let delay = t.config().info_delay();
                t.mark_sync(SimTime::from_nanos(
                    at.as_nanos().saturating_sub(delay.as_nanos()),
                ));
            }
        }
    }
}

impl Sim {
    // ---- broker -------------------------------------------------------------

    /// The periodic coordination round (paper §5). With a fault schedule
    /// active, a dark broker turns the round into the start of a bounded
    /// retry-with-backoff chain instead: reports stay buffered in the
    /// schedulers (drained at the next successful round), and staleness
    /// tracking lets each scheduler fall back to pure local SFQ once its
    /// reply age exceeds the bound.
    #[inline(never)]
    pub(super) fn broker_sync(&mut self, now: SimTime) {
        if let Some(fs) = self.faults.as_mut() {
            fs.sync_index += 1;
            if self.cfg.faults.schedule.broker_dark(now) {
                fs.summary.broker_outages += 1;
                if !fs.retrying && self.cfg.faults.retry_limit > 0 {
                    fs.retrying = true;
                    let backoff = self.cfg.faults.retry_backoff;
                    self.queue
                        .push(now + backoff, Event::BrokerRetry { attempt: 1 });
                }
                self.update_all_staleness(now);
                return;
            }
        }
        self.sync_round(0..self.nodes.len() as u32, now);
        self.update_all_staleness(now);
    }

    /// One report/reply exchange between the schedulers of `nodes` and
    /// each device class's broker: the periodic sync, the broker retry
    /// and a rack's recovery probe all run it. Down nodes and nodes in a
    /// dark rack (aggregator crash or partition window) stay silent: their
    /// schedulers keep buffering deltas, the natural retransmit source.
    /// Under a fault schedule every other scheduler reports even when
    /// idle, on either plane: the empty report is a heartbeat whose empty
    /// reply refreshes the scheduler's staleness clock, so only an
    /// unreachable scheduler ages toward degradation. On the tree it also
    /// carries the cumulative ack that lets the protocol repair gaps and
    /// post-crash epochs. Each report crosses the wire with the disposition
    /// [`Sim::delivery`] decides. The flat broker replies to each report
    /// at once, with its totals as of that report; the tree replies after
    /// `complete_round`, with end-of-round totals. A reply-delay window
    /// diverts every reply into one batch that `DeliverReplies` applies
    /// later.
    fn sync_round(&mut self, nodes: Range<u32>, now: SimTime) {
        let delay = self
            .faults
            .as_ref()
            .and_then(|_| self.cfg.faults.schedule.reply_delay(now));
        let mut batch: Option<Vec<DeferredReply>> = delay.map(|_| Vec::new());
        let heartbeat = self.faults.is_some();
        for dev in 0..2 {
            if let CoordPlane::Tree(tree) = &mut self.coord[dev] {
                tree.begin_round();
            }
            for n in nodes.clone() {
                if self.node_down(n) || self.rack_dark_for(n, now) {
                    continue;
                }
                self.nodes[n as usize].devs[dev]
                    .sched
                    .drain_service_report(&mut self.report_scratch);
                if self.report_scratch.is_empty() && !heartbeat {
                    continue;
                }
                let disp = self.delivery(n, dev, now);
                match &mut self.coord[dev] {
                    CoordPlane::Flat(broker) => {
                        // A lost flat report loses its deltas, as a lost
                        // datagram would: totals stay monotone, just
                        // under-counted until the next report.
                        if disp == Delivery::Drop {
                            continue;
                        }
                        let reply = broker.report(&self.report_scratch);
                        if Self::route_reply(&mut self.nodes, batch.as_mut(), n, dev, reply, now) {
                            self.drain_sched_obs(n, dev);
                        }
                    }
                    // A dropped tree report still burned wire bytes, and
                    // its deltas are not gone: the protocol repairs them
                    // from the sender's cumulative state at next contact.
                    CoordPlane::Tree(tree) if tree.protocol_enabled() => {
                        let outcome = tree.report_ft(n, &self.report_scratch, disp);
                        if outcome.resynced {
                            let fs = self.faults.as_mut().expect("the protocol implies faults");
                            fs.summary.resyncs += 1;
                            let entries = u64::from(outcome.snapshot_entries);
                            self.record_fault(n, dev as u8, fault::RESYNC, entries, now);
                        }
                    }
                    CoordPlane::Tree(tree) => tree.report(n, &self.report_scratch),
                }
            }
            let subs = match &mut self.coord[dev] {
                CoordPlane::Tree(tree) => {
                    tree.complete_round(now);
                    tree.subs_len()
                }
                CoordPlane::Flat(_) => 0,
            };
            for i in 0..subs {
                let CoordPlane::Tree(tree) = &mut self.coord[dev] else {
                    unreachable!("only the tree holds subscriptions");
                };
                let (node, reply) = tree.reply_for(i);
                if Self::route_reply(&mut self.nodes, batch.as_mut(), node, dev, reply, now) {
                    self.drain_sched_obs(node, dev);
                }
            }
        }
        match delay {
            None => {
                for c in &mut self.coord {
                    c.mark_sync_at(now);
                }
                if let Some(fs) = self.faults.as_mut() {
                    fs.last_mark = now;
                }
            }
            Some(d) => {
                // Replies ride a slow network: batch them and deliver when
                // the latency elapses. Schedulers keep their old global
                // view (and staleness keeps aging) until delivery.
                let fs = self.faults.as_mut().expect("a delay window implies faults");
                fs.summary.reply_delays += 1;
                let id = fs.reply_batches.len() as u32;
                fs.reply_batches.push((now, batch.unwrap_or_default()));
                self.record_fault(nodes.start, 0, fault::REPLY_DELAYED, d.as_nanos(), now);
                self.queue
                    .push(now + d, Event::DeliverReplies { batch: id });
            }
        }
    }

    /// The wire's disposition for one scheduler report this round, from
    /// the schedule's deterministic coins (drop, else duplicate, else
    /// reorder; the flat broker rejects schedules that could duplicate or
    /// reorder). `Ok` when no schedule is active. Counts and marks every
    /// other disposition.
    fn delivery(&mut self, node: u32, dev: usize, now: SimTime) -> Delivery {
        let Some(fs) = self.faults.as_mut() else {
            return Delivery::Ok;
        };
        let (coins, idx, dev) = (&self.cfg.faults.schedule, fs.sync_index, dev as u8);
        let (disp, kind) = if coins.drop_report(now, node, dev, idx) {
            fs.summary.report_drops += 1;
            (Delivery::Drop, fault::REPORT_DROPPED)
        } else if coins.dup_report(now, node, dev, idx) {
            fs.summary.dup_reports += 1;
            (Delivery::Dup, fault::REPORT_DUPLICATED)
        } else if coins.reorder_report(now, node, dev, idx) {
            fs.summary.reorder_reports += 1;
            (Delivery::Reorder, fault::REPORT_REORDERED)
        } else {
            return Delivery::Ok;
        };
        self.record_fault(node, dev, kind, idx, now);
        disp
    }

    /// Hands one broker reply to its scheduler, or to the round's delayed
    /// batch when there is one. Returns whether the scheduler got it now
    /// (the caller then drains its observability events). Takes the node
    /// table alone so the reply can stay borrowed from its broker.
    fn route_reply(
        nodes: &mut [Node],
        deferred: Option<&mut Vec<DeferredReply>>,
        node: u32,
        dev: usize,
        reply: &[(AppId, u64)],
        now: SimTime,
    ) -> bool {
        match deferred {
            Some(batch) => {
                batch.push((node, dev, reply.to_vec()));
                false
            }
            None => {
                nodes[node as usize].devs[dev]
                    .sched
                    .apply_global_service(reply, now);
                true
            }
        }
    }

    /// Schedulers-per-rack of the coordination tree (0 when flat).
    pub(super) fn tree_rack_size(&self) -> u32 {
        self.cfg.broker_tree.map_or(0, |tc| tc.rack_size.max(1))
    }

    /// A coordination rack's first node, which stamps its rack-scoped
    /// markers.
    pub(super) fn rack_node(&self, rack: u32) -> u32 {
        rack * self.tree_rack_size()
    }

    /// Whether `node`'s coordination rack is unreachable at `now`
    /// (aggregator crash or rack partition window).
    fn rack_dark_for(&self, node: u32, now: SimTime) -> bool {
        let rs = self.tree_rack_size();
        if rs == 0 {
            return false;
        }
        self.faults.is_some() && self.cfg.faults.schedule.rack_dark(now, node / rs)
    }

    /// Starts a rack's bounded-backoff recovery chain: the broker retry's
    /// backoff, scoped to one rack.
    pub(super) fn schedule_rack_recovery(&mut self, rack: u32, now: SimTime) {
        if self.faults.is_none() || self.cfg.faults.retry_limit == 0 {
            return;
        }
        let backoff = self.cfg.faults.retry_backoff;
        self.queue
            .push(now + backoff, Event::RackRetry { rack, attempt: 1 });
    }

    /// Rack-scoped re-convergence probe: if the rack is still dark
    /// (overlapping windows), back off exponentially up to `retry_limit`;
    /// once reachable, run a mini sync round for just that rack so
    /// post-crash epoch mismatches resync and degraded schedulers get a
    /// fresh reply ahead of the next periodic sync.
    pub(super) fn rack_recover(&mut self, rack: u32, attempt: u32, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let (backoff, limit) = (self.cfg.faults.retry_backoff, self.cfg.faults.retry_limit);
        if self.cfg.faults.schedule.rack_dark(now, rack) {
            fs.summary.retries += 1;
            let node = self.rack_node(rack);
            if let Some(rec) = self.recorder.as_mut() {
                rec.record(ObsEvent {
                    at: now,
                    node,
                    dev: 0,
                    kind: EventKind::ReportRetry { attempt },
                });
            }
            if attempt < limit {
                self.queue.push(
                    now + backoff * (1u64 << attempt.min(16)),
                    Event::RackRetry {
                        rack,
                        attempt: attempt + 1,
                    },
                );
            }
            return;
        }
        fs.sync_index += 1;
        let nodes = self.rack_node(rack)..self.rack_node(rack + 1).min(self.nodes.len() as u32);
        self.sync_round(nodes, now);
        self.update_all_staleness(now);
    }

    /// A delayed reply batch arrives: apply it to every scheduler that is
    /// still up. The brokers' sync stamp moves to the batch's generation
    /// time (the data's true age), never backwards past a later round.
    pub(super) fn deliver_replies(&mut self, batch: u32, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let (generated, replies) = {
            let entry = &mut fs.reply_batches[batch as usize];
            (entry.0, std::mem::take(&mut entry.1))
        };
        for (n, dev, reply) in replies {
            if self.node_down(n) {
                continue;
            }
            self.nodes[n as usize].devs[dev]
                .sched
                .apply_global_service(&reply, now);
            self.drain_sched_obs(n, dev);
        }
        let fs = self.faults.as_mut().expect("fault state");
        if generated > fs.last_mark {
            fs.last_mark = generated;
            for c in &mut self.coord {
                c.mark_sync_at(generated);
            }
        }
        self.update_all_staleness(now);
    }

    /// Bounded-backoff retry after a dark sync round: if the broker is
    /// back, run a full sync round immediately (re-convergence starts
    /// here, not at the next periodic sync); otherwise back off
    /// exponentially up to `retry_limit` attempts.
    pub(super) fn broker_retry(&mut self, attempt: u32, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        fs.summary.retries += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(ObsEvent {
                at: now,
                node: 0,
                dev: 0,
                kind: EventKind::ReportRetry { attempt },
            });
        }
        let faults = &self.cfg.faults;
        if !faults.schedule.broker_dark(now) {
            fs.retrying = false;
            fs.sync_index += 1;
            self.sync_round(0..self.nodes.len() as u32, now);
            self.update_all_staleness(now);
        } else if attempt < faults.retry_limit {
            self.queue.push(
                now + faults.retry_backoff * (1u64 << attempt.min(16)),
                Event::BrokerRetry {
                    attempt: attempt + 1,
                },
            );
        } else {
            // Retries exhausted; the next periodic sync starts a new chain.
            fs.retrying = false;
        }
    }

    /// Re-classifies reply staleness on every live scheduler so degraded
    /// (pure local SFQ) mode engages within one sync period of the bound
    /// being crossed and disengages on the first fresh reply.
    fn update_all_staleness(&mut self, now: SimTime) {
        if self.faults.is_none() {
            return;
        }
        let bound = self.cfg.faults.staleness_bound;
        for n in 0..self.nodes.len() {
            if self.node_down(n as u32) {
                continue;
            }
            for dev in 0..2 {
                self.nodes[n].devs[dev].sched.update_staleness(now, bound);
                if self.recorder.is_some() {
                    self.drain_sched_obs(n as u32, dev);
                }
            }
        }
    }
}
