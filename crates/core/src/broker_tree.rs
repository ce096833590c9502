//! The hierarchical coordination plane: a broker *tree* for O(1000)-node
//! clusters.
//!
//! The paper's single Scheduling Broker (§5, [`crate::broker`]) terminates
//! every scheduler's report and reply itself: 2·N control messages per sync
//! period all land on one component, which is the scaling wall the moment
//! the topology outgrows the 8-worker testbed. The tree interposes one
//! **leaf aggregator per rack** between the schedulers and a **root**:
//!
//! ```text
//!   schedulers (N)   ──report──▶  leaf aggregators (N / rack_size)
//!   leaf aggregators ──rack-merged delta──▶  root (dense totals)
//!   root             ──changed totals──▶  leaves  ──reply──▶ schedulers
//! ```
//!
//! Three properties make this scale:
//!
//! * **Delta encoding at every level.** Schedulers already send only apps
//!   with nonzero service since their last report; a leaf folds its rack's
//!   reports into *one* per-rack partial delta, so an app active on every
//!   node of a rack crosses the leaf→root link once, not `rack_size`
//!   times. Downward, the root sends each leaf only the totals that rack
//!   asked about this round.
//! * **Bounded per-component load.** A leaf terminates at most `rack_size`
//!   reports; the root terminates one merged message per rack. No
//!   component's traffic grows with N at fixed rack fan-out and per-rack
//!   activity — the flat broker's grows linearly.
//! * **Same accounting model.** Wire costs use the [`crate::broker`]
//!   entry/header model; scheduler-facing traffic lands in the level-0
//!   counters of [`BrokerStats`], aggregator↔root traffic in the new
//!   level-1 `agg_msgs`/`agg_bytes`, so the Table-2 analysis regenerates
//!   per level at 1000 nodes.
//!
//! The extra depth is not free: replies reflect end-of-round totals and
//! the sync is marked `2 × hop_latency` in the past — information at a
//! scheduler is older by exactly the tree's extra hops, which the PR 5
//! staleness machinery ([`Staleness`]) observes unchanged.
//!
//! A round is driven by the engine's one exchange routine, which serves
//! the flat broker and the tree alike (the flat broker replies to each
//! report at once, the tree only after step 3):
//!
//! 1. [`BrokerTree::begin_round`] once per device class per round;
//! 2. [`BrokerTree::report`] per reporting scheduler, or
//!    [`BrokerTree::report_ft`] with the wire's [`Delivery`] once the
//!    protocol is armed (order = node order, deterministic);
//! 3. [`BrokerTree::complete_round`] — leaves flush merged deltas up, the
//!    root folds, changed totals flow back down into leaf caches;
//! 4. [`BrokerTree::reply_for`] per recorded subscription — the reply for
//!    exactly the apps that scheduler reported, served from its leaf's
//!    cache into a pooled buffer (0 allocs/round steady-state).
//!
//! # Fault-tolerant protocol mode
//!
//! Delta encoding is stateful: a lost report silently desyncs cumulative
//! totals forever. Fault-injected runs therefore enable a protocol layer
//! ([`BrokerTree::enable_protocol`]) that makes both hops self-healing:
//!
//! * **Epoch + sequence numbers, cumulative acks.** Every
//!   scheduler→leaf link and every leaf→root link numbers its messages;
//!   receivers ack cumulatively (the ack rides in the reply header), so
//!   a sender always knows whether unacknowledged state exists
//!   ([`BrokerTree::needs_contact`]).
//! * **Bounded snapshot resync.** A receiver seeing a gap (dropped or
//!   reordered message) or a stale epoch does not guess: the sender
//!   retransmits its full cumulative state — O(apps that sender ever
//!   served), not O(history) — and the receiver applies it by
//!   *replacement*, which is idempotent and converges in one exchange.
//! * **Seq-keyed idempotency.** Duplicate deliveries and retried flushes
//!   are ignored by sequence number on both hops
//!   ([`BrokerStats::dup_ignored`]).
//! * **Aggregator failover.** [`BrokerTree::leaf_restart`] models a leaf
//!   that crashed and came back *empty*: it bumps the rack's epoch,
//!   forcing every scheduler's next contact into a full re-report, and
//!   flushes its rack aggregate to the root by clamped replacement, so
//!   root totals stay monotone even while reconstruction is partial.
//!
//! With every delivery `Ok`, the protocol path produces byte-identical
//! totals, replies, and wire accounting to the plain path (the epoch/
//! seq/ack header rides inside the existing `HEADER_BYTES` allowance) —
//! robustness is free when idle. What is not free is contact: the
//! protocol repairs state only when a scheduler makes contact, so an
//! armed tree hears from every reachable scheduler each round, empty
//! report or not. The engine therefore arms it only under an active
//! fault schedule; an armed 1024-node round costs ~3.4× the time and
//! 3.0× the sync bytes of a plain one.

use crate::broker::{BrokerStats, SchedulingBroker, Staleness, ENTRY_BYTES, HEADER_BYTES};
use crate::request::AppId;
use ibis_simcore::{SimDuration, SimTime};

/// Shape of the coordination tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerTreeConfig {
    /// Schedulers per leaf aggregator — the tree's fan-out. Node `n`
    /// reports to leaf `n / rack_size`, matching the rack topology the
    /// namenode uses for placement. Clamped to at least 1.
    pub rack_size: u32,
    /// Control-plane latency per tree hop. The tree adds two hops over
    /// the flat broker (leaf→root and root→leaf), so a completed round's
    /// sync instant is marked `2 × hop_latency` before the round event —
    /// staleness honestly reflects tree depth.
    pub hop_latency: SimDuration,
}

impl Default for BrokerTreeConfig {
    fn default() -> Self {
        BrokerTreeConfig {
            rack_size: 32,
            hop_latency: SimDuration::from_micros(50),
        }
    }
}

impl BrokerTreeConfig {
    /// The information delay the tree's extra depth imposes on every
    /// completed round.
    pub fn info_delay(&self) -> SimDuration {
        SimDuration::from_nanos(self.hop_latency.as_nanos().saturating_mul(2))
    }
}

/// One rack's aggregator: folds its schedulers' deltas for the current
/// round and caches the totals the root last pushed down.
#[derive(Debug, Clone, Default)]
struct Leaf {
    /// Dense per-app delta accumulated this round.
    pending: Vec<u64>,
    /// Round stamp per app slot: `stamp[i] == round` ⇔ app i was reported
    /// to this leaf this round (generation trick — no per-round clearing
    /// of the dense arrays).
    stamp: Vec<u64>,
    /// Apps reported this round, first-touch order (sorted at flush).
    touched: Vec<AppId>,
    /// Dense cache of the last totals the root pushed down.
    cache: Vec<u64>,
    cached: Vec<bool>,
    /// Live entries in `cache`.
    cached_count: usize,
}

impl Leaf {
    fn ensure(&mut self, i: usize) {
        if i >= self.pending.len() {
            self.pending.resize(i + 1, 0);
            self.stamp.resize(i + 1, 0);
            self.cache.resize(i + 1, 0);
            self.cached.resize(i + 1, false);
        }
    }

    fn fold(&mut self, round: u64, app: AppId, bytes: u64) {
        let i = app.0 as usize;
        self.ensure(i);
        if self.stamp[i] != round {
            self.stamp[i] = round;
            self.pending[i] = 0;
            self.touched.push(app);
        }
        self.pending[i] += bytes;
    }
}

/// What the wire does with one protocol message — decided by the fault
/// engine's deterministic coins, executed by
/// [`BrokerTree::report_ft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered in order — the common case.
    Ok,
    /// Lost. The sender's sequence number is consumed, so the receiver
    /// sees a gap at the next contact and triggers a snapshot resync.
    Drop,
    /// Delivered twice. The second copy hits the seq guard and is
    /// counted in [`BrokerStats::dup_ignored`].
    Dup,
    /// Held back and delivered *after* the sender's next message —
    /// genuine reordering. The newer message's gap triggers a resync;
    /// the late original then arrives stale and is ignored.
    Reorder,
}

/// What one [`BrokerTree::report_ft`] call did at the receiving leaf, so
/// the engine can emit observability markers and fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportOutcome {
    /// A gap or stale epoch forced a snapshot resync this call.
    pub resynced: bool,
    /// Entries in the retransmitted snapshot (0 unless `resynced`).
    pub snapshot_entries: u32,
    /// Stale or duplicate messages the seq guard ignored this call.
    pub dups_ignored: u32,
}

/// A message the wire is holding back to deliver out of order.
#[derive(Debug, Clone)]
struct HeldMsg {
    epoch: u64,
    seq: u64,
    entries: Vec<(AppId, u64)>,
}

/// Protocol state for one scheduler→leaf link: the sender's cumulative
/// retransmit source and the leaf's receive cursor. Both ends live in
/// one struct because the simulator is omniscient; on a real wire the
/// receiver's cursor travels back as the cumulative ack in each reply.
#[derive(Debug, Clone, Default)]
struct NodeLink {
    /// Sender: epoch of messages it currently stamps.
    epoch: u64,
    /// Sender: next sequence number to assign.
    next_seq: u64,
    /// Sender: cumulative per-app service ever handed to the protocol —
    /// the bounded snapshot a resync retransmits. Sparse and sorted:
    /// O(apps this node ever served).
    sent_cum: Vec<(AppId, u64)>,
    /// Wire: a message held back for out-of-order delivery.
    held: Option<HeldMsg>,
    /// Receiver: epoch it expects (bumped by a leaf restart).
    recv_epoch: u64,
    /// Receiver: next in-order sequence number (cumulative ack = this − 1).
    recv_next: u64,
    /// Receiver: per-app service applied from this node, for computing
    /// replacement deltas during a resync. Sparse and sorted.
    contrib: Vec<(AppId, u64)>,
    /// This node had state when its leaf crashed and has not re-reported
    /// yet — the leaf's replacement flush stays clamped until all such
    /// nodes are back.
    needs_full: bool,
}

/// Protocol state for one leaf→root link.
#[derive(Debug, Clone, Default)]
struct RackLink {
    /// Leaf sender: current epoch (bumped when the leaf restarts empty).
    epoch: u64,
    /// Leaf sender: next flush sequence number.
    next_seq: u64,
    /// Leaf sender: the rack's cumulative per-app service as reconstructed
    /// at the leaf. Maintained incrementally on every applied delta;
    /// cleared (and rebuilt from scheduler re-reports) on restart.
    rack_cum: Vec<(AppId, u64)>,
    /// Root receiver: epoch it has adopted from this leaf.
    recv_epoch: u64,
    /// Root receiver: next in-order flush sequence (cumulative ack − 1).
    recv_next: u64,
    /// Root receiver: per-app service applied from this rack.
    contrib: Vec<(AppId, u64)>,
    /// Post-restart reconstruction mode: flush by clamped replacement
    /// instead of deltas. Sticky until `awaiting == 0` so a straggler's
    /// late re-report cannot double-count.
    snapshot_mode: bool,
    /// Rack nodes with pre-crash state that have not resynced yet.
    awaiting: u32,
}

/// Per-link protocol state, present only in fault-injected runs
/// ([`BrokerTree::enable_protocol`]). Fault-free runs never allocate it.
#[derive(Debug, Clone, Default)]
struct Protocol {
    nodes: Vec<NodeLink>,
    racks: Vec<RackLink>,
}

impl Protocol {
    fn ensure(&mut self, node: u32, rack: u32) {
        let n = node as usize;
        if n >= self.nodes.len() {
            self.nodes.resize_with(n + 1, NodeLink::default);
        }
        self.ensure_rack(rack);
    }

    fn ensure_rack(&mut self, rack: u32) {
        let r = rack as usize;
        if r >= self.racks.len() {
            self.racks.resize_with(r + 1, RackLink::default);
        }
    }
}

/// Adds `bytes` to `app` in a sparse sorted cumulative vector.
fn cum_add(v: &mut Vec<(AppId, u64)>, app: AppId, bytes: u64) {
    match v.binary_search_by_key(&app, |e| e.0) {
        Ok(i) => v[i].1 += bytes,
        Err(i) => v.insert(i, (app, bytes)),
    }
}

/// Current value for `app` in a sparse sorted cumulative vector.
fn cum_get(v: &[(AppId, u64)], app: AppId) -> u64 {
    match v.binary_search_by_key(&app, |e| e.0) {
        Ok(i) => v[i].1,
        Err(_) => 0,
    }
}

/// Removes `app` from a sparse sorted cumulative vector.
fn cum_remove(v: &mut Vec<(AppId, u64)>, app: AppId) {
    if let Ok(i) = v.binary_search_by_key(&app, |e| e.0) {
        v.remove(i);
    }
}

/// A two-level broker tree: per-rack leaf aggregators under one root.
///
/// Totals are exactly those of a flat [`SchedulingBroker`] fed the same
/// reports (`broker_tree_equivalence` proves it for arbitrary
/// interleavings); only *where* messages terminate and *when* replies
/// snapshot the totals differ.
#[derive(Debug, Clone)]
pub struct BrokerTree {
    cfg: BrokerTreeConfig,
    /// The root's dense totals. Its level-0 counters stay zero — the tree
    /// accounts scheduler-facing traffic itself and leaf↔root traffic at
    /// level 1.
    root: SchedulingBroker,
    leaves: Vec<Leaf>,
    stats: BrokerStats,
    last_sync: Option<SimTime>,
    /// Monotone round id for the leaves' generation stamps.
    round: u64,
    /// Subscriptions recorded this round: `(node, start, len)` into
    /// `sub_apps`.
    subs: Vec<(u32, u32, u32)>,
    sub_apps: Vec<AppId>,
    /// Pooled reply scratch, valid until the next `reply_for` call.
    reply: Vec<(AppId, u64)>,
    /// Pooled scratch for one leaf's up/down delta message.
    delta: Vec<(AppId, u64)>,
    /// Fault-tolerant protocol state, `None` until
    /// [`enable_protocol`](Self::enable_protocol). The plain path never
    /// touches it, so fault-free runs stay byte-identical.
    proto: Option<Protocol>,
}

impl BrokerTree {
    /// Creates an empty tree with the given shape.
    pub fn new(cfg: BrokerTreeConfig) -> Self {
        let cfg = BrokerTreeConfig {
            rack_size: cfg.rack_size.max(1),
            ..cfg
        };
        BrokerTree {
            cfg,
            root: SchedulingBroker::new(),
            leaves: Vec::new(),
            stats: BrokerStats::default(),
            last_sync: None,
            round: 0,
            subs: Vec::new(),
            sub_apps: Vec::new(),
            reply: Vec::new(),
            delta: Vec::new(),
            proto: None,
        }
    }

    /// Arms the fault-tolerant protocol layer (epoch/seq links, snapshot
    /// resync, restart recovery). Called once before the first round by
    /// fault-injected runs; idempotent. Fault-free runs never call this,
    /// so the plain path pays nothing.
    pub fn enable_protocol(&mut self) {
        if self.proto.is_none() {
            self.proto = Some(Protocol::default());
        }
    }

    /// Whether the fault-tolerant protocol layer is armed.
    pub fn protocol_enabled(&self) -> bool {
        self.proto.is_some()
    }

    /// The tree's shape.
    pub fn config(&self) -> BrokerTreeConfig {
        self.cfg
    }

    /// The leaf aggregator serving `node`.
    pub fn leaf_of(&self, node: u32) -> u32 {
        node / self.cfg.rack_size
    }

    fn leaf_mut(&mut self, idx: u32) -> &mut Leaf {
        let idx = idx as usize;
        if idx >= self.leaves.len() {
            self.leaves.resize_with(idx + 1, Leaf::default);
        }
        &mut self.leaves[idx]
    }

    /// Opens a sync round: clears the previous round's subscriptions.
    /// Leaf pending state is round-stamped, so this is O(1).
    pub fn begin_round(&mut self) {
        self.round += 1;
        self.subs.clear();
        self.sub_apps.clear();
    }

    /// One scheduler's delta report for the current round. Entries follow
    /// the flat-broker contract (per-app bytes since that scheduler's last
    /// report); an empty report still costs headers and subscribes the
    /// node to an empty reply, matching the flat broker.
    pub fn report(&mut self, node: u32, local: &[(AppId, u64)]) {
        self.stats.reports += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * local.len() as u64;
        let round = self.round;
        let leaf = self.leaf_of(node);
        let leaf = self.leaf_mut(leaf);
        for &(app, bytes) in local {
            leaf.fold(round, app, bytes);
        }
        let start = self.sub_apps.len() as u32;
        self.sub_apps.extend(local.iter().map(|&(a, _)| a));
        self.subs.push((node, start, local.len() as u32));
    }

    /// One scheduler's delta report under the fault protocol. The sender
    /// merges the delta into its cumulative retransmit state and stamps
    /// the message with its link's (epoch, seq); `disp` is the wire's
    /// verdict for this message. Every *sent* message is charged at level
    /// 0 — a dropped report still burned wire bytes — and the epoch/seq/
    /// ack header rides inside the existing `HEADER_BYTES` allowance, so
    /// an all-[`Delivery::Ok`] run's accounting is byte-identical to
    /// [`report`](Self::report).
    ///
    /// Requires [`enable_protocol`](Self::enable_protocol).
    pub fn report_ft(&mut self, node: u32, local: &[(AppId, u64)], disp: Delivery) -> ReportOutcome {
        self.stats.reports += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * local.len() as u64;
        let li = self.leaf_of(node);
        self.leaf_mut(li); // ensure the leaf exists
        let round = self.round;
        let p = self
            .proto
            .as_mut()
            .expect("report_ft requires enable_protocol()");
        p.ensure(node, li);
        let Protocol { nodes, racks } = p;
        let link = &mut nodes[node as usize];
        let rack = &mut racks[li as usize];
        let leaf = &mut self.leaves[li as usize];
        for &(app, bytes) in local {
            cum_add(&mut link.sent_cum, app, bytes);
        }
        let epoch = link.epoch;
        let seq = link.next_seq;
        link.next_seq += 1;
        // Take any held message first: it will surface *after* this newer
        // one — genuine out-of-order delivery.
        let held = link.held.take();
        let mut outcome = ReportOutcome::default();
        match disp {
            Delivery::Ok => Self::deliver(
                leaf,
                &mut self.stats,
                &mut self.subs,
                &mut self.sub_apps,
                round,
                node,
                link,
                rack,
                epoch,
                seq,
                local,
                &mut outcome,
            ),
            Delivery::Drop => {
                // Lost on the wire: the seq is consumed, so the gap is
                // detected (ack < sent) and repaired at the next contact.
            }
            Delivery::Dup => {
                for _ in 0..2 {
                    Self::deliver(
                        leaf,
                        &mut self.stats,
                        &mut self.subs,
                        &mut self.sub_apps,
                        round,
                        node,
                        link,
                        rack,
                        epoch,
                        seq,
                        local,
                        &mut outcome,
                    );
                }
            }
            Delivery::Reorder => {
                link.held = Some(HeldMsg {
                    epoch,
                    seq,
                    entries: local.to_vec(),
                });
            }
        }
        if let Some(h) = held {
            Self::deliver(
                leaf,
                &mut self.stats,
                &mut self.subs,
                &mut self.sub_apps,
                round,
                node,
                link,
                rack,
                h.epoch,
                h.seq,
                &h.entries,
                &mut outcome,
            );
        }
        outcome
    }

    /// Hop-1 receive: one protocol message lands at `node`'s leaf.
    ///
    /// In order → apply the delta. Stale seq or pre-adopted epoch →
    /// ignore (seq-keyed idempotency). Gap or first contact after a leaf
    /// restart → bounded snapshot resync: the sender retransmits
    /// `sent_cum` and the leaf applies it by replacement.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        leaf: &mut Leaf,
        stats: &mut BrokerStats,
        subs: &mut Vec<(u32, u32, u32)>,
        sub_apps: &mut Vec<AppId>,
        round: u64,
        node: u32,
        link: &mut NodeLink,
        rack: &mut RackLink,
        epoch: u64,
        seq: u64,
        entries: &[(AppId, u64)],
        outcome: &mut ReportOutcome,
    ) {
        let stale = if epoch == link.recv_epoch {
            if seq == link.recv_next {
                // In order: apply the delta and subscribe the node.
                for &(app, bytes) in entries {
                    leaf.fold(round, app, bytes);
                    cum_add(&mut link.contrib, app, bytes);
                    cum_add(&mut rack.rack_cum, app, bytes);
                }
                link.recv_next = seq + 1;
                let start = sub_apps.len() as u32;
                sub_apps.extend(entries.iter().map(|&(a, _)| a));
                subs.push((node, start, entries.len() as u32));
                return;
            }
            seq < link.recv_next
        } else {
            // A message from a pre-restart epoch. If the sender already
            // adopted the new epoch this is a late ghost; otherwise it is
            // the node's first contact since the crash → resync.
            debug_assert!(epoch < link.recv_epoch, "receiver epochs only grow");
            link.epoch == link.recv_epoch
        };
        if stale {
            stats.dup_ignored += 1;
            outcome.dups_ignored += 1;
            return;
        }
        // Gap or epoch mismatch: snapshot resync in the same round. The
        // receiver's cumulative ack told the sender how far it got; the
        // sender answers with its full cumulative state — O(apps this
        // node ever served) — and the leaf applies it by replacement.
        outcome.resynced = true;
        outcome.snapshot_entries = link.sent_cum.len() as u32;
        stats.resyncs += 1;
        stats.resync_bytes += HEADER_BYTES + ENTRY_BYTES * link.sent_cum.len() as u64;
        for &(app, cum) in &link.sent_cum {
            let old = cum_get(&link.contrib, app);
            // Checked in release too: a wrapped delta would be folded
            // into the rack and root totals.
            let delta = cum
                .checked_sub(old)
                .expect("snapshot below applied contribution");
            // Fold even zero deltas: the app lands in `touched`, so this
            // round refreshes its leaf-cache total and the resync reply
            // covers the node's full working set.
            leaf.fold(round, app, delta);
            if delta > 0 {
                cum_add(&mut rack.rack_cum, app, delta);
            }
        }
        link.contrib.clear();
        link.contrib.extend_from_slice(&link.sent_cum);
        if link.needs_full {
            link.needs_full = false;
            rack.awaiting = rack.awaiting.saturating_sub(1);
        }
        link.epoch = link.recv_epoch;
        // The snapshot covers every message the sender has numbered, not
        // just up to `seq`: a late held message can trigger this resync
        // while a newer one is itself held on the wire, and that newer
        // one's delta is already inside `sent_cum`. Acking through the
        // sender's latest seq makes it stale when it lands, instead of
        // folding it a second time.
        link.recv_next = link.next_seq;
        let start = sub_apps.len() as u32;
        sub_apps.extend(link.sent_cum.iter().map(|&(a, _)| a));
        subs.push((node, start, link.sent_cum.len() as u32));
    }

    /// Hop-2 receive: applies one leaf→root delta flush unless its seq
    /// was already acked — a retried or duplicated flush is ignored, the
    /// seq-keyed idempotency guard on the upper hop.
    fn root_apply(
        root: &mut SchedulingBroker,
        stats: &mut BrokerStats,
        rl: &mut RackLink,
        seq: u64,
        delta: &[(AppId, u64)],
    ) {
        if seq < rl.recv_next {
            stats.dup_ignored += 1;
            return;
        }
        for &(app, d) in delta {
            cum_add(&mut rl.contrib, app, d);
        }
        rl.recv_next = seq + 1;
        root.fold(delta);
    }

    /// Models rack `rack`'s leaf aggregator crashing and restarting
    /// *empty*: its pending round state, reply cache, and reconstructed
    /// rack totals are gone. The rack's epoch is bumped, so every
    /// scheduler's next contact fails the epoch check and answers with a
    /// full snapshot re-report; until all schedulers that had state are
    /// back, the leaf flushes to the root by clamped replacement
    /// (`snapshot_mode`), keeping root totals monotone. The root's copy
    /// of previously flushed totals survives — only the leaf's state is
    /// volatile.
    pub fn leaf_restart(&mut self, rack: u32) {
        if let Some(leaf) = self.leaves.get_mut(rack as usize) {
            leaf.touched.clear();
            leaf.pending.fill(0);
            leaf.stamp.fill(0);
            leaf.cache.fill(0);
            leaf.cached.fill(false);
            leaf.cached_count = 0;
        }
        let rack_size = self.cfg.rack_size;
        let Some(p) = self.proto.as_mut() else {
            return;
        };
        p.ensure_rack(rack);
        let rl = &mut p.racks[rack as usize];
        rl.epoch += 1;
        rl.snapshot_mode = true;
        rl.rack_cum.clear();
        rl.awaiting = 0;
        let lo = (rack * rack_size) as usize;
        let hi = ((rack + 1) * rack_size) as usize;
        for link in p.nodes.iter_mut().take(hi).skip(lo) {
            link.recv_epoch += 1;
            link.recv_next = 0;
            link.contrib.clear();
            link.held = None; // in-flight messages to a dead leaf are lost
            if !link.sent_cum.is_empty() {
                link.needs_full = true;
                rl.awaiting += 1;
            }
        }
    }

    /// True when `node`'s link holds unacknowledged protocol state — a
    /// lost or held message, or a pre-restart epoch. On a real wire this
    /// is exactly "cumulative ack < last sent seq" as seen by the sender.
    /// The engine does not consult it: under a fault schedule every
    /// reachable scheduler reports at every exchange, empty reports
    /// included (heartbeats), and the next report from such a node
    /// triggers the snapshot resync. Tests use it to observe link state.
    pub fn needs_contact(&self, node: u32) -> bool {
        self.proto.as_ref().is_some_and(|p| {
            p.nodes.get(node as usize).is_some_and(|l| {
                l.epoch != l.recv_epoch || l.recv_next != l.next_seq || l.held.is_some()
            })
        })
    }

    /// Closes the round: every dirty leaf flushes one rack-merged delta to
    /// the root (level-1 up), the root folds, and the root pushes each
    /// leaf the totals its rack asked about (level-1 down) into the leaf
    /// cache. Marks the sync at `now − 2·hop_latency` (saturating) so the
    /// recorded information age includes the tree's extra depth.
    pub fn complete_round(&mut self, now: SimTime) {
        let round = self.round;
        // Phase 1 — up: every dirty leaf flushes one rack-merged delta.
        // All racks reach the root before anything flows down, so every
        // down message (and therefore every reply) carries true
        // end-of-round totals, not a prefix of the round.
        for li in 0..self.leaves.len() {
            let leaf = &mut self.leaves[li];
            if leaf.touched.is_empty() {
                continue;
            }
            // Sorted by app id for deterministic fold order.
            leaf.touched.sort_unstable();
            self.delta.clear();
            for &app in &leaf.touched {
                let i = app.0 as usize;
                debug_assert_eq!(leaf.stamp[i], round);
                self.delta.push((app, leaf.pending[i]));
            }
            match self.proto.as_mut() {
                None => {
                    self.stats.agg_msgs += 1;
                    self.stats.agg_bytes += HEADER_BYTES + ENTRY_BYTES * self.delta.len() as u64;
                    self.root.fold(&self.delta);
                }
                Some(p) => {
                    p.ensure_rack(li as u32);
                    let rl = &mut p.racks[li];
                    if rl.snapshot_mode {
                        // Post-restart reconstruction: the leaf's round
                        // deltas are already inside `rack_cum`, so flush
                        // the whole reconstructed aggregate by *clamped*
                        // replacement — the root only ever moves up, even
                        // while some schedulers have not re-reported yet.
                        self.stats.resyncs += 1;
                        self.stats.resync_bytes +=
                            HEADER_BYTES + ENTRY_BYTES * rl.rack_cum.len() as u64;
                        self.delta.clear();
                        for &(app, cum) in &rl.rack_cum {
                            let old = cum_get(&rl.contrib, app);
                            if cum > old {
                                self.delta.push((app, cum - old));
                            }
                        }
                        for &(app, d) in &self.delta {
                            cum_add(&mut rl.contrib, app, d);
                        }
                        let seq = rl.next_seq;
                        rl.next_seq += 1;
                        rl.recv_epoch = rl.epoch;
                        rl.recv_next = seq + 1;
                        self.root.fold(&self.delta);
                        if rl.awaiting == 0 {
                            // Every scheduler that had pre-crash state has
                            // resynced: `rack_cum` is complete again, so
                            // normal delta flushes are consistent from the
                            // next round on.
                            rl.snapshot_mode = false;
                        }
                    } else {
                        self.stats.agg_msgs += 1;
                        self.stats.agg_bytes +=
                            HEADER_BYTES + ENTRY_BYTES * self.delta.len() as u64;
                        let seq = rl.next_seq;
                        rl.next_seq += 1;
                        Self::root_apply(&mut self.root, &mut self.stats, rl, seq, &self.delta);
                    }
                }
            }
        }
        // Phase 2 — down: the root pushes each dirty rack the totals it
        // subscribed to this round.
        for leaf in &mut self.leaves {
            if leaf.touched.is_empty() {
                continue;
            }
            self.stats.agg_msgs += 1;
            self.stats.agg_bytes += HEADER_BYTES + ENTRY_BYTES * leaf.touched.len() as u64;
            for idx in 0..leaf.touched.len() {
                let app = leaf.touched[idx];
                let i = app.0 as usize;
                let total = self.root.total(app).unwrap_or(0);
                leaf.cache[i] = total;
                if !leaf.cached[i] {
                    leaf.cached[i] = true;
                    leaf.cached_count += 1;
                }
            }
            leaf.touched.clear();
        }
        let delayed = now
            .as_nanos()
            .saturating_sub(self.cfg.info_delay().as_nanos());
        self.last_sync = Some(SimTime::from_nanos(delayed));
    }

    /// Subscriptions recorded this round (one per `report` call), to pair
    /// with [`reply_for`](Self::reply_for).
    pub fn subs_len(&self) -> usize {
        self.subs.len()
    }

    /// Builds subscription `idx`'s reply — the end-of-round totals for
    /// exactly the apps that scheduler reported — in the pooled buffer and
    /// returns `(node, reply)`. Call once per subscription per round after
    /// [`complete_round`](Self::complete_round); each call accounts one
    /// level-0 reply message.
    pub fn reply_for(&mut self, idx: usize) -> (u32, &[(AppId, u64)]) {
        let (node, start, len) = self.subs[idx];
        let leaf = &self.leaves[self.leaf_of(node) as usize];
        self.reply.clear();
        for &app in &self.sub_apps[start as usize..(start + len) as usize] {
            let i = app.0 as usize;
            debug_assert!(leaf.cached[i], "reply app missing from leaf cache");
            self.reply.push((app, leaf.cache[i]));
        }
        self.stats.replies += 1;
        self.stats.payload_bytes += HEADER_BYTES + ENTRY_BYTES * self.reply.len() as u64;
        (node, &self.reply)
    }

    /// Cluster-wide total service for `app`, if known at the root.
    pub fn total(&self, app: AppId) -> Option<u64> {
        self.root.total(app)
    }

    /// Retires a finished application everywhere: root totals and every
    /// leaf cache.
    pub fn retire(&mut self, app: AppId) {
        self.root.retire(app);
        let i = app.0 as usize;
        for leaf in &mut self.leaves {
            if i < leaf.cached.len() && leaf.cached[i] {
                leaf.cached[i] = false;
                leaf.cache[i] = 0;
                leaf.cached_count -= 1;
            }
        }
        // Protocol links must forget the app too, or a reused AppId would
        // resync against the retired generation's cumulative totals. That
        // includes a report held on the wire: landing in order later, it
        // would fold the retired generation's bytes into the new one.
        if let Some(p) = &mut self.proto {
            for link in &mut p.nodes {
                cum_remove(&mut link.sent_cum, app);
                cum_remove(&mut link.contrib, app);
                if let Some(held) = &mut link.held {
                    held.entries.retain(|&(a, _)| a != app);
                }
            }
            for rl in &mut p.racks {
                cum_remove(&mut rl.rack_cum, app);
                cum_remove(&mut rl.contrib, app);
            }
        }
    }

    /// Live applications tracked at the root.
    pub fn live_apps(&self) -> usize {
        self.root.live_apps()
    }

    /// Total coordination-plane state: the root's totals plus every leaf's
    /// cached entries — the price of the hierarchy is one cache line per
    /// (rack, active app) pair.
    pub fn state_bytes(&self) -> u64 {
        let proto = self.proto.as_ref().map_or(0, |p| {
            let node_entries: usize = p
                .nodes
                .iter()
                .map(|l| l.sent_cum.len() + l.contrib.len())
                .sum();
            let rack_entries: usize = p
                .racks
                .iter()
                .map(|r| r.rack_cum.len() + r.contrib.len())
                .sum();
            ENTRY_BYTES * (node_entries + rack_entries) as u64
        });
        self.root.state_bytes()
            + self
                .leaves
                .iter()
                .map(|l| ENTRY_BYTES * l.cached_count as u64)
                .sum::<u64>()
            + proto
    }

    /// Overhead counters (level 0 = scheduler↔leaf, level 1 = leaf↔root).
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Records an externally-driven sync completion (the fault path marks
    /// delayed deliveries at their true instant). The regular path sets
    /// this in [`complete_round`](Self::complete_round).
    pub fn mark_sync(&mut self, now: SimTime) {
        self.last_sync = Some(now);
    }

    /// Age of the last completed round's information, `None` before the
    /// first round. Includes the tree's `2 × hop_latency` depth penalty.
    pub fn sync_age(&self, now: SimTime) -> Option<SimDuration> {
        self.last_sync.map(|t| now.saturating_since(t))
    }

    /// Classifies the root totals' trustworthiness via
    /// [`Staleness::classify`].
    pub fn staleness(&self, now: SimTime, bound: SimDuration) -> Staleness {
        Staleness::classify(self.last_sync, now, bound)
    }

    /// All `(app, total)` pairs at the root, sorted by app id.
    pub fn totals_sorted(&self) -> Vec<(AppId, u64)> {
        self.root.totals_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);
    const C: AppId = AppId(3);

    fn tree(rack: u32) -> BrokerTree {
        BrokerTree::new(BrokerTreeConfig {
            rack_size: rack,
            hop_latency: SimDuration::from_micros(50),
        })
    }

    #[test]
    fn totals_match_flat_broker() {
        let mut t = tree(2);
        let mut flat = SchedulingBroker::new();
        // Rack 0: nodes 0,1. Rack 1: nodes 2,3.
        let reports: [(u32, &[(AppId, u64)]); 4] = [
            (0, &[(A, 100)]),
            (1, &[(A, 50), (B, 30)]),
            (2, &[(B, 5)]),
            (3, &[(C, 1)]),
        ];
        t.begin_round();
        for &(node, local) in &reports {
            t.report(node, local);
            flat.report(local);
        }
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.totals_sorted(), flat.totals_sorted());
        assert_eq!(t.total(A), Some(150));
    }

    #[test]
    fn replies_are_end_of_round_totals_for_reported_apps_only() {
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[(A, 100)]);
        t.report(1, &[(A, 50), (B, 30)]);
        t.report(2, &[(A, 7)]);
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.subs_len(), 3);
        // Node 0 reported before node 1 and node 2, but its reply still
        // carries the full end-of-round total — the tree's freshness win.
        let (n0, r0) = t.reply_for(0);
        assert_eq!((n0, r0), (0, &[(A, 157)][..]));
        let (n1, r1) = t.reply_for(1);
        assert_eq!((n1, r1), (1, &[(A, 157), (B, 30)][..]));
        let (n2, r2) = t.reply_for(2);
        assert_eq!((n2, r2), (2, &[(A, 157)][..]));
    }

    #[test]
    fn rack_merge_deduplicates_upward_traffic() {
        // 4 nodes in one rack all report the same app: one up message with
        // one entry crosses the leaf→root link, not four.
        let mut t = tree(4);
        t.begin_round();
        for node in 0..4 {
            t.report(node, &[(A, 10)]);
        }
        t.complete_round(SimTime::from_secs(1));
        let s = t.stats();
        assert_eq!(s.reports, 4);
        // One up + one down message for the single dirty leaf.
        assert_eq!(s.agg_msgs, 2);
        assert_eq!(s.agg_bytes, 2 * (HEADER_BYTES + ENTRY_BYTES));
        assert_eq!(t.total(A), Some(40));
    }

    #[test]
    fn unreported_racks_stay_silent() {
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[(A, 1)]);
        t.report(5, &[(B, 1)]); // rack 2
        t.complete_round(SimTime::from_secs(1));
        // Exactly two dirty leaves → 4 aggregator messages; rack 1 (nodes
        // 2,3) contributes nothing.
        assert_eq!(t.stats().agg_msgs, 4);
    }

    #[test]
    fn empty_report_subscribes_to_empty_reply() {
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[]);
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.stats().agg_msgs, 0);
        let (node, reply) = t.reply_for(0);
        assert_eq!(node, 0);
        assert!(reply.is_empty());
        // Headers are still paid at level 0, matching the flat broker.
        assert_eq!(t.stats().payload_bytes, 2 * HEADER_BYTES);
    }

    #[test]
    fn sync_age_includes_tree_depth() {
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[(A, 1)]);
        t.complete_round(SimTime::from_millis(10));
        // hop_latency 50µs ⇒ the round's information is 100µs old at the
        // instant the round completes.
        assert_eq!(
            t.sync_age(SimTime::from_millis(10)),
            Some(SimDuration::from_micros(100))
        );
        // Saturates at zero near simulation start.
        let mut t2 = tree(2);
        t2.begin_round();
        t2.report(0, &[(A, 1)]);
        t2.complete_round(SimTime::ZERO);
        assert_eq!(t2.sync_age(SimTime::ZERO), Some(SimDuration::ZERO));
    }

    #[test]
    fn staleness_classifies_like_flat() {
        let t = tree(2);
        assert_eq!(
            t.staleness(SimTime::from_secs(1), SimDuration::from_secs(1)),
            Staleness::Dark
        );
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[(A, 1)]);
        t.complete_round(SimTime::from_secs(10));
        assert!(t
            .staleness(SimTime::from_secs(10), SimDuration::from_secs(1))
            .usable());
        assert!(!t
            .staleness(SimTime::from_secs(20), SimDuration::from_secs(1))
            .usable());
    }

    #[test]
    fn retire_clears_root_and_leaf_caches() {
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[(A, 10)]);
        t.report(2, &[(A, 5), (B, 1)]);
        t.complete_round(SimTime::from_secs(1));
        let before = t.state_bytes();
        assert!(before > 0);
        t.retire(A);
        assert_eq!(t.total(A), None);
        // Root entry + two leaf cache entries freed.
        assert_eq!(before - t.state_bytes(), 3 * ENTRY_BYTES);

        // Resurrection accumulates from zero.
        t.begin_round();
        t.report(0, &[(A, 2)]);
        t.complete_round(SimTime::from_secs(2));
        assert_eq!(t.total(A), Some(2));
        let (_, reply) = t.reply_for(0);
        assert_eq!(reply, &[(A, 2)][..]);
    }

    #[test]
    fn round_state_resets_between_rounds() {
        let mut t = tree(2);
        t.begin_round();
        t.report(0, &[(A, 10)]);
        t.complete_round(SimTime::from_secs(1));
        t.begin_round();
        t.report(1, &[(A, 1)]);
        t.complete_round(SimTime::from_secs(2));
        // Second round folds only the new delta.
        assert_eq!(t.total(A), Some(11));
        assert_eq!(t.subs_len(), 1);
        let (node, reply) = t.reply_for(0);
        assert_eq!((node, reply), (1, &[(A, 11)][..]));
    }

    #[test]
    fn pooled_buffers_stop_growing() {
        let mut t = tree(2);
        // Warm up.
        for round in 0..3u64 {
            t.begin_round();
            t.report(0, &[(A, round), (B, 1)]);
            t.report(1, &[(A, 1)]);
            t.complete_round(SimTime::from_secs(round));
            for i in 0..t.subs_len() {
                t.reply_for(i);
            }
        }
        let caps = (
            t.reply.capacity(),
            t.delta.capacity(),
            t.sub_apps.capacity(),
            t.subs.capacity(),
        );
        for round in 3..50u64 {
            t.begin_round();
            t.report(0, &[(A, round), (B, 1)]);
            t.report(1, &[(A, 1)]);
            t.complete_round(SimTime::from_secs(round));
            for i in 0..t.subs_len() {
                t.reply_for(i);
            }
        }
        assert_eq!(
            caps,
            (
                t.reply.capacity(),
                t.delta.capacity(),
                t.sub_apps.capacity(),
                t.subs.capacity(),
            )
        );
    }

    #[test]
    fn rack_size_zero_clamps_to_one() {
        let t = BrokerTree::new(BrokerTreeConfig {
            rack_size: 0,
            hop_latency: SimDuration::ZERO,
        });
        assert_eq!(t.config().rack_size, 1);
        assert_eq!(t.leaf_of(5), 5);
    }

    // ---- fault-tolerant protocol mode ----

    fn ftree(rack: u32) -> BrokerTree {
        let mut t = tree(rack);
        t.enable_protocol();
        t
    }

    #[test]
    fn ft_all_ok_is_byte_identical_to_plain_path() {
        let mut plain = tree(2);
        let mut ft = ftree(2);
        for round in 1..=5u64 {
            plain.begin_round();
            ft.begin_round();
            for node in 0..4u32 {
                let local = [(A, round * 10 + node as u64), (B, 1)];
                plain.report(node, &local);
                ft.report_ft(node, &local, Delivery::Ok);
            }
            let now = SimTime::from_secs(round);
            plain.complete_round(now);
            ft.complete_round(now);
            assert_eq!(plain.subs_len(), ft.subs_len());
            for i in 0..plain.subs_len() {
                let (pn, pr) = plain.reply_for(i);
                let (pr_node, pr_reply) = (pn, pr.to_vec());
                let (fn_, fr) = ft.reply_for(i);
                assert_eq!((pr_node, pr_reply.as_slice()), (fn_, fr));
            }
        }
        assert_eq!(plain.totals_sorted(), ft.totals_sorted());
        // Wire accounting identical: robustness is free when idle.
        assert_eq!(plain.stats(), ft.stats());
        assert_eq!(ft.stats().resyncs, 0);
        assert_eq!(ft.stats().dup_ignored, 0);
    }

    #[test]
    fn duplicate_report_applies_once() {
        // Satellite regression (hop 1): the same delta delivered twice
        // must fold exactly once — seq-keyed idempotency.
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 10)], Delivery::Dup);
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.total(A), Some(10));
        assert_eq!(t.stats().dup_ignored, 1);
        assert_eq!(t.stats().resyncs, 0);
    }

    #[test]
    fn retried_rack_flush_is_idempotent() {
        // Satellite regression (hop 2): a leaf→root flush replayed with
        // an already-acked seq (a retried sync whose ack was lost) must
        // not double-fold at the root.
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 10)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.total(A), Some(10));
        let p = t.proto.as_mut().unwrap();
        let rl = &mut p.racks[0];
        let replay_seq = rl.next_seq - 1;
        BrokerTree::root_apply(&mut t.root, &mut t.stats, rl, replay_seq, &[(A, 10)]);
        assert_eq!(t.total(A), Some(10), "replayed seq must not double-fold");
        assert_eq!(t.stats().dup_ignored, 1);
        // A genuinely new seq still applies.
        let rl = &mut t.proto.as_mut().unwrap().racks[0];
        let fresh_seq = rl.next_seq;
        rl.next_seq += 1;
        BrokerTree::root_apply(&mut t.root, &mut t.stats, rl, fresh_seq, &[(A, 5)]);
        assert_eq!(t.total(A), Some(15));
    }

    #[test]
    fn dropped_report_recovers_via_snapshot_resync() {
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 10)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(1));
        t.begin_round();
        let out = t.report_ft(0, &[(A, 5)], Delivery::Drop);
        assert!(!out.resynced);
        t.complete_round(SimTime::from_secs(2));
        // The lost delta is not at the root yet, and the sender knows its
        // ack is behind.
        assert_eq!(t.total(A), Some(10));
        assert!(t.needs_contact(0));
        // Next contact carries a gap → bounded snapshot resync repairs
        // everything the drop lost.
        t.begin_round();
        let out = t.report_ft(0, &[(A, 7)], Delivery::Ok);
        assert!(out.resynced);
        assert_eq!(out.snapshot_entries, 1);
        t.complete_round(SimTime::from_secs(3));
        assert_eq!(t.total(A), Some(22));
        assert!(!t.needs_contact(0));
        assert_eq!(t.stats().resyncs, 1);
        assert!(t.stats().resync_bytes > 0);
    }

    #[test]
    fn reordered_report_arrives_late_and_is_absorbed() {
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 10)], Delivery::Reorder);
        t.complete_round(SimTime::from_secs(1));
        // Held on the wire: nothing reached the root.
        assert_eq!(t.total(A), None);
        assert!(t.needs_contact(0));
        // The next message overtakes the held one: its gap triggers a
        // resync (covering the held delta), then the late original
        // surfaces and is ignored as stale.
        t.begin_round();
        let out = t.report_ft(0, &[(A, 5)], Delivery::Ok);
        assert!(out.resynced);
        assert_eq!(out.dups_ignored, 1);
        t.complete_round(SimTime::from_secs(2));
        assert_eq!(t.total(A), Some(15));
        assert!(!t.needs_contact(0));
    }

    #[test]
    fn leaf_restart_reconstructs_from_full_re_reports() {
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 100), (B, 30)], Delivery::Ok);
        t.report_ft(1, &[(A, 50)], Delivery::Ok);
        t.report_ft(2, &[(C, 7)], Delivery::Ok); // rack 1, untouched
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.total(A), Some(150));
        // Rack 0's aggregator dies and restarts empty.
        t.leaf_restart(0);
        assert!(t.needs_contact(0));
        assert!(t.needs_contact(1));
        assert!(!t.needs_contact(2), "other racks keep their links");
        // Next round: both schedulers re-report (new deltas riding along)
        // — the epoch mismatch turns each contact into a full snapshot.
        t.begin_round();
        let o0 = t.report_ft(0, &[(A, 3)], Delivery::Ok);
        let o1 = t.report_ft(1, &[], Delivery::Ok);
        assert!(o0.resynced && o1.resynced);
        t.complete_round(SimTime::from_secs(2));
        assert_eq!(t.total(A), Some(153));
        assert_eq!(t.total(B), Some(30));
        assert_eq!(t.total(C), Some(7));
        // Replies serve the node's full working set after a resync.
        assert!(!t.needs_contact(0) && !t.needs_contact(1));
        // Reconstruction complete: snapshot mode exited.
        assert!(!t.proto.as_ref().unwrap().racks[0].snapshot_mode);
    }

    #[test]
    fn partial_reconstruction_keeps_root_monotone() {
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 100)], Delivery::Ok);
        t.report_ft(1, &[(A, 40), (B, 8)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(1));
        assert_eq!(t.total(A), Some(140));
        t.leaf_restart(0);
        // Only node 0 re-reports this round: the leaf's reconstructed
        // aggregate (105) is below the root's pre-crash total (140), so
        // the clamped replacement flush holds the root where it was —
        // monotone, temporarily shadowing node 0's new delta until the
        // missing scheduler is back.
        t.begin_round();
        t.report_ft(0, &[(A, 5)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(2));
        assert_eq!(t.total(A), Some(140));
        assert_eq!(t.total(B), Some(8), "absent node's totals survive");
        assert!(t.proto.as_ref().unwrap().racks[0].snapshot_mode);
        // Node 1 comes back: the aggregate is complete again, totals
        // converge exactly, snapshot mode ends.
        t.begin_round();
        t.report_ft(1, &[(B, 2)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(3));
        assert_eq!(t.total(A), Some(145));
        assert_eq!(t.total(B), Some(10));
        assert!(!t.proto.as_ref().unwrap().racks[0].snapshot_mode);
        // Steady state afterwards: plain deltas, no spurious resyncs.
        let resyncs = t.stats().resyncs;
        t.begin_round();
        t.report_ft(0, &[(A, 1)], Delivery::Ok);
        t.report_ft(1, &[(B, 1)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(4));
        assert_eq!(t.total(A), Some(146));
        assert_eq!(t.total(B), Some(11));
        assert_eq!(t.stats().resyncs, resyncs);
    }

    #[test]
    fn retire_purges_protocol_state() {
        let mut t = ftree(2);
        t.begin_round();
        t.report_ft(0, &[(A, 10), (B, 5)], Delivery::Ok);
        t.complete_round(SimTime::from_secs(1));
        let before = t.state_bytes();
        t.retire(A);
        // Root entry + leaf cache entry + 4 protocol entries (node
        // sent_cum/contrib, rack rack_cum/contrib) freed.
        assert_eq!(before - t.state_bytes(), 6 * ENTRY_BYTES);
        // A reused AppId accumulates from zero — no ghost resync against
        // the retired generation.
        t.begin_round();
        let out = t.report_ft(0, &[(A, 2)], Delivery::Ok);
        assert!(!out.resynced);
        t.complete_round(SimTime::from_secs(2));
        assert_eq!(t.total(A), Some(2));
    }

    #[test]
    fn replies_stay_monotone_across_faults() {
        // A scheduler must never observe a cumulative total moving
        // backwards, whatever the wire does.
        let mut t = ftree(2);
        let mut last = 0u64;
        let disps = [
            Delivery::Ok,
            Delivery::Drop,
            Delivery::Ok,
            Delivery::Reorder,
            Delivery::Ok,
            Delivery::Dup,
            Delivery::Ok,
        ];
        for (round, &disp) in disps.iter().enumerate() {
            t.begin_round();
            t.report_ft(0, &[(A, 10)], disp);
            t.report_ft(1, &[(A, 1)], Delivery::Ok);
            t.complete_round(SimTime::from_secs(round as u64 + 1));
            for i in 0..t.subs_len() {
                let (node, reply) = t.reply_for(i);
                if node == 0 {
                    for &(app, total) in reply {
                        if app == A {
                            assert!(total >= last, "reply total regressed");
                            last = total;
                        }
                    }
                }
            }
            if round == 3 {
                // An aggregator restart mid-sequence for good measure:
                // held wire state is lost, but `sent_cum` survives at the
                // senders, so the next contacts resync in full.
                t.leaf_restart(0);
            }
        }
        // Force final convergence with an empty contact from node 0.
        t.begin_round();
        t.report_ft(0, &[], Delivery::Ok);
        t.complete_round(SimTime::from_secs(20));
        assert_eq!(t.total(A), Some(7 + 7 * 10));
    }
}
