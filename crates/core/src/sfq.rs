//! SFQ(D): start-time fair queuing over a concurrent server, with the
//! DSFQ total-service delay extension.
//!
//! The algorithm (§4 of the paper; Jin et al., SIGMETRICS'04):
//!
//! * Every request `r` of flow `f` (cost `c` = bytes, weight `φ_f`) gets a
//!   **start tag** `S(r) = max(v, F_prev(f) + δ/φ_f)` and a **finish tag**
//!   `F(r) = S(r) + c/φ_f`, where `F_prev(f)` is the finish tag of `f`'s
//!   previous request and `v` is the virtual time — the start tag of the
//!   most recently dispatched request.
//! * Up to `D` requests may be outstanding at the device; whenever a slot
//!   frees, the queued request with the smallest start tag is dispatched
//!   (FIFO among ties).
//!
//! `δ` is the DSFQ delay (Wang & Merchant, FAST'07), the mechanism §5 uses
//! for *total-service* proportional sharing: it equals the I/O service the
//! flow received **on other datanodes** since its previous local request,
//! as learned from the scheduling broker. A flow that is being served
//! generously elsewhere has its local start tags pushed back, so the local
//! scheduler compensates and the *cluster-wide* service converges to the
//! weight ratio. With no broker attached `δ` is always zero and this is
//! exactly classic SFQ(D).

use crate::broker::Staleness;
use crate::request::{AppId, IoKind, Request};
use crate::scheduler::IoScheduler;
use ibis_obs::{EventBuf, EventKind};
use ibis_simcore::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configuration for [`SfqD`].
#[derive(Debug, Clone)]
pub struct SfqConfig {
    /// Number of requests allowed outstanding at the device (the `D` in
    /// SFQ(D)).
    pub depth: u32,
    /// Upper bound, in bytes, on the DSFQ delay consumed per arrival.
    /// `None` applies the full observed foreign service. A cap trades
    /// total-service accuracy for protection against long stalls when a
    /// flow returns to a node after consuming heavily elsewhere (ablation
    /// `ablate_delay_cap`).
    pub delay_cap: Option<u64>,
}

impl Default for SfqConfig {
    fn default() -> Self {
        SfqConfig {
            depth: 8,
            delay_cap: None,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    weight: f64,
    /// Finish tag of the flow's most recent arrival.
    finish_tag: f64,
    /// Bytes of completed local service, cumulative.
    local_service: u64,
    /// Portion of `local_service` not yet drained to the broker.
    unreported: u64,
    /// Total foreign (other-node) service learned from the broker,
    /// cumulative and monotone.
    foreign_total: u64,
    /// Portion of `foreign_total` already folded into start tags.
    foreign_consumed: u64,
    /// Bytes queued for this flow (for introspection only).
    backlog_bytes: u64,
    /// Requests queued for this flow (for introspection only).
    backlog: u32,
    /// The flow's app; shares its word with `backlog`, so the table needs
    /// no parallel id vector.
    app: AppId,
}

// Every registered app has a `FlowState` on every device queue in the
// cluster, so its size is multiplied by apps × nodes × 2.
const _: () = assert!(std::mem::size_of::<FlowState>() == 64);

impl FlowState {
    fn new(app: AppId) -> Self {
        FlowState {
            weight: 1.0,
            finish_tag: 0.0,
            local_service: 0,
            unreported: 0,
            foreign_total: 0,
            foreign_consumed: 0,
            backlog_bytes: 0,
            backlog: 0,
            app,
        }
    }
}

/// Flow state interned to dense indices: `AppId`s map to slots in a
/// contiguous `Vec`, so the per-request hot path (tag computation on
/// submit, backlog bookkeeping on dispatch) indexes an array instead of
/// hashing.
///
/// The table holds every app ever registered on this scheduler — the
/// engine registers each arriving app's weight on every device queue in
/// the cluster — so neither a lookup nor a service report may walk it:
///
/// * `slot` maps an app id straight to its dense index. App ids are
///   small dense integers, so it is a plain vector keyed by
///   `app.0.wrapping_add(1)`, which puts the cgroup daemon flow
///   `AppId(u32::MAX)` at key 0. Each entry is the dense index plus one
///   (0 = never seen) in two bytes, so the map stays compact across
///   thousands of schedulers.
/// * `dirty` lists the flows whose `unreported` service went from zero
///   to positive since the last drain, so a service report visits the
///   apps served since the previous sync, not every registered app.
#[derive(Debug, Default)]
struct FlowTable {
    slot: Vec<u16>,
    flows: Vec<FlowState>,
    dirty: Vec<u16>,
}

impl FlowTable {
    fn key(app: AppId) -> usize {
        app.0.wrapping_add(1) as usize
    }

    /// The dense index of `app`, if it was ever seen.
    fn index_of(&self, app: AppId) -> Option<usize> {
        match self.slot.get(Self::key(app)) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// The dense index of `app`, creating weight-1.0 state on first sight.
    fn intern(&mut self, app: AppId) -> usize {
        if let Some(i) = self.index_of(app) {
            return i;
        }
        let i = self.flows.len();
        let tag = u16::try_from(i + 1).expect("SFQ(D) flow table holds at most 65535 flows");
        let k = Self::key(app);
        if self.slot.len() <= k {
            self.slot.resize(k + 1, 0);
        }
        self.slot[k] = tag;
        self.flows.push(FlowState::new(app));
        i
    }

    fn get(&self, app: AppId) -> Option<&FlowState> {
        self.index_of(app).map(|i| &self.flows[i])
    }

    /// Credits `bytes` of completed local service to flow `i`, listing it
    /// for the next drain when it had nothing unreported.
    fn credit(&mut self, i: usize, bytes: u64) {
        let flow = &mut self.flows[i];
        if flow.unreported == 0 && bytes > 0 {
            self.dirty.push(i as u16);
        }
        flow.local_service += bytes;
        flow.unreported += bytes;
    }

    /// Moves every flow's unreported service into `out` (cleared first),
    /// sorted by app, and zeroes it.
    fn drain_unreported(&mut self, out: &mut Vec<(AppId, u64)>) {
        out.clear();
        for i in self.dirty.drain(..) {
            let f = &mut self.flows[i as usize];
            out.push((f.app, f.unreported));
            f.unreported = 0;
        }
        out.sort_unstable_by_key(|&(app, _)| app);
    }

    /// Iterates flows in intern order.
    fn iter(&self) -> impl Iterator<Item = &FlowState> {
        self.flows.iter()
    }
}

struct HeapEntry {
    start: f64,
    seq: u64,
    /// Dense [`FlowTable`] index of `req.app`, so dispatch updates the
    /// flow without re-resolving the id.
    flow: u32,
    req: Request,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for min-(start, seq).
        other
            .start
            .total_cmp(&self.start)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The SFQ(D) scheduler. See the module docs for the algorithm.
pub struct SfqD {
    cfg: SfqConfig,
    flows: FlowTable,
    queue: BinaryHeap<HeapEntry>,
    /// Virtual time: start tag of the most recently dispatched request.
    vtime: f64,
    outstanding: u32,
    next_seq: u64,
    /// Scheduling decisions, for [`IoScheduler::decisions`].
    decisions: u64,
    /// Flight-recorder emissions; one branch per site when disabled.
    obs: EventBuf,
    /// Virtual time of the last broker sync applied, for staleness
    /// telemetry.
    last_sync: Option<SimTime>,
    /// Graceful degradation (fault injection): while set, arrivals charge
    /// zero DSFQ delay — pure local SFQ(D) — because the broker totals
    /// are stale. Unconsumed foreign service stays pending and is charged
    /// after recovery.
    degraded: bool,
    /// When the current degraded episode began.
    degraded_since: Option<SimTime>,
    /// Degraded episodes entered, cumulative.
    degraded_entries: u64,
    /// Set on the first `update_staleness` call — i.e. only in fault
    /// runs — so fault-free metrics output is unchanged.
    staleness_tracked: bool,
}

impl SfqD {
    /// Creates a scheduler from its configuration.
    pub fn new(cfg: SfqConfig) -> Self {
        assert!(cfg.depth >= 1, "SFQ(D) needs D >= 1");
        SfqD {
            cfg,
            flows: FlowTable::default(),
            queue: BinaryHeap::new(),
            vtime: 0.0,
            outstanding: 0,
            next_seq: 0,
            decisions: 0,
            obs: EventBuf::new(),
            last_sync: None,
            degraded: false,
            degraded_since: None,
            degraded_entries: 0,
            staleness_tracked: false,
        }
    }

    /// Current depth bound.
    pub fn depth(&self) -> u32 {
        self.cfg.depth
    }

    /// Changes the depth bound; used by the SFQ(D2) controller. Raising it
    /// takes effect on the next `pop_dispatch`; lowering it never revokes
    /// already-outstanding requests (they drain naturally).
    pub fn set_depth(&mut self, depth: u32) {
        self.cfg.depth = depth.max(1);
    }

    /// Number of queued requests belonging to `app`.
    pub fn backlog(&self, app: AppId) -> usize {
        self.flows.get(app).map_or(0, |f| f.backlog as usize)
    }

    /// The current virtual time (for tests and invariant checks).
    pub fn virtual_time(&self) -> f64 {
        self.vtime
    }

    fn flow_mut(&mut self, app: AppId) -> &mut FlowState {
        let i = self.flows.intern(app);
        &mut self.flows.flows[i]
    }

    /// The emission buffer, shared with the SFQ(D2) wrapper so controller
    /// events interleave with scheduling events in true order.
    pub(crate) fn obs_buf_mut(&mut self) -> &mut EventBuf {
        &mut self.obs
    }

    /// Outlined emit paths: event construction stays out of the
    /// submit/dispatch hot loops, so a disabled recorder costs exactly one
    /// untaken branch per call site.
    #[inline(never)]
    fn obs_submitted(&mut self, now: SimTime, req: &Request, delay: u64, start: f64) {
        if delay > 0 {
            self.obs.push(
                now,
                EventKind::DelayApplied {
                    app: req.app.0,
                    delay,
                },
            );
        }
        self.obs.push(
            now,
            EventKind::RequestTagged {
                io: req.id,
                app: req.app.0,
                bytes: req.bytes,
                write: !req.kind.is_read(),
                start_tag: start,
            },
        );
    }

    #[inline(never)]
    fn obs_dispatched(&mut self, now: SimTime, io: u64, app: u32, start_tag: f64) {
        self.obs
            .push(now, EventKind::Dispatched { io, app, start_tag });
    }
}

impl IoScheduler for SfqD {
    fn set_weight(&mut self, app: AppId, weight: f64) {
        assert!(weight > 0.0, "weights must be positive");
        self.flow_mut(app).weight = weight;
    }

    fn submit(&mut self, req: Request, now: SimTime) {
        let cap = self.cfg.delay_cap;
        let vtime = self.vtime;
        let seq = self.next_seq;
        self.next_seq += 1;

        let fi = self.flows.intern(req.app);
        let degraded = self.degraded;
        let flow = &mut self.flows.flows[fi];
        // DSFQ: consume the foreign service observed since this flow's
        // previous local arrival. While degraded the totals are stale, so
        // nothing is consumed or charged (pure local SFQ); the pending
        // foreign service is charged after the broker recovers.
        let delay = if degraded {
            0
        } else {
            let foreign = flow.foreign_total - flow.foreign_consumed;
            flow.foreign_consumed = flow.foreign_total;
            match cap {
                Some(c) => foreign.min(c),
                None => foreign,
            }
        };
        let start = vtime.max(flow.finish_tag + delay as f64 / flow.weight);
        let finish = start + req.bytes as f64 / flow.weight;
        flow.finish_tag = finish;
        flow.backlog += 1;
        flow.backlog_bytes += req.bytes;

        if self.obs.enabled() {
            self.obs_submitted(now, &req, delay, start);
        }

        self.queue.push(HeapEntry {
            start,
            seq,
            flow: fi as u32,
            req,
        });
        self.decisions += 1;
    }

    fn pop_dispatch(&mut self, now: SimTime) -> Option<Request> {
        if self.outstanding >= self.cfg.depth {
            return None;
        }
        let entry = self.queue.pop()?;
        self.vtime = self.vtime.max(entry.start);
        self.outstanding += 1;
        // O(1): the heap entry carries the dense flow index.
        let flow = &mut self.flows.flows[entry.flow as usize];
        flow.backlog -= 1;
        flow.backlog_bytes -= entry.req.bytes;
        self.decisions += 1;
        if self.obs.enabled() {
            self.obs_dispatched(now, entry.req.id, entry.req.app.0, entry.start);
        }
        Some(entry.req)
    }

    fn on_complete(
        &mut self,
        app: AppId,
        _kind: IoKind,
        bytes: u64,
        _latency: SimDuration,
        _now: SimTime,
    ) {
        debug_assert!(self.outstanding > 0, "completion without dispatch");
        self.outstanding = self.outstanding.saturating_sub(1);
        self.decisions += 1;
        let i = self.flows.intern(app);
        self.flows.credit(i, bytes);
    }

    fn on_tick(&mut self, _now: SimTime) {}

    fn tick_period(&self) -> Option<SimDuration> {
        None
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn outstanding(&self) -> usize {
        self.outstanding as usize
    }

    fn drain_service_report(&mut self, out: &mut Vec<(AppId, u64)>) {
        // Visits only the flows served since the last drain, sorted by app
        // for the broker's byte accounting; the caller's pooled buffer
        // means no allocation either.
        self.flows.drain_unreported(out);
    }

    fn apply_global_service(&mut self, totals: &[(AppId, u64)], now: SimTime) {
        for &(app, total) in totals {
            let flow = self.flow_mut(app);
            let foreign = total.saturating_sub(flow.local_service);
            // Monotone: the broker may be momentarily behind our local view.
            flow.foreign_total = flow.foreign_total.max(foreign);
            if self.obs.enabled() {
                self.obs
                    .push(now, EventKind::BrokerSync { app: app.0, total });
            }
        }
        self.last_sync = Some(now);
        self.decisions += 1;
    }

    fn decisions(&self) -> u64 {
        self.decisions
    }

    fn update_staleness(&mut self, now: SimTime, bound: SimDuration) {
        self.staleness_tracked = true;
        let staleness = Staleness::classify(self.last_sync, now, bound);
        if staleness.usable() {
            if self.degraded {
                self.degraded = false;
                let since = self.degraded_since.take();
                if self.obs.enabled() {
                    let dark_ns = since.map_or(0, |t| now.saturating_since(t).as_nanos());
                    self.obs.push(now, EventKind::DegradedExit { dark_ns });
                }
            }
        } else if !self.degraded {
            self.degraded = true;
            self.degraded_since = Some(now);
            self.degraded_entries += 1;
            if self.obs.enabled() {
                let age_ns = staleness.age().map_or(u64::MAX, |a| a.as_nanos());
                self.obs.push(now, EventKind::DegradedEnter { age_ns });
            }
        }
    }

    fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn degraded_entries(&self) -> u64 {
        self.degraded_entries
    }

    fn set_recording(&mut self, on: bool) {
        self.obs.set_enabled(on);
    }

    fn take_events(&mut self, sink: &mut Vec<(SimTime, EventKind)>) {
        self.obs.drain_into(sink);
    }

    fn sample_metrics(&self, now: SimTime, out: &mut Vec<ibis_metrics::Sample>) {
        use ibis_metrics::Sample;
        out.push(Sample::global("sched_queued", self.queue.len() as f64));
        out.push(Sample::global("sched_outstanding", self.outstanding as f64));
        out.push(Sample::global("sfq_depth", self.cfg.depth as f64));
        out.push(Sample::global("sfq_vtime", self.vtime));
        // Telemetry only needs the age, so classify against an infinite
        // bound — all sync-age consumers go through `Staleness`.
        if let Some(age) = Staleness::classify(self.last_sync, now, SimDuration::MAX).age() {
            out.push(Sample::global("sfq_sync_age_s", age.as_secs_f64()));
        }
        // Degradation telemetry only exists in fault runs, so fault-free
        // metrics exports stay byte-identical.
        if self.staleness_tracked {
            out.push(Sample::global(
                "sfq_degraded",
                if self.degraded { 1.0 } else { 0.0 },
            ));
            out.push(Sample::global(
                "sfq_degraded_entries",
                self.degraded_entries as f64,
            ));
        }
        for flow in self.flows.iter() {
            let a = flow.app.0;
            out.push(Sample::per_flow(
                "sfq_flow_backlog_reqs",
                a,
                flow.backlog as f64,
            ));
            out.push(Sample::per_flow(
                "sfq_flow_backlog_bytes",
                a,
                flow.backlog_bytes as f64,
            ));
            // How far the flow's newest finish tag runs ahead of virtual
            // time: the service (in weighted bytes) it is owed or owes.
            out.push(Sample::per_flow(
                "sfq_flow_tag_lag",
                a,
                flow.finish_tag - self.vtime,
            ));
            out.push(Sample::per_flow(
                "sfq_flow_local_service_bytes",
                a,
                flow.local_service as f64,
            ));
            out.push(Sample::per_flow(
                "sfq_flow_foreign_bytes",
                a,
                flow.foreign_total as f64,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoClass;

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);

    fn req(id: u64, app: AppId, bytes: u64) -> Request {
        Request::new(id, app, IoKind::Read, bytes)
    }

    fn drain_order(s: &mut SfqD) -> Vec<u64> {
        let mut order = Vec::new();
        loop {
            while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                order.push(r.id);
                s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
            }
            if s.queued() == 0 {
                break;
            }
        }
        order
    }

    #[test]
    fn fifo_within_single_flow() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        for i in 0..5 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        assert_eq!(drain_order(&mut s), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_weights_interleave() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.set_weight(A, 1.0);
        s.set_weight(B, 1.0);
        // A floods first, then B: equal weights must interleave, not FIFO.
        for i in 0..4 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        for i in 10..14 {
            s.submit(req(i, B, 100), SimTime::ZERO);
        }
        let order = drain_order(&mut s);
        // First request of B must be served long before A drains.
        let first_b = order.iter().position(|&id| id >= 10).unwrap();
        assert!(first_b <= 2, "B starved: {order:?}");
        // Counting service in any prefix: |served_A - served_B| <= 1 + 1.
        let mut a = 0i64;
        let mut b = 0i64;
        for &id in &order[..6] {
            if id < 10 {
                a += 1;
            } else {
                b += 1;
            }
        }
        assert!((a - b).abs() <= 2, "unfair prefix: {order:?}");
    }

    #[test]
    fn weights_skew_service() {
        // weight 3:1, equal request sizes → A gets ~3 of every 4 services
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.set_weight(A, 3.0);
        s.set_weight(B, 1.0);
        for i in 0..30 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        for i in 100..130 {
            s.submit(req(i, B, 100), SimTime::ZERO);
        }
        let order = drain_order(&mut s);
        let a_in_first_20 = order[..20].iter().filter(|&&id| id < 100).count();
        assert!(
            (14..=16).contains(&a_in_first_20),
            "expected ~15 A services in first 20, got {a_in_first_20}: {order:?}"
        );
    }

    #[test]
    fn cost_by_bytes_not_count() {
        // B's requests are 4× larger; equal weights → A should get ~4× the
        // request count so that *bytes* are equal.
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        for i in 0..40 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        for i in 100..110 {
            s.submit(req(i, B, 400), SimTime::ZERO);
        }
        let order = drain_order(&mut s);
        let a_bytes: u64 = order[..25].iter().filter(|&&id| id < 100).count() as u64 * 100;
        let b_bytes: u64 = order[..25].iter().filter(|&&id| id >= 100).count() as u64 * 400;
        let ratio = a_bytes as f64 / b_bytes.max(1) as f64;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "byte-shares not balanced: A={a_bytes} B={b_bytes} ({order:?})"
        );
    }

    #[test]
    fn depth_bounds_outstanding() {
        let mut s = SfqD::new(SfqConfig {
            depth: 3,
            ..Default::default()
        });
        for i in 0..10 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        let mut got = Vec::new();
        while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
            got.push(r);
        }
        assert_eq!(got.len(), 3);
        assert_eq!(s.outstanding(), 3);
        assert_eq!(s.queued(), 7);
        // Completing one frees one slot.
        s.on_complete(A, IoKind::Read, 100, SimDuration::ZERO, SimTime::ZERO);
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
        assert!(s.pop_dispatch(SimTime::ZERO).is_none());
    }

    #[test]
    fn set_depth_applies_immediately_upward() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        for i in 0..4 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
        assert!(s.pop_dispatch(SimTime::ZERO).is_none());
        s.set_depth(3);
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
        assert!(s.pop_dispatch(SimTime::ZERO).is_none());
        assert_eq!(s.outstanding(), 3);
    }

    #[test]
    fn set_depth_never_revokes() {
        let mut s = SfqD::new(SfqConfig {
            depth: 4,
            ..Default::default()
        });
        for i in 0..4 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        while s.pop_dispatch(SimTime::ZERO).is_some() {}
        assert_eq!(s.outstanding(), 4);
        s.set_depth(1);
        assert_eq!(s.outstanding(), 4);
        // New dispatches blocked until we drain below 1.
        s.submit(req(10, A, 100), SimTime::ZERO);
        assert!(s.pop_dispatch(SimTime::ZERO).is_none());
        for _ in 0..4 {
            s.on_complete(A, IoKind::Read, 100, SimDuration::ZERO, SimTime::ZERO);
        }
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
    }

    #[test]
    fn idle_flow_gets_no_credit() {
        // A serves 10 requests while B is idle; B's first request must not
        // pre-empt the *entire* backlog it "missed" — SFQ start tags jump
        // to the current virtual time.
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        for i in 0..10 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        // serve 5 of A
        for _ in 0..5 {
            let r = s.pop_dispatch(SimTime::ZERO).unwrap();
            s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
        }
        // B arrives: should interleave with A's remaining 5, not get 5 free
        // services.
        for i in 100..105 {
            s.submit(req(i, B, 100), SimTime::ZERO);
        }
        let order = drain_order(&mut s);
        let b_in_first_4 = order[..4].iter().filter(|&&id| id >= 100).count();
        assert!(b_in_first_4 <= 3, "B got idle credit: {order:?}");
        // but B is not starved either
        assert!(order[..4].iter().any(|&id| id >= 100), "{order:?}");
    }

    #[test]
    fn dsfq_delay_pushes_flow_back() {
        // Two flows, equal weights. The broker tells us A already received
        // lots of service elsewhere; A's next requests must yield to B.
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.set_weight(A, 1.0);
        s.set_weight(B, 1.0);
        s.apply_global_service(&[(A, 1000)], SimTime::ZERO);
        for i in 0..5 {
            s.submit(req(i, A, 100), SimTime::ZERO);
        }
        for i in 100..105 {
            s.submit(req(i, B, 100), SimTime::ZERO);
        }
        let order = drain_order(&mut s);
        // A owes 1000 bytes = 10 services of 100; B's 5 requests all go
        // first.
        assert_eq!(
            order[..5].iter().filter(|&&id| id >= 100).count(),
            5,
            "foreign service not charged: {order:?}"
        );
    }

    #[test]
    fn dsfq_delay_consumed_once() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.apply_global_service(&[(A, 500)], SimTime::ZERO);
        s.submit(req(0, A, 100), SimTime::ZERO); // consumes the 500 delay
        s.submit(req(1, A, 100), SimTime::ZERO); // must not pay again
        let r0 = s.pop_dispatch(SimTime::ZERO).unwrap();
        s.on_complete(r0.app, r0.kind, r0.bytes, SimDuration::ZERO, SimTime::ZERO);
        // After both arrivals, flow finish tag reflects 500 delay once:
        // S(r0) = 500, F = 600; S(r1) = 600, F = 700.
        let f = s.flows.get(A).unwrap();
        assert_eq!(f.finish_tag, 700.0);
    }

    #[test]
    fn dsfq_delay_cap_limits_stall() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            delay_cap: Some(100),
        });
        s.apply_global_service(&[(A, 10_000)], SimTime::ZERO);
        s.submit(req(0, A, 100), SimTime::ZERO);
        let f = s.flows.get(A).unwrap();
        // capped: S = 100 (not 10 000), F = 200
        assert_eq!(f.finish_tag, 200.0);
    }

    #[test]
    fn global_totals_below_local_are_ignored() {
        let mut s = SfqD::new(SfqConfig::default());
        s.submit(req(0, A, 100), SimTime::ZERO);
        let r = s.pop_dispatch(SimTime::ZERO).unwrap();
        s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
        // The broker lags: it reports less than we've locally delivered.
        s.apply_global_service(&[(A, 50)], SimTime::ZERO);
        let f = s.flows.get(A).unwrap();
        assert_eq!(f.foreign_total, 0);
    }

    #[test]
    fn service_report_drains_exactly_once() {
        let mut s = SfqD::new(SfqConfig::default());
        s.submit(req(0, A, 100), SimTime::ZERO);
        s.submit(req(1, B, 200), SimTime::ZERO);
        while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
            s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
        }
        let mut rep = Vec::new();
        s.drain_service_report(&mut rep);
        assert_eq!(rep, vec![(A, 100), (B, 200)]);
        s.drain_service_report(&mut rep);
        assert!(rep.is_empty());
        s.submit(req(2, A, 50), SimTime::ZERO);
        let r = s.pop_dispatch(SimTime::ZERO).unwrap();
        s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
        s.drain_service_report(&mut rep);
        assert_eq!(rep, vec![(A, 50)]);
    }

    #[test]
    fn virtual_time_monotone() {
        let mut s = SfqD::new(SfqConfig::default());
        let mut last = s.virtual_time();
        for i in 0..50 {
            s.submit(
                req(i, if i % 2 == 0 { A } else { B }, 100 + i),
                SimTime::ZERO,
            );
        }
        loop {
            match s.pop_dispatch(SimTime::ZERO) {
                Some(r) => {
                    assert!(s.virtual_time() >= last);
                    last = s.virtual_time();
                    s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
                }
                None if s.queued() == 0 => break,
                None => {}
            }
        }
    }

    #[test]
    fn decisions_count_each_lifecycle_step_and_sync() {
        let mut s = SfqD::new(SfqConfig::default());
        s.submit(
            Request::new(0, A, IoKind::Write, 100).with_class(IoClass::Intermediate),
            SimTime::ZERO,
        );
        let r = s.pop_dispatch(SimTime::ZERO).unwrap();
        s.on_complete(
            r.app,
            r.kind,
            r.bytes,
            SimDuration::from_millis(5),
            SimTime::ZERO,
        );
        assert_eq!(s.decisions(), 3);
        s.apply_global_service(&[(A, 100)], SimTime::ZERO);
        assert_eq!(s.decisions(), 4);
    }

    #[test]
    fn recording_captures_lifecycle_in_order() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.set_recording(true);
        s.apply_global_service(&[(A, 500)], SimTime::ZERO);
        s.submit(req(0, A, 100), SimTime::from_secs(1));
        let r = s.pop_dispatch(SimTime::from_secs(2)).unwrap();
        s.on_complete(
            r.app,
            r.kind,
            r.bytes,
            SimDuration::ZERO,
            SimTime::from_secs(3),
        );
        let mut out = Vec::new();
        s.take_events(&mut out);
        // BrokerSync, DelayApplied (500 foreign), RequestTagged, Dispatched
        // — in processing order; completions are recorded by the engine.
        assert_eq!(out.len(), 4);
        assert!(matches!(
            out[0].1,
            EventKind::BrokerSync { app: 1, total: 500 }
        ));
        assert!(matches!(
            out[1].1,
            EventKind::DelayApplied { app: 1, delay: 500 }
        ));
        assert!(
            matches!(out[2].1, EventKind::RequestTagged { io: 0, app: 1, bytes: 100, start_tag, .. } if start_tag == 500.0)
        );
        assert!(matches!(
            out[3].1,
            EventKind::Dispatched { io: 0, app: 1, .. }
        ));
        let mut rep = Vec::new();
        s.drain_service_report(&mut rep);
        assert!(rep == vec![(A, 100)]);
    }

    #[test]
    fn recording_off_buffers_nothing() {
        let mut s = SfqD::new(SfqConfig::default());
        s.submit(req(0, A, 100), SimTime::ZERO);
        let _ = s.pop_dispatch(SimTime::ZERO);
        let mut out = Vec::new();
        s.take_events(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn backlog_tracks_per_flow() {
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.submit(req(0, A, 100), SimTime::ZERO);
        s.submit(req(1, A, 100), SimTime::ZERO);
        s.submit(req(2, B, 100), SimTime::ZERO);
        assert_eq!(s.backlog(A), 2);
        assert_eq!(s.backlog(B), 1);
        let _ = s.pop_dispatch(SimTime::ZERO).unwrap();
        assert_eq!(s.backlog(A) + s.backlog(B), 2);
    }

    #[test]
    fn degraded_mode_charges_no_delay_and_defers_foreign() {
        let bound = SimDuration::from_secs(3);
        let mut s = SfqD::new(SfqConfig {
            depth: 1,
            ..Default::default()
        });
        s.set_weight(A, 1.0);
        s.set_weight(B, 1.0);
        // Sync at t=0: A has 1000 B of foreign service pending.
        s.apply_global_service(&[(A, 1000)], SimTime::ZERO);
        assert!(!s.is_degraded());
        // Broker goes dark; by t=5 the totals exceed the 3 s bound.
        s.update_staleness(SimTime::from_secs(5), bound);
        assert!(s.is_degraded());
        // Degraded arrivals: A pays nothing despite the pending foreign.
        s.submit(req(0, A, 100), SimTime::from_secs(5));
        s.submit(req(100, B, 100), SimTime::from_secs(5));
        let f = s.flows.get(A).unwrap();
        assert_eq!(f.finish_tag, 100.0, "no DSFQ delay while degraded");
        assert_eq!(f.foreign_consumed, 0, "foreign stays pending");
        // Broker recovers at t=6; the pending foreign is charged on the
        // next arrival — re-convergence.
        s.apply_global_service(&[(A, 1000)], SimTime::from_secs(6));
        s.update_staleness(SimTime::from_secs(6), bound);
        assert!(!s.is_degraded());
        s.submit(req(1, A, 100), SimTime::from_secs(6));
        let f = s.flows.get(A).unwrap();
        // S = max(v, F_prev + 1000/1) = 1100, F = 1200.
        assert_eq!(f.finish_tag, 1200.0, "deferred foreign charged on recovery");
    }

    #[test]
    fn degraded_without_any_sync_is_dark() {
        let mut s = SfqD::new(SfqConfig::default());
        s.update_staleness(SimTime::from_secs(1), SimDuration::from_secs(3));
        assert!(s.is_degraded(), "never-synced scheduler must degrade");
        s.apply_global_service(&[(A, 10)], SimTime::from_secs(2));
        s.update_staleness(SimTime::from_secs(2), SimDuration::from_secs(3));
        assert!(!s.is_degraded());
    }

    #[test]
    fn degraded_transitions_emit_obs_markers() {
        let mut s = SfqD::new(SfqConfig::default());
        s.set_recording(true);
        let bound = SimDuration::from_secs(3);
        s.apply_global_service(&[(A, 10)], SimTime::ZERO);
        s.update_staleness(SimTime::from_secs(10), bound); // stale → enter
        s.update_staleness(SimTime::from_secs(11), bound); // still stale → no-op
        s.apply_global_service(&[(A, 20)], SimTime::from_secs(12));
        s.update_staleness(SimTime::from_secs(12), bound); // fresh → exit
        let mut out = Vec::new();
        s.take_events(&mut out);
        let markers: Vec<&EventKind> = out
            .iter()
            .map(|(_, k)| k)
            .filter(|k| {
                matches!(
                    k,
                    EventKind::DegradedEnter { .. } | EventKind::DegradedExit { .. }
                )
            })
            .collect();
        assert_eq!(markers.len(), 2, "{out:?}");
        assert!(
            matches!(markers[0], EventKind::DegradedEnter { age_ns } if *age_ns == 10_000_000_000)
        );
        assert!(
            matches!(markers[1], EventKind::DegradedExit { dark_ns } if *dark_ns == 2_000_000_000)
        );
    }

    #[test]
    fn sample_metrics_exposes_queue_and_flows() {
        use ibis_metrics::Sample;
        let mut s = SfqD::new(SfqConfig {
            depth: 2,
            ..Default::default()
        });
        s.submit(req(0, A, 100), SimTime::ZERO);
        s.submit(req(1, A, 300), SimTime::ZERO);
        s.submit(req(2, B, 50), SimTime::ZERO);
        let _ = s.pop_dispatch(SimTime::ZERO).unwrap(); // dispatches A's first
        s.apply_global_service(&[(B, 500)], SimTime::from_secs(3));

        let mut out = Vec::new();
        s.sample_metrics(SimTime::from_secs(5), &mut out);
        let find = |name: &str, app: Option<u32>| -> f64 {
            out.iter()
                .find(|smp: &&Sample| smp.name == name && smp.app == app)
                .unwrap_or_else(|| panic!("missing {name} {app:?}"))
                .value
        };
        assert_eq!(find("sched_queued", None), 2.0);
        assert_eq!(find("sched_outstanding", None), 1.0);
        assert_eq!(find("sfq_depth", None), 2.0);
        assert_eq!(find("sfq_flow_backlog_reqs", Some(1)), 1.0);
        assert_eq!(find("sfq_flow_backlog_bytes", Some(1)), 300.0);
        assert_eq!(find("sfq_flow_backlog_bytes", Some(2)), 50.0);
        assert_eq!(find("sfq_flow_foreign_bytes", Some(2)), 500.0);
        // sync applied at t=3, sampled at t=5 → 2 s stale
        assert_eq!(find("sfq_sync_age_s", None), 2.0);
        // A's finish tag (400) runs ahead of vtime (0)
        assert_eq!(find("sfq_flow_tag_lag", Some(1)), 400.0);
    }
}
