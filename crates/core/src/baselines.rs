//! Baseline schedulers the paper compares IBIS against.
//!
//! * [`Fifo`] — native Hadoop: the datanode performs no I/O management;
//!   requests go to storage "as soon as they come without any control"
//!   (§7.2).
//! * [`CgroupWeight`] / [`CgroupThrottle`] — the cgroups-based extension of
//!   YARN evaluated in §7.4. The crucial limitation is modelled exactly:
//!   containers can only differentiate the I/Os a task issues *directly to
//!   the local file system* (intermediate I/O). HDFS and shuffle I/O are
//!   serviced by the shared Data Node / Node Manager daemons, which live in
//!   one cgroup — so those requests all collapse into a single undifferen-
//!   tiated "daemon" flow (weight mode) or bypass throttling entirely
//!   (throttle mode).

use crate::request::{AppId, IoClass, IoKind, Request};
use crate::scheduler::IoScheduler;
use crate::sfq::{SfqConfig, SfqD};
use ibis_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Native Hadoop: pass-through FIFO with unbounded dispatch.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: VecDeque<Request>,
    outstanding: usize,
}

impl Fifo {
    /// Creates a pass-through scheduler.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl IoScheduler for Fifo {
    fn set_weight(&mut self, _app: AppId, _weight: f64) {
        // Native Hadoop has no notion of I/O weights.
    }

    fn submit(&mut self, req: Request, _now: SimTime) {
        self.queue.push_back(req);
    }

    fn pop_dispatch(&mut self, _now: SimTime) -> Option<Request> {
        let req = self.queue.pop_front()?;
        self.outstanding += 1;
        Some(req)
    }

    fn on_complete(
        &mut self,
        _app: AppId,
        _kind: IoKind,
        _bytes: u64,
        _latency: SimDuration,
        _now: SimTime,
    ) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    fn on_tick(&mut self, _now: SimTime) {}

    fn tick_period(&self) -> Option<SimDuration> {
        None
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn outstanding(&self) -> usize {
        self.outstanding
    }

    fn apply_global_service(&mut self, _totals: &[(AppId, u64)], _now: SimTime) {}
}

/// Dispatch depth used by the cgroup-weight emulation: blkio proportional
/// sharing runs below a CFQ-style dispatcher with bounded device queue; we
/// give it the same default depth as static SFQ(D) so the comparison in
/// Fig. 10 isolates *what* is differentiated, not *how deep* the queue is.
const CGROUP_DEPTH: u32 = 8;

/// The synthetic flow all daemon-serviced I/O (persistent + shuffle)
/// collapses into under cgroups.
const DAEMON_FLOW: AppId = AppId(u32::MAX);

/// cgroups blkio proportional-weight emulation. Intermediate I/O is
/// differentiated per application; persistent and shuffle I/O all share the
/// single daemon flow.
pub struct CgroupWeight {
    inner: SfqD,
    /// Dispatched-but-uncompleted request ids → real application, so the
    /// caller always sees real ids even though the inner scheduler works on
    /// remapped flows.
    in_flight_class: HashMap<u64, AppId>,
}

impl Default for CgroupWeight {
    fn default() -> Self {
        Self::new()
    }
}

impl CgroupWeight {
    /// Creates the scheduler with the daemon flow at weight 1.
    pub fn new() -> Self {
        let mut inner = SfqD::new(SfqConfig {
            depth: CGROUP_DEPTH,
            delay_cap: None,
        });
        inner.set_weight(DAEMON_FLOW, 1.0);
        CgroupWeight {
            inner,
            in_flight_class: HashMap::new(),
        }
    }

    fn flow_of(req: &Request) -> AppId {
        match req.class {
            IoClass::Intermediate => req.app,
            IoClass::Persistent | IoClass::Shuffle => DAEMON_FLOW,
        }
    }
}

impl IoScheduler for CgroupWeight {
    fn set_weight(&mut self, app: AppId, weight: f64) {
        // The weight applies to the app's container (its direct local-FS
        // I/O); the daemon flow keeps its own weight.
        self.inner.set_weight(app, weight);
    }

    fn submit(&mut self, req: Request, now: SimTime) {
        let flow = Self::flow_of(&req);
        let mut remapped = req;
        remapped.app = flow;
        self.in_flight_class.insert(req.id, req.app);
        self.inner.submit(remapped, now);
    }

    fn pop_dispatch(&mut self, now: SimTime) -> Option<Request> {
        let mut req = self.inner.pop_dispatch(now)?;
        // Restore the real application id for the engine; the mapping is
        // no longer needed after dispatch.
        if let Some(real) = self.in_flight_class.remove(&req.id) {
            req.app = real;
        }
        Some(req)
    }

    fn on_complete(
        &mut self,
        _app: AppId,
        kind: IoKind,
        bytes: u64,
        latency: SimDuration,
        now: SimTime,
    ) {
        // The inner scheduler only needs the slot freed; its per-flow
        // service bookkeeping is unused (cgroups do not coordinate).
        self.inner.on_complete(DAEMON_FLOW, kind, bytes, latency, now);
    }

    fn on_tick(&mut self, _now: SimTime) {}

    fn tick_period(&self) -> Option<SimDuration> {
        None
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn apply_global_service(&mut self, _totals: &[(AppId, u64)], _now: SimTime) {}
}

/// Fraction of a capped application's intermediate-read bytes that
/// actually reach the block layer (page-cache miss rate); the rest escape
/// the throttle.
const CHARGED_READ_FRACTION: f64 = 0.3;

/// Token bucket for the throttle mode.
#[derive(Debug, Clone)]
struct Bucket {
    rate: f64,
    tokens: f64,
    burst: f64,
    last_refill: SimTime,
}

impl Bucket {
    fn new(rate: f64) -> Self {
        // The bucket must hold at least one full chunk or large requests
        // could never dispatch; 8 MiB covers the workspace's 4 MiB chunks.
        let burst = rate.max((8 * 1024 * 1024) as f64);
        Bucket {
            rate,
            tokens: burst,
            burst,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + self.rate * dt).min(self.burst);
    }
}

/// cgroups blkio throttling emulation: per-application byte/sec caps on
/// intermediate I/O. Not work-conserving — a capped application leaves the
/// device idle rather than exceed its cap, which is exactly the
/// underutilisation §7.4 observes.
///
/// Escape semantics of blkio-v1 throttling on the paper's 3.2-era kernel
/// are modelled: buffered *writes* are attributed to the flusher, not the
/// issuing container, so they escape the cap entirely; reads are charged
/// only when they miss the page cache (intermediate data is usually
/// recently written, so most merge reads hit). `CHARGED_READ_FRACTION`
/// sets the modelled miss rate.
pub struct CgroupThrottle {
    /// Uncapped traffic (persistent/shuffle + apps without caps): native
    /// pass-through.
    main: VecDeque<Request>,
    /// Per capped app: its intermediate-I/O queue (BTreeMap for
    /// deterministic scan order).
    throttled: BTreeMap<AppId, VecDeque<Request>>,
    buckets: HashMap<AppId, Bucket>,
    outstanding: usize,
}

impl Default for CgroupThrottle {
    fn default() -> Self {
        Self::new()
    }
}

impl CgroupThrottle {
    /// Creates a throttle scheduler with no caps (pure pass-through until
    /// [`CgroupThrottle::set_cap`] is called).
    pub fn new() -> Self {
        CgroupThrottle {
            main: VecDeque::new(),
            throttled: BTreeMap::new(),
            buckets: HashMap::new(),
            outstanding: 0,
        }
    }

    /// Caps `app`'s intermediate I/O at `bytes_per_sec`.
    pub fn set_cap(&mut self, app: AppId, bytes_per_sec: f64) {
        assert!(bytes_per_sec > 0.0, "cap must be positive");
        self.buckets.insert(app, Bucket::new(bytes_per_sec));
        self.throttled.entry(app).or_default();
    }

    fn is_throttled(&self, req: &Request) -> bool {
        req.class == IoClass::Intermediate
            && req.kind == IoKind::Read
            && self.buckets.contains_key(&req.app)
    }

    /// Token cost of a throttled request (the cache-miss share of its
    /// bytes).
    fn charge(req: &Request) -> f64 {
        req.bytes as f64 * CHARGED_READ_FRACTION
    }
}

impl IoScheduler for CgroupThrottle {
    fn set_weight(&mut self, _app: AppId, _weight: f64) {
        // Throttle mode uses absolute caps, not weights.
    }

    fn submit(&mut self, req: Request, _now: SimTime) {
        if self.is_throttled(&req) {
            self.throttled.get_mut(&req.app).expect("cap exists").push_back(req);
        } else {
            self.main.push_back(req);
        }
    }

    fn pop_dispatch(&mut self, now: SimTime) -> Option<Request> {
        if let Some(req) = self.main.pop_front() {
            self.outstanding += 1;
            return Some(req);
        }
        for (app, queue) in self.throttled.iter_mut() {
            let Some(head) = queue.front() else { continue };
            let bucket = self.buckets.get_mut(app).expect("cap exists");
            bucket.refill(now);
            let cost = Self::charge(head);
            if bucket.tokens >= cost {
                bucket.tokens -= cost;
                let req = queue.pop_front().expect("head exists");
                self.outstanding += 1;
                return Some(req);
            }
        }
        None
    }

    fn on_complete(
        &mut self,
        _app: AppId,
        _kind: IoKind,
        _bytes: u64,
        _latency: SimDuration,
        _now: SimTime,
    ) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    fn on_tick(&mut self, _now: SimTime) {
        // Nothing to do: the engine re-pumps pop_dispatch after every tick,
        // which is when newly accrued tokens admit waiting requests.
    }

    fn tick_period(&self) -> Option<SimDuration> {
        // Token-refill granularity: how long a throttled request may wait
        // past its token-availability instant.
        Some(SimDuration::from_millis(100))
    }

    fn queued(&self) -> usize {
        self.main.len() + self.throttled.values().map(VecDeque::len).sum::<usize>()
    }

    fn outstanding(&self) -> usize {
        self.outstanding
    }

    fn apply_global_service(&mut self, _totals: &[(AppId, u64)], _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);

    fn persistent(id: u64, app: AppId, bytes: u64) -> Request {
        Request::new(id, app, IoKind::Read, bytes)
    }

    fn intermediate(id: u64, app: AppId, bytes: u64) -> Request {
        Request::new(id, app, IoKind::Write, bytes).with_class(IoClass::Intermediate)
    }

    fn intermediate_read(id: u64, app: AppId, bytes: u64) -> Request {
        Request::new(id, app, IoKind::Read, bytes).with_class(IoClass::Intermediate)
    }

    mod fifo {
        use super::*;

        #[test]
        fn passes_through_in_order_unbounded() {
            let mut s = Fifo::new();
            for i in 0..100 {
                s.submit(persistent(i, A, 10), SimTime::ZERO);
            }
            let mut got = Vec::new();
            while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                got.push(r.id);
            }
            assert_eq!(got, (0..100).collect::<Vec<_>>());
            assert_eq!(s.outstanding(), 100); // no depth bound
        }

        #[test]
        fn ignores_weights_entirely() {
            let mut s = Fifo::new();
            s.set_weight(A, 32.0);
            s.submit(persistent(0, B, 10), SimTime::ZERO);
            s.submit(persistent(1, A, 10), SimTime::ZERO);
            assert_eq!(s.pop_dispatch(SimTime::ZERO).unwrap().app, B);
        }

        #[test]
        fn completion_frees_the_slot() {
            let mut s = Fifo::new();
            s.submit(persistent(0, A, 10), SimTime::ZERO);
            let r = s.pop_dispatch(SimTime::ZERO).unwrap();
            assert_eq!(s.outstanding(), 1);
            s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
            assert_eq!(s.outstanding(), 0);
        }
    }

    mod cg_weight {
        use super::*;

        fn drain(s: &mut CgroupWeight) -> Vec<(u64, AppId)> {
            let mut order = Vec::new();
            loop {
                while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                    order.push((r.id, r.app));
                    s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
                }
                if s.queued() == 0 {
                    break;
                }
            }
            order
        }

        #[test]
        fn differentiates_intermediate_io() {
            let mut s = CgroupWeight::new();
            s.set_weight(A, 100.0);
            s.set_weight(B, 1.0);
            for i in 0..10 {
                s.submit(intermediate(i, B, 100), SimTime::ZERO);
            }
            for i in 100..110 {
                s.submit(intermediate(i, A, 100), SimTime::ZERO);
            }
            let order = drain(&mut s);
            // With 100:1 weights, A's 10 requests should overtake most of
            // B's backlog (B keeps only its head start of CGROUP_DEPTH).
            let a_pos: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, (_, app))| *app == A)
                .map(|(i, _)| i)
                .collect();
            assert!(
                *a_pos.last().unwrap() < 19,
                "A not prioritised: {order:?}"
            );
        }

        #[test]
        fn cannot_differentiate_persistent_io() {
            // The paper's key point: HDFS I/O all flows through the daemon
            // cgroup, so 100:1 weights have no effect — order stays FIFO.
            let mut s = CgroupWeight::new();
            s.set_weight(A, 100.0);
            s.set_weight(B, 1.0);
            for i in 0..8 {
                s.submit(persistent(i, B, 100), SimTime::ZERO);
            }
            for i in 100..108 {
                s.submit(persistent(i, A, 100), SimTime::ZERO);
            }
            let order = drain(&mut s);
            let ids: Vec<u64> = order.iter().map(|&(id, _)| id).collect();
            assert_eq!(
                ids,
                (0..8).chain(100..108).collect::<Vec<_>>(),
                "daemon-flow I/O should stay FIFO"
            );
        }

        #[test]
        fn real_app_ids_restored_on_dispatch() {
            let mut s = CgroupWeight::new();
            s.submit(persistent(1, A, 100), SimTime::ZERO);
            let r = s.pop_dispatch(SimTime::ZERO).unwrap();
            assert_eq!(r.app, A, "engine must see the real app id");
        }
    }

    mod cg_throttle {
        use super::*;

        #[test]
        fn uncapped_traffic_passes_through() {
            let mut s = CgroupThrottle::new();
            s.set_cap(B, 1e6);
            for i in 0..5 {
                s.submit(persistent(i, B, 4 << 20), SimTime::ZERO);
            }
            let mut n = 0;
            while s.pop_dispatch(SimTime::ZERO).is_some() {
                n += 1;
            }
            assert_eq!(n, 5, "persistent I/O must bypass the throttle");
        }

        #[test]
        fn capped_intermediate_reads_respect_rate() {
            let mut s = CgroupThrottle::new();
            s.set_cap(B, 1e6); // 1 MB/s
            let chunk: u64 = 4 << 20; // 4 MiB, charged at 10 % = ~0.42 MB
            for i in 0..40 {
                s.submit(intermediate_read(i, B, chunk), SimTime::ZERO);
            }
            // Initial burst of 8 MB of tokens admits ~19 charged chunks.
            let mut burst = 0;
            while s.pop_dispatch(SimTime::ZERO).is_some() {
                burst += 1;
            }
            let expected = (8e6 / (chunk as f64 * CHARGED_READ_FRACTION)) as i32;
            assert!(
                (burst - expected).abs() <= 1,
                "burst {burst}, expected ~{expected}"
            );
            // Tokens then accrue at 1 MB/s: ~2.4 more chunks after 1 s.
            let mut later = 0;
            while s.pop_dispatch(SimTime::from_secs(1)).is_some() {
                later += 1;
            }
            assert!((1..=3).contains(&later), "later {later}");
        }

        #[test]
        fn buffered_writes_escape_the_throttle() {
            // blkio-v1 cannot attribute buffered writeback: intermediate
            // writes pass through uncapped.
            let mut s = CgroupThrottle::new();
            s.set_cap(B, 1.0); // essentially frozen
            for i in 0..10 {
                s.submit(intermediate(i, B, 8 << 20), SimTime::ZERO);
            }
            let mut n = 0;
            while s.pop_dispatch(SimTime::ZERO).is_some() {
                n += 1;
            }
            assert_eq!(n, 10, "writes must escape the cap");
        }

        #[test]
        fn not_work_conserving() {
            // Device idle, tokens empty → nothing dispatches even though
            // requests wait: the underutilisation the paper criticises.
            let mut s = CgroupThrottle::new();
            s.set_cap(B, 1.0); // ~no refill
            for i in 0..30 {
                s.submit(intermediate_read(i, B, 8 << 20), SimTime::ZERO);
            }
            while s.pop_dispatch(SimTime::ZERO).is_some() {}
            assert!(s.queued() > 0, "queue should be throttled, not drained");
            assert!(s.pop_dispatch(SimTime::from_secs(1)).is_none());
        }

        #[test]
        fn other_apps_unaffected_by_caps() {
            let mut s = CgroupThrottle::new();
            s.set_cap(B, 1.0); // essentially frozen
            // Exhaust B's burst so its next read really is blocked.
            for i in 0..30 {
                s.submit(intermediate_read(i, B, 8 << 20), SimTime::ZERO);
            }
            while s.pop_dispatch(SimTime::ZERO).is_some() {}
            s.submit(intermediate_read(100, B, 4 << 20), SimTime::ZERO);
            s.submit(intermediate_read(101, A, 4 << 20), SimTime::ZERO);
            let r = s.pop_dispatch(SimTime::ZERO).unwrap();
            assert_eq!(r.app, A, "uncapped app must not wait behind capped");
        }

        #[test]
        fn tick_period_present_for_token_refill() {
            let s = CgroupThrottle::new();
            assert!(s.tick_period().is_some());
        }
    }
}
