//! Property-based tests of the SFQ(D) scheduler invariants.

use ibis_core::prelude::*;
use ibis_core::scheduler::IoScheduler;
use ibis_core::sfq::{SfqConfig, SfqD};
use ibis_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;

/// An abstract workload: per-op either a submission (flow, bytes) or a
/// "complete one outstanding" instruction.
#[derive(Debug, Clone)]
enum Op {
    Submit { flow: u8, bytes: u32 },
    CompleteOne,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..6, 1u32..10_000_000).prop_map(|(flow, bytes)| Op::Submit { flow, bytes }),
        2 => Just(Op::CompleteOne),
    ]
}

/// Drives the scheduler through the op sequence, checking invariants at
/// every step. Returns (dispatched ids, completed count).
fn drive(depth: u32, ops: &[Op]) -> (Vec<u64>, usize) {
    let mut s = SfqD::new(SfqConfig {
        depth,
        delay_cap: None,
    });
    for f in 0..6u8 {
        s.set_weight(AppId(f as u32), 1.0 + f as f64);
    }
    let mut next_id = 0u64;
    let mut outstanding: Vec<Request> = Vec::new();
    let mut dispatched_ids = Vec::new();
    let mut completed = 0usize;
    let mut last_vtime = s.virtual_time();

    for op in ops {
        match op {
            Op::Submit { flow, bytes } => {
                let req = Request::new(next_id, AppId(*flow as u32), IoKind::Read, *bytes as u64);
                next_id += 1;
                s.submit(req, SimTime::ZERO);
            }
            Op::CompleteOne => {
                if let Some(r) = outstanding.pop() {
                    s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
                    completed += 1;
                }
            }
        }
        // Pump: dispatch as much as the depth allows.
        while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
            dispatched_ids.push(r.id);
            outstanding.push(r);
        }
        // Invariant: outstanding bounded by depth.
        assert!(
            s.outstanding() <= depth as usize,
            "outstanding {} > depth {depth}",
            s.outstanding()
        );
        // Invariant: the queue is only non-empty when the depth is
        // saturated (work conservation).
        if s.queued() > 0 {
            assert_eq!(s.outstanding(), depth as usize, "idle slot with backlog");
        }
        // Invariant: virtual time never goes backwards.
        assert!(s.virtual_time() >= last_vtime, "vtime regressed");
        last_vtime = s.virtual_time();
    }
    (dispatched_ids, completed)
}

proptest! {
    #[test]
    fn no_request_lost_or_duplicated(depth in 1u32..16, ops in prop::collection::vec(op_strategy(), 1..200)) {
        let (dispatched, _) = drive(depth, &ops);
        let unique: HashSet<u64> = dispatched.iter().copied().collect();
        prop_assert_eq!(unique.len(), dispatched.len(), "duplicate dispatch");
    }

    #[test]
    fn drain_dispatches_everything(depth in 1u32..16, ops in prop::collection::vec(op_strategy(), 1..200)) {
        // After the op sequence, completing everything must eventually
        // dispatch every submitted request.
        let mut s = SfqD::new(SfqConfig { depth, delay_cap: None });
        let mut submitted = 0u64;
        let mut outstanding: Vec<Request> = Vec::new();
        let mut dispatched = 0u64;
        for op in &ops {
            match op {
                Op::Submit { flow, bytes } => {
                    s.submit(
                        Request::new(submitted, AppId(*flow as u32), IoKind::Write, *bytes as u64),
                        SimTime::ZERO,
                    );
                    submitted += 1;
                }
                Op::CompleteOne => {
                    if let Some(r) = outstanding.pop() {
                        s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
                    }
                }
            }
            while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                dispatched += 1;
                outstanding.push(r);
            }
        }
        // Drain.
        while let Some(r) = outstanding.pop() {
            s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
            while let Some(r2) = s.pop_dispatch(SimTime::ZERO) {
                dispatched += 1;
                outstanding.push(r2);
            }
        }
        prop_assert_eq!(dispatched, submitted);
        prop_assert_eq!(s.queued(), 0);
    }

    /// SFQ fairness: for two continuously backlogged flows with equal
    /// request sizes, the weighted service difference over any run is
    /// bounded (Goyal's theorem gives ~one max-cost per flow; we allow a
    /// small slack for the dispatch quantisation).
    #[test]
    fn backlogged_flows_share_by_weight(
        w1 in 1u32..8,
        w2 in 1u32..8,
        depth in 1u32..8,
        services in 32usize..200,
    ) {
        let mut s = SfqD::new(SfqConfig { depth, delay_cap: None });
        let (a, b) = (AppId(1), AppId(2));
        s.set_weight(a, w1 as f64);
        s.set_weight(b, w2 as f64);
        const COST: u64 = 1_000_000;
        // Keep both flows saturated.
        let mut id = 0u64;
        let backlog = |s: &mut SfqD, id: &mut u64| {
            while s.backlog(a) < 4 {
                s.submit(Request::new(*id, a, IoKind::Read, COST), SimTime::ZERO);
                *id += 1;
            }
            while s.backlog(b) < 4 {
                s.submit(Request::new(*id, b, IoKind::Read, COST), SimTime::ZERO);
                *id += 1;
            }
        };
        backlog(&mut s, &mut id);
        let mut served = [0u64; 3];
        let mut outstanding = Vec::new();
        for _ in 0..services {
            while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                outstanding.push(r);
            }
            if let Some(r) = outstanding.pop() {
                served[r.app.0 as usize] += r.bytes;
                s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
            }
            backlog(&mut s, &mut id);
        }
        let norm1 = served[1] as f64 / w1 as f64;
        let norm2 = served[2] as f64 / w2 as f64;
        // Bound: |S1/w1 − S2/w2| ≤ slack · COST, slack covers the depth
        // window plus one request per flow.
        let slack = (depth as f64 + 2.0) * COST as f64;
        prop_assert!(
            (norm1 - norm2).abs() <= slack * 2.0,
            "unfair: {norm1} vs {norm2} (slack {slack})"
        );
    }

    /// DSFQ: foreign service always delays, never advances, a flow.
    #[test]
    fn foreign_service_never_helps(foreign in 0u64..10_000_000, n in 1usize..20) {
        let serve_all = |delay: u64| -> Vec<u64> {
            let mut s = SfqD::new(SfqConfig { depth: 1, delay_cap: None });
            s.set_weight(AppId(1), 1.0);
            s.set_weight(AppId(2), 1.0);
            if delay > 0 {
                s.apply_global_service(&[(AppId(1), delay)], SimTime::ZERO);
            }
            for i in 0..n as u64 {
                s.submit(Request::new(i, AppId(1), IoKind::Read, 1000), SimTime::ZERO);
                s.submit(Request::new(100 + i, AppId(2), IoKind::Read, 1000), SimTime::ZERO);
            }
            let mut order = Vec::new();
            while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                order.push(r.id);
                s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
            }
            order
        };
        let base = serve_all(0);
        let delayed = serve_all(foreign);
        // Position of flow 1's first request must not improve under delay.
        let pos = |order: &[u64]| order.iter().position(|&x| x < 100).unwrap();
        prop_assert!(pos(&delayed) >= pos(&base));
    }
}

/// Flow-table model check: apps with sparse ids, plus the cgroup daemon
/// flow `AppId(u32::MAX)`, under a random mix of every scheduler call
/// that touches per-flow state.
mod flow_table {
    use super::*;
    use std::collections::BTreeMap;

    /// One scheduler call; `app` indexes the case's app universe.
    #[derive(Debug, Clone)]
    pub enum Call {
        SetWeight {
            app: u16,
            weight: u8,
        },
        Submit {
            app: u16,
            bytes: u32,
        },
        Dispatch,
        /// Completes outstanding request `pick % outstanding`.
        Complete {
            pick: u16,
        },
        Drain,
        /// Global totals for apps `first..first + len` (clamped).
        Apply {
            first: u16,
            len: u8,
            total: u32,
        },
    }

    pub fn call() -> impl Strategy<Value = Call> {
        prop_oneof![
            2 => (0u16..512, 1u8..8).prop_map(|(app, weight)| Call::SetWeight { app, weight }),
            6 => (0u16..512, 0u32..4_000_000).prop_map(|(app, bytes)| Call::Submit { app, bytes }),
            5 => Just(Call::Dispatch),
            5 => (0u16..512).prop_map(|pick| Call::Complete { pick }),
            2 => Just(Call::Drain),
            1 => (0u16..512, 1u8..6, 0u32..50_000_000)
                .prop_map(|(first, len, total)| Call::Apply { first, len, total }),
        ]
    }

    /// `n` distinct sparse app ids (strides of 1–96 from a random base)
    /// with the daemon flow appended.
    pub fn universe(n: usize, base: u32, stride_seed: u64) -> Vec<AppId> {
        let mut apps = Vec::with_capacity(n + 1);
        let mut id = base;
        let mut x = stride_seed | 1;
        for _ in 0..n {
            apps.push(AppId(id));
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            id += 1 + (x % 96) as u32;
        }
        apps.push(AppId(u32::MAX));
        apps
    }

    /// Drives the scheduler and the model; every drain must report
    /// exactly the apps served since the previous drain, sorted, and
    /// the per-flow metrics must list flows in first-registration order.
    pub fn check(apps: &[AppId], depth: u32, calls: &[Call]) {
        let mut s = SfqD::new(SfqConfig {
            depth,
            delay_cap: None,
        });
        let mut registered: Vec<AppId> = Vec::new();
        let mut unreported: BTreeMap<AppId, u64> = BTreeMap::new();
        let mut backlog: BTreeMap<AppId, usize> = BTreeMap::new();
        let mut outstanding: Vec<Request> = Vec::new();
        let mut report = Vec::new();
        let mut next_id = 0u64;
        let see = |registered: &mut Vec<AppId>, app: AppId| {
            if !registered.contains(&app) {
                registered.push(app);
            }
        };
        let app_at = |i: u16| apps[i as usize % apps.len()];
        for call in calls {
            match *call {
                Call::SetWeight { app, weight } => {
                    let app = app_at(app);
                    see(&mut registered, app);
                    s.set_weight(app, weight as f64);
                }
                Call::Submit { app, bytes } => {
                    let app = app_at(app);
                    see(&mut registered, app);
                    s.submit(
                        Request::new(next_id, app, IoKind::Read, bytes as u64),
                        SimTime::ZERO,
                    );
                    next_id += 1;
                    *backlog.entry(app).or_default() += 1;
                }
                Call::Dispatch => {
                    while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                        *backlog.get_mut(&r.app).expect("dispatched a queued app") -= 1;
                        outstanding.push(r);
                    }
                }
                Call::Complete { pick } => {
                    if !outstanding.is_empty() {
                        let r = outstanding.swap_remove(pick as usize % outstanding.len());
                        s.on_complete(r.app, r.kind, r.bytes, SimDuration::ZERO, SimTime::ZERO);
                        *unreported.entry(r.app).or_default() += r.bytes;
                    }
                }
                Call::Drain => {
                    s.drain_service_report(&mut report);
                    let want: Vec<(AppId, u64)> = unreported
                        .iter()
                        .filter(|&(_, &b)| b > 0)
                        .map(|(&a, &b)| (a, b))
                        .collect();
                    assert_eq!(report, want, "drain reported the wrong apps");
                    unreported.clear();
                }
                Call::Apply { first, len, total } => {
                    let mut totals: Vec<(AppId, u64)> = (0..len as u16)
                        .map(|k| app_at(first.wrapping_add(k)))
                        .map(|a| (a, total as u64))
                        .collect();
                    totals.sort_unstable();
                    totals.dedup();
                    for &(a, _) in &totals {
                        see(&mut registered, a);
                    }
                    s.apply_global_service(&totals, SimTime::ZERO);
                }
            }
            for (&app, &n) in &backlog {
                assert_eq!(s.backlog(app), n, "backlog of {app:?}");
            }
        }
        let mut samples = Vec::new();
        s.sample_metrics(SimTime::ZERO, &mut samples);
        let listed: Vec<u32> = samples
            .iter()
            .filter(|smp| smp.name == "sfq_flow_backlog_reqs")
            .map(|smp| smp.app.expect("per-flow sample"))
            .collect();
        let want: Vec<u32> = registered.iter().map(|a| a.0).collect();
        assert_eq!(listed, want, "flows not in first-registration order");
    }
}

proptest! {
    #[test]
    fn flow_table_drains_and_orders_like_the_model(
        n in 1usize..300,
        base in 0u32..5_000,
        stride_seed in 0u64..u64::MAX,
        depth in 1u32..8,
        calls in prop::collection::vec(flow_table::call(), 1..400),
    ) {
        let apps = flow_table::universe(n, base, stride_seed);
        flow_table::check(&apps, depth, &calls);
    }
}
