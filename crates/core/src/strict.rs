//! Non-work-conserving strict partitioning — the extreme point of the
//! fairness/utilisation trade-off the paper's §9 sketches: *"in the
//! extreme case, a non-work-conserving scheduler can provide strict
//! performance isolation but may severely underutilize the storage."*
//!
//! [`StrictPartition`] divides the dispatch depth `D` into per-flow quotas
//! proportional to the flows' weights. A flow can never occupy more than
//! its quota of device slots — even when every other flow is idle — so a
//! flow's service is completely independent of the others' load (strict
//! isolation), at the cost of idle device slots whenever demand is
//! unbalanced (the underutilisation §9 predicts). The `ablate`-style
//! comparison against SFQ(D2) in the isolation experiments quantifies
//! exactly that trade-off.

use crate::request::{AppId, IoKind, Request};
use crate::scheduler::{IoScheduler, SchedStats};
use ibis_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Per-flow state: FIFO backlog plus the quota bookkeeping.
#[derive(Debug, Default)]
struct Flow {
    weight: f64,
    queue: VecDeque<Request>,
    outstanding: u32,
}

/// The strict partitioning scheduler. See the module docs.
pub struct StrictPartition {
    depth: u32,
    flows: BTreeMap<AppId, Flow>,
    stats: SchedStats,
    /// Round-robin cursor for scanning eligible flows deterministically.
    cursor: u32,
}

impl StrictPartition {
    /// Creates a scheduler that partitions `depth` device slots.
    pub fn new(depth: u32) -> Self {
        assert!(depth >= 1);
        StrictPartition {
            depth,
            flows: BTreeMap::new(),
            stats: SchedStats::default(),
            cursor: 0,
        }
    }

    /// A flow's slot quota: its weight share of the depth, at least 1.
    fn quota(&self, app: AppId) -> u32 {
        let total: f64 = self.flows.values().map(|f| f.weight).sum();
        let w = self.flows.get(&app).map_or(1.0, |f| f.weight);
        if total <= 0.0 {
            return 1;
        }
        ((self.depth as f64 * w / total).floor() as u32).max(1)
    }
}

impl IoScheduler for StrictPartition {
    fn set_weight(&mut self, app: AppId, weight: f64) {
        assert!(weight > 0.0);
        self.flows.entry(app).or_default().weight = weight;
    }

    fn submit(&mut self, req: Request, _now: SimTime) {
        self.stats.submitted += 1;
        let flow = self.flows.entry(req.app).or_insert_with(|| Flow {
            weight: 1.0,
            ..Flow::default()
        });
        flow.queue.push_back(req);
    }

    fn pop_dispatch(&mut self, _now: SimTime) -> Option<Request> {
        // Deterministic round-robin over flows with backlog and quota room.
        let apps: Vec<AppId> = self.flows.keys().copied().collect();
        if apps.is_empty() {
            return None;
        }
        for i in 0..apps.len() {
            let app = apps[(self.cursor as usize + i) % apps.len()];
            let quota = self.quota(app);
            let flow = self.flows.get_mut(&app).expect("flow exists");
            if flow.outstanding < quota {
                if let Some(req) = flow.queue.pop_front() {
                    flow.outstanding += 1;
                    self.cursor = ((self.cursor as usize + i + 1) % apps.len()) as u32;
                    self.stats.dispatched += 1;
                    self.stats.decisions += 1;
                    return Some(req);
                }
            }
        }
        None
    }

    fn on_complete(
        &mut self,
        app: AppId,
        _kind: IoKind,
        bytes: u64,
        _latency: SimDuration,
        _now: SimTime,
    ) {
        self.stats.completed += 1;
        self.stats.service.add(app, bytes);
        if let Some(flow) = self.flows.get_mut(&app) {
            flow.outstanding = flow.outstanding.saturating_sub(1);
        }
    }

    fn on_tick(&mut self, _now: SimTime) {}

    fn tick_period(&self) -> Option<SimDuration> {
        None
    }

    fn queued(&self) -> usize {
        self.flows.values().map(|f| f.queue.len()).sum()
    }

    fn outstanding(&self) -> usize {
        self.flows.values().map(|f| f.outstanding as usize).sum()
    }

    fn apply_global_service(&mut self, _totals: &[(AppId, u64)], _now: SimTime) {}

    fn stats(&self) -> &SchedStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);

    fn req(id: u64, app: AppId) -> Request {
        Request::new(id, app, IoKind::Read, 1 << 20)
    }

    #[test]
    fn single_flow_capped_at_quota_even_when_device_idle() {
        // The defining non-work-conserving behaviour: with two registered
        // flows at equal weights and D = 8, a lone backlogged flow gets
        // only its quota of 4 slots.
        let mut s = StrictPartition::new(8);
        s.set_weight(A, 1.0);
        s.set_weight(B, 1.0);
        for i in 0..20 {
            s.submit(req(i, A), SimTime::ZERO);
        }
        let mut got = 0;
        while s.pop_dispatch(SimTime::ZERO).is_some() {
            got += 1;
        }
        assert_eq!(got, 4, "quota must cap a lone flow (underutilisation)");
    }

    #[test]
    fn quotas_follow_weights() {
        let mut s = StrictPartition::new(12);
        s.set_weight(A, 3.0);
        s.set_weight(B, 1.0);
        for i in 0..40 {
            s.submit(req(i, A), SimTime::ZERO);
            s.submit(req(100 + i, B), SimTime::ZERO);
        }
        let mut per_app = [0u32; 3];
        while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
            per_app[r.app.0 as usize] += 1;
        }
        assert_eq!(per_app[1], 9, "A gets 3/4 of 12");
        assert_eq!(per_app[2], 3, "B gets 1/4 of 12");
    }

    #[test]
    fn isolation_is_strict() {
        // B's dispatch capacity is identical whether A is idle or flooding.
        let capacity_of_b = |a_backlog: u64| {
            let mut s = StrictPartition::new(8);
            s.set_weight(A, 1.0);
            s.set_weight(B, 1.0);
            for i in 0..a_backlog {
                s.submit(req(i, A), SimTime::ZERO);
            }
            for i in 0..20 {
                s.submit(req(1000 + i, B), SimTime::ZERO);
            }
            let mut b = 0;
            while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
                if r.app == B {
                    b += 1;
                }
            }
            b
        };
        assert_eq!(capacity_of_b(0), capacity_of_b(1000));
    }

    #[test]
    fn completions_recycle_quota() {
        let mut s = StrictPartition::new(4);
        s.set_weight(A, 1.0);
        for i in 0..8 {
            s.submit(req(i, A), SimTime::ZERO);
        }
        let mut first = Vec::new();
        while let Some(r) = s.pop_dispatch(SimTime::ZERO) {
            first.push(r);
        }
        assert_eq!(first.len(), 4);
        s.on_complete(A, IoKind::Read, 1 << 20, SimDuration::ZERO, SimTime::ZERO);
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
        assert!(s.pop_dispatch(SimTime::ZERO).is_none());
    }

    #[test]
    fn every_flow_keeps_a_minimum_slot() {
        // Even a tiny weight always yields quota ≥ 1.
        let mut s = StrictPartition::new(2);
        s.set_weight(A, 1000.0);
        s.set_weight(B, 0.001);
        s.submit(req(0, B), SimTime::ZERO);
        assert!(s.pop_dispatch(SimTime::ZERO).is_some());
    }
}
