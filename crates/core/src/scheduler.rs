//! The common scheduler interface driven by the cluster engine, and the
//! [`Policy`] factory used by experiment configurations.

use crate::baselines::{CgroupThrottle, CgroupWeight, Fifo};
use crate::request::{AppId, IoKind, Request};
use crate::sfq::{SfqConfig, SfqD};
use crate::sfqd2::{SfqD2, SfqD2Config};
use ibis_simcore::{SimDuration, SimTime};

/// The interface between a datanode's interposition points and its
/// scheduler. The engine's contract:
///
/// 1. `set_weight` before an application's first request (unknown apps get
///    weight 1.0).
/// 2. `submit` on arrival, then drain `pop_dispatch` until `None`, sending
///    each returned request to the device.
/// 3. `on_complete` when the device finishes a request (with the measured
///    device latency), then drain `pop_dispatch` again.
/// 4. `on_tick` every [`IoScheduler::tick_period`], then drain
///    `pop_dispatch` again (a controller update may have raised the depth).
/// 5. Periodically exchange [`IoScheduler::drain_service_report`] /
///    [`IoScheduler::apply_global_service`] with the scheduling broker.
pub trait IoScheduler {
    /// Sets the I/O-service weight for an application. Weights are
    /// relative (§4: "only the relative values of weights matter").
    fn set_weight(&mut self, app: AppId, weight: f64);

    /// Accepts an interposed request.
    fn submit(&mut self, req: Request, now: SimTime);

    /// Returns the next request to send to the device, or `None` if the
    /// queue is empty or the concurrency bound is reached. Call repeatedly.
    fn pop_dispatch(&mut self, now: SimTime) -> Option<Request>;

    /// Acknowledges a device completion. `latency` is dispatch-to-complete
    /// (the device-observed latency the SFQ(D2) controller feeds on).
    fn on_complete(
        &mut self,
        app: AppId,
        kind: IoKind,
        bytes: u64,
        latency: SimDuration,
        now: SimTime,
    );

    /// Periodic housekeeping (controller updates, token refills).
    fn on_tick(&mut self, now: SimTime);

    /// How often `on_tick` must be called; `None` if never needed.
    fn tick_period(&self) -> Option<SimDuration>;

    /// Requests queued (not yet dispatched).
    fn queued(&self) -> usize;

    /// Requests dispatched but not yet completed.
    fn outstanding(&self) -> usize;

    /// Takes the per-application service delivered since the last call —
    /// the vector `a_ij` each local scheduler sends to the broker (§5) —
    /// into `out`, which is cleared first. The engine hands every
    /// scheduler the same pooled scratch buffer, so steady-state sync
    /// rounds allocate nothing. Non-coordinating schedulers use the
    /// default (always-empty) report.
    fn drain_service_report(&mut self, out: &mut Vec<(AppId, u64)>) {
        out.clear();
    }

    /// Applies the broker's response: total cluster-wide service `A_i` for
    /// each application this scheduler serves. Schedulers without
    /// coordination support ignore it.
    fn apply_global_service(&mut self, totals: &[(AppId, u64)], now: SimTime);

    /// Scheduling decisions taken so far (tag computations, queue
    /// scans): the scheduler CPU work behind Table 2's resource-overhead
    /// accounting. A scheduler that keeps no count reports 0, the
    /// default. Per-application service is not a scheduler counter: the
    /// broker's inputs come from [`IoScheduler::drain_service_report`],
    /// and the run's per-app totals from the engine's per-flow ledger,
    /// which outlives a node restart.
    fn decisions(&self) -> u64 {
        0
    }

    /// Turns flight-recorder event emission on or off. Schedulers without
    /// emit sites ignore it (the engine then records only device-level
    /// completions for them).
    fn set_recording(&mut self, _on: bool) {}

    /// Moves buffered observability events into `sink` in emission order.
    /// The engine calls this inside the handler that produced the events
    /// so the per-node recording preserves true processing order.
    fn take_events(&mut self, _sink: &mut Vec<(SimTime, ibis_obs::EventKind)>) {}

    /// Re-evaluates broker-total staleness against `bound` and toggles
    /// graceful degradation: a coordinating scheduler whose last applied
    /// sync is older than the bound (or that never saw one) must stop
    /// charging DSFQ delays — falling back to pure local fairness — until
    /// fresh totals arrive. The engine calls this only when fault
    /// injection is active, so fault-free runs never take the branch.
    /// Non-coordinating schedulers ignore it.
    fn update_staleness(&mut self, _now: SimTime, _bound: SimDuration) {}

    /// True while the scheduler is in degraded (pure-local) mode.
    fn is_degraded(&self) -> bool {
        false
    }

    /// How many times this scheduler has entered degraded mode.
    fn degraded_entries(&self) -> u64 {
        0
    }

    /// Appends the scheduler's current state as telemetry samples. Called
    /// by the engine's metrics sampler on its virtual-time cadence — never
    /// from the submit/dispatch/complete paths, so schedulers pay nothing
    /// when sampling is disabled. The default exposes the queue/outstanding
    /// gauges every scheduler already tracks.
    fn sample_metrics(&self, _now: SimTime, out: &mut Vec<ibis_metrics::Sample>) {
        out.push(ibis_metrics::Sample::global("sched_queued", self.queued() as f64));
        out.push(ibis_metrics::Sample::global(
            "sched_outstanding",
            self.outstanding() as f64,
        ));
    }
}

/// Declarative scheduler choice used by experiment configurations; maps
/// one-to-one to the schedulers compared in §7.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Native Hadoop: no I/O management, requests pass straight through.
    Native,
    /// SFQ(D) with a static depth (§4, Fig. 6's `SFQ(D=12..2)` bars).
    SfqD {
        /// The static depth D.
        depth: u32,
    },
    /// SFQ(D2): dynamic depth via the feedback controller.
    SfqD2(SfqD2Config),
    /// cgroups blkio proportional weights — differentiates only
    /// intermediate I/O (Fig. 10's `CG(weight)` bars).
    CgroupWeight,
    /// cgroups blkio throttling: per-app byte/sec caps on intermediate I/O
    /// (Fig. 10's `CG(throttle)` bars).
    CgroupThrottle {
        /// Caps in bytes/sec per application.
        caps: Vec<(AppId, f64)>,
    },
    /// Non-work-conserving strict partitioning (§9's extreme isolation
    /// point): per-flow slot quotas proportional to weights.
    Strict {
        /// Total device slots to partition.
        depth: u32,
    },
}

impl Policy {
    /// Builds a scheduler instance for one shared I/O service (one device
    /// queue on one datanode).
    pub fn build(&self) -> Box<dyn IoScheduler + Send> {
        match self {
            Policy::Native => Box::new(Fifo::new()),
            Policy::SfqD { depth } => Box::new(SfqD::new(SfqConfig {
                depth: *depth,
                ..SfqConfig::default()
            })),
            Policy::SfqD2(cfg) => Box::new(SfqD2::new(cfg.clone())),
            Policy::CgroupWeight => Box::new(CgroupWeight::new()),
            Policy::CgroupThrottle { caps } => {
                let mut s = CgroupThrottle::new();
                for (app, cap) in caps {
                    s.set_cap(*app, *cap);
                }
                Box::new(s)
            }
            Policy::Strict { depth } => Box::new(crate::strict::StrictPartition::new(*depth)),
        }
    }

    /// Short label used in reports ("Native", "SFQ(D=4)", "SFQ(D2)", …).
    pub fn label(&self) -> String {
        match self {
            Policy::Native => "Native".to_string(),
            Policy::SfqD { depth } => format!("SFQ(D={depth})"),
            Policy::SfqD2(_) => "SFQ(D2)".to_string(),
            Policy::CgroupWeight => "CG(weight)".to_string(),
            Policy::CgroupThrottle { .. } => "CG(throttle)".to_string(),
            Policy::Strict { depth } => format!("Strict(D={depth})"),
        }
    }

    /// True if this policy participates in broker coordination.
    pub fn coordinates(&self) -> bool {
        matches!(self, Policy::SfqD { .. } | Policy::SfqD2(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::Native.label(), "Native");
        assert_eq!(Policy::SfqD { depth: 4 }.label(), "SFQ(D=4)");
        assert_eq!(Policy::SfqD2(SfqD2Config::default()).label(), "SFQ(D2)");
        assert_eq!(Policy::CgroupWeight.label(), "CG(weight)");
        assert_eq!(
            Policy::CgroupThrottle { caps: vec![] }.label(),
            "CG(throttle)"
        );
    }

    #[test]
    fn policy_builds_every_variant() {
        let policies = [
            Policy::Native,
            Policy::SfqD { depth: 2 },
            Policy::SfqD2(SfqD2Config::default()),
            Policy::CgroupWeight,
            Policy::CgroupThrottle {
                caps: vec![(AppId(1), 1e6)],
            },
        ];
        for p in policies {
            let s = p.build();
            assert_eq!(s.queued(), 0);
            assert_eq!(s.outstanding(), 0);
        }
    }

    #[test]
    fn coordination_flags() {
        assert!(Policy::SfqD2(SfqD2Config::default()).coordinates());
        assert!(Policy::SfqD { depth: 1 }.coordinates());
        assert!(!Policy::Native.coordinates());
        assert!(!Policy::CgroupWeight.coordinates());
    }
}
