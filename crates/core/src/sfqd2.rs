//! SFQ(D2) — Dynamic Depth Start-time Fair Queuing, the paper's new
//! scheduler (§4): an [`SfqD`] dispatcher whose depth bound is retuned
//! every control period by a [`DepthController`].
//!
//! Fig. 7 ("Adaptation of D by SFQ(D2) based on the observed I/O latency
//! on one datanode") reads the controller through
//! [`IoScheduler::sample_metrics`]: the metrics sampler records `ctl_depth`
//! and `ctl_latency_ms` after each same-instant controller update.

use crate::controller::{ControllerConfig, DepthController};
use crate::request::{AppId, IoKind, Request};
use crate::scheduler::IoScheduler;
use crate::sfq::{SfqConfig, SfqD};
use ibis_simcore::{SimDuration, SimTime};

/// Configuration for [`SfqD2`].
#[derive(Debug, Clone, Default)]
pub struct SfqD2Config {
    /// Controller parameters (period, gain, reference latencies, bounds).
    pub controller: ControllerConfig,
    /// DSFQ delay cap, as in [`SfqConfig::delay_cap`].
    pub delay_cap: Option<u64>,
    /// Inert: nothing reads it. Fig. 7 reads the metrics sampler's
    /// controller series; the field stays only because the repo
    /// benchmark's scheduler replay still clears it.
    pub trace: bool,
}

/// The SFQ(D2) scheduler.
pub struct SfqD2 {
    inner: SfqD,
    controller: DepthController,
}

impl SfqD2 {
    /// Creates an SFQ(D2) scheduler.
    pub fn new(cfg: SfqD2Config) -> Self {
        let controller = DepthController::new(cfg.controller);
        let inner = SfqD::new(SfqConfig {
            depth: controller.depth(),
            delay_cap: cfg.delay_cap,
        });
        SfqD2 { inner, controller }
    }

    /// The controller, for inspection.
    pub fn controller(&self) -> &DepthController {
        &self.controller
    }

    /// Access to the wrapped SFQ(D) (for invariant checks in tests).
    pub fn inner(&self) -> &SfqD {
        &self.inner
    }
}

impl IoScheduler for SfqD2 {
    fn set_weight(&mut self, app: AppId, weight: f64) {
        self.inner.set_weight(app, weight);
    }

    fn submit(&mut self, req: Request, now: SimTime) {
        self.inner.submit(req, now);
    }

    fn pop_dispatch(&mut self, now: SimTime) -> Option<Request> {
        self.inner.pop_dispatch(now)
    }

    fn on_complete(
        &mut self,
        app: AppId,
        kind: IoKind,
        bytes: u64,
        latency: SimDuration,
        now: SimTime,
    ) {
        self.controller.observe(kind.is_read(), latency);
        self.inner.on_complete(app, kind, bytes, latency, now);
    }

    fn on_tick(&mut self, now: SimTime) {
        if let Some(new_depth) = self.controller.maybe_update(now) {
            self.inner.set_depth(new_depth);
            self.inner
                .obs_buf_mut()
                .push(now, ibis_obs::EventKind::DepthAdjusted { depth: new_depth });
        }
    }

    fn tick_period(&self) -> Option<SimDuration> {
        Some(self.controller.config().period)
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn drain_service_report(&mut self, out: &mut Vec<(AppId, u64)>) {
        self.inner.drain_service_report(out);
    }

    fn apply_global_service(&mut self, totals: &[(AppId, u64)], now: SimTime) {
        self.inner.apply_global_service(totals, now);
    }

    fn decisions(&self) -> u64 {
        self.inner.decisions()
    }

    fn update_staleness(&mut self, now: SimTime, bound: SimDuration) {
        self.inner.update_staleness(now, bound);
    }

    fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }

    fn degraded_entries(&self) -> u64 {
        self.inner.degraded_entries()
    }

    fn set_recording(&mut self, on: bool) {
        self.inner.set_recording(on);
    }

    fn take_events(&mut self, sink: &mut Vec<(SimTime, ibis_obs::EventKind)>) {
        self.inner.take_events(sink);
    }

    fn sample_metrics(&self, now: SimTime, out: &mut Vec<ibis_metrics::Sample>) {
        use ibis_metrics::Sample;
        self.inner.sample_metrics(now, out);
        out.push(Sample::global("ctl_depth", self.controller.depth_f64()));
        out.push(Sample::global("ctl_updates", self.controller.updates() as f64));
        // L(k) / L_ref are NaN until the first control update; the sampler
        // drops non-finite points, so the series simply starts later.
        out.push(Sample::global(
            "ctl_latency_ms",
            self.controller.last_latency_ms().unwrap_or(f64::NAN),
        ));
        out.push(Sample::global(
            "ctl_ref_ms",
            self.controller.last_reference_ms().unwrap_or(f64::NAN),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(1);

    fn controlled() -> SfqD2 {
        SfqD2::new(SfqD2Config {
            controller: ControllerConfig {
                gain_per_us: 1e-5,
                ..ControllerConfig::default()
            }
            .with_reference(SimDuration::from_millis(50)),
            ..SfqD2Config::default()
        })
    }

    /// Closed-loop: keep `load` requests queued, fake a device whose
    /// latency is `per_req × outstanding`.
    fn run_closed_loop(s: &mut SfqD2, seconds: u64, per_req: SimDuration) {
        let mut id = 0u64;
        for t in 0..seconds * 10 {
            let now = SimTime::from_millis(t * 100);
            while s.queued() < 20 {
                s.submit(Request::new(id, A, IoKind::Read, 4 << 20), now);
                id += 1;
            }
            // Dispatch a full batch (up to depth), then complete it with a
            // latency proportional to the batch size — a device whose
            // response time grows linearly with concurrency.
            let mut batch = Vec::new();
            while let Some(r) = s.pop_dispatch(now) {
                batch.push(r);
            }
            let latency = per_req * batch.len().max(1) as u64;
            for r in batch {
                s.on_complete(r.app, r.kind, r.bytes, latency, now);
            }
            s.on_tick(now);
        }
    }

    #[test]
    fn depth_converges_toward_reference_latency() {
        // per-request 25 ms at depth d → latency 25·d ms; reference 50 ms
        // → equilibrium depth = 2.
        let mut s = controlled();
        run_closed_loop(&mut s, 120, SimDuration::from_millis(25));
        let d = s.controller().depth();
        assert!(
            (1..=3).contains(&d),
            "depth {d} did not converge toward 2 (D = {})",
            s.controller().depth_f64()
        );
    }

    #[test]
    fn depth_rises_when_device_is_fast() {
        // 2 ms per request: even at D=12 latency stays at 24 ms < 50 ms →
        // controller pushes to d_max.
        let mut s = controlled();
        run_closed_loop(&mut s, 200, SimDuration::from_millis(2));
        assert_eq!(s.controller().depth(), 12);
    }

    #[test]
    fn delegates_scheduling_to_sfq() {
        let mut s = SfqD2::new(SfqD2Config::default());
        s.set_weight(A, 2.0);
        s.submit(Request::new(0, A, IoKind::Read, 100), SimTime::ZERO);
        assert_eq!(s.queued(), 1);
        let r = s.pop_dispatch(SimTime::ZERO).unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(s.outstanding(), 1);
        s.on_complete(r.app, r.kind, r.bytes, SimDuration::from_millis(1), SimTime::ZERO);
        assert_eq!(s.outstanding(), 0);
        let mut rep = Vec::new();
        s.drain_service_report(&mut rep);
        assert_eq!(rep, vec![(A, 100)]);
    }

    #[test]
    fn tick_period_matches_controller() {
        let s = SfqD2::new(SfqD2Config::default());
        assert_eq!(s.tick_period(), Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn sample_metrics_exposes_controller_state() {
        use ibis_metrics::Sample;
        let mut s = controlled();
        run_closed_loop(&mut s, 10, SimDuration::from_millis(25));
        let mut out = Vec::new();
        s.sample_metrics(SimTime::from_secs(10), &mut out);
        let get = |name: &str| -> f64 {
            out.iter()
                .find(|smp: &&Sample| smp.name == name && smp.app.is_none())
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert!(get("ctl_depth") >= 1.0);
        assert!(get("ctl_updates") >= 1.0);
        assert!(get("ctl_latency_ms").is_finite());
        assert!((get("ctl_ref_ms") - 50.0).abs() < 1e-9);
        // inherits the SFQ(D) samples too
        assert!(out.iter().any(|smp| smp.name == "sfq_vtime"));
    }

    /// Step-load scenario: the device's per-request latency doubles
    /// mid-run. The controller must re-settle L(k) within ±10 % of L_ref,
    /// and the diagnostics module must report a finite settling time.
    #[test]
    fn step_load_settles_within_tolerance() {
        use ibis_metrics::convergence::{
            diagnose, oscillation_amplitude, ConvergenceConfig,
        };
        use ibis_metrics::Sample;

        let mut s = controlled();
        let mut id = 0u64;
        let mut lat_points: Vec<(f64, f64, f64)> = Vec::new();
        let mut depths: Vec<f64> = Vec::new();
        let total_secs = 240u64;
        for t in 0..total_secs * 10 {
            let now = SimTime::from_millis(t * 100);
            // Load step at half time: 12.5 ms/req (equilibrium D = 4)
            // jumps to 25 ms/req (equilibrium D = 2).
            let per_req = if t < total_secs * 5 {
                SimDuration::from_micros(12_500)
            } else {
                SimDuration::from_millis(25)
            };
            while s.queued() < 20 {
                s.submit(Request::new(id, A, IoKind::Read, 4 << 20), now);
                id += 1;
            }
            let mut batch = Vec::new();
            while let Some(r) = s.pop_dispatch(now) {
                batch.push(r);
            }
            let latency = per_req * batch.len().max(1) as u64;
            for r in batch {
                s.on_complete(r.app, r.kind, r.bytes, latency, now);
            }
            s.on_tick(now);
            if t % 10 == 0 {
                // 1 Hz sampling, as the engine's sampler would do
                let mut out = Vec::new();
                s.sample_metrics(now, &mut out);
                let get = |name: &str| {
                    out.iter().find(|smp: &&Sample| smp.name == name).unwrap().value
                };
                let (l, l_ref) = (get("ctl_latency_ms"), get("ctl_ref_ms"));
                if l.is_finite() && l_ref.is_finite() {
                    lat_points.push((now.as_secs_f64(), l, l_ref));
                }
                depths.push(get("ctl_depth"));
            }
        }

        let report = diagnose(&lat_points, &ConvergenceConfig::default());
        assert!(report.settled, "controller never re-settled: {report:?}");
        let settle = report.settling_time_s.expect("finite settling time");
        assert!(
            settle < (total_secs - 10) as f64,
            "settling time {settle}s not finite-ish: {report:?}"
        );
        assert!(
            report.steady_state_error_pct < 10.0,
            "steady-state error too large: {report:?}"
        );
        // After settling, D oscillates around the new equilibrium by at
        // most ~1 slot (the integral term hunts across the rounding edge).
        let osc = oscillation_amplitude(&depths, 0.2);
        assert!(osc <= 1.5, "depth oscillation {osc} too large");
        // And the depth itself ends near the post-step equilibrium of 2.
        let d_end = *depths.last().unwrap();
        assert!((1.0..=3.5).contains(&d_end), "final depth {d_end}");
    }
}
