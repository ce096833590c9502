//! The SFQ(D2) depth controller (§4).
//!
//! An integral feedback controller that runs once per control period and
//! sets the next period's dispatch depth:
//!
//! ```text
//! D(k+1) = D(k) + K · (L_ref − L(k))            (paper Eq. 1)
//! ```
//!
//! `L(k)` is the average I/O latency observed in period `k`; `L_ref` is
//! the reference latency from offline profiling
//! (`ibis_storage::profile_device` in this workspace — see that module).
//! When the device's read and write performance are asymmetric (SSDs),
//! separate read/write references are blended by the observed read/write
//! mix of the previous period, exactly as the paper describes.
//!
//! `D` is kept as a float internally (the integral controller accumulates
//! fractional corrections) and exposed rounded and clamped to
//! `[d_min, d_max]` — the paper bounds D to `[1, 12]` in Fig. 7.

use ibis_simcore::{SimDuration, SimTime};

/// Controller parameters.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Control period; the paper uses 1 second (§7.1).
    pub period: SimDuration,
    /// Integral gain `K`, in depth units per *microsecond* of latency
    /// error. The paper sets `10⁻⁶` (Fig. 7) with millisecond-scale
    /// latencies.
    pub gain_per_us: f64,
    /// Reference latency for reads, from offline profiling.
    pub ref_read: SimDuration,
    /// Reference latency for writes, from offline profiling.
    pub ref_write: SimDuration,
    /// Lower bound on D (paper: 1).
    pub d_min: f64,
    /// Upper bound on D (paper: 12).
    pub d_max: f64,
    /// Initial D.
    pub d_init: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            period: SimDuration::from_secs(1),
            gain_per_us: 1e-6,
            ref_read: SimDuration::from_millis(50),
            ref_write: SimDuration::from_millis(50),
            d_min: 1.0,
            d_max: 12.0,
            d_init: 4.0,
        }
    }
}

impl ControllerConfig {
    /// Convenience: a symmetric reference latency for both directions.
    pub fn with_reference(mut self, l_ref: SimDuration) -> Self {
        self.ref_read = l_ref;
        self.ref_write = l_ref;
        self
    }
}

/// The feedback controller state. Feed it completions with
/// [`DepthController::observe`]; call [`DepthController::maybe_update`]
/// from the scheduler tick; read the bound with [`DepthController::depth`].
#[derive(Debug, Clone)]
pub struct DepthController {
    cfg: ControllerConfig,
    d: f64,
    // accumulators for the current period
    read_lat: SimDuration,
    read_n: u64,
    write_lat: SimDuration,
    write_n: u64,
    period_start: SimTime,
    updates: u64,
    // last control decision, for telemetry (NaN until the first update)
    last_latency_ns: f64,
    last_ref_ns: f64,
}

impl DepthController {
    /// Creates a controller.
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.d_min >= 1.0 && cfg.d_max >= cfg.d_min, "bad D bounds");
        assert!(!cfg.period.is_zero(), "control period must be positive");
        let d = cfg.d_init.clamp(cfg.d_min, cfg.d_max);
        DepthController {
            cfg,
            d,
            read_lat: SimDuration::ZERO,
            read_n: 0,
            write_lat: SimDuration::ZERO,
            write_n: 0,
            period_start: SimTime::ZERO,
            updates: 0,
            last_latency_ns: f64::NAN,
            last_ref_ns: f64::NAN,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Current depth bound, rounded for the dispatcher.
    pub fn depth(&self) -> u32 {
        self.d.round().max(1.0) as u32
    }

    /// Current depth as the controller's internal float.
    pub fn depth_f64(&self) -> f64 {
        self.d
    }

    /// Number of control updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Mean observed latency `L(k)` of the most recent control update, in
    /// milliseconds. `None` until the first update fires.
    pub fn last_latency_ms(&self) -> Option<f64> {
        self.last_latency_ns.is_finite().then(|| self.last_latency_ns / 1e6)
    }

    /// Mix-weighted reference latency `L_ref` used by the most recent
    /// control update, in milliseconds. `None` until the first update.
    pub fn last_reference_ms(&self) -> Option<f64> {
        self.last_ref_ns.is_finite().then(|| self.last_ref_ns / 1e6)
    }

    /// Records one completed I/O of the given direction and latency.
    pub fn observe(&mut self, is_read: bool, latency: SimDuration) {
        if is_read {
            self.read_lat += latency;
            self.read_n += 1;
        } else {
            self.write_lat += latency;
            self.write_n += 1;
        }
    }

    /// Runs the control law if a full period has elapsed. Returns the new
    /// depth when an update fired. Periods with no completed I/O leave D
    /// unchanged (no information, and an idle device needs no control).
    pub fn maybe_update(&mut self, now: SimTime) -> Option<u32> {
        if now.saturating_since(self.period_start) < self.cfg.period {
            return None;
        }
        self.period_start = now;
        let n = self.read_n + self.write_n;
        if n == 0 {
            return None;
        }
        // Observed mean latency L(k); with both directions present this is
        // the overall mean, which equals the mix-weighted average of the
        // per-direction means.
        let l_k = (self.read_lat + self.write_lat).as_nanos() as f64 / n as f64;
        // Mix-weighted reference latency.
        let p_read = self.read_n as f64 / n as f64;
        let l_ref = p_read * self.cfg.ref_read.as_nanos() as f64
            + (1.0 - p_read) * self.cfg.ref_write.as_nanos() as f64;
        // Eq. 1, with the gain converted from per-µs to per-ns.
        let k_ns = self.cfg.gain_per_us / 1_000.0;
        self.d = (self.d + k_ns * (l_ref - l_k)).clamp(self.cfg.d_min, self.cfg.d_max);
        self.last_latency_ns = l_k;
        self.last_ref_ns = l_ref;
        self.read_lat = SimDuration::ZERO;
        self.read_n = 0;
        self.write_lat = SimDuration::ZERO;
        self.write_n = 0;
        self.updates += 1;
        Some(self.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(gain: f64) -> ControllerConfig {
        ControllerConfig {
            gain_per_us: gain,
            ..ControllerConfig::default()
        }
        .with_reference(SimDuration::from_millis(50))
    }

    #[test]
    fn no_update_before_period() {
        let mut c = DepthController::new(cfg(1e-6));
        c.observe(true, SimDuration::from_millis(10));
        assert_eq!(c.maybe_update(SimTime::from_millis(999)), None);
        assert!(c.maybe_update(SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn no_update_without_observations() {
        let mut c = DepthController::new(cfg(1e-6));
        assert_eq!(c.maybe_update(SimTime::from_secs(2)), None);
        assert_eq!(c.updates(), 0);
    }

    #[test]
    fn latency_above_reference_shrinks_depth() {
        let mut c = DepthController::new(cfg(1e-5));
        let d0 = c.depth_f64();
        for _ in 0..10 {
            c.observe(true, SimDuration::from_millis(250));
        }
        c.maybe_update(SimTime::from_secs(1));
        assert!(c.depth_f64() < d0, "D should fall: {}", c.depth_f64());
    }

    #[test]
    fn latency_below_reference_grows_depth() {
        let mut c = DepthController::new(cfg(1e-4));
        let d0 = c.depth_f64();
        for _ in 0..10 {
            c.observe(true, SimDuration::from_millis(5));
        }
        c.maybe_update(SimTime::from_secs(1));
        assert!(c.depth_f64() > d0, "D should rise: {}", c.depth_f64());
    }

    #[test]
    fn update_magnitude_matches_eq1() {
        // error = 50 ms - 250 ms = -200 ms = -2e5 µs; K = 1e-5 →
        // ΔD = -2.0 exactly.
        let mut c = DepthController::new(cfg(1e-5));
        for _ in 0..4 {
            c.observe(true, SimDuration::from_millis(250));
        }
        c.maybe_update(SimTime::from_secs(1));
        assert!((c.depth_f64() - (4.0 - 2.0)).abs() < 1e-9, "{}", c.depth_f64());
    }

    #[test]
    fn depth_clamped_to_bounds() {
        let mut c = DepthController::new(cfg(1.0)); // huge gain
        for _ in 0..5 {
            c.observe(true, SimDuration::from_secs(10));
        }
        c.maybe_update(SimTime::from_secs(1));
        assert_eq!(c.depth_f64(), 1.0);
        for _ in 0..5 {
            c.observe(true, SimDuration::from_nanos(1));
        }
        c.maybe_update(SimTime::from_secs(2));
        assert_eq!(c.depth_f64(), 12.0);
    }

    #[test]
    fn mixed_reference_blends_by_observed_mix() {
        // read ref 10 ms, write ref 90 ms; 3 reads + 1 write →
        // L_ref = 0.75·10 + 0.25·90 = 30 ms. Observed latency 30 ms → no
        // change even with a huge gain.
        let mut c = DepthController::new(ControllerConfig {
            gain_per_us: 1.0,
            ref_read: SimDuration::from_millis(10),
            ref_write: SimDuration::from_millis(90),
            ..ControllerConfig::default()
        });
        let d0 = c.depth_f64();
        for _ in 0..3 {
            c.observe(true, SimDuration::from_millis(30));
        }
        c.observe(false, SimDuration::from_millis(30));
        c.maybe_update(SimTime::from_secs(1));
        assert!((c.depth_f64() - d0).abs() < 1e-9, "{}", c.depth_f64());
    }

    #[test]
    fn window_resets_between_periods() {
        let mut c = DepthController::new(cfg(1e-5));
        for _ in 0..10 {
            c.observe(true, SimDuration::from_millis(250));
        }
        c.maybe_update(SimTime::from_secs(1));
        let d1 = c.depth_f64();
        // Next period with exactly on-target latency: no further change.
        c.observe(true, SimDuration::from_millis(50));
        c.maybe_update(SimTime::from_secs(2));
        assert!((c.depth_f64() - d1).abs() < 1e-9);
    }

    #[test]
    fn last_update_telemetry_exposed() {
        let mut c = DepthController::new(cfg(1e-6));
        assert_eq!(c.last_latency_ms(), None);
        assert_eq!(c.last_reference_ms(), None);
        c.observe(true, SimDuration::from_millis(30));
        c.observe(true, SimDuration::from_millis(50));
        c.maybe_update(SimTime::from_secs(1));
        assert!((c.last_latency_ms().unwrap() - 40.0).abs() < 1e-9);
        assert!((c.last_reference_ms().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rounded_depth_at_least_one() {
        let c = DepthController::new(ControllerConfig {
            d_init: 1.2,
            ..cfg(1e-6)
        });
        assert_eq!(c.depth(), 1);
    }
}
