//! # ibis-metrics — sampled time-series telemetry for the IBIS simulator
//!
//! The flight recorder (`ibis-obs`) captures discrete *events*; this crate
//! captures *state* on a fixed cadence of simulated time. Together they make
//! the SFQ(D2) control loop (§4 of the paper) and the scheduling broker's
//! periodic sync (§5) observable as time series: controller depth `D(k)`,
//! observed latency `L(k)` vs. the latency reference `L_ref`, per-flow
//! backlog, start-tag lag behind virtual time, and broker staleness.
//!
//! The building blocks:
//!
//! * [`MetricsRegistry`] — the instrument registry: gauges and
//!   fixed-bucket histograms stored inline, written only through
//!   `set_gauge` and `observe`. The engine builds one only when sampling is
//!   on; a run without it pays one branch.
//! * [`Sampler`] — records every registered gauge (and each histogram's
//!   observation count) each `sample_period` of *virtual* time into
//!   per-instrument [`Series`].
//! * [`convergence`] — diagnostics over a sampled ratio `L(k)/L_ref`:
//!   settling time to a ±10 % band, overshoot, steady-state error, and
//!   oscillation amplitude.
//! * [`prometheus`] / [`csv`] — exporters: Prometheus text exposition of the
//!   end-of-run snapshot (round-trip validated by proptest) and long-form
//!   CSV of the sampled series for plotting.
//!
//! Enable sampling for a run with `IBIS_METRICS=1`, or programmatically
//! via [`MetricsConfig::enabled`] (which also sets the cadence); the
//! capture lands on `RunReport::metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod csv;
pub mod prometheus;
pub mod registry;
pub mod sampler;

pub use registry::{HistogramSnapshot, Labels, MetricRow, MetricValue, MetricsRegistry, Snapshot};
pub use sampler::{MetricsCapture, Sampler, Series, SeriesKey};

use ibis_simcore::time::SimDuration;

/// Default virtual-time sampling cadence: once per simulated second, matching
/// the SFQ(D2) controller period so every controller update is observed.
pub const DEFAULT_SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(1);

/// Configuration for the simulation-clock sampler, resolved once per run.
///
/// Mirrors `ibis_obs::ObsConfig`: disabled by default, switchable from the
/// environment so any experiment binary can capture telemetry without a
/// rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Master switch. When false the engine allocates nothing and the
    /// simulation hot paths are untouched.
    pub enabled: bool,
    /// Virtual-time interval between samples.
    pub sample_period: SimDuration,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: false,
            sample_period: DEFAULT_SAMPLE_PERIOD,
        }
    }
}

impl MetricsConfig {
    /// Resolve the config from the environment: `IBIS_METRICS=1` enables
    /// sampling at the default cadence.
    pub fn from_env() -> Self {
        let enabled = std::env::var("IBIS_METRICS").is_ok_and(|v| v == "1" || v == "true");
        MetricsConfig {
            enabled,
            sample_period: DEFAULT_SAMPLE_PERIOD,
        }
    }

    /// An enabled config with an explicit sampling cadence.
    pub fn enabled(sample_period: SimDuration) -> Self {
        let sample_period = if sample_period.is_zero() {
            DEFAULT_SAMPLE_PERIOD
        } else {
            sample_period
        };
        MetricsConfig {
            enabled: true,
            sample_period,
        }
    }
}

/// One scheduler-reported observation, produced by
/// `IoScheduler::sample_metrics` implementations in `ibis-core`.
///
/// Schedulers are pull-sampled: they know nothing about the registry and
/// merely append `(name, optional flow, value)` triples when asked. The
/// engine owns label assignment (node/device) and registry routing, keeping
/// the scheduler hot paths free of metrics code entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Instrument name, e.g. `"ctl_latency_ms"`. Must be a valid Prometheus
    /// metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: &'static str,
    /// Flow (application) the observation belongs to, if per-flow.
    pub app: Option<u32>,
    /// Observed value.
    pub value: f64,
}

impl Sample {
    /// A scheduler-wide observation (no flow label).
    pub fn global(name: &'static str, value: f64) -> Self {
        Sample {
            name,
            app: None,
            value,
        }
    }

    /// A per-flow observation.
    pub fn per_flow(name: &'static str, app: u32, value: f64) -> Self {
        Sample {
            name,
            app: Some(app),
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_disabled() {
        let c = MetricsConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.sample_period, DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn enabled_rejects_zero_period() {
        let c = MetricsConfig::enabled(SimDuration::ZERO);
        assert!(c.enabled);
        assert_eq!(c.sample_period, DEFAULT_SAMPLE_PERIOD);
        let c = MetricsConfig::enabled(SimDuration::from_millis(250));
        assert_eq!(c.sample_period, SimDuration::from_millis(250));
    }

    #[test]
    fn sample_constructors() {
        let s = Sample::global("sfq_vtime", 2.5);
        assert_eq!(s.app, None);
        let s = Sample::per_flow("sfq_flow_backlog_reqs", 7, 3.0);
        assert_eq!(s.app, Some(7));
        assert_eq!(s.value, 3.0);
    }
}
