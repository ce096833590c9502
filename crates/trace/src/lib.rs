//! # ibis-trace — causal tracing and latency attribution
//!
//! Turns the flat `ibis-obs` event recording into causal structure:
//!
//! * **Lifecycle check** ([`check_well_formed`]): every request, task
//!   and job the recording opens is closed once, after it was opened.
//! * **Latency attribution** ([`attribution`]): each application's
//!   arrival→completion latency decomposed into named components —
//!   device service, DSFQ delay charge, degraded-mode wait, queue wait,
//!   fault stall, other — that **sum exactly to the swept total** (the
//!   sweep is integer nanoseconds and every elementary interval lands in
//!   exactly one bucket).
//! * **Critical paths** ([`critical_path`](mod@critical_path)): the
//!   dependency chain that bounds a DAG's makespan.
//! * **Engine self-profile** ([`profile`]): simulator wall clock
//!   attributed to event handlers, split by event kind.
//!
//! Like `ibis-obs` and `ibis-metrics`, tracing is **zero-cost when off**
//! and non-perturbing: the engine emits the same events whenever a
//! recorder runs, assembly happens after the run, and reports are
//! byte-identical with tracing on or off.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod critical_path;
mod lifecycle;
pub mod profile;
mod request;

pub use attribution::{attribute, check, AppAttribution, AttributionCheck, COMPONENTS};
pub use critical_path::{critical_path, CpNode, CriticalPath};
pub use lifecycle::check_well_formed;
pub use profile::{EngineProfile, KindProfile};

use ibis_obs::Recording;

/// Relative tolerance for the swept-vs-measured comparison in
/// [`check`]-style invariants: the integers are exact, the tolerance
/// absorbs millisecond-facing float round-trips.
pub const SUM_REL_TOL: f64 = 1e-9;

/// Tracing configuration, carried inside the cluster config.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceConfig {
    /// Assemble the attribution report after the run. Off by default;
    /// when on with observability off, the engine runs an internal
    /// recorder whose events feed assembly only (the recording is not
    /// published), so results stay byte-identical.
    pub enabled: bool,
}

impl TraceConfig {
    /// Reads the environment: `IBIS_TRACE=1` enables tracing.
    pub fn from_env() -> Self {
        let enabled = std::env::var("IBIS_TRACE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on"))
            .unwrap_or(false);
        TraceConfig { enabled }
    }

    /// An enabled config.
    pub fn on() -> Self {
        TraceConfig { enabled: true }
    }
}

/// The assembled trace: attribution per application. Apps are raw flow
/// ids; consumers with tenant tables (the cluster report carries one)
/// join names on the app id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Per-application latency decomposition, sorted by app id.
    pub per_app: Vec<AppAttribution>,
    /// Events the recording lost to ring eviction. Non-zero only when a
    /// bounded observability ring fed assembly; the decomposition then
    /// describes the surviving suffix only.
    pub dropped_events: u64,
}

impl TraceReport {
    /// Assembles the attribution from a finished recording.
    pub fn assemble(rec: &Recording) -> TraceReport {
        TraceReport {
            per_app: attribute(rec),
            dropped_events: rec.dropped_total(),
        }
    }

    /// The decomposition for one application id.
    pub fn app(&self, app: u32) -> Option<&AppAttribution> {
        self.per_app.iter().find(|a| a.app == app)
    }

    /// The decomposition as long-form rows `(metric, app, value)` with
    /// values in milliseconds — the shape the `ibis-metrics` CSV
    /// exporter joins onto its own series.
    pub fn csv_rows(&self) -> Vec<(String, u32, f64)> {
        let mut rows = Vec::with_capacity(self.per_app.len() * (COMPONENTS.len() + 1));
        for a in &self.per_app {
            for (i, comp) in COMPONENTS.iter().enumerate() {
                rows.push((
                    format!("latency_component_ms/{comp}"),
                    a.app,
                    a.components[i] as f64 / 1e6,
                ));
            }
            rows.push((
                "latency_measured_ms".to_string(),
                a.app,
                a.measured_ns as f64 / 1e6,
            ));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_obs::{EventKind, FlightRecorder, ObsEvent, RecordingMeta};
    use ibis_simcore::SimTime;

    fn tiny_recording() -> Recording {
        let mut rec = FlightRecorder::new(1, 64);
        let mut push = |at: u64, kind: EventKind| {
            rec.record(ObsEvent {
                at: SimTime::from_nanos(at),
                node: 0,
                dev: 0,
                kind,
            });
        };
        push(0, EventKind::JobArrived { job: 1, app: 3 });
        push(
            900,
            EventKind::JobCompleted {
                job: 1,
                app: 3,
                latency_ns: 900,
            },
        );
        rec.finish(RecordingMeta::default())
    }

    #[test]
    fn config_default_is_off() {
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::on().enabled);
    }

    #[test]
    fn assemble_exposes_app_lookup_and_csv_rows() {
        let rep = TraceReport::assemble(&tiny_recording());
        let a = rep.app(3).expect("app present");
        assert_eq!(a.measured_ns, 900);
        assert_eq!(a.swept_ns, a.components_sum_ns());
        let rows = rep.csv_rows();
        assert!(rows.iter().any(|(m, app, v)| {
            m == "latency_measured_ms" && *app == 3 && (*v - 0.0009).abs() < 1e-12
        }));
    }
}
