//! # ibis-trace — causal span tracing and latency attribution
//!
//! Turns the flat `ibis-obs` event recording into causal structure:
//!
//! * **Span trees** ([`span`]): per-request lifecycles (queue wait →
//!   device service) nested under tasks and jobs, plus a structural
//!   well-formedness checker.
//! * **Latency attribution** ([`attribution`]): each application's
//!   arrival→completion latency decomposed into named components —
//!   device service, DSFQ delay charge, degraded-mode wait, queue wait,
//!   fault stall, other — that **sum exactly to the swept total** (the
//!   sweep is integer nanoseconds and every elementary interval lands in
//!   exactly one bucket).
//! * **Critical paths** ([`critical_path`]): the dependency chain that
//!   bounds a DAG's makespan.
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
pub mod profile;
mod request;
pub mod span;

pub use attribution::{attribute, check, AppAttribution, AttributionCheck, COMPONENTS};
pub use critical_path::{critical_path, CpNode, CriticalPath};
pub use profile::{EngineProfile, KindProfile};
pub use span::{build_forest, check_well_formed, JobTree, RequestSpan, SpanForest, TaskSpan};

use ibis_obs::Recording;

/// Relative tolerance for the swept-vs-measured comparison in
/// [`check`]-style invariants: the integers are exact, the tolerance
/// absorbs millisecond-facing float round-trips.
pub const SUM_REL_TOL: f64 = 1e-9;

/// Tracing configuration, carried inside the cluster config.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceConfig {
    /// Assemble span trees and the attribution report after the run.
    /// Off by default; when on with observability off, the engine runs
    /// an internal recorder whose events feed assembly only (the
    /// recording is not published), so results stay byte-identical.
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

/// The assembled trace: attribution per application plus the span
/// forest. Apps are raw flow ids; consumers with tenant tables (the
/// cluster report carries one) join names on the app id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Per-application latency decomposition, sorted by app id.
    pub per_app: Vec<AppAttribution>,
    /// Per-job span trees.
    pub forest: SpanForest,
    /// Events the recording lost to ring eviction. Non-zero only when a
    /// bounded observability ring fed assembly; the forest and the
    /// decomposition then describe the surviving suffix only.
    pub dropped_events: u64,
}

impl TraceReport {
    /// Assembles attribution and span trees from a finished recording,
    /// matching its request lifecycles once for both.
    pub fn assemble(rec: &Recording) -> TraceReport {
        let requests = request::Requests::build(rec);
        TraceReport {
            per_app: attribution::sweep(rec, &requests),
            forest: span::assemble(rec, &requests),
            dropped_events: rec.dropped_total(),
        }
    }

    /// The decomposition for one application id.
    pub fn app(&self, app: u32) -> Option<&AppAttribution> {
        self.per_app.iter().find(|a| a.app == app)
    }

    /// Renders the decomposition as Prometheus text-format gauges
    /// (`ibis_latency_component_ms{app="…",component="…"}`), matching
    /// the `ibis-metrics` exposition conventions. `names` maps app ids
    /// to tenant names for an extra `tenant` label; unmapped apps get
    /// the id alone.
    pub fn prometheus(&self, names: &[(u32, &str)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let name_of = |app: u32| names.iter().find(|&&(a, _)| a == app).map(|&(_, n)| n);
        out.push_str("# TYPE ibis_latency_component_ms gauge\n");
        for a in &self.per_app {
            for (i, comp) in COMPONENTS.iter().enumerate() {
                let _ = write!(out, "ibis_latency_component_ms{{app=\"{}\"", a.app);
                if let Some(n) = name_of(a.app) {
                    let _ = write!(out, ",tenant=\"{n}\"");
                }
                let _ = writeln!(
                    out,
                    ",component=\"{comp}\"}} {}",
                    a.components[i] as f64 / 1e6
                );
            }
        }
        out.push_str("# TYPE ibis_latency_measured_ms gauge\n");
        for a in &self.per_app {
            let _ = write!(out, "ibis_latency_measured_ms{{app=\"{}\"", a.app);
            if let Some(n) = name_of(a.app) {
                let _ = write!(out, ",tenant=\"{n}\"");
            }
            let _ = writeln!(out, "}} {}", a.measured_ns as f64 / 1e6);
        }
        out
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
    fn assemble_exposes_app_lookup_and_exposition() {
        let rep = TraceReport::assemble(&tiny_recording());
        let a = rep.app(3).expect("app present");
        assert_eq!(a.measured_ns, 900);
        assert_eq!(a.swept_ns, a.components_sum_ns());
        let prom = rep.prometheus(&[(3, "etl")]);
        assert!(prom.contains("# TYPE ibis_latency_component_ms gauge"));
        assert!(prom.contains("ibis_latency_component_ms{app=\"3\",tenant=\"etl\",component=\"other\"} 0.0009"));
        let rows = rep.csv_rows();
        assert!(rows.iter().any(|(m, app, v)| {
            m == "latency_measured_ms" && *app == 3 && (*v - 0.0009).abs() < 1e-12
        }));
    }
}
