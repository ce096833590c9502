//! Latency attribution: decomposes each application's arrival→completion
//! latency into named components that **provably sum to the total**.
//!
//! The algorithm is a boundary sweep over the recording. Every lifecycle
//! event contributes edges (job opened/closed, request queued/dispatched/
//! completed, degraded episode begun/ended, node down/up); between two
//! consecutive edge instants the per-app state is constant, so each
//! elementary interval is charged to exactly one component, weighted by
//! the number of the app's open jobs (an app with three overlapping jobs
//! accrues three seconds of latency per wall second, exactly as the sum
//! of its per-job latencies does). Because the charge is integer
//! nanoseconds and every interval lands in exactly one bucket, the
//! component sum equals the swept total *exactly*, and the swept total
//! equals the measured per-job latency sum whenever the recording is
//! complete (no ring truncation).

use ibis_obs::{EventKind, Recording};
use ibis_simcore::hash::{FxHashMap, FxHashSet};

/// Component names, in classification-priority order: a device-service
/// interval wins over a delay charge, which wins over a degraded episode,
/// and so on. `other` is the remainder (compute, network transfer, slot
/// waits — time with the job open but no I/O in flight or queued).
pub const COMPONENTS: [&str; 6] = [
    "device_service",
    "dsfq_delay",
    "degraded_wait",
    "queue_wait",
    "fault_stall",
    "other",
];

const DEVICE_SERVICE: usize = 0;
const DSFQ_DELAY: usize = 1;
const DEGRADED_WAIT: usize = 2;
const QUEUE_WAIT: usize = 3;
const FAULT_STALL: usize = 4;
const OTHER: usize = 5;

/// One application's latency decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppAttribution {
    /// Application (flow) id — a tenant's shared id, or the job-derived
    /// id of a tenant-less job.
    pub app: u32,
    /// Completed jobs the decomposition covers.
    pub jobs: u64,
    /// Σ `JobCompleted.latency_ns` — the measured arrival→completion
    /// latency this decomposition must account for.
    pub measured_ns: u64,
    /// Σ elementary-interval charges — equals the component sum exactly,
    /// and `measured_ns` when the recording is complete.
    pub swept_ns: u64,
    /// Nanoseconds charged to each component, [`COMPONENTS`] order.
    pub components: [u64; 6],
}

impl AppAttribution {
    /// Nanoseconds charged to the named component.
    pub fn component_ns(&self, name: &str) -> u64 {
        COMPONENTS
            .iter()
            .position(|&c| c == name)
            .map_or(0, |i| self.components[i])
    }

    /// The exact sum of the component charges.
    pub fn components_sum_ns(&self) -> u64 {
        self.components.iter().sum()
    }

    /// The dominant component `(name, ns)`; ties break toward the
    /// higher-priority (earlier) component.
    pub fn dominant(&self) -> (&'static str, u64) {
        let mut best = 0;
        for i in 1..COMPONENTS.len() {
            if self.components[i] > self.components[best] {
                best = i;
            }
        }
        (COMPONENTS[best], self.components[best])
    }

    /// Component share of the swept total, in [0, 1].
    pub fn fraction(&self, name: &str) -> f64 {
        if self.swept_ns == 0 {
            0.0
        } else {
            self.component_ns(name) as f64 / self.swept_ns as f64
        }
    }
}

/// One sweep edge. Edges are applied in recording order within an
/// instant, which keeps the (rare) same-instant interactions between
/// queue and degraded-episode bookkeeping deterministic. `app` is a dense
/// app index and `dd` a dense (node, device) index, both assigned in
/// first-seen order while the edges are collected.
enum Edge {
    OpenJobs {
        app: u32,
        delta: i32,
    },
    Service {
        app: u32,
        delta: i32,
    },
    /// A request entered the queue of `dd`.
    Queued {
        app: u32,
        dd: u32,
        delayed: bool,
    },
    /// A request left the queue of `dd` (as queued by `q_app`) and
    /// entered service (as completed by `app`): the queue and service
    /// edges of one dispatch instant, applied in that order.
    Dispatched {
        q_app: u32,
        app: u32,
        dd: u32,
        delayed: bool,
    },
    Degraded {
        dd: u32,
        on: bool,
    },
    NodeDown {
        delta: i32,
    },
}

#[derive(Default)]
struct AppState {
    id: u32,
    open_jobs: i64,
    in_service: i64,
    queued: i64,
    delayed_queued: i64,
    queued_on_degraded: i64,
    acc: [u64; 6],
    measured_ns: u64,
    jobs: u64,
}

/// The dense index of `key`, assigned in first-seen order.
fn dense<K: std::hash::Hash + Eq>(index: &mut FxHashMap<K, u32>, key: K) -> u32 {
    let next = index.len() as u32;
    *index.entry(key).or_insert(next)
}

/// Per-app sweep state, densely indexed.
#[derive(Default)]
struct Apps {
    index: FxHashMap<u32, u32>,
    state: Vec<AppState>,
}

impl Apps {
    fn of(&mut self, app: u32) -> u32 {
        let i = dense(&mut self.index, app);
        if i as usize == self.state.len() {
            self.state.push(AppState {
                id: app,
                ..AppState::default()
            });
        }
        i
    }
}

/// Runs the attribution sweep over `rec`. Returns one entry per
/// application seen in job-lifecycle events, sorted by app id.
/// Ring-truncated recordings degrade gracefully: unmatched opens are
/// dropped and negative counts clamp to zero, so the decomposition stays
/// a partition of whatever latency the surviving events describe.
pub fn attribute(rec: &Recording) -> Vec<AppAttribution> {
    // Pass 1: match request lifecycles, collect edges and the measured
    // totals, which come straight from the completion events.
    let mut delayed_at: FxHashSet<(u32, u8, u32, u64)> = FxHashSet::default();
    for ev in rec.events() {
        if let EventKind::DelayApplied { app, .. } = ev.kind {
            delayed_at.insert((ev.node, ev.dev, app, ev.at.as_nanos()));
        }
    }

    let mut apps = Apps::default();
    // (node, dev) → dense index.
    let mut dds: FxHashMap<(u32, u8), u32> = FxHashMap::default();
    let mut edges: Vec<(u64, Edge)> = Vec::with_capacity(rec.len());
    // (node, dev, io) → (queue instant, dense app).
    let mut pending: FxHashMap<(u32, u8, u64), (u64, u32)> = FxHashMap::default();
    for ev in rec.events() {
        let (node, dev, t) = (ev.node, ev.dev, ev.at.as_nanos());
        match ev.kind {
            EventKind::JobArrived { app, .. } => {
                let app = apps.of(app);
                edges.push((t, Edge::OpenJobs { app, delta: 1 }));
            }
            EventKind::JobCompleted {
                app, latency_ns, ..
            } => {
                let app = apps.of(app);
                let s = &mut apps.state[app as usize];
                s.measured_ns += latency_ns;
                s.jobs += 1;
                edges.push((t, Edge::OpenJobs { app, delta: -1 }));
            }
            EventKind::IoQueued { io, app, .. } => {
                pending.insert((node, dev, io), (t, apps.of(app)));
            }
            EventKind::Completed {
                io,
                app,
                latency_ns,
                ..
            } => {
                let dispatch = t.saturating_sub(latency_ns);
                let app = apps.of(app);
                if let Some((t_q, q_app)) = pending.remove(&(node, dev, io)) {
                    let dispatch = dispatch.max(t_q);
                    let q_id = apps.state[q_app as usize].id;
                    let delayed = delayed_at.contains(&(node, dev, q_id, t_q));
                    let dd = dense(&mut dds, (node, dev));
                    edges.push((
                        t_q,
                        Edge::Queued {
                            app: q_app,
                            dd,
                            delayed,
                        },
                    ));
                    edges.push((
                        dispatch,
                        Edge::Dispatched {
                            q_app,
                            app,
                            dd,
                            delayed,
                        },
                    ));
                } else {
                    // Truncated open: count the service interval alone.
                    edges.push((dispatch, Edge::Service { app, delta: 1 }));
                }
                edges.push((t, Edge::Service { app, delta: -1 }));
            }
            EventKind::DegradedEnter { .. } => {
                let dd = dense(&mut dds, (node, dev));
                edges.push((t, Edge::Degraded { dd, on: true }));
            }
            EventKind::DegradedExit { .. } => {
                let dd = dense(&mut dds, (node, dev));
                edges.push((t, Edge::Degraded { dd, on: false }));
            }
            EventKind::FaultInjected { kind, .. } => match kind {
                3 => edges.push((t, Edge::NodeDown { delta: 1 })),
                4 => edges.push((t, Edge::NodeDown { delta: -1 })),
                _ => {}
            },
            _ => {}
        }
    }
    // Stable by instant: same-instant edges keep recording order.
    edges.sort_by_key(|&(t, _)| t);

    // Pass 2: the sweep. Accumulate the elapsed elementary interval for
    // every app with open jobs, then apply the edges at the new instant.
    let apps = &mut apps.state;
    let ndd = dds.len();
    let mut degraded = vec![false; ndd];
    // Per (node, dev): `(dense app, queued count)` for each app with a
    // positive count there (a missing app counts zero).
    let mut dd_apps: Vec<Vec<(u32, i64)>> = vec![Vec::new(); ndd];
    let mut down_nodes: i64 = 0;
    let mut prev: Option<u64> = None;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        if let Some(p) = prev {
            let len = t - p;
            if len > 0 {
                for s in apps.iter_mut() {
                    if s.open_jobs <= 0 {
                        continue;
                    }
                    let slot = if s.in_service > 0 {
                        DEVICE_SERVICE
                    } else if s.delayed_queued > 0 {
                        DSFQ_DELAY
                    } else if s.queued_on_degraded > 0 {
                        DEGRADED_WAIT
                    } else if s.queued > 0 {
                        QUEUE_WAIT
                    } else if down_nodes > 0 {
                        FAULT_STALL
                    } else {
                        OTHER
                    };
                    s.acc[slot] += len * s.open_jobs as u64;
                }
            }
        }
        prev = Some(t);
        while i < edges.len() && edges[i].0 == t {
            match edges[i].1 {
                Edge::OpenJobs { app, delta } => {
                    let s = &mut apps[app as usize];
                    s.open_jobs = (s.open_jobs + i64::from(delta)).max(0);
                }
                Edge::Service { app, delta } => {
                    let s = &mut apps[app as usize];
                    s.in_service = (s.in_service + i64::from(delta)).max(0);
                }
                Edge::Queued { app, dd, delayed } => {
                    queue(apps, &mut dd_apps, &degraded, app, dd, delayed, 1);
                }
                Edge::Dispatched {
                    q_app,
                    app,
                    dd,
                    delayed,
                } => {
                    queue(apps, &mut dd_apps, &degraded, q_app, dd, delayed, -1);
                    let s = &mut apps[app as usize];
                    s.in_service += 1;
                }
                Edge::Degraded { dd, on } => {
                    let was = degraded[dd as usize];
                    if on != was {
                        degraded[dd as usize] = on;
                        for &(app, n) in &dd_apps[dd as usize] {
                            let s = &mut apps[app as usize];
                            s.queued_on_degraded = if on {
                                s.queued_on_degraded + n
                            } else {
                                (s.queued_on_degraded - n).max(0)
                            };
                        }
                    }
                }
                Edge::NodeDown { delta } => {
                    down_nodes = (down_nodes + i64::from(delta)).max(0);
                }
            }
            i += 1;
        }
    }

    let mut out: Vec<AppAttribution> = apps
        .iter()
        .filter(|s| s.jobs > 0 || s.acc.iter().any(|&v| v > 0))
        .map(|s| AppAttribution {
            app: s.id,
            jobs: s.jobs,
            measured_ns: s.measured_ns,
            swept_ns: s.acc.iter().sum(),
            components: s.acc,
        })
        .collect();
    out.sort_by_key(|a| a.app);
    out
}

/// Applies a queue-length change of `delta` for dense app `app` on dense
/// device `dd`. Counts clamp at zero, so a truncated recording's
/// unmatched close cannot drive them negative.
fn queue(
    apps: &mut [AppState],
    dd_apps: &mut [Vec<(u32, i64)>],
    degraded: &[bool],
    app: u32,
    dd: u32,
    delayed: bool,
    delta: i64,
) {
    let s = &mut apps[app as usize];
    s.queued = (s.queued + delta).max(0);
    if delayed {
        s.delayed_queued = (s.delayed_queued + delta).max(0);
    }
    if degraded[dd as usize] {
        s.queued_on_degraded = (s.queued_on_degraded + delta).max(0);
    }
    let per_app = &mut dd_apps[dd as usize];
    match per_app.iter().position(|&(a, _)| a == app) {
        Some(k) => {
            per_app[k].1 += delta;
            if per_app[k].1 <= 0 {
                per_app.swap_remove(k);
            }
        }
        None if delta > 0 => per_app.push((app, delta)),
        None => {}
    }
}

/// The machine-checkable attribution invariant: for every application,
/// the component charges sum exactly to the swept total, and the swept
/// total matches the measured latency within `rel_tol` (relative; exact
/// equality is expected on complete recordings — the tolerance absorbs
/// the float round-trip of millisecond-facing consumers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionCheck {
    /// Applications examined.
    pub checked: u64,
    /// Applications whose decomposition failed the invariant.
    pub violations: u64,
    /// Largest relative |swept − measured| / measured observed.
    pub worst_rel_err: f64,
    /// True when the recording lost events to ring truncation — the
    /// sweep-vs-measured comparison is then advisory, not a violation.
    pub truncated: bool,
}

/// Checks the attribution invariant over `rec` (see [`AttributionCheck`]).
pub fn check(rec: &Recording, rel_tol: f64) -> AttributionCheck {
    let truncated = rec.dropped_total() > 0;
    let mut out = AttributionCheck {
        truncated,
        ..AttributionCheck::default()
    };
    for a in attribute(rec) {
        out.checked += 1;
        let exact = a.components_sum_ns() == a.swept_ns;
        let rel = if a.measured_ns == 0 {
            if a.swept_ns == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            (a.swept_ns as f64 - a.measured_ns as f64).abs() / a.measured_ns as f64
        };
        out.worst_rel_err = out.worst_rel_err.max(rel);
        if !exact || (!truncated && rel > rel_tol) {
            out.violations += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_obs::{FlightRecorder, ObsEvent, RecordingMeta};
    use ibis_simcore::SimTime;

    fn ev(at: u64, node: u32, dev: u8, kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(at),
            node,
            dev,
            kind,
        }
    }

    fn finish(rec: FlightRecorder) -> Recording {
        rec.finish(RecordingMeta {
            weights: vec![(1, 1.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 2,
            rack_size: 0,
        })
    }

    #[test]
    fn single_job_decomposes_exactly() {
        let mut rec = FlightRecorder::new(2, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        // Request queued at 100, dispatched at 400, completed at 1000.
        rec.record(ev(100, 0, 0, EventKind::IoQueued { io: 9, app: 1, bytes: 64, write: false }));
        rec.record(ev(1000, 0, 0, EventKind::Completed {
            io: 9,
            app: 1,
            bytes: 64,
            write: false,
            latency_ns: 600,
        }));
        rec.record(ev(2000, 0, 0, EventKind::JobCompleted { job: 1, app: 1, latency_ns: 2000 }));
        let atts = attribute(&finish(rec));
        assert_eq!(atts.len(), 1);
        let a = &atts[0];
        assert_eq!(a.measured_ns, 2000);
        assert_eq!(a.swept_ns, 2000);
        assert_eq!(a.component_ns("queue_wait"), 300);
        assert_eq!(a.component_ns("device_service"), 600);
        // other = [0,100) pre-queue + [1000,2000) post-I/O.
        assert_eq!(a.component_ns("other"), 1100);
        assert_eq!(a.components_sum_ns(), a.swept_ns);
    }

    #[test]
    fn delay_charge_classifies_queue_wait_as_dsfq_delay() {
        let mut rec = FlightRecorder::new(1, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        rec.record(ev(100, 0, 0, EventKind::DelayApplied { app: 1, delay: 4096 }));
        rec.record(ev(100, 0, 0, EventKind::IoQueued { io: 1, app: 1, bytes: 64, write: false }));
        rec.record(ev(900, 0, 0, EventKind::Completed {
            io: 1,
            app: 1,
            bytes: 64,
            write: false,
            latency_ns: 300,
        }));
        rec.record(ev(900, 0, 0, EventKind::JobCompleted { job: 1, app: 1, latency_ns: 900 }));
        let atts = attribute(&finish(rec));
        let a = &atts[0];
        assert_eq!(a.component_ns("dsfq_delay"), 500);
        assert_eq!(a.component_ns("queue_wait"), 0);
        assert_eq!(a.component_ns("device_service"), 300);
        assert_eq!(a.swept_ns, a.measured_ns);
    }

    #[test]
    fn degraded_episode_recolors_queue_wait() {
        let mut rec = FlightRecorder::new(1, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        rec.record(ev(0, 0, 0, EventKind::IoQueued { io: 1, app: 1, bytes: 64, write: false }));
        rec.record(ev(200, 0, 0, EventKind::DegradedEnter { age_ns: 7 }));
        rec.record(ev(600, 0, 0, EventKind::DegradedExit { dark_ns: 400 }));
        rec.record(ev(1000, 0, 0, EventKind::Completed {
            io: 1,
            app: 1,
            bytes: 64,
            write: false,
            latency_ns: 200,
        }));
        rec.record(ev(1000, 0, 0, EventKind::JobCompleted { job: 1, app: 1, latency_ns: 1000 }));
        let a = &attribute(&finish(rec))[0];
        assert_eq!(a.component_ns("queue_wait"), 400); // [0,200) ∪ [600,800)
        assert_eq!(a.component_ns("degraded_wait"), 400); // [200,600)
        assert_eq!(a.component_ns("device_service"), 200);
        assert_eq!(a.swept_ns, a.measured_ns);
    }

    #[test]
    fn overlapping_jobs_weight_by_open_count() {
        let mut rec = FlightRecorder::new(1, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 2, app: 1 }));
        rec.record(ev(500, 0, 0, EventKind::JobCompleted { job: 1, app: 1, latency_ns: 500 }));
        rec.record(ev(800, 0, 0, EventKind::JobCompleted { job: 2, app: 1, latency_ns: 800 }));
        let a = &attribute(&finish(rec))[0];
        assert_eq!(a.measured_ns, 1300);
        assert_eq!(a.swept_ns, 1300); // 2×500 + 1×300
        assert_eq!(a.component_ns("other"), 1300);
    }

    #[test]
    fn check_passes_on_complete_recording() {
        let mut rec = FlightRecorder::new(1, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        rec.record(ev(700, 0, 0, EventKind::JobCompleted { job: 1, app: 1, latency_ns: 700 }));
        let c = check(&finish(rec), 1e-9);
        assert_eq!(c.checked, 1);
        assert_eq!(c.violations, 0);
        assert!(!c.truncated);
    }
}
