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
//!
//! The sweep builds and sorts no edge list. Edges come from three
//! streams, each already in `(instant, completion position, edge)`
//! order, and are merged as they are applied:
//!
//! * the recording itself, in its own time order: job arrivals and
//!   completions, request completions, degraded episodes, node down/up;
//! * the queue instants of matched requests, time-ordered because queue
//!   events are, with same-instant requests in completion order;
//! * service starts (completion instant minus device latency), the one
//!   stream that is sorted.
//!
//! A request's edges are keyed by its completion's position in the
//! recording, so at one instant they interleave with the recording's
//! own edges exactly as a stable time sort of edges pushed in recording
//! order would put them, and the clamps on truncated recordings see the
//! same sequence.

use crate::request::Requests;
use ibis_obs::{fault, EventKind, Recording};
use ibis_simcore::hash::FxHashMap;

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

/// Per-(node, dev) sweep state, densely indexed.
#[derive(Default)]
struct Devices {
    index: FxHashMap<(u32, u8), u32>,
    degraded: Vec<bool>,
    /// `(dense app, queued count)` for each app with a positive count
    /// on the device (a missing app counts zero).
    queued: Vec<Vec<(u32, i64)>>,
}

impl Devices {
    fn of(&mut self, node: u32, dev: u8) -> u32 {
        let i = dense(&mut self.index, (node, dev));
        if i as usize == self.degraded.len() {
            self.degraded.push(false);
            self.queued.push(Vec::new());
        }
        i
    }
}

/// Which stream an edge comes from. At one instant and one completion
/// position a request's queue edge goes first, then its service start,
/// then the completion itself: the order the three were once pushed in.
const QUEUE: u8 = 0;
const START: u8 = 1;
const OWN: u8 = 2;

/// The key past every edge: `(instant, position, stream)`.
const END: (u64, u32, u8) = (u64::MAX, u32::MAX, u8::MAX);

/// A matched request's dense ids.
struct Ids {
    /// The app it was queued under.
    q_app: u32,
    /// The app that completed it.
    app: u32,
    /// Its (node, dev).
    dd: u32,
    /// True when a DSFQ delay charge landed on `q_app` at the queue
    /// instant.
    q_delayed: bool,
}

/// True when the event itself is a sweep edge at its own instant.
fn own_edge(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::JobArrived { .. }
            | EventKind::JobCompleted { .. }
            | EventKind::Completed { .. }
            | EventKind::DegradedEnter { .. }
            | EventKind::DegradedExit { .. }
            | EventKind::FaultInjected {
                kind: fault::NODE_CRASH | fault::NODE_RESTART,
                ..
            }
    )
}

/// Runs the attribution sweep over `rec`. Returns one entry per
/// application seen in job-lifecycle events, sorted by app id.
/// Ring-truncated recordings degrade gracefully: unmatched opens are
/// dropped and negative counts clamp to zero, so the decomposition stays
/// a partition of whatever latency the surviving events describe.
pub fn attribute(rec: &Recording) -> Vec<AppAttribution> {
    let reqs = Requests::build(rec);
    let events = rec.events();
    let mut apps = Apps::default();
    let mut devs = Devices::default();
    // Per matched request, its dense ids; per service start, its key
    // `(instant, completion position, request)`, where requests past the
    // matched ones are orphans. Starts are the one stream to sort.
    let matched = reqs.matched.len();
    let mut ids: Vec<Ids> = Vec::with_capacity(matched);
    let mut starts: Vec<(u64, u32, u32)> = Vec::with_capacity(matched + reqs.orphans.len());
    for (i, &r) in reqs.matched.iter().enumerate() {
        let m = reqs.fields(r);
        let q_app = apps.of(m.q_app);
        ids.push(Ids {
            q_app,
            app: if m.app == m.q_app {
                q_app
            } else {
                apps.of(m.app)
            },
            dd: devs.of(m.node, m.dev),
            q_delayed: reqs.delayed(m.node, m.dev, m.q_app, m.queued_ns),
        });
        starts.push((m.dispatched_ns, r.done, i as u32));
    }
    let mut orphan_apps: Vec<u32> = Vec::with_capacity(reqs.orphans.len());
    for (k, &done) in reqs.orphans.iter().enumerate() {
        let (app, dispatch_ns) = reqs.orphan(done);
        orphan_apps.push(apps.of(app));
        starts.push((dispatch_ns, done, (matched + k) as u32));
    }
    starts.sort_unstable();

    // The sweep. Between two consecutive edge instants the state is
    // constant: charge the elapsed interval to every app with open jobs,
    // then apply the edges at the new instant in key order.
    let next_own = |from: usize| {
        from + events[from..]
            .iter()
            .position(|ev| own_edge(&ev.kind))
            .unwrap_or(events.len() - from)
    };
    let mut down_nodes: i64 = 0;
    // Dense apps with open jobs: the ones an interval is charged to.
    let mut open_apps: Vec<u32> = Vec::new();
    let mut prev: Option<u64> = None;
    // Cursors into the queue, start and own-edge streams.
    let (mut q, mut d, mut e) = (0, 0, next_own(0));
    loop {
        let kq = reqs
            .matched
            .get(q)
            .map_or(END, |&r| (reqs.queued_ns(r), r.done, QUEUE));
        let kd = starts.get(d).map_or(END, |&(t, done, _)| (t, done, START));
        let ke = events
            .get(e)
            .map_or(END, |ev| (ev.at.as_nanos(), e as u32, OWN));
        let key = kq.min(kd).min(ke);
        if key == END {
            break;
        }
        let (t, _, stream) = key;
        if let Some(p) = prev.filter(|&p| t > p) {
            let len = t - p;
            for &i in &open_apps {
                let s = &mut apps.state[i as usize];
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
        prev = Some(t);
        match stream {
            QUEUE => {
                let r = &ids[q];
                queue(&mut apps.state, &mut devs, r.q_app, r.dd, r.q_delayed, 1);
                q += 1;
            }
            START => {
                let i = starts[d].2 as usize;
                if let Some(r) = ids.get(i) {
                    // Leaves the queue as queued, enters service as completed.
                    queue(&mut apps.state, &mut devs, r.q_app, r.dd, r.q_delayed, -1);
                    apps.state[r.app as usize].in_service += 1;
                } else {
                    // Truncated open: the service interval alone.
                    apps.state[orphan_apps[i - matched] as usize].in_service += 1;
                }
                d += 1;
            }
            _ => {
                let ev = &events[e];
                match ev.kind {
                    EventKind::JobArrived { app, .. } => {
                        let i = apps.of(app);
                        let st = &mut apps.state[i as usize];
                        st.open_jobs += 1;
                        if st.open_jobs == 1 {
                            open_apps.push(i);
                        }
                    }
                    EventKind::JobCompleted {
                        app, latency_ns, ..
                    } => {
                        let i = apps.of(app);
                        let st = &mut apps.state[i as usize];
                        st.measured_ns += latency_ns;
                        st.jobs += 1;
                        if st.open_jobs == 1 {
                            open_apps.retain(|&a| a != i);
                        }
                        st.open_jobs = (st.open_jobs - 1).max(0);
                    }
                    EventKind::Completed { app, .. } => {
                        let i = apps.of(app) as usize;
                        let st = &mut apps.state[i];
                        st.in_service = (st.in_service - 1).max(0);
                    }
                    EventKind::DegradedEnter { .. } | EventKind::DegradedExit { .. } => {
                        let on = matches!(ev.kind, EventKind::DegradedEnter { .. });
                        let dd = devs.of(ev.node, ev.dev) as usize;
                        if on != devs.degraded[dd] {
                            devs.degraded[dd] = on;
                            for &(app, n) in &devs.queued[dd] {
                                let st = &mut apps.state[app as usize];
                                st.queued_on_degraded = if on {
                                    st.queued_on_degraded + n
                                } else {
                                    (st.queued_on_degraded - n).max(0)
                                };
                            }
                        }
                    }
                    EventKind::FaultInjected {
                        kind: fault::NODE_CRASH,
                        ..
                    } => down_nodes += 1,
                    EventKind::FaultInjected {
                        kind: fault::NODE_RESTART,
                        ..
                    } => down_nodes = (down_nodes - 1).max(0),
                    _ => unreachable!("only own edges are visited"),
                }
                e = next_own(e + 1);
            }
        }
    }

    let mut out: Vec<AppAttribution> = apps
        .state
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
fn queue(apps: &mut [AppState], devs: &mut Devices, app: u32, dd: u32, delayed: bool, delta: i64) {
    let s = &mut apps[app as usize];
    s.queued = (s.queued + delta).max(0);
    if delayed {
        s.delayed_queued = (s.delayed_queued + delta).max(0);
    }
    if devs.degraded[dd as usize] {
        s.queued_on_degraded = (s.queued_on_degraded + delta).max(0);
    }
    let per_app = &mut devs.queued[dd as usize];
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
        rec.record(ev(
            100,
            0,
            0,
            EventKind::IoQueued {
                io: 9,
                app: 1,
                bytes: 64,
                write: false,
            },
        ));
        rec.record(ev(
            1000,
            0,
            0,
            EventKind::Completed {
                io: 9,
                app: 1,
                bytes: 64,
                write: false,
                latency_ns: 600,
            },
        ));
        rec.record(ev(
            2000,
            0,
            0,
            EventKind::JobCompleted {
                job: 1,
                app: 1,
                latency_ns: 2000,
            },
        ));
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
        rec.record(ev(
            100,
            0,
            0,
            EventKind::DelayApplied {
                app: 1,
                delay: 4096,
            },
        ));
        rec.record(ev(
            100,
            0,
            0,
            EventKind::IoQueued {
                io: 1,
                app: 1,
                bytes: 64,
                write: false,
            },
        ));
        rec.record(ev(
            900,
            0,
            0,
            EventKind::Completed {
                io: 1,
                app: 1,
                bytes: 64,
                write: false,
                latency_ns: 300,
            },
        ));
        rec.record(ev(
            900,
            0,
            0,
            EventKind::JobCompleted {
                job: 1,
                app: 1,
                latency_ns: 900,
            },
        ));
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
        rec.record(ev(
            0,
            0,
            0,
            EventKind::IoQueued {
                io: 1,
                app: 1,
                bytes: 64,
                write: false,
            },
        ));
        rec.record(ev(200, 0, 0, EventKind::DegradedEnter { age_ns: 7 }));
        rec.record(ev(600, 0, 0, EventKind::DegradedExit { dark_ns: 400 }));
        rec.record(ev(
            1000,
            0,
            0,
            EventKind::Completed {
                io: 1,
                app: 1,
                bytes: 64,
                write: false,
                latency_ns: 200,
            },
        ));
        rec.record(ev(
            1000,
            0,
            0,
            EventKind::JobCompleted {
                job: 1,
                app: 1,
                latency_ns: 1000,
            },
        ));
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
        rec.record(ev(
            500,
            0,
            0,
            EventKind::JobCompleted {
                job: 1,
                app: 1,
                latency_ns: 500,
            },
        ));
        rec.record(ev(
            800,
            0,
            0,
            EventKind::JobCompleted {
                job: 2,
                app: 1,
                latency_ns: 800,
            },
        ));
        let a = &attribute(&finish(rec))[0];
        assert_eq!(a.measured_ns, 1300);
        assert_eq!(a.swept_ns, 1300); // 2×500 + 1×300
        assert_eq!(a.component_ns("other"), 1300);
    }

    #[test]
    fn check_passes_on_complete_recording() {
        let mut rec = FlightRecorder::new(1, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        rec.record(ev(
            700,
            0,
            0,
            EventKind::JobCompleted {
                job: 1,
                app: 1,
                latency_ns: 700,
            },
        ));
        let c = check(&finish(rec), 1e-9);
        assert_eq!(c.checked, 1);
        assert_eq!(c.violations, 0);
        assert!(!c.truncated);
    }
}
