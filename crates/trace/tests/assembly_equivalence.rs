//! Attribution walks the recording in its own order, merged with the
//! matched requests' queue and service-start instants. Its output must
//! equal the sort-based attribution kept here as the model: one that
//! collects every edge, stably sorts the list by instant and sweeps it.
//! Random recordings of jobs (some sharing an app), tasks (some re-run
//! after a crash), requests (some re-queued, left in flight or completed
//! under another app), delay charges, degraded episodes and node
//! down/up markers pass through bounded recorders, so truncated streams
//! with orphaned completions are covered too.

use ibis_obs::{fault, EventKind, FlightRecorder, ObsEvent, Recording, RecordingMeta};
use ibis_simcore::SimTime;
use ibis_trace::{attribute, AppAttribution, TraceReport};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// SplitMix64: the recording generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n.max(1)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// A random recording on 1–4 nodes over a short horizon, so that many
/// events share an instant, recorded in time order through a recorder
/// with `capacity` events per node.
fn recording(seed: u64, capacity: usize) -> Recording {
    let mut rng = Rng(seed);
    let nodes = 1 + rng.below(4) as u32;
    let horizon = 20 + rng.below(200);
    let mut evs: Vec<(u64, u32, u8, EventKind)> = Vec::new();
    let mut io = 0;
    for job in 0..1 + rng.below(6) as u32 {
        let app = 1 + rng.below(3) as u32;
        let arrived = rng.below(horizon);
        let completed = arrived + rng.below(horizon / 2 + 1);
        let span = completed - arrived + 1;
        evs.push((
            arrived,
            rng.below(u64::from(nodes)) as u32,
            0,
            EventKind::JobArrived { job, app },
        ));
        if !rng.one_in(8) {
            let latency_ns = completed - arrived;
            evs.push((
                completed,
                0,
                0,
                EventKind::JobCompleted {
                    job,
                    app,
                    latency_ns,
                },
            ));
        }
        for task in 0..rng.below(4) as u32 {
            let node = rng.below(u64::from(nodes)) as u32;
            let start = arrived + rng.below(span);
            let end = start + rng.below(completed - start + 1);
            evs.push((start, node, 0, EventKind::TaskStarted { job, task, app }));
            evs.push((end, node, 0, EventKind::TaskFinished { job, task }));
            if rng.one_in(4) {
                // Re-run elsewhere from the instant the first run ended.
                let node = rng.below(u64::from(nodes)) as u32;
                evs.push((end, node, 0, EventKind::TaskStarted { job, task, app }));
                evs.push((
                    end + rng.below(8),
                    node,
                    0,
                    EventKind::TaskFinished { job, task },
                ));
            }
        }
        for _ in 0..rng.below(16) {
            io += 1;
            let (node, dev) = (rng.below(u64::from(nodes)) as u32, rng.below(2) as u8);
            let queued = (arrived + rng.below(span + 4)).saturating_sub(2);
            let dispatched = queued + rng.below(6);
            let done = dispatched + rng.below(6);
            let bytes = 1 + rng.below(1 << 20);
            let write = rng.one_in(2);
            evs.push((
                queued,
                node,
                dev,
                EventKind::IoQueued {
                    io,
                    app,
                    bytes,
                    write,
                },
            ));
            if rng.one_in(4) {
                let app = if rng.one_in(4) { app + 1 } else { app };
                evs.push((
                    queued,
                    node,
                    dev,
                    EventKind::DelayApplied { app, delay: 4096 },
                ));
            }
            if rng.one_in(12) {
                // Re-queued under the same id before it completes.
                evs.push((
                    dispatched,
                    node,
                    dev,
                    EventKind::IoQueued {
                        io,
                        app,
                        bytes,
                        write,
                    },
                ));
            }
            if !rng.one_in(12) {
                // Mostly dispatch-to-done latency; now and then longer
                // than the queue wait allows.
                let latency_ns = if rng.one_in(10) {
                    done - queued + rng.below(4)
                } else {
                    done - dispatched
                };
                let app = if rng.one_in(20) { app + 1 } else { app };
                evs.push((
                    done,
                    node,
                    dev,
                    EventKind::Completed {
                        io,
                        app,
                        bytes,
                        write,
                        latency_ns,
                    },
                ));
            }
        }
    }
    for _ in 0..rng.below(4) {
        let (node, dev) = (rng.below(u64::from(nodes)) as u32, rng.below(2) as u8);
        let at = rng.below(horizon);
        evs.push((at, node, dev, EventKind::DegradedEnter { age_ns: 7 }));
        if !rng.one_in(3) {
            evs.push((
                at + rng.below(40),
                node,
                dev,
                EventKind::DegradedExit { dark_ns: 1 },
            ));
        }
    }
    for _ in 0..rng.below(3) {
        let node = rng.below(u64::from(nodes)) as u32;
        let at = rng.below(horizon);
        evs.push((
            at,
            node,
            0,
            EventKind::FaultInjected {
                kind: fault::NODE_CRASH,
                detail: 0,
            },
        ));
        evs.push((
            at + rng.below(30),
            node,
            0,
            EventKind::FaultInjected {
                kind: fault::NODE_RESTART,
                detail: 0,
            },
        ));
        evs.push((
            at,
            0,
            0,
            EventKind::FaultInjected {
                kind: fault::SLOWDOWN_BEGIN,
                detail: 1,
            },
        ));
    }
    for _ in 0..rng.below(20) {
        let node = rng.below(u64::from(nodes)) as u32;
        evs.push((
            rng.below(horizon),
            node,
            0,
            EventKind::DepthAdjusted { depth: 4 },
        ));
    }
    // Time order, as the engine records; same-instant events keep their
    // generation order, which interleaves nodes.
    evs.sort_by_key(|e| e.0);
    let mut rec = FlightRecorder::new(nodes, capacity);
    for (at, node, dev, kind) in evs {
        rec.record(ObsEvent {
            at: SimTime::from_nanos(at),
            node,
            dev,
            kind,
        });
    }
    rec.finish(RecordingMeta {
        nodes,
        ..RecordingMeta::default()
    })
}

/// The model's sweep edge.
enum Edge {
    OpenJobs {
        app: u32,
        delta: i64,
    },
    Service {
        app: u32,
        delta: i64,
    },
    Queued {
        app: u32,
        dd: (u32, u8),
        delayed: bool,
    },
    Dispatched {
        q_app: u32,
        app: u32,
        dd: (u32, u8),
        delayed: bool,
    },
    Degraded {
        dd: (u32, u8),
        on: bool,
    },
    NodeDown {
        delta: i64,
    },
}

#[derive(Default)]
struct AppState {
    open_jobs: i64,
    in_service: i64,
    queued: i64,
    delayed_queued: i64,
    queued_on_degraded: i64,
    acc: [u64; 6],
    measured_ns: u64,
    jobs: u64,
}

/// The model of `attribute`: every edge in a list, stably sorted by
/// instant, swept.
fn model_attribute(rec: &Recording) -> Vec<AppAttribution> {
    let mut delayed_at = HashSet::new();
    for ev in rec.events() {
        if let EventKind::DelayApplied { app, .. } = ev.kind {
            delayed_at.insert((ev.node, ev.dev, app, ev.at.as_nanos()));
        }
    }
    let mut apps: BTreeMap<u32, AppState> = BTreeMap::new();
    let mut edges: Vec<(u64, Edge)> = Vec::new();
    let mut pending: HashMap<(u32, u8, u64), (u64, u32)> = HashMap::new();
    for ev in rec.events() {
        let (node, dev, t) = (ev.node, ev.dev, ev.at.as_nanos());
        match ev.kind {
            EventKind::JobArrived { app, .. } => {
                apps.entry(app).or_default();
                edges.push((t, Edge::OpenJobs { app, delta: 1 }));
            }
            EventKind::JobCompleted {
                app, latency_ns, ..
            } => {
                let s = apps.entry(app).or_default();
                s.measured_ns += latency_ns;
                s.jobs += 1;
                edges.push((t, Edge::OpenJobs { app, delta: -1 }));
            }
            EventKind::IoQueued { io, app, .. } => {
                pending.insert((node, dev, io), (t, app));
            }
            EventKind::Completed {
                io,
                app,
                latency_ns,
                ..
            } => {
                apps.entry(app).or_default();
                let dispatch = t.saturating_sub(latency_ns);
                if let Some((t_q, q_app)) = pending.remove(&(node, dev, io)) {
                    apps.entry(q_app).or_default();
                    let delayed = delayed_at.contains(&(node, dev, q_app, t_q));
                    let dd = (node, dev);
                    edges.push((
                        t_q,
                        Edge::Queued {
                            app: q_app,
                            dd,
                            delayed,
                        },
                    ));
                    edges.push((
                        dispatch.max(t_q),
                        Edge::Dispatched {
                            q_app,
                            app,
                            dd,
                            delayed,
                        },
                    ));
                } else {
                    edges.push((dispatch, Edge::Service { app, delta: 1 }));
                }
                edges.push((t, Edge::Service { app, delta: -1 }));
            }
            EventKind::DegradedEnter { .. } => {
                edges.push((
                    t,
                    Edge::Degraded {
                        dd: (node, dev),
                        on: true,
                    },
                ));
            }
            EventKind::DegradedExit { .. } => {
                edges.push((
                    t,
                    Edge::Degraded {
                        dd: (node, dev),
                        on: false,
                    },
                ));
            }
            EventKind::FaultInjected {
                kind: fault::NODE_CRASH,
                ..
            } => edges.push((t, Edge::NodeDown { delta: 1 })),
            EventKind::FaultInjected {
                kind: fault::NODE_RESTART,
                ..
            } => edges.push((t, Edge::NodeDown { delta: -1 })),
            _ => {}
        }
    }
    edges.sort_by_key(|&(t, _)| t);

    let mut degraded: HashSet<(u32, u8)> = HashSet::new();
    // Queued count per (device, app).
    let mut on_dev: BTreeMap<((u32, u8), u32), i64> = BTreeMap::new();
    let mut down: i64 = 0;
    let mut prev: Option<u64> = None;
    for (t, edge) in edges {
        if let Some(p) = prev.filter(|&p| t > p) {
            for s in apps.values_mut().filter(|s| s.open_jobs > 0) {
                let slot = if s.in_service > 0 {
                    0
                } else if s.delayed_queued > 0 {
                    1
                } else if s.queued_on_degraded > 0 {
                    2
                } else if s.queued > 0 {
                    3
                } else if down > 0 {
                    4
                } else {
                    5
                };
                s.acc[slot] += (t - p) * s.open_jobs as u64;
            }
        }
        prev = Some(t);
        let mut queue = |apps: &mut BTreeMap<u32, AppState>, app: u32, dd, delayed, delta: i64| {
            let s = apps.get_mut(&app).expect("app seen");
            s.queued = (s.queued + delta).max(0);
            if delayed {
                s.delayed_queued = (s.delayed_queued + delta).max(0);
            }
            if degraded.contains(&dd) {
                s.queued_on_degraded = (s.queued_on_degraded + delta).max(0);
            }
            let n = on_dev.entry((dd, app)).or_default();
            *n = (*n + delta).max(0);
        };
        match edge {
            Edge::OpenJobs { app, delta } => {
                let s = apps.get_mut(&app).expect("app seen");
                s.open_jobs = (s.open_jobs + delta).max(0);
            }
            Edge::Service { app, delta } => {
                let s = apps.get_mut(&app).expect("app seen");
                s.in_service = (s.in_service + delta).max(0);
            }
            Edge::Queued { app, dd, delayed } => queue(&mut apps, app, dd, delayed, 1),
            Edge::Dispatched {
                q_app,
                app,
                dd,
                delayed,
            } => {
                queue(&mut apps, q_app, dd, delayed, -1);
                apps.get_mut(&app).expect("app seen").in_service += 1;
            }
            Edge::Degraded { dd, on } => {
                if on != degraded.contains(&dd) {
                    if on {
                        degraded.insert(dd);
                    } else {
                        degraded.remove(&dd);
                    }
                    for (&(_, app), &n) in on_dev.range((dd, 0)..=(dd, u32::MAX)) {
                        let s = apps.get_mut(&app).expect("app seen");
                        s.queued_on_degraded = if on {
                            s.queued_on_degraded + n
                        } else {
                            (s.queued_on_degraded - n).max(0)
                        };
                    }
                }
            }
            Edge::NodeDown { delta } => down = (down + delta).max(0),
        }
    }
    apps.into_iter()
        .filter(|(_, s)| s.jobs > 0 || s.acc.iter().any(|&v| v > 0))
        .map(|(app, s)| AppAttribution {
            app,
            jobs: s.jobs,
            measured_ns: s.measured_ns,
            swept_ns: s.acc.iter().sum(),
            components: s.acc,
        })
        .collect()
}

fn capacity() -> impl Strategy<Value = usize> {
    prop_oneof![1 => 2usize..64, 1 => Just(usize::MAX)]
}

proptest! {
    #[test]
    fn attribution_matches_the_sorted_edge_sweep(seed in 0u64..u64::MAX, capacity in capacity()) {
        let rec = recording(seed, capacity);
        prop_assert_eq!(attribute(&rec), model_attribute(&rec), "seed {} capacity {}", seed, capacity);
    }

    #[test]
    fn assembly_reports_the_attribution_and_its_losses(seed in 0u64..u64::MAX, capacity in capacity()) {
        let rec = recording(seed, capacity);
        let report = TraceReport::assemble(&rec);
        prop_assert_eq!(&report.per_app, &model_attribute(&rec), "seed {}", seed);
        prop_assert_eq!(report.dropped_events, rec.dropped_total());
    }
}
