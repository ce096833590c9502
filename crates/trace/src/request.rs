//! The request table: every request lifecycle of a recording, matched in
//! one pass. Attribution builds one.
//!
//! A request's `IoQueued` opens it and the next `Completed` with the
//! same `(node, dev, io)` closes it; a later `IoQueued` with that key
//! replaces an open one, which then never matches. A completion without
//! an open request (its queue event was evicted) is an orphan. The table
//! holds event positions only, so building it touches little memory;
//! consumers read the fields they need from the recording.

use ibis_obs::{EventKind, ObsEvent, Recording};
use ibis_simcore::hash::{FxHashMap, FxHashSet};

/// A matched request: the positions of its `IoQueued` and `Completed`
/// events in the recording.
#[derive(Clone, Copy)]
pub(crate) struct Request {
    pub queued: u32,
    pub done: u32,
}

/// The fields of a matched request.
pub(crate) struct Matched {
    pub node: u32,
    pub dev: u8,
    /// The app the request was queued under.
    pub q_app: u32,
    /// The app that completed it.
    pub app: u32,
    pub queued_ns: u64,
    pub dispatched_ns: u64,
}

/// The request lifecycles of a recording.
pub(crate) struct Requests<'a> {
    events: &'a [ObsEvent],
    /// `(node, dev, app, instant)` of every DSFQ delay charge.
    delays: FxHashSet<(u32, u8, u32, u64)>,
    /// Matched requests by queue instant, then completion position.
    pub matched: Vec<Request>,
    /// Positions of unmatched completions, in recording order.
    pub orphans: Vec<u32>,
}

/// The `IoQueued` a slot holds was replaced before it completed.
const UNMATCHED: u32 = u32::MAX;

impl<'a> Requests<'a> {
    /// Matches every request lifecycle of `rec` in one pass.
    pub fn build(rec: &'a Recording) -> Requests<'a> {
        let events = rec.events();
        assert!(
            events.len() < UNMATCHED as usize,
            "event positions fit in u32"
        );
        let mut delays = FxHashSet::default();
        // Queue events in recording order, which is time order.
        let mut matched: Vec<Request> = Vec::new();
        // (node, dev, io) → index into `matched` of the open request.
        let mut open: FxHashMap<(u32, u8, u64), usize> = FxHashMap::default();
        let mut orphans = Vec::new();
        for (pos, ev) in events.iter().enumerate() {
            let (node, dev) = (ev.node, ev.dev);
            match ev.kind {
                EventKind::DelayApplied { app, .. } => {
                    delays.insert((node, dev, app, ev.at.as_nanos()));
                }
                EventKind::IoQueued { io, .. } => {
                    open.insert((node, dev, io), matched.len());
                    matched.push(Request {
                        queued: pos as u32,
                        done: UNMATCHED,
                    });
                }
                EventKind::Completed { io, .. } => match open.remove(&(node, dev, io)) {
                    Some(q) => matched[q].done = pos as u32,
                    None => orphans.push(pos as u32),
                },
                _ => {}
            }
        }
        matched.retain(|r| r.done != UNMATCHED);
        for run in matched
            .chunk_by_mut(|a, b| events[a.queued as usize].at == events[b.queued as usize].at)
        {
            run.sort_unstable_by_key(|r| r.done);
        }
        Requests {
            events,
            delays,
            matched,
            orphans,
        }
    }

    /// True when a DSFQ delay charge landed on `app` at `(node, dev)` at
    /// instant `at`.
    pub fn delayed(&self, node: u32, dev: u8, app: u32, at: u64) -> bool {
        self.delays.contains(&(node, dev, app, at))
    }

    /// The fields of a matched request.
    pub fn fields(&self, r: Request) -> Matched {
        let (q, c) = (
            &self.events[r.queued as usize],
            &self.events[r.done as usize],
        );
        let (
            EventKind::IoQueued { app: q_app, .. },
            EventKind::Completed {
                app, latency_ns, ..
            },
        ) = (q.kind, c.kind)
        else {
            unreachable!("a matched request's positions hold its queue and completion events");
        };
        let queued_ns = q.at.as_nanos();
        Matched {
            node: c.node,
            dev: c.dev,
            q_app,
            app,
            queued_ns,
            dispatched_ns: c.at.as_nanos().saturating_sub(latency_ns).max(queued_ns),
        }
    }

    /// The queue instant of a matched request.
    pub fn queued_ns(&self, r: Request) -> u64 {
        self.events[r.queued as usize].at.as_nanos()
    }

    /// An orphan's completing app and dispatch instant (completion
    /// instant minus device latency).
    pub fn orphan(&self, done: u32) -> (u32, u64) {
        let c = &self.events[done as usize];
        let EventKind::Completed {
            app, latency_ns, ..
        } = c.kind
        else {
            unreachable!("an orphan's position holds its completion event");
        };
        (app, c.at.as_nanos().saturating_sub(latency_ns))
    }
}
