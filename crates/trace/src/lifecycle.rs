//! The lifecycle check: every request, task and job a recording opens
//! is closed once, after it was opened.
//!
//! A request opens at its `IoQueued` and closes at the `Completed` with
//! the same `(node, dev, io)`; a task opens at `TaskStarted` and closes
//! at the `TaskFinished` on the same node; a job opens at `JobArrived`
//! and closes at `JobCompleted`.

use ibis_obs::{fault, EventKind, Recording};
use std::collections::{HashMap, HashSet};

/// Structural well-formedness over a recording: every opened span is
/// closed, closes follow opens, and request phases are ordered. A
/// recording is in time order, so a close stamped before its open is
/// read first and rejected as unopened. Returns the number of complete
/// request/task/job lifecycles, or the first defect found. Ring-truncated recordings are rejected by the caller
/// (truncation legitimately orphans opens); requests still open on a
/// node that crashed are exempt — a crash sweeps in-flight I/O, and the
/// replacement request gets a fresh id.
pub fn check_well_formed(rec: &Recording) -> Result<(u64, u64, u64), String> {
    let mut crashed: HashSet<u32> = HashSet::new();
    for ev in rec.events() {
        if let EventKind::FaultInjected {
            kind: fault::NODE_CRASH,
            ..
        } = ev.kind
        {
            crashed.insert(ev.node);
        }
    }
    let mut req_open: HashMap<(u32, u8, u64), u64> = HashMap::new();
    // Keyed by node: a crash re-run may open on another node before the
    // aborted run's finish in recording order.
    let mut task_open: HashSet<(u32, u32, u32)> = HashSet::new();
    let mut job_open: HashSet<u32> = HashSet::new();
    let (mut reqs, mut tasks, mut jobs) = (0u64, 0u64, 0u64);
    for ev in rec.events() {
        let (node, dev, t) = (ev.node, ev.dev, ev.at.as_nanos());
        match ev.kind {
            EventKind::IoQueued { io, .. } => {
                let reopened = req_open.insert((node, dev, io), t).is_some();
                if reopened && !crashed.contains(&node) {
                    return Err(format!("io {io} queued twice on node {node} dev {dev}"));
                }
            }
            EventKind::Completed { io, latency_ns, .. } => {
                match req_open.remove(&(node, dev, io)) {
                    None => {
                        if !crashed.contains(&node) {
                            return Err(format!("io {io} completed without queue on node {node}"));
                        }
                    }
                    Some(q) => {
                        let dispatch = t.saturating_sub(latency_ns);
                        if dispatch < q {
                            return Err(format!(
                                "io {io} dispatched at {dispatch} before queued at {q}"
                            ));
                        }
                        reqs += 1;
                    }
                }
            }
            EventKind::TaskStarted { job, task, .. } => {
                let reopened = !task_open.insert((job, task, node));
                if reopened {
                    return Err(format!(
                        "task {task} of job {job} started twice on node {node}"
                    ));
                }
            }
            EventKind::TaskFinished { job, task } => {
                if !task_open.remove(&(job, task, node)) {
                    return Err(format!(
                        "task {task} of job {job} finished unopened on node {node}"
                    ));
                }
                tasks += 1;
            }
            EventKind::JobArrived { job, .. } => {
                let reopened = !job_open.insert(job);
                if reopened {
                    return Err(format!("job {job} arrived twice"));
                }
            }
            EventKind::JobCompleted { job, .. } => {
                if !job_open.remove(&job) {
                    return Err(format!("job {job} completed unopened"));
                }
                jobs += 1;
            }
            _ => {}
        }
    }
    if let Some((&(node, dev, io), _)) = req_open
        .iter()
        .find(|((node, _, _), _)| !crashed.contains(node))
    {
        return Err(format!("io {io} on node {node} dev {dev} never completed"));
    }
    if let Some(&(job, task, node)) = task_open.iter().next() {
        return Err(format!(
            "task {task} of job {job} on node {node} never finished"
        ));
    }
    if let Some(&job) = job_open.iter().next() {
        return Err(format!("job {job} never completed"));
    }
    Ok((reqs, tasks, jobs))
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

    fn sample() -> Recording {
        let mut rec = FlightRecorder::new(2, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        rec.record(ev(
            10,
            1,
            0,
            EventKind::TaskStarted {
                job: 1,
                task: 0,
                app: 1,
            },
        ));
        rec.record(ev(
            20,
            1,
            0,
            EventKind::IoQueued {
                io: 5,
                app: 1,
                bytes: 64,
                write: false,
            },
        ));
        rec.record(ev(
            120,
            1,
            0,
            EventKind::Completed {
                io: 5,
                app: 1,
                bytes: 64,
                write: false,
                latency_ns: 60,
            },
        ));
        rec.record(ev(150, 1, 0, EventKind::TaskFinished { job: 1, task: 0 }));
        rec.record(ev(
            200,
            0,
            0,
            EventKind::JobCompleted {
                job: 1,
                app: 1,
                latency_ns: 200,
            },
        ));
        rec.finish(RecordingMeta {
            weights: vec![(1, 1.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 2,
            rack_size: 0,
        })
    }

    #[test]
    fn well_formedness_accepts_sample_and_rejects_orphans() {
        assert_eq!(check_well_formed(&sample()), Ok((1, 1, 1)));
        let mut rec = FlightRecorder::new(1, 8);
        rec.record(ev(
            5,
            0,
            0,
            EventKind::TaskStarted {
                job: 9,
                task: 3,
                app: 1,
            },
        ));
        let r = rec.finish(RecordingMeta::default());
        assert!(check_well_formed(&r).is_err());
    }

    /// One hand-built recording per defect the check looks for, each
    /// rejected with that defect's message, and the crash exemptions,
    /// which hold only on the crashed node.
    #[test]
    fn rejects_every_defect_it_checks_for() {
        const QUEUED: EventKind = EventKind::IoQueued {
            io: 1,
            app: 1,
            bytes: 64,
            write: false,
        };
        const fn done(latency_ns: u64) -> EventKind {
            EventKind::Completed {
                io: 1,
                app: 1,
                bytes: 64,
                write: false,
                latency_ns,
            }
        }
        const STARTED: EventKind = EventKind::TaskStarted {
            job: 1,
            task: 0,
            app: 1,
        };
        const FINISHED: EventKind = EventKind::TaskFinished { job: 1, task: 0 };
        const ARRIVED: EventKind = EventKind::JobArrived { job: 1, app: 1 };
        const COMPLETED: EventKind = EventKind::JobCompleted {
            job: 1,
            app: 1,
            latency_ns: 0,
        };
        const CRASH: EventKind = EventKind::FaultInjected {
            kind: fault::NODE_CRASH,
            detail: 0,
        };
        /// A case's name, its events as `(instant, node, kind)`, and the
        /// lifecycle counts or the error it must give.
        type Case<'a> = (
            &'a str,
            &'a [(u64, u32, EventKind)],
            Result<(u64, u64, u64), &'a str>,
        );
        // The recording is in time order, so a close stamped before its
        // open comes first and is rejected as unopened.
        let cases: [Case<'_>; 16] = [
            (
                "io queued twice",
                &[(10, 1, QUEUED), (20, 1, QUEUED), (30, 1, done(5))],
                Err("io 1 queued twice"),
            ),
            (
                "io completed without a queue event",
                &[(30, 1, done(5))],
                Err("io 1 completed without queue"),
            ),
            (
                "io dispatched before it was queued",
                &[(20, 1, QUEUED), (30, 1, done(15))],
                Err("io 1 dispatched at 15 before queued at 20"),
            ),
            (
                "task started twice",
                &[(10, 1, STARTED), (20, 1, STARTED), (30, 1, FINISHED)],
                Err("task 0 of job 1 started twice"),
            ),
            (
                "task finished without a start",
                &[(30, 1, FINISHED)],
                Err("task 0 of job 1 finished unopened"),
            ),
            (
                "task ending before its start",
                &[(50, 1, STARTED), (40, 1, FINISHED)],
                Err("task 0 of job 1 finished unopened"),
            ),
            (
                "job arriving twice",
                &[(0, 0, ARRIVED), (10, 0, ARRIVED), (20, 0, COMPLETED)],
                Err("job 1 arrived twice"),
            ),
            (
                "job completed without an arrival",
                &[(20, 0, COMPLETED)],
                Err("job 1 completed unopened"),
            ),
            (
                "job completing before it arrived",
                &[(50, 0, ARRIVED), (40, 0, COMPLETED)],
                Err("job 1 completed unopened"),
            ),
            (
                "io that never completes",
                &[(10, 1, QUEUED)],
                Err("io 1 on node 1 dev 0 never completed"),
            ),
            (
                "task that never finishes",
                &[(10, 1, STARTED)],
                Err("task 0 of job 1 on node 1 never finished"),
            ),
            (
                "job that never completes",
                &[(0, 0, ARRIVED)],
                Err("job 1 never completed"),
            ),
            (
                "io re-queued on a crashed node",
                &[
                    (5, 1, CRASH),
                    (10, 1, QUEUED),
                    (20, 1, QUEUED),
                    (30, 1, done(5)),
                ],
                Ok((1, 0, 0)),
            ),
            (
                "io completed without a queue event on a crashed node",
                &[(5, 1, CRASH), (30, 1, done(5))],
                Ok((0, 0, 0)),
            ),
            (
                "io in flight on a crashed node",
                &[(5, 1, CRASH), (10, 1, QUEUED)],
                Ok((0, 0, 0)),
            ),
            (
                "io in flight on a node that did not crash",
                &[(5, 1, CRASH), (10, 0, QUEUED)],
                Err("io 1 on node 0 dev 0 never completed"),
            ),
        ];
        for (name, events, expect) in cases {
            let mut rec = FlightRecorder::new(2, 64);
            for &(at, node, kind) in events {
                rec.record(ev(at, node, 0, kind));
            }
            let got = check_well_formed(&rec.finish(RecordingMeta::default()));
            let ok = match (&got, expect) {
                (Ok(counts), Ok(want)) => *counts == want,
                (Err(e), Err(want)) => e.contains(want),
                _ => false,
            };
            assert!(ok, "{name}: got {got:?}, expected {expect:?}");
        }
    }

    /// A crash on node 2 at 7 s aborts task 1 of job 7 there, and the
    /// re-run starts on node 0 at the same instant. `finish` orders
    /// same-instant events by node, so the re-run's start precedes the
    /// aborted run's finish: both runs must close.
    #[test]
    fn crash_rerun_on_a_lower_node_is_well_formed() {
        const S: u64 = 1_000_000_000;
        let mut rec = FlightRecorder::new(3, 64);
        rec.record(ev(5 * S, 0, 0, EventKind::JobArrived { job: 7, app: 3 }));
        rec.record(ev(
            5_620_000_000,
            2,
            0,
            EventKind::TaskStarted {
                job: 7,
                task: 1,
                app: 3,
            },
        ));
        rec.record(ev(
            7 * S,
            2,
            0,
            EventKind::FaultInjected {
                kind: fault::NODE_CRASH,
                detail: 0,
            },
        ));
        rec.record(ev(7 * S, 2, 0, EventKind::TaskFinished { job: 7, task: 1 }));
        rec.record(ev(
            7 * S,
            0,
            0,
            EventKind::TaskStarted {
                job: 7,
                task: 1,
                app: 3,
            },
        ));
        rec.record(ev(
            12_560_000_000,
            0,
            0,
            EventKind::TaskFinished { job: 7, task: 1 },
        ));
        rec.record(ev(
            13 * S,
            0,
            0,
            EventKind::JobCompleted {
                job: 7,
                app: 3,
                latency_ns: 8 * S,
            },
        ));
        let rec = rec.finish(RecordingMeta::default());
        // The recording order really puts the re-run's start first.
        let order: Vec<(u32, bool)> = rec
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskStarted { .. } => Some((e.node, true)),
                EventKind::TaskFinished { .. } => Some((e.node, false)),
                _ => None,
            })
            .collect();
        assert_eq!(order, [(2, true), (0, true), (2, false), (0, false)]);
        assert_eq!(check_well_formed(&rec), Ok((0, 2, 1)));
    }
}
