//! Span assembly: turns the flat event recording into per-job span
//! trees (job → tasks → requests).
//!
//! Requests carry only their application id (the tenant flow), so a
//! request is attached to the app's **earliest-arrived job still open**
//! at the instant it was queued — exact for tenant-less jobs (one app
//! per job) and a deterministic convention for multi-job tenants. Within
//! a job, a request is further attached to a task when exactly one of
//! the job's tasks was running on the request's node at queue time.
//! Unmatched opens (ring truncation, in-flight at the cut) are dropped.

use crate::request::Requests;
use ibis_obs::{EventKind, Recording};
use ibis_simcore::hash::FxHashMap;
use std::collections::{BTreeMap, HashMap};

/// One request lifecycle: queue wait `[queued, dispatched)` then device
/// service `[dispatched, completed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// Request id.
    pub io: u64,
    /// Node and device the request ran on.
    pub node: u32,
    /// Device index (0 = HDFS, 1 = scratch).
    pub dev: u8,
    /// Owning application id.
    pub app: u32,
    /// Instant the engine submitted the request to the scheduler.
    pub queued_ns: u64,
    /// Instant the scheduler handed it to the device.
    pub dispatched_ns: u64,
    /// Completion instant.
    pub completed_ns: u64,
    /// Request cost in bytes.
    pub bytes: u64,
    /// True for writes.
    pub write: bool,
    /// True when a DSFQ delay charge landed on this app at the queue
    /// instant (the queue wait includes charged foreign service).
    pub delayed: bool,
    /// Task id the request was attributed to, when unambiguous.
    pub task: Option<u32>,
}

impl RequestSpan {
    /// Queue-wait nanoseconds.
    pub fn queue_ns(&self) -> u64 {
        self.dispatched_ns - self.queued_ns
    }

    /// Device-service nanoseconds.
    pub fn service_ns(&self) -> u64 {
        self.completed_ns - self.dispatched_ns
    }
}

/// One task occupancy span.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// Task id (index, high bit set for reduces).
    pub task: u32,
    /// Node the task ran on.
    pub node: u32,
    /// Slot-grant instant.
    pub start_ns: u64,
    /// Slot-release instant.
    pub end_ns: u64,
}

/// One job's span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTree {
    /// Job id.
    pub job: u32,
    /// Application (flow) id.
    pub app: u32,
    /// Arrival instant.
    pub arrived_ns: u64,
    /// Completion instant.
    pub completed_ns: u64,
    /// Task spans, in start order.
    pub tasks: Vec<TaskSpan>,
    /// Request spans attributed to this job, in queue order.
    pub requests: Vec<RequestSpan>,
}

impl JobTree {
    /// Arrival→completion latency.
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns - self.arrived_ns
    }
}

/// The assembled forest plus the spans that could not be attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanForest {
    /// Completed jobs, sorted by (arrival, job id).
    pub jobs: Vec<JobTree>,
    /// Requests whose app had no open job at queue time.
    pub unattached: Vec<RequestSpan>,
}

/// Assembles the span forest from `rec`.
pub fn build_forest(rec: &Recording) -> SpanForest {
    let requests = Requests::build(rec);
    // Closed task and job lifecycles.
    // Open tasks are keyed by node too: a crash closes the aborted run on
    // its (down) node at the instant the re-run may open on another, and
    // the recording orders same-instant events by node, so the re-run's
    // start can precede the aborted run's finish.
    let mut task_open: FxHashMap<(u32, u32, u32), u64> = FxHashMap::default();
    let mut job_open: FxHashMap<u32, (u64, u32)> = FxHashMap::default();
    // (job, span) of every closed task.
    let mut tasks: Vec<(u32, TaskSpan)> = Vec::new();
    // Completed jobs in completion order, which is time order.
    let mut closed: Vec<JobTree> = Vec::new();
    for ev in rec.events() {
        let (node, t) = (ev.node, ev.at.as_nanos());
        match ev.kind {
            EventKind::TaskStarted { job, task, .. } => {
                task_open.insert((job, task, node), t);
            }
            EventKind::TaskFinished { job, task } => {
                if let Some(start) = task_open.remove(&(job, task, node)) {
                    tasks.push((
                        job,
                        TaskSpan {
                            task,
                            node,
                            start_ns: start,
                            end_ns: t.max(start),
                        },
                    ));
                }
            }
            EventKind::JobArrived { job, app } => {
                job_open.insert(job, (t, app));
            }
            EventKind::JobCompleted { job, app, .. } => {
                if let Some((arrived, _)) = job_open.remove(&job) {
                    closed.push(JobTree {
                        job,
                        app,
                        arrived_ns: arrived,
                        completed_ns: t.max(arrived),
                        tasks: Vec::new(),
                        requests: Vec::new(),
                    });
                }
            }
            _ => {}
        }
    }
    // The forest's order: by (arrival, job id), ties in completion order.
    // `rank[c]` is where the `c`-th completed job lands in it.
    let mut by_arrival: Vec<usize> = (0..closed.len()).collect();
    by_arrival.sort_by_key(|&c| (closed[c].arrived_ns, closed[c].job));
    let mut rank = vec![0; closed.len()];
    for (i, &c) in by_arrival.iter().enumerate() {
        rank[c] = i;
    }
    let mut jobs = closed;
    jobs.sort_by_key(|j| (j.arrived_ns, j.job));

    // Attach tasks by job id.
    let by_job: FxHashMap<u32, usize> = jobs.iter().enumerate().map(|(i, j)| (j.job, i)).collect();
    for (job, span) in tasks {
        if let Some(&i) = by_job.get(&job) {
            jobs[i].tasks.push(span);
        }
    }
    for j in &mut jobs {
        j.tasks.sort_by_key(|t| (t.start_ns, t.task));
    }

    // Attach requests: walk them in queue order, opening jobs as their
    // arrival is reached and closing them once their completion is
    // passed, and keep the open-job set per app ordered by arrival. At
    // one instant, arrivals come before requests and requests before
    // completions: a request queued exactly at arrival belongs to the
    // arriving job, and one queued at completion to the completing job.
    let mut open: FxHashMap<u32, BTreeMap<(u64, u32), usize>> = FxHashMap::default();
    let (mut next_open, mut next_close) = (0, 0);
    let owner: Vec<Option<usize>> = requests
        .matched
        .iter()
        .map(|&r| {
            let m = requests.fields(r);
            while let Some(j) = jobs.get(next_open).filter(|j| j.arrived_ns <= m.queued_ns) {
                open.entry(j.app)
                    .or_default()
                    .insert((j.arrived_ns, j.job), next_open);
                next_open += 1;
            }
            while let Some(j) = rank
                .get(next_close)
                .map(|&i| &jobs[i])
                .filter(|j| j.completed_ns < m.queued_ns)
            {
                open.entry(j.app)
                    .or_default()
                    .remove(&(j.arrived_ns, j.job));
                next_close += 1;
            }
            open.get(&m.app).and_then(|m| m.values().next().copied())
        })
        .collect();
    let mut counts = vec![0; jobs.len()];
    for &j in owner.iter().flatten() {
        counts[j] += 1;
    }
    for (j, n) in jobs.iter_mut().zip(counts) {
        j.requests.reserve_exact(n);
    }
    let mut unattached = Vec::new();
    for (&r, owner) in requests.matched.iter().zip(owner) {
        match owner {
            Some(j) => jobs[j].requests.push(requests.span(r)),
            None => unattached.push(r),
        }
    }
    // Unattached requests go in completion order.
    unattached.sort_unstable_by_key(|r| r.done);
    let unattached = unattached.into_iter().map(|r| requests.span(r)).collect();
    let mut sweep = TaskSweep::default();
    for j in &mut jobs {
        // Queue order, same-instant requests by (node, dev, io); equal
        // keys stay in completion order.
        for run in j.requests.chunk_by_mut(|a, b| a.queued_ns == b.queued_ns) {
            run.sort_by_key(|r| (r.node, r.dev, r.io));
        }
        sweep.attach(j);
    }
    SpanForest { jobs, unattached }
}

/// Task attribution for one job: a request belongs to the unique task of
/// its job that ran on its node at its queue instant
/// (`start_ns <= queued_ns < end_ns`); with two or more such tasks it
/// belongs to none.
///
/// One sweep per job applies the rule without scanning every task per
/// request: requests in queue order, tasks in start order, and per node
/// the small set of tasks started at or before the current request that
/// have not yet ended. A node's set holds exactly the tasks containing
/// the queue instant — a task enters when its start is passed and leaves
/// once its end is, and queue instants only grow — so its size decides
/// the rule. Scratch buffers are reused across jobs.
#[derive(Default)]
struct TaskSweep {
    /// Per node: `(end_ns, task id)` of its running tasks.
    running: Vec<Vec<(u64, u32)>>,
    /// Nodes whose set this job touched (cleared before the next job).
    touched: Vec<u32>,
}

impl TaskSweep {
    fn attach(&mut self, job: &mut JobTree) {
        // `tasks` is in start order, `requests` in queue order.
        let mut next = 0; // first task the sweep has not started
        for r in &mut job.requests {
            while let Some(t) = job.tasks.get(next).filter(|t| t.start_ns <= r.queued_ns) {
                self.start(t);
                next += 1;
            }
            r.task = self.running.get_mut(r.node as usize).and_then(|running| {
                running.retain(|&(end, _)| end > r.queued_ns);
                match running[..] {
                    [(_, task)] => Some(task),
                    _ => None,
                }
            });
        }
        for &n in &self.touched {
            self.running[n as usize].clear();
        }
        self.touched.clear();
    }

    /// Adds `t` to its node's running set.
    fn start(&mut self, t: &TaskSpan) {
        let n = t.node as usize;
        if self.running.len() <= n {
            self.running.resize_with(n + 1, Vec::new);
        }
        if self.running[n].is_empty() {
            self.touched.push(t.node);
        }
        self.running[n].push((t.end_ns, t.task));
    }
}

/// Structural well-formedness over a recording: every opened span is
/// closed, closes follow opens, and request phases are ordered. Returns
/// the number of complete request/task/job lifecycles, or the first
/// defect found. Ring-truncated recordings are rejected by the caller
/// (truncation legitimately orphans opens); requests still open on a
/// node that crashed are exempt — a crash sweeps in-flight I/O, and the
/// replacement request gets a fresh id.
pub fn check_well_formed(rec: &Recording) -> Result<(u64, u64, u64), String> {
    let mut crashed: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for ev in rec.events() {
        if let EventKind::FaultInjected { kind: 3, .. } = ev.kind {
            crashed.insert(ev.node);
        }
    }
    let mut req_open: HashMap<(u32, u8, u64), u64> = HashMap::new();
    // Keyed by node as in `build_forest`: a crash re-run may open on
    // another node before the aborted run's finish in recording order.
    let mut task_open: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let mut job_open: HashMap<u32, u64> = HashMap::new();
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
                let reopened = task_open.insert((job, task, node), t).is_some();
                if reopened {
                    return Err(format!(
                        "task {task} of job {job} started twice on node {node}"
                    ));
                }
            }
            EventKind::TaskFinished { job, task } => match task_open.remove(&(job, task, node)) {
                None => {
                    return Err(format!(
                        "task {task} of job {job} finished unopened on node {node}"
                    ))
                }
                Some(s) => {
                    if t < s {
                        return Err(format!("task {task} of job {job} ends before start"));
                    }
                    tasks += 1;
                }
            },
            EventKind::JobArrived { job, .. } => {
                let reopened = job_open.insert(job, t).is_some();
                if reopened {
                    return Err(format!("job {job} arrived twice"));
                }
            }
            EventKind::JobCompleted { job, .. } => match job_open.remove(&job) {
                None => return Err(format!("job {job} completed unopened")),
                Some(s) => {
                    if t < s {
                        return Err(format!("job {job} completes before arrival"));
                    }
                    jobs += 1;
                }
            },
            _ => {}
        }
    }
    if let Some((&(node, dev, io), _)) =
        req_open.iter().find(|((node, _, _), _)| !crashed.contains(node))
    {
        return Err(format!("io {io} on node {node} dev {dev} never completed"));
    }
    if let Some((&(job, task, node), _)) = task_open.iter().next() {
        return Err(format!(
            "task {task} of job {job} on node {node} never finished"
        ));
    }
    if let Some((&job, _)) = job_open.iter().next() {
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
        rec.record(ev(10, 1, 0, EventKind::TaskStarted { job: 1, task: 0, app: 1 }));
        rec.record(ev(20, 1, 0, EventKind::IoQueued { io: 5, app: 1, bytes: 64, write: false }));
        rec.record(ev(120, 1, 0, EventKind::Completed {
            io: 5,
            app: 1,
            bytes: 64,
            write: false,
            latency_ns: 60,
        }));
        rec.record(ev(150, 1, 0, EventKind::TaskFinished { job: 1, task: 0 }));
        rec.record(ev(200, 0, 0, EventKind::JobCompleted { job: 1, app: 1, latency_ns: 200 }));
        rec.finish(RecordingMeta {
            weights: vec![(1, 1.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 2,
            rack_size: 0,
        })
    }

    #[test]
    fn builds_job_task_request_tree() {
        let forest = build_forest(&sample());
        assert_eq!(forest.jobs.len(), 1);
        assert!(forest.unattached.is_empty());
        let j = &forest.jobs[0];
        assert_eq!(j.latency_ns(), 200);
        assert_eq!(j.tasks.len(), 1);
        assert_eq!(j.requests.len(), 1);
        let r = &j.requests[0];
        assert_eq!(r.queue_ns(), 40); // dispatched at 120−60=60, queued 20
        assert_eq!(r.service_ns(), 60);
        assert_eq!(r.task, Some(0)); // unique running task on node 1
    }

    #[test]
    fn well_formedness_accepts_sample_and_rejects_orphans() {
        assert_eq!(check_well_formed(&sample()), Ok((1, 1, 1)));
        let mut rec = FlightRecorder::new(1, 8);
        rec.record(ev(5, 0, 0, EventKind::TaskStarted { job: 9, task: 3, app: 1 }));
        let r = rec.finish(RecordingMeta::default());
        assert!(check_well_formed(&r).is_err());
    }

    /// A crash on node 2 at 7 s aborts task 1 of job 7 there, and the
    /// re-run starts on node 0 at the same instant. `finish` orders
    /// same-instant events by node, so the re-run's start precedes the
    /// aborted run's finish: both spans must survive.
    #[test]
    fn crash_rerun_on_a_lower_node_keeps_both_task_spans() {
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
            EventKind::FaultInjected { kind: 3, detail: 0 },
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

        let forest = build_forest(&rec);
        let spans: Vec<(u32, u64, u64)> = forest.jobs[0]
            .tasks
            .iter()
            .map(|t| (t.node, t.start_ns, t.end_ns))
            .collect();
        assert_eq!(
            spans,
            [(2, 5_620_000_000, 7 * S), (0, 7 * S, 12_560_000_000)]
        );
        assert_eq!(check_well_formed(&rec), Ok((0, 2, 1)));
    }

    /// The task rule as a per-request scan over every task of the job.
    fn scan_task(job: &JobTree, r: &RequestSpan) -> Option<u32> {
        let mut hits = job
            .tasks
            .iter()
            .filter(|t| t.node == r.node && t.start_ns <= r.queued_ns && r.queued_ns < t.end_ns)
            .map(|t| t.task);
        match (hits.next(), hits.next()) {
            (Some(t), None) => Some(t),
            _ => None,
        }
    }

    #[test]
    fn task_sweep_matches_the_per_request_scan() {
        let mut rec = FlightRecorder::new(3, 256);
        let mut io = 0;
        let mut req = |rec: &mut FlightRecorder, node: u32, app: u32, q: u64| {
            io += 1;
            rec.record(ev(
                q,
                node,
                0,
                EventKind::IoQueued {
                    io,
                    app,
                    bytes: 1,
                    write: false,
                },
            ));
            rec.record(ev(
                q + 1,
                node,
                0,
                EventKind::Completed {
                    io,
                    app,
                    bytes: 1,
                    write: false,
                    latency_ns: 1,
                },
            ));
        };
        let start = |rec: &mut FlightRecorder, node: u32, task: u32, at: u64| {
            rec.record(ev(
                at,
                node,
                0,
                EventKind::TaskStarted {
                    job: 1,
                    task,
                    app: 1,
                },
            ));
        };
        let finish = |rec: &mut FlightRecorder, node: u32, task: u32, at: u64| {
            rec.record(ev(at, node, 0, EventKind::TaskFinished { job: 1, task }));
        };
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 1 }));
        // Node 0: tasks 0 [10, 100) and 1 [50, 150) overlap on [50, 100).
        start(&mut rec, 0, 0, 10);
        start(&mut rec, 0, 1, 50);
        finish(&mut rec, 0, 0, 100);
        finish(&mut rec, 0, 1, 150);
        // Node 1: task 2 [10, 60).
        start(&mut rec, 1, 2, 10);
        finish(&mut rec, 1, 2, 60);
        // Node 2: task 3 aborted by a crash at 40 and re-run on [70, 90).
        start(&mut rec, 2, 3, 20);
        rec.record(ev(
            40,
            2,
            0,
            EventKind::FaultInjected { kind: 3, detail: 0 },
        ));
        finish(&mut rec, 2, 3, 40);
        start(&mut rec, 2, 3, 70);
        finish(&mut rec, 2, 3, 90);
        // Queue instants before, at and inside every start and end.
        for q in [5, 10, 49, 50, 99, 100, 149, 150] {
            req(&mut rec, 0, 1, q);
        }
        for q in [10, 59, 60] {
            req(&mut rec, 1, 1, q);
        }
        for q in [20, 39, 40, 70, 89, 90] {
            req(&mut rec, 2, 1, q);
        }
        // App 9 has no job: unattached.
        req(&mut rec, 0, 9, 60);
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
        let forest = build_forest(&rec.finish(RecordingMeta::default()));

        let job = &forest.jobs[0];
        let got: Vec<(u32, u64, Option<u32>)> = job
            .requests
            .iter()
            .map(|r| (r.node, r.queued_ns, r.task))
            .collect();
        let expect = [
            (0, 5, None),
            (0, 10, Some(0)),
            (0, 49, Some(0)),
            (0, 50, None),
            (0, 99, None),
            (0, 100, Some(1)),
            (0, 149, Some(1)),
            (0, 150, None),
            (1, 10, Some(2)),
            (1, 59, Some(2)),
            (1, 60, None),
            (2, 20, Some(3)),
            (2, 39, Some(3)),
            (2, 40, None),
            (2, 70, Some(3)),
            (2, 89, Some(3)),
            (2, 90, None),
        ];
        let mut sorted = got.clone();
        sorted.sort_by_key(|&(n, q, _)| (q, n));
        assert_eq!(sorted, got, "requests stay in queue order");
        let mut by_node = got;
        by_node.sort_by_key(|&(n, q, _)| (n, q));
        assert_eq!(by_node, expect);
        for r in &job.requests {
            assert_eq!(
                r.task,
                scan_task(job, r),
                "request at {} on node {}",
                r.queued_ns,
                r.node
            );
        }
        assert_eq!(forest.unattached.len(), 1);
        assert_eq!(
            (forest.unattached[0].app, forest.unattached[0].task),
            (9, None)
        );
    }

    #[test]
    fn requests_attach_to_earliest_open_job() {
        let mut rec = FlightRecorder::new(1, 64);
        rec.record(ev(0, 0, 0, EventKind::JobArrived { job: 1, app: 7 }));
        rec.record(ev(50, 0, 0, EventKind::JobArrived { job: 2, app: 7 }));
        rec.record(ev(60, 0, 0, EventKind::IoQueued { io: 1, app: 7, bytes: 1, write: false }));
        rec.record(ev(80, 0, 0, EventKind::Completed {
            io: 1,
            app: 7,
            bytes: 1,
            write: false,
            latency_ns: 10,
        }));
        rec.record(ev(100, 0, 0, EventKind::JobCompleted { job: 1, app: 7, latency_ns: 100 }));
        rec.record(ev(150, 0, 0, EventKind::JobCompleted { job: 2, app: 7, latency_ns: 100 }));
        let forest = build_forest(&rec.finish(RecordingMeta::default()));
        assert_eq!(forest.jobs[0].job, 1);
        assert_eq!(forest.jobs[0].requests.len(), 1);
        assert!(forest.jobs[1].requests.is_empty());
    }
}
