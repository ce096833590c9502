//! Chrome `trace_event` exporter.
//!
//! Converts a [`Recording`] into the JSON consumed by `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev): each node becomes a process,
//! each application a thread lane of request slices, with the SFQ(D2)
//! depth and broker totals as counter tracks and delay charges / block
//! placements as instant markers. Request lifecycles additionally render
//! as real duration (`ph:"B"/"E"`) span pairs — queue wait then device
//! service — on per-node request lanes, with `s`/`f` flow arrows linking
//! each dispatch to its completion slice; task occupancy renders the same
//! way on task lanes. The format needs no external crates — events are
//! flat objects with numeric and short string fields.

use crate::event::EventKind;
use crate::recorder::Recording;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// First request-lane `tid` (clear of real application ids).
const REQ_TID_BASE: u32 = 1_000_000;

/// First task-lane `tid`.
const TASK_TID_BASE: u32 = 2_000_000;

/// A closed interval destined for a lane: `[start, end)` with the span
/// midpoint (`dispatch` for requests) and identifying payload.
struct SpanRow {
    start: u64,
    mid: u64,
    end: u64,
    io: u64,
    app: u32,
    dev: u8,
    bytes: u64,
    write: bool,
}

/// Greedy interval-graph coloring: assigns each row (sorted by start) the
/// lowest-numbered lane whose previous occupant has already ended, so
/// spans sharing a lane never overlap and `B`/`E` pairs nest correctly.
/// Returns `(lane, row)` pairs plus the number of lanes used.
fn assign_lanes(mut rows: Vec<SpanRow>) -> (Vec<(u32, SpanRow)>, u32) {
    rows.sort_unstable_by_key(|r| (r.start, r.io));
    let mut lane_ends: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let lane = match lane_ends.iter().position(|&end| end <= row.start) {
            Some(i) => i,
            None => {
                lane_ends.push(0);
                lane_ends.len() - 1
            }
        };
        lane_ends[lane] = row.end.max(row.start + 1);
        out.push((lane as u32, row));
    }
    (out, lane_ends.len() as u32)
}

/// Microseconds (Chrome's `ts` unit) from simulator nanoseconds.
fn us(nanos: u64) -> f64 {
    nanos as f64 / 1_000.0
}

/// Device index → human label for track names.
fn dev_name(dev: u8) -> &'static str {
    match dev {
        0 => "hdfs",
        1 => "scratch",
        _ => "dev?",
    }
}

/// Renders `rec` as a Chrome `trace_event` JSON document.
///
/// Layout:
/// * process `pid = node`, named `node<N>`;
/// * thread `tid = app` inside each process, named `app<A> (w=<weight>)`,
///   carrying one `X` (complete) slice per finished request spanning its
///   device service time;
/// * `C` (counter) tracks `depth/<dev>` for SFQ(D2) depth changes and
///   `broker/<dev>/app<A>` for applied cluster-total syncs;
/// * `i` (instant) markers for DSFQ delay charges and namenode block
///   placements.
pub fn export(rec: &Recording) -> String {
    let mut out = String::with_capacity(128 + rec.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };

    // Metadata: name the process/thread lanes up front.
    let mut lanes: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in rec.events() {
        let app = match ev.kind {
            EventKind::RequestTagged { app, .. }
            | EventKind::DelayApplied { app, .. }
            | EventKind::Dispatched { app, .. }
            | EventKind::Completed { app, .. }
            | EventKind::BrokerSync { app, .. }
            | EventKind::IoQueued { app, .. }
            | EventKind::TaskStarted { app, .. }
            | EventKind::JobArrived { app, .. }
            | EventKind::JobCompleted { app, .. } => Some(app),
            EventKind::DepthAdjusted { .. }
            | EventKind::BlockPlaced { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::DegradedEnter { .. }
            | EventKind::DegradedExit { .. }
            | EventKind::TaskFinished { .. }
            | EventKind::ReportRetry { .. } => None,
        };
        if let Some(app) = app {
            lanes.insert((ev.node, app));
        }
    }
    let nodes: BTreeSet<u32> = lanes.iter().map(|&(n, _)| n).collect();
    for &node in &nodes {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
             \"args\":{{\"name\":\"node{node}\"}}}}"
        );
    }
    for &(node, app) in &lanes {
        sep(&mut out);
        let w = rec.meta.weight_of(app);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":{app},\
             \"args\":{{\"name\":\"app{app} (w={w})\"}}}}"
        );
    }

    // Request lifecycles: match each queue-open event (IoQueued, or
    // RequestTagged for recordings predating it) with its Completed; the
    // dispatch instant is completion minus device latency. Tasks match
    // TaskStarted with TaskFinished on (job, task). Unmatched opens
    // (ring-truncated or still in flight at the cut) are dropped.
    let mut req_open: BTreeMap<(u32, u8, u64), (u64, u32)> = BTreeMap::new();
    let mut task_open: BTreeMap<(u32, u64), (u64, u32)> = BTreeMap::new();
    let mut req_rows: BTreeMap<u32, Vec<SpanRow>> = BTreeMap::new();
    let mut task_rows: BTreeMap<u32, Vec<SpanRow>> = BTreeMap::new();
    for ev in rec.events() {
        let (node, dev, t) = (ev.node, ev.dev, ev.at.as_nanos());
        match ev.kind {
            EventKind::IoQueued { io, app, .. } | EventKind::RequestTagged { io, app, .. } => {
                req_open.entry((node, dev, io)).or_insert((t, app));
            }
            EventKind::Completed {
                io,
                app,
                bytes,
                write,
                latency_ns,
            } => {
                if let Some((start, _)) = req_open.remove(&(node, dev, io)) {
                    let mid = t.saturating_sub(latency_ns).max(start);
                    req_rows.entry(node).or_default().push(SpanRow {
                        start,
                        mid,
                        end: t.max(mid),
                        io,
                        app,
                        dev,
                        bytes,
                        write,
                    });
                }
            }
            EventKind::TaskStarted { job, task, app } => {
                let key = (node, (u64::from(job) << 32) | u64::from(task));
                task_open.entry(key).or_insert((t, app));
            }
            EventKind::TaskFinished { job, task } => {
                let id = (u64::from(job) << 32) | u64::from(task);
                if let Some((start, app)) = task_open.remove(&(node, id)) {
                    task_rows.entry(node).or_default().push(SpanRow {
                        start,
                        mid: start,
                        end: t.max(start),
                        io: id,
                        app,
                        dev: 0,
                        bytes: 0,
                        write: false,
                    });
                }
            }
            _ => {}
        }
    }
    for (node, rows) in req_rows {
        let (placed, lanes_used) = assign_lanes(rows);
        for lane in 0..lanes_used {
            sep(&mut out);
            let tid = REQ_TID_BASE + lane;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\
                 \"args\":{{\"name\":\"io lane {lane}\"}}}}"
            );
        }
        for (lane, r) in placed {
            let tid = REQ_TID_BASE + lane;
            let op = if r.write { "write" } else { "read" };
            let (io, app, bytes, dev) = (r.io, r.app, r.bytes, dev_name(r.dev));
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"queue\",\"cat\":\"io,{dev}\",\"ph\":\"B\",\"ts\":{},\
                 \"pid\":{node},\"tid\":{tid},\"args\":{{\"io\":{io},\"app\":{app},\
                 \"bytes\":{bytes},\"op\":\"{op}\"}}}}",
                us(r.start),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"queue\",\"ph\":\"E\",\"ts\":{},\"pid\":{node},\"tid\":{tid}}}",
                us(r.mid),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"service\",\"cat\":\"io,{dev}\",\"ph\":\"B\",\"ts\":{},\
                 \"pid\":{node},\"tid\":{tid},\"args\":{{\"io\":{io},\"app\":{app}}}}}",
                us(r.mid),
            );
            // Flow arrow: dispatch on the request lane → completion slice
            // on the app lane (Dispatched → Completed causality).
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"io\",\"cat\":\"io\",\"ph\":\"s\",\"id\":{io},\"ts\":{},\
                 \"pid\":{node},\"tid\":{tid}}}",
                us(r.mid),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"io\",\"cat\":\"io\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{io},\
                 \"ts\":{},\"pid\":{node},\"tid\":{app}}}",
                us(r.end),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"service\",\"ph\":\"E\",\"ts\":{},\"pid\":{node},\"tid\":{tid}}}",
                us(r.end),
            );
        }
    }
    for (node, rows) in task_rows {
        let (placed, lanes_used) = assign_lanes(rows);
        for lane in 0..lanes_used {
            sep(&mut out);
            let tid = TASK_TID_BASE + lane;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\
                 \"args\":{{\"name\":\"task lane {lane}\"}}}}"
            );
        }
        for (lane, r) in placed {
            let tid = TASK_TID_BASE + lane;
            let (job, task) = ((r.io >> 32) as u32, r.io as u32);
            let kind = if task & 0x8000_0000 != 0 {
                "reduce"
            } else {
                "map"
            };
            let idx = task & 0x7fff_ffff;
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"job{job} {kind}{idx}\",\"cat\":\"tasks\",\"ph\":\"B\",\
                 \"ts\":{},\"pid\":{node},\"tid\":{tid},\"args\":{{\"job\":{job},\
                 \"app\":{}}}}}",
                us(r.start),
                r.app,
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"job{job} {kind}{idx}\",\"ph\":\"E\",\"ts\":{},\
                 \"pid\":{node},\"tid\":{tid}}}",
                us(r.end),
            );
        }
    }

    for ev in rec.events() {
        let (node, dev, t) = (ev.node, ev.dev, ev.at.as_nanos());
        match ev.kind {
            EventKind::Completed {
                io,
                app,
                bytes,
                write,
                latency_ns,
            } => {
                let start = t.saturating_sub(latency_ns);
                let op = if write { "write" } else { "read" };
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"{op}\",\"cat\":\"io,{}\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":{node},\"tid\":{app},\
                     \"args\":{{\"io\":{io},\"bytes\":{bytes},\"dev\":\"{}\"}}}}",
                    dev_name(dev),
                    us(start),
                    us(latency_ns),
                    dev_name(dev),
                );
            }
            EventKind::DepthAdjusted { depth } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"depth/{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{node},\
                     \"tid\":0,\"args\":{{\"D\":{depth}}}}}",
                    dev_name(dev),
                    us(t),
                );
            }
            EventKind::BrokerSync { app, total } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"broker/{}/app{app}\",\"ph\":\"C\",\"ts\":{},\
                     \"pid\":{node},\"tid\":0,\"args\":{{\"total_bytes\":{total}}}}}",
                    dev_name(dev),
                    us(t),
                );
            }
            EventKind::DelayApplied { app, delay } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"dsfq delay\",\"cat\":\"fairness\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{},\"pid\":{node},\"tid\":{app},\
                     \"args\":{{\"delay_bytes\":{delay},\"dev\":\"{}\"}}}}",
                    us(t),
                    dev_name(dev),
                );
            }
            EventKind::BlockPlaced {
                block,
                primary,
                replicas,
            } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"block placed\",\"cat\":\"dfs\",\"ph\":\"i\",\
                     \"s\":\"g\",\"ts\":{},\"pid\":{node},\"tid\":0,\
                     \"args\":{{\"block\":{block},\"primary\":{primary},\
                     \"replicas\":{replicas}}}}}",
                    us(t),
                );
            }
            EventKind::FaultInjected { kind, detail } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"fault injected\",\"cat\":\"faults\",\"ph\":\"i\",\
                     \"s\":\"g\",\"ts\":{},\"pid\":{node},\"tid\":0,\
                     \"args\":{{\"kind\":{kind},\"detail\":{detail},\"dev\":\"{}\"}}}}",
                    us(t),
                    dev_name(dev),
                );
            }
            EventKind::DegradedEnter { age_ns } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"degraded/{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{node},\
                     \"tid\":0,\"args\":{{\"degraded\":1,\"age_ns\":{age_ns}}}}}",
                    dev_name(dev),
                    us(t),
                );
            }
            EventKind::DegradedExit { dark_ns } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"degraded/{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{node},\
                     \"tid\":0,\"args\":{{\"degraded\":0,\"dark_ns\":{dark_ns}}}}}",
                    dev_name(dev),
                    us(t),
                );
            }
            EventKind::ReportRetry { attempt } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"report retry\",\"cat\":\"faults\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{},\"pid\":{node},\"tid\":0,\
                     \"args\":{{\"attempt\":{attempt},\"dev\":\"{}\"}}}}",
                    us(t),
                    dev_name(dev),
                );
            }
            EventKind::JobArrived { job, app } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"job{job} arrived\",\"cat\":\"jobs\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{},\"pid\":{node},\"tid\":{app},\
                     \"args\":{{\"job\":{job}}}}}",
                    us(t),
                );
            }
            EventKind::JobCompleted {
                job,
                app,
                latency_ns,
            } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"job{job} completed\",\"cat\":\"jobs\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{},\"pid\":{node},\"tid\":{app},\
                     \"args\":{{\"job\":{job},\"latency_ms\":{}}}}}",
                    us(t),
                    latency_ns as f64 / 1e6,
                );
            }
            // Lifecycle events were already folded into the B/E span
            // pairs above; the tag/dispatch detail stays in the recording
            // for the auditor.
            EventKind::RequestTagged { .. }
            | EventKind::Dispatched { .. }
            | EventKind::IoQueued { .. }
            | EventKind::TaskStarted { .. }
            | EventKind::TaskFinished { .. } => {}
        }
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;
    use crate::recorder::{FlightRecorder, RecordingMeta};
    use ibis_simcore::SimTime;

    fn sample_recording() -> Recording {
        let mut rec = FlightRecorder::new(2, 64);
        let mut push = |at: u64, node: u32, dev: u8, kind: EventKind| {
            rec.record(ObsEvent {
                at: SimTime::from_nanos(at),
                node,
                dev,
                kind,
            });
        };
        push(
            100,
            0,
            0,
            EventKind::IoQueued {
                io: 1,
                app: 7,
                bytes: 4096,
                write: false,
            },
        );
        push(
            2_000,
            0,
            0,
            EventKind::Completed {
                io: 1,
                app: 7,
                bytes: 4096,
                write: false,
                latency_ns: 1_500,
            },
        );
        push(
            200,
            1,
            0,
            EventKind::TaskStarted {
                job: 3,
                task: 0x8000_0001,
                app: 7,
            },
        );
        push(
            900,
            1,
            0,
            EventKind::TaskFinished {
                job: 3,
                task: 0x8000_0001,
            },
        );
        push(3_000, 0, 1, EventKind::DepthAdjusted { depth: 6 });
        push(4_000, 1, 0, EventKind::BrokerSync { app: 7, total: 999 });
        push(5_000, 1, 0, EventKind::DelayApplied { app: 7, delay: 123 });
        push(
            6_000,
            0,
            0,
            EventKind::BlockPlaced {
                block: 42,
                primary: 1,
                replicas: 3,
            },
        );
        rec.finish(RecordingMeta {
            weights: vec![(7, 32.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 2,
            rack_size: 0,
        })
    }

    #[test]
    fn exports_every_event_class() {
        let json = export(&sample_recording());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"depth/scratch\""));
        assert!(json.contains("\"name\":\"broker/hdfs/app7\""));
        assert!(json.contains("\"name\":\"dsfq delay\""));
        assert!(json.contains("\"name\":\"block placed\""));
        assert!(json.contains("app7 (w=32)"));
        // Slice starts at completion minus latency: (2000 − 1500) ns = 0.5 µs.
        assert!(json.contains("\"ts\":0.5,\"dur\":1.5"));
    }

    #[test]
    fn request_lifecycle_renders_as_duration_spans_with_flow() {
        let json = export(&sample_recording());
        // Queue span opens at the IoQueued instant (0.1 µs) and the
        // service span at dispatch (0.5 µs); both close with E events.
        assert!(json.contains("\"name\":\"queue\",\"cat\":\"io,hdfs\",\"ph\":\"B\",\"ts\":0.1"));
        assert!(json.contains("\"name\":\"queue\",\"ph\":\"E\",\"ts\":0.5"));
        assert!(json.contains("\"name\":\"service\",\"cat\":\"io,hdfs\",\"ph\":\"B\",\"ts\":0.5"));
        assert!(json.contains("\"name\":\"service\",\"ph\":\"E\",\"ts\":2"));
        // Flow arrow from dispatch (request lane) to completion (app lane).
        assert!(json.contains("\"ph\":\"s\",\"id\":1,\"ts\":0.5"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":2"));
        assert!(json.contains("\"name\":\"io lane 0\""));
        // Task span: job 3, reduce index 1, on node 1's task lane.
        assert!(
            json.contains("\"name\":\"job3 reduce1\",\"cat\":\"tasks\",\"ph\":\"B\",\"ts\":0.2")
        );
        assert!(json.contains("\"name\":\"job3 reduce1\",\"ph\":\"E\",\"ts\":0.9"));
        assert!(json.contains("\"name\":\"task lane 0\""));
    }

    #[test]
    fn overlapping_requests_take_distinct_lanes() {
        let mut rec = FlightRecorder::new(1, 64);
        let mut push = |at: u64, kind: EventKind| {
            rec.record(ObsEvent {
                at: SimTime::from_nanos(at),
                node: 0,
                dev: 0,
                kind,
            });
        };
        for io in 0..3u64 {
            push(
                1_000 + io,
                EventKind::IoQueued {
                    io,
                    app: 1,
                    bytes: 64,
                    write: false,
                },
            );
        }
        for io in 0..3u64 {
            push(
                9_000 + io,
                EventKind::Completed {
                    io,
                    app: 1,
                    bytes: 64,
                    write: false,
                    latency_ns: 2_000,
                },
            );
        }
        let json = export(&rec.finish(RecordingMeta {
            weights: vec![(1, 1.0)],
            sync_period_ns: 1_000_000_000,
            nodes: 1,
            rack_size: 0,
        }));
        // Three concurrent requests → three non-overlapping lanes.
        for lane in 0..3 {
            assert!(
                json.contains(&format!("\"name\":\"io lane {lane}\"")),
                "lane {lane}"
            );
        }
        let opens = json.matches("\"ph\":\"B\"").count();
        let closes = json.matches("\"ph\":\"E\"").count();
        assert_eq!(opens, closes, "every B has a matching E");
        assert_eq!(opens, 6, "queue+service per request");
    }

    #[test]
    fn empty_recording_is_valid_json_shell() {
        let rec = FlightRecorder::new(1, 4).finish(RecordingMeta::default());
        let json = export(&rec);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn balanced_braces_and_brackets() {
        let json = export(&sample_recording());
        let depth_ok = |open: char, close: char| {
            let mut d = 0i64;
            for c in json.chars() {
                if c == open {
                    d += 1;
                } else if c == close {
                    d -= 1;
                    assert!(d >= 0);
                }
            }
            d == 0
        };
        assert!(depth_ok('{', '}'));
        assert!(depth_ok('[', ']'));
    }
}
