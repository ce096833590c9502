//! The observability event vocabulary and the per-emitter buffer.
//!
//! Every interposition point that matters for the paper's fairness story
//! emits one of these typed events: the SFQ schedulers tag, delay, and
//! dispatch requests; the device layer completes them; the SFQ(D2)
//! controller retunes the depth; the coordination plane applies broker
//! totals; the namenode places blocks. An [`EventBuf`] sits inside each
//! emitter and costs one branch when recording is off.

use ibis_simcore::SimTime;

/// One typed observability event, before the engine stamps its origin.
///
/// Application ids and I/O ids are raw integers (`AppId(u32)` / request
/// ids) so the event vocabulary does not depend on the scheduler crate —
/// `ibis-core` depends on `ibis-obs`, not the other way around.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A request arrived at an SFQ scheduler and received its start tag
    /// `S(r) = max(v, F_prev + δ/φ)`.
    RequestTagged {
        /// Request id.
        io: u64,
        /// Owning application id.
        app: u32,
        /// Request cost in bytes.
        bytes: u64,
        /// True for writes.
        write: bool,
        /// The start tag assigned on arrival.
        start_tag: f64,
    },
    /// The DSFQ delay rule charged foreign (other-node) service to a flow
    /// on arrival — emitted only when the consumed delay is non-zero.
    DelayApplied {
        /// Application id.
        app: u32,
        /// Bytes of foreign service folded into the start tag (after the
        /// optional `delay_cap`).
        delay: u64,
    },
    /// The scheduler handed the minimum-start-tag request to the device.
    Dispatched {
        /// Request id.
        io: u64,
        /// Owning application id.
        app: u32,
        /// The request's start tag — the virtual time after this dispatch.
        start_tag: f64,
    },
    /// The device finished servicing a request (emitted by the engine's
    /// device layer, so it covers every policy including Native).
    Completed {
        /// Request id.
        io: u64,
        /// Owning application id.
        app: u32,
        /// Bytes serviced.
        bytes: u64,
        /// True for writes.
        write: bool,
        /// Dispatch-to-completion device latency in nanoseconds.
        latency_ns: u64,
    },
    /// The SFQ(D2) integral controller changed the depth bound.
    DepthAdjusted {
        /// The new depth `D`.
        depth: u32,
    },
    /// A broker reply was applied: cluster-wide total service for one
    /// application as seen by this scheduler at this sync.
    BrokerSync {
        /// Application id.
        app: u32,
        /// Broker-reported cluster-wide total service, bytes.
        total: u64,
    },
    /// A fault was injected at this site (engine fault layer), or the
    /// coordination plane repaired one. `kind` is one of the [`fault`]
    /// codes, each of which says what `detail` holds.
    FaultInjected {
        /// Fault code: one of the [`fault`] constants.
        kind: u32,
        /// Code-specific detail (see the code).
        detail: u64,
    },
    /// A local scheduler's broker totals exceeded the staleness bound (or
    /// were never delivered): it entered degraded mode and now applies
    /// zero DSFQ delay — pure local SFQ(D2) — until the broker answers.
    DegradedEnter {
        /// Age of the last applied sync in nanoseconds; `u64::MAX` when
        /// no sync was ever applied (broker dark since start).
        age_ns: u64,
    },
    /// A fresh broker reply ended a degraded episode; DSFQ delays resume.
    DegradedExit {
        /// Length of the degraded episode in nanoseconds.
        dark_ns: u64,
    },
    /// A broker report failed and the scheduler scheduled a backoff retry.
    ReportRetry {
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// A job entered the system (open-system arrival): the engine
    /// registered its flow and started the arrival→completion clock.
    JobArrived {
        /// Job id.
        job: u32,
        /// Application (flow) id the job's I/O is tagged with — shared by
        /// all of a tenant's jobs in multi-tenant runs.
        app: u32,
    },
    /// A job completed; closes the clock opened by
    /// [`EventKind::JobArrived`].
    JobCompleted {
        /// Job id.
        job: u32,
        /// Application (flow) id.
        app: u32,
        /// Arrival→completion latency in nanoseconds.
        latency_ns: u64,
    },
    /// The engine submitted a request to a node's I/O scheduler (emitted
    /// for every policy, including Native, which has no tagging event).
    /// Opens the request's queue-wait span; the dispatch instant is
    /// recovered from [`EventKind::Completed`] as `at − latency_ns`.
    IoQueued {
        /// Request id.
        io: u64,
        /// Owning application id.
        app: u32,
        /// Request cost in bytes.
        bytes: u64,
        /// True for writes.
        write: bool,
    },
    /// A task was granted a slot and began executing (opens the task
    /// span; the stamped node is where the task runs).
    TaskStarted {
        /// Owning job id.
        job: u32,
        /// Task id: the index within the job's maps or reduces, with the
        /// high bit set for reduces.
        task: u32,
        /// Application (flow) id the task's I/O is tagged with.
        app: u32,
    },
    /// A task released its slot (closes the span opened by
    /// [`EventKind::TaskStarted`]).
    TaskFinished {
        /// Owning job id.
        job: u32,
        /// Task id (same encoding as [`EventKind::TaskStarted`]).
        task: u32,
    },
    /// The namenode allocated a block (primary replica first).
    BlockPlaced {
        /// Block id.
        block: u64,
        /// Node holding the primary replica.
        primary: u32,
        /// Total replica count.
        replicas: u32,
    },
}

/// The codes an [`EventKind::FaultInjected`] marker carries in `kind`,
/// and what its `detail` holds under each. Rack-scoped markers
/// ([`AGG_CRASH`](fault::AGG_CRASH) to
/// [`PARTITION_HEAL`](fault::PARTITION_HEAL)) stamp `node` with the
/// rack's first node (`rack * rack_size`).
pub mod fault {
    /// A broker outage began; `detail` is its length in ns.
    pub const BROKER_OUTAGE: u32 = 0;
    /// A service report was dropped; `detail` is the sync round's index.
    pub const REPORT_DROPPED: u32 = 1;
    /// A round's replies were held back; `detail` is the added reply
    /// latency in ns.
    pub const REPLY_DELAYED: u32 = 2;
    /// The node crashed; `detail` is 0.
    pub const NODE_CRASH: u32 = 3;
    /// The node restarted; `detail` is 0.
    pub const NODE_RESTART: u32 = 4;
    /// A slowdown window opened on (`node`, `dev`); `detail` is the
    /// factor's `f64::to_bits`.
    pub const SLOWDOWN_BEGIN: u32 = 5;
    /// A slowdown window closed; `detail` is the factor's `f64::to_bits`.
    pub const SLOWDOWN_END: u32 = 6;
    /// A rack's leaf aggregator crashed; `detail` is the rack id.
    pub const AGG_CRASH: u32 = 7;
    /// The leaf aggregator restarted empty; `detail` is the rack id.
    pub const AGG_RESTART: u32 = 8;
    /// A rack partition began; `detail` is the rack id.
    pub const PARTITION_BEGIN: u32 = 9;
    /// A rack partition healed; `detail` is the rack id.
    pub const PARTITION_HEAL: u32 = 10;
    /// A service report was delivered twice; `detail` is the sync
    /// round's index.
    pub const REPORT_DUPLICATED: u32 = 11;
    /// A service report was held until after the sender's next one;
    /// `detail` is the sync round's index.
    pub const REPORT_REORDERED: u32 = 12;
    /// A snapshot resync ran; `detail` is the snapshot's entry count.
    pub const RESYNC: u32 = 13;
}

/// One recorded event with its origin stamped by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsEvent {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// Node the emitting scheduler/device lives on.
    pub node: u32,
    /// Device index on the node (0 = HDFS, 1 = scratch).
    pub dev: u8,
    /// The typed payload.
    pub kind: EventKind,
}

/// A per-emitter event buffer: zero-cost when disabled (one predictable
/// branch per emission site), an appending `Vec` when enabled. The engine
/// drains buffers inside the handler that produced the events, so the
/// recorder receives them in true processing order.
#[derive(Debug, Clone, Default)]
pub struct EventBuf {
    enabled: bool,
    buf: Vec<(SimTime, EventKind)>,
}

impl EventBuf {
    /// A disabled, empty buffer.
    pub fn new() -> Self {
        EventBuf::default()
    }

    /// Whether emissions are being kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Turning it off discards buffered events.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.buf = Vec::new();
        }
    }

    /// Records one event if enabled. The disabled path is a single branch;
    /// call sites may also pre-check [`EventBuf::enabled`] to skip payload
    /// construction entirely.
    #[inline]
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        if self.enabled {
            self.buf.push((at, kind));
        }
    }

    /// Moves all buffered events into `sink`, preserving order.
    pub fn drain_into(&mut self, sink: &mut Vec<(SimTime, EventKind)>) {
        sink.append(&mut self.buf);
    }

    /// Number of buffered (not yet drained) events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_drops_events() {
        let mut b = EventBuf::new();
        assert!(!b.enabled());
        b.push(SimTime::ZERO, EventKind::DepthAdjusted { depth: 4 });
        assert!(b.is_empty());
    }

    #[test]
    fn enabled_buffer_keeps_order() {
        let mut b = EventBuf::new();
        b.set_enabled(true);
        b.push(SimTime::from_secs(1), EventKind::DepthAdjusted { depth: 4 });
        b.push(SimTime::from_secs(2), EventKind::DepthAdjusted { depth: 5 });
        assert_eq!(b.len(), 2);
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert!(b.is_empty());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, SimTime::from_secs(1));
        assert!(matches!(out[1].1, EventKind::DepthAdjusted { depth: 5 }));
    }

    #[test]
    fn disabling_discards_buffered() {
        let mut b = EventBuf::new();
        b.set_enabled(true);
        b.push(SimTime::ZERO, EventKind::DepthAdjusted { depth: 1 });
        b.set_enabled(false);
        assert!(b.is_empty());
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert!(out.is_empty());
    }
}
