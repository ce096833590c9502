//! `ibis-obs` — flight-recorder tracing, fairness auditing, and trace
//! export for the IBIS reproduction.
//!
//! The paper's claims are statements about *streams* of scheduling
//! decisions: SFQ dispatches in start-tag order (§4), backlogged
//! applications split service in weight proportion at any instant
//! (Fig. 6/11), and DSFQ's delay rule charges exactly the foreign service
//! the broker reported (§5, Fig. 12). End-of-run aggregates can only show
//! that a run *ended* fair; this crate records the stream itself so those
//! claims become replayable, machine-checkable invariants.
//!
//! Three layers:
//!
//! * **Events** ([`event`]) — a typed vocabulary (`RequestTagged`,
//!   `DelayApplied`, `Dispatched`, `Completed`, `DepthAdjusted`,
//!   `BrokerSync`, `BlockPlaced`) plus [`EventBuf`], the per-emitter
//!   buffer embedded in schedulers and the namenode. Disabled, an
//!   emission is one predictable branch — the recorder is off by default
//!   and sweep results stay byte-identical.
//! * **Recorder** ([`recorder`]) — the cluster engine stamps each event
//!   with `(time, node, device)` and feeds a [`FlightRecorder`]: one
//!   append-only vector with a bounded history per node, oldest-evicted,
//!   so memory stays within `2 × nodes × capacity × 48 B` (plus 1,024
//!   events) no matter how long the run. Finishing yields an immutable
//!   [`Recording`].
//! * **Consumers** — the fairness auditor ([`audit`](mod@audit)) replays a recording
//!   and checks start-tag monotonicity, windowed proportional share, and
//!   the DSFQ delay identity; the Chrome exporter ([`chrome`]) renders
//!   per-app request lanes with depth/broker counter tracks for
//!   `chrome://tracing` / Perfetto.
//!
//! Enable recording for any experiment binary with `IBIS_OBS=1`, or
//! programmatically via [`ObsConfig::enabled`] (which also sets the
//! per-node capacity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chrome;
pub mod event;
pub mod recorder;

pub use audit::{audit, AuditConfig, AuditReport, Invariant, Violation};
pub use event::{fault, EventBuf, EventKind, ObsEvent};
pub use recorder::{FlightRecorder, ObsConfig, Recording, RecordingMeta};
