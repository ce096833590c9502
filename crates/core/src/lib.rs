//! # ibis-core — the IBIS schedulers and distributed coordination
//!
//! This crate is the paper's contribution, implemented from §3–§6:
//!
//! * [`request`] — the interposed request vocabulary: every I/O in the
//!   big-data system is tagged with its application id, I/O service weight,
//!   direction, and *class* (persistent / intermediate / shuffle), exactly
//!   the information the IBIS interposition layer attaches in Hadoop.
//! * [`sfq`] — **SFQ(D)**: start-time fair queuing with a bounded number of
//!   outstanding requests (Jin et al., SIGMETRICS'04), extended with the
//!   DSFQ total-service delay rule (Wang & Merchant, FAST'07) used by the
//!   distributed coordination of §5.
//! * [`controller`] — the integral feedback controller of §4 that turns
//!   SFQ(D) into **SFQ(D2)** by steering the observed I/O latency toward a
//!   profiled reference latency: `D(k+1) = D(k) + K · (L_ref − L(k))`.
//! * [`sfqd2`] — the composition of the two, whose controller state Fig. 7
//!   reads through the metrics sampler.
//! * [`baselines`] — native FIFO (no I/O management) and the cgroups
//!   blkio-style weight/throttle schedulers YARN could be extended with
//!   (§7.4), which can only differentiate *intermediate* I/Os.
//! * [`strict`] — the §9 extreme point: a non-work-conserving strict
//!   partitioner (perfect isolation, deliberate underutilisation).
//! * [`broker`] — the centralized Scheduling Broker of §5 that aggregates
//!   per-application service vectors from every datanode scheduler and
//!   returns global totals.
//! * [`broker_tree`] — the hierarchical coordination plane that scales the
//!   broker past O(100) nodes: per-rack leaf aggregators fold scheduler
//!   deltas into rack partials, a root merges racks, and only changed
//!   totals travel on any link (delta encoding at every level).
//! * [`scheduler`] — the common [`scheduler::IoScheduler`] trait the
//!   cluster engine drives, and the [`scheduler::Policy`] factory that
//!   builds any of the above.
//!
//! The schedulers are deliberately *passive* and engine-agnostic: they
//! never block, never own a clock, and interact purely through
//! `submit` / `pop_dispatch` / `on_complete` / `on_tick`, so they can be
//! embedded in the discrete-event cluster simulator, a benchmark loop, or
//! a real I/O proxy.
//!
//! Two support modules serve the engine: [`slab`] — the typed
//! generational arena that holds every engine side table (DESIGN.md §12)
//! — and [`env`](mod@env), the single parser for the `IBIS_JOBS` sweep-width
//! knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod broker;
pub mod broker_tree;
pub mod controller;
pub mod env;
pub mod request;
pub mod scheduler;
pub mod sfq;
pub mod sfqd2;
pub mod slab;
pub mod strict;

pub use baselines::{CgroupThrottle, CgroupWeight, Fifo};
pub use broker::{BrokerStats, HashReferenceBroker, SchedulingBroker, Staleness};
pub use broker_tree::{BrokerTree, BrokerTreeConfig, Delivery, ReportOutcome};
pub use controller::{ControllerConfig, DepthController};
pub use request::{AppId, IoClass, IoKind, Request};
pub use scheduler::{IoScheduler, Policy};
pub use sfq::{SfqConfig, SfqD};
pub use sfqd2::{SfqD2, SfqD2Config};
pub use strict::StrictPartition;

/// The types most users need.
pub mod prelude {
    pub use crate::baselines::{CgroupThrottle, CgroupWeight, Fifo};
    pub use crate::broker::SchedulingBroker;
    pub use crate::controller::ControllerConfig;
    pub use crate::request::{AppId, IoClass, IoKind, Request};
    pub use crate::scheduler::{IoScheduler, Policy};
    pub use crate::sfq::{SfqConfig, SfqD};
    pub use crate::sfqd2::{SfqD2, SfqD2Config};
}
