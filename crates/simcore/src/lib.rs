//! # ibis-simcore — deterministic discrete-event simulation core
//!
//! Foundation crate for the IBIS reproduction. It provides the pieces every
//! other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   the whole simulation is exactly reproducible (no floating-point clock
//!   drift across platforms).
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with FIFO tie-breaking for equal timestamps.
//! * [`hash::FxHashMap`] — hash tables with a fast, seedless hasher for
//!   the analysis passes' short integer and string keys.
//! * [`rng::SimRng`] — a small, self-contained, seedable PRNG
//!   (xoshiro256**) with the distributions the workload models need.
//! * [`metrics`] — time series, histograms, CDFs and counters used to
//!   produce every figure in the paper reproduction.
//! * [`units`] — byte and rate helpers (`MIB`, [`units::transfer_time`], …).
//!
//! The crate is dependency-free by design: determinism of the published
//! experiment numbers must not hinge on the internals of an external crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod time;
pub mod units;

pub use queue::{EventQueue, QueueStats};
pub use time::{SimDuration, SimTime};
