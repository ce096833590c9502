//! The IBIS benchmark: workloads, timed and traced passes, layer replays
//! and the result formats. `src/main.rs` is the command line over these.

pub mod alloc;
pub mod check;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod results;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Measured seconds per timed pass when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
