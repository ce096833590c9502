//! # ibis-bench — the figure, table and bench harness
//!
//! Four binaries sit on this library:
//!
//! * `all_experiments [NAME…]` regenerates every paper figure and table
//!   (DESIGN.md §4 has the index), or the named suite entries, and saves
//!   each result under `results/`;
//! * `audit` replays traced scenarios through the fairness auditor;
//! * `bench <record> [--check BASELINE] [OUT]` measures one `BENCH_*.json`
//!   record (`bench all` measures every one) and gates it against a
//!   committed record;
//! * `bench_alloc` measures `BENCH_alloc.json` under a counting global
//!   allocator, which would tax every other record were it in `bench`.
//!
//! The library holds what they share: one module per figure, standard
//! experiment builders, slowdown math, result recording, the text-table
//! printer, the JSON writer and the bench check path.

#![warn(missing_docs)]

pub mod alloc;
pub mod experiments;
pub mod figs;
pub mod gate;
pub mod json;
pub mod results;
pub mod scale;
pub mod table;
pub mod tables;

pub use results::ResultSink;
pub use scale::{bench_nodes, ScaleProfile};
pub use table::Table;
