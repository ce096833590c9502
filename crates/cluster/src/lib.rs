//! # ibis-cluster — the full-cluster simulator and experiment harness
//!
//! Ties every substrate together into the system of Fig. 1/Fig. 5: eight
//! worker datanodes (two devices each — one for HDFS data, one for
//! intermediate data, as in the paper's testbed), a namenode, per-device
//! IBIS schedulers, per-node ingress links, the YARN-style job manager,
//! and the centralized scheduling broker.
//!
//! * [`config`] — declarative [`config::ClusterConfig`] /
//!   [`config::Experiment`] descriptions; defaults reproduce §7.1's
//!   testbed (8 workers × 12 cores × 24 GB, 2 disks, GigE, Table 1 HDFS
//!   settings).
//! * [`engine`] — the discrete-event loop: task step execution, interposed
//!   I/O routing (persistent → HDFS disk; intermediate and shuffle →
//!   scratch disk), the HDFS replication pipeline, shuffle pulls,
//!   controller ticks, and broker syncs.
//! * [`report`] — [`report::RunReport`]: per-job runtimes and phase
//!   breakdowns, per-application throughput time series, Fig. 7 traces,
//!   broker overhead counters, and device statistics.
//! * [`autotune`] — the §9 future-work loop: search the I/O-weight knob
//!   for a target slowdown.
//! * [`sweep`] — the parallel experiment sweep engine: fans independent
//!   [`config::Experiment`]s across a scoped thread pool (`IBIS_JOBS`)
//!   with byte-identical-to-serial results.
//!
//! A run is one serial event loop; parallelism is across runs only
//! ([`SweepRunner`]), never inside one (DESIGN.md §14 has the measured
//! reasons).
//!
//! ```
//! use ibis_cluster::prelude::*;
//! use ibis_simcore::units::GIB;
//!
//! let mut exp = Experiment::new(ClusterConfig::default());
//! exp.add_job(ibis_workloads::teragen(2 * GIB));
//! let report = exp.run();
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].runtime.as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::redundant_clone)]

pub mod autotune;
pub mod config;
pub mod engine;
pub mod report;
pub mod sweep;

pub use autotune::{tune_weight, TuneResult};
pub use config::{ClusterConfig, DeviceSpec, Experiment, Workload};
pub use report::{AssignStats, JobSummary, RunReport};
pub use sweep::SweepRunner;

/// The types most experiment code needs.
pub mod prelude {
    pub use crate::config::{ClusterConfig, DeviceSpec, Experiment, Workload};
    pub use crate::report::{JobSummary, RunReport};
    pub use crate::sweep::SweepRunner;
    pub use ibis_core::scheduler::Policy;
}
