//! # ibis-workloads — the paper's benchmark suite as job generators
//!
//! Every application §7 evaluates, expressed as [`ibis_mapreduce::JobSpec`]
//! values (or stage chains for the Hive queries):
//!
//! * [`standard`] — TeraGen, TeraSort, TeraValidate, WordCount with the
//!   paper's data volumes and calibrated compute/I/O shapes (Fig. 2's
//!   profiles are the calibration target).
//! * [`swim`] — the Facebook2009 workload: 50 jobs sampled SWIM-style with
//!   input→shuffle ratios spanning 0.05–10³ and shuffle→output ratios
//!   spanning 2⁻⁵–10² (§7.3).
//! * [`tpch`] — TPC-H Q9 and Q21 on Hive: multi-stage MapReduce chains
//!   with the paper's data volumes (Q9: 53 GB in, ~120 GB intermediate,
//!   5 KB out; Q21: 45 GB in, ~40 GB intermediate, 2.6 GB out; §7.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod standard;
pub mod swim;
pub mod tpch;

pub use standard::{teragen, terasort, teravalidate, wordcount};
pub use swim::{facebook2009, SwimConfig};
pub use tpch::{tpch_q1, tpch_q21, tpch_q5, tpch_q9, HiveQuery};

/// The types most experiment definitions need.
pub mod prelude {
    pub use crate::standard::{teragen, terasort, teravalidate, wordcount};
    pub use crate::swim::{facebook2009, SwimConfig};
    pub use crate::tpch::{tpch_q1, tpch_q21, tpch_q5, tpch_q9, HiveQuery};
}
