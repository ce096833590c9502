//! Measurement infrastructure for the experiment reports.
//!
//! Every figure in the paper reproduction is produced from one of these
//! types:
//!
//! * [`TimeSeries`] — binned rate traces (Fig. 2 I/O profiles, Fig. 6b/8b
//!   throughput).
//! * [`GaugeTrace`] — sampled instantaneous values (Fig. 7 depth/latency
//!   trace).
//! * [`Histogram`] — log-bucketed latency distributions.
//! * [`Cdf`] — empirical CDFs (Fig. 9 Facebook2009 job runtimes).

mod cdf;
mod histogram;
mod timeseries;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use timeseries::{GaugeTrace, TimeSeries};
