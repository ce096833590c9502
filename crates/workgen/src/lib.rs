//! # ibis-workgen — open-system workload generation
//!
//! The IBIS paper evaluates with hand-picked closed workloads: every job
//! is released at t = 0 and the figure of merit is the makespan. Real
//! clusters are *open systems* — jobs arrive over time, from many
//! tenants, with heavy-tailed sizes — and an I/O scheduler's value shows
//! up in per-job latency under sustained multi-tenant load. This crate
//! generates such workloads, deterministically, from a single seed:
//!
//! * [`arrival`] — seeded arrival processes: Poisson, Markov-modulated
//!   on/off bursts, and trace replay.
//! * [`size`] — heavy-tailed scalar samplers (bounded Pareto, clamped
//!   lognormal, log-uniform, bimodal) for job sizing.
//! * [`mix`] — multi-tenant composition: N tenants × per-tenant arrival
//!   process × I/O weight, lowered to one ordered job list. Tenants draw
//!   from order-free RNG streams ([`ibis_simcore::rng::SimRng::stream_seed`]),
//!   so editing one tenant never perturbs another.
//! * [`dag`] — DAG jobs with explicit I/O dependencies, compiled to the
//!   engine's sequential stage chains with byte-exact I/O volumes.
//! * [`burst`] — FaaS-style burst tenants: thousands of short jobs in
//!   on/off bursts with cold-start compute spikes.
//! * [`trace`] — a JSONL trace format (parse / emit / lower), so recorded
//!   or hand-written workloads replay bit-exactly.
//!
//! Everything downstream of a [`mix::MixConfig`] is a pure function of
//! the seed, and the cluster engine executes the result identically on
//! every replay and at any sweep width — the workload layer adds no
//! nondeterminism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod burst;
pub mod dag;
pub mod mix;
pub mod size;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use burst::{burst_tenant, BurstProfile};
pub use dag::{DagSpec, DagStage};
pub use mix::{ColdStart, JobShape, MixConfig, ReducePolicy, TenantSpec};
pub use size::SizeDist;
pub use trace::TraceRecord;
