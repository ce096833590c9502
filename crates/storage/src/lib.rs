//! # ibis-storage — storage device and network substrate models
//!
//! The paper evaluates IBIS on a physical cluster (two 7.2K RPM SAS disks
//! or Intel MLC SSDs per node, Gigabit Ethernet). This crate provides the
//! simulated equivalents with the properties the paper's results depend on:
//!
//! * [`hdd::Hdd`] — positional disk model: per-stream sequentiality
//!   tracking, seek + rotational costs when switching streams, bounded
//!   same-stream batching (an anticipatory-scheduler stand-in, which is
//!   what makes device throughput *grow* with queue depth), and a
//!   write-back cache whose periodic foreground flushes reproduce the
//!   latency spikes of Fig. 7.
//! * [`ssd::Ssd`] — flash model: channel parallelism, strong read/write
//!   asymmetry, and an optional garbage-collection stall, reproducing the
//!   "writes slow down queued reads" behaviour of §7.2's SSD experiment.
//! * [`link::PsLink`] — a processor-sharing network link used for shuffle
//!   and remote-replica traffic.
//! * [`profile`] — the paper's offline reference-latency profiling
//!   procedure (§4): drive a device at increasing concurrency, find the
//!   latency just before throughput saturates.
//!
//! Devices are *passive*: the simulation engine owns the clock and the
//! event queue; a device maps `submit`/`on_complete` calls to completion
//! timestamps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod hdd;
pub mod link;
pub mod profile;
pub mod request;
pub mod ssd;

pub use device::{Device, DeviceModel};
pub use hdd::{Hdd, HddConfig};
pub use link::PsLink;
pub use profile::{profile_device, ReferenceLatency};
pub use request::{DeviceRequest, IoKind, Started};
pub use ssd::{Ssd, SsdConfig};
