//! The device abstraction shared by all storage models.

use crate::hdd::Hdd;
use crate::request::{DeviceRequest, Started};
use crate::ssd::Ssd;
use ibis_simcore::units::transfer_time;
use ibis_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A passive storage device: the engine calls [`Device::submit`] when the
/// IBIS scheduler dispatches a request and [`Device::on_complete`] when a
/// previously returned [`Started`] event fires. Any call may start queued
/// requests, reported through `out`.
pub trait Device {
    /// Accepts a dispatched request. Newly started services (possibly this
    /// request, possibly none) are appended to `out`.
    fn submit(&mut self, req: DeviceRequest, now: SimTime, out: &mut Vec<Started>);

    /// Acknowledges that request `id` finished at `now`; may start queued
    /// requests, appended to `out`.
    fn on_complete(&mut self, id: u64, now: SimTime, out: &mut Vec<Started>);

    /// Requests currently being serviced by the medium.
    fn in_service(&self) -> usize;

    /// Requests accepted but waiting inside the device.
    fn queued(&self) -> usize;

    /// Total requests inside the device.
    fn outstanding(&self) -> usize {
        self.in_service() + self.queued()
    }
}

/// An idealised device: unlimited internal concurrency, fixed per-request
/// latency plus size over a constant bandwidth, no positional effects.
/// Useful for scheduler unit tests and for experiments that want storage
/// taken out of the picture.
#[derive(Debug, Clone)]
pub struct Ideal {
    /// Bandwidth in bytes/sec applied per request (no sharing).
    pub bandwidth: f64,
    /// Fixed per-request latency.
    pub latency: SimDuration,
    in_service: usize,
}

impl Ideal {
    /// Creates an ideal device with the given per-request bandwidth and
    /// fixed latency.
    pub fn new(bandwidth: f64, latency: SimDuration) -> Self {
        Ideal {
            bandwidth,
            latency,
            in_service: 0,
        }
    }
}

impl Device for Ideal {
    fn submit(&mut self, req: DeviceRequest, now: SimTime, out: &mut Vec<Started>) {
        self.in_service += 1;
        let service = self.latency + transfer_time(req.bytes, self.bandwidth);
        out.push(Started {
            id: req.id,
            complete_at: now + service,
        });
    }

    fn on_complete(&mut self, _id: u64, _now: SimTime, _out: &mut Vec<Started>) {
        debug_assert!(self.in_service > 0, "completion without service");
        self.in_service -= 1;
    }

    fn in_service(&self) -> usize {
        self.in_service
    }

    fn queued(&self) -> usize {
        0
    }
}

/// Enum wrapper so a node can own any device model without boxing.
#[derive(Debug, Clone)]
pub enum DeviceModel {
    /// Rotating disk.
    Hdd(Hdd),
    /// Flash device.
    Ssd(Ssd),
    /// Idealised device.
    Ideal(Ideal),
}

impl Device for DeviceModel {
    fn submit(&mut self, req: DeviceRequest, now: SimTime, out: &mut Vec<Started>) {
        match self {
            DeviceModel::Hdd(d) => d.submit(req, now, out),
            DeviceModel::Ssd(d) => d.submit(req, now, out),
            DeviceModel::Ideal(d) => d.submit(req, now, out),
        }
    }

    fn on_complete(&mut self, id: u64, now: SimTime, out: &mut Vec<Started>) {
        match self {
            DeviceModel::Hdd(d) => d.on_complete(id, now, out),
            DeviceModel::Ssd(d) => d.on_complete(id, now, out),
            DeviceModel::Ideal(d) => d.on_complete(id, now, out),
        }
    }

    fn in_service(&self) -> usize {
        match self {
            DeviceModel::Hdd(d) => d.in_service(),
            DeviceModel::Ssd(d) => d.in_service(),
            DeviceModel::Ideal(d) => d.in_service(),
        }
    }

    fn queued(&self) -> usize {
        match self {
            DeviceModel::Hdd(d) => d.queued(),
            DeviceModel::Ssd(d) => d.queued(),
            DeviceModel::Ideal(d) => d.queued(),
        }
    }
}

/// Internal FIFO of accepted-but-waiting requests, shared by the HDD and
/// SSD models.
#[derive(Debug, Clone, Default)]
pub(crate) struct InternalQueue {
    queue: VecDeque<DeviceRequest>,
}

impl InternalQueue {
    pub(crate) fn push(&mut self, req: DeviceRequest) {
        self.queue.push_back(req);
    }

    pub(crate) fn pop_front(&mut self) -> Option<DeviceRequest> {
        self.queue.pop_front()
    }

    /// Pops the earliest request whose stream matches, if any (HDD
    /// anticipatory batching).
    pub(crate) fn pop_stream(&mut self, stream: u64) -> Option<DeviceRequest> {
        let pos = self.queue.iter().position(|r| r.stream == stream)?;
        self.queue.remove(pos)
    }

    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoKind;
    use ibis_simcore::units::MIB;

    fn req(id: u64, kind: IoKind, bytes: u64) -> DeviceRequest {
        DeviceRequest {
            id,
            kind,
            stream: 1,
            bytes,
        }
    }

    #[test]
    fn ideal_service_time_is_latency_plus_transfer() {
        let mut d = Ideal::new(100e6, SimDuration::from_millis(1));
        let mut out = Vec::new();
        d.submit(req(1, IoKind::Read, 100_000_000), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].complete_at,
            SimTime::from_millis(1) + SimDuration::from_secs(1)
        );
    }

    #[test]
    fn ideal_unlimited_concurrency() {
        let mut d = Ideal::new(100e6, SimDuration::ZERO);
        let mut out = Vec::new();
        for i in 0..10 {
            d.submit(req(i, IoKind::Write, MIB), SimTime::ZERO, &mut out);
        }
        assert_eq!(d.in_service(), 10);
        assert_eq!(d.queued(), 0);
        // all complete at the same instant: no queueing
        let t0 = out[0].complete_at;
        assert!(out.iter().all(|s| s.complete_at == t0));
    }

    #[test]
    fn internal_queue_stream_pop() {
        let mut q = InternalQueue::default();
        q.push(DeviceRequest {
            id: 1,
            kind: IoKind::Read,
            stream: 7,
            bytes: 1,
        });
        q.push(DeviceRequest {
            id: 2,
            kind: IoKind::Read,
            stream: 9,
            bytes: 1,
        });
        q.push(DeviceRequest {
            id: 3,
            kind: IoKind::Read,
            stream: 9,
            bytes: 1,
        });
        assert_eq!(q.pop_stream(9).unwrap().id, 2);
        assert_eq!(q.pop_stream(42), None);
        assert_eq!(q.pop_front().unwrap().id, 1);
        assert_eq!(q.pop_front().unwrap().id, 3);
        assert!(q.is_empty());
    }
}
