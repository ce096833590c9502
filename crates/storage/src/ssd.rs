//! Flash-device model.
//!
//! Reproduces the SSD behaviours §7.2 of the paper relies on:
//!
//! 1. **Read/write asymmetry** — writes are several times slower than
//!    reads (the paper's Intel MLC SATA devices).
//! 2. **Writes delay queued reads** — the device serves its internal queue
//!    FIFO across `ways` parallel channels, so reads stuck behind a burst
//!    of slow writes wait. This is exactly why SFQ(D2) "implicitly promotes
//!    reads" on SSDs: when write latency rises, the controller shrinks D,
//!    fewer writes are outstanding inside the device, and backlogged reads
//!    get dispatched ahead of some writes by the fair queue.
//! 3. **Moderate concurrency gain** — throughput grows until all channels
//!    are busy, then saturates; no positional costs.
//! 4. **Optional GC stalls** — after `gc_interval_bytes` of writes the next
//!    write pays `gc_pause`, adding the tail-latency noise real flash shows.

use crate::device::{Device, InternalQueue};
use crate::request::{DeviceRequest, IoKind, Started};
use ibis_simcore::rng::SimRng;
use ibis_simcore::units::{transfer_time, GIB};
use ibis_simcore::{SimDuration, SimTime};

/// Configuration of the flash model. Defaults approximate the paper's
/// Intel 120 GB MLC SATA devices (~280 MB/s read, ~170 MB/s write at
/// full concurrency; the evaluation's SSD setup outperforms its disks).
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Internal channel parallelism (requests serviced concurrently).
    pub ways: u32,
    /// Per-channel read bandwidth, bytes/sec.
    pub read_bw_per_way: f64,
    /// Per-channel write bandwidth, bytes/sec.
    pub write_bw_per_way: f64,
    /// Fixed read access latency.
    pub read_latency: SimDuration,
    /// Fixed write access latency (program time).
    pub write_latency: SimDuration,
    /// A GC stall is charged after this many written bytes; 0 disables GC.
    pub gc_interval_bytes: u64,
    /// Duration of one GC stall.
    pub gc_pause: SimDuration,
    /// RNG seed for the GC-pause jitter.
    pub seed: u64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            ways: 2,
            read_bw_per_way: 140e6,
            write_bw_per_way: 85e6,
            read_latency: SimDuration::from_micros(100),
            write_latency: SimDuration::from_micros(300),
            gc_interval_bytes: 4 * GIB,
            gc_pause: SimDuration::from_millis(15),
            seed: 0x55d,
        }
    }
}

/// The flash device model. See the module docs for the behaviours it
/// reproduces.
#[derive(Debug, Clone)]
pub struct Ssd {
    cfg: SsdConfig,
    rng: SimRng,
    in_service: Vec<u64>,
    queue: InternalQueue,
    written_since_gc: u64,
}

impl Ssd {
    /// Creates a flash device from its configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        assert!(cfg.ways >= 1, "SSD needs at least one channel");
        let rng = SimRng::new(cfg.seed);
        Ssd {
            cfg,
            rng,
            in_service: Vec::new(),
            queue: InternalQueue::default(),
            written_since_gc: 0,
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    fn service_time(&mut self, req: &DeviceRequest) -> SimDuration {
        match req.kind {
            IoKind::Read => {
                self.cfg.read_latency
                    + transfer_time(req.bytes, self.cfg.read_bw_per_way)
            }
            IoKind::Write => {
                self.written_since_gc += req.bytes;
                let mut t = self.cfg.write_latency
                    + transfer_time(req.bytes, self.cfg.write_bw_per_way);
                if self.cfg.gc_interval_bytes > 0
                    && self.written_since_gc >= self.cfg.gc_interval_bytes
                {
                    self.written_since_gc = 0;
                    let jitter = 1.0 + self.rng.range_f64(-0.3, 0.3);
                    t += SimDuration::from_secs_f64(
                        self.cfg.gc_pause.as_secs_f64() * jitter,
                    );
                }
                t
            }
        }
    }

    fn start(&mut self, req: DeviceRequest, now: SimTime, out: &mut Vec<Started>) {
        let service = self.service_time(&req);
        self.in_service.push(req.id);
        out.push(Started {
            id: req.id,
            complete_at: now + service,
        });
    }
}

impl Device for Ssd {
    fn submit(&mut self, req: DeviceRequest, now: SimTime, out: &mut Vec<Started>) {
        if (self.in_service.len() as u32) < self.cfg.ways {
            self.start(req, now, out);
        } else {
            self.queue.push(req);
        }
    }

    fn on_complete(&mut self, id: u64, now: SimTime, out: &mut Vec<Started>) {
        let pos = self
            .in_service
            .iter()
            .position(|&x| x == id)
            .expect("completion id not in service");
        self.in_service.swap_remove(pos);
        if let Some(next) = self.queue.pop_front() {
            self.start(next, now, out);
        }
    }

    fn in_service(&self) -> usize {
        self.in_service.len()
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_simcore::units::MIB;

    fn quiet_cfg() -> SsdConfig {
        SsdConfig {
            gc_interval_bytes: 0,
            ..SsdConfig::default()
        }
    }

    fn read(id: u64, bytes: u64) -> DeviceRequest {
        DeviceRequest {
            id,
            kind: IoKind::Read,
            stream: 1,
            bytes,
        }
    }

    fn write(id: u64, bytes: u64) -> DeviceRequest {
        DeviceRequest {
            id,
            kind: IoKind::Write,
            stream: 1,
            bytes,
        }
    }

    /// Closed-loop run with `depth` outstanding; returns (elapsed, served).
    fn run_closed_loop(
        d: &mut Ssd,
        mk: impl Fn(u64) -> DeviceRequest,
        depth: u64,
        count: u64,
    ) -> SimDuration {
        let mut out = Vec::new();
        let mut next_id = 0;
        for _ in 0..depth.min(count) {
            d.submit(mk(next_id), SimTime::ZERO, &mut out);
            next_id += 1;
        }
        let mut events: Vec<Started> = std::mem::take(&mut out);
        let mut done = 0;
        let mut last = SimTime::ZERO;
        while done < count {
            events.sort_by_key(|s| std::cmp::Reverse(s.complete_at));
            let s = events.pop().expect("deadlock in closed loop");
            last = s.complete_at;
            d.on_complete(s.id, s.complete_at, &mut out);
            done += 1;
            if next_id < count {
                d.submit(mk(next_id), s.complete_at, &mut out);
                next_id += 1;
            }
            events.append(&mut out);
        }
        last - SimTime::ZERO
    }

    #[test]
    fn reads_faster_than_writes() {
        let mut d = Ssd::new(quiet_cfg());
        let tr = run_closed_loop(&mut d, |i| read(i, 4 * MIB), 1, 16);
        let mut d = Ssd::new(quiet_cfg());
        let tw = run_closed_loop(&mut d, |i| write(1000 + i, 4 * MIB), 1, 16);
        assert!(
            tw.as_secs_f64() > 1.4 * tr.as_secs_f64(),
            "write/read asymmetry missing: {tw} vs {tr}"
        );
    }

    #[test]
    fn throughput_grows_until_ways_saturate() {
        let count = 64;
        let t1 = run_closed_loop(&mut Ssd::new(quiet_cfg()), |i| read(i, 4 * MIB), 1, count);
        let t2 = run_closed_loop(&mut Ssd::new(quiet_cfg()), |i| read(i, 4 * MIB), 2, count);
        let t4 = run_closed_loop(&mut Ssd::new(quiet_cfg()), |i| read(i, 4 * MIB), 4, count);
        // depth 2 should halve the elapsed time; depth 4 adds nothing
        // (ways = 2).
        assert!(t2.as_secs_f64() < 0.6 * t1.as_secs_f64(), "{t2} !<< {t1}");
        assert!(
            (t4.as_secs_f64() - t2.as_secs_f64()).abs() < 0.1 * t2.as_secs_f64(),
            "depth beyond ways changed throughput: {t4} vs {t2}"
        );
    }

    #[test]
    fn reads_wait_behind_queued_writes() {
        let mut d = Ssd::new(quiet_cfg());
        let mut out = Vec::new();
        // Fill both channels and the queue with writes, then queue a read.
        for i in 0..6 {
            d.submit(write(i, 4 * MIB), SimTime::ZERO, &mut out);
        }
        d.submit(read(100, 4 * MIB), SimTime::ZERO, &mut out);
        assert_eq!(d.in_service(), 2);
        assert_eq!(d.queued(), 5);
        // Drain: the read must be served last (FIFO).
        let mut events: Vec<Started> = std::mem::take(&mut out);
        let mut last_id = 0;
        while !events.is_empty() {
            events.sort_by_key(|s| std::cmp::Reverse(s.complete_at));
            let s = events.pop().unwrap();
            d.on_complete(s.id, s.complete_at, &mut out);
            last_id = s.id;
            events.append(&mut out);
        }
        assert_eq!(last_id, 100, "read should drain after earlier writes");
    }

    #[test]
    fn gc_pause_charged_periodically() {
        let cfg = SsdConfig {
            gc_interval_bytes: 8 * MIB,
            gc_pause: SimDuration::from_millis(50),
            ..SsdConfig::default()
        };
        let mut d = Ssd::new(cfg);
        let mut out = Vec::new();
        // Two 4 MiB writes cross the 8 MiB threshold on the second.
        d.submit(write(1, 4 * MIB), SimTime::ZERO, &mut out);
        d.submit(write(2, 4 * MIB), SimTime::ZERO, &mut out);
        let s1 = out[0].complete_at - SimTime::ZERO;
        let s2 = out[1].complete_at - SimTime::ZERO;
        assert!(
            s2.as_secs_f64() > s1.as_secs_f64() + 0.030,
            "second write should carry the GC pause: {s1} vs {s2}"
        );
    }
}
