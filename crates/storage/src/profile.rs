//! Offline device profiling — the paper's §4 procedure for choosing the
//! SFQ(D2) controller's reference latency:
//!
//! > "The reference latency is decided offline by profiling the storage
//! > using a synthetic MapReduce workload with increasing I/O concurrency.
//! > Both the I/O latency and throughput are measured during the profiling,
//! > and the I/O latency observed before the storage starts to saturate is
//! > the reference latency for the controller. [...] If the storage's read
//! > and write performance are asymmetric such as in SSDs, the profiling
//! > can give separate reference latencies for reads and writes."
//!
//! [`profile_device`] drives a device clone at each candidate depth with a
//! closed-loop workload of `streams` concurrent sequential streams (the
//! synthetic stand-in for concurrent MapReduce tasks), measures steady-state
//! mean latency and aggregate throughput, and picks the latency at the
//! smallest depth that achieves the saturation throughput (within
//! `SATURATION_TOLERANCE`).

use crate::device::{Device, DeviceModel};
use crate::request::{DeviceRequest, IoKind, Started};
use ibis_simcore::{SimDuration, SimTime};

/// One measured point of the concurrency sweep.
#[derive(Debug, Clone, Copy)]
pub struct ProfilePoint {
    /// Outstanding-request depth used.
    pub depth: u32,
    /// Steady-state mean request latency.
    pub latency: SimDuration,
    /// Steady-state aggregate throughput, bytes/sec.
    pub throughput: f64,
}

/// Result of profiling a device: per-direction reference latencies plus
/// the full sweep curves for reports.
#[derive(Debug, Clone)]
pub struct ReferenceLatency {
    /// Reference latency for reads.
    pub read: SimDuration,
    /// Reference latency for writes.
    pub write: SimDuration,
    /// The read sweep.
    pub read_curve: Vec<ProfilePoint>,
    /// The write sweep.
    pub write_curve: Vec<ProfilePoint>,
}

/// Closed-loop fixed-depth run; returns the steady-state (latency,
/// throughput) measured over the second half of `count` requests.
fn run_fixed_depth(
    device: &DeviceModel,
    kind: IoKind,
    depth: u32,
    streams: u64,
    chunk: u64,
    count: u64,
) -> (SimDuration, f64) {
    let mut dev = device.clone();
    // Submission instant by request id; ids run 0..count.
    let mut submitted_at: Vec<SimTime> = Vec::with_capacity(count as usize);
    let mut events: Vec<Started> = Vec::new();
    let mut out = Vec::new();
    let mut next_id: u64 = 0;
    let submit = |dev: &mut DeviceModel,
                  now: SimTime,
                  next_id: &mut u64,
                  submitted_at: &mut Vec<SimTime>,
                  out: &mut Vec<Started>| {
        let id = *next_id;
        *next_id += 1;
        submitted_at.push(now);
        dev.submit(
            DeviceRequest {
                id,
                kind,
                stream: id % streams,
                bytes: chunk,
            },
            now,
            out,
        );
    };

    for _ in 0..depth.min(count as u32) {
        submit(
            &mut dev,
            SimTime::ZERO,
            &mut next_id,
            &mut submitted_at,
            &mut out,
        );
    }
    events.append(&mut out);

    let warmup = count / 2;
    let mut done: u64 = 0;
    let mut measured_bytes: u64 = 0;
    let mut measured_latency = SimDuration::ZERO;
    let mut measured_count: u64 = 0;
    let mut measure_start = SimTime::ZERO;
    let mut last = SimTime::ZERO;

    while done < count {
        // earliest event next (linear scan: depth is small)
        let idx = events
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.complete_at)
            .map(|(i, _)| i)
            .expect("closed loop starved");
        let s = events.swap_remove(idx);
        let submitted = *submitted_at.get(s.id as usize).expect("unknown completion");
        dev.on_complete(s.id, s.complete_at, &mut out);
        done += 1;
        last = s.complete_at;
        if done == warmup {
            measure_start = s.complete_at;
        } else if done > warmup {
            measured_bytes += chunk;
            measured_latency += s.complete_at - submitted;
            measured_count += 1;
        }
        if next_id < count {
            submit(
                &mut dev,
                s.complete_at,
                &mut next_id,
                &mut submitted_at,
                &mut out,
            );
        }
        events.append(&mut out);
    }

    let span = (last - measure_start).as_secs_f64();
    let throughput = if span > 0.0 {
        measured_bytes as f64 / span
    } else {
        0.0
    };
    let latency = if measured_count > 0 {
        measured_latency / measured_count
    } else {
        SimDuration::ZERO
    };
    (latency, throughput)
}

fn sweep(
    device: &DeviceModel,
    kind: IoKind,
    depths: &[u32],
    streams: u64,
    chunk: u64,
    count: u64,
) -> Vec<ProfilePoint> {
    depths
        .iter()
        .map(|&depth| {
            let (latency, throughput) = run_fixed_depth(device, kind, depth, streams, chunk, count);
            ProfilePoint {
                depth,
                latency,
                throughput,
            }
        })
        .collect()
}

/// "The latency observed before the storage starts to saturate": the
/// latency at the first depth where the *next* step of concurrency stops
/// buying a significant throughput gain. Latency grows roughly linearly
/// with depth while throughput flattens, so stopping at the first flat
/// step keeps the reference at the fair end of the fairness/utilisation
/// trade-off — deeper queues are then something the controller must *earn*
/// with below-reference latency, exactly the behaviour §7.2 describes.
fn knee_latency(curve: &[ProfilePoint]) -> SimDuration {
    if curve.is_empty() {
        return SimDuration::from_millis(10);
    }
    for w in curve.windows(2) {
        if w[1].throughput < SATURATION_TOLERANCE_GAIN * w[0].throughput {
            return w[0].latency;
        }
    }
    curve[curve.len() - 1].latency
}

/// Minimum relative throughput gain for one more depth step to count as
/// "not yet saturated".
const SATURATION_TOLERANCE_GAIN: f64 = 1.05;

/// Profiles `device` (by cloning it for each run — the device passed in is
/// not mutated) and returns per-direction reference latencies. `streams`
/// concurrent sequential streams model concurrent MapReduce tasks; `chunk`
/// is the per-request size the schedulers will see.
pub fn profile_device(device: &DeviceModel, streams: u64, chunk: u64) -> ReferenceLatency {
    let depths = [1, 2, 3, 4, 6, 8, 10, 12, 16];
    // Enough requests per point that the steady-state half dominates cache
    // warmup on write sweeps.
    let count = 600;
    let read_curve = sweep(device, IoKind::Read, &depths, streams, chunk, count);
    let write_curve = sweep(device, IoKind::Write, &depths, streams, chunk, count);
    ReferenceLatency {
        read: knee_latency(&read_curve),
        write: knee_latency(&write_curve),
        read_curve,
        write_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Ideal;
    use crate::hdd::{Hdd, HddConfig};
    use crate::ssd::{Ssd, SsdConfig};
    use ibis_simcore::units::MIB;

    fn quiet_hdd() -> DeviceModel {
        DeviceModel::Hdd(Hdd::new(HddConfig {
            flush_interval: SimDuration::MAX,
            ..HddConfig::default()
        }))
    }

    #[test]
    fn hdd_read_throughput_grows_with_depth() {
        let dev = quiet_hdd();
        let curve = sweep(&dev, IoKind::Read, &[1, 4, 12], 4, 4 * MIB, 400);
        assert!(
            curve[2].throughput > 1.05 * curve[0].throughput,
            "no depth gain: {} vs {}",
            curve[0].throughput,
            curve[2].throughput
        );
    }

    #[test]
    fn hdd_latency_grows_with_depth() {
        let dev = quiet_hdd();
        let curve = sweep(&dev, IoKind::Read, &[1, 8], 4, 4 * MIB, 400);
        assert!(curve[1].latency > curve[0].latency * 4);
    }

    #[test]
    fn profile_returns_positive_references() {
        let refs = profile_device(&quiet_hdd(), 4, 4 * MIB);
        assert!(refs.read > SimDuration::ZERO);
        assert!(refs.write > SimDuration::ZERO);
        assert_eq!(refs.read_curve.len(), 9);
    }

    #[test]
    fn ssd_write_reference_exceeds_read_reference() {
        let dev = DeviceModel::Ssd(Ssd::new(SsdConfig {
            gc_interval_bytes: 0,
            ..SsdConfig::default()
        }));
        let refs = profile_device(&dev, 4, 4 * MIB);
        assert!(
            refs.write > refs.read,
            "SSD asymmetry not reflected: read {} write {}",
            refs.read,
            refs.write
        );
    }

    #[test]
    fn ideal_device_saturates_at_depth_one() {
        // An ideal device has no queueing: every depth hits the same
        // throughput per request, so the knee is the first point.
        let dev = DeviceModel::Ideal(Ideal::new(200e6, SimDuration::from_micros(100)));
        let curve = sweep(&dev, IoKind::Read, &[1, 2, 4], 4, MIB, 200);
        let knee = knee_latency(&curve);
        // depth-1 latency: 100 µs + 1 MiB / 200 MB/s ≈ 5.3 ms
        assert_eq!(knee, curve[0].latency);
    }

    #[test]
    fn knee_latency_empty_curve_fallback() {
        assert_eq!(knee_latency(&[]), SimDuration::from_millis(10));
    }

    /// The closed loop with submission instants in a `HashMap` keyed by
    /// request id, as `run_fixed_depth` kept them before indexing a
    /// vector by id.
    fn run_fixed_depth_hashed(
        device: &DeviceModel,
        kind: IoKind,
        depth: u32,
        streams: u64,
        chunk: u64,
        count: u64,
    ) -> (SimDuration, f64) {
        use std::collections::HashMap;
        let mut dev = device.clone();
        let mut outstanding: HashMap<u64, SimTime> = HashMap::new();
        let mut events: Vec<Started> = Vec::new();
        let mut out = Vec::new();
        let mut next_id: u64 = 0;
        let submit = |dev: &mut DeviceModel,
                      now: SimTime,
                      next_id: &mut u64,
                      outstanding: &mut HashMap<u64, SimTime>,
                      out: &mut Vec<Started>| {
            let id = *next_id;
            *next_id += 1;
            outstanding.insert(id, now);
            let req = DeviceRequest {
                id,
                kind,
                stream: id % streams,
                bytes: chunk,
            };
            dev.submit(req, now, out);
        };
        for _ in 0..depth.min(count as u32) {
            submit(
                &mut dev,
                SimTime::ZERO,
                &mut next_id,
                &mut outstanding,
                &mut out,
            );
        }
        events.append(&mut out);
        let warmup = count / 2;
        let mut done: u64 = 0;
        let mut measured_bytes: u64 = 0;
        let mut measured_latency = SimDuration::ZERO;
        let mut measured_count: u64 = 0;
        let mut measure_start = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        while done < count {
            let idx = events
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.complete_at)
                .map(|(i, _)| i)
                .expect("closed loop starved");
            let s = events.swap_remove(idx);
            let submitted = outstanding.remove(&s.id).expect("unknown completion");
            dev.on_complete(s.id, s.complete_at, &mut out);
            done += 1;
            last = s.complete_at;
            if done == warmup {
                measure_start = s.complete_at;
            } else if done > warmup {
                measured_bytes += chunk;
                measured_latency += s.complete_at - submitted;
                measured_count += 1;
            }
            if next_id < count {
                submit(
                    &mut dev,
                    s.complete_at,
                    &mut next_id,
                    &mut outstanding,
                    &mut out,
                );
            }
            events.append(&mut out);
        }
        let span = (last - measure_start).as_secs_f64();
        let throughput = if span > 0.0 {
            measured_bytes as f64 / span
        } else {
            0.0
        };
        let latency = if measured_count > 0 {
            measured_latency / measured_count
        } else {
            SimDuration::ZERO
        };
        (latency, throughput)
    }

    #[test]
    fn profile_curves_match_the_hashed_loop() {
        let hdd = |seed: u64| {
            DeviceModel::Hdd(Hdd::new(HddConfig {
                seed,
                ..HddConfig::default()
            }))
        };
        let mut devices: Vec<DeviceModel> = [1, 7, 0xfb2009].into_iter().map(hdd).collect();
        devices.push(quiet_hdd());
        devices.push(DeviceModel::Ssd(Ssd::new(SsdConfig::default())));
        devices.push(DeviceModel::Ideal(Ideal::new(
            200e6,
            SimDuration::from_micros(100),
        )));
        for dev in &devices {
            let refs = profile_device(dev, 4, 4 * MIB);
            let curves = [
                (IoKind::Read, &refs.read_curve),
                (IoKind::Write, &refs.write_curve),
            ];
            for (kind, curve) in curves {
                for p in curve {
                    let (latency, throughput) =
                        run_fixed_depth_hashed(dev, kind, p.depth, 4, 4 * MIB, 600);
                    let what = format!("{kind:?} depth {}", p.depth);
                    assert_eq!(p.latency, latency, "{what}");
                    assert_eq!(p.throughput.to_bits(), throughput.to_bits(), "{what}");
                }
            }
        }
    }
}
