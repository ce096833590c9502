//! Criterion micro-benchmarks of the substrate models: device service
//! computation and the processor-sharing link. These bound the simulator's
//! event-processing cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ibis_simcore::SimTime;
use ibis_storage::{Device, DeviceRequest, Hdd, HddConfig, IoKind, PsLink, Ssd, SsdConfig};
use std::hint::black_box;

fn device_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_service");
    group.throughput(Throughput::Elements(1));

    group.bench_function("hdd_submit_complete", |b| {
        let mut d = Hdd::new(HddConfig::default());
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut now = SimTime::ZERO;
        b.iter(|| {
            out.clear();
            d.submit(
                DeviceRequest {
                    id,
                    kind: if id.is_multiple_of(2) { IoKind::Read } else { IoKind::Write },
                    stream: id % 4,
                    bytes: 4 << 20,
                },
                now,
                &mut out,
            );
            let s = out[0];
            now = s.complete_at;
            out.clear();
            d.on_complete(s.id, now, &mut out);
            id += 1;
            black_box(now)
        });
    });

    group.bench_function("ssd_submit_complete", |b| {
        let mut d = Ssd::new(SsdConfig::default());
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut now = SimTime::ZERO;
        b.iter(|| {
            out.clear();
            d.submit(
                DeviceRequest {
                    id,
                    kind: if id.is_multiple_of(2) { IoKind::Read } else { IoKind::Write },
                    stream: id % 4,
                    bytes: 4 << 20,
                },
                now,
                &mut out,
            );
            let s = out[0];
            now = s.complete_at;
            out.clear();
            d.on_complete(s.id, now, &mut out);
            id += 1;
            black_box(now)
        });
    });
    group.finish();
}

fn link_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("ps_link_churn");
    for flows in [4usize, 32, 128] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &flows| {
            let mut link = PsLink::new(125e6);
            let mut id = 0u64;
            let mut now = SimTime::ZERO;
            let mut timer = None;
            let mut finished = Vec::new();
            // prime with a steady set of flows
            for _ in 0..flows {
                timer = Some(link.start(id, 4 << 20, 1.0, now));
                id += 1;
            }
            b.iter(|| {
                // fire the earliest timer, replace every finished transfer
                let t = timer.take().expect("timer");
                now = t.at;
                finished.clear();
                timer = link.on_timer(now, t.epoch, &mut finished);
                for _ in &finished {
                    timer = Some(link.start(id, 4 << 20, 1.0, now));
                    id += 1;
                }
                black_box(link.active())
            });
        });
    }
    group.finish();
}

fn profiling_run(c: &mut Criterion) {
    // The §4 offline profiling procedure (runs once per experiment).
    c.bench_function("profile_hdd_device", |b| {
        let dev = ibis_storage::DeviceModel::Hdd(Hdd::new(HddConfig::default()));
        b.iter(|| black_box(ibis_storage::profile_device(&dev, 4, 4 << 20)));
    });
}

criterion_group!(benches, device_service, link_churn, profiling_run);
criterion_main!(benches);
