//! `bench obs` → `BENCH_obs.json`, the cost record of the `ibis-obs`
//! flight recorder:
//!
//! 1. **Simulation wall-clock**: `obs_overhead`'s contended SFQ(D2) run at
//!    quick scale, timed with the recorder off and on (best of three
//!    each), plus the event rate the recorder absorbed and the bytes it
//!    retained.
//! 2. **Recorder micro**: that run's recording replayed into a fresh
//!    recorder (time, then node order), timing `record` per event and
//!    `finish` per event (best of seven each).
//! 3. **Scheduler micro**: the SFQ(D) request lifecycle ns/op with the
//!    emit branches cold (recording off — the cost every untraced run
//!    pays) and hot (recording on, buffers drained per op).

use crate::best_of_3;
use ibis_bench::experiments::{hdd_cluster, pinned, sfqd2};
use ibis_bench::figs::obs_overhead::contended;
use ibis_bench::tables::{
    micro_sched, time_lifecycle, MICRO_BYTES, MICRO_CASE, MICRO_FLOWS, MICRO_LATENCY,
};
use ibis_bench::{json, ScaleProfile};
use ibis_cluster::prelude::*;
use ibis_core::prelude::*;
use ibis_obs::{FlightRecorder, ObsConfig, Recording};
use ibis_simcore::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-seven ns per event for recording every event of `rec` into a
/// fresh recorder of `capacity` per node, and for finishing it.
fn recorder_micro(rec: &Recording, capacity: usize) -> (f64, f64) {
    let per_event = 1e9 / rec.len().max(1) as f64;
    let (mut record, mut finish) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        let mut fr = FlightRecorder::new(rec.meta.nodes, capacity);
        let t = Instant::now();
        for &ev in rec.events() {
            fr.record(black_box(ev));
        }
        record = record.min(t.elapsed().as_secs_f64() * per_event);
        let t = Instant::now();
        black_box(fr.finish(rec.meta.clone()));
        finish = finish.min(t.elapsed().as_secs_f64() * per_event);
    }
    (record, finish)
}

/// The SFQ(D) submit → dispatch → complete lifecycle, with the recording
/// buffers either cold (one untaken branch per emit site) or hot
/// (events pushed and drained per op, as the engine does).
fn micro(recording: bool) -> f64 {
    let mut sched = micro_sched();
    sched.set_recording(recording);
    let mut sink = Vec::new();
    let mut id = 0u64;
    time_lifecycle(move || {
        let app = AppId(id as u32 % MICRO_FLOWS);
        sched.submit(
            Request::new(id, app, IoKind::Read, MICRO_BYTES),
            SimTime::ZERO,
        );
        id += 1;
        let r = sched.pop_dispatch(SimTime::ZERO).expect("dispatch");
        sched.on_complete(r.app, r.kind, r.bytes, MICRO_LATENCY, SimTime::ZERO);
        if recording {
            sched.take_events(&mut sink);
            sink.clear();
        }
        black_box(r.id);
    })
}

/// Measures the record into `out`; it has no gate.
pub fn run(out: &str) {
    let timed = |obs| {
        let cfg = ClusterConfig {
            obs,
            ..pinned(hdd_cluster(sfqd2()))
        };
        best_of_3(|| contended(ScaleProfile::Quick, cfg.clone()))
    };
    eprintln!("[bench obs] timing contended sim, recorder off ...");
    let (off_secs, _) = timed(ObsConfig::default());
    eprintln!("[bench obs] timing contended sim, recorder on ...");
    let capacity = 1 << 16;
    let (on_secs, on_report) = timed(ObsConfig::enabled(capacity));
    let rec = on_report.recording.as_ref().expect("recorder on");
    let overhead_pct = (on_secs / off_secs - 1.0) * 100.0;
    let events_per_sec = rec.seen() as f64 / on_secs.max(1e-9);

    eprintln!("[bench obs] recorder micro, record vs finish per event ...");
    let (record_ns, finish_ns) = recorder_micro(rec, capacity);

    eprintln!("[bench obs] scheduler micro, emit branches cold vs hot ...");
    let cold_ns = micro(false);
    let hot_ns = micro(true);
    let emit_overhead_pct = (hot_ns / cold_ns - 1.0) * 100.0;

    let mut w = json::bench_writer("obs");
    w.open_object(Some("sim_wall_clock"));
    w.string(Some("case"), "wc32_vs_teragen_sfqd2_quick");
    w.number(Some("recorder_off_secs"), off_secs);
    w.number(Some("recorder_on_secs"), on_secs);
    w.number(Some("overhead_pct"), overhead_pct);
    w.number(Some("events_seen"), rec.seen() as f64);
    w.number(Some("events_per_sec"), events_per_sec);
    w.number(Some("retained_bytes"), rec.retained_bytes() as f64);
    w.number(Some("dropped_events"), rec.dropped_total() as f64);
    w.close();
    w.open_object(Some("recorder_micro"));
    w.number(Some("events"), rec.len() as f64);
    w.number(Some("record_ns_per_event"), record_ns);
    w.number(Some("finish_ns_per_event"), finish_ns);
    w.close();
    w.open_object(Some("scheduler_micro"));
    w.string(Some("case"), MICRO_CASE);
    w.number(Some("recording_off_ns_per_op"), cold_ns);
    w.number(Some("recording_on_ns_per_op"), hot_ns);
    w.number(Some("emit_overhead_pct"), emit_overhead_pct);
    w.close();
    json::write_bench(w, out);
    eprintln!(
        "[bench obs] {out}: sim {off_secs:.2}s → {on_secs:.2}s \
         ({overhead_pct:+.1}%), {events_per_sec:.0} events/s, \
         {:.0} KB retained; record {record_ns:.1} + finish {finish_ns:.1} ns/event; \
         micro {cold_ns:.0} → {hot_ns:.0} ns/op ({emit_overhead_pct:+.1}%)",
        rec.retained_bytes() as f64 / 1e3
    );
}
