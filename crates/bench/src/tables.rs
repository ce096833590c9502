//! The scheduler micro harness: one interposed-I/O lifecycle (submit →
//! dispatch → complete) through an SFQ(D) scheduler, plus — in
//! [`SlabTables`] — the engine's bookkeeping, a generational slab entry
//! per I/O and a reused completion buffer.
//!
//! `bench_alloc` times and counts [`SlabTables`]; `bench obs` times the
//! bare scheduler with its event emission cold and hot.

use ibis_core::prelude::*;
use ibis_core::slab::{IoKey, Slab, SlabKey};
use ibis_simcore::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// The benchmark case the harness runs.
pub const MICRO_CASE: &str = "sfq_d8_lifecycle_8flows";
/// Flows (applications) in the micro case.
pub const MICRO_FLOWS: u32 = 8;
/// Scheduler dispatch depth in the micro case.
pub const MICRO_DEPTH: u32 = 8;

/// Bytes per request in the micro case.
pub const MICRO_BYTES: u64 = 4 << 20;
/// Device latency charged per completion in the micro case.
pub const MICRO_LATENCY: SimDuration = SimDuration::from_millis(5);

/// The micro case's scheduler: SFQ([`MICRO_DEPTH`]) with
/// [`MICRO_FLOWS`] flows weighted 1, 2, ….
pub fn micro_sched() -> Box<dyn IoScheduler + Send> {
    let mut sched = (Policy::SfqD { depth: MICRO_DEPTH }).build();
    for f in 0..MICRO_FLOWS {
        sched.set_weight(AppId(f), 1.0 + f as f64);
    }
    sched
}

/// Everything the engine remembers about an in-flight I/O, in one
/// entry.
struct Ctx {
    cont: u64,
    app: AppId,
    kind: IoKind,
    bytes: u64,
    dispatched: SimTime,
}

/// The engine's bookkeeping: one generational slab entry per I/O and a
/// reused completion scratch. Steady-state `step` performs zero heap
/// allocations once the slab and scheduler are warm.
pub struct SlabTables {
    sched: Box<dyn IoScheduler + Send>,
    table: Slab<IoKey, Ctx>,
    started: Vec<u64>,
    seq: u64,
}

impl Default for SlabTables {
    fn default() -> Self {
        Self::new()
    }
}

impl SlabTables {
    /// A fresh harness on the micro case.
    pub fn new() -> Self {
        SlabTables {
            sched: micro_sched(),
            table: Slab::default(),
            started: Vec::new(),
            seq: 0,
        }
    }

    /// One full request lifecycle.
    pub fn step(&mut self) {
        let app = AppId(self.seq as u32 % MICRO_FLOWS);
        let key = self.table.insert(Ctx {
            cont: self.seq,
            app,
            kind: IoKind::Read,
            bytes: MICRO_BYTES,
            dispatched: SimTime::ZERO,
        });
        self.seq += 1;
        self.sched.submit(
            Request::new(key.encode(), app, IoKind::Read, MICRO_BYTES),
            SimTime::ZERO,
        );
        let r = self.sched.pop_dispatch(SimTime::ZERO).expect("dispatch");
        self.table
            .get_mut(IoKey::decode(r.id))
            .expect("ctx")
            .dispatched = SimTime::ZERO;
        self.started.clear();
        self.started.push(r.id);
        for i in 0..self.started.len() {
            let ctx = self
                .table
                .remove(IoKey::decode(self.started[i]))
                .expect("ctx");
            self.sched
                .on_complete(ctx.app, ctx.kind, ctx.bytes, MICRO_LATENCY, SimTime::ZERO);
            black_box(ctx.cont);
        }
    }
}

/// Best-of-samples ns/op for one lifecycle closure (the protocol every
/// scheduler micro in this crate uses: warm up one full batch, then keep
/// the fastest of 7 timed batches).
pub fn time_lifecycle(mut op: impl FnMut()) -> f64 {
    const BATCH: u32 = 200_000;
    for _ in 0..BATCH {
        op(); // warmup
    }
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..BATCH {
            op();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    best
}
