//! Emits `BENCH_sweep.json` — the machine-readable record behind the
//! sweep engine's acceptance numbers:
//!
//! 1. **Suite wall-clock**: the full quick-scale figure suite timed once
//!    serially (`IBIS_JOBS=1`) and once at the parallel width
//!    (`IBIS_BENCH_JOBS`, default the host's cores). On a multi-core
//!    machine the parallel pass is the `all_experiments` speedup; on a
//!    single core the two times coincide (recorded as-is, with the core
//!    count).
//! 2. **Scheduler micro**: the SFQ(D) request lifecycle (submit →
//!    dispatch → complete) on the dense flow table vs a faithful
//!    `HashMap`-keyed reference of the pre-dense implementation.
//! 3. **Table micro**: the same lifecycle plus the engine's side-table
//!    bookkeeping, generational slabs vs the pre-slab `HashMap` tables
//!    (the shared harness in `ibis_bench::tables`).
//!
//! The wall-clock record states whether the speedup is meaningful: each
//! run is one serial event loop and the sweep's calling thread only
//! waits on its workers, so the pass keeps exactly `width` threads busy.
//! When the width exceeds the host's cores, the "parallel" pass
//! time-slices them and the ratio measures scheduler overhead, not the
//! sweep engine — `speedup_meaningful` is `false` and the number must
//! not be gated on.
//!
//! Usage: `bench_sweep [output-path]` (default `BENCH_sweep.json`).

use ibis_bench::figs::suite;
use ibis_bench::tables::{time_lifecycle, HashTables, SlabTables, MICRO_CASE};
use ibis_bench::{json, ScaleProfile};
use ibis_core::prelude::*;
use ibis_simcore::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Times one full suite pass at the given sweep width.
fn time_suite(jobs: usize) -> f64 {
    std::env::set_var("IBIS_JOBS", jobs.to_string());
    let scale = ScaleProfile::from_env();
    let t = Instant::now();
    for e in suite() {
        let sink = (e.run)(scale);
        black_box(sink); // figure outputs are printed, not saved
        eprintln!("[bench_sweep jobs={jobs}] {} done", e.name);
    }
    t.elapsed().as_secs_f64()
}

/// The pre-dense SFQ(D) hot path: flow state and service accounting keyed
/// by `AppId` in `HashMap`s, the heap re-resolving the app on dispatch.
/// Mirrors the tag math of `ibis_core::sfq` so the two sides do the same
/// arithmetic and differ only in the lookups the refactor removed.
mod reference {
    use super::*;

    struct Flow {
        weight: f64,
        last_finish: f64,
        backlog: u64,
    }

    #[derive(PartialEq)]
    struct Entry {
        start: f64,
        seq: u64,
        req: Request,
    }

    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.start
                .total_cmp(&other.start)
                .then(self.seq.cmp(&other.seq))
        }
    }

    pub struct HashSfq {
        flows: HashMap<AppId, Flow>,
        queue: BinaryHeap<Reverse<Entry>>,
        service: HashMap<AppId, u64>,
        virtual_time: f64,
        outstanding: u32,
        depth: u32,
        seq: u64,
    }

    impl HashSfq {
        pub fn new(depth: u32) -> Self {
            HashSfq {
                flows: HashMap::new(),
                queue: BinaryHeap::new(),
                service: HashMap::new(),
                virtual_time: 0.0,
                outstanding: 0,
                depth,
                seq: 0,
            }
        }

        pub fn submit(&mut self, req: Request) {
            let flow = self.flows.entry(req.app).or_insert(Flow {
                weight: 1.0,
                last_finish: 0.0,
                backlog: 0,
            });
            let start = self.virtual_time.max(flow.last_finish);
            flow.last_finish = start + req.bytes as f64 / flow.weight;
            flow.backlog += 1;
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Reverse(Entry { start, seq, req }));
        }

        pub fn pop_dispatch(&mut self) -> Option<Request> {
            if self.outstanding >= self.depth {
                return None;
            }
            let Reverse(entry) = self.queue.pop()?;
            self.virtual_time = entry.start;
            // The lookup the dense index removed: re-resolve the flow by app.
            let flow = self.flows.get_mut(&entry.req.app).expect("flow exists");
            flow.backlog -= 1;
            self.outstanding += 1;
            Some(entry.req)
        }

        pub fn on_complete(&mut self, app: AppId, bytes: u64) {
            self.outstanding -= 1;
            *self.service.entry(app).or_insert(0) += bytes;
        }
    }
}

fn micro(flows: u32, depth: u32) -> (f64, f64) {
    let mut dense = (Policy::SfqD { depth }).build();
    for f in 0..flows {
        dense.set_weight(AppId(f), 1.0 + f as f64);
    }
    let mut id = 0u64;
    let dense_ns = time_lifecycle(|| {
        let app = AppId(id as u32 % flows);
        dense.submit(Request::new(id, app, IoKind::Read, 4 << 20), SimTime::ZERO);
        id += 1;
        let r = dense.pop_dispatch(SimTime::ZERO).expect("dispatch");
        dense.on_complete(
            r.app,
            r.kind,
            r.bytes,
            SimDuration::from_millis(5),
            SimTime::ZERO,
        );
        black_box(r.id);
    });

    let mut hash = reference::HashSfq::new(depth);
    let mut id = 0u64;
    let hash_ns = time_lifecycle(|| {
        let app = AppId(id as u32 % flows);
        hash.submit(Request::new(id, app, IoKind::Read, 4 << 20));
        id += 1;
        let r = hash.pop_dispatch().expect("dispatch");
        hash.on_complete(r.app, r.bytes);
        black_box(r.id);
    });

    (dense_ns, hash_ns)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let cores = ibis_core::env::available_cores();
    let par_jobs = ibis_core::env::count_from_env("IBIS_BENCH_JOBS").unwrap_or(cores);

    eprintln!("[bench_sweep] timing suite at IBIS_JOBS=1 ...");
    let serial_secs = time_suite(1);
    eprintln!("[bench_sweep] timing suite at IBIS_JOBS={par_jobs} ...");
    let parallel_secs = time_suite(par_jobs);

    eprintln!("[bench_sweep] scheduler micro (dense vs HashMap reference) ...");
    let (dense_ns, hash_ns) = micro(8, 8);
    let improvement_pct = (1.0 - dense_ns / hash_ns) * 100.0;

    eprintln!("[bench_sweep] table micro (slab vs HashMap tables) ...");
    let mut slab_tables = SlabTables::new();
    let slab_ns = time_lifecycle(|| slab_tables.step());
    let mut hash_tables = HashTables::new();
    let table_hash_ns = time_lifecycle(|| hash_tables.step());
    let table_improvement_pct = (1.0 - slab_ns / table_hash_ns) * 100.0;

    // A "speedup" measured with fewer cores than workers is host
    // saturation, not the sweep engine: record it, but mark it so no
    // gate treats a time-sliced ratio as a regression.
    let speedup = serial_secs / parallel_secs;
    let speedup_meaningful = par_jobs <= cores;

    let mut w = json::bench_writer("sweep");
    w.string(Some("scale"), ScaleProfile::from_env().label());
    w.number(Some("host_cores"), cores as f64);
    w.open_object(Some("suite_wall_clock"));
    w.number(Some("experiments"), suite().len() as f64);
    w.number(Some("requested_jobs"), par_jobs as f64);
    w.number(Some("effective_workers"), par_jobs.min(cores) as f64);
    w.number(Some("jobs_1_secs"), serial_secs);
    w.number(Some(&format!("jobs_{par_jobs}_secs")), parallel_secs);
    w.number(Some("speedup"), speedup);
    w.boolean(Some("speedup_meaningful"), speedup_meaningful);
    w.string(
        Some("speedup_status"),
        if speedup_meaningful {
            "parallel speedup over dedicated cores"
        } else {
            "not_meaningful: host has fewer cores than the sweep width"
        },
    );
    w.close();
    w.open_object(Some("scheduler_micro"));
    w.string(Some("case"), MICRO_CASE);
    w.number(Some("dense_flow_table_ns_per_op"), dense_ns);
    w.number(Some("hashmap_reference_ns_per_op"), hash_ns);
    w.number(Some("improvement_pct"), improvement_pct);
    w.close();
    w.open_object(Some("table_micro"));
    w.string(Some("case"), MICRO_CASE);
    w.number(Some("slab_tables_ns_per_op"), slab_ns);
    w.number(Some("hashmap_tables_ns_per_op"), table_hash_ns);
    w.number(Some("improvement_pct"), table_improvement_pct);
    w.close();
    json::write_bench(w, &out_path);
    eprintln!(
        "[bench_sweep] {out_path}: suite {serial_secs:.1}s → {parallel_secs:.1}s \
         (×{speedup:.2} at {par_jobs} jobs, {cores} cores{}); sched micro {hash_ns:.0} → \
         {dense_ns:.0} ns/op ({improvement_pct:+.1}%); table micro {table_hash_ns:.0} → \
         {slab_ns:.0} ns/op ({table_improvement_pct:+.1}%)",
        if speedup_meaningful { "" } else { ", not meaningful" },
    );
}
