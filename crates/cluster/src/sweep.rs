//! The parallel experiment sweep engine.
//!
//! Every [`Experiment`] is an independent,
//! seed-deterministic simulation: it owns its RNGs, its metrics sinks,
//! and its event queue, and shares no mutable state with any other run.
//! That makes a *batch* of experiments embarrassingly parallel — and the
//! figure/table suite is mostly batches (a baseline plus N policies, an
//! ablation grid).
//!
//! [`SweepRunner`] fans a batch across a [`std::thread::scope`] worker
//! pool and returns results **in submission order**. Because each run is
//! deterministic and self-contained, the reports are byte-identical to
//! what the serial loop produces, at any thread count — the only shared
//! state is the work-distribution cursor, which sequences *scheduling*,
//! never *results*. The determinism test in
//! `tests/sweep_determinism.rs` enforces this at two widths.
//!
//! Width selection: `IBIS_JOBS` if set (clamped to ≥ 1), else
//! [`std::thread::available_parallelism`]. `IBIS_JOBS=1` is the exact
//! serial fallback — the batch runs inline on the calling thread with no
//! pool, no locks, and no cross-thread moves.
//!
//! This is the only parallelism in the simulator: each run is one serial
//! event loop (DESIGN.md §14), so a sweep of `IBIS_JOBS` runs keeps
//! exactly that many cores busy.

use crate::config::Experiment;
use crate::report::RunReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fans batches of independent jobs across a scoped thread pool.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    jobs: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl SweepRunner {
    /// A runner with the environment-selected width: `IBIS_JOBS` when
    /// set (clamped to ≥ 1), otherwise the machine's available
    /// parallelism.
    pub fn from_env() -> Self {
        Self::with_jobs(ibis_core::env::jobs_from_env())
    }

    /// A runner with an explicit width (clamped to ≥ 1).
    pub fn with_jobs(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// The worker count this runner fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `inputs` and returns the outputs in input order.
    ///
    /// `f` must be a pure function of its input (plus the index, provided
    /// for labeling); the runner guarantees only *where* and *when* each
    /// call runs, never changing *what* it computes. At width 1 this is
    /// exactly `inputs.into_iter().enumerate().map(f).collect()` on the
    /// calling thread.
    pub fn map<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        if self.jobs == 1 || inputs.len() <= 1 {
            // Exact serial fallback: no pool, no locks.
            return inputs
                .into_iter()
                .enumerate()
                .map(|(i, input)| f(i, input))
                .collect();
        }

        let n = inputs.len();
        let queue: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let workers = self.jobs.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let input = queue[idx]
                        .lock()
                        .expect("sweep input lock")
                        .take()
                        .expect("each sweep input is claimed exactly once");
                    let out = f(idx, input);
                    *slots[idx].lock().expect("sweep result lock") = Some(out);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep result lock")
                    .expect("every sweep slot is filled before the scope ends")
            })
            .collect()
    }

    /// Runs a batch of experiments, returning reports in batch order.
    pub fn run_all(&self, experiments: Vec<Experiment>) -> Vec<RunReport> {
        self.map(experiments, |_, exp| exp.run())
    }

    /// Runs a batch of thunks, returning their outputs in batch order.
    /// The thunks let callers capture per-run post-processing without
    /// materialising `Experiment`s up front.
    pub fn run_thunks<T, F>(&self, thunks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.map(thunks, |_, t| t())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order() {
        let runner = SweepRunner::with_jobs(4);
        let inputs: Vec<u64> = (0..64).collect();
        let out = runner.map(inputs, |i, x| {
            assert_eq!(i as u64, x);
            // Vary work so completion order differs from submission order.
            let spin = (x % 7) * 1000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            std::hint::black_box(acc);
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = SweepRunner::with_jobs(1).map((0..20).collect(), |i, x: u64| (i, x * x));
        let parallel = SweepRunner::with_jobs(8).map((0..20).collect(), |i, x: u64| (i, x * x));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn thunks_run_exactly_once_each() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let thunks: Vec<_> = (0..10)
            .map(|i| {
                let calls = &calls;
                move || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = SweepRunner::with_jobs(3).run_thunks(thunks);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn width_clamps_to_one() {
        assert_eq!(SweepRunner::with_jobs(0).jobs(), 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = SweepRunner::with_jobs(4).map(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }
}
