//! Shared worker-count environment parsing.
//!
//! One knob sizes the workspace's parallelism: `IBIS_JOBS`, how many
//! *experiments* a sweep runs concurrently (`ibis-cluster`'s
//! `SweepRunner`). A single simulation run is always one serial event
//! loop (DESIGN.md §14). The bench bins reuse [`count_from_env`] and
//! [`available_cores`] for their own width knobs.

/// Parses a positive worker count from the named environment variable.
///
/// Returns `None` when the variable is unset. A set-but-unparseable value
/// warns and falls back to 1 (matching the long-standing `IBIS_JOBS`
/// behaviour: a typo degrades to serial instead of crashing a sweep).
pub fn count_from_env(var: &str) -> Option<usize> {
    match std::env::var(var) {
        Ok(v) => Some(v.trim().parse::<usize>().map_or_else(
            |_| {
                eprintln!("warning: unparseable {var}={v:?}; using 1");
                1
            },
            |n| n.max(1),
        )),
        Err(_) => None,
    }
}

/// The machine's available parallelism (1 if undeterminable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment-selected sweep width: `IBIS_JOBS` when set (clamped to
/// ≥ 1), else the machine's available parallelism.
pub fn jobs_from_env() -> usize {
    count_from_env("IBIS_JOBS").unwrap_or_else(available_cores)
}

// `count_from_env` / `jobs_from_env` touch process-global environment
// state, which is racy to mutate from parallel unit tests; CI exercises
// them through `ibis-cluster`'s `sweep_determinism` under `IBIS_JOBS=2`.
