//! Engine self-profile: where the simulator's wall clock went.
//!
//! The partitioned engine (DESIGN.md §14) alternates window formation,
//! a parallel device-plane phase, and a serial apply replay; everything
//! else is the ordinary serial handler loop. The profile attributes
//! measured wall seconds to those phases so "why is this run slow"
//! is answerable without a system profiler; the serial loop further
//! splits handler time by event kind, which is what shows a handler
//! whose cost grows with the cluster. Collected only when tracing is
//! enabled — the timer calls would otherwise tax the hot loop.

use std::fmt;

/// Handler invocations and wall seconds of one event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindProfile {
    /// The event kind's name.
    pub kind: &'static str,
    /// Handler invocations.
    pub count: u64,
    /// Wall seconds spent in those handlers.
    pub secs: f64,
}

impl KindProfile {
    /// Mean handler cost in nanoseconds (0 when never invoked).
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.count as f64
        }
    }
}

/// Wall-clock attribution for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    /// Total wall seconds of the event loop.
    pub total_secs: f64,
    /// Window formation + member classification (serial).
    pub form_secs: f64,
    /// Parallel device-plane phase (worker pool busy).
    pub device_secs: f64,
    /// Serial apply replay of deferred member outputs.
    pub apply_secs: f64,
    /// Serial event handling (everything outside windows; includes the
    /// small-window serial fallback).
    pub handler_secs: f64,
    /// Windows formed.
    pub windows: u64,
    /// Windows large enough to run on the pool.
    pub pooled_windows: u64,
    /// The serial loop's `handler_secs` split by event kind, one row per
    /// kind in the engine's declaration order. Windowed execution
    /// leaves every row zero.
    pub by_kind: Vec<KindProfile>,
}

impl EngineProfile {
    /// Wall seconds not covered by the named phases (event-queue pops,
    /// bookkeeping between handlers).
    pub fn untracked_secs(&self) -> f64 {
        (self.total_secs - self.form_secs - self.device_secs - self.apply_secs
            - self.handler_secs)
            .max(0.0)
    }

    /// One row per profile kind, with counts zeroed.
    pub fn with_kinds(kinds: &[&'static str]) -> Self {
        EngineProfile {
            by_kind: kinds
                .iter()
                .map(|&kind| KindProfile {
                    kind,
                    ..KindProfile::default()
                })
                .collect(),
            ..EngineProfile::default()
        }
    }

    /// Banks one handler invocation of kind row `kind`.
    pub fn add_handler(&mut self, kind: usize, secs: f64) {
        self.handler_secs += secs;
        let row = &mut self.by_kind[kind];
        row.count += 1;
        row.secs += secs;
    }

    /// The per-kind rows that ran, costliest first: a table of kind,
    /// count, seconds, ns per call and share of total wall time.
    pub fn kind_table(&self) -> String {
        let mut rows: Vec<&KindProfile> = self.by_kind.iter().filter(|k| k.count > 0).collect();
        rows.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        let mut out = format!(
            "{:<14} {:>10} {:>9} {:>9} {:>7}\n",
            "event", "count", "secs", "ns/call", "share"
        );
        for k in rows {
            out.push_str(&format!(
                "{:<14} {:>10} {:>9.3} {:>9.0} {:>6.1}%\n",
                k.kind,
                k.count,
                k.secs,
                k.ns_per_call(),
                100.0 * self.share(k.secs),
            ));
        }
        out
    }

    /// Phase share of total wall time, in [0, 1].
    pub fn share(&self, secs: f64) -> f64 {
        if self.total_secs <= 0.0 {
            0.0
        } else {
            (secs / self.total_secs).clamp(0.0, 1.0)
        }
    }
}

impl fmt::Display for EngineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine {:.3}s: form {:.1}% | device {:.1}% | apply {:.1}% | \
             handlers {:.1}% | other {:.1}% ({} windows, {} pooled)",
            self.total_secs,
            100.0 * self.share(self.form_secs),
            100.0 * self.share(self.device_secs),
            100.0 * self.share(self.apply_secs),
            100.0 * self.share(self.handler_secs),
            100.0 * self.share(self.untracked_secs()),
            self.windows,
            self.pooled_windows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_untracked() {
        let p = EngineProfile {
            total_secs: 2.0,
            form_secs: 0.2,
            device_secs: 1.0,
            apply_secs: 0.3,
            handler_secs: 0.4,
            windows: 10,
            pooled_windows: 4,
            by_kind: Vec::new(),
        };
        assert!((p.share(p.device_secs) - 0.5).abs() < 1e-12);
        assert!((p.untracked_secs() - 0.1).abs() < 1e-12);
        let s = p.to_string();
        assert!(s.contains("10 windows"));
    }

    #[test]
    fn per_kind_rows_sum_into_handler_time() {
        let mut p = EngineProfile::with_kinds(&["Tick", "Done", "Idle"]);
        p.add_handler(1, 0.25);
        p.add_handler(0, 0.5);
        p.add_handler(1, 0.25);
        p.total_secs = 2.0;
        assert_eq!(p.handler_secs, 1.0);
        assert_eq!(p.by_kind[1].count, 2);
        assert!((p.by_kind[1].ns_per_call() - 0.25e9).abs() < 1e-3);
        let table = p.kind_table();
        // Costliest first (ties keep kind order), never-run kinds omitted.
        let order: Vec<&str> = table
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(order, ["Tick", "Done"]);
        assert!(table.contains("25.0%"), "{table}");
    }
}
