//! Engine self-profile: where the simulator's wall clock went.
//!
//! The event loop times every handler and banks the seconds by event
//! kind, so "why is this run slow" is answerable without a system
//! profiler: the per-kind rows show a handler whose cost grows with the
//! cluster, and whatever the handlers do not cover (event-queue pops,
//! bookkeeping between handlers) is the untracked remainder. Collected
//! only when tracing is enabled — the timer calls would otherwise tax
//! the hot loop.

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
    /// Wall seconds inside event handlers.
    pub handler_secs: f64,
    /// `handler_secs` split by event kind, one row per kind in the
    /// engine's declaration order.
    pub by_kind: Vec<KindProfile>,
}

impl EngineProfile {
    /// Wall seconds outside the handlers (event-queue pops, bookkeeping
    /// between handlers).
    pub fn untracked_secs(&self) -> f64 {
        (self.total_secs - self.handler_secs).max(0.0)
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

    /// Share of total wall time, in [0, 1].
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
            "engine {:.3}s: handlers {:.1}% | other {:.1}%",
            self.total_secs,
            100.0 * self.share(self.handler_secs),
            100.0 * self.share(self.untracked_secs()),
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
            handler_secs: 1.5,
            by_kind: Vec::new(),
        };
        assert!((p.share(p.handler_secs) - 0.75).abs() < 1e-12);
        assert!((p.untracked_secs() - 0.5).abs() < 1e-12);
        let s = p.to_string();
        assert!(s.contains("handlers 75.0% | other 25.0%"), "{s}");
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
