//! In-memory spans around the benchmark's calls into each layer, written
//! out as a Chrome trace when the pass ends.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran inside it.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the origin (equal to start while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which traced pass the span belongs to.
    pub run: u32,
}

/// Span recorder. Spans nest: a span entered while another is open is
/// that span's child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the parts covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    /// An empty recorder for traced pass `run`.
    pub fn new(run: u32) -> Spans {
        Spans {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    pub fn exit(&mut self) -> f64 {
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        let s = &mut self.spans[i];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        self.enter(name);
        let out = f(self);
        (out, self.exit())
    }

    /// Total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, the run id as the process.
    pub fn chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\": ");
            json::string(&mut out, s.name);
            out.push_str(", \"ph\": \"X\", \"ts\": ");
            json::number(&mut out, s.start_ns as f64 / 1e3);
            out.push_str(", \"dur\": ");
            json::number(&mut out, (s.end_ns - s.start_ns) as f64 / 1e3);
            out.push_str(&format!(
                ", \"pid\": {}, \"tid\": 0, \"args\": {{\"id\": {i}",
                s.run
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(", \"parent\": {p}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
