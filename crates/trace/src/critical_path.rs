//! Critical-path extraction over a DAG of timed spans.
//!
//! Generic over anything with a name, a `[start, end)` interval, and
//! dependency edges: `workgen` DAG stages, span-tree jobs, or task
//! chains. The critical path is the dependency chain with the largest
//! total duration — the chain that bounds the makespan, since every
//! other chain could shrink to zero without finishing later than it.

/// One node of the timed DAG. Dependencies must point at smaller
/// indices (the natural order for `workgen::DagSpec` stages).
#[derive(Debug, Clone, PartialEq)]
pub struct CpNode {
    /// Display label ("reduce", "stage-3", "job 17"…).
    pub label: String,
    /// Span start, nanoseconds.
    pub start_ns: u64,
    /// Span end, nanoseconds.
    pub end_ns: u64,
    /// Indices of the nodes this one depends on (all `<` own index).
    pub deps: Vec<usize>,
}

impl CpNode {
    /// Span duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The extracted path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Node indices along the path, dependency order (source first).
    pub nodes: Vec<usize>,
    /// Total duration of the path's spans, nanoseconds.
    pub length_ns: u64,
    /// Path duration as a fraction of the DAG makespan (max end − min
    /// start); 1.0 means the path alone bounds the makespan, lower
    /// values mean inter-stage gaps (queueing, slot waits) dominate.
    pub coverage: f64,
}

/// Longest-duration dependency chain via one topological DP pass.
/// Ties break toward the smaller predecessor index, so the extraction
/// is deterministic. Panics if a dependency points forward.
pub fn critical_path(nodes: &[CpNode]) -> CriticalPath {
    if nodes.is_empty() {
        return CriticalPath::default();
    }
    let mut best: Vec<u64> = Vec::with_capacity(nodes.len());
    let mut from: Vec<Option<usize>> = Vec::with_capacity(nodes.len());
    for (i, n) in nodes.iter().enumerate() {
        let mut b = 0u64;
        let mut f = None;
        for &d in &n.deps {
            assert!(
                d < i,
                "critical_path: dependency {d} of node {i} is not earlier"
            );
            if best[d] > b {
                b = best[d];
                f = Some(d);
            }
        }
        best.push(b + n.duration_ns());
        from.push(f);
    }
    let (mut at, _) = best
        .iter()
        .enumerate()
        .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
        .expect("non-empty");
    let length_ns = best[at];
    let mut path = vec![at];
    while let Some(p) = from[at] {
        path.push(p);
        at = p;
    }
    path.reverse();
    let span = nodes.iter().map(|n| n.end_ns).max().unwrap_or(0)
        - nodes.iter().map(|n| n.start_ns).min().unwrap_or(0);
    CriticalPath {
        nodes: path,
        length_ns,
        coverage: if span == 0 {
            1.0
        } else {
            length_ns as f64 / span as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(label: &str, start: u64, end: u64, deps: &[usize]) -> CpNode {
        CpNode {
            label: label.into(),
            start_ns: start,
            end_ns: end,
            deps: deps.to_vec(),
        }
    }

    #[test]
    fn diamond_picks_the_longer_arm() {
        // a → {b (long), c (short)} → d
        let nodes = vec![
            n("a", 0, 100, &[]),
            n("b", 100, 500, &[0]),
            n("c", 100, 150, &[0]),
            n("d", 500, 600, &[1, 2]),
        ];
        let cp = critical_path(&nodes);
        assert_eq!(cp.nodes, vec![0, 1, 3]);
        assert_eq!(cp.length_ns, 600);
        assert!((cp.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaps_lower_coverage() {
        let nodes = vec![n("a", 0, 100, &[]), n("b", 900, 1000, &[0])];
        let cp = critical_path(&nodes);
        assert_eq!(cp.length_ns, 200);
        assert!((cp.coverage - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_dag_is_empty_path() {
        assert_eq!(critical_path(&[]), CriticalPath::default());
    }
}
