//! Order statistics for repeated measurements and job latencies.

/// Median and quartiles of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; all zeros when empty.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Summary {
            median: median_sorted(&v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles of sorted `v` by the exclusive method, the
/// default of Python's `statistics.quantiles(v, n=4)`, so spreads read the
/// same here as in any script that recomputes them from saved runs.
fn quartiles(v: &[f64]) -> (f64, f64) {
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// The highest whole percentile that still has at least ten of `jobs`
/// samples beyond it; the median when there are too few jobs for any.
pub fn tail_percentile(jobs: usize) -> u32 {
    if jobs <= 20 {
        50
    } else {
        (100 * (jobs - 10) / jobs) as u32
    }
}

/// The `p`-th percentile of sorted `v` by nearest rank (0 when empty).
pub fn percentile(v: &[f64], p: u32) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}
