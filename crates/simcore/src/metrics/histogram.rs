//! Log-bucketed histogram for latency distributions.

/// A histogram with logarithmically spaced buckets, suitable for latencies
/// that span nanoseconds to seconds. Values are recorded as `u64` (we use
/// nanoseconds); quantile queries return the upper bound of the bucket the
/// quantile falls in, so the error is bounded by the bucket ratio
/// (2^(1/4) ≈ 19 % per bucket with the default 4 sub-buckets per octave).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// counts[i] counts values in bucket i; bucket boundaries are
    /// `floor(2^(i/SUB))` scaled — see `bucket_of`.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Sub-buckets per octave (power of two). 4 gives ~19 % relative bucket
/// width, plenty for scheduler latency comparisons.
const SUB: u32 = 4;
/// Number of buckets: 64 octaves × SUB is more than a u64 can span.
const NBUCKETS: usize = (64 * SUB as usize) + 1;

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    let exp = 63 - value.leading_zeros(); // floor(log2(value))
    const SUB_BITS: u32 = 2; // log2(SUB)
                             // Sub-bucket = the SUB_BITS bits immediately below the leading bit.
    let sub = if exp >= SUB_BITS {
        ((value >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize
    } else {
        ((value << (SUB_BITS - exp)) & (SUB as u64 - 1)) as usize
    };
    (exp as usize) * SUB as usize + sub + 1
}

fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        return 0;
    }
    let b = bucket - 1;
    let exp = (b / SUB as usize) as u32;
    let sub = (b % SUB as usize) as u64 + 1;
    // upper bound = 2^exp * (1 + sub/SUB)
    let base = 1u64 << exp;
    base.saturating_add(base.saturating_mul(sub) / SUB as u64)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NBUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let b = bucket_of(value).min(NBUCKETS - 1);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values (not bucketed), 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact minimum recorded value (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket in
    /// which the q-th value falls (clamped by the exact min/max). `None` if
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_monotone() {
        let mut prev = 0;
        for b in 1..200 {
            let ub = bucket_upper_bound(b);
            assert!(ub >= prev, "bucket {b}: {ub} < {prev}");
            prev = ub;
        }
    }

    #[test]
    fn bucket_of_respects_bounds() {
        for v in [1u64, 2, 3, 5, 100, 1_000, 123_456, 1 << 40] {
            let b = bucket_of(v);
            let ub = bucket_upper_bound(b);
            assert!(v <= ub, "value {v} above its bucket bound {ub}");
            if b > 1 {
                // Truncating integer bounds can collapse adjacent buckets at
                // tiny values, so the lower bound check is non-strict.
                let lb = bucket_upper_bound(b - 1);
                assert!(v >= lb, "value {v} below bucket lower bound {lb}");
            }
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
    }

    #[test]
    fn quantiles_bracket_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // within one bucket (~19 %) of the true quantile
        assert!(
            (p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.25,
            "p50 {p50}"
        );
        assert!(
            (p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.25,
            "p99 {p99}"
        );
        assert!(p50 <= p99);
    }

    #[test]
    fn quantile_edges() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.quantile(0.0), Some(42));
        assert_eq!(h.quantile(1.0), Some(42));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn zero_values_recorded() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(0));
    }

    #[test]
    fn merge_empty_histograms() {
        // empty ⊕ empty stays empty: min/max stay None, not sentinel values.
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.quantile(0.5), None);
        assert_eq!(a.mean(), 0.0);
    }

    #[test]
    fn merge_single_sample_into_empty() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(42);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), Some(42));
        assert_eq!(a.max(), Some(42));
        assert_eq!(a.quantile(1.0), Some(42));
    }

    #[test]
    fn merge_disjoint_ranges_preserves_quantile_order() {
        let mut lo = Histogram::new();
        let mut hi = Histogram::new();
        for v in 1..=100u64 {
            lo.record(v);
            hi.record(v * 1_000_000);
        }
        lo.merge(&hi);
        assert_eq!(lo.count(), 200);
        // Half the mass is below 1e6, so p25 sits in the low range and p75
        // in the high range.
        assert!(lo.quantile(0.25).unwrap() <= 100);
        assert!(lo.quantile(0.75).unwrap() >= 1_000_000);
        assert_eq!(lo.min(), Some(1));
        assert_eq!(lo.max(), Some(100_000_000));
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.mean(), 505.0);
    }
}
