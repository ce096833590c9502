//! Self-contained deterministic PRNG and the sampling helpers the workload
//! models need.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 exactly as its authors recommend. It is implemented here
//! rather than pulled from a crate so that the published experiment numbers
//! cannot change under us when a dependency revs its stream.

/// A seedable, portable, non-cryptographic PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Identical seeds produce
    /// identical streams on every platform.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; used to give each node /
    /// job / device its own stream so adding one consumer does not perturb
    /// the draws seen by the others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives the seed of stream `stream` from a base seed, without any
    /// generator state: pure in both arguments, so consumers that own a
    /// numbered stream (a node's device) can be built in any order and
    /// still see the same draws. This is the sanctioned base-seed →
    /// per-stream derivation; the cluster's per-node device seeds use
    /// it.
    pub const fn stream_seed(base: u64, stream: u64) -> u64 {
        base.wrapping_add(stream.wrapping_mul(0x9E37_79B9))
    }

    /// A generator for numbered stream `stream` of the `base` seed —
    /// [`SimRng::new`] over [`SimRng::stream_seed`].
    pub fn for_stream(base: u64, stream: u64) -> SimRng {
        SimRng::new(Self::stream_seed(base, stream))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`, using the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        // Lemire-style rejection-free multiply-shift is overkill here; the
        // simple modulo bias is negligible for the span sizes the models
        // use (bias < 2^-40 for spans below 2^24) and keeps the stream easy
        // to reason about.
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential draw with the given mean (inverse rate).
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF. 1 - f64() is in (0, 1], so ln never sees zero.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal draw (Box–Muller; one of the pair is discarded for
    /// stream simplicity).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterised by the mean and standard deviation of
    /// the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Log-uniform draw in `[lo, hi)`: uniform in the exponent, matching
    /// how the paper describes the Facebook2009 ratio spreads ("0.05 to
    /// 10^3"). Requires `0 < lo < hi`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && lo < hi, "log_uniform needs 0 < lo < hi");
        (self.range_f64(lo.ln(), hi.ln())).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    /// Panics if `k > n`.
    ///
    /// The shuffle is sparse: instead of materialising the `n`-element
    /// pool it records only the positions its swaps displaced (position
    /// `p` holds `p` until a swap moves something else there). Step `i`
    /// draws `index(n - i)` exactly as the dense shuffle does and returns
    /// the same indices in the same order, but memory and time depend on
    /// `k` alone — one scan over at most `k` displaced positions per step —
    /// never on `n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        // (position, value) for every position a swap has moved a value to.
        let mut moved: Vec<(usize, usize)> = Vec::with_capacity(k);
        let value_at = |moved: &[(usize, usize)], p: usize| {
            moved.iter().find(|&&(q, _)| q == p).map_or(p, |&(_, v)| v)
        };
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + self.index(n - i);
            out.push(value_at(&moved, j));
            // Swap positions i and j. Later steps read only positions
            // above i, so only j's new value needs recording.
            if j != i {
                let vi = value_at(&moved, i);
                match moved.iter_mut().find(|(q, _)| *q == j) {
                    Some(entry) => entry.1 = vi,
                    None => moved.push((j, vi)),
                }
            }
        }
        out
    }

    /// Weighted index draw; weights must be non-negative with a positive
    /// sum.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_of_sibling_draws() {
        // fork(salt) must not be affected by how the *child* is used.
        let mut parent1 = SimRng::new(7);
        let _c1 = parent1.fork(1);
        let mut c2 = parent1.fork(2);

        let mut parent2 = SimRng::new(7);
        let mut d1 = parent2.fork(1);
        for _ in 0..100 {
            // consuming d1 heavily must not change what fork(2) yields
            d1.next_u64();
        }
        let mut d2 = parent2.fork(2);
        assert_eq!(c2.next_u64(), d2.next_u64());
    }

    #[test]
    fn stream_seeds_are_order_free_and_distinct() {
        // Pure derivation: building stream 7 before or after stream 3
        // (or never building 3 at all) yields the same stream 7.
        let mut a7 = SimRng::for_stream(42, 7);
        let _ = SimRng::for_stream(42, 3);
        let mut b7 = SimRng::for_stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a7.next_u64(), b7.next_u64());
        }
        // Distinct streams decorrelate.
        let mut s0 = SimRng::for_stream(42, 0);
        let mut s1 = SimRng::for_stream(42, 1);
        let same = (0..64).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::new(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn exp_mean_matches() {
        let mut r = SimRng::new(6);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(7);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn log_uniform_spans_decades() {
        let mut r = SimRng::new(8);
        let mut below_one = 0;
        let mut above_hundred = 0;
        for _ in 0..10_000 {
            let x = r.log_uniform(0.05, 1000.0);
            assert!((0.05..1000.0).contains(&x));
            if x < 1.0 {
                below_one += 1;
            }
            if x > 100.0 {
                above_hundred += 1;
            }
        }
        // log-uniform: each decade gets comparable mass.
        assert!(below_one > 2000, "below_one {below_one}");
        assert!(above_hundred > 500, "above_hundred {above_hundred}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SimRng::new(10);
        for _ in 0..100 {
            let s = r.sample_indices(8, 3);
            assert_eq!(s.len(), 3);
            let mut u = s.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 3);
            assert!(s.iter().all(|&i| i < 8));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(11);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }
}
