//! Heavy-tailed (and plain) scalar samplers for job sizing.
//!
//! MapReduce trace studies (SWIM / Facebook2009, Pastorelli et al.'s
//! size-based-scheduling work) agree on the shape: job sizes are heavy
//! tailed — most jobs are tiny, a small fraction carries most of the
//! bytes — and the input→shuffle / shuffle→output ratios span decades.
//! [`SizeDist`] expresses those envelopes as seeded, deterministic
//! samplers over a caller-provided [`SimRng`].

use ibis_simcore::rng::SimRng;

/// A scalar distribution sampled from a [`SimRng`].
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Always the same value.
    Fixed(f64),
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Log-uniform in `[lo, hi)` — equal mass per decade, the SWIM ratio
    /// envelope (§7.3's "ratios span 0.05 to 10³").
    LogUniform {
        /// Lower bound (inclusive), must be > 0.
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Bounded Pareto on `[lo, hi]` with tail index `alpha` — the classic
    /// heavy-tailed job-size model (small `alpha` ⇒ heavier tail; trace
    /// studies fit MapReduce job sizes around `alpha ≈ 0.5–1.5`).
    BoundedPareto {
        /// Tail index (> 0).
        alpha: f64,
        /// Lower bound (inclusive), must be > 0.
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Lognormal with the given log-space parameters, clamped to
    /// `[lo, hi]` so a deep tail draw cannot break testbed scaling.
    LogNormal {
        /// Mean of the underlying normal (log space).
        mu: f64,
        /// Standard deviation of the underlying normal (log space).
        sigma: f64,
        /// Clamp floor.
        lo: f64,
        /// Clamp ceiling.
        hi: f64,
    },
    /// Two-class mixture: with probability `heavy_fraction` draw uniform
    /// in `[heavy_lo, heavy_hi)`, otherwise uniform in `[lo, hi)` — the
    /// SWIM "mostly single-wave, a tail of multi-wave jobs" shape.
    Bimodal {
        /// Probability of drawing from the heavy class.
        heavy_fraction: f64,
        /// Light-class lower bound.
        lo: f64,
        /// Light-class upper bound (exclusive).
        hi: f64,
        /// Heavy-class lower bound.
        heavy_lo: f64,
        /// Heavy-class upper bound (exclusive).
        heavy_hi: f64,
    },
}

impl SizeDist {
    /// Draws one value. Every variant consumes a fixed number of RNG
    /// draws, so generation stays deterministic under composition.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            SizeDist::Fixed(v) => v,
            SizeDist::Uniform { lo, hi } => rng.range_f64(lo, hi),
            SizeDist::LogUniform { lo, hi } => rng.log_uniform(lo, hi),
            SizeDist::BoundedPareto { alpha, lo, hi } => {
                debug_assert!(alpha > 0.0 && lo > 0.0 && hi >= lo);
                // Inverse-CDF of the Pareto truncated to [lo, hi]:
                //   F(x) = (1 − (lo/x)^α) / (1 − (lo/hi)^α)
                let u = rng.f64();
                let t = 1.0 - (lo / hi).powf(alpha);
                lo / (1.0 - u * t).powf(1.0 / alpha)
            }
            SizeDist::LogNormal { mu, sigma, lo, hi } => rng.lognormal(mu, sigma).clamp(lo, hi),
            SizeDist::Bimodal {
                heavy_fraction,
                lo,
                hi,
                heavy_lo,
                heavy_hi,
            } => {
                if rng.chance(heavy_fraction) {
                    rng.range_f64(heavy_lo, heavy_hi)
                } else {
                    rng.range_f64(lo, hi)
                }
            }
        }
    }

    /// Draws a positive integer count (rounded down, floored at 1) — for
    /// map-task counts and similar.
    pub fn sample_count(&self, rng: &mut SimRng) -> u32 {
        (self.sample(rng).floor().max(1.0) as u64).min(u32::MAX as u64) as u32
    }

    /// The distribution's support bounds `(lo, hi)`, for range property
    /// checks. `Fixed(v)` reports `(v, v)`.
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            SizeDist::Fixed(v) => (v, v),
            SizeDist::Uniform { lo, hi } | SizeDist::LogUniform { lo, hi } => (lo, hi),
            SizeDist::BoundedPareto { lo, hi, .. } | SizeDist::LogNormal { lo, hi, .. } => (lo, hi),
            SizeDist::Bimodal {
                lo,
                hi,
                heavy_lo,
                heavy_hi,
                ..
            } => (lo.min(heavy_lo), hi.max(heavy_hi)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = SizeDist::BoundedPareto {
            alpha: 0.8,
            lo: 1.0,
            hi: 1000.0,
        };
        let mut rng = SimRng::new(42);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((1.0..=1000.0 + 1e-9).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let d = SizeDist::BoundedPareto {
            alpha: 0.8,
            lo: 1.0,
            hi: 10_000.0,
        };
        let mut rng = SimRng::new(7);
        let mut v: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        // Heavy tail: the mean is dominated by the few huge draws.
        assert!(median < 3.0, "median too large: {median}");
        assert!(
            mean > 5.0 * median,
            "tail too light: mean {mean}, median {median}"
        );
    }

    #[test]
    fn lognormal_respects_clamps() {
        let d = SizeDist::LogNormal {
            mu: 0.0,
            sigma: 3.0,
            lo: 0.5,
            hi: 8.0,
        };
        let mut rng = SimRng::new(9);
        for _ in 0..5000 {
            let v = d.sample(&mut rng);
            assert!((0.5..=8.0).contains(&v));
        }
    }

    #[test]
    fn log_uniform_spans_decades() {
        let d = SizeDist::LogUniform {
            lo: 0.05,
            hi: 1000.0,
        };
        let mut rng = SimRng::new(5);
        let v: Vec<f64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        assert!(v.iter().any(|&x| x < 0.1));
        assert!(v.iter().any(|&x| x > 500.0));
    }

    #[test]
    fn deterministic_for_seed() {
        let d = SizeDist::BoundedPareto {
            alpha: 1.2,
            lo: 2.0,
            hi: 64.0,
        };
        let a: Vec<f64> = {
            let mut r = SimRng::new(123);
            (0..64).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = SimRng::new(123);
            (0..64).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn count_floors_at_one() {
        let d = SizeDist::Fixed(0.2);
        assert_eq!(d.sample_count(&mut SimRng::new(0)), 1);
    }
}
