//! Convergence diagnostics for the SFQ(D2) control loop.
//!
//! The controller drives observed latency `L(k)` toward the reference
//! `L_ref` by adjusting the dispatch depth `D(k)` (paper §4). Given the
//! sampled series of both signals, this module computes the classic
//! step-response numbers:
//!
//! * **settling time** — virtual seconds until the ratio `L(k)/L_ref`
//!   enters the ±`tolerance` band around 1.0 and stays there for the rest
//!   of the series;
//! * **overshoot** — the peak excursion beyond the band *after* the signal
//!   first reaches it (a signal that approaches monotonically has zero);
//! * **steady-state error** — mean `|L/L_ref − 1|` over the trailing
//!   `tail_fraction` of samples;
//! * **oscillation amplitude** — half the peak-to-peak swing of a signal
//!   (typically `D(k)`) over the same tail window.

/// Tuning knobs for [`diagnose`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceConfig {
    /// Half-width of the settled band around a ratio of 1.0. The paper's
    /// controller is considered converged within ±10 %.
    pub tolerance: f64,
    /// Fraction of trailing samples used for steady-state statistics.
    pub tail_fraction: f64,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        ConvergenceConfig {
            tolerance: 0.10,
            tail_fraction: 0.25,
        }
    }
}

/// Step-response diagnostics for a sampled `value/reference` ratio series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConvergenceReport {
    /// Number of ratio samples analysed.
    pub samples: usize,
    /// True when the series ends inside the tolerance band.
    pub settled: bool,
    /// Virtual seconds from the first sample until the ratio permanently
    /// enters the band; `None` if it never settles.
    pub settling_time_s: Option<f64>,
    /// Peak excursion beyond the band after first entry, as a percentage of
    /// the reference. Zero for a monotone approach or a never-settling run.
    pub overshoot_pct: f64,
    /// Mean absolute ratio error over the tail window, in percent.
    pub steady_state_error_pct: f64,
    /// Mean ratio over the tail window.
    pub tail_mean_ratio: f64,
}

/// Analyse a ratio series built from `(t_secs, value, reference)` triples.
/// Samples with a non-positive or non-finite reference are skipped.
pub fn diagnose(points: &[(f64, f64, f64)], cfg: &ConvergenceConfig) -> ConvergenceReport {
    let ratios: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, v, r)| r.is_finite() && r > 0.0 && v.is_finite())
        .map(|&(t, v, r)| (t, v / r))
        .collect();
    diagnose_ratio(&ratios, cfg)
}

/// Analyse a pre-computed `(t_secs, ratio)` series, where a settled signal
/// has ratio 1.0.
pub fn diagnose_ratio(ratios: &[(f64, f64)], cfg: &ConvergenceConfig) -> ConvergenceReport {
    let n = ratios.len();
    if n == 0 {
        return ConvergenceReport::default();
    }
    let in_band = |r: f64| (r - 1.0).abs() <= cfg.tolerance;

    // Settling: the first index after the last out-of-band sample.
    let last_bad = ratios.iter().rposition(|&(_, r)| !in_band(r));
    let settle_idx = match last_bad {
        None => Some(0),
        Some(i) if i + 1 < n => Some(i + 1),
        Some(_) => None, // the final sample is still out of band
    };
    let settled = settle_idx.is_some();
    let settling_time_s = settle_idx.map(|i| ratios[i].0 - ratios[0].0);

    // Overshoot: peak |ratio - 1| beyond the band after the band is first
    // reached (the classic post-rise peak, not the initial error).
    let first_entry = ratios.iter().position(|&(_, r)| in_band(r));
    let overshoot_pct = match first_entry {
        Some(i) => {
            ratios[i..]
                .iter()
                .map(|&(_, r)| ((r - 1.0).abs() - cfg.tolerance).max(0.0))
                .fold(0.0, f64::max)
                * 100.0
        }
        None => 0.0,
    };

    // Steady state over the trailing window (at least one sample).
    let tail_len = ((n as f64 * cfg.tail_fraction).ceil() as usize).clamp(1, n);
    let tail = &ratios[n - tail_len..];
    let steady_state_error_pct =
        tail.iter().map(|&(_, r)| (r - 1.0).abs()).sum::<f64>() / tail_len as f64 * 100.0;
    let tail_mean_ratio = tail.iter().map(|&(_, r)| r).sum::<f64>() / tail_len as f64;

    ConvergenceReport {
        samples: n,
        settled,
        settling_time_s,
        overshoot_pct,
        steady_state_error_pct,
        tail_mean_ratio,
    }
}

/// Half the peak-to-peak swing of `values` over the trailing
/// `tail_fraction` window — the depth-oscillation amplitude when applied to
/// the sampled `D(k)` series. Returns 0.0 for an empty series.
pub fn oscillation_amplitude(values: &[f64], tail_fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len();
    let tail_len = ((n as f64 * tail_fraction).ceil() as usize).clamp(1, n);
    let tail = &values[n - tail_len..];
    let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    (max - min) / 2.0
}

/// Zip two equally-sampled series into `(t, value, reference)` triples by
/// matching timestamps; points present in only one series are dropped.
pub fn zip_by_time(value: &[(f64, f64)], reference: &[(f64, f64)]) -> Vec<(f64, f64, f64)> {
    let mut out = Vec::with_capacity(value.len().min(reference.len()));
    let mut j = 0;
    for &(t, v) in value {
        while j < reference.len() && reference[j].0 < t {
            j += 1;
        }
        if j < reference.len() && reference[j].0 == t {
            out.push((t, v, reference[j].1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_response() -> Vec<(f64, f64)> {
        // classic damped approach: starts at 3x ref, overshoots below,
        // settles at 1.0 from t=5 onward
        vec![
            (1.0, 3.0),
            (2.0, 1.6),
            (3.0, 0.8),
            (4.0, 1.05),
            (5.0, 1.0),
            (6.0, 0.99),
            (7.0, 1.01),
            (8.0, 1.0),
        ]
    }

    #[test]
    fn settles_after_last_excursion() {
        let r = diagnose_ratio(&step_response(), &ConvergenceConfig::default());
        assert!(r.settled);
        // last out-of-band sample is t=3 (0.8); settled from t=4
        assert_eq!(r.settling_time_s, Some(3.0));
        // overshoot: after first entry (t=3? no — 0.8 is out of band; first
        // in-band is t=4) the worst excursion is 0 beyond the band
        assert!(
            r.overshoot_pct.abs() < 1e-9,
            "overshoot {}",
            r.overshoot_pct
        );
        assert!(r.steady_state_error_pct < 2.0);
        assert!((r.tail_mean_ratio - 1.0).abs() < 0.02);
    }

    #[test]
    fn overshoot_measured_after_band_entry() {
        // enters the band at t=2, then swings out to 1.3 before settling
        let pts = vec![(1.0, 2.0), (2.0, 1.05), (3.0, 1.3), (4.0, 1.0), (5.0, 1.0)];
        let r = diagnose_ratio(&pts, &ConvergenceConfig::default());
        assert!(r.settled);
        assert_eq!(r.settling_time_s, Some(3.0));
        assert!(
            (r.overshoot_pct - 20.0).abs() < 1e-9,
            "overshoot {}",
            r.overshoot_pct
        );
    }

    #[test]
    fn never_settles() {
        let pts = vec![(1.0, 2.0), (2.0, 2.1), (3.0, 1.9)];
        let r = diagnose_ratio(&pts, &ConvergenceConfig::default());
        assert!(!r.settled);
        assert_eq!(r.settling_time_s, None);
        assert!(r.steady_state_error_pct > 50.0);
    }

    #[test]
    fn always_in_band_settles_immediately() {
        let pts = vec![(2.0, 1.0), (3.0, 1.01)];
        let r = diagnose_ratio(&pts, &ConvergenceConfig::default());
        assert_eq!(r.settling_time_s, Some(0.0));
        assert!(r.settled);
    }

    #[test]
    fn empty_series_is_default() {
        let r = diagnose_ratio(&[], &ConvergenceConfig::default());
        assert_eq!(r, ConvergenceReport::default());
        assert!(!r.settled);
    }

    #[test]
    fn diagnose_skips_bad_references() {
        let pts = vec![
            (1.0, 50.0, 50.0),
            (2.0, 50.0, 0.0),
            (3.0, 55.0, f64::NAN),
            (4.0, 50.0, 50.0),
        ];
        let r = diagnose(&pts, &ConvergenceConfig::default());
        assert_eq!(r.samples, 2);
        assert!(r.settled);
    }

    #[test]
    fn oscillation_over_tail() {
        let vals = vec![10.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0];
        // tail of 25% = last 2 samples: {4,2} -> amplitude 1
        assert!((oscillation_amplitude(&vals, 0.25) - 1.0).abs() < 1e-12);
        assert_eq!(oscillation_amplitude(&[], 0.25), 0.0);
        assert_eq!(oscillation_amplitude(&[3.0], 0.5), 0.0);
    }

    #[test]
    fn zip_matches_timestamps() {
        let a = vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        let b = vec![(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)];
        assert_eq!(
            zip_by_time(&a, &b),
            vec![(2.0, 20.0, 2.0), (3.0, 30.0, 3.0)]
        );
    }
}
