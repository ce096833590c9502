//! Binned time series and sampled gauge traces.

use crate::time::{SimDuration, SimTime};

/// A time series of *amounts* accumulated into fixed-width bins, reported as
/// per-second rates. This is how the paper's throughput-over-time figures
/// (Fig. 2, Fig. 6b) are produced: every completed I/O adds its byte count
/// at its completion instant, and each bin's total divided by the bin width
/// is the MB/s value plotted.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: SimDuration,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bin width (must be non-zero).
    pub fn new(bin_width: SimDuration) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        TimeSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    fn bin_index(&self, at: SimTime) -> usize {
        (at.as_nanos() / self.bin_width.as_nanos()) as usize
    }

    /// Adds `amount` at instant `at`.
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let idx = self.bin_index(at);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Number of bins (highest touched bin + 1).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total amount across all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Iterates `(bin_start_time, rate_per_second)` pairs.
    pub fn rates(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let w = self.bin_width;
        let secs = w.as_secs_f64();
        self.bins.iter().enumerate().map(move |(i, &amount)| {
            (SimTime::from_nanos(i as u64 * w.as_nanos()), amount / secs)
        })
    }

    /// Mean rate over the non-empty prefix of the series (total divided by
    /// covered wall time), 0 if empty.
    pub fn mean_rate(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.total() / (self.bins.len() as f64 * self.bin_width.as_secs_f64())
    }

    /// Peak per-second rate over all bins (0 if empty).
    pub fn peak_rate(&self) -> f64 {
        let secs = self.bin_width.as_secs_f64();
        self.bins.iter().fold(0.0f64, |a, &b| a.max(b / secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_by_time() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime::from_millis(100), 10.0);
        ts.add(SimTime::from_millis(900), 20.0);
        ts.add(SimTime::from_millis(1500), 5.0);
        let rates: Vec<(SimTime, f64)> = ts.rates().collect();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0], (SimTime::ZERO, 30.0));
        assert_eq!(rates[1], (SimTime::from_secs(1), 5.0));
        assert_eq!(ts.total(), 35.0);
    }

    #[test]
    fn rates_divide_by_bin_width() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(500));
        ts.add(SimTime::from_millis(100), 50.0);
        let (_, rate) = ts.rates().next().unwrap();
        assert_eq!(rate, 100.0); // 50 per half second = 100/s
    }

    #[test]
    fn mean_and_peak_rate() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime::from_millis(500), 10.0);
        ts.add(SimTime::from_millis(1500), 30.0);
        assert_eq!(ts.mean_rate(), 20.0);
        assert_eq!(ts.peak_rate(), 30.0);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        assert!(ts.is_empty());
        assert_eq!(ts.mean_rate(), 0.0);
        assert_eq!(ts.peak_rate(), 0.0);
    }
}
