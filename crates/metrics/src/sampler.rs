//! Simulation-clock sampler: turns registry instruments into time series.
//!
//! The engine schedules a `MetricsSample` event every `sample_period` of
//! virtual time; the handler refreshes the gauges and calls
//! [`Sampler::sample`], which appends one `(t, value)` point per scalar
//! instrument. Series are index-aligned with the registry's registration
//! order, so instruments registered mid-run simply start their series at the
//! first sample that sees them.

use crate::registry::{Labels, MetricsRegistry, Snapshot};
use ibis_simcore::time::{SimDuration, SimTime};

/// Identity of one sampled series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Instrument name.
    pub name: String,
    /// Instrument labels.
    pub labels: Labels,
}

/// One instrument's sampled time series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Which instrument this series tracks.
    pub key: SeriesKey,
    /// `(virtual time, value)` points in sampling order. Non-finite values
    /// are skipped at capture time, so points may be sparser than the
    /// sampling cadence.
    pub points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Points as `(seconds of virtual time, value)` pairs.
    pub fn points_secs(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect()
    }

    /// Values only, in time order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }
}

/// Samples every instrument in a registry on a fixed virtual-time
/// cadence.
#[derive(Debug)]
pub struct Sampler {
    period: SimDuration,
    series: Vec<Series>,
    samples_taken: u64,
}

impl Sampler {
    /// A sampler with the given cadence.
    pub fn new(period: SimDuration) -> Self {
        Sampler {
            period,
            series: Vec::new(),
            samples_taken: 0,
        }
    }

    /// The sampling cadence.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Number of sampling sweeps performed.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Record one point per instrument at virtual time `now`: gauges
    /// record their latest value, histograms their observation count.
    /// Non-finite values are dropped.
    pub fn sample(&mut self, now: SimTime, registry: &MetricsRegistry) {
        self.samples_taken += 1;
        let series = &mut self.series;
        registry.for_each_scalar(|idx, name, labels, value| {
            if idx == series.len() {
                series.push(Series {
                    key: SeriesKey {
                        name: name.to_string(),
                        labels,
                    },
                    points: Vec::new(),
                });
            }
            if value.is_finite() {
                series[idx].points.push((now, value));
            }
        });
    }

    /// Consume the sampler, pairing its series with an end-of-run snapshot.
    pub fn into_capture(self, snapshot: Snapshot) -> MetricsCapture {
        MetricsCapture {
            sample_period: self.period,
            samples_taken: self.samples_taken,
            series: self.series,
            snapshot,
        }
    }
}

/// Everything the metrics subsystem captured for one run: the sampled time
/// series plus a final snapshot of every instrument (including histograms,
/// which are not series-sampled). Attached to `RunReport::metrics`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsCapture {
    /// Virtual-time sampling cadence used for the run.
    pub sample_period: SimDuration,
    /// Number of sampling sweeps performed.
    pub samples_taken: u64,
    /// One series per instrument, in registration order.
    pub series: Vec<Series>,
    /// End-of-run snapshot of every instrument.
    pub snapshot: Snapshot,
}

impl MetricsCapture {
    /// All series for the named instrument, across label sets.
    pub fn series_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Series> {
        self.series.iter().filter(move |s| s.key.name == name)
    }

    /// The series for one `(name, labels)` instrument, if sampled.
    pub fn series_for(&self, name: &str, labels: Labels) -> Option<&Series> {
        self.series
            .iter()
            .find(|s| s.key.name == name && s.key.labels == labels)
    }

    /// Total number of sampled points across all series.
    pub fn total_points(&self) -> usize {
        self.series.iter().map(|s| s.points.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_tracks_growing_registry() {
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(SimDuration::from_secs(1));

        reg.set_gauge("depth", Labels::on(0, 0), 4.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(1), &reg);

        // a new instrument appears mid-run
        reg.set_gauge("backlog", Labels::on(0, 0), 10.0);
        reg.set_gauge("depth", Labels::on(0, 0), 5.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(2), &reg);

        let cap = sampler.into_capture(reg.snapshot());
        assert_eq!(cap.samples_taken, 2);
        let depth = cap.series_for("depth", Labels::on(0, 0)).unwrap();
        assert_eq!(depth.values(), vec![4.0, 5.0]);
        let backlog = cap.series_for("backlog", Labels::on(0, 0)).unwrap();
        assert_eq!(backlog.values(), vec![10.0]);
        assert_eq!(cap.total_points(), 3);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(SimDuration::from_secs(1));
        reg.set_gauge("lat", Labels::NONE, f64::NAN);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(1), &reg);
        reg.set_gauge("lat", Labels::NONE, 2.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(2), &reg);
        let cap = sampler.into_capture(reg.snapshot());
        let s = cap.series_for("lat", Labels::NONE).unwrap();
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.last(), Some(2.0));
        assert_eq!(s.points_secs(), vec![(2.0, 2.0)]);
    }

    #[test]
    fn histogram_series_records_count() {
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(SimDuration::from_secs(1));
        reg.observe("lat_ms", Labels::NONE, &[1.0, 10.0], 0.5);
        reg.observe("lat_ms", Labels::NONE, &[1.0, 10.0], 5.0);
        sampler.sample(SimTime::ZERO + SimDuration::from_secs(1), &reg);
        let cap = sampler.into_capture(reg.snapshot());
        let s = cap.series_for("lat_ms", Labels::NONE).unwrap();
        assert_eq!(s.values(), vec![2.0]);
    }
}
