//! FaaS-style burst tenants.
//!
//! A burst tenant models serverless / interactive load sharing the
//! cluster with batch analytics: thousands of short map-only jobs arriving
//! in dense on/off bursts, with a cold-start compute penalty for the first
//! invocation after an idle window. This is the adversarial foreground for
//! IBIS's proportional sharing — a flood of small requests that a
//! size-oblivious scheduler lets starve the batch tenants (or vice versa).

use crate::arrival::ArrivalProcess;
use crate::mix::{ColdStart, JobShape, TenantSpec};
use ibis_simcore::SimDuration;

/// Shape of a burst tenant's load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstProfile {
    /// Total short jobs to emit.
    pub jobs: u32,
    /// Mean burst-window length.
    pub mean_on: SimDuration,
    /// Mean silence between bursts.
    pub mean_off: SimDuration,
    /// Mean inter-arrival gap inside a burst.
    pub burst_interarrival: SimDuration,
    /// IBIS I/O weight of the tenant's flow.
    pub weight: f64,
    /// Cold-start penalty; `None` disables it.
    pub cold_start: Option<ColdStart>,
}

impl BurstProfile {
    /// The default FaaS profile: ~2 s bursts firing a job every ~50 ms,
    /// ~30 s silences, 4× cold-start slowdown after ≥10 s idle.
    pub fn faas(jobs: u32) -> Self {
        BurstProfile {
            jobs,
            mean_on: SimDuration::from_secs(2),
            mean_off: SimDuration::from_secs(30),
            burst_interarrival: SimDuration::from_millis(50),
            weight: 1.0,
            cold_start: Some(ColdStart {
                idle_gap: SimDuration::from_secs(10),
                factor: 4.0,
            }),
        }
    }

    /// Sets the flow weight (builder style).
    pub fn weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }
}

/// Builds the tenant: on/off arrivals over [`JobShape::short_task`] jobs.
pub fn burst_tenant(name: &str, p: BurstProfile) -> TenantSpec {
    let mut t = TenantSpec::new(
        name,
        p.weight,
        p.jobs,
        ArrivalProcess::OnOff {
            mean_on: p.mean_on,
            mean_off: p.mean_off,
            burst_interarrival: p.burst_interarrival,
        },
        JobShape::short_task(),
    );
    t.cold_start = p.cold_start;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_simcore::rng::SimRng;

    #[test]
    fn faas_tenant_emits_short_map_only_jobs() {
        let t = burst_tenant("faas", BurstProfile::faas(200).weight(2.0));
        let jobs = t.generate(&mut SimRng::for_stream(1, 0));
        assert_eq!(jobs.len(), 200);
        for j in &jobs {
            assert_eq!(j.reduces, 0);
            assert_eq!(j.io_weight, 2.0);
            assert_eq!(j.tenant.as_deref(), Some("faas"));
            assert!(matches!(
                j.input,
                ibis_mapreduce::InputSpec::None { maps: 1 }
            ));
        }
    }

    #[test]
    fn bursts_include_cold_starts() {
        let t = burst_tenant("faas", BurstProfile::faas(500));
        let jobs = t.generate(&mut SimRng::for_stream(2, 0));
        let warm_lo = JobShape::short_task().map_cpu_rate.bounds().0;
        // Cold jobs run below the warm envelope floor (factor 4 > envelope
        // span 4×), so they are unambiguously identifiable.
        let cold = jobs.iter().filter(|j| j.map_cpu_rate < warm_lo).count();
        assert!(cold >= 3, "expected cold starts, saw {cold}");
        assert!(cold < jobs.len() / 2, "most jobs should be warm: {cold}");
    }
}
