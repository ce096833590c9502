//! Multi-tenant mix composition: N tenants × per-tenant arrival process ×
//! weight, lowered to a single ordered [`JobSpec`] list.
//!
//! Every tenant samples from its own RNG stream, derived order-free from
//! the mix seed with [`SimRng::stream_seed`] — adding, removing or
//! reordering tenants never perturbs another tenant's jobs, and one seed
//! reproduces the whole workload byte-for-byte. Jobs carry their tenant's
//! name in [`JobSpec::tenant`], which the cluster engine uses to register
//! one I/O flow per tenant on first arrival (shared DSFQ weight, shared
//! service accounting, per-tenant arrival→completion latency).

use crate::arrival::ArrivalProcess;
use crate::size::SizeDist;
use ibis_mapreduce::{InputSpec, JobSpec};
use ibis_simcore::rng::SimRng;
use ibis_simcore::units::{HDFS_BLOCK, MIB};
use ibis_simcore::SimDuration;

/// How many reduce tasks a sampled job gets.
#[derive(Debug, Clone, PartialEq)]
pub enum ReducePolicy {
    /// Map-only jobs (generators, FaaS handlers).
    None,
    /// A fixed count.
    Fixed(u32),
    /// `maps / divisor`, clamped to `[1, cap]` — but shuffle-light jobs
    /// (`map_output_ratio < 0.005`) collapse to a single reduce, the
    /// SWIM convention.
    PerMaps {
        /// Maps per reduce.
        divisor: u32,
        /// Upper clamp.
        cap: u32,
    },
}

/// The distributional template one tenant's jobs are sampled from.
///
/// Per job, draws happen in a fixed order (maps, input→shuffle ratio,
/// shuffle→output ratio, map CPU rate, reduce CPU rate) so a shape is a
/// deterministic function of the RNG stream position.
#[derive(Debug, Clone, PartialEq)]
pub struct JobShape {
    /// Map-task count distribution.
    pub maps: SizeDist,
    /// Input→shuffle ratio envelope (§7.3). The spec's forward
    /// `map_output_ratio` is the clamped inverse.
    pub input_to_shuffle: SizeDist,
    /// Shuffle→output ratio envelope; inverse-clamped likewise.
    pub shuffle_to_output: SizeDist,
    /// Map compute rate (bytes/s per core).
    pub map_cpu_rate: SizeDist,
    /// Reduce compute rate (bytes/s per core).
    pub reduce_cpu_rate: SizeDist,
    /// Reduce-count policy.
    pub reduces: ReducePolicy,
    /// `true`: jobs read a per-job DFS input file of `maps` HDFS blocks.
    /// `false`: generator jobs (`InputSpec::None`) writing
    /// `gen_bytes_per_map` each — no namenode registration needed, the
    /// cheap shape for huge FaaS-style fleets.
    pub dfs_input: bool,
    /// HDFS output per map for generator jobs.
    pub gen_bytes_per_map: u64,
    /// Output replication of generated blocks.
    pub output_replication: u32,
    /// Optional per-job slot cap.
    pub max_slots: Option<u32>,
}

impl JobShape {
    /// The SWIM / Facebook2009 envelope (§7.3): mostly single-wave jobs
    /// with a two-class map-count mixture, log-uniform ratio decades,
    /// log-uniform compute intensity.
    pub fn swim() -> Self {
        JobShape {
            maps: SizeDist::Bimodal {
                heavy_fraction: 0.2,
                lo: 1.0,
                hi: 17.0,
                heavy_lo: 16.0,
                heavy_hi: 97.0,
            },
            input_to_shuffle: SizeDist::LogUniform {
                lo: 0.05,
                hi: 1000.0,
            },
            shuffle_to_output: SizeDist::LogUniform {
                lo: 1.0 / 32.0,
                hi: 100.0,
            },
            map_cpu_rate: SizeDist::LogUniform { lo: 8e6, hi: 120e6 },
            reduce_cpu_rate: SizeDist::LogUniform { lo: 8e6, hi: 120e6 },
            reduces: ReducePolicy::PerMaps {
                divisor: 4,
                cap: 16,
            },
            dfs_input: true,
            gen_bytes_per_map: 128 * MIB,
            output_replication: 3,
            max_slots: None,
        }
    }

    /// A heavy-tailed batch shape: bounded-Pareto map counts (most jobs
    /// tiny, a few enormous), moderate ratios — the Pastorelli et al.
    /// size-distribution regime that stresses size-oblivious schedulers.
    pub fn heavy_tailed() -> Self {
        JobShape {
            maps: SizeDist::BoundedPareto {
                alpha: 0.9,
                lo: 1.0,
                hi: 128.0,
            },
            ..JobShape::swim()
        }
    }

    /// A FaaS-style short task: one synthetic map, a small replicated
    /// output burst, no reduce — thousands of these fit in one run.
    pub fn short_task() -> Self {
        JobShape {
            maps: SizeDist::Fixed(1.0),
            input_to_shuffle: SizeDist::Fixed(1.0),
            shuffle_to_output: SizeDist::Fixed(1.0),
            map_cpu_rate: SizeDist::LogUniform {
                lo: 40e6,
                hi: 160e6,
            },
            reduce_cpu_rate: SizeDist::Fixed(100e6),
            reduces: ReducePolicy::None,
            dfs_input: false,
            gen_bytes_per_map: 8 * MIB,
            output_replication: 1,
            max_slots: None,
        }
    }

    /// Samples one job. `name` / `input_file` name the job and (for DFS
    /// shapes) its input file; the caller guarantees uniqueness.
    pub fn sample(&self, name: &str, input_file: &str, rng: &mut SimRng) -> JobSpec {
        let maps = self.maps.sample_count(rng);
        let input_to_shuffle = self.input_to_shuffle.sample(rng);
        let shuffle_to_output = self.shuffle_to_output.sample(rng);
        let map_cpu_rate = self.map_cpu_rate.sample(rng);
        let reduce_cpu_rate = self.reduce_cpu_rate.sample(rng);

        // Forward ratios, bounded as in `workloads::swim` so a tiny
        // denominator cannot inflate petabyte intermediates.
        let map_output_ratio = (1.0 / input_to_shuffle).clamp(0.001, 4.0);
        let reduce_output_ratio = (1.0 / shuffle_to_output).clamp(0.001, 4.0);

        let reduces = match self.reduces {
            ReducePolicy::None => 0,
            ReducePolicy::Fixed(n) => n,
            ReducePolicy::PerMaps { divisor, cap } => {
                if map_output_ratio < 0.005 {
                    1
                } else {
                    (maps / divisor.max(1)).clamp(1, cap)
                }
            }
        };

        let input = if self.dfs_input {
            InputSpec::DfsFile {
                name: input_file.to_string(),
                bytes: maps as u64 * HDFS_BLOCK,
            }
        } else {
            InputSpec::None { maps }
        };

        JobSpec {
            input,
            map_output_ratio,
            gen_bytes_per_map: self.gen_bytes_per_map,
            map_cpu_rate,
            reduces,
            reduce_output_ratio,
            reduce_cpu_rate,
            merge_threshold: 512 * MIB,
            output_replication: self.output_replication,
            max_slots: self.max_slots,
            ..JobSpec::named(name)
        }
    }
}

/// Cold-start modelling for burst tenants: the first invocation after an
/// idle gap pays a compute penalty (container spin-up), like a FaaS cold
/// start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStart {
    /// A job whose gap since the tenant's previous arrival is at least
    /// this long starts cold. The tenant's first job is always cold.
    pub idle_gap: SimDuration,
    /// Compute-rate divisor while cold (> 1 ⇒ slower).
    pub factor: f64,
}

/// One tenant of a mix: a name, an I/O weight shared by all its jobs, an
/// arrival process, a job shape, and an optional cold-start model.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name; prefixes every job name, becomes the engine-side flow.
    pub name: String,
    /// IBIS I/O weight applied to the tenant's flow.
    pub weight: f64,
    /// Number of jobs to generate.
    pub jobs: u32,
    /// When the jobs arrive.
    pub arrival: ArrivalProcess,
    /// What the jobs look like.
    pub shape: JobShape,
    /// Cold-start spikes (burst tenants).
    pub cold_start: Option<ColdStart>,
}

impl TenantSpec {
    /// A tenant with the given name, weight, job count, arrivals and
    /// shape; no cold starts.
    pub fn new(
        name: &str,
        weight: f64,
        jobs: u32,
        arrival: ArrivalProcess,
        shape: JobShape,
    ) -> Self {
        assert!(weight > 0.0, "tenant weight must be positive");
        assert!(jobs > 0, "tenant generates no jobs");
        TenantSpec {
            name: name.to_string(),
            weight,
            jobs,
            arrival,
            shape,
            cold_start: None,
        }
    }

    /// Adds a cold-start model (builder style).
    pub fn with_cold_start(mut self, cs: ColdStart) -> Self {
        self.cold_start = Some(cs);
        self
    }

    /// Generates this tenant's jobs from its own RNG stream. Arrivals are
    /// drawn first, then one shape per job, so the stream layout is
    /// independent of other tenants.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<JobSpec> {
        let arrivals = self.arrival.sample(rng, self.jobs);
        let mut prev: Option<SimDuration> = None;
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let name = format!("{}-{i}", self.name);
                let file = format!("{}-job{i}-input", self.name);
                let mut spec = self.shape.sample(&name, &file, rng);
                if let Some(cs) = self.cold_start {
                    let cold = prev.is_none_or(|p| at - p >= cs.idle_gap);
                    if cold && cs.factor > 1.0 {
                        spec.map_cpu_rate /= cs.factor;
                        spec.reduce_cpu_rate /= cs.factor;
                    }
                }
                prev = Some(at);
                spec.arrival = at;
                spec.io_weight = self.weight;
                spec.tenant = Some(self.name.clone());
                spec
            })
            .collect()
    }
}

/// An open-system mix: a seed plus tenants. [`MixConfig::compose`] lowers
/// it to one arrival-ordered job list.
#[derive(Debug, Clone, PartialEq)]
pub struct MixConfig {
    /// Base seed; tenant `i` samples from stream
    /// `SimRng::stream_seed(seed, i)`.
    pub seed: u64,
    /// The tenants, in stream order.
    pub tenants: Vec<TenantSpec>,
}

impl MixConfig {
    /// An empty mix with a seed.
    pub fn new(seed: u64) -> Self {
        MixConfig {
            seed,
            tenants: Vec::new(),
        }
    }

    /// A scale mix: `tenants` small tenants for O(1000)-tenant cluster
    /// experiments, generated programmatically instead of hand-listed.
    /// Tenant *i* is named `t{i}`, cycles deterministically through the
    /// three canonical shapes (SWIM, heavy-tailed, short-task), and draws
    /// `jobs_per_tenant` Poisson arrivals with mean `mean_interarrival`
    /// from its own RNG stream. Every 16th tenant is a weight-4 "premium"
    /// tenant (the rest weigh 1), so fairness audits exercise both weight
    /// classes at any scale. Deterministic in `seed` like any mix.
    pub fn flood(
        seed: u64,
        tenants: u32,
        jobs_per_tenant: u32,
        mean_interarrival: SimDuration,
    ) -> Self {
        assert!(tenants > 0, "flood needs at least one tenant");
        let mut mix = MixConfig::new(seed);
        for i in 0..tenants {
            let shape = match i % 3 {
                0 => JobShape::short_task(),
                1 => JobShape::swim(),
                _ => JobShape::heavy_tailed(),
            };
            let weight = if i % 16 == 0 { 4.0 } else { 1.0 };
            // Names are unique by construction: push directly instead of
            // paying `tenant()`'s O(n) duplicate scan per tenant.
            mix.tenants.push(TenantSpec::new(
                &format!("t{i}"),
                weight,
                jobs_per_tenant,
                ArrivalProcess::Poisson { mean_interarrival },
                shape,
            ));
        }
        mix
    }

    /// Adds a tenant (builder style).
    pub fn tenant(mut self, t: TenantSpec) -> Self {
        assert!(
            self.tenants.iter().all(|x| x.name != t.name),
            "duplicate tenant name {}",
            t.name
        );
        self.tenants.push(t);
        self
    }

    /// Total jobs the mix will generate.
    pub fn total_jobs(&self) -> u32 {
        self.tenants.iter().map(|t| t.jobs).sum()
    }

    /// Generates every tenant's jobs and merges them in arrival order
    /// (ties broken by tenant index, then job index — fully
    /// deterministic). The returned order is the submission order an
    /// `Experiment` should use.
    pub fn compose(&self) -> Vec<JobSpec> {
        let mut tagged: Vec<(SimDuration, usize, usize, JobSpec)> = Vec::new();
        for (ti, t) in self.tenants.iter().enumerate() {
            let mut rng = SimRng::for_stream(self.seed, ti as u64);
            for (ji, spec) in t.generate(&mut rng).into_iter().enumerate() {
                tagged.push((spec.arrival, ti, ji, spec));
            }
        }
        tagged.sort_by_key(|a| (a.0, a.1, a.2));
        tagged.into_iter().map(|(_, _, _, s)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_mix(seed: u64) -> MixConfig {
        MixConfig::new(seed)
            .tenant(TenantSpec::new(
                "alpha",
                4.0,
                20,
                ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_secs(5),
                },
                JobShape::swim(),
            ))
            .tenant(TenantSpec::new(
                "beta",
                1.0,
                30,
                ArrivalProcess::OnOff {
                    mean_on: SimDuration::from_secs(2),
                    mean_off: SimDuration::from_secs(20),
                    burst_interarrival: SimDuration::from_millis(200),
                },
                JobShape::short_task(),
            ))
    }

    #[test]
    fn compose_is_deterministic_and_ordered() {
        let a = two_tenant_mix(0xA11CE).compose();
        let b = two_tenant_mix(0xA11CE).compose();
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.map_output_ratio, y.map_output_ratio);
            assert_eq!(x.tenant, y.tenant);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn tenant_streams_are_independent() {
        // Dropping tenant 0 must not change tenant 1's jobs.
        let full = two_tenant_mix(7).compose();
        let mut solo = two_tenant_mix(7);
        solo.tenants.remove(0);
        let solo = solo.compose();
        let betas: Vec<&JobSpec> = full
            .iter()
            .filter(|s| s.tenant.as_deref() == Some("beta"))
            .collect();
        assert_eq!(betas.len(), solo.len());
        // Tenant index shifts the stream: re-derive with the original
        // index by rebuilding a one-tenant mix at stream 1.
        let t = two_tenant_mix(7).tenants[1].clone();
        let mut rng = SimRng::for_stream(7, 1);
        let regen = t.generate(&mut rng);
        for (a, b) in betas.iter().zip(&regen) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.map_cpu_rate, b.map_cpu_rate);
        }
    }

    #[test]
    fn jobs_carry_tenant_weight_and_unique_names() {
        let jobs = two_tenant_mix(3).compose();
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), jobs.len());
        for j in &jobs {
            match j.tenant.as_deref() {
                Some("alpha") => assert_eq!(j.io_weight, 4.0),
                Some("beta") => assert_eq!(j.io_weight, 1.0),
                other => panic!("unexpected tenant {other:?}"),
            }
        }
    }

    #[test]
    fn cold_start_slows_first_job_after_gap() {
        let cs = ColdStart {
            idle_gap: SimDuration::from_secs(10),
            factor: 4.0,
        };
        let t = TenantSpec::new(
            "faas",
            1.0,
            50,
            ArrivalProcess::OnOff {
                mean_on: SimDuration::from_secs(1),
                mean_off: SimDuration::from_secs(60),
                burst_interarrival: SimDuration::from_millis(100),
            },
            JobShape::short_task(),
        )
        .with_cold_start(cs);
        let mut rng = SimRng::for_stream(99, 0);
        let jobs = t.generate(&mut rng);
        // Recompute coldness from the arrival gaps and check the rates.
        let warm_hi = JobShape::short_task().map_cpu_rate.bounds().1;
        let mut cold_seen = 0;
        let mut prev: Option<SimDuration> = None;
        for j in &jobs {
            let cold = prev.is_none_or(|p| j.arrival - p >= cs.idle_gap);
            if cold {
                cold_seen += 1;
                assert!(
                    j.map_cpu_rate <= warm_hi / cs.factor * 1.0001,
                    "cold job at {:?} too fast: {}",
                    j.arrival,
                    j.map_cpu_rate
                );
            }
            prev = Some(j.arrival);
        }
        assert!(cold_seen >= 2, "burst schedule produced no cold starts");
    }

    #[test]
    fn flood_generates_requested_scale() {
        let mix = MixConfig::flood(7, 48, 3, SimDuration::from_secs(5));
        assert_eq!(mix.tenants.len(), 48);
        assert_eq!(mix.total_jobs(), 48 * 3);
        // Every 16th tenant is premium (weight 4.0), the rest weight 1.0.
        for (i, t) in mix.tenants.iter().enumerate() {
            assert_eq!(t.name, format!("t{i}"));
            let want = if i % 16 == 0 { 4.0 } else { 1.0 };
            assert_eq!(t.weight, want, "tenant {i}");
        }
        let jobs = mix.compose();
        assert_eq!(jobs.len(), 48 * 3);
        // Arrival-ordered, fully deterministic per seed, seed-sensitive.
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let again = MixConfig::flood(7, 48, 3, SimDuration::from_secs(5)).compose();
        assert_eq!(format!("{jobs:?}"), format!("{again:?}"));
        let other = MixConfig::flood(8, 48, 3, SimDuration::from_secs(5)).compose();
        assert_ne!(format!("{jobs:?}"), format!("{other:?}"));
    }

    #[test]
    fn flood_cycles_job_shapes() {
        let mix = MixConfig::flood(1, 6, 1, SimDuration::from_secs(1));
        let short = JobShape::short_task();
        let swim = JobShape::swim();
        let heavy = JobShape::heavy_tailed();
        for (i, t) in mix.tenants.iter().enumerate() {
            let want = match i % 3 {
                0 => &short,
                1 => &swim,
                _ => &heavy,
            };
            assert_eq!(
                t.shape.maps.bounds(),
                want.maps.bounds(),
                "tenant {i} shape mismatch"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate tenant name")]
    fn duplicate_tenants_rejected() {
        let t = TenantSpec::new(
            "x",
            1.0,
            1,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(1),
            },
            JobShape::short_task(),
        );
        let _ = MixConfig::new(0).tenant(t.clone()).tenant(t);
    }
}
