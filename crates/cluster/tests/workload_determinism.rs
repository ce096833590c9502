//! Open-system workload determinism (ISSUE 7): a trace-driven,
//! multi-tenant mix — a Poisson batch tenant plus a FaaS-style burst
//! tenant emitting over a thousand short jobs with cold-start spikes —
//! must produce **byte-identical** reports from two runs of one seed,
//! and a pinned canon. The canonical serialization covers jobs,
//! per-app service and latency, the recording and the metrics series,
//! plus the per-tenant section (arrival/completion counts and the latency
//! histogram), so any nondeterminism in mid-run tenant registration,
//! flow pooling, or arrival-event handling shows up as a text diff.
//! A chaos + JSONL-trace smoke run covers the `ibis-faults`
//! compatibility requirement.

use ibis_cluster::prelude::*;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::{burst_tenant, ArrivalProcess, BurstProfile, JobShape, MixConfig, TenantSpec};
use std::fmt::Write as _;

/// The open-system scenario of the acceptance criteria: a Poisson batch
/// tenant (heavy-tailed DFS-reading jobs) plus a burst tenant carrying ≥ 1000 short
/// jobs with cold-start spikes.
fn open_mix(seed: u64) -> MixConfig {
    MixConfig::new(seed)
        .tenant(TenantSpec::new(
            "batch",
            4.0,
            24,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(6),
            },
            JobShape::heavy_tailed(),
        ))
        .tenant(burst_tenant("faas", BurstProfile::faas(1000).weight(1.0)))
}

/// A small observed cluster, fast devices so a thousand jobs finish
/// quickly, obs + metrics on so the canon covers the full report.
fn observed_cluster(seed: u64, chaos: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        seed,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        chunk: ibis_simcore::units::MIB,
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 18),
        metrics: MetricsConfig::enabled(SimDuration::from_secs(5)),
        faults: if chaos {
            FaultsConfig {
                enabled: true,
                schedule: FaultSchedule::new(0xFA17 ^ seed)
                    .broker_outage(SimTime::from_secs(20), SimDuration::from_secs(10))
                    .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 4)
                    .node_crash(1, SimTime::from_secs(40), Some(SimDuration::from_secs(8))),
                staleness_bound: SimDuration::from_secs(2),
                retry_backoff: SimDuration::from_millis(100),
                retry_limit: 3,
            }
        } else {
            FaultsConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Jobs, per-app service and latency, broker and fault counters, the
/// recording and the metrics series, plus the per-tenant section.
/// Excluded: `wall_secs`.
fn canonical_full(r: &RunReport) -> String {
    let mut s = String::new();
    for j in &r.jobs {
        writeln!(
            s,
            "job {} app={} sub={:?} fin={:?} rt={}",
            j.name,
            j.app.0,
            j.submitted,
            j.finished,
            j.runtime.as_nanos(),
        )
        .unwrap();
    }
    for t in &r.tenants {
        write!(
            s,
            "tenant {} app={} w={} sub={} fin={} n={}",
            t.name,
            t.app.0,
            t.weight,
            t.submitted,
            t.finished,
            t.latency.count(),
        )
        .unwrap();
        for q in [0.5, 0.9, 0.99, 1.0] {
            write!(s, " q{q}={:?}", t.latency.quantile(q)).unwrap();
        }
        writeln!(s, " mean={:#x}", t.latency.mean().to_bits()).unwrap();
    }
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    writeln!(s, "service {service:?}").unwrap();
    let mut lat: Vec<(u32, Option<u64>)> = r
        .app_latency
        .iter()
        .map(|(a, h)| (a.0, h.quantile(0.99)))
        .collect();
    lat.sort_unstable();
    writeln!(s, "p99 {lat:?}").unwrap();
    writeln!(
        s,
        "broker {:?} decisions {} makespan {} events {}",
        r.broker,
        r.sched_decisions,
        r.makespan.as_nanos(),
        r.events,
    )
    .unwrap();
    writeln!(s, "faults {:?}", r.faults).unwrap();

    let rec = r.recording.as_ref().expect("recording enabled");
    writeln!(s, "rec seen={} retained={}", rec.seen(), rec.len()).unwrap();
    for e in rec.events() {
        writeln!(s, "ev {:?} n{} d{} {:?}", e.at, e.node, e.dev, e.kind).unwrap();
    }

    let m = r.metrics.as_ref().expect("metrics enabled");
    writeln!(s, "metrics samples={}", m.samples_taken).unwrap();
    let mut series: Vec<&ibis_metrics::Series> = m.series.iter().collect();
    series.sort_by(|a, b| (&a.key.name, a.key.labels).cmp(&(&b.key.name, b.key.labels)));
    for sr in series {
        write!(s, "series {} {:?}:", sr.key.name, sr.key.labels).unwrap();
        for &(at, v) in &sr.points {
            write!(s, " {:?}={:#x}", at, v.to_bits()).unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

/// Streams reads 8 chunks deep in every job that sets no read-ahead of
/// its own (generated and trace-replayed specs set none).
fn read_ahead_8(exp: &mut Experiment) {
    for w in &mut exp.workloads {
        if let Workload::Job(spec) = w {
            spec.read_ahead.get_or_insert(8);
        }
    }
}

fn open_experiment(seed: u64, chaos: bool) -> Experiment {
    let mut exp = Experiment::new(observed_cluster(seed, chaos));
    exp.add_mix(&open_mix(seed ^ 0x5eed));
    read_ahead_8(&mut exp);
    exp
}

/// FNV-1a over `s`'s bytes: a short fingerprint of a canonical report.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two runs of the open mix agree byte for byte, and the canon is
/// pinned: a change that moves both runs the same way moves the pin.
#[test]
fn open_system_run_is_byte_identical_across_runs() {
    let mix = open_mix(42 ^ 0x5eed);
    assert!(mix.total_jobs() >= 1000, "scenario must carry ≥1000 jobs");

    let first = open_experiment(42, false).run();
    assert_eq!(first.tenants.len(), 2);
    for t in &first.tenants {
        assert_eq!(t.finished, t.submitted, "tenant {} lost jobs", t.name);
        assert!(t.latency_ms(0.5).is_some());
    }
    let canon = canonical_full(&first);
    assert_eq!(
        canon,
        canonical_full(&open_experiment(42, false).run()),
        "open-system run diverged between two runs of one seed"
    );
    assert_eq!(
        fnv(&canon),
        0xc01b_772f_aaef_7b01,
        "open-system canon moved"
    );
}

#[test]
fn tenant_jobs_share_one_flow_and_pool_service() {
    let r = open_experiment(7, false).run();
    let batch = r.tenant("batch").expect("batch tenant reported");
    let faas = r.tenant("faas").expect("faas tenant reported");
    assert_ne!(batch.app, faas.app);
    // Every job of a tenant is tagged with the tenant's shared flow id.
    for j in &r.jobs {
        if let Some(t) = r.tenants.iter().find(|t| j.name.starts_with(&t.name)) {
            assert_eq!(j.app, t.app, "job {} left its tenant flow", j.name);
        }
    }
    // Pooled service: exactly one service entry per tenant flow, not one
    // per job.
    assert!(r.app_service.contains_key(&batch.app));
    assert!(r.app_service.contains_key(&faas.app));
    assert_eq!(r.app_service.len(), 2, "service was not pooled per tenant");
}

/// Chaos + JSONL-trace smoke: a replayed trace under the fault schedule
/// still completes, two runs agree byte for byte, and the canon is
/// pinned.
#[test]
fn chaos_trace_replay_is_deterministic() {
    let trace = "\
# two interleaved tenants, hand-written offsets
{\"at\": 0.5, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 4, \"shuffle_ratio\": 0.5, \"reduces\": 2}
{\"at\": 1.0, \"tenant\": \"adhoc\", \"maps\": 2, \"input\": \"gen\"}
{\"at\": 12.0, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 6, \"shuffle_ratio\": 1.2, \"reduces\": 3}
{\"at\": 30.0, \"tenant\": \"adhoc\", \"maps\": 1, \"input\": \"gen\"}
{\"at\": 55.0, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 3, \"shuffle_ratio\": 0.8, \"reduces\": 1}
";
    let build = || {
        let mut exp = Experiment::new(observed_cluster(11, true));
        exp.add_trace(trace).expect("trace parses");
        read_ahead_8(&mut exp);
        exp
    };
    let first = build().run();
    assert_eq!(first.tenants.len(), 2);
    let etl = first.tenant("etl").expect("etl tenant reported");
    assert_eq!(etl.submitted, 3);
    assert_eq!(etl.finished, 3);
    assert!(first.faults.expect("chaos active").crashes > 0);
    let canon = canonical_full(&first);
    assert_eq!(
        canon,
        canonical_full(&build().run()),
        "chaos trace replay diverged between two runs of one seed"
    );
    assert_eq!(
        fnv(&canon),
        0x5774_efcb_7ff6_a2db,
        "chaos trace replay canon moved"
    );
}
