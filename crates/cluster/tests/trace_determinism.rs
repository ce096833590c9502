//! Tracing determinism (ISSUE 8): causal tracing must be a pure
//! *observer*. For the same experiment, `IBIS_TRACE` on vs off must
//! produce **byte-identical** reports — with observability on (the
//! recording now carries the extra lifecycle events, so the canon
//! compares only trace-independent fields) and off (full canon), clean
//! and under the chaos schedule. The traced runs' canons and assembled
//! traces are pinned: the trace is a pure function of the event
//! timeline.

use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workloads::{teragen, terasort, wordcount};
use std::fmt::Write as _;

fn chaos_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .broker_outage(SimTime::from_secs(4), SimDuration::from_secs(4))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 3)
        .node_crash(1, SimTime::from_secs(6), Some(SimDuration::from_secs(4)))
}

fn observed_cluster(seed: u64, obs: bool, chaos: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        seed,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        auto_reference: false,
        obs: if obs {
            ObsConfig::enabled(1 << 18)
        } else {
            ObsConfig::default()
        },
        metrics: MetricsConfig::enabled(SimDuration::from_millis(500)),
        faults: if chaos {
            FaultsConfig {
                enabled: true,
                schedule: chaos_schedule(0xFA17 ^ seed),
                staleness_bound: SimDuration::from_secs(2),
                retry_backoff: SimDuration::from_millis(100),
                retry_limit: 3,
            }
        } else {
            FaultsConfig::default()
        },
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_coordination(true)
}

/// Jobs, per-app service and latency, broker and fault counters, the
/// recording and the metrics series, with the observer outputs optional
/// (the obs-off arm has no recording) and the trace-owned fields —
/// `trace`, `engine_profile` — excluded alongside `wall_secs`.
fn canonical(r: &RunReport, with_recording: bool) -> String {
    let mut s = String::new();
    for j in &r.jobs {
        writeln!(
            s,
            "job {} app={} sub={:?} fin={:?} rt={} map={} red={}",
            j.name,
            j.app.0,
            j.submitted,
            j.finished,
            j.runtime.as_nanos(),
            j.map_phase.as_nanos(),
            j.reduce_phase.as_nanos(),
        )
        .unwrap();
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

    if with_recording {
        let rec = r.recording.as_ref().expect("recording enabled");
        writeln!(s, "rec seen={} retained={}", rec.seen(), rec.len()).unwrap();
        for e in rec.events() {
            writeln!(s, "ev {:?} n{} d{} {:?}", e.at, e.node, e.dev, e.kind).unwrap();
        }
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

/// Canonical text of the assembled trace itself: the attribution table.
fn canonical_trace(r: &RunReport) -> String {
    let t = r.trace.as_ref().expect("trace assembled");
    let mut s = String::new();
    for a in &t.per_app {
        writeln!(
            s,
            "app {} jobs={} measured={} swept={} comps={:?}",
            a.app, a.jobs, a.measured_ns, a.swept_ns, a.components
        )
        .unwrap();
    }
    s
}

fn experiment(seed: u64, obs: bool, chaos: bool, trace: bool) -> Experiment {
    let mut cfg = observed_cluster(seed, obs, chaos);
    if trace {
        cfg = cfg.with_trace();
    }
    let mut exp = Experiment::new(cfg);
    exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
    exp.add_job(wordcount(GIB).max_slots(8));
    exp.add_job(teragen(GIB).arriving_at(SimDuration::from_secs(5)));
    exp
}

#[test]
fn tracing_on_and_off_byte_identical() {
    for (obs, chaos) in [(false, false), (true, false), (true, true)] {
        let off = canonical(&experiment(42, obs, chaos, false).run(), obs);
        let on = canonical(&experiment(42, obs, chaos, true).run(), obs);
        assert_eq!(
            off, on,
            "tracing perturbed the report (obs={obs} chaos={chaos})"
        );
    }
}

/// The seed-42 traced run, clean and under chaos: its report canon and
/// its assembled trace, pinned. `tracing_on_and_off_byte_identical`
/// compares two runs of one build, so a change that moves both runs the
/// same way passes it; these pins move with it.
#[test]
fn traced_runs_are_pinned() {
    let digest = |text: &str| {
        let mut h = Fnv::default();
        h.write_str(text).unwrap();
        h.0
    };
    let digests: Vec<(u64, u64)> = [false, true]
        .into_iter()
        .map(|chaos| {
            let r = experiment(42, true, chaos, true).run();
            let trace_canon = canonical_trace(&r);
            assert!(!trace_canon.is_empty());
            (digest(&canonical(&r, true)), digest(&trace_canon))
        })
        .collect();
    assert_eq!(
        digests,
        [
            (0x8f15_fed2_99fd_038a, 0x8363_8173_01fb_d2c4),
            (0xbde7_5448_aea0_1e27, 0x5683_4e77_5d2f_af04),
        ],
        "traced canon or trace moved"
    );
}

#[test]
fn traced_chaos_run_spans_stay_well_formed() {
    let r = experiment(7, true, true, true).run();
    let rec = r.recording.as_ref().expect("recording enabled");
    let (jobs, tasks, reqs) =
        ibis_trace::check_well_formed(rec).expect("span tree well-formed under chaos");
    assert!(jobs > 0 && tasks > 0 && reqs > 0);
    let chk = ibis_trace::check(rec, ibis_trace::SUM_REL_TOL);
    assert!(chk.checked > 0);
    assert_eq!(
        chk.violations, 0,
        "attribution sums violated (worst {})",
        chk.worst_rel_err
    );
}

/// Tracing with observability off assembles from the whole event stream:
/// the internal recorder must not inherit `obs.capacity`, or a ring sized
/// for observability would silently truncate the recording and zero the
/// attribution. A 16-event ring setting must give the same trace as an
/// observed run whose ring never evicts; a bounded observed ring shows
/// its loss in `dropped_events`.
#[test]
fn trace_only_run_ignores_the_obs_ring_capacity() {
    let trace = |obs: ObsConfig| {
        let mut exp = experiment(42, false, false, true);
        exp.cluster.obs = obs;
        exp.run().trace.expect("trace assembled")
    };
    let trace_only = trace(ObsConfig {
        enabled: false,
        capacity: 16,
    });
    let unbounded = trace(ObsConfig::enabled(usize::MAX));
    assert_eq!(unbounded.per_app.len(), 3);
    assert_eq!(trace_only.per_app, unbounded.per_app);
    assert_eq!(trace_only.dropped_events, 0);
    assert_eq!(unbounded.dropped_events, 0);
    assert!(trace(ObsConfig::enabled(16)).dropped_events > 0);
}

/// An FNV-1a hasher fed through `fmt::Write`, so a recording's text is
/// digested as it is formatted instead of being built as one string.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digests of the four post-run outputs: the recording (every event in
/// order, drops per node and `seen`), the assembled trace, the
/// attribution check and the audit report.
fn output_digests(r: &RunReport) -> [u64; 4] {
    let rec = r.recording.as_ref().expect("recording enabled");
    let mut h = Fnv::default();
    for e in rec.events() {
        writeln!(h, "{:?} n{} d{} {:?}", e.at, e.node, e.dev, e.kind).unwrap();
    }
    for n in 0..rec.meta.nodes {
        write!(h, "drop{n}={} ", rec.dropped_on(n)).unwrap();
    }
    writeln!(h, "seen={}", rec.seen()).unwrap();
    let recording = h.0;

    let t = r.trace.as_ref().expect("trace assembled");
    let mut h = Fnv::default();
    write!(h, "{:?} {}", t.per_app, t.dropped_events).unwrap();
    let trace = h.0;

    let mut h = Fnv::default();
    write!(h, "{:?}", ibis_trace::check(rec, ibis_trace::SUM_REL_TOL)).unwrap();
    let check = h.0;

    let mut h = Fnv::default();
    let audit = ibis_obs::audit(rec, &ibis_obs::AuditConfig::default());
    write!(h, "{audit:?}").unwrap();
    [recording, trace, check, h.0]
}

/// A reduced twin of the benchmark's observed SWIM run: HDDs, SFQ(D2),
/// the flat broker, four Facebook 2009 jobs at weight 32 against a
/// TeraGen at weight 1, recorder and tracing on.
fn swim_observed_reduced() -> RunReport {
    let hdd = ibis_storage::HddConfig {
        seed: 0x5eed,
        ..ibis_storage::HddConfig::default()
    };
    let cfg = ClusterConfig {
        seed: 1,
        hdfs_device: DeviceSpec::Hdd(hdd.clone()),
        scratch_device: DeviceSpec::Hdd(hdd),
        obs: ObsConfig::enabled(1 << 20),
        metrics: MetricsConfig::default(),
        faults: FaultsConfig::default(),
        trace: ibis_trace::TraceConfig::on(),
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_coordination(true);
    let mut exp = Experiment::new(cfg);
    let swim = ibis_workloads::SwimConfig {
        jobs: 4,
        ..ibis_workloads::SwimConfig::default()
    };
    for mut job in ibis_workloads::facebook2009(&swim) {
        job.io_weight = 32.0;
        job.max_slots = Some(48);
        exp.add_job(job);
    }
    exp.add_job(teragen(2 * GIB).io_weight(1.0).max_slots(48));
    exp.run()
}

/// The recording, the assembled trace, the attribution check and the
/// audit report of two runs, pinned. The other tests here compare two
/// runs of one build, so a change that moves both runs the same way
/// passes them; these pins move with it. The chaos run's ring is small
/// enough to evict on some nodes and not others, so eviction order and
/// the clamps on truncated streams are pinned too.
#[test]
fn post_run_outputs_are_pinned() {
    let swim = swim_observed_reduced();
    let rec = swim.recording.as_ref().expect("recording enabled");
    assert_eq!((rec.len(), rec.dropped_total()), (107_549, 0));
    assert_eq!(
        output_digests(&swim),
        [
            0x4a55_55cf_0dfd_16be,
            0xc612_eded_dc0d_a5be,
            0x5fd6_fd85_219b_bd8a,
            0xf8e3_fa23_1406_631c,
        ],
        "swim outputs moved"
    );

    let mut exp = experiment(42, true, true, true);
    exp.cluster.obs = ObsConfig::enabled(3000);
    let chaos = exp.run();
    let rec = chaos.recording.as_ref().expect("recording enabled");
    let drops: Vec<u64> = (0..rec.meta.nodes).map(|n| rec.dropped_on(n)).collect();
    assert_eq!((rec.len(), drops), (11_502, vec![1607, 246, 404, 0]));
    assert_eq!(
        output_digests(&chaos),
        [
            0xfb86_a21a_6eef_3033,
            0x77a3_bf3b_5709_7706,
            0xbf9a_73df_ac1d_fff2,
            0x6f2a_59d2_9a0f_980e,
        ],
        "chaos outputs moved"
    );
}
