//! Table 2 analogue for the `ibis-obs` flight recorder: what tracing
//! costs. Runs the same contended SFQ(D2) experiment with the recorder
//! off and on, reports the wall-clock delta, the event rate the recorder
//! absorbed, and the bytes it retained — and feeds the captured recording
//! through the fairness auditor so the overhead row is only reported for
//! a recording that actually certifies the run.

use crate::experiments::{hdd_cluster, sfqd2, tg_half, wc_half};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_obs::{audit, AuditConfig, ObsConfig};

/// The contended run on `cfg`: WordCount (I/O weight 32) against TeraGen
/// (weight 1), each on half the slots. `cfg` is the HDD testbed under
/// SFQ(D2), `hdd_cluster(sfqd2())`, with the caller's recorder setting;
/// `bench obs` times this run.
pub fn contended(scale: ScaleProfile, cfg: ClusterConfig) -> RunReport {
    let mut exp = Experiment::new(cfg);
    exp.add_job(wc_half(scale).io_weight(32.0));
    exp.add_job(tg_half(scale).io_weight(1.0));
    exp.run()
}

/// Runs the table.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("obs_overhead", scale.label());
    println!(
        "Flight-recorder overhead — WordCount vs TeraGen under SFQ(D2) ({})\n",
        scale.label()
    );

    // Recorder off: ObsConfig::default() is disabled regardless of the
    // environment, so this row is the untraced baseline even under
    // IBIS_OBS=1.
    let cluster = |obs| ClusterConfig {
        obs,
        ..hdd_cluster(sfqd2())
    };
    let off = contended(scale, cluster(ObsConfig::default()));
    let on = contended(scale, cluster(ObsConfig::enabled(1 << 16)));
    let rec = on.recording.as_ref().expect("recorder was enabled");

    let overhead_pct = (on.wall_secs / off.wall_secs - 1.0) * 100.0;
    let events_per_sec = if on.wall_secs > 0.0 {
        rec.seen() as f64 / on.wall_secs
    } else {
        0.0
    };

    let mut t = Table::new(&[
        "recorder",
        "wall (s)",
        "obs events",
        "events/s",
        "retained KB",
    ]);
    t.row(&[
        "off".into(),
        format!("{:.3}", off.wall_secs),
        "0".into(),
        "—".into(),
        "0".into(),
    ]);
    t.row(&[
        "on".into(),
        format!("{:.3}", on.wall_secs),
        rec.seen().to_string(),
        format!("{events_per_sec:.0}"),
        format!("{:.1}", rec.retained_bytes() as f64 / 1e3),
    ]);
    t.print();
    println!(
        "\noverhead {overhead_pct:+.1}% wall-clock; {} events dropped by the ring",
        rec.dropped_total()
    );

    let mut report = audit(rec, &AuditConfig::default());
    let summary = report.summary();
    println!("audit: {summary}");
    assert!(
        report.passed(),
        "recorded run failed the fairness audit: {summary}"
    );

    sink.record("wall_off_s", off.wall_secs);
    sink.record("wall_on_s", on.wall_secs);
    sink.record("overhead_pct", overhead_pct);
    sink.record("events_seen", rec.seen() as f64);
    sink.record("events_per_sec", events_per_sec);
    sink.record("retained_bytes", rec.retained_bytes() as f64);
    sink.record("dropped_events", rec.dropped_total() as f64);
    sink.record("audit_violations", report.violation_count as f64);
    sink.note(
        "Target (Table 2 spirit): recording must stay a rounding error — \
         single-digit % wall-clock at quick scale, bounded memory via the \
         per-node ring — while the capture passes all three fairness \
         invariants.",
    );
    sink
}
