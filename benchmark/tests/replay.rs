//! The layer replays make the calls the recording implies.

use ibis_benchmark::replay;
use ibis_benchmark::run::simulate;
use ibis_benchmark::spans::Spans;
use ibis_benchmark::workloads::{Kind, Workload, OBS_CAPACITY};
use ibis_obs::{EventKind, ObsConfig};

#[test]
fn sched_replay_makes_one_call_per_recorded_event() {
    let w = Workload::reduced(Kind::PaperSwimHdd, 1);
    let mut exp = w.taps_off();
    exp.cluster.obs = ObsConfig::enabled(OBS_CAPACITY);
    let rec = simulate(&exp, false).report.recording.expect("recording");
    let count =
        |f: fn(&EventKind) -> bool| rec.events().iter().filter(|e| f(&e.kind)).count() as u64;
    let queued = count(|k| matches!(k, EventKind::IoQueued { .. }));
    let completed = count(|k| matches!(k, EventKind::Completed { .. }));
    let arrived = count(|k| matches!(k, EventKind::JobArrived { .. }));
    let started = count(|k| matches!(k, EventKind::TaskStarted { .. }));
    assert!(queued > 0 && completed == queued);

    let mut spans = Spans::new(0);
    let s = replay::sched(&exp.cluster, &rec, &mut spans);
    assert_eq!(s.submits, queued);
    assert_eq!(s.completes, completed);
    assert_eq!(
        s.set_weight.calls,
        arrived * u64::from(exp.cluster.nodes) * 2
    );

    let mr = replay::mapreduce(&exp, &rec, &mut spans);
    assert_eq!(mr.placed, started, "assignment replay diverged");
    assert_eq!(mr.unmatched, 0);

    let storage = replay::storage(&exp.cluster, &rec, &mut spans);
    assert_eq!(storage.calls, 2 * completed);
    assert!(spans.totals().contains_key("replay.sched"));
}
