//! Property-based tests of the storage device and link models.

use ibis_simcore::SimTime;
use ibis_storage::{
    Device, DeviceModel, DeviceRequest, Hdd, HddConfig, IoKind, PsLink, Ssd, SsdConfig,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Submit { read: bool, stream: u8, mib: u8 },
    CompleteNext,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (prop::bool::ANY, 0u8..5, 1u8..9).prop_map(|(read, stream, mib)| Op::Submit {
            read,
            stream,
            mib
        }),
        2 => Just(Op::CompleteNext),
    ]
}

/// Drives any device through random traffic, checking conservation and
/// monotonicity invariants.
fn drive(mut dev: DeviceModel, ops: Vec<Op>) {
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut pending: Vec<ibis_storage::Started> = Vec::new();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut out = Vec::new();

    for op in ops {
        match op {
            Op::Submit { read, stream, mib } => {
                out.clear();
                dev.submit(
                    DeviceRequest {
                        id: next_id,
                        kind: if read { IoKind::Read } else { IoKind::Write },
                        stream: stream as u64,
                        bytes: mib as u64 * (1 << 20),
                    },
                    now,
                    &mut out,
                );
                next_id += 1;
                submitted += 1;
                for s in &out {
                    assert!(s.complete_at >= now, "completion in the past");
                    pending.push(*s);
                }
            }
            Op::CompleteNext => {
                if pending.is_empty() {
                    continue;
                }
                // earliest completion first, as the engine would
                let idx = pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.complete_at)
                    .map(|(i, _)| i)
                    .unwrap();
                let s = pending.swap_remove(idx);
                now = now.max(s.complete_at);
                out.clear();
                dev.on_complete(s.id, now, &mut out);
                completed += 1;
                for st in &out {
                    assert!(st.complete_at >= now);
                    pending.push(*st);
                }
            }
        }
        assert_eq!(
            dev.in_service(),
            pending.len(),
            "device in_service disagrees with engine view"
        );
    }
    // Drain.
    while !pending.is_empty() {
        let idx = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.complete_at)
            .map(|(i, _)| i)
            .unwrap();
        let s = pending.swap_remove(idx);
        now = now.max(s.complete_at);
        out.clear();
        dev.on_complete(s.id, now, &mut out);
        completed += 1;
        pending.extend(out.iter().copied());
    }
    assert_eq!(submitted, completed, "requests lost in the device");
    assert_eq!(dev.outstanding(), 0);
}

proptest! {
    #[test]
    fn hdd_conserves_requests(ops in prop::collection::vec(op_strategy(), 1..150)) {
        drive(
            DeviceModel::Hdd(Hdd::new(HddConfig::default())),
            ops,
        );
    }

    #[test]
    fn ssd_conserves_requests(ops in prop::collection::vec(op_strategy(), 1..150)) {
        drive(DeviceModel::Ssd(Ssd::new(SsdConfig::default())), ops);
    }

    /// The PS link completes every transfer exactly once.
    #[test]
    fn ps_link_conserves_transfers(sizes in prop::collection::vec(1u64..100_000_000, 1..60)) {
        let mut link = PsLink::new(100e6);
        let mut timer = None;
        for (i, &s) in sizes.iter().enumerate() {
            timer = Some(link.start(i as u64, s, 1.0, SimTime::ZERO));
        }
        let mut completions = vec![0u32; sizes.len()];
        let mut finished = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(t) = timer {
            finished.clear();
            timer = link.on_timer(t.at, t.epoch, &mut finished);
            prop_assert!(t.at >= last);
            last = t.at;
            for &id in &finished {
                completions[id as usize] += 1;
            }
        }
        prop_assert!(completions.iter().all(|&c| c == 1), "completions per id: {:?}", completions);
        prop_assert_eq!(link.active(), 0);
        // Makespan at least total/capacity (can't beat the link rate).
        let min_secs = sizes.iter().sum::<u64>() as f64 / 100e6;
        prop_assert!(last.as_secs_f64() >= min_secs * 0.999, "{last} < {min_secs}");
    }

    /// Staggered joins never stall the link: it finishes within the
    /// serial bound plus the stagger span.
    #[test]
    fn ps_link_with_staggered_arrivals(arrivals in prop::collection::vec((0u64..5_000, 1u64..50_000_000), 1..40)) {
        let mut link = PsLink::new(100e6);
        let mut events: Vec<(SimTime, usize)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(at, _))| (SimTime::from_millis(at), i))
            .collect();
        events.sort_by_key(|&(t, i)| (t, i));
        let mut timer: Option<ibis_storage::link::LinkTimer> = None;
        let mut finished = Vec::new();
        let mut done = 0usize;
        let mut idx = 0usize;
        let mut now;
        loop {
            let next_arrival = events.get(idx).map(|&(t, _)| t);
            let next_timer = timer.as_ref().map(|t| t.at);
            match (next_arrival, next_timer) {
                (Some(a), t) if t.is_none_or(|t| a <= t) => {
                    now = a;
                    let (_, i) = events[idx];
                    idx += 1;
                    timer = Some(link.start(i as u64, arrivals[i].1, 1.0, now));
                }
                (Some(_), None) => unreachable!("guard above covers this"),
                (_, Some(t)) => {
                    now = t;
                    let epoch = timer.take().unwrap().epoch;
                    finished.clear();
                    timer = link.on_timer(now, epoch, &mut finished);
                    done += finished.len();
                }
                (None, None) => break,
            }
        }
        prop_assert_eq!(done, arrivals.len());
        prop_assert_eq!(link.active(), 0);
    }
}
