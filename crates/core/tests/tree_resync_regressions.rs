//! `tree_resync_regressions`: a leaf must never apply more service from a
//! scheduler link than the scheduler has sent. When it does, the next
//! snapshot resync computes `sent_cum - contrib` below zero, and the
//! service applied twice inflates the root's totals. Two paths led
//! there:
//!
//! * **Back-to-back reordering.** A held report that lands after a gap
//!   triggers a resync whose snapshot already contains the *next* report,
//!   itself held on the wire. Acking only up to the held report's seq let
//!   that next report land in order later and fold a second time.
//! * **Retire with a report held on the wire.** `BrokerTree::retire`
//!   forgets the app on every link, but a held report still carried the
//!   retired generation's bytes; landing in order, it folded them into
//!   the reused app's totals.

use ibis_core::broker_tree::{BrokerTree, BrokerTreeConfig};
use ibis_core::{AppId, Delivery};
use ibis_simcore::{SimDuration, SimTime};

const A: AppId = AppId(1);
const B: AppId = AppId(2);

fn armed_tree() -> BrokerTree {
    let mut t = BrokerTree::new(BrokerTreeConfig {
        rack_size: 2,
        hop_latency: SimDuration::from_micros(50),
    });
    t.enable_protocol();
    t
}

/// One round in which node 0 alone reports `local` with disposition `d`.
fn round(t: &mut BrokerTree, secs: u64, local: &[(AppId, u64)], d: Delivery) -> bool {
    t.begin_round();
    let out = t.report_ft(0, local, d);
    t.complete_round(SimTime::from_secs(secs));
    out.resynced
}

#[test]
fn report_covered_by_a_resync_snapshot_is_not_applied_again() {
    let mut t = armed_tree();
    assert!(!round(&mut t, 1, &[(A, 1)], Delivery::Ok));
    // seq 1 is lost, seq 2 is held back.
    round(&mut t, 2, &[(A, 2)], Delivery::Drop);
    round(&mut t, 3, &[(A, 4)], Delivery::Reorder);
    // seq 3 is held back too; seq 2 lands behind the gap and resyncs
    // node 0 from a snapshot that already holds seq 3's delta.
    assert!(round(&mut t, 4, &[(A, 8)], Delivery::Reorder));
    assert_eq!(t.total(A), Some(15));
    // seq 4 (B only) is held; seq 3 lands and must be ignored as covered.
    round(&mut t, 5, &[(B, 1)], Delivery::Reorder);
    assert_eq!(t.total(A), Some(15), "seq 3 folded twice");
    // A report with no A entry: seq 5 lands behind the held seq 4 and
    // resyncs again, with A's applied contribution equal to what was sent.
    assert!(round(&mut t, 6, &[], Delivery::Ok));
    assert_eq!(t.total(A), Some(15));
    assert_eq!(t.total(B), Some(1));
    // Nothing is left unacknowledged: the next report lands in order.
    assert!(!round(&mut t, 7, &[], Delivery::Ok));
    assert_eq!((t.total(A), t.total(B)), (Some(15), Some(1)));
}

#[test]
fn held_report_from_a_retired_generation_is_not_applied() {
    let mut t = armed_tree();
    // Round 1: node 0's report for A is held back on the wire.
    t.begin_round();
    t.report_ft(0, &[(A, 384), (B, 5)], Delivery::Reorder);
    t.complete_round(SimTime::from_secs(1));
    // A's last job finishes: the flow retires everywhere. The same AppId
    // comes back for the tenant's next job.
    t.retire(A);
    // Round 2: the new generation's report is lost; the held message is
    // now next in sequence and lands in order.
    t.begin_round();
    t.report_ft(0, &[(A, 256)], Delivery::Drop);
    t.complete_round(SimTime::from_secs(2));
    // Round 3: the gap left by the drop forces a snapshot resync of
    // node 0's post-retire state.
    t.begin_round();
    let out = t.report_ft(0, &[], Delivery::Ok);
    assert!(
        out.resynced,
        "the dropped report's gap must trigger a resync"
    );
    t.complete_round(SimTime::from_secs(3));
    // Only the new generation's service counts for A; B, which was not
    // retired, keeps the held report's bytes.
    assert_eq!(t.total(A), Some(256));
    assert_eq!(t.total(B), Some(5));
    // Nothing is left unacknowledged: the next report lands in order.
    assert!(!round(&mut t, 4, &[], Delivery::Ok));
    assert_eq!((t.total(A), t.total(B)), (Some(256), Some(5)));
}
