//! `broker_tree_equivalence`: the hierarchical broker is *semantically
//! invisible*. For any interleaving of per-node delta reports across any
//! number of sync rounds and any rack size, the tree's root totals equal a
//! flat [`SchedulingBroker`] fed the same reports, every reply covers
//! exactly the reported apps with end-of-round totals, and retirement
//! behaves identically. Only message *routing* (and therefore the
//! per-level wire accounting) differs.

use ibis_core::broker::SchedulingBroker;
use ibis_core::broker_tree::{BrokerTree, BrokerTreeConfig};
use ibis_core::prelude::*;
use ibis_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

/// One sync round: a list of `(node, report)` in arrival order, plus apps
/// retired after the round completes.
#[derive(Debug, Clone)]
struct Round {
    reports: Vec<(u8, Vec<(u8, u32)>)>,
    retires: Vec<u8>,
}

fn round_strategy() -> impl Strategy<Value = Round> {
    (
        prop::collection::vec(
            (
                0u8..12,
                prop::collection::vec((0u8..6, 0u32..1_000_000), 0..4),
            ),
            0..8,
        ),
        prop::collection::vec(0u8..6, 0..2),
    )
        .prop_map(|(reports, retires)| Round { reports, retires })
}

proptest! {
    #[test]
    fn broker_tree_equivalence(
        rounds in prop::collection::vec(round_strategy(), 1..12),
        rack_size in 1u32..5,
    ) {
        let mut tree = BrokerTree::new(BrokerTreeConfig {
            rack_size,
            hop_latency: SimDuration::from_micros(50),
        });
        let mut flat = SchedulingBroker::new();
        // Independent model of the end-of-round totals.
        let mut model: HashMap<AppId, u64> = HashMap::new();

        for (round_idx, round) in rounds.iter().enumerate() {
            let now = SimTime::from_secs(round_idx as u64 + 1);
            tree.begin_round();
            for (node, entries) in &round.reports {
                let local: Vec<(AppId, u64)> = entries
                    .iter()
                    .map(|&(a, b)| (AppId(a as u32), b as u64))
                    .collect();
                for &(app, bytes) in &local {
                    *model.entry(app).or_insert(0) += bytes;
                }
                tree.report(*node as u32, &local);
                flat.report(&local);
            }
            tree.complete_round(now);

            // Totals: tree root == flat broker == model, for any
            // interleaving and any rack shape.
            prop_assert_eq!(tree.totals_sorted(), flat.totals_sorted());
            prop_assert_eq!(tree.live_apps(), flat.live_apps());

            // Replies: one per report, covering exactly the reported apps
            // with the *end-of-round* totals (the tree's replies are
            // never staler than flat's mid-round ones).
            prop_assert_eq!(tree.subs_len(), round.reports.len());
            for (i, (node, entries)) in round.reports.iter().enumerate() {
                let (reply_node, reply) = tree.reply_for(i);
                prop_assert_eq!(reply_node, *node as u32);
                prop_assert_eq!(reply.len(), entries.len());
                for (&(a, _), &(reply_app, total)) in entries.iter().zip(reply.iter()) {
                    prop_assert_eq!(reply_app, AppId(a as u32));
                    prop_assert_eq!(total, model[&reply_app]);
                }
            }

            for &a in &round.retires {
                let app = AppId(a as u32);
                tree.retire(app);
                flat.retire(app);
                model.remove(&app);
                prop_assert_eq!(tree.total(app), None);
            }
        }

        // Per-scheduler wire traffic (level 0) is identical to the flat
        // broker's: same report/reply counts, same payload bytes. The
        // hierarchy only *adds* the aggregator level.
        let (ts, fs) = (tree.stats(), flat.stats());
        prop_assert_eq!(ts.reports, fs.reports);
        prop_assert_eq!(ts.replies, fs.replies);
        prop_assert_eq!(ts.payload_bytes, fs.payload_bytes);
    }
}
