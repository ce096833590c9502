//! `tree_recovery_properties`: the fault-tolerant coordination protocol
//! *converges*. For any schedule of per-round delta reports with random
//! wire dispositions (delivered, dropped, duplicated, reordered), random
//! leaf-aggregator restarts, and random rack partitions (racks that skip
//! whole rounds while their schedulers keep accumulating), two clean tail
//! rounds — every node in contact, every message delivered — bring the
//! root totals byte-for-byte equal to a flat [`SchedulingBroker`] that
//! saw every logical delta the moment it was generated. Along the way the
//! root's cumulative totals and every scheduler-visible reply total are
//! monotone non-decreasing: the snapshot resync is clamped, so recovery
//! can lag but never un-report service.

use ibis_core::broker::SchedulingBroker;
use ibis_core::broker_tree::{BrokerTree, BrokerTreeConfig};
use ibis_core::prelude::*;
use ibis_core::Delivery;
use ibis_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

const NODES: u32 = 12;

/// One scheduler's action in a round: fresh per-app deltas plus the
/// wire's verdict for the report it sends (if its rack is reachable).
#[derive(Debug, Clone)]
struct Action {
    node: u8,
    entries: Vec<(u8, u32)>,
    disp: Delivery,
}

/// One sync round of the random schedule.
#[derive(Debug, Clone)]
struct Round {
    actions: Vec<Action>,
    /// A node whose rack's leaf aggregator crashes and restarts empty
    /// before this round.
    restart_at: Option<u8>,
    /// Nodes whose racks are partitioned for this round: every node on
    /// those racks skips reporting (deltas keep accumulating locally).
    partition_at: Vec<u8>,
}

fn disp_strategy() -> impl Strategy<Value = Delivery> {
    prop_oneof![
        5 => Just(Delivery::Ok),
        1 => Just(Delivery::Drop),
        1 => Just(Delivery::Dup),
        1 => Just(Delivery::Reorder),
    ]
}

fn round_strategy() -> impl Strategy<Value = Round> {
    (
        prop::collection::vec(
            (
                0u8..NODES as u8,
                prop::collection::vec((0u8..6, 0u32..1_000_000), 0..4),
                disp_strategy(),
            )
                .prop_map(|(node, entries, disp)| Action {
                    node,
                    entries,
                    disp,
                }),
            0..10,
        ),
        prop_oneof![
            17 => Just(None),
            3 => (0u8..NODES as u8).prop_map(Some),
        ],
        prop::collection::vec(0u8..NODES as u8, 0..2),
    )
        .prop_map(|(actions, restart_at, partition_at)| Round {
            actions,
            restart_at,
            partition_at,
        })
}

proptest! {
    #[test]
    fn tree_recovery_properties(
        rounds in prop::collection::vec(round_strategy(), 1..14),
        rack_size in 1u32..5,
    ) {
        let mut tree = BrokerTree::new(BrokerTreeConfig {
            rack_size,
            hop_latency: SimDuration::from_micros(50),
        });
        tree.enable_protocol();
        // Reference: a flat broker fed every logical delta immediately —
        // the fault-free ground truth the tree must re-converge to.
        let mut flat = SchedulingBroker::new();
        // Deltas generated but not yet handed to the tree (the node's
        // rack was partitioned, so the scheduler buffered them).
        let mut unreported: Vec<Vec<(AppId, u64)>> = vec![Vec::new(); NODES as usize];
        // Monotonicity witnesses.
        let mut root_seen: HashMap<AppId, u64> = HashMap::new();
        let mut reply_seen: HashMap<(u32, AppId), u64> = HashMap::new();

        let mut clock = 0u64;
        let run_round = |tree: &mut BrokerTree,
                             flat: &mut SchedulingBroker,
                             unreported: &mut Vec<Vec<(AppId, u64)>>,
                             root_seen: &mut HashMap<AppId, u64>,
                             reply_seen: &mut HashMap<(u32, AppId), u64>,
                             clock: &mut u64,
                             round: &Round| {
            *clock += 1;
            if let Some(n) = round.restart_at {
                tree.leaf_restart(n as u32 / rack_size);
            }
            let dark: Vec<u32> = round
                .partition_at
                .iter()
                .map(|&n| n as u32 / rack_size)
                .collect();
            tree.begin_round();
            for a in &round.actions {
                let local: Vec<(AppId, u64)> = a
                    .entries
                    .iter()
                    .map(|&(app, b)| (AppId(app as u32), b as u64))
                    .collect();
                // The reference sees every delta the instant it exists.
                flat.report(&local);
                let node = a.node as u32;
                unreported[node as usize].extend_from_slice(&local);
                if dark.contains(&(node / rack_size)) {
                    continue; // partitioned: the delta stays buffered
                }
                let pending = std::mem::take(&mut unreported[node as usize]);
                tree.report_ft(node, &pending, a.disp);
            }
            tree.complete_round(SimTime::from_secs(*clock));

            // Root totals never regress, fault or no fault.
            for (app, total) in tree.totals_sorted() {
                let prev = root_seen.entry(app).or_insert(0);
                prop_assert!(
                    total >= *prev,
                    "root total for {app:?} regressed: {total} < {prev}"
                );
                *prev = total;
            }
            // Scheduler-visible reply totals never regress either.
            for i in 0..tree.subs_len() {
                let (node, reply) = tree.reply_for(i);
                for &(app, total) in reply {
                    let prev = reply_seen.entry((node, app)).or_insert(0);
                    prop_assert!(
                        total >= *prev,
                        "reply to node {node} for {app:?} regressed: {total} < {prev}"
                    );
                    *prev = total;
                }
            }
        };

        for round in &rounds {
            run_round(
                &mut tree,
                &mut flat,
                &mut unreported,
                &mut root_seen,
                &mut reply_seen,
                &mut clock,
                round,
            );
        }

        // Two clean tail rounds: no faults, every node with buffered
        // deltas or unacknowledged protocol state makes contact. This is
        // exactly what the engine does after a heal — forced (possibly
        // empty) reports — and it must be enough to fully re-converge.
        for _ in 0..2 {
            let tail = Round {
                actions: (0..NODES as u8)
                    .map(|node| Action {
                        node,
                        entries: Vec::new(),
                        disp: Delivery::Ok,
                    })
                    .collect(),
                restart_at: None,
                partition_at: Vec::new(),
            };
            run_round(
                &mut tree,
                &mut flat,
                &mut unreported,
                &mut root_seen,
                &mut reply_seen,
                &mut clock,
                &tail,
            );
        }

        // Post-heal reconciliation: the repaired tree equals the
        // fault-free reference, byte for byte.
        prop_assert_eq!(tree.totals_sorted(), flat.totals_sorted());
        prop_assert_eq!(tree.live_apps(), flat.live_apps());
    }
}
