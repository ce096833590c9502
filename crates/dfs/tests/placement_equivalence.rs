//! Arithmetic placement against the pool-based placement it replaced.
//!
//! With every datanode up the namenode maps sampled pool indices to node
//! ids arithmetically, and `SimRng::sample_indices` runs a sparse partial
//! Fisher–Yates. This file keeps test-local copies of the dense versions:
//! every node listed in explicit same-rack / off-rack pools, and an
//! `n`-element pool shuffled in place. Random clusters, rack sizes,
//! replication factors, writers, seeds and down-node sets must give the
//! same replica lists and leave the RNG at the same position.

use ibis_dfs::{Namenode, NamenodeConfig, NodeId, Placement};
use ibis_simcore::rng::SimRng;
use ibis_simcore::units::MIB;
use proptest::prelude::*;

/// The dense partial Fisher–Yates `sample_indices` used to run.
fn dense_sample(rng: &mut SimRng, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.index(n - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// The pool-based namenode placement: uniform primaries, secondaries
/// drawn from pools that list every eligible node.
struct PoolPlacement {
    nodes: u32,
    rack_size: u32,
    replication: u32,
    down: Vec<bool>,
    rng: SimRng,
}

impl PoolPlacement {
    fn rack_of(&self, n: u32) -> u32 {
        n.checked_div(self.rack_size).unwrap_or(0)
    }

    fn secondaries(&mut self, primary: u32, extra: usize) -> Vec<u32> {
        let any_down = self.down.iter().any(|&d| d);
        if self.rack_size == 0 {
            let pool: Vec<u32> = (0..self.nodes)
                .filter(|&n| n != primary && !(any_down && self.down[n as usize]))
                .collect();
            let k = extra.min(pool.len());
            return dense_sample(&mut self.rng, pool.len(), k)
                .into_iter()
                .map(|i| pool[i])
                .collect();
        }
        let rack = self.rack_of(primary);
        let live = |n: u32| n != primary && !(any_down && self.down[n as usize]);
        let same: Vec<u32> = (0..self.nodes)
            .filter(|&n| live(n) && self.rack_of(n) == rack)
            .collect();
        let off: Vec<u32> = (0..self.nodes)
            .filter(|&n| live(n) && self.rack_of(n) != rack)
            .collect();
        let extra = extra.min(same.len() + off.len());
        let off_take = if off.is_empty() { 0 } else { 1.min(extra) }
            .max(extra.saturating_sub(same.len()))
            .min(off.len());
        let same_take = extra - off_take;
        let mut out: Vec<u32> = dense_sample(&mut self.rng, same.len(), same_take)
            .into_iter()
            .map(|i| same[i])
            .collect();
        out.extend(
            dense_sample(&mut self.rng, off.len(), off_take)
                .into_iter()
                .map(|i| off[i]),
        );
        out
    }

    fn place(&mut self, primary: u32) -> Vec<NodeId> {
        let extra = (self.replication.min(self.nodes) - 1) as usize;
        let mut replicas = vec![primary];
        replicas.extend(self.secondaries(primary, extra));
        replicas.into_iter().map(NodeId).collect()
    }

    fn primary(&mut self) -> u32 {
        self.rng.range_u64(0, self.nodes as u64) as u32
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A pipeline write from writer `w % nodes`.
    Write { w: u32 },
    /// A pre-loaded input file of `blocks` blocks.
    File { blocks: u8 },
    /// Toggle the liveness of node `n % nodes`.
    Toggle { n: u32 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u32..1000).prop_map(|w| Op::Write { w }),
        2 => (1u8..6).prop_map(|blocks| Op::File { blocks }),
        1 => (0u32..1000).prop_map(|n| Op::Toggle { n }),
    ]
}

fn check(nodes: u32, rack_size: u32, replication: u32, seed: u64, ops: &[Op]) {
    let block = 128 * MIB;
    let mut nn = Namenode::new(NamenodeConfig {
        nodes,
        block_size: block,
        replication,
        placement: Placement::Uniform,
        seed,
        rack_size,
    });
    let mut reference = PoolPlacement {
        nodes,
        rack_size,
        replication,
        down: vec![false; nodes as usize],
        rng: SimRng::new(seed),
    };
    let mut files = 0;
    let mut create = |nn: &mut Namenode, reference: &mut PoolPlacement, blocks: u8| {
        files += 1;
        let ids = nn.create_file(&format!("f{files}"), blocks as u64 * block);
        for id in ids {
            let want = reference.primary();
            assert_eq!(nn.locate(id).unwrap().replicas, reference.place(want));
        }
    };
    for op in ops {
        match *op {
            Op::Write { w } => {
                let writer = w % nodes;
                let got = nn.allocate_block(NodeId(writer), block).replicas;
                assert_eq!(got, reference.place(writer), "writer n{writer}");
            }
            Op::File { blocks } => create(&mut nn, &mut reference, blocks),
            Op::Toggle { n } => {
                let n = n % nodes;
                let down = &mut reference.down[n as usize];
                *down = !*down;
                if *down {
                    nn.set_node_down(NodeId(n));
                } else {
                    nn.set_node_up(NodeId(n));
                }
            }
        }
    }
    // Both generators sit at the same stream position: the next primaries
    // (one uniform draw each) and their placements agree.
    create(&mut nn, &mut reference, 8);
}

proptest! {
    #[test]
    fn arithmetic_placement_matches_pool_placement(
        nodes in 1u32..300,
        rack_size in 0u32..41,
        replication in 1u32..6,
        seed in 0u64..u64::MAX,
        ops in prop::collection::vec(op(), 1..80),
    ) {
        check(nodes, rack_size, replication, seed, &ops);
    }

    #[test]
    fn sparse_sample_indices_matches_dense(
        n in 0usize..2000,
        k in 0usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let k = k.min(n);
        let mut sparse = SimRng::new(seed);
        let mut dense = sparse.clone();
        prop_assert_eq!(sparse.sample_indices(n, k), dense_sample(&mut dense, n, k));
        prop_assert_eq!(sparse.next_u64(), dense.next_u64());
    }
}

/// Racks that do not divide the node count, racks wider than the cluster
/// and the no-rack layout, every writer, with and without a down node.
#[test]
fn edge_layouts_match_pool_placement() {
    for (nodes, rack_size) in [
        (1, 0),
        (2, 0),
        (7, 3),
        (10, 4),
        (5, 5),
        (5, 9),
        (33, 16),
        (3, 1),
    ] {
        for replication in 1..=5 {
            let writes: Vec<Op> = (0..nodes).map(|w| Op::Write { w }).collect();
            check(nodes, rack_size, replication, 42, &writes);
            let mut with_down = vec![Op::Toggle { n: nodes / 2 }];
            with_down.extend(writes.iter().cloned());
            check(nodes, rack_size, replication, 43, &with_down);
        }
    }
}
