//! The namenode: file → block → replica-location metadata and the two
//! placement policies.

use crate::types::{BlockId, BlockInfo, NodeId};
use ibis_obs::EventKind;
use ibis_simcore::rng::SimRng;
use ibis_simcore::units::HDFS_BLOCK;
use std::collections::HashMap;

/// Placement policy for pre-loaded input files.
#[derive(Debug, Clone)]
pub enum Placement {
    /// Replicas uniformly random over all datanodes.
    Uniform,
    /// A fraction `hot_weight / (hot_weight + 1)` of primary replicas land
    /// on the first `hot_nodes` datanodes — the uneven data distribution
    /// used to stress the distributed-coordination experiment (Fig. 12).
    Skewed {
        /// How many of the lowest-numbered nodes are "hot".
        hot_nodes: u32,
        /// Relative placement weight of a hot node vs a cold one (> 1).
        hot_weight: f64,
    },
}

/// Namenode configuration; defaults match Table 1 of the paper.
#[derive(Debug, Clone)]
pub struct NamenodeConfig {
    /// Number of datanodes.
    pub nodes: u32,
    /// `dfs.block.size` (Table 1: 128 MiB).
    pub block_size: u64,
    /// `dfs.replication` (Table 1: 3).
    pub replication: u32,
    /// Placement of pre-loaded input files.
    pub placement: Placement,
    /// RNG seed for placement decisions.
    pub seed: u64,
    /// Rack topology: node *n* lives in rack *n / rack_size*. `0` (the
    /// default) disables rack awareness — secondary placement and replica
    /// choice behave exactly as before, consuming the RNG identically.
    /// With racks on, one secondary goes off-rack for durability and the
    /// rest stay on the writer's rack (the HDFS rack policy), so most
    /// pipeline and read traffic never crosses a rack boundary.
    pub rack_size: u32,
}

impl Default for NamenodeConfig {
    fn default() -> Self {
        NamenodeConfig {
            nodes: 8,
            block_size: HDFS_BLOCK,
            replication: 3,
            placement: Placement::Uniform,
            seed: 0xd15,
            rack_size: 0,
        }
    }
}

/// The namenode. Metadata lookups are O(1); placing a block is
/// O(replication) while every datanode is up and O(nodes) while one is
/// down (the live candidate pools are filtered then).
#[derive(Debug, Clone)]
pub struct Namenode {
    cfg: NamenodeConfig,
    rng: SimRng,
    blocks: HashMap<BlockId, BlockInfo>,
    files: HashMap<String, Vec<BlockId>>,
    next_block: u64,
    /// Datanode liveness, as seen through missed heartbeats. Placement
    /// skips down nodes; `down_count == 0` (the fault-free case) keeps the
    /// fast path — and the RNG consumption — byte-identical to a build
    /// without fault support.
    down: Vec<bool>,
    down_count: u32,
    /// Flight-recorder placement events. The namenode has no clock, so
    /// events are buffered untimed and the engine stamps them on drain.
    obs_enabled: bool,
    obs: Vec<EventKind>,
}

impl Namenode {
    /// Creates a namenode.
    pub fn new(cfg: NamenodeConfig) -> Self {
        assert!(cfg.nodes >= 1, "need at least one datanode");
        assert!(cfg.block_size > 0, "block size must be positive");
        assert!(
            cfg.replication >= 1,
            "replication factor must be at least 1"
        );
        let rng = SimRng::new(cfg.seed);
        Namenode {
            down: vec![false; cfg.nodes as usize],
            cfg,
            rng,
            blocks: HashMap::new(),
            files: HashMap::new(),
            next_block: 0,
            down_count: 0,
            obs_enabled: false,
            obs: Vec::new(),
        }
    }

    /// Turns placement-event buffering on or off.
    pub fn set_recording(&mut self, on: bool) {
        self.obs_enabled = on;
        if !on {
            self.obs.clear();
        }
    }

    /// Moves buffered [`EventKind::BlockPlaced`] events into `sink` in
    /// allocation order; the caller stamps time and node.
    pub fn take_placements(&mut self, sink: &mut Vec<EventKind>) {
        sink.append(&mut self.obs);
    }

    /// The configuration in force.
    pub fn config(&self) -> &NamenodeConfig {
        &self.cfg
    }

    /// Effective replication: never more than the number of nodes.
    fn effective_replication(&self) -> usize {
        (self.cfg.replication as usize).min(self.cfg.nodes as usize)
    }

    fn pick_primary(&mut self) -> NodeId {
        match self.cfg.placement {
            Placement::Uniform => NodeId(self.rng.range_u64(0, self.cfg.nodes as u64) as u32),
            Placement::Skewed {
                hot_nodes,
                hot_weight,
            } => {
                let hot = hot_nodes.min(self.cfg.nodes) as f64;
                let cold = (self.cfg.nodes - hot_nodes.min(self.cfg.nodes)) as f64;
                let hot_mass = hot * hot_weight;
                let total = hot_mass + cold;
                if self.rng.f64() * total < hot_mass {
                    NodeId(self.rng.range_u64(0, hot_nodes.min(self.cfg.nodes) as u64) as u32)
                } else {
                    NodeId(
                        self.rng
                            .range_u64(hot_nodes.min(self.cfg.nodes) as u64, self.cfg.nodes as u64)
                            as u32,
                    )
                }
            }
        }
    }

    /// The rack a node lives in (`0` for every node with racks disabled).
    pub fn rack_of(&self, node: NodeId) -> u32 {
        node.0.checked_div(self.cfg.rack_size).unwrap_or(0)
    }

    /// Appends `extra` distinct nodes different from `primary` to `out`.
    /// While any datanode is marked down it is excluded from the pool (so
    /// new blocks never land on a dead node); with every node up the pool
    /// — and the RNG consumption — is exactly the fault-free one.
    ///
    /// With racks configured, placement follows the HDFS rack policy:
    /// exactly one secondary goes off the primary's rack (durability
    /// against rack failure), the rest stay on-rack — pipeline transfers
    /// and most reads then never cross a rack boundary. Same-rack picks
    /// come first in the replica list, so rack-preferring readers find
    /// them without scanning. Without racks the whole cluster is one
    /// rack, which draws exactly what a single pool of every other node
    /// would.
    ///
    /// Both pools are ascending node ids: the same-rack pool is the
    /// primary's contiguous rack range minus the primary, the off-rack
    /// pool everything outside that range. With every node up a sampled
    /// pool index maps to its node id arithmetically, so a placement
    /// costs O(replication); only while a node is down are the live
    /// pools filtered out, in O(nodes).
    fn pick_secondaries(&mut self, primary: NodeId, extra: usize, out: &mut Vec<NodeId>) {
        let nodes = self.cfg.nodes;
        let p = primary.0;
        let (lo, hi) = match self.cfg.rack_size {
            0 => (0, nodes),
            rs => {
                let lo = p / rs * rs;
                (lo, lo.saturating_add(rs).min(nodes))
            }
        };
        if self.down_count == 0 {
            let rack = hi - lo;
            let (same_take, off_take) =
                split_secondaries(extra, rack as usize - 1, (nodes - rack) as usize);
            let same = self.rng.sample_indices(rack as usize - 1, same_take);
            let off = self.rng.sample_indices((nodes - rack) as usize, off_take);
            out.extend(same.into_iter().map(|i| {
                let n = lo + i as u32;
                NodeId(if n >= p { n + 1 } else { n })
            }));
            out.extend(off.into_iter().map(|i| {
                let n = i as u32;
                NodeId(if n >= lo { n + rack } else { n })
            }));
            return;
        }
        let live = |n: &u32| *n != p && !self.down[*n as usize];
        let same: Vec<u32> = (lo..hi).filter(live).collect();
        let off: Vec<u32> = (0..lo).chain(hi..nodes).filter(live).collect();
        let (same_take, off_take) = split_secondaries(extra, same.len(), off.len());
        let same_idx = self.rng.sample_indices(same.len(), same_take);
        let off_idx = self.rng.sample_indices(off.len(), off_take);
        out.extend(same_idx.into_iter().map(|i| NodeId(same[i])));
        out.extend(off_idx.into_iter().map(|i| NodeId(off[i])));
    }

    /// Marks a datanode dead: it stops receiving new replicas until
    /// [`set_node_up`](Self::set_node_up). Existing block metadata is kept
    /// — readers consult [`locate`](Self::locate) plus
    /// [`is_up`](Self::is_up) to pick a live replica.
    pub fn set_node_down(&mut self, node: NodeId) {
        assert!(node.0 < self.cfg.nodes, "unknown node {node}");
        if !self.down[node.0 as usize] {
            self.down[node.0 as usize] = true;
            self.down_count += 1;
        }
    }

    /// Marks a datanode live again after a restart.
    pub fn set_node_up(&mut self, node: NodeId) {
        assert!(node.0 < self.cfg.nodes, "unknown node {node}");
        if self.down[node.0 as usize] {
            self.down[node.0 as usize] = false;
            self.down_count -= 1;
        }
    }

    /// Whether a datanode is currently considered live.
    pub fn is_up(&self, node: NodeId) -> bool {
        !self.down[node.0 as usize]
    }

    fn register_block(&mut self, bytes: u64, primary: NodeId) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        let extra = self.effective_replication() - 1;
        let mut replicas = Vec::with_capacity(extra + 1);
        replicas.push(primary);
        self.pick_secondaries(primary, extra, &mut replicas);
        if self.obs_enabled {
            self.obs.push(EventKind::BlockPlaced {
                block: id.0,
                primary: primary.0,
                replicas: replicas.len() as u32,
            });
        }
        self.blocks.insert(
            id,
            BlockInfo {
                id,
                bytes,
                replicas,
            },
        );
        id
    }

    /// Registers a pre-loaded input file of `total_bytes`, placed by the
    /// configured policy, and returns its block list (in file order).
    pub fn create_file(&mut self, name: &str, total_bytes: u64) -> Vec<BlockId> {
        assert!(!self.files.contains_key(name), "file {name} already exists");
        let blocks: Vec<BlockId> = ibis_simcore::units::chunks(total_bytes, self.cfg.block_size)
            .map(|bytes| {
                let primary = self.pick_primary();
                self.register_block(bytes, primary)
            })
            .collect();
        self.files.insert(name.to_string(), blocks.clone());
        blocks
    }

    /// Allocates one output block for a writer running on `writer`: first
    /// replica local, the rest on distinct other nodes (the HDFS pipeline).
    pub fn allocate_block(&mut self, writer: NodeId, bytes: u64) -> BlockInfo {
        assert!(writer.0 < self.cfg.nodes, "unknown writer node {writer}");
        let id = self.register_block(bytes, writer);
        self.blocks[&id].clone()
    }

    /// The block list of a file, if it exists.
    pub fn file_blocks(&self, name: &str) -> Option<&[BlockId]> {
        self.files.get(name).map(Vec::as_slice)
    }

    /// Metadata for a block.
    pub fn locate(&self, block: BlockId) -> Option<&BlockInfo> {
        self.blocks.get(&block)
    }

    /// Total blocks registered.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Per-node count of primary replicas (used to verify placement skew).
    pub fn primary_distribution(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cfg.nodes as usize];
        for info in self.blocks.values() {
            counts[info.replicas[0].0 as usize] += 1;
        }
        counts
    }
}

/// How many of `extra` secondaries come from a same-rack pool of `same`
/// nodes and how many from an off-rack pool of `off`: one off-rack
/// replica when one fits, more only if the rack is too small to hold the
/// rest, never more than the two pools hold together.
fn split_secondaries(extra: usize, same: usize, off: usize) -> (usize, usize) {
    let extra = extra.min(same + off);
    let off_take = if off == 0 { 0 } else { 1.min(extra) }
        .max(extra.saturating_sub(same))
        .min(off);
    (extra - off_take, off_take)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_simcore::units::MIB;

    fn nn(nodes: u32) -> Namenode {
        Namenode::new(NamenodeConfig {
            nodes,
            block_size: 128 * MIB,
            ..NamenodeConfig::default()
        })
    }

    #[test]
    fn file_splits_into_blocks_with_tail() {
        let mut n = nn(8);
        let blocks = n.create_file("input", 300 * MIB);
        assert_eq!(blocks.len(), 3);
        let sizes: Vec<u64> = blocks.iter().map(|&b| n.locate(b).unwrap().bytes).collect();
        assert_eq!(sizes, vec![128 * MIB, 128 * MIB, 44 * MIB]);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let mut n = nn(8);
        let blocks = n.create_file("input", 50 * 128 * MIB);
        for &b in &blocks {
            let info = n.locate(b).unwrap();
            assert_eq!(info.replicas.len(), 3);
            let mut r = info.replicas.clone();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), 3, "duplicate replica nodes: {info:?}");
        }
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let mut n = Namenode::new(NamenodeConfig {
            nodes: 2,
            replication: 3,
            ..NamenodeConfig::default()
        });
        let blocks = n.create_file("f", 128 * MIB);
        assert_eq!(n.locate(blocks[0]).unwrap().replicas.len(), 2);
    }

    #[test]
    fn pipeline_write_is_writer_local_first() {
        let mut n = nn(8);
        for writer in 0..8 {
            let info = n.allocate_block(NodeId(writer), 128 * MIB);
            assert_eq!(info.replicas[0], NodeId(writer));
            assert_eq!(info.replicas.len(), 3);
        }
    }

    #[test]
    fn uniform_placement_spreads_primaries() {
        let mut n = nn(8);
        n.create_file("big", 800 * 128 * MIB);
        let dist = n.primary_distribution();
        // 800 blocks over 8 nodes: each should get 100 ± 40.
        for (i, &c) in dist.iter().enumerate() {
            assert!((60..=140).contains(&c), "node{i} has {c} primaries");
        }
    }

    #[test]
    fn skewed_placement_concentrates_primaries() {
        let mut n = Namenode::new(NamenodeConfig {
            nodes: 8,
            placement: Placement::Skewed {
                hot_nodes: 2,
                hot_weight: 6.0,
            },
            ..NamenodeConfig::default()
        });
        n.create_file("big", 800 * 128 * MIB);
        let dist = n.primary_distribution();
        let hot: usize = dist[..2].iter().sum();
        // hot mass = 2·6 = 12 of total 18 → ~2/3 of primaries on 2 nodes.
        assert!(hot > 450, "skew too weak: {dist:?}");
        assert!(hot < 650, "skew too strong: {dist:?}");
    }

    #[test]
    fn duplicate_file_name_panics() {
        let mut n = nn(4);
        n.create_file("x", MIB);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            n.create_file("x", MIB);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn file_blocks_lookup() {
        let mut n = nn(4);
        let blocks = n.create_file("x", 130 * MIB);
        assert_eq!(n.file_blocks("x"), Some(&blocks[..]));
        assert_eq!(n.file_blocks("missing"), None);
        assert_eq!(n.block_count(), 2);
    }

    #[test]
    fn placement_events_recorded_when_enabled() {
        let mut n = nn(8);
        n.create_file("quiet", 128 * MIB); // before enabling: not recorded
        n.set_recording(true);
        n.create_file("loud", 300 * MIB);
        n.allocate_block(NodeId(3), 64 * MIB);
        let mut out = Vec::new();
        n.take_placements(&mut out);
        assert_eq!(out.len(), 4); // 3 input blocks + 1 write
        assert!(matches!(
            out[3],
            EventKind::BlockPlaced {
                primary: 3,
                replicas: 3,
                ..
            }
        ));
        // Drained exactly once.
        let mut again = Vec::new();
        n.take_placements(&mut again);
        assert!(again.is_empty());
        // Disabling discards.
        n.create_file("x", MIB);
        n.set_recording(false);
        n.take_placements(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn down_nodes_excluded_from_new_placements() {
        let mut n = nn(4);
        n.set_node_down(NodeId(2));
        assert!(!n.is_up(NodeId(2)));
        for writer in [0u32, 1, 3] {
            let info = n.allocate_block(NodeId(writer), 128 * MIB);
            assert!(
                !info.replicas.contains(&NodeId(2)),
                "replica on a dead node: {info:?}"
            );
        }
        n.set_node_up(NodeId(2));
        assert!(n.is_up(NodeId(2)));
    }

    #[test]
    fn liveness_marks_do_not_disturb_placement_when_all_up() {
        // Marking a node down and back up must leave future placements
        // exactly where an untouched namenode would put them.
        let mut a = nn(8);
        let mut b = nn(8);
        b.set_node_down(NodeId(5));
        b.set_node_up(NodeId(5));
        let ba = a.create_file("f", 20 * 128 * MIB);
        let bb = b.create_file("f", 20 * 128 * MIB);
        let reps = |n: &Namenode, ids: &[BlockId]| {
            ids.iter()
                .map(|&i| n.locate(i).unwrap().replicas.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(reps(&a, &ba), reps(&b, &bb));
    }

    #[test]
    fn rack_placement_keeps_exactly_one_replica_off_rack() {
        let mut n = Namenode::new(NamenodeConfig {
            nodes: 8,
            rack_size: 4,
            ..NamenodeConfig::default()
        });
        for writer in 0..8 {
            let info = n.allocate_block(NodeId(writer), 128 * MIB);
            assert_eq!(info.replicas.len(), 3);
            assert_eq!(info.replicas[0], NodeId(writer));
            let rack = writer / 4;
            let off: Vec<_> = info.replicas.iter().filter(|r| r.0 / 4 != rack).collect();
            assert_eq!(off.len(), 1, "writer {writer}: {:?}", info.replicas);
            // Same-rack secondary listed before the off-rack one.
            assert_eq!(info.replicas[1].0 / 4, rack, "{:?}", info.replicas);
            let mut r = info.replicas.clone();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), 3);
        }
    }

    #[test]
    fn tiny_rack_falls_back_off_rack() {
        // rack_size 1: the writer is alone on its rack, so both
        // secondaries must go off-rack.
        let mut n = Namenode::new(NamenodeConfig {
            nodes: 4,
            rack_size: 1,
            ..NamenodeConfig::default()
        });
        let info = n.allocate_block(NodeId(2), 128 * MIB);
        assert_eq!(info.replicas.len(), 3);
        assert!(info.replicas[1..].iter().all(|r| r.0 != 2));
    }

    #[test]
    fn rack_placement_skips_down_nodes() {
        let mut n = Namenode::new(NamenodeConfig {
            nodes: 8,
            rack_size: 4,
            ..NamenodeConfig::default()
        });
        n.set_node_down(NodeId(1));
        n.set_node_down(NodeId(2));
        n.set_node_down(NodeId(3));
        // Writer 0's whole rack is otherwise down: all secondaries come
        // from the other rack.
        let info = n.allocate_block(NodeId(0), 128 * MIB);
        assert_eq!(info.replicas[0], NodeId(0));
        assert!(
            info.replicas[1..].iter().all(|r| r.0 >= 4),
            "{:?}",
            info.replicas
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut n = nn(8);
            n.create_file("f", 10 * 128 * MIB)
                .iter()
                .map(|&b| n.locate(b).unwrap().replicas.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
