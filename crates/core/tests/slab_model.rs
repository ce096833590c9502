//! Model-based property test of the generational slab (`ibis_core::slab`).
//!
//! The model writes the spec down directly: a generation per slot index,
//! a LIFO stack of freed indices, and a `BTreeMap` of live entries by
//! index. Random sequences of inserts, lookups, in-place updates,
//! removals and key sweeps run on both, probing with live keys, stale
//! keys (removed, or reused under a newer generation), keys aimed at
//! vacant slots, and keys with forged generations. Every issued key,
//! looked-up value, removal, length and sweep must match. A foreign key
//! (an index the slab never allocated) panics by design; the
//! `slab_foreign_key_panics` unit test covers it.

use ibis_core::slab::{IoKey, Slab, SlabKey};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Where a probe's key comes from.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// A key the slab issued earlier: live, or stale once removed.
    Issued(u32),
    /// A vacant slot's index with the generation its next occupant will
    /// get: a key not issued yet. Falls back to `Issued` when no slot is
    /// vacant.
    Vacant(u32),
    /// Any allocated index with an arbitrary small generation.
    Forged(u32, u32),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Get(Probe),
    /// `get_mut`, adding the delta to the value it finds.
    GetMut(Probe, u64),
    Remove(Probe),
    Keys,
}

fn probe() -> impl Strategy<Value = Probe> {
    prop_oneof![
        4 => (0u32..1024).prop_map(Probe::Issued),
        1 => (0u32..1024).prop_map(Probe::Vacant),
        1 => (0u32..1024, 0u32..4).prop_map(|(i, g)| Probe::Forged(i, g)),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Insert),
        3 => probe().prop_map(Op::Get),
        2 => (probe(), 1u64..1000).prop_map(|(p, d)| Op::GetMut(p, d)),
        3 => probe().prop_map(Op::Remove),
        1 => Just(Op::Keys),
    ]
}

/// The slab's spec, written out.
#[derive(Default)]
struct Model {
    /// Per allocated index: the live entry's generation, or the one the
    /// slot's next occupant will get.
    generation: Vec<u32>,
    /// Freed indices; the most recently freed is reused first.
    free: Vec<u32>,
    /// Live entries by index: `(generation, value)`.
    live: BTreeMap<u32, (u32, u64)>,
}

impl Model {
    fn insert(&mut self, value: u64) -> IoKey {
        let index = self.free.pop().unwrap_or_else(|| {
            self.generation.push(0);
            self.generation.len() as u32 - 1
        });
        let generation = self.generation[index as usize];
        self.live.insert(index, (generation, value));
        IoKey::from_parts(index, generation)
    }

    fn get_mut(&mut self, key: IoKey) -> Option<&mut u64> {
        match self.live.get_mut(&key.index()) {
            Some((generation, value)) if *generation == key.generation() => Some(value),
            _ => None,
        }
    }

    fn remove(&mut self, key: IoKey) -> Option<u64> {
        let value = *self.get_mut(key)?;
        self.live.remove(&key.index());
        self.generation[key.index() as usize] = key.generation().wrapping_add(1);
        self.free.push(key.index());
        Some(value)
    }

    /// Live keys in index order.
    fn keys(&self) -> Vec<IoKey> {
        self.live
            .iter()
            .map(|(&index, &(generation, _))| IoKey::from_parts(index, generation))
            .collect()
    }

    /// The key a probe names, or `None` before any slot is allocated
    /// (every key would be foreign).
    fn key(&self, probe: Probe, issued: &[IoKey]) -> Option<IoKey> {
        if issued.is_empty() {
            return None;
        }
        Some(match probe {
            Probe::Vacant(p) if !self.free.is_empty() => {
                let index = self.free[p as usize % self.free.len()];
                IoKey::from_parts(index, self.generation[index as usize])
            }
            Probe::Issued(p) | Probe::Vacant(p) => issued[p as usize % issued.len()],
            Probe::Forged(p, generation) => {
                IoKey::from_parts(p % self.generation.len() as u32, generation)
            }
        })
    }
}

proptest! {
    #[test]
    fn slab_matches_its_spec(ops in prop::collection::vec(op(), 1..300)) {
        let mut slab: Slab<IoKey, u64> = Slab::default();
        let mut model = Model::default();
        let mut issued: Vec<IoKey> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert => {
                    let key = slab.insert(step as u64);
                    prop_assert_eq!(key, model.insert(step as u64), "insert at step {}", step);
                    issued.push(key);
                }
                Op::Get(p) => {
                    if let Some(key) = model.key(p, &issued) {
                        let want = model.get_mut(key).copied();
                        prop_assert_eq!(slab.get(key).copied(), want, "get {:?} at step {}", key, step);
                    }
                }
                Op::GetMut(p, delta) => {
                    if let Some(key) = model.key(p, &issued) {
                        let bump = |v: &mut u64| {
                            *v += delta;
                            *v
                        };
                        let want = model.get_mut(key).map(bump);
                        prop_assert_eq!(slab.get_mut(key).map(bump), want, "get_mut {:?} at step {}", key, step);
                    }
                }
                Op::Remove(p) => {
                    if let Some(key) = model.key(p, &issued) {
                        let want = model.remove(key);
                        prop_assert_eq!(slab.remove(key), want, "remove {:?} at step {}", key, step);
                    }
                }
                Op::Keys => {
                    // Appends: whatever `out` already holds stays in front.
                    let sentinel = IoKey::from_parts(u32::MAX, u32::MAX);
                    let mut out = vec![sentinel];
                    slab.keys_into(&mut out);
                    prop_assert_eq!(out[0], sentinel);
                    prop_assert_eq!(&out[1..], &model.keys()[..], "keys_into at step {}", step);
                }
            }
            prop_assert_eq!(slab.len(), model.live.len(), "len after step {}", step);
            prop_assert_eq!(slab.is_empty(), model.live.is_empty());
        }
        let mut out = Vec::new();
        slab.keys_into(&mut out);
        prop_assert_eq!(out, model.keys());
    }
}
