//! A fast, deterministic hasher for tables keyed by small integers and
//! short static strings.
//!
//! The standard library's SipHash resists hash flooding, which nothing
//! in a simulation needs, and costs tens of nanoseconds per lookup on
//! the short keys the analysis passes use — `(node, dev, io)` triples,
//! `(name, labels)` instrument identities. [`FxHasher`] is the
//! multiply-rotate word hash used by rustc: one rotate, xor and multiply
//! per 8-byte word. It carries no random state, so a table's layout is
//! the same in every run (outputs must still never depend on iteration
//! order). Keys crafted to collide would degrade it to a linear scan, so
//! it is for keys the program makes itself, not for input from outside.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from rustc's `FxHasher` (an odd constant close to 2^64/φ).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        // Whole words, then the 4/2/1-byte tail as separate words, so
        // inputs that differ only in trailing zero bytes still differ.
        while let Some((w, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*w));
            bytes = rest;
        }
        if let Some((w, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*w)));
            bytes = rest;
        }
        if let Some((w, rest)) = bytes.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*w)));
            bytes = rest;
        }
        if let Some(&b) = bytes.first() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&("ctl_depth", 3u32)), hash_of(&("ctl_depth", 3u32)));
        assert_ne!(hash_of(&(1u32, 0u8, 7u64)), hash_of(&(1u32, 1u8, 7u64)));
        // Strings that differ only past the first word, or only in length.
        assert_ne!(
            hash_of(&"sfq_flow_backlog_reqs"),
            hash_of(&"sfq_flow_backlog_bytes")
        );
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u8, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32 % 8, (i % 2) as u8, i), i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.remove(&(5, 1, 13)), Some(39));
        assert_eq!(m.get(&(5, 1, 13)), None);
    }
}
