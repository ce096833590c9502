//! Generational slab arenas for the engine's per-event side tables.
//!
//! The cluster engine tracks every in-flight I/O, task, transfer, and
//! write-pipeline composite in a side table keyed by a monotonically
//! assigned id. Keying those tables with `HashMap<u64, _>` puts a hash +
//! probe on every event and a heap allocation on every table growth; this
//! module replaces them with dense generational slabs:
//!
//! * Entries live in a `Vec` of slots; a freed slot goes on a LIFO free
//!   list and is reused by the next insert, so a warmed table never
//!   allocates again.
//! * Every slot carries a *generation* bumped on each free. A key is the
//!   `(index, generation)` pair, so a stale key — one held across its
//!   entry's removal and the slot's reuse — resolves to `None` instead
//!   of silently aliasing the new occupant. Fault injection leans on
//!   this: a node crash sweeps a task or I/O out from under in-flight
//!   continuations, whose later lookups then miss harmlessly.
//! * Keys are strongly typed via the [`slab_key!`](crate::slab_key)
//!   macro ([`IoKey`], [`TaskKey`], …), so an I/O id cannot be handed to
//!   the task table.
//! * A key packs losslessly into a `u64` ([`SlabKey::encode`] /
//!   [`SlabKey::decode`]), letting it ride through existing id channels
//!   (device request ids, link transfer ids, observability events)
//!   without widening those interfaces.
//!
//! Determinism: the engine's byte-identical-replay guarantee only needs
//! key assignment to be a pure function of the insert/remove sequence.
//! The LIFO free list and the generation bump on each removal make it
//! one, so a replayed run produces the same key sequence and therefore
//! the same encoded ids, event order, and report. The `slab_model`
//! proptest checks that discipline against a model written from this
//! spec.

use std::fmt;
use std::marker::PhantomData;

/// A typed generational arena key: an `(index, generation)` pair that
/// packs into a `u64`. Implemented by the key types declared with
/// [`slab_key!`](crate::slab_key); not meant for manual implementation.
pub trait SlabKey: Copy + Eq + std::hash::Hash + fmt::Debug {
    /// Assembles a key from its slot index and generation.
    fn from_parts(index: u32, generation: u32) -> Self;
    /// The slot index.
    fn index(self) -> u32;
    /// The slot generation this key is valid for.
    fn generation(self) -> u32;

    /// Packs the key into a `u64` (`generation << 32 | index`) so it can
    /// travel through untyped id channels.
    fn encode(self) -> u64 {
        ((self.generation() as u64) << 32) | self.index() as u64
    }

    /// Inverse of [`SlabKey::encode`].
    fn decode(raw: u64) -> Self {
        Self::from_parts(raw as u32, (raw >> 32) as u32)
    }
}

/// Declares a typed slab key. Usage:
/// `slab_key!(/** doc */ pub struct IoKey);`
#[macro_export]
macro_rules! slab_key {
    ($(#[$meta:meta])* $vis:vis struct $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name {
            index: u32,
            generation: u32,
        }

        impl $crate::slab::SlabKey for $name {
            fn from_parts(index: u32, generation: u32) -> Self {
                Self { index, generation }
            }
            fn index(self) -> u32 {
                self.index
            }
            fn generation(self) -> u32 {
                self.generation
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}({}v{})", stringify!($name), self.index, self.generation)
            }
        }
    };
}

slab_key!(
    /// Key of an in-flight interposed I/O in the engine's io table.
    pub struct IoKey
);
slab_key!(
    /// Key of a running task (an occupied execution slot).
    pub struct TaskKey
);
slab_key!(
    /// Key of an in-flight network transfer on a node's ingress link.
    pub struct XferKey
);
slab_key!(
    /// Key of a composite HDFS-write completion (one per chunk, counting
    /// replica writes).
    pub struct CompKey
);
slab_key!(
    /// Key of an open HDFS replication-pipeline chain.
    pub struct ChainKey
);

#[cold]
#[inline(never)]
fn foreign_key(key: impl fmt::Debug, slots: usize) -> ! {
    panic!("foreign slab key {key:?}: arena has only {slots} slots")
}

enum Slot<V> {
    /// Free slot; `generation` is the one the *next* occupant will get.
    Vacant {
        generation: u32,
    },
    Occupied {
        generation: u32,
        value: V,
    },
}

/// A dense generational arena: values in a `Vec`, freed slots reused LIFO,
/// zero allocations at steady state once warmed.
pub struct Slab<K, V> {
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for Slab<K, V> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: SlabKey, V> Slab<K, V> {
    /// Stores `value` and returns its key. Reuses the most recently freed
    /// slot (LIFO) or appends a new one.
    pub fn insert(&mut self, value: V) -> K {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let Slot::Vacant { generation } = *slot else {
                unreachable!("free list points at occupied slot");
            };
            *slot = Slot::Occupied { generation, value };
            K::from_parts(index, generation)
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            K::from_parts(index, 0)
        }
    }

    /// The live entry for `key`, or `None` if it was removed — whether or
    /// not the slot was since reused under a newer generation. Panics
    /// only on a foreign key (index never allocated), which is always an
    /// engine bug.
    pub fn get(&self, key: K) -> Option<&V> {
        match self.slots.get(key.index() as usize) {
            Some(Slot::Occupied { generation, value }) => {
                if *generation == key.generation() {
                    Some(value)
                } else {
                    None
                }
            }
            Some(Slot::Vacant { .. }) => None,
            None => foreign_key(key, self.slots.len()),
        }
    }

    /// Mutable [`Slab::get`].
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let slots = self.slots.len();
        match self.slots.get_mut(key.index() as usize) {
            Some(Slot::Occupied { generation, value }) => {
                if *generation == key.generation() {
                    Some(value)
                } else {
                    None
                }
            }
            Some(Slot::Vacant { .. }) => None,
            None => foreign_key(key, slots),
        }
    }

    /// Removes and returns the entry, freeing its slot and bumping its
    /// generation. `None`/panic semantics match [`Slab::get`].
    pub fn remove(&mut self, key: K) -> Option<V> {
        let slots = self.slots.len();
        let slot = match self.slots.get_mut(key.index() as usize) {
            Some(s) => s,
            None => foreign_key(key, slots),
        };
        match slot {
            Slot::Occupied { generation, .. } => {
                if *generation != key.generation() {
                    return None;
                }
            }
            Slot::Vacant { .. } => return None,
        }
        let next = key.generation().wrapping_add(1);
        let Slot::Occupied { value, .. } =
            std::mem::replace(slot, Slot::Vacant { generation: next })
        else {
            unreachable!("checked occupied above");
        };
        self.free.push(key.index());
        self.len -= 1;
        Some(value)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends every live key to `out` in slot-index order, so fault
    /// handling that sweeps a table (e.g. aborting a crashed node's
    /// in-flight I/O) stays deterministic. A full scan — keep it off the
    /// per-event hot paths.
    pub fn keys_into(&self, out: &mut Vec<K>) {
        for (i, slot) in self.slots.iter().enumerate() {
            if let Slot::Occupied { generation, .. } = slot {
                out.push(K::from_parts(i as u32, *generation));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    slab_key!(
        /// Test key.
        pub struct TestKey
    );

    #[test]
    fn encode_decode_round_trips() {
        let k = TestKey::from_parts(7, 3);
        assert_eq!(k.encode(), (3u64 << 32) | 7);
        assert_eq!(TestKey::decode(k.encode()), k);
        assert_eq!(format!("{k:?}"), "TestKey(7v3)");
    }

    #[test]
    fn slab_lifecycle() {
        let mut t = Slab::<TestKey, &'static str>::default();
        assert!(t.is_empty());
        let a = t.insert("a");
        let b = t.insert("b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.get_mut(b).map(|v| *v), Some("b"));
        assert_eq!(t.remove(a), Some("a"));
        // Removed entry resolves to None until the slot is reused.
        assert_eq!(t.get(a), None);
        assert_eq!(t.remove(a), None);
        // LIFO reuse: the freed slot comes back with a bumped generation.
        let c = t.insert("c");
        assert_eq!(c.index(), a.index());
        assert_eq!(c.generation(), a.generation() + 1);
        assert_eq!(t.get(c), Some(&"c"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn slab_stale_key_misses() {
        let mut t = Slab::<TestKey, u32>::default();
        let a = t.insert(1);
        t.remove(a);
        let b = t.insert(2); // reuses a's slot under a new generation
        assert_eq!(t.get(a), None, "stale key must not alias the new occupant");
        assert_eq!(t.get_mut(a), None);
        assert_eq!(t.remove(a), None);
        assert_eq!(t.get(b), Some(&2), "live entry untouched by stale probes");
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "foreign slab key")]
    fn slab_foreign_key_panics() {
        let t = Slab::<TestKey, u32>::default();
        t.get(TestKey::from_parts(0, 0));
    }
}
