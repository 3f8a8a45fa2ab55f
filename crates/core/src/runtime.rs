//! The decomposed runtime: independently synchronized derived state.
//!
//! PR 1 made queries read-concurrent by putting the whole [`Runtime`]
//! behind one `RwLock` — readers shared it, every DML/DDL call took it
//! exclusively, so *writers serialized globally* no matter how disjoint
//! their footprints were. This module breaks that monolith apart: each
//! piece of derived state (object directory, class extents, object
//! cache, indexes, reverse-reference graph, composite ownership, the
//! federation's materialized extents) now carries its own fine-grained
//! lock, sharded by OID or keyed by class where the access pattern
//! allows it. Transactions touching disjoint objects interleave freely;
//! *isolation* is not this module's job — writers get it from the 2PL
//! hierarchy locks in `orion-tx` (IX on class + X on object for DML,
//! subtree X for schema change), which the facade acquires before ever
//! touching a component, and queries get it from MVCC snapshots
//! (`crate::mvcc`) without taking any locks at all.
//!
//! # Lock order (the one place it is documented)
//!
//! Every thread acquires locks in this order; later acquisitions may
//! skip levels but never go back up:
//!
//! 1. **2PL locks** (`LockManager`) — the only locks a thread may
//!    *block on* indefinitely. Never requested while anything below is
//!    held.
//! 2. **Catalog guard** (`Database.catalog`). Taken **once** per
//!    operation and never re-entered underneath itself: a queued
//!    writer blocks every later reader, so a second `read()` below an
//!    outstanding one deadlocks as soon as DDL arrives in between.
//!    Code that runs below a guard is handed the `&Catalog` instead —
//!    the query executor's record source ([`crate::SourceView`]) is
//!    built with the reference `Database::with_snapshot` holds, and its
//!    worker threads never touch this lock.
//! 3. **Maintenance gate** (`Database.rt: RwLock<Runtime>`) — DML,
//!    queries, and reads take it *shared*; only operations that tear
//!    down and rebuild all derived state at once take it exclusively
//!    (rollback, crash recovery, cold restart, index DDL, foreign
//!    attach). The same no-re-entry rule applies (a query takes it
//!    once per batch of records, not per record). The gate is what
//!    makes `rebuild_runtime` observe a quiescent component set
//!    without per-component coordination.
//! 4. **Component locks** (fields of [`Runtime`]), two levels:
//!    - `indexes` — the only component guard ever *held across* other
//!      component acquisitions (nested-index re-keying faults records
//!      through the directory/cache/foreign store while holding it).
//!    - every other component (`directory` shards, `extents`,
//!      `reverse` shards, `composite_owner`, cache shards,
//!      `foreign_classes`, `foreign_store`, `system_rid`) — leaf
//!      locks: acquired and released within a single accessor, never
//!      held while requesting any other lock (batch accessors visit
//!      the shards of one component one after another, still one at a
//!      time). In particular, at most
//!      one cache shard lock is held at a time (cross-shard swizzle
//!      hops release the source shard before probing the target), and
//!      a `foreign_store` guard is dropped before the extents are
//!      touched during a foreign refresh.
//! 5. **Metric sinks** are lock-free atomics and participate in no
//!    ordering; `stats()` takes the gate shared plus cache shard locks
//!    one at a time and nothing else, so it can never deadlock against
//!    writers, rollback, or the lock manager.
//!
//! The MVCC version store (`crate::mvcc::VersionStore`) sits *outside*
//! the `Runtime` — deliberately, so exclusive-gate rebuilds (rollback,
//! recovery) cannot drop committed versions out from under an active
//! snapshot. Its shard locks and tombstone map are additional *leaf*
//! locks in level 4's second tier: acquired and released inside a
//! single `VersionStore` method, never held while requesting any other
//! lock (a shard guard is always dropped before the tombstone map is
//! taken).

use crate::cache::ShardedCache;
use crate::database::DbConfig;
use orion_index::IndexInstance;
use orion_storage::heap::Rid;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, Oid};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::Arc;

/// Shard count for OID-keyed maps. A small power of two: enough to keep
/// disjoint writers off each other's cache lines, small enough that
/// whole-map operations (rebuild, iteration) stay cheap.
const OID_SHARDS: usize = 16;

#[inline]
fn shard_of(oid: Oid) -> usize {
    // Serials are globally sequential, so the low bits spread evenly;
    // fold the class in so single-class and multi-class workloads both
    // distribute.
    ((oid.serial() ^ ((oid.class().0 as u64) << 3)) as usize) & (OID_SHARDS - 1)
}

/// The indices `0..n` grouped by the shard `shard_of` assigns each — so
/// a batch operation on a sharded structure locks each shard once.
pub(crate) fn group_by_shard(
    n: usize,
    shards: usize,
    shard_of: impl Fn(usize) -> usize,
) -> Vec<Vec<u32>> {
    let mut groups: Vec<Vec<u32>> =
        (0..shards).map(|_| Vec::with_capacity(2 * n / shards + 1)).collect();
    for i in 0..n {
        groups[shard_of(i)].push(i as u32);
    }
    groups
}

/// An OID-sharded hash map: one `RwLock`ed shard per hash slice, so
/// operations on different objects rarely contend and never serialize
/// behind a structural mutex.
#[derive(Debug)]
pub(crate) struct OidMap<V> {
    shards: Box<[RwLock<HashMap<Oid, V>>]>,
}

impl<V> OidMap<V> {
    pub fn new() -> Self {
        OidMap {
            shards: (0..OID_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    #[inline]
    fn shard(&self, oid: Oid) -> &RwLock<HashMap<Oid, V>> {
        &self.shards[shard_of(oid)]
    }

    pub fn insert(&self, oid: Oid, value: V) -> Option<V> {
        self.shard(oid).write().insert(oid, value)
    }

    pub fn remove(&self, oid: Oid) -> Option<V> {
        self.shard(oid).write().remove(&oid)
    }

    pub fn contains(&self, oid: Oid) -> bool {
        self.shard(oid).read().contains_key(&oid)
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
    }

    /// Read `oid`'s entry in place under the shard's read lock.
    pub fn with<R>(&self, oid: Oid, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.shard(oid).read().get(&oid))
    }

    /// Mutate the shard holding `oid` under its write lock (entry-style
    /// updates that need more than insert/remove).
    pub fn update<R>(&self, oid: Oid, f: impl FnOnce(&mut HashMap<Oid, V>) -> R) -> R {
        f(&mut self.shard(oid).write())
    }
}

impl<V: Copy> OidMap<V> {
    pub fn get(&self, oid: Oid) -> Option<V> {
        self.shard(oid).read().get(&oid).copied()
    }

    /// [`OidMap::get`] for a batch: calls `found(i, value)` for every
    /// present `oids[i]`, locking each shard once instead of once per
    /// object.
    pub fn get_batch(&self, oids: &[Oid], mut found: impl FnMut(usize, V)) {
        let groups = group_by_shard(oids.len(), OID_SHARDS, |i| shard_of(oids[i]));
        for (shard, group) in self.shards.iter().zip(&groups).filter(|(_, g)| !g.is_empty()) {
            let map = shard.read();
            for &i in group {
                if let Some(value) = map.get(&oids[i as usize]) {
                    found(i as usize, *value);
                }
            }
        }
    }
}

/// Per-class extents: an outer map from class to an independently
/// locked member set, so writers on different classes never touch the
/// same lock and a scan snapshots one class without blocking others.
#[derive(Debug)]
pub(crate) struct Extents {
    classes: RwLock<HashMap<ClassId, Arc<RwLock<BTreeSet<Oid>>>>>,
}

impl Extents {
    pub fn new() -> Self {
        Extents { classes: RwLock::new(HashMap::new()) }
    }

    /// The (created-on-demand) member set of `class`.
    fn class_set(&self, class: ClassId) -> Arc<RwLock<BTreeSet<Oid>>> {
        if let Some(set) = self.classes.read().get(&class) {
            return Arc::clone(set);
        }
        Arc::clone(self.classes.write().entry(class).or_default())
    }

    pub fn insert(&self, class: ClassId, oid: Oid) {
        self.class_set(class).write().insert(oid);
    }

    pub fn remove(&self, class: ClassId, oid: Oid) {
        if let Some(set) = self.classes.read().get(&class) {
            set.write().remove(&oid);
        }
    }

    pub fn len_of(&self, class: ClassId) -> usize {
        self.classes.read().get(&class).map_or(0, |s| s.read().len())
    }

    /// The members of `class` in OID order (the scan path; sorted order
    /// keeps query results byte-identical to the serial system).
    pub fn snapshot(&self, class: ClassId) -> Vec<Oid> {
        self.classes
            .read()
            .get(&class)
            .map(|s| s.read().iter().copied().collect())
            .unwrap_or_default()
    }

    /// Replace a class's extent wholesale (foreign-extent refresh).
    pub fn replace(&self, class: ClassId, members: BTreeSet<Oid>) {
        *self.class_set(class).write() = members;
    }

    pub fn clear(&self) {
        self.classes.write().clear();
    }
}

/// Derived, in-memory object state — a deterministic function of the
/// stored records. Every field synchronizes itself; see the module docs
/// for the lock order. The struct sits behind `Database.rt:
/// RwLock<Runtime>`, which survives only as the *maintenance gate*:
/// shared for all normal work, exclusive for whole-state rebuilds.
#[derive(Debug)]
pub(crate) struct Runtime {
    /// OID → record id ("object directory management", §4.2).
    pub directory: OidMap<Rid>,
    /// Class → its own instances (not subclasses).
    pub extents: Extents,
    /// The memory-resident object cache, sharded by OID.
    pub cache: ShardedCache,
    /// Live indexes. One guard for the index *set*; per-entry updates
    /// for disjoint objects are short and don't carry I/O (nested-path
    /// re-keying faults records while holding this — indexes precede
    /// the cache in the lock order).
    pub indexes: RwLock<Vec<IndexInstance>>,
    pub next_index_id: AtomicU32,
    /// target → set of (referrer, attr) edges pointing at it.
    pub reverse: OidMap<HashSet<(Oid, u32)>>,
    /// part → (parent, composite attr) exclusive ownership. One lock:
    /// closure computation walks the whole map, so sharding buys
    /// nothing here.
    pub composite_owner: RwLock<HashMap<Oid, (Oid, u32)>>,
    /// Foreign class → adapter name (extents served by the federation).
    pub foreign_classes: RwLock<HashMap<ClassId, String>>,
    /// Materialized foreign records (refreshed on scan).
    pub foreign_store: RwLock<HashMap<Oid, Arc<ObjectRecord>>>,
    /// Record id of the persisted system-state record, if written.
    pub system_rid: Mutex<Option<Rid>>,
    /// Objects fetched from storage (experiment accounting).
    pub fetches: AtomicU64,
}

impl Runtime {
    pub(crate) fn new(config: &DbConfig) -> Self {
        Runtime {
            directory: OidMap::new(),
            extents: Extents::new(),
            cache: ShardedCache::new(config.cache_objects, config.swizzling),
            indexes: RwLock::new(Vec::new()),
            next_index_id: AtomicU32::new(1),
            reverse: OidMap::new(),
            composite_owner: RwLock::new(HashMap::new()),
            foreign_classes: RwLock::new(HashMap::new()),
            foreign_store: RwLock::new(HashMap::new()),
            system_rid: Mutex::new(None),
            fetches: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(class: u16, serial: u64) -> Oid {
        Oid::new(ClassId(class), serial)
    }

    #[test]
    fn oid_map_basics() {
        let m: OidMap<u32> = OidMap::new();
        assert!(!m.contains(oid(1, 1)));
        assert_eq!(m.insert(oid(1, 1), 10), None);
        assert_eq!(m.insert(oid(1, 1), 11), Some(10));
        assert_eq!(m.get(oid(1, 1)), Some(11));
        assert_eq!(m.len(), 1);
        for s in 0..100 {
            m.insert(oid(2, s), s as u32);
        }
        assert_eq!(m.len(), 101);
        assert_eq!(m.remove(oid(1, 1)), Some(11));
        m.clear();
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn oid_map_update_and_with() {
        let m: OidMap<Vec<u32>> = OidMap::new();
        let o = oid(3, 7);
        m.update(o, |shard| shard.entry(o).or_default().push(5));
        m.update(o, |shard| shard.entry(o).or_default().push(6));
        assert_eq!(m.with(o, |v| v.map(|v| v.len())), Some(2));
    }

    #[test]
    fn extents_per_class_isolation() {
        let e = Extents::new();
        e.insert(ClassId(1), oid(1, 2));
        e.insert(ClassId(1), oid(1, 1));
        e.insert(ClassId(2), oid(2, 9));
        assert_eq!(e.len_of(ClassId(1)), 2);
        assert_eq!(e.snapshot(ClassId(1)), vec![oid(1, 1), oid(1, 2)], "OID order");
        e.remove(ClassId(1), oid(1, 1));
        assert_eq!(e.len_of(ClassId(1)), 1);
        assert_eq!(e.len_of(ClassId(3)), 0, "never-created class is empty");
        e.replace(ClassId(2), BTreeSet::from([oid(2, 1)]));
        assert_eq!(e.snapshot(ClassId(2)), vec![oid(2, 1)]);
        e.clear();
        assert_eq!(e.len_of(ClassId(1)), 0);
    }
}
