//! The memory-resident object cache with pointer swizzling.
//!
//! "A much better solution is to store logical object identifiers within
//! the objects in the database, and convert them to memory pointers to
//! related objects ... as an object is fetched from the database, the
//! object identifiers embedded in the object are converted to memory
//! pointers that will point to some descriptors for the objects that the
//! object references. The referenced objects may later be fetched as
//! necessary ... This is the approach developed to make objects
//! persistent in the LOOM system; this approach has been adopted and
//! refined in ORION" (§3.3).
//!
//! Resident objects live in a slab; reference attributes carry a
//! *swizzle hint*: after the first traversal resolves the target, later
//! traversals jump straight to the slab slot (validated against the OID
//! so eviction and slot reuse stay safe). Swizzling can be disabled to
//! measure its benefit (experiment E3).
//!
//! Since the runtime decomposition, the production cache is
//! [`ShardedCache`]: OID-sharded [`ObjectCache`]s, each behind its own
//! short mutex, so transactions touching disjoint objects fault, admit,
//! and navigate without contending. Swizzle hints are *shard-qualified*
//! (`(shard, slot, expected OID)`), so a warm traversal stays pure
//! pointer chasing even when a hop crosses shards; the hop protocol
//! holds at most one shard lock at a time, which keeps the shard locks
//! true leaves in the system lock order (`crate::runtime` docs).

use orion_types::codec::ObjectRecord;
use orion_types::{Oid, OidHashMap};
use std::collections::HashMap;
use std::sync::Arc;

orion_obs::metrics! {
    /// Counters for cache behavior (experiments E3/E10 read these).
    pub struct CacheStats;
    /// The sharded cache's hop sinks. Hits, misses and evictions are
    /// plain counts under each shard's mutex, summed in at snapshot time;
    /// their sinks here stay at zero.
    pub(crate) struct CacheMetrics;
    /// Lookups answered by a resident object.
    hits: counter("orion_cache_hits_total", "Object-cache lookups answered by a resident object"),
    /// Lookups that required a fault-in from storage.
    misses: counter("orion_cache_misses_total", "Object-cache lookups that faulted in from storage"),
    /// Residents evicted to stay within capacity.
    evictions: counter("orion_cache_evictions_total", "Object-cache residents evicted to stay within capacity"),
    /// Ref traversals answered directly through a valid swizzle hint.
    swizzled_hops: counter("orion_cache_swizzled_hops_total", "Ref traversals answered through a valid swizzle slot"),
    /// Ref traversals that had to resolve via the OID map.
    unswizzled_hops: counter("orion_cache_unswizzled_hops_total", "Ref traversals that resolved via the OID map"),
}

/// A swizzle hint: where a reference attribute's target was resident
/// when last traversed. Validated (never trusted) on use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SwizzleHint {
    /// Cache shard holding the target.
    pub shard: u32,
    /// Slab slot within that shard.
    pub slot: u32,
    /// The OID the slot is expected to hold; a mismatch (eviction, slot
    /// reuse) invalidates the hint.
    pub expected: Oid,
}

/// A resident object: the decoded record plus swizzle hints for its
/// reference attributes.
#[derive(Debug)]
pub struct Resident {
    /// The object's identity.
    pub oid: Oid,
    /// Decoded record (write-through: always matches storage). Shared
    /// so the read-concurrent query path can hold the record without
    /// cloning its attributes or pinning a shard lock.
    pub record: Arc<ObjectRecord>,
    /// `attr id → hint` — the swizzle table. A hit validates only
    /// `shard.slab[slot].oid == expected`, skipping both the record
    /// lookup and the OID hash (this is what makes a swizzled hop "a
    /// few memory lookups"). Entries are hints; eviction and slot reuse
    /// are caught by the validation.
    swizzles: HashMap<u32, SwizzleHint>,
    last_used: u64,
}

/// An LRU-capped slab of resident objects: one shard of the production
/// [`ShardedCache`] (or a standalone cache in tests and tools).
#[derive(Debug)]
pub struct ObjectCache {
    slab: Vec<Option<Resident>>,
    by_oid: OidHashMap<usize>,
    free: Vec<usize>,
    capacity: usize,
    tick: u64,
    swizzling: bool,
    stats: CacheStats,
}

impl ObjectCache {
    /// A cache holding at most `capacity` resident objects.
    pub fn new(capacity: usize, swizzling: bool) -> Self {
        assert!(capacity > 0, "object cache needs capacity");
        ObjectCache {
            slab: Vec::new(),
            by_oid: OidHashMap::default(),
            free: Vec::new(),
            capacity,
            tick: 0,
            swizzling,
            stats: CacheStats::default(),
        }
    }

    /// Enable/disable swizzling (clears existing swizzle hints).
    pub fn set_swizzling(&mut self, on: bool) {
        self.swizzling = on;
        for slot in self.slab.iter_mut().flatten() {
            slot.swizzles.clear();
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.by_oid.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.by_oid.is_empty()
    }

    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        if let Some(r) = &mut self.slab[slot] {
            r.last_used = self.tick;
        }
    }

    /// The slab slot of `oid` if resident (counts a hit/miss).
    pub fn lookup(&mut self, oid: Oid) -> Option<usize> {
        match self.by_oid.get(&oid).copied() {
            Some(slot) => {
                self.stats.hits += 1;
                self.touch(slot);
                Some(slot)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Is `oid` resident? (No stats side effects.)
    pub fn contains(&self, oid: Oid) -> bool {
        self.by_oid.contains_key(&oid)
    }

    /// The resident record for `oid`, if any, without touching recency
    /// order or the hit/miss counters. This is the read-concurrent
    /// probe: queries use it, and cache accounting stays with the
    /// faulting [`ObjectCache::lookup`] path.
    pub fn peek(&self, oid: Oid) -> Option<&Arc<ObjectRecord>> {
        let slot = *self.by_oid.get(&oid)?;
        self.slab.get(slot)?.as_ref().map(|r| &r.record)
    }

    /// The slab slot of `oid` without stats or recency side effects
    /// (hop source probes).
    pub(crate) fn slot_of(&self, oid: Oid) -> Option<usize> {
        self.by_oid.get(&oid).copied()
    }

    /// The slab slot of `oid`, refreshing recency but counting nothing
    /// (hop target probes — the old in-slab traversal touched resident
    /// targets the same way).
    pub(crate) fn resident_slot(&mut self, oid: Oid) -> Option<usize> {
        let slot = self.by_oid.get(&oid).copied()?;
        self.touch(slot);
        Some(slot)
    }

    /// Make `record` resident; evicts the LRU resident when full.
    /// Returns the slab slot.
    pub fn admit(&mut self, record: ObjectRecord) -> usize {
        let oid = record.oid;
        if let Some(&slot) = self.by_oid.get(&oid) {
            // Refresh in place (write-through update). Swizzles may now
            // point at stale targets; drop them.
            self.tick += 1;
            let tick = self.tick;
            if let Some(r) = &mut self.slab[slot] {
                r.record = Arc::new(record);
                r.last_used = tick;
                r.swizzles.clear();
            }
            return slot;
        }
        if self.by_oid.len() >= self.capacity {
            // Evict the least recently used resident.
            let victim = self
                .slab
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|r| (i, r.last_used)))
                .min_by_key(|(_, t)| *t)
                .map(|(i, _)| i)
                .expect("cache non-empty at capacity");
            self.evict_slot(victim);
        }
        self.tick += 1;
        let resident = Resident {
            oid,
            record: Arc::new(record),
            swizzles: HashMap::new(),
            last_used: self.tick,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = Some(resident);
                s
            }
            None => {
                self.slab.push(Some(resident));
                self.slab.len() - 1
            }
        };
        self.by_oid.insert(oid, slot);
        slot
    }

    fn evict_slot(&mut self, slot: usize) {
        if let Some(r) = self.slab[slot].take() {
            self.by_oid.remove(&r.oid);
            self.free.push(slot);
            self.stats.evictions += 1;
        }
    }

    /// Drop `oid` from the cache (object deleted or rolled back).
    pub fn invalidate(&mut self, oid: Oid) {
        if let Some(slot) = self.by_oid.get(&oid).copied() {
            if let Some(r) = self.slab[slot].take() {
                self.by_oid.remove(&r.oid);
                self.free.push(slot);
            }
        }
    }

    /// Drop everything (crash simulation, bulk schema change).
    pub fn clear(&mut self) {
        self.slab.clear();
        self.by_oid.clear();
        self.free.clear();
    }

    /// Shared handle to the resident record at `slot`.
    pub(crate) fn record_arc(&self, slot: usize) -> Option<Arc<ObjectRecord>> {
        self.slab[slot].as_ref().map(|r| Arc::clone(&r.record))
    }

    /// Overwrite the resident record at `slot` (write-through update);
    /// clears swizzle hints — they may point at targets the new value
    /// no longer references.
    pub fn update_record(&mut self, slot: usize, record: ObjectRecord) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(r) = &mut self.slab[slot] {
            r.record = Arc::new(record);
            r.last_used = tick;
            r.swizzles.clear();
        }
    }

    /// The swizzle hint recorded for `attr` of the resident at `slot`
    /// (None when swizzling is off).
    pub(crate) fn hint(&self, slot: usize, attr: u32) -> Option<SwizzleHint> {
        if !self.swizzling {
            return None;
        }
        self.slab.get(slot)?.as_ref()?.swizzles.get(&attr).copied()
    }

    /// Record a hint for `attr` of the resident at `slot` (no-op when
    /// swizzling is off).
    pub(crate) fn set_hint(&mut self, slot: usize, attr: u32, hint: SwizzleHint) {
        if !self.swizzling {
            return;
        }
        if let Some(r) = self.slab.get_mut(slot).and_then(|s| s.as_mut()) {
            r.swizzles.insert(attr, hint);
        }
    }

    /// Does `slot` currently hold `expected`? (Hint validation; no
    /// recency or stats side effects, matching the swizzled fast path.)
    pub(crate) fn validate(&self, slot: usize, expected: Oid) -> bool {
        self.slab.get(slot).and_then(|s| s.as_ref()).is_some_and(|r| r.oid == expected)
    }

    /// The target OID of reference attribute `attr` at `slot` (None if
    /// the slot is empty or the attribute is not a scalar reference).
    pub(crate) fn ref_target(&self, slot: usize, attr: u32) -> Option<Oid> {
        self.slab.get(slot)?.as_ref()?.record.get(attr).and_then(|v| v.as_ref_oid())
    }

}

// ---------------------------------------------------------------------
// The sharded production cache
// ---------------------------------------------------------------------

/// Outcome of one reference hop through the sharded cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hop {
    /// The hop resolved; `true` means the swizzle fast path answered.
    To(Oid, bool),
    /// The attribute is a reference but its target is not resident; the
    /// caller faults it in and then calls [`ShardedCache::note`].
    Miss(Oid),
    /// The attribute exists but is not a scalar reference (or the
    /// source record has no such attribute).
    NotRef,
    /// The source object itself is not resident; the caller re-admits
    /// it and retries.
    Absent,
}

/// The production object cache: OID-sharded [`ObjectCache`]s behind
/// short per-shard mutexes. Capacity is divided across shards (LRU is
/// per-shard); small caches collapse to one shard so eviction-sensitive
/// experiments behave exactly like the unsharded cache. Hop and hint
/// bookkeeping never holds two shard locks at once.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[parking_lot::Mutex<ObjectCache>]>,
    metrics: CacheMetrics,
}

/// Below this total capacity the cache stays single-shard: dividing a
/// tiny capacity sixteen ways would distort per-shard LRU behavior that
/// experiments (E3/E10) deliberately provoke.
const SINGLE_SHARD_BELOW: usize = 256;
const CACHE_SHARDS: usize = crate::runtime::OID_SHARDS;

impl ShardedCache {
    /// A sharded cache holding at most `capacity` residents in total.
    pub fn new(capacity: usize, swizzling: bool) -> Self {
        assert!(capacity > 0, "object cache needs capacity");
        let n = if capacity < SINGLE_SHARD_BELOW { 1 } else { CACHE_SHARDS };
        let per_shard = capacity.div_ceil(n);
        ShardedCache {
            shards: (0..n)
                .map(|_| parking_lot::Mutex::new(ObjectCache::new(per_shard, swizzling)))
                .collect(),
            metrics: CacheMetrics::default(),
        }
    }

    #[inline]
    fn shard_idx(&self, oid: Oid) -> usize {
        crate::runtime::shard_of(oid, self.shards.len())
    }

    #[inline]
    fn shard(&self, oid: Oid) -> &parking_lot::Mutex<ObjectCache> {
        &self.shards[self.shard_idx(oid)]
    }

    /// The resident record for `oid`, counting a hit or miss and
    /// refreshing recency (the faulting path's probe).
    pub(crate) fn get(&self, oid: Oid) -> Option<Arc<ObjectRecord>> {
        let mut c = self.shard(oid).lock();
        let slot = c.lookup(oid)?;
        c.record_arc(slot)
    }

    /// [`ShardedCache::peek`] for a batch: fills `out[i]` for every
    /// resident `oids[i]` that `wanted` selects, locking each shard
    /// once instead of once per object.
    pub(crate) fn peek_batch(
        &self,
        oids: &[Oid],
        wanted: impl Fn(usize) -> bool,
        out: &mut [Option<Arc<ObjectRecord>>],
    ) {
        let shard_of = |i: usize| self.shard_idx(oids[i]);
        crate::runtime::for_each_shard(oids.len(), shard_of, |shard, group| {
            let cache = self.shards[shard].lock();
            for i in group.iter().map(|&i| i as usize).filter(|&i| wanted(i)) {
                out[i] = cache.peek(oids[i]).cloned();
            }
        });
    }

    /// Is `oid` resident? (No side effects.)
    pub fn contains(&self, oid: Oid) -> bool {
        self.shard(oid).lock().contains(oid)
    }

    /// Make `record` resident in its shard.
    pub(crate) fn admit(&self, record: ObjectRecord) {
        self.shard(record.oid).lock().admit(record);
    }

    /// Write-through refresh: counts the same hit/miss as the faulting
    /// path (parity with the pre-decomposition `lookup` + update
    /// sequence), then installs the new record.
    pub(crate) fn refresh(&self, record: &ObjectRecord) {
        let mut c = self.shard(record.oid).lock();
        match c.lookup(record.oid) {
            Some(slot) => c.update_record(slot, record.clone()),
            None => {
                c.admit(record.clone());
            }
        }
    }

    /// Drop `oid` (deleted or rolled back).
    pub(crate) fn invalidate(&self, oid: Oid) {
        self.shard(oid).lock().invalidate(oid);
    }

    /// Drop everything (crash simulation, cold-cache setup).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Total resident objects across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enable/disable swizzling on every shard.
    pub fn set_swizzling(&self, on: bool) {
        for shard in self.shards.iter() {
            shard.lock().set_swizzling(on);
        }
    }

    /// Aggregated counters across shards plus the hop counts. Shard
    /// locks are taken one at a time (leaf locks), so this is safe from
    /// any thread at any time.
    pub fn stats(&self) -> CacheStats {
        let mut total = self.metrics.snapshot();
        for shard in self.shards.iter() {
            let s = shard.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// One reference hop from `from` along `attr`. At most one shard
    /// lock is held at any instant: the source shard is released before
    /// the target shard (possibly the same one) is probed, and hint
    /// validation tolerates any interleaved eviction — a stale hint
    /// simply falls back to the OID-map path.
    pub(crate) fn hop(&self, from: Oid, attr: u32) -> Hop {
        let sidx = self.shard_idx(from);
        let (hint, target) = {
            let c = self.shards[sidx].lock();
            let Some(slot) = c.slot_of(from) else { return Hop::Absent };
            (c.hint(slot, attr), c.ref_target(slot, attr))
        };
        if let Some(h) = hint {
            if let Some(shard) = self.shards.get(h.shard as usize) {
                if shard.lock().validate(h.slot as usize, h.expected) {
                    self.metrics.swizzled_hops.inc();
                    return Hop::To(h.expected, true);
                }
            }
        }
        let Some(target) = target else { return Hop::NotRef };
        self.metrics.unswizzled_hops.inc();
        let tidx = self.shard_idx(target);
        let target_slot = self.shards[tidx].lock().resident_slot(target);
        match target_slot {
            Some(tslot) => {
                let mut c = self.shards[sidx].lock();
                if let Some(slot) = c.slot_of(from) {
                    c.set_hint(
                        slot,
                        attr,
                        SwizzleHint { shard: tidx as u32, slot: tslot as u32, expected: target },
                    );
                }
                Hop::To(target, false)
            }
            None => Hop::Miss(target),
        }
    }

    /// Record that `attr` of `from` resolves to `target` (after the
    /// caller faulted the target in). Two sequential single-shard
    /// sections; never both locks at once.
    pub(crate) fn note(&self, from: Oid, attr: u32, target: Oid) {
        let tidx = self.shard_idx(target);
        let Some(tslot) = self.shards[tidx].lock().slot_of(target) else { return };
        let mut c = self.shard(from).lock();
        if let Some(slot) = c.slot_of(from) {
            c.set_hint(
                slot,
                attr,
                SwizzleHint { shard: tidx as u32, slot: tslot as u32, expected: target },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_types::{ClassId, Value};

    fn rec(class: u16, serial: u64, refs: &[(u32, Oid)]) -> ObjectRecord {
        ObjectRecord::new(
            Oid::new(ClassId(class), serial),
            0,
            refs.iter().map(|(a, o)| (*a, Value::Ref(*o))).collect(),
        )
    }

    #[test]
    fn admit_lookup_invalidate() {
        let mut cache = ObjectCache::new(4, true);
        let r = rec(1, 1, &[]);
        let oid = r.oid;
        let slot = cache.admit(r);
        assert_eq!(cache.lookup(oid), Some(slot));
        assert_eq!(cache.stats().hits, 1);
        cache.invalidate(oid);
        assert_eq!(cache.lookup(oid), None);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut cache = ObjectCache::new(2, true);
        let a = rec(1, 1, &[]);
        let b = rec(1, 2, &[]);
        let c = rec(1, 3, &[]);
        let (ao, bo, co) = (a.oid, b.oid, c.oid);
        cache.admit(a);
        cache.admit(b);
        cache.lookup(ao); // a more recent than b
        cache.admit(c); // evicts b
        assert!(cache.contains(ao));
        assert!(!cache.contains(bo));
        assert!(cache.contains(co));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn admit_same_oid_refreshes() {
        let mut cache = ObjectCache::new(4, true);
        let mut r = rec(1, 1, &[]);
        r.set(3, Value::Int(1));
        let slot1 = cache.admit(r.clone());
        r.set(3, Value::Int(2));
        let slot2 = cache.admit(r);
        assert_eq!(slot1, slot2);
        assert_eq!(cache.peek(Oid::new(ClassId(1), 1)).unwrap().get(3), Some(&Value::Int(2)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn strided_working_sets_spread_over_the_shards() {
        // E5 samples every 40th vehicle, and 40 ≡ 8 (mod 16): an
        // unmixed shard index put those objects in 2 of the 16 shards.
        for stride in 1..=64u64 {
            let oid = |i: u64| Oid::new(ClassId(3), i * stride);
            let mut used = [false; CACHE_SHARDS];
            for i in 0..4096 {
                used[crate::runtime::shard_of(oid(i), CACHE_SHARDS)] = true;
            }
            let spread = used.iter().filter(|&&u| u).count();
            assert!(spread >= 12, "stride {stride} uses {spread} of {CACHE_SHARDS} shards");
            // A working set of half the capacity fits, whatever its stride.
            let cache = ShardedCache::new(4096, true);
            for i in 0..2048 {
                cache.admit(rec(3, i * stride, &[]));
            }
            assert_eq!(cache.stats().evictions, 0, "stride {stride}");
            assert_eq!(cache.len(), 2048);
        }
    }

    #[test]
    fn sharded_hop_crosses_shards_swizzled() {
        // Capacity ≥ SINGLE_SHARD_BELOW so the cache actually shards;
        // below it the same protocol runs inside one shard.
        for capacity in [4096, 64] {
            let cache = ShardedCache::new(capacity, true);
            // A chain long enough to guarantee cross-shard hops.
            let mut prev: Option<Oid> = None;
            let mut oids = Vec::new();
            for serial in 1..=20u64 {
                let r = match prev {
                    Some(p) => rec(1, serial, &[(7, p)]),
                    None => rec(1, serial, &[]),
                };
                prev = Some(r.oid);
                oids.push(r.oid);
                cache.admit(r);
            }
            // Walk the chain backwards: 19 hops, all unswizzled first pass.
            for w in oids.windows(2) {
                assert_eq!(cache.hop(w[1], 7), Hop::To(w[0], false));
            }
            assert_eq!(cache.stats().unswizzled_hops, 19);
            // Second pass: every hop swizzled, including cross-shard ones.
            for w in oids.windows(2) {
                assert_eq!(cache.hop(w[1], 7), Hop::To(w[0], true));
            }
            assert_eq!(cache.stats().swizzled_hops, 19);
            // A write-through update clears the source's hints: the
            // redirected reference resolves through the OID map again.
            cache.refresh(&rec(1, 20, &[(7, oids[0])]));
            assert_eq!(cache.hop(oids[19], 7), Hop::To(oids[0], false));
            assert_eq!(cache.hop(oids[19], 7), Hop::To(oids[0], true));
        }
    }

    #[test]
    fn sharded_hop_with_swizzling_off_never_uses_hints() {
        let cache = ShardedCache::new(8, false);
        let b = rec(1, 2, &[]);
        let a = rec(1, 1, &[(7, b.oid)]);
        let (a_oid, b_oid) = (a.oid, b.oid);
        cache.admit(a);
        cache.admit(b);
        for _ in 0..3 {
            assert_eq!(cache.hop(a_oid, 7), Hop::To(b_oid, false));
        }
        assert_eq!(cache.stats().swizzled_hops, 0);
        assert_eq!(cache.stats().unswizzled_hops, 3);
    }

    #[test]
    fn sharded_hop_miss_then_note() {
        let cache = ShardedCache::new(4096, true);
        let b = rec(1, 2, &[]);
        let b_oid = b.oid;
        let mut a = rec(1, 1, &[(7, b_oid)]);
        a.set(3, Value::Int(5));
        let a_oid = a.oid;
        cache.admit(a);
        assert_eq!(cache.hop(a_oid, 7), Hop::Miss(b_oid), "target not resident");
        cache.admit(b);
        cache.note(a_oid, 7, b_oid);
        assert_eq!(cache.hop(a_oid, 7), Hop::To(b_oid, true), "noted hint is hot");
        assert_eq!(cache.hop(Oid::new(ClassId(9), 99), 7), Hop::Absent);
        assert_eq!(cache.hop(a_oid, 99), Hop::NotRef, "missing attr");
        assert_eq!(cache.hop(a_oid, 3), Hop::NotRef, "Int is not traversable");
    }

    #[test]
    fn sharded_hop_hint_invalidated_by_eviction_and_slot_reuse() {
        let cache = ShardedCache::new(2, true);
        let b = rec(1, 2, &[]);
        let b_oid = b.oid;
        let a = rec(1, 1, &[(7, b_oid)]);
        let a_oid = a.oid;
        cache.admit(a);
        cache.admit(b);
        assert_eq!(cache.hop(a_oid, 7), Hop::To(b_oid, false));
        assert_eq!(cache.hop(a_oid, 7), Hop::To(b_oid, true));
        // Touch a so b is LRU, then admit c into b's slot.
        let _ = cache.get(a_oid);
        cache.admit(rec(1, 3, &[]));
        assert!(!cache.contains(b_oid));
        // The stale hint must not resolve to c.
        assert_eq!(cache.hop(a_oid, 7), Hop::Miss(b_oid), "fault-in requested for b");
    }

    #[test]
    fn sharded_small_capacity_single_shard_lru() {
        let cache = ShardedCache::new(2, true);
        let (a, b, c) = (rec(1, 1, &[]), rec(1, 2, &[]), rec(1, 3, &[]));
        let (ao, bo, co) = (a.oid, b.oid, c.oid);
        cache.admit(a);
        cache.admit(b);
        let _ = cache.get(ao); // a more recent than b
        cache.admit(c); // evicts b — exact global LRU, single shard
        assert!(cache.contains(ao));
        assert!(!cache.contains(bo));
        assert!(cache.contains(co));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }
}
