//! The version store: per-object version chains for snapshot reads.
//!
//! orion keeps object state *in place* — cache, directory, extents and
//! indexes always reflect the newest write, committed or not, and
//! writer isolation comes from 2PL. MVCC is layered **over** that as a
//! sparse overlay: a version chain exists only for objects written
//! since the last quiescent point, and it records the *pre-images* a
//! snapshot reader must see instead of the in-place state. An object
//! with no chain is simply current everywhere.
//!
//! Protocol (writers):
//! 1. **Stage before mutate.** The first in-place write a transaction
//!    makes to an object first installs a chain whose base entry is the
//!    committed pre-image at timestamp 0 (creates stage a
//!    "did-not-exist" tombstone base). Only then does the writer mutate
//!    cache/storage/extents, so a snapshot reader that finds no chain
//!    can trust the in-place state — with one re-check, see
//!    [`VersionStore::resolve`].
//! 2. **Publish on commit.** Under the publish mutex, commit allocates
//!    a timestamp from the [`CommitClock`], appends the after-image to
//!    every touched chain, updates the per-class tombstone map, and
//!    only then advances the visible clock — a snapshot taken at any
//!    instant sees all of a commit or none of it.
//! 3. **Discard on rollback.** While the chains still name their
//!    writer, the facade reverts in-place state object by object, from
//!    each staged after-image to the chain's committed pre-image; then
//!    every chain is stamped with that pre-image at a fresh commit
//!    timestamp, so an index probe that read a reverted entry finds the
//!    object in `moved_since` and re-checks it.
//!
//! Readers resolve `(oid, snapshot-ts)` to the newest chain entry at or
//! below their snapshot, falling back to in-place state when no chain
//! exists. They take no 2PL locks and, on the chain hit path, not even
//! the maintenance gate.
//!
//! Pruning is epoch-based: when the oldest active snapshot advances
//! (or the last one retires), and after each publish for the chains it
//! wrote, entries older than the newest entry at or below the floor are
//! reclaimed, and fully settled chains are removed outright — returning
//! the store to the empty, zero-overhead state that pure-read workloads
//! see. A commit with no older snapshot open leaves no chain behind.

use orion_tx::{CommitClock, MvccMetrics, MvccStats, SnapshotRegistry};
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, Oid};
use parking_lot::{Mutex, RwLock};
use std::collections::{hash_map::Entry, BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// Reader id for snapshot reads outside any transaction (never equals
/// a real transaction id, so "own uncommitted write" never matches).
pub(crate) const NO_READER: u64 = u64::MAX;

#[inline]
fn shard_of(oid: Oid) -> usize {
    ((oid.serial() ^ ((oid.class().0 as u64) << 3)) as usize) & (SHARDS - 1)
}

/// Stage-time marker for an uncommitted delete in the tombstone map
/// (`u64::MAX` compares above every snapshot, so the object is merged
/// back into every scan until the delete commits).
const PENDING: u64 = u64::MAX;

/// A chain entry: the record as of commit `ts` (`None` = did not
/// exist / deleted). Entries are kept in ascending `ts` order; the
/// base entry installed at stage time carries `ts == 0`.
type VersionEntry = (u64, Option<Arc<ObjectRecord>>);

/// One transaction's staged after-images (`None` = staged delete).
type StagedSet = HashMap<Oid, Option<Arc<ObjectRecord>>>;

/// One object a discarded transaction wrote: its staged after-image and
/// its committed pre-image (`None` = absent).
pub(crate) type WriteEntry = (Oid, Option<Arc<ObjectRecord>>, Option<Arc<ObjectRecord>>);

#[derive(Debug)]
struct VersionChain {
    entries: Vec<VersionEntry>,
    /// The transaction currently staging an in-place write, if any.
    writer: Option<u64>,
}

/// What a snapshot reader should do for one `(oid, ts)` lookup.
#[derive(Debug)]
pub(crate) enum Resolution {
    /// No chain: the in-place state is committed and visible.
    Current,
    /// The reader *is* the in-flight writer: read its in-place state
    /// (a transaction sees its own uncommitted writes).
    Own,
    /// Serve this committed version.
    Visible(Arc<ObjectRecord>),
    /// The object does not exist at this snapshot (created later, or
    /// deleted at or before it).
    Invisible,
}

/// The facade-level version store. Lives on `Database` *outside* the
/// [`Runtime`](crate::runtime::Runtime) deliberately: recovery rebuilds
/// the runtime wholesale, and the version history is what a rollback
/// reverts to rather than something it may disturb. Shard
/// locks here are leaves in the global lock order (after the gate and
/// every runtime component lock; never held while acquiring anything).
#[derive(Debug)]
pub(crate) struct VersionStore {
    pub clock: CommitClock,
    pub registry: SnapshotRegistry,
    pub metrics: MvccMetrics,
    shards: Box<[RwLock<HashMap<Oid, VersionChain>>]>,
    /// Live chain count — the quiescent fast path: zero means every
    /// object is current and scans/reads skip all resolution.
    overlay: AtomicU64,
    /// txn → (oid → after-image) staged by in-flight writers.
    staged: Mutex<HashMap<u64, StagedSet>>,
    /// class → (oid → delete commit-ts, or [`PENDING`]): objects absent
    /// from the live extent that some snapshot must still scan.
    deleted: RwLock<HashMap<ClassId, BTreeMap<Oid, u64>>>,
    /// Serializes commit publication so chain entries stay ts-ordered
    /// and the visible clock never advances past a half-published set.
    publish: Mutex<()>,
}

impl VersionStore {
    pub fn new() -> Self {
        VersionStore {
            clock: CommitClock::new(),
            registry: SnapshotRegistry::new(),
            metrics: MvccMetrics::new(),
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            overlay: AtomicU64::new(0),
            staged: Mutex::new(HashMap::new()),
            deleted: RwLock::new(HashMap::new()),
            publish: Mutex::new(()),
        }
    }

    /// Is the overlay empty (every object current, nothing staged)?
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.overlay.load(Ordering::Acquire) == 0
    }

    /// Does `oid` currently have a version chain?
    pub fn has_chain(&self, oid: Oid) -> bool {
        !self.quiescent() && self.shards[shard_of(oid)].read().contains_key(&oid)
    }

    // ------------------------------------------------------------------
    // Writer protocol
    // ------------------------------------------------------------------

    /// Record an in-flight write *before* the in-place mutation. `pre`
    /// is the committed pre-image (`None` for creates) — consulted only
    /// on the first write to a previously unchained object, where it
    /// becomes the chain's timestamp-0 base. `after` is the after-image
    /// this transaction would commit (`None` for deletes). Returns the
    /// after-image this replaced, if the transaction had staged one — a
    /// writer whose storage call then fails stages it back.
    pub fn stage(
        &self,
        txn: u64,
        oid: Oid,
        pre: Option<Arc<ObjectRecord>>,
        after: Option<Arc<ObjectRecord>>,
    ) -> Option<Option<Arc<ObjectRecord>>> {
        let deleting = after.is_none();
        let prev = self.staged.lock().entry(txn).or_default().insert(oid, after);
        let undeleting = matches!(prev, Some(None)) && !deleting;
        {
            let mut shard = self.shards[shard_of(oid)].write();
            match shard.entry(oid) {
                Entry::Occupied(mut e) => e.get_mut().writer = Some(txn),
                Entry::Vacant(v) => {
                    v.insert(VersionChain { entries: vec![(0, pre)], writer: Some(txn) });
                    self.overlay.fetch_add(1, Ordering::Release);
                }
            }
        }
        if deleting {
            self.deleted.write().entry(oid.class()).or_default().insert(oid, PENDING);
        } else if undeleting {
            // The same transaction staged a delete earlier and now
            // overwrote it; retract the pending tombstone.
            Self::remove_tombstone(&mut self.deleted.write(), oid, |ts| ts == PENDING);
        }
        prev
    }

    fn remove_tombstone(
        deleted: &mut HashMap<ClassId, BTreeMap<Oid, u64>>,
        oid: Oid,
        when: impl Fn(u64) -> bool,
    ) {
        if let Entry::Occupied(mut e) = deleted.entry(oid.class()) {
            if e.get().get(&oid).copied().is_some_and(when) {
                e.get_mut().remove(&oid);
                if e.get().is_empty() {
                    e.remove();
                }
            }
        }
    }

    /// Publish `txn`'s staged write set under a fresh commit timestamp.
    /// Returns the stamp, or `None` if the transaction staged nothing.
    pub fn commit_publish(&self, txn: u64) -> Option<u64> {
        let set = self.staged.lock().remove(&txn)?;
        self.publish(txn, set)
    }

    /// Forget `txn`'s staged write set (rollback, or a failed commit).
    /// `undo` runs first, over each written object's staged after-image
    /// and committed pre-image (its chain's newest entry), while the
    /// chains still name their writer. Then every chain is stamped with
    /// its pre-image at a fresh commit timestamp, so `moved_since` lists
    /// the object for every snapshot older than the revert — a probe
    /// that read an index entry `undo` then reverted is re-checked.
    pub fn discard<R>(&self, txn: u64, undo: impl FnOnce(&[WriteEntry]) -> R) -> R {
        let set = self.staged.lock().remove(&txn).unwrap_or_default();
        let writes: Vec<WriteEntry> = set
            .into_iter()
            .map(|(oid, after)| {
                let shard = self.shards[shard_of(oid)].read();
                let pre = shard.get(&oid).and_then(|chain| chain.entries.last()?.1.clone());
                (oid, after, pre)
            })
            .collect();
        let out = undo(&writes);
        self.publish(txn, writes.into_iter().map(|(oid, _, pre)| (oid, pre)).collect());
        out
    }

    /// Append each image in `set` to its chain under a fresh commit
    /// timestamp, release `txn`'s hold on the chains, publish the stamp,
    /// and then settle what it can. Returns the stamp, or `None` for an
    /// empty set.
    fn publish(&self, txn: u64, set: StagedSet) -> Option<u64> {
        if set.is_empty() {
            return None;
        }
        let _serialize = self.publish.lock();
        let ts = self.clock.allocate();
        let mut touched = Vec::with_capacity(set.len());
        for (oid, after) in set {
            let tombstone = after.is_none();
            if let Some(chain) = self.shards[shard_of(oid)].write().get_mut(&oid) {
                if chain.writer == Some(txn) {
                    chain.writer = None;
                }
                chain.entries.push((ts, after));
                touched.push(oid);
            }
            let mut deleted = self.deleted.write();
            if tombstone {
                deleted.entry(oid.class()).or_default().insert(oid, ts);
            } else {
                // The object lives again at `ts`: retract any stale marker.
                Self::remove_tombstone(&mut deleted, oid, |_| true);
            }
        }
        self.metrics.versions_published.add(touched.len() as u64);
        self.clock.publish(ts);
        // Only now may the floor reach `ts`: a snapshot that registers
        // from here on does so at `ts` or later, and needs none of the
        // entries below it. With no older snapshot pinned, this settles
        // every chain the commit wrote — the store is quiescent again.
        let floor = self.registry.floor(&self.clock);
        let mut pruned = 0u64;
        let mut settled = Vec::new();
        for oid in touched {
            let mut shard = self.shards[shard_of(oid)].write();
            let Entry::Occupied(mut chain) = shard.entry(oid) else { continue };
            pruned += Self::prune_chain(&mut chain.get_mut().entries, floor);
            // Observed post-prune: the steady-state depth a reader
            // actually walks, not the transient peak.
            self.metrics.chain_length.observe_micros(chain.get().entries.len() as u64);
            if Self::settled(chain.get(), floor) {
                chain.remove();
                settled.push(oid);
            }
        }
        self.retire(settled, pruned);
        Some(ts)
    }

    /// Drop all version state (crash recovery: in-flight transactions
    /// evaporated and storage was replayed to the committed truth, so
    /// the in-place state *is* every object's only version). The clock
    /// keeps counting — snapshot timestamps stay monotonic across
    /// recoveries.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
        self.staged.lock().clear();
        self.deleted.write().clear();
        self.overlay.store(0, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Reader protocol
    // ------------------------------------------------------------------

    /// Resolve `(oid, ts)` for reader transaction `reader`.
    ///
    /// A [`Resolution::Current`] answer is trustworthy only with a
    /// re-check: a writer may install a chain (staging the pre-image)
    /// between this lookup and the caller's in-place read. Callers must
    /// read in place, call `has_chain`, and re-resolve on `true` — the
    /// stage-before-mutate ordering guarantees the second resolution
    /// sees the pre-image the snapshot needs.
    pub fn resolve(&self, oid: Oid, ts: u64, reader: u64) -> Resolution {
        if self.quiescent() {
            return Resolution::Current;
        }
        let shard = self.shards[shard_of(oid)].read();
        match shard.get(&oid) {
            None => Resolution::Current,
            Some(chain) => {
                if chain.writer == Some(reader) {
                    return Resolution::Own;
                }
                match chain.entries.iter().rev().find(|(t, _)| *t <= ts) {
                    Some((_, Some(rec))) => Resolution::Visible(Arc::clone(rec)),
                    Some((_, None)) | None => Resolution::Invisible,
                }
            }
        }
    }

    /// Every object `keep` selects whose in-place state (and so whose
    /// index entries) may differ from what snapshot `ts` reads for
    /// `reader`: another transaction is writing it, or it committed
    /// after `ts`. Only chained objects qualify — a writer stages the
    /// chain before it mutates in place — and such a chain cannot
    /// settle while the snapshot is registered.
    pub fn moved_since(&self, ts: u64, reader: u64, keep: impl Fn(Oid) -> bool) -> Vec<Oid> {
        if self.quiescent() {
            return Vec::new();
        }
        let moved = |chain: &VersionChain| match chain.writer {
            Some(writer) => writer != reader,
            None => chain.entries.last().is_some_and(|(t, _)| *t > ts),
        };
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read();
            out.extend(shard.iter().filter(|(&oid, c)| moved(c) && keep(oid)).map(|(&oid, _)| oid));
        }
        out
    }

    /// OIDs of `class` that are *absent from the live extent* but were
    /// still alive at snapshot `ts` (committed deletes after `ts`, plus
    /// uncommitted deletes, which are pending at `u64::MAX`). The
    /// caller merges these into its extent scan and visibility-filters
    /// the union.
    pub fn deleted_after(&self, class: ClassId, ts: u64) -> Vec<Oid> {
        if self.quiescent() {
            return Vec::new();
        }
        self.deleted
            .read()
            .get(&class)
            .map(|m| m.iter().filter(|&(_, &t)| t > ts).map(|(&oid, _)| oid).collect())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Snapshots and pruning
    // ------------------------------------------------------------------

    /// Capture a snapshot for `reader` and pin it against pruning.
    /// Clock read and registration are atomic (one registry lock), so
    /// no pruning floor computed concurrently can exceed `ts`.
    pub fn begin_snapshot(&self, reader: u64) -> SnapshotGuard<'_> {
        let ts = self.registry.register_now(&self.clock);
        self.metrics.snapshots.inc();
        self.metrics.active_snapshots.set(self.registry.len() as u64);
        let oldest = self.registry.oldest().unwrap_or(ts);
        self.metrics.oldest_snapshot_lag.set(ts.saturating_sub(oldest));
        SnapshotGuard { store: self, ts, reader }
    }

    /// Reclaim every version no snapshot at or above `floor` can see.
    pub fn prune_to(&self, floor: u64) {
        if self.quiescent() {
            return;
        }
        let mut pruned = 0u64;
        let mut settled: Vec<Oid> = Vec::new();
        for shard in self.shards.iter() {
            let mut guard = shard.write();
            guard.retain(|oid, chain| {
                pruned += Self::prune_chain(&mut chain.entries, floor);
                let done = Self::settled(chain, floor);
                if done {
                    settled.push(*oid);
                }
                !done
            });
        }
        self.retire(settled, pruned);
    }

    /// Account for chains just removed as settled: shrink the overlay,
    /// drop their committed tombstones (no snapshot can see them), and
    /// count the pruned entries.
    fn retire(&self, settled: Vec<Oid>, pruned: u64) {
        if !settled.is_empty() {
            self.overlay.fetch_sub(settled.len() as u64, Ordering::Release);
            let mut deleted = self.deleted.write();
            for oid in settled {
                Self::remove_tombstone(&mut deleted, oid, |ts| ts != PENDING);
            }
        }
        self.metrics.versions_pruned.add(pruned);
    }

    /// Drop entries older than the newest entry at or below `floor`
    /// (that entry is what every surviving snapshot resolves to).
    /// Returns the number reclaimed.
    fn prune_chain(entries: &mut Vec<VersionEntry>, floor: u64) -> u64 {
        let keep_from = entries
            .iter()
            .rposition(|(t, _)| *t <= floor)
            .unwrap_or(0);
        entries.drain(..keep_from);
        keep_from as u64
    }

    /// A chain is settled once no writer is in flight and a single
    /// entry at or below the floor remains: that entry necessarily
    /// matches the in-place state — a record entry equals what storage
    /// holds (every commit publishes its after-images, every rollback
    /// stamps the pre-images it reverted to), and a
    /// tombstone entry matches the object's absence from the directory
    /// and extents — so the chain can vanish.
    fn settled(chain: &VersionChain, floor: u64) -> bool {
        chain.writer.is_none() && chain.entries.len() == 1 && chain.entries[0].0 <= floor
    }

    /// Point-in-time MVCC counters, with the live gauges refreshed.
    pub fn stats_snapshot(&self) -> MvccStats {
        let mut s = self.metrics.snapshot();
        s.active_snapshots = self.registry.len() as u64;
        let now = self.clock.now();
        s.oldest_snapshot_lag = now.saturating_sub(self.registry.oldest().unwrap_or(now));
        s
    }
}

/// An active snapshot: a timestamp pinned in the registry. Dropping it
/// deregisters and, when that advanced the oldest-snapshot floor, runs
/// a pruning sweep.
pub(crate) struct SnapshotGuard<'a> {
    store: &'a VersionStore,
    ts: u64,
    reader: u64,
}

impl SnapshotGuard<'_> {
    /// The snapshot timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// The reading transaction's id (0 = no transaction).
    pub fn reader(&self) -> u64 {
        self.reader
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        let advanced = self.store.registry.deregister(self.ts);
        self.store.metrics.active_snapshots.set(self.store.registry.len() as u64);
        if advanced && !self.store.quiescent() {
            let floor = self.store.registry.floor(&self.store.clock);
            self.store.prune_to(floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_types::Value;

    fn rec(oid: Oid, tag: i64) -> Arc<ObjectRecord> {
        Arc::new(ObjectRecord::new(oid, 1, vec![(1, Value::Int(tag))]))
    }

    fn tag(r: &ObjectRecord) -> i64 {
        match r.get(1) {
            Some(Value::Int(v)) => *v,
            other => panic!("unexpected attr: {other:?}"),
        }
    }

    fn oid(serial: u64) -> Oid {
        Oid::new(ClassId(7), serial)
    }

    #[test]
    fn stage_publish_resolve_roundtrip() {
        let vs = VersionStore::new();
        let o = oid(1);
        assert!(matches!(vs.resolve(o, 0, 9), Resolution::Current));

        // A reader pins a snapshot (registration is what protects its
        // versions from pruning), then writer 1 updates the object:
        // pre-image v0, after-image v1.
        let snap = vs.begin_snapshot(9);
        vs.stage(1, o, Some(rec(o, 0)), Some(rec(o, 1)));
        assert!(vs.has_chain(o));
        // The pinned reader sees the pre-image...
        match vs.resolve(o, snap.ts(), 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 0),
            other => panic!("expected pre-image, got {other:?}"),
        }
        // ...while the writer reads its own in-place state.
        assert!(matches!(vs.resolve(o, snap.ts(), 1), Resolution::Own));

        let ts = vs.commit_publish(1).expect("staged set published");
        assert!(vs.clock.now() >= ts);
        // The old snapshot still resolves to the pre-image; a new one
        // to v1.
        match vs.resolve(o, snap.ts(), 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 0),
            other => panic!("expected old version, got {other:?}"),
        }
        match vs.resolve(o, ts, 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 1),
            other => panic!("expected v1, got {other:?}"),
        }
        // Retiring the snapshot advances the floor; the fully settled
        // chain is reclaimed and the store returns to quiescence.
        drop(snap);
        assert!(vs.quiescent());
        assert!(matches!(vs.resolve(o, ts, 9), Resolution::Current));
    }

    #[test]
    fn created_objects_are_invisible_to_older_snapshots() {
        let vs = VersionStore::new();
        let o = oid(2);
        let snap = vs.begin_snapshot(9);
        vs.stage(1, o, None, Some(rec(o, 5)));
        assert!(matches!(vs.resolve(o, snap.ts(), 9), Resolution::Invisible));
        let ts = vs.commit_publish(1).unwrap();
        assert!(matches!(vs.resolve(o, snap.ts(), 9), Resolution::Invisible));
        match vs.resolve(o, ts, 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 5),
            other => panic!("expected v5, got {other:?}"),
        }
        drop(snap);
        assert!(vs.quiescent(), "settled create chain reclaimed");
    }

    #[test]
    fn deletes_surface_through_tombstone_map_until_settled() {
        let vs = VersionStore::new();
        let o = oid(3);
        // Committed create at ts1 (no snapshot pinned → settles).
        vs.stage(1, o, None, Some(rec(o, 1)));
        vs.commit_publish(1).unwrap();

        // Pin a snapshot, then delete under txn 2.
        let snap = vs.begin_snapshot(9);
        vs.stage(2, o, Some(rec(o, 1)), None);
        // Uncommitted delete: scans at the pinned snapshot must merge
        // the object back in, and it must still resolve as visible.
        assert_eq!(vs.deleted_after(o.class(), snap.ts()), vec![o]);
        match vs.resolve(o, snap.ts(), 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 1),
            other => panic!("expected pre-delete image, got {other:?}"),
        }
        // The deleting transaction itself sees its own delete.
        assert!(matches!(vs.resolve(o, snap.ts(), 2), Resolution::Own));

        let del_ts = vs.commit_publish(2).unwrap();
        // Old snapshot: still alive. New snapshot: gone.
        assert_eq!(vs.deleted_after(o.class(), snap.ts()), vec![o]);
        match vs.resolve(o, snap.ts(), 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 1),
            other => panic!("expected pre-delete image, got {other:?}"),
        }
        assert!(vs.deleted_after(o.class(), del_ts).is_empty());
        assert!(matches!(vs.resolve(o, del_ts, 9), Resolution::Invisible));

        // Retiring the snapshot advances the floor past the delete;
        // tombstone chains for dead objects are reclaimed wholesale.
        drop(snap);
        assert!(vs.quiescent(), "tombstone chain reclaimed after floor advance");
        assert!(vs.deleted_after(o.class(), 0).is_empty());
    }

    #[test]
    fn pruning_never_reclaims_a_version_visible_to_an_active_snapshot() {
        let vs = VersionStore::new();
        let o = oid(4);
        vs.stage(1, o, Some(rec(o, 0)), Some(rec(o, 1)));
        let first_ts = vs.commit_publish(1).unwrap();

        // Pin a snapshot at the first committed version, then land a
        // pile of later commits.
        let snap = vs.begin_snapshot(9);
        assert_eq!(snap.ts(), first_ts);
        for txn in 2..22u64 {
            vs.stage(txn, o, Some(rec(o, 1)), Some(rec(o, txn as i64)));
            vs.commit_publish(txn).unwrap();
        }
        // Twenty newer versions landed; the pinned snapshot still reads
        // its version exactly.
        match vs.resolve(o, snap.ts(), 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 1),
            other => panic!("pinned version reclaimed: {other:?}"),
        }
        // Targeted pruning at publish kept the chain from growing
        // without bound: everything between the floor and the head is
        // prunable except the floor version itself.
        let stats = vs.stats_snapshot();
        assert!(stats.versions_pruned > 0, "publish-time pruning ran");

        // Floor advance reclaims the chain entirely.
        drop(snap);
        assert!(vs.quiescent());
        let after = vs.stats_snapshot();
        assert!(after.versions_pruned > stats.versions_pruned);
    }

    #[test]
    fn discard_clears_staged_state_but_keeps_committed_entries() {
        let vs = VersionStore::new();
        let o = oid(5);
        let snap = vs.begin_snapshot(9);
        vs.stage(1, o, Some(rec(o, 0)), Some(rec(o, 1)));
        vs.discard(1, |_| ());
        // The pre-image survives (it is the committed truth the reverted
        // in-place state equals), and no writer remains.
        match vs.resolve(o, snap.ts(), 1) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 0),
            Resolution::Current => {}
            other => panic!("unexpected: {other:?}"),
        }
        // A staged delete that is discarded retracts its pending
        // tombstone marker.
        vs.stage(2, o, Some(rec(o, 0)), None);
        assert_eq!(vs.deleted_after(o.class(), snap.ts()), vec![o]);
        vs.discard(2, |_| ());
        assert!(vs.deleted_after(o.class(), snap.ts()).is_empty());
        drop(snap);
    }

    #[test]
    fn discard_lists_the_reverted_objects_for_every_older_snapshot() {
        let vs = VersionStore::new();
        let (o, fresh) = (oid(9), oid(10));
        vs.stage(1, o, Some(rec(o, 0)), Some(rec(o, 1)));
        vs.stage(1, fresh, None, Some(rec(fresh, 5)));
        // A reader probed the in-place state mid-transaction...
        let snap = vs.begin_snapshot(9);
        let pre = vs.discard(1, |writes| {
            let mut pre: Vec<_> =
                writes.iter().map(|(oid, _, pre)| (*oid, pre.as_deref().map(tag))).collect();
            pre.sort();
            pre
        });
        assert_eq!(pre, vec![(o, Some(0)), (fresh, None)], "undo sees the committed pre-images");
        // ...and lists after the revert: both objects are still there to
        // re-check, though no writer holds them any more.
        let mut moved = vs.moved_since(snap.ts(), 9, |_| true);
        moved.sort();
        assert_eq!(moved, vec![o, fresh]);
        assert!(vs.moved_since(vs.clock.now(), 9, |_| true).is_empty(), "newer snapshots need not");
        drop(snap);
        assert!(vs.quiescent(), "stamped chains settle");
    }

    #[test]
    fn a_commit_settles_its_own_chains_unless_a_snapshot_needs_them() {
        let vs = VersionStore::new();
        let (o, p) = (oid(8), oid(11));
        // With nothing pinned, the publish leaves no chain behind.
        vs.stage(1, o, Some(rec(o, 0)), Some(rec(o, 1)));
        vs.stage(1, p, None, Some(rec(p, 1)));
        vs.commit_publish(1).unwrap();
        assert!(vs.quiescent(), "an unpinned commit settles what it wrote");
        // A snapshot registered before the publish keeps its pre-image.
        let snap = vs.begin_snapshot(9);
        vs.stage(2, o, Some(rec(o, 1)), Some(rec(o, 2)));
        vs.commit_publish(2).unwrap();
        match vs.resolve(o, snap.ts(), 9) {
            Resolution::Visible(r) => assert_eq!(tag(&r), 1),
            other => panic!("pre-image pruned out from under a pinned reader: {other:?}"),
        }
        drop(snap);
        assert!(vs.quiescent());
    }

    #[test]
    fn a_load_leaves_no_chains_and_the_next_scan_reads_storage() {
        use crate::{AttrSpec, Database, Domain, PrimitiveType};
        const N: i64 = 500;
        let db = Database::open_in_memory();
        let int = Domain::Primitive(PrimitiveType::Int);
        db.create_class("Item", &[], vec![AttrSpec::new("n", int)]).unwrap();
        let tx = db.begin();
        for n in 0..N {
            db.create_object(&tx, "Item", vec![("n", Value::Int(n))]).unwrap();
        }
        db.commit(tx).unwrap();
        assert!(db.mvcc.quiescent(), "the load's chains settled at its commit");
        db.cool_caches().unwrap();
        db.reset_metrics();
        let tx = db.begin();
        let r = db.query(&tx, "select count(*) from Item i where i.n >= 0").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(N));
        db.commit(tx).unwrap();
        let fetches = db.stats().fetches;
        assert_eq!(fetches, N as u64, "each object read from storage, none from a chain");
    }

    #[test]
    fn reset_returns_to_quiescence() {
        let vs = VersionStore::new();
        let o = oid(6);
        let _pin = vs.begin_snapshot(9);
        vs.stage(1, o, Some(rec(o, 0)), Some(rec(o, 1)));
        vs.stage(2, oid(7), Some(rec(oid(7), 0)), None);
        assert!(!vs.quiescent());
        let before = vs.clock.now();
        vs.reset();
        assert!(vs.quiescent());
        assert!(vs.deleted_after(o.class(), 0).is_empty());
        assert!(vs.clock.now() >= before, "clock stays monotonic across reset");
    }
}
