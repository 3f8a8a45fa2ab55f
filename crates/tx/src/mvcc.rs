//! MVCC primitives: the commit clock and the snapshot registry.
//!
//! These are the transaction-layer half of snapshot reads. The commit
//! path allocates a monotonically increasing commit timestamp from
//! [`CommitClock`] and *publishes* it only after the transaction's whole
//! write set has been installed in the version store — readers snapshot
//! [`CommitClock::now`], so a half-published commit is never visible.
//! [`SnapshotRegistry`] tracks which snapshot timestamps are still in
//! use by running queries; its oldest entry is the pruning floor below
//! which old record versions may be reclaimed.
//!
//! The object-level version chains themselves live in `orion-core`
//! (they hold decoded records); this module is deliberately free of any
//! record representation so the clock and registry can be unit-tested
//! in isolation.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// CommitClock
// ---------------------------------------------------------------------

/// The commit-timestamp clock. Two counters, deliberately distinct:
///
/// * `next` hands out fresh commit timestamps (`allocate`),
/// * `visible` is the newest *fully published* timestamp (`now`).
///
/// Commit allocates, installs every version under that stamp, and only
/// then advances `visible`. A reader that snapshots `now()` therefore
/// sees either all of a transaction's writes or none of them.
#[derive(Debug)]
pub struct CommitClock {
    next: AtomicU64,
    visible: AtomicU64,
}

impl Default for CommitClock {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitClock {
    /// A fresh clock: no commits yet, `now() == 0`.
    pub fn new() -> Self {
        CommitClock { next: AtomicU64::new(1), visible: AtomicU64::new(0) }
    }

    /// Claim the next commit timestamp (strictly increasing).
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Mark `ts` fully published: snapshots taken from now on see it.
    pub fn publish(&self, ts: u64) {
        self.visible.fetch_max(ts, Ordering::Release);
    }

    /// The newest fully published commit timestamp — what a new
    /// snapshot reads as its consistency point.
    pub fn now(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// SnapshotRegistry
// ---------------------------------------------------------------------

/// A multiset of snapshot timestamps currently held by running queries.
/// The oldest entry is the version-pruning floor: a record version
/// superseded before it may still be the one some query must see.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    active: Mutex<BTreeMap<u64, usize>>,
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a query is reading at snapshot `ts`.
    pub fn register(&self, ts: u64) {
        *self.active.lock().entry(ts).or_insert(0) += 1;
    }

    /// Atomically snapshot `clock` and pin the result. The clock is
    /// read *inside* the registry lock so that [`Self::floor`] (same
    /// lock) can never hand out a pruning floor above a timestamp a
    /// reader is part-way through pinning — the race that would let a
    /// publisher reclaim versions a fresh snapshot still needs.
    pub fn register_now(&self, clock: &CommitClock) -> u64 {
        let mut active = self.active.lock();
        let ts = clock.now();
        *active.entry(ts).or_insert(0) += 1;
        ts
    }

    /// The version-pruning floor: the oldest pinned snapshot, or the
    /// currently *visible* timestamp when none is pinned. Computed
    /// under the registry lock, so it serializes with
    /// [`Self::register_now`]; because the visible clock is monotonic,
    /// every later registration lands at or above any floor already
    /// handed out — pruning to this floor is always safe.
    pub fn floor(&self, clock: &CommitClock) -> u64 {
        let active = self.active.lock();
        active.keys().next().copied().unwrap_or_else(|| clock.now())
    }

    /// Drop one registration of `ts`. Returns `true` when the oldest
    /// active snapshot advanced (or the registry drained) — the signal
    /// that pruning may make progress.
    pub fn deregister(&self, ts: u64) -> bool {
        let mut active = self.active.lock();
        let was_oldest = active.keys().next() == Some(&ts);
        if let Some(count) = active.get_mut(&ts) {
            *count -= 1;
            if *count == 0 {
                active.remove(&ts);
            }
        }
        was_oldest && active.keys().next() != Some(&ts)
    }

    /// The oldest snapshot still in use, if any.
    pub fn oldest(&self) -> Option<u64> {
        self.active.lock().keys().next().copied()
    }

    /// Number of active snapshot registrations.
    pub fn len(&self) -> usize {
        self.active.lock().values().sum()
    }

    /// Whether no snapshots are active.
    pub fn is_empty(&self) -> bool {
        self.active.lock().is_empty()
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

orion_obs::metrics! {
    /// Cumulative MVCC counters (a [`MvccMetrics`] snapshot).
    pub struct MvccStats;
    /// Metric sinks for the MVCC machinery (rendered as `orion_mvcc_*`).
    pub struct MvccMetrics;
    /// Snapshots taken (one per query execution).
    snapshots: counter("orion_mvcc_snapshots_total", "Query snapshots captured"),
    /// Record reads resolved under a snapshot.
    snapshot_reads: counter("orion_mvcc_snapshot_reads_total", "Record reads resolved under a snapshot"),
    /// Committed versions appended to version chains.
    versions_published: counter("orion_mvcc_versions_published_total", "Committed versions appended to version chains"),
    /// Rolled-back pre-images stamped back onto their chains: the
    /// revert a rollback publishes, which is not a committed version.
    versions_restamped: counter("orion_mvcc_versions_restamped_total", "Rolled-back pre-images re-stamped onto version chains"),
    /// Superseded versions reclaimed by pruning.
    versions_pruned: counter("orion_mvcc_versions_pruned_total", "Superseded versions reclaimed by pruning"),
    /// Version-chain length observed at each publish (unit: links).
    chain_length: plain_histogram("orion_mvcc_version_chain_length", "Version-chain length observed at publish (unit: links)"),
    /// Currently registered snapshots.
    active_snapshots: gauge("orion_mvcc_active_snapshots", "Snapshots currently pinned by running queries"),
    /// `now() - oldest active snapshot`: how far pruning lags behind
    /// the commit frontier.
    oldest_snapshot_lag: gauge("orion_mvcc_oldest_snapshot_lag", "Commit-timestamp distance from the oldest active snapshot to the frontier"),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_allocates_strictly_increasing_stamps() {
        let clock = CommitClock::new();
        let a = clock.allocate();
        let b = clock.allocate();
        assert!(b > a);
        assert_eq!(clock.now(), 0, "unpublished stamps are invisible");
        clock.publish(a);
        assert_eq!(clock.now(), a);
        clock.publish(b);
        assert_eq!(clock.now(), b);
        // Publishing an older stamp never moves the clock backwards.
        clock.publish(a);
        assert_eq!(clock.now(), b);
    }

    #[test]
    fn registry_tracks_oldest_multiset_style() {
        let reg = SnapshotRegistry::new();
        assert_eq!(reg.oldest(), None);
        reg.register(5);
        reg.register(5);
        reg.register(9);
        assert_eq!(reg.oldest(), Some(5));
        assert_eq!(reg.len(), 3);
        // First deregistration of 5 leaves a second holder: no advance.
        assert!(!reg.deregister(5));
        assert_eq!(reg.oldest(), Some(5));
        // Second one advances the floor to 9.
        assert!(reg.deregister(5));
        assert_eq!(reg.oldest(), Some(9));
        // Draining the registry also counts as an advance.
        assert!(reg.deregister(9));
        assert!(reg.is_empty());
    }

    #[test]
    fn deregister_of_newer_stamp_does_not_signal_advance() {
        let reg = SnapshotRegistry::new();
        reg.register(3);
        reg.register(7);
        assert!(!reg.deregister(7), "floor still pinned at 3");
        assert!(reg.deregister(3));
    }

    #[test]
    fn metrics_snapshot_copies_counters() {
        let m = MvccMetrics::default();
        m.snapshots.inc();
        m.snapshot_reads.add(4);
        m.versions_published.add(2);
        m.chain_length.observe_micros(3);
        m.active_snapshots.set(1);
        let s = m.snapshot();
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.snapshot_reads, 4);
        assert_eq!(s.versions_published, 2);
        assert_eq!(s.chain_length.count, 1);
        assert_eq!(s.active_snapshots, 1);
        // A chain length is a count of links, exported unscaled.
        let mut out = String::new();
        s.render(&mut out);
        assert!(out.contains("orion_mvcc_version_chain_length_sum 3\n"), "{out}");
        assert!(out.contains("orion_mvcc_version_chain_length_bucket{le=\"5\"} 1\n"), "{out}");
    }
}
