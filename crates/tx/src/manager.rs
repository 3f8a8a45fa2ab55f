//! The lock manager: a blocking lock table over the granularity
//! hierarchy with deadlock detection.

use crate::modes::LockMode;
use orion_obs::SpanTimer;
use orion_types::{ClassId, DbError, DbResult, Oid};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A lockable granule: the database, one class (its extent and
/// definition), or one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// The whole database.
    Database,
    /// One class.
    Class(ClassId),
    /// One instance.
    Object(Oid),
}

impl std::fmt::Display for LockTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockTarget::Database => write!(f, "database"),
            LockTarget::Class(c) => write!(f, "class {c}"),
            LockTarget::Object(o) => write!(f, "object {o}"),
        }
    }
}

#[derive(Debug, Default)]
struct TableState {
    /// target → (txn → granted mode).
    granted: HashMap<LockTarget, HashMap<u64, LockMode>>,
    /// txn → targets it holds (for release_all).
    held: HashMap<u64, HashSet<LockTarget>>,
    /// txn → set of txns it currently waits for.
    waits_for: HashMap<u64, HashSet<u64>>,
}

impl TableState {
    /// Would granting `(txn, mode)` on `target` conflict with another
    /// transaction's granted lock?
    fn conflicts(&self, target: &LockTarget, txn: u64, mode: LockMode) -> Vec<u64> {
        match self.granted.get(target) {
            None => Vec::new(),
            Some(holders) => holders
                .iter()
                .filter(|(t, m)| **t != txn && !mode.compatible(**m))
                .map(|(t, _)| *t)
                .collect(),
        }
    }

    fn grant(&mut self, target: LockTarget, txn: u64, mode: LockMode) {
        let holders = self.granted.entry(target).or_default();
        let entry = holders.entry(txn).or_insert(mode);
        *entry = entry.combine(mode);
        self.held.entry(txn).or_default().insert(target);
    }

    /// Does a wait-edge set from `from` reach `to` (cycle check)?
    fn reaches(&self, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(cur) = stack.pop() {
            if cur == to {
                return true;
            }
            if seen.insert(cur) {
                if let Some(next) = self.waits_for.get(&cur) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }
}

/// A blocking lock manager with deadlock detection.
///
/// Grant policy: a request is granted iff its mode is compatible with
/// every *granted* lock held by other transactions (no FIFO queue —
/// barging is allowed, which can starve writers under heavy read load
/// but keeps the table simple and is irrelevant to the experiments).
/// Deadlock policy: a request that would close a waits-for cycle fails
/// immediately with [`DbError::Deadlock`], naming the requester as the
/// victim; the facade aborts that transaction.
pub struct LockManager {
    state: Mutex<TableState>,
    available: Condvar,
    timeout: Duration,
    metrics: LockMetrics,
}

orion_obs::metrics! {
    /// Cumulative lock-manager counters.
    pub struct LockStats;
    /// The lock manager's live sinks.
    pub(crate) struct LockMetrics;
    /// Granted acquisitions (covered re-requests included).
    acquisitions: counter("orion_lock_acquisitions_total", "Lock requests granted"),
    /// Acquisitions that blocked on a conflicting holder at least once.
    waits: counter("orion_lock_waits_total", "Lock requests that blocked at least once"),
    /// Requests refused because granting would close a waits-for cycle
    /// (the requester is the chosen victim).
    deadlock_victims: counter("orion_lock_deadlock_victims_total", "Lock requests aborted as deadlock victims"),
    /// Requests abandoned at the configured wait timeout.
    timeouts: counter("orion_lock_timeouts_total", "Lock requests that timed out"),
    /// `IS`-mode acquisitions (intention share on ancestors of a read).
    is_acquisitions: counter("orion_lock_acquisitions_is_total", "IS-mode lock grants (intention share)"),
    /// `IX`-mode acquisitions (intention exclusive on ancestors of a
    /// write).
    ix_acquisitions: counter("orion_lock_acquisitions_ix_total", "IX-mode lock grants (intention exclusive)"),
    /// `S`-mode acquisitions (shared reads — with MVCC snapshot reads,
    /// a pure-query workload holds this at ~0: queries take no locks).
    s_acquisitions: counter("orion_lock_acquisitions_s_total", "S-mode lock grants (shared reads)"),
    /// `SIX`-mode acquisitions (share + intention-exclusive upgrades).
    six_acquisitions: counter("orion_lock_acquisitions_six_total", "SIX-mode lock grants (share + intention exclusive)"),
    /// `X`-mode acquisitions (exclusive writes).
    x_acquisitions: counter("orion_lock_acquisitions_x_total", "X-mode lock grants (exclusive writes)"),
    /// Wait-time distribution of those blocked acquisitions (granted or
    /// not — a timed-out wait is still a wait).
    wait_latency: histogram("orion_lock_wait_latency_seconds", "Lock wait latency"),
}

impl LockManager {
    /// A lock manager with the default 5-second wait timeout.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(5))
    }

    /// A lock manager with a custom wait timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        LockManager {
            state: Mutex::new(TableState::default()),
            available: Condvar::new(),
            timeout,
            metrics: LockMetrics::default(),
        }
    }

    /// Snapshot the lock counters.
    pub fn stats(&self) -> LockStats {
        self.metrics.snapshot()
    }

    /// Count one granted acquisition, and its mode.
    #[inline]
    fn count_grant(&self, mode: LockMode) {
        let m = &self.metrics;
        m.acquisitions.inc();
        match mode {
            LockMode::IS => m.is_acquisitions.inc(),
            LockMode::IX => m.ix_acquisitions.inc(),
            LockMode::S => m.s_acquisitions.inc(),
            LockMode::SIX => m.six_acquisitions.inc(),
            LockMode::X => m.x_acquisitions.inc(),
        }
    }

    /// Acquire `mode` on `target` for `txn`, blocking while conflicting
    /// locks are held. Upgrades combine with any mode already held.
    pub fn acquire(&self, txn: u64, target: LockTarget, mode: LockMode) -> DbResult<()> {
        let mut state = self.state.lock();
        // Fast path: already covered by a held mode.
        if let Some(holders) = state.granted.get(&target) {
            if let Some(held) = holders.get(&txn) {
                if held.covers(mode) {
                    self.count_grant(mode);
                    return Ok(());
                }
            }
        }
        // The clock is read only once a conflict forces a wait; the
        // uncontended grant path stays clock-free.
        let mut wait_span: Option<SpanTimer> = None;
        let finish_wait = |span: Option<SpanTimer>| {
            if let Some(span) = span {
                span.record(Instant::now(), &self.metrics.wait_latency);
            }
        };
        loop {
            let blockers = state.conflicts(&target, txn, mode);
            if blockers.is_empty() {
                state.waits_for.remove(&txn);
                state.grant(target, txn, mode);
                self.count_grant(mode);
                drop(state);
                finish_wait(wait_span);
                return Ok(());
            }
            // Record wait edges and check for a cycle through us.
            let closes_cycle = blockers.iter().any(|b| state.reaches(*b, txn));
            if closes_cycle {
                state.waits_for.remove(&txn);
                self.metrics.deadlock_victims.inc();
                drop(state);
                finish_wait(wait_span);
                return Err(DbError::Deadlock { victim: txn });
            }
            if wait_span.is_none() {
                self.metrics.waits.inc();
                wait_span = Some(SpanTimer::starting_at(Instant::now()));
            }
            state.waits_for.insert(txn, blockers.iter().copied().collect());
            let timed_out = self.available.wait_for(&mut state, self.timeout).timed_out();
            if timed_out {
                state.waits_for.remove(&txn);
                self.metrics.timeouts.inc();
                drop(state);
                finish_wait(wait_span);
                return Err(DbError::LockTimeout { txn, what: target.to_string() });
            }
        }
    }

    /// Try to acquire without blocking; `Ok(false)` when it would block.
    pub fn try_acquire(&self, txn: u64, target: LockTarget, mode: LockMode) -> DbResult<bool> {
        let mut state = self.state.lock();
        if state.conflicts(&target, txn, mode).is_empty() {
            state.grant(target, txn, mode);
            self.count_grant(mode);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Release every lock held by `txn` (end of strict 2PL).
    pub fn release_all(&self, txn: u64) {
        let mut state = self.state.lock();
        if let Some(targets) = state.held.remove(&txn) {
            for target in targets {
                if let Some(holders) = state.granted.get_mut(&target) {
                    holders.remove(&txn);
                    if holders.is_empty() {
                        state.granted.remove(&target);
                    }
                }
            }
        }
        state.waits_for.remove(&txn);
        self.available.notify_all();
    }

    /// Forcibly release every lock held by every transaction — restart
    /// recovery after a crash (in-flight transactions are gone).
    pub fn reset(&self) {
        let mut state = self.state.lock();
        state.granted.clear();
        state.held.clear();
        state.waits_for.clear();
        self.available.notify_all();
    }

    /// The mode `txn` holds on `target`, if any.
    pub fn held_mode(&self, txn: u64, target: LockTarget) -> Option<LockMode> {
        self.state.lock().granted.get(&target).and_then(|h| h.get(&txn)).copied()
    }

    /// Number of distinct granules currently locked (diagnostics).
    pub fn locked_granules(&self) -> usize {
        self.state.lock().granted.len()
    }

    /// Sizes of the three internal tables, `(granted targets, holding
    /// transactions, waiting transactions)` — hygiene diagnostics: after
    /// every transaction has ended (commit, abort, or deadlock-victim
    /// abort), all three must be zero or the table is leaking entries.
    pub fn table_sizes(&self) -> (usize, usize, usize) {
        let state = self.state.lock();
        (state.granted.len(), state.held.len(), state.waits_for.len())
    }

    /// Do the internal tables hold any trace of `txn`? Used by tests to
    /// prove `release_all` is complete: a transaction that ended must
    /// not linger in `granted`, `held`, or `waits_for` — including as a
    /// *wait-edge target* inside another transaction's entry.
    pub fn knows_txn(&self, txn: u64) -> bool {
        let state = self.state.lock();
        state.held.contains_key(&txn)
            || state.waits_for.contains_key(&txn)
            || state.granted.values().any(|holders| holders.contains_key(&txn))
            || state.waits_for.values().any(|targets| targets.contains(&txn))
    }

    // ------------------------------------------------------------------
    // Protocol helpers: the granularity hierarchy
    // ------------------------------------------------------------------

    /// Lock an object for reading: `IS` on database and class, `S` on
    /// the object.
    pub fn lock_object_read(&self, txn: u64, oid: Oid) -> DbResult<()> {
        self.acquire(txn, LockTarget::Database, LockMode::IS)?;
        self.acquire(txn, LockTarget::Class(oid.class()), LockMode::IS)?;
        self.acquire(txn, LockTarget::Object(oid), LockMode::S)
    }

    /// Lock an object for writing: `IX` on database and class, `X` on
    /// the object.
    pub fn lock_object_write(&self, txn: u64, oid: Oid) -> DbResult<()> {
        self.acquire(txn, LockTarget::Database, LockMode::IX)?;
        self.acquire(txn, LockTarget::Class(oid.class()), LockMode::IX)?;
        self.acquire(txn, LockTarget::Object(oid), LockMode::X)
    }

    /// Lock a class extent for scanning: `IS` on the database, `S` on
    /// the class (covers all its instances at once).
    pub fn lock_class_read(&self, txn: u64, class: ClassId) -> DbResult<()> {
        self.acquire(txn, LockTarget::Database, LockMode::IS)?;
        self.acquire(txn, LockTarget::Class(class), LockMode::S)
    }

    /// Lock a class extent for bulk writes: `IX` on the database, `X` on
    /// the class.
    pub fn lock_class_write(&self, txn: u64, class: ClassId) -> DbResult<()> {
        self.acquire(txn, LockTarget::Database, LockMode::IX)?;
        self.acquire(txn, LockTarget::Class(class), LockMode::X)
    }

    /// Class-hierarchy locking for schema changes (\[GARZ88\]): `X` on the
    /// changed class *and every subclass* (the caller passes the subtree
    /// — the catalog owns that computation).
    pub fn lock_schema_change(&self, txn: u64, subtree: &[ClassId]) -> DbResult<()> {
        self.acquire(txn, LockTarget::Database, LockMode::IX)?;
        for class in subtree {
            self.acquire(txn, LockTarget::Class(*class), LockMode::X)?;
        }
        Ok(())
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager").field("locked_granules", &self.locked_granules()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn oid(class: u16, s: u64) -> Oid {
        Oid::new(ClassId(class), s)
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock_object_read(1, oid(1, 1)).unwrap();
        lm.lock_object_read(2, oid(1, 1)).unwrap();
        assert_eq!(lm.held_mode(1, LockTarget::Object(oid(1, 1))), Some(LockMode::S));
        lm.release_all(1);
        lm.release_all(2);
        assert_eq!(lm.locked_granules(), 0);
    }

    #[test]
    fn exclusive_conflicts_block_and_timeout() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.lock_object_write(1, oid(1, 1)).unwrap();
        let err = lm.lock_object_write(2, oid(1, 1)).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { txn: 2, .. }));
    }

    #[test]
    fn intention_locks_let_disjoint_writers_proceed() {
        let lm = LockManager::new();
        lm.lock_object_write(1, oid(1, 1)).unwrap();
        // Different object of the same class: only IX on the class, fine.
        lm.lock_object_write(2, oid(1, 2)).unwrap();
        assert_eq!(lm.held_mode(1, LockTarget::Class(ClassId(1))), Some(LockMode::IX));
    }

    #[test]
    fn class_scan_blocks_object_writer() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.lock_class_read(1, ClassId(1)).unwrap(); // S on class
        // Writer needs IX on the class: incompatible with S.
        let err = lm.lock_object_write(2, oid(1, 5)).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        lm.release_all(1);
        lm.lock_object_write(2, oid(1, 5)).unwrap();
    }

    #[test]
    fn class_scan_coexists_with_reader() {
        let lm = LockManager::new();
        lm.lock_class_read(1, ClassId(1)).unwrap();
        lm.lock_object_read(2, oid(1, 5)).unwrap(); // IS vs S: fine
    }

    #[test]
    fn schema_change_excludes_hierarchy_readers() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        let subtree = [ClassId(1), ClassId(2), ClassId(3)];
        // A scan of one class inside the subtree holds `S` on it.
        lm.lock_class_read(1, ClassId(2)).unwrap();
        let err = lm.lock_schema_change(2, &subtree).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        lm.release_all(1);
        lm.lock_schema_change(2, &subtree).unwrap();
        // Now even a single-object reader in the subtree blocks.
        let err = lm.lock_object_read(3, oid(2, 1)).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
    }

    #[test]
    fn upgrade_read_to_write() {
        let lm = LockManager::new();
        lm.lock_object_read(1, oid(1, 1)).unwrap();
        lm.lock_object_write(1, oid(1, 1)).unwrap();
        assert_eq!(lm.held_mode(1, LockTarget::Object(oid(1, 1))), Some(LockMode::X));
        // Class mode combined IS + IX = IX.
        assert_eq!(lm.held_mode(1, LockTarget::Class(ClassId(1))), Some(LockMode::IX));
    }

    #[test]
    fn deadlock_detected_on_cross_upgrade() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(10)));
        let a = oid(1, 1);
        let b = oid(1, 2);
        lm.lock_object_write(1, a).unwrap();
        lm.lock_object_write(2, b).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || {
            // Txn 1 wants b (held by 2): blocks.
            lm2.lock_object_write(1, b)
        });
        std::thread::sleep(Duration::from_millis(100));
        // Txn 2 wants a (held by 1): closes the cycle — deadlock.
        let err = lm.lock_object_write(2, a).unwrap_err();
        assert!(matches!(err, DbError::Deadlock { victim: 2 }));
        // Victim aborts, releasing its locks; txn 1 proceeds.
        lm.release_all(2);
        t.join().unwrap().unwrap();
        lm.release_all(1);
        assert_eq!(lm.locked_granules(), 0);
    }

    #[test]
    fn blocked_writer_wakes_on_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock_object_write(1, oid(1, 1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || lm2.lock_object_write(2, oid(1, 1)));
        std::thread::sleep(Duration::from_millis(50));
        lm.release_all(1);
        t.join().unwrap().unwrap();
        assert_eq!(lm.held_mode(2, LockTarget::Object(oid(1, 1))), Some(LockMode::X));
    }

    #[test]
    fn stats_count_grants_waits_deadlocks_timeouts() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(50)));
        lm.lock_object_read(1, oid(1, 1)).unwrap(); // 3 grants (IS, IS, S)
        assert_eq!(lm.stats().acquisitions, 3);
        assert_eq!(lm.stats().is_acquisitions, 2, "IS on database + class");
        assert_eq!(lm.stats().s_acquisitions, 1, "S on the object");
        assert_eq!(lm.stats().ix_acquisitions, 0);
        assert_eq!(lm.stats().x_acquisitions, 0);
        assert_eq!(lm.stats().waits, 0);

        // A conflicting writer waits, then times out.
        let err = lm.lock_object_write(2, oid(1, 1)).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        let s = lm.stats();
        assert_eq!(s.waits, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.wait_latency.count, 1, "the timed-out wait was measured");
        assert!(s.wait_latency.sum_micros >= 50_000, "waited at least the timeout");

        // A blocked-then-granted acquisition records its wait too.
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || lm2.lock_object_write(3, oid(1, 1)));
        std::thread::sleep(Duration::from_millis(10));
        lm.release_all(1);
        t.join().unwrap().unwrap();
        let s = lm.stats();
        assert_eq!(s.waits, 2);
        assert_eq!(s.wait_latency.count, 2);

        // Deadlock victims are counted.
        lm.release_all(3);
        let a = oid(2, 1);
        let b = oid(2, 2);
        lm.lock_object_write(10, a).unwrap();
        lm.lock_object_write(11, b).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || lm2.lock_object_write(10, b));
        std::thread::sleep(Duration::from_millis(10));
        let err = lm.lock_object_write(11, a).unwrap_err();
        assert!(matches!(err, DbError::Deadlock { victim: 11 }));
        assert_eq!(lm.stats().deadlock_victims, 1);
        lm.release_all(11);
        t.join().unwrap().unwrap();
        lm.release_all(10);
    }

    #[test]
    fn try_acquire_never_blocks() {
        let lm = LockManager::new();
        lm.lock_object_write(1, oid(1, 1)).unwrap();
        assert!(!lm.try_acquire(2, LockTarget::Object(oid(1, 1)), LockMode::X).unwrap());
        assert!(lm.try_acquire(2, LockTarget::Object(oid(1, 2)), LockMode::X).unwrap());
    }

    /// Table hygiene: whatever way a transaction ends — plain release
    /// after commit, release after a timeout, or release as a deadlock
    /// victim — `release_all` must leave no trace of it in `granted`,
    /// `held`, or `waits_for`.
    #[test]
    fn release_all_leaves_no_stale_entries() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(50)));

        // 1. Plain commit path.
        lm.lock_object_write(1, oid(1, 1)).unwrap();
        lm.lock_class_read(1, ClassId(9)).unwrap();
        lm.release_all(1);
        assert!(!lm.knows_txn(1), "committed txn lingers in the table");
        assert_eq!(lm.table_sizes(), (0, 0, 0));

        // 2. Timed-out waiter: its wait edges must not outlive it.
        lm.lock_object_write(2, oid(1, 1)).unwrap();
        let err = lm.lock_object_write(3, oid(1, 1)).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        lm.release_all(3);
        assert!(!lm.knows_txn(3), "timed-out txn lingers in the table");
        lm.release_all(2);
        assert_eq!(lm.table_sizes(), (0, 0, 0));

        // 3. Deadlock victim: the victim's abort must clear both its
        // grants and its wait edges; the survivor then completes.
        let a = oid(2, 1);
        let b = oid(2, 2);
        lm.lock_object_write(10, a).unwrap();
        lm.lock_object_write(11, b).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || lm2.lock_object_write(10, b));
        std::thread::sleep(Duration::from_millis(10));
        let err = lm.lock_object_write(11, a).unwrap_err();
        assert!(matches!(err, DbError::Deadlock { victim: 11 }));
        lm.release_all(11);
        // The survivor's `waits_for` edge pointing at the victim is only
        // refreshed when the survivor wakes, so assert after it is granted.
        t.join().unwrap().unwrap();
        assert!(!lm.knows_txn(11), "deadlock victim lingers in the table");
        lm.release_all(10);
        assert!(!lm.knows_txn(10));
        assert_eq!(lm.table_sizes(), (0, 0, 0), "quiescent table is empty");
    }

    #[test]
    fn concurrent_disjoint_writers_make_progress() {
        let lm = Arc::new(LockManager::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let lm = Arc::clone(&lm);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let o = oid(1, t * 1000 + i);
                        lm.lock_object_write(t, o).unwrap();
                    }
                    lm.release_all(t);
                });
            }
        });
        assert_eq!(lm.locked_granules(), 0);
    }
}
