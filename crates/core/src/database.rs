//! The `Database` facade: transactions and object CRUD.
//!
//! Everything an application touches goes through [`Database`]. The
//! design keeps one invariant above all others: **storage is the truth**
//! — the object directory, class extents, reverse references, composite
//! ownership, and every index are deterministic functions of the stored
//! records, kept current by one change function (`crate::derived`).
//! Every write applies it once storage has taken the write; rollback
//! runs the storage engine's undo and then the same change backwards,
//! for the objects the transaction wrote and no others. Only crash
//! recovery and cold restart rebuild derived state from a full scan.
//!
//! Concurrency: writer *isolation* comes from the 2PL hierarchy locks
//! in `orion-tx` (IX on class + X on object for DML), never from
//! structural mutexes. The [`Runtime`]'s components each synchronize
//! themselves (see `crate::runtime` for the canonical lock order), so
//! transactions touching disjoint objects execute concurrently; the old
//! big runtime lock survives only as the *maintenance gate* `rt`, taken
//! shared by all normal work — rollback and foreign attach included —
//! and exclusively by restart rebuilds and index DDL.

use crate::authz::{AuthAction, AuthTarget, AuthzManager};
use crate::cache::Hop;
use crate::derived::refs;
use crate::methods::MethodRegistry;
use crate::multidb::ForeignAdapter;
use crate::notify::{NotificationKind, NotifyCenter};
use crate::runtime::Runtime;
use crate::stats::{DbMetrics, DbStats};
use crate::sysattr;
use orion_schema::Catalog;
use orion_storage::{PageDevice, StorageEngine, TxnId};
use orion_tx::LockManager;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbError, DbResult, Oid, OidAllocator, Value};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How object operations map onto the lock manager (experiment E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockingStrategy {
    /// Intention locks on ancestors, object-level S/X (the \[GARZ88\]
    /// granularity scheme).
    Granular,
    /// Class-level S/X for every object operation (the coarse baseline).
    CoarseClass,
}

/// Which storage backend a database opens over.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageSpec {
    /// The in-memory simulated disk: fault-injectable, instrumented,
    /// and gone when the process exits. The default, and what every
    /// test and benchmark uses unless it is explicitly exercising
    /// durability across processes.
    #[default]
    Memory,
    /// Real files under the given directory (`pages.dat` + `wal.log`)
    /// with real `fsync` durability barriers. Opening an existing
    /// directory replays its WAL.
    File(PathBuf),
}

/// Tunables; defaults are sensible for tests and examples.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer-pool frames (4 KiB pages).
    pub buffer_pages: usize,
    /// Object-cache capacity (resident objects).
    pub cache_objects: usize,
    /// Pointer swizzling in the object cache (experiment E3).
    pub swizzling: bool,
    /// Lock granularity (experiment E8).
    pub locking: LockingStrategy,
    /// Enforce authorization checks for transactions with a subject.
    pub authz_enabled: bool,
    /// Cluster composite parts with their parent (experiment E10).
    pub clustering: bool,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
    /// Worker threads for query candidate evaluation: `0` sizes to the
    /// machine's available parallelism, `1` forces serial execution.
    pub query_threads: usize,
    /// Where pages and the WAL live (see [`StorageSpec`]).
    pub storage: StorageSpec,
    /// Group-commit window: how long a commit's flush leader lingers
    /// for other committers to join its fsync. `ZERO` (the default)
    /// flushes immediately but still coalesces opportunistically —
    /// committers that arrive while a flush is in flight share the
    /// next one.
    pub group_commit_window: Duration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pages: 256,
            cache_objects: 4096,
            swizzling: true,
            locking: LockingStrategy::Granular,
            authz_enabled: false,
            clustering: true,
            lock_timeout: Duration::from_secs(5),
            query_threads: 0,
            storage: StorageSpec::Memory,
            group_commit_window: Duration::ZERO,
        }
    }
}

impl DbConfig {
    /// Start building a configuration. `build()` validates, so a
    /// database constructed through the builder never starts with a
    /// zero-sized buffer pool or similar nonsense.
    pub fn builder() -> DbConfigBuilder {
        DbConfigBuilder { config: DbConfig::default() }
    }

    /// Check every invariant the builder enforces. `Err(DbError::Config)`
    /// names the first offending setting.
    pub fn validate(&self) -> DbResult<()> {
        if self.buffer_pages == 0 {
            return Err(DbError::Config("buffer_pages must be at least 1".into()));
        }
        if self.cache_objects == 0 {
            return Err(DbError::Config("cache_objects must be at least 1".into()));
        }
        if self.lock_timeout == Duration::ZERO {
            return Err(DbError::Config("lock_timeout must be non-zero".into()));
        }
        Ok(())
    }
}

/// Builder for [`DbConfig`]; settings are validated at [`build`].
///
/// [`build`]: DbConfigBuilder::build
#[derive(Debug, Clone, Default)]
pub struct DbConfigBuilder {
    config: DbConfig,
}

impl DbConfigBuilder {
    /// Buffer-pool frames (4 KiB pages). Must be at least 1.
    pub fn buffer_pages(mut self, pages: usize) -> Self {
        self.config.buffer_pages = pages;
        self
    }

    /// Object-cache capacity (resident objects). Must be at least 1.
    pub fn cache_objects(mut self, objects: usize) -> Self {
        self.config.cache_objects = objects;
        self
    }

    /// Pointer swizzling in the object cache.
    pub fn swizzling(mut self, on: bool) -> Self {
        self.config.swizzling = on;
        self
    }

    /// Lock granularity.
    pub fn locking(mut self, strategy: LockingStrategy) -> Self {
        self.config.locking = strategy;
        self
    }

    /// Enforce authorization checks for transactions with a subject.
    pub fn authz_enabled(mut self, on: bool) -> Self {
        self.config.authz_enabled = on;
        self
    }

    /// Cluster composite parts with their parent.
    pub fn clustering(mut self, on: bool) -> Self {
        self.config.clustering = on;
        self
    }

    /// Lock-wait timeout. Must be non-zero.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.config.lock_timeout = timeout;
        self
    }

    /// Worker threads for query candidate evaluation (`0` = auto).
    pub fn query_threads(mut self, threads: usize) -> Self {
        self.config.query_threads = threads;
        self
    }

    /// Storage backend selection (in-memory or real files).
    pub fn storage(mut self, spec: StorageSpec) -> Self {
        self.config.storage = spec;
        self
    }

    /// Group-commit window (`ZERO` = flush immediately, coalescing
    /// only committers already waiting).
    pub fn group_commit_window(mut self, window: Duration) -> Self {
        self.config.group_commit_window = window;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> DbResult<DbConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A transaction handle. All state lives in the engine and lock manager
/// under the transaction's id. Not `Clone`: `commit` and `rollback`
/// consume the only handle, so a finished one cannot write again.
#[derive(Debug)]
pub struct Tx {
    pub(crate) storage: TxnId,
    pub(crate) subject: Option<String>,
}

impl Tx {
    /// The numeric transaction id.
    pub fn id(&self) -> u64 {
        self.storage.0
    }

    /// The authorization subject, if any.
    pub fn subject(&self) -> Option<&str> {
        self.subject.as_deref()
    }
}

/// The orion object-oriented database.
pub struct Database {
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) engine: StorageEngine,
    pub(crate) locks: LockManager,
    /// The maintenance gate around the decomposed [`Runtime`]: shared
    /// for DML/queries/reads/rollback/foreign attach (components
    /// synchronize themselves), exclusive only for restart rebuilds and
    /// index DDL. See `crate::runtime` for the lock order.
    pub(crate) rt: RwLock<Runtime>,
    pub(crate) methods: RwLock<MethodRegistry>,
    pub(crate) authz: RwLock<AuthzManager>,
    pub(crate) views: RwLock<HashMap<String, String>>,
    pub(crate) rules: RwLock<Vec<crate::rules::Rule>>,
    pub(crate) notify: Mutex<NotifyCenter>,
    pub(crate) adapters: RwLock<HashMap<String, Box<dyn ForeignAdapter>>>,
    /// Per-object version chains for MVCC snapshot reads, and each
    /// writer's staged after-images — what a rollback reverts from.
    pub(crate) mvcc: crate::mvcc::VersionStore,
    pub(crate) config: DbConfig,
    pub(crate) alloc: OidAllocator,
    pub(crate) metrics: DbMetrics,
}

/// Lazy schema adaptation: hide the attributes of `record` that
/// evolution has dropped from its class (`resolved`).
pub(crate) fn adapt_to(resolved: &orion_schema::ResolvedClass, record: &mut ObjectRecord) {
    if record.schema_version == resolved.version {
        return;
    }
    record
        .attrs
        .retain(|(id, _)| sysattr::is_reserved(*id) || resolved.attr_by_id(*id).is_some());
    record.schema_version = resolved.version;
}

impl Database {
    /// A fresh in-memory database with default configuration. State
    /// lives in an in-memory [`PageDevice`] and dies with the process —
    /// the right constructor for tests, examples, and experiments.
    pub fn open_in_memory() -> Self {
        Self::with_config(DbConfig::default())
    }

    /// Open (or create) a durable database rooted at `path` over a
    /// real-file backend with real `fsync`. If the directory already
    /// holds data from a previous process, its WAL is replayed and all
    /// derived state (catalog, extents, indexes) rebuilt before the
    /// handle is returned; method bodies must be re-registered by the
    /// caller (they are code, not data).
    pub fn open(path: impl Into<PathBuf>) -> DbResult<Self> {
        let config =
            DbConfig { storage: StorageSpec::File(path.into()), ..DbConfig::default() };
        Self::build(config)
    }

    /// A fresh database with explicit configuration.
    ///
    /// Infallible for in-memory storage. Panics if the configuration
    /// names a file backend that fails to open — use [`Database::open`]
    /// or [`Database::try_with_config`] for file-backed storage.
    pub fn with_config(config: DbConfig) -> Self {
        Self::build(config).expect(
            "opening storage failed; use Database::open or try_with_config for file backends",
        )
    }

    /// A fresh database from a validated configuration; rejects invalid
    /// settings with [`DbError::Config`]. Equivalent to
    /// `DbConfig::builder()...build()` followed by
    /// [`Database::with_config`], but surfaces file-backend open and
    /// replay errors instead of panicking.
    pub fn try_with_config(config: DbConfig) -> DbResult<Self> {
        config.validate()?;
        Self::build(config)
    }

    /// Construct over the configured backend; replay existing state.
    fn build(config: DbConfig) -> DbResult<Self> {
        let device = Arc::new(match &config.storage {
            StorageSpec::Memory => PageDevice::new(),
            StorageSpec::File(dir) => PageDevice::open(dir)?,
        });
        let had_state = device.page_count() > 0 || !device.log().is_empty();
        let engine = StorageEngine::with_backend(device, config.buffer_pages)?;
        engine.wal().set_group_commit_window(config.group_commit_window);
        let db = Database {
            catalog: RwLock::new(Catalog::new()),
            engine,
            locks: LockManager::with_timeout(config.lock_timeout),
            rt: RwLock::new(Runtime::new(&config)),
            methods: RwLock::new(MethodRegistry::new()),
            authz: RwLock::new(AuthzManager::new()),
            views: RwLock::new(HashMap::new()),
            rules: RwLock::new(Vec::new()),
            notify: Mutex::new(NotifyCenter::new()),
            adapters: RwLock::new(HashMap::new()),
            mvcc: crate::mvcc::VersionStore::new(),
            config,
            alloc: OidAllocator::new(),
            metrics: DbMetrics::default(),
        };
        if had_state {
            // A cold restart: WAL redo/undo, page scrub, then a
            // wholesale rebuild of derived state from the recovered
            // records.
            db.restart(true)?;
        }
        Ok(db)
    }

    /// The active configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The storage engine (stats and checkpoint access).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// The lock manager.
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Run `f` with read access to the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.catalog.read())
    }

    /// Run `f` with write access to the catalog. For tuning knobs (e.g.
    /// toggling the method cache); schema changes should go through
    /// [`Database::create_class`] / [`Database::evolve`], which also
    /// take the required locks.
    pub fn with_catalog_mut<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        f(&mut self.catalog.write())
    }

    // ------------------------------------------------------------------
    // Maintenance gate
    // ------------------------------------------------------------------

    /// Shared gate acquisition — every normal operation (DML, rollback,
    /// query, read, stats, foreign attach). Blocks only against a
    /// concurrent exclusive holder (restart/index DDL), never against
    /// other shared work.
    pub(crate) fn rt_read(&self) -> RwLockReadGuard<'_, Runtime> {
        self.metrics.gate.shared_acquisitions.inc();
        self.rt.read()
    }

    /// Exclusive gate acquisition — restart rebuilds and index DDL.
    /// Waits for every in-flight shared holder to drain; the
    /// wait is recorded so pathological gate contention shows up in
    /// `stats()`.
    pub(crate) fn rt_write(&self) -> RwLockWriteGuard<'_, Runtime> {
        self.metrics.gate.exclusive_acquisitions.inc();
        let start = Instant::now();
        let guard = self.rt.write();
        self.metrics.gate.exclusive_wait.observe(start.elapsed());
        guard
    }

    /// One structured snapshot of every performance counter in the
    /// system: object cache, buffer pool, disk, WAL, lock manager,
    /// query executor, fetches, maintenance gate, and method
    /// dispatches. Safe to call while queries and transactions run —
    /// everything is lock-free atomics except the object cache, whose
    /// shard locks are leaves taken one at a time under a *shared* gate
    /// guard (never the exclusive gate, never the 2PL lock manager), so
    /// `stats()` can never deadlock against writers or rollback.
    pub fn stats(&self) -> DbStats {
        let (cache, fetches) = {
            let rt = self.rt_read();
            (rt.cache.stats(), rt.fetches.load(Ordering::Relaxed))
        };
        self.metrics.twopc.prepared.set(self.engine.prepared_txns().len() as u64);
        DbStats {
            cache,
            pool: self.engine.pool().stats(),
            disk: self.engine.disk().stats(),
            wal: self.engine.wal().stats(),
            locks: self.locks.stats(),
            exec: self.metrics.exec.snapshot(),
            gate: self.metrics.gate.snapshot(),
            fetches,
            method_calls: self.metrics.method_calls.get(),
            mvcc: self.mvcc.stats_snapshot(),
            net: self.metrics.net.snapshot(),
            twopc: self.metrics.twopc.snapshot(),
            fault: self.engine.fault_stats(),
            recovery: self.engine.recovery_stats(),
            restart: self.metrics.restart.snapshot(),
        }
    }

    /// The network front-door metric sinks. An `orion-net` server built
    /// over this database clones the `Arc` and accounts connections,
    /// requests, errors, timeouts, and request latency into it, so
    /// [`Database::stats`] and the Prometheus rendering cover the wire
    /// with no dependency from core on the net crate.
    pub fn net_metrics(&self) -> Arc<crate::stats::NetMetrics> {
        Arc::clone(&self.metrics.net)
    }

    /// Drop the object cache and buffer pool contents without touching
    /// durable state — "cold cache" setup for experiments.
    pub fn cool_caches(&self) -> DbResult<()> {
        self.engine.pool().flush_all()?;
        self.engine.pool().crash();
        self.rt_read().cache.clear();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction with no subject (system authority). Nothing is
    /// logged until it writes.
    pub fn begin(&self) -> Tx {
        Tx { storage: self.engine.begin(), subject: None }
    }

    /// Begin a transaction on behalf of an authorization subject.
    pub fn begin_as(&self, subject: &str) -> Tx {
        Tx { storage: self.engine.begin(), subject: Some(subject.to_owned()) }
    }

    /// Commit: force the log, if the transaction wrote, then release
    /// locks (strict 2PL).
    ///
    /// Locks are released even when the log force fails (an injected
    /// partial flush leaves the commit in doubt) — the transaction is
    /// over either way, and holding its locks forever would wedge every
    /// later transaction touching the same objects.
    pub fn commit(&self, tx: Tx) -> DbResult<()> {
        let result = self.engine.commit(tx.storage);
        match &result {
            // Durable: publish the write set under a fresh commit
            // timestamp — snapshot readers see it atomically.
            Ok(()) => {
                self.mvcc.commit_publish(tx.id());
            }
            // In doubt: drop the staged after-images. The chains keep
            // their committed pre-images, so snapshot readers stay on
            // the last known-good state; the caller is expected to
            // `crash_and_recover`, which resolves the in-doubt state and
            // resets the version store to match.
            Err(_) => self.mvcc.discard(tx.id(), |_| ()),
        }
        self.locks.release_all(tx.id());
        result
    }

    /// Roll back: undo storage, revert the derived state of every
    /// object the transaction wrote, release locks. Costs what the
    /// transaction did (nothing logged if it wrote nothing), under the
    /// shared gate: other sessions keep running with warm caches.
    ///
    /// Locks are released even when the undo fails mid-way (an injected
    /// fault): the transaction cannot continue, and the caller is
    /// expected to `crash_and_recover` to restore consistency.
    pub fn rollback(&self, tx: Tx) -> DbResult<()> {
        let result = self.undo(tx.id(), || self.engine.abort(tx.storage).map(Some));
        self.locks.release_all(tx.id());
        result.map(drop)
    }

    // ------------------------------------------------------------------
    // Two-phase commit (participant side)
    // ------------------------------------------------------------------

    /// Phase one of two-phase commit: force the transaction's effects
    /// and a `Prepare` record to the log, then park it awaiting the
    /// coordinator's decision. The transaction keeps its 2PL locks and
    /// its staged MVCC write set — it is no longer abortable
    /// unilaterally (only [`Database::commit_prepared`] /
    /// [`Database::abort_prepared`] settle it). On error the
    /// transaction stays active and the caller should roll it back.
    pub fn prepare(&self, tx: &Tx) -> DbResult<()> {
        self.engine.prepare(tx.storage)?;
        self.metrics.twopc.prepares.inc();
        Ok(())
    }

    /// Phase two, commit branch: make a prepared transaction durable
    /// and release its locks. Idempotent by transaction id — `Ok(false)`
    /// means the id is unknown (already settled, or never prepared
    /// here), which a retransmitting coordinator treats as success.
    pub fn commit_prepared(&self, txn: u64) -> DbResult<bool> {
        let result = self.engine.commit_prepared(TxnId(txn));
        match &result {
            Ok(true) => {
                self.mvcc.commit_publish(txn);
            }
            Ok(false) => {}
            // In doubt (log force failed): same contract as `commit` —
            // drop the staged after-images and expect the caller to
            // `crash_and_recover`.
            Err(_) => self.mvcc.discard(txn, |_| ()),
        }
        self.locks.release_all(txn);
        if matches!(result, Ok(true)) {
            self.metrics.twopc.commits.inc();
        }
        result
    }

    /// Phase two, abort branch: undo a prepared transaction from its
    /// retained undo state exactly like [`Database::rollback`], and
    /// release its locks. Idempotent by transaction id like
    /// [`Database::commit_prepared`].
    pub fn abort_prepared(&self, txn: u64) -> DbResult<bool> {
        let result = self.undo(txn, || self.engine.abort_prepared(TxnId(txn)));
        self.locks.release_all(txn);
        if matches!(result, Ok(true)) {
            self.metrics.twopc.aborts.inc();
        }
        result
    }

    /// Transaction ids currently prepared and awaiting a coordinator
    /// decision (sorted). After a recovery these are the in-doubt
    /// transactions reinstated from the log.
    pub fn in_doubt(&self) -> Vec<u64> {
        self.engine.prepared_txns()
    }

    /// Reinstate in-doubt (prepared) transactions after a recovery reset
    /// the lock manager and the version store. Recovery's redo
    /// reapplied their effects in place (they are not losers), so until
    /// the coordinator's decision arrives their objects stay X-locked —
    /// 2PL readers and writers block exactly as they did before the
    /// crash — and staged: snapshot readers see the committed
    /// pre-images, and an abort decision reverts derived state from the
    /// staged after-images like any rollback. The fresh lock manager has
    /// no competing holders, so acquisition cannot block or fail.
    pub(crate) fn reinstate_in_doubt(&self) {
        for txn in self.engine.prepared_txns() {
            let (before, after) = self.engine.prepared_records(txn);
            let mut writes: HashMap<Oid, [Option<Arc<ObjectRecord>>; 2]> = HashMap::new();
            for (side, records) in [before, after].into_iter().enumerate() {
                for record in records.iter().filter_map(|(_, b)| ObjectRecord::decode(b).ok()) {
                    let oid = record.oid;
                    writes.entry(oid).or_default()[side] = Some(Arc::new(record));
                }
            }
            let tx = Tx { storage: TxnId(txn), subject: None };
            for (oid, [pre, post]) in writes {
                let _ = self.lock_write(&tx, oid);
                self.mvcc.stage(txn, oid, pre, post);
            }
            self.metrics.twopc.in_doubt_recovered.inc();
        }
    }

    /// Simulate a crash (volatile state lost) and run restart recovery.
    /// Locks held by in-flight transactions evaporate with the crash —
    /// except those of prepared (in-doubt) transactions, which are
    /// re-asserted from the log so phase two finds them intact.
    pub fn crash_and_recover(&self) -> DbResult<()> {
        self.restart(false)
    }

    /// Simulate a full process restart: volatile state *and* the
    /// in-memory catalog/views/indexes are wiped, then recovered from
    /// the WAL, pages, and the persisted system record. Method bodies
    /// must be re-registered by the caller afterwards.
    pub fn simulate_cold_restart(&self) -> DbResult<()> {
        self.restart(true)
    }

    /// The one restart body, behind both restart paths and the replay
    /// on open: crash, drop locks and versions, recover the storage,
    /// re-derive the runtime, then reinstate in-doubt transactions. A
    /// `cold` restart first forgets the in-memory schema too, so it is
    /// read back from the persisted system record.
    fn restart(&self, cold: bool) -> DbResult<()> {
        {
            let mut catalog = self.catalog.write();
            let rt = self.rt_write();
            self.engine.crash();
            self.locks.reset();
            // Version history evaporates with the crash: replay restores
            // exactly the committed truth, so after recovery the in-place
            // state is every object's only version (the commit clock keeps
            // counting — snapshot timestamps stay monotonic).
            self.mvcc.reset();
            if cold {
                *catalog = Catalog::new();
                self.views.write().clear();
                *self.methods.write() = MethodRegistry::new();
                rt.indexes.write().clear();
                rt.next_index_id.store(1, Ordering::Relaxed);
                *rt.system_rid.lock() = None;
            }
            self.engine.recover()?;
            let start = Instant::now();
            self.rebuild_runtime(&mut catalog, &rt)?;
            self.metrics.restart.rebuild.observe(start.elapsed());
        }
        // Prepared transactions survive the restart as in-doubt; their
        // exclusive locks and staged writes are re-asserted so phase two
        // finds them held.
        self.reinstate_in_doubt();
        Ok(())
    }

    /// Quiescent checkpoint; fails while a transaction that wrote or prepared is open.
    pub fn checkpoint(&self) -> DbResult<()> {
        self.engine.checkpoint()
    }

    // ------------------------------------------------------------------
    // Fault injection (chaos testing)
    // ------------------------------------------------------------------

    /// Install a deterministic fault plan into the storage layer: the
    /// disk and the WAL start failing, tearing, and rotting according
    /// to `plan`'s seeded triggers. Counters appear under
    /// [`DbStats::fault`]. Replaces any previously installed plan.
    pub fn install_faults(&self, plan: orion_storage::FaultPlan) {
        self.engine.install_faults(plan);
    }

    /// Remove any installed fault plan; subsequent I/O is clean. The
    /// cumulative fault counters are retained.
    pub fn clear_faults(&self) {
        self.engine.clear_faults();
    }

    // ------------------------------------------------------------------
    // Authorization plumbing
    // ------------------------------------------------------------------

    pub(crate) fn check_auth(
        &self,
        tx: &Tx,
        action: AuthAction,
        target: AuthTarget,
    ) -> DbResult<()> {
        if !self.config.authz_enabled {
            return Ok(());
        }
        match &tx.subject {
            None => Ok(()), // subject-less transactions are system authority
            Some(subject) => self.authz.read().check(subject, action, &target),
        }
    }

    // ------------------------------------------------------------------
    // Lock plumbing
    // ------------------------------------------------------------------

    pub(crate) fn lock_read(&self, tx: &Tx, oid: Oid) -> DbResult<()> {
        match self.config.locking {
            LockingStrategy::Granular => self.locks.lock_object_read(tx.id(), oid),
            LockingStrategy::CoarseClass => self.locks.lock_class_read(tx.id(), oid.class()),
        }
    }

    pub(crate) fn lock_write(&self, tx: &Tx, oid: Oid) -> DbResult<()> {
        match self.config.locking {
            LockingStrategy::Granular => self.locks.lock_object_write(tx.id(), oid),
            LockingStrategy::CoarseClass => self.locks.lock_class_write(tx.id(), oid.class()),
        }
    }

    // ------------------------------------------------------------------
    // Record access
    // ------------------------------------------------------------------

    /// Load (faulting in if needed) the record for `oid`. Applies lazy
    /// schema adaptation on read: attribute ids no longer in the class's
    /// resolved definition are hidden (physically scrubbed on next
    /// write).
    pub(crate) fn load_record(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oid: Oid,
    ) -> DbResult<Arc<ObjectRecord>> {
        if let Some(rec) = rt.cache.get(oid) {
            return Ok(rec);
        }
        if let Some(rec) = rt.foreign_store.read().get(&oid) {
            return Ok(Arc::clone(rec));
        }
        let rid = rt.directory.get(oid).ok_or(DbError::NoSuchObject(oid))?;
        let bytes = self.engine.read(rid)?;
        let mut record = ObjectRecord::decode(&bytes)?;
        rt.fetches.fetch_add(1, Ordering::Relaxed);
        // Lazy schema adaptation (a class dropped with extant instances
        // adapts nothing).
        if let Ok(resolved) = catalog.resolve(record.oid.class()) {
            adapt_to(&resolved, &mut record);
        }
        rt.cache.admit(record.clone());
        Ok(Arc::new(record))
    }

    // ------------------------------------------------------------------
    // Object CRUD
    // ------------------------------------------------------------------

    /// Create an object of `class_name` with named attribute values.
    pub fn create_object(
        &self,
        tx: &Tx,
        class_name: &str,
        attrs: Vec<(&str, Value)>,
    ) -> DbResult<Oid> {
        self.create_object_impl(tx, class_name, attrs, None)
    }

    pub(crate) fn create_object_impl(
        &self,
        tx: &Tx,
        class_name: &str,
        attrs: Vec<(&str, Value)>,
        placement_hint: Option<Oid>,
    ) -> DbResult<Oid> {
        let (class, resolved, pairs) = {
            let catalog = self.catalog.read();
            let class = catalog.class_id(class_name)?;
            if self.rt_read().foreign_classes.read().contains_key(&class) {
                return Err(DbError::Foreign(format!(
                    "class `{class_name}` is served by a foreign database; create rows there"
                )));
            }
            self.check_auth(tx, AuthAction::Create, AuthTarget::Class(class))?;
            let resolved = catalog.resolve(class)?;

            // Validate and bind attribute values.
            let mut pairs: Vec<(u32, Value)> = Vec::with_capacity(attrs.len());
            for (name, value) in attrs {
                let attr = resolved.attr(name).ok_or_else(|| DbError::UnknownAttribute {
                    class: class_name.to_owned(),
                    attribute: name.to_owned(),
                })?;
                catalog.check_domain(class_name, attr, &value)?;
                pairs.push((attr.id, value));
            }
            (class, resolved, pairs)
            // Guard dropped here: never block on the lock manager while
            // holding a catalog guard.
        };

        let oid = self.alloc.allocate(class);
        self.lock_write(tx, oid)?;
        // A composite value claims its parts: X-lock them like the
        // object itself, so the claim check below holds until the write.
        let mut claims = Vec::new();
        for (attr_id, value) in &pairs {
            if resolved.attr_by_id(*attr_id).is_some_and(|a| a.composite) {
                let parts = refs(value);
                for part in &parts {
                    self.lock_write(tx, *part)?;
                }
                claims.push((*attr_id, parts));
            }
        }

        let catalog = self.catalog.read();
        let rt = self.rt_read();
        for (attr_id, parts) in &claims {
            self.check_claims(&rt, oid, *attr_id, parts)?;
        }
        let record = ObjectRecord::new(oid, resolved.version, pairs);
        let hint = if self.config.clustering {
            placement_hint.and_then(|p| rt.directory.get(p).map(|rid| rid.page))
        } else {
            None
        };
        self.write_object(&rt, tx, &catalog, None, Some(Arc::new(record)), hint)?;
        Ok(oid)
    }

    /// Read one attribute by name (subclass-aware via the OID's class).
    pub fn get(&self, tx: &Tx, oid: Oid, attr_name: &str) -> DbResult<Value> {
        self.check_auth(tx, AuthAction::Read, AuthTarget::Object(oid))?;
        self.lock_read(tx, oid)?;
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        self.get_attr_internal(&rt, &catalog, oid, attr_name)
    }

    pub(crate) fn get_attr_internal(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oid: Oid,
        attr_name: &str,
    ) -> DbResult<Value> {
        // Generic objects forward reads to their default version.
        let record = self.load_record(rt, catalog, oid)?;
        if let Some(Value::Ref(default)) = record.get(sysattr::ATTR_DEFAULT_VERSION) {
            let default = *default;
            return self.get_attr_internal(rt, catalog, default, attr_name);
        }
        let resolved = catalog.resolve(oid.class())?;
        let attr = resolved.attr(attr_name).ok_or_else(|| DbError::UnknownAttribute {
            class: resolved.name.clone(),
            attribute: attr_name.to_owned(),
        })?;
        Ok(match record.get(attr.id) {
            Some(v) if !v.is_null() => v.clone(),
            _ => attr.default.clone(),
        })
    }

    /// Update one attribute by name.
    pub fn set(&self, tx: &Tx, oid: Oid, attr_name: &str, value: Value) -> DbResult<()> {
        self.check_auth(tx, AuthAction::Write, AuthTarget::Object(oid))?;
        // 2PL locks are acquired before any catalog guard is taken: a
        // thread must never block on the lock manager while holding a
        // catalog guard (DDL queues for the catalog write lock, and every
        // later reader queues behind it).
        self.lock_write(tx, oid)?;
        let (resolved, attr) = {
            let catalog = self.catalog.read();
            let resolved = catalog.resolve(oid.class())?;
            let attr = resolved
                .attr(attr_name)
                .ok_or_else(|| DbError::UnknownAttribute {
                    class: resolved.name.clone(),
                    attribute: attr_name.to_owned(),
                })?
                .clone();
            catalog.check_domain(&resolved.name, &attr, &value)?;
            (resolved, attr)
        };

        // A composite value claims the parts it adds and deletes the
        // closures of the parts it drops (dependent exclusive semantics,
        // \[KIM89c\]): all of them are X-locked *before* the catalog
        // guard and gate are taken.
        let new_parts = if attr.composite { refs(&value) } else { Vec::new() };
        if attr.composite {
            let targets: Vec<Oid> = {
                let catalog = self.catalog.read();
                let rt = self.rt_read();
                let record = self.load_record(&rt, &catalog, oid)?;
                let old_parts = record.get(attr.id).map(refs).unwrap_or_default();
                let claimed = new_parts.iter().filter(|p| !old_parts.contains(p)).copied();
                let dropped = old_parts.iter().filter(|p| !new_parts.contains(p));
                claimed.chain(dropped.flat_map(|p| self.composite_closure(&rt, *p))).collect()
            };
            for target in &targets {
                self.lock_write(tx, *target)?;
            }
        }

        let catalog = self.catalog.read();
        let rt = self.rt_read();
        let before = self.load_record(&rt, &catalog, oid)?;
        // Version discipline: working versions are immutable; generic
        // objects are not directly writable.
        if before.get(sysattr::ATTR_DEFAULT_VERSION).is_some() {
            return Err(DbError::Version(
                "cannot update a generic object; derive and update a version".into(),
            ));
        }
        if let Some(Value::Str(status)) = before.get(sysattr::ATTR_VERSION_STATUS) {
            if status == "working" {
                return Err(DbError::Version(format!(
                    "version {oid} is a working version and is immutable"
                )));
            }
        }
        let mut dropped = Vec::new();
        if attr.composite {
            self.check_claims(&rt, oid, attr.id, &new_parts)?;
            dropped = before.get(attr.id).map(refs).unwrap_or_default();
            dropped.retain(|p| !new_parts.contains(p));
        }
        let mut after = (*before).clone();
        after.set(attr.id, value);
        after.schema_version = resolved.version;
        self.write_object(&rt, tx, &catalog, Some(before), Some(Arc::new(after)), None)?;
        // An unlinked part does not survive (its closure is locked).
        for part in dropped {
            for target in self.composite_closure(&rt, part).iter().rev() {
                self.delete_single(&rt, tx, &catalog, *target)?;
            }
        }
        self.notify.lock().publish(oid, NotificationKind::Updated, None);
        Ok(())
    }

    /// Delete an object. Composite (dependent) parts are deleted with it.
    pub fn delete_object(&self, tx: &Tx, oid: Oid) -> DbResult<()> {
        self.check_auth(tx, AuthAction::Delete, AuthTarget::Object(oid))?;
        let order = self.composite_closure(&self.rt_read(), oid);
        // Lock everything up front (no catalog guard or gate held while
        // the lock manager may block), then delete children before
        // parents.
        for target in order.iter().rev() {
            self.lock_write(tx, *target)?;
        }
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        for target in order.iter().rev() {
            self.delete_single(&rt, tx, &catalog, *target)?;
        }
        Ok(())
    }

    /// Delete one object (no closure walk — the caller already ordered
    /// and X-locked the closure).
    fn delete_single(
        &self,
        rt: &Runtime,
        tx: &Tx,
        catalog: &Catalog,
        oid: Oid,
    ) -> DbResult<()> {
        let before = self.load_record(rt, catalog, oid)?;
        self.write_object(rt, tx, catalog, Some(before), None, None)?;
        self.notify.lock().publish(oid, NotificationKind::Deleted, None);
        Ok(())
    }

    /// Does the object exist?
    pub fn exists(&self, oid: Oid) -> bool {
        let rt = self.rt_read();
        rt.directory.contains(oid) || rt.foreign_store.read().contains_key(&oid)
    }

    /// Number of instances of exactly `class_name` (not subclasses).
    pub fn extent_len(&self, class_name: &str) -> DbResult<usize> {
        let class = self.catalog.read().class_id(class_name)?;
        Ok(self.rt_read().extents.len_of(class))
    }

    // ------------------------------------------------------------------
    // Navigation (swizzled traversal, experiment E3)
    // ------------------------------------------------------------------

    /// Navigate a chain of reference attributes from `oid`, returning
    /// the object at the end. Uses the object cache's swizzle slots: a
    /// warm traversal is pure pointer chasing, no hash lookups (§3.3's
    /// "a few memory lookups").
    pub fn navigate(&self, tx: &Tx, oid: Oid, path: &[&str]) -> DbResult<Oid> {
        self.lock_read(tx, oid)?;
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        if rt.cache.get(oid).is_none() {
            let record = self.load_record(&rt, &catalog, oid)?;
            rt.cache.admit((*record).clone());
        }
        // Per-(step, class) attribute-id memo: traversals revisit the
        // same classes, and resolving names per hop would mask the
        // swizzle fast path the experiment measures.
        let mut attr_memo: HashMap<(usize, ClassId), u32> = HashMap::new();
        let mut cur_oid = oid;
        for (step_idx, step) in path.iter().enumerate() {
            let attr_id = match attr_memo.get(&(step_idx, cur_oid.class())) {
                Some(id) => *id,
                None => {
                    let resolved = catalog.resolve(cur_oid.class())?;
                    let attr = resolved.attr(step).ok_or_else(|| DbError::UnknownAttribute {
                        class: resolved.name.clone(),
                        attribute: (*step).to_owned(),
                    })?;
                    attr_memo.insert((step_idx, cur_oid.class()), attr.id);
                    attr.id
                }
            };
            let mut respawns = 0;
            cur_oid = loop {
                match rt.cache.hop(cur_oid, attr_id) {
                    Hop::To(next, _) => break next,
                    Hop::Miss(miss_oid) => {
                        // Fault the target in, then record the swizzle.
                        let record = self.load_record(&rt, &catalog, miss_oid)?;
                        rt.cache.admit((*record).clone());
                        rt.cache.note(cur_oid, attr_id, miss_oid);
                        break miss_oid;
                    }
                    Hop::NotRef => {
                        return Err(DbError::Query(format!(
                            "attribute `{step}` of {cur_oid} is not a scalar reference"
                        )))
                    }
                    Hop::Absent => {
                        // A concurrent admit evicted the hop source;
                        // re-fault it and retry. Bounded: sustained
                        // re-eviction means the cache is thrashing far
                        // below the working set.
                        respawns += 1;
                        if respawns > 16 {
                            return Err(DbError::Internal(
                                "navigation source evicted repeatedly; cache too small".into(),
                            ));
                        }
                        let record = self.load_record(&rt, &catalog, cur_oid)?;
                        rt.cache.admit((*record).clone());
                    }
                }
            };
        }
        Ok(cur_oid)
    }

    // ------------------------------------------------------------------
    // Methods (late binding)
    // ------------------------------------------------------------------

    /// Define a method: signature in the catalog, body in the registry.
    pub fn define_method(
        &self,
        class_name: &str,
        selector: &str,
        arity: u8,
        body: crate::methods::MethodBody,
    ) -> DbResult<()> {
        {
            let mut catalog = self.catalog.write();
            let class = catalog.class_id(class_name)?;
            catalog.add_method(class, selector, arity)?;
            self.methods.write().register(class, selector, body);
        }
        self.persist_system_state()
    }

    /// Re-register a method body for a signature that already exists in
    /// the catalog — after a cold restart, signatures persist but native
    /// bodies must be re-supplied by the application.
    pub fn register_method_body(
        &self,
        class_name: &str,
        selector: &str,
        body: crate::methods::MethodBody,
    ) -> DbResult<()> {
        let catalog = self.catalog.read();
        let class = catalog.class_id(class_name)?;
        if catalog.class(class)?.local_method(selector).is_none() {
            return Err(DbError::UnknownMethod {
                class: class_name.to_owned(),
                selector: selector.to_owned(),
            });
        }
        self.methods.write().register(class, selector, body);
        Ok(())
    }

    /// Send a message: late-bind `selector` against the receiver's class
    /// and invoke the winning implementation (§3.1 concept 6).
    pub fn call(&self, tx: &Tx, receiver: Oid, selector: &str, args: &[Value]) -> DbResult<Value> {
        let (defining, arity) = {
            let catalog = self.catalog.read();
            let defining = catalog.resolve_method(receiver.class(), selector)?;
            let resolved = catalog.resolve(receiver.class())?;
            let arity = resolved.method(selector).map(|m| m.arity).unwrap_or(0);
            (defining, arity)
        };
        if args.len() != arity as usize {
            return Err(DbError::Query(format!(
                "method `{selector}` expects {arity} argument(s), got {}",
                args.len()
            )));
        }
        let body = self.methods.read().body(defining, selector).ok_or_else(|| {
            DbError::Internal(format!(
                "method `{selector}` resolved to class {defining} but has no registered body"
            ))
        })?;
        self.metrics.method_calls.inc();
        body(self, tx, receiver, args)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::open_in_memory()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rt = self.rt.read();
        let indexes = rt.indexes.read().len();
        f.debug_struct("Database")
            .field("classes", &self.catalog.read().class_count())
            .field("objects", &rt.directory.len())
            .field("indexes", &indexes)
            .finish()
    }
}
