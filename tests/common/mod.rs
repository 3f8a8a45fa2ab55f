//! The shared harness of the crash, chaos, conformance and transfer
//! suites: the media a database runs on, the `Item` and `Account`
//! fixtures, a committed-state model of the `Item` workload, one seeded
//! transaction step that drives it embedded or over the wire, and the
//! retry-on-victim transfer. Each test binary uses a subset.
#![allow(dead_code, unused_macros)]

use orion_oodb::net::Client;
use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbError, DbResult, Domain, FaultPlan, IndexKind,
    LockingStrategy, Oid, PrimitiveType, QueryResult, StorageSpec, Tx, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir, removed on
/// drop. Uniqueness comes from the process id plus a per-process
/// counter, so concurrently running test binaries never collide.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("orion-{tag}-{}-{n}", std::process::id()));
        // A stale directory from a killed earlier run would replay its
        // old state into the new database; start from nothing.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a database keeps its pages and log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Medium {
    /// The page device in memory.
    Memory,
    /// The page device over real files with real fsync.
    Files,
    /// In memory behind a 16-page buffer pool, so the data outgrows the
    /// pool and every restart replays onto pages the pool evicted.
    SmallPool,
}

/// A database and, over files, the directory it lives in (removed
/// after the database is dropped).
pub struct Db {
    db: Arc<Database>,
    dir: Option<TempDir>,
}

impl Deref for Db {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.db
    }
}

impl Db {
    /// A second handle, for a server or another thread.
    pub fn arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// Close the database as an exiting process would, then open its
    /// directory again: a cold restart that replays the log.
    pub fn reopen(self) -> Db {
        let Db { db, dir } = self;
        drop(db);
        let dir = dir.expect("only a database over files reopens");
        Db { db: Arc::new(Database::open(dir.path()).unwrap()), dir: Some(dir) }
    }
}

impl Medium {
    /// An empty database on this medium.
    pub fn open(self) -> Db {
        self.open_with(DbConfig::default())
    }

    /// An empty database on this medium, otherwise configured by `config`.
    pub fn open_with(self, mut config: DbConfig) -> Db {
        let dir = match self {
            Medium::Memory => None,
            Medium::Files => Some(TempDir::new("medium")),
            Medium::SmallPool => {
                config.buffer_pages = 16;
                None
            }
        };
        if let Some(dir) = &dir {
            config.storage = StorageSpec::File(dir.path().to_path_buf());
        }
        Db { db: Arc::new(Database::try_with_config(config).unwrap()), dir }
    }

    /// [`Medium::item_db_with`] under the default configuration.
    pub fn item_db(self) -> Db {
        self.item_db_with(DbConfig::default())
    }

    /// A database holding the `Item(key, val)` class with its `bykey`
    /// class-hierarchy index. On the small pool, 2 000 ballast objects
    /// of 100 bytes follow, so the data is several times the pool.
    pub fn item_db_with(self, config: DbConfig) -> Db {
        let db = self.open_with(config);
        let int = || Domain::Primitive(PrimitiveType::Int);
        let attrs = vec![AttrSpec::new("key", int()), AttrSpec::new("val", int())];
        db.create_class("Item", &[], attrs).unwrap();
        db.create_index("bykey", IndexKind::ClassHierarchy, "Item", &["key"]).unwrap();
        if self == Medium::SmallPool {
            let text = Domain::Primitive(PrimitiveType::Str);
            db.create_class("Ballast", &[], vec![AttrSpec::new("fill", text)]).unwrap();
            let tx = db.begin();
            for i in 0..2_000 {
                let fill = Value::Str(format!("{i:0>100}"));
                db.create_object(&tx, "Ballast", vec![("fill", fill)]).unwrap();
            }
            db.commit(tx).unwrap();
        }
        db
    }
}

/// The attributes of an `Item`.
pub fn item(key: i64, val: i64) -> Vec<(&'static str, Value)> {
    vec![("key", Value::Int(key)), ("val", Value::Int(val))]
}

/// Stamp a scenario, an expression called with a [`Medium`], onto each
/// `test_name: Medium` pair as a `#[test]`.
macro_rules! on_media {
    ($scenario:expr; $($test:ident: $medium:ident),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                ($scenario)($crate::common::Medium::$medium)
            }
        )+
    };
}

/// Crash and recover, clearing the fault plan if an armed fault makes
/// the first recovery attempt fail. Recovery failure must be clean and
/// retryable; a retry with faults cleared must always succeed.
pub fn recover(db: &Database) {
    for _ in 0..8 {
        match db.crash_and_recover() {
            Ok(()) => return,
            Err(e) => {
                assert!(
                    !matches!(e, DbError::Internal(_)),
                    "recovery failed with an internal error (not a clean fault): {e}"
                );
                db.clear_faults();
            }
        }
    }
    panic!("recovery did not succeed even after clearing the fault plan");
}

/// `key`'s committed value through the query path, or `None` if no
/// `Item` has that key.
pub fn probe(db: &Database, key: i64) -> Option<i64> {
    let tx = db.begin();
    let r = db.query(&tx, &format!("select i.val from Item i where i.key = {key}")).unwrap();
    let out = r.rows.first().map(|row| row[0].as_int().unwrap());
    db.commit(tx).unwrap();
    out
}

/// The number of objects in `extent` (a class, or `Class*` for its
/// hierarchy), read in a transaction of its own.
pub fn count(db: &Database, extent: &str) -> i64 {
    let tx = db.begin();
    let r = db.query(&tx, &format!("select count(*) from {extent} x")).unwrap();
    db.commit(tx).unwrap();
    r.rows[0][0].as_int().unwrap()
}

/// One client's transaction verbs, embedded or over the wire, so the
/// workload step, the model check and the transfer drive either.
pub trait Session {
    fn begin(&mut self);
    fn commit(&mut self) -> DbResult<()>;
    fn rollback(&mut self) -> DbResult<()>;
    fn create(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> DbResult<Oid>;
    fn get(&mut self, oid: Oid, attr: &str) -> DbResult<Value>;
    fn set(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()>;
    fn query(&mut self, text: &str) -> DbResult<QueryResult>;
    /// Called after an operation failed: the session itself must still
    /// answer.
    fn still_answers(&mut self) {}
}

/// A session on an embedded database, holding its open transaction.
pub struct Embedded<'a> {
    db: &'a Database,
    tx: Option<Tx>,
}

impl<'a> Embedded<'a> {
    pub fn new(db: &'a Database) -> Self {
        Embedded { db, tx: None }
    }

    fn tx(&self) -> &Tx {
        self.tx.as_ref().expect("no open transaction")
    }
}

impl Session for Embedded<'_> {
    fn begin(&mut self) {
        self.tx = Some(self.db.begin());
    }
    fn commit(&mut self) -> DbResult<()> {
        self.db.commit(self.tx.take().expect("no open transaction"))
    }
    fn rollback(&mut self) -> DbResult<()> {
        self.db.rollback(self.tx.take().expect("no open transaction"))
    }
    fn create(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> DbResult<Oid> {
        self.db.create_object(self.tx(), class, attrs)
    }
    fn get(&mut self, oid: Oid, attr: &str) -> DbResult<Value> {
        self.db.get(self.tx(), oid, attr)
    }
    fn set(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        self.db.set(self.tx(), oid, attr, value)
    }
    fn query(&mut self, text: &str) -> DbResult<QueryResult> {
        self.db.query(self.tx(), text)
    }
}

impl Session for Client {
    fn begin(&mut self) {
        Client::begin(self).unwrap();
    }
    fn commit(&mut self) -> DbResult<()> {
        Client::commit(self)
    }
    fn rollback(&mut self) -> DbResult<()> {
        Client::rollback(self)
    }
    fn create(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> DbResult<Oid> {
        self.create_object(class, attrs)
    }
    fn get(&mut self, oid: Oid, attr: &str) -> DbResult<Value> {
        Client::get(self, oid, attr)
    }
    fn set(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        Client::set(self, oid, attr, value)
    }
    fn query(&mut self, text: &str) -> DbResult<QueryResult> {
        Client::query(self, text)
    }
    fn still_answers(&mut self) {
        // The fault crossed the wire as a decoded error; the connection
        // itself must still be healthy.
        self.ping().unwrap();
    }
}

/// Committed state of the `Item` workload, key → value, plus the writes
/// of the transaction in flight.
#[derive(Default)]
struct Model {
    vals: HashMap<i64, i64>,
    oids: HashMap<i64, Oid>,
    staged: Vec<(i64, i64, Option<Oid>)>,
}

impl Model {
    /// The in-flight transaction's writes became durable.
    fn apply(&mut self) {
        for (key, val, new_oid) in self.staged.drain(..) {
            self.vals.insert(key, val);
            if let Some(oid) = new_oid {
                self.oids.insert(key, oid);
            }
        }
    }

    /// The in-flight transaction's writes are gone, creations included.
    fn forget(&mut self) {
        self.staged.clear();
    }

    /// The database holds exactly the committed state: one `Item` per
    /// key, with its value, and nothing else.
    fn verify(&self, s: &mut impl Session, round: i64) {
        s.begin();
        let live = s.query("select count(*) from Item i").unwrap().rows[0][0].as_int().unwrap();
        assert_eq!(live as usize, self.vals.len(), "round {round}: live object count");
        for (&key, &val) in &self.vals {
            let r = s.query(&format!("select i.val from Item i where i.key = {key}")).unwrap();
            assert_eq!(r.rows.len(), 1, "round {round}: key {key} present exactly once");
            assert_eq!(r.rows[0][0], Value::Int(val), "round {round}: key {key} value");
        }
        s.commit().unwrap();
    }
}

/// The shape of a seeded run of the `Item` workload.
pub struct Workload {
    /// Keys are drawn from `0..keys`.
    pub keys: i64,
    /// A transaction draws `1..max_ops` writes (a repeated key is skipped).
    pub max_ops: u64,
    /// The share of transactions that try to commit; the rest roll back.
    pub commit_share: f64,
    /// The share of rounds that checkpoint before their crash.
    pub checkpoint_share: f64,
    /// The fault plan each round arms, drawn from the run's generator.
    /// Without one, every operation and every recovery must succeed.
    pub faults: Option<fn(&mut StdRng) -> FaultPlan>,
}

/// `rounds` rounds of `txns` seeded transactions through `s`. Each round
/// arms the workload's fault plan, ends in a crash and recovery of `db`
/// (sometimes after a checkpoint), and checks the database against the
/// model through `s`.
pub fn run(db: &Database, s: &mut impl Session, w: &Workload, seed: u64, rounds: i64, txns: i64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::default();
    for round in 0..rounds {
        if let Some(plan) = w.faults {
            db.install_faults(plan(&mut rng));
        }
        for t in 0..txns {
            step(db, s, w, &mut rng, &mut model, round, t);
        }
        db.clear_faults();
        if rng.gen_bool(w.checkpoint_share) {
            db.checkpoint().unwrap();
        }
        if w.faults.is_some() {
            recover(db);
        } else {
            db.crash_and_recover().unwrap();
        }
        model.verify(s, round);
    }
}

/// One seeded transaction: up to `max_ops` creates or updates of random
/// keys, then a commit or a rollback. Under faults an operation error
/// abandons the transaction, a failed rollback is finished by recovery,
/// and a failed commit is in doubt: the flush failed, so the commit
/// record may or may not be stable. Recovery decides, and the model
/// follows the branch the log chose.
fn step(
    db: &Database,
    s: &mut impl Session,
    w: &Workload,
    rng: &mut StdRng,
    model: &mut Model,
    round: i64,
    t: i64,
) {
    let expect_fault = |e: DbError| assert!(w.faults.is_some(), "fault-free run failed: {e}");
    s.begin();
    let failed = (0..rng.gen_range(1..w.max_ops)).any(|_| {
        let key = rng.gen_range(0..w.keys);
        // One op per key per transaction: a second create of the same
        // key would make an object the model can't see.
        if model.staged.iter().any(|&(k, _, _)| k == key) {
            return false;
        }
        // Unique per (round, t), so an in-doubt commit can be resolved.
        let val = round * 10_000 + t * 100 + key;
        let op = match model.oids.get(&key) {
            Some(&oid) => s.set(oid, "val", Value::Int(val)).map(|()| None),
            None => s.create("Item", item(key, val)).map(Some),
        };
        match op {
            Ok(new_oid) => model.staged.push((key, val, new_oid)),
            Err(e) => {
                expect_fault(e);
                s.still_answers();
                return true;
            }
        }
        false
    });
    if failed || !rng.gen_bool(w.commit_share) {
        if let Err(e) = s.rollback() {
            expect_fault(e);
            recover(db);
        }
        model.forget();
        return;
    }
    match s.commit() {
        Ok(()) => model.apply(),
        Err(e) => {
            expect_fault(e);
            // Disarm the plan first so the probe itself can't fault (it
            // is re-armed at the top of the next round).
            db.clear_faults();
            recover(db);
            // Its first write's value is written by no other transaction.
            match model.staged.first() {
                Some(&(key, val, _)) if probe(db, key) == Some(val) => model.apply(),
                _ => model.forget(),
            }
            model.verify(s, round);
        }
    }
}

pub const INITIAL_BALANCE: i64 = 1_000;

/// `n` accounts of [`INITIAL_BALANCE`] each in an in-memory database
/// under `locking`, with a 30 s lock timeout.
pub fn accounts(n: usize, locking: LockingStrategy) -> (Arc<Database>, Vec<Oid>) {
    let config = DbConfig { locking, lock_timeout: Duration::from_secs(30), ..DbConfig::default() };
    let db = Arc::new(Database::with_config(config));
    let balance = AttrSpec::new("balance", Domain::Primitive(PrimitiveType::Int));
    db.create_class("Account", &[], vec![balance]).unwrap();
    let tx = db.begin();
    let accounts = (0..n)
        .map(|_| {
            let attrs = vec![("balance", Value::Int(INITIAL_BALANCE))];
            db.create_object(&tx, "Account", attrs).unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    (db, accounts)
}

/// The sum of `accounts`' balances, read in one transaction.
pub fn total_balance(db: &Database, accounts: &[Oid]) -> i64 {
    let tx = db.begin();
    let total = accounts.iter().map(|a| db.get(&tx, *a, "balance").unwrap().as_int().unwrap()).sum();
    db.commit(tx).unwrap();
    total
}

/// A deterministic per-thread generator step (a 64-bit LCG).
fn next_seed(seed: &mut usize) -> usize {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed
}

/// Run `body` in a new transaction of `s` until it is not chosen as a
/// deadlock or lock-timeout victim: a victim rolls back, backs off 1 ms
/// and retries; any other error fails the test. The transaction is left
/// open for the caller to end. Returns the retries.
pub fn until_granted<S: Session>(s: &mut S, mut body: impl FnMut(&mut S) -> DbResult<()>) -> u64 {
    let mut retries = 0;
    loop {
        s.begin();
        match body(s) {
            Ok(()) => return retries,
            Err(DbError::Deadlock { .. }) | Err(DbError::LockTimeout { .. }) => {
                s.rollback().unwrap();
                retries += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}

/// Move `amount` from `from` to `to` in one read-then-write transaction,
/// retried until granted and committed. Returns the retries.
fn transfer(s: &mut impl Session, from: Oid, to: Oid, amount: i64) -> u64 {
    let retries = until_granted(s, |s| {
        let b_from = s.get(from, "balance")?.as_int().unwrap();
        let b_to = s.get(to, "balance")?.as_int().unwrap();
        s.set(from, "balance", Value::Int(b_from - amount))?;
        s.set(to, "balance", Value::Int(b_to + amount))
    });
    s.commit().unwrap();
    retries
}

/// `n` transfers of `amount` between accounts of `pool` drawn from the
/// generator at `seed`, each retried until granted. Returns the retries.
pub fn transfers(s: &mut impl Session, pool: &[Oid], seed: usize, n: usize, amount: i64) -> u64 {
    let (mut seed, mut retries) = (seed, 0);
    for _ in 0..n {
        let from = pool[next_seed(&mut seed) % pool.len()];
        let to = pool[(next_seed(&mut seed) / 7) % pool.len()];
        if from != to {
            retries += transfer(s, from, to, amount);
        }
    }
    retries
}
