//! Chaos harness: seeded randomized workloads under injected storage
//! faults and crashes, embedded and over orion-net.
//!
//! Every round arms a fresh seeded [`FaultPlan`], runs a batch of
//! transactions against a `HashMap` model of committed state, then
//! crashes and recovers. The invariant under test is the issue's
//! robustness contract: every injected fault surfaces as a clean
//! `DbError` (never a panic, never a wedged lock), and after recovery
//! the database contents equal the model exactly.
//!
//! Commit is the one genuinely ambiguous operation: a flush error on
//! the commit record means the outcome is unknown until recovery
//! resolves it. The harness models that honestly — on a commit error it
//! crashes, recovers, and probes one staged key to learn which branch
//! the log chose, then holds the database to that branch for the rest
//! of the run.
//!
//! Smoke tests pin three fixed seeds (bounded rounds, run in CI); the
//! `#[ignore]`d hammer sweeps many seeds with deeper rounds:
//!
//! ```text
//! cargo test --release --test chaos -- --ignored
//! ```

mod common;

use common::TempDir;
use orion_oodb::net::{Client, Server, ServerConfig};
use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbError, Domain, FaultKind, FaultPlan, IndexKind, Oid,
    PrimitiveType, StorageSpec, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

fn item_db() -> Database {
    item_db_on(StorageSpec::Memory)
}

fn item_db_on(storage: StorageSpec) -> Database {
    item_db_with(DbConfig::builder().storage(storage).build().unwrap())
}

/// The item database behind a 16-page buffer pool, with ~2 000 ballast
/// objects loaded first so the data is several times the pool: every
/// restart replays onto pages the pool evicted.
fn small_pool_item_db() -> Database {
    let db = item_db_with(DbConfig::builder().buffer_pages(16).build().unwrap());
    let text = Domain::Primitive(PrimitiveType::Str);
    db.create_class("Ballast", &[], vec![AttrSpec::new("fill", text)]).unwrap();
    let tx = db.begin();
    for i in 0..2_000 {
        db.create_object(&tx, "Ballast", vec![("fill", Value::Str(format!("{i:0>100}")))]).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn item_db_with(config: DbConfig) -> Database {
    let db = Database::try_with_config(config).unwrap();
    db.create_class(
        "Item",
        &[],
        vec![
            AttrSpec::new("key", Domain::Primitive(PrimitiveType::Int)),
            AttrSpec::new("val", Domain::Primitive(PrimitiveType::Int)),
        ],
    )
    .unwrap();
    db.create_index("bykey", IndexKind::ClassHierarchy, "Item", &["key"]).unwrap();
    db
}

/// Crash and recover, clearing the fault plan if an armed fault makes
/// the first recovery attempt fail. Recovery failure must be clean and
/// retryable; a retry with faults cleared must always succeed.
fn recover(db: &Database) {
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

/// Value written by transaction `t` of round `round` to `key`; unique
/// per (round, t) so an in-doubt commit can be resolved by probing.
fn val_for(round: i64, t: i64, key: i64) -> i64 {
    round * 10_000 + t * 100 + key
}

/// Read `key`'s current value through the query path, or None if the
/// key is absent.
fn probe(db: &Database, key: i64) -> Option<i64> {
    let tx = db.begin();
    let r = db.query(&tx, &format!("select i.val from Item i where i.key = {key}")).unwrap();
    let out = r.rows.first().map(|row| row[0].as_int().unwrap());
    db.commit(tx).unwrap();
    out
}

fn apply(
    model: &mut HashMap<i64, i64>,
    oids: &mut HashMap<i64, Oid>,
    staged: &[(i64, i64, Option<Oid>)],
) {
    for &(key, val, new_oid) in staged {
        model.insert(key, val);
        if let Some(oid) = new_oid {
            oids.insert(key, oid);
        }
    }
}

fn forget_creations(oids: &mut HashMap<i64, Oid>, staged: &[(i64, i64, Option<Oid>)]) {
    for &(key, _, new_oid) in staged {
        if new_oid.is_some() {
            oids.remove(&key);
        }
    }
}

fn verify(db: &Database, model: &HashMap<i64, i64>, round: i64) {
    let tx = db.begin();
    let count = db.query(&tx, "select count(*) from Item i").unwrap().rows[0][0].as_int().unwrap();
    assert_eq!(count as usize, model.len(), "round {round}: live object count");
    for (&key, &val) in model {
        let r =
            db.query(&tx, &format!("select i.val from Item i where i.key = {key}")).unwrap();
        assert_eq!(r.rows.len(), 1, "round {round}: key {key} present exactly once");
        assert_eq!(r.rows[0][0], Value::Int(val), "round {round}: key {key} value");
    }
    db.commit(tx).unwrap();
}

/// One full chaos run: `rounds` rounds of `txns` transactions each,
/// with a fresh seeded fault plan armed per round and a crash/recover
/// between rounds. Runs identically over any storage backend.
fn chaos_run(seed: u64, rounds: i64, txns: i64) {
    chaos_run_on(item_db(), seed, rounds, txns);
}

fn chaos_run_on(db: Database, seed: u64, rounds: i64, txns: i64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: HashMap<i64, i64> = HashMap::new();
    let mut oids: HashMap<i64, Oid> = HashMap::new();

    for round in 0..rounds {
        let plan = FaultPlan::new(rng.gen::<u64>())
            .probabilistic(FaultKind::PartialFlush, 0.08)
            .probabilistic(FaultKind::WriteError, 0.03)
            .probabilistic(FaultKind::ReadError, 0.02)
            .fail_nth(FaultKind::TornWrite, rng.gen_range(3..40u64))
            .fail_nth(FaultKind::BitFlip, rng.gen_range(3..60u64));
        db.install_faults(plan);

        for t in 0..txns {
            let tx = db.begin();
            let mut staged: Vec<(i64, i64, Option<Oid>)> = Vec::new();
            let mut failed = false;
            for _ in 0..rng.gen_range(1..4u64) {
                let key = rng.gen_range(0..30i64);
                // One op per key per transaction: a second create of the
                // same key would make an object the model can't see.
                if staged.iter().any(|&(k, _, _)| k == key) {
                    continue;
                }
                let val = val_for(round, t, key);
                let op = match oids.get(&key) {
                    Some(&oid) => db.set(&tx, oid, "val", Value::Int(val)).map(|()| None),
                    None => db
                        .create_object(
                            &tx,
                            "Item",
                            vec![("key", Value::Int(key)), ("val", Value::Int(val))],
                        )
                        .map(Some),
                };
                match op {
                    Ok(new_oid) => staged.push((key, val, new_oid)),
                    // An injected fault; the transaction is abandoned.
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed || !rng.gen_bool(0.7) {
                if db.rollback(tx).is_err() {
                    // Rollback itself hit a fault; recovery finishes the
                    // undo from the log.
                    recover(&db);
                }
                forget_creations(&mut oids, &staged);
                continue;
            }
            match db.commit(tx) {
                Ok(()) => apply(&mut model, &mut oids, &staged),
                Err(_) => {
                    // Commit in doubt: the flush failed, so the commit
                    // record may or may not be stable. Recovery decides;
                    // probe one staged key to learn which way. Disarm the
                    // plan first so the probe itself can't fault (it is
                    // re-armed at the top of the next round).
                    db.clear_faults();
                    recover(&db);
                    let (key, val, _) = staged[0];
                    if probe(&db, key) == Some(val) {
                        apply(&mut model, &mut oids, &staged);
                    } else {
                        forget_creations(&mut oids, &staged);
                    }
                    verify(&db, &model, round);
                }
            }
        }

        db.clear_faults();
        if rng.gen_bool(0.4) {
            db.checkpoint().unwrap();
        }
        recover(&db);
        verify(&db, &model, round);
    }

    let stats = db.stats();
    assert!(stats.fault.total() >= 1, "seed {seed}: the fault plan never fired");
    assert!(
        stats.recovery.completed >= rounds as u64,
        "seed {seed}: expected at least one completed recovery per round"
    );
}

#[test]
fn chaos_smoke_seed_11() {
    chaos_run(11, 4, 12);
}

#[test]
fn chaos_smoke_seed_23() {
    chaos_run(23, 4, 12);
}

#[test]
fn chaos_smoke_seed_47() {
    chaos_run(47, 4, 12);
}

// The same three smokes over the real-file backend: every injected
// fault, torn write, and crash/recover cycle must behave identically
// when pages and the WAL live in actual files with actual fsync.

#[test]
fn chaos_smoke_seed_11_filedisk() {
    let dir = TempDir::new("chaos-11");
    chaos_run_on(item_db_on(StorageSpec::File(dir.path().to_path_buf())), 11, 4, 12);
}

#[test]
fn chaos_smoke_seed_23_filedisk() {
    let dir = TempDir::new("chaos-23");
    chaos_run_on(item_db_on(StorageSpec::File(dir.path().to_path_buf())), 23, 4, 12);
}

#[test]
fn chaos_smoke_seed_47_filedisk() {
    let dir = TempDir::new("chaos-47");
    chaos_run_on(item_db_on(StorageSpec::File(dir.path().to_path_buf())), 47, 4, 12);
}

// The same three smokes with the data several times the buffer pool.

#[test]
fn chaos_smoke_seed_11_small_pool() {
    chaos_run_on(small_pool_item_db(), 11, 4, 12);
}

#[test]
fn chaos_smoke_seed_23_small_pool() {
    chaos_run_on(small_pool_item_db(), 23, 4, 12);
}

#[test]
fn chaos_smoke_seed_47_small_pool() {
    chaos_run_on(small_pool_item_db(), 47, 4, 12);
}

/// Long-running sweep across many seeds with deeper rounds. Excluded
/// from the default run; `scripts/ci.sh chaos` runs it in release mode.
#[test]
#[ignore = "chaos hammer: run with --release -- --ignored"]
fn chaos_hammer() {
    for seed in 0..24u64 {
        chaos_run(seed * 131 + 7, 8, 30);
    }
}

/// The same contract over the wire: injected faults surface to a
/// remote client as clean decoded `DbError`s on a live connection, the
/// server survives them, and post-recovery state matches the model.
#[test]
fn chaos_over_the_wire() {
    let db = Arc::new(item_db());
    let server = Server::bind(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut model: HashMap<i64, i64> = HashMap::new();
    let mut oids: HashMap<i64, Oid> = HashMap::new();

    for round in 0..3i64 {
        let plan = FaultPlan::new(rng.gen::<u64>())
            .probabilistic(FaultKind::PartialFlush, 0.10)
            .probabilistic(FaultKind::WriteError, 0.03);
        db.install_faults(plan);

        for t in 0..10i64 {
            client.begin().unwrap();
            let mut staged: Vec<(i64, i64, Option<Oid>)> = Vec::new();
            let mut failed = false;
            for _ in 0..rng.gen_range(1..3u64) {
                let key = rng.gen_range(0..20i64);
                if staged.iter().any(|&(k, _, _)| k == key) {
                    continue;
                }
                let val = val_for(round, t, key);
                let op = match oids.get(&key) {
                    Some(&oid) => client.set(oid, "val", Value::Int(val)).map(|()| None),
                    None => client
                        .create_object(
                            "Item",
                            vec![("key", Value::Int(key)), ("val", Value::Int(val))],
                        )
                        .map(Some),
                };
                match op {
                    Ok(new_oid) => staged.push((key, val, new_oid)),
                    Err(_) => {
                        // The fault crossed the wire as a decoded error;
                        // the connection itself must still be healthy.
                        client.ping().unwrap();
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                if client.rollback().is_err() {
                    recover(&db);
                }
                forget_creations(&mut oids, &staged);
                continue;
            }
            match client.commit() {
                Ok(()) => apply(&mut model, &mut oids, &staged),
                Err(_) => {
                    db.clear_faults();
                    recover(&db);
                    if staged.is_empty() {
                        continue;
                    }
                    let (key, val, _) = staged[0];
                    if probe(&db, key) == Some(val) {
                        apply(&mut model, &mut oids, &staged);
                    } else {
                        forget_creations(&mut oids, &staged);
                    }
                }
            }
        }

        db.clear_faults();
        recover(&db);

        // Verify through the wire: remote reads see exactly the model.
        let count =
            client.query("select count(*) from Item i").unwrap().rows[0][0].as_int().unwrap();
        assert_eq!(count as usize, model.len(), "round {round}: remote live object count");
        for (&key, &val) in &model {
            let r = client.query(&format!("select i.val from Item i where i.key = {key}")).unwrap();
            assert_eq!(r.rows.len(), 1, "round {round}: key {key} present exactly once");
            assert_eq!(r.rows[0][0], Value::Int(val), "round {round}: key {key} value");
        }
    }

    // The fault and recovery counters must surface in the remote scrape.
    let scrape = client.stats_prometheus().unwrap();
    for series in [
        "orion_fault_read_errors_total",
        "orion_fault_write_errors_total",
        "orion_fault_torn_writes_total",
        "orion_fault_bit_flips_total",
        "orion_fault_partial_flushes_total",
        "orion_recovery_completed_total",
        "orion_recovery_failed_total",
        "orion_recovery_pages_repaired_total",
        "orion_wal_torn_tail_truncations_total",
    ] {
        assert!(scrape.contains(series), "prometheus scrape is missing {series}");
    }
    assert!(db.stats().recovery.completed >= 3, "one completed recovery per round");

    server.shutdown();
}

/// Deterministic end-to-end check that fired faults are visible in both
/// `stats()` and the Prometheus rendering.
#[test]
fn fault_counters_surface_in_stats_and_prometheus() {
    let db = item_db();
    let tx = db.begin();
    let oid = db
        .create_object(&tx, "Item", vec![("key", Value::Int(1)), ("val", Value::Int(1))])
        .unwrap();
    db.commit(tx).unwrap();

    // Force the next page read to fail, then drop the cached frame so
    // the read actually reaches the (faulted) disk.
    db.install_faults(FaultPlan::new(9).fail_nth(FaultKind::ReadError, 1));
    db.crash_and_recover().unwrap_or_else(|_| {
        // The armed fault may fire during recovery itself; either way it
        // must have been counted. Clear and recover for the probe below.
        db.clear_faults();
        db.crash_and_recover().unwrap();
    });
    let tx = db.begin();
    let _ = db.get(&tx, oid, "val"); // may or may not hit the fault, per cache state
    db.commit(tx).unwrap();
    db.clear_faults();

    let stats = db.stats();
    assert!(stats.fault.read_errors >= 1, "the armed read fault never fired");
    let prom = stats.render_prometheus();
    assert!(prom.contains("orion_fault_read_errors_total"));
    assert!(prom.contains("orion_recovery_completed_total"));
}
