//! Backend-conformance suite: every [`StorageBackend`] implementation
//! must honor the same contract — page checksums, fault semantics, the
//! append-only log device — and the full database must behave
//! identically over each. The raw trait checks run against `SimDisk`
//! and `FileDisk` through the same code path; the database-level checks
//! cover crash-mid-group-commit and (for `FileDisk`) a genuine cold
//! restart: drop the handle, reopen the directory, and replay to the
//! same model-checked state.

mod common;

use common::TempDir;
use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbError, Domain, FaultKind, FaultPlan, PrimitiveType,
    StorageSpec, Value,
};
use orion_storage::{FaultInjector, FileDisk, PageId, SimDisk, StorageBackend, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Run `check` once per backend implementation. The `TempDir` guard
/// keeps the `FileDisk` directory alive for the duration of the check.
fn for_each_backend(tag: &str, check: impl Fn(Arc<dyn StorageBackend>, &str)) {
    check(Arc::new(SimDisk::new()), "SimDisk");
    let dir = TempDir::new(tag);
    check(Arc::new(FileDisk::open(dir.path()).unwrap()), "FileDisk");
}

#[test]
fn page_roundtrip_and_accounting() {
    for_each_backend("conf-roundtrip", |disk, name| {
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_eq!((a, b), (PageId(0), PageId(1)), "{name}: sequential page ids");
        assert_eq!(disk.page_count(), 2, "{name}");

        let mut buf = [0u8; PAGE_SIZE];
        buf[7] = 0x5A;
        disk.write(b, &buf).unwrap();
        disk.sync().unwrap();

        let mut out = [0xFFu8; PAGE_SIZE];
        disk.read(b, &mut out).unwrap();
        assert_eq!(out[7], 0x5A, "{name}: written byte survives");
        disk.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "{name}: fresh pages read zeroed");
        assert!(disk.verify(a).unwrap() && disk.verify(b).unwrap(), "{name}");

        let stats = disk.stats();
        assert_eq!((stats.reads, stats.writes, stats.allocations), (2, 1, 2), "{name}");

        // Out-of-bounds access is an error, not UB or silent growth.
        assert!(disk.read(PageId(9), &mut out).is_err(), "{name}");
        assert!(disk.write(PageId(9), &buf).is_err(), "{name}");
    });
}

#[test]
fn log_device_contract() {
    for_each_backend("conf-log", |disk, name| {
        assert_eq!(disk.log_len().unwrap(), 0, "{name}: log starts empty");
        disk.log_append(b"abc").unwrap();
        disk.log_append(b"defgh").unwrap();
        disk.log_sync().unwrap();
        assert_eq!(disk.log_len().unwrap(), 8, "{name}");
        assert_eq!(disk.log_read().unwrap(), b"abcdefgh", "{name}");

        // Torn-tail repair shape: truncate, then append over the gap.
        disk.log_truncate(3).unwrap();
        assert_eq!(disk.log_len().unwrap(), 3, "{name}");
        disk.log_append(b"XY").unwrap();
        disk.log_sync().unwrap();
        assert_eq!(disk.log_read().unwrap(), b"abcXY", "{name}");
    });
}

#[test]
fn injected_fault_semantics_match() {
    for_each_backend("conf-faults", |disk, name| {
        let p = disk.allocate().unwrap();
        disk.write(p, &[3u8; PAGE_SIZE]).unwrap();
        let mut buf = [0u8; PAGE_SIZE];

        // A read I/O error is Storage, not Corruption, and transient.
        let inj = FaultInjector::new(FaultPlan::new(1).fail_nth(FaultKind::ReadError, 1));
        disk.set_fault_injector(Some(Arc::new(inj)));
        assert!(
            matches!(disk.read(p, &mut buf), Err(DbError::Storage(_))),
            "{name}: injected read error"
        );
        disk.read(p, &mut buf).unwrap();

        // A write I/O error leaves the stored page intact.
        let inj = FaultInjector::new(FaultPlan::new(2).fail_nth(FaultKind::WriteError, 1));
        disk.set_fault_injector(Some(Arc::new(inj)));
        assert!(
            matches!(disk.write(p, &[4u8; PAGE_SIZE]), Err(DbError::Storage(_))),
            "{name}: injected write error"
        );
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3), "{name}: failed write changed nothing");

        // A torn write persists a prefix and trips the checksum; a
        // completed rewrite heals the page.
        let inj = FaultInjector::new(FaultPlan::new(3).fail_nth(FaultKind::TornWrite, 1));
        disk.set_fault_injector(Some(Arc::new(inj)));
        assert!(disk.write(p, &[5u8; PAGE_SIZE]).is_err(), "{name}");
        disk.set_fault_injector(None);
        assert!(
            matches!(disk.read(p, &mut buf), Err(DbError::Corruption(_))),
            "{name}: torn page reads as corruption"
        );
        assert!(!disk.verify(p).unwrap(), "{name}: verify sees the damage");
        disk.write(p, &[6u8; PAGE_SIZE]).unwrap();
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 6), "{name}: rewrite heals");
    });
}

// ---------------------------------------------------------------------
// Database-level conformance
// ---------------------------------------------------------------------

fn item_db_on(storage: StorageSpec, window: Duration) -> Database {
    let config =
        DbConfig::builder().storage(storage).group_commit_window(window).build().unwrap();
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
    db
}

fn read_key(db: &Database, key: i64) -> Option<i64> {
    let tx = db.begin();
    let r = db.query(&tx, &format!("select i.val from Item i where i.key = {key}")).unwrap();
    let out = r.rows.first().map(|row| row[0].as_int().unwrap());
    db.commit(tx).unwrap();
    out
}

fn specs(tag: &str) -> Vec<(StorageSpec, Option<TempDir>, &'static str)> {
    let dir = TempDir::new(tag);
    vec![
        (StorageSpec::Memory, None, "SimDisk"),
        (StorageSpec::File(dir.path().to_path_buf()), Some(dir), "FileDisk"),
    ]
}

#[test]
fn committed_data_survives_crash_on_both_backends() {
    for (spec, _guard, name) in specs("conf-crash") {
        let db = item_db_on(spec, Duration::ZERO);
        let mut model: HashMap<i64, i64> = HashMap::new();
        for k in 0..12i64 {
            let tx = db.begin();
            db.create_object(&tx, "Item", vec![("key", Value::Int(k)), ("val", Value::Int(k * 7))])
                .unwrap();
            db.commit(tx).unwrap();
            model.insert(k, k * 7);
        }
        db.crash_and_recover().unwrap();
        for (&k, &v) in &model {
            assert_eq!(read_key(&db, k), Some(v), "{name}: key {k} after crash");
        }
    }
}

#[test]
fn group_commit_amortizes_fsyncs_under_concurrency() {
    for (spec, _guard, name) in specs("conf-group") {
        let db = Arc::new(item_db_on(spec, Duration::from_micros(500)));
        let before = db.stats().wal;
        let committers = 8;
        let rounds = 6;
        let barrier = Arc::new(Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|c| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for r in 0..rounds {
                        barrier.wait();
                        let key = (c * rounds + r) as i64;
                        let tx = db.begin();
                        db.create_object(
                            &tx,
                            "Item",
                            vec![("key", Value::Int(key)), ("val", Value::Int(key))],
                        )
                        .unwrap();
                        db.commit(tx).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let wal = db.stats().wal;
        let fsyncs = wal.fsyncs - before.fsyncs;
        let commits = (committers * rounds) as u64;
        assert!(
            fsyncs < commits,
            "{name}: {commits} concurrent commits should share fsyncs, got {fsyncs}"
        );
        assert!(
            wal.group_commit_batch_size.count > before.group_commit_batch_size.count,
            "{name}: at least one group flush was recorded"
        );
        let tx = db.begin();
        let n = db.query(&tx, "select count(*) from Item i").unwrap();
        assert_eq!(n.rows[0][0], Value::Int(commits as i64), "{name}: every commit landed");
        db.commit(tx).unwrap();
    }
}

#[test]
fn crash_mid_group_commit_recovers_consistently() {
    for (spec, _guard, name) in specs("conf-doubt") {
        let db = Arc::new(item_db_on(spec, Duration::from_micros(300)));
        // Seed one base row per committer so updates have a "before".
        let committers = 6usize;
        let mut oids = Vec::new();
        for c in 0..committers {
            let tx = db.begin();
            let oid = db
                .create_object(
                    &tx,
                    "Item",
                    vec![("key", Value::Int(c as i64)), ("val", Value::Int(-1))],
                )
                .unwrap();
            db.commit(tx).unwrap();
            oids.push(oid);
        }

        // One group-commit flush tears mid-write while all committers
        // are in flight: some see Ok, the leader of the torn batch sees
        // an in-doubt error. Recovery decides each transaction's fate.
        db.install_faults(FaultPlan::new(77).fail_nth(FaultKind::PartialFlush, 1));
        let barrier = Arc::new(Barrier::new(committers));
        let handles: Vec<_> = (0..committers)
            .map(|c| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                let oid = oids[c];
                std::thread::spawn(move || {
                    barrier.wait();
                    let tx = db.begin();
                    db.set(&tx, oid, "val", Value::Int(c as i64 * 100)).unwrap();
                    db.commit(tx).map_err(|e| format!("{e}"))
                })
            })
            .collect();
        let outcomes: Vec<Result<(), String>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        db.clear_faults();
        db.crash_and_recover().unwrap();

        // Model check: a reported-Ok commit MUST be durable; an errored
        // commit is in doubt — either fully applied or fully undone.
        for (c, outcome) in outcomes.iter().enumerate() {
            let val = read_key(&db, c as i64);
            match outcome {
                Ok(()) => assert_eq!(
                    val,
                    Some(c as i64 * 100),
                    "{name}: committer {c} reported Ok but its update is missing"
                ),
                Err(_) => assert!(
                    val == Some(c as i64 * 100) || val == Some(-1),
                    "{name}: committer {c} left a torn state: {val:?}"
                ),
            }
        }
        let tx = db.begin();
        let n = db.query(&tx, "select count(*) from Item i").unwrap();
        assert_eq!(n.rows[0][0], Value::Int(committers as i64), "{name}: no rows lost or forged");
        db.commit(tx).unwrap();
    }
}

/// The acceptance scenario: a real-file database is closed (the process
/// "exits"), reopened via [`Database::open`], and must replay its WAL to
/// exactly the model-checked state — twice, with writes in between.
#[test]
fn filedisk_cold_restart_replays_to_model_state() {
    let dir = TempDir::new("conf-restart");
    let mut model: HashMap<i64, i64> = HashMap::new();

    {
        let db = item_db_on(StorageSpec::File(dir.path().to_path_buf()), Duration::ZERO);
        let mut oids = HashMap::new();
        for k in 0..20i64 {
            let tx = db.begin();
            let oid = db
                .create_object(&tx, "Item", vec![("key", Value::Int(k)), ("val", Value::Int(k))])
                .unwrap();
            db.commit(tx).unwrap();
            oids.insert(k, oid);
            model.insert(k, k);
        }
        // Overwrite some, delete some, roll one back; checkpoint halfway
        // so replay is checkpoint-LSN-bounded.
        for k in 0..8i64 {
            let tx = db.begin();
            db.set(&tx, oids[&k], "val", Value::Int(k * 11)).unwrap();
            db.commit(tx).unwrap();
            model.insert(k, k * 11);
        }
        db.checkpoint().unwrap();
        for k in 16..20i64 {
            let tx = db.begin();
            db.delete_object(&tx, oids[&k]).unwrap();
            db.commit(tx).unwrap();
            model.remove(&k);
        }
        let tx = db.begin();
        db.set(&tx, oids[&0], "val", Value::Int(9999)).unwrap();
        db.rollback(tx).unwrap();
    } // drop: the process is gone; only pages.dat + wal.log remain

    let db = Database::open(dir.path()).unwrap();
    let tx = db.begin();
    let n = db.query(&tx, "select count(*) from Item i").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(model.len() as i64), "restart 1: live count");
    db.commit(tx).unwrap();
    for (&k, &v) in &model {
        assert_eq!(read_key(&db, k), Some(v), "restart 1: key {k}");
    }

    // Keep writing on the reopened database, restart again.
    let tx = db.begin();
    let oid = db
        .create_object(&tx, "Item", vec![("key", Value::Int(100)), ("val", Value::Int(1))])
        .unwrap();
    db.commit(tx).unwrap();
    let tx = db.begin();
    db.set(&tx, oid, "val", Value::Int(2)).unwrap();
    db.commit(tx).unwrap();
    model.insert(100, 2);
    drop(db);

    let db = Database::open(dir.path()).unwrap();
    for (&k, &v) in &model {
        assert_eq!(read_key(&db, k), Some(v), "restart 2: key {k}");
    }
    let tx = db.begin();
    let n = db.query(&tx, "select count(*) from Item i").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(model.len() as i64), "restart 2: live count");
    db.commit(tx).unwrap();
}
