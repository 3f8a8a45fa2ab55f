//! Durability integration tests: randomized commit/abort/crash cycles
//! verified through the full query path, and checkpointed restarts.

mod common;

use common::TempDir;
use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbError, Domain, FaultKind, FaultPlan, IndexKind, PrimitiveType,
    StorageSpec, Tx, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

fn item_db() -> Database {
    item_db_on(StorageSpec::Memory)
}

fn item_db_on(storage: StorageSpec) -> Database {
    let config = DbConfig::builder().storage(storage).build().unwrap();
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

fn randomized_crash_recovery_matches_model_on(db: Database) {
    let mut rng = StdRng::seed_from_u64(42);
    // key → val model of committed state.
    let mut model: HashMap<i64, i64> = HashMap::new();
    let mut oids: HashMap<i64, orion_oodb::orion::Oid> = HashMap::new();

    for round in 0..6 {
        // A batch of transactions, some committed, some aborted.
        for t in 0..20 {
            let tx = db.begin();
            let commit = rng.gen_bool(0.7);
            let mut staged: Vec<(i64, i64, Option<orion_oodb::orion::Oid>)> = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let key = rng.gen_range(0..40i64);
                let val = round * 1000 + t * 10 + key;
                match oids.get(&key) {
                    Some(&oid) => {
                        db.set(&tx, oid, "val", Value::Int(val)).unwrap();
                        staged.push((key, val, None));
                    }
                    None => {
                        let oid = db
                            .create_object(
                                &tx,
                                "Item",
                                vec![("key", Value::Int(key)), ("val", Value::Int(val))],
                            )
                            .unwrap();
                        staged.push((key, val, Some(oid)));
                    }
                }
            }
            if commit {
                db.commit(tx).unwrap();
                for (key, val, new_oid) in staged {
                    model.insert(key, val);
                    if let Some(oid) = new_oid {
                        oids.insert(key, oid);
                    }
                }
            } else {
                db.rollback(tx).unwrap();
                // Creations vanish; drop them from the oid map.
                for (key, _, new_oid) in staged {
                    if new_oid.is_some() {
                        oids.remove(&key);
                    }
                }
            }
        }
        // Crash between rounds (sometimes after a checkpoint).
        if rng.gen_bool(0.5) {
            db.checkpoint().unwrap();
        }
        db.crash_and_recover().unwrap();

        // Verify the full state through queries (exercising the rebuilt
        // index and directory).
        let tx = db.begin();
        let count =
            db.query(&tx, "select count(*) from Item i").unwrap().rows[0][0].as_int().unwrap();
        assert_eq!(count as usize, model.len(), "round {round}: live object count");
        for (&key, &val) in &model {
            let r = db
                .query(&tx, &format!("select i.val from Item i where i.key = {key}"))
                .unwrap();
            assert_eq!(r.rows.len(), 1, "round {round}: key {key} present exactly once");
            assert_eq!(r.rows[0][0], Value::Int(val), "round {round}: key {key} value");
        }
        db.commit(tx).unwrap();
    }
}

fn oid_allocation_survives_restart_without_collisions_on(db: Database) {
    let tx = db.begin();
    let before: Vec<_> = (0..10)
        .map(|i| {
            db.create_object(&tx, "Item", vec![("key", Value::Int(i)), ("val", Value::Int(i))])
                .unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    db.crash_and_recover().unwrap();
    let tx = db.begin();
    let after: Vec<_> = (10..20)
        .map(|i| {
            db.create_object(&tx, "Item", vec![("key", Value::Int(i)), ("val", Value::Int(i))])
                .unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    for new in &after {
        assert!(!before.contains(new), "recovered allocator must not reuse OIDs");
    }
    let tx = db.begin();
    let n = db.query(&tx, "select count(*) from Item i").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(20));
    db.commit(tx).unwrap();
}

fn crash_during_rollback_restores_original_state_on(db: Database) {
    let tx = db.begin();
    let oid = db
        .create_object(&tx, "Item", vec![("key", Value::Int(7)), ("val", Value::Int(70))])
        .unwrap();
    db.commit(tx).unwrap();

    // Dirty the object, then make the abort path's WAL flush tear: the
    // rollback reports a clean error mid-undo and we crash right there.
    let tx = db.begin();
    db.set(&tx, oid, "val", Value::Int(999)).unwrap();
    db.install_faults(FaultPlan::new(3).fail_nth(FaultKind::PartialFlush, 1));
    let err = db.rollback(tx).expect_err("rollback must surface the injected flush fault");
    assert!(format!("{err}").contains("partial WAL flush"), "unexpected error: {err}");
    db.clear_faults();
    db.crash_and_recover().unwrap();

    // Recovery finishes the undo from the log: the uncommitted update
    // is gone and the committed state is intact.
    let tx = db.begin();
    assert_eq!(db.get(&tx, oid, "val").unwrap(), Value::Int(70));
    let r = db.query(&tx, "select count(*) from Item i").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    db.commit(tx).unwrap();
}

fn crash_during_checkpoint_with_partially_flushed_tail_on(db: Database) {
    let tx = db.begin();
    let oid = db
        .create_object(&tx, "Item", vec![("key", Value::Int(1)), ("val", Value::Int(10))])
        .unwrap();
    db.commit(tx).unwrap();

    // The checkpoint's final flush promotes only part of its tail and
    // then fails: the stable log ends in a torn frame. Crashing here
    // must not cost the committed state — recovery truncates the torn
    // tail and replays the rest.
    db.install_faults(FaultPlan::new(5).fail_nth(FaultKind::PartialFlush, 1));
    let err = db.checkpoint().expect_err("checkpoint must surface the injected flush fault");
    assert!(format!("{err}").contains("partial WAL flush"), "unexpected error: {err}");
    db.clear_faults();
    db.crash_and_recover().unwrap();

    let tx = db.begin();
    assert_eq!(db.get(&tx, oid, "val").unwrap(), Value::Int(10));
    db.commit(tx).unwrap();

    // The torn checkpoint frame was detected and truncated, and later
    // checkpoints land on the spliced (still monotone) log cleanly.
    assert!(
        db.stats().wal.torn_tail_truncations >= 1,
        "the partially flushed checkpoint record should have been truncated as a torn tail"
    );
    db.checkpoint().unwrap();
    db.crash_and_recover().unwrap();
    let tx = db.begin();
    assert_eq!(db.get(&tx, oid, "val").unwrap(), Value::Int(10));
    db.commit(tx).unwrap();
}

fn repeated_crashes_are_harmless_on(db: Database) {
    let tx = db.begin();
    let oid =
        db.create_object(&tx, "Item", vec![("key", Value::Int(1)), ("val", Value::Int(0))]).unwrap();
    db.commit(tx).unwrap();
    for i in 0..5 {
        db.crash_and_recover().unwrap();
        let tx = db.begin();
        assert_eq!(db.get(&tx, oid, "val").unwrap(), Value::Int(i));
        db.set(&tx, oid, "val", Value::Int(i + 1)).unwrap();
        db.commit(tx).unwrap();
    }
}

// Every durability scenario above runs unchanged on both backends:
// the in-memory SimDisk and the real-file FileDisk.

#[test]
fn randomized_crash_recovery_matches_model() {
    randomized_crash_recovery_matches_model_on(item_db());
}

#[test]
fn oid_allocation_survives_restart_without_collisions() {
    oid_allocation_survives_restart_without_collisions_on(item_db());
}

#[test]
fn crash_during_rollback_restores_original_state() {
    crash_during_rollback_restores_original_state_on(item_db());
}

#[test]
fn crash_during_checkpoint_with_partially_flushed_tail() {
    crash_during_checkpoint_with_partially_flushed_tail_on(item_db());
}

#[test]
fn repeated_crashes_are_harmless() {
    repeated_crashes_are_harmless_on(item_db());
}

#[test]
fn randomized_crash_recovery_matches_model_filedisk() {
    let dir = TempDir::new("dur-rand");
    randomized_crash_recovery_matches_model_on(item_db_on(StorageSpec::File(
        dir.path().to_path_buf(),
    )));
}

#[test]
fn oid_allocation_survives_restart_without_collisions_filedisk() {
    let dir = TempDir::new("dur-oid");
    oid_allocation_survives_restart_without_collisions_on(item_db_on(StorageSpec::File(
        dir.path().to_path_buf(),
    )));
}

#[test]
fn crash_during_rollback_restores_original_state_filedisk() {
    let dir = TempDir::new("dur-rb");
    crash_during_rollback_restores_original_state_on(item_db_on(StorageSpec::File(
        dir.path().to_path_buf(),
    )));
}

#[test]
fn crash_during_checkpoint_with_partially_flushed_tail_filedisk() {
    let dir = TempDir::new("dur-ckpt");
    crash_during_checkpoint_with_partially_flushed_tail_on(item_db_on(StorageSpec::File(
        dir.path().to_path_buf(),
    )));
}

#[test]
fn repeated_crashes_are_harmless_filedisk() {
    let dir = TempDir::new("dur-rep");
    repeated_crashes_are_harmless_on(item_db_on(StorageSpec::File(
        dir.path().to_path_buf(),
    )));
}

/// A restart reinstates an in-doubt (prepared) transaction with every
/// object it wrote X-locked again — an update, a delete, a create, and
/// an update of a record longer than a page (an overflow chain) — so a
/// second writer times out on each until the coordinator decides, and
/// snapshot readers see the committed state. The abort decision then
/// puts every object back.
#[test]
fn in_doubt_objects_stay_locked_across_restart() {
    for cold in [false, true] {
        let config = DbConfig::builder().lock_timeout(Duration::from_millis(50)).build().unwrap();
        let db = Database::try_with_config(config).unwrap();
        let int = || Domain::Primitive(PrimitiveType::Int);
        let text = || Domain::Primitive(PrimitiveType::Str);
        let attrs = vec![AttrSpec::new("val", int()), AttrSpec::new("body", text())];
        db.create_class("Doc", &[], attrs).unwrap();
        let tx = db.begin();
        let doc = |val: i64, body: &str| {
            let attrs = vec![("val", Value::Int(val)), ("body", Value::str(body))];
            db.create_object(&tx, "Doc", attrs).unwrap()
        };
        let (updated, deleted, long) = (doc(1, ""), doc(2, ""), doc(3, &"x".repeat(6_000)));
        db.commit(tx).unwrap();

        let tx = db.begin();
        db.set(&tx, updated, "val", Value::Int(10)).unwrap();
        db.delete_object(&tx, deleted).unwrap();
        let created = db.create_object(&tx, "Doc", vec![("val", Value::Int(4))]).unwrap();
        db.set(&tx, long, "val", Value::Int(30)).unwrap();
        db.prepare(&tx).unwrap();
        let restart = if cold { "cold restart" } else { "crash" };
        if cold {
            db.simulate_cold_restart().unwrap();
        } else {
            db.crash_and_recover().unwrap();
        }
        assert_eq!(db.in_doubt(), vec![tx.id()], "{restart}");

        let written = [("update", updated), ("delete", deleted), ("create", created), ("chain", long)];
        for (what, oid) in written {
            let other = db.begin();
            let r = db.set(&other, oid, "val", Value::Int(99));
            assert!(matches!(r, Err(DbError::LockTimeout { .. })), "{restart}, {what}: {r:?}");
            db.rollback(other).unwrap();
        }
        let vals = |tx: &Tx| {
            let r = db.query(tx, "select d.val from Doc d order by d.val asc").unwrap();
            r.rows.into_iter().map(|row| row[0].clone()).collect::<Vec<_>>()
        };
        let committed: Vec<Value> = [1, 2, 3].map(Value::Int).to_vec();
        let reader = db.begin();
        assert_eq!(vals(&reader), committed, "{restart}: snapshot of the in-doubt writes");
        db.commit(reader).unwrap();

        assert!(db.abort_prepared(tx.id()).unwrap());
        let tx = db.begin();
        assert_eq!(vals(&tx), committed, "{restart}: aborted");
        assert!(db.exists(deleted) && !db.exists(created), "{restart}");
        db.set(&tx, long, "val", Value::Int(31)).unwrap();
        db.commit(tx).unwrap();
    }
}
