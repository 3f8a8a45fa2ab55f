//! Durability integration tests: randomized commit/abort/crash cycles
//! verified through the full query path, and checkpointed restarts.

mod common;

use common::TempDir;
use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbError, Domain, FaultKind, FaultPlan, IndexKind, Oid,
    PrimitiveType, StorageSpec, Tx, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

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

const FLEET: usize = 2_000;

fn grown_name(i: usize) -> String {
    format!("{i:0>200}")
}

/// A history that outgrows the default 256-page pool: 2 000 vehicles
/// and trucks loaded in one transaction, no checkpoint, then one
/// transaction grows `name` to 200 bytes on every third object (each
/// growth relocates the record) and sets `weight` on the rest. The pool
/// evicts pages in states later than the load left them, so restart
/// must redo onto each page only what it lacks.
fn load_then_grow(db: &Database) -> Vec<Oid> {
    let int = || Domain::Primitive(PrimitiveType::Int);
    let text = || Domain::Primitive(PrimitiveType::Str);
    let attrs = vec![AttrSpec::new("name", text()), AttrSpec::new("weight", int())];
    db.create_class("Vehicle", &[], attrs).unwrap();
    db.create_class("Truck", &["Vehicle"], vec![]).unwrap();
    let tx = db.begin();
    let oids: Vec<Oid> = (0..FLEET)
        .map(|i| {
            let class = if i % 2 == 0 { "Vehicle" } else { "Truck" };
            let name = Value::Str(format!("v{i}"));
            db.create_object(&tx, class, vec![("name", name), ("weight", Value::Int(i as i64))])
                .unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    let tx = db.begin();
    for (i, &oid) in oids.iter().enumerate() {
        match i % 3 {
            0 => db.set(&tx, oid, "name", Value::Str(grown_name(i))),
            _ => db.set(&tx, oid, "weight", Value::Int(-(i as i64))),
        }
        .unwrap();
    }
    db.commit(tx).unwrap();
    oids
}

/// Every object of [`load_then_grow`] reads back as that history left it.
fn assert_grown(db: &Database, oids: &[Oid], context: &str) {
    let tx = db.begin();
    for (i, &oid) in oids.iter().enumerate() {
        let (name, weight) = match i % 3 {
            0 => (grown_name(i), i as i64),
            _ => (format!("v{i}"), -(i as i64)),
        };
        let read = |attr| db.get(&tx, oid, attr).unwrap();
        assert_eq!(read("name"), Value::Str(name), "{context}: object {i}");
        assert_eq!(read("weight"), Value::Int(weight), "{context}: object {i}");
    }
    let n = db.query(&tx, "select count(*) from Vehicle* v").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(FLEET as i64), "{context}: live objects");
    db.commit(tx).unwrap();
}

fn larger_than_pool_load_then_grow_recovers_on(db: Database) {
    let oids = load_then_grow(&db);
    db.crash_and_recover().unwrap();
    assert_grown(&db, &oids, "first recovery");
    db.crash_and_recover().unwrap();
    assert_grown(&db, &oids, "second recovery");
}

/// Four restarts in a row over [`load_then_grow`], the first of which
/// tears a page it writes back: that recovery fails partway, with some
/// pages already on disk in their recovered state, one page torn, and
/// the rest not yet redone. The next restart rebuilds the torn page
/// from the whole log and redoes the others from their page LSNs.
fn recoveries_in_a_row_survive_a_fault_during_one_on(db: Database) {
    let oids = load_then_grow(&db);
    db.install_faults(FaultPlan::new(31).fail_nth(FaultKind::TornWrite, 2));
    let err = db.crash_and_recover().expect_err("the torn write fails this recovery");
    assert!(format!("{err}").contains("torn write"), "unexpected error: {err}");
    db.clear_faults();
    for attempt in 1..4 {
        db.crash_and_recover().unwrap();
        assert_grown(&db, &oids, &format!("recovery {attempt}"));
    }
    let recovery = db.stats().recovery;
    assert_eq!((recovery.completed, recovery.failed), (3, 1));
    assert!(recovery.pages_repaired >= 1, "the torn page was rebuilt from the log");
}

/// Indexes built after a bulk load, then creates committed one
/// transaction each, then two restarts in a row: a conjunction that a
/// class-hierarchy index and a nested index answer together gives the
/// same answer before the first restart and after each.
fn indexes_after_bulk_load_then_autocommit_creates_recover_twice_on(db: Database) {
    let text = || Domain::Primitive(PrimitiveType::Str);
    db.create_class("Maker", &[], vec![AttrSpec::new("city", text())]).unwrap();
    let maker = db.with_catalog(|c| c.class_id("Maker")).unwrap();
    let attrs = vec![
        AttrSpec::new("weight", Domain::Primitive(PrimitiveType::Int)),
        AttrSpec::new("maker", Domain::Class(maker)),
    ];
    db.create_class("Part", &[], attrs).unwrap();
    db.create_class("Bolt", &["Part"], vec![]).unwrap();
    let cities = ["Detroit", "Austin", "Kyoto", "Venice"];
    let tx = db.begin();
    let makers: Vec<Oid> = (0..12)
        .map(|m| db.create_object(&tx, "Maker", vec![("city", Value::str(cities[m % 4]))]).unwrap())
        .collect();
    let part = |i: usize| {
        let class = if i.is_multiple_of(2) { "Part" } else { "Bolt" };
        let (weight, maker) = (Value::Int(i as i64 % 500), Value::Ref(makers[i % 12]));
        let attrs = vec![("weight", weight), ("maker", maker)];
        (class, attrs)
    };
    for i in 0..1_500 {
        let (class, attrs) = part(i);
        db.create_object(&tx, class, attrs).unwrap();
    }
    db.commit(tx).unwrap();
    db.create_index("part_weight", IndexKind::ClassHierarchy, "Part", &["weight"]).unwrap();
    db.create_index("part_city", IndexKind::Nested, "Part", &["maker", "city"]).unwrap();
    for i in 1_500..1_700 {
        let (class, attrs) = part(i);
        let tx = db.begin();
        db.create_object(&tx, class, attrs).unwrap();
        db.commit(tx).unwrap();
    }

    let query = "select p from Part* p where p.weight >= 100 and p.weight < 160 \
                 and p.maker.city = \"Detroit\"";
    let answer = |context: &str| {
        let tx = db.begin();
        let plan = db.explain(&tx, query).unwrap();
        assert_eq!(plan.intersect.len(), 1, "{context}: both indexes answer it: {plan}");
        let mut oids = db.query(&tx, query).unwrap().oids;
        db.commit(tx).unwrap();
        oids.sort_unstable();
        oids
    };
    let before = answer("before restart");
    // Four runs of 60 parts weigh 100..160; Detroit makes every fourth.
    assert_eq!(before.len(), 60, "the conjunction's answer");
    for restart in 1..=2 {
        db.crash_and_recover().unwrap();
        assert_eq!(answer(&format!("restart {restart}")), before, "restart {restart}");
    }
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

// Every durability scenario above runs unchanged on both media: the
// page device in memory and over real files.

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

// The same scenarios with the data several times the buffer pool.

#[test]
fn randomized_crash_recovery_matches_model_small_pool() {
    randomized_crash_recovery_matches_model_on(small_pool_item_db());
}

#[test]
fn oid_allocation_survives_restart_without_collisions_small_pool() {
    oid_allocation_survives_restart_without_collisions_on(small_pool_item_db());
}

#[test]
fn crash_during_rollback_restores_original_state_small_pool() {
    crash_during_rollback_restores_original_state_on(small_pool_item_db());
}

#[test]
fn crash_during_checkpoint_with_partially_flushed_tail_small_pool() {
    crash_during_checkpoint_with_partially_flushed_tail_on(small_pool_item_db());
}

#[test]
fn repeated_crashes_are_harmless_small_pool() {
    repeated_crashes_are_harmless_on(small_pool_item_db());
}

#[test]
fn larger_than_pool_load_then_grow_recovers() {
    larger_than_pool_load_then_grow_recovers_on(Database::open_in_memory());
}

#[test]
fn larger_than_pool_load_then_grow_recovers_filedisk() {
    let dir = TempDir::new("dur-grow");
    larger_than_pool_load_then_grow_recovers_on(file_db(&dir));
}

#[test]
fn recoveries_in_a_row_survive_a_fault_during_one() {
    recoveries_in_a_row_survive_a_fault_during_one_on(Database::open_in_memory());
}

#[test]
fn recoveries_in_a_row_survive_a_fault_during_one_filedisk() {
    let dir = TempDir::new("dur-fault");
    recoveries_in_a_row_survive_a_fault_during_one_on(file_db(&dir));
}

#[test]
fn indexes_after_bulk_load_then_autocommit_creates_recover_twice() {
    indexes_after_bulk_load_then_autocommit_creates_recover_twice_on(Database::open_in_memory());
}

#[test]
fn indexes_after_bulk_load_then_autocommit_creates_recover_twice_filedisk() {
    let dir = TempDir::new("dur-idx");
    indexes_after_bulk_load_then_autocommit_creates_recover_twice_on(file_db(&dir));
}

#[test]
fn indexes_after_bulk_load_then_autocommit_creates_recover_twice_small_pool() {
    let config = DbConfig::builder().buffer_pages(16).build().unwrap();
    let db = Database::try_with_config(config).unwrap();
    indexes_after_bulk_load_then_autocommit_creates_recover_twice_on(db);
}

/// An empty database over real files in `dir`.
fn file_db(dir: &TempDir) -> Database {
    let storage = StorageSpec::File(dir.path().to_path_buf());
    Database::try_with_config(DbConfig::builder().storage(storage).build().unwrap()).unwrap()
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
