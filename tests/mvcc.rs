//! Snapshot-read semantics under MVCC: queries pin a commit timestamp
//! and read per-object version chains, taking no 2PL locks. These
//! tests pin down the visibility contract — read-your-own-writes, no
//! dirty reads, stable snapshots under concurrent commits, readers
//! never queueing behind writers — and the pruning safety property
//! (a version visible to an active snapshot is never reclaimed).

use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbStats, Domain, Oid, PrimitiveType, Value,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn counter_db() -> Arc<Database> {
    let db = Arc::new(Database::open_in_memory());
    db.create_class(
        "Counter",
        &[],
        vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    db
}

fn seed(db: &Database, values: &[i64]) -> Vec<Oid> {
    let tx = db.begin();
    let oids = values
        .iter()
        .map(|v| db.create_object(&tx, "Counter", vec![("n", Value::Int(*v))]).unwrap())
        .collect();
    db.commit(tx).unwrap();
    oids
}

/// A transaction's queries see its own uncommitted creates, updates,
/// and deletes — while a concurrent transaction's queries see none of
/// them.
#[test]
fn transaction_reads_its_own_uncommitted_writes() {
    let db = counter_db();
    let oids = seed(&db, &[1, 2, 3]);

    let writer = db.begin();
    db.set(&writer, oids[0], "n", Value::Int(100)).unwrap();
    db.delete_object(&writer, oids[1]).unwrap();
    db.create_object(&writer, "Counter", vec![("n", Value::Int(200))]).unwrap();

    // The writer's own snapshot: update applied, delete gone, create in.
    let r = db.query(&writer, "select c.n from Counter c order by c.n asc").unwrap();
    let own: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(own, vec![Value::Int(3), Value::Int(100), Value::Int(200)]);

    // A concurrent reader sees only the committed state.
    let reader = db.begin();
    let r = db.query(&reader, "select c.n from Counter c order by c.n asc").unwrap();
    let other: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(other, vec![Value::Int(1), Value::Int(2), Value::Int(3)], "dirty read");
    db.commit(reader).unwrap();

    db.commit(writer).unwrap();

    // After commit, a fresh snapshot sees the writer's state.
    let tx = db.begin();
    let r = db.query(&tx, "select c.n from Counter c order by c.n asc").unwrap();
    let now: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(now, vec![Value::Int(3), Value::Int(100), Value::Int(200)]);
    db.commit(tx).unwrap();
}

/// A query never waits for a writer's X locks: with a short lock
/// timeout and a writer camped on every object, the reader both
/// completes instantly and sees only committed values.
#[test]
fn no_dirty_reads_and_no_queueing_behind_writers() {
    let config = DbConfig { lock_timeout: Duration::from_millis(200), ..DbConfig::default() };
    let db = Arc::new(Database::with_config(config));
    db.create_class(
        "Counter",
        &[],
        vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let oids = seed(&db, &[10, 20, 30]);

    // The writer X-locks all three objects and parks, uncommitted.
    let writer = db.begin();
    for oid in &oids {
        db.set(&writer, *oid, "n", Value::Int(-1)).unwrap();
    }

    let before = db.stats();
    let reader = db.begin();
    let r = db
        .query(&reader, "select count(*) from Counter c where c.n > 0")
        .expect("a snapshot query must not hit the writer's locks");
    assert_eq!(r.rows[0][0], Value::Int(3), "uncommitted -1 values leaked into a query");
    db.commit(reader).unwrap();

    let after = db.stats();
    let d = |f: fn(&DbStats) -> u64| f(&after) - f(&before);
    assert_eq!(d(|s| s.locks.acquisitions), 0, "the reader took 2PL locks");
    assert_eq!(d(|s| s.locks.waits), 0);
    assert!(d(|s| s.mvcc.snapshot_reads) > 0, "reads resolved through the version store");

    db.rollback(writer).unwrap();
}

/// Overlapping snapshots: a query that starts before a commit keeps
/// reading the old state even after later commits land; each commit's
/// writes appear atomically to new snapshots. The writer keeps the
/// invariant "all objects carry the same value", so any mixed result
/// is a torn (non-snapshot) read.
#[test]
fn long_query_sees_stable_snapshot_while_commits_land() {
    const OBJECTS: usize = 32;
    const ROUNDS: i64 = 60;
    let db = counter_db();
    let oids = seed(&db, &[0i64; OBJECTS]);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db_w = Arc::clone(&db);
        let oids_w = oids.clone();
        let stop = &stop;
        s.spawn(move || {
            for round in 1..=ROUNDS {
                let tx = db_w.begin();
                for oid in &oids_w {
                    db_w.set(&tx, *oid, "n", Value::Int(round)).unwrap();
                }
                db_w.commit(tx).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });

        for reader in 0..2 {
            let db_r = Arc::clone(&db);
            s.spawn(move || {
                let mut observed = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let tx = db_r.begin();
                    let r = db_r.query(&tx, "select c.n from Counter c").unwrap();
                    db_r.commit(tx).unwrap();
                    assert_eq!(r.rows.len(), OBJECTS, "reader {reader}: objects vanished");
                    let first = r.rows[0][0].clone();
                    for row in &r.rows {
                        assert_eq!(
                            row[0], first,
                            "reader {reader}: torn snapshot — saw two different rounds at once"
                        );
                    }
                    observed.push(first.as_int().unwrap());
                }
                // Snapshots never move backwards within one reader.
                for pair in observed.windows(2) {
                    assert!(pair[1] >= pair[0], "reader {reader}: snapshot went backwards");
                }
            });
        }
    });

    // The final state is the last round.
    let tx = db.begin();
    let r = db.query(&tx, &format!("select count(*) from Counter c where c.n = {ROUNDS}")).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(OBJECTS as i64));
    db.commit(tx).unwrap();
}

/// Churn with creates and deletes: every committed state holds exactly
/// N live objects (each writer transaction creates one and deletes
/// one), so every snapshot scan must count exactly N — catching both
/// tombstone-merge bugs (a deleted object vanishing from an older
/// snapshot) and uncommitted-create leaks.
#[test]
fn snapshot_scans_merge_concurrently_deleted_objects() {
    const LIVE: usize = 20;
    const CHURN: usize = 80;
    let db = counter_db();
    let mut live = seed(&db, &[7i64; LIVE]);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db_w = Arc::clone(&db);
        let stop = &stop;
        s.spawn(move || {
            for _ in 0..CHURN {
                let tx = db_w.begin();
                let fresh =
                    db_w.create_object(&tx, "Counter", vec![("n", Value::Int(7))]).unwrap();
                let doomed = live.remove(0);
                db_w.delete_object(&tx, doomed).unwrap();
                db_w.commit(tx).unwrap();
                live.push(fresh);
            }
            stop.store(true, Ordering::Relaxed);
        });

        let db_r = Arc::clone(&db);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let tx = db_r.begin();
                let r = db_r.query(&tx, "select count(*) from Counter c").unwrap();
                db_r.commit(tx).unwrap();
                assert_eq!(
                    r.rows[0][0],
                    Value::Int(LIVE as i64),
                    "snapshot saw a torn create/delete pair"
                );
            }
        });
    });
}

/// Version pruning is observable (chains are reclaimed once snapshots
/// retire) and never reclaims a version an active snapshot still needs
/// — demonstrated end-to-end by committing many rounds against a
/// database while verifying stats, since the only user-visible proof
/// of safety is that concurrent stable-snapshot reads stay correct
/// (asserted above) while `versions_pruned` advances.
#[test]
fn pruning_reclaims_chains_once_snapshots_retire() {
    let db = counter_db();
    let oids = seed(&db, &[0]);

    let before = db.stats();
    for round in 1..=50i64 {
        let tx = db.begin();
        db.set(&tx, oids[0], "n", Value::Int(round)).unwrap();
        db.commit(tx).unwrap();
    }
    let after = db.stats();
    let d = |f: fn(&DbStats) -> u64| f(&after) - f(&before);
    assert_eq!(d(|s| s.mvcc.versions_published), 50);
    // With no snapshot pinned, each publish prunes its predecessor:
    // chains stay at depth 1 and most versions are reclaimed.
    let pruned = d(|s| s.mvcc.versions_pruned);
    assert!(pruned >= 49, "unpinned chains must not accumulate (pruned {pruned})");
    assert!(
        d(|s| s.mvcc.chain_length.sum_micros) <= 2 * d(|s| s.mvcc.chain_length.count),
        "observed chain depth stayed bounded"
    );

    // Reads of the final state resolve without version chains at all.
    let tx = db.begin();
    let r = db.query(&tx, "select c.n from Counter c").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(50));
    db.commit(tx).unwrap();
    assert_eq!(db.stats().mvcc.active_snapshots, 0);
}

/// Rollback discards staged versions: a rolled-back transaction's
/// writes never surface in any snapshot, and later queries resolve
/// cleanly.
#[test]
fn rolled_back_writes_never_surface_in_snapshots() {
    let db = counter_db();
    let oids = seed(&db, &[5, 6]);

    let tx = db.begin();
    db.set(&tx, oids[0], "n", Value::Int(500)).unwrap();
    db.delete_object(&tx, oids[1]).unwrap();
    db.create_object(&tx, "Counter", vec![("n", Value::Int(600))]).unwrap();
    db.rollback(tx).unwrap();

    let tx = db.begin();
    let r = db.query(&tx, "select c.n from Counter c order by c.n asc").unwrap();
    let values: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(values, vec![Value::Int(5), Value::Int(6)]);
    db.commit(tx).unwrap();
}

/// Crash recovery resets the version store to match the replayed
/// committed truth; snapshots before and after the crash stay correct.
#[test]
fn snapshots_stay_correct_across_crash_recovery() {
    let db = counter_db();
    let oids = seed(&db, &[1]);

    let tx = db.begin();
    db.set(&tx, oids[0], "n", Value::Int(2)).unwrap();
    db.commit(tx).unwrap();

    // An uncommitted write dies with the crash.
    let doomed = db.begin();
    db.set(&doomed, oids[0], "n", Value::Int(99)).unwrap();
    db.crash_and_recover().unwrap();

    let tx = db.begin();
    let r = db.query(&tx, "select c.n from Counter c").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    db.commit(tx).unwrap();

    // Post-recovery commits publish and read back normally.
    let tx = db.begin();
    db.set(&tx, oids[0], "n", Value::Int(3)).unwrap();
    db.commit(tx).unwrap();
    let tx = db.begin();
    let r = db.query(&tx, "select c.n from Counter c").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    db.commit(tx).unwrap();
}

/// Indexes are maintained in place, so an index-assisted query racing a
/// key update probes index state newer than its snapshot — the writer's
/// in-flight keys, or keys committed after the snapshot was taken. The
/// probe's candidates with a version chain are re-checked against the
/// whole predicate at the snapshot, and chained objects the probe
/// missed are added, so no moving row falls out or leaks in.
///
/// Detection: a flock of items flips its key 10 → 20 → 10 atomically
/// (one commit moves all of them), so under ANY snapshot an
/// index-probed `k = 10` count must be all-or-nothing. A partial
/// count is a torn index-assisted read.
#[test]
fn index_assisted_snapshot_query_can_miss_a_moving_row() {
    use orion_oodb::orion::IndexKind;

    const FLOCK: i64 = 32;
    let db = Arc::new(Database::open_in_memory());
    db.create_class(
        "Item",
        &[],
        vec![AttrSpec::new("k", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    db.create_index("byk", IndexKind::ClassHierarchy, "Item", &["k"]).unwrap();
    let tx = db.begin();
    let flock: Vec<Oid> = (0..FLOCK)
        .map(|_| db.create_object(&tx, "Item", vec![("k", Value::Int(10))]).unwrap())
        .collect();
    // Decoys fatten the extent so the optimizer prefers the index for
    // the point probe over a full scan.
    for i in 0..512i64 {
        db.create_object(&tx, "Item", vec![("k", Value::Int(1_000 + i))]).unwrap();
    }
    db.commit(tx).unwrap();

    // The probe must be index-assisted for the race to exist.
    let probe = "select count(*) from Item i where i.k = 10";
    let tx = db.begin();
    let plan = db.explain(&tx, probe).unwrap().to_string();
    db.commit(tx).unwrap();
    assert!(plan.to_lowercase().contains("index"), "probe must be index-assisted: {plan}");

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut k = 10i64;
            while !stop.load(Ordering::Relaxed) {
                k = if k == 10 { 20 } else { 10 };
                let tx = db.begin();
                for oid in &flock {
                    db.set(&tx, *oid, "k", Value::Int(k)).unwrap();
                }
                db.commit(tx).unwrap();
            }
        })
    };

    let mut tears = 0u32;
    for _ in 0..2_000 {
        let tx = db.begin();
        let r = db.query(&tx, probe).unwrap();
        db.commit(tx).unwrap();
        // One commit moves the whole flock, so every snapshot holds
        // either all of them at k = 10 or none. Anything in between is
        // the index reading ahead of the snapshot.
        let n = r.rows[0][0].as_int().unwrap();
        assert!(n <= FLOCK, "phantom duplicates would be a worse bug: {n}");
        if n != 0 && n != FLOCK {
            tears += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    assert_eq!(tears, 0, "index-assisted snapshot reads tore {tears} times");
}

/// The rollback twin of the flock test above: the writer moves the
/// whole flock's key and rolls back, committing only every third round.
/// A rollback reverts the index entries under the shared gate while
/// probes run, so the probe can read an entry the rollback then
/// reverts; the rolled-back chains are stamped at a fresh commit
/// timestamp, which puts every flock member in the probe's overlay.
/// Every count must still be all-or-nothing.
#[test]
fn index_assisted_snapshot_query_survives_a_rolled_back_move() {
    use orion_oodb::orion::IndexKind;

    const FLOCK: i64 = 32;
    let db = Arc::new(Database::open_in_memory());
    db.create_class(
        "Item",
        &[],
        vec![AttrSpec::new("k", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    db.create_index("byk", IndexKind::ClassHierarchy, "Item", &["k"]).unwrap();
    let tx = db.begin();
    let flock: Vec<Oid> = (0..FLOCK)
        .map(|_| db.create_object(&tx, "Item", vec![("k", Value::Int(10))]).unwrap())
        .collect();
    for i in 0..512i64 {
        db.create_object(&tx, "Item", vec![("k", Value::Int(1_000 + i))]).unwrap();
    }
    db.commit(tx).unwrap();
    let probe = "select count(*) from Item i where i.k = 10";

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut k, mut round) = (10i64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                round += 1;
                let next = if k == 10 { 20 } else { 10 };
                let tx = db.begin();
                for oid in &flock {
                    db.set(&tx, *oid, "k", Value::Int(next)).unwrap();
                }
                if round % 3 == 0 {
                    db.commit(tx).unwrap();
                    k = next;
                } else {
                    db.rollback(tx).unwrap();
                }
            }
            round
        })
    };

    let mut tears = 0u32;
    for _ in 0..2_000 {
        let tx = db.begin();
        let n = db.query(&tx, probe).unwrap().rows[0][0].as_int().unwrap();
        db.commit(tx).unwrap();
        assert!(n <= FLOCK, "phantom duplicates would be a worse bug: {n}");
        if n != 0 && n != FLOCK {
            tears += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().unwrap();
    assert!(rounds >= 3, "the writer rolled back and committed ({rounds} rounds)");
    assert_eq!(tears, 0, "index-assisted snapshot reads tore {tears} times");
    assert_eq!(db.stats().gate.exclusive_acquisitions, 1, "only the index build");
}

/// A scan's batched in-place reads race a writer that does everything
/// that can pull a record out from under them: each round rewrites
/// every object with a longer body (records outgrow their page and move
/// to a new record id), deletes one object and creates a replacement.
/// Every committed state holds exactly `DOCS` objects all stamped with
/// the same round, so a scan that returns any other count, or two
/// different stamps, read something its snapshot must not see — a moved
/// record's emptied slot taken for a deleted object, or a half-applied
/// round.
#[test]
fn snapshot_scan_survives_records_moving_vanishing_and_reappearing() {
    const DOCS: usize = 300;
    const ROUNDS: i64 = 40;
    let db = Arc::new(Database::open_in_memory());
    db.create_class(
        "Doc",
        &[],
        vec![
            AttrSpec::new("round", Domain::Primitive(PrimitiveType::Int)),
            AttrSpec::new("body", Domain::Primitive(PrimitiveType::Str)),
        ],
    )
    .unwrap();
    let tx = db.begin();
    let mut docs: Vec<Oid> = (0..DOCS)
        .map(|_| db.create_object(&tx, "Doc", vec![("round", Value::Int(0))]).unwrap())
        .collect();
    db.commit(tx).unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db_w = Arc::clone(&db);
        let stop = &stop;
        s.spawn(move || {
            for round in 1..=ROUNDS {
                let tx = db_w.begin();
                let body = Value::Str("b".repeat(round as usize * 50));
                let doomed = docs.remove(round as usize % DOCS);
                db_w.delete_object(&tx, doomed).unwrap();
                for doc in &docs {
                    db_w.set(&tx, *doc, "body", body.clone()).unwrap();
                    db_w.set(&tx, *doc, "round", Value::Int(round)).unwrap();
                }
                let fresh = db_w
                    .create_object(&tx, "Doc", vec![("round", Value::Int(round)), ("body", body)])
                    .unwrap();
                docs.push(fresh);
                db_w.commit(tx).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });

        for reader in 0..2 {
            let db_r = Arc::clone(&db);
            s.spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let tx = db_r.begin();
                    let r = db_r.query(&tx, "select d.round from Doc d where d.round >= 0").unwrap();
                    db_r.commit(tx).unwrap();
                    assert_eq!(r.rows.len(), DOCS, "reader {reader}: wrong extent at its snapshot");
                    let stamp = r.rows[0][0].as_int().unwrap();
                    assert!(
                        r.rows.iter().all(|row| row[0] == Value::Int(stamp)),
                        "reader {reader}: torn snapshot around round {stamp}"
                    );
                    assert!(stamp >= last, "reader {reader}: snapshot went backwards");
                    last = stamp;
                }
            });
        }
    });

    let tx = db.begin();
    let r = db.query(&tx, &format!("select count(*) from Doc d where d.round = {ROUNDS}")).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(DOCS as i64));
    db.commit(tx).unwrap();
}

/// `Item(k)` with a class-hierarchy index on `k`: `hot` items at
/// `k = 10` and 200 decoys at `k = 1000..` that keep the index cheaper
/// than a scan.
fn indexed_items(hot: usize) -> (Database, Vec<Oid>) {
    use orion_oodb::orion::IndexKind;

    let db = Database::open_in_memory();
    db.create_class("Item", &[], vec![AttrSpec::new("k", Domain::Primitive(PrimitiveType::Int))])
        .unwrap();
    db.create_index("byk", IndexKind::ClassHierarchy, "Item", &["k"]).unwrap();
    let tx = db.begin();
    let items =
        (0..hot).map(|_| db.create_object(&tx, "Item", vec![("k", Value::Int(10))]).unwrap());
    let items = items.collect();
    for i in 0..200 {
        db.create_object(&tx, "Item", vec![("k", Value::Int(1_000 + i))]).unwrap();
    }
    db.commit(tx).unwrap();
    (db, items)
}

/// Run `text` in a fresh transaction after checking the plan probes an
/// index.
fn indexed_query(db: &Database, text: &str) -> Vec<Vec<Value>> {
    use orion_oodb::orion::AccessPath;

    let tx = db.begin();
    let plan = db.explain(&tx, text).unwrap();
    assert_ne!(plan.access, AccessPath::Scan, "{text} must be index-assisted");
    let rows = db.query(&tx, text).unwrap().rows;
    db.commit(tx).unwrap();
    rows
}

/// A point and a range probe of a class-hierarchy index while another
/// transaction holds an uncommitted key move: the moved item keeps its
/// committed key for everyone but its writer.
#[test]
fn class_hierarchy_probes_skip_an_uncommitted_key_move() {
    let (db, items) = indexed_items(4);
    let writer = db.begin();
    db.set(&writer, items[0], "k", Value::Int(20)).unwrap();

    let count = |text: &str| indexed_query(&db, text)[0][0].clone();
    assert_eq!(count("select count(*) from Item i where i.k = 10"), Value::Int(4));
    assert_eq!(count("select count(*) from Item i where i.k = 20"), Value::Int(0));
    assert_eq!(count("select count(*) from Item i where i.k >= 5 and i.k < 15"), Value::Int(4));
    assert_eq!(count("select count(*) from Item i where i.k >= 15 and i.k < 25"), Value::Int(0));
    assert!(indexed_query(&db, "select i.k from Item i where i.k = 20").is_empty());
    assert!(indexed_query(&db, "select i.k from Item i where i.k > 15 and i.k < 25").is_empty());
    let rows = indexed_query(&db, "select i.k from Item i where i.k >= 5 and i.k < 15");
    assert_eq!(rows, vec![vec![Value::Int(10)]; 4]);
    let rows = indexed_query(&db, "select i.k from Item i where i.k = 10");
    assert_eq!(rows, vec![vec![Value::Int(10)]; 4]);

    // The writer reads its own move through the same probes.
    let own = |text| db.query(&writer, text).unwrap().rows;
    assert_eq!(own("select count(*) from Item i where i.k = 10"), vec![vec![Value::Int(3)]]);
    let moved = own("select i.k from Item i where i.k >= 15 and i.k < 25");
    assert_eq!(moved, vec![vec![Value::Int(20)]]);
    db.commit(writer).unwrap();
    assert_eq!(count("select count(*) from Item i where i.k = 20"), Value::Int(1));
}

/// Uncommitted creates stay out of, and uncommitted deletes stay in,
/// every other snapshot's index probes.
#[test]
fn index_probes_skip_uncommitted_creates_and_keep_uncommitted_deletes() {
    let (db, items) = indexed_items(4);
    let writer = db.begin();
    db.create_object(&writer, "Item", vec![("k", Value::Int(10))]).unwrap();
    db.delete_object(&writer, items[1]).unwrap();
    let rows = indexed_query(&db, "select i from Item i where i.k = 10");
    let mut want: Vec<Vec<Value>> = items.iter().map(|o| vec![Value::Ref(*o)]).collect();
    let mut got = rows;
    got.sort_by_key(|r| r[0].as_ref_oid().unwrap());
    want.sort_by_key(|r| r[0].as_ref_oid().unwrap());
    assert_eq!(got, want);
    db.rollback(writer).unwrap();
}

/// A nested index on `manufacturer.location` while another transaction
/// holds an uncommitted relocation of the Company sixteen vehicles
/// point at: every root keeps its committed key.
#[test]
fn nested_index_probes_skip_an_uncommitted_company_move() {
    use orion_oodb::orion::IndexKind;

    let db = Database::open_in_memory();
    db.create_class(
        "Company",
        &[],
        vec![AttrSpec::new("location", Domain::Primitive(PrimitiveType::Str))],
    )
    .unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("weight", Domain::Primitive(PrimitiveType::Int)),
            AttrSpec::new("manufacturer", Domain::Class(company)),
        ],
    )
    .unwrap();
    db.create_class("Truck", &["Vehicle"], vec![]).unwrap();
    let tx = db.begin();
    let cities = ["Detroit", "Austin", "Boise", "Chicago", "Denver", "Eugene", "Fresno", "Gary"];
    let makers: Vec<Oid> = cities
        .iter()
        .map(|c| db.create_object(&tx, "Company", vec![("location", Value::str(*c))]).unwrap())
        .collect();
    for i in 0..128i64 {
        let class = if i % 2 == 0 { "Vehicle" } else { "Truck" };
        let maker = Value::Ref(makers[i as usize % makers.len()]);
        db.create_object(&tx, class, vec![("weight", Value::Int(i)), ("manufacturer", maker)])
            .unwrap();
    }
    db.commit(tx).unwrap();
    db.create_index("maker_city", IndexKind::Nested, "Vehicle", &["manufacturer", "location"])
        .unwrap();

    let writer = db.begin();
    db.set(&writer, makers[0], "location", Value::str("Boston")).unwrap();

    let count = |city: &str| {
        let text =
            format!("select count(*) from Vehicle* v where v.manufacturer.location = \"{city}\"");
        indexed_query(&db, &text)[0][0].clone()
    };
    assert_eq!(count("Detroit"), Value::Int(16));
    assert_eq!(count("Boston"), Value::Int(0));
    let located = |city: &str| {
        let text = format!(
            "select v.manufacturer.location from Vehicle* v \
             where v.manufacturer.location = \"{city}\""
        );
        indexed_query(&db, &text)
    };
    assert_eq!(located("Detroit"), vec![vec![Value::str("Detroit")]; 16]);
    assert!(located("Boston").is_empty());
    let narrow = "select count(*) from Vehicle* v \
                  where v.manufacturer.location = \"Detroit\" and v.weight < 64";
    assert_eq!(indexed_query(&db, narrow), vec![vec![Value::Int(8)]]);

    // The writer's own snapshot sees its relocation.
    let text = "select count(*) from Vehicle* v where v.manufacturer.location = \"Boston\"";
    assert_eq!(db.query(&writer, text).unwrap().rows, vec![vec![Value::Int(16)]]);
    db.rollback(writer).unwrap();
    assert_eq!(count("Detroit"), Value::Int(16));
}

/// SplitMix64: a seeded, dependency-free stream for the oracle below.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

const ORACLE_CITIES: [&str; 5] = ["Detroit", "Austin", "Boise", "Chicago", "Denver"];

/// `Maker(city)`, `Item(k, maker)`, `SubItem <- Item`; with `indexes`, a
/// class-hierarchy index on `k` and a nested one on `maker.city`.
fn oracle_db(indexes: bool) -> Database {
    use orion_oodb::orion::IndexKind;

    let db = Database::open_in_memory();
    let city = AttrSpec::new("city", Domain::Primitive(PrimitiveType::Str));
    db.create_class("Maker", &[], vec![city]).unwrap();
    let maker = db.with_catalog(|c| c.class_id("Maker")).unwrap();
    db.create_class(
        "Item",
        &[],
        vec![
            AttrSpec::new("k", Domain::Primitive(PrimitiveType::Int)),
            AttrSpec::new("maker", Domain::Class(maker)),
        ],
    )
    .unwrap();
    db.create_class("SubItem", &["Item"], vec![]).unwrap();
    if indexes {
        db.create_index("byk", IndexKind::ClassHierarchy, "Item", &["k"]).unwrap();
        db.create_index("bycity", IndexKind::Nested, "Item", &["maker", "city"]).unwrap();
    }
    db
}

/// The oracle's two databases, written in lockstep (so their OIDs
/// agree), and the objects live in both.
struct Twins {
    indexed: Database,
    plain: Database,
    makers: Vec<Oid>,
    items: Vec<Oid>,
}

impl Twins {
    /// Apply `f` to both twins, each in its own of `txs`.
    fn both<T: PartialEq + std::fmt::Debug>(
        &self,
        txs: &(orion_oodb::orion::Tx, orion_oodb::orion::Tx),
        f: impl Fn(&Database, &orion_oodb::orion::Tx) -> T,
    ) -> T {
        let (a, b) = (f(&self.indexed, &txs.0), f(&self.plain, &txs.1));
        assert_eq!(a, b, "the twins diverged on a write");
        a
    }

    /// Commit both twins' transactions, or roll both back.
    fn end(&self, (a, b): (orion_oodb::orion::Tx, orion_oodb::orion::Tx), commit: bool) {
        if commit {
            self.indexed.commit(a).unwrap();
            self.plain.commit(b).unwrap();
        } else {
            self.indexed.rollback(a).unwrap();
            self.plain.rollback(b).unwrap();
        }
    }

    /// One random write, in lockstep.
    fn write(&mut self, rng: &mut Rng, txs: &(orion_oodb::orion::Tx, orion_oodb::orion::Tx)) {
        let pick = |rng: &mut Rng, v: &[Oid]| v[rng.below(v.len() as u64) as usize];
        match rng.below(100) {
            0..=34 if !self.items.is_empty() => {
                let (item, k) = (pick(rng, &self.items), Value::Int(rng.below(60) as i64));
                self.both(txs, |db, tx| db.set(tx, item, "k", k.clone()).unwrap());
            }
            35..=49 => {
                let class = if rng.below(2) == 0 { "Item" } else { "SubItem" };
                let k = Value::Int(rng.below(60) as i64);
                let maker = Value::Ref(pick(rng, &self.makers));
                let oid = self.both(txs, |db, tx| {
                    db.create_object(tx, class, vec![("k", k.clone()), ("maker", maker.clone())])
                        .unwrap()
                });
                self.items.push(oid);
            }
            50..=61 if self.items.len() > 1 => {
                let item = self.items.swap_remove(rng.below(self.items.len() as u64) as usize);
                self.both(txs, |db, tx| db.delete_object(tx, item).unwrap());
            }
            62..=84 => {
                let maker = pick(rng, &self.makers);
                let city = Value::str(ORACLE_CITIES[rng.below(5) as usize]);
                self.both(txs, |db, tx| db.set(tx, maker, "city", city.clone()).unwrap());
            }
            _ if !self.items.is_empty() => {
                let (item, maker) = (pick(rng, &self.items), pick(rng, &self.makers));
                self.both(txs, |db, tx| db.set(tx, item, "maker", Value::Ref(maker)).unwrap());
            }
            _ => {}
        }
    }
}

/// A random query the indexed twin can answer through an index.
fn oracle_query(rng: &mut Rng) -> String {
    let k = rng.below(60);
    let city = ORACLE_CITIES[rng.below(5) as usize];
    let (target, select) = match rng.below(4) {
        0 => ("Item*", "count(*)"),
        1 => ("Item*", "i"),
        2 => ("Item*", "i, i.k, i.maker.city"),
        _ => ("SubItem", "i, i.k"),
    };
    let predicate = match rng.below(5) {
        0 => format!("i.k = {k}"),
        1 => format!("i.k >= {k} and i.k < {}", k + 1 + rng.below(6)),
        2 => format!("i.maker.city = \"{city}\""),
        3 => format!("i.k >= {k} and i.k < {} and i.maker.city = \"{city}\"", k + 4),
        _ => format!("i.maker.city = \"{city}\" and i.k > {k}"),
    };
    format!("select {select} from {target} i where {predicate}")
}

/// Rows keyed for an order-insensitive comparison (`count(*)` rows as
/// they are).
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// The randomized oracle: on fixed seeds, random uncommitted and
/// committed key moves, creates, deletes, Company relocations and
/// reassignments land on two twin databases, one with a class-hierarchy
/// and a nested index and one without; every index-assisted answer
/// (checked with `explain`) — from an outside reader, from the writer
/// itself, and from a snapshot held across the writer's commit — equals
/// the scan's on the twin.
#[test]
fn index_assisted_answers_match_a_twin_without_indexes() {
    use orion_oodb::orion::AccessPath;
    use orion_query::{execute_with, ExecOptions};

    let (mut assisted, mut intersected) = (0, 0);
    for seed in [1, 7, 42, 1990] {
        let mut rng = Rng(seed);
        let mut twins = Twins {
            indexed: oracle_db(true),
            plain: oracle_db(false),
            makers: Vec::new(),
            items: Vec::new(),
        };
        let load = (twins.indexed.begin(), twins.plain.begin());
        for city in ORACLE_CITIES.iter().cycle().take(12) {
            let maker = twins.both(&load, |db, tx| {
                db.create_object(tx, "Maker", vec![("city", Value::str(*city))]).unwrap()
            });
            twins.makers.push(maker);
        }
        for _ in 0..240 {
            twins.write(&mut rng, &load);
        }
        twins.end(load, true);

        for _round in 0..25 {
            let writer = (twins.indexed.begin(), twins.plain.begin());
            for _ in 0..1 + rng.below(6) {
                twins.write(&mut rng, &writer);
            }
            for _ in 0..6 {
                let text = oracle_query(&mut rng);
                let from_writer = rng.below(3) == 0;
                let readers = (!from_writer).then(|| (twins.indexed.begin(), twins.plain.begin()));
                let (tx_a, tx_b) = match &readers {
                    Some((a, b)) => (a, b),
                    None => (&writer.0, &writer.1),
                };
                let plan = twins.indexed.explain(tx_a, &text).unwrap();
                if plan.access == AccessPath::Scan {
                    continue;
                }
                assisted += 1;
                intersected += usize::from(!plan.intersect.is_empty());
                let got = twins.indexed.query(tx_a, &text).unwrap().rows;
                let want = twins.plain.query(tx_b, &text).unwrap().rows;
                assert_eq!(
                    canonical(got),
                    canonical(want),
                    "seed {seed}: {text} ({plan}) from {}",
                    if from_writer { "the writer" } else { "a reader" }
                );
                if let Some(readers) = readers {
                    twins.end(readers, true);
                }
            }
            match rng.below(3) {
                0 => twins.end(writer, false),
                1 => twins.end(writer, true),
                _ => {
                    // Commit under a held snapshot, then query at it: the
                    // index already files the commit's keys.
                    let text = oracle_query(&mut rng);
                    let twin_txs = [(&twins.indexed, writer.0), (&twins.plain, writer.1)];
                    let answers: Vec<Vec<Vec<Value>>> = twin_txs
                        .into_iter()
                        .map(|(db, tx)| {
                            let reader = db.begin();
                            let planned = db.prepare_query(&reader, &text).unwrap();
                            db.commit(reader).unwrap();
                            db.with_snapshot(None, |catalog, source| {
                                db.commit(tx).unwrap();
                                let opts = ExecOptions::default();
                                execute_with(catalog, source, &planned, &opts).unwrap().rows
                            })
                        })
                        .map(canonical)
                        .collect();
                    assert_eq!(answers[0], answers[1], "seed {seed}: {text} across a commit");
                }
            }
            // A rollback took its creates away and gave its deletes back.
            let tx = twins.plain.begin();
            twins.items = twins.plain.query(&tx, "select i from Item* i").unwrap().oids;
            twins.plain.commit(tx).unwrap();
        }
    }
    assert!(assisted > 300, "only {assisted} index-assisted queries were compared");
    assert!(intersected > INTERSECTED_FLOOR, "only {intersected} answers intersected two indexes");
}

/// Of the oracle's index-assisted answers, more than this many must come
/// from an intersection of both indexes (predicates 3 and 4 combine `k`
/// with `maker.city`; the seeds above give 135 of 591).
const INTERSECTED_FLOOR: usize = 100;

/// A conjunction that the `k` index drives and the nested `maker.city`
/// index joins, while a writer holds an uncommitted move of the
/// *joining* key — a maker's city, then an item's maker. Only the
/// nested index's overlay names the items that move: the `k` index
/// files them where they were. Every outside reader sees the committed
/// answer, the writer its own, and a snapshot held across the writer's
/// commit the answer from before it.
#[test]
fn intersections_recheck_an_uncommitted_move_of_the_joining_key() {
    use orion_oodb::orion::AccessPath;
    use orion_query::{execute_with, ExecOptions};

    let db = oracle_db(true);
    let tx = db.begin();
    let makers: Vec<Oid> = (0..10)
        .map(|m| {
            let city = Value::str(ORACLE_CITIES[m % ORACLE_CITIES.len()]);
            db.create_object(&tx, "Maker", vec![("city", city)]).unwrap()
        })
        .collect();
    let items: Vec<Oid> = (0..200)
        .map(|i| {
            let class = if i % 3 == 0 { "SubItem" } else { "Item" };
            let (k, maker) = (Value::Int(i as i64 % 100), Value::Ref(makers[i % 10]));
            let attrs = vec![("k", k), ("maker", maker)];
            db.create_object(&tx, class, attrs).unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    // k in [10, 20) holds items 10..20 and 110..120; Detroit makes the
    // ones whose maker is 0 or 5.
    let text = "select i from Item* i where i.k >= 10 and i.k < 20 and i.maker.city = \"Detroit\"";
    let answer = |tx: &orion_oodb::orion::Tx| {
        let mut oids = db.query(tx, text).unwrap().oids;
        oids.sort_unstable();
        oids
    };
    let of = |picked: &[usize]| -> Vec<Oid> {
        let mut oids: Vec<Oid> = picked.iter().map(|&i| items[i]).collect();
        oids.sort_unstable();
        oids
    };
    let reader = db.begin();
    let plan = db.explain(&reader, text).unwrap();
    assert!(matches!(plan.access, AccessPath::IndexRange { .. }), "k drives: {plan}");
    assert!(matches!(plan.intersect[..], [AccessPath::IndexEq { .. }]), "city joins: {plan}");
    assert_eq!(answer(&reader), of(&[10, 15, 110, 115]));
    db.commit(reader).unwrap();

    let moves = [
        // Maker 0 leaves Detroit: items 10 and 110 with it.
        (makers[0], "city", Value::str("Boise"), of(&[10, 15, 110, 115]), of(&[15, 115])),
        // Item 15 changes to an Austin maker.
        (items[15], "maker", Value::Ref(makers[1]), of(&[15, 115]), of(&[115])),
    ];
    for (oid, attr, value, before, after) in moves {
        let writer = db.begin();
        db.set(&writer, oid, attr, value).unwrap();
        let reader = db.begin();
        assert_eq!(answer(&reader), before, "a reader during the move of {attr}");
        db.commit(reader).unwrap();
        assert_eq!(answer(&writer), after, "the writer of {attr}");

        let reader = db.begin();
        let planned = db.prepare_query(&reader, text).unwrap();
        db.commit(reader).unwrap();
        assert_eq!(planned.intersect.len(), 1, "{}", planned.report());
        let mut held = db.with_snapshot(None, |catalog, source| {
            db.commit(writer).unwrap();
            execute_with(catalog, source, &planned, &ExecOptions::default()).unwrap().oids
        });
        held.sort_unstable();
        assert_eq!(held, before, "a snapshot held across the commit of {attr}");
        let reader = db.begin();
        assert_eq!(answer(&reader), after, "a reader after the commit of {attr}");
        db.commit(reader).unwrap();
    }
}
