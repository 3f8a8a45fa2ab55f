//! Snapshot-read semantics under MVCC: queries pin a commit timestamp
//! and read per-object version chains, taking no 2PL locks. These
//! tests pin down the visibility contract — read-your-own-writes, no
//! dirty reads, stable snapshots under concurrent commits, readers
//! never queueing behind writers — and the pruning safety property
//! (a version visible to an active snapshot is never reclaimed).

use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, Domain, Oid, PrimitiveType, Value,
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

    db.reset_metrics();
    let reader = db.begin();
    let r = db
        .query(&reader, "select count(*) from Counter c where c.n > 0")
        .expect("a snapshot query must not hit the writer's locks");
    assert_eq!(r.rows[0][0], Value::Int(3), "uncommitted -1 values leaked into a query");
    db.commit(reader).unwrap();

    let stats = db.stats();
    assert_eq!(stats.locks.acquisitions, 0, "the reader took 2PL locks");
    assert_eq!(stats.locks.waits, 0);
    assert!(stats.mvcc.snapshot_reads > 0, "reads resolved through the version store");

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

    db.reset_metrics();
    for round in 1..=50i64 {
        let tx = db.begin();
        db.set(&tx, oids[0], "n", Value::Int(round)).unwrap();
        db.commit(tx).unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.mvcc.versions_published, 50);
    // With no snapshot pinned, each publish prunes its predecessor:
    // chains stay at depth 1 and most versions are reclaimed.
    assert!(
        stats.mvcc.versions_pruned >= 49,
        "unpinned chains must not accumulate (pruned {})",
        stats.mvcc.versions_pruned
    );
    assert!(
        stats.mvcc.chain_length.sum_micros <= 2 * stats.mvcc.chain_length.count,
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

/// Repro for the known index/MVCC race (DESIGN.md §"MVCC snapshot
/// reads", known limit): secondary indexes are *not* versioned, so an
/// index-assisted query racing a committed key update can miss a
/// moving row — the index files it under the new key the instant the
/// writer commits, while the query's snapshot still sees the old
/// value (candidates are residual-checked against snapshot values, so
/// nothing dirty leaks *in*; rows only fall *out*).
///
/// Detection: a flock of items flips its key 10 → 20 → 10 atomically
/// (one commit moves all of them), so under ANY snapshot an
/// index-probed `k = 10` count must be all-or-nothing. A partial
/// count is a torn index-assisted read: the probe ran against index
/// state newer than the query snapshot. `#[ignore]`d until indexes
/// are versioned (or index probes re-validate against the snapshot by
/// falling back to a scan on mismatch): the failure is a real,
/// documented engine limit — not flaky test noise.
#[test]
#[ignore = "known limit: unversioned indexes can tear an index-assisted snapshot read"]
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
