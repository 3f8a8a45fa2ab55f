//! Concurrency integration tests: isolation under strict 2PL, deadlock
//! victim selection with retry, and hierarchy-wide schema locking.

mod common;

use common::{accounts, total_balance, transfers, until_granted, Embedded, Session};
use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, Domain, LockingStrategy, Migration, PrimitiveType, SchemaChange,
    Value,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Transfer money between two accounts, retrying on deadlock — the
/// canonical serializable workload. Total balance must be conserved.
#[test]
fn concurrent_transfers_conserve_total_balance() {
    for locking in [LockingStrategy::Granular, LockingStrategy::CoarseClass] {
        let (db, accounts) = accounts(8, locking);
        let threads = 4;
        let transfers_per_thread = 60;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let db = Arc::clone(&db);
                let accounts = accounts.clone();
                scope.spawn(move || {
                    // Deadlock victims abort and rerun.
                    let s = &mut Embedded::new(&db);
                    transfers(s, &accounts, t * 7 + 3, transfers_per_thread, 10);
                });
            }
        });
        assert_eq!(total_balance(&db, &accounts), 8 * 1000, "conservation under {locking:?}");
    }
}

/// The decomposed-runtime acceptance test: transactions writing
/// *disjoint classes* proceed concurrently — both sit inside open,
/// uncommitted write transactions at the same instant (barrier proof),
/// and keep performing DML while the other's uncommitted work is live —
/// while *conflicting* writers on the same object still serialize
/// behind the 2PL X lock (latency proof). Writers must never take the
/// exclusive maintenance gate: DML runs entirely under the shared gate
/// plus component locks.
#[test]
fn disjoint_class_writers_overlap_conflicting_writers_serialize() {
    let config = DbConfig { lock_timeout: Duration::from_secs(30), ..DbConfig::default() };
    let db = Arc::new(Database::with_config(config));
    for class in ["Alpha", "Beta"] {
        let n = AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int));
        db.create_class(class, &[], vec![n]).unwrap();
    }
    let seed_tx = db.begin();
    let a0 = db.create_object(&seed_tx, "Alpha", vec![("n", Value::Int(0))]).unwrap();
    let b0 = db.create_object(&seed_tx, "Beta", vec![("n", Value::Int(0))]).unwrap();
    db.commit(seed_tx).unwrap();
    let before = db.stats().gate;

    // Phase 1: both writers hold uncommitted DML at the same moment.
    // Each thread writes its class, meets the other at a barrier *with
    // its transaction still open*, then writes again (DML must still be
    // possible while the peer's uncommitted writes are live), meets
    // again, and only then commits. Any global writer serialization —
    // a lock held across the transaction, or an exclusive gate taken by
    // DML — would leave the barrier waiting forever.
    let rendezvous = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        for (class_obj, bump) in [(a0, 1), (b0, 2)] {
            let db = Arc::clone(&db);
            let rendezvous = Arc::clone(&rendezvous);
            scope.spawn(move || {
                let tx = db.begin();
                db.set(&tx, class_obj, "n", Value::Int(bump)).unwrap();
                rendezvous.wait(); // both transactions open, writes applied
                db.set(&tx, class_obj, "n", Value::Int(bump * 10)).unwrap();
                rendezvous.wait(); // both performed DML during the overlap
                db.commit(tx).unwrap();
            });
        }
    });
    let tx = db.begin();
    assert_eq!(db.get(&tx, a0, "n").unwrap(), Value::Int(10));
    assert_eq!(db.get(&tx, b0, "n").unwrap(), Value::Int(20));
    db.commit(tx).unwrap();
    let gate = db.stats().gate;
    assert_eq!(
        gate.exclusive_acquisitions, before.exclusive_acquisitions,
        "DML and reads must run under the shared maintenance gate only"
    );
    assert!(gate.shared_acquisitions > before.shared_acquisitions, "the shared gate was exercised");

    // Phase 2: conflicting writers on the *same* object serialize. The
    // first writer parks holding its X lock; the second's set() cannot
    // complete before the first commits.
    let hold = Duration::from_millis(250);
    let first_committed = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        let db1 = Arc::clone(&db);
        let sync = Arc::clone(&first_committed);
        scope.spawn(move || {
            let tx = db1.begin();
            db1.set(&tx, a0, "n", Value::Int(100)).unwrap();
            sync.wait(); // let the rival issue its conflicting write
            std::thread::sleep(hold);
            db1.commit(tx).unwrap();
        });
        let db2 = Arc::clone(&db);
        let sync = Arc::clone(&first_committed);
        scope.spawn(move || {
            sync.wait();
            let started = Instant::now();
            let tx = db2.begin();
            db2.set(&tx, a0, "n", Value::Int(200)).unwrap();
            let waited = started.elapsed();
            db2.commit(tx).unwrap();
            assert!(
                waited >= hold / 2,
                "conflicting writer finished in {waited:?}; it must block behind the X lock"
            );
        });
    });
    let tx = db.begin();
    assert_eq!(db.get(&tx, a0, "n").unwrap(), Value::Int(200), "second writer won");
    db.commit(tx).unwrap();
}

/// Readers of an object block on a writer's X lock until commit, and
/// then see the committed value (no dirty reads).
#[test]
fn no_dirty_reads() {
    let (db, accounts) = accounts(8, LockingStrategy::Granular);
    let target = accounts[0];
    let writer = db.begin();
    db.set(&writer, target, "balance", Value::Int(777)).unwrap();

    let db2 = Arc::clone(&db);
    let reader = std::thread::spawn(move || {
        let tx = db2.begin();
        let v = db2.get(&tx, target, "balance").unwrap();
        db2.commit(tx).unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(50));
    db.commit(writer).unwrap();
    assert_eq!(reader.join().unwrap(), Value::Int(777), "reader saw the committed value");
}

/// A writer's effects disappear for others after rollback.
#[test]
fn rollback_is_invisible_to_later_readers() {
    let (db, accounts) = accounts(8, LockingStrategy::Granular);
    let target = accounts[0];
    let writer = db.begin();
    db.set(&writer, target, "balance", Value::Int(-1)).unwrap();
    db.rollback(writer).unwrap();
    let tx = db.begin();
    assert_eq!(db.get(&tx, target, "balance").unwrap(), Value::Int(1000));
    db.commit(tx).unwrap();
}

/// Regression: transaction rollback takes the catalog write lock (it
/// may reinstall the persisted schema snapshot); concurrent readers and
/// writers blocking on 2PL locks must never hold a catalog guard, or
/// the two would deadlock. Hammer rollbacks against blocked writers.
#[test]
fn rollbacks_never_deadlock_against_blocked_writers() {
    let (db, accounts) = accounts(8, LockingStrategy::Granular);
    let hot = accounts[0];
    std::thread::scope(|scope| {
        // Thread A: repeatedly writes the hot object and rolls back.
        let db_a = Arc::clone(&db);
        scope.spawn(move || {
            for i in 0..200 {
                // A's own X request can close a waits-for cycle (a
                // reader's S request queues behind A's IX), making A
                // the deadlock victim — a legitimate 2PL outcome. The
                // property under test is that the rollback itself
                // always completes, so roll back and retry.
                let s = &mut Embedded::new(&db_a);
                until_granted(s, |s| s.set(hot, "balance", Value::Int(i)));
                s.rollback().unwrap();
            }
        });
        // Threads B, C: contend on the same hot object (their lock
        // acquisitions block behind A's X lock) and run queries (which
        // take catalog read guards).
        for t in 0..2 {
            let db_b = Arc::clone(&db);
            scope.spawn(move || {
                for i in 0..100 {
                    let s = &mut Embedded::new(&db_b);
                    until_granted(s, |s| {
                        s.set(hot, "balance", Value::Int(1000 + t * 100 + i))?;
                        s.query("select count(*) from Account a").map(drop)
                    });
                    s.commit().unwrap();
                }
            });
        }
    });
    // Still consistent and responsive afterwards.
    let tx = db.begin();
    assert!(db.get(&tx, hot, "balance").unwrap().as_int().is_some());
    db.commit(tx).unwrap();
}

/// Elevated-thread-count stress: many writers per class across several
/// classes, interleaved with queries and rollbacks, all hammering the
/// decomposed runtime at once. Ignored in the default test run; CI
/// executes it explicitly in release mode (`scripts/ci.sh`).
#[test]
#[ignore = "stress run; executed by scripts/ci.sh via --ignored in release mode"]
fn stress_many_writers_across_classes_stay_consistent() {
    let config = DbConfig { lock_timeout: Duration::from_secs(60), ..DbConfig::default() };
    let db = Arc::new(Database::with_config(config));
    let classes = 8usize;
    let writers_per_class = 4usize;
    let ops_per_writer = 150usize;
    let mut seeds = Vec::new();
    for c in 0..classes {
        let name = format!("Stress{c}");
        let n = AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int));
        db.create_class(&name, &[], vec![n]).unwrap();
        let tx = db.begin();
        let oid = db.create_object(&tx, &name, vec![("n", Value::Int(0))]).unwrap();
        db.commit(tx).unwrap();
        seeds.push(oid);
    }
    std::thread::scope(|scope| {
        for (c, &hot) in seeds.iter().enumerate() {
            for w in 0..writers_per_class {
                let db = Arc::clone(&db);
                let class_name = format!("Stress{c}");
                scope.spawn(move || {
                    for i in 0..ops_per_writer {
                        let s = &mut Embedded::new(&db);
                        until_granted(s, |s| {
                            // Mix: bump the hot object, insert a fresh
                            // one, read back, sometimes query.
                            let v = s.get(hot, "n")?.as_int().unwrap();
                            s.set(hot, "n", Value::Int(v + 1))?;
                            let n = Value::Int((w * ops_per_writer + i) as i64);
                            s.create(&class_name, vec![("n", n)])?;
                            if i % 16 == 0 {
                                s.query(&format!("select count(*) from {class_name} s"))?;
                            }
                            Ok(())
                        });
                        // Sporadic rollback exercises the exclusive gate
                        // against live DML.
                        if i % 13 == 5 { s.rollback() } else { s.commit() }.unwrap();
                    }
                });
            }
        }
    });
    // Every class's hot counter equals its committed increments; every
    // committed insert is visible in the extent.
    for (c, hot) in seeds.iter().enumerate() {
        let tx = db.begin();
        let n = db.get(&tx, *hot, "n").unwrap().as_int().unwrap();
        let r = db.query(&tx, &format!("select count(*) from Stress{c} s")).unwrap();
        let members = r.rows[0][0].as_int().unwrap();
        db.commit(tx).unwrap();
        assert!(n > 0, "class Stress{c} saw committed increments");
        assert_eq!(
            members,
            n + 1,
            "class Stress{c}: one seed plus exactly one insert per committed bump"
        );
    }
}

/// Queries read MVCC snapshots and hold no class locks, so a schema
/// change proceeds immediately even while a reader transaction that has
/// already queried the hierarchy stays open ([GARZ88]'s readers-block-
/// schema-change trade-off, inverted).
#[test]
fn snapshot_readers_do_not_block_schema_change() {
    let config = DbConfig { lock_timeout: Duration::from_secs(30), ..DbConfig::default() };
    let db = Arc::new(Database::with_config(config));
    db.create_class("Thing", &[], vec![AttrSpec::new("x", Domain::Primitive(PrimitiveType::Int))])
        .unwrap();
    db.create_class("SubThing", &["Thing"], vec![]).unwrap();
    let tx = db.begin();
    db.create_object(&tx, "SubThing", vec![("x", Value::Int(1))]).unwrap();
    db.commit(tx).unwrap();

    // An open reader transaction with a completed hierarchy query.
    let reader = db.begin();
    let r = db.query(&reader, "select count(*) from Thing* v").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let stats = db.stats();
    assert_eq!(stats.locks.s_acquisitions, 0, "snapshot queries take no S locks");
    assert!(stats.mvcc.snapshots >= 1, "the query pinned a snapshot");

    // The schema change must NOT wait for the reader: with a 30 s lock
    // timeout, finishing quickly is only possible if no lock was held.
    let thing = db.with_catalog(|c| c.class_id("Thing")).unwrap();
    let started = std::time::Instant::now();
    db.evolve(
        SchemaChange::AddAttribute {
            class: thing,
            spec: AttrSpec::new("y", Domain::Primitive(PrimitiveType::Int)),
        },
        Migration::Lazy,
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "schema change queued behind a snapshot reader"
    );
    db.commit(reader).unwrap();

    let tx = db.begin();
    let r = db.query(&tx, "select count(*) from Thing* v where v.y is null").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    db.commit(tx).unwrap();
}

/// A scan running while classes are created must not deadlock: the
/// query API holds the catalog guard for the whole execution, a
/// `create_class` queues for the write side, and any further read
/// acquisition underneath the query's own guard would then wait behind
/// that writer forever (the record source used to take one per
/// attribute). Both sides keep going until the other has finished its
/// share too, so the executions overlap; a watchdog turns a hang into a
/// failure.
#[test]
fn scans_and_class_creation_overlap_without_deadlock() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    const SCANS: usize = 40;
    const CLASSES: usize = 40;
    let db = Arc::new(Database::open_in_memory());
    let int = || Domain::Primitive(PrimitiveType::Int);
    db.create_class("Vehicle", &[], vec![AttrSpec::new("weight", int())]).unwrap();
    for sub in ["Truck", "Bus"] {
        db.create_class(sub, &["Vehicle"], vec![]).unwrap();
    }
    let tx = db.begin();
    for i in 0..6_000 {
        let class = if i % 2 == 0 { "Truck" } else { "Bus" };
        db.create_object(&tx, class, vec![("weight", Value::Int(i))]).unwrap();
    }
    db.commit(tx).unwrap();

    let scans = Arc::new(AtomicUsize::new(0));
    let classes = Arc::new(AtomicUsize::new(0));
    let (done, finished) = mpsc::channel();
    // Detached on purpose: if they deadlock, the watchdog below fails
    // the test and the process exit reaps them.
    {
        let (db, scans, classes, done) =
            (Arc::clone(&db), Arc::clone(&scans), Arc::clone(&classes), done.clone());
        std::thread::spawn(move || {
            while scans.load(Ordering::SeqCst) < SCANS || classes.load(Ordering::SeqCst) < CLASSES {
                let tx = db.begin();
                let r = db.query(&tx, "select count(*) from Vehicle* v where v.weight > 5");
                assert_eq!(r.unwrap().rows[0][0], Value::Int(5_994));
                db.commit(tx).unwrap();
                scans.fetch_add(1, Ordering::SeqCst);
            }
            done.send("scanner").unwrap();
        });
    }
    {
        let (db, scans, classes) = (Arc::clone(&db), Arc::clone(&scans), Arc::clone(&classes));
        std::thread::spawn(move || {
            while scans.load(Ordering::SeqCst) < SCANS || classes.load(Ordering::SeqCst) < CLASSES {
                let n = classes.load(Ordering::SeqCst);
                db.create_class(&format!("Side{n}"), &[], vec![AttrSpec::new("n", int())]).unwrap();
                classes.fetch_add(1, Ordering::SeqCst);
            }
            done.send("class creator").unwrap();
        });
    }
    for _ in 0..2 {
        finished.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| {
            panic!(
                "deadlock: after {} scans and {} classes neither thread makes progress",
                scans.load(Ordering::SeqCst),
                classes.load(Ordering::SeqCst)
            )
        });
    }
}
