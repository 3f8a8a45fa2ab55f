//! Read-concurrent query execution over the shared runtime: queries
//! take the runtime's shared lock and run their candidate evaluation on
//! worker threads, so N readers proceed concurrently and serialize only
//! against DML. These tests pin down (a) that a reader fleet plus a
//! writer makes progress without deadlock and sees only consistent
//! states, and (b) that the parallel facade produces results identical
//! to a serial-configured one.

use orion_oodb::orion::{
    AttrSpec, Database, DbConfig, DbError, Domain, PrimitiveType, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ITEMS: i64 = 400;

/// A hierarchy with `ITEMS` instances split over two leaf classes.
fn item_db(query_threads: usize) -> Arc<Database> {
    let config = DbConfig {
        query_threads,
        lock_timeout: Duration::from_secs(30),
        ..DbConfig::default()
    };
    let db = Arc::new(Database::with_config(config));
    db.create_class(
        "Item",
        &[],
        vec![AttrSpec::new("rank", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    db.create_class("Widget", &["Item"], vec![]).unwrap();
    db.create_class("Gadget", &["Item"], vec![]).unwrap();
    let tx = db.begin();
    for i in 0..ITEMS {
        let class = if i % 2 == 0 { "Widget" } else { "Gadget" };
        // Duplicate ranks (i / 8) exercise order-by tie handling.
        db.create_object(&tx, class, vec![("rank", Value::Int(i / 8))]).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

/// Four readers hammer hierarchy queries while a writer keeps updating
/// ranks. Every read must see a consistent committed state (the writer
/// preserves `rank >= 0`, so the matching count never changes), and the
/// whole workload must drain without deadlocking.
#[test]
fn readers_and_writer_make_progress_without_deadlock() {
    let db = item_db(4);
    let queries_run = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let queries_run = Arc::clone(&queries_run);
            s.spawn(move || {
                for _ in 0..25 {
                    // Retry loop: a reader can be picked as the deadlock
                    // victim when its S locks collide with the writer.
                    loop {
                        let tx = db.begin();
                        match db.query(&tx, "select count(*) from Item* i where i.rank >= 0") {
                            Ok(r) => {
                                assert_eq!(r.rows[0][0], Value::Int(ITEMS), "inconsistent read");
                                db.commit(tx).unwrap();
                                break;
                            }
                            Err(DbError::Deadlock { .. }) | Err(DbError::LockTimeout { .. }) => {
                                db.rollback(tx).unwrap();
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    queries_run.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move || {
            let oids = {
                let tx = db.begin();
                let r = db.query(&tx, "select i from Item* i where i.rank = 0").unwrap();
                db.commit(tx).unwrap();
                r.oids
            };
            for round in 1..=20i64 {
                loop {
                    let tx = db.begin();
                    // 1000+round stays clear of the pre-existing ranks
                    // (0..ITEMS/8) so the final count is unambiguous.
                    let result = oids
                        .iter()
                        .try_for_each(|oid| db.set(&tx, *oid, "rank", Value::Int(1000 + round)));
                    match result {
                        Ok(()) => {
                            db.commit(tx).unwrap();
                            break;
                        }
                        Err(DbError::Deadlock { .. }) | Err(DbError::LockTimeout { .. }) => {
                            db.rollback(tx).unwrap();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            }
        });
    });
    assert_eq!(queries_run.load(Ordering::Relaxed), 100);
    // The writer's last round is durable and visible.
    let tx = db.begin();
    let r = db.query(&tx, "select count(*) from Item* i where i.rank = 1020").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(8));
    db.commit(tx).unwrap();
}

/// A parallel-configured database answers every query shape exactly
/// like a serial one over identical contents (OID allocation is
/// deterministic, so results compare byte-for-byte).
#[test]
fn parallel_facade_matches_serial_facade() {
    let serial = item_db(1);
    let parallel = item_db(8);
    for text in [
        "select i from Item* i where i.rank > 10",
        "select i.rank from Item* i order by i.rank desc limit 33",
        "select i from Widget i where i.rank <= 25 order by i.rank asc",
        "select count(*) from Item* i where i.rank != 7",
        "select i from Item* i limit 5",
    ] {
        let tx_s = serial.begin();
        let tx_p = parallel.begin();
        let a = serial.query(&tx_s, text).unwrap();
        let b = parallel.query(&tx_p, text).unwrap();
        serial.commit(tx_s).unwrap();
        parallel.commit(tx_p).unwrap();
        assert_eq!(a, b, "`{text}` diverged between serial and parallel facades");
    }
}

/// The batch read path's two special records, inside an extent big
/// enough to be walked in several batches: an object whose record
/// spans overflow segments (reassembled through the chain, not the
/// page-at-a-time read), and a generic object, which answers with its
/// default version's attributes.
#[test]
fn scans_read_overflow_records_and_generic_objects() {
    const PLAIN: i64 = 1_500;
    for query_threads in [1, 4] {
        let db = Database::with_config(DbConfig { query_threads, ..DbConfig::default() });
        let int = || Domain::Primitive(PrimitiveType::Int);
        db.create_class(
            "Doc",
            &[],
            vec![
                AttrSpec::new("size", int()),
                AttrSpec::new("body", Domain::Primitive(PrimitiveType::Str)),
            ],
        )
        .unwrap();
        let tx = db.begin();
        for i in 0..PLAIN {
            db.create_object(&tx, "Doc", vec![("size", Value::Int(i)), ("body", Value::str("p"))])
                .unwrap();
        }
        // Three pages' worth of text: a head segment and two tails.
        let long = db
            .create_object(
                &tx,
                "Doc",
                vec![("size", Value::Int(-1)), ("body", Value::Str("x".repeat(10_000)))],
            )
            .unwrap();
        let (generic, v1) = db
            .create_versioned(&tx, "Doc", vec![("size", Value::Int(-2)), ("body", Value::str("v"))])
            .unwrap();
        let v2 = db.derive_version(&tx, v1).unwrap();
        db.set(&tx, v2, "size", Value::Int(-3)).unwrap();
        db.set_default_version(&tx, generic, v2).unwrap();
        db.commit(tx).unwrap();
        // Every record must come from storage: not from the version
        // chains the load left behind (the first snapshot to retire
        // prunes them), nor from the object cache.
        let tx = db.begin();
        db.query(&tx, "select count(*) from Doc d").unwrap();
        db.commit(tx).unwrap();
        db.cool_caches().unwrap();
        let before = db.stats().fetches;

        let tx = db.begin();
        let r = db.query(&tx, "select d, d.size from Doc d where d.size < 0 order by d.size asc").unwrap();
        let fetches = db.stats().fetches - before;
        assert!(fetches >= PLAIN as u64 + 4, "the scan decoded stored records");
        // The generic answers as v2 (its default), so -3 appears twice:
        // ties keep extent order, and the generic was created first.
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Ref(generic), Value::Int(-3)],
                vec![Value::Ref(v2), Value::Int(-3)],
                vec![Value::Ref(v1), Value::Int(-2)],
                vec![Value::Ref(long), Value::Int(-1)],
            ],
            "{query_threads} thread(s)"
        );
        let r = db.query(&tx, "select d.body from Doc d where d.body like \"xx%\"").unwrap();
        assert_eq!(r.oids, vec![long]);
        assert_eq!(r.rows[0][0].as_str().map(str::len), Some(10_000), "reassembled whole");
        let r = db.query(&tx, "select count(*) from Doc d where d.body = \"v\"").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3), "both versions and, through v2, the generic");
        let r = db.query(&tx, "select count(*) from Doc d").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(PLAIN + 4));
        db.commit(tx).unwrap();
    }
}
