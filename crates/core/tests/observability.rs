//! The unified observability layer: `Database::stats()` snapshots,
//! `DbConfig::builder()` validation, counter coherence under
//! concurrency, and counters that never go down.

use orion_core::{
    AttrSpec, Database, DbConfig, DbError, Domain, FaultKind, FaultPlan, LockingStrategy,
    PrimitiveType, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn int() -> Domain {
    Domain::Primitive(PrimitiveType::Int)
}

fn str_dom() -> Domain {
    Domain::Primitive(PrimitiveType::Str)
}

/// Build a small Figure-1 style schema: `n` vehicles split over two
/// subclasses, manufactured by two companies.
fn build_schema(db: &Database, n: u64) {
    let company = db
        .create_class("Company", &[], vec![AttrSpec::new("location", str_dom())])
        .unwrap();
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("weight", int()),
            AttrSpec::new("manufacturer", Domain::Class(company)),
        ],
    )
    .unwrap();
    db.create_class("Automobile", &["Vehicle"], vec![]).unwrap();
    db.create_class("Truck", &["Vehicle"], vec![]).unwrap();

    let tx = db.begin();
    let detroit = db
        .create_object(&tx, "Company", vec![("location", Value::str("Detroit"))])
        .unwrap();
    let austin = db
        .create_object(&tx, "Company", vec![("location", Value::str("Austin"))])
        .unwrap();
    for i in 0..n {
        let class = if i % 2 == 0 { "Truck" } else { "Automobile" };
        let manu = if i % 3 == 0 { detroit } else { austin };
        db.create_object(
            &tx,
            class,
            vec![("weight", Value::Int(i as i64)), ("manufacturer", Value::Ref(manu))],
        )
        .unwrap();
    }
    db.commit(tx).unwrap();
}

#[test]
fn builder_rejects_invalid_settings() {
    let err = DbConfig::builder().buffer_pages(0).build().unwrap_err();
    assert!(matches!(err, DbError::Config(_)), "zero buffer pool rejected: {err}");
    assert!(err.to_string().contains("buffer_pages"));

    let err = DbConfig::builder().cache_objects(0).build().unwrap_err();
    assert!(matches!(err, DbError::Config(_)), "zero cache rejected: {err}");

    let err = DbConfig::builder().lock_timeout(Duration::ZERO).build().unwrap_err();
    assert!(matches!(err, DbError::Config(_)), "zero lock timeout rejected: {err}");

    // try_with_config runs the same validation.
    let bad = DbConfig { buffer_pages: 0, ..DbConfig::default() };
    assert!(matches!(Database::try_with_config(bad), Err(DbError::Config(_))));

    // A valid builder chain produces a working database.
    let config = DbConfig::builder()
        .buffer_pages(64)
        .cache_objects(512)
        .swizzling(false)
        .locking(LockingStrategy::Granular)
        .clustering(false)
        .lock_timeout(Duration::from_millis(250))
        .query_threads(2)
        .build()
        .unwrap();
    assert_eq!(config.buffer_pages, 64);
    assert_eq!(config.query_threads, 2);
    let db = Database::try_with_config(config).unwrap();
    build_schema(&db, 4);
    let tx = db.begin();
    assert_eq!(db.query(&tx, "select count(*) from Vehicle* v").unwrap().rows[0][0], Value::Int(4));
    db.commit(tx).unwrap();
}

#[test]
fn stats_nonzero_after_mixed_workload() {
    // Tiny pool so the workload spills: evictions and writebacks too.
    let config =
        DbConfig::builder().buffer_pages(4).cache_objects(64).query_threads(4).build().unwrap();
    let db = Database::try_with_config(config).unwrap();
    // ~800 records span well over 4 pages, so the pool must evict.
    build_schema(&db, 800);

    // Some updates, a delete, and parallel queries on top of the DML
    // performed by build_schema.
    let tx = db.begin();
    let trucks = db.query(&tx, "select v from Truck v where v.weight < 20").unwrap();
    for &oid in &trucks.oids[..5] {
        db.set(&tx, oid, "weight", Value::Int(1000)).unwrap();
    }
    db.delete_object(&tx, trucks.oids[5]).unwrap();
    db.query(&tx, "select v from Vehicle* v where v.weight > 100").unwrap();
    db.query(&tx, "select v.manufacturer.location from Vehicle* v where v.weight > 250").unwrap();
    db.commit(tx).unwrap();

    let stats = db.stats();
    // Acceptance: nonzero buffer-pool, WAL, lock, and executor counters.
    assert!(stats.pool.hits > 0, "pool hits: {stats:?}");
    assert!(stats.pool.misses > 0, "pool misses (16-frame pool must spill)");
    assert!(stats.pool.evictions > 0, "pool evictions");
    assert!(stats.wal.appends > 0, "wal appends");
    assert!(stats.wal.flushes > 0, "commit flushed the log");
    assert!(stats.wal.flushed_bytes > 0, "flushed bytes");
    assert_eq!(stats.wal.flush_latency.count, stats.wal.flushes, "every flush timed");
    assert!(stats.locks.acquisitions > 0, "lock acquisitions");
    assert!(stats.exec.queries >= 3, "executor ran the queries: {:?}", stats.exec);
    assert!(stats.exec.rows_scanned > 0, "candidates counted");
    assert!(stats.exec.rows_matched > 0, "matches counted");
    assert!(stats.exec.scan_picks >= 3, "extent scans picked (no indexes defined)");
    assert!(stats.fetches > 0, "objects decoded from storage");

    // The Prometheus rendering carries the same values.
    let text = stats.render_prometheus();
    assert!(text.contains(&format!("orion_wal_appends_total {}", stats.wal.appends)));
    assert!(text.contains(&format!("orion_lock_acquisitions_total {}", stats.locks.acquisitions)));
    assert!(text.contains("orion_wal_flush_latency_seconds_bucket"));
    assert!(text.contains("# TYPE orion_exec_queries_total counter"));
}

#[test]
fn method_dispatches_are_counted() {
    let db = Database::open_in_memory();
    build_schema(&db, 6);
    db.define_method(
        "Vehicle",
        "describe",
        0,
        Arc::new(|db, tx, receiver, _args| {
            let w = db.get(tx, receiver, "weight")?;
            Ok(Value::Str(format!("vehicle weighing {w}")))
        }),
    )
    .unwrap();
    let tx = db.begin();
    let v = db.query(&tx, "select v from Truck v").unwrap().oids[0];
    for _ in 0..4 {
        db.call(&tx, v, "describe", &[]).unwrap();
    }
    db.commit(tx).unwrap();
    assert_eq!(db.stats().method_calls, 4);
}

#[test]
fn counters_stay_monotonic_under_concurrent_readers_and_writer() {
    let config = DbConfig::builder().query_threads(2).build().unwrap();
    let db = Arc::new(Database::try_with_config(config).unwrap());
    build_schema(&db, 200);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Writer: a stream of small committed transactions.
        s.spawn(|| {
            for i in 0..40u64 {
                let tx = db.begin();
                db.create_object(
                    &tx,
                    "Automobile",
                    vec![("weight", Value::Int(10_000 + i as i64))],
                )
                .unwrap();
                db.commit(tx).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Query readers keep the executor busy.
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let tx = db.begin();
                    db.query(&tx, "select count(*) from Vehicle* v where v.weight >= 0").unwrap();
                    db.commit(tx).unwrap();
                }
            });
        }
        // Stats readers: snapshots mid-workload must never deadlock and
        // the monotonic counters must never move backwards.
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = db.stats();
                while !stop.load(Ordering::Relaxed) {
                    let now = db.stats();
                    assert!(now.wal.appends >= last.wal.appends, "wal.appends went backwards");
                    assert!(
                        now.locks.acquisitions >= last.locks.acquisitions,
                        "locks.acquisitions went backwards"
                    );
                    assert!(now.exec.queries >= last.exec.queries, "exec.queries went backwards");
                    assert!(now.fetches >= last.fetches, "fetches went backwards");
                    assert!(
                        now.exec.memo_lookups >= now.exec.memo_hits,
                        "hits cannot exceed lookups"
                    );
                    last = now;
                }
            });
        }
    });

    // The writer's 40 inserts all landed and were all logged.
    let tx = db.begin();
    let n = db.query(&tx, "select count(*) from Vehicle* v where v.weight >= 10000").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(40));
    db.commit(tx).unwrap();
    assert!(db.stats().wal.appends >= 40, "every insert was logged");
}

/// Every series under a `# TYPE … counter` or `# TYPE … histogram`
/// header of a Prometheus rendering, by series name (labels included).
fn monotonic_series(text: &str) -> HashMap<String, f64> {
    let mut series = HashMap::new();
    let mut monotonic = false;
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("# TYPE ") {
            monotonic = header.ends_with(" counter") || header.ends_with(" histogram");
        } else if monotonic && !line.starts_with('#') {
            let (name, value) = line.rsplit_once(' ').expect("a series line is `name value`");
            series.insert(name.to_owned(), value.parse().expect("a series value is a number"));
        }
    }
    series
}

#[test]
fn no_counter_or_histogram_series_ever_goes_down() {
    let db = Database::open_in_memory();
    let mut last = monotonic_series(&db.stats().render_prometheus());
    let mut check = |step: &str| {
        let now = monotonic_series(&db.stats().render_prometheus());
        for (name, before) in &last {
            let after = now.get(name).unwrap_or_else(|| panic!("{step}: {name} vanished"));
            assert!(after >= before, "{step}: {name} went from {before} to {after}");
        }
        last = now;
    };

    build_schema(&db, 40);
    check("DDL and creates");
    let tx = db.begin();
    let trucks = db.query(&tx, "select v from Truck v where v.weight < 20").unwrap();
    for &oid in &trucks.oids[..3] {
        db.set(&tx, oid, "weight", Value::Int(500)).unwrap();
    }
    db.commit(tx).unwrap();
    check("updates and a query");
    let tx = db.begin();
    db.set(&tx, trucks.oids[3], "weight", Value::Int(900)).unwrap();
    db.rollback(tx).unwrap();
    check("rollback");
    db.cool_caches().unwrap();
    check("cool_caches");
    db.checkpoint().unwrap();
    check("checkpoint");
    db.cool_caches().unwrap();
    db.install_faults(FaultPlan::new(7).fail_nth(FaultKind::ReadError, 1));
    let tx = db.begin();
    assert!(db.get(&tx, trucks.oids[3], "weight").is_err(), "the armed read fault fired");
    db.rollback(tx).unwrap();
    check("an armed fault fired");
    db.clear_faults();
    check("the fault plan cleared");
    db.crash_and_recover().unwrap();
    check("crash_and_recover");
    db.simulate_cold_restart().unwrap();
    check("simulate_cold_restart");
    let tx = db.begin();
    let n = db.query(&tx, "select count(*) from Vehicle* v").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(40));
    db.commit(tx).unwrap();
    check("a query after the restarts");
}
