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

/// Every series of the exposition, in order: name, `# TYPE`, `# HELP`.
/// Pinned from the hand-written rendering the `metrics!` declarations
/// replaced; `orion_disk_allocations_total` and the two
/// `orion_recovery_records_*` series are the snapshot fields that had
/// no series before, and `orion_directory_probes_total` came later with
/// the object directory's lookup count.
const SERIES: &[(&str, &str, &str)] = &[
    ("orion_cache_hits_total", "counter", "Object-cache lookups answered by a resident object"),
    ("orion_cache_misses_total", "counter", "Object-cache lookups that faulted in from storage"),
    (
        "orion_cache_evictions_total",
        "counter",
        "Object-cache residents evicted to stay within capacity",
    ),
    (
        "orion_cache_swizzled_hops_total",
        "counter",
        "Ref traversals answered through a valid swizzle slot",
    ),
    (
        "orion_cache_unswizzled_hops_total",
        "counter",
        "Ref traversals that resolved via the OID map",
    ),
    ("orion_directory_probes_total", "counter", "OIDs looked up in the object directory"),
    ("orion_pool_hits_total", "counter", "Buffer-pool page requests satisfied without disk I/O"),
    ("orion_pool_misses_total", "counter", "Buffer-pool page requests that read from disk"),
    ("orion_pool_evictions_total", "counter", "Buffer-pool frames evicted to make room"),
    ("orion_pool_writebacks_total", "counter", "Dirty pages written back to disk"),
    ("orion_disk_reads_total", "counter", "Pages read from disk"),
    ("orion_disk_writes_total", "counter", "Pages written to disk"),
    ("orion_disk_allocations_total", "counter", "Pages allocated on disk"),
    ("orion_wal_appends_total", "counter", "Log records appended to the WAL"),
    ("orion_wal_flushes_total", "counter", "Non-empty WAL flushes to stable storage"),
    ("orion_wal_flushed_bytes_total", "counter", "Bytes moved to the stable WAL"),
    ("orion_wal_flush_latency_seconds", "histogram", "WAL flush latency"),
    (
        "orion_wal_torn_tail_truncations_total",
        "counter",
        "Torn WAL tails truncated at recovery (end-of-log discipline)",
    ),
    ("orion_wal_fsyncs_total", "counter", "Durability barriers issued against the log device"),
    (
        "orion_wal_logical_records_total",
        "counter",
        "Logical DML records (insert/update/delete/CLR) appended",
    ),
    (
        "orion_wal_group_commit_batch_size",
        "histogram",
        "Committers whose commits one group-commit flush made durable",
    ),
    ("orion_fault_read_errors_total", "counter", "Injected page-read I/O errors"),
    ("orion_fault_write_errors_total", "counter", "Injected page-write I/O errors"),
    ("orion_fault_torn_writes_total", "counter", "Injected torn page writes (prefix persisted)"),
    ("orion_fault_bit_flips_total", "counter", "Injected stored-page bit flips"),
    ("orion_fault_partial_flushes_total", "counter", "Injected partial WAL flushes"),
    ("orion_recovery_completed_total", "counter", "Restart recoveries that completed"),
    ("orion_recovery_failed_total", "counter", "Restart recoveries that failed with an error"),
    (
        "orion_recovery_pages_repaired_total",
        "counter",
        "Corrupt pages rebuilt by log replay during recovery",
    ),
    (
        "orion_recovery_records_redone_total",
        "counter",
        "Logged page changes redo applied (page LSN older)",
    ),
    (
        "orion_recovery_records_skipped_total",
        "counter",
        "Logged page changes redo skipped (page already held them)",
    ),
    (
        "orion_recovery_log_read_seconds",
        "histogram",
        "Recovery time reading and decoding the stable log",
    ),
    (
        "orion_recovery_scrub_seconds",
        "histogram",
        "Recovery time checking pages and rebuilding rotted ones",
    ),
    (
        "orion_recovery_replay_seconds",
        "histogram",
        "Recovery time on analysis, redo, undo and the free-space map",
    ),
    (
        "orion_restart_rebuild_seconds",
        "histogram",
        "Restart time rebuilding derived state from the stored records",
    ),
    (
        "orion_restart_records_rebuilt_total",
        "counter",
        "Stored records decoded and entered by restart rebuilds",
    ),
    ("orion_lock_acquisitions_total", "counter", "Lock requests granted"),
    ("orion_lock_waits_total", "counter", "Lock requests that blocked at least once"),
    ("orion_lock_deadlock_victims_total", "counter", "Lock requests aborted as deadlock victims"),
    ("orion_lock_timeouts_total", "counter", "Lock requests that timed out"),
    ("orion_lock_acquisitions_is_total", "counter", "IS-mode lock grants (intention share)"),
    ("orion_lock_acquisitions_ix_total", "counter", "IX-mode lock grants (intention exclusive)"),
    ("orion_lock_acquisitions_s_total", "counter", "S-mode lock grants (shared reads)"),
    (
        "orion_lock_acquisitions_six_total",
        "counter",
        "SIX-mode lock grants (share + intention exclusive)",
    ),
    ("orion_lock_acquisitions_x_total", "counter", "X-mode lock grants (exclusive writes)"),
    ("orion_lock_wait_latency_seconds", "histogram", "Lock wait latency"),
    ("orion_mvcc_snapshots_total", "counter", "Query snapshots captured"),
    ("orion_mvcc_snapshot_reads_total", "counter", "Record reads resolved under a snapshot"),
    (
        "orion_mvcc_versions_published_total",
        "counter",
        "Committed versions appended to version chains",
    ),
    (
        "orion_mvcc_versions_restamped_total",
        "counter",
        "Rolled-back pre-images re-stamped onto version chains",
    ),
    ("orion_mvcc_versions_pruned_total", "counter", "Superseded versions reclaimed by pruning"),
    (
        "orion_mvcc_version_chain_length",
        "histogram",
        "Version-chain length observed at publish (unit: links)",
    ),
    ("orion_mvcc_active_snapshots", "gauge", "Snapshots currently pinned by running queries"),
    (
        "orion_mvcc_oldest_snapshot_lag",
        "gauge",
        "Commit-timestamp distance from the oldest active snapshot to the frontier",
    ),
    ("orion_exec_queries_total", "counter", "Completed query executions"),
    ("orion_exec_rows_scanned_total", "counter", "Candidate objects pulled from access paths"),
    ("orion_exec_rows_matched_total", "counter", "Objects that survived the residual predicate"),
    (
        "orion_exec_memo_hits_total",
        "counter",
        "Reference steps served from the per-query referenced-object cache",
    ),
    ("orion_exec_memo_lookups_total", "counter", "Reference steps taken by query evaluation"),
    ("orion_exec_index_picks_total", "counter", "Plans that chose an index access path"),
    ("orion_exec_scan_picks_total", "counter", "Plans that chose a full extent scan"),
    ("orion_exec_last_parallelism", "gauge", "Worker threads used by the most recent execution"),
    ("orion_gate_shared_acquisitions_total", "counter", "Shared maintenance-gate acquisitions"),
    (
        "orion_gate_exclusive_acquisitions_total",
        "counter",
        "Exclusive maintenance-gate acquisitions (rebuilds)",
    ),
    (
        "orion_gate_exclusive_wait_seconds",
        "histogram",
        "Exclusive gate wait for shared holders to drain",
    ),
    ("orion_object_fetches_total", "counter", "Objects decoded from storage"),
    ("orion_method_calls_total", "counter", "Late-bound method dispatches"),
    ("orion_net_connections", "gauge", "Currently open client connections"),
    ("orion_net_connections_total", "counter", "Client connections accepted since startup"),
    ("orion_net_requests_total", "counter", "Wire requests served"),
    ("orion_net_errors_total", "counter", "Wire requests answered with an error response"),
    ("orion_net_timeouts_total", "counter", "Connections evicted for idleness or I/O timeout"),
    (
        "orion_net_busy_rejections_total",
        "counter",
        "Connections refused at the door (connection cap or accept queue)",
    ),
    ("orion_net_request_latency_seconds", "histogram", "Server-side request latency"),
    (
        "orion_net_pipeline_depth",
        "histogram",
        "Per-connection pipeline depth at request admission (unit: requests)",
    ),
    (
        "orion_net_requests_shed_total",
        "counter",
        "Requests shed with ServerBusy by admission control",
    ),
    ("orion_net_readiness_wakeups_total", "counter", "Event-loop wakeups across all I/O threads"),
    (
        "orion_net_executor_turns_total",
        "counter",
        "Executor turns: times an executor took a connection's lane",
    ),
    ("orion_net_readiness_wakeups_per_sec", "gauge", "Recent event-loop wakeup rate"),
    ("orion_net_connections_per_worker", "gauge", "Open connections per event-loop thread"),
    (
        "orion_2pc_prepared_transactions",
        "gauge",
        "Transactions prepared and awaiting a coordinator decision",
    ),
    ("orion_2pc_prepares_total", "counter", "Transactions that entered the prepared state"),
    (
        "orion_2pc_commits_total",
        "counter",
        "Prepared transactions committed by coordinator decision",
    ),
    ("orion_2pc_aborts_total", "counter", "Prepared transactions aborted by coordinator decision"),
    (
        "orion_2pc_in_doubt_recovered_total",
        "counter",
        "In-doubt transactions reinstated from the log at recovery",
    ),
];

#[test]
fn exposition_carries_every_declared_series_in_order() {
    let text = Database::open_in_memory().stats().render_prometheus();
    let mut got = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("# HELP ") else { continue };
        let (name, help) = rest.split_once(' ').expect("# HELP name text");
        let ty = lines.next().and_then(|l| l.strip_prefix("# TYPE ")).expect("# TYPE follows");
        let (ty_name, ty) = ty.split_once(' ').expect("# TYPE name kind");
        assert_eq!(ty_name, name, "# TYPE names the series its # HELP does");
        got.push((name, ty, help));
    }
    assert_eq!(got, SERIES);
}

#[test]
fn a_rollback_restamps_rather_than_publishes() {
    let db = Database::open_in_memory();
    build_schema(&db, 1);
    let tx = db.begin();
    let v = db.query(&tx, "select v from Truck v").unwrap().oids[0];
    db.commit(tx).unwrap();
    let before = db.stats().mvcc;
    for w in 0..10 {
        let tx = db.begin();
        db.set(&tx, v, "weight", Value::Int(w)).unwrap();
        db.rollback(tx).unwrap();
    }
    let after = db.stats().mvcc;
    assert_eq!(after.versions_published, before.versions_published, "no commit published");
    assert_eq!(after.versions_restamped - before.versions_restamped, 10);
    assert_eq!(after.chain_length.count, before.chain_length.count, "no chain observed");
}

#[test]
fn restart_phases_are_timed_and_records_counted() {
    let db = Database::open_in_memory();
    build_schema(&db, 8);
    let before = db.stats();
    db.crash_and_recover().unwrap();
    let after = db.stats();
    for (phase, b, a) in [
        ("log_read", before.recovery.log_read, after.recovery.log_read),
        ("scrub", before.recovery.scrub, after.recovery.scrub),
        ("replay", before.recovery.replay, after.recovery.replay),
        ("rebuild", before.restart.rebuild, after.restart.rebuild),
    ] {
        assert_eq!(a.count - b.count, 1, "{phase}: one observation per restart");
    }
    // Two companies and eight vehicles (the system record is not one).
    assert_eq!(after.restart.records_rebuilt - before.restart.records_rebuilt, 10);
}

#[test]
fn version_chain_length_is_exported_in_links() {
    let db = Database::open_in_memory();
    build_schema(&db, 1);
    let tx = db.begin();
    let v = db.query(&tx, "select v from Truck v").unwrap().oids[0];
    db.commit(tx).unwrap();
    let before = db.stats().mvcc.chain_length;
    // A pinned snapshot keeps every version: the first commit leaves a
    // 2-link chain, the second a 3-link one.
    db.with_snapshot(None, |_, _| {
        for w in [1, 2] {
            let tx = db.begin();
            db.set(&tx, v, "weight", Value::Int(w)).unwrap();
            db.commit(tx).unwrap();
        }
    });
    let after = db.stats();
    let chain = after.mvcc.chain_length;
    assert_eq!((chain.count - before.count, chain.sum_micros - before.sum_micros), (2, 5));
    let text = after.render_prometheus();
    let line = |series: &str| {
        let prefix = format!("orion_mvcc_version_chain_length{series} ");
        let value = text.lines().find_map(|l| l.strip_prefix(&prefix));
        value.unwrap_or_else(|| panic!("no {prefix} line in\n{text}")).parse::<u64>().unwrap()
    };
    // Links, unscaled: the 2- and 3-link chains sit above the le="1"
    // bucket and inside le="5", and the sum counts links.
    assert_eq!(line("_sum"), chain.sum_micros);
    assert_eq!(line("_bucket{le=\"5\"}") - line("_bucket{le=\"1\"}"), 2);
    assert_eq!(line("_count"), chain.count);
}
