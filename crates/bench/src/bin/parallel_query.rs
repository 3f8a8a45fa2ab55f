//! Parallel-query benchmark: measures the two claims behind the
//! read-concurrent runtime work and records them in
//! `BENCH_parallel_query.json` at the workspace root.
//!
//! 1. *Intra-query parallelism*: a hierarchy scan with a residual
//!    predicate over >10k objects, executed with 1 vs 4 worker threads
//!    against the same plan and database.
//!    Then *work per candidate row* on data four times the buffer pool:
//!    object fetches and snapshot reads per row scanned, pool misses
//!    per query against heap pages, and the degree the executor chose
//!    (gated as counts; the two timings are for the record), and what
//!    one page miss costs: a checked page read off a memory device and
//!    a buffer-pool miss at capacity (gated in ns, best of 5).
//! 2. *Mixed read/write scaling*: a fixed budget of write transactions
//!    split across 1, 2, then 4 writer threads on *disjoint classes*,
//!    running concurrently with reader threads — the decomposed-runtime
//!    claim that disjoint writers scale instead of serializing behind
//!    one big lock.
//! 3. *MVCC snapshot reads*: reader queries while 1, 2, then 4 writers
//!    churn continuously take no 2PL lock and never wait on the
//!    exclusive maintenance gate (gated as counts; the reader
//!    throughput is for the record), and a pure-read workload's lock
//!    accounting (`lock_acquisitions` ≈ 0, resolution visible in
//!    `orion_mvcc_*`).
//! 4. *Group commit*: a fixed budget of commits split across 1, 8, then
//!    64 concurrent committers with a group-commit window — one flush
//!    leader's fsync should make many transactions durable, driving
//!    flushes-per-commit well below 1 (gated < 0.5 at 8 committers).
//!
//! The binary checks every gate itself and exits nonzero on a breach.

use orion_bench::{fleet, pinned, Cmp, Gates};
use orion_core::{AttrSpec, Database, DbConfig, DbStats, Domain, Oid, PrimitiveType, Value};
use orion_query::{execute_with, DataSource, ExecMetrics, ExecOptions};
use orion_storage::{BufferPool, PageDevice, PageId, PAGE_SIZE};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_OBJECTS: usize = 12_000;
const QUERY: &str = "select v from Vehicle* v \
     where v.weight > 2000 and v.manufacturer.location = \"Detroit\"";
/// Workers of the parallel arm of section 1.
const THREADS: usize = 4;
/// Budget of `work.fetch_ns_per_object`.
const FETCH_NS_BUDGET: f64 = 800.0;

fn best_of(rounds: usize, mut f: impl FnMut() -> usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut len = 0;
    for _ in 0..rounds {
        let start = Instant::now();
        len = f();
        best = best.min(start.elapsed());
    }
    (best, len)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// A pinned CPU as JSON (`null` where the loop ran unpinned).
fn json_cpu(cpu: Option<usize>) -> String {
    cpu.map_or("null".to_owned(), |c| c.to_string())
}

fn cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn main() {
    let mut gates = Gates::default();
    let fixture = fleet(N_OBJECTS, 4, DbConfig { query_threads: 1, ..DbConfig::default() });
    let db = &fixture.db;
    let tx = db.begin();
    let planned = db.prepare_query(&tx, QUERY).expect("plan");

    // --- 1. Serial vs 4-thread execution of one query -----------------
    let run_with = |opts: &ExecOptions| {
        db.with_snapshot(None, |cat, src| {
            execute_with(cat, src, &planned, opts).expect("execute").len()
        })
    };
    let run = |threads: usize| run_with(&ExecOptions::with_threads(threads));
    let (_, _) = best_of(2, || run(1)); // warm the buffer pool
    let (serial, len_serial) = best_of(5, || run(1));
    let (par4, len_par4) = best_of(5, || run(THREADS));
    assert_eq!(len_serial, len_par4, "parallel result diverged");
    let speedup = serial.as_secs_f64() / par4.as_secs_f64();
    println!(
        "single query over {N_OBJECTS} objects: serial {serial:?}, 4 threads {par4:?} \
         ({speedup:.2}x, {len_serial} rows)"
    );
    println!("plan: {}", planned.report());

    // --- 1b. Instrumentation overhead: metrics sink off vs on ---------
    // Interleaved repeats: the off and on arms alternate within one
    // loop, so cache/frequency drift hits both equally; the medians
    // (not minima of separate batches) keep one lucky outlier from
    // producing a nonsensical negative overhead.
    let exec_metrics = Arc::new(ExecMetrics::default());
    let opts_off = ExecOptions::with_threads(1);
    let opts_on = ExecOptions {
        threads: 1,
        metrics: Some(Arc::clone(&exec_metrics)),
        ..ExecOptions::default()
    };
    const INSTR_REPEATS: usize = 9;
    let mut off_samples = Vec::with_capacity(INSTR_REPEATS);
    let mut on_samples = Vec::with_capacity(INSTR_REPEATS);
    run_with(&opts_on); // warm both code paths
    for _ in 0..INSTR_REPEATS {
        let start = Instant::now();
        run_with(&opts_off);
        off_samples.push(start.elapsed());
        let start = Instant::now();
        run_with(&opts_on);
        on_samples.push(start.elapsed());
    }
    let metrics_off = median(off_samples);
    let metrics_on = median(on_samples);
    let overhead_pct = (metrics_on.as_secs_f64() / metrics_off.as_secs_f64() - 1.0) * 100.0;
    println!(
        "instrumentation ({INSTR_REPEATS} interleaved repeats, medians): \
         metrics off {metrics_off:?}, on {metrics_on:?} ({overhead_pct:+.2}% overhead)"
    );

    // --- 1c. Work per candidate row, on data larger than the pool ------
    // Counts, not clocks, so the gate holds on any host: a scan decodes
    // each candidate at most once however many paths the residual has,
    // resolves it through MVCC once, and reads each heap page about
    // once per query although the pool holds a fraction of them. The
    // database runs its default configuration, so the degree recorded
    // is the one the executor picked for this host and this extent.
    const WORK_POOL_PAGES: usize = 64;
    const WORK_QUERIES: u64 = 5;
    let small_pool =
        fleet(N_OBJECTS, 4, DbConfig { buffer_pages: WORK_POOL_PAGES, ..DbConfig::default() });
    let wdb = &small_pool.db;
    let work_plan = wdb.prepare_query(&wdb.begin(), QUERY).expect("plan");
    wdb.execute_prepared(&work_plan).expect("warm-up");
    let before = wdb.stats();
    for _ in 0..WORK_QUERIES {
        assert_eq!(wdb.execute_prepared(&work_plan).expect("execute").len(), len_serial);
    }
    let work = wdb.stats();
    let d = |f: fn(&DbStats) -> u64| f(&work) - f(&before);
    let heap_pages = wdb.engine().disk().page_count();
    let per_row = |count: u64| count as f64 / d(|s| s.exec.rows_scanned) as f64;
    let fetches_per_row = per_row(d(|s| s.fetches));
    let snapshot_reads_per_row = per_row(d(|s| s.mvcc.snapshot_reads));
    let directory_probes_per_row = per_row(d(|s| s.directory.probes));
    let misses_per_query = d(|s| s.pool.misses) as f64 / WORK_QUERIES as f64;
    let degree = work.exec.last_parallelism;
    // The chosen degree must not lose to one worker: same plan, same
    // database, interleaved, medians.
    let timed = |threads: usize| {
        let start = Instant::now();
        wdb.with_snapshot(None, |cat, src| {
            let opts = ExecOptions::with_threads(threads);
            execute_with(cat, src, &work_plan, &opts).expect("execute");
        });
        start.elapsed()
    };
    let (mut auto_samples, mut one_samples) = (Vec::new(), Vec::new());
    for _ in 0..INSTR_REPEATS {
        auto_samples.push(timed(0));
        one_samples.push(timed(1));
    }
    let (auto_degree, one_worker) = (median(auto_samples), median(one_samples));
    println!(
        "work per row ({heap_pages} heap pages, {WORK_POOL_PAGES}-page pool): \
         {fetches_per_row:.3} fetches/row, {snapshot_reads_per_row:.3} snapshot reads/row, \
         {directory_probes_per_row:.3} directory probes/row, \
         {misses_per_query:.0} pool misses/query, degree {degree} \
         (auto {auto_degree:?} vs one worker {one_worker:?})"
    );
    // Each candidate is decoded and resolved once however many paths
    // the residual has, located once (the storage-order walk finds its
    // record id, and the batch read reuses it), and each heap page is
    // read about once per query.
    gates.check("work.fetches_per_row", fetches_per_row, Cmp::AtMost, 1.1);
    gates.check("work.snapshot_reads_per_row", snapshot_reads_per_row, Cmp::AtMost, 1.1);
    gates.check("work.directory_probes_per_row", directory_probes_per_row, Cmp::AtMost, 1.05);
    let misses_per_page = misses_per_query / heap_pages as f64;
    gates.check("work.pool_misses_per_heap_page", misses_per_page, Cmp::AtMost, 1.25);

    // What one of those misses costs, single-threaded, best of 5 passes:
    // a checked page read off a memory device, and a pool miss at
    // capacity, where a cyclic pass over more pages than frames makes
    // every access miss. Each budget is a few times the cost of a
    // 4 KiB copy; a table-driven checksum (about 3 µs a page) breaks
    // both. The loops run pinned to one CPU, so no pass is split
    // across cores by a migration.
    const MISS_PAGES: u32 = 1_100;
    const MISS_FRAMES: usize = 256;
    let device = Arc::new(PageDevice::new());
    let mut page = [0u8; PAGE_SIZE];
    for i in 0..MISS_PAGES {
        page.fill(i as u8);
        device.write(device.allocate().expect("allocate"), &page).expect("write");
    }
    let ns_per_page = |d: Duration| d.as_nanos() as f64 / f64::from(MISS_PAGES);
    let pool = BufferPool::new(Arc::clone(&device), MISS_FRAMES, None);
    let pass = || {
        (0..MISS_PAGES).map(|i| pool.with_page(PageId(i), |p| p[0]).expect("page") as usize).sum()
    };
    pass(); // fill the pool
    let misses_before = pool.stats().misses;
    let ((read_pass, miss_pass), pinned_cpu) = pinned(|| {
        let (read_pass, _) = best_of(5, || {
            for i in 0..MISS_PAGES {
                device.read(PageId(i), &mut page).expect("read");
            }
            black_box(&page)[0] as usize
        });
        (read_pass, best_of(5, pass).0)
    });
    let misses = pool.stats().misses - misses_before;
    assert_eq!(misses, 5 * u64::from(MISS_PAGES), "every access misses");
    let (page_read_ns, pool_miss_ns) = (ns_per_page(read_pass), ns_per_page(miss_pass));
    let cpu = pinned_cpu.map_or("unpinned".to_owned(), |c| format!("CPU {c}"));
    println!(
        "page miss ({MISS_PAGES} pages, {MISS_FRAMES}-frame pool, best of 5, {cpu}): \
         page read {page_read_ns:.0} ns, pool miss {pool_miss_ns:.0} ns"
    );
    gates.check("work.page_read_ns", page_read_ns, Cmp::AtMost, 1_000.0);
    gates.check("work.pool_miss_ns", pool_miss_ns, Cmp::AtMost, 1_500.0);

    // What the record source spends per object on a warm batch read
    // without a walk: MVCC resolution, a cache peek, a directory probe
    // and a page read for each non-resident object, and the decode of
    // one attribute. A thousand OIDs spread over the extent, a tenth of
    // them resident; best of 5 passes of 10 fetches, pinned.
    const FETCH_OIDS: usize = 1_000;
    const FETCHES_PER_PASS: usize = 10;
    let (fetch_pass, fetch_cpu) = db.with_snapshot(None, |catalog, source| {
        let vehicle = catalog.class_id("Vehicle").expect("Vehicle");
        let weight = catalog.resolve(vehicle).expect("resolve").attr("weight").expect("weight").id;
        let mut all = Vec::new();
        for &class in catalog.subtree(vehicle).expect("subtree").iter() {
            all.extend(source.scan_class(class).expect("scan"));
        }
        let oids: Vec<Oid> = all.iter().step_by(all.len() / FETCH_OIDS).take(FETCH_OIDS).copied().collect();
        assert_eq!(oids.len(), FETCH_OIDS);
        let fetch = || {
            let records = source.fetch(&oids, None, &[weight]).expect("fetch");
            records.iter().filter(|r| r.is_some()).count()
        };
        assert_eq!(fetch(), FETCH_OIDS, "every object read"); // warm
        pinned(|| best_of(5, || (0..FETCHES_PER_PASS).map(|_| fetch()).sum()).0)
    });
    let fetch_ns_per_object = fetch_pass.as_nanos() as f64 / (FETCH_OIDS * FETCHES_PER_PASS) as f64;
    println!(
        "batch fetch ({FETCH_OIDS} OIDs, best of 5, {}): {fetch_ns_per_object:.0} ns/object",
        fetch_cpu.map_or("unpinned".to_owned(), |c| format!("CPU {c}"))
    );
    gates.check("work.fetch_ns_per_object", fetch_ns_per_object, Cmp::AtMost, FETCH_NS_BUDGET);

    // --- 2. Mixed read/write scaling on disjoint classes --------------
    // A fixed budget of write transactions is split across 1, 2, then 4
    // writer threads, each owning its own class (disjoint 2PL and
    // component-lock footprints), while reader threads run the scan
    // query concurrently. Under the old big-lock runtime every write
    // serialized; with decomposed components the same budget should
    // shrink in wall-clock as writers are added.
    const MIX_WRITERS: [usize; 3] = [1, 2, 4];
    const WRITE_TXNS_TOTAL: usize = 240;
    const MIX_READERS: usize = 2;
    const MIX_QUERIES_PER_READER: usize = 6;
    let ledger_seeds: Vec<Oid> = (0..*MIX_WRITERS.last().unwrap())
        .map(|i| {
            let class = format!("Ledger{i}");
            db.create_class(
                &class,
                &[],
                vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
            )
            .expect("ledger class");
            let seed_tx = db.begin();
            let oid = db
                .create_object(&seed_tx, &class, vec![("n", Value::Int(0))])
                .expect("ledger seed");
            db.commit(seed_tx).expect("commit seed");
            oid
        })
        .collect();
    let mix_time = |writers: usize| {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (t, &seed) in ledger_seeds.iter().enumerate().take(writers) {
                let class = format!("Ledger{t}");
                s.spawn(move || {
                    for i in 0..WRITE_TXNS_TOTAL / writers {
                        let wtx = db.begin();
                        let v = db.get(&wtx, seed, "n").expect("get").as_int().unwrap();
                        db.set(&wtx, seed, "n", Value::Int(v + 1)).expect("set");
                        db.create_object(&wtx, &class, vec![("n", Value::Int(i as i64))])
                            .expect("create");
                        db.commit(wtx).expect("commit write txn");
                    }
                });
            }
            for _ in 0..MIX_READERS {
                s.spawn(|| {
                    for _ in 0..MIX_QUERIES_PER_READER {
                        let n = run(1);
                        assert_eq!(n, len_serial, "writer traffic must not disturb the query");
                    }
                });
            }
        });
        start.elapsed()
    };
    mix_time(1); // warm-up
    let mix: Vec<(usize, Duration)> = MIX_WRITERS.iter().map(|&w| (w, mix_time(w))).collect();
    for (w, d) in &mix {
        println!(
            "mixed load, {w} writer(s) on disjoint classes + {MIX_READERS} readers: \
             {WRITE_TXNS_TOTAL} write txns in {d:?} ({:.1} writes/s)",
            WRITE_TXNS_TOTAL as f64 / d.as_secs_f64()
        );
    }

    // --- 3. MVCC snapshot reads -----------------------------------------
    // 3a. Readers while writers churn. A snapshot reader takes no 2PL
    // lock and never meets the exclusive gate however many writers run
    // — counted, so it holds on any host; the reader throughput beside
    // it is for the record. Writers run flat-out until the readers
    // finish, so the reader-side work is constant per run.
    const RT_QUERIES_PER_READER: usize = 8;
    // (rows, whether the query left its transaction holding a lock —
    // strict 2PL keeps every lock a transaction took until it ends).
    let facade_query = || {
        let rtx = db.begin();
        let n = db.query(&rtx, QUERY).expect("facade query").len();
        let locked = db.locks().knows_txn(rtx.id());
        db.commit(rtx).expect("commit read txn");
        (n, locked)
    };
    let reader_throughput = |writers: usize| {
        let stop = AtomicBool::new(false);
        let writes = AtomicU64::new(0);
        let lock_queries = AtomicU64::new(0);
        let exclusive_before = db.stats().gate.exclusive_acquisitions;
        let mut reader_qps = 0.0;
        let mut writes_per_s = 0.0;
        std::thread::scope(|s| {
            for (t, &seed) in ledger_seeds.iter().enumerate().take(writers) {
                let class = format!("Ledger{t}");
                let (stop, writes) = (&stop, &writes);
                s.spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let wtx = db.begin();
                        let v = db.get(&wtx, seed, "n").expect("get").as_int().unwrap();
                        db.set(&wtx, seed, "n", Value::Int(v + 1)).expect("set");
                        db.create_object(&wtx, &class, vec![("n", Value::Int(i))])
                            .expect("create");
                        db.commit(wtx).expect("commit write txn");
                        writes.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            let start = Instant::now();
            let readers: Vec<_> = (0..MIX_READERS)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..RT_QUERIES_PER_READER {
                            let (n, locked) = facade_query();
                            assert_eq!(n, len_serial, "snapshot query saw writer churn");
                            lock_queries.fetch_add(u64::from(locked), Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in readers {
                h.join().unwrap();
            }
            let elapsed = start.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            reader_qps = (MIX_READERS * RT_QUERIES_PER_READER) as f64 / elapsed;
            writes_per_s = writes.load(Ordering::Relaxed) as f64 / elapsed;
        });
        let exclusive = db.stats().gate.exclusive_acquisitions - exclusive_before;
        (reader_qps, writes_per_s, lock_queries.into_inner(), exclusive)
    };
    reader_throughput(1); // warm-up
    let throughput: Vec<(usize, f64, f64, u64, u64)> = MIX_WRITERS
        .iter()
        .map(|&w| {
            let (qps, wps, lock_queries, exclusive) = reader_throughput(w);
            (w, qps, wps, lock_queries, exclusive)
        })
        .collect();
    for (w, qps, wps, lock_queries, exclusive) in &throughput {
        println!(
            "snapshot readers vs {w} writer(s): {MIX_READERS} readers at {qps:.1} queries/s \
             while writers commit {wps:.1} txns/s; {lock_queries} reader queries took a lock, \
             {exclusive} exclusive-gate acquisitions"
        );
        let name = |what: &str| format!("readers_vs_{w}_writers.{what}");
        gates.check(&name("lock_queries"), *lock_queries as f64, Cmp::Equal, 0.0);
        gates.check(&name("gate_exclusive"), *exclusive as f64, Cmp::Equal, 0.0);
    }
    let base_qps = throughput[0].1;
    let last_qps = throughput.last().unwrap().1;
    let reader_degradation_pct = (base_qps - last_qps) / base_qps * 100.0;
    println!(
        "reader throughput degradation 1 -> {} writers: {reader_degradation_pct:+.1}%",
        MIX_WRITERS.last().unwrap(),
    );

    // A few facade-path queries so the database's own executor metrics
    // are populated, then snapshot every layer's counters.
    for _ in 0..3 {
        db.query(&tx, QUERY).expect("query");
    }
    let stats = db.stats();
    db.commit(tx).expect("commit");

    // 3b. Pure-read lock accounting: a read-only workload must resolve
    // entirely through snapshots — ~0 2PL lock acquisitions, every read
    // visible in the orion_mvcc_* counters.
    let before = db.stats();
    let pure_read_queries = MIX_READERS * RT_QUERIES_PER_READER;
    let pure_start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..MIX_READERS {
            s.spawn(|| {
                for _ in 0..RT_QUERIES_PER_READER {
                    assert_eq!(facade_query().0, len_serial);
                }
            });
        }
    });
    let pure_read_qps = pure_read_queries as f64 / pure_start.elapsed().as_secs_f64();
    let after = db.stats();
    let d = |f: fn(&DbStats) -> u64| f(&after) - f(&before);
    let pure_locks = d(|s| s.locks.acquisitions);
    let pure_s_locks = d(|s| s.locks.s_acquisitions);
    let pure_snapshots = d(|s| s.mvcc.snapshots);
    let pure_snapshot_reads = d(|s| s.mvcc.snapshot_reads);
    println!(
        "pure-read workload ({pure_read_queries} queries): {pure_locks} lock acquisitions \
         ({pure_s_locks} S-mode), {pure_snapshots} snapshots, {pure_snapshot_reads} snapshot \
         reads, {pure_read_qps:.1} queries/s",
    );
    gates.check("pure_read.lock_acquisitions", pure_locks as f64, Cmp::AtMost, 4.0);

    // --- 4. Group commit: flushes per commit vs committer count --------
    // A fixed budget of tiny write transactions, split across 1, 8,
    // then 64 concurrent committers. Every commit forces the log, but
    // with a group-commit window the flush leader's single fsync covers
    // every committer parked on the same ticket; flushes-per-commit is
    // the measure of amortization (1.0 = no sharing).
    const COMMIT_FLEETS: [usize; 3] = [1, 8, 64];
    const COMMITS_TOTAL: usize = 192;
    const GROUP_WINDOW_US: u64 = 500;
    let mut flushes_per_commit = Vec::new();
    let commit_rows: Vec<String> = COMMIT_FLEETS
        .iter()
        .map(|&committers| {
            let cdb = Database::with_config(DbConfig {
                group_commit_window: Duration::from_micros(GROUP_WINDOW_US),
                ..DbConfig::default()
            });
            cdb.create_class(
                "Entry",
                &[],
                vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
            )
            .expect("entry class");
            let before = cdb.stats().wal;
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..committers {
                    let cdb = &cdb;
                    s.spawn(move || {
                        for i in 0..COMMITS_TOTAL / committers {
                            let wtx = cdb.begin();
                            cdb.create_object(&wtx, "Entry", vec![("n", Value::Int(i as i64))])
                                .expect("create");
                            cdb.commit(wtx).expect("commit");
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let after = cdb.stats().wal;
            let fsyncs = after.fsyncs - before.fsyncs;
            let group_flushes =
                after.group_commit_batch_size.count - before.group_commit_batch_size.count;
            let commits = (COMMITS_TOTAL / committers * committers) as u64;
            let per_commit = fsyncs as f64 / commits as f64;
            flushes_per_commit.push(per_commit);
            println!(
                "group commit, {committers} committer(s): {commits} commits in {elapsed:?} \
                 ({:.1}/s), {fsyncs} fsyncs ({per_commit:.3} flushes/commit, \
                 {group_flushes} group flushes)",
                commits as f64 / elapsed.as_secs_f64(),
            );
            format!(
                "{{ \"committers\": {committers}, \"commits\": {commits}, \"ms\": {:.3}, \
                 \"commits_per_s\": {:.1}, \"fsyncs\": {fsyncs}, \
                 \"flushes_per_commit\": {per_commit:.4} }}",
                elapsed.as_secs_f64() * 1e3,
                commits as f64 / elapsed.as_secs_f64(),
            )
        })
        .collect();
    let commit_throughput = commit_rows.join(",\n      ");
    // One fsync covers many committers (at 1 it is necessarily 1.0).
    gates.check("group_commit.flushes_per_commit_at_8", flushes_per_commit[1], Cmp::Below, 0.5);

    let cpus = cpus();
    // Threads cannot beat serial wall-clock on a host with fewer cores
    // than workers; say so in the record instead of leaving a mystery.
    let note = if cpus < THREADS {
        format!(
            ",\n  \"note\": \"host exposes {cpus} CPU(s); speedups are \
             core-bound and need >= {THREADS} cores to manifest\""
        )
    } else {
        String::new()
    };
    let writer_scaling = mix
        .iter()
        .map(|(w, d)| {
            format!(
                "{{ \"writers\": {w}, \"ms\": {:.3}, \"write_txns_per_s\": {:.1} }}",
                d.as_secs_f64() * 1e3,
                WRITE_TXNS_TOTAL as f64 / d.as_secs_f64()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let reader_vs_writers = throughput
        .iter()
        .map(|(w, qps, wps, lock_queries, exclusive)| {
            format!(
                "{{ \"writers\": {w}, \"reader_qps\": {qps:.1}, \"writes_per_s\": {wps:.1}, \
                 \"reader_lock_queries\": {lock_queries}, \"gate_exclusive\": {exclusive} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let json = format!(
        "{{\n  \"bench\": \"parallel_query\",\n  \"objects\": {N_OBJECTS},\n  \
         \"query\": \"hierarchy scan + residual (weight, manufacturer.location)\",\n  \
         \"available_parallelism\": {cpus}{note},\n  \
         \"single_query\": {{\n    \"serial_ms\": {:.3},\n    \"threads4_ms\": {:.3},\n    \
         \"speedup\": {:.3},\n    \"rows\": {len_serial}\n  }},\n  \
         \"work_per_row\": {{\n    \"pool_pages\": {WORK_POOL_PAGES},\n    \
         \"heap_pages\": {heap_pages},\n    \"queries\": {WORK_QUERIES},\n    \
         \"fetches_per_row\": {fetches_per_row:.4},\n    \
         \"snapshot_reads_per_row\": {snapshot_reads_per_row:.4},\n    \
         \"directory_probes_per_row\": {directory_probes_per_row:.4},\n    \
         \"pool_misses_per_query\": {misses_per_query:.1},\n    \
         \"degree\": {degree},\n    \"auto_degree_ms\": {:.3},\n    \
         \"one_worker_ms\": {:.3}\n  }},\n  \
         \"page_miss\": {{\n    \"pages\": {MISS_PAGES},\n    \"pool_frames\": {MISS_FRAMES},\n    \
         \"page_read_ns\": {page_read_ns:.0},\n    \"pool_miss_ns\": {pool_miss_ns:.0},\n    \
         \"pinned_cpu\": {}\n  }},\n  \
         \"batch_fetch\": {{\n    \"oids\": {FETCH_OIDS},\n    \
         \"fetch_ns_per_object\": {fetch_ns_per_object:.0},\n    \"pinned_cpu\": {}\n  }},\n  \
         \"mixed_read_write\": {{\n    \"write_txns_total\": {WRITE_TXNS_TOTAL},\n    \
         \"readers\": {MIX_READERS},\n    \
         \"queries_per_reader\": {MIX_QUERIES_PER_READER},\n    \
         \"disjoint_class_writer_scaling\": [\n      {writer_scaling}\n    ],\n    \
         \"reader_throughput_vs_writers\": [\n      {reader_vs_writers}\n    ],\n    \
         \"reader_degradation_pct\": {reader_degradation_pct:.1},\n    \
         \"pure_read_queries\": {pure_read_queries},\n    \
         \"pure_read_lock_acquisitions\": {},\n    \
         \"pure_read_s_lock_acquisitions\": {},\n    \
         \"pure_read_snapshots\": {},\n    \
         \"pure_read_snapshot_reads\": {},\n    \
         \"pure_read_qps\": {pure_read_qps:.1}\n  }},\n  \
         \"commit_throughput\": {{\n    \"group_commit_window_us\": {GROUP_WINDOW_US},\n    \
         \"runs\": [\n      {commit_throughput}\n    ]\n  }},\n  \
         \"instrumentation\": {{\n    \"repeats\": {INSTR_REPEATS},\n    \
         \"interleaved\": true,\n    \"metrics_off_median_ms\": {:.3},\n    \
         \"metrics_on_median_ms\": {:.3},\n    \"overhead_pct\": {:.3}\n  }},\n  \
         \"stats\": {{\n    \"pool_hits\": {},\n    \"pool_misses\": {},\n    \
         \"wal_appends\": {},\n    \"wal_flushes\": {},\n    \
         \"lock_acquisitions\": {},\n    \"s_lock_acquisitions\": {},\n    \
         \"x_lock_acquisitions\": {},\n    \"mvcc_snapshots\": {},\n    \
         \"mvcc_snapshot_reads\": {},\n    \"mvcc_versions_published\": {},\n    \
         \"mvcc_versions_pruned\": {},\n    \"exec_queries\": {},\n    \
         \"exec_rows_scanned\": {},\n    \"object_fetches\": {}\n  }},\n  {}\n}}\n",
        serial.as_secs_f64() * 1e3,
        par4.as_secs_f64() * 1e3,
        speedup,
        auto_degree.as_secs_f64() * 1e3,
        one_worker.as_secs_f64() * 1e3,
        json_cpu(pinned_cpu),
        json_cpu(fetch_cpu),
        pure_locks,
        pure_s_locks,
        pure_snapshots,
        pure_snapshot_reads,
        metrics_off.as_secs_f64() * 1e3,
        metrics_on.as_secs_f64() * 1e3,
        overhead_pct,
        stats.pool.hits,
        stats.pool.misses,
        stats.wal.appends,
        stats.wal.flushes,
        stats.locks.acquisitions,
        stats.locks.s_acquisitions,
        stats.locks.x_acquisitions,
        stats.mvcc.snapshots,
        stats.mvcc.snapshot_reads,
        stats.mvcc.versions_published,
        stats.mvcc.versions_pruned,
        stats.exec.queries,
        stats.exec.rows_scanned,
        stats.fetches,
        gates.json(),
    );
    std::fs::write("BENCH_parallel_query.json", &json).expect("write BENCH_parallel_query.json");
    println!("wrote BENCH_parallel_query.json");
    gates.finish();
}
