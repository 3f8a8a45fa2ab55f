//! The traced run: per-layer metrics measured from outside the program.
//!
//! Four sources, in this order: (1) `Database::stats()` deltas around
//! the measured phase, which alternates untraced and traced quarters so
//! tracing overhead is a like-for-like difference; (2) client-side
//! spans from the traced quarters, written to a span file; (3) a
//! single-connection counted pass whose per-operation counts repeat
//! exactly; (4) the layer probes in `probes`, run on this workload's
//! own data. Everything that writes runs after the final check.

use crate::data::SCRATCH;
use crate::harness::{peak_rss_mb, Live, Recorder, Targets, Workload};
use crate::probes::{self, p50_us};
use crate::run::{absorb, print_latency, summarize_phase, Outcome, RunArgs};
use crate::stats::{median, percentile};
use crate::trace;
use orion_core::{Database, DbResult, DbStats, Value};
use orion_net::Client;
use orion_obs::{HistogramSnapshot, BUCKET_BOUNDS_US};
use std::time::Instant;

/// Operations per kind in the counted pass (queries: [`COUNTED_QUERIES`]).
const COUNTED_OPS: usize = 2_000;
const COUNTED_TXNS: usize = 500;
const COUNTED_QUERIES: usize = 5;

/// Named values collected for the last line.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.0.iter().all(|(n, _)| *n != name),
            "{name} reported twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = after.buckets;
    for (b, old) in buckets.iter_mut().zip(before.buckets) {
        *b = b.saturating_sub(old);
    }
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum_micros: after.sum_micros.saturating_sub(before.sum_micros),
        buckets,
    }
}

/// Percentile `p` of a bucketed histogram, interpolated linearly inside
/// the bucket it falls in (the last, unbounded bucket reports its lower
/// bound). An estimate: the buckets are decades and half-decades wide.
fn hist_percentile(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let want = p * h.count as f64;
    let (mut seen, mut lower) = (0.0, 0.0);
    for (i, count) in h.buckets.iter().enumerate() {
        let upper = BUCKET_BOUNDS_US.get(i).map(|b| *b as f64);
        if seen + *count as f64 >= want && *count > 0 {
            return match upper {
                Some(upper) => lower + (upper - lower) * (want - seen) / *count as f64,
                None => lower,
            };
        }
        seen += *count as f64;
        lower = upper.unwrap_or(lower);
    }
    lower
}

/// Upper bound of the highest non-empty bucket (0 when empty).
fn hist_max_bound(h: &HistogramSnapshot) -> f64 {
    h.buckets.iter().rposition(|c| *c > 0).map_or(0.0, |i| {
        BUCKET_BOUNDS_US
            .get(i)
            .map_or(f64::from(u32::MAX), |b| *b as f64)
    })
}

/// Layer metrics that are differences of `stats()` over the phase.
fn phase_deltas(m: &mut Metrics, before: &DbStats, after: &DbStats, ops: u64, rss_growth_mb: f64) {
    let d = |f: fn(&DbStats) -> u64| f(after).saturating_sub(f(before));
    let requests = d(|s| s.net.requests);
    m.put(
        "net.wakeups_per_request",
        ratio(d(|s| s.net.readiness_wakeups), requests),
    );
    m.put(
        "net.pipeline_depth_mean",
        hist_delta(&after.net.pipeline_depth, &before.net.pipeline_depth).mean_micros(),
    );
    m.put("net.requests_shed", d(|s| s.net.requests_shed) as f64);
    m.put("net.errors", d(|s| s.net.errors) as f64);

    let waits = hist_delta(&after.locks.wait_latency, &before.locks.wait_latency);
    m.put("tx.lock_waits", d(|s| s.locks.waits) as f64);
    m.put("tx.lock_wait_p99_us", hist_percentile(&waits, 0.99));
    m.put(
        "tx.deadlock_victims",
        d(|s| s.locks.deadlock_victims) as f64,
    );
    m.put("tx.lock_timeouts", d(|s| s.locks.timeouts) as f64);

    let batch = hist_delta(
        &after.wal.group_commit_batch_size,
        &before.wal.group_commit_batch_size,
    );
    let flush = hist_delta(&after.wal.flush_latency, &before.wal.flush_latency);
    m.put("storage.group_commit_batch_mean", batch.mean_micros());
    m.put("storage.flush_p50_us", hist_percentile(&flush, 0.50));
    let (hits, misses) = (d(|s| s.pool.hits), d(|s| s.pool.misses));
    let queries = d(|s| s.exec.queries);
    m.put("storage.pool_hit_ratio", ratio(hits, hits + misses));
    m.put("storage.pool_misses_per_query", ratio(misses, queries));
    m.put("storage.pool_evictions", d(|s| s.pool.evictions) as f64);
    m.put("storage.disk_reads", d(|s| s.disk.reads) as f64);
    m.put("storage.disk_writes", d(|s| s.disk.writes) as f64);
    m.put(
        "storage.rss_growth_b_per_op",
        rss_growth_mb * 1024.0 * 1024.0 / ops.max(1) as f64,
    );

    let scanned = d(|s| s.exec.rows_scanned);
    let (chits, cmisses) = (d(|s| s.cache.hits), d(|s| s.cache.misses));
    m.put(
        "core.fetches_per_row_scanned",
        ratio(d(|s| s.fetches), scanned),
    );
    m.put("core.cache_hit_ratio", ratio(chits, chits + cmisses));
    m.put("core.cache_evictions", d(|s| s.cache.evictions) as f64);
    m.put(
        "core.mvcc_snapshot_reads_per_row",
        ratio(d(|s| s.mvcc.snapshot_reads), scanned),
    );
    m.put(
        "core.mvcc_versions_published",
        d(|s| s.mvcc.versions_published) as f64,
    );
    m.put(
        "core.mvcc_versions_pruned",
        d(|s| s.mvcc.versions_pruned) as f64,
    );
    m.put(
        "core.mvcc_chain_len_max",
        hist_max_bound(&hist_delta(
            &after.mvcc.chain_length,
            &before.mvcc.chain_length,
        )),
    );
    m.put(
        "core.gate_exclusive",
        d(|s| s.gate.exclusive_acquisitions) as f64,
    );

    m.put(
        "query.memo_hit_ratio",
        ratio(d(|s| s.exec.memo_hits), d(|s| s.exec.memo_lookups)),
    );
    m.put("query.index_picks", d(|s| s.exec.index_picks) as f64);
    m.put("query.scan_picks", d(|s| s.exec.scan_picks) as f64);
    m.put("query.parallelism", after.exec.last_parallelism as f64);
    m.put(
        "index.candidates_per_row",
        ratio(scanned, d(|s| s.exec.rows_matched)),
    );
}

/// Depth-1 socket p50s of the four staged operations, in microseconds.
struct Staged {
    get: f64,
    set: f64,
    commit: f64,
    query: f64,
}

/// The counted pass: one connection, one operation kind at a time, so
/// each count per operation is exact and repeats. Also times the same
/// operations at depth 1 for the stage tables.
fn counted_pass(
    m: &mut Metrics,
    db: &Database,
    client: &mut Client,
    t: &Targets,
) -> DbResult<Staged> {
    let pick = |i: usize| t.objects[i * 7919 % t.objects.len()];
    let delta = |a: &DbStats, b: &DbStats, f: fn(&DbStats) -> u64| f(b).saturating_sub(f(a));
    let mut failed = None;
    let mut check = |r: DbResult<()>| {
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    };

    let s0 = db.stats();
    let get = p50_us(COUNTED_OPS, |i| {
        check(client.get(pick(i), t.read_attr).map(drop))
    });
    let s1 = db.stats();
    let set = p50_us(COUNTED_OPS, |i| {
        check(client.set(pick(i), SCRATCH, Value::Int(i as i64)))
    });
    let s2 = db.stats();
    let n = COUNTED_OPS as u64;
    m.put(
        "tx.locks_per_read",
        ratio(delta(&s0, &s1, |s| s.locks.acquisitions), n),
    );
    m.put(
        "tx.locks_per_write",
        ratio(delta(&s1, &s2, |s| s.locks.acquisitions), n),
    );
    m.put(
        "storage.fsyncs_per_read",
        ratio(delta(&s0, &s1, |s| s.wal.fsyncs), n),
    );
    m.put(
        "storage.fsyncs_per_write",
        ratio(delta(&s1, &s2, |s| s.wal.fsyncs), n),
    );
    m.put(
        "storage.wal_appends_per_op",
        ratio(delta(&s0, &s2, |s| s.wal.appends), 2 * n),
    );
    m.put(
        "storage.wal_bytes_per_write",
        ratio(delta(&s1, &s2, |s| s.wal.flushed_bytes), n),
    );

    let mut commits = Vec::with_capacity(COUNTED_TXNS);
    for i in 0..COUNTED_TXNS {
        let (a, b) = (pick(2 * i), pick(2 * i + 1));
        check(client.begin().map(drop));
        check(client.get(a, t.read_attr).map(drop));
        check(client.get(b, t.read_attr).map(drop));
        check(client.set(a, SCRATCH, Value::Int(i as i64)));
        check(client.set(b, SCRATCH, Value::Int(i as i64)));
        let start = Instant::now();
        check(client.commit());
        commits.push(start.elapsed().as_nanos() as u64);
    }
    commits.sort_unstable();
    let s3 = db.stats();
    m.put(
        "storage.fsyncs_per_txn",
        ratio(delta(&s2, &s3, |s| s.wal.fsyncs), COUNTED_TXNS as u64),
    );

    let query = p50_us(COUNTED_QUERIES, |_| check(client.query(&t.query).map(drop)));
    let s4 = db.stats();
    m.put(
        "tx.locks_per_query",
        ratio(
            delta(&s3, &s4, |s| s.locks.acquisitions),
            COUNTED_QUERIES as u64,
        ),
    );
    m.put(
        "query.rows_scanned_per_row_returned",
        ratio(
            delta(&s3, &s4, |s| s.exec.rows_scanned),
            delta(&s3, &s4, |s| s.exec.rows_matched),
        ),
    );
    match failed {
        Some(e) => Err(e),
        None => Ok(Staged {
            get,
            set,
            commit: percentile(&commits, 0.50) as f64 / 1e3,
            query,
        }),
    }
}

pub fn traced_run<W: Workload>(
    w: &W,
    live: &mut Live<'_, W>,
    args: &RunArgs,
    mut attempted: u64,
    mut failed: u64,
) -> DbResult<Outcome> {
    let mut m = Metrics::default();

    // Untraced and traced quarters alternate, so both see the same
    // growth of the log and the same neighbours.
    let quarter = args.seconds / 4.0;
    let before = live.db().stats();
    let rss_before = peak_rss_mb();
    let (mut plain, mut spanned): (Vec<Recorder>, Vec<Recorder>) = (Vec::new(), Vec::new());
    let (mut plain_rates, mut spanned_rates) = (Vec::new(), Vec::new());
    for q in 0..4 {
        let traced = q % 2 == 1;
        let mut recs = live.timed_phase(quarter, traced);
        // Operation ids restart every phase; keep them unique per file.
        for rec in &mut recs {
            trace::offset_ops(rec, q as u64);
        }
        let rate = summarize_phase(&recs, w.preferred_tail()).ops_per_s;
        if traced {
            spanned_rates.push(rate);
            spanned.append(&mut recs);
        } else {
            plain_rates.push(rate);
            plain.append(&mut recs);
        }
    }
    let after = live.db().stats();
    absorb("untraced quarters", &plain, &mut attempted, &mut failed);
    absorb("traced quarters", &spanned, &mut attempted, &mut failed);
    let ops: u64 = plain.iter().chain(&spanned).map(|r| r.attempted).sum();
    phase_deltas(&mut m, &before, &after, ops, peak_rss_mb() - rss_before);
    let (pages_bytes, wal_bytes) = live.storage_bytes();
    m.put("storage.wal_bytes_total", wal_bytes as f64);
    m.put("storage.pages_bytes_total", pages_bytes as f64);

    let (plain_rate, spanned_rate) = (median(&plain_rates), median(&spanned_rates));
    m.put(
        "obs.trace_overhead_pct",
        (plain_rate - spanned_rate) / plain_rate.max(1e-9) * 100.0,
    );
    let untraced = summarize_phase(&plain, w.preferred_tail());
    println!(
        "  measured phase: {ops} ops; untraced {plain_rate:.1} ops/s, traced {spanned_rate:.1} ops/s"
    );
    print_latency("read (untraced quarters)", &untraced.read);
    print_latency("write (untraced quarters)", &untraced.write);
    m.put(
        "e2e.read_tail_ms",
        untraced.read.map_or(0.0, |s| s.tail_ns as f64 / 1e6),
    );
    m.put(
        "e2e.write_tail_ms",
        untraced.write.map_or(0.0, |s| s.tail_ns as f64 / 1e6),
    );
    m.put("index.torn_reads", w.torn_reads(&live.conns) as f64);

    let span_file = args.out.join(format!("trace-{}.json", w.name()));
    trace::write(&span_file, w.name(), args.seed, &spanned)?;
    trace::print_span_table(&spanned);
    println!("  spans written to {}", span_file.display());

    let check = live.verify()?;
    absorb(
        "final check",
        std::slice::from_ref(&check),
        &mut attempted,
        &mut failed,
    );
    println!(
        "  final check: {} checks, {} failed",
        check.attempted, check.failed
    );
    m.put("e2e.failed_share", ratio(failed, attempted));

    // From here on the database is scribbled on: nothing is checked again.
    let targets = w.targets(&live.pop);
    let db = std::sync::Arc::clone(live.db());
    let staged = counted_pass(&mut m, &db, &mut live.clients[0], &targets)?;
    let requests = w.sample_requests(&live.pop, 256);
    probes::run(
        &mut m,
        &db,
        &mut live.clients[0],
        &targets,
        &requests,
        &args.out,
    )?;
    print_stage_table(&mut m, &staged);

    let metrics = crate::spec::PER_LAYER
        .iter()
        .map(|(name, ..)| (*name, m.get(name)))
        .collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Measured depth-1 socket p50 against the sum of its parts.
fn print_stage_table(m: &mut Metrics, staged: &Staged) {
    let rtt = m.get("net.ping_rtt_us");
    println!("  depth-1 stage table (us): socket p50 = ping rtt + codec + embedded + unattributed");
    let rows = [
        ("get", staged.get, m.get("core.get_autocommit_us")),
        ("set", staged.set, m.get("core.set_autocommit_us")),
        ("commit", staged.commit, m.get("probe.commit_embedded_us")),
        (
            "query",
            staged.query,
            m.get("query.exec_us") + (m.get("query.parse_ns") + m.get("query.plan_ns")) / 1e3,
        ),
    ];
    for (name, socket, embedded) in rows {
        // Encode and decode of this operation's own request and reply.
        let codec = m.get(probes::codec_key(name));
        let rest = socket - rtt - codec - embedded;
        println!(
            "    {name:<7} {socket:>10.1} = {rtt:>7.1} + {codec:>6.1} + {embedded:>10.1} + {rest:>8.1}"
        );
        if name == "get" {
            m.put("net.wire_overhead_us", socket - embedded);
            m.put("net.unattributed_us", rest);
        }
    }
}
