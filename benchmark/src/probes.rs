//! Layer probes: public calls of one crate at a time, timed from
//! outside on the traced workload's own data and request stream. A
//! probe says what a layer's step costs in isolation; the stage table
//! then shows how much of a socket round trip those steps explain.

use crate::data::SCRATCH;
use crate::harness::Targets;
use crate::layers::Metrics;
use crate::rng::SplitMix64;
use crate::stats::{median, percentile};
use orion_core::{Database, DbError, DbResult, Oid, Value};
use orion_index::{BTree, KeyVal};
use orion_net::frame::{append_frame, FrameDecoder, MAX_FRAME};
use orion_net::{Client, Request, Response};
use orion_storage::{FileDisk, LogRecord, PageId, Rid, Wal};
use orion_tx::LockManager;
use orion_types::codec::ObjectRecord;
use std::hint::black_box;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches a probe's iterations are split into; the median batch mean
/// is reported, so one preempted batch does not move the number.
const BATCHES: usize = 5;

/// Mean nanoseconds per call of `f`, as the median over [`BATCHES`]
/// batches of `iters / BATCHES` calls each.
fn mean_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch = (iters / BATCHES).max(1);
    let means: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&means)
}

/// p50 in microseconds of `n` individually timed calls.
pub fn p50_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<u64> = (0..n)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.50) as f64 / 1e3
}

/// Mean nanoseconds per call of `f` inside open transactions of
/// `per_txn` calls each (`begin` and `commit` are not timed), as the
/// median over the transactions. Short transactions, because a call's
/// cost grows with the write set of the transaction it runs in.
fn mean_ns_in_txns(
    db: &Database,
    txns: usize,
    per_txn: usize,
    mut f: impl FnMut(&orion_core::Tx, usize),
) -> DbResult<f64> {
    let mut means = Vec::with_capacity(txns);
    for t in 0..txns {
        let tx = db.begin();
        let start = Instant::now();
        for i in 0..per_txn {
            f(&tx, t * per_txn + i);
        }
        means.push(start.elapsed().as_nanos() as f64 / per_txn as f64);
        db.commit(tx)?;
    }
    Ok(median(&means))
}

/// Keep `value` from being optimized away, then drop it.
fn sink<T>(value: T) {
    black_box(value);
}

fn first_error<T>(slot: &mut Option<DbError>, r: DbResult<T>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            slot.get_or_insert(e);
            None
        }
    }
}

pub fn run(
    m: &mut Metrics,
    db: &Database,
    client: &mut Client,
    t: &Targets,
    requests: &[Request],
    out: &Path,
) -> DbResult<()> {
    net(m, db, client, t, requests)?;
    tx(m, t);
    storage(m, out)?;
    core(m, db, t)?;
    query(m, db, t)?;
    index(m, db, t)?;
    types_and_schema(m, db, t)?;
    let snapshot = mean_ns(50, |_| {
        black_box(db.stats().render_prometheus());
    });
    m.put("obs.stats_snapshot_us", snapshot / 1e3);
    Ok(())
}

fn net(
    m: &mut Metrics,
    db: &Database,
    client: &mut Client,
    t: &Targets,
    requests: &[Request],
) -> DbResult<()> {
    let mut err = None;
    let rtt = p50_us(2_000, |_| {
        first_error(&mut err, client.ping());
    });
    m.put("net.ping_rtt_us", rtt);

    let n = requests.len();
    let encoded: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    m.put(
        "net.request_encode_ns",
        mean_ns(40 * n, |i| sink(requests[i % n].encode())),
    );
    m.put(
        "net.request_decode_ns",
        mean_ns(40 * n, |i| sink(Request::decode(&encoded[i % n]))),
    );

    // Replay a prefix of the stream at window 1 to collect the replies
    // the server really sends (bounded in time: queries are slow).
    let mut replies = Vec::new();
    {
        let mut pipe = client.pipeline()?;
        let deadline = Instant::now() + Duration::from_millis(500);
        for request in requests.iter().take(64) {
            pipe.send(request)?;
            replies.push(pipe.recv()?);
            if Instant::now() > deadline {
                break;
            }
        }
    }
    let r = replies.len();
    let encoded_replies: Vec<Vec<u8>> = replies.iter().map(Response::encode).collect();
    m.put(
        "net.response_encode_ns",
        mean_ns(40 * r, |i| sink(replies[i % r].encode())),
    );
    m.put(
        "net.response_decode_ns",
        mean_ns(40 * r, |i| sink(Response::decode(&encoded_replies[i % r]))),
    );

    // The server's read path: 64 KiB reads of back-to-back frames.
    let mut wire = Vec::new();
    let mut frames = 0usize;
    while wire.len() < (1 << 20) {
        append_frame(&mut wire, &encoded[frames % n]);
        frames += 1;
    }
    let per_pass = mean_ns(10, |_| {
        let mut decoder = FrameDecoder::new(MAX_FRAME);
        let mut popped = 0usize;
        for chunk in wire.chunks(64 * 1024) {
            decoder.feed(chunk);
            while let Ok(Some(frame)) = decoder.next_frame() {
                black_box(frame);
                popped += 1;
            }
        }
        assert_eq!(popped, frames, "every frame fed was decoded");
    });
    m.put("net.frame_decode_ns", per_pass / frames as f64);

    let result = {
        let tx = db.begin();
        let result = db.query(&tx, &t.query);
        db.commit(tx)?;
        Response::from_query_result(result?)
    };
    let rows = match &result {
        Response::Query { rows, .. } => rows.len().max(1),
        _ => 1,
    };
    let bytes = result.encode();
    m.put(
        "net.result_encode_ns_per_row",
        mean_ns(20, |_| sink(result.encode())) / rows as f64,
    );
    m.put(
        "net.result_decode_ns_per_row",
        mean_ns(20, |_| sink(Response::decode(&bytes))) / rows as f64,
    );

    // Codec cost of each staged operation's own request and reply.
    let oid = t.objects[0];
    let staged = [
        (
            "get",
            Request::Get {
                oid,
                attr: t.read_attr.into(),
            },
            Response::Value(Value::Int(1)),
        ),
        (
            "set",
            Request::Set {
                oid,
                attr: SCRATCH.into(),
                value: Value::Int(1),
            },
            Response::Ok,
        ),
        ("commit", Request::Commit, Response::Ok),
        (
            "query",
            Request::Query {
                text: t.query.clone(),
            },
            result,
        ),
    ];
    for (name, request, reply) in staged {
        let (request_bytes, reply_bytes) = (request.encode(), reply.encode());
        let iters = if name == "query" { 20 } else { 20_000 };
        let ns = mean_ns(iters, |_| {
            sink(request.encode());
            sink(Request::decode(&request_bytes));
            sink(reply.encode());
            sink(Response::decode(&reply_bytes));
        });
        m.put(codec_key(name), ns / 1e3);
    }
    err.map_or(Ok(()), Err)
}

/// Where the stage table finds the codec cost of a staged operation
/// (microseconds; not a reported metric).
pub fn codec_key(staged: &str) -> &'static str {
    match staged {
        "get" => "probe.codec_get_us",
        "set" => "probe.codec_set_us",
        "commit" => "probe.codec_commit_us",
        _ => "probe.codec_query_us",
    }
}

fn tx(m: &mut Metrics, t: &Targets) {
    let locks = LockManager::new();
    let n = t.objects.len();
    let cycle = mean_ns(100_000, |i| {
        let txn = i as u64 + 1;
        let _ = black_box(locks.lock_object_write(txn, t.objects[i % n]));
        locks.release_all(txn);
    });
    m.put("tx.lock_cycle_ns", cycle);
}

/// A same-size in-place update of a ~90-byte record, as an autocommit
/// `Set` logs it.
fn update_record(i: usize) -> LogRecord {
    LogRecord::Update {
        txn: i as u64,
        rid: Rid {
            page: PageId((i % 500) as u32),
            slot: (i % 40) as u16,
        },
        before: vec![0xAB; 90],
        after: vec![0xCD; 90],
    }
}

fn storage(m: &mut Metrics, out: &Path) -> DbResult<()> {
    let wal = Wal::new();
    m.put(
        "storage.wal_append_ns",
        mean_ns(50_000, |i| sink(wal.append(&update_record(i)))),
    );

    // The host's raw log force: append + fsync on a real file.
    let dir = out.join(format!("probe-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flushed = (|| {
        let wal = Wal::with_backend(Arc::new(FileDisk::open(&dir)?))?;
        let mut err = None;
        let ns = mean_ns(200, |i| {
            wal.append(&update_record(i));
            wal.append(&LogRecord::Commit { txn: i as u64 });
            first_error(&mut err, wal.commit_flush());
        });
        err.map_or(Ok(ns), Err)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    m.put("storage.commit_flush_us", flushed? / 1e3);
    Ok(())
}

fn core(m: &mut Metrics, db: &Database, t: &Targets) -> DbResult<()> {
    let pick = |i: usize| t.objects[i * 7919 % t.objects.len()];
    let mut err = None;

    // Inside an open transaction: the facade call alone.
    let get = mean_ns_in_txns(db, 20, 100, |tx, i| {
        sink(first_error(&mut err, db.get(tx, pick(i), t.read_attr)));
    })?;
    let set = mean_ns_in_txns(db, 20, 100, |tx, i| {
        first_error(&mut err, db.set(tx, pick(i), SCRATCH, Value::Int(i as i64)));
    })?;
    let navigate = mean_ns_in_txns(db, 20, 100, |tx, i| {
        sink(first_error(
            &mut err,
            db.navigate(tx, pick(i), &[t.ref_attr]),
        ));
    })?;
    m.put("core.get_ns", get);
    m.put("core.set_ns", set);
    m.put("core.navigate_ns", navigate);

    // Autocommit: what the server runs for a bare `Get` / `Set`.
    let get_auto = mean_ns(2_000, |i| {
        let tx = db.begin();
        black_box(first_error(&mut err, db.get(&tx, pick(i), t.read_attr)));
        first_error(&mut err, db.commit(tx));
    });
    let set_auto = mean_ns(2_000, |i| {
        let tx = db.begin();
        first_error(
            &mut err,
            db.set(&tx, pick(i), SCRATCH, Value::Int(i as i64)),
        );
        first_error(&mut err, db.commit(tx));
    });
    m.put("core.get_autocommit_us", get_auto / 1e3);
    m.put("core.set_autocommit_us", set_auto / 1e3);

    // The commit of the staged transaction, embedded (stage table only).
    let mut commit_ns = Vec::with_capacity(200);
    for i in 0..200 {
        let tx = db.begin();
        first_error(&mut err, db.set(&tx, pick(2 * i), SCRATCH, Value::Int(1)));
        first_error(
            &mut err,
            db.set(&tx, pick(2 * i + 1), SCRATCH, Value::Int(1)),
        );
        let start = Instant::now();
        first_error(&mut err, db.commit(tx));
        commit_ns.push(start.elapsed().as_nanos() as f64);
    }
    m.put("probe.commit_embedded_us", median(&commit_ns) / 1e3);
    err.map_or(Ok(()), Err)
}

fn query(m: &mut Metrics, db: &Database, t: &Targets) -> DbResult<()> {
    let parse = mean_ns(2_000, |_| sink(orion_query::parse(&t.query)));
    let tx = db.begin();
    let mut err = None;
    let prepare = mean_ns(500, |_| {
        sink(first_error(&mut err, db.prepare_query(&tx, &t.query)));
    });
    let planned = db.prepare_query(&tx, &t.query)?;
    db.commit(tx)?;
    m.put("query.parse_ns", parse);
    m.put("query.plan_ns", (prepare - parse).max(0.0));

    let before = db.stats().exec.rows_scanned;
    let runs = 5;
    let mut exec_ns = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        black_box(db.execute_prepared(&planned)?);
        exec_ns.push(start.elapsed().as_nanos() as f64);
    }
    let scanned = db.stats().exec.rows_scanned - before;
    m.put("query.exec_us", median(&exec_ns) / 1e3);
    m.put(
        "query.ns_per_row_scanned",
        exec_ns.iter().sum::<f64>() / scanned.max(1) as f64,
    );
    err.map_or(Ok(()), Err)
}

fn index(m: &mut Metrics, db: &Database, t: &Targets) -> DbResult<()> {
    // The workload's own keys, in a seeded shuffle (ascending inserts
    // would only ever split the rightmost leaf).
    let mut keys: Vec<KeyVal> = t.keys.iter().cloned().map(KeyVal).collect();
    let mut rng = SplitMix64::new(keys.len() as u64);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let n = keys.len();
    let mut tree: BTree<KeyVal, Oid> = BTree::new();
    let start = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        tree.insert(key.clone(), t.objects[i % t.objects.len()]);
    }
    m.put(
        "index.btree_insert_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
    m.put(
        "index.btree_get_ns",
        mean_ns(n, |i| sink(tree.get(&keys[i % n]))),
    );
    let walk = mean_ns(10, |_| {
        assert_eq!(
            tree.range(Bound::Unbounded, Bound::Unbounded).count(),
            tree.len()
        );
    });
    m.put(
        "index.btree_range_ns_per_key",
        walk / tree.len().max(1) as f64,
    );

    // What index maintenance adds to an update: setting the (possibly
    // indexed) key attribute against setting the never-indexed scratch
    // attribute, embedded, inside open transactions.
    let pick = |i: usize| t.objects[i * 7919 % t.objects.len()];
    let mut err = None;
    // Alternating transactions, so cache warmth and log growth fall on
    // both sides alike.
    let (mut keyed, mut plain) = (Vec::new(), Vec::new());
    for round in 0..20 {
        keyed.push(mean_ns_in_txns(db, 1, 100, |tx, i| {
            let i = round * 100 + i;
            first_error(
                &mut err,
                db.set(tx, pick(i), t.key_attr, (t.key_value)(i as u64)),
            );
        })?);
        plain.push(mean_ns_in_txns(db, 1, 100, |tx, i| {
            let i = round * 100 + i;
            first_error(&mut err, db.set(tx, pick(i), SCRATCH, Value::Int(i as i64)));
        })?);
    }
    let (keyed, plain) = (median(&keyed), median(&plain));
    m.put("index.maintain_ns_per_update", keyed - plain);
    let entries: usize = db
        .index_defs()
        .iter()
        .filter_map(|d| db.index_stats(&d.name))
        .map(|(e, _)| e)
        .sum();
    m.put("index.entries", entries as f64);
    err.map_or(Ok(()), Err)
}

fn types_and_schema(m: &mut Metrics, db: &Database, t: &Targets) -> DbResult<()> {
    // One of the workload's own records, as stored.
    let wanted = t.objects[0];
    let mut stored = None;
    db.engine().scan_all(|_, bytes| {
        if stored.is_none() && ObjectRecord::decode(bytes).is_ok_and(|r| r.oid == wanted) {
            stored = Some(bytes.to_vec());
        }
    })?;
    let bytes = stored.ok_or_else(|| DbError::Storage(format!("no stored record for {wanted}")))?;
    let record = ObjectRecord::decode(&bytes)?;
    m.put("types.record_bytes", bytes.len() as f64);
    m.put(
        "types.record_encode_ns",
        mean_ns(100_000, |_| sink(record.encode())),
    );
    m.put(
        "types.record_decode_ns",
        mean_ns(100_000, |_| sink(ObjectRecord::decode(&bytes))),
    );

    let mut err = None;
    let resolve = mean_ns(20_000, |_| {
        let done = db.with_catalog(|c| {
            let subtree = c.subtree(c.class_id(t.root_class)?)?;
            for class in subtree.iter() {
                black_box(c.resolve(*class)?);
            }
            Ok(())
        });
        first_error(&mut err, done);
    });
    m.put("schema.subtree_resolve_ns", resolve);
    err.map_or(Ok(()), Err)
}
