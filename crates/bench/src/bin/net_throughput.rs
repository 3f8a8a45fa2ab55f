//! Network throughput benchmark: N client threads hammer one server
//! over real sockets and the record lands in `BENCH_net.json` at the
//! workspace root.
//!
//! Each client runs a mixed workload — the Figure 1 hierarchy query and
//! point reads — against a fleet database, measuring per-request
//! latency end to end (encode, socket, server dispatch, decode). The
//! record includes p50/p99 latency, aggregate throughput, the
//! in-process latency of the same query for comparison (the wire tax),
//! and the server-side `net_*` counters scraped over the wire.
//!
//! A second phase benchmarks the sharded deployment (`orion-shard`):
//! single-shard passthrough overhead against a direct client on the
//! same query, hierarchy fan-out latency across two shards, and
//! cross-shard two-phase-commit throughput. It lands as the
//! `"sharded"` object in the same record, gated on the passthrough
//! overhead ratio.
//!
//! A third phase parks ~1.1k mostly-idle connections on the evented
//! core and times one depth-1 client through the crowd, then the same
//! client with the crowd closed, at equal sample size; it lands as
//! `"concurrent_connections"`, gated on the open count and on the
//! ratio of the two medians (a same-run ratio, so it holds on any host).
//!
//! A fourth phase closes ROADMAP gap (d), request overhead: the same
//! autocommit `Get` embedded, over a socket one at a time, and through
//! `Client::pipeline()` eight deep, with the event-loop wakeups,
//! executor turns and log writes each request cost. It lands as
//! `"request_overhead"`, gated on those counts, which hold on any host.
//!
//! The binary checks every gate itself and exits nonzero on a breach.
//! `--smoke` shrinks the workload to a ~3 second CI sanity run (the
//! connection crowd stays at full size so its gates stay meaningful).

use orion_bench::{fleet, Cmp, Gates};
use orion_core::{AttrSpec, Database, DbConfig, Domain, NetStats, PrimitiveType, Value, WalStats};
use orion_net::{Client, Request, Response, Server, ServerConfig};
use orion_shard::{ExplicitPlacement, RouterConfig, ShardRouter};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "select v from Vehicle* v \
     where v.weight > 500 and v.manufacturer.location = \"Detroit\"";

struct Load {
    objects: usize,
    clients: usize,
    requests_per_client: usize,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Median latency of `n` runs of `f`.
fn p50_of(n: usize, mut f: impl FnMut()) -> Duration {
    let mut lat = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f();
        lat.push(t.elapsed());
    }
    lat.sort();
    percentile(&lat, 0.50)
}

/// The sharded phase: 2 in-memory shards behind a router. Returns the
/// `"sharded"` JSON object.
fn sharded_section(smoke: bool, gates: &mut Gates) -> String {
    let objects = if smoke { 300 } else { 1_500 }; // per subclass
    let queries = if smoke { 30 } else { 120 };
    let txns = if smoke { 40 } else { 200 };

    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let db = Arc::new(Database::open_in_memory());
        let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        addrs.push(server.local_addr());
        servers.push(server);
    }
    let router = ShardRouter::connect(
        &addrs,
        RouterConfig {
            placement: Box::new(ExplicitPlacement::new([
                ("Item", 0usize),
                ("ItemA", 0usize),
                ("ItemB", 1usize),
                ("AcctA", 0usize),
                ("AcctB", 1usize),
            ])),
            ..RouterConfig::default()
        },
    )
    .expect("router");

    let weight = vec![AttrSpec::new("weight", Domain::Primitive(PrimitiveType::Int))];
    router.create_class("Item", &[], weight.clone()).expect("ddl");
    router.create_class("ItemA", &["Item"], vec![]).expect("ddl");
    router.create_class("ItemB", &["Item"], vec![]).expect("ddl");
    for i in 0..objects {
        router.create_object("ItemA", vec![("weight", Value::Int(i as i64))]).expect("seed");
        router
            .create_object("ItemB", vec![("weight", Value::Int((i + objects) as i64))])
            .expect("seed");
    }

    const PASS_Q: &str = "select i.weight from ItemA i order by i.weight desc limit 10";
    const FAN_Q: &str = "select i.weight from Item* i order by i.weight desc limit 10";

    // Direct baseline: the same single-shard query without the router.
    let mut direct = Client::connect(addrs[0]).expect("direct connect");
    direct.query(PASS_Q).expect("warm");
    let direct_p50 = p50_of(queries, || {
        assert_eq!(direct.query(PASS_Q).expect("direct").len(), 10);
    });

    router.query(PASS_Q).expect("warm");
    let passthrough_p50 = p50_of(queries, || {
        assert_eq!(router.query(PASS_Q).expect("passthrough").len(), 10);
    });
    let fanout_p50 = p50_of(queries, || {
        let r = router.query(FAN_Q).expect("fanout");
        assert_eq!(r.rows.len(), 10);
        // Global top-10 comes entirely from ItemB's higher weights.
        assert_eq!(r.rows[0][0], Value::Int(2 * objects as i64 - 1));
    });
    let overhead = passthrough_p50.as_secs_f64() / direct_p50.as_secs_f64();

    // Cross-shard 2PC throughput: every transfer touches both shards.
    router.create_class("AcctA", &[], weight.clone()).expect("ddl");
    router.create_class("AcctB", &[], weight).expect("ddl");
    let a = router.create_object("AcctA", vec![("weight", Value::Int(1_000_000))]).expect("a");
    let b = router.create_object("AcctB", vec![("weight", Value::Int(0))]).expect("b");
    let started = Instant::now();
    for _ in 0..txns {
        let mut tx = router.begin();
        let from = tx.get(a, "weight").expect("get").as_int().unwrap();
        let to = tx.get(b, "weight").expect("get").as_int().unwrap();
        tx.set(a, "weight", Value::Int(from - 1)).expect("set");
        tx.set(b, "weight", Value::Int(to + 1)).expect("set");
        tx.commit().expect("2pc commit");
    }
    let twopc_elapsed = started.elapsed();
    let twopc_rate = txns as f64 / twopc_elapsed.as_secs_f64();
    assert_eq!(
        router.get(a, "weight").expect("a").as_int().unwrap()
            + router.get(b, "weight").expect("b").as_int().unwrap(),
        1_000_000,
        "2PC conservation"
    );
    assert_eq!(router.metrics().txns_2pc.get(), txns as u64);
    assert_eq!(router.metrics().commit_push_failures.get(), 0);

    println!(
        "sharded: direct p50 {direct_p50:?}, passthrough p50 {passthrough_p50:?} \
         ({overhead:.2}x), fan-out p50 {fanout_p50:?}, 2PC {twopc_rate:.1} txn/s"
    );
    for s in servers {
        s.shutdown();
    }
    // Routing a single-shard query stays one hop (the budget absorbs
    // scheduling noise; the steady-state ratio is ~1x).
    gates.check("sharded.passthrough_overhead_ratio", overhead, Cmp::Below, 3.0);
    format!(
        "{{\n    \"shards\": 2,\n    \"objects_per_subclass\": {objects},\n    \
         \"direct_p50_ms\": {:.3},\n    \"passthrough_p50_ms\": {:.3},\n    \
         \"passthrough_overhead_ratio\": {overhead:.3},\n    \
         \"fanout_p50_ms\": {:.3},\n    \"twopc_txns\": {txns},\n    \
         \"twopc_txns_per_s\": {twopc_rate:.1}\n  }}",
        direct_p50.as_secs_f64() * 1e3,
        passthrough_p50.as_secs_f64() * 1e3,
        fanout_p50.as_secs_f64() * 1e3,
    )
}

/// A database holding one hot object, `KV.v = 7`: the point-read
/// target of the connection-crowd and request-overhead phases.
fn kv_db() -> (Arc<Database>, orion_core::Oid) {
    let db = Database::open_in_memory();
    db.create_class("KV", &[], vec![AttrSpec::new("v", Domain::Primitive(PrimitiveType::Int))])
        .expect("ddl");
    let tx = db.begin();
    let oid = db.create_object(&tx, "KV", vec![("v", Value::Int(7))]).expect("seed");
    db.commit(tx).expect("commit");
    (Arc::new(db), oid)
}

/// The concurrent-connections phase: park ~1.1k mostly-idle sessions
/// on one server's event loops, then time one depth-1 client's point
/// reads through the crowd and again, the same number of them, once
/// the crowd has closed. The evented core's promise is that a parked
/// connection costs a registered descriptor, not a thread and not a
/// scan per wakeup, so the two medians stay close. Returns the
/// `"concurrent_connections"` JSON object.
fn concurrent_section(gates: &mut Gates) -> String {
    let target = 1_100usize;
    let requests = 5_000;

    let (db, oid) = kv_db();
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 2 * target,
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let p50 = |client: &mut Client| {
        p50_of(requests, || assert_eq!(client.get(oid, "v").expect("get"), Value::Int(7)))
    };
    p50(&mut client); // warm

    // Park the crowd: each connect + ping forces the dial so the
    // session is registered on an event loop before we move on. A
    // session the server turns away is not parked; the open count shows it.
    let parked: Vec<Client> = (1..target)
        .filter_map(|_| {
            let mut c = Client::connect(addr).ok()?;
            c.ping().ok()?;
            Some(c)
        })
        .collect();
    let open = server.active_connections();
    let crowded = p50(&mut client);
    drop(parked);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let alone = p50(&mut client);
    drop(client);
    server.shutdown();

    let ratio = crowded.as_secs_f64() / alone.as_secs_f64();
    println!(
        "concurrent connections: {open} open; one depth-1 client's p50 {crowded:?} through \
         the crowd, {alone:?} with it closed ({ratio:.2}x, {requests} requests each)"
    );
    gates.check("concurrent.open_connections", open as f64, Cmp::AtLeast, 1_000.0);
    gates.check("concurrent.crowd_p50_ratio", ratio, Cmp::AtMost, 1.5);
    format!(
        "{{\n    \"open_connections\": {open},\n    \"target_connections\": {target},\n    \
         \"requests\": {requests},\n    \"crowded_p50_ms\": {:.3},\n    \
         \"alone_p50_ms\": {:.3},\n    \"crowd_p50_ratio\": {ratio:.3}\n  }}",
        crowded.as_secs_f64() * 1e3,
        alone.as_secs_f64() * 1e3,
    )
}

/// The request-overhead phase: one autocommit `Get` of one hot object,
/// run embedded, over a socket at depth 1, and pipelined at depth 8
/// (a sliding window: one send per reply received). The time columns
/// are the wire's price per request on this host; the two count
/// columns — event-loop wakeups and executor turns per request — are
/// work per operation and do not depend on the host. Returns the
/// `"request_overhead"` JSON object.
fn request_overhead_section(smoke: bool, gates: &mut Gates) -> String {
    const DEPTH: usize = 8;
    let requests = if smoke { 4_000 } else { 40_000 };

    let (db, oid) = kv_db();
    // WAL appends, flushes and fsyncs per request since `b`.
    let wal_since = |b: WalStats| {
        let a = db.stats().wal;
        [a.appends - b.appends, a.flushes - b.flushes, a.fsyncs - b.fsyncs]
            .map(|n| n as f64 / requests as f64)
    };

    let (embedded, embedded_wal) = {
        let (started, wal_before) = (Instant::now(), db.stats().wal);
        for _ in 0..requests {
            let tx = db.begin();
            assert_eq!(db.get(&tx, oid, "v").expect("get"), Value::Int(7));
            db.commit(tx).expect("commit");
        }
        (started.elapsed(), wal_since(wal_before))
    };

    let server =
        Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("warm");
    // (elapsed, and wakeups, executor turns and WAL counts per request)
    // of whatever `run` sends, from the server's own counters.
    let mut measure = |run: &mut dyn FnMut(&mut Client)| {
        let (before, wal_before) = (db.stats().net, db.stats().wal);
        let started = Instant::now();
        run(&mut client);
        let elapsed = started.elapsed();
        let after = db.stats().net;
        let served = after.requests - before.requests;
        assert_eq!(served, requests as u64, "every request was counted once");
        (
            elapsed,
            (after.readiness_wakeups - before.readiness_wakeups) as f64 / served as f64,
            (after.executor_turns - before.executor_turns) as f64 / served as f64,
            wal_since(wal_before),
        )
    };
    let (depth1, depth1_wakeups, depth1_turns, depth1_wal) = measure(&mut |client| {
        for _ in 0..requests {
            assert_eq!(client.get(oid, "v").expect("get"), Value::Int(7));
        }
    });
    let (depth8, depth8_wakeups, depth8_turns, depth8_wal) = measure(&mut |client| {
        let get = Request::Get { oid, attr: "v".into() };
        let mut pipe = client.pipeline().expect("pipeline");
        for _ in 0..requests {
            if pipe.outstanding() == DEPTH {
                assert!(matches!(pipe.recv().expect("recv"), Response::Value(Value::Int(7))));
            }
            pipe.send(&get).expect("send");
        }
        while pipe.outstanding() > 0 {
            assert!(matches!(pipe.recv().expect("recv"), Response::Value(Value::Int(7))));
        }
    });
    server.shutdown();

    let ns = |d: Duration| d.as_nanos() as f64 / requests as f64;
    println!(
        "request overhead: embedded {:.0} ns, depth 1 {:.0} ns ({depth1_wakeups:.2} wakeups, \
         {depth1_turns:.2} turns per request), depth {DEPTH} {:.0} ns ({depth8_wakeups:.2} \
         wakeups, {depth8_turns:.2} turns per request)",
        ns(embedded),
        ns(depth1),
        ns(depth8),
    );
    // One request at a time needs one event-loop wakeup (the read; the
    // executor writes the reply itself); eight deep, a wakeup and an
    // executor turn each serve several requests.
    gates.check("request_overhead.depth1_wakeups_per_request", depth1_wakeups, Cmp::AtMost, 1.1);
    gates.check("request_overhead.depth8_wakeups_per_request", depth8_wakeups, Cmp::AtMost, 0.6);
    gates.check("request_overhead.depth8_turns_per_request", depth8_turns, Cmp::AtMost, 0.6);
    // Each `get` is a transaction that only reads, and logs nothing.
    let lanes = [("embedded", embedded_wal), ("depth1", depth1_wal), ("depth8", depth8_wal)];
    for (lane, counts) in lanes {
        for (count, per_get) in ["appends", "flushes", "fsyncs"].into_iter().zip(counts) {
            let name = format!("request_overhead.{lane}_wal_{count}_per_get");
            gates.check(&name, per_get, Cmp::AtMost, 0.0);
        }
    }
    format!(
        "{{\n    \"requests\": {requests},\n    \"pipeline_depth\": {DEPTH},\n    \
         \"embedded_ns_per_request\": {:.0},\n    \"depth1_ns_per_request\": {:.0},\n    \
         \"depth1_wire_overhead_ns\": {:.0},\n    \
         \"depth1_wakeups_per_request\": {depth1_wakeups:.3},\n    \
         \"depth1_turns_per_request\": {depth1_turns:.3},\n    \
         \"depth8_ns_per_request\": {:.0},\n    \
         \"depth8_wakeups_per_request\": {depth8_wakeups:.3},\n    \
         \"depth8_turns_per_request\": {depth8_turns:.3}\n  }}",
        ns(embedded),
        ns(depth1),
        ns(depth1) - ns(embedded),
        ns(depth8),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let load = if smoke {
        Load { objects: 1_000, clients: 4, requests_per_client: 20 }
    } else {
        Load { objects: 6_000, clients: 4, requests_per_client: 60 }
    };

    let fixture = fleet(load.objects, 4, DbConfig::default());
    let db = Arc::new(fixture.db);
    let vehicles = fixture.vehicles;

    // In-process baseline: what the same query costs without the wire.
    let tx = db.begin();
    db.query(&tx, QUERY).expect("warm");
    let start = Instant::now();
    let expected_rows = db.query(&tx, QUERY).expect("baseline").len();
    let in_process = start.elapsed();
    db.commit(tx).expect("commit");
    assert!(expected_rows > 0, "fixture must produce matches for the bench query");

    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { workers: load.clients, ..ServerConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr();
    let before = db.stats().net; // count only the measured window

    let requests_per_client = load.requests_per_client;
    let started = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.clients)
            .map(|c| {
                let vehicles = &vehicles;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(requests_per_client);
                    for r in 0..requests_per_client {
                        let t = Instant::now();
                        // 1 query per 4 point reads: queries dominate the
                        // tail, reads the median — like a workstation
                        // refreshing one design view while navigating.
                        if r % 4 == 0 {
                            let got = client.query(QUERY).expect("query").len();
                            assert_eq!(got, expected_rows, "wire result diverged");
                        } else {
                            let oid = vehicles[(c * 7919 + r * 131) % vehicles.len()];
                            let w = client.get(oid, "weight").expect("get");
                            assert!(matches!(w, Value::Int(_)));
                        }
                        lat.push(t.elapsed());
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed();
    latencies.sort();
    let total = latencies.len();
    let throughput = total as f64 / elapsed.as_secs_f64();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);

    // Scrape the server's own view of the run, over the wire.
    let mut probe = Client::connect(addr).expect("probe connect");
    let scrape = probe.stats_prometheus().expect("scrape");
    drop(probe);
    server.shutdown();
    let after = db.stats().net;
    let d = |f: fn(&NetStats) -> u64| f(&after) - f(&before);
    let [requests, connections, errors, timeouts, busy] = [
        d(|n| n.requests),
        d(|n| n.connections_total),
        d(|n| n.errors),
        d(|n| n.timeouts),
        d(|n| n.busy_rejections),
    ];
    assert!(requests >= total as u64, "every request was counted");
    assert!(
        scrape.contains("orion_net_requests_total") && !scrape.contains("orion_net_requests_total 0\n"),
        "prometheus scrape carries live net counters"
    );

    println!(
        "{} clients x {} requests over {} objects: {elapsed:?} ({throughput:.1} req/s)",
        load.clients, load.requests_per_client, load.objects
    );
    println!(
        "latency: p50 {p50:?}, p99 {p99:?}; in-process query baseline {in_process:?} \
         ({expected_rows} rows)"
    );
    println!(
        "server counters: {requests} requests, {connections} connections, {errors} errors, \
         {timeouts} timeouts"
    );

    let mut gates = Gates::default();
    let sharded = sharded_section(smoke, &mut gates);
    let concurrent = concurrent_section(&mut gates);
    let overhead = request_overhead_section(smoke, &mut gates);

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let note = if cpus < load.clients {
        format!(
            ",\n  \"note\": \"host exposes {cpus} CPU(s); {} clients contend for them, \
             so latencies include scheduling\"",
            load.clients
        )
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"smoke\": {smoke},\n  \
         \"objects\": {},\n  \"clients\": {},\n  \"requests_per_client\": {},\n  \
         \"available_parallelism\": {cpus}{note},\n  \
         \"total_requests\": {total},\n  \"elapsed_ms\": {:.3},\n  \
         \"throughput_rps\": {:.1},\n  \
         \"latency\": {{\n    \"p50_ms\": {:.3},\n    \"p99_ms\": {:.3},\n    \
         \"in_process_query_ms\": {:.3}\n  }},\n  \
         \"query_rows\": {expected_rows},\n  \
         \"server\": {{\n    \"requests\": {},\n    \"connections_total\": {},\n    \
         \"errors\": {},\n    \"timeouts\": {},\n    \"busy_rejections\": {}\n  }},\n  \
         \"sharded\": {sharded},\n  \
         \"concurrent_connections\": {concurrent},\n  \
         \"request_overhead\": {overhead},\n  {}\n}}\n",
        load.objects,
        load.clients,
        load.requests_per_client,
        elapsed.as_secs_f64() * 1e3,
        throughput,
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        in_process.as_secs_f64() * 1e3,
        requests,
        connections,
        errors,
        timeouts,
        busy,
        gates.json(),
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");
    gates.finish();
}
