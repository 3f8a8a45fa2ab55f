//! Pipelining, admission control, and batch semantics over real
//! sockets: the contracts PR 9's evented core must keep.

use orion_core::{AttrSpec, Database, DbConfig, Domain, PrimitiveType, Value};
use orion_net::frame::{append_frame, FrameDecoder, MAX_FRAME};
use orion_net::{Client, Request, Response, Server, ServerConfig};
use orion_types::{DbError, Oid};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn counter_db() -> (Arc<Database>, Vec<Oid>) {
    let db = Database::open_in_memory();
    db.create_class(
        "Counter",
        &[],
        vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let tx = db.begin();
    let oids: Vec<Oid> = (0..8)
        .map(|i| db.create_object(&tx, "Counter", vec![("n", Value::Int(i))]).unwrap())
        .collect();
    db.commit(tx).unwrap();
    (Arc::new(db), oids)
}

#[test]
fn replies_come_back_in_fifo_order_under_a_64_deep_pipeline() {
    let (db, oids) = counter_db();
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut pipe = client.pipeline().unwrap();
    // 64 distinct reads, all in flight before any reply is read.
    for k in 0..64u64 {
        let oid = oids[(k % oids.len() as u64) as usize];
        pipe.send(&Request::Get { oid, attr: "n".into() }).unwrap();
    }
    assert_eq!(pipe.outstanding(), 64);
    for k in 0..64i64 {
        match pipe.recv().unwrap() {
            Response::Value(Value::Int(n)) => {
                assert_eq!(n, k % 8, "reply {k} answers send {k}, in order")
            }
            other => panic!("expected Value, got {other:?}"),
        }
    }
    assert_eq!(pipe.outstanding(), 0);
    drop(pipe);
    client.ping().unwrap(); // the session is still clean
    server.shutdown();
}

#[test]
fn a_mid_pipeline_error_does_not_poison_later_replies() {
    let (db, oids) = counter_db();
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut pipe = client.pipeline().unwrap();
    pipe.send(&Request::Get { oid: oids[0], attr: "n".into() }).unwrap();
    pipe.send(&Request::Get { oid: oids[1], attr: "bogus".into() }).unwrap(); // fails
    pipe.send(&Request::Get { oid: oids[2], attr: "n".into() }).unwrap();
    assert!(matches!(pipe.recv().unwrap(), Response::Value(Value::Int(0))));
    assert!(matches!(pipe.recv().unwrap(), Response::Err(DbError::UnknownAttribute { .. })));
    assert!(
        matches!(pipe.recv().unwrap(), Response::Value(Value::Int(2))),
        "the reply after the failed request is intact and in position"
    );
    drop(pipe);
    server.shutdown();
}

#[test]
fn disconnect_mid_pipeline_rolls_back_the_session_tx() {
    let config = DbConfig::builder().lock_timeout(Duration::from_secs(5)).build().unwrap();
    let db = Database::with_config(config);
    db.create_class(
        "Counter",
        &[],
        vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let db = Arc::new(db);
    let tx = db.begin();
    let oid = db.create_object(&tx, "Counter", vec![("n", Value::Int(7))]).unwrap();
    db.commit(tx).unwrap();

    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut writer = Client::connect(addr).unwrap();
    writer.begin().unwrap();
    let mut pipe = writer.pipeline().unwrap();
    // An uncommitted pipelined write inside the explicit transaction;
    // its X lock is held once the reply confirms it landed.
    pipe.send(&Request::Set { oid, attr: "n".into(), value: Value::Int(99) }).unwrap();
    assert!(matches!(pipe.recv().unwrap(), Response::Ok));
    // More writes go out, but the client vanishes with their replies
    // (and the transaction) still in flight.
    pipe.send(&Request::Set { oid, attr: "n".into(), value: Value::Int(100) }).unwrap();
    drop(pipe);
    drop(writer);

    // The server must notice the disconnect and roll the session
    // transaction back, releasing the lock: a fresh write succeeds well
    // within the lock timeout, and the uncommitted 99/100 are gone.
    let mut other = Client::connect(addr).unwrap();
    other.set(oid, "n", Value::Int(1)).unwrap();
    assert_eq!(other.get(oid, "n").unwrap(), Value::Int(1));
    server.shutdown();
}

#[test]
fn teardown_behind_a_queued_request_still_honors_disconnect_rollback() {
    // Regression: a connection that dies while its admitted request is
    // still *queued* behind a busy executor must not roll its session
    // back ahead of that request. The old teardown probed the session
    // lock — which a queued (not yet running) request does not hold —
    // rolled back inline, and the queued write then executed in
    // auto-commit, durably committing a fragment of the rolled-back
    // transaction.
    let config = DbConfig::builder().lock_timeout(Duration::from_secs(5)).build().unwrap();
    let db = Database::with_config(config);
    db.create_class(
        "Counter",
        &[],
        vec![AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let db = Arc::new(db);
    let tx = db.begin();
    let oid = db.create_object(&tx, "Counter", vec![("n", Value::Int(7))]).unwrap();
    db.commit(tx).unwrap();

    // The gate parks the single executor inside a Ping's hook, so the
    // victim's next write sits in the executor queue with no lock held.
    let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let entered = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (hook_gate, hook_entered) = (Arc::clone(&gate), Arc::clone(&entered));
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            io_threads: 1,
            read_timeout: Duration::from_millis(200),
            request_hook: Some(Arc::new(move |request: &Request| {
                if matches!(request, Request::Ping) {
                    hook_entered.store(true, std::sync::atomic::Ordering::Release);
                    let (lock, cv) = &*hook_gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
            })),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let frame_into = |blob: &mut Vec<u8>, req: &Request| {
        let payload = req.encode();
        blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        blob.extend_from_slice(&payload);
    };
    use std::io::Write as _;

    // Victim session: explicit transaction with one confirmed write.
    let mut victim = TcpStream::connect(addr).unwrap();
    let mut replies = FrameDecoder::new(MAX_FRAME);
    victim.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut blob = Vec::new();
    frame_into(&mut blob, &Request::Hello { principal: None });
    frame_into(&mut blob, &Request::Begin);
    frame_into(&mut blob, &Request::Set { oid, attr: "n".into(), value: Value::Int(99) });
    victim.write_all(&blob).unwrap();
    assert!(matches!(read_response(&mut victim, &mut replies), Response::Hello { .. }));
    assert!(matches!(read_response(&mut victim, &mut replies), Response::Txn { .. }));
    assert!(matches!(read_response(&mut victim, &mut replies), Response::Ok));

    // Park the executor behind the gate.
    let mut blocker = Client::connect(addr).unwrap();
    let mut bpipe = blocker.pipeline().unwrap();
    bpipe.send(&Request::Ping).unwrap();
    while !entered.load(std::sync::atomic::Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
    }

    // A second write is admitted and queued behind the parked Ping;
    // two stray bytes open a frame that never completes, so the
    // mid-frame stall clock tears the victim down while its write is
    // still waiting for the executor.
    let mut blob = Vec::new();
    frame_into(&mut blob, &Request::Set { oid, attr: "n".into(), value: Value::Int(100) });
    blob.extend_from_slice(&[0xAA, 0xBB]);
    victim.write_all(&blob).unwrap();
    std::thread::sleep(Duration::from_millis(400)); // > read_timeout

    // Release the executor: the Ping answers, then the victim's queued
    // write reaches the executor on a session that is already gone.
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    assert!(matches!(bpipe.recv().unwrap(), Response::Pong));
    drop(bpipe);

    // Give the queued write every chance to (incorrectly) land, then
    // check the transaction rolled back whole: no 99, no 100.
    std::thread::sleep(Duration::from_millis(300));
    let probe = db.begin();
    assert_eq!(
        db.get(&probe, oid, "n").unwrap(),
        Value::Int(7),
        "disconnect must roll back the whole transaction, including writes \
         that were still queued when the connection died"
    );
    db.rollback(probe).unwrap();

    // And the rollback released the victim's locks.
    blocker.set(oid, "n", Value::Int(1)).unwrap();
    assert_eq!(blocker.get(oid, "n").unwrap(), Value::Int(1));
    server.shutdown();
}

#[test]
fn pipelined_clients_match_the_serial_client_byte_for_byte() {
    let (db, oids) = counter_db();
    // Enough admission headroom that the 6 × 32-deep bursts are never
    // shed (shedding is exercised separately below).
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { workers: 6, exec_queue_depth: 512, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let query = "select c from Counter c where c.n >= 2 order by c.n asc";

    // Serial baseline: one request/response at a time.
    let serial_bytes = {
        let mut client = Client::connect(addr).unwrap();
        let r = client.query(query).unwrap();
        Response::Query { rows: r.rows, oids: r.oids }.encode()
    };

    // Six concurrent connections, each pipelining a mixed burst.
    let handles: Vec<_> = (0..6)
        .map(|c| {
            let serial_bytes = serial_bytes.clone();
            let oids = oids.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut pipe = client.pipeline().unwrap();
                for k in 0..16 {
                    pipe.send(&Request::Get {
                        oid: oids[(c + k) % oids.len()],
                        attr: "n".into(),
                    })
                    .unwrap();
                    pipe.send_query(query).unwrap();
                }
                for k in 0..16 {
                    match pipe.recv().unwrap() {
                        Response::Value(Value::Int(n)) => {
                            assert_eq!(n as usize, (c + k) % oids.len())
                        }
                        other => panic!("expected Value, got {other:?}"),
                    }
                    let r = pipe.recv_query().unwrap();
                    let bytes = Response::Query { rows: r.rows, oids: r.oids }.encode();
                    assert_eq!(bytes, serial_bytes, "pipelined leg differs from serial");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("pipelined client");
    }
    server.shutdown();
}

#[test]
fn admission_control_sheds_with_server_busy_and_never_hangs() {
    let (db, oids) = counter_db();
    // A tiny pipeline cap on a single worker: a deep burst must shed
    // its tail, answer everything, and kill nothing in flight.
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { workers: 1, max_pipeline: 4, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let mut pipe = client.pipeline().unwrap();
    let burst = 64;
    for _ in 0..burst {
        pipe.send(&Request::Get { oid: oids[0], attr: "n".into() }).unwrap();
    }
    let mut served = 0u32;
    let mut shed = 0u32;
    for _ in 0..burst {
        match pipe.recv().unwrap() {
            Response::Value(Value::Int(0)) => served += 1,
            Response::Err(DbError::ServerBusy) => shed += 1,
            other => panic!("expected Value or ServerBusy, got {other:?}"),
        }
    }
    assert_eq!(served + shed, burst, "every request answered, none dropped");
    assert!(shed > 0, "a 64-deep burst over a 4-deep cap must shed");
    assert!(served >= 4, "admitted requests are served, not killed");
    drop(pipe);
    // The session survives shedding.
    assert_eq!(client.get(oids[0], "n").unwrap(), Value::Int(0));

    let stats = db.stats();
    assert!(stats.net.requests_shed >= u64::from(shed));
    assert!(stats.net.pipeline_depth.count >= u64::from(burst));
    server.shutdown();
}

#[test]
fn batch_is_one_round_trip_and_atomic_outside_a_tx() {
    let (db, oids) = counter_db();
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A successful batch: per-op results in order.
    let results = client
        .batch(vec![
            Request::Set { oid: oids[0], attr: "n".into(), value: Value::Int(10) },
            Request::Get { oid: oids[0], attr: "n".into() },
            Request::CreateObject { class: "Counter".into(), attrs: vec![("n".into(), Value::Int(42))] },
        ])
        .unwrap();
    assert!(matches!(results[0], Response::Ok));
    assert!(matches!(results[1], Response::Value(Value::Int(10))));
    let created = match results[2] {
        Response::Created { oid } => oid,
        ref other => panic!("expected Created, got {other:?}"),
    };
    assert_eq!(client.get(created, "n").unwrap(), Value::Int(42));

    // A failing batch rolls back as a unit: the first Set must not
    // survive the second op's failure.
    let err = client
        .batch(vec![
            Request::Set { oid: oids[1], attr: "n".into(), value: Value::Int(77) },
            Request::Get { oid: oids[1], attr: "bogus".into() },
        ])
        .unwrap_err();
    assert!(matches!(err, DbError::UnknownAttribute { .. }), "{err:?}");
    assert_eq!(client.get(oids[1], "n").unwrap(), Value::Int(1), "batch rolled back atomically");

    // Non-DML inside a batch is a protocol error, not an execution.
    let err = client.batch(vec![Request::Ping]).unwrap_err();
    assert!(matches!(err, DbError::Protocol(_)), "{err:?}");
    server.shutdown();
}

#[test]
fn event_loop_metrics_are_monotonic_and_rendered() {
    let (db, oids) = counter_db();
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = db.stats().net;
    let mut pipe = client.pipeline().unwrap();
    for _ in 0..8 {
        pipe.send(&Request::Get { oid: oids[0], attr: "n".into() }).unwrap();
    }
    for _ in 0..8 {
        pipe.recv().unwrap();
    }
    drop(pipe);
    let after = db.stats().net;

    // Counters and histogram counts only move forward.
    assert!(after.requests >= before.requests + 8);
    assert!(after.readiness_wakeups > before.readiness_wakeups, "traffic means wakeups");
    assert!(after.requests_shed >= before.requests_shed);
    assert!(after.pipeline_depth.count >= before.pipeline_depth.count + 8);
    assert!(after.request_latency.count >= before.request_latency.count + 8);
    assert!(after.connections_per_worker >= 1, "one live connection registers on a worker");

    // And a second pass is monotonic over the first.
    client.ping().unwrap();
    let third = db.stats().net;
    assert!(third.requests > after.requests);
    assert!(third.readiness_wakeups >= after.readiness_wakeups);
    assert!(third.pipeline_depth.count >= after.pipeline_depth.count);

    // All new series reach the Prometheus rendering.
    let scrape = client.stats_prometheus().unwrap();
    for series in [
        "orion_net_pipeline_depth",
        "orion_net_requests_shed_total",
        "orion_net_readiness_wakeups_total",
        "orion_net_readiness_wakeups_per_sec",
        "orion_net_connections_per_worker",
    ] {
        assert!(scrape.contains(series), "scrape is missing {series}");
    }
    server.shutdown();
}

#[test]
fn raw_pipelined_frames_in_one_write_are_all_answered() {
    // The decoder must handle many frames coalesced into one TCP
    // segment — exactly what an aggressive pipelining client produces.
    let (db, oids) = counter_db();
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Handshake plus ten reads, coalesced into a single write.
    let mut blob = Vec::new();
    let frame_into = |blob: &mut Vec<u8>, req: &Request| {
        let payload = req.encode();
        blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        blob.extend_from_slice(&payload);
    };
    frame_into(&mut blob, &Request::Hello { principal: None });
    for _ in 0..10 {
        frame_into(&mut blob, &Request::Get { oid: oids[3], attr: "n".into() });
    }
    use std::io::Write as _;
    raw.write_all(&blob).unwrap();

    let mut replies = FrameDecoder::new(MAX_FRAME);
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Hello { .. }));
    for _ in 0..10 {
        let reply = read_response(&mut raw, &mut replies);
        assert!(matches!(reply, Response::Value(Value::Int(3))));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Lane ownership: who runs, who writes, who yields
// ---------------------------------------------------------------------

/// The next reply on `stream`. `replies` lives as long as the stream:
/// one read may bring several replies, and the rest wait in it.
fn read_response(stream: &mut TcpStream, replies: &mut FrameDecoder) -> Response {
    loop {
        if let Some(frame) = replies.next_frame().unwrap() {
            return Response::decode(&frame).unwrap();
        }
        assert!(replies.read_from(stream).unwrap() > 0, "connection closed before a reply");
    }
}

/// A request hook that parks every `Get` until the gate opens.
fn gated_gets() -> (Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>, orion_net::server::RequestHook) {
    let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let hook_gate = Arc::clone(&gate);
    let hook: orion_net::server::RequestHook = Arc::new(move |request: &Request| {
        if matches!(request, Request::Get { .. }) {
            let (lock, cv) = &*hook_gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
    });
    (gate, hook)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Executed requests, undecodable frames and shed requests share one
/// reply stream, and it is the arrival order — however the bytes were
/// fragmented on the way in.
fn replies_keep_arrival_order(dribble: bool) {
    use std::io::Write as _;
    let (db, oids) = counter_db();
    let (gate, hook) = gated_gets();
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { workers: 1, max_pipeline: 4, request_hook: Some(hook), ..ServerConfig::default() },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut replies = FrameDecoder::new(MAX_FRAME);
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = Vec::new();
    append_frame(&mut hello, &Request::Hello { principal: None }.encode());
    raw.write_all(&hello).unwrap();
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Hello { .. }));

    // The first Get parks the only executor inside the hook, so what
    // follows meets a full pipeline whether it arrives in one segment
    // or byte by byte: four admitted, the rest shed, the two
    // undecodable frames answered where they stood.
    let get = |k: usize| Request::Get { oid: oids[k], attr: "n".into() }.encode();
    let mut blob = Vec::new();
    append_frame(&mut blob, &get(0));
    append_frame(&mut blob, &get(1));
    append_frame(&mut blob, &[0xFF, 0xFE]); // no such request tag
    append_frame(&mut blob, &get(2));
    append_frame(&mut blob, &get(3));
    append_frame(&mut blob, &get(4)); // fifth in flight: shed
    append_frame(&mut blob, &[0xFF]);
    append_frame(&mut blob, &get(5)); // still full: shed
    let before = db.stats().net.requests;
    if dribble {
        for byte in &blob {
            raw.write_all(std::slice::from_ref(byte)).unwrap();
        }
    } else {
        raw.write_all(&blob).unwrap();
    }
    wait_until("all eight frames admitted", || db.stats().net.requests >= before + 8);
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    for k in [0i64, 1] {
        let reply = read_response(&mut raw, &mut replies);
        assert!(matches!(reply, Response::Value(Value::Int(n)) if n == k));
    }
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Err(DbError::Protocol(_))));
    for k in [2i64, 3] {
        let reply = read_response(&mut raw, &mut replies);
        assert!(matches!(reply, Response::Value(Value::Int(n)) if n == k));
    }
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Err(DbError::ServerBusy)));
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Err(DbError::Protocol(_))));
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Err(DbError::ServerBusy)));
    // The session survived all of it.
    let mut ping = Vec::new();
    append_frame(&mut ping, &Request::Ping.encode());
    raw.write_all(&ping).unwrap();
    assert!(matches!(read_response(&mut raw, &mut replies), Response::Pong));
    server.shutdown();
}

#[test]
fn one_write_of_mixed_frames_is_answered_in_arrival_order() {
    replies_keep_arrival_order(false);
}

#[test]
fn dribbled_mixed_frames_are_answered_in_arrival_order() {
    replies_keep_arrival_order(true);
}

#[test]
fn a_full_pipeline_yields_the_executor_after_one_turn() {
    // One executor, one connection that never lets its 64-deep
    // pipeline run dry (each request costs the server far more than the
    // client needs to refill it). Run-to-completion alone would starve
    // everyone else for as long as that lasts; the turn cap sends the
    // lane to the back of the queue after `max_pipeline` requests.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let (db, oids) = counter_db();
    let gets = Arc::new(AtomicUsize::new(0));
    let hook_gets = Arc::clone(&gets);
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            request_hook: Some(Arc::new(move |request: &Request| {
                if matches!(request, Request::Get { .. }) {
                    hook_gets.fetch_add(1, Ordering::AcqRel);
                    std::thread::sleep(Duration::from_micros(200));
                }
            })),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let hog = {
        let stop = Arc::clone(&stop);
        let oid = oids[0];
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut pipe = client.pipeline().unwrap();
            let get = Request::Get { oid, attr: "n".into() };
            for _ in 0..64 {
                pipe.send(&get).unwrap();
            }
            while !stop.load(Ordering::Acquire) {
                assert!(matches!(pipe.recv().unwrap(), Response::Value(_)), "never shed");
                pipe.send(&get).unwrap();
            }
            while pipe.outstanding() > 0 {
                pipe.recv().unwrap();
            }
        })
    };
    let mut other = Client::connect(addr).unwrap();
    wait_until("the hog to be two turns in", || gets.load(Ordering::Acquire) >= 128);
    let before = gets.load(Ordering::Acquire);
    let pinged = other.ping();
    let waited = gets.load(Ordering::Acquire) - before;
    stop.store(true, Ordering::Release);
    hog.join().expect("hog thread");
    pinged.unwrap();
    assert!(
        waited <= 64 + 16,
        "the ping waited out {waited} of the hog's requests; one turn is 64"
    );
    server.shutdown();
}

#[test]
fn a_burst_of_slow_requests_is_answered_one_by_one() {
    // Replies share a write only while the requests behind them are
    // quick. Eight pipelined 50 ms requests: the first reply must be on
    // the wire when the first request is done, not 400 ms later when
    // the lane runs dry — counted in requests started, not in time.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let (db, oids) = counter_db();
    let started = Arc::new(AtomicUsize::new(0));
    let hook_started = Arc::clone(&started);
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            request_hook: Some(Arc::new(move |request: &Request| {
                if matches!(request, Request::Get { .. }) {
                    hook_started.fetch_add(1, Ordering::AcqRel);
                    std::thread::sleep(Duration::from_millis(50));
                }
            })),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut pipe = client.pipeline().unwrap();
    for oid in &oids[..8] {
        pipe.send(&Request::Get { oid: *oid, attr: "n".into() }).unwrap();
    }
    for k in 0..8 {
        assert!(matches!(pipe.recv().unwrap(), Response::Value(Value::Int(n)) if n == k as i64));
        let running = started.load(Ordering::Acquire);
        assert!(running <= k + 2, "reply {k} arrived only after request {running} had started");
    }
    drop(pipe);
    server.shutdown();
}

#[test]
fn a_peer_that_never_reads_is_parked_then_disconnected_without_blocking_an_executor() {
    use std::io::Write as _;
    // ~1 MB per query reply: a few of them fill both socket buffers.
    let db = Database::open_in_memory();
    db.create_class(
        "Blob",
        &[],
        vec![
            AttrSpec::new("n", Domain::Primitive(PrimitiveType::Int)),
            AttrSpec::new("body", Domain::Primitive(PrimitiveType::Str)),
        ],
    )
    .unwrap();
    let tx = db.begin();
    let body = "x".repeat(1024);
    let oids: Vec<Oid> = (0..1000)
        .map(|i| {
            db.create_object(&tx, "Blob", vec![("n", Value::Int(i)), ("body", Value::str(&body))])
                .unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    let db = Arc::new(db);
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // The hostile session: an open transaction with one write in it,
    // then 48 large queries whose replies it never reads.
    let mut hostile = TcpStream::connect(addr).unwrap();
    let mut replies = FrameDecoder::new(MAX_FRAME);
    hostile.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut blob = Vec::new();
    append_frame(&mut blob, &Request::Hello { principal: None }.encode());
    append_frame(&mut blob, &Request::Begin.encode());
    append_frame(
        &mut blob,
        &Request::Set { oid: oids[0], attr: "n".into(), value: Value::Int(-1) }.encode(),
    );
    hostile.write_all(&blob).unwrap();
    assert!(matches!(read_response(&mut hostile, &mut replies), Response::Hello { .. }));
    assert!(matches!(read_response(&mut hostile, &mut replies), Response::Txn { .. }));
    assert!(matches!(read_response(&mut hostile, &mut replies), Response::Ok));
    let sent = 48u64;
    let executed_before = db.stats().net.request_latency.count;
    let mut blob = Vec::new();
    for _ in 0..sent {
        append_frame(&mut blob, &Request::Query { text: "select b.body from Blob b".into() }.encode());
    }
    hostile.write_all(&blob).unwrap();

    // The single executor stays available the whole time: a second
    // session is served while the first one's replies pile up, stall,
    // and finally time out.
    let mut other = Client::connect(addr).unwrap();
    let mut served = 0u64;
    wait_until("write_timeout to disconnect the hostile peer", || {
        other.ping().expect("the executor must not be stuck behind the stalled peer");
        served += 1;
        db.stats().net.timeouts >= 1
    });
    assert!(served >= 2, "the second session was served during the stall");
    // The lane parked once the backlog passed the high-water mark:
    // admitted queries were left unrun rather than buffered without
    // bound. (`other`'s own requests are pings and the handshake.)
    let executed = db.stats().net.request_latency.count - executed_before - served - 1;
    assert!(executed < sent, "all {sent} queries ran; the backlog never stopped");

    // Disconnect rolled the transaction back and released its lock.
    assert_eq!(other.get(oids[0], "n").unwrap(), Value::Int(0));
    other.set(oids[0], "n", Value::Int(5)).unwrap();
    server.shutdown();
}
