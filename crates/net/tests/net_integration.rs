//! End-to-end tests: a real server on an ephemeral port, real sockets,
//! concurrent clients.

use orion_core::{AttrSpec, Database, DbConfig, Domain, PrimitiveType, Value};
use orion_net::frame::{append_frame, FrameDecoder, MAX_FRAME};
use orion_net::{Client, ClientConfig, Request, Response, Server, ServerConfig};
use orion_types::{DbError, Oid};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// The Figure 1 schema and data: vehicles (a small hierarchy) made by
/// companies in various cities.
fn fleet_db(config: DbConfig) -> (Arc<Database>, Oid) {
    let db = Database::with_config(config);
    let str_dom = || Domain::Primitive(PrimitiveType::Str);
    let int_dom = || Domain::Primitive(PrimitiveType::Int);
    db.create_class(
        "Company",
        &[],
        vec![AttrSpec::new("name", str_dom()), AttrSpec::new("location", str_dom())],
    )
    .unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("weight", int_dom()),
            AttrSpec::new("manufacturer", Domain::Class(company)),
        ],
    )
    .unwrap();
    db.create_class("Truck", &["Vehicle"], vec![AttrSpec::new("payload", int_dom())]).unwrap();
    let tx = db.begin();
    let motorco = db
        .create_object(
            &tx,
            "Company",
            vec![("name", Value::str("MotorCo")), ("location", Value::str("Detroit"))],
        )
        .unwrap();
    let chipco = db
        .create_object(
            &tx,
            "Company",
            vec![("name", Value::str("ChipCo")), ("location", Value::str("Austin"))],
        )
        .unwrap();
    let mut first_vehicle = None;
    for i in 1..=10i64 {
        let (class, manu) = if i % 2 == 0 { ("Truck", motorco) } else { ("Vehicle", chipco) };
        let oid = db
            .create_object(
                &tx,
                class,
                vec![("weight", Value::Int(1000 * i)), ("manufacturer", Value::Ref(manu))],
            )
            .unwrap();
        first_vehicle.get_or_insert(oid);
    }
    db.commit(tx).unwrap();
    (Arc::new(db), first_vehicle.unwrap())
}

const FIG1_QUERY: &str = "select v from Vehicle* v \
     where v.weight > 7500 and v.manufacturer.location = \"Detroit\" \
     order by v.weight asc";

#[test]
fn concurrent_clients_get_byte_identical_results() {
    let (db, _) = fleet_db(DbConfig::default());
    let expected = {
        let tx = db.begin();
        let r = db.query(&tx, FIG1_QUERY).unwrap();
        db.commit(tx).unwrap();
        r
    };
    assert!(!expected.oids.is_empty(), "fixture matches the Figure 1 query");
    let expected_bytes =
        Response::Query { rows: expected.rows.clone(), oids: expected.oids.clone() }.encode();

    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { workers: 6, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let expected_bytes = expected_bytes.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    let got = client.query(FIG1_QUERY).unwrap();
                    let got_bytes =
                        Response::Query { rows: got.rows, oids: got.oids }.encode();
                    assert_eq!(got_bytes, expected_bytes, "wire result differs from facade");
                }
                client.explain(FIG1_QUERY).unwrap()
            })
        })
        .collect();
    let tx = db.begin();
    let in_process_plan = db.explain(&tx, FIG1_QUERY).unwrap().to_string();
    db.commit(tx).unwrap();
    for h in handles {
        let remote_plan = h.join().expect("client thread");
        assert_eq!(remote_plan, in_process_plan);
    }
    server.shutdown();
}

#[test]
fn lock_conflict_surfaces_as_lock_timeout_over_the_wire() {
    let config = DbConfig::builder().lock_timeout(Duration::from_millis(200)).build().unwrap();
    let (db, vehicle) = fleet_db(config);
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut holder = Client::connect(addr).unwrap();
    let holder_tx = holder.begin().unwrap();
    holder.set(vehicle, "weight", Value::Int(9999)).unwrap(); // X lock held

    let mut waiter = Client::connect(addr).unwrap();
    waiter.begin().unwrap();
    match waiter.set(vehicle, "weight", Value::Int(1)) {
        Err(DbError::LockTimeout { txn, what }) => {
            assert_ne!(txn, holder_tx, "the waiter times out, not the holder");
            assert!(!what.is_empty());
        }
        other => panic!("expected LockTimeout over the wire, got {other:?}"),
    }
    waiter.rollback().unwrap();
    holder.commit().unwrap();

    // The holder's committed write is visible to a fresh reader.
    let mut reader = Client::connect(addr).unwrap();
    assert_eq!(reader.get(vehicle, "weight").unwrap(), Value::Int(9999));
    server.shutdown();
}

/// A client that only sends failing auto-commit requests costs other
/// sessions nothing: the server rolls each failure back, and a rollback
/// reverts what its transaction wrote under the shared gate, so it
/// never waits out — or stops — anyone else. A second client's
/// interleaved reads all succeed.
#[test]
fn failing_autocommit_requests_never_take_the_exclusive_gate() {
    let (db, vehicle) = fleet_db(DbConfig::default());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let exclusive = db.stats().gate.exclusive_acquisitions;

    let mut hostile = Client::connect(addr).unwrap();
    let mut reader = Client::connect(addr).unwrap();
    for _ in 0..1_000 {
        let err = hostile.set(vehicle, "weight", Value::str("heavy")).unwrap_err();
        assert!(matches!(err, DbError::DomainViolation { .. }), "{err:?}");
        assert_eq!(reader.get(vehicle, "weight").unwrap(), Value::Int(1000));
    }
    assert_eq!(db.stats().gate.exclusive_acquisitions, exclusive, "no rollback stopped the world");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_request() {
    let config = DbConfig::builder().lock_timeout(Duration::from_secs(3)).build().unwrap();
    let (db, vehicle) = fleet_db(config);
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The holder takes an X lock and then goes quiet.
    let mut holder = Client::connect(addr).unwrap();
    holder.begin().unwrap();
    holder.set(vehicle, "weight", Value::Int(1)).unwrap();

    // The waiter's read is now in flight, blocked on that lock.
    let waiter = std::thread::spawn(move || {
        let mut client = Client::connect_with(
            addr,
            ClientConfig { reconnect: false, ..ClientConfig::default() },
        )
        .unwrap();
        client.get(vehicle, "weight")
    });
    std::thread::sleep(Duration::from_millis(300));

    // Shutdown must let the waiter's request finish and deliver its
    // response: either the value (holder evicted first, its uncommitted
    // write rolled back, lock released) or a LockTimeout — never a dead
    // socket.
    server.shutdown();
    match waiter.join().expect("waiter thread") {
        Ok(v) => assert_eq!(v, Value::Int(1000), "the holder's write rolled back"),
        Err(DbError::LockTimeout { .. }) => {}
        Err(other) => panic!("drained request lost its response: {other:?}"),
    }
}

#[test]
fn connection_cap_overflow_is_rejected_with_server_busy() {
    let (db, _) = fleet_db(DbConfig::default());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    // Two sessions fill the cap (pinged, so both are fully admitted —
    // the acceptor is single-threaded, so the count is settled before
    // the next accept).
    let mut a = Client::connect(addr).unwrap();
    a.ping().unwrap();
    let mut b = Client::connect(addr).unwrap();
    b.ping().unwrap();
    // Over capacity: turned away at the door with a reason, not a slam.
    let mut rejected = TcpStream::connect(addr).unwrap();
    match exchange(&mut rejected, None) {
        Response::Err(DbError::ServerBusy) => {}
        other => panic!("expected ServerBusy, got {other:?}"),
    }
    assert!(db.stats().net.busy_rejections >= 1);
    // The admitted sessions were untouched by the rejection.
    a.ping().unwrap();
    b.ping().unwrap();
    server.shutdown();
}

#[test]
fn idle_sessions_are_evicted_and_the_client_reconnects() {
    let (db, _) = fleet_db(DbConfig::default());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { idle_timeout: Duration::from_millis(200), ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600)); // evicted meanwhile
    client.ping().unwrap(); // transparently re-dials
    assert!(db.stats().net.timeouts >= 1, "eviction counts as a timeout");

    let mut rigid = Client::connect_with(
        server.local_addr(),
        ClientConfig { reconnect: false, ..ClientConfig::default() },
    )
    .unwrap();
    rigid.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    match rigid.ping() {
        Err(DbError::Net(_)) => {}
        other => panic!("reconnect disabled must surface the dead socket, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_request_longer_than_idle_timeout_does_not_evict_its_own_session() {
    // The idle clock starts when the last reply is written, not when
    // its request was read: a slow request must not cost the session
    // its open transaction the moment it is answered.
    let (db, vehicle) = fleet_db(DbConfig::default());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            request_hook: Some(Arc::new(|request: &Request| {
                if matches!(request, Request::Set { .. }) {
                    std::thread::sleep(Duration::from_millis(350));
                }
            })),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientConfig { reconnect: false, ..ClientConfig::default() },
    )
    .unwrap();
    client.begin().unwrap();
    client.set(vehicle, "weight", Value::Int(4242)).unwrap(); // 350 ms > idle_timeout
    client.commit().expect("the session and its transaction outlive the slow request");
    assert_eq!(client.get(vehicle, "weight").unwrap(), Value::Int(4242));

    // Nothing wakes the event loop when a reply is written, yet a
    // session that then stays silent is still evicted on time.
    let evictions = db.stats().net.timeouts;
    std::thread::sleep(Duration::from_millis(600));
    assert!(db.stats().net.timeouts > evictions, "the silent session was evicted");
    assert!(matches!(client.ping(), Err(DbError::Net(_))));
    server.shutdown();
}

/// Send `request` (if any) on a raw stream and read the one reply it
/// gets; nothing else is in flight, so the decoder may end with it.
fn exchange(raw: &mut TcpStream, request: Option<&Request>) -> Response {
    if let Some(request) = request {
        let mut frame = Vec::new();
        append_frame(&mut frame, &request.encode());
        raw.write_all(&frame).unwrap();
    }
    let mut replies = FrameDecoder::new(MAX_FRAME);
    loop {
        if let Some(frame) = replies.next_frame().unwrap() {
            return Response::decode(&frame).unwrap();
        }
        assert!(replies.read_from(raw).unwrap() > 0, "connection closed before a reply");
    }
}

#[test]
fn protocol_violations_are_answered_not_dropped() {
    let (db, _) = fleet_db(DbConfig::default());
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A request before Hello is a protocol error.
    let mut raw = TcpStream::connect(addr).unwrap();
    let reply = exchange(&mut raw, Some(&Request::Ping));
    assert!(matches!(reply, Response::Err(DbError::Protocol(_))));

    // So is a second Hello on an open session.
    let mut raw = TcpStream::connect(addr).unwrap();
    let hello = Request::Hello { principal: None };
    assert!(matches!(exchange(&mut raw, Some(&hello)), Response::Hello { .. }));
    assert!(matches!(exchange(&mut raw, Some(&hello)), Response::Err(DbError::Protocol(_))));
    server.shutdown();
}

#[test]
fn a_deeply_nested_value_is_refused_without_killing_the_server() {
    let (db, vehicle) = fleet_db(DbConfig::default());
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let hello = exchange(&mut raw, Some(&Request::Hello { principal: None }));
    assert!(matches!(hello, Response::Hello { .. }));

    // `Set weight = {{{ ... {null} ... }}}`, 100 000 sets deep: 500 KB,
    // far under the frame cap. Built as bytes: a `Value` that deep would
    // overflow this thread's stack too.
    let mut set = Request::Set { oid: vehicle, attr: "weight".into(), value: Value::Null }.encode();
    set.pop(); // the null value's tag
    for _ in 0..100_000 {
        set.push(6); // a set
        set.extend_from_slice(&1u32.to_le_bytes()); // of one element
    }
    set.push(0); // innermost: null
    let mut frame = Vec::new();
    append_frame(&mut frame, &set);
    raw.write_all(&frame).unwrap();
    // An error reply, or the connection closed: either way no abort.
    let mut replies = FrameDecoder::new(MAX_FRAME);
    let reply = loop {
        match replies.next_frame() {
            Ok(Some(frame)) => break Some(Response::decode(&frame).unwrap()),
            Ok(None) => {}
            Err(_) => break None,
        }
        if replies.read_from(&mut raw).map_or(true, |n| n == 0) {
            break None;
        }
    };
    assert!(matches!(reply, None | Some(Response::Err(_))), "{reply:?}");

    // Every other session is still served.
    Client::connect(addr).unwrap().ping().unwrap();
    server.shutdown();
}

/// Query texts whose predicates nest far too deep — 400 KB of `not`s,
/// a 240 KB chain of conjuncts — each get a parse error on an executor
/// thread's stack instead of aborting the server, which goes on serving.
#[test]
fn a_deeply_nested_query_is_refused_without_killing_the_server() {
    let (db, _) = fleet_db(DbConfig::default());
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let nots = format!("select v from Vehicle v where {}v.weight = 1", "not ".repeat(100_000));
    let conjuncts = vec!["v.weight = 1"; 20_000].join(" and ");
    let chain = format!("select v from Vehicle v where {conjuncts}");
    let mut hostile = Client::connect(addr).unwrap();
    for text in [nots, chain] {
        match hostile.query(&text) {
            Err(DbError::Parse { message, .. }) => assert!(message.contains("deeper"), "{message}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    Client::connect(addr).unwrap().ping().unwrap();
    server.shutdown();
}

#[test]
fn facade_errors_cross_the_wire_intact() {
    let (db, vehicle) = fleet_db(DbConfig::default());
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.query("select v from Spaceship v") {
        Err(DbError::UnknownClass(name)) => assert_eq!(name, "Spaceship"),
        other => panic!("expected UnknownClass, got {other:?}"),
    }
    match client.get(vehicle, "wingspan") {
        Err(DbError::UnknownAttribute { class: _, attribute }) => {
            assert_eq!(attribute, "wingspan")
        }
        other => panic!("expected UnknownAttribute, got {other:?}"),
    }
    match client.checkout(vehicle) {
        Err(DbError::InvalidTxnState(_)) => {} // checkout needs an explicit tx
        other => panic!("expected InvalidTxnState, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn full_session_ddl_dml_checkout_checkin_over_the_wire() {
    let db = Arc::new(Database::open_in_memory());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // DDL: a composite design hierarchy, created remotely.
    let cell_id = client
        .create_class(
            "Cell",
            &[],
            vec![AttrSpec::new("area", Domain::Primitive(PrimitiveType::Int))],
        )
        .unwrap();
    client
        .create_class(
            "Design",
            &[],
            vec![
                AttrSpec::new("title", Domain::Primitive(PrimitiveType::Str)),
                AttrSpec::new(
                    "cells",
                    Domain::set_of_class(orion_types::ClassId(cell_id)),
                )
                .composite(),
            ],
        )
        .unwrap();
    client
        .create_index(
            "design_title",
            orion_core::IndexKind::SingleClass,
            "Design",
            &["title"],
        )
        .unwrap();

    // DML in an explicit transaction.
    client.begin().unwrap();
    let design = client
        .create_object("Design", vec![("title", Value::str("alu64"))])
        .unwrap();
    client.commit().unwrap();

    // Checkout requires a transaction; edit the workspace, check it in.
    client.begin().unwrap();
    let mut workspace = client.checkout(design).unwrap();
    assert_eq!(workspace.len(), 1);
    for (_, attrs) in &mut workspace {
        for (name, value) in attrs.iter_mut() {
            if name == "title" {
                *value = Value::str("alu128");
            }
        }
    }
    client.checkin(workspace).unwrap();
    client.commit().unwrap();
    assert_eq!(client.get(design, "title").unwrap(), Value::str("alu128"));

    // The indexed query sees the committed edit.
    let hits = client
        .query("select d from Design d where d.title = \"alu128\"")
        .unwrap();
    assert_eq!(hits.oids, vec![design]);

    // The scrape reflects the traffic this session generated.
    let scrape = client.stats_prometheus().unwrap();
    assert!(scrape.contains("orion_net_requests_total"));
    assert!(!scrape.contains("orion_net_requests_total 0\n"), "request counter is live");
    assert!(scrape.contains("orion_net_connections 1"));
    server.shutdown();
    assert_eq!(db.stats().net.connections, 0, "gauge returns to zero after shutdown");
}

#[test]
fn panicking_handler_does_not_kill_the_worker_pool() {
    let (db, vehicle) = fleet_db(DbConfig::default());
    // A request hook that panics on Get: the panic unwinds out of the
    // session mid-dispatch, exactly like a handler bug would.
    let config = ServerConfig {
        workers: 2,
        request_hook: Some(Arc::new(|request: &Request| {
            if matches!(request, Request::Get { .. }) {
                panic!("injected handler panic");
            }
        })),
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Blow up more sessions than there are workers. Each panic costs
    // only that connection; with poisoning (or without catch_unwind)
    // the second worker death would hang every later connect.
    for _ in 0..3 {
        let mut client = Client::connect_with(
            addr,
            ClientConfig { reconnect: false, ..ClientConfig::default() },
        )
        .unwrap();
        let err = client.get(vehicle, "weight").unwrap_err();
        match err {
            DbError::Internal(msg) => assert!(msg.contains("panicked"), "{msg}"),
            DbError::Net(_) => {} // connection died before the reply: also acceptable
            other => panic!("unexpected error {other:?}"),
        }
    }

    // The pool still serves: fresh sessions run non-Get requests fine.
    for _ in 0..3 {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        assert!(!client.query(FIG1_QUERY).unwrap().oids.is_empty());
    }
    // And an open transaction interrupted by a panic rolled back: no
    // locks are stuck (a write to the same object succeeds promptly).
    let mut client = Client::connect(addr).unwrap();
    client.begin().unwrap();
    let err = client.get(vehicle, "weight").unwrap_err();
    assert!(matches!(err, DbError::Internal(_) | DbError::Net(_)), "{err:?}");
    drop(client);
    let tx = db.begin();
    db.set(&tx, vehicle, "weight", Value::Int(4321)).unwrap();
    db.commit(tx).unwrap();
    server.shutdown();
}
