//! Bank-transfer invariant tests for the decomposed runtime: money is
//! conserved under multi-threaded transfers whether the writer threads
//! touch disjoint account sets (no conflicts — nobody should ever be a
//! deadlock victim) or overlapping ones (victims abort and retry), and
//! whether the clients are embedded threads or real TCP clients going
//! through `orion-net`.

mod common;

use common::{accounts, total_balance, transfers, Embedded, INITIAL_BALANCE};
use orion_net::{Client, Server, ServerConfig};
use orion_oodb::orion::LockingStrategy;
use orion_types::Oid;
use std::sync::Arc;

/// Disjoint account sets: each thread owns its own slice, so no two
/// transactions ever conflict — total conserved *and* nobody is chosen
/// as a deadlock victim (writers on disjoint objects truly proceed
/// independently).
#[test]
fn embedded_disjoint_transfers_conserve_total_without_victims() {
    let threads = 4usize;
    let per_thread = 6usize;
    let (db, accounts) = accounts(threads * per_thread, LockingStrategy::Granular);
    let before = db.stats().locks;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            let slice = accounts[t * per_thread..(t + 1) * per_thread].to_vec();
            scope.spawn(move || {
                let retries = transfers(&mut Embedded::new(&db), &slice, t * 31 + 5, 80, 7);
                assert_eq!(retries, 0, "disjoint slices never conflict");
            });
        }
    });
    assert_eq!(total_balance(&db, &accounts), (threads * per_thread) as i64 * INITIAL_BALANCE);
    let locks = db.stats().locks;
    let victims = locks.deadlock_victims - before.deadlock_victims;
    assert_eq!(victims, 0, "no victims among disjoint writers");
    assert_eq!(locks.timeouts - before.timeouts, 0);
}

/// Overlapping account sets: every thread draws from the same small
/// pool, so write-write conflicts and deadlock victims are expected —
/// victims abort, retry, and the total is still conserved.
#[test]
fn embedded_overlapping_transfers_conserve_total_with_retries() {
    let (db, accounts) = accounts(6, LockingStrategy::Granular);
    let threads = 4usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            let slice = accounts.clone();
            scope.spawn(move || {
                transfers(&mut Embedded::new(&db), &slice, t * 17 + 3, 80, 7);
            });
        }
    });
    assert_eq!(total_balance(&db, &accounts), 6 * INITIAL_BALANCE);
}

/// The same invariant through the wire protocol: real TCP clients, one
/// server session each, transferring concurrently. `mode` selects
/// disjoint slices or one overlapping pool.
fn net_transfers(overlapping: bool) {
    let threads = 4usize;
    let per_thread = 4usize;
    let n_accounts = if overlapping { per_thread } else { threads * per_thread };
    let (db, accounts) = accounts(n_accounts, LockingStrategy::Granular);
    let config = ServerConfig { workers: threads, ..ServerConfig::default() };
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let slice: Vec<Oid> = if overlapping {
                accounts.clone()
            } else {
                accounts[t * per_thread..(t + 1) * per_thread].to_vec()
            };
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                transfers(&mut client, &slice, t * 13 + 7, 40, 3);
            });
        }
    });
    server.shutdown();
    assert_eq!(total_balance(&db, &accounts), n_accounts as i64 * INITIAL_BALANCE);
}

#[test]
fn net_disjoint_transfers_conserve_total() {
    net_transfers(false);
}

#[test]
fn net_overlapping_transfers_conserve_total() {
    net_transfers(true);
}
