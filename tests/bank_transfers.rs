//! Bank-transfer invariant tests for the decomposed runtime: money is
//! conserved under multi-threaded transfers whether the writer threads
//! touch disjoint account sets (no conflicts — nobody should ever be a
//! deadlock victim) or overlapping ones (victims abort and retry), and
//! whether the clients are embedded threads or real TCP clients going
//! through `orion-net`.

use orion_net::{Client, Server, ServerConfig};
use orion_oodb::orion::{AttrSpec, Database, DbConfig, DbError, Domain, PrimitiveType, Value};
use orion_types::Oid;
use std::sync::Arc;
use std::time::Duration;

const INITIAL_BALANCE: i64 = 1_000;

fn bank_db(accounts: usize) -> (Arc<Database>, Vec<Oid>) {
    let config = DbConfig { lock_timeout: Duration::from_secs(30), ..DbConfig::default() };
    let db = Arc::new(Database::with_config(config));
    db.create_class(
        "Account",
        &[],
        vec![AttrSpec::new("balance", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let tx = db.begin();
    let accounts: Vec<_> = (0..accounts)
        .map(|_| {
            db.create_object(&tx, "Account", vec![("balance", Value::Int(INITIAL_BALANCE))])
                .unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    (db, accounts)
}

/// A deterministic per-thread PRNG walk (no external crates).
fn next_seed(seed: &mut usize) -> usize {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed
}

fn total_balance(db: &Database, accounts: &[Oid]) -> i64 {
    let tx = db.begin();
    let total = accounts
        .iter()
        .map(|a| db.get(&tx, *a, "balance").unwrap().as_int().unwrap())
        .sum();
    db.commit(tx).unwrap();
    total
}

/// Run `transfers` random transfers inside `slice` on one embedded
/// thread, retrying deadlock victims. Returns how many retries it took.
fn run_embedded_transfers(db: &Database, slice: &[Oid], mut seed: usize, transfers: usize) -> u64 {
    let mut retries = 0;
    for _ in 0..transfers {
        let from = slice[next_seed(&mut seed) % slice.len()];
        let to = slice[(next_seed(&mut seed) / 7) % slice.len()];
        if from == to {
            continue;
        }
        loop {
            let tx = db.begin();
            let result = (|| -> Result<(), DbError> {
                let b_from = db.get(&tx, from, "balance")?.as_int().unwrap();
                let b_to = db.get(&tx, to, "balance")?.as_int().unwrap();
                db.set(&tx, from, "balance", Value::Int(b_from - 7))?;
                db.set(&tx, to, "balance", Value::Int(b_to + 7))?;
                Ok(())
            })();
            match result {
                Ok(()) => {
                    db.commit(tx).unwrap();
                    break;
                }
                Err(DbError::Deadlock { .. }) | Err(DbError::LockTimeout { .. }) => {
                    db.rollback(tx).unwrap();
                    retries += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
    retries
}

/// Disjoint account sets: each thread owns its own slice, so no two
/// transactions ever conflict — total conserved *and* nobody is chosen
/// as a deadlock victim (writers on disjoint objects truly proceed
/// independently).
#[test]
fn embedded_disjoint_transfers_conserve_total_without_victims() {
    let threads = 4usize;
    let per_thread = 6usize;
    let (db, accounts) = bank_db(threads * per_thread);
    let before = db.stats().locks;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            let slice = accounts[t * per_thread..(t + 1) * per_thread].to_vec();
            scope.spawn(move || {
                let retries = run_embedded_transfers(&db, &slice, t * 31 + 5, 80);
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
    let (db, accounts) = bank_db(6);
    let threads = 4usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            let slice = accounts.clone();
            scope.spawn(move || {
                run_embedded_transfers(&db, &slice, t * 17 + 3, 80);
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
    let (db, accounts) = bank_db(n_accounts);
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { workers: threads, ..ServerConfig::default() },
    )
    .unwrap();
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
                let mut seed = t * 13 + 7;
                for _ in 0..40 {
                    let from = slice[next_seed(&mut seed) % slice.len()];
                    let to = slice[(next_seed(&mut seed) / 7) % slice.len()];
                    if from == to {
                        continue;
                    }
                    loop {
                        client.begin().unwrap();
                        let result = (|| -> Result<(), DbError> {
                            let b_from = client.get(from, "balance")?.as_int().unwrap();
                            let b_to = client.get(to, "balance")?.as_int().unwrap();
                            client.set(from, "balance", Value::Int(b_from - 3))?;
                            client.set(to, "balance", Value::Int(b_to + 3))?;
                            Ok(())
                        })();
                        match result {
                            Ok(()) => {
                                client.commit().unwrap();
                                break;
                            }
                            Err(DbError::Deadlock { .. }) | Err(DbError::LockTimeout { .. }) => {
                                client.rollback().unwrap();
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(other) => panic!("unexpected error over the wire: {other}"),
                        }
                    }
                }
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
