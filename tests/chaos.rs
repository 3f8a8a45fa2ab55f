//! Chaos harness: seeded randomized workloads under injected storage
//! faults and crashes, embedded and over orion-net.
//!
//! Every round arms a fresh seeded [`FaultPlan`], runs a batch of
//! transactions against the harness's model of committed state, then
//! crashes and recovers. Every injected fault must surface as a clean
//! `DbError` (never a panic, never a wedged lock), and after recovery
//! the database contents must equal the model exactly; an in-doubt
//! commit follows the branch recovery chose. Smoke tests pin three fixed
//! seeds; the `#[ignore]`d hammer sweeps many seeds with deeper rounds:
//!
//! ```text
//! cargo test --release --test chaos -- --ignored
//! ```

#[macro_use]
mod common;

use common::{item, run, Embedded, Medium, Workload};
use orion_oodb::net::{Client, Server, ServerConfig};
use orion_oodb::orion::{FaultKind, FaultPlan};
use rand::rngs::StdRng;
use rand::Rng;

/// Every fault kind, each round: flushes that tear, page writes and
/// reads that fail, one torn page write and one rotted page.
const EMBEDDED: Workload = Workload {
    keys: 30,
    max_ops: 4,
    commit_share: 0.7,
    checkpoint_share: 0.4,
    faults: Some(|rng: &mut StdRng| {
        FaultPlan::new(rng.gen::<u64>())
            .probabilistic(FaultKind::PartialFlush, 0.08)
            .probabilistic(FaultKind::WriteError, 0.03)
            .probabilistic(FaultKind::ReadError, 0.02)
            .fail_nth(FaultKind::TornWrite, rng.gen_range(3..40u64))
            .fail_nth(FaultKind::BitFlip, rng.gen_range(3..60u64))
    }),
};

/// One full chaos run: `rounds` rounds of `txns` transactions each,
/// with a fresh seeded fault plan armed per round and a crash/recover
/// between rounds. Runs identically on every medium.
fn chaos_run(medium: Medium, seed: u64, rounds: i64, txns: i64) {
    let db = medium.item_db();
    run(&db, &mut Embedded::new(&db), &EMBEDDED, seed, rounds, txns);
    let stats = db.stats();
    assert!(stats.fault.total() >= 1, "seed {seed}: the fault plan never fired");
    assert!(
        stats.recovery.completed >= rounds as u64,
        "seed {seed}: expected at least one completed recovery per round"
    );
}

// Three fixed seeds in memory, over real files with real fsync, and with
// the data several times the buffer pool.
on_media!(|m| chaos_run(m, 11, 4, 12);
    chaos_smoke_seed_11: Memory,
    chaos_smoke_seed_11_filedisk: Files,
    chaos_smoke_seed_11_small_pool: SmallPool,
);
on_media!(|m| chaos_run(m, 23, 4, 12);
    chaos_smoke_seed_23: Memory,
    chaos_smoke_seed_23_filedisk: Files,
    chaos_smoke_seed_23_small_pool: SmallPool,
);
on_media!(|m| chaos_run(m, 47, 4, 12);
    chaos_smoke_seed_47: Memory,
    chaos_smoke_seed_47_filedisk: Files,
    chaos_smoke_seed_47_small_pool: SmallPool,
);

/// Long-running sweep across many seeds with deeper rounds. Excluded
/// from the default run; `scripts/ci.sh chaos` runs it in release mode.
#[test]
#[ignore = "chaos hammer: run with --release -- --ignored"]
fn chaos_hammer() {
    for seed in 0..24u64 {
        chaos_run(Medium::Memory, seed * 131 + 7, 8, 30);
    }
}

/// The same contract over the wire: injected faults surface to a
/// remote client as clean decoded `DbError`s on a live connection, the
/// server survives them, and post-recovery state matches the model,
/// read through the wire.
#[test]
fn chaos_over_the_wire() {
    const WIRE: Workload = Workload {
        keys: 20,
        max_ops: 3,
        commit_share: 1.0,
        checkpoint_share: 0.0,
        faults: Some(|rng: &mut StdRng| {
            FaultPlan::new(rng.gen::<u64>())
                .probabilistic(FaultKind::PartialFlush, 0.10)
                .probabilistic(FaultKind::WriteError, 0.03)
        }),
    };
    let db = Medium::Memory.item_db();
    let server = Server::bind(db.arc(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    run(&db, &mut client, &WIRE, 0xC0FFEE, 3, 10);

    // The fault and recovery counters must surface in the remote scrape.
    let scrape = client.stats_prometheus().unwrap();
    for series in [
        "orion_fault_read_errors_total",
        "orion_fault_write_errors_total",
        "orion_fault_torn_writes_total",
        "orion_fault_bit_flips_total",
        "orion_fault_partial_flushes_total",
        "orion_recovery_completed_total",
        "orion_recovery_failed_total",
        "orion_recovery_pages_repaired_total",
        "orion_wal_torn_tail_truncations_total",
    ] {
        assert!(scrape.contains(series), "prometheus scrape is missing {series}");
    }
    assert!(db.stats().recovery.completed >= 3, "one completed recovery per round");

    server.shutdown();
}

/// Deterministic end-to-end check that fired faults are visible in both
/// `stats()` and the Prometheus rendering.
#[test]
fn fault_counters_surface_in_stats_and_prometheus() {
    let db = Medium::Memory.item_db();
    let tx = db.begin();
    let oid = db.create_object(&tx, "Item", item(1, 1)).unwrap();
    db.commit(tx).unwrap();

    // Force the next page read to fail, then drop the cached frame so
    // the read actually reaches the (faulted) disk.
    db.install_faults(FaultPlan::new(9).fail_nth(FaultKind::ReadError, 1));
    db.crash_and_recover().unwrap_or_else(|_| {
        // The armed fault may fire during recovery itself; either way it
        // must have been counted. Clear and recover for the probe below.
        db.clear_faults();
        db.crash_and_recover().unwrap();
    });
    let tx = db.begin();
    let _ = db.get(&tx, oid, "val"); // may or may not hit the fault, per cache state
    db.commit(tx).unwrap();
    db.clear_faults();

    let stats = db.stats();
    assert!(stats.fault.read_errors >= 1, "the armed read fault never fired");
    let prom = stats.render_prometheus();
    assert!(prom.contains("orion_fault_read_errors_total"));
    assert!(prom.contains("orion_recovery_completed_total"));
}
