//! Device-conformance suite: the page device must honor one contract —
//! page checksums, fault semantics, the append-only log — over either
//! pair of byte stores, and the full database must behave identically
//! over each. The raw device checks run against a device in memory and
//! one over files through the same code path; the database-level checks
//! cover crash-mid-group-commit and (over files) a genuine cold
//! restart: drop the handle, reopen the directory, and replay to the
//! same model-checked state.

mod common;

use common::{count, item, probe, Db, Medium, TempDir};
use orion_oodb::orion::{DbConfig, DbError, FaultKind, FaultPlan, Value};
use orion_storage::{FaultInjector, FileDisk, PageDevice, PageId, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Run `check` once per medium. The `TempDir` guard keeps the file
/// device's directory alive for the duration of the check.
fn for_each_device(tag: &str, check: impl Fn(Arc<PageDevice>, &str)) {
    check(Arc::new(PageDevice::new()), "memory");
    let dir = TempDir::new(tag);
    check(Arc::new(FileDisk::open(dir.path()).unwrap()), "files");
}

/// Install a one-shot fault of `kind`; the injector counts what fired.
fn inject(disk: &PageDevice, seed: u64, kind: FaultKind) -> Arc<FaultInjector> {
    let inj = Arc::new(FaultInjector::new(FaultPlan::new(seed).fail_nth(kind, 1)));
    disk.set_fault_injector(Some(Arc::clone(&inj)));
    inj
}

#[test]
fn page_roundtrip_and_accounting() {
    for_each_device("conf-roundtrip", |disk, name| {
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_eq!((a, b), (PageId(0), PageId(1)), "{name}: sequential page ids");
        assert_eq!(disk.page_count(), 2, "{name}");

        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[7] = 0x5A;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write(b, &buf).unwrap();
        disk.sync().unwrap();

        let mut out = [0xFFu8; PAGE_SIZE];
        disk.read(b, &mut out).unwrap();
        assert_eq!(out, buf, "{name}: written bytes survive, first to last");
        disk.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "{name}: fresh pages read zeroed");
        assert!(disk.verify(a).unwrap() && disk.verify(b).unwrap(), "{name}");

        let stats = disk.stats();
        assert_eq!((stats.reads, stats.writes, stats.allocations), (2, 1, 2), "{name}");

        // Out-of-bounds access is an error, not UB or silent growth.
        assert!(disk.read(PageId(9), &mut out).is_err(), "{name}");
        assert!(disk.write(PageId(9), &buf).is_err(), "{name}");
        assert!(disk.verify(PageId(9)).is_err(), "{name}");
        assert_eq!(disk.page_count(), 2, "{name}");
    });
}

#[test]
fn log_device_contract() {
    for_each_device("conf-log", |disk, name| {
        let log = disk.log();
        assert_eq!(log.len(), 0, "{name}: log starts empty");
        assert_eq!(log.append(b"abc").unwrap(), 0, "{name}: append returns its offset");
        assert_eq!(log.append(b"defgh").unwrap(), 3, "{name}");
        log.sync().unwrap();
        assert_eq!(log.len(), 8, "{name}");
        assert_eq!(*log.lend().unwrap(), b"abcdefgh"[..], "{name}");

        // Torn-tail repair shape: truncate, then append over the gap.
        log.truncate(3).unwrap();
        assert_eq!(log.len(), 3, "{name}");
        log.append(b"XY").unwrap();
        log.sync().unwrap();
        assert_eq!(*log.lend().unwrap(), b"abcXY"[..], "{name}");
        assert!(log.truncate(9).is_err(), "{name}: truncation never grows the log");
    });
}

#[test]
fn injected_fault_semantics_match() {
    for_each_device("conf-faults", |disk, name| {
        let p = disk.allocate().unwrap();
        disk.write(p, &[3u8; PAGE_SIZE]).unwrap();
        let mut buf = [0u8; PAGE_SIZE];

        // A read I/O error is Storage, not Corruption, and transient.
        let inj = inject(&disk, 1, FaultKind::ReadError);
        assert!(
            matches!(disk.read(p, &mut buf), Err(DbError::Storage(_))),
            "{name}: injected read error"
        );
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3), "{name}: the page itself is unharmed");
        assert_eq!(inj.stats().read_errors, 1, "{name}");

        // A write I/O error leaves the stored page intact.
        let inj = inject(&disk, 2, FaultKind::WriteError);
        assert!(
            matches!(disk.write(p, &[4u8; PAGE_SIZE]), Err(DbError::Storage(_))),
            "{name}: injected write error"
        );
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3), "{name}: failed write changed nothing");
        assert_eq!(inj.stats().write_errors, 1, "{name}");

        // A torn write persists a prefix and trips the checksum; a read
        // that fails it leaves the caller's buffer untouched, and a
        // completed rewrite heals the page.
        let inj = inject(&disk, 3, FaultKind::TornWrite);
        assert!(
            matches!(disk.write(p, &[5u8; PAGE_SIZE]), Err(DbError::Storage(_))),
            "{name}: a torn write fails as an I/O error"
        );
        assert_eq!(inj.stats().torn_writes, 1, "{name}");
        disk.set_fault_injector(None);
        let mut untouched = [0xEEu8; PAGE_SIZE];
        assert!(
            matches!(disk.read(p, &mut untouched), Err(DbError::Corruption(_))),
            "{name}: torn page reads as corruption"
        );
        assert!(untouched.iter().all(|&x| x == 0xEE), "{name}: a corrupt read writes nothing");
        assert!(!disk.verify(p).unwrap(), "{name}: verify sees the damage");
        disk.write(p, &[6u8; PAGE_SIZE]).unwrap();
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 6), "{name}: rewrite heals");

        // Bit rot is persistent: the read it fires on reports
        // Corruption, and so does every later fault-free read.
        let inj = inject(&disk, 4, FaultKind::BitFlip);
        assert!(
            matches!(disk.read(p, &mut untouched), Err(DbError::Corruption(_))),
            "{name}: bit rot surfaces as corruption"
        );
        assert_eq!(inj.stats().bit_flips, 1, "{name}");
        disk.set_fault_injector(None);
        assert!(
            matches!(disk.read(p, &mut untouched), Err(DbError::Corruption(_))),
            "{name}: the rot stays"
        );
        assert!(untouched.iter().all(|&x| x == 0xEE), "{name}: a corrupt read writes nothing");
        assert!(!disk.verify(p).unwrap(), "{name}: verify sees the rot");
        disk.write(p, &[7u8; PAGE_SIZE]).unwrap();
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7), "{name}: rewrite heals the rot");
    });
}

/// A device over files is what a later process opens: it sees the
/// pages, the log and any rot it left, and trims a partial trailing
/// block — a crash mid-allocation.
#[test]
fn file_device_reopens_and_trims_a_torn_allocation() {
    let dir = TempDir::new("conf-reopen");
    let disk = FileDisk::open(dir.path()).unwrap();
    let (a, b, c) = (disk.allocate().unwrap(), disk.allocate().unwrap(), disk.allocate().unwrap());
    let mut buf = [0u8; PAGE_SIZE];
    buf[0] = 0xAB;
    buf[PAGE_SIZE - 1] = 0xCD;
    disk.write(b, &buf).unwrap();
    disk.sync().unwrap();
    disk.log().append(b"hello log").unwrap();
    disk.log().sync().unwrap();
    inject(&disk, 42, FaultKind::BitFlip);
    assert!(matches!(disk.read(c, &mut [0; PAGE_SIZE]), Err(DbError::Corruption(_))));
    drop(disk);

    let pages = dir.path().join("pages.dat");
    let whole = std::fs::metadata(&pages).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&pages).unwrap().set_len(whole + 17).unwrap();

    let disk = FileDisk::open(dir.path()).unwrap();
    assert_eq!(disk.page_count(), 3, "partial block trimmed");
    assert_eq!(std::fs::metadata(&pages).unwrap().len(), whole);
    let mut out = [0xFFu8; PAGE_SIZE];
    disk.read(b, &mut out).unwrap();
    assert_eq!(out, buf);
    disk.read(a, &mut out).unwrap();
    assert!(out.iter().all(|&x| x == 0));
    assert!(matches!(disk.read(c, &mut out), Err(DbError::Corruption(_))), "rot survives");
    assert!(!disk.verify(c).unwrap());
    assert_eq!(*disk.log().lend().unwrap(), b"hello log"[..]);
    assert_eq!(disk.log().len(), 9);
    assert_eq!(disk.allocate().unwrap(), PageId(3), "the next block starts where one ends");
}

// ---------------------------------------------------------------------
// Database-level conformance
// ---------------------------------------------------------------------

const BOTH: [Medium; 2] = [Medium::Memory, Medium::Files];

/// The `Item` database on `medium` with a group-commit window.
fn windowed(medium: Medium, window: Duration) -> Db {
    medium.item_db_with(DbConfig::builder().group_commit_window(window).build().unwrap())
}

#[test]
fn committed_data_survives_crash_on_both_backends() {
    for medium in BOTH {
        let db = medium.item_db();
        for k in 0..12i64 {
            let tx = db.begin();
            db.create_object(&tx, "Item", item(k, k * 7)).unwrap();
            db.commit(tx).unwrap();
        }
        db.crash_and_recover().unwrap();
        for k in 0..12i64 {
            assert_eq!(probe(&db, k), Some(k * 7), "{medium:?}: key {k} after crash");
        }
    }
}

#[test]
fn group_commit_amortizes_fsyncs_under_concurrency() {
    for medium in BOTH {
        let db = windowed(medium, Duration::from_micros(500));
        let before = db.stats().wal;
        let committers = 8;
        let rounds = 6;
        let barrier = Barrier::new(committers);
        std::thread::scope(|s| {
            for c in 0..committers {
                let (db, barrier) = (&db, &barrier);
                s.spawn(move || {
                    for r in 0..rounds {
                        barrier.wait();
                        let key = (c * rounds + r) as i64;
                        let tx = db.begin();
                        db.create_object(&tx, "Item", item(key, key)).unwrap();
                        db.commit(tx).unwrap();
                    }
                });
            }
        });
        let wal = db.stats().wal;
        let fsyncs = wal.fsyncs - before.fsyncs;
        let commits = (committers * rounds) as u64;
        assert!(
            fsyncs < commits,
            "{medium:?}: {commits} concurrent commits should share fsyncs, got {fsyncs}"
        );
        assert!(
            wal.group_commit_batch_size.count > before.group_commit_batch_size.count,
            "{medium:?}: at least one group flush was recorded"
        );
        assert_eq!(count(&db, "Item"), commits as i64, "{medium:?}: every commit landed");
    }
}

#[test]
fn crash_mid_group_commit_recovers_consistently() {
    for medium in BOTH {
        let db = windowed(medium, Duration::from_micros(300));
        // Seed one base row per committer so updates have a "before".
        let committers = 6usize;
        let mut oids = Vec::new();
        for c in 0..committers {
            let tx = db.begin();
            let oid = db.create_object(&tx, "Item", item(c as i64, -1)).unwrap();
            db.commit(tx).unwrap();
            oids.push(oid);
        }

        // One group-commit flush tears mid-write while all committers
        // are in flight: some see Ok, the leader of the torn batch sees
        // an in-doubt error. Recovery decides each transaction's fate.
        db.install_faults(FaultPlan::new(77).fail_nth(FaultKind::PartialFlush, 1));
        let barrier = Barrier::new(committers);
        let outcomes: Vec<Result<(), String>> = std::thread::scope(|s| {
            let commit = |c: usize| {
                barrier.wait();
                let tx = db.begin();
                db.set(&tx, oids[c], "val", Value::Int(c as i64 * 100)).unwrap();
                db.commit(tx).map_err(|e| format!("{e}"))
            };
            let handles: Vec<_> = (0..committers).map(|c| s.spawn(move || commit(c))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        db.clear_faults();
        db.crash_and_recover().unwrap();

        // Model check: a reported-Ok commit MUST be durable; an errored
        // commit is in doubt — either fully applied or fully undone.
        for (c, outcome) in outcomes.iter().enumerate() {
            let val = probe(&db, c as i64);
            match outcome {
                Ok(()) => assert_eq!(
                    val,
                    Some(c as i64 * 100),
                    "{medium:?}: committer {c} reported Ok but its update is missing"
                ),
                Err(_) => assert!(
                    val == Some(c as i64 * 100) || val == Some(-1),
                    "{medium:?}: committer {c} left a torn state: {val:?}"
                ),
            }
        }
        let live = count(&db, "Item");
        assert_eq!(live, committers as i64, "{medium:?}: no rows lost or forged");
    }
}

/// The acceptance scenario: a real-file database is closed (the process
/// "exits"), reopened via [`Database::open`], and must replay its WAL to
/// exactly the model-checked state — twice, with writes in between.
#[test]
fn filedisk_cold_restart_replays_to_model_state() {
    let db = Medium::Files.item_db();
    let mut model: HashMap<i64, i64> = HashMap::new();
    let mut oids = HashMap::new();
    for k in 0..20i64 {
        let tx = db.begin();
        oids.insert(k, db.create_object(&tx, "Item", item(k, k)).unwrap());
        db.commit(tx).unwrap();
        model.insert(k, k);
    }
    // Overwrite some, delete some, roll one back; checkpoint halfway
    // so replay is checkpoint-LSN-bounded.
    for k in 0..8i64 {
        let tx = db.begin();
        db.set(&tx, oids[&k], "val", Value::Int(k * 11)).unwrap();
        db.commit(tx).unwrap();
        model.insert(k, k * 11);
    }
    db.checkpoint().unwrap();
    for k in 16..20i64 {
        let tx = db.begin();
        db.delete_object(&tx, oids[&k]).unwrap();
        db.commit(tx).unwrap();
        model.remove(&k);
    }
    let tx = db.begin();
    db.set(&tx, oids[&0], "val", Value::Int(9999)).unwrap();
    db.rollback(tx).unwrap();

    // The process is gone; only pages.dat + wal.log remain.
    let db = db.reopen();
    assert_eq!(count(&db, "Item"), model.len() as i64, "restart 1: live count");
    for (&k, &v) in &model {
        assert_eq!(probe(&db, k), Some(v), "restart 1: key {k}");
    }

    // Keep writing on the reopened database, restart again.
    let tx = db.begin();
    let oid = db.create_object(&tx, "Item", item(100, 1)).unwrap();
    db.commit(tx).unwrap();
    let tx = db.begin();
    db.set(&tx, oid, "val", Value::Int(2)).unwrap();
    db.commit(tx).unwrap();
    model.insert(100, 2);

    let db = db.reopen();
    for (&k, &v) in &model {
        assert_eq!(probe(&db, k), Some(v), "restart 2: key {k}");
    }
    assert_eq!(count(&db, "Item"), model.len() as i64, "restart 2: live count");
}
