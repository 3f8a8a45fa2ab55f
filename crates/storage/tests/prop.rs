//! Property-based tests: slotted pages against a model, recovery
//! against random workloads with randomly placed crashes, and the WAL's
//! stable-length bookkeeping against a reference walk over the log
//! device, on both backends.

use orion_storage::engine::{StorageEngine, TxnId};
use orion_storage::heap::Rid;
use orion_storage::slotted;
use orion_storage::{
    FaultInjector, FaultKind, FaultPlan, FileDisk, LogRecord, Lsn, PageDevice, PageId, Wal,
    PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
}

fn arb_page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    // Mix small and page-filling record sizes so splits, compactions,
    // and failed grows all occur.
    let bytes = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..96),
        proptest::collection::vec(any::<u8>(), 400..1400),
    ];
    proptest::collection::vec(
        prop_oneof![
            bytes.clone().prop_map(PageOp::Insert),
            (any::<usize>(), bytes).prop_map(|(i, b)| PageOp::Update(i, b)),
            any::<usize>().prop_map(PageOp::Delete),
        ],
        0..120,
    )
}

/// The byte-at-a-time CRC-32 loop (bitwise, no table) that `crc32`
/// must equal on either of its paths.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

proptest! {
    /// `crc32` equals the bytewise loop at every length and alignment:
    /// `tail` pins the remainder length (0..7 all occur), `skip` the
    /// alignment of the first word. Inputs below the carry-less-multiply
    /// kernel's 64-byte threshold exercise slice-by-8; above it, on a
    /// host with `pclmulqdq`, they exercise the kernel and its
    /// slice-by-8 tail.
    #[test]
    fn crc32_sliced_equals_bytewise(
        data in proptest::collection::vec(any::<u8>(), 0..=8_200),
        skip in 0usize..8,
        tail in 0usize..8,
    ) {
        prop_assert_eq!(orion_storage::crc32(&data), crc32_bytewise(&data));
        let start = skip.min(data.len());
        let body = &data[start..];
        let cut = &body[..body.len() - body.len() % 8 + tail.min(body.len() % 8)];
        prop_assert_eq!(orion_storage::crc32(cut), crc32_bytewise(cut));
        // Short inputs: every remainder length with zero or one word.
        let short = &data[..data.len().min(8 + tail)];
        prop_assert_eq!(orion_storage::crc32(short), crc32_bytewise(short));
        let tiny = &data[..data.len().min(tail)];
        prop_assert_eq!(orion_storage::crc32(tiny), crc32_bytewise(tiny));
    }

    /// The slotted page behaves like a map from slot to bytes.
    #[test]
    fn slotted_page_matches_model(ops in arb_page_ops()) {
        let mut page = vec![0u8; PAGE_SIZE];
        slotted::init(&mut page);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut live: Vec<u16> = Vec::new();

        for op in ops {
            match op {
                PageOp::Insert(bytes) => {
                    if let Some(slot) = slotted::insert(&mut page, &bytes) {
                        prop_assert!(!model.contains_key(&slot), "slot reuse of a live slot");
                        model.insert(slot, bytes);
                        live.push(slot);
                    } else {
                        // Rejection is only legal when the page is
                        // genuinely short on space.
                        prop_assert!(slotted::usable_free(&page) < bytes.len() + 4);
                    }
                }
                PageOp::Update(pick, bytes) => {
                    if live.is_empty() { continue; }
                    let slot = live[pick % live.len()];
                    if slotted::update(&mut page, slot, &bytes) {
                        model.insert(slot, bytes);
                    } else {
                        // Failure must leave the old value intact.
                        prop_assert_eq!(
                            slotted::get(&page, slot).map(|r| r.to_vec()),
                            model.get(&slot).cloned()
                        );
                    }
                }
                PageOp::Delete(pick) => {
                    if live.is_empty() { continue; }
                    let idx = pick % live.len();
                    let slot = live.swap_remove(idx);
                    prop_assert!(slotted::delete(&mut page, slot));
                    model.remove(&slot);
                }
            }
            // Full consistency check after every step.
            for (&slot, bytes) in &model {
                prop_assert_eq!(slotted::get(&page, slot), Some(bytes.as_slice()));
            }
            prop_assert_eq!(slotted::live_count(&page), model.len());
        }
    }
}

#[derive(Debug, Clone)]
enum TxOp {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
}

fn arb_txns() -> impl Strategy<Value = Vec<(bool, Vec<TxOp>)>> {
    let op = prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(TxOp::Insert),
        (any::<usize>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(i, b)| TxOp::Update(i, b)),
        any::<usize>().prop_map(TxOp::Delete),
    ];
    proptest::collection::vec((any::<bool>(), proptest::collection::vec(op, 1..10)), 1..8)
}

fn apply_txn(
    engine: &StorageEngine,
    txn: TxnId,
    ops: &[TxOp],
    state: &mut HashMap<Rid, Vec<u8>>,
) {
    // `state` mirrors committed + this-txn effects; rolled back on abort
    // by the caller keeping a snapshot.
    for op in ops {
        match op {
            TxOp::Insert(bytes) => {
                let rid = engine.insert(txn, bytes, None).unwrap();
                state.insert(rid, bytes.clone());
            }
            TxOp::Update(pick, bytes) => {
                if state.is_empty() {
                    continue;
                }
                let keys: Vec<Rid> = state.keys().copied().collect();
                let rid = keys[pick % keys.len()];
                let new_rid = engine.update(txn, rid, bytes).unwrap();
                state.remove(&rid);
                state.insert(new_rid, bytes.clone());
            }
            TxOp::Delete(pick) => {
                if state.is_empty() {
                    continue;
                }
                let keys: Vec<Rid> = state.keys().copied().collect();
                let rid = keys[pick % keys.len()];
                engine.delete(txn, rid).unwrap();
                state.remove(&rid);
            }
        }
    }
}

/// Transactions whose records outgrow a two-page pool: a committed
/// load of 8–11 records of 1–2 KiB (at most three fit in a page), then
/// random transactions over records of the same size.
fn arb_big_txns() -> impl Strategy<Value = Vec<(bool, Vec<TxOp>)>> {
    let record = || proptest::collection::vec(any::<u8>(), 1024..2048);
    let load = proptest::collection::vec(record().prop_map(TxOp::Insert), 8..12);
    let op = prop_oneof![
        record().prop_map(TxOp::Insert),
        (any::<usize>(), record()).prop_map(|(i, b)| TxOp::Update(i, b)),
        any::<usize>().prop_map(TxOp::Delete),
    ];
    let rest = proptest::collection::vec((any::<bool>(), proptest::collection::vec(op, 1..6)), 1..6);
    (load, rest).prop_map(|(load, rest)| std::iter::once((true, load)).chain(rest).collect())
}

/// Run `txns` (committing or aborting each), optionally flush every
/// dirty page, crash and recover. Returns the records that survived
/// and the committed state they must equal.
fn crash_and_recover(
    engine: &StorageEngine,
    txns: &[(bool, Vec<TxOp>)],
    flush_mid: bool,
) -> (HashMap<Rid, Vec<u8>>, HashMap<Rid, Vec<u8>>) {
    let mut committed: HashMap<Rid, Vec<u8>> = HashMap::new();
    for (commit, ops) in txns {
        let txn = engine.begin();
        let mut working = committed.clone();
        apply_txn(engine, txn, ops, &mut working);
        if *commit {
            engine.commit(txn).unwrap();
            committed = working;
        } else {
            engine.abort(txn).unwrap();
        }
    }
    if flush_mid {
        // Push arbitrary dirty pages out; recovery must still hold.
        engine.pool().flush_all().unwrap();
    }
    engine.crash();
    engine.recover().unwrap();
    let mut survivors: HashMap<Rid, Vec<u8>> = HashMap::new();
    engine.scan_all(|rid, bytes| { survivors.insert(rid, bytes.to_vec()); }).unwrap();
    (survivors, committed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any mix of committed/aborted transactions, a crash, and
    /// recovery, the surviving records are exactly the committed state.
    #[test]
    fn recovery_restores_committed_state(txns in arb_txns(), flush_mid in any::<bool>()) {
        let engine = StorageEngine::new(4);
        let (survivors, committed) = crash_and_recover(&engine, &txns, flush_mid);
        prop_assert_eq!(survivors, committed);
    }

    /// The same, over records that span more pages than the pool holds,
    /// so the workload and the recovery run through evictions.
    #[test]
    fn recovery_restores_committed_state_beyond_the_pool(
        txns in arb_big_txns(),
        flush_mid in any::<bool>(),
    ) {
        let engine = StorageEngine::new(2);
        let before = engine.pool().stats();
        let (survivors, committed) = crash_and_recover(&engine, &txns, flush_mid);
        prop_assert!(engine.pool().stats().evictions > before.evictions, "the pool never evicted");
        prop_assert_eq!(survivors, committed);
    }

    /// Abort alone (no crash) also restores the pre-transaction state.
    #[test]
    fn abort_is_a_perfect_inverse(txns in arb_txns()) {
        let engine = StorageEngine::new(8);
        let mut committed: HashMap<Rid, Vec<u8>> = HashMap::new();
        for (commit, ops) in &txns {
            let txn = engine.begin();
            let mut working = committed.clone();
            apply_txn(&engine, txn, ops, &mut working);
            if *commit {
                engine.commit(txn).unwrap();
                committed = working;
            } else {
                engine.abort(txn).unwrap();
            }
            let mut now: HashMap<Rid, Vec<u8>> = HashMap::new();
            engine.scan_all(|rid, bytes| { now.insert(rid, bytes.to_vec()); }).unwrap();
            prop_assert_eq!(&now, &committed);
        }
    }
}

#[derive(Debug, Clone)]
enum WalOp {
    /// Append a record carrying this payload (an empty one appends the
    /// smallest record there is).
    Append(Vec<u8>),
    Flush,
    /// Flush under a one-shot partial-flush fault; the seed picks the
    /// cut.
    PartialFlush(u64),
    /// The write-ahead hook, for one of the LSNs handed out so far.
    FlushTo(usize),
    /// Crash, then read the log as restart recovery does — through a
    /// new `Wal` over the same device when `reopen` is set.
    Crash { reopen: bool },
    /// Read the log without a crash.
    Read,
}

fn arb_wal_ops() -> impl Strategy<Value = Vec<WalOp>> {
    // No weights in `prop_oneof!`: appends and partial flushes are
    // listed more than once so that cuts usually have frames to split.
    let append = proptest::collection::vec(any::<u8>(), 0..120).prop_map(WalOp::Append).boxed();
    proptest::collection::vec(
        prop_oneof![
            append.clone(),
            append.clone(),
            append,
            Just(WalOp::Flush),
            any::<u64>().prop_map(WalOp::PartialFlush),
            any::<u64>().prop_map(WalOp::PartialFlush),
            any::<usize>().prop_map(WalOp::FlushTo),
            any::<bool>().prop_map(|reopen| WalOp::Crash { reopen }),
            Just(WalOp::Read),
        ],
        0..60,
    )
}

/// The reference the WAL's two numbers are checked against: the length
/// of the longest prefix of the device's bytes made of whole frames
/// (`len u32 | crc u32 | body`), found by walking every frame — what
/// the WAL did on each flush while it kept a copy of those bytes.
fn record_complete_len(log: &[u8]) -> u64 {
    let mut complete = 0usize;
    while complete + 8 <= log.len() {
        let len = u32::from_le_bytes(log[complete..complete + 4].try_into().unwrap()) as usize;
        if complete + 8 + len > log.len() {
            break;
        }
        complete += 8 + len;
    }
    complete as u64
}

/// Drive `ops` against a WAL over `disk`, checking after every step.
/// The model is the list of records appended with their byte ranges
/// (an LSN is a byte offset, so a record ends where the log ended after
/// its append): `durable` holds what a read must return, `pending` what
/// has not wholly reached the device yet.
fn check_wal_bookkeeping(disk: Arc<PageDevice>, ops: &[WalOp]) {
    let mut wal = Wal::with_backend(Arc::clone(&disk)).unwrap();
    let mut durable: Vec<(Lsn, LogRecord)> = Vec::new();
    let mut pending: VecDeque<(Lsn, u64, LogRecord)> = VecDeque::new();
    let mut lsns: Vec<Lsn> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let device_before = disk.log().len();
        let total_before = wal.total_len();
        match op {
            WalOp::Append(payload) => {
                let rec = if payload.is_empty() {
                    LogRecord::Checkpoint
                } else {
                    LogRecord::Insert {
                        txn: step as u64,
                        rid: Rid { page: PageId(step as u32), slot: 0 },
                        bytes: payload.clone(),
                    }
                };
                let lsn = wal.append(&rec);
                assert_eq!(lsn.0, total_before, "step {step}: an LSN is the offset appended at");
                pending.push_back((lsn, wal.total_len(), rec));
                lsns.push(lsn);
            }
            WalOp::Flush => {
                wal.flush().unwrap();
                assert_eq!(disk.log().len(), total_before, "step {step}: flush moves it all");
            }
            WalOp::PartialFlush(seed) => {
                let plan = FaultPlan::new(*seed).fail_nth(FaultKind::PartialFlush, 1);
                wal.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
                let result = wal.flush();
                wal.set_fault_injector(None);
                let device = disk.log().len();
                if total_before - device_before < 2 {
                    // Nothing, or a single byte, cannot be cut in two.
                    result.unwrap();
                    assert_eq!(device, total_before, "step {step}: nothing to cut");
                } else {
                    assert!(result.is_err(), "step {step}: a partial flush reports failure");
                    assert!(
                        device_before < device && device < total_before,
                        "step {step}: cut at {device} outside ({device_before}, {total_before})"
                    );
                }
            }
            WalOp::FlushTo(pick) => {
                if lsns.is_empty() {
                    continue;
                }
                let lsn = lsns[pick % lsns.len()];
                let needs = lsn.0 >= record_complete_len(&disk.log().lend().unwrap());
                let flushes = wal.stats().flushes;
                wal.flush_to(lsn).unwrap();
                let forced = needs && !pending.is_empty();
                assert_eq!(
                    wal.stats().flushes - flushes,
                    forced as u64,
                    "step {step}: flush_to({lsn:?}) forces the tail exactly when the record \
                     is not whole on the device"
                );
                let expect = if forced { total_before } else { device_before };
                assert_eq!(disk.log().len(), expect, "step {step}");
            }
            WalOp::Crash { reopen } => {
                wal.crash();
                if *reopen {
                    wal = Wal::with_backend(Arc::clone(&disk)).unwrap();
                }
                // A record cut by a partial flush is a torn tail now:
                // the read replaces its bytes on the device with a pad.
                let torn = pending.front().filter(|(lsn, _, _)| lsn.0 < device_before);
                if let Some((lsn, _, _)) = torn {
                    durable.push((*lsn, LogRecord::Pad));
                }
                let torn = torn.is_some();
                pending.clear();
                let truncations = wal.stats().torn_tail_truncations;
                assert_eq!(wal.stable_records().unwrap(), durable, "step {step}: restart read");
                assert_eq!(
                    wal.stats().torn_tail_truncations - truncations,
                    torn as u64,
                    "step {step}"
                );
                let device = disk.log().len();
                assert!(device >= device_before, "step {step}: LSNs never reuse a torn range");
                assert_eq!(
                    record_complete_len(&disk.log().lend().unwrap()),
                    device,
                    "step {step}: the repair is on the device"
                );
            }
            WalOp::Read => {
                // The engine reads the log only at restart, after the
                // crash dropped the tail; with the rest of a cut record
                // still buffered, a read would truncate a live record.
                if pending.front().is_some_and(|(lsn, _, _)| lsn.0 < device_before) {
                    continue;
                }
                assert_eq!(wal.stable_records().unwrap(), durable, "step {step}: live read");
            }
        }
        let device = disk.log().len();
        assert_eq!(wal.stable_len(), device, "step {step}: the WAL's length is the device's");
        while pending.front().is_some_and(|(_, end, _)| *end <= device) {
            let (lsn, _, rec) = pending.pop_front().unwrap();
            durable.push((lsn, rec));
        }
        let buffered_to = pending.back().map_or(device, |(_, end, _)| *end);
        assert_eq!(wal.total_len(), buffered_to, "step {step}: nothing buffered is lost");
    }
    // Whatever is left heals: one clean flush makes every record whole.
    wal.flush().unwrap();
    durable.extend(pending.drain(..).map(|(lsn, _, rec)| (lsn, rec)));
    assert_eq!(wal.stable_records().unwrap(), durable);
    assert_eq!(wal.stable_len(), disk.log().len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The WAL keeps two numbers where it used to keep the log: after
    /// every step they agree with the device and with a walk over the
    /// device's bytes, and what is read back is what was promoted.
    #[test]
    fn wal_bookkeeping_matches_the_device(ops in arb_wal_ops()) {
        check_wal_bookkeeping(Arc::new(PageDevice::new()), &ops);
        let dir = std::env::temp_dir()
            .join(format!("orion-wal-prop-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        check_wal_bookkeeping(Arc::new(FileDisk::open(&dir).unwrap()), &ops);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
