//! Property-based tests: slotted pages against a model, and recovery
//! against random workloads with randomly placed crashes.

use orion_storage::engine::{StorageEngine, TxnId};
use orion_storage::heap::Rid;
use orion_storage::slotted;
use orion_storage::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::HashMap;

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

/// The byte-at-a-time CRC-32 loop (bitwise, no table) that the sliced
/// implementation must equal.
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
    /// Slice-by-8 `crc32` equals the bytewise loop at every length and
    /// alignment: `tail` pins the remainder length (0..7 all occur),
    /// `skip` the alignment of the first 8-byte word.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any mix of committed/aborted transactions, a crash, and
    /// recovery, the surviving records are exactly the committed state.
    #[test]
    fn recovery_restores_committed_state(txns in arb_txns(), flush_mid in any::<bool>()) {
        let engine = StorageEngine::new(4);
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
        }
        if flush_mid {
            // Push arbitrary dirty pages out; recovery must still hold.
            engine.pool().flush_all().unwrap();
        }
        engine.crash();
        engine.recover().unwrap();

        let mut survivors: HashMap<Rid, Vec<u8>> = HashMap::new();
        engine.scan_all(|rid, bytes| { survivors.insert(rid, bytes.to_vec()); }).unwrap();
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
