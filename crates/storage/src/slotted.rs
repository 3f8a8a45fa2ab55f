//! Slotted-page record layout.
//!
//! Layout within a 4096-byte page:
//!
//! ```text
//! +-----------+------------+-----------+-------------------+-----------+
//! | lsn (u64) | nslots u16 | cell  u16 | slot dir (4B * n) |  free ... |
//! +-----------+------------+-----------+-------------------+-----------+
//!                                                 cells grow <--------+
//! ```
//!
//! Each slot directory entry is `(offset: u16, len: u16)`; `offset == 0`
//! marks an empty (deleted) slot whose number can be reused — record ids
//! must stay stable for the object directory, so slots are never
//! compacted away, only cells are.

use orion_types::{DbError, DbResult};

use crate::disk::PAGE_SIZE;

const HEADER: usize = 12; // lsn(8) + nslots(2) + cell_start(2)
const SLOT: usize = 4;

/// Largest record a page can store (one slot, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

fn get_u16(page: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([page[at], page[at + 1]])
}
fn put_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Read the page LSN (the WAL position of the last change to this page).
pub fn page_lsn(page: &[u8]) -> u64 {
    u64::from_le_bytes(page[0..8].try_into().expect("page header"))
}

/// Raise the page LSN to `lsn`; it never moves back, so it stays the
/// newest change the page holds however writers interleave.
pub fn set_page_lsn(page: &mut [u8], lsn: u64) {
    let newest = page_lsn(page).max(lsn);
    page[0..8].copy_from_slice(&newest.to_le_bytes());
}

/// Initialize an empty slotted page in-place.
pub fn init(page: &mut [u8]) {
    page[..HEADER].fill(0);
    put_u16(page, 8, 0); // nslots
    put_u16(page, 10, PAGE_SIZE as u16); // cell_start = PAGE_SIZE
}

/// Number of slots in the directory (live + deleted).
pub fn slot_count(page: &[u8]) -> u16 {
    get_u16(page, 8)
}

fn cell_start(page: &[u8]) -> usize {
    let raw = get_u16(page, 10) as usize;
    if raw == 0 {
        PAGE_SIZE
    } else {
        raw
    }
}

fn slot_entry(page: &[u8], slot: u16) -> (usize, usize) {
    let at = HEADER + slot as usize * SLOT;
    (get_u16(page, at) as usize, get_u16(page, at + 2) as usize)
}

fn set_slot_entry(page: &mut [u8], slot: u16, offset: usize, len: usize) {
    let at = HEADER + slot as usize * SLOT;
    put_u16(page, at, offset as u16);
    put_u16(page, at + 2, len as u16);
}

/// Contiguous free bytes between the slot directory and the cell area.
pub fn contiguous_free(page: &[u8]) -> usize {
    cell_start(page).saturating_sub(HEADER + slot_count(page) as usize * SLOT)
}

/// Total reclaimable free bytes (after compaction), assuming the next
/// insert reuses an existing empty slot if one exists.
pub fn usable_free(page: &[u8]) -> usize {
    let mut used_cells = 0usize;
    let n = slot_count(page);
    let mut has_empty = false;
    for s in 0..n {
        let (off, len) = slot_entry(page, s);
        if off == 0 {
            has_empty = true;
        } else {
            used_cells += len;
        }
    }
    let dir = HEADER + n as usize * SLOT + if has_empty { 0 } else { SLOT };
    (PAGE_SIZE - used_cells).saturating_sub(dir)
}

/// Number of live records on the page.
pub fn live_count(page: &[u8]) -> usize {
    (0..slot_count(page)).filter(|&s| slot_entry(page, s).0 != 0).count()
}

/// Get the record stored in `slot`, if live.
pub fn get(page: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= slot_count(page) {
        return None;
    }
    let (off, len) = slot_entry(page, slot);
    if off == 0 {
        None
    } else {
        Some(&page[off..off + len])
    }
}

/// Rewrite the cell area compactly, preserving slot numbers.
pub fn compact(page: &mut [u8]) {
    let n = slot_count(page);
    let mut cells: Vec<(u16, Vec<u8>)> = Vec::new();
    for s in 0..n {
        let (off, len) = slot_entry(page, s);
        if off != 0 {
            cells.push((s, page[off..off + len].to_vec()));
        }
    }
    let mut cursor = PAGE_SIZE;
    for (s, bytes) in cells {
        cursor -= bytes.len();
        page[cursor..cursor + bytes.len()].copy_from_slice(&bytes);
        set_slot_entry(page, s, cursor, bytes.len());
    }
    put_u16(page, 10, cursor as u16);
}

fn alloc_cell(page: &mut [u8], want_slot: Option<u16>, len: usize) -> Option<u16> {
    // Pick the slot: requested, a reusable empty one, or a new one.
    let n = slot_count(page);
    let (slot, new_slot) = match want_slot {
        Some(s) if s < n => (s, false),
        Some(s) => {
            // Redo may need to recreate a slot beyond the current count;
            // grow the directory with empty slots up to `s`.
            let extra = (s - n + 1) as usize * SLOT;
            if contiguous_free(page) < extra + len {
                compact(page);
                if contiguous_free(page) < extra + len {
                    return None;
                }
            }
            for ns in n..=s {
                set_slot_entry(page, ns, 0, 0);
            }
            put_u16(page, 8, s + 1);
            (s, false)
        }
        None => {
            let empty = (0..n).find(|&s| slot_entry(page, s).0 == 0);
            match empty {
                Some(s) => (s, false),
                None => (n, true),
            }
        }
    };
    let dir_growth = if new_slot { SLOT } else { 0 };
    if contiguous_free(page) < len + dir_growth {
        compact(page);
        if contiguous_free(page) < len + dir_growth {
            return None;
        }
    }
    if new_slot {
        put_u16(page, 8, n + 1);
        set_slot_entry(page, slot, 0, 0);
    }
    let cursor = cell_start(page) - len;
    set_slot_entry(page, slot, cursor, len);
    put_u16(page, 10, cursor as u16);
    Some(slot)
}

/// Insert a record; returns the slot, or `None` if the page is full.
pub fn insert(page: &mut [u8], record: &[u8]) -> Option<u16> {
    if record.len() > MAX_RECORD {
        return None;
    }
    let slot = alloc_cell(page, None, record.len())?;
    let (off, len) = slot_entry(page, slot);
    page[off..off + len].copy_from_slice(record);
    Some(slot)
}

/// Insert a record at a specific slot (recovery redo). Fails if the slot
/// is live with different contents and there is no room.
pub fn insert_at(page: &mut [u8], slot: u16, record: &[u8]) -> DbResult<()> {
    if slot < slot_count(page) && slot_entry(page, slot).0 != 0 {
        // Live: treat as overwrite (idempotent redo).
        return update(page, slot, record)
            .then_some(())
            .ok_or_else(|| DbError::Storage("redo insert_at: page full".into()));
    }
    let got = alloc_cell(page, Some(slot), record.len())
        .ok_or_else(|| DbError::Storage("redo insert_at: page full".into()))?;
    debug_assert_eq!(got, slot);
    let (off, len) = slot_entry(page, slot);
    page[off..off + len].copy_from_slice(record);
    Ok(())
}

/// Update the record in `slot` in place; returns `false` when the new
/// bytes do not fit on this page (caller relocates the record).
pub fn update(page: &mut [u8], slot: u16, record: &[u8]) -> bool {
    if slot >= slot_count(page) || slot_entry(page, slot).0 == 0 {
        return false;
    }
    let (off, len) = slot_entry(page, slot);
    if record.len() <= len {
        page[off..off + record.len()].copy_from_slice(record);
        set_slot_entry(page, slot, off, record.len());
        return true;
    }
    // Grow: release the old cell, allocate a new one under the same
    // slot. The old bytes must be saved first: a failed allocation may
    // still have *compacted* the page, relocating live cells over the
    // freed region, so restoring the old slot entry by offset would
    // point into other records' data.
    let old_bytes = page[off..off + len].to_vec();
    set_slot_entry(page, slot, 0, 0);
    match alloc_cell(page, Some(slot), record.len()) {
        Some(_) => {
            let (off, len) = slot_entry(page, slot);
            page[off..off + len].copy_from_slice(record);
            true
        }
        None => {
            // Put the old record back (it fit before; compaction only
            // ever increases contiguous space, so this cannot fail).
            let restored = alloc_cell(page, Some(slot), old_bytes.len())
                .expect("previous cell must fit after compaction");
            debug_assert_eq!(restored, slot);
            let (off, len) = slot_entry(page, slot);
            page[off..off + len].copy_from_slice(&old_bytes);
            false
        }
    }
}

/// Delete the record in `slot`; returns `true` if it was live.
pub fn delete(page: &mut [u8], slot: u16) -> bool {
    if slot >= slot_count(page) || slot_entry(page, slot).0 == 0 {
        return false;
    }
    set_slot_entry(page, slot, 0, 0);
    true
}

/// Iterate live `(slot, record)` pairs.
pub fn iter(page: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
    (0..slot_count(page)).filter_map(move |s| get(page, s).map(|r| (s, r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        init(&mut page);
        page
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut page = fresh();
        let a = insert(&mut page, b"hello").unwrap();
        let b = insert(&mut page, b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(get(&page, a), Some(&b"hello"[..]));
        assert_eq!(get(&page, b), Some(&b"world!"[..]));
        assert_eq!(live_count(&page), 2);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut page = fresh();
        let a = insert(&mut page, b"aaaa").unwrap();
        let _b = insert(&mut page, b"bbbb").unwrap();
        assert!(delete(&mut page, a));
        assert!(!delete(&mut page, a), "double delete is a no-op");
        assert_eq!(get(&page, a), None);
        let c = insert(&mut page, b"cccc").unwrap();
        assert_eq!(c, a, "slot numbers are recycled");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut page = fresh();
        let a = insert(&mut page, b"0123456789").unwrap();
        assert!(update(&mut page, a, b"xy"));
        assert_eq!(get(&page, a), Some(&b"xy"[..]));
        assert!(update(&mut page, a, b"a-much-longer-record-than-before"));
        assert_eq!(get(&page, a), Some(&b"a-much-longer-record-than-before"[..]));
    }

    #[test]
    fn update_missing_slot_fails() {
        let mut page = fresh();
        assert!(!update(&mut page, 0, b"x"));
        let a = insert(&mut page, b"x").unwrap();
        delete(&mut page, a);
        assert!(!update(&mut page, a, b"y"));
    }

    #[test]
    fn fills_up_then_rejects() {
        let mut page = fresh();
        let rec = [7u8; 128];
        let mut n = 0;
        while insert(&mut page, &rec).is_some() {
            n += 1;
        }
        // 128-byte cells + 4-byte slots into (4096 - 12).
        assert_eq!(n, (PAGE_SIZE - HEADER) / (128 + SLOT));
        assert!(insert(&mut page, &rec).is_none());
        // But a tiny record may still fit.
        assert!(usable_free(&page) < 128 + SLOT);
    }

    #[test]
    fn compaction_reclaims_fragmentation() {
        let mut page = fresh();
        let big = vec![1u8; 1000];
        let slots: Vec<u16> = (0..4).map(|_| insert(&mut page, &big).unwrap()).collect();
        // Delete two middle records: contiguous free stays small, usable
        // free is large.
        delete(&mut page, slots[1]);
        delete(&mut page, slots[2]);
        let huge = vec![2u8; 1900];
        let s = insert(&mut page, &huge).expect("compaction should make room");
        assert_eq!(get(&page, s), Some(&huge[..]));
        assert_eq!(get(&page, slots[0]), Some(&big[..]), "survivors intact");
        assert_eq!(get(&page, slots[3]), Some(&big[..]));
    }

    #[test]
    fn failed_grow_after_compaction_preserves_contents() {
        // Regression: a grow that frees its cell, compacts, and still
        // fails must restore the *bytes*, not just the old slot entry —
        // compaction may have moved other cells over the freed region.
        let mut page = fresh();
        let a = insert(&mut page, &[0xAA; 1300]).unwrap();
        let b = insert(&mut page, &[0xBB; 1300]).unwrap();
        let c = insert(&mut page, &[0xCC; 1300]).unwrap();
        // Fragment: drop the middle record so compaction has work to do.
        assert!(delete(&mut page, b));
        // Fill most of the reclaimed space so a big grow cannot fit.
        let d = insert(&mut page, &[0xDD; 1100]).unwrap();
        // Growing `a` far beyond what is free fails...
        assert!(!update(&mut page, a, &[0xEE; 3000]));
        // ...and every record still reads back exactly.
        assert_eq!(get(&page, a), Some(&[0xAA; 1300][..]));
        assert_eq!(get(&page, c), Some(&[0xCC; 1300][..]));
        assert_eq!(get(&page, d), Some(&[0xDD; 1100][..]));
    }

    #[test]
    fn insert_at_is_idempotent_for_redo() {
        let mut page = fresh();
        insert_at(&mut page, 3, b"redo-me").unwrap();
        assert_eq!(slot_count(&page), 4);
        assert_eq!(get(&page, 3), Some(&b"redo-me"[..]));
        assert_eq!(get(&page, 0), None);
        // Redoing the same insert is harmless.
        insert_at(&mut page, 3, b"redo-me").unwrap();
        assert_eq!(get(&page, 3), Some(&b"redo-me"[..]));
        assert_eq!(live_count(&page), 1);
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut page = fresh();
        let rec = vec![9u8; MAX_RECORD];
        let s = insert(&mut page, &rec).unwrap();
        assert_eq!(get(&page, s).unwrap().len(), MAX_RECORD);
        assert!(insert(&mut page, &[1u8; MAX_RECORD + 1]).is_none());
    }

    #[test]
    fn lsn_header_roundtrip() {
        let mut page = fresh();
        assert_eq!(page_lsn(&page), 0);
        set_page_lsn(&mut page, 0xDEAD_BEEF);
        assert_eq!(page_lsn(&page), 0xDEAD_BEEF);
        // Records unaffected.
        let a = insert(&mut page, b"x").unwrap();
        assert_eq!(page_lsn(&page), 0xDEAD_BEEF);
        assert_eq!(get(&page, a), Some(&b"x"[..]));
    }

    #[test]
    fn iter_yields_live_records_in_slot_order() {
        let mut page = fresh();
        let a = insert(&mut page, b"a").unwrap();
        let b = insert(&mut page, b"b").unwrap();
        let c = insert(&mut page, b"c").unwrap();
        delete(&mut page, b);
        let seen: Vec<(u16, Vec<u8>)> = iter(&page).map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(seen, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }
}
