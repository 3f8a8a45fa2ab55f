//! Heap-file bookkeeping: record ids, free-space tracking, and placement
//! hints for composite-object clustering (§4.2).

use crate::device::PageId;
use std::collections::BTreeMap;

/// A record id: physical address of a stored record. The object
//  directory maps logical OIDs to these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: u16,
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.page, self.slot)
    }
}

/// In-memory free-space map over the heap's pages.
///
/// Rebuilt on database open (and after recovery) by scanning pages; it is
/// advisory — the slotted page is the truth, and a stale entry only costs
/// a failed placement attempt.
#[derive(Debug, Default)]
pub struct HeapFile {
    /// Free bytes per page.
    free: BTreeMap<PageId, usize>,
}

impl HeapFile {
    /// An empty heap.
    pub fn new() -> Self {
        HeapFile::default()
    }

    /// Register (or refresh) a page's free-space estimate.
    pub fn note_free(&mut self, page: PageId, free: usize) {
        self.free.insert(page, free);
    }

    /// Forget a page (never called in practice; pages are not reclaimed).
    pub fn forget(&mut self, page: PageId) {
        self.free.remove(&page);
    }

    /// All pages known to the heap, in id order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.free.keys().copied()
    }

    /// Number of pages in the heap.
    pub fn page_count(&self) -> usize {
        self.free.len()
    }

    /// Pick a page with at least `need` free bytes.
    ///
    /// With a `hint`, the hinted page is tried first — this is the
    /// clustering mechanism: composite-object inserts hint the parent's
    /// page so parts co-reside with their root (experiment E10). Without
    /// a hint (or if the hint is full) the first page with room wins;
    /// `None` means the caller must allocate a new page.
    pub fn pick_page(&self, need: usize, hint: Option<PageId>) -> Option<PageId> {
        if let Some(h) = hint {
            if self.free.get(&h).is_some_and(|&f| f >= need) {
                return Some(h);
            }
        }
        self.free.iter().find(|(_, &f)| f >= need).map(|(&p, _)| p)
    }

    /// Free bytes recorded for `page`.
    pub fn free_on(&self, page: PageId) -> Option<usize> {
        self.free.get(&page).copied()
    }

    /// Drop all entries (before a rebuild).
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_prefers_hint_when_it_fits() {
        let mut heap = HeapFile::new();
        heap.note_free(PageId(0), 100);
        heap.note_free(PageId(5), 500);
        assert_eq!(heap.pick_page(50, Some(PageId(5))), Some(PageId(5)));
        // Hint too full: falls back to first fitting page.
        assert_eq!(heap.pick_page(200, Some(PageId(0))), Some(PageId(5)));
        // Nothing fits.
        assert_eq!(heap.pick_page(1000, None), None);
    }

    #[test]
    fn note_free_updates() {
        let mut heap = HeapFile::new();
        heap.note_free(PageId(1), 10);
        heap.note_free(PageId(1), 400);
        assert_eq!(heap.free_on(PageId(1)), Some(400));
        assert_eq!(heap.page_count(), 1);
        heap.forget(PageId(1));
        assert_eq!(heap.free_on(PageId(1)), None);
    }

    #[test]
    fn pages_iterate_in_order() {
        let mut heap = HeapFile::new();
        heap.note_free(PageId(3), 1);
        heap.note_free(PageId(1), 1);
        heap.note_free(PageId(2), 1);
        let order: Vec<u32> = heap.pages().map(|p| p.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
