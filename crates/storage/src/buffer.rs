//! The buffer pool: an LRU page cache between the storage engine and the
//! simulated disk.
//!
//! "One should remember that conventional database systems do not allow
//! applications to directly access objects in the page buffers" (§3.3) —
//! and neither does orion: page bytes are only reachable inside the
//! closures passed to [`BufferPool::with_page`] / `with_page_mut`, which
//! pin the frame for exactly the closure's duration. The pool honors the
//! write-ahead rule: a dirty page is never written to disk before the
//! log records up to its page LSN are stable.

use crate::device::{PageDevice, PageId, PAGE_SIZE};
use crate::slotted;
use crate::wal::{Lsn, Wal};
use orion_types::{DbError, DbResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

orion_obs::metrics! {
    /// Buffer pool counters; experiment E10 reads misses as its I/O metric.
    pub struct PoolStats;
    /// The buffer pool's live sinks.
    pub(crate) struct PoolMetrics;
    /// Page requests satisfied without disk I/O.
    hits: counter("orion_pool_hits_total", "Buffer-pool page requests satisfied without disk I/O"),
    /// Page requests that had to read from disk.
    misses: counter("orion_pool_misses_total", "Buffer-pool page requests that read from disk"),
    /// Frames evicted to make room.
    evictions: counter("orion_pool_evictions_total", "Buffer-pool frames evicted to make room"),
    /// Dirty pages written back to disk.
    writebacks: counter("orion_pool_writebacks_total", "Dirty pages written back to disk"),
}

struct Frame {
    pid: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    /// The next less recently used frame.
    older: Option<usize>,
    /// The next more recently used frame.
    newer: Option<usize>,
}

/// The frames, the page table, and the recency list threaded through
/// the frames: exact LRU, with the victim at the list's old end.
struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// The least recently used frame: the next victim.
    oldest: Option<usize>,
    /// The most recently used frame.
    newest: Option<usize>,
    /// The page a miss at capacity reads into; swapped with the
    /// victim's buffer once the read succeeds, so such a miss
    /// allocates nothing.
    spare: Box<[u8; PAGE_SIZE]>,
}

impl PoolInner {
    fn new() -> Self {
        PoolInner {
            frames: Vec::new(),
            map: HashMap::new(),
            oldest: None,
            newest: None,
            spare: Box::new([0; PAGE_SIZE]),
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Frame { older, newer, .. } = self.frames[idx];
        match older {
            Some(o) => self.frames[o].newer = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(n) => self.frames[n].older = older,
            None => self.newest = older,
        }
    }

    fn push_newest(&mut self, idx: usize) {
        let frame = &mut self.frames[idx];
        (frame.older, frame.newer) = (self.newest, None);
        match self.newest {
            Some(n) => self.frames[n].newer = Some(idx),
            None => self.oldest = Some(idx),
        }
        self.newest = Some(idx);
    }

    /// Mark a resident frame the most recently used.
    fn touch(&mut self, idx: usize) {
        if self.newest != Some(idx) {
            self.unlink(idx);
            self.push_newest(idx);
        }
    }
}

/// An LRU buffer pool over a [`PageDevice`].
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    disk: Arc<PageDevice>,
    capacity: usize,
    wal: Option<Arc<Wal>>,
    metrics: PoolMetrics,
}

impl BufferPool {
    /// A pool holding up to `capacity` pages. `wal`, when present, is
    /// flushed up to a dirty page's LSN before that page is written.
    pub fn new(disk: Arc<PageDevice>, capacity: usize, wal: Option<Arc<Wal>>) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            inner: Mutex::new(PoolInner::new()),
            disk,
            capacity,
            wal,
            metrics: PoolMetrics::default(),
        }
    }

    /// The configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn write_back(&self, frame: &Frame) -> DbResult<()> {
        if let Some(wal) = &self.wal {
            wal.flush_to(Lsn(slotted::page_lsn(&frame.data[..])))?;
        }
        self.disk.write(frame.pid, &frame.data)?;
        self.metrics.writebacks.inc();
        Ok(())
    }

    /// Locate `pid` in the pool, loading (and possibly evicting) as
    /// needed. Returns the frame index. Caller holds the inner lock.
    fn ensure_loaded(&self, inner: &mut PoolInner, pid: PageId) -> DbResult<usize> {
        if let Some(&idx) = inner.map.get(&pid) {
            inner.touch(idx);
            self.metrics.hits.inc();
            return Ok(idx);
        }
        self.metrics.misses.inc();
        // A failed read leaves the frames, the map and the list as they were.
        self.disk.read(pid, &mut inner.spare)?;
        self.install(inner, pid, false)
    }

    /// Make the page in `inner.spare` resident as `pid`, the most
    /// recently used, and return its frame. At capacity the least
    /// recently used frame is evicted (written back first if dirty, and
    /// left in place if that fails) and its buffer becomes the spare;
    /// below it the frame is new and so is the spare.
    fn install(&self, inner: &mut PoolInner, pid: PageId, dirty: bool) -> DbResult<usize> {
        let idx = if inner.frames.len() < self.capacity {
            let data = std::mem::replace(&mut inner.spare, Box::new([0; PAGE_SIZE]));
            inner.frames.push(Frame { pid, data, dirty, older: None, newer: None });
            inner.frames.len() - 1
        } else {
            let victim =
                inner.oldest.ok_or_else(|| DbError::Internal("empty pool at capacity".into()))?;
            let old = &inner.frames[victim];
            if old.dirty {
                self.write_back(old)?;
            }
            inner.map.remove(&old.pid);
            self.metrics.evictions.inc();
            inner.unlink(victim);
            let frame = &mut inner.frames[victim];
            std::mem::swap(&mut frame.data, &mut inner.spare);
            (frame.pid, frame.dirty) = (pid, dirty);
            victim
        };
        inner.push_newest(idx);
        inner.map.insert(pid, idx);
        Ok(idx)
    }

    /// Run `f` against the page's bytes (read-only access).
    ///
    /// The closure must not call back into the pool — frames are pinned
    /// by the pool lock for the closure's duration.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> DbResult<R> {
        let mut inner = self.inner.lock();
        let idx = self.ensure_loaded(&mut inner, pid)?;
        Ok(f(&inner.frames[idx].data[..]))
    }

    /// Run `f` against the page's bytes mutably; the frame is marked
    /// dirty. Same no-reentrancy rule as [`BufferPool::with_page`].
    pub fn with_page_mut<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> DbResult<R> {
        let mut inner = self.inner.lock();
        let idx = self.ensure_loaded(&mut inner, pid)?;
        inner.frames[idx].dirty = true;
        Ok(f(&mut inner.frames[idx].data[..]))
    }

    /// Allocate a fresh page on disk, initialize it as an empty slotted
    /// page in the pool, and return its id.
    pub fn allocate_slotted(&self) -> DbResult<PageId> {
        let pid = self.disk.allocate()?;
        self.with_page_mut(pid, slotted::init)?;
        Ok(pid)
    }

    /// Replace a page the disk reports as corrupt with a freshly
    /// initialized slotted page, installed *dirty* in the pool without
    /// reading the damaged bytes. Recovery calls this before replaying
    /// the log: the fresh page's LSN is 0, so redo gives it every change
    /// the log holds for it and rebuilds its contents from history.
    pub fn repair_page(&self, pid: PageId) -> DbResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.spare.fill(0);
        slotted::init(&mut inner.spare[..]);
        match inner.map.get(&pid) {
            Some(&idx) => {
                let frame = &mut inner.frames[idx];
                std::mem::swap(&mut frame.data, &mut inner.spare);
                frame.dirty = true;
                inner.touch(idx);
            }
            None => {
                self.install(inner, pid, true)?;
            }
        }
        Ok(())
    }

    /// Write every dirty frame back to disk (checkpoint step).
    pub fn flush_all(&self) -> DbResult<()> {
        let mut inner = self.inner.lock();
        for frame in inner.frames.iter_mut().filter(|f| f.dirty) {
            self.write_back(frame)?;
            frame.dirty = false;
        }
        Ok(())
    }

    /// Simulate a crash: every frame — dirty or clean — is discarded
    /// without any write-back.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.map.clear();
        (inner.oldest, inner.newest) = (None, None);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PoolStats {
        self.metrics.snapshot()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> (Arc<PageDevice>, BufferPool) {
        let disk = Arc::new(PageDevice::new());
        let pool = BufferPool::new(Arc::clone(&disk), cap, None);
        (disk, pool)
    }

    /// The resident pages from least to most recently used, with their
    /// dirty flags, once the list is checked to thread every frame
    /// exactly once in both directions and to agree with the map.
    fn residents(pool: &BufferPool) -> Vec<(PageId, bool)> {
        let inner = pool.inner.lock();
        let (mut order, mut at, mut prev) = (Vec::new(), inner.oldest, None);
        while let Some(idx) = at {
            let frame = &inner.frames[idx];
            assert_eq!(frame.older, prev, "frame {idx} links back to its predecessor");
            assert_eq!(inner.map.get(&frame.pid), Some(&idx), "the map finds frame {idx}");
            order.push((frame.pid, frame.dirty));
            assert!(order.len() <= inner.frames.len(), "the list has a cycle");
            (prev, at) = (Some(idx), frame.newer);
        }
        assert_eq!(inner.newest, prev, "the list ends at the newest frame");
        assert_eq!((order.len(), inner.map.len()), (inner.frames.len(), inner.frames.len()));
        order
    }

    #[test]
    fn a_failed_miss_at_capacity_leaves_the_pool_as_it_was() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        for kind in [FaultKind::ReadError, FaultKind::BitFlip] {
            let (disk, pool) = pool(3);
            let p: Vec<PageId> = (0..5).map(|_| pool.allocate_slotted().unwrap()).collect();
            pool.flush_all().unwrap();
            let slot = pool.with_page_mut(p[3], |pg| slotted::insert(pg, b"kept").unwrap());
            pool.with_page(p[2], |_| ()).unwrap();
            let before = residents(&pool);
            assert_eq!(before, [(p[4], false), (p[3], true), (p[2], false)]);
            let counts = pool.stats();
            let plan = FaultPlan::new(9).fail_nth(kind, 1);
            disk.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
            assert!(pool.with_page(p[0], |_| ()).is_err(), "{kind:?} fails the miss");
            disk.set_fault_injector(None);
            assert_eq!(residents(&pool), before, "{kind:?} moved nothing");
            assert_eq!(pool.stats().evictions, counts.evictions);
            pool.with_page(p[1], |_| ()).unwrap();
            assert_eq!(residents(&pool), [(p[3], true), (p[2], false), (p[1], false)]);
            let kept =
                pool.with_page(p[3], |pg| slotted::get(pg, slot.unwrap()).map(<[u8]>::to_vec));
            assert_eq!(kept.unwrap().as_deref(), Some(&b"kept"[..]), "the page kept its bytes");
            let s = pool.stats();
            assert_eq!((s.evictions, s.writebacks), (counts.evictions + 1, counts.writebacks));
        }
    }

    #[test]
    fn repair_then_crash_then_misses_keep_the_list_whole() {
        let (_disk, pool) = pool(2);
        let p: Vec<PageId> = (0..4).map(|_| pool.allocate_slotted().unwrap()).collect();
        pool.flush_all().unwrap();
        pool.repair_page(p[3]).unwrap(); // resident: repaired in place
        assert_eq!(residents(&pool), [(p[2], false), (p[3], true)]);
        pool.repair_page(p[0]).unwrap(); // evicts the clean p2
        assert_eq!(residents(&pool), [(p[3], true), (p[0], true)]);
        pool.crash();
        assert_eq!(residents(&pool), []);
        let before = pool.stats();
        for &pid in p.iter().chain(&p) {
            pool.with_page(pid, |_| ()).unwrap();
            assert_eq!(residents(&pool).last(), Some(&(pid, false)));
        }
        assert_eq!(residents(&pool), [(p[2], false), (p[3], false)]);
        let s = pool.stats();
        assert_eq!((s.misses - before.misses, s.hits - before.hits), (8, 0));
    }

    #[test]
    fn read_after_write_through_pool() {
        let (_disk, pool) = pool(4);
        let pid = pool.allocate_slotted().unwrap();
        let slot = pool.with_page_mut(pid, |p| slotted::insert(p, b"hello").unwrap()).unwrap();
        let got =
            pool.with_page(pid, |p| slotted::get(p, slot).map(|r| r.to_vec())).unwrap();
        assert_eq!(got, Some(b"hello".to_vec()));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (_disk, pool) = pool(4);
        let pid = pool.allocate_slotted().unwrap(); // miss (load) happens here
        let before = pool.stats();
        pool.with_page(pid, |_| ()).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits - before.hits, s.misses - before.misses), (2, 0));
    }

    #[test]
    fn eviction_respects_capacity_and_writes_back_dirty() {
        let (disk, pool) = pool(2);
        let p0 = pool.allocate_slotted().unwrap();
        let p1 = pool.allocate_slotted().unwrap();
        let p2 = pool.allocate_slotted().unwrap(); // evicts one of p0/p1
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.writebacks >= 1, "evicted page was dirty (freshly initialized)");
        // All three pages remain readable and valid slotted pages.
        for pid in [p0, p1, p2] {
            let n = pool.with_page(pid, slotted::slot_count).unwrap();
            assert_eq!(n, 0);
        }
        assert!(disk.stats().writes >= 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (_disk, pool) = pool(2);
        let p0 = pool.allocate_slotted().unwrap();
        let p1 = pool.allocate_slotted().unwrap();
        pool.with_page(p0, |_| ()).unwrap(); // p0 now more recent than p1
        let _p2 = pool.allocate_slotted().unwrap(); // should evict p1
        let before = pool.stats();
        pool.with_page(p0, |_| ()).unwrap();
        assert_eq!(pool.stats().hits - before.hits, 1, "p0 survived eviction");
        pool.with_page(p1, |_| ()).unwrap();
        assert_eq!(pool.stats().misses - before.misses, 1, "p1 was the LRU victim");
    }

    #[test]
    fn crash_discards_unflushed_writes() {
        let (_disk, pool) = pool(4);
        let pid = pool.allocate_slotted().unwrap();
        pool.flush_all().unwrap();
        pool.with_page_mut(pid, |p| {
            slotted::insert(p, b"doomed").unwrap();
        })
        .unwrap();
        pool.crash();
        // The insert never reached disk; the flushed empty page did.
        let n = pool.with_page(pid, slotted::live_count).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn flush_all_persists() {
        let (_disk, pool) = pool(4);
        let pid = pool.allocate_slotted().unwrap();
        pool.with_page_mut(pid, |p| {
            slotted::insert(p, b"kept").unwrap();
        })
        .unwrap();
        pool.flush_all().unwrap();
        pool.crash();
        let n = pool.with_page(pid, slotted::live_count).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn repair_page_replaces_corrupt_frame() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        let (disk, pool) = pool(4);
        let pid = pool.allocate_slotted().unwrap();
        pool.with_page_mut(pid, |p| {
            slotted::insert(p, b"rotting").unwrap();
        })
        .unwrap();
        pool.flush_all().unwrap();
        pool.crash();
        let inj =
            Arc::new(FaultInjector::new(FaultPlan::new(5).fail_nth(FaultKind::BitFlip, 1)));
        disk.set_fault_injector(Some(inj));
        assert!(pool.with_page(pid, |_| ()).is_err(), "bit rot detected on load");
        disk.set_fault_injector(None);
        assert!(pool.with_page(pid, |_| ()).is_err(), "the rot is persistent");
        pool.repair_page(pid).unwrap();
        let n = pool.with_page(pid, slotted::live_count).unwrap();
        assert_eq!(n, 0, "repaired page is a fresh empty slotted page");
    }

    #[test]
    fn write_ahead_rule_flushes_wal_before_page() {
        let wal = Arc::new(Wal::new());
        let disk = Arc::new(PageDevice::new());
        let pool = BufferPool::new(Arc::clone(&disk), 1, Some(Arc::clone(&wal)));
        let pid = pool.allocate_slotted().unwrap();
        let lsn = wal.append(&crate::wal::LogRecord::Prepare { txn: 1 });
        pool.with_page_mut(pid, |p| slotted::set_page_lsn(p, lsn.0)).unwrap();
        assert_eq!(wal.stable_len(), 0);
        // Loading another page evicts pid, which must first force the WAL.
        let _p2 = pool.allocate_slotted().unwrap();
        assert!(wal.stable_len() > 0, "WAL forced before dirty page write");
    }
}
