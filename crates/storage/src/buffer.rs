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

use crate::backend::StorageBackend;
use crate::disk::{PageId, PAGE_SIZE};
use crate::slotted;
use crate::wal::{Lsn, Wal};
use orion_types::{DbError, DbResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer pool counters; experiment E10 reads misses as its I/O metric.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests satisfied without disk I/O.
    pub hits: u64,
    /// Page requests that had to read from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to disk.
    pub writebacks: u64,
}

struct Frame {
    pid: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

#[derive(Default)]
struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    tick: u64,
}

/// An LRU buffer pool over any [`StorageBackend`].
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    disk: Arc<dyn StorageBackend>,
    capacity: usize,
    wal: Option<Arc<Wal>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl BufferPool {
    /// A pool holding up to `capacity` pages. `wal`, when present, is
    /// flushed up to a dirty page's LSN before that page is written.
    pub fn new(disk: Arc<dyn StorageBackend>, capacity: usize, wal: Option<Arc<Wal>>) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            inner: Mutex::new(PoolInner::default()),
            disk,
            capacity,
            wal,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// The configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying storage backend.
    pub fn disk(&self) -> &Arc<dyn StorageBackend> {
        &self.disk
    }

    fn write_back(&self, frame: &Frame) -> DbResult<()> {
        if let Some(wal) = &self.wal {
            wal.flush_to(Lsn(slotted::page_lsn(&frame.data[..])))?;
        }
        self.disk.write(frame.pid, &frame.data)?;
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Locate `pid` in the pool, loading (and possibly evicting) as
    /// needed. Returns the frame index. Caller holds the inner lock.
    fn ensure_loaded(&self, inner: &mut PoolInner, pid: PageId) -> DbResult<usize> {
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(&idx) = inner.map.get(&pid) {
            inner.frames[idx].last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(idx);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.disk.read(pid, &mut data)?;
        let idx = if inner.frames.len() < self.capacity {
            inner.frames.push(Frame { pid, data, dirty: false, last_used: tick });
            inner.frames.len() - 1
        } else {
            // Evict the least recently used frame.
            let victim = inner
                .frames
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i)
                .ok_or_else(|| DbError::Internal("empty pool at capacity".into()))?;
            let old = &inner.frames[victim];
            if old.dirty {
                self.write_back(old)?;
            }
            inner.map.remove(&old.pid);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            inner.frames[victim] = Frame { pid, data, dirty: false, last_used: tick };
            victim
        };
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
        inner.tick += 1;
        let tick = inner.tick;
        let mut data = Box::new([0u8; PAGE_SIZE]);
        slotted::init(&mut data[..]);
        if let Some(&idx) = inner.map.get(&pid) {
            inner.frames[idx] = Frame { pid, data, dirty: true, last_used: tick };
            return Ok(());
        }
        if inner.frames.len() >= self.capacity {
            let victim = inner
                .frames
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i)
                .ok_or_else(|| DbError::Internal("empty pool at capacity".into()))?;
            let old = &inner.frames[victim];
            if old.dirty {
                self.write_back(old)?;
            }
            let old_pid = old.pid;
            inner.map.remove(&old_pid);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            inner.frames[victim] = Frame { pid, data, dirty: true, last_used: tick };
            inner.map.insert(pid, victim);
        } else {
            inner.frames.push(Frame { pid, data, dirty: true, last_used: tick });
            let idx = inner.frames.len() - 1;
            inner.map.insert(pid, idx);
        }
        Ok(())
    }

    /// Write every dirty frame back to disk (checkpoint step).
    pub fn flush_all(&self) -> DbResult<()> {
        let mut inner = self.inner.lock();
        for frame in inner.frames.iter_mut() {
            if frame.dirty {
                if let Some(wal) = &self.wal {
                    wal.flush_to(Lsn(slotted::page_lsn(&frame.data[..])))?;
                }
                self.disk.write(frame.pid, &frame.data)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
                frame.dirty = false;
            }
        }
        Ok(())
    }

    /// Simulate a crash: every frame — dirty or clean — is discarded
    /// without any write-back.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.map.clear();
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
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

    use crate::disk::SimDisk;

    fn pool(cap: usize) -> (Arc<SimDisk>, BufferPool) {
        let disk = Arc::new(SimDisk::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn StorageBackend>, cap, None);
        (disk, pool)
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
        pool.reset_stats();
        pool.with_page(pid, |_| ()).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 0));
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
        pool.reset_stats();
        pool.with_page(p0, |_| ()).unwrap();
        assert_eq!(pool.stats().hits, 1, "p0 survived eviction");
        pool.with_page(p1, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1, "p1 was the LRU victim");
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
        let disk = Arc::new(SimDisk::new());
        let pool =
            BufferPool::new(Arc::clone(&disk) as Arc<dyn StorageBackend>, 1, Some(Arc::clone(&wal)));
        let pid = pool.allocate_slotted().unwrap();
        let lsn = wal.append(&crate::wal::LogRecord::Begin { txn: 1 });
        pool.with_page_mut(pid, |p| slotted::set_page_lsn(p, lsn.0)).unwrap();
        assert_eq!(wal.stable_len(), 0);
        // Loading another page evicts pid, which must first force the WAL.
        let _p2 = pool.allocate_slotted().unwrap();
        assert!(wal.stable_len() > 0, "WAL forced before dirty page write");
    }
}
