//! A simulated page-addressed disk with I/O accounting, per-page
//! checksums, and a fault-injection hook.
//!
//! Every write stamps a CRC-32 of the page into a sidecar slot (the
//! moral equivalent of a real drive's per-sector ECC); every read
//! verifies it and reports a mismatch as
//! [`DbError::Corruption`] — which is how injected torn writes and bit
//! rot become *detectable* instead of silently wrong data.

use crate::fault::{crc32, FaultInjector, FaultKind, FaultSite};
use orion_types::{DbError, DbResult};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Size of every disk page, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a disk page (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

orion_obs::metrics! {
    /// Cumulative I/O counters.
    pub struct DiskStats;
    /// A backend's live I/O sinks ([`SimDisk`] and `FileDisk` both).
    pub(crate) struct DiskMetrics;
    /// Pages read from the disk.
    reads: counter("orion_disk_reads_total", "Pages read from disk"),
    /// Pages written to the disk.
    writes: counter("orion_disk_writes_total", "Pages written to disk"),
    /// Pages allocated.
    allocations: counter("orion_disk_allocations_total", "Pages allocated on disk"),
}

struct PageState {
    data: Box<[u8; PAGE_SIZE]>,
    /// CRC-32 of `data` as of the last *completed* write. A torn write
    /// leaves it stale on purpose — the interrupted write never got to
    /// update the checksum — so the next read detects the damage.
    crc: u32,
}

/// The simulated durable medium.
///
/// Contents survive "crashes" (which only discard buffer-pool frames and
/// the WAL tail); they are the ground truth recovery works against.
pub struct SimDisk {
    pages: Mutex<Vec<PageState>>,
    /// The simulated log device: an append-only byte store the WAL
    /// writes its stable frames through (see `crate::backend`).
    pub(crate) log: Mutex<Vec<u8>>,
    faults: RwLock<Option<Arc<FaultInjector>>>,
    metrics: DiskMetrics,
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> Self {
        SimDisk {
            pages: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            faults: RwLock::new(None),
            metrics: DiskMetrics::default(),
        }
    }

    /// Install (or with `None`, remove) a fault injector consulted on
    /// every read and write.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write() = injector;
    }

    /// Allocate a fresh zeroed page and return its id.
    pub fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u32);
        let data = Box::new([0u8; PAGE_SIZE]);
        let crc = crc32(&data[..]);
        pages.push(PageState { data, crc });
        self.metrics.allocations.inc();
        id
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    /// Read a page into `buf`. Verifies the page checksum; a mismatch
    /// (torn write, bit rot) is reported as [`DbError::Corruption`] and
    /// `buf` is left untouched.
    pub fn read(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        let shot = self.faults.read().as_ref().and_then(|f| f.fire(FaultSite::DiskRead));
        let mut pages = self.pages.lock();
        let page = pages
            .get_mut(id.0 as usize)
            .ok_or_else(|| DbError::Storage(format!("read of unallocated page {id}")))?;
        match shot.map(|s| (s.kind, s.entropy)) {
            Some((FaultKind::ReadError, _)) => {
                return Err(DbError::Storage(format!("injected I/O error reading page {id}")));
            }
            Some((FaultKind::BitFlip, entropy)) => {
                // Persistent bit rot: the stored page is damaged, not
                // just this read's copy.
                let bit = (entropy % (PAGE_SIZE as u64 * 8)) as usize;
                page.data[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {}
        }
        if crc32(&page.data[..]) != page.crc {
            return Err(DbError::Corruption(format!("checksum mismatch reading page {id}")));
        }
        buf.copy_from_slice(&page.data[..]);
        self.metrics.reads.inc();
        Ok(())
    }

    /// Write `buf` to a page, updating its checksum on completion.
    pub fn write(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        let shot = self.faults.read().as_ref().and_then(|f| f.fire(FaultSite::DiskWrite));
        let mut pages = self.pages.lock();
        let page = pages
            .get_mut(id.0 as usize)
            .ok_or_else(|| DbError::Storage(format!("write of unallocated page {id}")))?;
        match shot.map(|s| (s.kind, s.entropy)) {
            Some((FaultKind::WriteError, _)) => {
                return Err(DbError::Storage(format!("injected I/O error writing page {id}")));
            }
            Some((FaultKind::TornWrite, entropy)) => {
                // Persist a prefix, fail, and leave the checksum stale —
                // the next read of this page reports Corruption.
                let prefix = 1 + (entropy % (PAGE_SIZE as u64 - 1)) as usize;
                page.data[..prefix].copy_from_slice(&buf[..prefix]);
                return Err(DbError::Storage(format!(
                    "injected torn write on page {id}: {prefix} of {PAGE_SIZE} bytes persisted"
                )));
            }
            _ => {}
        }
        page.data.copy_from_slice(buf);
        page.crc = crc32(buf);
        self.metrics.writes.inc();
        Ok(())
    }

    /// Is the stored page internally consistent (checksum matches)?
    /// Never consults the fault injector — this is recovery's damage
    /// probe, not an I/O path.
    pub fn verify(&self, id: PageId) -> DbResult<bool> {
        let pages = self.pages.lock();
        let page = pages
            .get(id.0 as usize)
            .ok_or_else(|| DbError::Storage(format!("verify of unallocated page {id}")))?;
        Ok(crc32(&page.data[..]) == page.crc)
    }

    /// Snapshot the I/O counters.
    pub fn stats(&self) -> DiskStats {
        self.metrics.snapshot()
    }
}

impl std::fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDisk")
            .field("pages", &self.page_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn allocate_read_write_roundtrip() {
        let disk = SimDisk::new();
        let a = disk.allocate();
        let b = disk.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write(b, &buf).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
        // Page `a` is still zeroed.
        disk.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_bounds_access_is_an_error() {
        let disk = SimDisk::new();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(disk.read(PageId(0), &mut buf).is_err());
        assert!(disk.write(PageId(3), &buf).is_err());
    }

    #[test]
    fn stats_count_operations() {
        let disk = SimDisk::new();
        let p = disk.allocate();
        let buf = [0u8; PAGE_SIZE];
        disk.write(p, &buf).unwrap();
        disk.write(p, &buf).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read(p, &mut out).unwrap();
        assert_eq!(disk.stats(), DiskStats { reads: 1, writes: 2, allocations: 1 });
    }

    #[test]
    fn injected_read_error_is_clean_and_transient() {
        let disk = SimDisk::new();
        let p = disk.allocate();
        let mut buf = [7u8; PAGE_SIZE];
        disk.write(p, &buf).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(1).fail_nth(FaultKind::ReadError, 1)));
        disk.set_fault_injector(Some(Arc::clone(&inj)));
        let err = disk.read(p, &mut buf).unwrap_err();
        assert!(matches!(err, DbError::Storage(_)), "clean I/O error, got {err:?}");
        // The fault was one-shot; the page itself is unharmed.
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
        assert_eq!(inj.stats().read_errors, 1);
    }

    #[test]
    fn bit_flip_is_reported_as_corruption() {
        let disk = SimDisk::new();
        let p = disk.allocate();
        disk.write(p, &[9u8; PAGE_SIZE]).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(42).fail_nth(FaultKind::BitFlip, 1)));
        disk.set_fault_injector(Some(inj));
        let mut buf = [0u8; PAGE_SIZE];
        let err = disk.read(p, &mut buf).unwrap_err();
        assert!(matches!(err, DbError::Corruption(_)), "bit rot must surface as Corruption");
        // The rot is persistent: later (fault-free) reads still see it.
        disk.set_fault_injector(None);
        assert!(matches!(disk.read(p, &mut buf), Err(DbError::Corruption(_))));
        assert!(!disk.verify(p).unwrap());
    }

    #[test]
    fn torn_write_persists_prefix_and_corrupts_page() {
        let disk = SimDisk::new();
        let p = disk.allocate();
        disk.write(p, &[1u8; PAGE_SIZE]).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(5).fail_nth(FaultKind::TornWrite, 1)));
        disk.set_fault_injector(Some(inj));
        let err = disk.write(p, &[2u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, DbError::Storage(_)));
        disk.set_fault_injector(None);
        let mut buf = [0u8; PAGE_SIZE];
        assert!(
            matches!(disk.read(p, &mut buf), Err(DbError::Corruption(_))),
            "half-old half-new page fails its checksum"
        );
        // A completed rewrite heals the page.
        disk.write(p, &[3u8; PAGE_SIZE]).unwrap();
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3));
    }

    #[test]
    fn injected_write_error_leaves_page_intact() {
        let disk = SimDisk::new();
        let p = disk.allocate();
        disk.write(p, &[4u8; PAGE_SIZE]).unwrap();
        let inj =
            Arc::new(FaultInjector::new(FaultPlan::new(2).fail_nth(FaultKind::WriteError, 1)));
        disk.set_fault_injector(Some(inj));
        assert!(disk.write(p, &[5u8; PAGE_SIZE]).is_err());
        disk.set_fault_injector(None);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 4), "failed write touched nothing");
    }
}
