//! The page device: a page-addressed disk with I/O accounting, per-page
//! checksums and a fault-injection hook, over two byte stores — one for
//! the pages, one for the log.
//!
//! Every page is stored as a block `[crc32 | reserved | PAGE_SIZE
//! data]`, the checksum sidecar written with the data (the moral
//! equivalent of a real drive's per-sector ECC). Every read verifies it
//! and reports a mismatch as [`DbError::Corruption`], which is how
//! injected torn writes and bit rot become *detectable* instead of
//! silently wrong data. The durability contract:
//!
//! * **Pages** are written as whole blocks; a write may *tear* (persist
//!   a prefix), but the stale checksum makes the tear detectable on the
//!   next read. [`PageDevice::sync`] is the durability barrier for page
//!   writes.
//! * **The log** ([`PageDevice::log`]) is byte-addressed and
//!   append-only; its `sync` is the durability barrier (the real
//!   `fsync` on files). A crash may leave a torn suffix, which the WAL's
//!   frame CRCs detect and truncate — the log interior is never
//!   silently damaged.
//!
//! The stores decide only where the bytes live: [`MemStore`]s for the
//! in-memory device ([`PageDevice::new`]), `pages.dat` and `wal.log`
//! [`FileStore`]s for a directory ([`FileDisk::open`]). Everything a
//! fault means is written here once, so both behave identically.

use crate::fault::{crc32, FaultInjector, FaultKind, FaultSite};
use crate::store::{ByteStore, FileStore, MemStore};
use orion_types::{DbError, DbResult};
use parking_lot::RwLock;
use std::path::Path;
use std::sync::Arc;

/// Size of every disk page, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes before a page's data in its block: checksum + reserved.
const HEADER: usize = 8;
/// Bytes per stored page block.
pub(crate) const BLOCK: usize = HEADER + PAGE_SIZE;

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
    /// The device's live I/O sinks.
    pub(crate) struct DiskMetrics;
    /// Pages read from the disk.
    reads: counter("orion_disk_reads_total", "Pages read from disk"),
    /// Pages written to the disk.
    writes: counter("orion_disk_writes_total", "Pages written to disk"),
    /// Pages allocated.
    allocations: counter("orion_disk_allocations_total", "Pages allocated on disk"),
}

/// The durable medium: pages plus the log.
///
/// Contents survive "crashes" (which only discard buffer-pool frames and
/// the WAL tail); they are the ground truth recovery works against.
pub struct PageDevice {
    pages: Box<dyn ByteStore>,
    log: Box<dyn ByteStore>,
    faults: RwLock<Option<Arc<FaultInjector>>>,
    metrics: DiskMetrics,
}

/// The device over files: `FileDisk::open(dir)`.
pub type FileDisk = PageDevice;

/// The header stored in front of `data`: its checksum, then zeroes.
fn header(data: &[u8]) -> [u8; HEADER] {
    let c = crc32(data).to_le_bytes();
    [c[0], c[1], c[2], c[3], 0, 0, 0, 0]
}

/// A fresh page's stored block: zeroed data under its checksum.
static ZERO_BLOCK: [u8; BLOCK] = {
    let (mut block, c) = ([0; BLOCK], 0xC71C_0011_u32.to_le_bytes());
    (block[0], block[1], block[2], block[3]) = (c[0], c[1], c[2], c[3]);
    block
};

/// A stored block's data, if its checksum holds.
fn intact(block: &[u8]) -> Option<&[u8]> {
    let (header, data) = block.split_at(HEADER);
    (crc32(data).to_le_bytes() == header[..4]).then_some(data)
}

impl Default for PageDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl PageDevice {
    /// An empty device in memory. Each page block is its own
    /// allocation; the log is one buffer.
    pub fn new() -> Self {
        Self::over(Box::new(MemStore::chunked(BLOCK as u64)), Box::new(MemStore::flat()))
    }

    /// Open (creating if needed) a device over files in `dir`: pages in
    /// `pages.dat`, the log in `wal.log`, durability barriers via
    /// `File::sync_data`. A trailing partial page block — a crash
    /// mid-allocation — is trimmed away; the WAL handles its own torn
    /// tail.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| DbError::Storage(format!("creating {}: {e}", dir.display())))?;
        let pages = FileStore::open(dir.join("pages.dat"))?;
        pages.truncate(pages.len() - pages.len() % BLOCK as u64)?;
        Ok(Self::over(Box::new(pages), Box::new(FileStore::open(dir.join("wal.log"))?)))
    }

    fn over(pages: Box<dyn ByteStore>, log: Box<dyn ByteStore>) -> Self {
        PageDevice { pages, log, faults: RwLock::new(None), metrics: DiskMetrics::default() }
    }

    /// Install (or with `None`, remove) a fault injector consulted on
    /// every page read and write.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write() = injector;
    }

    fn fire(&self, site: FaultSite) -> Option<(FaultKind, u64)> {
        self.faults.read().as_ref()?.fire(site).map(|s| (s.kind, s.entropy))
    }

    /// Where page `id`'s block starts; an unallocated page is an error.
    fn block_at(&self, id: PageId, op: &str) -> DbResult<u64> {
        if id.0 >= self.page_count() {
            return Err(DbError::Storage(format!("{op} of unallocated page {id}")));
        }
        Ok(u64::from(id.0) * BLOCK as u64)
    }

    /// Allocate a fresh zeroed page and return its id.
    pub fn allocate(&self) -> DbResult<PageId> {
        let at = self.pages.append(&ZERO_BLOCK)?;
        self.metrics.allocations.inc();
        Ok(PageId((at / BLOCK as u64) as u32))
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        (self.pages.len() / BLOCK as u64) as u32
    }

    /// Read a page into `buf`. Verifies the page checksum where the
    /// block lies; a mismatch (torn write, bit rot) is reported as
    /// [`DbError::Corruption`] and `buf` is left untouched.
    pub fn read(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        let shot = self.fire(FaultSite::DiskRead);
        let at = self.block_at(id, "read")?;
        match shot {
            Some((FaultKind::ReadError, _)) => {
                return Err(DbError::Storage(format!("injected I/O error reading page {id}")));
            }
            Some((FaultKind::BitFlip, entropy)) => {
                // Persistent bit rot: the stored data is damaged, not
                // just this read's copy (the checksum field is not).
                let bit = (entropy % (PAGE_SIZE as u64 * 8)) as usize;
                let at = at + (HEADER + bit / 8) as u64;
                let mut byte = 0;
                self.pages.read_at(at, 1, &mut |b| byte = b[0])?;
                self.pages.write_at(at, 1, &mut |b| b[0] = byte ^ (1 << (bit % 8)))?;
            }
            _ => {}
        }
        let mut ok = false;
        let mut copy = |b: &[u8]| ok = intact(b).map(|data| buf.copy_from_slice(data)).is_some();
        self.pages.read_at(at, BLOCK, &mut copy)?;
        if !ok {
            return Err(DbError::Corruption(format!("checksum mismatch reading page {id}")));
        }
        self.metrics.reads.inc();
        Ok(())
    }

    /// Write `buf` to a page, its checksum with it.
    pub fn write(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        let shot = self.fire(FaultSite::DiskWrite);
        let at = self.block_at(id, "write")?;
        match shot {
            Some((FaultKind::WriteError, _)) => {
                return Err(DbError::Storage(format!("injected I/O error writing page {id}")));
            }
            Some((FaultKind::TornWrite, entropy)) => {
                // Persist a data prefix, fail, and leave the checksum
                // stale — the next read of this page reports Corruption.
                let prefix = 1 + (entropy % (PAGE_SIZE as u64 - 1)) as usize;
                let torn = &buf[..prefix];
                self.pages.write_at(at + HEADER as u64, prefix, &mut |d| d.copy_from_slice(torn))?;
                return Err(DbError::Storage(format!(
                    "injected torn write on page {id}: {prefix} of {PAGE_SIZE} bytes persisted"
                )));
            }
            _ => {}
        }
        // The data first, then its checksum: computing it while the
        // copy's stores drain hides their latency.
        self.pages.write_at(at, BLOCK, &mut |block| {
            let (head, data) = block.split_at_mut(HEADER);
            data.copy_from_slice(buf);
            head.copy_from_slice(&header(buf));
        })?;
        self.metrics.writes.inc();
        Ok(())
    }

    /// Is the stored page internally consistent (checksum matches)?
    /// Never consults the fault injector — this is recovery's damage
    /// probe, not an I/O path.
    pub fn verify(&self, id: PageId) -> DbResult<bool> {
        let mut ok = false;
        self.pages.read_at(self.block_at(id, "verify")?, BLOCK, &mut |b| ok = intact(b).is_some())?;
        Ok(ok)
    }

    /// Durability barrier for page writes.
    pub fn sync(&self) -> DbResult<()> {
        self.pages.sync()
    }

    /// The log: an append-only byte store the WAL writes its stable
    /// frames to. Faults never fire here; the WAL injects its own.
    pub fn log(&self) -> &dyn ByteStore {
        &*self.log
    }

    /// Snapshot the I/O counters.
    pub fn stats(&self) -> DiskStats {
        self.metrics.snapshot()
    }
}

impl std::fmt::Debug for PageDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageDevice")
            .field("pages", &self.page_count())
            .field("log_bytes", &self.log.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_block_is_a_zeroed_page_under_its_checksum() {
        assert_eq!(intact(&ZERO_BLOCK), Some(&[0; PAGE_SIZE][..]));
    }
}
