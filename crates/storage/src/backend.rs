//! The storage-backend abstraction: a page device plus an append-only
//! log device behind one trait, so the engine runs unchanged over the
//! simulated disk or a real file system.
//!
//! The durability contract (the Qinhuai fsync/torn-write assumptions
//! that the PR-5 CRC framing already meets):
//!
//! * **Pages** are written as whole blocks; a write may *tear* (persist
//!   a prefix), but the per-page checksum sidecar makes the tear
//!   detectable as [`DbError::Corruption`] on the next read. `sync` is
//!   the durability barrier for page writes.
//! * **The log device** is byte-addressed and append-only; `log_sync`
//!   is the durability barrier (the real `fsync` in [`FileDisk`]). A
//!   crash may leave a torn suffix, which the WAL's frame CRCs detect
//!   and truncate — the log interior is never silently damaged.
//! * `verify` never consults the fault injector: it is recovery's
//!   damage probe, not an I/O path.
//!
//! [`FileDisk`] stores pages in `pages.dat` as fixed blocks of
//! `[crc32 | reserved | PAGE_SIZE data]` — the checksum sidecar is part
//! of the block, written in the same syscall, and left stale by a torn
//! write exactly like [`SimDisk`]'s — and the log in `wal.log` as the
//! raw framed bytes the WAL hands it.

use crate::disk::{DiskMetrics, DiskStats, PageId, SimDisk, PAGE_SIZE};
use crate::fault::{crc32, FaultInjector, FaultKind, FaultSite};
use orion_types::{DbError, DbResult};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A durable medium: a page-addressed block device plus an append-only
/// byte-addressed log device, with explicit durability barriers.
///
/// Implementations: [`SimDisk`] (in-memory, fault-injectable, "durable"
/// across simulated crashes) and [`FileDisk`] (`std::fs` with real
/// `fsync`). The engine, buffer pool, and WAL only ever see this trait.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    // -- page device -------------------------------------------------

    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&self) -> DbResult<PageId>;

    /// Number of allocated pages.
    fn page_count(&self) -> u32;

    /// Read a page into `buf`, verifying its checksum; a mismatch (torn
    /// write, bit rot) is [`DbError::Corruption`] and `buf` is left
    /// untouched.
    fn read(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()>;

    /// Write `buf` to a page, updating its checksum on completion.
    fn write(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()>;

    /// Is the stored page internally consistent (checksum matches)?
    /// Never consults the fault injector.
    fn verify(&self, id: PageId) -> DbResult<bool>;

    /// Durability barrier for page writes (fsync of the page file).
    fn sync(&self) -> DbResult<()>;

    // -- log device --------------------------------------------------

    /// Append raw bytes to the log device (already CRC-framed by the
    /// WAL). Durable only after the next [`StorageBackend::log_sync`].
    fn log_append(&self, bytes: &[u8]) -> DbResult<()>;

    /// Durability barrier for the log device (the real fsync).
    fn log_sync(&self) -> DbResult<()>;

    /// Current byte length of the log device.
    fn log_len(&self) -> DbResult<u64>;

    /// Lend the entire log device for one read (restart: the WAL
    /// parses the frames where they lie and keeps no copy).
    fn log_read(&self) -> DbResult<LogBytes<'_>>;

    /// Truncate the log device to `len` bytes (torn-tail repair; the
    /// WAL immediately re-appends a pad frame over the gap).
    fn log_truncate(&self, len: u64) -> DbResult<()>;

    // -- shared plumbing ---------------------------------------------

    /// Install (or with `None`, remove) a fault injector consulted on
    /// page reads and writes.
    fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>);

    /// Snapshot the I/O counters.
    fn stats(&self) -> DiskStats;
}

/// The log device's bytes, on loan from [`StorageBackend::log_read`].
#[derive(Debug)]
pub enum LogBytes<'a> {
    /// Borrowed where they lie, under the device's lock: appends wait
    /// until the loan is dropped.
    Lent(MutexGuard<'a, Vec<u8>>),
    /// Read from a file into a buffer the loan owns.
    Read(Vec<u8>),
}

impl std::ops::Deref for LogBytes<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            LogBytes::Lent(guard) => guard,
            LogBytes::Read(bytes) => bytes,
        }
    }
}

impl<T: AsRef<[u8]>> PartialEq<T> for LogBytes<'_> {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl StorageBackend for SimDisk {
    fn allocate(&self) -> DbResult<PageId> {
        Ok(SimDisk::allocate(self))
    }

    fn page_count(&self) -> u32 {
        SimDisk::page_count(self)
    }

    fn read(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        SimDisk::read(self, id, buf)
    }

    fn write(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        SimDisk::write(self, id, buf)
    }

    fn verify(&self, id: PageId) -> DbResult<bool> {
        SimDisk::verify(self, id)
    }

    fn sync(&self) -> DbResult<()> {
        Ok(()) // memory is "durable" the moment the write lands
    }

    fn log_append(&self, bytes: &[u8]) -> DbResult<()> {
        self.log.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn log_sync(&self) -> DbResult<()> {
        Ok(())
    }

    fn log_len(&self) -> DbResult<u64> {
        Ok(self.log.lock().len() as u64)
    }

    fn log_read(&self) -> DbResult<LogBytes<'_>> {
        Ok(LogBytes::Lent(self.log.lock()))
    }

    fn log_truncate(&self, len: u64) -> DbResult<()> {
        self.log.lock().truncate(len as usize);
        Ok(())
    }

    fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        SimDisk::set_fault_injector(self, injector)
    }

    fn stats(&self) -> DiskStats {
        SimDisk::stats(self)
    }
}

/// Bytes per on-disk page block: checksum sidecar + reserved + data.
const BLOCK_HEADER: u64 = 8;
const BLOCK_SIZE: u64 = BLOCK_HEADER + PAGE_SIZE as u64;

fn io_err(ctx: &str, e: std::io::Error) -> DbError {
    DbError::Storage(format!("{ctx}: {e}"))
}

/// A real-file storage backend: pages in `<dir>/pages.dat`, the log in
/// `<dir>/wal.log`, durability barriers via `File::sync_data`.
///
/// Fault-injection semantics mirror [`SimDisk`] exactly — a torn write
/// persists a data prefix and leaves the stored checksum stale, bit rot
/// damages the stored block persistently — so the chaos suite runs
/// unchanged over real files.
pub struct FileDisk {
    dir: PathBuf,
    pages: Mutex<File>,
    page_count: AtomicU32,
    log: Mutex<File>,
    log_bytes: AtomicU64,
    faults: RwLock<Option<Arc<FaultInjector>>>,
    metrics: DiskMetrics,
}

impl FileDisk {
    /// Open (creating if needed) a file-backed disk rooted at `dir`.
    /// A trailing partial page block — a crash mid-allocation — is
    /// trimmed away; the WAL handles its own torn tail.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err(&format!("creating {}", dir.display()), e))?;
        let pages_path = dir.join("pages.dat");
        let pages = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&pages_path)
            .map_err(|e| io_err(&format!("opening {}", pages_path.display()), e))?;
        let len = pages.metadata().map_err(|e| io_err("stat pages.dat", e))?.len();
        let count = len / BLOCK_SIZE;
        if len != count * BLOCK_SIZE {
            pages
                .set_len(count * BLOCK_SIZE)
                .map_err(|e| io_err("trimming torn page block", e))?;
        }
        let log_path = dir.join("wal.log");
        let log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(|e| io_err(&format!("opening {}", log_path.display()), e))?;
        let log_bytes = log.metadata().map_err(|e| io_err("stat wal.log", e))?.len();
        Ok(FileDisk {
            dir,
            pages: Mutex::new(pages),
            page_count: AtomicU32::new(count as u32),
            log: Mutex::new(log),
            log_bytes: AtomicU64::new(log_bytes),
            faults: RwLock::new(None),
            metrics: DiskMetrics::default(),
        })
    }

    /// The directory this disk lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read_block(file: &mut File, id: PageId) -> DbResult<(u32, Box<[u8; PAGE_SIZE]>)> {
        file.seek(SeekFrom::Start(id.0 as u64 * BLOCK_SIZE))
            .map_err(|e| io_err(&format!("seeking page {id}"), e))?;
        let mut header = [0u8; BLOCK_HEADER as usize];
        file.read_exact(&mut header).map_err(|e| io_err(&format!("reading page {id}"), e))?;
        let crc = u32::from_le_bytes(header[..4].try_into().unwrap());
        let mut data = Box::new([0u8; PAGE_SIZE]);
        file.read_exact(&mut data[..]).map_err(|e| io_err(&format!("reading page {id}"), e))?;
        Ok((crc, data))
    }

    fn check_bounds(&self, id: PageId, op: &str) -> DbResult<()> {
        if id.0 >= self.page_count.load(Ordering::Acquire) {
            return Err(DbError::Storage(format!("{op} of unallocated page {id}")));
        }
        Ok(())
    }
}

impl StorageBackend for FileDisk {
    fn allocate(&self) -> DbResult<PageId> {
        let mut file = self.pages.lock();
        let count = self.page_count.load(Ordering::Acquire);
        let id = PageId(count);
        let mut block = vec![0u8; BLOCK_SIZE as usize];
        let crc = crc32(&[0u8; PAGE_SIZE]);
        block[..4].copy_from_slice(&crc.to_le_bytes());
        file.seek(SeekFrom::Start(count as u64 * BLOCK_SIZE))
            .map_err(|e| io_err("seeking for allocation", e))?;
        file.write_all(&block).map_err(|e| io_err("allocating page", e))?;
        self.page_count.store(count + 1, Ordering::Release);
        self.metrics.allocations.inc();
        Ok(id)
    }

    fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    fn read(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        let shot = self.faults.read().as_ref().and_then(|f| f.fire(FaultSite::DiskRead));
        self.check_bounds(id, "read")?;
        let mut file = self.pages.lock();
        match shot.map(|s| (s.kind, s.entropy)) {
            Some((FaultKind::ReadError, _)) => {
                return Err(DbError::Storage(format!("injected I/O error reading page {id}")));
            }
            Some((FaultKind::BitFlip, entropy)) => {
                // Persistent bit rot: damage the stored data (the
                // checksum field is untouched, so reads now mismatch).
                let bit = (entropy % (PAGE_SIZE as u64 * 8)) as usize;
                let off = id.0 as u64 * BLOCK_SIZE + BLOCK_HEADER + (bit / 8) as u64;
                let mut byte = [0u8; 1];
                file.seek(SeekFrom::Start(off)).map_err(|e| io_err("seeking for bit flip", e))?;
                file.read_exact(&mut byte).map_err(|e| io_err("reading for bit flip", e))?;
                byte[0] ^= 1 << (bit % 8);
                file.seek(SeekFrom::Start(off)).map_err(|e| io_err("seeking for bit flip", e))?;
                file.write_all(&byte).map_err(|e| io_err("writing bit flip", e))?;
            }
            _ => {}
        }
        let (crc, data) = Self::read_block(&mut file, id)?;
        if crc32(&data[..]) != crc {
            return Err(DbError::Corruption(format!("checksum mismatch reading page {id}")));
        }
        buf.copy_from_slice(&data[..]);
        self.metrics.reads.inc();
        Ok(())
    }

    fn write(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        let shot = self.faults.read().as_ref().and_then(|f| f.fire(FaultSite::DiskWrite));
        self.check_bounds(id, "write")?;
        let mut file = self.pages.lock();
        match shot.map(|s| (s.kind, s.entropy)) {
            Some((FaultKind::WriteError, _)) => {
                return Err(DbError::Storage(format!("injected I/O error writing page {id}")));
            }
            Some((FaultKind::TornWrite, entropy)) => {
                // Persist a data prefix, fail, and leave the stored
                // checksum stale — the next read reports Corruption.
                let prefix = 1 + (entropy % (PAGE_SIZE as u64 - 1)) as usize;
                file.seek(SeekFrom::Start(id.0 as u64 * BLOCK_SIZE + BLOCK_HEADER))
                    .map_err(|e| io_err("seeking torn write", e))?;
                file.write_all(&buf[..prefix]).map_err(|e| io_err("torn write", e))?;
                return Err(DbError::Storage(format!(
                    "injected torn write on page {id}: {prefix} of {PAGE_SIZE} bytes persisted"
                )));
            }
            _ => {}
        }
        let mut block = Vec::with_capacity(BLOCK_SIZE as usize);
        block.extend_from_slice(&crc32(buf).to_le_bytes());
        block.extend_from_slice(&0u32.to_le_bytes());
        block.extend_from_slice(buf);
        file.seek(SeekFrom::Start(id.0 as u64 * BLOCK_SIZE))
            .map_err(|e| io_err(&format!("seeking page {id}"), e))?;
        file.write_all(&block).map_err(|e| io_err(&format!("writing page {id}"), e))?;
        self.metrics.writes.inc();
        Ok(())
    }

    fn verify(&self, id: PageId) -> DbResult<bool> {
        self.check_bounds(id, "verify")?;
        let mut file = self.pages.lock();
        let (crc, data) = Self::read_block(&mut file, id)?;
        Ok(crc32(&data[..]) == crc)
    }

    fn sync(&self) -> DbResult<()> {
        self.pages.lock().sync_data().map_err(|e| io_err("fsync pages.dat", e))
    }

    fn log_append(&self, bytes: &[u8]) -> DbResult<()> {
        let mut file = self.log.lock();
        let at = self.log_bytes.load(Ordering::Acquire);
        file.seek(SeekFrom::Start(at)).map_err(|e| io_err("seeking log end", e))?;
        file.write_all(bytes).map_err(|e| io_err("appending to wal.log", e))?;
        self.log_bytes.store(at + bytes.len() as u64, Ordering::Release);
        Ok(())
    }

    fn log_sync(&self) -> DbResult<()> {
        self.log.lock().sync_data().map_err(|e| io_err("fsync wal.log", e))
    }

    fn log_len(&self) -> DbResult<u64> {
        Ok(self.log_bytes.load(Ordering::Acquire))
    }

    fn log_read(&self) -> DbResult<LogBytes<'_>> {
        let mut file = self.log.lock();
        let len = self.log_bytes.load(Ordering::Acquire) as usize;
        let mut out = vec![0u8; len];
        file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seeking log start", e))?;
        file.read_exact(&mut out).map_err(|e| io_err("reading wal.log", e))?;
        Ok(LogBytes::Read(out))
    }

    fn log_truncate(&self, len: u64) -> DbResult<()> {
        let file = self.log.lock();
        file.set_len(len).map_err(|e| io_err("truncating wal.log", e))?;
        self.log_bytes.store(len, Ordering::Release);
        Ok(())
    }

    fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write() = injector;
    }

    fn stats(&self) -> DiskStats {
        self.metrics.snapshot()
    }
}

impl std::fmt::Debug for FileDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDisk")
            .field("dir", &self.dir)
            .field("pages", &self.page_count())
            .field("stats", &StorageBackend::stats(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::atomic::AtomicU64 as TestCounter;

    static DIR_SEQ: TestCounter = TestCounter::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "orion-filedisk-{tag}-{}-{n}",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let _guard = Cleanup(dir.clone());
        let disk = FileDisk::open(&dir).unwrap();
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_eq!((a, b), (PageId(0), PageId(1)));
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write(b, &buf).unwrap();
        disk.sync().unwrap();
        disk.log_append(b"hello log").unwrap();
        disk.log_sync().unwrap();
        drop(disk);
        // A fresh handle over the same directory sees everything.
        let disk = FileDisk::open(&dir).unwrap();
        assert_eq!(StorageBackend::page_count(&disk), 2);
        let mut out = [0u8; PAGE_SIZE];
        disk.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
        disk.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        assert_eq!(disk.log_read().unwrap(), b"hello log");
        assert_eq!(disk.log_len().unwrap(), 9);
    }

    #[test]
    fn out_of_bounds_access_is_an_error() {
        let dir = temp_dir("bounds");
        let _guard = Cleanup(dir.clone());
        let disk = FileDisk::open(&dir).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(disk.read(PageId(0), &mut buf).is_err());
        assert!(disk.write(PageId(3), &buf).is_err());
    }

    #[test]
    fn torn_write_persists_prefix_and_corrupts_block() {
        let dir = temp_dir("torn");
        let _guard = Cleanup(dir.clone());
        let disk = FileDisk::open(&dir).unwrap();
        let p = disk.allocate().unwrap();
        disk.write(p, &[1u8; PAGE_SIZE]).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(5).fail_nth(FaultKind::TornWrite, 1)));
        disk.set_fault_injector(Some(inj));
        assert!(disk.write(p, &[2u8; PAGE_SIZE]).is_err());
        disk.set_fault_injector(None);
        let mut buf = [0u8; PAGE_SIZE];
        assert!(
            matches!(disk.read(p, &mut buf), Err(DbError::Corruption(_))),
            "half-old half-new block fails its checksum"
        );
        assert!(!disk.verify(p).unwrap());
        // A completed rewrite heals the block.
        disk.write(p, &[3u8; PAGE_SIZE]).unwrap();
        disk.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3));
    }

    #[test]
    fn bit_flip_is_persistent_corruption() {
        let dir = temp_dir("rot");
        let _guard = Cleanup(dir.clone());
        let disk = FileDisk::open(&dir).unwrap();
        let p = disk.allocate().unwrap();
        disk.write(p, &[9u8; PAGE_SIZE]).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(42).fail_nth(FaultKind::BitFlip, 1)));
        disk.set_fault_injector(Some(inj));
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(disk.read(p, &mut buf), Err(DbError::Corruption(_))));
        disk.set_fault_injector(None);
        // The rot survives reopening the files.
        drop(disk);
        let disk = FileDisk::open(&dir).unwrap();
        assert!(matches!(disk.read(p, &mut buf), Err(DbError::Corruption(_))));
        assert!(!disk.verify(p).unwrap());
    }

    #[test]
    fn log_truncate_and_reappend() {
        let dir = temp_dir("logtrunc");
        let _guard = Cleanup(dir.clone());
        let disk = FileDisk::open(&dir).unwrap();
        disk.log_append(b"abcdef").unwrap();
        disk.log_truncate(3).unwrap();
        disk.log_append(b"XY").unwrap();
        disk.log_sync().unwrap();
        assert_eq!(disk.log_read().unwrap(), b"abcXY");
    }

    #[test]
    fn torn_trailing_allocation_is_trimmed_at_open() {
        let dir = temp_dir("trim");
        let _guard = Cleanup(dir.clone());
        let disk = FileDisk::open(&dir).unwrap();
        disk.allocate().unwrap();
        drop(disk);
        // Simulate a crash mid-allocation: a partial trailing block.
        let path = dir.join("pages.dat");
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(BLOCK_SIZE + 17).unwrap();
        drop(f);
        let disk = FileDisk::open(&dir).unwrap();
        assert_eq!(StorageBackend::page_count(&disk), 1, "partial block trimmed");
    }
}
