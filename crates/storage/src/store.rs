//! Byte stores: the flat, byte-addressed media under the page device
//! and under every log.
//!
//! A store knows nothing of pages, checksums or faults (those are the
//! [`crate::PageDevice`]'s); it holds bytes, and there are two media:
//! [`MemStore`] in memory and [`FileStore`] in a file. Memory is
//! durable the moment a write lands, so its `sync` is free; a file's
//! `sync` is the real `fsync`.

use crate::device::BLOCK;
use orion_types::{DbError, DbResult};
use parking_lot::{Mutex, MutexGuard};
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A byte-addressed medium.
pub trait ByteStore: Send + Sync {
    /// Hand `f` the `len` bytes at `at`: where they lie in memory, or
    /// read from the file into a buffer first. Fails if the range runs
    /// past the end.
    fn read_at(&self, at: u64, len: usize, f: &mut dyn FnMut(&[u8])) -> DbResult<()>;

    /// Overwrite the `len` bytes at `at` with what `f` writes into the
    /// slice it is handed: in place in memory, or into a buffer that
    /// then goes to the file in one write. `f` must write every byte,
    /// since what the slice holds before is the medium's business. The
    /// range must lie within the store.
    fn write_at(&self, at: u64, len: usize, f: &mut dyn FnMut(&mut [u8])) -> DbResult<()>;

    /// Add `bytes` at the end, returning the offset they start at.
    fn append(&self, bytes: &[u8]) -> DbResult<u64>;

    /// The store's length in bytes.
    fn len(&self) -> u64;

    /// Does the store hold no bytes?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cut the store to its first `len` bytes.
    fn truncate(&self, len: u64) -> DbResult<()>;

    /// Durability barrier: every byte written so far survives a crash.
    fn sync(&self) -> DbResult<()>;

    /// Lend every byte for one read (a log's replay parses the frames
    /// where they lie and keeps no copy).
    fn lend(&self) -> DbResult<LogBytes<'_>>;
}

/// A store's bytes, on loan from [`ByteStore::lend`].
#[derive(Debug)]
pub enum LogBytes<'a> {
    /// Borrowed where they lie, under a memory store's lock: appends
    /// wait until the loan is dropped.
    Lent(MutexGuard<'a, Vec<Vec<u8>>>),
    /// Read into a buffer the loan owns.
    Read(Vec<u8>),
}

impl std::ops::Deref for LogBytes<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            LogBytes::Lent(chunks) => chunks.first().map_or(&[], Vec::as_slice),
            LogBytes::Read(bytes) => bytes,
        }
    }
}

/// Does `len` bytes at `at` lie within a store of `size` bytes?
fn check(at: u64, len: usize, size: u64, op: &str) -> DbResult<()> {
    match at.checked_add(len as u64) {
        Some(end) if end <= size => Ok(()),
        _ => Err(DbError::Storage(format!("{op} of {len} bytes at {at} past the end ({size})"))),
    }
}

/// Bytes in memory, in chunks of at most `chunk` bytes, each its own
/// allocation. A page store takes one chunk per block, so it grows a
/// block at a time and never moves what it holds; a log is one chunk,
/// which it lends whole. A read or write stays within one chunk.
pub struct MemStore {
    chunk: u64,
    /// Every chunk but the last is full.
    chunks: Mutex<Vec<Vec<u8>>>,
    /// Mirrors the chunks' total length; written under their lock.
    len: AtomicU64,
}

impl MemStore {
    /// An empty store of one growable chunk (a log).
    pub fn flat() -> Self {
        Self::chunked(u64::MAX)
    }

    /// An empty store that allocates `chunk` bytes at a time.
    pub fn chunked(chunk: u64) -> Self {
        MemStore { chunk, chunks: Mutex::default(), len: AtomicU64::new(0) }
    }

    /// Which chunk holds byte `at`, and where in it.
    fn locate(&self, at: u64) -> (usize, usize) {
        ((at / self.chunk) as usize, (at % self.chunk) as usize)
    }

    /// The chunk holding the `len` bytes at `at`, and their range in it.
    fn within(&self, at: u64, len: usize, op: &str) -> DbResult<(usize, Range<usize>)> {
        check(at, len, self.len(), op)?;
        let (i, o) = self.locate(at);
        check(o as u64, len, self.chunk, op)?; // within one chunk
        Ok((i, o..o + len))
    }
}

impl ByteStore for MemStore {
    fn read_at(&self, at: u64, len: usize, f: &mut dyn FnMut(&[u8])) -> DbResult<()> {
        let chunks = self.chunks.lock();
        let (i, range) = self.within(at, len, "read")?;
        f(chunks.get(i).map_or(&[], |c| &c[range]));
        Ok(())
    }

    fn write_at(&self, at: u64, len: usize, f: &mut dyn FnMut(&mut [u8])) -> DbResult<()> {
        let mut chunks = self.chunks.lock();
        let (i, range) = self.within(at, len, "write")?;
        f(chunks.get_mut(i).map_or(&mut [], |c| &mut c[range]));
        Ok(())
    }

    fn append(&self, bytes: &[u8]) -> DbResult<u64> {
        let mut chunks = self.chunks.lock();
        let at = self.len();
        let mut rest = bytes;
        while !rest.is_empty() {
            match chunks.last_mut().filter(|c| (c.len() as u64) < self.chunk) {
                Some(last) => {
                    let n = (self.chunk - last.len() as u64).min(rest.len() as u64) as usize;
                    last.extend_from_slice(&rest[..n]);
                    rest = &rest[n..];
                }
                None => chunks.push(Vec::with_capacity(self.chunk.min(rest.len() as u64) as usize)),
            }
        }
        self.len.store(at + bytes.len() as u64, Ordering::Release);
        Ok(at)
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn truncate(&self, len: u64) -> DbResult<()> {
        let mut chunks = self.chunks.lock();
        check(len, 0, self.len(), "truncate")?;
        let (i, o) = self.locate(len);
        chunks.truncate(i + usize::from(o > 0));
        if o > 0 {
            chunks[i].truncate(o);
        }
        self.len.store(len, Ordering::Release);
        Ok(())
    }

    fn sync(&self) -> DbResult<()> {
        Ok(()) // memory is "durable" the moment the write lands
    }

    fn lend(&self) -> DbResult<LogBytes<'_>> {
        let chunks = self.chunks.lock();
        Ok(if chunks.len() > 1 { LogBytes::Read(chunks.concat()) } else { LogBytes::Lent(chunks) })
    }
}

/// `len` bytes of `stack`, or of `heap` grown to them when `stack` is
/// too short.
fn buffer<'a>(stack: &'a mut [u8; BLOCK], heap: &'a mut Vec<u8>, len: usize) -> &'a mut [u8] {
    match stack.get_mut(..len) {
        Some(bytes) => bytes,
        None => {
            heap.resize(len, 0);
            heap
        }
    }
}

/// A file, read and written with positioned I/O: every call is one
/// syscall, and readers never wait for one another.
pub struct FileStore {
    file: File,
    name: String,
    /// The file's length; moved only under `resize`.
    len: AtomicU64,
    /// Serializes appends and truncation, which move the end.
    resize: Mutex<()>,
}

impl FileStore {
    /// Open `path`, creating an empty file if there is none.
    pub fn open(path: impl AsRef<Path>) -> DbResult<Self> {
        let path = path.as_ref();
        let name = path.display().to_string();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| DbError::Storage(format!("opening {name}: {e}")))?;
        let len = file.metadata().map_err(|e| DbError::Storage(format!("stat {name}: {e}")))?.len();
        Ok(FileStore { file, name, len: AtomicU64::new(len), resize: Mutex::new(()) })
    }

    fn err(&self, op: &str, e: std::io::Error) -> DbError {
        DbError::Storage(format!("{op} {}: {e}", self.name))
    }
}

impl ByteStore for FileStore {
    fn read_at(&self, at: u64, len: usize, f: &mut dyn FnMut(&[u8])) -> DbResult<()> {
        check(at, len, self.len(), "read")?;
        // One positioned read into a buffer on the stack (on the heap
        // past a page block).
        let (mut stack, mut heap) = ([0; BLOCK], Vec::new());
        let bytes = buffer(&mut stack, &mut heap, len);
        self.file.read_exact_at(bytes, at).map_err(|e| self.err("reading", e))?;
        f(bytes);
        Ok(())
    }

    fn write_at(&self, at: u64, len: usize, f: &mut dyn FnMut(&mut [u8])) -> DbResult<()> {
        check(at, len, self.len(), "write")?;
        // One positioned write from a buffer on the stack (on the heap
        // past a page block).
        let (mut stack, mut heap) = ([0; BLOCK], Vec::new());
        let bytes = buffer(&mut stack, &mut heap, len);
        f(bytes);
        self.file.write_all_at(bytes, at).map_err(|e| self.err("writing", e))
    }

    fn append(&self, bytes: &[u8]) -> DbResult<u64> {
        let _end = self.resize.lock();
        let at = self.len();
        self.file.write_all_at(bytes, at).map_err(|e| self.err("appending to", e))?;
        self.len.store(at + bytes.len() as u64, Ordering::Release);
        Ok(at)
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn truncate(&self, len: u64) -> DbResult<()> {
        let _end = self.resize.lock();
        check(len, 0, self.len(), "truncate")?;
        self.file.set_len(len).map_err(|e| self.err("truncating", e))?;
        self.len.store(len, Ordering::Release);
        Ok(())
    }

    fn sync(&self) -> DbResult<()> {
        self.file.sync_data().map_err(|e| self.err("fsync", e))
    }

    fn lend(&self) -> DbResult<LogBytes<'_>> {
        let _end = self.resize.lock();
        let mut bytes = vec![0; self.len() as usize];
        self.file.read_exact_at(&mut bytes, 0).map_err(|e| self.err("reading", e))?;
        Ok(LogBytes::Read(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(store: &dyn ByteStore, at: u64, len: usize) -> DbResult<Vec<u8>> {
        let mut out = Vec::new();
        store.read_at(at, len, &mut |b| out.extend_from_slice(b))?;
        Ok(out)
    }

    /// The page store's chunking is invisible to its bytes: appends fill
    /// the last chunk before starting one, truncation may end mid-chunk,
    /// and only a range across a boundary is refused.
    #[test]
    fn a_chunked_store_holds_the_same_bytes_as_a_flat_one() {
        let (chunked, flat) = (MemStore::chunked(4), MemStore::flat());
        for store in [&chunked as &dyn ByteStore, &flat] {
            assert_eq!(store.append(b"abcdef").unwrap(), 0);
            store.truncate(5).unwrap();
            assert_eq!(store.append(b"XYZ").unwrap(), 5);
            store.write_at(4, 1, &mut |b| b.copy_from_slice(b"Q")).unwrap();
            assert_eq!(store.len(), 8);
            assert_eq!(&*store.lend().unwrap(), b"abcdQXYZ");
            assert_eq!(read(store, 4, 4).unwrap(), b"QXYZ");
            assert!(read(store, 6, 3).is_err(), "past the end");
            assert!(store.write_at(8, 1, &mut |_| ()).is_err(), "writes never grow the store");
        }
        assert_eq!(chunked.chunks.lock().len(), 2);
        assert!(read(&chunked, 3, 2).is_err(), "crosses a chunk boundary");
        assert_eq!(read(&flat, 3, 2).unwrap(), b"dQ");
    }
}
