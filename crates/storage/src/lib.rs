//! The storage substrate for orion: the page device, buffer management,
//! slotted pages, heap files, write-ahead logging, and crash recovery.
//!
//! The paper requires that an OODB "supports all the database features
//! found in conventional database systems" (§3.1, requirement 2) —
//! durability and recovery included — and singles out *physical
//! clustering* as one of the components needing new architectural
//! techniques (§4.2). This crate provides:
//!
//! * [`PageDevice`] — the durable medium: a page-addressed disk with
//!   per-page checksums, read/write accounting and the page faults,
//!   plus a log, each over a [`ByteStore`]. Substitution note (see
//!   DESIGN.md): the paper's claims about clustering and indexing are
//!   claims about I/O counts and locality, which the accounting
//!   captures exactly; a spinning 1990 disk would only scale the
//!   constants.
//! * [`store`] — the two byte-store media: [`MemStore`] in memory (the
//!   default device, [`PageDevice::new`]) and [`FileStore`] in a file with
//!   real `fsync` (the device over a directory, [`FileDisk::open`], so
//!   a database survives process exit).
//! * [`slotted`] — the slotted-page record layout with per-page LSNs.
//! * [`BufferPool`] — an exact-LRU buffer cache (the victim found in
//!   O(1) through a recency list over its frames; a miss at capacity
//!   reads into a spare page the pool owns and allocates nothing) with
//!   dirty tracking, a write-ahead hook (no page leaves the pool before
//!   its log does), and hit/miss/eviction counters (experiment E10
//!   reads these).
//! * [`HeapFile`] — record storage with free-space tracking and
//!   placement hints for composite-object clustering.
//! * [`frame`] — the checksummed `len | crc32 | body` frame of every
//!   on-disk log (the WAL and the 2PC decision log) and the one scanner
//!   that reads such a log back, torn tail vs. damaged interior.
//! * [`Wal`] / [`StorageEngine`] — logical (slot-granular) logging with
//!   redo/undo restart recovery, quiescent checkpoints, and a `crash()`
//!   test hook that drops all volatile state (experiment E13).
//! * [`fault`] — a deterministic, seeded fault-injection subsystem
//!   (I/O errors, torn writes, bit flips, partial WAL flushes) wired
//!   into the disk and the log, plus the CRC-32 used for page checksums
//!   and WAL record framing (a carry-less-multiply kernel where the CPU
//!   has `pclmulqdq`, slice-by-8 elsewhere; the same checksums either
//!   way). Recovery is hardened against everything
//!   the injector can produce.

pub mod buffer;
pub mod device;
pub mod engine;
pub mod fault;
pub mod frame;
pub mod heap;
pub mod slotted;
pub mod store;
pub mod wal;

pub use buffer::{BufferPool, PoolStats};
pub use device::{DiskStats, FileDisk, PageDevice, PageId, PAGE_SIZE};
pub use engine::{Records, RecoveryStats, SlotRead, StorageEngine, TxnId};
pub use fault::{crc32, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultStats, Trigger};
pub use heap::{HeapFile, Rid};
pub use store::{ByteStore, FileStore, LogBytes, MemStore};
pub use wal::{LogRecord, Lsn, Wal, WalStats};
