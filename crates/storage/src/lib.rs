//! The storage substrate for orion: simulated disk, buffer management,
//! slotted pages, heap files, write-ahead logging, and crash recovery.
//!
//! The paper requires that an OODB "supports all the database features
//! found in conventional database systems" (§3.1, requirement 2) —
//! durability and recovery included — and singles out *physical
//! clustering* as one of the components needing new architectural
//! techniques (§4.2). This crate provides:
//!
//! * [`StorageBackend`] — the block-granularity device contract
//!   (page read/write/allocate plus a raw log device with explicit
//!   durability barriers). Two implementations ship: [`SimDisk`] and
//!   [`FileDisk`].
//! * [`SimDisk`] — a page-addressed simulated disk with read/write
//!   accounting. Substitution note (see DESIGN.md): the paper's claims
//!   about clustering and indexing are claims about I/O counts and
//!   locality, which the accounting captures exactly; a spinning 1990
//!   disk would only scale the constants.
//! * [`FileDisk`] — the same contract over real files (`std::fs`) with
//!   real `fsync`, so a database survives process exit.
//! * [`slotted`] — the slotted-page record layout with per-page LSNs.
//! * [`BufferPool`] — an LRU buffer cache with dirty tracking, a
//!   write-ahead hook (no page leaves the pool before its log does), and
//!   hit/miss/eviction counters (experiment E10 reads these).
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
//!   into the disk and the log, plus the CRC32 used for page checksums
//!   and WAL record framing. Recovery is hardened against everything
//!   the injector can produce.

pub mod backend;
pub mod buffer;
pub mod disk;
pub mod engine;
pub mod fault;
pub mod frame;
pub mod heap;
pub mod slotted;
pub mod wal;

pub use backend::{FileDisk, LogBytes, StorageBackend};
pub use buffer::{BufferPool, PoolStats};
pub use disk::{DiskStats, PageId, SimDisk, PAGE_SIZE};
pub use engine::{Records, RecoveryStats, SlotRead, StorageEngine, TxnId};
pub use fault::{crc32, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultStats, Trigger};
pub use heap::{HeapFile, Rid};
pub use wal::{LogRecord, Lsn, Wal, WalStats};
