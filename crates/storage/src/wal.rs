//! Write-ahead logging.
//!
//! The log is logical at slot granularity: records name a record id
//! (`page`, `slot`) and carry the slot's byte images, not page images.
//! The stable log lives in the device's log store and nowhere else —
//! the WAL keeps its length, not its bytes; the `tail` is the in-memory
//! log buffer, which a crash discards. `flush` (called on commit and by
//! the buffer pool's write-ahead hook) appends the tail to the device
//! and syncs it.
//!
//! Every record is one [`crate::frame`] (`len (u32) | crc32 (u32) |
//! body`), so a torn or rotted record is *detected*, never replayed as
//! garbage. Reading the stable log applies the frame scanner's ARIES
//! tail discipline: a torn or CRC-invalid record with nothing valid
//! after it marks end-of-log and is truncated away (the padded gap keeps
//! LSNs monotone — see [`LogRecord::Pad`]); a corrupt record *followed
//! by* valid records means the log interior is damaged, which is
//! unrecoverable and reported as [`DbError::Corruption`].
//!
//! A partial flush (injected via [`crate::fault`]) promotes only part of
//! the tail and fails; the remainder stays buffered, so the log heals on
//! the next successful flush — unless a crash intervenes, which is
//! exactly the torn-tail case above. The write-ahead hook
//! [`Wal::flush_to`] compares against the *record-complete* stable
//! length, so a page whose log record is only half-stable is never
//! written to disk.
//!
//! Rollback uses ARIES-style compensation: undoing an operation appends
//! a [`LogRecord::Clr`] naming the LSN it compensates, so that restart
//! recovery never undoes the same operation twice even if the crash hits
//! mid-rollback.

use crate::device::PageDevice;
use crate::fault::{FaultInjector, FaultKind, FaultSite};
use crate::frame::{frame_end, put_frame, scan, FRAME_HEADER};
use crate::heap::Rid;
use orion_obs::SpanTimer;
use orion_types::wire::{get_bytes, get_u16, get_u32, get_u64, get_u8, put_bytes, retag};
use orion_types::{DbError, DbResult};
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BufMut;

/// A log sequence number: the byte offset of a record's start in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

/// The physical action a compensation record applies.
#[derive(Debug, Clone, PartialEq)]
pub enum ClrAction {
    /// Re-insert `bytes` at `rid` (compensates a delete).
    ReInsert {
        /// Target record id.
        rid: Rid,
        /// The before-image being restored.
        bytes: Vec<u8>,
    },
    /// Overwrite `rid` with `bytes` (compensates an update).
    Overwrite {
        /// Target record id.
        rid: Rid,
        /// The before-image being restored.
        bytes: Vec<u8>,
    },
    /// Remove the record at `rid` (compensates an insert).
    Remove {
        /// Target record id.
        rid: Rid,
    },
}

/// A write-ahead log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A record was inserted.
    Insert {
        /// Transaction id.
        txn: u64,
        /// Where the record landed.
        rid: Rid,
        /// The record bytes (redo image).
        bytes: Vec<u8>,
    },
    /// A record was overwritten in place.
    Update {
        /// Transaction id.
        txn: u64,
        /// The record id.
        rid: Rid,
        /// Before-image (undo).
        before: Vec<u8>,
        /// After-image (redo).
        after: Vec<u8>,
    },
    /// A record was deleted.
    Delete {
        /// Transaction id.
        txn: u64,
        /// The record id.
        rid: Rid,
        /// Before-image (undo).
        before: Vec<u8>,
    },
    /// Transaction committed (forced to stable storage).
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Transaction fully rolled back.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Two-phase commit: every effect of the transaction is logged
    /// before this record, and the record itself is forced, so the
    /// participant can no longer abort unilaterally. The outcome
    /// arrives later as a [`LogRecord::Commit`] or [`LogRecord::Abort`]
    /// from the coordinator; until then restart recovery reinstates the
    /// transaction as *in doubt* instead of undoing it.
    Prepare {
        /// Transaction id.
        txn: u64,
    },
    /// Compensation: `action` undoes the operation logged at
    /// `compensates`.
    Clr {
        /// Transaction id.
        txn: u64,
        /// LSN of the operation this record compensates.
        compensates: u64,
        /// The physical undo action.
        action: ClrAction,
    },
    /// Quiescent checkpoint: all pages flushed, no transaction active.
    /// Recovery starts scanning here.
    Checkpoint,
    /// Filler spliced over a truncated torn tail. Burning the dead bytes
    /// as a real record keeps LSNs monotone — an offset that once named
    /// a (now truncated) record is never handed out again, so page LSNs
    /// stamped before the crash can never shadow future records.
    Pad,
}

impl LogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<u64> {
        match self {
            LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Prepare { txn }
            | LogRecord::Clr { txn, .. } => Some(*txn),
            LogRecord::Checkpoint | LogRecord::Pad => None,
        }
    }
}

fn put_rid(out: &mut Vec<u8>, rid: Rid) {
    out.put_u32_le(rid.page.0);
    out.put_u16_le(rid.slot);
}

fn get_rid(buf: &mut &[u8]) -> DbResult<Rid> {
    Ok(Rid { page: crate::device::PageId(get_u32(buf)?), slot: get_u16(buf)? })
}

fn get_image(buf: &mut &[u8]) -> DbResult<Vec<u8>> {
    get_bytes(buf).map(<[u8]>::to_vec)
}

// Tag 1 is unused: no record marks a transaction's start.
const T_INSERT: u8 = 2;
const T_UPDATE: u8 = 3;
const T_DELETE: u8 = 4;
const T_COMMIT: u8 = 5;
const T_ABORT: u8 = 6;
const T_CLR: u8 = 7;
const T_CHECKPOINT: u8 = 8;
const T_PAD: u8 = 9;
const T_PREPARE: u8 = 10;
const A_REINSERT: u8 = 1;
const A_OVERWRITE: u8 = 2;
const A_REMOVE: u8 = 3;

fn encode(rec: &LogRecord) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    match rec {
        LogRecord::Insert { txn, rid, bytes } => {
            body.put_u8(T_INSERT);
            body.put_u64_le(*txn);
            put_rid(&mut body, *rid);
            put_bytes(&mut body, bytes);
        }
        LogRecord::Update { txn, rid, before, after } => {
            body.put_u8(T_UPDATE);
            body.put_u64_le(*txn);
            put_rid(&mut body, *rid);
            put_bytes(&mut body, before);
            put_bytes(&mut body, after);
        }
        LogRecord::Delete { txn, rid, before } => {
            body.put_u8(T_DELETE);
            body.put_u64_le(*txn);
            put_rid(&mut body, *rid);
            put_bytes(&mut body, before);
        }
        LogRecord::Commit { txn } => {
            body.put_u8(T_COMMIT);
            body.put_u64_le(*txn);
        }
        LogRecord::Abort { txn } => {
            body.put_u8(T_ABORT);
            body.put_u64_le(*txn);
        }
        LogRecord::Prepare { txn } => {
            body.put_u8(T_PREPARE);
            body.put_u64_le(*txn);
        }
        LogRecord::Clr { txn, compensates, action } => {
            body.put_u8(T_CLR);
            body.put_u64_le(*txn);
            body.put_u64_le(*compensates);
            match action {
                ClrAction::ReInsert { rid, bytes } => {
                    body.put_u8(A_REINSERT);
                    put_rid(&mut body, *rid);
                    put_bytes(&mut body, bytes);
                }
                ClrAction::Overwrite { rid, bytes } => {
                    body.put_u8(A_OVERWRITE);
                    put_rid(&mut body, *rid);
                    put_bytes(&mut body, bytes);
                }
                ClrAction::Remove { rid } => {
                    body.put_u8(A_REMOVE);
                    put_rid(&mut body, *rid);
                }
            }
        }
        LogRecord::Checkpoint => {
            body.put_u8(T_CHECKPOINT);
        }
        LogRecord::Pad => {
            body.put_u8(T_PAD);
        }
    }
    let mut framed = Vec::new();
    put_frame(&mut framed, &body);
    framed
}

fn decode(mut body: &[u8]) -> DbResult<LogRecord> {
    if body.is_empty() {
        // A zero-length body is the minimal pad frame (a gap too small
        // to carry even a tag byte).
        return Ok(LogRecord::Pad);
    }
    decode_tagged(&mut body).map_err(retag(DbError::Wal))
}

fn decode_tagged(buf: &mut &[u8]) -> DbResult<LogRecord> {
    Ok(match get_u8(buf)? {
        T_INSERT => {
            LogRecord::Insert { txn: get_u64(buf)?, rid: get_rid(buf)?, bytes: get_image(buf)? }
        }
        T_UPDATE => LogRecord::Update {
            txn: get_u64(buf)?,
            rid: get_rid(buf)?,
            before: get_image(buf)?,
            after: get_image(buf)?,
        },
        T_DELETE => {
            LogRecord::Delete { txn: get_u64(buf)?, rid: get_rid(buf)?, before: get_image(buf)? }
        }
        T_COMMIT => LogRecord::Commit { txn: get_u64(buf)? },
        T_ABORT => LogRecord::Abort { txn: get_u64(buf)? },
        T_PREPARE => LogRecord::Prepare { txn: get_u64(buf)? },
        T_CLR => {
            let txn = get_u64(buf)?;
            let compensates = get_u64(buf)?;
            let action = match get_u8(buf)? {
                A_REINSERT => ClrAction::ReInsert { rid: get_rid(buf)?, bytes: get_image(buf)? },
                A_OVERWRITE => ClrAction::Overwrite { rid: get_rid(buf)?, bytes: get_image(buf)? },
                A_REMOVE => ClrAction::Remove { rid: get_rid(buf)? },
                other => return Err(DbError::Wal(format!("bad CLR action tag {other}"))),
            };
            LogRecord::Clr { txn, compensates, action }
        }
        T_CHECKPOINT => LogRecord::Checkpoint,
        T_PAD => LogRecord::Pad,
        other => return Err(DbError::Wal(format!("bad log record tag {other}"))),
    })
}

#[derive(Debug)]
struct WalInner {
    /// Byte length of the log device: everything [`Wal::flush`] has
    /// appended and synced. The bytes themselves live there and nowhere
    /// else.
    stable_len: u64,
    /// Length of the longest prefix of the device's log that ends
    /// exactly on a record-frame boundary. Equal to `stable_len` except
    /// after a partial flush, whose cut may land mid-record. The
    /// write-ahead check ([`Wal::flush_to`]) compares against *this*, so
    /// a dirty page is never written while its log record is only
    /// half-stable.
    complete: u64,
    /// The log buffer: whole frames, except that its first `head_rest`
    /// bytes finish a frame a partial flush left half on the device.
    tail: Vec<u8>,
    head_rest: usize,
}

orion_obs::metrics! {
    /// Cumulative WAL counters.
    pub struct WalStats;
    /// The log's live sinks.
    pub(crate) struct WalMetrics;
    /// Records appended to the log buffer.
    appends: counter("orion_wal_appends_total", "Log records appended to the WAL"),
    /// Forces of the log buffer to stable storage.
    flushes: counter("orion_wal_flushes_total", "Non-empty WAL flushes to stable storage"),
    /// Bytes moved into the stable prefix by those flushes.
    flushed_bytes: counter("orion_wal_flushed_bytes_total", "Bytes moved to the stable WAL"),
    /// Latency distribution of non-empty flushes.
    flush_latency: histogram("orion_wal_flush_latency_seconds", "WAL flush latency"),
    /// Torn tails truncated away when reading the stable log (ARIES
    /// end-of-log discipline after a crash mid-flush).
    torn_tail_truncations: counter("orion_wal_torn_tail_truncations_total", "Torn WAL tails truncated at recovery (end-of-log discipline)"),
    /// Durability barriers issued against the log device — real
    /// `fsync`s over a file backend, simulated ones otherwise.
    fsyncs: counter("orion_wal_fsyncs_total", "Durability barriers issued against the log device"),
    /// Logical DML records appended (insert/update/delete and their
    /// compensations).
    logical_records: counter("orion_wal_logical_records_total", "Logical DML records (insert/update/delete/CLR) appended"),
    /// Committers amortized per group-commit flush (unitless counts;
    /// a mean near the committer count means one fsync covered them
    /// all).
    group_commit_batch_size: plain_histogram("orion_wal_group_commit_batch_size", "Committers whose commits one group-commit flush made durable"),
}

/// Group-commit coordination: committers park here until a leader's
/// flush covers their commit record.
#[derive(Debug, Default)]
struct GroupState {
    /// Record-complete stable length known durable.
    durable: u64,
    /// Committers currently parked (including the leader).
    pending: usize,
    /// A leader is mid-flush; later arrivals wait instead of racing.
    leader_active: bool,
}

/// The write-ahead log.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
    /// The device whose log holds the only copy of the stable log.
    device: Arc<PageDevice>,
    faults: RwLock<Option<Arc<FaultInjector>>>,
    group: Mutex<GroupState>,
    group_cvar: Condvar,
    /// Group-commit window in microseconds: how long a leader lingers
    /// for followers before issuing the shared fsync. Zero = flush
    /// immediately (every commit pays its own barrier when alone).
    group_window_us: AtomicU64,
    metrics: WalMetrics,
}

impl Default for Wal {
    fn default() -> Self {
        Wal::new()
    }
}

impl Wal {
    /// An empty log over a fresh in-memory device (durable across
    /// simulated crashes).
    pub fn new() -> Self {
        Wal::with_backend(Arc::new(PageDevice::new())).expect("a fresh in-memory log cannot fail")
    }

    /// A log over `device`'s log, resuming at its current
    /// length — which is all that is read here: every LSN later asked of
    /// [`Wal::flush_to`] is one this log handed out, at or past that
    /// length, and the records are read once, by
    /// [`Wal::stable_records`].
    pub fn with_backend(device: Arc<PageDevice>) -> DbResult<Self> {
        let len = device.log().len();
        Ok(Wal {
            inner: Mutex::new(WalInner {
                stable_len: len,
                complete: len,
                tail: Vec::new(),
                head_rest: 0,
            }),
            device,
            faults: RwLock::default(),
            group: Mutex::default(),
            group_cvar: Condvar::default(),
            group_window_us: AtomicU64::default(),
            metrics: WalMetrics::default(),
        })
    }

    /// Set the group-commit window: how long a committing transaction
    /// elected leader waits for company before the shared fsync.
    pub fn set_group_commit_window(&self, window: Duration) {
        let us = window.as_micros().min(u64::MAX as u128) as u64;
        self.group_window_us.store(us, Ordering::Relaxed);
    }

    /// Append the first `cut` bytes of the tail to the log device and
    /// sync it; only then do they leave the buffer and the stable
    /// lengths advance, so those never claim stability the device
    /// doesn't have. On failure everything stays buffered for the next
    /// attempt.
    fn promote(&self, inner: &mut WalInner, cut: usize) -> DbResult<()> {
        self.device.log().append(&inner.tail[..cut])?;
        self.device.log().sync()?;
        self.metrics.fsyncs.inc();
        if cut == inner.tail.len() {
            // Appends add whole frames, so the tail ends on a boundary.
            inner.tail.clear();
            inner.stable_len += cut as u64;
            inner.complete = inner.stable_len;
            inner.head_rest = 0;
            return Ok(());
        }
        // An injected partial flush: the last frame boundary at or
        // before the cut is found in the tail, which still holds every
        // frame the cut could have split.
        if cut < inner.head_rest {
            inner.head_rest -= cut;
        } else {
            let (mut at, mut next) = (inner.head_rest, inner.head_rest);
            while next <= cut {
                at = next;
                next = frame_end(&inner.tail, at).expect("the tail holds whole frames");
            }
            inner.complete = inner.stable_len + at as u64;
            inner.head_rest = if at == cut { 0 } else { next - cut };
        }
        inner.tail.drain(..cut);
        inner.stable_len += cut as u64;
        Ok(())
    }

    /// Install (or with `None`, remove) a fault injector consulted on
    /// every flush.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write() = injector;
    }

    /// Append a record to the log buffer; returns its LSN.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let framed = encode(rec);
        let mut inner = self.inner.lock();
        let lsn = Lsn(inner.stable_len + inner.tail.len() as u64);
        inner.tail.extend_from_slice(&framed);
        self.metrics.appends.inc();
        if matches!(
            rec,
            LogRecord::Insert { .. }
                | LogRecord::Update { .. }
                | LogRecord::Delete { .. }
                | LogRecord::Clr { .. }
        ) {
            self.metrics.logical_records.inc();
        }
        lsn
    }

    /// Force the log buffer to stable storage. The flush — the simulated
    /// fsync — is timed; an already-empty tail is a free no-op and is
    /// neither counted nor timed. An injected [`FaultKind::PartialFlush`]
    /// promotes only part of the tail and fails; the rest stays buffered
    /// for the next flush (or is lost to a crash — the torn-tail case).
    pub fn flush(&self) -> DbResult<()> {
        let span = SpanTimer::starting_at(Instant::now());
        let moved = {
            let mut inner = self.inner.lock();
            if inner.tail.is_empty() {
                return Ok(());
            }
            let shot = self.faults.read().as_ref().and_then(|f| f.fire(FaultSite::WalFlush));
            if let Some(shot) = shot {
                if shot.kind == FaultKind::PartialFlush && inner.tail.len() >= 2 {
                    let total = inner.tail.len();
                    let cut = 1 + (shot.entropy % (total as u64 - 1)) as usize;
                    self.promote(&mut inner, cut)?;
                    return Err(DbError::Storage(format!(
                        "injected partial WAL flush: {cut} of {total} tail bytes promoted"
                    )));
                }
            }
            let all = inner.tail.len();
            self.promote(&mut inner, all)?;
            all as u64
        };
        self.metrics.flushes.inc();
        self.metrics.flushed_bytes.add(moved);
        span.record(Instant::now(), &self.metrics.flush_latency);
        Ok(())
    }

    /// Group commit: force the log through this committer's records
    /// with one shared fsync when committers overlap.
    ///
    /// The first arrival becomes the *leader*: it lingers for the
    /// configured window (so followers can append their commit records
    /// and park), then issues a single flush whose barrier covers every
    /// parked committer. Followers whose records the leader made
    /// durable return without touching the device at all. A leader
    /// whose flush fails returns that error to its own caller — the
    /// in-doubt-commit contract is per-transaction — and the next
    /// parked committer takes over as leader, healing the partial
    /// flush.
    pub fn commit_flush(&self) -> DbResult<()> {
        let target = self.total_len();
        let mut g = self.group.lock();
        g.pending += 1;
        loop {
            if g.durable >= target {
                g.pending -= 1;
                return Ok(());
            }
            if !g.leader_active {
                g.leader_active = true;
                let window = self.group_window_us.load(Ordering::Relaxed);
                if window > 0 {
                    // Unlocks while waiting, so followers can enqueue
                    // behind this flush. Spurious wakes only shorten
                    // the window — harmless.
                    self.group_cvar.wait_for(&mut g, Duration::from_micros(window));
                }
                let batch = g.pending as u64;
                drop(g);
                let result = self.flush();
                let complete = self.inner.lock().complete;
                let mut g = self.group.lock();
                g.durable = g.durable.max(complete);
                g.leader_active = false;
                g.pending -= 1;
                if result.is_ok() {
                    self.metrics.group_commit_batch_size.observe_micros(batch);
                }
                self.group_cvar.notify_all();
                return result;
            }
            self.group_cvar.wait(&mut g);
        }
    }

    /// Snapshot the WAL counters.
    pub fn stats(&self) -> WalStats {
        self.metrics.snapshot()
    }

    /// Force the log up to (and including) `lsn` — the write-ahead rule
    /// invoked by the buffer pool before writing a dirty page. The tail
    /// is flushed wholesale when `lsn` is not yet *fully* stable (a
    /// partially flushed record does not count as stable).
    pub fn flush_to(&self, lsn: Lsn) -> DbResult<()> {
        let needs = {
            let inner = self.inner.lock();
            lsn.0 >= inner.complete
        };
        if needs {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Byte length of the stable log (what the device holds).
    pub fn stable_len(&self) -> u64 {
        self.inner.lock().stable_len
    }

    /// Total log length including the unforced tail.
    pub fn total_len(&self) -> u64 {
        let inner = self.inner.lock();
        inner.stable_len + inner.tail.len() as u64
    }

    /// Simulate a crash: the unforced tail is lost.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.tail.clear();
        inner.head_rest = 0;
    }

    /// Read every record in the *stable* prefix, with its LSN.
    ///
    /// ARIES tail discipline: a torn or CRC-invalid record with nothing
    /// valid after it is end-of-log — the dead bytes are truncated and
    /// replaced by a [`LogRecord::Pad`] (keeping LSNs monotone), and the
    /// truncation is counted in [`WalStats::torn_tail_truncations`]. A
    /// corrupt record *followed by* a valid one means the log interior
    /// is damaged — committed history may be gone — and is a hard
    /// [`DbError::Corruption`].
    pub fn stable_records(&self) -> DbResult<Vec<(Lsn, LogRecord)>> {
        let mut inner = self.inner.lock();
        // Parsed where the device keeps it; the loan ends before any
        // repair writes to the device.
        let (records, valid, len) = {
            let log = self.device.log().lend()?;
            let (records, valid) = scan(&log, decode)?;
            (records, valid, log.len())
        };
        let mut out: Vec<_> = records.into_iter().map(|(at, rec)| (Lsn(at as u64), rec)).collect();
        if valid < len {
            self.truncate_torn_tail(&mut inner, valid, len - valid)?;
            out.push((Lsn(valid as u64), LogRecord::Pad));
        }
        Ok(out)
    }

    /// Replace the `gap` bytes the device holds from `at` on with a pad
    /// record spanning (at least) as many, so truncation never shrinks
    /// the LSN space. The repair is made on the log device (truncate,
    /// pad, sync), so a re-crash replays against the already-spliced
    /// log.
    fn truncate_torn_tail(&self, inner: &mut WalInner, at: usize, gap: usize) -> DbResult<()> {
        let body_len = gap.saturating_sub(FRAME_HEADER);
        let mut body = Vec::with_capacity(body_len);
        if body_len > 0 {
            body.push(T_PAD);
            body.resize(body_len, 0);
        }
        let mut framed = Vec::new();
        put_frame(&mut framed, &body);
        let log = self.device.log();
        log.truncate(at as u64)?;
        log.append(&framed)?;
        log.sync()?;
        inner.stable_len = (at + framed.len()) as u64;
        inner.complete = inner.stable_len;
        self.metrics.torn_tail_truncations.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PageId;
    use crate::fault::FaultPlan;

    fn rid(p: u32, s: u16) -> Rid {
        Rid { page: PageId(p), slot: s }
    }

    #[test]
    fn encode_decode_all_variants() {
        let records = vec![
            LogRecord::Insert { txn: 1, rid: rid(2, 3), bytes: b"abc".to_vec() },
            LogRecord::Update {
                txn: 1,
                rid: rid(2, 3),
                before: b"abc".to_vec(),
                after: b"defg".to_vec(),
            },
            LogRecord::Delete { txn: 1, rid: rid(2, 3), before: b"defg".to_vec() },
            LogRecord::Clr {
                txn: 1,
                compensates: 99,
                action: ClrAction::ReInsert { rid: rid(2, 3), bytes: b"x".to_vec() },
            },
            LogRecord::Clr {
                txn: 1,
                compensates: 100,
                action: ClrAction::Overwrite { rid: rid(2, 3), bytes: b"y".to_vec() },
            },
            LogRecord::Clr { txn: 1, compensates: 101, action: ClrAction::Remove { rid: rid(2, 3) } },
            LogRecord::Commit { txn: 1 },
            LogRecord::Abort { txn: 2 },
            LogRecord::Prepare { txn: 3 },
            LogRecord::Checkpoint,
            LogRecord::Pad,
        ];
        let wal = Wal::new();
        let lsns: Vec<Lsn> = records.iter().map(|r| wal.append(r)).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "LSNs are monotone");
        wal.flush().unwrap();
        let read: Vec<LogRecord> =
            wal.stable_records().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(read, records);
    }

    #[test]
    fn crash_loses_unflushed_tail_only() {
        let wal = Wal::new();
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.flush().unwrap();
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.crash();
        let recs = wal.stable_records().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, LogRecord::Prepare { txn: 1 });
    }

    #[test]
    fn flush_to_honors_write_ahead_rule() {
        let wal = Wal::new();
        let l1 = wal.append(&LogRecord::Prepare { txn: 1 });
        wal.flush().unwrap();
        let l2 = wal.append(&LogRecord::Commit { txn: 1 });
        // l1 already stable: no-op.
        wal.flush_to(l1).unwrap();
        assert_eq!(wal.stable_records().unwrap().len(), 1);
        // l2 in the tail: flushes.
        wal.flush_to(l2).unwrap();
        assert_eq!(wal.stable_records().unwrap().len(), 2);
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Prepare { txn: 7 }.txn(), Some(7));
        assert_eq!(LogRecord::Checkpoint.txn(), None);
        assert_eq!(LogRecord::Pad.txn(), None);
    }

    #[test]
    fn stats_count_appends_and_nonempty_flushes() {
        let wal = Wal::new();
        wal.flush().unwrap(); // empty: not counted
        assert_eq!(wal.stats().flushes, 0);
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush().unwrap();
        wal.flush().unwrap(); // empty again: not counted
        let s = wal.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.flushed_bytes, wal.stable_len());
        assert_eq!(s.flush_latency.count, 1);
    }

    /// Force a partial flush cutting inside the last record, then crash.
    fn torn_wal() -> (Wal, Lsn) {
        let wal = Wal::new();
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.flush().unwrap();
        let commit_lsn = wal.append(&LogRecord::Commit { txn: 1 });
        let inj =
            Arc::new(FaultInjector::new(FaultPlan::new(11).fail_nth(FaultKind::PartialFlush, 1)));
        wal.set_fault_injector(Some(inj));
        assert!(wal.flush().is_err(), "partial flush reports failure");
        wal.set_fault_injector(None);
        wal.crash();
        (wal, commit_lsn)
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let (wal, commit_lsn) = torn_wal();
        let recs = wal.stable_records().unwrap();
        // The half-flushed commit record is gone; a pad fills its bytes.
        assert_eq!(recs[0].1, LogRecord::Prepare { txn: 1 });
        assert!(
            recs[1..].iter().all(|(_, r)| *r == LogRecord::Pad),
            "only padding after the survivor: {recs:?}"
        );
        assert_eq!(wal.stats().torn_tail_truncations, 1);
        // LSN monotonicity: the next append lands at or after the dead
        // commit record's offset, never inside the truncated range.
        let next = wal.append(&LogRecord::Prepare { txn: 2 });
        assert!(next >= commit_lsn, "LSNs never reuse truncated offsets");
        // Truncation is sticky: a second read reports the same log.
        let again = wal.stable_records().unwrap();
        assert_eq!(again.len(), recs.len());
    }

    #[test]
    fn partial_flush_heals_on_next_flush() {
        let wal = Wal::new();
        wal.append(&LogRecord::Prepare { txn: 1 });
        let commit = wal.append(&LogRecord::Commit { txn: 1 });
        let inj =
            Arc::new(FaultInjector::new(FaultPlan::new(3).fail_nth(FaultKind::PartialFlush, 1)));
        wal.set_fault_injector(Some(Arc::clone(&inj)));
        assert!(wal.flush().is_err());
        assert_eq!(inj.stats().partial_flushes, 1);
        // No crash: the rest of the tail is still buffered, and the next
        // flush completes the record.
        wal.flush().unwrap();
        let recs = wal.stable_records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].0, commit);
        assert_eq!(recs[1].1, LogRecord::Commit { txn: 1 });
    }

    #[test]
    fn flush_to_does_not_trust_half_stable_records() {
        let wal = Wal::new();
        let prepare = wal.append(&LogRecord::Prepare { txn: 1 });
        let inj =
            Arc::new(FaultInjector::new(FaultPlan::new(9).fail_nth(FaultKind::PartialFlush, 1)));
        wal.set_fault_injector(Some(inj));
        assert!(wal.flush().is_err());
        wal.set_fault_injector(None);
        assert!(wal.stable_len() > 0, "a prefix was promoted");
        // `prepare` has bytes on the device but is not record-complete, so
        // the write-ahead hook must flush (and thereby complete it).
        wal.flush_to(prepare).unwrap();
        let recs = wal.stable_records().unwrap();
        assert_eq!(recs, vec![(prepare, LogRecord::Prepare { txn: 1 })]);
    }

    #[test]
    fn group_commit_amortizes_flushes_over_committers() {
        let wal = Arc::new(Wal::new());
        wal.set_group_commit_window(Duration::from_micros(2_000));
        let n = 8usize;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        std::thread::scope(|s| {
            for t in 0..n {
                let wal = Arc::clone(&wal);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    wal.append(&LogRecord::Commit { txn: t as u64 });
                    barrier.wait();
                    wal.commit_flush().unwrap();
                });
            }
        });
        let s = wal.stats();
        // All records were in the buffer before any committer parked,
        // so one leader's flush covers every one of them.
        assert_eq!(s.flushes, 1, "one fsync amortized over {n} committers");
        assert_eq!(s.fsyncs, 1);
        assert!(s.group_commit_batch_size.count >= 1);
        assert_eq!(wal.stable_records().unwrap().len(), n);
    }

    #[test]
    fn commit_flush_alone_behaves_like_flush() {
        let wal = Wal::new();
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.commit_flush().unwrap();
        assert_eq!(wal.stats().flushes, 1);
        assert_eq!(wal.stable_records().unwrap().len(), 2);
        // Already durable: a second commit_flush is a free no-op.
        wal.commit_flush().unwrap();
        assert_eq!(wal.stats().flushes, 1);
    }

    #[test]
    fn backend_log_mirrors_and_reloads() {
        let disk = Arc::new(PageDevice::new());
        let wal = Wal::with_backend(Arc::clone(&disk)).unwrap();
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush().unwrap();
        wal.append(&LogRecord::Prepare { txn: 2 }); // unflushed: not on device
        assert_eq!(disk.log().len(), wal.stable_len());
        // A second Wal over the same device resumes the stable prefix.
        let wal2 = Wal::with_backend(Arc::clone(&disk)).unwrap();
        let recs = wal2.stable_records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].1, LogRecord::Commit { txn: 1 });
    }

    #[test]
    fn torn_tail_truncation_writes_through_to_device() {
        let disk = Arc::new(PageDevice::new());
        let wal = Wal::with_backend(Arc::clone(&disk)).unwrap();
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.flush().unwrap();
        wal.append(&LogRecord::Commit { txn: 1 });
        let inj =
            Arc::new(FaultInjector::new(FaultPlan::new(11).fail_nth(FaultKind::PartialFlush, 1)));
        wal.set_fault_injector(Some(inj));
        assert!(wal.flush().is_err(), "partial flush reports failure");
        wal.set_fault_injector(None);
        wal.crash();
        let recs = wal.stable_records().unwrap(); // truncates + pads, written through
        assert_eq!(wal.stats().torn_tail_truncations, 1);
        // The device holds the spliced log: a reopened Wal sees the
        // identical record stream with no repair left to do.
        let wal2 = Wal::with_backend(Arc::clone(&disk)).unwrap();
        assert_eq!(wal2.stable_records().unwrap(), recs);
        assert_eq!(wal2.stats().torn_tail_truncations, 0, "splice already durable");
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let disk = Arc::new(PageDevice::new());
        let wal = Wal::with_backend(Arc::clone(&disk)).unwrap();
        wal.append(&LogRecord::Prepare { txn: 1 });
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.append(&LogRecord::Checkpoint);
        wal.flush().unwrap();
        // Flip a byte inside the *first* record's body: framing stays
        // intact, so the later records are still reachable and valid.
        let at = FRAME_HEADER + 2;
        let byte = disk.log().lend().unwrap()[at];
        disk.log().write_at(at as u64, 1, &mut |b| b[0] = byte ^ 0xFF).unwrap();
        let err = wal.stable_records().unwrap_err();
        assert!(
            matches!(err, DbError::Corruption(_)),
            "corruption before the end of the log is unrecoverable: {err:?}"
        );
    }
}
