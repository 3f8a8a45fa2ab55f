//! The transactional storage engine: record operations with write-ahead
//! logging, rollback via compensation records, quiescent checkpoints,
//! and redo/undo restart recovery.
//!
//! Isolation is *not* this layer's job — the lock manager (`orion-tx`)
//! serializes conflicting record access above it. This layer guarantees
//! atomicity and durability: committed operations survive a crash,
//! uncommitted ones roll back, even when the crash lands mid-rollback
//! (experiment E13).

use crate::buffer::BufferPool;
use crate::device::{PageDevice, PageId};
use crate::fault::{FaultInjector, FaultMetrics, FaultPlan, FaultStats};
use crate::heap::{HeapFile, Rid};
use crate::slotted;
use crate::wal::{ClrAction, LogRecord, Lsn, Wal};
use orion_types::{DbError, DbResult};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A storage-level transaction id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The record a compensation acts on.
fn clr_rid(action: &ClrAction) -> Rid {
    match action {
        ClrAction::Remove { rid }
        | ClrAction::Overwrite { rid, .. }
        | ClrAction::ReInsert { rid, .. } => *rid,
    }
}

/// A compensation's effect on its page — the same online and at redo.
fn apply_to_page(action: &ClrAction, page: &mut [u8]) -> DbResult<()> {
    match action {
        ClrAction::Remove { rid } => {
            slotted::delete(page, rid.slot);
        }
        ClrAction::Overwrite { rid, bytes } => {
            if !slotted::update(page, rid.slot, bytes) {
                slotted::delete(page, rid.slot);
                slotted::insert_at(page, rid.slot, bytes)?;
            }
        }
        ClrAction::ReInsert { rid, bytes } => slotted::insert_at(page, rid.slot, bytes)?,
    }
    Ok(())
}

/// Where a transaction in the engine's table stands: an `Active` one
/// logs operations and may commit, abort or prepare, a `Prepared` one
/// awaits the coordinator's decision, an `Undoing` one logs compensations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    #[default]
    Active,
    Prepared,
    Undoing,
}

/// A transaction's phase and undo state: for each operation not yet
/// compensated, its LSN and the action that compensates it, in log order.
#[derive(Debug, Default, Clone)]
struct TxnState {
    phase: Phase,
    ops: Vec<(Lsn, ClrAction)>,
}

impl TxnState {
    /// Every record id the transaction touched, with the cell it held
    /// before the transaction (`None`: the transaction inserted it) —
    /// what undoing the transaction puts back.
    fn before_cells(&self) -> HashMap<Rid, Option<&[u8]>> {
        let mut cells = HashMap::new();
        for (_, action) in &self.ops {
            let (rid, cell) = match action {
                ClrAction::Remove { rid } => (*rid, None),
                ClrAction::Overwrite { rid, bytes } | ClrAction::ReInsert { rid, bytes } => {
                    (*rid, Some(&bytes[..]))
                }
            };
            // Log order: the oldest operation on a rid saw its pre-image.
            cells.entry(rid).or_insert(cell);
        }
        cells
    }
}

/// Logical records, each under its head rid.
pub type Records = Vec<(Rid, Vec<u8>)>;

orion_obs::metrics! {
    /// Recovery-outcome counters: how often restart recovery ran, whether
    /// it completed, and how much damage it had to repair along the way.
    pub struct RecoveryStats;
    /// The engine's recovery sinks.
    pub(crate) struct RecoveryMetrics;
    /// Recovery runs that completed (analysis + redo + undo).
    completed: counter("orion_recovery_completed_total", "Restart recoveries that completed"),
    /// Recovery runs that failed with an error (e.g. interior log
    /// corruption, or an injected fault still armed during restart).
    failed: counter("orion_recovery_failed_total", "Restart recoveries that failed with an error"),
    /// Corrupt pages detected at restart and rebuilt by log replay.
    pages_repaired: counter("orion_recovery_pages_repaired_total", "Corrupt pages rebuilt by log replay during recovery"),
    /// Logged page changes redo applied: their page's LSN was older.
    records_redone: counter("orion_recovery_records_redone_total", "Logged page changes redo applied (page LSN older)"),
    /// Logged page changes redo skipped: their page already held them.
    records_skipped: counter("orion_recovery_records_skipped_total", "Logged page changes redo skipped (page already held them)"),
    /// Time a recovery spent reading and decoding the stable log.
    log_read: histogram("orion_recovery_log_read_seconds", "Recovery time reading and decoding the stable log"),
    /// Time a recovery spent checking every page and rebuilding rotted ones.
    scrub: histogram("orion_recovery_scrub_seconds", "Recovery time checking pages and rebuilding rotted ones"),
    /// Time a recovery spent on analysis, redo, undo and the free-space map.
    replay: histogram("orion_recovery_replay_seconds", "Recovery time on analysis, redo, undo and the free-space map"),
}

/// What [`StorageEngine::read_slots`] found in one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotRead {
    /// A whole record; its bytes are this range of the caller's buffer.
    Whole(std::ops::Range<usize>),
    /// The head of an overflow chain: read it with
    /// [`StorageEngine::read`].
    Chained,
    /// No record lives here (deleted, moved away, or a chain's tail
    /// segment).
    Absent,
}

/// The transactional storage engine.
pub struct StorageEngine {
    disk: Arc<PageDevice>,
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
    heap: Mutex<HeapFile>,
    /// Every transaction from just before its first record (an operation
    /// or its `Prepare`) until its `Commit` or `Abort` record is appended,
    /// prepared 2PC participants included (restart rebuilds those from
    /// `Prepare` records without an outcome). Only a checkpoint holds this
    /// lock across a flush: from its emptiness check through its record.
    txns: Mutex<HashMap<u64, TxnState>>,
    next_txn: AtomicU64,
    /// Ids below this were issued before the last recovery's crash. The
    /// table's lock orders it: recovery stores it before taking the lock.
    first_live: AtomicU64,
    /// Counts of every fault fired by any plan installed over this
    /// engine: each injector counts into it.
    faults: Arc<FaultMetrics>,
    recovery: RecoveryMetrics,
}

impl StorageEngine {
    /// A fresh in-memory engine with a buffer pool of `pool_pages`
    /// frames (an in-memory [`PageDevice`]).
    pub fn new(pool_pages: usize) -> Self {
        Self::with_backend(Arc::new(PageDevice::new()), pool_pages)
            .expect("a fresh in-memory backend cannot fail to open")
    }

    /// An engine over an explicit device. The WAL resumes at the end of
    /// the device's log, so constructing over a non-empty device opened
    /// with [`PageDevice::open`] and calling
    /// [`StorageEngine::recover`] — which reads that log — resumes a
    /// previous process's state.
    pub fn with_backend(backend: Arc<PageDevice>, pool_pages: usize) -> DbResult<Self> {
        let wal = Arc::new(Wal::with_backend(Arc::clone(&backend))?);
        let pool =
            Arc::new(BufferPool::new(Arc::clone(&backend), pool_pages, Some(Arc::clone(&wal))));
        Ok(StorageEngine {
            disk: backend,
            pool,
            wal,
            heap: Mutex::new(HeapFile::new()),
            txns: Mutex::new(HashMap::new()),
            next_txn: AtomicU64::new(1),
            first_live: AtomicU64::new(1),
            faults: Arc::default(),
            recovery: RecoveryMetrics::default(),
        })
    }

    /// Install a fault plan: a single injector shared by the disk and
    /// the WAL starts firing according to `plan`'s triggers. Replaces
    /// any previously installed plan (its counts are retained in
    /// [`StorageEngine::fault_stats`]).
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let inj = Arc::new(FaultInjector::with_metrics(plan, Arc::clone(&self.faults)));
        self.disk.set_fault_injector(Some(Arc::clone(&inj)));
        self.wal.set_fault_injector(Some(Arc::clone(&inj)));
        inj
    }

    /// Remove any installed fault plan; subsequent I/O is clean.
    pub fn clear_faults(&self) {
        self.disk.set_fault_injector(None);
        self.wal.set_fault_injector(None);
    }

    /// Cumulative injected-fault counters, across every plan installed
    /// over this engine's lifetime.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.snapshot()
    }

    /// Recovery-outcome counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.snapshot()
    }

    /// The buffer pool (stats, capacity).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The page device (stats).
    pub fn disk(&self) -> &Arc<PageDevice> {
        &self.disk
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction: issue its id, logging nothing. It enters the
    /// table with its first write or its `Prepare`.
    pub fn begin(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Was `txn` issued since the last recovery?
    fn issued(&self, txn: TxnId) -> bool {
        (self.first_live.load(Ordering::Relaxed)..self.next_txn.load(Ordering::Relaxed))
            .contains(&txn.0)
    }

    /// Enter `txn` in the table before its first record is appended, so a
    /// checkpoint either sees it or has logged its own record first.
    fn enter(&self, txn: TxnId) -> DbResult<()> {
        let mut txns = self.txns.lock();
        match txns.get(&txn.0) {
            Some(state) if state.phase == Phase::Active => Ok(()),
            None if self.issued(txn) => {
                txns.insert(txn.0, TxnState::default());
                Ok(())
            }
            _ => Err(not_active(txn)),
        }
    }

    fn record_op(&self, txn: TxnId, lsn: Lsn, undo: ClrAction) -> DbResult<()> {
        let mut txns = self.txns.lock();
        let state = txns.get_mut(&txn.0).filter(|state| state.phase == Phase::Active);
        state.ok_or_else(|| not_active(txn))?.ops.push((lsn, undo));
        Ok(())
    }

    /// Take `txn` out of phase `from` (`Ok(None)` if the table lacks it).
    /// A commit appends its record and leaves the table under one lock; a
    /// rollback stays, `Undoing`, and hands its undo state back.
    fn leave(&self, txn: TxnId, from: Phase, commit: bool) -> DbResult<Option<TxnState>> {
        let mut txns = self.txns.lock();
        let Some(state) = txns.get_mut(&txn.0) else { return Ok(None) };
        if state.phase != from {
            let msg = format!("{txn} is {:?}, not {from:?}", state.phase);
            return Err(DbError::InvalidTxnState(msg));
        }
        if commit {
            self.wal.append(&LogRecord::Commit { txn: txn.0 });
            return Ok(txns.remove(&txn.0));
        }
        state.phase = Phase::Undoing;
        Ok(Some(TxnState { phase: Phase::Undoing, ops: std::mem::take(&mut state.ops) }))
    }

    /// Commit: force the log through the commit record, if `txn` wrote.
    ///
    /// An error from the force (e.g. an injected partial flush) leaves
    /// the commit *in doubt*: the record may or may not be stable. The
    /// transaction is over either way — crash-and-recover resolves the
    /// outcome atomically (all of it or none of it).
    pub fn commit(&self, txn: TxnId) -> DbResult<()> {
        match self.leave(txn, Phase::Active, true)? {
            Some(_) => self.wal.commit_flush(),
            None if self.issued(txn) => Ok(()),
            None => Err(not_active(txn)),
        }
    }

    /// Roll back every operation of `txn`, logging compensation records,
    /// then mark the transaction aborted. Returns the logical records
    /// the rollback put back — what the transaction had updated or
    /// deleted, as it was before. One that wrote nothing logs nothing.
    pub fn abort(&self, txn: TxnId) -> DbResult<Records> {
        match self.leave(txn, Phase::Active, false)? {
            Some(state) => self.roll_back(txn, state),
            None if self.issued(txn) => Ok(Records::new()),
            None => Err(not_active(txn)),
        }
    }

    /// Log `state`'s compensations and `Abort`, drop `txn` from the table
    /// and force the log. A failed undo stays in the table for restart.
    fn roll_back(&self, txn: TxnId, state: TxnState) -> DbResult<Records> {
        self.undo(txn, &state)?;
        self.txns.lock().remove(&txn.0);
        self.wal.flush()?;
        Ok(self.before_records(&state))
    }

    /// Compensate every operation in `state`, newest first, and log the
    /// abort. The caller forces the log.
    fn undo(&self, txn: TxnId, state: &TxnState) -> DbResult<()> {
        for (lsn, action) in state.ops.iter().rev() {
            let clr_lsn = self.wal.append(&LogRecord::Clr {
                txn: txn.0,
                compensates: lsn.0,
                action: action.clone(),
            });
            self.apply_clr(action, clr_lsn)?;
        }
        self.wal.append(&LogRecord::Abort { txn: txn.0 });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Two-phase commit (participant half)
    // ------------------------------------------------------------------

    /// Phase one of two-phase commit: force the log through a `Prepare`
    /// record. On success the transaction is prepared and can no longer
    /// abort unilaterally — only [`StorageEngine::commit_prepared`] or
    /// [`StorageEngine::abort_prepared`] (the coordinator's decision)
    /// may settle it, and restart recovery reinstates it as in doubt
    /// rather than undoing it.
    ///
    /// If the force fails, the transaction stays active so the caller
    /// can roll it back normally; a half-stable `Prepare` record
    /// followed by the rollback's `Abort` record is resolved as aborted
    /// by recovery.
    pub fn prepare(&self, txn: TxnId) -> DbResult<()> {
        self.enter(txn)?;
        self.wal.append(&LogRecord::Prepare { txn: txn.0 });
        self.wal.commit_flush()?;
        self.txns.lock().entry(txn.0).and_modify(|state| state.phase = Phase::Prepared);
        Ok(())
    }

    /// Phase two, commit branch: force a `Commit` record for a prepared
    /// transaction. Idempotent by transaction id: an unknown one (the
    /// decision already arrived, possibly on a retransmitted frame) gives
    /// `Ok(false)`, and one in another phase, such as an active one, `Err`.
    pub fn commit_prepared(&self, txn: TxnId) -> DbResult<bool> {
        if self.leave(txn, Phase::Prepared, true)?.is_none() {
            return Ok(false);
        }
        self.wal.commit_flush()?;
        Ok(true)
    }

    /// Phase two, abort branch: undo a prepared transaction from its
    /// retained undo state, exactly like [`StorageEngine::abort`], and
    /// return what it put back. Idempotent by transaction id like
    /// [`StorageEngine::commit_prepared`]: `None` for an unknown id.
    pub fn abort_prepared(&self, txn: TxnId) -> DbResult<Option<Records>> {
        match self.leave(txn, Phase::Prepared, false)? {
            Some(state) => self.roll_back(txn, state).map(Some),
            None => Ok(None),
        }
    }

    /// Transaction ids currently prepared and awaiting a coordinator
    /// decision (sorted). After restart recovery these are the in-doubt
    /// transactions rebuilt from the log.
    pub fn prepared_txns(&self) -> Vec<u64> {
        let txns = self.txns.lock();
        let prepared = txns.iter().filter(|(_, state)| state.phase == Phase::Prepared);
        let mut ids: Vec<u64> = prepared.map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// The logical records a prepared transaction replaced, and those it
    /// left in their place: `(before, after)`. After restart recovery
    /// the facade uses them to re-assert exclusive ownership of in-doubt
    /// objects, and to re-stage their versions, before traffic resumes.
    pub fn prepared_records(&self, txn: u64) -> (Records, Records) {
        // A copy, read with the table released: a page read may flush.
        let state = self.txns.lock().get(&txn).filter(|s| s.phase == Phase::Prepared).cloned();
        let Some(state) = state else { return Default::default() };
        let now = |rid| Some((rid, self.read(rid).ok()?));
        (self.before_records(&state), state.before_cells().into_keys().filter_map(now).collect())
    }

    /// The logical records `state`'s undo puts back, assembled from its
    /// retained pre-images.
    fn before_records(&self, state: &TxnState) -> Records {
        let cells = state.before_cells();
        let missing = |rid| DbError::Storage(format!("no record at {rid}"));
        let cell = |rid| match cells.get(&rid) {
            Some(cell) => cell.map(<[u8]>::to_vec).ok_or_else(|| missing(rid)),
            None => self.read_raw(rid),
        };
        cells.keys().filter_map(|&rid| Some((rid, Self::assemble(rid, cell).ok()?))).collect()
    }

    /// Apply a compensation online: its page effect, the page LSN, and
    /// the free-space estimate.
    fn apply_clr(&self, action: &ClrAction, lsn: Lsn) -> DbResult<()> {
        let page = clr_rid(action).page;
        self.pool.with_page_mut(page, |bytes| -> DbResult<()> {
            apply_to_page(action, bytes)?;
            slotted::set_page_lsn(bytes, lsn.0);
            Ok(())
        })??;
        self.refresh_free(page)
    }

    // ------------------------------------------------------------------
    // Record operations
    //
    // Long records ("long unstructured data (such as images, audio, and
    // textual documents)", paper §2.2) are chained transparently across
    // overflow segments: every stored cell starts with a tag byte
    // (whole / head / tail); head and tail segments carry a pointer to
    // the next segment. Callers only ever see logical byte strings and
    // head record ids.
    // ------------------------------------------------------------------

    fn refresh_free(&self, page: PageId) -> DbResult<()> {
        let free = self.pool.with_page(page, slotted::usable_free)?;
        self.heap.lock().note_free(page, free);
        Ok(())
    }

    /// Largest logical record the engine accepts (sanity cap).
    pub const MAX_LOGICAL_RECORD: usize = 16 << 20;

    const TAG_WHOLE: u8 = 0;
    const TAG_HEAD: u8 = 1;
    const TAG_TAIL: u8 = 2;
    /// Bytes of a segment header: tag + next page (u32) + next slot (u16).
    const SEG_HEADER: usize = 7;
    /// Sentinel "no next segment".
    const NO_NEXT: u32 = u32::MAX;

    fn payload_per_segment() -> usize {
        slotted::MAX_RECORD - Self::SEG_HEADER
    }

    fn encode_whole(bytes: &[u8]) -> Vec<u8> {
        let mut raw = Vec::with_capacity(bytes.len() + 1);
        raw.push(Self::TAG_WHOLE);
        raw.extend_from_slice(bytes);
        raw
    }

    fn encode_segment(tag: u8, next: Option<Rid>, chunk: &[u8]) -> Vec<u8> {
        let mut raw = Vec::with_capacity(chunk.len() + Self::SEG_HEADER);
        raw.push(tag);
        match next {
            Some(rid) => {
                raw.extend_from_slice(&rid.page.0.to_le_bytes());
                raw.extend_from_slice(&rid.slot.to_le_bytes());
            }
            None => {
                raw.extend_from_slice(&Self::NO_NEXT.to_le_bytes());
                raw.extend_from_slice(&0u16.to_le_bytes());
            }
        }
        raw.extend_from_slice(chunk);
        raw
    }

    /// Parse a raw cell into `(tag, next, payload)`.
    fn parse_raw(raw: &[u8]) -> DbResult<(u8, Option<Rid>, &[u8])> {
        let tag = *raw.first().ok_or_else(|| DbError::Storage("empty cell".into()))?;
        match tag {
            Self::TAG_WHOLE => Ok((tag, None, &raw[1..])),
            Self::TAG_HEAD | Self::TAG_TAIL => {
                if raw.len() < Self::SEG_HEADER {
                    return Err(DbError::Storage("truncated segment header".into()));
                }
                let page = u32::from_le_bytes(raw[1..5].try_into().unwrap());
                let slot = u16::from_le_bytes(raw[5..7].try_into().unwrap());
                let next = if page == Self::NO_NEXT {
                    None
                } else {
                    Some(Rid { page: PageId(page), slot })
                };
                Ok((tag, next, &raw[Self::SEG_HEADER..]))
            }
            other => Err(DbError::Storage(format!("unknown record tag {other}"))),
        }
    }

    /// Insert one raw (already tagged) cell.
    fn insert_raw(&self, txn: TxnId, raw: &[u8], hint: Option<PageId>) -> DbResult<Rid> {
        debug_assert!(raw.len() <= slotted::MAX_RECORD);
        let need = raw.len() + 8; // cell + slot entry, with slack
        loop {
            let candidate = self.heap.lock().pick_page(need, hint);
            // Clustering discipline: when a placement hint was given but
            // the hinted page is full, a *fresh* page keeps the cluster
            // contiguous — falling back to global first-fit would
            // scatter the overflow among unrelated objects (§4.2).
            let candidate = match (candidate, hint) {
                (Some(p), Some(h)) if p != h => None,
                (c, _) => c,
            };
            let pid = match candidate {
                Some(p) => p,
                None => {
                    let p = self.pool.allocate_slotted()?;
                    let free = self.pool.with_page(p, slotted::usable_free)?;
                    self.heap.lock().note_free(p, free);
                    p
                }
            };
            let slot = self.pool.with_page_mut(pid, |page| slotted::insert(page, raw))?;
            match slot {
                Some(slot) => {
                    let rid = Rid { page: pid, slot };
                    let lsn = self.wal.append(&LogRecord::Insert {
                        txn: txn.0,
                        rid,
                        bytes: raw.to_vec(),
                    });
                    self.pool.with_page_mut(pid, |page| slotted::set_page_lsn(page, lsn.0))?;
                    self.refresh_free(pid)?;
                    self.record_op(txn, lsn, ClrAction::Remove { rid })?;
                    return Ok(rid);
                }
                None => {
                    // Stale free estimate; refresh and retry elsewhere.
                    self.refresh_free(pid)?;
                    let still = self.heap.lock().pick_page(need, None);
                    if still == Some(pid) {
                        return Err(DbError::Internal(format!(
                            "page {pid} claims {need} free bytes but rejects insert"
                        )));
                    }
                }
            }
        }
    }

    fn read_raw(&self, rid: Rid) -> DbResult<Vec<u8>> {
        self.pool
            .with_page(rid.page, |page| slotted::get(page, rid.slot).map(|r| r.to_vec()))?
            .ok_or_else(|| DbError::Storage(format!("no record at {rid}")))
    }

    fn delete_raw(&self, txn: TxnId, rid: Rid) -> DbResult<()> {
        let before = self.read_raw(rid)?;
        self.pool.with_page_mut(rid.page, |page| slotted::delete(page, rid.slot))?;
        let lsn = self.wal.append(&LogRecord::Delete { txn: txn.0, rid, before: before.clone() });
        self.pool.with_page_mut(rid.page, |page| slotted::set_page_lsn(page, lsn.0))?;
        self.refresh_free(rid.page)?;
        self.record_op(txn, lsn, ClrAction::ReInsert { rid, bytes: before })?;
        Ok(())
    }

    /// The chain of rids making up the record at `head` (head first).
    fn chain_rids(&self, head: Rid) -> DbResult<Vec<Rid>> {
        let mut rids = vec![head];
        let raw = self.read_raw(head)?;
        let (tag, mut next, _) = Self::parse_raw(&raw)?;
        if tag == Self::TAG_TAIL {
            return Err(DbError::Storage(format!("{head} is an overflow segment, not a record")));
        }
        while let Some(rid) = next {
            rids.push(rid);
            let raw = self.read_raw(rid)?;
            let (tag, n, _) = Self::parse_raw(&raw)?;
            if tag != Self::TAG_TAIL {
                return Err(DbError::Storage(format!("broken overflow chain at {rid}")));
            }
            next = n;
        }
        Ok(rids)
    }

    /// Insert a record; `hint` asks for placement on a specific page
    /// (composite-object clustering). Long records are chained across
    /// overflow segments transparently. Returns the head record id.
    pub fn insert(&self, txn: TxnId, bytes: &[u8], hint: Option<PageId>) -> DbResult<Rid> {
        if bytes.len() > Self::MAX_LOGICAL_RECORD {
            return Err(DbError::Storage(format!(
                "record of {} bytes exceeds the {} byte cap",
                bytes.len(),
                Self::MAX_LOGICAL_RECORD
            )));
        }
        self.enter(txn)?;
        if bytes.len() < slotted::MAX_RECORD {
            return self.insert_raw(txn, &Self::encode_whole(bytes), hint);
        }
        // Chain: insert tail segments back-to-front so each knows its
        // successor, then the head.
        let seg = Self::payload_per_segment();
        let chunks: Vec<&[u8]> = bytes.chunks(seg).collect();
        let mut next: Option<Rid> = None;
        for chunk in chunks[1..].iter().rev() {
            let raw = Self::encode_segment(Self::TAG_TAIL, next, chunk);
            next = Some(self.insert_raw(txn, &raw, hint)?);
        }
        let head_raw = Self::encode_segment(Self::TAG_HEAD, next, chunks[0]);
        self.insert_raw(txn, &head_raw, hint)
    }

    /// Read a record's bytes (reassembling overflow chains).
    pub fn read(&self, rid: Rid) -> DbResult<Vec<u8>> {
        Self::assemble(rid, |rid| self.read_raw(rid))
    }

    /// The logical record headed at `rid`, each raw cell read through
    /// `cell`: a whole record as stored, an overflow head joined with
    /// its tail segments.
    fn assemble(rid: Rid, cell: impl Fn(Rid) -> DbResult<Vec<u8>>) -> DbResult<Vec<u8>> {
        let raw = cell(rid)?;
        let (tag, mut next, payload) = Self::parse_raw(&raw)?;
        if tag == Self::TAG_TAIL {
            return Err(DbError::Storage(format!("{rid} is an overflow segment, not a record")));
        }
        let mut out = payload.to_vec();
        while let Some(seg_rid) = next {
            let raw = cell(seg_rid)?;
            let (tag, n, payload) = Self::parse_raw(&raw)?;
            if tag != Self::TAG_TAIL {
                return Err(DbError::Storage(format!("broken overflow chain at {seg_rid}")));
            }
            out.extend_from_slice(payload);
            next = n;
        }
        Ok(out)
    }

    /// Read several records of one page under a single pool access:
    /// one [`SlotRead`] is pushed onto `cells` per entry of `slots`, in
    /// order, and the bytes of whole records are appended to `buf`
    /// (both are the caller's, so a scan reuses them page after page).
    /// Heads of overflow chains are only reported — their segments live
    /// on other pages, so the caller reassembles them with
    /// [`StorageEngine::read`].
    pub fn read_slots(
        &self,
        page: PageId,
        slots: &[u16],
        buf: &mut Vec<u8>,
        cells: &mut Vec<SlotRead>,
    ) -> DbResult<()> {
        self.pool.with_page(page, |bytes| {
            for &slot in slots {
                cells.push(match slotted::get(bytes, slot) {
                    Some([Self::TAG_WHOLE, payload @ ..]) => {
                        let start = buf.len();
                        buf.extend_from_slice(payload);
                        SlotRead::Whole(start..buf.len())
                    }
                    Some([Self::TAG_HEAD, ..]) => SlotRead::Chained,
                    _ => SlotRead::Absent,
                });
            }
        })
    }

    /// Does a live record (head) exist at `rid`?
    pub fn exists(&self, rid: Rid) -> DbResult<bool> {
        let raw = self
            .pool
            .with_page(rid.page, |page| slotted::get(page, rid.slot).map(|r| r.to_vec()))?;
        match raw {
            Some(raw) => Ok(matches!(Self::parse_raw(&raw)?.0, Self::TAG_WHOLE | Self::TAG_HEAD)),
            None => Ok(false),
        }
    }

    /// Update a record. Small-to-small updates try in place; everything
    /// else re-chains (delete + insert). Returns the (possibly new) rid.
    pub fn update(&self, txn: TxnId, rid: Rid, bytes: &[u8]) -> DbResult<Rid> {
        self.enter(txn)?;
        let before_raw = self.read_raw(rid)?;
        let (tag, _, _) = Self::parse_raw(&before_raw)?;
        if tag == Self::TAG_WHOLE && bytes.len() < slotted::MAX_RECORD {
            let after_raw = Self::encode_whole(bytes);
            let in_place = self
                .pool
                .with_page_mut(rid.page, |page| slotted::update(page, rid.slot, &after_raw))?;
            if in_place {
                let lsn = self.wal.append(&LogRecord::Update {
                    txn: txn.0,
                    rid,
                    before: before_raw.clone(),
                    after: after_raw,
                });
                self.pool.with_page_mut(rid.page, |page| slotted::set_page_lsn(page, lsn.0))?;
                self.refresh_free(rid.page)?;
                self.record_op(txn, lsn, ClrAction::Overwrite { rid, bytes: before_raw })?;
                return Ok(rid);
            }
        }
        self.delete(txn, rid)?;
        self.insert(txn, bytes, Some(rid.page))
    }

    /// Delete a record (and its whole overflow chain).
    pub fn delete(&self, txn: TxnId, rid: Rid) -> DbResult<()> {
        self.enter(txn)?;
        for seg in self.chain_rids(rid)? {
            self.delete_raw(txn, seg)?;
        }
        Ok(())
    }

    /// Visit every live *logical* record (directory rebuild, eager
    /// schema migration, statistics). Overflow chains are reassembled
    /// and reported once, under their head rid.
    pub fn scan_all(&self, mut f: impl FnMut(Rid, &[u8])) -> DbResult<()> {
        let pages = self.disk.page_count();
        for p in 0..pages {
            let pid = PageId(p);
            // Collect this page's cells first: the closure must not call
            // back into the pool (chain reads would).
            let cells: Vec<(u16, Vec<u8>)> = self.pool.with_page(pid, |page| {
                slotted::iter(page).map(|(slot, rec)| (slot, rec.to_vec())).collect()
            })?;
            for (slot, raw) in cells {
                let rid = Rid { page: pid, slot };
                match Self::parse_raw(&raw)? {
                    (Self::TAG_WHOLE, _, payload) => f(rid, payload),
                    (Self::TAG_HEAD, _, _) => {
                        let assembled = self.read(rid)?;
                        f(rid, &assembled);
                    }
                    _ => {} // tail segments are part of some head
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint, crash, recovery
    // ------------------------------------------------------------------

    /// Quiescent checkpoint: flush every dirty page, then log and force a
    /// checkpoint record. Restart recovery starts scanning here. Fails if
    /// a transaction that has logged is active or prepared (one that has
    /// only read is not in the table); the table stays locked through the
    /// record, so a first write waits and nothing is logged in between.
    pub fn checkpoint(&self) -> DbResult<()> {
        let txns = self.txns.lock();
        if !txns.is_empty() {
            return Err(DbError::InvalidTxnState(
                "checkpoint requires no active or prepared (in-doubt) transactions".into(),
            ));
        }
        self.pool.flush_all()?;
        // Page durability barrier before the checkpoint record claims
        // the pages are stable (a real fsync on a file backend).
        self.disk.sync()?;
        self.wal.append(&LogRecord::Checkpoint);
        drop(txns);
        self.wal.flush()
    }

    /// Simulate a crash: the buffer pool and the unforced log tail are
    /// lost; the disk image and the stable log survive.
    pub fn crash(&self) {
        self.pool.crash();
        self.wal.crash();
        // Volatile like everything else: recovery rebuilds the in-doubt
        // set from forced Prepare records.
        self.txns.lock().clear();
    }

    /// Restart recovery: analysis, redo, undo — then rebuild the
    /// free-space map. Idempotent: running it twice, or again after a
    /// run that failed partway, is harmless.
    ///
    /// Redo gives each page exactly the logged changes newer than its
    /// page LSN (see `redo_apply`), so a page the pool wrote back in a
    /// later state than a record describes is left alone. Hardened
    /// against injected damage: a torn WAL tail is truncated by
    /// [`Wal::stable_records`], and a page whose checksum fails is
    /// rebuilt as an empty page at LSN 0 that replays the *full* log
    /// (the log is never truncated from the front; the intact pages
    /// skip what they already hold). Only interior log corruption is
    /// unrecoverable.
    ///
    /// The log is read here and nowhere else: once per restart, parsed
    /// where the device holds it.
    pub fn recover(&self) -> DbResult<()> {
        match self.recover_inner() {
            Ok(()) => {
                self.recovery.completed.inc();
                Ok(())
            }
            Err(e) => {
                self.recovery.failed.inc();
                Err(e)
            }
        }
    }

    fn recover_inner(&self) -> DbResult<()> {
        let start = Instant::now();
        let records = self.wal.stable_records()?;
        let read = Instant::now();
        self.recovery.log_read.observe(read - start);

        // Seed the transaction-id allocator past every id the log has
        // ever seen, so a cold-started process never reuses one, and
        // retire every id issued before the crash.
        let max_txn = records.iter().filter_map(|(_, r)| r.txn()).max().unwrap_or(0);
        let next = self.next_txn.fetch_max(max_txn + 1, Ordering::Relaxed).max(max_txn + 1);
        self.first_live.store(next, Ordering::Relaxed);

        // --- Scrub: detect and repair rotted pages before touching them.
        let mut repaired = false;
        for p in 0..self.disk.page_count() {
            let pid = PageId(p);
            match self.pool.with_page(pid, |_| ()) {
                Ok(()) => {}
                Err(DbError::Corruption(_)) => {
                    self.pool.repair_page(pid)?;
                    self.recovery.pages_repaired.inc();
                    repaired = true;
                }
                Err(other) => return Err(other),
            }
        }
        let scrubbed = Instant::now();
        self.recovery.scrub.observe(scrubbed - read);

        // Start at the last quiescent checkpoint — unless a page had to
        // be rebuilt, in which case its whole history must replay.
        let start = if repaired {
            0
        } else {
            records
                .iter()
                .rposition(|(_, r)| matches!(r, LogRecord::Checkpoint))
                .map(|i| i + 1)
                .unwrap_or(0)
        };
        let tail = &records[start..];

        // --- Analysis and redo, in one pass over the tail. History repeats,
        // committed or not, and the transaction table is rebuilt as it
        // stood at the crash: as online, a transaction enters with its
        // first record and leaves with its Commit or Abort. An LSN names
        // one record, so one set holds every compensated operation.
        let mut table: HashMap<u64, TxnState> = HashMap::new();
        let mut compensated: HashSet<u64> = HashSet::new();
        for (lsn, rec) in tail {
            let Some(txn) = rec.txn() else { continue };
            let undo = match rec {
                LogRecord::Insert { rid, bytes, .. } => {
                    self.redo_apply(*lsn, *rid, |page| slotted::insert_at(page, rid.slot, bytes))?;
                    ClrAction::Remove { rid: *rid }
                }
                LogRecord::Update { rid, before, after, .. } => {
                    self.redo_apply(*lsn, *rid, |page| {
                        if !slotted::update(page, rid.slot, after) {
                            slotted::delete(page, rid.slot);
                            slotted::insert_at(page, rid.slot, after)?;
                        }
                        Ok(())
                    })?;
                    ClrAction::Overwrite { rid: *rid, bytes: before.clone() }
                }
                LogRecord::Delete { rid, before, .. } => {
                    self.redo_apply(*lsn, *rid, |page| {
                        slotted::delete(page, rid.slot);
                        Ok(())
                    })?;
                    ClrAction::ReInsert { rid: *rid, bytes: before.clone() }
                }
                LogRecord::Clr { compensates, action, .. } => {
                    self.redo_apply(*lsn, clr_rid(action), |page| apply_to_page(action, page))?;
                    compensated.insert(*compensates);
                    continue;
                }
                LogRecord::Prepare { .. } => {
                    table.entry(txn).or_default().phase = Phase::Prepared;
                    continue;
                }
                // Commit or Abort.
                _ => {
                    table.remove(&txn);
                    continue;
                }
            };
            table.entry(txn).or_default().ops.push((*lsn, undo));
        }

        // --- Settle the undecided (still in the table) ---
        // What is left to undo is the same for both kinds: the logged
        // operations minus those a crash-interrupted rollback already
        // compensated. A forced Prepare record means the coordinator
        // owns the outcome, so the transaction is reinstated as *in
        // doubt* with that undo state and a later decision can settle it
        // either way; every other one is a loser and is undone now.
        for state in table.values_mut() {
            state.ops.retain(|(lsn, _)| !compensated.contains(&lsn.0));
        }
        let (in_doubt, losers): (HashMap<_, _>, HashMap<_, _>) =
            table.into_iter().partition(|(_, state)| state.phase == Phase::Prepared);
        let mut losers: Vec<_> = losers.into_iter().collect();
        losers.sort_unstable_by_key(|&(txn, _)| txn);
        *self.txns.lock() = in_doubt;
        for (txn, state) in &losers {
            self.undo(TxnId(*txn), state)?;
        }
        self.wal.flush()?;

        // --- Rebuild the free-space map ---
        let mut heap = self.heap.lock();
        heap.clear();
        drop(heap);
        for p in 0..self.disk.page_count() {
            self.refresh_free(PageId(p))?;
        }
        self.recovery.replay.observe(scrubbed.elapsed());
        Ok(())
    }

    /// Redo one logged page change unless its page already holds it.
    /// Every change stamps its page with its LSN and a write-back
    /// carries the stamp to disk, so a page at or past `lsn` holds this
    /// change — and replaying it could not even be assumed to fit: slots
    /// share the page's bytes, and a later state may have used the room
    /// an old insert took. A change past the page LSN is applied in log
    /// order, repeating the page's history; one whose effect reached the
    /// page just before its stamp (a concurrent writer's) re-executes
    /// harmlessly, since `insert_at`/`update`/`delete` tolerate that.
    /// An unstamped page is at LSN 0 too, so the log's first record (LSN
    /// 0) is redone on a page at 0: harmlessly, if the page held it.
    fn redo_apply(
        &self,
        lsn: Lsn,
        rid: Rid,
        apply: impl FnOnce(&mut [u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        if self.pool.with_page(rid.page, slotted::page_lsn)? >= lsn.0.max(1) {
            self.recovery.records_skipped.inc();
            return Ok(());
        }
        self.pool.with_page_mut(rid.page, |page| -> DbResult<()> {
            apply(page)?;
            slotted::set_page_lsn(page, lsn.0);
            Ok(())
        })??;
        self.recovery.records_redone.inc();
        Ok(())
    }
}

fn not_active(txn: TxnId) -> DbError {
    DbError::InvalidTxnState(format!("{txn} is not active"))
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("pages", &self.disk.page_count())
            .field("txns", &self.txns.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(engine: &StorageEngine) -> Vec<(Rid, Vec<u8>)> {
        let mut out = Vec::new();
        engine.scan_all(|rid, bytes| out.push((rid, bytes.to_vec()))).unwrap();
        out.sort();
        out
    }

    #[test]
    fn insert_read_update_delete() {
        let engine = StorageEngine::new(8);
        let txn = engine.begin();
        let rid = engine.insert(txn, b"alpha", None).unwrap();
        assert_eq!(engine.read(rid).unwrap(), b"alpha");
        let rid2 = engine.update(txn, rid, b"beta!").unwrap();
        assert_eq!(rid2, rid, "same-size update stays in place");
        assert_eq!(engine.read(rid).unwrap(), b"beta!");
        engine.delete(txn, rid).unwrap();
        assert!(engine.read(rid).is_err());
        engine.commit(txn).unwrap();
    }

    #[test]
    fn abort_rolls_back_everything() {
        let engine = StorageEngine::new(8);
        let setup = engine.begin();
        let keep = engine.insert(setup, b"keep", None).unwrap();
        engine.commit(setup).unwrap();

        let txn = engine.begin();
        let gone = engine.insert(txn, b"gone", None).unwrap();
        engine.update(txn, keep, b"kep2").unwrap();
        engine.delete(txn, keep).unwrap();
        engine.abort(txn).unwrap();

        assert!(engine.read(gone).is_err(), "inserted record removed");
        assert_eq!(engine.read(keep).unwrap(), b"keep", "survivor restored");
        assert_eq!(collect(&engine).len(), 1);
    }

    #[test]
    fn commit_survives_crash() {
        let engine = StorageEngine::new(4);
        let txn = engine.begin();
        let rid = engine.insert(txn, b"durable", None).unwrap();
        engine.commit(txn).unwrap();
        // The insert is the log's first record: LSN 0, the page LSN of
        // a page nothing has stamped.
        let first = &engine.wal().stable_records().unwrap()[0];
        assert!(matches!(first, (Lsn(0), LogRecord::Insert { .. })));
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(rid).unwrap(), b"durable");
    }

    #[test]
    fn uncommitted_lost_or_undone_after_crash() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let committed = engine.insert(t1, b"yes", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        let _doomed = engine.insert(t2, b"no", None).unwrap();
        // Force the log so t2's insert is stable but unmerged — recovery
        // must redo then undo it.
        engine.wal().flush().unwrap();
        engine.crash();
        engine.recover().unwrap();
        let records = collect(&engine);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, committed);
        assert_eq!(records[0].1, b"yes");
    }

    #[test]
    fn update_by_loser_is_undone_at_recovery() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let rid = engine.insert(t1, b"original", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        engine.update(t2, rid, b"tampered").unwrap();
        engine.wal().flush().unwrap();
        // Also push the dirty page to disk to exercise undo of flushed data.
        engine.pool().flush_all().unwrap();
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(rid).unwrap(), b"original");
    }

    #[test]
    fn recovery_is_idempotent() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let a = engine.insert(t1, b"aa", None).unwrap();
        engine.commit(t1).unwrap();
        let t2 = engine.begin();
        engine.update(t2, a, b"zz").unwrap();
        engine.wal().flush().unwrap();
        engine.crash();
        engine.recover().unwrap();
        let first = collect(&engine);
        engine.recover().unwrap();
        let second = collect(&engine);
        assert_eq!(first, second);
        assert_eq!(engine.read(a).unwrap(), b"aa");
    }

    #[test]
    fn redo_skips_what_a_written_back_page_holds() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        for i in 0..3u8 {
            engine.insert(t1, &[i; 8], None).unwrap();
        }
        engine.commit(t1).unwrap();
        engine.pool().flush_all().unwrap(); // the page reaches disk holding all three
        let t2 = engine.begin();
        let late = engine.insert(t2, b"late", None).unwrap();
        engine.commit(t2).unwrap();
        engine.crash();
        engine.recover().unwrap();
        let rs = engine.recovery_stats();
        assert_eq!((rs.records_skipped, rs.records_redone), (3, 1));
        assert_eq!(engine.read(late).unwrap(), b"late");
        assert_eq!(collect(&engine).len(), 4);
        // A second pass over a pool that already holds everything redoes nothing.
        engine.recover().unwrap();
        assert_eq!(engine.recovery_stats().records_redone, 1);
    }

    #[test]
    fn crash_after_abort_stays_rolled_back() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let rid = engine.insert(t1, b"base", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        engine.delete(t2, rid).unwrap();
        engine.abort(t2).unwrap(); // logs CLRs + Abort, flushed
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(rid).unwrap(), b"base", "no double-undo");
        assert_eq!(collect(&engine).len(), 1);
    }

    #[test]
    fn checkpoint_bounds_recovery_scan() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let a = engine.insert(t1, b"one", None).unwrap();
        engine.commit(t1).unwrap();
        engine.checkpoint().unwrap();
        let t2 = engine.begin();
        let b = engine.insert(t2, b"two", None).unwrap();
        engine.commit(t2).unwrap();
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(a).unwrap(), b"one");
        assert_eq!(engine.read(b).unwrap(), b"two");
    }

    #[test]
    fn checkpoint_refuses_active_txns() {
        let engine = StorageEngine::new(4);
        let t = engine.begin();
        engine.checkpoint().unwrap();
        engine.insert(t, b"w", None).unwrap();
        assert!(engine.checkpoint().is_err());
        engine.commit(t).unwrap();
        engine.checkpoint().unwrap();
    }

    #[test]
    fn a_txn_that_wrote_nothing_finishes_without_logging() {
        let engine = StorageEngine::new(4);
        let (committed, aborted) = (engine.begin(), engine.begin());
        let before = engine.wal().stats();
        engine.commit(committed).unwrap();
        assert_eq!(engine.abort(aborted).unwrap(), Records::new());
        let after = engine.wal().stats();
        assert_eq!(after.appends - before.appends, 0);
        assert_eq!(after.flushes - before.flushes, 0);
        assert_eq!(after.fsyncs - before.fsyncs, 0);
    }

    #[test]
    fn ids_issued_before_a_crash_are_refused_after_it() {
        let engine = StorageEngine::new(4);
        let (wrote, idle) = (engine.begin(), engine.begin());
        engine.insert(wrote, b"lost", None).unwrap();
        engine.crash();
        engine.recover().unwrap();
        assert!(engine.commit(wrote).is_err(), "recovery undid its write");
        assert!(engine.abort(idle).is_err());
        assert!(engine.insert(idle, b"x", None).is_err());
        engine.commit(engine.begin()).unwrap();
    }

    #[test]
    fn growing_update_relocates_when_page_full() {
        let engine = StorageEngine::new(8);
        let txn = engine.begin();
        // Fill a page almost completely.
        let big = vec![1u8; 1900];
        let r1 = engine.insert(txn, &big, None).unwrap();
        let r2 = engine.insert(txn, &big, None).unwrap();
        assert_eq!(r1.page, r2.page);
        // Growing r1 beyond the page forces relocation; rid changes.
        let huge = vec![2u8; 3000];
        let r1b = engine.update(txn, r1, &huge).unwrap();
        assert_ne!(r1b.page, r1.page);
        assert_eq!(engine.read(r1b).unwrap(), huge);
        assert!(engine.read(r1).is_err(), "old rid is dead");
        engine.commit(txn).unwrap();
    }

    #[test]
    fn long_records_chain_across_pages() {
        let engine = StorageEngine::new(8);
        let txn = engine.begin();
        // Three pages' worth of "multimedia" data.
        let blob: Vec<u8> = (0..3 * slotted::MAX_RECORD).map(|i| (i % 251) as u8).collect();
        let rid = engine.insert(txn, &blob, None).unwrap();
        assert_eq!(engine.read(rid).unwrap(), blob);
        assert!(engine.exists(rid).unwrap());
        // Scan reports the logical record once, reassembled.
        let mut seen = Vec::new();
        engine.scan_all(|r, bytes| seen.push((r, bytes.len()))).unwrap();
        assert_eq!(seen, vec![(rid, blob.len())]);
        // Update to an even longer chain.
        let bigger: Vec<u8> = (0..4 * slotted::MAX_RECORD).map(|i| (i % 13) as u8).collect();
        let rid2 = engine.update(txn, rid, &bigger).unwrap();
        assert_eq!(engine.read(rid2).unwrap(), bigger);
        // And back down to a small in-page record.
        let rid3 = engine.update(txn, rid2, b"tiny").unwrap();
        assert_eq!(engine.read(rid3).unwrap(), b"tiny");
        engine.commit(txn).unwrap();
        // Only the logical record remains after all that churn.
        let mut count = 0;
        engine.scan_all(|_, _| count += 1).unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn read_slots_serves_a_page_in_one_access() {
        let engine = StorageEngine::new(8);
        let txn = engine.begin();
        let a = engine.insert(txn, b"alpha", None).unwrap();
        let b = engine.insert(txn, b"", Some(a.page)).unwrap();
        let gone = engine.insert(txn, b"doomed", Some(a.page)).unwrap();
        let blob = vec![7u8; 2 * slotted::MAX_RECORD];
        let head = engine.insert(txn, &blob, None).unwrap();
        engine.delete(txn, gone).unwrap();
        engine.commit(txn).unwrap();
        assert_eq!((a.page, a.page), (b.page, gone.page), "the hints co-located them");

        let accesses = |s: crate::PoolStats| s.hits + s.misses;
        let before = accesses(engine.pool().stats());
        let (mut buf, mut cells) = (b"earlier page".to_vec(), Vec::new());
        engine.read_slots(a.page, &[b.slot, gone.slot, a.slot, 999], &mut buf, &mut cells).unwrap();
        let after = accesses(engine.pool().stats());
        assert_eq!(after - before, 1, "one pool access for the whole page");
        assert_eq!(cells.len(), 4);
        let SlotRead::Whole(empty) = &cells[0] else { panic!("{:?}", cells[0]) };
        assert!(empty.is_empty(), "an empty record is still a record");
        assert_eq!(cells[1], SlotRead::Absent, "deleted");
        let SlotRead::Whole(range) = &cells[2] else { panic!("{:?}", cells[2]) };
        assert_eq!(&buf[range.clone()], b"alpha", "appended after what the buffer held");
        assert_eq!(cells[3], SlotRead::Absent, "slot out of range");

        // A chain's head is reported, its tail segment is not a record.
        cells.clear();
        engine.read_slots(head.page, &[head.slot], &mut buf, &mut cells).unwrap();
        assert_eq!(cells, vec![SlotRead::Chained]);
        let tail = engine.chain_rids(head).unwrap()[1];
        cells.clear();
        engine.read_slots(tail.page, &[tail.slot], &mut buf, &mut cells).unwrap();
        assert_eq!(cells, vec![SlotRead::Absent]);
    }

    #[test]
    fn long_record_survives_crash_and_rolls_back() {
        let engine = StorageEngine::new(4);
        let blob: Vec<u8> = (0..2 * slotted::MAX_RECORD + 77).map(|i| (i % 199) as u8).collect();
        let t1 = engine.begin();
        let committed = engine.insert(t1, &blob, None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        let doomed = engine.insert(t2, &blob, None).unwrap();
        engine.wal().flush().unwrap();
        let _ = doomed;
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(committed).unwrap(), blob, "chain intact after recovery");
        let mut count = 0;
        engine.scan_all(|_, _| count += 1).unwrap();
        assert_eq!(count, 1, "loser chain fully undone");

        // Abort path: a chain delete rolls back as a unit.
        let t3 = engine.begin();
        engine.delete(t3, committed).unwrap();
        engine.abort(t3).unwrap();
        assert_eq!(engine.read(committed).unwrap(), blob);
    }

    #[test]
    fn absurdly_large_record_rejected() {
        let engine = StorageEngine::new(4);
        let txn = engine.begin();
        let too_big = vec![0u8; StorageEngine::MAX_LOGICAL_RECORD + 1];
        assert!(engine.insert(txn, &too_big, None).is_err());
        engine.commit(txn).unwrap();
    }

    #[test]
    fn placement_hint_clusters_records() {
        let engine = StorageEngine::new(16);
        let txn = engine.begin();
        let root = engine.insert(txn, b"root", None).unwrap();
        // Fill elsewhere so the default choice would differ.
        for _ in 0..10 {
            engine.insert(txn, &[7u8; 64], None).unwrap();
        }
        let part = engine.insert(txn, b"part", Some(root.page)).unwrap();
        assert_eq!(part.page, root.page, "hint honored while space remains");
        engine.commit(txn).unwrap();
    }

    #[test]
    fn many_records_span_pages_and_scan_finds_all() {
        let engine = StorageEngine::new(8);
        let txn = engine.begin();
        let payload = vec![9u8; 512];
        let mut rids = Vec::new();
        for _ in 0..50 {
            rids.push(engine.insert(txn, &payload, None).unwrap());
        }
        engine.commit(txn).unwrap();
        assert!(engine.disk().page_count() > 1, "spilled to multiple pages");
        assert_eq!(collect(&engine).len(), 50);
        for rid in rids {
            assert_eq!(engine.read(rid).unwrap().len(), 512);
        }
    }

    #[test]
    fn operations_on_unknown_txn_fail() {
        let engine = StorageEngine::new(4);
        let ghost = TxnId(999);
        assert!(engine.insert(ghost, b"x", None).is_err());
        assert!(engine.commit(ghost).is_err());
        assert!(engine.abort(ghost).is_err());
        assert!(engine.prepare(ghost).is_err());
        // A write enters the table before it changes a page or logs, so
        // a refused one leaves neither.
        assert_eq!((engine.wal().stats().appends, engine.disk().page_count()), (0, 0));
        // A prepared transaction is in the table, and writes no more.
        let prepared = engine.begin();
        engine.insert(prepared, b"x", None).unwrap();
        engine.prepare(prepared).unwrap();
        assert!(engine.insert(prepared, b"y", None).is_err());
    }

    use crate::fault::{FaultKind, FaultPlan};

    #[test]
    fn torn_commit_flush_resolves_at_recovery() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let base = engine.insert(t1, b"base", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        let maybe = engine.insert(t2, b"maybe", None).unwrap();
        engine.install_faults(FaultPlan::new(77).fail_nth(FaultKind::PartialFlush, 1));
        let outcome = engine.commit(t2);
        assert!(outcome.is_err(), "partial flush surfaces as an error");
        engine.clear_faults();
        engine.crash();
        engine.recover().unwrap();
        // The commit is in doubt, but the outcome must be atomic: either
        // both records exist or only the committed base does.
        assert_eq!(engine.read(base).unwrap(), b"base");
        let n = collect(&engine).len();
        match engine.read(maybe) {
            Ok(bytes) => {
                assert_eq!(bytes, b"maybe");
                assert_eq!(n, 2);
            }
            Err(_) => assert_eq!(n, 1),
        }
        let rs = engine.recovery_stats();
        assert_eq!(rs.completed, 1);
        assert!(engine.fault_stats().partial_flushes >= 1);
    }

    #[test]
    fn bit_rotted_page_is_repaired_by_full_replay() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let a = engine.insert(t1, b"alpha", None).unwrap();
        let b = engine.insert(t1, b"bravo", None).unwrap();
        engine.commit(t1).unwrap();
        engine.checkpoint().unwrap();
        // Rot the page after the checkpoint wrote it out.
        engine.install_faults(FaultPlan::new(123).fail_nth(FaultKind::BitFlip, 1));
        engine.crash();
        assert!(
            matches!(engine.read(a), Err(DbError::Corruption(_))),
            "rot detected on read"
        );
        engine.clear_faults();
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(a).unwrap(), b"alpha", "page rebuilt from the log");
        assert_eq!(engine.read(b).unwrap(), b"bravo");
        assert_eq!(engine.recovery_stats().pages_repaired, 1);
    }

    #[test]
    fn injected_read_error_is_clean_and_transient() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let rid = engine.insert(t1, b"blip", None).unwrap();
        engine.commit(t1).unwrap();
        engine.pool().flush_all().unwrap();
        engine.pool().crash(); // drop the cached frame so reads hit the disk
        engine.install_faults(FaultPlan::new(9).fail_nth(FaultKind::ReadError, 1));
        let err = engine.read(rid).unwrap_err();
        assert!(matches!(err, DbError::Storage(_)), "transient I/O error: {err:?}");
        // The next read succeeds: nothing was damaged.
        assert_eq!(engine.read(rid).unwrap(), b"blip");
    }

    #[test]
    fn prepared_txn_survives_crash_as_in_doubt() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let base = engine.insert(t1, b"base", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        let staged = engine.insert(t2, b"staged", None).unwrap();
        engine.update(t2, base, b"mut!").unwrap();
        engine.prepare(t2).unwrap();
        assert_eq!(engine.prepared_txns(), vec![t2.0]);
        assert!(engine.checkpoint().is_err(), "checkpoint must exclude in-doubt txns");

        engine.crash();
        engine.recover().unwrap();
        // Reinstated, not undone: the redo left its effects in place.
        assert_eq!(engine.prepared_txns(), vec![t2.0]);
        assert_eq!(engine.read(staged).unwrap(), b"staged");
        assert_eq!(engine.read(base).unwrap(), b"mut!");

        // Coordinator decides commit: effects are final and durable.
        assert!(engine.commit_prepared(t2).unwrap());
        engine.crash();
        engine.recover().unwrap();
        assert!(engine.prepared_txns().is_empty());
        assert_eq!(engine.read(staged).unwrap(), b"staged");
        assert_eq!(engine.read(base).unwrap(), b"mut!");
    }

    #[test]
    fn abort_prepared_rolls_back_after_recovery() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let base = engine.insert(t1, b"base", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        let staged = engine.insert(t2, b"staged", None).unwrap();
        engine.update(t2, base, b"mut!").unwrap();
        engine.prepare(t2).unwrap();
        engine.crash();
        engine.recover().unwrap();

        // Coordinator decides abort: the retained undo state rolls the
        // reinstated transaction back completely.
        assert!(engine.abort_prepared(t2).unwrap().is_some());
        assert!(engine.prepared_txns().is_empty());
        assert!(engine.read(staged).is_err(), "staged insert removed");
        assert_eq!(engine.read(base).unwrap(), b"base", "update undone");
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.read(base).unwrap(), b"base", "abort is durable");
        assert_eq!(collect(&engine).len(), 1);
    }

    #[test]
    fn prepared_decisions_are_idempotent_by_txn_id() {
        let engine = StorageEngine::new(4);
        let t = engine.begin();
        engine.insert(t, b"x", None).unwrap();
        engine.prepare(t).unwrap();
        assert!(engine.commit_prepared(t).unwrap(), "first decision applies");
        assert!(!engine.commit_prepared(t).unwrap(), "retransmission is a no-op");
        assert!(engine.abort_prepared(t).unwrap().is_none(), "late conflicting frame is a no-op");

        // An *active* transaction rejects phase-two verbs outright.
        let t2 = engine.begin();
        engine.insert(t2, b"y", None).unwrap();
        assert!(engine.commit_prepared(t2).is_err());
        assert!(engine.abort_prepared(t2).is_err());
        engine.commit(t2).unwrap();
    }

    #[test]
    fn crash_mid_abort_prepared_finishes_via_reinstatement() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let base = engine.insert(t1, b"base", None).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin();
        engine.update(t2, base, b"bad!").unwrap();
        engine.insert(t2, b"extra", None).unwrap();
        engine.prepare(t2).unwrap();
        // The abort decision lands, but its Abort record never reaches
        // stable storage: only the CLRs (flushed as a side effect of the
        // next force) survive the crash.
        engine.abort_prepared(t2).unwrap();
        engine.crash();
        engine.recover().unwrap();
        // Whether the Abort record survived or not, the outcome must be
        // a full rollback — either already aborted, or reinstated with
        // only the uncompensated suffix left to undo.
        if engine.prepared_txns().contains(&t2.0) {
            assert!(engine.abort_prepared(t2).unwrap().is_some());
        }
        assert_eq!(engine.read(base).unwrap(), b"base");
        assert_eq!(collect(&engine).len(), 1);
    }

    #[test]
    fn recovery_failure_is_counted_and_retry_succeeds() {
        let engine = StorageEngine::new(4);
        let t1 = engine.begin();
        let rid = engine.insert(t1, b"kept", None).unwrap();
        engine.commit(t1).unwrap();
        engine.pool().flush_all().unwrap();
        engine.crash();
        // A read error during the restart scrub fails recovery cleanly.
        engine.install_faults(FaultPlan::new(4).fail_nth(FaultKind::ReadError, 1));
        assert!(engine.recover().is_err());
        engine.clear_faults();
        engine.recover().unwrap();
        assert_eq!(engine.read(rid).unwrap(), b"kept");
        let rs = engine.recovery_stats();
        assert_eq!((rs.failed, rs.completed), (1, 1));
    }
}
