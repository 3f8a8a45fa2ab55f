//! The coordinator's durable decision log.
//!
//! Two-phase commit's one forced coordinator write: once every
//! participant has acknowledged PREPARE, the commit decision is
//! appended here and fsynced *before* any `CommitPrepared` goes out.
//! A coordinator that crashes between the phases replays this log on
//! restart and pushes the logged outcome to every in-doubt
//! participant; a transaction with no logged decision is aborted
//! (presumed abort), so abort decisions never need to be logged for
//! correctness — they are recorded anyway for observability.
//!
//! Each entry is one `orion_storage::frame`, the WAL's frame:
//! `[len u32][crc32 u32][body]`, body =
//! `gtid u64 | commit u8 | n u32 | (shard u32, local_txn u64) * n`,
//! all little-endian. Replay runs the WAL's frame scanner, so the
//! WAL's corruption rule holds here too: a torn or corrupt frame with
//! nothing valid after it is a torn tail from a crash mid-append,
//! truncated away and read as "no decision" — which presumed abort
//! makes safe; a corrupt frame *followed by* an intact one means
//! logged decisions are damaged, and opening the log fails with
//! `DbError::Corruption`, leaving the file as it is. The log lives in
//! an `orion_storage` byte store, in memory or in a file.

use std::path::PathBuf;

use orion_storage::frame::{put_frame, scan};
use orion_storage::{ByteStore, FileStore, MemStore};
use orion_types::wire::{get_count, get_u32, get_u64, get_u8};
use orion_types::{DbError, DbResult};
use parking_lot::Mutex;

/// A logged coordinator outcome for one global transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Coordinator-local global transaction id.
    pub gtid: u64,
    /// `true` = commit, `false` = abort.
    pub commit: bool,
    /// The participants as `(shard index, shard-local txn id)` pairs.
    pub participants: Vec<(u32, u64)>,
}

/// Where the decision log lives.
#[derive(Debug, Clone)]
pub enum DecisionLogSpec {
    /// Volatile: decisions survive only as long as the router. Fine
    /// for tests and for clusters whose shards are also in-memory.
    Memory,
    /// An append-only file, fsynced per decision.
    File(PathBuf),
}

/// The decision log: replayed on open, appended on every commit
/// decision, consulted by in-doubt resolution.
pub struct DecisionLog {
    store: Box<dyn ByteStore>,
    entries: Mutex<Vec<Decision>>,
}

/// A store failure, reported as the coordinator's own.
fn shard_err(e: DbError) -> DbError {
    DbError::Shard(format!("decision log: {e}"))
}

fn encode(d: &Decision) -> Vec<u8> {
    let mut body = Vec::with_capacity(13 + 12 * d.participants.len());
    body.extend_from_slice(&d.gtid.to_le_bytes());
    body.push(u8::from(d.commit));
    body.extend_from_slice(&(d.participants.len() as u32).to_le_bytes());
    for &(shard, txn) in &d.participants {
        body.extend_from_slice(&shard.to_le_bytes());
        body.extend_from_slice(&txn.to_le_bytes());
    }
    let mut frame = Vec::new();
    put_frame(&mut frame, &body);
    frame
}

fn decode(mut body: &[u8]) -> DbResult<Decision> {
    let buf = &mut body;
    let gtid = get_u64(buf)?;
    let commit = get_u8(buf)? != 0;
    let participants = (0..get_count(buf, 12)?)
        .map(|_| Ok((get_u32(buf)?, get_u64(buf)?)))
        .collect::<DbResult<_>>()?;
    if !buf.is_empty() {
        return Err(DbError::Protocol("trailing bytes after a decision".into()));
    }
    Ok(Decision { gtid, commit, participants })
}

impl DecisionLog {
    /// Open and replay the log.
    pub fn open(spec: &DecisionLogSpec) -> DbResult<DecisionLog> {
        let store: Box<dyn ByteStore> = match spec {
            DecisionLogSpec::Memory => Box::new(MemStore::flat()),
            DecisionLogSpec::File(path) => Box::new(FileStore::open(path).map_err(shard_err)?),
        };
        let (entries, valid) = scan(&store.lend().map_err(shard_err)?, decode)?;
        if valid < store.len() as usize {
            // Torn tail from a crash mid-append: drop it so the next
            // append starts on a frame boundary.
            store.truncate(valid as u64).map_err(shard_err)?;
        }
        let entries = entries.into_iter().map(|(_, d)| d).collect();
        Ok(DecisionLog { store, entries: Mutex::new(entries) })
    }

    /// The next unused global transaction id.
    pub fn next_gtid(&self) -> u64 {
        self.entries.lock().iter().map(|d| d.gtid).max().unwrap_or(0) + 1
    }

    /// Durably append a decision. For file-backed logs the entry is
    /// written and fsynced before this returns; only then may the
    /// coordinator send phase two.
    pub fn record(&self, decision: Decision) -> DbResult<()> {
        let mut entries = self.entries.lock();
        self.store.append(&encode(&decision)).map_err(shard_err)?;
        self.store.sync().map_err(shard_err)?;
        entries.push(decision);
        Ok(())
    }

    /// The logged outcome for a participant, if any: `Some(true)` =
    /// commit, `Some(false)` = explicit abort, `None` = no decision
    /// (presumed abort).
    pub fn decision_for(&self, shard: u32, local_txn: u64) -> Option<bool> {
        self.entries
            .lock()
            .iter()
            .rev()
            .find(|d| d.participants.contains(&(shard, local_txn)))
            .map(|d| d.commit)
    }

    /// All logged decisions, oldest first.
    pub fn decisions(&self) -> Vec<Decision> {
        self.entries.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(gtid: u64, commit: bool, parts: &[(u32, u64)]) -> Decision {
        Decision { gtid, commit, participants: parts.to_vec() }
    }

    #[test]
    fn memory_log_records_and_resolves() {
        let log = DecisionLog::open(&DecisionLogSpec::Memory).unwrap();
        assert_eq!(log.next_gtid(), 1);
        log.record(d(1, true, &[(0, 7), (1, 3)])).unwrap();
        log.record(d(2, false, &[(0, 8)])).unwrap();
        assert_eq!(log.next_gtid(), 3);
        assert_eq!(log.decision_for(0, 7), Some(true));
        assert_eq!(log.decision_for(1, 3), Some(true));
        assert_eq!(log.decision_for(0, 8), Some(false));
        assert_eq!(log.decision_for(1, 8), None);
    }

    #[test]
    fn file_log_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("orion-dlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.dlog");
        let _ = std::fs::remove_file(&path);
        let spec = DecisionLogSpec::File(path.clone());
        {
            let log = DecisionLog::open(&spec).unwrap();
            log.record(d(1, true, &[(0, 5), (2, 9)])).unwrap();
            log.record(d(2, false, &[(1, 6)])).unwrap();
        }
        let log = DecisionLog::open(&spec).unwrap();
        assert_eq!(log.decisions().len(), 2);
        assert_eq!(log.decision_for(2, 9), Some(true));
        assert_eq!(log.decision_for(1, 6), Some(false));
        assert_eq!(log.next_gtid(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_presumed_abort() {
        let dir = std::env::temp_dir().join(format!("orion-dlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.dlog");
        let _ = std::fs::remove_file(&path);
        let spec = DecisionLogSpec::File(path.clone());
        {
            let log = DecisionLog::open(&spec).unwrap();
            log.record(d(1, true, &[(0, 5)])).unwrap();
            log.record(d(2, true, &[(1, 6)])).unwrap();
        }
        // Tear the last frame mid-body, as a crash mid-append would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let log = DecisionLog::open(&spec).unwrap();
        assert_eq!(log.decisions().len(), 1);
        assert_eq!(log.decision_for(0, 5), Some(true));
        // The torn decision is gone: presumed abort.
        assert_eq!(log.decision_for(1, 6), None);
        // And the file was healed: a new append lands on a clean boundary.
        log.record(d(2, false, &[(1, 6)])).unwrap();
        let log = DecisionLog::open(&spec).unwrap();
        assert_eq!(log.decisions().len(), 2);
        assert_eq!(log.decision_for(1, 6), Some(false));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = std::env::temp_dir().join(format!("orion-dlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crc.dlog");
        let _ = std::fs::remove_file(&path);
        let spec = DecisionLogSpec::File(path.clone());
        {
            let log = DecisionLog::open(&spec).unwrap();
            log.record(d(1, true, &[(0, 5)])).unwrap();
            log.record(d(2, true, &[(0, 6)])).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a bit in the second frame's body
        std::fs::write(&path, &bytes).unwrap();
        let log = DecisionLog::open(&spec).unwrap();
        assert_eq!(log.decisions().len(), 1);
        assert_eq!(log.decision_for(0, 6), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_refuses_to_open() {
        let dir = std::env::temp_dir().join(format!("orion-dlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interior.dlog");
        let _ = std::fs::remove_file(&path);
        let spec = DecisionLogSpec::File(path.clone());
        {
            let log = DecisionLog::open(&spec).unwrap();
            for gtid in 1..=3 {
                log.record(d(gtid, true, &[(0, gtid + 4), (1, gtid + 8)])).unwrap();
            }
        }
        // Rot one byte of the first frame's body: the two decisions after
        // it are intact, so this is no torn tail but lost history.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = DecisionLog::open(&spec).err().expect("a damaged interior must not open");
        assert!(matches!(err, DbError::Corruption(_)), "{err:?}");
        // Nothing was truncated: the damage stays for an operator to see.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
    }
}
