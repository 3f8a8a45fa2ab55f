//! System-state persistence: the catalog, index definitions, and view
//! definitions are stored as one reserved record in the same
//! WAL-protected heap as the objects, so a cold restart recovers the
//! schema exactly like it recovers data.
//!
//! Method *bodies* are native Rust closures and cannot be persisted —
//! the application re-registers them at startup (as with native UDFs in
//! any database); their catalog signatures and late-binding resolution
//! survive.

use crate::database::Database;
use crate::runtime::Runtime;
use crate::sysattr;
use orion_index::{IndexDef, IndexInstance, IndexKind};
use orion_schema::Catalog;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbError, DbResult, Oid, Value};

use bytes::{Buf, BufMut};

/// The class id reserved for the system-state record (never a user
/// class: the catalog refuses to allocate it).
pub const SYSTEM_CLASS: ClassId = ClassId(u16::MAX - 1);

/// The OID under which the system-state record is stored.
pub const SYSTEM_OID: Oid = Oid::from_raw(((SYSTEM_CLASS.0 as u64) << 48) | 1);

const MAGIC: u32 = 0x0D10_5757; // "orion system state"

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> DbResult<String> {
    if buf.remaining() < 4 {
        return Err(DbError::Storage("truncated system snapshot".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DbError::Storage("truncated system snapshot string".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| DbError::Storage("invalid UTF-8 in system snapshot".into()))?;
    buf.advance(len);
    Ok(s)
}

/// The decoded system state.
pub(crate) struct SystemState {
    pub catalog: Catalog,
    pub index_defs: Vec<IndexDef>,
    pub next_index_id: u32,
    pub views: Vec<(String, String)>,
}

fn encode_state(
    catalog: &Catalog,
    index_defs: &[IndexDef],
    next_index_id: u32,
    views: &[(String, String)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(2048);
    out.put_u32_le(MAGIC);
    let cat = catalog.snapshot();
    out.put_u32_le(cat.len() as u32);
    out.put_slice(&cat);
    out.put_u32_le(next_index_id);
    out.put_u32_le(index_defs.len() as u32);
    for def in index_defs {
        out.put_u32_le(def.id);
        put_str(&mut out, &def.name);
        out.put_u8(match def.kind {
            IndexKind::SingleClass => 0,
            IndexKind::ClassHierarchy => 1,
            IndexKind::Nested => 2,
        });
        out.put_u16_le(def.target.0);
        out.put_u16_le(def.path.len() as u16);
        for p in &def.path {
            out.put_u32_le(*p);
        }
    }
    out.put_u32_le(views.len() as u32);
    for (name, body) in views {
        put_str(&mut out, name);
        put_str(&mut out, body);
    }
    out
}

fn decode_state(mut bytes: &[u8]) -> DbResult<SystemState> {
    let buf = &mut bytes;
    if buf.remaining() < 8 {
        return Err(DbError::Storage("truncated system snapshot header".into()));
    }
    if buf.get_u32_le() != MAGIC {
        return Err(DbError::Storage("bad system snapshot magic".into()));
    }
    let cat_len = buf.get_u32_le() as usize;
    if buf.remaining() < cat_len {
        return Err(DbError::Storage("truncated catalog in system snapshot".into()));
    }
    let catalog = Catalog::restore(&buf[..cat_len])?;
    buf.advance(cat_len);
    if buf.remaining() < 8 {
        return Err(DbError::Storage("truncated index header".into()));
    }
    let next_index_id = buf.get_u32_le();
    let n_indexes = buf.get_u32_le() as usize;
    let mut index_defs = Vec::with_capacity(n_indexes);
    for _ in 0..n_indexes {
        if buf.remaining() < 4 {
            return Err(DbError::Storage("truncated index def".into()));
        }
        let id = buf.get_u32_le();
        let name = get_str(buf)?;
        let kind = match buf.get_u8() {
            0 => IndexKind::SingleClass,
            1 => IndexKind::ClassHierarchy,
            2 => IndexKind::Nested,
            other => return Err(DbError::Storage(format!("bad index kind {other}"))),
        };
        let target = ClassId(buf.get_u16_le());
        let path_len = buf.get_u16_le() as usize;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            path.push(buf.get_u32_le());
        }
        index_defs.push(IndexDef { id, name, kind, target, path });
    }
    if buf.remaining() < 4 {
        return Err(DbError::Storage("truncated views header".into()));
    }
    let n_views = buf.get_u32_le() as usize;
    let mut views = Vec::with_capacity(n_views);
    for _ in 0..n_views {
        let name = get_str(buf)?;
        let body = get_str(buf)?;
        views.push((name, body));
    }
    Ok(SystemState { catalog, index_defs, next_index_id, views })
}

impl Database {
    /// Persist the catalog, index definitions, and views as the system
    /// record. Called by DDL paths after they commit their change.
    pub(crate) fn persist_system_state(&self) -> DbResult<()> {
        let bytes = {
            let catalog = self.catalog.read();
            let rt = self.rt_read();
            let defs: Vec<IndexDef> =
                rt.indexes.read().iter().map(|i| i.def.clone()).collect();
            let views: Vec<(String, String)> = {
                let v = self.views.read();
                let mut pairs: Vec<_> =
                    v.iter().map(|(k, b)| (k.clone(), b.clone())).collect();
                pairs.sort();
                pairs
            };
            encode_state(
                &catalog,
                &defs,
                rt.next_index_id.load(std::sync::atomic::Ordering::Relaxed),
                &views,
            )
        };
        let record = ObjectRecord::new(
            SYSTEM_OID,
            0,
            vec![(sysattr::ATTR_SYSTEM_SNAPSHOT, Value::Blob(bytes))],
        );
        let tx = self.begin();
        let rt = self.rt_read();
        // The rid slot's mutex spans read-modify-write, so two
        // concurrent DDL persists serialize on it rather than both
        // inserting a fresh system record.
        let mut rid_slot = rt.system_rid.lock();
        let written = match *rid_slot {
            Some(rid) => self.engine.update(tx.storage, rid, &record.encode()),
            None => self.engine.insert(tx.storage, &record.encode(), None),
        };
        match written {
            Ok(rid) => {
                *rid_slot = Some(rid);
                drop(rid_slot);
                drop(rt);
                self.commit(tx)
            }
            Err(e) => {
                // The record lives outside the version store, so no
                // rollback restores the slot: undo storage while the
                // slot still names the rid the record returns to.
                self.engine.abort(tx.storage)?;
                Err(e)
            }
        }
    }

    /// Decode a scanned system record (rebuild path).
    pub(crate) fn decode_system_record(record: &ObjectRecord) -> DbResult<SystemState> {
        let blob = record
            .attrs
            .iter()
            .find_map(|(_, v)| match v {
                Value::Blob(b) => Some(b),
                _ => None,
            })
            .ok_or_else(|| DbError::Storage("system record holds no blob".into()))?;
        decode_state(blob)
    }

    /// Simulate a full process restart: volatile state *and* the
    /// in-memory catalog/views/indexes are wiped, then recovered from
    /// the WAL, pages, and the persisted system record. Method bodies
    /// must be re-registered by the caller afterwards.
    pub fn simulate_cold_restart(&self) -> DbResult<()> {
        {
            let mut catalog = self.catalog.write();
            let rt = self.rt_write();
            self.engine.crash();
            self.locks.reset();
            self.mvcc.reset();
            *catalog = Catalog::new();
            self.views.write().clear();
            *self.methods.write() = crate::methods::MethodRegistry::new();
            rt.indexes.write().clear();
            rt.next_index_id.store(1, std::sync::atomic::Ordering::Relaxed);
            *rt.system_rid.lock() = None;
            self.engine.recover()?;
            self.rebuild_runtime(&mut catalog, &rt)?;
        }
        // Prepared transactions survive the restart as in-doubt; their
        // exclusive locks and staged writes are re-asserted so phase two
        // finds them held.
        self.reinstate_in_doubt();
        Ok(())
    }
}

/// Install decoded system state into the database (called from
/// `rebuild_runtime`, which holds the catalog write lock and the
/// exclusive maintenance gate — in that order).
pub(crate) fn install_state(
    db: &Database,
    catalog: &mut Catalog,
    rt: &Runtime,
    state: SystemState,
) {
    *catalog = state.catalog;
    let mut views = db.views.write();
    views.clear();
    for (name, body) in state.views {
        views.insert(name, body);
    }
    *rt.indexes.write() = state.index_defs.into_iter().map(IndexInstance::new).collect();
    rt.next_index_id.store(state.next_index_id, std::sync::atomic::Ordering::Relaxed);
}
