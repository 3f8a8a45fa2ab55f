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
use orion_types::wire::{get_bytes, get_count, get_count16, get_str, get_u16, get_u32};
use orion_types::wire::{put_bytes, put_str, retag};
use orion_types::{ClassId, DbError, DbResult, Oid, Value};

use bytes::BufMut;

/// The class id reserved for the system-state record (never a user
/// class: the catalog refuses to allocate it).
pub const SYSTEM_CLASS: ClassId = ClassId(u16::MAX - 1);

/// The OID under which the system-state record is stored.
pub const SYSTEM_OID: Oid = Oid::from_raw(((SYSTEM_CLASS.0 as u64) << 48) | 1);

const MAGIC: u32 = 0x0D10_5757; // "orion system state"

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
    put_bytes(&mut out, &catalog.snapshot());
    out.put_u32_le(next_index_id);
    out.put_u32_le(index_defs.len() as u32);
    for def in index_defs {
        out.put_u32_le(def.id);
        put_str(&mut out, &def.name);
        out.put_u8(def.kind.tag());
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
    read_state(&mut bytes).map_err(retag(DbError::Storage))
}

fn read_state(buf: &mut &[u8]) -> DbResult<SystemState> {
    if get_u32(buf)? != MAGIC {
        return Err(DbError::Storage("bad system snapshot magic".into()));
    }
    let catalog = Catalog::restore(get_bytes(buf)?)?;
    let next_index_id = get_u32(buf)?;
    // An index definition is at least 13 bytes, a view 8.
    let index_defs = (0..get_count(buf, 13)?)
        .map(|_| {
            Ok(IndexDef {
                id: get_u32(buf)?,
                name: get_str(buf)?,
                kind: IndexKind::decode(buf)?,
                target: ClassId(get_u16(buf)?),
                path: (0..get_count16(buf, 4)?).map(|_| get_u32(buf)).collect::<DbResult<_>>()?,
            })
        })
        .collect::<DbResult<_>>()?;
    let views = (0..get_count(buf, 8)?)
        .map(|_| Ok((get_str(buf)?, get_str(buf)?)))
        .collect::<DbResult<_>>()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use orion_schema::AttrSpec;
    use orion_types::{Domain, PrimitiveType};
    use proptest::prelude::*;

    fn sample() -> Vec<u8> {
        let mut catalog = Catalog::new();
        let vehicle = catalog
            .create_class(
                "Vehicle",
                &[],
                vec![AttrSpec::new("w", Domain::Primitive(PrimitiveType::Int))],
            )
            .unwrap();
        let def =
            |id, kind, path| IndexDef { id, name: format!("i{id}"), kind, target: vehicle, path };
        let defs =
            [def(1, IndexKind::ClassHierarchy, vec![1]), def(2, IndexKind::Nested, vec![1, 2])];
        encode_state(&catalog, &defs, 3, &[("heavy".into(), "select v from Vehicle v".into())])
    }

    #[test]
    fn state_roundtrips_and_every_truncation_is_a_storage_error() {
        let bytes = sample();
        let state = decode_state(&bytes).unwrap();
        assert_eq!((state.index_defs.len(), state.next_index_id, state.views.len()), (2, 3, 1));
        assert_eq!(state.index_defs[1].kind, IndexKind::Nested);
        for cut in 0..bytes.len() {
            let err = decode_state(&bytes[..cut]).err().expect("a cut state must fail");
            assert!(matches!(err, DbError::Storage(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversized_counts_fail_before_allocating() {
        let catalog = Catalog::new().snapshot();
        // An empty catalog, next index id 1, then `tail`.
        let state = |tail: &[u8]| {
            let mut out = MAGIC.to_le_bytes().to_vec();
            put_bytes(&mut out, &catalog);
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(tail);
            out
        };
        assert!(decode_state(&state(&[0; 8])).is_ok(), "no indexes, no views");
        let u32_max = u32::MAX.to_le_bytes();
        let many_indexes = state(&u32_max);
        // One index (id 0, name "", kind 0, class 0) on a 65 535-step path.
        let long_path = state(&[&1u32.to_le_bytes()[..], &[0; 11], &[0xFF; 2]].concat());
        let many_views = state(&[&0u32.to_le_bytes()[..], &u32_max].concat());
        for bytes in [many_indexes, long_path, many_views] {
            assert!(matches!(decode_state(&bytes), Err(DbError::Storage(_))), "{bytes:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn flips_and_random_bytes_decode_or_fail_cleanly(
            at in any::<usize>(),
            mask in 1u8..255,
            noise in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut bytes = sample();
            let len = bytes.len();
            bytes[at % len] ^= mask;
            let _ = decode_state(&bytes);
            let _ = decode_state(&noise);
        }
    }
}
