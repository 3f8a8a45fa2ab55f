//! Derived-state maintenance: one change function for every write, its
//! undo, and the restart rebuild.
//!
//! The directory, the extents, the reverse-reference graph, composite
//! ownership, every index and the object cache are functions of the
//! stored records. `Database::apply_change` moves all of them from an
//! object's `before` image to its `after` image; a forward write runs
//! it once its storage call has succeeded (`write_object`), a rollback
//! runs it backwards for each object the transaction wrote (`undo`),
//! and a restart runs it for every record (`rebuild_runtime`).
//!
//! Nested indexes (\[BERT89\]) are the case the paper's §3.2 motivates:
//! when an object that sits *in the middle* of an indexed aggregation
//! path changes, every root whose path runs through it must be re-keyed.
//! orion finds those roots by climbing the reverse-reference graph along
//! the index path prefix — the standard technique — and diffs each
//! root's key set before/after the change (`nested_snapshot`, then
//! `nested_apply_diff`), once per change however many objects it spans.
//!
//! Locking: maintenance runs under the *shared* maintenance gate with
//! the caller's 2PL locks providing isolation (a rollback holds the
//! transaction's X locks until it is done); each component's own lock
//! guards structural integrity. Index *positions* in the `Vec` are
//! stable here because create/drop index take the exclusive gate, which
//! cannot be granted while any mutator holds the shared gate.

use crate::database::{adapt_to, Database, Tx};
use crate::runtime::Runtime;
use orion_index::{IndexDef, IndexImpl, IndexInstance, IndexKind};
use orion_schema::{Catalog, ResolvedClass};
use orion_storage::{PageId, Records, Rid};
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbError, DbResult, Oid, Value};
use std::collections::{hash_map::Entry, HashMap, HashSet};
use std::sync::Arc;

/// Scalar key values contributed by an attribute value (sets flatten,
/// nulls drop out).
pub(crate) fn keys_of(value: &Value) -> Vec<Value> {
    match value {
        Value::Null => Vec::new(),
        Value::Set(items) | Value::List(items) => {
            items.iter().flat_map(keys_of).collect()
        }
        other => vec![other.clone()],
    }
}

/// The objects a value references.
pub(crate) fn refs(value: &Value) -> Vec<Oid> {
    let mut out = Vec::new();
    value.collect_refs(&mut out);
    out
}

/// `attr`'s stored value on `record`, if both exist.
fn stored(record: Option<&ObjectRecord>, attr: u32) -> Option<&Value> {
    record.and_then(|r| r.get(attr))
}

/// The attribute ids `record` stores.
fn stored_ids(record: Option<&ObjectRecord>) -> impl Iterator<Item = u32> + '_ {
    record.into_iter().flat_map(|r| r.attrs.iter().map(|(id, _)| *id))
}

/// The effective (stored-or-default) value of an attribute on a record.
fn effective<'a>(record: &'a ObjectRecord, attr_id: u32, default: &'a Value) -> &'a Value {
    match record.get(attr_id) {
        Some(v) if !v.is_null() => v,
        _ => default,
    }
}

/// Move `oid`'s entries in one index from the `old` keys to the `new`
/// ones, touching only the keys that differ.
fn rekey(imp: &mut IndexImpl, oid: Oid, old: &[Value], new: &[Value]) {
    for key in old.iter().filter(|k| !new.iter().any(|n| n.eq_total(k))) {
        imp.remove(key, oid);
    }
    for key in new.iter().filter(|k| !old.iter().any(|o| o.eq_total(k))) {
        imp.insert(key.clone(), oid);
    }
}

/// Snapshot taken before a change: for each nested index, the key set
/// of every affected root.
pub(crate) type NestedSnapshot = Vec<(usize, HashMap<Oid, Vec<Value>>)>;

impl Database {
    /// Does `def` index instances of `class` (as roots, for a nested
    /// index)?
    fn covers(class: &ResolvedClass, def: &IndexDef) -> bool {
        match def.kind {
            IndexKind::SingleClass => def.target == class.id,
            IndexKind::ClassHierarchy | IndexKind::Nested => class.is_a(def.target),
        }
    }

    /// Effective key values of `attr_id` on `record`, an instance of
    /// `class`, for indexing.
    fn record_keys(class: &ResolvedClass, record: &ObjectRecord, attr_id: u32) -> Vec<Value> {
        let Some(attr) = class.attr_by_id(attr_id) else { return Vec::new() };
        keys_of(effective(record, attr_id, &attr.default))
    }

    /// Apply one object's change, `before` → `after` (`None`: absent),
    /// to every structure derived from the stored records: directory and
    /// extents, reverse edges, composite owners, simple-index entries and
    /// the cache. `rid` is where `after` now lives, when storage moved
    /// it. Nested-index entries depend on other objects too: callers
    /// bracket a whole change, however many objects it spans, with
    /// `nested_snapshot` and `nested_apply_diff`.
    pub(crate) fn apply_change(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oid: Oid,
        before: Option<&ObjectRecord>,
        after: Option<&ObjectRecord>,
        rid: Option<Rid>,
    ) {
        if after.is_none() {
            rt.directory.remove(oid);
        } else if let Some(rid) = rid {
            rt.directory.insert(oid, rid);
        }
        match (before, after) {
            (None, Some(_)) => rt.extents.insert(oid.class(), oid),
            (Some(_), None) => rt.extents.remove(oid.class(), oid),
            _ => {}
        }

        // The one class resolution this change makes.
        let resolved = catalog.resolve(oid.class()).ok();

        // Reverse edges and composite owners, per attribute that changed.
        let changed = stored_ids(before)
            .chain(stored_ids(after).filter(|id| stored(before, *id).is_none()))
            .filter(|id| stored(before, *id) != stored(after, *id));
        for attr in changed {
            let old = stored(before, attr).map(refs).unwrap_or_default();
            let new = stored(after, attr).map(refs).unwrap_or_default();
            for target in old.iter().filter(|t| !new.contains(t)) {
                rt.reverse.update(*target, |shard| {
                    if let Some(edges) = shard.get_mut(target) {
                        edges.remove(&(oid, attr));
                        if edges.is_empty() {
                            shard.remove(target);
                        }
                    }
                });
            }
            for target in new.iter().filter(|t| !old.contains(t)) {
                rt.reverse.update(*target, |shard| {
                    shard.entry(*target).or_default().insert((oid, attr));
                });
            }
            if resolved.as_ref().and_then(|r| r.attr_by_id(attr)).is_some_and(|a| a.composite) {
                let mut owner = rt.composite_owner.write();
                for part in old.iter().filter(|p| !new.contains(p)) {
                    if owner.get(part) == Some(&(oid, attr)) {
                        owner.remove(part);
                    }
                }
                for part in new {
                    owner.insert(part, (oid, attr));
                }
            }
        }

        // Simple indexes: coverage and keys are decided under a read
        // guard; the write guard is taken only if some entry moves. An
        // instance of a class that no longer resolves keys to nothing.
        if let Some(class) = &resolved {
            let keys = |record: Option<&ObjectRecord>, attr| {
                record.map(|r| Self::record_keys(class, r, attr)).unwrap_or_default()
            };
            let moves: Vec<(usize, Vec<Value>, Vec<Value>)> = rt
                .indexes
                .read()
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.def.kind != IndexKind::Nested)
                .filter(|(_, inst)| Self::covers(class, &inst.def))
                .map(|(i, inst)| (i, keys(before, inst.def.path[0]), keys(after, inst.def.path[0])))
                .filter(|(_, old, new)| old != new)
                .collect();
            if !moves.is_empty() {
                let mut indexes = rt.indexes.write();
                for (i, old, new) in moves {
                    rekey(&mut indexes[i].imp, oid, &old, &new);
                }
            }
        }

        match (before, after) {
            (Some(_), Some(record)) => rt.cache.refresh(record),
            _ => rt.cache.invalidate(oid),
        }
    }

    /// Write one object through: stage the change in the version store,
    /// make the storage call, and only once that has succeeded apply the
    /// change to derived state. A failed storage call stages back the
    /// transaction's previous after-image, so the staged image always
    /// matches what derived state shows — what a rollback reverts from.
    pub(crate) fn write_object(
        &self,
        rt: &Runtime,
        tx: &Tx,
        catalog: &Catalog,
        before: Option<Arc<ObjectRecord>>,
        after: Option<Arc<ObjectRecord>>,
        hint: Option<PageId>,
    ) -> DbResult<()> {
        let Some(oid) = before.as_ref().or(after.as_ref()).map(|r| r.oid) else { return Ok(()) };
        let rid = match before {
            Some(_) => Some(rt.directory.get(oid).ok_or(DbError::NoSuchObject(oid))?),
            None => None,
        };
        let nested = self.nested_snapshot(rt, catalog, &[oid])?;
        // Staged before the write lands: a chain's pre-image (or its
        // "did not exist" base, for a create) is what snapshots read.
        let prev = self.mvcc.stage(tx.id(), oid, before.clone(), after.clone());
        let stored = match (rid, &after) {
            (None, Some(record)) => self.engine.insert(tx.storage, &record.encode(), hint).map(Some),
            (Some(rid), Some(record)) => self.engine.update(tx.storage, rid, &record.encode()).map(Some),
            (Some(rid), None) => self.engine.delete(tx.storage, rid).map(|()| None),
            (None, None) => Ok(None),
        };
        let rid = stored.inspect_err(|_| {
            if let Some(prev) = prev {
                self.mvcc.stage(tx.id(), oid, None, prev);
            }
        })?;
        self.apply_change(rt, catalog, oid, before.as_deref(), after.as_deref(), rid);
        if let (None, Some(record)) = (&before, &after) {
            // A creator reads its object straight back.
            rt.cache.admit((**record).clone());
        }
        self.nested_apply_diff(rt, catalog, nested)
    }

    /// Roll a transaction's writes back once `abort` has restored
    /// storage. Each object it wrote takes the same change as a forward
    /// write, from its staged after-image to its committed pre-image,
    /// then one nested-index diff covers them all. Runs under the shared
    /// gate and the transaction's own X locks; touches no other object
    /// and scans nothing. `abort` returns the records storage put back,
    /// or `None` for a transaction storage does not know — the result
    /// says which.
    pub(crate) fn undo(
        &self,
        txn: u64,
        abort: impl FnOnce() -> DbResult<Option<Records>>,
    ) -> DbResult<bool> {
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        self.mvcc.discard(txn, |writes| {
            let oids: Vec<Oid> = writes.iter().map(|(oid, ..)| *oid).collect();
            // Root keys as the indexes hold them, read before storage
            // changes under them; storage is restored even if this fails.
            let nested = self.nested_snapshot(&rt, &catalog, &oids);
            let Some(restored) = abort()? else { return Ok(false) };
            let rids: HashMap<Oid, Rid> = restored
                .iter()
                .filter_map(|(rid, bytes)| Some((ObjectRecord::decode(bytes).ok()?.oid, *rid)))
                .collect();
            for (oid, after, pre) in writes {
                // Adapted as a read would be: the cache keeps it.
                let mut pre = pre.as_deref().cloned();
                if let (Some(record), Ok(resolved)) = (&mut pre, catalog.resolve(oid.class())) {
                    adapt_to(&resolved, record);
                }
                let rid = rids.get(oid).copied();
                self.apply_change(&rt, &catalog, *oid, after.as_deref(), pre.as_ref(), rid);
            }
            self.nested_apply_diff(&rt, &catalog, nested?)?;
            Ok(true)
        })
    }

    /// Rebuild every piece of derived state from the stored records —
    /// restart only, from `Database::restart` (behind `crash_and_recover`,
    /// `simulate_cold_restart` and the replay on open).
    /// The caller holds the catalog write lock and the exclusive
    /// maintenance gate (lock order: catalog before gate) — a persisted
    /// system snapshot replaces `catalog` in place, and the exclusive
    /// gate guarantees no other thread is inside any component.
    pub(crate) fn rebuild_runtime(&self, catalog: &mut Catalog, rt: &Runtime) -> DbResult<()> {
        rt.directory.clear();
        rt.extents.clear();
        rt.cache.clear();
        rt.reverse.clear();
        rt.composite_owner.write().clear();
        // Note: foreign_store survives — it is not storage-backed.
        for inst in rt.indexes.write().iter_mut() {
            *inst = IndexInstance::new(inst.def.clone());
        }

        let mut records: Vec<(Rid, ObjectRecord)> = Vec::new();
        let mut scan_err: Option<DbError> = None;
        self.engine.scan_all(|rid, bytes| match ObjectRecord::decode(bytes) {
            Ok(rec) => records.push((rid, rec)),
            Err(e) => scan_err = Some(e),
        })?;
        if let Some(e) = scan_err {
            return Err(e);
        }

        // Install the persisted system state (catalog, index defs,
        // views) before touching anything that needs the schema. The
        // in-memory catalog wins only if no system record exists (e.g.
        // before the first DDL persisted one).
        if let Some(pos) =
            records.iter().position(|(_, r)| r.oid.class() == crate::persist::SYSTEM_CLASS)
        {
            let (rid, record) = records.remove(pos);
            *rt.system_rid.lock() = Some(rid);
            let state = Self::decode_system_record(&record)?;
            crate::persist::install_state(self, catalog, rt, state);
        }
        let catalog = &*catalog;

        // Place every record, then derive: nested keys read other
        // objects through the directory.
        self.metrics.restart.records_rebuilt.add(records.len() as u64);
        let mut max_serial = 0u64;
        for (rid, record) in &records {
            max_serial = max_serial.max(record.oid.serial());
            rt.directory.insert(record.oid, *rid);
        }
        self.alloc.seed_above(max_serial);
        for (_, record) in &records {
            self.apply_change(rt, catalog, record.oid, None, Some(record), None);
        }
        // Every object is in place: key each record as a root once, from
        // the record in hand; only the objects its path references load.
        let mut indexes = rt.indexes.write();
        for inst in indexes.iter_mut().filter(|i| i.def.kind == IndexKind::Nested) {
            for (_, record) in &records {
                self.populate(rt, catalog, inst, record)?;
            }
        }
        Ok(())
    }

    /// Enter the keys `record` contributes to an index being populated
    /// (index creation, and nested indexes at restart). A nested index
    /// reads its first step from `record` itself.
    pub(crate) fn populate(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        inst: &mut IndexInstance,
        record: &ObjectRecord,
    ) -> DbResult<()> {
        let def = &inst.def;
        let Ok(class) = catalog.resolve(record.oid.class()) else { return Ok(()) };
        if !Self::covers(&class, def) {
            return Ok(());
        }
        let keys = match def.kind {
            IndexKind::Nested => self.nested_path_values(rt, catalog, record, &def.path)?,
            _ => Self::record_keys(&class, record, def.path[0]),
        };
        rekey(&mut inst.imp, record.oid, &[], &keys);
        Ok(())
    }

    /// Evaluate a nested path (attribute-id chain) from `root`, a record
    /// the caller holds, returning the leaf key values. The first step
    /// reads `root` itself; only the objects the path references are
    /// loaded. Dangling references contribute nothing; any other read
    /// error is the caller's.
    pub(crate) fn nested_path_values(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        root: &ObjectRecord,
        path: &[u32],
    ) -> DbResult<Vec<Value>> {
        let Some((first, rest)) = path.split_first() else { return Ok(Vec::new()) };
        let mut frontier = Vec::new();
        Self::path_step(catalog, root, *first, &mut frontier);
        for attr_id in rest {
            let mut next = Vec::new();
            for v in &frontier {
                let Value::Ref(o) = v else { continue };
                match self.load_record(rt, catalog, *o) {
                    Ok(record) => Self::path_step(catalog, &record, *attr_id, &mut next),
                    Err(DbError::NoSuchObject(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            frontier = next;
        }
        frontier.retain(|v| !v.is_null());
        Ok(frontier)
    }

    /// One step of a nested path: push `attr_id`'s effective (stored or
    /// default) value on `record`, a set or list flattened one level.
    /// A null pushes nothing, and neither does an attribute id that
    /// `record`'s class no longer resolves (one a read's `adapt_to`
    /// would drop).
    fn path_step(catalog: &Catalog, record: &ObjectRecord, attr_id: u32, out: &mut Vec<Value>) {
        let Ok(class) = catalog.resolve(record.oid.class()) else { return };
        let Some(attr) = class.attr_by_id(attr_id) else { return };
        match effective(record, attr_id, &attr.default) {
            Value::Null => {}
            Value::Set(items) | Value::List(items) => out.extend(items.iter().cloned()),
            other => out.push(other.clone()),
        }
    }

    /// The nested-path keys of the root `oid` as it is now: none if it
    /// no longer exists.
    fn root_path_values(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oid: Oid,
        path: &[u32],
    ) -> DbResult<Vec<Value>> {
        match self.load_record(rt, catalog, oid) {
            Ok(root) => self.nested_path_values(rt, catalog, &root, path),
            Err(DbError::NoSuchObject(_)) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Roots of `def` whose indexed path may run through `oid`: climb
    /// the reverse-reference graph along every prefix of the path. A
    /// step may also be a default: an object of a class whose `path[k]`
    /// default names a frontier object, storing no value of its own,
    /// reaches that object without a stored reference to it.
    pub(crate) fn nested_roots(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        def_target: ClassId,
        path: &[u32],
        oid: Oid,
    ) -> HashSet<Oid> {
        let mut roots = HashSet::new();
        for depth in 0..path.len() {
            // Objects at `depth` steps from a root; climb `depth` edges.
            let mut frontier: HashSet<Oid> = HashSet::from([oid]);
            for k in (0..depth).rev() {
                let mut up = HashSet::new();
                for o in &frontier {
                    rt.reverse.with(*o, |edges| {
                        if let Some(edges) = edges {
                            for (referrer, attr) in edges {
                                if *attr == path[k] {
                                    up.insert(*referrer);
                                }
                            }
                        }
                    });
                    for &(class, attr) in catalog.defaults_naming(*o) {
                        if attr != path[k] {
                            continue;
                        }
                        for holder in rt.extents.snapshot(class) {
                            // One that cannot be read stays a candidate:
                            // re-keying it reads it again and reports why.
                            let own = self.load_record(rt, catalog, holder).ok();
                            if own.is_none_or(|r| r.get(attr).is_none_or(Value::is_null)) {
                                up.insert(holder);
                            }
                        }
                    }
                }
                frontier = up;
                if frontier.is_empty() {
                    break;
                }
            }
            for candidate in frontier {
                if catalog.is_subclass(candidate.class(), def_target) {
                    roots.insert(candidate);
                }
            }
        }
        roots
    }

    /// Phase 1 of nested maintenance: snapshot the key sets of every
    /// root that a change to `oids` might re-key. The nested defs are
    /// copied out under a short read guard — path evaluation faults
    /// records and must not pin the index set.
    pub(crate) fn nested_snapshot(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oids: &[Oid],
    ) -> DbResult<NestedSnapshot> {
        let nested: Vec<(usize, IndexDef)> = rt
            .indexes
            .read()
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.def.kind == IndexKind::Nested)
            .map(|(i, inst)| (i, inst.def.clone()))
            .collect();
        let mut snapshot = Vec::new();
        for (i, def) in nested {
            let mut keyed = HashMap::new();
            for &oid in oids {
                for root in self.nested_roots(rt, catalog, def.target, &def.path, oid) {
                    if let Entry::Vacant(slot) = keyed.entry(root) {
                        slot.insert(self.root_path_values(rt, catalog, root, &def.path)?);
                    }
                }
            }
            if !keyed.is_empty() {
                snapshot.push((i, keyed));
            }
        }
        Ok(snapshot)
    }

    /// Phase 2: recompute the same roots and apply the key-set diff.
    /// Positions from the snapshot remain valid: index create/drop needs
    /// the exclusive gate, which the mutating caller's shared gate guard
    /// excludes for the whole operation.
    pub(crate) fn nested_apply_diff(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        snapshot: NestedSnapshot,
    ) -> DbResult<()> {
        for (i, pre) in snapshot {
            let def = rt.indexes.read()[i].def.clone();
            for (root, old_keys) in pre {
                // A root that was deleted mid-operation keys to nothing.
                let new_keys = if rt.directory.contains(root) {
                    self.root_path_values(rt, catalog, root, &def.path)?
                } else {
                    Vec::new()
                };
                rekey(&mut rt.indexes.write()[i].imp, root, &old_keys, &new_keys);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Composite objects
    // ------------------------------------------------------------------

    /// Reject parts already owned elsewhere, and the parent itself. The
    /// claim lands with the parent's write (`apply_change`); the check
    /// still holds then because every claimant X-locks its parts first.
    pub(crate) fn check_claims(
        &self,
        rt: &Runtime,
        parent: Oid,
        attr: u32,
        parts: &[Oid],
    ) -> DbResult<()> {
        let owner = rt.composite_owner.read();
        for part in parts {
            if let Some((other_parent, other_attr)) = owner.get(part) {
                if (*other_parent, *other_attr) != (parent, attr) {
                    return Err(DbError::Composite(format!(
                        "object {part} is already an exclusive part of {other_parent}"
                    )));
                }
            }
            if *part == parent {
                return Err(DbError::Composite("an object cannot be its own part".into()));
            }
        }
        Ok(())
    }

    /// `root` and every live part below it, root first. Ownership is a
    /// function of the parents' records, so a part deleted on its own
    /// keeps its entry until its parent lets go of it; it is skipped.
    pub(crate) fn composite_closure(&self, rt: &Runtime, root: Oid) -> Vec<Oid> {
        let owned: Vec<(Oid, Oid)> =
            rt.composite_owner.read().iter().map(|(part, (parent, _))| (*parent, *part)).collect();
        let mut order = Vec::new();
        let mut stack = vec![root];
        let mut seen = HashSet::new();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            order.push(cur);
            stack.extend(
                owned.iter().filter(|(parent, part)| *parent == cur && rt.directory.contains(*part))
                    .map(|(_, part)| *part),
            );
        }
        order
    }
}

#[cfg(test)]
mod tests;
