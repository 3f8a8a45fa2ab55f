//! Index maintenance: keeping single-class, class-hierarchy, and
//! nested-attribute indexes coherent with object mutations.
//!
//! Simple (path length 1) indexes update locally from the old/new value
//! of the changed attribute. Nested indexes (\[BERT89\]) are the
//! interesting case the paper's §3.2 motivates: when an object that sits
//! *in the middle* of an indexed aggregation path changes, every root
//! object whose path runs through it must be re-keyed. orion finds those
//! roots by climbing the maintained reverse-reference graph along the
//! index path prefix — the standard technique — then diffs each root's
//! key set before/after the mutation.
//!
//! Locking: maintenance runs under the *shared* maintenance gate with
//! the caller's 2PL locks providing isolation; the index set's own
//! `RwLock` guards structural integrity. Holding the `indexes` guard
//! while nested re-keying faults records through the cache is permitted
//! by the lock order (`indexes` precedes the cache shards; see
//! `crate::runtime`). Index *positions* in the `Vec` are stable here
//! because create/drop index take the exclusive gate, which cannot be
//! granted while any mutator holds the shared gate.

use crate::database::Database;
use crate::runtime::Runtime;
use orion_index::{IndexDef, IndexInstance, IndexKind};
use orion_schema::Catalog;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbResult, Oid, Value};
use std::collections::{HashMap, HashSet};

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

/// The effective (stored-or-default) value of an attribute on a record.
fn effective<'a>(record: &'a ObjectRecord, attr_id: u32, default: &'a Value) -> &'a Value {
    match record.get(attr_id) {
        Some(v) if !v.is_null() => v,
        _ => default,
    }
}

/// Snapshot taken before a mutation: for each nested index, the key set
/// of every affected root.
pub(crate) type NestedSnapshot = Vec<(usize, HashMap<Oid, Vec<Value>>)>;

impl Database {
    /// Does a simple index cover instances of `class`?
    fn simple_covers(catalog: &Catalog, def: &IndexDef, class: ClassId) -> bool {
        match def.kind {
            IndexKind::SingleClass => def.target == class,
            IndexKind::ClassHierarchy => catalog.is_subclass(class, def.target),
            IndexKind::Nested => false,
        }
    }

    /// Effective key values of `attr_id` on `record` for indexing.
    fn record_keys(
        catalog: &Catalog,
        record: &ObjectRecord,
        attr_id: u32,
    ) -> Vec<Value> {
        let Ok(resolved) = catalog.resolve(record.oid.class()) else {
            return Vec::new();
        };
        let Some(attr) = resolved.attr_by_id(attr_id) else { return Vec::new() };
        keys_of(effective(record, attr_id, &attr.default))
    }

    /// Enter a whole record into every covering index (create, rebuild).
    pub(crate) fn index_object_insert(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        record: &ObjectRecord,
    ) -> DbResult<()> {
        let oid = record.oid;
        let mut indexes = rt.indexes.write();
        for inst in indexes.iter_mut() {
            let def = inst.def.clone();
            match def.kind {
                IndexKind::SingleClass | IndexKind::ClassHierarchy => {
                    if !Self::simple_covers(catalog, &def, oid.class()) {
                        continue;
                    }
                    for key in Self::record_keys(catalog, record, def.path[0]) {
                        inst.imp.insert(key, oid);
                    }
                }
                IndexKind::Nested => {
                    if !catalog.is_subclass(oid.class(), def.target) {
                        continue;
                    }
                    let keys = self.nested_path_values(rt, catalog, oid, &def.path)?;
                    for key in keys {
                        inst.imp.insert(key, oid);
                    }
                }
            }
        }
        Ok(())
    }

    /// Remove a whole record from every covering index (delete, rebuild).
    pub(crate) fn index_object_remove(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        record: &ObjectRecord,
    ) -> DbResult<()> {
        let oid = record.oid;
        let mut indexes = rt.indexes.write();
        for inst in indexes.iter_mut() {
            let def = inst.def.clone();
            match def.kind {
                IndexKind::SingleClass | IndexKind::ClassHierarchy => {
                    if !Self::simple_covers(catalog, &def, oid.class()) {
                        continue;
                    }
                    for key in Self::record_keys(catalog, record, def.path[0]) {
                        inst.imp.remove(&key, oid);
                    }
                }
                IndexKind::Nested => {
                    if !catalog.is_subclass(oid.class(), def.target) {
                        continue;
                    }
                    // The object is (being) deleted: remove every key it
                    // currently contributes as a root.
                    let keys = self.nested_path_values(rt, catalog, oid, &def.path)?;
                    for key in keys {
                        inst.imp.remove(&key, oid);
                    }
                }
            }
        }
        Ok(())
    }

    /// Update simple indexes after one attribute changed.
    pub(crate) fn simple_index_update(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oid: Oid,
        attr_id: u32,
        old_value: &Value,
        new_value: &Value,
    ) {
        let default = catalog
            .resolve(oid.class())
            .ok()
            .and_then(|r| r.attr_by_id(attr_id).map(|a| a.default.clone()))
            .unwrap_or(Value::Null);
        let old_keys = keys_of(if old_value.is_null() { &default } else { old_value });
        let new_keys = keys_of(if new_value.is_null() { &default } else { new_value });
        let mut indexes = rt.indexes.write();
        for inst in indexes.iter_mut() {
            let simple = matches!(
                inst.def.kind,
                IndexKind::SingleClass | IndexKind::ClassHierarchy
            );
            if !simple || inst.def.path[0] != attr_id {
                continue;
            }
            let covers = match inst.def.kind {
                IndexKind::SingleClass => inst.def.target == oid.class(),
                _ => catalog.is_subclass(oid.class(), inst.def.target),
            };
            if !covers {
                continue;
            }
            for key in &old_keys {
                inst.imp.remove(key, oid);
            }
            for key in &new_keys {
                inst.imp.insert(key.clone(), oid);
            }
        }
    }

    /// Evaluate a nested path (attribute-id chain) from `root`,
    /// returning the leaf key values. Dangling references contribute
    /// nothing.
    pub(crate) fn nested_path_values(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        root: Oid,
        path: &[u32],
    ) -> DbResult<Vec<Value>> {
        let mut frontier: Vec<Value> = vec![Value::Ref(root)];
        for (i, attr_id) in path.iter().enumerate() {
            let mut next = Vec::new();
            for v in &frontier {
                let Value::Ref(o) = v else { continue };
                let Some(record) = self.try_load_record(rt, catalog, *o) else { continue };
                let Ok(resolved) = catalog.resolve(o.class()) else { continue };
                let Some(attr) = resolved.attr_by_id(*attr_id) else { continue };
                let value = effective(&record, *attr_id, &attr.default).clone();
                match value {
                    Value::Null => {}
                    Value::Set(items) | Value::List(items) => next.extend(items),
                    other => next.push(other),
                }
            }
            frontier = next;
            if frontier.is_empty() && i + 1 < path.len() {
                return Ok(Vec::new());
            }
        }
        Ok(frontier.into_iter().filter(|v| !v.is_null()).collect())
    }

    /// Roots of `def` whose indexed path may run through `oid`: climb
    /// the reverse-reference graph along every prefix of the path.
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
    /// root that might be affected by a mutation of `oid`. The nested
    /// defs are copied out under a short read guard — path evaluation
    /// faults records and must not pin the index set.
    pub(crate) fn nested_snapshot(
        &self,
        rt: &Runtime,
        catalog: &Catalog,
        oid: Oid,
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
            let roots = self.nested_roots(rt, catalog, def.target, &def.path, oid);
            if roots.is_empty() {
                continue;
            }
            let mut keyed = HashMap::new();
            for root in roots {
                let keys = self.nested_path_values(rt, catalog, root, &def.path)?;
                keyed.insert(root, keys);
            }
            snapshot.push((i, keyed));
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
                    self.nested_path_values(rt, catalog, root, &def.path)?
                } else {
                    Vec::new()
                };
                let mut indexes = rt.indexes.write();
                let inst: &mut IndexInstance = &mut indexes[i];
                for key in &old_keys {
                    if !new_keys.iter().any(|k| k.eq_total(key)) {
                        inst.imp.remove(key, root);
                    }
                }
                for key in new_keys {
                    if !old_keys.iter().any(|k| k.eq_total(&key)) {
                        inst.imp.insert(key, root);
                    }
                }
            }
        }
        Ok(())
    }
}
