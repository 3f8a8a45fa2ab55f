//! Index descriptors: what an index covers and how it is implemented.

use crate::ch_index::ClassHierarchyIndex;
use crate::sc_index::SingleClassIndex;
use orion_types::wire::get_u8;
use orion_types::{ClassId, DbError, DbResult, Oid, Value};
use std::ops::Bound;

/// The three index species of §3.2. The discriminant is the kind's tag
/// in system snapshots and on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKind {
    /// One attribute of one class (the relational-style baseline).
    SingleClass = 0,
    /// One attribute across the class hierarchy rooted at the target.
    ClassHierarchy = 1,
    /// A nested attribute (path of length ≥ 2) of the target class
    /// hierarchy: keys are values found at the end of the path, postings
    /// are *root* objects (\[BERT89\] nested-attribute index).
    Nested = 2,
}

impl IndexKind {
    /// The kind's one-byte tag.
    pub fn tag(&self) -> u8 {
        self.clone() as u8
    }

    /// Decode a kind tag from the front of `buf`; errors are
    /// [`DbError::Protocol`].
    pub fn decode(buf: &mut &[u8]) -> DbResult<IndexKind> {
        Ok(match get_u8(buf)? {
            0 => IndexKind::SingleClass,
            1 => IndexKind::ClassHierarchy,
            2 => IndexKind::Nested,
            other => return Err(DbError::Protocol(format!("bad index kind {other}"))),
        })
    }
}

/// Descriptor for one index.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Unique index id.
    pub id: u32,
    /// Human-readable name (unique).
    pub name: String,
    /// Index species.
    pub kind: IndexKind,
    /// The target class (for `SingleClass`) or hierarchy root.
    pub target: ClassId,
    /// The attribute-id path from the target class to the key value;
    /// length 1 for simple indexes, ≥ 2 for nested ones.
    pub path: Vec<u32>,
}

/// The physical index structure behind a descriptor.
///
/// Single-class indexes use a plain posting list per key; hierarchy and
/// nested indexes use per-key class directories (nested postings are
/// root objects, which may themselves span the root's hierarchy).
#[derive(Debug, Clone)]
pub enum IndexImpl {
    /// Plain key → postings.
    Single(SingleClassIndex),
    /// Key → class directory (\[KIM89b\]).
    Hierarchy(ClassHierarchyIndex),
}

impl IndexImpl {
    /// An empty structure appropriate for `kind`.
    pub fn for_kind(kind: &IndexKind) -> IndexImpl {
        match kind {
            IndexKind::SingleClass => IndexImpl::Single(SingleClassIndex::new()),
            IndexKind::ClassHierarchy | IndexKind::Nested => {
                IndexImpl::Hierarchy(ClassHierarchyIndex::new())
            }
        }
    }

    /// Register `oid` under `key`.
    pub fn insert(&mut self, key: Value, oid: Oid) {
        match self {
            IndexImpl::Single(idx) => idx.insert(key, oid),
            IndexImpl::Hierarchy(idx) => idx.insert(key, oid),
        }
    }

    /// Remove `oid` from under `key`.
    pub fn remove(&mut self, key: &Value, oid: Oid) -> bool {
        match self {
            IndexImpl::Single(idx) => idx.remove(key, oid),
            IndexImpl::Hierarchy(idx) => idx.remove(key, oid),
        }
    }

    /// Equality lookup. `scope` restricts to the given (sorted) classes;
    /// single-class indexes ignore it (their postings are one class).
    pub fn lookup_eq(&self, key: &Value, scope: Option<&[ClassId]>) -> Vec<Oid> {
        match self {
            IndexImpl::Single(idx) => idx.lookup_eq(key),
            IndexImpl::Hierarchy(idx) => idx.lookup_eq(key, scope),
        }
    }

    /// Range lookup with optional class scope.
    pub fn lookup_range(
        &self,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
        scope: Option<&[ClassId]>,
    ) -> Vec<Oid> {
        match self {
            IndexImpl::Single(idx) => idx.lookup_range(lower, upper),
            IndexImpl::Hierarchy(idx) => idx.lookup_range(lower, upper, scope),
        }
    }

    /// How many OIDs [`IndexImpl::lookup_eq`] would return, or `cap` if
    /// that is fewer.
    pub fn count_eq(&self, key: &Value, scope: Option<&[ClassId]>, cap: usize) -> usize {
        match self {
            IndexImpl::Single(idx) => idx.count_eq(key, cap),
            IndexImpl::Hierarchy(idx) => idx.count_eq(key, scope, cap),
        }
    }

    /// How many OIDs [`IndexImpl::lookup_range`] would return, or `cap`
    /// if that is fewer; the walk stops at the cap.
    pub fn count_range(
        &self,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
        scope: Option<&[ClassId]>,
        cap: usize,
    ) -> usize {
        match self {
            IndexImpl::Single(idx) => idx.count_range(lower, upper, cap),
            IndexImpl::Hierarchy(idx) => idx.count_range(lower, upper, scope, cap),
        }
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        match self {
            IndexImpl::Single(idx) => idx.len(),
            IndexImpl::Hierarchy(idx) => idx.len(),
        }
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match self {
            IndexImpl::Single(idx) => idx.distinct_keys(),
            IndexImpl::Hierarchy(idx) => idx.distinct_keys(),
        }
    }
}

/// A descriptor plus its structure: one live index.
#[derive(Debug, Clone)]
pub struct IndexInstance {
    /// What the index covers.
    pub def: IndexDef,
    /// The structure holding the entries.
    pub imp: IndexImpl,
}

impl IndexInstance {
    /// A fresh, empty instance for a descriptor.
    pub fn new(def: IndexDef) -> Self {
        let imp = IndexImpl::for_kind(&def.kind);
        IndexInstance { def, imp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_interface_over_both_impls() {
        for kind in [IndexKind::SingleClass, IndexKind::ClassHierarchy, IndexKind::Nested] {
            let def = IndexDef {
                id: 1,
                name: "t".into(),
                kind: kind.clone(),
                target: ClassId(1),
                path: vec![1],
            };
            let mut inst = IndexInstance::new(def);
            let a = Oid::new(ClassId(1), 1);
            let b = Oid::new(ClassId(2), 2);
            inst.imp.insert(Value::Int(5), a);
            inst.imp.insert(Value::Int(5), b);
            inst.imp.insert(Value::Int(9), a);
            assert_eq!(inst.imp.len(), 3);
            assert_eq!(inst.imp.lookup_eq(&Value::Int(5), None).len(), 2);
            let ranged = inst.imp.lookup_range(
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(6)),
                None,
            );
            assert_eq!(ranged.len(), 2);
            let (lo, hi) = (Value::Int(0), Value::Int(6));
            let counted =
                inst.imp.count_range(Bound::Included(&lo), Bound::Excluded(&hi), None, 9);
            assert_eq!(counted, 2);
            assert_eq!(inst.imp.count_eq(&Value::Int(5), None, 9), 2);
            assert_eq!(inst.imp.count_eq(&Value::Int(5), None, 1), 1);
            assert!(inst.imp.remove(&Value::Int(9), a));
            assert_eq!(inst.imp.len(), 2);
            assert_eq!(inst.imp.distinct_keys(), 1);
        }
    }

    #[test]
    fn scope_only_affects_hierarchy_impls() {
        let mut hier = IndexImpl::for_kind(&IndexKind::ClassHierarchy);
        let a = Oid::new(ClassId(1), 1);
        let b = Oid::new(ClassId(2), 2);
        hier.insert(Value::Int(1), a);
        hier.insert(Value::Int(1), b);
        assert_eq!(hier.lookup_eq(&Value::Int(1), Some(&[ClassId(2)])), vec![b]);
        let mut single = IndexImpl::for_kind(&IndexKind::SingleClass);
        single.insert(Value::Int(1), a);
        // Scope is ignored for single-class indexes by contract.
        assert_eq!(single.lookup_eq(&Value::Int(1), Some(&[ClassId(9)])), vec![a]);
    }
}
