//! The class-hierarchy index (\[KIM89b\], §3.2).
//!
//! "Since the indexed attribute is common to all classes in the class
//! hierarchy rooted at the user-specified target class, it makes sense
//! to maintain one index on the attribute for all the classes in the
//! class hierarchy rooted at the target class."
//!
//! One ordered map serves every class in the hierarchy; each key's
//! value is a *class directory* — per-class posting lists — so a query
//! scoped to any subset of the hierarchy (the whole subtree, a nested
//! subtree, or a single class) reads one map and filters the
//! directory, instead of probing one index per class.

use crate::btree::BTree;
use crate::key::{keyed, KeyVal};
use orion_types::{ClassId, Oid, Value};
use std::collections::btree_map::Entry;
use std::ops::Bound;

/// Per-key directory: posting lists partitioned by class.
#[derive(Debug, Clone, Default)]
pub struct ClassDirectory {
    /// `(class, sorted postings)`, sorted by class id. Hierarchies are
    /// small (tens of classes), so a sorted vec beats a map.
    lists: Vec<(ClassId, Vec<Oid>)>,
}

impl ClassDirectory {
    fn insert(&mut self, oid: Oid) -> bool {
        let class = oid.class();
        match self.lists.binary_search_by_key(&class, |(c, _)| *c) {
            Ok(i) => {
                let postings = &mut self.lists[i].1;
                match postings.binary_search(&oid) {
                    Ok(_) => false,
                    Err(pos) => {
                        postings.insert(pos, oid);
                        true
                    }
                }
            }
            Err(i) => {
                self.lists.insert(i, (class, vec![oid]));
                true
            }
        }
    }

    fn remove(&mut self, oid: Oid) -> bool {
        let class = oid.class();
        if let Ok(i) = self.lists.binary_search_by_key(&class, |(c, _)| *c) {
            let postings = &mut self.lists[i].1;
            if let Ok(pos) = postings.binary_search(&oid) {
                postings.remove(pos);
                if postings.is_empty() {
                    self.lists.remove(i);
                }
                return true;
            }
        }
        false
    }

    fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Visit the posting lists of the classes in `scope` (sorted;
    /// `None` = all), in class order.
    fn lists_in(&self, scope: Option<&[ClassId]>, mut visit: impl FnMut(&[Oid])) {
        match scope {
            None => {
                for (_, postings) in &self.lists {
                    visit(postings);
                }
            }
            Some(classes) => {
                // Iterate the smaller side.
                if classes.len() < self.lists.len() {
                    for c in classes {
                        if let Ok(i) = self.lists.binary_search_by_key(c, |(cc, _)| *cc) {
                            visit(&self.lists[i].1);
                        }
                    }
                } else {
                    for (c, postings) in &self.lists {
                        if classes.binary_search(c).is_ok() {
                            visit(postings);
                        }
                    }
                }
            }
        }
    }

    /// Append postings for classes in `scope` (sorted; `None` = all).
    fn collect(&self, scope: Option<&[ClassId]>, out: &mut Vec<Oid>) {
        self.lists_in(scope, |postings| out.extend_from_slice(postings));
    }

    /// Postings for classes in `scope`.
    fn count(&self, scope: Option<&[ClassId]>) -> usize {
        let mut n = 0;
        self.lists_in(scope, |postings| n += postings.len());
        n
    }
}

/// A class-hierarchy index: one map for an attribute across a hierarchy.
#[derive(Debug, Clone, Default)]
pub struct ClassHierarchyIndex {
    tree: BTree<KeyVal, ClassDirectory>,
    entries: usize,
}

impl ClassHierarchyIndex {
    /// An empty index.
    pub fn new() -> Self {
        ClassHierarchyIndex::default()
    }

    /// Register `oid` (whose class is taken from the OID tag) under `key`.
    pub fn insert(&mut self, key: Value, oid: Oid) {
        if self.tree.entry(KeyVal(key)).or_default().insert(oid) {
            self.entries += 1;
        }
    }

    /// Remove `oid` from under `key`.
    pub fn remove(&mut self, key: &Value, oid: Oid) -> bool {
        let Entry::Occupied(mut dir) = self.tree.entry(KeyVal(key.clone())) else {
            return false;
        };
        if !dir.get_mut().remove(oid) {
            return false;
        }
        if dir.get().is_empty() {
            dir.remove();
        }
        self.entries -= 1;
        true
    }

    /// OIDs under exactly `key`, restricted to `scope` classes (sorted
    /// ascending; `None` = every class in the hierarchy).
    pub fn lookup_eq(&self, key: &Value, scope: Option<&[ClassId]>) -> Vec<Oid> {
        let mut out = Vec::new();
        if let Some(dir) = self.tree.get(&KeyVal(key.clone())) {
            dir.collect(scope, &mut out);
        }
        out
    }

    /// OIDs with keys in range, restricted to `scope`.
    pub fn lookup_range(
        &self,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
        scope: Option<&[ClassId]>,
    ) -> Vec<Oid> {
        let (lower, upper) = (keyed(lower), keyed(upper));
        let mut out = Vec::new();
        for (_, dir) in self.tree.range(lower.as_ref(), upper.as_ref()) {
            dir.collect(scope, &mut out);
        }
        out
    }

    /// How many OIDs [`ClassHierarchyIndex::lookup_eq`] would return, or
    /// `cap` if that is fewer.
    pub fn count_eq(&self, key: &Value, scope: Option<&[ClassId]>, cap: usize) -> usize {
        self.tree.get(&KeyVal(key.clone())).map_or(0, |dir| dir.count(scope)).min(cap)
    }

    /// How many OIDs [`ClassHierarchyIndex::lookup_range`] would return,
    /// or `cap` if that is fewer (the walk stops there).
    pub fn count_range(
        &self,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
        scope: Option<&[ClassId]>,
        cap: usize,
    ) -> usize {
        let (lower, upper) = (keyed(lower), keyed(upper));
        let mut n = 0;
        for (_, dir) in self.tree.range(lower.as_ref(), upper.as_ref()) {
            n += dir.count(scope);
            if n >= cap {
                break;
            }
        }
        n.min(cap)
    }

    /// Total `(key, oid)` entries across all classes.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(class: u16, s: u64) -> Oid {
        Oid::new(ClassId(class), s)
    }

    #[test]
    fn directory_partitions_by_class() {
        let mut idx = ClassHierarchyIndex::new();
        // Vehicle = 1, Automobile = 2, Truck = 3.
        idx.insert(Value::Int(8000), oid(1, 1));
        idx.insert(Value::Int(8000), oid(2, 2));
        idx.insert(Value::Int(8000), oid(3, 3));
        idx.insert(Value::Int(5000), oid(3, 4));

        // Whole hierarchy.
        assert_eq!(idx.lookup_eq(&Value::Int(8000), None).len(), 3);
        // Single class.
        assert_eq!(idx.lookup_eq(&Value::Int(8000), Some(&[ClassId(2)])), vec![oid(2, 2)]);
        // Subset.
        let got = idx.lookup_eq(&Value::Int(8000), Some(&[ClassId(1), ClassId(3)]));
        assert_eq!(got, vec![oid(1, 1), oid(3, 3)]);
        // Class not present under the key.
        assert!(idx.lookup_eq(&Value::Int(5000), Some(&[ClassId(2)])).is_empty());
    }

    #[test]
    fn range_scoped_lookup() {
        let mut idx = ClassHierarchyIndex::new();
        for i in 0..100i64 {
            let class = 1 + (i % 3) as u16;
            idx.insert(Value::Int(i), oid(class, i as u64));
        }
        let all = idx.lookup_range(
            Bound::Included(&Value::Int(0)),
            Bound::Excluded(&Value::Int(30)),
            None,
        );
        assert_eq!(all.len(), 30);
        let only_c2 = idx.lookup_range(
            Bound::Included(&Value::Int(0)),
            Bound::Excluded(&Value::Int(30)),
            Some(&[ClassId(2)]),
        );
        assert_eq!(only_c2.len(), 10);
        assert!(only_c2.iter().all(|o| o.class() == ClassId(2)));

        // Counts agree with the lookups, scope included, up to the cap.
        let (lo, hi) = (Value::Int(0), Value::Int(30));
        let (lo, hi) = (Bound::Included(&lo), Bound::Excluded(&hi));
        assert_eq!(idx.count_range(lo, hi, None, usize::MAX), 30);
        assert_eq!(idx.count_range(lo, hi, Some(&[ClassId(2)]), usize::MAX), 10);
        assert_eq!(idx.count_range(lo, hi, None, 12), 12);
        assert_eq!(idx.count_eq(&Value::Int(4), Some(&[ClassId(2)]), 9), 1);
        assert_eq!(idx.count_eq(&Value::Int(4), Some(&[ClassId(1)]), 9), 0);
    }

    #[test]
    fn remove_cleans_directories() {
        let mut idx = ClassHierarchyIndex::new();
        idx.insert(Value::Int(1), oid(1, 1));
        idx.insert(Value::Int(1), oid(2, 2));
        assert!(idx.remove(&Value::Int(1), oid(1, 1)));
        assert!(!idx.remove(&Value::Int(1), oid(1, 1)));
        assert_eq!(idx.lookup_eq(&Value::Int(1), None), vec![oid(2, 2)]);
        assert!(idx.remove(&Value::Int(1), oid(2, 2)));
        assert_eq!(idx.distinct_keys(), 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn duplicate_insert_no_op() {
        let mut idx = ClassHierarchyIndex::new();
        idx.insert(Value::Int(1), oid(1, 1));
        idx.insert(Value::Int(1), oid(1, 1));
        assert_eq!(idx.len(), 1);
    }
}
