//! The conventional single-class index.
//!
//! "In relational database systems, one index is maintained on an
//! attribute ... of one relation. This technique, if applied directly to
//! an object-oriented database, will mean that one index is needed for an
//! attribute of each class" (§3.2). This is that index: key → sorted
//! posting list of OIDs, for the instances of exactly one class. It is
//! the baseline the class-hierarchy index is measured against (E1).

use crate::btree::BTree;
use crate::key::{keyed, KeyVal};
use orion_types::{Oid, Value};
use std::collections::btree_map::Entry;
use std::ops::Bound;

/// An index over one attribute of one class.
#[derive(Debug, Clone, Default)]
pub struct SingleClassIndex {
    tree: BTree<KeyVal, Vec<Oid>>,
    entries: usize,
}

impl SingleClassIndex {
    /// An empty index.
    pub fn new() -> Self {
        SingleClassIndex::default()
    }

    /// Register `oid` under `key`.
    pub fn insert(&mut self, key: Value, oid: Oid) {
        let postings = self.tree.entry(KeyVal(key)).or_default();
        if let Err(pos) = postings.binary_search(&oid) {
            postings.insert(pos, oid);
            self.entries += 1;
        }
    }

    /// Remove `oid` from under `key`; returns whether it was present.
    pub fn remove(&mut self, key: &Value, oid: Oid) -> bool {
        let Entry::Occupied(mut postings) = self.tree.entry(KeyVal(key.clone())) else {
            return false;
        };
        let Ok(pos) = postings.get().binary_search(&oid) else {
            return false;
        };
        postings.get_mut().remove(pos);
        if postings.get().is_empty() {
            postings.remove();
        }
        self.entries -= 1;
        true
    }

    /// All OIDs stored under exactly `key`.
    pub fn lookup_eq(&self, key: &Value) -> Vec<Oid> {
        self.tree.get(&KeyVal(key.clone())).cloned().unwrap_or_default()
    }

    /// All OIDs with keys in the given range.
    pub fn lookup_range(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Vec<Oid> {
        let (lower, upper) = (keyed(lower), keyed(upper));
        let mut out = Vec::new();
        for (_, postings) in self.tree.range(lower.as_ref(), upper.as_ref()) {
            out.extend_from_slice(postings);
        }
        out
    }

    /// How many OIDs [`SingleClassIndex::lookup_eq`] would return, or
    /// `cap` if that is fewer.
    pub fn count_eq(&self, key: &Value, cap: usize) -> usize {
        self.tree.get(&KeyVal(key.clone())).map_or(0, Vec::len).min(cap)
    }

    /// How many OIDs [`SingleClassIndex::lookup_range`] would return, or
    /// `cap` if that is fewer (the walk stops there).
    pub fn count_range(&self, lower: Bound<&Value>, upper: Bound<&Value>, cap: usize) -> usize {
        let (lower, upper) = (keyed(lower), keyed(upper));
        let mut n = 0;
        for (_, postings) in self.tree.range(lower.as_ref(), upper.as_ref()) {
            n += postings.len();
            if n >= cap {
                break;
            }
        }
        n.min(cap)
    }

    /// Total `(key, oid)` entries.
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
    use orion_types::ClassId;

    fn oid(s: u64) -> Oid {
        Oid::new(ClassId(1), s)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = SingleClassIndex::new();
        idx.insert(Value::Int(10), oid(1));
        idx.insert(Value::Int(10), oid(2));
        idx.insert(Value::Int(20), oid(3));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.lookup_eq(&Value::Int(10)), vec![oid(1), oid(2)]);
        assert!(idx.remove(&Value::Int(10), oid(1)));
        assert!(!idx.remove(&Value::Int(10), oid(1)), "second remove is false");
        assert_eq!(idx.lookup_eq(&Value::Int(10)), vec![oid(2)]);
        assert!(idx.remove(&Value::Int(10), oid(2)));
        assert_eq!(idx.lookup_eq(&Value::Int(10)), Vec::<Oid>::new());
        assert_eq!(idx.distinct_keys(), 1, "empty posting lists are dropped");
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let mut idx = SingleClassIndex::new();
        idx.insert(Value::Int(1), oid(1));
        idx.insert(Value::Int(1), oid(1));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn range_lookup() {
        let mut idx = SingleClassIndex::new();
        for i in 0..50 {
            idx.insert(Value::Int(i), oid(i as u64));
        }
        let got = idx.lookup_range(Bound::Included(&Value::Int(10)), Bound::Excluded(&Value::Int(13)));
        assert_eq!(got, vec![oid(10), oid(11), oid(12)]);
        let all = idx.lookup_range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn counts_are_exact_below_the_cap() {
        let mut idx = SingleClassIndex::new();
        for i in 0..50 {
            idx.insert(Value::Int(i % 10), oid(i as u64));
        }
        let (lo, hi) = (Value::Int(2), Value::Int(5));
        let (lo, hi) = (Bound::Included(&lo), Bound::Excluded(&hi));
        assert_eq!(idx.count_range(lo, hi, 100), idx.lookup_range(lo, hi).len());
        assert_eq!(idx.count_range(lo, hi, 100), 15);
        assert_eq!(idx.count_range(lo, hi, 7), 7, "stops at the cap");
        assert_eq!(idx.count_eq(&Value::Int(3), 100), 5);
        assert_eq!(idx.count_eq(&Value::Int(3), 2), 2);
        assert_eq!(idx.count_eq(&Value::Int(99), 100), 0);
    }

    #[test]
    fn string_keys() {
        let mut idx = SingleClassIndex::new();
        idx.insert(Value::str("Detroit"), oid(1));
        idx.insert(Value::str("Austin"), oid(2));
        assert_eq!(idx.lookup_eq(&Value::str("Detroit")), vec![oid(1)]);
        let got = idx.lookup_range(
            Bound::Included(&Value::str("A")),
            Bound::Excluded(&Value::str("B")),
        );
        assert_eq!(got, vec![oid(2)]);
    }
}
