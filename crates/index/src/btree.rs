//! The ordered map under every index: `std::collections::BTreeMap`
//! behind the few calls the indexes make.
//!
//! \[KIM89b\]'s per-key class directory is simply the map's value
//! (`ch_index`), so std's map serves the class-hierarchy index as it
//! is. The one thing this wrapper adds is [`BTree::range`]'s bound
//! check: the planner merges `w > 9000 and w < 100` into an inverted
//! bound pair, on which std's `range` panics, and here that range is
//! empty.

use std::collections::btree_map::{BTreeMap, Entry, Iter, Range};
use std::ops::Bound;

/// An ordered map from `K` to `V`.
#[derive(Debug, Clone)]
pub struct BTree<K, V>(BTreeMap<K, V>);

impl<K, V> Default for BTree<K, V> {
    fn default() -> Self {
        BTree(BTreeMap::new())
    }
}

impl<K: Ord, V> BTree<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Get the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// Get a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    /// Insert `key → val`; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        self.0.insert(key, val)
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// The entry for `key`, for a lookup-or-insert in one descent.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Iterate `(key, value)` pairs with keys between `lower` and
    /// `upper`, ascending. An empty or inverted pair yields nothing.
    pub fn range(&self, lower: Bound<&K>, upper: Bound<&K>) -> Range<'_, K, V> {
        use Bound::{Excluded, Included};
        let empty = match (lower, upper) {
            (Included(l), Included(u)) => l > u,
            (Included(l) | Excluded(l), Included(u) | Excluded(u)) => l >= u,
            _ => false,
        };
        match lower {
            // std accepts the empty `[l, l)`.
            Included(l) | Excluded(l) if empty => self.0.range((Included(l), Excluded(l))),
            _ => self.0.range((lower, upper)),
        }
    }

    /// Iterate every `(key, value)` pair in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut t: BTree<i32, String> = BTree::new();
        assert!(t.is_empty());
        for i in [5, 1, 9, 3, 7] {
            assert!(t.insert(i, format!("v{i}")).is_none());
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(&3), Some(&"v3".to_string()));
        assert_eq!(t.get(&4), None);
        assert_eq!(t.insert(3, "replaced".into()), Some("v3".into()));
        assert_eq!(t.len(), 5);
        assert_eq!(t.remove(&3), Some("replaced".into()));
        assert_eq!(t.remove(&3), None, "double remove");
        t.get_mut(&1).unwrap().push('!');
        t.entry(1).or_default().push('?');
        t.entry(2).or_default().push('x');
        let got: Vec<(i32, &str)> = t.iter().map(|(k, v)| (*k, v.as_str())).collect();
        assert_eq!(got, vec![(1, "v1!?"), (2, "x"), (5, "v5"), (7, "v7"), (9, "v9")]);
    }

    #[test]
    fn range_bounds() {
        let mut t: BTree<i32, ()> = BTree::new();
        for i in (0..100).step_by(10) {
            t.insert(i, ());
        }
        let keys = |lo, hi| t.range(lo, hi).map(|(k, _)| *k).collect::<Vec<_>>();
        use Bound::*;
        assert_eq!(keys(Included(&15), Included(&45)), vec![20, 30, 40]);
        assert_eq!(keys(Excluded(&20), Excluded(&50)), vec![30, 40]);
        assert_eq!(keys(Excluded(&80), Unbounded), vec![90]);
        assert_eq!(keys(Unbounded, Included(&10)), vec![0, 10]);
        assert_eq!(keys(Included(&50), Included(&50)), vec![50]);
        // Empty and inverted pairs, on which std's range would panic.
        for (lo, hi) in [
            (Included(&50), Excluded(&50)),
            (Excluded(&50), Included(&50)),
            (Excluded(&50), Excluded(&50)),
            (Included(&90), Included(&10)),
            (Excluded(&90), Excluded(&10)),
        ] {
            assert_eq!(keys(lo, hi), Vec::<i32>::new(), "{lo:?}..{hi:?}");
        }
    }
}
