//! Property tests: the ordered map and both posting indexes against
//! `std::collections` models. Range bounds are drawn independently,
//! unsorted, from every `Bound` kind, so empty and inverted pairs — on
//! which std's own `range` panics — come up as often as ordinary ones.

use orion_index::{BTree, ClassHierarchyIndex, SingleClassIndex};
use orion_types::{ClassId, Oid, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, RangeBounds};

type Bounds = (Bound<i32>, Bound<i32>);

#[derive(Debug, Clone)]
enum Op {
    Insert(i32, u32),
    Remove(i32),
    Get(i32),
    Range(Bounds),
}

fn arb_bound() -> impl Strategy<Value = Bound<i32>> {
    prop_oneof![
        Just(Bound::Unbounded),
        (-60i32..60).prop_map(Bound::Included),
        (-60i32..60).prop_map(Bound::Excluded),
    ]
}

fn arb_bounds() -> impl Strategy<Value = Bounds> {
    (arb_bound(), arb_bound())
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let key = -60i32..60;
    proptest::collection::vec(
        prop_oneof![
            (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            key.clone().prop_map(Op::Remove),
            key.prop_map(Op::Get),
            arb_bounds().prop_map(Op::Range),
        ],
        0..400,
    )
}

/// `(key, class, serial)` postings; removals are drawn from the same space.
fn arb_postings() -> impl Strategy<Value = Vec<(bool, i32, u16, u64)>> {
    proptest::collection::vec((any::<bool>(), -60i32..60, 1u16..4, 0u64..40), 0..300)
}

fn value_bound(b: Bound<i32>) -> Bound<Value> {
    b.map(|k| Value::Int(k as i64))
}

proptest! {
    #[test]
    fn btree_matches_std_model(ops in arb_ops()) {
        let mut tree: BTree<i32, u32> = BTree::new();
        let mut model: BTreeMap<i32, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(tree.insert(k, v), model.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(tree.remove(&k), model.remove(&k)),
                Op::Get(k) => prop_assert_eq!(tree.get(&k), model.get(&k)),
                Op::Range(bounds) => {
                    let got: Vec<(&i32, &u32)> =
                        tree.range(bounds.0.as_ref(), bounds.1.as_ref()).collect();
                    let want: Vec<(&i32, &u32)> =
                        model.iter().filter(|(k, _)| bounds.contains(*k)).collect();
                    prop_assert_eq!(got, want, "{:?}", bounds);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        prop_assert!(tree.iter().eq(model.iter()));
    }

    #[test]
    fn index_ranges_match_a_filtered_model(
        postings in arb_postings(),
        probes in proptest::collection::vec(arb_bounds(), 1..20),
        scope in proptest::option::of(0u8..8),
    ) {
        let mut sc = SingleClassIndex::new();
        let mut ch = ClassHierarchyIndex::new();
        let mut model: BTreeMap<i32, BTreeSet<Oid>> = BTreeMap::new();
        for (remove, key, class, serial) in postings {
            let oid = Oid::new(ClassId(class), serial);
            let value = Value::Int(key as i64);
            if remove {
                let had = model.get_mut(&key).is_some_and(|set| set.remove(&oid));
                prop_assert_eq!(sc.remove(&value, oid), had);
                prop_assert_eq!(ch.remove(&value, oid), had);
            } else {
                model.entry(key).or_default().insert(oid);
                sc.insert(value.clone(), oid);
                ch.insert(value, oid);
            }
        }
        // A bit mask over classes 1-3; `None` scopes to every class.
        let scope: Option<Vec<ClassId>> =
            scope.map(|mask| (1..4).filter(|c| mask & 1 << (c - 1) != 0).map(ClassId).collect());
        for bounds in probes {
            let (lo, hi) = (value_bound(bounds.0), value_bound(bounds.1));
            let (lo, hi) = (lo.as_ref(), hi.as_ref());
            let want: Vec<Oid> = model
                .iter()
                .filter(|(k, _)| bounds.contains(*k))
                .flat_map(|(_, set)| set.iter().copied())
                .collect();
            let got = sc.lookup_range(lo, hi);
            prop_assert_eq!(&got, &want, "{:?}", bounds);
            prop_assert_eq!(sc.count_range(lo, hi, usize::MAX), got.len());

            let want: Vec<Oid> = want
                .into_iter()
                .filter(|o| scope.as_ref().is_none_or(|s| s.contains(&o.class())))
                .collect();
            let got = ch.lookup_range(lo, hi, scope.as_deref());
            prop_assert_eq!(&got, &want, "{:?} in {:?}", bounds, scope);
            prop_assert_eq!(ch.count_range(lo, hi, scope.as_deref(), usize::MAX), got.len());
        }
    }
}
