//! Ordered key wrapper over [`Value`].

use orion_types::Value;
use std::cmp::Ordering;
use std::ops::Bound;

/// A [`Value`] usable as an index key: total order via
/// [`Value::cmp_total`] (so `Int(1)` and `Float(1.0)` collate together,
/// NaN has a defined position, and cross-variant keys rank by kind).
#[derive(Debug, Clone)]
pub struct KeyVal(pub Value);

impl PartialEq for KeyVal {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp_total(&other.0) == Ordering::Equal
    }
}
impl Eq for KeyVal {}

impl PartialOrd for KeyVal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyVal {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_total(&other.0)
    }
}

/// A range bound over values as the index key type, for
/// [`BTree::range`](crate::BTree::range).
pub fn keyed(bound: Bound<&Value>) -> Bound<KeyVal> {
    bound.map(|v| KeyVal(v.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_follows_total_order() {
        let mut keys =
            [KeyVal(Value::Int(3)), KeyVal(Value::Float(1.5)), KeyVal(Value::Int(2))];
        keys.sort();
        assert_eq!(keys[0], KeyVal(Value::Float(1.5)));
        assert_eq!(keys[1], KeyVal(Value::Int(2)));
        assert_eq!(keys[2], KeyVal(Value::Int(3)));
    }

    #[test]
    fn numeric_equality_across_variants() {
        assert_eq!(KeyVal(Value::Int(1)), KeyVal(Value::Float(1.0)));
    }
}
