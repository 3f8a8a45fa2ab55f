//! The attribute value universe.
//!
//! "The value of an attribute of an object is also an object in its own
//! right. Further, an attribute of an object may take on a single value or
//! a set of values" (§3.1, concept 2). Values of primitive classes
//! (integer, float, boolean, string) are stored inline; values of user
//! classes are stored as [`Oid`] references, which is what makes nested
//! objects, the aggregation hierarchy, and pointer swizzling possible.
//! `Blob` carries the "long unstructured data (such as images, audio, and
//! textual documents)" the paper lists among post-relational requirements.

use crate::oid::Oid;
use std::cmp::Ordering;
use std::fmt;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The absence of a value (an unset attribute).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
    /// Reference to another object — the edge of the aggregation graph.
    Ref(Oid),
    /// Set-valued attribute: unordered, duplicate-free collection.
    /// Kept sorted by [`Value::cmp_total`] so equality is structural.
    Set(Vec<Value>),
    /// List-valued attribute: ordered collection, duplicates allowed.
    List(Vec<Value>),
    /// Long unstructured data (images, audio, documents).
    Blob(Vec<u8>),
}

impl Value {
    /// Build a set value, normalizing order and removing duplicates.
    pub fn set(mut items: Vec<Value>) -> Value {
        items.sort_by(Value::cmp_total);
        items.dedup();
        Value::Set(items)
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, accepting `Int` by widening.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The referenced OID, if this is a `Ref`.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(oid) => Some(*oid),
            _ => None,
        }
    }

    /// The element slice, if this is a `Set` or `List`.
    pub fn as_elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(v) | Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// How many sets and lists nest in this value: 0 for a scalar.
    pub fn nesting(&self) -> usize {
        self.as_elements()
            .map_or(0, |items| 1 + items.iter().map(Value::nesting).max().unwrap_or(0))
    }

    /// Every OID directly referenced by this value, in order of
    /// appearance. Drives reverse-reference maintenance for nested
    /// indexes and composite-object bookkeeping.
    pub fn collect_refs(&self, out: &mut Vec<Oid>) {
        match self {
            Value::Ref(oid) => out.push(*oid),
            Value::Set(items) | Value::List(items) => {
                for item in items {
                    item.collect_refs(out);
                }
            }
            _ => {}
        }
    }

    /// A short tag naming the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Ref(_) => "ref",
            Value::Set(_) => "set",
            Value::List(_) => "list",
            Value::Blob(_) => "blob",
        }
    }

    /// Total order over all values, used for index keys, `order by`, and
    /// set normalization. Cross-variant comparisons order by variant rank
    /// (`Null < numbers < Bool < Str < Ref < Set < List < Blob`); `Int`
    /// and `Float` compare numerically so that `1` and `1.0` collate
    /// together; NaN sorts above every other float (total order).
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Float(_) => 1,
                Bool(_) => 2,
                Str(_) => 3,
                Ref(_) => 4,
                Set(_) => 5,
                List(_) => 6,
                Blob(_) => 7,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Ref(a), Ref(b)) => a.cmp(b),
            (Set(a), Set(b)) | (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.cmp_total(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Blob(a), Blob(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Structural equality under [`Value::cmp_total`] (so `Int(1)` equals
    /// `Float(1.0)` for predicate purposes).
    pub fn eq_total(&self, other: &Value) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(oid) => write!(f, "@{oid}"),
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Blob(bytes) => write!(f, "<blob {} bytes>", bytes.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Ref(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::ClassId;

    #[test]
    fn set_constructor_normalizes() {
        let s1 = Value::set(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        let s2 = Value::set(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn numeric_cross_variant_comparison() {
        assert!(Value::Int(1).eq_total(&Value::Float(1.0)));
        assert_eq!(Value::Int(1).cmp_total(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(2.5).cmp_total(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn nan_has_a_defined_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp_total(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1e300).cmp_total(&nan), Ordering::Less);
    }

    #[test]
    fn variant_rank_order() {
        let vals = [
            Value::Null,
            Value::Int(0),
            Value::Bool(false),
            Value::str("a"),
            Value::Ref(Oid::new(ClassId(0), 1)),
            Value::Set(vec![]),
            Value::List(vec![]),
            Value::Blob(vec![]),
        ];
        for w in vals.windows(2) {
            assert_eq!(w[0].cmp_total(&w[1]), Ordering::Less, "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn collect_refs_walks_nested_collections() {
        let a = Oid::new(ClassId(1), 1);
        let b = Oid::new(ClassId(1), 2);
        let v = Value::List(vec![
            Value::Ref(a),
            Value::Set(vec![Value::Ref(b), Value::Int(3)]),
            Value::str("x"),
        ]);
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        assert_eq!(refs, vec![a, b]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::set(vec![Value::Int(2), Value::Int(1)]).to_string(), "{1, 2}");
        assert_eq!(Value::List(vec![Value::Bool(true)]).to_string(), "[true]");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        let oid = Oid::new(ClassId(2), 9);
        assert_eq!(Value::Ref(oid).as_ref_oid(), Some(oid));
        assert_eq!(Value::str("s").as_int(), None);
    }
}
