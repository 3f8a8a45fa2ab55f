//! Attribute domains.
//!
//! "The domain (type) of an attribute of a class may be any class. The
//! domain class may be a primitive class, such as integer, string, or
//! boolean. It may be a general class with its own set of attributes and
//! methods. The domain of an attribute of a class C may be the class C."
//! (§3.1, concept 4.) Domains are therefore either primitive classes,
//! user classes (by [`ClassId`], permitting self-reference and cycles in
//! the aggregation graph), or set/list constructors over another domain.

use crate::codec::MAX_NESTING;
use crate::error::{DbError, DbResult};
use crate::oid::ClassId;
use crate::value::Value;
use crate::wire::{get_u16, get_u8};
use std::fmt;

/// The system-defined primitive classes. The discriminant is the
/// type's tag in the [`Domain`] encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveType {
    /// 64-bit signed integer.
    Int = 0,
    /// 64-bit IEEE float.
    Float = 1,
    /// Boolean.
    Bool = 2,
    /// UTF-8 string.
    Str = 3,
    /// Long unstructured data.
    Blob = 4,
}

/// Every primitive type, indexed by its tag.
const PRIMITIVES: [PrimitiveType; 5] = [
    PrimitiveType::Int,
    PrimitiveType::Float,
    PrimitiveType::Bool,
    PrimitiveType::Str,
    PrimitiveType::Blob,
];

const DOM_PRIMITIVE: u8 = 0;
const DOM_CLASS: u8 = 1;
const DOM_SET_OF: u8 = 2;
const DOM_LIST_OF: u8 = 3;
const DOM_ANY: u8 = 4;

impl PrimitiveType {
    /// Canonical name as used by the schema language.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveType::Int => "int",
            PrimitiveType::Float => "float",
            PrimitiveType::Bool => "bool",
            PrimitiveType::Str => "string",
            PrimitiveType::Blob => "blob",
        }
    }

    /// Parse a primitive type name.
    pub fn parse(name: &str) -> Option<PrimitiveType> {
        match name {
            "int" | "integer" => Some(PrimitiveType::Int),
            "float" | "real" => Some(PrimitiveType::Float),
            "bool" | "boolean" => Some(PrimitiveType::Bool),
            "string" | "str" => Some(PrimitiveType::Str),
            "blob" => Some(PrimitiveType::Blob),
            _ => None,
        }
    }
}

impl fmt::Display for PrimitiveType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The domain of an attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Domain {
    /// A primitive class.
    Primitive(PrimitiveType),
    /// A user-defined class; values are object references.
    Class(ClassId),
    /// A set of elements of the inner domain (§3.1 concept 2:
    /// "an attribute ... may take on a single value or a set of values").
    SetOf(Box<Domain>),
    /// An ordered list of elements of the inner domain.
    ListOf(Box<Domain>),
    /// Any value at all; used by system attributes and views.
    Any,
}

impl Domain {
    /// Shorthand for a set-of-class domain, the most common set domain.
    pub fn set_of_class(class: ClassId) -> Domain {
        Domain::SetOf(Box::new(Domain::Class(class)))
    }

    /// Does a value conform to this domain, given a subclass test?
    ///
    /// `is_subclass(sub, sup)` must return true iff `sub` equals `sup` or
    /// is a direct or indirect subclass — the schema crate supplies it.
    /// `Null` conforms to every domain (unset attribute). A reference
    /// conforms to a class domain when the referenced object's class is
    /// the domain class *or any of its subclasses*, the paper's
    /// "interpretation of a class as the generalization of all its
    /// subclasses ... extended to the domain of an attribute" (§3.2).
    /// No value nested deeper than [`MAX_NESTING`] conforms: the codec
    /// could not read it back.
    pub fn admits<F>(&self, value: &Value, is_subclass: &F) -> bool
    where
        F: Fn(ClassId, ClassId) -> bool,
    {
        value.nesting() <= MAX_NESTING && self.conforms(value, is_subclass)
    }

    fn conforms<F>(&self, value: &Value, is_subclass: &F) -> bool
    where
        F: Fn(ClassId, ClassId) -> bool,
    {
        match (self, value) {
            (_, Value::Null) => true,
            (Domain::Any, _) => true,
            (Domain::Primitive(PrimitiveType::Int), Value::Int(_)) => true,
            (Domain::Primitive(PrimitiveType::Float), Value::Float(_) | Value::Int(_)) => true,
            (Domain::Primitive(PrimitiveType::Bool), Value::Bool(_)) => true,
            (Domain::Primitive(PrimitiveType::Str), Value::Str(_)) => true,
            (Domain::Primitive(PrimitiveType::Blob), Value::Blob(_)) => true,
            (Domain::Class(domain_class), Value::Ref(oid)) => {
                is_subclass(oid.class(), *domain_class)
            }
            (Domain::SetOf(inner), Value::Set(items)) => {
                items.iter().all(|item| inner.conforms(item, is_subclass))
            }
            (Domain::ListOf(inner), Value::List(items)) => {
                items.iter().all(|item| inner.conforms(item, is_subclass))
            }
            _ => false,
        }
    }

    /// The class referenced at the leaf of this domain, if any; i.e. the
    /// domain class a nested query path steps into. Sets and lists are
    /// transparent (a predicate on a set-valued attribute quantifies over
    /// elements).
    pub fn leaf_class(&self) -> Option<ClassId> {
        match self {
            Domain::Class(c) => Some(*c),
            Domain::SetOf(inner) | Domain::ListOf(inner) => inner.leaf_class(),
            _ => None,
        }
    }

    /// Is this domain (transitively) a reference domain?
    pub fn is_reference(&self) -> bool {
        self.leaf_class().is_some()
    }

    /// Domain specialization test for schema evolution: a subclass may
    /// override an inherited attribute's domain only with the *same*
    /// domain or one whose leaf class is a subclass of the original's
    /// (invariant from \[BANE87\]).
    pub fn specializes<F>(&self, general: &Domain, is_subclass: &F) -> bool
    where
        F: Fn(ClassId, ClassId) -> bool,
    {
        match (self, general) {
            (a, b) if a == b => true,
            (_, Domain::Any) => true,
            (Domain::Class(sub), Domain::Class(sup)) => is_subclass(*sub, *sup),
            (Domain::SetOf(a), Domain::SetOf(b)) | (Domain::ListOf(a), Domain::ListOf(b)) => {
                a.specializes(b, is_subclass)
            }
            _ => false,
        }
    }

    /// Append this domain's encoding, the one catalog snapshots and the
    /// wire share: a tag byte, then the primitive's tag, the class id,
    /// or the element domain.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Domain::Primitive(p) => out.extend([DOM_PRIMITIVE, *p as u8]),
            Domain::Class(c) => {
                out.push(DOM_CLASS);
                out.extend(c.0.to_le_bytes());
            }
            Domain::SetOf(inner) => {
                out.push(DOM_SET_OF);
                inner.encode(out);
            }
            Domain::ListOf(inner) => {
                out.push(DOM_LIST_OF);
                inner.encode(out);
            }
            Domain::Any => out.push(DOM_ANY),
        }
    }

    /// Decode a domain from the front of `buf`. Sets and lists nest at
    /// most [`MAX_NESTING`] deep; errors are [`DbError::Protocol`].
    pub fn decode(buf: &mut &[u8]) -> DbResult<Domain> {
        Domain::decode_at(buf, 0)
    }

    fn decode_at(buf: &mut &[u8], depth: usize) -> DbResult<Domain> {
        Ok(match get_u8(buf)? {
            DOM_PRIMITIVE => {
                let tag = get_u8(buf)?;
                let p = PRIMITIVES.get(tag as usize);
                Domain::Primitive(
                    *p.ok_or_else(|| DbError::Protocol(format!("bad primitive tag {tag}")))?,
                )
            }
            DOM_CLASS => Domain::Class(ClassId(get_u16(buf)?)),
            tag @ (DOM_SET_OF | DOM_LIST_OF) => {
                if depth >= MAX_NESTING {
                    return Err(DbError::Protocol(format!(
                        "domain nested deeper than {MAX_NESTING} levels"
                    )));
                }
                let inner = Box::new(Domain::decode_at(buf, depth + 1)?);
                if tag == DOM_SET_OF {
                    Domain::SetOf(inner)
                } else {
                    Domain::ListOf(inner)
                }
            }
            DOM_ANY => Domain::Any,
            other => return Err(DbError::Protocol(format!("bad domain tag {other}"))),
        })
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Primitive(p) => write!(f, "{p}"),
            Domain::Class(c) => write!(f, "{c}"),
            Domain::SetOf(inner) => write!(f, "set<{inner}>"),
            Domain::ListOf(inner) => write!(f, "list<{inner}>"),
            Domain::Any => write!(f, "any"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;

    fn no_subclassing(a: ClassId, b: ClassId) -> bool {
        a == b
    }

    #[test]
    fn primitive_admission() {
        let is_sub = no_subclassing;
        assert!(Domain::Primitive(PrimitiveType::Int).admits(&Value::Int(1), &is_sub));
        assert!(!Domain::Primitive(PrimitiveType::Int).admits(&Value::str("x"), &is_sub));
        // Int widens into Float domains.
        assert!(Domain::Primitive(PrimitiveType::Float).admits(&Value::Int(1), &is_sub));
        assert!(!Domain::Primitive(PrimitiveType::Bool).admits(&Value::Int(0), &is_sub));
    }

    #[test]
    fn null_conforms_everywhere() {
        let is_sub = no_subclassing;
        assert!(Domain::Primitive(PrimitiveType::Str).admits(&Value::Null, &is_sub));
        assert!(Domain::Class(ClassId(4)).admits(&Value::Null, &is_sub));
    }

    #[test]
    fn class_domain_uses_subclass_test() {
        let vehicle = ClassId(1);
        let truck = ClassId(2);
        let company = ClassId(3);
        let is_sub = |a: ClassId, b: ClassId| a == b || (a == truck && b == vehicle);
        let dom = Domain::Class(vehicle);
        assert!(dom.admits(&Value::Ref(Oid::new(truck, 1)), &is_sub));
        assert!(dom.admits(&Value::Ref(Oid::new(vehicle, 1)), &is_sub));
        assert!(!dom.admits(&Value::Ref(Oid::new(company, 1)), &is_sub));
    }

    #[test]
    fn set_domain_checks_elements() {
        let is_sub = no_subclassing;
        let dom = Domain::SetOf(Box::new(Domain::Primitive(PrimitiveType::Int)));
        assert!(dom.admits(&Value::set(vec![Value::Int(1), Value::Int(2)]), &is_sub));
        assert!(!dom.admits(&Value::set(vec![Value::Int(1), Value::str("x")]), &is_sub));
        assert!(!dom.admits(&Value::Int(1), &is_sub), "scalar is not a set");
    }

    #[test]
    fn leaf_class_pierces_collections() {
        let c = ClassId(9);
        assert_eq!(Domain::set_of_class(c).leaf_class(), Some(c));
        assert_eq!(Domain::Primitive(PrimitiveType::Int).leaf_class(), None);
        assert!(Domain::set_of_class(c).is_reference());
    }

    #[test]
    fn codec_roundtrips_and_caps_nesting() {
        for d in [
            Domain::Primitive(PrimitiveType::Int),
            Domain::Primitive(PrimitiveType::Blob),
            Domain::Class(ClassId(513)),
            Domain::set_of_class(ClassId(9)),
            Domain::ListOf(Box::new(Domain::SetOf(Box::new(Domain::Any)))),
            Domain::Any,
        ] {
            let mut bytes = Vec::new();
            d.encode(&mut bytes);
            let mut buf = bytes.as_slice();
            assert_eq!(Domain::decode(&mut buf).unwrap(), d);
            assert!(buf.is_empty());
            for cut in 0..bytes.len() {
                assert!(Domain::decode(&mut &bytes[..cut]).is_err(), "{d} cut at {cut}");
            }
        }
        assert!(Domain::decode(&mut &[DOM_PRIMITIVE, 5][..]).is_err());
        assert!(Domain::decode(&mut &[9][..]).is_err());
        let deep = |n| [vec![DOM_SET_OF; n], vec![DOM_ANY]].concat();
        assert!(Domain::decode(&mut deep(MAX_NESTING).as_slice()).is_ok());
        for n in [MAX_NESTING + 1, 100_000] {
            assert!(matches!(Domain::decode(&mut deep(n).as_slice()), Err(DbError::Protocol(_))));
        }
    }

    #[test]
    fn specialization() {
        let vehicle = ClassId(1);
        let truck = ClassId(2);
        let is_sub = |a: ClassId, b: ClassId| a == b || (a == truck && b == vehicle);
        assert!(Domain::Class(truck).specializes(&Domain::Class(vehicle), &is_sub));
        assert!(!Domain::Class(vehicle).specializes(&Domain::Class(truck), &is_sub));
        assert!(Domain::set_of_class(truck).specializes(&Domain::set_of_class(vehicle), &is_sub));
        assert!(Domain::Class(truck).specializes(&Domain::Any, &is_sub));
        assert!(!Domain::Primitive(PrimitiveType::Int)
            .specializes(&Domain::Primitive(PrimitiveType::Float), &is_sub));
    }
}
