//! Binary on-page encoding of values and object records.
//!
//! Objects are stored in heap-file pages as self-describing records:
//! a header carrying the OID and the schema version the object was last
//! written under (lazy schema evolution reads this to decide whether the
//! record needs adaptation), followed by `(attribute id, value)` pairs.
//! The encoding is deliberately simple, little-endian, and versionless —
//! durability compatibility across releases is a non-goal for a research
//! system, crash consistency is (the WAL stores these same bytes).

use crate::error::{DbError, DbResult};
use crate::oid::Oid;
use crate::value::Value;
use crate::wire::{get_bytes, get_count, get_count16, get_str, get_u32, get_u64, get_u8};
use crate::wire::{put_bytes, put_str, retag, take};
use bytes::BufMut;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_REF: u8 = 5;
const TAG_SET: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_BLOB: u8 = 8;

/// How deep sets and lists may nest inside one value. The decoders
/// reject anything deeper and [`crate::Domain::admits`] refuses to store
/// it, so no record or request makes a decoder recurse past this.
pub const MAX_NESTING: usize = 64;

/// Append the encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.put_u8(TAG_NULL),
        Value::Int(i) => {
            out.put_u8(TAG_INT);
            out.put_i64_le(*i);
        }
        Value::Float(x) => {
            out.put_u8(TAG_FLOAT);
            out.put_f64_le(*x);
        }
        Value::Bool(b) => {
            out.put_u8(TAG_BOOL);
            out.put_u8(*b as u8);
        }
        Value::Str(s) => {
            out.put_u8(TAG_STR);
            put_str(out, s);
        }
        Value::Ref(oid) => {
            out.put_u8(TAG_REF);
            out.put_u64_le(oid.to_raw());
        }
        Value::Set(items) => {
            out.put_u8(TAG_SET);
            out.put_u32_le(items.len() as u32);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::List(items) => {
            out.put_u8(TAG_LIST);
            out.put_u32_le(items.len() as u32);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Blob(bytes) => {
            out.put_u8(TAG_BLOB);
            put_bytes(out, bytes);
        }
    }
}

/// Decode one value from the front of `buf`, advancing it.
pub fn decode_value(buf: &mut &[u8]) -> DbResult<Value> {
    value_at(buf, 0).map_err(retag(DbError::Storage))
}

fn value_at(buf: &mut &[u8], depth: usize) -> DbResult<Value> {
    Ok(match get_u8(buf)? {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(get_u64(buf)? as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(get_u64(buf)?)),
        TAG_BOOL => Value::Bool(get_u8(buf)? != 0),
        TAG_STR => Value::Str(get_str(buf)?),
        TAG_REF => Value::Ref(Oid::from_raw(get_u64(buf)?)),
        tag @ (TAG_SET | TAG_LIST) => {
            let len = collection_len(buf, depth)?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(value_at(buf, depth + 1)?);
            }
            if tag == TAG_SET {
                Value::Set(items)
            } else {
                Value::List(items)
            }
        }
        TAG_BLOB => Value::Blob(get_bytes(buf)?.to_vec()),
        other => return Err(DbError::Protocol(format!("unknown value tag {other}"))),
    })
}

/// The element count of a set or list found at `depth`, held to the
/// count rule and to [`MAX_NESTING`].
fn collection_len(buf: &mut &[u8], depth: usize) -> DbResult<usize> {
    if depth >= MAX_NESTING {
        return Err(DbError::Protocol(format!("value nested deeper than {MAX_NESTING} levels")));
    }
    get_count(buf, 1)
}

/// Step over one encoded value at the front of `buf` without
/// materializing it: fixed-width values and length-prefixed payloads
/// are skipped by their length, collections element by element.
pub fn skip_value(buf: &mut &[u8]) -> DbResult<()> {
    skip_at(buf, 0).map_err(retag(DbError::Storage))
}

fn skip_at(buf: &mut &[u8], depth: usize) -> DbResult<()> {
    match get_u8(buf)? {
        TAG_NULL => {}
        TAG_INT | TAG_FLOAT | TAG_REF => drop(take(buf, 8)?),
        TAG_BOOL => drop(take(buf, 1)?),
        TAG_STR | TAG_BLOB => drop(get_bytes(buf)?),
        TAG_SET | TAG_LIST => {
            for _ in 0..collection_len(buf, depth)? {
                skip_at(buf, depth + 1)?;
            }
        }
        other => return Err(DbError::Protocol(format!("unknown value tag {other}"))),
    }
    Ok(())
}

/// A decoded object record: identity, schema version, and attribute
/// values keyed by catalog-assigned attribute id.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    /// The object's identity.
    pub oid: Oid,
    /// Schema version of the object's class at last write; lazy schema
    /// evolution compares this against the catalog's current version.
    pub schema_version: u32,
    /// `(attribute id, value)` pairs, sorted by attribute id.
    pub attrs: Vec<(u32, Value)>,
}

impl ObjectRecord {
    /// Build a record, normalizing attribute order.
    pub fn new(oid: Oid, schema_version: u32, mut attrs: Vec<(u32, Value)>) -> Self {
        attrs.sort_by_key(|(id, _)| *id);
        ObjectRecord { oid, schema_version, attrs }
    }

    /// Look up one attribute's value by id.
    pub fn get(&self, attr_id: u32) -> Option<&Value> {
        self.attrs.binary_search_by_key(&attr_id, |(id, _)| *id).ok().map(|i| &self.attrs[i].1)
    }

    /// Set (or insert) one attribute's value.
    pub fn set(&mut self, attr_id: u32, value: Value) {
        match self.attrs.binary_search_by_key(&attr_id, |(id, _)| *id) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (attr_id, value)),
        }
    }

    /// Remove one attribute (used by drop-attribute schema evolution).
    pub fn remove(&mut self, attr_id: u32) -> Option<Value> {
        match self.attrs.binary_search_by_key(&attr_id, |(id, _)| *id) {
            Ok(i) => Some(self.attrs.remove(i).1),
            Err(_) => None,
        }
    }

    /// Serialize to the on-page byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.attrs.len() * 12);
        out.put_u64_le(self.oid.to_raw());
        out.put_u32_le(self.schema_version);
        out.put_u16_le(self.attrs.len() as u16);
        for (attr_id, value) in &self.attrs {
            out.put_u32_le(*attr_id);
            encode_value(value, &mut out);
        }
        out
    }

    /// Deserialize from the on-page byte form.
    pub fn decode(buf: &[u8]) -> DbResult<ObjectRecord> {
        Self::decode_projected(buf, |_| true)
    }

    /// Deserialize only the attributes `keep` accepts; the others are
    /// stepped over by length (a scan that reads two attributes of a
    /// wide record allocates for two). The result equals
    /// [`ObjectRecord::decode`]'s with the rejected attributes removed.
    pub fn decode_projected(buf: &[u8], keep: impl Fn(u32) -> bool) -> DbResult<ObjectRecord> {
        Self::record_at(&mut { buf }, keep).map_err(retag(DbError::Storage))
    }

    fn record_at(buf: &mut &[u8], keep: impl Fn(u32) -> bool) -> DbResult<ObjectRecord> {
        let oid = Oid::from_raw(get_u64(buf)?);
        let schema_version = get_u32(buf)?;
        // An attribute is at least its id and a tag byte.
        let count = get_count16(buf, 5)?;
        let mut attrs = Vec::with_capacity(count);
        for _ in 0..count {
            let attr_id = get_u32(buf)?;
            if keep(attr_id) {
                attrs.push((attr_id, value_at(buf, 0)?));
            } else {
                skip_at(buf, 0)?;
            }
        }
        Ok(ObjectRecord { oid, schema_version, attrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::ClassId;

    fn roundtrip(v: &Value) -> Value {
        let mut bytes = Vec::new();
        encode_value(v, &mut bytes);
        let mut slice = bytes.as_slice();
        let decoded = decode_value(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decoder must consume exactly the encoding");
        decoded
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Bool(true),
            Value::str("hello κόσμε"),
            Value::Ref(Oid::new(ClassId(12), 99)),
            Value::Blob(vec![0, 1, 2, 255]),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nested_collection_roundtrips() {
        let v = Value::List(vec![
            Value::set(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::str("a"), Value::Null]),
            Value::Ref(Oid::new(ClassId(1), 7)),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        encode_value(&Value::str("hello"), &mut bytes);
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert!(decode_value(&mut slice).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut slice: &[u8] = &[99u8];
        assert!(decode_value(&mut slice).is_err());
    }

    #[test]
    fn record_roundtrip_and_accessors() {
        let oid = Oid::new(ClassId(3), 10);
        let mut rec = ObjectRecord::new(
            oid,
            2,
            vec![(5, Value::Int(1)), (1, Value::str("x")), (9, Value::Null)],
        );
        assert_eq!(rec.attrs[0].0, 1, "attrs are sorted by id");
        assert_eq!(rec.get(5), Some(&Value::Int(1)));
        assert_eq!(rec.get(6), None);
        rec.set(6, Value::Bool(true));
        rec.set(5, Value::Int(2));
        assert_eq!(rec.get(5), Some(&Value::Int(2)));
        assert_eq!(rec.remove(1), Some(Value::str("x")));
        assert_eq!(rec.remove(1), None);

        let decoded = ObjectRecord::decode(&rec.encode()).expect("decode");
        assert_eq!(decoded, rec);
        assert_eq!(decoded.oid, oid);
        assert_eq!(decoded.schema_version, 2);
    }

    #[test]
    fn projected_decode_keeps_only_the_named_attributes() {
        let oid = Oid::new(ClassId(3), 10);
        let rec = ObjectRecord::new(
            oid,
            7,
            vec![
                (1, Value::str("a long name nobody asked for")),
                (2, Value::Int(4200)),
                (3, Value::List(vec![Value::set(vec![Value::Int(1)]), Value::str("x")])),
                (4, Value::Ref(Oid::new(ClassId(1), 5))),
                (5, Value::Blob(vec![9; 300])),
                (6, Value::Bool(true)),
                (7, Value::Float(0.5)),
                (8, Value::Null),
                (u32::MAX - 1, Value::Ref(oid)),
            ],
        );
        let bytes = rec.encode();
        for wanted in [vec![], vec![2u32, 4], vec![1, 3, 5, 8], (1..=8).collect()] {
            let keep = |id: u32| id > 1000 || wanted.contains(&id);
            let got = ObjectRecord::decode_projected(&bytes, keep).expect("decode");
            let mut want = rec.clone();
            want.attrs.retain(|(id, _)| keep(*id));
            assert_eq!(got, want, "projection {wanted:?}");
        }
        // Skipping validates as strictly as decoding: every truncation
        // is an error under every projection.
        for cut in 0..bytes.len() {
            assert!(ObjectRecord::decode_projected(&bytes[..cut], |_| false).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn record_decode_rejects_garbage() {
        assert!(ObjectRecord::decode(&[1, 2, 3]).is_err());
    }

    /// `depth` sets, one inside the other, around a null — as bytes, so
    /// the test itself never builds (or drops) a deep `Value`.
    fn nested_sets(depth: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for _ in 0..depth {
            bytes.push(TAG_SET);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn nesting_is_capped_in_decode_skip_and_admission() {
        let ok = nested_sets(MAX_NESTING);
        let value = decode_value(&mut ok.as_slice()).expect("at the cap");
        assert_eq!(value.nesting(), MAX_NESTING);
        assert!(skip_value(&mut ok.as_slice()).is_ok());
        assert!(crate::Domain::Any.admits(&value, &|_, _| true));

        for depth in [MAX_NESTING + 1, 100_000] {
            let deep = nested_sets(depth);
            assert!(matches!(decode_value(&mut deep.as_slice()), Err(DbError::Storage(_))));
            assert!(matches!(skip_value(&mut deep.as_slice()), Err(DbError::Storage(_))));
        }
        let over = Value::set(vec![value]);
        assert!(!crate::Domain::Any.admits(&over, &|_, _| true), "no store of what cannot load");
    }

    #[test]
    fn counts_past_the_input_fail_before_allocating() {
        for tag in [TAG_SET, TAG_LIST] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_value(&mut bytes.as_slice()).is_err());
            assert!(skip_value(&mut bytes.as_slice()).is_err());
        }
        let mut record = ObjectRecord::new(Oid::new(ClassId(1), 1), 0, vec![]).encode();
        record[12..14].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(ObjectRecord::decode(&record), Err(DbError::Storage(_))));
    }
}
