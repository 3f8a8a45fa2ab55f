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
use bytes::{Buf, BufMut};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_REF: u8 = 5;
const TAG_SET: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_BLOB: u8 = 8;

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
            out.put_u32_le(s.len() as u32);
            out.put_slice(s.as_bytes());
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
            out.put_u32_le(bytes.len() as u32);
            out.put_slice(bytes);
        }
    }
}

fn need(buf: &&[u8], n: usize) -> DbResult<()> {
    if buf.remaining() < n {
        Err(DbError::Storage(format!(
            "truncated value encoding: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Decode one value from the front of `buf`, advancing it.
pub fn decode_value(buf: &mut &[u8]) -> DbResult<Value> {
    need(buf, 1)?;
    let tag = buf.get_u8();
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_FLOAT => {
            need(buf, 8)?;
            Ok(Value::Float(buf.get_f64_le()))
        }
        TAG_BOOL => {
            need(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        TAG_STR => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            let bytes = buf[..len].to_vec();
            buf.advance(len);
            String::from_utf8(bytes)
                .map(Value::Str)
                .map_err(|_| DbError::Storage("invalid UTF-8 in string value".into()))
        }
        TAG_REF => {
            need(buf, 8)?;
            Ok(Value::Ref(Oid::from_raw(buf.get_u64_le())))
        }
        TAG_SET | TAG_LIST => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_value(buf)?);
            }
            Ok(if tag == TAG_SET { Value::Set(items) } else { Value::List(items) })
        }
        TAG_BLOB => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            let bytes = buf[..len].to_vec();
            buf.advance(len);
            Ok(Value::Blob(bytes))
        }
        other => Err(DbError::Storage(format!("unknown value tag {other}"))),
    }
}

/// Step over one encoded value at the front of `buf` without
/// materializing it: fixed-width values and length-prefixed payloads
/// are skipped by their length, collections element by element.
pub fn skip_value(buf: &mut &[u8]) -> DbResult<()> {
    need(buf, 1)?;
    let tag = buf.get_u8();
    let fixed = match tag {
        TAG_NULL => 0,
        TAG_INT | TAG_FLOAT | TAG_REF => 8,
        TAG_BOOL => 1,
        TAG_STR | TAG_BLOB => {
            need(buf, 4)?;
            buf.get_u32_le() as usize
        }
        TAG_SET | TAG_LIST => {
            need(buf, 4)?;
            for _ in 0..buf.get_u32_le() {
                skip_value(buf)?;
            }
            0
        }
        other => return Err(DbError::Storage(format!("unknown value tag {other}"))),
    };
    need(buf, fixed)?;
    buf.advance(fixed);
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
        self.attrs
            .binary_search_by_key(&attr_id, |(id, _)| *id)
            .ok()
            .map(|i| &self.attrs[i].1)
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
    pub fn decode_projected(
        mut buf: &[u8],
        keep: impl Fn(u32) -> bool,
    ) -> DbResult<ObjectRecord> {
        let buf = &mut buf;
        need(buf, 14)?;
        let oid = Oid::from_raw(buf.get_u64_le());
        let schema_version = buf.get_u32_le();
        let count = buf.get_u16_le() as usize;
        let mut attrs = Vec::with_capacity(count);
        for _ in 0..count {
            need(buf, 4)?;
            let attr_id = buf.get_u32_le();
            if keep(attr_id) {
                attrs.push((attr_id, decode_value(buf)?));
            } else {
                skip_value(buf)?;
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
}
