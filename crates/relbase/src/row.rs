//! Row (tuple) encoding: a row id followed by column values, reusing
//! the orion value codec so rows and objects cost the same bytes.

use orion_types::codec::{decode_value, encode_value};
use orion_types::wire::{get_count16, get_u64, retag};
use orion_types::{DbError, DbResult, Value};

use bytes::BufMut;

/// Encode a row as `rowid | column count | values...`.
pub fn encode_row(rowid: u64, values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + values.len() * 9);
    out.put_u64_le(rowid);
    out.put_u16_le(values.len() as u16);
    for v in values {
        encode_value(v, &mut out);
    }
    out
}

/// Decode a row.
pub fn decode_row(mut bytes: &[u8]) -> DbResult<(u64, Vec<Value>)> {
    let buf = &mut bytes;
    let rowid = get_u64(buf).map_err(retag(DbError::Storage))?;
    let count = get_count16(buf, 1).map_err(retag(DbError::Storage))?;
    let values = (0..count).map(|_| decode_value(buf)).collect::<DbResult<_>>()?;
    Ok((rowid, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let values = vec![Value::Int(7), Value::str("x"), Value::Null, Value::Float(1.5)];
        let bytes = encode_row(42, &values);
        let (rowid, decoded) = decode_row(&bytes).unwrap();
        assert_eq!(rowid, 42);
        assert_eq!(decoded, values);
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(decode_row(&[1, 2, 3]).is_err());
    }
}
