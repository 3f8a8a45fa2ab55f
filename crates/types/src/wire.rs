//! The checked byte-reading primitives every decoder in the system is
//! built from, plus the wire-only codecs on top of them.
//!
//! Every hand-written byte format (value and record codec, `Domain`,
//! catalog and system snapshots, WAL and decision-log bodies, requests
//! and responses, relbase rows) reads its input only through the `get_*`
//! functions here. Each one checks the bytes left before it reads, so a
//! truncated or garbled input is an `Err`, never a panic; and an element
//! count is read only through [`get_count`] / [`get_count16`], which
//! refuse a count of more elements than the bytes left could hold, so
//! nothing is allocated or looped over on a count's say-so. The
//! primitives fail with [`DbError::Protocol`]; a decoder below the wire
//! reports the same message under its own variant via [`retag`].
//!
//! The wire-only part is a **lossless** encoding of [`DbError`], so a
//! failure raised deep inside the server surfaces on the client as the
//! *same* variant (a remote `LockTimeout` must still match
//! `DbError::LockTimeout { .. }` in the caller's code, not collapse
//! into a stringly-typed catch-all). Socket framing lives in `orion-net`.

use crate::error::{DbError, DbResult};
use crate::oid::{ClassId, Oid};
use crate::value::Value;
use bytes::BufMut;

#[cold]
fn truncated(n: usize, have: usize) -> DbError {
    DbError::Protocol(format!("truncated input: need {n} more byte(s), have {have}"))
}

/// Take the next `n` bytes off the front of `buf`.
#[inline]
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> DbResult<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n).ok_or_else(|| truncated(n, buf.len()))?;
    *buf = rest;
    Ok(head)
}

#[inline]
fn array<const N: usize>(buf: &mut &[u8]) -> DbResult<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or_else(|| truncated(N, buf.len()))?;
    *buf = rest;
    Ok(*head)
}

/// Decode one byte.
#[inline]
pub fn get_u8(buf: &mut &[u8]) -> DbResult<u8> {
    Ok(array::<1>(buf)?[0])
}

/// Decode a `u16` (little-endian).
#[inline]
pub fn get_u16(buf: &mut &[u8]) -> DbResult<u16> {
    array(buf).map(u16::from_le_bytes)
}

/// Decode a `u32` (little-endian).
#[inline]
pub fn get_u32(buf: &mut &[u8]) -> DbResult<u32> {
    array(buf).map(u32::from_le_bytes)
}

/// Decode a `u64` (little-endian).
#[inline]
pub fn get_u64(buf: &mut &[u8]) -> DbResult<u64> {
    array(buf).map(u64::from_le_bytes)
}

/// The count rule: `count` elements of at least `each` bytes must fit in
/// what is left of `buf`. Returns `count`, now safe to allocate for.
#[inline]
fn fits(buf: &[u8], count: usize, each: usize) -> DbResult<usize> {
    if count.saturating_mul(each) > buf.len() {
        return Err(DbError::Protocol(format!(
            "count {count} exceeds the {} byte(s) left",
            buf.len()
        )));
    }
    Ok(count)
}

/// Decode a `u32` count of elements, each at least `each` bytes long,
/// refused if that many could not fit in what is left of `buf`.
#[inline]
pub fn get_count(buf: &mut &[u8], each: usize) -> DbResult<usize> {
    let count = get_u32(buf)? as usize;
    fits(buf, count, each)
}

/// [`get_count`] for a `u16` count.
#[inline]
pub fn get_count16(buf: &mut &[u8], each: usize) -> DbResult<usize> {
    let count = get_u16(buf)? as usize;
    fits(buf, count, each)
}

/// Append length-prefixed bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.put_u32_le(bytes.len() as u32);
    out.put_slice(bytes);
}

/// Decode length-prefixed bytes, borrowed from `buf`.
#[inline]
pub fn get_bytes<'a>(buf: &mut &'a [u8]) -> DbResult<&'a [u8]> {
    let len = get_u32(buf)? as usize;
    take(buf, len)
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string from the front of `buf`.
#[inline]
pub fn get_str(buf: &mut &[u8]) -> DbResult<String> {
    std::str::from_utf8(get_bytes(buf)?)
        .map(str::to_owned)
        .map_err(|_| DbError::Protocol("invalid UTF-8 in string".into()))
}

/// Re-tag a decoding failure for a decoder below the wire: the
/// primitives report [`DbError::Protocol`], a storage-side decoder
/// reports the same message as `variant` (`Storage`, `Wal`).
pub fn retag(variant: fn(String) -> DbError) -> impl Fn(DbError) -> DbError {
    move |e| match e {
        DbError::Protocol(msg) => variant(msg),
        other => other,
    }
}

/// Append an optional length-prefixed string (presence byte first).
pub fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.put_u8(0),
        Some(s) => {
            out.put_u8(1);
            put_str(out, s);
        }
    }
}

/// Decode an optional length-prefixed string.
pub fn get_opt_str(buf: &mut &[u8]) -> DbResult<Option<String>> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf)?)),
        other => Err(DbError::Protocol(format!("bad option byte {other}"))),
    }
}

// ---------------------------------------------------------------------
// DbError <-> bytes
// ---------------------------------------------------------------------

// One tag per variant. Append-only: reusing a retired tag would let an
// old peer misdecode a new error.
const ERR_UNKNOWN_CLASS: u8 = 0;
const ERR_UNKNOWN_CLASS_ID: u8 = 1;
const ERR_UNKNOWN_ATTRIBUTE: u8 = 2;
const ERR_UNKNOWN_METHOD: u8 = 3;
const ERR_NO_SUCH_OBJECT: u8 = 4;
const ERR_DOMAIN_VIOLATION: u8 = 5;
const ERR_SCHEMA_INVARIANT: u8 = 6;
const ERR_ALREADY_EXISTS: u8 = 7;
const ERR_DEADLOCK: u8 = 8;
const ERR_LOCK_TIMEOUT: u8 = 9;
const ERR_INVALID_TXN_STATE: u8 = 10;
const ERR_STORAGE: u8 = 11;
const ERR_WAL: u8 = 12;
const ERR_PARSE: u8 = 13;
const ERR_QUERY: u8 = 14;
const ERR_AUTHORIZATION_DENIED: u8 = 15;
const ERR_VERSION: u8 = 16;
const ERR_COMPOSITE: u8 = 17;
const ERR_RULE: u8 = 18;
const ERR_FOREIGN: u8 = 19;
const ERR_CONFIG: u8 = 20;
const ERR_NET: u8 = 21;
const ERR_SERVER_BUSY: u8 = 22;
const ERR_PROTOCOL: u8 = 23;
const ERR_INTERNAL: u8 = 24;
const ERR_CORRUPTION: u8 = 25;
const ERR_SHARD: u8 = 26;
const ERR_TXN_IN_DOUBT: u8 = 27;

/// Append the lossless encoding of `err` to `out`.
pub fn encode_error(err: &DbError, out: &mut Vec<u8>) {
    match err {
        DbError::UnknownClass(name) => {
            out.put_u8(ERR_UNKNOWN_CLASS);
            put_str(out, name);
        }
        DbError::UnknownClassId(id) => {
            out.put_u8(ERR_UNKNOWN_CLASS_ID);
            out.put_u16_le(id.raw());
        }
        DbError::UnknownAttribute { class, attribute } => {
            out.put_u8(ERR_UNKNOWN_ATTRIBUTE);
            put_str(out, class);
            put_str(out, attribute);
        }
        DbError::UnknownMethod { class, selector } => {
            out.put_u8(ERR_UNKNOWN_METHOD);
            put_str(out, class);
            put_str(out, selector);
        }
        DbError::NoSuchObject(oid) => {
            out.put_u8(ERR_NO_SUCH_OBJECT);
            out.put_u64_le(oid.to_raw());
        }
        DbError::DomainViolation { class, attribute, expected, got } => {
            out.put_u8(ERR_DOMAIN_VIOLATION);
            put_str(out, class);
            put_str(out, attribute);
            put_str(out, expected);
            put_str(out, got);
        }
        DbError::SchemaInvariant(msg) => {
            out.put_u8(ERR_SCHEMA_INVARIANT);
            put_str(out, msg);
        }
        DbError::AlreadyExists(what) => {
            out.put_u8(ERR_ALREADY_EXISTS);
            put_str(out, what);
        }
        DbError::Deadlock { victim } => {
            out.put_u8(ERR_DEADLOCK);
            out.put_u64_le(*victim);
        }
        DbError::LockTimeout { txn, what } => {
            out.put_u8(ERR_LOCK_TIMEOUT);
            out.put_u64_le(*txn);
            put_str(out, what);
        }
        DbError::InvalidTxnState(msg) => {
            out.put_u8(ERR_INVALID_TXN_STATE);
            put_str(out, msg);
        }
        DbError::Storage(msg) => {
            out.put_u8(ERR_STORAGE);
            put_str(out, msg);
        }
        DbError::Wal(msg) => {
            out.put_u8(ERR_WAL);
            put_str(out, msg);
        }
        DbError::Parse { position, message } => {
            out.put_u8(ERR_PARSE);
            out.put_u64_le(*position as u64);
            put_str(out, message);
        }
        DbError::Query(msg) => {
            out.put_u8(ERR_QUERY);
            put_str(out, msg);
        }
        DbError::AuthorizationDenied { subject, action, target } => {
            out.put_u8(ERR_AUTHORIZATION_DENIED);
            put_str(out, subject);
            put_str(out, action);
            put_str(out, target);
        }
        DbError::Version(msg) => {
            out.put_u8(ERR_VERSION);
            put_str(out, msg);
        }
        DbError::Composite(msg) => {
            out.put_u8(ERR_COMPOSITE);
            put_str(out, msg);
        }
        DbError::Rule(msg) => {
            out.put_u8(ERR_RULE);
            put_str(out, msg);
        }
        DbError::Foreign(msg) => {
            out.put_u8(ERR_FOREIGN);
            put_str(out, msg);
        }
        DbError::Config(msg) => {
            out.put_u8(ERR_CONFIG);
            put_str(out, msg);
        }
        DbError::Net(msg) => {
            out.put_u8(ERR_NET);
            put_str(out, msg);
        }
        DbError::ServerBusy => out.put_u8(ERR_SERVER_BUSY),
        DbError::Protocol(msg) => {
            out.put_u8(ERR_PROTOCOL);
            put_str(out, msg);
        }
        DbError::Internal(msg) => {
            out.put_u8(ERR_INTERNAL);
            put_str(out, msg);
        }
        DbError::Corruption(msg) => {
            out.put_u8(ERR_CORRUPTION);
            put_str(out, msg);
        }
        DbError::Shard(msg) => {
            out.put_u8(ERR_SHARD);
            put_str(out, msg);
        }
        DbError::TxnInDoubt { txn } => {
            out.put_u8(ERR_TXN_IN_DOUBT);
            out.put_u64_le(*txn);
        }
    }
}

/// Decode one [`DbError`] from the front of `buf`, advancing it.
pub fn decode_error(buf: &mut &[u8]) -> DbResult<DbError> {
    let tag = get_u8(buf)?;
    Ok(match tag {
        ERR_UNKNOWN_CLASS => DbError::UnknownClass(get_str(buf)?),
        ERR_UNKNOWN_CLASS_ID => DbError::UnknownClassId(ClassId(get_u16(buf)?)),
        ERR_UNKNOWN_ATTRIBUTE => {
            DbError::UnknownAttribute { class: get_str(buf)?, attribute: get_str(buf)? }
        }
        ERR_UNKNOWN_METHOD => {
            DbError::UnknownMethod { class: get_str(buf)?, selector: get_str(buf)? }
        }
        ERR_NO_SUCH_OBJECT => DbError::NoSuchObject(Oid::from_raw(get_u64(buf)?)),
        ERR_DOMAIN_VIOLATION => DbError::DomainViolation {
            class: get_str(buf)?,
            attribute: get_str(buf)?,
            expected: get_str(buf)?,
            got: get_str(buf)?,
        },
        ERR_SCHEMA_INVARIANT => DbError::SchemaInvariant(get_str(buf)?),
        ERR_ALREADY_EXISTS => DbError::AlreadyExists(get_str(buf)?),
        ERR_DEADLOCK => DbError::Deadlock { victim: get_u64(buf)? },
        ERR_LOCK_TIMEOUT => DbError::LockTimeout { txn: get_u64(buf)?, what: get_str(buf)? },
        ERR_INVALID_TXN_STATE => DbError::InvalidTxnState(get_str(buf)?),
        ERR_STORAGE => DbError::Storage(get_str(buf)?),
        ERR_WAL => DbError::Wal(get_str(buf)?),
        ERR_PARSE => DbError::Parse { position: get_u64(buf)? as usize, message: get_str(buf)? },
        ERR_QUERY => DbError::Query(get_str(buf)?),
        ERR_AUTHORIZATION_DENIED => DbError::AuthorizationDenied {
            subject: get_str(buf)?,
            action: get_str(buf)?,
            target: get_str(buf)?,
        },
        ERR_VERSION => DbError::Version(get_str(buf)?),
        ERR_COMPOSITE => DbError::Composite(get_str(buf)?),
        ERR_RULE => DbError::Rule(get_str(buf)?),
        ERR_FOREIGN => DbError::Foreign(get_str(buf)?),
        ERR_CONFIG => DbError::Config(get_str(buf)?),
        ERR_NET => DbError::Net(get_str(buf)?),
        ERR_SERVER_BUSY => DbError::ServerBusy,
        ERR_PROTOCOL => DbError::Protocol(get_str(buf)?),
        ERR_INTERNAL => DbError::Internal(get_str(buf)?),
        ERR_CORRUPTION => DbError::Corruption(get_str(buf)?),
        ERR_SHARD => DbError::Shard(get_str(buf)?),
        ERR_TXN_IN_DOUBT => DbError::TxnInDoubt { txn: get_u64(buf)? },
        other => return Err(DbError::Protocol(format!("unknown error tag {other}"))),
    })
}

/// Append an optional value (presence byte + `crate::codec` encoding).
pub fn put_opt_value(out: &mut Vec<u8>, v: Option<&Value>) {
    match v {
        None => out.put_u8(0),
        Some(v) => {
            out.put_u8(1);
            crate::codec::encode_value(v, out);
        }
    }
}

/// Decode an optional value.
pub fn get_opt_value(buf: &mut &[u8]) -> DbResult<Option<Value>> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(crate::codec::decode_value(buf)?)),
        other => Err(DbError::Protocol(format!("bad option byte {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &DbError) -> DbError {
        let mut bytes = Vec::new();
        encode_error(e, &mut bytes);
        let mut slice = bytes.as_slice();
        let decoded = decode_error(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decoder must consume exactly the encoding of {e:?}");
        decoded
    }

    /// One exemplar per variant. The match below is exhaustive *by
    /// construction*: adding a `DbError` variant without extending this
    /// list breaks the `all_variants_covered` assertion at compile/run
    /// time, so the wire codec can never silently lag the enum.
    fn exemplars() -> Vec<DbError> {
        vec![
            DbError::UnknownClass("Vehicle".into()),
            DbError::UnknownClassId(ClassId(7)),
            DbError::UnknownAttribute { class: "Vehicle".into(), attribute: "wings".into() },
            DbError::UnknownMethod { class: "Vehicle".into(), selector: "fly".into() },
            DbError::NoSuchObject(Oid::new(ClassId(3), 99)),
            DbError::DomainViolation {
                class: "Vehicle".into(),
                attribute: "weight".into(),
                expected: "Int".into(),
                got: "Str".into(),
            },
            DbError::SchemaInvariant("cycle".into()),
            DbError::AlreadyExists("class `X`".into()),
            DbError::Deadlock { victim: 42 },
            DbError::LockTimeout { txn: 17, what: "object 3.5".into() },
            DbError::InvalidTxnState("already committed".into()),
            DbError::Storage("page full".into()),
            DbError::Wal("torn record".into()),
            DbError::Parse { position: 12, message: "expected `from`".into() },
            DbError::Query("no such view".into()),
            DbError::AuthorizationDenied {
                subject: "kim".into(),
                action: "read".into(),
                target: "class Vehicle".into(),
            },
            DbError::Version("immutable".into()),
            DbError::Composite("two parents".into()),
            DbError::Rule("unbound head var".into()),
            DbError::Foreign("adapter down".into()),
            DbError::Config("buffer_pages must be at least 1".into()),
            DbError::Net("connection reset".into()),
            DbError::ServerBusy,
            DbError::Protocol("unknown tag 99".into()),
            DbError::Internal("bug".into()),
            DbError::Corruption("checksum mismatch reading page 3".into()),
            DbError::Shard("no shard owns class `Vehicle`".into()),
            DbError::TxnInDoubt { txn: 88 },
        ]
    }

    #[test]
    fn every_variant_roundtrips_losslessly() {
        for e in exemplars() {
            assert_eq!(roundtrip(&e), e);
        }
    }

    #[test]
    fn all_variants_covered() {
        // Exhaustiveness guard: map each exemplar to its discriminant
        // name via an exhaustive match — a new variant fails to compile
        // here until it gets an exemplar and codec arms.
        let mut seen = std::collections::BTreeSet::new();
        for e in exemplars() {
            let name = match e {
                DbError::UnknownClass(_) => "UnknownClass",
                DbError::UnknownClassId(_) => "UnknownClassId",
                DbError::UnknownAttribute { .. } => "UnknownAttribute",
                DbError::UnknownMethod { .. } => "UnknownMethod",
                DbError::NoSuchObject(_) => "NoSuchObject",
                DbError::DomainViolation { .. } => "DomainViolation",
                DbError::SchemaInvariant(_) => "SchemaInvariant",
                DbError::AlreadyExists(_) => "AlreadyExists",
                DbError::Deadlock { .. } => "Deadlock",
                DbError::LockTimeout { .. } => "LockTimeout",
                DbError::InvalidTxnState(_) => "InvalidTxnState",
                DbError::Storage(_) => "Storage",
                DbError::Wal(_) => "Wal",
                DbError::Parse { .. } => "Parse",
                DbError::Query(_) => "Query",
                DbError::AuthorizationDenied { .. } => "AuthorizationDenied",
                DbError::Version(_) => "Version",
                DbError::Composite(_) => "Composite",
                DbError::Rule(_) => "Rule",
                DbError::Foreign(_) => "Foreign",
                DbError::Config(_) => "Config",
                DbError::Net(_) => "Net",
                DbError::ServerBusy => "ServerBusy",
                DbError::Protocol(_) => "Protocol",
                DbError::Internal(_) => "Internal",
                DbError::Corruption(_) => "Corruption",
                DbError::Shard(_) => "Shard",
                DbError::TxnInDoubt { .. } => "TxnInDoubt",
            };
            assert!(seen.insert(name), "duplicate exemplar for {name}");
        }
        assert_eq!(seen.len(), 28, "one exemplar per DbError variant");
    }

    #[test]
    fn strings_and_options_roundtrip() {
        let mut out = Vec::new();
        put_str(&mut out, "hello κόσμε");
        put_opt_str(&mut out, None);
        put_opt_str(&mut out, Some("kim"));
        put_opt_value(&mut out, Some(&Value::Int(9)));
        put_opt_value(&mut out, None);
        let mut buf = out.as_slice();
        assert_eq!(get_str(&mut buf).unwrap(), "hello κόσμε");
        assert_eq!(get_opt_str(&mut buf).unwrap(), None);
        assert_eq!(get_opt_str(&mut buf).unwrap(), Some("kim".into()));
        assert_eq!(get_opt_value(&mut buf).unwrap(), Some(Value::Int(9)));
        assert_eq!(get_opt_value(&mut buf).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn truncated_error_is_a_protocol_error() {
        let mut bytes = Vec::new();
        encode_error(&DbError::LockTimeout { txn: 3, what: "object".into() }, &mut bytes);
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert!(decode_error(&mut slice).is_err(), "cut at {cut} must fail");
        }
    }
}
