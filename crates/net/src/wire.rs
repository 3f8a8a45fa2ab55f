//! The request/response protocol: every message the client and server
//! exchange, with its binary encoding.
//!
//! Messages reuse `orion-types`' codecs end to end — attribute values
//! travel as `codec::encode_value` bytes (the same encoding the storage
//! engine writes to pages) and errors as `wire::encode_error`, so a
//! remote failure decodes to the *same* [`DbError`] variant the facade
//! raised. The protocol covers the public facade: query/explain, DML,
//! DDL (classes and indexes), checkout/checkin, and the stats scrape.
//!
//! Encoding discipline: one leading tag byte per message, fields in
//! declaration order, all integers little-endian, collections prefixed
//! with a `u32` count. Tags are append-only.

use bytes::BufMut;
use orion_core::{AttrSpec, IndexKind, QueryResult};
use orion_types::codec::{decode_value, encode_value};
use orion_types::wire::{
    get_bytes, get_count, get_opt_str, get_str, get_u16, get_u64, get_u8, put_bytes, put_opt_str,
    put_str,
};
use orion_types::{DbError, DbResult, Domain, Oid, Value};

/// One entry of a checkout workspace: an object and its attribute
/// values by name, editable offline on the client.
pub type WorkspaceEntry = (Oid, Vec<(String, Value)>);

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

const REQ_HELLO: u8 = 0;
const REQ_PING: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_EXPLAIN: u8 = 3;
const REQ_BEGIN: u8 = 4;
const REQ_COMMIT: u8 = 5;
const REQ_ROLLBACK: u8 = 6;
const REQ_CREATE_OBJECT: u8 = 7;
const REQ_GET: u8 = 8;
const REQ_SET: u8 = 9;
const REQ_DELETE: u8 = 10;
const REQ_CREATE_CLASS: u8 = 11;
const REQ_CREATE_INDEX: u8 = 12;
const REQ_CHECKOUT: u8 = 13;
const REQ_CHECKIN: u8 = 14;
const REQ_STATS: u8 = 15;
const REQ_PREPARE: u8 = 16;
const REQ_COMMIT_PREPARED: u8 = 17;
const REQ_ABORT_PREPARED: u8 = 18;
const REQ_RESOLVE: u8 = 19;
const REQ_BATCH: u8 = 20;

/// Everything a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session handshake; must be the first message on a connection.
    /// The principal becomes the session's authorization subject.
    Hello {
        /// Authorization subject for the session (None = system).
        principal: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Run a declarative query (inside the session transaction when one
    /// is open, else in an auto-committed transaction).
    Query {
        /// OQL-style query text.
        text: String,
    },
    /// Plan a query and return the optimizer's explanation text.
    Explain {
        /// OQL-style query text.
        text: String,
    },
    /// Open the session transaction (strict 2PL; at most one per
    /// session).
    Begin,
    /// Commit the session transaction.
    Commit,
    /// Roll back the session transaction.
    Rollback,
    /// Create an object with named attribute values.
    CreateObject {
        /// Class name.
        class: String,
        /// `(attribute name, value)` pairs.
        attrs: Vec<(String, Value)>,
    },
    /// Read one attribute by name.
    Get {
        /// Target object.
        oid: Oid,
        /// Attribute name.
        attr: String,
    },
    /// Update one attribute by name.
    Set {
        /// Target object.
        oid: Oid,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Delete an object (and its composite parts).
    Delete {
        /// Target object.
        oid: Oid,
    },
    /// DDL: create a class.
    CreateClass {
        /// New class name.
        name: String,
        /// Superclass names.
        supers: Vec<String>,
        /// Attribute specifications.
        attrs: Vec<AttrSpec>,
    },
    /// DDL: create an index.
    CreateIndex {
        /// Index name.
        name: String,
        /// Index kind.
        kind: IndexKind,
        /// Target class name.
        class: String,
        /// Attribute path (length 1, or ≥ 2 for nested indexes).
        path: Vec<String>,
    },
    /// Check a composite out into a client-side workspace. Requires an
    /// open session transaction (the checkout locks must outlive the
    /// request).
    Checkout {
        /// Composite root.
        root: Oid,
    },
    /// Write an edited workspace back through the update path.
    Checkin {
        /// The (possibly edited) workspace entries.
        workspace: Vec<WorkspaceEntry>,
    },
    /// Scrape every counter in the Prometheus text format.
    Stats,
    /// 2PC phase one: force the session transaction's effects and park
    /// it prepared. Carries the transaction id so a coordinator can
    /// retransmit after a reconnect — the server answers `Prepared` if
    /// that id is already parked (the ack was lost), and an error if it
    /// is unknown (the disconnect rolled it back; presumed abort).
    Prepare {
        /// The transaction id the coordinator believes it is preparing.
        txn: u64,
    },
    /// 2PC phase two, commit decision. Addressed by transaction id, not
    /// the session transaction — idempotent and retransmittable.
    CommitPrepared {
        /// The prepared transaction to commit.
        txn: u64,
    },
    /// 2PC phase two, abort decision. Idempotent like `CommitPrepared`.
    AbortPrepared {
        /// The prepared transaction to abort.
        txn: u64,
    },
    /// List in-doubt (prepared) transactions, optionally probing one id
    /// — a recovering coordinator uses this to learn what needs a
    /// decision pushed.
    Resolve {
        /// `Some(id)` narrows the answer to that transaction.
        txn: Option<u64>,
    },
    /// A batch of DML operations (`CreateObject`/`Get`/`Set`/`Delete`)
    /// executed in order inside one transaction scope: the open session
    /// transaction when there is one, else a single auto-committed
    /// transaction wrapping the whole batch. The batch is atomic — the
    /// first failing operation aborts it (the auto-commit case rolls
    /// back) and the whole batch answers that error. One frame on the
    /// wire, one admission-control slot, one executor dispatch.
    Batch {
        /// The operations, in execution order. Nesting is rejected.
        ops: Vec<Request>,
    },
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

const RESP_OK: u8 = 0;
const RESP_ERR: u8 = 1;
const RESP_HELLO: u8 = 2;
const RESP_PONG: u8 = 3;
const RESP_QUERY: u8 = 4;
const RESP_EXPLAIN: u8 = 5;
const RESP_TXN: u8 = 6;
const RESP_CREATED: u8 = 7;
const RESP_VALUE: u8 = 8;
const RESP_CLASS: u8 = 9;
const RESP_WORKSPACE: u8 = 10;
const RESP_STATS: u8 = 11;
const RESP_PREPARED: u8 = 12;
const RESP_IN_DOUBT: u8 = 13;
const RESP_BATCH: u8 = 14;

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded with nothing to return.
    Ok,
    /// The request failed; the payload is the facade's exact error.
    Err(DbError),
    /// Handshake acknowledgement.
    Hello {
        /// Server-assigned session id (diagnostic).
        session: u64,
    },
    /// Liveness answer.
    Pong,
    /// Query results (projected rows + matching OIDs).
    Query {
        /// Projected rows, aligned with the query's select list.
        rows: Vec<Vec<Value>>,
        /// The matching objects (empty for `count(*)`).
        oids: Vec<Oid>,
    },
    /// The optimizer's explanation text.
    Explain {
        /// Rendered `ExplainReport`.
        text: String,
    },
    /// Transaction opened.
    Txn {
        /// The transaction id.
        id: u64,
    },
    /// Object created.
    Created {
        /// The new object's identity.
        oid: Oid,
    },
    /// One attribute value.
    Value(Value),
    /// Class created.
    Class {
        /// The new class id (raw).
        class_id: u16,
    },
    /// A checked-out workspace.
    Workspace(Vec<WorkspaceEntry>),
    /// The Prometheus scrape body.
    Stats {
        /// Prometheus text exposition.
        prometheus: String,
    },
    /// The transaction is parked in the prepared state, awaiting the
    /// coordinator's decision.
    Prepared {
        /// The prepared transaction id.
        txn: u64,
    },
    /// The in-doubt (prepared) transactions this participant holds.
    InDoubt {
        /// Prepared transaction ids, ascending.
        txns: Vec<u64>,
    },
    /// Per-operation answers for a [`Request::Batch`], in batch order.
    /// Only produced when every operation succeeded (a failure answers
    /// plain `Err` for the whole batch instead).
    Batch {
        /// One response per batched operation.
        results: Vec<Response>,
    },
}

// ---------------------------------------------------------------------
// Shared field codecs
// ---------------------------------------------------------------------

fn put_string_vec(out: &mut Vec<u8>, items: &[String]) {
    out.put_u32_le(items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn get_string_vec(buf: &mut &[u8]) -> DbResult<Vec<String>> {
    (0..get_count(buf, 4)?).map(|_| get_str(buf)).collect()
}

fn put_named_values(out: &mut Vec<u8>, attrs: &[(String, Value)]) {
    out.put_u32_le(attrs.len() as u32);
    for (name, value) in attrs {
        put_str(out, name);
        encode_value(value, out);
    }
}

fn get_named_values(buf: &mut &[u8]) -> DbResult<Vec<(String, Value)>> {
    (0..get_count(buf, 5)?).map(|_| Ok((get_str(buf)?, decode_value(buf)?))).collect()
}

fn put_workspace(out: &mut Vec<u8>, ws: &[WorkspaceEntry]) {
    out.put_u32_le(ws.len() as u32);
    for (oid, attrs) in ws {
        out.put_u64_le(oid.to_raw());
        put_named_values(out, attrs);
    }
}

fn get_workspace(buf: &mut &[u8]) -> DbResult<Vec<WorkspaceEntry>> {
    (0..get_count(buf, 12)?)
        .map(|_| Ok((Oid::from_raw(get_u64(buf)?), get_named_values(buf)?)))
        .collect()
}

fn put_attr_specs(out: &mut Vec<u8>, attrs: &[AttrSpec]) {
    out.put_u32_le(attrs.len() as u32);
    for a in attrs {
        put_str(out, &a.name);
        a.domain.encode(out);
        encode_value(&a.default, out);
        out.put_u8(a.composite as u8);
    }
}

fn get_attr_specs(buf: &mut &[u8]) -> DbResult<Vec<AttrSpec>> {
    (0..get_count(buf, 7)?)
        .map(|_| {
            let name = get_str(buf)?;
            let spec = AttrSpec::new(name, Domain::decode(buf)?).with_default(decode_value(buf)?);
            Ok(if get_u8(buf)? != 0 { spec.composite() } else { spec })
        })
        .collect()
}

/// A batch element, refused before it is decoded if it is itself a
/// batch: one level of batching, and no recursion a frame can deepen.
fn unnested(op: &[u8], batch_tag: u8) -> DbResult<&[u8]> {
    match op.first() {
        Some(&tag) if tag == batch_tag => {
            Err(DbError::Protocol("nested batch is not allowed".into()))
        }
        _ => Ok(op),
    }
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { principal } => {
                out.put_u8(REQ_HELLO);
                put_opt_str(&mut out, principal.as_deref());
            }
            Request::Ping => out.put_u8(REQ_PING),
            Request::Query { text } => {
                out.put_u8(REQ_QUERY);
                put_str(&mut out, text);
            }
            Request::Explain { text } => {
                out.put_u8(REQ_EXPLAIN);
                put_str(&mut out, text);
            }
            Request::Begin => out.put_u8(REQ_BEGIN),
            Request::Commit => out.put_u8(REQ_COMMIT),
            Request::Rollback => out.put_u8(REQ_ROLLBACK),
            Request::CreateObject { class, attrs } => {
                out.put_u8(REQ_CREATE_OBJECT);
                put_str(&mut out, class);
                put_named_values(&mut out, attrs);
            }
            Request::Get { oid, attr } => {
                out.put_u8(REQ_GET);
                out.put_u64_le(oid.to_raw());
                put_str(&mut out, attr);
            }
            Request::Set { oid, attr, value } => {
                out.put_u8(REQ_SET);
                out.put_u64_le(oid.to_raw());
                put_str(&mut out, attr);
                encode_value(value, &mut out);
            }
            Request::Delete { oid } => {
                out.put_u8(REQ_DELETE);
                out.put_u64_le(oid.to_raw());
            }
            Request::CreateClass { name, supers, attrs } => {
                out.put_u8(REQ_CREATE_CLASS);
                put_str(&mut out, name);
                put_string_vec(&mut out, supers);
                put_attr_specs(&mut out, attrs);
            }
            Request::CreateIndex { name, kind, class, path } => {
                out.put_u8(REQ_CREATE_INDEX);
                put_str(&mut out, name);
                out.put_u8(kind.tag());
                put_str(&mut out, class);
                put_string_vec(&mut out, path);
            }
            Request::Checkout { root } => {
                out.put_u8(REQ_CHECKOUT);
                out.put_u64_le(root.to_raw());
            }
            Request::Checkin { workspace } => {
                out.put_u8(REQ_CHECKIN);
                put_workspace(&mut out, workspace);
            }
            Request::Stats => out.put_u8(REQ_STATS),
            Request::Prepare { txn } => {
                out.put_u8(REQ_PREPARE);
                out.put_u64_le(*txn);
            }
            Request::CommitPrepared { txn } => {
                out.put_u8(REQ_COMMIT_PREPARED);
                out.put_u64_le(*txn);
            }
            Request::AbortPrepared { txn } => {
                out.put_u8(REQ_ABORT_PREPARED);
                out.put_u64_le(*txn);
            }
            Request::Resolve { txn } => {
                out.put_u8(REQ_RESOLVE);
                match txn {
                    Some(id) => {
                        out.put_u8(1);
                        out.put_u64_le(*id);
                    }
                    None => out.put_u8(0),
                }
            }
            Request::Batch { ops } => {
                out.put_u8(REQ_BATCH);
                out.put_u32_le(ops.len() as u32);
                for op in ops {
                    // Length-prefix each operation so the decoder can
                    // hold every element to the same trailing-byte
                    // discipline as a top-level frame.
                    put_bytes(&mut out, &op.encode());
                }
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(mut buf: &[u8]) -> DbResult<Request> {
        let buf = &mut buf;
        let req = match get_u8(buf)? {
            REQ_HELLO => Request::Hello { principal: get_opt_str(buf)? },
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query { text: get_str(buf)? },
            REQ_EXPLAIN => Request::Explain { text: get_str(buf)? },
            REQ_BEGIN => Request::Begin,
            REQ_COMMIT => Request::Commit,
            REQ_ROLLBACK => Request::Rollback,
            REQ_CREATE_OBJECT => {
                Request::CreateObject { class: get_str(buf)?, attrs: get_named_values(buf)? }
            }
            REQ_GET => {
                Request::Get { oid: Oid::from_raw(get_u64(buf)?), attr: get_str(buf)? }
            }
            REQ_SET => Request::Set {
                oid: Oid::from_raw(get_u64(buf)?),
                attr: get_str(buf)?,
                value: decode_value(buf)?,
            },
            REQ_DELETE => Request::Delete { oid: Oid::from_raw(get_u64(buf)?) },
            REQ_CREATE_CLASS => Request::CreateClass {
                name: get_str(buf)?,
                supers: get_string_vec(buf)?,
                attrs: get_attr_specs(buf)?,
            },
            REQ_CREATE_INDEX => Request::CreateIndex {
                name: get_str(buf)?,
                kind: IndexKind::decode(buf)?,
                class: get_str(buf)?,
                path: get_string_vec(buf)?,
            },
            REQ_CHECKOUT => Request::Checkout { root: Oid::from_raw(get_u64(buf)?) },
            REQ_CHECKIN => Request::Checkin { workspace: get_workspace(buf)? },
            REQ_STATS => Request::Stats,
            REQ_PREPARE => Request::Prepare { txn: get_u64(buf)? },
            REQ_COMMIT_PREPARED => Request::CommitPrepared { txn: get_u64(buf)? },
            REQ_ABORT_PREPARED => Request::AbortPrepared { txn: get_u64(buf)? },
            REQ_RESOLVE => Request::Resolve {
                txn: match get_u8(buf)? {
                    0 => None,
                    1 => Some(get_u64(buf)?),
                    other => {
                        return Err(DbError::Protocol(format!("bad resolve option tag {other}")))
                    }
                },
            },
            REQ_BATCH => Request::Batch {
                ops: (0..get_count(buf, 5)?)
                    .map(|_| Request::decode(unnested(get_bytes(buf)?, REQ_BATCH)?))
                    .collect::<DbResult<_>>()?,
            },
            other => return Err(DbError::Protocol(format!("unknown request tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(DbError::Protocol(format!(
                "{} trailing byte(s) after request",
                buf.len()
            )));
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.put_u8(RESP_OK),
            Response::Err(e) => {
                out.put_u8(RESP_ERR);
                orion_types::wire::encode_error(e, &mut out);
            }
            Response::Hello { session } => {
                out.put_u8(RESP_HELLO);
                out.put_u64_le(*session);
            }
            Response::Pong => out.put_u8(RESP_PONG),
            Response::Query { rows, oids } => {
                out.put_u8(RESP_QUERY);
                out.put_u32_le(rows.len() as u32);
                for row in rows {
                    out.put_u32_le(row.len() as u32);
                    for v in row {
                        encode_value(v, &mut out);
                    }
                }
                out.put_u32_le(oids.len() as u32);
                for oid in oids {
                    out.put_u64_le(oid.to_raw());
                }
            }
            Response::Explain { text } => {
                out.put_u8(RESP_EXPLAIN);
                put_str(&mut out, text);
            }
            Response::Txn { id } => {
                out.put_u8(RESP_TXN);
                out.put_u64_le(*id);
            }
            Response::Created { oid } => {
                out.put_u8(RESP_CREATED);
                out.put_u64_le(oid.to_raw());
            }
            Response::Value(v) => {
                out.put_u8(RESP_VALUE);
                encode_value(v, &mut out);
            }
            Response::Class { class_id } => {
                out.put_u8(RESP_CLASS);
                out.put_u16_le(*class_id);
            }
            Response::Workspace(ws) => {
                out.put_u8(RESP_WORKSPACE);
                put_workspace(&mut out, ws);
            }
            Response::Stats { prometheus } => {
                out.put_u8(RESP_STATS);
                put_str(&mut out, prometheus);
            }
            Response::Prepared { txn } => {
                out.put_u8(RESP_PREPARED);
                out.put_u64_le(*txn);
            }
            Response::InDoubt { txns } => {
                out.put_u8(RESP_IN_DOUBT);
                out.put_u32_le(txns.len() as u32);
                for txn in txns {
                    out.put_u64_le(*txn);
                }
            }
            Response::Batch { results } => {
                out.put_u8(RESP_BATCH);
                out.put_u32_le(results.len() as u32);
                for r in results {
                    put_bytes(&mut out, &r.encode());
                }
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(mut buf: &[u8]) -> DbResult<Response> {
        let buf = &mut buf;
        let resp = match get_u8(buf)? {
            RESP_OK => Response::Ok,
            RESP_ERR => Response::Err(orion_types::wire::decode_error(buf)?),
            RESP_HELLO => Response::Hello { session: get_u64(buf)? },
            RESP_PONG => Response::Pong,
            RESP_QUERY => {
                let rows = (0..get_count(buf, 4)?)
                    .map(|_| (0..get_count(buf, 1)?).map(|_| decode_value(buf)).collect())
                    .collect::<DbResult<_>>()?;
                let oids = (0..get_count(buf, 8)?)
                    .map(|_| get_u64(buf).map(Oid::from_raw))
                    .collect::<DbResult<_>>()?;
                Response::Query { rows, oids }
            }
            RESP_EXPLAIN => Response::Explain { text: get_str(buf)? },
            RESP_TXN => Response::Txn { id: get_u64(buf)? },
            RESP_CREATED => Response::Created { oid: Oid::from_raw(get_u64(buf)?) },
            RESP_VALUE => Response::Value(decode_value(buf)?),
            RESP_CLASS => Response::Class { class_id: get_u16(buf)? },
            RESP_WORKSPACE => Response::Workspace(get_workspace(buf)?),
            RESP_STATS => Response::Stats { prometheus: get_str(buf)? },
            RESP_PREPARED => Response::Prepared { txn: get_u64(buf)? },
            RESP_IN_DOUBT => Response::InDoubt {
                txns: (0..get_count(buf, 8)?).map(|_| get_u64(buf)).collect::<DbResult<_>>()?,
            },
            RESP_BATCH => Response::Batch {
                results: (0..get_count(buf, 5)?)
                    .map(|_| Response::decode(unnested(get_bytes(buf)?, RESP_BATCH)?))
                    .collect::<DbResult<_>>()?,
            },
            other => return Err(DbError::Protocol(format!("unknown response tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(DbError::Protocol(format!(
                "{} trailing byte(s) after response",
                buf.len()
            )));
        }
        Ok(resp)
    }

    /// Build the query response from a facade result.
    pub fn from_query_result(r: QueryResult) -> Response {
        Response::Query { rows: r.rows, oids: r.oids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_types::{ClassId, PrimitiveType};

    fn rt_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).expect("decode"), r);
    }

    fn rt_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).expect("decode"), r);
    }

    #[test]
    fn requests_roundtrip() {
        rt_req(Request::Hello { principal: None });
        rt_req(Request::Hello { principal: Some("kim".into()) });
        rt_req(Request::Ping);
        rt_req(Request::Query { text: "select v from Vehicle* v".into() });
        rt_req(Request::Explain { text: "select v from Vehicle v".into() });
        rt_req(Request::Begin);
        rt_req(Request::Commit);
        rt_req(Request::Rollback);
        rt_req(Request::CreateObject {
            class: "Vehicle".into(),
            attrs: vec![
                ("weight".into(), Value::Int(7600)),
                ("manufacturer".into(), Value::Ref(Oid::new(ClassId(1), 3))),
            ],
        });
        rt_req(Request::Get { oid: Oid::new(ClassId(2), 9), attr: "weight".into() });
        rt_req(Request::Set {
            oid: Oid::new(ClassId(2), 9),
            attr: "weight".into(),
            value: Value::Int(8000),
        });
        rt_req(Request::Delete { oid: Oid::new(ClassId(2), 9) });
        rt_req(Request::CreateClass {
            name: "Truck".into(),
            supers: vec!["Vehicle".into()],
            attrs: vec![
                AttrSpec::new("payload", Domain::Primitive(PrimitiveType::Int))
                    .with_default(Value::Int(0)),
                AttrSpec::new("parts", Domain::set_of_class(ClassId(4))).composite(),
                AttrSpec::new("tags", Domain::ListOf(Box::new(Domain::Any))),
            ],
        });
        rt_req(Request::CreateIndex {
            name: "w".into(),
            kind: IndexKind::ClassHierarchy,
            class: "Vehicle".into(),
            path: vec!["weight".into()],
        });
        rt_req(Request::Checkout { root: Oid::new(ClassId(7), 1) });
        rt_req(Request::Checkin {
            workspace: vec![(
                Oid::new(ClassId(7), 1),
                vec![("title".into(), Value::str("alu64"))],
            )],
        });
        rt_req(Request::Stats);
        rt_req(Request::Prepare { txn: 42 });
        rt_req(Request::CommitPrepared { txn: 42 });
        rt_req(Request::AbortPrepared { txn: 42 });
        rt_req(Request::Resolve { txn: None });
        rt_req(Request::Resolve { txn: Some(42) });
        rt_req(Request::Batch { ops: vec![] });
        rt_req(Request::Batch {
            ops: vec![
                Request::CreateObject {
                    class: "Vehicle".into(),
                    attrs: vec![("weight".into(), Value::Int(7600))],
                },
                Request::Set {
                    oid: Oid::new(ClassId(2), 9),
                    attr: "weight".into(),
                    value: Value::Int(8000),
                },
                Request::Get { oid: Oid::new(ClassId(2), 9), attr: "weight".into() },
                Request::Delete { oid: Oid::new(ClassId(2), 10) },
            ],
        });
    }

    #[test]
    fn nested_batches_are_rejected() {
        let nested = Request::Batch { ops: vec![Request::Batch { ops: vec![Request::Ping] }] };
        assert!(matches!(Request::decode(&nested.encode()), Err(DbError::Protocol(_))));
        let nested =
            Response::Batch { results: vec![Response::Batch { results: vec![Response::Ok] }] };
        assert!(matches!(Response::decode(&nested.encode()), Err(DbError::Protocol(_))));
    }

    #[test]
    fn responses_roundtrip() {
        rt_resp(Response::Ok);
        rt_resp(Response::Err(DbError::LockTimeout { txn: 7, what: "object 2.9".into() }));
        rt_resp(Response::Err(DbError::ServerBusy));
        rt_resp(Response::Hello { session: 42 });
        rt_resp(Response::Pong);
        rt_resp(Response::Query {
            rows: vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Null, Value::Float(2.5)],
            ],
            oids: vec![Oid::new(ClassId(2), 1), Oid::new(ClassId(2), 2)],
        });
        rt_resp(Response::Explain { text: "scan(Vehicle*)".into() });
        rt_resp(Response::Txn { id: 99 });
        rt_resp(Response::Created { oid: Oid::new(ClassId(3), 5) });
        rt_resp(Response::Value(Value::set(vec![Value::Int(1), Value::Int(2)])));
        rt_resp(Response::Class { class_id: 12 });
        rt_resp(Response::Workspace(vec![(
            Oid::new(ClassId(7), 1),
            vec![("area".into(), Value::Int(120))],
        )]));
        rt_resp(Response::Stats { prometheus: "orion_net_requests_total 4\n".into() });
        rt_resp(Response::Err(DbError::Shard("no shard owns class `Vehicle`".into())));
        rt_resp(Response::Err(DbError::TxnInDoubt { txn: 88 }));
        rt_resp(Response::Prepared { txn: 42 });
        rt_resp(Response::InDoubt { txns: vec![] });
        rt_resp(Response::InDoubt { txns: vec![3, 7, 11] });
        rt_resp(Response::Batch { results: vec![] });
        rt_resp(Response::Batch {
            results: vec![
                Response::Created { oid: Oid::new(ClassId(3), 5) },
                Response::Ok,
                Response::Value(Value::Int(8000)),
                Response::Err(DbError::ServerBusy),
            ],
        });
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0xFF);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Response::Pong.encode();
        bytes.push(0xFF);
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_are_protocol_errors() {
        assert!(matches!(Request::decode(&[200]), Err(DbError::Protocol(_))));
        assert!(matches!(Response::decode(&[200]), Err(DbError::Protocol(_))));
    }
}
