//! Seeded fuzzing of every decoder that reads outside or possibly-torn
//! bytes: object records and values, errors, requests, responses, net
//! frames, catalog snapshots, the WAL and the 2PC decision log, relbase
//! rows. (The system-state record's decoder is private to `orion-core`;
//! its twin of this suite lives beside it in `persist.rs`.)
//!
//! Inputs per format: every prefix of a valid encoding, single-byte
//! flips of it, and random byte strings. Every decoder must answer `Ok`
//! or `Err` — never panic, never abort — and neither log scanner may
//! accept a frame whose CRC fails. The `proptest` shim derives each
//! case's seed from the test name, so a failing case reproduces exactly.

use orion_index::IndexKind;
use orion_net::frame::{append_frame, FrameDecoder, MAX_FRAME};
use orion_net::{Request, Response};
use orion_schema::{AttrSpec, Catalog};
use orion_shard::{Decision, DecisionLog, DecisionLogSpec};
use orion_storage::frame::put_frame;
use orion_storage::wal::ClrAction;
use orion_storage::{LogRecord, PageDevice, PageId, Rid, Wal};
use orion_types::codec::{decode_value, skip_value, ObjectRecord};
use orion_types::wire::{decode_error, encode_error};
use orion_types::{ClassId, DbError, Domain, Oid, PrimitiveType, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One byte format: valid encodings of it, and a run of its decoder
/// whose answer is discarded (only a panic or an abort fails).
struct Format {
    name: &'static str,
    samples: Vec<Vec<u8>>,
    decode: fn(&[u8]),
}

fn record() -> ObjectRecord {
    let oid = Oid::new(ClassId(3), 10);
    ObjectRecord::new(
        oid,
        7,
        vec![
            (1, Value::str("a name")),
            (2, Value::Int(-4200)),
            (3, Value::List(vec![Value::set(vec![Value::Int(1)]), Value::str("x")])),
            (4, Value::Ref(oid)),
            (5, Value::Blob(vec![9; 20])),
            (6, Value::Bool(true)),
            (7, Value::Float(0.5)),
            (8, Value::Null),
        ],
    )
}

fn requests() -> Vec<Request> {
    let oid = Oid::new(ClassId(2), 9);
    let set = Request::Set { oid, attr: "weight".into(), value: Value::Int(8000) };
    vec![
        Request::Hello { principal: Some("kim".into()) },
        Request::Query { text: "select v from Vehicle* v".into() },
        set.clone(),
        Request::CreateClass {
            name: "Truck".into(),
            supers: vec!["Vehicle".into()],
            attrs: vec![
                AttrSpec::new("payload", Domain::Primitive(PrimitiveType::Int))
                    .with_default(Value::Int(0)),
                AttrSpec::new("parts", Domain::set_of_class(ClassId(4))).composite(),
            ],
        },
        Request::CreateIndex {
            name: "w".into(),
            kind: IndexKind::Nested,
            class: "Vehicle".into(),
            path: vec!["manufacturer".into(), "location".into()],
        },
        Request::Checkin { workspace: vec![(oid, vec![("title".into(), Value::str("alu"))])] },
        Request::Resolve { txn: Some(42) },
        Request::Batch { ops: vec![set, Request::Get { oid, attr: "weight".into() }] },
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Err(DbError::LockTimeout { txn: 7, what: "object 2.9".into() }),
        Response::Query {
            rows: vec![vec![Value::Int(1), Value::str("a")], vec![Value::Null, Value::Float(2.5)]],
            oids: vec![Oid::new(ClassId(2), 1), Oid::new(ClassId(2), 2)],
        },
        Response::Class { class_id: 12 },
        Response::Workspace(vec![(Oid::new(ClassId(7), 1), vec![("area".into(), Value::Int(1))])]),
        Response::InDoubt { txns: vec![3, 7, 11] },
        Response::Batch { results: vec![Response::Ok, Response::Value(Value::Int(8000))] },
    ]
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let company = cat
        .create_class(
            "Company",
            &[],
            vec![AttrSpec::new("location", Domain::Primitive(PrimitiveType::Str))
                .with_default(Value::str("Austin"))],
        )
        .unwrap();
    let vehicle = cat
        .create_class(
            "Vehicle",
            &[],
            vec![
                AttrSpec::new("weight", Domain::Primitive(PrimitiveType::Int)),
                AttrSpec::new("manufacturer", Domain::Class(company)),
            ],
        )
        .unwrap();
    cat.create_class(
        "Truck",
        &[vehicle],
        vec![AttrSpec::new("parts", Domain::set_of_class(vehicle)).composite()],
    )
    .unwrap();
    cat.add_method(vehicle, "display", 0).unwrap();
    cat
}

fn wal_records() -> Vec<LogRecord> {
    let rid = Rid { page: PageId(2), slot: 3 };
    vec![
        LogRecord::Insert { txn: 1, rid, bytes: b"abc".to_vec() },
        LogRecord::Update { txn: 1, rid, before: b"abc".to_vec(), after: b"defg".to_vec() },
        LogRecord::Clr {
            txn: 1,
            compensates: 99,
            action: ClrAction::Overwrite { rid, bytes: b"y".to_vec() },
        },
        LogRecord::Delete { txn: 1, rid, before: b"defg".to_vec() },
        LogRecord::Commit { txn: 1 },
        LogRecord::Checkpoint,
    ]
}

/// The WAL's stable log after `wal_records()` are appended and flushed.
fn wal_log() -> Vec<u8> {
    let disk = Arc::new(PageDevice::new());
    let wal = Wal::with_backend(Arc::clone(&disk)).unwrap();
    for rec in wal_records() {
        wal.append(&rec);
    }
    wal.flush().unwrap();
    let bytes = disk.log().lend().unwrap().to_vec();
    bytes
}

/// Read `log` as a WAL's stable log.
fn scan_wal(log: &[u8]) -> Result<Vec<(u64, LogRecord)>, DbError> {
    let disk = Arc::new(PageDevice::new());
    disk.log().append(log).unwrap();
    let wal = Wal::with_backend(disk).unwrap();
    Ok(wal.stable_records()?.into_iter().map(|(lsn, rec)| (lsn.0, rec)).collect())
}

fn decisions() -> Vec<Decision> {
    (1..=3)
        .map(|gtid| Decision { gtid, commit: gtid != 2, participants: vec![(0, gtid + 4)] })
        .collect()
}

/// A fresh scratch file path, unique within this process.
fn scratch_file() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("orion-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}.dlog", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// The decision log's file after `decisions()` are recorded.
fn decision_log_file() -> Vec<u8> {
    let path = scratch_file();
    let log = DecisionLog::open(&DecisionLogSpec::File(path.clone())).unwrap();
    for d in decisions() {
        log.record(d).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Open `file` as a decision log.
fn open_decision_log(file: &[u8]) -> Result<Vec<Decision>, DbError> {
    let path = scratch_file();
    std::fs::write(&path, file).unwrap();
    let opened = DecisionLog::open(&DecisionLogSpec::File(path.clone())).map(|l| l.decisions());
    std::fs::remove_file(&path).unwrap();
    opened
}

fn formats() -> &'static [Format] {
    static FORMATS: OnceLock<Vec<Format>> = OnceLock::new();
    FORMATS.get_or_init(|| {
        let encoded = record().encode();
        let value = {
            let mut out = Vec::new();
            orion_types::codec::encode_value(&record().attrs[2].1, &mut out);
            out
        };
        let errors = [
            DbError::DomainViolation {
                class: "V".into(),
                attribute: "w".into(),
                expected: "int".into(),
                got: "str".into(),
            },
            DbError::UnknownClassId(ClassId(7)),
            DbError::Parse { position: 12, message: "expected `from`".into() },
        ]
        .iter()
        .map(|e| {
            let mut out = Vec::new();
            encode_error(e, &mut out);
            out
        })
        .collect();
        let frames = requests().iter().fold(Vec::new(), |mut wire, r| {
            append_frame(&mut wire, &r.encode());
            wire
        });
        vec![
            Format {
                name: "object record",
                samples: vec![encoded.clone()],
                decode: |b| drop(ObjectRecord::decode(b)),
            },
            Format {
                name: "projected object record",
                samples: vec![encoded],
                decode: |b| drop(ObjectRecord::decode_projected(b, |id| id % 2 == 0)),
            },
            Format {
                name: "value",
                samples: vec![value.clone()],
                decode: |b| drop(decode_value(&mut { b })),
            },
            Format {
                name: "skipped value",
                samples: vec![value],
                decode: |b| drop(skip_value(&mut { b })),
            },
            Format { name: "error", samples: errors, decode: |b| drop(decode_error(&mut { b })) },
            Format {
                name: "request",
                samples: requests().iter().map(Request::encode).collect(),
                decode: |b| drop(Request::decode(b)),
            },
            Format {
                name: "response",
                samples: responses().iter().map(Response::encode).collect(),
                decode: |b| drop(Response::decode(b)),
            },
            Format {
                name: "net frames",
                samples: vec![frames],
                decode: |b| {
                    let mut frames = FrameDecoder::new(MAX_FRAME);
                    frames.feed(b);
                    while let Ok(Some(_)) = frames.next_frame() {}
                },
            },
            Format {
                name: "catalog snapshot",
                samples: vec![catalog().snapshot()],
                decode: |b| drop(Catalog::restore(b)),
            },
            Format { name: "WAL device", samples: vec![wal_log()], decode: |b| drop(scan_wal(b)) },
            Format {
                name: "decision log file",
                samples: vec![decision_log_file()],
                decode: |b| drop(open_decision_log(b)),
            },
            Format {
                name: "relbase row",
                samples: vec![relbase::encode_row(
                    42,
                    &[Value::Int(7), Value::str("x"), Value::Null],
                )],
                decode: |b| drop(relbase::decode_row(b)),
            },
        ]
    })
}

/// Run `format`'s decoder on `bytes`, naming the format and the input
/// if it panics.
fn run(format: &Format, bytes: &[u8]) {
    if std::panic::catch_unwind(|| (format.decode)(bytes)).is_err() {
        panic!("the {} decoder panicked on {bytes:?}", format.name);
    }
}

#[test]
fn every_prefix_of_every_encoding_decodes_or_fails_cleanly() {
    for format in formats() {
        for sample in &format.samples {
            for cut in 0..=sample.len() {
                run(format, &sample[..cut]);
            }
        }
    }
    // The prefixes of the logs are torn tails, which cost decisions but
    // never an error.
    let log = wal_log();
    for cut in 0..=log.len() {
        assert!(scan_wal(&log[..cut]).is_ok(), "WAL cut at {cut}");
    }
    let file = decision_log_file();
    for cut in 0..=file.len() {
        let opened = open_decision_log(&file[..cut]).expect("a torn decision log opens");
        assert!(decisions().starts_with(&opened), "decision log cut at {cut}");
    }
}

/// Tag 1 once marked a transaction's start; the log no longer has such
/// a record. A frame carrying it does not decode, so one before a valid
/// record is interior damage, and one at the end is a torn tail.
#[test]
fn the_retired_tag_1_decodes_as_an_error() {
    let mut retired = Vec::new();
    put_frame(&mut retired, &[1, 1, 0, 0, 0, 0, 0, 0, 0]);
    let interior = scan_wal(&[&retired[..], &wal_log()[..]].concat());
    assert!(matches!(interior, Err(DbError::Corruption(_))), "{interior:?}");
    let tail = [&wal_log()[..], &retired[..]].concat();
    let records: Vec<LogRecord> = scan_wal(&tail).unwrap().into_iter().map(|(_, r)| r).collect();
    assert_eq!(records[..wal_records().len()], wal_records()[..]);
    assert!(records[wal_records().len()..].iter().all(|r| *r == LogRecord::Pad));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_byte_flips_decode_or_fail_cleanly(pick in any::<usize>(), at in any::<usize>(), mask in 1u8..255) {
        for format in formats() {
            let mut bytes = format.samples[pick % format.samples.len()].clone();
            let at = at % bytes.len();
            bytes[at] ^= mask;
            run(format, &bytes);
        }
    }

    #[test]
    fn random_bytes_decode_or_fail_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        for format in formats() {
            run(format, &bytes);
        }
    }

    /// A flipped byte in the WAL either ends the log at a torn tail or
    /// is interior damage; what is replayed is always the original.
    #[test]
    fn the_wal_never_replays_a_frame_that_fails_its_crc(at in any::<usize>(), mask in 1u8..255) {
        let log = wal_log();
        let mut bytes = log.clone();
        bytes[at % log.len()] ^= mask;
        let original = scan_wal(&log).unwrap();
        match scan_wal(&bytes) {
            Ok(records) => {
                for (lsn, rec) in records {
                    let intact = original.iter().any(|(l, r)| *l == lsn && *r == rec);
                    prop_assert!(intact || rec == LogRecord::Pad, "replayed {rec:?} at {lsn}");
                }
            }
            Err(e) => prop_assert!(matches!(e, DbError::Corruption(_)), "{e:?}"),
        }
    }

    /// Same for the decision log: what opens is a prefix of what was
    /// recorded; and rot in the checksum or body of any frame but the
    /// last, whose framing still reaches the intact frames after it,
    /// refuses to open rather than lose those decisions.
    #[test]
    fn the_decision_log_never_accepts_a_frame_that_fails_its_crc(at in any::<usize>(), mask in 1u8..255) {
        let mut file = decision_log_file();
        let at = at % file.len();
        file[at] ^= mask;
        // The recorded frames are the same size, so `at` names one.
        let frame = file.len() / decisions().len();
        let interior = at / frame + 1 < decisions().len() && at % frame >= 4;
        match open_decision_log(&file) {
            Ok(got) => {
                prop_assert!(!interior, "rot at {at} lost {} decision(s)", decisions().len() - got.len());
                prop_assert!(decisions().starts_with(&got), "accepted {got:?}");
            }
            Err(e) => prop_assert!(matches!(e, DbError::Corruption(_)), "{e:?}"),
        }
    }
}
