//! Client-side spans: kept in memory during the traced quarters,
//! written out as one JSON file per workload when the run ends, and
//! summarized as a table of self times.
//!
//! Every operation has one root span (`parent` empty) and one child
//! span per `Client` call made for it; all share the operation's `op`
//! id. A root's self time is its duration minus what its children
//! cover: time the benchmark's own thread spent outside the client
//! (generating the request, checking the reply) or, for pipelined
//! operations, waiting in the window.

use crate::harness::Recorder;
use crate::json::quote;
use orion_core::{DbError, DbResult};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Make operation ids of phase `phase` distinct from other phases'.
pub fn offset_ops(rec: &mut Recorder, phase: u64) {
    for span in rec.spans.iter_mut().flatten() {
        span.op += phase << 40;
    }
}

fn io(e: std::io::Error) -> DbError {
    DbError::Storage(format!("writing the span file: {e}"))
}

/// Write every recorded span to `path`.
pub fn write(path: &Path, workload: &str, seed: u64, recs: &[Recorder]) -> DbResult<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let untraced: u64 = recs.iter().map(|r| r.ops_untraced).sum();
    write!(
        out,
        "{{\"workload\": {}, \"seed\": {seed}, \"clock\": \"ns since the start of the span's phase\", \
         \"ops_untraced\": {untraced}, \"spans\": [",
        quote(workload)
    )
    .map_err(io)?;
    let mut first = true;
    for rec in recs {
        for s in rec.spans.iter().flatten() {
            let parent = if s.parent.is_empty() {
                "null".to_string()
            } else {
                quote(s.parent)
            };
            write!(
                out,
                "{}\n{{\"conn\": {}, \"op\": {}, \"name\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if first { "" } else { "," },
                rec.conn,
                s.op,
                quote(s.name),
                s.start_ns,
                s.end_ns
            )
            .map_err(io)?;
            first = false;
        }
    }
    writeln!(out, "\n]}}").map_err(io)?;
    // A BufWriter dropped unflushed would swallow the error.
    out.flush().map_err(io)
}

#[derive(Default)]
struct Row {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Per span name: how many, mean duration, and (for operations) mean
/// self time.
pub fn print_span_table(recs: &[Recorder]) {
    let mut children: HashMap<(usize, u64), u64> = HashMap::new();
    for rec in recs {
        for s in rec.spans.iter().flatten().filter(|s| !s.parent.is_empty()) {
            *children.entry((rec.conn, s.op)).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<(&str, &str), Row> = BTreeMap::new();
    for rec in recs {
        for s in rec.spans.iter().flatten() {
            let (root, name) = if s.parent.is_empty() {
                (s.name, "")
            } else {
                (s.parent, s.name)
            };
            let row = rows.entry((root, name)).or_default();
            let dur = s.end_ns - s.start_ns;
            row.count += 1;
            row.total_ns += dur;
            if s.parent.is_empty() {
                let covered = children.get(&(rec.conn, s.op)).copied().unwrap_or(0);
                row.self_ns += dur.saturating_sub(covered);
            }
        }
    }
    println!("  span table (traced quarters): operation / client call, count, mean us, self us");
    for ((root, name), row) in rows {
        let mean = row.total_ns as f64 / row.count as f64 / 1e3;
        if name.is_empty() {
            let own = row.self_ns as f64 / row.count as f64 / 1e3;
            println!("    {root:<34} {:>9} {mean:>12.2} {own:>10.2}", row.count);
        } else {
            println!("      {name:<32} {:>9} {mean:>12.2}", row.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::{Duration, Instant};

    #[test]
    fn span_file_round_trips_through_the_parser() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(1, t0, true);
        let op = rec.start_op();
        let (_, s, e) = rec.call("client.get", "op.get", op, || ());
        rec.finish_op("op.get", op, s, e + Duration::from_nanos(10));
        offset_ops(&mut rec, 3);
        let dir = std::env::temp_dir().join(format!("orion-trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        write(&path, "point_mix", 7, &[rec]).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = parsed.get("spans").unwrap().as_array();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent").unwrap().as_str(), Some("op.get"));
        assert_eq!(spans[1].get("parent"), Some(&Json::Null));
        assert_eq!(
            spans[0].get("op").unwrap().as_f64(),
            Some(((3u64 << 40) + 1) as f64)
        );
        assert_eq!(parsed.get("seed").unwrap().as_f64(), Some(7.0));
    }
}
