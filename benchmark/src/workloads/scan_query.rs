//! `scan_query`: unindexed queries over a class hierarchy larger than
//! both the object cache and the buffer pool. Query execution, the
//! core fetch path, MVCC snapshot reads and the record codec do the
//! work; the wire is a rounding error and the WAL nearly idle.

use super::{fleet_targets, Scale};
use crate::data::{diff_oids, load_fleet, Fleet, FleetModel, CITIES, SCRATCH};
use crate::harness::{Kind, Recorder, Stop, Targets, Workload};
use crate::rng::SplitMix64;
use orion_core::{Database, DbResult, Value};
use orion_net::{Client, Request};

/// The three query shapes, cycled in this order, then a few point
/// writes (so write latency beside long scans is measured too, on
/// enough samples for a median).
const QUERIES: usize = 3;
const CYCLE: usize = QUERIES + 12;

pub struct ScanQuery {
    seed: u64,
    model: FleetModel,
    warmup: u64,
}

impl ScanQuery {
    pub fn new(seed: u64, scale: Scale) -> ScanQuery {
        ScanQuery {
            seed,
            model: FleetModel::generate(seed, scale.of(24_000)),
            warmup: CYCLE as u64,
        }
    }

    /// Figure 1's query: a hierarchy scan with a nested residual.
    fn figure1(select: &str, floor: i64, city: &str) -> String {
        format!(
            "select {select} from Vehicle* v \
             where v.weight > {floor} and v.manufacturer.location = \"{city}\""
        )
    }
}

pub struct ScanConn {
    rng: SplitMix64,
    step: usize,
    /// `(vehicle, last acknowledged scratch value)` for written keys.
    written: Vec<(usize, i64)>,
}

impl Workload for ScanQuery {
    type Pop = Fleet;
    type Conn = ScanConn;

    fn name(&self) -> &'static str {
        "scan_query"
    }

    /// One session, as a design workstation refreshing its views.
    fn connections(&self, _cores: usize) -> usize {
        1
    }

    /// ~8 queries a second leave too few samples for a p99.
    fn preferred_tail(&self) -> f64 {
        0.90
    }

    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn load(&self, db: &Database) -> DbResult<Fleet> {
        load_fleet(db, &self.model)
    }

    fn conn(&self, _pop: &Fleet, idx: usize, _of: usize) -> ScanConn {
        ScanConn {
            rng: SplitMix64::lane(self.seed, 0x300 + idx as u64),
            step: 0,
            written: Vec::new(),
        }
    }

    fn drive(
        &self,
        fleet: &Fleet,
        conn: &mut ScanConn,
        client: &mut Client,
        mut stop: Stop,
        rec: &mut Recorder,
    ) {
        let n = self.model.vehicles.len() as i64;
        while stop.more() {
            let shape = conn.step % CYCLE;
            conn.step += 1;
            let floor = conn.rng.below(1_000) as i64;
            let city = CITIES[conn.rng.below(CITIES.len() as u64) as usize];
            let matching = || self.model.matching(floor + 1, n, Some(city));
            let mut scan = |rec: &mut Recorder, name, text: &str| {
                rec.single_call_op(Kind::Read, name, "client.query", || client.query(text))
            };
            match shape {
                0 => {
                    let reply = scan(rec, "op.scan_filter", &Self::figure1("v", floor, city));
                    if let Some(r) = reply {
                        let want = matching().into_iter().map(|i| fleet.vehicles[i]);
                        if let Some(d) = diff_oids(&r.oids, want) {
                            rec.fail(|| format!("figure-1 scan ({city}, > {floor}): {d}"));
                        }
                    }
                }
                1 => {
                    const TOP: &str =
                        "select v.weight from Vehicle* v order by v.weight desc limit 10";
                    if let Some(r) = scan(rec, "op.scan_top", TOP) {
                        let got: Vec<Value> = r.rows.into_iter().flatten().collect();
                        let want: Vec<Value> = (n - 10..n).rev().map(Value::Int).collect();
                        if got != want {
                            rec.fail(|| format!("top-10 scan: got {got:?}"));
                        }
                    }
                }
                2 => {
                    let reply = scan(
                        rec,
                        "op.scan_count",
                        &Self::figure1("count(*)", floor, city),
                    );
                    if let Some(r) = reply {
                        let want = vec![vec![Value::Int(matching().len() as i64)]];
                        if r.rows != want {
                            rec.fail(|| format!("count ({city}, > {floor}): got {:?}", r.rows));
                        }
                    }
                }
                _ => {
                    let op = rec.start_op();
                    let key = conn.rng.below(n as u64) as usize;
                    let value = conn.step as i64;
                    let (r, s, e) = rec.call("client.set", "op.set", op, || {
                        client.set(fleet.vehicles[key], SCRATCH, Value::Int(value))
                    });
                    rec.latency(Kind::Write, s, e);
                    // Throughput is queries per second: the writes
                    // ride along and would only blur the slices.
                    rec.finish_side_op("op.set", op, s, e);
                    if rec.expect_ok("set", r).is_some() {
                        conn.written.push((key, value));
                    }
                }
            }
        }
    }

    fn verify(&self, fleet: &Fleet, conns: &[ScanConn], client: &mut Client, rec: &mut Recorder) {
        let mut last = std::collections::BTreeMap::new();
        for (key, value) in conns.iter().flat_map(|c| c.written.iter().copied()) {
            last.insert(key, value);
        }
        for (key, value) in last {
            rec.attempted += 1;
            rec.expect_value(
                &format!("vehicle {key} after recovery"),
                client.get(fleet.vehicles[key], SCRATCH),
                &Value::Int(value),
            );
        }
        // Recovery rebuilt the extents: the hierarchy still counts whole.
        rec.attempted += 1;
        let count = rec.expect_ok("count", client.query("select count(*) from Vehicle* v"));
        let want = vec![vec![Value::Int(self.model.vehicles.len() as i64)]];
        if count.is_some_and(|c| c.rows != want) {
            rec.fail(|| "hierarchy count changed across recovery".into());
        }
    }

    fn targets(&self, fleet: &Fleet) -> Targets {
        fleet_targets(&self.model, fleet.vehicles.clone())
    }

    fn sample_requests(&self, _fleet: &Fleet, n: usize) -> Vec<Request> {
        let mut rng = SplitMix64::lane(self.seed, 0x5C);
        (0..n)
            .map(|i| {
                let floor = rng.below(1_000) as i64;
                let city = CITIES[rng.below(CITIES.len() as u64) as usize];
                let select = if i % 2 == 0 { "v" } else { "count(*)" };
                Request::Query {
                    text: Self::figure1(select, floor, city),
                }
            })
            .collect()
    }
}
