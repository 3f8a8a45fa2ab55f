//! `index_mix`: selective indexed queries beside writes that maintain
//! the same indexes. Parse, plan and the index layer do the work and
//! the extent scan is bypassed; the index is read by queries while it
//! is written by updates.

use super::{fleet_targets, Scale};
use crate::data::{diff_oids, fleet_indexes, load_fleet, vehicle_attrs, Fleet, FleetModel, CITIES};
use crate::harness::{Kind, Recorder, Stop, Targets, Workload};
use crate::rng::SplitMix64;
use orion_core::{Database, DbResult, Oid, Value};
use orion_net::{Client, Request};
use std::collections::VecDeque;

/// Static vehicles weigh `0..n`. Movers live in `MOVER_LO..CREATE_LO`
/// and created objects at or above `CREATE_LO`: bands no static query
/// touches, so static results stay exact whatever the writers do.
const MOVER_LO: i64 = 1_000_000;
const MOVER_BAND: u64 = 50_000;
const CREATE_LO: i64 = 2_000_000;
const CREATE_HI: i64 = 1_000_000_000_000;

/// Width of a weight-range query: 50 keys, 50 rows.
const RANGE: i64 = 50;
/// Width of the range beside a location predicate.
const NARROW: i64 = 500;

pub struct IndexMix {
    seed: u64,
    model: FleetModel,
    movers: usize,
    warmup: u64,
}

impl IndexMix {
    pub fn new(seed: u64, scale: Scale) -> IndexMix {
        IndexMix {
            seed,
            model: FleetModel::generate(seed, scale.of(12_000)),
            movers: scale.of(800),
            warmup: scale.of(750) as u64,
        }
    }

    fn band_count(lo: i64, hi: i64) -> String {
        format!("select count(*) from Vehicle* v where v.weight >= {lo} and v.weight < {hi}")
    }

    fn range_query(lo: i64) -> String {
        format!(
            "select v from Vehicle* v where v.weight >= {lo} and v.weight < {}",
            lo + RANGE
        )
    }

    fn city_query(city: &str, lo: i64) -> String {
        format!(
            "select v from Vehicle* v where v.manufacturer.location = \"{city}\" \
             and v.weight >= {lo} and v.weight < {}",
            lo + NARROW
        )
    }
}

pub struct Indexed {
    fleet: Fleet,
    movers: Vec<Oid>,
}

pub struct IndexConn {
    rng: SplitMix64,
    idx: usize,
    of: usize,
    /// Last acknowledged weight of each own mover.
    mover_weight: Vec<i64>,
    /// Objects this connection created and has not deleted, oldest first.
    created: VecDeque<Oid>,
    serial: i64,
    torn_reads: u64,
}

impl Workload for IndexMix {
    type Pop = Indexed;
    type Conn = IndexConn;

    fn name(&self) -> &'static str {
        "index_mix"
    }

    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn load(&self, db: &Database) -> DbResult<Indexed> {
        let fleet = load_fleet(db, &self.model)?;
        let tx = db.begin();
        let movers = (0..self.movers)
            .map(|j| {
                let mut attrs = vehicle_attrs(&self.model, j, &fleet.companies);
                attrs[1].1 = Value::Int(MOVER_LO + j as i64);
                db.create_object(&tx, "Truck", attrs)
            })
            .collect::<DbResult<Vec<Oid>>>()?;
        db.commit(tx)?;
        fleet_indexes(db)?;
        Ok(Indexed { fleet, movers })
    }

    fn conn(&self, _pop: &Indexed, idx: usize, of: usize) -> IndexConn {
        IndexConn {
            rng: SplitMix64::lane(self.seed, 0x400 + idx as u64),
            idx,
            of,
            mover_weight: (0..self.movers).map(|j| MOVER_LO + j as i64).collect(),
            created: VecDeque::new(),
            serial: 0,
            torn_reads: 0,
        }
    }

    /// 70 % indexed queries (45 weight range, 20 location + range,
    /// 5 mover-band count), 30 % writes (20 move an indexed key, 5
    /// create an object, 5 delete the oldest object this connection
    /// created), one at a time per connection. Range queries
    /// are the clear majority of reads so that the read median sits
    /// inside their mode and not on the edge between two.
    fn drive(
        &self,
        pop: &Indexed,
        conn: &mut IndexConn,
        client: &mut Client,
        mut stop: Stop,
        rec: &mut Recorder,
    ) {
        let n = self.model.vehicles.len() as i64;
        let own_movers = (self.movers - conn.idx).div_ceil(conn.of) as u64;
        while stop.more() {
            let dice = conn.rng.below(100);
            if dice < 65 {
                let (text, name, want) = if dice < 45 {
                    let lo = conn.rng.below((n - RANGE) as u64) as i64;
                    let want = self.model.matching(lo, lo + RANGE, None);
                    (Self::range_query(lo), "op.range", want)
                } else {
                    let lo = conn.rng.below((n - NARROW) as u64) as i64;
                    let city = CITIES[conn.rng.below(CITIES.len() as u64) as usize];
                    let want = self.model.matching(lo, lo + NARROW, Some(city));
                    (Self::city_query(city, lo), "op.city_range", want)
                };
                let reply =
                    rec.single_call_op(Kind::Read, name, "client.query", || client.query(&text));
                if let Some(r) = reply {
                    let want = want.into_iter().map(|i| pop.fleet.vehicles[i]);
                    if let Some(d) = diff_oids(&r.oids, want) {
                        rec.fail(|| format!("{text}: {d}"));
                    }
                }
            } else if dice < 70 {
                let text = Self::band_count(MOVER_LO, CREATE_LO);
                let reply = rec.single_call_op(Kind::Read, "op.band_count", "client.query", || {
                    client.query(&text)
                });
                // The count races mover updates through the unversioned
                // index: a miss is the known torn read, counted apart.
                if reply.is_some_and(|r| r.rows != vec![vec![Value::Int(self.movers as i64)]]) {
                    conn.torn_reads += 1;
                }
            } else if dice < 90 {
                let j = conn.idx + conn.of * conn.rng.below(own_movers) as usize;
                let weight = MOVER_LO + conn.rng.below(MOVER_BAND) as i64;
                let moved = rec.single_call_op(Kind::Write, "op.move", "client.set", || {
                    client.set(pop.movers[j], "weight", Value::Int(weight))
                });
                if moved.is_some() {
                    conn.mover_weight[j] = weight;
                }
            } else if dice < 95 || conn.created.is_empty() {
                conn.serial += 1;
                let mut attrs = vehicle_attrs(
                    &self.model,
                    conn.serial as usize % 997,
                    &pop.fleet.companies,
                );
                attrs[1].1 = Value::Int(CREATE_LO + conn.serial);
                let made =
                    rec.single_call_op(Kind::Write, "op.create", "client.create_object", || {
                        client.create_object("Bus", attrs)
                    });
                conn.created.extend(made);
            } else {
                let oid = conn.created.pop_front().expect("checked non-empty");
                rec.single_call_op(Kind::Write, "op.delete", "client.delete", || {
                    client.delete(oid)
                });
            }
        }
    }

    /// After recovery rebuilt the indexes from the records: both bands
    /// count exactly, every mover has its last acknowledged weight, and
    /// a static range still returns its exact rows.
    fn verify(&self, pop: &Indexed, conns: &[IndexConn], client: &mut Client, rec: &mut Recorder) {
        let created: usize = conns.iter().map(|c| c.created.len()).sum();
        for (what, text, want) in [
            (
                "mover band",
                Self::band_count(MOVER_LO, CREATE_LO),
                self.movers,
            ),
            (
                "created band",
                Self::band_count(CREATE_LO, CREATE_HI),
                created,
            ),
        ] {
            rec.attempted += 1;
            if let Some(r) = rec.expect_ok(what, client.query(&text)) {
                if r.rows != vec![vec![Value::Int(want as i64)]] {
                    rec.fail(|| format!("{what}: want {want}, got {:?}", r.rows));
                }
            }
        }
        for (j, oid) in pop.movers.iter().enumerate() {
            rec.attempted += 1;
            rec.expect_value(
                &format!("mover {j} after recovery"),
                client.get(*oid, "weight"),
                &Value::Int(conns[j % conns.len()].mover_weight[j]),
            );
        }
        rec.attempted += 1;
        if let Some(r) = rec.expect_ok("static range", client.query(&Self::range_query(100))) {
            let want = (100..100 + RANGE as usize).map(|i| pop.fleet.vehicles[i]);
            if let Some(d) = diff_oids(&r.oids, want) {
                rec.fail(|| format!("static range after recovery: {d}"));
            }
        }
    }

    fn torn_reads(&self, conns: &[IndexConn]) -> u64 {
        conns.iter().map(|c| c.torn_reads).sum()
    }

    fn targets(&self, pop: &Indexed) -> Targets {
        Targets {
            // Figure 1, kept below the bands the timed phase writes to,
            // so its row counts do not depend on how long that phase ran.
            query: format!(
                "select v from Vehicle* v where v.weight > 500 and v.weight < {MOVER_LO} \
                 and v.manufacturer.location = \"Detroit\""
            ),
            ..fleet_targets(&self.model, pop.fleet.vehicles.clone())
        }
    }

    fn sample_requests(&self, _pop: &Indexed, n: usize) -> Vec<Request> {
        let mut rng = SplitMix64::lane(self.seed, 0x5D);
        let len = self.model.vehicles.len() as i64;
        (0..n)
            .map(|i| {
                let lo = rng.below((len - NARROW) as u64) as i64;
                let text = if i % 3 == 0 {
                    Self::city_query(CITIES[rng.below(CITIES.len() as u64) as usize], lo)
                } else {
                    Self::range_query(lo)
                };
                Request::Query { text }
            })
            .collect()
    }
}
