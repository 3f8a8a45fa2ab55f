//! `point_mix`: pipelined point reads and autocommit point writes over
//! a hot set that fits the object cache. The wire codec, the event
//! loop, admission, the lock manager and the core facade do nearly all
//! the work; the query and index layers do none.

use super::{fleet_targets, Scale};
use crate::data::{load_fleet, Fleet, FleetModel, SCRATCH};
use crate::harness::{Kind, Recorder, Stop, Targets, Workload};
use crate::rng::SplitMix64;
use orion_core::{Database, DbError, DbResult, Oid, Value};
use orion_net::{Client, Request, Response};
use std::collections::VecDeque;
use std::time::Instant;

/// Requests each connection keeps in flight. Depth-1 ping-pong on a
/// small host times thread wake-ups (its p50 is bimodal); a window
/// keeps the server busy, so the program's own work is what is timed.
const WINDOW: usize = 8;

/// Share of operations that are writes, in percent.
const WRITE_PERCENT: u64 = 20;

pub struct PointMix {
    seed: u64,
    model: FleetModel,
    /// Hot-set size; hot key `k` is vehicle `k * stride`.
    hot: usize,
    stride: usize,
    warmup: u64,
}

impl PointMix {
    pub fn new(seed: u64, scale: Scale) -> PointMix {
        let vehicles = scale.of(12_000);
        let hot = scale.of(2_000);
        PointMix {
            seed,
            model: FleetModel::generate(seed, vehicles),
            hot,
            stride: vehicles / hot,
            warmup: scale.of(10_000) as u64,
        }
    }

    fn oid(&self, fleet: &Fleet, key: usize) -> Oid {
        fleet.vehicles[key * self.stride]
    }
}

/// One connection: it writes only hot keys `k` with `k % of == idx`,
/// and reads every hot key.
pub struct PointConn {
    rng: SplitMix64,
    idx: usize,
    of: usize,
    /// Last value sent for each own key (what a later own read must
    /// return, since a connection's requests execute in order).
    sent: Vec<i64>,
    /// Last value acknowledged for each own key (what must survive).
    acked: Vec<i64>,
    /// Highest value seen per key: other connections' keys only grow.
    seen: Vec<i64>,
}

enum Expect {
    Exactly(i64),
    AtLeast(i64),
    Ack(i64),
}

struct InFlight {
    op: u64,
    key: usize,
    expect: Expect,
    start: Instant,
}

impl Workload for PointMix {
    type Pop = Fleet;
    type Conn = PointConn;

    fn name(&self) -> &'static str {
        "point_mix"
    }

    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn load(&self, db: &Database) -> DbResult<Fleet> {
        load_fleet(db, &self.model)
    }

    fn conn(&self, _pop: &Fleet, idx: usize, of: usize) -> PointConn {
        PointConn {
            rng: SplitMix64::lane(self.seed, 0x100 + idx as u64),
            idx,
            of,
            sent: vec![0; self.hot],
            acked: vec![0; self.hot],
            seen: vec![0; self.hot],
        }
    }

    fn drive(
        &self,
        fleet: &Fleet,
        conn: &mut PointConn,
        client: &mut Client,
        mut stop: Stop,
        rec: &mut Recorder,
    ) {
        let Some(mut pipe) = rec.expect_ok("pipeline", client.pipeline()) else {
            return;
        };
        // Own keys are `idx, idx + of, idx + 2 * of, ...` below `hot`.
        let own = (self.hot - conn.idx).div_ceil(conn.of) as u64;
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        loop {
            while inflight.len() < WINDOW && stop.more() {
                let op = rec.start_op();
                let (request, key, expect, parent) = if conn.rng.chance(WRITE_PERCENT) {
                    let key = conn.idx + conn.of * conn.rng.below(own) as usize;
                    conn.sent[key] += 1;
                    let value = conn.sent[key];
                    let request = Request::Set {
                        oid: self.oid(fleet, key),
                        attr: SCRATCH.into(),
                        value: Value::Int(value),
                    };
                    (request, key, Expect::Ack(value), "op.set")
                } else {
                    let key = conn.rng.below(self.hot as u64) as usize;
                    let expect = if key % conn.of == conn.idx {
                        Expect::Exactly(conn.sent[key])
                    } else {
                        Expect::AtLeast(conn.seen[key])
                    };
                    let request = Request::Get {
                        oid: self.oid(fleet, key),
                        attr: SCRATCH.into(),
                    };
                    (request, key, expect, "op.get")
                };
                let (sent, start, _) =
                    rec.call("pipeline.send", parent, op, || pipe.send(&request));
                if rec.expect_ok("send", sent).is_none() {
                    return;
                }
                inflight.push_back(InFlight {
                    op,
                    key,
                    expect,
                    start,
                });
            }
            let Some(f) = inflight.pop_front() else {
                return;
            };
            let is_write = matches!(f.expect, Expect::Ack(_));
            let parent = if is_write { "op.set" } else { "op.get" };
            let (reply, _, end) = rec.call("pipeline.recv", parent, f.op, || pipe.recv());
            rec.latency(
                if is_write { Kind::Write } else { Kind::Read },
                f.start,
                end,
            );
            rec.finish_op(parent, f.op, f.start, end);
            match (reply, f.expect) {
                (Ok(Response::Ok), Expect::Ack(v)) => conn.acked[f.key] = v,
                (Ok(Response::Value(Value::Int(got))), Expect::Exactly(want)) if got == want => {}
                (Ok(Response::Value(Value::Int(got))), Expect::AtLeast(floor)) if got >= floor => {
                    conn.seen[f.key] = got;
                }
                (Err(e @ DbError::Net(_)), _) => {
                    rec.fail(|| format!("pipeline broke: {e}"));
                    return;
                }
                (other, _) => rec.fail(|| format!("key {}: unexpected reply {other:?}", f.key)),
            }
        }
    }

    /// After `crash_and_recover()` (which discards the unflushed log),
    /// every written key must hold its last acknowledged value.
    fn verify(&self, fleet: &Fleet, conns: &[PointConn], client: &mut Client, rec: &mut Recorder) {
        for key in 0..self.hot {
            let want = conns[key % conns.len()].acked[key];
            rec.attempted += 1;
            rec.expect_value(
                &format!("hot key {key} after recovery"),
                client.get(self.oid(fleet, key), SCRATCH),
                &Value::Int(want),
            );
        }
    }

    fn targets(&self, fleet: &Fleet) -> Targets {
        fleet_targets(
            &self.model,
            (0..self.hot).map(|k| self.oid(fleet, k)).collect(),
        )
    }

    fn sample_requests(&self, fleet: &Fleet, n: usize) -> Vec<Request> {
        let mut rng = SplitMix64::lane(self.seed, 0x5A);
        (0..n)
            .map(|i| {
                let oid = self.oid(fleet, rng.below(self.hot as u64) as usize);
                if rng.chance(WRITE_PERCENT) {
                    Request::Set {
                        oid,
                        attr: SCRATCH.into(),
                        value: Value::Int(i as i64),
                    }
                } else {
                    Request::Get {
                        oid,
                        attr: SCRATCH.into(),
                    }
                }
            })
            .collect()
    }
}
