//! `durable_txn`: multi-statement transfers against real files with
//! real `fsync`. WAL append, group commit, the log force and (at
//! restart) log replay dominate; it is the only workload where the
//! device is real.

use super::Scale;
use crate::data::{load_bank, Bank, OPENING_BALANCE, SCRATCH};
use crate::harness::{Kind, Recorder, Stop, Targets, Workload};
use crate::rng::SplitMix64;
use orion_core::{Database, DbResult, Value};
use orion_net::{Client, Request};

pub struct DurableTxn {
    seed: u64,
    accounts: usize,
    warmup: u64,
}

impl DurableTxn {
    pub fn new(seed: u64, scale: Scale) -> DurableTxn {
        DurableTxn {
            seed,
            accounts: scale.of(2_000),
            warmup: scale.of(750) as u64,
        }
    }
}

/// One connection: it transfers only between accounts `i` with
/// `i % of == idx`, so no two transactions ever touch the same object
/// and neither lock waits nor upgrade deadlocks can occur.
pub struct TxnConn {
    rng: SplitMix64,
    idx: usize,
    of: usize,
    /// Net acknowledged change per account (own accounts only).
    delta: Vec<i64>,
}

impl Workload for DurableTxn {
    type Pop = Bank;
    type Conn = TxnConn;

    fn name(&self) -> &'static str {
        "durable_txn"
    }

    fn file_backed(&self) -> bool {
        true
    }

    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn load(&self, db: &Database) -> DbResult<Bank> {
        load_bank(db, self.accounts)
    }

    fn conn(&self, _pop: &Bank, idx: usize, of: usize) -> TxnConn {
        TxnConn {
            rng: SplitMix64::lane(self.seed, 0x200 + idx as u64),
            idx,
            of,
            delta: vec![0; self.accounts],
        }
    }

    /// One operation is one transaction: `begin; get a; get b; set a;
    /// set b; commit`, `a` before `b` in OID order.
    fn drive(
        &self,
        bank: &Bank,
        conn: &mut TxnConn,
        client: &mut Client,
        mut stop: Stop,
        rec: &mut Recorder,
    ) {
        const OP: &str = "op.transfer";
        let own = ((self.accounts - conn.idx).div_ceil(conn.of)) as u64;
        while stop.more() {
            let op = rec.start_op();
            let first = conn.rng.below(own);
            let second = (first + 1 + conn.rng.below(own - 1)) % own;
            let pick = |j: u64| conn.idx + conn.of * j as usize;
            let (a, b) = (pick(first.min(second)), pick(first.max(second)));
            let amount = 1 + conn.rng.below(10) as i64;
            let (oid_a, oid_b) = (bank.accounts[a], bank.accounts[b]);
            let (bal_a, bal_b) = (
                OPENING_BALANCE + conn.delta[a],
                OPENING_BALANCE + conn.delta[b],
            );

            let (began, start, _) = rec.call("client.begin", OP, op, || client.begin());
            let committed = rec.expect_ok("begin", began).is_some() && {
                let (got_a, s, e) = rec.call("client.get", OP, op, || client.get(oid_a, "balance"));
                rec.latency(Kind::Read, s, e);
                rec.expect_value("balance a", got_a, &Value::Int(bal_a));
                let (got_b, s, e) = rec.call("client.get", OP, op, || client.get(oid_b, "balance"));
                rec.latency(Kind::Read, s, e);
                rec.expect_value("balance b", got_b, &Value::Int(bal_b));
                let (set_a, ..) = rec.call("client.set", OP, op, || {
                    client.set(oid_a, "balance", Value::Int(bal_a - amount))
                });
                let (set_b, ..) = rec.call("client.set", OP, op, || {
                    client.set(oid_b, "balance", Value::Int(bal_b + amount))
                });
                let wrote = rec.expect_ok("set a", set_a).is_some()
                    & rec.expect_ok("set b", set_b).is_some();
                if wrote {
                    let (done, s, e) = rec.call("client.commit", OP, op, || client.commit());
                    rec.latency(Kind::Write, s, e);
                    rec.expect_ok("commit", done).is_some()
                } else {
                    let _ = client.rollback();
                    false
                }
            };
            if committed {
                conn.delta[a] -= amount;
                conn.delta[b] += amount;
            }
            rec.finish_op(OP, op, start, std::time::Instant::now());
        }
    }

    /// After the reopen: every balance is its opening value plus the
    /// acknowledged transfers, and money is conserved.
    fn verify(&self, bank: &Bank, conns: &[TxnConn], client: &mut Client, rec: &mut Recorder) {
        for (i, oid) in bank.accounts.iter().enumerate() {
            let want = OPENING_BALANCE + conns[i % conns.len()].delta[i];
            rec.attempted += 1;
            rec.expect_value(
                &format!("account {i} after reopen"),
                client.get(*oid, "balance"),
                &Value::Int(want),
            );
        }
        rec.attempted += 1;
        let total = rec
            .expect_ok(
                "conservation query",
                client.query("select a.balance from Account a"),
            )
            .map(|r| r.rows.iter().filter_map(|row| row[0].as_int()).sum::<i64>());
        let want = OPENING_BALANCE * self.accounts as i64;
        if total.is_some_and(|t| t != want) {
            rec.fail(|| format!("conservation: total {total:?}, want {want}"));
        }
    }

    fn targets(&self, bank: &Bank) -> Targets {
        Targets {
            objects: bank.accounts.clone(),
            read_attr: "balance",
            ref_attr: "branch",
            key_attr: "balance",
            key_value: |i| Value::Int(OPENING_BALANCE + (i % 1_000) as i64),
            query: "select a from Account a where a.balance > 500".into(),
            root_class: "Account",
            keys: (0..self.accounts as i64).map(Value::Int).collect(),
        }
    }

    fn sample_requests(&self, bank: &Bank, n: usize) -> Vec<Request> {
        let mut rng = SplitMix64::lane(self.seed, 0x5B);
        (0..n)
            .map(|i| {
                let oid = bank.accounts[rng.below(self.accounts as u64) as usize];
                // The transaction's statement mix: two reads, two writes.
                if i % 2 == 0 {
                    Request::Get {
                        oid,
                        attr: "balance".into(),
                    }
                } else {
                    Request::Set {
                        oid,
                        attr: SCRATCH.into(),
                        value: Value::Int(i as i64),
                    }
                }
            })
            .collect()
    }
}
