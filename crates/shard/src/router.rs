//! The partition router: one facade-shaped endpoint fronting N
//! `orion-net` servers.
//!
//! Classes are the distribution unit (see `placement`): DDL is
//! broadcast to every shard so the schema — and therefore every class
//! id — is identical cluster-wide, while each class's *extent* lives
//! wholly on the shard its placement names. Because an OID encodes its
//! class, any object request routes without a directory lookup. OID
//! *serials* come from each shard's own facade (a node-global
//! counter), so an object's identity is not byte-equal to what a
//! single node would have assigned — but an extent lives wholly on
//! one shard and class ids are cluster-agreed, so OIDs stay unique
//! across the whole cluster; it is the *result rows* of a query that
//! are reproduced byte-identically.
//!
//! Queries whose scope (the target class, plus its known subclasses
//! for `Class*` hierarchy queries) maps to one shard pass through with
//! a single hop and are returned verbatim. Multi-shard scopes fan out:
//! the same text runs on every owning shard and the router merges —
//! `count(*)` sums, `order by` re-sorts with the executor's exact
//! comparison (total order on the key, ascending ties by candidate
//! position, descending as that comparison fully reversed), `limit`
//! truncates after the merge (safe to push down per shard: the global
//! top-K is a subset of the per-shard top-Ks). Among *equal* keys the
//! merged candidate position is shard-major, which is deterministic
//! but need not match a single node's interleaved insertion order.
//!
//! Cross-shard transactions run two-phase commit: every touched shard
//! gets its own connection and session transaction; `commit` prepares
//! all of them, durably logs the commit decision (`decision_log`),
//! then pushes `CommitPrepared` to each participant. A participant
//! that crashes after voting recovers its prepared transaction as
//! in-doubt and [`ShardRouter::resolve_in_doubt`] pushes the logged
//! outcome (no log entry = presumed abort). Transactions that touch
//! one shard commit in a single hop (1PC fast path).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};

use orion_core::{AttrSpec, IndexKind};
use orion_net::{Client, ClientConfig};
use orion_obs::Counter;
use orion_query::{parse, Path, Query, QueryResult, SelectItem};
use orion_types::{DbError, DbResult, Oid, Value};
use parking_lot::{Mutex, RwLock};

use crate::decision_log::{Decision, DecisionLog, DecisionLogSpec};
use crate::placement::{HashPlacement, PlacementPolicy};

/// Router construction knobs.
pub struct RouterConfig {
    /// Class → shard assignment. Default: [`HashPlacement`].
    pub placement: Box<dyn PlacementPolicy>,
    /// Where the 2PC coordinator logs its commit decisions. Default:
    /// in-memory (pair it with a file for crash-surviving coordination).
    pub decision_log: DecisionLogSpec,
    /// Per-connection client configuration (timeouts, retries).
    pub client: ClientConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            placement: Box::new(HashPlacement),
            decision_log: DecisionLogSpec::Memory,
            client: ClientConfig::default(),
        }
    }
}

/// Router-side counters, rendered by
/// [`ShardRouter::metrics_prometheus`].
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Requests routed to each shard (autocommit + transactional).
    pub requests: Vec<Counter>,
    /// Error replies per shard.
    pub errors: Vec<Counter>,
    /// Single-shard queries forwarded verbatim.
    pub passthrough_queries: Counter,
    /// Multi-shard queries merged by the router.
    pub fanout_queries: Counter,
    /// Transactions committed on the single-shard fast path.
    pub txns_1pc: Counter,
    /// Transactions committed via two-phase commit.
    pub txns_2pc: Counter,
    /// Coordinator commit decisions logged.
    pub decisions_commit: Counter,
    /// Coordinator aborts (vote failures and rollbacks).
    pub decisions_abort: Counter,
    /// Phase-two pushes that failed (left for in-doubt resolution).
    pub commit_push_failures: Counter,
    /// In-doubt participant transactions resolved at recovery.
    pub in_doubt_resolved: Counter,
}

orion_obs::metrics! {
    /// The scalar [`RouterMetrics`] as rendered (the per-shard series
    /// carry a label, which a declared series does not).
    struct RouterCounts;
    passthrough_queries: counter("orion_shard_passthrough_queries_total", "Queries forwarded verbatim to a single shard"),
    fanout_queries: counter("orion_shard_fanout_queries_total", "Queries fanned out and merged by the router"),
    txns_1pc: counter("orion_shard_txns_1pc_total", "Transactions committed on the single-shard fast path"),
    txns_2pc: counter("orion_shard_txns_2pc_total", "Transactions committed via two-phase commit"),
    decisions_commit: counter("orion_shard_decisions_commit_total", "Coordinator commit decisions logged"),
    decisions_abort: counter("orion_shard_decisions_abort_total", "Coordinator abort outcomes"),
    commit_push_failures: counter("orion_shard_commit_push_failures_total", "Phase-two pushes left for in-doubt resolution"),
    in_doubt_resolved: counter("orion_shard_in_doubt_resolved_total", "In-doubt participant transactions resolved"),
}

#[derive(Debug, Clone)]
struct ClassMeta {
    id: u16,
    supers: Vec<String>,
}

/// The partition router. Thread-safe: shared connections are
/// mutex-guarded, transactions dial their own.
pub struct ShardRouter {
    addrs: Vec<SocketAddr>,
    shards: Vec<Mutex<Client>>,
    placement: Box<dyn PlacementPolicy>,
    client_config: ClientConfig,
    /// Schema as created *through this router*: name → meta, and the
    /// broadcast-agreed class id → name (for OID routing).
    classes: RwLock<HashMap<String, ClassMeta>>,
    class_names: RwLock<HashMap<u16, String>>,
    log: DecisionLog,
    metrics: RouterMetrics,
}

impl ShardRouter {
    /// Dial every shard and return the router. Shard order is
    /// significant: placement indexes into `addrs` as given, so every
    /// router for a cluster must list the shards identically.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A], config: RouterConfig) -> DbResult<ShardRouter> {
        if addrs.is_empty() {
            return Err(DbError::Shard("a cluster needs at least one shard".into()));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        let mut resolved = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let client = Client::connect_with(addr, config.client.clone())?;
            resolved.push(client.server_addr());
            shards.push(Mutex::new(client));
        }
        let metrics = RouterMetrics {
            requests: (0..shards.len()).map(|_| Counter::new()).collect(),
            errors: (0..shards.len()).map(|_| Counter::new()).collect(),
            ..RouterMetrics::default()
        };
        Ok(ShardRouter {
            addrs: resolved,
            shards,
            placement: config.placement,
            client_config: config.client,
            classes: RwLock::new(HashMap::new()),
            class_names: RwLock::new(HashMap::new()),
            log: DecisionLog::open(&config.decision_log)?,
            metrics,
        })
    }

    /// The broadcast-agreed class id for a class created through this
    /// router.
    pub fn class_id(&self, class: &str) -> Option<u16> {
        self.classes.read().get(class).map(|m| m.id)
    }

    /// Router-side counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// The coordinator's decision log (for inspection).
    pub fn decision_log(&self) -> &DecisionLog {
        &self.log
    }

    fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&mut Client) -> DbResult<T>) -> DbResult<T> {
        self.metrics.requests[shard].inc();
        let mut client = self.shards[shard].lock();
        let result = f(&mut client);
        if result.is_err() {
            self.metrics.errors[shard].inc();
        }
        result
    }

    fn shard_for_class(&self, class: &str) -> DbResult<usize> {
        self.placement
            .place(class, self.shards.len())
            .ok_or_else(|| DbError::Shard(format!("no shard placement for class '{class}'")))
    }

    fn shard_for_oid(&self, oid: Oid) -> DbResult<usize> {
        let raw = oid.class().0;
        let name = self
            .class_names
            .read()
            .get(&raw)
            .cloned()
            .ok_or_else(|| {
                DbError::Shard(format!(
                    "class id {raw} of {oid:?} is unknown to the router; create classes through the router"
                ))
            })?;
        self.shard_for_class(&name)
    }

    /// The target class plus (for hierarchy queries) every known
    /// transitive subclass, per the DDL that went through this router.
    fn scope_classes(&self, target: &str, hierarchy: bool) -> Vec<String> {
        let mut scope = vec![target.to_string()];
        if !hierarchy {
            return scope;
        }
        let classes = self.classes.read();
        let mut set: HashSet<&str> = HashSet::from([target]);
        let mut grew = true;
        while grew {
            grew = false;
            for (name, meta) in classes.iter() {
                if !set.contains(name.as_str())
                    && meta.supers.iter().any(|s| set.contains(s.as_str()))
                {
                    set.insert(name);
                    scope.push(name.clone());
                    grew = true;
                }
            }
        }
        scope
    }

    fn owning_shards(&self, classes: &[String]) -> DbResult<Vec<usize>> {
        let mut owners = BTreeSet::new();
        for class in classes {
            owners.insert(self.shard_for_class(class)?);
        }
        Ok(owners.into_iter().collect())
    }

    // ------------------------------------------------------------------
    // DDL: broadcast, schema is global.

    /// Create a class on every shard; all shards must agree on the id.
    pub fn create_class(
        &self,
        name: &str,
        supers: &[&str],
        attrs: Vec<AttrSpec>,
    ) -> DbResult<u16> {
        let mut agreed: Option<u16> = None;
        for shard in 0..self.shards.len() {
            let id = self.with_shard(shard, |c| c.create_class(name, supers, attrs.clone()))?;
            match agreed {
                None => agreed = Some(id),
                Some(prev) if prev == id => {}
                Some(prev) => {
                    return Err(DbError::Shard(format!(
                        "class id divergence for '{name}': shard 0 said {prev}, shard {shard} said {id}; \
                         shards must receive identical DDL"
                    )))
                }
            }
        }
        let id = agreed.expect("at least one shard");
        self.classes.write().insert(
            name.to_string(),
            ClassMeta { id, supers: supers.iter().map(|s| s.to_string()).collect() },
        );
        self.class_names.write().insert(id, name.to_string());
        Ok(id)
    }

    /// Create an index on every shard.
    pub fn create_index(
        &self,
        name: &str,
        kind: IndexKind,
        class: &str,
        path: &[&str],
    ) -> DbResult<()> {
        for shard in 0..self.shards.len() {
            let kind = kind.clone();
            self.with_shard(shard, |c| c.create_index(name, kind, class, path))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Autocommit DML: one hop to the owning shard.

    /// Create an object on its class's owning shard.
    pub fn create_object(&self, class: &str, attrs: Vec<(&str, Value)>) -> DbResult<Oid> {
        let shard = self.shard_for_class(class)?;
        self.with_shard(shard, |c| c.create_object(class, attrs))
    }

    /// Read one attribute from the owning shard.
    pub fn get(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        let shard = self.shard_for_oid(oid)?;
        self.with_shard(shard, |c| c.get(oid, attr))
    }

    /// Update one attribute on the owning shard.
    pub fn set(&self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        let shard = self.shard_for_oid(oid)?;
        self.with_shard(shard, |c| c.set(oid, attr, value))
    }

    /// Delete an object on its owning shard.
    pub fn delete(&self, oid: Oid) -> DbResult<()> {
        let shard = self.shard_for_oid(oid)?;
        self.with_shard(shard, |c| c.delete(oid))
    }

    // ------------------------------------------------------------------
    // Queries: passthrough or fan-out + merge.

    /// Run a declarative query against the cluster.
    pub fn query(&self, text: &str) -> DbResult<QueryResult> {
        let q = parse(text)?;
        let owners = self.owning_shards(&self.scope_classes(&q.target, q.hierarchy))?;
        if owners.len() == 1 {
            self.metrics.passthrough_queries.inc();
            return self.with_shard(owners[0], |c| c.query(text));
        }
        self.metrics.fanout_queries.inc();
        // Pipelined fan-out: write the query to every owning shard
        // before reading any reply, so the legs execute concurrently
        // and the fan-out costs one round trip, not one per shard.
        // Guards are taken in ascending shard order (the router-wide
        // lock order) and — together with the pipelines borrowing them
        // — dropped before merge(), which may re-lock shards to resolve
        // ORDER BY keys.
        let partials = {
            let mut guards = Vec::with_capacity(owners.len());
            for &shard in &owners {
                self.metrics.requests[shard].inc();
                guards.push(self.shards[shard].lock());
            }
            let mut pipes = Vec::with_capacity(guards.len());
            for (i, guard) in guards.iter_mut().enumerate() {
                match guard.pipeline().and_then(|mut p| p.send_query(text).map(|()| p)) {
                    Ok(pipe) => pipes.push(pipe),
                    Err(e) => {
                        self.metrics.errors[owners[i]].inc();
                        return Err(e);
                    }
                }
            }
            let mut partials = Vec::with_capacity(pipes.len());
            let mut failed: Option<DbError> = None;
            for (i, pipe) in pipes.iter_mut().enumerate() {
                // Keep receiving past a failed leg so the healthy
                // connections stay in sync (a skipped reply would
                // poison them on drop); report the first failure.
                match pipe.recv_query() {
                    Ok(result) => partials.push((owners[i], result)),
                    Err(e) => {
                        self.metrics.errors[owners[i]].inc();
                        failed.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = failed {
                return Err(e);
            }
            partials
        };
        self.merge(&q, partials)
    }

    /// Merge per-shard results preserving the single-node semantics of
    /// the executor (see module docs for the tie-order caveat).
    fn merge(&self, q: &Query, partials: Vec<(usize, QueryResult)>) -> DbResult<QueryResult> {
        if q.select == [SelectItem::Count] {
            let mut total: i64 = 0;
            for (_, p) in &partials {
                match p.rows.first().and_then(|r| r.first()) {
                    Some(Value::Int(n)) => total += n,
                    other => {
                        return Err(DbError::Shard(format!(
                            "shard returned malformed count(*) row: {other:?}"
                        )))
                    }
                }
            }
            return Ok(QueryResult { rows: vec![vec![Value::Int(total)]], oids: vec![] });
        }

        let merged = match &q.order_by {
            Some((path, ascending)) => {
                let mut entries = Vec::new();
                let key_col = key_column(q, path);
                let mut pos = 0usize;
                for (shard, p) in partials {
                    for (i, row) in p.rows.into_iter().enumerate() {
                        let oid = *p.oids.get(i).ok_or_else(|| {
                            DbError::Shard("shard result rows/oids misaligned".into())
                        })?;
                        let key = match key_col {
                            Some(col) => row[col].clone(),
                            None => self.order_key(shard, oid, path)?,
                        };
                        entries.push((key, pos, row, oid));
                        pos += 1;
                    }
                }
                let ascending = *ascending;
                entries.sort_by(|a, b| {
                    let ord = a.0.cmp_total(&b.0).then(a.1.cmp(&b.1));
                    if ascending {
                        ord
                    } else {
                        ord.reverse()
                    }
                });
                let mut rows = Vec::with_capacity(entries.len());
                let mut oids = Vec::with_capacity(entries.len());
                for (_, _, row, oid) in entries {
                    rows.push(row);
                    oids.push(oid);
                }
                QueryResult { rows, oids }
            }
            None => {
                let mut rows = Vec::new();
                let mut oids = Vec::new();
                for (_, mut p) in partials {
                    rows.append(&mut p.rows);
                    oids.append(&mut p.oids);
                }
                QueryResult { rows, oids }
            }
        };
        let mut merged = merged;
        if let Some(limit) = q.limit {
            merged.rows.truncate(limit);
            merged.oids.truncate(limit);
        }
        Ok(merged)
    }

    /// Fetch the order-by key for a row whose projection does not
    /// include it (one extra hop to the shard that produced the row).
    fn order_key(&self, shard: usize, oid: Oid, path: &Path) -> DbResult<Value> {
        match path.steps.as_slice() {
            [attr] => self.with_shard(shard, |c| c.get(oid, attr)),
            _ => Err(DbError::Shard(format!(
                "fan-out cannot order by '{path}': project the path in the select list"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Transactions.

    /// Open a cluster transaction. Each touched shard gets its own
    /// connection and session transaction, lazily.
    pub fn begin(&self) -> ShardTx<'_> {
        ShardTx { router: self, parts: BTreeMap::new() }
    }

    /// Resolve every in-doubt transaction on every shard against the
    /// coordinator's decision log: logged commit → `CommitPrepared`,
    /// anything else → presumed abort. Returns the resolutions as
    /// `(shard, local txn, committed)`.
    pub fn resolve_in_doubt(&self) -> DbResult<Vec<(usize, u64, bool)>> {
        let mut resolved = Vec::new();
        for shard in 0..self.shards.len() {
            let txns = self.with_shard(shard, |c| c.resolve(None))?;
            for txn in txns {
                let commit = self.log.decision_for(shard as u32, txn).unwrap_or(false);
                self.with_shard(shard, |c| {
                    if commit {
                        c.commit_prepared(txn)
                    } else {
                        c.abort_prepared(txn)
                    }
                })?;
                self.metrics.in_doubt_resolved.inc();
                resolved.push((shard, txn, commit));
            }
        }
        Ok(resolved)
    }

    /// Render the router's own counters in the Prometheus text format
    /// (per-shard series labelled `shard="<index>"`).
    pub fn metrics_prometheus(&self) -> String {
        let m = &self.metrics;
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP orion_shard_requests_total Requests routed to each shard\n");
        out.push_str("# TYPE orion_shard_requests_total counter\n");
        for (i, c) in m.requests.iter().enumerate() {
            let _ = writeln!(out, "orion_shard_requests_total{{shard=\"{i}\"}} {}", c.get());
        }
        out.push_str("# HELP orion_shard_errors_total Error replies per shard\n");
        out.push_str("# TYPE orion_shard_errors_total counter\n");
        for (i, c) in m.errors.iter().enumerate() {
            let _ = writeln!(out, "orion_shard_errors_total{{shard=\"{i}\"}} {}", c.get());
        }
        RouterCounts {
            passthrough_queries: m.passthrough_queries.get(),
            fanout_queries: m.fanout_queries.get(),
            txns_1pc: m.txns_1pc.get(),
            txns_2pc: m.txns_2pc.get(),
            decisions_commit: m.decisions_commit.get(),
            decisions_abort: m.decisions_abort.get(),
            commit_push_failures: m.commit_push_failures.get(),
            in_doubt_resolved: m.in_doubt_resolved.get(),
        }
        .render(&mut out);
        out
    }
}

/// Find the select-list column that projects the order-by path.
fn key_column(q: &Query, path: &Path) -> Option<usize> {
    q.select.iter().position(|item| matches!(item, SelectItem::Path(p) if p == path))
}

struct Part {
    client: Client,
    txn: u64,
}

/// A cluster transaction: per-shard connections opened lazily, atomic
/// commit across all of them. Dropping without `commit`/`rollback`
/// rolls back every participant (best effort; a lost connection rolls
/// back server-side on disconnect anyway).
pub struct ShardTx<'a> {
    router: &'a ShardRouter,
    parts: BTreeMap<usize, Part>,
}

impl ShardTx<'_> {
    fn part(&mut self, shard: usize) -> DbResult<&mut Part> {
        if !self.parts.contains_key(&shard) {
            let mut client =
                Client::connect_with(self.router.addrs[shard], self.router.client_config.clone())?;
            let txn = client.begin()?;
            self.parts.insert(shard, Part { client, txn });
        }
        Ok(self.parts.get_mut(&shard).expect("just inserted"))
    }

    fn on_shard<T>(
        &mut self,
        shard: usize,
        f: impl FnOnce(&mut Client) -> DbResult<T>,
    ) -> DbResult<T> {
        self.router.metrics.requests[shard].inc();
        let part = self.part(shard)?;
        let result = f(&mut part.client);
        if result.is_err() {
            self.router.metrics.errors[shard].inc();
        }
        result
    }

    /// Shards this transaction has touched so far.
    pub fn touched_shards(&self) -> Vec<usize> {
        self.parts.keys().copied().collect()
    }

    /// Create an object within the transaction.
    pub fn create_object(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> DbResult<Oid> {
        let shard = self.router.shard_for_class(class)?;
        self.on_shard(shard, |c| c.create_object(class, attrs))
    }

    /// Read one attribute within the transaction.
    pub fn get(&mut self, oid: Oid, attr: &str) -> DbResult<Value> {
        let shard = self.router.shard_for_oid(oid)?;
        self.on_shard(shard, |c| c.get(oid, attr))
    }

    /// Update one attribute within the transaction.
    pub fn set(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        let shard = self.router.shard_for_oid(oid)?;
        self.on_shard(shard, |c| c.set(oid, attr, value))
    }

    /// Delete an object within the transaction.
    pub fn delete(&mut self, oid: Oid) -> DbResult<()> {
        let shard = self.router.shard_for_oid(oid)?;
        self.on_shard(shard, |c| c.delete(oid))
    }

    /// Run a query within the transaction. Only single-shard scopes
    /// are supported here (the hop uses this transaction's connection,
    /// so the query sees its uncommitted writes); fan-out inside an
    /// explicit transaction is refused.
    pub fn query(&mut self, text: &str) -> DbResult<QueryResult> {
        let q = parse(text)?;
        let owners = self
            .router
            .owning_shards(&self.router.scope_classes(&q.target, q.hierarchy))?;
        match owners.as_slice() {
            [shard] => self.on_shard(*shard, |c| c.query(text)),
            _ => Err(DbError::Shard(
                "fan-out queries inside an explicit transaction are not supported; \
                 commit first or narrow the scope to one shard"
                    .into(),
            )),
        }
    }

    /// Commit atomically. One shard: plain single-hop commit. Several:
    /// two-phase commit — PREPARE everywhere, log the decision
    /// durably, then push COMMIT to each participant. Once the
    /// decision is logged the transaction *is* committed: a
    /// participant that cannot be reached afterwards is completed by
    /// [`ShardRouter::resolve_in_doubt`].
    pub fn commit(mut self) -> DbResult<()> {
        let parts = std::mem::take(&mut self.parts);
        let router = self.router;
        let mut iter = parts.into_iter();
        match iter.len() {
            0 => Ok(()),
            1 => {
                let (shard, mut part) = iter.next().expect("len checked");
                router.metrics.requests[shard].inc();
                let result = part.client.commit();
                if result.is_err() {
                    router.metrics.errors[shard].inc();
                } else {
                    router.metrics.txns_1pc.inc();
                }
                result
            }
            _ => {
                // Phase one: collect votes in shard order.
                let mut prepared: Vec<(usize, Part)> = Vec::new();
                for (shard, mut part) in iter.by_ref() {
                    router.metrics.requests[shard].inc();
                    if let Err(e) = part.client.prepare(part.txn) {
                        router.metrics.errors[shard].inc();
                        // The no-voter already rolled back server-side;
                        // undo the rest and presume abort.
                        for (_, mut p) in prepared {
                            let _ = p.client.abort_prepared(p.txn);
                        }
                        for (_, mut p) in iter {
                            let _ = p.client.rollback();
                        }
                        router.metrics.decisions_abort.inc();
                        return Err(e);
                    }
                    prepared.push((shard, part));
                }
                // Decision point: force the commit record before any
                // participant learns the outcome.
                let decision = Decision {
                    gtid: router.log.next_gtid(),
                    commit: true,
                    participants: prepared.iter().map(|(s, p)| (*s as u32, p.txn)).collect(),
                };
                if let Err(e) = router.log.record(decision) {
                    for (_, mut p) in prepared {
                        let _ = p.client.abort_prepared(p.txn);
                    }
                    router.metrics.decisions_abort.inc();
                    return Err(e);
                }
                router.metrics.decisions_commit.inc();
                // Phase two: the outcome is decided; push it. Failures
                // here leave the participant in-doubt for
                // resolve_in_doubt, they do not undo the commit.
                for (shard, mut part) in prepared {
                    router.metrics.requests[shard].inc();
                    if part.client.commit_prepared(part.txn).is_err() {
                        router.metrics.errors[shard].inc();
                        router.metrics.commit_push_failures.inc();
                    }
                }
                router.metrics.txns_2pc.inc();
                Ok(())
            }
        }
    }

    /// Roll back on every touched shard.
    pub fn rollback(mut self) -> DbResult<()> {
        let parts = std::mem::take(&mut self.parts);
        let mut first_err = None;
        for (shard, mut part) in parts {
            self.router.metrics.requests[shard].inc();
            if let Err(e) = part.client.rollback() {
                self.router.metrics.errors[shard].inc();
                first_err.get_or_insert(e);
            }
        }
        self.router.metrics.decisions_abort.inc();
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl Drop for ShardTx<'_> {
    fn drop(&mut self) {
        for (_, part) in std::mem::take(&mut self.parts) {
            let mut part = part;
            let _ = part.client.rollback();
        }
    }
}
