//! What every workload shares: the [`Workload`] contract, the live
//! database-plus-server instance it runs against, closed-loop phases
//! with one thread per connection, and the per-connection [`Recorder`]
//! of latencies, failures and (in traced runs) spans.

use orion_core::{Database, DbConfig, DbError, DbResult, Oid, StorageSpec, Value};
use orion_net::{Client, Request, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans kept per connection and phase; operations begun after that
/// are counted, not stored, so a fast workload cannot grow the trace
/// file without bound.
const SPAN_CAP: usize = 30_000;

/// Failure messages kept per connection (all failures are counted).
const ERROR_CAP: usize = 5;

/// Which end-to-end latency a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Get` or query, send to reply.
    Read,
    /// Autocommit write, or the `commit` round trip of a transaction.
    Write,
}

/// When a connection's loop stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many more operations (warm-up, counted passes).
    Ops(u64),
    /// At this instant (the measured phase).
    At(Instant),
}

impl Stop {
    /// May one more operation start? Counts it when bounded by count.
    pub fn more(&mut self) -> bool {
        match self {
            Stop::Ops(0) => false,
            Stop::Ops(n) => {
                *n -= 1;
                true
            }
            Stop::At(deadline) => Instant::now() < *deadline,
        }
    }
}

/// One client-side span: a whole operation (`parent` empty) or one
/// `Client` call made for it. Spans of one operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One connection's account of a phase.
#[derive(Debug)]
pub struct Recorder {
    pub conn: usize,
    t0: Instant,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completion time of every operation, ns from the phase start.
    pub op_ends: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub spans: Option<Vec<Span>>,
    /// Operations whose spans were not kept (see [`SPAN_CAP`]).
    pub ops_untraced: u64,
    /// Operations up to this id keep their spans: an operation is
    /// traced whole or not at all.
    traced_through: u64,
    next_op: u64,
}

impl Recorder {
    pub fn new(conn: usize, t0: Instant, traced: bool) -> Recorder {
        Recorder {
            conn,
            t0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            op_ends: Vec::new(),
            read_ns: Vec::new(),
            write_ns: Vec::new(),
            spans: traced.then(Vec::new),
            ops_untraced: 0,
            traced_through: 0,
            next_op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Begin one operation (counted as attempted); returns its id.
    pub fn start_op(&mut self) -> u64 {
        self.attempted += 1;
        self.next_op += 1;
        match &self.spans {
            Some(spans) if spans.len() < SPAN_CAP => self.traced_through = self.next_op,
            Some(_) => self.ops_untraced += 1,
            None => {}
        }
        self.next_op
    }

    /// Run one `Client` call for operation `op` under the op span
    /// `parent`, timing it (and recording a span in traced runs).
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Instant, Instant) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, parent, op, start, end);
        (out, start, end)
    }

    fn span(&mut self, name: &'static str, parent: &'static str, op: u64, s: Instant, e: Instant) {
        if op > self.traced_through {
            return;
        }
        let (start_ns, end_ns) = (self.ns(s), self.ns(e));
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                op,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record one end-to-end latency sample.
    pub fn latency(&mut self, kind: Kind, start: Instant, end: Instant) {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        match kind {
            Kind::Read => self.read_ns.push(ns),
            Kind::Write => self.write_ns.push(ns),
        }
    }

    /// Close operation `op`: its root span and its completion time.
    pub fn finish_op(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.span(name, "", op, start, end);
        let at = self.ns(end);
        self.op_ends.push(at);
    }

    /// A whole operation `name` made of one `Client` call: start it,
    /// time the call as `kind`, close it, and unwrap the reply (an error
    /// reply fails the operation).
    pub fn single_call_op<T>(
        &mut self,
        kind: Kind,
        name: &'static str,
        call: &'static str,
        f: impl FnOnce() -> DbResult<T>,
    ) -> Option<T> {
        let op = self.start_op();
        let (reply, start, end) = self.call(call, name, op, f);
        self.latency(kind, start, end);
        self.finish_op(name, op, start, end);
        self.expect_ok(name, reply)
    }

    /// Close an operation that is timed and checked but not counted
    /// towards throughput (`scan_query`'s writes between scans).
    pub fn finish_side_op(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.span(name, "", op, start, end);
    }

    /// Count one failed operation or failed output check.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < ERROR_CAP {
            self.errors.push(what());
        }
    }

    /// `result` must be `Ok(want)`; anything else fails the operation.
    pub fn expect_value(&mut self, what: &str, result: DbResult<Value>, want: &Value) {
        match result {
            Ok(got) if got == *want => {}
            other => self.fail(|| format!("{what}: want {want:?}, got {other:?}")),
        }
    }

    /// `result` must be `Ok`; returns the value when it is.
    pub fn expect_ok<T>(&mut self, what: &str, result: DbResult<T>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Objects and a query every workload offers the depth-1 stage tables,
/// the counted pass and the layer probes, so those run on the workload's
/// own data.
pub struct Targets {
    /// Objects with a `read_attr` and the scratch attribute.
    pub objects: Vec<Oid>,
    pub read_attr: &'static str,
    /// A reference attribute of `objects` (for `navigate`).
    pub ref_attr: &'static str,
    /// The attribute the workload's indexes cover where it has indexes
    /// (`index_mix`), and values for it outside every checked band.
    pub key_attr: &'static str,
    pub key_value: fn(u64) -> Value,
    /// The workload's representative query (Figure 1 on the fleet).
    pub query: String,
    /// Class whose subclass closure the schema probe resolves.
    pub root_class: &'static str,
    /// Key values for the B-tree probes.
    pub keys: Vec<Value>,
}

/// One of the four workloads. `Pop` is what loading produced (object
/// identities); `Conn` is one connection's generator state and its
/// model of what it has been acknowledged.
pub trait Workload: Sync {
    type Pop: Send + Sync;
    type Conn: Send;

    fn name(&self) -> &'static str;

    /// Real files and real `fsync`, or the in-memory backend.
    fn file_backed(&self) -> bool {
        false
    }

    /// Connections (= client threads) on a host with `cores` cores.
    fn connections(&self, cores: usize) -> usize {
        cores.min(2)
    }

    /// The tail percentile reported when the sample count allows it.
    fn preferred_tail(&self) -> f64 {
        0.99
    }

    /// Untimed operations per connection before anything is measured;
    /// a fixed count, so the state `restart_s` and `space_amp` are
    /// taken at is the same on every commit.
    fn warmup_ops(&self) -> u64;

    /// Schema, data and indexes, through the embedded API.
    fn load(&self, db: &Database) -> DbResult<Self::Pop>;

    fn conn(&self, pop: &Self::Pop, idx: usize, of: usize) -> Self::Conn;

    /// Run operations on one connection until `stop` says otherwise.
    fn drive(
        &self,
        pop: &Self::Pop,
        conn: &mut Self::Conn,
        client: &mut Client,
        stop: Stop,
        rec: &mut Recorder,
    );

    /// Check the final state (after a restart) against what every
    /// connection was acknowledged. Failures go to `rec`.
    fn verify(
        &self,
        pop: &Self::Pop,
        conns: &[Self::Conn],
        client: &mut Client,
        rec: &mut Recorder,
    );

    /// Index reads that raced an index write and saw a torn band count
    /// (`index_mix` only): reported per layer, not as failures.
    fn torn_reads(&self, _conns: &[Self::Conn]) -> u64 {
        0
    }

    fn targets(&self, pop: &Self::Pop) -> Targets;

    /// A sample of the request stream, safe to replay (reads, and
    /// writes to the scratch attribute only).
    fn sample_requests(&self, pop: &Self::Pop, n: usize) -> Vec<Request>;
}

/// A loaded database behind a bound server, with its connections.
pub struct Live<'w, W: Workload> {
    pub w: &'w W,
    dir: Option<PathBuf>,
    db: Option<Arc<Database>>,
    server: Option<Server>,
    pub clients: Vec<Client>,
    pub pop: W::Pop,
    pub conns: Vec<W::Conn>,
}

fn bind(db: &Arc<Database>, connections: usize) -> DbResult<(Server, Vec<Client>)> {
    let server = Server::bind(Arc::clone(db), "127.0.0.1:0", ServerConfig::default())?;
    let clients = (0..connections)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<DbResult<Vec<Client>>>()?;
    Ok((server, clients))
}

impl<'w, W: Workload> Live<'w, W> {
    /// Everything `setup_s` times: schema, load, index build, bind,
    /// connect and the warm-up. `dir` is where a file-backed workload
    /// keeps its database (created fresh, removed on drop).
    pub fn setup(w: &'w W, dir: &Path, cores: usize) -> DbResult<(Live<'w, W>, Vec<Recorder>)> {
        let dir = w.file_backed().then(|| dir.to_path_buf());
        let storage = match &dir {
            Some(d) => {
                let _ = std::fs::remove_dir_all(d);
                StorageSpec::File(d.clone())
            }
            None => StorageSpec::Memory,
        };
        // Every knob but the backend stays at its default, so a changed
        // default shows up in the numbers.
        let db = Arc::new(Database::try_with_config(
            DbConfig::builder().storage(storage).build()?,
        )?);
        let pop = w.load(&db)?;
        // As a deployment would after a bulk load: restarts then replay
        // the log written since, not the load. (It also keeps restarts
        // clear of a recovery defect: with indexes built after a load
        // and objects created since, the second of two recoveries in a
        // row fails with "redo insert_at: page full".)
        db.checkpoint()?;
        let n = w.connections(cores);
        let (server, clients) = bind(&db, n)?;
        let conns = (0..n).map(|i| w.conn(&pop, i, n)).collect();
        let mut live = Live {
            w,
            dir,
            db: Some(db),
            server: Some(server),
            clients,
            pop,
            conns,
        };
        let warm = live.phase(|| Stop::Ops(w.warmup_ops()), false);
        Ok((live, warm))
    }

    pub fn db(&self) -> &Arc<Database> {
        self.db.as_ref().expect("database is open between restarts")
    }

    /// One closed-loop phase: every connection runs on its own thread
    /// until its `Stop` fires. Returns one recorder per connection.
    pub fn phase(&mut self, stop: impl Fn() -> Stop, traced: bool) -> Vec<Recorder> {
        let (w, pop) = (self.w, &self.pop);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.clients.iter_mut())
                .enumerate()
                .map(|(i, (conn, client))| {
                    let stop = stop();
                    s.spawn(move || {
                        let mut rec = Recorder::new(i, t0, traced);
                        w.drive(pop, conn, client, stop, &mut rec);
                        rec
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        })
    }

    /// The measured phase: `seconds` of closed-loop load.
    pub fn timed_phase(&mut self, seconds: f64, traced: bool) -> Vec<Recorder> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        self.phase(|| Stop::At(deadline), traced)
    }

    /// Stop the server, lose volatile state, recover, serve again.
    /// Returns the recovery time alone: `Database::open` replaying the
    /// files of a file-backed workload, `crash_and_recover()` (which
    /// discards the unflushed log tail) otherwise.
    pub fn restart(&mut self) -> DbResult<Duration> {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let elapsed = match &self.dir {
            Some(dir) => {
                let db = self.db.take().expect("database is open");
                drop(Arc::try_unwrap(db).map_err(|_| {
                    DbError::Storage("database still shared after server shutdown".into())
                })?);
                let start = Instant::now();
                let db = Database::open(dir)?;
                let elapsed = start.elapsed();
                self.db = Some(Arc::new(db));
                elapsed
            }
            None => {
                let start = Instant::now();
                self.db().crash_and_recover()?;
                start.elapsed()
            }
        };
        let (server, clients) = bind(self.db(), self.conns.len())?;
        self.server = Some(server);
        self.clients = clients;
        Ok(elapsed)
    }

    /// Restart (untimed here), then let the workload check the final
    /// state over a fresh connection.
    pub fn verify(&mut self) -> DbResult<Recorder> {
        self.restart()?;
        let mut rec = Recorder::new(0, Instant::now(), false);
        self.w
            .verify(&self.pop, &self.conns, &mut self.clients[0], &mut rec);
        Ok(rec)
    }

    /// Bytes the database occupies over bytes of live encoded records:
    /// `pages.dat` + `wal.log` on a file backend, allocated pages plus
    /// the log on the memory backend.
    pub fn space_amp(&self) -> DbResult<f64> {
        let db = self.db();
        let mut live_bytes = 0u64;
        db.engine()
            .scan_all(|_, bytes| live_bytes += bytes.len() as u64)?;
        let (pages, wal) = self.storage_bytes();
        Ok((pages + wal) as f64 / live_bytes.max(1) as f64)
    }

    /// `(page bytes, log bytes)` as stored.
    pub fn storage_bytes(&self) -> (u64, u64) {
        let size = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        match &self.dir {
            Some(dir) => (size(dir.join("pages.dat")), size(dir.join("wal.log"))),
            None => {
                let engine = self.db().engine();
                (
                    u64::from(engine.disk().page_count()) * orion_storage::PAGE_SIZE as u64,
                    engine.wal().total_len(),
                )
            }
        }
    }
}

impl<W: Workload> Drop for Live<'_, W> {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.db = None;
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
