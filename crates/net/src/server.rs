//! The evented multi-client server: readiness-based I/O, request
//! pipelining, and admission control.
//!
//! Connections do not own threads. A small set of event-loop threads
//! (`io_threads`) multiplexes every connection over nonblocking
//! sockets and a [`crate::poller::Poller`]; a fixed executor pool
//! (`workers`) runs the actual database requests. The two meet in the
//! connection's **lane**: the loop reads, decodes and admits requests
//! onto the lane's FIFO and hands the lane to the executors when it
//! goes from empty to non-empty; the executor that takes it runs the
//! requests in order to completion and writes their replies to the
//! socket itself. A burst of pipelined requests therefore costs one
//! thread hand-off, a reply costs none, and hundreds of idle sessions
//! cost the loop no lock and no syscall.
//!
//! **Pipelining.** A client may send any number of request frames
//! before reading replies. The server decodes them all, admits up to
//! `max_pipeline` per connection, and answers strictly in FIFO order:
//! one executor at a time holds a lane's turn (preserving the
//! session's sequential transaction semantics), and synthesized
//! replies (decode errors, shed requests) occupy their arrival
//! position in the reply stream. A turn is capped at `max_pipeline`
//! entries, after which the lane goes to the back of the executor
//! queue, so a connection that keeps its pipeline full cannot starve
//! the others.
//!
//! **Admission control.** Load sheds *before* latency collapses, and
//! it sheds the newest work first: a request that would push the
//! global admitted-but-unanswered count past `exec_queue_depth`, or
//! its connection's pipeline past `max_pipeline`, is answered
//! [`DbError::ServerBusy`] in place — never queued unboundedly, and
//! never at the expense of a request already admitted. Whole
//! connections shed at the door the same way when `max_connections`
//! or a loop's `accept_queue` is exceeded.
//!
//! **Backpressure.** An executor never waits on a peer: what the
//! nonblocking socket will not take becomes the lane's backlog, which
//! the event loop drains on writability. A backlog past
//! `WRITE_HIGHWATER` parks the lane (no further request runs) and
//! stops the loop reading that connection until the peer drains it or
//! `write_timeout` disconnects it.
//!
//! Behavior contracts carried over from the threaded server: one
//! explicit transaction per session, rolled back when the session
//! dies; graceful shutdown drains every admitted request and flushes
//! its reply; idle sessions are evicted on `idle_timeout` and
//! mid-frame stalls on `read_timeout`; a panicking handler costs one
//! connection (its transaction rolls back, the client sees an
//! `Internal` error), never a worker or the pool.

use crate::frame::{self, FrameDecoder};
use crate::poller::{Interest, Poller, Waker};
use crate::wire::{Request, Response};
use orion_core::{Database, DbError, DbResult, NetMetrics, Tx};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token the event loop registers its waker under; connection tokens
/// start above it.
const WAKE_TOKEN: u64 = 0;

/// Per-connection reply backlog at which the lane parks and the loop
/// stops reading that connection (backpressure: a peer that will not
/// drain its replies may neither run nor submit further work).
const WRITE_HIGHWATER: usize = 256 * 1024;

/// Bytes one connection may read per readiness event before yielding
/// to its neighbors (the level-triggered poller re-reports it
/// immediately if more input is pending).
const READ_QUANTUM: usize = 64 * 1024;

/// Encoded replies an executor accumulates before writing mid-turn (a
/// lane that runs dry is written at once, whatever the size).
const REPLY_FLUSH: usize = 64 * 1024;

/// A turn that has not written for this long writes after its next
/// request, whatever is buffered: a finished reply waits at most this
/// plus one request's run time, so a burst of slow requests is answered
/// one by one and only requests far quicker than a `write` share one.
const REPLY_LINGER: Duration = Duration::from_micros(250);

/// Tuning knobs for [`Server`]. The defaults suit tests and small
/// deployments; production sizes `workers` to the database's useful
/// concurrency and `exec_queue_depth` to the queueing delay it is
/// willing to trade against shedding.
#[derive(Clone)]
pub struct ServerConfig {
    /// Executor threads: how many connections' requests run
    /// concurrently. This does not cap concurrent *sessions* —
    /// connections are multiplexed on the event loops and only occupy
    /// a worker while requests of theirs are executing.
    pub workers: usize,
    /// Event-loop threads multiplexing the connections. `0` sizes
    /// automatically (min(available cores, 4)).
    pub io_threads: usize,
    /// Maximum concurrently open sessions; connections beyond it are
    /// answered [`DbError::ServerBusy`] at the door and closed.
    pub max_connections: usize,
    /// Accepted connections waiting to be picked up by an event loop
    /// before the acceptor sheds with [`DbError::ServerBusy`].
    pub accept_queue: usize,
    /// Per-connection pipeline depth: decoded requests a connection may
    /// have admitted-but-unanswered before further ones are shed with
    /// [`DbError::ServerBusy`] (tail-drop: the newest request sheds,
    /// admitted ones always finish). Also the most entries one
    /// executor turn runs before the lane yields to other connections.
    pub max_pipeline: usize,
    /// Global cap on admitted requests awaiting or undergoing
    /// execution, across all connections (the executor queue bound).
    /// Requests beyond it shed with [`DbError::ServerBusy`].
    pub exec_queue_depth: usize,
    /// Mid-frame stall tolerance: a peer that starts a frame and then
    /// goes silent this long is disconnected.
    pub read_timeout: Duration,
    /// A connection whose reply backlog makes no progress for this
    /// long is disconnected.
    pub write_timeout: Duration,
    /// A session idle this long — nothing admitted, nothing running,
    /// every reply drained — is evicted (its open transaction, if any,
    /// is rolled back). The clock starts when the last reply is
    /// written, not when its request was read.
    pub idle_timeout: Duration,
    /// Maximum frame payload accepted from a client.
    pub max_frame: usize,
    /// Observation hook invoked with every decoded request before
    /// dispatch. A fault-injection seam for tests (a panicking hook
    /// exercises the executor's panic isolation); `None` in production.
    pub request_hook: Option<RequestHook>,
}

/// Shape of [`ServerConfig::request_hook`].
pub type RequestHook = Arc<dyn Fn(&Request) + Send + Sync>;

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("io_threads", &self.io_threads)
            .field("max_connections", &self.max_connections)
            .field("accept_queue", &self.accept_queue)
            .field("max_pipeline", &self.max_pipeline)
            .field("exec_queue_depth", &self.exec_queue_depth)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("idle_timeout", &self.idle_timeout)
            .field("max_frame", &self.max_frame)
            .field("request_hook", &self.request_hook.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            io_threads: 0,
            max_connections: 1024,
            accept_queue: 64,
            max_pipeline: 64,
            exec_queue_depth: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame: frame::MAX_FRAME,
            request_hook: None,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> DbResult<()> {
        if self.workers == 0 {
            return Err(DbError::Config("server workers must be >= 1".into()));
        }
        if self.max_connections == 0 {
            return Err(DbError::Config("server max_connections must be >= 1".into()));
        }
        if self.accept_queue == 0 {
            return Err(DbError::Config("server accept_queue must be >= 1".into()));
        }
        if self.max_pipeline == 0 {
            return Err(DbError::Config("server max_pipeline must be >= 1".into()));
        }
        if self.exec_queue_depth == 0 {
            return Err(DbError::Config("server exec_queue_depth must be >= 1".into()));
        }
        if self.read_timeout.is_zero()
            || self.write_timeout.is_zero()
            || self.idle_timeout.is_zero()
        {
            return Err(DbError::Config("server timeouts must be nonzero".into()));
        }
        if self.max_frame == 0 {
            return Err(DbError::Config("server max_frame must be nonzero".into()));
        }
        Ok(())
    }

    fn resolved_io_threads(&self) -> usize {
        if self.io_threads > 0 {
            return self.io_threads;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
    }
}

/// FIFO entries on a lane. `Execute` holds an admitted request
/// awaiting its turn; `Reply` is a response synthesized at decode time
/// (decode error, shed request) that must still be delivered in
/// arrival order.
enum Work {
    Execute(Request),
    Reply(Response),
}

/// A connection's admitted FIFO and reply backlog: the one structure
/// its event loop and the executors share. The loop pushes and
/// schedules; the executor holding the turn pops, runs and writes.
/// Whoever may write the socket is decided here, under the lock: the
/// turn holder while `backlog() == 0`, the loop (from `out`) otherwise
/// — never both, so replies reach the wire in order.
struct Lane {
    queue: VecDeque<Work>,
    /// `Work::Execute` entries currently in `queue`. The pipeline-depth
    /// admission check counts these (plus the executing request), not
    /// `queue.len()`: synthesized `Work::Reply` entries are already
    /// answered and must not inflate the depth into spurious shedding.
    pending_exec: usize,
    /// The turn holder is running a request popped from `queue`, or has
    /// run it and not yet begun writing its reply: to the client it is
    /// unanswered either way.
    executing: bool,
    /// An executor holds this lane's turn, or the lane sits in
    /// `exec_queue` waiting for one. Set by the loop, cleared by the
    /// turn holder when the lane runs dry or parks on backpressure.
    scheduled: bool,
    /// Encoded replies the socket would not take; `out_pos` marks the
    /// drained prefix. Appended by the turn holder, drained by the loop.
    out: Vec<u8>,
    out_pos: usize,
    /// When the lane last went idle (turn released, or backlog
    /// drained): the start of the `idle_timeout` clock.
    idle_since: Instant,
}

impl Lane {
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn idle(&self) -> bool {
        !self.scheduled && self.queue.is_empty() && self.backlog() == 0
    }

    /// Admission control: decode the frame, then either queue it for
    /// execution or shed it with `ServerBusy` — in FIFO position
    /// either way.
    fn admit(&mut self, payload: &[u8], shared: &Shared) {
        shared.metrics.requests.inc();
        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                shared.metrics.errors.inc();
                self.queue.push_back(Work::Reply(Response::Err(e)));
                return;
            }
        };
        let depth = self.pending_exec + usize::from(self.executing) + 1;
        shared.metrics.pipeline_depth.observe_micros(depth as u64);
        if depth > shared.config.max_pipeline
            || shared.inflight.load(Ordering::Acquire) >= shared.config.exec_queue_depth
        {
            shared.metrics.requests_shed.inc();
            shared.metrics.errors.inc();
            self.queue.push_back(Work::Reply(Response::Err(DbError::ServerBusy)));
            return;
        }
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        self.pending_exec += 1;
        self.queue.push_back(Work::Execute(request));
    }
}

/// Everything of a connection that outlives one side's view of it: the
/// socket (read by the loop, written per the [`Lane`] rule), the lane,
/// and the session. The lane lock and the session lock are never held
/// together.
struct ConnShared {
    stream: TcpStream,
    /// The event loop this connection is registered on (whom to wake).
    loop_idx: usize,
    lane: Mutex<Lane>,
    /// Locked for the duration of a dispatch, so session semantics
    /// stay sequential.
    session: Mutex<SessionState>,
    /// No more reads (peer EOF, protocol error, handler panic, or
    /// server shutdown): the lane drains, the backlog flushes, then the
    /// loop closes the connection. Raised by either side; a turn that
    /// ends with it raised wakes the loop, which gets no wake-up for an
    /// ordinary reply.
    closing: AtomicBool,
    /// Nothing more runs and nothing more is delivered. Raised by
    /// teardown, under the lane lock, as it empties the FIFO — or ahead
    /// of it by a turn holder whose write failed, which sends the loop
    /// to tear down. A turn holder that finds it stops, and — because
    /// it must come back to the lane to release the turn — is the one
    /// that settles the session; with no turn outstanding teardown
    /// settles it inline. Exactly one of the two rolls the transaction
    /// back, and always after the last request that ran.
    defunct: AtomicBool,
}

/// Per-session protocol state: who the client is and whether an
/// explicit transaction is open.
struct SessionState {
    handshaken: bool,
    principal: Option<String>,
    tx: Option<Tx>,
}

/// One event loop's mailbox: the acceptor hands connections over here
/// and wakes the loop. Executors only wake it — for a backlog handed
/// back, or a closing lane gone idle.
struct LoopHandle {
    /// Freshly accepted connections awaiting registration.
    inbox: Mutex<Vec<TcpStream>>,
    wake: crate::poller::WakeHandle,
    /// Connections currently registered on this loop (least-loaded
    /// assignment).
    conns: AtomicUsize,
}

/// State shared by the acceptor, the event loops, and the executors.
struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    metrics: Arc<NetMetrics>,
    io_threads: usize,
    loops: Vec<LoopHandle>,
    /// Lanes with work and no turn holder, in the order they asked.
    exec_queue: Mutex<VecDeque<Arc<ConnShared>>>,
    exec_cv: Condvar,
    /// Admitted requests not yet finished executing. The executor
    /// frees the slot when it completes a request, so a dying event
    /// loop can never strand it; slots for requests admitted but never
    /// run free at teardown.
    inflight: AtomicUsize,
    /// Stops accepting and reading; admitted work still drains.
    shutdown: AtomicBool,
    /// Executors exit once the queue is empty.
    exec_shutdown: AtomicBool,
    active: AtomicUsize,
    sessions: AtomicU64,
}

impl Shared {
    fn connection_opened(&self) {
        let now = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        self.metrics.connections.set(now as u64);
        self.metrics.connections_total.inc();
        self.metrics.connections_per_worker.set(now.div_ceil(self.io_threads) as u64);
    }

    fn connection_closed(&self) {
        let now = self.active.fetch_sub(1, Ordering::AcqRel) - 1;
        self.metrics.connections.set(now as u64);
        self.metrics.connections_per_worker.set(now.div_ceil(self.io_threads) as u64);
    }

    /// Give the lane a turn if it has work, nobody holds its turn, and
    /// its backlog leaves room. Called under the lane lock by the loop,
    /// after admitting and after draining.
    fn schedule(&self, conn: &Arc<ConnShared>, lane: &mut Lane) {
        if !lane.scheduled && !lane.queue.is_empty() && lane.backlog() < WRITE_HIGHWATER {
            lane.scheduled = true;
            self.enqueue(Arc::clone(conn));
        }
    }

    fn enqueue(&self, conn: Arc<ConnShared>) {
        self.exec_queue.lock().push_back(conn);
        self.exec_cv.notify_one();
    }
}
/// A running database server. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (drains in-flight requests) — dropping without
/// shutting down does the same.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    io_handles: Vec<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start the
    /// acceptor, the event loops, and the executor pool.
    pub fn bind(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> DbResult<Server> {
        config.validate()?;
        let listener = TcpListener::bind(addr).map_err(|e| frame::io_err("bind", &e))?;
        let addr = listener.local_addr().map_err(|e| frame::io_err("local_addr", &e))?;
        let metrics = db.net_metrics();
        let io_threads = config.resolved_io_threads();

        let mut loop_io = Vec::with_capacity(io_threads);
        let mut loops = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let waker = Waker::new().map_err(|e| frame::io_err("waker", &e))?;
            loops.push(LoopHandle {
                inbox: Mutex::new(Vec::new()),
                wake: waker.handle().map_err(|e| frame::io_err("waker", &e))?,
                conns: AtomicUsize::new(0),
            });
            loop_io.push((waker, Poller::new().map_err(|e| frame::io_err("poller", &e))?));
        }
        let shared = Arc::new(Shared {
            db,
            config,
            metrics,
            io_threads,
            loops,
            exec_queue: Mutex::new(VecDeque::new()),
            exec_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            exec_shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            sessions: AtomicU64::new(0),
        });

        let executors = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orion-net-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .map_err(|e| DbError::Net(format!("spawn executor: {e}")))
            })
            .collect::<DbResult<Vec<_>>>()?;
        let io_handles = loop_io
            .into_iter()
            .enumerate()
            .map(|(i, (waker, poller))| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orion-net-io-{i}"))
                    .spawn(move || io_loop(&shared, i, &waker, poller))
                    .map_err(|e| DbError::Net(format!("spawn io loop: {e}")))
            })
            .collect::<DbResult<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("orion-net-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))
                .map_err(|e| DbError::Net(format!("spawn acceptor: {e}")))?
        };
        Ok(Server { shared, addr, acceptor: Some(acceptor), io_handles, executors })
    }

    /// The bound address (resolves ephemeral ports for clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently being served (diagnostic).
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Stop gracefully: no new connections, no new reads; every
    /// admitted request finishes and its response is written, then all
    /// threads join.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor (it sits in a blocking accept()): a
        // throwaway self-connection makes accept() return, after which
        // it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for lh in &self.shared.loops {
            lh.wake.wake();
        }
        for h in self.io_handles.drain(..) {
            let _ = h.join();
        }
        // Loops are done: any lane still owed a turn is in the queue or
        // on an executor (dead sessions settle there, via the defunct
        // flag). Executors drain the queue, then exit.
        self.shared.exec_shutdown.store(true, Ordering::Release);
        self.shared.exec_cv.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    let mut rr = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.active.load(Ordering::Acquire) >= shared.config.max_connections {
            shared.metrics.busy_rejections.inc();
            reject_busy(stream);
            continue;
        }
        // Least-loaded event loop, round-robin tiebreak.
        let n = shared.loops.len();
        let mut best = rr % n;
        for k in 1..n {
            let i = (rr + k) % n;
            if shared.loops[i].conns.load(Ordering::Relaxed)
                < shared.loops[best].conns.load(Ordering::Relaxed)
            {
                best = i;
            }
        }
        rr = rr.wrapping_add(1);
        let lh = &shared.loops[best];
        {
            let mut inbox = lh.inbox.lock();
            if inbox.len() >= shared.config.accept_queue {
                drop(inbox);
                shared.metrics.busy_rejections.inc();
                reject_busy(stream);
                continue;
            }
            // The connection enters the session lifecycle here; the
            // loop (or the shutdown drain) balances with
            // connection_closed.
            shared.connection_opened();
            inbox.push(stream);
        }
        lh.wake.wake();
    }
}

/// Tell an over-capacity client why it is being turned away. Best
/// effort on a nonblocking socket: this runs on the acceptor thread,
/// which must never stall behind a slow or hostile peer — a fresh
/// connection's empty send buffer takes this tiny frame in one write
/// virtually always, and a peer it cannot reach just sees the close.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let mut buf = Vec::new();
    frame::append_frame(&mut buf, &Response::Err(DbError::ServerBusy).encode());
    let _ = stream.write(&buf);
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

/// The event loop's own view of a connection. Nothing here is shared:
/// what the loop knows of the lane (`busy`, `backlog`, `idle_since`)
/// is a copy it refreshes under the lane lock, and only while `busy` —
/// an idle connection is surveyed without a lock or a syscall.
struct Conn {
    shared: Arc<ConnShared>,
    decoder: FrameDecoder,
    /// The lane may hold work, a turn holder or a backlog: set when
    /// the loop admits, cleared when it observes the lane idle.
    busy: bool,
    /// The lane's backlog as of the last [`Conn::observe`].
    backlog: usize,
    /// Transport failure: close immediately, nothing can be delivered.
    dead: bool,
    /// Last read progress (the mid-frame stall clock).
    last_read: Instant,
    /// When the lane was last seen going idle (the idle clock).
    idle_since: Instant,
    /// When the reply backlog first failed to make progress.
    write_blocked_since: Option<Instant>,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, loop_idx: usize, max_frame: usize) -> Conn {
        let now = Instant::now();
        Conn {
            shared: Arc::new(ConnShared {
                stream,
                loop_idx,
                lane: Mutex::new(Lane {
                    queue: VecDeque::new(),
                    pending_exec: 0,
                    executing: false,
                    scheduled: false,
                    out: Vec::new(),
                    out_pos: 0,
                    idle_since: now,
                }),
                session: Mutex::new(SessionState {
                    handshaken: false,
                    principal: None,
                    tx: None,
                }),
                closing: AtomicBool::new(false),
                defunct: AtomicBool::new(false),
            }),
            decoder: FrameDecoder::new(max_frame),
            busy: false,
            backlog: 0,
            dead: false,
            last_read: now,
            idle_since: now,
            write_blocked_since: None,
            interest: Interest { readable: true, writable: false },
        }
    }

    fn closing(&self) -> bool {
        self.shared.closing.load(Ordering::Acquire)
    }

    /// Refresh the loop's copy of a busy lane's state. Runs once per
    /// loop pass, before the loop blocks: a `closing` raised by the
    /// loop earlier in the pass is therefore either seen by the turn
    /// holder when it releases the turn (it wakes the loop) or the
    /// lane is already idle here.
    fn observe(&mut self, now: Instant) {
        if !self.busy {
            return;
        }
        let lane = self.shared.lane.lock();
        self.backlog = lane.backlog();
        if lane.idle() {
            self.busy = false;
            self.idle_since = lane.idle_since;
        }
        drop(lane);
        if self.backlog == 0 {
            self.write_blocked_since = None;
        } else {
            self.write_blocked_since.get_or_insert(now);
        }
    }

    /// Nothing left to do: safe to tear down.
    fn finished(&self) -> bool {
        self.dead || (self.closing() && !self.busy) || self.shared.defunct.load(Ordering::Acquire)
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing() && !self.dead && self.backlog < WRITE_HIGHWATER,
            writable: self.backlog > 0,
        }
    }

    /// The soonest moment one of this connection's clocks fires, if
    /// any: write stall, mid-frame read stall, or idleness. A busy
    /// lane goes idle without waking the loop, so its idle clock is
    /// armed at the earliest it could fire and re-read from the lane's
    /// own stamp then.
    fn deadline(&self, config: &ServerConfig, now: Instant) -> Option<Instant> {
        let stall = self.write_blocked_since.map(|blocked| blocked + config.write_timeout);
        let quiet = if self.decoder.mid_frame() {
            Some(self.last_read + config.read_timeout)
        } else if self.busy {
            Some(now + config.idle_timeout)
        } else if !self.closing() {
            Some(self.idle_since + config.idle_timeout)
        } else {
            None
        };
        [stall, quiet].into_iter().flatten().min()
    }

    /// Drain the socket into the decoder, then admit or shed every
    /// complete frame and give the lane a turn.
    fn handle_readable(&mut self, shared: &Shared, now: Instant) {
        if self.dead || self.closing() {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0usize;
        loop {
            match (&self.shared.stream).read(&mut chunk) {
                Ok(0) => {
                    // Peer EOF (possibly a half-close): answer what was
                    // already pipelined, then close.
                    self.shared.closing.store(true, Ordering::Release);
                    break;
                }
                Ok(n) => {
                    self.last_read = now;
                    self.decoder.feed(&chunk[..n]);
                    taken += n;
                    if taken >= READ_QUANTUM {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        let mut lane = self.shared.lane.lock();
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => lane.admit(&payload, shared),
                Ok(None) => break,
                Err(e) => {
                    // Unrecoverable framing (oversized length prefix):
                    // the decoder cannot resynchronize. Answer, then
                    // close.
                    shared.metrics.errors.inc();
                    lane.queue.push_back(Work::Reply(Response::Err(e)));
                    self.shared.closing.store(true, Ordering::Release);
                    break;
                }
            }
        }
        self.busy |= !lane.queue.is_empty();
        shared.schedule(&self.shared, &mut lane);
    }

    /// The loop's write side: drain the backlog as far as the socket
    /// allows, under the lane lock so the turn holder appends behind
    /// it, and un-park the lane once there is room again.
    fn flush(&mut self, shared: &Shared, now: Instant) {
        let mut lane = self.shared.lane.lock();
        match write_some(&self.shared.stream, &lane.out[lane.out_pos..]) {
            Ok(n) => {
                if n > 0 {
                    self.write_blocked_since = None;
                }
                lane.out_pos += n;
                if lane.backlog() == 0 {
                    lane.out.clear();
                    lane.out_pos = 0;
                    lane.idle_since = now;
                }
                shared.schedule(&self.shared, &mut lane);
            }
            Err(_) => self.dead = true,
        }
    }
}

/// Write as much of `bytes` as the nonblocking socket takes right now.
/// `Err` means the transport is gone.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    let mut pos = 0;
    while pos < bytes.len() {
        match stream.write(&bytes[pos..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(pos)
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

fn io_loop(shared: &Arc<Shared>, idx: usize, waker: &Waker, mut poller: Poller) {
    poller.register(WAKE_TOKEN, waker.fd(), Interest { readable: true, writable: false });
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = WAKE_TOKEN + 1;
    let mut events = Vec::new();
    // Wakeups-per-second gauge: each loop periodically publishes the
    // fleet-wide rate measured over its own window (approximate — the
    // windows overlap — but the counter underneath is exact).
    let mut rate_window = Instant::now();
    let mut rate_base = shared.metrics.readiness_wakeups.get();
    loop {
        let shutting_down = shared.shutdown.load(Ordering::Acquire);
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        let mut to_close: Vec<(u64, bool)> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if shutting_down {
                conn.shared.closing.store(true, Ordering::Release);
            }
            conn.observe(now);
            if conn.finished() {
                to_close.push((token, false));
                continue;
            }
            match conn.deadline(&shared.config, now) {
                Some(d) if d <= now => {
                    to_close.push((token, true));
                    continue;
                }
                Some(d) => match next_deadline {
                    Some(nd) if nd <= d => {}
                    _ => next_deadline = Some(d),
                },
                None => {}
            }
            let want = conn.desired_interest();
            if want != conn.interest {
                conn.interest = want;
                poller.set_interest(token, want);
            }
        }
        for (token, timed_out) in to_close {
            teardown(&mut conns, &mut poller, shared, idx, token, timed_out);
        }
        if shutting_down && conns.is_empty() {
            break;
        }

        let timeout = next_deadline.map(|d| d.saturating_duration_since(now));
        if poller.wait(timeout, &mut events).is_err() {
            // epoll_wait failing outright (EBADF/EINVAL) leaves no way to
            // serve these sockets; drop the loop's connections and exit.
            break;
        }
        shared.metrics.readiness_wakeups.inc();
        let elapsed = rate_window.elapsed();
        if elapsed >= Duration::from_secs(1) {
            let total = shared.metrics.readiness_wakeups.get();
            let rate = (total.saturating_sub(rate_base)) as f64 / elapsed.as_secs_f64();
            shared.metrics.readiness_wakeups_per_sec.set(rate as u64);
            rate_window = Instant::now();
            rate_base = total;
        }

        let now = Instant::now();
        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                waker.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else { continue };
            if ev.readable {
                conn.handle_readable(shared, now);
            } else if ev.hangup {
                // Error/hangup with nothing readable: the transport is
                // gone.
                conn.dead = true;
                continue;
            }
            if ev.writable {
                conn.flush(shared, now);
            }
        }

        // New connections handed over by the acceptor.
        let newcomers: Vec<TcpStream> = {
            let mut inbox = shared.loops[idx].inbox.lock();
            inbox.drain(..).collect()
        };
        for stream in newcomers {
            if shutting_down {
                shared.connection_closed();
                continue; // dropped: no new sessions during shutdown
            }
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let token = next_token;
            next_token += 1;
            let conn = Conn::new(stream, idx, shared.config.max_frame);
            poller.register(token, fd, conn.interest);
            conns.insert(token, conn);
            shared.loops[idx].conns.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Shutdown (or poller failure): every remaining connection closes;
    // open transactions roll back, here or on the executor still
    // holding the lane's turn.
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        teardown(&mut conns, &mut poller, shared, idx, token, false);
    }
    // Late-arriving inbox entries (accepted before the acceptor saw
    // the flag) are dropped unserved.
    let stragglers: Vec<TcpStream> = shared.loops[idx].inbox.lock().drain(..).collect();
    for _ in stragglers {
        shared.connection_closed();
    }
}

/// Close one connection: empty its FIFO (freeing the admission slots
/// of requests that never ran), settle the session transaction, and
/// deregister the socket.
///
/// The rollback must order *after* any request of this connection
/// still with the executors — a lane that is `scheduled` may be
/// waiting in the executor queue (holding no lock a probe could see)
/// or mid-dispatch. Raising `defunct` under the lane lock hands the
/// rollback to that turn's holder, who cannot release the turn without
/// coming back to this lock; with no turn outstanding the session lock
/// is uncontended and the rollback runs inline.
fn teardown(
    conns: &mut HashMap<u64, Conn>,
    poller: &mut Poller,
    shared: &Shared,
    idx: usize,
    token: u64,
    timed_out: bool,
) {
    let Some(conn) = conns.remove(&token) else { return };
    poller.deregister(token);
    if timed_out {
        shared.metrics.timeouts.inc();
    }
    let scheduled = {
        let mut lane = conn.shared.lane.lock();
        conn.shared.defunct.store(true, Ordering::Release);
        for item in lane.queue.drain(..) {
            if matches!(item, Work::Execute(_)) {
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
            }
        }
        lane.scheduled
    };
    if !scheduled {
        settle(shared, &conn.shared);
    }
    let _ = conn.shared.stream.shutdown(std::net::Shutdown::Both);
    shared.loops[idx].conns.fetch_sub(1, Ordering::Relaxed);
    shared.connection_closed();
}

/// Roll back whatever transaction a dead session left open.
fn settle(shared: &Shared, conn: &ConnShared) {
    if let Some(tx) = conn.session.lock().tx.take() {
        let _ = shared.db.rollback(tx);
    }
}

// ---------------------------------------------------------------------
// Executor pool
// ---------------------------------------------------------------------

fn executor_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.exec_queue.lock();
            loop {
                if let Some(conn) = queue.pop_front() {
                    break conn;
                }
                if shared.exec_shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.exec_cv.wait(&mut queue);
            }
        };
        shared.metrics.executor_turns.inc();
        run_turn(shared, &conn);
    }
}

/// One turn on a lane: run its FIFO in order — to completion, to the
/// turn cap, or until the backlog parks it — writing the replies when
/// it runs dry, then release the turn (or requeue the lane behind the
/// others if the cap cut it short).
fn run_turn(shared: &Shared, conn: &Arc<ConnShared>) {
    let mut replies = Vec::new();
    let mut flushed = Instant::now();
    let mut taken = 0usize;
    loop {
        let mut lane = conn.lane.lock();
        lane.executing = false;
        let defunct = conn.defunct.load(Ordering::Acquire);
        let parked = lane.backlog() >= WRITE_HIGHWATER;
        let work = if defunct || parked || taken >= shared.config.max_pipeline {
            None
        } else {
            lane.queue.pop_front()
        };
        let response = match work {
            Some(Work::Reply(response)) => {
                drop(lane);
                response
            }
            Some(Work::Execute(request)) => {
                lane.pending_exec -= 1;
                lane.executing = true;
                drop(lane);
                let response = execute(shared, conn, request);
                // The admission slot frees when execution finishes,
                // whatever becomes of the reply.
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                response
            }
            None if defunct => {
                lane.scheduled = false;
                drop(lane);
                settle(shared, conn);
                return;
            }
            None if !replies.is_empty() => {
                drop(lane);
                write_replies(shared, conn, &mut replies);
                flushed = Instant::now();
                continue; // more may have been admitted meanwhile
            }
            None if !lane.queue.is_empty() && !parked => {
                drop(lane);
                shared.enqueue(Arc::clone(conn)); // turn cap: back of the line
                return;
            }
            None => {
                lane.scheduled = false;
                lane.idle_since = Instant::now();
                drop(lane);
                if conn.closing.load(Ordering::Acquire) {
                    shared.loops[conn.loop_idx].wake.wake();
                }
                return;
            }
        };
        taken += 1;
        frame::append_frame(&mut replies, &response.encode());
        if replies.len() >= REPLY_FLUSH || flushed.elapsed() >= REPLY_LINGER {
            write_replies(shared, conn, &mut replies);
            flushed = Instant::now();
        }
    }
}

/// The turn holder's write side: straight to the socket while the loop
/// holds no backlog; whatever the socket will not take joins the
/// backlog and the loop is woken to drain it. Nobody else appends, so
/// an empty backlog stays empty until this returns.
fn write_replies(shared: &Shared, conn: &ConnShared, replies: &mut Vec<u8>) {
    let mut sent = 0;
    let direct = {
        let mut lane = conn.lane.lock();
        // Stop counting the request these replies end with before any
        // of them is on the wire, or the request its reply prompts the
        // client to send could be shed as one over `max_pipeline`.
        lane.executing = false;
        lane.backlog() == 0
    };
    if direct {
        sent = write_some(&conn.stream, replies).unwrap_or_else(|_| {
            // Undeliverable, now and later: the peer is gone. Nothing
            // queued behind this runs (not a pipelined Commit either);
            // this turn settles the session, the loop tears down.
            conn.defunct.store(true, Ordering::Release);
            shared.loops[conn.loop_idx].wake.wake();
            replies.len()
        });
    }
    if sent < replies.len() {
        let mut lane = conn.lane.lock();
        let first = lane.backlog() == 0;
        lane.out.extend_from_slice(&replies[sent..]);
        drop(lane);
        if first {
            shared.loops[conn.loop_idx].wake.wake();
        }
    }
    replies.clear();
}

/// Run one request on its session and account for it.
fn execute(shared: &Shared, conn: &ConnShared, request: Request) -> Response {
    let started = Instant::now();
    // Panic isolation: a panicking handler costs this one connection,
    // never an executor thread. parking_lot mutexes do not poison, so
    // the session lock releases cleanly on unwind.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(hook) = shared.config.request_hook.as_ref() {
            hook(&request);
        }
        let mut session = conn.session.lock();
        // A connection torn down since this request was popped cannot
        // be answered, and its transaction is about to roll back: the
        // request does not run.
        if conn.defunct.load(Ordering::Acquire) {
            Response::Err(DbError::Net("session closed before the request ran".into()))
        } else {
            dispatch(shared, &mut session, request)
        }
    }));
    let response = outcome.unwrap_or_else(|_| {
        conn.closing.store(true, Ordering::Release);
        settle(shared, conn);
        Response::Err(DbError::Internal("request handler panicked".into()))
    });
    shared.metrics.request_latency.observe(started.elapsed());
    if matches!(response, Response::Err(_)) {
        shared.metrics.errors.inc();
    }
    response
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// Run `f` inside the session transaction when one is open; otherwise
/// begin/commit around it (auto-commit), rolling back on error.
fn with_tx<T>(
    shared: &Shared,
    session: &mut SessionState,
    f: impl FnOnce(&Database, &Tx) -> DbResult<T>,
) -> DbResult<T> {
    if let Some(tx) = session.tx.as_ref() {
        return f(&shared.db, tx);
    }
    let tx = begin_session_tx(shared, session);
    match f(&shared.db, &tx) {
        Ok(v) => {
            shared.db.commit(tx)?;
            Ok(v)
        }
        Err(e) => {
            let _ = shared.db.rollback(tx);
            Err(e)
        }
    }
}

fn begin_session_tx(shared: &Shared, session: &SessionState) -> Tx {
    match session.principal.as_deref() {
        Some(p) => shared.db.begin_as(p),
        None => shared.db.begin(),
    }
}

/// One DML operation, inside its transaction scope: a request of its
/// own or one op of a batch.
fn batch_op(db: &Database, tx: &Tx, op: &Request) -> DbResult<Response> {
    Ok(match op {
        Request::CreateObject { class, attrs } => {
            let borrowed: Vec<(&str, orion_core::Value)> =
                attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            Response::Created { oid: db.create_object(tx, class, borrowed)? }
        }
        Request::Get { oid, attr } => Response::Value(db.get(tx, *oid, attr)?),
        Request::Set { oid, attr, value } => {
            db.set(tx, *oid, attr, value.clone())?;
            Response::Ok
        }
        Request::Delete { oid } => {
            db.delete_object(tx, *oid)?;
            Response::Ok
        }
        _ => {
            return Err(DbError::Protocol(
                "batch operations must be DML (CreateObject/Get/Set/Delete)".into(),
            ))
        }
    })
}

fn dispatch(shared: &Shared, session: &mut SessionState, request: Request) -> Response {
    if !session.handshaken {
        return match request {
            Request::Hello { principal } => {
                session.handshaken = true;
                session.principal = principal;
                let id = shared.sessions.fetch_add(1, Ordering::AcqRel) + 1;
                Response::Hello { session: id }
            }
            _ => Response::Err(DbError::Protocol(
                "first message on a connection must be Hello".into(),
            )),
        };
    }
    match request {
        Request::Hello { .. } => {
            Response::Err(DbError::Protocol("duplicate Hello on an open session".into()))
        }
        Request::Ping => Response::Pong,
        Request::Query { text } => {
            match with_tx(shared, session, |db, tx| db.query(tx, &text)) {
                Ok(r) => Response::from_query_result(r),
                Err(e) => Response::Err(e),
            }
        }
        Request::Explain { text } => {
            match with_tx(shared, session, |db, tx| db.explain(tx, &text)) {
                Ok(report) => Response::Explain { text: report.to_string() },
                Err(e) => Response::Err(e),
            }
        }
        Request::Begin => {
            if session.tx.is_some() {
                return Response::Err(DbError::InvalidTxnState(
                    "a transaction is already open on this session".into(),
                ));
            }
            let tx = begin_session_tx(shared, session);
            let id = tx.id();
            session.tx = Some(tx);
            Response::Txn { id }
        }
        Request::Commit => match session.tx.take() {
            Some(tx) => match shared.db.commit(tx) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e),
            },
            None => Response::Err(DbError::InvalidTxnState(
                "no open transaction to commit".into(),
            )),
        },
        Request::Rollback => match session.tx.take() {
            Some(tx) => match shared.db.rollback(tx) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e),
            },
            None => Response::Err(DbError::InvalidTxnState(
                "no open transaction to roll back".into(),
            )),
        },
        request @ (Request::CreateObject { .. }
        | Request::Get { .. }
        | Request::Set { .. }
        | Request::Delete { .. }) => {
            with_tx(shared, session, |db, tx| batch_op(db, tx, &request))
                .unwrap_or_else(Response::Err)
        }
        Request::Batch { ops } => {
            // The whole batch is one transaction scope: the session
            // transaction when open (a failed op answers an error but
            // leaves that transaction to the client, like any failed
            // request), else one auto-commit around every op (a failed
            // op rolls the batch back atomically).
            let result = with_tx(shared, session, |db, tx| {
                ops.iter().map(|op| batch_op(db, tx, op)).collect::<DbResult<Vec<_>>>()
            });
            match result {
                Ok(results) => Response::Batch { results },
                Err(e) => Response::Err(e),
            }
        }
        Request::CreateClass { name, supers, attrs } => {
            let supers: Vec<&str> = supers.iter().map(String::as_str).collect();
            match shared.db.create_class(&name, &supers, attrs) {
                Ok(class_id) => Response::Class { class_id: class_id.raw() },
                Err(e) => Response::Err(e),
            }
        }
        Request::CreateIndex { name, kind, class, path } => {
            let path: Vec<&str> = path.iter().map(String::as_str).collect();
            match shared.db.create_index(&name, kind, &class, &path) {
                Ok(_) => Response::Ok,
                Err(e) => Response::Err(e),
            }
        }
        Request::Checkout { root } => {
            // Checkout locks must outlive the request, so an explicit
            // session transaction is required (auto-commit would release
            // them before the client ever edits the workspace).
            let Some(tx) = session.tx.as_ref() else {
                return Response::Err(DbError::InvalidTxnState(
                    "checkout requires an explicit transaction (Begin first)".into(),
                ));
            };
            match shared.db.checkout(tx, root) {
                Ok(ws) => {
                    let mut entries: Vec<_> = ws.into_iter().collect();
                    entries.sort_by_key(|(oid, _)| oid.to_raw());
                    Response::Workspace(entries)
                }
                Err(e) => Response::Err(e),
            }
        }
        Request::Checkin { workspace } => {
            let result = with_tx(shared, session, |db, tx| {
                db.checkin(tx, workspace.iter().cloned().collect())
            });
            match result {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e),
            }
        }
        Request::Stats => {
            Response::Stats { prometheus: shared.db.stats().render_prometheus() }
        }
        Request::Prepare { txn } => {
            // Normal path: the session transaction matches the id the
            // coordinator names. Prepare parks it in the engine; the
            // session handle is dropped so a later disconnect does NOT
            // roll it back — only a coordinator decision settles it.
            if let Some(tx) = session.tx.as_ref() {
                if tx.id() != txn {
                    return Response::Err(DbError::InvalidTxnState(format!(
                        "prepare names transaction {txn} but the session transaction is {}",
                        tx.id()
                    )));
                }
                return match shared.db.prepare(tx) {
                    Ok(()) => {
                        session.tx = None;
                        Response::Prepared { txn }
                    }
                    Err(e) => {
                        // Prepare failed; the transaction is still
                        // active — roll it back so its locks release.
                        if let Some(tx) = session.tx.take() {
                            let _ = shared.db.rollback(tx);
                        }
                        Response::Err(e)
                    }
                };
            }
            // Retransmission path: a coordinator that lost the ack
            // reconnects and re-sends. If the engine already holds the
            // id prepared, the original request won — acknowledge it.
            // Otherwise the disconnect rolled the transaction back and
            // the coordinator must abort (presumed abort).
            if shared.db.in_doubt().contains(&txn) {
                Response::Prepared { txn }
            } else {
                Response::Err(DbError::InvalidTxnState(format!(
                    "transaction {txn} is not open on this session and not prepared"
                )))
            }
        }
        Request::CommitPrepared { txn } => match shared.db.commit_prepared(txn) {
            Ok(_) => Response::Ok,
            Err(e) => Response::Err(e),
        },
        Request::AbortPrepared { txn } => match shared.db.abort_prepared(txn) {
            Ok(_) => Response::Ok,
            Err(e) => Response::Err(e),
        },
        Request::Resolve { txn } => {
            let mut txns = shared.db.in_doubt();
            if let Some(filter) = txn {
                txns.retain(|t| *t == filter);
            }
            Response::InDoubt { txns }
        }
    }
}
