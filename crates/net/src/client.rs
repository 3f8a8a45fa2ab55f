//! The blocking client: typed methods over the wire protocol.
//!
//! One [`Client`] is one session on the server — its principal, its
//! (at most one) explicit transaction. The client is deliberately
//! synchronous: a request is written, the response is awaited under
//! `request_timeout`, and transport failures surface as
//! [`DbError::Net`]. With `reconnect` enabled, a dead connection is
//! re-dialed transparently and *idempotent read-only* requests are
//! retried under a configurable [`RetryPolicy`] (bounded attempts,
//! exponential backoff with deterministic jitter); writes and anything
//! inside an explicit transaction never retry (the first attempt may
//! have taken effect server-side).

use crate::frame::{self, FrameDecoder};
use crate::wire::{Request, Response, WorkspaceEntry};
use orion_core::{AttrSpec, IndexKind, QueryResult};
use orion_types::{DbError, DbResult, Oid, Value};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Retry schedule for idempotent reads over a flaky transport:
/// exponential backoff from `base_backoff`, capped at `max_backoff`,
/// shrunk by up to `jitter` deterministically (a hash of the attempt
/// and a per-client salt stands in for randomness, so two clients that
/// fail together do not retry in lockstep but a given client's
/// schedule is reproducible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Fraction of each backoff subject to jitter, in `[0, 1]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The pause before retry number `retry` (1-based). Pure: the same
    /// `(retry, salt)` always yields the same delay, which is the
    /// exponential backoff scaled down by up to `jitter`.
    pub fn delay(&self, retry: u32, salt: u64) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << retry.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        // splitmix64 of (salt, retry) → a uniform fraction in [0, 1).
        let mut h = salt ^ (u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let frac = ((h ^ (h >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(1.0 - jitter * frac)
    }
}

/// Tuning knobs for [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long to wait for a TCP connect.
    pub connect_timeout: Duration,
    /// How long to wait for each response.
    pub request_timeout: Duration,
    /// Re-dial a dead connection and retry idempotent reads under
    /// `retry`. Disabling this also disables all retries.
    pub reconnect: bool,
    /// Backoff schedule for those retries.
    pub retry: RetryPolicy,
    /// Maximum frame payload accepted from the server.
    pub max_frame: usize,
    /// Authorization principal for the session (None = system).
    pub principal: Option<String>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            reconnect: true,
            retry: RetryPolicy::default(),
            max_frame: frame::MAX_FRAME,
            principal: None,
        }
    }
}

/// One dialed connection: the socket, the frame being sent, and the
/// reply bytes read off it but not yet handed out. A re-dial replaces
/// all three, so stale bytes never outlive their session.
struct Wire {
    stream: TcpStream,
    /// The outgoing frame, assembled here so prefix and payload leave
    /// in one `write` (two would be two syscalls and, with
    /// `TCP_NODELAY`, two segments) without an allocation per request.
    out: Vec<u8>,
    /// One `read` may return many pipelined replies; the rest wait here.
    replies: FrameDecoder,
}

impl Wire {
    fn send(&mut self, request: &Request) -> DbResult<()> {
        self.out.clear();
        frame::append_frame(&mut self.out, &request.encode());
        self.stream.write_all(&self.out).map_err(|e| frame::io_err("send", &e))
    }

    /// The next reply, blocking under the stream's read timeout. Every
    /// transport failure is a [`DbError::Net`]; any other error means a
    /// frame was consumed but did not decode.
    fn recv(&mut self, request_timeout: Duration) -> DbResult<Response> {
        loop {
            match self.replies.next_frame() {
                Ok(Some(payload)) => return Response::decode(&payload),
                Ok(None) => {}
                Err(e) => return Err(DbError::Net(format!("recv: {e}"))),
            }
            match self.replies.read_from(&mut self.stream) {
                Ok(0) => return Err(DbError::Net("server closed the connection".into())),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(DbError::Net(format!("reply timed out after {request_timeout:?}")))
                }
                Err(e) => return Err(frame::io_err("recv", &e)),
            }
        }
    }
}

/// A blocking connection to an orion server.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Wire>,
    /// True between a successful `begin()` and the following
    /// `commit()`/`rollback()`: retries are forbidden because the
    /// transaction lives on the (possibly dead) old connection.
    in_tx: bool,
}

impl Client {
    /// Connect with default configuration.
    pub fn connect(addr: impl ToSocketAddrs) -> DbResult<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit configuration; performs the Hello
    /// handshake before returning.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> DbResult<Client> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| frame::io_err("resolve", &e))?
            .next()
            .ok_or_else(|| DbError::Net("address resolved to nothing".into()))?;
        let mut client = Client { addr, config, conn: None, in_tx: false };
        client.dial()?;
        Ok(client)
    }

    /// The server address this client dials.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    fn dial(&mut self) -> DbResult<()> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| frame::io_err("connect", &e))?;
        stream.set_nodelay(true).map_err(|e| frame::io_err("nodelay", &e))?;
        stream
            .set_read_timeout(Some(self.config.request_timeout))
            .map_err(|e| frame::io_err("read timeout", &e))?;
        stream
            .set_write_timeout(Some(self.config.request_timeout))
            .map_err(|e| frame::io_err("write timeout", &e))?;
        let mut conn = Some(Wire {
            stream,
            out: Vec::new(),
            replies: FrameDecoder::new(self.config.max_frame),
        });
        let hello = Request::Hello { principal: self.config.principal.clone() };
        match exchange(&mut conn, &self.config, &hello)? {
            Response::Hello { .. } => {
                self.conn = conn;
                Ok(())
            }
            Response::Err(e) => Err(e),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Send one request and decode one response, reconnecting and
    /// retrying under the configured [`RetryPolicy`] when that is safe.
    fn request(&mut self, request: &Request) -> DbResult<Response> {
        if self.conn.is_none() {
            if !self.config.reconnect {
                return Err(DbError::Net("connection closed".into()));
            }
            self.in_tx = false; // the old session (and its tx) is gone
            self.dial()?;
        }
        let mut last = match exchange(&mut self.conn, &self.config, request) {
            Err(DbError::Net(first)) if self.may_retry(request) => first,
            other => return other,
        };
        let policy = self.config.retry;
        let salt = u64::from(self.addr.port());
        for retry in 1..policy.max_attempts {
            std::thread::sleep(policy.delay(retry, salt));
            if let Err(e) = self.dial() {
                last = format!("{last}; reconnect failed: {e}");
                continue;
            }
            match exchange(&mut self.conn, &self.config, request) {
                Err(DbError::Net(next)) => last = next,
                other => return other,
            }
        }
        Err(DbError::Net(format!(
            "request failed after {} attempts: {last}",
            policy.max_attempts
        )))
    }

    /// A retry is safe for idempotent read-only requests outside an
    /// explicit transaction, and for the 2PC verbs *unconditionally*:
    /// they are idempotent by transaction id, so a retransmission after
    /// a reconnect lands on the server's replay-safe path (a re-sent
    /// `Prepare` is acknowledged if the id is already parked and
    /// rejected if the disconnect rolled it back; decisions and
    /// `Resolve` probes are addressed by id, not by session state).
    fn may_retry(&self, request: &Request) -> bool {
        self.config.reconnect
            && self.config.retry.max_attempts > 1
            && (matches!(
                request,
                Request::Prepare { .. }
                    | Request::CommitPrepared { .. }
                    | Request::AbortPrepared { .. }
                    | Request::Resolve { .. }
            ) || (!self.in_tx
                && matches!(
                    request,
                    Request::Ping
                        | Request::Query { .. }
                        | Request::Explain { .. }
                        | Request::Get { .. }
                        | Request::Stats
                )))
    }

    // -----------------------------------------------------------------
    // Typed API
    // -----------------------------------------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> DbResult<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Run a declarative query.
    pub fn query(&mut self, text: &str) -> DbResult<QueryResult> {
        match self.request(&Request::Query { text: text.into() })? {
            Response::Query { rows, oids } => Ok(QueryResult { rows, oids }),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Query", &other)),
        }
    }

    /// Fetch the optimizer's plan explanation for a query.
    pub fn explain(&mut self, text: &str) -> DbResult<String> {
        match self.request(&Request::Explain { text: text.into() })? {
            Response::Explain { text } => Ok(text),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Explain", &other)),
        }
    }

    /// Open the session's explicit transaction; returns its id.
    pub fn begin(&mut self) -> DbResult<u64> {
        match self.request(&Request::Begin)? {
            Response::Txn { id } => {
                self.in_tx = true;
                Ok(id)
            }
            Response::Err(e) => Err(e),
            other => Err(unexpected("Txn", &other)),
        }
    }

    /// Commit the session transaction.
    pub fn commit(&mut self) -> DbResult<()> {
        let r = self.expect_ok(&Request::Commit);
        self.in_tx = false;
        r
    }

    /// Roll back the session transaction.
    pub fn rollback(&mut self) -> DbResult<()> {
        let r = self.expect_ok(&Request::Rollback);
        self.in_tx = false;
        r
    }

    /// Create an object with named attribute values.
    pub fn create_object(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> DbResult<Oid> {
        let attrs = attrs.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
        match self.request(&Request::CreateObject { class: class.into(), attrs })? {
            Response::Created { oid } => Ok(oid),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Created", &other)),
        }
    }

    /// Read one attribute by name.
    pub fn get(&mut self, oid: Oid, attr: &str) -> DbResult<Value> {
        match self.request(&Request::Get { oid, attr: attr.into() })? {
            Response::Value(v) => Ok(v),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Update one attribute by name.
    pub fn set(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        self.expect_ok(&Request::Set { oid, attr: attr.into(), value })
    }

    /// Delete an object (and its composite parts).
    pub fn delete(&mut self, oid: Oid) -> DbResult<()> {
        self.expect_ok(&Request::Delete { oid })
    }

    /// Run several DML operations in one round trip and one transaction
    /// scope ([`Request::Batch`] on the wire). Outside an explicit
    /// transaction the batch is atomic: the first failing operation
    /// rolls the whole batch back and surfaces here as the error.
    /// Inside an explicit transaction a failure leaves that transaction
    /// open, exactly like the same operations sent one by one. Never
    /// retried (the batch writes).
    pub fn batch(&mut self, ops: Vec<Request>) -> DbResult<Vec<Response>> {
        match self.request(&Request::Batch { ops })? {
            Response::Batch { results } => Ok(results),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Split send from receive: returns a [`Pipeline`] handle through
    /// which any number of requests can be written before their replies
    /// are read (the server answers in FIFO order). Dials first if the
    /// connection is down. While the handle lives the session is in raw
    /// pipelined mode — no retries, no reconnects; a transport error
    /// (or dropping the handle with replies still unread) poisons the
    /// connection so the next ordinary request re-dials a fresh
    /// session.
    pub fn pipeline(&mut self) -> DbResult<Pipeline<'_>> {
        if self.conn.is_none() {
            if !self.config.reconnect {
                return Err(DbError::Net("connection closed".into()));
            }
            self.in_tx = false; // the old session (and its tx) is gone
            self.dial()?;
        }
        Ok(Pipeline { client: self, outstanding: 0 })
    }

    /// DDL: create a class; returns the raw class id.
    pub fn create_class(
        &mut self,
        name: &str,
        supers: &[&str],
        attrs: Vec<AttrSpec>,
    ) -> DbResult<u16> {
        let supers = supers.iter().map(|s| s.to_string()).collect();
        match self.request(&Request::CreateClass { name: name.into(), supers, attrs })? {
            Response::Class { class_id } => Ok(class_id),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Class", &other)),
        }
    }

    /// DDL: create an index.
    pub fn create_index(
        &mut self,
        name: &str,
        kind: IndexKind,
        class: &str,
        path: &[&str],
    ) -> DbResult<()> {
        let path = path.iter().map(|s| s.to_string()).collect();
        self.expect_ok(&Request::CreateIndex { name: name.into(), kind, class: class.into(), path })
    }

    /// Check a composite out into a local workspace. Requires an open
    /// explicit transaction (see the server's checkout policy).
    pub fn checkout(&mut self, root: Oid) -> DbResult<Vec<WorkspaceEntry>> {
        match self.request(&Request::Checkout { root })? {
            Response::Workspace(ws) => Ok(ws),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Workspace", &other)),
        }
    }

    /// Write an edited workspace back.
    pub fn checkin(&mut self, workspace: Vec<WorkspaceEntry>) -> DbResult<()> {
        self.expect_ok(&Request::Checkin { workspace })
    }

    /// 2PC phase one: prepare the session transaction `txn` (the id
    /// returned by [`Client::begin`]). On success the transaction is
    /// parked server-side awaiting [`Client::commit_prepared`] or
    /// [`Client::abort_prepared`]; the session no longer owns it, so
    /// the client leaves its explicit-transaction state either way.
    pub fn prepare(&mut self, txn: u64) -> DbResult<()> {
        let r = self.request(&Request::Prepare { txn });
        self.in_tx = false;
        match r? {
            Response::Prepared { .. } => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// 2PC phase two, commit decision. Idempotent by transaction id:
    /// an unknown id means the decision already landed and is `Ok`.
    pub fn commit_prepared(&mut self, txn: u64) -> DbResult<()> {
        self.expect_ok(&Request::CommitPrepared { txn })
    }

    /// 2PC phase two, abort decision. Idempotent like
    /// [`Client::commit_prepared`].
    pub fn abort_prepared(&mut self, txn: u64) -> DbResult<()> {
        self.expect_ok(&Request::AbortPrepared { txn })
    }

    /// List the server's in-doubt (prepared) transactions, optionally
    /// probing one id.
    pub fn resolve(&mut self, txn: Option<u64>) -> DbResult<Vec<u64>> {
        match self.request(&Request::Resolve { txn })? {
            Response::InDoubt { txns } => Ok(txns),
            Response::Err(e) => Err(e),
            other => Err(unexpected("InDoubt", &other)),
        }
    }

    /// Scrape the server's metrics in the Prometheus text format.
    pub fn stats_prometheus(&mut self) -> DbResult<String> {
        match self.request(&Request::Stats)? {
            Response::Stats { prometheus } => Ok(prometheus),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Stats", &other)),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> DbResult<()> {
        match self.request(request)? {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Ok", &other)),
        }
    }
}

/// In-flight window of pipelined requests on one [`Client`], created
/// by [`Client::pipeline`]. [`send`] writes a request without waiting;
/// [`recv`] reads the oldest unread reply — the server guarantees FIFO
/// order, so reply `k` answers send `k`. Interleave them freely (send
/// 64, recv 64; or send/recv in lockstep with a window of one).
///
/// Every send must be matched by a recv before the handle is dropped:
/// dropping with `outstanding() > 0` marks the connection poisoned
/// (the unread replies would desynchronize the next request), and the
/// client re-dials on its next use.
///
/// [`send`]: Pipeline::send
/// [`recv`]: Pipeline::recv
pub struct Pipeline<'a> {
    client: &'a mut Client,
    outstanding: usize,
}

impl Pipeline<'_> {
    /// Write one request without waiting for its reply.
    pub fn send(&mut self, request: &Request) -> DbResult<()> {
        let wire = match self.client.conn.as_mut() {
            Some(w) => w,
            None => return Err(DbError::Net("pipeline connection lost".into())),
        };
        match wire.send(request) {
            Ok(()) => {
                self.outstanding += 1;
                Ok(())
            }
            Err(e) => {
                self.client.conn = None;
                Err(e)
            }
        }
    }

    /// Read the oldest unread reply (blocks under the client's request
    /// timeout).
    pub fn recv(&mut self) -> DbResult<Response> {
        if self.outstanding == 0 {
            return Err(DbError::Protocol("pipeline recv with no outstanding request".into()));
        }
        let wire = match self.client.conn.as_mut() {
            Some(w) => w,
            None => return Err(DbError::Net("pipeline connection lost".into())),
        };
        match wire.recv(self.client.config.request_timeout) {
            Err(e @ DbError::Net(_)) => {
                self.client.conn = None;
                Err(e)
            }
            reply => {
                self.outstanding -= 1;
                reply
            }
        }
    }

    /// Requests sent whose replies have not been read yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// [`send`](Pipeline::send) a query request.
    pub fn send_query(&mut self, text: &str) -> DbResult<()> {
        self.send(&Request::Query { text: text.into() })
    }

    /// [`recv`](Pipeline::recv) a reply and decode it as a query
    /// result.
    pub fn recv_query(&mut self) -> DbResult<QueryResult> {
        match self.recv()? {
            Response::Query { rows, oids } => Ok(QueryResult { rows, oids }),
            Response::Err(e) => Err(e),
            other => Err(unexpected("Query", &other)),
        }
    }
}

impl Drop for Pipeline<'_> {
    fn drop(&mut self) {
        let stray = self.client.conn.as_ref().is_some_and(|w| w.replies.mid_frame());
        if self.outstanding > 0 || stray {
            // Unread replies are still in flight (or bytes nobody asked
            // for sit in the read buffer): the stream is desynchronized
            // for request/response use. Poison it; the client re-dials
            // next time.
            self.client.conn = None;
        }
    }
}

/// Write `request`, read one reply. On transport failure the
/// connection is dropped so the caller can re-dial.
fn exchange(
    conn: &mut Option<Wire>,
    config: &ClientConfig,
    request: &Request,
) -> DbResult<Response> {
    let wire = conn.as_mut().ok_or_else(|| DbError::Net("not connected".into()))?;
    let result = wire.send(request).and_then(|()| wire.recv(config.request_timeout));
    if matches!(result, Err(DbError::Net(_))) {
        *conn = None;
    }
    result
}

fn unexpected(wanted: &str, got: &Response) -> DbError {
    DbError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_deterministic_and_jittered_within_bounds() {
        let p = RetryPolicy::default();
        for retry in 1..6u32 {
            let d1 = p.delay(retry, 42);
            let d2 = p.delay(retry, 42);
            assert_eq!(d1, d2, "same (retry, salt) gives the same delay");
            let full = p.base_backoff.saturating_mul(1 << (retry - 1)).min(p.max_backoff);
            assert!(d1 <= full, "jitter only shrinks the backoff");
            assert!(d1 >= full.mul_f64(1.0 - p.jitter), "jitter is bounded by the policy");
        }
        assert_ne!(p.delay(1, 1), p.delay(1, 2), "different salts de-synchronize clients");
    }

    #[test]
    fn delay_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter: 0.0,
        };
        let delays: Vec<Duration> = (1..8).map(|r| p.delay(r, 0)).collect();
        assert_eq!(delays[0], Duration::from_millis(10));
        assert_eq!(delays[1], Duration::from_millis(20));
        assert_eq!(delays[2], Duration::from_millis(40));
        assert!(delays[3..].iter().all(|d| *d == Duration::from_millis(80)), "{delays:?}");
    }

    #[test]
    fn none_policy_disables_retries() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn huge_retry_counts_do_not_overflow() {
        let p = RetryPolicy { max_attempts: u32::MAX, jitter: 0.0, ..RetryPolicy::default() };
        assert_eq!(p.delay(u32::MAX, 7), p.max_backoff);
    }
}
