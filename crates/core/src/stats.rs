//! Unified observability: the [`Database::stats`] snapshot and its
//! Prometheus text rendering.
//!
//! Every layer keeps its own lock-free counters (buffer pool, simulated
//! disk, WAL, lock manager, query executor, object cache), each group
//! declared once with `orion_obs::metrics!`; this module is the one
//! place they are gathered into a coherent, structured view.
//! A snapshot is cheap — atomic loads plus one shared runtime read
//! guard for the object cache — and safe to take while queries and
//! transactions are running: individual fields may be skewed by
//! in-flight updates but no value is ever torn.
//!
//! [`Database::stats`]: crate::Database::stats

use crate::cache::CacheStats;
use orion_obs::Counter;
use orion_query::{ExecMetrics, ExecSnapshot};
use orion_storage::{DiskStats, FaultStats, PoolStats, RecoveryStats, WalStats};
use orion_tx::{LockStats, MvccStats};
use std::sync::Arc;

/// The metric sinks one `Database` owns and threads through its layers.
/// The executor sink is `Arc`-shared with every [`orion_query::ExecOptions`]
/// the facade hands out, so concurrent queries account into one place.
#[derive(Debug, Default)]
pub(crate) struct DbMetrics {
    /// Cross-query executor metrics (attached to every execution).
    pub exec: Arc<ExecMetrics>,
    /// Late-bound method dispatches through `Database::call`.
    pub method_calls: Counter,
    /// Network front-door metrics; `Arc`-shared with any `orion-net`
    /// server built over this database.
    pub net: Arc<NetMetrics>,
    /// Two-phase-commit participant metrics (prepare/decide/recover).
    pub twopc: TwoPcMetrics,
    /// Maintenance-gate acquisitions and exclusive waits.
    pub gate: GateMetrics,
    /// What restarts spent re-deriving the runtime.
    pub restart: RestartMetrics,
}

orion_obs::metrics! {
    /// Restart counters past storage recovery, as captured by
    /// [`Database::stats`]: the derived-state rebuild that follows
    /// [`RecoveryStats`]' log read, scrub and replay.
    ///
    /// [`Database::stats`]: crate::Database::stats
    pub struct RestartStats;
    /// The restart sinks.
    pub(crate) struct RestartMetrics;
    /// Time a restart spent rebuilding derived state from the records.
    rebuild: histogram("orion_restart_rebuild_seconds", "Restart time rebuilding derived state from the stored records"),
    /// Records a restart's rebuild decoded and entered.
    records_rebuilt: counter("orion_restart_records_rebuilt_total", "Stored records decoded and entered by restart rebuilds"),
}

orion_obs::metrics! {
    /// Maintenance-gate counters, as captured by [`Database::stats`]. The
    /// gate is the `RwLock` around the decomposed runtime: shared for all
    /// normal work, exclusive only for whole-state rebuilds, so a high
    /// exclusive wait means rebuild operations are stalling behind live
    /// traffic (see `crate::runtime` for the lock order).
    ///
    /// [`Database::stats`]: crate::Database::stats
    pub struct GateStats;
    /// The maintenance gate's sinks.
    pub(crate) struct GateMetrics;
    /// Shared acquisitions (DML, queries, reads, stats).
    shared_acquisitions: counter("orion_gate_shared_acquisitions_total", "Shared maintenance-gate acquisitions"),
    /// Exclusive acquisitions (the two restart paths and index DDL).
    exclusive_acquisitions: counter("orion_gate_exclusive_acquisitions_total", "Exclusive maintenance-gate acquisitions (rebuilds)"),
    /// Time an exclusive acquisition waited for shared holders to
    /// drain — the cost of quiescing the decomposed runtime.
    exclusive_wait: histogram("orion_gate_exclusive_wait_seconds", "Exclusive gate wait for shared holders to drain"),
}

orion_obs::metrics! {
    /// Network front-door counters, as captured by [`Database::stats`].
    ///
    /// [`Database::stats`]: crate::Database::stats
    pub struct NetStats;
    /// Live counters for the network front door (`orion-net`). The server
    /// crate sits *above* orion-core in the dependency graph, so the sinks
    /// live here and the database hands the server an `Arc` via
    /// [`Database::net_metrics`] — that is what lets `stats()` and the
    /// Prometheus rendering cover the wire without core depending on net.
    ///
    /// [`Database::net_metrics`]: crate::Database::net_metrics
    pub struct NetMetrics;
    /// Currently open client connections.
    connections: gauge("orion_net_connections", "Currently open client connections"),
    /// Connections accepted since startup.
    connections_total: counter("orion_net_connections_total", "Client connections accepted since startup"),
    /// Requests served (any outcome).
    requests: counter("orion_net_requests_total", "Wire requests served"),
    /// Requests answered with an error response.
    errors: counter("orion_net_errors_total", "Wire requests answered with an error response"),
    /// Connections evicted for idleness or read/write timeout.
    timeouts: counter("orion_net_timeouts_total", "Connections evicted for idleness or I/O timeout"),
    /// Connections refused at the door (connection cap or accept queue
    /// full).
    busy_rejections: counter("orion_net_busy_rejections_total", "Connections refused at the door (connection cap or accept queue)"),
    /// End-to-end server-side request latency (decode → respond).
    request_latency: histogram("orion_net_request_latency_seconds", "Server-side request latency"),
    /// Pipeline depth observed as each request is admitted: how many
    /// requests its connection then has in flight (unit: requests).
    pipeline_depth: plain_histogram("orion_net_pipeline_depth", "Per-connection pipeline depth at request admission (unit: requests)"),
    /// Requests shed with `ServerBusy` by admission control (pipeline
    /// cap or executor-queue cap).
    requests_shed: counter("orion_net_requests_shed_total", "Requests shed with ServerBusy by admission control"),
    /// Event-loop wakeups (poll returns) across all I/O threads.
    readiness_wakeups: counter("orion_net_readiness_wakeups_total", "Event-loop wakeups across all I/O threads"),
    /// Executor turns: times an executor took a connection's lane (one
    /// turn runs every request queued on it, up to the turn cap).
    executor_turns: counter("orion_net_executor_turns_total", "Executor turns: times an executor took a connection's lane"),
    /// Recent event-loop wakeup rate (per second, ~1s window).
    readiness_wakeups_per_sec: gauge("orion_net_readiness_wakeups_per_sec", "Recent event-loop wakeup rate"),
    /// Open connections per event-loop thread (ceiling of the mean).
    connections_per_worker: gauge("orion_net_connections_per_worker", "Open connections per event-loop thread"),
}

orion_obs::metrics! {
    /// Two-phase-commit participant counters, as captured by
    /// [`Database::stats`].
    ///
    /// [`Database::stats`]: crate::Database::stats
    pub struct TwoPcStats;
    /// Two-phase-commit participant sinks. A database acting as a 2PC
    /// participant (behind a shard router) accounts its prepare and
    /// decision traffic here; the `prepared` gauge is set from the
    /// storage engine's live count when a snapshot is taken, so it is
    /// exact even across recoveries.
    pub struct TwoPcMetrics;
    /// Transactions currently prepared and awaiting a coordinator
    /// decision (in doubt after a recovery).
    prepared: gauge("orion_2pc_prepared_transactions", "Transactions prepared and awaiting a coordinator decision"),
    /// Transactions that entered the prepared state since startup.
    prepares: counter("orion_2pc_prepares_total", "Transactions that entered the prepared state"),
    /// Prepared transactions committed by a coordinator decision.
    commits: counter("orion_2pc_commits_total", "Prepared transactions committed by coordinator decision"),
    /// Prepared transactions aborted by a coordinator decision.
    aborts: counter("orion_2pc_aborts_total", "Prepared transactions aborted by coordinator decision"),
    /// In-doubt transactions reinstated from the log at recovery.
    in_doubt_recovered: counter("orion_2pc_in_doubt_recovered_total", "In-doubt transactions reinstated from the log at recovery"),
}

orion_obs::metrics! {
    /// Object-directory counters, as captured by [`Database::stats`].
    ///
    /// [`Database::stats`]: crate::Database::stats
    pub struct DirectoryStats;
    /// The object directory's sinks.
    pub(crate) struct DirectoryMetrics;
    /// OIDs looked up in the directory: a scanned row that costs more
    /// than one was located twice.
    probes: counter("orion_directory_probes_total", "OIDs looked up in the object directory"),
}

orion_obs::metrics! {
    /// The two counters [`DbStats`] carries at its top level.
    struct ObjectCounts;
    /// Objects fetched (decoded) from storage.
    fetches: counter("orion_object_fetches_total", "Objects decoded from storage"),
    /// Late-bound method dispatches.
    method_calls: counter("orion_method_calls_total", "Late-bound method dispatches"),
}

/// A structured snapshot of every performance counter in the system,
/// returned by [`Database::stats`].
///
/// [`Database::stats`]: crate::Database::stats
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Object-cache counters (hits, misses, swizzle traversals).
    pub cache: CacheStats,
    /// Object-directory counters (OIDs looked up).
    pub directory: DirectoryStats,
    /// Buffer-pool counters (hits, misses, evictions, writebacks).
    pub pool: PoolStats,
    /// Simulated-disk I/O counters.
    pub disk: DiskStats,
    /// Write-ahead log counters and flush latency.
    pub wal: WalStats,
    /// Lock-manager counters and wait latency.
    pub locks: LockStats,
    /// MVCC snapshot-read counters (version chains, pruning, lag).
    pub mvcc: MvccStats,
    /// Query-executor counters.
    pub exec: ExecSnapshot,
    /// Maintenance-gate counters (runtime decomposition).
    pub gate: GateStats,
    /// Objects fetched (decoded) from storage.
    pub fetches: u64,
    /// Late-bound method dispatches.
    pub method_calls: u64,
    /// Network front-door counters (zero when no server is attached).
    pub net: NetStats,
    /// Two-phase-commit participant counters (zero unless the node is
    /// serving cross-shard transactions).
    pub twopc: TwoPcStats,
    /// Injected-fault counters (zero unless a fault plan is installed).
    pub fault: FaultStats,
    /// Recovery-outcome counters (runs, failures, pages repaired).
    pub recovery: RecoveryStats,
    /// Derived-state rebuild counters (time, records rebuilt).
    pub restart: RestartStats,
}

impl DbStats {
    /// Render the snapshot in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.cache.render(&mut out);
        self.directory.render(&mut out);
        self.pool.render(&mut out);
        self.disk.render(&mut out);
        self.wal.render(&mut out);
        self.fault.render(&mut out);
        self.recovery.render(&mut out);
        self.restart.render(&mut out);
        self.locks.render(&mut out);
        self.mvcc.render(&mut out);
        self.exec.render(&mut out);
        self.gate.render(&mut out);
        ObjectCounts { fetches: self.fetches, method_calls: self.method_calls }.render(&mut out);
        self.net.render(&mut out);
        self.twopc.render(&mut out);
        out
    }
}
