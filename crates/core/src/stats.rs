//! Unified observability: the [`Database::stats`] snapshot and its
//! Prometheus text rendering.
//!
//! Every layer keeps its own lock-free counters (buffer pool, simulated
//! disk, WAL, lock manager, query executor, object cache); this module
//! is the one place they are gathered into a coherent, structured view.
//! A snapshot is cheap — atomic loads plus one shared runtime read
//! guard for the object cache — and safe to take while queries and
//! transactions are running: individual fields may be skewed by
//! in-flight updates but no value is ever torn.
//!
//! [`Database::stats`]: crate::Database::stats

use crate::cache::CacheStats;
use orion_obs::{render, Counter, Gauge, Histogram, HistogramSnapshot};
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
    /// Shared maintenance-gate acquisitions (DML/query/read paths).
    pub gate_shared: Counter,
    /// Exclusive maintenance-gate acquisitions (the two restart paths
    /// and index DDL).
    pub gate_exclusive: Counter,
    /// Time an exclusive gate acquisition waited for shared holders to
    /// drain — the cost of quiescing the decomposed runtime.
    pub gate_exclusive_wait: Histogram,
}

impl DbMetrics {
    /// A point-in-time copy of the maintenance-gate sinks.
    pub(crate) fn gate_snapshot(&self) -> GateStats {
        GateStats {
            shared_acquisitions: self.gate_shared.get(),
            exclusive_acquisitions: self.gate_exclusive.get(),
            exclusive_wait: self.gate_exclusive_wait.snapshot(),
        }
    }
}

/// Maintenance-gate counters, as captured by [`Database::stats`]. The
/// gate is the `RwLock` around the decomposed runtime: shared for all
/// normal work, exclusive only for whole-state rebuilds, so a high
/// exclusive wait means rebuild operations are stalling behind live
/// traffic (see `crate::runtime` for the lock order).
///
/// [`Database::stats`]: crate::Database::stats
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GateStats {
    /// Shared acquisitions (DML, queries, reads, stats).
    pub shared_acquisitions: u64,
    /// Exclusive acquisitions (the two restart paths and index DDL).
    pub exclusive_acquisitions: u64,
    /// Wait-for-quiescence latency of exclusive acquisitions.
    pub exclusive_wait: HistogramSnapshot,
}

/// Live counters for the network front door (`orion-net`). The server
/// crate sits *above* orion-core in the dependency graph, so the sinks
/// live here and the database hands the server an `Arc` via
/// [`Database::net_metrics`] — that is what lets `stats()` and the
/// Prometheus rendering cover the wire without core depending on net.
///
/// [`Database::net_metrics`]: crate::Database::net_metrics
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Currently open client connections.
    pub connections: Gauge,
    /// Connections accepted since startup.
    pub connections_total: Counter,
    /// Requests served (any outcome).
    pub requests: Counter,
    /// Requests answered with an error response.
    pub errors: Counter,
    /// Connections evicted for idleness or read/write timeout.
    pub timeouts: Counter,
    /// Connections refused at the door (connection cap or accept queue
    /// full).
    pub busy_rejections: Counter,
    /// End-to-end server-side request latency (decode → respond).
    pub request_latency: Histogram,
    /// Pipeline depth observed as each request is admitted: how many
    /// requests its connection then has in flight (unit: requests).
    pub pipeline_depth: Histogram,
    /// Requests shed with `ServerBusy` by admission control (pipeline
    /// cap or executor-queue cap).
    pub requests_shed: Counter,
    /// Event-loop wakeups (poll returns) across all I/O threads.
    pub readiness_wakeups: Counter,
    /// Executor turns: times an executor took a connection's lane (one
    /// turn runs every request queued on it, up to the turn cap).
    pub executor_turns: Counter,
    /// Recent event-loop wakeup rate (per second, ~1s window).
    pub readiness_wakeups_per_sec: Gauge,
    /// Open connections per event-loop thread (ceiling of the mean).
    pub connections_per_worker: Gauge,
}

impl NetMetrics {
    /// A point-in-time copy of every sink.
    pub fn snapshot(&self) -> NetStats {
        NetStats {
            connections: self.connections.get(),
            connections_total: self.connections_total.get(),
            requests: self.requests.get(),
            errors: self.errors.get(),
            timeouts: self.timeouts.get(),
            busy_rejections: self.busy_rejections.get(),
            request_latency: self.request_latency.snapshot(),
            pipeline_depth: self.pipeline_depth.snapshot(),
            requests_shed: self.requests_shed.get(),
            readiness_wakeups: self.readiness_wakeups.get(),
            executor_turns: self.executor_turns.get(),
            readiness_wakeups_per_sec: self.readiness_wakeups_per_sec.get(),
            connections_per_worker: self.connections_per_worker.get(),
        }
    }
}

/// Two-phase-commit participant sinks. A database acting as a 2PC
/// participant (behind a shard router) accounts its prepare and
/// decision traffic here; the `prepared` gauge in [`TwoPcStats`] is
/// filled live from the storage engine at snapshot time, so it is
/// exact even across recoveries.
#[derive(Debug, Default)]
pub struct TwoPcMetrics {
    /// Transactions that entered the prepared state (phase one).
    pub prepares: Counter,
    /// Prepared transactions committed by a coordinator decision.
    pub commits: Counter,
    /// Prepared transactions aborted by a coordinator decision.
    pub aborts: Counter,
    /// In-doubt transactions reinstated from the log at recovery.
    pub in_doubt_recovered: Counter,
}

impl TwoPcMetrics {
    /// A point-in-time copy; `prepared` is supplied by the caller
    /// (the engine knows the live count).
    pub fn snapshot(&self, prepared: u64) -> TwoPcStats {
        TwoPcStats {
            prepared,
            prepares: self.prepares.get(),
            commits: self.commits.get(),
            aborts: self.aborts.get(),
            in_doubt_recovered: self.in_doubt_recovered.get(),
        }
    }
}

/// Two-phase-commit participant counters, as captured by
/// [`Database::stats`].
///
/// [`Database::stats`]: crate::Database::stats
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TwoPcStats {
    /// Transactions currently prepared and awaiting a coordinator
    /// decision (in doubt after a recovery).
    pub prepared: u64,
    /// Transactions that entered the prepared state since startup.
    pub prepares: u64,
    /// Prepared transactions committed by a coordinator decision.
    pub commits: u64,
    /// Prepared transactions aborted by a coordinator decision.
    pub aborts: u64,
    /// In-doubt transactions reinstated from the log at recovery.
    pub in_doubt_recovered: u64,
}

/// Network front-door counters, as captured by [`Database::stats`].
///
/// [`Database::stats`]: crate::Database::stats
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Currently open client connections.
    pub connections: u64,
    /// Connections accepted since startup.
    pub connections_total: u64,
    /// Requests served (any outcome).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Connections evicted for idleness or read/write timeout.
    pub timeouts: u64,
    /// Connections refused at the door (connection cap or accept queue
    /// full).
    pub busy_rejections: u64,
    /// Server-side request latency distribution.
    pub request_latency: HistogramSnapshot,
    /// Per-connection pipeline depth at admission (unit: requests).
    pub pipeline_depth: HistogramSnapshot,
    /// Requests shed with `ServerBusy` by admission control.
    pub requests_shed: u64,
    /// Event-loop wakeups across all I/O threads.
    pub readiness_wakeups: u64,
    /// Executor turns (one turn runs a connection's queued requests).
    pub executor_turns: u64,
    /// Recent event-loop wakeup rate (per second).
    pub readiness_wakeups_per_sec: u64,
    /// Open connections per event-loop thread.
    pub connections_per_worker: u64,
}

/// A structured snapshot of every performance counter in the system,
/// returned by [`Database::stats`].
///
/// [`Database::stats`]: crate::Database::stats
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Object-cache counters (hits, misses, swizzle traversals).
    pub cache: CacheStats,
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
}

impl DbStats {
    /// Render the snapshot in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        render::counter(
            &mut out,
            "orion_cache_hits_total",
            "Object-cache lookups answered by a resident object",
            self.cache.hits,
        );
        render::counter(
            &mut out,
            "orion_cache_misses_total",
            "Object-cache lookups that faulted in from storage",
            self.cache.misses,
        );
        render::counter(
            &mut out,
            "orion_cache_evictions_total",
            "Object-cache residents evicted to stay within capacity",
            self.cache.evictions,
        );
        render::counter(
            &mut out,
            "orion_cache_swizzled_hops_total",
            "Ref traversals answered through a valid swizzle slot",
            self.cache.swizzled_hops,
        );
        render::counter(
            &mut out,
            "orion_cache_unswizzled_hops_total",
            "Ref traversals that resolved via the OID map",
            self.cache.unswizzled_hops,
        );
        render::counter(
            &mut out,
            "orion_pool_hits_total",
            "Buffer-pool page requests satisfied without disk I/O",
            self.pool.hits,
        );
        render::counter(
            &mut out,
            "orion_pool_misses_total",
            "Buffer-pool page requests that read from disk",
            self.pool.misses,
        );
        render::counter(
            &mut out,
            "orion_pool_evictions_total",
            "Buffer-pool frames evicted to make room",
            self.pool.evictions,
        );
        render::counter(
            &mut out,
            "orion_pool_writebacks_total",
            "Dirty pages written back to disk",
            self.pool.writebacks,
        );
        render::counter(&mut out, "orion_disk_reads_total", "Pages read from disk", self.disk.reads);
        render::counter(
            &mut out,
            "orion_disk_writes_total",
            "Pages written to disk",
            self.disk.writes,
        );
        render::counter(
            &mut out,
            "orion_wal_appends_total",
            "Log records appended to the WAL",
            self.wal.appends,
        );
        render::counter(
            &mut out,
            "orion_wal_flushes_total",
            "Non-empty WAL flushes to stable storage",
            self.wal.flushes,
        );
        render::counter(
            &mut out,
            "orion_wal_flushed_bytes_total",
            "Bytes moved to the stable WAL",
            self.wal.flushed_bytes,
        );
        render::histogram(
            &mut out,
            "orion_wal_flush_latency_seconds",
            "WAL flush latency",
            &self.wal.flush_latency,
        );
        render::counter(
            &mut out,
            "orion_wal_torn_tail_truncations_total",
            "Torn WAL tails truncated at recovery (end-of-log discipline)",
            self.wal.torn_tail_truncations,
        );
        render::counter(
            &mut out,
            "orion_wal_fsyncs_total",
            "Durability barriers issued against the log device",
            self.wal.fsyncs,
        );
        render::counter(
            &mut out,
            "orion_wal_logical_records_total",
            "Logical DML records (insert/update/delete/CLR) appended",
            self.wal.logical_records,
        );
        render::plain_histogram(
            &mut out,
            "orion_wal_group_commit_batch_size",
            "Committers whose commits one group-commit flush made durable",
            &self.wal.group_commit_batch_size,
        );
        render::counter(
            &mut out,
            "orion_fault_read_errors_total",
            "Injected page-read I/O errors",
            self.fault.read_errors,
        );
        render::counter(
            &mut out,
            "orion_fault_write_errors_total",
            "Injected page-write I/O errors",
            self.fault.write_errors,
        );
        render::counter(
            &mut out,
            "orion_fault_torn_writes_total",
            "Injected torn page writes (prefix persisted)",
            self.fault.torn_writes,
        );
        render::counter(
            &mut out,
            "orion_fault_bit_flips_total",
            "Injected stored-page bit flips",
            self.fault.bit_flips,
        );
        render::counter(
            &mut out,
            "orion_fault_partial_flushes_total",
            "Injected partial WAL flushes",
            self.fault.partial_flushes,
        );
        render::counter(
            &mut out,
            "orion_recovery_completed_total",
            "Restart recoveries that completed",
            self.recovery.completed,
        );
        render::counter(
            &mut out,
            "orion_recovery_failed_total",
            "Restart recoveries that failed with an error",
            self.recovery.failed,
        );
        render::counter(
            &mut out,
            "orion_recovery_pages_repaired_total",
            "Corrupt pages rebuilt by log replay during recovery",
            self.recovery.pages_repaired,
        );
        render::counter(
            &mut out,
            "orion_lock_acquisitions_total",
            "Lock requests granted",
            self.locks.acquisitions,
        );
        render::counter(
            &mut out,
            "orion_lock_waits_total",
            "Lock requests that blocked at least once",
            self.locks.waits,
        );
        render::counter(
            &mut out,
            "orion_lock_deadlock_victims_total",
            "Lock requests aborted as deadlock victims",
            self.locks.deadlock_victims,
        );
        render::counter(
            &mut out,
            "orion_lock_timeouts_total",
            "Lock requests that timed out",
            self.locks.timeouts,
        );
        // Per-mode breakout (the render helpers are label-free, so each
        // mode gets its own series). With MVCC snapshot reads on, a
        // pure-query workload holds the S series at ~0 — the "queries
        // take no locks" claim is directly observable here.
        render::counter(
            &mut out,
            "orion_lock_acquisitions_is_total",
            "IS-mode lock grants (intention share)",
            self.locks.is_acquisitions,
        );
        render::counter(
            &mut out,
            "orion_lock_acquisitions_ix_total",
            "IX-mode lock grants (intention exclusive)",
            self.locks.ix_acquisitions,
        );
        render::counter(
            &mut out,
            "orion_lock_acquisitions_s_total",
            "S-mode lock grants (shared reads)",
            self.locks.s_acquisitions,
        );
        render::counter(
            &mut out,
            "orion_lock_acquisitions_six_total",
            "SIX-mode lock grants (share + intention exclusive)",
            self.locks.six_acquisitions,
        );
        render::counter(
            &mut out,
            "orion_lock_acquisitions_x_total",
            "X-mode lock grants (exclusive writes)",
            self.locks.x_acquisitions,
        );
        render::histogram(
            &mut out,
            "orion_lock_wait_latency_seconds",
            "Lock wait latency",
            &self.locks.wait_latency,
        );
        render::counter(
            &mut out,
            "orion_mvcc_snapshots_total",
            "Query snapshots captured",
            self.mvcc.snapshots,
        );
        render::counter(
            &mut out,
            "orion_mvcc_snapshot_reads_total",
            "Record reads resolved under a snapshot",
            self.mvcc.snapshot_reads,
        );
        render::counter(
            &mut out,
            "orion_mvcc_versions_published_total",
            "Committed versions appended to version chains",
            self.mvcc.versions_published,
        );
        render::counter(
            &mut out,
            "orion_mvcc_versions_pruned_total",
            "Superseded versions reclaimed by pruning",
            self.mvcc.versions_pruned,
        );
        render::histogram(
            &mut out,
            "orion_mvcc_version_chain_length",
            "Version-chain length observed at publish (unit: links)",
            &self.mvcc.chain_length,
        );
        render::gauge(
            &mut out,
            "orion_mvcc_active_snapshots",
            "Snapshots currently pinned by running queries",
            self.mvcc.active_snapshots,
        );
        render::gauge(
            &mut out,
            "orion_mvcc_oldest_snapshot_lag",
            "Commit-timestamp distance from the oldest active snapshot to the frontier",
            self.mvcc.oldest_snapshot_lag,
        );
        render::counter(
            &mut out,
            "orion_exec_queries_total",
            "Completed query executions",
            self.exec.queries,
        );
        render::counter(
            &mut out,
            "orion_exec_rows_scanned_total",
            "Candidate objects pulled from access paths",
            self.exec.rows_scanned,
        );
        render::counter(
            &mut out,
            "orion_exec_rows_matched_total",
            "Objects that survived the residual predicate",
            self.exec.rows_matched,
        );
        render::counter(
            &mut out,
            "orion_exec_memo_hits_total",
            "Reference steps served from the per-query referenced-object cache",
            self.exec.memo_hits,
        );
        render::counter(
            &mut out,
            "orion_exec_memo_lookups_total",
            "Reference steps taken by query evaluation",
            self.exec.memo_lookups,
        );
        render::counter(
            &mut out,
            "orion_exec_index_picks_total",
            "Plans that chose an index access path",
            self.exec.index_picks,
        );
        render::counter(
            &mut out,
            "orion_exec_scan_picks_total",
            "Plans that chose a full extent scan",
            self.exec.scan_picks,
        );
        render::gauge(
            &mut out,
            "orion_exec_last_parallelism",
            "Worker threads used by the most recent execution",
            self.exec.last_parallelism,
        );
        render::counter(
            &mut out,
            "orion_gate_shared_acquisitions_total",
            "Shared maintenance-gate acquisitions",
            self.gate.shared_acquisitions,
        );
        render::counter(
            &mut out,
            "orion_gate_exclusive_acquisitions_total",
            "Exclusive maintenance-gate acquisitions (rebuilds)",
            self.gate.exclusive_acquisitions,
        );
        render::histogram(
            &mut out,
            "orion_gate_exclusive_wait_seconds",
            "Exclusive gate wait for shared holders to drain",
            &self.gate.exclusive_wait,
        );
        render::counter(
            &mut out,
            "orion_object_fetches_total",
            "Objects decoded from storage",
            self.fetches,
        );
        render::counter(
            &mut out,
            "orion_method_calls_total",
            "Late-bound method dispatches",
            self.method_calls,
        );
        render::gauge(
            &mut out,
            "orion_net_connections",
            "Currently open client connections",
            self.net.connections,
        );
        render::counter(
            &mut out,
            "orion_net_connections_total",
            "Client connections accepted since startup",
            self.net.connections_total,
        );
        render::counter(
            &mut out,
            "orion_net_requests_total",
            "Wire requests served",
            self.net.requests,
        );
        render::counter(
            &mut out,
            "orion_net_errors_total",
            "Wire requests answered with an error response",
            self.net.errors,
        );
        render::counter(
            &mut out,
            "orion_net_timeouts_total",
            "Connections evicted for idleness or I/O timeout",
            self.net.timeouts,
        );
        render::counter(
            &mut out,
            "orion_net_busy_rejections_total",
            "Connections refused at the door (connection cap or accept queue)",
            self.net.busy_rejections,
        );
        render::histogram(
            &mut out,
            "orion_net_request_latency_seconds",
            "Server-side request latency",
            &self.net.request_latency,
        );
        render::plain_histogram(
            &mut out,
            "orion_net_pipeline_depth",
            "Per-connection pipeline depth at request admission (unit: requests)",
            &self.net.pipeline_depth,
        );
        render::counter(
            &mut out,
            "orion_net_requests_shed_total",
            "Requests shed with ServerBusy by admission control",
            self.net.requests_shed,
        );
        render::counter(
            &mut out,
            "orion_net_readiness_wakeups_total",
            "Event-loop wakeups across all I/O threads",
            self.net.readiness_wakeups,
        );
        render::counter(
            &mut out,
            "orion_net_executor_turns_total",
            "Executor turns: times an executor took a connection's lane",
            self.net.executor_turns,
        );
        render::gauge(
            &mut out,
            "orion_net_readiness_wakeups_per_sec",
            "Recent event-loop wakeup rate",
            self.net.readiness_wakeups_per_sec,
        );
        render::gauge(
            &mut out,
            "orion_net_connections_per_worker",
            "Open connections per event-loop thread",
            self.net.connections_per_worker,
        );
        render::gauge(
            &mut out,
            "orion_2pc_prepared_transactions",
            "Transactions prepared and awaiting a coordinator decision",
            self.twopc.prepared,
        );
        render::counter(
            &mut out,
            "orion_2pc_prepares_total",
            "Transactions that entered the prepared state",
            self.twopc.prepares,
        );
        render::counter(
            &mut out,
            "orion_2pc_commits_total",
            "Prepared transactions committed by coordinator decision",
            self.twopc.commits,
        );
        render::counter(
            &mut out,
            "orion_2pc_aborts_total",
            "Prepared transactions aborted by coordinator decision",
            self.twopc.aborts,
        );
        render::counter(
            &mut out,
            "orion_2pc_in_doubt_recovered_total",
            "In-doubt transactions reinstated from the log at recovery",
            self.twopc.in_doubt_recovered,
        );
        out
    }
}
