//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` carries the same tables (plus the
//! regression bounds); `validate` fails when the two drift apart.

/// `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

/// What a user of the system sees; printed by untraced runs, for every
/// workload. Timing tails are not here: see the README's "Tails".
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("restart_s", "s", "lower"),
    ("space_amp", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Single-layer metrics (layer = crate); printed by traced runs.
pub const PER_LAYER: &[Metric] = &[
    // Tails of the end-to-end latencies: too unsteady on a shared host
    // to carry a bound, so they are reported here, without one.
    ("e2e.read_tail_ms", "ms", "lower"),
    ("e2e.write_tail_ms", "ms", "lower"),
    ("e2e.failed_share", "ratio", "lower"),
    // net
    ("net.ping_rtt_us", "us", "lower"),
    ("net.request_encode_ns", "ns", "lower"),
    ("net.request_decode_ns", "ns", "lower"),
    ("net.response_encode_ns", "ns", "lower"),
    ("net.response_decode_ns", "ns", "lower"),
    ("net.frame_decode_ns", "ns", "lower"),
    ("net.result_encode_ns_per_row", "ns", "lower"),
    ("net.result_decode_ns_per_row", "ns", "lower"),
    ("net.wire_overhead_us", "us", "lower"),
    ("net.unattributed_us", "us", "lower"),
    ("net.wakeups_per_request", "ratio", "lower"),
    ("net.pipeline_depth_mean", "count", "higher"),
    ("net.requests_shed", "count", "lower"),
    ("net.errors", "count", "lower"),
    // tx
    ("tx.lock_cycle_ns", "ns", "lower"),
    ("tx.locks_per_read", "count", "lower"),
    ("tx.locks_per_write", "count", "lower"),
    ("tx.locks_per_query", "count", "lower"),
    ("tx.lock_waits", "count", "lower"),
    ("tx.lock_wait_p99_us", "us", "lower"),
    ("tx.deadlock_victims", "count", "lower"),
    ("tx.lock_timeouts", "count", "lower"),
    // storage
    ("storage.wal_append_ns", "ns", "lower"),
    ("storage.commit_flush_us", "us", "lower"),
    ("storage.fsyncs_per_read", "count", "lower"),
    ("storage.fsyncs_per_write", "count", "lower"),
    ("storage.fsyncs_per_txn", "count", "lower"),
    ("storage.wal_appends_per_op", "count", "lower"),
    ("storage.wal_bytes_per_write", "B", "lower"),
    ("storage.group_commit_batch_mean", "count", "higher"),
    ("storage.flush_p50_us", "us", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.pool_misses_per_query", "count", "lower"),
    ("storage.pool_evictions", "count", "lower"),
    ("storage.disk_reads", "count", "lower"),
    ("storage.disk_writes", "count", "lower"),
    ("storage.wal_bytes_total", "B", "lower"),
    ("storage.pages_bytes_total", "B", "lower"),
    ("storage.rss_growth_b_per_op", "B", "lower"),
    // core
    ("core.get_ns", "ns", "lower"),
    ("core.set_ns", "ns", "lower"),
    ("core.get_autocommit_us", "us", "lower"),
    ("core.set_autocommit_us", "us", "lower"),
    ("core.navigate_ns", "ns", "lower"),
    ("core.fetches_per_row_scanned", "ratio", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.cache_evictions", "count", "lower"),
    ("core.mvcc_snapshot_reads_per_row", "ratio", "lower"),
    ("core.mvcc_versions_published", "count", "lower"),
    ("core.mvcc_versions_pruned", "count", "higher"),
    ("core.mvcc_chain_len_max", "count", "lower"),
    ("core.gate_exclusive", "count", "lower"),
    // query
    ("query.parse_ns", "ns", "lower"),
    ("query.plan_ns", "ns", "lower"),
    ("query.exec_us", "us", "lower"),
    ("query.ns_per_row_scanned", "ns", "lower"),
    ("query.rows_scanned_per_row_returned", "ratio", "lower"),
    ("query.memo_hit_ratio", "ratio", "higher"),
    ("query.index_picks", "count", "higher"),
    ("query.scan_picks", "count", "lower"),
    ("query.parallelism", "count", "higher"),
    // index
    ("index.btree_insert_ns", "ns", "lower"),
    ("index.btree_get_ns", "ns", "lower"),
    ("index.btree_range_ns_per_key", "ns", "lower"),
    ("index.maintain_ns_per_update", "ns", "lower"),
    ("index.candidates_per_row", "ratio", "lower"),
    ("index.entries", "count", "lower"),
    ("index.torn_reads", "count", "lower"),
    // types
    ("types.record_encode_ns", "ns", "lower"),
    ("types.record_decode_ns", "ns", "lower"),
    ("types.record_bytes", "B", "lower"),
    // schema
    ("schema.subtree_resolve_ns", "ns", "lower"),
    // obs
    ("obs.stats_snapshot_us", "us", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
];

/// The unit of `name` in `table`.
pub fn unit_of(table: &[Metric], name: &str) -> Option<&'static str> {
    table.iter().find(|m| m.0 == name).map(|m| m.1)
}
