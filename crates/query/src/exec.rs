//! The query executor.
//!
//! Pulls candidate OIDs from the chosen access path, evaluates the
//! residual predicate by navigating the nested object structure (the
//! paper's "query against the nested definition of the class"), then
//! orders, limits, and projects.
//!
//! Null semantics are two-valued: a comparison against an absent or
//! null value is simply false (`is null` exists to test absence
//! explicitly). Set-valued steps quantify existentially.
//!
//! Evaluation is a batch pipeline ([`crate::batch`]): the candidates are
//! walked in contiguous batches, the source serves each batch's records
//! in one [`DataSource::fetch`] call, and the residual, order key and
//! projection are evaluated against that one record per candidate. The
//! walk follows [`DataSource::walk`] (storage order, so a scan reads
//! each page once; each batch hands the walk's locations back to
//! `fetch`, so a scanned row is located once) but every outcome is
//! keyed by its candidate position and merged back in candidate order —
//! so the result is byte-identical whatever the walk order, batch size
//! or worker count, including `order by` tie handling.

use crate::ast::{CmpOp, Expr, Path, Query, SelectItem};
use crate::batch::{run_pass, Hit, Pass, Program, BATCH};
use crate::plan::{literal_value, AccessPath, PlannedQuery};
use crate::source::DataSource;
use orion_schema::Catalog;
use orion_types::{ClassId, DbResult, Oid, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// A query result: one row per match (or one row for `count(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Projected rows, aligned with the query's select list.
    pub rows: Vec<Vec<Value>>,
    /// The matching objects (empty for `count(*)`).
    pub oids: Vec<Oid>,
}

impl QueryResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Execution tuning for [`execute_with`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads for candidate evaluation: `0` sizes to the
    /// machine's available parallelism and the candidate count,
    /// `1` forces one worker, `n > 1` forces `n` workers.
    pub threads: usize,
    /// Candidates per [`DataSource::fetch`] call; `0` (the default)
    /// uses the built-in size. Results never depend on it — tests
    /// shrink it to put batch boundaries everywhere.
    pub batch: usize,
    /// Cross-query metrics sink shared by every plan executed with
    /// these options (a `Database` attaches its own). `None` disables
    /// global accounting; the per-plan [`ExecStats`] is always kept.
    pub metrics: Option<Arc<ExecMetrics>>,
}

impl ExecOptions {
    /// Options with an explicit worker count and no metrics sink.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions { threads, ..ExecOptions::default() }
    }
}

orion_obs::metrics! {
    /// Plain-value snapshot of [`ExecMetrics`].
    pub struct ExecSnapshot;
    /// Cross-query executor metrics, accumulated over every execution that
    /// carries the same [`ExecOptions::metrics`] sink. All counters are
    /// lock-free atomics: workers update them without coordination and a
    /// snapshot never blocks a running query.
    pub struct ExecMetrics;
    /// Completed query executions.
    queries: counter("orion_exec_queries_total", "Completed query executions"),
    /// Candidate objects pulled from access paths (before the residual
    /// predicate runs).
    rows_scanned: counter("orion_exec_rows_scanned_total", "Candidate objects pulled from access paths"),
    /// Objects that survived the residual predicate.
    rows_matched: counter("orion_exec_rows_matched_total", "Objects that survived the residual predicate"),
    /// Reference steps served from a worker's referenced-object cache,
    /// summed across executions.
    memo_hits: counter("orion_exec_memo_hits_total", "Reference steps served from the per-query referenced-object cache"),
    /// Reference steps taken (each is a cache lookup), summed across
    /// executions.
    memo_lookups: counter("orion_exec_memo_lookups_total", "Reference steps taken by query evaluation"),
    /// Plans that chose an index access path (counted at prepare time).
    index_picks: counter("orion_exec_index_picks_total", "Plans that chose an index access path"),
    /// Plans that chose a full extent scan (counted at prepare time).
    scan_picks: counter("orion_exec_scan_picks_total", "Plans that chose a full extent scan"),
    /// Worker threads used by the most recent execution.
    last_parallelism: gauge("orion_exec_last_parallelism", "Worker threads used by the most recent execution"),
}

/// Counters describing the most recent execution of a plan, surfaced
/// through [`PlannedQuery::explain`].
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Completed executions of this plan.
    pub executions: AtomicU64,
    /// Worker threads used by the last execution.
    pub parallelism: AtomicUsize,
    /// Referenced-object cache hits during the last execution.
    pub memo_hits: AtomicU64,
    /// Reference steps taken during the last execution.
    pub memo_lookups: AtomicU64,
}

/// Fewest candidates a worker must be given before a further thread
/// pays for its spawn and for sharing the source's page cache (auto
/// sizing only; explicit thread counts are obeyed). Sized by
/// measurement: see `BENCH_parallel_query.json`.
const PAR_MIN_PER_WORKER: usize = 4096;

/// The degree of parallelism for `items` candidates. The machine's
/// parallelism is asked once per process, and not at all for an input
/// too small to split.
fn resolve_threads(requested: usize, items: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    if requested > 0 {
        return requested.min(items.max(1));
    }
    let workers = items / PAR_MIN_PER_WORKER;
    if workers < 2 {
        return 1;
    }
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    hw.min(workers)
}

/// Evaluate `path` from `oid`, returning every reachable leaf value.
///
/// Attribute resolution is by *name through the actual class of each
/// object encountered*, so polymorphic references (a `Vehicle` attribute
/// holding a `Truck`) read the right attribute even under shadowing.
///
/// This and [`eval_expr`] are the executor's *reference semantics*: one
/// object and one attribute at a time, no batching, no caching. The
/// batch pipeline must agree with them (the property tests compare).
pub fn path_values(
    catalog: &Catalog,
    source: &dyn DataSource,
    oid: Oid,
    path: &Path,
) -> DbResult<Vec<Value>> {
    let mut current = vec![Value::Ref(oid)];
    for step in &path.steps {
        let mut next = Vec::new();
        for v in &current {
            let Value::Ref(o) = v else { continue };
            let Ok(resolved) = catalog.resolve(o.class()) else { continue };
            let Some(attr) = resolved.attr(step) else { continue };
            let record = source.fetch(&[*o], None, &[attr.id])?.pop().flatten();
            let mut value = record.and_then(|r| r.get(attr.id).cloned()).unwrap_or(Value::Null);
            if value.is_null() && !attr.default.is_null() {
                value = attr.default.clone();
            }
            match value {
                Value::Null => {}
                Value::Set(items) | Value::List(items) => next.extend(items),
                other => next.push(other),
            }
        }
        current = next;
    }
    Ok(current)
}

/// Match a `like` pattern: `%` matches any run of characters; everything
/// else is literal. Anchored at both ends.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return pattern == text;
    }
    let mut at = 0usize;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            if !text.starts_with(part) {
                return false;
            }
            at = part.len();
        } else if i == parts.len() - 1 {
            return text.len() >= at && text[at..].ends_with(part);
        } else {
            match text[at..].find(part) {
                Some(p) => at += p + part.len(),
                None => return false,
            }
        }
    }
    true
}

/// Does the stored value `v` satisfy `v <op> want`? (A null
/// `v` satisfies nothing: comparisons are two-valued.)
pub(crate) fn cmp_holds(op: CmpOp, v: &Value, want: &Value) -> bool {
    if v.is_null() {
        return false;
    }
    match op {
        CmpOp::Eq => v.eq_total(want),
        CmpOp::Ne => !v.eq_total(want),
        CmpOp::Lt => v.cmp_total(want) == Ordering::Less,
        CmpOp::Le => v.cmp_total(want) != Ordering::Greater,
        CmpOp::Gt => v.cmp_total(want) == Ordering::Greater,
        CmpOp::Ge => v.cmp_total(want) != Ordering::Less,
        CmpOp::Like => match (v.as_str(), want.as_str()) {
            (Some(text), Some(pattern)) => like_match(pattern, text),
            _ => false,
        },
    }
}

/// Evaluate a predicate for one object (the reference semantics; see
/// [`path_values`]).
pub fn eval_expr(
    catalog: &Catalog,
    source: &dyn DataSource,
    oid: Oid,
    expr: &Expr,
) -> DbResult<bool> {
    let values = |path| path_values(catalog, source, oid, path);
    let eval = |e| eval_expr(catalog, source, oid, e);
    match expr {
        Expr::Cmp { path, op, value } => {
            let want = literal_value(value);
            // Comparisons against null are false; `is null` tests absence.
            Ok(!want.is_null() && values(path)?.iter().any(|v| cmp_holds(*op, v, &want)))
        }
        Expr::Contains { path, value } => {
            let want = literal_value(value);
            Ok(values(path)?.iter().any(|v| v.eq_total(&want)))
        }
        Expr::IsNull { path } => Ok(values(path)?.iter().all(|v| v.is_null())),
        Expr::IsA { class } => Ok(catalog.is_subclass(oid.class(), catalog.class_id(class)?)),
        Expr::And(a, b) => Ok(eval(a)? && eval(b)?),
        Expr::Or(a, b) => Ok(eval(a)? || eval(b)?),
        Expr::Not(e) => Ok(!eval(e)?),
    }
}

/// One `order by` sort key with its match's position. The ordering
/// reproduces the reference semantics exactly: ascending is a stable
/// sort by key (ties keep candidate order), descending is that sort
/// *reversed* (ties in reverse candidate order) — so descending
/// compares both key and position reversed.
struct SortEntry {
    key: Value,
    /// Index into the matches, which are in candidate order.
    pos: usize,
    asc: bool,
}

impl PartialEq for SortEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SortEntry {}

impl PartialOrd for SortEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        let base = self.key.cmp_total(&other.key).then(self.pos.cmp(&other.pos));
        if self.asc {
            base
        } else {
            base.reverse()
        }
    }
}

/// Execute a planned query with default options (auto parallelism).
pub fn execute(
    catalog: &Catalog,
    source: &dyn DataSource,
    plan: &PlannedQuery,
) -> DbResult<QueryResult> {
    execute_with(catalog, source, plan, &ExecOptions::default())
}

/// Execute a planned query.
///
/// Work is partitioned by position in the walk and merged by candidate
/// position, so the `QueryResult` is byte-identical for every thread
/// count and batch size — including error selection (the first failing
/// candidate in candidate order wins) and the `limit` early-exit
/// semantics (errors past the point where an in-order serial walk
/// would have stopped are discarded, not surfaced).
pub fn execute_with(
    catalog: &Catalog,
    source: &dyn DataSource,
    plan: &PlannedQuery,
    opts: &ExecOptions,
) -> DbResult<QueryResult> {
    let scope: &[ClassId] = &plan.scope;
    // 1. Candidates from the access path, and those of an index probe
    // the source wants judged by the whole predicate.
    let (mut candidates, recheck) = match &plan.access {
        AccessPath::Scan => {
            let mut out = Vec::new();
            for class in scope {
                out.extend(source.scan_class(*class)?);
            }
            (out, Vec::new())
        }
        lead => {
            let probes: Vec<&AccessPath> = std::iter::once(lead).chain(&plan.intersect).collect();
            source.index_probe(&probes, scope)?
        }
    };
    // Index results may contain classes outside scope for single-class
    // indexes probed with a wider scope — filter defensively.
    candidates.retain(|o| scope.binary_search(&o.class()).is_ok());
    let scanned = candidates.len();

    // The plan's compiled form, unless the schema moved under it.
    let recompiled;
    let program = if plan.program.schema_version == catalog.version() {
        &*plan.program
    } else {
        recompiled = Program::compile(catalog, &plan.query, &plan.access, plan.residual.as_ref())?;
        &recompiled
    };
    let mut run = Run {
        catalog,
        source,
        program,
        requested_threads: opts.threads,
        threads: resolve_threads(opts.threads, scanned),
        batch: if opts.batch > 0 { opts.batch } else { BATCH },
        ref_hits: 0,
        ref_lookups: 0,
    };
    let count = is_count(&plan.query);
    let ordered = plan.query.order_by.is_some() && !count;
    let limit = plan.query.limit;
    // Early exit: no ordering means any `limit` objects do.
    let early_limit = if ordered || count { None } else { limit };
    // A bounded `order by` keeps a handful of the matches: those are
    // projected in a second pass over just them, not for every match.
    let project_late = ordered && limit.is_some();
    let pass = Pass {
        filter: program.has_residual() || !recheck.is_empty(),
        recheck: &recheck,
        key: ordered,
        rows: !count && !project_late && program.projects_paths(),
    };

    // 2. One pass over the candidates: residual, order key, projection.
    let (mut matches, mut hits): (Vec<Oid>, Vec<Hit>) = if pass.filter || pass.key || pass.rows {
        let passed = run.pass(pass, &candidates, early_limit)?;
        passed.into_iter().map(|(pos, hit)| (candidates[pos], hit)).unzip()
    } else {
        // Nothing to read: every candidate matches as it stands.
        candidates.truncate(early_limit.unwrap_or(usize::MAX));
        (candidates, Vec::new())
    };

    // 3. count(*) short-circuits ordering and projection.
    if count {
        run.finish(plan, opts, scanned, matches.len());
        return Ok(QueryResult {
            rows: vec![vec![Value::Int(matches.len() as i64)]],
            oids: Vec::new(),
        });
    }

    // 4. Order (bounded top-K when a limit is present).
    if let Some((_, asc)) = &plan.query.order_by {
        let entries = hits.iter_mut().enumerate().map(|(pos, hit)| SortEntry {
            key: std::mem::replace(&mut hit.key, Value::Null),
            pos,
            asc: *asc,
        });
        let sorted = match limit {
            // A full sort of N matches to keep K is wasted work: a
            // bounded max-heap of K entries evicts the current worst as
            // it goes, then drains in final order.
            Some(limit) if limit < matches.len() => {
                let mut heap: BinaryHeap<SortEntry> = BinaryHeap::with_capacity(limit + 1);
                for e in entries {
                    heap.push(e);
                    if heap.len() > limit {
                        heap.pop();
                    }
                }
                heap.into_sorted_vec()
            }
            _ => {
                let mut entries: Vec<SortEntry> = entries.collect();
                entries.sort();
                entries
            }
        };
        matches = sorted.iter().map(|e| matches[e.pos]).collect();
        if pass.rows {
            hits = sorted
                .iter()
                .map(|e| Hit { key: Value::Null, row: std::mem::take(&mut hits[e.pos].row) })
                .collect();
        }
    }

    // 5. Limit.
    if let Some(limit) = limit {
        matches.truncate(limit);
        hits.truncate(limit);
    }

    // 6. Project.
    let rows: Vec<Vec<Value>> = if pass.rows {
        hits.into_iter().map(|hit| hit.row).collect()
    } else if program.projects_paths() {
        let rows_only = Pass { filter: false, recheck: &[], key: false, rows: true };
        run.pass(rows_only, &matches, None)?.into_iter().map(|(_, hit)| hit.row).collect()
    } else {
        matches.iter().map(|oid| vec![Value::Ref(*oid); plan.query.select.len()]).collect()
    };

    run.finish(plan, opts, scanned, matches.len());
    Ok(QueryResult { rows, oids: matches })
}

/// One execution's fixed context and its running counters.
struct Run<'a> {
    catalog: &'a Catalog,
    source: &'a dyn DataSource,
    program: &'a Program,
    requested_threads: usize,
    /// The degree chosen for the candidate pass (what gets reported).
    threads: usize,
    batch: usize,
    ref_hits: u64,
    ref_lookups: u64,
}

impl Run<'_> {
    /// Evaluate `pass` over `oids` and merge the outcomes back into
    /// `oids` order: the surviving `(position, values)` pairs, or the
    /// first error in that order. With `stop_after`, the merge ends at
    /// that many survivors (and an error beyond them is never seen).
    fn pass(
        &mut self,
        pass: Pass,
        oids: &[Oid],
        stop_after: Option<usize>,
    ) -> DbResult<Vec<(usize, Hit)>> {
        // Walk in storage order when records are read at all, there is
        // more than one batch to order, and no early exit that depends
        // on walking in sequence.
        let reads = self.program.reads_records(pass);
        let walk = if reads && stop_after.is_none() && oids.len() > self.batch {
            self.source.walk(oids)
        } else {
            None
        };
        let threads = resolve_threads(self.requested_threads, oids.len());
        let mut result = run_pass(
            self.catalog,
            self.source,
            self.program,
            pass,
            oids,
            walk.as_ref(),
            threads,
            self.batch,
            stop_after,
        );
        self.ref_hits += result.ref_hits;
        self.ref_lookups += result.ref_lookups;
        if walk.is_some() {
            result.outcomes.sort_unstable_by_key(|(pos, _)| *pos);
        }
        let mut survivors = Vec::with_capacity(result.outcomes.len());
        for (pos, outcome) in result.outcomes {
            if stop_after.is_some_and(|limit| survivors.len() >= limit) {
                break;
            }
            survivors.push((pos as usize, outcome?));
        }
        Ok(survivors)
    }

    fn finish(&self, plan: &PlannedQuery, opts: &ExecOptions, scanned: usize, matched: usize) {
        let stats = &plan.exec_stats;
        stats.parallelism.store(self.threads, Relaxed);
        stats.memo_hits.store(self.ref_hits, Relaxed);
        stats.memo_lookups.store(self.ref_lookups, Relaxed);
        stats.executions.fetch_add(1, Relaxed);
        if let Some(metrics) = &opts.metrics {
            metrics.queries.inc();
            metrics.rows_scanned.add(scanned as u64);
            metrics.rows_matched.add(matched as u64);
            metrics.memo_hits.add(self.ref_hits);
            metrics.memo_lookups.add(self.ref_lookups);
            metrics.last_parallelism.set(self.threads as u64);
        }
    }
}

fn is_count(query: &Query) -> bool {
    matches!(query.select.as_slice(), [SelectItem::Count])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching() {
        assert!(like_match("Detroit", "Detroit"));
        assert!(!like_match("Detroit", "detroit"));
        assert!(like_match("Det%", "Detroit"));
        assert!(like_match("%troit", "Detroit"));
        assert!(like_match("%tro%", "Detroit"));
        assert!(like_match("D%t%t", "Detroit"));
        assert!(!like_match("D%x%", "Detroit"));
        assert!(like_match("%", "anything"));
        assert!(like_match("%", ""));
        assert!(!like_match("a%b", "ab_c"));
        assert!(like_match("a%b", "ab"));
    }

    #[test]
    fn thread_resolution() {
        // Explicit counts are obeyed (capped by the candidate count).
        assert_eq!(resolve_threads(4, 1000), 4);
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(1, 1000), 1);
        // Auto sizing refuses to spawn for small inputs.
        assert_eq!(resolve_threads(0, 10), 1);
        assert_eq!(resolve_threads(0, 2 * PAR_MIN_PER_WORKER - 1), 1);
    }
}
