//! Binding and cost-based access-path selection.
//!
//! "A major new component, namely the query optimizer, had to be added
//! to the database system to automatically arrive at an optimal plan ...
//! such that the plan will make use of appropriate access methods
//! available in the system" (§2.2) — and the early-OODB criticism the
//! paper rebuts is precisely that object systems regress to navigation
//! (§3.3 point 3). This module is that component for orion: it binds a
//! parsed query against the catalog, extracts sargable conjuncts, and
//! chooses among extent scan, single-class index, class-hierarchy index,
//! and nested-attribute index by estimated cost (experiment E4).

use crate::ast::{CmpOp, Expr, Literal, Path, Query};
use crate::batch::Program;
use crate::exec::ExecStats;
use crate::source::DataSource;
use orion_index::{IndexDef, IndexInstance, IndexKind};
use orion_schema::Catalog;
use orion_types::{ClassId, DbError, DbResult, Oid, Value};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Convert a literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// The chosen access path.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan the extents of every class in scope.
    Scan,
    /// Probe index `index` for one key.
    IndexEq {
        /// Index id.
        index: u32,
        /// Probe key.
        key: Value,
    },
    /// Scan index `index` over a key range.
    IndexRange {
        /// Index id.
        index: u32,
        /// Lower bound.
        lower: Bound<Value>,
        /// Upper bound.
        upper: Bound<Value>,
    },
}

impl AccessPath {
    /// The index this path probes (`None` for a scan).
    pub fn index(&self) -> Option<u32> {
        match self {
            AccessPath::Scan => None,
            AccessPath::IndexEq { index, .. } | AccessPath::IndexRange { index, .. } => {
                Some(*index)
            }
        }
    }

    /// Probe `inst`'s entries for this path's keys, restricted to the
    /// sorted class set `scope` (nothing for a scan).
    pub fn probe(&self, inst: &IndexInstance, scope: &[ClassId]) -> Vec<Oid> {
        match self {
            AccessPath::Scan => Vec::new(),
            AccessPath::IndexEq { key, .. } => inst.imp.lookup_eq(key, Some(scope)),
            AccessPath::IndexRange { lower, upper, .. } => {
                inst.imp.lookup_range(lower.as_ref(), upper.as_ref(), Some(scope))
            }
        }
    }
}

/// A bound, optimized query ready for execution.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The original parsed query (names drive execution).
    pub query: Query,
    /// The bound target class.
    pub target: ClassId,
    /// The classes whose extents are in scope, sorted ascending.
    pub scope: Vec<ClassId>,
    /// The chosen access path.
    pub access: AccessPath,
    /// Conjuncts not answered by the access path; evaluated per object.
    pub residual: Option<Expr>,
    /// Estimated result cardinality (diagnostics).
    pub estimated_candidates: usize,
    /// `query` and `residual` (for an index path, the whole predicate
    /// too) compiled for the batch executor: paths interned, literals
    /// converted, readable attribute ids collected.
    pub(crate) program: Arc<Program>,
    /// Counters from the most recent execution of this plan (shared
    /// across clones; filled by [`crate::exec::execute_with`]).
    pub exec_stats: Arc<ExecStats>,
}

impl PlannedQuery {
    /// A structured description of the plan: the chosen access path,
    /// scope width, cardinality estimate, residual predicate, and —
    /// once the plan has run — the last execution's parallelism and
    /// referenced-object cache hit rate. Its `Display` is the classic one-line
    /// explain text (experiment E4 asserts on it).
    pub fn report(&self) -> ExplainReport {
        let last_run = if self.exec_stats.executions.load(Relaxed) > 0 {
            Some(RunStats {
                parallelism: self.exec_stats.parallelism.load(Relaxed),
                memo_hits: self.exec_stats.memo_hits.load(Relaxed),
                memo_lookups: self.exec_stats.memo_lookups.load(Relaxed),
            })
        } else {
            None
        };
        ExplainReport {
            access: self.access.clone(),
            scope_classes: self.scope.len(),
            estimated_candidates: self.estimated_candidates,
            residual: self.residual.clone(),
            last_run,
        }
    }
}

/// Structured explain output for a [`PlannedQuery`]. The `Display`
/// implementation renders the one-line explain text, so log scrapes
/// and test assertions keep working while programs match on the fields
/// instead of the string.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// The chosen access path.
    pub access: AccessPath,
    /// Number of class extents in scope.
    pub scope_classes: usize,
    /// Estimated result cardinality.
    pub estimated_candidates: usize,
    /// The residual predicate, if any conjunct survived the access path.
    pub residual: Option<Expr>,
    /// Stats from the most recent execution; `None` until the plan runs.
    pub last_run: Option<RunStats>,
}

/// Execution stats attached to an [`ExplainReport`] after a plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Worker threads used.
    pub parallelism: usize,
    /// Reference steps served from the referenced-object cache.
    pub memo_hits: u64,
    /// Reference steps taken.
    pub memo_lookups: u64,
}

impl RunStats {
    /// Cache hit rate in whole percent (0 when there were no lookups).
    pub fn memo_hit_pct(&self) -> u64 {
        (self.memo_hits * 100).checked_div(self.memo_lookups).unwrap_or(0)
    }
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.access {
            AccessPath::Scan => write!(f, "scan of {} class extent(s)", self.scope_classes)?,
            AccessPath::IndexEq { index, key } => write!(f, "index #{index} probe key={key}")?,
            AccessPath::IndexRange { index, .. } => write!(f, "index #{index} range scan")?,
        }
        write!(f, " (~{} candidates)", self.estimated_candidates)?;
        if let Some(e) = &self.residual {
            write!(f, " residual=[{e}]")?;
        }
        if let Some(run) = &self.last_run {
            write!(
                f,
                "; last run: parallelism={}, memo hits {}/{} ({}%)",
                run.parallelism,
                run.memo_hits,
                run.memo_lookups,
                run.memo_hit_pct()
            )?;
        }
        Ok(())
    }
}

/// A sargable constraint on one attribute path: the *merged* bounds of
/// every range conjunct on that path (`w >= a and w < b` becomes one
/// `[a, b)` index range).
#[derive(Debug)]
struct Sarg {
    path_ids: Vec<u32>,
    lower: Bound<Value>,
    upper: Bound<Value>,
    /// Indices into the conjunct list (excluded from the residual when
    /// the index serves this sarg).
    conjuncts: Vec<usize>,
}

/// Keep the tighter of two lower bounds.
fn tighten_lower(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    use std::cmp::Ordering::*;
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.cmp_total(y) {
                Greater => a,
                Less => b,
                Equal => {
                    // Excluded is tighter at the same key.
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

/// Keep the tighter of two upper bounds.
fn tighten_upper(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    use std::cmp::Ordering::*;
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.cmp_total(y) {
                Less => a,
                Greater => b,
                Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

/// Resolve a name path from `class` into catalog attribute ids.
/// Validates that intermediate steps are reference-valued.
pub fn bind_path(catalog: &Catalog, class: ClassId, path: &Path) -> DbResult<Vec<u32>> {
    let mut ids = Vec::with_capacity(path.steps.len());
    let mut cur = class;
    for (i, step) in path.steps.iter().enumerate() {
        let resolved = catalog.resolve(cur)?;
        let attr = resolved.attr(step).ok_or_else(|| DbError::UnknownAttribute {
            class: resolved.name.clone(),
            attribute: step.clone(),
        })?;
        ids.push(attr.id);
        if i + 1 < path.steps.len() {
            cur = attr.domain.leaf_class().ok_or_else(|| {
                DbError::Query(format!(
                    "attribute `{}` of `{}` has primitive domain `{}`; cannot navigate further",
                    step, resolved.name, attr.domain
                ))
            })?;
        }
    }
    Ok(ids)
}

/// Is every step of `path` single-valued (no set/list domain)? Governs
/// whether range conjuncts on the path may be merged into one sarg.
pub fn path_is_single_valued(catalog: &Catalog, class: ClassId, path: &Path) -> DbResult<bool> {
    let mut cur = class;
    for (i, step) in path.steps.iter().enumerate() {
        let resolved = catalog.resolve(cur)?;
        let attr = resolved.attr(step).ok_or_else(|| DbError::UnknownAttribute {
            class: resolved.name.clone(),
            attribute: step.clone(),
        })?;
        if matches!(attr.domain, orion_types::Domain::SetOf(_) | orion_types::Domain::ListOf(_)) {
            return Ok(false);
        }
        if i + 1 < path.steps.len() {
            match attr.domain.leaf_class() {
                Some(c) => cur = c,
                None => return Ok(true),
            }
        }
    }
    Ok(true)
}

/// Memoized path resolution within one `plan()` call. A query names
/// the same path in several conjuncts (and again in select/order
/// clauses); each distinct path is resolved against the catalog once
/// and its `(attribute ids, single-valued)` pair is reused.
struct PathBinder<'c> {
    catalog: &'c Catalog,
    target: ClassId,
    cache: HashMap<Vec<String>, (Vec<u32>, bool)>,
}

impl<'c> PathBinder<'c> {
    fn new(catalog: &'c Catalog, target: ClassId) -> Self {
        PathBinder { catalog, target, cache: HashMap::new() }
    }

    fn bind(&mut self, path: &Path) -> DbResult<&(Vec<u32>, bool)> {
        if !self.cache.contains_key(&path.steps) {
            let ids = bind_path(self.catalog, self.target, path)?;
            let single = path_is_single_valued(self.catalog, self.target, path)?;
            self.cache.insert(path.steps.clone(), (ids, single));
        }
        Ok(&self.cache[&path.steps])
    }
}

/// Validate every path in the expression against the schema.
fn validate_expr(binder: &mut PathBinder<'_>, expr: &Expr) -> DbResult<()> {
    match expr {
        Expr::Cmp { path, .. } | Expr::Contains { path, .. } | Expr::IsNull { path } => {
            binder.bind(path).map(|_| ())
        }
        Expr::IsA { class: name } => binder.catalog.class_id(name).map(|_| ()),
        Expr::And(a, b) | Expr::Or(a, b) => {
            validate_expr(binder, a)?;
            validate_expr(binder, b)
        }
        Expr::Not(e) => validate_expr(binder, e),
    }
}

/// Bind and optimize a parsed query against the catalog and a source.
pub fn plan(catalog: &Catalog, source: &dyn DataSource, query: Query) -> DbResult<PlannedQuery> {
    let target = catalog.class_id(&query.target)?;
    let scope: Vec<ClassId> = if query.hierarchy {
        catalog.subtree(target)?.as_ref().clone()
    } else {
        vec![target]
    };

    // Validate select/order/predicate paths up front. The binder caches
    // each distinct path's resolution for the rest of this plan() call.
    let mut binder = PathBinder::new(catalog, target);
    for item in &query.select {
        if let crate::ast::SelectItem::Path(p) = item {
            binder.bind(p)?;
        }
    }
    if let Some((p, _)) = &query.order_by {
        binder.bind(p)?;
    }
    if let Some(pred) = &query.predicate {
        validate_expr(&mut binder, pred)?;
    }

    let scan_cost: usize = scope.iter().map(|c| source.extent_size(*c)).sum();

    // Extract sargable conjuncts (groups of range constraints per path).
    let conjuncts: Vec<Expr> =
        query.predicate.as_ref().map(|p| p.conjuncts().into_iter().cloned().collect()).unwrap_or_default();
    let mut sargs: Vec<Sarg> = Vec::new();
    for (i, conj) in conjuncts.iter().enumerate() {
        if let Expr::Cmp { path, op, value } = conj {
            let v = literal_value(value);
            if v.is_null() {
                continue; // `= null` never matches; leave to residual
            }
            let (lower, upper) = match op {
                CmpOp::Eq => (Bound::Included(v.clone()), Bound::Included(v)),
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(v)),
                CmpOp::Le => (Bound::Unbounded, Bound::Included(v)),
                CmpOp::Gt => (Bound::Excluded(v), Bound::Unbounded),
                CmpOp::Ge => (Bound::Included(v), Bound::Unbounded),
                CmpOp::Ne | CmpOp::Like => continue,
            };
            let (path_ids, mergeable) = binder.bind(path)?.clone();
            // Merge with an existing sarg on the same path: `w >= a and
            // w < b` becomes one index range. Merging is only sound for
            // single-valued paths — on a set-valued path two conjuncts
            // may be satisfied by *different* elements, so the merged
            // range would under-approximate; such paths keep one sarg
            // per conjunct (each individually exact).
            match sargs.iter_mut().find(|s| mergeable && s.path_ids == path_ids) {
                Some(existing) => {
                    existing.lower = tighten_lower(existing.lower.clone(), lower);
                    existing.upper = tighten_upper(existing.upper.clone(), upper);
                    existing.conjuncts.push(i);
                }
                None => sargs.push(Sarg { path_ids, lower, upper, conjuncts: vec![i] }),
            }
        }
    }

    // Find the cheapest applicable index.
    let mut best: Option<(usize, &Sarg, IndexDef)> = None; // (cost, sarg, index)
    for def in source.indexes() {
        for sarg in &sargs {
            if !index_matches(catalog, &def, &sarg.path_ids, target, &scope) {
                continue;
            }
            let (entries, distinct) = source.index_stats(def.id);
            let is_point = matches!(
                (&sarg.lower, &sarg.upper),
                (Bound::Included(a), Bound::Included(b)) if a.eq_total(b)
            );
            let est = if is_point {
                entries.checked_div(distinct).map_or(0, |v| v.max(1))
            } else {
                // Range selectivity: linear interpolation over the
                // index's numeric key span (a poor man's histogram);
                // non-numeric keys fall back to a quarter of the index.
                let interpolated = source.index_key_bounds(def.id).and_then(|(lo, hi)| {
                    let lo = lo.as_float()?;
                    let hi = hi.as_float()?;
                    let span = hi - lo;
                    if span <= 0.0 {
                        return Some(1usize);
                    }
                    let q_lo = match &sarg.lower {
                        Bound::Included(v) | Bound::Excluded(v) => v.as_float().unwrap_or(lo),
                        Bound::Unbounded => lo,
                    };
                    let q_hi = match &sarg.upper {
                        Bound::Included(v) | Bound::Excluded(v) => v.as_float().unwrap_or(hi),
                        Bound::Unbounded => hi,
                    };
                    let frac = ((q_hi.min(hi) - q_lo.max(lo)) / span).clamp(0.0, 1.0);
                    Some(((entries as f64 * frac) as usize).max(1))
                });
                interpolated.unwrap_or((entries / 4).max(1))
            };
            if best.as_ref().is_none_or(|(c, _, _)| est < *c) {
                best = Some((est, sarg, def.clone()));
            }
        }
    }

    let (access, consumed, estimated) = match best {
        Some((est, sarg, def)) if est < scan_cost => {
            let is_point = matches!(
                (&sarg.lower, &sarg.upper),
                (Bound::Included(a), Bound::Included(b)) if a.eq_total(b)
            );
            let access = if is_point {
                let Bound::Included(key) = sarg.lower.clone() else { unreachable!() };
                AccessPath::IndexEq { index: def.id, key }
            } else {
                AccessPath::IndexRange {
                    index: def.id,
                    lower: sarg.lower.clone(),
                    upper: sarg.upper.clone(),
                }
            };
            (access, sarg.conjuncts.clone(), est)
        }
        _ => (AccessPath::Scan, Vec::new(), scan_cost),
    };

    // The residual keeps every conjunct except the one the index answers.
    // An index on a *set-valued or multi-valued* path is conservative
    // (existential semantics match Eq), so dropping the consumed conjunct
    // is sound: index postings are exactly the objects with a matching
    // reachable value — for every object whose entries agree with what
    // the source reads. Those that may not are the source's to name
    // (`DataSource::index_probe`); they get the whole predicate.
    let residual = Expr::conjoin(
        conjuncts
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, e)| e)
            .collect(),
    );

    let program = Arc::new(Program::compile(catalog, &query, &access, residual.as_ref())?);
    Ok(PlannedQuery {
        query,
        target,
        scope,
        access,
        residual,
        estimated_candidates: estimated,
        program,
        exec_stats: Arc::new(ExecStats::default()),
    })
}

/// Does `def` serve a predicate on `path_ids` for a query over `scope`?
fn index_matches(
    catalog: &Catalog,
    def: &IndexDef,
    path_ids: &[u32],
    target: ClassId,
    scope: &[ClassId],
) -> bool {
    if def.path != path_ids {
        return false;
    }
    match def.kind {
        IndexKind::SingleClass => {
            // Covers exactly one class's extent.
            scope.len() == 1 && scope[0] == def.target
        }
        IndexKind::ClassHierarchy | IndexKind::Nested => {
            // Covers the hierarchy rooted at def.target; applicable when
            // the query scope lies within it.
            catalog.is_subclass(target, def.target)
                && scope.iter().all(|c| catalog.is_subclass(*c, def.target))
        }
    }
}
