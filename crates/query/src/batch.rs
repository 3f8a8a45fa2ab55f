//! The batch pipeline behind [`crate::exec::execute_with`].
//!
//! A plan is compiled once into a [`Program`]: its paths interned to
//! indices, its literals turned into [`Value`]s, and the attribute ids
//! it can ever read collected for the source's projected decode. At run
//! time the candidate walk is cut into contiguous batches; a [`Worker`]
//! asks the source for one batch of records at a time and evaluates the
//! residual, the order key and the projection against each borrowed
//! record — one record handle per candidate, whatever the number of
//! predicate paths. Reference steps go through the worker's own cache of
//! referenced objects (a hundred companies serve every vehicle), so
//! workers share nothing per row.

use crate::ast::{CmpOp, Expr, Path, Query, SelectItem};
use crate::exec::cmp_holds;
use crate::plan::{literal_value, AccessPath};
use crate::source::{DataSource, Walk};
use orion_schema::Catalog;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbResult, Oid, OidHashMap, Value};
use std::ops::Range;
use std::sync::Arc;

/// Candidates per [`DataSource::fetch`] call: large enough that the
/// per-call costs (gate, counters, page grouping) vanish per row, small
/// enough that one batch's pages fit a modest buffer pool.
pub(crate) const BATCH: usize = 1024;

/// Bound on a worker's referenced-object cache; reaching it empties the
/// cache (a query that fans out to more distinct targets than this has
/// no locality for it to exploit).
const REF_CACHE_MAX: usize = 4096;

/// A residual predicate with paths interned and literals converted.
#[derive(Debug)]
enum Pred {
    Cmp { path: usize, op: CmpOp, want: Value },
    Contains { path: usize, want: Value },
    IsNull { path: usize },
    IsA { class: ClassId },
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

/// A plan compiled for batch execution (built by [`crate::plan()`]).
#[derive(Debug)]
pub struct Program {
    /// The catalog version compiled against; a later schema change
    /// makes the executor recompile instead of trusting `attrs`.
    pub(crate) schema_version: u32,
    /// Distinct path-step names.
    names: Vec<String>,
    /// Distinct paths, as indices into `names`.
    paths: Vec<Vec<usize>>,
    residual: Option<Pred>,
    /// An index path's whole predicate (residual plus the conjunct the
    /// index answers), for the candidates the source asks to re-check.
    recheck: Option<Pred>,
    /// The `order by` path.
    order: Option<usize>,
    /// One entry per select item: its path, or `None` for the object
    /// itself (`count(*)` is never projected).
    select: Vec<Option<usize>>,
    /// Every attribute id some class gives one of `names`, ascending:
    /// all a record can be asked for, whatever class it turns out to be.
    attrs: Vec<u32>,
}

impl Program {
    pub(crate) fn compile(
        catalog: &Catalog,
        query: &Query,
        access: &AccessPath,
        residual: Option<&Expr>,
    ) -> DbResult<Program> {
        let mut program = Program {
            schema_version: catalog.version(),
            names: Vec::new(),
            paths: Vec::new(),
            residual: None,
            recheck: None,
            order: None,
            select: Vec::new(),
            attrs: Vec::new(),
        };
        program.residual = residual.map(|e| program.pred(catalog, e)).transpose()?;
        if access.index().is_some() {
            program.recheck =
                query.predicate.as_ref().map(|e| program.pred(catalog, e)).transpose()?;
        }
        program.order = query.order_by.as_ref().map(|(p, _)| program.path(p));
        program.select = query
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Path(p) => Some(program.path(p)),
                SelectItem::Object | SelectItem::Count => None,
            })
            .collect();
        for class in catalog.classes() {
            for attr in &class.local_attrs {
                if program.names.contains(&attr.name) {
                    program.attrs.push(attr.id);
                }
            }
        }
        program.attrs.sort_unstable();
        program.attrs.dedup();
        Ok(program)
    }

    fn path(&mut self, path: &Path) -> usize {
        let steps: Vec<usize> = path
            .steps
            .iter()
            .map(|step| {
                self.names.iter().position(|n| n == step).unwrap_or_else(|| {
                    self.names.push(step.clone());
                    self.names.len() - 1
                })
            })
            .collect();
        self.paths.iter().position(|p| *p == steps).unwrap_or_else(|| {
            self.paths.push(steps);
            self.paths.len() - 1
        })
    }

    fn pred(&mut self, catalog: &Catalog, expr: &Expr) -> DbResult<Pred> {
        Ok(match expr {
            Expr::Cmp { path, op, value } => {
                Pred::Cmp { path: self.path(path), op: *op, want: literal_value(value) }
            }
            Expr::Contains { path, value } => {
                Pred::Contains { path: self.path(path), want: literal_value(value) }
            }
            Expr::IsNull { path } => Pred::IsNull { path: self.path(path) },
            Expr::IsA { class } => Pred::IsA { class: catalog.class_id(class)? },
            Expr::And(a, b) => {
                Pred::And(Box::new(self.pred(catalog, a)?), Box::new(self.pred(catalog, b)?))
            }
            Expr::Or(a, b) => {
                Pred::Or(Box::new(self.pred(catalog, a)?), Box::new(self.pred(catalog, b)?))
            }
            Expr::Not(e) => Pred::Not(Box::new(self.pred(catalog, e)?)),
        })
    }

    pub(crate) fn has_residual(&self) -> bool {
        self.residual.is_some()
    }

    /// Does `pass` read any attribute? (An `isa`-only residual with no
    /// key and no projected path looks at OIDs alone.)
    pub(crate) fn reads_records(&self, pass: Pass) -> bool {
        fn reads(pred: &Pred) -> bool {
            match pred {
                Pred::IsA { .. } => false,
                Pred::And(a, b) | Pred::Or(a, b) => reads(a) || reads(b),
                Pred::Not(e) => reads(e),
                Pred::Cmp { .. } | Pred::Contains { .. } | Pred::IsNull { .. } => true,
            }
        }
        pass.filter && self.residual.as_ref().is_some_and(reads)
            || pass.key && self.order.is_some()
            || pass.rows && self.projects_paths()
    }

    /// Does any select item read a path (and so need the record)?
    pub(crate) fn projects_paths(&self) -> bool {
        self.select.iter().any(Option::is_some)
    }
}

/// What one pass over a set of objects computes per object.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pass<'a> {
    /// Apply the residual; objects failing it produce no outcome.
    pub filter: bool,
    /// Candidates the filter judges by the whole predicate instead
    /// (sorted; see [`DataSource::index_probe`]).
    pub recheck: &'a [Oid],
    /// Evaluate the `order by` key.
    pub key: bool,
    /// Project the select list.
    pub rows: bool,
}

/// A surviving object's computed values (those the [`Pass`] asked for).
#[derive(Debug)]
pub(crate) struct Hit {
    pub key: Value,
    pub row: Vec<Value>,
}

/// `(position in the candidate vector, what evaluating it produced)`.
pub(crate) type Outcome = (u32, DbResult<Hit>);

/// Attribute resolution for one `(class, step name)`.
struct StepAttr {
    id: u32,
    default: Value,
}

/// One thread's evaluation state: nothing in here is shared.
struct Worker<'a> {
    catalog: &'a Catalog,
    source: &'a dyn DataSource,
    program: &'a Program,
    /// Per class (indexed by raw class id, filled on first sight): what
    /// each of `program.names` resolves to through that class.
    classes: Vec<Option<Box<[Option<StepAttr>]>>>,
    /// Objects reached through reference steps.
    refs: OidHashMap<Option<Arc<ObjectRecord>>>,
    ref_hits: u64,
    ref_lookups: u64,
}

impl<'a> Worker<'a> {
    fn new(catalog: &'a Catalog, source: &'a dyn DataSource, program: &'a Program) -> Self {
        Worker {
            catalog,
            source,
            program,
            classes: Vec::new(),
            refs: OidHashMap::default(),
            ref_hits: 0,
            ref_lookups: 0,
        }
    }

    /// What step `name` means for an instance of `class` — resolved by
    /// name through the object's *actual* class, so polymorphic
    /// references read the right attribute even under shadowing.
    fn step_attr(&mut self, class: ClassId, name: usize) -> Option<&StepAttr> {
        let idx = class.0 as usize;
        if self.classes.len() <= idx {
            self.classes.resize_with(idx + 1, || None);
        }
        let (catalog, program) = (self.catalog, self.program);
        self.classes[idx]
            .get_or_insert_with(|| {
                let resolved = catalog.resolve(class).ok();
                program
                    .names
                    .iter()
                    .map(|n| {
                        let attr = resolved.as_ref()?.attr(n)?;
                        Some(StepAttr { id: attr.id, default: attr.default.clone() })
                    })
                    .collect()
            })[name]
            .as_ref()
    }

    /// The record behind a reference step.
    fn referenced(&mut self, oid: Oid) -> DbResult<Option<Arc<ObjectRecord>>> {
        self.ref_lookups += 1;
        if let Some(hit) = self.refs.get(&oid) {
            self.ref_hits += 1;
            return Ok(hit.clone());
        }
        let record = self.source.fetch(&[oid], None, &self.program.attrs)?.pop().flatten();
        if self.refs.len() >= REF_CACHE_MAX {
            self.refs.clear();
        }
        self.refs.insert(oid, record.clone());
        Ok(record)
    }

    /// Visit every leaf value `steps` reaches from one object, in path
    /// order, until `visit` returns `true`; reports whether it did.
    /// Unset attributes take their default, null contributes nothing,
    /// collections contribute their elements, and only references are
    /// followed (`record` is `None` for a dangling one: all unset).
    fn leaves(
        &mut self,
        class: ClassId,
        record: Option<&ObjectRecord>,
        steps: &[usize],
        visit: &mut dyn FnMut(&Value) -> bool,
    ) -> DbResult<bool> {
        let Some(id) = self.step_attr(class, steps[0]).map(|a| a.id) else { return Ok(false) };
        let default;
        let value = match record.and_then(|r| r.get(id)) {
            Some(stored) if !stored.is_null() => stored,
            _ => {
                default = self.step_attr(class, steps[0]).map(|a| a.default.clone());
                match &default {
                    Some(d) if !d.is_null() => d,
                    _ => return Ok(false),
                }
            }
        };
        let items = match value {
            Value::Set(items) | Value::List(items) => items.as_slice(),
            single => std::slice::from_ref(single),
        };
        for item in items {
            let stop = if steps.len() == 1 {
                visit(item)
            } else if let Value::Ref(target) = item {
                let next = self.referenced(*target)?;
                self.leaves(target.class(), next.as_deref(), &steps[1..], visit)?
            } else {
                false
            };
            if stop {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Evaluate `pred` for one object (two-valued: a comparison against
    /// an absent or null value is false; set-valued steps quantify
    /// existentially).
    fn holds(&mut self, pred: &Pred, oid: Oid, record: Option<&ObjectRecord>) -> DbResult<bool> {
        let program = self.program;
        let paths = &program.paths;
        match pred {
            Pred::Cmp { want, .. } if want.is_null() => Ok(false),
            Pred::Cmp { path, op, want } => {
                self.leaves(oid.class(), record, &paths[*path], &mut |v| cmp_holds(*op, v, want))
            }
            Pred::Contains { path, want } => {
                self.leaves(oid.class(), record, &paths[*path], &mut |v| v.eq_total(want))
            }
            Pred::IsNull { path } => {
                Ok(!self.leaves(oid.class(), record, &paths[*path], &mut |v| !v.is_null())?)
            }
            Pred::IsA { class } => Ok(self.catalog.is_subclass(oid.class(), *class)),
            Pred::And(a, b) => Ok(self.holds(a, oid, record)? && self.holds(b, oid, record)?),
            Pred::Or(a, b) => Ok(self.holds(a, oid, record)? || self.holds(b, oid, record)?),
            Pred::Not(e) => Ok(!self.holds(e, oid, record)?),
        }
    }

    /// Everything `pass` asks about one object; `None` when the
    /// residual rejects it.
    fn score(
        &mut self,
        pass: Pass,
        oid: Oid,
        record: Option<&ObjectRecord>,
    ) -> DbResult<Option<Hit>> {
        let program = self.program;
        let rechecked = pass.recheck.binary_search(&oid).is_ok();
        let filter = if rechecked { &program.recheck } else { &program.residual };
        if let (true, Some(pred)) = (pass.filter, filter) {
            if !self.holds(pred, oid, record)? {
                return Ok(None);
            }
        }
        let mut key = Value::Null;
        if let (true, Some(path)) = (pass.key, program.order) {
            self.leaves(oid.class(), record, &program.paths[path], &mut |v| {
                key = v.clone();
                true
            })?;
        }
        let mut row = Vec::new();
        if pass.rows {
            row.reserve_exact(program.select.len());
            for item in &program.select {
                let Some(path) = item else {
                    row.push(Value::Ref(oid));
                    continue;
                };
                let mut values = Vec::new();
                self.leaves(oid.class(), record, &program.paths[*path], &mut |v| {
                    values.push(v.clone());
                    false
                })?;
                row.push(if values.len() > 1 {
                    Value::set(values)
                } else {
                    values.pop().unwrap_or(Value::Null)
                });
            }
        }
        Ok(Some(Hit { key, row }))
    }

    /// Fetch and evaluate `walk[range]` (or `range` itself without a
    /// walk) of `oids`, appending an outcome per surviving or failing
    /// object; a walked batch hands its locations to the fetch. A failed
    /// batch fetch is retried object by object, so an error lands on
    /// exactly the candidates that cause it — which error a query
    /// reports must not depend on the batch size.
    fn run_batch(
        &mut self,
        pass: Pass,
        oids: &[Oid],
        walk: Option<&Walk>,
        range: Range<usize>,
        out: &mut Vec<Outcome>,
    ) {
        let gathered: Vec<Oid>;
        let (batch, located) = match walk {
            Some(walk) => {
                gathered = walk.order[range.clone()].iter().map(|&p| oids[p as usize]).collect();
                (&gathered[..], Some(&walk.located[range.clone()]))
            }
            None => (&oids[range.clone()], None),
        };
        let (source, attrs, recheck) = (self.source, &self.program.attrs, pass.recheck);
        // A pass that reads no attribute fetches only what a re-check
        // judges.
        let reads = self.program.reads_records(pass);
        let wanted = |oid: &Oid| reads || pass.filter && recheck.binary_search(oid).is_ok();
        let fetched: Vec<Oid> = batch.iter().copied().filter(wanted).collect();
        // The locations line up with the batch only if nothing was left out.
        let located = located.filter(|_| fetched.len() == batch.len());
        let records: Vec<DbResult<_>> = if fetched.is_empty() {
            Vec::new()
        } else {
            match source.fetch(&fetched, located, attrs) {
                Ok(records) => records.into_iter().map(Ok).collect(),
                Err(_) => fetched
                    .iter()
                    .map(|oid| Ok(source.fetch(&[*oid], None, attrs)?.pop().flatten()))
                    .collect(),
            }
        };
        let mut records = records.into_iter();
        for (i, oid) in batch.iter().enumerate() {
            let record = if wanted(oid) { records.next().expect("fetched") } else { Ok(None) };
            let scored = record.and_then(|r| self.score(pass, *oid, r.as_deref()));
            let pos = walk.map_or(range.start + i, |w| w.order[range.start + i] as usize) as u32;
            match scored {
                Ok(None) => {}
                Ok(Some(hit)) => out.push((pos, Ok(hit))),
                Err(e) => out.push((pos, Err(e))),
            }
        }
    }

    /// Walk `range` batch by batch. `stop_after` (serial, in-order walks
    /// only) ends the walk once that many objects have survived.
    fn run(
        &mut self,
        pass: Pass,
        oids: &[Oid],
        walk: Option<&Walk>,
        range: Range<usize>,
        batch: usize,
        stop_after: Option<usize>,
    ) -> Vec<Outcome> {
        let mut out = Vec::new();
        let mut survivors = 0;
        let mut start = range.start;
        while start < range.end && stop_after.is_none_or(|limit| survivors < limit) {
            let end = range.end.min(start + batch);
            let before = out.len();
            self.run_batch(pass, oids, walk, start..end, &mut out);
            survivors += out[before..].iter().filter(|(_, r)| r.is_ok()).count();
            start = end;
        }
        out
    }
}

/// The result of [`run_pass`]: outcomes in walk order, plus the
/// workers' summed referenced-object cache counters.
pub(crate) struct PassResult {
    pub outcomes: Vec<Outcome>,
    pub ref_hits: u64,
    pub ref_lookups: u64,
}

/// Evaluate `pass` over `oids` in `walk` order (a permutation of the
/// positions, with each one's location; `None` walks them as they come)
/// on `threads` workers.
/// Each worker takes one contiguous stretch of the walk and cuts it
/// into batches of `batch`, so workers touch disjoint storage and share
/// nothing per row; their outcomes are concatenated in walk order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pass(
    catalog: &Catalog,
    source: &dyn DataSource,
    program: &Program,
    pass: Pass,
    oids: &[Oid],
    walk: Option<&Walk>,
    threads: usize,
    batch: usize,
    stop_after: Option<usize>,
) -> PassResult {
    let n = oids.len();
    if threads <= 1 || n <= 1 {
        let mut worker = Worker::new(catalog, source, program);
        let outcomes = worker.run(pass, oids, walk, 0..n, batch, stop_after);
        return PassResult { outcomes, ref_hits: worker.ref_hits, ref_lookups: worker.ref_lookups };
    }
    let stretch = n.div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(stretch)
            .map(|start| {
                s.spawn(move || {
                    let mut worker = Worker::new(catalog, source, program);
                    let range = start..n.min(start + stretch);
                    let outcomes = worker.run(pass, oids, walk, range, batch, None);
                    (outcomes, worker.ref_hits, worker.ref_lookups)
                })
            })
            .collect();
        let mut result = PassResult { outcomes: Vec::new(), ref_hits: 0, ref_lookups: 0 };
        for handle in handles {
            let (outcomes, hits, lookups) = handle.join().expect("query worker panicked");
            result.outcomes.extend(outcomes);
            result.ref_hits += hits;
            result.ref_lookups += lookups;
        }
        result
    })
}
