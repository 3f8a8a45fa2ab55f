//! Property tests for query processing: whatever access path the
//! optimizer picks, the answer must equal brute-force predicate
//! evaluation over a full scan — for random schemas, data, predicates,
//! and index configurations.

use orion_index::{IndexDef, IndexKind};
use orion_query::ast::{CmpOp, Expr, Literal, Path, Query, SelectItem};
use orion_query::exec::{execute_with, ExecOptions};
use orion_query::{
    eval_expr, execute, path_values, plan, AccessPath, DataSource, MemSource, PlannedQuery,
    QueryResult,
};
use orion_schema::{AttrSpec, Catalog};
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbError, DbResult, Domain, Oid, PrimitiveType, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Three-class hierarchy: Base <- Mid <- Leaf, attrs `num` (int) and
/// `tag` (string), plus a reference `buddy` to Base for nested paths.
struct Fixture {
    catalog: Catalog,
    source: MemSource,
    base: ClassId,
}

fn build(
    rows: &[(u8, i64, u8, Option<u8>)],
    with_ch_index: bool,
    with_nested_index: bool,
) -> Fixture {
    let mut catalog = Catalog::new();
    let base = catalog
        .create_class(
            "Base",
            &[],
            vec![
                AttrSpec::new("num", Domain::Primitive(PrimitiveType::Int)),
                AttrSpec::new("tag", Domain::Primitive(PrimitiveType::Str)),
            ],
        )
        .unwrap();
    // Self-referential attribute for nested predicates.
    orion_schema::SchemaChange::AddAttribute {
        class: base,
        spec: AttrSpec::new("buddy", Domain::Class(base)),
    }
    .apply(&mut catalog)
    .unwrap();
    let mid = catalog.create_class("Mid", &[base], vec![]).unwrap();
    let leaf = catalog.create_class("Leaf", &[mid], vec![]).unwrap();
    let classes = [base, mid, leaf];

    let resolved = catalog.resolve(base).unwrap();
    let num_id = resolved.attr("num").unwrap().id;
    let tag_id = resolved.attr("tag").unwrap().id;
    let buddy_id = resolved.attr("buddy").unwrap().id;

    let mut source = MemSource::new();
    let oids: Vec<Oid> = rows
        .iter()
        .enumerate()
        .map(|(i, (class, _, _, _))| Oid::new(classes[*class as usize % 3], i as u64 + 1))
        .collect();
    for (i, (_, num, tag, buddy)) in rows.iter().enumerate() {
        let mut attrs = vec![
            (num_id, Value::Int(*num)),
            (tag_id, Value::Str(format!("t{}", tag % 4))),
        ];
        if let Some(b) = buddy {
            attrs.push((buddy_id, Value::Ref(oids[*b as usize % oids.len().max(1)])));
        }
        source.add_object(oids[i], attrs);
    }
    if with_ch_index {
        source.add_index(IndexDef {
            id: 1,
            name: "num_ch".into(),
            kind: IndexKind::ClassHierarchy,
            target: base,
            path: vec![num_id],
        });
        for (i, (_, num, _, _)) in rows.iter().enumerate() {
            source.index_insert(1, Value::Int(*num), oids[i]);
        }
    }
    if with_nested_index {
        source.add_index(IndexDef {
            id: 2,
            name: "buddy_num".into(),
            kind: IndexKind::Nested,
            target: base,
            path: vec![buddy_id, num_id],
        });
        for (i, (_, _, _, buddy)) in rows.iter().enumerate() {
            if let Some(b) = buddy {
                let target = &rows[*b as usize % rows.len()];
                source.index_insert(2, Value::Int(target.1), oids[i]);
            }
        }
    }
    Fixture { catalog, source, base }
}

#[derive(Debug, Clone)]
enum PredShape {
    NumCmp(u8, i64),
    NumRange(i64, i64),
    TagEq(u8),
    BuddyNum(u8, i64),
    IsLeaf,
    NumNull,
    AndOrNot(Box<PredShape>, Box<PredShape>, u8),
}

fn arb_pred() -> impl Strategy<Value = PredShape> {
    let leaf = prop_oneof![
        (0u8..6, -20i64..20).prop_map(|(op, v)| PredShape::NumCmp(op, v)),
        (-20i64..20, -20i64..20).prop_map(|(a, b)| PredShape::NumRange(a.min(b), a.max(b))),
        (any::<u8>()).prop_map(PredShape::TagEq),
        (0u8..6, -20i64..20).prop_map(|(op, v)| PredShape::BuddyNum(op, v)),
        Just(PredShape::IsLeaf),
        Just(PredShape::NumNull),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), inner, any::<u8>())
            .prop_map(|(a, b, k)| PredShape::AndOrNot(Box::new(a), Box::new(b), k))
    })
}

fn to_expr(shape: &PredShape) -> Expr {
    let op_of = |k: u8| match k % 6 {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    };
    match shape {
        PredShape::NumCmp(op, v) => Expr::Cmp {
            path: Path::new(vec!["num"]),
            op: op_of(*op),
            value: Literal::Int(*v),
        },
        PredShape::NumRange(lo, hi) => Expr::And(
            Box::new(Expr::Cmp {
                path: Path::new(vec!["num"]),
                op: CmpOp::Ge,
                value: Literal::Int(*lo),
            }),
            Box::new(Expr::Cmp {
                path: Path::new(vec!["num"]),
                op: CmpOp::Lt,
                value: Literal::Int(*hi),
            }),
        ),
        PredShape::TagEq(t) => Expr::Cmp {
            path: Path::new(vec!["tag"]),
            op: CmpOp::Eq,
            value: Literal::Str(format!("t{}", t % 4)),
        },
        PredShape::BuddyNum(op, v) => Expr::Cmp {
            path: Path::new(vec!["buddy", "num"]),
            op: op_of(*op),
            value: Literal::Int(*v),
        },
        PredShape::IsLeaf => Expr::IsA { class: "Leaf".into() },
        PredShape::NumNull => Expr::IsNull { path: Path::new(vec!["num"]) },
        PredShape::AndOrNot(a, b, k) => {
            let (a, b) = (Box::new(to_expr(a)), Box::new(to_expr(b)));
            match k % 3 {
                0 => Expr::And(a, b),
                1 => Expr::Or(a, b),
                _ => Expr::Not(a),
            }
        }
    }
}

/// A source whose fetches fail for poisoned objects and which asks to
/// be walked back to front: errors and walk order are the two things a
/// plain `MemSource` never exercises.
struct Shaky<'a> {
    inner: &'a MemSource,
    poisoned: HashSet<Oid>,
    backwards: bool,
}

impl DataSource for Shaky<'_> {
    fn scan_class(&self, class: ClassId) -> DbResult<Vec<Oid>> {
        self.inner.scan_class(class)
    }
    fn extent_size(&self, class: ClassId) -> usize {
        self.inner.extent_size(class)
    }
    fn fetch(&self, oids: &[Oid], attrs: &[u32]) -> DbResult<Vec<Option<Arc<ObjectRecord>>>> {
        match oids.iter().find(|o| self.poisoned.contains(o)) {
            Some(bad) => Err(DbError::Storage(format!("poisoned {bad}"))),
            None => self.inner.fetch(oids, attrs),
        }
    }
    fn fetch_order(&self, oids: &[Oid]) -> Option<Vec<u32>> {
        self.backwards.then(|| (0..oids.len() as u32).rev().collect())
    }
    fn indexes(&self) -> Vec<IndexDef> {
        self.inner.indexes()
    }
    fn index_count(&self, access: &AccessPath, scope: &[ClassId], cap: usize) -> usize {
        self.inner.index_count(access, scope, cap)
    }
    fn index_probe(
        &self,
        probes: &[&AccessPath],
        scope: &[ClassId],
    ) -> DbResult<(Vec<Oid>, Vec<Oid>)> {
        self.inner.index_probe(probes, scope)
    }
}

/// Every object of the fixture, in scan order.
fn all_objects(fx: &Fixture) -> Vec<Oid> {
    let scope = fx.catalog.subtree(fx.base).unwrap();
    scope.iter().flat_map(|c| fx.source.scan_class(*c).unwrap()).collect()
}

/// Add index `id` over `path` from `Base`, filing each object under the
/// key `truth` gives for its row — except the objects `stale` picks,
/// `(pick, key)`: those are filed under `key` and put in the index's
/// overlay, as a version store's would have it.
fn add_stale_index(
    fx: &mut Fixture,
    id: u32,
    kind: IndexKind,
    path: &[&str],
    truth: impl Fn(usize) -> Option<i64>,
    stale: &[(u8, i64)],
) {
    let resolved = fx.catalog.resolve(fx.base).unwrap();
    let path = path.iter().map(|step| resolved.attr(step).unwrap().id).collect();
    fx.source.add_index(IndexDef { id, name: format!("stale{id}"), kind, target: fx.base, path });
    let all = all_objects(fx);
    let moved: HashMap<Oid, i64> =
        stale.iter().map(|(i, k)| (all[*i as usize % all.len()], *k)).collect();
    for oid in all {
        // Row `i` is object serial `i + 1` (see `build`).
        match moved.get(&oid) {
            Some(key) => {
                fx.source.index_insert(id, Value::Int(*key), oid);
                fx.source.index_overlay(id, oid);
            }
            None => {
                if let Some(key) = truth(oid.serial() as usize - 1) {
                    fx.source.index_insert(id, Value::Int(key), oid);
                }
            }
        }
    }
}

/// `select <shape> from Base* x where predicate [order by x.num]`.
fn hierarchy_query(shape: u8, predicate: Expr, order: Option<bool>) -> Query {
    let num = Path::new(vec!["num"]);
    Query {
        select: match shape {
            0 => vec![SelectItem::Count],
            1 => vec![SelectItem::Object],
            _ => vec![SelectItem::Object, SelectItem::Path(num.clone())],
        },
        target: "Base".into(),
        hierarchy: true,
        var: "x".into(),
        predicate: Some(predicate),
        order_by: order.map(|asc| (num, asc)),
        limit: None,
    }
}

/// Run `planned` at batch sizes 1/7/1000 on 1/2/4 threads: the first
/// run is the reference scan's answer up to row order (a `count(*)`
/// row exactly), and every run is byte-identical to the first.
fn agrees_at_every_batch_and_degree(
    catalog: &Catalog,
    source: &dyn DataSource,
    query: &Query,
    planned: &PlannedQuery,
) -> Result<(), TestCaseError> {
    let want = reference(catalog, source, query).unwrap();
    let first = execute_with(catalog, source, planned, &ExecOptions::with_threads(1)).unwrap();
    let sorted = |r: &QueryResult| {
        let mut pairs: Vec<_> = r.oids.iter().zip(&r.rows).collect();
        pairs.sort_by_key(|(oid, _)| **oid);
        pairs.into_iter().map(|(o, r)| (*o, r.clone())).collect::<Vec<_>>()
    };
    prop_assert_eq!(sorted(&first), sorted(&want), "plan {}", planned.report());
    prop_assert_eq!(&first.rows.len(), &want.rows.len());
    if query.select == [SelectItem::Count] {
        prop_assert_eq!(&first.rows, &want.rows);
    }
    for batch in [1, 7, 1000] {
        for threads in [1, 2, 4] {
            let opts = ExecOptions { threads, batch, ..ExecOptions::default() };
            let got = execute_with(catalog, source, planned, &opts).unwrap();
            prop_assert_eq!(
                &got, &first,
                "batch {} on {} thread(s) diverged for {:?}", batch, threads, query
            );
        }
    }
    Ok(())
}

fn reads_a_path(expr: &Expr) -> bool {
    match expr {
        Expr::IsA { .. } => false,
        Expr::And(a, b) | Expr::Or(a, b) => reads_a_path(a) || reads_a_path(b),
        Expr::Not(e) => reads_a_path(e),
        Expr::Cmp { .. } | Expr::Contains { .. } | Expr::IsNull { .. } => true,
    }
}

/// What a scan query means, one object and one attribute at a time over
/// `eval_expr` / `path_values`: candidates in scan order; each one is
/// fetched (if anything of it is read), filtered, keyed and projected
/// before the next, so the first failing candidate decides the error;
/// an unordered `limit` stops the scan; a bounded `order by` projects
/// only its winners, afterwards.
fn reference(catalog: &Catalog, source: &dyn DataSource, q: &Query) -> DbResult<QueryResult> {
    let target = catalog.class_id(&q.target)?;
    let scope: Vec<ClassId> =
        if q.hierarchy { catalog.subtree(target)?.as_ref().clone() } else { vec![target] };
    let count = matches!(q.select.as_slice(), [SelectItem::Count]);
    let has_paths = q.select.iter().any(|i| matches!(i, SelectItem::Path(_)));
    let order = q.order_by.as_ref().filter(|_| !count);
    let late = order.is_some() && q.limit.is_some();
    let early = if order.is_some() || count { None } else { q.limit };
    let project = |oid: Oid| -> DbResult<Vec<Value>> {
        q.select
            .iter()
            .map(|item| match item {
                SelectItem::Path(p) => {
                    let mut values = path_values(catalog, source, oid, p)?;
                    Ok(match values.len() {
                        0 | 1 => values.pop().unwrap_or(Value::Null),
                        _ => Value::set(values),
                    })
                }
                _ => Ok(Value::Ref(oid)),
            })
            .collect()
    };
    let rows_in_scan = !count && !late && has_paths;
    let reads = q.predicate.as_ref().is_some_and(reads_a_path) || order.is_some() || rows_in_scan;

    let mut matches: Vec<(Oid, Value, Vec<Value>)> = Vec::new();
    'scan: for class in scope {
        for oid in source.scan_class(class)? {
            if early.is_some_and(|l| matches.len() >= l) {
                break 'scan;
            }
            if reads {
                source.fetch(&[oid], &[])?;
            }
            if let Some(pred) = &q.predicate {
                if !eval_expr(catalog, source, oid, pred)? {
                    continue;
                }
            }
            let mut key = Value::Null;
            if let Some((p, _)) = order {
                key = path_values(catalog, source, oid, p)?.into_iter().next().unwrap_or(key);
            }
            let row = if rows_in_scan { project(oid)? } else { Vec::new() };
            matches.push((oid, key, row));
        }
    }
    if count {
        let rows = vec![vec![Value::Int(matches.len() as i64)]];
        return Ok(QueryResult { rows, oids: Vec::new() });
    }
    if let Some((_, asc)) = order {
        // Ascending is a stable sort; descending is that sort reversed.
        matches.sort_by(|a, b| a.1.cmp_total(&b.1));
        if !asc {
            matches.reverse();
        }
    }
    matches.truncate(q.limit.unwrap_or(usize::MAX));
    let mut result = QueryResult { rows: Vec::new(), oids: Vec::new() };
    for (oid, _, row) in matches {
        result.rows.push(if rows_in_scan { row } else { project(oid)? });
        result.oids.push(oid);
    }
    Ok(result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The batch pipeline is the reference semantics, whatever the
    /// batch size, worker count and walk order — rows, their order
    /// (including `order by` ties), `limit` early exit, and which error
    /// a failing fetch surfaces as.
    #[test]
    fn batch_execution_matches_reference(
        rows in proptest::collection::vec(
            (any::<u8>(), -6i64..6, any::<u8>(), proptest::option::of(any::<u8>())),
            1..40,
        ),
        pred in proptest::option::of(arb_pred()),
        hierarchy in any::<bool>(),
        shape in 0u8..5,
        order in proptest::option::of((any::<bool>(), any::<bool>())),
        limit in proptest::option::of(0usize..12),
        poisoned in proptest::collection::vec(any::<u8>(), 0..3),
        poison in any::<bool>(),
        backwards in any::<bool>(),
    ) {
        let fx = build(&rows, false, false);
        let path = |steps: &[&str]| Path::new(steps.to_vec());
        let query = Query {
            select: match shape {
                0 => vec![SelectItem::Count],
                1 => vec![SelectItem::Object],
                2 => vec![SelectItem::Path(path(&["num"]))],
                3 => vec![SelectItem::Object, SelectItem::Path(path(&["buddy", "tag"]))],
                _ => vec![SelectItem::Path(path(&["buddy", "buddy", "num"])), SelectItem::Object],
            },
            target: "Base".into(),
            hierarchy,
            var: "x".into(),
            predicate: pred.as_ref().map(to_expr),
            // Few distinct keys over up to 40 rows: ties everywhere.
            order_by: order.map(|(by_buddy, asc)| {
                (if by_buddy { path(&["buddy", "num"]) } else { path(&["num"]) }, asc)
            }),
            limit,
        };
        let all = all_objects(&fx);
        let source = Shaky {
            inner: &fx.source,
            poisoned: if poison {
                poisoned.iter().map(|p| all[*p as usize % all.len()]).collect()
            } else {
                HashSet::new()
            },
            backwards,
        };
        let planned = plan(&fx.catalog, &source, query.clone()).unwrap();
        let want = reference(&fx.catalog, &source, &query);
        for batch in [1, 7, 1000] {
            for threads in [1, 2, 4] {
                let opts = ExecOptions { threads, batch, ..ExecOptions::default() };
                let got = execute_with(&fx.catalog, &source, &planned, &opts);
                prop_assert_eq!(
                    &got, &want,
                    "batch {} on {} thread(s) diverged from the reference for {:?}",
                    batch, threads, query
                );
            }
        }
    }

    /// An index probe whose source names stale entries for a re-check:
    /// the re-checked objects are judged by the whole predicate (the
    /// conjunct the index answers included), the rest by the residual,
    /// and the answer is the scan's whatever the batch size and worker
    /// count — byte-identical across all nine.
    #[test]
    fn overlay_rechecks_match_the_scan_at_every_batch_and_degree(
        rows in proptest::collection::vec(
            (any::<u8>(), -6i64..6, any::<u8>(), proptest::option::of(any::<u8>())),
            1..40,
        ),
        stale in proptest::collection::vec((any::<u8>(), -6i64..6), 0..8),
        indexed in prop_oneof![
            (-6i64..6).prop_map(|v| PredShape::NumCmp(0, v)),
            (-6i64..6, -6i64..6).prop_map(|(a, b)| PredShape::NumRange(a.min(b), a.max(b))),
        ],
        extra in proptest::option::of(arb_pred()),
        shape in 0u8..3,
        order in proptest::option::of(any::<bool>()),
    ) {
        let mut fx = build(&rows, false, false);
        let num = |i: usize| Some(rows[i].1);
        add_stale_index(&mut fx, 3, IndexKind::ClassHierarchy, &["num"], num, &stale);
        let predicate = match &extra {
            Some(e) => Expr::And(Box::new(to_expr(&indexed)), Box::new(to_expr(e))),
            None => to_expr(&indexed),
        };
        let query = hierarchy_query(shape, predicate, order);
        let planned = plan(&fx.catalog, &fx.source, query.clone()).unwrap();
        prop_assume!(planned.access.index() == Some(3));
        agrees_at_every_batch_and_degree(&fx.catalog, &fx.source, &query, &planned)?;
    }

    /// A conjunction two indexes answer together — a class-hierarchy
    /// index on `num` and a nested one on `buddy.num` — where either
    /// index may be stale for some objects and names them in its own
    /// overlay: whichever index drives, the intersected answer is the
    /// scan's, byte-identical at every batch size and degree. (A probe
    /// that re-checked only the leading probe's overlay would trust the
    /// other index's stale entries, and fails here.)
    #[test]
    fn intersections_match_the_scan_at_every_batch_and_degree(
        rows in proptest::collection::vec(
            (any::<u8>(), -3i64..3, any::<u8>(), proptest::option::of(any::<u8>())),
            8..40,
        ),
        stale_num in proptest::collection::vec((any::<u8>(), -3i64..3), 0..6),
        stale_buddy in proptest::collection::vec((any::<u8>(), -3i64..3), 0..6),
        num in (-3i64..3, 1i64..4),
        buddy in -3i64..3,
        extra in proptest::option::of(arb_pred()),
        shape in 0u8..3,
        order in proptest::option::of(any::<bool>()),
    ) {
        let mut fx = build(&rows, false, false);
        let row_num = |i: usize| Some(rows[i].1);
        add_stale_index(&mut fx, 1, IndexKind::ClassHierarchy, &["num"], row_num, &stale_num);
        let buddy_num = |i: usize| rows[i].3.map(|b| rows[b as usize % rows.len()].1);
        add_stale_index(&mut fx, 2, IndexKind::Nested, &["buddy", "num"], buddy_num, &stale_buddy);
        let both = Expr::And(
            Box::new(to_expr(&PredShape::NumRange(num.0, num.0 + num.1))),
            Box::new(to_expr(&PredShape::BuddyNum(0, buddy))),
        );
        let predicate = match &extra {
            Some(e) => Expr::And(Box::new(both), Box::new(to_expr(e))),
            None => both,
        };
        let query = hierarchy_query(shape, predicate, order);
        let planned = plan(&fx.catalog, &fx.source, query.clone()).unwrap();
        prop_assume!(!planned.intersect.is_empty());
        agrees_at_every_batch_and_degree(&fx.catalog, &fx.source, &query, &planned)?;
    }

    #[test]
    fn planned_execution_matches_brute_force(
        rows in proptest::collection::vec(
            (any::<u8>(), -20i64..20, any::<u8>(), proptest::option::of(any::<u8>())),
            1..40,
        ),
        pred in arb_pred(),
        ch_index in any::<bool>(),
        nested_index in any::<bool>(),
        hierarchy in any::<bool>(),
    ) {
        let fx = build(&rows, ch_index, nested_index);
        let expr = to_expr(&pred);
        let query = Query {
            select: vec![SelectItem::Object],
            target: "Base".into(),
            hierarchy,
            var: "x".into(),
            predicate: Some(expr.clone()),
            order_by: None,
            limit: None,
        };
        let planned = plan(&fx.catalog, &fx.source, query).unwrap();
        let result = execute(&fx.catalog, &fx.source, &planned).unwrap();
        let got: HashSet<Oid> = result.oids.iter().copied().collect();

        // Brute force: scan the scope, evaluate the predicate directly.
        let scope: Vec<ClassId> = if hierarchy {
            fx.catalog.subtree(fx.base).unwrap().as_ref().clone()
        } else {
            vec![fx.base]
        };
        let mut want = HashSet::new();
        for class in scope {
            for oid in fx.source.scan_class(class).unwrap() {
                if eval_expr(&fx.catalog, &fx.source, oid, &expr).unwrap() {
                    want.insert(oid);
                }
            }
        }
        prop_assert_eq!(
            &got, &want,
            "plan {} disagreed with brute force", planned.report()
        );

        // count(*) agrees with the row set.
        let count_query = Query {
            select: vec![SelectItem::Count],
            target: "Base".into(),
            hierarchy,
            var: "x".into(),
            predicate: Some(expr),
            order_by: None,
            limit: None,
        };
        let planned = plan(&fx.catalog, &fx.source, count_query).unwrap();
        let result = execute(&fx.catalog, &fx.source, &planned).unwrap();
        prop_assert_eq!(&result.rows[0][0], &Value::Int(want.len() as i64));
    }

    /// Order by + limit return the top of the brute-force ordering.
    #[test]
    fn order_and_limit_agree_with_sorting(
        rows in proptest::collection::vec(
            (any::<u8>(), -20i64..20, any::<u8>(), proptest::option::of(any::<u8>())),
            1..30,
        ),
        asc in any::<bool>(),
        limit in 0usize..10,
    ) {
        let fx = build(&rows, false, false);
        let query = Query {
            select: vec![SelectItem::Path(Path::new(vec!["num"]))],
            target: "Base".into(),
            hierarchy: true,
            var: "x".into(),
            predicate: None,
            order_by: Some((Path::new(vec!["num"]), asc)),
            limit: Some(limit),
        };
        let planned = plan(&fx.catalog, &fx.source, query).unwrap();
        let result = execute(&fx.catalog, &fx.source, &planned).unwrap();
        let got: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut all: Vec<i64> = rows.iter().map(|(_, n, _, _)| *n).collect();
        all.sort_unstable();
        if !asc {
            all.reverse();
        }
        all.truncate(limit);
        prop_assert_eq!(got, all);
    }
}
