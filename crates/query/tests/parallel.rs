//! The parallel executor must be indistinguishable from the serial one:
//! same rows, same oids, same order — including `order by` ties — for
//! every query shape. Batched evaluation merged back by candidate
//! position makes this hold by construction; these tests pin it down.

use orion_query::exec::{execute_with, ExecOptions};
use orion_query::{parse, plan, MemSource};
use orion_schema::{AttrSpec, Catalog};
use orion_types::{ClassId, Domain, Oid, PrimitiveType, Value};

/// A three-class hierarchy with enough instances to exercise chunking,
/// deliberately full of duplicate sort keys (weight = serial / 10).
fn fixture(n: u64) -> (Catalog, MemSource, ClassId) {
    let mut cat = Catalog::new();
    let company = cat
        .create_class(
            "Company",
            &[],
            vec![AttrSpec::new("location", Domain::Primitive(PrimitiveType::Str))],
        )
        .unwrap();
    let vehicle = cat
        .create_class(
            "Vehicle",
            &[],
            vec![
                AttrSpec::new("weight", Domain::Primitive(PrimitiveType::Int)),
                AttrSpec::new("manufacturer", Domain::Class(company)),
            ],
        )
        .unwrap();
    let auto = cat.create_class("Automobile", &[vehicle], vec![]).unwrap();
    let truck = cat.create_class("Truck", &[vehicle], vec![]).unwrap();

    let weight_id = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
    let manu_id = cat.resolve(vehicle).unwrap().attr("manufacturer").unwrap().id;
    let loc_id = cat.resolve(company).unwrap().attr("location").unwrap().id;

    let mut src = MemSource::new();
    let cities = ["Detroit", "Austin", "Toledo"];
    let companies: Vec<Oid> = cities
        .iter()
        .enumerate()
        .map(|(i, city)| {
            let oid = Oid::new(company, 1000 + i as u64);
            src.add_object(oid, vec![(loc_id, Value::str(*city))]);
            oid
        })
        .collect();
    for i in 0..n {
        let class = if i % 2 == 0 { truck } else { auto };
        src.add_object(
            Oid::new(class, i),
            vec![
                // Tens of duplicates per key: order-by ties everywhere.
                (weight_id, Value::Int((i / 10) as i64)),
                (manu_id, Value::Ref(companies[(i % 3) as usize])),
            ],
        );
    }
    (cat, src, vehicle)
}

const QUERIES: &[&str] = &[
    "select v from Vehicle* v where v.weight > 10 and v.manufacturer.location = \"Detroit\"",
    "select v.weight from Vehicle* v where v.manufacturer.location != \"Austin\" \
     order by v.weight asc",
    "select v, v.weight from Vehicle* v order by v.weight desc limit 17",
    "select v.manufacturer.location from Vehicle* v where v.weight >= 5 \
     order by v.weight asc limit 40",
    "select v from Vehicle* v where v.weight < 30 limit 25",
    "select count(*) from Vehicle* v where v.manufacturer.location = \"Toledo\"",
    "select v from Truck v where v.weight <= 12 order by v.weight desc",
];

#[test]
fn parallel_results_match_serial_exactly() {
    let (cat, src, _) = fixture(600);
    for text in QUERIES {
        let planned = plan(&cat, &src, parse(text).unwrap()).unwrap();
        let serial =
            execute_with(&cat, &src, &planned, &ExecOptions::with_threads(1)).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                execute_with(&cat, &src, &planned, &ExecOptions::with_threads(threads)).unwrap();
            assert_eq!(
                serial, parallel,
                "`{text}` diverged at {threads} threads ({})",
                planned.report()
            );
        }
    }
}

#[test]
fn desc_ties_reproduce_reversed_stable_order() {
    // The reference semantics sort ascending (stable: ties keep
    // candidate order) and then reverse, so descending ties appear in
    // *reverse* candidate order. The bounded top-K heap must agree.
    let (cat, src, _) = fixture(100);
    let planned = plan(
        &cat,
        &src,
        parse("select v from Vehicle* v order by v.weight desc limit 15").unwrap(),
    )
    .unwrap();
    let unlimited = plan(
        &cat,
        &src,
        parse("select v from Vehicle* v order by v.weight desc").unwrap(),
    )
    .unwrap();
    for threads in [1, 4] {
        let opts = ExecOptions::with_threads(threads);
        let top = execute_with(&cat, &src, &planned, &opts).unwrap();
        let full = execute_with(&cat, &src, &unlimited, &opts).unwrap();
        assert_eq!(top.oids, full.oids[..15], "top-K must be a prefix of the full sort");
    }
}

#[test]
fn explain_reports_parallelism_and_ref_cache_rate() {
    let (cat, src, _) = fixture(600);
    // The manufacturer is reached through a reference step in the
    // residual and again in the projection: three companies serve all
    // six hundred vehicles from each worker's cache.
    let planned = plan(
        &cat,
        &src,
        parse(
            "select v.manufacturer.location from Vehicle* v \
             where v.manufacturer.location != \"Nowhere\" order by v.weight asc",
        )
        .unwrap(),
    )
    .unwrap();
    assert!(planned.report().last_run.is_none(), "no run recorded before execution");
    execute_with(&cat, &src, &planned, &ExecOptions::with_threads(4)).unwrap();
    let report = planned.report();
    let run = report.last_run.expect("execution recorded");
    assert_eq!(run.parallelism, 4);
    // 600 objects × 2 reference steps; each of 4 workers misses each
    // of the 3 companies once.
    assert_eq!(run.memo_lookups, 1200);
    assert_eq!(run.memo_hits, 1200 - 12);
    assert_eq!(run.memo_hit_pct(), 99);
    let text = report.to_string();
    assert!(text.contains("parallelism=4"), "missing thread count: {text}");
    assert!(text.contains("memo hits 1188/1200 (99%)"), "missing cache stats: {text}");
}

#[test]
fn exec_metrics_accumulate_across_queries() {
    use orion_query::ExecMetrics;
    use std::sync::Arc;

    let (cat, src, _) = fixture(300);
    let metrics = Arc::new(ExecMetrics::default());
    let opts =
        ExecOptions { threads: 2, metrics: Some(Arc::clone(&metrics)), ..Default::default() };

    let planned = plan(
        &cat,
        &src,
        parse("select v from Vehicle* v where v.weight < 10").unwrap(),
    )
    .unwrap();
    execute_with(&cat, &src, &planned, &opts).unwrap();
    let s1 = metrics.snapshot();
    assert_eq!(s1.queries, 1);
    assert_eq!(s1.rows_scanned, 300, "every candidate counted");
    assert_eq!(s1.rows_matched, 100, "weights 0..=9 cover serials 0..100");
    assert_eq!(s1.last_parallelism, 2);

    // A second execution accumulates rather than overwrites.
    execute_with(&cat, &src, &planned, &opts).unwrap();
    let s2 = metrics.snapshot();
    assert_eq!(s2.queries, 2);
    assert_eq!(s2.rows_scanned, 600);
    assert_eq!(s2.rows_matched, 200);
}
