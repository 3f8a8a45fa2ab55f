//! The experiment harness: regenerates every table in EXPERIMENTS.md
//! and checks each experiment's claim in counts.
//!
//! Each experiment reproduces one performance claim or architectural
//! prediction of Won Kim, "Research Directions in Object-Oriented
//! Database Systems" (PODS 1990) — see DESIGN.md §3 for the index.
//! Wall-clock columns are printed for the record; the gates read counts
//! (candidates, fetches, page misses, log records, locks), which hold
//! on any host, and one same-run time ratio (E5's hop against relbase's,
//! with a wide margin). A full run writes `BENCH_experiments.json` and
//! exits nonzero if any gate is breached.
//!
//! Run all:    `cargo run -p orion-bench --release --bin experiments`
//! Run some:   `cargo run -p orion-bench --release --bin experiments -- e1 e3`

use orion_bench::{assemblies, chains, chains_relational, deep_hierarchy, fleet,
    fleet_relational, fmt_dur, time, time_per, Cmp, Gates, Table};
use orion_core::{
    var, AttrSpec, AuthAction, AuthTarget, Database, DbConfig, Domain, IndexKind,
    LockingStrategy, Migration, Oid, PrimitiveType, Rule, RuleAtom, SchemaChange, Value,
};
use std::time::Duration;

/// One experiment: runs, prints its table, checks its gates.
type Experiment = fn(&mut Gates);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    let experiments: Vec<(&str, &str, Experiment)> = vec![
        ("f1", "Figure 1: the paper's schema and query", f1),
        ("e1", "class-hierarchy index vs per-class indexes vs scan", e1),
        ("e2", "nested-attribute index vs forward traversal", e2),
        ("e3", "swizzled navigation vs relational joins", e3),
        ("e4", "optimizer access-path selection", e4),
        ("e5", "simple database operations (RUBE87) — orion vs relbase", e5),
        ("e6", "schema evolution: lazy vs eager migration", e6),
        ("e7", "late binding: dispatch cost and the method cache", e7),
        ("e8", "granular vs coarse locking under concurrency", e8),
        ("e9", "versions and composite locks", e9),
        ("e10", "composite clustering vs scattered placement", e10),
        ("e11", "authorization overhead and view filtering", e11),
        ("e12", "deductive rules: semi-naive vs naive evaluation", e12),
        ("e13", "recovery: durability and checkpoint effect", e13),
        ("e14", "multidatabase: native vs federated access", e14),
    ];
    let mut gates = Gates::default();
    for (name, title, f) in experiments {
        if want(name) {
            println!("\n=== {} — {} ===", name.to_uppercase(), title);
            f(&mut gates);
        }
    }
    if args.is_empty() {
        let json = format!("{{\n  \"bench\": \"experiments\",\n  {}\n}}\n", gates.json());
        std::fs::write("BENCH_experiments.json", json).expect("write BENCH_experiments.json");
        println!("wrote BENCH_experiments.json");
    }
    gates.finish();
}

/// Build the canonical fleet DB used by several experiments.
fn default_fleet(n: usize, k: usize) -> orion_bench::FleetDb {
    fleet(n, k, DbConfig::default())
}

// ---------------------------------------------------------------------------
// F1
// ---------------------------------------------------------------------------

fn f1(_: &mut Gates) {
    let f = default_fleet(5_000, 4);
    let db = &f.db;
    let tx = db.begin();
    let q = "select count(*) from Vehicle* v \
             where v.weight > 2500 and v.manufacturer.location = \"Detroit\"";
    let (dur, result) = time(|| db.query(&tx, q).unwrap());
    println!("query : {q}");
    println!("plan  : {}", db.explain(&tx, q).unwrap());
    println!("result: {} vehicles in {}", result.rows[0][0], fmt_dur(dur));
    db.commit(tx).unwrap();
}

// ---------------------------------------------------------------------------
// E1 — class-hierarchy indexing (§3.2, [KIM89b])
// ---------------------------------------------------------------------------

fn e1(g: &mut Gates) {
    const N: usize = 40_000;
    const K: usize = 8;
    let f = default_fleet(N, K);
    let db = &f.db;
    // One CH index at the root...
    db.create_index("ch_weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    // ...versus one SC index per class (the relational design).
    for class in &f.leaf_classes {
        db.create_index(&format!("sc_{class}"), IndexKind::SingleClass, class, &["weight"])
            .unwrap();
    }

    let lo = (N / 2) as i64;
    let hi = lo + (N / 100) as i64; // 1% selectivity
    let hierarchy_q =
        format!("select count(*) from Vehicle* v where v.weight >= {lo} and v.weight < {hi}");
    let single_q = |class: &str| {
        format!("select count(*) from {class} v where v.weight >= {lo} and v.weight < {hi}")
    };
    let per_class: Vec<String> = f.leaf_classes.iter().map(|c| single_q(c)).collect();

    let mut table =
        Table::new(&["query scope", "access method", "time", "rows", "index probes", "candidates"]);
    // Run a query set in one transaction and table it: returns (rows,
    // index probes, candidates pulled from the access paths).
    let mut run = |scope: &str, method: &str, queries: &[String]| {
        let tx = db.begin();
        let before = db.stats().exec;
        let (d, rows) = time(|| {
            let count = |q: &String| db.query(&tx, q).unwrap().rows[0][0].as_int().unwrap();
            queries.iter().map(count).sum::<i64>()
        });
        let exec = db.stats().exec;
        db.commit(tx).unwrap();
        let probes = exec.index_picks - before.index_picks;
        let candidates = exec.rows_scanned - before.rows_scanned;
        table.row(vec![scope.into(), method.into(), fmt_dur(d), rows.to_string(),
            probes.to_string(), candidates.to_string()]);
        (rows, probes, candidates)
    };

    let scope = format!("hierarchy ({K} classes)");
    let hierarchy = std::slice::from_ref(&hierarchy_q);
    let (ch_rows, ch_probes, ch_candidates) = run(&scope, "one class-hierarchy index", hierarchy);
    let (_, sc_probes, _) = run(&scope, &format!("{K} single-class indexes"), &per_class);
    db.drop_index("ch_weight").unwrap();
    for class in &f.leaf_classes {
        db.drop_index(&format!("sc_{class}")).unwrap();
    }
    run(&scope, "extent scan", hierarchy);

    // Single-class query: CH vs SC index (the CH directory tax).
    db.create_index("ch_weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    run("single class", "class-hierarchy index", &per_class[..1]);
    db.create_index("sc_one", IndexKind::SingleClass, &f.leaf_classes[0], &["weight"]).unwrap();
    run("single class", "single-class index", &per_class[..1]);
    table.print();

    // One descent of one index answers the hierarchy query, pulling
    // only the answer; per-class indexes need one descent per class.
    g.check("e1.ch_index.probes", ch_probes as f64, Cmp::Equal, 1.0);
    g.check("e1.sc_indexes.probes", sc_probes as f64, Cmp::Equal, K as f64);
    g.check("e1.ch_index.candidates", ch_candidates as f64, Cmp::AtMost, ch_rows as f64);
}

// ---------------------------------------------------------------------------
// E2 — nested-attribute indexing (§3.2, [BERT89])
// ---------------------------------------------------------------------------

fn e2(g: &mut Gates) {
    const N: usize = 40_000;
    let f = default_fleet(N, 4);
    let db = &f.db;
    let q = "select count(*) from Vehicle* v where v.manufacturer.location = \"Detroit\"";

    // Cold caches, so every object a plan reads is fetched from storage.
    let run = || {
        db.cool_caches().unwrap();
        let tx = db.begin();
        let before = db.stats().fetches;
        let (d, r) = time(|| db.query(&tx, q).unwrap());
        db.commit(tx).unwrap();
        (d, r.rows[0][0].as_int().unwrap(), db.stats().fetches - before)
    };
    let mut table = Table::new(&["access method", "time", "rows", "objects fetched"]);
    let (d, rows, traversal) = run();
    table.row(vec!["forward traversal per object".into(), fmt_dur(d), rows.to_string(),
        traversal.to_string()]);
    db.create_index("loc", IndexKind::Nested, "Vehicle", &["manufacturer", "location"]).unwrap();
    let (d, rows, indexed) = run();
    table.row(vec!["nested-attribute index".into(), fmt_dur(d), rows.to_string(),
        indexed.to_string()]);
    table.print();

    // Maintenance correctness under intermediate update, and its cost.
    let tx = db.begin();
    let city_move = f.companies[0];
    let (d, ()) = time(|| db.set(&tx, city_move, "location", Value::str("Flint")).unwrap());
    println!("re-keying all roots after one company moved: {}", fmt_dur(d));
    db.commit(tx).unwrap();

    // Traversal reads every vehicle; the index answers from postings.
    g.check("e2.traversal.fetches", traversal as f64, Cmp::AtLeast, N as f64);
    g.check("e2.nested_index.fetches", indexed as f64, Cmp::AtMost, rows as f64);
}

// ---------------------------------------------------------------------------
// E3 — swizzling vs joins (§3.3, [MAIE89a])
// ---------------------------------------------------------------------------

fn e3(g: &mut Gates) {
    const CHAINS: usize = 400;
    const DEPTH: usize = 6;

    let mut table =
        Table::new(&["engine / mode", "cache", "per-traversal", "speedup vs joins"]);

    // Relational baseline: one index probe per hop.
    let rel = relbase::RelDb::new(256);
    let heads = chains_relational(&rel, CHAINS, DEPTH);
    let rel_probe = |head: i64| {
        let mut cur = Value::Int(head);
        for _ in 0..DEPTH - 1 {
            let rows = rel.select_eq("link", "id", &cur).unwrap();
            cur = rows[0].1[2].clone();
        }
        cur
    };
    // Warm the pool.
    for &h in &heads {
        std::hint::black_box(rel_probe(h));
    }
    let rel_per = time_per(1, || {
        for &h in &heads {
            std::hint::black_box(rel_probe(h));
        }
    }) / heads.len() as u32;
    table.row(vec![
        "relbase: index probe per hop".into(),
        "warm".into(),
        fmt_dur(rel_per),
        "1.0x".into(),
    ]);

    // The paper's actual complaint (§3.3): without index support the
    // application expresses each hop as a join — a scan per hop. Probe
    // a small sample; extrapolation is linear.
    let rel2 = relbase::RelDb::new(256);
    let heads2 = chains_relational(&rel2, CHAINS, DEPTH);
    // (chains_relational builds the id index; drop it by rebuilding the
    // probe against the unindexed payload column instead.)
    let scan_probe = |head: i64| {
        let mut cur = Value::Int(head);
        for _ in 0..DEPTH - 1 {
            let rows = rel2.select_eq("link", "payload", &cur).unwrap();
            cur = rows[0].1[2].clone();
        }
        cur
    };
    let sample = &heads2[..heads2.len().min(25)];
    let scan_per = time_per(1, || {
        for &h in sample {
            std::hint::black_box(scan_probe(h));
        }
    }) / sample.len() as u32;
    table.row(vec![
        "relbase: unindexed join (scan per hop)".into(),
        "warm".into(),
        fmt_dur(scan_per),
        format!("{:.2}x", rel_per.as_nanos() as f64 / scan_per.as_nanos().max(1) as f64),
    ]);

    // orion with and without swizzling.
    for swizzling in [true, false] {
        let config = DbConfig {
            swizzling,
            cache_objects: CHAINS * DEPTH + 64,
            ..DbConfig::default()
        };
        let db = Database::with_config(config);
        let heads = chains(&db, CHAINS, DEPTH);
        let path: Vec<&str> = std::iter::repeat_n("next", DEPTH - 1).collect();
        let tx = db.begin();
        // Cold run (first touch faults everything in).
        db.cool_caches().unwrap();
        let cold = time_per(1, || {
            for &h in &heads {
                std::hint::black_box(db.navigate(&tx, h, &path).unwrap());
            }
        }) / heads.len() as u32;
        // Warm runs.
        let before = db.stats().cache;
        let warm = time_per(8, || {
            for &h in &heads {
                std::hint::black_box(db.navigate(&tx, h, &path).unwrap());
            }
        }) / heads.len() as u32;
        let after = db.stats().cache;
        let swizzled_hops = after.swizzled_hops - before.swizzled_hops;
        let unswizzled_hops = after.unswizzled_hops - before.unswizzled_hops;
        let label = if swizzling { "orion: swizzled pointers" } else { "orion: OID hash per hop" };
        table.row(vec![
            label.into(),
            "cold".into(),
            fmt_dur(cold),
            format!("{:.1}x", rel_per.as_nanos() as f64 / cold.as_nanos().max(1) as f64),
        ]);
        table.row(vec![
            label.into(),
            "warm".into(),
            fmt_dur(warm),
            format!("{:.1}x", rel_per.as_nanos() as f64 / warm.as_nanos().max(1) as f64),
        ]);
        if swizzling {
            println!("warm passes: {swizzled_hops} swizzled hops, {unswizzled_hops} unswizzled");
            // Once faulted in, every hop follows a memory pointer.
            g.check("e3.warm.unswizzled_hops", unswizzled_hops as f64, Cmp::Equal, 0.0);
        }
        db.commit(tx).unwrap();
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E4 — the optimizer picks access paths (§3.3 point 3)
// ---------------------------------------------------------------------------

fn e4(g: &mut Gates) {
    const N: usize = 20_000;
    let f = default_fleet(N, 4);
    let db = &f.db;
    db.create_index("ch_weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    db.create_index("sc_name0", IndexKind::SingleClass, &f.leaf_classes[0], &["name"]).unwrap();
    db.create_index("loc", IndexKind::Nested, "Vehicle", &["manufacturer", "location"]).unwrap();

    let queries = [
        "select count(*) from Vehicle* v where v.weight = 777",
        "select count(*) from Vehicle* v where v.weight >= 100 and v.weight < 300",
        &format!("select count(*) from {} v where v.name = \"vehicle4\"", f.leaf_classes[0]),
        "select count(*) from Vehicle* v where v.manufacturer.location = \"Kyoto\"",
        "select count(*) from Vehicle* v where v.manufacturer.cname like \"company1%\"",
        "select count(*) from VehicleKind1 v where v.name = \"vehicle5\"",
        // Figure 1: both conjuncts indexed, the smaller count drives.
        "select count(*) from Vehicle* v \
         where v.weight > 7500 and v.manufacturer.location = \"Detroit\"",
    ];
    // The index each query's plan is driven by, by creation order (0 =
    // scan): each index kind when and only when it applies.
    let expected = [1, 1, 2, 3, 0, 0, 3];
    let columns = ["query (where-clause)", "chosen plan", "time", "rows", "candidates", "fetched"];
    let mut table = Table::new(&columns);
    let tx = db.begin();
    let mut chosen = Vec::new();
    let mut figure1 = (0, 0, 0, 0);
    for q in queries {
        let report = db.explain(&tx, q).unwrap();
        chosen.push(report.access.index().unwrap_or(0));
        let before = db.stats();
        let (d, r) = time(|| db.query(&tx, q).unwrap());
        let (rows, after) = (r.rows[0][0].as_int().unwrap() as u64, db.stats());
        let candidates = after.exec.rows_scanned - before.exec.rows_scanned;
        let fetched = after.fetches - before.fetches;
        let clause = q.split(" where ").nth(1).unwrap_or(q).split_whitespace().collect::<Vec<_>>();
        table.row(vec![
            clause.join(" "),
            report.to_string(),
            fmt_dur(d),
            rows.to_string(),
            candidates.to_string(),
            fetched.to_string(),
        ]);
        // The last query is Figure 1's.
        figure1 = (1 + report.intersect.len(), rows, candidates, fetched);
    }
    db.commit(tx).unwrap();
    table.print();
    for (i, (got, want)) in chosen.into_iter().zip(expected).enumerate() {
        g.check(&format!("e4.q{}.index", i + 1), got.into(), Cmp::Equal, want.into());
    }
    // Figure 1 is answered by both indexes at once: every candidate is
    // an answer, and no object is read to find them.
    let (probes, rows, candidates, fetched) = figure1;
    g.check("e4.q7.probes", probes as f64, Cmp::Equal, 2.0);
    g.check("e4.q7.candidates", candidates as f64, Cmp::Equal, rows as f64);
    g.check("e4.q7.fetches", fetched as f64, Cmp::Equal, 0.0);
}

// ---------------------------------------------------------------------------
// E5 — simple database operations ([RUBE87], §5.6)
// ---------------------------------------------------------------------------

fn e5(g: &mut Gates) {
    const N: usize = 20_000;
    const PROBES: usize = 500;
    let f = default_fleet(N, 4);
    let db = &f.db;
    db.create_index("byname", IndexKind::ClassHierarchy, "Vehicle", &["name"]).unwrap();
    let rel = fleet_relational(N);

    let mut table = Table::new(&["operation", "orion", "relbase", "ratio (rel/orion)"]);

    // (1) Name lookup — parsed per call, and prepared once.
    let tx = db.begin();
    let orion_lookup = time_per(PROBES, || {
        let i = 17 * 31 % N;
        db.query(&tx, &format!("select v from Vehicle* v where v.name = \"vehicle{i}\""))
            .unwrap()
    });
    let prepared = db
        .prepare_query(&tx, "select v from Vehicle* v where v.name = \"vehicle527\"")
        .unwrap();
    let orion_prepared = time_per(PROBES, || db.execute_prepared(&prepared).unwrap());
    db.commit(tx).unwrap();
    let rel_lookup = time_per(PROBES, || {
        let i = 17 * 31 % N;
        rel.select_eq("vehicle", "name", &Value::Str(format!("vehicle{i}"))).unwrap()
    });
    table.row(vec![
        "name lookup (parse + plan + probe)".into(),
        fmt_dur(orion_lookup),
        fmt_dur(rel_lookup),
        format!("{:.1}x", rel_lookup.as_nanos() as f64 / orion_lookup.as_nanos().max(1) as f64),
    ]);
    table.row(vec![
        "name lookup (prepared)".into(),
        fmt_dur(orion_prepared),
        fmt_dur(rel_lookup),
        format!("{:.1}x", rel_lookup.as_nanos() as f64 / orion_prepared.as_nanos().max(1) as f64),
    ]);

    // (2) One-hop reference traversal (vehicle -> its manufacturer).
    let tx = db.begin();
    let sample: Vec<Oid> = f.vehicles.iter().step_by(N / PROBES).copied().collect();
    // Warm once.
    for &v in &sample {
        std::hint::black_box(db.navigate(&tx, v, &["manufacturer"]).unwrap());
    }
    let before = db.stats();
    let orion_hop = time_per(1, || {
        for &v in &sample {
            std::hint::black_box(db.navigate(&tx, v, &["manufacturer"]).unwrap());
        }
    }) / sample.len() as u32;
    let after = db.stats();
    db.commit(tx).unwrap();
    let rel_rows: Vec<i64> =
        (0..N).step_by(N / PROBES).map(|i| i as i64).collect();
    let rel_hop = time_per(1, || {
        for &id in &rel_rows {
            let v = rel.select_eq("vehicle", "id", &Value::Int(id)).unwrap();
            let cid = v[0].1[3].clone();
            std::hint::black_box(rel.select_eq("company", "id", &cid).unwrap());
        }
    }) / rel_rows.len() as u32;
    table.row(vec![
        "1-hop reference traversal".into(),
        fmt_dur(orion_hop),
        fmt_dur(rel_hop),
        format!("{:.1}x", rel_hop.as_nanos() as f64 / orion_hop.as_nanos().max(1) as f64),
    ]);

    // (3) Insert.
    let tx = db.begin();
    let mut i = N;
    let orion_insert = time_per(PROBES, || {
        i += 1;
        db.create_object(
            &tx,
            &f.leaf_classes[0],
            vec![("name", Value::Str(format!("vehicle{i}"))), ("weight", Value::Int(i as i64))],
        )
        .unwrap()
    });
    db.commit(tx).unwrap();
    let txn = rel.begin();
    let mut j = N;
    let rel_insert = time_per(PROBES, || {
        j += 1;
        rel.insert(
            txn,
            "vehicle",
            vec![
                Value::Int(j as i64),
                Value::Str(format!("vehicle{j}")),
                Value::Int(j as i64),
                Value::Int(0),
            ],
        )
        .unwrap()
    });
    rel.commit(txn).unwrap();
    table.row(vec![
        "insert (indexed attr)".into(),
        fmt_dur(orion_insert),
        fmt_dur(rel_insert),
        format!("{:.1}x", rel_insert.as_nanos() as f64 / orion_insert.as_nanos().max(1) as f64),
    ]);
    table.print();
    g.not_reproduced(
        "e5.name_lookup.orion_over_relbase",
        (orion_lookup.as_nanos() as f64 / rel_lookup.as_nanos().max(1) as f64).round(),
        "every query is lexed, parsed, planned and compiled per call, with no plan cache \
         (ROADMAP 1(c)), where relbase probes a prepared index; prepared, the lookup ties \
         the relational probe",
    );
    // The warm pass in counts: every hop through a swizzle slot, and
    // not one object fetched from storage.
    let swizzled = after.cache.swizzled_hops - before.cache.swizzled_hops;
    g.check("e5.reference_hop.swizzled_hops", swizzled as f64, Cmp::Equal, sample.len() as f64);
    g.check("e5.reference_hop.fetches", (after.fetches - before.fetches) as f64, Cmp::Equal, 0.0);
    // Same run, same sample size: a hop costs at most half of
    // relbase's two indexed probes.
    g.check(
        "e5.reference_hop.orion_over_relbase",
        orion_hop.as_nanos() as f64 / rel_hop.as_nanos().max(1) as f64,
        Cmp::AtMost,
        0.5,
    );
}

// ---------------------------------------------------------------------------
// E6 — schema evolution migration policies (§5.1, [BANE87])
// ---------------------------------------------------------------------------

fn e6(g: &mut Gates) {
    const N: usize = 40_000;
    let mut table = Table::new(&[
        "change",
        "policy",
        "DDL time",
        "records rewritten",
        "first full read after",
    ]);
    for eager in [false, true] {
        let f = default_fleet(N, 4);
        let db = &f.db;
        let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
        let policy = if eager { Migration::Eager } else { Migration::Lazy };
        // DDL time, and the record changes it logged.
        let evolve = |change: SchemaChange| {
            let before = db.stats().wal.logical_records;
            let (d, ()) = time(|| db.evolve(change, policy).unwrap());
            (d, db.stats().wal.logical_records - before)
        };
        let read = |q: &str| {
            let tx = db.begin();
            let (d, _) = time(|| db.query(&tx, q).unwrap());
            db.commit(tx).unwrap();
            d
        };
        let add = SchemaChange::AddAttribute {
            class: vehicle,
            spec: AttrSpec::new("color", Domain::Primitive(PrimitiveType::Str))
                .with_default(Value::str("black")),
        };
        let (ddl, rewritten) = evolve(add);
        let touch = read("select count(*) from Vehicle* v where v.color = \"black\"");
        table.row(vec![format!("add attribute ({N} instances)"), format!("{policy:?}"),
            fmt_dur(ddl), rewritten.to_string(), fmt_dur(touch)]);
        // Lazy DDL rewrites only the catalog; eager rewrites every instance.
        let (cmp, budget) = if eager { (Cmp::AtLeast, N) } else { (Cmp::AtMost, 1) };
        g.check(&format!("e6.{policy:?}.records_rewritten").to_lowercase(), rewritten as f64,
            cmp, budget as f64);

        let drop = SchemaChange::DropAttribute { class: vehicle, name: "color".into() };
        let (ddl, rewritten) = evolve(drop);
        let touch = read("select count(*) from Vehicle* v");
        table.row(vec![format!("drop attribute ({N} instances)"), format!("{policy:?}"),
            fmt_dur(ddl), rewritten.to_string(), fmt_dur(touch)]);
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E7 — late binding (§3.1 concept 6, §4.2)
// ---------------------------------------------------------------------------

fn e7(_: &mut Gates) {
    const CALLS: usize = 200_000;
    let mut table = Table::new(&["hierarchy depth", "method cache", "per-dispatch"]);
    for depth in [1usize, 4, 16] {
        for cache in [true, false] {
            let db = Database::open_in_memory();
            let leaf = deep_hierarchy(&db, depth);
            db.with_catalog_mut(|c| c.set_method_cache_enabled(cache));
            let tx = db.begin();
            let obj = db.create_object(&tx, &leaf, vec![]).unwrap();
            let class = obj.class();
            // Tight loop on resolution itself (the dispatch mechanism).
            let per = db.with_catalog(|c| {
                time_per(CALLS, || c.resolve_method(class, "m").unwrap())
            });
            // Sanity: the full message send works too.
            assert_eq!(db.call(&tx, obj, "m", &[]).unwrap(), Value::Int(42));
            db.commit(tx).unwrap();
            table.row(vec![
                depth.to_string(),
                if cache { "on" } else { "off" }.into(),
                fmt_dur(per),
            ]);
        }
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E8 — lock granularity under concurrency ([GARZ88])
// ---------------------------------------------------------------------------

fn e8(g: &mut Gates) {
    const THREADS: usize = 4;
    const OPS: usize = 150;
    // The paper's motivating transactions are compute-intensive (CAx):
    // each reads an object, computes, and writes it back. The think
    // time is what granular locking lets disjoint writers overlap —
    // a coarse class lock serializes it.
    const THINK: Duration = Duration::from_micros(20);
    fn think() {
        let start = std::time::Instant::now();
        while start.elapsed() < THINK {
            std::hint::spin_loop();
        }
    }
    let mut table =
        Table::new(&["locking strategy", "threads", "total time", "txns/sec", "deadlock aborts"]);
    for strategy in [LockingStrategy::Granular, LockingStrategy::CoarseClass] {
        let config = DbConfig {
            locking: strategy,
            lock_timeout: Duration::from_secs(30),
            ..DbConfig::default()
        };
        let f = fleet(THREADS * OPS, 1, config);
        let db = &f.db;
        let aborts = std::sync::atomic::AtomicU64::new(0);
        let (d, ()) = time(|| {
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let vehicles = &f.vehicles;
                    let aborts = &aborts;
                    scope.spawn(move || {
                        for i in 0..OPS {
                            let oid = vehicles[t * OPS + i];
                            // Retry loop: under coarse locking, two
                            // read-then-write transactions on the same
                            // class deadlock on the S->X upgrade; the
                            // victim aborts and retries.
                            loop {
                                let tx = db.begin();
                                let step = || -> orion_types::DbResult<()> {
                                    let w = db.get(&tx, oid, "weight")?.as_int().unwrap();
                                    think(); // "compute" while holding the lock
                                    db.set(&tx, oid, "weight", Value::Int(w + 1))
                                };
                                match step() {
                                    Ok(()) => {
                                        db.commit(tx).unwrap();
                                        break;
                                    }
                                    Err(_) => {
                                        aborts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                        db.rollback(tx).unwrap();
                                    }
                                }
                            }
                        }
                    });
                }
            });
        });
        let total = (THREADS * OPS) as f64;
        let aborts = aborts.into_inner();
        table.row(vec![
            format!("{strategy:?}"),
            THREADS.to_string(),
            fmt_dur(d),
            format!("{:.0}", total / d.as_secs_f64()),
            aborts.to_string(),
        ]);
        match strategy {
            // Disjoint objects under intention locks never conflict.
            LockingStrategy::Granular => {
                g.check("e8.granular.aborts", aborts as f64, Cmp::Equal, 0.0)
            }
            LockingStrategy::CoarseClass => g.not_reproduced(
                "e8.coarse_class.aborts",
                aborts as f64,
                "class S locks upgrade to X on write: a fresh S request is granted past a \
                 waiting upgrader and the requester that closes the cycle is the victim, which \
                 retries at once, so read-then-write on one class livelocks; the paper's \
                 serialization shows as abort storms, not as a bounded slowdown (ROADMAP 2(a))",
            ),
        }
    }
    table.print();
}

// ---------------------------------------------------------------------------
// E9 — versions and composite locks (§3.3, §5.5, [KIM89c])
// ---------------------------------------------------------------------------

fn e9(g: &mut Gates) {
    const UPDATES: usize = 2_000;
    let db = Database::open_in_memory();
    db.create_class(
        "Doc",
        &[],
        vec![AttrSpec::new("rev", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let tx = db.begin();
    let plain = db.create_object(&tx, "Doc", vec![("rev", Value::Int(0))]).unwrap();
    let (_generic, version) =
        db.create_versioned(&tx, "Doc", vec![("rev", Value::Int(0))]).unwrap();
    let mut table = Table::new(&["operation", "per-op"]);
    let plain_upd = time_per(UPDATES, || db.set(&tx, plain, "rev", Value::Int(1)).unwrap());
    let vers_upd = time_per(UPDATES, || db.set(&tx, version, "rev", Value::Int(1)).unwrap());
    table.row(vec!["update plain object".into(), fmt_dur(plain_upd)]);
    table.row(vec!["update transient version".into(), fmt_dur(vers_upd)]);
    let create = time_per(200, || db.create_object(&tx, "Doc", vec![]).unwrap());
    let derive = time_per(200, || db.derive_version(&tx, version).unwrap());
    table.row(vec!["create plain object".into(), fmt_dur(create)]);
    table.row(vec!["derive version".into(), fmt_dur(derive)]);
    db.commit(tx).unwrap();

    // Composite locking: lock a 64-part composite in one protocol step
    // versus touching each part under its own transaction.
    let db2 = Database::open_in_memory();
    let roots = assemblies(&db2, 1, 64, false);
    let root = roots[0];
    let members = db2.composite_members(root);
    let read = |tx: &orion_core::Tx, m: Oid| {
        std::hint::black_box(db2.get(tx, m, if m == root { "title" } else { "area" }).unwrap());
    };
    let one_step = || {
        let tx = db2.begin();
        db2.lock_composite(&tx, root).unwrap();
        members.iter().for_each(|&m| read(&tx, m));
        db2.commit(tx).unwrap();
    };
    let per_object = || {
        for &m in &members {
            let tx = db2.begin();
            read(&tx, m);
            db2.commit(tx).unwrap();
        }
    };
    // (per-read time, lock acquisitions and log records per read)
    let measure = |read_composite: &dyn Fn()| {
        let d = time_per(50, read_composite);
        let before = db2.stats();
        read_composite();
        let after = db2.stats();
        let locks = after.locks.acquisitions - before.locks.acquisitions;
        (d, locks, after.wal.appends - before.wal.appends)
    };
    let (one_d, one_locks, one_log) = measure(&one_step);
    let (per_d, per_locks, per_log) = measure(&per_object);
    table.row(vec!["read 65-object composite, composite lock".into(), fmt_dur(one_d)]);
    table.row(vec!["read 65-object composite, txn per object".into(), fmt_dur(per_d)]);
    table.print();
    println!(
        "per composite read: composite lock {one_locks} lock acquisitions, {one_log} log records; \
         txn per object {per_locks} lock acquisitions, {per_log} log records"
    );
    // One sweep locks each member once (its reads re-request covered
    // modes). Neither shape writes, so neither appends a log record.
    let members = members.len() as f64;
    g.check("e9.composite_lock.locks_per_member", one_locks as f64 / members, Cmp::AtMost, 6.0);
    g.check("e9.composite_lock.log_records", one_log as f64, Cmp::AtMost, 0.0);
    g.check("e9.txn_per_object.log_records", per_log as f64, Cmp::AtMost, 0.0);
}

// ---------------------------------------------------------------------------
// E10 — clustering (§4.2)
// ---------------------------------------------------------------------------

fn e10(g: &mut Gates) {
    const ASSEMBLIES: usize = 128;
    const PARTS: usize = 12;
    let mut table = Table::new(&[
        "placement",
        "page misses / composite",
        "traversal time / composite",
    ]);
    let mut per_composite = Vec::new();
    for clustering in [true, false] {
        let config = DbConfig {
            clustering,
            buffer_pages: 16,  // small pool: locality matters
            cache_objects: 64, // object cache must not hide the pages
            ..DbConfig::default()
        };
        let db = Database::with_config(config);
        // Interleaved creation scatters parts unless hints pull them in.
        let roots = assemblies(&db, ASSEMBLIES, PARTS, true);
        // Visit composites in a shuffled order: real CAx access is
        // "open one design", not a sequential sweep that would let
        // scattered layouts ride on accidental page adjacency.
        let mut order: Vec<usize> = (0..roots.len()).collect();
        {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            order.shuffle(&mut rng);
        }
        db.cool_caches().unwrap();
        let before = db.stats().pool.misses;
        let tx = db.begin();
        let (d, ()) = time(|| {
            for &i in &order {
                for part in db.parts_of(roots[i]) {
                    std::hint::black_box(db.get(&tx, part, "area").unwrap());
                }
            }
        });
        db.commit(tx).unwrap();
        let misses = (db.stats().pool.misses - before) as f64 / ASSEMBLIES as f64;
        table.row(vec![
            if clustering { "clustered with parent (hints)" } else { "creation order (scattered)" }
                .into(),
            format!("{misses:.1}"),
            fmt_dur(d / ASSEMBLIES as u32),
        ]);
        per_composite.push(misses);
    }
    table.print();
    // ⌈13 objects / parts per page⌉ = 3 pages when clustered.
    g.check("e10.clustered.misses_per_composite", per_composite[0], Cmp::AtMost, 3.1);
    g.check("e10.clustered_over_scattered", per_composite[0], Cmp::Below, per_composite[1]);
}

// ---------------------------------------------------------------------------
// E11 — authorization and views (§5.4, [RABI90])
// ---------------------------------------------------------------------------

fn e11(g: &mut Gates) {
    const N: usize = 5_000;
    const READS: usize = 50_000;
    let mut table = Table::new(&["configuration", "per-read", "overhead"]);
    let mut baseline = Duration::ZERO;
    for authz in [false, true] {
        let config = DbConfig { authz_enabled: authz, ..DbConfig::default() };
        let f = fleet(N, 2, config);
        let db = &f.db;
        let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
        let sub = db.with_catalog(|c| c.subtree(vehicle).unwrap().as_ref().clone());
        for class in sub {
            db.grant("reader", AuthAction::Read, AuthTarget::Class(class));
        }
        let tx = if authz { db.begin_as("reader") } else { db.begin() };
        let oid = f.vehicles[N / 2];
        let _warmup = time_per(READS / 10, || db.get(&tx, oid, "weight").unwrap());
        let per = (0..3)
            .map(|_| time_per(READS, || db.get(&tx, oid, "weight").unwrap()))
            .min()
            .unwrap();
        db.commit(tx).unwrap();
        if !authz {
            baseline = per;
        }
        table.row(vec![
            if authz { "authorization on (role closure + implicit grants)" } else { "authorization off" }
                .into(),
            fmt_dur(per),
            if authz {
                format!("+{:.0}%", 100.0 * (per.as_nanos() as f64 / baseline.as_nanos().max(1) as f64 - 1.0))
            } else {
                "—".into()
            },
        ]);
    }
    table.print();

    // Content-based authorization through a view.
    let config = DbConfig { authz_enabled: true, ..DbConfig::default() };
    let f = fleet(N, 2, config);
    let db = &f.db;
    db.define_view("Heavy", &format!("select v from Vehicle* v where v.weight >= {}", N / 2))
        .unwrap();
    db.grant("guest", AuthAction::Read, AuthTarget::View("Heavy".into()));
    let tx = db.begin_as("guest");
    let denied = db.query(&tx, "select count(*) from Vehicle* v").is_err();
    let through_view = db.query(&tx, "select count(*) from Heavy v").unwrap().rows[0][0].clone();
    println!(
        "guest direct class access denied: {denied}; rows visible through view: {through_view} of {N}"
    );
    db.commit(tx).unwrap();
    g.check("e11.guest.class_access_denied", f64::from(u8::from(denied)), Cmp::Equal, 1.0);
    let visible = through_view.as_int().unwrap() as f64;
    g.check("e11.guest.rows_through_view", visible, Cmp::Equal, (N / 2) as f64);
}

// ---------------------------------------------------------------------------
// E12 — deductive rules (§5.4)
// ---------------------------------------------------------------------------

fn e12(g: &mut Gates) {
    const NODES: usize = 100;
    let db = Database::open_in_memory();
    db.create_class(
        "Node",
        &[],
        vec![AttrSpec::new("tag", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let node = db.with_catalog(|c| c.class_id("Node")).unwrap();
    db.evolve(
        SchemaChange::AddAttribute {
            class: node,
            spec: AttrSpec::new("next", Domain::set_of_class(node)),
        },
        Migration::Lazy,
    )
    .unwrap();
    let tx = db.begin();
    let nodes: Vec<Oid> = (0..NODES)
        .map(|i| db.create_object(&tx, "Node", vec![("tag", Value::Int(i as i64))]).unwrap())
        .collect();
    // A long chain with a back edge (cycle) and some chords.
    for i in 0..NODES - 1 {
        let mut outs = vec![Value::Ref(nodes[i + 1])];
        if i % 10 == 0 && i + 5 < NODES {
            outs.push(Value::Ref(nodes[i + 5]));
        }
        db.set(&tx, nodes[i], "next", Value::set(outs)).unwrap();
    }
    db.set(&tx, nodes[NODES - 1], "next", Value::set(vec![Value::Ref(nodes[NODES / 2])]))
        .unwrap();
    db.commit(tx).unwrap();

    db.add_rule(Rule {
        head: RuleAtom::new("reach", vec![var("X"), var("Y")]),
        body: vec![RuleAtom::new("next", vec![var("X"), var("Y")])],
    })
    .unwrap();
    db.add_rule(Rule {
        head: RuleAtom::new("reach", vec![var("X"), var("Z")]),
        body: vec![
            RuleAtom::new("reach", vec![var("X"), var("Y")]),
            RuleAtom::new("next", vec![var("Y"), var("Z")]),
        ],
    })
    .unwrap();

    let mut table =
        Table::new(&["evaluation", "tuples", "iterations", "substitutions", "time"]);
    let mut runs = Vec::new();
    for seminaive in [true, false] {
        let (d, result) = time(|| db.infer("reach", seminaive).unwrap());
        table.row(vec![
            if seminaive { "semi-naive" } else { "naive" }.into(),
            result.tuples.len().to_string(),
            result.iterations.to_string(),
            result.substitutions.to_string(),
            fmt_dur(d),
        ]);
        runs.push((result.tuples.len() as f64, result.substitutions as f64));
    }
    table.print();
    // The same fixpoint for less join work.
    let [(semi_tuples, semi_subs), (naive_tuples, naive_subs)] = runs[..] else { unreachable!() };
    g.check("e12.seminaive.tuples", semi_tuples, Cmp::Equal, naive_tuples);
    g.check("e12.seminaive.substitutions", semi_subs, Cmp::Below, naive_subs);
}

// ---------------------------------------------------------------------------
// E13 — recovery (§3.1 requirement 2)
// ---------------------------------------------------------------------------

fn e13(g: &mut Gates) {
    const TXNS: usize = 3_000;
    const OBJECTS: usize = 1_000;
    const NESTED_OBJECTS: usize = 20_000;
    let mut table = Table::new(&[
        "scenario",
        "stable log bytes",
        "records redone",
        "fetches",
        "recovery time",
        "log read / scrub / replay / rebuild",
        "objects after recovery",
    ]);
    // Restart `db` and table it: returns the records redone and the
    // objects fetched by the restart alone, and the vehicles after it.
    let mut restart = |db: &Database, scenario: String| {
        let log_bytes = db.engine().wal().stable_len();
        let before = db.stats();
        let (d, ()) = time(|| db.crash_and_recover().unwrap());
        let after = db.stats();
        let ms = |b: u64, a: u64| format!("{:.1}", (a - b) as f64 / 1e3);
        let phases = [
            ms(before.recovery.log_read.sum_micros, after.recovery.log_read.sum_micros),
            ms(before.recovery.scrub.sum_micros, after.recovery.scrub.sum_micros),
            ms(before.recovery.replay.sum_micros, after.recovery.replay.sum_micros),
            ms(before.restart.rebuild.sum_micros, after.restart.rebuild.sum_micros),
        ];
        let redone = after.recovery.records_redone - before.recovery.records_redone;
        let fetches = after.fetches - before.fetches;
        let tx = db.begin();
        let n = db.query(&tx, "select count(*) from Vehicle* v").unwrap().rows[0][0].clone();
        db.commit(tx).unwrap();
        table.row(vec![
            scenario,
            log_bytes.to_string(),
            redone.to_string(),
            fetches.to_string(),
            fmt_dur(d),
            format!("{} ms", phases.join(" / ")),
            n.to_string(),
        ]);
        (redone as f64, fetches as f64, n.as_int().unwrap() as f64)
    };
    let mut redone = Vec::new();
    for checkpoint in [false, true] {
        let f = default_fleet(OBJECTS, 2);
        let db = &f.db;
        if checkpoint {
            db.checkpoint().unwrap();
        }
        for i in 0..TXNS {
            let tx = db.begin();
            let oid = f.vehicles[i % f.vehicles.len()];
            // A realistically sized update (before + after images logged).
            db.set(&tx, oid, "name", Value::Str(format!("renamed-{i:0>120}"))).unwrap();
            db.commit(tx).unwrap();
            if checkpoint && i % 500 == 499 {
                db.checkpoint().unwrap();
            }
        }
        // One in-flight loser at crash time.
        let tx = db.begin();
        db.create_object(&tx, &f.leaf_classes[0], vec![("weight", Value::Int(-1))]).unwrap();
        db.engine().wal().flush().unwrap();
        std::mem::forget(tx);
        let scenario = if checkpoint { "checkpoint every 500" } else { "no checkpoint" };
        let (records, _, n) = restart(db, format!("{TXNS} txns, {scenario}"));
        // Every committed object survives; the loser's create does not.
        let name = format!("e13.{}.objects_after_recovery", scenario.replace(' ', "_"));
        g.check(&name, n, Cmp::Equal, OBJECTS as f64);
        redone.push(records);
    }

    // Restart with a nested index: the rebuild keys each vehicle from
    // its own record and loads only the companies the path reaches.
    let f = default_fleet(NESTED_OBJECTS, 4);
    let db = &f.db;
    db.create_index("by_weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    db.create_index("by_maker_city", IndexKind::Nested, "Vehicle", &["manufacturer", "location"])
        .unwrap();
    db.checkpoint().unwrap();
    let (_, fetches, n) = restart(db, format!("restart with a nested index ({NESTED_OBJECTS})"));
    table.print();
    // A checkpoint bounds what restart must redo.
    g.check("e13.checkpointed.records_redone", redone[1], Cmp::Below, redone[0]);
    g.check("e13.nested_restart.objects_after_recovery", n, Cmp::Equal, NESTED_OBJECTS as f64);
    // One fetch per referenced company at most, none per root.
    g.check("e13.nested_restart.fetches", fetches, Cmp::AtMost, f.companies.len() as f64);
}

// ---------------------------------------------------------------------------
// E14 — multidatabase access (§5.2)
// ---------------------------------------------------------------------------

fn e14(g: &mut Gates) {
    const N: usize = 5_000;
    // Native class.
    let f = default_fleet(N, 1);
    let db = &f.db;
    // Foreign twin of the same data.
    let rel = std::sync::Arc::new(fleet_relational(N));
    struct Adapter(std::sync::Arc<relbase::RelDb>);
    impl orion_core::ForeignAdapter for Adapter {
        fn name(&self) -> &str {
            "rel"
        }
        fn classes(&self) -> Vec<orion_core::ForeignClass> {
            vec![orion_core::ForeignClass {
                name: "RelVehicle".into(),
                attrs: vec![
                    ("id".into(), PrimitiveType::Int),
                    ("name".into(), PrimitiveType::Str),
                    ("weight".into(), PrimitiveType::Int),
                    ("company_id".into(), PrimitiveType::Int),
                ],
            }]
        }
        fn scan(&self, _class: &str) -> orion_types::DbResult<Vec<orion_core::ForeignObject>> {
            Ok(self
                .0
                .scan("vehicle")?
                .into_iter()
                .map(|(rowid, values)| orion_core::ForeignObject {
                    key: rowid,
                    attrs: vec![
                        ("id".into(), values[0].clone()),
                        ("name".into(), values[1].clone()),
                        ("weight".into(), values[2].clone()),
                        ("company_id".into(), values[3].clone()),
                    ],
                })
                .collect())
        }
    }
    db.attach_foreign(Box::new(Adapter(rel))).unwrap();

    let mut table = Table::new(&["extent", "query time", "rows"]);
    let tx = db.begin();
    let mut rows = Vec::new();
    for (label, q) in [
        ("native objects", "select count(*) from Vehicle* v where v.weight < 500"),
        ("federated (relbase via adapter)", "select count(*) from RelVehicle v where v.weight < 500"),
    ] {
        let (d, r) = time(|| db.query(&tx, q).unwrap());
        table.row(vec![label.into(), fmt_dur(d), r.rows[0][0].to_string()]);
        rows.push(r.rows[0][0].as_int().unwrap() as f64);
    }
    db.commit(tx).unwrap();
    table.print();
    // One query language answers identically over both extents.
    g.check("e14.federated.rows", rows[1], Cmp::Equal, rows[0]);
}
