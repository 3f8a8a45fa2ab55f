//! Cross-crate integration: a single scenario touching most of the
//! system at once — schema with inheritance, indexes of all three
//! kinds, declarative queries, methods, views, evolution, and recovery.

use orion_oodb::orion::{
    AccessPath, AttrSpec, Database, Domain, IndexKind, Migration, PrimitiveType, SchemaChange,
    Value,
};
use std::sync::Arc;

fn str_dom() -> Domain {
    Domain::Primitive(PrimitiveType::Str)
}
fn int_dom() -> Domain {
    Domain::Primitive(PrimitiveType::Int)
}

#[test]
fn the_whole_system_in_one_story() {
    let db = Database::open_in_memory();

    // --- Schema (Figure 1 plus a deeper hierarchy) -----------------------
    db.create_class(
        "Company",
        &[],
        vec![AttrSpec::new("name", str_dom()), AttrSpec::new("location", str_dom())],
    )
    .unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("weight", int_dom()),
            AttrSpec::new("manufacturer", Domain::Class(company)),
        ],
    )
    .unwrap();
    db.create_class("Automobile", &["Vehicle"], vec![]).unwrap();
    db.create_class("Truck", &["Vehicle"], vec![AttrSpec::new("payload", int_dom())]).unwrap();
    db.create_class("DumpTruck", &["Truck"], vec![]).unwrap();

    // --- Indexes of all three species ------------------------------------
    db.create_index("w", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    db.create_index("tp", IndexKind::SingleClass, "Truck", &["payload"]).unwrap();
    db.create_index("ml", IndexKind::Nested, "Vehicle", &["manufacturer", "location"]).unwrap();

    // --- Data --------------------------------------------------------------
    let tx = db.begin();
    let motorco = db
        .create_object(
            &tx,
            "Company",
            vec![("name", Value::str("MotorCo")), ("location", Value::str("Detroit"))],
        )
        .unwrap();
    let chipco = db
        .create_object(
            &tx,
            "Company",
            vec![("name", Value::str("ChipCo")), ("location", Value::str("Austin"))],
        )
        .unwrap();
    for i in 1..=30i64 {
        let class = match i % 3 {
            0 => "Automobile",
            1 => "Truck",
            _ => "DumpTruck",
        };
        let maker = if class == "Automobile" { chipco } else { motorco };
        let mut attrs =
            vec![("weight", Value::Int(i * 100)), ("manufacturer", Value::Ref(maker))];
        if class != "Automobile" {
            attrs.push(("payload", Value::Int(i)));
        }
        db.create_object(&tx, class, attrs).unwrap();
    }
    db.commit(tx).unwrap();

    // --- Queries against all scopes and access paths ------------------------
    let tx = db.begin();
    let all = db.query(&tx, "select count(*) from Vehicle* v").unwrap();
    assert_eq!(all.rows[0][0], Value::Int(30));
    // Truck* includes DumpTruck; Truck alone does not.
    let trucks_h = db.query(&tx, "select count(*) from Truck* v").unwrap();
    assert_eq!(trucks_h.rows[0][0], Value::Int(20));
    let trucks = db.query(&tx, "select count(*) from Truck v").unwrap();
    assert_eq!(trucks.rows[0][0], Value::Int(10));
    // Indexed range through the CH index.
    let plan = db
        .explain(&tx, "select v from Vehicle* v where v.weight >= 400 and v.weight < 800")
        .unwrap();
    assert!(!matches!(plan.access, AccessPath::Scan), "{plan}");
    let heavy =
        db.query(&tx, "select v from Vehicle* v where v.weight >= 400 and v.weight < 800").unwrap();
    assert_eq!(heavy.len(), 4);
    // Nested predicate through the nested index.
    let plan =
        db.explain(&tx, "select v from Vehicle* v where v.manufacturer.location = \"Detroit\"").unwrap();
    assert!(!matches!(plan.access, AccessPath::Scan), "{plan}");
    db.commit(tx).unwrap();

    // --- Methods with overriding -------------------------------------------
    db.define_method(
        "Vehicle",
        "category",
        0,
        Arc::new(|_, _, _, _| Ok(Value::str("generic"))),
    )
    .unwrap();
    db.define_method("Truck", "category", 0, Arc::new(|_, _, _, _| Ok(Value::str("hauler"))))
        .unwrap();
    let tx = db.begin();
    let a_truck = db.query(&tx, "select v from DumpTruck v limit 1").unwrap().oids[0];
    let an_auto = db.query(&tx, "select v from Automobile v limit 1").unwrap().oids[0];
    // DumpTruck inherits Truck's override; Automobile gets Vehicle's.
    assert_eq!(db.call(&tx, a_truck, "category", &[]).unwrap(), Value::str("hauler"));
    assert_eq!(db.call(&tx, an_auto, "category", &[]).unwrap(), Value::str("generic"));
    db.commit(tx).unwrap();

    // --- A view over the hierarchy -------------------------------------------
    db.define_view("Heavies", "select v from Vehicle* v where v.weight > 2000").unwrap();
    let tx = db.begin();
    let heavies = db.query(&tx, "select count(*) from Heavies v").unwrap();
    assert_eq!(heavies.rows[0][0], Value::Int(10));
    let filtered =
        db.query(&tx, "select count(*) from Heavies v where v isa Truck").unwrap();
    assert_eq!(filtered.rows[0][0], Value::Int(6)); // isa is subclass-aware: Trucks + DumpTrucks over 2000
    db.commit(tx).unwrap();

    // --- Evolution while data is live -----------------------------------------
    let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
    db.evolve(
        SchemaChange::AddAttribute {
            class: vehicle,
            spec: AttrSpec::new("electric", Domain::Primitive(PrimitiveType::Bool))
                .with_default(Value::Bool(false)),
        },
        Migration::Lazy,
    )
    .unwrap();
    let tx = db.begin();
    let r = db.query(&tx, "select count(*) from Vehicle* v where v.electric = false").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(30), "lazy default visible everywhere");
    db.set(&tx, a_truck, "electric", Value::Bool(true)).unwrap();
    let r = db.query(&tx, "select count(*) from Vehicle* v where v.electric = true").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    db.commit(tx).unwrap();

    // --- Crash in the middle of everything --------------------------------------
    let tx = db.begin();
    db.set(&tx, a_truck, "weight", Value::Int(999_999)).unwrap();
    db.engine().wal().flush().unwrap();
    std::mem::forget(tx);
    db.crash_and_recover().unwrap();
    let tx = db.begin();
    let w = db.get(&tx, a_truck, "weight").unwrap();
    assert_ne!(w, Value::Int(999_999), "uncommitted update rolled back");
    // Everything still queryable through rebuilt indexes.
    let r = db.query(&tx, "select count(*) from Vehicle* v where v.weight >= 400 and v.weight < 800").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4));
    assert_eq!(db.query(&tx, "select count(*) from Heavies v").unwrap().rows[0][0], Value::Int(10));
    db.commit(tx).unwrap();
}

/// The benchmark's located-range query — a location and a 500-pound
/// weight band — over a fleet with a class-hierarchy index on weight
/// and a nested index on `manufacturer.location`: both indexes answer
/// it together, every candidate is an answer, and no object is fetched
/// to find them (with one index, each candidate of the band was read
/// to test its maker's city).
#[test]
fn a_located_weight_band_is_answered_by_two_indexes_without_fetching() {
    const CITIES: [&str; 10] = [
        "Detroit", "Austin", "Portland", "Kyoto", "Venice", "Boston", "Berkeley", "Orlando",
        "Chicago", "SanJose",
    ];
    let db = Database::open_in_memory();
    db.create_class(
        "Company",
        &[],
        vec![AttrSpec::new("name", str_dom()), AttrSpec::new("location", str_dom())],
    )
    .unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    let attrs = vec![
        AttrSpec::new("weight", int_dom()),
        AttrSpec::new("manufacturer", Domain::Class(company)),
    ];
    db.create_class("Vehicle", &[], attrs).unwrap();
    db.create_class("Truck", &["Vehicle"], vec![]).unwrap();
    let tx = db.begin();
    let makers: Vec<_> = (0..60)
        .map(|c| {
            let attrs = vec![("location", Value::str(CITIES[c % 10]))];
            db.create_object(&tx, "Company", attrs).unwrap()
        })
        .collect();
    for i in 0..6_000 {
        let class = if i % 3 == 0 { "Truck" } else { "Vehicle" };
        let maker = Value::Ref(makers[i as usize % 60]);
        let attrs = vec![("weight", Value::Int(i)), ("manufacturer", maker)];
        db.create_object(&tx, class, attrs).unwrap();
    }
    db.commit(tx).unwrap();
    db.create_index("weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    db.create_index("located", IndexKind::Nested, "Vehicle", &["manufacturer", "location"])
        .unwrap();

    let text = "select v from Vehicle* v where v.manufacturer.location = \"Kyoto\" \
                and v.weight >= 2000 and v.weight < 2500";
    let tx = db.begin();
    let plan = db.explain(&tx, text).unwrap();
    assert_eq!(plan.intersect.len(), 1, "{plan}");
    assert!(plan.residual.is_none(), "{plan}");
    let before = db.stats();
    let result = db.query(&tx, text).unwrap();
    db.commit(tx).unwrap();
    // Kyoto makes every vehicle whose weight is 3 mod 10.
    assert_eq!(result.len(), 50);
    let after = db.stats();
    assert_eq!(after.fetches - before.fetches, 0, "objects fetched");
    assert_eq!(after.exec.rows_scanned - before.exec.rows_scanned, 50, "candidates");
}
