//! End-to-end tests of the `Database` facade: the paper's feature list,
//! exercised one capability at a time.

use orion_core::{
    var, AccessPath, AttrSpec, AuthAction, AuthTarget, Database, DbConfig, DbError, Domain,
    FaultKind, FaultPlan, IndexKind, Migration, NotificationKind, Oid, PrimitiveType, Rule,
    RuleAtom, SchemaChange, Term, Value, VersionStatus,
};
use std::sync::Arc;

fn int() -> Domain {
    Domain::Primitive(PrimitiveType::Int)
}
fn string() -> Domain {
    Domain::Primitive(PrimitiveType::Str)
}

/// Figure 1 of the paper: the Vehicle/Company schema.
fn figure1(db: &Database) {
    db.create_class(
        "Company",
        &[],
        vec![AttrSpec::new("name", string()), AttrSpec::new("location", string())],
    )
    .unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("weight", int()),
            AttrSpec::new("manufacturer", Domain::Class(company)),
        ],
    )
    .unwrap();
    db.create_class("Automobile", &["Vehicle"], vec![AttrSpec::new("drivetrain", string())])
        .unwrap();
    db.create_class("Truck", &["Vehicle"], vec![AttrSpec::new("payload", int())]).unwrap();
}

/// Populate: n vehicles alternating Automobile/Truck over two companies.
fn populate(db: &Database, n: u64) -> (Oid, Oid) {
    let tx = db.begin();
    let detroit = db
        .create_object(
            &tx,
            "Company",
            vec![("name", Value::str("MotorCo")), ("location", Value::str("Detroit"))],
        )
        .unwrap();
    let austin = db
        .create_object(
            &tx,
            "Company",
            vec![("name", Value::str("ChipCo")), ("location", Value::str("Austin"))],
        )
        .unwrap();
    for i in 1..=n {
        let class = if i % 2 == 0 { "Truck" } else { "Automobile" };
        let manu = if i % 2 == 0 { detroit } else { austin };
        db.create_object(
            &tx,
            class,
            vec![("weight", Value::Int(1000 * i as i64)), ("manufacturer", Value::Ref(manu))],
        )
        .unwrap();
    }
    db.commit(tx).unwrap();
    (detroit, austin)
}

#[test]
fn crud_and_defaults() {
    let db = Database::open_in_memory();
    db.create_class(
        "Point",
        &[],
        vec![
            AttrSpec::new("x", int()).with_default(Value::Int(0)),
            AttrSpec::new("y", int()),
        ],
    )
    .unwrap();
    let tx = db.begin();
    let p = db.create_object(&tx, "Point", vec![("y", Value::Int(5))]).unwrap();
    assert_eq!(db.get(&tx, p, "x").unwrap(), Value::Int(0), "default applies");
    assert_eq!(db.get(&tx, p, "y").unwrap(), Value::Int(5));
    db.set(&tx, p, "x", Value::Int(9)).unwrap();
    assert_eq!(db.get(&tx, p, "x").unwrap(), Value::Int(9));
    assert!(db.get(&tx, p, "z").is_err());
    assert!(db.set(&tx, p, "x", Value::str("nope")).is_err(), "domain enforced");
    db.delete_object(&tx, p).unwrap();
    assert!(db.get(&tx, p, "x").is_err());
    db.commit(tx).unwrap();
}

#[test]
fn figure1_query_through_facade() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 8);
    let tx = db.begin();
    let r = db
        .query(
            &tx,
            "select v from Vehicle* v where v.weight > 7500 \
             and v.manufacturer.location = \"Detroit\"",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    let weight = db.get(&tx, r.oids[0], "weight").unwrap();
    assert_eq!(weight, Value::Int(8000));
    db.commit(tx).unwrap();
}

#[test]
fn inherited_attributes_read_through_subclass() {
    let db = Database::open_in_memory();
    figure1(&db);
    let tx = db.begin();
    let t = db
        .create_object(&tx, "Truck", vec![("weight", Value::Int(1)), ("payload", Value::Int(2))])
        .unwrap();
    assert_eq!(db.get(&tx, t, "weight").unwrap(), Value::Int(1), "inherited");
    assert_eq!(db.get(&tx, t, "payload").unwrap(), Value::Int(2), "local");
    db.commit(tx).unwrap();
}

#[test]
fn rollback_undoes_everything_including_indexes() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 4);
    db.create_index("w", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    assert_eq!(db.index_stats("w").unwrap().0, 4);

    let tx = db.begin();
    let v = db.create_object(&tx, "Truck", vec![("weight", Value::Int(77))]).unwrap();
    db.set(&tx, v, "weight", Value::Int(88)).unwrap();
    db.rollback(tx).unwrap();

    assert!(!db.exists(v));
    assert_eq!(db.index_stats("w").unwrap().0, 4, "index entries rolled back");
    let tx = db.begin();
    let r = db.query(&tx, "select count(*) from Vehicle* v").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4));
    db.commit(tx).unwrap();
}

#[test]
fn crash_recovery_preserves_committed_objects() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 6);
    db.create_index("w", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();

    // An uncommitted transaction in flight at the crash.
    let tx = db.begin();
    let doomed = db.create_object(&tx, "Truck", vec![("weight", Value::Int(1))]).unwrap();
    db.engine().wal().flush().unwrap();
    std::mem::forget(tx); // simulate an in-flight txn at crash time
    db.crash_and_recover().unwrap();

    assert!(!db.exists(doomed), "loser undone by recovery");
    let tx = db.begin();
    let r = db.query(&tx, "select count(*) from Vehicle* v").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(6));
    // Indexes were rebuilt and still answer queries.
    let r = db.query(&tx, "select v from Vehicle* v where v.weight = 4000").unwrap();
    assert_eq!(r.len(), 1);
    // New OIDs do not collide with recovered ones.
    let fresh = db.create_object(&tx, "Truck", vec![("weight", Value::Int(2))]).unwrap();
    assert!(db.exists(fresh));
    db.commit(tx).unwrap();
}

#[test]
fn simple_index_follows_updates_and_deletes() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 4);
    db.create_index("w", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    let tx = db.begin();
    let hit = db.query(&tx, "select v from Vehicle* v where v.weight = 2000").unwrap();
    assert_eq!(hit.len(), 1);
    let target = hit.oids[0];
    db.set(&tx, target, "weight", Value::Int(2500)).unwrap();
    assert_eq!(db.query(&tx, "select v from Vehicle* v where v.weight = 2000").unwrap().len(), 0);
    assert_eq!(db.query(&tx, "select v from Vehicle* v where v.weight = 2500").unwrap().len(), 1);
    db.delete_object(&tx, target).unwrap();
    assert_eq!(db.query(&tx, "select v from Vehicle* v where v.weight = 2500").unwrap().len(), 0);
    db.commit(tx).unwrap();
}

#[test]
fn nested_index_maintained_through_intermediate_update() {
    let db = Database::open_in_memory();
    figure1(&db);
    let (detroit, austin) = populate(&db, 8);
    db.create_index("loc", IndexKind::Nested, "Vehicle", &["manufacturer", "location"]).unwrap();

    let tx = db.begin();
    let q = "select count(*) from Vehicle* v where v.manufacturer.location = \"Detroit\"";
    assert_eq!(db.query(&tx, q).unwrap().rows[0][0], Value::Int(4));
    // The optimizer should pick the nested index.
    let plan = db
        .explain(&tx, "select v from Vehicle* v where v.manufacturer.location = \"Detroit\"")
        .unwrap();
    assert!(
        !matches!(plan.access, AccessPath::Scan),
        "expected nested-index plan, got: {plan}"
    );

    // Update the INTERMEDIATE object: the company moves. Every vehicle
    // keyed through it must re-key.
    db.set(&tx, detroit, "location", Value::str("Flint")).unwrap();
    assert_eq!(db.query(&tx, q).unwrap().rows[0][0], Value::Int(0));
    let q2 = "select count(*) from Vehicle* v where v.manufacturer.location = \"Flint\"";
    assert_eq!(db.query(&tx, q2).unwrap().rows[0][0], Value::Int(4));

    // Re-pointing a vehicle's manufacturer re-keys just that root.
    let trucks = db.query(&tx, "select v from Truck v order by v.weight asc").unwrap();
    db.set(&tx, trucks.oids[0], "manufacturer", Value::Ref(austin)).unwrap();
    assert_eq!(db.query(&tx, q2).unwrap().rows[0][0], Value::Int(3));
    db.commit(tx).unwrap();
}

#[test]
fn late_binding_dispatch_and_override() {
    let db = Database::open_in_memory();
    figure1(&db);
    db.define_method(
        "Vehicle",
        "describe",
        0,
        Arc::new(|db, tx, receiver, _args| {
            let w = db.get(tx, receiver, "weight")?;
            Ok(Value::Str(format!("vehicle weighing {w}")))
        }),
    )
    .unwrap();
    db.define_method(
        "Truck",
        "describe",
        0,
        Arc::new(|db, tx, receiver, _args| {
            let p = db.get(tx, receiver, "payload")?;
            Ok(Value::Str(format!("truck hauling {p}")))
        }),
    )
    .unwrap();
    let tx = db.begin();
    let a = db.create_object(&tx, "Automobile", vec![("weight", Value::Int(900))]).unwrap();
    let t = db
        .create_object(&tx, "Truck", vec![("weight", Value::Int(5000)), ("payload", Value::Int(3))])
        .unwrap();
    // Automobile inherits Vehicle's method; Truck overrides.
    assert_eq!(db.call(&tx, a, "describe", &[]).unwrap(), Value::str("vehicle weighing 900"));
    assert_eq!(db.call(&tx, t, "describe", &[]).unwrap(), Value::str("truck hauling 3"));
    assert!(db.call(&tx, a, "fly", &[]).is_err());
    // Arity mismatch is a query error.
    assert!(db.call(&tx, a, "describe", &[Value::Int(1)]).is_err());
    db.commit(tx).unwrap();
}

#[test]
fn navigation_uses_swizzled_pointers_when_warm() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 2);
    let tx = db.begin();
    let v = db.query(&tx, "select v from Truck v").unwrap().oids[0];
    // First navigation faults objects in; repeatings hit swizzles.
    let c1 = db.navigate(&tx, v, &["manufacturer"]).unwrap();
    let before = db.stats().cache;
    for _ in 0..10 {
        assert_eq!(db.navigate(&tx, v, &["manufacturer"]).unwrap(), c1);
    }
    let stats = db.stats().cache;
    assert_eq!(stats.swizzled_hops - before.swizzled_hops, 10, "warm hops all swizzled: {stats:?}");
    assert_eq!(stats.unswizzled_hops - before.unswizzled_hops, 0);
    db.commit(tx).unwrap();
}

#[test]
fn schema_evolution_lazy_and_eager() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 4);
    let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
    // Lazy add: existing instances read the default on next touch.
    db.evolve(
        SchemaChange::AddAttribute {
            class: vehicle,
            spec: AttrSpec::new("color", string()).with_default(Value::str("black")),
        },
        Migration::Lazy,
    )
    .unwrap();
    let tx = db.begin();
    let v = db.query(&tx, "select v from Truck v").unwrap().oids[0];
    assert_eq!(db.get(&tx, v, "color").unwrap(), Value::str("black"));
    db.set(&tx, v, "color", Value::str("red")).unwrap();
    assert_eq!(db.get(&tx, v, "color").unwrap(), Value::str("red"));
    db.commit(tx).unwrap();

    // Eager drop: records are scrubbed now; queries no longer see it.
    db.evolve(
        SchemaChange::DropAttribute { class: vehicle, name: "color".into() },
        Migration::Eager,
    )
    .unwrap();
    let tx = db.begin();
    assert!(db.get(&tx, v, "color").is_err());
    assert!(db.query(&tx, "select v from Vehicle* v where v.color = \"red\"").is_err());
    db.commit(tx).unwrap();
}

/// A schema change whose eager migration fails leaves nothing behind:
/// the migrated instances roll back, and the catalog is the one the
/// change replaced.
#[test]
fn failed_eager_migration_leaves_the_schema_unchanged() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 4);
    db.create_index("w", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
    // The scrub's first read misses the emptied pool and fails.
    db.cool_caches().unwrap();
    db.install_faults(FaultPlan::new(1).fail_nth(FaultKind::ReadError, 1));
    let drop_weight = SchemaChange::DropAttribute { class: vehicle, name: "weight".into() };
    assert!(db.evolve(drop_weight, Migration::Eager).is_err());
    db.clear_faults();

    let tx = db.begin();
    let heavy = db.query(&tx, "select v from Vehicle* v where v.weight > 0").unwrap();
    assert_eq!(heavy.len(), 4, "the attribute and its index are still there");
    assert_eq!(db.index_defs().len(), 1);
    db.commit(tx).unwrap();
}

#[test]
fn evolution_drops_dependent_indexes() {
    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 4);
    db.create_index("w", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
    db.evolve(
        SchemaChange::DropAttribute { class: vehicle, name: "weight".into() },
        Migration::Lazy,
    )
    .unwrap();
    assert!(db.index_stats("w").is_none(), "index on dropped attribute removed");
}

#[test]
fn versions_lifecycle_and_notifications() {
    let db = Database::open_in_memory();
    db.create_class("Design", &[], vec![AttrSpec::new("rev", int())]).unwrap();
    let tx = db.begin();
    let (generic, v1) = db
        .create_versioned(&tx, "Design", vec![("rev", Value::Int(1))])
        .unwrap();
    db.subscribe(generic);

    // Generic reads forward to the default version.
    assert_eq!(db.get(&tx, generic, "rev").unwrap(), Value::Int(1));
    // Generic objects are not directly writable.
    assert!(matches!(
        db.set(&tx, generic, "rev", Value::Int(9)),
        Err(DbError::Version(_))
    ));

    // Derive, update the transient child, promote it.
    let v2 = db.derive_version(&tx, v1).unwrap();
    assert_eq!(db.get(&tx, v2, "rev").unwrap(), Value::Int(1), "copied");
    db.set(&tx, v2, "rev", Value::Int(2)).unwrap();
    assert_eq!(db.version_status(v2).unwrap(), VersionStatus::Transient);
    db.promote_version(&tx, v2).unwrap();
    assert_eq!(db.version_status(v2).unwrap(), VersionStatus::Working);
    assert!(matches!(db.set(&tx, v2, "rev", Value::Int(3)), Err(DbError::Version(_))),
        "working versions are immutable");
    assert!(db.promote_version(&tx, v2).is_err(), "double promote");

    // Late-binding generic reference: flip the default.
    db.set_default_version(&tx, generic, v2).unwrap();
    assert_eq!(db.get(&tx, generic, "rev").unwrap(), Value::Int(2));
    assert_eq!(db.default_version(generic).unwrap(), v2);
    assert_eq!(db.version_parent(v2).unwrap(), Some(v1));
    assert_eq!(db.versions_of(generic).unwrap(), vec![v1, v2]);

    let notes = db.poll_notifications(generic);
    let kinds: Vec<NotificationKind> = notes.iter().map(|n| n.kind).collect();
    assert!(kinds.contains(&NotificationKind::VersionDerived));
    assert!(kinds.contains(&NotificationKind::DefaultVersionChanged));
    db.commit(tx).unwrap();
}

#[test]
fn composite_parts_cluster_delete_and_exclusivity() {
    let db = Database::open_in_memory();
    db.create_class("Module", &[], vec![AttrSpec::new("name", string())]).unwrap();
    let module = db.with_catalog(|c| c.class_id("Module")).unwrap();
    db.create_class(
        "Assembly",
        &[],
        vec![
            AttrSpec::new("name", string()),
            AttrSpec::new("modules", Domain::set_of_class(module)).composite(),
        ],
    )
    .unwrap();
    let tx = db.begin();
    let asm = db.create_object(&tx, "Assembly", vec![("name", Value::str("engine"))]).unwrap();
    let m1 = db.create_part(&tx, asm, "modules", "Module", vec![("name", Value::str("block"))])
        .unwrap();
    let m2 = db.create_part(&tx, asm, "modules", "Module", vec![("name", Value::str("head"))])
        .unwrap();
    assert_eq!(db.parts_of(asm), {
        let mut v = vec![m1, m2];
        v.sort();
        v
    });
    assert_eq!(db.composite_parent(m1), Some(asm));

    // Exclusivity: another assembly cannot claim m1.
    let asm2 = db.create_object(&tx, "Assembly", vec![("name", Value::str("copy"))]).unwrap();
    let steal = db.set(&tx, asm2, "modules", Value::set(vec![Value::Ref(m1)]));
    assert!(matches!(steal, Err(DbError::Composite(_))));

    // Dependent delete: parts die with the root.
    db.delete_object(&tx, asm).unwrap();
    assert!(!db.exists(m1));
    assert!(!db.exists(m2));
    db.commit(tx).unwrap();
}

#[test]
fn composite_checkout_checkin_roundtrip() {
    let db = Database::open_in_memory();
    db.create_class("Part", &[], vec![AttrSpec::new("mass", int())]).unwrap();
    let part = db.with_catalog(|c| c.class_id("Part")).unwrap();
    db.create_class(
        "Widget",
        &[],
        vec![AttrSpec::new("core", Domain::Class(part)).composite()],
    )
    .unwrap();
    let tx = db.begin();
    let w = db.create_object(&tx, "Widget", vec![]).unwrap();
    let p = db.create_part(&tx, w, "core", "Part", vec![("mass", Value::Int(10))]).unwrap();
    db.commit(tx).unwrap();

    // Long-duration editing session: checkout, edit offline, checkin.
    let tx = db.begin();
    let mut workspace = db.checkout(&tx, w).unwrap();
    assert_eq!(workspace.len(), 2);
    for (name, value) in workspace.get_mut(&p).unwrap() {
        if name == "mass" {
            *value = Value::Int(42);
        }
    }
    db.checkin(&tx, workspace).unwrap();
    db.commit(tx).unwrap();

    let tx = db.begin();
    assert_eq!(db.get(&tx, p, "mass").unwrap(), Value::Int(42));
    db.commit(tx).unwrap();
}

#[test]
fn authorization_enforced_per_subject() {
    let config = DbConfig { authz_enabled: true, ..DbConfig::default() };
    let db = Database::with_config(config);
    figure1(&db);
    populate(&db, 2);
    let vehicle = db.with_catalog(|c| c.class_id("Vehicle")).unwrap();
    let truck = db.with_catalog(|c| c.class_id("Truck")).unwrap();
    let auto = db.with_catalog(|c| c.class_id("Automobile")).unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    {
        let mut az = db_authz(&db);
        az(AuthAction::Read, AuthTarget::Class(vehicle));
        az(AuthAction::Read, AuthTarget::Class(truck));
        az(AuthAction::Read, AuthTarget::Class(auto));
        az(AuthAction::Read, AuthTarget::Class(company));
    }

    let tx = db.begin_as("reader");
    let trucks = db.query(&tx, "select v from Truck v").unwrap();
    assert_eq!(trucks.len(), 1);
    let t = trucks.oids[0];
    assert!(db.get(&tx, t, "weight").is_ok());
    assert!(matches!(
        db.set(&tx, t, "weight", Value::Int(1)),
        Err(DbError::AuthorizationDenied { .. })
    ));
    assert!(matches!(
        db.create_object(&tx, "Truck", vec![]),
        Err(DbError::AuthorizationDenied { .. })
    ));
    db.commit(tx).unwrap();

    // Subject-less transactions act with system authority.
    let tx = db.begin();
    assert!(db.set(&tx, t, "weight", Value::Int(1)).is_ok());
    db.commit(tx).unwrap();
}

/// Helper granting Read to the fixed subject "reader".
fn db_authz(db: &Database) -> impl FnMut(AuthAction, AuthTarget) + '_ {
    move |action, target| {
        db.grant("reader", action, target);
    }
}

#[test]
fn views_give_content_based_authorization() {
    let config = DbConfig { authz_enabled: true, ..DbConfig::default() };
    let db = Database::with_config(config);
    figure1(&db);
    populate(&db, 8);
    db.define_view(
        "HeavyVehicles",
        "select v from Vehicle* v where v.weight > 5000",
    )
    .unwrap();
    db.grant("guest", AuthAction::Read, AuthTarget::View("HeavyVehicles".into()));

    let tx = db.begin_as("guest");
    // Direct class access: denied.
    assert!(matches!(
        db.query(&tx, "select v from Vehicle* v"),
        Err(DbError::AuthorizationDenied { .. })
    ));
    // Through the view: only qualifying content, with extra predicates.
    let r = db.query(&tx, "select v from HeavyVehicles v").unwrap();
    assert_eq!(r.len(), 3);
    let r = db
        .query(&tx, "select v from HeavyVehicles v where v.manufacturer.location = \"Detroit\"")
        .unwrap();
    assert_eq!(r.len(), 2);
    db.commit(tx).unwrap();

    assert_eq!(db.view_names(), vec!["HeavyVehicles".to_string()]);
    assert!(db.define_view("HeavyVehicles", "select v from Truck v").is_err());
    db.drop_view("HeavyVehicles").unwrap();
    assert!(db.drop_view("HeavyVehicles").is_err());
}

#[test]
fn deductive_rules_transitive_closure_over_cyclic_graph() {
    let db = Database::open_in_memory();
    db.create_class("Node", &[], vec![AttrSpec::new("label", string())]).unwrap();
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
    // A cycle a -> b -> c -> a plus a tail c -> d.
    let a = db.create_object(&tx, "Node", vec![("label", Value::str("a"))]).unwrap();
    let b = db.create_object(&tx, "Node", vec![("label", Value::str("b"))]).unwrap();
    let c = db.create_object(&tx, "Node", vec![("label", Value::str("c"))]).unwrap();
    let d = db.create_object(&tx, "Node", vec![("label", Value::str("d"))]).unwrap();
    db.set(&tx, a, "next", Value::set(vec![Value::Ref(b)])).unwrap();
    db.set(&tx, b, "next", Value::set(vec![Value::Ref(c)])).unwrap();
    db.set(&tx, c, "next", Value::set(vec![Value::Ref(a), Value::Ref(d)])).unwrap();
    db.commit(tx).unwrap();

    // reachable(X, Y) :- next(X, Y).
    // reachable(X, Z) :- reachable(X, Y), next(Y, Z).
    db.add_rule(Rule {
        head: RuleAtom::new("reachable", vec![var("X"), var("Y")]),
        body: vec![RuleAtom::new("next", vec![var("X"), var("Y")])],
    })
    .unwrap();
    db.add_rule(Rule {
        head: RuleAtom::new("reachable", vec![var("X"), var("Z")]),
        body: vec![
            RuleAtom::new("reachable", vec![var("X"), var("Y")]),
            RuleAtom::new("next", vec![var("Y"), var("Z")]),
        ],
    })
    .unwrap();

    let semi = db.infer("reachable", true).unwrap();
    let naive = db.infer("reachable", false).unwrap();
    // Cycle members reach all four nodes; d reaches nothing: 3*4 = 12.
    assert_eq!(semi.tuples.len(), 12);
    assert_eq!(naive.tuples.len(), 12);
    assert!(
        semi.substitutions < naive.substitutions,
        "semi-naive does less join work ({} vs {})",
        semi.substitutions,
        naive.substitutions
    );
    // Membership check: a reaches d.
    assert!(semi
        .tuples
        .iter()
        .any(|t| t == &vec![Value::Ref(a), Value::Ref(d)]));
}

#[test]
fn rule_validation() {
    let db = Database::open_in_memory();
    assert!(db
        .add_rule(Rule {
            head: RuleAtom::new("p", vec![var("X")]),
            body: vec![],
        })
        .is_err());
    assert!(db
        .add_rule(Rule {
            head: RuleAtom::new("p", vec![var("X"), var("Y")]),
            body: vec![RuleAtom::new("q", vec![var("X")])],
        })
        .is_err(), "unbound head variable");
    assert!(db
        .add_rule(Rule {
            head: RuleAtom::new("p", vec![var("X"), var("Y"), Term::Const(Value::Int(1))]),
            body: vec![RuleAtom::new("q", vec![var("X"), var("Y")])],
        })
        .is_err(), "arity 3 rejected");
}

#[test]
fn foreign_adapter_federation() {
    use orion_core::{ForeignAdapter, ForeignClass, ForeignObject};
    use orion_types::DbResult;

    /// A toy foreign database: two employee rows.
    struct Payroll;
    impl ForeignAdapter for Payroll {
        fn name(&self) -> &str {
            "payroll"
        }
        fn classes(&self) -> Vec<ForeignClass> {
            vec![ForeignClass {
                name: "Employee".into(),
                attrs: vec![
                    ("ename".into(), PrimitiveType::Str),
                    ("salary".into(), PrimitiveType::Int),
                ],
            }]
        }
        fn scan(&self, class: &str) -> DbResult<Vec<ForeignObject>> {
            assert_eq!(class, "Employee");
            Ok(vec![
                ForeignObject {
                    key: 1,
                    attrs: vec![
                        ("ename".into(), Value::str("kim")),
                        ("salary".into(), Value::Int(90_000)),
                    ],
                },
                ForeignObject {
                    key: 2,
                    attrs: vec![
                        ("ename".into(), Value::str("banerjee")),
                        ("salary".into(), Value::Int(80_000)),
                    ],
                },
            ])
        }
    }

    let db = Database::open_in_memory();
    figure1(&db);
    populate(&db, 2);
    let exclusive = db.stats().gate.exclusive_acquisitions;
    let attached = db.attach_foreign(Box::new(Payroll)).unwrap();
    assert_eq!(attached, vec!["Employee".to_string()]);
    assert_eq!(
        db.stats().gate.exclusive_acquisitions,
        exclusive,
        "attach takes the maintenance gate shared"
    );
    assert_eq!(db.foreign_adapters(), vec!["payroll".to_string()]);

    // The same declarative language runs over foreign data.
    let tx = db.begin();
    let r = db.query(&tx, "select e.ename from Employee e where e.salary > 85000").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("kim")]]);
    // Mixed: native classes still work in the same session.
    let r = db.query(&tx, "select count(*) from Vehicle* v").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // Foreign classes reject writes through orion.
    assert!(matches!(
        db.create_object(&tx, "Employee", vec![]),
        Err(DbError::Foreign(_))
    ));
    db.commit(tx).unwrap();
}

#[test]
fn lock_conflicts_between_transactions() {
    let config =
        DbConfig { lock_timeout: std::time::Duration::from_millis(80), ..DbConfig::default() };
    let db = Database::with_config(config);
    figure1(&db);
    populate(&db, 2);
    let tx1 = db.begin();
    let v = db.query(&tx1, "select v from Truck v").unwrap().oids[0];
    db.set(&tx1, v, "weight", Value::Int(123)).unwrap();
    // A second transaction cannot read the X-locked object.
    let tx2 = db.begin();
    let err = db.get(&tx2, v, "weight").unwrap_err();
    assert!(matches!(err, DbError::LockTimeout { .. }));
    // After commit, the lock clears.
    db.commit(tx1).unwrap();
    assert_eq!(db.get(&tx2, v, "weight").unwrap(), Value::Int(123));
    db.commit(tx2).unwrap();
}

#[test]
fn set_valued_attributes_queryable() {
    let db = Database::open_in_memory();
    db.create_class(
        "Doc",
        &[],
        vec![AttrSpec::new(
            "tags",
            Domain::SetOf(Box::new(Domain::Primitive(PrimitiveType::Str))),
        )],
    )
    .unwrap();
    let tx = db.begin();
    db.create_object(
        &tx,
        "Doc",
        vec![("tags", Value::set(vec![Value::str("red"), Value::str("fast")]))],
    )
    .unwrap();
    db.create_object(&tx, "Doc", vec![("tags", Value::set(vec![Value::str("blue")]))])
        .unwrap();
    let r = db.query(&tx, "select d from Doc d where d.tags contains \"red\"").unwrap();
    assert_eq!(r.len(), 1);
    db.commit(tx).unwrap();
}

#[test]
fn large_multimedia_blobs_chain_through_storage() {
    // §2.2: "long unstructured data (such as images, audio, and textual
    // documents)". A 100 KiB blob spans ~25 pages of overflow chain.
    let db = Database::open_in_memory();
    db.create_class(
        "Image",
        &[],
        vec![
            AttrSpec::new("name", string()),
            AttrSpec::new("bits", Domain::Primitive(PrimitiveType::Blob)),
        ],
    )
    .unwrap();
    let payload: Vec<u8> = (0..100 * 1024).map(|i| (i % 251) as u8).collect();
    let tx = db.begin();
    let img = db
        .create_object(
            &tx,
            "Image",
            vec![("name", Value::str("scan")), ("bits", Value::Blob(payload.clone()))],
        )
        .unwrap();
    assert_eq!(db.get(&tx, img, "bits").unwrap(), Value::Blob(payload.clone()));
    db.commit(tx).unwrap();

    // Survives a crash, remains queryable, and updates re-chain.
    db.crash_and_recover().unwrap();
    let tx = db.begin();
    assert_eq!(db.get(&tx, img, "bits").unwrap(), Value::Blob(payload));
    let smaller = vec![9u8; 10];
    db.set(&tx, img, "bits", Value::Blob(smaller.clone())).unwrap();
    assert_eq!(db.get(&tx, img, "bits").unwrap(), Value::Blob(smaller));
    let r = db.query(&tx, "select i from Image i where i.name = \"scan\"").unwrap();
    assert_eq!(r.oids, vec![img]);
    db.commit(tx).unwrap();
}

#[test]
fn blob_attributes_store_multimedia() {
    let db = Database::open_in_memory();
    db.create_class(
        "Image",
        &[],
        vec![
            AttrSpec::new("name", string()),
            AttrSpec::new("bits", Domain::Primitive(PrimitiveType::Blob)),
        ],
    )
    .unwrap();
    let tx = db.begin();
    let payload = vec![7u8; 2048];
    let img = db
        .create_object(
            &tx,
            "Image",
            vec![("name", Value::str("logo")), ("bits", Value::Blob(payload.clone()))],
        )
        .unwrap();
    assert_eq!(db.get(&tx, img, "bits").unwrap(), Value::Blob(payload));
    db.commit(tx).unwrap();
}
