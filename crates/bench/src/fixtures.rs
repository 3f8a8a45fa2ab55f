//! Synthetic workload builders shared by the bench binaries.
//! Deterministic (seeded) so runs are comparable.

use orion_core::{AttrSpec, Database, DbConfig, Domain, Oid, PrimitiveType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relbase::{ColumnDef, RelDb};

/// Cities used for the `location` attribute; selectivity 1/len each.
pub const CITIES: &[&str] = &[
    "Detroit", "Austin", "Portland", "Kyoto", "Venice", "Boston", "Berkeley", "Orlando",
    "Chicago", "SanJose",
];

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x0D10_1990)
}

/// The Figure-1-style fleet database: `Vehicle` with `k_subclasses`
/// leaf classes under it, `n` vehicle instances spread evenly, and
/// `n / 100` companies (min 1) with locations drawn from [`CITIES`].
///
/// Returns the database and the leaf class names.
pub struct FleetDb {
    /// The database.
    pub db: Database,
    /// Leaf class names (`VehicleKind0`...).
    pub leaf_classes: Vec<String>,
    /// All vehicle OIDs.
    pub vehicles: Vec<Oid>,
    /// All company OIDs.
    pub companies: Vec<Oid>,
}

/// Build a fleet database.
pub fn fleet(n: usize, k_subclasses: usize, config: DbConfig) -> FleetDb {
    let mut rng = rng();
    let db = Database::with_config(config);
    let str_dom = || Domain::Primitive(PrimitiveType::Str);
    let int_dom = || Domain::Primitive(PrimitiveType::Int);

    db.create_class(
        "Company",
        &[],
        vec![AttrSpec::new("cname", str_dom()), AttrSpec::new("location", str_dom())],
    )
    .unwrap();
    let company = db.with_catalog(|c| c.class_id("Company")).unwrap();
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("name", str_dom()),
            AttrSpec::new("weight", int_dom()),
            AttrSpec::new("manufacturer", Domain::Class(company)),
        ],
    )
    .unwrap();
    let mut leaf_classes = Vec::new();
    for i in 0..k_subclasses {
        let name = format!("VehicleKind{i}");
        db.create_class(&name, &["Vehicle"], vec![AttrSpec::new(format!("extra{i}"), int_dom())])
            .unwrap();
        leaf_classes.push(name);
    }

    let tx = db.begin();
    let n_companies = (n / 100).max(1);
    let mut companies = Vec::with_capacity(n_companies);
    for c in 0..n_companies {
        companies.push(
            db.create_object(
                &tx,
                "Company",
                vec![
                    ("cname", Value::Str(format!("company{c}"))),
                    ("location", Value::str(CITIES[c % CITIES.len()])),
                ],
            )
            .unwrap(),
        );
    }
    let mut vehicles = Vec::with_capacity(n);
    for i in 0..n {
        let class = &leaf_classes[i % k_subclasses];
        let manu = companies[rng.gen_range(0..companies.len())];
        vehicles.push(
            db.create_object(
                &tx,
                class,
                vec![
                    ("name", Value::Str(format!("vehicle{i}"))),
                    ("weight", Value::Int(i as i64)),
                    ("manufacturer", Value::Ref(manu)),
                ],
            )
            .unwrap(),
        );
    }
    db.commit(tx).unwrap();
    FleetDb { db, leaf_classes, vehicles, companies }
}

/// The relational mirror of [`fleet`]: `vehicle(id, name, weight,
/// company_id)` and `company(id, cname, location)` with indexes on the
/// join keys and on `vehicle.name`.
pub fn fleet_relational(n: usize) -> RelDb {
    let mut rng = rng();
    let db = RelDb::new(256);
    db.create_table(
        "company",
        vec![
            ColumnDef::new("id", PrimitiveType::Int),
            ColumnDef::new("cname", PrimitiveType::Str),
            ColumnDef::new("location", PrimitiveType::Str),
        ],
    )
    .unwrap();
    db.create_table(
        "vehicle",
        vec![
            ColumnDef::new("id", PrimitiveType::Int),
            ColumnDef::new("name", PrimitiveType::Str),
            ColumnDef::new("weight", PrimitiveType::Int),
            ColumnDef::new("company_id", PrimitiveType::Int),
        ],
    )
    .unwrap();
    let txn = db.begin();
    let n_companies = (n / 100).max(1);
    for c in 0..n_companies {
        db.insert(
            txn,
            "company",
            vec![
                Value::Int(c as i64),
                Value::Str(format!("company{c}")),
                Value::str(CITIES[c % CITIES.len()]),
            ],
        )
        .unwrap();
    }
    for i in 0..n {
        db.insert(
            txn,
            "vehicle",
            vec![
                Value::Int(i as i64),
                Value::Str(format!("vehicle{i}")),
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..n_companies) as i64),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();
    db.create_index("company", "id").unwrap();
    db.create_index("vehicle", "name").unwrap();
    db.create_index("vehicle", "id").unwrap();
    db
}

/// Linked chains for the traversal experiment (E3): `chains` chains of
/// `depth` `Link` objects each (`next` references). Returns the chain
/// heads.
pub fn chains(db: &Database, chains: usize, depth: usize) -> Vec<Oid> {
    db.create_class(
        "Link",
        &[],
        vec![AttrSpec::new("payload", Domain::Primitive(PrimitiveType::Int))],
    )
    .unwrap();
    let link = db.with_catalog(|c| c.class_id("Link")).unwrap();
    db.evolve(
        orion_core::SchemaChange::AddAttribute {
            class: link,
            spec: AttrSpec::new("next", Domain::Class(link)),
        },
        orion_core::Migration::Lazy,
    )
    .unwrap();

    let tx = db.begin();
    let mut heads = Vec::with_capacity(chains);
    for c in 0..chains {
        // Build tail-first so `next` can point at an existing object.
        let mut next: Option<Oid> = None;
        for d in (0..depth).rev() {
            let mut attrs = vec![("payload", Value::Int((c * depth + d) as i64))];
            if let Some(n) = next {
                attrs.push(("next", Value::Ref(n)));
            }
            next = Some(db.create_object(&tx, "Link", attrs).unwrap());
        }
        heads.push(next.expect("depth > 0"));
    }
    db.commit(tx).unwrap();
    heads
}

/// The relational mirror of [`chains`]: `link(id, payload, next_id)`
/// with an index on `id`. Returns the head row keys.
pub fn chains_relational(db: &RelDb, chains: usize, depth: usize) -> Vec<i64> {
    db.create_table(
        "link",
        vec![
            ColumnDef::new("id", PrimitiveType::Int),
            ColumnDef::new("payload", PrimitiveType::Int),
            ColumnDef::new("next_id", PrimitiveType::Int),
        ],
    )
    .unwrap();
    let txn = db.begin();
    let mut heads = Vec::with_capacity(chains);
    for c in 0..chains {
        for d in 0..depth {
            let id = (c * depth + d) as i64;
            let next =
                if d + 1 < depth { Value::Int(id + 1) } else { Value::Null };
            db.insert(txn, "link", vec![Value::Int(id), Value::Int(id), next]).unwrap();
        }
        heads.push((c * depth) as i64);
    }
    db.commit(txn).unwrap();
    db.create_index("link", "id").unwrap();
    heads
}

/// Composite part trees for the clustering experiment (E10):
/// `n_assemblies` assemblies with `parts_each` parts. When
/// `interleaved`, assemblies are built breadth-first (one part per
/// assembly per round) so that without clustering, parts scatter across
/// pages; placement hints pull them back together.
pub fn assemblies(db: &Database, n_assemblies: usize, parts_each: usize, interleaved: bool) -> Vec<Oid> {
    db.create_class(
        "Cell",
        &[],
        vec![
            AttrSpec::new("area", Domain::Primitive(PrimitiveType::Int)),
            // Realistic part payload (geometry blob): makes pages hold
            // only a handful of cells, so placement decides locality.
            AttrSpec::new("geometry", Domain::Primitive(PrimitiveType::Blob)),
        ],
    )
    .unwrap();
    let cell = db.with_catalog(|c| c.class_id("Cell")).unwrap();
    db.create_class(
        "Assembly",
        &[],
        vec![
            AttrSpec::new("title", Domain::Primitive(PrimitiveType::Str)),
            AttrSpec::new("cells", Domain::set_of_class(cell)).composite(),
        ],
    )
    .unwrap();
    let tx = db.begin();
    let roots: Vec<Oid> = (0..n_assemblies)
        .map(|a| {
            db.create_object(&tx, "Assembly", vec![("title", Value::Str(format!("asm{a}")))])
                .unwrap()
        })
        .collect();
    if interleaved {
        for p in 0..parts_each {
            for &root in &roots {
                db.create_part(&tx, root, "cells", "Cell", vec![
                    ("area", Value::Int(p as i64)),
                    ("geometry", Value::Blob(vec![p as u8; 700])),
                ])
                .unwrap();
            }
        }
    } else {
        for &root in &roots {
            for p in 0..parts_each {
                db.create_part(&tx, root, "cells", "Cell", vec![
                    ("area", Value::Int(p as i64)),
                    ("geometry", Value::Blob(vec![p as u8; 700])),
                ])
                .unwrap();
            }
        }
    }
    db.commit(tx).unwrap();
    roots
}

/// A linear class hierarchy of `depth` classes for the dispatch
/// experiment (E7); a method `m` defined only at the root. Returns the
/// leaf class name.
pub fn deep_hierarchy(db: &Database, depth: usize) -> String {
    db.create_class("C0", &[], vec![]).unwrap();
    db.define_method("C0", "m", 0, std::sync::Arc::new(|_, _, _, _| Ok(Value::Int(42))))
        .unwrap();
    let mut prev = "C0".to_owned();
    for d in 1..depth {
        let name = format!("C{d}");
        db.create_class(&name, &[prev.as_str()], vec![]).unwrap();
        prev = name;
    }
    prev
}
