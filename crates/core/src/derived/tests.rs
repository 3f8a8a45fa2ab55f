//! Forward writes and rollback by delta against the restart rebuild:
//! after random transactions commit, or one is rolled back, every
//! derived structure must equal what `rebuild_runtime` derives from the
//! same storage (reached through `crash_and_recover`, the rebuild's own
//! caller).

use crate::database::Database;
use crate::{
    AttrSpec, ClassId, Domain, FaultKind, FaultPlan, IndexKind, Migration, Oid, PrimitiveType,
    SchemaChange, Value,
};
use std::collections::BTreeMap;

const CITIES: [&str; 4] = ["Austin", "Detroit", "Paris", "Oslo"];
const QUERIES: [&str; 6] = [
    "select v from Vehicle* v where v.weight > 800",
    "select v from Vehicle* v where v.weight = 500",
    "select v from Vehicle* v where v.manufacturer.location = \"Paris\"",
    "select c from Company c where c.name = \"c2\"",
    "select p from Part p where p.mass < 5",
    "select a from Assembly a",
];

/// A seeded xorshift: the test needs no more randomness than this.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// An index's entry count and, per key of a fixed universe, its hits.
type IndexEntries = (usize, Vec<(String, Vec<Oid>)>);

/// Everything the rebuild derives, read through the crate's internals,
/// plus the answers to a fixed query set.
#[derive(Debug, PartialEq)]
struct Derived {
    directory: BTreeMap<Oid, String>,
    extents: BTreeMap<u16, Vec<Oid>>,
    reverse: BTreeMap<Oid, Vec<(Oid, u32)>>,
    owners: BTreeMap<Oid, (Oid, u32)>,
    indexes: BTreeMap<String, IndexEntries>,
    answers: Vec<Vec<Oid>>,
}

fn derived(db: &Database, oids: &[Oid], classes: &[ClassId]) -> Derived {
    let rt = db.rt_read();
    let directory = oids
        .iter()
        .filter_map(|oid| Some((*oid, format!("{}", rt.directory.get(*oid)?))))
        .collect();
    let extents = classes.iter().map(|c| (c.0, rt.extents.snapshot(*c))).collect();
    let reverse = oids
        .iter()
        .filter_map(|oid| {
            let mut edges: Vec<(Oid, u32)> = rt
                .reverse
                .with(*oid, |e| e.map(|e| e.iter().copied().collect()).unwrap_or_default());
            edges.sort();
            (!edges.is_empty()).then_some((*oid, edges))
        })
        .collect();
    let owners = rt.composite_owner.read().iter().map(|(p, o)| (*p, *o)).collect();
    let keys: Vec<Value> = (0..=20)
        .map(|w| Value::Int(w * 100))
        .chain((0..10).map(Value::Int))
        .chain((0..4).map(|i| Value::str(format!("c{i}"))))
        .chain(CITIES.iter().map(|c| Value::str(*c)))
        .collect();
    let indexes = rt
        .indexes
        .read()
        .iter()
        .map(|inst| {
            let entries = keys
                .iter()
                .map(|k| (format!("{k:?}"), inst.imp.lookup_eq(k, None)))
                .filter(|(_, hits)| !hits.is_empty())
                .collect();
            (inst.def.name.clone(), (inst.imp.len(), entries))
        })
        .collect();
    drop(rt);
    let tx = db.begin();
    let answers = QUERIES
        .iter()
        .map(|q| {
            let mut oids = db.query(&tx, q).unwrap().oids;
            oids.sort();
            oids
        })
        .collect();
    db.commit(tx).unwrap();
    Derived { directory, extents, reverse, owners, indexes, answers }
}

struct Fixture {
    db: Database,
    companies: Vec<Oid>,
    vehicles: Vec<Oid>,
    assemblies: Vec<Oid>,
    classes: Vec<ClassId>,
}

fn fixture() -> Fixture {
    let db = Database::open_in_memory();
    let int = || Domain::Primitive(PrimitiveType::Int);
    let text = || Domain::Primitive(PrimitiveType::Str);
    let company = db
        .create_class(
            "Company",
            &[],
            vec![AttrSpec::new("name", text()), AttrSpec::new("location", text())],
        )
        .unwrap();
    let vehicle = db
        .create_class(
            "Vehicle",
            &[],
            vec![
                AttrSpec::new("weight", int()),
                AttrSpec::new("manufacturer", Domain::Class(company)),
            ],
        )
        .unwrap();
    let truck =
        db.create_class("Truck", &["Vehicle"], vec![AttrSpec::new("payload", int())]).unwrap();
    let part = db
        .create_class(
            "Part",
            &[],
            vec![AttrSpec::new("mass", int()), AttrSpec::new("maker", Domain::Class(company))],
        )
        .unwrap();
    let assembly = db
        .create_class(
            "Assembly",
            &[],
            vec![
                AttrSpec::new("name", text()),
                AttrSpec::new("parts", Domain::set_of_class(part)).composite(),
            ],
        )
        .unwrap();
    db.create_index("by_weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    db.create_index("by_name", IndexKind::SingleClass, "Company", &["name"]).unwrap();
    db.create_index("by_city", IndexKind::Nested, "Vehicle", &["manufacturer", "location"])
        .unwrap();
    db.create_index("by_mass", IndexKind::SingleClass, "Part", &["mass"]).unwrap();

    let tx = db.begin();
    let companies: Vec<Oid> = (0..4)
        .map(|i| {
            let attrs =
                vec![("name", Value::str(format!("c{i}"))), ("location", Value::str(CITIES[i]))];
            db.create_object(&tx, "Company", attrs).unwrap()
        })
        .collect();
    let vehicles: Vec<Oid> = (0..24)
        .map(|i| {
            let class = if i % 3 == 0 { "Truck" } else { "Vehicle" };
            let attrs = vec![
                ("weight", Value::Int((i as i64 % 20) * 100)),
                ("manufacturer", Value::Ref(companies[i % 4])),
            ];
            db.create_object(&tx, class, attrs).unwrap()
        })
        .collect();
    let assemblies: Vec<Oid> = (0..4)
        .map(|i| {
            let a = db
                .create_object(&tx, "Assembly", vec![("name", Value::str(format!("a{i}")))])
                .unwrap();
            for m in 0..3 {
                let attrs =
                    vec![("mass", Value::Int(m + i as i64)), ("maker", Value::Ref(companies[i]))];
                db.create_part(&tx, a, "parts", "Part", attrs).unwrap();
            }
            a
        })
        .collect();
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
    Fixture {
        db,
        companies,
        vehicles,
        assemblies,
        classes: vec![company, vehicle, truck, part, assembly],
    }
}

/// One random operation, returning its kind and whether it succeeded;
/// failures (a composite conflict, an object the transaction already
/// deleted, an injected fault) are part of the mix.
fn random_op(f: &Fixture, tx: &crate::Tx, rng: &mut Rng, created: &mut Vec<Oid>) -> (usize, bool) {
    let db = &f.db;
    let vehicle = rng.pick(&f.vehicles);
    let assembly = rng.pick(&f.assemblies);
    let kind = rng.below(9) as usize;
    let result = match kind {
        0 => db
            .create_object(
                tx,
                if rng.below(2) == 0 { "Truck" } else { "Vehicle" },
                vec![
                    ("weight", Value::Int(rng.below(21) as i64 * 100)),
                    ("manufacturer", Value::Ref(rng.pick(&f.companies))),
                ],
            )
            .map(|oid| created.push(oid)),
        1 | 2 => db.set(tx, vehicle, "weight", Value::Int(rng.below(21) as i64 * 100)),
        3 => db.set(tx, rng.pick(&f.companies), "location", Value::str(rng.pick(&CITIES))),
        4 => db.set(tx, vehicle, "manufacturer", Value::Ref(rng.pick(&f.companies))),
        5 => {
            let attrs = vec![("mass", Value::Int(rng.below(10) as i64))];
            db.create_part(tx, assembly, "parts", "Part", attrs).map(|oid| created.push(oid))
        }
        6 => {
            // Unlink some parts: dependent semantics delete them.
            let parts = db.parts_of(assembly);
            let keep = parts.into_iter().filter(|_| rng.below(2) == 0).map(Value::Ref).collect();
            db.set(tx, assembly, "parts", Value::set(keep))
        }
        7 => db.delete_object(tx, if rng.below(2) == 0 { vehicle } else { assembly }),
        _ => match db.parts_of(assembly).first() {
            Some(part) => db.set(tx, *part, "mass", Value::Int(rng.below(10) as i64)),
            None => Ok(()),
        },
    };
    (kind, result.is_ok())
}

#[test]
fn rollback_by_delta_matches_the_restart_rebuild() {
    let (mut succeeded, mut faults_failed) = ([0u32; 9], 0);
    for seed in 1..=40u64 {
        let f = fixture();
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut oids: Vec<Oid> =
            f.companies.iter().chain(&f.vehicles).chain(&f.assemblies).copied().collect();
        for a in &f.assemblies {
            oids.extend(f.db.parts_of(*a));
        }
        let before = derived(&f.db, &oids, &f.classes);

        let tx = f.db.begin();
        let mut created = Vec::new();
        let faulted = seed % 4 == 0;
        let ops = 4 + rng.below(8);
        let fault_at = rng.below(ops);
        for i in 0..ops {
            if faulted && i == fault_at {
                // The op's first storage reads miss the pool and fail.
                f.db.cool_caches().unwrap();
                f.db.install_faults(
                    FaultPlan::new(seed).fail_nth(FaultKind::ReadError, 1 + rng.below(3)),
                );
                let (_, ok) = random_op(&f, &tx, &mut rng, &mut created);
                faults_failed += u32::from(!ok);
                f.db.clear_faults();
            } else {
                let (kind, ok) = random_op(&f, &tx, &mut rng, &mut created);
                succeeded[kind] += u32::from(ok);
            }
        }
        let exclusive = f.db.stats().gate.exclusive_acquisitions;
        f.db.rollback(tx).unwrap();
        assert_eq!(f.db.stats().gate.exclusive_acquisitions, exclusive, "seed {seed}");

        oids.extend(created);
        let undone = derived(&f.db, &oids, &f.classes);
        f.db.crash_and_recover().unwrap();
        let rebuilt = derived(&f.db, &oids, &f.classes);
        assert_eq!(undone, rebuilt, "seed {seed}: delta undo differs from the rebuild");
        assert_eq!(undone.answers, before.answers, "seed {seed}: answers moved");
    }
    assert!(succeeded.iter().all(|n| *n > 0), "every kind of operation ran: {succeeded:?}");
    assert!(faults_failed > 0, "an injected fault failed an operation");
}

/// Nested indexes the forward-write test adds to a populated fixture:
/// name, root class and path.
const LATE_NESTED: [(&str, &str, [&str; 2]); 3] = [
    // A set-valued first step: each part's maker is a key.
    ("by_part_maker", "Assembly", ["parts", "maker"]),
    // A first step most roots leave unset, so it reads the default.
    ("by_dealer_city", "Vehicle", ["dealer", "location"]),
    // A list of sets: flattened one level, it references nothing.
    ("by_supplier_city", "Assembly", ["suppliers", "location"]),
];

/// Check every nested index against the query layer's reference path
/// evaluator (`orion_query::path_values`), root by root: an index must
/// post exactly the non-null values its path reaches.
fn assert_nested_match_reference(db: &Database, oids: &[Oid], seed: u64) {
    db.with_snapshot(None, |catalog, src| {
        let rt = db.rt_read();
        let indexes = rt.indexes.read();
        for inst in indexes.iter().filter(|i| i.def.kind == IndexKind::Nested) {
            let def = &inst.def;
            let mut class = catalog.resolve(def.target).unwrap();
            let mut names = Vec::new();
            for id in &def.path {
                let attr = class.attr_by_id(*id).unwrap().clone();
                if let Some(next) = attr.domain.leaf_class() {
                    class = catalog.resolve(next).unwrap();
                }
                names.push(attr.name);
            }
            let path = orion_query::Path::new(names);
            // (key, root) pairs, each once.
            let mut entries = BTreeMap::new();
            for root in oids.iter().filter(|o| rt.directory.contains(**o)) {
                if catalog.is_subclass(root.class(), def.target) {
                    for v in orion_query::path_values(catalog, src, *root, &path).unwrap() {
                        if !v.is_null() {
                            entries.insert((format!("{v:?}"), *root), v);
                        }
                    }
                }
            }
            assert_eq!(inst.imp.len(), entries.len(), "seed {seed}: {} entry count", def.name);
            for ((key, root), value) in &entries {
                let posted = inst.imp.lookup_eq(value, None).contains(root);
                assert!(posted, "seed {seed}: {} lacks {key} -> {root}", def.name);
            }
        }
    });
}

#[test]
fn forward_writes_match_the_restart_rebuild() {
    let mut succeeded = [0u32; 10];
    for seed in 1..=40u64 {
        let f = fixture();
        let db = &f.db;
        let mut rng = Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        // Schema grown after the load: a reference every existing
        // vehicle reads as its default, and a list of company sets. The
        // default names a company the operations below may move or
        // delete, which re-keys every vehicle that stores no dealer.
        let company = f.classes[0];
        let (vehicle, assembly) = (f.classes[1], f.classes[4]);
        let dealer = AttrSpec::new("dealer", Domain::Class(company))
            .with_default(Value::Ref(f.companies[0]));
        db.evolve(SchemaChange::AddAttribute { class: vehicle, spec: dealer }, Migration::Lazy)
            .unwrap();
        let suppliers = Domain::ListOf(Box::new(Domain::set_of_class(company)));
        let spec = AttrSpec::new("suppliers", suppliers);
        db.evolve(SchemaChange::AddAttribute { class: assembly, spec }, Migration::Lazy).unwrap();
        let tx = db.begin();
        for (i, a) in f.assemblies.iter().enumerate() {
            let sets = vec![
                Value::set(vec![Value::Ref(f.companies[i]), Value::Ref(f.companies[(i + 1) % 4])]),
                Value::set(vec![Value::Ref(f.companies[(i + 2) % 4])]),
            ];
            db.set(&tx, *a, "suppliers", Value::List(sets)).unwrap();
        }
        db.set(&tx, f.vehicles[0], "dealer", Value::Ref(f.companies[1])).unwrap();
        db.commit(tx).unwrap();
        // Created on a populated database: populated root by root.
        for (name, class, path) in LATE_NESTED {
            db.create_index(name, IndexKind::Nested, class, &path).unwrap();
        }

        let mut oids: Vec<Oid> =
            f.companies.iter().chain(&f.vehicles).chain(&f.assemblies).copied().collect();
        for a in &f.assemblies {
            oids.extend(db.parts_of(*a));
        }
        for _ in 0..1 + rng.below(4) {
            let tx = db.begin();
            let mut created = Vec::new();
            for _ in 0..1 + rng.below(6) {
                let (kind, ok) = match rng.below(10) {
                    // A deleted company leaves every reference to it
                    // dangling.
                    0 => (9, db.delete_object(&tx, rng.pick(&f.companies)).is_ok()),
                    _ => random_op(&f, &tx, &mut rng, &mut created),
                };
                succeeded[kind] += u32::from(ok);
            }
            db.commit(tx).unwrap();
            oids.extend(created);
        }
        let forward = derived(db, &oids, &f.classes);
        assert_nested_match_reference(db, &oids, seed);
        db.crash_and_recover().unwrap();
        let rebuilt = derived(db, &oids, &f.classes);
        assert_eq!(forward, rebuilt, "seed {seed}: forward writes differ from the rebuild");
        assert_nested_match_reference(db, &oids, seed);
    }
    assert!(succeeded.iter().all(|n| *n > 0), "every kind of operation ran: {succeeded:?}");
}
