//! Schemas, data sets and their models. Everything here is a pure
//! function of the seed; the model is what query results and final
//! states are checked against.

use crate::rng::SplitMix64;
use orion_core::{AttrSpec, Database, DbResult, Domain, IndexKind, Oid, PrimitiveType, Value};
use std::collections::BTreeSet;

/// Company locations; a location predicate selects one tenth.
pub const CITIES: [&str; 10] = [
    "Detroit", "Austin", "Portland", "Kyoto", "Venice", "Boston", "Berkeley", "Orlando", "Chicago",
    "SanJose",
];

/// The four classes vehicles are instances of (Figure 1's hierarchy:
/// `Vehicle` itself has no direct instances).
pub const VEHICLE_CLASSES: [&str; 4] = ["Automobile", "DomesticAutomobile", "Truck", "Bus"];

/// The attribute no predicate, index or check reads: point writes and
/// probes may set it freely.
pub const SCRATCH: &str = "odometer";

fn int() -> Domain {
    Domain::Primitive(PrimitiveType::Int)
}

fn string() -> Domain {
    Domain::Primitive(PrimitiveType::Str)
}

/// One vehicle as generated (before any workload write).
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleRow {
    pub class: &'static str,
    pub weight: i64,
    /// Index into the company list.
    pub company: usize,
}

/// The generated fleet: what `load` writes and what checks read.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetModel {
    pub vehicles: Vec<VehicleRow>,
    /// `CITIES` index of each company's location.
    pub company_city: Vec<usize>,
    seed: u64,
}

impl FleetModel {
    /// `n` vehicles with dense weights `0..n` and `n / 100` companies.
    pub fn generate(seed: u64, n: usize) -> FleetModel {
        let mut rng = SplitMix64::lane(seed, 0xF1EE7);
        let companies = (n / 100).max(1);
        let company_city = (0..companies).map(|c| c % CITIES.len()).collect();
        let vehicles = (0..n)
            .map(|i| VehicleRow {
                class: VEHICLE_CLASSES[i % VEHICLE_CLASSES.len()],
                weight: i as i64,
                company: rng.below(companies as u64) as usize,
            })
            .collect();
        FleetModel {
            vehicles,
            company_city,
            seed,
        }
    }

    pub fn city_of(&self, vehicle: usize) -> &'static str {
        CITIES[self.company_city[self.vehicles[vehicle].company]]
    }

    /// Vehicle indexes with `lo <= weight < hi`, optionally restricted
    /// to one manufacturer location. Weights are dense (`weight == index`),
    /// so only the range itself is visited.
    pub fn matching(&self, lo: i64, hi: i64, city: Option<&str>) -> Vec<usize> {
        let n = self.vehicles.len() as i64;
        (lo.clamp(0, n) as usize..hi.clamp(0, n) as usize)
            .filter(|&i| city.is_none_or(|c| self.city_of(i) == c))
            .collect()
    }
}

/// The loaded fleet: object identities, aligned with the model.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub vehicles: Vec<Oid>,
    pub companies: Vec<Oid>,
}

/// Create the Figure-1 schema: `Company`, `Vehicle` and its subclasses.
fn fleet_schema(db: &Database) -> DbResult<()> {
    db.create_class(
        "Company",
        &[],
        vec![
            AttrSpec::new("cname", string()),
            AttrSpec::new("location", string()),
        ],
    )?;
    let company = db.with_catalog(|c| c.class_id("Company"))?;
    db.create_class(
        "Vehicle",
        &[],
        vec![
            AttrSpec::new("name", string()),
            AttrSpec::new("weight", int()),
            AttrSpec::new("manufacturer", Domain::Class(company)),
            AttrSpec::new(SCRATCH, int()),
            AttrSpec::new("notes", string()),
        ],
    )?;
    db.create_class(
        "Automobile",
        &["Vehicle"],
        vec![AttrSpec::new("doors", int())],
    )?;
    db.create_class(
        "DomesticAutomobile",
        &["Automobile"],
        vec![AttrSpec::new("plant", int())],
    )?;
    db.create_class("Truck", &["Vehicle"], vec![AttrSpec::new("axles", int())])?;
    db.create_class("Bus", &["Vehicle"], vec![AttrSpec::new("seats", int())])?;
    Ok(())
}

/// The attribute values of vehicle `i` (also used to size records).
pub fn vehicle_attrs(
    model: &FleetModel,
    i: usize,
    companies: &[Oid],
) -> Vec<(&'static str, Value)> {
    let row = &model.vehicles[i];
    // ~100 bytes of text per vehicle, so 24 000 vehicles overflow the
    // default 256-page buffer pool several times over.
    let mut rng = SplitMix64::lane(model.seed, 0x9075 + i as u64);
    let notes: String = (0..96)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect();
    vec![
        ("name", Value::Str(format!("vehicle{i}"))),
        ("weight", Value::Int(row.weight)),
        ("manufacturer", Value::Ref(companies[row.company])),
        (SCRATCH, Value::Int(0)),
        ("notes", Value::Str(notes)),
    ]
}

/// Load the fleet in one transaction (one log force on a file backend).
pub fn load_fleet(db: &Database, model: &FleetModel) -> DbResult<Fleet> {
    fleet_schema(db)?;
    let tx = db.begin();
    let mut companies = Vec::with_capacity(model.company_city.len());
    for (c, city) in model.company_city.iter().enumerate() {
        companies.push(db.create_object(
            &tx,
            "Company",
            vec![
                ("cname", Value::Str(format!("company{c}"))),
                ("location", Value::str(CITIES[*city])),
            ],
        )?);
    }
    let mut vehicles = Vec::with_capacity(model.vehicles.len());
    for i in 0..model.vehicles.len() {
        let attrs = vehicle_attrs(model, i, &companies);
        vehicles.push(db.create_object(&tx, model.vehicles[i].class, attrs)?);
    }
    db.commit(tx)?;
    Ok(Fleet {
        vehicles,
        companies,
    })
}

/// The two indexes `index_mix` reads and maintains.
pub fn fleet_indexes(db: &Database) -> DbResult<()> {
    db.create_index(
        "vehicle_weight",
        IndexKind::ClassHierarchy,
        "Vehicle",
        &["weight"],
    )?;
    db.create_index(
        "vehicle_maker_location",
        IndexKind::Nested,
        "Vehicle",
        &["manufacturer", "location"],
    )?;
    Ok(())
}

/// Initial balance of every account.
pub const OPENING_BALANCE: i64 = 1_000;

/// The loaded bank: `accounts[i]` starts at [`OPENING_BALANCE`].
#[derive(Debug, Clone)]
pub struct Bank {
    pub accounts: Vec<Oid>,
}

/// `Branch` and `Account` (balance, the scratch attribute, a branch
/// reference), with `n` accounts spread over `n / 100` branches.
pub fn load_bank(db: &Database, n: usize) -> DbResult<Bank> {
    db.create_class("Branch", &[], vec![AttrSpec::new("bname", string())])?;
    let branch = db.with_catalog(|c| c.class_id("Branch"))?;
    db.create_class(
        "Account",
        &[],
        vec![
            AttrSpec::new("balance", int()),
            AttrSpec::new(SCRATCH, int()),
            AttrSpec::new("branch", Domain::Class(branch)),
        ],
    )?;
    let tx = db.begin();
    let branches = (0..(n / 100).max(1))
        .map(|b| {
            db.create_object(
                &tx,
                "Branch",
                vec![("bname", Value::Str(format!("branch{b}")))],
            )
        })
        .collect::<DbResult<Vec<Oid>>>()?;
    let accounts = (0..n)
        .map(|i| {
            db.create_object(
                &tx,
                "Account",
                vec![
                    ("balance", Value::Int(OPENING_BALANCE)),
                    (SCRATCH, Value::Int(0)),
                    ("branch", Value::Ref(branches[i % branches.len()])),
                ],
            )
        })
        .collect::<DbResult<Vec<Oid>>>()?;
    db.commit(tx)?;
    Ok(Bank { accounts })
}

/// Compare a query's object set with the model's, ignoring order.
/// Returns a description of the difference, if any.
pub fn diff_oids(got: &[Oid], want: impl IntoIterator<Item = Oid>) -> Option<String> {
    let got_set: BTreeSet<u64> = got.iter().map(|o| o.to_raw()).collect();
    let want_set: BTreeSet<u64> = want.into_iter().map(|o| o.to_raw()).collect();
    if got_set.len() != got.len() {
        return Some(format!("{} duplicate rows", got.len() - got_set.len()));
    }
    if got_set == want_set {
        return None;
    }
    Some(format!(
        "{} rows missing, {} unexpected (want {}, got {})",
        want_set.difference(&got_set).count(),
        got_set.difference(&want_set).count(),
        want_set.len(),
        got_set.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::ClassId;

    #[test]
    fn same_seed_same_fleet() {
        let a = FleetModel::generate(7, 500);
        assert_eq!(a, FleetModel::generate(7, 500));
        assert_ne!(a, FleetModel::generate(8, 500));
        assert_eq!(a.company_city.len(), 5);
        assert!(a
            .vehicles
            .iter()
            .enumerate()
            .all(|(i, v)| v.weight == i as i64));
    }

    #[test]
    fn model_filters_by_weight_and_city() {
        let m = FleetModel::generate(7, 2_000);
        let all = m.matching(100, 150, None);
        assert_eq!(all, (100..150).collect::<Vec<_>>());
        let detroit = m.matching(0, 2_000, Some("Detroit"));
        assert!(!detroit.is_empty() && detroit.len() < 2_000);
        assert!(detroit.iter().all(|&i| m.city_of(i) == "Detroit"));
        let rest = m.matching(0, 2_000, None).len() - detroit.len();
        assert_eq!(
            rest,
            (0..2_000).filter(|&i| m.city_of(i) != "Detroit").count()
        );
    }

    #[test]
    fn loaded_fleet_matches_the_model() {
        let m = FleetModel::generate(3, 400);
        let db = Database::open_in_memory();
        let fleet = load_fleet(&db, &m).unwrap();
        fleet_indexes(&db).unwrap();
        let tx = db.begin();
        let r = db
            .query(
                &tx,
                "select v from Vehicle* v where v.weight >= 10 and v.weight < 60 \
                 and v.manufacturer.location = \"Austin\"",
            )
            .unwrap();
        db.commit(tx).unwrap();
        let want = m
            .matching(10, 60, Some("Austin"))
            .into_iter()
            .map(|i| fleet.vehicles[i]);
        assert_eq!(diff_oids(&r.oids, want), None);
    }

    #[test]
    fn oid_diff_names_missing_unexpected_and_duplicate_rows() {
        let oid = |n| Oid::new(ClassId(3), n);
        assert_eq!(diff_oids(&[oid(1), oid(2)], [oid(2), oid(1)]), None);
        let d = diff_oids(&[oid(1), oid(3)], [oid(1), oid(2)]).unwrap();
        assert!(d.contains("1 rows missing, 1 unexpected"), "{d}");
        assert!(diff_oids(&[oid(1), oid(1)], [oid(1)])
            .unwrap()
            .contains("duplicate"));
    }
}
