//! Declarative query processing for orion.
//!
//! "Declarative queries can certainly augment the navigational access in
//! object-oriented database systems, as evidenced by the declarative
//! query languages which have been proposed and implemented in more
//! recent object-oriented database systems, such as ORION, EXTRA/EXCESS,
//! and O2" (§3.3). This crate is orion's declarative side:
//!
//! * [`ast`] / [`lexer`] / [`parser`] — a small OQL-style language with
//!   class- and hierarchy-scoped `from` clauses (`Vehicle` vs
//!   `Vehicle*`) and nested-attribute predicate paths (§3.2),
//! * [`plan()`] — binding plus a cost-based optimizer choosing among
//!   extent scan, single-class index, class-hierarchy index, and
//!   nested-attribute index,
//! * [`exec`] — batch-at-a-time evaluation over any [`DataSource`],
//!   with existential semantics for set-valued path steps,
//! * [`MemSource`] — an in-memory source for tests and benches.
//!
//! End-to-end convenience: [`run`] parses, plans, and executes.

pub mod ast;
mod batch;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod source;

pub use ast::{CmpOp, Expr, Literal, Path, Query, SelectItem};
pub use exec::{
    eval_expr, execute, execute_with, path_values, ExecMetrics, ExecOptions, ExecSnapshot,
    ExecStats, QueryResult,
};
pub use plan::{plan, AccessPath, ExplainReport, PlannedQuery, RunStats, INTERSECT_RATIO};
pub use parser::parse;
pub use source::{intersect, DataSource, MemSource, Probed};

use orion_schema::Catalog;
use orion_types::DbResult;

/// Parse, plan, and execute `text` in one call.
pub fn run(catalog: &Catalog, source: &dyn DataSource, text: &str) -> DbResult<QueryResult> {
    let query = parse(text)?;
    let planned = plan(catalog, source, query)?;
    execute(catalog, source, &planned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_index::{IndexDef, IndexKind};
    use orion_schema::AttrSpec;
    use orion_types::{ClassId, Domain, Oid, PrimitiveType, Value};

    /// Build the paper's Figure 1 schema and a small population:
    /// 8 vehicles (ids 1..=8) alternating Automobile/Truck, weights
    /// 1000*i, manufacturers alternating Detroit/Austin companies.
    fn fixture() -> (Catalog, MemSource, ClassId, ClassId, ClassId, ClassId) {
        let mut cat = Catalog::new();
        let company = cat
            .create_class(
                "Company",
                &[],
                vec![
                    AttrSpec::new("name", Domain::Primitive(PrimitiveType::Str)),
                    AttrSpec::new("location", Domain::Primitive(PrimitiveType::Str)),
                ],
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
        let auto = cat
            .create_class(
                "Automobile",
                &[vehicle],
                vec![AttrSpec::new("drivetrain", Domain::Primitive(PrimitiveType::Str))],
            )
            .unwrap();
        let truck = cat
            .create_class(
                "Truck",
                &[vehicle],
                vec![AttrSpec::new("payload", Domain::Primitive(PrimitiveType::Int))],
            )
            .unwrap();

        let weight_id = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
        let manu_id = cat.resolve(vehicle).unwrap().attr("manufacturer").unwrap().id;
        let name_id = cat.resolve(company).unwrap().attr("name").unwrap().id;
        let loc_id = cat.resolve(company).unwrap().attr("location").unwrap().id;

        let mut src = MemSource::new();
        let detroit = Oid::new(company, 100);
        let austin = Oid::new(company, 101);
        src.add_object(
            detroit,
            vec![(name_id, Value::str("MotorCo")), (loc_id, Value::str("Detroit"))],
        );
        src.add_object(
            austin,
            vec![(name_id, Value::str("ChipCo")), (loc_id, Value::str("Austin"))],
        );
        for i in 1..=8u64 {
            let class = if i % 2 == 0 { truck } else { auto };
            let manu = if i % 2 == 0 { detroit } else { austin };
            src.add_object(
                Oid::new(class, i),
                vec![(weight_id, Value::Int(1000 * i as i64)), (manu_id, Value::Ref(manu))],
            );
        }
        (cat, src, company, vehicle, auto, truck)
    }

    /// One stored attribute value (index population in these tests).
    fn stored(src: &MemSource, oid: Oid, attr: u32) -> Value {
        let record = src.fetch(&[oid], &[attr]).unwrap().pop().flatten().unwrap();
        record.get(attr).cloned().unwrap()
    }

    #[test]
    fn figure1_query_end_to_end() {
        let (cat, src, ..) = fixture();
        // §3.2: vehicles over 7500 lbs made by a Detroit company.
        // Even serials are trucks from Detroit; only 8000 qualifies.
        let result = run(
            &cat,
            &src,
            "select v from Vehicle* v where v.weight > 7500 \
             and v.manufacturer.location = \"Detroit\"",
        )
        .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.oids[0].serial(), 8);
    }

    #[test]
    fn class_vs_hierarchy_scope() {
        let (cat, src, ..) = fixture();
        // Vehicle itself has no direct instances.
        let own = run(&cat, &src, "select v from Vehicle v").unwrap();
        assert_eq!(own.len(), 0);
        let all = run(&cat, &src, "select v from Vehicle* v").unwrap();
        assert_eq!(all.len(), 8);
        let trucks = run(&cat, &src, "select v from Truck v").unwrap();
        assert_eq!(trucks.len(), 4);
    }

    #[test]
    fn isa_and_projection() {
        let (cat, src, ..) = fixture();
        let r = run(
            &cat,
            &src,
            "select v.weight from Vehicle* v where v isa Truck order by v.weight asc",
        )
        .unwrap();
        let weights: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(weights, vec![2000, 4000, 6000, 8000]);
    }

    #[test]
    fn count_star() {
        let (cat, src, ..) = fixture();
        let r = run(&cat, &src, "select count(*) from Vehicle* v where v.weight <= 3000").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn order_desc_and_limit() {
        let (cat, src, ..) = fixture();
        let r = run(
            &cat,
            &src,
            "select v.weight from Vehicle* v order by v.weight desc limit 3",
        )
        .unwrap();
        let weights: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(weights, vec![8000, 7000, 6000]);
    }

    #[test]
    fn nested_projection() {
        let (cat, src, ..) = fixture();
        let r = run(
            &cat,
            &src,
            "select v.manufacturer.name from Truck v where v.weight = 2000",
        )
        .unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("MotorCo")]]);
    }

    #[test]
    fn optimizer_uses_hierarchy_index_when_present() {
        let (mut cat, mut src, _, vehicle, ..) = fixture();
        let weight_id = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
        src.add_index(IndexDef {
            id: 7,
            name: "vehicle_weight_ch".into(),
            kind: IndexKind::ClassHierarchy,
            target: vehicle,
            path: vec![weight_id],
        });
        // Populate index entries for all 8 vehicles.
        for class in cat.subtree(vehicle).unwrap().iter() {
            for oid in src.scan_class(*class).unwrap() {
                let w = stored(&src, oid, weight_id);
                src.index_insert(7, w, oid);
            }
        }
        let _ = &mut cat;
        let q = parse("select v from Vehicle* v where v.weight = 4000").unwrap();
        let planned = plan(&cat, &src, q).unwrap();
        assert!(
            matches!(planned.access, AccessPath::IndexEq { index: 7, .. }),
            "expected index probe, got {}",
            planned.report()
        );
        assert!(planned.residual.is_none(), "single conjunct fully consumed");
        let r = execute(&cat, &src, &planned).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.oids[0].serial(), 4);

        // Range predicate takes the range path.
        let q = parse("select v from Vehicle* v where v.weight >= 6000").unwrap();
        let planned = plan(&cat, &src, q).unwrap();
        assert!(matches!(planned.access, AccessPath::IndexRange { index: 7, .. }));
        let r = execute(&cat, &src, &planned).unwrap();
        assert_eq!(r.len(), 3);

        // Scoped to Truck only: the CH index still serves it.
        let q = parse("select v from Truck v where v.weight = 4000").unwrap();
        let planned = plan(&cat, &src, q).unwrap();
        assert!(matches!(planned.access, AccessPath::IndexEq { index: 7, .. }));
        let r = execute(&cat, &src, &planned).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn single_class_index_not_used_for_hierarchy_queries() {
        let (cat, mut src, _, vehicle, _, truck) = fixture();
        let weight_id = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
        src.add_index(IndexDef {
            id: 3,
            name: "truck_weight".into(),
            kind: IndexKind::SingleClass,
            target: truck,
            path: vec![weight_id],
        });
        for oid in src.scan_class(truck).unwrap() {
            let w = stored(&src, oid, weight_id);
            src.index_insert(3, w, oid);
        }
        // Hierarchy query cannot use the single-class index.
        let q = parse("select v from Vehicle* v where v.weight = 2000").unwrap();
        let planned = plan(&cat, &src, q).unwrap();
        assert_eq!(planned.access, AccessPath::Scan, "{}", planned.report());
        // Truck-scoped query can.
        let q = parse("select v from Truck v where v.weight = 2000").unwrap();
        let planned = plan(&cat, &src, q).unwrap();
        assert!(matches!(planned.access, AccessPath::IndexEq { index: 3, .. }));
        let r = execute(&cat, &src, &planned).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn residual_keeps_unconsumed_conjuncts() {
        let (cat, mut src, _, vehicle, ..) = fixture();
        let weight_id = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
        src.add_index(IndexDef {
            id: 1,
            name: "w".into(),
            kind: IndexKind::ClassHierarchy,
            target: vehicle,
            path: vec![weight_id],
        });
        for class in cat.subtree(vehicle).unwrap().iter() {
            for oid in src.scan_class(*class).unwrap() {
                let w = stored(&src, oid, weight_id);
                src.index_insert(1, w, oid);
            }
        }
        let q = parse(
            "select v from Vehicle* v where v.weight = 2000 \
             and v.manufacturer.location = \"Austin\"",
        )
        .unwrap();
        let planned = plan(&cat, &src, q).unwrap();
        assert!(matches!(planned.access, AccessPath::IndexEq { .. }));
        assert!(planned.residual.is_some());
        // Vehicle 2000 is a Truck made in Detroit: residual filters it out.
        let r = execute(&cat, &src, &planned).unwrap();
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn unknown_names_are_query_errors() {
        let (cat, src, ..) = fixture();
        assert!(run(&cat, &src, "select v from Spaceship v").is_err());
        assert!(run(&cat, &src, "select v from Vehicle v where v.wings = 1").is_err());
        assert!(run(&cat, &src, "select v from Vehicle v where v.weight.x = 1").is_err());
        assert!(run(&cat, &src, "select v from Vehicle v where v isa Nothing").is_err());
    }

    #[test]
    fn is_null_and_not() {
        let (cat, mut src, company, vehicle, auto, _) = fixture();
        let weight_id = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
        let _ = (company, weight_id);
        // An automobile with no manufacturer.
        src.add_object(Oid::new(auto, 99), vec![(weight_id, Value::Int(500))]);
        let r = run(
            &cat,
            &src,
            "select v from Vehicle* v where v.manufacturer is null",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.oids[0].serial(), 99);
        let r = run(
            &cat,
            &src,
            "select count(*) from Vehicle* v where v.manufacturer is not null",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(8));
    }
}
