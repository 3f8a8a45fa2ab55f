//! What a rollback costs, counted: it is paid by the transaction that
//! rolls back, in proportion to what it wrote, and by nobody else. The
//! same transaction is rolled back over a small and a large database;
//! the counts may not depend on the size.

use orion_core::{AttrSpec, Database, Domain, IndexKind, Oid, PrimitiveType, Value};

/// A Vehicle/Truck fleet of `n` objects with two indexes.
fn fleet(n: usize) -> (Database, Vec<Oid>) {
    let db = Database::open_in_memory();
    let int = || Domain::Primitive(PrimitiveType::Int);
    db.create_class("Vehicle", &[], vec![AttrSpec::new("weight", int())]).unwrap();
    db.create_class("Truck", &["Vehicle"], vec![AttrSpec::new("payload", int())]).unwrap();
    db.create_index("by_weight", IndexKind::ClassHierarchy, "Vehicle", &["weight"]).unwrap();
    db.create_index("by_payload", IndexKind::SingleClass, "Truck", &["payload"]).unwrap();
    let tx = db.begin();
    let oids = (0..n as i64)
        .map(|i| {
            let mut attrs = vec![("weight", Value::Int(i % 500))];
            let class = if i % 2 == 0 { "Vehicle" } else { "Truck" };
            if class == "Truck" {
                attrs.push(("payload", Value::Int(i % 50)));
            }
            db.create_object(&tx, class, attrs).unwrap()
        })
        .collect();
    db.commit(tx).unwrap();
    (db, oids)
}

#[test]
fn rollback_costs_what_the_transaction_wrote_at_any_database_size() {
    const K: usize = 12;
    for n in [1_000, 20_000] {
        let (db, oids) = fleet(n);
        let (warm, rest) = oids.split_at(100);
        let reader = db.begin();
        let read_warm = || {
            for oid in warm {
                db.get(&reader, *oid, "weight").unwrap();
            }
        };
        read_warm();

        // K operations: updates of indexed keys, creates, deletes.
        let tx = db.begin();
        for (i, oid) in rest.iter().rev().take(K).enumerate() {
            match i % 3 {
                0 => db.set(&tx, *oid, "weight", Value::Int(9_999)).map(drop),
                1 => db.create_object(&tx, "Truck", vec![("payload", Value::Int(7))]).map(drop),
                _ => db.delete_object(&tx, *oid),
            }
            .unwrap();
        }

        let before = db.stats();
        db.rollback(tx).unwrap();
        let after = db.stats();
        assert_eq!(
            after.gate.exclusive_acquisitions, before.gate.exclusive_acquisitions,
            "n = {n}: rollback stopped the world"
        );
        let pages = |s: &orion_core::DbStats| s.pool.hits + s.pool.misses;
        let requests = pages(&after) - pages(&before);
        // Two per operation: apply its compensation, refresh the page's free space.
        assert!(requests <= 2 * K as u64, "n = {n}: {requests} page requests for {K} operations");

        read_warm();
        assert_eq!(
            db.stats().cache.misses,
            after.cache.misses,
            "n = {n}: untouched objects went cold"
        );
        db.commit(reader).unwrap();

        let check = db.begin();
        let heavy =
            db.query(&check, "select count(*) from Vehicle* v where v.weight = 9999").unwrap();
        assert_eq!(heavy.rows[0][0], Value::Int(0), "n = {n}");
        let all = db.query(&check, "select count(*) from Vehicle* v").unwrap();
        assert_eq!(all.rows[0][0], Value::Int(n as i64), "n = {n}");
        db.commit(check).unwrap();
    }
}
