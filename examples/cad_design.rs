//! A CAx session — the application domain that "galvanized the
//! activities in object-oriented database systems" (§3.3).
//!
//! A small VLSI-flavored design database exercising the paper's CAx
//! feature list: **composite objects** (a design owns its cells),
//! **clustering** (parts co-located with their root), **versions**
//! (derive → edit → promote, generic references late-bind to the default
//! version), **change notification**, and a **checkout/checkin**
//! long-duration editing session.
//!
//! Run with: `cargo run --example cad_design`

use orion_oodb::orion::{
    AttrSpec, Database, Domain, PrimitiveType, Value,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::open_in_memory();
    let str_dom = || Domain::Primitive(PrimitiveType::Str);
    let int_dom = || Domain::Primitive(PrimitiveType::Int);

    // Cells are parts of a design: exclusive, dependent composite refs.
    db.create_class(
        "Cell",
        &[],
        vec![AttrSpec::new("name", str_dom()), AttrSpec::new("area", int_dom())],
    )?;
    let cell = db.with_catalog(|c| c.class_id("Cell"))?;
    db.create_class(
        "Design",
        &[],
        vec![
            AttrSpec::new("title", str_dom()),
            AttrSpec::new("revision", int_dom()).with_default(Value::Int(1)),
            AttrSpec::new("cells", Domain::set_of_class(cell)).composite(),
        ],
    )?;

    // --- Build a composite design -----------------------------------------
    let tx = db.begin();
    let (generic, v1) =
        db.create_versioned(&tx, "Design", vec![("title", Value::str("alu64"))])?;
    db.subscribe(generic);
    for (name, area) in [("adder", 120), ("shifter", 80), ("regfile", 400)] {
        db.create_part(&tx, v1, "cells", "Cell", vec![
            ("name", Value::str(name)),
            ("area", Value::Int(area)),
        ])?;
    }
    db.commit(tx)?;
    println!("design v1 has {} cells", db.parts_of(v1).len());

    // Clustering: the composite traversal after a cold start touches few
    // pages because parts were placed next to their root.
    db.cool_caches()?;
    let misses = db.stats().pool.misses;
    let tx = db.begin();
    let _workspace = db.checkout(&tx, v1)?;
    println!(
        "cold checkout of the composite: {} page miss(es) for {} objects",
        db.stats().pool.misses - misses,
        db.parts_of(v1).len() + 1
    );
    db.rollback(tx)?; // release the checkout locks without changes

    // --- A long-duration editing session ------------------------------------
    // Derive a new version (composite parts are exclusive to their
    // parent, so the derived design starts with fresh cells), check its
    // composite out, edit, check in.
    let tx = db.begin();
    let v2 = db.derive_version(&tx, v1)?;
    db.set(&tx, v2, "revision", Value::Int(2))?;
    for (name, area) in [("adder", 110), ("shifter", 70)] {
        db.create_part(&tx, v2, "cells", "Cell", vec![
            ("name", Value::str(name)),
            ("area", Value::Int(area)),
        ])?;
    }
    let mut workspace = db.checkout(&tx, v2)?;
    for attrs in workspace.values_mut() {
        for (name, value) in attrs.iter_mut() {
            if name == "title" {
                *value = Value::str("alu64-fast");
            }
        }
    }
    db.checkin(&tx, workspace)?;
    db.promote_version(&tx, v2)?;
    db.set_default_version(&tx, generic, v2)?;
    db.commit(tx)?;

    // Generic references late-bind: readers of the generic object now
    // see version 2 without being touched.
    let tx = db.begin();
    println!(
        "generic design resolves to: title={} revision={}",
        db.get(&tx, generic, "title")?,
        db.get(&tx, generic, "revision")?
    );
    // Working versions are frozen.
    match db.set(&tx, v2, "revision", Value::Int(99)) {
        Err(e) => println!("editing the working version is refused: {e}"),
        Ok(()) => unreachable!("working versions are immutable"),
    }
    db.commit(tx)?;

    // Change notification: the subscriber saw the derivation and the
    // default flip.
    for n in db.poll_notifications(generic) {
        println!("notification: {:?} (by {:?})", n.kind, n.by);
    }

    // Dependent delete: dropping the old version removes its cells.
    let before = db.extent_len("Cell")?;
    let tx = db.begin();
    db.delete_object(&tx, v1)?;
    db.commit(tx)?;
    println!("cells before deleting v1: {before}, after: {}", db.extent_len("Cell")?);
    Ok(())
}
