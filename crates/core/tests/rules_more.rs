//! Focused tests of the deductive-rule engine beyond transitive closure:
//! constants, unary class predicates with subclass semantics, stacked
//! IDB predicates, and evaluation-order independence.

use orion_core::{
    var, AttrSpec, Database, Domain, PrimitiveType, Rule, RuleAtom, Term, Value,
};

fn db_with_people() -> (Database, Vec<orion_core::Oid>) {
    let db = Database::open_in_memory();
    db.create_class(
        "Person",
        &[],
        vec![
            AttrSpec::new("pname", Domain::Primitive(PrimitiveType::Str)),
            AttrSpec::new("age", Domain::Primitive(PrimitiveType::Int)),
        ],
    )
    .unwrap();
    let person = db.with_catalog(|c| c.class_id("Person")).unwrap();
    db.create_class("Employee", &["Person"], vec![]).unwrap();
    db.evolve(
        orion_core::SchemaChange::AddAttribute {
            class: person,
            spec: AttrSpec::new("parent", Domain::Class(person)),
        },
        orion_core::Migration::Lazy,
    )
    .unwrap();

    let tx = db.begin();
    // won (60) -> jay (30) -> kid (5); jay is an Employee.
    let won = db
        .create_object(&tx, "Person", vec![("pname", Value::str("won")), ("age", Value::Int(60))])
        .unwrap();
    let jay = db
        .create_object(
            &tx,
            "Employee",
            vec![("pname", Value::str("jay")), ("age", Value::Int(30))],
        )
        .unwrap();
    let kid = db
        .create_object(&tx, "Person", vec![("pname", Value::str("kid")), ("age", Value::Int(5))])
        .unwrap();
    db.set(&tx, jay, "parent", Value::Ref(won)).unwrap();
    db.set(&tx, kid, "parent", Value::Ref(jay)).unwrap();
    db.commit(tx).unwrap();
    (db, vec![won, jay, kid])
}

#[test]
fn constants_in_rule_bodies_filter() {
    let (db, oids) = db_with_people();
    // named_won(X) :- pname(X, "won").
    db.add_rule(Rule {
        head: RuleAtom::new("named_won", vec![var("X")]),
        body: vec![RuleAtom::new(
            "pname",
            vec![var("X"), Term::Const(Value::str("won"))],
        )],
    })
    .unwrap();
    let r = db.infer("named_won", true).unwrap();
    assert_eq!(r.tuples, vec![vec![Value::Ref(oids[0])]]);
}

#[test]
fn class_predicates_are_subclass_aware() {
    let (db, oids) = db_with_people();
    // people(X) :- Person(X).  Employees are Persons.
    db.add_rule(Rule {
        head: RuleAtom::new("people", vec![var("X")]),
        body: vec![RuleAtom::new("Person", vec![var("X")])],
    })
    .unwrap();
    db.add_rule(Rule {
        head: RuleAtom::new("staff", vec![var("X")]),
        body: vec![RuleAtom::new("Employee", vec![var("X")])],
    })
    .unwrap();
    let people = db.infer("people", true).unwrap();
    assert_eq!(people.tuples.len(), 3);
    let staff = db.infer("staff", true).unwrap();
    assert_eq!(staff.tuples, vec![vec![Value::Ref(oids[1])]]);
}

#[test]
fn stacked_idb_predicates() {
    let (db, oids) = db_with_people();
    // ancestor closure, then grandparent via the closure.
    db.add_rule(Rule {
        head: RuleAtom::new("ancestor", vec![var("X"), var("Y")]),
        body: vec![RuleAtom::new("parent", vec![var("X"), var("Y")])],
    })
    .unwrap();
    db.add_rule(Rule {
        head: RuleAtom::new("ancestor", vec![var("X"), var("Z")]),
        body: vec![
            RuleAtom::new("ancestor", vec![var("X"), var("Y")]),
            RuleAtom::new("parent", vec![var("Y"), var("Z")]),
        ],
    })
    .unwrap();
    // eldest(X) :- ancestor(Y, X), Person(X) with X bound to roots only —
    // express "kid descends from won" membership instead.
    db.add_rule(Rule {
        head: RuleAtom::new("descends_from_won", vec![var("X")]),
        body: vec![
            RuleAtom::new("ancestor", vec![var("X"), var("W")]),
            RuleAtom::new("pname", vec![var("W"), Term::Const(Value::str("won"))]),
        ],
    })
    .unwrap();
    let r = db.infer("descends_from_won", true).unwrap();
    let mut got: Vec<Value> = r.tuples.into_iter().map(|mut t| t.remove(0)).collect();
    got.sort_by(|a, b| a.cmp_total(b));
    let mut want = vec![Value::Ref(oids[1]), Value::Ref(oids[2])];
    want.sort_by(|a, b| a.cmp_total(b));
    assert_eq!(got, want, "jay and kid descend from won");
    // ancestor itself: jay->won, kid->jay, kid->won.
    let anc = db.infer("ancestor", true).unwrap();
    assert_eq!(anc.tuples.len(), 3);
}

#[test]
fn seminaive_and_naive_always_agree() {
    let (db, _) = db_with_people();
    db.add_rule(Rule {
        head: RuleAtom::new("ancestor", vec![var("X"), var("Y")]),
        body: vec![RuleAtom::new("parent", vec![var("X"), var("Y")])],
    })
    .unwrap();
    db.add_rule(Rule {
        head: RuleAtom::new("ancestor", vec![var("X"), var("Z")]),
        body: vec![
            RuleAtom::new("ancestor", vec![var("X"), var("Y")]),
            RuleAtom::new("ancestor", vec![var("Y"), var("Z")]),
        ],
    })
    .unwrap();
    let a = db.infer("ancestor", true).unwrap();
    let b = db.infer("ancestor", false).unwrap();
    assert_eq!(a.tuples, b.tuples, "both evaluation modes reach the same fixpoint");
}

#[test]
fn unknown_predicate_infers_empty() {
    let (db, _) = db_with_people();
    let r = db.infer("nothing_defined", true).unwrap();
    assert!(r.tuples.is_empty());
}

#[test]
fn facts_reflect_current_database_state() {
    let (db, oids) = db_with_people();
    db.add_rule(Rule {
        head: RuleAtom::new("adults", vec![var("X"), var("A")]),
        body: vec![RuleAtom::new("age", vec![var("X"), var("A")])],
    })
    .unwrap();
    assert_eq!(db.infer("adults", true).unwrap().tuples.len(), 3);
    // Delete one person; the EDB is rebuilt per inference.
    let tx = db.begin();
    db.delete_object(&tx, oids[2]).unwrap();
    db.commit(tx).unwrap();
    assert_eq!(db.infer("adults", true).unwrap().tuples.len(), 2);
}

#[test]
fn facts_are_read_at_a_committed_snapshot() {
    let (db, oids) = db_with_people();
    db.add_rule(Rule {
        head: RuleAtom::new("people", vec![var("X")]),
        body: vec![RuleAtom::new("Person", vec![var("X")])],
    })
    .unwrap();
    db.add_rule(Rule {
        head: RuleAtom::new("named_won", vec![var("X")]),
        body: vec![RuleAtom::new("pname", vec![var("X"), Term::Const(Value::str("won"))])],
    })
    .unwrap();
    // Another transaction creates a person and renames won, uncommitted:
    // inference sees neither.
    let writer = db.begin();
    db.create_object(&writer, "Person", vec![("pname", Value::str("new"))]).unwrap();
    db.set(&writer, oids[0], "pname", Value::str("wendy")).unwrap();
    assert_eq!(db.infer("people", true).unwrap().tuples.len(), 3);
    assert_eq!(db.infer("named_won", true).unwrap().tuples, vec![vec![Value::Ref(oids[0])]]);
    db.commit(writer).unwrap();
    assert_eq!(db.infer("people", true).unwrap().tuples.len(), 4);
    assert!(db.infer("named_won", true).unwrap().tuples.is_empty());
}
