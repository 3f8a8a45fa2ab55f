//! Deductive capabilities (§5.4).
//!
//! "An object-oriented database system will become a deductive
//! object-oriented database system once it can directly support rules
//! and various reasoning concepts." orion supports Horn rules over the
//! object graph:
//!
//! * **EDB predicates** come for free from the data model: every class
//!   name is a unary predicate (`Vehicle(x)` — subclass-aware, matching
//!   the query model's hierarchy semantics), and every attribute name is
//!   a binary predicate (`manufacturer(x, y)` — set-valued attributes
//!   yield one tuple per element).
//! * **IDB predicates** are defined by rules and evaluated bottom-up,
//!   either naively or **semi-naively** (experiment E12). Recursion is
//!   supported — the paper notes the aggregation graph "admits cycles",
//!   and transitive closure over part graphs is the canonical use.
//!
//! Negation and aggregation are out of scope (the paper calls rule
//! integration "first steps").

use crate::database::Database;
use crate::source::SourceView;
use orion_index::KeyVal;
use orion_query::DataSource;
use orion_schema::Catalog;
use orion_types::{DbError, DbResult, Value};
use std::collections::{BTreeSet, HashMap};

/// A term in a rule atom.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A variable, named.
    Var(String),
    /// A constant value.
    Const(Value),
}

/// One atom: `pred(arg, ...)`, arity 1 or 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleAtom {
    /// Predicate name (class name, attribute name, or IDB name).
    pub pred: String,
    /// Arguments.
    pub args: Vec<Term>,
}

impl RuleAtom {
    /// `pred(x)` or `pred(x, y)` with variable shorthand.
    pub fn new(pred: &str, args: Vec<Term>) -> Self {
        RuleAtom { pred: pred.to_owned(), args }
    }
}

/// A Horn rule: `head :- body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The derived atom.
    pub head: RuleAtom,
    /// The conjunctive body.
    pub body: Vec<RuleAtom>,
}

/// Shorthand for a variable term.
pub fn var(name: &str) -> Term {
    Term::Var(name.to_owned())
}

/// Outcome of an inference run, with evaluation statistics (E12).
#[derive(Debug, Clone)]
pub struct InferResult {
    /// The tuples of the queried predicate.
    pub tuples: Vec<Vec<Value>>,
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// Rule-body substitutions considered (work metric).
    pub substitutions: u64,
}

type Tuple = Vec<KeyVal>;
type Relation = BTreeSet<Tuple>;

#[derive(Debug, Default)]
struct FactStore {
    relations: HashMap<String, Relation>,
}

impl FactStore {
    fn insert(&mut self, pred: &str, tuple: Tuple) -> bool {
        self.relations.entry(pred.to_owned()).or_default().insert(tuple)
    }

    fn get(&self, pred: &str) -> Option<&Relation> {
        self.relations.get(pred)
    }
}

fn unify(
    atom: &RuleAtom,
    tuple: &Tuple,
    subst: &HashMap<String, Value>,
) -> Option<HashMap<String, Value>> {
    if atom.args.len() != tuple.len() {
        return None;
    }
    let mut out = subst.clone();
    for (term, value) in atom.args.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if !c.eq_total(&value.0) {
                    return None;
                }
            }
            Term::Var(name) => match out.get(name) {
                Some(bound) => {
                    if !bound.eq_total(&value.0) {
                        return None;
                    }
                }
                None => {
                    out.insert(name.clone(), value.0.clone());
                }
            },
        }
    }
    Some(out)
}

fn ground_head(head: &RuleAtom, subst: &HashMap<String, Value>) -> DbResult<Tuple> {
    head.args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Ok(KeyVal(c.clone())),
            Term::Var(name) => subst
                .get(name)
                .map(|v| KeyVal(v.clone()))
                .ok_or_else(|| DbError::Rule(format!("unbound head variable `{name}`"))),
        })
        .collect()
}

impl Database {
    /// Register a rule. Head and body arities must be 1 or 2; every head
    /// variable must occur in the body (range restriction).
    pub fn add_rule(&self, rule: Rule) -> DbResult<()> {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            if atom.args.is_empty() || atom.args.len() > 2 {
                return Err(DbError::Rule(format!(
                    "predicate `{}` must have arity 1 or 2",
                    atom.pred
                )));
            }
        }
        if rule.body.is_empty() {
            return Err(DbError::Rule("rules need a non-empty body".into()));
        }
        for term in &rule.head.args {
            if let Term::Var(name) = term {
                let bound = rule.body.iter().any(|atom| {
                    atom.args.iter().any(|t| matches!(t, Term::Var(n) if n == name))
                });
                if !bound {
                    return Err(DbError::Rule(format!(
                        "head variable `{name}` does not occur in the body"
                    )));
                }
            }
        }
        self.rules.write().push(rule);
        Ok(())
    }

    /// Build the extensional database from the object graph, as of the
    /// committed snapshot `source` reads.
    fn build_edb(catalog: &Catalog, source: &SourceView<'_>) -> DbResult<FactStore> {
        let mut store = FactStore::default();
        let classes: Vec<_> = catalog.classes().map(|c| (c.id, c.name.clone())).collect();
        for (class_id, _name) in &classes {
            let oids = source.scan_class(*class_id)?;
            let resolved = catalog.resolve(*class_id)?;
            // Resolved attributes are kept in ascending id order.
            let attr_ids: Vec<u32> = resolved.attrs.iter().map(|a| a.id).collect();
            let records = source.fetch(&oids, None, &attr_ids)?;
            for (oid, record) in oids.into_iter().zip(records) {
                // Unary class predicates, subclass-aware: the instance
                // belongs to its class and every ancestor.
                store.insert(&resolved.name, vec![KeyVal(Value::Ref(oid))]);
                for ancestor in catalog.ancestors(*class_id)? {
                    let aname = catalog.class(ancestor)?.name.clone();
                    store.insert(&aname, vec![KeyVal(Value::Ref(oid))]);
                }
                // Binary attribute predicates.
                for attr in &resolved.attrs {
                    let effective = match record.as_deref().and_then(|r| r.get(attr.id)) {
                        Some(value) if !value.is_null() => value,
                        _ => &attr.default,
                    };
                    for leaf in crate::derived::keys_of(effective) {
                        store.insert(
                            &attr.name,
                            vec![KeyVal(Value::Ref(oid)), KeyVal(leaf)],
                        );
                    }
                }
            }
        }
        Ok(store)
    }

    /// Evaluate all rules to fixpoint and return `pred`'s tuples.
    /// `seminaive` restricts each round's joins to derivations that use
    /// at least one fact new in the previous round.
    pub fn infer(&self, pred: &str, seminaive: bool) -> DbResult<InferResult> {
        let rules = self.rules.read().clone();
        let mut store = self.with_snapshot(None, Self::build_edb)?;
        let mut substitutions: u64 = 0;

        // Delta = facts derived in the previous round, per predicate.
        let mut delta: HashMap<String, Relation> = HashMap::new();
        // Round zero: every rule against the EDB.
        for rule in &rules {
            let new = eval_rule(rule, &store, None, &mut substitutions)?;
            for tuple in new {
                if store.insert(&rule.head.pred, tuple.clone()) {
                    delta.entry(rule.head.pred.clone()).or_default().insert(tuple);
                }
            }
        }
        let mut iterations = 1usize;
        while !delta.is_empty() {
            let mut next_delta: HashMap<String, Relation> = HashMap::new();
            for rule in &rules {
                let new = if seminaive {
                    // One pass per body atom that can consume the delta.
                    let mut out = Vec::new();
                    for pivot in 0..rule.body.len() {
                        if delta.contains_key(&rule.body[pivot].pred) {
                            out.extend(eval_rule(
                                rule,
                                &store,
                                Some((pivot, &delta)),
                                &mut substitutions,
                            )?);
                        }
                    }
                    out
                } else {
                    eval_rule(rule, &store, None, &mut substitutions)?
                };
                for tuple in new {
                    if store.insert(&rule.head.pred, tuple.clone()) {
                        next_delta.entry(rule.head.pred.clone()).or_default().insert(tuple);
                    }
                }
            }
            delta = next_delta;
            iterations += 1;
        }

        let tuples = store
            .get(pred)
            .map(|rel| {
                rel.iter()
                    .map(|t| t.iter().map(|k| k.0.clone()).collect::<Vec<Value>>())
                    .collect()
            })
            .unwrap_or_default();
        Ok(InferResult { tuples, iterations, substitutions })
    }
}

/// Evaluate one rule against `store`. With `pivot = Some((i, delta))`,
/// body atom `i` ranges over the delta relation instead of the full one
/// (the semi-naive restriction).
fn eval_rule(
    rule: &Rule,
    store: &FactStore,
    pivot: Option<(usize, &HashMap<String, Relation>)>,
    substitutions: &mut u64,
) -> DbResult<Vec<Tuple>> {
    let empty = Relation::new();
    let mut substs: Vec<HashMap<String, Value>> = vec![HashMap::new()];
    for (i, atom) in rule.body.iter().enumerate() {
        let relation: &Relation = match pivot {
            Some((p, delta)) if p == i => delta.get(&atom.pred).unwrap_or(&empty),
            _ => store.get(&atom.pred).unwrap_or(&empty),
        };
        let mut next = Vec::new();
        for subst in &substs {
            for tuple in relation.iter() {
                *substitutions += 1;
                if let Some(extended) = unify(atom, tuple, subst) {
                    next.push(extended);
                }
            }
        }
        substs = next;
        if substs.is_empty() {
            return Ok(Vec::new());
        }
    }
    substs.iter().map(|s| ground_head(&rule.head, s)).collect()
}
