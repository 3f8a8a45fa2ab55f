//! The method registry: native bodies for catalog method signatures.
//!
//! "Every object encapsulates a state and a behavior ... the behavior of
//! an object is the set of methods (program code) which operate on the
//! state of the object" (§3.1, concept 2). ORION bound Lisp functions;
//! orion binds Rust closures. The catalog stores signatures and answers
//! late binding ("run-time binding of a message to its corresponding
//! method", concept 6) by walking the class linearization; this registry
//! maps the *resolved* `(defining class, selector)` pair to executable
//! code.

use crate::database::{Database, Tx};
use orion_types::{ClassId, DbResult, Oid, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A method body: receives the database, the calling transaction, the
/// receiver, and the arguments; returns a value.
pub type MethodBody = Arc<dyn Fn(&Database, &Tx, Oid, &[Value]) -> DbResult<Value> + Send + Sync>;

/// Maps `(defining class, selector)` to a body.
#[derive(Default)]
pub struct MethodRegistry {
    bodies: HashMap<(ClassId, String), MethodBody>,
}

impl MethodRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MethodRegistry::default()
    }

    /// Register the body for a method defined on `class`.
    pub fn register(&mut self, class: ClassId, selector: &str, body: MethodBody) {
        self.bodies.insert((class, selector.to_owned()), body);
    }

    /// The body for an exact `(class, selector)` pair (after the catalog
    /// has already late-bound the selector to its defining class).
    pub fn body(&self, class: ClassId, selector: &str) -> Option<MethodBody> {
        self.bodies.get(&(class, selector.to_owned())).map(Arc::clone)
    }
}

impl std::fmt::Debug for MethodRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodRegistry").field("bodies", &self.bodies.len()).finish()
    }
}
