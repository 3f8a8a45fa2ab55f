//! The multidatabase gateway (§5.2).
//!
//! "It is highly desirable to allow the user to access a heterogeneous
//! mix of databases under the illusion of a single common data model ...
//! The richness of an object-oriented data model makes it appropriate
//! for use as the common data model."
//!
//! A foreign database plugs in by implementing [`ForeignAdapter`]. On
//! attach, each foreign class becomes a real class in the catalog whose
//! *extent is served by the adapter*: scans refresh a materialized
//! snapshot keyed by the adapter's stable per-row keys, so OIDs stay
//! stable across scans and orion queries (including joins-by-navigation
//! against native objects) work unchanged over foreign data.

use orion_types::{DbResult, PrimitiveType, Value};

/// Schema of one foreign class as exposed by an adapter.
#[derive(Debug, Clone)]
pub struct ForeignClass {
    /// Class name to register in the catalog.
    pub name: String,
    /// `(attribute name, primitive type)` pairs. Foreign attributes are
    /// primitive; cross-database references are modeled by key values
    /// and resolved by applications or rules.
    pub attrs: Vec<(String, PrimitiveType)>,
}

/// One foreign row/record, as exposed by an adapter.
#[derive(Debug, Clone)]
pub struct ForeignObject {
    /// A stable per-class key (e.g. a primary key hash). Re-scans with
    /// the same key map to the same orion OID.
    pub key: u64,
    /// Attribute values, aligned with the class's declared attributes
    /// by name.
    pub attrs: Vec<(String, Value)>,
}

/// What a foreign database must provide to join the federation.
pub trait ForeignAdapter: Send + Sync {
    /// A short name for diagnostics.
    fn name(&self) -> &str;

    /// The classes this adapter serves.
    fn classes(&self) -> Vec<ForeignClass>;

    /// Scan the current contents of one foreign class.
    fn scan(&self, class: &str) -> DbResult<Vec<ForeignObject>>;
}

use crate::database::Database;
use orion_schema::AttrSpec;
use orion_types::{DbError, Domain};

impl Database {
    /// Attach a foreign database: each of its classes becomes a real
    /// class in the catalog whose extent is served by the adapter.
    /// Returns the names of the attached classes.
    pub fn attach_foreign(&self, adapter: Box<dyn ForeignAdapter>) -> DbResult<Vec<String>> {
        let name = adapter.name().to_owned();
        if self.adapters.read().contains_key(&name) {
            return Err(DbError::AlreadyExists(format!("foreign adapter `{name}`")));
        }
        let classes = adapter.classes();
        let mut attached = Vec::with_capacity(classes.len());
        {
            let mut catalog = self.catalog.write();
            // Shared gate: the classes registered here do not exist for
            // anyone else until the catalog write lock is released, so no
            // scan or DML can name them in the meantime.
            let rt = self.rt_read();
            let mut foreign = rt.foreign_classes.write();
            for fc in &classes {
                let attrs = fc
                    .attrs
                    .iter()
                    .map(|(n, t)| AttrSpec::new(n.clone(), Domain::Primitive(*t)))
                    .collect();
                let class_id = catalog.create_class(&fc.name, &[], attrs)?;
                foreign.insert(class_id, name.clone());
                attached.push(fc.name.clone());
            }
        }
        self.adapters.write().insert(name, adapter);
        Ok(attached)
    }

    /// Names of attached foreign adapters.
    pub fn foreign_adapters(&self) -> Vec<String> {
        let mut names: Vec<String> = self.adapters.read().keys().cloned().collect();
        names.sort();
        names
    }
}
