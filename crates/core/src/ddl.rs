//! Schema and index DDL on the facade.
//!
//! DDL auto-commits: a schema change takes class-hierarchy `X` locks on
//! the affected subtree (\[GARZ88\]), applies, optionally migrates
//! instances, and releases — it is not rolled back by an application
//! transaction's `rollback`. (ORION made the same choice; undoing
//! schema changes is \[KIM88a\]'s *schema versioning*, which orion offers
//! through views instead.)
//!
//! Index create/drop takes the *exclusive* maintenance gate: populating
//! a new index scans extents while DML maintains existing indexes, and
//! the only way a freshly built index can be neither missing concurrent
//! writes nor double-entering them is for the build to be atomic with
//! respect to all mutators. Index DDL is rare; DML never takes the
//! exclusive gate.

use crate::database::{Database, Tx};
use orion_index::{IndexDef, IndexInstance, IndexKind};
use orion_schema::evolution::ChangeEffect;
use orion_schema::{AttrSpec, Catalog, SchemaChange};
use orion_types::{ClassId, DbError, DbResult, Oid};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// When instance adaptation happens after a schema change (E6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Migration {
    /// Rewrite every affected instance now.
    Eager,
    /// Adapt instances when they are next touched (records carry the
    /// schema version they were written under).
    Lazy,
}

impl Database {
    /// Create a class. Superclasses are named; attribute specs as in
    /// `orion-schema`.
    pub fn create_class(
        &self,
        name: &str,
        supers: &[&str],
        attrs: Vec<AttrSpec>,
    ) -> DbResult<ClassId> {
        let id = {
            let mut catalog = self.catalog.write();
            let super_ids = supers
                .iter()
                .map(|s| catalog.class_id(s))
                .collect::<DbResult<Vec<_>>>()?;
            catalog.create_class(name, &super_ids, attrs)?
        };
        self.persist_system_state()?;
        Ok(id)
    }

    /// Apply a schema change under class-hierarchy locks, with the
    /// chosen instance-migration policy.
    pub fn evolve(&self, change: SchemaChange, migration: Migration) -> DbResult<()> {
        // Take subtree X locks under a short system transaction.
        let tx = self.begin();
        let result = self.evolve_inner(&tx, change, migration);
        match result {
            Ok(()) => {
                self.commit(tx)?;
                self.persist_system_state()
            }
            Err(e) => {
                self.rollback(tx)?;
                Err(e)
            }
        }
    }

    fn evolve_inner(&self, tx: &Tx, change: SchemaChange, migration: Migration) -> DbResult<()> {
        // Determine and lock the affected subtree before touching the
        // catalog (the catalog computes subtrees, so read-lock first).
        let affected_root = match &change {
            SchemaChange::AddAttribute { class, .. }
            | SchemaChange::DropAttribute { class, .. }
            | SchemaChange::RenameAttribute { class, .. }
            | SchemaChange::ChangeDefault { class, .. }
            | SchemaChange::GeneralizeDomain { class, .. }
            | SchemaChange::AddSuperclass { class, .. }
            | SchemaChange::DropSuperclass { class, .. }
            | SchemaChange::RenameClass { class, .. }
            | SchemaChange::DropClass { class } => *class,
        };
        let subtree = self.catalog.read().subtree(affected_root)?.as_ref().clone();
        self.locks.lock_schema_change(tx.id(), &subtree)?;

        // Guard: dropping a class with live instances is rejected.
        if let SchemaChange::DropClass { class } = &change {
            let live = self.rt_read().extents.len_of(*class);
            if live > 0 {
                return Err(DbError::SchemaInvariant(format!(
                    "class has {live} live instance(s); delete or migrate them first"
                )));
            }
        }

        let (effect, replaced) = {
            let mut catalog = self.catalog.write();
            let replaced = catalog.snapshot();
            (change.apply(&mut catalog)?, replaced)
        };
        self.migrate(tx, &effect, migration).inspect_err(|_| {
            // Rollback reverts the migrated instances, not the schema
            // they were migrated to: put back the catalog it replaced.
            if let Ok(catalog) = Catalog::restore(&replaced) {
                *self.catalog.write() = catalog;
            }
        })
    }

    fn migrate(&self, tx: &Tx, effect: &ChangeEffect, migration: Migration) -> DbResult<()> {
        match (effect, migration) {
            (ChangeEffect::AttributeDropped { attr_id, classes }, _) => {
                if migration == Migration::Eager {
                    self.eager_scrub(tx, classes, *attr_id)?;
                }
                // Indexes over the dropped attribute are dropped with it.
                self.drop_indexes_using_attr(*attr_id)?;
            }
            (ChangeEffect::AttributeAdded { attr_id, classes, default }, Migration::Eager) => {
                self.eager_fill(tx, classes, *attr_id, default.clone())?;
            }
            (ChangeEffect::Reshaped { classes }, Migration::Eager) => {
                // Superclass changes may add and remove several
                // attributes; eager migration rewrites records to the
                // new resolved shape (lazy adaptation would do it on
                // next touch).
                self.eager_reshape(tx, classes)?;
            }
            _ => {}
        }
        Ok(())
    }

    fn instances_of(rt: &crate::runtime::Runtime, classes: &[ClassId]) -> Vec<Oid> {
        classes.iter().flat_map(|c| rt.extents.snapshot(*c)).collect()
    }

    fn eager_scrub(&self, tx: &Tx, classes: &[ClassId], attr_id: u32) -> DbResult<()> {
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        for oid in Self::instances_of(&rt, classes) {
            let before = self.load_record(&rt, &catalog, oid)?;
            let mut record = (*before).clone();
            if record.remove(attr_id).is_some() {
                record.schema_version = catalog.resolve(oid.class())?.version;
                self.write_object(&rt, tx, &catalog, Some(before), Some(Arc::new(record)), None)?;
            }
        }
        Ok(())
    }

    fn eager_fill(
        &self,
        tx: &Tx,
        classes: &[ClassId],
        attr_id: u32,
        default: orion_types::Value,
    ) -> DbResult<()> {
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        for oid in Self::instances_of(&rt, classes) {
            let before = self.load_record(&rt, &catalog, oid)?;
            let mut record = (*before).clone();
            record.set(attr_id, default.clone());
            record.schema_version = catalog.resolve(oid.class())?.version;
            self.write_object(&rt, tx, &catalog, Some(before), Some(Arc::new(record)), None)?;
        }
        Ok(())
    }

    fn eager_reshape(&self, tx: &Tx, classes: &[ClassId]) -> DbResult<()> {
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        for oid in Self::instances_of(&rt, classes) {
            let resolved = catalog.resolve(oid.class())?;
            let before = self.load_record(&rt, &catalog, oid)?;
            let mut record = (*before).clone();
            record.attrs.retain(|(id, _)| {
                crate::sysattr::is_reserved(*id) || resolved.attr_by_id(*id).is_some()
            });
            record.schema_version = resolved.version;
            self.write_object(&rt, tx, &catalog, Some(before), Some(Arc::new(record)), None)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Index DDL
    // ------------------------------------------------------------------

    /// Create an index of `kind` on `class_name` over a named attribute
    /// path (length 1 for simple indexes, ≥ 2 for nested ones). The
    /// index is populated from existing instances under the exclusive
    /// maintenance gate (atomic with respect to concurrent DML index
    /// maintenance).
    pub fn create_index(
        &self,
        name: &str,
        kind: IndexKind,
        class_name: &str,
        path: &[&str],
    ) -> DbResult<u32> {
        let catalog = self.catalog.read();
        let target = catalog.class_id(class_name)?;
        match kind {
            IndexKind::SingleClass | IndexKind::ClassHierarchy if path.len() != 1 => {
                return Err(DbError::Query(format!(
                    "{kind:?} index takes exactly one attribute, got path of {}",
                    path.len()
                )))
            }
            IndexKind::Nested if path.len() < 2 => {
                return Err(DbError::Query(
                    "a nested index needs a path of at least two attributes".into(),
                ))
            }
            _ => {}
        }
        // Resolve the name path to attribute ids from the target class.
        let query_path = orion_query::Path::new(path.to_vec());
        let path_ids = orion_query::plan::bind_path(&catalog, target, &query_path)?;

        let rt = self.rt_write();
        if rt.indexes.read().iter().any(|i| i.def.name == name) {
            return Err(DbError::AlreadyExists(format!("index `{name}`")));
        }
        let id = rt.next_index_id.fetch_add(1, Ordering::Relaxed);
        let def = IndexDef {
            id,
            name: name.to_owned(),
            kind: kind.clone(),
            target,
            path: path_ids,
        };
        let mut inst = IndexInstance::new(def);

        // Populate from the covered extents.
        let covered: Vec<ClassId> = match kind {
            IndexKind::SingleClass => vec![target],
            IndexKind::ClassHierarchy | IndexKind::Nested => {
                catalog.subtree(target)?.as_ref().clone()
            }
        };
        let members: Vec<Oid> = covered.iter().flat_map(|c| rt.extents.snapshot(*c)).collect();
        for oid in members {
            let record = self.load_record(&rt, &catalog, oid)?;
            self.populate(&rt, &catalog, &mut inst, &record)?;
        }
        rt.indexes.write().push(inst);
        drop(rt);
        drop(catalog);
        self.persist_system_state()?;
        Ok(id)
    }

    /// Drop an index by name.
    pub fn drop_index(&self, name: &str) -> DbResult<()> {
        {
            let rt = self.rt_write();
            let mut indexes = rt.indexes.write();
            let before = indexes.len();
            indexes.retain(|i| i.def.name != name);
            if indexes.len() == before {
                return Err(DbError::Query(format!("no index named `{name}`")));
            }
        }
        self.persist_system_state()
    }

    fn drop_indexes_using_attr(&self, attr_id: u32) -> DbResult<()> {
        let rt = self.rt_write();
        rt.indexes.write().retain(|i| !i.def.path.contains(&attr_id));
        Ok(())
    }

    /// Descriptors of every live index.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.rt_read().indexes.read().iter().map(|i| i.def.clone()).collect()
    }

    /// `(entries, distinct keys)` for a named index.
    pub fn index_stats(&self, name: &str) -> Option<(usize, usize)> {
        let rt = self.rt_read();
        let indexes = rt.indexes.read();
        indexes
            .iter()
            .find(|i| i.def.name == name)
            .map(|i| (i.imp.len(), i.imp.distinct_keys()))
    }
}
