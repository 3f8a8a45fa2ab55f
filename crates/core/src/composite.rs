//! Composite objects (\[KIM89c\]; §3.3 "composite objects which capture
//! the ... part-of relationship").
//!
//! An attribute declared `composite` is an *exclusive, dependent*
//! part-of reference: a part belongs to exactly one parent and is
//! deleted with it (or when unlinked). On top of the bookkeeping in
//! `database.rs`, this module adds the two architectural consequences
//! §3.2/§4.2 calls out:
//!
//! * **clustering** — [`Database::create_part`] places the new part on
//!   (or near) its parent's page, so traversing a composite touches few
//!   pages (experiment E10),
//! * **composite locking** — [`Database::lock_composite`] locks the
//!   whole composite in one protocol step, the cheap alternative to
//!   per-object locking for checkout-style operations (experiment E9),
//! * **checkout/checkin** — long-duration-transaction support: checkout
//!   copies a composite into a private workspace database; checkin
//!   writes the changes back (§3.3 "checkout and checkin of objects
//!   between a shared database and private databases").

use crate::database::{Database, Tx};
use orion_types::{DbError, DbResult, Oid, OidHashMap, Value};

impl Database {
    /// Create an object as a part of `parent` under the composite
    /// attribute `attr_name`, cluster-placed next to its parent. For a
    /// set-valued composite attribute the part is added to the set; for
    /// a scalar one it becomes the value (the old part, if any, is
    /// deleted per dependent semantics).
    pub fn create_part(
        &self,
        tx: &Tx,
        parent: Oid,
        attr_name: &str,
        class_name: &str,
        attrs: Vec<(&str, Value)>,
    ) -> DbResult<Oid> {
        // Validate that the attribute is composite before creating.
        {
            let catalog = self.catalog.read();
            let resolved = catalog.resolve(parent.class())?;
            let attr = resolved.attr(attr_name).ok_or_else(|| DbError::UnknownAttribute {
                class: resolved.name.clone(),
                attribute: attr_name.to_owned(),
            })?;
            if !attr.composite {
                return Err(DbError::Composite(format!(
                    "attribute `{attr_name}` of `{}` is not composite",
                    resolved.name
                )));
            }
        }
        let set_valued = {
            let catalog = self.catalog.read();
            let resolved = catalog.resolve(parent.class())?;
            matches!(
                resolved.attr(attr_name).map(|a| &a.domain),
                Some(orion_types::Domain::SetOf(_)) | Some(orion_types::Domain::ListOf(_))
            )
        };
        // Cluster near the composite's most recently placed member: the
        // newest part's page (or the parent's, for the first part), so
        // a growing composite fills page after page contiguously.
        let anchor = self.parts_of(parent).into_iter().next_back().unwrap_or(parent);
        let part = self.create_object_impl(tx, class_name, attrs, Some(anchor))?;
        // Link into the parent (set() performs ownership claiming and
        // nested-index maintenance).
        let current = self.get(tx, parent, attr_name)?;
        let new_value = match current {
            Value::Null if set_valued => Value::set(vec![Value::Ref(part)]),
            Value::Null => Value::Ref(part),
            Value::Ref(_old) => Value::Ref(part), // old part deleted by set()
            Value::Set(mut items) => {
                items.push(Value::Ref(part));
                Value::set(items)
            }
            Value::List(mut items) => {
                items.push(Value::Ref(part));
                Value::List(items)
            }
            other => {
                return Err(DbError::Composite(format!(
                    "composite attribute holds non-reference value {other}"
                )))
            }
        };
        self.set(tx, parent, attr_name, new_value)?;
        Ok(part)
    }

    /// The direct, live parts of `root` (one level).
    pub fn parts_of(&self, root: Oid) -> Vec<Oid> {
        let rt = self.rt_read();
        let mut parts: Vec<Oid> = rt
            .composite_owner
            .read()
            .iter()
            .filter(|(_, (parent, _))| *parent == root)
            .map(|(part, _)| *part)
            .collect();
        parts.retain(|part| rt.directory.contains(*part));
        parts.sort();
        parts
    }

    /// The whole composite rooted at `root` (root first, then parts in
    /// closure order).
    pub fn composite_members(&self, root: Oid) -> Vec<Oid> {
        let rt = self.rt_read();
        self.composite_closure(&rt, root)
    }

    /// The composite parent of `part`, if it is owned.
    pub fn composite_parent(&self, part: Oid) -> Option<Oid> {
        self.rt_read().composite_owner.read().get(&part).map(|(p, _)| *p)
    }

    /// Lock the whole composite rooted at `root` exclusively in one
    /// protocol step (composite locking, experiment E9).
    pub fn lock_composite(&self, tx: &Tx, root: Oid) -> DbResult<()> {
        let members = self.composite_members(root);
        for member in members {
            self.lock_write(tx, member)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkout / checkin (long-duration transactions, §2.2/§3.3)
    // ------------------------------------------------------------------

    /// Check the composite rooted at `root` out into a private
    /// workspace: returns a map `oid → attribute values by name` the
    /// application can edit offline (a private database in the paper's
    /// terms). The composite stays locked in the shared database until
    /// checkin or rollback.
    pub fn checkout(&self, tx: &Tx, root: Oid) -> DbResult<OidHashMap<Vec<(String, Value)>>> {
        self.lock_composite(tx, root)?;
        let members = self.composite_members(root);
        let catalog = self.catalog.read();
        let mut workspace = OidHashMap::default();
        let rt = self.rt_read();
        for member in members {
            let record = self.load_record(&rt, &catalog, member)?;
            let resolved = catalog.resolve(member.class())?;
            let mut attrs = Vec::new();
            for attr in &resolved.attrs {
                if let Some(v) = record.get(attr.id) {
                    attrs.push((attr.name.clone(), v.clone()));
                }
            }
            workspace.insert(member, attrs);
        }
        Ok(workspace)
    }

    /// Check a workspace back in: writes every attribute back through
    /// the normal update path (domain checks, index maintenance,
    /// notifications). The caller then commits.
    pub fn checkin(
        &self,
        tx: &Tx,
        workspace: OidHashMap<Vec<(String, Value)>>,
    ) -> DbResult<()> {
        for (oid, attrs) in workspace {
            for (name, value) in attrs {
                self.set(tx, oid, &name, value)?;
            }
        }
        Ok(())
    }
}
