//! Version management (\[CHOU86\], \[CHOU88\], \[KIM88a\]; §3.3 and §5.5).
//!
//! The layered design §5.5 calls for: this module is the *lower level* —
//! a basic mechanism with the semantics common to the proposals:
//!
//! * a **generic object** stands for a version set; reading it forwards
//!   to the current *default version* (generic references late-bind),
//! * versions form a **derivation tree**; deriving copies the source,
//! * **transient** versions are updatable; **promoting** one to a
//!   **working** version freezes it (working versions are immutable and
//!   may only be derived from),
//! * derivations and default changes raise **change notifications** on
//!   the generic object (flag model, \[CHOU88\]).
//!
//! All version metadata lives in reserved system attributes of the
//! records themselves (`crate::sysattr`), so rollback and crash recovery
//! restore version state with no extra machinery.

use crate::database::{Database, Tx};
use crate::notify::NotificationKind;
use crate::sysattr;
use orion_types::codec::ObjectRecord;
use orion_types::{DbError, DbResult, Oid, Value};
use std::sync::Arc;

/// Lifecycle state of a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionStatus {
    /// Updatable; may be deleted.
    Transient,
    /// Frozen; the stable base for further derivation.
    Working,
}

impl VersionStatus {
    fn as_str(self) -> &'static str {
        match self {
            VersionStatus::Transient => "transient",
            VersionStatus::Working => "working",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "transient" => Some(VersionStatus::Transient),
            "working" => Some(VersionStatus::Working),
            _ => None,
        }
    }
}

impl Database {
    /// Write a reserved system attribute directly (no domain checks —
    /// system attributes are not part of any class definition).
    pub(crate) fn set_system_attr(
        &self,
        tx: &Tx,
        oid: Oid,
        attr: u32,
        value: Value,
    ) -> DbResult<()> {
        debug_assert!(sysattr::is_reserved(attr));
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        let before = self.load_record(&rt, &catalog, oid)?;
        let mut record = (*before).clone();
        record.set(attr, value);
        self.write_object(&rt, tx, &catalog, Some(before), Some(Arc::new(record)), None)
    }

    fn system_attr(&self, oid: Oid, attr: u32) -> DbResult<Value> {
        let catalog = self.catalog.read();
        let rt = self.rt_read();
        let record = self.load_record(&rt, &catalog, oid)?;
        Ok(record.get(attr).cloned().unwrap_or(Value::Null))
    }

    /// Create a versioned object: returns `(generic, first_version)`.
    /// The first version is transient and is the default.
    pub fn create_versioned(
        &self,
        tx: &Tx,
        class_name: &str,
        attrs: Vec<(&str, Value)>,
    ) -> DbResult<(Oid, Oid)> {
        let v1 = self.create_object(tx, class_name, attrs)?;
        let generic = self.create_object(tx, class_name, Vec::new())?;
        self.set_system_attr(tx, generic, sysattr::ATTR_DEFAULT_VERSION, Value::Ref(v1))?;
        self.set_system_attr(tx, v1, sysattr::ATTR_GENERIC, Value::Ref(generic))?;
        self.set_system_attr(
            tx,
            v1,
            sysattr::ATTR_VERSION_STATUS,
            Value::str(VersionStatus::Transient.as_str()),
        )?;
        Ok((generic, v1))
    }

    /// Derive a new transient version from an existing version: copies
    /// its user attributes, points at the same generic, and notifies
    /// subscribers of the generic object.
    pub fn derive_version(&self, tx: &Tx, from: Oid) -> DbResult<Oid> {
        let generic = match self.system_attr(from, sysattr::ATTR_GENERIC)? {
            Value::Ref(g) => g,
            _ => {
                return Err(DbError::Version(format!(
                    "{from} is not a version (no generic object)"
                )))
            }
        };
        // Copy user attributes from the source version.
        let catalog = self.catalog.read();
        let source_record: Arc<ObjectRecord> = {
            let rt = self.rt_read();
            self.load_record(&rt, &catalog, from)?
        };
        let class_name = catalog.resolve(from.class())?.name.clone();
        drop(catalog);

        let new_version = self.create_object(tx, &class_name, Vec::new())?;
        // Install the copied user attributes directly (already validated
        // when the source stored them).
        {
            let catalog = self.catalog.read();
            let rt = self.rt_read();
            let old_record = self.load_record(&rt, &catalog, new_version)?;
            let resolved = catalog.resolve(new_version.class())?;
            let mut record = (*old_record).clone();
            for (attr_id, value) in &source_record.attrs {
                if sysattr::is_reserved(*attr_id) {
                    continue;
                }
                // Composite parts are exclusive to their parent: a new
                // version starts with no parts rather than stealing the
                // source's (deep-copying a design is an application
                // policy, not a kernel default).
                if resolved.attr_by_id(*attr_id).is_some_and(|a| a.composite) {
                    continue;
                }
                record.set(*attr_id, value.clone());
            }
            self.write_object(&rt, tx, &catalog, Some(old_record), Some(Arc::new(record)), None)?;
        }
        self.set_system_attr(tx, new_version, sysattr::ATTR_GENERIC, Value::Ref(generic))?;
        self.set_system_attr(tx, new_version, sysattr::ATTR_VERSION_PARENT, Value::Ref(from))?;
        self.set_system_attr(
            tx,
            new_version,
            sysattr::ATTR_VERSION_STATUS,
            Value::str(VersionStatus::Transient.as_str()),
        )?;
        self.notify.lock().publish(generic, NotificationKind::VersionDerived, Some(new_version));
        Ok(new_version)
    }

    /// Promote a transient version to a working (immutable) version.
    pub fn promote_version(&self, tx: &Tx, version: Oid) -> DbResult<()> {
        match self.version_status(version)? {
            VersionStatus::Working => {
                Err(DbError::Version(format!("{version} is already a working version")))
            }
            VersionStatus::Transient => self.set_system_attr(
                tx,
                version,
                sysattr::ATTR_VERSION_STATUS,
                Value::str(VersionStatus::Working.as_str()),
            ),
        }
    }

    /// Point a generic object's default at a different version.
    pub fn set_default_version(&self, tx: &Tx, generic: Oid, version: Oid) -> DbResult<()> {
        match self.system_attr(generic, sysattr::ATTR_DEFAULT_VERSION)? {
            Value::Ref(_) => {}
            _ => {
                return Err(DbError::Version(format!("{generic} is not a generic object")))
            }
        }
        match self.system_attr(version, sysattr::ATTR_GENERIC)? {
            Value::Ref(g) if g == generic => {}
            _ => {
                return Err(DbError::Version(format!(
                    "{version} is not a version of generic {generic}"
                )))
            }
        }
        self.set_system_attr(tx, generic, sysattr::ATTR_DEFAULT_VERSION, Value::Ref(version))?;
        self.notify.lock().publish(
            generic,
            NotificationKind::DefaultVersionChanged,
            Some(version),
        );
        Ok(())
    }

    /// The generic object's current default version.
    pub fn default_version(&self, generic: Oid) -> DbResult<Oid> {
        match self.system_attr(generic, sysattr::ATTR_DEFAULT_VERSION)? {
            Value::Ref(v) => Ok(v),
            _ => Err(DbError::Version(format!("{generic} is not a generic object"))),
        }
    }

    /// A version's lifecycle status.
    pub fn version_status(&self, version: Oid) -> DbResult<VersionStatus> {
        match self.system_attr(version, sysattr::ATTR_VERSION_STATUS)? {
            Value::Str(s) => VersionStatus::parse(&s)
                .ok_or_else(|| DbError::Version(format!("corrupt status `{s}`"))),
            _ => Err(DbError::Version(format!("{version} is not a version"))),
        }
    }

    /// A version's parent in the derivation tree (None for the first).
    pub fn version_parent(&self, version: Oid) -> DbResult<Option<Oid>> {
        match self.system_attr(version, sysattr::ATTR_VERSION_PARENT)? {
            Value::Ref(p) => Ok(Some(p)),
            _ => Ok(None),
        }
    }

    /// Every version of a generic object, in OID order.
    pub fn versions_of(&self, generic: Oid) -> DbResult<Vec<Oid>> {
        let rt = self.rt_read();
        let mut out: Vec<Oid> = rt.reverse.with(generic, |edges| {
            edges
                .into_iter()
                .flatten()
                .filter(|(_, attr)| *attr == sysattr::ATTR_GENERIC)
                .map(|(v, _)| *v)
                .collect()
        });
        out.sort();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Notification plumbing (public face)
    // ------------------------------------------------------------------

    /// Subscribe to changes of an object (flag-model notification).
    pub fn subscribe(&self, oid: Oid) {
        self.notify.lock().subscribe(oid);
    }

    /// Cancel a subscription.
    pub fn unsubscribe(&self, oid: Oid) {
        self.notify.lock().unsubscribe(oid);
    }

    /// Drain pending notifications for an object.
    pub fn poll_notifications(&self, oid: Oid) -> Vec<crate::notify::Notification> {
        self.notify.lock().poll(oid)
    }
}
