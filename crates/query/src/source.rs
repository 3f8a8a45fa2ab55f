//! The `DataSource` abstraction the planner and executor run against.
//!
//! Query processing needs four capabilities — extent scans, batched
//! record access, index metadata, and index lookups — and nothing else. Keeping
//! them behind a trait decouples this crate from the object manager
//! (`orion-core` implements it over the buffer pool, object cache, and
//! lock manager; tests and benches implement it in memory).

use crate::plan::AccessPath;
use orion_index::IndexDef;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbResult, Oid, Value};
use std::sync::Arc;

/// What the query processor requires from the layers below.
///
/// `Sync` is a supertrait: the parallel executor shares one source
/// across its scoped worker threads, so implementations must be safe
/// to call concurrently (`orion-core`'s view takes the maintenance gate
/// shared once per call; `MemSource` is immutable during execution).
pub trait DataSource: Sync {
    /// All instances of exactly `class` (not its subclasses).
    fn scan_class(&self, class: ClassId) -> DbResult<Vec<Oid>>;

    /// Cardinality of `class`'s own extent (optimizer input).
    fn extent_size(&self, class: ClassId) -> usize;

    /// The records of `oids`: one entry per OID, in the same order.
    /// `None` stands for an object with no readable record (a dangling
    /// reference, or an object the reader may not see); every attribute
    /// of such an object reads as unset. A generic object answers with
    /// its default version's record, so a record's own `oid` field need
    /// not equal the OID it was asked for.
    ///
    /// `attrs` (ascending attribute ids) is everything the caller will
    /// read: an implementation may leave any other attribute out of the
    /// records it returns.
    ///
    /// This is the only way the executor touches object state, once per
    /// batch of candidates, so it is also where fetch accounting and
    /// per-call synchronisation happen.
    fn fetch(&self, oids: &[Oid], attrs: &[u32]) -> DbResult<Vec<Option<Arc<ObjectRecord>>>>;

    /// A permutation of `0..oids.len()` visiting `oids` in the order
    /// the source stores them, so that consecutive [`DataSource::fetch`]
    /// batches touch neighbouring storage and each page is read once
    /// per scan. `None` when order makes no difference to the source.
    /// Only the walk follows it — results keep candidate order.
    fn fetch_order(&self, oids: &[Oid]) -> Option<Vec<u32>> {
        let _ = oids;
        None
    }

    /// Descriptors of every live index.
    fn indexes(&self) -> Vec<IndexDef>;

    /// `(total entries, distinct keys)` for an index (selectivity input).
    fn index_stats(&self, id: u32) -> (usize, usize);

    /// Smallest and largest keys in an index (range-selectivity input).
    /// `None` when the index is empty or the source cannot say.
    fn index_key_bounds(&self, id: u32) -> Option<(Value, Value)> {
        let _ = id;
        None
    }

    /// Probe the index `access` names for its keys, restricted to the
    /// sorted class set `scope`: `(candidates, recheck)`.
    ///
    /// An index answers for the objects whose entries agree with what
    /// [`DataSource::fetch`] reads; the executor judges those by the
    /// residual alone. `recheck` (sorted) names every object in `scope`
    /// whose entries may not: each is among the candidates exactly when
    /// `fetch` can read it, and is judged by the query's whole predicate.
    /// A source whose indexes always agree with its records returns an
    /// empty `recheck`.
    fn index_probe(&self, access: &AccessPath, scope: &[ClassId])
        -> DbResult<(Vec<Oid>, Vec<Oid>)>;
}

/// A simple in-memory [`DataSource`] for tests, benches, and examples.
#[derive(Debug, Default)]
pub struct MemSource {
    objects: std::collections::HashMap<Oid, Arc<ObjectRecord>>,
    extents: std::collections::HashMap<ClassId, Vec<Oid>>,
    indexes: Vec<orion_index::IndexInstance>,
}

impl MemSource {
    /// An empty source.
    pub fn new() -> Self {
        MemSource::default()
    }

    /// Add an object with `(attr id, value)` pairs.
    pub fn add_object(&mut self, oid: Oid, attrs: Vec<(u32, Value)>) {
        self.extents.entry(oid.class()).or_default().push(oid);
        self.objects.insert(oid, Arc::new(ObjectRecord::new(oid, 0, attrs)));
    }

    /// Register an index; entries must be added via [`MemSource::index_insert`].
    pub fn add_index(&mut self, def: IndexDef) {
        self.indexes.push(orion_index::IndexInstance::new(def));
    }

    /// Insert an index entry.
    pub fn index_insert(&mut self, id: u32, key: Value, oid: Oid) {
        let inst = self
            .indexes
            .iter_mut()
            .find(|i| i.def.id == id)
            .expect("index id registered");
        inst.imp.insert(key, oid);
    }
}

impl DataSource for MemSource {
    fn scan_class(&self, class: ClassId) -> DbResult<Vec<Oid>> {
        Ok(self.extents.get(&class).cloned().unwrap_or_default())
    }

    fn extent_size(&self, class: ClassId) -> usize {
        self.extents.get(&class).map_or(0, |v| v.len())
    }

    fn fetch(&self, oids: &[Oid], _attrs: &[u32]) -> DbResult<Vec<Option<Arc<ObjectRecord>>>> {
        Ok(oids.iter().map(|oid| self.objects.get(oid).cloned()).collect())
    }

    fn indexes(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|i| i.def.clone()).collect()
    }

    fn index_stats(&self, id: u32) -> (usize, usize) {
        self.indexes
            .iter()
            .find(|i| i.def.id == id)
            .map_or((0, 0), |i| (i.imp.len(), i.imp.distinct_keys()))
    }

    fn index_key_bounds(&self, id: u32) -> Option<(Value, Value)> {
        self.indexes.iter().find(|i| i.def.id == id).and_then(|i| i.imp.key_bounds())
    }

    fn index_probe(
        &self,
        access: &AccessPath,
        scope: &[ClassId],
    ) -> DbResult<(Vec<Oid>, Vec<Oid>)> {
        let inst = self.indexes.iter().find(|i| Some(i.def.id) == access.index());
        Ok((inst.map_or_else(Vec::new, |i| access.probe(i, scope)), Vec::new()))
    }
}
