//! The `DataSource` abstraction the planner and executor run against.
//!
//! Query processing needs four capabilities — extent scans, batched
//! record access (optionally walked in storage order), index metadata,
//! and index lookups — and nothing else. Keeping
//! them behind a trait decouples this crate from the object manager
//! (`orion-core` implements it over the buffer pool, object cache, and
//! lock manager; tests and benches implement it in memory).

use crate::plan::AccessPath;
use orion_index::IndexDef;
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbResult, Oid, OidHashMap, Value};
use std::sync::Arc;

/// Where a source stores one object, as its [`DataSource::walk`] found
/// it: an opaque word the executor only hands back to the same source's
/// [`DataSource::fetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location(pub u64);

impl Location {
    /// The walk found no stored record for the object.
    pub const NONE: Location = Location(u64::MAX);
}

/// A storage-order walk over a candidate vector (see
/// [`DataSource::walk`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walk {
    /// A permutation of the candidate positions.
    pub order: Vec<u32>,
    /// `located[k]`: where the candidate at position `order[k]` is
    /// stored.
    pub located: Vec<Location>,
}

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
    /// `located`, when given, holds one [`Location`] per OID: where this
    /// source's [`DataSource::walk`] found each object. The source may
    /// read a record there instead of locating the object again. A
    /// location may be stale (the object moved or went since the walk):
    /// the answer must be the same as without it.
    ///
    /// `attrs` (ascending attribute ids) is everything the caller will
    /// read: an implementation may leave any other attribute out of the
    /// records it returns.
    ///
    /// This is the only way the executor touches object state, once per
    /// batch of candidates, so it is also where fetch accounting and
    /// per-call synchronisation happen.
    fn fetch(
        &self,
        oids: &[Oid],
        located: Option<&[Location]>,
        attrs: &[u32],
    ) -> DbResult<Vec<Option<Arc<ObjectRecord>>>>;

    /// A walk over `oids` in the order the source stores them, so that
    /// consecutive [`DataSource::fetch`] batches touch neighbouring
    /// storage and each page is read once per scan; each walked object
    /// comes with where it was found, which the executor hands back to
    /// `fetch` so that a scanned row is located once. `None` when order
    /// makes no difference to the source. Only the walk follows it —
    /// results keep candidate order.
    fn walk(&self, oids: &[Oid]) -> Option<Walk> {
        let _ = oids;
        None
    }

    /// Descriptors of every live index.
    fn indexes(&self) -> Vec<IndexDef>;

    /// How many postings the index `access` names holds for its keys
    /// in the sorted class set `scope`, exactly, or `cap` if that is
    /// fewer (optimizer input).
    fn index_count(&self, access: &AccessPath, scope: &[ClassId], cap: usize) -> usize;

    /// Probe every index `probes` names (at least one) for its keys,
    /// restricted to the sorted class set `scope`, and intersect:
    /// `(candidates, recheck)`, as [`intersect`] computes them from each
    /// index's postings and overlay.
    ///
    /// An index answers for the objects whose entries agree with what
    /// [`DataSource::fetch`] reads; its overlay names every object in
    /// `scope` whose entries may not. A source whose indexes always
    /// agree with its records has empty overlays.
    fn index_probe(&self, probes: &[&AccessPath], scope: &[ClassId])
        -> DbResult<(Vec<Oid>, Vec<Oid>)>;
}

/// One index's answer to one probe.
#[derive(Debug, Default)]
pub struct Probed {
    /// The postings under the probe's keys, in index order.
    pub postings: Vec<Oid>,
    /// Objects in scope whose entries in this index may disagree with
    /// what [`DataSource::fetch`] reads.
    pub overlay: Vec<Oid>,
}

/// The candidates of a conjunction answered by several indexes (the
/// first drives): `(candidates, recheck)`.
///
/// `recheck` (sorted) is the union of every overlay, less the objects
/// `visible` rejects; the executor judges those by the query's whole
/// predicate. Every other object has entries that agree with its record
/// in each index, so it belongs to every index's postings exactly when
/// it satisfies every conjunct they answer: the candidates are the
/// leading probe's postings, in its order, that every other index also
/// posts (an object in `recheck` is kept whatever the others say, one
/// outside `visible` is dropped), followed in OID order by the objects
/// of `recheck` the leading probe missed. A single index is the
/// intersection of one.
pub fn intersect(probed: Vec<Probed>, visible: impl Fn(Oid) -> bool) -> (Vec<Oid>, Vec<Oid>) {
    let mut probed = probed.into_iter();
    let Probed { postings: mut candidates, mut overlay } = probed.next().unwrap_or_default();
    let mut others = Vec::new();
    for mut p in probed {
        overlay.append(&mut p.overlay);
        p.postings.sort_unstable();
        others.push(p.postings);
    }
    if overlay.is_empty() && others.is_empty() {
        return (candidates, overlay);
    }
    overlay.sort_unstable();
    overlay.dedup();
    let (recheck, gone): (Vec<Oid>, Vec<Oid>) = overlay.into_iter().partition(|&oid| visible(oid));
    let listed = |list: &[Oid], oid: &Oid| list.binary_search(oid).is_ok();
    candidates.retain(|oid| {
        !listed(&gone, oid)
            && (listed(&recheck, oid) || others.iter().all(|postings| listed(postings, oid)))
    });
    let mut missed = vec![true; recheck.len()];
    for oid in &candidates {
        if let Ok(i) = recheck.binary_search(oid) {
            missed[i] = false;
        }
    }
    candidates.extend(recheck.iter().zip(missed).filter(|(_, m)| *m).map(|(oid, _)| *oid));
    (candidates, recheck)
}

/// A simple in-memory [`DataSource`] for tests, benches, and examples.
#[derive(Debug, Default)]
pub struct MemSource {
    objects: OidHashMap<Arc<ObjectRecord>>,
    extents: std::collections::HashMap<ClassId, Vec<Oid>>,
    indexes: Vec<orion_index::IndexInstance>,
    /// `(index id, object)`: the overlays [`MemSource::index_overlay`] named.
    overlays: Vec<(u32, Oid)>,
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

    /// Put `oid` in index `id`'s overlay: its entries there may disagree
    /// with its record (as a version store's would for an object that
    /// moved since a snapshot), so probes of that index name it for a
    /// re-check.
    pub fn index_overlay(&mut self, id: u32, oid: Oid) {
        self.overlays.push((id, oid));
    }

    fn instance(&self, access: &AccessPath) -> Option<&orion_index::IndexInstance> {
        self.indexes.iter().find(|i| Some(i.def.id) == access.index())
    }
}

impl DataSource for MemSource {
    fn scan_class(&self, class: ClassId) -> DbResult<Vec<Oid>> {
        Ok(self.extents.get(&class).cloned().unwrap_or_default())
    }

    fn extent_size(&self, class: ClassId) -> usize {
        self.extents.get(&class).map_or(0, |v| v.len())
    }

    fn fetch(
        &self,
        oids: &[Oid],
        _located: Option<&[Location]>,
        _attrs: &[u32],
    ) -> DbResult<Vec<Option<Arc<ObjectRecord>>>> {
        Ok(oids.iter().map(|oid| self.objects.get(oid).cloned()).collect())
    }

    fn indexes(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|i| i.def.clone()).collect()
    }

    fn index_count(&self, access: &AccessPath, scope: &[ClassId], cap: usize) -> usize {
        self.instance(access).map_or(0, |inst| access.count(inst, scope, cap))
    }

    fn index_probe(
        &self,
        probes: &[&AccessPath],
        scope: &[ClassId],
    ) -> DbResult<(Vec<Oid>, Vec<Oid>)> {
        let probed = probes
            .iter()
            .map(|access| Probed {
                postings: self.instance(access).map_or_else(Vec::new, |i| access.probe(i, scope)),
                overlay: self
                    .overlays
                    .iter()
                    .filter(|(id, oid)| {
                        Some(*id) == access.index() && scope.binary_search(&oid.class()).is_ok()
                    })
                    .map(|(_, oid)| *oid)
                    .collect(),
            })
            .collect();
        Ok(intersect(probed, |oid| self.objects.contains_key(&oid)))
    }
}
