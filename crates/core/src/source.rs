//! The facade's [`DataSource`] implementation: how declarative queries
//! see stored (and federated) objects.

use crate::database::{adapt_to, Database, Tx};
use crate::mvcc::{Resolution, SnapshotGuard, NO_READER};
use crate::runtime::Runtime;
use crate::sysattr;
use orion_index::{IndexDef, IndexKind};
use orion_query::{AccessPath, DataSource};
use orion_schema::Catalog;
use orion_storage::{Rid, SlotRead};
use orion_types::codec::ObjectRecord;
use orion_types::{ClassId, DbError, DbResult, Oid, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A lightweight view of the database for the query processor, reading
/// at one registered snapshot ([`Database::with_snapshot`]). Each
/// method takes the maintenance gate *shared* once per call plus the
/// component locks it needs (extents for scans, the index set for
/// probes; for a batch of records the cache and directory shards, each
/// locked once per batch) — any number of queries proceed concurrently
/// with each other and with DML. The view never takes the catalog
/// lock: it works under the catalog reference it is built with, which
/// its maker already holds for the view's whole life (taking the lock
/// again underneath that guard would deadlock behind a waiting schema
/// change).
///
/// Isolation is snapshot isolation and nothing else: scans merge back
/// concurrently deleted objects and visibility-filter the candidates,
/// index probes hand every object that moved since the snapshot to the
/// executor for a re-check, and record reads resolve through the
/// version store — no 2PL locks at all.
pub struct SourceView<'a> {
    db: &'a Database,
    catalog: &'a Catalog,
    snapshot: &'a SnapshotGuard<'a>,
}

/// What a snapshot read of one object still has to do.
#[derive(Clone, Copy, PartialEq)]
enum Pending {
    /// Served from its version chain (or invisible): nothing.
    Settled,
    /// The in-place state is the reader's own uncommitted write.
    InPlace,
    /// No chain was found: read in place, then confirm that none
    /// appeared meanwhile.
    Confirm,
}

impl<'a> SourceView<'a> {
    /// Does `oid` exist at the snapshot? `current` answers for an object
    /// without a version chain.
    fn visible(&self, rt: &Runtime, oid: Oid, current: impl FnOnce() -> bool) -> bool {
        match self.db.mvcc.resolve(oid, self.snapshot.ts(), self.snapshot.reader()) {
            Resolution::Current => current(),
            Resolution::Visible(_) => true,
            Resolution::Invisible => false,
            // The reader's own in-flight write: the live directory is
            // exactly its view (its own deletes are gone, its own
            // creates and updates are in).
            Resolution::Own => rt.directory.contains(oid),
        }
    }

    /// Objects in `scope` whose entries in `def` may disagree with the
    /// snapshot, sorted: every object that moved since it, and for a
    /// nested index every root that reaches one along the index path
    /// (the edges above the first moved object on a root's snapshot
    /// path are unchanged in the reverse map, so the climb finds every
    /// such root).
    fn overlay(&self, rt: &Runtime, def: &IndexDef, scope: &[ClassId]) -> Vec<Oid> {
        let in_scope = |oid: Oid| scope.binary_search(&oid.class()).is_ok();
        let (ts, reader) = (self.snapshot.ts(), self.snapshot.reader());
        let mut overlay = if def.kind == IndexKind::Nested {
            let mut roots = Vec::new();
            for oid in self.db.mvcc.moved_since(ts, reader, |_| true) {
                let reach = self.db.nested_roots(rt, self.catalog, def.target, &def.path, oid);
                roots.extend(reach.into_iter().filter(|&root| in_scope(root)));
            }
            roots
        } else {
            self.db.mvcc.moved_since(ts, reader, in_scope)
        };
        overlay.sort_unstable();
        overlay.dedup();
        overlay
    }

    /// The records of `oids` at the snapshot (`None`: dangling,
    /// invisible, or unreadable).
    ///
    /// Per object: the newest version visible at the snapshot. An
    /// object with a version chain is served from it;
    /// otherwise the in-place state *is* the committed truth — with one
    /// subtlety: a writer may stage a chain between the resolution and
    /// the in-place read, so every such read is confirmed by checking
    /// for a chain afterwards (stage-before-mutate makes a second
    /// resolution see the pre-image the snapshot needs). The in-place
    /// reads of a batch are done together, page by page; the protocol
    /// stays per object, and an object that lost the race is simply
    /// read again on its own.
    fn read_batch(
        &self,
        rt: &Runtime,
        oids: &[Oid],
        attrs: &[u32],
    ) -> Vec<Option<Arc<ObjectRecord>>> {
        let mut out = vec![None; oids.len()];
        let (ts, reader) = (self.snapshot.ts(), self.snapshot.reader());
        let mvcc = &self.db.mvcc;
        let mut pending = vec![Pending::Confirm; oids.len()];
        if !mvcc.quiescent() {
            for (i, oid) in oids.iter().enumerate() {
                pending[i] = match mvcc.resolve(*oid, ts, reader) {
                    Resolution::Visible(record) => {
                        out[i] = Some(record);
                        Pending::Settled
                    }
                    Resolution::Invisible => Pending::Settled,
                    Resolution::Own => Pending::InPlace,
                    Resolution::Current => Pending::Confirm,
                };
            }
        }
        self.read_in_place(rt, oids, |i| pending[i] != Pending::Settled, attrs, &mut out);
        for (i, oid) in oids.iter().enumerate() {
            if pending[i] == Pending::Confirm && mvcc.has_chain(*oid) {
                // Lost the race with a writer's staging (the read may
                // have failed outright if the record moved); the chain
                // is authoritative now — resolve again.
                out[i] = self.read_batch(rt, &[*oid], attrs).pop().flatten();
            }
        }
        out
    }

    /// Fill `out[i]` with the in-place record of each `oids[i]` that
    /// `wanted` selects, without touching cache recency or admission
    /// (the read path must not perturb eviction order). Cache residents
    /// and foreign objects are served as shared handles; the rest are
    /// resolved to record ids, grouped by page, and each page is read
    /// once. Only `attrs` and the system attributes are decoded.
    /// Dangling OIDs and unreadable records stay `None`.
    fn read_in_place(
        &self,
        rt: &Runtime,
        oids: &[Oid],
        wanted: impl Fn(usize) -> bool,
        attrs: &[u32],
        out: &mut [Option<Arc<ObjectRecord>>],
    ) {
        rt.cache.peek_batch(oids, &wanted, out);
        {
            let foreign = rt.foreign_store.read();
            if !foreign.is_empty() {
                for (i, oid) in oids.iter().enumerate() {
                    if wanted(i) && out[i].is_none() {
                        out[i] = foreign.get(oid).cloned();
                    }
                }
            }
        }
        let mut located: Vec<(Rid, usize)> = Vec::new();
        rt.directory.get_batch(oids, |i, rid| {
            if wanted(i) && out[i].is_none() {
                located.push((rid, i));
            }
        });
        located.sort_unstable();

        let keep = |id: u32| sysattr::is_reserved(id) || attrs.binary_search(&id).is_ok();
        let engine = &self.db.engine;
        // The batch's classes, resolved once each (lazy adaptation).
        let mut classes: Vec<(ClassId, Option<Arc<orion_schema::ResolvedClass>>)> = Vec::new();
        let (mut buf, mut cells, mut slots) = (Vec::new(), Vec::new(), Vec::new());
        let mut fetched = 0;
        for page in located.chunk_by(|a, b| a.0.page == b.0.page) {
            slots.clear();
            slots.extend(page.iter().map(|(rid, _)| rid.slot));
            buf.clear();
            cells.clear();
            if engine.read_slots(page[0].0.page, &slots, &mut buf, &mut cells).is_err() {
                continue;
            }
            for (&(rid, i), cell) in page.iter().zip(&cells) {
                let decoded = match cell {
                    SlotRead::Whole(range) => {
                        ObjectRecord::decode_projected(&buf[range.clone()], keep)
                    }
                    SlotRead::Chained => engine
                        .read(rid)
                        .and_then(|bytes| ObjectRecord::decode_projected(&bytes, keep)),
                    SlotRead::Absent => continue,
                };
                let Ok(mut record) = decoded else { continue };
                fetched += 1;
                let class = record.oid.class();
                let known = classes.iter().position(|(c, _)| *c == class).unwrap_or_else(|| {
                    classes.push((class, self.catalog.resolve(class).ok()));
                    classes.len() - 1
                });
                // A class dropped with extant instances adapts nothing.
                if let Some(resolved) = &classes[known].1 {
                    adapt_to(resolved, &mut record);
                }
                out[i] = Some(Arc::new(record));
            }
        }
        rt.fetches.fetch_add(fetched, Ordering::Relaxed);
    }
}

impl DataSource for SourceView<'_> {
    fn scan_class(&self, class: ClassId) -> DbResult<Vec<Oid>> {
        // Foreign classes refresh their materialized extent on scan.
        let adapter_name = self.db.rt_read().foreign_classes.read().get(&class).cloned();
        if let Some(name) = adapter_name {
            self.db.refresh_foreign_extent(self.catalog, &name, class)?;
        }
        let rt = self.db.rt_read();
        let mut oids = rt.extents.snapshot(class);
        if !self.db.mvcc.quiescent() {
            // Objects deleted after the snapshot (or by in-flight
            // transactions) are gone from the live extent but still
            // belong to this scan; merge, then visibility-filter the
            // union (which also drops uncommitted creates).
            let gone = self.db.mvcc.deleted_after(class, self.snapshot.ts());
            if !gone.is_empty() {
                oids.extend(gone);
                oids.sort_unstable();
                oids.dedup();
            }
            oids.retain(|&oid| self.visible(&rt, oid, || true));
        }
        Ok(oids)
    }

    fn extent_size(&self, class: ClassId) -> usize {
        self.db.rt_read().extents.len_of(class)
    }

    fn fetch(&self, oids: &[Oid], attrs: &[u32]) -> DbResult<Vec<Option<Arc<ObjectRecord>>>> {
        // One shared gate guard and one counter update per batch.
        let rt = self.db.rt_read();
        let mut out = self.read_batch(&rt, oids, attrs);
        let mut reads = oids.len() as u64;
        // Generic objects answer through their default version.
        for slot in &mut out {
            let default = match slot.as_deref().and_then(|r| r.get(sysattr::ATTR_DEFAULT_VERSION)) {
                Some(Value::Ref(default)) => *default,
                _ => continue,
            };
            *slot = self.read_batch(&rt, &[default], attrs).pop().flatten();
            reads += 1;
        }
        self.db.mvcc.metrics.snapshot_reads.add(reads);
        Ok(out)
    }

    fn fetch_order(&self, oids: &[Oid]) -> Option<Vec<u32>> {
        // Heap address order; objects with no stored record (foreign,
        // or deleted since the snapshot) go last.
        let mut rids: Vec<Option<Rid>> = vec![None; oids.len()];
        self.db.rt_read().directory.get_batch(oids, |i, rid| rids[i] = Some(rid));
        let mut order: Vec<u32> = (0..oids.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (rids[i as usize].is_none(), rids[i as usize], i));
        Some(order)
    }

    fn indexes(&self) -> Vec<IndexDef> {
        self.db.rt_read().indexes.read().iter().map(|i| i.def.clone()).collect()
    }

    fn index_stats(&self, id: u32) -> (usize, usize) {
        let rt = self.db.rt_read();
        let indexes = rt.indexes.read();
        indexes
            .iter()
            .find(|i| i.def.id == id)
            .map_or((0, 0), |i| (i.imp.len(), i.imp.distinct_keys()))
    }

    fn index_key_bounds(&self, id: u32) -> Option<(Value, Value)> {
        let rt = self.db.rt_read();
        let indexes = rt.indexes.read();
        indexes.iter().find(|i| i.def.id == id).and_then(|i| i.imp.key_bounds())
    }

    /// Indexes are maintained in place, so their entries are those of
    /// the newest write, committed or not. An object whose entries
    /// differ from the snapshot's was chained before its in-place write
    /// (stage before mutate), and its chain cannot settle while this
    /// view's snapshot is registered: the overlay of objects that moved
    /// since the snapshot, listed *after* the probe, covers everything
    /// the probe may have got wrong. Probe and listing share one gate
    /// guard, because rollback reverts in-place index state under the
    /// exclusive gate and then lets the writer's chain settle — between
    /// the two it would leave a stale entry that no chain accounts for.
    fn index_probe(
        &self,
        access: &AccessPath,
        scope: &[ClassId],
    ) -> DbResult<(Vec<Oid>, Vec<Oid>)> {
        let rt = self.db.rt_read();
        let (mut candidates, def) = {
            let indexes = rt.indexes.read();
            let inst = indexes
                .iter()
                .find(|i| Some(i.def.id) == access.index())
                .ok_or_else(|| DbError::Query(format!("no index for {access:?}")))?;
            (access.probe(inst, scope), inst.def.clone())
        };
        let overlay = self.overlay(&rt, &def, scope);
        if overlay.is_empty() {
            return Ok((candidates, overlay));
        }
        // An object without a chain (a nested root, or a rolled-back
        // writer's chain that settled since) is current: the directory
        // says whether it exists.
        let (recheck, gone): (Vec<Oid>, Vec<Oid>) = overlay
            .into_iter()
            .partition(|&oid| self.visible(&rt, oid, || rt.directory.contains(oid)));
        candidates.retain(|oid| gone.binary_search(oid).is_err());
        // Objects the probe missed follow its hits, in OID order.
        let mut missed = vec![true; recheck.len()];
        for oid in &candidates {
            if let Ok(i) = recheck.binary_search(oid) {
                missed[i] = false;
            }
        }
        candidates.extend(recheck.iter().zip(missed).filter(|(_, m)| *m).map(|(oid, _)| *oid));
        Ok((candidates, recheck))
    }
}

impl Database {
    /// Run `f` with the catalog and a record source reading at one
    /// committed snapshot, registered for the whole of `f` (so no
    /// version it needs is pruned); with `tx`, the source also sees
    /// that transaction's own uncommitted writes. The catalog read guard
    /// is held meanwhile: `f` must not take the catalog lock again.
    pub fn with_snapshot<R>(
        &self,
        tx: Option<&Tx>,
        f: impl FnOnce(&Catalog, &SourceView<'_>) -> R,
    ) -> R {
        let catalog = self.catalog.read();
        let snapshot = self.mvcc.begin_snapshot(tx.map_or(NO_READER, Tx::id));
        f(&catalog, &SourceView { db: self, catalog: &catalog, snapshot: &snapshot })
    }

    /// Re-materialize a foreign class's extent from its adapter.
    pub(crate) fn refresh_foreign_extent(
        &self,
        catalog: &Catalog,
        adapter: &str,
        class: ClassId,
    ) -> DbResult<()> {
        let adapters = self.adapters.read();
        let ad = adapters
            .get(adapter)
            .ok_or_else(|| DbError::Foreign(format!("no adapter `{adapter}`")))?;
        let resolved = catalog.resolve(class)?;
        let rows = ad.scan(&resolved.name)?;
        // Decode off-lock, then swap the store and extent in two short
        // critical sections (the foreign_store guard is a leaf — it is
        // dropped before the extent lock is touched).
        let mut extent = std::collections::BTreeSet::new();
        let mut fresh: Vec<(Oid, Arc<ObjectRecord>)> = Vec::with_capacity(rows.len());
        for row in rows {
            let serial = row.key & ((1u64 << 48) - 1);
            let oid = Oid::new(class, serial);
            let mut attrs: Vec<(u32, Value)> = Vec::with_capacity(row.attrs.len());
            for (name, value) in row.attrs {
                if let Some(attr) = resolved.attr(&name) {
                    attrs.push((attr.id, value));
                }
            }
            fresh.push((oid, Arc::new(ObjectRecord::new(oid, resolved.version, attrs))));
            extent.insert(oid);
        }
        let rt = self.rt_read();
        {
            let mut store = rt.foreign_store.write();
            // Replace the snapshot wholesale: foreign data is
            // snapshot-consistent.
            store.retain(|oid, _| oid.class() != class);
            for (oid, record) in fresh {
                store.insert(oid, record);
            }
        }
        rt.extents.replace(class, extent);
        Ok(())
    }
}
