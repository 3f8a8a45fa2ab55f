//! Tables, scans, indexes, and joins.

use crate::row::{decode_row, encode_row};
use orion_index::key::keyed;
use orion_index::{BTree, KeyVal};
use orion_storage::heap::Rid;
use orion_storage::{StorageEngine, TxnId};
use orion_types::{DbError, DbResult, PrimitiveType, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};

/// Identifier of a row within a table.
pub type RowId = u64;

/// A column declaration.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Column type (relational columns are primitive; references between
    /// tables are foreign-key *values*, resolved by joins — that is the
    /// point of the baseline).
    pub ty: PrimitiveType,
}

impl ColumnDef {
    /// Shorthand constructor.
    pub fn new(name: &str, ty: PrimitiveType) -> Self {
        ColumnDef { name: name.to_owned(), ty }
    }
}

#[derive(Debug)]
struct Table {
    columns: Vec<ColumnDef>,
    rows: HashMap<RowId, Rid>,
    next_row: RowId,
    /// column position → index over its values.
    indexes: HashMap<usize, BTree<KeyVal, Vec<RowId>>>,
}

impl Table {
    fn column_pos(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| DbError::Query(format!("no column `{name}`")))
    }
}

/// Which join algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// O(n·m) nested loops.
    NestedLoop,
    /// Outer scan + inner index probe (requires an index on the inner
    /// join column).
    IndexNestedLoop,
    /// Build a hash table on the inner side, probe with the outer.
    Hash,
}

/// The relational database: tables over a transactional storage engine.
pub struct RelDb {
    engine: StorageEngine,
    tables: Mutex<HashMap<String, Table>>,
}

impl RelDb {
    /// A fresh database with a buffer pool of `pool_pages` frames.
    pub fn new(pool_pages: usize) -> Self {
        RelDb { engine: StorageEngine::new(pool_pages), tables: Mutex::new(HashMap::new()) }
    }

    /// The underlying storage engine (I/O stats for experiments).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Begin a transaction.
    pub fn begin(&self) -> TxnId {
        self.engine.begin()
    }

    /// Commit a transaction.
    pub fn commit(&self, txn: TxnId) -> DbResult<()> {
        self.engine.commit(txn)
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, columns: Vec<ColumnDef>) -> DbResult<()> {
        let mut tables = self.tables.lock();
        if tables.contains_key(name) {
            return Err(DbError::AlreadyExists(format!("table `{name}`")));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(DbError::Query(format!("duplicate column `{}`", c.name)));
            }
        }
        tables.insert(
            name.to_owned(),
            Table { columns, rows: HashMap::new(), next_row: 1, indexes: HashMap::new() },
        );
        Ok(())
    }

    /// Create a B-tree index on one column, populated from current rows.
    pub fn create_index(&self, table: &str, column: &str) -> DbResult<()> {
        // Collect rows first (can't hold the table lock across reads).
        let rows = self.scan(table)?;
        let mut tables = self.tables.lock();
        let t = tables.get_mut(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
        let pos = t.column_pos(column)?;
        if t.indexes.contains_key(&pos) {
            return Err(DbError::AlreadyExists(format!("index on `{table}.{column}`")));
        }
        let mut tree: BTree<KeyVal, Vec<RowId>> = BTree::new();
        for (rowid, values) in rows {
            tree.entry(KeyVal(values[pos].clone())).or_default().push(rowid);
        }
        t.indexes.insert(pos, tree);
        Ok(())
    }

    fn check_types(t: &Table, values: &[Value]) -> DbResult<()> {
        if values.len() != t.columns.len() {
            return Err(DbError::Query(format!(
                "expected {} values, got {}",
                t.columns.len(),
                values.len()
            )));
        }
        for (c, v) in t.columns.iter().zip(values) {
            let ok = matches!(
                (c.ty, v),
                (_, Value::Null)
                    | (PrimitiveType::Int, Value::Int(_))
                    | (PrimitiveType::Float, Value::Float(_))
                    | (PrimitiveType::Float, Value::Int(_))
                    | (PrimitiveType::Bool, Value::Bool(_))
                    | (PrimitiveType::Str, Value::Str(_))
                    | (PrimitiveType::Blob, Value::Blob(_))
            );
            if !ok {
                return Err(DbError::Query(format!(
                    "value {v} does not fit column `{}` of type {}",
                    c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    /// Insert a row; returns its row id.
    pub fn insert(&self, txn: TxnId, table: &str, values: Vec<Value>) -> DbResult<RowId> {
        let mut tables = self.tables.lock();
        let t = tables.get_mut(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
        Self::check_types(t, &values)?;
        let rowid = t.next_row;
        t.next_row += 1;
        let rid = self.engine.insert(txn, &encode_row(rowid, &values), None)?;
        t.rows.insert(rowid, rid);
        for (pos, index) in t.indexes.iter_mut() {
            index.entry(KeyVal(values[*pos].clone())).or_default().push(rowid);
        }
        Ok(rowid)
    }

    /// Fetch one row by id.
    pub fn get(&self, table: &str, rowid: RowId) -> DbResult<Vec<Value>> {
        let rid = {
            let tables = self.tables.lock();
            let t = tables.get(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
            *t.rows
                .get(&rowid)
                .ok_or_else(|| DbError::Query(format!("no row {rowid} in `{table}`")))?
        };
        let bytes = self.engine.read(rid)?;
        Ok(decode_row(&bytes)?.1)
    }

    /// Update one row in place.
    pub fn update(&self, txn: TxnId, table: &str, rowid: RowId, values: Vec<Value>) -> DbResult<()> {
        let old = self.get(table, rowid)?;
        let mut tables = self.tables.lock();
        let t = tables.get_mut(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
        Self::check_types(t, &values)?;
        let rid = *t.rows.get(&rowid).expect("checked by get above");
        let new_rid = self.engine.update(txn, rid, &encode_row(rowid, &values))?;
        t.rows.insert(rowid, new_rid);
        for (pos, index) in t.indexes.iter_mut() {
            let old_key = KeyVal(old[*pos].clone());
            if let Some(list) = index.get_mut(&old_key) {
                list.retain(|r| *r != rowid);
                if list.is_empty() {
                    index.remove(&old_key);
                }
            }
            index.entry(KeyVal(values[*pos].clone())).or_default().push(rowid);
        }
        Ok(())
    }

    /// Delete one row.
    pub fn delete(&self, txn: TxnId, table: &str, rowid: RowId) -> DbResult<()> {
        let old = self.get(table, rowid)?;
        let mut tables = self.tables.lock();
        let t = tables.get_mut(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
        let rid = t.rows.remove(&rowid).expect("checked by get above");
        self.engine.delete(txn, rid)?;
        for (pos, index) in t.indexes.iter_mut() {
            let key = KeyVal(old[*pos].clone());
            if let Some(list) = index.get_mut(&key) {
                list.retain(|r| *r != rowid);
                if list.is_empty() {
                    index.remove(&key);
                }
            }
        }
        Ok(())
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
        Ok(t.rows.len())
    }

    /// Full scan: every `(rowid, values)` in the table.
    pub fn scan(&self, table: &str) -> DbResult<Vec<(RowId, Vec<Value>)>> {
        let rids: Vec<(RowId, Rid)> = {
            let tables = self.tables.lock();
            let t =
                tables.get(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
            let mut v: Vec<(RowId, Rid)> = t.rows.iter().map(|(r, rid)| (*r, *rid)).collect();
            v.sort_unstable_by_key(|(r, _)| *r);
            v
        };
        let mut out = Vec::with_capacity(rids.len());
        for (rowid, rid) in rids {
            let bytes = self.engine.read(rid)?;
            out.push((rowid, decode_row(&bytes)?.1));
        }
        Ok(out)
    }

    /// Selection `column = key`, using an index when one exists.
    pub fn select_eq(&self, table: &str, column: &str, key: &Value) -> DbResult<Vec<(RowId, Vec<Value>)>> {
        let rowids: Option<Vec<RowId>> = {
            let tables = self.tables.lock();
            let t =
                tables.get(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
            let pos = t.column_pos(column)?;
            t.indexes.get(&pos).map(|idx| idx.get(&KeyVal(key.clone())).cloned().unwrap_or_default())
        };
        match rowids {
            Some(ids) => ids.into_iter().map(|r| Ok((r, self.get(table, r)?))).collect(),
            None => {
                let pos = {
                    let tables = self.tables.lock();
                    tables.get(table).unwrap().column_pos(column)?
                };
                Ok(self
                    .scan(table)?
                    .into_iter()
                    .filter(|(_, values)| values[pos].eq_total(key))
                    .collect())
            }
        }
    }

    /// Range selection `lower <= column <= upper` (index-assisted).
    pub fn select_range(
        &self,
        table: &str,
        column: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> DbResult<Vec<(RowId, Vec<Value>)>> {
        let pos;
        let bounds = (keyed(lower), keyed(upper));
        let rowids: Option<Vec<RowId>> = {
            let tables = self.tables.lock();
            let t =
                tables.get(table).ok_or_else(|| DbError::Query(format!("no table `{table}`")))?;
            pos = t.column_pos(column)?;
            t.indexes.get(&pos).map(|idx| {
                idx.range(bounds.0.as_ref(), bounds.1.as_ref())
                    .flat_map(|(_, list)| list.iter().copied())
                    .collect()
            })
        };
        match rowids {
            Some(ids) => ids.into_iter().map(|r| Ok((r, self.get(table, r)?))).collect(),
            None => Ok(self
                .scan(table)?
                .into_iter()
                .filter(|(_, values)| bounds.contains(&KeyVal(values[pos].clone())))
                .collect()),
        }
    }

    /// Equi-join `left.lcol = right.rcol` with the chosen algorithm.
    /// Returns pairs of full rows.
    pub fn join(
        &self,
        left: &str,
        lcol: &str,
        right: &str,
        rcol: &str,
        algo: JoinAlgo,
    ) -> DbResult<Vec<(Vec<Value>, Vec<Value>)>> {
        let lpos = {
            let tables = self.tables.lock();
            tables
                .get(left)
                .ok_or_else(|| DbError::Query(format!("no table `{left}`")))?
                .column_pos(lcol)?
        };
        let rpos = {
            let tables = self.tables.lock();
            tables
                .get(right)
                .ok_or_else(|| DbError::Query(format!("no table `{right}`")))?
                .column_pos(rcol)?
        };
        let outer = self.scan(left)?;
        let mut out = Vec::new();
        match algo {
            JoinAlgo::NestedLoop => {
                let inner = self.scan(right)?;
                for (_, lrow) in &outer {
                    for (_, rrow) in &inner {
                        if lrow[lpos].eq_total(&rrow[rpos]) && !lrow[lpos].is_null() {
                            out.push((lrow.clone(), rrow.clone()));
                        }
                    }
                }
            }
            JoinAlgo::IndexNestedLoop => {
                for (_, lrow) in &outer {
                    if lrow[lpos].is_null() {
                        continue;
                    }
                    for (_, rrow) in self.select_eq(right, rcol, &lrow[lpos])? {
                        out.push((lrow.clone(), rrow));
                    }
                }
            }
            JoinAlgo::Hash => {
                let inner = self.scan(right)?;
                let mut build: std::collections::BTreeMap<KeyVal, Vec<usize>> =
                    std::collections::BTreeMap::new();
                for (i, (_, rrow)) in inner.iter().enumerate() {
                    if !rrow[rpos].is_null() {
                        build.entry(KeyVal(rrow[rpos].clone())).or_default().push(i);
                    }
                }
                for (_, lrow) in &outer {
                    if lrow[lpos].is_null() {
                        continue;
                    }
                    if let Some(matches) = build.get(&KeyVal(lrow[lpos].clone())) {
                        for &i in matches {
                            out.push((lrow.clone(), inner[i].1.clone()));
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for RelDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelDb").field("tables", &self.tables.lock().len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RelDb {
        let db = RelDb::new(64);
        db.create_table(
            "company",
            vec![
                ColumnDef::new("id", PrimitiveType::Int),
                ColumnDef::new("name", PrimitiveType::Str),
                ColumnDef::new("location", PrimitiveType::Str),
            ],
        )
        .unwrap();
        db.create_table(
            "vehicle",
            vec![
                ColumnDef::new("id", PrimitiveType::Int),
                ColumnDef::new("weight", PrimitiveType::Int),
                ColumnDef::new("company_id", PrimitiveType::Int),
            ],
        )
        .unwrap();
        let txn = db.begin();
        db.insert(
            txn,
            "company",
            vec![Value::Int(1), Value::str("MotorCo"), Value::str("Detroit")],
        )
        .unwrap();
        db.insert(txn, "company", vec![Value::Int(2), Value::str("ChipCo"), Value::str("Austin")])
            .unwrap();
        for i in 1..=8i64 {
            db.insert(
                txn,
                "vehicle",
                vec![Value::Int(i), Value::Int(1000 * i), Value::Int(1 + (i % 2))],
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        db
    }

    #[test]
    fn create_insert_scan() {
        let db = sample();
        assert_eq!(db.row_count("vehicle").unwrap(), 8);
        let rows = db.scan("vehicle").unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].1[1], Value::Int(1000));
    }

    #[test]
    fn type_checking() {
        let db = sample();
        let txn = db.begin();
        assert!(db.insert(txn, "company", vec![Value::Int(3)]).is_err(), "arity");
        assert!(db
            .insert(txn, "company", vec![Value::str("x"), Value::Int(1), Value::Int(2)])
            .is_err());
        assert!(db
            .insert(txn, "company", vec![Value::Int(3), Value::Null, Value::Null])
            .is_ok(), "nulls allowed");
        db.commit(txn).unwrap();
    }

    #[test]
    fn select_with_and_without_index() {
        let db = sample();
        let unindexed = db.select_eq("vehicle", "weight", &Value::Int(4000)).unwrap();
        assert_eq!(unindexed.len(), 1);
        db.create_index("vehicle", "weight").unwrap();
        let indexed = db.select_eq("vehicle", "weight", &Value::Int(4000)).unwrap();
        assert_eq!(indexed, unindexed);
        let ranged = db
            .select_range(
                "vehicle",
                "weight",
                Bound::Included(&Value::Int(3000)),
                Bound::Excluded(&Value::Int(6000)),
            )
            .unwrap();
        assert_eq!(ranged.len(), 3);
        // An inverted pair selects nothing, with the index or without it.
        let (hi, lo) = (Value::Int(6000), Value::Int(3000));
        let inverted = |db: &RelDb| {
            db.select_range("vehicle", "weight", Bound::Included(&hi), Bound::Excluded(&lo))
                .unwrap()
        };
        assert!(inverted(&db).is_empty());
        assert!(inverted(&sample()).is_empty());
    }

    #[test]
    fn update_and_delete_maintain_indexes() {
        let db = sample();
        db.create_index("vehicle", "weight").unwrap();
        let txn = db.begin();
        let (rowid, mut row) = db.select_eq("vehicle", "weight", &Value::Int(2000)).unwrap()[0]
            .clone();
        row[1] = Value::Int(2500);
        db.update(txn, "vehicle", rowid, row).unwrap();
        assert!(db.select_eq("vehicle", "weight", &Value::Int(2000)).unwrap().is_empty());
        assert_eq!(db.select_eq("vehicle", "weight", &Value::Int(2500)).unwrap().len(), 1);
        db.delete(txn, "vehicle", rowid).unwrap();
        assert!(db.select_eq("vehicle", "weight", &Value::Int(2500)).unwrap().is_empty());
        assert_eq!(db.row_count("vehicle").unwrap(), 7);
        db.commit(txn).unwrap();
    }

    #[test]
    fn three_join_algorithms_agree() {
        let db = sample();
        db.create_index("company", "id").unwrap();
        let nl = db.join("vehicle", "company_id", "company", "id", JoinAlgo::NestedLoop).unwrap();
        let inl =
            db.join("vehicle", "company_id", "company", "id", JoinAlgo::IndexNestedLoop).unwrap();
        let hash = db.join("vehicle", "company_id", "company", "id", JoinAlgo::Hash).unwrap();
        assert_eq!(nl.len(), 8);
        let norm = |mut v: Vec<(Vec<Value>, Vec<Value>)>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        assert_eq!(norm(nl.clone()), norm(inl));
        assert_eq!(norm(nl), norm(hash));
    }

    #[test]
    fn figure1_query_relationally() {
        // The paper's query, as SQL would express it: one join + filters.
        let db = sample();
        db.create_index("company", "id").unwrap();
        let joined =
            db.join("vehicle", "company_id", "company", "id", JoinAlgo::IndexNestedLoop).unwrap();
        let hits: Vec<_> = joined
            .into_iter()
            .filter(|(v, c)| {
                v[1].as_int().unwrap() > 7500 && c[2].as_str() == Some("Detroit")
            })
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0[1], Value::Int(8000));
    }

    #[test]
    fn duplicate_table_and_missing_table_errors() {
        let db = sample();
        assert!(db.create_table("vehicle", vec![]).is_err());
        assert!(db.scan("nope").is_err());
        assert!(db.create_index("vehicle", "nope").is_err());
    }
}
