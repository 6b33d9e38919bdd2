//! Amortized row-level access to one table within one transaction.
//!
//! The RQL "loop body" processes every record the per-snapshot query Qq
//! returns: `CollateData` inserts each record into the result table,
//! `AggregateDataInTable` probes the result table's index and inserts or
//! updates (paper §3). At one call per record, going through SQL text
//! would re-parse and re-resolve the catalog a million times per
//! iteration; SQLite avoids that with prepared statements. The
//! [`TableWriter`] is the equivalent: catalog resolution, index handles
//! and the free-space map are resolved once, then rows are inserted,
//! probed and updated directly, all inside a single transaction.
//!
//! Many rows go in with one call ([`TableWriter::load`]): to the heap in
//! order, through the same insert as one at a time, so the heap pages
//! hold the same records in the same slots; an index still empty — the
//! result table the mechanism has just created — is then built bottom-up
//! from its sorted entries ([`BTree::build`]) rather than by one insert
//! per row, so none of its nodes is split.

use rql_pagestore::WriteTxn;

use crate::btree::BTree;
use crate::catalog::{Catalog, TableInfo};
use crate::db::Database;
use crate::error::{Result, SqlError};
use crate::heap::{FreeSpaceMap, HeapFile, RecordId};
use crate::record::{encode_index_key, encode_row, Row};
use crate::sidecar::PredSummary;
use crate::value::Value;

/// The native indexes of one table, kept in step with its heap rows:
/// every writer (SQL `INSERT`/`UPDATE`/`DELETE` and [`TableWriter`])
/// moves index entries through [`TableIndexes::replace`].
pub(crate) struct TableIndexes {
    indexes: Vec<TableIndex>,
    old_key: Vec<u8>,
    new_key: Vec<u8>,
}

struct TableIndex {
    name: String,
    tree: BTree,
    /// Key column positions in the table's rows.
    cols: Vec<usize>,
}

impl TableIndexes {
    /// Every index the catalog holds on `info`'s table.
    pub(crate) fn resolve(catalog: &Catalog, info: &TableInfo) -> Result<Self> {
        let mut indexes = Vec::new();
        for idx in catalog.indexes_on(&info.schema.name) {
            let cols: Vec<usize> = idx
                .schema
                .columns
                .iter()
                .map(|c| info.schema.require_column(c))
                .collect::<Result<_>>()?;
            indexes.push(TableIndex {
                name: idx.schema.name.clone(),
                tree: BTree::new(idx.root),
                cols,
            });
        }
        Ok(TableIndexes {
            indexes,
            old_key: Vec::new(),
            new_key: Vec::new(),
        })
    }

    /// Every column some index keys on: all [`TableIndexes::replace`]
    /// reads of a row.
    pub(crate) fn key_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.indexes.iter().flat_map(|idx| idx.cols.iter().copied())
    }

    /// Move a row's entry in every index from `old` to `new`, each a row
    /// with its rid: `old` is `None` for an inserted row, `new` for a
    /// deleted one. An index whose key is unchanged for an unchanged rid
    /// is not touched. An old entry the index does not hold is an error
    /// naming the index and rid: the index disagrees with the heap.
    pub(crate) fn replace(
        &mut self,
        txn: &mut WriteTxn,
        old: Option<(&Row, RecordId)>,
        new: Option<(&Row, RecordId)>,
    ) -> Result<()> {
        for idx in &self.indexes {
            if let Some((row, _)) = old {
                encode_key(&idx.cols, row, &mut self.old_key);
            }
            if let Some((row, _)) = new {
                encode_key(&idx.cols, row, &mut self.new_key);
            }
            if let (Some((_, from)), Some((_, to))) = (old, new) {
                if from == to && self.old_key == self.new_key {
                    continue;
                }
            }
            if let Some((_, rid)) = old {
                if !idx.tree.delete(txn, &self.old_key, rid)? {
                    return Err(SqlError::Invalid(format!(
                        "index {} has no entry for the row at page {} slot {}",
                        idx.name, rid.page.0, rid.slot
                    )));
                }
            }
            if let Some((_, rid)) = new {
                idx.tree.insert(txn, &self.new_key, rid)?;
            }
        }
        Ok(())
    }
}

/// The index key of `row` over columns `cols`, into `out`.
pub(crate) fn encode_key(cols: &[usize], row: &Row, out: &mut Vec<u8>) {
    out.clear();
    for &c in cols {
        encode_index_key(std::slice::from_ref(&row[c]), out);
    }
}

/// Row-level writer over one table, valid for one transaction.
pub struct TableWriter<'a> {
    txn: &'a mut WriteTxn,
    info: TableInfo,
    heap: HeapFile,
    indexes: TableIndexes,
    fsm: FreeSpaceMap,
    buf: Vec<u8>,
    inserted: u64,
    updated: u64,
}

impl<'a> TableWriter<'a> {
    pub(crate) fn new(txn: &'a mut WriteTxn, catalog: &Catalog, table: &str) -> Result<Self> {
        let info = catalog.require_table(table)?.clone();
        let indexes = TableIndexes::resolve(catalog, &info)?;
        let heap = info.heap();
        Ok(TableWriter {
            txn,
            info,
            heap,
            indexes,
            fsm: FreeSpaceMap::new(),
            buf: Vec::new(),
            inserted: 0,
            updated: 0,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &crate::schema::TableSchema {
        &self.info.schema
    }

    /// Insert a row (column affinity applied), maintaining all indexes.
    pub fn insert(&mut self, mut row: Row) -> Result<RecordId> {
        let rid = self.insert_heap(&mut row)?;
        self.indexes.replace(self.txn, None, Some((&row, rid)))?;
        Ok(rid)
    }

    /// Insert `rows` in order: each goes to the heap as [`Self::insert`]
    /// puts it there, and every index still empty — the table was just
    /// created — is then built from all their entries at once
    /// ([`BTree::build`]). An index that already holds entries takes them
    /// one insert at a time.
    pub fn load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let mut entries: Vec<Vec<(Vec<u8>, RecordId)>> =
            vec![Vec::new(); self.indexes.indexes.len()];
        for mut row in rows {
            let rid = self.insert_heap(&mut row)?;
            for (idx, entries) in self.indexes.indexes.iter().zip(&mut entries) {
                let mut key = Vec::new();
                encode_key(&idx.cols, &row, &mut key);
                entries.push((key, rid));
            }
        }
        for (idx, entries) in self.indexes.indexes.iter().zip(entries) {
            if idx.tree.is_empty(&*self.txn)? {
                idx.tree.build(self.txn, entries)?;
                continue;
            }
            for (key, rid) in entries {
                idx.tree.insert(self.txn, &key, rid)?;
            }
        }
        Ok(())
    }

    /// Put `row` (column affinity applied) into the heap, and count it.
    fn insert_heap(&mut self, row: &mut Row) -> Result<RecordId> {
        if row.len() != self.info.schema.arity() {
            return Err(SqlError::Invalid(format!(
                "row arity {} does not match table {} ({})",
                row.len(),
                self.info.schema.name,
                self.info.schema.arity()
            )));
        }
        for (v, col) in row.iter_mut().zip(&self.info.schema.columns) {
            let coerced = col.ty.coerce(v.clone());
            *v = coerced;
        }
        self.buf.clear();
        encode_row(row, &mut self.buf);
        let rid = self.heap.insert(self.txn, &self.buf, &mut self.fsm)?;
        self.inserted += 1;
        Ok(rid)
    }

    /// Probe index `index_no` (position in [`Self::index_count`] order)
    /// for rows whose key columns equal `key`. Returns `(rid, row)` pairs.
    pub fn probe(&self, index_no: usize, key: &[Value]) -> Result<Vec<(RecordId, Row)>> {
        let TableIndex { tree, cols, .. } = self
            .indexes
            .indexes
            .get(index_no)
            .ok_or_else(|| SqlError::Invalid(format!("no index #{index_no}")))?;
        if key.len() > cols.len() {
            return Err(SqlError::Invalid("probe key longer than index".into()));
        }
        let mut encoded = Vec::new();
        encode_index_key(key, &mut encoded);
        let mut out = Vec::new();
        for rid in tree.scan_prefix(&*self.txn, &encoded)? {
            let row = self.heap.get_row(&*self.txn, rid)?;
            // Re-verify (the numeric key space conflates 1 and 1.0 on
            // purpose; equality is re-checked on the real values).
            let matches = key.iter().zip(cols).all(|(k, &c)| {
                row[c].sql_cmp(k) == Some(std::cmp::Ordering::Equal)
                    || (row[c].is_null() && k.is_null())
            });
            if matches {
                out.push((rid, row));
            }
        }
        Ok(out)
    }

    /// Replace the row at `rid` (whose current content is `old_row`),
    /// maintaining indexes. Returns the row's new location: `rid` itself
    /// when the new row fits the old one's cell.
    pub fn update(&mut self, rid: RecordId, old_row: &Row, mut new_row: Row) -> Result<RecordId> {
        for (v, col) in new_row.iter_mut().zip(&self.info.schema.columns) {
            let coerced = col.ty.coerce(v.clone());
            *v = coerced;
        }
        self.buf.clear();
        encode_row(&new_row, &mut self.buf);
        let new_rid = self.heap.update(self.txn, rid, &self.buf, &mut self.fsm)?;
        self.indexes
            .replace(self.txn, Some((old_row, rid)), Some((&new_row, new_rid)))?;
        self.updated += 1;
        Ok(new_rid)
    }

    /// All rows of the table, as `(rid, row)` pairs (full scan; used for
    /// tiny tables like a persisted aggregate variable).
    pub fn probe_all(&self) -> Result<Vec<(RecordId, Row)>> {
        let mut out = Vec::new();
        self.heap
            .scan(&*self.txn, &PredSummary::default(), None, |rid, row| {
                out.push((rid, row.clone()));
                Ok(true)
            })?;
        Ok(out)
    }

    /// Number of indexes available to [`Self::probe`].
    pub fn index_count(&self) -> usize {
        self.indexes.indexes.len()
    }

    /// Rows inserted through this writer.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Rows updated through this writer.
    pub fn updated(&self) -> u64 {
        self.updated
    }
}

impl Database {
    /// Run `f` with a [`TableWriter`] over `table`, inside the open
    /// transaction if one exists, else an auto-commit transaction.
    pub fn with_table_writer<T>(
        &self,
        table: &str,
        f: impl FnOnce(&mut TableWriter) -> Result<T>,
    ) -> Result<T> {
        self.with_write_txn_pub(|_, txn| {
            let catalog = Catalog::load(&*txn)?;
            let mut writer = TableWriter::new(txn, &catalog, table)?;
            f(&mut writer)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> std::sync::Arc<Database> {
        Database::default_in_memory()
    }

    #[test]
    fn insert_probe_update_roundtrip() {
        let db = db();
        db.execute("CREATE TABLE r (grp TEXT, cnt INTEGER)")
            .unwrap();
        db.execute("CREATE INDEX r_grp ON r (grp)").unwrap();
        db.with_table_writer("r", |w| {
            assert_eq!(w.index_count(), 1);
            w.insert(vec![Value::text("a"), Value::Integer(1)])?;
            w.insert(vec![Value::text("b"), Value::Integer(2)])?;
            // Probe and update "a".
            let hits = w.probe(0, &[Value::text("a")])?;
            assert_eq!(hits.len(), 1);
            let (rid, old) = hits.into_iter().next().unwrap();
            let mut new_row = old.clone();
            new_row[1] = Value::Integer(10);
            w.update(rid, &old, new_row)?;
            // Probe again through the maintained index.
            let hits = w.probe(0, &[Value::text("a")])?;
            assert_eq!(hits[0].1[1], Value::Integer(10));
            assert_eq!(w.inserted(), 2);
            assert_eq!(w.updated(), 1);
            Ok(())
        })
        .unwrap();
        // Visible through SQL afterwards.
        let r = db.query("SELECT cnt FROM r WHERE grp = 'a'").unwrap();
        assert_eq!(r.rows[0][0], Value::Integer(10));
    }

    #[test]
    fn update_touches_an_index_only_when_its_key_moves() {
        let db = db();
        db.execute("CREATE TABLE r (grp TEXT, cnt INTEGER)")
            .unwrap();
        db.execute("CREATE INDEX r_grp ON r (grp)").unwrap();
        db.execute("INSERT INTO r VALUES ('a', 1), ('b', 2)")
            .unwrap();
        let index_root = {
            let view = db.store().current_view();
            Catalog::load(&view).unwrap().indexes_on("r")[0].root
        };
        db.with_table_writer("r", |w| {
            let (rid, old) = w.probe(0, &[Value::text("a")])?.remove(0);
            let new_row = vec![Value::text("a"), Value::Integer(7)];
            assert_eq!(w.update(rid, &old, new_row)?, rid, "fits its cell");
            let staged: Vec<_> = w.txn.staged_pages().map(|(pid, _)| pid).collect();
            assert!(!staged.contains(&index_root), "same key, same rid");

            let (rid, old) = w.probe(0, &[Value::text("b")])?.remove(0);
            w.update(rid, &old, vec![Value::text("c"), Value::Integer(2)])?;
            assert!(w.probe(0, &[Value::text("b")])?.is_empty());
            assert_eq!(w.probe(0, &[Value::text("c")])?[0].1[1], Value::Integer(2));
            Ok(())
        })
        .unwrap();
    }

    /// An index entry the heap row should have but does not is reported
    /// by the statement that needs it, which then changes nothing.
    #[test]
    fn missing_index_entry_is_an_error() {
        let db = db();
        db.execute("CREATE TABLE r (k INTEGER, v TEXT)").unwrap();
        db.execute("CREATE INDEX r_k ON r (k)").unwrap();
        db.execute("INSERT INTO r VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        db.with_write_txn_pub(|_, txn| {
            let catalog = Catalog::load(&*txn)?;
            let info = catalog.require_table("r")?.clone();
            let (rid, row) = info.heap().all_rows(&*txn)?.remove(0);
            let mut key = Vec::new();
            encode_key(&[0], &row, &mut key);
            let tree = BTree::new(catalog.indexes_on("r")[0].root);
            assert!(tree.delete(txn, &key, rid)?);
            Ok(())
        })
        .unwrap();
        let before = db.query("SELECT k, v FROM r ORDER BY k").unwrap().rows;
        for sql in [
            "UPDATE r SET k = 10 WHERE k = 1",
            "DELETE FROM r WHERE k = 1",
        ] {
            match db.execute(sql) {
                Err(SqlError::Invalid(msg)) => {
                    assert!(msg.starts_with("index r_k has no entry"), "{sql}: {msg}");
                }
                other => panic!("{sql}: {other:?}"),
            }
            assert!(!db.has_open_txn());
            let after = db.query("SELECT k, v FROM r ORDER BY k").unwrap().rows;
            assert_eq!(after, before, "{sql} changed the table");
        }
    }

    /// A load builds the index it finds empty and inserts into the one it
    /// finds filled; either way every row is found through it.
    #[test]
    fn load_builds_an_empty_index_and_inserts_into_a_filled_one() {
        let db = db();
        db.execute("CREATE TABLE r (k INTEGER, v TEXT)").unwrap();
        db.execute("CREATE INDEX r_k ON r (k)").unwrap();
        let rows = |from: i64| {
            (from..from + 300).map(|k| vec![Value::Integer(k % 50), Value::text(format!("v-{k}"))])
        };
        db.with_table_writer("r", |w| w.load(rows(0))).unwrap();
        db.with_table_writer("r", |w| w.load(rows(300))).unwrap();
        let view = db.store().current_view();
        let tree = BTree::new(Catalog::load(&view).unwrap().indexes_on("r")[0].root);
        tree.check_canonical(&view).unwrap();
        assert_eq!(tree.len(&view).unwrap(), 600);
        for k in 0..50 {
            let sql = format!("SELECT COUNT(*) FROM r WHERE k = {k}");
            let result = db.query(&sql).unwrap();
            assert_eq!(result.plan, vec!["r: index scan via r_k"]);
            assert_eq!(result.scalar(), Some(&Value::Integer(12)), "{sql}");
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = db();
        db.execute("CREATE TABLE r (a INTEGER)").unwrap();
        let err = db.with_table_writer("r", |w| {
            w.insert(vec![Value::Integer(1), Value::Integer(2)])
        });
        assert!(err.is_err());
    }

    #[test]
    fn probe_without_index_rejected() {
        let db = db();
        db.execute("CREATE TABLE r (a INTEGER)").unwrap();
        let err = db.with_table_writer("r", |w| w.probe(0, &[Value::Integer(1)]));
        assert!(err.is_err());
    }

    #[test]
    fn affinity_applied_on_insert() {
        let db = db();
        db.execute("CREATE TABLE r (x REAL)").unwrap();
        db.with_table_writer("r", |w| {
            w.insert(vec![Value::Integer(3)])?;
            Ok(())
        })
        .unwrap();
        let r = db.query("SELECT x FROM r").unwrap();
        assert_eq!(r.rows[0][0], Value::Real(3.0));
    }

    #[test]
    fn error_aborts_autocommit_txn() {
        let db = db();
        db.execute("CREATE TABLE r (a INTEGER)").unwrap();
        let result: Result<()> = db.with_table_writer("r", |w| {
            w.insert(vec![Value::Integer(1)])?;
            Err(SqlError::Invalid("boom".into()))
        });
        assert!(result.is_err());
        assert_eq!(db.table_row_count("r").unwrap(), 0);
    }
}
