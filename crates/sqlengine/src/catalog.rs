//! The system catalog.
//!
//! The catalog is itself a heap table rooted at page 0, so a Retro
//! snapshot automatically captures it: "a persistent snapshot that
//! includes the state of the entire database (e.g., tables, indexes,
//! system catalogs)" (paper §2). `SELECT AS OF` therefore sees the schema
//! as it was at declaration time — tables or indexes created later simply
//! do not exist in the snapshot.
//!
//! Catalog rows: `(kind, name, table, root_page, columns)` where `kind` is
//! `"table"` or `"index"`, `root_page` is the object's root page id, and
//! `columns` serializes either the table schema or the index key columns.

use std::collections::HashMap;

use rql_pagestore::{PageId, WriteTxn};

use crate::error::{Result, SqlError};
use crate::heap::{FreeSpaceMap, HeapFile};
use crate::pagesource::PageSource;
use crate::record::encode_row;
use crate::schema::{IndexSchema, TableSchema};
use crate::sidecar::PredSummary;
use crate::value::Value;

/// A table known to the catalog.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Column schema.
    pub schema: TableSchema,
    /// Root page of the table's heap.
    pub root: PageId,
}

impl TableInfo {
    /// Heap accessor.
    pub fn heap(&self) -> HeapFile {
        HeapFile::new(self.root)
    }
}

/// An index known to the catalog.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// Key schema.
    pub schema: IndexSchema,
    /// Root page of the index B-tree.
    pub root: PageId,
}

/// Parsed catalog contents as of some page source.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableInfo>,
    indexes: HashMap<String, IndexInfo>,
}

impl Catalog {
    /// The catalog heap's fixed root page.
    pub const ROOT: PageId = PageId(0);

    /// Initialize the catalog heap in an empty database.
    pub fn bootstrap(txn: &mut WriteTxn) -> Result<()> {
        debug_assert_eq!(txn.page_count(), 0, "bootstrap requires empty database");
        let heap = HeapFile::create(txn)?;
        debug_assert_eq!(heap.root(), Self::ROOT);
        Ok(())
    }

    /// Load the catalog visible through `src`. An empty database (no
    /// pages) yields an empty catalog.
    pub fn load<S: PageSource>(src: &S) -> Result<Catalog> {
        let mut catalog = Catalog::default();
        if src.page_count() == 0 {
            return Ok(catalog);
        }
        let heap = HeapFile::new(Self::ROOT);
        heap.scan(src, &PredSummary::default(), None, |_, row| {
            catalog.add_row(row)?;
            Ok(true)
        })?;
        Ok(catalog)
    }

    fn add_row(&mut self, row: &[Value]) -> Result<()> {
        let get_text = |i: usize| -> Result<&str> {
            row.get(i)
                .and_then(Value::as_str)
                .ok_or_else(|| SqlError::Invalid("malformed catalog row".into()))
        };
        let kind = get_text(0)?.to_owned();
        let name = get_text(1)?.to_owned();
        let table = get_text(2)?.to_owned();
        let root = PageId(
            row.get(3)
                .and_then(Value::as_i64)
                .ok_or_else(|| SqlError::Invalid("malformed catalog root".into()))?
                as u64,
        );
        let columns = get_text(4)?.to_owned();
        match kind.as_str() {
            "table" => {
                let schema = TableSchema::columns_from_text(&name, &columns)?;
                self.tables.insert(name, TableInfo { schema, root });
            }
            "index" => {
                let cols = columns.split(',').map(str::to_owned).collect();
                let schema = IndexSchema::new(&name, &table, cols);
                self.indexes.insert(name, IndexInfo { schema, root });
            }
            k => {
                return Err(SqlError::Invalid(format!("unknown catalog kind {k}")));
            }
        }
        Ok(())
    }

    /// Look up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Look up a table, as a `Result`.
    pub fn require_table(&self, name: &str) -> Result<&TableInfo> {
        self.table(name)
            .ok_or_else(|| SqlError::Unknown(format!("table {name}")))
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Option<&IndexInfo> {
        self.indexes.get(&name.to_ascii_lowercase())
    }

    /// All indexes on `table`.
    pub fn indexes_on(&self, table: &str) -> Vec<&IndexInfo> {
        let lower = table.to_ascii_lowercase();
        let mut v: Vec<&IndexInfo> = self
            .indexes
            .values()
            .filter(|i| i.schema.table == lower)
            .collect();
        v.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));
        v
    }

    /// An index whose *first* key column is `column` of `table`, if any.
    pub fn index_on_column(&self, table: &str, column: &str) -> Option<&IndexInfo> {
        let col = column.to_ascii_lowercase();
        self.indexes_on(table)
            .into_iter()
            .find(|i| i.schema.columns.first() == Some(&col))
    }

    /// Table names in deterministic order.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Persist a new table: allocates its heap and writes the catalog row.
    /// The caller supplies the catalog heap's free-space map.
    pub fn persist_table(
        txn: &mut WriteTxn,
        schema: &TableSchema,
        catalog_fsm: &mut FreeSpaceMap,
    ) -> Result<TableInfo> {
        let existing = Catalog::load(txn)?;
        if existing.table(&schema.name).is_some() {
            return Err(SqlError::Constraint(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let heap = HeapFile::create(txn)?;
        let row = vec![
            Value::text("table"),
            Value::text(schema.name.clone()),
            Value::text(schema.name.clone()),
            Value::Integer(heap.root().0 as i64),
            Value::text(schema.columns_to_text()),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        HeapFile::new(Self::ROOT).insert(txn, &buf, catalog_fsm)?;
        Ok(TableInfo {
            schema: schema.clone(),
            root: heap.root(),
        })
    }

    /// Persist a new (empty) index; the caller populates it.
    pub fn persist_index(
        txn: &mut WriteTxn,
        schema: &IndexSchema,
        catalog_fsm: &mut FreeSpaceMap,
    ) -> Result<IndexInfo> {
        let existing = Catalog::load(txn)?;
        if existing.index(&schema.name).is_some() {
            return Err(SqlError::Constraint(format!(
                "index {} already exists",
                schema.name
            )));
        }
        let table = existing.require_table(&schema.table)?;
        for col in &schema.columns {
            table.schema.require_column(col)?;
        }
        let tree = crate::btree::BTree::create(txn)?;
        let row = vec![
            Value::text("index"),
            Value::text(schema.name.clone()),
            Value::text(schema.table.clone()),
            Value::Integer(tree.root().0 as i64),
            Value::text(schema.columns_to_text()),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        HeapFile::new(Self::ROOT).insert(txn, &buf, catalog_fsm)?;
        Ok(IndexInfo {
            schema: schema.clone(),
            root: tree.root(),
        })
    }

    /// Remove a table and its indexes from the catalog. Heap and index
    /// pages are not reclaimed (no global free list; documented in
    /// DESIGN.md).
    pub fn remove_table(
        txn: &mut WriteTxn,
        name: &str,
        catalog_fsm: &mut FreeSpaceMap,
    ) -> Result<()> {
        let lower = name.to_ascii_lowercase();
        let catalog_heap = HeapFile::new(Self::ROOT);
        let mut to_delete = Vec::new();
        catalog_heap.scan(txn, &PredSummary::default(), None, |rid, row| {
            let kind = row[0].as_str().unwrap_or("");
            let obj_name = row[1].as_str().unwrap_or("");
            let obj_table = row[2].as_str().unwrap_or("");
            if (kind == "table" && obj_name == lower) || (kind == "index" && obj_table == lower) {
                to_delete.push(rid);
            }
            Ok(true)
        })?;
        if to_delete.is_empty() {
            return Err(SqlError::Unknown(format!("table {name}")));
        }
        for rid in to_delete {
            catalog_heap.delete(txn, rid, catalog_fsm)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use rql_pagestore::{Pager, PagerConfig};
    use std::sync::Arc;

    fn pager() -> Arc<Pager> {
        Arc::new(Pager::new(PagerConfig {
            page_size: 512,
            cache_capacity: 16,
            wal_sync_on_commit: false,
        }))
    }

    fn orders_schema() -> TableSchema {
        TableSchema::new(
            "orders",
            vec![
                ("o_orderkey".into(), ColumnType::Integer),
                ("o_custkey".into(), ColumnType::Integer),
                ("o_totalprice".into(), ColumnType::Real),
            ],
        )
    }

    #[test]
    fn create_and_load_table() {
        let pager = pager();
        let mut txn = pager.begin_write().unwrap();
        Catalog::bootstrap(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let info = Catalog::persist_table(&mut txn, &orders_schema(), &mut fsm).unwrap();
        pager.commit(txn, None, |_, _| Ok(())).unwrap();

        let view = pager.view();
        let catalog = Catalog::load(&view).unwrap();
        let loaded = catalog.require_table("ORDERS").unwrap();
        assert_eq!(loaded.schema, orders_schema());
        assert_eq!(loaded.root, info.root);
        assert_eq!(catalog.table_count(), 1);
        assert_eq!(catalog.table_names(), vec!["orders"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let pager = pager();
        let mut txn = pager.begin_write().unwrap();
        Catalog::bootstrap(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        Catalog::persist_table(&mut txn, &orders_schema(), &mut fsm).unwrap();
        assert!(matches!(
            Catalog::persist_table(&mut txn, &orders_schema(), &mut fsm),
            Err(SqlError::Constraint(_))
        ));
    }

    #[test]
    fn create_index_and_lookup() {
        let pager = pager();
        let mut txn = pager.begin_write().unwrap();
        Catalog::bootstrap(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        Catalog::persist_table(&mut txn, &orders_schema(), &mut fsm).unwrap();
        let idx = IndexSchema::new("idx_cust", "orders", vec!["o_custkey".into()]);
        Catalog::persist_index(&mut txn, &idx, &mut fsm).unwrap();
        pager.commit(txn, None, |_, _| Ok(())).unwrap();

        let catalog = Catalog::load(&pager.view()).unwrap();
        assert!(catalog.index("IDX_CUST").is_some());
        assert_eq!(catalog.indexes_on("orders").len(), 1);
        assert!(catalog.index_on_column("orders", "o_custkey").is_some());
        assert!(catalog.index_on_column("orders", "o_orderkey").is_none());
    }

    #[test]
    fn index_on_unknown_column_rejected() {
        let pager = pager();
        let mut txn = pager.begin_write().unwrap();
        Catalog::bootstrap(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        Catalog::persist_table(&mut txn, &orders_schema(), &mut fsm).unwrap();
        let idx = IndexSchema::new("bad", "orders", vec!["nope".into()]);
        assert!(Catalog::persist_index(&mut txn, &idx, &mut fsm).is_err());
    }

    #[test]
    fn drop_table_removes_indexes_too() {
        let pager = pager();
        let mut txn = pager.begin_write().unwrap();
        Catalog::bootstrap(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        Catalog::persist_table(&mut txn, &orders_schema(), &mut fsm).unwrap();
        let idx = IndexSchema::new("idx_cust", "orders", vec!["o_custkey".into()]);
        Catalog::persist_index(&mut txn, &idx, &mut fsm).unwrap();
        Catalog::remove_table(&mut txn, "orders", &mut fsm).unwrap();
        let catalog = Catalog::load(&txn).unwrap();
        assert!(catalog.table("orders").is_none());
        assert!(catalog.index("idx_cust").is_none());
        assert!(Catalog::remove_table(&mut txn, "orders", &mut fsm).is_err());
    }

    #[test]
    fn empty_database_loads_empty_catalog() {
        let pager = pager();
        let catalog = Catalog::load(&pager.view()).unwrap();
        assert_eq!(catalog.table_count(), 0);
    }
}
