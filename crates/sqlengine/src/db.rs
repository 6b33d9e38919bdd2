//! `Database`: the SQLite-analog session facade over a Retro store.
//!
//! One `Database` owns one [`RetroStore`]. RQL uses two of them, exactly
//! as the paper describes (§3): the application data lives in a
//! *snapshotable* database, while `SnapIds` and result tables `T` live in
//! "a separate SQLite database … because it is a non-snapshotable
//! persistent table". Statements auto-commit unless bracketed by
//! `BEGIN`/`COMMIT`; `COMMIT WITH SNAPSHOT` declares a Retro snapshot;
//! `SELECT AS OF <sid>` executes over the snapshot's pages (including its
//! catalog).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use rql_pagestore::{IoStats, WriteTxn};
use rql_retro::{RetroConfig, RetroStore, SnapshotReader};

use crate::ast::{InsertSource, SelectStmt, Stmt};
use crate::cancel::CancelToken;
use crate::catalog::{Catalog, TableInfo};
use crate::cexpr::{compile, eval, Scope};
use crate::delta::DeltaTableScanner;
use crate::error::{Result, SqlError};
use crate::exec::{finish_select, run_select_cancellable, scan_select, QueryResult, Scanned};
use crate::exec_stats::ExecStats;
use crate::grouped::GroupTable;
use crate::heap::{FreeSpaceMap, RecordId};
use crate::pagesource::TxnSource;
use crate::parser::parse_statements;
use crate::record::{encode_row, Row};
use crate::schema::{ColumnType, IndexSchema, TableSchema};
use crate::sidecar::PredSummary;
use crate::tablewriter::{encode_key, TableIndexes};
use crate::udf::UdfRegistry;
use crate::value::Value;

/// Result of executing one statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// A query's rows (boxed: `QueryResult` dwarfs the other variants).
    Rows(Box<QueryResult>),
    /// DML row count.
    Affected(u64),
    /// `COMMIT WITH SNAPSHOT` declared this snapshot.
    SnapshotDeclared(u64),
    /// DDL or transaction control with nothing to report.
    Done,
}

impl ExecOutcome {
    /// The query result, if this outcome carries rows.
    pub fn rows(self) -> Option<QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Some(*r),
            _ => None,
        }
    }
}

/// A SQL database over a Retro snapshot store.
pub struct Database {
    store: Arc<RetroStore>,
    udfs: RwLock<UdfRegistry>,
    /// Open explicit transaction (`BEGIN` … `COMMIT`).
    open_txn: Mutex<Option<WriteTxn>>,
    /// Per-table free-space maps (keyed by heap root page id).
    fsms: Mutex<HashMap<u64, FreeSpaceMap>>,
    /// Cooperative interrupt flag (the `sqlite3_interrupt` analog):
    /// polled by the executor at scan/join checkpoints. Sticky until
    /// [`CancelToken::clear`]; shared with watchdogs via
    /// [`Database::cancel_token`].
    cancel: CancelToken,
}

impl Database {
    /// In-memory database (the benchmark and test configuration).
    pub fn in_memory(config: RetroConfig) -> Arc<Database> {
        Self::over_store(RetroStore::in_memory(config))
    }

    /// In-memory database with default configuration.
    pub fn default_in_memory() -> Arc<Database> {
        Self::in_memory(RetroConfig::new())
    }

    /// Wrap an existing store (used by recovery paths and tests).
    pub fn over_store(store: Arc<RetroStore>) -> Arc<Database> {
        let db = Database {
            store,
            udfs: RwLock::new(UdfRegistry::new()),
            open_txn: Mutex::new(None),
            fsms: Mutex::new(HashMap::new()),
            cancel: CancelToken::new(),
        };
        db.ensure_catalog();
        Arc::new(db)
    }

    /// The database's interrupt flag. Clone it into a watchdog or server
    /// cancel registry; tripping it unwinds any in-flight query on this
    /// database with `[RQL3xx] SqlError::Cancelled` at its next
    /// checkpoint. Call [`CancelToken::clear`] to run queries again.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    fn ensure_catalog(&self) {
        if self.store.pager().page_count() == 0 {
            let mut txn = self.store.begin().expect("no writer during init");
            Catalog::bootstrap(&mut txn).expect("catalog bootstrap");
            self.store.commit(txn).expect("catalog commit");
        }
    }

    /// Whether an explicit transaction (`BEGIN` without a matching
    /// `COMMIT`/`ROLLBACK`) is open. Servers use this to scope a global
    /// write lock to the whole transaction rather than one statement.
    pub fn has_open_txn(&self) -> bool {
        self.open_txn.lock().is_some()
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &Arc<RetroStore> {
        &self.store
    }

    /// Shared I/O counters.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.store.stats()
    }

    /// Register a scalar UDF (`sqlite3_create_function` analog).
    pub fn register_udf(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.udfs.write().register(name, f);
    }

    /// Execute a script of `;`-separated statements, returning the last
    /// statement's outcome.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        let stmts = parse_statements(sql)?;
        let mut last = ExecOutcome::Done;
        for stmt in &stmts {
            last = self.execute_stmt(stmt)?;
        }
        Ok(last)
    }

    /// Execute a single query and return its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        match self.execute(sql)? {
            ExecOutcome::Rows(r) => Ok(*r),
            _ => Err(SqlError::Invalid("statement returned no rows".into())),
        }
    }

    /// Run a query and return only its access-path decisions (one line
    /// per table). The query executes — plans are recorded during
    /// execution, which also makes them exact rather than estimated.
    pub fn explain(&self, sql: &str) -> Result<Vec<String>> {
        Ok(self.query(sql)?.plan)
    }

    /// `sqlite3_exec` analog: run a query, invoking `cb` for every row.
    pub fn query_with_callback(
        &self,
        sql: &str,
        mut cb: impl FnMut(&[String], &Row) -> Result<()>,
    ) -> Result<ExecStats> {
        let result = self.query(sql)?;
        for row in &result.rows {
            cb(&result.columns, row)?;
        }
        Ok(result.stats)
    }

    /// Execute one parsed statement.
    pub fn execute_stmt(&self, stmt: &Stmt) -> Result<ExecOutcome> {
        match stmt {
            Stmt::Select(select) => Ok(ExecOutcome::Rows(Box::new(
                self.run_select_dispatch(select)?,
            ))),
            Stmt::Begin => {
                let mut open = self.open_txn.lock();
                if open.is_some() {
                    return Err(SqlError::Invalid("transaction already open".into()));
                }
                *open = Some(self.store.begin()?);
                Ok(ExecOutcome::Done)
            }
            Stmt::Commit { with_snapshot } => {
                let txn = self
                    .open_txn
                    .lock()
                    .take()
                    .ok_or_else(|| SqlError::Invalid("no open transaction".into()))?;
                if *with_snapshot {
                    let sid = self.store.commit_with_snapshot(txn)?;
                    Ok(ExecOutcome::SnapshotDeclared(sid))
                } else {
                    self.store.commit(txn)?;
                    Ok(ExecOutcome::Done)
                }
            }
            Stmt::Rollback => {
                let txn = self
                    .open_txn
                    .lock()
                    .take()
                    .ok_or_else(|| SqlError::Invalid("no open transaction".into()))?;
                self.store.abort(txn);
                // Write-set state is gone; cached free-space maps may lie.
                self.fsms.lock().clear();
                Ok(ExecOutcome::Done)
            }
            other => self.execute_write(other),
        }
    }

    /// `COMMIT WITH SNAPSHOT` on an empty transaction — the paper's bare
    /// snapshot declaration (Figure 3 lines 1–2).
    pub fn declare_snapshot(&self) -> Result<u64> {
        let txn = self.store.begin()?;
        Ok(self.store.commit_with_snapshot(txn)?)
    }

    // ---- reads -----------------------------------------------------------

    fn run_select_dispatch(&self, select: &SelectStmt) -> Result<QueryResult> {
        let udfs = self.udfs.read().clone();
        let io_before = self.io_stats().snapshot();
        let mut result = match &select.as_of {
            Some(expr) => {
                let sid = self.eval_const_expr(expr)?;
                let Some(sid) = sid.as_i64() else {
                    return Err(SqlError::Invalid(format!(
                        "AS OF requires an integer snapshot id, got {sid}"
                    )));
                };
                let reader = self.store.open_snapshot(sid as u64)?;
                let scanned = self.scan_stage(&reader, select, None)?;
                self.finish_stage(select, scanned)?
            }
            None => {
                // Inside an open transaction, read through it (own writes
                // visible); otherwise pin a fresh MVCC view. The lock is
                // dropped before view execution so that UDFs invoked by
                // the query can re-enter the database (the RQL loop-body
                // pattern: `SELECT rql_udf(...) FROM SnapIds`).
                let open = self.open_txn.lock();
                if let Some(txn) = open.as_ref() {
                    let catalog = Catalog::load(txn)?;
                    let src = TxnSource::new(txn, &self.store);
                    run_select_cancellable(select, &src, &catalog, &udfs, Some(&self.cancel))?
                } else {
                    drop(open);
                    let view = self.store.current_view();
                    let catalog = Catalog::load(&view)?;
                    run_select_cancellable(select, &view, &catalog, &udfs, Some(&self.cancel))?
                }
            }
        };
        result.stats.io = self.io_stats().snapshot().delta(&io_before);
        result.stats.pages_pruned_filter = result.stats.io.pages_pruned;
        Ok(result)
    }

    /// Run a query over a specific snapshot without `AS OF` in the text
    /// (used by RQL's rewriter tests and the harness).
    pub fn query_as_of(&self, sid: u64, sql: &str) -> Result<QueryResult> {
        let stmts = parse_statements(sql)?;
        let [Stmt::Select(select)] = stmts.as_slice() else {
            return Err(SqlError::Invalid("expected a single SELECT".into()));
        };
        let mut with_as_of = select.clone();
        with_as_of.as_of = Some(crate::ast::Expr::int(sid as i64));
        self.run_select_dispatch(&with_as_of)
    }

    // ---- the two stages over a snapshot reader ----------------------------

    /// The scan stage of `select` over `reader` (see
    /// [`crate::exec::scan_select`]): `AS OF` is this with a fresh reader
    /// and no scanner; the RQL loop passes a reader of its snapshot chain
    /// and the scanner it keeps across iterations, and reads
    /// [`Scanned::delta`] to decide whether [`Self::finish_stage`] has to
    /// run. A reader from [`rql_retro::RetroStore::open_snapshot_chain`]
    /// carries a changed-page set; without one the scanner still works
    /// but rebuilds.
    pub fn scan_stage(
        &self,
        reader: &SnapshotReader,
        select: &SelectStmt,
        scanner: Option<&mut DeltaTableScanner>,
    ) -> Result<Scanned> {
        let udfs = self.udfs.read().clone();
        let io_before = self.io_stats().snapshot();
        let catalog = Catalog::load(reader)?;
        let cancel = Some(&self.cancel);
        let mut scanned = scan_select(select, reader, &catalog, &udfs, cancel, scanner)?;
        // Snapshot scans are the pruning workload: learn this query's
        // refutable columns so future commits (and a backfill now) carry
        // sidecars for them.
        if let Some((table, cols)) = scanned.refutable.take() {
            self.note_filter_cols(&table, &cols);
        }
        scanned.stats.spt_build = reader.build_stats().duration;
        scanned.stats.io = self.io_stats().snapshot().delta(&io_before);
        if scanned.delta.is_none() {
            scanned.stats.pages_pruned_filter = scanned.stats.io.pages_pruned;
        }
        Ok(scanned)
    }

    /// The finish stage over what [`Self::scan_stage`] produced: the
    /// query's result, with both stages' cost.
    pub fn finish_stage(&self, select: &SelectStmt, scanned: Scanned) -> Result<QueryResult> {
        self.finish_stage_grouped(select, scanned, None)
    }

    /// [`Self::finish_stage`], through a group table when given: the
    /// grouped delta finish the RQL loop keeps beside the scanner it
    /// offered [`Self::scan_stage`] (see [`GroupTable::finish`]).
    pub fn finish_stage_grouped(
        &self,
        select: &SelectStmt,
        scanned: Scanned,
        grouped: Option<&mut GroupTable>,
    ) -> Result<QueryResult> {
        let udfs = self.udfs.read().clone();
        let io_before = self.io_stats().snapshot();
        let mut result = match grouped {
            Some(groups) => groups.finish(select, scanned, &udfs)?,
            None => finish_select(select, scanned, &udfs)?,
        };
        let io = self.io_stats().snapshot().delta(&io_before);
        result.stats.io.accumulate(&io);
        Ok(result)
    }

    fn eval_const_expr(&self, expr: &crate::ast::Expr) -> Result<Value> {
        let udfs = self.udfs.read().clone();
        let compiled = compile(expr, &Scope::empty(), &udfs, None)?;
        eval(&compiled, &[], &[])
    }

    // ---- pruning sidecars ------------------------------------------------

    /// Declare the sidecar filter columns for `table` — the DDL-hint
    /// override. From the next commit on, written pages carry zone-map +
    /// bloom sidecars over these columns; current pages, and archived
    /// page versions a store opened from disk lost the sidecars of, are
    /// summarized immediately. Auto-inference stops touching a declared
    /// table. Returns how many current pages were summarized.
    pub fn declare_filter_columns(&self, table: &str, cols: &[&str]) -> Result<usize> {
        let view = self.store.current_view();
        let catalog = Catalog::load(&view)?;
        let info = catalog.require_table(table)?;
        let mut idx = Vec::with_capacity(cols.len());
        for c in cols {
            idx.push(info.schema.require_column(c)?);
        }
        self.add_filter_columns(&info.schema.name, &idx, true)
    }

    /// The filter columns currently driving sidecar builds for `table`
    /// (sorted table-local indices), or `None` when the table has no
    /// pruning configuration. The set belongs to the store, so every
    /// `Database` over it sees the same one.
    pub fn filter_columns(&self, table: &str) -> Option<Vec<usize>> {
        self.store.filter_columns(table)
    }

    /// Auto-inference: fold the refutable (`col ⋄ const`) columns of a
    /// single-table snapshot query or a DELETE/UPDATE into the table's
    /// filter set, unless it was explicitly declared.
    fn note_filter_cols(&self, table: &str, cols: &[usize]) {
        if !cols.is_empty() {
            let _ = self.add_filter_columns(table, cols, false);
        }
    }

    /// Fold `cols` into the store's filter set ([`RetroStore::add_filter_columns`]),
    /// installing the SQL layer's sidecar builder first if the store has
    /// none. A change re-summarizes the current pages of every table with
    /// filter columns (and archived versions when the column union grew),
    /// so pruning starts now rather than after the next rewrite of each
    /// page. Returns how many current pages were summarized.
    fn add_filter_columns(&self, table: &str, cols: &[usize], declare: bool) -> Result<usize> {
        if !self.store.sidecar_builder_active() {
            self.store
                .set_sidecar_builder(Arc::new(crate::sidecar::build_sidecar));
        }
        self.store
            .add_filter_columns(table, cols, declare, |view, tables, page| {
                let catalog = Catalog::load(view)?;
                for name in tables {
                    if let Some(info) = catalog.table(name) {
                        info.heap().for_each_page(view, &mut *page)?;
                    }
                }
                Ok(())
            })
    }

    // ---- writes ----------------------------------------------------------

    /// Public variant of the internal transaction wrapper for extension layers
    /// (the RQL mechanisms drive [`crate::tablewriter::TableWriter`]s
    /// through it).
    pub fn with_write_txn_pub<T>(
        &self,
        f: impl FnOnce(&Database, &mut WriteTxn) -> Result<T>,
    ) -> Result<T> {
        self.with_write_txn(f)
    }

    /// Run `f` against the open transaction, or an auto-commit one.
    fn with_write_txn<T>(
        &self,
        f: impl FnOnce(&Database, &mut WriteTxn) -> Result<T>,
    ) -> Result<T> {
        let mut open = self.open_txn.lock();
        match open.as_mut() {
            Some(txn) => f(self, txn),
            None => {
                drop(open);
                let mut txn = self.store.begin()?;
                match f(self, &mut txn) {
                    Ok(v) => {
                        self.store.commit(txn)?;
                        Ok(v)
                    }
                    Err(e) => {
                        self.store.abort(txn);
                        self.fsms.lock().clear();
                        Err(e)
                    }
                }
            }
        }
    }

    fn with_fsm<T>(
        &self,
        root: rql_pagestore::PageId,
        f: impl FnOnce(&mut FreeSpaceMap) -> Result<T>,
    ) -> Result<T> {
        let mut fsms = self.fsms.lock();
        let fsm = fsms.entry(root.0).or_default();
        f(fsm)
    }

    fn execute_write(&self, stmt: &Stmt) -> Result<ExecOutcome> {
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
                ..
            } => self.with_write_txn(|db, txn| {
                let schema =
                    TableSchema::new(name, columns.iter().map(|(n, t)| (n.clone(), *t)).collect());
                let existing = Catalog::load(&*txn)?;
                if existing.table(name).is_some() {
                    if *if_not_exists {
                        return Ok(ExecOutcome::Done);
                    }
                    return Err(SqlError::Constraint(format!("table {name} already exists")));
                }
                db.with_fsm(Catalog::ROOT, |fsm| {
                    Catalog::persist_table(txn, &schema, fsm)
                })?;
                Ok(ExecOutcome::Done)
            }),
            Stmt::CreateTableAs { name, select, .. } => self.create_table_as(name, select),
            Stmt::CreateIndex {
                name,
                table,
                columns,
            } => self.with_write_txn(|db, txn| {
                let schema = IndexSchema::new(name, table, columns.clone());
                let info = db.with_fsm(Catalog::ROOT, |fsm| {
                    Catalog::persist_index(txn, &schema, fsm)
                })?;
                // Backfill from existing rows.
                let catalog = Catalog::load(&*txn)?;
                let tinfo = catalog.require_table(table)?.clone();
                let key_cols: Vec<usize> = schema
                    .columns
                    .iter()
                    .map(|c| tinfo.schema.require_column(c))
                    .collect::<Result<_>>()?;
                let tree = crate::btree::BTree::new(info.root);
                let rows = tinfo.heap().all_rows(&*txn)?;
                let mut key = Vec::new();
                for (rid, row) in rows {
                    encode_key(&key_cols, &row, &mut key);
                    tree.insert(txn, &key, rid)?;
                }
                Ok(ExecOutcome::Done)
            }),
            Stmt::DropTable { name, if_exists } => self.with_write_txn(|db, txn| {
                let existing = Catalog::load(&*txn)?;
                if existing.table(name).is_none() {
                    if *if_exists {
                        return Ok(ExecOutcome::Done);
                    }
                    return Err(SqlError::Unknown(format!("table {name}")));
                }
                db.with_fsm(Catalog::ROOT, |fsm| Catalog::remove_table(txn, name, fsm))?;
                Ok(ExecOutcome::Done)
            }),
            Stmt::Insert {
                table,
                columns,
                source,
            } => self.insert(table, columns.as_deref(), source),
            Stmt::Delete {
                table,
                where_clause,
            } => self.delete(table, where_clause.as_ref()),
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => self.update(table, sets, where_clause.as_ref()),
            other => Err(SqlError::Invalid(format!(
                "statement not executable here: {other:?}"
            ))),
        }
    }

    fn create_table_as(&self, name: &str, select: &SelectStmt) -> Result<ExecOutcome> {
        // Evaluate the query first (it may carry AS OF), then materialize.
        let result = self.run_select_dispatch(select)?;
        self.with_write_txn(|db, txn| {
            let schema = TableSchema::new(
                name,
                result
                    .columns
                    .iter()
                    .map(|c| (c.clone(), ColumnType::Any))
                    .collect(),
            );
            let info = db.with_fsm(Catalog::ROOT, |fsm| {
                Catalog::persist_table(txn, &schema, fsm)
            })?;
            db.with_fsm(info.root, |fsm| {
                let heap = info.heap();
                let mut buf = Vec::new();
                for row in &result.rows {
                    buf.clear();
                    encode_row(row, &mut buf);
                    heap.insert(txn, &buf, fsm)?;
                }
                Ok(())
            })?;
            Ok(ExecOutcome::Affected(result.rows.len() as u64))
        })
    }

    fn insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
    ) -> Result<ExecOutcome> {
        // Materialize source rows first (INSERT…SELECT may read the table
        // being written; materializing gives SQLite's snapshot semantics).
        let input_rows: Vec<Row> = match source {
            InsertSource::Values(exprs) => {
                let mut rows = Vec::with_capacity(exprs.len());
                for row_exprs in exprs {
                    let mut row = Vec::with_capacity(row_exprs.len());
                    for e in row_exprs {
                        row.push(self.eval_const_expr(e)?);
                    }
                    rows.push(row);
                }
                rows
            }
            InsertSource::Select(select) => self.run_select_dispatch(select)?.rows,
        };
        self.with_write_txn(|db, txn| {
            let catalog = Catalog::load(&*txn)?;
            let info = catalog.require_table(table)?.clone();
            let arity = info.schema.arity();
            // Map provided columns to schema positions.
            let positions: Vec<usize> = match columns {
                Some(cols) => cols
                    .iter()
                    .map(|c| info.schema.require_column(c))
                    .collect::<Result<_>>()?,
                None => (0..arity).collect(),
            };
            let mut indexes = TableIndexes::resolve(&catalog, &info)?;
            let heap = info.heap();
            let mut count = 0u64;
            let mut buf = Vec::new();
            for input in &input_rows {
                if input.len() != positions.len() {
                    return Err(SqlError::Invalid(format!(
                        "expected {} values, got {}",
                        positions.len(),
                        input.len()
                    )));
                }
                let mut row = vec![Value::Null; arity];
                for (pos, v) in positions.iter().zip(input) {
                    row[*pos] = info.schema.columns[*pos].ty.coerce(v.clone());
                }
                buf.clear();
                encode_row(&row, &mut buf);
                let rid = db.with_fsm(info.root, |fsm| heap.insert(txn, &buf, fsm))?;
                indexes.replace(txn, None, Some((&row, rid)))?;
                count += 1;
            }
            Ok(ExecOutcome::Affected(count))
        })
    }

    fn delete(&self, table: &str, where_clause: Option<&crate::ast::Expr>) -> Result<ExecOutcome> {
        let udfs = self.udfs.read().clone();
        let (deleted, refutable) = self.with_write_txn(|db, txn| {
            let catalog = Catalog::load(&*txn)?;
            let info = catalog.require_table(table)?.clone();
            let mut indexes = TableIndexes::resolve(&catalog, &info)?;
            let heap = info.heap();
            let victims = db.victim_scan(txn, &info, where_clause, &udfs, indexes.key_columns())?;
            for (rid, row) in &victims.rows {
                db.with_fsm(info.root, |fsm| heap.delete(txn, *rid, fsm))?;
                indexes.replace(txn, Some((row, *rid)), None)?;
            }
            Ok((victims.rows.len(), victims.refutable))
        })?;
        self.note_filter_cols(table, &refutable);
        Ok(ExecOutcome::Affected(deleted as u64))
    }

    fn update(
        &self,
        table: &str,
        sets: &[(String, crate::ast::Expr)],
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<ExecOutcome> {
        let udfs = self.udfs.read().clone();
        let (updated, refutable) = self.with_write_txn(|db, txn| {
            let catalog = Catalog::load(&*txn)?;
            let info = catalog.require_table(table)?.clone();
            let mut indexes = TableIndexes::resolve(&catalog, &info)?;
            let heap = info.heap();
            let victims = db.victim_scan(txn, &info, where_clause, &udfs, std::iter::empty())?;
            let scope = table_scope(&info);
            let mut compiled_sets = Vec::with_capacity(sets.len());
            for (col, e) in sets {
                let pos = info.schema.require_column(col)?;
                compiled_sets.push((pos, compile(e, &scope, &udfs, None)?));
            }
            let mut buf = Vec::new();
            for (rid, _) in &victims.rows {
                // The scan decoded only what the WHERE reads; a SET may
                // read any column, and the new row is written whole.
                let old_row = heap.get_row(&*txn, *rid)?;
                let mut new_row = old_row.clone();
                for (pos, c) in &compiled_sets {
                    new_row[*pos] = info.schema.columns[*pos].ty.coerce(eval(c, &old_row, &[])?);
                }
                buf.clear();
                encode_row(&new_row, &mut buf);
                let new_rid = db.with_fsm(info.root, |fsm| heap.update(txn, *rid, &buf, fsm))?;
                indexes.replace(txn, Some((&old_row, *rid)), Some((&new_row, new_rid)))?;
            }
            Ok((victims.rows.len(), victims.refutable))
        })?;
        self.note_filter_cols(table, &refutable);
        Ok(ExecOutcome::Affected(updated as u64))
    }

    /// The one victim scan of DELETE and UPDATE: the rows of `info`'s
    /// table that `where_clause` selects, with their rids, in heap order.
    /// The WHERE is compiled once, and its `col ⋄ const` atoms let the
    /// walk skip every page the transaction has not touched whose current
    /// sidecar refutes them ([`TxnSource`]) — so a corrupt cell on a
    /// refuted page is never read, as for SELECT. Only the columns the
    /// WHERE names and `keep` lists are decoded; the rest are NULL.
    fn victim_scan(
        &self,
        txn: &WriteTxn,
        info: &TableInfo,
        where_clause: Option<&crate::ast::Expr>,
        udfs: &UdfRegistry,
        keep: impl Iterator<Item = usize>,
    ) -> Result<Victims> {
        let filter = where_clause
            .map(|w| compile(w, &table_scope(info), udfs, None))
            .transpose()?;
        let pred = PredSummary::from_conjuncts(&filter, 0);
        let mut offs: Vec<usize> = keep.collect();
        if let Some(f) = &filter {
            f.column_offsets(&mut offs);
        }
        let mut cols = vec![false; info.schema.arity()];
        for o in offs {
            cols[o] = true;
        }
        let mut rows = Vec::new();
        let src = TxnSource::new(txn, &self.store);
        info.heap().scan(&src, &pred, Some(&cols), |rid, row| {
            let selected = match &filter {
                Some(f) => eval(f, row, &[])?.is_truthy(),
                None => true,
            };
            if selected {
                rows.push((rid, row.clone()));
            }
            Ok(true)
        })?;
        Ok(Victims {
            rows,
            refutable: pred.columns(),
        })
    }

    /// Approximate on-disk size of a table in bytes (pages × page size),
    /// used for the paper's memory-footprint comparisons (§5.3).
    pub fn table_size_bytes(&self, table: &str) -> Result<u64> {
        let view = self.store.current_view();
        let catalog = Catalog::load(&view)?;
        let info = catalog.require_table(table)?;
        let pages = info.heap().page_count_chain(&view)?;
        Ok(pages * self.store.pager().config().page_size as u64)
    }

    /// Row count of a table (full scan).
    pub fn table_row_count(&self, table: &str) -> Result<u64> {
        let view = self.store.current_view();
        let catalog = Catalog::load(&view)?;
        let info = catalog.require_table(table)?;
        let mut n = 0u64;
        info.heap()
            .scan(&view, &PredSummary::default(), Some(&[]), |_, _| {
                n += 1;
                Ok(true)
            })?;
        Ok(n)
    }

    /// Schemas of every table in the current catalog, keyed by
    /// lowercase table name. Reads through an open transaction when one
    /// exists, mirroring the SELECT dispatch path. Used by the `rqlcheck`
    /// static analyzer to resolve names without opening snapshots.
    pub fn table_schemas(&self) -> Result<HashMap<String, TableSchema>> {
        let catalog = {
            let open = self.open_txn.lock();
            if let Some(txn) = open.as_ref() {
                Catalog::load(txn)?
            } else {
                drop(open);
                let view = self.store.current_view();
                Catalog::load(&view)?
            }
        };
        Ok(catalog
            .table_names()
            .into_iter()
            .filter_map(|name| {
                catalog
                    .table(&name)
                    .map(|info| (name.to_ascii_lowercase(), info.schema.clone()))
            })
            .collect())
    }

    /// Schemas of every table as of snapshot `sid` (for resolving
    /// programs whose Qq references tables since dropped from the
    /// current catalog).
    pub fn table_schemas_as_of(&self, sid: u64) -> Result<HashMap<String, TableSchema>> {
        let reader = self.store.open_snapshot(sid)?;
        let catalog = Catalog::load(&reader)?;
        Ok(catalog
            .table_names()
            .into_iter()
            .filter_map(|name| {
                catalog
                    .table(&name)
                    .map(|info| (name.to_ascii_lowercase(), info.schema.clone()))
            })
            .collect())
    }

    /// Names of all registered scalar UDFs (lowercase).
    pub fn udf_names(&self) -> Vec<String> {
        self.udfs.read().names()
    }

    /// Time a closure and a counter window together (harness helper).
    pub fn measure<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<(T, ExecStats)> {
        let before = self.io_stats().snapshot();
        let start = Instant::now();
        let v = f()?;
        let eval = start.elapsed();
        let io = self.io_stats().snapshot().delta(&before);
        Ok((
            v,
            ExecStats {
                eval,
                io,
                ..Default::default()
            },
        ))
    }
}

/// What the victim scan of a DELETE or UPDATE found.
struct Victims {
    /// The selected rows with their rids, decoded as far as the scan was
    /// asked to.
    rows: Vec<(RecordId, Row)>,
    /// The columns the WHERE's atoms constrain: what filter-column
    /// inference learns from the statement.
    refutable: Vec<usize>,
}

/// The scope of one table's rows, for a DML statement's expressions.
fn table_scope(info: &TableInfo) -> Scope {
    let mut scope = Scope::empty();
    scope.push(
        &info.schema.name,
        info.schema.columns.iter().map(|c| c.name.clone()).collect(),
    );
    scope
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("pages", &self.store.pager().page_count())
            .field("snapshots", &self.store.snapshot_count())
            .finish()
    }
}
