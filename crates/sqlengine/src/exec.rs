//! SELECT planning and execution.
//!
//! The planner is deliberately SQLite-shaped because the paper explains
//! RQL costs in terms of SQLite behaviour:
//!
//! * single-table equality predicates use a **native index** when one
//!   exists (Figure 9's "w/ index" case);
//! * an equi-join with no native index on the inner side builds an
//!   **ad-hoc hash index** over the inner table — the analog of SQLite's
//!   "automatic covering index", whose build time is reported separately
//!   in [`ExecStats::index_creation`] (the dominant bar of Figure 9's
//!   "w/o index" case);
//! * everything else is scan → filter → hash aggregate → sort.
//!
//! A `SELECT` runs in two stages, and [`run_select`] is nothing but
//! their composition: [`scan_select`] binds the tables, compiles the
//! WHERE/ON conjuncts once, picks the access paths and materializes the
//! joined, filtered rows; [`finish_select`] projects or aggregates,
//! de-duplicates, sorts and limits them. The RQL loop calls the stages
//! separately so it can look at the scan's row delta before deciding
//! whether the second stage has to run at all — through the same two
//! functions, so its output is the ordinary plan's, byte for byte.
//!
//! The scan stage decodes only the columns the statement reads and
//! streams the base scan through prebuilt join sides, so only joined,
//! filtered rows are materialized — and none when a delta scanner serves
//! the scan: the finish stage then reads the scanner's cached pages where
//! they lie ([`ScanRows`]). Result rows are delivered to a per-row
//! callback (the `sqlite3_exec` shape the RQL loop body uses).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt};
use crate::cancel::{CancelToken, CHECK_EVERY_ROWS};
use crate::catalog::{Catalog, IndexInfo, TableInfo};
use crate::cexpr::{compile, eval, AggFunc, AggSpec, CExpr, Scope};
use crate::delta::{DeltaScan, DeltaTableScanner, ScanPages};
use crate::error::{Result, SqlError};
use crate::exec_stats::ExecStats;
use crate::heap::HeapFile;
use crate::pagesource::PageSource;
use crate::record::{decode_row_into, encode_index_key, Row};
use crate::sidecar::PredSummary;
use crate::udf::UdfRegistry;
use crate::value::{GroupKey, Value};

/// A query's output.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
    /// Cost breakdown (I/O delta and SPT build filled by the caller).
    pub stats: ExecStats,
    /// Human-readable access-path decisions, one line per table, e.g.
    /// `"orders: seq scan"`, `"lineitem: index nested loop via idx_l"`.
    /// Tests and tooling assert planner behaviour through this.
    pub plan: Vec<String>,
}

impl QueryResult {
    /// First value of the first row, if any (for single-value queries).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// The scan stage's rows, in scan order: owned, or where a delta scanner
/// left them.
#[derive(Debug)]
pub enum ScanRows {
    /// The ordinary plan's fully joined and filtered rows; columns the
    /// statement does not read are NULL. When the finish stage reads no
    /// column (`COUNT(*)`, constant items), every row is empty: only
    /// their number means anything.
    Owned(Vec<Row>),
    /// A scanner-served scan's pages, shared with the scanner's cache:
    /// every row read in place, none copied. The rows hold every column
    /// the scan decoded, read by the finish stage or not.
    Pages(ScanPages),
}

impl ScanRows {
    /// Every row, in scan order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        let (owned, pages) = match self {
            ScanRows::Owned(rows) => (rows.as_slice(), &[][..]),
            ScanRows::Pages(pages) => (&[][..], pages.as_slice()),
        };
        owned
            .iter()
            .chain(pages.iter().flat_map(|(_, rows)| rows.iter()))
    }

    fn len(&self) -> usize {
        match self {
            ScanRows::Owned(rows) => rows.len(),
            ScanRows::Pages(pages) => pages.iter().map(|(_, rows)| rows.len()).sum(),
        }
    }
}

/// What the scan stage of a `SELECT` produced: the input of
/// [`finish_select`], plus what the stage decided on the way.
#[derive(Debug)]
pub struct Scanned {
    /// The filtered rows: [`ScanRows::Pages`] exactly when `delta` is
    /// set, else [`ScanRows::Owned`].
    pub rows: ScanRows,
    /// Access-path decisions so far (becomes [`QueryResult::plan`]).
    pub plan: Vec<String>,
    /// The base table's row delta against the offered scanner's previous
    /// scan, when the scanner served as the seq scan's row source. `None`
    /// when no scanner was offered or the plan had no use for one (it is
    /// then left invalidated).
    pub delta: Option<DeltaScan>,
    /// Cost so far: ad-hoc index builds, evaluation time and, with
    /// `delta`, the scanner's page counters.
    pub stats: ExecStats,
    /// For a single-table statement: the table and its (table-local)
    /// columns some conjunct compares to a constant — what a page sidecar
    /// could refute.
    pub(crate) refutable: Option<(String, Vec<usize>)>,
    pub(crate) scope: Scope,
    /// Bindings in the *written* FROM order, for wildcard expansion.
    pub(crate) written_bindings: Vec<(String, Vec<String>)>,
}

/// Run a `SELECT` over `src`. `catalog` must describe the same source
/// (i.e. be loaded through it, so AS OF sees the snapshot's schema).
pub fn run_select<S: PageSource>(
    select: &SelectStmt,
    src: &S,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<QueryResult> {
    run_select_cancellable(select, src, catalog, udfs, None)
}

/// [`run_select`] with a cooperative [`CancelToken`] polled at scan and
/// join checkpoints (every [`CHECK_EVERY_ROWS`] rows), so a long scan
/// unwinds with `SqlError::Cancelled` within one batch of a trip.
pub fn run_select_cancellable<S: PageSource>(
    select: &SelectStmt,
    src: &S,
    catalog: &Catalog,
    udfs: &UdfRegistry,
    cancel: Option<&CancelToken>,
) -> Result<QueryResult> {
    let scanned = scan_select(select, src, catalog, udfs, cancel, None)?;
    finish_select(select, scanned, udfs)
}

/// The scan stage: bind the tables, compile the conjuncts, compute the
/// columns the statement reads, pick the access paths and build the
/// joined, filtered row set. Columns the statement does not read are
/// NULL in its rows, and a finish stage that reads none gets empty rows.
///
/// An offered `scanner` stands in for the base table's heap when — and
/// only when — the plan is a plain seq scan of a single table whose
/// conjuncts call no UDF: it then serves the pages that did not change
/// since its previous scan from its cache, the rows stay on its pages
/// ([`ScanRows::Pages`]), and [`Scanned::delta`] carries the row delta.
/// Any other plan (index probe, join, UDF filter) runs exactly as it
/// would have without one, and the scanner is invalidated because it did
/// not observe this scan.
pub fn scan_select<S: PageSource>(
    select: &SelectStmt,
    src: &S,
    catalog: &Catalog,
    udfs: &UdfRegistry,
    cancel: Option<&CancelToken>,
    mut scanner: Option<&mut DeltaTableScanner>,
) -> Result<Scanned> {
    let started = Instant::now();
    if let Some(token) = cancel {
        token.check()?;
    }
    let mut index_creation = Duration::ZERO;
    let mut plan: Vec<String> = Vec::new();

    // ---- bind tables ---------------------------------------------------
    // For comma-joins, mimic SQLite's planner: tables whose join column
    // has a native index go last, so they become the inner (probed) side
    // of an index nested-loop instead of being scanned first. This is
    // what makes Figure 9's "w/ index" case skip the ad-hoc index build.
    let from_order = order_comma_join(select, catalog);
    let mut bindings: Vec<(String, TableInfo)> = Vec::new();
    for tref in from_order
        .iter()
        .copied()
        .chain(select.joins.iter().map(|j| &j.table))
    {
        let info = catalog.require_table(&tref.name)?.clone();
        bindings.push((tref.binding().to_ascii_lowercase(), info));
    }
    let mut scope = Scope::empty();
    let mut binding_ranges: Vec<(usize, usize)> = Vec::new(); // [start, end)
    for (alias, info) in &bindings {
        let cols: Vec<String> = info.schema.columns.iter().map(|c| c.name.clone()).collect();
        let start = scope.push(alias, cols);
        binding_ranges.push((start, scope.width()));
    }

    // ---- compile conjuncts ----------------------------------------------
    let mut ast_conjuncts: Vec<&Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        collect_conjuncts(w, &mut ast_conjuncts);
    }
    for j in &select.joins {
        collect_conjuncts(&j.on, &mut ast_conjuncts);
    }
    // (compiled conjunct, bindings needed before it can run)
    let mut conjuncts: Vec<(CExpr, usize)> = Vec::new();
    for c in ast_conjuncts {
        let compiled = compile(c, &scope, udfs, None)?;
        let mut offs = Vec::new();
        compiled.column_offsets(&mut offs);
        let need = offs
            .iter()
            .map(|&o| scope.binding_index_of_offset(o) + 1)
            .max()
            .unwrap_or(0);
        conjuncts.push((compiled, need));
    }
    let mut used = vec![false; conjuncts.len()];

    // Wildcards expand in the *written* FROM order, regardless of how the
    // planner reordered execution.
    let written_bindings: Vec<(String, Vec<String>)> = select
        .from
        .iter()
        .chain(select.joins.iter().map(|j| &j.table))
        .map(|tref| {
            let info = catalog.require_table(&tref.name)?;
            Ok((
                tref.binding().to_ascii_lowercase(),
                info.schema.columns.iter().map(|c| c.name.clone()).collect(),
            ))
        })
        .collect::<Result<_>>()?;
    let (read, finish) = read_columns(select, &written_bindings, &conjuncts, &scope, udfs);
    let cols = |k: usize| &read[binding_ranges[k].0..binding_ranges[k].1];
    // A finish stage that reads no column (COUNT(*), constant items) only
    // counts the rows: each is kept as an empty row.
    let copy = finish.contains(&true);

    // ---- build the joined row set ----------------------------------------
    // The base table's access path is chosen first, then every joined
    // table builds its inner side, then the base scan streams each kept
    // row through the chain of probes: only joined rows are materialized.
    let single_table = bindings.len() == 1;
    let mut rows: Vec<Row> = Vec::new();
    let mut served = None;
    let mut refutable = None;
    if bindings.is_empty() {
        rows.push(Vec::new()); // SELECT without FROM: one empty row
    } else {
        let base = plan_base_table(
            catalog,
            &bindings[0],
            binding_ranges[0],
            &conjuncts,
            &mut used,
            &mut plan,
            scanner.as_deref_mut().filter(|_| single_table),
        );
        let mut steps = Vec::with_capacity(bindings.len() - 1);
        for k in 1..bindings.len() {
            if let Some(token) = cancel {
                token.check()?;
            }
            steps.push(build_join_step(
                src,
                catalog,
                &bindings[k],
                binding_ranges[k],
                cols(k),
                &conjuncts,
                &mut used,
                &mut index_creation,
                &mut plan,
                cancel,
            )?);
        }
        if single_table {
            refutable = Some((bindings[0].1.schema.name.clone(), base.pred.columns()));
        }
        served = base.run(src, cols(0), &conjuncts, cancel, |row| {
            probe(&mut steps, src, &conjuncts, row, copy, &mut rows)
        })?;
    }
    let (rows, delta) = match served {
        // A served scan applied every conjunct (see `plan_base_table`).
        Some((delta, pages)) => (ScanRows::Pages(pages), Some(delta)),
        None => {
            if let Some(scanner) = scanner {
                scanner.invalidate();
            }
            // Any conjunct not yet applied (e.g. constant predicates).
            for (i, (c, _)) in conjuncts.iter().enumerate() {
                if !used[i] {
                    rows = filter_rows(rows, c)?;
                    used[i] = true;
                }
            }
            (ScanRows::Owned(rows), None)
        }
    };

    let stats = ExecStats {
        index_creation,
        eval: started.elapsed().saturating_sub(index_creation),
        pages_skipped_delta: delta.as_ref().map_or(0, |d| d.pages_skipped),
        pages_pruned_filter: delta.as_ref().map_or(0, |d| d.pages_pruned),
        delta_eligible: u64::from(delta.is_some()),
        ..Default::default()
    };
    Ok(Scanned {
        rows,
        plan,
        delta,
        stats,
        refutable,
        scope,
        written_bindings,
    })
}

/// The finish stage: wildcard expansion, projection or aggregation,
/// DISTINCT, ORDER BY and LIMIT (the last two inside the projection
/// stages, which append their own sort keys) over the scan stage's rows.
/// The time it takes is added to the scan stage's.
pub fn finish_select(
    select: &SelectStmt,
    scanned: Scanned,
    udfs: &UdfRegistry,
) -> Result<QueryResult> {
    let started = Instant::now();
    let Scanned {
        rows,
        plan,
        mut stats,
        scope,
        written_bindings,
        ..
    } = scanned;
    let items = expand_items(&select.items, &written_bindings, &scope)?;
    let is_aggregate = !select.group_by.is_empty()
        || items.iter().any(|(e, _)| e.contains_aggregate())
        || select.having.as_ref().is_some_and(Expr::contains_aggregate);

    let (columns, mut out_rows) = match rows {
        ScanRows::Owned(rows) if is_aggregate => run_aggregate(
            select,
            &items,
            rows.into_iter().map(Cow::Owned),
            &scope,
            udfs,
        )?,
        rows if is_aggregate => {
            run_aggregate(select, &items, rows.iter().map(Cow::Borrowed), &scope, udfs)?
        }
        rows => run_projection(select, &items, &rows, &scope, udfs)?,
    };

    if select.distinct {
        let mut seen: HashSet<GroupKey> = HashSet::with_capacity(out_rows.len());
        out_rows.retain(|r| seen.insert(GroupKey(r.clone())));
    }
    stats.eval += started.elapsed();
    stats.rows = out_rows.len() as u64;
    Ok(QueryResult {
        columns,
        rows: out_rows,
        stats,
        plan,
    })
}

/// Order the FROM tables of a comma-join: tables with a native index on
/// an equi-join column move to the back (inner/probed side). Explicit
/// `JOIN … ON` chains keep the written order.
fn order_comma_join<'a>(
    select: &'a SelectStmt,
    catalog: &Catalog,
) -> Vec<&'a crate::ast::TableRef> {
    let refs: Vec<&crate::ast::TableRef> = select.from.iter().collect();
    if refs.len() < 2 || !select.joins.is_empty() {
        return refs;
    }
    // Column = Column equality conjuncts at the AST level.
    let mut conjuncts = Vec::new();
    if let Some(w) = &select.where_clause {
        collect_conjuncts(w, &mut conjuncts);
    }
    let mut join_cols: Vec<(&Option<String>, &String)> = Vec::new();
    for c in &conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = c
        {
            if let (
                Expr::Column {
                    table: ta,
                    name: na,
                },
                Expr::Column {
                    table: tb,
                    name: nb,
                },
            ) = (&**lhs, &**rhs)
            {
                join_cols.push((ta, na));
                join_cols.push((tb, nb));
            }
        }
    }
    let has_probe_index = |tref: &crate::ast::TableRef| -> bool {
        let Some(info) = catalog.table(&tref.name) else {
            return false;
        };
        join_cols.iter().any(|(qual, col)| {
            let qual_ok = qual
                .as_deref()
                .is_none_or(|q| q.eq_ignore_ascii_case(tref.binding()));
            qual_ok
                && info.schema.column_index(col).is_some()
                && catalog.index_on_column(&info.schema.name, col).is_some()
        })
    };
    let (mut unindexed, indexed): (Vec<_>, Vec<_>) =
        refs.into_iter().partition(|t| !has_probe_index(t));
    if unindexed.is_empty() {
        // Every table is indexed; keep written order (first one scans).
        return indexed;
    }
    unindexed.extend(indexed);
    unindexed
}

/// Split nested ANDs into conjuncts.
fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = e
    {
        collect_conjuncts(lhs, out);
        collect_conjuncts(rhs, out);
    } else {
        out.push(e);
    }
}

/// The columns the statement reads, by joined-row offset, as
/// `(scan, finish)`. The finish set is what the finish stage reads: the
/// columns the select items, GROUP BY, HAVING, ORDER BY and aggregate
/// arguments resolve to through `scope` (`*` names every binding's, `t.*`
/// one binding's). The conjuncts the scan leaves unapplied belong there
/// too, but they name no column: the scan applies every conjunct that
/// does. The scan set adds the conjuncts' columns. An ORDER BY name that
/// resolves to no column is an output alias and reads nothing; any other
/// resolve error puts every column in both sets, leaving the error to the
/// finish stage. A column outside the scan set decodes as NULL and
/// nothing evaluates it.
fn read_columns(
    select: &SelectStmt,
    written_bindings: &[(String, Vec<String>)],
    conjuncts: &[(CExpr, usize)],
    scope: &Scope,
    udfs: &UdfRegistry,
) -> (Vec<bool>, Vec<bool>) {
    let mut offs = Vec::new();
    let mut finish_stage = || -> Result<()> {
        let items = expand_items(&select.items, written_bindings, scope)?;
        let mut aggs = Vec::new();
        let named = items.iter().map(|(e, _)| e);
        for e in named.chain(&select.group_by).chain(&select.having) {
            compile(e, scope, udfs, Some(&mut aggs))?.column_offsets(&mut offs);
        }
        for (e, _) in &select.order_by {
            match compile(e, scope, udfs, Some(&mut aggs)) {
                Ok(c) => c.column_offsets(&mut offs),
                Err(SqlError::Unknown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
            arg.column_offsets(&mut offs);
        }
        Ok(())
    };
    let mut finish = vec![finish_stage().is_err(); scope.width()];
    for &o in &offs {
        finish[o] = true;
    }
    offs.clear();
    for (c, _) in conjuncts {
        c.column_offsets(&mut offs);
    }
    let mut scan = finish.clone();
    for o in offs {
        scan[o] = true;
    }
    (scan, finish)
}

/// The base table's access path, chosen before any joined table builds
/// its inner side: the conjuncts it applies and how it reads rows.
struct BasePlan<'a> {
    info: &'a TableInfo,
    applicable: Vec<usize>,
    probe: Option<(&'a IndexInfo, Value)>,
    pred: PredSummary,
    scanner: Option<&'a mut DeltaTableScanner>,
}

/// Plan the first table's scan: its single-table conjuncts, and a native
/// index for an equality conjunct when possible. `scanner` is offered
/// only for a single-table statement; the seq-scan arm uses it as its row
/// source unless a conjunct calls a UDF. The conjuncts it applies are
/// marked used.
fn plan_base_table<'a>(
    catalog: &'a Catalog,
    binding: &'a (String, TableInfo),
    range: (usize, usize),
    conjuncts: &[(CExpr, usize)],
    used: &mut [bool],
    plan: &mut Vec<String>,
    scanner: Option<&'a mut DeltaTableScanner>,
) -> BasePlan<'a> {
    let (_, info) = binding;
    let mut applicable: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, (c, need))| !used[*i] && *need <= 1 && c.references_columns())
        .map(|(i, _)| i)
        .collect();

    // Equality probe through a native index?
    let mut probe: Option<(&IndexInfo, Value)> = None;
    for &i in &applicable {
        if let Some((off, v)) = equality_probe(&conjuncts[i].0) {
            let col = &info.schema.columns[off - range.0].name;
            if let Some(idx) = catalog.index_on_column(&info.schema.name, col) {
                probe = Some((idx, v));
                break;
            }
        }
    }
    // Refutable summary of the conjuncts this scan applies; the compiled
    // offsets are absolute, so rebase to the table's column range.
    // Sidecar-less sources prune nothing.
    let pred = PredSummary::from_conjuncts(applicable.iter().map(|&i| &conjuncts[i].0), range.0);
    // An index scan visits rows in key order, which a chain walk cannot
    // reproduce, and rows filtered through a UDF cannot be cached: the
    // UDF may answer differently next time.
    let scanner =
        scanner.filter(|_| probe.is_none() && conjuncts.iter().all(|(c, _)| !c.calls_udf()));
    if scanner.is_some() {
        // The statement has one table, so every conjunct — constant ones
        // included — is this scan's: the cached rows, and therefore the
        // row delta, are the statement's whole WHERE.
        applicable = (0..conjuncts.len()).collect();
    }
    let name = &info.schema.name;
    plan.push(match (&probe, &scanner) {
        (Some((idx, _)), _) => format!("{name}: index scan via {}", idx.schema.name),
        (None, Some(_)) => format!("{name}: delta seq scan"),
        (None, None) => format!("{name}: seq scan"),
    });
    for &i in &applicable {
        used[i] = true;
    }
    BasePlan {
        info,
        applicable,
        probe,
        pred,
        scanner,
    }
}

impl BasePlan<'_> {
    /// Scan the table, decoding the columns `cols` marks, and hand every
    /// row passing the applied conjuncts to `emit` — unless the offered
    /// scanner served the scan: then no row is handed over, and the row
    /// delta and the scanner's pages are returned instead.
    fn run<S: PageSource>(
        self,
        src: &S,
        cols: &[bool],
        conjuncts: &[(CExpr, usize)],
        cancel: Option<&CancelToken>,
        mut emit: impl FnMut(&Row) -> Result<()>,
    ) -> Result<Option<(DeltaScan, ScanPages)>> {
        let _span = rql_trace::span(rql_trace::SpanId::Scan);
        let heap = self.info.heap();
        let applicable = self.applicable;
        let mut checkpoint = Checkpoint::new(cancel);
        let mut keep = |row: &Row| -> Result<bool> {
            checkpoint.check()?;
            for &i in &applicable {
                if !eval(&conjuncts[i].0, row, &[])?.is_truthy() {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match (self.probe, self.scanner) {
            (Some((idx, v)), _) => {
                let mut key = Vec::new();
                encode_index_key(std::slice::from_ref(&v), &mut key);
                let tree = crate::btree::BTree::new(idx.root);
                let mut row = Row::new();
                for rid in tree.scan_prefix(src, &key)? {
                    decode_row_into(&heap.get(src, rid)?, Some(cols), &mut row)?;
                    if keep(&row)? {
                        emit(&row)?;
                    }
                }
                Ok(None)
            }
            (None, Some(scanner)) => {
                let root = self.info.root;
                Ok(Some(scanner.scan(src, root, &self.pred, cols, keep)?))
            }
            (None, None) => {
                heap.scan(src, &self.pred, Some(cols), |_, row| {
                    if keep(row)? {
                        emit(row)?;
                    }
                    Ok(true)
                })?;
                Ok(None)
            }
        }
    }
}

/// `Col(off) = <constant>` (either orientation) → `(off, value)`.
fn equality_probe(c: &CExpr) -> Option<(usize, Value)> {
    let CExpr::Binary(BinOp::Eq, lhs, rhs) = c else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (CExpr::Col(off), e) | (e, CExpr::Col(off)) if !e.references_columns() => {
            eval(e, &[], &[]).ok().map(|v| (*off, v))
        }
        _ => None,
    }
}

/// Row-batch cancellation checkpoint: polls the token once per
/// [`CHECK_EVERY_ROWS`] rows touched.
struct Checkpoint<'a> {
    cancel: Option<&'a CancelToken>,
    touched: usize,
}

impl<'a> Checkpoint<'a> {
    fn new(cancel: Option<&'a CancelToken>) -> Self {
        Checkpoint { cancel, touched: 0 }
    }

    fn check(&mut self) -> Result<()> {
        self.touched += 1;
        if self.touched.is_multiple_of(CHECK_EVERY_ROWS) {
            if let Some(token) = self.cancel {
                token.check()?;
            }
        }
        Ok(())
    }
}

/// One joined table: its inner side, built before the base scan, and
/// what each joined row must still pass.
struct JoinStep<'a> {
    /// The join key's prefix side, evaluated on each incoming row; `None`
    /// for a cross join.
    key: Option<CExpr>,
    inner: Inner,
    /// Linking conjuncts other than the join key, checked on every joined
    /// row.
    post: Vec<usize>,
    /// Shared by the build and every probe of this table.
    checkpoint: Checkpoint<'a>,
}

/// The prebuilt inner side of a [`JoinStep`].
enum Inner {
    /// The table's kept rows by join-key value: an ad-hoc hash index
    /// (SQLite's automatic covering index), or — for a cross join — every
    /// kept row under the empty key.
    Hash(HashMap<GroupKey, Vec<Row>>),
    /// Index nested loop through a native B-tree: each fetched row is
    /// decoded with `cols` and must pass `verify` — the table's local
    /// conjuncts, then the join key itself, since the index key space
    /// conflates 1 and 1.0.
    Index {
        tree: crate::btree::BTree,
        heap: HeapFile,
        cols: Vec<bool>,
        verify: Vec<usize>,
    },
}

/// Plan the next table's join and build its inner side, decoding the
/// columns `cols` marks: the ad-hoc hash index (timed into
/// `index_creation`), the native-index handle, or the filtered cross
/// list. The conjuncts the step applies are marked used.
#[allow(clippy::too_many_arguments)]
fn build_join_step<'a, S: PageSource>(
    src: &S,
    catalog: &Catalog,
    binding: &(String, TableInfo),
    range: (usize, usize),
    cols: &[bool],
    conjuncts: &[(CExpr, usize)],
    used: &mut [bool],
    index_creation: &mut Duration,
    plan: &mut Vec<String>,
    cancel: Option<&'a CancelToken>,
) -> Result<JoinStep<'a>> {
    let _span = rql_trace::span(rql_trace::SpanId::Join);
    let (_, info) = binding;
    let heap = info.heap();
    let prefix_width = range.0;
    let mut checkpoint = Checkpoint::new(cancel);

    // Conjuncts that are (newly) applicable once this table is bound:
    // unused, and every referenced offset is within the extended prefix.
    let new_conjuncts: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, (c, _))| {
            !used[*i] && c.references_columns() && {
                let mut offs = Vec::new();
                c.column_offsets(&mut offs);
                offs.iter().all(|&o| o < range.1)
            }
        })
        .map(|(i, _)| i)
        .collect();

    // Partition: conjuncts touching only this table vs. linking ones.
    let mut local: Vec<usize> = Vec::new();
    let mut linking: Vec<usize> = Vec::new();
    for &i in &new_conjuncts {
        let mut offs = Vec::new();
        conjuncts[i].0.column_offsets(&mut offs);
        if offs.iter().all(|&o| o >= range.0 && o < range.1) {
            local.push(i);
        } else {
            linking.push(i);
        }
    }

    // Find an equi-join among the linking conjuncts:
    // side A only in this table, side B only in the prefix.
    let mut equi: Option<(usize, CExpr, CExpr)> = None; // (conjunct, this-side, prefix-side)
    for &i in &linking {
        if let CExpr::Binary(BinOp::Eq, lhs, rhs) = &conjuncts[i].0 {
            let side = |e: &CExpr| -> Option<bool> {
                // Some(true) = all offsets in this table; Some(false) = all in prefix.
                let mut offs = Vec::new();
                e.column_offsets(&mut offs);
                if offs.is_empty() {
                    return None;
                }
                if offs.iter().all(|&o| o >= range.0 && o < range.1) {
                    Some(true)
                } else if offs.iter().all(|&o| o < prefix_width) {
                    Some(false)
                } else {
                    None
                }
            };
            match (side(lhs), side(rhs)) {
                (Some(true), Some(false)) => {
                    equi = Some((i, (**lhs).clone(), (**rhs).clone()));
                    break;
                }
                (Some(false), Some(true)) => {
                    equi = Some((i, (**rhs).clone(), (**lhs).clone()));
                    break;
                }
                _ => {}
            }
        }
    }

    // Native index on this table's join column?
    let native = equi.as_ref().and_then(|(_, this_side, _)| match this_side {
        CExpr::Col(off) => {
            let col = &info.schema.columns[*off - range.0].name;
            catalog.index_on_column(&info.schema.name, col)
        }
        _ => None,
    });
    if let Some((ci, ..)) = &equi {
        used[*ci] = true;
    }
    let name = &info.schema.name;
    let key = equi.as_ref().map(|(_, _, prefix_side)| prefix_side.clone());
    let inner = match (equi, native) {
        (Some((ci, ..)), Some(idx)) => {
            plan.push(format!("{name}: index nested loop via {}", idx.schema.name));
            Inner::Index {
                tree: crate::btree::BTree::new(idx.root),
                heap,
                cols: cols.to_vec(),
                verify: local.iter().copied().chain([ci]).collect(),
            }
        }
        (equi, _) => {
            let hashed = equi.is_some();
            plan.push(match hashed {
                true => format!("{name}: hash join (ad-hoc index build)"),
                false => format!("{name}: nested-loop cross join"),
            });
            let build_start = Instant::now();
            let _idx_span = hashed.then(|| rql_trace::span(rql_trace::SpanId::IndexBuild));
            let mut table: HashMap<GroupKey, Vec<Row>> = HashMap::new();
            // Local conjuncts and the key see the row padded out to
            // full-scope offsets.
            let mut padded = vec![Value::Null; prefix_width];
            heap.scan(src, &PredSummary::default(), Some(cols), |_, trow| {
                checkpoint.check()?;
                padded.truncate(prefix_width);
                padded.extend_from_slice(trow);
                for &i in &local {
                    if !eval(&conjuncts[i].0, &padded, &[])?.is_truthy() {
                        return Ok(true);
                    }
                }
                let key = match &equi {
                    Some((_, this_side, _)) => match eval(this_side, &padded, &[])? {
                        Value::Null => return Ok(true),
                        v => vec![v],
                    },
                    None => Vec::new(),
                };
                table.entry(GroupKey(key)).or_default().push(trow.clone());
                Ok(true)
            })?;
            if hashed {
                *index_creation += build_start.elapsed();
            }
            Inner::Hash(table)
        }
    };
    for &i in &local {
        used[i] = true;
    }
    // Remaining linking conjuncts filter every joined row.
    let post: Vec<usize> = linking.into_iter().filter(|&i| !used[i]).collect();
    for &i in &post {
        used[i] = true;
    }
    Ok(JoinStep {
        key,
        inner,
        post,
        checkpoint,
    })
}

/// Push one row of the bindings before `steps` through them: the first
/// step joins it with each matching inner row, and every joined row that
/// passes the step's checks goes on through the rest. Rows that come out
/// of the last step are appended to `out` — copied, or as empty rows
/// unless `copy` — in the order a join of the materialized prefix would
/// have produced them.
fn probe<S: PageSource>(
    steps: &mut [JoinStep<'_>],
    src: &S,
    conjuncts: &[(CExpr, usize)],
    row: &Row,
    copy: bool,
    out: &mut Vec<Row>,
) -> Result<()> {
    let Some((step, rest)) = steps.split_first_mut() else {
        out.push(if copy { row.clone() } else { Row::new() });
        return Ok(());
    };
    let JoinStep {
        key,
        inner,
        post,
        checkpoint,
    } = step;
    let key = match key {
        Some(key) => match eval(key, row, &[])? {
            Value::Null => return Ok(()),
            v => vec![v],
        },
        None => Vec::new(),
    };
    let mut join = |trow: &Row, verify: &[usize]| -> Result<()> {
        checkpoint.check()?;
        let mut joined = Vec::with_capacity(row.len() + trow.len());
        joined.extend_from_slice(row);
        joined.extend_from_slice(trow);
        for &i in verify.iter().chain(post.iter()) {
            if !eval(&conjuncts[i].0, &joined, &[])?.is_truthy() {
                return Ok(());
            }
        }
        if rest.is_empty() {
            out.push(if copy { joined } else { Row::new() });
            Ok(())
        } else {
            probe(rest, src, conjuncts, &joined, copy, out)
        }
    };
    match inner {
        Inner::Hash(table) => {
            for trow in table.get(&GroupKey(key)).into_iter().flatten() {
                join(trow, &[])?;
            }
        }
        Inner::Index {
            tree,
            heap,
            cols,
            verify,
        } => {
            let mut encoded = Vec::new();
            encode_index_key(&key, &mut encoded);
            let mut trow = Row::new();
            for rid in tree.scan_prefix(src, &encoded)? {
                decode_row_into(&heap.get(src, rid)?, Some(cols), &mut trow)?;
                join(&trow, verify)?;
            }
        }
    }
    Ok(())
}

fn filter_rows(rows: Vec<Row>, c: &CExpr) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if eval(c, &row, &[])?.is_truthy() {
            out.push(row);
        }
    }
    Ok(out)
}

/// Expand `*` / `t.*` into concrete expressions with output names.
///
/// `*` expands in the *written* FROM order (`written_bindings`), not the
/// planner's execution order — join reordering must never change the
/// column order a user sees. Expansion is alias-qualified so duplicate
/// column names across tables resolve unambiguously.
pub(crate) fn expand_items(
    items: &[SelectItem],
    written_bindings: &[(String, Vec<String>)],
    scope: &Scope,
) -> Result<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (alias, cols) in written_bindings {
                    for name in cols {
                        out.push((
                            Expr::Column {
                                table: Some(alias.clone()),
                                name: name.clone(),
                            },
                            name.clone(),
                        ));
                    }
                }
                if out.is_empty() && scope.width() > 0 {
                    return Err(SqlError::Invalid("cannot expand *".into()));
                }
            }
            SelectItem::TableWildcard(t) => {
                let (_, cols) = scope.binding_columns(t)?;
                for name in cols {
                    out.push((
                        Expr::Column {
                            table: Some(t.clone()),
                            name: name.clone(),
                        },
                        name.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.to_ascii_lowercase(),
        Expr::Function { name, .. } => name.clone(),
        // SQLite names a literal projection by its text ("SELECT 1" → "1").
        Expr::Literal(v) => v.to_string(),
        _ => "expr".to_owned(),
    }
}

fn run_projection(
    select: &SelectStmt,
    items: &[(Expr, String)],
    rows: &ScanRows,
    scope: &Scope,
    udfs: &UdfRegistry,
) -> Result<(Vec<String>, Vec<Row>)> {
    let mut compiled = Vec::with_capacity(items.len());
    for (expr, _) in items {
        compiled.push(compile(expr, scope, udfs, None)?);
    }
    let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();

    // ORDER BY keys.
    let order = compile_order(select, &columns, scope, udfs, None)?;

    let mut out: Vec<(Row, Row)> = Vec::with_capacity(rows.len()); // (keys, row)
    for row in rows.iter() {
        let mut orow = Vec::with_capacity(compiled.len());
        for c in &compiled {
            orow.push(eval(c, row, &[])?);
        }
        let keys = eval_order_keys(&order, row, &orow, &[])?;
        out.push((keys, orow));
    }
    let rows = finish_rows(select, order.as_ref(), out)?;
    Ok((columns, rows))
}

enum OrderKeys {
    /// Keys computed from the input row (compiled expressions) or the
    /// output row (column index), with per-key descending flags.
    Keys(Vec<(OrderKey, bool)>),
}

enum OrderKey {
    Input(CExpr),
    Output(usize),
}

fn compile_order(
    select: &SelectStmt,
    columns: &[String],
    scope: &Scope,
    udfs: &UdfRegistry,
    mut aggs: Option<&mut Vec<AggSpec>>,
) -> Result<Option<OrderKeys>> {
    if select.order_by.is_empty() {
        return Ok(None);
    }
    let mut keys = Vec::new();
    for (expr, desc) in &select.order_by {
        // Positional: ORDER BY 2.
        if let Expr::Literal(Value::Integer(i)) = expr {
            let idx = *i as usize;
            if idx == 0 || idx > columns.len() {
                return Err(SqlError::Invalid(format!("ORDER BY position {i}")));
            }
            keys.push((OrderKey::Output(idx - 1), *desc));
            continue;
        }
        // Alias reference.
        if let Expr::Column { table: None, name } = expr {
            if let Some(idx) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                keys.push((OrderKey::Output(idx), *desc));
                continue;
            }
        }
        let compiled = compile(expr, scope, udfs, aggs.as_deref_mut())?;
        keys.push((OrderKey::Input(compiled), *desc));
    }
    Ok(Some(OrderKeys::Keys(keys)))
}

fn eval_order_keys(
    order: &Option<OrderKeys>,
    in_row: &[Value],
    out_row: &[Value],
    aggs: &[Value],
) -> Result<Row> {
    let Some(OrderKeys::Keys(keys)) = order else {
        return Ok(Vec::new());
    };
    let mut v = Vec::with_capacity(keys.len());
    for (k, _) in keys {
        v.push(match k {
            OrderKey::Input(c) => eval(c, in_row, aggs)?,
            OrderKey::Output(i) => out_row
                .get(*i)
                .cloned()
                .ok_or_else(|| SqlError::Invalid("ORDER BY position out of range".into()))?,
        });
    }
    Ok(v)
}

/// Sort by keys, apply LIMIT, strip keys.
fn finish_rows(
    select: &SelectStmt,
    order: Option<&OrderKeys>,
    mut keyed: Vec<(Row, Row)>,
) -> Result<Vec<Row>> {
    if let Some(OrderKeys::Keys(keys)) = order {
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, (_, desc)) in keys.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
    if let Some(limit_expr) = &select.limit {
        let v = match limit_expr {
            Expr::Literal(Value::Integer(i)) => *i,
            _ => return Err(SqlError::Invalid("LIMIT must be an integer literal".into())),
        };
        rows.truncate(v.max(0) as usize);
    }
    Ok(rows)
}

// ---- aggregation ---------------------------------------------------------

/// One aggregate's running state.
enum AggAcc {
    Count(i64),
    Sum(Option<Value>),
    Total(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl AggAcc {
    fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::Sum => AggAcc::Sum(None),
            AggFunc::Total => AggAcc::Total(0.0),
            AggFunc::Min => AggAcc::Min(None),
            AggFunc::Max => AggAcc::Max(None),
            AggFunc::Avg => AggAcc::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Update with one input; `None` means COUNT(*) (count every row).
    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggAcc::Count(n) => {
                if v.is_none_or(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            AggAcc::Sum(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *acc = Some(match acc.take() {
                            None => v.clone(),
                            Some(a) => a.add(v),
                        });
                    }
                }
            }
            AggAcc::Total(t) => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *t += x;
                }
            }
            AggAcc::Min(best) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less)
                    {
                        *best = Some(v.clone());
                    }
                }
            }
            AggAcc::Max(best) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Greater)
                    {
                        *best = Some(v.clone());
                    }
                }
            }
            AggAcc::Avg { sum, count } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum += x;
                    *count += 1;
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Integer(*n),
            AggAcc::Sum(acc) => acc.clone().unwrap_or(Value::Null),
            AggAcc::Total(t) => Value::Real(*t),
            AggAcc::Min(b) | AggAcc::Max(b) => b.clone().unwrap_or(Value::Null),
            AggAcc::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Real(sum / *count as f64)
                }
            }
        }
    }
}

/// One group's running state: an accumulator per aggregate, and the
/// group's first row, which the items' bare columns are read from.
pub(crate) struct GroupState {
    accs: Vec<AggAcc>,
    distinct_seen: Vec<Option<HashSet<GroupKey>>>,
    pub(crate) representative: Row,
}

/// The compiled aggregate stage of a statement: grouping keys, aggregate
/// specs, items, HAVING and ORDER BY.
pub(crate) struct AggPlan {
    aggs: Vec<AggSpec>,
    items: Vec<CExpr>,
    group_exprs: Vec<CExpr>,
    having: Option<CExpr>,
    columns: Vec<String>,
    order: Option<OrderKeys>,
}

impl AggPlan {
    pub(crate) fn compile(
        select: &SelectStmt,
        items: &[(Expr, String)],
        scope: &Scope,
        udfs: &UdfRegistry,
    ) -> Result<AggPlan> {
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut compiled_items = Vec::with_capacity(items.len());
        for (expr, _) in items {
            compiled_items.push(compile(expr, scope, udfs, Some(&mut aggs))?);
        }
        let group_exprs: Vec<CExpr> = select
            .group_by
            .iter()
            .map(|e| compile(e, scope, udfs, None))
            .collect::<Result<_>>()?;
        let having = select
            .having
            .as_ref()
            .map(|h| compile(h, scope, udfs, Some(&mut aggs)))
            .transpose()?;
        let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
        let order = compile_order(select, &columns, scope, udfs, Some(&mut aggs))?;
        Ok(AggPlan {
            aggs,
            items: compiled_items,
            group_exprs,
            having,
            columns,
            order,
        })
    }

    /// Output column names.
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The grouping key of `row`.
    pub(crate) fn key(&self, row: &Row) -> Result<GroupKey> {
        let key = self.group_exprs.iter().map(|g| eval(g, row, &[]));
        Ok(GroupKey(key.collect::<Result<_>>()?))
    }

    /// A group with no row folded in yet (and an empty representative).
    pub(crate) fn state(&self) -> GroupState {
        GroupState {
            accs: self.aggs.iter().map(|s| AggAcc::new(s.func)).collect(),
            distinct_seen: (self.aggs.iter())
                .map(|s| s.distinct.then(HashSet::new))
                .collect(),
            representative: Row::new(),
        }
    }

    /// Fold one of the group's rows into `state`'s accumulators.
    pub(crate) fn update(&self, state: &mut GroupState, row: &Row) -> Result<()> {
        for (i, spec) in self.aggs.iter().enumerate() {
            let arg_val = match &spec.arg {
                Some(e) => Some(eval(e, row, &[])?),
                None => None,
            };
            if let Some(seen) = &mut state.distinct_seen[i] {
                let Some(v) = &arg_val else { continue };
                if v.is_null() || !seen.insert(GroupKey(vec![v.clone()])) {
                    continue;
                }
            }
            state.accs[i].update(arg_val.as_ref());
        }
        Ok(())
    }

    /// The group's `(order keys, output row)`, or `None` when HAVING
    /// rejects it.
    pub(crate) fn emit(&self, state: &GroupState) -> Result<Option<(Row, Row)>> {
        let agg_vals: Vec<Value> = state.accs.iter().map(AggAcc::finish).collect();
        let rep = &state.representative;
        if let Some(h) = &self.having {
            if !eval(h, rep, &agg_vals)?.is_truthy() {
                return Ok(None);
            }
        }
        let mut orow = Vec::with_capacity(self.items.len());
        for c in &self.items {
            orow.push(eval(c, rep, &agg_vals)?);
        }
        let keys = eval_order_keys(&self.order, rep, &orow, &agg_vals)?;
        Ok(Some((keys, orow)))
    }
}

/// The one group accumulator, shared by [`run_aggregate`] and the grouped
/// delta finish ([`crate::grouped`]): groups in first-appearance order,
/// indexed by key.
#[derive(Default)]
pub(crate) struct Groups {
    pub(crate) index: HashMap<GroupKey, usize>,
    pub(crate) states: Vec<GroupState>,
}

impl Groups {
    /// Fold `row` into its group, opening the group with `row` as its
    /// representative on first appearance; returns the group's position.
    pub(crate) fn add(&mut self, plan: &AggPlan, row: Cow<'_, Row>) -> Result<usize> {
        // Without GROUP BY every row is the one group's: nothing to hash.
        let (g, fresh) = match plan.group_exprs.is_empty() {
            true => (0, self.states.is_empty()),
            false => {
                let key = plan.key(&row)?;
                match self.index.get(&key) {
                    Some(&g) => (g, false),
                    None => {
                        self.index.insert(key, self.states.len());
                        (self.states.len(), true)
                    }
                }
            }
        };
        if fresh {
            self.states.push(plan.state());
        }
        let state = &mut self.states[g];
        plan.update(state, &row)?;
        if fresh {
            state.representative = row.into_owned();
        }
        Ok(g)
    }
}

/// The aggregate stage over `rows`: owned rows move into their groups'
/// representatives, borrowed ones are cloned only for that.
fn run_aggregate<'r>(
    select: &SelectStmt,
    items: &[(Expr, String)],
    rows: impl Iterator<Item = Cow<'r, Row>>,
    scope: &Scope,
    udfs: &UdfRegistry,
) -> Result<(Vec<String>, Vec<Row>)> {
    let plan = AggPlan::compile(select, items, scope, udfs)?;
    let mut groups = Groups::default();
    for row in rows {
        groups.add(&plan, row)?;
    }
    // Global aggregate over empty input still yields one group.
    if groups.states.is_empty() && select.group_by.is_empty() {
        let mut state = plan.state();
        state.representative = vec![Value::Null; scope.width()];
        groups.states.push(state);
    }
    let mut keyed: Vec<(Row, Row)> = Vec::with_capacity(groups.states.len());
    for state in &groups.states {
        keyed.extend(plan.emit(state)?);
    }
    let rows = finish_rows(select, plan.order.as_ref(), keyed)?;
    Ok((plan.columns, rows))
}
