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
//! WHERE/ON conjuncts and the finish stage once, picks the access paths
//! and pushes each joined, filtered row into the finish stage's
//! accumulator as the scan yields it; [`finish_select`] emits the groups
//! or projected rows, sorts, de-duplicates and limits them. The RQL loop
//! calls the stages separately so it can look at what the scan fetched
//! before deciding whether the second stage has to run at all — through
//! the same two functions, so its output is the ordinary plan's, byte for
//! byte.
//!
//! The scan stage decodes only the columns the statement reads and
//! streams the base scan through prebuilt join sides, so no kept row is
//! copied except into a group it opens. A scan a delta scanner serves
//! pushes nothing: its rows stay on the scanner's cached pages
//! ([`Scanned::delta`]), and the finish stage pushes them through the
//! same accumulator where they lie.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt};
use crate::cancel::{CancelToken, CHECK_EVERY_ROWS};
use crate::catalog::{Catalog, IndexInfo, TableInfo};
use crate::cexpr::{
    compile, eval, operand, AggFunc, AggSpec, BindError, BindKind, BindResult, CExpr, Scope,
};
use crate::delta::{DeltaScan, DeltaTableScanner, ScanPages};
use crate::error::{Result, SqlError};
use crate::exec_stats::ExecStats;
use crate::heap::{HeapFile, RecordId};
use crate::pagesource::PageSource;
use crate::record::{decode_row_into, encode_index_key, Cursor, GatedRow, Row, Walk};
use crate::schema::TableSchema;
use crate::sidecar::PredSummary;
use crate::udf::UdfRegistry;
use crate::value::{GroupKey, KeyMap, KeySet, KeyState, Value};

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

/// What the scan stage of a `SELECT` produced: the input of
/// [`finish_select`], plus what the stage decided on the way.
pub struct Scanned {
    /// Access-path decisions so far (becomes [`QueryResult::plan`]).
    pub plan: Vec<String>,
    /// What the offered scanner fetched, served and pruned against its
    /// previous scan, with the scan's pages — its rows, shared with the
    /// scanner's cache — when it served as the seq scan's row source.
    /// `None` when no scanner was offered or the plan had no use for one
    /// (it is then left invalidated): the scan pushed its rows into the
    /// finish stage.
    pub delta: Option<(DeltaScan, ScanPages)>,
    /// Cost so far: ad-hoc index builds, evaluation time (the pushed
    /// rows' finish work included) and, with `delta`, the scanner's page
    /// counters.
    pub stats: ExecStats,
    /// For a single-table statement: the table and its (table-local)
    /// columns some conjunct compares to a constant — what a page sidecar
    /// could refute.
    pub(crate) refutable: Option<(String, Vec<usize>)>,
    /// The finish stage, compiled once against the scan's scope (or the
    /// error it fails with), holding every row the scan pushed.
    pub(crate) finish: BindResult<Finish>,
}

/// Run a `SELECT` over `src`. `catalog` must describe the same source
/// (i.e. be loaded through it, so AS OF sees the snapshot's schema).
/// `cancel` is polled at scan and join checkpoints (every
/// [`CHECK_EVERY_ROWS`] rows), so a long scan unwinds with
/// `SqlError::Cancelled` within one batch of a trip.
pub fn run_select<S: PageSource>(
    select: &SelectStmt,
    src: &S,
    catalog: &Catalog,
    udfs: &UdfRegistry,
    cancel: Option<&CancelToken>,
) -> Result<QueryResult> {
    let scanned = scan_select(select, src, catalog, udfs, cancel, None)?;
    finish_select(scanned)
}

/// The scan stage: bind the tables, compile the conjuncts and the finish
/// stage, compute the columns the statement reads, pick the access paths
/// and push every joined, filtered row into the finish stage. Columns the
/// statement does not read are NULL in the pushed rows.
///
/// An offered `scanner` stands in for the base table's heap when — and
/// only when — the plan is a plain seq scan of a single table whose
/// conjuncts call no UDF: it then serves the page versions it has seen
/// from its cache, the rows stay on its pages and nothing is pushed, and
/// [`Scanned::delta`] says what it fetched and holds the pages.
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
    // (compiled conjunct, bindings needed before it can run)
    let mut conjuncts: Vec<(CExpr, usize)> = Vec::new();
    for c in scan_conjuncts(select) {
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
    let written_bindings: Vec<(String, Vec<String>)> = (select.tables())
        .map(|tref| {
            let info = catalog.require_table(&tref.name)?;
            Ok((
                tref.binding().to_ascii_lowercase(),
                info.schema.columns.iter().map(|c| c.name.clone()).collect(),
            ))
        })
        .collect::<Result<_>>()?;
    let finish = expand_items(&select.items, &written_bindings, &scope)
        .and_then(|items| AggPlan::compile(select, &items, &scope, udfs));
    let read = read_columns(finish.as_ref().ok(), &conjuncts, scope.width());
    let mut finish = finish.map(|plan| Finish::new(plan, scope.width()));
    // A finish stage that failed to compile takes no row: its error is
    // the finish stage's, after the scan's own.
    let mut push = |row: &Row| match &mut finish {
        Ok(finish) => finish.push(row),
        Err(_) => Ok(()),
    };
    // Each binding's slice of the scan set, cut after its last marked
    // column: the decoder finds where its walk ends at once.
    let cols = |k: usize| {
        let c = &read[binding_ranges[k].0..binding_ranges[k].1];
        &c[..c.iter().rposition(|&r| r).map_or(0, |last| last + 1)]
    };

    // ---- push the joined rows --------------------------------------------
    // The base table's access path is chosen first, then every joined
    // table builds its inner side, then the base scan streams each kept
    // row through the chain of probes into the finish stage.
    let single_table = bindings.len() == 1;
    let mut served = None;
    let mut refutable = None;
    if bindings.is_empty() {
        // SELECT without FROM: one empty row, kept if every conjunct holds.
        if all_hold(&conjuncts, 0..conjuncts.len(), &Row::new())? {
            push(&Row::new())?;
        }
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
        let gate = base.gate(&conjuncts, steps.first());
        served = base.run(src, cols(0), gate, &conjuncts, cancel, |rec| {
            probe(
                &mut steps,
                src,
                &conjuncts,
                Incoming::Record(rec),
                &mut push,
            )
        })?;
    }
    if let (None, Some(scanner)) = (&served, scanner) {
        scanner.invalidate();
    }

    let scan = served.as_ref().map(|(scan, _)| scan);
    let stats = ExecStats {
        index_creation,
        eval: started.elapsed().saturating_sub(index_creation),
        pages_skipped_delta: scan.map_or(0, |d| d.pages_skipped),
        pages_pruned_filter: scan.map_or(0, |d| d.pages_pruned),
        delta_eligible: u64::from(scan.is_some()),
        ..Default::default()
    };
    Ok(Scanned {
        plan,
        delta: served,
        stats,
        refutable,
        finish,
    })
}

/// The finish stage: push a served scan's rows through the accumulator
/// the scan stage compiled (an unserved scan pushed its own), then emit
/// the groups or projected rows, sorted, de-duplicated and limited. The
/// time it takes is added to the scan stage's.
pub fn finish_select(scanned: Scanned) -> Result<QueryResult> {
    let started = Instant::now();
    let Scanned {
        plan,
        delta,
        mut stats,
        finish,
        ..
    } = scanned;
    let mut finish = finish?;
    for (_, rows) in delta.iter().flat_map(|(_, pages)| pages) {
        for row in rows.iter() {
            finish.push(row)?;
        }
    }
    let (columns, out_rows) = finish.rows()?;
    stats.eval += started.elapsed();
    stats.rows = out_rows.len() as u64;
    Ok(QueryResult {
        columns,
        rows: out_rows,
        stats,
        plan,
    })
}

/// What binding a `SELECT` found: its output, its compiled WHERE and ON
/// conjuncts, and every failing clause's error.
#[derive(Debug, Default)]
pub struct Bound {
    /// Output column names with their compiled items (NULL where an item
    /// failed); `None` when FROM names an unknown table or a wildcard does
    /// not expand.
    pub output: Option<Vec<(String, CExpr)>>,
    /// The aggregates the items, HAVING and ORDER BY call, by slot.
    pub aggs: Vec<AggSpec>,
    /// The WHERE conjuncts, then the ON conjuncts (NULL where one failed).
    pub conjuncts: Vec<CExpr>,
    /// Each failing clause's error, in the order the executor meets them.
    pub errors: Vec<BindError>,
}

/// Bind `select` against `tables` (keyed by lower-case name) and `udfs`
/// without reading a row, through the executor's own rules: the WHERE and
/// ON conjuncts compile as [`scan_select`] compiles them, then the finish
/// stage's clauses as [`finish_select`] does, each failing clause's error
/// recorded instead of stopping at the first. When FROM names unknown
/// tables they are the only errors, since nothing resolves against them.
/// The scope binds the tables in written order.
pub fn bind(
    select: &SelectStmt,
    tables: &HashMap<String, TableSchema>,
    udfs: &UdfRegistry,
) -> Bound {
    let mut bound = Bound::default();
    let (mut scope, mut written) = (Scope::empty(), Vec::new());
    for tref in select.tables() {
        let Some(schema) = tables.get(&tref.name.to_ascii_lowercase()) else {
            let message = format!("table {}", tref.name);
            (bound.errors).push(BindError::new(BindKind::UnknownTable, &tref.name, message));
            continue;
        };
        let columns: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        scope.push(tref.binding(), columns.clone());
        written.push((tref.binding().to_ascii_lowercase(), columns));
    }
    if !bound.errors.is_empty() {
        return bound;
    }
    for c in scan_conjuncts(select) {
        let c = kept(compile(c, &scope, udfs, None), &mut bound.errors);
        bound.conjuncts.push(c);
    }
    match expand_items(&select.items, &written, &scope) {
        Ok(items) => {
            let plan = AggPlan::bind(select, &items, &scope, udfs, &mut bound.errors);
            bound.output = Some(plan.columns.into_iter().zip(plan.items).collect());
            bound.aggs = plan.aggs;
        }
        Err(e) => bound.errors.push(e),
    }
    bound
}

/// `r`'s expression, or NULL with the error recorded: how the binder
/// compiles on past a failing clause.
fn kept(r: BindResult<CExpr>, errors: &mut Vec<BindError>) -> CExpr {
    r.unwrap_or_else(|e| {
        errors.push(e);
        CExpr::Const(Value::Null)
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

/// The conjuncts the scan stage compiles: WHERE's, then each ON's.
fn scan_conjuncts(select: &SelectStmt) -> Vec<&Expr> {
    let mut out = Vec::new();
    let ons = select.joins.iter().map(|j| &j.on);
    for e in select.where_clause.iter().chain(ons) {
        collect_conjuncts(e, &mut out);
    }
    out
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

/// The columns the statement reads, by joined-row offset: the conjuncts'
/// and the ones the finish stage's compiled clauses (items, GROUP BY,
/// HAVING, ORDER BY and aggregate arguments) resolve to (`*` names every
/// binding's, `t.*` one binding's). A finish stage that did not compile
/// reads every column, leaving its error to the finish stage. A column
/// outside the set decodes as NULL and nothing evaluates it.
fn read_columns(finish: Option<&AggPlan>, conjuncts: &[(CExpr, usize)], width: usize) -> Vec<bool> {
    let mut offs = Vec::new();
    if let Some(plan) = finish {
        let order = plan.order.iter().filter_map(|(k, _)| match k {
            OrderKey::Input(c) => Some(c),
            OrderKey::Output(_) => None,
        });
        let args = plan.aggs.iter().filter_map(|a| a.arg.as_ref());
        let clauses = plan.items.iter().chain(&plan.group_exprs);
        (clauses.chain(&plan.having).chain(order).chain(args))
            .for_each(|c| c.column_offsets(&mut offs));
    }
    for (c, _) in conjuncts {
        c.column_offsets(&mut offs);
    }
    let mut read = vec![finish.is_none(); width];
    for o in offs {
        read[o] = true;
    }
    read
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

/// Plan the first table's scan: its single-table conjuncts and the ones
/// that name no column, and a native index for an equality conjunct when
/// possible. `scanner` is offered only for a single-table statement,
/// whose every conjunct the scan applies; the seq-scan arm uses it as its
/// row source unless a conjunct calls a UDF. The conjuncts it applies are
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
    let applicable: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, (_, need))| !used[*i] && *need <= 1)
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
    /// The column each record is decoded up to before the applied
    /// conjuncts and the first join step's key decide whether the rest is
    /// wanted: one past the last column they read when that step is a hash
    /// join with a key, else the whole column set. (The base table's
    /// columns start at offset 0.)
    fn gate(&self, conjuncts: &[(CExpr, usize)], first: Option<&JoinStep<'_>>) -> usize {
        let Some(JoinStep {
            key: Some(key),
            inner: Inner::Hash { .. },
            ..
        }) = first
        else {
            return usize::MAX;
        };
        let mut offs = Vec::new();
        key.column_offsets(&mut offs);
        for &i in &self.applicable {
            conjuncts[i].0.column_offsets(&mut offs);
        }
        offs.into_iter().max().map_or(0, |last| last + 1)
    }

    /// Scan the table, decoding the columns `cols` marks up to column
    /// `gate`, and hand every record whose gate passes the applied
    /// conjuncts to `emit`, which reads the rest of the ones it wants —
    /// unless the offered scanner served the scan: then no row is handed
    /// over, and the row delta and the scanner's pages are returned
    /// instead.
    fn run<S: PageSource>(
        self,
        src: &S,
        cols: &[bool],
        gate: usize,
        conjuncts: &[(CExpr, usize)],
        cancel: Option<&CancelToken>,
        mut emit: impl FnMut(&mut GatedRow<'_>) -> Result<()>,
    ) -> Result<Option<(DeltaScan, ScanPages)>> {
        let _span = rql_trace::span(rql_trace::SpanId::Scan);
        let heap = self.info.heap();
        let applicable = self.applicable;
        let mut checkpoint = Checkpoint::new(cancel);
        let mut keep = |row: &Row| -> Result<bool> {
            checkpoint.check()?;
            all_hold(conjuncts, applicable.iter().copied(), row)
        };
        match (self.probe, self.scanner) {
            (Some((idx, v)), _) => {
                let mut key = Vec::new();
                encode_index_key(std::slice::from_ref(&v), &mut key);
                let (mut rids, mut row) = (Vec::new(), Row::new());
                crate::btree::BTree::new(idx.root).scan_prefix_into(src, &key, &mut rids)?;
                for &rid in &rids {
                    heap.read(src, rid, |bytes| {
                        let mut rec = GatedRow::decode(bytes, Some(cols), gate, &mut row)?;
                        if keep(rec.gate())? {
                            emit(&mut rec)?;
                        }
                        rec.check()
                    })?;
                }
                Ok(None)
            }
            (None, Some(scanner)) => {
                let root = self.info.root;
                Ok(Some(scanner.scan(src, root, &self.pred, cols, keep)?))
            }
            (None, None) => {
                heap.scan_gated(src, &self.pred, Some(cols), gate, |_, rec| {
                    if keep(rec.gate())? {
                        emit(rec)?;
                    }
                    Ok(true)
                })?;
                Ok(None)
            }
        }
    }
}

/// Whether every conjunct `which` names is true on `row`.
fn all_hold(
    conjuncts: &[(CExpr, usize)],
    which: impl IntoIterator<Item = usize>,
    row: &Row,
) -> Result<bool> {
    for i in which {
        if !eval(&conjuncts[i].0, row, &[])?.is_truthy() {
            return Ok(false);
        }
    }
    Ok(true)
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
    /// The joined row, rebuilt in place for every match.
    joined: Row,
    /// Shared by the build and every probe of this table.
    checkpoint: Checkpoint<'a>,
}

/// The prebuilt inner side of a [`JoinStep`], with the buffers its probes
/// reuse for every incoming row.
enum Inner {
    /// The table's kept rows by join-key value: an ad-hoc hash index
    /// (SQLite's automatic covering index), or — for a cross join — every
    /// kept row under the empty key, which `probe_key` then stays.
    Hash {
        table: KeyMap<GroupKey, Vec<Row>>,
        probe_key: GroupKey,
    },
    /// Index nested loop through a native B-tree: each probe key is
    /// encoded into `encoded` and its hits listed in `rids`, and each
    /// fetched row is decoded where it lies into `trow` with `cols` and
    /// must pass `verify` — the table's local conjuncts, then the join key
    /// itself, since the index key space conflates 1 and 1.0.
    Index {
        tree: crate::btree::BTree,
        heap: HeapFile,
        cols: Vec<bool>,
        verify: Vec<usize>,
        encoded: Vec<u8>,
        rids: Vec<RecordId>,
        trow: Row,
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
                encoded: Vec::new(),
                rids: Vec::new(),
                trow: Row::new(),
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
            let mut table: KeyMap<GroupKey, Vec<Row>> = KeyMap::default();
            // Local conjuncts and the key see the row padded out to
            // full-scope offsets.
            let mut padded = vec![Value::Null; prefix_width];
            heap.scan(src, &PredSummary::default(), Some(cols), |_, trow| {
                checkpoint.check()?;
                padded.truncate(prefix_width);
                padded.extend_from_slice(trow);
                if !all_hold(conjuncts, local.iter().copied(), &padded)? {
                    return Ok(true);
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
            Inner::Hash {
                table,
                probe_key: GroupKey(Vec::new()),
            }
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
        joined: Row::new(),
        checkpoint,
    })
}

/// A row entering the join steps: a base-table record decoded up to its
/// gate ([`BasePlan::gate`]), or a row an earlier step joined.
enum Incoming<'r, 'b> {
    Record(&'r mut GatedRow<'b>),
    Joined(&'r Row),
}

impl Incoming<'_, '_> {
    /// The row so far: the columns the first step's key reads.
    fn gate(&self) -> &Row {
        match self {
            Incoming::Record(rec) => rec.gate(),
            Incoming::Joined(row) => row,
        }
    }

    /// The whole row; a record's walk goes on to materialize it.
    fn whole(&mut self) -> Result<&Row> {
        match self {
            Incoming::Record(rec) => rec.rest(),
            Incoming::Joined(row) => Ok(row),
        }
    }
}

/// Push one row of the bindings before `steps` through them: the first
/// step joins it with each matching inner row, and every joined row that
/// passes the step's checks goes on through the rest. Each row that comes
/// out of the last step goes to `push`, in the order a join of the
/// materialized prefix would have produced them. A hash step looks the
/// key up in its reused key buffer before the row is whole: a row whose
/// key misses is never materialized past the key, and one that hits is
/// joined with the bucket already found.
fn probe<S: PageSource>(
    steps: &mut [JoinStep<'_>],
    src: &S,
    conjuncts: &[(CExpr, usize)],
    mut row: Incoming<'_, '_>,
    push: &mut impl FnMut(&Row) -> Result<()>,
) -> Result<()> {
    let Some((step, rest)) = steps.split_first_mut() else {
        return push(row.whole()?);
    };
    let JoinStep {
        key,
        inner,
        post,
        joined,
        checkpoint,
    } = step;
    let mut join = |row: &Row, trow: &Row, verify: &[usize]| -> Result<()> {
        checkpoint.check()?;
        joined.clear();
        joined.extend_from_slice(row);
        joined.extend_from_slice(trow);
        match all_hold(conjuncts, verify.iter().chain(post.iter()).copied(), joined)? {
            true => probe(rest, src, conjuncts, Incoming::Joined(joined), push),
            false => Ok(()),
        }
    };
    // The key's value, read where it lies; NULL joins nothing.
    let key = match key {
        Some(key) => match operand(key, row.gate(), &[])? {
            v if v.is_null() => return Ok(()),
            v => Some(v),
        },
        None => None,
    };
    match inner {
        Inner::Hash { table, probe_key } => {
            if let Some(v) = key {
                probe_key.set_single(&v);
            }
            let Some(bucket) = table.get(probe_key) else {
                return Ok(());
            };
            let row = row.whole()?;
            for trow in bucket {
                join(row, trow, &[])?;
            }
        }
        Inner::Index {
            tree,
            heap,
            cols,
            verify,
            encoded,
            rids,
            trow,
        } => {
            encoded.clear();
            if let Some(v) = key {
                encode_index_key(std::slice::from_ref(&*v), encoded);
            }
            let row = row.whole()?;
            tree.scan_prefix_into(src, encoded, rids)?;
            for &rid in rids.iter() {
                heap.read(src, rid, |bytes| {
                    decode_row_into(bytes, Some(cols), Cursor::START, Walk::ALL, trow)?;
                    join(row, trow, verify)
                })?;
            }
        }
    }
    Ok(())
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
) -> BindResult<Vec<(Expr, String)>> {
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

/// An ORDER BY key: computed from the input row (a compiled expression)
/// or read from the output row (a column index).
#[derive(Debug)]
enum OrderKey {
    Input(CExpr),
    Output(usize),
}

/// One ORDER BY key: a 1-based output position, an output column name,
/// else an expression over the input row.
fn order_key(
    expr: &Expr,
    columns: &[String],
    scope: &Scope,
    udfs: &UdfRegistry,
    aggs: Option<&mut Vec<AggSpec>>,
) -> BindResult<OrderKey> {
    // Positional: ORDER BY 2.
    if let Expr::Literal(Value::Integer(i)) = expr {
        let idx = *i as usize;
        if idx == 0 || idx > columns.len() {
            let message = format!("ORDER BY position {i}");
            return Err(BindError::new(BindKind::Invalid, i.to_string(), message));
        }
        return Ok(OrderKey::Output(idx - 1));
    }
    // Alias reference.
    if let Expr::Column { table: None, name } = expr {
        if let Some(idx) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            return Ok(OrderKey::Output(idx));
        }
    }
    compile(expr, scope, udfs, aggs).map(OrderKey::Input)
}

fn eval_order_keys(
    order: &[(OrderKey, bool)],
    in_row: &[Value],
    out_row: &[Value],
    aggs: &[Value],
) -> Result<Row> {
    let mut v = Vec::with_capacity(order.len());
    for (k, _) in order {
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

/// Sort by keys, strip keys, drop DISTINCT's duplicates, apply LIMIT.
fn finish_rows(plan: &AggPlan, mut keyed: Vec<(Row, Row)>) -> Vec<Row> {
    if !plan.order.is_empty() {
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, (_, desc)) in plan.order.iter().enumerate() {
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
    if plan.distinct {
        let mut seen = KeySet::with_capacity_and_hasher(rows.len(), KeyState::default());
        rows.retain(|r| seen.insert(GroupKey(r.clone())));
    }
    if let Some(n) = plan.limit {
        rows.truncate(n);
    }
    rows
}

// ---- aggregation ---------------------------------------------------------

/// One aggregate's running state: the one implementation of MIN, MAX,
/// SUM, COUNT and AVG (and SQLite's TOTAL), shared by SQL's finish stage
/// and the RQL aggregation mechanisms. MIN/MAX/SUM/COUNT are the paper's
/// abelian monoids (§2.3): the finished value does not depend on the
/// order of updates (SUM over integers). AVG is the paper's special case,
/// carried as its `(sum, count)` pair.
#[derive(Debug, Clone, PartialEq)]
pub enum AggAcc {
    /// Contributions counted (non-NULL inputs, or every `COUNT(*)` row).
    Count(i64),
    /// Running sum of the numeric inputs (`None` = none yet: NULL).
    Sum(Option<Value>),
    /// Running float sum (0.0 on no contribution).
    Total(f64),
    /// Least input so far under the SQL total order.
    Min(Option<Value>),
    /// Greatest input so far.
    Max(Option<Value>),
    /// AVG's running `(sum, count)` of numeric inputs.
    Avg {
        /// Sum of the numeric inputs.
        sum: f64,
        /// How many numeric inputs.
        count: i64,
    },
}

impl AggAcc {
    /// The identity state of `func`.
    pub fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::Sum => AggAcc::Sum(None),
            AggFunc::Total => AggAcc::Total(0.0),
            AggFunc::Min => AggAcc::Min(None),
            AggFunc::Max => AggAcc::Max(None),
            AggFunc::Avg => AggAcc::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold one input in; `None` is a `COUNT(*)` row, which counts and
    /// which every other function ignores. NULL inputs are skipped.
    #[inline]
    pub fn update(&mut self, v: Option<&Value>) {
        if let AggAcc::Count(n) = self {
            *n += i64::from(v.is_none_or(|v| !v.is_null()));
            return;
        }
        let Some(v) = v.filter(|v| !v.is_null()) else {
            return;
        };
        let wins = match self {
            AggAcc::Min(_) => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        };
        match self {
            AggAcc::Count(_) => {}
            // Like AVG, SUM skips what is not a number.
            AggAcc::Sum(_) if v.as_f64().is_none() => {}
            AggAcc::Sum(acc) => {
                *acc = Some(match acc.take() {
                    None => v.clone(),
                    Some(a) => a.add(v),
                });
            }
            AggAcc::Total(t) => *t += v.as_f64().unwrap_or(0.0),
            AggAcc::Min(best) | AggAcc::Max(best) => {
                if best.as_ref().is_none_or(|b| v.total_cmp(b) == wins) {
                    *best = Some(v.clone());
                }
            }
            AggAcc::Avg { sum, count } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *count += 1;
                }
            }
        }
    }

    /// The aggregate's value.
    pub fn finish(self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Integer(n),
            AggAcc::Total(t) => Value::Real(t),
            AggAcc::Sum(v) | AggAcc::Min(v) | AggAcc::Max(v) => v.unwrap_or(Value::Null),
            AggAcc::Avg { count: 0, .. } => Value::Null,
            AggAcc::Avg { sum, count } => Value::Real(sum / count as f64),
        }
    }
}

/// One group's running state: an accumulator per aggregate, and the
/// group's first row, which the items' bare columns are read from.
pub(crate) struct GroupState {
    accs: Vec<AggAcc>,
    distinct_seen: Vec<Option<KeySet<GroupKey>>>,
    pub(crate) representative: Row,
}

/// The compiled finish stage of a statement: its items and ORDER BY and
/// LIMIT, plus — when it aggregates — grouping keys, aggregate specs and
/// HAVING.
#[derive(Debug)]
pub(crate) struct AggPlan {
    aggregate: bool,
    distinct: bool,
    aggs: Vec<AggSpec>,
    items: Vec<CExpr>,
    group_exprs: Vec<CExpr>,
    having: Option<CExpr>,
    columns: Vec<String>,
    order: Vec<(OrderKey, bool)>,
    limit: Option<usize>,
}

impl AggPlan {
    /// Compile the finish stage, failing with the first clause's error.
    pub(crate) fn compile(
        select: &SelectStmt,
        items: &[(Expr, String)],
        scope: &Scope,
        udfs: &UdfRegistry,
    ) -> BindResult<AggPlan> {
        let mut errors = Vec::new();
        let plan = AggPlan::bind(select, items, scope, udfs, &mut errors);
        errors.into_iter().next().map_or(Ok(plan), Err)
    }

    /// Compile the finish stage clause by clause — items, GROUP BY,
    /// HAVING, ORDER BY keys, LIMIT — recording each failing clause's
    /// error in `errors` and compiling on past a NULL. The statement
    /// aggregates when it has GROUP BY or an aggregate in an item or
    /// HAVING; then its items, HAVING and ORDER BY take aggregates, and no
    /// clause ever does otherwise (a projection ignores HAVING).
    fn bind(
        select: &SelectStmt,
        items: &[(Expr, String)],
        scope: &Scope,
        udfs: &UdfRegistry,
        errors: &mut Vec<BindError>,
    ) -> AggPlan {
        let aggregate = !select.group_by.is_empty()
            || items.iter().any(|(e, _)| e.contains_aggregate())
            || select.having.as_ref().is_some_and(Expr::contains_aggregate);
        let mut aggs = aggregate.then(Vec::new);
        let mut compiled_items = Vec::with_capacity(items.len());
        for (e, _) in items {
            compiled_items.push(kept(compile(e, scope, udfs, aggs.as_mut()), errors));
        }
        let group = select.group_by.iter();
        let group_exprs = group
            .map(|e| kept(compile(e, scope, udfs, None), errors))
            .collect();
        let having = select.having.as_ref().filter(|_| aggregate);
        let having = having.map(|h| kept(compile(h, scope, udfs, aggs.as_mut()), errors));
        let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
        let mut order = Vec::with_capacity(select.order_by.len());
        for (e, desc) in &select.order_by {
            let key = order_key(e, &columns, scope, udfs, aggs.as_mut());
            order.push((
                key.unwrap_or_else(|e| OrderKey::Input(kept(Err(e), errors))),
                *desc,
            ));
        }
        let limit = match &select.limit {
            Some(Expr::Literal(Value::Integer(i))) => Some((*i).max(0) as usize),
            Some(_) => {
                let message = "LIMIT must be an integer literal".into();
                errors.push(BindError::new(BindKind::Invalid, "LIMIT", message));
                None
            }
            None => None,
        };
        AggPlan {
            aggregate,
            distinct: select.distinct,
            aggs: aggs.unwrap_or_default(),
            items: compiled_items,
            group_exprs,
            having,
            columns,
            order,
            limit,
        }
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
                .map(|s| s.distinct.then(KeySet::default))
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
        let agg_vals: Vec<Value> = state.accs.iter().cloned().map(AggAcc::finish).collect();
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

/// The one group accumulator, shared by the finish stage ([`Finish`]) and
/// the grouped delta finish ([`crate::grouped`]): groups in
/// first-appearance order, indexed by key.
#[derive(Default)]
pub(crate) struct Groups {
    pub(crate) index: KeyMap<GroupKey, usize>,
    pub(crate) states: Vec<GroupState>,
}

impl Groups {
    /// Fold `row` into its group, opening the group with a copy of `row`
    /// as its representative on first appearance; returns the group's
    /// position.
    pub(crate) fn add(&mut self, plan: &AggPlan, row: &Row) -> Result<usize> {
        // Without GROUP BY every row is the one group's: nothing to hash.
        let (g, fresh) = match plan.group_exprs.is_empty() {
            true => (0, self.states.is_empty()),
            false => {
                let key = plan.key(row)?;
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
            let mut state = plan.state();
            state.representative = row.clone();
            self.states.push(state);
        }
        plan.update(&mut self.states[g], row)?;
        Ok(g)
    }
}

/// The finish stage's row accumulator, compiled once by the scan stage:
/// its plan and the rows pushed so far, folded into their groups when the
/// statement aggregates, else projected into `(order keys, output row)`
/// pairs.
pub(crate) struct Finish {
    pub(crate) plan: AggPlan,
    acc: Acc,
    /// Columns in the joined row.
    width: usize,
}

enum Acc {
    Groups(Groups),
    Rows(Vec<(Row, Row)>),
}

impl Finish {
    fn new(plan: AggPlan, width: usize) -> Finish {
        let acc = match plan.aggregate {
            true => Acc::Groups(Groups::default()),
            false => Acc::Rows(Vec::new()),
        };
        Finish { plan, acc, width }
    }

    /// Fold one kept row in.
    fn push(&mut self, row: &Row) -> Result<()> {
        let plan = &self.plan;
        match &mut self.acc {
            Acc::Groups(groups) => groups.add(plan, row).map(drop),
            Acc::Rows(keyed) => {
                let mut orow = Vec::with_capacity(plan.items.len());
                for c in &plan.items {
                    orow.push(eval(c, row, &[])?);
                }
                let keys = eval_order_keys(&plan.order, row, &orow, &[])?;
                keyed.push((keys, orow));
                Ok(())
            }
        }
    }

    /// The output column names and rows, sorted and limited.
    fn rows(self) -> Result<(Vec<String>, Vec<Row>)> {
        let Finish { plan, acc, width } = self;
        let keyed = match acc {
            Acc::Rows(keyed) => keyed,
            Acc::Groups(mut groups) => {
                // Global aggregate over empty input still yields one group.
                if groups.states.is_empty() && plan.group_exprs.is_empty() {
                    let mut state = plan.state();
                    state.representative = vec![Value::Null; width];
                    groups.states.push(state);
                }
                let mut keyed = Vec::with_capacity(groups.states.len());
                for state in &groups.states {
                    keyed.extend(plan.emit(state)?);
                }
                keyed
            }
        };
        let rows = finish_rows(&plan, keyed);
        Ok((plan.columns, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::schema::ColumnType;

    fn bound(sql: &str) -> Bound {
        let columns = vec![
            ("a".into(), ColumnType::Integer),
            ("b".into(), ColumnType::Text),
        ];
        let tables = HashMap::from([("t".to_owned(), TableSchema::new("t", columns))]);
        bind(&parse_select(sql).unwrap(), &tables, &UdfRegistry::new())
    }

    fn errors(sql: &str) -> Vec<(BindKind, String)> {
        let errors = bound(sql).errors.into_iter();
        errors.map(|e| (e.kind, e.name)).collect()
    }

    #[test]
    fn bind_records_each_failing_clause_in_executor_order() {
        let sql = "SELECT nope, SUM(a) FROM t WHERE zz = 1 GROUP BY COUNT(a) ORDER BY 9 LIMIT b";
        assert_eq!(
            errors(sql),
            vec![
                (BindKind::UnknownColumn, "zz".to_owned()),
                (BindKind::UnknownColumn, "nope".to_owned()),
                (BindKind::MisplacedAggregate, "count".to_owned()),
                (BindKind::Invalid, "9".to_owned()),
                (BindKind::Invalid, "LIMIT".to_owned()),
            ]
        );
    }

    #[test]
    fn bind_reports_unknown_tables_alone() {
        let got = errors("SELECT nope FROM t, missing WHERE zz = 1");
        assert_eq!(got, vec![(BindKind::UnknownTable, "missing".to_owned())]);
        assert!(bound("SELECT a FROM missing").output.is_none());
    }

    #[test]
    fn bind_names_the_output_as_the_executor_does() {
        let bound = bound("SELECT *, a AS x, COUNT(*), 1 FROM t GROUP BY a, b ORDER BY x");
        assert!(bound.errors.is_empty(), "{:?}", bound.errors);
        let output = bound.output.unwrap();
        let names: Vec<&str> = output.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "x", "count", "1"]);
        assert_eq!(bound.aggs.len(), 1);
    }
}
