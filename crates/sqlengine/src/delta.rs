//! Delta-aware heap scanning between closely-spaced snapshots.
//!
//! The RQL loop evaluates the same `Qq` against every snapshot in the
//! set. Consecutive snapshots of a slowly-changing table share most of
//! their heap pages, so re-reading the whole table per iteration wastes
//! the dominant cost of the loop (the Pagelog reads of Figure 8). A
//! [`DeltaTableScanner`] caches, per heap page, the filtered rows of the
//! previous snapshot's scan and re-fetches **only the pages in the
//! changed set** reported by [`PageSource::changed_pages`] (computed from
//! Maplog declarations by `RetroStore::open_snapshot_chain`).
//!
//! Correctness rests on three invariants:
//!
//! * the changed set is a *conservative superset* of pages whose bytes
//!   differ between the two snapshots, so an unchanged page's cached rows
//!   **and its cached `next` pointer** are still exact;
//! * heap scan order is chain order × slot order, and
//!   [`crate::heap::HeapFile::scan`] never reorders surviving pages, so
//!   splicing cached per-page row vectors in walk order reproduces a full
//!   scan's row order byte for byte;
//! * row comparison for the add/remove delta uses **representation
//!   equality** ([`ExactValue`]), not SQL equality — `Integer(1)` and
//!   `Real(1.0)` are SQL-equal but not byte-equal, and a delta consumer
//!   folding `SUM` must see such a change.
//!
//! When anything is off — no changed set, different root, prior error —
//! the scanner falls back to a full rebuild and reports `rebuilt = true`
//! so consumers re-seed their incremental state.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rql_pagestore::PageId;

use crate::ast::SelectStmt;
use crate::catalog::Catalog;
use crate::cexpr::{compile, eval, CExpr, Scope};
use crate::error::{Result, SqlError};
use crate::exec;
use crate::heap::{page_next, page_rows};
use crate::pagesource::PageSource;
use crate::record::Row;
use crate::sidecar::PredSummary;
use crate::udf::UdfRegistry;
use crate::value::Value;

/// A [`Value`] under representation equality: `Real` compares by bit
/// pattern, and no cross-type coercion applies.
#[derive(PartialEq, Eq, Hash)]
enum ExactValue {
    Null,
    Integer(i64),
    Real(u64),
    Text(String),
}

fn exact_key(row: &Row) -> Vec<ExactValue> {
    row.iter()
        .map(|v| match v {
            Value::Null => ExactValue::Null,
            Value::Integer(i) => ExactValue::Integer(*i),
            Value::Real(f) => ExactValue::Real(f.to_bits()),
            Value::Text(s) => ExactValue::Text(s.clone()),
        })
        .collect()
}

/// Multiset difference `old → new` under representation equality.
/// Rows in `new` not matched by `old` go to `added`; rows in `old` not
/// matched by `new` go to `removed`.
fn diff_rows(old: &[Row], new: &[Row], added: &mut Vec<Row>, removed: &mut Vec<Row>) {
    if old.is_empty() {
        added.extend(new.iter().cloned());
        return;
    }
    if new.is_empty() {
        removed.extend(old.iter().cloned());
        return;
    }
    let mut counts: HashMap<Vec<ExactValue>, i64> = HashMap::with_capacity(old.len());
    for r in old {
        *counts.entry(exact_key(r)).or_insert(0) += 1;
    }
    for r in new {
        match counts.get_mut(&exact_key(r)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => added.push(r.clone()),
        }
    }
    // Positive leftovers are removed instances; recover the actual rows
    // by a second pass over `old`, consuming counts.
    for r in old {
        if let Some(c) = counts.get_mut(&exact_key(r)) {
            if *c > 0 {
                *c -= 1;
                removed.push(r.clone());
            }
        }
    }
}

/// One scan's outcome: the full current row set plus the delta against
/// the previous scan.
#[derive(Debug)]
pub struct DeltaScan {
    /// All filtered rows of the current snapshot, in scan order — exactly
    /// what a full seq scan with the same filter would produce.
    pub rows: Vec<Row>,
    /// Rows present now but not in the previous scan (multiset,
    /// representation equality). Empty when `rebuilt`.
    pub added: Vec<Row>,
    /// Rows present in the previous scan but not now. Empty when
    /// `rebuilt`.
    pub removed: Vec<Row>,
    /// `true` when the scanner had no usable previous state and read
    /// every page; `added`/`removed` are meaningless and incremental
    /// consumers must re-seed from `rows`.
    pub rebuilt: bool,
    /// Heap pages fetched through the source.
    pub pages_read: u64,
    /// Heap pages served from the scanner's cache without a fetch.
    pub pages_skipped: u64,
    /// Heap pages whose sidecar refuted the filter — skipped without a
    /// fetch *and* without cached rows.
    pub pages_pruned: u64,
}

/// Why a whole snapshot iteration needed no page fetch and produced no
/// row delta — the consumer may reuse the previous iteration's output
/// verbatim instead of re-running the post-scan stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Every page was served from the scanner's cache (nothing changed
    /// since the previous snapshot).
    Delta,
    /// The snapshot's changed pages were all refuted by their sidecars:
    /// the work set was non-empty but pruning emptied it.
    Pruned,
}

impl DeltaScan {
    /// `Some(reason)` when this scan read zero heap pages and the row set
    /// is byte-identical to the previous iteration's, so downstream
    /// filtering/projection can be skipped outright. `Pruned` wins over
    /// `Delta` when sidecar refutation is what emptied the fetch list.
    pub fn snapshot_skip(&self) -> Option<SkipReason> {
        if self.rebuilt
            || self.pages_read != 0
            || !self.added.is_empty()
            || !self.removed.is_empty()
        {
            return None;
        }
        if self.pages_pruned > 0 {
            Some(SkipReason::Pruned)
        } else if self.pages_skipped > 0 {
            Some(SkipReason::Delta)
        } else {
            None
        }
    }
}

/// Per-page cached state from the previous scan.
struct CachedPage {
    /// Chain successor as of the cached read.
    next: Option<PageId>,
    /// Filtered rows of the page, in slot order. Immutable once built and
    /// shared by reference count with every [`ScannerSeed`] exported
    /// while the page stays unchanged.
    rows: Arc<Vec<Row>>,
}

/// One page's worth of exported scanner state (see [`ScannerSeed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedPage {
    /// Heap page id.
    pub page: u64,
    /// Chain successor as of the seeding scan.
    pub next: Option<u64>,
    /// Filtered rows of the page, in slot order, shared with the scanner
    /// that exported them and with every other seed the page appears in.
    pub rows: Arc<Vec<Row>>,
}

/// A portable snapshot of a [`DeltaTableScanner`]'s cache, keyed by the
/// (query fingerprint, snapshot) it was exported at. Importing a seed
/// puts a scanner in exactly the state it had after scanning that
/// snapshot, so the *next* scan in chain order stays on the delta path
/// instead of rebuilding — this is what lets a memoized iteration keep
/// the chain warm without re-reading any heap pages. Exporting and
/// importing copy no rows: seeds of consecutive snapshots share the row
/// vector of every page that did not change between them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannerSeed {
    /// Heap root page the cache was built from.
    pub root: u64,
    /// Per-page cache entries, in no particular order.
    pub pages: Vec<SeedPage>,
}

/// A stateful scanner over one table's heap chain that re-reads only
/// changed pages between consecutive scans.
///
/// The cached rows are **post-filter**, so a scanner is only valid for a
/// fixed filter; callers re-creating the filter per scan must guarantee
/// it is equivalent each time (the RQL delta driver compiles it from the
/// same `Qq` text once per loop).
pub struct DeltaTableScanner {
    root: Option<PageId>,
    cache: HashMap<u64, CachedPage>,
    valid: bool,
}

impl Default for DeltaTableScanner {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaTableScanner {
    /// Empty scanner; the first scan is always a rebuild.
    pub fn new() -> Self {
        DeltaTableScanner {
            root: None,
            cache: HashMap::new(),
            valid: false,
        }
    }

    /// Drop all cached state; the next scan rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.root = None;
        self.cache.clear();
        self.valid = false;
    }

    /// Export the cache as a portable seed, or `None` if the scanner has
    /// no usable state (never scanned, or invalidated).
    pub fn export_seed(&self) -> Option<ScannerSeed> {
        let root = match (self.valid, self.root) {
            (true, Some(r)) => r.0,
            _ => return None,
        };
        let pages = self
            .cache
            .iter()
            .map(|(&page, entry)| SeedPage {
                page,
                next: entry.next.map(|p| p.0),
                rows: Arc::clone(&entry.rows),
            })
            .collect();
        Some(ScannerSeed { root, pages })
    }

    /// Replace the scanner's state with an imported seed. The caller
    /// must guarantee the seed was exported for the same table, the same
    /// filter, and the snapshot *preceding* the next scan in chain order
    /// — the scanner itself can only check the root.
    pub fn import_seed(&mut self, seed: &ScannerSeed) {
        self.cache.clear();
        self.root = Some(PageId(seed.root));
        for p in &seed.pages {
            self.cache.insert(
                p.page,
                CachedPage {
                    next: p.next.map(PageId),
                    rows: Arc::clone(&p.rows),
                },
            );
        }
        self.valid = true;
    }

    /// Scan the heap rooted at `root` through `src`, returning filtered
    /// rows plus the delta against the previous scan. Falls back to a
    /// full rebuild when `src` reports no changed set, the root moved, or
    /// the scanner was invalidated.
    ///
    /// When `pred` is non-empty, pages whose sidecar (via
    /// [`PageSource::sidecar_for`]) refutes it are skipped without a
    /// fetch; `pred` must be an over-approximation of `filter` (every
    /// row passing `filter` satisfies every atom of `pred`).
    pub fn scan<S: PageSource>(
        &mut self,
        src: &S,
        root: PageId,
        filter: &dyn Fn(&Row) -> Result<bool>,
        pred: &PredSummary,
    ) -> Result<DeltaScan> {
        let result = self.scan_inner(src, root, filter, pred);
        if result.is_err() {
            // A partial walk may have updated some cache entries but not
            // produced a delta; don't let a retry diff against it.
            self.invalidate();
        }
        result
    }

    fn scan_inner<S: PageSource>(
        &mut self,
        src: &S,
        root: PageId,
        filter: &dyn Fn(&Row) -> Result<bool>,
        pred: &PredSummary,
    ) -> Result<DeltaScan> {
        let use_delta = self.valid && self.root == Some(root) && src.changed_pages().is_some();
        if !use_delta {
            return self.rebuild(src, root, filter, pred);
        }
        let changed = src.changed_pages().expect("checked above");

        let mut rows: Vec<Row> = Vec::new();
        let mut added: Vec<Row> = Vec::new();
        let mut removed: Vec<Row> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut pages_read = 0u64;
        let mut pages_skipped = 0u64;
        let mut pages_pruned = 0u64;
        let mut pid = root;
        loop {
            if !visited.insert(pid.0) {
                return Err(SqlError::Invalid(format!(
                    "heap chain cycle at page {}",
                    pid.0
                )));
            }
            let next = if changed.contains(&pid) || !self.cache.contains_key(&pid.0) {
                if let Some(next) = prune_page(src, pid, pred) {
                    // The sidecar proved no row of this page version can
                    // pass the filter: same outcome as fetching the page
                    // and keeping nothing, minus the fetch.
                    pages_pruned += 1;
                    let old_rows = self
                        .cache
                        .get(&pid.0)
                        .map_or(&[][..], |c| c.rows.as_slice());
                    diff_rows(old_rows, &[], &mut added, &mut removed);
                    self.cache.insert(
                        pid.0,
                        CachedPage {
                            next,
                            rows: Arc::default(),
                        },
                    );
                    match next {
                        Some(n) => {
                            pid = n;
                            continue;
                        }
                        None => break,
                    }
                }
                let page = src.page(pid)?;
                pages_read += 1;
                let mut kept = Vec::new();
                for row in page_rows(&page)? {
                    if filter(&row)? {
                        kept.push(row);
                    }
                }
                let next = page_next(&page);
                let old_rows = self
                    .cache
                    .get(&pid.0)
                    .map_or(&[][..], |c| c.rows.as_slice());
                diff_rows(old_rows, &kept, &mut added, &mut removed);
                rows.extend(kept.iter().cloned());
                self.cache.insert(
                    pid.0,
                    CachedPage {
                        next,
                        rows: Arc::new(kept),
                    },
                );
                next
            } else {
                let entry = &self.cache[&pid.0];
                pages_skipped += 1;
                rows.extend(entry.rows.iter().cloned());
                entry.next
            };
            match next {
                Some(n) => pid = n,
                None => break,
            }
        }
        // Cache entries for pages no longer reachable from the root:
        // their rows left the scan (defensive — the heap never unlinks
        // pages today, but a vacuum would).
        let orphans: Vec<u64> = self
            .cache
            .keys()
            .copied()
            .filter(|k| !visited.contains(k))
            .collect();
        for k in orphans {
            if let Some(entry) = self.cache.remove(&k) {
                removed.extend(entry.rows.iter().cloned());
            }
        }
        Ok(DeltaScan {
            rows,
            added,
            removed,
            rebuilt: false,
            pages_read,
            pages_skipped,
            pages_pruned,
        })
    }

    fn rebuild<S: PageSource>(
        &mut self,
        src: &S,
        root: PageId,
        filter: &dyn Fn(&Row) -> Result<bool>,
        pred: &PredSummary,
    ) -> Result<DeltaScan> {
        self.cache.clear();
        self.root = Some(root);
        let mut rows: Vec<Row> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut pages_read = 0u64;
        let mut pages_pruned = 0u64;
        let mut pid = root;
        loop {
            if !visited.insert(pid.0) {
                return Err(SqlError::Invalid(format!(
                    "heap chain cycle at page {}",
                    pid.0
                )));
            }
            if let Some(next) = prune_page(src, pid, pred) {
                pages_pruned += 1;
                self.cache.insert(
                    pid.0,
                    CachedPage {
                        next,
                        rows: Arc::default(),
                    },
                );
                match next {
                    Some(n) => {
                        pid = n;
                        continue;
                    }
                    None => break,
                }
            }
            let page = src.page(pid)?;
            pages_read += 1;
            let mut kept = Vec::new();
            for row in page_rows(&page)? {
                if filter(&row)? {
                    kept.push(row);
                }
            }
            let next = page_next(&page);
            rows.extend(kept.iter().cloned());
            self.cache.insert(
                pid.0,
                CachedPage {
                    next,
                    rows: Arc::new(kept),
                },
            );
            match next {
                Some(n) => pid = n,
                None => break,
            }
        }
        self.valid = true;
        Ok(DeltaScan {
            rows,
            added: Vec::new(),
            removed: Vec::new(),
            rebuilt: true,
            pages_read,
            pages_pruned,
            pages_skipped: 0,
        })
    }
}

/// Consult `src`'s sidecar for `pid`: `Some(next)` when the sidecar
/// refutes `pred` (the page can be skipped and the chain continued at
/// `next`), `None` when the page must be read — no sidecar, a decode
/// fault, an empty predicate, or a summary that can't rule the page out.
fn prune_page<S: PageSource>(src: &S, pid: PageId, pred: &PredSummary) -> Option<Option<PageId>> {
    if pred.is_empty() {
        return None;
    }
    let sc = src.sidecar_for(pid)?;
    if sc.refutes(pred) {
        src.count_page_pruned();
        Some(sc.next)
    } else {
        None
    }
}

/// Does the compiled expression call a user-defined function anywhere?
/// UDFs may close over external state (the RQL loop-body pattern), so a
/// filter containing one cannot be assumed stable across scans.
fn contains_udf(c: &CExpr) -> bool {
    match c {
        CExpr::Const(_) | CExpr::Col(_) | CExpr::Agg(_) => false,
        CExpr::Unary(_, e) | CExpr::IsNull(e, _) => contains_udf(e),
        CExpr::Binary(_, a, b) | CExpr::Like(a, b, _) => contains_udf(a) || contains_udf(b),
        CExpr::Func { udf, args, .. } => udf.is_some() || args.iter().any(contains_udf),
        CExpr::InList(e, list, _) => contains_udf(e) || list.iter().any(contains_udf),
        CExpr::Between(e, lo, hi, _) => contains_udf(e) || contains_udf(lo) || contains_udf(hi),
        CExpr::Case {
            operand,
            arms,
            else_branch,
        } => {
            operand.as_deref().is_some_and(contains_udf)
                || arms.iter().any(|(w, t)| contains_udf(w) || contains_udf(t))
                || else_branch.as_deref().is_some_and(contains_udf)
        }
    }
}

/// Drives a [`DeltaTableScanner`] for one `SELECT` shape, deciding per
/// catalog whether the delta path can reproduce the ordinary plan.
///
/// The delta path is taken only when the ordinary planner would pick a
/// plain seq scan of a single table: one FROM table, no joins, no native
/// index satisfying an equality conjunct (an index scan visits rows in
/// key order, and byte-identical output requires identical row order),
/// and no UDF calls in the WHERE clause (their results may vary between
/// scans). On any other shape [`DeltaSelectRunner::scan`] returns
/// `Ok(None)` and the caller must run the ordinary path.
pub struct DeltaSelectRunner {
    scanner: DeltaTableScanner,
}

impl Default for DeltaSelectRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaSelectRunner {
    /// Fresh runner with an empty scanner.
    pub fn new() -> Self {
        DeltaSelectRunner {
            scanner: DeltaTableScanner::new(),
        }
    }

    /// Drop cached scan state (e.g. after a fallback execution that the
    /// scanner did not observe).
    pub fn invalidate(&mut self) {
        self.scanner.invalidate();
    }

    /// Export the underlying scanner's state (see
    /// [`DeltaTableScanner::export_seed`]).
    pub fn export_seed(&self) -> Option<ScannerSeed> {
        self.scanner.export_seed()
    }

    /// Import scanner state previously exported at the preceding
    /// snapshot of the chain (see [`DeltaTableScanner::import_seed`]).
    pub fn import_seed(&mut self, seed: &ScannerSeed) {
        self.scanner.import_seed(seed);
    }

    /// Structural eligibility: a single FROM table and no joins. Cheap
    /// pre-check; [`Self::scan`] still re-verifies against the catalog.
    pub fn eligible_shape(select: &SelectStmt) -> bool {
        select.from.len() == 1 && select.joins.is_empty()
    }

    /// Scan the FROM table through the delta scanner, applying all WHERE
    /// conjuncts. Returns `Ok(None)` — after invalidating the scanner —
    /// when the ordinary planner would not use a plain seq scan here.
    pub fn scan<S: PageSource>(
        &mut self,
        select: &SelectStmt,
        src: &S,
        catalog: &Catalog,
        udfs: &UdfRegistry,
    ) -> Result<Option<DeltaScan>> {
        if !Self::eligible_shape(select) {
            self.scanner.invalidate();
            return Ok(None);
        }
        let info = catalog.require_table(&select.from[0].name)?.clone();
        let alias = select.from[0].binding().to_ascii_lowercase();
        let mut scope = Scope::empty();
        scope.push(
            &alias,
            info.schema.columns.iter().map(|c| c.name.clone()).collect(),
        );

        let mut ast_conjuncts = Vec::new();
        if let Some(w) = &select.where_clause {
            exec::collect_conjuncts(w, &mut ast_conjuncts);
        }
        let mut compiled: Vec<CExpr> = Vec::with_capacity(ast_conjuncts.len());
        for c in ast_conjuncts {
            compiled.push(compile(c, &scope, udfs, None)?);
        }
        for c in &compiled {
            if contains_udf(c) {
                self.scanner.invalidate();
                return Ok(None);
            }
            // Mirror scan_base_table's probe detection: an equality
            // conjunct over an indexed column makes the planner take an
            // index scan, whose row order a chain walk cannot reproduce.
            if let Some((off, _)) = exec::equality_probe(c) {
                let col = &info.schema.columns[off].name;
                if catalog.index_on_column(&info.schema.name, col).is_some() {
                    self.scanner.invalidate();
                    return Ok(None);
                }
            }
        }
        // Single-table scope: compiled `Col` offsets *are* table column
        // indices, so the refutable summary uses col_base 0.
        let pred = PredSummary::from_conjuncts(compiled.iter(), 0);
        let filter = |row: &Row| -> Result<bool> {
            for c in &compiled {
                if !eval(c, row, &[])?.is_truthy() {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        self.scanner.scan(src, info.root, &filter, &pred).map(Some)
    }
}

/// Run the post-scan stages of `select` (projection/aggregation,
/// DISTINCT, ORDER BY, LIMIT) over already-filtered base rows in scan
/// order. This is [`exec::finish_select`] — the same code the ordinary
/// plan runs — so the output is byte-identical to a full execution whose
/// scan produced `rows`.
pub fn finish_over_rows(
    select: &SelectStmt,
    rows: Vec<Row>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<(Vec<String>, Vec<Row>)> {
    let info = catalog.require_table(&select.from[0].name)?;
    let alias = select.from[0].binding().to_ascii_lowercase();
    let cols: Vec<String> = info.schema.columns.iter().map(|c| c.name.clone()).collect();
    let mut scope = Scope::empty();
    scope.push(&alias, cols.clone());
    let written = vec![(alias, cols)];
    exec::finish_select(select, rows, &scope, &written, udfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, ExecOutcome};
    use crate::parser::parse_select;
    use rql_pagestore::PagerConfig;
    use rql_retro::RetroConfig;

    fn small_page_db() -> std::sync::Arc<Database> {
        Database::in_memory(RetroConfig {
            pager: PagerConfig {
                page_size: 256,
                cache_capacity: 1024,
                wal_sync_on_commit: false,
            },
            ..RetroConfig::new()
        })
    }

    fn snapshot(db: &Database) -> u64 {
        db.declare_snapshot().unwrap()
    }

    #[test]
    fn diff_rows_multiset_and_representation() {
        let old = vec![
            vec![Value::Integer(1)],
            vec![Value::Integer(1)],
            vec![Value::Integer(2)],
        ];
        let new = vec![
            vec![Value::Integer(1)],
            vec![Value::Integer(3)],
            vec![Value::Real(2.0)],
        ];
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        diff_rows(&old, &new, &mut added, &mut removed);
        // One Integer(1) and the Integer(2) leave; Integer(3) and
        // Real(2.0) arrive — Integer(2) vs Real(2.0) are SQL-equal but
        // NOT representation-equal, and must show up in the delta.
        assert_eq!(added, vec![vec![Value::Integer(3)], vec![Value::Real(2.0)]]);
        assert_eq!(
            removed,
            vec![vec![Value::Integer(1)], vec![Value::Integer(2)]]
        );
    }

    #[test]
    fn rebuild_matches_ordinary_scan() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        for i in 0..40 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
                .unwrap();
        }
        let select = parse_select("SELECT a, b FROM t WHERE a >= 10").unwrap();
        let expected = db.query("SELECT a, b FROM t WHERE a >= 10").unwrap();

        let view = db.store().current_view();
        let catalog = Catalog::load(&view).unwrap();
        let udfs = UdfRegistry::new();
        let mut runner = DeltaSelectRunner::new();
        let scan = runner
            .scan(&select, &view, &catalog, &udfs)
            .unwrap()
            .expect("seq-scannable shape");
        assert!(scan.rebuilt);
        assert_eq!(scan.pages_skipped, 0);
        let (cols, rows) = finish_over_rows(&select, scan.rows, &catalog, &udfs).unwrap();
        assert_eq!(cols, expected.columns);
        assert_eq!(rows, expected.rows);
    }

    #[test]
    fn delta_scan_skips_unchanged_pages_and_matches_full_scan() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        for i in 0..60 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'padpadpad-{i}')"))
                .unwrap();
        }
        let s1 = snapshot(&db);
        // Touch a single row: only its page(s) plus the root may change.
        db.execute("UPDATE t SET b = 'CHANGED' WHERE a = 30")
            .unwrap();
        let s2 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2]).unwrap();
        let select = parse_select("SELECT a, b FROM t").unwrap();
        let udfs = UdfRegistry::new();
        let mut runner = DeltaSelectRunner::new();

        let catalog1 = Catalog::load(&readers[0]).unwrap();
        let scan1 = runner
            .scan(&select, &readers[0], &catalog1, &udfs)
            .unwrap()
            .unwrap();
        assert!(scan1.rebuilt);
        let total_pages = scan1.pages_read;
        assert!(total_pages > 3, "want a multi-page heap, got {total_pages}");

        let catalog2 = Catalog::load(&readers[1]).unwrap();
        let scan2 = runner
            .scan(&select, &readers[1], &catalog2, &udfs)
            .unwrap()
            .unwrap();
        assert!(!scan2.rebuilt);
        assert!(
            scan2.pages_skipped > 0,
            "expected unchanged pages to be skipped (read {}, skipped {})",
            scan2.pages_read,
            scan2.pages_skipped
        );
        assert!(scan2.pages_read < total_pages);

        // Rows must equal a from-scratch AS OF scan, in order.
        let expected = db.query_as_of(s2, "SELECT a, b FROM t").unwrap();
        assert_eq!(scan2.rows, expected.rows);

        // The delta must describe exactly the one update.
        assert_eq!(
            scan2.added,
            vec![vec![Value::Integer(30), Value::text("CHANGED")]]
        );
        assert_eq!(
            scan2.removed,
            vec![vec![Value::Integer(30), Value::text("padpadpad-30")]]
        );
    }

    #[test]
    fn delta_scan_sees_inserts_and_deletes() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..30 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let s1 = snapshot(&db);
        db.execute("INSERT INTO t VALUES (100)").unwrap();
        db.execute("DELETE FROM t WHERE a = 5").unwrap();
        let s2 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2]).unwrap();
        let select = parse_select("SELECT a FROM t").unwrap();
        let udfs = UdfRegistry::new();
        let mut runner = DeltaSelectRunner::new();
        let c1 = Catalog::load(&readers[0]).unwrap();
        runner
            .scan(&select, &readers[0], &c1, &udfs)
            .unwrap()
            .unwrap();
        let c2 = Catalog::load(&readers[1]).unwrap();
        let scan2 = runner
            .scan(&select, &readers[1], &c2, &udfs)
            .unwrap()
            .unwrap();
        assert_eq!(scan2.added, vec![vec![Value::Integer(100)]]);
        assert_eq!(scan2.removed, vec![vec![Value::Integer(5)]]);
        let expected = db.query_as_of(s2, "SELECT a FROM t").unwrap();
        assert_eq!(scan2.rows, expected.rows);
    }

    #[test]
    fn seed_export_import_keeps_chain_delta() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        for i in 0..60 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'padpadpad-{i}')"))
                .unwrap();
        }
        let s1 = snapshot(&db);
        db.execute("UPDATE t SET b = 'CHANGED' WHERE a = 30")
            .unwrap();
        let s2 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2]).unwrap();
        let select = parse_select("SELECT a, b FROM t").unwrap();
        let udfs = UdfRegistry::new();

        // Scan s1, export, and continue on a *fresh* runner via the seed.
        let mut seeder = DeltaSelectRunner::new();
        let c1 = Catalog::load(&readers[0]).unwrap();
        seeder
            .scan(&select, &readers[0], &c1, &udfs)
            .unwrap()
            .unwrap();
        let seed = seeder.export_seed().expect("seed after scan");

        let mut fresh = DeltaSelectRunner::new();
        assert!(fresh.export_seed().is_none(), "fresh scanner has no seed");
        fresh.import_seed(&seed);
        let c2 = Catalog::load(&readers[1]).unwrap();
        let scan2 = fresh
            .scan(&select, &readers[1], &c2, &udfs)
            .unwrap()
            .unwrap();
        assert!(!scan2.rebuilt, "imported seed must keep the delta path");
        assert!(scan2.pages_skipped > 0);
        let expected = db.query_as_of(s2, "SELECT a, b FROM t").unwrap();
        assert_eq!(scan2.rows, expected.rows);
        assert_eq!(
            scan2.added,
            vec![vec![Value::Integer(30), Value::text("CHANGED")]]
        );
        assert_eq!(
            scan2.removed,
            vec![vec![Value::Integer(30), Value::text("padpadpad-30")]]
        );
    }

    #[test]
    fn filter_applies_before_caching() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..30 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let s1 = snapshot(&db);
        db.execute("UPDATE t SET a = 200 WHERE a = 2").unwrap();
        let s2 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2]).unwrap();
        let select = parse_select("SELECT a FROM t WHERE a < 100").unwrap();
        let udfs = UdfRegistry::new();
        let mut runner = DeltaSelectRunner::new();
        let c1 = Catalog::load(&readers[0]).unwrap();
        runner
            .scan(&select, &readers[0], &c1, &udfs)
            .unwrap()
            .unwrap();
        let c2 = Catalog::load(&readers[1]).unwrap();
        let scan2 = runner
            .scan(&select, &readers[1], &c2, &udfs)
            .unwrap()
            .unwrap();
        // 2 → 200 leaves the filtered set entirely; nothing is added.
        assert_eq!(scan2.added, Vec::<Row>::new());
        assert_eq!(scan2.removed, vec![vec![Value::Integer(2)]]);
        let expected = db.query_as_of(s2, "SELECT a FROM t WHERE a < 100").unwrap();
        assert_eq!(scan2.rows, expected.rows);
    }

    #[test]
    fn index_probe_shape_bails_to_ordinary_path() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("CREATE INDEX idx_a ON t (a)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        let view = db.store().current_view();
        let catalog = Catalog::load(&view).unwrap();
        let udfs = UdfRegistry::new();
        let mut runner = DeltaSelectRunner::new();

        // Equality over the indexed column → planner uses the index.
        let probed = parse_select("SELECT * FROM t WHERE a = 1").unwrap();
        assert!(runner
            .scan(&probed, &view, &catalog, &udfs)
            .unwrap()
            .is_none());

        // Range predicate over the same column stays a seq scan.
        let ranged = parse_select("SELECT * FROM t WHERE a > 0").unwrap();
        assert!(runner
            .scan(&ranged, &view, &catalog, &udfs)
            .unwrap()
            .is_some());

        // Joins are never delta-scanned.
        let joined = parse_select("SELECT * FROM t, t t2").unwrap();
        assert!(runner
            .scan(&joined, &view, &catalog, &udfs)
            .unwrap()
            .is_none());
    }

    #[test]
    fn where_udf_bails() {
        let db = small_page_db();
        db.register_udf("always_true", |_| Ok(Value::Integer(1)));
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let view = db.store().current_view();
        let catalog = Catalog::load(&view).unwrap();
        let select = parse_select("SELECT a FROM t WHERE always_true()").unwrap();
        // Compile against the database's registry (which knows the UDF).
        let outcome = db.execute("SELECT a FROM t WHERE always_true()").unwrap();
        assert!(matches!(outcome, ExecOutcome::Rows(_)));
        let mut runner = DeltaSelectRunner::new();
        let udfs_with = {
            let mut r = UdfRegistry::new();
            r.register("always_true", |_| Ok(Value::Integer(1)));
            r
        };
        assert!(runner
            .scan(&select, &view, &catalog, &udfs_with)
            .unwrap()
            .is_none());
    }
}
