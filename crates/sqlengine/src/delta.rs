//! Delta-aware heap scanning between closely-spaced snapshots.
//!
//! The RQL loop evaluates the same `Qq` against every snapshot in the
//! set. Consecutive snapshots of a slowly-changing table share most of
//! their heap pages, so re-reading the whole table per iteration wastes
//! the dominant cost of the loop (the Pagelog reads of Figure 8). A
//! [`DeltaTableScanner`] is a per-page cache of filtered rows that the
//! ordinary seq scan ([`crate::exec`]'s scan stage) consults: it drives
//! the one chain walk ([`HeapFile::walk`]), supplying the successor of
//! every page **outside the changed set** reported by
//! [`PageSource::changed_pages`] (computed from Maplog declarations by
//! `RetroStore::open_snapshot_chain`) from its cache, so only changed
//! pages are fetched and re-filtered. What is the scanner's own is the
//! cache and the portable seed; chain order, the cycle guard, sidecar
//! pruning and the fetch are the walk's, and which statements may be
//! served at all is the planner's decision. The delta a scan reports is
//! its pages: a page whose row `Arc` is the previous scan's did not
//! change.
//!
//! Correctness rests on two invariants:
//!
//! * the changed set is a *conservative superset* of pages whose bytes
//!   differ between the two snapshots, so an unchanged page's cached rows
//!   **and its cached `next` pointer** are still exact;
//! * heap scan order is chain order × slot order, and the walk never
//!   reorders surviving pages, so splicing cached per-page row vectors in
//!   walk order reproduces a full scan's row order byte for byte.
//!
//! When anything is off — no changed set, different root, prior error —
//! the same scan runs with the cache cleared and every page counted as
//! changed, and reports `rebuilt = true` so consumers drop the state
//! they keep per page.

use std::collections::HashMap;
use std::sync::Arc;

use rql_pagestore::PageId;

use crate::error::Result;
use crate::heap::{page_rows, HeapFile, PageVisit};
use crate::pagesource::PageSource;
use crate::record::Row;
use crate::sidecar::PredSummary;

/// A scan's pages in walk order: page id and the page's filtered rows,
/// empty for a pruned page. The row vectors are the scanner cache's own
/// `Arc`s, so a page served from the cache carries the very `Arc` of the
/// scan before.
pub type ScanPages = Vec<(u64, Arc<Vec<Row>>)>;

/// One scan's delta against the scanner's previous scan (the scan's rows
/// themselves are its [`ScanPages`]).
#[derive(Debug, Default)]
pub struct DeltaScan {
    /// `true` when the scanner had no usable previous state and read
    /// every page; consumers must drop the state they keep per page.
    pub rebuilt: bool,
    /// Heap pages fetched through the source.
    pub pages_read: u64,
    /// Heap pages served from the scanner's cache without a fetch.
    pub pages_skipped: u64,
    /// Heap pages whose sidecar refuted the filter — skipped without a
    /// fetch *and* without cached rows.
    pub pages_pruned: u64,
    /// A page pruned now, or no longer reachable, had cached rows: the
    /// row set shrank without a fetch.
    lost_rows: bool,
}

/// Why a whole snapshot iteration needed no page fetch and lost no cached
/// row — the consumer may reuse the previous iteration's output verbatim
/// instead of re-running the post-scan stages.
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
    /// `Some(reason)` when this scan read zero heap pages and lost no
    /// cached row, so its row set is byte-identical to the previous
    /// iteration's and downstream filtering/projection can be skipped
    /// outright. `Pruned` wins over `Delta` when sidecar refutation is
    /// what emptied the fetch list.
    pub fn snapshot_skip(&self) -> Option<SkipReason> {
        if self.rebuilt || self.pages_read != 0 || self.lost_rows {
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

/// A per-page cache of one table's filtered rows, letting a scan re-read
/// only the pages that changed since the previous one.
///
/// The cached rows are **post-filter** and decoded with the statement's
/// column set (unread columns are NULL), so a scanner is only valid for
/// one statement; callers re-creating the filter per scan must guarantee
/// it is equivalent each time (the RQL delta driver compiles it from the
/// same `Qq` text once per loop).
#[derive(Default)]
pub struct DeltaTableScanner {
    /// Heap root the cache describes; `None` = no usable state.
    root: Option<PageId>,
    cache: HashMap<u64, CachedPage>,
}

impl DeltaTableScanner {
    /// Empty scanner; the first scan is always a rebuild.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all cached state; the next scan rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.root = None;
        self.cache.clear();
    }

    /// Export the cache as a portable seed, or `None` if the scanner has
    /// no usable state (never scanned, or invalidated).
    pub fn export_seed(&self) -> Option<ScannerSeed> {
        let root = self.root?.0;
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
    /// must guarantee the seed was exported for the same statement — so
    /// the same table, filter and column set; keying seeds by the
    /// statement's fingerprint does that — and the snapshot *preceding*
    /// the next scan in chain order. The scanner itself can only check
    /// the root.
    pub fn import_seed(&mut self, seed: &ScannerSeed) {
        self.root = Some(PageId(seed.root));
        self.cache = seed
            .pages
            .iter()
            .map(|p| {
                let next = p.next.map(PageId);
                let rows = Arc::clone(&p.rows);
                (p.page, CachedPage { next, rows })
            })
            .collect();
    }

    /// Scan the heap rooted at `root` through `src`, decoding the columns
    /// `cols` marks: return the pages with the rows passing `keep`, in scan
    /// order — exactly what a full seq scan with the same filter and column
    /// set would produce — and what the scan fetched, served and pruned.
    /// No row is copied out of the cache.
    /// Without a usable previous state (never scanned, invalidated, the
    /// root moved, or `src` reports no changed set) the cache starts
    /// empty and every page counts as changed.
    ///
    /// `pred` must over-approximate `keep` (every row passing `keep`
    /// satisfies every atom of `pred`); see [`HeapFile::walk`].
    pub fn scan<S: PageSource>(
        &mut self,
        src: &S,
        root: PageId,
        pred: &PredSummary,
        cols: &[bool],
        mut keep: impl FnMut(&Row) -> Result<bool>,
    ) -> Result<(DeltaScan, ScanPages)> {
        let changed = src.changed_pages().filter(|_| self.root == Some(root));
        let old = match changed {
            Some(_) => std::mem::take(&mut self.cache),
            None => HashMap::new(),
        };
        // The new state is installed only after a complete walk: a
        // partial one must not leave anything a retry could reuse.
        self.invalidate();
        let mut cache = HashMap::with_capacity(old.len());
        let mut pages = Vec::with_capacity(old.len());
        let mut scan = DeltaScan {
            rebuilt: changed.is_none(),
            ..DeltaScan::default()
        };
        let mut row = Row::new();
        HeapFile::new(root).walk(
            src,
            pred,
            |pid| match changed {
                Some(set) if !set.contains(&pid) => old.get(&pid.0).map(|c| c.next),
                _ => None,
            },
            |pid, visit, next| {
                let was = old.get(&pid.0).map(|c| &c.rows);
                let now = match visit {
                    PageVisit::Cached => {
                        scan.pages_skipped += 1;
                        Arc::clone(was.expect("the walk got this page's successor from `old`"))
                    }
                    PageVisit::Pruned => {
                        scan.pages_pruned += 1;
                        scan.lost_rows |= was.is_some_and(|rows| !rows.is_empty());
                        Arc::default()
                    }
                    PageVisit::Fetched(page) => {
                        scan.pages_read += 1;
                        let mut kept = Vec::new();
                        page_rows(page, Some(cols), usize::MAX, &mut row, |_, rec| {
                            if keep(rec.gate())? {
                                kept.push(rec.gate().clone());
                            }
                            Ok(true)
                        })?;
                        Arc::new(kept)
                    }
                };
                pages.push((pid.0, Arc::clone(&now)));
                cache.insert(pid.0, CachedPage { next, rows: now });
                Ok(true)
            },
        )?;
        // Cached pages no longer reachable from the root: their rows
        // left the scan (defensive — the heap never unlinks pages today,
        // but a vacuum would).
        scan.lost_rows |=
            (old.iter()).any(|(pid, c)| !c.rows.is_empty() && !cache.contains_key(pid));
        self.root = Some(root);
        self.cache = cache;
        Ok((scan, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::exec::{ScanRows, Scanned};
    use crate::parser::parse_select;
    use crate::value::Value;
    use rql_pagestore::PagerConfig;
    use rql_retro::{RetroConfig, SnapshotReader};

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

    /// The scan stage of `sql` over `reader`, through the front door.
    fn scan_stage(
        db: &Database,
        reader: &SnapshotReader,
        sql: &str,
        scanner: &mut DeltaTableScanner,
    ) -> Scanned {
        let select = parse_select(sql).unwrap();
        db.scan_stage(reader, &select, Some(scanner)).unwrap()
    }

    /// [`scan_stage`] for a statement the scanner must serve.
    fn delta_scan(
        db: &Database,
        reader: &SnapshotReader,
        sql: &str,
        scanner: &mut DeltaTableScanner,
    ) -> (Vec<Row>, DeltaScan) {
        let scanned = scan_stage(db, reader, sql, scanner);
        let delta = scanned.delta.expect("seq-scannable shape");
        (scanned.rows.iter().cloned().collect(), delta)
    }

    /// A served scan's pages: the cache's own row vectors.
    fn served_pages(scanned: Scanned) -> ScanPages {
        match scanned.rows {
            ScanRows::Pages(pages) => pages,
            ScanRows::Owned(_) => panic!("a served scan hands over its pages"),
        }
    }

    /// A served scan hands the finish stage the cache's own row vectors:
    /// no row is copied on the way, and a page served from the cache is
    /// the very vector of the scan before.
    #[test]
    fn served_rows_stay_on_the_cached_pages() {
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
        let sql = "SELECT a, b FROM t";
        let mut scanner = DeltaTableScanner::new();
        let first = served_pages(scan_stage(&db, &readers[0], sql, &mut scanner));
        let second = served_pages(scan_stage(&db, &readers[1], sql, &mut scanner));
        let cache: HashMap<u64, Arc<Vec<Row>>> = (scanner.export_seed().unwrap().pages)
            .into_iter()
            .map(|p| (p.page, p.rows))
            .collect();
        assert_eq!(second.len(), cache.len());
        for (pid, rows) in &second {
            assert!(Arc::ptr_eq(rows, &cache[pid]), "page {pid}");
        }
        let kept = |(pid, rows): &(u64, Arc<Vec<Row>>)| {
            first
                .iter()
                .any(|(was, old)| was == pid && Arc::ptr_eq(old, rows))
        };
        let reused = second.iter().filter(|p| kept(p)).count();
        assert!(
            reused > 0 && reused < second.len(),
            "{reused} of {}",
            second.len()
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
        let sid = snapshot(&db);
        let sql = "SELECT a, b FROM t WHERE a >= 10";
        let expected = db.query_as_of(sid, sql).unwrap();

        // A lone reader carries no changed set: the scanner rebuilds.
        let reader = db.store().open_snapshot(sid).unwrap();
        let mut scanner = DeltaTableScanner::new();
        let scanned = scan_stage(&db, &reader, sql, &mut scanner);
        let delta = scanned.delta.as_ref().expect("seq-scannable shape");
        assert!(delta.rebuilt);
        assert_eq!(delta.pages_skipped, 0);
        assert_eq!(scanned.plan, vec!["t: delta seq scan"]);
        let result = db
            .finish_stage(&parse_select(sql).unwrap(), scanned)
            .unwrap();
        assert_eq!(result.columns, expected.columns);
        assert_eq!(result.rows, expected.rows);
    }

    /// Which pages of `now` are the very vectors of `was` (served from the
    /// cache), and which hold other rows than the same page in `was`.
    fn compare_pages(was: &ScanPages, now: &ScanPages) -> (usize, usize) {
        let before = |pid: &u64| was.iter().find(|(p, _)| p == pid).map(|(_, rows)| rows);
        let shared = (now.iter())
            .filter(|(pid, rows)| before(pid).is_some_and(|old| Arc::ptr_eq(old, rows)))
            .count();
        let differ = (now.iter())
            .filter(|(pid, rows)| before(pid).is_none_or(|old| old != rows))
            .count();
        (shared, differ)
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
        let sql = "SELECT a, b FROM t";
        let mut scanner = DeltaTableScanner::new();

        let mut first = scan_stage(&db, &readers[0], sql, &mut scanner);
        let scan1 = first.delta.take().expect("seq-scannable shape");
        assert!(scan1.rebuilt);
        let total_pages = scan1.pages_read;
        assert!(total_pages > 3, "want a multi-page heap, got {total_pages}");

        let mut second = scan_stage(&db, &readers[1], sql, &mut scanner);
        let scan2 = second.delta.take().expect("seq-scannable shape");
        assert!(!scan2.rebuilt);
        assert!(
            scan2.pages_skipped > 0,
            "expected unchanged pages to be skipped (read {}, skipped {})",
            scan2.pages_read,
            scan2.pages_skipped
        );
        assert!(scan2.pages_read < total_pages);
        assert_eq!(scan2.snapshot_skip(), None);

        // Rows must equal a from-scratch AS OF scan, in order.
        let expected = db.query_as_of(s2, sql).unwrap();
        let rows2: Vec<Row> = second.rows.iter().cloned().collect();
        assert_eq!(rows2, expected.rows);

        // The served pages are the previous scan's vectors; of the fetched
        // ones, exactly the updated row's page holds other rows.
        let (shared, differ) = compare_pages(&served_pages(first), &served_pages(second));
        assert_eq!(shared as u64, scan2.pages_skipped);
        assert_eq!(differ, 1);
    }

    #[test]
    fn delta_scan_sees_inserts_and_deletes() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let s1 = snapshot(&db);
        db.execute("INSERT INTO t VALUES (100)").unwrap();
        db.execute("DELETE FROM t WHERE a = 5").unwrap();
        let s2 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2]).unwrap();
        let sql = "SELECT a FROM t";
        let mut scanner = DeltaTableScanner::new();
        let (_, scan1) = delta_scan(&db, &readers[0], sql, &mut scanner);
        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut scanner);
        // Only the pages the insert and the delete wrote are fetched.
        assert!(!scan2.rebuilt);
        assert!(scan2.pages_read > 0 && scan2.pages_skipped > 0, "{scan2:?}");
        assert_eq!(scan2.pages_read + scan2.pages_skipped, scan1.pages_read);
        assert_eq!(scan2.snapshot_skip(), None);
        let (rescan, _) = delta_scan(&db, &readers[1], sql, &mut DeltaTableScanner::new());
        assert_eq!(rows2, rescan);
        assert_eq!(rows2, db.query_as_of(s2, sql).unwrap().rows);
        assert!(rows2.contains(&vec![Value::Integer(100)]));
        assert!(!rows2.contains(&vec![Value::Integer(5)]));
    }

    /// A page rewritten only in a column the statement does not read is
    /// fetched again but yields the same narrowed rows. A change in a
    /// column it reads shows in the rows exactly as a full rescan does.
    /// (One page, so an update — a delete plus an insert — stays on it.)
    #[test]
    fn delta_sees_only_the_columns_the_statement_reads() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (0, 'pad-0'), (1, 'pad-1'), (2, 'pad-2'), (3, 'pad-3')")
            .unwrap();
        let s1 = snapshot(&db);
        db.execute("UPDATE t SET b = 'PAD-2' WHERE a = 2").unwrap();
        let s2 = snapshot(&db);
        db.execute("UPDATE t SET a = 30 WHERE a = 3").unwrap();
        let s3 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2, s3]).unwrap();
        let sql = "SELECT a FROM t WHERE a >= 0";
        let full = |i: usize| {
            let (rows, scan) = delta_scan(&db, &readers[i], sql, &mut DeltaTableScanner::new());
            assert!(scan.rebuilt);
            rows
        };
        let mut scanner = DeltaTableScanner::new();
        let (rows1, _) = delta_scan(&db, &readers[0], sql, &mut scanner);

        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut scanner);
        assert!(!scan2.rebuilt, "{scan2:?}");
        assert_eq!((scan2.pages_read, scan2.pages_skipped), (1, 0));
        assert_eq!(rows2, full(1));
        assert_eq!(rows2, rows1);
        // Column `b` was never decoded.
        assert!(rows2.iter().all(|r| r[1] == Value::Null && r.len() == 2));

        let (rows3, scan3) = delta_scan(&db, &readers[2], sql, &mut scanner);
        assert_eq!((scan3.pages_read, scan3.pages_skipped), (1, 0));
        assert_eq!(rows3, full(2));
        assert!(rows3.contains(&vec![Value::Integer(30), Value::Null]));
        assert!(!rows3.contains(&vec![Value::Integer(3), Value::Null]));
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
        let sql = "SELECT a, b FROM t";

        // Scan s1, export, and continue on a *fresh* scanner via the seed.
        let mut seeder = DeltaTableScanner::new();
        let (_, scan1) = delta_scan(&db, &readers[0], sql, &mut seeder);
        let seed = seeder.export_seed().expect("seed after scan");

        let mut fresh = DeltaTableScanner::new();
        assert!(fresh.export_seed().is_none(), "fresh scanner has no seed");
        fresh.import_seed(&seed);
        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut fresh);
        assert!(!scan2.rebuilt, "imported seed must keep the delta path");
        assert!(scan2.pages_skipped > 0);
        assert!(scan2.pages_read < scan1.pages_read);
        let expected = db.query_as_of(s2, sql).unwrap();
        assert_eq!(rows2, expected.rows);
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
        // The constant conjunct is part of the cached filter too.
        let sql = "SELECT a FROM t WHERE a < 100 AND 1 = 1";
        let mut scanner = DeltaTableScanner::new();
        let (rows1, _) = delta_scan(&db, &readers[0], sql, &mut scanner);
        let (rows2, _) = delta_scan(&db, &readers[1], sql, &mut scanner);
        // 2 → 200 leaves the filtered set entirely; nothing is added.
        assert_eq!(rows2.len() + 1, rows1.len());
        assert!(!rows2.contains(&vec![Value::Integer(2)]));
        let expected = db.query_as_of(s2, sql).unwrap();
        assert_eq!(rows2, expected.rows);

        // A constant conjunct that rejects everything rejects every page's
        // rows as well: nothing is cached.
        let sql = "SELECT a FROM t WHERE a < 100 AND 1 = 0";
        let mut scanner = DeltaTableScanner::new();
        delta_scan(&db, &readers[0], sql, &mut scanner);
        let (rows2, _) = delta_scan(&db, &readers[1], sql, &mut scanner);
        assert!(rows2.is_empty());
        let seed = scanner.export_seed().unwrap();
        assert!(seed.pages.iter().all(|p| p.rows.is_empty()));
    }

    /// Sidecar pruning in both directions: a page pruned by a rebuild is
    /// fetched once its sidecar stops refuting the filter, and a page
    /// pruned after it had cached rows lost them — the snapshot is not
    /// skipped — while one pruned with none cached is.
    #[test]
    fn pruned_page_of_a_rebuild_is_unpruned_by_a_later_delta() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.declare_filter_columns("t", &["a"]).unwrap();
        for i in 0..300 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let s1 = snapshot(&db);
        db.execute("UPDATE t SET a = 2000 WHERE a = 30").unwrap();
        let s2 = snapshot(&db);
        db.execute("UPDATE t SET a = 31 WHERE a = 2000").unwrap();
        let s3 = snapshot(&db);
        db.execute("UPDATE t SET a = 32 WHERE a = 31").unwrap();
        let s4 = snapshot(&db);

        let readers = db.store().open_snapshot_chain(&[s1, s2, s3, s4]).unwrap();
        let sql = "SELECT a FROM t WHERE a >= 1000";
        let mut scanner = DeltaTableScanner::new();
        // At s1 no page holds a value ≥ 1000: the rebuild prunes pages
        // and caches them as empty.
        let (rows1, scan1) = delta_scan(&db, &readers[0], sql, &mut scanner);
        assert!(scan1.rebuilt);
        assert!(scan1.pages_pruned > 0, "{scan1:?}");
        assert!(rows1.is_empty());
        // At s2 the rewritten page's sidecar no longer refutes the
        // filter: it is fetched, and its new row shows up.
        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut scanner);
        assert!(!scan2.rebuilt);
        assert!(scan2.pages_read > 0 && scan2.pages_skipped > 0, "{scan2:?}");
        assert_eq!(rows2, vec![vec![Value::Integer(2000)]]);
        assert_eq!(rows2, db.query_as_of(s2, sql).unwrap().rows);
        // At s3 the page is refuted again: pruned, not fetched, and the
        // row it had cached is gone — no skip.
        let (rows3, scan3) = delta_scan(&db, &readers[2], sql, &mut scanner);
        assert_eq!(scan3.pages_read, 0, "{scan3:?}");
        assert!(scan3.pages_pruned > 0, "{scan3:?}");
        assert!(rows3.is_empty() && db.query_as_of(s3, sql).unwrap().rows.is_empty());
        assert_eq!(scan3.snapshot_skip(), None);
        // At s4 the same page is pruned with nothing cached: a skip.
        let (rows4, scan4) = delta_scan(&db, &readers[3], sql, &mut scanner);
        assert_eq!(scan4.pages_read, 0, "{scan4:?}");
        assert!(rows4.is_empty());
        assert_eq!(scan4.snapshot_skip(), Some(SkipReason::Pruned));
    }

    #[test]
    fn index_probe_and_join_run_the_ordinary_plan() {
        let db = small_page_db();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("CREATE INDEX idx_a ON t (a)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let sid = snapshot(&db);
        let reader = db.store().open_snapshot(sid).unwrap();
        let mut scanner = DeltaTableScanner::new();
        let finished = |sql: &str, scanned: Scanned| {
            let result = db.finish_stage(&parse_select(sql).unwrap(), scanned);
            result.unwrap().rows
        };

        // Range predicate over the indexed column stays a seq scan, which
        // the scanner serves.
        let ranged = "SELECT * FROM t WHERE a > 0";
        let scanned = scan_stage(&db, &reader, ranged, &mut scanner);
        assert_eq!(scanned.plan, vec!["t: delta seq scan"]);
        assert!(scanned.delta.is_some() && scanner.export_seed().is_some());
        assert_eq!(
            finished(ranged, scanned),
            db.query_as_of(sid, ranged).unwrap().rows
        );

        // Equality over the indexed column → the planner uses the index,
        // once; the scanner did not observe the scan and says so.
        let probed = "SELECT * FROM t WHERE a = 1";
        let scanned = scan_stage(&db, &reader, probed, &mut scanner);
        assert_eq!(scanned.plan, vec!["t: index scan via idx_a"]);
        assert!(scanned.delta.is_none() && scanner.export_seed().is_none());
        assert_eq!(scanned.stats.delta_eligible, 0);
        assert_eq!(
            finished(probed, scanned),
            db.query_as_of(sid, probed).unwrap().rows
        );

        // Joins are never served from the scanner.
        let joined = "SELECT * FROM t, t t2";
        let scanned = scan_stage(&db, &reader, joined, &mut scanner);
        assert_eq!(
            scanned.plan,
            vec!["t: seq scan", "t: nested-loop cross join"]
        );
        assert!(scanned.delta.is_none() && scanner.export_seed().is_none());
        assert_eq!(
            finished(joined, scanned),
            db.query_as_of(sid, joined).unwrap().rows
        );
    }

    #[test]
    fn where_udf_runs_the_ordinary_plan() {
        let db = small_page_db();
        db.register_udf("always_true", |_| Ok(Value::Integer(1)));
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let sid = snapshot(&db);
        let reader = db.store().open_snapshot(sid).unwrap();
        let mut scanner = DeltaTableScanner::new();
        let sql = "SELECT a FROM t WHERE always_true()";
        let scanned = scan_stage(&db, &reader, sql, &mut scanner);
        assert_eq!(scanned.plan, vec!["t: seq scan"]);
        assert!(scanned.delta.is_none() && scanner.export_seed().is_none());
        let result = db.finish_stage(&parse_select(sql).unwrap(), scanned);
        assert_eq!(result.unwrap().rows, db.query_as_of(sid, sql).unwrap().rows);
    }
}
