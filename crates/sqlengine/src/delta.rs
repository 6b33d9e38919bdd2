//! Delta-aware heap scanning across snapshots.
//!
//! The RQL loop evaluates the same `Qq` against every snapshot in the
//! set. Snapshots of a slowly-changing table share most of their heap
//! pages, so re-reading the whole table per iteration wastes the dominant
//! cost of the loop (the Pagelog reads of Figure 8). A
//! [`DeltaTableScanner`] is a cache of filtered rows per page *version*
//! ([`PageSource::version`]: the Pagelog offset of an archived page, or
//! the id and publishing stamp of a page shared with the current
//! database) that the ordinary seq scan ([`crate::exec`]'s scan stage)
//! consults. Two reads under one version read the same bytes, so a page
//! whose version the scanner — or the [`PageCache`] behind it — has seen
//! is neither fetched nor re-filtered, whichever snapshot it was seen at.
//! What is the scanner's own is that cache; chain order, the cycle guard,
//! sidecar pruning and the fetch are the walk's ([`HeapFile::walk`]), and
//! which statements may be served at all is the planner's decision. The
//! delta a scan reports is its pages: a page whose row `Arc` is the
//! previous scan's did not change.
//!
//! Correctness rests on two invariants:
//!
//! * a version names one image, so a cached page's rows **and its cached
//!   `next` pointer** are exactly what reading that version yields;
//! * heap scan order is chain order × slot order, and the walk follows
//!   the chain, so splicing per-page row vectors in walk order reproduces
//!   a full scan's row order byte for byte.
//!
//! The scanner itself keeps the pages of its last scan only; a budgeted
//! store that outlives it (the memo) plugs in as its [`PageCache`].

use std::sync::Arc;

use rql_pagestore::PageId;
use rql_retro::PageVersion;

use crate::error::Result;
use crate::heap::{page_rows, HeapFile, PageVisit};
use crate::pagesource::PageSource;
use crate::record::Row;
use crate::sidecar::PredSummary;
use crate::value::{KeyMap, KeyState};

/// A scan's pages in walk order: page id and the page's filtered rows,
/// empty for a pruned page. The row vectors are the scanner cache's own
/// `Arc`s, so a page served from the cache carries the very `Arc` of the
/// scan that read it.
pub type ScanPages = Vec<(u64, Arc<Vec<Row>>)>;

/// What one scan fetched, served and pruned, and whether its rows are
/// the previous scan's (the scan's rows themselves are its [`ScanPages`]).
#[derive(Debug, Default)]
pub struct DeltaScan {
    /// Heap pages fetched through the source.
    pub pages_read: u64,
    /// Heap pages served from a cache without a fetch.
    pub pages_skipped: u64,
    /// Heap pages whose sidecar refuted the filter — skipped without a
    /// fetch *and* without cached rows.
    pub pages_pruned: u64,
    /// The scanner's previous scan held the same non-empty row vectors
    /// in the same order.
    same_rows: bool,
}

/// Why a whole snapshot iteration's rows are the previous iteration's —
/// the consumer may reuse the previous iteration's output verbatim
/// instead of re-running the post-scan stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Every page holding rows is the previous scan's.
    Delta,
    /// As `Delta`, with pages refuted by their sidecars among the rest.
    Pruned,
}

impl DeltaScan {
    /// `Some(reason)` when this scan's row set is byte-identical to the
    /// previous scan's — the same non-empty page row vectors, by `Arc`,
    /// in the same order; a pruned or emptied page holds nothing either
    /// way — so downstream filtering/projection can be skipped outright.
    /// A page served from a cache but not the previous scan's (a memo
    /// page, say) does not count as the same. `Pruned` wins over `Delta`
    /// when a sidecar refuted a page.
    pub fn snapshot_skip(&self) -> Option<SkipReason> {
        self.same_rows.then_some(if self.pages_pruned > 0 {
            SkipReason::Pruned
        } else {
            SkipReason::Delta
        })
    }
}

/// One page version as a scan left it: its chain successor and its
/// filtered rows, in slot order. Immutable once built; cloning shares
/// the rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPage {
    /// Chain successor in this version.
    pub next: Option<PageId>,
    /// Filtered rows of the page.
    pub rows: Arc<Vec<Row>>,
}

/// Filtered page rows kept beyond one scanner's last scan, by page
/// version. An implementation serves one statement (table, filter and
/// column set) of one store incarnation: the memo keys its entries by
/// the statement's fingerprint and checks the incarnation.
pub trait PageCache: Send {
    /// The page cached under `version`.
    fn get(&self, version: PageVersion) -> Option<CachedPage>;
    /// Keep the pages a scan had to read, once the scan is complete.
    fn put(&self, pages: Vec<(PageVersion, CachedPage)>);
}

/// A cache of one statement's filtered rows per page version, letting a
/// scan re-read only the pages it has not seen.
///
/// The cached rows are **post-filter** and decoded with the statement's
/// column set (unread columns are NULL), so a scanner is only valid for
/// one statement; callers re-creating the filter per scan must guarantee
/// it is equivalent each time (the RQL delta driver compiles it from the
/// same `Qq` text once per loop).
#[derive(Default)]
pub struct DeltaTableScanner {
    /// The last scan's pages, in walk order; `None` before the first scan
    /// and after an invalidation.
    last: Option<ScanPages>,
    /// The last scan's pages by version.
    cache: KeyMap<PageVersion, CachedPage>,
    /// Where pages the last scan did not hold are looked up, and read
    /// ones are kept.
    shared: Option<Box<dyn PageCache>>,
}

impl DeltaTableScanner {
    /// Empty scanner of its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty scanner that looks pages up in `shared` too.
    pub fn sharing(shared: Box<dyn PageCache>) -> Self {
        DeltaTableScanner {
            shared: Some(shared),
            ..Self::default()
        }
    }

    /// Forget the last scan: the next one has nothing to compare with and
    /// finds pages in the shared cache only.
    pub fn invalidate(&mut self) {
        self.last = None;
        self.cache.clear();
    }

    /// Scan the heap rooted at `root` through `src`, decoding the columns
    /// `cols` marks: return the pages with the rows passing `keep`, in scan
    /// order — exactly what a full seq scan with the same filter and column
    /// set would produce — and what the scan fetched, served and pruned.
    /// No row is copied out of the cache. A page is served from the last
    /// scan's pages or the shared cache when `src` names its version, else
    /// pruned or fetched; the scan's pages replace the last scan's, and
    /// the ones it had to read go to the shared cache.
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
        // The new state is installed only after a complete walk: a
        // partial one must not leave anything a retry could reuse.
        let old = std::mem::take(&mut self.cache);
        let last = self.last.take();
        let shared = self.shared.as_deref();
        let mut cache = KeyMap::with_capacity_and_hasher(old.len(), KeyState::default());
        let mut pages = Vec::with_capacity(old.len());
        let mut read = Vec::new();
        let mut scan = DeltaScan::default();
        let mut row = Row::new();
        HeapFile::new(root).walk(
            src,
            pred,
            |pid| {
                let version = src.version(pid)?;
                let hit = (old.get(&version).cloned()).or_else(|| shared?.get(version))?;
                Some((hit.next, (version, hit)))
            },
            |pid, visit, next| {
                let rows = match visit {
                    PageVisit::Cached((version, hit)) => {
                        scan.pages_skipped += 1;
                        pages.push((pid.0, Arc::clone(&hit.rows)));
                        cache.insert(version, hit);
                        return Ok(true);
                    }
                    PageVisit::Pruned => {
                        scan.pages_pruned += 1;
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
                pages.push((pid.0, Arc::clone(&rows)));
                if let Some(version) = src.version(pid) {
                    let page = CachedPage { next, rows };
                    if shared.is_some() {
                        read.push((version, page.clone()));
                    }
                    cache.insert(version, page);
                }
                Ok(true)
            },
        )?;
        scan.same_rows = last.is_some_and(|last| same_rows(&last, &pages));
        if let Some(shared) = shared.filter(|_| !read.is_empty()) {
            shared.put(read);
        }
        self.last = Some(pages.clone());
        self.cache = cache;
        Ok((scan, pages))
    }
}

/// Whether two scans hold the same rows: the same non-empty row vectors,
/// by `Arc`, in the same order. Both lists keep their vectors alive, so
/// an address cannot be reused between them.
fn same_rows(was: &ScanPages, now: &ScanPages) -> bool {
    fn rows(pages: &ScanPages) -> impl Iterator<Item = &Arc<Vec<Row>>> {
        pages
            .iter()
            .map(|(_, rows)| rows)
            .filter(|rows| !rows.is_empty())
    }
    let mut now = rows(now);
    rows(was).all(|w| now.next().is_some_and(|n| Arc::ptr_eq(w, n))) && now.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::exec::Scanned;
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

    /// One reader per snapshot id.
    fn readers(db: &Database, ids: &[u64]) -> Vec<SnapshotReader> {
        (ids.iter())
            .map(|&sid| db.store().open_snapshot(sid).unwrap())
            .collect()
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
        let (delta, pages) = scanned.delta.expect("seq-scannable shape");
        let rows = pages.iter().flat_map(|(_, rows)| rows.iter());
        (rows.cloned().collect(), delta)
    }

    /// A served scan's pages: the cache's own row vectors.
    fn served_pages(scanned: Scanned) -> ScanPages {
        scanned.delta.expect("a served scan hands over its pages").1
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
        let readers = readers(&db, &[s1, s2]);
        let sql = "SELECT a, b FROM t";
        let mut scanner = DeltaTableScanner::new();
        let first = served_pages(scan_stage(&db, &readers[0], sql, &mut scanner));
        let second = served_pages(scan_stage(&db, &readers[1], sql, &mut scanner));
        assert_eq!(second.len(), scanner.cache.len());
        for (pid, rows) in &second {
            let cached = &scanner.cache[&readers[1].version(PageId(*pid)).unwrap()];
            assert!(Arc::ptr_eq(rows, &cached.rows), "page {pid}");
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

        // A fresh scanner has seen no page: it reads them all.
        let reader = db.store().open_snapshot(sid).unwrap();
        let mut scanner = DeltaTableScanner::new();
        let scanned = scan_stage(&db, &reader, sql, &mut scanner);
        let (delta, _) = scanned.delta.as_ref().expect("seq-scannable shape");
        assert!(
            delta.pages_read > 1 && delta.pages_skipped == 0,
            "{delta:?}"
        );
        assert_eq!(delta.snapshot_skip(), None, "nothing to compare with");
        assert_eq!(scanned.plan, vec!["t: delta seq scan"]);
        let result = db.finish_stage(scanned).unwrap();
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

        let readers = readers(&db, &[s1, s2]);
        let sql = "SELECT a, b FROM t";
        let mut scanner = DeltaTableScanner::new();

        let first = scan_stage(&db, &readers[0], sql, &mut scanner);
        let (scan1, first) = first.delta.expect("seq-scannable shape");
        let total_pages = scan1.pages_read;
        assert!(total_pages > 3, "want a multi-page heap, got {total_pages}");

        let second = scan_stage(&db, &readers[1], sql, &mut scanner);
        let (scan2, second) = second.delta.expect("seq-scannable shape");
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
        let rows2: Vec<Row> = (second.iter().flat_map(|(_, rows)| rows.iter()))
            .cloned()
            .collect();
        assert_eq!(rows2, expected.rows);

        // The served pages are the previous scan's vectors; of the fetched
        // ones, exactly the updated row's page holds other rows.
        let (shared, differ) = compare_pages(&first, &second);
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

        let readers = readers(&db, &[s1, s2]);
        let sql = "SELECT a FROM t";
        let mut scanner = DeltaTableScanner::new();
        let (_, scan1) = delta_scan(&db, &readers[0], sql, &mut scanner);
        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut scanner);
        // Only the pages the insert and the delete wrote are fetched.
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

        let readers = readers(&db, &[s1, s2, s3]);
        let sql = "SELECT a FROM t WHERE a >= 0";
        let full = |i: usize| {
            let (rows, scan) = delta_scan(&db, &readers[i], sql, &mut DeltaTableScanner::new());
            assert_eq!(scan.pages_skipped, 0);
            rows
        };
        let mut scanner = DeltaTableScanner::new();
        let (rows1, _) = delta_scan(&db, &readers[0], sql, &mut scanner);

        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut scanner);
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

    /// A page cache shared by scanners, as the memo is.
    #[derive(Clone, Default)]
    struct Shared(Arc<std::sync::Mutex<std::collections::HashMap<PageVersion, CachedPage>>>);

    impl PageCache for Shared {
        fn get(&self, version: PageVersion) -> Option<CachedPage> {
            self.0.lock().unwrap().get(&version).cloned()
        }

        fn put(&self, pages: Vec<(PageVersion, CachedPage)>) {
            self.0.lock().unwrap().extend(pages);
        }
    }

    /// A fresh scanner finds the pages another scanner read in the cache
    /// they share — at any snapshot holding the same page versions, in
    /// any order — and a scan served wholly from it is not taken for its
    /// own previous scan.
    #[test]
    fn a_fresh_scanner_continues_from_shared_pages() {
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
        let readers = readers(&db, &[s2, s1]);
        let sql = "SELECT a, b FROM t";
        let shared = Shared::default();

        // The newer snapshot first, by one scanner; then the older one by
        // a fresh scanner over the same cache.
        let (_, first) = delta_scan(
            &db,
            &readers[0],
            sql,
            &mut DeltaTableScanner::sharing(Box::new(shared.clone())),
        );
        let mut fresh = DeltaTableScanner::sharing(Box::new(shared.clone()));
        let (rows, scan) = delta_scan(&db, &readers[1], sql, &mut fresh);
        assert!(
            scan.pages_skipped > 0 && scan.pages_read < first.pages_read,
            "{scan:?}"
        );
        assert_eq!(scan.snapshot_skip(), None, "no previous scan of its own");
        assert_eq!(rows, db.query_as_of(s1, sql).unwrap().rows);
        assert_eq!(
            shared.0.lock().unwrap().len() as u64,
            first.pages_read + scan.pages_read
        );
        // Back to the newer snapshot: every page comes from the cache, but
        // the rows are not the previous scan's, so nothing is skipped.
        let (rows, scan) = delta_scan(&db, &readers[0], sql, &mut fresh);
        assert_eq!(
            (scan.pages_read, scan.snapshot_skip()),
            (0, None),
            "{scan:?}"
        );
        assert_eq!(rows, db.query_as_of(s2, sql).unwrap().rows);
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

        let readers = readers(&db, &[s1, s2]);
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
        assert!(scanner.cache.values().all(|p| p.rows.is_empty()));
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

        let readers = readers(&db, &[s1, s2, s3, s4]);
        let sql = "SELECT a FROM t WHERE a >= 1000";
        let mut scanner = DeltaTableScanner::new();
        // At s1 no page holds a value ≥ 1000: the rebuild prunes pages
        // and caches them as empty.
        let (rows1, scan1) = delta_scan(&db, &readers[0], sql, &mut scanner);
        assert!(scan1.pages_pruned > 0, "{scan1:?}");
        assert!(rows1.is_empty());
        // At s2 the rewritten page's sidecar no longer refutes the
        // filter: it is fetched, and its new row shows up.
        let (rows2, scan2) = delta_scan(&db, &readers[1], sql, &mut scanner);
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
        let finished = |scanned: Scanned| {
            let result = db.finish_stage(scanned);
            result.unwrap().rows
        };

        // Range predicate over the indexed column stays a seq scan, which
        // the scanner serves.
        let ranged = "SELECT * FROM t WHERE a > 0";
        let scanned = scan_stage(&db, &reader, ranged, &mut scanner);
        assert_eq!(scanned.plan, vec!["t: delta seq scan"]);
        assert!(scanned.delta.is_some() && scanner.last.is_some());
        assert_eq!(finished(scanned), db.query_as_of(sid, ranged).unwrap().rows);

        // Equality over the indexed column → the planner uses the index,
        // once; the scanner did not observe the scan and says so.
        let probed = "SELECT * FROM t WHERE a = 1";
        let scanned = scan_stage(&db, &reader, probed, &mut scanner);
        assert_eq!(scanned.plan, vec!["t: index scan via idx_a"]);
        assert!(scanned.delta.is_none() && scanner.last.is_none());
        assert_eq!(scanned.stats.delta_eligible, 0);
        assert_eq!(finished(scanned), db.query_as_of(sid, probed).unwrap().rows);

        // Joins are never served from the scanner.
        let joined = "SELECT * FROM t, t t2";
        let scanned = scan_stage(&db, &reader, joined, &mut scanner);
        assert_eq!(
            scanned.plan,
            vec!["t: seq scan", "t: nested-loop cross join"]
        );
        assert!(scanned.delta.is_none() && scanner.last.is_none());
        assert_eq!(finished(scanned), db.query_as_of(sid, joined).unwrap().rows);
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
        assert!(scanned.delta.is_none() && scanner.last.is_none());
        let result = db.finish_stage(scanned);
        assert_eq!(result.unwrap().rows, db.query_as_of(sid, sql).unwrap().rows);
    }
}
