//! Fault-injection tests: storage failures in the WAL, Pagelog or Maplog
//! must surface as errors — never as silent corruption, panics, or a
//! wedged store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rql_pagestore::{FailingStorage, LogStorage, MemStorage, PagerConfig, StoreError};
use rql_retro::{RetroConfig, RetroStore};
use rql_sqlengine::{Database, Value};

fn config() -> RetroConfig {
    RetroConfig {
        pager: PagerConfig {
            page_size: 1024,
            cache_capacity: 64,
            wal_sync_on_commit: false,
        },
        ..RetroConfig::new()
    }
}

fn store_with(wal_ok: u64, pagelog_ok: u64, fail_reads: bool) -> (Arc<Database>, Arc<MemStorage>) {
    let wal_inner = Arc::new(MemStorage::new());
    let wal = Arc::new(FailingStorage::new(wal_inner.clone(), wal_ok, true, false));
    let pagelog = Arc::new(FailingStorage::new(
        Arc::new(MemStorage::new()),
        pagelog_ok,
        true,
        fail_reads,
    ));
    let maplog = Arc::new(MemStorage::new());
    let store = RetroStore::open(config(), wal, pagelog, maplog).unwrap();
    (Database::over_store(store), wal_inner)
}

#[test]
fn a_failed_catalog_bootstrap_fails_the_first_write() {
    // The WAL refuses the catalog's own commit: opening the database must
    // not panic, the empty store reads as an empty catalog, and every
    // write retries the bootstrap and returns its fault.
    let (db, _) = store_with(0, u64::MAX, false);
    let one = db.query("SELECT 1").unwrap().rows;
    assert_eq!(one, vec![vec![Value::Integer(1)]]);
    for _ in 0..2 {
        let e = db.execute("CREATE TABLE t (a INTEGER)").unwrap_err();
        assert!(e.to_string().contains("injected"), "{e}");
    }
    assert!(db.table_schemas().unwrap().is_empty());
}

#[test]
fn wal_append_failure_fails_the_commit() {
    let (db, _) = store_with(12, u64::MAX, false);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    // Keep inserting until the injected WAL failure hits; the statement
    // must report the error rather than succeed silently.
    let mut failed = false;
    for i in 0..200 {
        match db.execute(&format!("INSERT INTO t VALUES ({i})")) {
            Ok(_) => {}
            Err(e) => {
                assert!(e.to_string().contains("injected"), "{e}");
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "the injected WAL fault never surfaced");
}

#[test]
fn pagelog_append_failure_fails_cow_commit() {
    // COW capture appends to the Pagelog at commit; a failing archive
    // must fail the writing statement.
    let (db, _) = store_with(u64::MAX, 2, false);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let mut failed = false;
    // Re-declare before each write so every commit performs a fresh COW
    // capture (only the first post-declaration modification archives).
    for i in 0..200 {
        let step = db
            .declare_snapshot()
            .map_err(|e| e.to_string())
            .and_then(|_| {
                db.execute(&format!("INSERT INTO t VALUES ({i})"))
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = step {
            assert!(e.contains("injected"), "{e}");
            failed = true;
            break;
        }
    }
    assert!(failed, "the injected Pagelog fault never surfaced");
}

#[test]
fn pagelog_read_failure_fails_snapshot_query_not_current() {
    let (db, _) = store_with(u64::MAX, 6, true);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.declare_snapshot().unwrap();
    db.execute("UPDATE t SET a = 2").unwrap(); // archives pre-states
    db.store().cache().clear();
    // Burn the remaining budget with snapshot reads until reads fail.
    let mut failed = false;
    for _ in 0..50 {
        db.store().cache().clear();
        match db.query("SELECT AS OF 1 a FROM t") {
            Ok(r) => assert_eq!(r.rows[0][0], Value::Integer(1)),
            Err(e) => {
                assert!(e.to_string().contains("injected"), "{e}");
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "the injected read fault never surfaced");
    // Current-state queries never touch the Pagelog: still fine.
    let r = db.query("SELECT a FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2));
}

#[test]
fn store_remains_usable_after_failed_statement() {
    let (db, _) = store_with(14, u64::MAX, false);
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let mut saw_error = false;
    let mut committed = 0u64;
    for i in 0..200 {
        match db.execute(&format!("INSERT INTO t VALUES ({i})")) {
            Ok(_) => {
                if !saw_error {
                    committed += 1;
                }
            }
            Err(_) => {
                saw_error = true;
                break;
            }
        }
    }
    assert!(saw_error);
    // The single-writer token must have been released by the failed
    // transaction: counting still works and sees only committed rows.
    let r = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(committed as i64));
}

/// A commit that fails leaves the sidecars of the pages it wrote in place:
/// those pages still hold their published images, so a later victim scan
/// prunes them like any other.
#[test]
fn a_failed_commit_leaves_its_pages_prunable() {
    let (db, _) = store_with(40, u64::MAX, false);
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.declare_filter_columns("t", &["a"]).unwrap();
    // Fill pages until the WAL runs out: the insert that fails, and every
    // commit after it, publishes nothing.
    let mut loaded = 0;
    loop {
        let rows: Vec<String> = (loaded..loaded + 100)
            .map(|a| format!("({a}, {})", a * 7))
            .collect();
        match db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))) {
            Ok(_) => loaded += 100,
            Err(e) => {
                assert!(e.to_string().contains("injected"), "{e}");
                break;
            }
        }
    }
    let page_size = db.store().pager().config().page_size as u64;
    let pages = db.table_size_bytes("t").unwrap() / page_size;
    assert!(pages > 2, "want a multi-page heap, got {pages} pages");
    // A failed rewrite of every page.
    let e = db.execute("UPDATE t SET b = b + 1").unwrap_err();
    assert!(e.to_string().contains("injected"), "{e}");
    let before = db.io_stats().snapshot();
    let e = db
        .execute("DELETE FROM t WHERE a >= 0 AND a < 10")
        .unwrap_err();
    assert!(e.to_string().contains("injected"), "{e}");
    let pruned = db.io_stats().snapshot().delta(&before).pages_pruned;
    assert_eq!(pruned, pages - 1, "all but the page holding 0..10");
    let count = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(count.rows[0][0], Value::Integer(loaded));
}

/// Log storage that fails one armed append and then works again: a
/// transient fault, after which the store must carry on.
struct OnceFailing {
    inner: MemStorage,
    /// Appends until the failing one (0: disarmed).
    countdown: AtomicU64,
}

impl OnceFailing {
    fn new() -> Self {
        OnceFailing {
            inner: MemStorage::new(),
            countdown: AtomicU64::new(0),
        }
    }

    /// Fail the `nth` append from now (1: the next one).
    fn arm(&self, nth: u64) {
        self.countdown.store(nth, Ordering::SeqCst);
    }

    /// Whether the armed append has not happened yet.
    fn armed(&self) -> bool {
        self.countdown.load(Ordering::SeqCst) > 0
    }
}

impl LogStorage for OnceFailing {
    fn append(&self, bytes: &[u8]) -> rql_pagestore::Result<u64> {
        let hit = self
            .countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok_and(|n| n == 1);
        if hit {
            return Err(StoreError::Io(std::io::Error::other("injected once")));
        }
        self.inner.append(bytes)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rql_pagestore::Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn truncate(&self, offset: u64) -> rql_pagestore::Result<()> {
        self.inner.truncate(offset)
    }

    fn sync(&self) -> rql_pagestore::Result<()> {
        self.inner.sync()
    }
}

struct Logs {
    wal: Arc<OnceFailing>,
    pagelog: Arc<OnceFailing>,
    maplog: Arc<MemStorage>,
}

impl Logs {
    fn open(&self) -> Arc<Database> {
        let store = RetroStore::open(
            config(),
            self.wal.clone(),
            self.pagelog.clone(),
            self.maplog.clone(),
        );
        Database::over_store(store.unwrap_or_else(|e| panic!("open over the logs: {e}")))
    }
}

fn padded(from: i64, to: i64) -> String {
    let rows: Vec<String> = (from..to)
        .map(|i| format!("({i}, 'padding-padding-{i:04}')"))
        .collect();
    format!("INSERT INTO t VALUES {}", rows.join(", "))
}

/// What every check below expects of `t`: rows `0..100` before the
/// snapshot, then the rows the later writes added, and none of the
/// failed write's.
fn check(db: &Database, sid: u64, later: i64, what: &str) {
    let count = |sql: &str| {
        let result = db
            .query(sql)
            .unwrap_or_else(|e| panic!("{what}: {sql}: {e}"));
        result.scalar().cloned()
    };
    assert_eq!(
        count("SELECT COUNT(*) FROM t"),
        Some(Value::Integer(100 + later)),
        "{what}: rows"
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM t WHERE a >= 1000 AND a < 2000"),
        Some(Value::Integer(0)),
        "{what}: the failed write's rows"
    );
    assert_eq!(
        count("SELECT COUNT(DISTINCT a) FROM t"),
        Some(Value::Integer(100 + later)),
        "{what}: distinct rows"
    );
    let old = db.query_as_of(sid, "SELECT COUNT(*) FROM t");
    let old = old.unwrap_or_else(|e| panic!("{what}: snapshot: {e}"));
    assert_eq!(old.scalar(), Some(&Value::Integer(100)), "{what}: snapshot");
}

/// A commit that fails on a transient fault — at every WAL append of the
/// failing write (each page record, then the commit record) and at every
/// Pagelog capture it makes — leaves no trace of its rows, and the store
/// takes the next writes: exact counts, a snapshot declared before the
/// failure still reads its pre-state, and all of it again after a reopen.
/// The failing write appends heap pages, so a free-space map that kept
/// them would aim later inserts outside the heap.
#[test]
fn a_failed_commit_leaves_the_store_writable() {
    for log in ["wal", "pagelog"] {
        for writer in ["sql", "table writer"] {
            for nth in 1.. {
                let logs = Logs {
                    wal: Arc::new(OnceFailing::new()),
                    pagelog: Arc::new(OnceFailing::new()),
                    maplog: Arc::new(MemStorage::new()),
                };
                let db = logs.open();
                db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
                db.execute(&padded(0, 50)).unwrap();
                db.execute(&padded(50, 100)).unwrap();
                let sid = db.declare_snapshot().unwrap();
                let armed = if log == "wal" {
                    &logs.wal
                } else {
                    &logs.pagelog
                };
                armed.arm(nth);
                let failed = match writer {
                    "sql" => db.execute(&padded(1000, 1080)).map(|_| ()),
                    _ => db.with_table_writer("t", |w| {
                        w.load((1000..1080).map(|i| {
                            vec![
                                Value::Integer(i),
                                Value::text(format!("padding-padding-{i:04}")),
                            ]
                        }))
                    }),
                };
                if armed.armed() {
                    // The write made fewer than `nth` appends: every
                    // position has been failed once.
                    armed.arm(0);
                    failed.unwrap();
                    assert!(nth > 1, "{log}/{writer}: the write appended nothing");
                    break;
                }
                let what = format!("{log}/{writer}, append {nth}");
                let err = failed.expect_err(&what);
                assert!(err.to_string().contains("injected once"), "{what}: {err}");
                check(&db, sid, 0, &format!("{what}, after the failure"));
                for i in 0..10 {
                    db.execute(&padded(2000 + 20 * i, 2020 + 20 * i))
                        .unwrap_or_else(|e| panic!("{what}: write {i} after the failure: {e}"));
                }
                db.with_table_writer("t", |w| {
                    w.load((2200..2300).map(|i| vec![Value::Integer(i), Value::text("after")]))
                })
                .unwrap_or_else(|e| panic!("{what}: table writer after the failure: {e}"));
                check(&db, sid, 300, &format!("{what}, after later writes"));
                drop(db);
                let reopened = logs.open();
                check(&reopened, sid, 300, &format!("{what}, reopened"));
                reopened
                    .execute(&padded(3000, 3010))
                    .unwrap_or_else(|e| panic!("{what}: write after reopen: {e}"));
            }
        }
    }
}
