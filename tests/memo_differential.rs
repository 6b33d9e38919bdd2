//! Differential tests for the Qq memoization store.
//!
//! * **Memoized = recomputed** — over arbitrary snapshot histories, a
//!   session with a memo attached must produce byte-identical result
//!   tables to a memo-free session running the same program, across all
//!   four mechanisms and every `DeltaPolicy`, both cold (populating the
//!   cache) and warm (serving from it).
//! * **Entries outlive commits and cross sessions** — a snapshot's Qq
//!   result is a function of the snapshot alone, so later commits and
//!   other sessions of the same store must hit it, and a hit must not
//!   touch storage.
//! * **Entries never cross stores or incarnations** — snapshot ids
//!   restart in every store and can be re-declared after a lost tail.
//! * **Pages are shared by version** — the delta scanner's page entries
//!   serve any snapshot holding the same page version, and only that:
//!   `Forced` with the memo leaves the tables `Off` without it does.

use std::sync::Arc;

use proptest::prelude::*;

use rql::{snapids, AggOp, DeltaPolicy, RqlReport, RqlSession};
use rql_memo::{MemoConfig, MemoStore};
use rql_pagestore::{LogStorage, MemStorage, PagerConfig};
use rql_retro::{RetroConfig, RetroStore};
use rql_sqlengine::{Database, Row, Value};

// ---- fixtures -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    Delete(u8),
    Update(u8, i64),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -1000i64..1000).prop_map(|(k, v)| Op::Insert(k % 12, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 12)),
        (any::<u8>(), -1000i64..1000).prop_map(|(k, v)| Op::Update(k % 12, v)),
        Just(Op::Snapshot),
    ]
}

/// Replay one op sequence into a fresh session, ending with at least one
/// declared snapshot so every mechanism loop has an iteration.
fn build_session(ops: &[Op]) -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().expect("session");
    session
        .execute("CREATE TABLE kv (k INTEGER, v INTEGER)")
        .expect("create");
    let mut declared = 0usize;
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                session
                    .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                    .expect("dedup");
                session
                    .execute(&format!("INSERT INTO kv VALUES ({k}, {v})"))
                    .expect("insert");
            }
            Op::Delete(k) => {
                session
                    .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                    .expect("delete");
            }
            Op::Update(k, v) => {
                session
                    .execute(&format!("UPDATE kv SET v = {v} WHERE k = {k}"))
                    .expect("update");
            }
            Op::Snapshot => {
                session.declare_snapshot(None).expect("snapshot");
                declared += 1;
            }
        }
    }
    if declared == 0 {
        session.declare_snapshot(None).expect("snapshot");
    }
    session
}

const QS: &str = "SELECT snap_id FROM SnapIds";

/// Run every mechanism under `policy` into uniquely named
/// result tables, returning each table's rows in a canonical order.
fn run_mechanisms(session: &Arc<RqlSession>, policy: DeltaPolicy, tag: &str) -> Vec<Vec<Row>> {
    run_mechanisms_reported(session, policy, tag).0
}

/// [`run_mechanisms`], plus each mechanism's report in the same order.
fn run_mechanisms_reported(
    session: &Arc<RqlSession>,
    policy: DeltaPolicy,
    tag: &str,
) -> (Vec<Vec<Row>>, Vec<RqlReport>) {
    let mut out = Vec::new();
    let mut reports = Vec::new();
    let read = |table: &str, order: &str| -> Vec<Row> {
        session
            .query_aux(&format!("SELECT * FROM {table} ORDER BY {order}"))
            .expect("read back")
            .rows
    };

    let report = session
        .collate_data_with_policy(QS, "SELECT k, v FROM kv", &format!("c{tag}"), policy)
        .expect("collate");
    reports.push(report);
    out.push(read(&format!("c{tag}"), "k, v"));

    let report = session
        .aggregate_data_in_variable_with_policy(
            QS,
            "SELECT SUM(v) FROM kv",
            &format!("a{tag}"),
            AggOp::Max,
            policy,
        )
        .expect("aggvar");
    reports.push(report);
    out.push(read(&format!("a{tag}"), "1"));

    let report = session
        .aggregate_data_in_table_with_policy(
            QS,
            "SELECT k, v FROM kv",
            &format!("t{tag}"),
            &[("v".to_owned(), AggOp::Min)],
            policy,
        )
        .expect("aggtable");
    reports.push(report);
    out.push(read(&format!("t{tag}"), "k"));

    let report = session
        .collate_data_into_intervals_with_policy(QS, "SELECT k FROM kv", &format!("i{tag}"), policy)
        .expect("intervals");
    reports.push(report);
    out.push(read(&format!("i{tag}"), "k, start_snapshot, end_snapshot"));
    (out, reports)
}

// ---- memoized = recomputed ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn memoized_matches_recomputed_for_all_policies(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        for (pi, policy) in [DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced]
            .into_iter()
            .enumerate()
        {
            let plain = build_session(&ops);
            let memoized = build_session(&ops);
            let memo = Arc::new(MemoStore::new(MemoConfig::default()));
            memoized.set_memo(Some(Arc::clone(&memo)));

            let want = run_mechanisms(&plain, policy, &format!("_{pi}_0"));
            // Cold: the memo populates while producing live results.
            let cold = run_mechanisms(&memoized, policy, &format!("_{pi}_0"));
            prop_assert_eq!(&cold, &want, "cold run diverged under {:?}", policy);
            prop_assert!(memo.stats().inserts > 0, "cold run must populate the memo");

            // Warm: the same Qq set replays out of the cache.
            let warm = run_mechanisms(&memoized, policy, &format!("_{pi}_1"));
            let want_again = run_mechanisms(&plain, policy, &format!("_{pi}_1"));
            prop_assert_eq!(&warm, &want_again, "warm run diverged under {:?}", policy);
            prop_assert!(
                memo.stats().hits > 0,
                "warm run must hit the memo under {:?}: {:?}",
                policy,
                memo.stats()
            );
        }
    }
}

const HISTORY: &str = "\
    CREATE TABLE kv (k INTEGER, v INTEGER);\n\
    INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30);\n\
    BEGIN; COMMIT WITH SNAPSHOT;\n\
    UPDATE kv SET v = 21 WHERE k = 2;\n\
    BEGIN; COMMIT WITH SNAPSHOT;\n\
    DELETE FROM kv WHERE k = 3;\n\
    INSERT INTO kv VALUES (4, 40);\n\
    BEGIN; COMMIT WITH SNAPSHOT;";

// ---- entries outlive commits and cross sessions ---------------------------

fn small_pages() -> RetroConfig {
    RetroConfig {
        pager: PagerConfig {
            page_size: 256,
            cache_capacity: 1024,
            wal_sync_on_commit: false,
        },
        ..RetroConfig::new()
    }
}

/// A `kv` heap of several pages under three snapshots. The updates
/// between them stay in the low keys, so the pages of the high keys are
/// still shared by every snapshot and the current state.
fn paged_history(session: &RqlSession) -> rql::Result<()> {
    session.execute("CREATE TABLE kv (k INTEGER, v INTEGER)")?;
    for k in 0..120 {
        session.execute(&format!("INSERT INTO kv VALUES ({k}, {})", k * 10))?;
    }
    session.declare_snapshot(None)?;
    session.execute("UPDATE kv SET v = 1 WHERE k = 3")?;
    session.declare_snapshot(None)?;
    session.execute("UPDATE kv SET v = 2 WHERE k = 4")?;
    session.declare_snapshot(None)?;
    Ok(())
}

#[test]
fn entries_survive_a_commit_that_archives_shared_pages() {
    for (pi, policy) in [DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced]
        .into_iter()
        .enumerate()
    {
        let plain = RqlSession::new(small_pages()).expect("session");
        let memoized = RqlSession::new(small_pages()).expect("session");
        let memo = Arc::new(MemoStore::new(MemoConfig::default()));
        memoized.set_memo(Some(Arc::clone(&memo)));
        for session in [&plain, &memoized] {
            paged_history(session).expect("history");
        }
        let want = run_mechanisms(&plain, policy, &format!("_{pi}_0"));
        let cold = run_mechanisms(&memoized, policy, &format!("_{pi}_0"));
        assert_eq!(cold, want, "cold run diverged under {policy:?}");

        // The write lands on a page all three snapshots shared with the
        // current state: its pre-state is archived, every old snapshot's
        // page table gains an entry, and no snapshot's content changes.
        for session in [&plain, &memoized] {
            session
                .execute("BEGIN; UPDATE kv SET v = -1 WHERE k = 110; COMMIT WITH SNAPSHOT;")
                .expect("widen");
        }
        let want = run_mechanisms(&plain, policy, &format!("_{pi}_1"));
        let (warm, reports) = run_mechanisms_reported(&memoized, policy, &format!("_{pi}_1"));
        assert_eq!(warm, want, "warm run diverged under {policy:?}");
        for (mi, report) in reports.iter().enumerate() {
            let hits: Vec<bool> = report.iterations.iter().map(|it| it.memo_hit).collect();
            // AggTable (2) runs Collate's Qq, so even its new snapshot
            // was recorded a moment ago.
            assert_eq!(
                hits,
                [true, true, true, mi == 2],
                "mechanism {mi} under {policy:?}"
            );
            // Collate and AggVar scan through the delta scanner under
            // Auto: the one new snapshot finds the pages it shares with
            // the memoized snapshots among the memo's page entries and
            // fetches only what the commit changed.
            if policy == DeltaPolicy::Auto && mi < 2 {
                let new = &report.iterations[3].qq_stats;
                assert_eq!(new.delta_eligible, 1, "mechanism {mi}");
                assert!(
                    new.pages_skipped_delta > 0,
                    "mechanism {mi} shared no page: {new:?}"
                );
            }
        }
    }
}

#[test]
fn a_hit_does_no_storage_work() {
    let session = RqlSession::new(small_pages()).expect("session");
    paged_history(&session).expect("history");
    session
        .execute("UPDATE kv SET v = -1 WHERE k = 110")
        .expect("archive");
    session.set_memo(Some(Arc::new(MemoStore::new(MemoConfig::default()))));
    // The pre-flight analysis reads the current catalog, hit or not.
    session.set_preflight(false);
    session
        .collate_data(QS, "SELECT k, v FROM kv", "h0")
        .expect("cold");
    let before = session.snap_db().io_stats().snapshot();
    let report = session
        .collate_data(QS, "SELECT k, v FROM kv", "h1")
        .expect("warm");
    assert_eq!(report.memo_hits(), 3);
    let io = session.snap_db().io_stats().snapshot().delta(&before);
    assert_eq!(
        (
            io.maplog_entries_scanned,
            io.db_reads,
            io.pagelog_reads,
            io.cache_hits
        ),
        (0, 0, 0, 0),
        "a hit opened its snapshot: {io:?}"
    );
}

#[test]
fn sessions_of_one_store_share_entries() {
    let store = RetroStore::in_memory(RetroConfig::new());
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    let connect = || {
        let snap = Database::over_store(Arc::clone(&store));
        let aux = Database::in_memory(RetroConfig::new());
        let session = RqlSession::over_databases(snap, aux).expect("session");
        session.set_memo(Some(Arc::clone(&memo)));
        session
    };
    let a = connect();
    a.execute(HISTORY).expect("history");
    let b = connect();
    for sid in 1..=3 {
        snapids::record_snapshot(b.aux_db(), sid, "-", None).expect("snapids");
    }
    // A's first query teaches the store a pruning filter column; the set
    // is the store's, so B's database sees it too, and pruning never
    // changes a result, so it must not come between them either way.
    a.collate_data(QS, "SELECT k FROM kv WHERE v > 15", "warmup")
        .expect("infer");
    assert!(a.snap_db().filter_columns("kv").is_some());
    assert_eq!(
        b.snap_db().filter_columns("kv"),
        a.snap_db().filter_columns("kv")
    );
    let cold = a
        .collate_data(QS, "SELECT k, v FROM kv", "shared")
        .expect("a");
    assert_eq!(cold.memo_hits(), 0);
    let warm = b
        .collate_data(QS, "SELECT k, v FROM kv", "shared")
        .expect("b");
    assert_eq!(warm.memo_hits(), 3, "B recomputed what A had recorded");
    let read = |s: &RqlSession| s.query_aux("SELECT * FROM shared").expect("read").rows;
    assert_eq!(read(&a), read(&b));
}

// ---- entries never cross stores or incarnations ---------------------------

#[test]
fn stores_with_identical_histories_never_serve_each_other() {
    // Same statements, same page counts, same transaction and snapshot
    // ids — only the stored values differ.
    let other = HISTORY.replace("(2, 20)", "(2, 25)");
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    let mut tables = Vec::new();
    for history in [HISTORY, other.as_str()] {
        let plain = RqlSession::with_defaults().expect("session");
        plain.execute(history).expect("history");
        let memoized = RqlSession::with_defaults().expect("session");
        memoized.execute(history).expect("history");
        memoized.set_memo(Some(Arc::clone(&memo)));
        let want = run_mechanisms(&plain, DeltaPolicy::Auto, "_x");
        let (got, reports) = run_mechanisms_reported(&memoized, DeltaPolicy::Auto, "_x");
        assert_eq!(got, want, "served another store's rows");
        let hits: u64 = reports.iter().map(RqlReport::memo_hits).sum();
        // Within one store the four mechanisms share two of their Qq.
        assert_eq!(hits, 3, "only AggTable may hit, on Collate's entries");
        tables.push(got);
    }
    assert_ne!(tables[0], tables[1]);
}

#[test]
fn a_reopened_store_misses_what_its_previous_incarnation_memoized() {
    // One memo outlives the store it served: a server that reopens its
    // store in place.
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    let logs: [Arc<MemStorage>; 3] = std::array::from_fn(|_| Arc::new(MemStorage::new()));
    let open = || {
        let [wal, pagelog, maplog] = logs.clone();
        let store = RetroStore::open(RetroConfig::new(), wal, pagelog, maplog).expect("open");
        let snap = Database::over_store(Arc::clone(&store));
        let aux = Database::in_memory(RetroConfig::new());
        let session = RqlSession::over_databases(snap, aux).expect("session");
        for sid in 1..=store.snapshot_count() {
            snapids::record_snapshot(session.aux_db(), sid, "-", None).expect("snapids");
        }
        session.set_memo(Some(Arc::clone(&memo)));
        session
    };
    let collate = |session: &RqlSession| {
        let report = session
            .collate_data(QS, "SELECT k, v FROM kv", "t")
            .expect("collate");
        let rows = session.query_aux("SELECT * FROM t").expect("read").rows;
        (report, rows)
    };
    let row = |k: i64, v: i64| vec![Value::Integer(k), Value::Integer(v)];

    let first = open();
    first
        .execute("CREATE TABLE kv (k INTEGER, v INTEGER); INSERT INTO kv VALUES (1, 10), (2, 20)")
        .expect("load");
    first.declare_snapshot(None).expect("s1");
    let durable = logs.clone().map(|log| log.len());
    first
        .execute("UPDATE kv SET v = 21 WHERE k = 2")
        .expect("v1");
    first.declare_snapshot(None).expect("s2");
    let (_, rows) = collate(&first);
    assert_eq!(rows, [row(1, 10), row(2, 20), row(1, 10), row(2, 21)]);
    let cold = memo.stats();
    assert_eq!((cold.inserts, cold.misses), (2, 2));
    drop(first);

    // The crash loses everything after snapshot 1; the next incarnation
    // declares snapshot 2 again, over different contents.
    for (log, len) in logs.iter().zip(durable) {
        log.truncate(len).expect("lose the tail");
    }
    let second = open();
    assert_eq!(second.snap_db().store().snapshot_count(), 1);
    second
        .execute("UPDATE kv SET v = 99 WHERE k = 2")
        .expect("v2");
    second.declare_snapshot(None).expect("s2 again");
    let (report, rows) = collate(&second);
    assert_eq!(rows, [row(1, 10), row(2, 20), row(1, 10), row(2, 99)]);
    let stats = memo.stats();
    assert_eq!((report.memo_hits(), stats.hits), (0, 0));
    assert_eq!(
        stats.misses - cold.misses,
        2,
        "the previous incarnation's entries are counted misses"
    );
}

// ---- pages are shared by version ----------------------------------------

/// Every mechanism under `Forced` with `memo` attached must leave the
/// tables `Off` leaves without one, on the same session. Returns the
/// `Forced` reports.
fn forced_with_memo_matches_off(
    session: &Arc<RqlSession>,
    memo: &Arc<MemoStore>,
    tag: &str,
) -> Vec<RqlReport> {
    session.set_memo(None);
    let want = run_mechanisms(session, DeltaPolicy::Off, &format!("_off{tag}"));
    session.set_memo(Some(Arc::clone(memo)));
    let (got, reports) =
        run_mechanisms_reported(session, DeltaPolicy::Forced, &format!("_on{tag}"));
    assert_eq!(got, want, "Forced with the memo diverged from Off ({tag})");
    reports
}

/// A page written twice between two declarations is captured once, and
/// the later snapshot reads the second image — under a stamp of its own,
/// not the one the memo holds from scanning the page while it was
/// current.
#[test]
fn a_page_written_twice_between_declarations_is_read_again() {
    let session = RqlSession::new(small_pages()).expect("session");
    paged_history(&session).expect("history");
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    forced_with_memo_matches_off(&session, &memo, "0");
    // k = 110's page is shared by every snapshot and the current state,
    // so the run above memoized it as a current page.
    session
        .execute("UPDATE kv SET v = 7 WHERE k = 110")
        .expect("captured");
    session
        .execute("UPDATE kv SET v = 8 WHERE k = 110")
        .expect("not captured");
    session.declare_snapshot(None).expect("s4");
    let reports = forced_with_memo_matches_off(&session, &memo, "1");
    let new = &reports[0].iterations[3].qq_stats;
    assert!(new.pages_skipped_delta > 0, "{new:?}");
    let rows = session
        .query_aux("SELECT v FROM c_on1 WHERE k = 110")
        .expect("read")
        .rows;
    assert!(rows.contains(&vec![Value::Integer(8)]), "{rows:?}");
}

/// Two stores with identical histories have the same Pagelog offsets and
/// publishing stamps; the memo tells their pages apart by incarnation.
#[test]
fn stores_with_identical_page_versions_never_share_pages() {
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    for v in [1, 2] {
        let session = RqlSession::new(small_pages()).expect("session");
        paged_history(&session).expect("history");
        session
            .execute(&format!("UPDATE kv SET v = {v} WHERE k = 110"))
            .expect("differ");
        session.declare_snapshot(None).expect("s4");
        forced_with_memo_matches_off(&session, &memo, "");
    }
}

/// A reopened store re-declares a lost snapshot over other contents, and
/// its new transactions reuse the lost ones' ids: the page versions
/// repeat, the incarnation does not.
#[test]
fn a_reopened_store_never_reads_pages_of_its_previous_incarnation() {
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    let logs: [Arc<MemStorage>; 3] = std::array::from_fn(|_| Arc::new(MemStorage::new()));
    let open = || {
        let [wal, pagelog, maplog] = logs.clone();
        let store = RetroStore::open(small_pages(), wal, pagelog, maplog).expect("open");
        let snap = Database::over_store(Arc::clone(&store));
        let aux = Database::in_memory(RetroConfig::new());
        let session = RqlSession::over_databases(snap, aux).expect("session");
        for sid in 1..=store.snapshot_count() {
            snapids::record_snapshot(session.aux_db(), sid, "-", None).expect("snapids");
        }
        session
    };
    let first = open();
    paged_history(&first).expect("history");
    let durable = logs.clone().map(|log| log.len());
    for v in [50, 60] {
        if v == 60 {
            for (log, len) in logs.iter().zip(durable) {
                log.truncate(len).expect("lose the tail");
            }
        }
        let session = if v == 50 { Arc::clone(&first) } else { open() };
        session
            .execute(&format!("UPDATE kv SET v = {v} WHERE k = 110"))
            .expect("write");
        session.declare_snapshot(None).expect("s4");
        forced_with_memo_matches_off(&session, &memo, "");
    }
}

/// A fresh computation whose scans are served wholly from memo pages:
/// its second scan fetches nothing, yet holds other rows than its first,
/// so the whole-snapshot skip must not hand the first output out again.
#[test]
fn a_scan_served_from_memo_pages_is_not_taken_for_the_previous_one() {
    let session = RqlSession::new(small_pages()).expect("session");
    session
        .execute("CREATE TABLE kv (k INTEGER, v INTEGER)")
        .expect("create");
    for k in 0..120 {
        session
            .execute(&format!("INSERT INTO kv VALUES ({k}, {})", k * 10))
            .expect("load");
    }
    // Snapshots 1 = 2 and 3 = 4 page for page; one page differs between.
    session.declare_snapshot(None).expect("s1");
    session.declare_snapshot(None).expect("s2");
    session
        .execute("UPDATE kv SET v = -1 WHERE k = 60")
        .expect("change");
    session.declare_snapshot(None).expect("s3");
    session.declare_snapshot(None).expect("s4");
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    session.set_memo(Some(Arc::clone(&memo)));
    let qq = "SELECT k, v FROM kv";
    let odd = "SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 1";
    let even = "SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 0";
    let forced = DeltaPolicy::Forced;
    session
        .collate_data_with_policy(odd, qq, "odd", forced)
        .expect("odd");
    let report = session
        .collate_data_with_policy(even, qq, "even", forced)
        .expect("even");
    assert_eq!(report.memo_hits(), 0);
    for it in &report.iterations {
        // Each scan reads its catalog page, and its heap from the memo.
        assert_eq!(it.qq_stats.io.total_fetches(), 1, "{:?}", it.qq_stats);
    }
    session.set_memo(None);
    session
        .collate_data_with_policy(even, qq, "even_off", DeltaPolicy::Off)
        .expect("off");
    let read = |t: &str| {
        session
            .query_aux(&format!("SELECT * FROM {t}"))
            .expect("read")
    };
    let (got, want) = (read("even"), read("even_off"));
    assert_eq!((got.columns, got.rows), (want.columns, want.rows));
}

/// A memo of a few pages over a table ten times larger: every scan evicts
/// as it goes, the evictions are counted, the resident bytes stay within
/// the budget, and the tables stay those of `Off`.
#[test]
fn a_memo_of_a_few_pages_evicts_and_stays_within_budget() {
    let session = RqlSession::new(small_pages()).expect("session");
    session
        .execute("CREATE TABLE kv (k INTEGER, v INTEGER)")
        .expect("create");
    for k in 0..1000 {
        session
            .execute(&format!("INSERT INTO kv VALUES ({k}, {k})"))
            .expect("load");
    }
    for k in [5, 500, 995] {
        session.declare_snapshot(None).expect("snapshot");
        session
            .execute(&format!("UPDATE kv SET v = -1 WHERE k = {k}"))
            .expect("churn");
    }
    session.declare_snapshot(None).expect("snapshot");
    let pages = (session.snap_db()).table_size_bytes("kv").expect("size") / 256;
    // About four page entries of some twenty rows each.
    let budget = 3400;
    let memo = Arc::new(MemoStore::new(MemoConfig {
        byte_budget: budget,
        ..MemoConfig::default()
    }));
    assert!(pages >= 10 * 4, "{pages} pages");
    for tag in ["0", "1"] {
        forced_with_memo_matches_off(&session, &memo, tag);
        let s = memo.stats();
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.bytes <= budget as u64, "{s:?}");
    }
}
