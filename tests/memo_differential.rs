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
            // Collate and AggVar read through the chain under Auto: the
            // one new snapshot continues from snapshot 3's memoized seed
            // and fetches only what the commit changed.
            if policy == DeltaPolicy::Auto && mi < 2 {
                let new = &report.iterations[3].qq_stats;
                assert_eq!(new.delta_eligible, 1, "mechanism {mi}");
                assert!(
                    new.pages_skipped_delta > 0,
                    "mechanism {mi} rebuilt: {new:?}"
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
