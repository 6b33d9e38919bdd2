//! Differential tests for zone-map/bloom sidecar pruning.
//!
//! * **Pruned = unpruned** — over arbitrary snapshot histories, a
//!   session with filter columns declared (sidecars built, rebuilt,
//!   and consulted on every Qq scan and every DELETE/UPDATE victim scan)
//!   must hold the same table after every statement, answer every
//!   `AS OF` the same, and produce byte-identical result tables to an
//!   oracle session issuing semantically identical SQL whose WHERE is
//!   opaque to pruning (the filter column wrapped in arithmetic/concat,
//!   so no predicate atom is ever extracted). Histories include
//!   transactions whose DML reads pages the transaction itself staged.
//!   Runs across all four mechanisms, every `DeltaPolicy`, and memo
//!   on/off.
//! * **Adversarial sidecars** — a sidecar builder that emits garbage
//!   bytes must never change a result: decode fails, the page degrades
//!   to an ordinary counted read.
//! * **Positive controls** — a selective predicate over a declared
//!   filter column actually prunes pages, on the read path and on the
//!   write path, and a snapshot whose changed pages are all refuted is
//!   counted as a pruned snapshot; filter columns are the store's, and a
//!   grown set reaches page versions that were already summarized.

use std::sync::Arc;

use proptest::prelude::*;

use rql::{AggOp, DeltaPolicy, RqlSession};
use rql_memo::{MemoConfig, MemoStore};
use rql_retro::{RetroConfig, RetroStore};
use rql_sqlengine::{Database, Row};

// ---- fixtures -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    Delete(u8),
    Update(u8, i64),
    Snapshot,
    /// `BEGIN; …; COMMIT` (`COMMIT WITH SNAPSHOT` when `true`): DML in
    /// it reads the pages earlier statements of it staged.
    Txn(Vec<Op>, bool),
}

fn dml_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -1000i64..1000).prop_map(|(k, v)| Op::Insert(k % 12, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 12)),
        (any::<u8>(), -1000i64..1000).prop_map(|(k, v)| Op::Update(k % 12, v)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => dml_strategy(),
        1 => Just(Op::Snapshot),
        1 => (proptest::collection::vec(dml_strategy(), 1..5), any::<bool>())
            .prop_map(|(ops, snap)| Op::Txn(ops, snap)),
    ]
}

/// The SQL statements of one op, with `key(k)` as the WHERE that selects
/// key `k`.
fn op_sql(op: &Op, key: &dyn Fn(u8) -> String) -> Vec<String> {
    match op {
        Op::Insert(k, v) => vec![
            format!("DELETE FROM kv WHERE {}", key(*k)),
            format!("INSERT INTO kv VALUES ({k}, {v}, 'x{k}')"),
        ],
        Op::Delete(k) => vec![format!("DELETE FROM kv WHERE {}", key(*k))],
        Op::Update(k, v) => vec![format!("UPDATE kv SET v = {v} WHERE {}", key(*k))],
        Op::Snapshot => vec!["BEGIN; COMMIT WITH SNAPSHOT".into()],
        Op::Txn(ops, snap) => {
            let mut sql = vec!["BEGIN".to_owned()];
            sql.extend(ops.iter().flat_map(|op| op_sql(op, key)));
            let commit = if *snap {
                "COMMIT WITH SNAPSHOT"
            } else {
                "COMMIT"
            };
            sql.push(commit.into());
            sql
        }
    }
}

/// Reads both sessions must answer alike, as (pruned, oracle) SQL: the
/// whole table, and the prunable reads the mechanisms run below. Keys
/// are unique, so ordering by the first column is total.
const READS: [(&str, &str); 4] = [
    ("SELECT k, v, t FROM kv", "SELECT k, v, t FROM kv"),
    QQ_AGGTABLE,
    QQ_BLOOM,
    QQ_INTERVALS,
];

fn read(session: &RqlSession, sid: Option<u64>, sql: &str) -> Vec<Row> {
    let sql = format!("{sql} ORDER BY 1");
    let result = match sid {
        Some(sid) => session.snap_db().query_as_of(sid, &sql),
        None => session.query(&sql),
    };
    result.expect("read").rows
}

/// Replay one op sequence into two fresh sessions in step: the oracle,
/// whose every WHERE is `k + 0 = K` and which never learns a filter
/// column, and the pruned one, whose WHERE is the bare `k = K` and which
/// declares filter columns up front (the DDL-hint path), so every commit
/// carries sidecars and every victim scan consults them. Their reads must
/// agree after every statement — inside transactions too, where they go
/// through the transaction — and at every snapshot (`AS OF`).
fn build_pair(ops: &[Op]) -> (Arc<RqlSession>, Arc<RqlSession>) {
    let mk = || {
        let session = RqlSession::with_defaults().expect("session");
        session
            .execute("CREATE TABLE kv (k INTEGER, v INTEGER, t TEXT)")
            .expect("create");
        session
    };
    let (oracle, pruned) = (mk(), mk());
    pruned
        .snap_db()
        .declare_filter_columns("kv", &["k", "v", "t"])
        .expect("declare filter columns");
    let mut ops = ops.to_vec();
    ops.push(Op::Snapshot);
    for op in &ops {
        let want = op_sql(op, &|k| format!("k + 0 = {k}"));
        let got = op_sql(op, &|k| format!("k = {k}"));
        for (w, g) in want.iter().zip(&got) {
            oracle.execute(w).expect("oracle statement");
            pruned.execute(g).expect("pruned statement");
            for (p, o) in READS {
                assert_eq!(
                    read(&pruned, None, p),
                    read(&oracle, None, o),
                    "{p} after {g}"
                );
            }
        }
    }
    for sid in 1..=oracle.snap_db().store().snapshot_count() {
        for (p, o) in READS {
            assert_eq!(
                read(&pruned, Some(sid), p),
                read(&oracle, Some(sid), o),
                "{p} AS OF {sid}"
            );
        }
    }
    (oracle, pruned)
}

const QS: &str = "SELECT snap_id FROM SnapIds";

/// Qq pairs: `.0` is prunable (bare column vs constant, so the sidecars
/// can refute pages), `.1` is the semantically identical opaque form
/// (`+ 0` / `|| ''` defeats atom extraction without changing a single
/// row: integer arithmetic is exact here and NULLs filter identically).
const QQ_COLLATE: (&str, &str) = (
    "SELECT k, v FROM kv WHERE v >= 0",
    "SELECT k, v FROM kv WHERE v + 0 >= 0",
);
const QQ_BLOOM: (&str, &str) = (
    "SELECT k FROM kv WHERE t = 'x3'",
    "SELECT k FROM kv WHERE t || '' = 'x3'",
);
const QQ_AGGVAR: (&str, &str) = (
    "SELECT SUM(v) FROM kv WHERE v < 0",
    "SELECT SUM(v) FROM kv WHERE v - 0 < 0",
);
const QQ_AGGTABLE: (&str, &str) = (
    "SELECT k, v FROM kv WHERE k <= 6",
    "SELECT k, v FROM kv WHERE k + 0 <= 6",
);
const QQ_INTERVALS: (&str, &str) = (
    "SELECT k FROM kv WHERE v BETWEEN -500 AND 500",
    "SELECT k FROM kv WHERE v + 0 BETWEEN -500 AND 500",
);

/// Run every mechanism under `policy`, with `pick` choosing
/// the prunable or the opaque Qq variant, returning each result table's
/// rows in a canonical order.
fn run_mechanisms(
    session: &Arc<RqlSession>,
    policy: DeltaPolicy,
    tag: &str,
    pick: impl Fn((&'static str, &'static str)) -> &'static str,
) -> Vec<Vec<Row>> {
    let mut out = Vec::new();
    let read = |table: &str, order: &str| -> Vec<Row> {
        session
            .query_aux(&format!("SELECT * FROM {table} ORDER BY {order}"))
            .expect("read back")
            .rows
    };

    session
        .collate_data_with_policy(QS, pick(QQ_COLLATE), &format!("c{tag}"), policy)
        .expect("collate");
    out.push(read(&format!("c{tag}"), "k, v"));

    session
        .collate_data_with_policy(QS, pick(QQ_BLOOM), &format!("b{tag}"), policy)
        .expect("collate bloom");
    out.push(read(&format!("b{tag}"), "k"));

    session
        .aggregate_data_in_variable_with_policy(
            QS,
            pick(QQ_AGGVAR),
            &format!("a{tag}"),
            AggOp::Max,
            policy,
        )
        .expect("aggvar");
    out.push(read(&format!("a{tag}"), "1"));

    session
        .aggregate_data_in_table_with_policy(
            QS,
            pick(QQ_AGGTABLE),
            &format!("t{tag}"),
            &[("v".to_owned(), AggOp::Min)],
            policy,
        )
        .expect("aggtable");
    out.push(read(&format!("t{tag}"), "k"));

    session
        .collate_data_into_intervals_with_policy(QS, pick(QQ_INTERVALS), &format!("i{tag}"), policy)
        .expect("intervals");
    out.push(read(&format!("i{tag}"), "k, start_snapshot, end_snapshot"));
    out
}

// ---- pruned = unpruned ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pruned_matches_unpruned_for_all_policies(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        for (pi, policy) in [DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced]
            .into_iter()
            .enumerate()
        {
            // Oracle: no declared filter columns *and* opaque predicates,
            // so neither DDL-hint nor auto-inferred sidecars can ever
            // refute a page for it.
            let (oracle, pruned) = build_pair(&ops);

            let want = run_mechanisms(&oracle, policy, &format!("_{pi}_0"), |q| q.1);
            let got = run_mechanisms(&pruned, policy, &format!("_{pi}_0"), |q| q.0);
            prop_assert_eq!(&got, &want, "pruned run diverged under {:?}", policy);

            // Memo on: cold populates, warm replays — still identical.
            let memo = Arc::new(MemoStore::new(MemoConfig::default()));
            pruned.set_memo(Some(Arc::clone(&memo)));
            let cold = run_mechanisms(&pruned, policy, &format!("_{pi}_1"), |q| q.0);
            let want_again = run_mechanisms(&oracle, policy, &format!("_{pi}_1"), |q| q.1);
            prop_assert_eq!(&cold, &want_again, "memo-cold pruned run diverged under {:?}", policy);
            let warm = run_mechanisms(&pruned, policy, &format!("_{pi}_2"), |q| q.0);
            let want_warm = run_mechanisms(&oracle, policy, &format!("_{pi}_2"), |q| q.1);
            prop_assert_eq!(&warm, &want_warm, "memo-warm pruned run diverged under {:?}", policy);
            pruned.set_memo(None);
        }
    }
}

// ---- adversarial sidecars -------------------------------------------------

const HISTORY_HEAD: &str = "\
    INSERT INTO kv VALUES (1, 10, 'x1'), (2, 20, 'x2'), (3, -30, 'x3');\n\
    BEGIN; COMMIT WITH SNAPSHOT;\n\
    UPDATE kv SET v = 21 WHERE k = 2;\n\
    BEGIN; COMMIT WITH SNAPSHOT;";

const HISTORY_TAIL: &str = "\
    DELETE FROM kv WHERE k = 3;\n\
    INSERT INTO kv VALUES (4, -40, 'x4'), (5, 50, 'x5');\n\
    BEGIN; COMMIT WITH SNAPSHOT;\n\
    UPDATE kv SET v = 51 WHERE k = 5;\n\
    BEGIN; COMMIT WITH SNAPSHOT;";

fn adversarial_pair() -> (Arc<RqlSession>, Arc<RqlSession>) {
    let mk = || {
        let s = RqlSession::with_defaults().expect("session");
        s.execute("CREATE TABLE kv (k INTEGER, v INTEGER, t TEXT)")
            .expect("create");
        s.execute(HISTORY_HEAD).expect("history head");
        s
    };
    (mk(), mk())
}

#[test]
fn garbage_sidecar_builder_degrades_to_full_reads() {
    let (oracle, evil) = adversarial_pair();
    evil.snap_db()
        .declare_filter_columns("kv", &["k", "v", "t"])
        .expect("declare");
    // From here on every committed page gets a sidecar that cannot
    // decode (wrong magic, wrong length, no checksum). A store keeps the
    // builder it has, so auto-inference never replaces this one.
    evil.snap_db()
        .store()
        .set_sidecar_builder(Arc::new(|_, _, _| Some(vec![0xAB; 17])));
    oracle.execute(HISTORY_TAIL).expect("tail");
    evil.execute(HISTORY_TAIL).expect("tail");

    for policy in [DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced] {
        let tag = format!("_g{policy:?}");
        let want = run_mechanisms(&oracle, policy, &tag, |q| q.1);
        let got = run_mechanisms(&evil, policy, &tag, |q| q.0);
        assert_eq!(
            got, want,
            "garbage sidecars changed results under {policy:?}"
        );
    }
}

/// The committed sidecar of the table's one page refutes keys 9 and 10,
/// but inside each transaction an INSERT stages that page with the key
/// before a DELETE or UPDATE looks for it: a victim scan that pruned a
/// staged page by its committed sidecar would miss the row.
#[test]
fn dml_never_prunes_a_page_its_transaction_staged() {
    build_pair(&[
        Op::Insert(1, 10),
        Op::Insert(2, 20),
        Op::Snapshot,
        Op::Txn(vec![Op::Insert(9, 90), Op::Delete(9)], true),
        Op::Txn(vec![Op::Insert(10, 100), Op::Update(10, 7)], false),
        Op::Txn(
            vec![Op::Update(1, 11), Op::Insert(11, 5), Op::Delete(11)],
            true,
        ),
    ]);
}

// ---- positive control -----------------------------------------------------

#[test]
fn selective_predicate_prunes_pages_and_snapshots() {
    let session = RqlSession::with_defaults().expect("session");
    session
        .execute("CREATE TABLE wide (a INTEGER, b INTEGER)")
        .expect("create");
    session
        .snap_db()
        .declare_filter_columns("wide", &["a"])
        .expect("declare");
    // Enough rows that the a < 10 band and the a >= 1500 band live on
    // disjoint heap pages.
    for chunk in 0..20 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let a = chunk * 100 + i;
                format!("({a}, {})", a * 7)
            })
            .collect();
        session
            .execute(&format!("INSERT INTO wide VALUES {}", rows.join(", ")))
            .expect("insert");
    }
    session.declare_snapshot(None).expect("snapshot");
    // Two more snapshots whose changed pages only hold a >= 1500 — fully
    // refutable for the a < 10 scan below.
    for round in 0..2 {
        session
            .execute(&format!(
                "UPDATE wide SET b = b + {} WHERE a >= 1500",
                round + 1
            ))
            .expect("update");
        session.declare_snapshot(None).expect("snapshot");
    }

    let io = session.snap_db().io_stats();
    let before = io.snapshot();
    session
        .collate_data_with_policy(
            QS,
            "SELECT a, b FROM wide WHERE a < 10",
            "ctrl",
            DeltaPolicy::Forced,
        )
        .expect("collate");
    let after = io.snapshot();
    assert!(
        after.pages_pruned > before.pages_pruned,
        "selective scan should prune pages: {after:?}"
    );
    assert!(
        after.snapshots_pruned > before.snapshots_pruned,
        "snapshots whose changed pages are all refuted should be counted as pruned: {after:?}"
    );
    let rows = session
        .query_aux("SELECT COUNT(*) FROM ctrl")
        .expect("count")
        .rows;
    // 10 matching rows per snapshot × 3 snapshots.
    assert_eq!(rows[0][0].as_i64(), Some(30));
}

/// The write-path twin of the control above: a key-range DELETE teaches
/// the table its key column, and the next one skips every page whose
/// sidecar refutes its range, decoding only the page that holds it.
#[test]
fn key_range_delete_prunes_pages() {
    let db = Database::in_memory(RetroConfig::new());
    db.execute("CREATE TABLE wide (a INTEGER, b INTEGER)")
        .expect("create");
    for chunk in 0..20 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let a = chunk * 100 + i;
                format!("({a}, {})", a * 7)
            })
            .collect();
        db.execute(&format!("INSERT INTO wide VALUES {}", rows.join(", ")))
            .expect("insert");
    }
    let page_size = db.store().pager().config().page_size as u64;
    let pages = db.table_size_bytes("wide").expect("size") / page_size;
    assert!(pages > 2, "want a multi-page heap, got {pages} pages");
    let delete = |lo: i64| {
        let before = db.io_stats().snapshot();
        let sql = format!("DELETE FROM wide WHERE a >= {lo} AND a < {}", lo + 10);
        let outcome = db.execute(&sql).expect("delete");
        assert!(
            matches!(outcome, rql::ExecOutcome::Affected(10)),
            "{outcome:?}"
        );
        db.io_stats().snapshot().delta(&before).pages_pruned
    };
    assert_eq!(
        delete(0),
        0,
        "no sidecars before the first key-range DELETE"
    );
    assert_eq!(db.filter_columns("wide"), Some(vec![0]));
    assert_eq!(delete(10), pages - 1, "all but the page holding 10..20");
    let count = db.query("SELECT COUNT(*) FROM wide").expect("count");
    assert_eq!(count.rows[0][0].as_i64(), Some(1980));
}

/// Two facades over one store learn one column each; a commit then
/// rebuilds a page's sidecar, and it must summarize both, or the first
/// facade's scans stop pruning the page.
#[test]
fn filter_columns_are_one_set_per_store() {
    let store = RetroStore::in_memory(RetroConfig::new());
    let a = Database::over_store(Arc::clone(&store));
    let b = Database::over_store(store);
    a.execute("CREATE TABLE t (x INTEGER, y INTEGER)")
        .expect("create");
    a.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .expect("insert");
    let s1 = a.declare_snapshot().expect("snapshot");
    a.query_as_of(s1, "SELECT x FROM t WHERE x < 0")
        .expect("A learns x");
    b.query_as_of(s1, "SELECT y FROM t WHERE y < 0")
        .expect("B learns y");
    assert_eq!(a.filter_columns("t"), Some(vec![0, 1]));
    assert_eq!(b.filter_columns("t"), a.filter_columns("t"));
    // Rewrites the table's one page; its new sidecar comes from the
    // store's builder.
    b.execute("UPDATE t SET y = y + 1").expect("update");
    let s2 = b.declare_snapshot().expect("snapshot");
    let scan = a
        .query_as_of(s2, "SELECT x FROM t WHERE x > 100")
        .expect("scan");
    assert!(scan.rows.is_empty());
    assert!(
        scan.stats.io.pages_pruned > 0,
        "the rewritten page lost A's column: {:?}",
        scan.stats.io
    );
}

/// A column learned after a page version was summarized must reach that
/// version: the archived one (rewritten since) and the current one.
#[test]
fn a_grown_filter_set_reaches_summarized_page_versions() {
    let db = Database::in_memory(RetroConfig::new());
    db.execute("CREATE TABLE t (x INTEGER, y INTEGER)")
        .expect("create");
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .expect("insert");
    let s1 = db.declare_snapshot().expect("snapshot");
    db.query_as_of(s1, "SELECT x FROM t WHERE x < 0")
        .expect("learn x");
    // Archives s1's version of the page with its x-only sidecar; s2's
    // version is the current one, summarized at commit over x only.
    db.execute("UPDATE t SET y = y + 1").expect("update");
    let s2 = db.declare_snapshot().expect("snapshot");
    db.query_as_of(s2, "SELECT x FROM t WHERE y < 0")
        .expect("learn y");
    for sid in [s1, s2] {
        let scan = db
            .query_as_of(sid, "SELECT x FROM t WHERE y > 1000")
            .expect("scan");
        assert!(
            scan.stats.io.pages_pruned > 0,
            "AS OF {sid} read a page its y-range refutes: {:?}",
            scan.stats.io
        );
    }
}
