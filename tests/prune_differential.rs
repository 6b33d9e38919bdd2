//! Differential tests for zone-map/bloom sidecar pruning.
//!
//! * **Pruned = unpruned** — over arbitrary snapshot histories, a
//!   session with filter columns declared (sidecars built, backfilled,
//!   and consulted on every Qq scan) must produce byte-identical result
//!   tables to an oracle session running semantically identical Qq whose
//!   WHERE is opaque to pruning (the filter column wrapped in
//!   arithmetic/concat, so no predicate atom is ever extracted). Runs
//!   across all four mechanisms, every `DeltaPolicy`, and memo on/off.
//! * **Adversarial sidecars** — a sidecar builder that emits garbage
//!   bytes must never change a result: decode fails, the page degrades
//!   to an ordinary counted read. Stale backfill installs (epoch moved)
//!   must be refused.
//! * **Positive control** — a selective predicate over a declared
//!   filter column actually prunes pages, and a snapshot whose changed
//!   pages are all refuted is counted as a pruned snapshot.

use std::sync::Arc;

use proptest::prelude::*;

use rql::{AggOp, DeltaPolicy, RqlSession};
use rql_memo::{MemoConfig, MemoStore};
use rql_sqlengine::Row;

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

/// Replay one op sequence into a fresh session. `declare` turns sidecar
/// pruning on up front (the DDL-hint path), so every commit in the
/// history carries sidecars and current pages are backfilled.
fn build_session(ops: &[Op], declare: bool) -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().expect("session");
    session
        .execute("CREATE TABLE kv (k INTEGER, v INTEGER, t TEXT)")
        .expect("create");
    if declare {
        session
            .snap_db()
            .declare_filter_columns("kv", &["k", "v", "t"])
            .expect("declare filter columns");
    }
    let mut declared = 0usize;
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                session
                    .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                    .expect("dedup");
                session
                    .execute(&format!("INSERT INTO kv VALUES ({k}, {v}, 'x{k}')"))
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
            let oracle = build_session(&ops, false);
            let pruned = build_session(&ops, true);

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
    // decode (wrong magic, wrong length, no checksum). Declared tables
    // are frozen, so auto-inference never replaces this builder.
    evil.snap_db()
        .store()
        .set_sidecar_builder(Arc::new(|_, _| Some(vec![0xAB; 17])));
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

#[test]
fn stale_backfill_install_is_refused() {
    let (_, session) = adversarial_pair();
    let store = session.snap_db().store();
    let stale_epoch = store.sidecar_epoch();
    // A commit moves the epoch; sidecars built against the old pinned
    // view must not land.
    session
        .execute("INSERT INTO kv VALUES (9, 90, 'x9'); BEGIN; COMMIT WITH SNAPSHOT;")
        .expect("commit");
    let pids: Vec<u64> = store.current_sidecars().keys().copied().collect();
    let entries: Vec<(rql_pagestore::PageId, Vec<u8>)> = pids
        .iter()
        .chain(std::iter::once(&u64::MAX))
        .map(|&p| (rql_pagestore::PageId(p), vec![0xCD; 9]))
        .collect();
    assert_eq!(
        store.install_current_sidecars(stale_epoch, entries),
        0,
        "stale-epoch backfill must install nothing"
    );
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
        "fully-refuted changed sets should be counted as pruned snapshots: {after:?}"
    );
    let rows = session
        .query_aux("SELECT COUNT(*) FROM ctrl")
        .expect("count")
        .rows;
    // 10 matching rows per snapshot × 3 snapshots.
    assert_eq!(rows[0][0].as_i64(), Some(30));
}
