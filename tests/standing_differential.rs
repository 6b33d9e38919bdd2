//! Differential tests for standing-query maintenance.
//!
//! The invariant under test: a result table maintained incrementally by
//! a [`Maintainer`] — seeded at registration, then folded forward one
//! commit at a time — is **byte-identical** (same column names, same
//! rows, same row order) to the table a fresh batch run of the same
//! mechanism produces over the same snapshot history, for every
//! mechanism and against batch runs under every `DeltaPolicy`.
//!
//! The same table must come out of every other way of running the
//! mechanism over that history — the per-row UDF form
//! (`SELECT Mech(snap_id, …) FROM SnapIds`) and the `*_parallel` form
//! where one is defined — because all of them drive one fold from one
//! Qq source. (The `AggregateDataInVariable` UDF form keeps its AVG
//! `(sum, count)` pair in trailing `__avg_sum`/`__avg_cnt` columns — a
//! documented layout difference — so it is compared on the value column.)
//!
//! On top of identity, the pushed [`ResultDelta`] frames must be
//! *sound*: applying the add/remove stream to the seed-time table
//! contents reproduces the final table as a multiset.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use rql::{parse_maintain, AggOp, DeltaPolicy, Maintainer, RqlReport, RqlSession};
use rql_sqlengine::Row;

const QS: &str = "SELECT snap_id FROM SnapIds";

// ---- fixtures -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    DeleteGrp(u8),
    UpdateGrp(u8, i64),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -100i64..100).prop_map(|(g, v)| Op::Insert(g % 8, v)),
        any::<u8>().prop_map(|g| Op::DeleteGrp(g % 8)),
        (any::<u8>(), -100i64..100).prop_map(|(g, v)| Op::UpdateGrp(g % 8, v)),
        Just(Op::Snapshot),
    ]
}

fn apply_op(session: &RqlSession, op: &Op) -> Option<u64> {
    match op {
        Op::Insert(g, v) => {
            session
                .execute(&format!("INSERT INTO m VALUES ({g}, {v})"))
                .expect("insert");
            None
        }
        Op::DeleteGrp(g) => {
            session
                .execute(&format!("DELETE FROM m WHERE grp = {g}"))
                .expect("delete");
            None
        }
        Op::UpdateGrp(g, v) => {
            session
                .execute(&format!("UPDATE m SET v = v + {v} WHERE grp = {g}"))
                .expect("update");
            None
        }
        Op::Snapshot => Some(session.declare_snapshot(None).expect("snapshot")),
    }
}

/// Fresh session over `m (grp, v)` with `prefix` already replayed.
fn session_with(prefix: &[Op]) -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().expect("session");
    session
        .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
        .expect("create");
    let mut snapshots = 0usize;
    for op in prefix {
        if apply_op(&session, op).is_some() {
            snapshots += 1;
        }
    }
    if snapshots == 0 {
        session.declare_snapshot(None).expect("snapshot");
    }
    session
}

/// The mechanism calls under test: the call text that both the
/// standing-query registration and the per-row UDF form wrap, paired with
/// closures running the equivalent batch mechanism into `table` under
/// `policy` and (where defined) on the parallel pool.
struct Mech {
    tag: &'static str,
    /// `Mech(snap_id, 'Qq', '{T}'[, 'spec'])`.
    call: &'static str,
    batch: fn(&RqlSession, &str, DeltaPolicy) -> RqlReport,
    parallel: Option<fn(&RqlSession, &str)>,
}

/// Policies the *batch* comparison runs under. (The maintainer always
/// uses `Auto`; identity must hold against every batch policy.)
const ALL_POLICIES: &[DeltaPolicy] = &[DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced];

const AGGVAR_QQ: &str = "SELECT SUM(v) FROM m";

fn aggvar_batch(s: &RqlSession, t: &str, func: AggOp, p: DeltaPolicy) -> RqlReport {
    s.aggregate_data_in_variable_with_policy(QS, AGGVAR_QQ, t, func, p)
        .expect("batch aggvar")
}

fn aggvar_parallel(s: &RqlSession, t: &str, func: AggOp) {
    let (snap, aux) = (s.snap_db(), s.aux_db());
    rql::aggregate_data_in_variable_parallel(snap, aux, QS, AGGVAR_QQ, t, func, 3)
        .expect("parallel aggvar");
}

fn mechanisms() -> Vec<Mech> {
    vec![
        Mech {
            tag: "collate",
            call: "CollateData(snap_id, 'SELECT grp, v FROM m', '{T}')",
            batch: |s, t, p| {
                s.collate_data_with_policy(QS, "SELECT grp, v FROM m", t, p)
                    .expect("batch collate")
            },
            parallel: Some(|s, t| {
                let (snap, aux) = (s.snap_db(), s.aux_db());
                rql::collate_data_parallel(snap, aux, QS, "SELECT grp, v FROM m", t, 3)
                    .expect("parallel collate");
            }),
        },
        Mech {
            tag: "aggtable",
            // Qq must be unique per grouping key within a snapshot, so
            // pre-aggregate per snapshot and fold the per-snapshot sums.
            call: "AggregateDataInTable(snap_id, \
                   'SELECT grp, SUM(v) AS sv FROM m GROUP BY grp', '{T}', '(sv,sum)')",
            batch: |s, t, p| {
                s.aggregate_data_in_table_with_policy(
                    QS,
                    "SELECT grp, SUM(v) AS sv FROM m GROUP BY grp",
                    t,
                    &[("sv".to_string(), AggOp::Sum)],
                    p,
                )
                .expect("batch aggtable")
            },
            parallel: None,
        },
        Mech {
            tag: "aggvar",
            call: "AggregateDataInVariable(snap_id, 'SELECT SUM(v) FROM m', '{T}', 'sum')",
            batch: |s, t, p| aggvar_batch(s, t, AggOp::Sum, p),
            parallel: Some(|s, t| aggvar_parallel(s, t, AggOp::Sum)),
        },
        // The AVG special case: its UDF form carries companion columns.
        Mech {
            tag: "aggvar_avg",
            call: "AggregateDataInVariable(snap_id, 'SELECT SUM(v) FROM m', '{T}', 'avg')",
            batch: |s, t, p| aggvar_batch(s, t, AggOp::Avg, p),
            parallel: Some(|s, t| aggvar_parallel(s, t, AggOp::Avg)),
        },
        Mech {
            tag: "intervals",
            call: "CollateDataIntoIntervals(snap_id, 'SELECT grp FROM m', '{T}')",
            batch: |s, t, p| {
                s.collate_data_into_intervals_with_policy(QS, "SELECT grp FROM m", t, p)
                    .expect("batch intervals")
            },
            parallel: None,
        },
    ]
}

fn maintain_text(mech: &Mech, table: &str) -> String {
    let call = mech.call.replace("{T}", table);
    format!(
        "MAINTAIN QUERY w_{} AS SELECT {call} FROM SnapIds",
        mech.tag
    )
}

fn register_with_report(
    session: &RqlSession,
    mech: &Mech,
    table: &str,
) -> (Maintainer, Vec<Row>, RqlReport) {
    let spec = parse_maintain(&maintain_text(mech, table))
        .expect("parse maintain")
        .expect("is a MAINTAIN statement");
    let (maintainer, report) = Maintainer::register(session, spec).expect("register");
    let seeded = maintainer.current_result().expect("seed result").rows;
    (maintainer, seeded, report)
}

fn register(session: &RqlSession, mech: &Mech, table: &str) -> (Maintainer, Vec<Row>) {
    let (maintainer, seeded, _) = register_with_report(session, mech, table);
    (maintainer, seeded)
}

fn table_contents(session: &RqlSession, table: &str) -> (Vec<String>, Vec<Row>) {
    let r = session
        .query_aux(&format!("SELECT * FROM {table}"))
        .expect("read back");
    (r.columns, r.rows)
}

fn multiset(rows: &[Row]) -> BTreeMap<String, i64> {
    let mut m = BTreeMap::new();
    for row in rows {
        *m.entry(format!("{row:?}")).or_insert(0) += 1;
    }
    m
}

/// Drive a maintainer through `suffix`, asserting per-frame delta
/// soundness; returns the final maintained contents.
fn drive(
    session: &RqlSession,
    maintainer: &mut Maintainer,
    seeded: Vec<Row>,
    suffix: &[Op],
) -> Vec<Row> {
    let mut shadow = multiset(&seeded);
    for op in suffix {
        let Some(sid) = apply_op(session, op) else {
            continue;
        };
        let delta = maintainer.advance(sid).expect("advance");
        assert_eq!(delta.snap_id, sid);
        for row in &delta.removed {
            let key = format!("{row:?}");
            let n = shadow
                .get_mut(&key)
                .unwrap_or_else(|| panic!("delta removed a row not present in the shadow: {key}"));
            *n -= 1;
            if *n == 0 {
                shadow.remove(&key);
            }
        }
        for row in &delta.added {
            *shadow.entry(format!("{row:?}")).or_insert(0) += 1;
        }
    }
    let table = maintainer.spec().table.clone();
    let (_, rows) = table_contents(session, &table);
    assert_eq!(
        multiset(&rows),
        shadow,
        "replaying the pushed delta frames over the seed must reproduce the \
         maintained table (as a multiset)"
    );
    rows
}

/// The core differential: maintain incrementally through `suffix`, then
/// recompute over the full history every other way — batch under each
/// policy, the per-row UDF form, the parallel form — and demand byte
/// identity of all result tables.
fn check_differential(prefix: &[Op], suffix: &[Op]) {
    check_differential_from(mechanisms(), || session_with(prefix), suffix);
}

fn check_differential_from(
    mechanisms: Vec<Mech>,
    history: impl Fn() -> Arc<RqlSession>,
    suffix: &[Op],
) {
    for mech in mechanisms {
        let session = history();
        let m_table = format!("m_{}", mech.tag);
        let (mut maintainer, seeded) = register(&session, &mech, &m_table);
        drive(&session, &mut maintainer, seeded, suffix);
        let (m_cols, m_rows) = table_contents(&session, &m_table);
        // (path, table, compare on the maintained table's columns only)
        let mut others: Vec<(String, String, bool)> = Vec::new();
        for &policy in ALL_POLICIES {
            let table = format!("b_{}_{policy:?}", mech.tag);
            (mech.batch)(&session, &table, policy);
            others.push((format!("batch under {policy:?}"), table, false));
        }
        let u_table = format!("u_{}", mech.tag);
        let call = mech.call.replace("{T}", &u_table);
        session
            .query_aux(&format!("SELECT {call} FROM SnapIds"))
            .expect("per-row UDF form");
        // The AggVar UDF form's AVG companions trail the value column.
        others.push(("the per-row UDF form".to_string(), u_table, true));
        if let Some(parallel) = mech.parallel {
            let table = format!("p_{}", mech.tag);
            parallel(&session, &table);
            others.push(("the parallel form".to_string(), table, false));
        }
        for (path, table, leading_columns_only) in others {
            let (mut cols, mut rows) = table_contents(&session, &table);
            if leading_columns_only {
                cols.truncate(m_cols.len());
                rows.iter_mut().for_each(|r| r.truncate(m_cols.len()));
            }
            assert_eq!(m_cols, cols, "{}: columns vs {path}", mech.tag);
            assert_eq!(
                m_rows, rows,
                "{}: maintained table must be byte-identical to {path}",
                mech.tag
            );
        }
    }
}

// ---- deterministic cases --------------------------------------------------

/// Churny history exercising the agg-delta remove/re-aggregate path:
/// group 3 shrinks, group 5 disappears entirely, group 1 only grows.
fn churny_prefix() -> Vec<Op> {
    vec![
        Op::Insert(1, 10),
        Op::Insert(3, 30),
        Op::Insert(3, 31),
        Op::Insert(5, 50),
        Op::Snapshot,
        Op::Insert(1, 11),
        Op::UpdateGrp(3, 5),
        Op::Snapshot,
    ]
}

fn churny_suffix() -> Vec<Op> {
    vec![
        Op::Insert(1, 12),
        Op::DeleteGrp(3),
        Op::Insert(3, 300),
        Op::Snapshot,
        Op::DeleteGrp(5),
        Op::Snapshot,
        // A no-change commit: delta maintenance should skip everything.
        Op::Snapshot,
        Op::UpdateGrp(1, 1),
        Op::Snapshot,
    ]
}

#[test]
fn maintained_equals_batch_on_churny_history() {
    check_differential(&churny_prefix(), &churny_suffix());
}

#[test]
fn maintained_equals_batch_with_empty_backlog() {
    // Register before any data exists beyond the mandatory first snapshot.
    check_differential(&[], &churny_suffix());
}

#[test]
fn maintained_equals_batch_when_registered_before_any_snapshot() {
    // A truly empty backlog: the seed pass folds nothing.
    // `AggregateDataInVariable` still stores its (NULL) variable, under a
    // placeholder column until the first Qq output names it; the other
    // mechanisms create T at their first fold, so there is no table to
    // read back before the first commit and they sit this one out.
    let bare = || {
        let session = RqlSession::with_defaults().expect("session");
        session
            .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
            .expect("create");
        session
    };
    let aggvars = mechanisms()
        .into_iter()
        .filter(|m| m.tag.starts_with("aggvar"));
    check_differential_from(aggvars.collect(), bare, &churny_suffix());
}

#[test]
fn out_of_order_and_duplicate_commits_are_ignored() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[0];
    let (mut maintainer, _) = register(&session, mech, "m_dup");
    let sid = session.declare_snapshot(None).expect("snapshot");
    let d1 = maintainer.advance(sid).expect("advance");
    let d2 = maintainer.advance(sid).expect("duplicate advance");
    assert!(d2.added.is_empty() && d2.removed.is_empty());
    let d3 = maintainer.advance(sid - 1).expect("stale advance");
    assert!(d3.added.is_empty() && d3.removed.is_empty());
    let _ = d1;
    let (_, m_rows) = table_contents(&session, "m_dup");
    session
        .collate_data_with_policy(QS, "SELECT grp, v FROM m", "b_dup", DeltaPolicy::Auto)
        .expect("batch");
    let (_, b_rows) = table_contents(&session, "b_dup");
    assert_eq!(m_rows, b_rows);
}

#[test]
fn unregister_and_reregister_mid_stream() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[1]; // aggtable: stateful fold
    let (mut first, seeded) = register(&session, mech, "m_first");
    let early: Vec<Op> = churny_suffix().into_iter().take(4).collect();
    drive(&session, &mut first, seeded, &early);
    drop(first); // unregister: maintenance state discarded
    let late: Vec<Op> = churny_suffix().into_iter().skip(4).collect();
    for op in &late {
        apply_op(&session, op);
    }
    // A re-registration under a fresh table seeds from the full backlog
    // and must agree with a batch run.
    let (second, _) = register(&session, mech, "m_second");
    let (_, m_rows) = table_contents(&session, "m_second");
    (mech.batch)(&session, "b_rereg", DeltaPolicy::Auto);
    let (_, b_rows) = table_contents(&session, "b_rereg");
    assert_eq!(m_rows, b_rows);
    assert!(second.stats().snapshots_seeded > 0);
}

#[test]
fn registration_rejects_existing_result_table() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[0];
    let (_first, _) = register(&session, mech, "taken");
    let spec = parse_maintain(&maintain_text(mech, "taken"))
        .unwrap()
        .unwrap();
    let Err(err) = Maintainer::register(&session, spec) else {
        panic!("second registration over an existing table must fail")
    };
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn maintenance_stats_accumulate() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[1];
    let (mut maintainer, seeded) = register(&session, mech, "m_stats");
    assert_eq!(maintainer.stats().snapshots_seeded, 2);
    drive(&session, &mut maintainer, seeded, &churny_suffix());
    let stats = maintainer.stats();
    assert_eq!(stats.snapshots_maintained, 4);
    assert!(stats.rows_pushed > 0);
}

/// Registration is the batch run kept alive: its seed report must equal
/// the batch report for the same call under `Auto`, iteration by
/// iteration, and it must leave the aux store as the batch run does.
#[test]
fn seed_pass_is_the_batch_pass() {
    // Ten snapshots of backlog, every one changing the table.
    let mut backlog = churny_prefix();
    for i in 0..8 {
        backlog.extend([Op::Insert(i % 5, 7 * i64::from(i)), Op::Snapshot]);
    }
    for mech in mechanisms() {
        let seeded_session = session_with(&backlog);
        let batch_session = session_with(&backlog);
        let (_maintainer, _, seed) = register_with_report(&seeded_session, &mech, "t");
        let batch = (mech.batch)(&batch_session, "t", DeltaPolicy::Auto);
        let digest = |r: &RqlReport| -> Vec<(u64, u64, u64, u64, bool)> {
            let it = r.iterations.iter();
            it.map(|i| {
                (
                    i.snap_id,
                    i.qq_rows,
                    i.result_inserts,
                    i.result_updates,
                    i.memo_hit,
                )
            })
            .collect()
        };
        assert_eq!(seed.iteration_count(), 10, "{}", mech.tag);
        assert_eq!(digest(&seed), digest(&batch), "{}: seed report", mech.tag);
        // T is created exactly once: no dropped-and-recreated tables left
        // behind in the aux store (which never reclaims dropped pages).
        let pages = |s: &RqlSession| s.aux_db().store().pager().page_count();
        assert_eq!(
            pages(&seeded_session),
            pages(&batch_session),
            "{}: aux store pages after seeding vs after the batch run",
            mech.tag
        );
    }
}

// ---- randomized sweep -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized commit streams: any registration point in any history,
    /// maintained tables stay byte-identical to batch recompute for all
    /// mechanisms × batch `DeltaPolicy`s, and delta frames stay sound.
    #[test]
    fn maintained_equals_batch_on_random_histories(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        split in 0usize..40,
    ) {
        let split = split.min(ops.len());
        check_differential(&ops[..split], &ops[split..]);
    }
}
