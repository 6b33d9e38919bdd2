//! Tests for the mechanism variant beyond the paper's main line: the
//! parallel iteration extension (§7's future work). (The sort-merge
//! `AggregateDataInTable` ablation and its tests live in the bench crate,
//! `crates/bench/src/experiments/ablations.rs`.)

use rql::{AggOp, RqlSession, Value};
use std::sync::Arc;

fn history() -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
        .unwrap();
    // 8 snapshots over 12 groups with churn.
    for s in 0..8i64 {
        session.execute("DELETE FROM m").unwrap();
        for g in 0..12i64 {
            if (g + s) % 5 != 0 {
                session
                    .execute(&format!("INSERT INTO m VALUES ({g}, {})", g * 10 + s))
                    .unwrap();
            }
        }
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    }
    session
}

#[test]
fn parallel_collate_matches_sequential() {
    let session = history();
    let qq = "SELECT grp, v, current_snapshot() AS sid FROM m";
    session
        .collate_data("SELECT snap_id FROM SnapIds", qq, "seq_r")
        .unwrap();
    rql::collate_data_parallel(
        session.snap_db(),
        session.aux_db(),
        "SELECT snap_id FROM SnapIds",
        qq,
        "par_r",
        4,
    )
    .unwrap();
    let a = session
        .query_aux("SELECT grp, v, sid FROM seq_r ORDER BY sid, grp")
        .unwrap();
    let b = session
        .query_aux("SELECT grp, v, sid FROM par_r ORDER BY sid, grp")
        .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn parallel_agg_var_matches_sequential() {
    let session = history();
    let qq = "SELECT COUNT(*) FROM m";
    session
        .aggregate_data_in_variable("SELECT snap_id FROM SnapIds", qq, "seq_v", AggOp::Sum)
        .unwrap();
    rql::aggregate_data_in_variable_parallel(
        session.snap_db(),
        session.aux_db(),
        "SELECT snap_id FROM SnapIds",
        qq,
        "par_v",
        AggOp::Sum,
        3,
    )
    .unwrap();
    let a = session.query_aux("SELECT * FROM seq_v").unwrap();
    let b = session.query_aux("SELECT * FROM par_v").unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn parallel_with_one_thread_degenerates_gracefully() {
    let session = history();
    rql::collate_data_parallel(
        session.snap_db(),
        session.aux_db(),
        "SELECT snap_id FROM SnapIds WHERE snap_id <= 2",
        "SELECT grp FROM m",
        "one_thread",
        1,
    )
    .unwrap();
    let n = session.aux_db().table_row_count("one_thread").unwrap();
    assert!(n > 0);
}

#[test]
fn parallel_refuses_existing_table() {
    let session = history();
    session.execute("CREATE TABLE noop (x INTEGER)").unwrap();
    session
        .aux_db()
        .execute("CREATE TABLE taken (x INTEGER)")
        .unwrap();
    let err = rql::collate_data_parallel(
        session.snap_db(),
        session.aux_db(),
        "SELECT snap_id FROM SnapIds",
        "SELECT grp FROM m",
        "taken",
        2,
    );
    assert!(err.is_err());
}

#[test]
fn parallel_qq_panic_becomes_error_with_snapshot_id() {
    let session = history();
    session.snap_db().register_udf("boom", |args| {
        if args[0].as_i64() == Some(3) {
            panic!("injected failure");
        }
        Ok(Value::Integer(1))
    });
    let err = rql::collate_data_parallel(
        session.snap_db(),
        session.aux_db(),
        "SELECT snap_id FROM SnapIds",
        "SELECT boom(grp) FROM m",
        "panic_t",
        4,
    )
    .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("panicked on snapshot"), "{msg}");
    assert!(msg.contains("injected failure"), "{msg}");
    // The panic did not tear down the process or poison the pool: a
    // well-behaved run on the same session still works.
    rql::collate_data_parallel(
        session.snap_db(),
        session.aux_db(),
        "SELECT snap_id FROM SnapIds",
        "SELECT grp FROM m",
        "after_panic",
        4,
    )
    .unwrap();
}

#[test]
fn parallel_rejects_malformed_qs_like_sequential() {
    let session = history();
    // Pre-flight off: both forms must reach (and agree on) the runtime
    // check of what Qs returned.
    session.set_preflight(false);
    for (qs, needle) in [
        ("SELECT 'two'", "non-integer snapshot id: two"),
        ("SELECT snap_id, snap_id FROM SnapIds", "got 2"),
    ] {
        let seq = session
            .collate_data(qs, "SELECT grp FROM m", "bad_seq")
            .unwrap_err();
        let par = rql::collate_data_parallel(
            session.snap_db(),
            session.aux_db(),
            qs,
            "SELECT grp FROM m",
            "bad_par",
            2,
        )
        .unwrap_err();
        assert_eq!(seq.to_string(), par.to_string(), "Qs: {qs}");
        assert!(par.to_string().contains(needle), "{par}");
    }
}
