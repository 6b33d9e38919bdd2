//! RQL mechanism tests reproducing every worked example in paper §2–§3
//! on the LoggedIn history of Figures 1–2.

use rql::{AggOp, RqlSession, Value};
use std::sync::Arc;

/// Build the exact history of Figures 1–3: snapshots S1, S2, S3 with the
/// LoggedIn states shown in Figure 1.
fn paper_history() -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().unwrap();
    // Deterministic SnapIds timestamps matching Figure 2.
    let counter = std::sync::atomic::AtomicUsize::new(0);
    session.set_clock(move || {
        let timestamps = [
            "2008-11-09 23:59:59",
            "2008-11-10 23:59:59",
            "2008-11-11 23:59:59",
        ];
        let i = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        timestamps[i.min(2)].to_owned()
    });
    session
        .execute("CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)")
        .unwrap();
    session
        .execute(
            "INSERT INTO LoggedIn VALUES \
             ('UserA', '2008-11-09 13:23:44', 'USA'), \
             ('UserB', '2008-11-09 15:45:21', 'UK'), \
             ('UserC', '2008-11-09 15:45:21', 'USA')",
        )
        .unwrap();
    session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap(); // S1
    session
        .execute(
            "BEGIN; \
             DELETE FROM LoggedIn WHERE l_userid = 'UserA'; \
             UPDATE LoggedIn SET l_time = '2008-11-09 21:33:12' WHERE l_userid = 'UserC'; \
             COMMIT WITH SNAPSHOT;",
        )
        .unwrap(); // S2
    session
        .execute(
            "BEGIN; \
             INSERT INTO LoggedIn (l_userid, l_time, l_country) \
             VALUES ('UserD', '2008-11-11 10:08:04', 'UK'); \
             COMMIT WITH SNAPSHOT;",
        )
        .unwrap(); // S3
    session
}

#[test]
fn snapids_matches_figure_2() {
    let session = paper_history();
    let all = rql::all_snapshots(session.aux_db()).unwrap();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].0, 1);
    assert_eq!(all[0].1, "2008-11-09 23:59:59");
    assert_eq!(all[2].1, "2008-11-11 23:59:59");
}

#[test]
fn collate_data_paper_example() {
    // §2.1: collect all user_ids and the snapshot they appear in.
    let session = paper_history();
    session
        .collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn",
            "Result",
        )
        .unwrap();
    let r = session
        .query_aux("SELECT l_userid, current_snapshot FROM Result ORDER BY 2, 1")
        .unwrap();
    let pairs: Vec<(String, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().to_owned(),
                row[1].as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        pairs,
        vec![
            ("UserA".into(), 1),
            ("UserB".into(), 1),
            ("UserC".into(), 1),
            ("UserB".into(), 2),
            ("UserC".into(), 2),
            ("UserB".into(), 3),
            ("UserC".into(), 3),
            ("UserD".into(), 3),
        ]
    );
}

#[test]
fn aggregate_in_variable_count_snapshots_with_userb() {
    // §2.2 first example: number of snapshots in which UserB is logged in.
    let session = paper_history();
    session
        .aggregate_data_in_variable(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT 1 FROM LoggedIn WHERE l_userid = 'UserB'",
            "Result",
            AggOp::Sum,
        )
        .unwrap();
    let r = session.query_aux("SELECT * FROM Result").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
}

#[test]
fn aggregate_in_variable_first_occurrence() {
    // §2.2 second example: first occurrence of UserD (only in S3).
    let session = paper_history();
    session
        .aggregate_data_in_variable(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT current_snapshot() FROM LoggedIn WHERE l_userid = 'UserD'",
            "Result",
            AggOp::Min,
        )
        .unwrap();
    let r = session.query_aux("SELECT * FROM Result").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
}

#[test]
fn aggregate_in_table_first_login_time() {
    // §2.3 first example: the first time each user has logged in.
    let session = paper_history();
    session
        .aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT l_userid, l_time FROM LoggedIn",
            "Result",
            &[("l_time".into(), AggOp::Min)],
        )
        .unwrap();
    let r = session
        .query_aux("SELECT l_userid, l_time FROM Result ORDER BY l_userid")
        .unwrap();
    let rows: Vec<(String, String)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().to_owned(),
                row[1].as_str().unwrap().to_owned(),
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ("UserA".into(), "2008-11-09 13:23:44".into()),
            ("UserB".into(), "2008-11-09 15:45:21".into()),
            ("UserC".into(), "2008-11-09 15:45:21".into()), // min of two times
            ("UserD".into(), "2008-11-11 10:08:04".into()),
        ]
    );
}

#[test]
fn aggregate_in_table_max_simultaneous_per_country() {
    // §2.3 second example: per country, max simultaneously logged in.
    let session = paper_history();
    session
        .aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country",
            "Result",
            &[("c".into(), AggOp::Max)],
        )
        .unwrap();
    let r = session
        .query_aux("SELECT l_country, c FROM Result ORDER BY l_country")
        .unwrap();
    let rows: Vec<(String, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().to_owned(),
                row[1].as_i64().unwrap(),
            )
        })
        .collect();
    // USA peaked at 2 (S1: UserA + UserC); UK peaked at 2 (S3: UserB + UserD).
    assert_eq!(rows, vec![("UK".into(), 2), ("USA".into(), 2)]);
}

#[test]
fn collate_into_intervals_paper_example() {
    // §2.4: the interval during which each user was logged in.
    let session = paper_history();
    session
        .collate_data_into_intervals(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn",
            "Result",
        )
        .unwrap();
    let r = session
        .query_aux(
            "SELECT l_userid, start_snapshot, end_snapshot FROM Result \
             ORDER BY l_userid, start_snapshot",
        )
        .unwrap();
    let rows: Vec<(String, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().to_owned(),
                row[1].as_i64().unwrap(),
                row[2].as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ("UserA".into(), 1, 1),
            ("UserB".into(), 1, 3),
            ("UserC".into(), 1, 3),
            ("UserD".into(), 3, 3),
        ]
    );
}

#[test]
fn intervals_reopen_after_gap() {
    // A record that disappears and returns gets two lifetime rows.
    let session = RqlSession::with_defaults().unwrap();
    session.execute("CREATE TABLE t (u TEXT)").unwrap();
    session.execute("INSERT INTO t VALUES ('x')").unwrap();
    session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap(); // S1: x
    session
        .execute("BEGIN; DELETE FROM t WHERE u = 'x'; COMMIT WITH SNAPSHOT;")
        .unwrap(); // S2: -
    session
        .execute("BEGIN; INSERT INTO t VALUES ('x'); COMMIT WITH SNAPSHOT;")
        .unwrap(); // S3: x
    session
        .collate_data_into_intervals("SELECT snap_id FROM SnapIds", "SELECT u FROM t", "Result")
        .unwrap();
    let r = session
        .query_aux("SELECT start_snapshot, end_snapshot FROM Result ORDER BY 1")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Value::Integer(1), Value::Integer(1)]);
    assert_eq!(r.rows[1], vec![Value::Integer(3), Value::Integer(3)]);
}

#[test]
fn udf_syntax_drives_mechanisms() {
    // §3: SELECT CollateData(snap_id, Qq, T) FROM SnapIds.
    let session = paper_history();
    session
        .query_aux(
            "SELECT CollateData(snap_id, \
             'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn', \
             'Result') FROM SnapIds",
        )
        .unwrap();
    let r = session.query_aux("SELECT COUNT(*) FROM Result").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(8));
    let reports = session.take_reports();
    assert_eq!(reports.len(), 3); // one UDF invocation per SnapIds row
}

#[test]
fn udf_syntax_aggregate_in_variable() {
    let session = paper_history();
    session
        .query_aux(
            "SELECT AggregateDataInVariable(snap_id, \
             'SELECT DISTINCT current_snapshot() AS sid FROM LoggedIn \
              WHERE l_userid = ''UserB'' ', \
             'Result', 'min') FROM SnapIds",
        )
        .unwrap();
    let r = session.query_aux("SELECT sid FROM Result").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1));
}

#[test]
fn udf_syntax_aggregate_in_table() {
    let session = paper_history();
    session
        .query_aux(
            "SELECT AggregateDataInTable(snap_id, \
             'SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country', \
             'Result', '(c,max)') FROM SnapIds",
        )
        .unwrap();
    let r = session
        .query_aux("SELECT l_country, c FROM Result ORDER BY l_country")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][1], Value::Integer(2));
}

#[test]
fn udf_syntax_intervals() {
    let session = paper_history();
    session
        .query_aux(
            "SELECT CollateDataIntoIntervals(snap_id, \
             'SELECT l_userid FROM LoggedIn', 'Result') FROM SnapIds",
        )
        .unwrap();
    let r = session
        .query_aux(
            "SELECT l_userid, start_snapshot, end_snapshot FROM Result \
             WHERE l_userid = 'UserB'",
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Integer(1));
    assert_eq!(r.rows[0][2], Value::Integer(3));
}

#[test]
fn qs_can_restrict_and_skip_snapshots() {
    let session = paper_history();
    // Skip to every second snapshot: {1, 3}.
    session
        .collate_data(
            "SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 1",
            "SELECT l_userid, current_snapshot() AS sid FROM LoggedIn",
            "Result",
        )
        .unwrap();
    let r = session
        .query_aux("SELECT DISTINCT sid FROM Result ORDER BY sid")
        .unwrap();
    let sids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(sids, vec![1, 3]);
}

#[test]
fn avg_special_case_in_variable_and_table() {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE m (grp TEXT, v INTEGER)")
        .unwrap();
    session
        .execute("INSERT INTO m VALUES ('a', 10), ('b', 100)")
        .unwrap();
    session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    session
        .execute("BEGIN; UPDATE m SET v = 20 WHERE grp = 'a'; COMMIT WITH SNAPSHOT;")
        .unwrap();
    session
        .execute("BEGIN; UPDATE m SET v = 30 WHERE grp = 'a'; COMMIT WITH SNAPSHOT;")
        .unwrap();
    // AVG across snapshots of a single value.
    session
        .aggregate_data_in_variable(
            "SELECT snap_id FROM SnapIds",
            "SELECT v FROM m WHERE grp = 'a'",
            "avg_var",
            AggOp::Avg,
        )
        .unwrap();
    let r = session.query_aux("SELECT * FROM avg_var").unwrap();
    assert_eq!(r.rows[0][0], Value::Real(20.0));
    // AVG per group across snapshots.
    session
        .aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT grp, v FROM m",
            "avg_tab",
            &[("v".into(), AggOp::Avg)],
        )
        .unwrap();
    let r = session
        .query_aux("SELECT grp, v FROM avg_tab ORDER BY grp")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Real(20.0)); // (10+20+30)/3
    assert_eq!(r.rows[1][1], Value::Real(100.0));
}

#[test]
fn distinct_aggregates_rejected_with_guidance() {
    let err = AggOp::parse("sum distinct").unwrap_err();
    assert!(err.to_string().contains("CollateData"));
}

#[test]
fn mechanisms_refuse_existing_result_table() {
    let session = paper_history();
    session
        .collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn",
            "Result",
        )
        .unwrap();
    let err = session.collate_data(
        "SELECT snap_id FROM SnapIds",
        "SELECT l_userid FROM LoggedIn",
        "Result",
    );
    assert!(err.is_err());
    session.drop_result_table("Result").unwrap();
    session
        .collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn",
            "Result",
        )
        .unwrap();
}

#[test]
fn reports_carry_cost_breakdown() {
    let session = paper_history();
    let report = session
        .collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn",
            "Result",
        )
        .unwrap();
    assert_eq!(report.iteration_count(), 3);
    assert_eq!(report.total_qq_rows(), 3 + 2 + 3);
    for it in &report.iterations {
        assert!(it.qq_stats.io.total_fetches() > 0);
    }
    // Cold iteration reads at least as much from the pagelog as hot ones
    // in this tiny history (everything is shared).
    assert!(report.cold().is_some());
}

#[test]
fn malformed_qs_rejected_at_runtime() {
    let session = paper_history();
    // Pre-flight off: the mechanism itself must check what Qs returned.
    session.set_preflight(false);
    for (qs, needle) in [
        ("SELECT 'two'", "non-integer snapshot id: two"),
        ("SELECT snap_id, snap_id FROM SnapIds", "got 2"),
    ] {
        let err = session
            .collate_data(qs, "SELECT l_userid FROM LoggedIn", "Bad")
            .unwrap_err();
        assert!(err.to_string().contains(needle), "Qs {qs}: {err}");
    }
}

#[test]
fn qq_with_as_of_rejected() {
    let session = paper_history();
    let err = session.collate_data(
        "SELECT snap_id FROM SnapIds",
        "SELECT AS OF 1 l_userid FROM LoggedIn",
        "Result",
    );
    assert!(err.is_err());
}

#[test]
fn current_snapshot_outside_rql_is_an_error() {
    let session = paper_history();
    let err = session.query("SELECT current_snapshot() FROM LoggedIn");
    assert!(err.is_err());
}

#[test]
fn named_snapshots_resolve() {
    let session = RqlSession::with_defaults().unwrap();
    session.execute("CREATE TABLE t (a INTEGER)").unwrap();
    session.declare_snapshot(Some("before-migration")).unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    session.declare_snapshot(Some("after-migration")).unwrap();
    let sid = rql::snapshot_by_name(session.aux_db(), "before-migration")
        .unwrap()
        .unwrap();
    let r = session
        .query(&format!("SELECT AS OF {sid} COUNT(*) FROM t"))
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(0));
}

/// Paper §2.3, checked as snapshot reducibility: each aggregation
/// mechanism answers what plain SQL answers over the snapshots
/// CollateData collects. For every op, AggregateDataInTable (batch and
/// per-row UDF form) equals `SELECT g, op(v) … GROUP BY g` over
/// CollateData's table, and AggregateDataInVariable equals the ungrouped
/// aggregate — over a group seen in every snapshot, groups seen once,
/// NULL values, an all-NULL group and mixed Integer/Real values.
#[test]
fn aggregation_mechanisms_equal_sql_over_the_collated_snapshots() {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE m (g INTEGER, v ANY)")
        .unwrap();
    // Group 1 is seen three times, once as NULL; groups 2 and 5 once; 3
    // only as NULL; 4 mixes Integer and Real; 6 never; 7 mixes text with
    // a number; 8 is text alone.
    for rows in [
        "(1, 5), (2, 4), (3, NULL), (4, 2.5), (7, 'abc'), (8, 'x')",
        "(1, 7), (3, NULL), (4, 3), (7, 'abd')",
        "(1, NULL), (4, 1), (5, 0.5), (7, 2)",
    ] {
        let script =
            format!("BEGIN; DELETE FROM m; INSERT INTO m VALUES {rows}; COMMIT WITH SNAPSHOT;");
        session.execute(&script).unwrap();
    }
    let (qs, qq) = ("SELECT snap_id FROM SnapIds", "SELECT g, v FROM m");
    session.collate_data(qs, qq, "collated").unwrap();
    let sorted = |sql: &str| {
        let mut rows = session.query_aux(sql).unwrap().rows;
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    };
    let udf = |mechanism: &str, qq: &str, table: &str, spec: &str| {
        let call = format!("SELECT {mechanism}(snap_id, '{qq}', '{table}', '{spec}') FROM SnapIds");
        session.query_aux(&call).unwrap();
    };
    for op in [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count, AggOp::Avg] {
        let want = sorted(&format!("SELECT g, {op}(v) FROM collated GROUP BY g"));
        let batch = format!("t_{op}");
        let pairs = [("v".to_owned(), op)];
        session
            .aggregate_data_in_table(qs, qq, &batch, &pairs)
            .unwrap();
        let per_row = format!("u_{op}");
        udf("AggregateDataInTable", qq, &per_row, &format!("(v,{op})"));
        for t in [batch, per_row] {
            let got = sorted(&format!("SELECT g, v FROM {t}"));
            assert_eq!(got, want, "AggregateDataInTable {op} into {t}");
        }
        for g in 1..=8 {
            let want = sorted(&format!("SELECT {op}(v) FROM collated WHERE g = {g}"));
            if op == AggOp::Sum && g >= 7 {
                // SUM skips text: 'abc', 'abd', 2 sum to 2; 'x' alone to NULL.
                let sum = if g == 7 {
                    Value::Integer(2)
                } else {
                    Value::Null
                };
                assert_eq!(want, vec![vec![sum]], "SQL SUM of group {g}");
            }
            let qq = format!("SELECT v FROM m WHERE g = {g}");
            let (batch, per_row) = (format!("vt_{op}_{g}"), format!("vu_{op}_{g}"));
            (session.aggregate_data_in_variable(qs, &qq, &batch, op)).unwrap();
            udf("AggregateDataInVariable", &qq, &per_row, &op.to_string());
            for t in [batch, per_row] {
                let got = sorted(&format!("SELECT v FROM {t}"));
                assert_eq!(
                    got, want,
                    "AggregateDataInVariable {op} of group {g} into {t}"
                );
            }
        }
    }
}
