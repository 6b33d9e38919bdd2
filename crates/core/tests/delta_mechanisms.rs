//! Differential tests for the delta-driven iteration drivers: under
//! `DeltaPolicy::Auto` every mechanism must produce a result table
//! byte-identical to the sequential mechanism's, while fetching fewer
//! pages on closely-spaced snapshot sets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rql::{AggOp, DeltaPolicy, RqlSession, Value};
use std::sync::Arc;

const QS: &str = "SELECT snap_id FROM SnapIds";

/// Deterministic churn history: 8 snapshots over a two-column table.
fn history() -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
        .unwrap();
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

/// Assert a delta run leaves the same table bytes as the sequential run,
/// comparing full contents in insertion order (no ORDER BY): identity
/// requires matching row order, values, *and* column names.
fn assert_tables_identical(session: &RqlSession, seq_table: &str, delta_table: &str) {
    let a = session
        .query_aux(&format!("SELECT * FROM {seq_table}"))
        .unwrap();
    let b = session
        .query_aux(&format!("SELECT * FROM {delta_table}"))
        .unwrap();
    assert_eq!(a.columns, b.columns, "{seq_table} vs {delta_table}");
    assert_eq!(a.rows, b.rows, "{seq_table} vs {delta_table}");
}

#[test]
fn delta_collate_matches_sequential() {
    let session = history();
    for (i, qq) in [
        "SELECT grp, v FROM m",
        "SELECT v FROM m WHERE grp > 4",
        "SELECT grp, SUM(v) FROM m GROUP BY grp",
        "SELECT current_snapshot() AS sid, grp FROM m WHERE v % 2 = 0",
        "SELECT COUNT(*) FROM m",
    ]
    .iter()
    .enumerate()
    {
        let (seq_t, delta_t) = (format!("c_seq_{i}"), format!("c_delta_{i}"));
        session.collate_data(QS, qq, &seq_t).unwrap();
        let report = session
            .collate_data_with_policy(QS, qq, &delta_t, DeltaPolicy::Forced)
            .unwrap();
        assert_tables_identical(&session, &seq_t, &delta_t);
        let stats = report.accumulated_stats();
        assert_eq!(
            stats.delta_eligible,
            report.iterations.len() as u64,
            "every iteration of {qq} should take the delta path"
        );
    }
}

#[test]
fn delta_agg_var_matches_sequential_for_all_inner_aggregates() {
    let session = history();
    for (i, qq) in [
        "SELECT SUM(v) FROM m",
        "SELECT COUNT(*) FROM m",
        "SELECT COUNT(v) FROM m WHERE grp < 9",
        "SELECT AVG(v) FROM m",
        "SELECT MIN(v) FROM m WHERE grp > 2",
        "SELECT MAX(v + grp) FROM m",
        // Not a bare inner aggregate: exercised via the pipeline mode.
        "SELECT SUM(v) + 0 FROM m",
        "SELECT grp FROM m WHERE grp = 7 AND v % 10 = 3",
    ]
    .iter()
    .enumerate()
    {
        for func in [AggOp::Sum, AggOp::Min, AggOp::Avg] {
            let (seq_t, delta_t) = (
                format!("v_seq_{i}_{func:?}"),
                format!("v_delta_{i}_{func:?}"),
            );
            session
                .aggregate_data_in_variable(QS, qq, &seq_t, func)
                .unwrap();
            session
                .aggregate_data_in_variable_with_policy(QS, qq, &delta_t, func, DeltaPolicy::Forced)
                .unwrap();
            assert_tables_identical(&session, &seq_t, &delta_t);
        }
    }
}

#[test]
fn delta_agg_var_matches_on_randomized_histories() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD17A + seed);
        let session = RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE r (k INTEGER, v INTEGER, t TEXT)")
            .unwrap();
        let mut next_key = 0i64;
        for _ in 0..10 {
            for _ in 0..rng.random_range(1..8) {
                match rng.random_range(0..3) {
                    0 => {
                        let v: i64 = rng.random_range(-1000..1000);
                        session
                            .execute(&format!(
                                "INSERT INTO r VALUES ({next_key}, {v}, 'x{}')",
                                v.abs() % 7
                            ))
                            .unwrap();
                        next_key += 1;
                    }
                    1 if next_key > 0 => {
                        let k = rng.random_range(0..next_key);
                        let v = rng.random_range(-1000..1000);
                        session
                            .execute(&format!("UPDATE r SET v = {v} WHERE k = {k}"))
                            .unwrap();
                    }
                    _ if next_key > 0 => {
                        let k = rng.random_range(0..next_key);
                        session
                            .execute(&format!("DELETE FROM r WHERE k = {k}"))
                            .unwrap();
                    }
                    _ => {}
                }
            }
            session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        }
        for (i, qq) in [
            "SELECT SUM(v) FROM r",
            "SELECT AVG(v) FROM r WHERE v > -500",
            // Deletes and updates move the extremum between snapshots.
            "SELECT MIN(v) FROM r",
            "SELECT MAX(v) FROM r",
            // TEXT argument, under the SQL total order.
            "SELECT MIN(t) FROM r",
            "SELECT COUNT(*) FROM r",
        ]
        .iter()
        .enumerate()
        {
            let (seq_t, delta_t) = (format!("r_seq_{i}"), format!("r_delta_{i}"));
            session.drop_result_table(&seq_t).unwrap();
            session.drop_result_table(&delta_t).unwrap();
            session
                .aggregate_data_in_variable(QS, qq, &seq_t, AggOp::Sum)
                .unwrap();
            session
                .aggregate_data_in_variable_with_policy(
                    QS,
                    qq,
                    &delta_t,
                    AggOp::Sum,
                    DeltaPolicy::Forced,
                )
                .unwrap();
            assert_tables_identical(&session, &seq_t, &delta_t);
        }
    }
}

#[test]
fn delta_degrades_cleanly_on_real_sums() {
    let session = RqlSession::with_defaults().unwrap();
    session.execute("CREATE TABLE f (v REAL)").unwrap();
    for s in 0..5 {
        session
            .execute(&format!("INSERT INTO f VALUES ({s}.25), ({s}.5)"))
            .unwrap();
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    }
    for (i, qq) in ["SELECT SUM(v) FROM f", "SELECT AVG(v) FROM f"]
        .iter()
        .enumerate()
    {
        let (seq_t, delta_t) = (format!("f_seq_{i}"), format!("f_delta_{i}"));
        session
            .aggregate_data_in_variable(QS, qq, &seq_t, AggOp::Sum)
            .unwrap();
        session
            .aggregate_data_in_variable_with_policy(QS, qq, &delta_t, AggOp::Sum, DeltaPolicy::Auto)
            .unwrap();
        assert_tables_identical(&session, &seq_t, &delta_t);
    }

    // Integer(2) → Real(2.0) and back: SQL-equal values of different
    // types, in an untyped column. The delta path must fold each
    // snapshot's own value, exactly as a fresh evaluation does.
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE g (k INTEGER, v ANY)")
        .unwrap();
    session
        .execute("INSERT INTO g VALUES (1, 2), (2, 5), (3, 7)")
        .unwrap();
    for v in ["2", "2.0", "2.0", "2"] {
        session
            .execute(&format!("UPDATE g SET v = {v} WHERE k = 1"))
            .unwrap();
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    }
    let values = session
        .query_aux("SELECT snap_id FROM SnapIds")
        .unwrap()
        .rows
        .iter()
        .map(|r| {
            let sql = format!("SELECT AS OF {} v FROM g WHERE k = 1", r[0]);
            session.execute(&sql).unwrap().rows().unwrap().rows[0][0].clone()
        })
        .collect::<Vec<_>>();
    assert_eq!(
        values,
        [
            Value::Integer(2),
            Value::Real(2.0),
            Value::Real(2.0),
            Value::Integer(2)
        ]
    );
    for (i, qq) in [
        "SELECT SUM(v) FROM g",
        "SELECT AVG(v) FROM g",
        "SELECT MIN(v) FROM g",
        "SELECT MAX(v) FROM g WHERE k < 2",
        "SELECT v FROM g WHERE k = 1",
    ]
    .iter()
    .enumerate()
    {
        for func in [AggOp::Sum, AggOp::Min] {
            let (seq_t, delta_t) = (
                format!("g_seq_{i}_{func:?}"),
                format!("g_delta_{i}_{func:?}"),
            );
            session
                .aggregate_data_in_variable(QS, qq, &seq_t, func)
                .unwrap();
            session
                .aggregate_data_in_variable_with_policy(QS, qq, &delta_t, func, DeltaPolicy::Forced)
                .unwrap();
            assert_tables_identical(&session, &seq_t, &delta_t);
        }
    }
}

/// Closely-spaced snapshots: the delta path must skip unchanged pages
/// and fetch strictly fewer pages than the sequential path does. Two
/// identically-seeded sessions keep cache warm-up effects from
/// contaminating the comparison.
#[test]
fn delta_skips_pages_and_fetches_less() {
    let build = || {
        let session = RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE big (k INTEGER, v INTEGER)")
            .unwrap();
        // Enough rows to span several heap pages at the default page size.
        for chunk in 0..30i64 {
            let values: Vec<String> = (chunk * 100..(chunk + 1) * 100)
                .map(|k| format!("({k}, {})", k * 3))
                .collect();
            session
                .execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
        }
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        // Small, localized churn between snapshots.
        for s in 1..6i64 {
            session
                .execute(&format!("UPDATE big SET v = {s} WHERE k = {}", s * 7))
                .unwrap();
            session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        }
        session
    };
    let qq = "SELECT k, v FROM big WHERE v % 2 = 1";

    let seq_session = build();
    let seq = seq_session.collate_data(QS, qq, "io_seq").unwrap();
    let delta_session = build();
    let delta = delta_session
        .collate_data_with_policy(QS, qq, "io_delta", DeltaPolicy::Forced)
        .unwrap();

    let a = seq_session.query_aux("SELECT * FROM io_seq").unwrap();
    let b = delta_session.query_aux("SELECT * FROM io_delta").unwrap();
    assert_eq!(a.columns, b.columns);
    assert_eq!(a.rows, b.rows);

    let seq_stats = seq.accumulated_stats();
    let delta_stats = delta.accumulated_stats();
    assert_eq!(seq_stats.pages_skipped_delta, 0);
    assert_eq!(seq_stats.delta_eligible, 0);
    assert!(
        delta_stats.pages_skipped_delta > 0,
        "unchanged heap pages should be served from the delta cache, got {delta_stats:?}"
    );
    assert_eq!(delta_stats.delta_eligible, delta.iterations.len() as u64);
    assert!(
        delta_stats.io.total_fetches() < seq_stats.io.total_fetches(),
        "delta fetched {} pages, sequential {}",
        delta_stats.io.total_fetches(),
        seq_stats.io.total_fetches()
    );
}

#[test]
fn forced_policy_errors_on_ineligible_shapes() {
    let session = history();
    session.execute("CREATE TABLE other (grp INTEGER)").unwrap();
    session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    // `other` exists only in the newest snapshot; restrict join-shape Qs
    // to it so the sequential fallback can execute at all.
    let max_sid = session
        .query_aux("SELECT MAX(snap_id) FROM SnapIds")
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap();
    let join_qs = format!("SELECT snap_id FROM SnapIds WHERE snap_id = {max_sid}");
    // Join shape.
    assert!(session
        .collate_data_with_policy(
            &join_qs,
            "SELECT m.v FROM m, other WHERE m.grp = other.grp",
            "x1",
            DeltaPolicy::Forced,
        )
        .is_err());
    // Iteration-dependent scan filter.
    assert!(session
        .collate_data_with_policy(
            QS,
            "SELECT grp FROM m WHERE v < current_snapshot()",
            "x2",
            DeltaPolicy::Forced,
        )
        .is_err());
    // AS OF is reserved for the driver, like the sequential loop.
    assert!(session
        .collate_data_with_policy(QS, "SELECT grp FROM m AS OF 1", "x3", DeltaPolicy::Forced)
        .is_err());
    // AggregateDataInTable has a delta path now; Forced errors only on
    // ineligible shapes, like CollateData.
    assert!(session
        .aggregate_data_in_table_with_policy(
            QS,
            "SELECT grp, v FROM m WHERE v < current_snapshot()",
            "x4",
            &[("v".to_string(), AggOp::Sum)],
            DeltaPolicy::Forced,
        )
        .is_err());
    // CollateDataIntoIntervals reads Qq's output like every other fold,
    // so it runs over the delta chain under Forced too.
    let forced = session
        .collate_data_into_intervals_with_policy(QS, "SELECT grp FROM m", "x5", DeltaPolicy::Forced)
        .unwrap();
    assert_eq!(
        forced.accumulated_stats().delta_eligible,
        forced.iterations.len() as u64
    );
    // Eligible AggTable shapes run the pipeline under Forced.
    session
        .aggregate_data_in_table_with_policy(
            QS,
            "SELECT grp, v FROM m",
            "x6",
            &[("v".to_string(), AggOp::Sum)],
            DeltaPolicy::Forced,
        )
        .unwrap();
    session
        .collate_data_into_intervals_with_policy(QS, "SELECT grp FROM m", "x7", DeltaPolicy::Auto)
        .unwrap();
    assert_tables_identical(&session, "x5", "x7");
    // Auto silently falls back to the sequential path on a join shape.
    session
        .collate_data_with_policy(
            &join_qs,
            "SELECT m.v FROM m, other WHERE m.grp = other.grp",
            "x8",
            DeltaPolicy::Auto,
        )
        .unwrap();
    session
        .collate_data(
            &join_qs,
            "SELECT m.v FROM m, other WHERE m.grp = other.grp",
            "x9",
        )
        .unwrap();
    assert_tables_identical(&session, "x9", "x8");
}

/// A Qq the scanner cannot serve does each snapshot's work once: under
/// `Auto` an indexed equality probe runs the ordinary plan over the chain
/// reader already in hand (no second SPT for the snapshot), and a UDF in
/// WHERE is known from the text, so no chain is opened at all. Either way
/// the answer is `Off`'s and the Maplog is scanned no more than `Off`
/// scans it.
#[test]
fn unserved_qq_is_not_executed_twice() {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE p (k INTEGER, v INTEGER)")
        .unwrap();
    session.execute("CREATE INDEX p_k ON p (k)").unwrap();
    session.snap_db().register_udf("is_seven", |args| {
        Ok(Value::Integer((args[0] == Value::Integer(7)).into()))
    });
    for s in 0..4i64 {
        for k in 0..12i64 {
            session
                .execute(&format!("INSERT INTO p VALUES ({k}, {})", k * 10 + s))
                .unwrap();
        }
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    }
    let maplog_scanned = |run: &dyn Fn()| {
        let io = session.snap_db().io_stats();
        let before = io.snapshot();
        run();
        io.snapshot().delta(&before).maplog_entries_scanned
    };
    for (tag, qq) in [
        ("idx", "SELECT k, v FROM p WHERE k = 7"),
        ("udf", "SELECT k, v FROM p WHERE is_seven(k)"),
    ] {
        let (off_t, auto_t) = (format!("{tag}_off"), format!("{tag}_auto"));
        let off = maplog_scanned(&|| {
            session
                .collate_data_with_policy(QS, qq, &off_t, DeltaPolicy::Off)
                .unwrap();
        });
        let auto = maplog_scanned(&|| {
            let report = session
                .collate_data_with_policy(QS, qq, &auto_t, DeltaPolicy::Auto)
                .unwrap();
            assert_eq!(report.accumulated_stats().delta_eligible, 0, "{qq}");
        });
        assert_tables_identical(&session, &off_t, &auto_t);
        assert_eq!(session.aux_db().table_row_count(&auto_t).unwrap(), 10);
        assert!(
            auto <= off,
            "{qq}: Auto scanned {auto} Maplog entries, Off {off}"
        );
        let err = session
            .collate_data_with_policy(QS, qq, &format!("{tag}_forced"), DeltaPolicy::Forced)
            .unwrap_err()
            .to_string();
        match tag {
            // Only the snapshot's catalog knows about the index: the
            // error comes from the iteration and names it.
            "idx" => assert!(
                err.contains("snapshot 1") && err.contains("index scan via p_k"),
                "{err}"
            ),
            _ => assert!(err.contains("RQL205"), "{err}"),
        }
    }
}

#[test]
fn delta_refuses_existing_result_table() {
    let session = history();
    session
        .aux_db()
        .execute("CREATE TABLE taken (x INTEGER)")
        .unwrap();
    for policy in [DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced] {
        assert!(session
            .collate_data_with_policy(QS, "SELECT grp FROM m", "taken", policy)
            .is_err());
        assert!(session
            .aggregate_data_in_variable_with_policy(
                QS,
                "SELECT COUNT(*) FROM m",
                "taken",
                AggOp::Sum,
                policy,
            )
            .is_err());
    }
}

/// The zero-snapshot satellite: when Qs selects no snapshots, every
/// mechanism variant (sequential, delta) behaves identically —
/// CollateData creates no table, AggregateDataInVariable creates the
/// identity table with the fallback "value" column.
#[test]
fn zero_snapshot_behaviour_is_uniform_across_variants() {
    let session = history();
    let empty_qs = "SELECT snap_id FROM SnapIds WHERE snap_id > 1000000";

    session
        .collate_data(empty_qs, "SELECT grp FROM m", "z_seq")
        .unwrap();
    session
        .collate_data_with_policy(
            empty_qs,
            "SELECT grp FROM m",
            "z_delta",
            DeltaPolicy::Forced,
        )
        .unwrap();
    for t in ["z_seq", "z_delta"] {
        assert!(
            session.aux_db().table_row_count(t).is_err(),
            "CollateData over zero snapshots must not create {t}"
        );
    }

    session
        .aggregate_data_in_variable(empty_qs, "SELECT SUM(v) FROM m", "zv_seq", AggOp::Sum)
        .unwrap();
    session
        .aggregate_data_in_variable_with_policy(
            empty_qs,
            "SELECT SUM(v) FROM m",
            "zv_delta",
            AggOp::Sum,
            DeltaPolicy::Forced,
        )
        .unwrap();
    for t in ["zv_seq", "zv_delta"] {
        let r = session.query_aux(&format!("SELECT * FROM {t}")).unwrap();
        assert_eq!(r.columns, vec!["value".to_string()], "{t}");
        assert_eq!(r.rows, vec![vec![Value::Null]], "{t}");
    }
}

#[test]
fn off_policy_delegates_to_sequential() {
    let session = history();
    let report = session
        .collate_data_with_policy(QS, "SELECT grp, v FROM m", "off_t", DeltaPolicy::Off)
        .unwrap();
    assert_eq!(report.accumulated_stats().delta_eligible, 0);
    session
        .collate_data(QS, "SELECT grp, v FROM m", "seq_t")
        .unwrap();
    assert_tables_identical(&session, "seq_t", "off_t");
}

/// The grouped delta finish, on randomized histories of a multi-page
/// table with Real values: under `Forced` every fold must see exactly the
/// rows, order and representative rows `Off`'s ordinary plan yields. The
/// histories delete a group's first row, refill freed slots of earlier
/// pages, link new pages in after the root, prune pages by a WHERE's
/// sidecars, empty a group and bring it back, and tie Integer with Real
/// values under MIN and MAX; `k` is a bare non-grouped column, so the
/// representative row matters, and large Reals make sums order-dependent.
#[test]
fn grouped_delta_matches_sequential_on_randomized_histories() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x6B0B + seed);
        let session = RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE gr (k INTEGER, g INTEGER, x ANY, pad TEXT)")
            .unwrap();
        session
            .snap_db()
            .declare_filter_columns("gr", &["k"])
            .unwrap();
        let mut next_key = 0i64;
        let insert = |rng: &mut StdRng, next_key: &mut i64, n: usize, vanished: Option<i64>| {
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    let mut g = rng.random_range(0..12i64);
                    if Some(g) == vanished {
                        g += 1;
                    }
                    let x = match rng.random_range(0..7) {
                        0 => format!("{}", rng.random_range(0..4)),
                        1 => format!("{}.0", rng.random_range(0..4)),
                        2 => "10000000000000000.0".to_owned(),
                        3 => "-10000000000000000.0".to_owned(),
                        4 => format!("0.{}", rng.random_range(1..10)),
                        5 => "NULL".to_owned(),
                        _ => format!("{}", rng.random_range(-50..50)),
                    };
                    *next_key += 1;
                    format!("({next_key}, {g}, {x}, '{}')", "p".repeat(60))
                })
                .collect();
            session
                .execute(&format!("INSERT INTO gr VALUES {}", rows.join(", ")))
                .unwrap();
        };
        insert(&mut rng, &mut next_key, 300, None);
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        for s in 1..8 {
            // Group 5 is gone at snapshots 3 and 4, and back after.
            let vanished = (3..5).contains(&s).then_some(5);
            if s == 3 {
                session.execute("DELETE FROM gr WHERE g = 5").unwrap();
            }
            for _ in 0..rng.random_range(2..6) {
                match rng.random_range(0..4) {
                    0 => {
                        let n = rng.random_range(5..60);
                        insert(&mut rng, &mut next_key, n, vanished);
                    }
                    1 => {
                        let (lo, len) = (rng.random_range(0..280), rng.random_range(1..25));
                        session
                            .execute(&format!(
                                "DELETE FROM gr WHERE k >= {lo} AND k < {}",
                                lo + len
                            ))
                            .unwrap();
                    }
                    2 => {
                        // The first row, in scan order, of some group.
                        let g = rng.random_range(0..12);
                        let first = session
                            .execute(&format!("SELECT k FROM gr WHERE g = {g}"))
                            .unwrap()
                            .rows()
                            .unwrap();
                        if let Some(row) = first.rows.first() {
                            session
                                .execute(&format!("DELETE FROM gr WHERE k = {}", row[0]))
                                .unwrap();
                        }
                    }
                    _ => {
                        let k = rng.random_range(0..next_key);
                        let x = rng.random_range(0..4);
                        let x = if rng.random_range(0..2) == 0 {
                            format!("{x}")
                        } else {
                            format!("{x}.0")
                        };
                        session
                            .execute(&format!("UPDATE gr SET x = {x} WHERE k = {k}"))
                            .unwrap();
                    }
                }
            }
            session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        }
        let qqs = [
            "SELECT g, SUM(x) AS x FROM gr GROUP BY g",
            "SELECT g, k, MAX(x) AS x FROM gr WHERE k >= 150 GROUP BY g",
            "SELECT g, k, MIN(x) AS x, AVG(x) AS a, COUNT(*) AS c FROM gr GROUP BY g \
             HAVING COUNT(x) > 1",
        ];
        for (i, qq) in qqs.iter().enumerate() {
            let t = |tag: &str, policy: DeltaPolicy| format!("{tag}_{seed}_{i}_{policy:?}");
            for policy in [DeltaPolicy::Off, DeltaPolicy::Forced] {
                let report = session
                    .collate_data_with_policy(QS, qq, &t("gc", policy), policy)
                    .unwrap();
                if policy == DeltaPolicy::Forced {
                    let stats = report.accumulated_stats();
                    assert_eq!(stats.delta_eligible, report.iterations.len() as u64);
                }
                for op in [AggOp::Max, AggOp::Sum, AggOp::Avg] {
                    let pairs = [("x".to_string(), op)];
                    session
                        .aggregate_data_in_table_with_policy(
                            QS,
                            qq,
                            &t(&format!("ga{op}"), policy),
                            &pairs,
                            policy,
                        )
                        .unwrap();
                }
            }
            let pair = |tag: &str| (t(tag, DeltaPolicy::Off), t(tag, DeltaPolicy::Forced));
            let (off, forced) = pair("gc");
            assert_tables_identical(&session, &off, &forced);
            for op in [AggOp::Max, AggOp::Sum, AggOp::Avg] {
                let (off, forced) = pair(&format!("ga{op}"));
                assert_tables_identical(&session, &off, &forced);
            }
        }
        // Not unique on the fold's grouping column: the probe that reports
        // it must not be skipped, on either path.
        let dup = "SELECT g, MAX(x) AS x FROM gr GROUP BY g, k % 2";
        let outcome = |policy: DeltaPolicy| {
            let table = format!("gd_{seed}_{policy:?}");
            let pairs = [("x".to_string(), AggOp::Max)];
            let run = session.aggregate_data_in_table_with_policy(QS, dup, &table, &pairs, policy);
            run.map(|_| {
                session
                    .query_aux(&format!("SELECT * FROM {table}"))
                    .unwrap()
                    .rows
            })
            .map_err(|e| e.to_string())
        };
        assert_eq!(outcome(DeltaPolicy::Off), outcome(DeltaPolicy::Forced));
    }
}
