//! SQL semantics edge cases: three-valued logic in WHERE, NULL handling
//! in grouping and aggregates, ordering rules, planner access-path
//! decisions (asserted through `QueryResult::plan`), and DML corner
//! cases.

use rql_sqlengine::{Database, Value};

fn db() -> std::sync::Arc<Database> {
    Database::default_in_memory()
}

#[test]
fn where_null_rows_are_filtered_not_errors() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (NULL), (3)").unwrap();
    // NULL comparisons are unknown → row dropped.
    let r = db.query("SELECT a FROM t WHERE a > 0 ORDER BY a").unwrap();
    assert_eq!(r.rows.len(), 2);
    // IS NULL finds it.
    let r = db.query("SELECT COUNT(*) FROM t WHERE a IS NULL").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1));
    // NOT (unknown) is still unknown.
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE NOT (a > 0)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(0));
}

#[test]
fn null_in_list_semantics() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // 1 IN (1, NULL) is true; 2 IN (1, NULL) is unknown → filtered.
    let r = db.query("SELECT a FROM t WHERE a IN (1, NULL)").unwrap();
    assert_eq!(r.rows.len(), 1);
    // NOT IN with NULL in the list filters everything (unknown).
    let r = db
        .query("SELECT a FROM t WHERE a NOT IN (1, NULL)")
        .unwrap();
    assert_eq!(r.rows.len(), 0);
}

#[test]
fn aggregates_skip_nulls() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (2), (NULL), (4)").unwrap();
    let r = db
        .query("SELECT COUNT(*), COUNT(a), SUM(a), AVG(a), MIN(a), MAX(a) FROM t")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
    assert_eq!(r.rows[0][1], Value::Integer(2));
    assert_eq!(r.rows[0][2], Value::Integer(6));
    assert_eq!(r.rows[0][3], Value::Real(3.0));
    assert_eq!(r.rows[0][4], Value::Integer(2));
    assert_eq!(r.rows[0][5], Value::Integer(4));
}

/// SUM, like AVG, skips inputs that are not numbers: text never turns
/// the sum into NULL, and text alone sums to NULL, not to itself.
#[test]
fn sum_skips_non_numeric_inputs() {
    let db = db();
    db.execute("CREATE TABLE t (g INTEGER, v ANY)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'abc'), (1, 'abd'), (1, 2), (2, 'x'), (3, 2), (3, 1.5)")
        .unwrap();
    let r = db
        .query("SELECT g, SUM(v), AVG(v) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Integer(1), Value::Integer(2), Value::Real(2.0)],
            vec![Value::Integer(2), Value::Null, Value::Null],
            vec![Value::Integer(3), Value::Real(3.5), Value::Real(1.75)],
        ]
    );
    let r = db.query("SELECT SUM(v) FROM t WHERE g = 2").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
}

#[test]
fn group_by_nulls_form_one_group() {
    let db = db();
    db.execute("CREATE TABLE t (g TEXT, v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 1), (NULL, 2), (NULL, 3)")
        .unwrap();
    let r = db
        .query("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // NULL sorts first under the total order.
    assert!(r.rows[0][0].is_null());
    assert_eq!(r.rows[0][1], Value::Integer(2));
}

#[test]
fn order_by_alias_position_and_expression() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 9), (2, 5), (3, 7)")
        .unwrap();
    // Alias.
    let r = db
        .query("SELECT b AS weight FROM t ORDER BY weight")
        .unwrap();
    assert_eq!(
        r.rows
            .iter()
            .map(|x| x[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![5, 7, 9]
    );
    // Position.
    let r = db.query("SELECT a, b FROM t ORDER BY 2 DESC").unwrap();
    assert_eq!(r.rows[0][1], Value::Integer(9));
    // Expression not in the projection.
    let r = db.query("SELECT a FROM t ORDER BY b * -1").unwrap();
    assert_eq!(
        r.rows
            .iter()
            .map(|x| x[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![1, 3, 2]
    );
    // ORDER BY on an aggregate query.
    let r = db
        .query("SELECT a % 2 AS p, SUM(b) AS s FROM t GROUP BY a % 2 ORDER BY s DESC")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Integer(16)); // 9 + 7 (a=1,3)
}

#[test]
fn having_without_group_by() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let r = db
        .query("SELECT SUM(a) FROM t HAVING COUNT(*) > 1")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db
        .query("SELECT SUM(a) FROM t HAVING COUNT(*) > 5")
        .unwrap();
    assert_eq!(r.rows.len(), 0);
}

#[test]
fn limit_zero_and_overshoot() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(db.query("SELECT a FROM t LIMIT 0").unwrap().rows.len(), 0);
    assert_eq!(db.query("SELECT a FROM t LIMIT 99").unwrap().rows.len(), 2);
}

#[test]
fn ambiguous_column_is_an_error() {
    let db = db();
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (x INTEGER)").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("INSERT INTO b VALUES (1)").unwrap();
    assert!(db.query("SELECT x FROM a, b").is_err());
    assert!(db.query("SELECT a.x FROM a, b").is_ok());
}

#[test]
fn planner_decisions_are_visible() {
    let db = db();
    db.execute("CREATE TABLE part (p_partkey INTEGER, p_type TEXT)")
        .unwrap();
    db.execute("CREATE TABLE lineitem (l_partkey INTEGER, l_price REAL)")
        .unwrap();
    db.execute("INSERT INTO part VALUES (1, 'TIN')").unwrap();
    db.execute("INSERT INTO lineitem VALUES (1, 5.0)").unwrap();
    // Without an index: base seq scan + ad-hoc hash join.
    let r = db
        .query("SELECT COUNT(*) FROM lineitem, part WHERE p_partkey = l_partkey")
        .unwrap();
    assert_eq!(
        r.plan,
        vec!["lineitem: seq scan", "part: hash join (ad-hoc index build)"]
    );
    // With a native index on the join column: table is reordered to the
    // inner side and probed through the index.
    db.execute("CREATE INDEX idx_lp ON lineitem (l_partkey)")
        .unwrap();
    let r = db
        .query("SELECT COUNT(*) FROM lineitem, part WHERE p_partkey = l_partkey")
        .unwrap();
    assert_eq!(
        r.plan,
        vec!["part: seq scan", "lineitem: index nested loop via idx_lp"]
    );
    // Point lookup uses the index too.
    let r = db
        .query("SELECT * FROM lineitem WHERE l_partkey = 1")
        .unwrap();
    assert_eq!(r.plan, vec!["lineitem: index scan via idx_lp"]);
    // No join condition → cross join.
    let r = db.query("SELECT COUNT(*) FROM part, part p2").unwrap();
    assert_eq!(
        r.plan,
        vec!["part: seq scan", "part: nested-loop cross join"]
    );
}

#[test]
fn cross_join_cardinality() {
    let db = db();
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (y INTEGER)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    db.execute("INSERT INTO b VALUES (10), (20)").unwrap();
    let r = db.query("SELECT COUNT(*) FROM a, b").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(6));
}

#[test]
fn three_way_join() {
    let db = db();
    db.execute("CREATE TABLE c (ck INTEGER, name TEXT)")
        .unwrap();
    db.execute("CREATE TABLE o (ok INTEGER, ck INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE l (ok INTEGER, qty INTEGER)")
        .unwrap();
    db.execute("INSERT INTO c VALUES (1, 'ann'), (2, 'bob')")
        .unwrap();
    db.execute("INSERT INTO o VALUES (10, 1), (11, 2), (12, 1)")
        .unwrap();
    db.execute("INSERT INTO l VALUES (10, 5), (10, 7), (11, 3), (12, 1)")
        .unwrap();
    let r = db
        .query(
            "SELECT c.name, SUM(l.qty) AS total FROM c \
             JOIN o ON c.ck = o.ck JOIN l ON o.ok = l.ok \
             GROUP BY c.name ORDER BY c.name",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::text("ann"));
    assert_eq!(r.rows[0][1], Value::Integer(13)); // 5+7+1
    assert_eq!(r.rows[1][1], Value::Integer(3));
}

#[test]
fn join_with_null_keys_produces_no_matches() {
    let db = db();
    db.execute("CREATE TABLE a (k INTEGER)").unwrap();
    db.execute("CREATE TABLE b (k INTEGER)").unwrap();
    db.execute("INSERT INTO a VALUES (NULL), (1)").unwrap();
    db.execute("INSERT INTO b VALUES (NULL), (1)").unwrap();
    let r = db
        .query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1)); // only 1 = 1; NULLs never match
}

#[test]
fn distinct_treats_integral_real_as_equal() {
    let db = db();
    db.execute("CREATE TABLE t (v REAL)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (1.5)").unwrap();
    db.execute("CREATE TABLE u (v INTEGER)").unwrap();
    db.execute("INSERT INTO u VALUES (1)").unwrap();
    let r = db.query("SELECT DISTINCT v FROM t").unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// DISTINCT drops duplicates before LIMIT counts rows, with and without
/// ORDER BY.
#[test]
fn distinct_applies_before_limit() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (1), (2), (3)")
        .unwrap();
    let want = vec![vec![Value::Integer(1)], vec![Value::Integer(2)]];
    for sql in [
        "SELECT DISTINCT a FROM t ORDER BY a LIMIT 2",
        "SELECT DISTINCT a FROM t LIMIT 2",
    ] {
        assert_eq!(db.query(sql).unwrap().rows, want, "{sql}");
    }
}

#[test]
fn text_dates_compare_lexicographically() {
    let db = db();
    db.execute("CREATE TABLE t (d DATE)").unwrap();
    db.execute("INSERT INTO t VALUES ('1995-03-17'), ('1992-01-01'), ('1998-08-02')")
        .unwrap();
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE d < '1996-01-01'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2));
    let r = db.query("SELECT d FROM t ORDER BY d LIMIT 1").unwrap();
    assert_eq!(r.rows[0][0], Value::text("1992-01-01"));
}

#[test]
fn update_with_self_referential_expression() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    // All right-hand sides read the OLD row.
    db.execute("UPDATE t SET a = b, b = a").unwrap();
    let r = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(r.rows[0], vec![Value::Integer(10), Value::Integer(1)]);
    assert_eq!(r.rows[1], vec![Value::Integer(20), Value::Integer(2)]);
}

#[test]
fn delete_during_snapshot_history_is_isolated() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.declare_snapshot().unwrap();
    db.execute("DELETE FROM t").unwrap();
    db.execute("INSERT INTO t VALUES (9)").unwrap();
    let r = db.query("SELECT AS OF 1 COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
    let r = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1));
}

#[test]
fn insert_select_reads_pre_statement_state() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // Self-referencing INSERT…SELECT must not loop.
    db.execute("INSERT INTO t SELECT a + 10 FROM t").unwrap();
    assert_eq!(db.table_row_count("t").unwrap(), 4);
}

#[test]
fn scalar_expressions_without_from() {
    let db = db();
    let r = db
        .query("SELECT 1 + 2 * 3, 'a' || 'b', abs(-9), NULL IS NULL")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::Integer(7),
            Value::text("ab"),
            Value::Integer(9),
            Value::Integer(1),
        ]
    );
}

#[test]
fn like_and_not_like() {
    let db = db();
    db.execute("CREATE TABLE t (s TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('STANDARD POLISHED TIN'), ('SMALL PLATED BRASS')")
        .unwrap();
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE s LIKE '%POLISHED%'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1));
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE s NOT LIKE 'SMALL%'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1));
}

#[test]
fn count_star_vs_count_distinct_in_groups() {
    let db = db();
    db.execute("CREATE TABLE t (g TEXT, v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2), ('b', NULL), ('b', 3)")
        .unwrap();
    let r = db
        .query(
            "SELECT g, COUNT(*), COUNT(v), COUNT(DISTINCT v) FROM t \
             GROUP BY g ORDER BY g",
        )
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::text("a"),
            Value::Integer(3),
            Value::Integer(3),
            Value::Integer(2),
        ]
    );
    assert_eq!(
        r.rows[1],
        vec![
            Value::text("b"),
            Value::Integer(2),
            Value::Integer(1),
            Value::Integer(1),
        ]
    );
}

#[test]
fn case_expressions() {
    let db = db();
    db.execute("CREATE TABLE t (status TEXT, qty INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t VALUES ('O', 10), ('F', 5), ('P', 2), (NULL, 1)")
        .unwrap();
    // Searched CASE.
    let r = db
        .query(
            "SELECT status, CASE WHEN qty >= 10 THEN 'big' WHEN qty >= 5 THEN 'mid' \
             ELSE 'small' END AS size FROM t ORDER BY qty DESC",
        )
        .unwrap();
    let sizes: Vec<&str> = r.rows.iter().map(|x| x[1].as_str().unwrap()).collect();
    assert_eq!(sizes, vec!["big", "mid", "small", "small"]);
    // Simple CASE with operand; NULL operand matches no arm.
    let r = db
        .query(
            "SELECT CASE status WHEN 'O' THEN 'open' WHEN 'F' THEN 'filled' END \
             FROM t ORDER BY qty DESC",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::text("open"));
    assert_eq!(r.rows[1][0], Value::text("filled"));
    assert!(r.rows[2][0].is_null()); // 'P': no arm, no ELSE
    assert!(r.rows[3][0].is_null()); // NULL operand
                                     // CASE inside an aggregate (pivot pattern).
    let r = db
        .query(
            "SELECT SUM(CASE WHEN status = 'O' THEN qty ELSE 0 END), \
             SUM(CASE WHEN status = 'F' THEN qty ELSE 0 END) FROM t",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(10));
    assert_eq!(r.rows[0][1], Value::Integer(5));
    // CASE in WHERE.
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE CASE WHEN qty > 4 THEN 1 ELSE 0 END = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2));
    // Parse error without arms.
    assert!(db.query("SELECT CASE END").is_err());
}

#[test]
fn explain_reports_access_paths() {
    let db = db();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(
        db.explain("SELECT * FROM t WHERE k = 1").unwrap(),
        vec!["t: index scan via t_k"]
    );
    assert_eq!(
        db.explain("SELECT * FROM t WHERE k > 0").unwrap(),
        vec!["t: seq scan"]
    );
}

#[test]
fn interleaved_writer_and_sql_inserts_self_heal_fsm() {
    // Regression: Database caches a free-space map per table, while a
    // TableWriter builds its own. Filling pages through the writer used
    // to leave the cached map overestimating free space, making the next
    // SQL INSERT fail with "free-space map out of sync".
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER, pad TEXT)").unwrap();
    // Prime the Database-cached map while the table is nearly empty.
    db.execute("INSERT INTO t VALUES (0, 'x')").unwrap();
    // Fill many pages through the writer path (cached map goes stale).
    db.with_table_writer("t", |w| {
        for i in 0..2000 {
            w.insert(vec![
                Value::Integer(i),
                Value::text("pppppppppppppppppppppppppppppppp"),
            ])?;
        }
        Ok(())
    })
    .unwrap();
    // SQL inserts must keep working and land correctly.
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({}, 'sql')", 10_000 + i))
            .unwrap();
    }
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE pad = 'sql'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(50));
    assert_eq!(db.table_row_count("t").unwrap(), 2051);
}

#[test]
fn select_star_order_is_stable_under_join_reordering() {
    // The planner moves indexed tables to the inner join side; SELECT *
    // column order must stay the written FROM order regardless.
    let db = db();
    db.execute("CREATE TABLE a (x INTEGER, xa TEXT)").unwrap();
    db.execute("CREATE TABLE b (y INTEGER, yb TEXT)").unwrap();
    db.execute("INSERT INTO a VALUES (1, 'A')").unwrap();
    db.execute("INSERT INTO b VALUES (1, 'B')").unwrap();
    let before = db.query("SELECT * FROM a, b WHERE x = y").unwrap();
    assert_eq!(before.columns, vec!["x", "xa", "y", "yb"]);
    // Index on `a.x` makes `a` the probed (inner) side…
    db.execute("CREATE INDEX a_x ON a (x)").unwrap();
    let after = db.query("SELECT * FROM a, b WHERE x = y").unwrap();
    assert_eq!(
        after.plan,
        vec!["b: seq scan", "a: index nested loop via a_x"]
    );
    // …but the projected columns and values are identical.
    assert_eq!(after.columns, before.columns);
    assert_eq!(after.rows, before.rows);
}
