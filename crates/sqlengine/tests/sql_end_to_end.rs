//! End-to-end SQL tests over `Database`, including the paper's worked
//! LoggedIn example (Figures 1–3) executed verbatim.

use rql_sqlengine::{Database, ExecOutcome, Value};

fn db() -> std::sync::Arc<Database> {
    Database::default_in_memory()
}

fn ints(result: &rql_sqlengine::QueryResult) -> Vec<i64> {
    result
        .rows
        .iter()
        .map(|r| r[0].as_i64().expect("integer"))
        .collect()
}

#[test]
fn create_insert_select() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        .unwrap();
    let r = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(r.columns, vec!["a", "b"]);
    assert_eq!(ints(&r), vec![1, 2, 3]);
    assert_eq!(r.rows[1][1], Value::text("two"));
}

#[test]
fn paper_loggedin_example_figures_1_to_3() {
    let db = db();
    db.execute("CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)")
        .unwrap();
    db.execute(
        "INSERT INTO LoggedIn VALUES \
         ('UserA', '2008-11-09 13:23:44', 'USA'), \
         ('UserB', '2008-11-09 15:45:21', 'UK'), \
         ('UserC', '2008-11-09 15:45:21', 'USA')",
    )
    .unwrap();
    // Declare snapshot S1 (Figure 3, lines 1-2).
    let out = db.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    let ExecOutcome::SnapshotDeclared(s1) = out else {
        panic!("expected snapshot, got {out:?}")
    };
    assert_eq!(s1, 1);
    // Update and declare S2 (lines 3-5). UserC's time changes too per
    // Figure 1(b).
    db.execute(
        "BEGIN; \
         DELETE FROM LoggedIn WHERE l_userid = 'UserA'; \
         UPDATE LoggedIn SET l_time = '2008-11-09 21:33:12' WHERE l_userid = 'UserC'; \
         COMMIT WITH SNAPSHOT;",
    )
    .unwrap();
    // Update and declare S3 (lines 6-8).
    let out = db
        .execute(
            "BEGIN; \
             INSERT INTO LoggedIn (l_userid, l_time, l_country) \
             VALUES ('UserD', '2008-11-11 10:08:04', 'UK'); \
             COMMIT WITH SNAPSHOT;",
        )
        .unwrap();
    let ExecOutcome::SnapshotDeclared(s3) = out else {
        panic!()
    };
    assert_eq!(s3, 3);

    // Retrospective query (line 9): S1 has all three original users.
    let r = db
        .query("SELECT AS OF 1 l_userid FROM LoggedIn ORDER BY l_userid")
        .unwrap();
    let users: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(users, vec!["UserA", "UserB", "UserC"]);

    // Figure 1(b): S2 does NOT include UserA (snapshot reflects the
    // declaring transaction's updates).
    let r = db
        .query("SELECT AS OF 2 l_userid FROM LoggedIn ORDER BY l_userid")
        .unwrap();
    let users: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(users, vec!["UserB", "UserC"]);

    // Current state (line 10) == S3 contents.
    let r = db
        .query("SELECT l_userid FROM LoggedIn ORDER BY l_userid")
        .unwrap();
    let users: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(users, vec!["UserB", "UserC", "UserD"]);
}

#[test]
fn where_filters_and_expressions() {
    let db = db();
    db.execute("CREATE TABLE n (x INTEGER)").unwrap();
    db.execute("INSERT INTO n VALUES (1), (2), (3), (4), (5), (6)")
        .unwrap();
    assert_eq!(
        ints(
            &db.query("SELECT x FROM n WHERE x % 2 = 0 ORDER BY x")
                .unwrap()
        ),
        vec![2, 4, 6]
    );
    assert_eq!(
        ints(
            &db.query("SELECT x FROM n WHERE x BETWEEN 2 AND 4 ORDER BY x")
                .unwrap()
        ),
        vec![2, 3, 4]
    );
    assert_eq!(
        ints(
            &db.query("SELECT x FROM n WHERE x IN (1, 5, 9) ORDER BY x")
                .unwrap()
        ),
        vec![1, 5]
    );
    assert_eq!(
        ints(
            &db.query("SELECT x + 10 FROM n WHERE NOT x > 2 ORDER BY 1")
                .unwrap()
        ),
        vec![11, 12]
    );
}

#[test]
fn aggregates_and_group_by() {
    let db = db();
    db.execute("CREATE TABLE o (cust INTEGER, price REAL)")
        .unwrap();
    db.execute(
        "INSERT INTO o VALUES (1, 10.0), (1, 20.0), (2, 5.0), (2, 15.0), (2, 40.0), (3, 7.0)",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT cust, COUNT(*) AS cn, AVG(price) AS av, SUM(price) AS s, \
             MIN(price), MAX(price) \
             FROM o GROUP BY cust ORDER BY cust",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][1], Value::Integer(2));
    assert_eq!(r.rows[0][2], Value::Real(15.0));
    assert_eq!(r.rows[1][3], Value::Real(60.0));
    assert_eq!(r.rows[1][4], Value::Real(5.0));
    assert_eq!(r.rows[1][5], Value::Real(40.0));
    // Global aggregate over empty set: COUNT = 0, SUM = NULL.
    let r = db
        .query("SELECT COUNT(*), SUM(price) FROM o WHERE cust = 99")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(0));
    assert!(r.rows[0][1].is_null());
    // HAVING.
    let r = db
        .query("SELECT cust FROM o GROUP BY cust HAVING COUNT(*) >= 2 ORDER BY cust")
        .unwrap();
    assert_eq!(ints(&r), vec![1, 2]);
    // COUNT(DISTINCT ...).
    db.execute("INSERT INTO o VALUES (1, 10.0)").unwrap();
    let r = db
        .query("SELECT COUNT(price), COUNT(DISTINCT price) FROM o WHERE cust = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
    assert_eq!(r.rows[0][1], Value::Integer(2));
}

#[test]
fn joins_with_and_without_native_index() {
    for with_index in [false, true] {
        let db = db();
        db.execute("CREATE TABLE part (p_partkey INTEGER, p_type TEXT)")
            .unwrap();
        db.execute("CREATE TABLE lineitem (l_partkey INTEGER, l_price REAL)")
            .unwrap();
        if with_index {
            db.execute("CREATE INDEX idx_lpart ON lineitem (l_partkey)")
                .unwrap();
        }
        db.execute("INSERT INTO part VALUES (1, 'TIN'), (2, 'BRASS'), (3, 'TIN')")
            .unwrap();
        db.execute("INSERT INTO lineitem VALUES (1, 10.0), (1, 5.0), (2, 100.0), (3, 2.5)")
            .unwrap();
        // Comma-join with WHERE equality (Table 1's Qq_cpu shape).
        let r = db
            .query(
                "SELECT SUM(l_price) AS revenue FROM lineitem, part \
                 WHERE p_partkey = l_partkey AND p_type = 'TIN'",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Real(17.5), "with_index={with_index}");
        // Index creation cost appears only without the native index.
        if with_index {
            assert_eq!(r.stats.index_creation, std::time::Duration::ZERO);
        } else {
            assert!(r.stats.index_creation > std::time::Duration::ZERO);
        }
        // Explicit JOIN ... ON syntax.
        let r = db
            .query(
                "SELECT p.p_type, COUNT(*) AS c FROM part p \
                 JOIN lineitem l ON p.p_partkey = l.l_partkey \
                 GROUP BY p.p_type ORDER BY p.p_type",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::text("BRASS"));
        assert_eq!(r.rows[0][1], Value::Integer(1));
        assert_eq!(r.rows[1][1], Value::Integer(3));
    }
}

#[test]
fn native_index_used_for_point_lookup() {
    let db = db();
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)").unwrap();
    db.execute("CREATE INDEX idx_k ON t (k)").unwrap();
    for chunk in 0..10 {
        let values: Vec<String> = (0..100)
            .map(|i| format!("({}, 'v{}')", chunk * 100 + i, chunk * 100 + i))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
            .unwrap();
    }
    let r = db.query("SELECT v FROM t WHERE k = 512").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::text("v512"));
    // Index maintained across delete/update.
    db.execute("DELETE FROM t WHERE k = 512").unwrap();
    assert!(db
        .query("SELECT v FROM t WHERE k = 512")
        .unwrap()
        .rows
        .is_empty());
    db.execute("UPDATE t SET k = 512 WHERE k = 700").unwrap();
    let r = db.query("SELECT v FROM t WHERE k = 512").unwrap();
    assert_eq!(r.rows[0][0], Value::text("v700"));
}

#[test]
fn distinct_order_limit() {
    let db = db();
    db.execute("CREATE TABLE d (x INTEGER)").unwrap();
    db.execute("INSERT INTO d VALUES (3), (1), (3), (2), (1)")
        .unwrap();
    assert_eq!(
        ints(&db.query("SELECT DISTINCT x FROM d ORDER BY x").unwrap()),
        vec![1, 2, 3]
    );
    assert_eq!(
        ints(&db.query("SELECT x FROM d ORDER BY x DESC LIMIT 2").unwrap()),
        vec![3, 3]
    );
}

#[test]
fn update_and_delete_row_counts() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
        .unwrap();
    let ExecOutcome::Affected(n) = db.execute("UPDATE t SET b = a * 2 WHERE a >= 2").unwrap()
    else {
        panic!()
    };
    assert_eq!(n, 2);
    let r = db.query("SELECT b FROM t ORDER BY a").unwrap();
    assert_eq!(ints(&r), vec![0, 4, 6]);
    let ExecOutcome::Affected(n) = db.execute("DELETE FROM t WHERE b = 0").unwrap() else {
        panic!()
    };
    assert_eq!(n, 1);
    assert_eq!(db.table_row_count("t").unwrap(), 2);
}

#[test]
fn create_table_as_select() {
    let db = db();
    db.execute("CREATE TABLE src (a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO src VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    db.execute("CREATE TABLE dst AS SELECT a * 10 AS a10, b FROM src")
        .unwrap();
    let r = db.query("SELECT a10, b FROM dst ORDER BY a10").unwrap();
    assert_eq!(ints(&r), vec![10, 20]);
}

#[test]
fn rollback_discards_changes() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("BEGIN; INSERT INTO t VALUES (2); ROLLBACK;")
        .unwrap();
    assert_eq!(db.table_row_count("t").unwrap(), 1);
    // And the store still works for further writes.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(db.table_row_count("t").unwrap(), 2);
}

#[test]
fn txn_sees_own_writes() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("BEGIN; INSERT INTO t VALUES (7);").unwrap();
    let r = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(1));
    db.execute("COMMIT;").unwrap();
}

#[test]
fn as_of_sees_snapshot_catalog() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let sid = db.declare_snapshot().unwrap();
    db.execute("CREATE TABLE later (b INTEGER)").unwrap();
    // `later` does not exist in the snapshot.
    let err = db.query(&format!("SELECT AS OF {sid} * FROM later"));
    assert!(err.is_err());
    // But exists now.
    assert!(db.query("SELECT * FROM later").is_ok());
    // And `t` is readable as of the snapshot.
    let r = db.query(&format!("SELECT AS OF {sid} a FROM t")).unwrap();
    assert_eq!(ints(&r), vec![1]);
}

#[test]
fn udf_callable_in_select() {
    let db = db();
    db.register_udf("current_snapshot", |_| Ok(Value::Integer(42)));
    let r = db.query("SELECT current_snapshot()").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(42));
}

#[test]
fn udf_can_reenter_database() {
    // The RQL loop-body pattern: a UDF invoked per row of a query runs
    // further statements on the same database.
    let db = db();
    db.execute("CREATE TABLE snapids (snap_id INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE log (s INTEGER)").unwrap();
    db.execute("INSERT INTO snapids VALUES (1), (2), (3)")
        .unwrap();
    let db2 = db.clone();
    db.register_udf("loop_body", move |args| {
        let sid = args[0].as_i64().unwrap();
        db2.execute(&format!("INSERT INTO log VALUES ({sid})"))
            .map_err(|e| rql_sqlengine::SqlError::Udf(e.to_string()))?;
        Ok(Value::Integer(1))
    });
    db.query("SELECT loop_body(snap_id) FROM snapids").unwrap();
    let r = db.query("SELECT s FROM log ORDER BY s").unwrap();
    assert_eq!(ints(&r), vec![1, 2, 3]);
}

#[test]
fn query_with_callback_delivers_rows() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (5), (6)").unwrap();
    let mut seen = Vec::new();
    db.query_with_callback("SELECT a FROM t ORDER BY a", |cols, row| {
        assert_eq!(cols, &["a".to_string()]);
        seen.push(row[0].as_i64().unwrap());
        Ok(())
    })
    .unwrap();
    assert_eq!(seen, vec![5, 6]);
}

#[test]
fn errors_reported() {
    let db = db();
    assert!(db.query("SELECT * FROM missing").is_err());
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(db.execute("CREATE TABLE t (b INTEGER)").is_err());
    assert!(db
        .execute("CREATE TABLE IF NOT EXISTS t (b INTEGER)")
        .is_ok());
    assert!(db.query("SELECT nope FROM t").is_err());
    assert!(db.execute("INSERT INTO t VALUES (1, 2)").is_err());
    assert!(db.execute("COMMIT").is_err()); // no open txn
    assert!(db.execute("DROP TABLE missing").is_err());
    assert!(db.execute("DROP TABLE IF EXISTS missing").is_ok());
}

#[test]
fn as_of_io_stats_reflect_sources() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let values: Vec<String> = (0..2000).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
        .unwrap();
    let sid = db.declare_snapshot().unwrap();
    // Overwrite everything so the snapshot is fully archived.
    db.execute("UPDATE t SET a = a + 10000").unwrap();
    db.store().cache().clear();
    db.io_stats().reset();
    let r = db
        .query(&format!("SELECT AS OF {sid} COUNT(*) FROM t"))
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2000));
    assert!(
        r.stats.io.pagelog_reads > 0,
        "old snapshot scan must fetch from the pagelog: {:?}",
        r.stats.io
    );
    // Re-running hits the cache instead.
    let r2 = db
        .query(&format!("SELECT AS OF {sid} COUNT(*) FROM t"))
        .unwrap();
    assert!(r2.stats.io.cache_hits > 0);
    assert!(r2.stats.io.pagelog_reads < r.stats.io.pagelog_reads / 2);
}

#[test]
fn table_wildcard_and_aliases() {
    let db = db();
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (y INTEGER)").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("INSERT INTO b VALUES (2)").unwrap();
    let r = db
        .query("SELECT a.*, b.y FROM a, b WHERE a.x < b.y")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0], vec![Value::Integer(1), Value::Integer(2)]);
}

#[test]
fn a_corrupt_cell_fails_only_the_statements_that_read_it() {
    let db = db();
    db.execute("CREATE TABLE t (id INTEGER, tag TEXT, note TEXT)")
        .unwrap();
    let values: Vec<String> = (0..600)
        .map(|i| {
            let note = if i == 300 { "broken-note" } else { "fine" };
            format!("({i}, '{}', '{note}')", ["a", "b", "c"][i % 3])
        })
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
        .unwrap();

    // Break the UTF-8 of row 300's last text column through the pager.
    let store = db.store();
    let mut txn = store.begin().unwrap();
    assert!(txn.page_count() > 3, "the table must span several pages");
    let marker = b"broken-note";
    let mut hits = 0;
    for pid in (0..txn.page_count()).map(rql_pagestore::PageId) {
        let page = txn.read_page(pid).unwrap();
        let found = page.bytes().windows(marker.len()).position(|w| w == marker);
        if let Some(at) = found {
            txn.page_mut(pid).unwrap().bytes_mut()[at] = 0xff;
            hits += 1;
        }
    }
    assert_eq!(hits, 1);
    store.commit(txn).unwrap();

    // A statement that stops before the cell answers, joined or not.
    let r = db.query("SELECT COUNT(*) FROM t WHERE tag = 'a'").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(200));
    let r = db
        .query("SELECT id FROM t WHERE id >= 299 AND id <= 301 ORDER BY id")
        .unwrap();
    assert_eq!(ints(&r), vec![299, 300, 301]);
    let r = db
        .query("SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id AND b.tag = 'a'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(200));

    // One that reads it fails, and says why.
    for sql in [
        "SELECT note FROM t",
        "SELECT COUNT(*) FROM t WHERE note = 'fine'",
        "SELECT * FROM t WHERE id = 300",
    ] {
        let err = db.query(sql).unwrap_err();
        assert!(
            err.to_string().contains("record text is not UTF-8"),
            "{sql}: {err}"
        );
    }
}
