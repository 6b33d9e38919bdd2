//! Pins the answers of the scan stage: every clause that can name a
//! column and every join strategy, over a small multi-page schema with
//! text, integer, real and NULL columns. Each statement renders its plan
//! (access-path decisions, in order), its output column names and every
//! row in output order with each value's type, so a change to what the
//! scan reads, in what order it joins or how it decodes is a visible
//! diff of `tests/golden/scan_shapes_v1.txt`.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test scan_shapes_v1`.

use std::fmt::Write as _;
use std::sync::Arc;

use rql_pagestore::PagerConfig;
use rql_retro::RetroConfig;
use rql_sqlengine::{Database, Value};

const GOLDEN_PATH: &str = "tests/golden/scan_shapes_v1.txt";

/// `emp` spans several 512-byte pages; `dept`, `proj` and `loc` are the
/// joined sides. `proj.p_dept` and `emp.id` carry native indexes.
fn populated() -> (Arc<Database>, u64) {
    let db = Database::in_memory(RetroConfig {
        pager: PagerConfig {
            page_size: 512,
            cache_capacity: 256,
            wal_sync_on_commit: false,
        },
        ..RetroConfig::new()
    });
    db.register_udf("twice", |args| {
        Ok(match args.first() {
            Some(Value::Integer(i)) => Value::Integer(i * 2),
            _ => Value::Null,
        })
    });
    let ddl = "CREATE TABLE emp (id INTEGER, name TEXT, dept INTEGER, salary REAL, note TEXT);\
               CREATE TABLE dept (d_id INTEGER, d_name TEXT, budget REAL);\
               CREATE TABLE proj (p_id INTEGER, p_dept INTEGER, p_title TEXT);\
               CREATE TABLE loc (l_dept INTEGER, city TEXT);\
               CREATE INDEX idx_proj_dept ON proj (p_dept);\
               CREATE INDEX idx_emp_id ON emp (id)";
    db.execute(ddl).unwrap();
    let names = ["ann", "bob", "cy", "dee", "eve", "fay", "gus", "hal"];
    for i in 0..48i64 {
        let name = format!("{}-{i}", names[(i % 8) as usize]);
        let dept = if i % 11 == 0 {
            "NULL".to_owned()
        } else {
            (i % 5).to_string()
        };
        let salary = if i % 7 == 3 {
            "NULL".to_owned()
        } else {
            format!("{}.5", 30 + (i * 13) % 50)
        };
        let note = match i % 4 {
            0 => "NULL".to_owned(),
            1 => "'x'".to_owned(),
            _ => format!("'note {i} with some padding text'"),
        };
        db.execute(&format!(
            "INSERT INTO emp VALUES ({i}, '{name}', {dept}, {salary}, {note})"
        ))
        .unwrap();
    }
    db.execute(
        "INSERT INTO dept VALUES (0, 'ops', 900.0), (1, 'eng', 1500.5), (2, 'art', NULL), \
         (3, 'law', 300.25), (4, 'ops', 50.0), (7, 'none', 10.0)",
    )
    .unwrap();
    for p in 0..14i64 {
        db.execute(&format!(
            "INSERT INTO proj VALUES ({p}, {}, 'project {p}')",
            p % 6
        ))
        .unwrap();
    }
    db.execute("INSERT INTO loc VALUES (0, 'oslo'), (1, 'rome'), (1, 'nice'), (3, 'lima')")
        .unwrap();
    let sid = db.declare_snapshot().unwrap();
    // After the snapshot: the current state moves on, AS OF must not.
    db.execute("UPDATE emp SET salary = 99.0, name = 'zed' WHERE id < 10")
        .unwrap();
    db.execute("DELETE FROM emp WHERE id > 40").unwrap();
    (db, sid)
}

const STATEMENTS: &[&str] = &[
    "SELECT * FROM emp",
    "SELECT name FROM emp WHERE salary > 50.0",
    "SELECT id, note FROM emp WHERE note IS NULL",
    "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT dept, AVG(salary) AS av FROM emp GROUP BY dept HAVING MAX(salary) > 70 ORDER BY av DESC",
    "SELECT name AS n FROM emp WHERE id < 20 ORDER BY n",
    "SELECT name FROM emp ORDER BY salary DESC, id",
    "SELECT id, CASE WHEN salary > 60 THEN 'hi' WHEN salary IS NULL THEN 'none' ELSE note END FROM emp",
    "SELECT id FROM emp WHERE dept IN (1, 3)",
    "SELECT id, salary FROM emp WHERE salary BETWEEN 40 AND 60",
    "SELECT id, name FROM emp WHERE name LIKE 'e%'",
    "SELECT twice(id), name FROM emp WHERE twice(dept) = 4",
    "SELECT COUNT(*) FROM emp",
    "SELECT COUNT(*) FROM emp WHERE note = 'x'",
    "SELECT DISTINCT dept FROM emp",
    "SELECT dept, name FROM emp GROUP BY dept",
    "SELECT upper(name), length(note) FROM emp WHERE id > 30 ORDER BY 1",
    "SELECT * FROM emp ORDER BY salary LIMIT 3",
    "SELECT id FROM emp WHERE 1 = 1 AND dept = 2",
    "SELECT name, salary FROM emp WHERE id = 5",
    "SELECT e.*, d.d_name FROM emp e, dept d WHERE e.dept = d.d_id",
    "SELECT d.* FROM emp e, dept d WHERE e.dept = d.d_id AND e.salary > 50",
    "SELECT name, p_title FROM emp, proj WHERE p_dept = dept",
    "SELECT COUNT(*), MIN(p_title) FROM proj, emp WHERE p_dept = dept AND name LIKE '%e%'",
    "SELECT COUNT(*) FROM emp, dept",
    "SELECT e.id, d.d_name FROM emp e, dept d WHERE e.id < d.d_id",
    "SELECT e.name, d.d_name FROM emp e JOIN dept d ON e.dept = d.d_id WHERE d.budget > 100",
    "SELECT e.name, d.d_name, l.city FROM emp e JOIN dept d ON e.dept = d.d_id \
     JOIN loc l ON l.l_dept = d.d_id",
    "SELECT e.id, d.d_id FROM emp e, dept d WHERE e.dept = d.d_id AND e.salary < d.budget / 10",
    "SELECT e.name FROM emp e, dept d WHERE e.dept = d.d_id ORDER BY d.d_name, e.id",
    "SELECT d_name, SUM(salary) AS tot FROM emp, dept WHERE dept = d_id GROUP BY d_name \
     HAVING SUM(salary) > 100 ORDER BY tot",
    "SELECT a.id, b.name FROM emp a, emp b WHERE a.id = b.id + 1 AND a.note IS NOT NULL",
    "SELECT twice(e.id) AS t2, d.d_name FROM emp e, dept d WHERE e.dept = d.d_id AND twice(d.d_id) > 4",
    "SELECT 1 + 1",
    "SELECT nosuch FROM emp",
    "SELECT name FROM emp ORDER BY nosuch",
    // The finish stage reads no column: each kept row is an empty row.
    "SELECT COUNT(*) FROM emp WHERE name = 'zed' AND dept > 1",
    "SELECT 1 FROM emp WHERE dept = 2",
    "SELECT COUNT(*) FROM emp WHERE 1 = 0",
    "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.d_id AND d.budget > 100",
    "SELECT COUNT(*) FROM emp HAVING COUNT(*) > 1",
    // Conjuncts no table applies, rows from a joined side in a group.
    "SELECT COUNT(*) FROM emp WHERE twice(1) = 2",
    "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.d_id AND twice(1) = 2",
    "SELECT COUNT(*) WHERE 1 = 0",
    "SELECT e.dept, d.d_name, COUNT(*) FROM emp e, dept d WHERE e.dept = d.d_id GROUP BY e.dept",
    "SELECT e.name, d.d_name, l.city FROM emp e JOIN dept d ON e.dept = d.d_id \
     JOIN loc l ON l.l_dept = d.d_id ORDER BY l.city, e.id LIMIT 4",
    "SELECT SUM(e.salary) FROM emp e, dept d WHERE e.dept = d.d_id AND 2 > 1",
];

/// Statements read at the snapshot, before the later UPDATE and DELETE.
const AS_OF: &[&str] = &[
    "SELECT name, salary FROM emp WHERE dept = 2",
    "SELECT e.name, d.d_name FROM emp e, dept d WHERE e.dept = d.d_id AND e.id < 12",
];

fn render(
    out: &mut String,
    label: &str,
    sql: &str,
    result: rql_sqlengine::Result<rql_sqlengine::QueryResult>,
) {
    let _ = writeln!(out, "-- {label}{sql}");
    match result {
        Ok(r) => {
            let _ = writeln!(out, "plan: {}", r.plan.join(" | "));
            let _ = writeln!(out, "columns: {}", r.columns.join(", "));
            for row in &r.rows {
                let _ = writeln!(out, "row: {row:?}");
            }
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

#[test]
fn scan_shapes_match_the_golden() {
    let (db, sid) = populated();
    let mut got = String::new();
    for sql in STATEMENTS {
        render(&mut got, "", sql, db.query(sql));
    }
    for sql in AS_OF {
        render(
            &mut got,
            &format!("AS OF {sid}: "),
            sql,
            db.query_as_of(sid, sql),
        );
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    assert_eq!(
        got, want,
        "scan answers drifted from {GOLDEN_PATH}; run with UPDATE_GOLDEN=1 if intentional"
    );
}
