//! The hash join against a nested-loop oracle. The executor looks each
//! base row's key up before it decodes the rest of the row; these tests
//! pin that the answers and their order are a plain nested loop's over
//! the same scans (outer scan order, then inner scan order), and that a
//! corrupt cell fails the statement whether the row's key hits or misses.

use std::cmp::Ordering;
use std::sync::Arc;

use rql_sqlengine::{Database, Row, Value};

fn db() -> Arc<Database> {
    Database::default_in_memory()
}

/// Every row of `table`, in scan order.
fn scan(db: &Database, table: &str) -> Vec<Row> {
    db.query(&format!("SELECT * FROM {table}")).unwrap().rows
}

/// SQL `=`: NULL equals nothing, `1` equals `1.0`.
fn sql_eq(a: &Value, b: &Value) -> bool {
    a.sql_cmp(b) == Some(Ordering::Equal)
}

/// The nested-loop join of `outer` with `inner` on `on`, rows
/// concatenated.
fn nested_loop(outer: &[Row], inner: &[Row], on: impl Fn(&Row, &Row) -> bool) -> Vec<Row> {
    let mut out = Vec::new();
    for o in outer {
        for i in inner.iter().filter(|i| on(o, i)) {
            out.push(o.iter().chain(i.iter()).cloned().collect());
        }
    }
    out
}

/// Run `sql`, check its plan names `step`, and return its rows.
fn joined(db: &Database, sql: &str, step: &str) -> Vec<Row> {
    let r = db.query(sql).unwrap();
    assert!(
        r.plan.iter().any(|line| line.ends_with(step)),
        "{sql}: {:?}",
        r.plan
    );
    r.rows
}

const HASH: &str = "hash join (ad-hoc index build)";

/// `INSERT INTO table VALUES …` for rows already written as SQL tuples.
fn insert(db: &Database, table: &str, tuples: impl IntoIterator<Item = String>) {
    let tuples: Vec<String> = tuples.into_iter().collect();
    db.execute(&format!("INSERT INTO {table} VALUES {}", tuples.join(",")))
        .unwrap();
}

/// A deterministic stream of small numbers.
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed;
    move |bound| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    }
}

/// Keys of no declared affinity: integers, integral and fractional reals,
/// text and NULL side by side, on both sides, over several pages.
#[test]
fn mixed_keys_join_like_a_nested_loop() {
    let db = db();
    db.execute("CREATE TABLE o (id INTEGER, k ANY, pad TEXT, w INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE i (k ANY, v TEXT)").unwrap();
    let key = |n: u64| match n % 9 {
        0 => "NULL".to_owned(),
        1 => format!("{}.0", n % 7),
        2 => format!("{}.5", n % 7),
        3 => format!("'t{}'", n % 5),
        _ => format!("{}", n % 7),
    };
    let mut next = lcg(7);
    insert(
        &db,
        "o",
        (0..900).map(|id| {
            let k = match id {
                400 => "1".to_owned(),
                401 => "1.5".to_owned(),
                _ => key(next(1000)),
            };
            format!("({id}, {k}, 'padding-{id:04}', {})", next(20))
        }),
    );
    // Duplicate inner keys: each bucket must keep the inner scan order.
    insert(
        &db,
        "i",
        (0..120).map(|n| {
            let k = match n {
                60 => "1.0".to_owned(),
                _ => key(next(1000)),
            };
            format!("({k}, 'v{n}')")
        }),
    );
    let (o, i) = (scan(&db, "o"), scan(&db, "i"));
    assert!(o.iter().any(|r| r[1] == Value::Integer(1)));
    assert!(i.iter().any(|r| r[0] == Value::Real(1.0)));

    let on = |a: &Row, b: &Row| sql_eq(&a[1], &b[0]);
    let got = joined(&db, "SELECT o.*, i.* FROM o, i WHERE o.k = i.k", HASH);
    assert_eq!(got, nested_loop(&o, &i, on));
    assert!(got
        .iter()
        .any(|r| r[1] == Value::Integer(1) && r[4] == Value::Real(1.0)));
    assert!(got
        .iter()
        .all(|r| r[1] != Value::Real(1.5) || r[4] == Value::Real(1.5)));

    // A base conjunct on a column after the key, and one before it.
    let got = joined(
        &db,
        "SELECT o.*, i.* FROM o, i WHERE o.k = i.k AND o.w > 12",
        HASH,
    );
    let w = |r: &Row| r[3].as_i64().unwrap_or(0);
    assert_eq!(got, nested_loop(&o, &i, |a, b| on(a, b) && w(a) > 12));
    let got = joined(
        &db,
        "SELECT o.*, i.* FROM o, i WHERE o.id % 3 = 0 AND i.k = o.k",
        HASH,
    );
    let id = |r: &Row| r[0].as_i64().unwrap_or(1);
    assert_eq!(got, nested_loop(&o, &i, |a, b| on(a, b) && id(a) % 3 == 0));

    // Reading fewer columns changes which columns are decoded, not the
    // rows or their order.
    let got = joined(&db, "SELECT i.v, o.id FROM o, i WHERE o.k = i.k", HASH);
    let want: Vec<Row> = nested_loop(&o, &i, on)
        .into_iter()
        .map(|r| vec![r[5].clone(), r[0].clone()])
        .collect();
    assert_eq!(got, want);
    let r = db
        .query("SELECT COUNT(*) FROM o, i WHERE o.k = i.k")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(want.len() as i64));
}

/// The cases spelled out: `1` joins `1.0`, `1.5` joins nothing, NULL on
/// either side joins nothing, and a text key joins only its text.
#[test]
fn integer_real_null_and_text_keys() {
    let db = db();
    db.execute("CREATE TABLE o (k ANY, tag TEXT)").unwrap();
    db.execute("CREATE TABLE i (k ANY, v INTEGER)").unwrap();
    db.execute(
        "INSERT INTO o VALUES (1, 'int'), (1.5, 'half'), (NULL, 'null'), \
         ('1', 'text'), (2.0, 'real'), ('x', 'x')",
    )
    .unwrap();
    db.execute(
        "INSERT INTO i VALUES (1.0, 10), (NULL, 20), (2, 30), (2, 31), ('x', 40), (1.25, 50)",
    )
    .unwrap();
    let got = joined(&db, "SELECT o.tag, i.v FROM o, i WHERE o.k = i.k", HASH);
    let pairs: Vec<(String, i64)> = got
        .iter()
        .map(|r| (r[0].to_string(), r[1].as_i64().unwrap()))
        .collect();
    let want = [("int", 10), ("real", 30), ("real", 31), ("x", 40)];
    let want: Vec<(String, i64)> = want.iter().map(|&(t, v)| (t.to_owned(), v)).collect();
    assert_eq!(pairs, want);
}

/// A three-table join whose second step is hashed, after an index
/// nested loop and after another hash step; and a join every outer row
/// matches.
#[test]
fn second_step_hashed_and_every_row_matching() {
    let db = db();
    db.execute("CREATE TABLE a (id INTEGER, bk INTEGER, note TEXT)")
        .unwrap();
    db.execute("CREATE TABLE b (bk INTEGER, ck ANY, label TEXT)")
        .unwrap();
    db.execute("CREATE TABLE c (ck ANY, score REAL)").unwrap();
    let mut next = lcg(11);
    insert(
        &db,
        "a",
        (0..700).map(|id| format!("({id}, {}, 'a-{id}')", next(60))),
    );
    insert(
        &db,
        "b",
        (0..90).map(|n| {
            let ck = match next(4) {
                0 => "NULL".to_owned(),
                1 => format!("{}.0", next(25)),
                _ => format!("{}", next(25)),
            };
            format!("({}, {ck}, 'b-{n}')", n % 70)
        }),
    );
    insert(
        &db,
        "c",
        (0..50).map(|n| format!("({}, {}.5)", next(25), n)),
    );
    let (a, b, c) = (scan(&db, "a"), scan(&db, "b"), scan(&db, "c"));
    let ab = nested_loop(&a, &b, |x, y| sql_eq(&x[1], &y[0]));
    let want = nested_loop(&ab, &c, |x, y| sql_eq(&x[4], &y[0]));
    let sql = "SELECT a.*, b.*, c.* FROM a JOIN b ON a.bk = b.bk JOIN c ON b.ck = c.ck";

    let got = joined(&db, sql, HASH);
    assert_eq!(got, want);
    db.execute("CREATE INDEX idx_b ON b (bk)").unwrap();
    let r = db.query(sql).unwrap();
    assert_eq!(
        r.plan,
        vec![
            "a: seq scan",
            "b: index nested loop via idx_b",
            "c: hash join (ad-hoc index build)"
        ]
    );
    assert_eq!(r.rows, want);

    // Every outer row matches: the key is always found.
    let b_keys: Vec<Row> = (0..60).map(|k| vec![Value::Integer(k)]).collect();
    db.execute("CREATE TABLE ks (bk INTEGER)").unwrap();
    insert(&db, "ks", (0..60).map(|k| format!("({k})")));
    let got = joined(&db, "SELECT a.*, ks.* FROM a, ks WHERE a.bk = ks.bk", HASH);
    assert_eq!(got.len(), a.len());
    assert_eq!(got, nested_loop(&a, &b_keys, |x, y| sql_eq(&x[1], &y[0])));
}

/// Overwrite, through the pager, the byte `at` places from the start of
/// `marker` (which must occur exactly once in the database) with `byte`.
fn corrupt(db: &Database, marker: &[u8], at: isize, byte: u8) {
    let store = db.store();
    let mut txn = store.begin().unwrap();
    let mut hits = 0;
    for pid in (0..txn.page_count()).map(rql_pagestore::PageId) {
        let page = txn.read_page(pid).unwrap();
        let found = page.bytes().windows(marker.len()).position(|w| w == marker);
        if let Some(pos) = found {
            let pos = pos.checked_add_signed(at).unwrap();
            txn.page_mut(pid).unwrap().bytes_mut()[pos] = byte;
            hits += 1;
        }
    }
    assert_eq!(hits, 1, "{}", String::from_utf8_lossy(marker));
    store.commit(txn).unwrap();
}

/// A corrupt cell the statement's column set reaches fails the statement
/// in a row whose key misses exactly as in a row whose key hits: a bad
/// tag (in a read column, or an unread one before the last read column),
/// a cell longer than its record, and invalid UTF-8 in a read text
/// column. A statement whose columns stop before the cell still answers.
#[test]
fn a_corrupt_cell_fails_the_join_whether_its_key_hits_or_misses() {
    // (what breaks, byte offset from the marker, new byte, error text).
    // The marker is the `note` text; its tag sits two bytes before it
    // (tag, one-byte length), and `mid`'s tag nine before that.
    let cases: [(&str, isize, u8, &str); 4] = [
        ("bad tag", -2, 0x07, "bad value tag"),
        ("bad tag in an unread column", -11, 0x09, "bad value tag"),
        ("cell past the record", -1, 0x7f, "truncated record"),
        ("invalid UTF-8", 0, 0xff, "not UTF-8"),
    ];
    for (what, at, byte, error) in cases {
        for (corrupt_key, hits) in [(1000, false), (3, true)] {
            let db = db();
            db.execute("CREATE TABLE o (k INTEGER, mid TEXT, note TEXT, tail TEXT)")
                .unwrap();
            db.execute("CREATE TABLE i (k INTEGER, v TEXT)").unwrap();
            insert(
                &db,
                "o",
                (0..500).map(|n| {
                    let (k, note) = match n {
                        250 => (corrupt_key, "MARKED-NOTE".to_owned()),
                        _ => (n % 40, format!("note-{n:05}")),
                    };
                    format!("({k}, 'mid-val', '{note}', 'tail')")
                }),
            );
            insert(&db, "i", (0..20).map(|k| format!("({k}, 'v{k}')")));
            let sql = "SELECT o.note, i.v FROM o, i WHERE o.k = i.k";
            let before = joined(&db, sql, HASH);
            assert_eq!(
                before.iter().any(|r| r[0] == Value::text("MARKED-NOTE")),
                hits
            );

            corrupt(&db, b"MARKED-NOTE", at, byte);
            let err = db.query(sql).unwrap_err();
            assert!(
                err.to_string().contains(error),
                "{what}, key hits: {hits}: {err}"
            );
            // Columns that stop at the key never reach the cell.
            let r = db
                .query("SELECT COUNT(*) FROM o, i WHERE o.k = i.k")
                .unwrap();
            assert_eq!(r.rows[0][0], Value::Integer(before.len() as i64));
        }
    }
}
