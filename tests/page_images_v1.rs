//! Pins the bytes every write leaves on its pages: a scripted history on
//! a small-page in-memory database, with an integer index, a
//! multi-column index and a text index on one table. The inserts force
//! leaf, internal and root splits in all three trees; deletes cut across
//! the splits; the table is dropped and filled again. After every commit
//! the page count and the FNV-1a of every page are recorded, so a change
//! to how a heap page or a B-tree node is edited that alters any byte —
//! including bytes past the live entries — is a visible diff of
//! `tests/golden/page_images_v1.txt`. UPDATE is not in the script: an
//! update that fits its slot is rewritten in place, which changes its
//! page images on purpose.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test page_images_v1`.

use std::fmt::Write as _;

use rql_pagestore::{fnv1a, PageId, PagerConfig};
use rql_retro::RetroConfig;
use rql_sqlengine::Database;

const GOLDEN_PATH: &str = "tests/golden/page_images_v1.txt";

/// `count` rows with ids scrambled from `first..first + count`.
fn insert_batch(first: i64, count: i64) -> String {
    let names = ["ann", "bob", "cy", "dee", "eve", "fay", "gus", "hal"];
    let mut ids: Vec<i64> = (first..first + count).collect();
    let mut state = first as u64 + 7;
    for i in (1..ids.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ids.swap(i, (state >> 33) as usize % (i + 1));
    }
    let rows: Vec<String> = ids
        .iter()
        .map(|id| {
            let grp = ["a", "b", "c"][(id % 3) as usize];
            let name = names[(id % 8) as usize];
            format!("({id}, '{grp}', {}, '{name}-{id:04}')", id % 7)
        })
        .collect();
    format!("INSERT INTO t VALUES {}", rows.join(", "))
}

fn script() -> Vec<String> {
    let ddl = [
        "CREATE TABLE t (id INTEGER, grp TEXT, n INTEGER, name TEXT)",
        "CREATE INDEX t_id ON t (id)",
        "CREATE INDEX t_grp_n ON t (grp, n)",
        "CREATE INDEX t_name ON t (name)",
    ];
    let mut steps: Vec<String> = ddl.iter().map(|s| (*s).to_owned()).collect();
    for batch in 0..5 {
        steps.push(insert_batch(batch * 40, 40));
    }
    steps.push("DELETE FROM t WHERE id >= 30 AND id < 110".into());
    steps.push("DELETE FROM t WHERE id % 3 = 1".into());
    // Several statements in one transaction: later statements edit pages
    // the same transaction already staged.
    steps.push(format!(
        "BEGIN; {}; DELETE FROM t WHERE grp = 'c' AND n < 4; {}; COMMIT",
        insert_batch(200, 30),
        insert_batch(230, 30)
    ));
    steps.push("DELETE FROM t WHERE name > 'eve'".into());
    steps.push("DROP TABLE t".into());
    steps.extend(ddl.iter().map(|s| (*s).to_owned()));
    steps.push(insert_batch(500, 60));
    steps.push("DELETE FROM t".into());
    steps.push(insert_batch(600, 20));
    steps
}

#[test]
fn every_commit_matches_the_golden_page_images() {
    let db = Database::in_memory(RetroConfig {
        pager: PagerConfig {
            page_size: 256,
            cache_capacity: 64,
            wal_sync_on_commit: false,
        },
        ..RetroConfig::new()
    });
    let pager = db.store().pager();
    let mut got = String::new();
    for (step, sql) in script().iter().enumerate() {
        db.execute(sql).expect(sql);
        let count = pager.page_count();
        let label: String = sql.chars().take(48).collect();
        let _ = writeln!(got, "step {step} pages {count}: {label}");
        for chunk in (0..count).collect::<Vec<_>>().chunks(8) {
            let hashes: Vec<String> = chunk
                .iter()
                .map(|&pid| {
                    let page = pager.read_page(PageId(pid)).expect("page");
                    format!("{:016x}", fnv1a(page.bytes()))
                })
                .collect();
            let _ = writeln!(got, "  {}", hashes.join(" "));
        }
    }
    let rows = db.query("SELECT COUNT(*) FROM t").expect("count");
    let _ = writeln!(got, "rows {:?}", rows.rows[0][0]);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    assert_eq!(
        got, want,
        "page images drifted from {GOLDEN_PATH}; run with UPDATE_GOLDEN=1 if intentional"
    );
}
