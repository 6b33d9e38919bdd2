//! A durable, on-disk deployment: WAL + Pagelog + Maplog as real files,
//! crash recovery, and retrospective queries across restarts.
//!
//! ```sh
//! cargo run --release --example durable_shop
//! ```
//!
//! A small shop takes a snapshot after every business day. The process
//! then "crashes" (drops everything in memory) and reopens from the
//! files; all snapshots remain queryable.

use std::path::Path;
use std::sync::Arc;

use rql_pagestore::{FileStorage, LogStorage, PagerConfig};
use rql_retro::{RetroConfig, RetroStore};
use rql_sqlengine::Database;

fn open_db(dir: &Path, fresh: bool) -> rql::Result<Arc<Database>> {
    let storage = |name: &str| -> rql::Result<Arc<dyn LogStorage>> {
        let path = dir.join(name);
        Ok(Arc::new(if fresh {
            FileStorage::create(&path)?
        } else {
            FileStorage::open(&path)?
        }))
    };
    let config = RetroConfig {
        pager: PagerConfig {
            page_size: 4096,
            cache_capacity: 1 << 12,
            wal_sync_on_commit: true, // durability at every commit
        },
        ..RetroConfig::new()
    };
    let store = RetroStore::open(
        config,
        storage("wal.log")?,
        storage("pagelog.bin")?,
        storage("maplog.bin")?,
    )?;
    Ok(Database::over_store(store))
}

fn main() -> rql::Result<()> {
    let dir = std::env::temp_dir().join(format!("rql-durable-shop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create data dir");
    println!("data directory: {}", dir.display());

    // --- day 1-3: trade, snapshot nightly, then "crash" -----------------
    {
        let db = open_db(&dir, true)?;
        db.execute("CREATE TABLE stock (sku TEXT, qty INTEGER, price REAL)")?;
        db.execute(
            "INSERT INTO stock VALUES ('apple', 100, 0.5), ('pear', 80, 0.7), \
             ('plum', 60, 0.9)",
        )?;
        db.declare_snapshot()?; // end of day 1
        db.execute("UPDATE stock SET qty = qty - 30 WHERE sku = 'apple'")?;
        db.execute("UPDATE stock SET price = 0.8 WHERE sku = 'pear'")?;
        db.declare_snapshot()?; // end of day 2
        db.execute("DELETE FROM stock WHERE sku = 'plum'")?;
        db.execute("INSERT INTO stock VALUES ('quince', 40, 1.2)")?;
        db.declare_snapshot()?; // end of day 3
        db.store().flush()?;
        println!(
            "before crash: {} snapshots, pagelog {} bytes ({} pre-states)",
            db.store().snapshot_count(),
            db.store().pagelog().size_bytes(),
            db.store().pagelog().pre_state_count(),
        );
        // process "crashes" here — no clean shutdown beyond flush()
    }

    // --- restart: everything is still there ------------------------------
    let db = open_db(&dir, false)?;
    println!(
        "after reopen: {} snapshots recovered",
        db.store().snapshot_count()
    );

    for day in 1..=3u64 {
        let r = db.query(&format!(
            "SELECT AS OF {day} sku, qty, price FROM stock ORDER BY sku"
        ))?;
        println!("\nend of day {day}:");
        for row in &r.rows {
            println!("  {:<7} qty {:>4} @ {}", row[0].to_string(), row[1], row[2]);
        }
    }

    // Retrospective question across the whole history: when did pears get
    // more expensive?
    let r = db.query("SELECT AS OF 1 price FROM stock WHERE sku = 'pear'")?;
    let before = r.rows[0][0].clone();
    let r = db.query("SELECT AS OF 2 price FROM stock WHERE sku = 'pear'")?;
    let after = r.rows[0][0].clone();
    println!("\npear price moved {before} → {after} between day 1 and day 2");

    // And the shop keeps trading after recovery.
    db.execute("UPDATE stock SET qty = qty + 500 WHERE sku = 'apple'")?;
    let day4 = db.declare_snapshot()?;
    println!("restock committed; day {day4} snapshot declared");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
