//! A guided tour of the performance effects the paper's §5 studies,
//! printed live from the instrumented store: snapshot sharing (hot vs
//! cold iterations), sharing with the current state, the all-cold
//! baseline, and what a native index does to snapshot sizes.
//!
//! ```sh
//! cargo run --release --example performance_tour
//! ```

use rql::AggOp;
use rql_retro::RetroConfig;
use rql_tpch::{build_history, UW30};

fn main() -> rql::Result<()> {
    println!("Building a TPC-H history: 3,000 orders, UW30 churn, 60 snapshots …");
    let mut history = build_history(RetroConfig::new(), 0.002, UW30, 60, false)?;
    let session = history.session.clone();
    let store = session.snap_db().store();

    // Measure the most recent snapshot while it is still recent (before
    // aging churns a full overwrite cycle): Figure 7's mechanism.
    store.cache().clear();
    let slast = history.last_snapshot();
    let recent = session.aggregate_data_in_variable(
        &format!("SELECT snap_id FROM snapids WHERE snap_id = {slast}"),
        "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'",
        "tour0",
        AggOp::Avg,
    )?;
    let cold_recent = recent.iterations[0].qq_stats.io.pagelog_reads;

    // Effect 1: hot iterations ride the cache because consecutive
    // snapshots share pre-states (Figure 6's mechanism).
    history.age_all_snapshots()?;
    store.cache().clear();
    let report = session.aggregate_data_in_variable(
        &history.qs(1, 10, 1),
        "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'",
        "tour1",
        AggOp::Avg,
    )?;
    println!("\n[1] Old snapshots, 10 consecutive iterations (Qq_io):");
    for it in &report.iterations {
        println!(
            "  snapshot {:>3}: {:>4} pagelog reads, {:>4} cache hits, wall {:?}",
            it.snap_id, it.qq_stats.io.pagelog_reads, it.qq_stats.io.cache_hits, it.wall
        );
    }
    println!(
        "  → the cold first iteration pays for everything; hot iterations fetch only \
         diff(S1,S2)."
    );

    // Effect 2: skipping snapshots reduces sharing (Figure 6, step 10).
    session.drop_result_table("tour1")?;
    store.cache().clear();
    let skipped = session.aggregate_data_in_variable(
        &history.qs(1, 5, 10),
        "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'",
        "tour2",
        AggOp::Avg,
    )?;
    let hot_contig = report
        .hot_mean(|i| i.qq_stats.io.pagelog_reads as f64)
        .unwrap();
    let hot_skip = skipped
        .hot_mean(|i| i.qq_stats.io.pagelog_reads as f64)
        .unwrap();
    println!(
        "\n[2] Hot-iteration pagelog reads: consecutive {hot_contig:.1} vs skip-10 \
         {hot_skip:.1} — skipping {}× the snapshots costs {}× the misses.",
        10,
        (hot_skip / hot_contig.max(0.01)).round()
    );

    // Effect 3: recent snapshots share with the memory-resident database
    // (measured above, before aging).
    let cold_old = report.iterations[0].qq_stats.io.pagelog_reads;
    println!(
        "\n[3] Cold-iteration pagelog reads: old snapshot {cold_old} vs most recent \
         snapshot {cold_recent} — recent snapshots read shared pages from memory."
    );

    // Effect 4: native indexes enlarge snapshots (Figure 9's tradeoff).
    let plain_pages = store.pager().page_count();
    let indexed = build_history(RetroConfig::new(), 0.002, UW30, 10, true)?;
    let indexed_pages = indexed.session.snap_db().store().pager().page_count();
    println!(
        "\n[4] Database pages without native indexes: {plain_pages}; with indexes on \
         orders/lineitem: {indexed_pages} — every snapshot carries its indexes."
    );
    Ok(())
}
