//! Figure 9 — Single-iteration cost for the CPU-intensive
//! `AggregateDataInVariable(Qs_50, Qq_cpu, AVG)` under UW30, with and
//! without a native index on `lineitem(l_partkey)`.
//!
//! Expected shape: without a native index, the ad-hoc covering-index
//! build dominates every iteration and cold ≈ hot (I/O is a small part
//! of the total); with a native index the index-creation component
//! disappears, while I/O and SPT-build grow because the index pages are
//! part of the database and of every snapshot.

use rql::AggOp;
use rql_sqlengine::Result;
use rql_tpch::{build_history, UW30};

use crate::harness::{
    bench_config, bench_sf, breakdown_header, breakdown_row, cold_stats, fast_mode, hot_mean_stats,
    run_from_cold,
};
use crate::queries::QQ_CPU;

struct Case {
    #[allow(dead_code)]
    label: &'static str,
    cold: String,
    hot: String,
    cold_index_ms: f64,
    cold_io_reads: u64,
    spt_entries: u64,
    db_pages: u64,
    pagelog_bytes: u64,
}

fn run_case(with_index: bool) -> Result<Case> {
    let interval = if fast_mode() { 5 } else { 50 };
    let mut history = build_history(bench_config(), bench_sf(), UW30, interval, with_index)?;
    history.age_all_snapshots()?;
    let qs = history.qs(1, interval, 1);
    let report = run_from_cold(&history.session, "fig9_result", || {
        history
            .session
            .aggregate_data_in_variable(&qs, QQ_CPU, "fig9_result", AggOp::Avg)
    })?;
    let label = if with_index { "w/ index" } else { "w/o index" };
    let (cold, cold_udf) = cold_stats(&report);
    let (hot, hot_udf) = hot_mean_stats(&report);
    let store = history.session.snap_db().store();
    Ok(Case {
        label,
        cold: breakdown_row(&format!("cold iteration {label}"), &cold, cold_udf),
        hot: breakdown_row(&format!("hot iteration {label}"), &hot, hot_udf),
        cold_index_ms: cold.index_creation.as_secs_f64() * 1e3,
        cold_io_reads: cold.io.pagelog_reads,
        spt_entries: cold.io.maplog_entries_scanned,
        db_pages: store.pager().page_count(),
        pagelog_bytes: store.pagelog().size_bytes(),
    })
}

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let without = run_case(false)?;
    let with = run_case(true)?;
    let mut out = String::new();
    out.push_str("## Figure 9 — Single-iteration cost, AggV(Qs_50, Qq_cpu, AVG), UW30\n\n");
    out.push_str(&breakdown_header());
    out.push('\n');
    for case in [&without, &with] {
        out.push_str(&case.cold);
        out.push('\n');
        out.push_str(&case.hot);
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&format!(
        "- Ad-hoc index creation w/o native index: {:.3} ms (cold); with a native \
         index it is {:.3} ms — {}.\n",
        without.cold_index_ms,
        with.cold_index_ms,
        if with.cold_index_ms < without.cold_index_ms / 4.0 {
            "eliminated, as in the paper"
        } else {
            "UNEXPECTED"
        }
    ));
    out.push_str(&format!(
        "- Native indexes enlarge the database ({} → {} pages) and the Pagelog \
         ({} → {} KiB), the paper's \"an index increases the size of the database \
         and the Pagelog\": {}.\n",
        without.db_pages,
        with.db_pages,
        without.pagelog_bytes >> 10,
        with.pagelog_bytes >> 10,
        if with.db_pages > without.db_pages && with.pagelog_bytes > without.pagelog_bytes {
            "as in the paper"
        } else {
            "UNEXPECTED"
        }
    ));
    out.push_str(&format!(
        "- Cold pagelog reads for this query: {} (w/o) vs {} (w/) — at this scale the \
         native index makes the probe touch far fewer lineitem pages, so per-query \
         I/O can drop even though snapshots are larger.\n",
        without.cold_io_reads, with.cold_io_reads
    ));
    out.push_str(&format!(
        "- Maplog entries scanned for the SPT: {} (w/o) vs {} (w/).\n\n",
        without.spt_entries, with.spt_entries
    ));
    Ok(out)
}
