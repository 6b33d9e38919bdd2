//! Figure 8 — Single-iteration cost for
//! `AggregateDataInVariable(Qs_50, Qq_io, AVG)` under UW30: the
//! I/O / SPT-build / query-evaluation / RQL-UDF breakdown for old
//! snapshots (cold and hot), recent snapshots (`Slast-50`, `Slast-25`,
//! `Slast`), and the current state.
//!
//! Expected shape: cold-old is dominated by Pagelog I/O; hot-old is far
//! cheaper (sharing); iterations get cheaper as the snapshot approaches
//! the current state; a current-state run has no Pagelog I/O at all.

use rql::AggOp;
use rql_sqlengine::Result;
use rql_tpch::{build_history, UW30};

use crate::harness::{
    bench_config, bench_sf, breakdown_header, breakdown_row, cold_stats, fast_mode, hot_mean_stats,
    run_from_cold,
};
use crate::queries::QQ_IO;

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let interval = if fast_mode() { 10 } else { 50 };
    let cycle = UW30.overwrite_cycle();
    // History: [old interval][full overwrite cycle of further churn]
    // so snapshots 1..interval are old while the tail is recent.
    let total = interval + cycle + 10;
    let history = build_history(bench_config(), bench_sf(), UW30, total, false)?;
    let slast = history.last_snapshot();
    let mut out = String::new();
    out.push_str("## Figure 8 — Single-iteration cost, AggV(Qs_50, Qq_io, AVG), UW30\n\n");
    out.push_str(&breakdown_header());
    out.push('\n');

    let mut run_interval = |label: &str, start: u64, len: u64| -> Result<()> {
        let qs = history.qs(start, len, 1);
        let report = run_from_cold(&history.session, "fig8_result", || {
            history
                .session
                .aggregate_data_in_variable(&qs, QQ_IO, "fig8_result", AggOp::Avg)
        })?;
        let (cold, cold_udf) = cold_stats(&report);
        out.push_str(&breakdown_row(&format!("{label} cold"), &cold, cold_udf));
        out.push('\n');
        let (hot, hot_udf) = hot_mean_stats(&report);
        out.push_str(&breakdown_row(
            &format!("{label} hot (mean)"),
            &hot,
            hot_udf,
        ));
        out.push('\n');
        Ok(())
    };

    run_interval("old snapshot", 1, interval)?;
    run_interval(
        &format!("Slast-{cycle}"),
        slast - cycle + 1,
        interval.min(cycle),
    )?;
    run_interval(
        &format!("Slast-{}", cycle / 2),
        slast - cycle / 2 + 1,
        interval.min(cycle / 2),
    )?;
    run_interval("Slast", slast, 1)?;

    // Current state: same query without AS OF.
    history.session.snap_db().store().cache().clear();
    let r = history.session.query(QQ_IO)?;
    out.push_str(&breakdown_row(
        "current state",
        &r.stats,
        std::time::Duration::ZERO,
    ));
    out.push_str("\n\n");
    out.push_str(
        "- Expected: pagelog reads collapse from cold-old to hot-old (sharing), shrink \
         again for recent snapshots (sharing with the database), and are zero for the \
         current state.\n\n",
    );
    Ok(out)
}
