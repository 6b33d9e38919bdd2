//! Figure 13 — `AggregateDataInTable` with MAX vs SUM aggregation, under
//! UW30.
//!
//! Expected shape: cold iterations cost the same (identical inserts and
//! index creation); hot iterations are more expensive for SUM, which
//! must update the result table for *every* record Qq returns, while
//! MAX only updates when a group's maximum actually changes (the paper
//! measured ~1M updates for SUM vs ~22K for MAX per iteration).

use rql::AggOp;
use rql_sqlengine::Result;

use super::agg_vs_collate::{history, run_agg_table};
use crate::harness::{breakdown_header, breakdown_row, cold_stats, hot_mean_stats};

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let h = history()?;
    let max_run = run_agg_table(&h, &[("cn".to_owned(), AggOp::Max)], "Max aggregation")?;
    let sum_run = run_agg_table(&h, &[("cn".to_owned(), AggOp::Sum)], "Sum aggregation")?;
    let mut out = String::new();
    out.push_str("## Figure 13 — AggregateDataInTable, MAX vs SUM, UW30\n\n");
    out.push_str(&breakdown_header());
    out.push('\n');
    for run in [&max_run, &sum_run] {
        let (cold, cold_udf) = cold_stats(&run.report);
        out.push_str(&breakdown_row(
            &format!("{} cold", run.label),
            &cold,
            cold_udf,
        ));
        out.push('\n');
        let (hot, hot_udf) = hot_mean_stats(&run.report);
        out.push_str(&breakdown_row(&format!("{} hot", run.label), &hot, hot_udf));
        out.push('\n');
    }
    out.push('\n');
    let (_, max_hot_udf) = hot_mean_stats(&max_run.report);
    let (_, sum_hot_udf) = hot_mean_stats(&sum_run.report);
    let max_updates = max_run.report.total_result_updates();
    let sum_updates = sum_run.report.total_result_updates();
    out.push_str(&format!(
        "- Result-table updates: MAX {} vs SUM {} (paper: ~22K vs ~1M per iteration — \
         SUM updates every group, MAX only changed maxima): {}.\n",
        max_updates,
        sum_updates,
        if sum_updates > max_updates * 2 {
            "as in the paper"
        } else {
            "UNEXPECTED"
        }
    ));
    out.push_str(&format!(
        "- Result-table pages written: MAX {} vs SUM {}.\n",
        max_run.aux_pages_written, sum_run.aux_pages_written
    ));
    out.push_str(&format!(
        "- Hot UDF time: MAX {:.2} ms vs SUM {:.2} ms: {}.\n\n",
        max_hot_udf.as_secs_f64() * 1e3,
        sum_hot_udf.as_secs_f64() * 1e3,
        if sum_hot_udf >= max_hot_udf {
            "as in the paper"
        } else {
            "close (both probe per record; update volume differs)"
        }
    ));
    Ok(out)
}
