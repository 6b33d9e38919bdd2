//! Figure 12 — Single-iteration cold/hot breakdown for
//! `CollateData(Qs_50, Qq_agg)` vs `AggregateDataInTable(Qs_50, Qq_agg,
//! (cn,MAX))`, under UW30.
//!
//! Expected shape: the cold iteration is more expensive for
//! `AggregateDataInTable` (it also builds the result-table index, and
//! its inserts maintain a key); the hot iterations are more expensive
//! too (per record: index probe + occasional update, vs a blind
//! insert).

use rql_sqlengine::Result;

use super::agg_vs_collate::{history, one_agg, run_agg_table, run_collate};
use crate::harness::{breakdown_header, breakdown_row, cold_stats, hot_mean_stats};

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let h = history()?;
    let collate = run_collate(&h, false)?;
    let aggtab = run_agg_table(&h, &one_agg(), "AggregateDataInTable")?;
    let mut out = String::new();
    out.push_str(
        "## Figure 12 — Single-iteration cost, CollateData vs AggregateDataInTable, UW30\n\n",
    );
    out.push_str(&breakdown_header());
    out.push('\n');
    for (name, run) in [("CollateData", &collate), ("AggregateDataInTable", &aggtab)] {
        let (cold, cold_udf) = cold_stats(&run.report);
        out.push_str(&breakdown_row(&format!("{name} cold"), &cold, cold_udf));
        out.push('\n');
        let (hot, hot_udf) = hot_mean_stats(&run.report);
        out.push_str(&breakdown_row(&format!("{name} hot"), &hot, hot_udf));
        out.push('\n');
    }
    out.push('\n');
    let (_, collate_cold_udf) = cold_stats(&collate.report);
    let (_, aggtab_cold_udf) = cold_stats(&aggtab.report);
    let (_, collate_hot_udf) = hot_mean_stats(&collate.report);
    let (_, aggtab_hot_udf) = hot_mean_stats(&aggtab.report);
    out.push_str(&format!(
        "- Cold UDF: CollateData {:.2} ms vs AggregateDataInTable {:.2} ms \
         (index creation on the result table): {}.\n",
        collate_cold_udf.as_secs_f64() * 1e3,
        aggtab_cold_udf.as_secs_f64() * 1e3,
        if aggtab_cold_udf >= collate_cold_udf {
            "as in the paper"
        } else {
            "UNEXPECTED"
        }
    ));
    out.push_str(&format!(
        "- Hot UDF: CollateData {:.2} ms (blind inserts) vs AggregateDataInTable \
         {:.2} ms (probe + insert/update): {}.\n\n",
        collate_hot_udf.as_secs_f64() * 1e3,
        aggtab_hot_udf.as_secs_f64() * 1e3,
        if aggtab_hot_udf >= collate_hot_udf {
            "as in the paper"
        } else {
            "UNEXPECTED"
        }
    ));
    Ok(out)
}
