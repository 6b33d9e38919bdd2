//! Figure 10 — Single-iteration cost for
//! `CollateData(Qs_50, Qq_collate, T)` with varying Qq output size,
//! under UW30.
//!
//! The paper varies `Qq_collate`'s date predicate to return ~500, 100K,
//! 600K and 1M records out of 1.5M orders; scaled down, the same
//! *fractions* of the order table are used. Expected shape: the RQL UDF
//! component (result-table inserts) grows roughly linearly with the
//! output size and dominates for large outputs, while sharing (I/O)
//! stays minimal.

use rql_sqlengine::Result;
use rql_tpch::{build_history, UW30};

use crate::harness::{
    bench_config, bench_sf, breakdown_header, breakdown_row, cold_stats, fast_mode, hot_mean_stats,
    run_from_cold,
};
use crate::queries::{date_at_fraction, qq_collate};

/// Output-size fractions mirroring the paper's 500 / 100K / 600K / 1M of
/// 1.5M orders.
const FRACTIONS: [(f64, &str); 4] = [
    (0.0007, "~500 of 1.5M"),
    (0.0667, "~100K of 1.5M"),
    (0.40, "~600K of 1.5M"),
    (0.667, "~1M of 1.5M"),
];

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let interval = if fast_mode() { 5 } else { 50 };
    let mut history = build_history(bench_config(), bench_sf(), UW30, interval, false)?;
    history.age_all_snapshots()?;
    let qs = history.qs(1, interval, 1);
    let mut out = String::new();
    out.push_str(
        "## Figure 10 — Single-iteration cost, CollateData(Qs_50, Qq_collate, T), UW30\n\n",
    );
    out.push_str(&breakdown_header());
    out.push('\n');
    let mut udf_series: Vec<(u64, f64)> = Vec::new();
    for (frac, paper_label) in FRACTIONS {
        let date = date_at_fraction(&history.session, 1, frac)?;
        let qq = qq_collate(&date);
        let report = run_from_cold(&history.session, "fig10_result", || {
            history.session.collate_data(&qs, &qq, "fig10_result")
        })?;
        let rows = report.iterations.first().map_or(0, |i| i.qq_rows);
        let (cold, cold_udf) = cold_stats(&report);
        out.push_str(&breakdown_row(
            &format!("{rows} records ({paper_label}) cold"),
            &cold,
            cold_udf,
        ));
        out.push('\n');
        let (hot, hot_udf) = hot_mean_stats(&report);
        out.push_str(&breakdown_row(
            &format!("{rows} records ({paper_label}) hot"),
            &hot,
            hot_udf,
        ));
        out.push('\n');
        udf_series.push((rows, hot_udf.as_secs_f64() * 1e3));
    }
    out.push('\n');
    let monotone = udf_series.windows(2).all(|w| w[1].1 >= w[0].1 * 0.8);
    out.push_str(&format!(
        "- RQL UDF time grows with Qq output size ({}): {}.\n\n",
        udf_series
            .iter()
            .map(|(r, ms)| format!("{r} rows → {ms:.2} ms"))
            .collect::<Vec<_>>()
            .join(", "),
        if monotone {
            "as in the paper"
        } else {
            "UNEXPECTED"
        }
    ));
    Ok(out)
}
