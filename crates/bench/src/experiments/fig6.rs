//! Figure 6 — Ratio C with old snapshots: impact of sharing *between*
//! snapshots.
//!
//! `AggregateDataInVariable(Qs_N, Qq_io, AVG)` over intervals of N old
//! snapshots, for UW30/UW15 and skip 1/skip 10. Expected shape: C is
//! near 1 for short intervals (the cold first iteration dominates),
//! drops as N grows, and converges to a constant determined by sharing —
//! lower for UW15 than UW30 (smaller diff), lower for skip 1 than skip
//! 10 (closer snapshots share more). Sharing is fetches avoided, so the
//! shape is checked on C over counted Pagelog reads.

use rql::AggOp;
use rql_sqlengine::Result;
use rql_tpch::{build_history, SnapshotHistory, UpdateWorkload, UW15, UW30};

use crate::harness::{
    all_cold_run, bench_config, bench_sf, fast_mode, ratio_c, ratio_c_io, resolve_qs, run_from_cold,
};
use crate::queries::QQ_IO;

struct Series {
    label: String,
    /// (N, C measured, C_io) per interval length.
    points: Vec<(u64, f64, f64)>,
}

fn run_series(workload: UpdateWorkload, skip: u64, lengths: &[u64]) -> Result<Series> {
    let max_len = lengths.iter().copied().max().unwrap_or(1);
    // Enough snapshots to fit the longest (possibly skipping) interval.
    let span = (max_len - 1) * skip + 1;
    let mut history: SnapshotHistory =
        build_history(bench_config(), bench_sf(), workload, span, false)?;
    history.age_all_snapshots()?;
    let mut points = Vec::new();
    for &n in lengths {
        let qs = history.qs(1, n, skip);
        let report = run_from_cold(&history.session, "fig6_result", || {
            history
                .session
                .aggregate_data_in_variable(&qs, QQ_IO, "fig6_result", AggOp::Avg)
        })?;
        let sids = resolve_qs(&history.session, &qs)?;
        history.session.snap_db().store().cache().clear();
        let baseline = all_cold_run(&history.session, &sids, QQ_IO)?;
        points.push((
            n,
            ratio_c(&report, &baseline),
            ratio_c_io(&report, &baseline),
        ));
    }
    Ok(Series {
        label: format!(
            "{}, AggV(Qs_N{}, Qq_io, AVG)",
            workload.name,
            if skip == 1 {
                String::new()
            } else {
                format!(" with step {skip}")
            }
        ),
        points,
    })
}

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let lengths: Vec<u64> = if fast_mode() {
        vec![1, 5, 10, 20]
    } else {
        vec![1, 5, 10, 20, 40, 60, 80, 100]
    };
    let skip10_lengths: Vec<u64> = lengths.iter().map(|&n| n.min(40)).collect();
    let mut out = String::new();
    out.push_str("## Figure 6 — Ratio C with old snapshots (sharing between snapshots)\n\n");
    out.push_str(
        "C = RQL / all-cold, on measured time and on counted Pagelog reads; \
         the shape is checked on reads.\n\n",
    );
    let mut series = vec![
        run_series(UW30, 1, &lengths)?,
        run_series(UW15, 1, &lengths)?,
    ];
    if !fast_mode() {
        let mut dedup = skip10_lengths.clone();
        dedup.dedup();
        series.push(run_series(UW30, 10, &dedup)?);
        series.push(run_series(UW15, 10, &dedup)?);
    }
    for s in &series {
        out.push_str(&format!("### {}\n\n", s.label));
        out.push_str("| interval length N | C (measured) | C (pagelog reads) |\n|---|---|---|\n");
        for (n, c, cio) in &s.points {
            out.push_str(&format!("| {n} | {c:.3} | {cio:.3} |\n"));
        }
        out.push('\n');
    }
    // Shape assertions the paper's figure implies.
    for s in &series {
        let (Some(first), Some(last)) = (s.points.first(), s.points.last()) else {
            continue;
        };
        out.push_str(&format!(
            "- `{}`: C falls from {:.3} (N={}) to {:.3} (N={}): {}\n",
            s.label,
            first.2,
            first.0,
            last.2,
            last.0,
            if last.2 < first.2 {
                "as in the paper"
            } else {
                "UNEXPECTED"
            }
        ));
    }
    out.push('\n');
    Ok(out)
}
