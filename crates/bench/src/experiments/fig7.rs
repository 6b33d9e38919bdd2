//! Figure 7 — Ratio C with recent snapshots: impact of sharing with the
//! *current state*.
//!
//! Fixed-length intervals (20 snapshots, skip 1) starting at x, for x
//! moving from `Slast − OverwriteCycle − 20` (fully archived, all-cold
//! baseline constant) toward `Slast − 20` (sharing most pages with the
//! memory-resident database). Expected shape: C(x) first *drops* as x
//! becomes recent (measured RQL cost falls while the all-cold cost is
//! still constant), then *rises* toward 1 once the all-cold baseline
//! itself collapses (both runs read mostly from the database).

use rql::AggOp;
use rql_sqlengine::Result;
use rql_tpch::{build_history, UpdateWorkload, UW15, UW30};

use crate::harness::{
    all_cold_run, bench_config, bench_sf, cost_model, fast_mode, ratio_c, ratio_c_io, resolve_qs,
    run_from_cold,
};
use crate::queries::QQ_IO;

const INTERVAL: u64 = 20;

/// `(interval-start label, C modeled, C pagelog-reads)`.
type SeriesPoint = (String, f64, f64);

fn run_series(workload: UpdateWorkload) -> Result<(String, Vec<SeriesPoint>)> {
    let cycle = workload.overwrite_cycle();
    // History long enough that Slast − cycle − 20 is itself ≥ 1.
    let total = cycle + INTERVAL + 10;
    let history = build_history(bench_config(), bench_sf(), workload, total, false)?;
    let slast = history.last_snapshot();
    let model = cost_model();
    // Interval starts from the earliest point where the *end* of the
    // interval begins sharing with the current state, up to Slast − 20.
    let earliest_back = cycle + INTERVAL;
    let steps = if fast_mode() { 4 } else { 8 };
    let mut points = Vec::new();
    for i in 0..=steps {
        let back = earliest_back - (earliest_back - INTERVAL) * i / steps;
        let start = slast - back + 1;
        let qs = history.qs(start, INTERVAL, 1);
        let report = run_from_cold(&history.session, "fig7_result", || {
            history
                .session
                .aggregate_data_in_variable(&qs, QQ_IO, "fig7_result", AggOp::Avg)
        })?;
        let sids = resolve_qs(&history.session, &qs)?;
        history.session.snap_db().store().cache().clear();
        let baseline = all_cold_run(&history.session, &sids, QQ_IO)?;
        points.push((
            format!("Slast-{back}"),
            ratio_c(&report, &baseline, &model),
            ratio_c_io(&report, &baseline),
        ));
    }
    Ok((
        format!("{}, AggV(Qs_{INTERVAL}, Qq_io, AVG)", workload.name),
        points,
    ))
}

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let mut out = String::new();
    out.push_str("## Figure 7 — Ratio C with recent snapshots (sharing with current state)\n\n");
    out.push_str("Interval of 20 consecutive snapshots starting at `Slast-x`; x shrinking.\n\n");
    for workload in [UW30, UW15] {
        let (label, points) = run_series(workload)?;
        out.push_str(&format!("### {label}\n\n"));
        out.push_str("| interval start | C (modeled) | C (pagelog reads) |\n|---|---|---|\n");
        for (start, c, cio) in &points {
            out.push_str(&format!("| {start} | {c:.3} | {cio:.3} |\n"));
        }
        // Shape: minimum strictly inside the range (drop then rise).
        let min_idx = points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map_or(0, |(i, _)| i);
        let ends_higher = points.last().unwrap().1 > points[min_idx].1;
        out.push_str(&format!(
            "\n- C dips at {} then {}\n\n",
            points[min_idx].0,
            if ends_higher {
                "rises toward 1 for the most recent intervals — as in the paper"
            } else {
                "UNEXPECTED: does not rise again"
            }
        ));
    }
    Ok(out)
}
