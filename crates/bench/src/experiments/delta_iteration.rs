//! Delta-driven iteration ablation — Qq-phase speedup vs snapshot
//! spacing (the Figure 6 x-axis).
//!
//! The delta pipeline re-reads only the pages that changed between
//! consecutive Qs snapshots and serves the rest from the scanner's row
//! cache, so its win is largest when snapshots are closely spaced (few
//! changed pages per step) and shrinks as spacing grows. This experiment
//! drives a history whose per-snapshot churn is a *contiguous* orderkey
//! range — a handful of heap pages per step — then compares sequential
//! `CollateData`/`AggregateDataInVariable` against `DeltaPolicy::Forced`
//! for increasing snapshot spacing.
//!
//! The buffer cache is configured smaller than the orders heap, so
//! cross-iteration sharing through the page cache (Figure 6's effect)
//! cannot help the sequential run: any saving visible here comes from
//! the delta scanner alone. Times are the Qq phase's measured engine
//! parts ([`exec_time`]); Pagelog reads are counted beside them.

use rql::{AggOp, DeltaPolicy, RqlSession};
use rql_pagestore::PagerConfig;
use rql_retro::RetroConfig;
use rql_sqlengine::Result;
use rql_tpch::{load_initial, Tpch};

use crate::harness::{bench_sf, exec_time, fast_mode, ms, run_from_cold};
use crate::queries::QQ_IO;

/// History with `rounds` snapshots; round `r` updates the `(r % cycle)`-th
/// contiguous orderkey chunk, so consecutive snapshots differ in ~1/cycle
/// of the orders heap. A final full-table pass archives every page (all
/// snapshots "old"), and the cache is left cold.
fn build_session(rounds: u64, cycle: u64) -> Result<std::sync::Arc<RqlSession>> {
    let cfg = RetroConfig {
        pager: PagerConfig {
            page_size: 4096,
            // Smaller than the orders heap: defeats cross-iteration
            // sharing via the buffer cache, isolating the delta
            // scanner's contribution.
            cache_capacity: 8,
            wal_sync_on_commit: false,
        },
        ..RetroConfig::new()
    };
    let session = RqlSession::new(cfg)?;
    load_initial(session.snap_db(), &Tpch::new(bench_sf()))?;
    let maxk = session.query("SELECT MAX(o_orderkey) FROM orders")?.rows[0][0]
        .as_i64()
        .unwrap_or(0) as u64;
    let width = maxk / cycle + 1;
    for r in 0..rounds {
        let lo = (r % cycle) * width;
        session.execute(&format!(
            "UPDATE orders SET o_totalprice = o_totalprice + 1 \
             WHERE o_orderkey >= {lo} AND o_orderkey < {hi}",
            hi = lo + width
        ))?;
        session.declare_snapshot(None)?;
    }
    session.execute("UPDATE orders SET o_totalprice = o_totalprice + 1")?;
    session.snap_db().store().cache().clear();
    Ok(session)
}

fn qs_spaced(iterations: u64, spacing: u64) -> String {
    let end = 1 + (iterations - 1) * spacing;
    format!(
        "SELECT snap_id FROM SnapIds WHERE snap_id >= 1 AND snap_id <= {end} \
         AND (snap_id - 1) % {spacing} = 0 ORDER BY snap_id"
    )
}

fn tables_identical(session: &RqlSession, a: &str, b: &str) -> Result<bool> {
    let ra = session.query_aux(&format!("SELECT * FROM {a}"))?;
    let rb = session.query_aux(&format!("SELECT * FROM {b}"))?;
    Ok(ra.columns == rb.columns && ra.rows == rb.rows)
}

/// Run the experiment, returning a markdown section.
pub fn run() -> Result<String> {
    let (iterations, spacings, cycle): (u64, Vec<u64>, u64) = if fast_mode() {
        (5, vec![1, 2, 5], 12)
    } else {
        (8, vec![1, 2, 5, 10], 16)
    };
    let rounds = 1 + (iterations - 1) * spacings.last().copied().unwrap_or(1);
    let session = build_session(rounds, cycle)?;

    let mut out = String::new();
    out.push_str("## Delta iteration ablation — Qq-phase speedup vs snapshot spacing\n\n");
    out.push_str(&format!(
        "CollateData(Qs_{iterations}, Qq_io) over old snapshots, buffer cache \
         smaller than the orders heap; per-snapshot churn = 1/{cycle} of the \
         orderkey space (contiguous). Times are the Qq phase's measured \
         SPT + index + eval (the Pagelog is in memory).\n\n"
    ));
    out.push_str(
        "| spacing | seq Qq (ms) | delta Qq (ms) | speedup | \
         plog rd seq | plog rd delta | pages skipped | identical |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut speedups = Vec::new();
    for &spacing in &spacings {
        let qs = qs_spaced(iterations, spacing);
        let seq = run_from_cold(&session, "di_seq", || {
            session.collate_data(&qs, QQ_IO, "di_seq")
        })?;
        session.snap_db().store().cache().clear();
        let delta = run_from_cold(&session, "di_delta", || {
            session.collate_data_with_policy(&qs, QQ_IO, "di_delta", DeltaPolicy::Forced)
        })?;
        let same = tables_identical(&session, "di_seq", "di_delta")?;
        let s = seq.accumulated_stats();
        let d = delta.accumulated_stats();
        let seq_cost = ms(exec_time(&s));
        let delta_cost = ms(exec_time(&d));
        let speedup = seq_cost / delta_cost.max(1e-9);
        speedups.push((spacing, speedup));
        out.push_str(&format!(
            "| {spacing} | {seq_cost:.3} | {delta_cost:.3} | {speedup:.2}× | {} | {} | {} | {same} |\n",
            s.io.pagelog_reads, d.io.pagelog_reads, d.pages_skipped_delta,
        ));
    }
    out.push('\n');

    // AggregateDataInVariable takes the same cached-rows pipeline:
    // unchanged pages cost no I/O, and the inner aggregate re-runs over
    // the cached rows.
    {
        let qs = qs_spaced(iterations, 1);
        let seq = run_from_cold(&session, "di_av_seq", || {
            session.aggregate_data_in_variable(&qs, QQ_IO, "di_av_seq", AggOp::Avg)
        })?;
        session.snap_db().store().cache().clear();
        let delta = run_from_cold(&session, "di_av_delta", || {
            session.aggregate_data_in_variable_with_policy(
                &qs,
                QQ_IO,
                "di_av_delta",
                AggOp::Avg,
                DeltaPolicy::Forced,
            )
        })?;
        let same = tables_identical(&session, "di_av_seq", "di_av_delta")?;
        let s = seq.accumulated_stats();
        let d = delta.accumulated_stats();
        let seq_cost = ms(exec_time(&s));
        let delta_cost = ms(exec_time(&d));
        out.push_str(&format!(
            "### AggregateDataInVariable(Qs_{iterations}, Qq_io, AVG), spacing 1 \
             (cached-rows pipeline)\n\n\
             | variant | Qq (ms) | plog rd | identical |\n|---|---|---|---|\n\
             | sequential | {seq_cost:.3} | {} | — |\n\
             | delta (Forced) | {delta_cost:.3} | {} | {same} |\n\n\
             - Delta speedup: {:.2}×.\n\n",
            s.io.pagelog_reads,
            d.io.pagelog_reads,
            seq_cost / delta_cost.max(1e-9),
        ));
    }

    // Shape notes: ≥2× when closely spaced; the win shrinks with spacing.
    let close = speedups.first().copied().unwrap_or((1, 1.0));
    let wide = speedups.last().copied().unwrap_or((1, 1.0));
    out.push_str(&format!(
        "- Closely spaced (spacing {}): Qq-phase speedup {:.2}× (target ≥ 2×): {}\n",
        close.0,
        close.1,
        if close.1 >= 2.0 { "OK" } else { "UNEXPECTED" }
    ));
    out.push_str(&format!(
        "- Speedup declines with spacing ({:.2}× at {} → {:.2}× at {}): {}\n\n",
        close.1,
        close.0,
        wide.1,
        wide.0,
        if close.1 > wide.1 { "OK" } else { "UNEXPECTED" }
    ));
    Ok(out)
}
