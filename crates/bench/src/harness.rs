//! Shared experiment harness: configurations, all-cold baselines, cost
//! formatting.
//!
//! Every figure states its shape on one of two bases, per DESIGN.md's
//! substitution note: **counted** Pagelog reads, which are deterministic
//! and carry every check about sharing or fetches avoided, and
//! **measured** time ([`measured`], [`qq_wall`], [`exec_time`]), which
//! carries every check about speed. The Pagelog is in memory, so no
//! time reported here includes a device read.

use std::time::{Duration, Instant};

use rql::{RqlReport, RqlSession};
use rql_retro::RetroConfig;
use rql_sqlengine::{ExecStats, Result, SqlError};

/// Schema version stamped into every `BENCH_*.json` artifact. Bump when
/// a field is renamed or its meaning changes; `scripts/validate_bench.py`
/// checks it.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Scale factor used by the experiments (overridable via
/// `RQL_BENCH_SF`). 0.002 ⇒ 3,000 orders ≈ 1/500 of the paper's SF-1.
pub fn bench_sf() -> f64 {
    std::env::var("RQL_BENCH_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.002)
}

/// Whether to run the reduced "fast" parameterization (`RQL_BENCH_FAST`).
pub fn fast_mode() -> bool {
    std::env::var("RQL_BENCH_FAST").is_ok()
}

/// The store configuration all experiments use.
pub fn bench_config() -> RetroConfig {
    RetroConfig::new()
}

/// Time one bench phase: emits a labeled [`rql_trace::SpanId::BenchPhase`]
/// span (so `RQL_TRACE=out.json` exports carry the phase breakdown) and
/// returns the phase's wall time alongside the closure's result. This is
/// the harness's replacement for ad-hoc `Instant::now()` pairs — every
/// phase timed this way shows up consistently in both the markdown
/// report and the trace export.
pub fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = rql_trace::span_labeled(rql_trace::SpanId::BenchPhase, name);
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Cost of an *all-cold* run over `sids` with query `qq`: every
/// iteration starts with an empty snapshot-page cache, so each fetches
/// exactly what a stand-alone snapshot query would (paper §5.1).
pub fn all_cold_run(session: &RqlSession, sids: &[u64], qq: &str) -> Result<RqlReport> {
    let store = session.snap_db().store();
    let mut report = RqlReport::default();
    for &sid in sids {
        store.cache().clear();
        let parsed = rql_sqlengine::parse_select(qq)?;
        let rewritten = rql::rewrite_select(&parsed, sid);
        let started = Instant::now();
        let outcome = session
            .snap_db()
            .execute_stmt(&rql_sqlengine::Stmt::Select(rewritten))?;
        let wall = started.elapsed();
        let result = outcome
            .rows()
            .ok_or_else(|| SqlError::Invalid(format!("Qq returned no rows: {qq}")))?;
        report.iterations.push(rql::IterationReport {
            snap_id: sid,
            qq_stats: result.stats,
            udf_time: Duration::ZERO,
            qq_rows: result.rows.len() as u64,
            result_inserts: 0,
            result_updates: 0,
            memo_hit: false,
            wall,
        });
    }
    Ok(report)
}

/// Snapshot ids a Qs string resolves to (for driving all-cold baselines
/// with the exact same set).
pub fn resolve_qs(session: &RqlSession, qs: &str) -> Result<Vec<u64>> {
    let r = session.query_aux(qs)?;
    Ok(r.rows
        .iter()
        .filter_map(|row| row[0].as_i64())
        .map(|i| i as u64)
        .collect())
}

/// Run an RQL query "from cold": clear the snapshot-page cache first
/// (paper §5: "the snapshot page cache is empty at the start of an RQL
/// query"), drop the result table, then invoke `f`.
pub fn run_from_cold<T>(
    session: &RqlSession,
    result_table: &str,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    session.drop_result_table(result_table)?;
    session.snap_db().store().cache().clear();
    f()
}

/// Measured time of a whole computation: Qs, every iteration's wall
/// (its Qq phase and its UDF time) and the final step.
pub fn measured(report: &RqlReport) -> Duration {
    report.qs_time + report.finalize_time + report.iterations.iter().map(|i| i.wall).sum()
}

/// Measured time of a computation's Qq phase: each iteration's wall less
/// its UDF time, i.e. the executed Qq or, on a memo hit, the lookup.
pub fn qq_wall(report: &RqlReport) -> Duration {
    report
        .iterations
        .iter()
        .map(|i| i.wall.saturating_sub(i.udf_time))
        .sum()
}

/// Measured time of an execution's engine parts: SPT build, index
/// creation and evaluation. Store work outside them is not included —
/// e.g. the first query naming a new filter column summarizes every
/// archived page inside its iteration, which would bias whichever lane of
/// a comparison runs first.
pub fn exec_time(stats: &ExecStats) -> Duration {
    stats.spt_build + stats.index_creation + stats.eval
}

/// Milliseconds of `d`, for tables and artifacts.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The ratio C of paper §5.1 on measured time: RQL over all-cold for the
/// same snapshot set.
pub fn ratio_c(rql: &RqlReport, all_cold: &RqlReport) -> f64 {
    let a = measured(rql).as_secs_f64();
    let b = measured(all_cold).as_secs_f64();
    if b == 0.0 {
        return 1.0;
    }
    a / b
}

/// Ratio C on counted Pagelog reads — deterministic, and the basis of
/// Figures 6–7's shape checks.
pub fn ratio_c_io(rql: &RqlReport, all_cold: &RqlReport) -> f64 {
    let a = rql.accumulated_stats().io.pagelog_reads as f64;
    let b = all_cold.accumulated_stats().io.pagelog_reads as f64;
    if b == 0.0 {
        return 1.0;
    }
    a / b
}

/// One row of a cost-breakdown table (Figures 8–13): SPT build, index
/// creation, query evaluation, RQL UDF (measured) and Pagelog reads
/// (counted).
pub fn breakdown_row(label: &str, stats: &ExecStats, udf: Duration) -> String {
    format!(
        "| {label} | {:>9.3} | {:>10.3} | {:>10.3} | {:>8.3} | {:>8} |",
        ms(stats.spt_build),
        ms(stats.index_creation),
        ms(stats.eval),
        ms(udf),
        stats.io.pagelog_reads,
    )
}

/// Header matching [`breakdown_row`].
pub fn breakdown_header() -> String {
    "| iteration | SPT (ms) | index (ms) | eval (ms) | UDF (ms) | plog rd |\n\
     |---|---|---|---|---|---|"
        .to_owned()
}

/// Mean breakdown over the hot (non-first) iterations of a report.
pub fn hot_mean_stats(report: &RqlReport) -> (ExecStats, Duration) {
    let hot = &report.iterations[1..];
    if hot.is_empty() {
        return (ExecStats::default(), Duration::ZERO);
    }
    let mut acc = ExecStats::default();
    let mut udf = Duration::ZERO;
    for it in hot {
        acc.accumulate(&it.qq_stats);
        udf += it.udf_time;
    }
    let n = hot.len() as u32;
    let stats = ExecStats {
        spt_build: acc.spt_build / n,
        index_creation: acc.index_creation / n,
        eval: acc.eval / n,
        io: rql_pagestore::IoStatsSnapshot {
            db_reads: acc.io.db_reads / n as u64,
            cache_hits: acc.io.cache_hits / n as u64,
            pagelog_reads: acc.io.pagelog_reads / n as u64,
            cow_captures: acc.io.cow_captures / n as u64,
            pages_written: acc.io.pages_written / n as u64,
            maplog_entries_scanned: acc.io.maplog_entries_scanned / n as u64,
            cache_evictions: acc.io.cache_evictions / n as u64,
            pages_pruned: acc.io.pages_pruned / n as u64,
            snapshots_pruned: acc.io.snapshots_pruned / n as u64,
            sidecar_bytes: acc.io.sidecar_bytes / n as u64,
        },
        rows: acc.rows / n as u64,
        pages_skipped_delta: acc.pages_skipped_delta / n as u64,
        pages_pruned_filter: acc.pages_pruned_filter / n as u64,
        delta_eligible: acc.delta_eligible / n as u64,
    };
    (stats, udf / n)
}

/// The cold (first) iteration's breakdown.
pub fn cold_stats(report: &RqlReport) -> (ExecStats, Duration) {
    match report.iterations.first() {
        Some(it) => (it.qq_stats, it.udf_time),
        None => (ExecStats::default(), Duration::ZERO),
    }
}
