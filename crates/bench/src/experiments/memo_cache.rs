//! Memoization-cache ablation — repeated Table-1 workload, cold then
//! warm, against a `--no-memo` baseline.
//!
//! Snapshots are immutable, so a per-snapshot Qq result computed once is
//! valid forever; the memo store (crate `rql-memo`) keys it by canonical
//! Qq fingerprint × snapshot (of this store incarnation) and serves
//! replays without touching the execution layer. This experiment runs the four
//! Table-1 mechanisms over a TPC-H snapshot history three times on one
//! session — memo detached (the `--no-memo` ablation), memo attached
//! cold (populating), memo attached warm (serving) — and reports the
//! modeled Qq-phase cost of each lane, the warm hit rate, and the warm
//! speedup. Machine-readable results land in `BENCH_memo.json`.

use std::sync::Arc;

use rql::{AggOp, RqlSession};
use rql_memo::{MemoConfig, MemoStore};
use rql_sqlengine::{Result, Row};
use rql_tpch::{build_history, UW15};

use crate::harness::{
    bench_config, bench_sf, cost_model, fast_mode, phase, run_from_cold, BENCH_SCHEMA_VERSION,
};
use crate::queries::{QQ_INT, QQ_IO};

const QS: &str = "SELECT snap_id FROM SnapIds";

/// Run the four Table-1 mechanisms into `*_{tag}` result tables.
/// Returns (total modeled Qq-phase cost in ms, canonicalized rows of
/// every result table) — the rows feed the identical-results check
/// between lanes.
fn run_suite(session: &Arc<RqlSession>, tag: &str) -> Result<(f64, Vec<Vec<Row>>)> {
    let model = cost_model();
    let mut cost_ms = 0.0;
    let mut tables = Vec::new();
    let mut record = |report: rql::RqlReport, table: &str, order: &str| -> Result<()> {
        cost_ms += report.accumulated_stats().total_cost(&model).as_secs_f64() * 1e3;
        tables.push(
            session
                .query_aux(&format!("SELECT * FROM {table} ORDER BY {order}"))?
                .rows,
        );
        Ok(())
    };

    let t = format!("mc_c_{tag}");
    let r = run_from_cold(session, &t, || session.collate_data(QS, QQ_IO, &t))?;
    record(r, &t, "1")?;

    let t = format!("mc_a_{tag}");
    let r = run_from_cold(session, &t, || {
        session.aggregate_data_in_variable(QS, QQ_IO, &t, AggOp::Max)
    })?;
    record(r, &t, "1")?;

    let t = format!("mc_t_{tag}");
    let r = run_from_cold(session, &t, || {
        session.aggregate_data_in_table(
            QS,
            "SELECT o_orderkey, o_totalprice FROM orders",
            &t,
            &[("o_totalprice".to_owned(), AggOp::Max)],
        )
    })?;
    record(r, &t, "o_orderkey")?;

    let t = format!("mc_i_{tag}");
    let r = run_from_cold(session, &t, || {
        session.collate_data_into_intervals(QS, QQ_INT, &t)
    })?;
    record(r, &t, "o_orderkey, start_snapshot, end_snapshot")?;

    Ok((cost_ms, tables))
}

/// Run the experiment, returning a markdown section (and writing
/// `BENCH_memo.json` beside the working directory).
pub fn run() -> Result<String> {
    let snapshots: u64 = if fast_mode() { 4 } else { 8 };
    let history = build_history(bench_config(), bench_sf(), UW15, snapshots, false)?;
    let session = history.session;

    // Lane 1 — memo detached: what `rql --no-memo` / `rqld --no-memo`
    // executes. Every iteration pays the full Qq. Each lane runs inside
    // a trace phase so its wall time lands in `BENCH_memo.json` and in
    // `RQL_TRACE` exports alike.
    session.set_memo(None);
    let (res, nomemo_wall) = phase("memo:lane-nomemo", || run_suite(&session, "n"));
    let (nomemo_ms, nomemo_tables) = res?;

    // Lane 2 — memo attached, cold: live execution plus write-through
    // population of the cache.
    let memo = Arc::new(MemoStore::new(MemoConfig::default()));
    session.set_memo(Some(Arc::clone(&memo)));
    let (res, cold_wall) = phase("memo:lane-cold", || run_suite(&session, "c"));
    let (cold_ms, cold_tables) = res?;
    let after_cold = memo.stats();

    // Lane 3 — memo attached, warm: the same Qq set replays from cache.
    let (res, warm_wall) = phase("memo:lane-warm", || run_suite(&session, "w"));
    let (warm_ms, warm_tables) = res?;
    let stats = memo.stats();

    let identical = nomemo_tables == cold_tables && cold_tables == warm_tables;
    let warm_hits = stats.hits - after_cold.hits;
    let warm_misses = stats.misses - after_cold.misses;
    let hit_rate = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;
    // A full hit run skips Qq entirely (modeled warm cost 0); floor the
    // denominator at one modeled Pagelog read so the speedup stays a
    // bounded "at least this much" figure.
    let floor_ms = cost_model().pagelog_read_cost.as_secs_f64() * 1e3;
    let speedup = nomemo_ms / warm_ms.max(floor_ms);

    let json = format!(
        "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\
         \"experiment\":\"memo_cache\",\
         \"snapshots\":{snapshots},\"mechanisms\":4,\
         \"nomemo_qq_cost_ms\":{nomemo_ms:.3},\
         \"cold_qq_cost_ms\":{cold_ms:.3},\
         \"warm_qq_cost_ms\":{warm_ms:.3},\
         \"warm_speedup_vs_nomemo\":{speedup:.3},\
         \"warm_hit_rate\":{hit_rate:.4},\
         \"identical_results\":{identical},\
         \"memo_hits\":{},\"memo_misses\":{},\"memo_inserts\":{},\
         \"memo_evictions\":{},\"memo_bytes\":{},\
         \"phases\":{{\"nomemo_wall_ms\":{:.3},\"cold_wall_ms\":{:.3},\
         \"warm_wall_ms\":{:.3}}}}}\n",
        stats.hits,
        stats.misses,
        stats.inserts,
        stats.evictions,
        stats.bytes,
        nomemo_wall.as_secs_f64() * 1e3,
        cold_wall.as_secs_f64() * 1e3,
        warm_wall.as_secs_f64() * 1e3,
    );
    // Best-effort artifact: the markdown is the primary output.
    let _ = std::fs::write("BENCH_memo.json", &json);

    let mut out = String::new();
    out.push_str("## Memoization cache — repeated Table-1 workload, cold vs warm\n\n");
    out.push_str(&format!(
        "Four mechanisms (CollateData, AggregateDataInVariable, \
         AggregateDataInTable, CollateDataIntoIntervals) over {snapshots} \
         UW15 snapshots; modeled Qq-phase cost per lane. `BENCH_memo.json` \
         carries the same numbers.\n\n"
    ));
    out.push_str(
        "| lane | Qq cost (ms) | hits | misses | notes |\n\
         |---|---|---|---|---|\n",
    );
    out.push_str(&format!(
        "| no-memo (ablation) | {nomemo_ms:.3} | — | — | every iteration re-executes Qq |\n"
    ));
    out.push_str(&format!(
        "| memo, cold | {cold_ms:.3} | {} | {} | live run + cache population |\n",
        after_cold.hits, after_cold.misses
    ));
    out.push_str(&format!(
        "| memo, warm | {warm_ms:.3} | {warm_hits} | {warm_misses} | replay from cache |\n\n"
    ));
    out.push_str(&format!(
        "- Warm hit rate: {:.1}% over {} lookups.\n",
        hit_rate * 1e2,
        warm_hits + warm_misses
    ));
    out.push_str(&format!(
        "- Warm Qq-phase speedup vs no-memo: {speedup:.2}× (target ≥ 2×): {}\n",
        if speedup >= 2.0 { "OK" } else { "UNEXPECTED" }
    ));
    out.push_str(&format!(
        "- All three lanes byte-identical: {}\n\n",
        if identical { "OK" } else { "UNEXPECTED" }
    ));
    Ok(out)
}
