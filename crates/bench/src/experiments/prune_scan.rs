//! Pruning-sidecar ablation — selectivity sweep over a clustered filter
//! column, pruned vs opaque-predicate baseline, cold cache.
//!
//! The table's filter column (`k`) is inserted in ascending order, so
//! each heap page covers a contiguous `k` range and a zone map refutes
//! every page outside the predicate's range. The baseline lane runs the
//! *same* predicate wrapped in `k + 0 < K` — semantically identical for
//! integers, but opaque to the predicate-summary extractor (exactly the
//! shape rqlcheck's RQL209 warns about) — so the two lanes differ only
//! in whether the sidecars can act. Every lane starts with an empty
//! snapshot-page cache and all heap pages archived to the Pagelog, so
//! the pages not read are the fraction refuted (counted), and the win is
//! the measured Qq phase ([`qq_wall`]). Machine-readable results land in
//! `BENCH_prune.json`.

use rql::{DeltaPolicy, RqlSession};
use rql_pagestore::PagerConfig;
use rql_retro::RetroConfig;
use rql_sqlengine::Result;

use crate::harness::{fast_mode, ms, phase, qq_wall, run_from_cold, BENCH_SCHEMA_VERSION};

const QS: &str = "SELECT snap_id FROM SnapIds";

/// History over `events(k, b, payload)` with `n` rows inserted in
/// ascending-`k` chunks (one page covers one contiguous `k` band), filter
/// sidecars declared on `k`, then `rounds` churn snapshots that touch
/// only the top `k` band. A final full-table pass archives every page
/// (all snapshots "old"), and the cache is left cold.
fn build_session(n: u64, rounds: u64) -> Result<std::sync::Arc<RqlSession>> {
    let cfg = RetroConfig {
        pager: PagerConfig {
            page_size: 4096,
            // Smaller than the events heap: every lane re-fetches from
            // the Pagelog, keeping the sweep I/O-bound.
            cache_capacity: 8,
            wal_sync_on_commit: false,
        },
        ..RetroConfig::new()
    };
    let session = RqlSession::new(cfg)?;
    session.execute("CREATE TABLE events (k INTEGER, b INTEGER, payload TEXT)")?;
    let chunk = 200;
    let mut k = 0u64;
    while k < n {
        let hi = (k + chunk).min(n);
        let values: Vec<String> = (k..hi).map(|i| format!("({i}, 0, 'pl-{i:08}')")).collect();
        session.execute(&format!("INSERT INTO events VALUES {}", values.join(", ")))?;
        k = hi;
    }
    // Declared before the churn commits: backfills the current pages and
    // makes every page archived from here on carry a sidecar.
    session.snap_db().declare_filter_columns("events", &["k"])?;
    session.declare_snapshot(None)?;
    let slice = n / 10;
    for _ in 0..rounds {
        session.execute(&format!(
            "UPDATE events SET b = b + 1 WHERE k >= {}",
            n - slice
        ))?;
        session.declare_snapshot(None)?;
    }
    session.execute("UPDATE events SET b = b + 1")?;
    session.snap_db().store().cache().clear();
    Ok(session)
}

/// Same columns and same multiset of rows — the delta path emits rows in
/// scan-cache order, so the comparison is order-insensitive.
fn tables_identical(session: &RqlSession, a: &str, b: &str) -> Result<bool> {
    let ra = session.query_aux(&format!("SELECT * FROM {a}"))?;
    let rb = session.query_aux(&format!("SELECT * FROM {b}"))?;
    let key = |rows: &[rql_sqlengine::Row]| {
        let mut k: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        k.sort();
        k
    };
    Ok(ra.columns == rb.columns && key(&ra.rows) == key(&rb.rows))
}

/// Run the experiment, returning a markdown section (and writing
/// `BENCH_prune.json` beside the working directory).
pub fn run() -> Result<String> {
    let (n, rounds): (u64, u64) = if fast_mode() { (1200, 2) } else { (4000, 3) };
    let session = build_session(n, rounds)?;
    // The sweep measures the scan path itself; keep the memo out of it.
    session.set_memo(None);
    let snapshots = rounds + 1;

    let mut out = String::new();
    out.push_str("## Pruning sidecars — selectivity sweep, pruned vs opaque baseline\n\n");
    out.push_str(&format!(
        "CollateData(Qs_{snapshots}, `SELECT k, payload FROM events WHERE k < K`) \
         over {n} clustered rows, sequential path (DeltaPolicy::Off), cold cache, \
         all pages archived. The baseline wraps the predicate as `k + 0 < K` \
         (same rows, opaque to the sidecars). Times are the measured Qq phase \
         (iteration wall less UDF time; the Pagelog is in memory).\n\n"
    ));
    out.push_str(
        "| selectivity | baseline Qq (ms) | pruned Qq (ms) | speedup | \
         plog rd base | plog rd pruned | pages pruned | identical |\n\
         |---|---|---|---|---|---|---|---|\n",
    );

    // (label, rows selected per 100k) — 0.1%, 1%, 10%, 100%.
    let sweep: &[(&str, u64)] = &[
        ("0.1%", 100),
        ("1%", 1_000),
        ("10%", 10_000),
        ("100%", 100_000),
    ];
    let mut lanes_json = Vec::new();
    let mut speedup_at_1pct = 0.0f64;
    let mut all_identical = true;
    for &(label, per100k) in sweep {
        let threshold = (n * per100k).div_ceil(100_000).max(1);
        let base_qq = format!("SELECT k, payload FROM events WHERE k + 0 < {threshold}");
        let prune_qq = format!("SELECT k, payload FROM events WHERE k < {threshold}");
        let (base, _) = phase("prune:baseline", || {
            run_from_cold(&session, "ps_base", || {
                session.collate_data_with_policy(QS, &base_qq, "ps_base", DeltaPolicy::Off)
            })
        });
        let base = base?;
        session.snap_db().store().cache().clear();
        let (pruned, _) = phase("prune:pruned", || {
            run_from_cold(&session, "ps_pruned", || {
                session.collate_data_with_policy(QS, &prune_qq, "ps_pruned", DeltaPolicy::Off)
            })
        });
        let pruned = pruned?;
        let same = tables_identical(&session, "ps_base", "ps_pruned")?;
        all_identical &= same;
        let b = base.accumulated_stats();
        let p = pruned.accumulated_stats();
        let base_ms = ms(qq_wall(&base));
        let pruned_ms = ms(qq_wall(&pruned));
        let speedup = base_ms / pruned_ms.max(1e-9);
        if label == "1%" {
            speedup_at_1pct = speedup;
        }
        out.push_str(&format!(
            "| {label} | {base_ms:.3} | {pruned_ms:.3} | {speedup:.2}× | {} | {} | {} | {same} |\n",
            b.io.pagelog_reads, p.io.pagelog_reads, p.pages_pruned_filter,
        ));
        lanes_json.push(format!(
            "{{\"selectivity\":\"{label}\",\"threshold\":{threshold},\
             \"baseline_wall_ms\":{base_ms:.3},\"pruned_wall_ms\":{pruned_ms:.3},\
             \"speedup\":{speedup:.3},\
             \"pagelog_reads_baseline\":{},\"pagelog_reads_pruned\":{},\
             \"pages_pruned\":{},\"identical_results\":{same}}}",
            b.io.pagelog_reads, p.io.pagelog_reads, p.pages_pruned_filter,
        ));
    }
    out.push('\n');

    // Delta path at 1%: churn touches only the top k band, the predicate
    // selects the bottom, so each post-churn snapshot's changed pages are
    // all refuted and the whole snapshot is skipped with its previous
    // output reused.
    let threshold = (n / 100).max(1);
    let qq_1pct = format!("SELECT k, payload FROM events WHERE k < {threshold}");
    run_from_cold(&session, "ps_seq1", || {
        session.collate_data_with_policy(QS, &qq_1pct, "ps_seq1", DeltaPolicy::Off)
    })?;
    session.snap_db().store().cache().clear();
    let (delta, _) = phase("prune:delta", || {
        run_from_cold(&session, "ps_delta", || {
            session.collate_data_with_policy(QS, &qq_1pct, "ps_delta", DeltaPolicy::Forced)
        })
    });
    let delta = delta?;
    let delta_same = tables_identical(&session, "ps_seq1", "ps_delta")?;
    all_identical &= delta_same;
    let d = delta.accumulated_stats();
    out.push_str(&format!(
        "### Delta path (Forced), 1% selectivity — snapshot-level skip\n\n\
         | plog rd | pages pruned | pages skipped (delta) | snapshots pruned | identical |\n\
         |---|---|---|---|---|\n\
         | {} | {} | {} | {} | {delta_same} |\n\n",
        d.io.pagelog_reads, d.pages_pruned_filter, d.pages_skipped_delta, d.io.snapshots_pruned,
    ));

    out.push_str(&format!(
        "- Speedup at 1% selectivity: {speedup_at_1pct:.2}× (target ≥ 2×): {}\n",
        if speedup_at_1pct >= 2.0 {
            "OK"
        } else {
            "UNEXPECTED"
        }
    ));
    out.push_str(&format!(
        "- Delta path pruned whole snapshots: {}\n",
        if d.io.snapshots_pruned > 0 {
            "OK"
        } else {
            "UNEXPECTED"
        }
    ));
    out.push_str(&format!(
        "- All lanes byte-identical: {}\n\n",
        if all_identical { "OK" } else { "UNEXPECTED" }
    ));

    let json = format!(
        "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"experiment\":\"prune_scan\",\
         \"rows\":{n},\"snapshots\":{snapshots},\
         \"lanes\":[{}],\
         \"delta_1pct\":{{\"pagelog_reads\":{},\"pages_pruned\":{},\
         \"pages_skipped_delta\":{},\"snapshots_pruned\":{},\
         \"identical_results\":{delta_same}}},\
         \"speedup_at_1pct\":{speedup_at_1pct:.3},\
         \"identical_results\":{all_identical},\
         \"pass\":{}}}\n",
        lanes_json.join(","),
        d.io.pagelog_reads,
        d.pages_pruned_filter,
        d.pages_skipped_delta,
        d.io.snapshots_pruned,
        all_identical && speedup_at_1pct >= 2.0 && d.io.snapshots_pruned > 0,
    );
    // Best-effort artifact: the markdown is the primary output.
    let _ = std::fs::write("BENCH_prune.json", &json);
    Ok(out)
}
