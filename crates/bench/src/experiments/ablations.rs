//! Ablations beyond the paper's figures:
//!
//! 1. **AggregateDataInTable strategy** — index probe (the paper's
//!    implementation) vs sort-merge (the alternative §3 reports as
//!    costlier).
//! 2. **Skippy vs linear Maplog scan** — SPT-build entries touched for
//!    an old snapshot (the Skippy n log n claim).

use std::cmp::Ordering;
use std::time::Instant;

use rql::mechanism::TableLayout;
use rql::{AggOp, IterationReport, RqlReport, RqlSession};
use rql_sqlengine::ast::Stmt;
use rql_sqlengine::{Result, Row, SqlError};
use rql_tpch::{build_history, UW30};

use crate::harness::{bench_config, bench_sf, fast_mode, phase, run_from_cold};
use crate::queries::QQ_AGG;

/// Sort-merge variant of `AggregateDataInTable` — the alternative the
/// paper's authors "experimented with … that turned out to be costlier"
/// (§3), kept as bench-only code over the public API.
///
/// Instead of probing the result-table index per record, each iteration
/// sorts the Qq output by grouping key and merges it against a full
/// key-ordered scan of the result table. The merge touches every result
/// row every iteration, which is what makes it lose to the index-probe
/// plan whenever the result table outgrows the per-snapshot output. Only
/// the lookup differs: `T`'s layout and the fold of a record into its
/// group's row are the mechanism's ([`TableLayout`]). It
/// stays memo-free: it exists to measure the costlier alternative, and a
/// cache would mask that cost.
pub fn aggregate_data_in_table_sortmerge(
    session: &RqlSession,
    qs: &str,
    qq: &str,
    table: &str,
    pairs: &[(String, AggOp)],
) -> Result<RqlReport> {
    let (snap, aux) = (session.snap_db(), session.aux_db());
    if aux.table_row_count(table).is_ok() {
        return Err(SqlError::Constraint(format!(
            "result table {table} already exists"
        )));
    }
    let qs_started = Instant::now();
    let ids = aux.query(qs)?;
    let mut report = RqlReport {
        qs_time: qs_started.elapsed(),
        ..Default::default()
    };
    let mut layout: Option<TableLayout> = None;
    for id in &ids.rows {
        let sid = id[0]
            .as_i64()
            .ok_or_else(|| SqlError::Invalid(format!("non-integer snapshot id {}", id[0])))?
            as u64;
        let iter_started = Instant::now();
        let rewritten = rql::rewrite_sql(qq, sid)?;
        let result = snap
            .execute_stmt(&Stmt::Select(rewritten))?
            .rows()
            .ok_or_else(|| SqlError::Invalid(format!("Qq returned no rows: {qq}")))?;
        let udf_started = Instant::now();
        // `T` is the mechanism's, without its probe index.
        let layout = match &mut layout {
            Some(layout) => layout,
            slot => {
                let layout = TableLayout::aggregate_in_table(pairs, &result.columns)?;
                let columns: Vec<String> = (layout.columns().iter())
                    .map(|c| format!("\"{c}\" ANY"))
                    .collect();
                aux.execute(&format!("CREATE TABLE {table} ({})", columns.join(", ")))?;
                slot.insert(layout)
            }
        };
        let cmp_keys = |a: &Row, b: &Row| {
            (layout.group_positions().iter())
                .map(|&p| a[p].total_cmp(&b[p]))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        };
        // Sort this iteration's records by grouping key.
        let mut records: Vec<&Row> = result.rows.iter().collect();
        records.sort_by(|a, b| cmp_keys(a, b));
        let (result_inserts, result_updates) = aux.with_table_writer(table, |w| {
            // Full scan of the result table, sorted the same way.
            let mut existing = w.probe_all()?;
            existing.sort_by(|(_, a), (_, b)| cmp_keys(a, b));
            let mut merge = existing.iter().peekable();
            for record in records {
                // Advance the merge cursor to the record's key.
                while merge
                    .next_if(|(_, row)| cmp_keys(row, record) == Ordering::Less)
                    .is_some()
                {}
                match merge.next_if(|(_, row)| cmp_keys(row, record) == Ordering::Equal) {
                    Some((rid, old)) => {
                        let new_row = layout.fold_row(Some(old), record);
                        if new_row != *old {
                            w.update(*rid, old, new_row)?;
                        }
                    }
                    None => {
                        w.insert(layout.fold_row(None, record))?;
                    }
                }
            }
            Ok((w.inserted(), w.updated()))
        })?;
        report.iterations.push(IterationReport {
            snap_id: sid,
            qq_stats: result.stats,
            udf_time: udf_started.elapsed(),
            qq_rows: result.rows.len() as u64,
            result_inserts,
            result_updates,
            memo_hit: false,
            wall: iter_started.elapsed(),
        });
    }
    Ok(report)
}

/// Run the ablations, returning a markdown section.
pub fn run() -> Result<String> {
    let interval = if fast_mode() { 5 } else { 50 };
    let mut out = String::new();
    out.push_str("## Ablations\n\n");

    // --- 1. probe vs sort-merge -----------------------------------------
    {
        let mut h = build_history(bench_config(), bench_sf(), UW30, interval, false)?;
        h.age_all_snapshots()?;
        let qs = h.qs(1, interval, 1);
        let pairs = vec![("cn".to_string(), AggOp::Max)];
        let (res, hash_time) = phase("ablation:agg-probe", || {
            run_from_cold(&h.session, "abl_hash", || {
                h.session
                    .aggregate_data_in_table(&qs, QQ_AGG, "abl_hash", &pairs)
            })
        });
        res?;
        let (res, merge_time) = phase("ablation:agg-sortmerge", || {
            run_from_cold(&h.session, "abl_merge", || {
                aggregate_data_in_table_sortmerge(&h.session, &qs, QQ_AGG, "abl_merge", &pairs)
            })
        });
        res?;
        let same = {
            let a = h
                .session
                .query_aux("SELECT o_custkey, cn, av FROM abl_hash ORDER BY o_custkey, av, cn")?;
            let b = h
                .session
                .query_aux("SELECT o_custkey, cn, av FROM abl_merge ORDER BY o_custkey, av, cn")?;
            a.rows == b.rows
        };
        out.push_str(&format!(
            "### AggregateDataInTable strategy (Qs_{interval}, Qq_agg, UW30)\n\n\
             | strategy | wall time |\n|---|---|\n\
             | index probe (paper) | {:?} |\n| sort-merge | {:?} |\n\n\
             - Results identical: {same}. Sort-merge costs {:.2}× the probe plan. \
             The paper reports sort-merge \"turned out to be costlier\"; the \
             crossover depends on the result-table/output-size ratio, which at \
             this scale is far smaller than the paper's 50-iteration, 1M-record \
             regime.\n\n",
            hash_time,
            merge_time,
            merge_time.as_secs_f64() / hash_time.as_secs_f64().max(1e-9)
        ));
    }

    // --- 2. Skippy vs linear scan ----------------------------------------
    {
        // Long, fully sealed history: the Skippy gap grows with history
        // length while the linear scan pays for every raw entry.
        let long = if fast_mode() {
            40
        } else {
            4 * UW30.overwrite_cycle()
        };
        let h = build_history(bench_config(), bench_sf(), UW30, long, false)?;
        let store = h.session.snap_db().store();
        store.stats().reset();
        let skippy = store.open_snapshot(1)?.build_stats().entries_scanned;
        let total = store.maplog_entries() as u64;
        // A linear scan touches every raw entry from the snapshot's
        // boundary to the end of the log.
        let linear = total - store.boundary(1).map_or(0, |b| b.entry_start as u64);
        out.push_str(&format!(
            "### SPT build for the oldest snapshot (Maplog of {total} raw entries)\n\n\
             | scan | entries touched |\n|---|---|\n\
             | Skippy skip levels | {skippy} |\n| linear Maplog scan | {linear} |\n\n\
             - Skippy touches {:.1}× fewer entries; the gap widens with history \
             length (the paper's `O(n log n)` vs history-proportional cost).\n\n",
            linear as f64 / skippy.max(1) as f64
        ));
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use std::sync::Arc;

    use super::*;

    const QS: &str = "SELECT snap_id FROM SnapIds";

    fn history() -> Arc<RqlSession> {
        let session = RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
            .unwrap();
        // 8 snapshots over 12 groups with churn.
        for s in 0..8i64 {
            session.execute("DELETE FROM m").unwrap();
            for g in 0..12i64 {
                if (g + s) % 5 != 0 {
                    session
                        .execute(&format!("INSERT INTO m VALUES ({g}, {})", g * 10 + s))
                        .unwrap();
                }
            }
            session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        }
        session
    }

    #[test]
    fn sortmerge_matches_hash_probe_variant() {
        let session = history();
        let qq = "SELECT grp, v FROM m";
        for pairs in [
            vec![("v".to_string(), AggOp::Max)],
            vec![("v".to_string(), AggOp::Sum)],
            vec![("v".to_string(), AggOp::Min)],
            vec![("v".to_string(), AggOp::Avg)],
            vec![("v".to_string(), AggOp::Count)],
        ] {
            session.drop_result_table("hash_r").unwrap();
            session.drop_result_table("merge_r").unwrap();
            session
                .aggregate_data_in_table(QS, qq, "hash_r", &pairs)
                .unwrap();
            aggregate_data_in_table_sortmerge(&session, QS, qq, "merge_r", &pairs).unwrap();
            let a = session
                .query_aux("SELECT grp, v FROM hash_r ORDER BY grp, v")
                .unwrap();
            let b = session
                .query_aux("SELECT grp, v FROM merge_r ORDER BY grp, v")
                .unwrap();
            assert_eq!(a.rows, b.rows, "pairs {pairs:?}");
        }
    }

    #[test]
    fn sortmerge_reports_same_totals() {
        let session = history();
        let qq = "SELECT grp, v FROM m";
        let pairs = vec![("v".to_string(), AggOp::Sum)];
        let hash = session
            .aggregate_data_in_table(QS, qq, "h2", &pairs)
            .unwrap();
        let merge = aggregate_data_in_table_sortmerge(&session, QS, qq, "m2", &pairs).unwrap();
        assert_eq!(hash.total_qq_rows(), merge.total_qq_rows());
        // SUM updates on every matched record in both variants.
        assert_eq!(hash.total_result_updates(), merge.total_result_updates());
        assert_eq!(hash.total_result_inserts(), merge.total_result_inserts());
        let r = session.query_aux("SELECT COUNT(*) FROM h2").unwrap();
        assert!(r.rows[0][0].as_i64().unwrap() > 0);
    }
}
