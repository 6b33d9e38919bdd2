//! Per-iteration cost reports for RQL computations.
//!
//! The experiment harness reproduces the paper's figures from these:
//! each iteration carries the engine's cost split (I/O counters, SPT
//! build, ad-hoc index creation, query evaluation) plus the RQL UDF time
//! (result processing) — the five stacked components of Figures 8–13.

use std::time::Duration;

use rql_sqlengine::ExecStats;

/// Cost record for one RQL iteration (one snapshot).
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Snapshot this iteration ran on.
    pub snap_id: u64,
    /// The engine's breakdown for the rewritten Qq execution.
    pub qq_stats: ExecStats,
    /// Time the mechanism spent processing Qq's output ("RQL UDF" in the
    /// paper's figures).
    pub udf_time: Duration,
    /// Rows Qq returned in this iteration.
    pub qq_rows: u64,
    /// Rows inserted into the result table this iteration.
    pub result_inserts: u64,
    /// Rows updated in the result table this iteration (§5.2: SUM updates
    /// every group, MAX only the groups whose maximum changed).
    pub result_updates: u64,
    /// Whether the Qq result came from the memo store (hits skip the
    /// executor, so `qq_stats` is zeroed for them).
    pub memo_hit: bool,
    /// Wall-clock time of the whole iteration: Qq execution (or memo
    /// lookup) plus result folding. The profile report's per-snapshot
    /// cost table is built from this.
    pub wall: Duration,
}

/// Report for one whole RQL computation.
#[derive(Debug, Clone, Default)]
pub struct RqlReport {
    /// Per-iteration records, in Qs order.
    pub iterations: Vec<IterationReport>,
    /// Time spent running Qs itself (on the auxiliary database).
    pub qs_time: Duration,
    /// Time spent on any final step (e.g. materializing the
    /// `AggregateDataInVariable` result table).
    pub finalize_time: Duration,
}

impl RqlReport {
    /// Number of iterations (snapshots visited).
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Total rows Qq produced across all iterations.
    pub fn total_qq_rows(&self) -> u64 {
        self.iterations.iter().map(|i| i.qq_rows).sum()
    }

    /// Accumulated engine stats across iterations.
    pub fn accumulated_stats(&self) -> ExecStats {
        let mut acc = ExecStats::default();
        for it in &self.iterations {
            acc.accumulate(&it.qq_stats);
        }
        acc
    }

    /// Total UDF time across iterations.
    pub fn total_udf_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.udf_time).sum()
    }

    /// Total result-table inserts across iterations.
    pub fn total_result_inserts(&self) -> u64 {
        self.iterations.iter().map(|i| i.result_inserts).sum()
    }

    /// Total result-table updates across iterations.
    pub fn total_result_updates(&self) -> u64 {
        self.iterations.iter().map(|i| i.result_updates).sum()
    }

    /// Iterations whose Qq result was served from the memo store.
    pub fn memo_hits(&self) -> u64 {
        self.iterations.iter().filter(|i| i.memo_hit).count() as u64
    }

    /// The first (cold) iteration, if any.
    pub fn cold(&self) -> Option<&IterationReport> {
        self.iterations.first()
    }

    /// Mean over the hot (non-first) iterations of `f`.
    pub fn hot_mean(&self, f: impl Fn(&IterationReport) -> f64) -> Option<f64> {
        let hot = &self.iterations.get(1..)?;
        if hot.is_empty() {
            return None;
        }
        Some(hot.iter().map(&f).sum::<f64>() / hot.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_pagestore::IoStatsSnapshot;

    fn iter(snap_id: u64, pagelog_reads: u64, eval_ms: u64, udf_ms: u64) -> IterationReport {
        IterationReport {
            snap_id,
            qq_stats: ExecStats {
                eval: Duration::from_millis(eval_ms),
                io: IoStatsSnapshot {
                    pagelog_reads,
                    ..Default::default()
                },
                ..Default::default()
            },
            udf_time: Duration::from_millis(udf_ms),
            qq_rows: 10,
            result_inserts: 0,
            result_updates: 0,
            memo_hit: false,
            wall: Duration::from_millis(eval_ms + udf_ms),
        }
    }

    #[test]
    fn totals_and_means() {
        let report = RqlReport {
            iterations: vec![iter(1, 100, 10, 1), iter(2, 10, 10, 1), iter(3, 10, 10, 1)],
            qs_time: Duration::from_millis(2),
            finalize_time: Duration::ZERO,
        };
        assert_eq!(report.iteration_count(), 3);
        assert_eq!(report.total_qq_rows(), 30);
        assert_eq!(report.cold().unwrap().snap_id, 1);
        let hot_io = report
            .hot_mean(|i| i.qq_stats.io.pagelog_reads as f64)
            .unwrap();
        assert!((hot_io - 10.0).abs() < 1e-9);
        assert_eq!(report.accumulated_stats().io.pagelog_reads, 120);
        assert_eq!(report.total_udf_time(), Duration::from_millis(3));
    }

    #[test]
    fn empty_report() {
        let report = RqlReport::default();
        assert!(report.cold().is_none());
        assert!(report.hot_mean(|_| 0.0).is_none());
        assert_eq!(report.iteration_count(), 0);
    }
}
