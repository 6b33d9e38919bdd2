//! Per-query cost breakdown.
//!
//! The paper's Figures 8–13 decompose a single RQL iteration into I/O,
//! SPT build, (ad-hoc) index creation, query evaluation, and RQL UDF
//! time. The engine fills the first four here; the RQL layer adds its UDF
//! component on top.

use std::time::Duration;

use rql_pagestore::IoStatsSnapshot;

/// Cost breakdown of one query execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Time to build the snapshot page table (zero for current-state
    /// queries).
    pub spt_build: Duration,
    /// Time spent building ad-hoc join indexes (SQLite's "automatic
    /// covering index"; the dominant cost in Figure 9 without a native
    /// index).
    pub index_creation: Duration,
    /// Remaining query evaluation time (scan, filter, aggregate, sort).
    pub eval: Duration,
    /// Page-fetch counters during the query (pagelog reads = disk I/O in
    /// the paper's setup).
    pub io: IoStatsSnapshot,
    /// Rows produced.
    pub rows: u64,
    /// Heap pages a delta-aware scan served from its page cache instead
    /// of fetching (zero for ordinary executions).
    pub pages_skipped_delta: u64,
    /// Heap pages skipped because their zone-map/bloom sidecar refuted
    /// the WHERE clause — no fetch, no cached rows (both the delta and
    /// the ordinary seq-scan path report these).
    pub pages_pruned_filter: u64,
    /// 1 when this execution took the delta-aware scan path, 0 otherwise
    /// (accumulates to "delta iterations" across a report).
    pub delta_eligible: u64,
}

impl ExecStats {
    /// Merge another breakdown into this one (for multi-statement or
    /// multi-iteration accumulation).
    pub fn accumulate(&mut self, other: &ExecStats) {
        self.spt_build += other.spt_build;
        self.index_creation += other.index_creation;
        self.eval += other.eval;
        self.io.accumulate(&other.io);
        self.rows += other.rows;
        self.pages_skipped_delta += other.pages_skipped_delta;
        self.pages_pruned_filter += other.pages_pruned_filter;
        self.delta_eligible += other.delta_eligible;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_adds() {
        let mut a = ExecStats {
            rows: 1,
            ..Default::default()
        };
        let b = ExecStats {
            rows: 2,
            eval: Duration::from_millis(4),
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.rows, 3);
        assert_eq!(a.eval, Duration::from_millis(4));
    }
}
