//! Per-query profile reports — the human/JSON rendering of the cost
//! records every mechanism run already produces.
//!
//! The profile is *derived from* [`RqlReport`], the same structure the
//! experiment harness and the `rqld` METRICS registry consume, so the
//! per-snapshot cost table always reconciles with the server's counters:
//! there is one measurement source, rendered three ways (DESIGN.md §9).
//!
//! Surfaced as `rql --profile`, the embedded session API
//! ([`QueryProfile::from_run`]) and the wire `PROFILE` opcode.

use std::fmt::Write as _;
use std::time::Duration;

use crate::analyze::ProgramRun;
use crate::report::RqlReport;

/// One row of the per-snapshot cost table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotCost {
    /// Snapshot id the iteration ran on.
    pub snap_id: u64,
    /// Pages fetched from any source (db + cache + Pagelog).
    pub pages_read: u64,
    /// Pages fetched from the Pagelog archive (the disk-I/O component).
    pub pagelog_reads: u64,
    /// Pages a delta-aware scan skipped because they were shared with
    /// the previous snapshot in the chain.
    pub pages_shared_skipped: u64,
    /// Pages skipped because a zone-map/bloom sidecar refuted the Qq
    /// WHERE clause.
    pub pages_pruned: u64,
    /// Whether the Qq result came from the memo store.
    pub memo_hit: bool,
    /// Whether the iteration took the delta-aware scan path.
    pub delta_path: bool,
    /// Rows Qq produced.
    pub qq_rows: u64,
    /// Wall-clock time of the whole iteration.
    pub wall: Duration,
    /// Measured CPU components: SPT build + index creation + eval + UDF.
    pub cpu: Duration,
}

/// Profile of one mechanism invocation.
#[derive(Debug, Clone)]
pub struct MechanismProfile {
    /// Result table the mechanism wrote.
    pub table: String,
    /// Time running Qs on the auxiliary database.
    pub qs_time: Duration,
    /// Time in the final step (e.g. materializing the variable).
    pub finalize_time: Duration,
    /// Per-snapshot cost rows, in Qs order.
    pub snapshots: Vec<SnapshotCost>,
}

impl MechanismProfile {
    /// Build from one mechanism's report.
    pub fn from_report(table: &str, report: &RqlReport) -> Self {
        let snapshots = report
            .iterations
            .iter()
            .map(|it| SnapshotCost {
                snap_id: it.snap_id,
                pages_read: it.qq_stats.io.total_fetches(),
                pagelog_reads: it.qq_stats.io.pagelog_reads,
                pages_shared_skipped: it.qq_stats.pages_skipped_delta,
                pages_pruned: it.qq_stats.pages_pruned_filter,
                memo_hit: it.memo_hit,
                delta_path: it.qq_stats.delta_eligible > 0,
                qq_rows: it.qq_rows,
                wall: it.wall,
                cpu: it.qq_stats.spt_build
                    + it.qq_stats.index_creation
                    + it.qq_stats.eval
                    + it.udf_time,
            })
            .collect();
        MechanismProfile {
            table: table.to_owned(),
            qs_time: report.qs_time,
            finalize_time: report.finalize_time,
            snapshots,
        }
    }

    /// Sum of a per-snapshot field across the table.
    fn total(&self, f: impl Fn(&SnapshotCost) -> u64) -> u64 {
        self.snapshots.iter().map(f).sum()
    }

    fn total_wall(&self) -> Duration {
        self.snapshots.iter().map(|s| s.wall).sum()
    }

    fn total_cpu(&self) -> Duration {
        self.snapshots.iter().map(|s| s.cpu).sum()
    }

    fn memo_hits(&self) -> u64 {
        self.snapshots.iter().filter(|s| s.memo_hit).count() as u64
    }
}

/// Profile of one whole program/query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// One entry per mechanism invocation, in order.
    pub mechanisms: Vec<MechanismProfile>,
    /// Rows returned by plain (non-mechanism) SELECTs.
    pub select_rows: u64,
    /// Snapshots the program declared while running.
    pub snapshots_declared: u64,
}

impl QueryProfile {
    /// Build from a captured program run.
    pub fn from_run(run: &ProgramRun) -> Self {
        let mut p = Self::from_reports(&run.reports);
        p.select_rows = run.tables.iter().map(|t| t.rows.len() as u64).sum();
        p.snapshots_declared = run.snapshots.len() as u64;
        p
    }

    /// Build from bare `(result_table, report)` pairs (the embedded
    /// session path, where no `ProgramRun` exists).
    pub fn from_reports(reports: &[(String, RqlReport)]) -> Self {
        QueryProfile {
            mechanisms: reports
                .iter()
                .map(|(t, r)| MechanismProfile::from_report(t, r))
                .collect(),
            select_rows: 0,
            snapshots_declared: 0,
        }
    }

    /// Human tree rendering. With `redact_times` every duration renders
    /// as `-`, making the output stable for golden tests while keeping
    /// the counter columns exact.
    pub fn render_human(&self, redact_times: bool) -> String {
        let ms = |d: Duration| -> String {
            if redact_times {
                "-".to_owned()
            } else {
                format!("{:.3}ms", d.as_secs_f64() * 1e3)
            }
        };
        let mut out = format!(
            "profile: {} mechanism call(s), {} plain select row(s), {} snapshot(s) declared\n",
            self.mechanisms.len(),
            self.select_rows,
            self.snapshots_declared,
        );
        for (mi, m) in self.mechanisms.iter().enumerate() {
            let last = mi + 1 == self.mechanisms.len();
            let branch = if last { "└─" } else { "├─" };
            let pad = if last { "   " } else { "│  " };
            let _ = writeln!(
                out,
                "{branch} {} ({} snapshot(s), {} memo hit(s), Qs {}, finalize {})",
                m.table,
                m.snapshots.len(),
                m.memo_hits(),
                ms(m.qs_time),
                ms(m.finalize_time),
            );
            let _ = writeln!(
                out,
                "{pad}{:>8} {:>7} {:>7} {:>8} {:>7} {:>5} {:>6} {:>8} {:>10} {:>10}",
                "snap",
                "pages",
                "pagelog",
                "skipped",
                "pruned",
                "memo",
                "path",
                "rows",
                "wall",
                "cpu"
            );
            for s in &m.snapshots {
                let _ = writeln!(
                    out,
                    "{pad}{:>8} {:>7} {:>7} {:>8} {:>7} {:>5} {:>6} {:>8} {:>10} {:>10}",
                    s.snap_id,
                    s.pages_read,
                    s.pagelog_reads,
                    s.pages_shared_skipped,
                    s.pages_pruned,
                    if s.memo_hit { "hit" } else { "miss" },
                    if s.delta_path { "delta" } else { "seq" },
                    s.qq_rows,
                    ms(s.wall),
                    ms(s.cpu),
                );
            }
            let _ = writeln!(
                out,
                "{pad}{:>8} {:>7} {:>7} {:>8} {:>7} {:>5} {:>6} {:>8} {:>10} {:>10}",
                "total",
                m.total(|s| s.pages_read),
                m.total(|s| s.pagelog_reads),
                m.total(|s| s.pages_shared_skipped),
                m.total(|s| s.pages_pruned),
                m.memo_hits(),
                m.total(|s| u64::from(s.delta_path)),
                m.total(|s| s.qq_rows),
                ms(m.total_wall()),
                ms(m.total_cpu()),
            );
        }
        out
    }

    /// JSON rendering (hand-rolled; the workspace is dependency-free).
    /// With `redact_times` durations render as `null`.
    pub fn render_json(&self, redact_times: bool) -> String {
        let us = |d: Duration| -> String {
            if redact_times {
                "null".to_owned()
            } else {
                format!("{}", d.as_micros())
            }
        };
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"select_rows\":{},\"snapshots_declared\":{},\"mechanisms\":[",
            self.select_rows, self.snapshots_declared
        );
        for (mi, m) in self.mechanisms.iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"table\":{},\"qs_micros\":{},\"finalize_micros\":{},\"snapshots\":[",
                rql_trace::json_str(&m.table),
                us(m.qs_time),
                us(m.finalize_time),
            );
            for (si, s) in m.snapshots.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"snap_id\":{},\"pages_read\":{},\"pagelog_reads\":{},\
                     \"pages_shared_skipped\":{},\"pages_pruned\":{},\"memo_hit\":{},\
                     \"delta_path\":{},\
                     \"qq_rows\":{},\"wall_micros\":{},\"cpu_micros\":{}}}",
                    s.snap_id,
                    s.pages_read,
                    s.pagelog_reads,
                    s.pages_shared_skipped,
                    s.pages_pruned,
                    s.memo_hit,
                    s.delta_path,
                    s.qq_rows,
                    us(s.wall),
                    us(s.cpu),
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::report::IterationReport;
    use rql_pagestore::IoStatsSnapshot;
    use rql_sqlengine::ExecStats;

    fn report() -> RqlReport {
        RqlReport {
            iterations: vec![
                IterationReport {
                    snap_id: 1,
                    qq_stats: ExecStats {
                        io: IoStatsSnapshot {
                            db_reads: 3,
                            cache_hits: 1,
                            pagelog_reads: 2,
                            ..Default::default()
                        },
                        pages_skipped_delta: 0,
                        ..Default::default()
                    },
                    udf_time: Duration::from_millis(1),
                    qq_rows: 10,
                    result_inserts: 10,
                    result_updates: 0,
                    memo_hit: false,
                    wall: Duration::from_millis(4),
                },
                IterationReport {
                    snap_id: 2,
                    qq_stats: ExecStats {
                        pages_skipped_delta: 5,
                        pages_pruned_filter: 2,
                        delta_eligible: 1,
                        ..Default::default()
                    },
                    udf_time: Duration::ZERO,
                    qq_rows: 10,
                    result_inserts: 10,
                    result_updates: 0,
                    memo_hit: true,
                    wall: Duration::from_millis(1),
                },
            ],
            qs_time: Duration::from_millis(2),
            finalize_time: Duration::ZERO,
        }
    }

    #[test]
    fn human_table_has_a_row_per_snapshot_plus_total() {
        let p = QueryProfile::from_reports(&[("t".to_owned(), report())]);
        let human = p.render_human(true);
        assert!(human.contains("1 mechanism call(s)"));
        assert!(human.contains("hit"));
        assert!(human.contains("miss"));
        assert!(human.contains("delta"));
        assert!(human.contains("total"));
        // Redacted times never leak digits.
        assert!(!human.contains("ms"));
    }

    #[test]
    fn counters_reconcile_with_the_report() {
        let r = report();
        let p = QueryProfile::from_reports(&[("t".to_owned(), r.clone())]);
        let m = &p.mechanisms[0];
        assert_eq!(
            m.total(|s| s.pages_read),
            r.accumulated_stats().io.total_fetches()
        );
        assert_eq!(
            m.total(|s| s.pages_shared_skipped),
            r.accumulated_stats().pages_skipped_delta
        );
        assert_eq!(
            m.total(|s| s.pages_pruned),
            r.accumulated_stats().pages_pruned_filter
        );
        assert_eq!(m.memo_hits(), r.memo_hits());
        assert_eq!(m.total(|s| s.qq_rows), r.total_qq_rows());
    }

    #[test]
    fn json_is_structurally_sound() {
        let p = QueryProfile::from_reports(&[("t".to_owned(), report())]);
        let json = p.render_json(false);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"memo_hit\":true"));
        assert!(json.contains("\"pages_shared_skipped\":5"));
        assert!(json.contains("\"pages_pruned\":2"));
        let redacted = p.render_json(true);
        assert!(redacted.contains("\"wall_micros\":null"));
    }
}
