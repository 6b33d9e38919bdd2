//! Server metrics: counters, gauges and a log-bucketed latency
//! histogram, rendered for the `METRICS` verb in human and JSON form.
//!
//! The counter and histogram *types* live in `rql-trace` (they are the
//! observability layer's primitives; this module used to own them and
//! re-exports [`LatencyHistogram`] for compatibility). This registry
//! holds the server-level instances and the render logic — field names
//! and order are a wire-stable surface consumed by dashboards, so the
//! migration onto trace counters kept the output byte-identical.
//! Page-level I/O counters are not duplicated here: the exporter takes
//! the shared store's `IoStatsSnapshot` at render time, so `METRICS`
//! reflects exactly what the execution layer counted.

use rql_memo::MemoStatsSnapshot;
use rql_pagestore::IoStatsSnapshot;
use rql_repl::ReplSnapshot;
use rql_standing::QueryStatus;
use rql_trace::Counter;

pub use rql_trace::LatencyHistogram;

/// Aggregated standing-query counters, sampled from the
/// [`rql_standing::StandingEngine`] at render time (like the store's
/// `IoStatsSnapshot`: the engine owns the live numbers, the exporter
/// only reads them, so `METRICS` cannot drift from maintenance reality).
#[derive(Debug, Default, Clone)]
pub struct StandingSnapshot {
    /// Registered standing queries.
    pub queries: u64,
    /// Live subscriptions across all queries.
    pub subscribers: u64,
    /// Snapshots folded by seeding batch passes.
    pub snapshots_seeded: u64,
    /// Snapshots folded incrementally after registration.
    pub snapshots_maintained: u64,
    /// Heap/pagelog pages read by maintenance passes.
    pub pages_scanned: u64,
    /// Pages skipped by delta caching or sidecar pruning.
    pub pages_skipped: u64,
    /// Delta rows (added + removed) pushed to subscribers.
    pub rows_pushed: u64,
    /// Maintenance passes that failed (gaps in maintained tables).
    pub maintain_errors: u64,
    /// Push-latency observations (one per subscriber frame).
    pub push_count: u64,
    /// Mean push latency in microseconds (count-weighted across queries).
    pub push_mean_micros: u64,
    /// Worst per-query p99 push latency in microseconds.
    pub push_p99_micros: u64,
}

impl StandingSnapshot {
    /// Aggregate the per-query statuses the engine reports.
    pub fn from_statuses(statuses: &[QueryStatus]) -> StandingSnapshot {
        let mut s = StandingSnapshot {
            queries: statuses.len() as u64,
            ..Default::default()
        };
        let mut weighted_mean = 0u64;
        for q in statuses {
            s.subscribers += q.subscribers;
            s.snapshots_seeded += q.stats.snapshots_seeded;
            s.snapshots_maintained += q.stats.snapshots_maintained;
            s.pages_scanned += q.stats.pages_scanned;
            s.pages_skipped += q.stats.pages_skipped;
            s.rows_pushed += q.stats.rows_pushed;
            s.maintain_errors += q.maintain_errors;
            s.push_count += q.push_count;
            weighted_mean += q.push_mean_micros.saturating_mul(q.push_count);
            s.push_p99_micros = s.push_p99_micros.max(q.push_p99_micros);
        }
        s.push_mean_micros = weighted_mean.checked_div(s.push_count).unwrap_or(0);
        s
    }

    /// Stable `(name, value)` list, appended under a `standing_` prefix.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries", self.queries),
            ("subscribers", self.subscribers),
            ("snapshots_seeded", self.snapshots_seeded),
            ("snapshots_maintained", self.snapshots_maintained),
            ("pages_scanned", self.pages_scanned),
            ("pages_skipped", self.pages_skipped),
            ("rows_pushed", self.rows_pushed),
            ("maintain_errors", self.maintain_errors),
            ("push_count", self.push_count),
            ("push_mean_micros", self.push_mean_micros),
            ("push_p99_micros", self.push_p99_micros),
        ]
    }
}

/// The server's metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries accepted for execution (RUN statements admitted).
    pub queries_total: Counter,
    /// Queries that completed successfully.
    pub queries_ok: Counter,
    /// Queries that failed with an error (including cancellations).
    pub queries_failed: Counter,
    /// Queries cancelled by client `CANCEL` (subset of failed).
    pub queries_cancelled: Counter,
    /// Queries killed by the per-query deadline (subset of failed).
    pub queries_timed_out: Counter,
    /// Requests rejected at admission (queue full).
    pub admission_rejected: Counter,
    /// PREPARE requests served.
    pub prepares_total: Counter,
    /// Mechanism loop iterations (Qq executions) across all queries.
    pub qq_iterations: Counter,
    /// Qq rows produced across all queries.
    pub qq_rows: Counter,
    /// Heap pages skipped by delta-driven iteration (served from the
    /// delta scanner's cache).
    pub pages_skipped_delta: Counter,
    /// Heap pages skipped because a zone-map/bloom sidecar refuted the
    /// query's WHERE clause.
    pub pages_pruned_filter: Counter,
    /// Result rows shipped to clients.
    pub rows_returned: Counter,
    /// Currently open client connections.
    pub connections_open: Counter,
    /// Connections accepted since start.
    pub connections_total: Counter,
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: Counter,
    /// Jobs executing right now.
    pub in_flight: Counter,
    /// End-to-end query latency.
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Fresh zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by 1.
    pub fn inc(&self, counter: &Counter) {
        counter.inc();
    }

    /// Bump a counter by `n`.
    pub fn add(&self, counter: &Counter, n: u64) {
        counter.add(n);
    }

    /// Decrement a gauge (saturating at zero).
    pub fn dec(&self, gauge: &Counter) {
        gauge.dec();
    }

    /// Every scalar as a stable `(name, value)` list; the histogram adds
    /// its derived `latency_*` entries.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries_total", self.queries_total.get()),
            ("queries_ok", self.queries_ok.get()),
            ("queries_failed", self.queries_failed.get()),
            ("queries_cancelled", self.queries_cancelled.get()),
            ("queries_timed_out", self.queries_timed_out.get()),
            ("admission_rejected", self.admission_rejected.get()),
            ("prepares_total", self.prepares_total.get()),
            ("qq_iterations", self.qq_iterations.get()),
            ("qq_rows", self.qq_rows.get()),
            ("pages_skipped_delta", self.pages_skipped_delta.get()),
            ("pages_pruned_filter", self.pages_pruned_filter.get()),
            ("rows_returned", self.rows_returned.get()),
            ("connections_open", self.connections_open.get()),
            ("connections_total", self.connections_total.get()),
            ("queue_depth", self.queue_depth.get()),
            ("in_flight", self.in_flight.get()),
            ("latency_count", self.latency.count()),
            ("latency_mean_micros", self.latency.mean_micros()),
            ("latency_p50_micros", self.latency.quantile_micros(0.50)),
            ("latency_p99_micros", self.latency.quantile_micros(0.99)),
        ]
    }

    /// Human-readable render: one `name value` line per metric, then the
    /// store's I/O counters under an `io_` prefix, the shared memo
    /// store's counters under a `memo_` prefix, the standing-query
    /// engine's counters under a `standing_` prefix, and the replication
    /// counters under a `repl_` prefix.
    pub fn render_human(
        &self,
        io: &IoStatsSnapshot,
        memo: &MemoStatsSnapshot,
        standing: &StandingSnapshot,
        repl: &ReplSnapshot,
    ) -> String {
        let mut out = String::new();
        for (name, value) in self.fields() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (prefix, fields) in [
            ("io_", io.fields().to_vec()),
            ("memo_", memo.fields().to_vec()),
            ("standing_", standing.fields()),
            ("repl_", repl.fields()),
        ] {
            for (name, value) in fields {
                out.push_str(prefix);
                out.push_str(name);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// JSON render (flat object; all values are integers, so no escaping
    /// or float formatting subtleties).
    pub fn render_json(
        &self,
        io: &IoStatsSnapshot,
        memo: &MemoStatsSnapshot,
        standing: &StandingSnapshot,
        repl: &ReplSnapshot,
    ) -> String {
        let mut parts: Vec<String> = self
            .fields()
            .into_iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        for (prefix, fields) in [
            ("io_", io.fields().to_vec()),
            ("memo_", memo.fields().to_vec()),
            ("standing_", standing.fields()),
            ("repl_", repl.fields()),
        ] {
            parts.extend(
                fields
                    .into_iter()
                    .map(|(name, value)| format!("\"{prefix}{name}\":{value}")),
            );
        }
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use std::time::Duration;

    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_micros(0.50);
        assert!((64..=256).contains(&p50), "p50={p50}");
        let p99 = h.quantile_micros(0.99);
        assert!(p99 <= 256, "p99 covers the 100µs mass, got {p99}");
        let p100 = h.quantile_micros(1.0);
        assert!(p100 >= 32_768, "max sample is 50ms, got {p100}");
        assert!(h.mean_micros() >= 100);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn renders_include_io_memo_and_latency() {
        let m = Metrics::new();
        m.inc(&m.queries_total);
        m.latency.record(Duration::from_micros(10));
        let io = IoStatsSnapshot {
            pagelog_reads: 7,
            ..Default::default()
        };
        let memo = MemoStatsSnapshot {
            hits: 5,
            misses: 2,
            ..Default::default()
        };
        let standing = StandingSnapshot {
            queries: 2,
            rows_pushed: 9,
            ..Default::default()
        };
        let repl = ReplSnapshot {
            role: 1,
            segments_shipped: 3,
            ..Default::default()
        };
        let human = m.render_human(&io, &memo, &standing, &repl);
        assert!(human.contains("queries_total 1"));
        assert!(human.contains("io_pagelog_reads 7"));
        assert!(human.contains("memo_hits 5"));
        assert!(human.contains("memo_misses 2"));
        assert!(human.contains("memo_bytes 0") && !human.contains("memo_spill"));
        assert!(human.contains("latency_p99_micros"));
        assert!(human.contains("standing_queries 2"));
        assert!(human.contains("standing_rows_pushed 9"));
        assert!(human.contains("repl_role 1"));
        assert!(human.contains("repl_segments_shipped 3"));
        let json = m.render_json(&io, &memo, &standing, &repl);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queries_total\":1"));
        assert!(json.contains("\"io_pagelog_reads\":7"));
        assert!(json.contains("\"memo_hits\":5"));
        assert!(json.contains("\"memo_evictions\":0"));
        assert!(json.contains("\"standing_queries\":2"));
        assert!(json.contains("\"standing_push_p99_micros\":0"));
        assert!(json.contains("\"repl_role\":1"));
        assert!(json.contains("\"repl_lag_bytes\":0"));
    }

    #[test]
    fn repl_field_order_is_wire_stable() {
        // The `repl_` section mirrors `rql replstatus`; dashboards key on
        // this exact sequence, which may only ever grow at the end.
        let names: Vec<&str> = ReplSnapshot::default()
            .fields()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            [
                "role",
                "phase",
                "followers",
                "seeds_served",
                "segments_shipped",
                "bytes_shipped",
                "sheds",
                "segments_applied",
                "bytes_applied",
                "seed_bytes",
                "reconnects",
                "lag_bytes",
                "lag_snapshots",
                "lag_micros",
            ]
        );
    }

    #[test]
    fn standing_snapshot_aggregates_statuses() {
        let mk = |subs: u64, count: u64, mean: u64, p99: u64| QueryStatus {
            name: "q".into(),
            table: "T".into(),
            mechanism: "collatedata",
            subscribers: subs,
            stats: rql::MaintainStats {
                snapshots_seeded: 1,
                snapshots_maintained: 2,
                pages_scanned: 10,
                pages_skipped: 5,
                rows_pushed: 3,
                groups_skipped: 0,
            },
            maintain_errors: 1,
            push_count: count,
            push_mean_micros: mean,
            push_p99_micros: p99,
        };
        let s = StandingSnapshot::from_statuses(&[mk(1, 2, 100, 200), mk(2, 6, 20, 500)]);
        assert_eq!(s.queries, 2);
        assert_eq!(s.subscribers, 3);
        assert_eq!(s.snapshots_seeded, 2);
        assert_eq!(s.snapshots_maintained, 4);
        assert_eq!(s.pages_scanned, 20);
        assert_eq!(s.rows_pushed, 6);
        assert_eq!(s.maintain_errors, 2);
        assert_eq!(s.push_count, 8);
        // (100*2 + 20*6) / 8 = 40: count-weighted, not a mean of means.
        assert_eq!(s.push_mean_micros, 40);
        assert_eq!(s.push_p99_micros, 500);
        assert_eq!(StandingSnapshot::from_statuses(&[]).push_mean_micros, 0);
    }

    #[test]
    fn standing_field_order_is_wire_stable() {
        let names: Vec<&str> = StandingSnapshot::default()
            .fields()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            [
                "queries",
                "subscribers",
                "snapshots_seeded",
                "snapshots_maintained",
                "pages_scanned",
                "pages_skipped",
                "rows_pushed",
                "maintain_errors",
                "push_count",
                "push_mean_micros",
                "push_p99_micros",
            ]
        );
    }

    #[test]
    fn gauge_dec_saturates() {
        let m = Metrics::new();
        m.dec(&m.queue_depth);
        assert_eq!(m.queue_depth.get(), 0);
    }

    #[test]
    fn field_order_is_wire_stable() {
        // Dashboards key on this exact sequence. The pruning sidecar
        // work split `pages_skipped` into `pages_skipped_delta` +
        // `pages_pruned_filter` (one deliberate wire bump); nothing may
        // reorder or rename it further.
        let names: Vec<&str> = Metrics::new().fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "queries_total",
                "queries_ok",
                "queries_failed",
                "queries_cancelled",
                "queries_timed_out",
                "admission_rejected",
                "prepares_total",
                "qq_iterations",
                "qq_rows",
                "pages_skipped_delta",
                "pages_pruned_filter",
                "rows_returned",
                "connections_open",
                "connections_total",
                "queue_depth",
                "in_flight",
                "latency_count",
                "latency_mean_micros",
                "latency_p50_micros",
                "latency_p99_micros",
            ]
        );
    }
}
