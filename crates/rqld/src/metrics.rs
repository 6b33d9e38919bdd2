//! Server metrics: the server's own counters and gauges, the latency
//! histogram, and the sections every other registry contributes, read at
//! one instant for the `METRICS` verb and the `/metrics` page.
//!
//! Each registry declares its fields once, in an
//! [`rql_trace::metric_table!`]; names, kinds and order come from there,
//! and the renderers in [`rql_trace::metric`] walk the sections.
//! Page-level I/O counters are not duplicated here: the store's
//! `IoStatsSnapshot` is read at render time, so `METRICS` reflects
//! exactly what the execution layer counted.

use rql_memo::MemoStatsSnapshot;
use rql_pagestore::IoStatsSnapshot;
use rql_repl::ReplSnapshot;
use rql_standing::QueryStatus;
use rql_trace::metric::Sample;
use rql_trace::LatencyHistogram;

rql_trace::metric_table! {
    /// The server's metrics registry.
    pub struct Metrics {
        /// End-to-end query latency.
        pub latency: LatencyHistogram,
    } =>
    /// Point-in-time copy of [`Metrics`]' counters and gauges.
    pub struct MetricsSnapshot("", "rqld server counter") {
        /// Queries accepted for execution (RUN statements admitted).
        queries_total: Counter,
        /// Queries that completed successfully.
        queries_ok: Counter,
        /// Queries that failed with an error (including cancellations).
        queries_failed: Counter,
        /// Queries cancelled by client `CANCEL` (subset of failed).
        queries_cancelled: Counter,
        /// Queries killed by the per-query deadline (subset of failed).
        queries_timed_out: Counter,
        /// Requests rejected at admission (queue full).
        admission_rejected: Counter,
        /// PREPARE requests served.
        prepares_total: Counter,
        /// Mechanism loop iterations (Qq executions) across all queries.
        qq_iterations: Counter,
        /// Qq rows produced across all queries.
        qq_rows: Counter,
        /// Heap pages skipped by delta-driven iteration (served from the
        /// delta scanner's cache).
        pages_skipped_delta: Counter,
        /// Heap pages skipped because a zone-map/bloom sidecar refuted the
        /// query's WHERE clause.
        pages_pruned_filter: Counter,
        /// Result rows shipped to clients.
        rows_returned: Counter,
        /// Currently open client connections.
        connections_open: Gauge,
        /// Connections accepted since start.
        connections_total: Counter,
        /// Jobs waiting in the admission queue right now.
        queue_depth: Gauge,
        /// Jobs executing right now.
        in_flight: Gauge,
    }
}

rql_trace::metric_table! {
    /// Quantiles derived from [`Metrics::latency`], rendered by `METRICS`
    /// only: `/metrics` exports the histogram's buckets instead.
    pub struct LatencySummary("latency_", "Query latency") {
        /// Recorded queries.
        count: Counter,
        /// Mean latency in microseconds.
        mean_micros: Gauge,
        /// Median latency in microseconds.
        p50_micros: Gauge,
        /// 99th-percentile latency in microseconds.
        p99_micros: Gauge,
    }
}

impl LatencySummary {
    /// Summarise a histogram as it stands.
    pub fn of(h: &LatencyHistogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            mean_micros: h.mean_micros(),
            p50_micros: h.quantile_micros(0.50),
            p99_micros: h.quantile_micros(0.99),
        }
    }
}

rql_trace::metric_table! {
    /// Aggregated standing-query counters, sampled from the
    /// [`rql_standing::StandingEngine`] at render time (like the store's
    /// `IoStatsSnapshot`: the engine owns the live numbers, the exporter
    /// only reads them, so `METRICS` cannot drift from maintenance reality).
    pub struct StandingSnapshot("standing_", "Standing-query engine") {
        /// Registered standing queries.
        queries: Gauge,
        /// Live subscriptions across all queries.
        subscribers: Gauge,
        /// Snapshots folded by seeding batch passes.
        snapshots_seeded: Counter,
        /// Snapshots folded incrementally after registration.
        snapshots_maintained: Counter,
        /// Heap/pagelog pages read by maintenance passes.
        pages_scanned: Counter,
        /// Pages skipped by delta caching or sidecar pruning.
        pages_skipped: Counter,
        /// Delta rows (added + removed) pushed to subscribers.
        rows_pushed: Counter,
        /// Maintenance passes that failed (gaps in maintained tables).
        maintain_errors: Counter,
        /// Push-latency observations (one per subscriber frame).
        push_count: Counter,
        /// Mean push latency in microseconds (count-weighted across queries).
        push_mean_micros: Gauge,
        /// Worst per-query p99 push latency in microseconds.
        push_p99_micros: Gauge,
    }
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
}

/// Every registry `METRICS` and `/metrics` render, read at one instant.
#[derive(Debug)]
pub struct Readings<'a> {
    /// The server's own registry, read live.
    pub server: &'a Metrics,
    /// The shared store's page I/O.
    pub io: IoStatsSnapshot,
    /// The shared memo store.
    pub memo: MemoStatsSnapshot,
    /// The standing-query engine, aggregated over its queries.
    pub standing: StandingSnapshot,
    /// Replication.
    pub repl: ReplSnapshot,
}

impl Readings<'_> {
    /// The `METRICS` sections, in wire order: the server's counters, its
    /// latency summary, then I/O, memo, standing queries, replication.
    pub fn samples(&self) -> [Sample<'static>; 6] {
        [
            self.server.snapshot().sample(),
            LatencySummary::of(&self.server.latency).sample(),
            self.io.sample(),
            self.memo.sample(),
            self.standing.sample(),
            self.repl.sample(),
        ]
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use std::time::Duration;

    use rql_trace::metric::{entries, render_json, render_text};

    use super::*;

    #[test]
    fn renders_include_io_memo_and_latency() {
        let m = Metrics::new();
        m.queries_total.inc();
        m.latency.record(Duration::from_micros(10));
        let readings = Readings {
            server: &m,
            io: IoStatsSnapshot {
                pagelog_reads: 7,
                ..Default::default()
            },
            memo: MemoStatsSnapshot {
                hits: 5,
                misses: 2,
                ..Default::default()
            },
            standing: StandingSnapshot {
                queries: 2,
                rows_pushed: 9,
                ..Default::default()
            },
            repl: ReplSnapshot {
                role: 1,
                segments_shipped: 3,
                ..Default::default()
            },
        };
        let samples = readings.samples();
        let human = render_text(entries(&samples));
        assert!(human.contains("queries_total 1"));
        assert!(human.contains("io_pagelog_reads 7"));
        assert!(human.contains("memo_hits 5"));
        assert!(human.contains("memo_misses 2"));
        assert!(human.contains("memo_bytes 0") && !human.contains("memo_spill"));
        assert!(human.contains("latency_count 1\nlatency_mean_micros 10\n"));
        assert!(human.contains("standing_queries 2"));
        assert!(human.contains("standing_rows_pushed 9"));
        assert!(human.contains("repl_role 1"));
        assert!(human.contains("repl_segments_shipped 3"));
        let json = render_json(entries(&samples));
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
    fn gauge_dec_saturates() {
        let m = Metrics::new();
        m.queue_depth.dec();
        assert_eq!(m.queue_depth.get(), 0);
    }
}
