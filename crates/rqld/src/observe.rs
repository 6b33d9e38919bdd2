//! Prometheus text exposition for the server's registries.
//!
//! The `METRICS` verb renders every counter the server owns as flat
//! `name value` / JSON lines; this module renders the *same* snapshots
//! through [`rql_trace::TextBuilder`] for the `--metrics-listen`
//! endpoint, so a scrape and a `METRICS` frame taken at the same moment
//! agree number for number.
//!
//! The only judgement exercised here is counter-vs-gauge
//! classification: the wire-stable field lists carry no type
//! information, so each section declares which of its names are
//! level-style gauges (`connections_open`, `queue_depth`, the memo's
//! resident `bytes`, replication `lag_*`, …); everything else is a
//! monotonic counter and gets the `_total` suffix Prometheus naming
//! demands. Derived quantiles (`latency_p50_micros` and friends) are
//! *not* exported — the histogram itself is, as cumulative buckets, so
//! the scrape side can compute any quantile with `histogram_quantile`.

use std::time::Duration;

use rql_memo::MemoStatsSnapshot;
use rql_pagestore::IoStatsSnapshot;
use rql_repl::ReplSnapshot;
use rql_trace::TextBuilder;

use crate::metrics::{Metrics, StandingSnapshot};

/// Gauge names in [`Metrics::fields`]; the `latency_*` entries are
/// skipped entirely (the histogram is exported instead).
const SERVER_GAUGES: &[&str] = &["connections_open", "queue_depth", "in_flight"];

/// Gauge names in the store's `IoStatsSnapshot::fields`.
const IO_GAUGES: &[&str] = &["sidecar_bytes"];

/// Gauge names in the memo store's `MemoStatsSnapshot::fields`.
const MEMO_GAUGES: &[&str] = &["bytes"];

/// Gauge names in [`StandingSnapshot::fields`].
const STANDING_GAUGES: &[&str] = &[
    "queries",
    "subscribers",
    "push_mean_micros",
    "push_p99_micros",
];

/// Gauge names in `ReplSnapshot::fields`.
const REPL_GAUGES: &[&str] = &[
    "role",
    "phase",
    "followers",
    "lag_bytes",
    "lag_snapshots",
    "lag_micros",
];

fn section(
    b: &mut TextBuilder,
    prefix: &str,
    fields: &[(&'static str, u64)],
    gauges: &[&str],
    help: &str,
) {
    for (name, value) in fields {
        let full = format!("rql_{prefix}{name}");
        let line = format!("{help}: {name}.");
        if gauges.contains(name) {
            b.gauge(&full, &line, *value);
        } else {
            b.counter(&full, &line, *value);
        }
    }
}

/// Render the full `/metrics` page from one consistent set of
/// snapshots. `uptime` is the serving process's age.
pub fn render_openmetrics(
    metrics: &Metrics,
    io: &IoStatsSnapshot,
    memo: &MemoStatsSnapshot,
    standing: &StandingSnapshot,
    repl: &ReplSnapshot,
    uptime: Duration,
) -> String {
    let mut b = TextBuilder::new();
    b.info(
        "rql_build_info",
        "Build metadata of the serving binary.",
        &[("version", env!("CARGO_PKG_VERSION"))],
    );
    b.gauge_f64(
        "rql_uptime_seconds",
        "Seconds since the server started serving.",
        uptime.as_secs_f64(),
    );

    let server_fields: Vec<(&'static str, u64)> = metrics
        .fields()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("latency_"))
        .collect();
    section(
        &mut b,
        "",
        &server_fields,
        SERVER_GAUGES,
        "rqld server counter",
    );
    b.histogram(
        "rql_query_latency_seconds",
        "End-to-end query latency (admission to reply).",
        &metrics.latency,
    );

    section(&mut b, "io_", &io.fields(), IO_GAUGES, "Snapshot-store I/O");
    section(
        &mut b,
        "memo_",
        &memo.fields(),
        MEMO_GAUGES,
        "Shared Qq memoization store",
    );
    section(
        &mut b,
        "standing_",
        &standing.fields(),
        STANDING_GAUGES,
        "Standing-query engine",
    );
    section(&mut b, "repl_", &repl.fields(), REPL_GAUGES, "Replication");
    // The lag gauge Prometheus alerting actually wants: the propagated
    // commit-timestamp lag in base units, derived from `lag_micros`.
    b.gauge_f64(
        "rql_repl_lag_seconds",
        "Replication lag from propagated leader commit timestamps.",
        repl.lag_micros as f64 / 1e6,
    );
    b.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn page() -> String {
        let m = Metrics::new();
        m.inc(&m.queries_total);
        m.inc(&m.connections_open);
        m.latency.record(Duration::from_micros(100));
        let io = IoStatsSnapshot {
            pagelog_reads: 7,
            sidecar_bytes: 1024,
            ..Default::default()
        };
        let memo = MemoStatsSnapshot {
            hits: 5,
            bytes: 4096,
            ..Default::default()
        };
        let standing = StandingSnapshot {
            queries: 2,
            rows_pushed: 9,
            ..Default::default()
        };
        let repl = ReplSnapshot {
            role: 2,
            segments_applied: 3,
            lag_micros: 250_000,
            ..Default::default()
        };
        render_openmetrics(&m, &io, &memo, &standing, &repl, Duration::from_secs(2))
    }

    #[test]
    fn exposition_covers_every_registry() {
        let page = page();
        assert!(page.contains("rql_build_info{version=\""));
        assert!(page.contains("rql_uptime_seconds 2.0\n"));
        assert!(page.contains("rql_queries_total 1\n"));
        assert!(page.contains("rql_io_pagelog_reads_total 7\n"));
        assert!(page.contains("rql_memo_hits_total 5\n"));
        assert!(page.contains("rql_standing_rows_pushed_total 9\n"));
        assert!(page.contains("rql_repl_segments_applied_total 3\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(page.contains("rql_query_latency_seconds_count 1\n"));
    }

    #[test]
    fn levels_export_as_gauges_not_counters() {
        let page = page();
        assert!(page.contains("# TYPE rql_connections_open gauge\n"));
        assert!(page.contains("rql_connections_open 1\n"));
        assert!(page.contains("# TYPE rql_io_sidecar_bytes gauge\n"));
        assert!(page.contains("# TYPE rql_memo_bytes gauge\n"));
        assert!(page.contains("# TYPE rql_standing_queries gauge\n"));
        assert!(page.contains("# TYPE rql_repl_lag_micros gauge\n"));
        assert!(page.contains("rql_repl_lag_seconds 0.25\n"));
        // Quantiles are derivable from the buckets; the flat micros
        // fields must not leak into the exposition.
        assert!(!page.contains("latency_p50"));
        assert!(!page.contains("latency_p99"));
    }
}
