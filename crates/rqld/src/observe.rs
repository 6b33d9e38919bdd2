//! The server's metric replies: `METRICS`, the `/metrics` page and
//! `REPLSTATUS`.
//!
//! `/metrics` renders the same [`Readings`] as the `METRICS` verb through
//! [`rql_trace::TextBuilder`], so a scrape and a `METRICS` frame taken at
//! the same moment agree number for number. Each field is a counter or a
//! gauge as its metric table declares it. The derived latency quantiles
//! are *not* exported — the histogram itself is, as cumulative buckets,
//! so the scrape side can compute any quantile with
//! `histogram_quantile`.

use std::time::Duration;

use rql_repl::{phase, role, ReplSnapshot};
use rql_trace::metric::{entries, render_json, render_text};
use rql_trace::TextBuilder;

use crate::metrics::Readings;

/// Render the full `/metrics` page. `uptime` is the serving process's
/// age.
pub fn render_openmetrics(readings: &Readings, uptime: Duration) -> String {
    let [server, _quantiles, others @ ..] = readings.samples();
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
    b.section(&server);
    b.histogram(
        "rql_query_latency_seconds",
        "End-to-end query latency (admission to reply).",
        &readings.server.latency,
    );
    for sample in &others {
        b.section(sample);
    }
    // The lag gauge Prometheus alerting actually wants: the propagated
    // commit-timestamp lag in base units, derived from `lag_micros`.
    b.gauge_f64(
        "rql_repl_lag_seconds",
        "Replication lag from propagated leader commit timestamps.",
        readings.repl.lag_micros as f64 / 1e6,
    );
    b.finish()
}

/// The `METRICS` reply: every section of `readings`, as `name value`
/// lines or one flat JSON object.
pub fn render_metrics(readings: &Readings, json: bool) -> String {
    let samples = readings.samples();
    if json {
        render_json(entries(&samples))
    } else {
        render_text(entries(&samples))
    }
}

/// The `REPLSTATUS` reply: the replication section without its `repl_`
/// prefix, the role and phase spelled out in the text form, then the
/// propagated commit-timestamp lag in seconds (so `rql replstatus --json
/// | jq .lag_seconds` needs no unit conversion).
pub fn render_replstatus(repl: &ReplSnapshot, json: bool) -> String {
    let (section, values) = repl.sample();
    let word = |name: &str, value: u64| match (name, value) {
        ("role", role::NONE) => Some("none"),
        ("role", role::LEADER) => Some("leader"),
        ("role", role::FOLLOWER) => Some("follower"),
        ("phase", phase::IDLE) => Some("idle"),
        ("phase", phase::SEEDING) => Some("seeding"),
        ("phase", phase::STREAMING) => Some("streaming"),
        _ => None,
    };
    let fields = section
        .fields
        .iter()
        .zip(values)
        .map(|(&(name, _), value)| {
            let shown = match word(name, value) {
                Some(w) if !json => w.to_owned(),
                _ => value.to_string(),
            };
            (name, shown)
        });
    let lag_seconds = format!("{:.6}", repl.lag_micros as f64 / 1e6);
    let all = fields.chain([("lag_seconds", lag_seconds)]);
    if json {
        render_json(all)
    } else {
        render_text(all)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use rql_memo::MemoStatsSnapshot;
    use rql_pagestore::IoStatsSnapshot;

    use super::*;
    use crate::metrics::{Metrics, StandingSnapshot};

    fn page() -> String {
        let m = Metrics::new();
        m.queries_total.inc();
        m.connections_open.inc();
        m.latency.record(Duration::from_micros(100));
        let readings = Readings {
            server: &m,
            io: IoStatsSnapshot {
                pagelog_reads: 7,
                sidecar_bytes: 1024,
                ..Default::default()
            },
            memo: MemoStatsSnapshot {
                hits: 5,
                bytes: 4096,
                ..Default::default()
            },
            standing: StandingSnapshot {
                queries: 2,
                rows_pushed: 9,
                ..Default::default()
            },
            repl: ReplSnapshot {
                role: 2,
                segments_applied: 3,
                lag_micros: 250_000,
                ..Default::default()
            },
        };
        render_openmetrics(&readings, Duration::from_secs(2))
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
