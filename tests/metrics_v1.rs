//! Pins every metric rendering byte for byte: `METRICS` text and JSON,
//! the `/metrics` exposition page and `REPLSTATUS` text and JSON, over
//! one set of registries in which every field holds a distinct nonzero
//! value (so two swapped fields show up as a diff).
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test metrics_v1`.

use std::time::Duration;

use rql_memo::MemoStatsSnapshot;
use rql_pagestore::IoStatsSnapshot;
use rql_repl::ReplSnapshot;
use rql_repro::rqld::metrics::Readings;
use rql_repro::rqld::observe::{render_metrics, render_openmetrics, render_replstatus};
use rql_repro::rqld::{Metrics, StandingSnapshot};

const GOLDEN_PATH: &str = "tests/golden/metrics_v1.txt";

#[test]
fn every_rendering_matches_the_golden_bytes() {
    let m = Metrics::new();
    let counters = [
        &m.queries_total,
        &m.queries_ok,
        &m.queries_failed,
        &m.queries_cancelled,
        &m.queries_timed_out,
        &m.admission_rejected,
        &m.prepares_total,
        &m.qq_iterations,
        &m.qq_rows,
        &m.pages_skipped_delta,
        &m.pages_pruned_filter,
        &m.rows_returned,
        &m.connections_open,
        &m.connections_total,
        &m.queue_depth,
        &m.in_flight,
    ];
    for (n, c) in (101..).zip(counters) {
        c.add(n);
    }
    for micros in [90, 90, 700, 5_000, 5_000, 1_200_000] {
        m.latency.record(Duration::from_micros(micros));
    }
    let io = IoStatsSnapshot {
        db_reads: 201,
        cache_hits: 202,
        pagelog_reads: 203,
        cow_captures: 204,
        pages_written: 205,
        maplog_entries_scanned: 206,
        cache_evictions: 207,
        pages_pruned: 208,
        snapshots_pruned: 209,
        sidecar_bytes: 210,
    };
    let memo = MemoStatsSnapshot {
        hits: 301,
        misses: 302,
        evictions: 303,
        inserts: 304,
        bytes: 305,
    };
    let standing = StandingSnapshot {
        queries: 401,
        subscribers: 402,
        snapshots_seeded: 403,
        snapshots_maintained: 404,
        pages_scanned: 405,
        pages_skipped: 406,
        rows_pushed: 407,
        maintain_errors: 408,
        push_count: 409,
        push_mean_micros: 410,
        push_p99_micros: 411,
    };
    let repl = ReplSnapshot {
        role: rql_repl::role::FOLLOWER,
        phase: rql_repl::phase::SEEDING,
        followers: 503,
        seeds_served: 504,
        segments_shipped: 505,
        bytes_shipped: 506,
        sheds: 507,
        segments_applied: 508,
        bytes_applied: 509,
        seed_bytes: 510,
        reconnects: 511,
        lag_bytes: 512,
        lag_snapshots: 513,
        lag_micros: 250_514,
    };

    let readings = Readings {
        server: &m,
        io,
        memo,
        standing,
        repl,
    };

    let renderings = [
        ("METRICS", render_metrics(&readings, false)),
        ("METRICS --json", render_metrics(&readings, true) + "\n"),
        (
            "/metrics",
            render_openmetrics(&readings, Duration::from_secs(42)),
        ),
        ("REPLSTATUS", render_replstatus(&repl, false)),
        ("REPLSTATUS --json", render_replstatus(&repl, true) + "\n"),
    ];
    let got: String = renderings
        .iter()
        .map(|(title, body)| format!("== {title}\n{body}"))
        .collect();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    assert_eq!(
        got, want,
        "metric renderings drifted from {GOLDEN_PATH}: run with UPDATE_GOLDEN=1 if intentional"
    );
}
