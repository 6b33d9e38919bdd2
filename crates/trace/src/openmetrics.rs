//! Prometheus/OpenMetrics text exposition.
//!
//! A small builder that renders counters, gauges, whole metric-table
//! [`Section`](crate::metric::Section)s and [`LatencyHistogram`]s in the
//! Prometheus text format (`# HELP` / `# TYPE` metadata, cumulative
//! `_bucket{le="…"}` series, `_sum` and `_count`). It lives here — at
//! the bottom of the crate graph — so `rqld`'s `/metrics` endpoint and
//! the bench binaries share one renderer and one set of conventions:
//!
//! * every metric name carries the `rql_` namespace prefix;
//! * counters end in `_total` (the builder appends it when missing);
//! * histograms are exported in **seconds** (the Prometheus base unit),
//!   with `le=` bounds taken from [`BUCKET_BOUNDS`](crate::counters::BUCKET_BOUNDS)
//!   divided by 1e6 — the same boundaries the `METRICS` verb's derived
//!   `p50/p99` fields are computed from.

use crate::counters::{LatencyHistogram, BUCKET_BOUNDS};
use crate::metric::{Kind, Sample};

/// Builder accumulating one exposition page.
#[derive(Debug, Default)]
pub struct TextBuilder {
    buf: String,
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a float the way Prometheus clients expect: decimal, no
/// exponent for the magnitudes we emit, trimmed of trailing zeros.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep one decimal so gauges parse as floats
    } else {
        let s = format!("{v:.9}");
        let trimmed = s.trim_end_matches('0');
        let trimmed = trimmed.strip_suffix('.').unwrap_or(trimmed);
        trimmed.to_string()
    }
}

impl TextBuilder {
    /// Fresh empty page.
    pub fn new() -> TextBuilder {
        TextBuilder::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.buf.push_str("# HELP ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(help);
        self.buf.push('\n');
        self.buf.push_str("# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
    }

    /// A monotonic counter. `_total` is appended to the name unless it
    /// already ends with it.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let mut name = sanitize(name);
        if !name.ends_with("_total") {
            name.push_str("_total");
        }
        self.header(&name, help, "counter");
        self.buf.push_str(&name);
        self.buf.push(' ');
        self.buf.push_str(&value.to_string());
        self.buf.push('\n');
    }

    /// An integer gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        self.buf.push_str(&name);
        self.buf.push(' ');
        self.buf.push_str(&value.to_string());
        self.buf.push('\n');
    }

    /// A float gauge (uptime, lag in seconds, ratios).
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        self.buf.push_str(&name);
        self.buf.push(' ');
        self.buf.push_str(&fmt_f64(value));
        self.buf.push('\n');
    }

    /// A gauge with one fixed label set rendered verbatim, value 1 —
    /// the `rql_build_info{version="…"}` idiom.
    pub fn info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        self.buf.push_str(&name);
        self.buf.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&sanitize(k));
            self.buf.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => self.buf.push_str("\\\\"),
                    '"' => self.buf.push_str("\\\""),
                    '\n' => self.buf.push_str("\\n"),
                    c => self.buf.push(c),
                }
            }
            self.buf.push('"');
        }
        self.buf.push_str("} 1\n");
    }

    /// A [`LatencyHistogram`] as a cumulative-bucket Prometheus
    /// histogram in seconds. `name` should end in `_seconds`.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &LatencyHistogram) {
        let name = sanitize(name);
        self.header(&name, help, "histogram");
        // `+Inf` and `_count` come from the same bucket read as the
        // finite buckets: a sample recorded mid-render must not make
        // them disagree.
        let counts = hist.bucket_counts();
        let mut cumulative = 0u64;
        for (i, n) in counts.iter().enumerate() {
            cumulative += n;
            let le = BUCKET_BOUNDS[i] as f64 / 1e6;
            self.buf.push_str(&name);
            self.buf.push_str("_bucket{le=\"");
            self.buf.push_str(&fmt_f64(le));
            self.buf.push_str("\"} ");
            self.buf.push_str(&cumulative.to_string());
            self.buf.push('\n');
        }
        self.buf.push_str(&name);
        self.buf.push_str("_bucket{le=\"+Inf\"} ");
        self.buf.push_str(&cumulative.to_string());
        self.buf.push('\n');
        self.buf.push_str(&name);
        self.buf.push_str("_sum ");
        self.buf.push_str(&fmt_f64(hist.sum_micros() as f64 / 1e6));
        self.buf.push('\n');
        self.buf.push_str(&name);
        self.buf.push_str("_count ");
        self.buf.push_str(&cumulative.to_string());
        self.buf.push('\n');
    }

    /// Every field of one metric-table section: `rql_<prefix><name>`,
    /// a counter or gauge by its [`Kind`], with HELP
    /// `"<section help>: <name>."`.
    pub fn section(&mut self, (section, values): &Sample) {
        for (&(name, kind), &value) in section.fields.iter().zip(values) {
            let full = format!("rql_{}{name}", section.prefix);
            let help = format!("{}: {name}.", section.help);
            match kind {
                Kind::Counter => self.counter(&full, &help, value),
                Kind::Gauge => self.gauge(&full, &help, value),
            }
        }
    }

    /// Finish the page (Prometheus text format is newline-terminated
    /// per sample; no trailer required).
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn counter_gets_total_suffix_once() {
        let mut b = TextBuilder::new();
        b.counter("rql_queries_ok", "ok", 3);
        b.counter("rql_queries_total", "all", 5);
        let page = b.finish();
        assert!(page.contains("# TYPE rql_queries_ok_total counter\n"));
        assert!(page.contains("rql_queries_ok_total 3\n"));
        assert!(page.contains("rql_queries_total 5\n"));
        assert!(!page.contains("total_total"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100)); // bucket 7, le=0.000128
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(50)); // bucket 16, le=0.065536
        let mut b = TextBuilder::new();
        b.histogram("rql_query_latency_seconds", "latency", &h);
        let page = b.finish();
        assert!(page.contains("# TYPE rql_query_latency_seconds histogram\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"0.000128\"} 2\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"0.065536\"} 3\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(page.contains("rql_query_latency_seconds_count 3\n"));
        assert!(page.contains("rql_query_latency_seconds_sum 0.0502\n"));
    }

    #[test]
    fn histogram_stays_consistent_while_recording() {
        // A scrape taken while queries finish must still satisfy what
        // scripts/validate_openmetrics.py checks: cumulative buckets
        // never decrease and `+Inf` equals `_count`.
        let h = LatencyHistogram::default();
        let stop = AtomicBool::new(false);
        let inconsistent = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    h.record(Duration::from_micros(100));
                }
            });
            let found = (0..2_000).find_map(|_| {
                let mut b = TextBuilder::new();
                b.histogram("rql_h_seconds", "h", &h);
                let page = b.finish();
                let series = |suffix: &str| -> Vec<u64> {
                    page.lines()
                        .filter(|l| l.starts_with(&format!("rql_h_seconds_{suffix}")))
                        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
                        .collect()
                };
                let buckets = series("bucket");
                let ok = buckets.windows(2).all(|w| w[0] <= w[1])
                    && buckets.last() == series("count").first();
                (!ok).then_some(page)
            });
            stop.store(true, Ordering::Relaxed);
            found
        });
        assert_eq!(inconsistent, None);
    }

    #[test]
    fn info_escapes_label_values() {
        let mut b = TextBuilder::new();
        b.info("rql_build_info", "build", &[("version", "1.0\"x\"")]);
        let page = b.finish();
        assert!(page.contains("rql_build_info{version=\"1.0\\\"x\\\"\"} 1\n"));
    }

    #[test]
    fn gauge_f64_renders_decimal() {
        let mut b = TextBuilder::new();
        b.gauge_f64("rql_uptime_seconds", "uptime", 2.0);
        b.gauge_f64("rql_repl_lag_seconds", "lag", 0.25);
        let page = b.finish();
        assert!(page.contains("rql_uptime_seconds 2.0\n"));
        assert!(page.contains("rql_repl_lag_seconds 0.25\n"));
    }
}
