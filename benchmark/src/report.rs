//! Metric names and units (the same lists `BENCHMARK.json` carries), the
//! values a run collects for them, and how they are printed.

use crate::stats::median;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("snaps_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("reopen_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics: `(name, unit)`; the prefix is the crate. A metric a
/// workload cannot observe is reported as 0 with zero samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pagestore.pagelog_reads_per_snap", "count"),
    ("pagestore.db_reads_per_snap", "count"),
    ("pagestore.pagelog_share", "ratio"),
    ("pagestore.cache_hit_ratio", "ratio"),
    ("pagestore.evictions_per_op", "count"),
    ("pagestore.page_fetch_us", "us"),
    ("pagestore.wal_bytes_per_commit", "B"),
    ("retro.spt_build_ms_per_snap", "ms"),
    ("retro.spt_build_probe_ms", "ms"),
    ("retro.maplog_scanned_per_snap", "count"),
    ("retro.cow_captures_per_commit", "count"),
    ("retro.pagelog_bytes_per_commit", "B"),
    ("retro.declare_ms_p50", "ms"),
    ("retro.open_ms", "ms"),
    ("sqlengine.eval_ms_per_snap", "ms"),
    ("sqlengine.eval_net_ms_per_snap", "ms"),
    ("sqlengine.index_build_ms_per_snap", "ms"),
    ("sqlengine.pages_per_row_out", "ratio"),
    ("sqlengine.fetch_avoided_ratio", "ratio"),
    ("sqlengine.parse_ms_per_op", "ms"),
    ("sqlengine.dml_rows_per_s", "1/s"),
    ("core.fold_ms_per_snap", "ms"),
    ("core.fold_share", "ratio"),
    ("core.fold_us_per_row", "us"),
    ("core.collate_ms_per_op", "ms"),
    ("core.aggtable_ms_per_op", "ms"),
    ("core.intervals_ms_per_op", "ms"),
    ("core.result_inserts_per_op", "count"),
    ("core.result_updates_per_op", "count"),
    ("core.delta_iter_ratio", "ratio"),
    ("core.preflight_ms_per_op", "ms"),
    ("core.unattributed_frac", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("memo.resident_mb", "MB"),
    ("memo.evictions", "count"),
    ("standing.maintain_ms_p50", "ms"),
    ("standing.rows_pushed_per_commit", "count"),
    ("standing.push_lag_ms_p50", "ms"),
    ("rqld.rtt_us", "us"),
    ("rqld.wire_overhead_ms_p50", "ms"),
    ("rqld.codec_mb_per_s", "MB/s"),
    ("rqld.result_bytes_per_op", "B"),
    ("rqld.tpl_1_p50_ms", "ms"),
    ("rqld.tpl_2_p50_ms", "ms"),
    ("rqld.tpl_3_p50_ms", "ms"),
    ("rqld.tpl_4_p50_ms", "ms"),
    ("rqld.tpl_5_p50_ms", "ms"),
    ("rqld.rejected", "count"),
    ("trace.overhead_frac", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.op_max_ms", "ms"),
    ("bench.op_iqr_frac", "ratio"),
    ("bench.op_cpu_p50_ms", "ms"),
    ("bench.load_rows_per_s", "1/s"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, commits, snapshots, probes).
    pub samples: usize,
}

/// The values of one run, against one of the two name lists.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, usize)>>,
}

impl Metrics {
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            names,
            values: vec![None; names.len()],
        }
    }

    /// Record `value`, computed from `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's list"));
        self.values[i] = Some((if value.is_finite() { value } else { 0.0 }, samples));
    }

    /// Record the median of `samples`.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, median(samples), samples.len());
    }

    /// Every metric of the list, unobserved ones as 0 with no samples.
    pub fn all(&self) -> Vec<Metric> {
        self.names
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let (value, samples) = v.unwrap_or((0.0, 0));
                Metric {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Timed ops attempted, and those failed, refused or wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Findings worth a line in the output (attribution gaps, early stop).
    pub notes: Vec<String>,
    /// Layer sum against op wall: `(layer.part, ms)` over the ops whose
    /// total wall is `attributed_wall_ms`.
    pub attribution: Vec<(&'static str, f64)>,
    pub attributed_wall_ms: f64,
    /// Wall of every timed op in order, to tell a level shift from bursts.
    pub op_ms: Vec<f64>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            end_to_end: Metrics::new(END_TO_END),
            per_layer: Metrics::new(PER_LAYER),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            attribution: Vec::new(),
            attributed_wall_ms: 0.0,
            op_ms: Vec::new(),
        }
    }
}

/// `name value unit n=samples`, one line per metric.
pub fn print_human(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "{} {} {} n={}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.samples
        );
    }
}

/// All the digits of a measurement, without exponent noise for counts.
pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn result_line_is_json_with_exactly_the_four_keys() {
        let mut m = Metrics::new(END_TO_END);
        m.set("op_p50_ms", 412.062_5, 24);
        m.set("setup_s", f64::NAN, 1);
        let line = result_line(true, 24, 0, &m.all());
        let Json::Obj(top) = json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<_> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Json::Obj(metrics) = &top["metrics"] else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["op_p50_ms"].get("value").and_then(Json::as_f64),
            Some(412.062_5)
        );
        assert_eq!(
            metrics["setup_s"].get("value").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
