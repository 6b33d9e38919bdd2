//! The benchmark's checks on itself: `--aa` (is it quiet enough to gate
//! on, and do its counters repeat?) and `--quick` (does it still run,
//! answer correctly and name every metric `BENCHMARK.json` names?).

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Json};
use crate::plan::Scale;
use crate::report::{fmt_value, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::quartiles;
use crate::{Res, RunArgs, WORKLOADS};

/// Counters that one load-generating thread must reproduce exactly from
/// one seed. One that does not is a finding about the program.
const MUST_REPEAT: &[&str] = &[
    "pagestore.pagelog_reads_per_snap",
    "pagestore.db_reads_per_snap",
    "retro.cow_captures_per_commit",
    "core.result_inserts_per_op",
    "core.result_updates_per_op",
];

/// `BENCHMARK.json` from the current directory (the repository root).
fn manifest() -> Res<Json> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Ok(json::parse(&text)?)
}

fn names_of(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            ))
        })
        .collect()
}

/// Whether `BENCHMARK.json` and the benchmark name the same workloads
/// and metrics, with the same units, in the same order.
fn manifest_matches(manifest: &Json) -> bool {
    let mut ok = true;
    let mut check = |what: &str, theirs: Vec<(String, String)>, ours: Vec<(String, String)>| {
        if theirs != ours {
            ok = false;
            println!("MISMATCH {what}: BENCHMARK.json and the benchmark differ");
            for (name, unit) in &theirs {
                if !ours.contains(&(name.clone(), unit.clone())) {
                    println!("  only in BENCHMARK.json: {name} [{unit}]");
                }
            }
            for (name, unit) in &ours {
                if !theirs.contains(&(name.clone(), unit.clone())) {
                    println!("  only in the benchmark: {name} [{unit}]");
                }
            }
        }
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    check(
        "end_to_end",
        names_of(manifest, "end_to_end"),
        own(END_TO_END),
    );
    check("per_layer", names_of(manifest, "per_layer"), own(PER_LAYER));
    check(
        "workloads",
        names_of(manifest, "workloads"),
        WORKLOADS
            .iter()
            .map(|w| ((*w).to_owned(), String::new()))
            .collect(),
    );
    ok
}

/// The smoke lane: every workload, untraced and traced, at a scale whose
/// timings mean nothing.
pub fn quick(only: Option<&str>, seed: u64) -> Res<bool> {
    let mut ok = manifest_matches(&manifest()?);
    let started = std::time::Instant::now();
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        for traced in [false, true] {
            let args = RunArgs {
                scale: Scale::quick(),
                seed,
                ops: 4,
                traced,
                data_dir: crate::scratch_root()
                    .join("bench-data")
                    .join(format!("quick-{workload}-{}", std::process::id())),
                deadline_s: 60.0,
            };
            let t = std::time::Instant::now();
            let out = crate::run_workload(workload, &args, &mut Spans::new())?;
            let metrics = if traced {
                out.per_layer.all()
            } else {
                out.end_to_end.all()
            };
            let zero: Vec<&str> = metrics
                .iter()
                .filter(|m| !traced && m.value <= 0.0)
                .map(|m| m.name)
                .collect();
            let good = out.failed == 0 && zero.is_empty();
            ok &= good;
            println!(
                "{} {workload} traced={traced}: {} ops, {} failed, {} metrics{} \
                 ({:.1} s, timings NOT comparable)",
                if good { "ok  " } else { "FAIL" },
                out.attempted,
                out.failed,
                metrics.len(),
                if zero.is_empty() {
                    String::new()
                } else {
                    format!(", zero: {zero:?}")
                },
                t.elapsed().as_secs_f64()
            );
        }
    }
    println!("quick: {:.1} s in all", started.elapsed().as_secs_f64());
    Ok(ok)
}

/// One child run; returns its result line, parsed.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Res<Json> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "child run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )
        .into());
    }
    Ok(json::parse(last)?)
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// A/A: `runs` fresh processes of one workload. Prints, per end-to-end
/// metric, the median, the quartiles and (IQR ÷ median) against the bound
/// in `BENCHMARK.json`; then checks that the counters repeat. With
/// `vary_seed` run `i` uses `seed + i`, which is what the acceptance
/// check does; without it every run uses `seed`.
pub fn aa(workload: &str, seed: u64, seconds: u64, runs: usize, vary_seed: bool) -> Res<bool> {
    let manifest = manifest()?;
    let bounds: BTreeMap<String, f64> = manifest
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut ok = true;
    let mut columns: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut attempted = Vec::new();
    for i in 0..runs {
        let run_seed = if vary_seed { seed + i as u64 } else { seed };
        let result = child(workload, run_seed, seconds, false)?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            ok = false;
            println!("run {i}: wrong answers or failed ops");
        }
        attempted.push(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        for (name, v) in metric_values(&result) {
            columns.entry(name).or_default().push(v);
        }
    }
    println!(
        "# A/A {workload}: {runs} runs, seed {seed}{}, {seconds} s each",
        if vary_seed { "+i" } else { " (same)" }
    );
    println!("# metric median q1 q3 iqr/median bound verdict");
    for (name, _) in END_TO_END {
        let values = columns.get(*name).cloned().unwrap_or_default();
        let [q1, q2, q3] = quartiles(&values);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
        let bound = bounds.get(*name).copied().unwrap_or(0.0);
        // Set-up time is held to its bound between medians, not within a set.
        let verdict = if spread <= bound || *name == "setup_s" {
            if spread <= bound / 3.0 {
                "quiet"
            } else {
                "within"
            }
        } else {
            ok = false;
            "TOO NOISY"
        };
        println!(
            "{name} {} {} {} {spread:.4} {bound} {verdict}",
            fmt_value(q2),
            fmt_value(q1),
            fmt_value(q3)
        );
    }

    // Counters: exact repetition from one seed.
    let mut findings = Vec::new();
    if !vary_seed {
        for (what, values) in [
            (
                "space_amp",
                columns.get("space_amp").cloned().unwrap_or_default(),
            ),
            ("attempted", attempted),
        ] {
            if values.windows(2).any(|w| w[0] != w[1]) {
                findings.push(format!("{what} does not repeat: {values:?}"));
            }
        }
    }
    let a = metric_values(&child(workload, seed, seconds, true)?);
    let b = metric_values(&child(workload, seed, seconds, true)?);
    for name in MUST_REPEAT {
        if a.get(*name) != b.get(*name) {
            findings.push(format!(
                "{name} does not repeat: {:?} then {:?}",
                a.get(*name),
                b.get(*name)
            ));
        }
    }
    if findings.is_empty() {
        println!("# counters repeat exactly across two traced runs of seed {seed}");
    }
    for f in &findings {
        println!("# finding: {f}");
    }
    Ok(ok)
}
