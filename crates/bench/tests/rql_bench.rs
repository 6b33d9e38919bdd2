//! The `rql-bench` dispatcher: one binary, one table of experiments
//! driving the usage text and the dispatch.

use std::process::{Command, Output};

/// Every experiment the binary runs by name.
const EXPERIMENTS: [&str; 16] = [
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "mem_table",
    "ablations",
    "delta_iteration",
    "memo_cache",
    "prune_scan",
    "repl_scaleout",
    "standing_maintenance",
];

fn rql_bench(arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rql-bench"))
        .arg(arg)
        .output()
        .unwrap()
}

#[test]
fn unknown_experiment_exits_nonzero_with_usage_listing_every_experiment() {
    let out = rql_bench("fig99");
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(
        usage.contains("usage: rql-bench <experiment|all>"),
        "{usage}"
    );
    for name in EXPERIMENTS {
        assert!(usage.contains(name), "usage does not list {name}: {usage}");
    }
}

#[test]
fn table1_prints_its_heading() {
    let out = rql_bench("table1");
    assert!(out.status.success());
    let md = String::from_utf8_lossy(&out.stdout);
    assert!(
        md.starts_with("## Table 1 — Parameters and notations"),
        "{md}"
    );
}
