//! `rql-bench <experiment|all>`: runs one experiment of the paper's
//! evaluation, or with `all` every section of the recorded results, and
//! prints it as markdown.
//!
//! ```sh
//! cargo run --release -p rql-bench -- all > results.md
//! RQL_BENCH_FAST=1 cargo run --release -p rql-bench -- all   # smoke run
//! cargo run --release -p rql-bench -- fig6
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::time::Instant;

use rql_bench::experiments::{
    ablations, delta_iteration, fig10, fig11, fig12, fig13, fig6, fig7, fig8, fig9, mem_table,
    memo_cache, prune_scan, repl_scaleout, standing_maintenance, table1,
};
use rql_bench::harness::{bench_sf, phase};

type Run = fn() -> rql_sqlengine::Result<String>;

/// Every experiment by name. `all` runs the first [`IN_ALL`]; the
/// replication and standing-query lanes run only by name.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", || Ok(table1::run())),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("mem_table", mem_table::run),
    ("ablations", ablations::run),
    ("delta_iteration", delta_iteration::run),
    ("memo_cache", memo_cache::run),
    ("prune_scan", prune_scan::run),
    ("repl_scaleout", repl_scaleout::run),
    ("standing_maintenance", standing_maintenance::run),
];

const IN_ALL: usize = 14;

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: rql-bench <experiment|all>\n\
         experiments: {}\n\
         all: {} through {}",
        names.join(", "),
        names[0],
        names[IN_ALL - 1]
    );
    ExitCode::from(2)
}

/// Print one experiment's section; on failure print a FAILED section.
fn run_section(name: &'static str, run: Run) -> bool {
    let (result, elapsed) = phase(name, run);
    match result {
        Ok(md) => {
            print!("{md}");
            eprintln!("[{name}] done in {elapsed:?}");
            true
        }
        Err(e) => {
            println!("## {name}\n\nFAILED: {e}\n");
            eprintln!("[{name}] FAILED: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        return usage();
    };
    let sections = if arg == "all" {
        println!("# RQL reproduction — experimental results\n");
        println!(
            "Configuration: scale factor {}, page size 4 KiB, in-memory Pagelog; \
             Pagelog reads are counted, times are measured.\n",
            bench_sf()
        );
        &EXPERIMENTS[..IN_ALL]
    } else {
        match EXPERIMENTS.iter().position(|(name, _)| name == arg) {
            Some(i) => &EXPERIMENTS[i..=i],
            None => return usage(),
        }
    };
    let started = Instant::now();
    let failures = sections
        .iter()
        .filter(|&&(name, run)| !run_section(name, run))
        .count();
    eprintln!("finished in {:?}", started.elapsed());
    // RQL_TRACE=out.json: export the phase spans for Perfetto.
    match rql_trace::export_from_env() {
        Some((path, Ok(()))) => eprintln!("trace written to {}", path.display()),
        Some((path, Err(e))) => eprintln!("RQL_TRACE export to {} failed: {e}", path.display()),
        None => {}
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
