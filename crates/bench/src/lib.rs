//! # rql-bench
//!
//! Experiment harness regenerating every table and figure of the RQL
//! paper's evaluation (§5). Each experiment is a library function
//! returning a markdown section; one binary runs them by name
//! (`cargo run --release -p rql-bench -- fig6`), and `rql-bench all`
//! prints the whole document recorded in `results_full.md`.
//!
//! Every figure states its shape on counted Pagelog reads or on measured
//! time; nothing is modeled (see [`harness`]).
//!
//! Environment knobs:
//!
//! * `RQL_BENCH_SF` — TPC-H scale factor (default 0.002 ⇒ 3,000 orders);
//! * `RQL_BENCH_FAST` — reduced parameters for smoke runs/CI.

// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod experiments;
pub mod harness;
pub mod queries;
