//! # rql-tpch
//!
//! Deterministic TPC-H-like workload substrate for the RQL reproduction:
//! a `dbgen`-analog generator ([`gen::Tpch`]) for all eight tables at a
//! configurable scale factor, the RF1/RF2 refresh functions
//! ([`refresh::RefreshStream`]), and the paper's update workloads
//! UW7.5/UW15/UW30/UW60 ([`workload`]) that churn a constant order
//! volume between consecutive snapshot declarations and drive the
//! snapshot histories every experiment runs on.

#![warn(missing_docs)]
// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod gen;
pub mod load;
pub mod refresh;
pub mod text;
pub mod workload;

pub use gen::{Tpch, SCHEMA};
pub use load::{create_native_indexes, create_schema, load_initial};
pub use refresh::RefreshStream;
pub use workload::{build_history, SnapshotHistory, UpdateWorkload, UW15, UW30, UW60, UW7_5};
