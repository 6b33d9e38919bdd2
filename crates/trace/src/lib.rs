#![warn(missing_docs)]
// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # rql-trace
//!
//! The observability spine of the RQL reproduction: a low-overhead
//! structured span/event layer threaded through every crate of the
//! stack, plus the machinery built on top of it — the flight recorder,
//! the Chrome-trace/Perfetto exporter, and the metric table every
//! registry's counters and gauges are declared in.
//!
//! Design constraints (DESIGN.md §9):
//!
//! * **No dependencies.** Everything below `core` uses this crate, so it
//!   sits at the bottom of the graph next to `pagestore` and builds from
//!   `std` alone.
//! * **Zero heap allocation on the hot path.** Events are plain-old-data
//!   (`u64` fields, enum names, interned labels); the ring is allocated
//!   once; thread-local span stacks reuse their buffers. When tracing is
//!   disabled ([`set_enabled`]`(false)` / `RQL_TRACE_OFF=1`), recording
//!   entry points return after one relaxed atomic load.
//! * **Always-on flight recorder.** The global ring retains the last N
//!   events at all times; dumps are a read, not a mode switch.
//!
//! Environment:
//!
//! * `RQL_TRACE=out.json` — export the ring as Chrome-trace JSON at
//!   process exit (binaries call [`export_from_env`]);
//! * `RQL_TRACE_RING=N` — global ring capacity in events (default 65536);
//! * `RQL_TRACE_OFF=1` — disable recording entirely.

pub mod chrome;
pub mod counters;
pub mod event;
pub mod flight;
pub mod http;
pub mod label;
pub mod metric;
pub mod openmetrics;
pub mod ring;
pub mod span;

pub use chrome::{chrome_trace_json, export_from_env, export_global, json_str};
pub use counters::{Counter, LatencyHistogram, BUCKET_BOUNDS, HISTOGRAM_BUCKETS};
pub use event::{EventKind, SpanId, TraceEvent};
pub use flight::{check_balanced, flight_dump, install_panic_hook, FLIGHT_DUMP_EVENTS};
pub use http::{HttpResponse, HttpServer};
pub use openmetrics::TextBuilder;
pub use ring::{global, now_nanos, unix_micros, wall_anchor_micros, Ring, DEFAULT_CAPACITY};
pub use span::{
    enabled, instant, instant_arg, open_span_depth, set_enabled, span, span_arg, span_labeled,
    SpanGuard,
};
