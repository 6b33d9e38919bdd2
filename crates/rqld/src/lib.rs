//! # rqld
//!
//! A concurrent RQL server and client. `rqld` lifts the embedded RQL
//! stack (pagestore → retro → sqlengine → core) behind a small
//! length-prefixed TCP protocol so many clients can run retrospective
//! computations against one shared snapshot store:
//!
//! * [`protocol`] — the wire format: request/response frames carrying
//!   RQL programs, result tables, mechanism cost reports, analyzer
//!   diagnostics and `[RQLxxx]` errors;
//! * [`pool`] — the shared read-path stack ([`pool::SharedStack`]: one
//!   buffer cache, one maplog) and per-connection sessions with private
//!   auxiliary databases and a set-based `SnapIds` fan-out;
//! * [`server`] — accept loop, bounded admission queue + worker pool,
//!   per-query deadline watchdog, out-of-band `CANCEL`, graceful drain;
//! * [`metrics`] — counters and a log-bucketed latency histogram served
//!   by the `METRICS` verb;
//! * [`observe`] — the same registries rendered as a Prometheus text
//!   exposition page, served on `--metrics-listen`'s `/metrics`, and the
//!   `REPLSTATUS` reply;
//! * [`client`] — a blocking client used by the `rql` CLI and tests.
//!
//! Everything is std + workspace crates: no async runtime, no external
//! protocol dependencies.

#![warn(missing_docs)]
// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod metrics;
pub mod observe;
pub mod pool;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, SubscriptionEvent};
pub use metrics::{Metrics, StandingSnapshot};
pub use pool::{ServerSession, SharedStack, SnapEntry};
pub use protocol::{
    Request, Response, WireDelta, WireDiagnostic, WireFix, WireReport, WireResult, WireTable,
    MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{error_code, serve, ServerConfig, ServerHandle, ADMISSION_CODE};
