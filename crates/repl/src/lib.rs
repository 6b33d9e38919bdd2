//! # rql-repl
//!
//! Physical replication for RQL snapshot stores: a leader ships its
//! committed WAL, segment by segment, and followers replay it into their
//! own durable stores.
//!
//! The design leans entirely on two properties the substrate already
//! guarantees:
//!
//! * **The WAL is the database.** Recovery rebuilds the current state and
//!   the declared snapshot sequence from committed WAL records alone, so
//!   a follower that replays the leader's committed segments — with the
//!   leader's transaction ids — regenerates a byte-identical WAL and an
//!   equivalent Pagelog/Maplog archive. Resume after a disconnect is a
//!   raw length comparison, no LSN bookkeeping.
//! * **Snapshots are immutable.** Once a declaring commit is replicated,
//!   the snapshot's content never changes on either side, so a
//!   retrospective query on the follower reads exactly the bytes the
//!   leader would — the consistency argument is the paper's own
//!   append-only archive, not a distributed protocol.
//!
//! The crate is transport + state machines only ([`leader::ReplLeader`],
//! [`follower::ReplFollower`], [`frame`]); the store-level substrate
//! (segment parsing, replayed application, the seed checkpoint) lives in
//! `rql-pagestore` / `rql-retro`. `rqld` wires both ends to its serving
//! loop.

#![warn(missing_docs)]
// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod follower;
pub mod frame;
pub mod leader;
pub mod metrics;

pub use follower::{FollowerConfig, ReplFollower};
pub use frame::{read_frame, write_frame, CommitOrigin, Frame, MAX_FRAME, PROTO_VERSION};
pub use leader::{LeaderConfig, ReplLeader};
pub use metrics::{phase, role, ReplMetrics, ReplSnapshot};

use std::fmt;

/// Replication errors.
#[derive(Debug)]
pub enum ReplError {
    /// Transport failure — retriable (the follower reconnects).
    Io(std::io::Error),
    /// Malformed or unexpected frame — the peer is not speaking the
    /// protocol; the connection is dropped.
    Protocol(String),
    /// Store-level failure while applying or reading log bytes.
    Store(rql_pagestore::StoreError),
    /// The follower's store no longer matches the leader's history —
    /// fatal; requires a re-seed from scratch.
    Diverged(String),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication io: {e}"),
            ReplError::Protocol(msg) => write!(f, "replication protocol: {msg}"),
            ReplError::Store(e) => write!(f, "replication store: {e}"),
            ReplError::Diverged(msg) => write!(f, "replica diverged: {msg}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Io(e)
    }
}

impl From<rql_pagestore::wire::WireError> for ReplError {
    fn from(e: rql_pagestore::wire::WireError) -> Self {
        match e {
            rql_pagestore::wire::WireError::Io(e) => ReplError::Io(e),
            malformed => ReplError::Protocol(malformed.to_string()),
        }
    }
}

impl From<rql_pagestore::StoreError> for ReplError {
    fn from(e: rql_pagestore::StoreError) -> Self {
        ReplError::Store(e)
    }
}

/// Crate-wide result.
pub type Result<T> = std::result::Result<T, ReplError>;
