//! Replication counters, exported through `rqld`'s METRICS verb.
//!
//! One struct serves both roles: a leader updates the shipping side, a
//! follower the applying side, and the unused counters stay zero. The
//! field order is wire-stable: `rqld` renders the section verbatim in
//! METRICS and, unprefixed, as REPLSTATUS.

/// Replication role for the `role` gauge.
pub mod role {
    /// Replication not configured.
    pub const NONE: u64 = 0;
    /// Shipping segments to followers.
    pub const LEADER: u64 = 1;
    /// Applying segments from a leader.
    pub const FOLLOWER: u64 = 2;
}

/// Replication phase for the `phase` gauge.
pub mod phase {
    /// Not replicating (no followers / not connected).
    pub const IDLE: u64 = 0;
    /// A seed transfer is in progress.
    pub const SEEDING: u64 = 1;
    /// Live segment streaming.
    pub const STREAMING: u64 = 2;
}

rql_trace::metric_table! {
    /// Live replication counters (lock-free; shared across threads).
    pub struct ReplMetrics =>
    /// Point-in-time copy of [`ReplMetrics`].
    pub struct ReplSnapshot("repl_", "Replication") {
        /// See [`role`].
        role: Gauge,
        /// See [`phase`].
        phase: Gauge,
        /// Currently connected followers (leader side).
        followers: Gauge,
        /// Full seeds completed (leader side).
        seeds_served: Counter,
        /// Segment frames shipped to followers.
        segments_shipped: Counter,
        /// Wire bytes shipped (seed + segments + heartbeats).
        bytes_shipped: Counter,
        /// Slow followers disconnected by the bounded send window.
        sheds: Counter,
        /// Segments applied into the local store (follower side).
        segments_applied: Counter,
        /// Wire bytes applied (follower side).
        bytes_applied: Counter,
        /// Seed bytes received (follower side).
        seed_bytes: Counter,
        /// Reconnect attempts after a lost leader connection.
        reconnects: Counter,
        /// Replication lag in WAL bytes (worst follower / behind leader).
        lag_bytes: Gauge,
        /// Replication lag in declared snapshots.
        lag_snapshots: Gauge,
        /// Replication time lag in microseconds (follower side): own wall
        /// clock at apply minus the leader's propagated commit wall clock.
        /// Zeroed by heartbeats when fully caught up.
        lag_micros: Gauge,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn snapshot_copies_counters_in_stable_order() {
        let m = ReplMetrics::new();
        m.role.set(role::LEADER);
        m.segments_shipped.add(42);
        let (section, values) = m.snapshot().sample();
        assert_eq!(values.len(), 14);
        assert_eq!((section.fields[0].0, values[0]), ("role", 1));
        assert_eq!((section.fields[4].0, values[4]), ("segments_shipped", 42));
        assert_eq!(section.fields[13].0, "lag_micros");
    }
}
