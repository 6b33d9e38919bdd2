//! I/O accounting and the deterministic I/O cost model.
//!
//! The paper's performance study is driven by *where pages come from*: the
//! in-memory current database, the buffer cache, or the on-disk Pagelog.
//! Every fetch path increments one of these counters; the experiment
//! harness reads them to reproduce the paper's cost breakdowns, and the
//! [`IoCostModel`] converts counted Pagelog reads into a modeled latency so
//! the figures keep their shape on hardware where the OS page cache would
//! otherwise hide the I/O.
//!
//! Each `count_*` method also emits the matching trace instant, so the
//! event stream and the counters come from the *same call sites* and can
//! never disagree (DESIGN.md §9).

use std::time::Duration;

use rql_trace::{instant, instant_arg, SpanId};

rql_trace::metric_table! {
    /// Event counters for a store.
    ///
    /// All counters are relaxed atomics: they are statistics, not
    /// synchronization.
    pub struct IoStats =>
    /// Point-in-time copy of [`IoStats`].
    pub struct IoStatsSnapshot("io_", "Snapshot-store I/O") {
        /// Pages served from the in-memory current database (shared pages).
        db_reads: Counter,
        /// Pages served from the buffer cache (snapshot pages already fetched).
        cache_hits: Counter,
        /// Pages fetched from the Pagelog archive (cache misses → disk).
        pagelog_reads: Counter,
        /// Pre-state pages copied out at commit (COW captures).
        cow_captures: Counter,
        /// Pages written to the current database by commits.
        pages_written: Counter,
        /// Maplog entries scanned while building SPTs.
        maplog_entries_scanned: Counter,
        /// Buffer-cache evictions.
        cache_evictions: Counter,
        /// Heap pages skipped because a pruning sidecar refuted the predicate
        /// (the page body was never fetched).
        pages_pruned: Counter,
        /// Qq iterations skipped entirely because every changed page was
        /// refuted by its sidecar.
        snapshots_pruned: Counter,
        /// Bytes of pruning-sidecar state built. Cumulative, but exported as
        /// a gauge: reclassifying it would rename the `/metrics` family.
        sidecar_bytes: Gauge,
    }
}

impl IoStats {
    /// Record a page served from the in-memory database.
    #[inline]
    pub fn count_db_read(&self) {
        self.db_reads.inc();
        instant(SpanId::DbRead);
    }

    /// Record a buffer-cache hit.
    #[inline]
    pub fn count_cache_hit(&self) {
        self.cache_hits.inc();
        instant(SpanId::CacheHit);
    }

    /// Record a Pagelog fetch (disk I/O in the paper's setup).
    #[inline]
    pub fn count_pagelog_read(&self) {
        self.pagelog_reads.inc();
        instant(SpanId::PagelogRead);
    }

    /// Record a COW pre-state capture.
    #[inline]
    pub fn count_cow_capture(&self) {
        self.cow_captures.inc();
        instant(SpanId::CowCapture);
    }

    /// Record a committed page write.
    #[inline]
    pub fn count_page_written(&self) {
        self.pages_written.inc();
        instant(SpanId::PageWrite);
    }

    /// Record `n` Maplog entries scanned during an SPT build.
    #[inline]
    pub fn count_maplog_scanned(&self, n: u64) {
        self.maplog_entries_scanned.add(n);
        instant_arg(SpanId::MaplogScan, n);
    }

    /// Record a buffer-cache eviction.
    #[inline]
    pub fn count_cache_eviction(&self) {
        self.cache_evictions.inc();
        instant(SpanId::CacheEviction);
    }

    /// Record a heap page pruned by its sidecar (body never fetched).
    #[inline]
    pub fn count_page_pruned(&self) {
        self.pages_pruned.inc();
        instant(SpanId::PagePruned);
    }

    /// Record a Qq iteration skipped because pruning refuted every
    /// changed page.
    #[inline]
    pub fn count_snapshot_pruned(&self) {
        self.snapshots_pruned.inc();
        instant(SpanId::SnapshotPruned);
    }

    /// Record `n` bytes of sidecar state built.
    #[inline]
    pub fn count_sidecar_bytes(&self, n: u64) {
        self.sidecar_bytes.add(n);
        instant_arg(SpanId::SidecarBuild, n);
    }
}

impl IoStatsSnapshot {
    /// Total page fetches from any source.
    pub fn total_fetches(&self) -> u64 {
        self.db_reads + self.cache_hits + self.pagelog_reads
    }
}

/// Deterministic I/O cost model.
///
/// The paper ran against a SATA SSD where every Pagelog fetch was a random
/// 4 KiB read. On a modern dev box the OS page cache (and tiny scaled-down
/// data) hides that cost, so experiments report a *modeled* latency
/// `measured_cpu + pagelog_reads × pagelog_read_cost` next to raw wall
/// time. The default 100 µs per read approximates the paper's SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCostModel {
    /// Modeled cost of one Pagelog page fetch.
    pub pagelog_read_cost: Duration,
    /// Modeled cost of one in-memory database page access (usually zero;
    /// kept for sensitivity analysis).
    pub db_read_cost: Duration,
    /// Modeled cost of one buffer-cache hit (usually zero).
    pub cache_hit_cost: Duration,
}

impl Default for IoCostModel {
    fn default() -> Self {
        IoCostModel {
            pagelog_read_cost: Duration::from_micros(100),
            db_read_cost: Duration::ZERO,
            cache_hit_cost: Duration::ZERO,
        }
    }
}

impl IoCostModel {
    /// A model that charges nothing (pure CPU measurement).
    pub fn free() -> Self {
        IoCostModel {
            pagelog_read_cost: Duration::ZERO,
            db_read_cost: Duration::ZERO,
            cache_hit_cost: Duration::ZERO,
        }
    }

    /// Modeled I/O latency for a counter interval.
    pub fn io_cost(&self, delta: &IoStatsSnapshot) -> Duration {
        self.pagelog_read_cost * delta.pagelog_reads as u32
            + self.db_read_cost * delta.db_reads as u32
            + self.cache_hit_cost * delta.cache_hits as u32
    }

    /// Modeled total latency: measured CPU time plus modeled I/O.
    pub fn total_cost(&self, cpu: Duration, delta: &IoStatsSnapshot) -> Duration {
        cpu + self.io_cost(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = IoStats::new();
        s.count_db_read();
        s.count_db_read();
        s.count_cache_hit();
        s.count_pagelog_read();
        s.count_cow_capture();
        s.count_page_written();
        s.count_maplog_scanned(5);
        let snap = s.snapshot();
        assert_eq!(snap.db_reads, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.pagelog_reads, 1);
        assert_eq!(snap.cow_captures, 1);
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.maplog_entries_scanned, 5);
        assert_eq!(snap.total_fetches(), 4);
    }

    #[test]
    fn delta_measures_interval() {
        let s = IoStats::new();
        s.count_pagelog_read();
        let before = s.snapshot();
        s.count_pagelog_read();
        s.count_pagelog_read();
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.pagelog_reads, 2);
        assert_eq!(d.db_reads, 0);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.count_pagelog_read();
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn cost_model_charges_pagelog_reads() {
        let model = IoCostModel::default();
        let delta = IoStatsSnapshot {
            pagelog_reads: 10,
            ..Default::default()
        };
        assert_eq!(model.io_cost(&delta), Duration::from_millis(1));
        assert_eq!(
            model.total_cost(Duration::from_millis(2), &delta),
            Duration::from_millis(3)
        );
        assert_eq!(IoCostModel::free().io_cost(&delta), Duration::ZERO);
    }
}
