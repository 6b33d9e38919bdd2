//! I/O accounting.
//!
//! The paper's performance study is driven by *where pages come from*: the
//! in-memory current database, the buffer cache, or the on-disk Pagelog.
//! Every fetch path increments one of these counters; the experiment
//! harness reads them to reproduce the paper's cost breakdowns.
//!
//! Each `count_*` method also emits the matching trace instant, so the
//! event stream and the counters come from the *same call sites* and can
//! never disagree (DESIGN.md §9).

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
}
