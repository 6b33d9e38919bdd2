//! Declared snapshots and snapshot readers.
//!
//! A [`SnapshotReader`] is the page-fetch interposition of paper §4: "To
//! run a query q on a snapshot S Retro interposes on the database page
//! fetch operation. When q requests a page P, Retro looks up page location
//! in SPT(S) and fetches P from Pagelog, the same way q would fetch P from
//! the database if it was running on the current database state." Pages
//! not in the SPT are shared with the current state and served from the
//! reader's pinned MVCC view of the database.

use std::sync::Arc;

use rql_pagestore::{DbView, PageId, Result, SharedPage, StoreError};

use crate::spt::{PageLocation, PageVersion, Spt, SptBuildStats};
use crate::store::RetroStore;

/// Metadata recorded at snapshot declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Dense snapshot id, starting at 1.
    pub id: u64,
    /// Database page count at declaration.
    pub page_count: u64,
    /// Transaction that declared the snapshot.
    pub txn_id: u64,
}

/// Where a fetched snapshot page actually came from (introspection for
/// tests and the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// Shared page served from the in-memory current database.
    Database,
    /// Pre-state found in the buffer cache.
    Cache,
    /// Pre-state fetched from the Pagelog archive (disk I/O).
    Pagelog,
}

/// A read-only transaction over one declared snapshot.
pub struct SnapshotReader {
    store: Arc<RetroStore>,
    spt: Spt,
    view: DbView,
    build_stats: SptBuildStats,
}

impl SnapshotReader {
    pub(crate) fn new(
        store: Arc<RetroStore>,
        spt: Spt,
        view: DbView,
        build_stats: SptBuildStats,
    ) -> Self {
        SnapshotReader {
            store,
            spt,
            view,
            build_stats,
        }
    }

    /// The version of the image this reader serves for `pid`, without
    /// fetching it: the Pagelog offset of an archived page, or the id and
    /// stamp of a page shared with the current database. `None` outside
    /// the snapshot. A version is unique within one store incarnation
    /// ([`RetroStore::incarnation`]): a page written twice between two
    /// declarations is captured once, but its two current images carry
    /// different stamps.
    pub fn version(&self, pid: PageId) -> Option<PageVersion> {
        Some(match self.spt.locate(pid)? {
            PageLocation::Pagelog(off) => PageVersion::Archived(off),
            PageLocation::SharedWithDb => PageVersion::Current(pid, self.view.stamp(pid)?),
        })
    }

    /// The snapshot this reader is pinned to.
    pub fn snap_id(&self) -> u64 {
        self.spt.snap_id()
    }

    /// Pages in the snapshot.
    pub fn page_count(&self) -> u64 {
        self.spt.page_count()
    }

    /// Cost of building this reader's SPT.
    pub fn build_stats(&self) -> SptBuildStats {
        self.build_stats
    }

    /// The underlying SPT (introspection).
    pub fn spt(&self) -> &Spt {
        &self.spt
    }

    /// Fetch a snapshot page.
    pub fn page(&self, pid: PageId) -> Result<SharedPage> {
        self.page_with_source(pid).map(|(p, _)| p)
    }

    /// The pruning sidecar built from the image this reader serves for
    /// `pid` — the store's entry under [`SnapshotReader::version`] — or
    /// `None` (= don't prune). A commit that replaces a shared page after
    /// the view was pinned drops that version's entry, so the page is
    /// then read in full.
    pub fn sidecar_for(&self, pid: PageId) -> Option<Arc<Vec<u8>>> {
        self.store.sidecar(self.version(pid)?)
    }

    /// Record a page skipped thanks to its sidecar.
    pub fn count_page_pruned(&self) {
        self.store.stats().count_page_pruned();
    }

    /// Fetch a snapshot page, reporting where it came from.
    pub fn page_with_source(&self, pid: PageId) -> Result<(SharedPage, FetchSource)> {
        let stats = self.store.stats();
        match self.spt.locate(pid) {
            None => Err(StoreError::PageOutOfBounds(pid)),
            Some(PageLocation::SharedWithDb) => {
                // Counted as a db read inside the view.
                Ok((self.view.page(pid)?, FetchSource::Database))
            }
            Some(PageLocation::Pagelog(off)) => {
                if let Some(page) = self.store.cache().get(off) {
                    stats.count_cache_hit();
                    return Ok((page, FetchSource::Cache));
                }
                let page: SharedPage = Arc::new(self.store.pagelog().read(off)?);
                stats.count_pagelog_read();
                let evictions = self.store.cache().insert(off, page.clone());
                for _ in 0..evictions {
                    stats.count_cache_eviction();
                }
                Ok((page, FetchSource::Pagelog))
            }
        }
    }
}
