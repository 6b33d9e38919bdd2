//! Declared snapshots and snapshot readers.
//!
//! A [`SnapshotReader`] is the page-fetch interposition of paper §4: "To
//! run a query q on a snapshot S Retro interposes on the database page
//! fetch operation. When q requests a page P, Retro looks up page location
//! in SPT(S) and fetches P from Pagelog, the same way q would fetch P from
//! the database if it was running on the current database state." Pages
//! not in the SPT are shared with the current state and served from the
//! reader's pinned MVCC view of the database.

use std::collections::HashSet;
use std::sync::Arc;

use rql_pagestore::{CacheKey, DbView, PageId, Result, SharedPage, StoreError};

use crate::spt::{PageLocation, Spt, SptBuildStats};
use crate::store::{RetroStore, SidecarMap};

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
    /// When opened as part of a chain
    /// ([`RetroStore::open_snapshot_chain`]): pages that may differ from
    /// the previous snapshot in the chain. `None` = unknown (opened
    /// standalone), meaning every page must be assumed changed.
    changed_from_prev: Option<HashSet<PageId>>,
    /// Sidecars for current-state pages, captured *before* the view was
    /// pinned: any page the SPT later resolves as `SharedWithDb` was
    /// unwritten from capture through SPT build, so its entry (when
    /// present) describes exactly the image this reader sees.
    sidecars: SidecarMap,
}

impl SnapshotReader {
    pub(crate) fn new(
        store: Arc<RetroStore>,
        spt: Spt,
        view: DbView,
        build_stats: SptBuildStats,
        changed_from_prev: Option<HashSet<PageId>>,
        sidecars: SidecarMap,
    ) -> Self {
        SnapshotReader {
            store,
            spt,
            view,
            build_stats,
            changed_from_prev,
            sidecars,
        }
    }

    /// Pages that may differ from the previous snapshot in the chain this
    /// reader was opened with, or `None` when opened standalone (all
    /// pages must then be assumed changed). The set is a conservative
    /// superset of truly-differing pages.
    pub fn changed_from_prev(&self) -> Option<&HashSet<PageId>> {
        self.changed_from_prev.as_ref()
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

    /// The pruning sidecar matching the page *version* this reader
    /// resolves `pid` to, or `None` (= don't prune). Shared pages use
    /// the map captured before the view was pinned; archived pages use
    /// the Pagelog-offset-keyed archive, so every `AS OF` view pairs a
    /// page with the sidecar built from that exact image.
    pub fn sidecar_for(&self, pid: PageId) -> Option<Arc<Vec<u8>>> {
        match self.spt.locate(pid)? {
            PageLocation::SharedWithDb => self.sidecars.get(&pid.0).cloned(),
            PageLocation::Pagelog(off) => self.store.archived_sidecar(off),
        }
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
                let key = CacheKey::Pagelog(off);
                if let Some(page) = self.store.cache().get(&key) {
                    stats.count_cache_hit();
                    return Ok((page, FetchSource::Cache));
                }
                let page: SharedPage = Arc::new(self.store.pagelog().read(off)?);
                stats.count_pagelog_read();
                let evictions = self.store.cache().insert(key, page.clone());
                for _ in 0..evictions {
                    stats.count_cache_eviction();
                }
                Ok((page, FetchSource::Pagelog))
            }
        }
    }
}
