//! Read-path abstraction over "where pages come from".
//!
//! The same heap-scan and B-tree code runs over three sources: the current
//! database (a pinned MVCC [`DbView`]), a declared snapshot (a
//! [`SnapshotReader`] resolving pages through the SPT → cache → Pagelog),
//! and a write transaction's own view (its write set over the current
//! state, bare or as a [`TxnSource`] that prunes). `SELECT AS OF` is
//! nothing more than executing the ordinary plan over a [`SnapshotReader`]
//! source.

use std::sync::Arc;

use rql_pagestore::{DbView, PageId, Result, SharedPage, WriteTxn};
use rql_retro::{PageVersion, RetroStore, SnapshotReader};

use crate::sidecar::Sidecar;

/// A source of immutable page reads.
pub trait PageSource {
    /// Fetch page `pid`.
    fn page(&self, pid: PageId) -> Result<SharedPage>;

    /// Number of pages visible to this source.
    fn page_count(&self) -> u64;

    /// The version of the image this source would serve for `pid`, or
    /// `None` (= do not cache what is read from it). Two reads under one
    /// version read the same bytes, so a delta scanner may reuse what it
    /// derived from one for the other. Only snapshot readers answer
    /// ([`SnapshotReader::version`]): the current state and a write
    /// transaction's view change under the reader.
    fn version(&self, _pid: PageId) -> Option<PageVersion> {
        None
    }

    /// Decoded, validated pruning sidecar for the page *version* this
    /// source would serve for `pid`, or `None` (= don't prune, read the
    /// page): the store's entry under that version
    /// ([`RetroStore::sidecar`]). A page fetch from the memory-resident
    /// database costs little, but the decode and filter it gates cost per
    /// row, so every source that knows the version it serves answers:
    /// snapshot readers, and write transactions for the pages they have
    /// not touched ([`TxnSource`]). A current-state scan outside a
    /// transaction does not.
    fn sidecar_for(&self, _pid: PageId) -> Option<Sidecar> {
        None
    }

    /// Record a page skipped thanks to its sidecar (routes to the
    /// store's I/O counters where supported).
    fn count_page_pruned(&self) {}
}

impl PageSource for DbView {
    fn page(&self, pid: PageId) -> Result<SharedPage> {
        DbView::page(self, pid)
    }

    fn page_count(&self) -> u64 {
        DbView::page_count(self)
    }
}

impl PageSource for SnapshotReader {
    fn page(&self, pid: PageId) -> Result<SharedPage> {
        SnapshotReader::page(self, pid)
    }

    fn page_count(&self) -> u64 {
        SnapshotReader::page_count(self)
    }

    fn version(&self, pid: PageId) -> Option<PageVersion> {
        SnapshotReader::version(self, pid)
    }

    fn sidecar_for(&self, pid: PageId) -> Option<Sidecar> {
        let bytes: Arc<Vec<u8>> = SnapshotReader::sidecar_for(self, pid)?;
        // Any decode fault (corrupt, misrouted, truncated) yields `None`
        // here and a counted full page read at the caller.
        Sidecar::decode(&bytes, pid)
    }

    fn count_page_pruned(&self) {
        SnapshotReader::count_page_pruned(self);
    }
}

impl PageSource for WriteTxn {
    fn page(&self, pid: PageId) -> Result<SharedPage> {
        self.read_page(pid)
    }

    fn page_count(&self) -> u64 {
        WriteTxn::page_count(self)
    }
}

/// A write transaction's view, pruned by the store's sidecars: the
/// source of the DELETE/UPDATE victim scan and of a SELECT inside an open
/// transaction.
///
/// A page the transaction has not touched reads the published image, so
/// it looks up that image's version, `Current(pid, stamp)` with the
/// stamp from [`WriteTxn::stamp`]. A page it staged or allocated has no
/// version and is never pruned.
pub(crate) struct TxnSource<'a> {
    txn: &'a WriteTxn,
    store: &'a RetroStore,
}

impl<'a> TxnSource<'a> {
    pub(crate) fn new(txn: &'a WriteTxn, store: &'a RetroStore) -> Self {
        TxnSource { txn, store }
    }
}

impl PageSource for TxnSource<'_> {
    fn page(&self, pid: PageId) -> Result<SharedPage> {
        self.txn.read_page(pid)
    }

    fn page_count(&self) -> u64 {
        self.txn.page_count()
    }

    fn sidecar_for(&self, pid: PageId) -> Option<Sidecar> {
        let version = PageVersion::Current(pid, self.txn.stamp(pid)?);
        Sidecar::decode(&self.store.sidecar(version)?, pid)
    }

    fn count_page_pruned(&self) {
        self.store.stats().count_page_pruned();
    }
}
