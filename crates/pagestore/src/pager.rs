//! The pager: current-state page table, write transactions, read views.
//!
//! The paper assumes "the current state database is memory resident" (§5),
//! so the pager keeps the current state as a vector of `Arc`-published
//! pages; durability comes from the redo WAL. Writers never mutate a
//! published page in place — a commit swaps in freshly built pages — which
//! gives readers MVCC for free: a read-only transaction pins an immutable
//! [`DbView`] of the page table and is never blocked by, nor blocks,
//! writers. This mirrors how Retro "runs snapshot queries as read-only
//! MVCC transactions" on BDB (§4).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::cache::BufferCache;
use crate::error::{Result, StoreError};
use crate::page::{Page, PageId, SharedPage, DEFAULT_PAGE_SIZE};
use crate::stats::IoStats;
use crate::storage::LogStorage;
use crate::wal::Wal;

/// Pager configuration.
#[derive(Debug, Clone)]
pub struct PagerConfig {
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer-cache capacity in pages (for snapshot pages).
    pub cache_capacity: usize,
    /// Whether commits fsync the WAL.
    pub wal_sync_on_commit: bool,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            page_size: DEFAULT_PAGE_SIZE,
            cache_capacity: 1 << 16,
            wal_sync_on_commit: false,
        }
    }
}

/// The published page table: every page, and beside it the id of the
/// transaction that published its image (0 for an image recovery
/// restored) — the stamp that tells two images of one page apart within
/// this open of the store.
#[derive(Clone, Default)]
struct Published {
    pages: Vec<SharedPage>,
    stamps: Vec<u64>,
}

/// The current-state page manager.
pub struct Pager {
    config: PagerConfig,
    pages: RwLock<Arc<Published>>,
    stats: Arc<IoStats>,
    cache: Arc<BufferCache>,
    wal: Option<Wal>,
    writer_active: AtomicBool,
    next_txn: AtomicU64,
}

impl Pager {
    /// Create an empty pager with no WAL (tests, ephemeral databases).
    pub fn new(config: PagerConfig) -> Self {
        let cache = Arc::new(BufferCache::new(config.cache_capacity));
        Pager {
            config,
            pages: RwLock::new(Arc::default()),
            stats: Arc::new(IoStats::new()),
            cache,
            wal: None,
            writer_active: AtomicBool::new(false),
            next_txn: AtomicU64::new(1),
        }
    }

    /// Create a pager whose commits are logged to `wal_storage`, replaying
    /// any committed state already on the log.
    ///
    /// Returns the pager and the snapshot ids found on the log (in commit
    /// order) so the snapshot subsystem can resume its sequence.
    pub fn open_with_wal(
        config: PagerConfig,
        wal_storage: Arc<dyn LogStorage>,
    ) -> Result<(Self, Vec<u64>)> {
        let wal = Wal::new(Arc::clone(&wal_storage), config.wal_sync_on_commit);
        let recovered = wal.recover()?;
        // Drop any torn tail so new appends land at the recovered commit
        // boundary: without this, bytes after a crash-torn record would be
        // stranded garbage in front of every later commit, and a second
        // recovery would stop at them and lose that later work.
        if recovered.valid_len < wal_storage.len() {
            wal_storage.truncate(recovered.valid_len)?;
        }
        let mut max_pid = None;
        for pid in recovered.pages.keys() {
            max_pid = Some(max_pid.map_or(pid.0, |m: u64| m.max(pid.0)));
        }
        let count = max_pid.map_or(0, |m| m + 1) as usize;
        let blank = Arc::new(Page::zeroed(config.page_size));
        let mut pages: Vec<SharedPage> = vec![blank; count];
        for (pid, page) in recovered.pages {
            pages[pid.index()] = Arc::new(page);
        }
        let stamps = vec![0; count];
        let cache = Arc::new(BufferCache::new(config.cache_capacity));
        let pager = Pager {
            config,
            pages: RwLock::new(Arc::new(Published { pages, stamps })),
            stats: Arc::new(IoStats::new()),
            cache,
            wal: Some(wal),
            writer_active: AtomicBool::new(false),
            next_txn: AtomicU64::new(recovered.last_txn + 1),
        };
        Ok((pager, recovered.snapshots))
    }

    /// Pager configuration.
    pub fn config(&self) -> &PagerConfig {
        &self.config
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Shared buffer cache (snapshot pages).
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// Number of pages in the current database.
    pub fn page_count(&self) -> u64 {
        self.pages.read().pages.len() as u64
    }

    /// Read a current-state page (counted as an in-memory database read).
    pub fn read_page(&self, pid: PageId) -> Result<SharedPage> {
        let pages = self.pages.read();
        let page = (pages.pages)
            .get(pid.index())
            .cloned()
            .ok_or(StoreError::PageOutOfBounds(pid))?;
        self.stats.count_db_read();
        Ok(page)
    }

    /// Pin an immutable view of the current page table (MVCC read view).
    pub fn view(&self) -> DbView {
        DbView {
            pages: self.pages.read().clone(),
            stats: self.stats.clone(),
        }
    }

    /// Begin a write transaction. The store is single-writer; a second
    /// concurrent writer gets [`StoreError::WriterBusy`].
    pub fn begin_write(self: &Arc<Self>) -> Result<WriteTxn> {
        if self
            .writer_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(StoreError::WriterBusy);
        }
        let txn_id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        Ok(WriteTxn {
            pager: Arc::clone(self),
            txn_id,
            writes: HashMap::new(),
            base_count: self.page_count(),
            alloc_count: 0,
            finished: false,
        })
    }

    /// Begin a write transaction with an explicit id instead of the local
    /// counter — the replication replay path, where a follower must commit
    /// under the leader's txn id so its regenerated WAL stays byte-identical
    /// to the leader's. The local counter is advanced past `txn_id` so any
    /// later locally-assigned id stays unique.
    pub fn begin_write_at(self: &Arc<Self>, txn_id: u64) -> Result<WriteTxn> {
        if self
            .writer_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(StoreError::WriterBusy);
        }
        self.next_txn.fetch_max(txn_id + 1, Ordering::Relaxed);
        Ok(WriteTxn {
            pager: Arc::clone(self),
            txn_id,
            writes: HashMap::new(),
            base_count: self.page_count(),
            alloc_count: 0,
            finished: false,
        })
    }

    /// Bytes currently on the WAL (0 without a WAL). Every value observed
    /// between commits is a committed-record boundary, which is what the
    /// replication protocol resumes from.
    pub fn wal_len(&self) -> u64 {
        self.wal.as_ref().map_or(0, super::wal::Wal::len)
    }

    /// Publish a transaction's writes, WAL-logging them first.
    ///
    /// `pre_capture` is invoked once per modified page *before* the new
    /// image is published, with the pre-state (`None` for pages the
    /// transaction allocated). This is the interposition point Retro uses
    /// for copy-on-write pre-state capture (paper §4: "the extensions
    /// interpose on transaction commit").
    ///
    /// A failed capture or WAL append publishes nothing, cuts the WAL back
    /// to where the commit began, and releases the writer: the store takes
    /// the next transaction as if this one had aborted.
    pub fn commit(
        &self,
        mut txn: WriteTxn,
        snapshot: Option<u64>,
        mut pre_capture: impl FnMut(PageId, Option<&SharedPage>) -> Result<()>,
    ) -> Result<u64> {
        let txn_id = txn.txn_id;
        // Deterministic ordering for the WAL and COW captures.
        let mut writes: Vec<(PageId, SharedPage)> = txn.writes.drain().collect();
        writes.sort_by_key(|(pid, _)| *pid);

        // The write lock is held across capture + publish so readers see
        // the commit atomically. Capture first (it reads pre-states).
        let mut pages_guard = self.pages.write();
        let mut new_pages: Published = (**pages_guard).clone();
        // An error returns with `txn` unfinished, so dropping it releases
        // the writer.
        for (pid, _) in &writes {
            pre_capture(*pid, new_pages.pages.get(pid.index()))?;
        }
        if let Some(wal) = &self.wal {
            let start = wal.len();
            let logged = writes
                .iter()
                .try_for_each(|(pid, page)| wal.log_write(txn_id, *pid, page))
                .and_then(|()| wal.log_commit(txn_id, snapshot));
            if let Err(e) = logged {
                // Records of a transaction that never committed would be
                // taken for the next one's by a segment reader
                // (`next_committed_segment`): remove them. Should the cut
                // fail too, recovery still skips them (no commit record).
                let _ = wal.truncate(start);
                return Err(e);
            }
        }
        for (pid, page) in writes {
            if pid.index() >= new_pages.pages.len() {
                let blank = Arc::new(Page::zeroed(self.config.page_size));
                new_pages.pages.resize(pid.index() + 1, blank);
                new_pages.stamps.resize(pid.index() + 1, txn_id);
            }
            new_pages.pages[pid.index()] = page;
            new_pages.stamps[pid.index()] = txn_id;
            self.stats.count_page_written();
        }
        *pages_guard = Arc::new(new_pages);
        drop(pages_guard);
        txn.finished = true;
        self.writer_active.store(false, Ordering::Release);
        Ok(txn_id)
    }

    /// Force the WAL to stable storage (no-op without a WAL).
    pub fn sync_wal(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Discard a transaction without publishing anything.
    pub fn abort(&self, mut txn: WriteTxn) {
        txn.finished = true;
        self.writer_active.store(false, Ordering::Release);
    }

    fn release_writer(&self) {
        self.writer_active.store(false, Ordering::Release);
    }
}

/// An immutable, pinned view of the database page table.
///
/// Cloning is cheap (one `Arc` bump). Snapshot queries resolve pages not
/// found in their SPT through a view pinned at SPT-build time, so a
/// concurrent writer can never change what the query sees.
#[derive(Clone)]
pub struct DbView {
    pages: Arc<Published>,
    stats: Arc<IoStats>,
}

impl DbView {
    /// Read a page from the pinned view.
    pub fn page(&self, pid: PageId) -> Result<SharedPage> {
        let page = (self.pages.pages)
            .get(pid.index())
            .cloned()
            .ok_or(StoreError::PageOutOfBounds(pid))?;
        self.stats.count_db_read();
        Ok(page)
    }

    /// Number of pages in the view.
    pub fn page_count(&self) -> u64 {
        self.pages.pages.len() as u64
    }

    /// The id of the transaction that published the view's image of
    /// `pid` (0 for an image recovery restored), without reading the
    /// page: with the page id it names that exact image for as long as
    /// the store stays open.
    pub fn stamp(&self, pid: PageId) -> Option<u64> {
        self.pages.stamps.get(pid.index()).copied()
    }
}

/// A write transaction: a private write set over the current state.
///
/// The write set maps each page the transaction has changed to its
/// staged image, held as a [`SharedPage`] like the published ones:
/// reading a staged page is an `Arc` clone, and commit publishes the
/// staged `Arc`s as they are. A page enters the write set when it is
/// allocated, replaced whole ([`WriteTxn::write_page`]) or first edited
/// ([`WriteTxn::page_mut`], which copies the published image once;
/// published pages are never written through).
///
/// What the write set holds is what commit logs to the WAL, hands to
/// copy-on-write capture and summarizes into sidecars, so callers take
/// [`WriteTxn::page_mut`] only once an edit is known to succeed.
pub struct WriteTxn {
    pager: Arc<Pager>,
    txn_id: u64,
    writes: HashMap<PageId, SharedPage>,
    base_count: u64,
    alloc_count: u64,
    finished: bool,
}

impl WriteTxn {
    /// This transaction's id.
    pub fn id(&self) -> u64 {
        self.txn_id
    }

    /// Read a page: the transaction's own write if present, else the
    /// current state (counted as a database read).
    pub fn read_page(&self, pid: PageId) -> Result<SharedPage> {
        if let Some(p) = self.writes.get(&pid) {
            return Ok(Arc::clone(p));
        }
        if pid.0 >= self.base_count + self.alloc_count {
            return Err(StoreError::PageOutOfBounds(pid));
        }
        if pid.0 >= self.base_count {
            // Allocated this txn but never written: zeroed.
            return Ok(Arc::new(Page::zeroed(self.pager.config.page_size)));
        }
        self.pager.read_page(pid)
    }

    /// Stage a whole page image, replacing whatever was staged.
    pub fn write_page(&mut self, pid: PageId, page: Page) -> Result<()> {
        debug_assert_eq!(page.size(), self.pager.config.page_size);
        if pid.0 >= self.base_count + self.alloc_count {
            return Err(StoreError::PageOutOfBounds(pid));
        }
        self.writes.insert(pid, Arc::new(page));
        Ok(())
    }

    /// The staged image of `pid`, to edit in place. The first call for a
    /// page in this transaction copies its current image into the write
    /// set; later calls edit that copy. Callers read a page before
    /// deciding to edit it, so the copy is not counted as a second
    /// database read.
    pub fn page_mut(&mut self, pid: PageId) -> Result<&mut Page> {
        let staged = match self.writes.entry(pid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // Allocated pages are staged at allocation, so a page not
                // in the write set is either published or out of bounds.
                let current = self.pager.pages.read().pages.get(pid.index()).cloned();
                e.insert(current.ok_or(StoreError::PageOutOfBounds(pid))?)
            }
        };
        Ok(Arc::make_mut(staged))
    }

    /// Allocate a fresh (zeroed) page at the end of the database.
    pub fn allocate_page(&mut self) -> PageId {
        let pid = PageId(self.base_count + self.alloc_count);
        self.alloc_count += 1;
        self.writes
            .insert(pid, Arc::new(Page::zeroed(self.pager.config.page_size)));
        pid
    }

    /// Page count as seen by this transaction (including its allocations).
    pub fn page_count(&self) -> u64 {
        self.base_count + self.alloc_count
    }

    /// Number of distinct pages staged for write.
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }

    /// Iterate the staged writes (page id + post-image), in no particular
    /// order. Lets layered stores derive per-page metadata (e.g. pruning
    /// sidecars) from the exact images about to be published.
    pub fn staged_pages(&self) -> impl Iterator<Item = (PageId, &Page)> {
        self.writes.iter().map(|(pid, page)| (*pid, &**page))
    }

    /// Whether the transaction staged or allocated `pid`.
    pub fn touched(&self, pid: PageId) -> bool {
        self.writes.contains_key(&pid) || pid.0 >= self.base_count
    }

    /// The stamp ([`DbView::stamp`]) of the published image this
    /// transaction reads for `pid`, or `None` for a page it staged or
    /// allocated: only an untouched page still reads a published image,
    /// so only its published metadata (a pruning sidecar, say) describes
    /// what this transaction reads. Nothing publishes while the
    /// transaction holds the writer token, so the stamp stays valid.
    pub fn stamp(&self, pid: PageId) -> Option<u64> {
        if self.touched(pid) {
            return None;
        }
        self.pager.pages.read().stamps.get(pid.index()).copied()
    }

    /// Whether the transaction has staged any writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        if !self.finished {
            // Abort on drop: release the single-writer token.
            self.pager.release_writer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn small_config() -> PagerConfig {
        PagerConfig {
            page_size: 64,
            cache_capacity: 16,
            wal_sync_on_commit: false,
        }
    }

    fn commit_noop(pager: &Pager, txn: WriteTxn) -> u64 {
        pager.commit(txn, None, |_, _| Ok(())).unwrap()
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let pager = Arc::new(Pager::new(small_config()));
        let mut txn = pager.begin_write().unwrap();
        let pid = txn.allocate_page();
        txn.page_mut(pid).unwrap().write_u32(0, 42);
        commit_noop(&pager, txn);
        assert_eq!(pager.page_count(), 1);
        assert_eq!(pager.read_page(pid).unwrap().read_u32(0), 42);
    }

    #[test]
    fn single_writer_enforced() {
        let pager = Arc::new(Pager::new(small_config()));
        let txn = pager.begin_write().unwrap();
        let err = pager.begin_write().map(|_| ()).unwrap_err();
        assert!(matches!(err, StoreError::WriterBusy));
        pager.abort(txn);
        // Released after abort.
        let txn2 = pager.begin_write().unwrap();
        pager.abort(txn2);
    }

    #[test]
    fn dropping_txn_releases_writer() {
        let pager = Arc::new(Pager::new(small_config()));
        {
            let _txn = pager.begin_write().unwrap();
        }
        let txn = pager.begin_write().unwrap();
        pager.abort(txn);
    }

    #[test]
    fn view_is_immutable_under_writes() {
        let pager = Arc::new(Pager::new(small_config()));
        let mut txn = pager.begin_write().unwrap();
        let pid = txn.allocate_page();
        txn.page_mut(pid).unwrap().write_u32(0, 1);
        commit_noop(&pager, txn);

        let view = pager.view();
        assert_eq!(view.page(pid).unwrap().read_u32(0), 1);

        let mut txn = pager.begin_write().unwrap();
        txn.page_mut(pid).unwrap().write_u32(0, 2);
        commit_noop(&pager, txn);

        // Pinned view still sees the old value; fresh reads see the new.
        assert_eq!(view.page(pid).unwrap().read_u32(0), 1);
        assert_eq!(pager.read_page(pid).unwrap().read_u32(0), 2);
    }

    /// A stamp names one published image: a commit that rewrites the page
    /// changes it, a pinned view keeps the one it saw, and a reopen
    /// restores every image under 0.
    #[test]
    fn stamps_name_the_published_image() {
        let storage: Arc<MemStorage> = Arc::new(MemStorage::new());
        let (pager, _) = Pager::open_with_wal(small_config(), storage.clone()).unwrap();
        let pager = Arc::new(pager);
        let mut txn = pager.begin_write().unwrap();
        let (a, b) = (txn.allocate_page(), txn.allocate_page());
        let first = commit_noop(&pager, txn);
        let view = pager.view();
        let mut txn = pager.begin_write().unwrap();
        txn.page_mut(a).unwrap().write_u32(0, 1);
        let second = commit_noop(&pager, txn);
        assert_ne!(first, second);
        assert_eq!((view.stamp(a), view.stamp(b)), (Some(first), Some(first)));
        let now = pager.view();
        assert_eq!((now.stamp(a), now.stamp(b)), (Some(second), Some(first)));
        assert_eq!(now.stamp(PageId(2)), None);
        pager.stats().reset();
        now.stamp(a);
        assert_eq!(
            pager.stats().snapshot().db_reads,
            0,
            "a stamp is not a read"
        );
        drop((view, now, pager));
        let (pager, _) = Pager::open_with_wal(small_config(), storage).unwrap();
        assert_eq!(pager.view().stamp(a), Some(0));
    }

    #[test]
    fn pre_capture_sees_pre_state() {
        let pager = Arc::new(Pager::new(small_config()));
        let mut txn = pager.begin_write().unwrap();
        let pid = txn.allocate_page();
        txn.page_mut(pid).unwrap().write_u32(0, 7);
        let mut captured_new = false;
        pager
            .commit(txn, None, |p, pre| {
                assert_eq!(p, pid);
                assert!(pre.is_none(), "freshly allocated page has no pre-state");
                captured_new = true;
                Ok(())
            })
            .unwrap();
        assert!(captured_new);

        let mut txn = pager.begin_write().unwrap();
        txn.page_mut(pid).unwrap().write_u32(0, 8);
        let mut captured_pre = None;
        pager
            .commit(txn, None, |_, pre| {
                captured_pre = Some(pre.unwrap().read_u32(0));
                Ok(())
            })
            .unwrap();
        assert_eq!(captured_pre, Some(7));
    }

    #[test]
    fn txn_reads_its_own_writes() {
        let pager = Arc::new(Pager::new(small_config()));
        let mut txn = pager.begin_write().unwrap();
        let pid = txn.allocate_page();
        txn.page_mut(pid).unwrap().write_u32(0, 5);
        assert_eq!(txn.read_page(pid).unwrap().read_u32(0), 5);
        assert_eq!(txn.page_count(), 1);
        assert_eq!(txn.write_set_len(), 1);
        pager.abort(txn);
        // Aborted: nothing published.
        assert_eq!(pager.page_count(), 0);
    }

    #[test]
    fn touched_means_staged_or_allocated() {
        let pager = Arc::new(Pager::new(small_config()));
        let mut txn = pager.begin_write().unwrap();
        let (a, b) = (txn.allocate_page(), txn.allocate_page());
        commit_noop(&pager, txn);
        let mut txn = pager.begin_write().unwrap();
        txn.read_page(a).unwrap();
        assert!(!txn.touched(a), "a read stages nothing");
        txn.page_mut(a).unwrap().write_u32(0, 1);
        let c = txn.allocate_page();
        assert!(txn.touched(a) && !txn.touched(b) && txn.touched(c));
        pager.abort(txn);
    }

    #[test]
    fn out_of_bounds_reads_rejected() {
        let pager = Arc::new(Pager::new(small_config()));
        assert!(pager.read_page(PageId(0)).is_err());
        let txn = pager.begin_write().unwrap();
        assert!(txn.read_page(PageId(9)).is_err());
        pager.abort(txn);
    }

    #[test]
    fn wal_recovery_restores_pages_and_snapshots() {
        let storage: Arc<MemStorage> = Arc::new(MemStorage::new());
        let (pager, snaps) = Pager::open_with_wal(small_config(), storage.clone()).unwrap();
        assert!(snaps.is_empty());
        let pager = Arc::new(pager);
        let mut txn = pager.begin_write().unwrap();
        let pid = txn.allocate_page();
        txn.page_mut(pid).unwrap().write_u64(0, 99);
        pager.commit(txn, Some(1), |_, _| Ok(())).unwrap();

        // "Crash" and reopen from the same WAL storage.
        drop(pager);
        let (pager2, snaps) = Pager::open_with_wal(small_config(), storage).unwrap();
        assert_eq!(snaps, vec![1]);
        assert_eq!(pager2.page_count(), 1);
        assert_eq!(pager2.read_page(pid).unwrap().read_u64(0), 99);
    }

    #[test]
    fn stats_count_db_reads() {
        let pager = Arc::new(Pager::new(small_config()));
        let mut txn = pager.begin_write().unwrap();
        let pid = txn.allocate_page();
        txn.write_page(pid, Page::zeroed(64)).unwrap();
        commit_noop(&pager, txn);
        pager.stats().reset();
        pager.read_page(pid).unwrap();
        pager.view().page(pid).unwrap();
        let snap = pager.stats().snapshot();
        assert_eq!(snap.db_reads, 2);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;

    /// Readers pin views while a writer churns: every view must be
    /// internally consistent (all pages from one committed generation).
    #[test]
    fn concurrent_views_are_generation_consistent() {
        let pager = Arc::new(Pager::new(PagerConfig {
            page_size: 64,
            cache_capacity: 16,
            wal_sync_on_commit: false,
        }));
        // Initialize 8 pages all holding generation 0.
        let mut txn = pager.begin_write().unwrap();
        for _ in 0..8 {
            let pid = txn.allocate_page();
            txn.page_mut(pid).unwrap().write_u64(0, 0);
        }
        pager.commit(txn, None, |_, _| Ok(())).unwrap();

        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let done = &done;
            for _ in 0..4 {
                let pager = Arc::clone(&pager);
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let view = pager.view();
                        let g0 = view.page(PageId(0)).unwrap().read_u64(0);
                        for p in 1..8 {
                            let g = view.page(PageId(p)).unwrap().read_u64(0);
                            assert_eq!(g, g0, "torn view: page {p}");
                        }
                    }
                });
            }
            // Writer: bump every page to the next generation per commit.
            for generation in 1..=200u64 {
                let mut txn = pager.begin_write().unwrap();
                for p in 0..8 {
                    let pid = PageId(p);
                    txn.page_mut(pid).unwrap().write_u64(0, generation);
                }
                pager.commit(txn, None, |_, _| Ok(())).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
    }

    /// Hammer begin_write from many threads: exactly one holds the token
    /// at a time, and every failure is WriterBusy (no deadlock, no panic).
    #[test]
    fn writer_token_under_contention() {
        let pager = Arc::new(Pager::new(PagerConfig {
            page_size: 64,
            cache_capacity: 4,
            wal_sync_on_commit: false,
        }));
        let successes = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            let successes = &successes;
            for _ in 0..8 {
                let pager = Arc::clone(&pager);
                scope.spawn(move || {
                    for _ in 0..200 {
                        match pager.begin_write() {
                            Ok(mut txn) => {
                                let pid = txn.allocate_page();
                                txn.write_page(pid, Page::zeroed(64)).unwrap();
                                pager.commit(txn, None, |_, _| Ok(())).unwrap();
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(StoreError::WriterBusy) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        // Every successful commit allocated exactly one page.
        assert_eq!(pager.page_count(), successes.load(Ordering::Relaxed));
    }
}
