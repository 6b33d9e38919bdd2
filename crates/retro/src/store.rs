//! `RetroStore`: the snapshot system assembled over the page store.
//!
//! Retro "is implemented as a small set of modular extensions to the
//! Berkeley DB transactional storage manager. The extensions interpose on
//! transaction commit, page flush, page fetch and recovery operations"
//! (paper §4). This module is those extensions:
//!
//! * **commit** — the pre-state of every page modified for the first time
//!   since the latest snapshot declaration is archived to the Pagelog and
//!   indexed in the Maplog (copy-on-write capture);
//! * **flush** — Pagelog appends are buffered and synced in groups;
//! * **fetch** — [`crate::snapshot::SnapshotReader`] routes
//!   page requests through the SPT to the Pagelog/cache, or through a
//!   pinned MVCC view for pages shared with the current state;
//! * **recovery** — the WAL restores the current state and the snapshot id
//!   sequence; the persisted Maplog and the Pagelog restore the archive
//!   index.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use rql_pagestore::{
    BufferCache, CommittedSegment, DbView, IoStats, LogStorage, Pager, PagerConfig, Result,
    StoreError, WriteTxn,
};

use crate::maplog::Maplog;
use crate::pagelog::{Pagelog, PagelogFormat};
use crate::snapshot::{SnapshotMeta, SnapshotReader};
use crate::spt::{Spt, SptBuildStats};

/// Retro configuration.
#[derive(Debug, Clone, Default)]
pub struct RetroConfig {
    /// Underlying pager configuration.
    pub pager: PagerConfig,
    /// Build SPTs through the Skippy skip levels (`true`, Retro's
    /// behaviour) or by linear Maplog scan (ablation baseline).
    pub use_skippy: bool,
    /// Not read: the Pagelog always archives full page images. Kept only
    /// because the repo benchmark names `PagelogFormat::Raw`; the next
    /// change to the benchmark deletes it and the enum.
    pub pagelog_format: PagelogFormat,
}

impl RetroConfig {
    /// Default configuration with Skippy enabled.
    pub fn new() -> Self {
        RetroConfig {
            pager: PagerConfig::default(),
            use_skippy: true,
            pagelog_format: PagelogFormat::Raw,
        }
    }
}

/// Builds an encoded pruning sidecar for a page image over the store's
/// filter-column union (the third argument), or `None` when the page
/// cannot be summarized. Injected by the SQL layer, which owns the record
/// format; `retro` only versions the opaque bytes alongside the COW
/// pre-states.
pub type SidecarBuilder = Arc<
    dyn Fn(rql_pagestore::PageId, &rql_pagestore::Page, &[usize]) -> Option<Vec<u8>> + Send + Sync,
>;

/// Sidecars for one consistent set of current-page images, shared with
/// snapshot readers by `Arc` swap.
pub type SidecarMap = Arc<HashMap<u64, Arc<Vec<u8>>>>;

/// Sidecars of archived pre-states by Pagelog offset, each with the
/// filter-set generation it was built at.
type SidecarArchive = HashMap<u64, (u64, Arc<Vec<u8>>)>;

/// The store's pruning filter columns: per table, the columns sidecars
/// summarize so scans of that table can refute pages. There is one set
/// per store, however many SQL facades share it, because the builder it
/// drives is one per store.
#[derive(Debug, Clone, Default)]
struct FilterSet {
    /// Lowercase table name → its columns.
    tables: HashMap<String, FilterCols>,
    /// Every table's columns, sorted and deduplicated: the builder sees
    /// bare page images, not tables, so it summarizes all of them.
    union: Arc<Vec<usize>>,
    /// Bumped whenever `union` changes. Archived sidecars record the
    /// generation they were built at, and an older one is rebuilt.
    generation: u64,
}

/// One table's filter columns.
#[derive(Debug, Clone, Default)]
struct FilterCols {
    /// Table-local column indices, sorted, deduplicated.
    cols: Vec<usize>,
    /// Declared: auto-inference leaves the table alone.
    declared: bool,
}

impl FilterSet {
    /// Whether folding `cols` into `table`'s columns would change nothing.
    fn covers(&self, table: &str, cols: &[usize]) -> bool {
        self.tables
            .get(table)
            .is_some_and(|f| f.declared || cols.iter().all(|c| f.cols.contains(c)))
    }

    /// Fold `cols` into `table`'s columns — or, with `declare`, replace
    /// and freeze them — and bump the generation if the union changed.
    /// Returns whether anything changed.
    fn apply(&mut self, table: &str, cols: &[usize], declare: bool) -> bool {
        let entry = self.tables.entry(table.to_owned()).or_default();
        if entry.declared && !declare {
            return false;
        }
        let mut want = if declare {
            Vec::new()
        } else {
            entry.cols.clone()
        };
        want.extend_from_slice(cols);
        want.sort_unstable();
        want.dedup();
        if entry.cols == want && entry.declared == declare {
            return false;
        }
        *entry = FilterCols {
            cols: want,
            declared: declare,
        };
        let mut union: Vec<usize> = self
            .tables
            .values()
            .flat_map(|f| f.cols.iter().copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        if *self.union != union {
            self.union = Arc::new(union);
            self.generation += 1;
        }
        true
    }
}

/// The snapshot system.
pub struct RetroStore {
    config: RetroConfig,
    /// Identity of this open of the store (see [`RetroStore::incarnation`]).
    incarnation: u64,
    pager: Arc<Pager>,
    pagelog: Pagelog,
    maplog: RwLock<Maplog>,
    /// Pages already archived since the latest snapshot declaration
    /// (their pre-state for that snapshot is on the Pagelog; later
    /// modifications need no further capture).
    dirty_since_snapshot: Mutex<HashSet<rql_pagestore::PageId>>,
    metas: RwLock<Vec<SnapshotMeta>>,
    /// Pruning sidecars describing the *latest published* page images,
    /// keyed by page id. A commit removes its written pages before
    /// publishing and re-inserts fresh entries after, so any map a
    /// reader captures only ever describes pages it can actually see —
    /// a missing entry just means "no pruning" (a counted full read).
    current_sidecars: RwLock<SidecarMap>,
    /// Sidecars for archived pre-states, keyed by Pagelog offset — the
    /// same address an SPT resolves the page through, so an `AS OF`
    /// view always pairs a page version with the sidecar built from it —
    /// each with the filter-set generation it was built at.
    sidecar_archive: Mutex<SidecarArchive>,
    /// `None` until the SQL layer first learns filter columns; sidecar
    /// maintenance is free when pruning is unused.
    sidecar_builder: RwLock<Option<SidecarBuilder>>,
    /// What the builder summarizes. Changed only under `commit_serial`,
    /// together with the current map, so every current entry was built
    /// from the union a commit reads.
    filters: RwLock<FilterSet>,
    /// Observers notified after every snapshot declaration, once the
    /// snapshot is fully published (metas pushed, all commit-path locks
    /// released) — a hook may immediately open the snapshot it is told
    /// about. Hooks run synchronously on the committing thread, in
    /// registration order; the standing-query engine uses this to
    /// maintain registered result tables per commit.
    snapshot_hooks: RwLock<Vec<SnapshotHook>>,
    /// Serializes whole commits: the pager's writer token is released
    /// inside `Pager::commit`, so without this a second commit could
    /// interleave between one commit's page publish and its Maplog
    /// declaration. Held across the full commit body (publish + archive
    /// appends + declaration), released before hooks fire, and taken by
    /// [`RetroStore::repl_checkpoint`] to cut a mutually consistent
    /// prefix of the three logs.
    commit_serial: Mutex<()>,
    /// Observers notified after *every* commit (declaring or not), with
    /// all commit-path locks released. The replication leader registers
    /// one to learn that the WAL has grown.
    commit_hooks: RwLock<Vec<CommitHook>>,
    /// The raw log storages behind a durably opened store
    /// ([`RetroStore::open`]); the replication layer reads segments and
    /// seed bytes straight from these. `None` for in-memory stores.
    logs: Option<ReplLogs>,
}

/// A snapshot-declaration observer (see [`RetroStore::add_snapshot_hook`]).
pub type SnapshotHook = Arc<dyn Fn(u64) + Send + Sync>;

/// A commit observer (see [`RetroStore::add_commit_hook`]).
pub type CommitHook = Arc<dyn Fn() + Send + Sync>;

/// The three durable log storages behind an open store, in the form the
/// replication layer ships them: raw append-only byte logs.
#[derive(Clone)]
pub struct ReplLogs {
    /// The redo WAL (the replication log: committed segments are parsed
    /// straight off it).
    pub wal: Arc<dyn LogStorage>,
    /// The Pagelog pre-state archive.
    pub pagelog: Arc<dyn LogStorage>,
    /// The persisted Maplog.
    pub maplog: Arc<dyn LogStorage>,
}

/// A mutually consistent cut of the three logs, taken with no commit in
/// flight — what a seeding leader copies to a new follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplCheckpoint {
    /// WAL bytes at the cut (a committed-record boundary).
    pub wal_len: u64,
    /// Pagelog bytes at the cut.
    pub pagelog_len: u64,
    /// Maplog bytes at the cut.
    pub maplog_len: u64,
    /// Snapshots declared at the cut.
    pub snapshot_count: u64,
}

impl RetroStore {
    /// Ephemeral store: memory-backed Pagelog, no WAL, no Maplog
    /// persistence. The workhorse for tests and deterministic benchmarks.
    pub fn in_memory(config: RetroConfig) -> Arc<Self> {
        let page_size = config.pager.page_size;
        let pager = Arc::new(Pager::new(config.pager.clone()));
        Arc::new(RetroStore {
            config,
            incarnation: next_incarnation(),
            pager,
            pagelog: Pagelog::new(Arc::new(rql_pagestore::MemStorage::new()), page_size),
            maplog: RwLock::new(Maplog::new()),
            dirty_since_snapshot: Mutex::new(HashSet::new()),
            metas: RwLock::new(Vec::new()),
            current_sidecars: RwLock::new(Arc::new(HashMap::new())),
            sidecar_archive: Mutex::new(HashMap::new()),
            sidecar_builder: RwLock::new(None),
            filters: RwLock::new(FilterSet::default()),
            snapshot_hooks: RwLock::new(Vec::new()),
            commit_serial: Mutex::new(()),
            commit_hooks: RwLock::new(Vec::new()),
            logs: None,
        })
    }

    /// Durable store over explicit storages, replaying WAL and Maplog.
    ///
    /// After a crash the WAL restores the committed current state and the
    /// declared snapshot sequence, and the persisted Maplog + Pagelog
    /// restore the archive index, so previously declared snapshots remain
    /// queryable.
    pub fn open(
        config: RetroConfig,
        wal_storage: Arc<dyn LogStorage>,
        pagelog_storage: Arc<dyn LogStorage>,
        maplog_storage: Arc<dyn LogStorage>,
    ) -> Result<Arc<Self>> {
        let page_size = config.pager.page_size;
        reconcile_logs(wal_storage.as_ref(), maplog_storage.as_ref())?;
        let (pager, recovered_snaps) =
            Pager::open_with_wal(config.pager.clone(), Arc::clone(&wal_storage))?;
        let pager = Arc::new(pager);
        let maplog = Maplog::open(Arc::clone(&maplog_storage))?;
        if maplog.snapshot_count() != recovered_snaps.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "maplog has {} snapshots but WAL recovered {}",
                maplog.snapshot_count(),
                recovered_snaps.len()
            )));
        }
        let metas = recovered_snaps
            .iter()
            .map(|&id| {
                let b = maplog.boundary(id).ok_or_else(|| {
                    StoreError::Corrupt(format!("no maplog boundary for snapshot {id}"))
                })?;
                Ok(SnapshotMeta {
                    id,
                    page_count: b.page_count,
                    txn_id: 0, // original txn id not tracked across recovery
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let logs = ReplLogs {
            wal: wal_storage,
            pagelog: Arc::clone(&pagelog_storage),
            maplog: maplog_storage,
        };
        Ok(Arc::new(RetroStore {
            config,
            incarnation: next_incarnation(),
            pager,
            pagelog: Pagelog::new(pagelog_storage, page_size),
            maplog: RwLock::new(maplog),
            // Conservative: after recovery, re-archive on next modification.
            dirty_since_snapshot: Mutex::new(HashSet::new()),
            metas: RwLock::new(metas),
            // Sidecar state is in-memory: recovery starts with none (absent
            // is always safe — scans just don't prune), and so does the
            // filter set. The SQL layer's first filter columns rebuild
            // both maps: current entries from the current pages, archive
            // entries from the Maplog + Pagelog.
            current_sidecars: RwLock::new(Arc::new(HashMap::new())),
            sidecar_archive: Mutex::new(HashMap::new()),
            sidecar_builder: RwLock::new(None),
            filters: RwLock::new(FilterSet::default()),
            snapshot_hooks: RwLock::new(Vec::new()),
            commit_serial: Mutex::new(()),
            commit_hooks: RwLock::new(Vec::new()),
            logs: Some(logs),
        }))
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &RetroConfig {
        &self.config
    }

    /// A number drawn afresh every time a store is created or opened,
    /// unique across stores and processes with overwhelming probability.
    /// Snapshot ids restart at 1 in every store, and a reopened store may
    /// re-declare an id whose first declaration was lost with an unsynced
    /// tail; anything cached outside the store about "snapshot `sid`" must
    /// therefore be tagged with the incarnation it was derived under.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The underlying pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        self.pager.stats()
    }

    /// Shared buffer cache.
    pub fn cache(&self) -> &Arc<BufferCache> {
        self.pager.cache()
    }

    /// The Pagelog archive.
    pub fn pagelog(&self) -> &Pagelog {
        &self.pagelog
    }

    /// Begin a write transaction.
    pub fn begin(self: &Arc<Self>) -> Result<WriteTxn> {
        self.pager.begin_write()
    }

    /// Commit without declaring a snapshot.
    pub fn commit(&self, txn: WriteTxn) -> Result<()> {
        self.commit_inner(txn, false).map(|_| ())
    }

    /// `COMMIT WITH SNAPSHOT`: commit and declare a snapshot reflecting
    /// this transaction and everything committed before it. Returns the
    /// new snapshot id.
    pub fn commit_with_snapshot(&self, txn: WriteTxn) -> Result<u64> {
        self.commit_inner(txn, true)?
            .ok_or_else(|| StoreError::Corrupt("declaring commit declared no snapshot".into()))
    }

    /// Abort a transaction.
    pub fn abort(&self, txn: WriteTxn) {
        self.pager.abort(txn);
    }

    fn commit_inner(&self, txn: WriteTxn, declare: bool) -> Result<Option<u64>> {
        // The span covers the post-commit hooks too, so standing-query
        // maintenance and pushes nest inside the commit that caused
        // them; its arg (the txn id) travels in replication frames to
        // link follower `repl_apply` spans back to this commit.
        let _span = rql_trace::span_arg(rql_trace::SpanId::Commit, txn.id());
        let declared = {
            let _serial = self.commit_serial.lock();
            self.commit_locked(txn, declare)?
        };
        if let Some(sid) = declared {
            // The snapshot is fully published and every commit-path lock
            // is released: observers may open snapshot `sid` right away.
            let hooks = self.snapshot_hooks.read().clone();
            for hook in hooks {
                hook(sid);
            }
        }
        let hooks = self.commit_hooks.read().clone();
        for hook in hooks {
            hook();
        }
        Ok(declared)
    }

    /// The commit body, run under `commit_serial` so the page publish and
    /// all log appends of one commit land before any part of the next.
    fn commit_locked(&self, txn: WriteTxn, declare: bool) -> Result<Option<u64>> {
        let latest_page_count: Option<u64> = self.metas.read().last().map(|m| m.page_count);
        let stats = self.pager.stats().clone();
        let txn_id = txn.id();
        // Sidecar maintenance, phase 1: invalidate-before-publish.
        // Build fresh sidecars from the exact images about to land, then
        // remove this commit's pages from the current map *before* the
        // pager publishes — a reader racing the commit sees no entry and
        // falls back to a full read. The entries displaced here describe
        // the pre-states this commit may archive; `pre_capture` moves
        // them to the Pagelog-offset-keyed archive below, tagged with the
        // filter generation every current entry was built at.
        let builder = self.sidecar_builder.read().clone();
        let (union, generation) = {
            let filters = self.filters.read();
            (Arc::clone(&filters.union), filters.generation)
        };
        let written: Vec<rql_pagestore::PageId> = txn.staged_pages().map(|(pid, _)| pid).collect();
        let mut fresh: HashMap<u64, Arc<Vec<u8>>> = HashMap::new();
        if let Some(builder) = &builder {
            for (pid, page) in txn.staged_pages() {
                if let Some(bytes) = builder(pid, page, &union) {
                    stats.count_sidecar_bytes(bytes.len() as u64);
                    fresh.insert(pid.0, Arc::new(bytes));
                }
            }
        }
        let displaced: HashMap<u64, Arc<Vec<u8>>> = {
            let mut map = self.current_sidecars.write();
            let mut displaced = HashMap::new();
            if !map.is_empty() {
                let mut next = (**map).clone();
                for pid in &written {
                    if let Some(old) = next.remove(&pid.0) {
                        displaced.insert(pid.0, old);
                    }
                }
                if !displaced.is_empty() {
                    *map = Arc::new(next);
                }
            }
            displaced
        };
        // COW capture runs inside the pager's commit critical section, so
        // the archive and the published state change atomically with
        // respect to writers (readers pin views and never block).
        let snapshot_id = if declare {
            Some(self.metas.read().len() as u64 + 1)
        } else {
            None
        };
        self.pager.commit(txn, snapshot_id, |pid, pre| {
            let Some(limit) = latest_page_count else {
                return Ok(()); // no snapshot declared yet: nothing to keep
            };
            if pid.0 >= limit {
                return Ok(()); // page allocated after the latest snapshot
            }
            let Some(pre_page) = pre else {
                return Ok(());
            };
            let mut dirty = self.dirty_since_snapshot.lock();
            if !dirty.insert(pid) {
                return Ok(()); // already archived for the latest snapshot
            }
            drop(dirty);
            let off = self.pagelog.append(pre_page)?;
            self.maplog.write().append_mapping(pid, off)?;
            // Sidecar maintenance, phase 2: the entry displaced from the
            // current map described exactly this pre-state image; key it
            // by the Pagelog offset the SPT will resolve the page
            // through. No entry (builder off, unbuildable page) is fine —
            // snapshot scans of this version just won't prune it.
            if let Some(side) = displaced.get(&pid.0) {
                self.sidecar_archive
                    .lock()
                    .insert(off, (generation, Arc::clone(side)));
            }
            stats.count_cow_capture();
            Ok(())
        })?;
        // Sidecar maintenance, phase 3: now that the pages are
        // published, make the map authoritative for every written page —
        // insert the fresh entry or remove whatever is there.
        {
            let mut map = self.current_sidecars.write();
            if !fresh.is_empty() || !map.is_empty() {
                let mut next = (**map).clone();
                let mut changed = false;
                for pid in &written {
                    match fresh.remove(&pid.0) {
                        Some(side) => {
                            next.insert(pid.0, side);
                            changed = true;
                        }
                        None => changed |= next.remove(&pid.0).is_some(),
                    }
                }
                if changed {
                    *map = Arc::new(next);
                }
            }
        }
        if let Some(sid) = snapshot_id {
            let page_count = self.pager.page_count();
            self.maplog.write().declare_snapshot(sid, page_count)?;
            self.dirty_since_snapshot.lock().clear();
            self.metas.write().push(SnapshotMeta {
                id: sid,
                page_count,
                txn_id,
            });
            return Ok(Some(sid));
        }
        Ok(None)
    }

    /// Register an observer called with the snapshot id after every
    /// snapshot declaration (see the `snapshot_hooks` field for the
    /// exact timing contract). Hooks cannot be removed individually;
    /// long-lived observers should consult their own registry and treat
    /// unknown or stale ids as no-ops.
    pub fn add_snapshot_hook(&self, hook: SnapshotHook) {
        self.snapshot_hooks.write().push(hook);
    }

    /// Register an observer called after *every* successful commit
    /// (snapshot-declaring or not), with all commit-path locks released.
    /// The replication leader registers one to wake its segment shippers;
    /// hooks carry no payload — observers read [`RetroStore::wal_len`]
    /// themselves, which is order-insensitive even if two commits' hook
    /// runs interleave.
    pub fn add_commit_hook(&self, hook: CommitHook) {
        self.commit_hooks.write().push(hook);
    }

    /// The raw log storages behind a durably opened store, for the
    /// replication layer (`None` when in-memory).
    pub fn repl_logs(&self) -> Option<ReplLogs> {
        self.logs.clone()
    }

    /// Bytes on the WAL (0 without a WAL). Between commits this is always
    /// a committed-record boundary.
    pub fn wal_len(&self) -> u64 {
        self.pager.wal_len()
    }

    /// Cut a mutually consistent prefix of the three logs: takes the
    /// commit serialization lock (so no commit is mid-flight), flushes
    /// everything durable, and returns the three lengths. Because the
    /// logs are append-only, the returned prefix is immutable and can be
    /// copied to a seeding follower without holding any lock.
    pub fn repl_checkpoint(&self) -> Result<ReplCheckpoint> {
        let logs = self
            .logs
            .as_ref()
            .ok_or_else(|| StoreError::Corrupt("replication requires a durable store".into()))?;
        let _serial = self.commit_serial.lock();
        self.flush()?;
        Ok(ReplCheckpoint {
            wal_len: logs.wal.len(),
            pagelog_len: logs.pagelog.len(),
            maplog_len: logs.maplog.len(),
            snapshot_count: self.snapshot_count(),
        })
    }

    /// Replay one committed leader segment on a follower store.
    ///
    /// The segment is committed under the leader's transaction id with
    /// the same page set, so the follower's WAL/Pagelog/Maplog stay
    /// byte-identical to the leader's — which is what lets a follower
    /// resume a stream by comparing raw WAL lengths. Returns the declared
    /// snapshot id, if any. Any divergence (offset mismatch before, id or
    /// length mismatch after) is reported as corruption; the caller
    /// should tear down and reseed.
    pub fn apply_replicated(self: &Arc<Self>, seg: &CommittedSegment) -> Result<Option<u64>> {
        let local = self.wal_len();
        if local != seg.start {
            return Err(StoreError::Corrupt(format!(
                "replicated segment starts at wal offset {} but local wal is at {}",
                seg.start, local
            )));
        }
        let mut txn = self.pager.begin_write_at(seg.txn_id)?;
        // Allocations are implied by out-of-bounds page ids: the pager
        // logs every allocated page (zeroed or not), so the segment's
        // max id is exactly the leader's post-commit page count - 1.
        let mut want = txn.page_count();
        for (pid, _) in &seg.pages {
            want = want.max(pid.0 + 1);
        }
        while txn.page_count() < want {
            txn.allocate_page();
        }
        for (pid, page) in &seg.pages {
            txn.write_page(*pid, page.clone())?;
        }
        let sid = self.commit_inner(txn, seg.snapshot.is_some())?;
        if sid != seg.snapshot {
            return Err(StoreError::Corrupt(format!(
                "replicated commit {} declared snapshot {:?} but leader declared {:?}",
                seg.txn_id, sid, seg.snapshot
            )));
        }
        let now = self.wal_len();
        if now != seg.end {
            return Err(StoreError::Corrupt(format!(
                "replicated apply diverged: local wal at {} but leader segment ends at {}",
                now, seg.end
            )));
        }
        Ok(sid)
    }

    /// Rebuild sidecars for archived pre-states from the Maplog + Pagelog.
    ///
    /// With a builder installed, this walks every Maplog mapping and
    /// rebuilds, from the archived page image, each sidecar that is
    /// missing — the archive is in-memory state, empty after recovery or
    /// a follower seed — or was built before the filter set last grew.
    /// Entries already at the current generation are skipped, so repeated
    /// calls only pay for what is missing or stale. Returns how many
    /// sidecars were built.
    pub fn rebuild_archived_sidecars(&self) -> Result<usize> {
        let Some(builder) = self.sidecar_builder.read().clone() else {
            return Ok(0);
        };
        let (union, generation) = {
            let filters = self.filters.read();
            (Arc::clone(&filters.union), filters.generation)
        };
        let is_current = |archive: &SidecarArchive, off: u64| {
            archive.get(&off).is_some_and(|(g, _)| *g >= generation)
        };
        let entries: Vec<(rql_pagestore::PageId, u64)> = self.maplog.read().entries();
        let stats = self.pager.stats().clone();
        let mut built = 0usize;
        for (pid, off) in entries {
            if is_current(&self.sidecar_archive.lock(), off) {
                continue;
            }
            let page = self.pagelog.read(off)?;
            if let Some(bytes) = builder(pid, &page, &union) {
                stats.count_sidecar_bytes(bytes.len() as u64);
                let mut archive = self.sidecar_archive.lock();
                // A racing rebuild of a newer generation wins.
                if !is_current(&archive, off) {
                    archive.insert(off, (generation, Arc::new(bytes)));
                    built += 1;
                }
            }
        }
        Ok(built)
    }

    /// Install the sidecar builder. From the next commit on, every
    /// staged page gets a sidecar built from its post-image; pages
    /// written before this call get one when the filter set next changes
    /// ([`RetroStore::add_filter_columns`]).
    pub fn set_sidecar_builder(&self, builder: SidecarBuilder) {
        *self.sidecar_builder.write() = Some(builder);
    }

    /// Whether a sidecar builder has been installed.
    pub fn sidecar_builder_active(&self) -> bool {
        self.sidecar_builder.read().is_some()
    }

    /// `table`'s filter columns (sorted table-local indices), or `None`
    /// when the table has no pruning configuration.
    pub fn filter_columns(&self, table: &str) -> Option<Vec<usize>> {
        let filters = self.filters.read();
        let cols = &filters.tables.get(&table.to_ascii_lowercase())?.cols;
        Some(cols.clone())
    }

    /// Fold `cols` into `table`'s filter columns — or, with `declare`,
    /// replace them and stop further folding — and, when that changes the
    /// set, re-summarize what the new set reaches: every current page
    /// `walk` hands over, and every archived page version when the column
    /// union changed ([`RetroStore::rebuild_archived_sidecars`]). Returns
    /// how many current pages were summarized.
    ///
    /// `walk(view, tables, page)` hands `page` every current page of the
    /// named tables (those with filter columns) in `view`; the SQL layer
    /// walks their heap chains. Commits wait while the current map is
    /// rebuilt, so the rebuild cannot lose a race with one: no commit can
    /// publish an image the new entries do not describe, or archive an
    /// entry built from the narrower set under the new generation. The
    /// new map replaces the old, so every current entry is built from the
    /// union commits read.
    pub fn add_filter_columns<E: From<StoreError>>(
        &self,
        table: &str,
        cols: &[usize],
        declare: bool,
        walk: impl FnOnce(
            &DbView,
            &[String],
            &mut dyn FnMut(rql_pagestore::PageId, &rql_pagestore::Page),
        ) -> std::result::Result<(), E>,
    ) -> std::result::Result<usize, E> {
        let table = table.to_ascii_lowercase();
        if !declare && self.filters.read().covers(&table, cols) {
            return Ok(0);
        }
        let (summarized, union_changed) = {
            let _serial = self.commit_serial.lock();
            let mut next = self.filters.read().clone();
            let generation = next.generation;
            if !next.apply(&table, cols, declare) {
                return Ok(0);
            }
            let mut fresh: HashMap<u64, Arc<Vec<u8>>> = HashMap::new();
            if let Some(builder) = self.sidecar_builder.read().clone() {
                let tables: Vec<String> = next
                    .tables
                    .iter()
                    .filter(|(_, f)| !f.cols.is_empty())
                    .map(|(name, _)| name.clone())
                    .collect();
                let stats = self.pager.stats();
                walk(&self.pager.view(), &tables, &mut |pid, page| {
                    if let Some(bytes) = builder(pid, page, &next.union) {
                        stats.count_sidecar_bytes(bytes.len() as u64);
                        fresh.insert(pid.0, Arc::new(bytes));
                    }
                })?;
            }
            let summarized = fresh.len();
            *self.current_sidecars.write() = Arc::new(fresh);
            let union_changed = next.generation != generation;
            *self.filters.write() = next;
            (summarized, union_changed)
        };
        if union_changed {
            self.rebuild_archived_sidecars()?;
        }
        Ok(summarized)
    }

    /// Sidecars describing the latest published page images (cheap
    /// `Arc` clone; what snapshot readers and write transactions capture).
    pub fn current_sidecars(&self) -> SidecarMap {
        self.current_sidecars.read().clone()
    }

    /// Sidecar for the archived pre-state at Pagelog offset `off`.
    pub fn archived_sidecar(&self, off: u64) -> Option<Arc<Vec<u8>>> {
        let archive = self.sidecar_archive.lock();
        archive.get(&off).map(|(_, side)| Arc::clone(side))
    }

    /// Number of declared snapshots; ids are `1..=snapshot_count()`.
    pub fn snapshot_count(&self) -> u64 {
        self.metas.read().len() as u64
    }

    /// Metadata for snapshot `sid`.
    pub fn snapshot_meta(&self, sid: u64) -> Option<SnapshotMeta> {
        if sid == 0 {
            return None;
        }
        self.metas.read().get(sid as usize - 1).copied()
    }

    /// Pin an MVCC view of the current state (for current-state queries).
    pub fn current_view(&self) -> DbView {
        self.pager.view()
    }

    /// Open a reader over snapshot `sid`.
    ///
    /// Ordering invariant: the database view is pinned *before* the SPT is
    /// built. A commit that lands in between archives the pinned page
    /// state as the pre-state, so whichever source the reader ends up
    /// using returns identical bytes.
    pub fn open_snapshot(self: &Arc<Self>, sid: u64) -> Result<SnapshotReader> {
        let _span = rql_trace::span_arg(rql_trace::SpanId::ChainOpen, sid);
        let meta = self
            .snapshot_meta(sid)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {sid}")))?;
        // Captured before the view: a page the SPT resolves as shared was
        // unwritten from here through SPT build, so its entry (if any)
        // describes the image the reader will see.
        let sidecars = self.current_sidecars();
        let view = self.pager.view();
        let start = Instant::now();
        let scan = {
            let _spt = rql_trace::span_arg(rql_trace::SpanId::SptBuild, sid);
            self.maplog.read().build_spt(sid, self.config.use_skippy)?
        };
        let duration = start.elapsed();
        self.stats().count_maplog_scanned(scan.entries_scanned);
        let spt = Spt::new(sid, meta.page_count, scan.map);
        Ok(SnapshotReader::new(
            Arc::clone(self),
            spt,
            view,
            SptBuildStats {
                entries_scanned: scan.entries_scanned,
                duration,
            },
            None,
            sidecars,
        ))
    }

    /// Open readers over a whole set of snapshots at once, building their
    /// SPTs incrementally (one full Maplog scan for the newest id, interval
    /// overlays for the rest — see [`Maplog::build_spt_chain`]).
    ///
    /// Each reader after the first also carries the set of pages that may
    /// differ from the *previous id in the input order*
    /// ([`SnapshotReader::changed_from_prev`]), which is what delta-aware
    /// scans consume. The same ordering invariant as [`Self::open_snapshot`]
    /// holds: every view is pinned before any SPT is built.
    pub fn open_snapshot_chain(self: &Arc<Self>, ids: &[u64]) -> Result<Vec<SnapshotReader>> {
        let _span = rql_trace::span_arg(rql_trace::SpanId::ChainOpen, ids.len() as u64);
        let mut metas = Vec::with_capacity(ids.len());
        for &sid in ids {
            metas.push(
                self.snapshot_meta(sid)
                    .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {sid}")))?,
            );
        }
        // Same ordering as `open_snapshot`: sidecars before views.
        let sidecars = self.current_sidecars();
        let views: Vec<DbView> = ids.iter().map(|_| self.pager.view()).collect();
        let maplog = self.maplog.read();
        let start = Instant::now();
        let scans = {
            let _spt = rql_trace::span_arg(rql_trace::SpanId::SptBuild, ids.len() as u64);
            maplog.build_spt_chain(ids, self.config.use_skippy)?
        };
        let duration = start.elapsed();
        let mut changed: Vec<Option<HashSet<rql_pagestore::PageId>>> =
            Vec::with_capacity(ids.len());
        for (i, &sid) in ids.iter().enumerate() {
            changed.push(if i == 0 {
                None
            } else {
                Some(maplog.changed_pages(ids[i - 1], sid)?)
            });
        }
        drop(maplog);
        let mut readers = Vec::with_capacity(ids.len());
        let per_id = if ids.is_empty() {
            duration
        } else {
            duration / ids.len() as u32
        };
        for (((scan, meta), view), changed) in scans.into_iter().zip(metas).zip(views).zip(changed)
        {
            self.stats().count_maplog_scanned(scan.entries_scanned);
            readers.push(SnapshotReader::new(
                Arc::clone(self),
                Spt::new(meta.id, meta.page_count, scan.map),
                view,
                SptBuildStats {
                    entries_scanned: scan.entries_scanned,
                    duration: per_id,
                },
                changed,
                sidecars.clone(),
            ));
        }
        Ok(readers)
    }

    /// Pages whose content may differ between two snapshots — the
    /// complement of the paper's `shared(S1, S2)`, computed directly from
    /// the Maplog window between the declarations (no SPT builds).
    pub fn changed_pages(&self, s1: u64, s2: u64) -> Result<HashSet<rql_pagestore::PageId>> {
        self.maplog.read().changed_pages(s1, s2)
    }

    /// Build just the SPT for `sid` (introspection / diff computation).
    pub fn build_spt(&self, sid: u64) -> Result<Spt> {
        let meta = self
            .snapshot_meta(sid)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {sid}")))?;
        let scan = self.maplog.read().build_spt(sid, self.config.use_skippy)?;
        Ok(Spt::new(sid, meta.page_count, scan.map))
    }

    /// The paper's `diff(S1, S2)`: pages not shared between two snapshots.
    pub fn diff(&self, s1: u64, s2: u64) -> Result<u64> {
        Ok(self.build_spt(s1)?.diff(&self.build_spt(s2)?))
    }

    /// The paper's `shared(S1, S2)`.
    pub fn shared(&self, s1: u64, s2: u64) -> Result<u64> {
        Ok(self.build_spt(s1)?.shared_with(&self.build_spt(s2)?))
    }

    /// Make all durable state stable: group-flush the Pagelog, sync the
    /// Maplog, and sync the WAL (the checkpoint a clean shutdown or an
    /// explicit durability point performs).
    pub fn flush(&self) -> Result<()> {
        self.pagelog.flush()?;
        self.maplog.read().sync()?;
        self.pager.sync_wal()
    }

    /// Total Maplog entries (space accounting).
    pub fn maplog_entries(&self) -> usize {
        self.maplog.read().entry_count()
    }

    /// Entries held by Skippy skip levels (space accounting).
    pub fn skippy_entries(&self) -> usize {
        self.maplog.read().skippy_entries()
    }
}

/// A fresh [`RetroStore::incarnation`]: std's randomly keyed hasher (its
/// keys come from the OS) over a process-wide counter, so two opens
/// differ both within a process and across restarts.
fn next_incarnation() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    static OPENS: AtomicU64 = AtomicU64::new(0);
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(OPENS.fetch_add(1, Ordering::Relaxed));
    hasher.finish()
}

/// Reconcile crash-torn tails across the WAL and the Maplog before
/// recovery proper.
///
/// A commit persists in three steps: Maplog mappings (pre-states), then
/// the WAL commit record (the commit point), then — for declaring
/// commits — the Maplog boundary. A crash between any two steps leaves
/// the logs disagreeing on the snapshot count:
///
/// * **Maplog ahead** (boundary persisted, WAL commit lost): the
///   boundary and everything after it belong to commits the WAL will
///   discard — truncate the Maplog at the first excess boundary.
///   Mappings appended *before* it by those torn commits are kept: the
///   pages' pre-states were archived but never replaced, so the next
///   commit re-archives identical bytes and first-occurrence-wins SPT
///   construction resolves the duplicates.
/// * **WAL ahead** (boundary lost): the declaring commit cannot be
///   reconstructed (its page count is gone), so truncate the WAL back
///   to the start of that commit's segment. The lost tail re-ships on
///   the next replication resume, or is simply absent on a single node
///   — equivalent to crashing slightly earlier.
///
/// Idempotent; a no-op when the logs already agree.
fn reconcile_logs(wal: &dyn LogStorage, maplog: &dyn LogStorage) -> Result<()> {
    // Fixed-size Maplog records: drop a torn partial tail first.
    const MAPLOG_REC: u64 = 17;
    let mut mlen = maplog.len();
    if !mlen.is_multiple_of(MAPLOG_REC) {
        mlen -= mlen % MAPLOG_REC;
        maplog.truncate(mlen)?;
    }
    // Offsets of boundary records, in order.
    let mut boundaries = Vec::new();
    let mut moff = 0u64;
    while moff < mlen {
        let mut kind = [0u8; 1];
        maplog.read_at(moff, &mut kind)?;
        if kind[0] == 2 {
            boundaries.push(moff);
        }
        moff += MAPLOG_REC;
    }
    // Start offsets of WAL segments that declare a snapshot, in order.
    let wal_len = wal.len();
    let mut declaring = Vec::new();
    let mut woff = 0u64;
    while let Some(seg) = rql_pagestore::next_committed_segment(wal, woff, wal_len)? {
        if seg.snapshot.is_some() {
            declaring.push(seg.start);
        }
        woff = seg.end;
    }
    if boundaries.len() > declaring.len() {
        maplog.truncate(boundaries[declaring.len()])?;
    } else if declaring.len() > boundaries.len() {
        wal.truncate(declaring[boundaries.len()])?;
    }
    Ok(())
}
