//! # rql-memo
//!
//! Content-addressed memoization store for retrospective computations.
//!
//! Retro snapshots are immutable, so what a per-snapshot query `Qq` reads
//! and returns at snapshot `S` is a function of `S` alone — no later
//! commit can change it. This crate caches two kinds of artifacts so
//! that every query, session and server client after the first reuses
//! them:
//!
//! * a **result** — the full `Qq` output (columns + rows) at one
//!   snapshot, foldable into any mechanism exactly like a live execution,
//!   keyed by the snapshot id;
//! * a **page** — the rows of one page *version* that pass `Qq`'s scan
//!   filter, with the page's chain successor ([`CachedPage`]), keyed by
//!   the [`PageVersion`] a snapshot reader resolves the page to. A delta
//!   scan of any snapshot that holds the version — adjacent, skipped or
//!   out of order, in this computation or a later one — serves it without
//!   a read ([`MemoStore::pages`]).
//!
//! Both keys start with a fingerprint of the canonical *pre-rewrite* `Qq`
//! text (so `AS OF` injection does not fragment keys). Each entry also
//! carries the *version* of what it was computed against: for a result,
//! an opaque number the caller derives from the snapshot's declaration
//! record and the store incarnation; for a page, the store incarnation
//! itself. Neither changes while the store stays open, so an entry is
//! good across any number of commits and for every session of that
//! store; they only tell apart artifacts that share a key — two stores
//! behind one memo, or a reopened store. An entry under another version
//! is dropped and the lookup misses.
//!
//! Values are shared, not copied: an entry holds its rows behind an `Arc`
//! and a hit hands out another reference. Every entry is charged once,
//! for its own rows: a page version is one entry however many snapshots
//! hold it. The hit and miss counters count results only, so
//! `memo_hits / (memo_hits + memo_misses)` is the Qq hit ratio.
//!
//! Storage is a sharded in-memory map with one byte budget and
//! least-recently-used eviction across all shards, and nothing else:
//! an entry cannot outlive the store incarnation it was computed
//! against, so there is no disk tier for it to come back from.

#![warn(missing_docs)]
// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rql_sqlengine::record::encoded_len;
use rql_sqlengine::{CachedPage, PageCache, PageVersion, Row};

/// Fixed per-entry bookkeeping overhead charged to the byte budget.
const ENTRY_OVERHEAD: usize = 96;

/// Configuration for a [`MemoStore`].
#[derive(Debug, Clone)]
pub struct MemoConfig {
    /// Number of independently locked shards.
    pub shards: usize,
    /// Total in-memory byte budget across all shards.
    pub byte_budget: usize,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            shards: 8,
            byte_budget: 64 << 20,
        }
    }
}

/// Cache key. The version an entry was computed against is deliberately
/// *not* part of it — it is stored with the entry and compared on
/// lookup, so an entry left by another store or incarnation is replaced
/// instead of lingering beside the live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    /// A `Qq`'s output at one snapshot.
    Result { fingerprint: u64, snap_id: u64 },
    /// A `Qq` scan's rows of one page version.
    Page { fingerprint: u64, page: PageVersion },
}

/// Column names and rows of one `Qq` execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QqRows {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows, in execution order.
    pub rows: Vec<Row>,
}

/// A cached artifact. Cloning copies a reference, never the rows.
#[derive(Debug, Clone, PartialEq)]
enum MemoValue {
    Result(Arc<QqRows>),
    Page(CachedPage),
}

fn rows_bytes(rows: &[Row]) -> usize {
    rows.iter().map(|r| encoded_len(r) + 16).sum()
}

impl MemoValue {
    /// Approximate heap footprint charged to the budget.
    fn bytes(&self) -> usize {
        ENTRY_OVERHEAD
            + match self {
                MemoValue::Result(r) => {
                    r.columns.iter().map(|c| c.len() + 24).sum::<usize>() + rows_bytes(&r.rows)
                }
                MemoValue::Page(page) => rows_bytes(&page.rows),
            }
    }
}

rql_trace::metric_table! {
    struct MemoStats =>
    /// Point-in-time view of a store's counters.
    pub struct MemoStatsSnapshot("memo_", "Shared Qq memoization store") {
        /// Qq result lookups answered from the cache.
        hits: Counter,
        /// Qq result lookups that fell through to recomputation.
        misses: Counter,
        /// Entries (results and pages) evicted by the byte budget.
        evictions: Counter,
        /// Qq results inserted.
        inserts: Counter,
        /// Current in-memory footprint.
        bytes: Gauge,
    }
}

struct Entry {
    /// What the value was computed against (see the crate docs).
    version: u64,
    value: MemoValue,
    /// [`MemoValue::bytes`] at insert.
    bytes: usize,
    tick: u64,
}

/// The memoization store: a sharded map of results and pages under one
/// byte budget, with version verification. All methods are `&self` and
/// thread-safe; one store is meant to be shared across every session of
/// a server.
pub struct MemoStore {
    shards: Vec<Mutex<HashMap<MemoKey, Entry>>>,
    byte_budget: u64,
    tick: AtomicU64,
    stats: MemoStats,
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoStore")
            .field("shards", &self.shards.len())
            .field("byte_budget", &self.byte_budget)
            .finish()
    }
}

impl MemoStore {
    /// Create a store from `config`.
    pub fn new(config: MemoConfig) -> MemoStore {
        MemoStore {
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            byte_budget: config.byte_budget as u64,
            tick: AtomicU64::new(0),
            stats: MemoStats::default(),
        }
    }

    fn shard_of(&self, key: &MemoKey) -> &Mutex<HashMap<MemoKey, Entry>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// The `Qq` output memoized for `(fingerprint, snap_id)` as computed
    /// at snapshot version `version`. A hit returns a reference to the
    /// stored rows; nothing is copied. An entry under another version
    /// belongs to another store or incarnation: it is dropped and the
    /// lookup misses.
    pub fn lookup(&self, fingerprint: u64, snap_id: u64, version: u64) -> Option<Arc<QqRows>> {
        let _span = rql_trace::span(rql_trace::SpanId::MemoProbe);
        let key = MemoKey::Result {
            fingerprint,
            snap_id,
        };
        let rows = match self.get(&key, version) {
            Some(MemoValue::Result(rows)) => Some(rows),
            _ => None,
        };
        let counter = match rows {
            Some(_) => &self.stats.hits,
            None => &self.stats.misses,
        };
        counter.inc();
        rows
    }

    /// Memoize the `Qq` output computed at snapshot version `version`,
    /// then evict least-recently-used entries until the store is back
    /// under budget.
    pub fn insert(&self, fingerprint: u64, snap_id: u64, version: u64, rows: Arc<QqRows>) {
        let _span = rql_trace::span(rql_trace::SpanId::MemoInsert);
        self.stats.inserts.inc();
        let key = MemoKey::Result {
            fingerprint,
            snap_id,
        };
        self.put(key, version, MemoValue::Result(rows));
        self.evict_over_budget();
    }

    /// The page cache of one `Qq` scan over one store incarnation: what a
    /// delta scanner attached to it reads lands here, and what any
    /// scanner of the same scan read is served from here. Its lookups
    /// and inserts leave the hit, miss and insert counters alone and
    /// open no trace span.
    pub fn pages(self: &Arc<Self>, fingerprint: u64, incarnation: u64) -> MemoPages {
        MemoPages {
            store: Arc::clone(self),
            fingerprint,
            incarnation,
        }
    }

    /// The value under `key` if it was computed against `version`,
    /// touching it; an entry computed against another is dropped.
    fn get(&self, key: &MemoKey, version: u64) -> Option<MemoValue> {
        let mut shard = self.shard_of(key).lock();
        match shard.get_mut(key) {
            Some(e) if e.version == version => {
                e.tick = self.next_tick();
                Some(e.value.clone())
            }
            Some(_) => {
                let foreign = shard.remove(key);
                self.release(foreign);
                None
            }
            None => None,
        }
    }

    /// Charge and store one entry, replacing any under the same key.
    fn put(&self, key: MemoKey, version: u64, value: MemoValue) {
        let bytes = value.bytes();
        self.stats.bytes.add(bytes as u64);
        let entry = Entry {
            version,
            value,
            bytes,
            tick: self.next_tick(),
        };
        let replaced = self.shard_of(&key).lock().insert(key, entry);
        self.release(replaced);
    }

    /// Give back what a removed entry was charged.
    fn release(&self, entry: Option<Entry>) {
        if let Some(entry) = entry {
            self.stats.bytes.sub(entry.bytes as u64);
        }
    }

    /// Evict least recently used entries until the resident bytes fit the
    /// budget: one pass over every shard picks all the victims the excess
    /// needs, oldest first.
    fn evict_over_budget(&self) {
        while self.stats.bytes.get() > self.byte_budget {
            let excess = self.stats.bytes.get() - self.byte_budget;
            let mut by_age: Vec<(u64, MemoKey, usize)> = Vec::new();
            for shard in &self.shards {
                let shard = shard.lock();
                by_age.extend(shard.iter().map(|(key, e)| (e.tick, *key, e.bytes)));
            }
            if by_age.is_empty() {
                break;
            }
            by_age.sort_unstable_by_key(|&(tick, ..)| tick);
            let mut freed = 0;
            for (tick, key, bytes) in by_age {
                if freed >= excess as usize {
                    break;
                }
                let mut shard = self.shard_of(&key).lock();
                // Touched or replaced since the pass: leave it.
                if shard.get(&key).is_some_and(|e| e.tick == tick) {
                    let evicted = shard.remove(&key);
                    self.release(evicted);
                    self.stats.evictions.inc();
                    freed += bytes;
                }
            }
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> MemoStatsSnapshot {
        self.stats.snapshot()
    }
}

/// One `Qq` scan's pages in a [`MemoStore`] (see [`MemoStore::pages`]).
pub struct MemoPages {
    store: Arc<MemoStore>,
    fingerprint: u64,
    incarnation: u64,
}

impl MemoPages {
    fn key(&self, page: PageVersion) -> MemoKey {
        MemoKey::Page {
            fingerprint: self.fingerprint,
            page,
        }
    }
}

impl PageCache for MemoPages {
    fn get(&self, version: PageVersion) -> Option<CachedPage> {
        match self.store.get(&self.key(version), self.incarnation) {
            Some(MemoValue::Page(page)) => Some(page),
            _ => None,
        }
    }

    fn put(&self, pages: Vec<(PageVersion, CachedPage)>) {
        for (version, page) in pages {
            (self.store).put(self.key(version), self.incarnation, MemoValue::Page(page));
        }
        self.store.evict_over_budget();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use rql_pagestore::PageId;
    use rql_sqlengine::Value;

    fn result_rows(n: i64) -> Arc<QqRows> {
        Arc::new(QqRows {
            columns: vec!["a".into(), "b".into()],
            rows: (0..n)
                .map(|i| vec![Value::Integer(i), Value::text(format!("row-{i}"))])
                .collect(),
        })
    }

    fn result_bytes(n: i64) -> usize {
        MemoValue::Result(result_rows(n)).bytes()
    }

    fn page(tag: i64) -> CachedPage {
        CachedPage {
            next: Some(PageId(tag as u64 + 1)),
            rows: Arc::new(
                (0..20)
                    .map(|i| vec![Value::Integer(tag), Value::text(format!("row-{i}"))])
                    .collect(),
            ),
        }
    }

    fn page_bytes() -> usize {
        MemoValue::Page(page(0)).bytes()
    }

    #[test]
    fn hit_miss_and_version_verification() {
        let store = MemoStore::new(MemoConfig::default());
        assert!(store.lookup(1, 10, 42).is_none());
        store.insert(1, 10, 42, result_rows(3));
        assert_eq!(store.lookup(1, 10, 42), Some(result_rows(3)));
        // Another store's snapshot 10: the entry cannot vouch for it and
        // is dropped, so even its own version misses afterwards.
        assert!(store.lookup(1, 10, 43).is_none());
        assert!(store.lookup(1, 10, 42).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.bytes), (1, 3, 1, 0));
    }

    #[test]
    fn lookup_shares_storage_with_the_entry() {
        let store = Arc::new(MemoStore::new(MemoConfig::default()));
        let rows = result_rows(50);
        store.insert(1, 1, 0, Arc::clone(&rows));
        assert!(Arc::ptr_eq(&store.lookup(1, 1, 0).unwrap(), &rows));
        let pages = store.pages(1, 0);
        let put = page(7);
        pages.put(vec![(PageVersion::Archived(64), put.clone())]);
        let (a, b) = (
            pages.get(PageVersion::Archived(64)),
            pages.get(PageVersion::Archived(64)),
        );
        assert!(
            Arc::ptr_eq(&a.unwrap().rows, &put.rows) && Arc::ptr_eq(&b.unwrap().rows, &put.rows)
        );
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = result_bytes(50);
        let store = MemoStore::new(MemoConfig {
            byte_budget: 4 * one,
            ..MemoConfig::default()
        });
        for sid in 0..16 {
            store.insert(1, sid, 0, result_rows(50));
        }
        let s = store.stats();
        assert_eq!(s.evictions, 12, "one budget across all shards");
        assert_eq!(s.bytes, 4 * one as u64);
        // Newest entries survive, oldest are gone.
        assert!(store.lookup(1, 15, 0).is_some());
        assert!(store.lookup(1, 11, 0).is_none());
    }

    /// A page version is one entry, charged once for its own rows, kept
    /// apart per scan and per store incarnation; pages leave the result
    /// counters alone.
    #[test]
    fn a_page_version_is_one_entry() {
        let store = Arc::new(MemoStore::new(MemoConfig::default()));
        let (scan, other_scan) = (store.pages(1, 5), store.pages(2, 5));
        let v = PageVersion::Current(PageId(3), 9);
        scan.put(vec![(v, page(1))]);
        scan.put(vec![(v, page(1))]);
        assert_eq!(store.stats().bytes, page_bytes() as u64);
        assert!(other_scan.get(v).is_none(), "another Qq's scan");
        assert_eq!(scan.get(v), Some(page(1)));
        // The same offset or stamp of another incarnation is another page:
        // the entry cannot vouch for it and is dropped.
        assert!(store.pages(1, 6).get(v).is_none());
        assert!(scan.get(v).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.bytes), (0, 0, 0, 0));
    }

    #[test]
    fn eviction_honours_the_budget_over_shared_pages() {
        // A 16-page table scanned at 32 snapshots, each changing one page:
        // every scan adds one page version, and the budget holds 24.
        let budget = 24 * page_bytes();
        let store = Arc::new(MemoStore::new(MemoConfig {
            byte_budget: budget,
            ..MemoConfig::default()
        }));
        let pages = store.pages(1, 0);
        pages.put(
            (0..16)
                .map(|p| (PageVersion::Archived(p), page(p as i64)))
                .collect(),
        );
        for sid in 16..48u64 {
            pages.put(vec![(PageVersion::Archived(sid), page(sid as i64))]);
            assert!(store.stats().bytes <= budget as u64, "{:?}", store.stats());
        }
        assert_eq!(store.stats().evictions, 48 - 24);
        assert!(pages.get(PageVersion::Archived(47)).is_some());
        assert!(pages.get(PageVersion::Archived(0)).is_none());
    }

    /// One pass picks every victim an insert needs, oldest first.
    #[test]
    fn one_pass_evicts_all_the_victims_needed() {
        let budget = 10 * page_bytes();
        let store = Arc::new(MemoStore::new(MemoConfig {
            byte_budget: budget,
            ..MemoConfig::default()
        }));
        let pages = store.pages(1, 0);
        pages.put(
            (0..10)
                .map(|p| (PageVersion::Archived(p), page(p as i64)))
                .collect(),
        );
        assert_eq!(store.stats().evictions, 0);
        let rows = (1..).find(|&n| result_bytes(n) > 3 * page_bytes()).unwrap();
        store.insert(1, 1, 0, result_rows(rows));
        let victims = store.stats().evictions;
        assert!(victims >= 4, "{:?}", store.stats());
        assert!(store.stats().bytes <= budget as u64);
        for p in 0..10 {
            assert_eq!(
                pages.get(PageVersion::Archived(p)).is_none(),
                p < victims,
                "page {p}"
            );
        }
    }

    #[test]
    fn stats_fields_are_stable() {
        let names: Vec<&str> = MemoStatsSnapshot::SECTION
            .fields
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, ["hits", "misses", "evictions", "inserts", "bytes"]);
    }
}
