//! # rql-memo
//!
//! Content-addressed memoization store for retrospective computations.
//!
//! Retro snapshots are immutable, so the result of a per-snapshot query
//! `Qq` evaluated at snapshot `S` is a function of `S` alone — no later
//! commit can change it. This crate caches two kinds of per-snapshot
//! artifacts so that every query, session and server client after the
//! first reuses them:
//!
//! * [`MemoValue::Result`] — the full `Qq` result (columns + rows) for
//!   one snapshot, foldable into any mechanism exactly like a live
//!   execution;
//! * [`MemoValue::Seed`] — an exported [`ScannerSeed`] capturing the
//!   delta scanner's post-scan state at one snapshot, so a memoized
//!   iteration keeps the *next* iteration on the delta path.
//!
//! Keying is by identity: a fingerprint of the canonical *pre-rewrite*
//! `Qq` text (so `AS OF` injection does not fragment keys) and the
//! snapshot id. Each entry also carries the *version* of the snapshot it
//! was computed at — an opaque number the caller derives from the
//! snapshot's declaration record and the store incarnation that holds
//! it. A snapshot's version never changes while its store stays open, so
//! an entry is good across any number of commits and for every session
//! of that store; the version only tells apart snapshots that happen to
//! share an id — two stores behind one memo, or a reopened store. An
//! entry under another version is dropped and the lookup misses.
//!
//! Values are shared, not copied: an entry holds its value behind an
//! `Arc` and a hit hands out another reference. Seeds go one level
//! further — each page's filtered rows are an `Arc` the delta scanner
//! built once, so seeds of consecutive snapshots share every unchanged
//! page, and the byte budget charges a page once however many resident
//! seeds hold it.
//!
//! Storage is a sharded in-memory map with one byte budget and
//! least-recently-used eviction across all shards, and nothing else:
//! an entry cannot outlive the store incarnation it was computed
//! against, so there is no disk tier for it to come back from.

#![warn(missing_docs)]

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rql_sqlengine::record::encoded_len;
use rql_sqlengine::{Row, ScannerSeed};

/// Fixed per-entry bookkeeping overhead charged to the byte budget.
const ENTRY_OVERHEAD: usize = 96;
/// Per-page bookkeeping of a seed, charged to the entry that holds it.
const SEED_PAGE_OVERHEAD: usize = 32;

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

/// What kind of artifact an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A complete per-snapshot `Qq` result.
    Result,
    /// A delta-scanner seed exported after scanning one snapshot.
    Seed,
}

/// Cache key: query fingerprint × snapshot × artifact kind. The snapshot
/// version is deliberately *not* part of the key — it is stored with the
/// entry and compared on lookup, so an entry left by another store or
/// incarnation is replaced instead of lingering beside the live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Fingerprint of the canonical pre-rewrite `Qq` text.
    pub fingerprint: u64,
    /// Snapshot the artifact was computed at.
    pub snap_id: u64,
    /// Artifact kind.
    pub kind: EntryKind,
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
pub enum MemoValue {
    /// The output of a `Qq` execution.
    Result(Arc<QqRows>),
    /// Exported delta-scanner state.
    Seed(Arc<ScannerSeed>),
}

fn rows_bytes(rows: &[Row]) -> usize {
    rows.iter().map(|r| encoded_len(r) + 16).sum()
}

impl MemoValue {
    /// Approximate heap footprint charged to the entry itself. A seed's
    /// page rows are not in it: they are charged once per distinct page
    /// (see [`MemoStore`]), since other seeds may hold the same pages.
    fn own_bytes(&self) -> usize {
        ENTRY_OVERHEAD
            + match self {
                MemoValue::Result(r) => {
                    r.columns.iter().map(|c| c.len() + 24).sum::<usize>() + rows_bytes(&r.rows)
                }
                MemoValue::Seed(seed) => SEED_PAGE_OVERHEAD * seed.pages.len(),
            }
    }
}

rql_trace::metric_table! {
    struct MemoStats =>
    /// Point-in-time view of a store's counters.
    pub struct MemoStatsSnapshot("memo_", "Shared Qq memoization store") {
        /// Lookups answered from the cache.
        hits: Counter,
        /// Lookups that fell through to recomputation.
        misses: Counter,
        /// Entries evicted from memory by the byte budget.
        evictions: Counter,
        /// Entries inserted.
        inserts: Counter,
        /// Current in-memory footprint.
        bytes: Gauge,
    }
}

struct Entry {
    /// Version of the snapshot the value was computed at.
    version: u64,
    value: MemoValue,
    /// [`MemoValue::own_bytes`] at insert.
    bytes: usize,
    tick: u64,
}

/// The memoization store: a sharded map of [`MemoValue`] entries under
/// one byte budget, with snapshot-version verification. All methods are
/// `&self` and thread-safe; one store is meant to be shared across every
/// session of a server.
pub struct MemoStore {
    shards: Vec<Mutex<HashMap<MemoKey, Entry>>>,
    /// The row vectors of every seed page held by a resident entry, by
    /// allocation address: how many seed pages hold the vector, and its
    /// bytes. Seeds of neighbouring snapshots share most pages, so each
    /// vector is charged when its first holder arrives and released when
    /// its last one leaves. Taken after a shard lock, never before one.
    seed_pages: Mutex<HashMap<usize, (usize, usize)>>,
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
            seed_pages: Mutex::new(HashMap::new()),
            byte_budget: config.byte_budget as u64,
            tick: AtomicU64::new(0),
            stats: MemoStats::default(),
        }
    }

    fn shard_of(&self, key: &MemoKey) -> &Mutex<HashMap<MemoKey, Entry>> {
        let mixed = key
            .fingerprint
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.snap_id)
            .wrapping_add(key.kind as u64);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up `key` as computed at snapshot version `version`. A hit
    /// returns a reference to the stored value; nothing is copied. An
    /// entry under another version belongs to another store or
    /// incarnation: it is dropped and the lookup misses.
    pub fn lookup(&self, key: &MemoKey, version: u64) -> Option<MemoValue> {
        let _span = rql_trace::span(rql_trace::SpanId::MemoProbe);
        let value = {
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
        };
        let counter = match value {
            Some(_) => &self.stats.hits,
            None => &self.stats.misses,
        };
        counter.inc();
        value
    }

    /// Insert an artifact computed at snapshot version `version`, then
    /// evict least-recently-used entries until the store is back under
    /// budget.
    pub fn insert(&self, key: MemoKey, version: u64, value: MemoValue) {
        let _span = rql_trace::span(rql_trace::SpanId::MemoInsert);
        self.stats.inserts.inc();
        let bytes = value.own_bytes();
        let mut charged = bytes;
        if let MemoValue::Seed(seed) = &value {
            // Only pages no resident seed holds yet are measured, so an
            // insert walks the rows of changed pages, not of the table.
            let mut ledger = self.seed_pages.lock();
            for p in &seed.pages {
                let slot = ledger
                    .entry(Arc::as_ptr(&p.rows) as usize)
                    .or_insert_with(|| {
                        let page_bytes = rows_bytes(&p.rows);
                        charged += page_bytes;
                        (0, page_bytes)
                    });
                slot.0 += 1;
            }
        }
        self.stats.bytes.add(charged as u64);
        let entry = Entry {
            version,
            value,
            bytes,
            tick: self.next_tick(),
        };
        let replaced = self.shard_of(&key).lock().insert(key, entry);
        self.release(replaced);
        self.evict_over_budget();
    }

    /// Give back what a removed entry was charged: its own bytes, and
    /// every seed page vector it was the last resident holder of.
    fn release(&self, entry: Option<Entry>) {
        let Some(entry) = entry else { return };
        let mut freed = entry.bytes;
        if let MemoValue::Seed(seed) = &entry.value {
            let mut ledger = self.seed_pages.lock();
            for p in &seed.pages {
                if let MapEntry::Occupied(mut slot) = ledger.entry(Arc::as_ptr(&p.rows) as usize) {
                    slot.get_mut().0 -= 1;
                    if slot.get().0 == 0 {
                        freed += slot.remove().1;
                    }
                }
            }
        }
        self.stats.bytes.sub(freed as u64);
    }

    /// Evict the least recently used entry of any shard until the
    /// resident bytes fit the budget.
    fn evict_over_budget(&self) {
        while self.stats.bytes.get() > self.byte_budget {
            let oldest = self
                .shards
                .iter()
                .filter_map(|shard| {
                    let shard = shard.lock();
                    let (key, e) = shard.iter().min_by_key(|(_, e)| e.tick)?;
                    Some((e.tick, *key))
                })
                .min_by_key(|(tick, _)| *tick);
            let Some((tick, key)) = oldest else { break };
            let mut shard = self.shard_of(&key).lock();
            // Touched or replaced since it was picked: pick again.
            if shard.get(&key).is_some_and(|e| e.tick == tick) {
                let evicted = shard.remove(&key);
                self.release(evicted);
                self.stats.evictions.inc();
            }
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> MemoStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use rql_sqlengine::{SeedPage, Value};

    fn key(fp: u64, sid: u64, kind: EntryKind) -> MemoKey {
        MemoKey {
            fingerprint: fp,
            snap_id: sid,
            kind,
        }
    }

    fn result_value(n: i64) -> MemoValue {
        MemoValue::Result(Arc::new(QqRows {
            columns: vec!["a".into(), "b".into()],
            rows: (0..n)
                .map(|i| vec![Value::Integer(i), Value::text(format!("row-{i}"))])
                .collect(),
        }))
    }

    fn page_rows(tag: i64) -> Arc<Vec<Row>> {
        Arc::new(
            (0..20)
                .map(|i| vec![Value::Integer(tag), Value::text(format!("row-{i}"))])
                .collect(),
        )
    }

    /// A seed over `pages` as `(page id, rows)`, chained in order.
    fn seed_of(pages: &[(u64, &Arc<Vec<Row>>)]) -> MemoValue {
        let pages = pages
            .iter()
            .enumerate()
            .map(|(i, (page, rows))| SeedPage {
                page: *page,
                next: pages.get(i + 1).map(|(next, _)| *next),
                rows: Arc::clone(rows),
            })
            .collect();
        MemoValue::Seed(Arc::new(ScannerSeed { root: 7, pages }))
    }

    fn seed_value() -> MemoValue {
        let first = Arc::new(vec![vec![Value::Integer(1), Value::Real(2.5)]]);
        let second = Arc::new(vec![vec![Value::Null, Value::text("x")]]);
        seed_of(&[(7, &first), (9, &second)])
    }

    #[test]
    fn hit_miss_and_version_verification() {
        let store = MemoStore::new(MemoConfig::default());
        let k = key(1, 10, EntryKind::Result);
        assert!(store.lookup(&k, 42).is_none());
        store.insert(k, 42, result_value(3));
        assert_eq!(store.lookup(&k, 42), Some(result_value(3)));
        // Another store's snapshot 10: the entry cannot vouch for it and
        // is dropped, so even its own version misses afterwards.
        assert!(store.lookup(&k, 43).is_none());
        assert!(store.lookup(&k, 42).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.bytes), (1, 3, 1, 0));
    }

    #[test]
    fn lookup_shares_storage_with_the_entry() {
        let store = MemoStore::new(MemoConfig::default());
        let (kr, ks) = (key(1, 1, EntryKind::Result), key(1, 1, EntryKind::Seed));
        let (result, seed) = (result_value(50), seed_value());
        store.insert(kr, 0, result.clone());
        store.insert(ks, 0, seed.clone());
        match (store.lookup(&kr, 0), result) {
            (Some(MemoValue::Result(got)), MemoValue::Result(put)) => {
                assert!(Arc::ptr_eq(&got, &put));
            }
            other => panic!("expected a result, got {other:?}"),
        }
        match (store.lookup(&ks, 0), store.lookup(&ks, 0), seed) {
            (Some(MemoValue::Seed(a)), Some(MemoValue::Seed(b)), MemoValue::Seed(put)) => {
                assert!(Arc::ptr_eq(&a, &put) && Arc::ptr_eq(&b, &put));
            }
            other => panic!("expected seeds, got {other:?}"),
        }
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = result_value(50).own_bytes();
        let store = MemoStore::new(MemoConfig {
            byte_budget: 4 * one,
            ..MemoConfig::default()
        });
        for sid in 0..16 {
            store.insert(key(1, sid, EntryKind::Result), 0, result_value(50));
        }
        let s = store.stats();
        assert_eq!(s.evictions, 12, "one budget across all shards");
        assert_eq!(s.bytes, 4 * one as u64);
        // Newest entries survive, oldest are gone.
        assert!(store.lookup(&key(1, 15, EntryKind::Result), 0).is_some());
        assert!(store.lookup(&key(1, 11, EntryKind::Result), 0).is_none());
    }

    #[test]
    fn seeds_sharing_pages_are_charged_once() {
        let store = MemoStore::new(MemoConfig::default());
        let (a, b, b2) = (page_rows(1), page_rows(2), page_rows(3));
        let page = rows_bytes(&a) as u64;
        let own = seed_of(&[(1, &a), (2, &b)]).own_bytes() as u64;
        // Snapshot 1 and 2 differ in page 2 only.
        store.insert(key(1, 1, EntryKind::Seed), 0, seed_of(&[(1, &a), (2, &b)]));
        assert_eq!(store.stats().bytes, own + 2 * page);
        store.insert(key(1, 2, EntryKind::Seed), 0, seed_of(&[(1, &a), (2, &b2)]));
        assert_eq!(store.stats().bytes, 2 * own + 3 * page);
        // Dropping the first seed gives back the one page only it held.
        assert!(store.lookup(&key(1, 1, EntryKind::Seed), 9).is_none());
        assert_eq!(store.stats().bytes, own + 2 * page);
        assert!(store.lookup(&key(1, 2, EntryKind::Seed), 9).is_none());
        assert_eq!(store.stats().bytes, 0);
    }

    #[test]
    fn eviction_honours_the_budget_over_shared_pages() {
        // 32 snapshots of a 16-page table, each changing one page: kept
        // in full they would be 32 × 16 page vectors, shared they are 47.
        let base: Vec<Arc<Vec<Row>>> = (0..16).map(page_rows).collect();
        let page = rows_bytes(&base[0]);
        let budget = 24 * page;
        let store = MemoStore::new(MemoConfig {
            byte_budget: budget,
            ..MemoConfig::default()
        });
        let mut current = base;
        for sid in 0..32u64 {
            current[(sid % 16) as usize] = page_rows(100 + sid as i64);
            let pages: Vec<(u64, &Arc<Vec<Row>>)> = (0u64..).zip(&current).collect();
            store.insert(key(1, sid, EntryKind::Seed), 0, seed_of(&pages));
            assert!(store.stats().bytes <= budget as u64, "{:?}", store.stats());
        }
        let s = store.stats();
        assert!(
            s.evictions > 0 && s.evictions < 31,
            "evictions={}",
            s.evictions
        );
        assert!(store.lookup(&key(1, 31, EntryKind::Seed), 0).is_some());
        assert!(store.lookup(&key(1, 0, EntryKind::Seed), 0).is_none());
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
