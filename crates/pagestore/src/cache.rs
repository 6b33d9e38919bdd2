//! Shared LRU buffer cache for database and snapshot pages.
//!
//! Retro "caches snapshot pages in a buffer cache along with the database
//! pages" (paper §4). The detail that makes RQL hot iterations cheap is the
//! cache *key*: a snapshot page is keyed by its **Pagelog offset**, not by
//! `(snapshot, page)`. Two consecutive snapshots S1, S2 map every page in
//! `shared(S1,S2)` to the *same* Pagelog pre-state, so a page fetched while
//! computing on S1 hits in cache when the next iteration computes on S2 —
//! exactly the sharing effect of Figures 6–8.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parking_lot::Mutex;

use crate::page::{PageId, SharedPage};

/// What a cached page is identified by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// A current-database page (used only when the DB is file-backed;
    /// the paper assumes the current DB is memory-resident).
    Db(PageId),
    /// A snapshot pre-state, identified by its Pagelog offset. Shared
    /// between all snapshots whose SPT maps to this offset.
    Pagelog(u64),
}

const NIL: usize = usize::MAX;

struct Node {
    key: CacheKey,
    page: SharedPage,
    prev: usize,
    next: usize,
}

struct LruInner {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

/// Caches at least this large are split into [`SHARD_COUNT`] shards so
/// concurrent sessions don't serialize on a single mutex. Smaller caches
/// stay single-sharded: their unit tests rely on *exact* global LRU
/// order, which sharding only approximates.
const SHARD_THRESHOLD: usize = 4096;
/// Number of shards for large caches (power of two, see [`shard_index`]).
const SHARD_COUNT: usize = 8;

/// A fixed-capacity LRU page cache, safe to share between threads.
///
/// Internally sharded for large capacities: each shard is an independent
/// LRU with `capacity / shards` pages, keyed by a hash of the
/// [`CacheKey`], so the read path's lock hold time covers only a map
/// lookup and two list splices — never I/O (the fetch path reads the
/// Pagelog *outside* the cache lock and inserts afterwards).
pub struct BufferCache {
    shards: Box<[Mutex<LruInner>]>,
}

/// Which shard a key lives in. FxHash-style multiply-mix over the
/// discriminant and payload — cheap enough for the hot read path.
fn shard_index(key: &CacheKey, n: usize) -> usize {
    struct Mix(u64);
    impl Hasher for Mix {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut h = Mix(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    // Fold high bits in: the low bits of a multiply-mix are the weakest.
    ((h.finish() >> 32) as usize ^ h.finish() as usize) & (n - 1)
}

impl BufferCache {
    /// Create a cache holding at most `capacity` pages. A capacity of zero
    /// disables caching entirely (every lookup misses).
    pub fn new(capacity: usize) -> Self {
        let n = if capacity >= SHARD_THRESHOLD {
            SHARD_COUNT
        } else {
            1
        };
        let shards: Vec<Mutex<LruInner>> = (0..n)
            .map(|i| {
                Mutex::new(LruInner {
                    map: HashMap::new(),
                    nodes: Vec::new(),
                    free: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    capacity: capacity / n + usize::from(i < capacity % n),
                })
            })
            .collect();
        BufferCache {
            shards: shards.into_boxed_slice(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<LruInner> {
        &self.shards[shard_index(key, self.shards.len())]
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<SharedPage> {
        let mut inner = self.shard(key).lock();
        let idx = *inner.map.get(key)?;
        inner.unlink(idx);
        inner.push_front(idx);
        Some(inner.nodes[idx].page.clone())
    }

    /// Insert `page` under `key`, evicting the least-recently-used entry
    /// of the key's shard if at capacity. Returns the number of evictions
    /// performed (0 or 1).
    pub fn insert(&self, key: CacheKey, page: SharedPage) -> usize {
        let mut inner = self.shard(&key).lock();
        if inner.capacity == 0 {
            return 0;
        }
        if let Some(&idx) = inner.map.get(&key) {
            inner.nodes[idx].page = page;
            inner.unlink(idx);
            inner.push_front(idx);
            return 0;
        }
        let mut evictions = 0;
        if inner.map.len() >= inner.capacity {
            inner.evict_lru();
            evictions = 1;
        }
        let idx = inner.alloc(key, page);
        inner.map.insert(key, idx);
        inner.push_front(idx);
        evictions
    }

    /// Remove every entry (used to force all-cold runs in experiments).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut inner = shard.lock();
            inner.map.clear();
            inner.nodes.clear();
            inner.free.clear();
            inner.head = NIL;
            inner.tail = NIL;
        }
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Change the capacity; shrinking evicts LRU entries immediately
    /// (per shard). Returns the number of entries evicted. The shard
    /// count is fixed at construction, so growing a small cache past the
    /// sharding threshold keeps it single-sharded.
    pub fn set_capacity(&self, capacity: usize) -> usize {
        let n = self.shards.len();
        let mut evicted = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut inner = shard.lock();
            inner.capacity = capacity / n + usize::from(i < capacity % n);
            while inner.map.len() > inner.capacity {
                inner.evict_lru();
                evicted += 1;
            }
        }
        evicted
    }

    /// Current capacity in pages.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }

    /// Number of independent LRU shards (1 for small caches).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl LruInner {
    fn alloc(&mut self, key: CacheKey, page: SharedPage) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                page,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                page,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict called on empty cache");
        self.unlink(idx);
        let key = self.nodes[idx].key;
        self.map.remove(&key);
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use std::sync::Arc;

    fn page(tag: u8) -> SharedPage {
        let mut p = Page::zeroed(16);
        p.bytes_mut()[0] = tag;
        Arc::new(p)
    }

    #[test]
    fn hit_and_miss() {
        let c = BufferCache::new(4);
        let k = CacheKey::Pagelog(10);
        assert!(c.get(&k).is_none());
        c.insert(k, page(1));
        assert_eq!(c.get(&k).unwrap().bytes()[0], 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = BufferCache::new(2);
        c.insert(CacheKey::Pagelog(1), page(1));
        c.insert(CacheKey::Pagelog(2), page(2));
        // Touch 1 so 2 becomes LRU.
        c.get(&CacheKey::Pagelog(1)).unwrap();
        let evictions = c.insert(CacheKey::Pagelog(3), page(3));
        assert_eq!(evictions, 1);
        assert!(c.get(&CacheKey::Pagelog(2)).is_none());
        assert!(c.get(&CacheKey::Pagelog(1)).is_some());
        assert!(c.get(&CacheKey::Pagelog(3)).is_some());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let c = BufferCache::new(2);
        c.insert(CacheKey::Pagelog(1), page(1));
        let evictions = c.insert(CacheKey::Pagelog(1), page(9));
        assert_eq!(evictions, 0);
        assert_eq!(c.get(&CacheKey::Pagelog(1)).unwrap().bytes()[0], 9);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let c = BufferCache::new(0);
        c.insert(CacheKey::Pagelog(1), page(1));
        assert!(c.get(&CacheKey::Pagelog(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let c = BufferCache::new(4);
        c.insert(CacheKey::Pagelog(1), page(1));
        c.insert(CacheKey::Db(PageId(2)), page(2));
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&CacheKey::Pagelog(1)).is_none());
    }

    #[test]
    fn shrink_capacity_evicts() {
        let c = BufferCache::new(4);
        for i in 0..4 {
            c.insert(CacheKey::Pagelog(i), page(i as u8));
        }
        let evicted = c.set_capacity(2);
        assert_eq!(evicted, 2);
        assert_eq!(c.len(), 2);
        // The two most recently used (2, 3) survive.
        assert!(c.get(&CacheKey::Pagelog(3)).is_some());
        assert!(c.get(&CacheKey::Pagelog(2)).is_some());
        assert!(c.get(&CacheKey::Pagelog(0)).is_none());
    }

    #[test]
    fn distinct_key_kinds_do_not_collide() {
        let c = BufferCache::new(8);
        c.insert(CacheKey::Db(PageId(1)), page(1));
        c.insert(CacheKey::Pagelog(1), page(2));
        assert_eq!(c.get(&CacheKey::Db(PageId(1))).unwrap().bytes()[0], 1);
        assert_eq!(c.get(&CacheKey::Pagelog(1)).unwrap().bytes()[0], 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let c = BufferCache::new(16);
        for round in 0..1000u64 {
            c.insert(CacheKey::Pagelog(round % 40), page((round % 251) as u8));
            if round % 3 == 0 {
                c.get(&CacheKey::Pagelog(round % 17));
            }
        }
        assert!(c.len() <= 16);
    }

    #[test]
    fn small_caches_are_single_sharded_large_are_not() {
        assert_eq!(BufferCache::new(16).shard_count(), 1);
        assert_eq!(BufferCache::new(0).shard_count(), 1);
        let big = BufferCache::new(1 << 16);
        assert!(big.shard_count() > 1);
        // Shard capacities sum to the requested total.
        assert_eq!(big.capacity(), 1 << 16);
        assert_eq!(big.set_capacity(1 << 10), 0);
        assert_eq!(big.capacity(), 1 << 10);
    }

    #[test]
    fn sharded_cache_round_trips_and_bounds_size() {
        let c = BufferCache::new(8192);
        for i in 0..10_000u64 {
            c.insert(CacheKey::Pagelog(i), page((i % 251) as u8));
        }
        assert!(c.len() <= 8192);
        // Recent keys should still be resident and byte-correct.
        let hits = (9_000..10_000u64)
            .filter(|&i| match c.get(&CacheKey::Pagelog(i)) {
                Some(p) => {
                    assert_eq!(p.bytes()[0], (i % 251) as u8);
                    true
                }
                None => false,
            })
            .count();
        assert!(hits > 500, "expected most recent keys resident, got {hits}");
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_readers_and_writers_stay_coherent() {
        let c = Arc::new(BufferCache::new(8192));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = CacheKey::Pagelog(t * 10_000 + i);
                        c.insert(k, page((i % 251) as u8));
                        if let Some(p) = c.get(&k) {
                            assert_eq!(p.bytes()[0], (i % 251) as u8);
                        }
                        // Cross-thread reads of a shared hot set.
                        c.get(&CacheKey::Pagelog(i % 64));
                    }
                });
            }
        });
        assert!(c.len() <= 8192);
    }
}
