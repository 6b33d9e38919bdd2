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
//! least-recently-used eviction across all shards, plus an optional
//! disk-spill tier. The spill tier is strictly best-effort: every file
//! carries a magic, key echo and checksum, and **any** IO or corruption
//! failure degrades to a cache miss (the caller recomputes) — a cache
//! fault never fails a query. Spilled entries do not outlive the store
//! incarnation that wrote them.

#![warn(missing_docs)]

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rql_sqlengine::record::{decode_row, encode_row, encoded_len};
use rql_sqlengine::{Row, ScannerSeed, SeedPage};

const MAGIC: &[u8; 8] = b"RQLMEMO1";
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
    /// Optional directory for the disk-spill tier. Entries are written
    /// through on insert and read back on memory misses; the directory
    /// is created on demand.
    pub spill_dir: Option<PathBuf>,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            shards: 8,
            byte_budget: 64 << 20,
            spill_dir: None,
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

impl EntryKind {
    fn tag(self) -> u8 {
        match self {
            EntryKind::Result => 0,
            EntryKind::Seed => 1,
        }
    }
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

    fn encode(&self, out: &mut Vec<u8>) {
        fn put_rows(rows: &[Row], out: &mut Vec<u8>) {
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                let mut buf = Vec::with_capacity(encoded_len(row));
                encode_row(row, &mut buf);
                out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
                out.extend_from_slice(&buf);
            }
        }
        match self {
            MemoValue::Result(r) => {
                out.push(0);
                out.extend_from_slice(&(r.columns.len() as u32).to_le_bytes());
                for c in &r.columns {
                    out.extend_from_slice(&(c.len() as u32).to_le_bytes());
                    out.extend_from_slice(c.as_bytes());
                }
                put_rows(&r.rows, out);
            }
            MemoValue::Seed(seed) => {
                out.push(1);
                out.extend_from_slice(&seed.root.to_le_bytes());
                out.extend_from_slice(&(seed.pages.len() as u32).to_le_bytes());
                for p in &seed.pages {
                    out.extend_from_slice(&p.page.to_le_bytes());
                    out.push(u8::from(p.next.is_some()));
                    out.extend_from_slice(&p.next.unwrap_or(0).to_le_bytes());
                    put_rows(&p.rows, out);
                }
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<MemoValue> {
        struct Cur<'a>(&'a [u8]);
        impl<'a> Cur<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                if self.0.len() < n {
                    return None;
                }
                let (head, tail) = self.0.split_at(n);
                self.0 = tail;
                Some(head)
            }
            fn u8(&mut self) -> Option<u8> {
                self.take(1).map(|b| b[0])
            }
            fn u32(&mut self) -> Option<u32> {
                self.take(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            fn u64(&mut self) -> Option<u64> {
                let b = self.take(8)?;
                let mut a = [0u8; 8];
                a.copy_from_slice(b);
                Some(u64::from_le_bytes(a))
            }
            fn rows(&mut self) -> Option<Vec<Row>> {
                let n = self.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let len = self.u32()? as usize;
                    let buf = self.take(len)?;
                    rows.push(decode_row(buf).ok()?);
                }
                Some(rows)
            }
        }
        let mut cur = Cur(bytes);
        let value = match cur.u8()? {
            0 => {
                let ncols = cur.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1 << 12));
                for _ in 0..ncols {
                    let len = cur.u32()? as usize;
                    let raw = cur.take(len)?;
                    columns.push(String::from_utf8(raw.to_vec()).ok()?);
                }
                let rows = cur.rows()?;
                MemoValue::Result(Arc::new(QqRows { columns, rows }))
            }
            1 => {
                let root = cur.u64()?;
                let npages = cur.u32()? as usize;
                let mut pages = Vec::with_capacity(npages.min(1 << 16));
                for _ in 0..npages {
                    let page = cur.u64()?;
                    let has_next = cur.u8()? != 0;
                    let next = cur.u64()?;
                    pages.push(SeedPage {
                        page,
                        next: has_next.then_some(next),
                        rows: Arc::new(cur.rows()?),
                    });
                }
                MemoValue::Seed(Arc::new(ScannerSeed { root, pages }))
            }
            _ => return None,
        };
        cur.0.is_empty().then_some(value)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Point-in-time view of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStatsSnapshot {
    /// Lookups answered from the cache (memory or spill).
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries evicted from memory by the byte budget.
    pub evictions: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Current in-memory footprint (gauge).
    pub bytes: u64,
    /// Entries successfully read back from the spill tier.
    pub spill_reads: u64,
    /// Entries written to the spill tier.
    pub spill_writes: u64,
    /// Bytes written to the spill tier.
    pub spill_bytes: u64,
    /// Spill IO/corruption faults absorbed (each one degraded to a
    /// miss, never an error).
    pub spill_errors: u64,
}

impl MemoStatsSnapshot {
    /// Every counter as a stable `(name, value)` list, for exporters.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("evictions", self.evictions),
            ("inserts", self.inserts),
            ("bytes", self.bytes),
            ("spill_reads", self.spill_reads),
            ("spill_writes", self.spill_writes),
            ("spill_bytes", self.spill_bytes),
            ("spill_errors", self.spill_errors),
        ]
    }
}

#[derive(Debug, Default)]
struct MemoStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    bytes: AtomicU64,
    spill_reads: AtomicU64,
    spill_writes: AtomicU64,
    spill_bytes: AtomicU64,
    spill_errors: AtomicU64,
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
/// one byte budget, with snapshot-version verification and an optional
/// disk-spill tier. All methods are `&self` and thread-safe; one store
/// is meant to be shared across every session of a server.
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
    spill_dir: Option<PathBuf>,
    stats: MemoStats,
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoStore")
            .field("shards", &self.shards.len())
            .field("byte_budget", &self.byte_budget)
            .field("spill_dir", &self.spill_dir)
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
            spill_dir: config.spill_dir,
            stats: MemoStats::default(),
        }
    }

    fn shard_of(&self, key: &MemoKey) -> &Mutex<HashMap<MemoKey, Entry>> {
        let mixed = key
            .fingerprint
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.snap_id)
            .wrapping_add(u64::from(key.kind.tag()));
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up `key` as computed at snapshot version `version`. A hit
    /// returns a reference to the stored value (memory tier) or to the
    /// freshly decoded one (spill tier); nothing is copied. An entry
    /// under another version belongs to another store or incarnation: it
    /// is dropped from both tiers and the lookup misses.
    pub fn lookup(&self, key: &MemoKey, version: u64) -> Option<MemoValue> {
        let _span = rql_trace::span(rql_trace::SpanId::MemoProbe);
        let resident = {
            let mut shard = self.shard_of(key).lock();
            match shard.get_mut(key) {
                Some(e) if e.version == version => {
                    e.tick = self.next_tick();
                    Some(Some(e.value.clone()))
                }
                Some(_) => {
                    let foreign = shard.remove(key);
                    self.release(foreign);
                    Some(None)
                }
                None => None,
            }
        };
        let value = match resident {
            Some(Some(value)) => Some(value),
            Some(None) => {
                if let Some(p) = self.spill_path(key) {
                    let _ = fs::remove_file(p);
                }
                None
            }
            None => self.spill_lookup(key, version),
        };
        let counter = match value {
            Some(_) => &self.stats.hits,
            None => &self.stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Insert an artifact computed at snapshot version `version`.
    /// Write-through to the spill tier when configured; evicts
    /// least-recently-used entries until the store is back under budget.
    pub fn insert(&self, key: MemoKey, version: u64, value: MemoValue) {
        let _span = rql_trace::span(rql_trace::SpanId::MemoInsert);
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.spill_write(&key, version, &value);
        self.insert_mem(key, version, value);
    }

    fn insert_mem(&self, key: MemoKey, version: u64, value: MemoValue) {
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
        self.stats
            .bytes
            .fetch_add(charged as u64, Ordering::Relaxed);
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
        self.stats.bytes.fetch_sub(freed as u64, Ordering::Relaxed);
    }

    /// Evict the least recently used entry of any shard until the
    /// resident bytes fit the budget.
    fn evict_over_budget(&self) {
        while self.stats.bytes.load(Ordering::Relaxed) > self.byte_budget {
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
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> MemoStatsSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MemoStatsSnapshot {
            hits: g(&self.stats.hits),
            misses: g(&self.stats.misses),
            evictions: g(&self.stats.evictions),
            inserts: g(&self.stats.inserts),
            bytes: g(&self.stats.bytes),
            spill_reads: g(&self.stats.spill_reads),
            spill_writes: g(&self.stats.spill_writes),
            spill_bytes: g(&self.stats.spill_bytes),
            spill_errors: g(&self.stats.spill_errors),
        }
    }

    fn spill_path(&self, key: &MemoKey) -> Option<PathBuf> {
        self.spill_dir.as_ref().map(|d| {
            d.join(format!(
                "{:016x}-{}-{}.memo",
                key.fingerprint,
                key.snap_id,
                key.kind.tag()
            ))
        })
    }

    /// The spill tier's answer after a memory miss: a file written under
    /// the same version is promoted to memory and served; one written
    /// under another version is deleted.
    fn spill_lookup(&self, key: &MemoKey, version: u64) -> Option<MemoValue> {
        let path = self.spill_path(key).filter(|p| p.exists())?;
        let (stored, value) = self.spill_read(key, &path)?;
        if stored != version {
            let _ = fs::remove_file(&path);
            return None;
        }
        self.insert_mem(*key, version, value.clone());
        self.stats.spill_reads.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    fn spill_write(&self, key: &MemoKey, version: u64, value: &MemoValue) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        let _span = rql_trace::span(rql_trace::SpanId::MemoSpillWrite);
        let mut payload = Vec::new();
        value.encode(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 45);
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&key.fingerprint.to_le_bytes());
        frame.extend_from_slice(&key.snap_id.to_le_bytes());
        frame.push(key.kind.tag());
        frame.extend_from_slice(&version.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let tmp = path.with_extension(format!("tmp{}", self.next_tick()));
        let result = (|| -> std::io::Result<()> {
            if let Some(dir) = &self.spill_dir {
                fs::create_dir_all(dir)?;
            }
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&frame)?;
            f.sync_data()?;
            fs::rename(&tmp, &path)
        })();
        match result {
            Ok(()) => {
                self.stats.spill_writes.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .spill_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.stats.spill_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Read one spill file, verifying magic, key echo and checksum.
    /// Returns `(stored_version, value)`; any fault counts a `spill_error`,
    /// removes the file and returns `None` (the caller recomputes).
    fn spill_read(&self, key: &MemoKey, path: &Path) -> Option<(u64, MemoValue)> {
        let _span = rql_trace::span(rql_trace::SpanId::MemoSpillRead);
        let fault = || {
            self.stats.spill_errors.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(path);
        };
        let Ok(bytes) = fs::read(path) else {
            fault();
            return None;
        };
        let parsed = (|| -> Option<(u64, MemoValue)> {
            let header = 8 + 8 + 8 + 1 + 8 + 4 + 8;
            if bytes.len() < header || &bytes[..8] != MAGIC {
                return None;
            }
            let u64_at = |off: usize| {
                let mut a = [0u8; 8];
                a.copy_from_slice(&bytes[off..off + 8]);
                u64::from_le_bytes(a)
            };
            if u64_at(8) != key.fingerprint
                || u64_at(16) != key.snap_id
                || bytes[24] != key.kind.tag()
            {
                return None;
            }
            let version = u64_at(25);
            let len = u32::from_le_bytes([bytes[33], bytes[34], bytes[35], bytes[36]]) as usize;
            let checksum = u64_at(37);
            let payload = bytes.get(header..)?;
            if payload.len() != len || fnv1a(payload) != checksum {
                return None;
            }
            Some((version, MemoValue::decode(payload)?))
        })();
        if parsed.is_none() {
            fault();
        }
        parsed
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use rql_sqlengine::Value;
    use std::sync::atomic::AtomicU32;

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

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_spill_dir() -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rql-memo-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
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
    fn value_encoding_round_trips() {
        for v in [result_value(5), result_value(0), seed_value()] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(MemoValue::decode(&buf), Some(v));
        }
        assert!(MemoValue::decode(&[]).is_none());
        assert!(MemoValue::decode(&[9, 0, 0]).is_none());
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
    fn spill_serves_memory_misses() {
        let dir = temp_spill_dir();
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 1, // everything is evicted from memory at once
            spill_dir: Some(dir.clone()),
        });
        let k = key(0xabcd, 3, EntryKind::Seed);
        store.insert(k, 7, seed_value());
        let got = store.lookup(&k, 7);
        assert_eq!(got, Some(seed_value()));
        let s = store.stats();
        assert_eq!(s.spill_writes, 1);
        assert_eq!(s.spill_reads, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.spill_errors, 0);
        // A file left by another incarnation is deleted, not served.
        assert!(store.lookup(&k, 8).is_none());
        assert!(store.lookup(&k, 7).is_none());
        assert_eq!(store.stats().spill_reads, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_spill_degrades_to_miss() {
        let dir = temp_spill_dir();
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 1,
            spill_dir: Some(dir.clone()),
        });
        let k = key(0xbeef, 5, EntryKind::Result);
        store.insert(k, 1, result_value(4));
        // Flip bytes in the payload of the one spill file.
        let file = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "memo"))
            .unwrap();
        let mut bytes = fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&file, bytes).unwrap();

        assert!(store.lookup(&k, 1).is_none());
        let s = store.stats();
        assert_eq!(s.spill_errors, 1);
        assert_eq!(s.hits, 0);
        // The corrupt file was deleted; the key is now a clean cold miss.
        assert!(!file.exists());
        assert!(store.lookup(&k, 1).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn spill_io_failure_never_panics() {
        // A file where the directory should be: every write fails.
        let dir = temp_spill_dir();
        let bogus = dir.join("not-a-dir");
        fs::write(&bogus, b"x").unwrap();
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(bogus),
        });
        let k = key(1, 1, EntryKind::Result);
        store.insert(k, 0, result_value(2));
        assert!(store.stats().spill_errors >= 1);
        // The memory tier still works.
        assert_eq!(store.lookup(&k, 0), Some(result_value(2)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stats_fields_are_stable() {
        let names: Vec<&str> = MemoStatsSnapshot::default()
            .fields()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            [
                "hits",
                "misses",
                "evictions",
                "inserts",
                "bytes",
                "spill_reads",
                "spill_writes",
                "spill_bytes",
                "spill_errors"
            ]
        );
    }
}
