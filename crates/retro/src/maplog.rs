//! The Maplog: append-only log of (page → Pagelog offset) mappings with
//! snapshot boundary markers.
//!
//! "The pre-states are indexed at low cost by simply recording a mapping
//! that associates a snapshot page P with its Pagelog location. Retro
//! writes the mappings to an on-disk log-structured list called Maplog"
//! (paper §4). Mappings appended while snapshot S is the latest declared
//! snapshot are the pre-states *as of S*; a snapshot page table for S is
//! built by scanning forward from S's boundary, keeping the first
//! occurrence of every page.
//!
//! The in-memory Maplog keeps the raw entries (for linear scans and for
//! sealing Skippy segments), the boundary index, and the [`Skippy`]
//! skip levels. An optional [`LogStorage`] persists entries so the
//! structure survives restarts.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rql_pagestore::{LogStorage, PageId, Result, StoreError};

use crate::skippy::Skippy;

/// Boundary marker for one declared snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// Snapshot id (dense, starting at 1).
    pub snap_id: u64,
    /// Index of the first Maplog entry recorded after this declaration.
    pub entry_start: usize,
    /// Database page count at declaration (the snapshot's page universe).
    pub page_count: u64,
}

/// Result of a snapshot page table build.
#[derive(Debug)]
pub struct SptScan {
    /// page → Pagelog offset for every page archived since the snapshot.
    pub map: HashMap<PageId, u64>,
    /// Maplog entries touched by the scan.
    pub entries_scanned: u64,
}

/// On-log record kinds for persistence.
const REC_MAPPING: u8 = 1;
const REC_BOUNDARY: u8 = 2;

/// The Maplog.
pub struct Maplog {
    /// All mappings in append order.
    entries: Vec<(PageId, u64)>,
    /// One boundary per declared snapshot, in declaration order.
    boundaries: Vec<Boundary>,
    /// Skip levels over *sealed* intervals (all but the most recent).
    skippy: Skippy,
    /// Optional persistence.
    persist: Option<Arc<dyn LogStorage>>,
}

impl Maplog {
    /// New empty Maplog with no persistence.
    pub fn new() -> Self {
        Maplog {
            entries: Vec::new(),
            boundaries: Vec::new(),
            skippy: Skippy::new(),
            persist: None,
        }
    }

    /// New Maplog persisted to `storage`, replaying any existing records.
    pub fn open(storage: Arc<dyn LogStorage>) -> Result<Self> {
        let mut maplog = Maplog::new();
        let len = storage.len();
        let mut off = 0u64;
        while off < len {
            let mut kind = [0u8; 1];
            storage.read_at(off, &mut kind)?;
            let mut body = [0u8; 16];
            storage.read_at(off + 1, &mut body)?;
            let word = |at: usize| u64::from_le_bytes(std::array::from_fn(|i| body[at + i]));
            let (a, b) = (word(0), word(8));
            match kind[0] {
                REC_MAPPING => maplog.append_mapping_inner(PageId(a), b),
                REC_BOUNDARY => maplog.declare_snapshot_inner(a, b),
                k => {
                    return Err(StoreError::Corrupt(format!(
                        "maplog: unknown record kind {k} at offset {off}"
                    )))
                }
            }
            off += 17;
        }
        maplog.persist = Some(storage);
        Ok(maplog)
    }

    fn persist_record(&self, kind: u8, a: u64, b: u64) -> Result<()> {
        if let Some(storage) = &self.persist {
            let mut rec = [0u8; 17];
            rec[0] = kind;
            rec[1..9].copy_from_slice(&a.to_le_bytes());
            rec[9..17].copy_from_slice(&b.to_le_bytes());
            storage.append(&rec)?;
        }
        Ok(())
    }

    /// Record a snapshot declaration: seals the previous interval into
    /// Skippy and opens a new one. `snap_id` must be the next dense id.
    pub fn declare_snapshot(&mut self, snap_id: u64, page_count: u64) -> Result<()> {
        self.persist_record(REC_BOUNDARY, snap_id, page_count)?;
        self.declare_snapshot_inner(snap_id, page_count);
        Ok(())
    }

    fn declare_snapshot_inner(&mut self, snap_id: u64, page_count: u64) {
        debug_assert_eq!(
            snap_id,
            self.boundaries.len() as u64 + 1,
            "snapshot ids must be dense"
        );
        if let Some(last) = self.boundaries.last() {
            // Seal the now-complete previous interval.
            let raw = &self.entries[last.entry_start..];
            self.skippy.push_interval(raw);
        }
        self.boundaries.push(Boundary {
            snap_id,
            entry_start: self.entries.len(),
            page_count,
        });
    }

    /// Append a mapping for the *latest* declared snapshot.
    pub fn append_mapping(&mut self, page: PageId, pagelog_off: u64) -> Result<()> {
        debug_assert!(
            !self.boundaries.is_empty(),
            "mappings require a declared snapshot"
        );
        self.persist_record(REC_MAPPING, page.0, pagelog_off)?;
        self.append_mapping_inner(page, pagelog_off);
        Ok(())
    }

    fn append_mapping_inner(&mut self, page: PageId, pagelog_off: u64) {
        self.entries.push((page, pagelog_off));
    }

    /// Boundary for `snap_id`, if declared.
    pub fn boundary(&self, snap_id: u64) -> Option<&Boundary> {
        if snap_id == 0 {
            return None;
        }
        self.boundaries.get(snap_id as usize - 1)
    }

    /// Number of declared snapshots.
    pub fn snapshot_count(&self) -> u64 {
        self.boundaries.len() as u64
    }

    /// Total mappings recorded.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// All mappings in append order (an owned copy, so callers can walk
    /// them — e.g. to rebuild archived sidecars — without holding the
    /// Maplog lock).
    pub fn entries(&self) -> Vec<(PageId, u64)> {
        self.entries.clone()
    }

    /// Build the snapshot page table for `snap_id`.
    ///
    /// With `use_skippy` the sealed intervals are covered by skip-level
    /// segments (`O(n log n)` entries); without it the raw log is scanned
    /// linearly (the ablation baseline). The open interval (entries after
    /// the latest declaration) is always scanned raw.
    pub fn build_spt(&self, snap_id: u64, use_skippy: bool) -> Result<SptScan> {
        let boundary = *self
            .boundary(snap_id)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {snap_id}")))?;
        let from_interval = (snap_id - 1) as usize;
        let sealed = self.skippy.sealed_intervals();
        let mut map = HashMap::new();
        let mut scanned = 0u64;
        if use_skippy {
            scanned += self
                .skippy
                .scan_into(from_interval, boundary.page_count, &mut map);
        } else {
            // Linear scan over the sealed portion.
            let sealed_end_entry = if sealed == 0 {
                boundary.entry_start
            } else {
                // Entry index where the open interval starts.
                self.boundaries
                    .get(sealed)
                    .map_or(self.entries.len(), |b| b.entry_start)
            };
            let start = boundary.entry_start.min(sealed_end_entry);
            for &(pid, off) in &self.entries[start..sealed_end_entry] {
                scanned += 1;
                if pid.0 < boundary.page_count {
                    map.entry(pid).or_insert(off);
                }
            }
        }
        // Open interval: entries after the latest declaration.
        if let Some(last) = self.boundaries.last() {
            let open_start = last.entry_start.max(boundary.entry_start);
            for &(pid, off) in &self.entries[open_start..] {
                scanned += 1;
                if pid.0 < boundary.page_count {
                    map.entry(pid).or_insert(off);
                }
            }
        }
        Ok(SptScan {
            map,
            entries_scanned: scanned,
        })
    }

    /// Build snapshot page tables for a whole set of snapshots
    /// incrementally: one full scan for the *newest* snapshot, then each
    /// older SPT is derived from its successor by overlaying only the
    /// Maplog entries recorded between the two declarations.
    ///
    /// An SPT is the first occurrence of every page scanning forward from
    /// the snapshot's boundary, so for consecutive ids `a < b`:
    /// `SPT(a) = firstocc(entries in [boundary(a), boundary(b))) ⊕ SPT(b)`
    /// (interval entries win; the successor supplies the rest). Total work
    /// is `O(entries)` for the whole chain instead of `O(k · entries)`.
    ///
    /// Returns one scan per input id, in input order; `entries_scanned`
    /// reflects the incremental cost actually paid for that id (full scan
    /// for the newest, interval length for the rest, zero for repeats).
    pub fn build_spt_chain(&self, ids: &[u64], use_skippy: bool) -> Result<Vec<SptScan>> {
        let mut uniq: Vec<u64> = ids.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let boundary = |id: u64| {
            self.boundary(id)
                .copied()
                .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {id}")))
        };
        for &id in &uniq {
            boundary(id)?;
        }
        let Some(&newest) = uniq.last() else {
            return Ok(Vec::new());
        };
        let mut built: HashMap<u64, (HashMap<PageId, u64>, u64)> = HashMap::new();
        let scan = self.build_spt(newest, use_skippy)?;
        built.insert(newest, (scan.map, scan.entries_scanned));
        let mut later = newest;
        for &id in uniq.iter().rev().skip(1) {
            let b = boundary(id)?;
            let b_later = boundary(later)?;
            let mut map = HashMap::new();
            let mut scanned = 0u64;
            // First occurrences within (boundary(id), boundary(later)].
            for &(pid, off) in &self.entries[b.entry_start..b_later.entry_start] {
                scanned += 1;
                if pid.0 < b.page_count {
                    map.entry(pid).or_insert(off);
                }
            }
            // Pages untouched in the interval inherit the successor's
            // location (page counts only grow, so filtering by this
            // snapshot's universe suffices).
            let (later_map, _) = &built[&later];
            for (&pid, &off) in later_map {
                if pid.0 < b.page_count {
                    map.entry(pid).or_insert(off);
                }
            }
            built.insert(id, (map, scanned));
            later = id;
        }
        let mut first_use: HashMap<u64, bool> = HashMap::new();
        Ok(ids
            .iter()
            .map(|id| {
                let (map, scanned) = &built[id];
                // Repeated ids reuse the already-built map at no scan cost.
                let fresh = first_use.insert(*id, true).is_none();
                SptScan {
                    map: map.clone(),
                    entries_scanned: if fresh { *scanned } else { 0 },
                }
            })
            .collect())
    }

    /// Pages whose content may differ between snapshots `s1` and `s2` —
    /// the complement of the paper's `shared(S1, S2)`: every page with a
    /// Maplog entry between the two declarations (modified in the window,
    /// in either direction) plus any pages allocated between them.
    ///
    /// The result is a conservative superset of the truly-differing pages
    /// (a write that restores identical bytes still counts), which is the
    /// safe direction for delta computations.
    pub fn changed_pages(&self, s1: u64, s2: u64) -> Result<HashSet<PageId>> {
        let (lo_id, hi_id) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let lo = *self
            .boundary(lo_id)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {lo_id}")))?;
        let hi = *self
            .boundary(hi_id)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {hi_id}")))?;
        let mut set = HashSet::new();
        let universe = lo.page_count.max(hi.page_count);
        for &(pid, _) in &self.entries[lo.entry_start..hi.entry_start] {
            if pid.0 < universe {
                set.insert(pid);
            }
        }
        // Universe mismatch: pages that exist in one snapshot only.
        for p in lo.page_count.min(hi.page_count)..universe {
            set.insert(PageId(p));
        }
        Ok(set)
    }

    /// Space held by the skip levels (entries), for space-overhead tests.
    pub fn skippy_entries(&self) -> usize {
        self.skippy.total_entries()
    }

    /// Force persisted records to stable storage (no-op when the Maplog
    /// is memory-only).
    pub fn sync(&self) -> Result<()> {
        match &self.persist {
            Some(storage) => storage.sync(),
            None => Ok(()),
        }
    }
}

impl Default for Maplog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_pagestore::MemStorage;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    /// History: declare S1 (pages 0..4), modify P0,P1; declare S2, modify
    /// P1,P2; declare S3, modify P0.
    fn sample() -> Maplog {
        let mut m = Maplog::new();
        m.declare_snapshot(1, 4).unwrap();
        m.append_mapping(pid(0), 0).unwrap();
        m.append_mapping(pid(1), 64).unwrap();
        m.declare_snapshot(2, 4).unwrap();
        m.append_mapping(pid(1), 128).unwrap();
        m.append_mapping(pid(2), 192).unwrap();
        m.declare_snapshot(3, 4).unwrap();
        m.append_mapping(pid(0), 256).unwrap();
        m
    }

    #[test]
    fn spt_first_occurrence_semantics() {
        let m = sample();
        // S1 sees its own interval's pre-states first.
        let spt1 = m.build_spt(1, true).unwrap();
        assert_eq!(spt1.map[&pid(0)], 0);
        assert_eq!(spt1.map[&pid(1)], 64);
        assert_eq!(spt1.map[&pid(2)], 192);
        assert_eq!(spt1.map.len(), 3); // P3 never archived → shared with DB

        // S2: P1's pre-state as-of S2 is at 128 (not S1's 64).
        let spt2 = m.build_spt(2, true).unwrap();
        assert_eq!(spt2.map[&pid(1)], 128);
        assert_eq!(spt2.map[&pid(2)], 192);
        assert_eq!(spt2.map[&pid(0)], 256); // archived during S3's interval
                                            // S3: only P0 archived since.
        let spt3 = m.build_spt(3, true).unwrap();
        assert_eq!(spt3.map.len(), 1);
        assert_eq!(spt3.map[&pid(0)], 256);
    }

    #[test]
    fn skippy_and_linear_agree() {
        let m = sample();
        for sid in 1..=3 {
            let a = m.build_spt(sid, true).unwrap();
            let b = m.build_spt(sid, false).unwrap();
            assert_eq!(a.map, b.map, "snapshot {sid}");
        }
    }

    #[test]
    fn page_limit_excludes_late_allocations() {
        let mut m = Maplog::new();
        m.declare_snapshot(1, 2).unwrap(); // snapshot has pages 0..2
        m.append_mapping(pid(0), 0).unwrap();
        m.append_mapping(pid(5), 64).unwrap(); // page allocated after S1
        let spt = m.build_spt(1, true).unwrap();
        assert_eq!(spt.map.len(), 1);
        assert!(spt.map.contains_key(&pid(0)));
    }

    #[test]
    fn unknown_snapshot_errors() {
        let m = sample();
        assert!(m.build_spt(0, true).is_err());
        assert!(m.build_spt(9, true).is_err());
    }

    #[test]
    fn persistence_roundtrip() {
        let storage = Arc::new(MemStorage::new());
        {
            let mut m = Maplog::open(storage.clone()).unwrap();
            m.declare_snapshot(1, 4).unwrap();
            m.append_mapping(pid(0), 0).unwrap();
            m.append_mapping(pid(1), 64).unwrap();
            m.declare_snapshot(2, 4).unwrap();
            m.append_mapping(pid(2), 128).unwrap();
        }
        let m = Maplog::open(storage).unwrap();
        assert_eq!(m.snapshot_count(), 2);
        assert_eq!(m.entry_count(), 3);
        let spt = m.build_spt(1, true).unwrap();
        assert_eq!(spt.map[&pid(0)], 0);
        assert_eq!(spt.map[&pid(2)], 128);
    }

    #[test]
    fn entries_scanned_reported() {
        let m = sample();
        let scan = m.build_spt(1, false).unwrap();
        assert_eq!(scan.entries_scanned, 5); // all five mappings
        let scan_latest = m.build_spt(3, true).unwrap();
        assert_eq!(scan_latest.entries_scanned, 1); // open interval only
    }

    #[test]
    fn incremental_chain_matches_from_scratch() {
        let m = sample();
        for use_skippy in [true, false] {
            let chain = m.build_spt_chain(&[1, 2, 3], use_skippy).unwrap();
            for (i, sid) in (1u64..=3).enumerate() {
                let scratch = m.build_spt(sid, use_skippy).unwrap();
                assert_eq!(chain[i].map, scratch.map, "snapshot {sid}");
            }
            // Incremental cost: newest pays its full scan, the rest pay
            // only their interval.
            assert_eq!(chain[2].entries_scanned, 1, "S3 open interval");
            assert_eq!(chain[1].entries_scanned, 2, "S2 interval");
            assert_eq!(chain[0].entries_scanned, 2, "S1 interval");
        }
    }

    #[test]
    fn chain_handles_subsets_and_repeats() {
        let m = sample();
        let chain = m.build_spt_chain(&[3, 1, 3], true).unwrap();
        assert_eq!(chain[0].map, m.build_spt(3, true).unwrap().map);
        assert_eq!(chain[1].map, m.build_spt(1, true).unwrap().map);
        assert_eq!(chain[2].map, chain[0].map);
        assert_eq!(chain[2].entries_scanned, 0, "repeat costs nothing");
        assert!(m.build_spt_chain(&[], true).unwrap().is_empty());
        assert!(m.build_spt_chain(&[9], true).is_err());
    }

    #[test]
    fn changed_pages_window() {
        let m = sample();
        // Window (S1, S2]: P0 and P1 were modified after S1's declaration
        // (their pre-states are the interval's entries). Cross-check: the
        // SPTs of S1 and S2 differ exactly on those two pages.
        let w = m.changed_pages(1, 2).unwrap();
        assert_eq!(w, [pid(0), pid(1)].into_iter().collect::<HashSet<_>>());
        // Symmetric in its arguments.
        assert_eq!(w, m.changed_pages(2, 1).unwrap());
        // Window (S2, S3]: P1 and P2. Same snapshot: nothing changed.
        assert_eq!(m.changed_pages(2, 3).unwrap().len(), 2);
        assert!(m.changed_pages(3, 3).unwrap().is_empty());
        // Non-adjacent window covers both intervals.
        let wide = m.changed_pages(1, 3).unwrap();
        assert_eq!(wide.len(), 3);
    }

    #[test]
    fn changed_pages_includes_universe_growth() {
        let mut m = Maplog::new();
        m.declare_snapshot(1, 2).unwrap();
        m.declare_snapshot(2, 5).unwrap(); // three pages allocated between
        let w = m.changed_pages(1, 2).unwrap();
        assert_eq!(
            w,
            [pid(2), pid(3), pid(4)].into_iter().collect::<HashSet<_>>()
        );
    }

    #[test]
    fn boundary_lookup() {
        let m = sample();
        let b = m.boundary(2).unwrap();
        assert_eq!(b.snap_id, 2);
        assert_eq!(b.entry_start, 2);
        assert_eq!(b.page_count, 4);
        assert!(m.boundary(0).is_none());
    }
}
