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
//! The in-memory Maplog keeps the raw entries (for sealing Skippy
//! segments and scanning the open interval), the boundary index, and the
//! [`Skippy`] skip levels. An optional [`LogStorage`] persists entries so the
//! structure survives restarts.

use std::collections::HashMap;
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

    /// Build the snapshot page table for `snap_id`: the sealed intervals
    /// are covered by skip-level segments (`O(n log n)` entries), the open
    /// interval (entries after the latest declaration) is scanned raw.
    pub fn build_spt(&self, snap_id: u64) -> Result<SptScan> {
        let boundary = *self
            .boundary(snap_id)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown snapshot {snap_id}")))?;
        let mut map = HashMap::new();
        let mut scanned =
            (self.skippy).scan_into((snap_id - 1) as usize, boundary.page_count, &mut map);
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
        let spt1 = m.build_spt(1).unwrap();
        assert_eq!(spt1.map[&pid(0)], 0);
        assert_eq!(spt1.map[&pid(1)], 64);
        assert_eq!(spt1.map[&pid(2)], 192);
        assert_eq!(spt1.map.len(), 3); // P3 never archived → shared with DB

        // S2: P1's pre-state as-of S2 is at 128 (not S1's 64).
        let spt2 = m.build_spt(2).unwrap();
        assert_eq!(spt2.map[&pid(1)], 128);
        assert_eq!(spt2.map[&pid(2)], 192);
        assert_eq!(spt2.map[&pid(0)], 256); // archived during S3's interval
                                            // S3: only P0 archived since.
        let spt3 = m.build_spt(3).unwrap();
        assert_eq!(spt3.map.len(), 1);
        assert_eq!(spt3.map[&pid(0)], 256);
    }

    /// The first occurrence of every page scanning the raw entries forward
    /// from `sid`'s boundary: what the skip levels must reproduce.
    fn linear_spt(m: &Maplog, sid: u64) -> HashMap<PageId, u64> {
        let b = m.boundary(sid).unwrap();
        let mut map = HashMap::new();
        for &(pid, off) in &m.entries()[b.entry_start..] {
            if pid.0 < b.page_count {
                map.entry(pid).or_insert(off);
            }
        }
        map
    }

    #[test]
    fn skippy_and_linear_agree() {
        let m = sample();
        for sid in 1..=3 {
            assert_eq!(
                m.build_spt(sid).unwrap().map,
                linear_spt(&m, sid),
                "snapshot {sid}"
            );
        }
    }

    #[test]
    fn page_limit_excludes_late_allocations() {
        let mut m = Maplog::new();
        m.declare_snapshot(1, 2).unwrap(); // snapshot has pages 0..2
        m.append_mapping(pid(0), 0).unwrap();
        m.append_mapping(pid(5), 64).unwrap(); // page allocated after S1
        let spt = m.build_spt(1).unwrap();
        assert_eq!(spt.map.len(), 1);
        assert!(spt.map.contains_key(&pid(0)));
    }

    #[test]
    fn unknown_snapshot_errors() {
        let m = sample();
        assert!(m.build_spt(0).is_err());
        assert!(m.build_spt(9).is_err());
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
        let spt = m.build_spt(1).unwrap();
        assert_eq!(spt.map[&pid(0)], 0);
        assert_eq!(spt.map[&pid(2)], 128);
    }

    #[test]
    fn entries_scanned_reported() {
        let m = sample();
        let scan = m.build_spt(1).unwrap();
        // The two sealed intervals' four mappings merge into one segment
        // of three pages; the open interval adds its one raw entry.
        assert_eq!(scan.entries_scanned, 4);
        let scan_latest = m.build_spt(3).unwrap();
        assert_eq!(scan_latest.entries_scanned, 1); // open interval only
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
