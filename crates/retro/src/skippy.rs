//! Skippy: skip-level index over the Maplog.
//!
//! Building a snapshot page table by linearly scanning the Maplog costs
//! time proportional to the *entire history* after the snapshot. Skippy
//! (Shaull, Shrira, Xu — SIGMOD'08, summarized in the RQL paper §4) layers
//! merged, deduplicated skip levels over the Maplog so that a scan touches
//! `O(n log n)` entries, where `n` is the number of pages in the snapshot,
//! independent of history length.
//!
//! This implementation uses the classic aligned power-of-two decomposition:
//! level 0 holds one segment per sealed snapshot interval (the Maplog
//! entries recorded while that snapshot was the latest declaration, with
//! only the first occurrence of each page kept); level `k` holds segments
//! covering `2^k` consecutive intervals, built by merging pairs from level
//! `k-1` as they complete (first occurrence wins). A scan over intervals
//! `[from .. sealed_end)` is decomposed greedily into the largest aligned
//! segments, so each page id is encountered only a logarithmic number of
//! times.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rql_pagestore::PageId;

/// One deduplicated run of (page → Pagelog offset) mappings, first
/// occurrence first.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    entries: Vec<(PageId, u64)>,
}

impl Segment {
    /// Build a level-0 segment from raw Maplog entries of one interval,
    /// keeping the first occurrence of each page.
    pub fn from_raw(raw: &[(PageId, u64)]) -> Self {
        let mut seen = HashMap::with_capacity(raw.len());
        let mut entries = Vec::with_capacity(raw.len());
        for &(pid, off) in raw {
            if let Entry::Vacant(v) = seen.entry(pid) {
                v.insert(());
                entries.push((pid, off));
            }
        }
        Segment { entries }
    }

    /// Merge two consecutive segments; mappings in `earlier` shadow
    /// mappings for the same page in `later` (a pre-state recorded while an
    /// earlier snapshot was latest is the one that snapshot needs).
    pub fn merge(earlier: &Segment, later: &Segment) -> Segment {
        let mut seen: HashMap<PageId, ()> =
            HashMap::with_capacity(earlier.entries.len() + later.entries.len());
        let mut entries = Vec::with_capacity(earlier.entries.len() + later.entries.len());
        for &(pid, off) in earlier.entries.iter().chain(later.entries.iter()) {
            if let Entry::Vacant(v) = seen.entry(pid) {
                v.insert(());
                entries.push((pid, off));
            }
        }
        Segment { entries }
    }

    /// Mappings in this segment.
    pub fn entries(&self) -> &[(PageId, u64)] {
        &self.entries
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the segment holds no mappings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The skip-level structure: `levels[k][j]` covers sealed intervals
/// `[j * 2^k, (j + 1) * 2^k)`.
#[derive(Debug, Default)]
pub struct Skippy {
    levels: Vec<Vec<Segment>>,
}

impl Skippy {
    /// Empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sealed intervals indexed.
    pub fn sealed_intervals(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Seal the next interval, indexing its raw Maplog entries.
    pub fn push_interval(&mut self, raw: &[(PageId, u64)]) {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(Segment::from_raw(raw));
        // Binary-counter merging: whenever a pair at level k completes,
        // produce its level-(k+1) segment.
        let mut k = 0;
        loop {
            let count = self.levels[k].len();
            if !count.is_multiple_of(2) {
                break;
            }
            let merged = Segment::merge(&self.levels[k][count - 2], &self.levels[k][count - 1]);
            if self.levels.len() == k + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[k + 1].push(merged);
            k += 1;
        }
    }

    /// Fold every mapping covering sealed intervals `[from ..)` into `spt`,
    /// first occurrence (earliest interval) winning; pages `>= page_limit`
    /// are skipped (they did not exist at the snapshot). Returns the number
    /// of entries scanned.
    ///
    /// `spt` may already contain mappings (never overwritten — but in
    /// practice the scan starts empty).
    pub fn scan_into(&self, from: usize, page_limit: u64, spt: &mut HashMap<PageId, u64>) -> u64 {
        let end = self.sealed_intervals();
        let mut scanned = 0u64;
        let mut i = from;
        while i < end {
            // Largest aligned power-of-two block starting at i that fits.
            let mut k = 0usize;
            while i.is_multiple_of(1 << (k + 1)) && i + (1 << (k + 1)) <= end {
                k += 1;
            }
            let seg = &self.levels[k][i >> k];
            scanned += seg.len() as u64;
            for &(pid, off) in seg.entries() {
                if pid.0 < page_limit {
                    spt.entry(pid).or_insert(off);
                }
            }
            i += 1 << k;
        }
        scanned
    }

    /// Linear-scan equivalent over raw per-interval entries (the no-Skippy
    /// ablation baseline). `raw_intervals[i]` are interval `i`'s raw
    /// entries.
    pub fn linear_scan_into(
        raw_intervals: &[&[(PageId, u64)]],
        from: usize,
        page_limit: u64,
        spt: &mut HashMap<PageId, u64>,
    ) -> u64 {
        let mut scanned = 0u64;
        for raw in &raw_intervals[from.min(raw_intervals.len())..] {
            scanned += raw.len() as u64;
            for &(pid, off) in raw.iter() {
                if pid.0 < page_limit {
                    spt.entry(pid).or_insert(off);
                }
            }
        }
        scanned
    }

    /// Total mappings stored across all levels (space accounting).
    pub fn total_entries(&self) -> usize {
        self.levels.iter().flatten().map(Segment::len).sum()
    }

    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn segment_dedupes_first_occurrence() {
        let seg = Segment::from_raw(&[(pid(1), 10), (pid(2), 20), (pid(1), 30)]);
        assert_eq!(seg.entries(), &[(pid(1), 10), (pid(2), 20)]);
    }

    #[test]
    fn merge_earlier_shadows_later() {
        let a = Segment::from_raw(&[(pid(1), 10)]);
        let b = Segment::from_raw(&[(pid(1), 99), (pid(2), 20)]);
        let m = Segment::merge(&a, &b);
        assert_eq!(m.entries(), &[(pid(1), 10), (pid(2), 20)]);
    }

    #[test]
    fn scan_matches_linear_scan() {
        // Deterministic pseudo-random interval contents.
        let mut intervals: Vec<Vec<(PageId, u64)>> = Vec::new();
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..13 {
            let n = (next() % 8) as usize + 1;
            let mut iv = Vec::new();
            for _ in 0..n {
                iv.push((pid(next() % 20), next() % 1000));
            }
            intervals.push(iv);
        }
        let mut sk = Skippy::new();
        for iv in &intervals {
            sk.push_interval(iv);
        }
        let raw_refs: Vec<&[(PageId, u64)]> =
            intervals.iter().map(std::vec::Vec::as_slice).collect();
        for from in 0..intervals.len() {
            let mut via_skippy = HashMap::new();
            let mut via_linear = HashMap::new();
            sk.scan_into(from, u64::MAX, &mut via_skippy);
            Skippy::linear_scan_into(&raw_refs, from, u64::MAX, &mut via_linear);
            assert_eq!(via_skippy, via_linear, "mismatch scanning from {from}");
        }
    }

    #[test]
    fn scan_respects_page_limit() {
        let mut sk = Skippy::new();
        sk.push_interval(&[(pid(1), 10), (pid(50), 20)]);
        let mut spt = HashMap::new();
        sk.scan_into(0, 10, &mut spt);
        assert_eq!(spt.len(), 1);
        assert_eq!(spt[&pid(1)], 10);
    }

    #[test]
    fn skippy_scans_fewer_entries_than_linear_for_old_snapshots() {
        // Every interval overwrites the same small page set, so high levels
        // collapse to that set while a linear scan touches everything.
        let intervals: Vec<Vec<(PageId, u64)>> = (0..64)
            .map(|i| (0..16u64).map(|p| (pid(p), i * 16 + p)).collect())
            .collect();
        let mut sk = Skippy::new();
        for iv in &intervals {
            sk.push_interval(iv);
        }
        let raw_refs: Vec<&[(PageId, u64)]> =
            intervals.iter().map(std::vec::Vec::as_slice).collect();
        let mut spt = HashMap::new();
        let skippy_scanned = sk.scan_into(0, u64::MAX, &mut spt);
        let mut spt2 = HashMap::new();
        let linear_scanned = Skippy::linear_scan_into(&raw_refs, 0, u64::MAX, &mut spt2);
        assert_eq!(spt, spt2);
        assert_eq!(linear_scanned, 64 * 16);
        // One level-6 segment of 16 entries covers everything.
        assert_eq!(skippy_scanned, 16);
    }

    #[test]
    fn empty_scan() {
        let sk = Skippy::new();
        let mut spt = HashMap::new();
        assert_eq!(sk.scan_into(0, u64::MAX, &mut spt), 0);
        assert!(spt.is_empty());
        assert_eq!(sk.level_count(), 0);
    }

    #[test]
    fn level_structure_is_binary_counter() {
        let mut sk = Skippy::new();
        for i in 0..6u64 {
            sk.push_interval(&[(pid(i), i)]);
        }
        // 6 intervals: levels sizes 6, 3, 1.
        assert_eq!(sk.sealed_intervals(), 6);
        assert_eq!(sk.levels[0].len(), 6);
        assert_eq!(sk.levels[1].len(), 3);
        assert_eq!(sk.levels[2].len(), 1);
    }
}
