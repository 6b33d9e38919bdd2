//! Snapshot page tables (SPTs).
//!
//! An SPT maps every page of a snapshot to where its bytes live: either a
//! Pagelog offset (the page was modified after the snapshot and its
//! pre-state archived) or the current database (the page is still shared
//! with the current state). "An efficient scan of Maplog allows to
//! construct a snapshot page table SPT(S) that maps every page P in
//! snapshot S to its location in Pagelog" (paper §4).

use std::collections::HashMap;
use std::time::Duration;

use rql_pagestore::PageId;

/// Where a snapshot page's bytes are found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLocation {
    /// Archived pre-state at this Pagelog offset.
    Pagelog(u64),
    /// Shared with the current database state.
    SharedWithDb,
}

/// The identity of the bytes a snapshot read of one page returns: two
/// reads with the same version, in one open of the store, read the same
/// bytes (see [`crate::SnapshotReader::version`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageVersion {
    /// An archived pre-state: its Pagelog offset, which is never rewritten.
    Archived(u64),
    /// A page shared with the current database: its id and the stamp of
    /// the image ([`rql_pagestore::DbView::stamp`]).
    Current(PageId, u64),
}

/// A built snapshot page table.
#[derive(Debug)]
pub struct Spt {
    snap_id: u64,
    page_count: u64,
    map: HashMap<PageId, u64>,
}

impl Spt {
    /// Construct from a Maplog scan result.
    pub fn new(snap_id: u64, page_count: u64, map: HashMap<PageId, u64>) -> Self {
        Spt {
            snap_id,
            page_count,
            map,
        }
    }

    /// Snapshot this table belongs to.
    pub fn snap_id(&self) -> u64 {
        self.snap_id
    }

    /// Number of pages in the snapshot's universe.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Locate a page.
    pub fn locate(&self, pid: PageId) -> Option<PageLocation> {
        if pid.0 >= self.page_count {
            return None;
        }
        Some(match self.map.get(&pid) {
            Some(&off) => PageLocation::Pagelog(off),
            None => PageLocation::SharedWithDb,
        })
    }

    /// Number of pages with archived pre-states.
    pub fn archived_pages(&self) -> u64 {
        self.map.len() as u64
    }

    /// Number of pages still shared with the current database.
    pub fn shared_pages(&self) -> u64 {
        self.page_count - self.archived_pages()
    }

    /// Whether the snapshot's overwrite cycle is complete (every page has
    /// been modified since the declaration, so nothing is shared with the
    /// current state).
    pub fn overwrite_complete(&self) -> bool {
        self.shared_pages() == 0
    }

    /// Pages whose location differs between two SPTs: the paper's
    /// `diff(S1, S2)`. Pages outside either page universe count as
    /// differing.
    pub fn diff(&self, other: &Spt) -> u64 {
        let max_count = self.page_count.max(other.page_count);
        let mut differing = 0u64;
        for p in 0..max_count {
            let pid = PageId(p);
            if self.locate(pid) != other.locate(pid) {
                differing += 1;
            }
        }
        differing
    }

    /// Pages shared between two snapshots: the paper's `shared(S1, S2)`.
    pub fn shared_with(&self, other: &Spt) -> u64 {
        self.page_count.min(other.page_count) - self.diff_within_common(other)
    }

    fn diff_within_common(&self, other: &Spt) -> u64 {
        let common = self.page_count.min(other.page_count);
        let mut differing = 0u64;
        for p in 0..common {
            let pid = PageId(p);
            if self.locate(pid) != other.locate(pid) {
                differing += 1;
            }
        }
        differing
    }
}

/// Cost of building one SPT.
#[derive(Debug, Clone, Copy, Default)]
pub struct SptBuildStats {
    /// Maplog entries scanned.
    pub entries_scanned: u64,
    /// Wall-clock build time.
    pub duration: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spt(snap: u64, count: u64, pairs: &[(u64, u64)]) -> Spt {
        Spt::new(
            snap,
            count,
            pairs.iter().map(|&(p, o)| (PageId(p), o)).collect(),
        )
    }

    #[test]
    fn locate_archived_shared_and_out_of_range() {
        let s = spt(1, 4, &[(0, 100), (2, 200)]);
        assert_eq!(s.locate(PageId(0)), Some(PageLocation::Pagelog(100)));
        assert_eq!(s.locate(PageId(1)), Some(PageLocation::SharedWithDb));
        assert_eq!(s.locate(PageId(2)), Some(PageLocation::Pagelog(200)));
        assert_eq!(s.locate(PageId(9)), None);
        assert_eq!(s.archived_pages(), 2);
        assert_eq!(s.shared_pages(), 2);
        assert!(!s.overwrite_complete());
    }

    #[test]
    fn overwrite_complete_when_all_archived() {
        let s = spt(1, 2, &[(0, 0), (1, 64)]);
        assert!(s.overwrite_complete());
    }

    #[test]
    fn diff_and_shared() {
        // S1: P0@100, P1 shared, P2@200. S2: P0@100, P1 shared, P2 shared.
        let s1 = spt(1, 3, &[(0, 100), (2, 200)]);
        let s2 = spt(2, 3, &[(0, 100)]);
        assert_eq!(s1.diff(&s2), 1); // only P2 differs
        assert_eq!(s1.shared_with(&s2), 2);
        assert_eq!(s1.diff(&s1), 0);
    }

    #[test]
    fn diff_counts_universe_mismatch() {
        let s1 = spt(1, 2, &[(0, 100)]);
        let s2 = spt(2, 3, &[(0, 100)]);
        // P2 exists only in s2.
        assert_eq!(s1.diff(&s2), 1);
        assert_eq!(s1.shared_with(&s2), 2);
    }
}
