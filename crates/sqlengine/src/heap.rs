//! Heap files: slotted pages chained into a table.
//!
//! Layout of a heap page:
//!
//! ```text
//! 0        8            10          12         14      16
//! +--------+------------+-----------+----------+-------+----- ... ----+
//! | next   | slot_count | cell_start| dead     | rsvd  | slots | ...  |
//! | page   | (u16)      | (u16)     | (u16)    |       | 4B ea | cells|
//! +--------+------------+-----------+----------+-------+--------------+
//! ```
//!
//! Slots grow upward after the header; cells grow downward from the end.
//! A deleted slot keeps its 4-byte entry with `len = 0` and its cell bytes
//! become dead space, as do the bytes a shorter record updated in place
//! no longer covers; compaction reclaims it when an insert needs room.
//! Every edit is made in the transaction's staged copy of the page
//! ([`WriteTxn::page_mut`]), taken only once the edit is known to fit.
//! Free space is tracked per table in an in-memory [`FreeSpaceMap`]: a
//! `Database` builds it from the chain when it first writes the table
//! (and again after an abort or a failed commit) and keeps it for every
//! writer of the table, SQL DML and `TableWriter` alike, so an insert
//! finds its page in O(log pages) without walking the chain.
//!
//! Every read of a chain — scans, the page count, the free-space-map
//! rebuild, the sidecar rebuild, the delta scanner — goes through one
//! function, [`HeapFile::walk`], which alone follows the `next` links,
//! guards against a chain linked back onto itself, consults the pruning
//! sidecars and fetches pages. It visits pages; decoding rows is the
//! caller's business. Pruning is the source's call
//! ([`PageSource::sidecar_for`]): snapshot readers prune every page
//! version, a write transaction's `TxnSource` — the
//! DELETE/UPDATE victim scan and a SELECT inside a transaction — only the
//! pages it has not touched, and a current-state view none.

use std::collections::HashSet;

use rql_pagestore::{Page, PageId, WriteTxn};

use crate::error::{Result, SqlError};
use crate::pagesource::PageSource;
use crate::record::{decode_row, GatedRow, Row};
use crate::sidecar::PredSummary;

const HEADER: usize = 16;
const SLOT_SIZE: usize = 4;
pub(crate) const OFF_NEXT: usize = 0;
const OFF_SLOT_COUNT: usize = 8;
const OFF_CELL_START: usize = 10;
const OFF_DEAD: usize = 12;
/// "No next page" marker.
const NIL: u64 = u64::MAX;

/// Location of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// How [`HeapFile::walk`] got past one page of the chain.
pub(crate) enum PageVisit<'a, C> {
    /// The caller had the page cached (with its successor): the page was
    /// neither looked up nor fetched.
    Cached(C),
    /// The page's sidecar proved no row of it can pass the predicate:
    /// the same outcome as fetching it and keeping nothing, minus the
    /// fetch.
    Pruned,
    /// The page was fetched.
    Fetched(&'a Page),
}

/// A heap file rooted at a fixed page.
#[derive(Debug, Clone, Copy)]
pub struct HeapFile {
    root: PageId,
}

/// In-memory free-space map for one heap file: page id → usable free
/// bytes, answering "the lowest page id with at least `need` bytes" in
/// O(log pages). Built from the chain on first use; never consulted by
/// readers.
///
/// Pages are held in id order under a max-tree: leaf `k` of `tree` is
/// the free space of `pages[k]`, and each inner node the larger of its
/// two children, so the descent to the leftmost leaf with room is the
/// lowest such page id. A heap grows only by a page with the largest id
/// so far (pages come from the end of the file; there is no free list),
/// so recording a new page is an append; a page id that lands between
/// known ones — another session's append the map learns of late —
/// rebuilds the tree.
#[derive(Debug, Default)]
pub struct FreeSpaceMap {
    /// Known page ids, ascending.
    pages: Vec<u64>,
    /// Max-tree over the pages' free bytes: root at 1, the leaves at
    /// `leaves()..`, unused leaves 0. Empty until the first page.
    tree: Vec<usize>,
    /// Page size of the heap, learned when the map is built.
    page_size: usize,
    loaded: bool,
}

impl FreeSpaceMap {
    /// Empty (unloaded) map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all knowledge (after an abort, the map may be stale).
    pub fn invalidate(&mut self) {
        self.pages.clear();
        self.tree.clear();
        self.loaded = false;
    }

    /// Number of leaves: the tree's capacity in pages.
    fn leaves(&self) -> usize {
        self.tree.len() / 2
    }

    /// Record that `pid` has `free` usable bytes.
    fn set(&mut self, pid: PageId, free: usize) {
        let k = match self.pages.binary_search(&pid.0) {
            Ok(k) => k,
            Err(k) if k == self.pages.len() && k < self.leaves() => {
                self.pages.push(pid.0);
                k
            }
            Err(k) => {
                let mut frees: Vec<usize> = self.tree[self.leaves()..][..self.pages.len()].to_vec();
                self.pages.insert(k, pid.0);
                frees.insert(k, free);
                self.rebuild(&frees);
                return;
            }
        };
        let mut at = self.leaves() + k;
        self.tree[at] = free;
        while at > 1 {
            at /= 2;
            self.tree[at] = self.tree[2 * at].max(self.tree[2 * at + 1]);
        }
    }

    /// Lay the tree out afresh over `frees` (one per page, in order),
    /// with room to append as many pages again.
    fn rebuild(&mut self, frees: &[usize]) {
        let leaves = (2 * frees.len()).next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * leaves, 0);
        self.tree[leaves..][..frees.len()].copy_from_slice(frees);
        for at in (1..leaves).rev() {
            self.tree[at] = self.tree[2 * at].max(self.tree[2 * at + 1]);
        }
    }

    /// The lowest page id with at least `need` usable bytes.
    fn first_with(&self, need: usize) -> Option<PageId> {
        if self.pages.is_empty() || self.tree[1] < need {
            return None;
        }
        let mut at = 1;
        while at < self.leaves() {
            at = if self.tree[2 * at] >= need {
                2 * at
            } else {
                2 * at + 1
            };
        }
        // Unused leaves hold 0 and lie right of every page, so the
        // leftmost leaf with room is always a page's.
        Some(PageId(self.pages[at - self.leaves()]))
    }
}

/// The `cached` argument of a [`HeapFile::walk`] that caches nothing.
fn no_cache(_: PageId) -> Option<(Option<PageId>, ())> {
    None
}

impl HeapFile {
    /// Open a heap rooted at `root`.
    pub fn new(root: PageId) -> Self {
        HeapFile { root }
    }

    /// Allocate and initialize a new heap in `txn`.
    pub fn create(txn: &mut WriteTxn) -> Result<HeapFile> {
        let root = txn.allocate_page();
        init_heap_page(txn.page_mut(root)?);
        Ok(HeapFile { root })
    }

    /// Root page id (persisted in the catalog).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Insert `record` bytes, returning where it landed.
    pub fn insert(
        &self,
        txn: &mut WriteTxn,
        record: &[u8],
        fsm: &mut FreeSpaceMap,
    ) -> Result<RecordId> {
        let page_size = self.ensure_fsm(txn, fsm)?;
        let max_record = page_size - HEADER - SLOT_SIZE;
        if record.len() > max_record {
            return Err(SqlError::Constraint(format!(
                "record of {} bytes exceeds page capacity {max_record}",
                record.len()
            )));
        }
        let need = record.len() + SLOT_SIZE;
        // The map is a *hint*: it may overestimate when another writer
        // (e.g. a TableWriter with its own map) filled a page since it was
        // built. A failed placement self-heals the entry and moves on.
        loop {
            let target = match fsm.first_with(need) {
                Some(pid) => pid,
                None => self.append_page(txn, fsm)?,
            };
            let page = txn.read_page(target)?;
            let Some(fit) = fit(&page, record.len()) else {
                // Stale hint: record the page's true free space (which is
                // below `need`) and retry elsewhere.
                fsm.set(target, usable_free(&page).min(need - 1));
                continue;
            };
            // Release the read before editing, or the edit would copy.
            drop(page);
            let page = txn.page_mut(target)?;
            let slot = insert_into_page(page, record, fit);
            fsm.set(target, usable_free(page));
            return Ok(RecordId { page: target, slot });
        }
    }

    /// Delete the record at `rid`.
    pub fn delete(&self, txn: &mut WriteTxn, rid: RecordId, fsm: &mut FreeSpaceMap) -> Result<()> {
        self.ensure_fsm(txn, fsm)?;
        let (_, len) = live_cell(&*txn.read_page(rid.page)?, rid.slot)?;
        let page = txn.page_mut(rid.page)?;
        let base = HEADER + SLOT_SIZE * rid.slot as usize;
        page.write_u16(base, 0);
        page.write_u16(base + 2, 0);
        add_dead(page, len);
        fsm.set(rid.page, usable_free(page));
        Ok(())
    }

    /// Replace the record at `rid`, returning where it now is. A record
    /// no longer than the old cell is written over that cell and keeps
    /// its rid; the bytes it no longer covers count as dead space, which
    /// compaction reclaims. A longer record moves: delete + insert.
    pub fn update(
        &self,
        txn: &mut WriteTxn,
        rid: RecordId,
        record: &[u8],
        fsm: &mut FreeSpaceMap,
    ) -> Result<RecordId> {
        let (off, len) = live_cell(&*txn.read_page(rid.page)?, rid.slot)?;
        if record.len() > len {
            self.delete(txn, rid, fsm)?;
            return self.insert(txn, record, fsm);
        }
        let page = txn.page_mut(rid.page)?;
        page.write_slice(off, record);
        page.write_u16(
            HEADER + SLOT_SIZE * rid.slot as usize + 2,
            record.len() as u16,
        );
        add_dead(page, len - record.len());
        // An unloaded map is rebuilt from the pages before its next use.
        fsm.set(rid.page, usable_free(page));
        Ok(rid)
    }

    /// Hand one record's bytes to `f` where they lie on their page.
    pub fn read<S: PageSource, T>(
        &self,
        src: &S,
        rid: RecordId,
        f: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<T> {
        let page = src.page(rid.page)?;
        let cell = read_cell(&page, rid.slot);
        f(cell.ok_or_else(|| SqlError::Invalid(format!("no record at {rid:?}")))?)
    }

    /// Read and decode one record.
    pub fn get_row<S: PageSource>(&self, src: &S, rid: RecordId) -> Result<Row> {
        self.read(src, rid, decode_row)
    }

    /// The one read walk over the chain: every page from the root in chain
    /// order until the NIL link, each reported to `visit` with its
    /// successor (`visit` returning `false` stops the walk). Per page, in
    /// this order:
    ///
    /// * `cached` has the page → [`PageVisit::Cached`] with what it keeps
    ///   for it, successor included; the page is not touched at all;
    /// * `pred` is non-empty and the source's sidecar for the page refutes
    ///   it → [`PageVisit::Pruned`], counted on the source, successor
    ///   taken from the sidecar, body not fetched;
    /// * otherwise the page is fetched → [`PageVisit::Fetched`].
    ///
    /// `pred` must over-approximate whatever row filter the caller applies.
    /// A page reached twice (a cyclic or self-linked chain, whether the
    /// link came from a page, a sidecar or `cached`) is an error
    /// naming the page, never a second visit.
    // `#[inline]` here and on `scan`: the visitor holds the caller's
    // per-row loop, and left to its own heuristics the compiler kept it
    // out of line in the executor's seq scan (measured ≈ 30 % slower on a
    // current-state `SELECT COUNT(*) … WHERE`).
    #[inline]
    pub(crate) fn walk<S: PageSource, C>(
        &self,
        src: &S,
        pred: &PredSummary,
        mut cached: impl FnMut(PageId) -> Option<(Option<PageId>, C)>,
        mut visit: impl FnMut(PageId, PageVisit<'_, C>, Option<PageId>) -> Result<bool>,
    ) -> Result<()> {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut at = Some(self.root);
        while let Some(pid) = at {
            if !seen.insert(pid.0) {
                return Err(SqlError::Invalid(format!(
                    "heap chain cycle at page {}",
                    pid.0
                )));
            }
            // No sidecar, a decode fault, an empty predicate or a summary
            // that cannot rule the page out all mean: read the page.
            let refuting = || {
                if pred.is_empty() {
                    return None;
                }
                src.sidecar_for(pid).filter(|sc| sc.refutes(pred))
            };
            let (next, more) = if let Some((next, kept)) = cached(pid) {
                (next, visit(pid, PageVisit::Cached(kept), next)?)
            } else if let Some(sidecar) = refuting() {
                src.count_page_pruned();
                (sidecar.next, visit(pid, PageVisit::Pruned, sidecar.next)?)
            } else {
                let page = src.page(pid)?;
                let raw = page.read_u64(OFF_NEXT);
                let next = (raw != NIL).then_some(PageId(raw));
                (next, visit(pid, PageVisit::Fetched(&page), next)?)
            };
            at = next.filter(|_| more);
        }
        Ok(())
    }

    /// Scan all records, invoking `f(rid, row)`; stops early if `f`
    /// returns `false`. Pages whose sidecar refutes `pred` are skipped
    /// without a fetch (an empty summary prunes nothing); `pred` must
    /// over-approximate whatever filtering `f` applies. Only the columns
    /// `cols` marks are decoded (`None`: all), the rest are NULL, and no
    /// record is walked past its last marked column
    /// ([`crate::record::decode_row_into`]); `row` is one buffer reused
    /// for every record, so `f` clones the rows it keeps.
    #[inline]
    pub fn scan<S: PageSource>(
        &self,
        src: &S,
        pred: &PredSummary,
        cols: Option<&[bool]>,
        mut f: impl FnMut(RecordId, &Row) -> Result<bool>,
    ) -> Result<()> {
        self.scan_gated(src, pred, cols, usize::MAX, |rid, rec| f(rid, rec.gate()))
    }

    /// [`HeapFile::scan`] handing `f` each record decoded only up to
    /// column `gate` ([`GatedRow`]): `f` reads the rest of the records it
    /// wants, and the scan checks the rest of every other one, so each
    /// cell `cols` reaches is checked on every row either way.
    #[inline]
    pub(crate) fn scan_gated<S: PageSource>(
        &self,
        src: &S,
        pred: &PredSummary,
        cols: Option<&[bool]>,
        gate: usize,
        mut f: impl FnMut(RecordId, &mut GatedRow<'_>) -> Result<bool>,
    ) -> Result<()> {
        let mut row = Row::new();
        self.walk(src, pred, no_cache, |pid, visit, _| {
            let PageVisit::Fetched(page) = visit else {
                return Ok(true);
            };
            page_rows(page, cols, gate, &mut row, |slot, rec| {
                f(RecordId { page: pid, slot }, rec)
            })
        })
    }

    /// Collect every row (convenience for small scans and tests).
    pub fn all_rows<S: PageSource>(&self, src: &S) -> Result<Vec<(RecordId, Row)>> {
        let mut out = Vec::new();
        self.scan(src, &PredSummary::default(), None, |rid, row| {
            out.push((rid, row.clone()));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Every page of the chain with its id, unpruned, in chain order.
    pub(crate) fn for_each_page<S: PageSource>(
        &self,
        src: &S,
        mut f: impl FnMut(PageId, &Page),
    ) -> Result<()> {
        self.walk(src, &PredSummary::default(), no_cache, |pid, visit, _| {
            if let PageVisit::Fetched(page) = visit {
                f(pid, page);
            }
            Ok(true)
        })
    }

    /// Number of pages in the chain.
    pub fn page_count_chain<S: PageSource>(&self, src: &S) -> Result<u64> {
        let mut n = 0;
        self.for_each_page(src, |_, _| n += 1)?;
        Ok(n)
    }

    /// Build the free-space map by walking the chain, unless it is
    /// already built; returns the heap's page size.
    fn ensure_fsm(&self, txn: &WriteTxn, fsm: &mut FreeSpaceMap) -> Result<usize> {
        if !fsm.loaded {
            fsm.invalidate();
            fsm.page_size = txn.read_page(self.root)?.size();
            let mut free = Vec::new();
            self.for_each_page(txn, |pid, page| free.push((pid.0, usable_free(page))))?;
            // Chain order is root, newest, …, oldest: sort into id order.
            free.sort_unstable_by_key(|&(pid, _)| pid);
            fsm.pages = free.iter().map(|&(pid, _)| pid).collect();
            let frees: Vec<usize> = free.iter().map(|&(_, bytes)| bytes).collect();
            fsm.rebuild(&frees);
            fsm.loaded = true;
        }
        Ok(fsm.page_size)
    }

    /// Link a fresh page right after the root (scan order is not
    /// insertion order, which SQL does not promise anyway).
    fn append_page(&self, txn: &mut WriteTxn, fsm: &mut FreeSpaceMap) -> Result<PageId> {
        let old_next = txn.read_page(self.root)?.read_u64(OFF_NEXT);
        let new_pid = txn.allocate_page();
        let new_page = txn.page_mut(new_pid)?;
        init_heap_page(new_page);
        new_page.write_u64(OFF_NEXT, old_next);
        fsm.set(new_pid, usable_free(new_page));
        txn.page_mut(self.root)?.write_u64(OFF_NEXT, new_pid.0);
        Ok(new_pid)
    }
}

/// Decode the live rows of one heap page in slot order into `row`, each
/// up to column `gate` of `cols` (see [`HeapFile::scan_gated`]), and hand
/// them to `f` until it returns `false`; then the walk of every record
/// `f` did not read whole is finished checking only. This is the one
/// per-record loop of every heap scan, and the per-page unit a
/// delta-aware scan caches (see [`crate::delta`]).
#[inline]
pub(crate) fn page_rows(
    page: &Page,
    cols: Option<&[bool]>,
    gate: usize,
    row: &mut Row,
    mut f: impl FnMut(u16, &mut GatedRow<'_>) -> Result<bool>,
) -> Result<bool> {
    for slot in 0..page.read_u16(OFF_SLOT_COUNT) {
        if let Some(bytes) = read_cell(page, slot) {
            let mut rec = GatedRow::decode(bytes, cols, gate, row)?;
            let more = f(slot, &mut rec)?;
            rec.check()?;
            if !more {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn init_heap_page(page: &mut Page) {
    page.write_u64(OFF_NEXT, NIL);
    page.write_u16(OFF_SLOT_COUNT, 0);
    page.write_u16(OFF_CELL_START, page.size() as u16);
    page.write_u16(OFF_DEAD, 0);
}

/// Usable free bytes: contiguous gap plus dead cell space. Slightly
/// optimistic about slot reuse; the insert path re-checks precisely.
fn usable_free(page: &Page) -> usize {
    let slot_count = page.read_u16(OFF_SLOT_COUNT) as usize;
    let cell_start = page.read_u16(OFF_CELL_START) as usize;
    let dead = page.read_u16(OFF_DEAD) as usize;
    let contiguous = cell_start.saturating_sub(HEADER + SLOT_SIZE * slot_count);
    contiguous + dead
}

fn slot_offsets(page: &Page, slot: u16) -> (usize, usize) {
    let base = HEADER + SLOT_SIZE * slot as usize;
    (
        page.read_u16(base) as usize,
        page.read_u16(base + 2) as usize,
    )
}

fn read_cell(page: &Page, slot: u16) -> Option<&[u8]> {
    if slot >= page.read_u16(OFF_SLOT_COUNT) {
        return None;
    }
    let (off, len) = slot_offsets(page, slot);
    if len == 0 {
        return None;
    }
    Some(page.read_slice(off, len))
}

/// How a record fits on a page, worked out without editing it.
struct Fit {
    /// A freed slot to reuse; `None` appends a slot.
    free_slot: Option<u16>,
    /// Only after compaction is the gap wide enough.
    compact: bool,
}

/// Whether a record of `len` bytes fits on `page`, even if only after
/// compaction.
fn fit(page: &Page, len: usize) -> Option<Fit> {
    let slot_count = page.read_u16(OFF_SLOT_COUNT);
    // Reuse a freed slot when available.
    let free_slot = (0..slot_count).find(|&s| slot_offsets(page, s).1 == 0);
    let need = len + if free_slot.is_some() { 0 } else { SLOT_SIZE };
    let contiguous = {
        let cell_start = page.read_u16(OFF_CELL_START) as usize;
        cell_start.saturating_sub(HEADER + SLOT_SIZE * slot_count as usize)
    };
    let dead = page.read_u16(OFF_DEAD) as usize;
    (contiguous + dead >= need).then_some(Fit {
        free_slot,
        compact: contiguous < need,
    })
}

/// Insert `record` into `page` as [`fit`] planned, returning the slot.
fn insert_into_page(page: &mut Page, record: &[u8], fit: Fit) -> u16 {
    let slot_count = page.read_u16(OFF_SLOT_COUNT);
    if fit.compact {
        compact_page(page);
    }
    let cell_start = page.read_u16(OFF_CELL_START) as usize;
    let new_start = cell_start - record.len();
    page.write_slice(new_start, record);
    page.write_u16(OFF_CELL_START, new_start as u16);
    let slot = match fit.free_slot {
        Some(s) => s,
        None => {
            page.write_u16(OFF_SLOT_COUNT, slot_count + 1);
            slot_count
        }
    };
    let base = HEADER + SLOT_SIZE * slot as usize;
    page.write_u16(base, new_start as u16);
    page.write_u16(base + 2, record.len() as u16);
    slot
}

/// Offset and length of the live cell at `slot`; an unknown or deleted
/// slot is an error.
fn live_cell(page: &Page, slot: u16) -> Result<(usize, usize)> {
    if slot >= page.read_u16(OFF_SLOT_COUNT) {
        return Err(SqlError::Invalid(format!("delete of unknown slot {slot}")));
    }
    match slot_offsets(page, slot) {
        (_, 0) => Err(SqlError::Invalid(format!("double delete of slot {slot}"))),
        cell => Ok(cell),
    }
}

fn add_dead(page: &mut Page, bytes: usize) {
    let dead = page.read_u16(OFF_DEAD);
    page.write_u16(OFF_DEAD, dead + bytes as u16);
}

/// Rewrite all live cells contiguously at the end of the page.
fn compact_page(page: &mut Page) {
    let slot_count = page.read_u16(OFF_SLOT_COUNT);
    let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
    for slot in 0..slot_count {
        let (off, len) = slot_offsets(page, slot);
        if len > 0 {
            live.push((slot, page.read_slice(off, len).to_vec()));
        }
    }
    let mut cell_start = page.size();
    for (slot, bytes) in live {
        cell_start -= bytes.len();
        page.write_slice(cell_start, &bytes);
        let base = HEADER + SLOT_SIZE * slot as usize;
        page.write_u16(base, cell_start as u16);
        page.write_u16(base + 2, bytes.len() as u16);
    }
    page.write_u16(OFF_CELL_START, cell_start as u16);
    page.write_u16(OFF_DEAD, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_row;
    use crate::value::Value;
    use rql_pagestore::{Pager, PagerConfig};
    use std::sync::Arc;

    fn pager(page_size: usize) -> Arc<Pager> {
        Arc::new(Pager::new(PagerConfig {
            page_size,
            cache_capacity: 16,
            wal_sync_on_commit: false,
        }))
    }

    fn rec(i: i64, text: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_row(&[Value::Integer(i), Value::text(text)], &mut buf);
        buf
    }

    #[test]
    fn insert_get_scan_roundtrip() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let mut rids = Vec::new();
        for i in 0..20 {
            rids.push(heap.insert(&mut txn, &rec(i, "row"), &mut fsm).unwrap());
        }
        for (i, rid) in rids.iter().enumerate() {
            let row = heap.get_row(&txn, *rid).unwrap();
            assert_eq!(row[0], Value::Integer(i as i64));
        }
        let all = heap.all_rows(&txn).unwrap();
        assert_eq!(all.len(), 20);
        pager.commit(txn, None, |_, _| Ok(())).unwrap();
    }

    #[test]
    fn spans_multiple_pages() {
        let pager = pager(128);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        for i in 0..50 {
            heap.insert(&mut txn, &rec(i, "aaaaaaaaaaaaaaaa"), &mut fsm)
                .unwrap();
        }
        assert!(heap.page_count_chain(&txn).unwrap() > 1);
        assert_eq!(heap.all_rows(&txn).unwrap().len(), 50);
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let pager = pager(128);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let mut rids = Vec::new();
        for i in 0..30 {
            rids.push(
                heap.insert(&mut txn, &rec(i, "xxxxxxxxxxxxxxxx"), &mut fsm)
                    .unwrap(),
            );
        }
        let pages_before = heap.page_count_chain(&txn).unwrap();
        for rid in &rids {
            heap.delete(&mut txn, *rid, &mut fsm).unwrap();
        }
        assert_eq!(heap.all_rows(&txn).unwrap().len(), 0);
        // Re-insert: reuses freed space, no new pages.
        for i in 0..30 {
            heap.insert(&mut txn, &rec(i, "yyyyyyyyyyyyyyyy"), &mut fsm)
                .unwrap();
        }
        assert_eq!(heap.page_count_chain(&txn).unwrap(), pages_before);
        assert_eq!(heap.all_rows(&txn).unwrap().len(), 30);
    }

    #[test]
    fn double_delete_rejected() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let rid = heap.insert(&mut txn, &rec(1, "a"), &mut fsm).unwrap();
        heap.delete(&mut txn, rid, &mut fsm).unwrap();
        assert!(heap.delete(&mut txn, rid, &mut fsm).is_err());
    }

    #[test]
    fn update_moves_record() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let rid = heap.insert(&mut txn, &rec(1, "short"), &mut fsm).unwrap();
        let rid2 = heap
            .update(&mut txn, rid, &rec(2, "a much longer value"), &mut fsm)
            .unwrap();
        let row = heap.get_row(&txn, rid2).unwrap();
        assert_eq!(row[0], Value::Integer(2));
        assert_eq!(heap.all_rows(&txn).unwrap().len(), 1);
    }

    #[test]
    fn update_that_fits_keeps_its_slot() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let rid = heap
            .insert(&mut txn, &rec(1, "a longer value"), &mut fsm)
            .unwrap();
        let other = heap
            .insert(&mut txn, &rec(2, "neighbour"), &mut fsm)
            .unwrap();
        let same = heap
            .update(&mut txn, rid, &rec(3, "short"), &mut fsm)
            .unwrap();
        assert_eq!(same, rid);
        assert_eq!(heap.get_row(&txn, rid).unwrap()[1], Value::text("short"));
        assert_eq!(
            heap.get_row(&txn, other).unwrap()[1],
            Value::text("neighbour")
        );
        // The bytes the shorter record gave up are dead space.
        let page = txn.read_page(rid.page).unwrap();
        assert_eq!(
            page.read_u16(OFF_DEAD) as usize,
            "a longer value".len() - "short".len()
        );
        // Unknown and deleted slots stay errors.
        let unknown = RecordId { slot: 9, ..rid };
        assert!(heap
            .update(&mut txn, unknown, &rec(1, "x"), &mut fsm)
            .is_err());
        heap.delete(&mut txn, other, &mut fsm).unwrap();
        assert!(heap
            .update(&mut txn, other, &rec(1, "x"), &mut fsm)
            .is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let pager = pager(128);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        let big = rec(1, &"z".repeat(500));
        assert!(matches!(
            heap.insert(&mut txn, &big, &mut fsm),
            Err(SqlError::Constraint(_))
        ));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let pager = pager(128);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        // Fill one page, free alternating records, then insert something
        // that only fits after compaction.
        let mut rids = Vec::new();
        for i in 0..6 {
            rids.push(
                heap.insert(&mut txn, &rec(i, "0123456789"), &mut fsm)
                    .unwrap(),
            );
        }
        let first_page = rids[0].page;
        for rid in rids.iter().step_by(2) {
            if rid.page == first_page {
                heap.delete(&mut txn, *rid, &mut fsm).unwrap();
            }
        }
        let before_pages = heap.page_count_chain(&txn).unwrap();
        heap.insert(&mut txn, &rec(99, "0123456789012345678901234"), &mut fsm)
            .unwrap();
        // Depending on layout it may or may not fit on page 1, but data
        // must be intact either way.
        let rows = heap.all_rows(&txn).unwrap();
        assert!(rows.iter().any(|(_, r)| r[0] == Value::Integer(99)));
        assert!(heap.page_count_chain(&txn).unwrap() >= before_pages);
    }

    #[test]
    fn fsm_rebuilds_after_invalidate() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        for i in 0..10 {
            heap.insert(&mut txn, &rec(i, "row"), &mut fsm).unwrap();
        }
        fsm.invalidate();
        // Insert after invalidation must still reuse existing pages.
        let pages = heap.page_count_chain(&txn).unwrap();
        heap.insert(&mut txn, &rec(10, "row"), &mut fsm).unwrap();
        assert_eq!(heap.page_count_chain(&txn).unwrap(), pages);
        assert_eq!(heap.all_rows(&txn).unwrap().len(), 11);
    }

    /// The reference the map must agree with: the lowest page id with
    /// room, by a scan in id order.
    fn linear_first_with(
        reference: &std::collections::BTreeMap<u64, usize>,
        need: usize,
    ) -> Option<PageId> {
        reference
            .iter()
            .find(|&(_, &free)| free >= need)
            .map(|(&pid, _)| PageId(pid))
    }

    /// The logarithmic map picks exactly the page the linear scan picks,
    /// over random sequences of appends, ids landing between known ones,
    /// updates, lookups with varying needs and invalidations.
    #[test]
    fn fsm_agrees_with_the_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fsm = FreeSpaceMap::new();
            let mut reference = std::collections::BTreeMap::new();
            let mut next_id = rng.random_range(0u64..10);
            for step in 0..400 {
                match rng.random_range(0u32..100) {
                    // A new page with the largest id so far, ids with gaps.
                    0..=34 => {
                        next_id += rng.random_range(1u64..5);
                        let free = rng.random_range(0usize..4096);
                        fsm.set(PageId(next_id), free);
                        reference.insert(next_id, free);
                    }
                    // An id between known ones (or below them all).
                    35..=39 => {
                        let pid = rng.random_range(0..next_id + 1);
                        let free = rng.random_range(0usize..4096);
                        fsm.set(PageId(pid), free);
                        reference.insert(pid, free);
                    }
                    // A known page's free space changes.
                    40..=69 if !reference.is_empty() => {
                        let k = rng.random_range(0..reference.len());
                        let pid = *reference.keys().nth(k).unwrap();
                        let free = rng.random_range(0usize..4096);
                        fsm.set(PageId(pid), free);
                        reference.insert(pid, free);
                    }
                    70..=71 => {
                        fsm.invalidate();
                        reference.clear();
                    }
                    _ => {}
                }
                for need in [0, 1, rng.random_range(0usize..4200), 4095, 4096] {
                    assert_eq!(
                        fsm.first_with(need),
                        linear_first_with(&reference, need),
                        "seed {seed} step {step} need {need}"
                    );
                }
            }
        }
    }

    /// A chain linked back onto itself must be an error on every path
    /// that walks it, never a spin. Runs under a watchdog so a walk
    /// without the guard fails this test instead of hanging the harness.
    #[test]
    fn cyclic_chain_is_an_error_on_every_path() {
        use crate::db::Database;
        use rql_retro::RetroConfig;

        let body = || {
            let db = Database::in_memory(RetroConfig {
                pager: PagerConfig {
                    page_size: 256,
                    cache_capacity: 64,
                    wal_sync_on_commit: false,
                },
                ..RetroConfig::new()
            });
            db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
            for i in 0..40 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, 'padpadpad-{i}')"))
                    .unwrap();
            }
            let root = {
                let view = db.store().current_view();
                let catalog = crate::catalog::Catalog::load(&view).unwrap();
                catalog.require_table("t").unwrap().root
            };
            // Hand-link some other page of the chain back to the root.
            db.with_write_txn_pub(|_, txn| {
                let rows = HeapFile::new(root).all_rows(&*txn)?;
                let other = rows.iter().map(|(rid, _)| rid.page).find(|p| *p != root);
                let other = other.expect("want a multi-page heap");
                txn.page_mut(other)?.write_u64(OFF_NEXT, root.0);
                Ok(())
            })
            .unwrap();
            let sid = db.declare_snapshot().unwrap();
            // A database without this one's cached free-space map, so its
            // INSERT has to walk the chain.
            let cold = Database::over_store(std::sync::Arc::clone(db.store()));

            let named = format!("heap chain cycle at page {}", root.0);
            let check = |what: &str, err: SqlError| match err {
                SqlError::Invalid(msg) if msg == named => {}
                other => panic!("{what}: {other:?}"),
            };
            // Allocation-free walk first: without the guard it spins
            // without eating memory until the watchdog fires.
            check("table_size_bytes", db.table_size_bytes("t").unwrap_err());
            check("SELECT", db.query("SELECT a FROM t").unwrap_err());
            let as_of = db.query_as_of(sid, "SELECT a FROM t WHERE a > 3");
            check("SELECT AS OF", as_of.unwrap_err());
            let insert = cold.execute("INSERT INTO t VALUES (99, 'x')");
            check("INSERT", insert.unwrap_err());
        };
        let (done, watchdog) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            done.send(()).ok();
        });
        watchdog
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a walk over the cyclic chain panicked or never returned");
    }

    #[test]
    fn scan_early_stop() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        for i in 0..10 {
            heap.insert(&mut txn, &rec(i, "row"), &mut fsm).unwrap();
        }
        let mut seen = 0;
        heap.scan(&txn, &PredSummary::default(), None, |_, _| {
            seen += 1;
            Ok(seen < 3)
        })
        .unwrap();
        assert_eq!(seen, 3);
    }
}
