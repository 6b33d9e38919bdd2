//! Redo-only write-ahead log.
//!
//! The BDB-analog store logs full after-images of committed pages plus a
//! commit record. Recovery replays the images of *committed* transactions
//! in order; uncommitted tails (no commit record, or a torn record failing
//! its checksum) are discarded, mirroring how Retro's host storage manager
//! recovers the current state. Snapshot declarations are logged inside the
//! commit record so the snapshot sequence can also be rebuilt after a
//! crash.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Result, StoreError};
use crate::page::{array_at, fnv1a, Page, PageId};
use crate::storage::LogStorage;

/// Record kinds on the log.
const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// One committed transaction parsed off the WAL: the unit a replication
/// leader ships and a follower replays. The byte range `[start, end)` is
/// the exact span of this transaction's records on the log, so a follower
/// that replays the segment with the same txn id regenerates an identical
/// WAL and can resume by comparing raw lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedSegment {
    /// Transaction id from the commit record.
    pub txn_id: u64,
    /// Snapshot id, when the transaction declared one.
    pub snapshot: Option<u64>,
    /// Page after-images in log order (the pager writes them sorted).
    pub pages: Vec<(PageId, Page)>,
    /// Log offset of the first record of this transaction.
    pub start: u64,
    /// Log offset just past the commit record.
    pub end: u64,
}

/// Parse the next committed transaction from `storage` starting at `from`,
/// scanning no further than `upto`. Returns `None` when the range holds no
/// complete commit (a transaction still in flight, a torn tail, or simply
/// the end of the log) — the store is single-writer, so records between
/// two commits all belong to one transaction.
pub fn next_committed_segment(
    storage: &dyn LogStorage,
    from: u64,
    upto: u64,
) -> Result<Option<CommittedSegment>> {
    let mut pages = Vec::new();
    let mut off = from;
    while off < upto {
        let Some((rec_end, kind, body)) = read_record(storage, off, upto)? else {
            return Ok(None); // incomplete record within the range
        };
        match kind {
            KIND_PAGE => {
                let pid = PageId(u64::from_le_bytes(array_at(&body, 8)));
                let plen = u32::from_le_bytes(array_at(&body, 16)) as usize;
                if body.len() != 20 + plen {
                    return Err(StoreError::CorruptWal { offset: off });
                }
                pages.push((pid, Page::from_bytes(body[20..].to_vec())));
            }
            KIND_COMMIT => {
                let txn_id = u64::from_le_bytes(array_at(&body, 0));
                let has_snap = body[8] == 1;
                let sid = u64::from_le_bytes(array_at(&body, 9));
                return Ok(Some(CommittedSegment {
                    txn_id,
                    snapshot: has_snap.then_some(sid),
                    pages,
                    start: from,
                    end: rec_end,
                }));
            }
            _ => return Err(StoreError::CorruptWal { offset: off }),
        }
        off = rec_end;
    }
    Ok(None)
}

/// Read one record starting at `off`, bounded by `len`. Returns `None`
/// for an incomplete or checksum-failing (torn) record.
fn read_record(storage: &dyn LogStorage, off: u64, len: u64) -> Result<Option<(u64, u8, Vec<u8>)>> {
    let header_len = |kind: u8| -> Option<usize> {
        match kind {
            KIND_PAGE => Some(20),   // txn + pid + plen
            KIND_COMMIT => Some(17), // txn + flag + sid
            _ => None,
        }
    };
    if off + 1 > len {
        return Ok(None);
    }
    let mut kind_buf = [0u8; 1];
    storage.read_at(off, &mut kind_buf)?;
    let kind = kind_buf[0];
    let Some(hlen) = header_len(kind) else {
        return Err(StoreError::CorruptWal { offset: off });
    };
    if off + 1 + hlen as u64 > len {
        return Ok(None);
    }
    let mut header = vec![0u8; hlen];
    storage.read_at(off + 1, &mut header)?;
    let body_extra = if kind == KIND_PAGE {
        u32::from_le_bytes(array_at(&header, 16)) as usize
    } else {
        0
    };
    let body_len = hlen + body_extra;
    let rec_end = off + 1 + body_len as u64 + 8;
    if rec_end > len {
        return Ok(None);
    }
    let mut body = vec![0u8; body_len];
    storage.read_at(off + 1, &mut body)?;
    let mut ck_buf = [0u8; 8];
    storage.read_at(off + 1 + body_len as u64, &mut ck_buf)?;
    let stored = u64::from_le_bytes(ck_buf);
    let mut full = Vec::with_capacity(1 + body_len);
    full.push(kind);
    full.extend_from_slice(&body);
    if fnv1a(&full) != stored {
        return Ok(None); // torn write at the tail
    }
    Ok(Some((rec_end, kind, body)))
}

/// The write-ahead log.
pub struct Wal {
    storage: Arc<dyn LogStorage>,
    /// Whether `log_commit` syncs the storage (off for benchmarks where
    /// durability is irrelevant).
    sync_on_commit: bool,
}

/// State reconstructed by WAL recovery.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Latest committed image of each page that appears on the log.
    pub pages: HashMap<PageId, Page>,
    /// Highest committed transaction id.
    pub last_txn: u64,
    /// Snapshot ids declared by committed transactions, in commit order.
    pub snapshots: Vec<u64>,
    /// Offset just past the last complete committed record; the log can be
    /// truncated here to drop any torn tail.
    pub valid_len: u64,
}

impl Wal {
    /// Create a WAL over `storage`.
    pub fn new(storage: Arc<dyn LogStorage>, sync_on_commit: bool) -> Self {
        Wal {
            storage,
            sync_on_commit,
        }
    }

    /// Log the after-image of `page` written by transaction `txn_id`.
    pub fn log_write(&self, txn_id: u64, pid: PageId, page: &Page) -> Result<()> {
        let mut rec = Vec::with_capacity(1 + 8 + 8 + 4 + page.size() + 8);
        rec.push(KIND_PAGE);
        rec.extend_from_slice(&txn_id.to_le_bytes());
        rec.extend_from_slice(&pid.0.to_le_bytes());
        rec.extend_from_slice(&(page.size() as u32).to_le_bytes());
        rec.extend_from_slice(page.bytes());
        let ck = fnv1a(&rec);
        rec.extend_from_slice(&ck.to_le_bytes());
        self.storage.append(&rec)?;
        Ok(())
    }

    /// Log a commit record for `txn_id`; `snapshot` carries the snapshot id
    /// if the transaction committed with a snapshot declaration.
    pub fn log_commit(&self, txn_id: u64, snapshot: Option<u64>) -> Result<()> {
        let mut rec = Vec::with_capacity(1 + 8 + 1 + 8 + 8);
        rec.push(KIND_COMMIT);
        rec.extend_from_slice(&txn_id.to_le_bytes());
        match snapshot {
            Some(sid) => {
                rec.push(1);
                rec.extend_from_slice(&sid.to_le_bytes());
            }
            None => {
                rec.push(0);
                rec.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        let ck = fnv1a(&rec);
        rec.extend_from_slice(&ck.to_le_bytes());
        self.storage.append(&rec)?;
        if self.sync_on_commit {
            let _span = rql_trace::span(rql_trace::SpanId::WalFsync);
            self.storage.sync()?;
        }
        Ok(())
    }

    /// Replay the log, returning the committed state.
    ///
    /// Torn or truncated tails are tolerated: replay stops at the first
    /// incomplete or checksum-failing record, and everything after the last
    /// commit record is ignored.
    pub fn recover(&self) -> Result<RecoveredState> {
        let mut state = RecoveredState::default();
        // Page images of the transaction currently being scanned, applied
        // only when its commit record is seen.
        let mut pending: HashMap<u64, Vec<(PageId, Page)>> = HashMap::new();
        let len = self.storage.len();
        let mut off = 0u64;
        while off < len {
            let Some((rec_end, kind, body)) = read_record(self.storage.as_ref(), off, len)? else {
                break; // torn tail
            };
            match kind {
                KIND_PAGE => {
                    let txn_id = u64::from_le_bytes(array_at(&body, 0));
                    let pid = PageId(u64::from_le_bytes(array_at(&body, 8)));
                    let plen = u32::from_le_bytes(array_at(&body, 16)) as usize;
                    if body.len() != 20 + plen {
                        return Err(StoreError::CorruptWal { offset: off });
                    }
                    let page = Page::from_bytes(body[20..].to_vec());
                    pending.entry(txn_id).or_default().push((pid, page));
                }
                KIND_COMMIT => {
                    let txn_id = u64::from_le_bytes(array_at(&body, 0));
                    let has_snap = body[8] == 1;
                    let sid = u64::from_le_bytes(array_at(&body, 9));
                    if let Some(writes) = pending.remove(&txn_id) {
                        for (pid, page) in writes {
                            state.pages.insert(pid, page);
                        }
                    }
                    state.last_txn = state.last_txn.max(txn_id);
                    if has_snap {
                        state.snapshots.push(sid);
                    }
                    state.valid_len = rec_end;
                }
                _ => return Err(StoreError::CorruptWal { offset: off }),
            }
            off = rec_end;
        }
        Ok(state)
    }

    /// Force buffered records to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.storage.sync()
    }

    /// Cut the log back to `len` bytes: the records of a commit that
    /// failed part-way.
    pub fn truncate(&self, len: u64) -> Result<()> {
        self.storage.truncate(len)
    }

    /// Bytes currently on the log.
    pub fn len(&self) -> u64 {
        self.storage.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn page_with(tag: u8) -> Page {
        let mut p = Page::zeroed(32);
        p.bytes_mut()[0] = tag;
        p
    }

    fn mem_wal() -> (Arc<MemStorage>, Wal) {
        let storage = Arc::new(MemStorage::new());
        let wal = Wal::new(storage.clone(), false);
        (storage, wal)
    }

    #[test]
    fn recovers_committed_pages() {
        let (_s, wal) = mem_wal();
        wal.log_write(1, PageId(0), &page_with(1)).unwrap();
        wal.log_write(1, PageId(3), &page_with(2)).unwrap();
        wal.log_commit(1, None).unwrap();
        let st = wal.recover().unwrap();
        assert_eq!(st.last_txn, 1);
        assert_eq!(st.pages.len(), 2);
        assert_eq!(st.pages[&PageId(0)].bytes()[0], 1);
        assert_eq!(st.pages[&PageId(3)].bytes()[0], 2);
        assert!(st.snapshots.is_empty());
    }

    #[test]
    fn uncommitted_writes_are_dropped() {
        let (_s, wal) = mem_wal();
        wal.log_write(1, PageId(0), &page_with(1)).unwrap();
        wal.log_commit(1, None).unwrap();
        wal.log_write(2, PageId(0), &page_with(9)).unwrap();
        // txn 2 never commits
        let st = wal.recover().unwrap();
        assert_eq!(st.pages[&PageId(0)].bytes()[0], 1);
        assert_eq!(st.last_txn, 1);
    }

    #[test]
    fn later_commit_wins_per_page() {
        let (_s, wal) = mem_wal();
        wal.log_write(1, PageId(5), &page_with(1)).unwrap();
        wal.log_commit(1, None).unwrap();
        wal.log_write(2, PageId(5), &page_with(2)).unwrap();
        wal.log_commit(2, None).unwrap();
        let st = wal.recover().unwrap();
        assert_eq!(st.pages[&PageId(5)].bytes()[0], 2);
        assert_eq!(st.last_txn, 2);
    }

    #[test]
    fn snapshot_declarations_recovered_in_order() {
        let (_s, wal) = mem_wal();
        wal.log_commit(1, Some(1)).unwrap();
        wal.log_commit(2, None).unwrap();
        wal.log_commit(3, Some(2)).unwrap();
        let st = wal.recover().unwrap();
        assert_eq!(st.snapshots, vec![1, 2]);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let (storage, wal) = mem_wal();
        wal.log_write(1, PageId(0), &page_with(1)).unwrap();
        wal.log_commit(1, None).unwrap();
        let valid = storage.len();
        wal.log_write(2, PageId(1), &page_with(7)).unwrap();
        // Simulate a torn write: chop the last record in half.
        let cut = valid + (storage.len() - valid) / 2;
        storage.truncate(cut).unwrap();
        let st = wal.recover().unwrap();
        assert_eq!(st.last_txn, 1);
        assert_eq!(st.valid_len, valid);
        assert!(!st.pages.contains_key(&PageId(1)));
    }

    #[test]
    fn corrupted_checksum_stops_replay() {
        let (storage, wal) = mem_wal();
        wal.log_write(1, PageId(0), &page_with(1)).unwrap();
        wal.log_commit(1, None).unwrap();
        let valid = storage.len();
        wal.log_write(2, PageId(1), &page_with(7)).unwrap();
        wal.log_commit(2, None).unwrap();
        // Flip a byte inside txn 2's page record body.
        let mut byte = [0u8; 1];
        storage.read_at(valid + 25, &mut byte).unwrap();
        // MemStorage has no random write; rebuild via truncate+append.
        let full_len = storage.len();
        let mut rest = vec![0u8; (full_len - valid) as usize];
        storage.read_at(valid, &mut rest).unwrap();
        rest[25] ^= 0xFF;
        storage.truncate(valid).unwrap();
        storage.append(&rest).unwrap();
        let st = wal.recover().unwrap();
        // Replay stops at the corrupt record; only txn 1 recovered.
        assert_eq!(st.last_txn, 1);
    }

    #[test]
    fn committed_segments_parse_in_commit_order() {
        let (storage, wal) = mem_wal();
        wal.log_write(1, PageId(0), &page_with(1)).unwrap();
        wal.log_write(1, PageId(2), &page_with(2)).unwrap();
        wal.log_commit(1, None).unwrap();
        let first_end = storage.len();
        wal.log_write(2, PageId(0), &page_with(3)).unwrap();
        wal.log_commit(2, Some(1)).unwrap();
        let len = storage.len();

        let s1 = next_committed_segment(storage.as_ref(), 0, len)
            .unwrap()
            .unwrap();
        assert_eq!(s1.txn_id, 1);
        assert_eq!(s1.snapshot, None);
        assert_eq!(s1.pages.len(), 2);
        assert_eq!(s1.pages[0].0, PageId(0));
        assert_eq!(s1.pages[1].0, PageId(2));
        assert_eq!((s1.start, s1.end), (0, first_end));

        let s2 = next_committed_segment(storage.as_ref(), s1.end, len)
            .unwrap()
            .unwrap();
        assert_eq!(s2.txn_id, 2);
        assert_eq!(s2.snapshot, Some(1));
        assert_eq!(s2.pages.len(), 1);
        assert_eq!(s2.end, len);

        // Past the last commit: nothing.
        assert!(next_committed_segment(storage.as_ref(), len, len)
            .unwrap()
            .is_none());
    }

    #[test]
    fn incomplete_segment_returns_none() {
        let (storage, wal) = mem_wal();
        wal.log_write(1, PageId(0), &page_with(1)).unwrap();
        // No commit record yet: the transaction is still in flight.
        let len = storage.len();
        assert!(next_committed_segment(storage.as_ref(), 0, len)
            .unwrap()
            .is_none());
        // A torn commit record is likewise not a complete segment.
        wal.log_commit(1, None).unwrap();
        let cut = len + (storage.len() - len) / 2;
        assert!(next_committed_segment(storage.as_ref(), 0, cut)
            .unwrap()
            .is_none());
    }

    #[test]
    fn empty_log_recovers_empty() {
        let (_s, wal) = mem_wal();
        let st = wal.recover().unwrap();
        assert!(st.pages.is_empty());
        assert_eq!(st.last_txn, 0);
        assert!(wal.is_empty());
    }
}
