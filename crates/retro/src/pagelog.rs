//! The Pagelog: Retro's on-disk, log-structured archive of page pre-states.
//!
//! "Retro accumulates the copied-out pre-states in memory and writes them
//! to an on-disk log-structured snapshot archive called Pagelog when the
//! database flushes updates" (paper §4). Pre-states are appended in commit
//! order as full page images; a pre-state is addressed by its byte offset,
//! which is what Maplog entries record and what the buffer cache keys
//! snapshot pages by.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rql_pagestore::{LogStorage, Page, Result};

/// On-log entry format. Full page images are the only format; the enum
/// and [`crate::RetroConfig::pagelog_format`] remain only because the repo
/// benchmark names `PagelogFormat::Raw`, and nothing reads the setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagelogFormat {
    /// Full page images, addressed directly (no per-entry header).
    #[default]
    Raw,
}

/// Append-only page pre-state archive.
pub struct Pagelog {
    storage: Arc<dyn LogStorage>,
    page_size: usize,
    /// Pre-states appended (monotonic).
    appended: AtomicU64,
}

impl Pagelog {
    /// Create a Pagelog over `storage` for pages of `page_size` bytes.
    pub fn new(storage: Arc<dyn LogStorage>, page_size: usize) -> Self {
        // Entries are fixed-size, so the count is recoverable on reopen.
        let appended = storage.len() / page_size as u64;
        Pagelog {
            storage,
            page_size,
            appended: AtomicU64::new(appended),
        }
    }

    /// Archive a pre-state as a full image; returns its offset.
    pub fn append(&self, page: &Page) -> Result<u64> {
        debug_assert_eq!(page.size(), self.page_size);
        let off = self.storage.append(page.bytes())?;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(off)
    }

    /// Fetch the pre-state stored at `offset`.
    pub fn read(&self, offset: u64) -> Result<Page> {
        let mut buf = vec![0u8; self.page_size];
        self.storage.read_at(offset, &mut buf)?;
        Ok(Page::from_bytes(buf))
    }

    /// Force buffered pre-states to stable storage (the "group flush"
    /// Retro performs when the database flushes).
    pub fn flush(&self) -> Result<()> {
        self.storage.sync()
    }

    /// Number of pre-states archived so far.
    pub fn pre_state_count(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Archive size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.storage.len()
    }

    /// Page size of archived pre-states.
    pub fn page_size(&self) -> usize {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_pagestore::MemStorage;

    fn page_with(tag: u8, size: usize) -> Page {
        let mut p = Page::zeroed(size);
        p.bytes_mut()[0] = tag;
        p
    }

    #[test]
    fn append_read_roundtrip() {
        let log = Pagelog::new(Arc::new(MemStorage::new()), 64);
        let o1 = log.append(&page_with(1, 64)).unwrap();
        let o2 = log.append(&page_with(2, 64)).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 64);
        assert_eq!(log.read(o1).unwrap().bytes()[0], 1);
        assert_eq!(log.read(o2).unwrap().bytes()[0], 2);
        assert_eq!(log.pre_state_count(), 2);
        assert_eq!(log.size_bytes(), 128);
    }

    #[test]
    fn reopen_resumes_count() {
        let storage = Arc::new(MemStorage::new());
        {
            let log = Pagelog::new(storage.clone(), 32);
            log.append(&page_with(1, 32)).unwrap();
            log.append(&page_with(2, 32)).unwrap();
        }
        let log = Pagelog::new(storage, 32);
        assert_eq!(log.pre_state_count(), 2);
        let o3 = log.append(&page_with(3, 32)).unwrap();
        assert_eq!(o3, 64);
    }

    #[test]
    fn read_bad_offset_errors() {
        let log = Pagelog::new(Arc::new(MemStorage::new()), 64);
        assert!(log.read(0).is_err());
    }
}
