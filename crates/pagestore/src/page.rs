//! Fixed-size database pages and page identifiers.
//!
//! Everything in the RQL reproduction is a page-level phenomenon: the
//! Berkeley-DB-analog store manages the current state as a sequence of
//! logical pages, Retro archives pre-states of whole pages, and the buffer
//! cache caches whole pages. A [`Page`] is an immutable-after-publication
//! byte buffer; the pager publishes pages behind `Arc` so that readers
//! (snapshot queries) never observe in-place mutation.

use std::fmt;
use std::sync::Arc;

/// Default page size in bytes (matches SQLite's historical default).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Logical page number within a database.
///
/// Page ids are dense: the database is the sequence of pages `0..page_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Index usable for `Vec` access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A fixed-size page of bytes.
///
/// Pages carry small typed read/write helpers used by the record and B-tree
/// layers. A page is mutated only while privately owned (inside a write
/// transaction's write set); once published to the pager it is shared as
/// `Arc<Page>` and treated as immutable.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// Create a zero-filled page of `size` bytes.
    pub fn zeroed(size: usize) -> Self {
        Page {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// Create a page from raw bytes.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Page {
            data: data.into_boxed_slice(),
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Entire page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable page contents (only while privately owned).
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Read a little-endian `u16` at `off`.
    #[inline]
    pub fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(array_at(&self.data, off))
    }

    /// Write a little-endian `u16` at `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u32` at `off`.
    #[inline]
    pub fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(array_at(&self.data, off))
    }

    /// Write a little-endian `u32` at `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u64` at `off`.
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(array_at(&self.data, off))
    }

    /// Write a little-endian `u64` at `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read `len` bytes starting at `off`.
    #[inline]
    pub fn read_slice(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    /// Copy `src` into the page at `off`.
    #[inline]
    pub fn write_slice(&mut self, off: usize, src: &[u8]) {
        self.data[off..off + src.len()].copy_from_slice(src);
    }

    /// FNV-1a checksum over the page contents; used by the WAL to detect
    /// torn writes during recovery.
    pub fn checksum(&self) -> u64 {
        fnv1a(&self.data)
    }
}

/// `Debug` for a page prints size and checksum rather than 4 KiB of bytes.
impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("size", &self.size())
            .field("checksum", &format_args!("{:#x}", self.checksum()))
            .finish()
    }
}

/// The `N` bytes of `bytes` at `off`, as an array; panics when they run
/// past the end, as indexing does.
#[inline]
pub(crate) fn array_at<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[off..off + N]);
    out
}

/// FNV-1a hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over more bytes: `fnv1a(ab)` equals
/// `fnv1a_extend(fnv1a(a), b)`, so split input needs no joining copy.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Shared, immutable published page.
pub type SharedPage = Arc<Page>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_has_requested_size() {
        let p = Page::zeroed(128);
        assert_eq!(p.size(), 128);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn typed_reads_round_trip() {
        let mut p = Page::zeroed(64);
        p.write_u16(0, 0xBEEF);
        p.write_u32(2, 0xDEAD_BEEF);
        p.write_u64(6, 0x0123_4567_89AB_CDEF);
        p.write_slice(20, b"hello");
        assert_eq!(p.read_u16(0), 0xBEEF);
        assert_eq!(p.read_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.read_u64(6), 0x0123_4567_89AB_CDEF);
        assert_eq!(p.read_slice(20, 5), b"hello");
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut p = Page::zeroed(64);
        let c0 = p.checksum();
        p.write_u16(10, 7);
        assert_ne!(c0, p.checksum());
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(42).to_string(), "P42");
        assert_eq!(PageId(7).index(), 7);
    }
}
