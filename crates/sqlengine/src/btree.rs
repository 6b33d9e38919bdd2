//! Page-backed B-tree for native (persistent) secondary indexes.
//!
//! Native indexes matter to the paper twice over: a snapshot "includes the
//! entire state of the database (e.g., tables, indexes, system catalogs)"
//! so indexed databases archive more pages (Figure 9's SPT/I-O growth),
//! and a native index lets a snapshot query skip SQLite's ad-hoc covering
//! index build (Figure 9's dominant cost without one).
//!
//! Keys are order-preserving byte strings produced by
//! [`crate::record::encode_index_key`], made unique by appending the heap
//! [`RecordId`]. Nodes are whole pages, edited in place; decoded only to
//! split. An insert or delete finds its entry by reading the page where
//! it lies, as the read path does, and shifts the entries after it with
//! one `copy_within`. That leaves exactly the bytes decoding, mutating and
//! re-encoding the node would: entries contiguous from the header, bytes
//! past the last entry as they were. Deletion does not rebalance (pages
//! may go sparse; acceptable for the workloads reproduced here and
//! documented in DESIGN.md).
//!
//! An empty tree can instead be built bottom-up in one call
//! ([`BTree::build`]): the sorted entries fill leaves in order, each level
//! of internal nodes is packed over the one below, and the top node lands
//! in the root page. Those are the nodes `insert` encodes — the same
//! separators (a right sibling's first key), canonical — only fuller, and
//! no node is ever split. This module is the only place nodes are built.

use rql_pagestore::{Page, PageId, SharedPage, WriteTxn};

use crate::error::{Result, SqlError};
use crate::heap::RecordId;
use crate::pagesource::PageSource;

const TYPE_LEAF: u8 = 1;
const TYPE_INTERNAL: u8 = 2;
const OFF_TYPE: usize = 0;
const OFF_COUNT: usize = 1;
const OFF_LINK: usize = 3; // next leaf / rightmost child
const HEADER: usize = 11;
const NIL: u64 = u64::MAX;
/// Bytes after a leaf entry's key: the rid's page (u64) and slot (u16).
const LEAF_TAIL: usize = 10;
/// Bytes after an internal entry's key: the child page id.
const INTERNAL_TAIL: usize = 8;

/// A B-tree rooted at a fixed page (the root id is what the catalog
/// stores, so the root page never moves).
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    root: PageId,
}

#[derive(Debug)]
enum Node {
    Leaf {
        next: u64,
        entries: Vec<Entry>,
    },
    Internal {
        rightmost: u64,
        /// `(separator, child)`: `child` holds keys `< separator`.
        entries: Vec<(Vec<u8>, u64)>,
    },
}

/// A leaf entry: its key (with the rid appended, once stored) and rid.
type Entry = (Vec<u8>, RecordId);

/// A node that split: the separator and the new right sibling, to be
/// hung off the parent.
type Split = Option<(Vec<u8>, u64)>;

impl BTree {
    /// Open a B-tree rooted at `root`.
    pub fn new(root: PageId) -> Self {
        BTree { root }
    }

    /// Allocate an empty tree.
    pub fn create(txn: &mut WriteTxn) -> Result<BTree> {
        let root = txn.allocate_page();
        let empty = Node::Leaf {
            next: NIL,
            entries: Vec::new(),
        };
        encode_node(&empty, txn.page_mut(root)?);
        Ok(BTree { root })
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Insert `(key, rid)`. The rid is appended to the key internally, so
    /// duplicate user keys are allowed.
    pub fn insert(&self, txn: &mut WriteTxn, key: &[u8], rid: RecordId) -> Result<()> {
        let full = full_key(key, rid);
        let mut path = Vec::new();
        let (leaf, page) = self.descend(&*txn, &full, |pid| path.push(pid))?;
        let mut split = insert_into_leaf(txn, leaf, page, &full, rid)?;
        while let Some((sep, right)) = split {
            let Some(parent) = path.pop() else {
                return self.split_root(txn, sep, right);
            };
            split = insert_separator(txn, parent, &full, sep, right)?;
        }
        Ok(())
    }

    /// The root split: its image moves to a new left page and the root
    /// becomes an internal node over the two halves.
    fn split_root(&self, txn: &mut WriteTxn, sep: Vec<u8>, right: u64) -> Result<()> {
        let left = txn.allocate_page();
        let image = Page::clone(&*txn.read_page(self.root)?);
        txn.write_page(left, image)?;
        let root = Node::Internal {
            rightmost: right,
            entries: vec![(sep, left.0)],
        };
        encode_node(&root, txn.page_mut(self.root)?);
        Ok(())
    }

    /// Build the tree from `entries`, `(key, rid)` pairs in any order, as
    /// the insert of each would — the same entries in the same order, read
    /// by the same paths — but bottom-up: leaves packed full in entry
    /// order and chained, internal levels packed over them, the top node
    /// written into the root page, which stays where it is. Only an empty
    /// tree can be built; a tree holding entries is an error.
    pub fn build(&self, txn: &mut WriteTxn, mut entries: Vec<Entry>) -> Result<()> {
        if !self.is_empty(&*txn)? {
            return Err(SqlError::Invalid(format!(
                "b-tree {} is not empty: only an empty tree is built in bulk",
                self.root
            )));
        }
        if entries.is_empty() {
            return Ok(());
        }
        let page_size = txn.read_page(self.root)?.size();
        for (key, rid) in &mut entries {
            append_rid(key, *rid);
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // Each level is its nodes' (first key, page) in key order.
        let leaves = pack_leaves(&entries, page_size)?;
        let pids = self.place(txn, leaves.len());
        let mut level = Vec::with_capacity(leaves.len());
        for (i, run) in leaves.iter().enumerate() {
            let next = pids.get(i + 1).map_or(NIL, |pid| pid.0);
            encode_leaf(txn.page_mut(pids[i])?, next, run);
            level.push((run[0].0.clone(), pids[i].0));
        }
        while level.len() > 1 {
            // A node over children `a..=b` holds `(first key of c, the
            // child before c)` for each child `c` after `a`, and links `b`
            // as its rightmost.
            let mut nodes = Vec::new();
            let mut a = 0;
            while a < level.len() {
                let (mut b, mut size) = (a, HEADER);
                while let Some((key, _)) = level.get(b + 1) {
                    size += 2 + key.len() + INTERNAL_TAIL;
                    if size > page_size {
                        break;
                    }
                    b += 1;
                }
                nodes.push(a..=b);
                a = b + 1;
            }
            let pids = self.place(txn, nodes.len());
            let mut above = Vec::with_capacity(nodes.len());
            for (pid, children) in pids.iter().zip(nodes) {
                let (a, b) = children.into_inner();
                let entries = (level[a..b].iter().zip(&level[a + 1..=b]))
                    .map(|((_, child), (key, _))| (key.clone(), *child))
                    .collect();
                let node = Node::Internal {
                    rightmost: level[b].1,
                    entries,
                };
                encode_node(&node, txn.page_mut(*pid)?);
                above.push((level[a].0.clone(), pid.0));
            }
            level = above;
        }
        Ok(())
    }

    /// Whether the tree is one empty leaf, as [`Self::create`] makes it.
    pub fn is_empty<S: PageSource>(&self, src: &S) -> Result<bool> {
        let root = src.page(self.root)?;
        Ok(root.bytes()[OFF_TYPE] == TYPE_LEAF && root.read_u16(OFF_COUNT) == 0)
    }

    /// Pages for the `n` nodes of one level of a bulk build: the root page
    /// when the level is the top, else fresh pages in order.
    fn place(&self, txn: &mut WriteTxn, n: usize) -> Vec<PageId> {
        match n {
            1 => vec![self.root],
            _ => (0..n).map(|_| txn.allocate_page()).collect(),
        }
    }

    /// Remove `(key, rid)`. Returns whether the entry was found.
    pub fn delete(&self, txn: &mut WriteTxn, key: &[u8], rid: RecordId) -> Result<bool> {
        let full = full_key(key, rid);
        let (pid, page) = self.descend(&*txn, &full, |_| {})?;
        let at = seek(&page, LEAF_TAIL, |k| k >= full.as_slice());
        if at.offset == at.end || key_at(&page, at.offset) != full.as_slice() {
            return Ok(false);
        }
        let count = page.read_u16(OFF_COUNT);
        drop(page);
        let page = txn.page_mut(pid)?;
        let len = 2 + full.len() + LEAF_TAIL;
        page.bytes_mut()
            .copy_within(at.offset + len..at.end, at.offset);
        page.write_u16(OFF_COUNT, count - 1);
        Ok(true)
    }

    /// Walk from the root to the leaf that would hold `key`, reading each
    /// node in place; `on_internal` sees every internal node passed.
    fn descend<S: PageSource>(
        &self,
        src: &S,
        key: &[u8],
        mut on_internal: impl FnMut(PageId),
    ) -> Result<(PageId, SharedPage)> {
        let mut pid = self.root;
        loop {
            let page = src.page(pid)?;
            match page.bytes()[OFF_TYPE] {
                TYPE_INTERNAL => {
                    on_internal(pid);
                    pid = PageId(find_child_inline(&page, key));
                }
                TYPE_LEAF => return Ok((pid, page)),
                t => return Err(SqlError::Invalid(format!("bad b-tree node type {t}"))),
            }
        }
    }

    /// All rids whose key starts with `prefix` (equality on a prefix of
    /// the indexed columns).
    pub fn scan_prefix<S: PageSource>(&self, src: &S, prefix: &[u8]) -> Result<Vec<RecordId>> {
        let mut out = Vec::new();
        self.scan_prefix_into(src, prefix, &mut out)?;
        Ok(out)
    }

    /// [`Self::scan_prefix`] into `out`, cleared first: a caller probing
    /// many keys reuses one buffer.
    pub fn scan_prefix_into<S: PageSource>(
        &self,
        src: &S,
        prefix: &[u8],
        out: &mut Vec<RecordId>,
    ) -> Result<()> {
        out.clear();
        self.scan_from(src, prefix, |key, rid| {
            let hit = key.starts_with(prefix);
            if hit {
                out.push(rid);
            }
            Ok(hit)
        })
    }

    /// Every entry in key order.
    pub fn scan_all<S: PageSource>(
        &self,
        src: &S,
        mut f: impl FnMut(&[u8], RecordId) -> Result<bool>,
    ) -> Result<()> {
        self.scan_from(src, &[], |k, r| f(k, r))
    }

    /// Iterate entries with key `>= lo` in order until `f` returns false.
    ///
    /// The read path walks encoded pages in place — no per-node
    /// allocation or entry copying — so index probes stay cheap even at
    /// `AggregateDataInTable`'s one-probe-per-record rate.
    pub fn scan_from<S: PageSource>(
        &self,
        src: &S,
        lo: &[u8],
        mut f: impl FnMut(&[u8], RecordId) -> Result<bool>,
    ) -> Result<()> {
        let (_, mut page) = self.descend(src, lo, |_| {})?;
        // Walk leaf entries (and the right-sibling chain) in place.
        let mut skipping = true;
        loop {
            let count = page.read_u16(OFF_COUNT) as usize;
            let mut pos = HEADER;
            for _ in 0..count {
                let klen = page.read_u16(pos) as usize;
                let key = page.read_slice(pos + 2, klen);
                let rid = RecordId {
                    page: PageId(page.read_u64(pos + 2 + klen)),
                    slot: page.read_u16(pos + 2 + klen + 8),
                };
                pos += 2 + klen + LEAF_TAIL;
                if skipping && key < lo {
                    continue;
                }
                skipping = false;
                if !f(key, rid)? {
                    return Ok(());
                }
            }
            let next = page.read_u64(OFF_LINK);
            if next == NIL {
                return Ok(());
            }
            page = src.page(PageId(next))?;
            if page.bytes()[OFF_TYPE] != TYPE_LEAF {
                return Err(SqlError::Invalid(
                    "leaf chain points at internal node".into(),
                ));
            }
        }
    }

    /// Number of entries (walks the whole tree).
    pub fn len<S: PageSource>(&self, src: &S) -> Result<usize> {
        let mut n = 0;
        self.scan_all(src, |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// Check that every node holds exactly the bytes encoding its decoded
    /// form over it would leave — the form in-place edits must keep.
    /// Names the first node that differs.
    pub fn check_canonical<S: PageSource>(&self, src: &S) -> Result<()> {
        let mut pending = vec![self.root];
        while let Some(pid) = pending.pop() {
            let page = src.page(pid)?;
            let node = decode_node(&page)?;
            if let Node::Internal { rightmost, entries } = &node {
                pending.push(PageId(*rightmost));
                pending.extend(entries.iter().map(|(_, child)| PageId(*child)));
            }
            let mut reencoded = Page::clone(&page);
            encode_node(&node, &mut reencoded);
            if reencoded != *page {
                return Err(SqlError::Invalid(format!(
                    "b-tree node {pid} differs from its re-encoding"
                )));
            }
        }
        Ok(())
    }
}

/// Insert `(full, rid)` into leaf `pid`, whose current image is `page`:
/// in place when it fits, else by splitting the leaf.
fn insert_into_leaf(
    txn: &mut WriteTxn,
    pid: PageId,
    page: SharedPage,
    full: &[u8],
    rid: RecordId,
) -> Result<Split> {
    let at = seek(&page, LEAF_TAIL, |k| k >= full);
    let len = 2 + full.len() + LEAF_TAIL;
    let page_size = page.size();
    if at.end + len <= page_size {
        // Release the read before editing, or the edit would copy.
        drop(page);
        let page = txn.page_mut(pid)?;
        let tail = open_entry(page, &at, full, len);
        page.write_u64(tail, rid.page.0);
        page.write_u16(tail + 8, rid.slot);
        return Ok(None);
    }
    let Node::Leaf { next, mut entries } = decode_node(&page)? else {
        unreachable!("descend ends at a leaf")
    };
    drop(page);
    entries.insert(at.index, (full.to_vec(), rid));
    // Split: right half moves to a new leaf.
    let right_entries = entries.split_off(entries.len() / 2);
    let sep = right_entries[0].0.clone();
    let right_pid = txn.allocate_page();
    let right = Node::Leaf {
        next,
        entries: right_entries,
    };
    write_node(txn, right_pid, &right, page_size)?;
    let left = Node::Leaf {
        next: right_pid.0,
        entries,
    };
    write_node(txn, pid, &left, page_size)?;
    Ok(Some((sep, right_pid.0)))
}

/// Hang `right` off internal node `pid` behind separator `sep`: `right`
/// is the upper half of the child `full` descended into, which keeps the
/// keys below `sep`. In place when it fits, else by splitting the node.
fn insert_separator(
    txn: &mut WriteTxn,
    pid: PageId,
    full: &[u8],
    sep: Vec<u8>,
    right: u64,
) -> Result<Split> {
    let page = txn.read_page(pid)?;
    let at = seek(&page, INTERNAL_TAIL, |s| full < s);
    // Where the child that split is linked from: its entry, or the
    // rightmost link.
    let child_at = if at.offset < at.end {
        at.offset + 2 + page.read_u16(at.offset) as usize
    } else {
        OFF_LINK
    };
    let child = page.read_u64(child_at);
    let len = 2 + sep.len() + INTERNAL_TAIL;
    let page_size = page.size();
    if at.end + len <= page_size {
        drop(page);
        let page = txn.page_mut(pid)?;
        let tail = open_entry(page, &at, &sep, len);
        page.write_u64(tail, child);
        // The old link to the child now leads to its upper half.
        let relinked = if child_at == OFF_LINK {
            OFF_LINK
        } else {
            child_at + len
        };
        page.write_u64(relinked, right);
        return Ok(None);
    }
    let Node::Internal {
        mut rightmost,
        mut entries,
    } = decode_node(&page)?
    else {
        unreachable!("descend passes internal nodes")
    };
    drop(page);
    if at.index < entries.len() {
        entries.insert(at.index, (sep, child));
        entries[at.index + 1].1 = right;
    } else {
        entries.push((sep, child));
        rightmost = right;
    }
    let mid = entries.len() / 2;
    // Promote entries[mid].0; its child becomes the left node's
    // rightmost.
    let right_entries = entries.split_off(mid + 1);
    let (promoted, left_rightmost) = entries.remove(mid);
    let right_pid = txn.allocate_page();
    let right_node = Node::Internal {
        rightmost,
        entries: right_entries,
    };
    write_node(txn, right_pid, &right_node, page_size)?;
    let left = Node::Internal {
        rightmost: left_rightmost,
        entries,
    };
    write_node(txn, pid, &left, page_size)?;
    Ok(Some((promoted, right_pid.0)))
}

/// Encode `node` over page `pid`, staging it only if it fits.
fn write_node(txn: &mut WriteTxn, pid: PageId, node: &Node, page_size: usize) -> Result<()> {
    if node_size(node) > page_size {
        return Err(SqlError::Constraint(format!(
            "index entry too large for page of {page_size} bytes"
        )));
    }
    encode_node(node, txn.page_mut(pid)?);
    Ok(())
}

/// Where a key falls among a node's entries, read in place.
struct Seek {
    /// Index of the first entry the stop rule accepts (the entry count
    /// when it accepts none).
    index: usize,
    /// Byte offset of that entry (`end` when there is none).
    offset: usize,
    /// Byte offset just past the last entry.
    end: usize,
}

/// Walk the entries of a node whose entries end in `tail` bytes, finding
/// the first whose key `stop` accepts.
fn seek(page: &Page, tail: usize, stop: impl Fn(&[u8]) -> bool) -> Seek {
    let count = page.read_u16(OFF_COUNT) as usize;
    let mut found = None;
    let mut pos = HEADER;
    for index in 0..count {
        if found.is_none() && stop(key_at(page, pos)) {
            found = Some((index, pos));
        }
        pos += 2 + page.read_u16(pos) as usize + tail;
    }
    let (index, offset) = found.unwrap_or((count, pos));
    Seek {
        index,
        offset,
        end: pos,
    }
}

fn key_at(page: &Page, pos: usize) -> &[u8] {
    page.read_slice(pos + 2, page.read_u16(pos) as usize)
}

/// Open a gap of `len` bytes at `at` by shifting the entries after it,
/// count the new entry and write its key. Returns where the entry's tail
/// goes.
fn open_entry(page: &mut Page, at: &Seek, key: &[u8], len: usize) -> usize {
    page.bytes_mut()
        .copy_within(at.offset..at.end, at.offset + len);
    let count = page.read_u16(OFF_COUNT);
    page.write_u16(OFF_COUNT, count + 1);
    put_key(page, at.offset, key)
}

fn put_key(page: &mut Page, pos: usize, key: &[u8]) -> usize {
    page.write_u16(pos, key.len() as u16);
    page.write_slice(pos + 2, key);
    pos + 2 + key.len()
}

/// In an internal page, find the child that would contain `key`, reading
/// entries in place: the first separator strictly greater than `key`
/// wins, else the rightmost child.
fn find_child_inline(page: &Page, key: &[u8]) -> u64 {
    let count = page.read_u16(OFF_COUNT) as usize;
    let mut pos = HEADER;
    for _ in 0..count {
        let klen = page.read_u16(pos) as usize;
        let sep = page.read_slice(pos + 2, klen);
        let child = page.read_u64(pos + 2 + klen);
        if key < sep {
            return child;
        }
        pos += 2 + klen + INTERNAL_TAIL;
    }
    page.read_u64(OFF_LINK) // rightmost
}

fn full_key(key: &[u8], rid: RecordId) -> Vec<u8> {
    let mut full = Vec::with_capacity(key.len() + 10);
    full.extend_from_slice(key);
    append_rid(&mut full, rid);
    full
}

/// Make `key` the entry key of `(key, rid)`: unique, ordered by key then
/// rid.
fn append_rid(key: &mut Vec<u8>, rid: RecordId) {
    key.extend_from_slice(&rid.page.0.to_be_bytes());
    key.extend_from_slice(&rid.slot.to_be_bytes());
}

fn node_size(node: &Node) -> usize {
    match node {
        Node::Leaf { entries, .. } => {
            HEADER + entries.iter().map(|(k, _)| 2 + k.len() + 10).sum::<usize>()
        }
        Node::Internal { entries, .. } => {
            HEADER + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
        }
    }
}

/// Write `node` from the header on; bytes past its last entry are left
/// as they were. The caller has checked that it fits.
fn encode_node(node: &Node, page: &mut Page) {
    match node {
        Node::Leaf { next, entries } => encode_leaf(page, *next, entries),
        Node::Internal { rightmost, entries } => {
            page.bytes_mut()[OFF_TYPE] = TYPE_INTERNAL;
            page.write_u16(OFF_COUNT, entries.len() as u16);
            page.write_u64(OFF_LINK, *rightmost);
            let mut pos = HEADER;
            for (k, child) in entries {
                pos = put_key(page, pos, k);
                page.write_u64(pos, *child);
                pos += INTERNAL_TAIL;
            }
        }
    }
}

/// [`encode_node`] for a leaf of `entries`.
fn encode_leaf(page: &mut Page, next: u64, entries: &[Entry]) {
    page.bytes_mut()[OFF_TYPE] = TYPE_LEAF;
    page.write_u16(OFF_COUNT, entries.len() as u16);
    page.write_u64(OFF_LINK, next);
    let mut pos = HEADER;
    for (k, rid) in entries {
        pos = put_key(page, pos, k);
        page.write_u64(pos, rid.page.0);
        page.write_u16(pos + 8, rid.slot);
        pos += LEAF_TAIL;
    }
}

/// Split sorted leaf entries into full leaves, in order.
fn pack_leaves(entries: &[Entry], page_size: usize) -> Result<Vec<&[Entry]>> {
    let mut leaves = Vec::new();
    let (mut start, mut size) = (0, HEADER);
    for (i, (key, _)) in entries.iter().enumerate() {
        let len = 2 + key.len() + LEAF_TAIL;
        if HEADER + len > page_size {
            return Err(SqlError::Constraint(format!(
                "index entry too large for page of {page_size} bytes"
            )));
        }
        if size + len > page_size {
            leaves.push(&entries[start..i]);
            (start, size) = (i, HEADER);
        }
        size += len;
    }
    leaves.push(&entries[start..]);
    Ok(leaves)
}

fn decode_node(page: &Page) -> Result<Node> {
    let ty = page.bytes()[OFF_TYPE];
    let count = page.read_u16(OFF_COUNT) as usize;
    let link = page.read_u64(OFF_LINK);
    let mut pos = HEADER;
    match ty {
        TYPE_LEAF => {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let key = key_at(page, pos).to_vec();
                pos += 2 + key.len();
                let rid = RecordId {
                    page: PageId(page.read_u64(pos)),
                    slot: page.read_u16(pos + 8),
                };
                pos += LEAF_TAIL;
                entries.push((key, rid));
            }
            Ok(Node::Leaf {
                next: link,
                entries,
            })
        }
        TYPE_INTERNAL => {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let key = key_at(page, pos).to_vec();
                pos += 2 + key.len();
                entries.push((key, page.read_u64(pos)));
                pos += INTERNAL_TAIL;
            }
            Ok(Node::Internal {
                rightmost: link,
                entries,
            })
        }
        t => Err(SqlError::Invalid(format!("bad b-tree node type {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_index_key;
    use crate::value::Value;
    use rql_pagestore::{Pager, PagerConfig};
    use std::sync::Arc;

    fn pager(page_size: usize) -> Arc<Pager> {
        Arc::new(Pager::new(PagerConfig {
            page_size,
            cache_capacity: 64,
            wal_sync_on_commit: false,
        }))
    }

    fn key(v: i64) -> Vec<u8> {
        let mut k = Vec::new();
        encode_index_key(&[Value::Integer(v)], &mut k);
        k
    }

    fn rid(n: u64) -> RecordId {
        RecordId {
            page: PageId(n),
            slot: (n % 7) as u16,
        }
    }

    #[test]
    fn insert_and_lookup_small() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..10 {
            tree.insert(&mut txn, &key(i), rid(i as u64)).unwrap();
        }
        for i in 0..10 {
            let hits = tree.scan_prefix(&txn, &key(i)).unwrap();
            assert_eq!(hits, vec![rid(i as u64)], "key {i}");
        }
        assert!(tree.scan_prefix(&txn, &key(99)).unwrap().is_empty());
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // Insert in a scrambled deterministic order.
        let n = 500i64;
        let mut order: Vec<i64> = (0..n).collect();
        let mut state = 7u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for &i in &order {
            tree.insert(&mut txn, &key(i), rid(i as u64)).unwrap();
        }
        assert_eq!(tree.len(&txn).unwrap(), n as usize);
        // Full scan must come back in key order.
        let mut prev: Option<Vec<u8>> = None;
        tree.scan_all(&txn, |k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k);
            }
            prev = Some(k.to_vec());
            Ok(true)
        })
        .unwrap();
        // Every key findable.
        for i in 0..n {
            assert_eq!(tree.scan_prefix(&txn, &key(i)).unwrap().len(), 1, "key {i}");
        }
    }

    #[test]
    fn duplicate_keys_supported() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for r in 0..20 {
            tree.insert(&mut txn, &key(5), rid(r)).unwrap();
        }
        let hits = tree.scan_prefix(&txn, &key(5)).unwrap();
        assert_eq!(hits.len(), 20);
    }

    #[test]
    fn delete_specific_duplicate() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        tree.insert(&mut txn, &key(1), rid(10)).unwrap();
        tree.insert(&mut txn, &key(1), rid(11)).unwrap();
        assert!(tree.delete(&mut txn, &key(1), rid(10)).unwrap());
        let hits = tree.scan_prefix(&txn, &key(1)).unwrap();
        assert_eq!(hits, vec![rid(11)]);
        assert!(!tree.delete(&mut txn, &key(1), rid(10)).unwrap());
    }

    #[test]
    fn delete_across_splits() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..300 {
            tree.insert(&mut txn, &key(i), rid(i as u64)).unwrap();
        }
        for i in (0..300).step_by(2) {
            assert!(tree.delete(&mut txn, &key(i), rid(i as u64)).unwrap());
        }
        assert_eq!(tree.len(&txn).unwrap(), 150);
        for i in 0..300 {
            let found = !tree.scan_prefix(&txn, &key(i)).unwrap().is_empty();
            assert_eq!(found, i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn multi_column_prefix_scan() {
        let pager = pager(512);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let mut n = 0u64;
        for a in ["x", "y"] {
            for b in 0..10i64 {
                let mut k = Vec::new();
                encode_index_key(&[Value::text(a), Value::Integer(b)], &mut k);
                tree.insert(&mut txn, &k, rid(n)).unwrap();
                n += 1;
            }
        }
        let mut prefix = Vec::new();
        encode_index_key(&[Value::text("x")], &mut prefix);
        assert_eq!(tree.scan_prefix(&txn, &prefix).unwrap().len(), 10);
        let mut exact = Vec::new();
        encode_index_key(&[Value::text("y"), Value::Integer(3)], &mut exact);
        assert_eq!(tree.scan_prefix(&txn, &exact).unwrap().len(), 1);
    }

    #[test]
    fn text_keys_large_volume() {
        let pager = pager(512);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..400i64 {
            let mut k = Vec::new();
            encode_index_key(&[Value::text(format!("user-{i:05}"))], &mut k);
            tree.insert(&mut txn, &k, rid(i as u64)).unwrap();
        }
        let mut probe = Vec::new();
        encode_index_key(&[Value::text("user-00123")], &mut probe);
        assert_eq!(tree.scan_prefix(&txn, &probe).unwrap(), vec![rid(123)]);
    }

    #[test]
    fn oversized_key_rejected() {
        let pager = pager(128);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let mut k = Vec::new();
        encode_index_key(&[Value::text("z".repeat(400))], &mut k);
        assert!(tree.insert(&mut txn, &k, rid(0)).is_err());
    }

    #[test]
    fn scan_from_midpoint() {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..100 {
            tree.insert(&mut txn, &key(i), rid(i as u64)).unwrap();
        }
        let mut seen = Vec::new();
        tree.scan_from(&txn, &key(90), |_, r| {
            seen.push(r);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], rid(90));
    }
}
