//! # rql-pagestore
//!
//! Page-based transactional storage substrate for the reproduction of
//! *"RQL: Retrospective Computations over Snapshot Sets"* (EDBT 2018).
//!
//! This crate is the Berkeley-DB analog the paper's Retro snapshot system
//! plugs into:
//!
//! * fixed-size [`page::Page`]s published behind `Arc` (readers get MVCC
//!   views for free — writers replace, never mutate, published pages);
//! * a memory-resident current state managed by the [`pager::Pager`], with
//!   a redo [`wal::Wal`] for durability and crash recovery;
//! * single-writer [`pager::WriteTxn`]s whose commit exposes the pre-state
//!   of every modified page — the interposition point used by `rql-retro`
//!   for copy-on-write snapshot capture;
//! * a shared LRU [`cache::BufferCache`] that caches snapshot pages keyed
//!   by Pagelog offset (the keying that produces the cross-snapshot page
//!   sharing studied in the paper's §5);
//! * [`wire`], the byte codec (payload reader/writer, bounded
//!   length-prefixed frames) under both network protocols built on this
//!   store, `rqld`'s and `rql-repl`'s;
//! * [`stats::IoStats`] counters, which the experiment harness reads to
//!   reproduce the paper's figures.

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod page;
pub mod pager;
pub mod stats;
pub mod storage;
pub mod wal;
pub mod wire;

pub use cache::{BufferCache, CacheKey};
pub use error::{Result, StoreError};
pub use page::{fnv1a, fnv1a_extend, Page, PageId, SharedPage, DEFAULT_PAGE_SIZE};
pub use pager::{DbView, Pager, PagerConfig, WriteTxn};
pub use stats::{IoStats, IoStatsSnapshot};
pub use storage::{FailingStorage, FileStorage, LogStorage, MemStorage};
pub use wal::{next_committed_segment, CommittedSegment, RecoveredState, Wal};
