//! # rql-retro
//!
//! Retro, the page-level copy-on-write snapshot system underneath RQL,
//! reimplemented from the description in *"RQL: Retrospective Computations
//! over Snapshot Sets"* (EDBT 2018, §4) and the cited Retro/Skippy papers.
//!
//! A snapshot is "a set of immutable logical data pages that reflect the
//! entire consistent database state … at snapshot declaration point".
//! Snapshots are captured incrementally: the first post-declaration
//! modification of a page archives its pre-state to the append-only
//! [`pagelog::Pagelog`] and indexes it in the [`maplog::Maplog`]; the
//! [`skippy::Skippy`] skip levels keep snapshot-page-table construction at
//! `O(n log n)` regardless of history length; a
//! [`snapshot::SnapshotReader`] serves page fetches from the SPT → cache →
//! Pagelog path, falling through to a pinned MVCC view of the current
//! database for shared pages.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod maplog;
pub mod pagelog;
pub mod skippy;
pub mod snapshot;
pub mod spt;
pub mod store;

pub use maplog::{Boundary, Maplog, SptScan};
pub use pagelog::{Pagelog, PagelogFormat};
pub use skippy::{Segment, Skippy};
pub use snapshot::{FetchSource, SnapshotMeta, SnapshotReader};
pub use spt::{PageLocation, Spt, SptBuildStats};
pub use store::{
    CommitHook, ReplCheckpoint, ReplLogs, RetroConfig, RetroStore, SidecarBuilder, SidecarMap,
    SnapshotHook,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rql_pagestore::{PageId, PagerConfig};

    use super::*;

    fn config(page_size: usize, cache: usize) -> RetroConfig {
        RetroConfig {
            pager: PagerConfig {
                page_size,
                cache_capacity: cache,
                wal_sync_on_commit: false,
            },
            ..RetroConfig::new()
        }
    }

    /// Write `tag` into page `pid` in its own transaction.
    fn write_page(store: &Arc<RetroStore>, pid: PageId, tag: u32) {
        let mut txn = store.begin().unwrap();
        while txn.page_count() <= pid.0 {
            txn.allocate_page();
        }
        txn.page_mut(pid).unwrap().write_u32(0, tag);
        store.commit(txn).unwrap();
    }

    fn declare(store: &Arc<RetroStore>) -> u64 {
        let txn = store.begin().unwrap();
        store.commit_with_snapshot(txn).unwrap()
    }

    fn read_tag(store: &Arc<RetroStore>, sid: u64, pid: PageId) -> u32 {
        store
            .open_snapshot(sid)
            .unwrap()
            .page(pid)
            .unwrap()
            .read_u32(0)
    }

    #[test]
    fn snapshot_preserves_pre_states() {
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        write_page(&store, PageId(1), 10);
        let s1 = declare(&store);
        write_page(&store, PageId(0), 2);
        let s2 = declare(&store);
        write_page(&store, PageId(0), 3);
        write_page(&store, PageId(1), 30);

        assert_eq!(read_tag(&store, s1, PageId(0)), 1);
        assert_eq!(read_tag(&store, s1, PageId(1)), 10);
        assert_eq!(read_tag(&store, s2, PageId(0)), 2);
        assert_eq!(read_tag(&store, s2, PageId(1)), 10);
        // Current state unaffected.
        assert_eq!(store.pager().read_page(PageId(0)).unwrap().read_u32(0), 3);
    }

    #[test]
    fn snapshot_reflects_declaring_txn() {
        // Paper §2: "a snapshot reflects updates of the declaring
        // transaction" (snapshot 2 does not include UserA after its
        // deleting transaction declared the snapshot).
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        let mut txn = store.begin().unwrap();
        txn.page_mut(PageId(0)).unwrap().write_u32(0, 99);
        let sid = store.commit_with_snapshot(txn).unwrap();
        assert_eq!(read_tag(&store, sid, PageId(0)), 99);
    }

    #[test]
    fn only_first_modification_archives() {
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        declare(&store);
        write_page(&store, PageId(0), 2);
        write_page(&store, PageId(0), 3);
        write_page(&store, PageId(0), 4);
        // One pre-state archived despite three modifications.
        assert_eq!(store.pagelog().pre_state_count(), 1);
        assert_eq!(store.stats().snapshot().cow_captures, 1);
    }

    #[test]
    fn consecutive_snapshots_share_pre_state() {
        // S1 and S2 declared with no intervening modification of P0: the
        // first later modification archives one pre-state serving both.
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 7);
        let s1 = declare(&store);
        let s2 = declare(&store);
        write_page(&store, PageId(0), 8);
        assert_eq!(store.pagelog().pre_state_count(), 1);
        assert_eq!(read_tag(&store, s1, PageId(0)), 7);
        assert_eq!(read_tag(&store, s2, PageId(0)), 7);
        // Both SPTs map P0 to the same Pagelog offset → cache sharing.
        let spt1 = store.build_spt(s1).unwrap();
        let spt2 = store.build_spt(s2).unwrap();
        assert_eq!(spt1.locate(PageId(0)), spt2.locate(PageId(0)));
    }

    #[test]
    fn fetch_sources_db_pagelog_cache() {
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        write_page(&store, PageId(1), 2);
        let s1 = declare(&store);
        write_page(&store, PageId(0), 9); // P0 archived; P1 still shared
        let reader = store.open_snapshot(s1).unwrap();
        let (_, src) = reader.page_with_source(PageId(1)).unwrap();
        assert_eq!(src, FetchSource::Database);
        let (_, src) = reader.page_with_source(PageId(0)).unwrap();
        assert_eq!(src, FetchSource::Pagelog);
        let (_, src) = reader.page_with_source(PageId(0)).unwrap();
        assert_eq!(src, FetchSource::Cache);
        let snap = store.stats().snapshot();
        assert_eq!(snap.pagelog_reads, 1);
        assert_eq!(snap.cache_hits, 1);
    }

    #[test]
    fn hot_iteration_hits_cache_for_shared_pages() {
        // The RQL effect: consecutive snapshots share pre-states, so after
        // reading S1 fully, reading S2 only misses on diff(S1,S2).
        let store = RetroStore::in_memory(config(64, 1024));
        for p in 0..8 {
            write_page(&store, PageId(p), p as u32);
        }
        let s1 = declare(&store);
        write_page(&store, PageId(0), 100); // diff(S1,S2) = {P0}
        let s2 = declare(&store);
        // Complete the overwrite cycle so both snapshots are fully
        // archived ("old" snapshots).
        for p in 0..8 {
            write_page(&store, PageId(p), 200 + p as u32);
        }

        let r1 = store.open_snapshot(s1).unwrap();
        for p in 0..8 {
            r1.page(PageId(p)).unwrap();
        }
        let cold = store.stats().snapshot();
        assert_eq!(cold.pagelog_reads, 8, "cold iteration misses everywhere");

        let r2 = store.open_snapshot(s2).unwrap();
        let mut pagelog_fetches = 0;
        for p in 0..8 {
            let (_, src) = r2.page_with_source(PageId(p)).unwrap();
            if src == FetchSource::Pagelog {
                pagelog_fetches += 1;
            }
        }
        assert_eq!(pagelog_fetches, 1, "hot iteration misses only on diff");
    }

    #[test]
    fn pagelog_offset_keying_reads_strictly_less_than_per_snapshot() {
        // Two consecutive snapshots sharing five of their six archived
        // pre-states. Snapshot pages are cached by Pagelog offset, so the
        // second snapshot's reads hit the entries cached while reading the
        // first: 6 cold misses for S1 + 1 for the diff page, strictly less
        // than the 12 a key embedding the snapshot id would fetch.
        let store = RetroStore::in_memory(config(64, 1024));
        for p in 0..6 {
            write_page(&store, PageId(p), p as u32);
        }
        let s1 = declare(&store);
        write_page(&store, PageId(0), 100); // diff(S1,S2) = {P0}
        let s2 = declare(&store);
        // Overwrite everything so both snapshots are fully archived.
        for p in 0..6 {
            write_page(&store, PageId(p), 200 + p as u32);
        }
        for sid in [s1, s2] {
            let reader = store.open_snapshot(sid).unwrap();
            for p in 0..6 {
                reader.page(PageId(p)).unwrap();
            }
        }
        assert_eq!(store.stats().snapshot().pagelog_reads, 7);
    }

    #[test]
    fn diff_and_shared_match_workload() {
        let store = RetroStore::in_memory(config(64, 16));
        for p in 0..10 {
            write_page(&store, PageId(p), 1);
        }
        let s1 = declare(&store);
        for p in 0..3 {
            write_page(&store, PageId(p), 2);
        }
        let s2 = declare(&store);
        // Overwrite everything so both snapshots are old.
        for p in 0..10 {
            write_page(&store, PageId(p), 3);
        }
        assert_eq!(store.diff(s1, s2).unwrap(), 3);
        assert_eq!(store.shared(s1, s2).unwrap(), 7);
    }

    #[test]
    fn overwrite_cycle_completion() {
        let store = RetroStore::in_memory(config(64, 16));
        for p in 0..4 {
            write_page(&store, PageId(p), 1);
        }
        let s1 = declare(&store);
        for p in 0..3 {
            write_page(&store, PageId(p), 2);
        }
        assert!(!store.build_spt(s1).unwrap().overwrite_complete());
        write_page(&store, PageId(3), 2);
        assert!(store.build_spt(s1).unwrap().overwrite_complete());
    }

    #[test]
    fn reader_is_isolated_from_later_commits() {
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        let s1 = declare(&store);
        let reader = store.open_snapshot(s1).unwrap();
        write_page(&store, PageId(0), 2);
        // Reader pinned before the write: still sees 1 via its view.
        assert_eq!(reader.page(PageId(0)).unwrap().read_u32(0), 1);
    }

    #[test]
    fn durable_store_survives_reopen() {
        use rql_pagestore::MemStorage;
        let wal: Arc<MemStorage> = Arc::new(MemStorage::new());
        let plog: Arc<MemStorage> = Arc::new(MemStorage::new());
        let mlog: Arc<MemStorage> = Arc::new(MemStorage::new());
        let cfg = config(64, 16);
        let (s1, s2, first_open);
        {
            let store =
                RetroStore::open(cfg.clone(), wal.clone(), plog.clone(), mlog.clone()).unwrap();
            first_open = store.incarnation();
            write_page(&store, PageId(0), 1);
            s1 = declare(&store);
            write_page(&store, PageId(0), 2);
            s2 = declare(&store);
            write_page(&store, PageId(0), 3);
            store.flush().unwrap();
        }
        let store = RetroStore::open(cfg, wal, plog, mlog).unwrap();
        // Same logs, same snapshot ids — but a new incarnation, so nothing
        // cached about the first open's snapshots can be mistaken for these.
        assert_ne!(store.incarnation(), first_open);
        assert_ne!(
            store.incarnation(),
            RetroStore::in_memory(config(64, 16)).incarnation()
        );
        assert_eq!(store.snapshot_count(), 2);
        assert_eq!(read_tag(&store, s1, PageId(0)), 1);
        assert_eq!(read_tag(&store, s2, PageId(0)), 2);
        assert_eq!(store.pager().read_page(PageId(0)).unwrap().read_u32(0), 3);
    }

    #[test]
    fn crash_torn_logs_reconcile_on_reopen() {
        use rql_pagestore::{LogStorage, MemStorage};
        let mk_history = || {
            let wal: Arc<MemStorage> = Arc::new(MemStorage::new());
            let plog: Arc<MemStorage> = Arc::new(MemStorage::new());
            let mlog: Arc<MemStorage> = Arc::new(MemStorage::new());
            let cfg = config(64, 16);
            let s1 = {
                let store =
                    RetroStore::open(cfg.clone(), wal.clone(), plog.clone(), mlog.clone()).unwrap();
                write_page(&store, PageId(0), 1);
                let s1 = declare(&store);
                write_page(&store, PageId(0), 2);
                declare(&store);
                store.flush().unwrap();
                s1
            };
            (cfg, wal, plog, mlog, s1)
        };

        // Maplog ahead: the WAL commit record of the declaring transaction
        // is torn (checksum trailer lost), so recovery discards the second
        // snapshot — the excess Maplog boundary must go with it.
        let (cfg, wal, plog, mlog, s1) = mk_history();
        wal.truncate(wal.len() - 8).unwrap();
        let store = RetroStore::open(cfg, wal, plog, mlog).unwrap();
        assert_eq!(store.snapshot_count(), 1);
        assert_eq!(read_tag(&store, s1, PageId(0)), 1);
        assert_eq!(store.pager().read_page(PageId(0)).unwrap().read_u32(0), 2);
        // The reconciled store keeps working: declare another snapshot.
        write_page(&store, PageId(0), 3);
        let s_new = declare(&store);
        assert_eq!(read_tag(&store, s_new, PageId(0)), 3);

        // WAL ahead: the boundary record (last Maplog append) is lost, so
        // the WAL is cut back to the start of the declaring segment.
        let (cfg, wal, plog, mlog, s1) = mk_history();
        mlog.truncate(mlog.len() - 17).unwrap();
        let store = RetroStore::open(cfg.clone(), wal.clone(), plog.clone(), mlog.clone()).unwrap();
        assert_eq!(store.snapshot_count(), 1);
        assert_eq!(read_tag(&store, s1, PageId(0)), 1);
        // The non-declaring write before the lost boundary survives.
        assert_eq!(store.pager().read_page(PageId(0)).unwrap().read_u32(0), 2);
        drop(store);
        // Idempotent: a second reopen finds the logs already consistent.
        let store = RetroStore::open(cfg, wal, plog, mlog).unwrap();
        assert_eq!(store.snapshot_count(), 1);
    }

    fn all_bytes(s: &rql_pagestore::MemStorage) -> Vec<u8> {
        use rql_pagestore::LogStorage;
        let mut buf = vec![0u8; s.len() as usize];
        s.read_at(0, &mut buf).unwrap();
        buf
    }

    /// Replay every committed WAL segment from `from` on `dst`, returning
    /// the new cursor — exactly what a follower applier does.
    fn replay_wal(src: &rql_pagestore::MemStorage, dst: &Arc<RetroStore>, mut from: u64) -> u64 {
        use rql_pagestore::{next_committed_segment, LogStorage};
        let upto = src.len();
        while let Some(seg) = next_committed_segment(src, from, upto).unwrap() {
            dst.apply_replicated(&seg).unwrap();
            from = seg.end;
        }
        from
    }

    #[test]
    fn replicated_apply_regenerates_identical_logs() {
        use rql_pagestore::MemStorage;
        let cfg = config(64, 16);
        let mk = || {
            let wal: Arc<MemStorage> = Arc::new(MemStorage::new());
            let plog: Arc<MemStorage> = Arc::new(MemStorage::new());
            let mlog: Arc<MemStorage> = Arc::new(MemStorage::new());
            let store =
                RetroStore::open(cfg.clone(), wal.clone(), plog.clone(), mlog.clone()).unwrap();
            (store, wal, plog, mlog)
        };
        let (leader, lwal, lplog, lmlog) = mk();
        let (follower, fwal, fplog, fmlog) = mk();

        write_page(&leader, PageId(0), 1);
        write_page(&leader, PageId(1), 10);
        let s1 = declare(&leader);
        write_page(&leader, PageId(0), 2);
        let s2 = declare(&leader);

        let cursor = replay_wal(&lwal, &follower, 0);
        assert_eq!(cursor, leader.wal_len());
        assert_eq!(follower.wal_len(), leader.wal_len());
        assert_eq!(all_bytes(&fwal), all_bytes(&lwal), "wal bytes");
        assert_eq!(all_bytes(&fplog), all_bytes(&lplog), "pagelog bytes");
        assert_eq!(all_bytes(&fmlog), all_bytes(&lmlog), "maplog bytes");
        assert_eq!(follower.snapshot_count(), 2);
        for sid in [s1, s2] {
            assert_eq!(
                read_tag(&leader, sid, PageId(0)),
                read_tag(&follower, sid, PageId(0))
            );
        }
        assert_eq!(read_tag(&follower, s1, PageId(1)), 10);

        // More commits stream later: resume from the cursor, not zero.
        write_page(&leader, PageId(2), 77); // allocates page 2
        let s3 = declare(&leader);
        let cursor = replay_wal(&lwal, &follower, cursor);
        assert_eq!(cursor, leader.wal_len());
        assert_eq!(all_bytes(&fwal), all_bytes(&lwal));
        assert_eq!(all_bytes(&fplog), all_bytes(&lplog));
        assert_eq!(all_bytes(&fmlog), all_bytes(&lmlog));
        assert_eq!(read_tag(&follower, s3, PageId(2)), 77);
        assert_eq!(
            follower.pager().read_page(PageId(2)).unwrap().read_u32(0),
            77
        );
    }

    #[test]
    fn replicated_apply_rejects_offset_divergence() {
        use rql_pagestore::{next_committed_segment, LogStorage, MemStorage};
        let cfg = config(64, 16);
        let wal: Arc<MemStorage> = Arc::new(MemStorage::new());
        let leader = RetroStore::open(
            cfg.clone(),
            wal.clone(),
            Arc::new(MemStorage::new()),
            Arc::new(MemStorage::new()),
        )
        .unwrap();
        write_page(&leader, PageId(0), 1);
        declare(&leader);
        let seg = next_committed_segment(wal.as_ref(), 0, wal.len())
            .unwrap()
            .unwrap();
        let follower = RetroStore::open(
            cfg,
            Arc::new(MemStorage::new()),
            Arc::new(MemStorage::new()),
            Arc::new(MemStorage::new()),
        )
        .unwrap();
        // Applying out of order (a segment that does not start at the
        // follower's WAL tail) must fail before touching anything.
        let mut bad = seg.clone();
        bad.start += 1;
        assert!(follower.apply_replicated(&bad).is_err());
        assert_eq!(follower.wal_len(), 0);
        // In order it applies, and re-applying the same segment fails.
        follower.apply_replicated(&seg).unwrap();
        assert!(follower.apply_replicated(&seg).is_err());
    }

    #[test]
    fn rebuild_archived_sidecars_restores_archive_after_reopen() {
        use rql_pagestore::MemStorage;
        let wal: Arc<MemStorage> = Arc::new(MemStorage::new());
        let plog: Arc<MemStorage> = Arc::new(MemStorage::new());
        let mlog: Arc<MemStorage> = Arc::new(MemStorage::new());
        let cfg = config(64, 16);
        // Sidecar = first 4 bytes of the page image (a toy summary).
        let builder: SidecarBuilder =
            Arc::new(|_pid, page, _cols| Some(page.bytes()[0..4].to_vec()));
        let expected;
        {
            let store =
                RetroStore::open(cfg.clone(), wal.clone(), plog.clone(), mlog.clone()).unwrap();
            store.set_sidecar_builder(builder.clone());
            write_page(&store, PageId(0), 1);
            declare(&store);
            write_page(&store, PageId(0), 2); // archives pre-state of P0
            let entries = store.maplog_entries();
            assert_eq!(entries, 1);
            expected = store.archived_sidecar(0).expect("archived at offset 0");
            store.flush().unwrap();
        }
        let store = RetroStore::open(cfg, wal, plog, mlog).unwrap();
        assert!(
            store.archived_sidecar(0).is_none(),
            "sidecars are in-memory: lost across reopen"
        );
        // Without a builder the rebuild is a no-op.
        assert_eq!(store.rebuild_archived_sidecars().unwrap(), 0);
        store.set_sidecar_builder(builder);
        assert_eq!(store.rebuild_archived_sidecars().unwrap(), 1);
        assert_eq!(store.archived_sidecar(0).unwrap(), expected);
        // Idempotent: nothing left to build.
        assert_eq!(store.rebuild_archived_sidecars().unwrap(), 0);
    }

    #[test]
    fn growing_the_filter_set_resummarizes_current_and_archived_pages() {
        let store = RetroStore::in_memory(config(64, 16));
        // Sidecar = the columns it summarizes (a toy summary).
        store.set_sidecar_builder(Arc::new(|_, _, cols| {
            Some(cols.iter().map(|&c| c as u8).collect())
        }));
        write_page(&store, PageId(0), 1);
        let learn = |cols: &[usize]| {
            store.add_filter_columns::<rql_pagestore::StoreError>(
                "T",
                cols,
                false,
                |view, tables, page| {
                    assert_eq!(tables, ["t"]);
                    page(PageId(0), &*view.page(PageId(0))?);
                    Ok(())
                },
            )
        };
        assert_eq!(learn(&[0]).unwrap(), 1);
        assert_eq!(learn(&[0]).unwrap(), 0, "nothing new, nothing rebuilt");
        declare(&store);
        write_page(&store, PageId(0), 2); // archives P0 with its [0] sidecar
        assert_eq!(*store.archived_sidecar(0).unwrap(), vec![0]);
        assert_eq!(store.rebuild_archived_sidecars().unwrap(), 0);
        // A grown set reaches both versions of P0, though each had one.
        assert_eq!(learn(&[1]).unwrap(), 1);
        assert_eq!(*store.current_sidecars()[&0], vec![0, 1]);
        assert_eq!(*store.archived_sidecar(0).unwrap(), vec![0, 1]);
        assert_eq!(store.filter_columns("t"), Some(vec![0, 1]));
    }

    #[test]
    fn page_allocated_after_snapshot_invisible_to_it() {
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        let s1 = declare(&store);
        write_page(&store, PageId(5), 9); // allocates pages 1..=5
        let reader = store.open_snapshot(s1).unwrap();
        assert_eq!(reader.page_count(), 1);
        assert!(reader.page(PageId(5)).is_err());
    }

    #[test]
    fn skippy_and_linear_stores_agree() {
        let mk = |use_skippy: bool| {
            let mut cfg = config(64, 16);
            cfg.use_skippy = use_skippy;
            let store = RetroStore::in_memory(cfg);
            let mut state = 42u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            for p in 0..6 {
                write_page(&store, PageId(p), p as u32);
            }
            for _ in 0..10 {
                declare(&store);
                for _ in 0..3 {
                    let p = next() % 6;
                    write_page(&store, PageId(p), next() as u32);
                }
            }
            store
        };
        let a = mk(true);
        let b = mk(false);
        for sid in 1..=10 {
            let sa = a.build_spt(sid).unwrap();
            let sb = b.build_spt(sid).unwrap();
            for p in 0..6 {
                assert_eq!(
                    sa.locate(PageId(p)),
                    sb.locate(PageId(p)),
                    "snapshot {sid} page {p}"
                );
            }
        }
    }

    #[test]
    fn write_without_prior_snapshot_archives_nothing() {
        let store = RetroStore::in_memory(config(64, 16));
        write_page(&store, PageId(0), 1);
        write_page(&store, PageId(0), 2);
        assert_eq!(store.pagelog().pre_state_count(), 0);
        assert_eq!(store.maplog_entries(), 0);
    }
}
