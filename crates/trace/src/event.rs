//! The event vocabulary: a closed set of span identities plus the
//! enter/exit/instant kinds they occur as.
//!
//! Everything here is plain-old-data on purpose. A [`SpanId`] is a
//! `u16`-sized enum — not an interned string — so recording an event
//! never allocates and never chases a pointer; names and categories are
//! `&'static str` tables resolved only at *decode* time (export, flight
//! dump). Free-form text enters the system exclusively through
//! [`crate::label`], a tiny registry of `&'static str` labels interned
//! once per call site.

/// How a [`SpanId`] occurs in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A scoped span opened (duration not yet known).
    Enter = 0,
    /// A scoped span closed; the event carries the full duration.
    Exit = 1,
    /// A point event with no duration.
    Instant = 2,
}

impl EventKind {
    /// Decode from the packed representation.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        match v {
            0 => Some(EventKind::Enter),
            1 => Some(EventKind::Exit),
            2 => Some(EventKind::Instant),
            _ => None,
        }
    }
}

macro_rules! span_ids {
    ($( $(#[$doc:meta])* $variant:ident = ($num:literal, $name:literal, $cat:literal), )+) => {
        /// Identity of a traced operation, one variant per instrumented
        /// site class across the stack.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u16)]
        #[non_exhaustive]
        pub enum SpanId {
            $( $(#[$doc])* $variant = $num, )+
        }

        impl SpanId {
            /// Every registered span id (decode-side iteration).
            pub const ALL: &'static [SpanId] = &[ $( SpanId::$variant, )+ ];

            /// Stable lower-snake event name (Chrome-trace `name`).
            pub fn name(self) -> &'static str {
                match self { $( SpanId::$variant => $name, )+ }
            }

            /// Subsystem category (Chrome-trace `cat`).
            pub fn category(self) -> &'static str {
                match self { $( SpanId::$variant => $cat, )+ }
            }

            /// Decode from the packed representation.
            pub fn from_u16(v: u16) -> Option<SpanId> {
                match v {
                    $( $num => Some(SpanId::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

span_ids! {
    // -- pagestore -----------------------------------------------------
    /// A page fetched from the base database file.
    DbRead = (1, "db_read", "pagestore"),
    /// A page fetched from the Pagelog archive.
    PagelogRead = (2, "pagelog_read", "pagestore"),
    /// A page written back through the pager.
    PageWrite = (3, "page_write", "pagestore"),
    /// Buffer-cache hit.
    CacheHit = (4, "cache_hit", "pagestore"),
    /// Buffer-cache eviction.
    CacheEviction = (5, "cache_eviction", "pagestore"),
    /// Pre-image captured copy-on-write into the Pagelog.
    CowCapture = (6, "cow_capture", "pagestore"),
    /// Maplog entries scanned while resolving a snapshot (arg = count).
    MaplogScan = (7, "maplog_scan", "pagestore"),
    /// WAL durability sync (fsync analog).
    WalFsync = (8, "wal_fsync", "pagestore"),
    /// Heap page skipped because its sidecar refuted the predicate.
    PagePruned = (9, "page_pruned", "pagestore"),
    /// Pruning sidecar built for a staged page (arg = sidecar bytes).
    SidecarBuild = (10, "sidecar_build", "pagestore"),
    // -- retro ---------------------------------------------------------
    /// Snapshot chain opened for reading (arg = snapshot id).
    ChainOpen = (16, "chain_open", "retro"),
    /// Snapshot page table built/located (arg = snapshot id).
    SptBuild = (17, "spt_build", "retro"),
    /// One write transaction committed (arg = txn id). Declaring
    /// commits run their snapshot hooks — standing-query maintenance
    /// and push — inside this span, and replication frames carry the
    /// same txn id, so cross-node stitching can hang follower applies
    /// off the originating commit.
    Commit = (18, "commit", "retro"),
    // -- sqlengine -----------------------------------------------------
    /// Base-table scan (arg = rows produced).
    Scan = (32, "scan", "sqlengine"),
    /// Join step against one more table (arg = rows produced).
    Join = (33, "join", "sqlengine"),
    /// Ad-hoc index build inside a query (paper §5, Figure 9).
    IndexBuild = (34, "index_build", "sqlengine"),
    // -- core (RQL mechanisms) -----------------------------------------
    /// Qs evaluated on the auxiliary database (arg = snapshots found).
    QsLoop = (48, "qs", "rql"),
    /// One Qq iteration (arg = snapshot id).
    QqIteration = (49, "qq_iteration", "rql"),
    /// Memoized Qq result served (arg = snapshot id).
    MemoHit = (50, "memo_hit", "rql"),
    /// Memo probed and missed; Qq executed live (arg = snapshot id).
    MemoMiss = (51, "memo_miss", "rql"),
    /// Rows folded into the result table (arg = row count).
    RowsFolded = (52, "rows_folded", "rql"),
    /// Iteration took the delta-driven path (arg = snapshot id).
    DeltaPath = (53, "delta_path", "rql"),
    /// Iteration took the sequential fallback path (arg = snapshot id).
    SeqPath = (54, "seq_path", "rql"),
    /// Mechanism finalization (e.g. AggVariable result materialization).
    Finalize = (55, "finalize", "rql"),
    /// Iteration skipped entirely: every changed page was refuted by its
    /// sidecar, so the prior snapshot's rows were reused (arg = snapshot id).
    SnapshotPruned = (56, "snapshot_pruned", "rql"),
    // -- memo ----------------------------------------------------------
    /// Memo store probe (lookup).
    MemoProbe = (64, "memo_probe", "memo"),
    /// Memo store insert.
    MemoInsert = (65, "memo_insert", "memo"),
    // 66 and 67 were the memo's disk-spill tier; retired, not reused.
    // -- rqld ----------------------------------------------------------
    /// Connection accepted.
    ConnAccept = (80, "conn_accept", "rqld"),
    /// RUN job admitted to the queue (arg = job id).
    JobAdmit = (81, "job_admit", "rqld"),
    /// RUN job pulled from the queue by a worker (arg = job id).
    JobDequeue = (82, "job_dequeue", "rqld"),
    /// RUN job executing on a worker (arg = job id).
    JobRun = (83, "job_run", "rqld"),
    /// Response frame written back to the client (arg = job id).
    JobReply = (84, "job_reply", "rqld"),
    /// Client-supplied 16-byte trace id observed on a RUN/PREPARE frame
    /// (arg = the id's first 8 bytes, big-endian — enough to correlate
    /// per-node exports in `stitch_trace.py`).
    TraceCtx = (85, "trace_ctx", "rqld"),
    // -- standing (continuous RQL) --------------------------------------
    /// A standing query registered: seed batch pass over the backlog
    /// (arg = snapshots seeded).
    StandingSeed = (88, "standing_seed", "standing"),
    /// One standing query maintained through one committed snapshot
    /// (arg = snapshot id).
    StandingMaintain = (89, "standing_maintain", "standing"),
    /// A result-delta frame pushed to one subscriber (arg = rows in the
    /// frame).
    StandingPush = (90, "standing_push", "standing"),
    // -- bench ---------------------------------------------------------
    /// A named experiment phase (label = phase name).
    BenchPhase = (96, "bench_phase", "bench"),
    // -- repl ----------------------------------------------------------
    /// Leader shipped one committed WAL segment to a follower
    /// (arg = the segment's txn id, matching the leader's `commit` span).
    ReplShip = (104, "repl_ship", "repl"),
    /// Follower applied one replicated segment (arg = the originating
    /// txn id from the frame, matching the leader's `commit` span).
    ReplApply = (105, "repl_apply", "repl"),
}

/// One decoded trace event, as read back from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order of ring claims).
    pub seq: u64,
    /// Enter / exit / instant.
    pub kind: EventKind,
    /// What happened.
    pub span: SpanId,
    /// Recording thread (stable per-thread ordinal, not an OS tid).
    pub tid: u64,
    /// Nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    /// Span duration in nanoseconds (exit events; zero otherwise).
    pub dur_nanos: u64,
    /// Free argument (snapshot id, row count, job id — see [`SpanId`]).
    pub arg: u64,
    /// Optional interned label (bench phase names).
    pub label: Option<&'static str>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_roundtrip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &id in SpanId::ALL {
            assert_eq!(SpanId::from_u16(id as u16), Some(id));
            assert!(seen.insert(id as u16), "duplicate span number {id:?}");
            assert!(!id.name().is_empty());
            assert!(!id.category().is_empty());
        }
        assert_eq!(SpanId::from_u16(0xFFFF), None);
    }

    #[test]
    fn event_kinds_roundtrip() {
        for kind in [EventKind::Enter, EventKind::Exit, EventKind::Instant] {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_u8(9), None);
    }
}
