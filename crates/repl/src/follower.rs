//! Follower-side applier.
//!
//! A single background thread owns the leader connection: it bootstraps
//! by snapshot-seeding (a full, consistent copy of the three logs cut at
//! the leader's checkpoint), then applies the live segment stream into a
//! local durable store and ACKs its durable progress.
//!
//! Crash-safety is arranged so that every restart lands in a resumable
//! state:
//!
//! * the `repl.seeded` marker is written only after the seed bytes are
//!   synced — a crash mid-seed leaves no marker, and the next start
//!   wipes the partial files and reseeds from scratch;
//! * a crash mid-stream leaves at worst a torn log tail, which
//!   `RetroStore::open`'s recovery truncates back to a commit boundary —
//!   the follower then resumes from its recovered WAL length.
//!
//! Reconnects use exponential backoff and resume from the durable WAL
//! offset; divergence (an apply that does not land exactly at the local
//! WAL tail, or an SPT verification mismatch) is fatal by design — it
//! means the local history is not a prefix of the leader's, and silently
//! reseeding over a store that sessions may already hold open would hide
//! the corruption.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rql_pagestore::{FileStorage, LogStorage};
use rql_retro::{RetroConfig, RetroStore};

use crate::frame::{log_id, read_frame, write_frame, Frame, PROTO_VERSION};
use crate::metrics::{phase, role, ReplMetrics};
use crate::{ReplError, Result};

/// On-disk layout inside the follower's data directory.
const WAL_FILE: &str = "wal.log";
const PAGELOG_FILE: &str = "pagelog.log";
const MAPLOG_FILE: &str = "maplog.log";
/// Written only after a seed is fully synced; its absence on start
/// means any log files present are a partial seed and must be wiped.
const SEEDED_MARKER: &str = "repl.seeded";

/// Follower configuration.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Leader replication address (`host:port`).
    pub leader: String,
    /// Directory for the local durable store.
    pub data_dir: PathBuf,
    /// Store geometry; page size and pagelog format must match the
    /// leader's.
    pub retro: RetroConfig,
    /// First reconnect delay.
    pub backoff_min: Duration,
    /// Reconnect delay cap.
    pub backoff_max: Duration,
    /// Flush the store after every applied declaring segment, so the
    /// ACKed snapshot count is durable.
    pub sync_each_snapshot: bool,
}

impl FollowerConfig {
    /// Defaults for `leader` and `data_dir`.
    pub fn new(leader: impl Into<String>, data_dir: impl Into<PathBuf>) -> Self {
        FollowerConfig {
            leader: leader.into(),
            data_dir: data_dir.into(),
            retro: RetroConfig::new(),
            backoff_min: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            sync_each_snapshot: true,
        }
    }
}

struct FollowerShared {
    cfg: FollowerConfig,
    metrics: Arc<ReplMetrics>,
    /// Published once the local store is ready (after recovery or seed).
    store: Mutex<Option<Arc<RetroStore>>>,
    store_cv: Condvar,
    shutdown: AtomicBool,
    /// Live connection, kept so shutdown can unblock the reader.
    conn: Mutex<Option<TcpStream>>,
    last_error: Mutex<Option<String>>,
}

/// A running replication follower.
pub struct ReplFollower {
    shared: Arc<FollowerShared>,
    thread: Option<JoinHandle<()>>,
}

impl ReplFollower {
    /// Start following. Returns immediately; the store becomes available
    /// via [`ReplFollower::wait_for_store`] once recovery or the first
    /// seed completes.
    pub fn start(cfg: FollowerConfig, metrics: Arc<ReplMetrics>) -> ReplFollower {
        metrics.role.set(role::FOLLOWER);
        let shared = Arc::new(FollowerShared {
            cfg,
            metrics,
            store: Mutex::new(None),
            store_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conn: Mutex::new(None),
            last_error: Mutex::new(None),
        });
        let run_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || run(&run_shared));
        ReplFollower {
            shared,
            thread: Some(thread),
        }
    }

    /// The local store, if recovery or seeding has completed.
    pub fn store(&self) -> Option<Arc<RetroStore>> {
        self.shared
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Block until the local store is ready, up to `timeout`.
    pub fn wait_for_store(&self, timeout: Duration) -> Option<Arc<RetroStore>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self
            .shared
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while slot.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .shared
                .store_cv
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = next;
        }
        slot.clone()
    }

    /// The last session error, for status surfacing.
    pub fn last_error(&self) -> Option<String> {
        self.shared
            .last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Disconnect, stop the apply thread, and flush the local store.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(conn) = self
            .shared
            .conn
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(store) = self.store() {
            let _ = store.flush();
        }
        self.shared.metrics.phase.set(phase::IDLE);
    }
}

impl Drop for ReplFollower {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn record_error(shared: &FollowerShared, e: &ReplError) {
    *shared
        .last_error
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e.to_string());
}

fn run(shared: &Arc<FollowerShared>) {
    // A completed seed from an earlier run? Recover it before the first
    // connection, so reads can be served even while the leader is down.
    if shared.cfg.data_dir.join(SEEDED_MARKER).exists() {
        match open_existing(&shared.cfg) {
            Ok(store) => publish_store(shared, store),
            Err(e) => {
                record_error(shared, &e);
                return;
            }
        }
    }
    let mut backoff = shared.cfg.backoff_min;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let started = Instant::now();
        match session(shared) {
            Ok(()) => break, // clean shutdown
            Err(e @ (ReplError::Io(_) | ReplError::Store(_))) => {
                record_error(shared, &e);
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // A session that streamed for a while earns a fresh
                // backoff; rapid-fire failures back off exponentially.
                if started.elapsed() > Duration::from_secs(5) {
                    backoff = shared.cfg.backoff_min;
                }
                // Lag is unmeasurable while disconnected: drop out of
                // STREAMING so readiness probes report not-ready until
                // the next session re-establishes the stream.
                shared.metrics.phase.set(phase::IDLE);
                shared.metrics.reconnects.inc();
                sleep_interruptible(shared, backoff);
                backoff = (backoff * 2).min(shared.cfg.backoff_max);
            }
            Err(e) => {
                // Protocol mismatch or divergence: retrying cannot help.
                record_error(shared, &e);
                break;
            }
        }
    }
    shared.metrics.phase.set(phase::IDLE);
}

fn sleep_interruptible(shared: &FollowerShared, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20).min(total));
    }
}

fn publish_store(shared: &Arc<FollowerShared>, store: Arc<RetroStore>) {
    *shared
        .store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(store);
    shared.store_cv.notify_all();
}

fn log_paths(cfg: &FollowerConfig) -> [PathBuf; 3] {
    [
        cfg.data_dir.join(WAL_FILE),
        cfg.data_dir.join(PAGELOG_FILE),
        cfg.data_dir.join(MAPLOG_FILE),
    ]
}

fn open_existing(cfg: &FollowerConfig) -> Result<Arc<RetroStore>> {
    let [wal, plog, mlog] = log_paths(cfg);
    let store = RetroStore::open(
        cfg.retro.clone(),
        Arc::new(FileStorage::open(&wal)?),
        Arc::new(FileStorage::open(&plog)?),
        Arc::new(FileStorage::open(&mlog)?),
    )?;
    Ok(store)
}

/// One connection lifetime: handshake, seed if needed, apply until the
/// stream breaks or shutdown. `Ok(())` means clean shutdown.
fn session(shared: &Arc<FollowerShared>) -> Result<()> {
    let stream = TcpStream::connect(&shared.cfg.leader)?;
    // One write per frame (see the leader): an ACK must not wait out the
    // delayed ACK of the one before it.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    *shared
        .conn
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(stream);

    let existing = shared
        .store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let wal_len = existing.as_ref().map_or(0, |s| s.wal_len());
    write_frame(
        &mut writer,
        &Frame::Hello {
            proto: PROTO_VERSION,
            wal_len,
            page_size: shared.cfg.retro.pager.page_size as u32,
            format: 0,
        },
    )?;

    let store = match existing {
        Some(store) => store,
        None => receive_seed(shared, &mut reader)?,
    };
    shared.metrics.phase.set(phase::STREAMING);

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (frame, wire) = match read_frame(&mut reader) {
            Ok(read) => read,
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                return Err(e);
            }
        };
        match frame {
            Frame::Segment {
                segment: seg,
                origin,
            } => {
                {
                    // The apply span's arg is the originating txn id —
                    // the same value as the leader's `commit` span arg —
                    // so stitch_trace.py can draw the causal link.
                    let _apply = rql_trace::span_arg(rql_trace::SpanId::ReplApply, origin.span_id);
                    let declared = store
                        .apply_replicated(&seg)
                        .map_err(|e| ReplError::Diverged(e.to_string()))?;
                    if declared.is_some() && shared.cfg.sync_each_snapshot {
                        store.flush()?;
                    }
                }
                shared
                    .metrics
                    .lag_micros
                    .set(rql_trace::unix_micros().saturating_sub(origin.wall_micros));
                shared.metrics.segments_applied.inc();
                shared.metrics.bytes_applied.add(wire);
                send_ack(shared, &mut writer, &store)?;
            }
            Frame::Spt {
                snapshot_id,
                page_count,
                origin: _,
            } => {
                let local = store
                    .snapshot_meta(snapshot_id)
                    .map(|m| m.page_count)
                    .ok_or_else(|| {
                        ReplError::Diverged(format!("snapshot {snapshot_id} missing after apply"))
                    })?;
                if local != page_count {
                    return Err(ReplError::Diverged(format!(
                        "snapshot {snapshot_id} page count {local} != leader {page_count}"
                    )));
                }
            }
            Frame::Heartbeat {
                wal_len,
                snapshot_count,
            } => {
                let behind = wal_len.saturating_sub(store.wal_len());
                shared.metrics.lag_bytes.set(behind);
                shared
                    .metrics
                    .lag_snapshots
                    .set(snapshot_count.saturating_sub(store.snapshot_count()));
                if behind == 0 {
                    // Fully caught up on an idle stream: the last
                    // apply-time lag sample is stale, not current lag.
                    shared.metrics.lag_micros.set(0);
                }
                send_ack(shared, &mut writer, &store)?;
            }
            other => {
                return Err(ReplError::Protocol(format!(
                    "unexpected frame in stream: {other:?}"
                )))
            }
        }
    }
}

fn send_ack(
    shared: &FollowerShared,
    writer: &mut TcpStream,
    store: &Arc<RetroStore>,
) -> Result<()> {
    let size = write_frame(
        writer,
        &Frame::Ack {
            wal_len: store.wal_len(),
            snapshot_count: store.snapshot_count(),
        },
    )?;
    shared.metrics.bytes_applied.add(size);
    Ok(())
}

/// Receive a full seed into fresh log files, then open the store over
/// them. Any partial state from an earlier interrupted seed is wiped
/// first — the marker file is only ever written after a complete, synced
/// seed.
fn receive_seed(shared: &Arc<FollowerShared>, reader: &mut TcpStream) -> Result<Arc<RetroStore>> {
    shared.metrics.phase.set(phase::SEEDING);
    std::fs::create_dir_all(&shared.cfg.data_dir)?;
    let marker = shared.cfg.data_dir.join(SEEDED_MARKER);
    let _ = std::fs::remove_file(&marker);
    for path in log_paths(&shared.cfg) {
        let _ = std::fs::remove_file(path);
    }
    let [wal_path, plog_path, mlog_path] = log_paths(&shared.cfg);
    let wal: Arc<FileStorage> = Arc::new(FileStorage::create(&wal_path)?);
    let plog: Arc<FileStorage> = Arc::new(FileStorage::create(&plog_path)?);
    let mlog: Arc<FileStorage> = Arc::new(FileStorage::create(&mlog_path)?);

    let (start, _) = read_frame(reader)?;
    let Frame::SeedStart {
        wal_len,
        pagelog_len,
        maplog_len,
        snapshot_count: _,
    } = start
    else {
        return Err(ReplError::Protocol("expected SEED_START".into()));
    };
    loop {
        match read_frame(reader)?.0 {
            Frame::SeedChunk { log, offset, bytes } => {
                let storage: &Arc<FileStorage> = match log {
                    log_id::WAL => &wal,
                    log_id::PAGELOG => &plog,
                    log_id::MAPLOG => &mlog,
                    other => return Err(ReplError::Protocol(format!("unknown seed log {other}"))),
                };
                if storage.len() != offset {
                    return Err(ReplError::Protocol(format!(
                        "seed chunk offset {offset} != received {}",
                        storage.len()
                    )));
                }
                shared.metrics.seed_bytes.add(bytes.len() as u64);
                storage.append(&bytes)?;
            }
            Frame::SeedDone => break,
            other => {
                return Err(ReplError::Protocol(format!(
                    "unexpected frame during seed: {other:?}"
                )))
            }
        }
    }
    if wal.len() != wal_len || plog.len() != pagelog_len || mlog.len() != maplog_len {
        return Err(ReplError::Protocol("seed ended short of its cut".into()));
    }
    wal.sync()?;
    plog.sync()?;
    mlog.sync()?;
    // The marker is the commit point of the seed: everything before it
    // is synced, so a crash after this line restarts in resume mode.
    std::fs::write(&marker, b"1")?;
    let store = RetroStore::open(shared.cfg.retro.clone(), wal, plog, mlog)?;
    publish_store(shared, Arc::clone(&store));
    Ok(store)
}
