//! Leader-side segment shipper.
//!
//! One accept thread, then two threads per follower: a sender that tails
//! the committed WAL and ships seed bytes / segments / heartbeats, and an
//! ACK reader that tracks the follower's durable progress. The sender
//! reads the WAL through the store's own `LogStorage` handle at its own
//! cursor, so a slow follower costs no leader memory — backpressure is a
//! bounded *window* (shipped-but-unacked bytes), and a follower that
//! stays past the window for longer than the stall timeout is shed.
//!
//! Commit visibility: the store's commit hook publishes the WAL length
//! under a mutex + condvar. A published length may end mid-transaction
//! (another commit's page records already appended, its commit record
//! not), but `next_committed_segment` treats an incomplete tail as
//! "nothing to ship yet", so the sender can never ship an uncommitted
//! record.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rql_pagestore::next_committed_segment;
use rql_retro::{PagelogFormat, ReplLogs, RetroStore};

use crate::frame::{log_id, read_frame, write_frame, CommitOrigin, Frame, PROTO_VERSION};
use crate::metrics::{phase, role, ReplMetrics};
use crate::{ReplError, Result};

/// Leader tuning knobs.
#[derive(Debug, Clone)]
pub struct LeaderConfig {
    /// Max shipped-but-unacked WAL bytes per follower before the sender
    /// pauses (the bounded send queue, expressed in log bytes).
    pub window_bytes: u64,
    /// How long a sender may stay paused on a full window before the
    /// follower is shed.
    pub stall_timeout: Duration,
    /// Idle heartbeat interval.
    pub heartbeat: Duration,
    /// Seed transfer chunk size.
    pub seed_chunk: usize,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            window_bytes: 16 * 1024 * 1024,
            stall_timeout: Duration::from_secs(10),
            heartbeat: Duration::from_millis(200),
            seed_chunk: 256 * 1024,
        }
    }
}

/// Per-follower connection state shared between sender and ACK reader.
struct ConnState {
    stream: TcpStream,
    /// (acked WAL length, acked snapshot count).
    acked: Mutex<(u64, u64)>,
    acked_cv: Condvar,
    dead: AtomicBool,
}

impl ConnState {
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.acked_cv.notify_all();
    }
}

struct LeaderShared {
    store: Arc<RetroStore>,
    logs: ReplLogs,
    metrics: Arc<ReplMetrics>,
    cfg: LeaderConfig,
    /// Published committed-WAL length; senders sleep on the condvar.
    tail: Mutex<u64>,
    tail_cv: Condvar,
    shutdown: AtomicBool,
    conns: Mutex<Vec<Arc<ConnState>>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl LeaderShared {
    /// Recompute the worst-follower lag gauges.
    fn update_lag(&self) {
        let wal_len = self.logs.wal.len();
        let snaps = self.store.snapshot_count();
        let mut lag_bytes = 0u64;
        let mut lag_snaps = 0u64;
        for conn in self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let (aw, asnaps) = *conn
                .acked
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            lag_bytes = lag_bytes.max(wal_len.saturating_sub(aw));
            lag_snaps = lag_snaps.max(snaps.saturating_sub(asnaps));
        }
        self.metrics.lag_bytes.set(lag_bytes);
        self.metrics.lag_snapshots.set(lag_snaps);
    }
}

/// A running replication leader.
pub struct ReplLeader {
    shared: Arc<LeaderShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ReplLeader {
    /// Start serving followers on `listener`. The store must be durable
    /// (opened with logs) and use the raw Pagelog format — adaptive
    /// archives are chain-order-dependent and not byte-replayable.
    pub fn start(
        store: Arc<RetroStore>,
        listener: TcpListener,
        metrics: Arc<ReplMetrics>,
        cfg: LeaderConfig,
    ) -> Result<ReplLeader> {
        let logs = store
            .repl_logs()
            .ok_or_else(|| ReplError::Protocol("replication requires a durable store".into()))?;
        if !matches!(store.config().pagelog_format, PagelogFormat::Raw) {
            return Err(ReplError::Protocol(
                "replication requires the raw pagelog format".into(),
            ));
        }
        let addr = listener.local_addr()?;
        metrics.role.set(role::LEADER);
        let shared = Arc::new(LeaderShared {
            tail: Mutex::new(store.wal_len()),
            store,
            logs,
            metrics,
            cfg,
            tail_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
        });
        // The hook outlives the leader (hooks are never removed), so it
        // holds a weak reference and goes inert after shutdown.
        let weak: Weak<LeaderShared> = Arc::downgrade(&shared);
        shared.store.add_commit_hook(Arc::new(move || {
            if let Some(s) = weak.upgrade() {
                let len = s.logs.wal.len();
                let mut tail = s
                    .tail
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if len > *tail {
                    *tail = len;
                    s.tail_cv.notify_all();
                }
            }
        }));
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(ReplLeader {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0 in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, disconnect all followers, join all threads.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.tail_cv.notify_all();
        for conn in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            conn.kill();
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(
            &mut *self
                .shared
                .handlers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for h in handlers {
            let _ = h.join();
        }
        self.shared.metrics.phase.set(phase::IDLE);
    }
}

impl Drop for ReplLeader {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<LeaderShared>, listener: &TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let _ = serve_follower(&conn_shared, stream);
        });
        shared
            .handlers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(handle);
    }
}

/// Drive one follower connection: handshake, optional seed, then the
/// live segment stream. Any error tears the connection down; the
/// follower reconnects and resumes.
fn serve_follower(shared: &Arc<LeaderShared>, stream: TcpStream) -> Result<()> {
    // Every frame leaves as one write, so Nagle has nothing to merge; it
    // would only hold a frame back until the peer's delayed ACK of the
    // one before, and that wait shows up as replication lag.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    // A follower that stops draining its socket must not wedge the
    // sender forever: blocked writes time out like a full window does.
    writer.set_write_timeout(Some(shared.cfg.stall_timeout))?;
    let (hello, _) = read_frame(&mut reader)?;
    let Frame::Hello {
        proto,
        wal_len: follower_wal,
        page_size,
        format,
    } = hello
    else {
        return Err(ReplError::Protocol("expected HELLO".into()));
    };
    if proto != PROTO_VERSION {
        return Err(ReplError::Protocol(format!(
            "protocol version mismatch: leader {PROTO_VERSION}, follower {proto}"
        )));
    }
    if page_size as usize != shared.store.config().pager.page_size || format != 0 {
        return Err(ReplError::Protocol(
            "store geometry mismatch (page size / pagelog format)".into(),
        ));
    }

    // Decide the stream start: resume at the follower's WAL length when
    // it is a prefix of ours, otherwise seed from scratch.
    let mut cursor = if follower_wal == 0 || follower_wal > shared.store.wal_len() {
        send_seed(shared, &mut writer)?
    } else {
        follower_wal
    };

    let conn = Arc::new(ConnState {
        stream,
        acked: Mutex::new((cursor, shared.store.snapshot_count())),
        acked_cv: Condvar::new(),
        dead: AtomicBool::new(false),
    });
    shared
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(Arc::clone(&conn));
    shared.metrics.followers.inc();
    shared.metrics.phase.set(phase::STREAMING);

    let ack_conn = Arc::clone(&conn);
    let ack_shared = Arc::clone(shared);
    let ack_reader = std::thread::spawn(move || {
        while let Ok((frame, _)) = read_frame(&mut reader) {
            if let Frame::Ack {
                wal_len,
                snapshot_count,
            } = frame
            {
                *ack_conn
                    .acked
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = (wal_len, snapshot_count);
                ack_conn.acked_cv.notify_all();
                ack_shared.update_lag();
            }
        }
        ack_conn.kill();
    });

    let result = stream_segments(shared, &conn, &mut writer, &mut cursor);
    conn.kill();
    let _ = ack_reader.join();
    {
        let mut conns = shared
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        conns.retain(|c| !Arc::ptr_eq(c, &conn));
        if conns.is_empty() {
            shared.metrics.phase.set(phase::IDLE);
        }
    }
    shared.metrics.followers.dec();
    shared.update_lag();
    result
}

/// Ship a snapshot-consistent full copy of the three logs, cut at a
/// mutually consistent point. Returns the WAL cursor to stream from.
fn send_seed(shared: &Arc<LeaderShared>, writer: &mut TcpStream) -> Result<u64> {
    shared.metrics.phase.set(phase::SEEDING);
    let ckpt = shared.store.repl_checkpoint()?;
    let mut shipped = write_frame(
        writer,
        &Frame::SeedStart {
            wal_len: ckpt.wal_len,
            pagelog_len: ckpt.pagelog_len,
            maplog_len: ckpt.maplog_len,
            snapshot_count: ckpt.snapshot_count,
        },
    )?;
    let logs = [
        (log_id::WAL, &shared.logs.wal, ckpt.wal_len),
        (log_id::PAGELOG, &shared.logs.pagelog, ckpt.pagelog_len),
        (log_id::MAPLOG, &shared.logs.maplog, ckpt.maplog_len),
    ];
    for (log, storage, len) in logs {
        let mut offset = 0u64;
        while offset < len {
            let n = (shared.cfg.seed_chunk as u64).min(len - offset) as usize;
            let mut bytes = vec![0u8; n];
            storage.read_at(offset, &mut bytes)?;
            shipped += write_frame(writer, &Frame::SeedChunk { log, offset, bytes })?;
            offset += n as u64;
        }
    }
    shipped += write_frame(writer, &Frame::SeedDone)?;
    shared.metrics.bytes_shipped.add(shipped);
    shared.metrics.seeds_served.inc();
    Ok(ckpt.wal_len)
}

fn stream_segments(
    shared: &Arc<LeaderShared>,
    conn: &Arc<ConnState>,
    writer: &mut TcpStream,
    cursor: &mut u64,
) -> Result<()> {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || conn.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        let upto = shared.logs.wal.len();
        match next_committed_segment(shared.logs.wal.as_ref(), *cursor, upto)? {
            Some(seg) => {
                // Bounded send window: pause while the follower is more
                // than `window_bytes` behind the shipped cursor; shed it
                // if the pause outlasts the stall timeout.
                let deadline = Instant::now() + shared.cfg.stall_timeout;
                let mut acked = conn
                    .acked
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while acked.0 + shared.cfg.window_bytes < seg.end
                    && !conn.dead.load(Ordering::SeqCst)
                    && !shared.shutdown.load(Ordering::SeqCst)
                {
                    let now = Instant::now();
                    if now >= deadline {
                        shared.metrics.sheds.inc();
                        return Err(ReplError::Protocol("slow follower shed".into()));
                    }
                    let (next, _) = conn
                        .acked_cv
                        .wait_timeout(acked, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    acked = next;
                }
                drop(acked);
                if conn.dead.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                // The origin ties this frame to the commit that produced
                // it: span_id is the txn id (the leader's `commit` span
                // arg), wall_micros the ship-time clock followers
                // subtract from to compute time lag.
                let origin = CommitOrigin {
                    span_id: seg.txn_id,
                    wall_micros: rql_trace::unix_micros(),
                };
                let ship = rql_trace::span_arg(rql_trace::SpanId::ReplShip, seg.txn_id);
                let (end, declared) = (seg.end, seg.snapshot);
                let size = write_frame(
                    writer,
                    &Frame::Segment {
                        segment: seg,
                        origin,
                    },
                )?;
                shared.metrics.bytes_shipped.add(size);
                shared.metrics.segments_shipped.inc();
                // After a declaring segment, ship the SPT verification
                // frame so the follower can cross-check the snapshot.
                if let Some(sid) = declared {
                    if let Some(meta) = shared.store.snapshot_meta(sid) {
                        write_frame(
                            writer,
                            &Frame::Spt {
                                snapshot_id: sid,
                                page_count: meta.page_count,
                                origin,
                            },
                        )?;
                    }
                }
                drop(ship);
                *cursor = end;
                shared.update_lag();
            }
            None => {
                // Nothing committed past the cursor: sleep until the
                // commit hook publishes a longer tail, heartbeating on
                // the way so the follower can track lag while idle.
                let tail = shared
                    .tail
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if *tail <= *cursor {
                    let (_tail, timeout) = shared
                        .tail_cv
                        .wait_timeout(tail, shared.cfg.heartbeat)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if timeout.timed_out() {
                        let size = write_frame(
                            writer,
                            &Frame::Heartbeat {
                                wal_len: shared.store.wal_len(),
                                snapshot_count: shared.store.snapshot_count(),
                            },
                        )?;
                        shared.metrics.bytes_shipped.add(size);
                    }
                }
            }
        }
    }
}
