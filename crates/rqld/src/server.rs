//! The `rqld` server: TCP accept loop, admission-controlled worker
//! pool, per-query deadline watchdog, cancel registry, graceful drain.
//!
//! Threading model (all std, no async runtime):
//!
//! * one **acceptor** thread owns the listener; each connection gets a
//!   cheap blocking **connection thread** that parses frames and waits
//!   on response slots;
//! * a fixed pool of **worker** threads executes `RUN` jobs pulled from
//!   a bounded queue — the queue bound *is* the admission controller
//!   (full queue → immediate `[RQL503]` rejection, never head-of-line
//!   blocking);
//! * one **watchdog** thread trips the per-session cancellation token
//!   with [`CancelCause::Timeout`] when a job overruns its deadline —
//!   the executor notices at its next cooperative checkpoint;
//! * `SHUTDOWN` flips a flag: the acceptor stops accepting, workers
//!   drain the queue and exit, and [`ServerHandle::wait`] returns once
//!   every queued query has produced its response.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rql::{
    analyze_program, parse_program, CancelCause, Program, ProgramRun, RqlSession, SchemaEnv,
    Severity, SqlError,
};
use rql_memo::{MemoConfig, MemoStore};
use rql_pagestore::wire::WireError;
use rql_pagestore::FileStorage;
use rql_repl::{FollowerConfig, LeaderConfig, ReplFollower, ReplLeader, ReplMetrics};
use rql_retro::{RetroConfig, RetroStore};
use rql_standing::{PushFrame, StandingEngine, Subscription};

use crate::metrics::{Metrics, Readings, StandingSnapshot};
use crate::observe::{render_metrics, render_openmetrics, render_replstatus};
use crate::pool::{ServerSession, SharedStack};
use crate::protocol::{
    Request, Response, WireDelta, WireDiagnostic, WireFix, WireProfile, WireReport, WireResult,
    WireTable, FRAMING, PROTOCOL_VERSION,
};

/// Admission / pool sizing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (CPU concurrency bound).
    pub workers: usize,
    /// Bounded job-queue depth; a full queue rejects at admission.
    pub queue_capacity: usize,
    /// Maximum concurrently checked-out sessions (connections).
    pub max_sessions: u64,
    /// Per-query wall-clock deadline; `None` disables the watchdog trip.
    pub query_timeout: Option<Duration>,
    /// Store configuration for the shared stack.
    pub retro: RetroConfig,
    /// Share one Qq memoization store across all sessions (`--no-memo`
    /// turns this off for the whole server).
    pub memo: bool,
    /// Log queries slower than this to stderr (`--slow-ms N`); `None`
    /// disables the slow-query log.
    pub slow_query: Option<Duration>,
    /// Durable store directory: the WAL/Pagelog/Maplog live here and
    /// survive restarts. `None` keeps the store in memory. Required for
    /// both replication roles (a leader ships its on-disk logs; a
    /// follower seeds into them).
    pub data_dir: Option<PathBuf>,
    /// Leader mode: accept replication followers on this address and
    /// ship committed segments to them.
    pub repl_listen: Option<String>,
    /// Follower mode: bootstrap from and stream the leader at this
    /// address. The server becomes a read-only replica — writes and
    /// standing-query registration are rejected with `RQL505`.
    pub follow: Option<String>,
    /// Observability listener: serve `GET /metrics` (Prometheus text
    /// exposition), `/healthz` and `/readyz` on this address
    /// (`--metrics-listen ADDR`). `None` disables the listener.
    pub metrics_listen: Option<String>,
    /// Follower readiness bound: `/readyz` answers 503 while the
    /// propagated replication lag exceeds this (`--ready-lag SECS`).
    /// Ignored on leaders and standalone servers.
    pub ready_lag: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            max_sessions: 64,
            query_timeout: None,
            retro: RetroConfig::new(),
            memo: true,
            slow_query: None,
            data_dir: None,
            repl_listen: None,
            follow: None,
            metrics_listen: None,
            ready_lag: Duration::from_secs(5),
        }
    }
}

/// Wire code for a runtime error. Analyzer diagnostics carry their own
/// registry codes; runtime failures map onto the nearest class, with
/// `RQL3xx` reserved for cancellation causes and `RQL500`/`RQL503` for
/// server-side conditions (execution failure / admission rejection).
pub fn error_code(e: &SqlError) -> &'static str {
    match e {
        SqlError::Cancelled(cause) => cause.code(),
        SqlError::Parse(_) | SqlError::ParseAt { .. } => "RQL050",
        SqlError::Unknown(_) => "RQL001",
        _ => "RQL500",
    }
}

/// Admission-rejection wire code (queue full or draining).
pub const ADMISSION_CODE: &str = "RQL503";

struct Job {
    id: u64,
    program: Program,
    no_memo: bool,
    session: Arc<ServerSession>,
    admitted: Instant,
    slot: Mutex<Option<Result<ProgramRun, SqlError>>>,
    done: Condvar,
}

struct Inner {
    stack: Arc<SharedStack>,
    metrics: Arc<Metrics>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    sessions: Mutex<HashMap<u64, Arc<ServerSession>>>,
    deadlines: Mutex<HashMap<u64, (Instant, Arc<ServerSession>)>>,
    next_job: AtomicU64,
    shutting_down: AtomicBool,
    started: Instant,
    /// Standing-query registry, attached to the shared store's snapshot
    /// hook: maintenance runs on whichever connection thread commits.
    standing: Arc<StandingEngine>,
    /// The server-owned session hosting every standing query's result
    /// table (registration seeds and maintains against this session, so
    /// standing queries outlive the connection that registered them).
    standing_session: Arc<RqlSession>,
    /// Flight-recorder dump captured at the last failed job (watchdog
    /// timeout, cancellation, Qq error), served by `STATUS --flight`
    /// even after the ring has moved on.
    last_flight: Mutex<Option<String>>,
    /// Replication counters, rendered by `METRICS` (under `repl_`) and
    /// `REPLSTATUS`. Stays zeroed when replication is not configured.
    repl_metrics: Arc<ReplMetrics>,
    /// Leader-side segment shipper, kept alive for the server's
    /// lifetime; torn down at drain so followers see a clean close.
    repl_leader: Mutex<Option<ReplLeader>>,
    /// Follower-side applier; torn down at drain (flushes the replica).
    repl_follower: Mutex<Option<ReplFollower>>,
}

impl Inner {
    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Admit a RUN job or reject it. Returns `None` (with the metric
    /// bumped) when the queue is full or the server is draining.
    fn admit(
        self: &Arc<Self>,
        program: Program,
        no_memo: bool,
        session: Arc<ServerSession>,
    ) -> Option<Arc<Job>> {
        let job = {
            let mut queue = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if self.draining() || queue.len() >= self.config.queue_capacity {
                drop(queue);
                self.metrics.admission_rejected.inc();
                return None;
            }
            let job = Arc::new(Job {
                id: self.next_job.fetch_add(1, Ordering::Relaxed),
                program,
                no_memo,
                session,
                admitted: Instant::now(),
                slot: Mutex::new(None),
                done: Condvar::new(),
            });
            queue.push_back(Arc::clone(&job));
            job
        };
        self.metrics.queries_total.inc();
        self.metrics.queue_depth.inc();
        rql_trace::instant_arg(rql_trace::SpanId::JobAdmit, job.id);
        self.queue_cv.notify_one();
        Some(job)
    }

    /// Worker loop: run queued jobs until the drain flag is up *and* the
    /// queue is empty.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = self
                    .queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.draining() {
                        return;
                    }
                    queue = self
                        .queue_cv
                        .wait_timeout(queue, Duration::from_millis(50))
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
            };
            self.metrics.queue_depth.dec();
            self.metrics.in_flight.inc();
            rql_trace::instant_arg(rql_trace::SpanId::JobDequeue, job.id);
            self.run_job(&job);
            self.metrics.in_flight.dec();
        }
    }

    fn run_job(self: &Arc<Self>, job: &Arc<Job>) {
        // Re-arm the token: cancellation is sticky (sqlite3_interrupt
        // semantics) and a CANCEL aimed at the previous query must not
        // kill this one.
        job.session.session().clear_cancel();
        if let Some(timeout) = self.config.query_timeout {
            self.deadlines
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(job.id, (job.admitted + timeout, Arc::clone(&job.session)));
        }
        let result = {
            let _span = rql_trace::span_arg(rql_trace::SpanId::JobRun, job.id);
            job.session.run_program_opts(&job.program, job.no_memo)
        };
        self.deadlines
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&job.id);

        // Any failure freezes the flight recorder: the ring keeps
        // rolling, but the dump at the moment of the error is what a
        // post-mortem needs (`STATUS --flight` serves it).
        if result.is_err() {
            *self
                .last_flight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) =
                Some(rql_trace::flight_dump());
        }
        if let Some(threshold) = self.config.slow_query {
            let elapsed = job.admitted.elapsed();
            if elapsed >= threshold {
                eprintln!(
                    "rqld: slow query: job {} took {:.1}ms (threshold {:.1}ms)",
                    job.id,
                    elapsed.as_secs_f64() * 1e3,
                    threshold.as_secs_f64() * 1e3,
                );
            }
        }

        match &result {
            Ok(run) => {
                self.metrics.queries_ok.inc();
                let rows: u64 = run.tables.iter().map(|t| t.rows.len() as u64).sum();
                self.metrics.rows_returned.add(rows);
                for (_, report) in &run.reports {
                    let m = &self.metrics;
                    let acc = report.accumulated_stats();
                    m.qq_iterations.add(report.iteration_count() as u64);
                    m.qq_rows.add(report.total_qq_rows());
                    m.pages_skipped_delta.add(acc.pages_skipped_delta);
                    m.pages_pruned_filter.add(acc.pages_pruned_filter);
                }
            }
            Err(SqlError::Cancelled(CancelCause::Client)) => {
                self.metrics.queries_failed.inc();
                self.metrics.queries_cancelled.inc();
            }
            Err(SqlError::Cancelled(CancelCause::Timeout)) => {
                self.metrics.queries_failed.inc();
                self.metrics.queries_timed_out.inc();
            }
            Err(_) => self.metrics.queries_failed.inc(),
        }
        self.metrics.latency.record(job.admitted.elapsed());

        *job.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
        job.done.notify_all();
    }

    /// Watchdog: trip `Timeout` on sessions whose job overran its
    /// deadline. Runs until drain completes.
    fn watchdog_loop(self: &Arc<Self>) {
        while !self.draining() {
            thread::sleep(Duration::from_millis(5));
            let now = Instant::now();
            let expired: Vec<Arc<ServerSession>> = {
                let mut deadlines = self
                    .deadlines
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let hit: Vec<u64> = deadlines
                    .iter()
                    .filter(|(_, (deadline, _))| *deadline <= now)
                    .map(|(&id, _)| id)
                    .collect();
                hit.into_iter()
                    .filter_map(|id| deadlines.remove(&id).map(|(_, s)| s))
                    .collect()
            };
            for session in expired {
                session.session().cancel(CancelCause::Timeout);
            }
        }
    }

    fn begin_shutdown(self: &Arc<Self>, addr: std::net::SocketAddr) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Subscribers first: each gets a terminal END frame (reason
        // "drained") instead of a silently dropped socket, and the
        // blocked subscription writers wake up to deliver it.
        self.standing.drain();
        // Replication endpoints next: the leader stops shipping (its
        // followers reconnect-and-resume elsewhere or wait), a follower
        // stops applying and flushes its replica.
        if let Some(mut leader) = self
            .repl_leader
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            leader.shutdown();
        }
        if let Some(mut follower) = self
            .repl_follower
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            follower.shutdown();
        }
        // Wake every parked worker so they observe the flag, and poke
        // the acceptor out of its blocking accept().
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(addr);
    }

    /// Every registry `METRICS` and `/metrics` render, read now.
    fn readings(&self) -> Readings<'_> {
        Readings {
            server: &self.metrics,
            io: self.stack.store().stats().snapshot(),
            memo: self.stack.memo_stats(),
            standing: StandingSnapshot::from_statuses(&self.standing.statuses()),
            repl: self.repl_metrics.snapshot(),
        }
    }

    /// The `/readyz` verdict. A leader or standalone server is ready
    /// unless it is draining. A follower is additionally gated on its
    /// replication session: it must be streaming (not reconnecting or
    /// shed) with the propagated commit-timestamp lag under the
    /// configured bound. The store itself is always seeded by the time
    /// this runs — `serve` blocks on the bootstrap before binding.
    fn readyz(&self) -> rql_trace::HttpResponse {
        if self.draining() {
            return rql_trace::HttpResponse::unavailable("draining\n");
        }
        if self.config.follow.is_some() {
            let snap = self.repl_metrics.snapshot();
            if snap.phase != rql_repl::phase::STREAMING {
                return rql_trace::HttpResponse::unavailable(format!(
                    "follower not streaming (phase {})\n",
                    snap.phase
                ));
            }
            let lag = Duration::from_micros(snap.lag_micros);
            if lag > self.config.ready_lag {
                return rql_trace::HttpResponse::unavailable(format!(
                    "replication lag {:.3}s exceeds bound {:.3}s\n",
                    lag.as_secs_f64(),
                    self.config.ready_lag.as_secs_f64()
                ));
            }
        }
        rql_trace::HttpResponse::ok("ready\n")
    }

    fn status_line(&self) -> String {
        format!(
            "rqld up {}s, sessions={}, queue={}/{}, in_flight={}, snapshots={}",
            self.started.elapsed().as_secs(),
            self.stack.active_sessions(),
            self.metrics.queue_depth.get(),
            self.config.queue_capacity,
            self.metrics.in_flight.get(),
            self.stack.snapshot_log_len(),
        )
    }
}

/// Running server: join handles plus the shared state.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    observe: Option<rql_trace::HttpServer>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// The server's standing-query engine (registry + push fan-out).
    pub fn standing(&self) -> &Arc<StandingEngine> {
        &self.inner.standing
    }

    /// The observability listener's bound address (when
    /// `metrics_listen` is configured; useful with port 0).
    pub fn observe_addr(&self) -> Option<std::net::SocketAddr> {
        self.observe.as_ref().map(rql_trace::HttpServer::addr)
    }

    /// The replication listener's bound address (leader mode only;
    /// useful when `repl_listen` used port 0).
    pub fn repl_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner
            .repl_leader
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(ReplLeader::addr)
    }

    /// Initiate a drain from the host process (same as a `SHUTDOWN`
    /// frame): stop accepting, finish queued work.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown(self.addr);
    }

    /// Block until drain completes: acceptor gone, queue empty, workers
    /// and watchdog joined.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        // Every worker has exited, so no commit can race this final
        // checkpoint. Without it a durable store's buffered WAL tail
        // dies with the process and a clean restart comes back short —
        // on a leader, *behind its own followers*, which breaks
        // wal-length resume.
        let _ = self.inner.stack.store().flush();
        if let Some(mut o) = self.observe.take() {
            o.shutdown();
        }
    }
}

/// Open (or create) the three durable logs under `dir` and the store
/// over them. Crash reconciliation and WAL recovery run inside
/// [`RetroStore::open`]. The file names match what a replication
/// follower seeds into, so a follower's data dir can be promoted to a
/// standalone (or leader) store by restarting without `--follow`.
fn open_durable_store(dir: &std::path::Path, config: RetroConfig) -> io::Result<Arc<RetroStore>> {
    std::fs::create_dir_all(dir)?;
    let mk = |name: &str| -> io::Result<Arc<FileStorage>> {
        let path = dir.join(name);
        let storage = if path.exists() {
            FileStorage::open(&path)
        } else {
            FileStorage::create(&path)
        };
        storage.map(Arc::new).map_err(io::Error::other)
    };
    RetroStore::open(
        config,
        mk("wal.log")?,
        mk("pagelog.log")?,
        mk("maplog.log")?,
    )
    .map_err(|e| io::Error::other(e.to_string()))
}

/// Bind `addr` and start the full thread complement. Catalog bootstrap
/// happens here, single-threaded, before any connection is accepted —
/// and, in leader mode, before the replication listener opens, so every
/// seed a follower receives already carries the catalog commit.
pub fn serve(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let memo = config
        .memo
        .then(|| Arc::new(MemoStore::new(MemoConfig::default())));
    let repl_metrics = Arc::new(ReplMetrics::new());

    let mut repl_follower = None;
    let stack = if let Some(leader_addr) = &config.follow {
        // Follower: bootstrap the replica (seed, or reopen + resume)
        // before serving anything — queries need a store, and the apply
        // thread stays its only writer, so the stack is read-only.
        let dir = config
            .data_dir
            .clone()
            .ok_or_else(|| io::Error::other("--follow requires --data-dir"))?;
        let mut fcfg = FollowerConfig::new(leader_addr.clone(), dir);
        fcfg.retro = config.retro.clone();
        let follower = ReplFollower::start(fcfg, Arc::clone(&repl_metrics));
        let store = follower
            .wait_for_store(Duration::from_secs(60))
            .ok_or_else(|| {
                io::Error::other(match follower.last_error() {
                    Some(e) => format!("replication bootstrap failed: {e}"),
                    None => "replication bootstrap timed out".into(),
                })
            })?;
        repl_follower = Some(follower);
        SharedStack::new_over_store(store, config.max_sessions, memo, true)
    } else if let Some(dir) = &config.data_dir {
        let store = open_durable_store(dir, config.retro.clone())?;
        SharedStack::new_over_store(store, config.max_sessions, memo, false)
    } else {
        SharedStack::new_with_memo(config.retro.clone(), config.max_sessions, memo)
    };

    // Surface replicated declarations to every session's SnapIds the
    // same way local `COMMIT WITH SNAPSHOT` does: each snapshot the
    // apply thread lands goes through the fan-out log.
    if repl_follower.is_some() {
        let weak = Arc::downgrade(&stack);
        stack.store().add_snapshot_hook(Arc::new(move |sid| {
            if let Some(stack) = weak.upgrade() {
                stack.note_snapshots(&[sid]);
            }
        }));
    }
    // Snapshots that predate this process (reopened durable store, or a
    // follower's seed) exist only in the store; note them so sessions
    // can `SELECT … FROM SnapIds` over the full history. Snapshot ids
    // are dense 1..=count; the SnapIds sync dedups, so overlap with the
    // hook above is harmless.
    let preexisting: Vec<u64> = (1..=stack.store().snapshot_count()).collect();
    stack.note_snapshots(&preexisting);

    let standing = StandingEngine::new();
    standing.attach(stack.store());
    let standing_session = stack
        .host_session()
        .map_err(|e| io::Error::other(e.to_string()))?;

    let repl_leader = match &config.repl_listen {
        Some(repl_addr) => {
            let repl_listener = TcpListener::bind(repl_addr.as_str())?;
            let leader = ReplLeader::start(
                Arc::clone(stack.store()),
                repl_listener,
                Arc::clone(&repl_metrics),
                LeaderConfig::default(),
            )
            .map_err(|e| io::Error::other(e.to_string()))?;
            Some(leader)
        }
        None => None,
    };

    let inner = Arc::new(Inner {
        stack,
        metrics: Arc::new(Metrics::new()),
        config,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        sessions: Mutex::new(HashMap::new()),
        deadlines: Mutex::new(HashMap::new()),
        next_job: AtomicU64::new(1),
        shutting_down: AtomicBool::new(false),
        started: Instant::now(),
        standing,
        standing_session,
        last_flight: Mutex::new(None),
        repl_metrics,
        repl_leader: Mutex::new(repl_leader),
        repl_follower: Mutex::new(repl_follower),
    });

    // The observability listener (Prometheus scrape + probe surface)
    // binds after the stack exists — a follower's /readyz can only flip
    // to ready once the seed landed anyway, and a bind failure should
    // abort startup, not limp along unobservable.
    let observe = match &inner.config.metrics_listen {
        Some(listen) => {
            let routes = Arc::clone(&inner);
            let handler: Arc<rql_trace::http::Handler> = Arc::new(move |path: &str| match path {
                "/metrics" => rql_trace::HttpResponse {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: render_openmetrics(&routes.readings(), routes.started.elapsed()),
                },
                "/healthz" => rql_trace::HttpResponse::ok("ok\n"),
                "/readyz" => routes.readyz(),
                _ => rql_trace::HttpResponse::not_found(),
            });
            Some(rql_trace::http::serve(listen, handler)?)
        }
        None => None,
    };

    let workers = (0..inner.config.workers.max(1))
        .map(|_| {
            let inner = Arc::clone(&inner);
            thread::spawn(move || inner.worker_loop())
        })
        .collect();
    let watchdog = {
        let inner = Arc::clone(&inner);
        Some(thread::spawn(move || inner.watchdog_loop()))
    };
    let acceptor = {
        let inner = Arc::clone(&inner);
        Some(thread::spawn(move || {
            for stream in listener.incoming() {
                if inner.draining() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let inner = Arc::clone(&inner);
                thread::spawn(move || serve_connection(&inner, stream));
            }
        }))
    };

    Ok(ServerHandle {
        inner,
        addr: local,
        acceptor,
        workers,
        watchdog,
        observe,
    })
}

fn send(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let (opcode, payload) = response.encode();
    match FRAMING.write_frame(stream, opcode, &payload) {
        Ok(_) => Ok(()),
        Err(WireError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

fn serve_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    rql_trace::instant(rql_trace::SpanId::ConnAccept);
    inner.metrics.connections_total.inc();
    let session = match inner.stack.checkout() {
        Ok(s) => Arc::new(s),
        Err(e) => {
            let _ = send(
                &mut stream,
                &Response::Error {
                    code: ADMISSION_CODE.into(),
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    inner.metrics.connections_open.inc();
    inner
        .sessions
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(session.id, Arc::clone(&session));

    let result = connection_loop(inner, &mut stream, &session);

    inner
        .sessions
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&session.id);
    inner.metrics.connections_open.dec();
    // A dropped connection cancels whatever it had in flight.
    session.session().cancel(CancelCause::Client);
    let _ = result;
}

fn connection_loop(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    session: &Arc<ServerSession>,
) -> io::Result<()> {
    send(
        stream,
        &Response::Hello {
            proto: PROTOCOL_VERSION,
            session: session.id,
        },
    )?;
    loop {
        let Ok((opcode, payload, _)) = FRAMING.read_frame(stream) else {
            return Ok(()); // EOF or bad frame: close quietly
        };
        let request = match Request::decode(opcode, &payload) {
            Ok(r) => r,
            Err(e) => {
                send(
                    stream,
                    &Response::Error {
                        code: "RQL050".into(),
                        message: format!("bad frame: {e}"),
                    },
                )?;
                continue;
            }
        };
        match request {
            Request::Prepare { program, trace } => {
                note_trace(trace);
                inner.metrics.prepares_total.inc();
                let diagnostics = prepare(session, &program);
                send(stream, &Response::Diagnostics { diagnostics })?;
            }
            Request::Run {
                program,
                no_memo,
                trace,
            } => {
                note_trace(trace);
                let started = Instant::now();
                let Some(outcome) = submit(inner, stream, session, &program, no_memo)? else {
                    continue;
                };
                match outcome {
                    Ok(run) => {
                        let wire = wire_result(&run, started.elapsed());
                        send(stream, &Response::Result(wire))?;
                        rql_trace::instant(rql_trace::SpanId::JobReply);
                    }
                    Err(e) => send(stream, &standing_error(&e))?,
                }
            }
            Request::Profile {
                program,
                no_memo,
                trace,
            } => {
                note_trace(trace);
                // Same admission/execution path as RUN; the response adds
                // the per-snapshot cost breakdown derived from the run's
                // own reports (so it reconciles with METRICS by
                // construction).
                let started = Instant::now();
                let Some(outcome) = submit(inner, stream, session, &program, no_memo)? else {
                    continue;
                };
                match outcome {
                    Ok(run) => {
                        let profile = rql::QueryProfile::from_run(&run);
                        let wire = WireProfile {
                            result: wire_result(&run, started.elapsed()),
                            human: profile.render_human(false),
                            json: profile.render_json(false),
                        };
                        send(stream, &Response::Profile(wire))?;
                        rql_trace::instant(rql_trace::SpanId::JobReply);
                    }
                    Err(e) => send(stream, &standing_error(&e))?,
                }
            }
            Request::Cancel { session: target } => {
                let found = inner
                    .sessions
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .get(&target)
                    .map(Arc::clone);
                match found {
                    Some(victim) => {
                        victim.session().cancel(CancelCause::Client);
                        send(stream, &Response::Ok)?;
                    }
                    None => send(
                        stream,
                        &Response::Error {
                            code: "RQL500".into(),
                            message: format!("no such session: {target}"),
                        },
                    )?,
                }
            }
            Request::Status { flight } => {
                let mut text = inner.status_line();
                if flight {
                    // Live ring contents first, then the dump frozen at
                    // the last failed job (if any survived one).
                    text.push('\n');
                    text.push_str(&rql_trace::flight_dump());
                    let last = inner
                        .last_flight
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .clone();
                    if let Some(dump) = last {
                        text.push_str("\n--- last failure ---\n");
                        text.push_str(&dump);
                    }
                }
                send(stream, &Response::Text(text))?;
            }
            Request::Metrics { json } => {
                let text = render_metrics(&inner.readings(), json);
                send(stream, &Response::Text(text))?;
            }
            Request::ReplStatus { json } => {
                let snap = inner.repl_metrics.snapshot();
                send(stream, &Response::Text(render_replstatus(&snap, json)))?;
            }
            Request::Register { statement } => {
                if inner.stack.read_only() {
                    send(stream, &read_only_error("MAINTAIN registration"))?;
                    continue;
                }
                // Seeding writes the host session's aux store; hold the
                // stack's writer gate so it cannot race a commit (whose
                // maintenance pass writes the same store).
                let gate = inner.stack.writer_gate();
                let response = match inner
                    .stack
                    .sync_snapids_into(&inner.standing_session)
                    .and_then(|()| inner.standing.register(&inner.standing_session, &statement))
                {
                    Ok(out) => Response::Text(format!(
                        "registered name={} table={} snapshots_seeded={}",
                        out.name, out.table, out.snapshots_seeded
                    )),
                    Err(e) => standing_error(&e),
                };
                drop(gate);
                send(stream, &response)?;
            }
            Request::Unregister { name } => {
                if inner.standing.unregister(&name) {
                    send(stream, &Response::Ok)?;
                } else {
                    send(stream, &unknown_standing(&name))?;
                }
            }
            Request::Subscribe { name } => {
                match inner.standing.subscribe(&name) {
                    None => send(stream, &unknown_standing(&name))?,
                    Some(Err(e)) => send(stream, &error_response(&e))?,
                    Some(Ok(sub)) => {
                        // Opening frame: the full maintained table as of
                        // subscription time; every later delta applies on
                        // top of it.
                        send(stream, &Response::Result(initial_result(&sub)))?;
                        stream_subscription(&name, &sub, stream)?;
                        // Terminal frame written (or channel closed):
                        // back to request-response mode.
                    }
                }
            }
            Request::Shutdown => {
                send(stream, &Response::Ok)?;
                inner.begin_shutdown(inner_addr(stream));
                return Ok(());
            }
        }
    }
}

/// Parse, admit and execute one program, blocking on the job slot.
/// Returns `Ok(None)` when a parse or admission failure was already
/// answered on the wire (the caller just continues its loop).
fn submit(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    session: &Arc<ServerSession>,
    program: &str,
    no_memo: bool,
) -> io::Result<Option<Result<ProgramRun, SqlError>>> {
    let parsed = match parse_program(program) {
        Ok(p) => p,
        Err(d) => {
            inner.metrics.queries_total.inc();
            inner.metrics.queries_failed.inc();
            send(
                stream,
                &Response::Error {
                    code: d.code.as_str().into(),
                    message: d.message,
                },
            )?;
            return Ok(None);
        }
    };
    let Some(job) = inner.admit(parsed, no_memo, Arc::clone(session)) else {
        send(
            stream,
            &Response::Error {
                code: ADMISSION_CODE.into(),
                message: "server busy: admission queue full or draining".into(),
            },
        )?;
        return Ok(None);
    };
    let outcome = {
        let mut slot = job
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                break outcome;
            }
            slot = job
                .done
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    };
    Ok(Some(outcome))
}

/// Record a client-propagated trace id in this server's trace ring.
/// The `trace_ctx` instant's arg is the id's first eight bytes
/// (big-endian), which is what `stitch_trace.py` matches against the
/// client's own export — the instant lands on the connection thread, so
/// it shares that thread's lane with the spans the request produces.
fn note_trace(trace: Option<[u8; 16]>) {
    if let Some(id) = trace {
        let hi = id[..8].iter().fold(0, |hi, &b| hi << 8 | u64::from(b));
        rql_trace::instant_arg(rql_trace::SpanId::TraceCtx, hi);
    }
}

/// The server's own address as seen from this connection (used to poke
/// the acceptor awake during shutdown).
fn inner_addr(stream: &TcpStream) -> std::net::SocketAddr {
    stream
        .local_addr()
        .unwrap_or_else(|_| std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
}

fn error_response(e: &SqlError) -> Response {
    Response::Error {
        code: error_code(e).into(),
        message: e.to_string(),
    }
}

/// `RQL505`: this server is a read-only replica; the write belongs on
/// the leader.
fn read_only_error(what: &str) -> Response {
    Response::Error {
        code: "RQL505".into(),
        message: format!("read-only replica: {what} must go to the leader"),
    }
}

/// Failures that carry their registry code inline (`[RQL210] …` from
/// the MAINTAIN eligibility checks, `[RQL505] …` from the read-only
/// replica gate) get it lifted into the frame's code field so clients
/// see the same shape as analyzer diagnostics.
fn standing_error(e: &SqlError) -> Response {
    let message = e.to_string();
    if let Some(start) = message.find("[RQL") {
        if let Some(len) = message[start..].find(']') {
            return Response::Error {
                code: message[start + 1..start + len].to_owned(),
                message,
            };
        }
    }
    error_response(e)
}

fn unknown_standing(name: &str) -> Response {
    Response::Error {
        code: "RQL500".into(),
        message: format!("no standing query named {name}"),
    }
}

/// The opening `RESULT` frame of a subscription: one table holding the
/// maintained result as of subscription time.
fn initial_result(sub: &Subscription) -> WireResult {
    WireResult {
        tables: vec![WireTable {
            columns: sub.initial.columns.clone(),
            rows: sub.initial.rows.iter().map(|r| r.to_vec()).collect(),
        }],
        reports: Vec::new(),
        snapshots: Vec::new(),
        elapsed_micros: 0,
    }
}

/// Drain a subscription's frame channel onto the socket: one `DELTA`
/// frame per maintained snapshot, then a terminal `END` frame when the
/// query is unregistered or the server drains. Blocks this connection
/// thread (a subscribed connection is push-mode until the stream ends);
/// a send failure means the client went away, which unsubscribes it —
/// the engine prunes the channel on its next push.
fn stream_subscription(name: &str, sub: &Subscription, stream: &mut TcpStream) -> io::Result<()> {
    for frame in sub.frames.iter() {
        match frame {
            PushFrame::Delta(d) => {
                send(
                    stream,
                    &Response::Delta(WireDelta {
                        name: name.to_owned(),
                        snap_id: d.snap_id,
                        added: d.added.iter().map(|r| r.to_vec()).collect(),
                        removed: d.removed.iter().map(|r| r.to_vec()).collect(),
                    }),
                )?;
                rql_trace::instant(rql_trace::SpanId::JobReply);
            }
            PushFrame::End(reason) => {
                send(
                    stream,
                    &Response::End {
                        name: name.to_owned(),
                        reason: reason.as_str().to_owned(),
                    },
                )?;
                return Ok(());
            }
        }
    }
    // Channel closed without a terminal frame: the engine itself is
    // gone; the connection just returns to request-response mode.
    Ok(())
}

/// Analyzer pre-flight for `PREPARE`: lint against the live catalogs of
/// both databases, no execution.
fn prepare(session: &Arc<ServerSession>, text: &str) -> Vec<WireDiagnostic> {
    let program = match parse_program(text) {
        Ok(p) => p,
        Err(d) => return vec![wire_diagnostic(*d)],
    };
    // Sync first so Qs queries over SnapIds resolve against reality.
    let _ = session.sync_snapids();
    let rql_session = session.session();
    // check_program layers the whole-program dataflow passes, the
    // historical-catalog widening retry, and dedup on top of the plain
    // statement analysis; fall back to the latter only if env capture fails.
    let analysis = match rql_session.check_program(&program) {
        Ok(a) => a,
        Err(_) => {
            let snap_env = SchemaEnv::from_database(rql_session.snap_db()).unwrap_or_default();
            let aux_env = SchemaEnv::from_database(rql_session.aux_db()).unwrap_or_default();
            analyze_program(&program, &snap_env, &aux_env)
        }
    };
    analysis
        .diagnostics
        .into_iter()
        .map(wire_diagnostic)
        .collect()
}

fn wire_diagnostic(d: rql::Diagnostic) -> WireDiagnostic {
    // Only program-coordinate fixes make sense on the wire: the client
    // applies them against the text it sent in PREPARE.
    let fix = d
        .fix
        .filter(|_| d.source == rql::SourceKind::Program)
        .map(|f| WireFix {
            start: f.span.start as u32,
            end: f.span.end as u32,
            applicability: match f.applicability {
                rql::Applicability::MachineApplicable => 0,
                rql::Applicability::MaybeIncorrect => 1,
                rql::Applicability::HasPlaceholders => 2,
            },
            replacement: f.replacement,
        });
    WireDiagnostic {
        code: d.code.as_str().into(),
        severity: match d.severity {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        },
        message: d.message,
        span: d.span.map(|s| (s.start as u32, s.end as u32)),
        fix,
    }
}

fn wire_result(run: &ProgramRun, elapsed: Duration) -> WireResult {
    WireResult {
        tables: run
            .tables
            .iter()
            .map(|t| WireTable {
                columns: t.columns.clone(),
                rows: t.rows.iter().map(|r| r.to_vec()).collect(),
            })
            .collect(),
        reports: run
            .reports
            .iter()
            .map(|(table, report)| {
                let stats = report.accumulated_stats();
                WireReport {
                    table: table.clone(),
                    iterations: report.iteration_count() as u64,
                    qq_rows: report.total_qq_rows(),
                    pages_skipped_delta: stats.pages_skipped_delta,
                    pages_pruned_filter: stats.pages_pruned_filter,
                    pagelog_reads: stats.io.pagelog_reads,
                    cache_hits: stats.io.cache_hits,
                }
            })
            .collect(),
        snapshots: run.snapshots.clone(),
        elapsed_micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
    }
}
