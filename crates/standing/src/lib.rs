//! The standing-query engine: a registry of live [`Maintainer`]s wired
//! to the store's commit notifications, with push subscriptions.
//!
//! `MAINTAIN QUERY name AS <mechanism call>` registers a retrospective
//! computation whose result table outlives the batch pass. The engine
//! hosts one [`Maintainer`] per registered query; on every snapshot
//! declaration (via [`rql_retro::RetroStore::add_snapshot_hook`]) it
//! folds the new snapshot into each maintained table and pushes the
//! resulting [`ResultDelta`] to every subscriber.
//!
//! Threading model: maintenance runs *synchronously on the committing
//! thread*, one query at a time — the maintained tables are therefore
//! always consistent with the latest declared snapshot by the time the
//! committing statement returns. Pushes never block the commit: frames
//! go through unbounded [`frame_queue`] channels (Mutex + Condvar, so
//! the path is ThreadSanitizer-modelable — see that module) and a slow
//! or gone subscriber only drops its own channel (the sender notices on
//! the next push and prunes it). `rqld` gives each subscription a
//! writer thread that drains the channel onto the socket.
//!
//! Lifecycle frames: a subscriber sees zero or more
//! [`PushFrame::Delta`]s followed by at most one [`PushFrame::End`] —
//! when its query is unregistered or the server drains. After `End` the
//! channel is closed; a plain disconnect without `End` means the
//! process died, not that the query ended.

// Errors are returned, not unwrapped: unlike the workspace, which only
// warns, this crate denies `unwrap`/`expect` outside tests (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

pub mod frame_queue;

use frame_queue::{FrameReceiver, FrameSender};

use rql::maintain::{parse_maintain, MaintainStats, Maintainer, ResultDelta};
use rql::{QueryResult, Result, RqlSession, SqlError};
use rql_retro::RetroStore;
use rql_trace::LatencyHistogram;

/// One message on a subscription channel.
#[derive(Debug, Clone)]
pub enum PushFrame {
    /// A per-snapshot result-table change.
    Delta(ResultDelta),
    /// The subscription ended; no more frames follow.
    End(EndReason),
}

/// Why a subscription ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The standing query was unregistered.
    Unregistered,
    /// The server is shutting down gracefully.
    Drained,
}

impl EndReason {
    /// Stable lower-case name (used on the wire and in logs).
    pub fn as_str(self) -> &'static str {
        match self {
            EndReason::Unregistered => "unregistered",
            EndReason::Drained => "drained",
        }
    }
}

/// A live subscription: the full result as of subscription time, then a
/// stream of per-snapshot deltas.
pub struct Subscription {
    /// Current maintained table contents at subscription time. Applying
    /// the frame stream to this reproduces the table at any later point.
    pub initial: QueryResult,
    /// Per-snapshot frames, in commit order.
    pub frames: FrameReceiver,
}

/// What registration did (surfaced to the client).
#[derive(Debug, Clone)]
pub struct RegisterOutcome {
    /// The registered query name.
    pub name: String,
    /// The maintained result table.
    pub table: String,
    /// Snapshots folded by the seeding batch pass.
    pub snapshots_seeded: u64,
}

/// Point-in-time status of one registered query (for `METRICS`).
#[derive(Debug, Clone)]
pub struct QueryStatus {
    /// Registered name.
    pub name: String,
    /// Maintained result table.
    pub table: String,
    /// Mechanism backing the query (e.g. `CollateData`).
    pub mechanism: &'static str,
    /// Live subscriber count.
    pub subscribers: u64,
    /// Maintenance counters.
    pub stats: MaintainStats,
    /// Maintenance passes that failed (the query stays registered; the
    /// snapshot is retried never — gaps surface here).
    pub maintain_errors: u64,
    /// Push-latency histogram observations (one per subscriber frame).
    pub push_count: u64,
    /// Mean push latency in microseconds.
    pub push_mean_micros: u64,
    /// p99 push latency in microseconds.
    pub push_p99_micros: u64,
}

struct Registered {
    maintainer: Mutex<Maintainer>,
    subscribers: Mutex<Vec<FrameSender>>,
    maintain_errors: AtomicU64,
    /// Hook-entry → frame-handed-to-channel latency, per subscriber push.
    push_latency: LatencyHistogram,
}

impl Registered {
    /// Push one frame to every live subscriber, pruning gone ones.
    fn push(&self, frame: &PushFrame, since: Option<Instant>) {
        let mut subs = self.subscribers.lock();
        subs.retain(|tx| {
            let ok = tx.send(frame.clone());
            if ok {
                if let Some(t0) = since {
                    self.push_latency.record(t0.elapsed());
                }
                if let PushFrame::Delta(d) = frame {
                    rql_trace::instant_arg(
                        rql_trace::SpanId::StandingPush,
                        (d.added.len() + d.removed.len()) as u64,
                    );
                }
            }
            ok
        });
    }
}

/// The registry of standing queries. One per server (or embedded host);
/// wire it to a store with [`StandingEngine::attach`].
#[derive(Default)]
pub struct StandingEngine {
    queries: RwLock<BTreeMap<String, Arc<Registered>>>,
}

impl StandingEngine {
    /// Fresh empty engine.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Subscribe this engine to `store`'s snapshot declarations. The
    /// hook holds only a weak reference, so dropping the engine (and
    /// every subscription with it) does not require detaching.
    pub fn attach(self: &Arc<Self>, store: &RetroStore) {
        let weak: Weak<StandingEngine> = Arc::downgrade(self);
        store.add_snapshot_hook(Arc::new(move |sid| {
            if let Some(engine) = weak.upgrade() {
                engine.on_snapshot(sid);
            }
        }));
    }

    /// Register the standing query `text` declares (`MAINTAIN QUERY name
    /// AS …`): validate, seed the result table from the backlog, and
    /// start maintaining it on every subsequent commit.
    ///
    /// Registration holds the registry's write lock across the seeding
    /// pass, so concurrent commits observe either "not registered" or
    /// "seeded and maintained" — never a half-seeded table.
    pub fn register(&self, session: &RqlSession, text: &str) -> Result<RegisterOutcome> {
        let spec = parse_maintain(text)?.ok_or_else(|| {
            SqlError::Invalid("REGISTER expects a MAINTAIN QUERY statement".into())
        })?;
        let name = spec.name.clone();
        let mut queries = self.queries.write();
        if queries.contains_key(&name) {
            return Err(SqlError::Constraint(format!(
                "standing query {name} is already registered"
            )));
        }
        let (maintainer, report) = Maintainer::register(session, spec)?;
        let outcome = RegisterOutcome {
            name: name.clone(),
            table: maintainer.spec().table.clone(),
            snapshots_seeded: report.iterations.len() as u64,
        };
        queries.insert(
            name,
            Arc::new(Registered {
                maintainer: Mutex::new(maintainer),
                subscribers: Mutex::new(Vec::new()),
                maintain_errors: AtomicU64::new(0),
                push_latency: LatencyHistogram::default(),
            }),
        );
        Ok(outcome)
    }

    /// Unregister `name`. Subscribers get a terminal
    /// [`PushFrame::End`]`(Unregistered)`; the result table is left in
    /// the auxiliary database as-is. Returns whether the query existed.
    pub fn unregister(&self, name: &str) -> bool {
        let Some(reg) = self.queries.write().remove(name) else {
            return false;
        };
        reg.push(&PushFrame::End(EndReason::Unregistered), None);
        reg.subscribers.lock().clear();
        true
    }

    /// Subscribe to `name`: the current full result plus the frame
    /// stream. `None` when no such query is registered.
    ///
    /// The initial result and the stream position are consistent: the
    /// maintainer lock is held while the table is read and the channel
    /// installed, so every delta after `initial` arrives on the channel
    /// and none is duplicated inside `initial`.
    pub fn subscribe(&self, name: &str) -> Option<Result<Subscription>> {
        let reg = self.queries.read().get(name).cloned()?;
        let maintainer = reg.maintainer.lock();
        let initial = match maintainer.current_result() {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        let (tx, rx) = frame_queue::channel();
        reg.subscribers.lock().push(tx);
        drop(maintainer);
        Some(Ok(Subscription {
            initial,
            frames: rx,
        }))
    }

    /// The snapshot hook body: fold `sid` into every registered query's
    /// result table and push the deltas. Public so embedded hosts and
    /// tests can drive maintenance without a store hook.
    pub fn on_snapshot(&self, sid: u64) {
        let regs: Vec<Arc<Registered>> = self.queries.read().values().cloned().collect();
        for reg in regs {
            let t0 = Instant::now();
            // The maintainer lock must span advance *and* push: released
            // in between, a subscriber could read a table that already
            // contains `sid` yet still receive `sid`'s delta frame —
            // applying it twice. (Lock order maintainer → subscribers,
            // same as `subscribe`.)
            let mut maintainer = reg.maintainer.lock();
            match maintainer.advance(sid) {
                Ok(delta) => reg.push(&PushFrame::Delta(delta), Some(t0)),
                Err(_) => {
                    reg.maintain_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Graceful drain: every subscriber of every query gets a terminal
    /// [`PushFrame::End`]`(Drained)` and its channel is closed. Queries
    /// stay registered (a restarting server re-seeds from the tables).
    pub fn drain(&self) {
        for reg in self.queries.read().values() {
            reg.push(&PushFrame::End(EndReason::Drained), None);
            reg.subscribers.lock().clear();
        }
    }

    /// Status of every registered query, in name order (for `METRICS`).
    pub fn statuses(&self) -> Vec<QueryStatus> {
        self.queries
            .read()
            .iter()
            .map(|(name, reg)| {
                let maintainer = reg.maintainer.lock();
                QueryStatus {
                    name: name.clone(),
                    table: maintainer.spec().table.clone(),
                    mechanism: maintainer.spec().kind.udf_name(),
                    subscribers: reg.subscribers.lock().len() as u64,
                    stats: maintainer.stats(),
                    maintain_errors: reg.maintain_errors.load(Ordering::Relaxed),
                    push_count: reg.push_latency.count(),
                    push_mean_micros: reg.push_latency.mean_micros(),
                    push_p99_micros: reg.push_latency.quantile_micros(0.99),
                }
            })
            .collect()
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.read().len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn session() -> Arc<RqlSession> {
        let s = RqlSession::with_defaults().unwrap();
        s.execute("CREATE TABLE t (k INTEGER, v INTEGER)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        s.declare_snapshot(None).unwrap();
        s
    }

    const REG: &str =
        "MAINTAIN QUERY watch AS SELECT CollateData(snap_id, 'SELECT k, v FROM t', 'Watched') \
         FROM SnapIds";

    #[test]
    fn register_subscribe_push_unregister() {
        let s = session();
        let engine = StandingEngine::new();
        engine.attach(s.snap_db().store());
        let out = engine.register(&s, REG).unwrap();
        assert_eq!(out.name, "watch");
        assert_eq!(out.table, "Watched");
        assert_eq!(out.snapshots_seeded, 1);

        let sub = engine.subscribe("watch").unwrap().unwrap();
        assert_eq!(sub.initial.rows.len(), 1);

        s.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        s.declare_snapshot(None).unwrap();
        match sub.frames.try_recv().unwrap() {
            PushFrame::Delta(d) => assert_eq!(d.added.len(), 2),
            other => panic!("expected delta, got {other:?}"),
        }

        assert!(engine.unregister("watch"));
        match sub.frames.try_recv().unwrap() {
            PushFrame::End(r) => assert_eq!(r, EndReason::Unregistered),
            other => panic!("expected end, got {other:?}"),
        }
        assert!(sub.frames.try_recv().is_err(), "channel closed after End");
        assert!(!engine.unregister("watch"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let s = session();
        let engine = StandingEngine::new();
        engine.register(&s, REG).unwrap();
        let err = engine.register(&s, REG).unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
    }

    #[test]
    fn drain_sends_terminal_frame_and_keeps_query() {
        let s = session();
        let engine = StandingEngine::new();
        engine.attach(s.snap_db().store());
        engine.register(&s, REG).unwrap();
        let sub = engine.subscribe("watch").unwrap().unwrap();
        engine.drain();
        match sub.frames.try_recv().unwrap() {
            PushFrame::End(r) => assert_eq!(r, EndReason::Drained),
            other => panic!("expected end, got {other:?}"),
        }
        assert_eq!(engine.len(), 1, "drain keeps queries registered");
        // Maintenance continues for later subscribers.
        s.declare_snapshot(None).unwrap();
        let statuses = engine.statuses();
        assert_eq!(statuses[0].stats.snapshots_maintained, 1);
    }

    #[test]
    fn statuses_expose_counters() {
        let s = session();
        let engine = StandingEngine::new();
        engine.attach(s.snap_db().store());
        engine.register(&s, REG).unwrap();
        let _sub = engine.subscribe("watch").unwrap().unwrap();
        s.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        s.declare_snapshot(None).unwrap();
        let st = &engine.statuses()[0];
        assert_eq!(st.name, "watch");
        assert_eq!(st.mechanism, "collatedata");
        assert_eq!(st.subscribers, 1);
        assert_eq!(st.stats.snapshots_seeded, 1);
        assert_eq!(st.stats.snapshots_maintained, 1);
        assert_eq!(st.maintain_errors, 0);
        assert_eq!(st.push_count, 1);
    }
}
