//! `RqlSession`: the programmer-facing entry point.
//!
//! Owns the two databases of the paper's architecture — the snapshotable
//! application database and the auxiliary (non-snapshotable) database
//! holding `SnapIds` and result tables — registers the RQL mechanisms as
//! UDFs so they can be invoked in SQL position
//! (`SELECT CollateData(snap_id, …) FROM SnapIds`, paper §3), and keeps
//! `SnapIds` in sync with snapshot declarations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use rql_memo::MemoStore;
use rql_retro::RetroConfig;
use rql_sqlengine::{CancelCause, Database, ExecOutcome, QueryResult, Result, SqlError, Value};

use crate::aggregate::AggOp;
use crate::analyze::{self, MechanismCall, SchemaEnv};
use crate::delta::{DeltaPolicy, QqSource};
use crate::mechanism::{self, Fold, MechSpec, MechanismKind};
use crate::report::RqlReport;
use crate::snapids;

/// An RQL session over a pair of databases.
pub struct RqlSession {
    snap: Arc<Database>,
    aux: Arc<Database>,
    /// Timestamp source for `SnapIds` entries (overridable for
    /// deterministic tests and benchmarks).
    clock: Mutex<Box<dyn Fn() -> String + Send>>,
    /// Reports produced by mechanism UDF invocations, keyed by result
    /// table, retrievable after SQL-driven runs.
    last_reports: Mutex<Vec<(String, RqlReport)>>,
    /// Previous-iteration snapshot id per result table, threaded between
    /// `CollateDataIntoIntervals` UDF invocations.
    prev_sids: Mutex<std::collections::HashMap<String, u64>>,
    /// Whether mechanism calls run the static analyzer as a pre-flight
    /// (on by default; tests exercising mid-loop failure paths turn it
    /// off via [`RqlSession::set_preflight`]).
    preflight: AtomicBool,
    /// Optional Qq memoization store (see `rql-memo`). `None` — the
    /// embedded default — means every Qq executes live; a server that
    /// wants cross-session reuse attaches one shared store via
    /// [`RqlSession::set_memo`].
    memo: Mutex<Option<Arc<MemoStore>>>,
}

impl RqlSession {
    /// Create a session with in-memory stores.
    pub fn new(config: RetroConfig) -> Result<Arc<RqlSession>> {
        let snap = Database::in_memory(config.clone());
        // The auxiliary database never declares snapshots; give it the
        // same page size for comparable size accounting.
        let aux = Database::in_memory(config);
        Self::over_databases(snap, aux)
    }

    /// Assemble a session over existing databases. This is how a server
    /// hands out per-connection sessions that *share* one snapshotable
    /// store (each connection wraps it in its own [`Database`] facade, so
    /// cancellation tokens stay per-connection) while keeping a private
    /// auxiliary database for `SnapIds` and result tables.
    pub fn over_databases(snap: Arc<Database>, aux: Arc<Database>) -> Result<Arc<RqlSession>> {
        snapids::ensure_snapids(&aux)?;
        let session = Arc::new(RqlSession {
            snap,
            aux,
            clock: Mutex::new(Box::new(default_clock)),
            last_reports: Mutex::new(Vec::new()),
            prev_sids: Mutex::new(std::collections::HashMap::new()),
            preflight: AtomicBool::new(true),
            memo: Mutex::new(None),
        });
        session.register_udfs();
        Ok(session)
    }

    /// Default configuration.
    pub fn with_defaults() -> Result<Arc<RqlSession>> {
        Self::new(RetroConfig::new())
    }

    /// The snapshotable application database.
    pub fn snap_db(&self) -> &Arc<Database> {
        &self.snap
    }

    /// The auxiliary (non-snapshotable) database holding `SnapIds` and
    /// result tables.
    pub fn aux_db(&self) -> &Arc<Database> {
        &self.aux
    }

    /// Replace the timestamp source (deterministic tests/benchmarks).
    pub fn set_clock(&self, clock: impl Fn() -> String + Send + 'static) {
        *self.clock.lock() = Box::new(clock);
    }

    // ---- Qq memoization ------------------------------------------------

    /// Attach (or with `None`, detach) a Qq memoization store. Snapshots
    /// are immutable, so the store may be shared across sessions over
    /// the same snapshotable store — that is exactly what the `rqld`
    /// server does, one store behind the whole session pool.
    pub fn set_memo(&self, memo: Option<Arc<MemoStore>>) {
        *self.memo.lock() = memo;
    }

    /// The currently attached memo store, if any.
    pub fn memo(&self) -> Option<Arc<MemoStore>> {
        self.memo.lock().clone()
    }

    // ---- cooperative cancellation --------------------------------------

    /// Trip both databases' interrupt flags: any in-flight statement on
    /// this session unwinds with `[RQL3xx] SqlError::Cancelled` at its
    /// next checkpoint (between snapshots of a mechanism loop, between
    /// Qq row batches inside the executor).
    pub fn cancel(&self, cause: CancelCause) {
        self.snap.cancel_token().cancel(cause);
        self.aux.cancel_token().cancel(cause);
    }

    /// Whether a cancellation is pending (sticky until cleared).
    pub fn is_cancelled(&self) -> bool {
        self.snap.cancel_token().is_cancelled() || self.aux.cancel_token().is_cancelled()
    }

    /// Re-arm after a cancellation so the session can run again.
    pub fn clear_cancel(&self) {
        self.snap.cancel_token().clear();
        self.aux.cancel_token().clear();
    }

    /// Execute application SQL on the snapshotable database, recording
    /// any `COMMIT WITH SNAPSHOT` in `SnapIds`.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        self.execute_named(sql, None)
    }

    /// Like [`Self::execute`], attaching a user-friendly name to a
    /// snapshot the script declares.
    pub fn execute_named(&self, sql: &str, snapshot_name: Option<&str>) -> Result<ExecOutcome> {
        let stmts = rql_sqlengine::parse_statements(sql)?;
        let mut last = ExecOutcome::Done;
        for stmt in &stmts {
            last = self.snap.execute_stmt(stmt)?;
            if let ExecOutcome::SnapshotDeclared(sid) = last {
                let ts = (self.clock.lock())();
                snapids::record_snapshot(&self.aux, sid, &ts, snapshot_name)?;
            }
        }
        Ok(last)
    }

    /// Declare a snapshot with an empty transaction and record it.
    pub fn declare_snapshot(&self, name: Option<&str>) -> Result<u64> {
        let sid = self.snap.declare_snapshot()?;
        let ts = (self.clock.lock())();
        snapids::record_snapshot(&self.aux, sid, &ts, name)?;
        Ok(sid)
    }

    /// Query the snapshotable database (supports `AS OF`).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.snap.query(sql)
    }

    /// Query the auxiliary database (SnapIds, result tables).
    pub fn query_aux(&self, sql: &str) -> Result<QueryResult> {
        self.aux.query(sql)
    }

    /// Drop a result table if it exists (mechanisms refuse to overwrite).
    pub fn drop_result_table(&self, table: &str) -> Result<()> {
        self.aux.execute(&format!("DROP TABLE IF EXISTS {table}"))?;
        Ok(())
    }

    // ---- static-analysis pre-flight ------------------------------------

    /// Enable or disable the mandatory pre-flight analysis on mechanism
    /// calls. It is on by default; tests that deliberately exercise
    /// mid-loop failure paths (or callers that want the old
    /// fail-at-iteration behaviour) can turn it off.
    pub fn set_preflight(&self, enabled: bool) {
        self.preflight.store(enabled, Ordering::Relaxed);
    }

    /// Run the static analyzer over one mechanism call before executing
    /// it. Errors map to the same [`SqlError`] variants the runtime would
    /// raise, so callers matching on variants see no difference — they
    /// just see the failure before any snapshot is opened.
    ///
    /// A Qq may reference tables that only exist in older snapshots (the
    /// per-iteration `AS OF` makes them visible); when the current
    /// catalog lacks a Qq table, the catalog is widened with every
    /// declared snapshot's schema and analysis retried once.
    fn preflight_mechanism(
        &self,
        kind: MechanismKind,
        qs: &str,
        qq: &str,
        table: &str,
        spec: Option<&str>,
        policy: Option<DeltaPolicy>,
    ) -> Result<()> {
        if !self.preflight.load(Ordering::Relaxed) {
            return Ok(());
        }
        let call = MechanismCall {
            kind,
            qs,
            qq,
            table,
            spec,
        };
        let analysis = self.analyze_widened(
            |snap, aux| analyze::analyze_mechanism_call(&call, snap, aux, policy),
            |a| &a.qq_unknown_tables,
        )?;
        match analysis.first_error() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Program-level pre-flight: analyze a whole `.rql` program against
    /// this session's live catalogs, running the dataflow passes and —
    /// when Qq references tables absent from the current snapshot — the
    /// same historical-catalog widening retry as the per-call pre-flight.
    /// The retry *replaces* the first analysis (and [`analyze_program`]
    /// dedupes), so a finding surfaces once no matter how many rounds
    /// re-derived it.
    ///
    /// [`analyze_program`]: crate::analyze::analyze_program
    pub fn check_program(&self, program: &analyze::Program) -> Result<analyze::ProgramAnalysis> {
        self.analyze_widened(
            |snap, aux| analyze::analyze_program(program, snap, aux),
            |a| &a.qq_unknown_tables,
        )
    }

    /// Run `analyze` against this session's live catalogs. When the
    /// result names Qq tables the current snapshot lacks (`unknown`), the
    /// snapshot catalog is widened with every declared snapshot's schema
    /// and `analyze` runs once more; that second result replaces the first.
    fn analyze_widened<A>(
        &self,
        analyze: impl Fn(&SchemaEnv, &SchemaEnv) -> A,
        unknown: impl Fn(&A) -> &Vec<String>,
    ) -> Result<A> {
        let mut snap_env = SchemaEnv::from_database(&self.snap)?;
        let aux_env = SchemaEnv::from_database(&self.aux)?;
        let analysis = analyze(&snap_env, &aux_env);
        if unknown(&analysis).is_empty() {
            return Ok(analysis);
        }
        let mut widened = false;
        for (sid, _, _) in snapids::all_snapshots(&self.aux)?.iter().rev() {
            if let Ok(tables) = self.snap.table_schemas_as_of(*sid) {
                for schema in tables.into_values() {
                    if !snap_env.has_table(&schema.name) {
                        snap_env.add_table(schema);
                        widened = true;
                    }
                }
            }
        }
        Ok(if widened {
            analyze(&snap_env, &aux_env)
        } else {
            analysis
        })
    }

    // ---- the four mechanisms, API form ---------------------------------

    /// One batch mechanism call: pre-flight, then the shared loop
    /// ([`mechanism::run`]) under `policy` (`None` = the paper's
    /// sequential evaluation).
    pub(crate) fn run_mechanism(
        &self,
        spec: MechSpec,
        qs: &str,
        qq: &str,
        table: &str,
        policy: Option<DeltaPolicy>,
    ) -> Result<RqlReport> {
        let spec_text = match &spec {
            MechSpec::AggVar(func) => Some(func.to_string()),
            MechSpec::AggTable(pairs) => Some(render_pairs(pairs)),
            MechSpec::Collate | MechSpec::Intervals => None,
        };
        self.preflight_mechanism(spec.kind(), qs, qq, table, spec_text.as_deref(), policy)?;
        let (snap, aux) = (&self.snap, &self.aux);
        mechanism::run(snap, aux, qs, qq, table, spec, policy, self.memo())
    }

    /// `CollateData(Qs, Qq, T)`.
    pub fn collate_data(&self, qs: &str, qq: &str, table: &str) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::Collate, qs, qq, table, None)
    }

    /// `AggregateDataInVariable(Qs, Qq, T, AggFunc)`.
    pub fn aggregate_data_in_variable(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
        func: AggOp,
    ) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::AggVar(func), qs, qq, table, None)
    }

    /// `AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)`.
    pub fn aggregate_data_in_table(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
        pairs: &[(String, AggOp)],
    ) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::AggTable(pairs.to_vec()), qs, qq, table, None)
    }

    /// `CollateDataIntoIntervals(Qs, Qq, T)`.
    pub fn collate_data_into_intervals(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
    ) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::Intervals, qs, qq, table, None)
    }

    // ---- under a delta policy (see [`crate::delta`]) -------------------

    /// `CollateData(Qs, Qq, T)` under a [`DeltaPolicy`]: unchanged heap
    /// pages between consecutive snapshots are served from the delta
    /// scanner's row cache instead of being re-fetched.
    pub fn collate_data_with_policy(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
        policy: DeltaPolicy,
    ) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::Collate, qs, qq, table, Some(policy))
    }

    /// `AggregateDataInVariable(Qs, Qq, T, AggFunc)` under a
    /// [`DeltaPolicy`]: as for [`collate_data_with_policy`], unchanged
    /// heap pages are served from the scanner's row cache, and Qq's inner
    /// aggregate runs over the cached rows.
    ///
    /// [`collate_data_with_policy`]: Self::collate_data_with_policy
    pub fn aggregate_data_in_variable_with_policy(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
        func: AggOp,
        policy: DeltaPolicy,
    ) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::AggVar(func), qs, qq, table, Some(policy))
    }

    /// `AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)` under a
    /// [`DeltaPolicy`]: the delta scan feeds the write-skipping in-table
    /// fold, which probes only the groups whose contribution changed.
    pub fn aggregate_data_in_table_with_policy(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
        pairs: &[(String, AggOp)],
        policy: DeltaPolicy,
    ) -> Result<RqlReport> {
        self.run_mechanism(
            MechSpec::AggTable(pairs.to_vec()),
            qs,
            qq,
            table,
            Some(policy),
        )
    }

    /// `CollateDataIntoIntervals(Qs, Qq, T)` under a [`DeltaPolicy`]
    /// (sequential Qq evaluation unless `Forced`, which errors).
    pub fn collate_data_into_intervals_with_policy(
        &self,
        qs: &str,
        qq: &str,
        table: &str,
        policy: DeltaPolicy,
    ) -> Result<RqlReport> {
        self.run_mechanism(MechSpec::Intervals, qs, qq, table, Some(policy))
    }

    /// Reports produced by mechanism UDFs since the last call (SQL-driven
    /// runs), in invocation order as `(result_table, report)`.
    pub fn take_reports(&self) -> Vec<(String, RqlReport)> {
        std::mem::take(&mut self.last_reports.lock())
    }

    // ---- UDF registration -------------------------------------------------

    /// Register the mechanism UDFs on the auxiliary database so the
    /// paper's SQL syntax works:
    ///
    /// ```sql
    /// SELECT CollateData(snap_id, 'SELECT …', 'Result') FROM SnapIds;
    /// ```
    ///
    /// The UDF form drives one iteration per `SnapIds` row: SQLite
    /// "invokes the 'loop body' defined by the UDF callback" per row
    /// (paper §3). Internally each invocation runs the mechanism loop for
    /// that single snapshot id, so the per-row calls accumulate into the
    /// same result table.
    fn register_udfs(self: &Arc<Self>) {
        for kind in MechanismKind::ALL {
            let session = Arc::downgrade(self);
            self.aux.register_udf(kind.udf_name(), move |args| {
                let Some(session) = session.upgrade() else {
                    return Err(SqlError::Udf("session gone".into()));
                };
                session.mechanism_udf(kind, args)
            });
        }
        // current_snapshot() outside an RQL rewrite is an error the
        // programmer should see clearly.
        self.snap
            .register_udf(crate::rewrite::CURRENT_SNAPSHOT, |_| {
                Err(SqlError::Udf(
                    "current_snapshot() is only meaningful inside an RQL Qq \
                 (the mechanism substitutes the iteration's snapshot id)"
                        .into(),
                ))
            });
    }

    /// One UDF invocation = the shared loop over the one given snap_id,
    /// with a fold resumed from whatever earlier invocations left in `T`.
    fn mechanism_udf(&self, kind: MechanismKind, args: &[Value]) -> Result<Value> {
        let text = |i: usize, what: &str| -> Result<&str> {
            args.get(i)
                .and_then(Value::as_str)
                .ok_or_else(|| SqlError::Udf(format!("argument {} must be {what}", i + 1)))
        };
        let sid = args
            .first()
            .and_then(Value::as_i64)
            .ok_or_else(|| SqlError::Udf("first argument must be snap_id".into()))?
            as u64;
        let (qq, table) = (text(1, "the Qq string")?, text(2, "the result table")?);
        let arity = if kind.takes_spec() { 4 } else { 3 };
        if args.len() != arity {
            return Err(SqlError::Udf(format!(
                "{kind:?} expects {arity} arguments, got {}",
                args.len()
            )));
        }
        let spec = (arity == 4)
            .then(|| text(3, "the aggregate function text"))
            .transpose()?;
        let prev = self.prev_sids.lock().get(table).copied();
        let mut fold = Fold::resume(MechSpec::parse(kind, spec)?, &self.aux, table, prev)?;
        let mut source = QqSource::new(&self.snap, qq, None, self.memo())?;
        let (snap, aux) = (&self.snap, &self.aux);
        let report = mechanism::drive(snap, aux, &mut source, &mut fold, &[sid], None)?;
        if let Some(last) = fold.prev_sid() {
            self.prev_sids.lock().insert(table.to_owned(), last);
        }
        self.last_reports.lock().push((table.to_owned(), report));
        Ok(Value::Integer(1))
    }
}

/// Render API-form pairs back to the `ListOfColFuncPairs` notation so
/// the pre-flight validates the same string form the paper's SQL syntax
/// takes (it round-trips through `parse_col_func_pairs`).
fn render_pairs(pairs: &[(String, AggOp)]) -> String {
    pairs
        .iter()
        .map(|(col, op)| format!("({col},{op})"))
        .collect::<Vec<_>>()
        .join(":")
}

fn default_clock() -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let secs = now.as_secs();
    // Simple UTC rendering without a time crate: days since epoch →
    // civil date (Howard Hinnant's algorithm).
    let days = secs / 86_400;
    let (y, m, d) = civil_from_days(days as i64);
    let tod = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    )
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29)); // leap day
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
    }

    #[test]
    fn default_clock_formats() {
        let ts = default_clock();
        // "YYYY-MM-DD HH:MM:SS"
        assert_eq!(ts.len(), 19);
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], " ");
    }
}
