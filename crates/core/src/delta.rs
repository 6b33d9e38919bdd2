//! The per-snapshot Qq source: where one snapshot's Qq output comes from.
//!
//! Every mechanism is "for each snapshot in Qs, run Qq, fold its rows
//! into T" (paper §2–§3). The fold lives in [`crate::mechanism`]; this
//! module is the other half — [`QqSource`], the only per-snapshot Qq
//! evaluator in the crate. [`DeltaPolicy`] picks the *source* of a
//! snapshot's output and never the algorithm that folds it:
//!
//! * **sequential** — rewrite Qq (`AS OF` + `current_snapshot()`) and run
//!   the ordinary plan; cost proportional to the *table* size.
//! * **chain delta** — open the snapshot set as a chain
//!   ([`rql_retro::RetroStore::open_snapshot_chain`]), build each SPT
//!   incrementally from its predecessor, and run Qq's two executor
//!   stages ([`Database::scan_stage`] / [`Database::finish_stage`]) over
//!   the chain reader with a [`DeltaTableScanner`] kept across
//!   iterations: the seq scan re-reads only the heap pages in the changed
//!   set between consecutive snapshots, and the finish stage reads the
//!   cached filtered base rows on the scanner's pages, copying none. Saves
//!   the page I/O, pays O(rows) CPU.
//!   When the planner has no use for the scanner at some snapshot (an
//!   index appeared), the scan stage's rows are simply the ordinary
//!   plan's over the same reader, and are finished as such.
//! * **memo hit** — a [`QqMemo`] entry for `(Qq, snapshot)` skips the
//!   execution and hands out the recorded rows by reference. On a chain,
//!   the first scan after a run of hits re-primes the scanner from the
//!   last hit's memoized scanner seed, so it still reads only changed
//!   pages; hits that no scan follows import nothing.
//! * **pruned / unchanged skip** — a chain scan that fetched zero pages
//!   and produced no row delta reuses the previous output outright.
//! * **grouped delta finish** — when Qq is a `GROUP BY` whose post-scan
//!   stages may be reused (as for the skip above) and that has no
//!   DISTINCT, ORDER BY or LIMIT, the finish stage keeps a [`GroupTable`]
//!   beside the scanner and re-aggregates only the groups the changed
//!   pages touch.
//! * **incremental inner aggregate** — when Qq is a bare inner aggregate
//!   (`SELECT SUM(x) FROM t [WHERE …]`) feeding
//!   `AggregateDataInVariable`, maintain it across the chain and fold
//!   only the added/removed rows: O(delta) CPU, yielding the one-row
//!   result a fresh evaluation would. Exactness guards (below) degrade
//!   permanently to the pipeline whenever bit-identical output cannot be
//!   proven.
//!
//! Every source is byte-identical to the sequential result
//! (snapshot-reducibility: the fold's state after snapshot *s* equals Qq
//! evaluated at *s* folded over the prefix).
//!
//! Exactness guards for the incremental inner aggregate:
//!
//! * `COUNT` — always exact (integer add/subtract).
//! * `SUM` — only while every non-NULL input is an `Integer` and the sum
//!   of absolute values stays ≤ `i64::MAX`: then no scan-order prefix of
//!   the sequential fold can overflow `i64`, so the sequential result is
//!   `Integer(total)` in every order.
//! * `AVG` — only all-`Integer` with the absolute sum ≤ 2⁵³: every
//!   scan-order partial sum of the sequential `f64` accumulation is then
//!   an exactly-representable integer, so the accumulated `f64` equals
//!   the true integer sum bit-for-bit.
//! * `MIN`/`MAX` — kept incrementally under strict comparisons; any
//!   removal that could displace the current best, or an added value that
//!   *ties* it (the sequential fold keeps the first-in-scan-order
//!   representative, which the running value cannot know), triggers a
//!   re-fold over the current rows — still no page I/O.
//!
//! A schema change invalidates the compiled aggregate argument, but this
//! dialect has no `ALTER TABLE`: a schema can only change via
//! `DROP`+`CREATE`, which allocates a fresh root page, which the scanner
//! detects (root moved → rebuild) and the source answers by re-seeding
//! from the rebuilt row set.
//!
//! Shapes the scanner can never serve (joins, UDFs in WHERE,
//! `current_snapshot()` in WHERE — [`static_ineligibility`]) use the
//! sequential source for the whole run under `Auto` and are an error
//! under `Forced`; so is a snapshot whose plan left the scanner unused.

use std::cmp::Ordering;
use std::sync::Arc;

use rql_memo::QqRows;
use rql_retro::SnapshotReader;
use rql_sqlengine::ast::{Expr, SelectItem, Stmt};
use rql_sqlengine::cexpr::{compile, eval, CExpr, Scope};
use rql_sqlengine::{
    parse_select, Catalog, Database, DeltaScan, DeltaTableScanner, ExecStats, GroupTable,
    QueryResult, Result, Row, ScanRows, SelectStmt, SkipReason, SqlError, UdfRegistry, Value,
};

use crate::aggregate::AggOp;
use crate::analyze::MechanismKind;
use crate::mechanism::MemoHandle;
use crate::memoize::{expr_calls_udf, snapshot_version, QqMemo};
use crate::rewrite::{rewrite_select, uses_current_snapshot};

/// When to take the delta-aware iteration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaPolicy {
    /// Never: evaluate Qq through the ordinary plan unconditionally.
    Off,
    /// Delta when the Qq shape allows it, sequential fallback otherwise
    /// (per computation *and* per iteration).
    #[default]
    Auto,
    /// Delta or error — for tests and benchmarks that must not silently
    /// measure the ordinary path.
    Forced,
}

/// Why the chain-delta source can never serve a Qq — the half of
/// eligibility that is decidable from the text alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaIneligible {
    /// Joins or several FROM tables: the scanner caches one table's rows.
    Shape,
    /// `current_snapshot()` in WHERE: the cached filter would change per
    /// iteration. Elsewhere (projection, GROUP BY, …) it is fine — those
    /// stages re-run per iteration with the substituted literal.
    SnapshotDependentWhere,
    /// A UDF in WHERE: its result may differ between scans.
    UdfInWhere,
}

impl DeltaIneligible {
    /// The reason in words (the `Forced` error and the analyzer's
    /// diagnostics both say exactly this).
    pub fn message(self) -> &'static str {
        match self {
            DeltaIneligible::Shape => {
                "Qq is not a single-table scan (joins or multiple FROM tables); the delta scan \
                 cannot reproduce it"
            }
            DeltaIneligible::SnapshotDependentWhere => {
                "WHERE calls current_snapshot(), so the scan filter changes every iteration; \
                 the cached delta rows cannot represent that"
            }
            DeltaIneligible::UdfInWhere => {
                "WHERE calls a UDF, whose result may differ between scans; rows filtered \
                 through it cannot be cached"
            }
        }
    }
}

/// The static (per-computation) eligibility rule: a single-table scan
/// whose WHERE clause is iteration-invariant and deterministic. What only
/// a snapshot's catalog can tell (an index serving an equality conjunct)
/// is the planner's call, per iteration.
pub(crate) fn static_ineligibility(parsed: &SelectStmt) -> Option<DeltaIneligible> {
    let where_has = |f: fn(&Expr) -> bool| parsed.where_clause.as_ref().is_some_and(f);
    if parsed.from.len() != 1 || !parsed.joins.is_empty() {
        Some(DeltaIneligible::Shape)
    } else if where_has(uses_current_snapshot) {
        Some(DeltaIneligible::SnapshotDependentWhere)
    } else if where_has(expr_calls_udf) {
        Some(DeltaIneligible::UdfInWhere)
    } else {
        None
    }
}

/// Analyzer mirror of [`inner_agg_shape`]: whether Qq is the bare inner
/// aggregate the incremental `AggregateDataInVariable` source maintains.
pub(crate) fn has_inner_agg_shape(parsed: &SelectStmt) -> bool {
    inner_agg_shape(parsed).is_some()
}

/// One snapshot's Qq output. The columns and rows are shared by
/// reference count: with the memo store (a miss records the very rows
/// the fold reads, a hit hands them back) and with the next iteration
/// when a whole-snapshot skip reuses them.
pub(crate) struct QqOutput {
    pub(crate) data: Arc<QqRows>,
    pub(crate) stats: ExecStats,
}

impl From<QueryResult> for QqOutput {
    fn from(result: QueryResult) -> Self {
        QqOutput {
            data: Arc::new(QqRows {
                columns: result.columns,
                rows: result.rows,
            }),
            stats: result.stats,
        }
    }
}

/// Per-snapshot Qq evaluation: the source choice made once from the
/// policy and the Qq shape, the delta scanner, memo lookups, output reuse
/// on whole-snapshot skips, the incremental inner aggregate and the
/// `DeltaPolicy::Forced` contract. Batch runs, the per-row UDF form, the
/// standing-query maintainer and the parallel pool's workers all drive
/// this one implementation: [`open_chain`](Self::open_chain) for a run of
/// snapshot ids, then [`advance`](Self::advance) once per id in order
/// and read [`current`](Self::current).
pub(crate) struct QqSource {
    parsed: SelectStmt,
    memo: Option<QqMemo>,
    /// Snapshots are read through a delta chain; `false` runs the
    /// ordinary plan per snapshot without opening one.
    chain: bool,
    forced: bool,
    scanner: DeltaTableScanner,
    /// Whether a whole-snapshot skip may reuse the previous output
    /// outright (deterministic, snapshot-invariant post-scan stages).
    reusable: bool,
    /// The incremental shape, until exactness is lost.
    inner_spec: Option<InnerSpec>,
    /// Running inner aggregate; `None` = stale, re-seed from the next
    /// live scan's row set.
    inner: Option<InnerAgg>,
    /// The grouped delta finish's table, for a reusable `GROUP BY` of the
    /// shape it serves.
    groups: Option<GroupTable>,
    /// Outputs evaluated ahead of time, served in order instead.
    preloaded: Option<std::vec::IntoIter<QqOutput>>,
    current: Option<QqOutput>,
    /// The last snapshot evaluated: where the next chain continues from.
    last_sid: Option<u64>,
    /// `(sid, version)` of a memo hit on the chain the scanner has not
    /// caught up with: its state predates `sid`, so the next scan must
    /// first import the seed memoized there (or rebuild without one).
    reprime: Option<(u64, u64)>,
}

impl QqSource {
    /// Parse Qq and choose its source under `policy` (`None` = `Off`).
    pub(crate) fn new(
        qq: &str,
        kind: MechanismKind,
        policy: Option<DeltaPolicy>,
        memo: MemoHandle,
    ) -> Result<Self> {
        let parsed = parse_select(qq)?;
        if parsed.as_of.is_some() {
            return Err(SqlError::Invalid(
                "Qq must not contain AS OF; RQL binds the snapshot per iteration".into(),
            ));
        }
        let forced = policy == Some(DeltaPolicy::Forced);
        let chain = match (policy, static_ineligibility(&parsed)) {
            (None | Some(DeltaPolicy::Off), _) => false,
            (Some(_), None) => true,
            (Some(_), Some(reason)) => {
                if forced {
                    return Err(SqlError::Invalid(format!(
                        "DeltaPolicy::Forced requires a delta-eligible Qq: {}",
                        reason.message()
                    )));
                }
                false
            }
        };
        // A snapshot whose scan fetched zero pages and produced no row
        // delta may reuse the previous iteration's output outright — but
        // only when the post-scan stages are deterministic (no UDF
        // anywhere) and snapshot-invariant (no current_snapshot() outside
        // WHERE; the rewrite probes, `AS OF` aside, differ between two
        // sids exactly when the substituted literal appears somewhere).
        let probe = |sid| SelectStmt {
            as_of: None,
            ..rewrite_select(&parsed, sid)
        };
        let reusable = chain && crate::memoize::memo_eligible(&parsed) && probe(0) == probe(1);
        let inner_spec = (chain && kind == MechanismKind::AggVar)
            .then(|| inner_agg_shape(&parsed))
            .flatten();
        let groups = reusable.then(|| GroupTable::for_select(&parsed)).flatten();
        Ok(QqSource {
            memo: QqMemo::attach(memo, &parsed),
            parsed,
            chain,
            forced,
            scanner: DeltaTableScanner::new(),
            reusable,
            inner_spec,
            inner: None,
            groups,
            preloaded: None,
            current: None,
            last_sid: None,
            reprime: None,
        })
    }

    /// Serve `results` (one per upcoming [`advance`](Self::advance), in
    /// order) instead of evaluating — the parallel pool's hand-over.
    pub(crate) fn preload(&mut self, results: Vec<QqOutput>) {
        self.preloaded = Some(results.into_iter());
    }

    /// Readers for the upcoming run over `ids`, aligned with it; empty
    /// when this source does not read through a chain. The chain starts
    /// at the last snapshot evaluated, so a source kept alive across
    /// runs (a standing query) builds its SPT incrementally and scans
    /// only the pages changed since.
    pub(crate) fn open_chain(&self, snap: &Database, ids: &[u64]) -> Result<Vec<SnapshotReader>> {
        if !self.chain || self.preloaded.is_some() {
            return Ok(Vec::new());
        }
        let Some(last) = self.last_sid else {
            return Ok(snap.store().open_snapshot_chain(ids)?);
        };
        let chain: Vec<u64> = std::iter::once(last).chain(ids.iter().copied()).collect();
        let mut readers = snap.store().open_snapshot_chain(&chain)?;
        readers.remove(0);
        Ok(readers)
    }

    /// This snapshot's Qq output (valid after [`advance`](Self::advance)).
    pub(crate) fn current(&self) -> &QqOutput {
        self.current.as_ref().expect("advance() before current()")
    }

    /// Move the current output out (a pool worker handing it over).
    pub(crate) fn take_current(&mut self) -> QqOutput {
        self.current
            .take()
            .expect("advance() before take_current()")
    }

    /// Evaluate Qq at `sid` — through `reader`'s chain delta when one was
    /// opened for it, else the ordinary plan. Returns whether the memo
    /// served the result.
    pub(crate) fn advance(
        &mut self,
        snap: &Database,
        reader: Option<&SnapshotReader>,
        sid: u64,
    ) -> Result<bool> {
        // Cancellation checkpoint between snapshots: a `CANCEL` that
        // lands mid-loop stops before the next Qq opens its snapshot
        // (row-batch checkpoints inside the executor cover the rest).
        snap.cancel_token().check()?;
        if let Some(results) = &mut self.preloaded {
            self.current = results.next();
            return Ok(false);
        }
        // Snapshots are immutable, so a memoized Qq result at `sid` is
        // byte-identical to re-execution; hits skip the executor (and
        // report zeroed Qq stats — no pages read, nothing evaluated).
        // The version is read once here and vouches for every lookup and
        // record of this snapshot.
        let version = (self.memo.as_ref()).and_then(|_| snapshot_version(snap.store(), sid));
        let memo = self.memo.as_ref().zip(version);
        let cached = memo.and_then(|(m, v)| m.lookup_result(sid, v));
        let memo_hit = cached.is_some();
        if memo_hit {
            rql_trace::instant_arg(rql_trace::SpanId::MemoHit, sid);
        } else if self.memo.is_some() {
            rql_trace::instant_arg(rql_trace::SpanId::MemoMiss, sid);
        }
        let output = match (cached, reader) {
            (Some(data), reader) => {
                if reader.is_some() {
                    // The chain moved past `sid` without the scanner: the
                    // seed memoized here is its state as of `sid`, which
                    // only the next scan needs. The running inner
                    // aggregate and the group table cannot absorb a
                    // skipped iteration, so they go stale.
                    self.reprime = version.map(|v| (sid, v));
                    self.forget_finish_state();
                }
                let stats = ExecStats::default();
                QqOutput { data, stats }
            }
            (None, Some(reader)) => self.scan(snap, reader, sid)?,
            (None, None) => self.execute(snap, sid)?,
        };
        if let (false, Some((m, v))) = (memo_hit, self.memo.as_ref().zip(version)) {
            // Share the rows the fold is about to read, and — when a scan
            // just left the scanner at `sid` — its state, so a future run
            // whose chain passes through `sid` stays on the delta path.
            m.record_result(sid, v, Arc::clone(&output.data));
            if let Some(seed) = self.scanner.export_seed() {
                m.record_seed(sid, v, seed);
            }
        }
        self.current = Some(output);
        self.last_sid = Some(sid);
        Ok(memo_hit)
    }

    /// The scanner moved on without the state kept beside it: the running
    /// inner aggregate and the group table start over at the next scan.
    fn forget_finish_state(&mut self) {
        self.inner = None;
        if let Some(table) = &mut self.groups {
            table.invalidate();
        }
    }

    /// The ordinary plan at `sid`.
    fn execute(&self, snap: &Database, sid: u64) -> Result<QqOutput> {
        let rewritten = rewrite_select(&self.parsed, sid);
        let outcome = snap.execute_stmt(&Stmt::Select(rewritten))?;
        Ok(outcome.rows().expect("SELECT yields rows").into())
    }

    /// The incremental inner aggregate's value at this scan, when it is
    /// live and still exact.
    fn incremental(&mut self, scan: &DeltaScan, rows: &ScanRows) -> Result<Option<Value>> {
        if scan.rebuilt {
            return Ok(None);
        }
        let Some(agg) = &mut self.inner else {
            return Ok(None);
        };
        let value = agg.apply(scan, rows)?;
        if value.is_none() {
            // Exactness lost: stay on the pipeline for good.
            self.inner = None;
            self.inner_spec = None;
        }
        Ok(value)
    }

    /// Qq at `sid` over `reader`, the scanner consuming the chain delta
    /// the reader carries.
    fn scan(&mut self, snap: &Database, reader: &SnapshotReader, sid: u64) -> Result<QqOutput> {
        if let Some((hit_sid, hit_version)) = self.reprime.take() {
            let seed = (self.memo.as_ref()).and_then(|m| m.lookup_seed(hit_sid, hit_version));
            match seed {
                Some(seed) => self.scanner.import_seed(&seed),
                None => self.scanner.invalidate(),
            }
        }
        let rewritten = rewrite_select(&self.parsed, sid);
        let mut scanned = snap.scan_stage(reader, &rewritten, Some(&mut self.scanner))?;
        let Some(scan) = scanned.delta.take() else {
            // The planner had no use for the scanner here (it is left
            // invalidated, so the next served scan rebuilds and re-seeds):
            // these are the ordinary plan's rows over the chain reader.
            if self.forced {
                return Err(SqlError::Invalid(format!(
                    "DeltaPolicy::Forced, but snapshot {sid} runs the ordinary plan ({})",
                    scanned.plan.join("; ")
                )));
            }
            rql_trace::instant_arg(rql_trace::SpanId::SeqPath, sid);
            self.forget_finish_state();
            return Ok(snap.finish_stage(&rewritten, scanned)?.into());
        };
        rql_trace::instant_arg(rql_trace::SpanId::DeltaPath, sid);
        let skip = scan.snapshot_skip();
        if skip == Some(SkipReason::Pruned) {
            // The store-level counter feeds METRICS; the local snapshot
            // was taken inside the scan stage, before this decision, so
            // the iteration's stats need the bump too or the report
            // under-counts.
            snap.io_stats().count_snapshot_pruned();
            scanned.stats.io.snapshots_pruned += 1;
            rql_trace::instant_arg(rql_trace::SpanId::SnapshotPruned, sid);
        }
        let mut stats = scanned.stats;
        let incremental = self.incremental(&scan, &scanned.rows)?;
        Ok(match (incremental, &self.current) {
            (Some(v), Some(prev)) => {
                // The value a fresh execution would return is exactly
                // this one row, under the column the pipeline named.
                stats.rows = 1;
                let columns = prev.data.columns.clone();
                let rows = vec![vec![v]];
                QqOutput {
                    data: Arc::new(QqRows { columns, rows }),
                    stats,
                }
            }
            (None, Some(prev)) if self.reusable && skip.is_some() => {
                // Zero heap fetches and an empty row delta: the filtered
                // base rows are byte-identical to the previous
                // iteration's, so its output is this iteration's output —
                // skip the post-scan stages entirely.
                stats.rows = prev.data.rows.len() as u64;
                QqOutput {
                    data: Arc::clone(&prev.data),
                    stats,
                }
            }
            _ => {
                // Pipeline: the ordinary finish stage over the cached
                // base rows. An incremental aggregate that is stale (or
                // just lost exactness) re-seeds here.
                self.inner = match &self.inner_spec {
                    Some(spec) => {
                        let catalog = Catalog::load(reader)?;
                        InnerAgg::seed(spec, &self.parsed, &catalog, &scanned.rows)?
                    }
                    None => None,
                };
                if self.inner.is_none() {
                    self.inner_spec = None;
                }
                scanned.delta = Some(scan);
                snap.finish_stage_grouped(&rewritten, scanned, self.groups.as_mut())?
                    .into()
            }
        })
    }
}

// ======================================================================
// Incremental inner aggregate
// ======================================================================

/// The recognized incremental shape: `SELECT <agg>(<arg>|*) FROM t
/// [WHERE …]` with no DISTINCT/GROUP BY/HAVING/ORDER BY/LIMIT and an
/// iteration-invariant argument.
struct InnerSpec {
    op: AggOp,
    /// `None` = `COUNT(*)`.
    arg: Option<Expr>,
}

fn inner_agg_shape(select: &SelectStmt) -> Option<InnerSpec> {
    if select.distinct
        || !select.group_by.is_empty()
        || select.having.is_some()
        || !select.order_by.is_empty()
        || select.limit.is_some()
        || select.items.len() != 1
    {
        return None;
    }
    let SelectItem::Expr {
        expr: Expr::Function {
            name,
            args,
            distinct,
        },
        ..
    } = &select.items[0]
    else {
        return None;
    };
    if *distinct {
        return None;
    }
    let op = AggOp::parse(name).ok()?;
    match args.as_slice() {
        [Expr::Star] => (op == AggOp::Count).then_some(InnerSpec { op, arg: None }),
        [e] => {
            if e.contains_aggregate() || uses_current_snapshot(e) {
                return None;
            }
            Some(InnerSpec {
                op,
                arg: Some(e.clone()),
            })
        }
        _ => None,
    }
}

/// Upper bound on |sum| such that every scan-order partial sum of an
/// all-integer input is exactly representable in `f64`.
const MAX_EXACT_F64: i128 = 1 << 53;

/// Running inner-aggregate value with its exactness bookkeeping.
enum InnerAcc {
    Count {
        n: i64,
    },
    /// SUM (or, with `avg`, AVG) over all-`Integer` input.
    IntSum {
        avg: bool,
        sum: i128,
        abs: i128,
        nonnull: i64,
    },
    MinMax {
        max: bool,
        best: Option<Value>,
    },
}

impl InnerAcc {
    fn new(op: AggOp) -> InnerAcc {
        match op {
            AggOp::Count => InnerAcc::Count { n: 0 },
            AggOp::Sum | AggOp::Avg => InnerAcc::IntSum {
                avg: op == AggOp::Avg,
                sum: 0,
                abs: 0,
                nonnull: 0,
            },
            AggOp::Min | AggOp::Max => InnerAcc::MinMax {
                max: op == AggOp::Max,
                best: None,
            },
        }
    }

    /// Fold one value in scan order (strict first-wins for MIN/MAX —
    /// exactly [`AggAcc::update`]'s rule). Returns `false` when the value
    /// is not incrementally representable (degrade to pipeline mode).
    ///
    /// [`AggAcc::update`]: rql_sqlengine::exec
    fn fold(&mut self, v: Option<Value>) -> bool {
        let InnerAcc::MinMax { max, best } = self else {
            return self.shift(v, 1);
        };
        let Some(v) = v else { return false };
        if !v.is_null() {
            let better = best.as_ref().is_none_or(|b| {
                let ord = v.total_cmp(b);
                ord != Ordering::Equal && (ord == Ordering::Greater) == *max
            });
            if better {
                *best = Some(v);
            }
        }
        true
    }

    /// Subtract one removed value. MIN/MAX removals are handled by the
    /// caller's re-fold, never here.
    fn unfold(&mut self, v: Option<Value>) -> bool {
        self.shift(v, -1)
    }

    /// Add (`sign` 1) or subtract (`sign` -1) one value's contribution.
    fn shift(&mut self, v: Option<Value>, sign: i64) -> bool {
        match self {
            InnerAcc::Count { n } => {
                if v.as_ref().is_none_or(|v| !v.is_null()) {
                    *n += sign;
                }
                true
            }
            InnerAcc::IntSum {
                sum, abs, nonnull, ..
            } => match v {
                Some(Value::Null) => true,
                Some(Value::Integer(i)) => {
                    *sum += i128::from(sign) * i128::from(i);
                    *abs += i128::from(sign) * i128::from(i).abs();
                    *nonnull += sign;
                    true
                }
                _ => false,
            },
            InnerAcc::MinMax { .. } => false,
        }
    }

    /// Whether the exactness guard still holds after the latest folds.
    fn guard_ok(&self) -> bool {
        match self {
            InnerAcc::IntSum { avg: true, abs, .. } => *abs <= MAX_EXACT_F64,
            InnerAcc::IntSum { abs, .. } => *abs <= i128::from(i64::MAX),
            _ => true,
        }
    }

    /// The aggregate value, matching the engine's `AggAcc::finish`.
    fn finish(&self) -> Value {
        match self {
            InnerAcc::Count { n } => Value::Integer(*n),
            InnerAcc::IntSum { nonnull: 0, .. } => Value::Null,
            InnerAcc::IntSum {
                avg: true,
                sum,
                nonnull,
                ..
            } => Value::Real(*sum as f64 / *nonnull as f64),
            InnerAcc::IntSum { sum, .. } => Value::Integer(*sum as i64),
            InnerAcc::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
        }
    }
}

fn arg_value(arg: &Option<CExpr>, row: &Row) -> Result<Option<Value>> {
    match arg {
        None => Ok(None),
        Some(c) => eval(c, row, &[]).map(Some),
    }
}

/// Incremental inner-aggregate state: the compiled argument plus the
/// running accumulator.
struct InnerAgg {
    /// `None` = `COUNT(*)`.
    arg: Option<CExpr>,
    acc: InnerAcc,
}

impl InnerAgg {
    /// Compile the argument against the snapshot's catalog and fold the
    /// full row set (a rebuilt scan). `Ok(None)` = shape or values not
    /// incrementally representable; use pipeline mode.
    fn seed(
        spec: &InnerSpec,
        select: &SelectStmt,
        catalog: &Catalog,
        rows: &ScanRows,
    ) -> Result<Option<InnerAgg>> {
        let arg = match &spec.arg {
            None => None,
            Some(e) => {
                let Ok(info) = catalog.require_table(&select.from[0].name) else {
                    return Ok(None);
                };
                let alias = select.from[0].binding().to_ascii_lowercase();
                let mut scope = Scope::empty();
                scope.push(
                    &alias,
                    info.schema.columns.iter().map(|c| c.name.clone()).collect(),
                );
                // An empty registry rejects UDF calls at compile time —
                // a UDF argument is never folded incrementally.
                match compile(e, &scope, &UdfRegistry::new(), None) {
                    Ok(c) => Some(c),
                    Err(_) => return Ok(None),
                }
            }
        };
        let mut agg = InnerAgg {
            arg,
            acc: InnerAcc::new(spec.op),
        };
        Ok(agg.refold(rows)?.then_some(agg))
    }

    /// Fold `rows` (a full scan, in scan order) on top of the
    /// accumulator; `false` = exactness lost.
    fn refold(&mut self, rows: &ScanRows) -> Result<bool> {
        for row in rows.iter() {
            if !self.acc.fold(arg_value(&self.arg, row)?) {
                return Ok(false);
            }
        }
        Ok(self.acc.guard_ok())
    }

    /// Fold one non-rebuilt scan's delta (`rows` being the scan's full
    /// row set) and return the iteration's Qq value, bit-identical to a
    /// fresh evaluation. `None` = exactness lost: the caller must
    /// recompute via the pipeline.
    fn apply(&mut self, scan: &DeltaScan, rows: &ScanRows) -> Result<Option<Value>> {
        let arg = &self.arg;
        if let InnerAcc::MinMax { max, best } = &mut self.acc {
            let max = *max;
            let mut refold = false;
            for row in &scan.removed {
                let Some(v) = arg_value(arg, row)? else {
                    refold = true;
                    break;
                };
                // Safe only when the removed value is strictly worse than
                // the running best; anything else could displace it or
                // tie its representative.
                let worse = if max {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                if !v.is_null() && best.as_ref().is_none_or(|b| v.total_cmp(b) != worse) {
                    refold = true;
                    break;
                }
            }
            for row in &scan.added {
                if refold {
                    break;
                }
                let Some(v) = arg_value(arg, row)? else {
                    refold = true;
                    break;
                };
                if v.is_null() {
                    continue;
                }
                match best.as_ref().map(|b| v.total_cmp(b)) {
                    None => *best = Some(v),
                    // A tie-in-value may precede the running best in scan
                    // order with a different representation; the
                    // sequential fold keeps the first, so re-derive it.
                    Some(Ordering::Equal) => refold = true,
                    Some(ord) => {
                        if (ord == Ordering::Greater) == max {
                            *best = Some(v);
                        }
                    }
                }
            }
            if refold {
                *best = None;
                if !self.refold(rows)? {
                    return Ok(None);
                }
            }
            return Ok(Some(self.acc.finish()));
        }
        for row in &scan.added {
            if !self.acc.fold(arg_value(arg, row)?) {
                return Ok(None);
            }
        }
        for row in &scan.removed {
            if !self.acc.unfold(arg_value(arg, row)?) {
                return Ok(None);
            }
        }
        Ok(self.acc.guard_ok().then(|| self.acc.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(sql: &str) -> SelectStmt {
        parse_select(sql).unwrap()
    }

    #[test]
    fn inner_shape_detection() {
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) FROM t")).is_some());
        assert!(inner_agg_shape(&parsed("SELECT COUNT(*) FROM t WHERE v > 3")).is_some());
        assert!(inner_agg_shape(&parsed("SELECT MIN(v + 1) FROM t")).is_some());
        // Wrapped, multi-item, grouped, distinct, or snapshot-dependent
        // shapes fold via the pipeline instead.
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) + 1 FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(v), COUNT(*) FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) FROM t GROUP BY g")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT COUNT(DISTINCT v) FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) FROM t LIMIT 1")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(current_snapshot()) FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT v FROM t")).is_none());
    }

    #[test]
    fn static_eligibility_rules() {
        let why = |sql: &str| static_ineligibility(&parsed(sql));
        assert_eq!(why("SELECT v FROM t"), None);
        assert_eq!(
            why("SELECT current_snapshot(), my_udf(v) FROM t WHERE upper(v) > 'A'"),
            None
        );
        assert_eq!(why("SELECT a FROM t, u"), Some(DeltaIneligible::Shape));
        assert_eq!(
            why("SELECT v FROM t WHERE v = current_snapshot()"),
            Some(DeltaIneligible::SnapshotDependentWhere)
        );
        assert_eq!(
            why("SELECT v FROM t WHERE my_udf(v) > 0"),
            Some(DeltaIneligible::UdfInWhere)
        );
    }

    /// A chain snapshot at which nothing changed hands out the previous
    /// output itself; a Qq that reads `current_snapshot()` outside WHERE
    /// never does.
    #[test]
    fn unchanged_chain_snapshot_reuses_the_previous_output() {
        let session = crate::RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE t (g INTEGER, v INTEGER)")
            .unwrap();
        session
            .execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            .unwrap();
        let ids = [
            session.declare_snapshot(None).unwrap(),
            session.declare_snapshot(None).unwrap(),
        ];
        let snap = session.snap_db();
        for (qq, reused) in [
            ("SELECT g, v FROM t", true),
            ("SELECT g, SUM(v) FROM t GROUP BY g", true),
            ("SELECT current_snapshot() AS s, g FROM t", false),
        ] {
            let (kind, forced) = (MechanismKind::Collate, Some(DeltaPolicy::Forced));
            let mut source = QqSource::new(qq, kind, forced, None).unwrap();
            let readers = source.open_chain(snap, &ids).unwrap();
            source.advance(snap, readers.first(), ids[0]).unwrap();
            let first = Arc::clone(&source.current().data);
            source.advance(snap, readers.get(1), ids[1]).unwrap();
            let second = &source.current().data;
            assert_eq!(Arc::ptr_eq(&first, second), reused, "{qq}");
        }
    }

    #[test]
    fn sum_folds_and_degrades() {
        let mut acc = InnerAcc::new(AggOp::Sum);
        assert!(acc.fold(Some(Value::Integer(5))));
        assert!(acc.fold(Some(Value::Null)));
        assert!(acc.fold(Some(Value::Integer(-2))));
        assert_eq!(acc.finish(), Value::Integer(3));
        assert!(acc.unfold(Some(Value::Integer(5))));
        assert_eq!(acc.finish(), Value::Integer(-2));
        // A Real input is order-dependent under f64 addition → degrade.
        assert!(!acc.fold(Some(Value::Real(1.5))));
        // Empty sum is NULL, like the engine's aggregate.
        let mut empty = InnerAcc::new(AggOp::Sum);
        assert!(empty.fold(Some(Value::Null)));
        assert_eq!(empty.finish(), Value::Null);
    }

    #[test]
    fn sum_guard_trips_on_abs_overflow() {
        let mut acc = InnerAcc::new(AggOp::Sum);
        assert!(acc.fold(Some(Value::Integer(i64::MAX))));
        assert!(acc.guard_ok());
        // Net sum stays small, but |·|-mass exceeds i64::MAX: a sequential
        // scan-order prefix could overflow, so exactness is gone.
        assert!(acc.fold(Some(Value::Integer(i64::MIN))));
        assert!(!acc.guard_ok());
    }

    #[test]
    fn avg_guard_is_tighter() {
        let mut acc = InnerAcc::new(AggOp::Avg);
        assert!(acc.fold(Some(Value::Integer(1 << 52))));
        assert!(acc.fold(Some(Value::Integer(1 << 52))));
        // |sum| = 2^53 exactly: still representable, still exact.
        assert!(acc.guard_ok());
        assert!(acc.fold(Some(Value::Integer(1))));
        assert!(!acc.guard_ok());
        // The SUM guard would tolerate the same mass.
        let mut sum = InnerAcc::new(AggOp::Sum);
        assert!(sum.fold(Some(Value::Integer(1 << 53))));
        assert!(sum.guard_ok());
    }

    #[test]
    fn count_star_vs_count_arg() {
        let mut star = InnerAcc::new(AggOp::Count);
        assert!(star.fold(None));
        assert!(star.fold(None));
        assert_eq!(star.finish(), Value::Integer(2));
        let mut arg = InnerAcc::new(AggOp::Count);
        assert!(arg.fold(Some(Value::Null)));
        assert!(arg.fold(Some(Value::text("x"))));
        assert_eq!(arg.finish(), Value::Integer(1));
        assert!(arg.unfold(Some(Value::text("x"))));
        assert_eq!(arg.finish(), Value::Integer(0));
    }

    #[test]
    fn minmax_strict_first_wins() {
        let mut acc = InnerAcc::new(AggOp::Min);
        assert!(acc.fold(Some(Value::Integer(2))));
        // Real(2.0) ties Integer(2) under the SQL order; the strict rule
        // keeps the first-seen representation, like the engine.
        assert!(acc.fold(Some(Value::Real(2.0))));
        assert_eq!(acc.finish(), Value::Integer(2));
        assert!(acc.fold(Some(Value::Integer(1))));
        assert_eq!(acc.finish(), Value::Integer(1));
    }
}
