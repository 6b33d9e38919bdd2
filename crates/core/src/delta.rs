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
//!   and lost no cached row reuses the previous output outright.
//! * **grouped delta finish** — when Qq is a `GROUP BY` whose post-scan
//!   stages may be reused (as for the skip above) and that has no
//!   DISTINCT, ORDER BY or LIMIT, the finish stage keeps a [`GroupTable`]
//!   beside the scanner and re-aggregates only the groups the changed
//!   pages touch.
//!
//! Every source is byte-identical to the sequential result
//! (snapshot-reducibility: the fold's state after snapshot *s* equals Qq
//! evaluated at *s* folded over the prefix). `AggregateDataInVariable`
//! takes the same sources as every other mechanism: its inner aggregate
//! is the finish stage's, run over the cached base rows.
//!
//! Shapes the scanner can never serve (joins, UDFs in WHERE,
//! `current_snapshot()` in WHERE — [`static_ineligibility`]) use the
//! sequential source for the whole run under `Auto` and are an error
//! under `Forced`; so is a snapshot whose plan left the scanner unused.

use std::sync::Arc;

use rql_memo::QqRows;
use rql_retro::SnapshotReader;
use rql_sqlengine::ast::{Expr, Stmt};
use rql_sqlengine::{
    parse_select, Database, DeltaTableScanner, ExecStats, GroupTable, QueryResult, Result,
    SelectStmt, SkipReason, SqlError,
};

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
/// on whole-snapshot skips, the grouped delta finish and the
/// `DeltaPolicy::Forced` contract. Batch runs, the per-row UDF form and
/// the standing-query maintainer all drive this one implementation:
/// [`open_chain`](Self::open_chain) for a run of snapshot ids, then
/// [`advance`](Self::advance) once per id in order and read
/// [`current`](Self::current).
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
    /// The grouped delta finish's table, for a reusable `GROUP BY` of the
    /// shape it serves.
    groups: Option<GroupTable>,
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
    pub(crate) fn new(qq: &str, policy: Option<DeltaPolicy>, memo: MemoHandle) -> Result<Self> {
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
        // A snapshot whose scan fetched zero pages and lost no cached row
        // may reuse the previous iteration's output outright — but only
        // when the post-scan stages are deterministic (no UDF anywhere)
        // and snapshot-invariant (no current_snapshot() outside WHERE;
        // the rewrite probes, `AS OF` aside, differ between two sids
        // exactly when the substituted literal appears somewhere).
        let probe = |sid| SelectStmt {
            as_of: None,
            ..rewrite_select(&parsed, sid)
        };
        let reusable = chain && crate::memoize::memo_eligible(&parsed) && probe(0) == probe(1);
        let groups = reusable.then(|| GroupTable::for_select(&parsed)).flatten();
        Ok(QqSource {
            memo: QqMemo::attach(memo, &parsed),
            parsed,
            chain,
            forced,
            scanner: DeltaTableScanner::new(),
            reusable,
            groups,
            current: None,
            last_sid: None,
            reprime: None,
        })
    }

    /// Readers for the upcoming run over `ids`, aligned with it; empty
    /// when this source does not read through a chain. The chain starts
    /// at the last snapshot evaluated, so a source kept alive across
    /// runs (a standing query) builds its SPT incrementally and scans
    /// only the pages changed since.
    pub(crate) fn open_chain(&self, snap: &Database, ids: &[u64]) -> Result<Vec<SnapshotReader>> {
        if !self.chain {
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
                    // only the next scan needs. The group table cannot
                    // absorb a skipped iteration, so it goes stale.
                    self.reprime = version.map(|v| (sid, v));
                    self.forget_groups();
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

    /// The scanner moved on without the group table kept beside it: it
    /// starts over at the next scan.
    fn forget_groups(&mut self) {
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
            self.forget_groups();
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
        Ok(match &self.current {
            Some(prev) if self.reusable && skip.is_some() => {
                // Zero heap fetches and no cached row lost: the filtered
                // base rows are byte-identical to the previous
                // iteration's, so its output is this iteration's output —
                // skip the post-scan stages entirely.
                let mut stats = scanned.stats;
                stats.rows = prev.data.rows.len() as u64;
                QqOutput {
                    data: Arc::clone(&prev.data),
                    stats,
                }
            }
            _ => {
                // Pipeline: the ordinary finish stage over the cached
                // base rows.
                scanned.delta = Some(scan);
                snap.finish_stage_grouped(&rewritten, scanned, self.groups.as_mut())?
                    .into()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(sql: &str) -> SelectStmt {
        parse_select(sql).unwrap()
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
            let mut source = QqSource::new(qq, Some(DeltaPolicy::Forced), None).unwrap();
            let readers = source.open_chain(snap, &ids).unwrap();
            source.advance(snap, readers.first(), ids[0]).unwrap();
            let first = Arc::clone(&source.current().data);
            source.advance(snap, readers.get(1), ids[1]).unwrap();
            let second = &source.current().data;
            assert_eq!(Arc::ptr_eq(&first, second), reused, "{qq}");
        }
    }
}
