//! The four RQL mechanisms (paper §2), implemented operationally as
//! described in §3 — each exactly once.
//!
//! Every mechanism is the same loop: run Qs on the auxiliary database
//! to obtain the snapshot set, then for each snapshot id evaluate Qq on
//! the snapshotable database and fold its rows into the result table `T`
//! in the auxiliary database. The loop is [`drive`]; where a snapshot's
//! Qq output comes from is [`QqSource`]'s business (sequential plan,
//! chain delta, memo, …); what happens to it is a [`Fold`]: blind inserts
//! for `CollateData`; a running variable for `AggregateDataInVariable`;
//! probe-then-update for `AggregateDataInTable`; lifetime maintenance
//! for `CollateDataIntoIntervals`.
//!
//! The callers differ only in how long they keep the (source, fold) pair:
//!
//! * a batch run ([`run`]) drives a fresh pair over everything Qs
//!   returns and refuses a pre-existing `T`;
//! * the session's SQL UDFs (`SELECT CollateData(snap_id, …) FROM
//!   SnapIds`) drive one snapshot per `SnapIds` row — exactly how the
//!   paper's SQLite UDF callback gets invoked — with a fold that
//!   [`Fold::resume`]s from whatever `T` already holds;
//! * a standing query ([`crate::maintain`]) keeps the pair alive across
//!   commits and collects the fold's row effects as a [`ResultDelta`];
//! * [`crate::parallel`] pre-evaluates Qq on a thread pool and hands the
//!   outputs to the same loop.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rql_memo::{MemoStore, QqRows};
use rql_sqlengine::{Database, Result, Row, SqlError, TableWriter, Value};

use crate::aggregate::{parse_col_func_pairs, AggOp, AggState};
use crate::analyze::MechanismKind;
use crate::delta::{DeltaPolicy, QqSource};
use crate::maintain::ResultDelta;
use crate::report::{IterationReport, RqlReport};

/// Optional shared memo store threaded from the session into the
/// Qq source (`None` = memoization off).
pub(crate) type MemoHandle = Option<Arc<MemoStore>>;

/// Start-of-lifetime column added by `CollateDataIntoIntervals`.
pub const START_SNAPSHOT_COL: &str = "start_snapshot";
/// End-of-lifetime column added by `CollateDataIntoIntervals`.
pub const END_SNAPSHOT_COL: &str = "end_snapshot";

/// Run Qs on the auxiliary database and return the snapshot ids.
pub(crate) fn snapshot_set(aux: &Database, qs: &str) -> Result<(Vec<u64>, Duration)> {
    let started = Instant::now();
    let result = aux.query(qs)?;
    let elapsed = started.elapsed();
    if result.columns.len() != 1 {
        return Err(SqlError::Invalid(format!(
            "Qs must return a single snapshot-id column, got {}",
            result.columns.len()
        )));
    }
    let mut ids = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        let Some(id) = row[0].as_i64() else {
            return Err(SqlError::Invalid(format!(
                "Qs returned a non-integer snapshot id: {}",
                row[0]
            )));
        };
        ids.push(id as u64);
    }
    Ok((ids, elapsed))
}

/// Whether `table` exists in the auxiliary database.
pub(crate) fn table_exists(aux: &Database, table: &str) -> bool {
    aux.table_row_count(table).is_ok()
}

/// Create the result table, plus — paper §3: "we also create an index on
/// Result using as key the values in non-aggregating columns" — an index
/// over `index_on` when non-empty.
fn create_result_table(
    aux: &Database,
    table: &str,
    columns: &[String],
    index_on: &[String],
) -> Result<()> {
    for (i, c) in columns.iter().enumerate() {
        if columns[..i].iter().any(|o| o.eq_ignore_ascii_case(c)) {
            return Err(SqlError::Invalid(format!(
                "Qq output has duplicate column name {c}"
            )));
        }
    }
    // Quote names so literal-derived columns ("SELECT DISTINCT 1 …"
    // yields a column named "1", as in the paper's §2.2 example) parse.
    let quoted = |cols: &[String], suffix: &str| -> String {
        let cols = cols.iter().map(|c| c.to_ascii_lowercase());
        let cols: Vec<String> = cols.map(|c| format!("\"{c}\"{suffix}")).collect();
        cols.join(", ")
    };
    aux.execute(&format!(
        "CREATE TABLE {table} ({})",
        quoted(columns, " ANY")
    ))?;
    if !index_on.is_empty() {
        aux.execute(&format!(
            "CREATE INDEX __rql_idx_{} ON {table} ({})",
            table.to_ascii_lowercase(),
            quoted(index_on, "")
        ))?;
    }
    Ok(())
}

/// Which mechanism a call names, with its aggregate argument parsed.
#[derive(Debug, Clone)]
pub(crate) enum MechSpec {
    /// `CollateData(Qs, Qq, T)`.
    Collate,
    /// `AggregateDataInVariable(Qs, Qq, T, AggFunc)`.
    AggVar(AggOp),
    /// `AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)`.
    AggTable(Vec<(String, AggOp)>),
    /// `CollateDataIntoIntervals(Qs, Qq, T)`.
    Intervals,
}

impl MechSpec {
    /// From a call's mechanism kind and textual aggregate argument.
    pub(crate) fn parse(kind: MechanismKind, spec: Option<&str>) -> Result<MechSpec> {
        let spec = spec.unwrap_or_default();
        Ok(match kind {
            MechanismKind::Collate => MechSpec::Collate,
            MechanismKind::AggVar => MechSpec::AggVar(AggOp::parse(spec)?),
            MechanismKind::AggTable => MechSpec::AggTable(parse_col_func_pairs(spec)?),
            MechanismKind::Intervals => MechSpec::Intervals,
        })
    }

    pub(crate) fn kind(&self) -> MechanismKind {
        match self {
            MechSpec::Collate => MechanismKind::Collate,
            MechSpec::AggVar(_) => MechanismKind::AggVar,
            MechSpec::AggTable(_) => MechanismKind::AggTable,
            MechSpec::Intervals => MechanismKind::Intervals,
        }
    }
}

/// What one [`Fold::apply`] wrote to the result table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Applied {
    pub(crate) inserts: u64,
    pub(crate) updates: u64,
}

/// Report one result-table write to the row-effect sink, if any.
fn emit(sink: &mut Option<&mut ResultDelta>, removed: Option<&Row>, added: &Row) {
    if let Some(delta) = sink {
        delta.removed.extend(removed.cloned());
        delta.added.push(added.clone());
    }
}

/// One mechanism's fold of per-snapshot Qq outputs into `T`.
pub(crate) struct Fold {
    table: String,
    /// Whether `T` exists yet; whichever write comes first creates it.
    exists: bool,
    state: FoldState,
}

enum FoldState {
    Collate,
    AggVar(VarFold),
    AggTable(AggTableFold),
    Intervals {
        /// The snapshot id of the previous iteration.
        prev: Option<u64>,
    },
}

impl Fold {
    /// The empty fold: `T` does not exist yet.
    pub(crate) fn new(spec: MechSpec, table: &str) -> Fold {
        let state = match spec {
            MechSpec::Collate => FoldState::Collate,
            MechSpec::AggVar(func) => FoldState::AggVar(VarFold {
                func,
                state: func.init(),
                column: None,
                in_table: false,
                unnamed: false,
            }),
            MechSpec::AggTable(pairs) => FoldState::AggTable(AggTableFold {
                pairs,
                layout: None,
                prev: BTreeMap::new(),
                skipped: 0,
            }),
            MechSpec::Intervals => FoldState::Intervals { prev: None },
        };
        Fold {
            table: table.to_owned(),
            exists: false,
            state,
        }
    }

    /// The fold as the per-row UDF form left it: whatever an earlier
    /// invocation wrote to `T` is the state to continue from. `prev_sid`
    /// is the snapshot of the invocation that preceded this one (the
    /// session threads it; `T` alone cannot tell an empty iteration).
    pub(crate) fn resume(
        spec: MechSpec,
        aux: &Database,
        table: &str,
        prev_sid: Option<u64>,
    ) -> Result<Fold> {
        let mut fold = Fold::new(spec, table);
        fold.exists = table_exists(aux, table);
        match &mut fold.state {
            FoldState::AggVar(var) => {
                var.in_table = true;
                if fold.exists {
                    let stored = aux.query(&format!("SELECT * FROM {table}"))?;
                    var.column = stored.columns.first().cloned();
                    if let Some(row) = stored.rows.first() {
                        var.state = match var.func {
                            AggOp::Avg => AggState::Avg {
                                sum: row.get(1).and_then(Value::as_f64).unwrap_or(0.0),
                                count: row.get(2).and_then(Value::as_i64).unwrap_or(0),
                            },
                            AggOp::Count => AggState::Count(row[0].as_i64().unwrap_or(0)),
                            _ => AggState::Simple((!row[0].is_null()).then(|| row[0].clone())),
                        };
                    }
                }
            }
            FoldState::Intervals { prev } => *prev = prev_sid,
            FoldState::Collate | FoldState::AggTable(_) => {}
        }
        Ok(fold)
    }

    /// The last snapshot a `CollateDataIntoIntervals` fold saw.
    pub(crate) fn prev_sid(&self) -> Option<u64> {
        match self.state {
            FoldState::Intervals { prev } => prev,
            _ => None,
        }
    }

    /// `AggregateDataInTable` groups skipped so far without even a probe
    /// (stable records, proven write-free by the previous pass).
    pub(crate) fn groups_skipped(&self) -> u64 {
        match &self.state {
            FoldState::AggTable(fold) => fold.skipped,
            _ => 0,
        }
    }

    /// Fold Qq's output at `sid` into `T`, creating it (and its probe
    /// index) on first use. Row-level effects go to `sink`.
    pub(crate) fn apply(
        &mut self,
        aux: &Database,
        sid: u64,
        result: &QqRows,
        mut sink: Option<&mut ResultDelta>,
    ) -> Result<Applied> {
        let fresh = !self.exists;
        match &mut self.state {
            FoldState::AggVar(var) => {
                return var.apply(aux, &self.table, &mut self.exists, result, sink)
            }
            FoldState::AggTable(fold) => fold.init_layout(&result.columns)?,
            FoldState::Collate | FoldState::Intervals { .. } => {}
        }
        if fresh {
            let (columns, index_on) = match &self.state {
                FoldState::AggTable(AggTableFold {
                    layout: Some(layout),
                    ..
                }) => {
                    let group_columns = layout.group_positions.iter();
                    (
                        layout.table_columns.clone(),
                        group_columns.map(|&p| result.columns[p].clone()).collect(),
                    )
                }
                FoldState::Intervals { .. } => {
                    let mut columns = result.columns.clone();
                    columns.push(START_SNAPSHOT_COL.to_owned());
                    columns.push(END_SNAPSHOT_COL.to_owned());
                    (columns, result.columns.clone())
                }
                _ => (result.columns.clone(), Vec::new()),
            };
            create_result_table(aux, &self.table, &columns, &index_on)?;
            self.exists = true;
        }
        let state = &mut self.state;
        let (inserts, updates) = aux.with_table_writer(&self.table, |w| {
            match state {
                FoldState::Collate => {
                    if let Some(delta) = &mut sink {
                        delta.added.extend_from_slice(&result.rows);
                    }
                    for row in &result.rows {
                        w.insert(row.clone())?;
                    }
                }
                FoldState::AggTable(fold) => fold.apply(w, result, fresh, &mut sink)?,
                FoldState::Intervals { prev } => {
                    let end = result.columns.len() + 1;
                    for record in &result.rows {
                        // The lifetime row that ended exactly at the
                        // previous iteration's snapshot, if any (a fresh
                        // table has none to probe for).
                        let extend = match *prev {
                            Some(p) if !fresh => w
                                .probe(0, record)?
                                .into_iter()
                                .find(|(_, row)| row[end].as_i64() == Some(p as i64)),
                            _ => None,
                        };
                        match extend {
                            Some((rid, old)) => {
                                let mut new_row = old.clone();
                                new_row[end] = Value::Integer(sid as i64);
                                emit(&mut sink, Some(&old), &new_row);
                                w.update(rid, &old, new_row)?;
                            }
                            None => {
                                let mut row = record.clone();
                                row.push(Value::Integer(sid as i64));
                                row.push(Value::Integer(sid as i64));
                                emit(&mut sink, None, &row);
                                w.insert(row)?;
                            }
                        }
                    }
                    *prev = Some(sid);
                }
                FoldState::AggVar(_) => unreachable!("returned above"),
            }
            Ok((w.inserted(), w.updated()))
        })?;
        Ok(Applied { inserts, updates })
    }

    /// Whatever the fold owes `T` after the last snapshot of a run:
    /// `AggregateDataInVariable` stores its variable (paper §2.2).
    pub(crate) fn finish(&mut self, aux: &Database, sink: Option<&mut ResultDelta>) -> Result<()> {
        if let FoldState::AggVar(var) = &mut self.state {
            if !var.in_table {
                let _fin_span = rql_trace::span(rql_trace::SpanId::Finalize);
                var.write(aux, &self.table, &mut self.exists, sink)?;
            }
        }
        Ok(())
    }
}

// ======================================================================
// AggregateDataInVariable — the running variable
// ======================================================================

struct VarFold {
    func: AggOp,
    state: AggState,
    column: Option<String>,
    /// The per-row UDF form keeps the variable in `T` between
    /// invocations (with `(sum, count)` companions for the AVG special
    /// case) and writes it through on every contribution; otherwise `T`
    /// is materialized by [`Fold::finish`].
    in_table: bool,
    /// `T` was created before any Qq output named its column (an empty
    /// snapshot set); the next write re-creates it properly.
    unnamed: bool,
}

impl VarFold {
    /// Absorb Qq's single value.
    fn apply(
        &mut self,
        aux: &Database,
        table: &str,
        exists: &mut bool,
        result: &QqRows,
        sink: Option<&mut ResultDelta>,
    ) -> Result<Applied> {
        if result.columns.len() != 1 {
            return Err(SqlError::Invalid(format!(
                "AggregateDataInVariable expects Qq to return one column, got {}",
                result.columns.len()
            )));
        }
        let value = match result.rows.as_slice() {
            [] => None,
            [row] => Some(&row[0]),
            rows => {
                return Err(SqlError::Invalid(format!(
                    "AggregateDataInVariable expects Qq to return at most one row, got {}",
                    rows.len()
                )))
            }
        };
        self.column.get_or_insert_with(|| result.columns[0].clone());
        if let Some(v) = value {
            self.func.absorb(&mut self.state, v);
        }
        if self.in_table && (!*exists || value.is_some()) {
            return self.write(aux, table, exists, sink);
        }
        Ok(Applied::default())
    }

    /// Store the variable as `T`'s single row.
    fn write(
        &mut self,
        aux: &Database,
        table: &str,
        exists: &mut bool,
        mut sink: Option<&mut ResultDelta>,
    ) -> Result<Applied> {
        let mut row = vec![self.func.finish(&self.state)];
        let companions = self.in_table && self.func.needs_companions();
        if let (true, AggState::Avg { sum, count }) = (companions, &self.state) {
            row.push(Value::Real(*sum));
            row.push(Value::Integer(*count));
        }
        if self.unnamed && self.column.is_some() {
            let placeholder = aux.query(&format!("SELECT * FROM {table}"))?;
            if let Some(delta) = &mut sink {
                delta.removed.extend(placeholder.rows);
            }
            aux.execute(&format!("DROP TABLE {table}"))?;
            *exists = false;
        }
        if !*exists {
            self.unnamed = self.column.is_none();
            let column = self.column.clone().unwrap_or_else(|| "value".to_owned());
            let mut columns = vec![column.clone()];
            if companions {
                columns.push(format!("{column}__avg_sum"));
                columns.push(format!("{column}__avg_cnt"));
            }
            create_result_table(aux, table, &columns, &[])?;
            *exists = true;
        }
        aux.with_table_writer(table, |w| {
            match w.probe_all()?.pop() {
                Some((rid, old)) => {
                    emit(&mut sink, Some(&old), &row);
                    w.update(rid, &old, row)?;
                }
                None => {
                    emit(&mut sink, None, &row);
                    w.insert(row)?;
                }
            }
            Ok(Applied {
                inserts: w.inserted(),
                updates: w.updated(),
            })
        })
    }
}

// ======================================================================
// AggregateDataInTable — write-skipping in-table fold
// ======================================================================

/// Internal layout of an `AggregateDataInTable` result table.
struct AggTableLayout {
    /// Positions of grouping columns within the Qq output.
    group_positions: Vec<usize>,
    /// `(qq_position, op, companion_base)` per aggregated column;
    /// `companion_base` indexes the `(sum, count)` pair for AVG columns.
    agg_columns: Vec<(usize, AggOp, Option<usize>)>,
    /// All result-table column names (Qq columns + AVG companions).
    table_columns: Vec<String>,
}

fn agg_table_layout(qq_columns: &[String], pairs: &[(String, AggOp)]) -> Result<AggTableLayout> {
    let mut agg_columns = Vec::new();
    let mut table_columns: Vec<String> = qq_columns.to_vec();
    for (col, op) in pairs {
        let pos = qq_columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(col))
            .ok_or_else(|| {
                SqlError::Unknown(format!("aggregated column {col} not in Qq output"))
            })?;
        let companion = if op.needs_companions() {
            let base = table_columns.len();
            table_columns.push(format!("{col}__avg_sum"));
            table_columns.push(format!("{col}__avg_cnt"));
            Some(base)
        } else {
            None
        };
        agg_columns.push((pos, *op, companion));
    }
    let group_positions: Vec<usize> = (0..qq_columns.len())
        .filter(|i| !agg_columns.iter().any(|(p, _, _)| p == i))
        .collect();
    if group_positions.is_empty() {
        return Err(SqlError::Invalid(
            "every Qq column is aggregated; use AggregateDataInVariable instead".into(),
        ));
    }
    Ok(AggTableLayout {
        group_positions,
        agg_columns,
        table_columns,
    })
}

impl AggTableLayout {
    /// Result-table row for a record's first appearance.
    fn fresh_row(&self, record: &Row) -> Row {
        let mut row = Vec::with_capacity(self.table_columns.len());
        row.extend(record.iter().cloned());
        for (pos, _, companion) in &self.agg_columns {
            if companion.is_some() {
                let x = record[*pos].as_f64().unwrap_or(0.0);
                let present = !record[*pos].is_null();
                row.push(Value::Real(x));
                row.push(Value::Integer(i64::from(present)));
            }
        }
        row
    }

    /// Fold one record into the result table: probe on the grouping
    /// columns, then update the hit or insert fresh (paper §3). Returns
    /// whether anything was written.
    fn fold(
        &self,
        w: &mut TableWriter,
        record: &Row,
        sink: &mut Option<&mut ResultDelta>,
    ) -> Result<bool> {
        let key: Vec<Value> = self
            .group_positions
            .iter()
            .map(|&p| record[p].clone())
            .collect();
        let mut hits = w.probe(0, &key)?;
        let Some((rid, old)) = hits.pop() else {
            let fresh = self.fresh_row(record);
            emit(sink, None, &fresh);
            w.insert(fresh)?;
            return Ok(true);
        };
        if !hits.is_empty() {
            return Err(SqlError::Invalid(format!(
                "aggregation ill-defined: {} result rows share one grouping key \
                 (Qq must be unique on its grouping columns)",
                hits.len() + 1
            )));
        }
        let mut new_row = old.clone();
        for (pos, op, companion) in &self.agg_columns {
            match companion {
                Some(base) => {
                    let mut sum = old[*base].as_f64().unwrap_or(0.0);
                    let mut cnt = old[*base + 1].as_i64().unwrap_or(0);
                    if let Some(x) = record[*pos].as_f64() {
                        sum += x;
                        cnt += 1;
                    }
                    new_row[*base] = Value::Real(sum);
                    new_row[*base + 1] = Value::Integer(cnt);
                    new_row[*pos] = if cnt == 0 {
                        Value::Null
                    } else {
                        Value::Real(sum / cnt as f64)
                    };
                }
                None => new_row[*pos] = op.combine(&old[*pos], &record[*pos]),
            }
        }
        // Skip the write when the aggregate did not change (MAX rarely
        // changes; SUM changes on every contribution — the asymmetry of
        // Figure 13's hot iterations).
        if new_row == old {
            return Ok(false);
        }
        emit(sink, Some(&old), &new_row);
        w.update(rid, &old, new_row)?;
        Ok(true)
    }
}

/// Grouping key under result-table probe equivalence: two keys are equal
/// iff [`TableWriter::probe`] would land them on the same result row
/// (`total_cmp == Equal`, so `2` ≡ `2.0` and NULL ≡ NULL).
struct GroupKey(Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for GroupKey {}
impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| a.total_cmp(b))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or_else(|| self.0.len().cmp(&other.0.len()))
    }
}

/// One grouping key's share of a fold pass.
#[derive(Default)]
struct GroupPass {
    /// The group's record sublist, in Qq output order.
    records: Vec<Row>,
    /// Skipped: same records as a previous pass that wrote nothing.
    skip: bool,
    /// Whether this pass's fold wrote (insert or update).
    wrote: bool,
}

/// `AggregateDataInTable` fold state, persistent across iterations (and,
/// for standing queries, across commits).
///
/// Byte-identity argument for the write-skipping: the result table's
/// bytes depend only on the *write* sequence against it (probes are
/// read-only, and `heap.update` = delete+insert relocates on every
/// write). A group whose record sublist is unchanged since the previous
/// pass AND whose previous pass wrote nothing would fold to the same
/// no-op again — the fold is deterministic in (stored row, records), and
/// no other group's writes touch its stored row. Skipping exactly those
/// groups therefore preserves the plain per-record write sequence
/// byte-for-byte while eliminating the probes for the stable majority
/// (MAX groups in Figure 13's hot iterations). Everything else replays
/// [`AggTableLayout::fold`] per record in Qq output order.
struct AggTableFold {
    pairs: Vec<(String, AggOp)>,
    layout: Option<AggTableLayout>,
    /// The groups the last pass provably wrote nothing for, with their
    /// record sublists.
    prev: BTreeMap<GroupKey, Vec<Row>>,
    /// Groups skipped so far.
    skipped: u64,
}

impl AggTableFold {
    /// Derive the layout from the first Qq output seen.
    fn init_layout(&mut self, qq_columns: &[String]) -> Result<()> {
        if self.layout.is_none() {
            self.layout = Some(agg_table_layout(qq_columns, &self.pairs)?);
        }
        Ok(())
    }

    /// Fold one iteration's Qq output. `blind`: `T` was just created, so
    /// the pass inserts without probing (the Qq output is unique on the
    /// grouping columns).
    fn apply(
        &mut self,
        w: &mut TableWriter,
        result: &QqRows,
        blind: bool,
        sink: &mut Option<&mut ResultDelta>,
    ) -> Result<()> {
        let layout = self.layout.as_ref().expect("init_layout() before apply()");
        if blind {
            for record in &result.rows {
                let fresh = layout.fresh_row(record);
                emit(sink, None, &fresh);
                w.insert(fresh)?;
            }
            // Every group just wrote, so the next pass can skip none of
            // them: there is nothing worth remembering.
            self.prev.clear();
            return Ok(());
        }
        let key_of = |record: &Row| {
            let key = layout.group_positions.iter();
            GroupKey(key.map(|&p| record[p].clone()).collect())
        };
        // Group this iteration's records under probe equivalence.
        let mut cur: BTreeMap<GroupKey, GroupPass> = BTreeMap::new();
        for record in &result.rows {
            let group = cur.entry(key_of(record)).or_default();
            group.records.push(record.clone());
        }
        // Decide skips against the previous pass.
        for (key, group) in &mut cur {
            group.skip = self.prev.get(key) == Some(&group.records);
            self.skipped += u64::from(group.skip);
        }
        for record in &result.rows {
            let group = cur.get_mut(&key_of(record)).expect("record grouped above");
            if !group.skip {
                group.wrote |= layout.fold(w, record, sink)?;
            }
        }
        let write_free = cur.into_iter().filter(|(_, group)| !group.wrote);
        self.prev = write_free
            .map(|(key, group)| (key, group.records))
            .collect();
        Ok(())
    }
}

// ======================================================================
// The loop
// ======================================================================

/// Shared iteration driver: per snapshot in `ids`, take Qq's output from
/// `source` and hand it to `fold` (whose time is the "RQL UDF" component
/// of the paper's cost breakdowns), then let the fold finish.
pub(crate) fn drive(
    snap: &Database,
    aux: &Database,
    source: &mut QqSource,
    fold: &mut Fold,
    ids: &[u64],
    mut sink: Option<&mut ResultDelta>,
) -> Result<RqlReport> {
    let readers = source.open_chain(snap, ids)?;
    let mut report = RqlReport::default();
    for (i, &sid) in ids.iter().enumerate() {
        let _qq_span = rql_trace::span_arg(rql_trace::SpanId::QqIteration, sid);
        let iter_started = Instant::now();
        let memo_hit = source.advance(snap, readers.get(i), sid)?;
        let output = source.current();
        let qq_rows = output.data.rows.len() as u64;
        let udf_started = Instant::now();
        let applied = fold.apply(aux, sid, &output.data, sink.as_deref_mut())?;
        rql_trace::instant_arg(rql_trace::SpanId::RowsFolded, qq_rows);
        report.iterations.push(IterationReport {
            snap_id: sid,
            qq_stats: output.stats,
            udf_time: udf_started.elapsed(),
            qq_rows,
            result_inserts: applied.inserts,
            result_updates: applied.updates,
            memo_hit,
            wall: iter_started.elapsed(),
        });
    }
    let finalize_started = Instant::now();
    fold.finish(aux, sink)?;
    report.finalize_time = finalize_started.elapsed();
    Ok(report)
}

/// One batch mechanism call: Qs once, then [`drive`] a fresh source and
/// an empty fold over the snapshot set it returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    snap: &Database,
    aux: &Database,
    qs: &str,
    qq: &str,
    table: &str,
    spec: MechSpec,
    policy: Option<DeltaPolicy>,
    memo: MemoHandle,
) -> Result<RqlReport> {
    let _qs_span = rql_trace::span(rql_trace::SpanId::QsLoop);
    if table_exists(aux, table) {
        return Err(SqlError::Constraint(format!(
            "result table {table} already exists (the mechanism creates it)"
        )));
    }
    let mut source = QqSource::new(qq, spec.kind(), policy, memo)?;
    let (ids, qs_time) = snapshot_set(aux, qs)?;
    let mut fold = Fold::new(spec, table);
    let mut report = drive(snap, aux, &mut source, &mut fold, &ids, None)?;
    report.qs_time = qs_time;
    Ok(report)
}
