//! The four RQL mechanisms (paper §2), implemented operationally as
//! described in §3 — each exactly once.
//!
//! Every mechanism is the same loop: run Qs on the auxiliary database
//! to obtain the snapshot set, then for each snapshot id evaluate Qq on
//! the snapshotable database and fold its rows into the result table `T`
//! in the auxiliary database. The loop is [`drive`]; where a snapshot's
//! Qq output comes from is [`QqSource`]'s business (sequential plan,
//! delta scan, memo, …); what happens to it is a [`Fold`]: blind inserts
//! for `CollateData`; a running variable for `AggregateDataInVariable`;
//! probe-then-update for `AggregateDataInTable`; lifetime maintenance
//! for `CollateDataIntoIntervals`.
//!
//! Both aggregation folds run the SQL engine's accumulator
//! ([`AggAcc`]), so a mechanism answers what SQL's aggregate answers over
//! the snapshots CollateData would collect. `AggColumn` is its stored
//! form in `T`: a running variable or a group's row is loaded, updated
//! with one contribution and stored back.
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
//!   commits and collects the fold's row effects as a [`ResultDelta`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use rql_memo::{MemoStore, QqRows};
use rql_sqlengine::{
    AggAcc, Database, GroupKey, GroupKeyRef, KeyMap, KeyState, Result, Row, SqlError, TableWriter,
    Value,
};

use crate::aggregate::{parse_col_func_pairs, AggOp};
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
/// over `index_on` when non-empty. The columns come from
/// [`MechSpec::table_layout`].
fn create_result_table(
    aux: &Database,
    table: &str,
    columns: &[String],
    index_on: &[String],
) -> Result<()> {
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

/// Which of the paper's four mechanisms a call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismKind {
    /// `CollateData(Qs, Qq, T)` (§2.1).
    Collate,
    /// `AggregateDataInVariable(Qs, Qq, T, AggFunc)` (§2.2).
    AggVar,
    /// `AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)` (§2.3).
    AggTable,
    /// `CollateDataIntoIntervals(Qs, Qq, T)` (§2.4).
    Intervals,
}

impl MechanismKind {
    /// Every mechanism, in the paper's order.
    pub const ALL: [MechanismKind; 4] = [
        MechanismKind::Collate,
        MechanismKind::AggVar,
        MechanismKind::AggTable,
        MechanismKind::Intervals,
    ];

    /// The programmer-facing UDF name (lowercase).
    pub fn udf_name(self) -> &'static str {
        match self {
            MechanismKind::Collate => "collatedata",
            MechanismKind::AggVar => "aggregatedatainvariable",
            MechanismKind::AggTable => "aggregatedataintable",
            MechanismKind::Intervals => "collatedataintointervals",
        }
    }

    /// Map a UDF name (any case) to its mechanism.
    pub fn from_udf_name(name: &str) -> Option<MechanismKind> {
        (Self::ALL.into_iter()).find(|k| k.udf_name().eq_ignore_ascii_case(name))
    }

    /// Whether this mechanism takes a fourth spec argument.
    pub fn takes_spec(self) -> bool {
        matches!(self, MechanismKind::AggVar | MechanismKind::AggTable)
    }
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

    /// `T`'s contract for a Qq whose output columns are `qq_columns`: the
    /// one definition the folds create `T` from and the pre-flight checks
    /// a call against. `T` has Qq's columns, then each AVG column's
    /// `(sum, count)` companions (AggregateDataInTable) or the lifetime
    /// pair (CollateDataIntoIntervals), and no name twice.
    /// AggregateDataInVariable takes exactly one column;
    /// AggregateDataInTable aggregates only columns Qq returns and leaves
    /// at least one to group on.
    pub(crate) fn table_layout(
        &self,
        qq_columns: &[String],
    ) -> std::result::Result<TableLayout, LayoutError> {
        let mut layout = TableLayout {
            group_positions: Vec::new(),
            agg_columns: Vec::new(),
            table_columns: qq_columns.to_vec(),
        };
        match self {
            MechSpec::Collate => {}
            &MechSpec::AggVar(op) if qq_columns.len() == 1 => {
                layout.agg_columns.push(AggColumn::new(0, op, None));
            }
            MechSpec::AggVar(_) => return Err(LayoutError::NotSingleColumn(qq_columns.len())),
            MechSpec::AggTable(pairs) => {
                for (col, op) in pairs {
                    let pos = (qq_columns.iter())
                        .position(|c| c.eq_ignore_ascii_case(col))
                        .ok_or_else(|| LayoutError::NotInQq(col.clone()))?;
                    let agg = AggColumn::new(pos, *op, Some(layout.table_columns.len()));
                    layout.table_columns.extend(agg.companions(col));
                    layout.agg_columns.push(agg);
                }
                layout.group_positions = (0..qq_columns.len())
                    .filter(|&i| !layout.agg_columns.iter().any(|a| a.pos == i))
                    .collect();
                if layout.group_positions.is_empty() {
                    return Err(LayoutError::AllAggregated);
                }
            }
            MechSpec::Intervals => {
                layout.group_positions = (0..qq_columns.len()).collect();
                let lifetime = [START_SNAPSHOT_COL, END_SNAPSHOT_COL];
                layout.table_columns.extend(lifetime.map(str::to_owned));
            }
        }
        let columns = &layout.table_columns;
        let twice =
            |(i, c): (usize, &String)| columns[..i].iter().any(|o| o.eq_ignore_ascii_case(c));
        match columns.iter().enumerate().find(|&ic| twice(ic)) {
            Some((_, c)) => Err(LayoutError::Duplicate(c.clone())),
            None => Ok(layout),
        }
    }
}

/// One aggregated column of `T` and the stored form of its running state,
/// the SQL engine's accumulator ([`AggAcc`]): the column holds the
/// finished value, which for MIN/MAX/SUM/COUNT is the whole state, and an
/// AVG column is followed by its `(sum, count)` companions so a later fold
/// can resume the average. Every write of an aggregate to `T` is new or
/// loaded state, one update, and a store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggColumn {
    /// The column's position, in the Qq output and in `T`.
    pub(crate) pos: usize,
    /// The aggregate it holds.
    pub(crate) op: AggOp,
    /// Where AVG's companions start in `T`, if `T` carries them.
    companion: Option<usize>,
}

impl AggColumn {
    /// `op` over column `pos`, with AVG's companions at `next` if given.
    fn new(pos: usize, op: AggOp, next: Option<usize>) -> AggColumn {
        let companion = next.filter(|_| op == AggOp::Avg);
        AggColumn { pos, op, companion }
    }

    /// The companion column names for a value column named `column`.
    fn companions(&self, column: &str) -> impl Iterator<Item = String> {
        let names = |_| [format!("{column}__avg_sum"), format!("{column}__avg_cnt")];
        self.companion.map(names).into_iter().flatten()
    }

    /// The state stored in `row` (a stored MIN/MAX/SUM value is its own
    /// state once folded into the identity).
    fn load(&self, row: &Row) -> AggAcc {
        let stored = |i: usize| row.get(i).unwrap_or(&Value::Null);
        match (self.op, self.companion) {
            (AggOp::Count, _) => AggAcc::Count(stored(self.pos).as_i64().unwrap_or(0)),
            (AggOp::Avg, Some(at)) => AggAcc::Avg {
                sum: stored(at).as_f64().unwrap_or(0.0),
                count: stored(at + 1).as_i64().unwrap_or(0),
            },
            _ => {
                let mut state = AggAcc::new(self.op.func());
                state.update(Some(stored(self.pos)));
                state
            }
        }
    }

    /// Write `acc` into `row`.
    fn store(&self, acc: AggAcc, row: &mut Row) {
        if let (Some(at), &AggAcc::Avg { sum, count }) = (self.companion, &acc) {
            row[at] = Value::Real(sum);
            row[at + 1] = Value::Integer(count);
        }
        row[self.pos] = acc.finish();
    }
}

/// Why a Qq output cannot make `T`: each is the error the fold raises when
/// it meets that output, and the pre-flight reports it before the loop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LayoutError {
    /// AggregateDataInVariable's Qq returns this many columns, not one.
    NotSingleColumn(usize),
    /// A column the pairs list aggregates that Qq does not return.
    NotInQq(String),
    /// Every Qq column is aggregated: nothing is left to group on.
    AllAggregated,
    /// Two columns of `T` would share this name.
    Duplicate(String),
}

impl From<LayoutError> for SqlError {
    fn from(e: LayoutError) -> SqlError {
        match e {
            LayoutError::NotSingleColumn(n) => SqlError::Invalid(format!(
                "AggregateDataInVariable expects Qq to return one column, got {n}"
            )),
            LayoutError::NotInQq(col) => {
                SqlError::Unknown(format!("aggregated column {col} not in Qq output"))
            }
            LayoutError::AllAggregated => SqlError::Invalid(
                "every Qq column is aggregated; use AggregateDataInVariable instead".into(),
            ),
            LayoutError::Duplicate(c) => {
                SqlError::Invalid(format!("Qq output has duplicate column name {c}"))
            }
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
    spec: MechSpec,
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
        let state = match &spec {
            MechSpec::Collate => FoldState::Collate,
            &MechSpec::AggVar(op) => FoldState::AggVar(VarFold {
                agg: AggColumn::new(0, op, None),
                state: AggAcc::new(op.func()),
                column: None,
                in_table: false,
                unnamed: false,
            }),
            MechSpec::AggTable(_) => FoldState::AggTable(AggTableFold {
                layout: None,
                prev: None,
                skipped: 0,
            }),
            MechSpec::Intervals => FoldState::Intervals { prev: None },
        };
        Fold {
            spec,
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
                var.agg = AggColumn::new(0, var.agg.op, Some(1));
                if fold.exists {
                    let stored = aux.query(&format!("SELECT * FROM {table}"))?;
                    var.column = stored.columns.first().cloned();
                    if let Some(row) = stored.rows.first() {
                        var.state = var.agg.load(row);
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

    /// `AggregateDataInTable` records skipped so far without a probe
    /// (their fold provably writes nothing).
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
        data: &Arc<QqRows>,
        mut sink: Option<&mut ResultDelta>,
    ) -> Result<Applied> {
        let result: &QqRows = data;
        let fresh = !self.exists;
        if let FoldState::AggVar(var) = &mut self.state {
            return var.apply(aux, &self.table, &mut self.exists, result, sink);
        }
        if fresh {
            let layout = self.spec.table_layout(&result.columns)?;
            let index_on: Vec<String> = (layout.group_positions.iter())
                .map(|&p| result.columns[p].clone())
                .collect();
            create_result_table(aux, &self.table, &layout.table_columns, &index_on)?;
            self.exists = true;
        }
        let (state, spec) = (&mut self.state, &self.spec);
        let (inserts, updates) = aux.with_table_writer(&self.table, |w| {
            match state {
                FoldState::Collate => {
                    // Every pass is one load (`T` has no index of its own).
                    if let Some(delta) = &mut sink {
                        delta.added.extend_from_slice(&result.rows);
                    }
                    w.load(result.rows.iter().cloned())?;
                }
                FoldState::AggTable(fold) => fold.apply(w, spec, data, fresh, &mut sink)?,
                FoldState::Intervals { prev } => {
                    let end = result.columns.len() + 1;
                    // A lifetime row that starts and ends at `sid`.
                    let lifetime = |record: &Row| {
                        let mut row = record.clone();
                        row.push(Value::Integer(sid as i64));
                        row.push(Value::Integer(sid as i64));
                        row
                    };
                    if fresh {
                        w.load(result.rows.iter().map(|record| {
                            let row = lifetime(record);
                            emit(&mut sink, None, &row);
                            row
                        }))?;
                    } else {
                        for record in &result.rows {
                            // The lifetime row that ended exactly at the
                            // previous iteration's snapshot, if any.
                            let extend = match *prev {
                                Some(p) => w
                                    .probe(0, record)?
                                    .into_iter()
                                    .find(|(_, row)| row[end].as_i64() == Some(p as i64)),
                                None => None,
                            };
                            match extend {
                                Some((rid, old)) => {
                                    let mut new_row = old.clone();
                                    new_row[end] = Value::Integer(sid as i64);
                                    emit(&mut sink, Some(&old), &new_row);
                                    w.update(rid, &old, new_row)?;
                                }
                                None => {
                                    let row = lifetime(record);
                                    emit(&mut sink, None, &row);
                                    w.insert(row)?;
                                }
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
    /// The variable's column of `T`.
    agg: AggColumn,
    state: AggAcc,
    column: Option<String>,
    /// The per-row UDF form keeps the variable in `T` between
    /// invocations (with AVG's companions) and writes it through on every
    /// contribution; otherwise `T` is materialized by [`Fold::finish`].
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
        MechSpec::AggVar(self.agg.op).table_layout(&result.columns)?;
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
            self.state.update(Some(v));
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
        let column = self.column.clone().unwrap_or_else(|| "value".to_owned());
        let mut columns = vec![column.clone()];
        columns.extend(self.agg.companions(&column));
        let mut row = vec![Value::Null; columns.len()];
        self.agg.store(self.state.clone(), &mut row);
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

/// `T`'s layout for one Qq output (`MechSpec::table_layout`).
pub struct TableLayout {
    /// Positions, within the Qq output, of the columns `T`'s probe index
    /// keys on: AggregateDataInTable's grouping columns, every column of
    /// CollateDataIntoIntervals, none otherwise.
    group_positions: Vec<usize>,
    /// The aggregated columns.
    pub(crate) agg_columns: Vec<AggColumn>,
    /// All result-table column names.
    pub(crate) table_columns: Vec<String>,
}

impl TableLayout {
    /// AggregateDataInTable's `T` for `pairs` over a Qq returning
    /// `qq_columns`, for folds outside the mechanism (the bench's
    /// sort-merge ablation).
    pub fn aggregate_in_table(
        pairs: &[(String, AggOp)],
        qq_columns: &[String],
    ) -> Result<TableLayout> {
        Ok(MechSpec::AggTable(pairs.to_vec()).table_layout(qq_columns)?)
    }

    /// All result-table column names.
    pub fn columns(&self) -> &[String] {
        &self.table_columns
    }

    /// The grouping columns' positions in a Qq record and in `T`.
    pub fn group_positions(&self) -> &[usize] {
        &self.group_positions
    }

    /// `T`'s row for its group after `record` is folded into `old`, the
    /// group's row so far (`None`: the group's first record).
    pub fn fold_row(&self, old: Option<&Row>, record: &Row) -> Row {
        let mut row = match old {
            Some(old) => old.clone(),
            None => {
                let mut row = Vec::with_capacity(self.table_columns.len());
                row.extend(record.iter().cloned());
                row.resize(self.table_columns.len(), Value::Null);
                row
            }
        };
        for agg in &self.agg_columns {
            let mut state = match old {
                Some(old) => agg.load(old),
                None => AggAcc::new(agg.op.func()),
            };
            state.update(Some(&record[agg.pos]));
            agg.store(state, &mut row);
        }
        row
    }

    /// A record's grouping key.
    fn key(&self, record: &Row) -> GroupKey {
        GroupKey(
            self.group_positions
                .iter()
                .map(|&p| record[p].clone())
                .collect(),
        )
    }

    /// Fold one record into the result table: probe on the grouping
    /// columns, then update the hit or insert fresh (paper §3).
    fn fold(
        &self,
        w: &mut TableWriter,
        record: &Row,
        sink: &mut Option<&mut ResultDelta>,
    ) -> Result<()> {
        let mut hits = w.probe(0, &self.key(record).0)?;
        let Some((rid, old)) = hits.pop() else {
            let fresh = self.fold_row(None, record);
            emit(sink, None, &fresh);
            w.insert(fresh)?;
            return Ok(());
        };
        if !hits.is_empty() {
            return Err(SqlError::Invalid(format!(
                "aggregation ill-defined: {} result rows share one grouping key \
                 (Qq must be unique on its grouping columns)",
                hits.len() + 1
            )));
        }
        let new_row = self.fold_row(Some(&old), record);
        // Skip the write when the aggregate did not change (MAX rarely
        // changes; SUM changes on every contribution — the asymmetry of
        // Figure 13's hot iterations).
        if new_row != old {
            emit(sink, Some(&old), &new_row);
            w.update(rid, &old, new_row)?;
        }
        Ok(())
    }

    /// Which records of `result` the fold may skip after `prev`, the output
    /// the previous pass folded (see [`AggTableFold`]); empty when none
    /// may.
    fn skippable(&self, result: &QqRows, prev: Option<&QqRows>) -> Vec<bool> {
        let idempotent = (self.agg_columns.iter()).all(|a| matches!(a.op, AggOp::Min | AggOp::Max));
        let Some(prev) = prev.filter(|_| idempotent) else {
            return Vec::new();
        };
        // A record equal to the single record its key had in the previous
        // pass, keys read in place.
        let key = |row| GroupKeyRef {
            row,
            positions: &self.group_positions,
        };
        let mut single: KeyMap<GroupKeyRef, Option<&Row>> =
            KeyMap::with_capacity_and_hasher(prev.rows.len(), KeyState::default());
        for record in &prev.rows {
            (single.entry(key(record)))
                .and_modify(|r| *r = None)
                .or_insert(Some(record));
        }
        (result.rows.iter())
            .map(|r| single.get(&key(r)) == Some(&Some(r)))
            .collect()
    }
}

/// `AggregateDataInTable` fold state, persistent across iterations (and,
/// for standing queries, across commits).
///
/// Byte-identity of the write-skipping: `T`'s bytes depend only on the
/// sequence of writes against it (probes are read-only), so a record may
/// be skipped exactly when its fold would neither write nor fail. When
/// every op is MIN or MAX, folding is idempotent under the strict
/// compare: once a record is folded into its group's row, that row's
/// aggregate columns only move away from the record's values, so folding
/// the record again writes nothing. A record equal to one the previous
/// pass folded is therefore skipped — provided `T` holds one row for its
/// key, or the skipped probe would have failed as ill-defined. Whatever
/// the previous pass did with a key only one of its records carried
/// (blind insert, probe or skip), it left exactly one row for it. So the
/// rule is: a record equal to the single record its key had in the
/// previous pass, found by one keyed comparison against that output. SUM,
/// COUNT and AVG fold every record. What is not skipped replays
/// [`TableLayout::fold`] per record in Qq output order.
struct AggTableFold {
    layout: Option<TableLayout>,
    /// The output the last pass folded.
    prev: Option<Arc<QqRows>>,
    /// Records skipped so far.
    skipped: u64,
}

impl AggTableFold {
    /// Fold one iteration's Qq output, deriving `T`'s layout from
    /// `spec` on the first. `blind`: `T` was just created, so the pass
    /// loads it without probing (the Qq output is unique on the grouping
    /// columns).
    fn apply(
        &mut self,
        w: &mut TableWriter,
        spec: &MechSpec,
        result: &Arc<QqRows>,
        blind: bool,
        sink: &mut Option<&mut ResultDelta>,
    ) -> Result<()> {
        let layout = match &mut self.layout {
            Some(layout) => layout,
            slot => slot.insert(spec.table_layout(&result.columns)?),
        };
        let prev = self.prev.take();
        if blind {
            w.load(result.rows.iter().map(|record| {
                let fresh = layout.fold_row(None, record);
                emit(sink, None, &fresh);
                fresh
            }))?;
        } else {
            let skip = layout.skippable(result, prev.as_deref());
            for (i, record) in result.rows.iter().enumerate() {
                if skip.get(i) == Some(&true) {
                    self.skipped += 1;
                } else {
                    layout.fold(w, record, sink)?;
                }
            }
        }
        self.prev = Some(Arc::clone(result));
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
    let mut report = RqlReport::default();
    for &sid in ids {
        let _qq_span = rql_trace::span_arg(rql_trace::SpanId::QqIteration, sid);
        let iter_started = Instant::now();
        let (memo_hit, output) = source.advance(snap, sid)?;
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
    let mut source = QqSource::new(snap, qq, policy, memo)?;
    let (ids, qs_time) = snapshot_set(aux, qs)?;
    let mut fold = Fold::new(spec, table);
    let mut report = drive(snap, aux, &mut source, &mut fold, &ids, None)?;
    report.qs_time = qs_time;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_retro::RetroConfig;

    /// A Qq output of `(g, x)` records.
    fn output(records: &[(i64, i64)]) -> Arc<QqRows> {
        Arc::new(QqRows {
            columns: vec!["g".into(), "x".into()],
            rows: rows(records),
        })
    }

    /// Fold `outputs` into a fresh `table` under `(x, op)`; `T`'s rows in
    /// key order, and the records skipped.
    fn fold_all(table: &str, op: AggOp, outputs: &[&Arc<QqRows>]) -> Result<(Vec<Row>, u64)> {
        let aux = Database::in_memory(RetroConfig::new());
        let mut fold = Fold::new(MechSpec::AggTable(vec![("x".into(), op)]), table);
        for (sid, output) in outputs.iter().enumerate() {
            fold.apply(&aux, sid as u64, output, None)?;
        }
        let rows = aux
            .query(&format!("SELECT * FROM {table} ORDER BY g"))?
            .rows;
        Ok((rows, fold.groups_skipped()))
    }

    fn rows(records: &[(i64, i64)]) -> Vec<Row> {
        let row = |&(g, x): &(i64, i64)| vec![Value::Integer(g), Value::Integer(x)];
        records.iter().map(row).collect()
    }

    /// Right after the blind pass, a MAX fold skips the records equal to
    /// the previous pass's; a SUM fold skips none and writes every one.
    #[test]
    fn only_min_max_folds_skip_records_equal_to_the_previous_pass() {
        let first = output(&[(1, 10), (2, 20), (3, 30)]);
        let second = output(&[(1, 10), (2, 25), (3, 30), (4, 40)]);
        let (table, skipped) = fold_all("t", AggOp::Max, &[&first, &second]).unwrap();
        assert_eq!(skipped, 2);
        assert_eq!(table, rows(&[(1, 10), (2, 25), (3, 30), (4, 40)]));
        let (table, skipped) = fold_all("t", AggOp::Sum, &[&first, &second]).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(table, rows(&[(1, 20), (2, 45), (3, 60), (4, 40)]));
    }

    /// Records are compared with the pass folded last only: a record an
    /// earlier pass folded is probed again.
    #[test]
    fn records_are_compared_with_the_pass_folded_last() {
        let first = output(&[(1, 10), (2, 20)]);
        let second = output(&[(1, 10), (2, 20)]);
        let third = output(&[(1, 15), (2, 20)]);
        let fourth = output(&[(1, 10), (2, 20)]);
        let outputs = [&first, &second, &third, &fourth];
        let (table, skipped) = fold_all("t", AggOp::Max, &outputs).unwrap();
        assert_eq!(skipped, 2 + 1 + 1);
        assert_eq!(table, rows(&[(1, 15), (2, 20)]));
    }

    /// What a result table holds: FNV-1a of its heap pages in chain order
    /// (the 8-byte link to the next page zeroed unless `exact`), its rows,
    /// and its index's entries as (key, the rid's page as its place in the
    /// chain, slot) in index order.
    type Image = (Vec<u64>, Vec<Row>, Vec<(Vec<u8>, usize, u16)>);

    /// The [`Image`] of `table`, checking its index is canonical.
    fn image(aux: &Database, table: &str, exact: bool) -> Image {
        use rql_pagestore::{fnv1a, PageId};
        use rql_sqlengine::{btree::BTree, Catalog, PredSummary};
        let view = aux.store().current_view();
        let catalog = Catalog::load(&view).unwrap();
        let mut chain: Vec<PageId> = Vec::new();
        let heap = catalog.require_table(table).unwrap().heap();
        heap.scan(&view, &PredSummary::default(), None, |rid, _| {
            if chain.last() != Some(&rid.page) {
                chain.push(rid.page);
            }
            Ok(true)
        })
        .unwrap();
        let pages = (chain.iter())
            .map(|&pid| {
                let mut bytes = view.page(pid).unwrap().bytes().to_vec();
                if !exact {
                    bytes[..8].fill(0);
                }
                fnv1a(&bytes)
            })
            .collect();
        let rows = aux.query(&format!("SELECT * FROM {table}")).unwrap().rows;
        let mut entries = Vec::new();
        if let Some(index) = catalog.indexes_on(table).first() {
            let tree = BTree::new(index.root);
            tree.check_canonical(&view).unwrap();
            tree.scan_all(&view, |key, rid| {
                let at = chain.iter().position(|&pid| pid == rid.page).unwrap();
                entries.push((key[..key.len() - 10].to_vec(), at, rid.slot));
                Ok(true)
            })
            .unwrap();
        }
        (pages, rows, entries)
    }

    /// The fresh pass of every fold that creates `T` loads it in one call;
    /// the table is the one inserting its rows one at a time builds —
    /// the same heap page bytes, rows and index entries. Only the page
    /// numbers differ where `T` has an index: the per-row path allocates
    /// the index's pages between the heap's, a load after them. So the
    /// comparison reads pages by their place in the heap chain and masks
    /// the link, except for CollateData, whose `T` has no index.
    #[test]
    fn a_fresh_pass_loads_the_table_each_row_would_build() {
        let page_size = |size| RetroConfig {
            pager: rql_pagestore::PagerConfig {
                page_size: size,
                cache_capacity: 1024,
                wal_sync_on_commit: false,
            },
            ..RetroConfig::new()
        };
        let mut state = 7u64;
        let records: Vec<Row> = (0..1500i64)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let g = format!(
                    "group-{:05}-{}",
                    (state >> 33) % 100_000,
                    "p".repeat(i as usize % 24)
                );
                vec![Value::text(g), Value::Integer(i * 7 % 1000)]
            })
            .collect();
        let data = Arc::new(QqRows {
            columns: vec!["g".into(), "x".into()],
            rows: records.clone(),
        });
        let sid = 3;
        let lifetime = |r: &Row| [r.clone(), vec![Value::Integer(sid); 2]].concat();
        let cases = [
            (MechSpec::Collate, vec!["g", "x"], vec![], records.clone()),
            (
                MechSpec::AggTable(vec![("x".into(), AggOp::Max)]),
                vec!["g", "x"],
                vec!["g"],
                records.clone(),
            ),
            (
                MechSpec::Intervals,
                vec!["g", "x", START_SNAPSHOT_COL, END_SNAPSHOT_COL],
                vec!["g", "x"],
                records.iter().map(lifetime).collect(),
            ),
        ];
        for (spec, columns, index_on, rows) in cases {
            let exact = index_on.is_empty();
            let name = format!("{:?}", spec.kind());
            let loaded = Database::in_memory(page_size(512));
            Fold::new(spec, "t")
                .apply(&loaded, sid as u64, &data, None)
                .unwrap();
            let per_row = Database::in_memory(page_size(512));
            let strings = |cols: Vec<&str>| cols.into_iter().map(String::from).collect::<Vec<_>>();
            create_result_table(&per_row, "t", &strings(columns), &strings(index_on)).unwrap();
            per_row
                .with_table_writer("t", |w| {
                    for row in rows {
                        w.insert(row)?;
                    }
                    Ok(())
                })
                .unwrap();
            let (want, got) = (image(&per_row, "t", exact), image(&loaded, "t", exact));
            assert!(want.0.len() > 10, "{name}: {} heap pages", want.0.len());
            assert_eq!(got.0, want.0, "{name}: heap pages");
            assert_eq!(got.1, want.1, "{name}: rows");
            assert_eq!(got.2.len(), want.2.len(), "{name}: index entries");
            assert_eq!(got.2, want.2, "{name}: index entries");
        }
    }

    /// A key the blind pass inserted twice is probed on the next pass even
    /// though its records are unchanged: the probe is what reports the
    /// ill-defined aggregation.
    #[test]
    fn a_key_the_blind_pass_inserted_twice_is_still_probed() {
        let first = output(&[(1, 10), (1, 10)]);
        let second = output(&[(1, 10), (1, 10)]);
        let err = fold_all("t", AggOp::Max, &[&first, &second]).unwrap_err();
        assert!(err.to_string().contains("ill-defined"), "{err}");
    }
}
