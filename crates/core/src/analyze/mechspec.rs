//! Mechanism-spec validation: the (Qs, Qq, T, spec) quadruple of an RQL
//! mechanism call, checked against the runtime's actual contracts.
//!
//! Every error here is a failure the mechanisms in [`crate::mechanism`]
//! would raise mid-loop — after Qs ran and possibly after result rows were
//! already folded — found by asking the same definitions: the spec parses
//! with [`MechSpec::parse`] and T's layout is [`MechSpec::table_layout`] of
//! Qq's output. The point of this module is to surface those failures
//! before any snapshot is opened, plus the warnings (RQL014/018/019) the
//! runtime cannot see because it has already coerced the values.

use rql_sqlengine::{parse_select, ColumnType, SelectStmt, SqlError};

use crate::aggregate::AggOp;
use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::analyze::env::SchemaEnv;
use crate::analyze::resolve::{check_select, find_word_span, OutputCol, QueryFacts};
use crate::analyze::rewrite_safety::select_uses_current_snapshot;
use crate::mechanism::{
    LayoutError, MechSpec, MechanismKind, END_SNAPSHOT_COL, START_SNAPSHOT_COL,
};

/// One mechanism invocation under analysis.
#[derive(Debug, Clone, Copy)]
pub struct MechanismCall<'a> {
    /// Which mechanism.
    pub kind: MechanismKind,
    /// Snapshot-set query (runs on the auxiliary database).
    pub qs: &'a str,
    /// Per-snapshot query (runs on the snapshotable database).
    pub qq: &'a str,
    /// Result table name.
    pub table: &'a str,
    /// Aggregate function / pairs list, when the mechanism takes one.
    pub spec: Option<&'a str>,
}

/// What the checker learned (for downstream passes and env threading).
#[derive(Debug, Clone, Default)]
pub struct MechanismFacts {
    /// Qq parsed (present even when resolution found problems).
    pub qq_parsed: Option<SelectStmt>,
    /// Qs parsed.
    pub qs_parsed: Option<SelectStmt>,
    /// Qq's inferred output columns.
    pub qq_output: Option<Vec<OutputCol>>,
    /// The result table T's column names, when inferable.
    pub result_columns: Option<Vec<String>>,
    /// Tables Qq referenced that the current snapshot catalog lacks
    /// (pre-flight retries against older snapshot catalogs).
    pub qq_unknown_tables: Vec<String>,
}

/// Validate one mechanism call. `snap_env` is the snapshotable
/// database's catalog (what Qq sees), `aux_env` the auxiliary one (what
/// Qs sees and where T will be created).
pub fn check_mechanism(
    call: &MechanismCall<'_>,
    snap_env: &SchemaEnv,
    aux_env: &SchemaEnv,
    diags: &mut Vec<Diagnostic>,
) -> MechanismFacts {
    let mut facts = MechanismFacts::default();
    check_qs(call.qs, aux_env, diags, &mut facts);

    if aux_env.has_table(call.table) {
        diags.push(Diagnostic::new(
            Code::ResultTableExists,
            format!("result table {} already exists", call.table),
            SourceKind::Spec,
            None,
        ));
    }

    match parse_select(call.qq) {
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::QqParseError,
                format!("Qq does not parse: {}", e.message()),
                SourceKind::Qq,
                e.span(),
            ));
            return facts;
        }
        Ok(parsed) => {
            let qf = check_select(&parsed, snap_env, call.qq, SourceKind::Qq, diags);
            facts.qq_output = qf.output.clone();
            facts.qq_unknown_tables = qf.unknown_tables;
            facts.qq_parsed = Some(parsed);
            check_mechanism_spec(call, qf.output.as_deref(), diags, &mut facts);
        }
    }
    facts
}

/// Qs-side checks: parse, resolve against the auxiliary catalog, and the
/// single-integer-column contract of `mechanism::snapshot_set`.
fn check_qs(
    qs: &str,
    aux_env: &SchemaEnv,
    diags: &mut Vec<Diagnostic>,
    facts: &mut MechanismFacts,
) {
    let parsed = match parse_select(qs) {
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::QsParseError,
                format!("Qs does not parse: {}", e.message()),
                SourceKind::Qs,
                e.span(),
            ));
            return;
        }
        Ok(p) => p,
    };
    let mut qs_diags = Vec::new();
    let qf: QueryFacts = check_select(&parsed, aux_env, qs, SourceKind::Qs, &mut qs_diags);
    // Unknown tables in Qs get their own code: the near-universal cause
    // is querying the snapshotable database's tables where only the
    // auxiliary catalog (SnapIds + result tables) is visible.
    for mut d in qs_diags {
        if d.code == Code::UnknownTable {
            d.code = Code::QsUnknownTable;
            d.message = format!(
                "{}; Qs runs on the auxiliary database (its snapshot \
                 catalog is the SnapIds table)",
                d.message
            );
        }
        diags.push(d);
    }
    if select_uses_current_snapshot(&parsed) {
        diags.push(Diagnostic::new(
            Code::CurrentSnapshotInQs,
            "current_snapshot() in Qs has no loop to bind to; Qs selects \
             the snapshot set itself",
            SourceKind::Qs,
            find_word_span(qs, "current_snapshot", 0),
        ));
    }
    if let Some(out) = &qf.output {
        if out.len() != 1 {
            diags.push(Diagnostic::new(
                Code::QsNotSingleColumn,
                format!(
                    "Qs must return a single snapshot-id column, got {}",
                    out.len()
                ),
                SourceKind::Qs,
                None,
            ));
        } else if !matches!(out[0].ty, ColumnType::Integer | ColumnType::Any) {
            diags.push(Diagnostic::new(
                Code::QsNonIntegerColumn,
                format!(
                    "Qs column {} has {} affinity; snapshot ids are integers \
                     and non-integer values fail at runtime",
                    out[0].name,
                    out[0].ty.name()
                ),
                SourceKind::Qs,
                find_word_span(qs, &out[0].name, 0),
            ));
        }
    }
    facts.qs_parsed = Some(parsed);
}

/// The mechanism's contract on Qq's output and the spec argument: the
/// spec parses as the runtime parses it, and T's layout is the one the
/// fold would create.
fn check_mechanism_spec(
    call: &MechanismCall<'_>,
    output: Option<&[OutputCol]>,
    diags: &mut Vec<Diagnostic>,
    facts: &mut MechanismFacts,
) {
    let spec_text = call.spec.unwrap_or("");
    let spec = match MechSpec::parse(call.kind, call.spec) {
        Ok(spec) => spec,
        Err(e) => {
            let d = Diagnostic::new(Code::BadAggFunc, e.message(), SourceKind::Spec, None);
            diags.push(d.preempting(&e));
            return;
        }
    };
    let Some(output) = output else { return };
    let names: Vec<String> = output.iter().map(|c| c.name.clone()).collect();
    let layout = match spec.table_layout(&names) {
        Ok(layout) => layout,
        Err(e) => return diags.extend(layout_diagnostics(call, e)),
    };
    // RQL014: SUM/AVG over a text-typed column folds lexical garbage.
    let (src, source) = match call.kind {
        MechanismKind::AggTable => (spec_text, SourceKind::Spec),
        _ => (call.qq, SourceKind::Qq),
    };
    for agg in &layout.agg_columns {
        let (col, op) = (&output[agg.pos], agg.op);
        if matches!(op, AggOp::Sum | AggOp::Avg) && col.ty == ColumnType::Text {
            diags.push(Diagnostic::new(
                Code::AggTypeMismatch,
                format!(
                    "{op}() over text-typed column {}; non-numeric values are skipped",
                    col.name
                ),
                source,
                find_word_span(src, &col.name, 0),
            ));
        }
    }
    facts.result_columns = Some(layout.table_columns);
}

/// A layout failure as the diagnostics that name it: a lifetime column Qq
/// already returns is also a reserved-name collision (RQL013).
fn layout_diagnostics(call: &MechanismCall<'_>, e: LayoutError) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (code, source, span) = match &e {
        LayoutError::NotSingleColumn(_) => (Code::AggVarNotSingleColumn, SourceKind::Qq, None),
        LayoutError::NotInQq(col) => {
            let span = find_word_span(call.spec.unwrap_or(""), col, 0);
            (Code::AggColumnNotInQq, SourceKind::Spec, span)
        }
        LayoutError::AllAggregated => (Code::NoGroupingColumns, SourceKind::Qq, None),
        LayoutError::Duplicate(c) => {
            let lifetime = [START_SNAPSHOT_COL, END_SNAPSHOT_COL];
            if call.kind == MechanismKind::Intervals
                && lifetime.iter().any(|l| l.eq_ignore_ascii_case(c))
            {
                out.push(Diagnostic::new(
                    Code::IntervalsReservedColumn,
                    format!(
                        "Qq output column {c} collides with the lifetime column \
                         CollateDataIntoIntervals adds to T"
                    ),
                    SourceKind::Qq,
                    find_word_span(call.qq, c, 0),
                ));
            }
            (Code::DuplicateOutputColumn, SourceKind::Qq, None)
        }
    };
    let error = SqlError::from(e);
    out.push(Diagnostic::new(code, error.message(), source, span).preempting(&error));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::TableSchema;

    fn envs() -> (SchemaEnv, SchemaEnv) {
        let mut snap = SchemaEnv::new();
        snap.add_table(TableSchema::new(
            "loggedin",
            vec![
                ("l_userid".into(), ColumnType::Text),
                ("l_time".into(), ColumnType::Text),
            ],
        ));
        (snap, SchemaEnv::aux_default())
    }

    fn run(call: MechanismCall<'_>) -> Vec<Diagnostic> {
        let (snap, aux) = envs();
        let mut diags = Vec::new();
        check_mechanism(&call, &snap, &aux, &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_collate() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT DISTINCT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn qs_contract() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id, name FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::QsNotSingleColumn]);
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT l_userid FROM LoggedIn",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::QsUnknownTable]);
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT name FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::QsNonIntegerColumn]);
    }

    #[test]
    fn result_table_collision() {
        let (snap, mut aux) = envs();
        aux.add_table(TableSchema::new("t", vec![]));
        let mut diags = Vec::new();
        check_mechanism(
            &MechanismCall {
                kind: MechanismKind::Collate,
                qs: "SELECT snap_id FROM SnapIds",
                qq: "SELECT l_userid FROM LoggedIn",
                table: "t",
                spec: None,
            },
            &snap,
            &aux,
            &mut diags,
        );
        assert_eq!(codes(&diags), vec![Code::ResultTableExists]);
        assert!(diags[0].message.contains("result table t already exists"));
    }

    #[test]
    fn agg_var_contract() {
        let diags = run(MechanismCall {
            kind: MechanismKind::AggVar,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, l_time FROM LoggedIn",
            table: "t",
            spec: Some("count"),
        });
        assert_eq!(codes(&diags), vec![Code::AggVarNotSingleColumn]);
        let diags = run(MechanismCall {
            kind: MechanismKind::AggVar,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT COUNT(*) FROM LoggedIn",
            table: "t",
            spec: Some("median"),
        });
        assert_eq!(codes(&diags), vec![Code::BadAggFunc]);
        // SUM over a text column: executable but suspicious.
        let diags = run(MechanismCall {
            kind: MechanismKind::AggVar,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: Some("sum"),
        });
        assert_eq!(codes(&diags), vec![Code::AggTypeMismatch]);
    }

    #[test]
    fn agg_table_contract() {
        let diags = run(MechanismCall {
            kind: MechanismKind::AggTable,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, COUNT(*) AS cn FROM LoggedIn GROUP BY l_userid",
            table: "t",
            spec: Some("(missing,max)"),
        });
        assert_eq!(codes(&diags), vec![Code::AggColumnNotInQq]);
        let diags = run(MechanismCall {
            kind: MechanismKind::AggTable,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT COUNT(*) AS cn FROM LoggedIn",
            table: "t",
            spec: Some("(cn,max)"),
        });
        assert_eq!(codes(&diags), vec![Code::NoGroupingColumns]);
        let diags = run(MechanismCall {
            kind: MechanismKind::AggTable,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, COUNT(*) AS cn FROM LoggedIn GROUP BY l_userid",
            table: "t",
            spec: Some("max,cn"),
        });
        assert_eq!(codes(&diags), vec![Code::BadAggFunc]);
    }

    #[test]
    fn intervals_reserved_and_duplicates() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Intervals,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid AS start_snapshot FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert!(
            codes(&diags).contains(&Code::IntervalsReservedColumn),
            "{diags:?}"
        );
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::DuplicateOutputColumn]);
    }

    #[test]
    fn current_snapshot_in_qs() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds WHERE snap_id = current_snapshot()",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::CurrentSnapshotInQs]);
    }
}
