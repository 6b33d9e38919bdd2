//! Name/type resolution of a `SELECT` against a [`SchemaEnv`].
//!
//! The rules are the engine's own: [`rql_sqlengine::exec::bind`] runs the
//! executor's scope, wildcard, naming, ORDER BY and compile rules clause by
//! clause. This module turns its errors into diagnostics with spans, and
//! reads the output columns' affinities off the compiled items — the
//! column names and affinities a mechanism's result table T would get —
//! so the mechanism-spec checks can run without executing anything.

use rql_sqlengine::ast::{Expr, SelectItem, SelectStmt};
use rql_sqlengine::cexpr::{AggFunc, AggSpec, BindError, BindKind, CExpr};
use rql_sqlengine::exec::{self, Bound};
use rql_sqlengine::lexer::Token;
use rql_sqlengine::{tokenize_spanned, ColumnType, Span, Value};

use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::analyze::env::SchemaEnv;
use crate::rewrite::CURRENT_SNAPSHOT;

/// One inferred output column.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputCol {
    /// Name the engine would report (alias or derived).
    pub name: String,
    /// Inferred affinity (`Any` when unknown).
    pub ty: ColumnType,
}

/// What resolution learned about a query.
#[derive(Debug, Clone, Default)]
pub struct QueryFacts {
    /// Inferred output columns, `None` when FROM names an unknown table or
    /// a wildcard does not expand.
    pub output: Option<Vec<OutputCol>>,
    /// Tables that resolved against no schema (candidates for the
    /// snapshot-catalog widening retry).
    pub unknown_tables: Vec<String>,
}

/// Find the span of the `idx`-th case-insensitive occurrence of `word`
/// as a token in `src` (0-based; pass 0 for the first): an identifier, or
/// any token spelled `word` (`*`, a number).
pub fn find_word_span(src: &str, word: &str, idx: usize) -> Option<Span> {
    let toks = tokenize_spanned(src).ok()?;
    toks.iter()
        .filter(|t| match &t.token {
            Token::Word(w) => w.eq_ignore_ascii_case(word),
            _ => src.get(t.span.start..t.span.end) == Some(word),
        })
        .nth(idx)
        .map(|t| t.span)
}

/// Bind `select` with the engine's binder against `env`, with the scope's
/// column affinities by offset (the binder scopes tables in written
/// order).
pub(crate) fn bind(select: &SelectStmt, env: &SchemaEnv) -> (Bound, Vec<ColumnType>) {
    let bound = exec::bind(select, env.tables(), env.udfs());
    let schemas = select.tables().filter_map(|t| env.table(&t.name));
    let types = schemas
        .flat_map(|s| s.columns.iter().map(|c| c.ty))
        .collect();
    (bound, types)
}

/// Resolve `select` against `env`, appending diagnostics. `src` is the
/// SQL text the spans index into; `source` labels it.
pub fn check_select(
    select: &SelectStmt,
    env: &SchemaEnv,
    src: &str,
    source: SourceKind,
    diags: &mut Vec<Diagnostic>,
) -> QueryFacts {
    let (bound, types) = bind(select, env);
    let mut facts = QueryFacts::default();
    for e in &bound.errors {
        match e.kind {
            BindKind::UnknownTable => facts.unknown_tables.push(e.name.clone()),
            // Where current_snapshot() may appear is the rewrite-safety
            // pass's to report.
            BindKind::UnknownFunction if e.name == CURRENT_SNAPSHOT => continue,
            _ => {}
        }
        diags.push(diagnostic(e, select, src, source));
    }
    check_grouping(select, src, source, diags);
    facts.output = bound.output.map(|output| {
        (output.into_iter())
            .map(|(name, item)| {
                let ty = affinity(&item, &types, &bound.aggs);
                OutputCol { name, ty }
            })
            .collect()
    });
    facts
}

/// One binding error as a diagnostic: its code, message and span, and the
/// runtime error variant it preempts.
fn diagnostic(e: &BindError, select: &SelectStmt, src: &str, source: SourceKind) -> Diagnostic {
    let name = &e.name;
    let (code, message) = match e.kind {
        BindKind::UnknownTable => (Code::UnknownTable, format!("unknown table {name}")),
        BindKind::UnknownColumn => (Code::UnknownColumn, format!("unknown column {name}")),
        BindKind::UnknownQualifier => (
            Code::UnknownQualifier,
            format!("unknown table or alias {name}"),
        ),
        BindKind::AmbiguousColumn => (Code::AmbiguousColumn, format!("ambiguous column {name}")),
        BindKind::UnknownFunction => (Code::UnknownFunction, format!("unknown function {name}")),
        BindKind::NestedAggregate => (
            Code::NestedAggregate,
            format!("aggregate {name}() nested inside another aggregate"),
        ),
        BindKind::Arity => (Code::FunctionArity, e.message.clone()),
        BindKind::MisplacedAggregate | BindKind::Invalid => {
            (Code::InvalidClause, e.message.clone())
        }
    };
    // A column its qualifier lacks is named `t.col`; point at `col`.
    let word = name.rsplit('.').next().unwrap_or(name);
    let table = select
        .tables()
        .find(|t| e.kind == BindKind::UnknownTable && t.name == *name);
    let span = table.and_then(|t| t.span);
    let span = span.or_else(|| find_word_span(src, word, 0));
    Diagnostic::new(code, message, source, span).preempting(&e.clone().into())
}

/// The affinity an output column gets, read off its compiled item (`Any`
/// when it depends on the values).
fn affinity(item: &CExpr, types: &[ColumnType], aggs: &[AggSpec]) -> ColumnType {
    match item {
        CExpr::Col(i) => types.get(*i).copied().unwrap_or(ColumnType::Any),
        CExpr::Const(Value::Integer(_)) => ColumnType::Integer,
        CExpr::Const(Value::Real(_)) => ColumnType::Real,
        CExpr::Const(Value::Text(_)) => ColumnType::Text,
        CExpr::Agg(slot) => match aggs.get(*slot) {
            Some(AggSpec {
                func: AggFunc::Count,
                ..
            }) => ColumnType::Integer,
            Some(AggSpec {
                func: AggFunc::Avg | AggFunc::Total,
                ..
            }) => ColumnType::Real,
            Some(AggSpec { arg: Some(arg), .. }) => affinity(arg, types, aggs),
            _ => ColumnType::Any,
        },
        CExpr::Func { name, .. } => match name.as_str() {
            "length" => ColumnType::Integer,
            "round" => ColumnType::Real,
            "lower" | "upper" | "substr" | "typeof" => ColumnType::Text,
            _ => ColumnType::Any,
        },
        CExpr::IsNull(..) | CExpr::InList(..) | CExpr::Between(..) | CExpr::Like(..) => {
            ColumnType::Integer
        }
        _ => ColumnType::Any,
    }
}

/// GROUP BY hygiene: a projected bare column that is neither aggregated
/// nor listed in GROUP BY has an arbitrary representative per group.
fn check_grouping(select: &SelectStmt, src: &str, source: SourceKind, diags: &mut Vec<Diagnostic>) {
    let has_aggregate = select.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    });
    if select.group_by.is_empty() && !has_aggregate {
        return;
    }
    let grouped: Vec<&Expr> = select.group_by.iter().collect();
    for item in &select.items {
        let SelectItem::Expr { expr, .. } = item else {
            continue;
        };
        if expr.contains_aggregate() {
            continue;
        }
        let Expr::Column { name, .. } = expr else {
            continue;
        };
        let in_group = grouped.iter().any(|g| match g {
            Expr::Column { name: gname, .. } => gname.eq_ignore_ascii_case(name),
            _ => false,
        });
        if !in_group {
            diags.push(Diagnostic::new(
                Code::UngroupedColumn,
                format!("column {name} is neither aggregated nor in GROUP BY"),
                source,
                find_word_span(src, name, 0),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::{parse_select, TableSchema};

    fn env() -> SchemaEnv {
        let mut env = SchemaEnv::new();
        env.add_table(TableSchema::new(
            "loggedin",
            vec![
                ("l_userid".into(), ColumnType::Text),
                ("l_time".into(), ColumnType::Text),
                ("l_country".into(), ColumnType::Text),
            ],
        ));
        env.add_table(TableSchema::new(
            "orders",
            vec![
                ("o_orderkey".into(), ColumnType::Integer),
                ("o_totalprice".into(), ColumnType::Real),
                ("l_time".into(), ColumnType::Text),
            ],
        ));
        env
    }

    fn run(sql: &str) -> (QueryFacts, Vec<Diagnostic>) {
        let select = parse_select(sql).unwrap();
        let mut diags = Vec::new();
        let facts = check_select(&select, &env(), sql, SourceKind::Qq, &mut diags);
        (facts, diags)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_resolves() {
        let (facts, diags) = run("SELECT l_userid, upper(l_country) AS c FROM LoggedIn");
        assert!(diags.is_empty(), "{diags:?}");
        let out = facts.output.unwrap();
        assert_eq!(out[0].name, "l_userid");
        assert_eq!(out[0].ty, ColumnType::Text);
        assert_eq!(out[1].name, "c");
    }

    #[test]
    fn unknown_table_and_column() {
        let (facts, diags) = run("SELECT nope FROM LoggedIn");
        assert_eq!(codes(&diags), vec![Code::UnknownColumn]);
        assert!(facts.unknown_tables.is_empty());
        let (facts, diags) = run("SELECT x FROM Missing");
        // Unknown table, but no cascading unknown-column noise.
        assert_eq!(codes(&diags), vec![Code::UnknownTable]);
        assert_eq!(facts.unknown_tables, vec!["Missing".to_string()]);
        assert!(facts.output.is_none() || !facts.output.as_ref().unwrap().is_empty());
    }

    #[test]
    fn ambiguous_and_qualified() {
        let (_, diags) = run("SELECT l_time FROM LoggedIn, orders");
        assert_eq!(codes(&diags), vec![Code::AmbiguousColumn]);
        let (_, diags) = run("SELECT o.l_time FROM LoggedIn, orders o");
        assert!(diags.is_empty(), "{diags:?}");
        let (_, diags) = run("SELECT z.l_time FROM LoggedIn");
        assert_eq!(codes(&diags), vec![Code::UnknownQualifier]);
    }

    #[test]
    fn order_by_aliases_and_positions() {
        // The engine resolves ORDER BY against the projection first:
        // output aliases and 1-based positions are legal there.
        let (_, diags) = run("SELECT l_userid AS u FROM LoggedIn ORDER BY u");
        assert!(diags.is_empty(), "{diags:?}");
        let (_, diags) = run("SELECT l_userid, l_country FROM LoggedIn ORDER BY 2");
        assert!(diags.is_empty(), "{diags:?}");
        // A name that is neither an alias nor a scope column still errors.
        let (_, diags) = run("SELECT l_userid AS u FROM LoggedIn ORDER BY bogus");
        assert_eq!(codes(&diags), vec![Code::UnknownColumn]);
    }

    #[test]
    fn function_checks() {
        let (_, diags) = run("SELECT median(o_totalprice) FROM orders");
        assert_eq!(codes(&diags), vec![Code::UnknownFunction]);
        let (_, diags) = run("SELECT substr(l_userid) FROM LoggedIn");
        assert_eq!(codes(&diags), vec![Code::FunctionArity]);
        let (_, diags) = run("SELECT SUM(MAX(o_totalprice)) FROM orders");
        assert_eq!(codes(&diags), vec![Code::NestedAggregate]);
        // count(*) is not a column reference.
        let (_, diags) = run("SELECT COUNT(*) FROM orders");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn grouping_warning() {
        let (_, diags) = run("SELECT l_userid, COUNT(*) FROM LoggedIn GROUP BY l_country");
        assert_eq!(codes(&diags), vec![Code::UngroupedColumn]);
        let (_, diags) = run("SELECT l_userid, COUNT(*) FROM LoggedIn GROUP BY l_userid");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wildcard_output() {
        let (facts, _) = run("SELECT * FROM LoggedIn");
        let out = facts.output.unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].name, "l_country");
        let (facts, _) = run("SELECT o.* FROM orders o");
        assert_eq!(facts.output.unwrap().len(), 3);
        // Wildcard over an unknown table: output not inferable.
        let (facts, _) = run("SELECT * FROM Missing");
        assert!(facts.output.is_none());
    }

    #[test]
    fn spans_point_at_names() {
        let sql = "SELECT bogus FROM LoggedIn";
        let (_, diags) = run(sql);
        let span = diags[0].span.unwrap();
        assert_eq!(&sql[span.start..span.end], "bogus");
    }
}
