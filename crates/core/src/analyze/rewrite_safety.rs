//! Rewrite-safety proofs for the `AS OF` injection and
//! `current_snapshot()` substitution of paper §3.
//!
//! The runtime rewrite is AST-based ([`crate::rewrite`]), which makes it
//! immune to the string-splicing pitfalls of the paper's SQLite
//! implementation — but the *programmer* can still write things the
//! rewrite will not (and must not) touch: an explicit `AS OF` in Qq that
//! would fight the injected one, a `current_snapshot()` spelled inside a
//! string literal where substitution cannot reach it, or a
//! `current_snapshot()` call in a statement that never enters the loop
//! and therefore has no snapshot to bind to. This pass proves the
//! rewrite sites are all where the rewriter will find them.

use rql_sqlengine::ast::{Expr, SelectItem, SelectStmt};
use rql_sqlengine::lexer::Token;
use rql_sqlengine::{tokenize_spanned, Span};

use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::rewrite::{uses_current_snapshot, CURRENT_SNAPSHOT};

/// Every expression a SELECT contains, in clause order.
fn select_exprs(select: &SelectStmt) -> Vec<&Expr> {
    let mut out = Vec::new();
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            out.push(expr);
        }
    }
    out.extend(select.joins.iter().map(|j| &j.on));
    out.extend(select.where_clause.iter());
    out.extend(select.group_by.iter());
    out.extend(select.having.iter());
    out.extend(select.order_by.iter().map(|(e, _)| e));
    out.extend(select.limit.iter());
    out
}

/// Does any clause of the SELECT call `current_snapshot()`?
pub fn select_uses_current_snapshot(select: &SelectStmt) -> bool {
    select.as_of.as_ref().is_some_and(uses_current_snapshot)
        || select_exprs(select).into_iter().any(uses_current_snapshot)
}

/// Check a Qq — the one statement the rewriter *will* process.
pub fn check_qq(select: &SelectStmt, src: &str, source: SourceKind, diags: &mut Vec<Diagnostic>) {
    if select.as_of.is_some() {
        diags.push(Diagnostic::new(
            Code::AsOfInQq,
            "Qq must not contain AS OF; RQL binds the snapshot per iteration",
            source,
            find_as_of_span(src),
        ));
    }
    for e in select_exprs(select) {
        check_call_arity(e, src, source, diags);
    }
    check_string_literals(src, source, diags);
}

/// Check a statement *outside* the loop body (Qs is handled separately
/// with its own code): `current_snapshot()` there never gets substituted
/// and errors at runtime.
pub fn check_outside_loop(
    select: &SelectStmt,
    src: &str,
    source: SourceKind,
    diags: &mut Vec<Diagnostic>,
) {
    if select_uses_current_snapshot(select) {
        diags.push(Diagnostic::new(
            Code::CurrentSnapshotOutsideLoop,
            "current_snapshot() outside an RQL loop body; only Qq is \
             rewritten per snapshot",
            source,
            super::resolve::find_word_span(src, CURRENT_SNAPSHOT, 0),
        ));
    }
    for e in select_exprs(select) {
        check_call_arity(e, src, source, diags);
    }
}

/// RQL102: `current_snapshot` takes no arguments; the substitution
/// replaces the whole call, so arguments would be silently discarded.
fn check_call_arity(expr: &Expr, src: &str, source: SourceKind, diags: &mut Vec<Diagnostic>) {
    if let Expr::Function { name, args, .. } = expr {
        if name == CURRENT_SNAPSHOT && !args.is_empty() {
            diags.push(Diagnostic::new(
                Code::CurrentSnapshotArity,
                format!("current_snapshot() takes no arguments, got {}", args.len()),
                source,
                super::resolve::find_word_span(src, CURRENT_SNAPSHOT, 0),
            ));
        }
    }
    for child in expr.children() {
        check_call_arity(child, src, source, diags);
    }
}

/// RQL105/106: substitution sites spelled inside string literals. The
/// AST rewrite never looks into literals (that immunity is the point),
/// so `'… current_snapshot() …'` stays verbatim — almost certainly not
/// what the programmer meant. Flagged on the literal's span.
fn check_string_literals(src: &str, source: SourceKind, diags: &mut Vec<Diagnostic>) {
    let Ok(tokens) = tokenize_spanned(src) else {
        return;
    };
    for t in tokens {
        let Token::Str(s) = &t.token else { continue };
        let lower = s.to_ascii_lowercase();
        if lower.contains(CURRENT_SNAPSHOT) {
            diags.push(Diagnostic::new(
                Code::CurrentSnapshotInStringLiteral,
                "string literal contains 'current_snapshot'; substitution \
                 never rewrites literal text",
                source,
                Some(t.span),
            ));
        }
        if lower.contains("as of") {
            diags.push(Diagnostic::new(
                Code::AsOfInStringLiteral,
                "string literal contains 'AS OF'; the rewrite injects AS OF \
                 into the AST, not into literal text",
                source,
                Some(t.span),
            ));
        }
    }
}

/// Span of the `AS OF` keywords (the `OF` word anchors it).
fn find_as_of_span(src: &str) -> Option<Span> {
    let tokens = tokenize_spanned(src).ok()?;
    tokens
        .windows(2)
        .find_map(|w| match (&w[0].token, &w[1].token) {
            (Token::Word(a), Token::Word(b))
                if a.eq_ignore_ascii_case("as") && b.eq_ignore_ascii_case("of") =>
            {
                Some(Span::new(w[0].span.start, w[1].span.end))
            }
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::parse_select;

    fn qq_diags(sql: &str) -> Vec<Diagnostic> {
        let select = parse_select(sql).unwrap();
        let mut diags = Vec::new();
        check_qq(&select, sql, SourceKind::Qq, &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn as_of_in_qq() {
        let sql = "SELECT AS OF 3 l_userid FROM LoggedIn";
        let diags = qq_diags(sql);
        assert_eq!(codes(&diags), vec![Code::AsOfInQq]);
        let span = diags[0].span.unwrap();
        assert_eq!(&sql[span.start..span.end], "AS OF");
    }

    #[test]
    fn current_snapshot_arity() {
        let diags = qq_diags("SELECT current_snapshot(1) FROM t");
        assert_eq!(codes(&diags), vec![Code::CurrentSnapshotArity]);
        let diags = qq_diags("SELECT current_snapshot() FROM t");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn string_literal_traps() {
        let diags = qq_diags("SELECT 'current_snapshot()' FROM t");
        assert_eq!(codes(&diags), vec![Code::CurrentSnapshotInStringLiteral]);
        let diags = qq_diags("SELECT x FROM t WHERE y = 'as of 3'");
        assert_eq!(codes(&diags), vec![Code::AsOfInStringLiteral]);
        // An innocent literal stays quiet.
        let diags = qq_diags("SELECT 'hello' FROM t");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn outside_loop() {
        let sql = "SELECT current_snapshot() FROM SnapIds";
        let select = parse_select(sql).unwrap();
        let mut diags = Vec::new();
        check_outside_loop(&select, sql, SourceKind::Program, &mut diags);
        assert_eq!(codes(&diags), vec![Code::CurrentSnapshotOutsideLoop]);
    }

    #[test]
    fn detects_in_every_clause() {
        for sql in [
            "SELECT current_snapshot() FROM t",
            "SELECT a FROM t WHERE a = current_snapshot()",
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > current_snapshot()",
            "SELECT a FROM t ORDER BY current_snapshot()",
        ] {
            let select = parse_select(sql).unwrap();
            assert!(select_uses_current_snapshot(&select), "{sql}");
        }
        let select = parse_select("SELECT a FROM t").unwrap();
        assert!(!select_uses_current_snapshot(&select));
    }
}
