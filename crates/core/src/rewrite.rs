//! Qq rewriting: binding the per-snapshot query to the loop index.
//!
//! Paper §3: "as a first step, our 'loop body' UDF rewrites the Qq,
//! binding it to the value of 'loop index' snap_id. The rewriting
//! involves adding the 'AS OF snap_id' extension, and replacing every
//! occurrence of current_snapshot() function with the value of snap_id."
//!
//! The paper rewrites the SQL string; we rewrite the parsed AST, which is
//! semantically identical and immune to quoting pitfalls, and also
//! provide the string form for display and fidelity tests.

use rql_sqlengine::ast::{Expr, SelectItem, SelectStmt};
use rql_sqlengine::{parse_select, Result, SqlError, Value};

/// The function name the programmer writes in Qq.
pub const CURRENT_SNAPSHOT: &str = "current_snapshot";

/// Rewrite a parsed Qq for iteration `snap_id`: set `AS OF` and replace
/// `current_snapshot()` with the literal id.
pub fn rewrite_select(select: &SelectStmt, snap_id: u64) -> SelectStmt {
    let mut out = select.clone();
    out.as_of = Some(Expr::int(snap_id as i64));
    let subst = |e: &mut Expr| substitute_current_snapshot(e, snap_id);
    for item in &mut out.items {
        if let SelectItem::Expr { expr, alias } = item {
            // Keep the derived output name when a bare current_snapshot()
            // projection turns into a literal.
            if alias.is_none() {
                if let Expr::Function { name, .. } = expr {
                    if name == CURRENT_SNAPSHOT {
                        *alias = Some(CURRENT_SNAPSHOT.to_owned());
                    }
                }
            }
            subst(expr);
        }
    }
    if let Some(w) = &mut out.where_clause {
        subst(w);
    }
    for j in &mut out.joins {
        subst(&mut j.on);
    }
    for g in &mut out.group_by {
        subst(g);
    }
    if let Some(h) = &mut out.having {
        subst(h);
    }
    for (e, _) in &mut out.order_by {
        subst(e);
    }
    out
}

/// Parse and rewrite a Qq string.
pub fn rewrite_sql(qq: &str, snap_id: u64) -> Result<SelectStmt> {
    let select = parse_select(qq)?;
    if select.as_of.is_some() {
        return Err(SqlError::Invalid(
            "Qq must not contain AS OF; RQL binds the snapshot per iteration".into(),
        ));
    }
    Ok(rewrite_select(&select, snap_id))
}

/// Replace `current_snapshot()` calls inside an expression tree.
fn substitute_current_snapshot(expr: &mut Expr, snap_id: u64) {
    match expr {
        Expr::Function { name, args, .. } => {
            if name == CURRENT_SNAPSHOT {
                *expr = Expr::Literal(Value::Integer(snap_id as i64));
            } else {
                for a in args {
                    substitute_current_snapshot(a, snap_id);
                }
            }
        }
        Expr::Unary { expr, .. } => substitute_current_snapshot(expr, snap_id),
        Expr::Binary { lhs, rhs, .. } => {
            substitute_current_snapshot(lhs, snap_id);
            substitute_current_snapshot(rhs, snap_id);
        }
        Expr::IsNull { expr, .. } => substitute_current_snapshot(expr, snap_id),
        Expr::InList { expr, list, .. } => {
            substitute_current_snapshot(expr, snap_id);
            for e in list {
                substitute_current_snapshot(e, snap_id);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            substitute_current_snapshot(expr, snap_id);
            substitute_current_snapshot(lo, snap_id);
            substitute_current_snapshot(hi, snap_id);
        }
        Expr::Like { expr, pattern, .. } => {
            substitute_current_snapshot(expr, snap_id);
            substitute_current_snapshot(pattern, snap_id);
        }
        Expr::Case {
            operand,
            arms,
            else_branch,
        } => {
            if let Some(o) = operand {
                substitute_current_snapshot(o, snap_id);
            }
            for (w, t) in arms {
                substitute_current_snapshot(w, snap_id);
                substitute_current_snapshot(t, snap_id);
            }
            if let Some(e) = else_branch {
                substitute_current_snapshot(e, snap_id);
            }
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Star => {}
    }
}

/// Does the expression call `current_snapshot()` anywhere?
///
/// The delta iteration driver uses this to decide which clauses vary
/// between iterations: a `current_snapshot()` in the WHERE clause means
/// the scan filter differs per snapshot, which the per-page row cache of
/// a delta scan cannot represent.
pub fn uses_current_snapshot(expr: &Expr) -> bool {
    matches!(expr, Expr::Function { name, .. } if name == CURRENT_SNAPSHOT)
        || expr.children().any(uses_current_snapshot)
}

/// Render the rewritten query back to SQL text (the paper's presentation
/// of the rewrite: `SELECT AS OF Si DISTINCT Si FROM LoggedIn …`).
pub fn render_select(select: &SelectStmt) -> String {
    let mut s = String::from("SELECT ");
    if let Some(as_of) = &select.as_of {
        s.push_str(&format!("AS OF {} ", render_expr(as_of)));
    }
    if select.distinct {
        s.push_str("DISTINCT ");
    }
    let items: Vec<String> = select
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => "*".to_owned(),
            SelectItem::TableWildcard(t) => format!("{t}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => format!("{} AS {a}", render_expr(expr)),
                None => render_expr(expr),
            },
        })
        .collect();
    s.push_str(&items.join(", "));
    if !select.from.is_empty() {
        s.push_str(" FROM ");
        let tables: Vec<String> = select
            .from
            .iter()
            .map(|t| match &t.alias {
                Some(a) => format!("{} {a}", t.name),
                None => t.name.clone(),
            })
            .collect();
        s.push_str(&tables.join(", "));
    }
    for j in &select.joins {
        s.push_str(&format!(" JOIN {} ON {}", j.table.name, render_expr(&j.on)));
    }
    if let Some(w) = &select.where_clause {
        s.push_str(&format!(" WHERE {}", render_expr(w)));
    }
    if !select.group_by.is_empty() {
        let gs: Vec<String> = select.group_by.iter().map(render_expr).collect();
        s.push_str(&format!(" GROUP BY {}", gs.join(", ")));
    }
    if let Some(h) = &select.having {
        s.push_str(&format!(" HAVING {}", render_expr(h)));
    }
    if !select.order_by.is_empty() {
        let os: Vec<String> = select
            .order_by
            .iter()
            .map(|(e, desc)| format!("{}{}", render_expr(e), if *desc { " DESC" } else { "" }))
            .collect();
        s.push_str(&format!(" ORDER BY {}", os.join(", ")));
    }
    if let Some(l) = &select.limit {
        s.push_str(&format!(" LIMIT {}", render_expr(l)));
    }
    s
}

fn render_expr(e: &Expr) -> String {
    use rql_sqlengine::ast::{BinOp, UnaryOp};
    match e {
        Expr::Literal(Value::Text(t)) => format!("'{}'", t.replace('\'', "''")),
        Expr::Literal(v) => v.to_string(),
        Expr::Column { table, name } => match table {
            Some(t) => format!("{t}.{name}"),
            None => name.clone(),
        },
        Expr::Star => "*".to_owned(),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => format!("-{}", render_expr(expr)),
            UnaryOp::Not => format!("NOT {}", render_expr(expr)),
        },
        Expr::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Concat => "||",
                BinOp::Eq => "=",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
            };
            format!("({} {sym} {})", render_expr(lhs), render_expr(rhs))
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            let rendered: Vec<String> = args.iter().map(render_expr).collect();
            format!(
                "{name}({}{})",
                if *distinct { "DISTINCT " } else { "" },
                rendered.join(", ")
            )
        }
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(render_expr).collect();
            format!(
                "{} {}IN ({})",
                render_expr(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => format!(
            "{} {}BETWEEN {} AND {}",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_expr(lo),
            render_expr(hi)
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE {}",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_expr(pattern)
        ),
        Expr::Case {
            operand,
            arms,
            else_branch,
        } => {
            let mut s = String::from("CASE");
            if let Some(o) = operand {
                s.push_str(&format!(" {}", render_expr(o)));
            }
            for (w, t) in arms {
                s.push_str(&format!(" WHEN {} THEN {}", render_expr(w), render_expr(t)));
            }
            if let Some(e) = else_branch {
                s.push_str(&format!(" ELSE {}", render_expr(e)));
            }
            s.push_str(" END");
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rewrite_example() {
        // §3: the programmer's Qq …
        let qq = "SELECT DISTINCT current_snapshot() FROM LoggedIn \
                  WHERE l_userid = 'UserB'";
        // … becomes, for iteration Si = 7:
        let rewritten = rewrite_sql(qq, 7).unwrap();
        assert_eq!(rewritten.as_of, Some(Expr::int(7)));
        let text = render_select(&rewritten);
        // The literal keeps the programmer-visible column name.
        assert_eq!(
            text,
            "SELECT AS OF 7 DISTINCT 7 AS current_snapshot FROM LoggedIn \
             WHERE (l_userid = 'UserB')"
        );
    }

    #[test]
    fn substitutes_in_all_clauses() {
        let qq = "SELECT current_snapshot(), abs(current_snapshot()) FROM t \
                  WHERE a = current_snapshot() \
                  GROUP BY current_snapshot() HAVING COUNT(*) > current_snapshot() \
                  ORDER BY current_snapshot()";
        let r = rewrite_sql(qq, 3).unwrap();
        let text = render_select(&r);
        // No *call* remains (the alias keeps the name, the calls do not).
        assert!(!text.contains("current_snapshot("), "{text}");
        // Every occurrence became the literal.
        assert_eq!(text.matches('3').count(), 7); // AS OF 3 + six occurrences
    }

    #[test]
    fn as_of_in_qq_rejected() {
        assert!(rewrite_sql("SELECT AS OF 1 * FROM t", 2).is_err());
    }

    #[test]
    fn rewrite_preserves_other_functions() {
        let r = rewrite_sql("SELECT COUNT(*), upper(name) FROM t", 5).unwrap();
        let text = render_select(&r);
        assert!(text.contains("count(*)"));
        assert!(text.contains("upper(name)"));
    }

    #[test]
    fn render_round_trips_through_parser() {
        let cases = [
            "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av FROM orders \
             GROUP BY o_custkey",
            "SELECT a FROM t WHERE x IN (1, 2) AND y BETWEEN 1 AND 2 OR z IS NOT NULL \
             ORDER BY a DESC LIMIT 3",
            "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, part \
             WHERE p_partkey = l_partkey AND p_type = 'STANDARD POLISHED TIN'",
        ];
        for sql in cases {
            let first = parse_select(sql).unwrap();
            let text = render_select(&first);
            let second = parse_select(&text).unwrap();
            let text2 = render_select(&second);
            assert_eq!(text, text2, "unstable rendering for {sql}");
        }
    }
}
