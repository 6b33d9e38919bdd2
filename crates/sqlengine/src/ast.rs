//! Abstract syntax tree for the supported SQL subset.
//!
//! The dialect is the slice of SQLite the paper's programs use, plus the
//! Retro extension `SELECT AS OF <sid> …` (paper §2, Figure 3) and enough
//! general SQL (joins, grouping, ordering, expression calculus, UDF calls)
//! to express every query in Table 1 and the worked examples.

use crate::lexer::Span;
use crate::schema::ColumnType;
use crate::value::Value;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `SELECT …`
    Select(SelectStmt),
    /// `INSERT INTO t [(cols)] VALUES … | SELECT …`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Rows or subquery.
        source: InsertSource,
    },
    /// `UPDATE t SET c = e, … [WHERE e]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE e]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        where_clause: Option<Expr>,
    },
    /// `CREATE [TEMP] TABLE t (col type, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, ColumnType)>,
        /// TEMP flag (informational; temp-ness is a database property
        /// here, matching RQL's separate non-snapshotable database).
        temp: bool,
        /// IF NOT EXISTS flag.
        if_not_exists: bool,
    },
    /// `CREATE [TEMP] TABLE t AS SELECT …`
    CreateTableAs {
        /// Table name.
        name: String,
        /// Source query.
        select: SelectStmt,
        /// TEMP flag.
        temp: bool,
    },
    /// `CREATE INDEX i ON t (cols)`
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Key columns.
        columns: Vec<String>,
    },
    /// `DROP TABLE [IF EXISTS] t`
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS flag.
        if_exists: bool,
    },
    /// `BEGIN`
    Begin,
    /// `COMMIT [WITH SNAPSHOT]` — the Retro snapshot declaration.
    Commit {
        /// Whether the commit declares a snapshot.
        with_snapshot: bool,
    },
    /// `ROLLBACK`
    Rollback,
}

/// Source of inserted rows.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// Literal `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT … SELECT`.
    Select(Box<SelectStmt>),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// Retro extension: `SELECT AS OF <expr> …` — run over this snapshot.
    pub as_of: Option<Expr>,
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Tables in `FROM` (comma-separated ones become cross joins
    /// constrained by WHERE, as in Table 1's Qq_cpu).
    pub from: Vec<TableRef>,
    /// Explicit `JOIN … ON` clauses.
    pub joins: Vec<Join>,
    /// `WHERE`.
    pub where_clause: Option<Expr>,
    /// `GROUP BY`.
    pub group_by: Vec<Expr>,
    /// `HAVING`.
    pub having: Option<Expr>,
    /// `ORDER BY` (expression, descending?).
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT`.
    pub limit: Option<Expr>,
}

impl SelectStmt {
    /// FROM's tables, then each JOIN's, as written.
    pub fn tables(&self) -> impl Iterator<Item = &TableRef> + '_ {
        self.from.iter().chain(self.joins.iter().map(|j| &j.table))
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    TableWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table reference with optional alias.
#[derive(Debug, Clone)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Alias (defaults to the table name).
    pub alias: Option<String>,
    /// Source location of the table name, when parsed from text.
    pub span: Option<Span>,
}

/// Spans are locations, not meaning: two references to the same table are
/// equal even when they come from different places in the source.
impl PartialEq for TableRef {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.alias == other.alias
    }
}

impl TableRef {
    /// The name this table binds in scope.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An explicit join.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Joined table.
    pub table: TableRef,
    /// `ON` condition.
    pub on: Expr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `||`
    Concat,
    /// `=` / `==`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `NOT`
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified.
    Column {
        /// Table/alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call: aggregate, scalar built-in, or UDF.
    Function {
        /// Function name (lower-case).
        name: String,
        /// Arguments; `COUNT(*)` has a single [`Expr::Star`] argument.
        args: Vec<Expr>,
        /// `DISTINCT` inside the call.
        distinct: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (…)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern.
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Optional operand (`CASE x WHEN 1 …`); `None` for searched CASE.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` arms in order.
        arms: Vec<(Expr, Expr)>,
        /// `ELSE` branch (NULL when absent).
        else_branch: Option<Box<Expr>>,
    },
    /// `*` inside `COUNT(*)`.
    Star,
}

impl Expr {
    /// Integer literal helper.
    pub fn int(i: i64) -> Expr {
        Expr::Literal(Value::Integer(i))
    }

    /// Whether this expression (recursively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        self.has_aggregate(&|_| true)
    }

    /// Whether it contains a `DISTINCT` aggregate call.
    pub fn contains_distinct_aggregate(&self) -> bool {
        self.has_aggregate(&|distinct| distinct)
    }

    /// Whether it contains an aggregate call whose `DISTINCT` flag
    /// `wanted` accepts (an aggregate's arguments are not searched).
    fn has_aggregate(&self, wanted: &dyn Fn(bool) -> bool) -> bool {
        match self {
            Expr::Function { name, distinct, .. } if is_aggregate_name(name) => wanted(*distinct),
            _ => self.children().any(|e| e.has_aggregate(wanted)),
        }
    }

    /// The direct sub-expressions, in source order: the one traversal a
    /// walk that visits every child goes through.
    pub fn children(&self) -> impl Iterator<Item = &Expr> + '_ {
        type Parts<'a> = ([Option<&'a Box<Expr>>; 3], &'a [Expr], &'a [(Expr, Expr)]);
        let (boxed, list, arms): Parts<'_> = match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
                ([Some(expr), None, None], &[], &[])
            }
            Expr::Binary { lhs: a, rhs: b, .. }
            | Expr::Like {
                expr: a,
                pattern: b,
                ..
            } => ([Some(a), Some(b), None], &[], &[]),
            Expr::Between { expr, lo, hi, .. } => ([Some(expr), Some(lo), Some(hi)], &[], &[]),
            Expr::Function { args, .. } => ([None; 3], args, &[]),
            Expr::InList { expr, list, .. } => ([Some(expr), None, None], list, &[]),
            Expr::Case {
                operand,
                arms,
                else_branch,
            } => ([operand.as_ref(), None, else_branch.as_ref()], &[], arms),
            Expr::Literal(_) | Expr::Column { .. } | Expr::Star => ([None; 3], &[], &[]),
        };
        // A CASE's ELSE (the last slot) follows its arms.
        let [first, second, last] = boxed.map(|b| b.map(|b| &**b));
        let arms = arms.iter().flat_map(|(w, t)| [w, t]);
        (first.into_iter().chain(second).chain(list).chain(arms)).chain(last)
    }
}

/// Whether `name` (lower-case) is one of the built-in aggregates.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg" | "total")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "count".into(),
            args: vec![Expr::Star],
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::int(1)),
            rhs: Box::new(agg),
        };
        assert!(nested.contains_aggregate());
        assert!(!Expr::Column {
            table: None,
            name: "x".into()
        }
        .contains_aggregate());
        let scalar = Expr::Function {
            name: "abs".into(),
            args: vec![Expr::int(1)],
            distinct: false,
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef {
            name: "orders".into(),
            alias: Some("o".into()),
            span: None,
        };
        assert_eq!(t.binding(), "o");
        let t = TableRef {
            name: "orders".into(),
            alias: None,
            span: None,
        };
        assert_eq!(t.binding(), "orders");
    }
}
