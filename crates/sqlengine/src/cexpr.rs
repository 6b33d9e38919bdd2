//! Compiled expressions: name-resolved, ready to evaluate per row.
//!
//! The planner compiles AST [`Expr`]s against a [`Scope`] (the columns of
//! the joined row), replacing column references with row offsets and
//! aggregate calls with accumulator slots.

use std::borrow::Cow;
use std::sync::Arc;

use crate::ast::{is_aggregate_name, BinOp, Expr, UnaryOp};
use crate::error::{Result, SqlError};
use crate::udf::{UdfFn, UdfRegistry};
use crate::value::Value;

/// Column scope of a row stream: one entry per table binding, each with
/// its column names. The joined row is the concatenation, in order.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    bindings: Vec<(String, Vec<String>)>,
}

impl Scope {
    /// Empty scope (queries without FROM).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add a table binding with its column names; returns the binding's
    /// starting offset in the joined row.
    pub fn push(&mut self, alias: &str, columns: Vec<String>) -> usize {
        let off = self.width();
        self.bindings.push((alias.to_ascii_lowercase(), columns));
        off
    }

    /// Total number of columns in the joined row.
    pub fn width(&self) -> usize {
        self.bindings.iter().map(|(_, c)| c.len()).sum()
    }

    /// Resolve a possibly qualified column to a row offset.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> BindResult<usize> {
        let lname = name.to_ascii_lowercase();
        let ltable = table.map(str::to_ascii_lowercase);
        let mut found = None;
        let mut off = 0usize;
        for (alias, cols) in &self.bindings {
            if ltable.as_deref().is_none_or(|t| t == alias) {
                if let Some(i) = cols.iter().position(|c| *c == lname) {
                    if found.is_some() {
                        let message = format!("ambiguous column {name}");
                        return Err(BindError::new(BindKind::AmbiguousColumn, name, message));
                    }
                    found = Some(off + i);
                }
            }
            off += cols.len();
        }
        found.ok_or_else(|| {
            let column = table.map_or(name.to_owned(), |t| format!("{t}.{name}"));
            let message = format!("column {column}");
            match table {
                Some(t) if self.binding_columns(t).is_err() => {
                    BindError::new(BindKind::UnknownQualifier, t, message)
                }
                _ => BindError::new(BindKind::UnknownColumn, column, message),
            }
        })
    }

    /// Offsets of one binding's columns (for `t.*`).
    pub fn binding_columns(&self, alias: &str) -> BindResult<(usize, &[String])> {
        let lalias = alias.to_ascii_lowercase();
        let mut off = 0usize;
        for (a, cols) in &self.bindings {
            if *a == lalias {
                return Ok((off, cols));
            }
            off += cols.len();
        }
        let message = format!("table {alias}");
        Err(BindError::new(BindKind::UnknownQualifier, alias, message))
    }

    /// Which binding (if exactly one) an expression's columns come from;
    /// used by the planner for filter pushdown.
    pub fn binding_index_of_offset(&self, offset: usize) -> usize {
        let mut off = 0usize;
        for (i, (_, cols)) in self.bindings.iter().enumerate() {
            if offset < off + cols.len() {
                return i;
            }
            off += cols.len();
        }
        usize::MAX
    }
}

/// Which binding rule an expression broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindKind {
    /// A FROM table the catalog lacks.
    UnknownTable,
    /// A column no binding in scope has.
    UnknownColumn,
    /// A `t.col` or `t.*` qualifier that names no FROM binding.
    UnknownQualifier,
    /// A column name more than one binding in scope matches.
    AmbiguousColumn,
    /// A function that is neither a builtin, an aggregate nor a UDF.
    UnknownFunction,
    /// A builtin or aggregate called with the wrong number of arguments.
    Arity,
    /// An aggregate call inside another aggregate's argument.
    NestedAggregate,
    /// An aggregate call in a clause that takes none.
    MisplacedAggregate,
    /// Anything else the compiler rejects: `*` outside `COUNT(*)` and the
    /// projection, an ORDER BY position out of range, a non-literal LIMIT.
    Invalid,
}

/// Why an expression or clause did not bind: the rule, the offending name
/// and the executor's message.
#[derive(Debug, Clone)]
pub struct BindError {
    /// The rule broken.
    pub kind: BindKind,
    /// The offending name (`t.col` for a column its qualifier lacks).
    pub name: String,
    /// The executor's message.
    pub message: String,
}

impl BindError {
    /// A binding failure.
    pub(crate) fn new(kind: BindKind, name: impl Into<String>, message: String) -> BindError {
        let name = name.into();
        BindError {
            kind,
            name,
            message,
        }
    }
}

/// The executor's error for a binding failure: a name the catalog or the
/// UDF registry lacks is `Unknown`, any other broken rule `Invalid`.
impl From<BindError> for SqlError {
    fn from(e: BindError) -> SqlError {
        match e.kind {
            BindKind::UnknownTable
            | BindKind::UnknownColumn
            | BindKind::UnknownQualifier
            | BindKind::UnknownFunction => SqlError::Unknown(e.message),
            _ => SqlError::Invalid(e.message),
        }
    }
}

/// Result of a binding step.
pub type BindResult<T> = std::result::Result<T, BindError>;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(x)` / `COUNT(*)`.
    Count,
    /// `SUM(x)` (NULL on empty input).
    Sum,
    /// `TOTAL(x)` (0.0 on empty input, SQLite extension).
    Total,
    /// `MIN(x)`.
    Min,
    /// `MAX(x)`.
    Max,
    /// `AVG(x)`.
    Avg,
}

impl AggFunc {
    /// Parse an aggregate name (already known to be an aggregate).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "total" => AggFunc::Total,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// One aggregate occurrence in a query.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Which aggregate.
    pub func: AggFunc,
    /// Argument (`None` for `COUNT(*)`).
    pub arg: Option<CExpr>,
    /// `DISTINCT` inside the call.
    pub distinct: bool,
}

/// A compiled expression.
#[derive(Clone, Debug)]
pub enum CExpr {
    /// Constant.
    Const(Value),
    /// Column at a joined-row offset.
    Col(usize),
    /// Unary op.
    Unary(UnaryOp, Box<CExpr>),
    /// Binary op.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Scalar function (built-in or UDF).
    Func {
        /// Lower-case name (for built-ins and error messages).
        name: String,
        /// Compiled arguments.
        args: Vec<CExpr>,
        /// Resolved UDF, when not a built-in.
        udf: Option<Udf>,
    },
    /// Aggregate accumulator slot.
    Agg(usize),
    /// `IS [NOT] NULL`.
    IsNull(Box<CExpr>, bool),
    /// `[NOT] IN (…)`.
    InList(Box<CExpr>, Vec<CExpr>, bool),
    /// `[NOT] BETWEEN`.
    Between(Box<CExpr>, Box<CExpr>, Box<CExpr>, bool),
    /// `[NOT] LIKE`.
    Like(Box<CExpr>, Box<CExpr>, bool),
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Optional operand.
        operand: Option<Box<CExpr>>,
        /// `(WHEN, THEN)` arms.
        arms: Vec<(CExpr, CExpr)>,
        /// `ELSE` (NULL when absent).
        else_branch: Option<Box<CExpr>>,
    },
}

/// A resolved UDF; its body is opaque, so it prints as a placeholder.
#[derive(Clone)]
pub struct Udf(pub(crate) Arc<UdfFn>);

impl std::fmt::Debug for Udf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<udf>")
    }
}

impl CExpr {
    /// Whether the expression references any column (false ⇒ constant
    /// foldable per query).
    pub fn references_columns(&self) -> bool {
        matches!(self, CExpr::Col(_)) || self.children().any(CExpr::references_columns)
    }

    /// Whether the expression calls a user-defined function anywhere.
    /// UDFs may close over external state (the RQL loop-body pattern), so
    /// rows filtered through one cannot be cached across scans.
    pub fn calls_udf(&self) -> bool {
        matches!(self, CExpr::Func { udf: Some(_), .. }) || self.children().any(CExpr::calls_udf)
    }

    /// Offsets of all referenced columns.
    pub fn column_offsets(&self, out: &mut Vec<usize>) {
        if let CExpr::Col(i) = self {
            out.push(*i);
        }
        self.children().for_each(|c| c.column_offsets(out));
    }

    /// The direct sub-expressions, in order (an aggregate slot has none:
    /// its argument lives in its [`AggSpec`]).
    pub fn children(&self) -> impl Iterator<Item = &CExpr> + '_ {
        type Parts<'a> = (
            [Option<&'a Box<CExpr>>; 3],
            &'a [CExpr],
            &'a [(CExpr, CExpr)],
        );
        let (boxed, list, arms): Parts<'_> = match self {
            CExpr::Unary(_, e) | CExpr::IsNull(e, _) => ([Some(e), None, None], &[], &[]),
            CExpr::Binary(_, a, b) | CExpr::Like(a, b, _) => ([Some(a), Some(b), None], &[], &[]),
            CExpr::Between(e, lo, hi, _) => ([Some(e), Some(lo), Some(hi)], &[], &[]),
            CExpr::Func { args, .. } => ([None; 3], args, &[]),
            CExpr::InList(e, list, _) => ([Some(e), None, None], list, &[]),
            CExpr::Case {
                operand,
                arms,
                else_branch,
            } => ([operand.as_ref(), None, else_branch.as_ref()], &[], arms),
            CExpr::Const(_) | CExpr::Col(_) | CExpr::Agg(_) => ([None; 3], &[], &[]),
        };
        // A CASE's ELSE (the last slot) follows its arms.
        let [first, second, last] = boxed.map(|b| b.map(|b| &**b));
        let arms = arms.iter().flat_map(|(w, t)| [w, t]);
        (first.into_iter().chain(second).chain(list).chain(arms)).chain(last)
    }
}

/// Compile `expr` against `scope`.
///
/// When `aggs` is `Some`, aggregate calls are allowed and allocate slots;
/// when `None`, they are rejected (e.g. inside WHERE).
pub fn compile(
    expr: &Expr,
    scope: &Scope,
    udfs: &UdfRegistry,
    mut aggs: Option<&mut Vec<AggSpec>>,
) -> BindResult<CExpr> {
    compile_inner(expr, scope, udfs, &mut aggs)
}

fn compile_inner(
    expr: &Expr,
    scope: &Scope,
    udfs: &UdfRegistry,
    aggs: &mut Option<&mut Vec<AggSpec>>,
) -> BindResult<CExpr> {
    Ok(match expr {
        Expr::Literal(v) => CExpr::Const(v.clone()),
        Expr::Column { table, name } => CExpr::Col(scope.resolve(table.as_deref(), name)?),
        Expr::Star => {
            let message = "'*' is only valid in COUNT(*) or as a projection".into();
            return Err(BindError::new(BindKind::Invalid, "*", message));
        }
        Expr::Unary { op, expr } => {
            CExpr::Unary(*op, Box::new(compile_inner(expr, scope, udfs, aggs)?))
        }
        Expr::Binary { op, lhs, rhs } => CExpr::Binary(
            *op,
            Box::new(compile_inner(lhs, scope, udfs, aggs)?),
            Box::new(compile_inner(rhs, scope, udfs, aggs)?),
        ),
        Expr::IsNull { expr, negated } => {
            CExpr::IsNull(Box::new(compile_inner(expr, scope, udfs, aggs)?), *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => CExpr::InList(
            Box::new(compile_inner(expr, scope, udfs, aggs)?),
            list.iter()
                .map(|e| compile_inner(e, scope, udfs, aggs))
                .collect::<BindResult<_>>()?,
            *negated,
        ),
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => CExpr::Between(
            Box::new(compile_inner(expr, scope, udfs, aggs)?),
            Box::new(compile_inner(lo, scope, udfs, aggs)?),
            Box::new(compile_inner(hi, scope, udfs, aggs)?),
            *negated,
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => CExpr::Like(
            Box::new(compile_inner(expr, scope, udfs, aggs)?),
            Box::new(compile_inner(pattern, scope, udfs, aggs)?),
            *negated,
        ),
        Expr::Case {
            operand,
            arms,
            else_branch,
        } => CExpr::Case {
            operand: operand
                .as_deref()
                .map(|o| compile_inner(o, scope, udfs, aggs).map(Box::new))
                .transpose()?,
            arms: arms
                .iter()
                .map(|(w, t)| {
                    Ok((
                        compile_inner(w, scope, udfs, aggs)?,
                        compile_inner(t, scope, udfs, aggs)?,
                    ))
                })
                .collect::<BindResult<_>>()?,
            else_branch: else_branch
                .as_deref()
                .map(|e| compile_inner(e, scope, udfs, aggs).map(Box::new))
                .transpose()?,
        },
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            check_arity(name, args.len())?;
            if let Some(func) = AggFunc::from_name(name) {
                let Some(aggs) = aggs.as_deref_mut() else {
                    let message = format!("aggregate {name}() not allowed here");
                    return Err(BindError::new(BindKind::MisplacedAggregate, name, message));
                };
                let arg = match args.first() {
                    Some(Expr::Star) if func == AggFunc::Count => None,
                    Some(Expr::Star) => {
                        let message = format!("{name}(*) is not valid");
                        return Err(BindError::new(BindKind::Invalid, name, message));
                    }
                    arg => arg
                        .map(|e| compile(e, scope, udfs, None).map_err(nested))
                        .transpose()?,
                };
                let slot = aggs.len();
                aggs.push(AggSpec {
                    func,
                    arg,
                    distinct: *distinct,
                });
                CExpr::Agg(slot)
            } else {
                let compiled: Vec<CExpr> = args
                    .iter()
                    .map(|e| compile_inner(e, scope, udfs, aggs))
                    .collect::<BindResult<_>>()?;
                let udf = match is_builtin_scalar(name) {
                    true => None,
                    false => Some(Udf(udfs.get(name).ok_or_else(|| {
                        let message = format!("function {name}");
                        BindError::new(BindKind::UnknownFunction, name, message)
                    })?)),
                };
                CExpr::Func {
                    name: name.clone(),
                    args: compiled,
                    udf,
                }
            }
        }
    })
}

/// An aggregate misplaced inside an aggregate's argument is nested.
fn nested(mut e: BindError) -> BindError {
    if e.kind == BindKind::MisplacedAggregate {
        e.kind = BindKind::NestedAggregate;
    }
    e
}

/// The scalar functions the engine evaluates itself (lower-case), with the
/// fewest and most arguments a call takes. Any other non-aggregate
/// function name resolves to a registered UDF.
#[rustfmt::skip]
pub const BUILTIN_SCALARS: &[(&str, usize, usize)] = &[
    ("abs", 1, 1), ("length", 1, 1), ("lower", 1, 1), ("upper", 1, 1), ("typeof", 1, 1),
    ("substr", 2, 3), ("round", 1, 2), ("coalesce", 1, usize::MAX), ("ifnull", 2, 2),
    ("nullif", 2, 2),
];

/// Whether `name` (lower-case) is one of [`BUILTIN_SCALARS`].
pub fn is_builtin_scalar(name: &str) -> bool {
    BUILTIN_SCALARS.iter().any(|(b, ..)| *b == name)
}

/// The one arity rule, checked when a call compiles (as SQLite's prepare
/// does): a builtin scalar takes its [`BUILTIN_SCALARS`] range, an
/// aggregate exactly one argument, a UDF whatever it is given.
fn check_arity(name: &str, got: usize) -> BindResult<()> {
    let range = match BUILTIN_SCALARS.iter().find(|(b, ..)| *b == name) {
        Some(&(_, lo, hi)) => lo..=hi,
        None if is_aggregate_name(name) => 1..=1,
        None => return Ok(()),
    };
    if range.contains(&got) {
        return Ok(());
    }
    let expected = match (*range.start(), *range.end()) {
        (lo, hi) if lo == hi => lo.to_string(),
        (lo, usize::MAX) => format!("at least {lo}"),
        (lo, hi) => format!("{lo} to {hi}"),
    };
    let message = format!("{name}() expects {expected} argument(s), got {got}");
    Err(BindError::new(BindKind::Arity, name, message))
}

/// Evaluate a compiled expression against a row and (optionally) finished
/// aggregate results.
pub fn eval(cexpr: &CExpr, row: &[Value], aggs: &[Value]) -> Result<Value> {
    Ok(match cexpr {
        CExpr::Const(_) | CExpr::Col(_) | CExpr::Agg(_) => operand(cexpr, row, aggs)?.into_owned(),
        CExpr::Unary(op, e) => {
            let v = eval(e, row, aggs)?;
            match op {
                UnaryOp::Neg => v.neg(),
                UnaryOp::Not => {
                    if v.is_null() {
                        Value::Null
                    } else {
                        Value::Integer(i64::from(!v.is_truthy()))
                    }
                }
            }
        }
        CExpr::Binary(op, lhs, rhs) => {
            // AND/OR get SQL three-valued short-circuit treatment.
            match op {
                BinOp::And => {
                    let l = eval(lhs, row, aggs)?;
                    if !l.is_null() && !l.is_truthy() {
                        return Ok(Value::Integer(0));
                    }
                    let r = eval(rhs, row, aggs)?;
                    if !r.is_null() && !r.is_truthy() {
                        return Ok(Value::Integer(0));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Integer(1));
                }
                BinOp::Or => {
                    let l = eval(lhs, row, aggs)?;
                    if !l.is_null() && l.is_truthy() {
                        return Ok(Value::Integer(1));
                    }
                    let r = eval(rhs, row, aggs)?;
                    if !r.is_null() && r.is_truthy() {
                        return Ok(Value::Integer(1));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Integer(0));
                }
                _ => {}
            }
            let l = operand(lhs, row, aggs)?;
            let r = operand(rhs, row, aggs)?;
            match op {
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                BinOp::Div => l.div(&r),
                BinOp::Rem => l.rem(&r),
                BinOp::Concat => l.concat(&r),
                BinOp::Eq => cmp_to_value(&l, &r, |o| o == std::cmp::Ordering::Equal),
                BinOp::Ne => cmp_to_value(&l, &r, |o| o != std::cmp::Ordering::Equal),
                BinOp::Lt => cmp_to_value(&l, &r, |o| o == std::cmp::Ordering::Less),
                BinOp::Le => cmp_to_value(&l, &r, |o| o != std::cmp::Ordering::Greater),
                BinOp::Gt => cmp_to_value(&l, &r, |o| o == std::cmp::Ordering::Greater),
                BinOp::Ge => cmp_to_value(&l, &r, |o| o != std::cmp::Ordering::Less),
                BinOp::And | BinOp::Or => unreachable!(),
            }
        }
        CExpr::IsNull(e, negated) => {
            let v = operand(e, row, aggs)?;
            Value::Integer(i64::from(v.is_null() != *negated))
        }
        CExpr::InList(e, list, negated) => {
            let v = operand(e, row, aggs)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = operand(item, row, aggs)?;
                match v.sql_cmp(&iv) {
                    Some(std::cmp::Ordering::Equal) => {
                        return Ok(Value::Integer(i64::from(!*negated)))
                    }
                    None => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Value::Null
            } else {
                Value::Integer(i64::from(*negated))
            }
        }
        CExpr::Between(e, lo, hi, negated) => {
            let v = operand(e, row, aggs)?;
            let l = operand(lo, row, aggs)?;
            let h = operand(hi, row, aggs)?;
            match (v.sql_cmp(&l), v.sql_cmp(&h)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Value::Integer(i64::from(inside != *negated))
                }
                _ => Value::Null,
            }
        }
        CExpr::Like(e, pat, negated) => {
            let v = operand(e, row, aggs)?;
            let p = operand(pat, row, aggs)?;
            match v.like(&p) {
                Value::Integer(i) => Value::Integer(i64::from((i != 0) != *negated)),
                other => other, // NULL
            }
        }
        CExpr::Case {
            operand,
            arms,
            else_branch,
        } => {
            let op_val = operand.as_deref().map(|o| eval(o, row, aggs)).transpose()?;
            for (when, then) in arms {
                let hit = match &op_val {
                    // Simple CASE: operand = WHEN (NULL never matches).
                    Some(v) => {
                        let w = eval(when, row, aggs)?;
                        v.sql_cmp(&w) == Some(std::cmp::Ordering::Equal)
                    }
                    // Searched CASE: WHEN is a predicate.
                    None => eval(when, row, aggs)?.is_truthy(),
                };
                if hit {
                    return eval(then, row, aggs);
                }
            }
            match else_branch {
                Some(e) => eval(e, row, aggs)?,
                None => Value::Null,
            }
        }
        CExpr::Func { name, args, udf } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row, aggs)?);
            }
            match udf {
                Some(Udf(f)) => f(&vals)?,
                None => eval_builtin(name, &vals)?,
            }
        }
    })
}

/// A leaf operand borrowed from the expression, the row or the aggregate
/// results; anything else is evaluated. Operators that only read their
/// operands (comparisons, arithmetic, `IS NULL`, `IN`, `BETWEEN`, `LIKE`)
/// use this, so a `col = 'O'` test copies no text.
pub(crate) fn operand<'a>(
    cexpr: &'a CExpr,
    row: &'a [Value],
    aggs: &'a [Value],
) -> Result<Cow<'a, Value>> {
    Ok(Cow::Borrowed(match cexpr {
        CExpr::Const(v) => v,
        CExpr::Col(i) => row
            .get(*i)
            .ok_or_else(|| SqlError::Invalid(format!("row too short for column {i}")))?,
        CExpr::Agg(slot) => aggs
            .get(*slot)
            .ok_or_else(|| SqlError::Invalid("aggregate slot missing".into()))?,
        _ => return eval(cexpr, row, aggs).map(Cow::Owned),
    }))
}

fn cmp_to_value(l: &Value, r: &Value, pred: impl Fn(std::cmp::Ordering) -> bool) -> Value {
    match l.sql_cmp(r) {
        None => Value::Null,
        Some(o) => Value::Integer(i64::from(pred(o))),
    }
}

/// A builtin scalar over its evaluated arguments; [`compile`] checked the
/// argument count.
fn eval_builtin(name: &str, args: &[Value]) -> Result<Value> {
    Ok(match (name, args) {
        ("abs", [v]) => match v {
            Value::Integer(i) => Value::Integer(i.wrapping_abs()),
            Value::Real(r) => Value::Real(r.abs()),
            _ => Value::Null,
        },
        ("length", [v]) => match v {
            Value::Text(t) => Value::Integer(t.chars().count() as i64),
            Value::Null => Value::Null,
            v => Value::Integer(v.to_string().len() as i64),
        },
        ("lower", [v]) => match v {
            Value::Text(t) => Value::text(t.to_lowercase()),
            v => v.clone(),
        },
        ("upper", [v]) => match v {
            Value::Text(t) => Value::text(t.to_uppercase()),
            v => v.clone(),
        },
        ("substr", [v, start, len @ ..]) => {
            let Value::Text(t) = v else {
                return Ok(Value::Null);
            };
            let start = start.as_i64().unwrap_or(1).max(1) as usize - 1;
            let chars: Vec<char> = t.chars().collect();
            let len = match len.first() {
                Some(v) => v.as_i64().unwrap_or(0).max(0) as usize,
                None => chars.len().saturating_sub(start),
            };
            Value::text(chars.iter().skip(start).take(len).collect::<String>())
        }
        ("coalesce", _) => args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        ("ifnull", [a, b]) => {
            if a.is_null() {
                b.clone()
            } else {
                a.clone()
            }
        }
        ("nullif", [a, b]) => {
            if a.sql_cmp(b) == Some(std::cmp::Ordering::Equal) {
                Value::Null
            } else {
                a.clone()
            }
        }
        ("typeof", [v]) => Value::text(match v {
            Value::Null => "null",
            Value::Integer(_) => "integer",
            Value::Real(_) => "real",
            Value::Text(_) => "text",
        }),
        ("round", [x, digits @ ..]) => {
            let Some(x) = x.as_f64() else {
                return Ok(Value::Null);
            };
            let digits = digits.first().and_then(Value::as_i64).unwrap_or(0);
            let factor = 10f64.powi(digits as i32);
            Value::Real((x * factor).round() / factor)
        }
        _ => return Err(SqlError::Unknown(format!("function {name}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn scope() -> Scope {
        let mut s = Scope::empty();
        s.push("t", vec!["a".into(), "b".into()]);
        s.push("u", vec!["b".into(), "c".into()]);
        s
    }

    fn compile_where(sql: &str, scope: &Scope) -> CExpr {
        let sel = parse_select(sql).unwrap();
        compile(&sel.where_clause.unwrap(), scope, &UdfRegistry::new(), None).unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Integer(1),
            Value::Integer(2),
            Value::Integer(3),
            Value::text("x"),
        ]
    }

    #[test]
    fn scope_resolution() {
        let s = scope();
        assert_eq!(s.resolve(None, "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("t"), "b").unwrap(), 1);
        assert_eq!(s.resolve(Some("u"), "b").unwrap(), 2);
        assert_eq!(s.resolve(None, "c").unwrap(), 3);
        assert!(s.resolve(None, "b").is_err()); // ambiguous
        assert!(s.resolve(None, "zz").is_err());
        assert_eq!(s.width(), 4);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = scope();
        let e = compile_where("SELECT * FROM x WHERE a + t.b * 2 = 5", &s);
        assert_eq!(eval(&e, &row(), &[]).unwrap(), Value::Integer(1));
    }

    #[test]
    fn three_valued_and_or() {
        let s = scope();
        // NULL AND false = false; NULL AND true = NULL.
        let e = compile_where("SELECT * FROM x WHERE NULL AND 0", &s);
        assert_eq!(eval(&e, &row(), &[]).unwrap(), Value::Integer(0));
        let e = compile_where("SELECT * FROM x WHERE NULL AND 1", &s);
        assert!(eval(&e, &row(), &[]).unwrap().is_null());
        let e = compile_where("SELECT * FROM x WHERE NULL OR 1", &s);
        assert_eq!(eval(&e, &row(), &[]).unwrap(), Value::Integer(1));
    }

    #[test]
    fn in_list_and_between() {
        let s = scope();
        let e = compile_where("SELECT * FROM x WHERE a IN (3, 1)", &s);
        assert_eq!(eval(&e, &row(), &[]).unwrap(), Value::Integer(1));
        let e = compile_where("SELECT * FROM x WHERE a NOT IN (3, 9)", &s);
        assert_eq!(eval(&e, &row(), &[]).unwrap(), Value::Integer(1));
        let e = compile_where("SELECT * FROM x WHERE t.b BETWEEN 2 AND 3", &s);
        assert_eq!(eval(&e, &row(), &[]).unwrap(), Value::Integer(1));
    }

    #[test]
    fn builtins() {
        let reg = UdfRegistry::new();
        let s = Scope::empty();
        let sel = parse_select(
            "SELECT abs(-3), lower('AbC'), substr('hello', 2, 3), coalesce(NULL, 7), \
             typeof(1.5), round(2.567, 2), length('abcd'), nullif(1, 1)",
        )
        .unwrap();
        let mut out = Vec::new();
        for item in &sel.items {
            let crate::ast::SelectItem::Expr { expr, .. } = item else {
                panic!()
            };
            let c = compile(expr, &s, &reg, None).unwrap();
            out.push(eval(&c, &[], &[]).unwrap());
        }
        assert_eq!(out[0], Value::Integer(3));
        assert_eq!(out[1], Value::text("abc"));
        assert_eq!(out[2], Value::text("ell"));
        assert_eq!(out[3], Value::Integer(7));
        assert_eq!(out[4], Value::text("real"));
        assert_eq!(out[5], Value::Real(2.57));
        assert_eq!(out[6], Value::Integer(4));
        assert!(out[7].is_null());
    }

    #[test]
    fn aggregates_compile_to_slots() {
        let s = scope();
        let sel = parse_select("SELECT COUNT(*), SUM(a + 1) FROM t").unwrap();
        let mut aggs = Vec::new();
        for item in &sel.items {
            let crate::ast::SelectItem::Expr { expr, .. } = item else {
                panic!()
            };
            compile(expr, &s, &UdfRegistry::new(), Some(&mut aggs)).unwrap();
        }
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].func, AggFunc::Count);
        assert!(aggs[0].arg.is_none());
        assert_eq!(aggs[1].func, AggFunc::Sum);
        assert!(aggs[1].arg.is_some());
    }

    #[test]
    fn arity_is_checked_when_a_call_compiles() {
        let cases = [
            ("SELECT substr(a) FROM t", "substr"),
            ("SELECT coalesce() FROM t", "coalesce"),
            ("SELECT COUNT(a, b) FROM t", "count"),
            ("SELECT SUM() FROM t", "sum"),
        ];
        for (sql, name) in cases {
            let sel = parse_select(sql).unwrap();
            let crate::ast::SelectItem::Expr { expr, .. } = &sel.items[0] else {
                panic!()
            };
            let mut aggs = Vec::new();
            let err = compile(expr, &scope(), &UdfRegistry::new(), Some(&mut aggs)).unwrap_err();
            assert_eq!(
                (err.kind, err.name.as_str()),
                (BindKind::Arity, name),
                "{sql}"
            );
        }
    }

    #[test]
    fn aggregates_rejected_without_slot_sink() {
        let s = scope();
        let sel = parse_select("SELECT * FROM t WHERE COUNT(*) > 1").unwrap();
        assert!(compile(&sel.where_clause.unwrap(), &s, &UdfRegistry::new(), None).is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        let s = scope();
        let sel = parse_select("SELECT mystery(a) FROM t").unwrap();
        let crate::ast::SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        assert!(compile(expr, &s, &UdfRegistry::new(), None).is_err());
    }

    #[test]
    fn udf_resolution_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("current_snapshot", |_| Ok(Value::Integer(7)));
        let sel = parse_select("SELECT current_snapshot()").unwrap();
        let crate::ast::SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        let c = compile(expr, &Scope::empty(), &reg, None).unwrap();
        assert_eq!(eval(&c, &[], &[]).unwrap(), Value::Integer(7));
    }

    #[test]
    fn column_offsets_collect() {
        let s = scope();
        let e = compile_where("SELECT * FROM x WHERE a = 1 AND c = 2", &s);
        let mut offs = Vec::new();
        e.column_offsets(&mut offs);
        offs.sort();
        assert_eq!(offs, vec![0, 3]);
        assert!(e.references_columns());
        assert!(!CExpr::Const(Value::Null).references_columns());
    }
}
