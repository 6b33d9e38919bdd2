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
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let lname = name.to_ascii_lowercase();
        let ltable = table.map(str::to_ascii_lowercase);
        let mut found = None;
        let mut off = 0usize;
        for (alias, cols) in &self.bindings {
            if ltable.as_deref().is_none_or(|t| t == alias) {
                if let Some(i) = cols.iter().position(|c| *c == lname) {
                    if found.is_some() {
                        return Err(SqlError::Invalid(format!("ambiguous column {name}")));
                    }
                    found = Some(off + i);
                }
            }
            off += cols.len();
        }
        found.ok_or_else(|| match table {
            Some(t) => SqlError::Unknown(format!("column {t}.{name}")),
            None => SqlError::Unknown(format!("column {name}")),
        })
    }

    /// Offsets of one binding's columns (for `t.*`).
    pub fn binding_columns(&self, alias: &str) -> Result<(usize, &[String])> {
        let lalias = alias.to_ascii_lowercase();
        let mut off = 0usize;
        for (a, cols) in &self.bindings {
            if *a == lalias {
                return Ok((off, cols));
            }
            off += cols.len();
        }
        Err(SqlError::Unknown(format!("table {alias}")))
    }

    /// All column names in row order (for `*`), qualified only when
    /// duplicated across bindings.
    pub fn all_column_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.width());
        for (_, cols) in &self.bindings {
            names.extend(cols.iter().cloned());
        }
        names
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
#[derive(Clone)]
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
        udf: Option<Arc<UdfFn>>,
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

impl std::fmt::Debug for CExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CExpr::Const(v) => write!(f, "Const({v:?})"),
            CExpr::Col(i) => write!(f, "Col({i})"),
            CExpr::Unary(op, e) => write!(f, "Unary({op:?}, {e:?})"),
            CExpr::Binary(op, a, b) => write!(f, "Binary({op:?}, {a:?}, {b:?})"),
            CExpr::Func { name, args, .. } => write!(f, "Func({name}, {args:?})"),
            CExpr::Agg(i) => write!(f, "Agg({i})"),
            CExpr::IsNull(e, n) => write!(f, "IsNull({e:?}, negated={n})"),
            CExpr::InList(e, l, n) => write!(f, "InList({e:?}, {l:?}, negated={n})"),
            CExpr::Between(e, lo, hi, n) => {
                write!(f, "Between({e:?}, {lo:?}, {hi:?}, negated={n})")
            }
            CExpr::Like(e, p, n) => write!(f, "Like({e:?}, {p:?}, negated={n})"),
            CExpr::Case {
                operand,
                arms,
                else_branch,
            } => write!(f, "Case({operand:?}, {arms:?}, else={else_branch:?})"),
        }
    }
}

impl CExpr {
    /// Whether the expression references any column (false ⇒ constant
    /// foldable per query).
    pub fn references_columns(&self) -> bool {
        match self {
            CExpr::Col(_) => true,
            CExpr::Const(_) | CExpr::Agg(_) => false,
            CExpr::Unary(_, e) | CExpr::IsNull(e, _) => e.references_columns(),
            CExpr::Binary(_, a, b) | CExpr::Like(a, b, _) => {
                a.references_columns() || b.references_columns()
            }
            CExpr::Func { args, .. } => args.iter().any(CExpr::references_columns),
            CExpr::InList(e, list, _) => {
                e.references_columns() || list.iter().any(CExpr::references_columns)
            }
            CExpr::Between(e, lo, hi, _) => {
                e.references_columns() || lo.references_columns() || hi.references_columns()
            }
            CExpr::Case {
                operand,
                arms,
                else_branch,
            } => {
                operand.as_deref().is_some_and(CExpr::references_columns)
                    || arms
                        .iter()
                        .any(|(w, t)| w.references_columns() || t.references_columns())
                    || else_branch
                        .as_deref()
                        .is_some_and(CExpr::references_columns)
            }
        }
    }

    /// Whether the expression calls a user-defined function anywhere.
    /// UDFs may close over external state (the RQL loop-body pattern), so
    /// rows filtered through one cannot be cached across scans.
    pub fn calls_udf(&self) -> bool {
        match self {
            CExpr::Const(_) | CExpr::Col(_) | CExpr::Agg(_) => false,
            CExpr::Unary(_, e) | CExpr::IsNull(e, _) => e.calls_udf(),
            CExpr::Binary(_, a, b) | CExpr::Like(a, b, _) => a.calls_udf() || b.calls_udf(),
            CExpr::Func { udf, args, .. } => udf.is_some() || args.iter().any(CExpr::calls_udf),
            CExpr::InList(e, list, _) => e.calls_udf() || list.iter().any(CExpr::calls_udf),
            CExpr::Between(e, lo, hi, _) => e.calls_udf() || lo.calls_udf() || hi.calls_udf(),
            CExpr::Case {
                operand,
                arms,
                else_branch,
            } => {
                operand.as_deref().is_some_and(CExpr::calls_udf)
                    || arms.iter().any(|(w, t)| w.calls_udf() || t.calls_udf())
                    || else_branch.as_deref().is_some_and(CExpr::calls_udf)
            }
        }
    }

    /// Offsets of all referenced columns.
    pub fn column_offsets(&self, out: &mut Vec<usize>) {
        match self {
            CExpr::Col(i) => out.push(*i),
            CExpr::Const(_) | CExpr::Agg(_) => {}
            CExpr::Unary(_, e) | CExpr::IsNull(e, _) => e.column_offsets(out),
            CExpr::Binary(_, a, b) | CExpr::Like(a, b, _) => {
                a.column_offsets(out);
                b.column_offsets(out);
            }
            CExpr::Func { args, .. } => args.iter().for_each(|a| a.column_offsets(out)),
            CExpr::InList(e, list, _) => {
                e.column_offsets(out);
                list.iter().for_each(|a| a.column_offsets(out));
            }
            CExpr::Between(e, lo, hi, _) => {
                e.column_offsets(out);
                lo.column_offsets(out);
                hi.column_offsets(out);
            }
            CExpr::Case {
                operand,
                arms,
                else_branch,
            } => {
                if let Some(o) = operand {
                    o.column_offsets(out);
                }
                for (w, t) in arms {
                    w.column_offsets(out);
                    t.column_offsets(out);
                }
                if let Some(e) = else_branch {
                    e.column_offsets(out);
                }
            }
        }
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
) -> Result<CExpr> {
    compile_inner(expr, scope, udfs, &mut aggs)
}

fn compile_inner(
    expr: &Expr,
    scope: &Scope,
    udfs: &UdfRegistry,
    aggs: &mut Option<&mut Vec<AggSpec>>,
) -> Result<CExpr> {
    Ok(match expr {
        Expr::Literal(v) => CExpr::Const(v.clone()),
        Expr::Column { table, name } => CExpr::Col(scope.resolve(table.as_deref(), name)?),
        Expr::Star => {
            return Err(SqlError::Invalid(
                "'*' is only valid in COUNT(*) or as a projection".into(),
            ))
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
                .collect::<Result<_>>()?,
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
                .collect::<Result<_>>()?,
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
            if is_aggregate_name(name) {
                let Some(aggs) = aggs.as_deref_mut() else {
                    return Err(SqlError::Invalid(format!(
                        "aggregate {name}() not allowed here"
                    )));
                };
                let func = AggFunc::from_name(name).expect("known aggregate");
                let arg = match args.as_slice() {
                    [Expr::Star] => {
                        if func != AggFunc::Count {
                            return Err(SqlError::Invalid(format!("{name}(*) is not valid")));
                        }
                        None
                    }
                    [e] => Some(compile(e, scope, udfs, None)?),
                    [] => return Err(SqlError::Invalid(format!("{name}() needs an argument"))),
                    _ => return Err(SqlError::Invalid(format!("{name}() takes one argument"))),
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
                    .collect::<Result<_>>()?;
                let udf = if is_builtin_scalar(name) {
                    None
                } else {
                    Some(udfs.require(name)?)
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

/// The scalar functions the engine evaluates itself (lower-case). Any
/// other non-aggregate function name resolves to a registered UDF.
pub const BUILTIN_SCALARS: &[&str] = &[
    "abs", "length", "lower", "upper", "substr", "coalesce", "ifnull", "nullif", "typeof", "round",
];

/// Whether `name` (lower-case) is one of [`BUILTIN_SCALARS`].
pub fn is_builtin_scalar(name: &str) -> bool {
    BUILTIN_SCALARS.contains(&name)
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
                Some(f) => f(&vals)?,
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

fn eval_builtin(name: &str, args: &[Value]) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Invalid(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    Ok(match name {
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Integer(i) => Value::Integer(i.wrapping_abs()),
                Value::Real(r) => Value::Real(r.abs()),
                _ => Value::Null,
            }
        }
        "length" => {
            arity(1)?;
            match &args[0] {
                Value::Text(t) => Value::Integer(t.chars().count() as i64),
                Value::Null => Value::Null,
                v => Value::Integer(v.to_string().len() as i64),
            }
        }
        "lower" => {
            arity(1)?;
            match &args[0] {
                Value::Text(t) => Value::text(t.to_lowercase()),
                v => v.clone(),
            }
        }
        "upper" => {
            arity(1)?;
            match &args[0] {
                Value::Text(t) => Value::text(t.to_uppercase()),
                v => v.clone(),
            }
        }
        "substr" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(SqlError::Invalid(
                    "substr() expects 2 or 3 arguments".into(),
                ));
            }
            let Value::Text(t) = &args[0] else {
                return Ok(Value::Null);
            };
            let start = args[1].as_i64().unwrap_or(1).max(1) as usize - 1;
            let chars: Vec<char> = t.chars().collect();
            let len = match args.get(2) {
                Some(v) => v.as_i64().unwrap_or(0).max(0) as usize,
                None => chars.len().saturating_sub(start),
            };
            Value::text(chars.iter().skip(start).take(len).collect::<String>())
        }
        "coalesce" => args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        "ifnull" => {
            arity(2)?;
            if args[0].is_null() {
                args[1].clone()
            } else {
                args[0].clone()
            }
        }
        "nullif" => {
            arity(2)?;
            if args[0].sql_cmp(&args[1]) == Some(std::cmp::Ordering::Equal) {
                Value::Null
            } else {
                args[0].clone()
            }
        }
        "typeof" => {
            arity(1)?;
            Value::text(match &args[0] {
                Value::Null => "null",
                Value::Integer(_) => "integer",
                Value::Real(_) => "real",
                Value::Text(_) => "text",
            })
        }
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::Invalid("round() expects 1 or 2 arguments".into()));
            }
            let Some(x) = args[0].as_f64() else {
                return Ok(Value::Null);
            };
            let digits = args.get(1).and_then(Value::as_i64).unwrap_or(0);
            let factor = 10f64.powi(digits as i32);
            Value::Real((x * factor).round() / factor)
        }
        other => return Err(SqlError::Unknown(format!("function {other}"))),
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
