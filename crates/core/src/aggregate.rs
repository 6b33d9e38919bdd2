//! Aggregate functions usable by the RQL aggregation mechanisms.
//!
//! Paper §2.3: "the aggregate function must be definable by an abelian
//! monoid (X, op, e) where X is the domain of values, op is an
//! associative and commutative binary operation and e is the identity
//! element. Most SQL aggregate functions e.g. min, max, count and sum,
//! satisfy the requirement but some, e.g. average, and aggregations over
//! distinct elements … do not. Because average is widely used in SQL, our
//! aggregation mechanisms implement a simple extension that supports
//! average as a special case."
//!
//! This module only names and parses them: [`AggOp`] is the subset of
//! SQL aggregates the mechanisms accept (TOTAL and DISTINCT forms are
//! not), and [`AggOp::func`] maps each to the SQL engine's aggregate,
//! whose accumulator ([`rql_sqlengine::AggAcc`]) is the one
//! implementation of the monoid and of AVG's `(sum, count)` special case.
//! How a result table stores that state is [`crate::mechanism`]'s
//! business.

use std::fmt;

use rql_sqlengine::{AggFunc, SqlError};

/// An RQL aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Minimum under the SQL total order.
    Min,
    /// Maximum.
    Max,
    /// Numeric sum.
    Sum,
    /// Count of (non-null) contributions.
    Count,
    /// Arithmetic mean — the paper's non-monoid special case, carried as
    /// a `(sum, count)` pair.
    Avg,
}

impl AggOp {
    /// Parse the programmer-facing name ("min", "MAX", …).
    ///
    /// Distinct aggregations are rejected with the paper's guidance:
    /// "Aggregations over distinct elements can use the Collate Data
    /// mechanism … and then use SQL to perform the needed aggregation."
    pub fn parse(name: &str) -> Result<AggOp, SqlError> {
        match name.to_ascii_lowercase().as_str() {
            "min" => Ok(AggOp::Min),
            "max" => Ok(AggOp::Max),
            "sum" => Ok(AggOp::Sum),
            "count" => Ok(AggOp::Count),
            "avg" | "average" => Ok(AggOp::Avg),
            other if other.contains("distinct") => Err(SqlError::Invalid(format!(
                "aggregate '{other}' is not an abelian monoid; collect the elements with \
                 CollateData and aggregate the result table with SQL instead"
            ))),
            other => Err(SqlError::Unknown(format!("aggregate function {other}"))),
        }
    }

    /// The SQL engine aggregate the mechanisms fold this op with.
    pub fn func(self) -> AggFunc {
        match self {
            AggOp::Min => AggFunc::Min,
            AggOp::Max => AggFunc::Max,
            AggOp::Sum => AggFunc::Sum,
            AggOp::Count => AggFunc::Count,
            AggOp::Avg => AggFunc::Avg,
        }
    }
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Sum => "sum",
            AggOp::Count => "count",
            AggOp::Avg => "avg",
        };
        write!(f, "{s}")
    }
}

/// Parse the `ListOfColFuncPairs` notation the paper uses:
/// `"(l_time,min)"` or `"(cn,max):(av,max)"` — also accepted in the
/// reversed `(MAX,cn)` order used in §5.3's prose.
pub fn parse_col_func_pairs(text: &str) -> Result<Vec<(String, AggOp)>, SqlError> {
    let mut out = Vec::new();
    for part in text.split(':') {
        let part = part.trim();
        let inner = part
            .strip_prefix('(')
            .and_then(|p| p.strip_suffix(')'))
            .ok_or_else(|| SqlError::Invalid(format!("bad column/function pair {part:?}")))?;
        let (a, b) = inner
            .split_once(',')
            .ok_or_else(|| SqlError::Invalid(format!("bad column/function pair {part:?}")))?;
        let (a, b) = (a.trim(), b.trim());
        // Accept both (column, func) and (func, column).
        let (col, op) = match AggOp::parse(b) {
            Ok(op) => (a, op),
            Err(_) => (b, AggOp::parse(a)?),
        };
        out.push((col.to_ascii_lowercase(), op));
    }
    if out.is_empty() {
        return Err(SqlError::Invalid("empty column/function list".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::{AggAcc, Value};

    #[test]
    fn parse_names() {
        assert_eq!(AggOp::parse("MIN").unwrap(), AggOp::Min);
        assert_eq!(AggOp::parse("sum").unwrap(), AggOp::Sum);
        assert_eq!(AggOp::parse("Avg").unwrap(), AggOp::Avg);
        assert!(AggOp::parse("median").is_err());
        // Distinct aggregations rejected with CollateData guidance.
        let err = AggOp::parse("count distinct").unwrap_err();
        assert!(err.to_string().contains("CollateData"));
    }

    /// Folds `values` through the engine accumulator `op` maps to.
    fn fold(op: AggOp, values: &[Value]) -> Value {
        let mut acc = AggAcc::new(op.func());
        for v in values {
            acc.update(Some(v));
        }
        acc.finish()
    }

    #[test]
    fn min_max_sum_fold() {
        // NULL is ignored.
        let values = [
            Value::Integer(5),
            Value::Integer(1),
            Value::Integer(9),
            Value::Null,
        ];
        for (op, expect) in [
            (AggOp::Min, Value::Integer(1)),
            (AggOp::Max, Value::Integer(9)),
            (AggOp::Sum, Value::Integer(15)),
        ] {
            assert_eq!(fold(op, &values), expect, "{op}");
        }
    }

    #[test]
    fn count_and_avg_fold() {
        let values = [5, 1, 9].map(Value::Integer);
        assert_eq!(fold(AggOp::Count, &values), Value::Integer(3));
        assert_eq!(
            fold(AggOp::Avg, &[2.0, 4.0].map(Value::Real)),
            Value::Real(3.0)
        );
        // A single contribution still averages to a Real.
        assert_eq!(fold(AggOp::Avg, &[Value::Integer(4)]), Value::Real(4.0));
        assert!(fold(AggOp::Avg, &[]).is_null());
    }

    #[test]
    fn combine_is_commutative_and_associative() {
        // For MIN/MAX/SUM a finished fold is itself a valid contribution,
        // so the monoid's `op(x, y)` is `fold(op, [x, y])`.
        let [a, b, c] = [3, 7, 1].map(Value::Integer);
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
            let combine = |x: &Value, y: &Value| fold(op, &[x.clone(), y.clone()]);
            assert_eq!(combine(&a, &b), combine(&b, &a), "{op} commutative");
            let ab_c = combine(&combine(&a, &b), &c);
            let a_bc = combine(&a, &combine(&b, &c));
            assert_eq!(ab_c, a_bc, "{op} associative");
        }
    }

    #[test]
    fn pairs_notation() {
        let pairs = parse_col_func_pairs("(l_time,min)").unwrap();
        assert_eq!(pairs, vec![("l_time".to_string(), AggOp::Min)]);
        let pairs = parse_col_func_pairs("(cn,max):(av,max)").unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1], ("av".to_string(), AggOp::Max));
        // Reversed order, as in the §5.3 prose "(MAX,cn)".
        let pairs = parse_col_func_pairs("(MAX,cn)").unwrap();
        assert_eq!(pairs, vec![("cn".to_string(), AggOp::Max)]);
        assert!(parse_col_func_pairs("cn,max").is_err());
        assert!(parse_col_func_pairs("").is_err());
    }
}
