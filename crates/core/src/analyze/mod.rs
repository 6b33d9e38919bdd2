//! `rqlcheck`: static semantic analysis of RQL programs.
//!
//! Everything here runs before any snapshot is opened. The passes:
//!
//! 1. **Name/type resolution** ([`resolve`]) — Qs against the auxiliary
//!    catalog (`SnapIds` + result tables), Qq against the snapshotable
//!    catalog, by the engine's own binder (`rql_sqlengine::exec::bind`):
//!    the analyzer keeps no copy of a scoping, naming, arity or
//!    aggregate-placement rule, it maps the binder's errors to codes.
//! 2. **Mechanism-spec validation** ([`mechspec`]) — the spec parsed and
//!    T's layout derived by the mechanisms' own definitions
//!    (`MechSpec::parse`, `MechSpec::table_layout`), plus the affinity
//!    warnings only a static pass can give.
//! 3. **Rewrite safety** ([`rewrite_safety`]) — proofs that the §3
//!    rewrite (`AS OF` injection, `current_snapshot()` substitution)
//!    finds all its sites and none are hidden in string literals.
//! 4. **Delta eligibility** ([`delta`]) — the DESIGN.md fallback matrix
//!    as diagnostics: `Forced`-policy fallbacks become compile-time
//!    errors, `Auto` fallbacks become advisories.
//!
//! Diagnostics are structured values ([`Diagnostic`]) with stable codes
//! (`RQL0xx` semantic, `RQL1xx` rewrite safety, `RQL2xx` delta
//! eligibility), byte spans into the offending source, and a human
//! renderer. The session runs [`analyze_mechanism_call`] as a mandatory
//! pre-flight; the `rqlcheck` binary lints whole `.rql` programs via
//! [`program`].
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub(crate) mod dataflow;
pub mod delta;
pub mod diag;
pub mod env;
pub mod fixes;
pub mod mechspec;
pub mod program;
pub mod resolve;
pub mod rewrite_safety;
pub mod sarif;

use rql_sqlengine::ast::{BinOp, Expr};
use rql_sqlengine::cexpr::CExpr;
use rql_sqlengine::exec::Bound;
use rql_sqlengine::{ColumnType, PredSummary, Span, SqlError, Value};

use crate::rewrite::rewrite_select;

pub use self::delta::{explain_delta, DeltaExplain, PredictedPath};
pub use self::diag::{dedupe, Applicability, Code, Diagnostic, Fix, Severity, SourceKind};
pub use self::env::SchemaEnv;
pub use self::fixes::{apply_fixes, fix_program, machine_applicable, FixOutcome};
pub use self::mechspec::{check_mechanism, MechanismCall, MechanismFacts};
pub use self::program::{
    analyze_program, parse_program, run_program, run_program_with_reports, Program,
    ProgramAnalysis, ProgramRun, ProgramStmt,
};
pub use self::sarif::{render_sarif, SarifFile};
pub use crate::delta::{DeltaIneligible, DeltaPolicy};
pub use crate::mechanism::MechanismKind;

/// The result of analyzing one mechanism call.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Everything found, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The delta-path prediction, when a policy was specified.
    pub delta: Option<DeltaExplain>,
    /// The result table T's inferred column names.
    pub result_columns: Option<Vec<String>>,
    /// Qq tables missing from the provided snapshot catalog (the
    /// pre-flight widens the catalog with older snapshots and retries).
    pub qq_unknown_tables: Vec<String>,
}

impl Analysis {
    /// Whether any diagnostic is an error (warnings/infos don't block).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The first error, as the [`SqlError`] the runtime would eventually
    /// raise for the same problem — so pre-flight rejection is
    /// indistinguishable (to `matches!` on the variant) from the mid-loop
    /// failure it preempts.
    pub fn first_error(&self) -> Option<SqlError> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(Diagnostic::runtime_error)
    }
}

/// Whether zone-map/bloom sidecar pruning can ever refute a page for a
/// bound Qq: the runtime's own predicate summary over the conjuncts the
/// executor compiles finds at least one atom.
fn prunable(bound: &Bound) -> bool {
    bound.errors.is_empty() && !PredSummary::from_conjuncts(&bound.conjuncts, 0).is_empty()
}

/// Strip arithmetic identities that hide a column from the pruning
/// sidecars: `col + 0`, `0 + col`, `col - 0`, `col * 1`, `1 * col`,
/// `col / 1`, applied bottom-up so nested identities peel off too.
fn strip_arith_identities(e: &Expr) -> Expr {
    fn identity(e: Expr) -> Expr {
        if let Expr::Binary { op, lhs, rhs } = &e {
            let zero = |x: &Expr| matches!(x, Expr::Literal(Value::Integer(0)));
            let one = |x: &Expr| matches!(x, Expr::Literal(Value::Integer(1)));
            match op {
                BinOp::Add if zero(rhs) => return (**lhs).clone(),
                BinOp::Add if zero(lhs) => return (**rhs).clone(),
                BinOp::Sub if zero(rhs) => return (**lhs).clone(),
                BinOp::Mul if one(rhs) => return (**lhs).clone(),
                BinOp::Mul if one(lhs) => return (**rhs).clone(),
                BinOp::Div if one(rhs) => return (**lhs).clone(),
                _ => {}
            }
        }
        e
    }
    match e {
        Expr::Binary { op, lhs, rhs } => identity(Expr::Binary {
            op: *op,
            lhs: Box::new(strip_arith_identities(lhs)),
            rhs: Box::new(strip_arith_identities(rhs)),
        }),
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(strip_arith_identities(expr)),
            lo: Box::new(strip_arith_identities(lo)),
            hi: Box::new(strip_arith_identities(hi)),
            negated: *negated,
        },
        _ => e.clone(),
    }
}

/// Analyze one mechanism call: the API-level entry the session pre-flight
/// uses. `policy` enables the delta-eligibility pass; pass `None` when
/// the caller did not specify one (the plain mechanism API).
pub fn analyze_mechanism_call(
    call: &MechanismCall<'_>,
    snap_env: &SchemaEnv,
    aux_env: &SchemaEnv,
    policy: Option<DeltaPolicy>,
) -> Analysis {
    let mut diags = Vec::new();
    let facts = check_mechanism(call, snap_env, aux_env, &mut diags);
    if let Some(parsed) = &facts.qq_parsed {
        rewrite_safety::check_qq(parsed, call.qq, SourceKind::Qq, &mut diags);
        // Memoization eligibility (RQL207): a UDF call anywhere in Qq
        // makes its per-snapshot results non-deterministic from the
        // snapshot alone, so the memo cache never stores or serves them.
        if !crate::memoize::memo_eligible(parsed) {
            diags.push(
                Diagnostic::new(
                    Code::MemoIneligible,
                    "Qq calls a user-defined function, so its per-snapshot \
                     results are not memoized (every run re-executes Qq)",
                    SourceKind::Qq,
                    None,
                )
                .with_fix(
                    Span::new(0, call.qq.len()),
                    "<rewrite Qq without the UDF call: inline its definition \
                     as a plain SQL expression so results are memoizable>",
                    diag::Applicability::HasPlaceholders,
                ),
            );
            // Profiling opacity (RQL208) rides along with RQL207: the
            // same UDF call that defeats the memo also hides its time
            // from the profile's engine-phase breakdown — it lands in
            // the iteration's eval bucket undifferentiated.
            diags.push(Diagnostic::new(
                Code::ProfiledUdfOpaque,
                "Qq calls a user-defined function, so a profiled session \
                 cannot attribute its time to engine phases (it is folded \
                 into eval undifferentiated)",
                SourceKind::Qq,
                None,
            ));
        }
        // Pruning eligibility (RQL209): a WHERE clause with no direct
        // column-vs-constant conjunct gives the zone-map/bloom sidecars
        // nothing to refute — every page is fetched and filtered row by
        // row no matter how selective the predicate is. Asked of the
        // conjuncts the loop compiles, `current_snapshot()` substituted.
        if let Some(w) = &parsed.where_clause {
            let (bound, _) = resolve::bind(&rewrite_select(parsed, 0), snap_env);
            if bound.errors.is_empty() && !prunable(&bound) {
                let why = if bound.conjuncts.iter().any(CExpr::calls_udf) {
                    "it filters through a UDF call"
                } else {
                    "no conjunct compares a bare column to a constant"
                };
                let mut d = Diagnostic::new(
                    Code::PruneIneligibleWhere,
                    format!(
                        "Qq's WHERE clause is opaque to page-pruning sidecars ({why}); \
                         every page is read and filtered row by row"
                    ),
                    SourceKind::Qq,
                    None,
                );
                // When only arithmetic identities (`+ 0`, `* 1`, …) hide
                // the column, strip them and offer the rewritten Qq.
                // Machine-applicable only when every column the rewritten
                // conjuncts read is numerically typed — on text columns
                // the arithmetic coerced the comparison, so stripping it
                // could change results.
                let mut fixed = parsed.clone();
                fixed.where_clause = Some(strip_arith_identities(w));
                let (fixed_bound, types) = match fixed.where_clause != parsed.where_clause {
                    true => resolve::bind(&rewrite_select(&fixed, 0), snap_env),
                    false => Default::default(),
                };
                if prunable(&fixed_bound) {
                    let mut read = Vec::new();
                    let conjuncts = fixed_bound.conjuncts.iter();
                    conjuncts.for_each(|c| c.column_offsets(&mut read));
                    let numeric = |&o: &usize| {
                        matches!(types.get(o), Some(ColumnType::Integer | ColumnType::Real))
                    };
                    let applicability = if read.iter().all(numeric) {
                        diag::Applicability::MachineApplicable
                    } else {
                        diag::Applicability::MaybeIncorrect
                    };
                    d = d.with_fix(
                        Span::new(0, call.qq.len()),
                        crate::rewrite::render_select(&fixed),
                        applicability,
                    );
                }
                diags.push(d);
            }
        }
    }
    let delta = policy.map(|p| explain_delta(facts.qq_parsed.as_ref(), p, &mut diags));
    diag::dedupe(&mut diags);
    Analysis {
        diagnostics: diags,
        delta,
        result_columns: facts.result_columns,
        qq_unknown_tables: facts.qq_unknown_tables,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use rql_sqlengine::{ColumnType, TableSchema};

    fn snap_env() -> SchemaEnv {
        let mut env = SchemaEnv::new();
        env.add_table(TableSchema::new(
            "loggedin",
            vec![
                ("l_userid".into(), ColumnType::Text),
                ("l_time".into(), ColumnType::Text),
            ],
        ));
        env
    }

    #[test]
    fn full_analysis_clean() {
        let a = analyze_mechanism_call(
            &MechanismCall {
                kind: MechanismKind::Collate,
                qs: "SELECT snap_id FROM SnapIds",
                qq: "SELECT DISTINCT l_userid FROM LoggedIn",
                table: "found",
                spec: None,
            },
            &snap_env(),
            &SchemaEnv::aux_default(),
            None,
        );
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        assert_eq!(a.result_columns, Some(vec!["l_userid".to_owned()]));
    }

    #[test]
    fn error_mapping_matches_runtime_taxonomy() {
        let a = analyze_mechanism_call(
            &MechanismCall {
                kind: MechanismKind::Collate,
                qs: "SELECT snap_id FROM SnapIds",
                qq: "SELECT nope FROM LoggedIn",
                table: "t",
                spec: None,
            },
            &snap_env(),
            &SchemaEnv::aux_default(),
            None,
        );
        assert!(matches!(a.first_error(), Some(SqlError::Unknown(_))));

        let mut aux = SchemaEnv::aux_default();
        aux.add_table(TableSchema::new("t", vec![]));
        let a = analyze_mechanism_call(
            &MechanismCall {
                kind: MechanismKind::Collate,
                qs: "SELECT snap_id FROM SnapIds",
                qq: "SELECT l_userid FROM LoggedIn",
                table: "t",
                spec: None,
            },
            &snap_env(),
            &aux,
            None,
        );
        assert!(matches!(a.first_error(), Some(SqlError::Constraint(_))));
    }

    #[test]
    fn delta_pass_runs_only_with_policy() {
        let call = MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn JOIN LoggedIn l2 ON l_userid = l2.l_userid",
            table: "t",
            spec: None,
        };
        let a = analyze_mechanism_call(&call, &snap_env(), &SchemaEnv::aux_default(), None);
        assert!(a.delta.is_none());
        let a = analyze_mechanism_call(
            &call,
            &snap_env(),
            &SchemaEnv::aux_default(),
            Some(DeltaPolicy::Forced),
        );
        assert!(a.has_errors());
        let delta = a.delta.unwrap();
        assert_eq!(delta.predicted_path, PredictedPath::Sequential);
    }
}
