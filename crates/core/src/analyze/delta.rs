//! Delta-eligibility explain: DESIGN.md's fallback matrix as
//! compile-time diagnostics.
//!
//! The Qq source ([`crate::delta`]) decides at runtime whether an
//! iteration takes the delta scan, the pipeline, or falls back to the
//! sequential plan. Under `DeltaPolicy::Auto` the fallback is silent;
//! under `Forced` it is an error — raised only after Qs has already run.
//! This pass evaluates the same predicates statically, so a `Forced`
//! program that can never take the delta path is rejected before any
//! snapshot is opened, and an `Auto` program gets an `info` explaining
//! which path it will actually use.

use rql_sqlengine::ast::SelectStmt;
use rql_sqlengine::DeltaSelectRunner;

use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::delta::{has_inner_agg_shape, DeltaPolicy};
use crate::memoize::expr_calls_udf;
use crate::rewrite::uses_current_snapshot;

use super::mechspec::MechanismKind;

/// The iteration path the analyzer predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictedPath {
    /// O(delta) incremental inner aggregate (AggregateDataInVariable
    /// with a bare inner-aggregate Qq).
    Incremental,
    /// Delta scan + pipeline re-evaluation over cached base rows.
    Pipeline,
    /// The ordinary sequential mechanism.
    Sequential,
}

/// Why the predicted path is what it is.
#[derive(Debug, Clone)]
pub struct DeltaExplain {
    /// Policy the program requested.
    pub policy: DeltaPolicy,
    /// Whether the mechanism has a delta source at all.
    pub mechanism_supported: bool,
    /// Single-table scan shape (`DeltaSelectRunner::eligible_shape`).
    pub shape_eligible: bool,
    /// WHERE calls `current_snapshot()`, so the filter varies per
    /// iteration.
    pub snapshot_dependent_where: bool,
    /// WHERE calls a UDF — the delta scan bails per iteration.
    pub udf_in_where: bool,
    /// The incremental inner-aggregate shape applies.
    pub incremental: bool,
    /// The path the computation will take.
    pub predicted_path: PredictedPath,
    /// Human-readable reasons, in decision order.
    pub reasons: Vec<String>,
}

/// Whether the WHERE clause calls a user-defined function. Builtins,
/// aggregates, and `current_snapshot()` are engine-evaluated; anything
/// else compiles to a UDF call, which the delta scan's row cache cannot
/// replay. The walker (and its builtin whitelist) is shared with the
/// memoization-eligibility rule in [`crate::memoize`].
fn udf_in_where(select: &SelectStmt) -> bool {
    select.where_clause.as_ref().is_some_and(expr_calls_udf)
}

/// Evaluate the fallback matrix for one mechanism call and append the
/// policy-appropriate diagnostics (errors under `Forced`, advisories
/// under `Auto`, nothing under `Off`).
pub fn explain_delta(
    kind: MechanismKind,
    qq: Option<&SelectStmt>,
    policy: DeltaPolicy,
    diags: &mut Vec<Diagnostic>,
) -> DeltaExplain {
    let mechanism_supported = matches!(
        kind,
        MechanismKind::Collate | MechanismKind::AggVar | MechanismKind::AggTable
    );
    let shape_eligible = qq.is_some_and(DeltaSelectRunner::eligible_shape);
    let snapshot_dependent_where =
        qq.is_some_and(|q| q.where_clause.as_ref().is_some_and(uses_current_snapshot));
    let udf_where = qq.is_some_and(udf_in_where);
    let incremental = kind == MechanismKind::AggVar && qq.is_some_and(has_inner_agg_shape);

    let mut reasons = Vec::new();
    let mut push = |diags: &mut Vec<Diagnostic>, code: Code, msg: String| {
        reasons.push(msg.clone());
        diags.push(Diagnostic::new(code, msg, SourceKind::Qq, None));
    };

    let predicted_path = if policy == DeltaPolicy::Off {
        reasons.push("delta policy is Off; sequential mechanism".to_owned());
        PredictedPath::Sequential
    } else if !mechanism_supported {
        let msg = "CollateDataIntoIntervals has no delta path yet (see ROADMAP \
                   open items); the sequential mechanism runs instead"
            .to_owned();
        if policy == DeltaPolicy::Forced {
            push(diags, Code::ForcedDeltaUnsupportedMechanism, msg);
        } else {
            push(diags, Code::AutoDeltaFallback, msg);
        }
        PredictedPath::Sequential
    } else if !shape_eligible || qq.is_none() {
        let msg = "Qq is not a single-table scan (joins or multiple FROM \
                   tables); the delta scan cannot reproduce it"
            .to_owned();
        if policy == DeltaPolicy::Forced {
            push(diags, Code::ForcedDeltaIneligibleShape, msg);
        } else {
            push(diags, Code::AutoDeltaFallback, msg);
        }
        PredictedPath::Sequential
    } else if snapshot_dependent_where {
        let msg = "WHERE calls current_snapshot(), so the scan filter \
                   changes every iteration; the cached delta rows cannot \
                   represent that"
            .to_owned();
        if policy == DeltaPolicy::Forced {
            push(diags, Code::ForcedDeltaSnapshotDependentWhere, msg);
        } else {
            push(diags, Code::AutoDeltaFallback, msg);
        }
        PredictedPath::Sequential
    } else if udf_where {
        let msg = "WHERE calls a UDF; the delta scan bails to the ordinary \
                   plan on every iteration"
            .to_owned();
        if policy == DeltaPolicy::Forced {
            push(diags, Code::ForcedDeltaUdfInWhere, msg);
        } else {
            push(diags, Code::AutoDeltaFallback, msg);
        }
        PredictedPath::Sequential
    } else if incremental {
        reasons.push("bare inner aggregate: O(changed rows) incremental maintenance".to_owned());
        PredictedPath::Incremental
    } else {
        if kind == MechanismKind::AggVar {
            push(
                diags,
                Code::IncrementalUnavailable,
                "Qq is delta-eligible but not a bare inner aggregate; the \
                 pipeline re-evaluates post-scan stages per iteration"
                    .to_owned(),
            );
        } else {
            reasons.push("delta scan + pipeline fold".to_owned());
        }
        PredictedPath::Pipeline
    };

    DeltaExplain {
        policy,
        mechanism_supported,
        shape_eligible,
        snapshot_dependent_where,
        udf_in_where: udf_where,
        incremental,
        predicted_path,
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::parse_select;

    fn explain(kind: MechanismKind, qq: &str, policy: DeltaPolicy) -> (DeltaExplain, Vec<Code>) {
        let parsed = parse_select(qq).unwrap();
        let mut diags = Vec::new();
        let ex = explain_delta(kind, Some(&parsed), policy, &mut diags);
        (ex, diags.iter().map(|d| d.code).collect())
    }

    #[test]
    fn incremental_prediction() {
        let (ex, codes) = explain(
            MechanismKind::AggVar,
            "SELECT SUM(v) FROM t WHERE v > 0",
            DeltaPolicy::Forced,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Incremental);
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn pipeline_prediction() {
        let (ex, codes) = explain(
            MechanismKind::Collate,
            "SELECT DISTINCT v FROM t",
            DeltaPolicy::Auto,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert!(codes.is_empty());
        // AggVar with a wrapped aggregate: pipeline, with the info note.
        let (ex, codes) = explain(
            MechanismKind::AggVar,
            "SELECT SUM(v) + 1 FROM t",
            DeltaPolicy::Auto,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert_eq!(codes, vec![Code::IncrementalUnavailable]);
    }

    #[test]
    fn agg_table_predicts_pipeline() {
        let (ex, codes) = explain(
            MechanismKind::AggTable,
            "SELECT cn, l_time FROM lineitem",
            DeltaPolicy::Forced,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn forced_failures() {
        let (_, codes) = explain(
            MechanismKind::Intervals,
            "SELECT v FROM t",
            DeltaPolicy::Forced,
        );
        assert_eq!(codes, vec![Code::ForcedDeltaUnsupportedMechanism]);
        let (_, codes) = explain(
            MechanismKind::Collate,
            "SELECT a FROM t, u",
            DeltaPolicy::Forced,
        );
        assert_eq!(codes, vec![Code::ForcedDeltaIneligibleShape]);
        let (_, codes) = explain(
            MechanismKind::Collate,
            "SELECT v FROM t WHERE v = current_snapshot()",
            DeltaPolicy::Forced,
        );
        assert_eq!(codes, vec![Code::ForcedDeltaSnapshotDependentWhere]);
        let (_, codes) = explain(
            MechanismKind::Collate,
            "SELECT v FROM t WHERE my_udf(v) > 0",
            DeltaPolicy::Forced,
        );
        assert_eq!(codes, vec![Code::ForcedDeltaUdfInWhere]);
    }

    #[test]
    fn auto_downgrades_to_info() {
        let (ex, codes) = explain(
            MechanismKind::Collate,
            "SELECT a FROM t, u",
            DeltaPolicy::Auto,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Sequential);
        assert_eq!(codes, vec![Code::AutoDeltaFallback]);
    }

    #[test]
    fn off_is_silent() {
        let (ex, codes) = explain(
            MechanismKind::Collate,
            "SELECT a FROM t, u",
            DeltaPolicy::Off,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Sequential);
        assert!(codes.is_empty());
    }
}
