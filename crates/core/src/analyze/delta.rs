//! Delta-eligibility explain: DESIGN.md's fallback matrix as
//! compile-time diagnostics.
//!
//! The Qq source ([`crate::delta`]) picks per computation whether Qq runs
//! over a delta chain or sequentially. Under `DeltaPolicy::Auto` the
//! sequential choice is silent; under `Forced` it is an error — raised
//! only after Qs has already run. This pass asks the same function the
//! source asks ([`crate::delta::static_ineligibility`]), so a `Forced`
//! program that can never take the delta path is rejected before any
//! snapshot is opened, and an `Auto` program gets an `info` explaining
//! which path it will actually use.

use rql_sqlengine::ast::SelectStmt;

use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::delta::{has_inner_agg_shape, static_ineligibility, DeltaIneligible, DeltaPolicy};

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
    /// Why Qq can never be served from a delta chain, if so (an
    /// unparsable Qq counts as [`DeltaIneligible::Shape`]).
    pub ineligible: Option<DeltaIneligible>,
    /// The incremental inner-aggregate shape applies.
    pub incremental: bool,
    /// The path the computation will take.
    pub predicted_path: PredictedPath,
    /// Human-readable reasons, in decision order.
    pub reasons: Vec<String>,
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
    let ineligible = qq.map_or(Some(DeltaIneligible::Shape), static_ineligibility);
    let incremental = kind == MechanismKind::AggVar && qq.is_some_and(has_inner_agg_shape);

    let mut reasons = Vec::new();
    let mut push = |code: Code, msg: &str| {
        reasons.push(msg.to_owned());
        diags.push(Diagnostic::new(code, msg, SourceKind::Qq, None));
    };

    let predicted_path = if policy == DeltaPolicy::Off {
        reasons.push("delta policy is Off; sequential mechanism".to_owned());
        PredictedPath::Sequential
    } else if let Some(reason) = ineligible {
        let forced_code = match reason {
            DeltaIneligible::Shape => Code::ForcedDeltaIneligibleShape,
            DeltaIneligible::SnapshotDependentWhere => Code::ForcedDeltaSnapshotDependentWhere,
            DeltaIneligible::UdfInWhere => Code::ForcedDeltaUdfInWhere,
        };
        let code = match policy {
            DeltaPolicy::Forced => forced_code,
            _ => Code::AutoDeltaFallback,
        };
        push(code, reason.message());
        PredictedPath::Sequential
    } else if incremental {
        reasons.push("bare inner aggregate: O(changed rows) incremental maintenance".to_owned());
        PredictedPath::Incremental
    } else {
        if kind == MechanismKind::AggVar {
            push(
                Code::IncrementalUnavailable,
                "Qq is delta-eligible but not a bare inner aggregate; the \
                 pipeline re-evaluates post-scan stages per iteration",
            );
        } else {
            reasons.push("delta scan + pipeline fold".to_owned());
        }
        PredictedPath::Pipeline
    };

    DeltaExplain {
        policy,
        ineligible,
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
        // Every mechanism has a delta source, lifetime extension included.
        let (ex, codes) = explain(
            MechanismKind::Intervals,
            "SELECT v FROM t",
            DeltaPolicy::Forced,
        );
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert!(codes.is_empty(), "{codes:?}");
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
