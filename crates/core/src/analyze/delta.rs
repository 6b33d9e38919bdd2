//! Delta-eligibility explain: DESIGN.md's fallback matrix as
//! compile-time diagnostics.
//!
//! The Qq source ([`crate::delta`]) picks per computation whether Qq runs
//! through the delta scanner or sequentially. Under `DeltaPolicy::Auto` the
//! sequential choice is silent; under `Forced` it is an error — raised
//! only after Qs has already run. This pass asks the same function the
//! source asks ([`crate::delta::static_ineligibility`]), so a `Forced`
//! program that can never take the delta path is rejected before any
//! snapshot is opened, and an `Auto` program gets an `info` explaining
//! which path it will actually use.

use rql_sqlengine::ast::SelectStmt;

use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::delta::{static_ineligibility, DeltaIneligible, DeltaPolicy};

/// The iteration path the analyzer predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictedPath {
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
    /// Why Qq can never be served by the delta scanner, if so (an
    /// unparsable Qq counts as [`DeltaIneligible::Shape`]).
    pub ineligible: Option<DeltaIneligible>,
    /// The path the computation will take.
    pub predicted_path: PredictedPath,
    /// Human-readable reasons, in decision order.
    pub reasons: Vec<String>,
}

/// Evaluate the fallback matrix for one mechanism call and append the
/// policy-appropriate diagnostics (errors under `Forced`, advisories
/// under `Auto`, nothing under `Off`). Every mechanism has the same delta
/// sources, so only Qq and the policy decide.
pub fn explain_delta(
    qq: Option<&SelectStmt>,
    policy: DeltaPolicy,
    diags: &mut Vec<Diagnostic>,
) -> DeltaExplain {
    let ineligible = qq.map_or(Some(DeltaIneligible::Shape), static_ineligibility);

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
    } else {
        reasons.push("delta scan + pipeline fold".to_owned());
        PredictedPath::Pipeline
    };

    DeltaExplain {
        policy,
        ineligible,
        predicted_path,
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::parse_select;

    fn explain(qq: &str, policy: DeltaPolicy) -> (DeltaExplain, Vec<Code>) {
        let parsed = parse_select(qq).unwrap();
        let mut diags = Vec::new();
        let ex = explain_delta(Some(&parsed), policy, &mut diags);
        (ex, diags.iter().map(|d| d.code).collect())
    }

    #[test]
    fn agg_var_predicts_pipeline() {
        // AggregateDataInVariable's Qq takes the pipeline like any other,
        // a bare inner aggregate and a wrapped one alike, silently.
        for qq in [
            "SELECT SUM(v) FROM t WHERE v > 0",
            "SELECT SUM(v) + 1 FROM t",
        ] {
            let (ex, codes) = explain(qq, DeltaPolicy::Forced);
            assert_eq!(ex.predicted_path, PredictedPath::Pipeline, "{qq}");
            assert!(codes.is_empty(), "{qq}: {codes:?}");
        }
    }

    #[test]
    fn pipeline_prediction() {
        let (ex, codes) = explain("SELECT DISTINCT v FROM t", DeltaPolicy::Auto);
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert!(codes.is_empty());
    }

    #[test]
    fn agg_table_predicts_pipeline() {
        let (ex, codes) = explain("SELECT cn, l_time FROM lineitem", DeltaPolicy::Forced);
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn forced_failures() {
        // An eligible Qq is silent under Forced.
        let (ex, codes) = explain("SELECT v FROM t", DeltaPolicy::Forced);
        assert_eq!(ex.predicted_path, PredictedPath::Pipeline);
        assert!(codes.is_empty(), "{codes:?}");
        let (_, codes) = explain("SELECT a FROM t, u", DeltaPolicy::Forced);
        assert_eq!(codes, vec![Code::ForcedDeltaIneligibleShape]);
        let (_, codes) = explain(
            "SELECT v FROM t WHERE v = current_snapshot()",
            DeltaPolicy::Forced,
        );
        assert_eq!(codes, vec![Code::ForcedDeltaSnapshotDependentWhere]);
        let (_, codes) = explain("SELECT v FROM t WHERE my_udf(v) > 0", DeltaPolicy::Forced);
        assert_eq!(codes, vec![Code::ForcedDeltaUdfInWhere]);
    }

    #[test]
    fn auto_downgrades_to_info() {
        let (ex, codes) = explain("SELECT a FROM t, u", DeltaPolicy::Auto);
        assert_eq!(ex.predicted_path, PredictedPath::Sequential);
        assert_eq!(codes, vec![Code::AutoDeltaFallback]);
    }

    #[test]
    fn off_is_silent() {
        let (ex, codes) = explain("SELECT a FROM t, u", DeltaPolicy::Off);
        assert_eq!(ex.predicted_path, PredictedPath::Sequential);
        assert!(codes.is_empty());
    }
}
