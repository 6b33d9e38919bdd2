//! Integration tests for the static-analysis pre-flight: failures that
//! used to surface mid-loop are rejected before any snapshot is opened,
//! and the RQL2xx delta-eligibility explain agrees with what the
//! runtime's `ExecStats` actually records.

use rql::analyze::{
    analyze_mechanism_call, MechanismCall, MechanismKind, PredictedPath, SchemaEnv,
};
use rql::{AggOp, DeltaPolicy, RqlSession, SqlError};
use std::sync::Arc;

const QS: &str = "SELECT snap_id FROM SnapIds";

fn session_with_history() -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE t (grp INTEGER, v INTEGER)")
        .unwrap();
    for s in 0..4i64 {
        session
            .execute(&format!(
                "BEGIN; INSERT INTO t VALUES ({s}, {}); COMMIT WITH SNAPSHOT;",
                s * 10
            ))
            .unwrap();
    }
    session
}

#[test]
fn unknown_qq_column_rejected_before_execution() {
    let session = session_with_history();
    let err = session
        .collate_data(QS, "SELECT nope FROM t", "r")
        .unwrap_err();
    assert!(matches!(err, SqlError::Unknown(_)), "{err:?}");
    assert!(err.to_string().contains("[RQL002]"), "{err}");
    // Pre-flight means pre-execution: no partial result table exists.
    assert!(session.query_aux("SELECT * FROM r").is_err());
}

#[test]
fn bad_aggregate_arity_rejected_before_execution() {
    let session = session_with_history();
    let err = session
        .aggregate_data_in_variable(QS, "SELECT grp, v FROM t", "r", AggOp::Max)
        .unwrap_err();
    assert!(matches!(err, SqlError::Invalid(_)), "{err:?}");
    assert!(err.to_string().contains("[RQL009]"), "{err}");
    assert!(session.query_aux("SELECT * FROM r").is_err());
}

#[test]
fn current_snapshot_in_qs_rejected_before_execution() {
    let session = session_with_history();
    let err = session
        .collate_data(
            "SELECT current_snapshot() FROM SnapIds",
            "SELECT v FROM t",
            "r",
        )
        .unwrap_err();
    assert!(err.to_string().contains("[RQL103]"), "{err}");
}

#[test]
fn forced_delta_on_join_rejected_before_execution() {
    let session = session_with_history();
    let err = session
        .collate_data_with_policy(QS, "SELECT a.v FROM t a, t b", "r", DeltaPolicy::Forced)
        .unwrap_err();
    assert!(err.to_string().contains("[RQL202]"), "{err}");
}

#[test]
fn preflight_escape_hatch_restores_runtime_errors() {
    let session = session_with_history();
    session.set_preflight(false);
    let err = session
        .collate_data(QS, "SELECT nope FROM t", "r")
        .unwrap_err();
    // Still the same error taxonomy, but raised mid-loop, without the
    // analyzer's code prefix.
    assert!(matches!(err, SqlError::Unknown(_)), "{err:?}");
    assert!(!err.to_string().contains("[RQL"), "{err}");
    session.set_preflight(true);
}

#[test]
fn preflight_widens_catalog_with_dropped_tables() {
    let session = RqlSession::with_defaults().unwrap();
    session.execute("CREATE TABLE old_t (v INTEGER)").unwrap();
    session
        .execute("BEGIN; INSERT INTO old_t VALUES (7); COMMIT WITH SNAPSHOT;")
        .unwrap();
    session.execute("DROP TABLE old_t").unwrap();
    session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    // old_t is gone from the current catalog but visible under AS OF 1;
    // the pre-flight must widen, not reject.
    let report = session
        .collate_data(
            "SELECT snap_id FROM SnapIds WHERE snap_id = 1",
            "SELECT v FROM old_t",
            "r",
        )
        .unwrap();
    assert_eq!(report.iteration_count(), 1);
    let rows = session.query_aux("SELECT v FROM r").unwrap();
    assert_eq!(rows.rows.len(), 1);
}

/// The static explain and the runtime must agree: an eligible Qq takes
/// the delta path on every iteration; a join Qq predicted `Sequential`
/// never sets `delta_eligible`.
#[test]
fn delta_explain_matches_exec_stats() {
    let session = session_with_history();
    let snap_env = SchemaEnv::from_database(session.snap_db()).unwrap();
    let aux_env = SchemaEnv::from_database(session.aux_db()).unwrap();

    let eligible = "SELECT v FROM t WHERE grp >= 0";
    let analysis = analyze_mechanism_call(
        &MechanismCall {
            kind: MechanismKind::Collate,
            qs: QS,
            qq: eligible,
            table: "r_eligible",
            spec: None,
        },
        &snap_env,
        &aux_env,
        Some(DeltaPolicy::Forced),
    );
    assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
    let explain = analysis.delta.unwrap();
    assert_eq!(explain.predicted_path, PredictedPath::Pipeline);
    let report = session
        .collate_data_with_policy(QS, eligible, "r_eligible", DeltaPolicy::Forced)
        .unwrap();
    assert_eq!(
        report.accumulated_stats().delta_eligible,
        report.iterations.len() as u64,
        "predicted Pipeline must mean every iteration took the delta scan"
    );

    // AggregateDataInVariable over a bare inner aggregate: the same path.
    let inner = "SELECT SUM(v) FROM t";
    let analysis = analyze_mechanism_call(
        &MechanismCall {
            kind: MechanismKind::AggVar,
            qs: QS,
            qq: inner,
            table: "r_inner",
            spec: Some("MAX"),
        },
        &snap_env,
        &aux_env,
        Some(DeltaPolicy::Forced),
    );
    assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
    assert!(
        analysis.diagnostics.is_empty(),
        "{:?}",
        analysis.diagnostics
    );
    assert_eq!(
        analysis.delta.unwrap().predicted_path,
        PredictedPath::Pipeline
    );
    let report = session
        .aggregate_data_in_variable_with_policy(
            QS,
            inner,
            "r_inner",
            AggOp::Max,
            DeltaPolicy::Forced,
        )
        .unwrap();
    assert_eq!(
        report.accumulated_stats().delta_eligible,
        report.iterations.len() as u64
    );

    let join = "SELECT a.v FROM t a, t b";
    let analysis = analyze_mechanism_call(
        &MechanismCall {
            kind: MechanismKind::Collate,
            qs: QS,
            qq: join,
            table: "r_join",
            spec: None,
        },
        &snap_env,
        &aux_env,
        Some(DeltaPolicy::Auto),
    );
    assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
    let explain = analysis.delta.unwrap();
    assert_eq!(explain.predicted_path, PredictedPath::Sequential);
    let report = session
        .collate_data_with_policy(QS, join, "r_join", DeltaPolicy::Auto)
        .unwrap();
    assert_eq!(
        report.accumulated_stats().delta_eligible,
        0,
        "predicted Sequential must mean the delta scan never engaged"
    );
}
