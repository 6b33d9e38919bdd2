//! # rql
//!
//! RQL — the Retrospective Query Language of *"RQL: Retrospective
//! Computations over Snapshot Sets"* (Tsikoudis, Shrira, Cohen; EDBT
//! 2018) — reimplemented in Rust over a from-scratch Retro snapshot
//! system and SQLite-like engine.
//!
//! RQL lets a SQL programmer run computations over *sets* of past-state
//! snapshots with four mechanisms, each a composition of familiar
//! relational constructs:
//!
//! * [`RqlSession::collate_data`] — `CollateData(Qs, Qq, T)`: run Qq on
//!   every snapshot in the set Qs selects, collecting all rows in `T`;
//! * [`RqlSession::aggregate_data_in_variable`] —
//!   `AggregateDataInVariable(Qs, Qq, T, AggFunc)`: fold Qq's single
//!   value across snapshots;
//! * [`RqlSession::aggregate_data_in_table`] —
//!   `AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)`: an
//!   across-time GROUP BY with per-column aggregate functions;
//! * [`RqlSession::collate_data_into_intervals`] —
//!   `CollateDataIntoIntervals(Qs, Qq, T)`: the compact record-lifetime
//!   representation with `start_snapshot`/`end_snapshot`.
//!
//! The entry point is [`session::RqlSession`], which owns the
//! snapshotable application database and the auxiliary database holding
//! the [`snapids`] table and result tables, maintains `SnapIds` on every
//! `COMMIT WITH SNAPSHOT`, and exposes the mechanisms both as a Rust API
//! (each also `*_with_policy`, under a [`DeltaPolicy`]) and as SQL UDFs
//! (`SELECT CollateData(snap_id, …) FROM SnapIds`).
//!
//! Underneath, every form — batch, per-row UDF, standing `MAINTAIN
//! QUERY` ([`maintain`]) — is one loop in [`mechanism`]
//! driving one per-snapshot Qq source ([`delta`]) into one fold per
//! mechanism.
//!
//! # Quick start
//!
//! ```
//! use rql::{AggOp, RqlSession};
//!
//! let session = RqlSession::with_defaults().unwrap();
//! session
//!     .execute("CREATE TABLE loggedin (l_userid TEXT, l_country TEXT)")
//!     .unwrap();
//! session
//!     .execute("INSERT INTO loggedin VALUES ('UserA', 'USA'), ('UserB', 'UK')")
//!     .unwrap();
//! session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
//! session
//!     .execute("BEGIN; DELETE FROM loggedin WHERE l_userid = 'UserA'; COMMIT WITH SNAPSHOT;")
//!     .unwrap();
//!
//! // Count the snapshots in which UserA appears.
//! session
//!     .aggregate_data_in_variable(
//!         "SELECT snap_id FROM SnapIds",
//!         "SELECT DISTINCT 1 FROM loggedin WHERE l_userid = 'UserA'",
//!         "result",
//!         AggOp::Sum,
//!     )
//!     .unwrap();
//! let r = session.query_aux("SELECT * FROM result").unwrap();
//! assert_eq!(r.rows[0][0], rql::Value::Integer(1));
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod analyze;
pub mod delta;
pub mod maintain;
pub mod mechanism;
pub mod memoize;
pub mod profile;
pub mod report;
pub mod rewrite;
pub mod session;
pub mod snapids;

pub use aggregate::{parse_col_func_pairs, AggOp, AggState};
pub use analyze::{
    analyze_mechanism_call, analyze_program, apply_fixes, fix_program, machine_applicable,
    parse_program, render_sarif, run_program, run_program_with_reports, Analysis, Applicability,
    Code, DeltaExplain, Diagnostic, Fix, FixOutcome, MechanismCall, MechanismKind, PredictedPath,
    Program, ProgramAnalysis, ProgramRun, SarifFile, SchemaEnv, Severity, SourceKind,
};
pub use delta::DeltaPolicy;
pub use maintain::{
    maintain_ineligibility, maintain_prefix, parse_maintain, MaintainSpec, MaintainStats,
    Maintainer, ResultDelta,
};
pub use mechanism::{END_SNAPSHOT_COL, START_SNAPSHOT_COL};
pub use memoize::{memo_eligible, qq_fingerprint};
pub use profile::{MechanismProfile, QueryProfile, SnapshotCost};
pub use report::{IterationReport, RqlReport};
pub use rewrite::{
    render_select, rewrite_select, rewrite_sql, uses_current_snapshot, CURRENT_SNAPSHOT,
};
pub use session::RqlSession;
pub use snapids::{all_snapshots, snapshot_by_name, SNAPIDS_TABLE};

// Re-export the layers below for downstream users of the full system.
pub use rql_sqlengine::{
    CancelCause, CancelToken, Database, ExecOutcome, QueryResult, Result, SqlError, Value,
};
