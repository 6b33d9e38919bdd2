//! Structured diagnostics with stable error codes.
//!
//! Every problem `rqlcheck` can report is a [`Diagnostic`]: a stable
//! [`Code`] (never renumbered, so scripts and CI greps can match on it),
//! a [`Severity`], a message, and — whenever the offending text can be
//! located — a byte [`Span`] into one of the program's source texts
//! ([`SourceKind`] says which one).
//!
//! Code ranges:
//!
//! * `RQL0xx` — semantic errors (name/type resolution, mechanism-spec
//!   validation, result-table schema problems);
//! * `RQL1xx` — rewrite-safety (the `AS OF` injection and
//!   `current_snapshot()` substitution of paper §3);
//! * `RQL2xx` — delta-eligibility (the DESIGN.md §5b fallback matrix as
//!   compile-time diagnostics);
//! * `RQL31x` — whole-program dataflow (def-use over result tables;
//!   `RQL300`–`RQL309` stay reserved for the runtime/server codes the
//!   wire protocol already uses: RQL300 client cancel, RQL301 timeout).
//!
//! A diagnostic may carry a [`Fix`]: a byte-span replacement with a
//! rustc-style [`Applicability`]. `rqlcheck --fix` applies only
//! [`Applicability::MachineApplicable`] fixes.

use std::fmt;

use rql_sqlengine::{Span, SqlError};

/// Stable diagnostic codes. The numeric part is permanent: codes are
/// retired, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // each variant is documented by `description()`
pub enum Code {
    // ---- RQL0xx: semantic ---------------------------------------------
    UnknownTable,
    UnknownColumn,
    UnknownFunction,
    FunctionArity,
    QsNotSingleColumn,
    QsUnknownTable,
    ResultTableExists,
    DuplicateOutputColumn,
    AggVarNotSingleColumn,
    BadAggFunc,
    AggColumnNotInQq,
    NoGroupingColumns,
    IntervalsReservedColumn,
    AggTypeMismatch,
    AmbiguousColumn,
    UnknownQualifier,
    NestedAggregate,
    UngroupedColumn,
    QsNonIntegerColumn,
    MechanismArity,
    InvalidClause,
    ParseError,
    QsParseError,
    QqParseError,
    // ---- RQL1xx: rewrite safety ---------------------------------------
    AsOfInQq,
    CurrentSnapshotArity,
    CurrentSnapshotInQs,
    CurrentSnapshotOutsideLoop,
    CurrentSnapshotInStringLiteral,
    AsOfInStringLiteral,
    // ---- RQL2xx: delta eligibility ------------------------------------
    // RQL201 ("Forced on a mechanism with no delta path") is retired —
    // every mechanism has one — and the id is not reused.
    ForcedDeltaIneligibleShape,
    ForcedDeltaSnapshotDependentWhere,
    AutoDeltaFallback,
    ForcedDeltaUdfInWhere,
    // RQL206 ("delta runs in pipeline mode; no incremental aggregate") is
    // retired — every delta-eligible Qq runs the pipeline — and the id is
    // not reused.
    MemoIneligible,
    ProfiledUdfOpaque,
    PruneIneligibleWhere,
    MaintainIneligible,
    // ---- RQL31x: whole-program dataflow --------------------------------
    DeadResultTable,
    UseBeforeDefine,
    SnapshotSetMismatch,
    RedundantRecompute,
}

impl Code {
    /// Every code, for registry-coverage assertions.
    pub const ALL: [Code; 42] = [
        Code::UnknownTable,
        Code::UnknownColumn,
        Code::UnknownFunction,
        Code::FunctionArity,
        Code::QsNotSingleColumn,
        Code::QsUnknownTable,
        Code::ResultTableExists,
        Code::DuplicateOutputColumn,
        Code::AggVarNotSingleColumn,
        Code::BadAggFunc,
        Code::AggColumnNotInQq,
        Code::NoGroupingColumns,
        Code::IntervalsReservedColumn,
        Code::AggTypeMismatch,
        Code::AmbiguousColumn,
        Code::UnknownQualifier,
        Code::NestedAggregate,
        Code::UngroupedColumn,
        Code::QsNonIntegerColumn,
        Code::MechanismArity,
        Code::InvalidClause,
        Code::ParseError,
        Code::QsParseError,
        Code::QqParseError,
        Code::AsOfInQq,
        Code::CurrentSnapshotArity,
        Code::CurrentSnapshotInQs,
        Code::CurrentSnapshotOutsideLoop,
        Code::CurrentSnapshotInStringLiteral,
        Code::AsOfInStringLiteral,
        Code::ForcedDeltaIneligibleShape,
        Code::ForcedDeltaSnapshotDependentWhere,
        Code::AutoDeltaFallback,
        Code::ForcedDeltaUdfInWhere,
        Code::MemoIneligible,
        Code::ProfiledUdfOpaque,
        Code::PruneIneligibleWhere,
        Code::MaintainIneligible,
        Code::DeadResultTable,
        Code::UseBeforeDefine,
        Code::SnapshotSetMismatch,
        Code::RedundantRecompute,
    ];

    /// The stable code string, e.g. `"RQL002"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnknownTable => "RQL001",
            Code::UnknownColumn => "RQL002",
            Code::UnknownFunction => "RQL003",
            Code::FunctionArity => "RQL004",
            Code::QsNotSingleColumn => "RQL005",
            Code::QsUnknownTable => "RQL006",
            Code::ResultTableExists => "RQL007",
            Code::DuplicateOutputColumn => "RQL008",
            Code::AggVarNotSingleColumn => "RQL009",
            Code::BadAggFunc => "RQL010",
            Code::AggColumnNotInQq => "RQL011",
            Code::NoGroupingColumns => "RQL012",
            Code::IntervalsReservedColumn => "RQL013",
            Code::AggTypeMismatch => "RQL014",
            Code::AmbiguousColumn => "RQL015",
            Code::UnknownQualifier => "RQL016",
            Code::NestedAggregate => "RQL017",
            Code::UngroupedColumn => "RQL018",
            Code::QsNonIntegerColumn => "RQL019",
            Code::MechanismArity => "RQL020",
            Code::InvalidClause => "RQL021",
            Code::ParseError => "RQL050",
            Code::QsParseError => "RQL051",
            Code::QqParseError => "RQL052",
            Code::AsOfInQq => "RQL101",
            Code::CurrentSnapshotArity => "RQL102",
            Code::CurrentSnapshotInQs => "RQL103",
            Code::CurrentSnapshotOutsideLoop => "RQL104",
            Code::CurrentSnapshotInStringLiteral => "RQL105",
            Code::AsOfInStringLiteral => "RQL106",
            Code::ForcedDeltaIneligibleShape => "RQL202",
            Code::ForcedDeltaSnapshotDependentWhere => "RQL203",
            Code::AutoDeltaFallback => "RQL204",
            Code::ForcedDeltaUdfInWhere => "RQL205",
            Code::MemoIneligible => "RQL207",
            Code::ProfiledUdfOpaque => "RQL208",
            Code::PruneIneligibleWhere => "RQL209",
            Code::MaintainIneligible => "RQL210",
            // RQL300–RQL309 are reserved: the runtime/server taxonomy
            // already emits RQL300 (client cancel) and RQL301 (timeout)
            // over the wire, so dataflow codes start at RQL310.
            Code::DeadResultTable => "RQL310",
            Code::UseBeforeDefine => "RQL311",
            Code::SnapshotSetMismatch => "RQL312",
            Code::RedundantRecompute => "RQL313",
        }
    }

    /// One-line registry description (DESIGN.md §6 table).
    pub fn description(self) -> &'static str {
        match self {
            Code::UnknownTable => "query references a table that exists in no reachable catalog",
            Code::UnknownColumn => "column not found in any table in scope",
            Code::UnknownFunction => {
                "function is neither a builtin, an aggregate, nor a registered UDF"
            }
            Code::FunctionArity => "builtin function called with the wrong number of arguments",
            Code::QsNotSingleColumn => "Qs must return exactly one snapshot-id column",
            Code::QsUnknownTable => "Qs references a table missing from the auxiliary database",
            Code::ResultTableExists => "result table T already exists in the auxiliary database",
            Code::DuplicateOutputColumn => "two output columns of T would share a name",
            Code::AggVarNotSingleColumn => "AggregateDataInVariable needs a single-column Qq",
            Code::BadAggFunc => "unknown or non-monoid aggregate function in the mechanism spec",
            Code::AggColumnNotInQq => "aggregated column is not in the Qq output",
            Code::NoGroupingColumns => "every Qq column is aggregated; nothing left to group on",
            Code::IntervalsReservedColumn => "Qq output collides with start_snapshot/end_snapshot",
            Code::AggTypeMismatch => "numeric aggregate applied to a text-typed column",
            Code::AmbiguousColumn => "unqualified column name matches more than one table in scope",
            Code::UnknownQualifier => "column qualifier names no table or alias in FROM",
            Code::NestedAggregate => "aggregate call nested inside another aggregate",
            Code::UngroupedColumn => "non-aggregated column outside GROUP BY",
            Code::QsNonIntegerColumn => {
                "Qs column is not integer-typed; the call fails at the first non-integer id"
            }
            Code::MechanismArity => "mechanism UDF called with the wrong number of arguments",
            Code::InvalidClause => {
                "the engine rejects the clause: an aggregate or '*' where none is allowed, an \
                 ORDER BY position out of range, or a LIMIT that is not an integer literal"
            }
            Code::ParseError => "statement does not parse",
            Code::QsParseError => "Qs does not parse",
            Code::QqParseError => "Qq does not parse",
            Code::AsOfInQq => "Qq must not contain AS OF; RQL binds the snapshot per iteration",
            Code::CurrentSnapshotArity => "current_snapshot() takes no arguments",
            Code::CurrentSnapshotInQs => "current_snapshot() in Qs has no loop to bind to",
            Code::CurrentSnapshotOutsideLoop => "current_snapshot() outside an RQL loop body",
            Code::CurrentSnapshotInStringLiteral => {
                "current_snapshot inside a string literal is not substituted"
            }
            Code::AsOfInStringLiteral => "AS OF inside a string literal is not rewritten",
            Code::ForcedDeltaIneligibleShape => {
                "Forced delta policy but Qq is not a single-table scan"
            }
            Code::ForcedDeltaSnapshotDependentWhere => {
                "Forced delta policy but WHERE depends on the snapshot"
            }
            Code::AutoDeltaFallback => "Auto delta policy will fall back to the sequential path",
            Code::ForcedDeltaUdfInWhere => "Forced delta policy but WHERE calls a UDF",
            Code::MemoIneligible => {
                "Qq calls a user-defined function; its per-snapshot results are never memoized"
            }
            Code::ProfiledUdfOpaque => {
                "Qq calls a user-defined function; the profile report cannot attribute its \
                 time to engine phases"
            }
            Code::PruneIneligibleWhere => {
                "no Qq WHERE conjunct compares a bare column to a constant, so zone-map/bloom \
                 sidecars can never prune a page for this scan"
            }
            Code::MaintainIneligible => {
                "MAINTAIN QUERY requires a mechanism call with literal arguments and a \
                 deterministic, UDF-free Qq; this program cannot be registered as a standing \
                 query"
            }
            Code::DeadResultTable => {
                "a mechanism call populates a result table no later statement ever reads"
            }
            Code::UseBeforeDefine => {
                "a statement reads a result table that is only defined by a later statement"
            }
            Code::SnapshotSetMismatch => {
                "two mechanism calls run the same Qq over different snapshot sets, so the memoized \
                 results recorded by one do not line up with the other"
            }
            Code::RedundantRecompute => {
                "two mechanism calls with identical canonical fingerprints recompute the same \
                 result over the same snapshot set"
            }
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::AggTypeMismatch
            | Code::UngroupedColumn
            | Code::QsNonIntegerColumn
            | Code::CurrentSnapshotInStringLiteral
            | Code::AsOfInStringLiteral
            | Code::PruneIneligibleWhere
            | Code::DeadResultTable
            | Code::SnapshotSetMismatch
            | Code::RedundantRecompute => Severity::Warning,
            Code::AutoDeltaFallback | Code::MemoIneligible | Code::ProfiledUdfOpaque => {
                Severity::Info
            }
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory (delta-path explanations).
    Info,
    /// Suspicious but executable.
    Warning,
    /// The program will fail (or silently misbehave) at runtime.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which source text a diagnostic's span indexes into. Program-level
/// analysis remaps Qs/Qq spans into program coordinates; API-level
/// analysis (the session pre-flight) reports them against the argument
/// strings directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// The whole `.rql` program text.
    Program,
    /// The Qs argument string.
    Qs,
    /// The Qq argument string.
    Qq,
    /// The mechanism spec argument (aggregate function / pairs list).
    Spec,
}

/// How confidently a [`Fix`] can be applied without human review.
/// Mirrors rustc's applicability ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// Semantics-preserving; `rqlcheck --fix` applies it automatically.
    MachineApplicable,
    /// Plausibly what the author meant, but could change behavior —
    /// surfaced in output, never auto-applied.
    MaybeIncorrect,
    /// The replacement contains placeholder text a human must fill in.
    HasPlaceholders,
}

impl Applicability {
    /// Stable string form, used by the JSON/SARIF emitters.
    pub fn as_str(self) -> &'static str {
        match self {
            Applicability::MachineApplicable => "machine-applicable",
            Applicability::MaybeIncorrect => "maybe-incorrect",
            Applicability::HasPlaceholders => "has-placeholders",
        }
    }
}

impl fmt::Display for Applicability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concrete edit that resolves a diagnostic: replace the byte range
/// `span` (in the same source text the diagnostic's span indexes) with
/// `replacement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// Byte range to replace, in the diagnostic's [`SourceKind`] text.
    pub span: Span,
    /// Replacement text (may be empty: a pure deletion).
    pub replacement: String,
    /// How safely the edit can be applied unreviewed.
    pub applicability: Applicability,
}

/// One finding of the static analyzer.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (derived from the code).
    pub severity: Severity,
    /// Human-readable message (no code/severity prefix).
    pub message: String,
    /// Which text `span` indexes into.
    pub source: SourceKind,
    /// Byte range of the offending text, when locatable.
    pub span: Option<Span>,
    /// A structured edit resolving the finding, when one can be derived.
    pub fix: Option<Fix>,
    /// The constructor of the runtime error this finding preempts, when
    /// the finding came from one (else [`Diagnostic::runtime_error`] goes
    /// by the code).
    pub runtime: Option<fn(String) -> SqlError>,
}

impl Diagnostic {
    /// Build a diagnostic; severity comes from the code.
    pub fn new(
        code: Code,
        message: impl Into<String>,
        source: SourceKind,
        span: Option<Span>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            source,
            span,
            fix: None,
            runtime: None,
        }
    }

    /// Record the runtime error this finding preempts (builder style):
    /// its variant is the one [`Diagnostic::runtime_error`] raises.
    pub fn preempting(mut self, error: &SqlError) -> Diagnostic {
        self.runtime = Some(match error {
            SqlError::Unknown(_) => SqlError::Unknown,
            SqlError::Constraint(_) => SqlError::Constraint,
            SqlError::Udf(_) => SqlError::Udf,
            _ => SqlError::Invalid,
        });
        self
    }

    /// The error the runtime raises for this finding, carrying the code
    /// and message — so a pre-flight rejection matches (by variant) the
    /// mid-loop failure it preempts.
    pub fn runtime_error(&self) -> SqlError {
        let msg = format!("[{}] {}", self.code, self.message);
        if let Some(variant) = self.runtime {
            return variant(msg);
        }
        match self.code {
            Code::ResultTableExists => SqlError::Constraint(msg),
            Code::MechanismArity => SqlError::Udf(msg),
            Code::ParseError | Code::QsParseError | Code::QqParseError => match self.span {
                Some(span) => SqlError::parse_at(msg, span),
                None => SqlError::Invalid(msg),
            },
            Code::UnknownTable | Code::UseBeforeDefine => SqlError::Unknown(msg),
            _ => SqlError::Invalid(msg),
        }
    }

    /// Attach a structured fix (builder style).
    pub fn with_fix(
        mut self,
        span: Span,
        replacement: impl Into<String>,
        applicability: Applicability,
    ) -> Diagnostic {
        self.fix = Some(Fix {
            span,
            replacement: replacement.into(),
            applicability,
        });
        self
    }

    /// Render for humans: `severity[code]: message` plus, when a span is
    /// available, the `file:line:col` position, the offending source
    /// line, and a caret run under the span.
    pub fn render(&self, file: &str, src: &str) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let Some(span) = self.span else {
            out.push_str(&format!("\n  --> {file}"));
            return out;
        };
        let (line, col) = span.line_col(src);
        out.push_str(&format!("\n  --> {file}:{line}:{col}"));
        if let Some(text) = src.lines().nth(line - 1) {
            let width = src[span.start..span.end.min(src.len())]
                .chars()
                .count()
                .max(1);
            // Clamp the caret run to the line it starts on.
            let width = width.min(text.chars().count().saturating_sub(col - 1).max(1));
            out.push_str(&format!(
                "\n   | {text}\n   | {}{}",
                " ".repeat(col - 1),
                "^".repeat(width)
            ));
        }
        out
    }
}

/// Drop exact repeats: the same (code, source, span, message) surfaces
/// once per analysis, keeping the first occurrence (which carries the
/// fix, when any copy does). The pre-flight's historical-catalog
/// widening retry re-runs passes over the same text, and multi-reference
/// FROM lists resolve a missing table once per reference — both used to
/// re-emit identical findings.
pub fn dedupe(diags: &mut Vec<Diagnostic>) {
    let mut seen = std::collections::HashSet::new();
    diags.retain(|d| {
        seen.insert((
            d.code,
            d.source as u8,
            d.span.map(|s| (s.start, s.end)),
            d.message.clone(),
        ))
    });
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for code in Code::ALL {
            assert!(seen.insert(code.as_str()), "duplicate {code}");
            assert!(code.as_str().starts_with("RQL"));
            assert!(!code.description().is_empty());
        }
        assert_eq!(seen.len(), Code::ALL.len());
    }

    #[test]
    fn ranges_match_categories() {
        assert_eq!(Code::UnknownTable.as_str(), "RQL001");
        assert_eq!(Code::AsOfInQq.as_str(), "RQL101");
        assert_eq!(Code::ForcedDeltaIneligibleShape.as_str(), "RQL202");
        assert_eq!(Code::DeadResultTable.as_str(), "RQL310");
    }

    #[test]
    fn dataflow_codes_skip_reserved_runtime_range() {
        // RQL300–RQL309 belong to the runtime/server taxonomy.
        for code in Code::ALL {
            let n: u32 = code.as_str()[3..].parse().unwrap();
            assert!(!(300..310).contains(&n), "{code} is in the reserved range");
        }
    }

    #[test]
    fn with_fix_attaches_and_dedupe_keeps_first() {
        let span = Span::new(0, 3);
        let fixed = Diagnostic::new(
            Code::DeadResultTable,
            "dead",
            SourceKind::Program,
            Some(span),
        )
        .with_fix(span, "", Applicability::MachineApplicable);
        let bare = Diagnostic::new(
            Code::DeadResultTable,
            "dead",
            SourceKind::Program,
            Some(span),
        );
        let other = Diagnostic::new(Code::DeadResultTable, "dead", SourceKind::Program, None);
        let mut diags = vec![fixed, bare, other];
        dedupe(&mut diags);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].fix.is_some(), "first occurrence keeps its fix");
        assert_eq!(
            diags[0].fix.as_ref().unwrap().applicability,
            Applicability::MachineApplicable
        );
    }

    #[test]
    fn render_with_caret() {
        let src = "SELECT bogus FROM t";
        let d = Diagnostic::new(
            Code::UnknownColumn,
            "unknown column bogus",
            SourceKind::Qq,
            Some(Span::new(7, 12)),
        );
        let rendered = d.render("q.rql", src);
        assert!(rendered.contains("error[RQL002]"), "{rendered}");
        assert!(rendered.contains("q.rql:1:8"), "{rendered}");
        assert!(rendered.contains("^^^^^"), "{rendered}");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
