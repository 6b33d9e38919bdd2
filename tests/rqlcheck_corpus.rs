//! Golden-diagnostic corpus for `rqlcheck`.
//!
//! Every program under `tests/rqlcheck_corpus/bad/` declares the
//! diagnostics it must produce with `-- expect: RQLxxx[, RQLxxx...]`
//! comment lines; the harness checks each expected code is reported
//! with a source span, that no *unexpected errors* appear (warnings and
//! advisories may ride along only when expected), and that the corpus
//! as a whole exercises a healthy slice of the code registry.
//!
//! Programs under `good/` (and the runnable examples in `examples/rql/`)
//! must analyze clean — and, differentially, must execute on a live
//! session without a semantic error: whatever `rqlcheck` accepts, the
//! runtime accepts too. The reverse differential runs the bad corpus with
//! the pre-flight off: a program whose errors are all ones the runtime
//! raises must fail there, with the `SqlError` variant the pre-flight
//! would have raised for its first.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rql_repro::rql::analyze::{
    analyze_program, fix_program, parse_program, run_program, run_program_with_reports,
    Applicability, Code, Diagnostic, MechanismKind, Program, SchemaEnv, Severity, SourceKind,
};
use rql_repro::rql::{RqlSession, SqlError};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn rql_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rql"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .rql files under {}", dir.display());
    files
}

/// `-- expect:` annotations, in file order.
fn expected_codes(src: &str) -> Vec<String> {
    src.lines()
        .filter_map(|l| l.trim().strip_prefix("-- expect:"))
        .flat_map(|rest| rest.split(','))
        .map(|c| c.trim().to_owned())
        .filter(|c| !c.is_empty())
        .collect()
}

fn diagnostics_for(src: &str) -> Vec<Diagnostic> {
    match parse_program(src) {
        Err(d) => vec![*d],
        Ok(program) => {
            analyze_program(&program, &SchemaEnv::new(), &SchemaEnv::aux_default()).diagnostics
        }
    }
}

#[test]
fn bad_corpus_reports_expected_codes_with_spans() {
    let mut exercised: BTreeSet<&'static str> = BTreeSet::new();
    for file in rql_files(&repo_path("tests/rqlcheck_corpus/bad")) {
        let src = std::fs::read_to_string(&file).unwrap();
        let expected = expected_codes(&src);
        assert!(
            !expected.is_empty(),
            "{}: bad-corpus file lacks -- expect: annotations",
            file.display()
        );
        let diags = diagnostics_for(&src);
        for code in &expected {
            // The annotation must name a registered stable code.
            let registered = Code::ALL
                .iter()
                .find(|c| c.as_str() == code)
                .unwrap_or_else(|| panic!("{}: {code} is not a registered code", file.display()));
            let matching: Vec<&Diagnostic> =
                diags.iter().filter(|d| d.code.as_str() == *code).collect();
            assert!(
                !matching.is_empty(),
                "{}: expected {code}, got {:?}",
                file.display(),
                diags
            );
            assert!(
                matching.iter().any(|d| d.span.is_some()),
                "{}: {code} reported without a source span",
                file.display()
            );
            exercised.insert(registered.as_str());
        }
        // The expectations are complete for errors: anything
        // error-severity beyond them is an analyzer regression.
        for d in &diags {
            if d.severity == Severity::Error {
                assert!(
                    expected.iter().any(|c| c == d.code.as_str()),
                    "{}: unexpected error {d:?}",
                    file.display()
                );
            }
        }
    }
    assert!(
        exercised.len() >= 20,
        "corpus exercises only {} distinct codes: {exercised:?}",
        exercised.len()
    );
}

#[test]
fn good_corpus_analyzes_clean_and_executes() {
    let mut dirs = vec![repo_path("tests/rqlcheck_corpus/good")];
    dirs.push(repo_path("examples/rql"));
    for dir in dirs {
        for file in rql_files(&dir) {
            let src = std::fs::read_to_string(&file).unwrap();
            let program =
                parse_program(&src).unwrap_or_else(|d| panic!("{}: {d:?}", file.display()));
            let analysis = analyze_program(&program, &SchemaEnv::new(), &SchemaEnv::aux_default());
            let errors: Vec<&Diagnostic> = analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{}: {errors:?}", file.display());
            // Differential check: accepted programs run without error.
            let session = RqlSession::with_defaults().unwrap();
            run_program(&session, &program)
                .unwrap_or_else(|e| panic!("{}: runtime rejected: {e:?}", file.display()));
        }
    }
}

/// Whether a runtime failure corresponds to `code`. The rest are static
/// findings: RQL014/018/019 are warnings about values the runtime coerces
/// and folds on; RQL1xx are rewrite-safety findings (the AST rewrite never
/// reaches a literal, and a misplaced `current_snapshot()` fails, if at
/// all, only as a UDF error when a row reaches it); RQL2xx explain delta,
/// memo, pruning and MAINTAIN eligibility, which pick a path rather than
/// fail a query — except the `Forced` refusals RQL202/203/205, which the
/// runtime raises after binding; RQL3xx are whole-program dataflow
/// findings.
fn runtime_visible(code: Code) -> bool {
    let s = code.as_str();
    (s.starts_with("RQL0") && !matches!(s, "RQL014" | "RQL018" | "RQL019"))
        || matches!(s, "RQL202" | "RQL203" | "RQL205")
}

/// Run `program` a statement at a time, declaring a snapshot before each
/// mechanism call so that its Qq runs at least once.
fn run_with_snapshots(session: &RqlSession, program: &Program) -> Result<(), SqlError> {
    for stmt in &program.statements {
        let text = stmt.text.to_ascii_lowercase();
        if MechanismKind::ALL
            .iter()
            .any(|k| text.contains(k.udf_name()))
        {
            session.declare_snapshot(None)?;
        }
        let one = Program {
            statements: vec![stmt.clone()],
            ..program.clone()
        };
        run_program(session, &one)?;
    }
    Ok(())
}

#[test]
fn bad_corpus_fails_at_runtime_with_the_preflight_variant() {
    let mut checked = 0;
    for file in rql_files(&repo_path("tests/rqlcheck_corpus/bad")) {
        let src = std::fs::read_to_string(&file).unwrap();
        let program = parse_program(&src).unwrap_or_else(|d| panic!("{}: {d:?}", file.display()));
        let analysis = analyze_program(&program, &SchemaEnv::new(), &SchemaEnv::aux_default());
        // Checked: programs with errors, each one the runtime raises.
        let mut errors = (analysis.diagnostics.iter()).filter(|d| d.severity == Severity::Error);
        if !errors.clone().all(|d| runtime_visible(d.code)) {
            continue;
        }
        let Some(first) = errors.next() else { continue };
        let preflight = first.runtime_error();
        let session = RqlSession::with_defaults().unwrap();
        session.set_preflight(false);
        let runtime = run_with_snapshots(&session, &program)
            .expect_err(&format!("{}: the runtime accepts it", file.display()));
        assert_eq!(
            std::mem::discriminant(&runtime),
            std::mem::discriminant(&preflight),
            "{}: the runtime raised {runtime:?}, the pre-flight {preflight:?}",
            file.display()
        );
        checked += 1;
    }
    assert!(checked >= 25, "only {checked} programs reached the runtime");
}

/// `--fix` on the bad corpus must converge: the fixpoint loop is bounded
/// and every file settles rather than oscillating.
#[test]
fn bad_corpus_fixes_converge() {
    for file in rql_files(&repo_path("tests/rqlcheck_corpus/bad")) {
        let src = std::fs::read_to_string(&file).unwrap();
        let outcome = fix_program(&src, &SchemaEnv::new(), &SchemaEnv::aux_default());
        assert!(
            outcome.converged,
            "{}: fixes did not converge after {} rounds",
            file.display(),
            outcome.iterations
        );
        // Whatever was machine-applicably fixed stays fixed: the final
        // text carries no further machine-applicable fixes.
        let diags = diagnostics_for(&outcome.src);
        let leftover: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| {
                d.source == SourceKind::Program
                    && d.fix
                        .as_ref()
                        .is_some_and(|f| f.applicability == Applicability::MachineApplicable)
            })
            .collect();
        assert!(leftover.is_empty(), "{}: {leftover:?}", file.display());
    }
}

/// The `fix/` fixture pair: fixing `before.rql` must reproduce
/// `after.rql` byte for byte, the fixed program must analyze clean of
/// every machine-applicably fixed code, and both programs must produce
/// identical SELECT output when executed on fresh sessions.
#[test]
fn fix_fixture_matches_golden_and_executes_identically() {
    let before =
        std::fs::read_to_string(repo_path("tests/rqlcheck_corpus/fix/before.rql")).unwrap();
    let after = std::fs::read_to_string(repo_path("tests/rqlcheck_corpus/fix/after.rql")).unwrap();

    let outcome = fix_program(&before, &SchemaEnv::new(), &SchemaEnv::aux_default());
    assert!(outcome.converged, "fix loop did not converge");
    assert!(
        outcome.applied >= 3,
        "expected >= 3 fixes, got {}",
        outcome.applied
    );
    assert_eq!(
        outcome.src, after,
        "fixed before.rql diverges from golden after.rql"
    );

    // The fixed program is warning-free for the fixed codes.
    let diags = diagnostics_for(&after);
    for d in &diags {
        assert!(
            !matches!(
                d.code,
                Code::DeadResultTable | Code::RedundantRecompute | Code::PruneIneligibleWhere
            ),
            "after.rql still reports {d:?}"
        );
    }

    // Differential execution: the fix must not change observable output.
    let run = |src: &str| {
        let program = parse_program(src).unwrap_or_else(|d| panic!("{d:?}"));
        let session = RqlSession::with_defaults().unwrap();
        run_program_with_reports(&session, &program)
            .unwrap_or_else(|e| panic!("runtime rejected: {e:?}"))
    };
    let before_run = run(&before);
    let after_run = run(&outcome.src);
    assert_eq!(
        before_run.tables.len(),
        after_run.tables.len(),
        "fix changed the number of SELECT results"
    );
    for (b, a) in before_run.tables.iter().zip(&after_run.tables) {
        assert_eq!(b.columns, a.columns, "fix changed SELECT columns");
        assert_eq!(b.rows, a.rows, "fix changed SELECT rows");
    }
}
