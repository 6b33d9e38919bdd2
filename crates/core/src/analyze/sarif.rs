//! SARIF 2.1.0 output for `rqlcheck --format sarif`.
//!
//! Hand-rolled JSON (the workspace has no serde): one `run` whose tool
//! driver lists the full diagnostic registry ([`Code::ALL`]) as rules,
//! one `artifact` per linted file, one `result` per diagnostic, and —
//! when a diagnostic carries a [`Fix`] in program coordinates — a SARIF
//! `fix` with a single `replacement` (deletedRegion + insertedContent).
//! Regions carry both `charOffset`/`charLength` (byte offsets, matching
//! the analyzer's spans) and 1-based line/column, which is what CI
//! annotation UIs consume.
//!
//! `scripts/validate_sarif.py` checks this output against the vendored
//! minimal schema in CI.

use rql_sqlengine::Span;
use rql_trace::json_str;

use crate::analyze::diag::{Code, Diagnostic, Severity, SourceKind};

/// One linted file: path, source text, and its diagnostics (spans in
/// program coordinates).
#[derive(Debug, Clone, Copy)]
pub struct SarifFile<'a> {
    /// Path as reported (artifact URI).
    pub path: &'a str,
    /// The program source the spans index into.
    pub src: &'a str,
    /// Findings for this file.
    pub diagnostics: &'a [Diagnostic],
}

/// Render a complete SARIF 2.1.0 log for a set of linted files.
pub fn render_sarif(files: &[SarifFile<'_>]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    out.push_str("\"version\":\"2.1.0\",\"runs\":[{");
    out.push_str("\"tool\":{\"driver\":{\"name\":\"rqlcheck\",");
    out.push_str("\"informationUri\":\"https://example.invalid/rqlcheck\",");
    out.push_str(&format!(
        "\"version\":{},",
        json_str(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("\"rules\":[");
    for (i, code) in Code::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
             \"defaultConfiguration\":{{\"level\":{}}}}}",
            json_str(code.as_str()),
            json_str(code.description()),
            json_str(level(code.severity())),
        ));
    }
    out.push_str("]}},\"artifacts\":[");
    for (i, f) in files.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"location\":{{\"uri\":{}}}}}",
            json_str(f.path)
        ));
    }
    out.push_str("],\"results\":[");
    let mut first = true;
    for (file_idx, f) in files.iter().enumerate() {
        for d in f.diagnostics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&render_result(d, file_idx, f));
        }
    }
    out.push_str("]}]}");
    out
}

fn render_result(d: &Diagnostic, file_idx: usize, f: &SarifFile<'_>) -> String {
    let rule_index = Code::ALL
        .iter()
        .position(|c| *c == d.code)
        .unwrap_or_default();
    let mut out = format!(
        "{{\"ruleId\":{},\"ruleIndex\":{rule_index},\"level\":{},\
         \"message\":{{\"text\":{}}}",
        json_str(d.code.as_str()),
        json_str(level(d.severity)),
        json_str(&d.message),
    );
    out.push_str(&format!(
        ",\"locations\":[{{\"physicalLocation\":{{\
         \"artifactLocation\":{{\"uri\":{},\"index\":{file_idx}}}",
        json_str(f.path)
    ));
    if let Some(span) = d.span {
        out.push_str(&format!(",\"region\":{}", region(span, f.src)));
    }
    out.push_str("}}]");
    // Only fixes whose span indexes the program text are emitted: SARIF
    // replacements edit the artifact, and Qs/Qq-coordinate spans index
    // argument strings, not the file.
    if let Some(fix) = d.fix.as_ref().filter(|_| d.source == SourceKind::Program) {
        out.push_str(&format!(
            ",\"fixes\":[{{\"description\":{{\"text\":{}}},\
             \"artifactChanges\":[{{\"artifactLocation\":{{\"uri\":{},\"index\":{file_idx}}},\
             \"replacements\":[{{\"deletedRegion\":{},\
             \"insertedContent\":{{\"text\":{}}}}}]}}]}}]",
            json_str(&format!(
                "{} ({})",
                d.code.description(),
                fix.applicability.as_str()
            )),
            json_str(f.path),
            region(fix.span, f.src),
            json_str(&fix.replacement),
        ));
    }
    out.push('}');
    out
}

/// A SARIF region: byte offsets plus 1-based line/column endpoints.
fn region(span: Span, src: &str) -> String {
    let (sl, sc) = line_col(src, span.start);
    let (el, ec) = line_col(src, span.end);
    format!(
        "{{\"charOffset\":{},\"charLength\":{},\"startLine\":{sl},\
         \"startColumn\":{sc},\"endLine\":{el},\"endColumn\":{ec}}}",
        span.start,
        span.end.saturating_sub(span.start),
    )
}

/// 1-based line/column of a byte offset (clamped to the source length).
fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let before = &src[..offset];
    let line = before.matches('\n').count() + 1;
    let col = before
        .rfind('\n')
        .map_or(offset, |nl| offset - nl - 1)
        .saturating_add(1);
    (line, col)
}

/// SARIF levels: `error`, `warning`, `note`.
fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::analyze::diag::Applicability;

    #[test]
    fn sarif_structure_and_escaping() {
        let src = "SELECT \"x\"\nFROM t;\n";
        let d = Diagnostic::new(
            Code::UnknownTable,
            "unknown table \"t\"",
            SourceKind::Program,
            Some(Span::new(16, 17)),
        )
        .with_fix(Span::new(16, 17), "u", Applicability::MachineApplicable);
        let log = render_sarif(&[SarifFile {
            path: "a.rql",
            src,
            diagnostics: std::slice::from_ref(&d),
        }]);
        assert!(log.contains("\"version\":\"2.1.0\""), "{log}");
        assert!(log.contains("\"ruleId\":\"RQL001\""), "{log}");
        assert!(log.contains("\\\"t\\\""), "escaped quotes: {log}");
        assert!(log.contains("\"startLine\":2"), "{log}");
        assert!(log.contains("\"deletedRegion\""), "{log}");
        // Every rule in the registry is listed.
        for code in Code::ALL {
            assert!(log.contains(code.as_str()), "missing rule {code}");
        }
    }

    #[test]
    fn line_col_basics() {
        let src = "ab\ncd";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 4), (2, 2));
    }
}
