//! Whole-program dataflow: a def-use graph over result tables.
//!
//! Program-level analysis ([`super::program`]) walks statements in order
//! and collects one [`DfStmt`] fact per statement: mechanism calls
//! *define* their result table (and *use* the auxiliary tables their Qs
//! enumerates), plain auxiliary statements *use* the tables they read or
//! mutate and *define* the tables their DDL creates. The forward passes
//! here then emit the `RQL31x` family:
//!
//! * **RQL310** — a result table is written but no later statement ever
//!   reads it (machine-applicable fix: delete the call);
//! * **RQL311** — a statement reads a result table that only a *later*
//!   statement defines (fix: reorder, maybe-incorrect);
//! * **RQL312** — two calls run the same canonical Qq over *different*
//!   snapshot sets, so the memo's result entries recorded by one do not
//!   line up with the other (its page entries do: they are keyed by page
//!   version, not snapshot) (fix: reuse the earlier Qs);
//! * **RQL313** — two calls have identical canonical fingerprints (same
//!   mechanism, Qq, Qs, spec) into different tables (machine-applicable
//!   fix: copy the earlier result table instead of recomputing).
//!
//! Canonical comparison reuses the memo store's fingerprint text: the
//! [`render_select`] of the parsed query, exactly what
//! `memoize::qq_fingerprint` hashes.

use rql_sqlengine::ast::{SelectItem, SelectStmt};
use rql_sqlengine::Span;

use crate::analyze::diag::{Applicability, Code, Diagnostic, SourceKind};
use crate::mechanism::MechanismKind;
use crate::rewrite::render_select;

/// Dataflow facts for one mechanism call (literal arguments only).
#[derive(Debug, Clone)]
pub(crate) struct MechNode {
    /// Which mechanism.
    pub kind: MechanismKind,
    /// Result table, lowercase.
    pub table: String,
    /// Auxiliary tables the Qs enumerates (FROM + JOIN), lowercase.
    pub qs_reads: Vec<String>,
    /// Canonical Qs text (render of the projected enclosing SELECT).
    pub qs_canon: String,
    /// Canonical Qq text, `None` when Qq does not parse.
    pub qq_canon: Option<String>,
    /// Whether the memo store would cache this Qq's per-snapshot rows.
    pub memo_eligible: bool,
    /// The spec argument, when the mechanism takes one.
    pub spec: Option<String>,
    /// Span of the mechanism UDF name, program coordinates.
    pub fn_span: Option<Span>,
    /// The full enclosing SELECT of the call statement.
    pub enclosing: SelectStmt,
    /// The projection item holding the mechanism call.
    pub call_item: SelectItem,
}

/// Dataflow facts for a plain (non-mechanism) statement.
#[derive(Debug, Clone)]
pub(crate) struct PlainNode {
    /// Whether the statement runs on the auxiliary database.
    pub on_aux: bool,
    /// Tables read or mutated (lowercase), with the span of the
    /// reference in program coordinates when locatable.
    pub reads: Vec<(String, Option<Span>)>,
    /// Tables the statement's DDL creates (lowercase).
    pub writes: Vec<String>,
}

/// What the dataflow passes know about one statement.
#[derive(Debug, Clone)]
pub(crate) enum DfNode {
    /// A mechanism call with literal arguments.
    Mechanism(Box<MechNode>),
    /// Any other statement that parsed.
    Plain(PlainNode),
    /// Unparseable, or a mechanism call with dynamic arguments — it
    /// could read or define anything, so def-use passes stand down.
    Opaque,
}

/// One statement's dataflow entry, with its source extent.
#[derive(Debug, Clone)]
pub(crate) struct DfStmt {
    /// The classified node.
    pub node: DfNode,
    /// Statement text plus the trailing `;` (and one trailing newline),
    /// program coordinates — the deletion extent for RQL310.
    pub range: Span,
    /// Statement text only (what a replacement must produce).
    pub text_span: Span,
}

/// Extend a statement's text span over its trailing `;` and one
/// following newline, so deleting the range leaves no stray terminator.
pub(crate) fn stmt_range(src: &str, text_span: Span) -> Span {
    let bytes = src.as_bytes();
    let mut end = text_span.end;
    while end < bytes.len() && (bytes[end] as char).is_ascii_whitespace() && bytes[end] != b'\n' {
        end += 1;
    }
    if end < bytes.len() && bytes[end] == b';' {
        end += 1;
        if end < bytes.len() && bytes[end] == b'\n' {
            end += 1;
        }
    }
    Span::new(text_span.start, end)
}

/// Whether an `--@aux` directive line sits in `src[a..b]` (the gap
/// before a statement). Deleting the statement would re-aim such a
/// directive at whatever follows, so fixes near one downgrade to
/// maybe-incorrect.
fn directive_between(src: &str, a: usize, b: usize) -> bool {
    src.get(a..b)
        .is_some_and(|gap| gap.lines().any(|l| l.trim_start().starts_with("--@")))
}

/// Run every dataflow pass over the collected statement facts, pushing
/// findings (program coordinates) onto `diags`.
pub(crate) fn check_dataflow(src: &str, stmts: &[DfStmt], diags: &mut Vec<Diagnostic>) {
    // A dynamic mechanism call (or unparseable statement) may read or
    // define tables the graph cannot see; liveness passes stand down,
    // fingerprint passes (which only compare literal calls) still run.
    let opaque = stmts.iter().any(|s| matches!(s.node, DfNode::Opaque));
    if !opaque {
        dead_result_tables(src, stmts, diags);
        use_before_define(src, stmts, diags);
    }
    snapshot_set_mismatch(stmts, diags);
    redundant_recompute(stmts, opaque, diags);
}

/// Whether any statement after index `i` reads `table` on the aux side.
fn read_after(stmts: &[DfStmt], i: usize, table: &str) -> bool {
    stmts[i + 1..]
        .iter()
        .any(|later| aux_uses(later).iter().any(|(t, _)| t == table))
}

/// Auxiliary-side tables statement `s` uses.
fn aux_uses(s: &DfStmt) -> Vec<(String, Option<Span>)> {
    match &s.node {
        DfNode::Mechanism(m) => m.qs_reads.iter().map(|t| (t.clone(), m.fn_span)).collect(),
        DfNode::Plain(p) if p.on_aux => p.reads.clone(),
        _ => Vec::new(),
    }
}

/// Auxiliary-side tables statement `s` defines.
fn aux_defs(s: &DfStmt) -> Vec<String> {
    match &s.node {
        DfNode::Mechanism(m) => vec![m.table.clone()],
        DfNode::Plain(p) if p.on_aux => p.writes.clone(),
        _ => Vec::new(),
    }
}

/// RQL310: a mechanism call whose result table no later statement reads.
fn dead_result_tables(src: &str, stmts: &[DfStmt], diags: &mut Vec<Diagnostic>) {
    for (i, s) in stmts.iter().enumerate() {
        let DfNode::Mechanism(m) = &s.node else {
            continue;
        };
        if read_after(stmts, i, &m.table) {
            continue;
        }
        let prev_end = stmts[..i].last().map_or(0, |p| p.range.end);
        // Deleting a statement that an --@aux (or other) directive
        // precedes would re-aim the directive; keep the edit but demand
        // review.
        let applicability = if directive_between(src, prev_end, s.range.start) {
            Applicability::MaybeIncorrect
        } else {
            Applicability::MachineApplicable
        };
        diags.push(
            Diagnostic::new(
                Code::DeadResultTable,
                format!(
                    "result table '{}' is populated by {} but never read by any later \
                     statement; the whole snapshot loop is wasted work",
                    m.table,
                    m.kind.udf_name(),
                ),
                SourceKind::Program,
                m.fn_span,
            )
            .with_fix(s.range, "", applicability),
        );
    }
}

/// RQL311: a statement reads a result table only a later statement
/// defines. Rides along with the resolver's unknown-table error and
/// explains *why* the name will exist eventually.
fn use_before_define(src: &str, stmts: &[DfStmt], diags: &mut Vec<Diagnostic>) {
    use std::collections::HashMap;
    let mut first_def: HashMap<String, usize> = HashMap::new();
    for (i, s) in stmts.iter().enumerate() {
        for t in aux_defs(s) {
            first_def.entry(t).or_insert(i);
        }
    }
    for (i, s) in stmts.iter().enumerate() {
        for (table, span) in aux_uses(s) {
            let Some(&def_idx) = first_def.get(table.as_str()) else {
                continue;
            };
            if def_idx <= i {
                continue;
            }
            let def = &stmts[def_idx];
            // Reorder fix: move the reading statement (with any directive
            // line glued to it) after the defining statement.
            let prev_end = stmts[..i].last().map_or(0, |p| p.range.end);
            let mut use_start = s.range.start;
            if let Some(gap) = src.get(prev_end..s.range.start) {
                let mut off = 0;
                for line in gap.split_inclusive('\n') {
                    if line.trim_start().starts_with("--@") {
                        use_start = prev_end + off;
                        break;
                    }
                    off += line.len();
                }
            }
            let fix = src.get(use_start..def.range.end).map(|region| {
                let moved = &region[..s.range.end - use_start];
                let rest = &region[s.range.end - use_start..];
                (
                    Span::new(use_start, def.range.end),
                    format!("{}{}\n", rest.trim_start_matches('\n'), moved.trim_end()),
                )
            });
            let mut d = Diagnostic::new(
                Code::UseBeforeDefine,
                format!(
                    "'{table}' is read here but only defined by statement {} below; \
                     move this statement after it",
                    def_idx + 1
                ),
                SourceKind::Program,
                span,
            );
            if let Some((fspan, replacement)) = fix {
                d = d.with_fix(fspan, replacement, Applicability::MaybeIncorrect);
            }
            diags.push(d);
        }
    }
}

/// RQL312: same canonical Qq, different snapshot set. Only interesting
/// for a memo-eligible Qq, whose per-snapshot result entries one call
/// records and the other would reuse; page entries are keyed by page
/// version and line up across snapshot sets anyway.
fn snapshot_set_mismatch(stmts: &[DfStmt], diags: &mut Vec<Diagnostic>) {
    let mechs: Vec<(usize, &MechNode)> = mech_nodes(stmts);
    for (jj, &(j_idx, mj)) in mechs.iter().enumerate() {
        let Some(qq_j) = &mj.qq_canon else { continue };
        if !mj.memo_eligible {
            continue;
        }
        let Some(&(_, mi)) = mechs[..jj]
            .iter()
            .find(|(_, mi)| mi.qq_canon.as_ref() == Some(qq_j) && mi.qs_canon != mj.qs_canon)
        else {
            continue;
        };
        // Rebuild this statement on the earlier call's snapshot set: the
        // earlier enclosing SELECT with this call as its projection.
        let mut sel = mi.enclosing.clone();
        sel.items = vec![mj.call_item.clone()];
        diags.push(
            Diagnostic::new(
                Code::SnapshotSetMismatch,
                format!(
                    "this loop runs the same Qq as the earlier call writing '{}' but over a \
                     different snapshot set ({} vs {}); the memoized results recorded there do \
                     not line up with this enumeration",
                    mi.table, mi.qs_canon, mj.qs_canon,
                ),
                SourceKind::Program,
                mj.fn_span,
            )
            .with_fix(
                stmts[j_idx].text_span,
                render_select(&sel),
                Applicability::MaybeIncorrect,
            ),
        );
    }
}

/// RQL313: identical canonical fingerprint (mechanism, Qq, Qs, spec)
/// into a different table — a straight recomputation. When liveness is
/// computable, pairs where either table is dead are left to RQL310: the
/// copy-fix would otherwise reference a statement the dead-table fix
/// deletes in the same round.
fn redundant_recompute(stmts: &[DfStmt], opaque: bool, diags: &mut Vec<Diagnostic>) {
    let mechs: Vec<(usize, &MechNode)> = mech_nodes(stmts);
    for (jj, &(j_idx, mj)) in mechs.iter().enumerate() {
        if mj.qq_canon.is_none() {
            continue;
        }
        if !opaque && !read_after(stmts, j_idx, &mj.table) {
            continue;
        }
        let Some(&(i_idx, mi)) = mechs[..jj].iter().find(|(_, mi)| {
            mi.kind == mj.kind
                && mi.qq_canon == mj.qq_canon
                && mi.qs_canon == mj.qs_canon
                && mi.spec == mj.spec
                && mi.table != mj.table
        }) else {
            continue;
        };
        if !opaque && !read_after(stmts, i_idx, &mi.table) {
            continue;
        }
        diags.push(
            Diagnostic::new(
                Code::RedundantRecompute,
                format!(
                    "identical mechanism call already populates '{}' (same Qq, snapshot set, \
                     and spec); copy that table instead of re-running the loop",
                    mi.table,
                ),
                SourceKind::Program,
                mj.fn_span,
            )
            .with_fix(
                stmts[j_idx].text_span,
                // The leading newline guarantees the directive starts its
                // own line even when the statement did not.
                format!(
                    "\n--@aux\nCREATE TABLE {} AS SELECT * FROM {}",
                    mj.table, mi.table
                ),
                Applicability::MachineApplicable,
            ),
        );
    }
}

fn mech_nodes(stmts: &[DfStmt]) -> Vec<(usize, &MechNode)> {
    stmts
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match &s.node {
            DfNode::Mechanism(m) => Some((i, m.as_ref())),
            _ => None,
        })
        .collect()
}
