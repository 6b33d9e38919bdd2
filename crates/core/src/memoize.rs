//! Qq memoization: content-addressed reuse of per-snapshot results.
//!
//! Retro snapshots are immutable, so a Qq result at snapshot `S` can
//! never change — the mechanisms may therefore skip re-executing Qq
//! whenever a [`MemoStore`] holds its result for `(Qq, S)`. This module
//! is the glue between the mechanisms and the store:
//!
//! * [`qq_fingerprint`] — FNV-1a over the *canonical pre-rewrite* Qq
//!   rendering ([`crate::rewrite::render_select`]), so whitespace and
//!   keyword-case differences collapse and the per-iteration `AS OF`
//!   injection never fragments keys. Identifier case is kept (string
//!   literals are case-sensitive; a case variant only costs a spurious
//!   miss). The fingerprint deliberately excludes the mechanism: a Qq's
//!   per-snapshot rows are mechanism-independent, so `CollateData` and
//!   `AggregateDataInTable` over the same Qq share entries.
//! * [`memo_eligible`] — a Qq calling a user-defined function anywhere
//!   is not memoizable (UDFs may close over external state); builtins,
//!   aggregates and `current_snapshot()` are engine-evaluated and fine.
//!   The rqlcheck diagnostic `RQL207` explains this statically.
//! * [`page_version_vector`] — hash of the snapshot's SPT mapping plus
//!   the touched tables' roots and index sets, verified on every cache
//!   hit. Snapshot bytes are immutable, so this is defensive: it guards
//!   ad-hoc index drift and page-archival movement at the cost of a
//!   spurious miss, never a wrong answer.
//! * [`QqMemo`] — the per-computation handle the mechanism loops use to
//!   look up and record results ([`EntryKind::Result`]) and delta-chain
//!   seeds ([`EntryKind::Seed`]).

use std::sync::Arc;

use rql_memo::{EntryKind, MemoKey, MemoStore, MemoValue};
use rql_retro::SnapshotReader;
use rql_sqlengine::ast::{is_aggregate_name, Expr, SelectItem, SelectStmt};
use rql_sqlengine::{Catalog, Database, ExecStats, QueryResult, ScannerSeed};

use crate::rewrite::{render_select, CURRENT_SNAPSHOT};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content fingerprint of a Qq: FNV-1a of its canonical rendering
/// *before* any per-iteration rewrite, so every snapshot of every
/// session keys the same query text identically.
pub fn qq_fingerprint(parsed: &SelectStmt) -> u64 {
    fnv1a(render_select(parsed).as_bytes())
}

/// Does the expression call a user-defined function anywhere? Mirrors
/// the delta scanner's rule: builtins, aggregates and
/// `current_snapshot()` are engine-evaluated; anything else resolves to
/// a UDF whose output may vary between invocations.
pub(crate) fn expr_calls_udf(e: &Expr) -> bool {
    match e {
        Expr::Function { name, args, .. } => {
            let builtin = matches!(
                name.as_str(),
                "abs"
                    | "length"
                    | "lower"
                    | "upper"
                    | "typeof"
                    | "ifnull"
                    | "nullif"
                    | "round"
                    | "substr"
                    | "coalesce"
            );
            (!builtin && !is_aggregate_name(name) && name != CURRENT_SNAPSHOT)
                || args.iter().any(expr_calls_udf)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_calls_udf(expr),
        Expr::Binary { lhs, rhs, .. } => expr_calls_udf(lhs) || expr_calls_udf(rhs),
        Expr::InList { expr, list, .. } => expr_calls_udf(expr) || list.iter().any(expr_calls_udf),
        Expr::Between { expr, lo, hi, .. } => {
            expr_calls_udf(expr) || expr_calls_udf(lo) || expr_calls_udf(hi)
        }
        Expr::Like { expr, pattern, .. } => expr_calls_udf(expr) || expr_calls_udf(pattern),
        Expr::Case {
            operand,
            arms,
            else_branch,
        } => {
            operand.as_deref().is_some_and(expr_calls_udf)
                || arms
                    .iter()
                    .any(|(w, t)| expr_calls_udf(w) || expr_calls_udf(t))
                || else_branch.as_deref().is_some_and(expr_calls_udf)
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Star => false,
    }
}

/// Whether a Qq's per-snapshot result is safe to memoize: deterministic
/// given the snapshot alone, i.e. no user-defined function call in any
/// clause. `current_snapshot()` is fine — the fingerprint keys the
/// pre-rewrite text and the snapshot id is part of the cache key.
pub fn memo_eligible(parsed: &SelectStmt) -> bool {
    let item_udf = parsed.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_calls_udf(expr),
        SelectItem::Wildcard | SelectItem::TableWildcard(_) => false,
    });
    !(item_udf
        || parsed.joins.iter().any(|j| expr_calls_udf(&j.on))
        || parsed.where_clause.as_ref().is_some_and(expr_calls_udf)
        || parsed.group_by.iter().any(expr_calls_udf)
        || parsed.having.as_ref().is_some_and(expr_calls_udf)
        || parsed.order_by.iter().any(|(e, _)| expr_calls_udf(e))
        || parsed.limit.as_ref().is_some_and(expr_calls_udf))
}

/// Page-version vector of `parsed`'s footprint at one snapshot: the
/// SPT's [`version_hash`](rql_retro::Spt::version_hash) combined with
/// every touched table's name, heap root, and (sorted) index set.
/// `None` when a touched table is absent from the snapshot's catalog —
/// such an execution errors anyway, so nothing is memoized for it.
pub fn page_version_vector(reader: &SnapshotReader, parsed: &SelectStmt) -> Option<u64> {
    let catalog = Catalog::load(reader).ok()?;
    let mut h = reader.spt().version_hash();
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut names: Vec<String> = parsed
        .from
        .iter()
        .map(|t| t.name.to_ascii_lowercase())
        .chain(
            parsed
                .joins
                .iter()
                .map(|j| j.table.name.to_ascii_lowercase()),
        )
        .collect();
    names.sort();
    names.dedup();
    for name in &names {
        let info = catalog.require_table(name).ok()?;
        fold(name.as_bytes());
        fold(&info.root.0.to_le_bytes());
        for idx in catalog.indexes_on(name) {
            fold(idx.schema.name.as_bytes());
            fold(&idx.root.0.to_le_bytes());
        }
    }
    Some(h)
}

/// Per-computation memoization handle: one fingerprint, many snapshots.
/// Constructed once per mechanism loop; `None` when no store is
/// attached or the Qq is not memo-eligible, which callers treat as
/// "memoization off" with zero overhead.
pub(crate) struct QqMemo {
    store: Arc<MemoStore>,
    fingerprint: u64,
    /// The database's pruning-sidecar configuration hash
    /// ([`Database::filter_config_hash`]), XOR-folded into every page
    /// version vector. Sound pruning never changes a result, so this is
    /// defensive versioning: changing the filter-column set (or the
    /// sidecar format) invalidates entries recorded under the old
    /// configuration instead of trusting them across the boundary.
    config_salt: u64,
}

impl QqMemo {
    /// Attach to `store` for one parsed Qq, if eligible. `snap` is the
    /// snapshot-side database whose pruning configuration salts the page
    /// version vectors.
    pub(crate) fn attach(
        store: Option<Arc<MemoStore>>,
        snap: &Database,
        parsed: &SelectStmt,
    ) -> Option<QqMemo> {
        let store = store?;
        if !memo_eligible(parsed) {
            return None;
        }
        Some(QqMemo {
            fingerprint: qq_fingerprint(parsed),
            config_salt: snap.filter_config_hash(),
            store,
        })
    }

    /// Page version vector salted with the pruning configuration.
    fn pvv(&self, reader: &SnapshotReader, parsed: &SelectStmt) -> Option<u64> {
        page_version_vector(reader, parsed).map(|h| h ^ self.config_salt)
    }

    fn key(&self, sid: u64, kind: EntryKind) -> MemoKey {
        MemoKey {
            fingerprint: self.fingerprint,
            snap_id: sid,
            kind,
        }
    }

    fn hit_result(columns: Vec<String>, rows: Vec<rql_sqlengine::Row>) -> QueryResult {
        QueryResult {
            columns,
            rows,
            // A hit costs no page reads and no evaluation; zeroed stats
            // are what make the warm-path cost model reflect that.
            stats: ExecStats::default(),
            plan: vec!["memo hit".to_owned()],
        }
    }

    /// Look up the memoized Qq result at `sid`, verifying the page
    /// version through `reader` when the caller has the snapshot open
    /// (the chain source does, so verification is nearly free). Without
    /// one the snapshot is opened only inside the verification closure,
    /// so a cold miss never builds an SPT.
    pub(crate) fn lookup_result(
        &self,
        snap: &Database,
        reader: Option<&SnapshotReader>,
        parsed: &SelectStmt,
        sid: u64,
    ) -> Option<QueryResult> {
        let key = self.key(sid, EntryKind::Result);
        let pvv = || match reader {
            Some(reader) => self.pvv(reader, parsed),
            None => self.pvv(&snap.store().open_snapshot(sid).ok()?, parsed),
        };
        match self.store.lookup(&key, pvv) {
            Some(MemoValue::Result { columns, rows }) => Some(Self::hit_result(columns, rows)),
            _ => None,
        }
    }

    /// Record a Qq result computed at `sid` (`reader` as in
    /// [`Self::lookup_result`]).
    pub(crate) fn record_result(
        &self,
        snap: &Database,
        reader: Option<&SnapshotReader>,
        parsed: &SelectStmt,
        sid: u64,
        result: &QueryResult,
    ) {
        let pvv = match reader {
            Some(reader) => self.pvv(reader, parsed),
            None => (snap.store().open_snapshot(sid).ok()).and_then(|r| self.pvv(&r, parsed)),
        };
        if let Some(pvv) = pvv {
            self.store.insert(
                self.key(sid, EntryKind::Result),
                pvv,
                MemoValue::Result {
                    columns: result.columns.clone(),
                    rows: result.rows.clone(),
                },
            );
        }
    }

    /// Look up the delta-chain seed exported at `sid`.
    pub(crate) fn lookup_seed(
        &self,
        reader: &SnapshotReader,
        parsed: &SelectStmt,
        sid: u64,
    ) -> Option<ScannerSeed> {
        let key = self.key(sid, EntryKind::Seed);
        match self.store.lookup(&key, || self.pvv(reader, parsed)) {
            Some(MemoValue::Seed(seed)) => Some(seed),
            _ => None,
        }
    }

    /// Record the delta scanner's post-scan state at `sid`, so a future
    /// run whose chain passes through `sid` stays on the delta path.
    pub(crate) fn record_seed(
        &self,
        reader: &SnapshotReader,
        parsed: &SelectStmt,
        sid: u64,
        seed: ScannerSeed,
    ) {
        if let Some(pvv) = self.pvv(reader, parsed) {
            self.store
                .insert(self.key(sid, EntryKind::Seed), pvv, MemoValue::Seed(seed));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use rql_sqlengine::parse_select;

    fn parsed(sql: &str) -> SelectStmt {
        parse_select(sql).unwrap()
    }

    #[test]
    fn fingerprint_canonicalizes_text() {
        let a = qq_fingerprint(&parsed("SELECT a FROM t WHERE a > 1"));
        let b = qq_fingerprint(&parsed("select  a \n from  t  where a > 1"));
        assert_eq!(a, b, "keyword case and whitespace must not fragment keys");
        let c = qq_fingerprint(&parsed("SELECT a FROM t WHERE a > 2"));
        assert_ne!(a, c);
        // String literals are case-sensitive, so the fingerprint must be
        // too (identifier-case variants only cost a spurious miss).
        let lit_a = qq_fingerprint(&parsed("SELECT a FROM t WHERE a = 'X'"));
        let lit_b = qq_fingerprint(&parsed("SELECT a FROM t WHERE a = 'x'"));
        assert_ne!(lit_a, lit_b);
    }

    #[test]
    fn eligibility_rejects_udfs_in_any_clause() {
        assert!(memo_eligible(&parsed("SELECT a FROM t WHERE a > 1")));
        assert!(memo_eligible(&parsed(
            "SELECT current_snapshot(), COUNT(*) FROM t GROUP BY a HAVING SUM(b) > 0"
        )));
        assert!(memo_eligible(&parsed("SELECT upper(a) FROM t")));
        assert!(!memo_eligible(&parsed("SELECT my_udf(a) FROM t")));
        assert!(!memo_eligible(&parsed("SELECT a FROM t WHERE my_udf(a)")));
        assert!(!memo_eligible(&parsed(
            "SELECT a FROM t GROUP BY my_udf(a)"
        )));
        assert!(!memo_eligible(&parsed(
            "SELECT a FROM t GROUP BY a HAVING my_udf(a) > 0"
        )));
        assert!(!memo_eligible(&parsed(
            "SELECT a FROM t ORDER BY my_udf(a)"
        )));
        assert!(!memo_eligible(&parsed(
            "SELECT a FROM t JOIN u ON my_udf(t.a) = u.b"
        )));
    }
}
