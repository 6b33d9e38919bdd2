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
//! * [`snapshot_version`] — what tells apart two snapshots that share
//!   an id: a hash of the snapshot's declaration record and the store
//!   incarnation holding it. It is fixed for as long as the store stays
//!   open, so an entry recorded by any session is a hit for every other
//!   session and survives every later commit; it differs between two
//!   stores behind one memo and across a reopen, where an id may have
//!   been re-declared over a lost tail. It costs one metadata read: no
//!   SPT is built and no catalog is loaded to vouch for a hit.
//! * [`QqMemo`] — the per-computation handle the Qq source uses to look
//!   up and record results, and to hand its delta scanner the memo's
//!   pages of the Qq's scan. Values travel as `Arc`s: recording shares
//!   the rows the fold is about to read, and a hit hands them back
//!   without copying.

use std::sync::Arc;

use rql_memo::{MemoPages, MemoStore, QqRows};
use rql_pagestore::fnv1a;
use rql_retro::RetroStore;
use rql_sqlengine::ast::{is_aggregate_name, Expr, SelectItem, SelectStmt};
use rql_sqlengine::cexpr::is_builtin_scalar;

use crate::rewrite::{render_select, CURRENT_SNAPSHOT};

/// Content fingerprint of a Qq: FNV-1a of its canonical rendering
/// *before* any per-iteration rewrite, so every snapshot of every
/// session keys the same query text identically.
pub fn qq_fingerprint(parsed: &SelectStmt) -> u64 {
    fnv1a(render_select(parsed).as_bytes())
}

/// Does the expression call a user-defined function anywhere? The
/// engine's builtins ([`is_builtin_scalar`]), aggregates and
/// `current_snapshot()` are engine-evaluated; anything else resolves to
/// a UDF whose output may vary between invocations.
pub(crate) fn expr_calls_udf(e: &Expr) -> bool {
    match e {
        Expr::Function { name, .. }
            if !(is_builtin_scalar(name)
                || is_aggregate_name(name)
                || name == CURRENT_SNAPSHOT) =>
        {
            true
        }
        _ => e.children().any(expr_calls_udf),
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

/// The version of snapshot `sid` of `store`: FNV-1a over the store's
/// [incarnation](RetroStore::incarnation) and the snapshot's declaration
/// record. `None` for an undeclared id — executing there errors anyway,
/// so nothing is memoized for it.
pub(crate) fn snapshot_version(store: &RetroStore, sid: u64) -> Option<u64> {
    let meta = store.snapshot_meta(sid)?;
    let words = [store.incarnation(), meta.id, meta.page_count, meta.txn_id];
    Some(fnv1a(&words.map(u64::to_le_bytes).concat()))
}

/// Per-computation memoization handle: one fingerprint, many snapshots.
/// Constructed once per mechanism loop; `None` when no store is
/// attached or the Qq is not memo-eligible, which callers treat as
/// "memoization off" with zero overhead. `version` arguments are the
/// [`snapshot_version`] of `sid`.
pub(crate) struct QqMemo {
    store: Arc<MemoStore>,
    fingerprint: u64,
}

impl QqMemo {
    /// Attach to `store` for one parsed Qq, if eligible.
    pub(crate) fn attach(store: Option<Arc<MemoStore>>, parsed: &SelectStmt) -> Option<QqMemo> {
        let store = store?;
        memo_eligible(parsed).then(|| QqMemo {
            fingerprint: qq_fingerprint(parsed),
            store,
        })
    }

    /// The memoized Qq output at `sid`.
    pub(crate) fn lookup_result(&self, sid: u64, version: u64) -> Option<Arc<QqRows>> {
        self.store.lookup(self.fingerprint, sid, version)
    }

    /// Record the Qq output computed at `sid`.
    pub(crate) fn record_result(&self, sid: u64, version: u64, rows: Arc<QqRows>) {
        self.store.insert(self.fingerprint, sid, version, rows);
    }

    /// The memo's pages of this Qq's scan over the store incarnation
    /// `incarnation`, for a delta scanner to share.
    pub(crate) fn pages(&self, incarnation: u64) -> MemoPages {
        self.store.pages(self.fingerprint, incarnation)
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
    fn every_engine_builtin_is_memo_eligible() {
        for (name, ..) in rql_sqlengine::cexpr::BUILTIN_SCALARS {
            let qq = format!("SELECT {name}(a) FROM t WHERE {name}(a) IS NOT NULL");
            assert!(memo_eligible(&parsed(&qq)), "{name} is engine-evaluated");
        }
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
