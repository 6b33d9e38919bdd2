//! Update workloads and snapshot-history construction.
//!
//! Paper §5, Table 1: "UW15 / UW30 — delete and insert 15K/30K orders
//! and their lineitem records per snapshot" against the 1.5M-order SF-1
//! database. What matters to every experiment is the *fraction* of the
//! database churned between snapshots, because it determines
//! `diff(S1,S2)` and the overwrite-cycle length ("The UW30 overwrites
//! the database every 50 snapshots while the UW15 every 100"). The
//! workloads here are therefore defined by fraction, so the scaled-down
//! reproduction keeps the paper's cycle lengths exactly.

use std::sync::Arc;

use rql::RqlSession;
use rql_retro::RetroConfig;
use rql_sqlengine::Result;

use crate::gen::Tpch;
use crate::load::{create_native_indexes, load_initial};
use crate::refresh::RefreshStream;

/// An update workload: the fraction of orders churned per snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateWorkload {
    /// Display name ("UW30").
    pub name: &'static str,
    /// Fraction of the order table deleted+inserted between snapshots.
    pub order_fraction: f64,
}

/// UW7.5: 7,500 orders per snapshot at SF 1 (0.5%).
pub const UW7_5: UpdateWorkload = UpdateWorkload {
    name: "UW7.5",
    order_fraction: 0.005,
};
/// UW15: 15,000 orders per snapshot at SF 1 (1%); overwrite cycle 100.
pub const UW15: UpdateWorkload = UpdateWorkload {
    name: "UW15",
    order_fraction: 0.01,
};
/// UW30: 30,000 orders per snapshot at SF 1 (2%); overwrite cycle 50.
pub const UW30: UpdateWorkload = UpdateWorkload {
    name: "UW30",
    order_fraction: 0.02,
};
/// UW60: 60,000 orders per snapshot at SF 1 (4%).
pub const UW60: UpdateWorkload = UpdateWorkload {
    name: "UW60",
    order_fraction: 0.04,
};

impl UpdateWorkload {
    /// Orders deleted+inserted per snapshot at this scale.
    pub fn orders_per_snapshot(&self, tpch: &Tpch) -> i64 {
        ((tpch.orders_count() as f64 * self.order_fraction).round() as i64).max(1)
    }

    /// Snapshots until the order/lineitem pages are fully overwritten
    /// (paper: 50 for UW30, 100 for UW15).
    pub fn overwrite_cycle(&self) -> u64 {
        (1.0 / self.order_fraction).round() as u64
    }
}

/// A built snapshot history: session + refresh stream + bookkeeping.
pub struct SnapshotHistory {
    /// The RQL session (snapshotable TPC-H database + SnapIds).
    pub session: Arc<RqlSession>,
    /// The refresh stream (positioned after the last declared snapshot).
    pub stream: RefreshStream,
    /// Workload used between snapshots.
    pub workload: UpdateWorkload,
    /// Ids of declared snapshots, in order.
    pub snapshots: Vec<u64>,
}

/// Build a TPC-H database with `snapshot_count` declared snapshots under
/// `workload`, optionally with native indexes.
pub fn build_history(
    config: RetroConfig,
    sf: f64,
    workload: UpdateWorkload,
    snapshot_count: u64,
    with_indexes: bool,
) -> Result<SnapshotHistory> {
    let session = RqlSession::new(config)?;
    let tpch = Tpch::new(sf);
    load_initial(session.snap_db(), &tpch)?;
    if with_indexes {
        create_native_indexes(session.snap_db())?;
    }
    let mut history = SnapshotHistory {
        session,
        stream: RefreshStream::new(tpch),
        workload,
        snapshots: Vec::new(),
    };
    history.advance(snapshot_count)?;
    Ok(history)
}

impl SnapshotHistory {
    /// Declare `n` more snapshots, churning the workload's order volume
    /// before each declaration.
    pub fn advance(&mut self, n: u64) -> Result<()> {
        let per_snapshot = self.workload.orders_per_snapshot(self.stream.tpch());
        for _ in 0..n {
            self.stream
                .refresh_pair(self.session.snap_db(), per_snapshot)?;
            let sid = self.session.declare_snapshot(None)?;
            self.snapshots.push(sid);
        }
        Ok(())
    }

    /// The most recent snapshot id (`Slast` in the paper's notation), or
    /// 0 for a history that declared none.
    pub fn last_snapshot(&self) -> u64 {
        self.snapshots.last().copied().unwrap_or(0)
    }

    /// A Qs string selecting `len` snapshots starting at `start`
    /// (inclusive), taking every `skip`-th (Table 1's `Qs_N`, optionally
    /// "with step").
    pub fn qs(&self, start: u64, len: u64, skip: u64) -> String {
        assert!(skip >= 1);
        let end = start + (len - 1) * skip;
        if skip == 1 {
            format!(
                "SELECT snap_id FROM snapids WHERE snap_id >= {start} AND snap_id <= {end} \
                 ORDER BY snap_id"
            )
        } else {
            format!(
                "SELECT snap_id FROM snapids WHERE snap_id >= {start} AND snap_id <= {end} \
                 AND (snap_id - {start}) % {skip} = 0 ORDER BY snap_id"
            )
        }
    }

    /// Make every declared snapshot "old": run enough further churn that
    /// the order/lineitem pages of all existing snapshots complete their
    /// overwrite cycles, then clear the page cache. (Paper §5.1: "all
    /// iterations are cold" baseline and the old-snapshot experiments.)
    pub fn age_all_snapshots(&mut self) -> Result<()> {
        let cycle = self.workload.overwrite_cycle();
        let per_snapshot = self.workload.orders_per_snapshot(self.stream.tpch());
        // Churn one full cycle's worth of orders without declaring
        // further snapshots (declarations would extend the history).
        for _ in 0..cycle {
            self.stream
                .refresh_pair(self.session.snap_db(), per_snapshot)?;
        }
        self.session.snap_db().store().cache().clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::Value;

    fn small_config() -> RetroConfig {
        RetroConfig::new()
    }

    #[test]
    fn workload_constants_match_paper() {
        assert_eq!(UW30.overwrite_cycle(), 50);
        assert_eq!(UW15.overwrite_cycle(), 100);
        assert_eq!(UW7_5.overwrite_cycle(), 200);
        assert_eq!(UW60.overwrite_cycle(), 25);
        let t = Tpch::new(1.0);
        assert_eq!(UW30.orders_per_snapshot(&t), 30_000);
        assert_eq!(UW15.orders_per_snapshot(&t), 15_000);
    }

    #[test]
    fn history_declares_snapshots_and_snapids() {
        let mut h = build_history(small_config(), 0.0003, UW30, 4, false).unwrap();
        assert_eq!(h.snapshots, vec![1, 2, 3, 4]);
        assert_eq!(h.last_snapshot(), 4);
        let ids = rql::all_snapshots(h.session.aux_db()).unwrap();
        assert_eq!(ids.len(), 4);
        h.advance(2).unwrap();
        assert_eq!(h.last_snapshot(), 6);
    }

    #[test]
    fn snapshots_see_historical_order_counts() {
        let h = build_history(small_config(), 0.0003, UW30, 3, false).unwrap();
        let total = h.stream.tpch().orders_count();
        // Every snapshot sees the same row count (steady-state churn)…
        for sid in &h.snapshots {
            let r = h
                .session
                .query(&format!("SELECT AS OF {sid} COUNT(*) FROM orders"))
                .unwrap();
            assert_eq!(r.rows[0][0], Value::Integer(total));
        }
        // …but different minimum keys (older snapshots keep older rows).
        let min_of = |sid: u64| -> i64 {
            h.session
                .query(&format!("SELECT AS OF {sid} MIN(o_orderkey) FROM orders"))
                .unwrap()
                .rows[0][0]
                .as_i64()
                .unwrap()
        };
        assert!(min_of(1) < min_of(3));
    }

    #[test]
    fn qs_strings_select_expected_sets() {
        let h = build_history(small_config(), 0.0003, UW30, 6, false).unwrap();
        let r = h.session.query_aux(&h.qs(2, 3, 1)).unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        let r = h.session.query_aux(&h.qs(1, 3, 2)).unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn aging_completes_overwrite_cycles() {
        let mut h = build_history(small_config(), 0.0002, UW60, 2, false).unwrap();
        h.age_all_snapshots().unwrap();
        // After aging, a snapshot query on orders fetches only from the
        // pagelog (no pages shared with the current database).
        let store = h.session.snap_db().store();
        store.cache().clear();
        store.stats().reset();
        let r = h
            .session
            .query("SELECT AS OF 1 COUNT(*) FROM orders")
            .unwrap();
        assert!(r.rows[0][0].as_i64().unwrap() > 0);
        let snap = store.stats().snapshot();
        assert!(snap.pagelog_reads > 0, "expected pagelog I/O: {snap:?}");
    }
}
