//! What the benchmark runs: the scale, the five Qq of the paper's
//! Table 1, and the RQL programs the workloads are made of.

use crate::gen::Inputs;

/// Paper Table 1.
pub const QQ_IO: &str = "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'";
pub const QQ_CPU: &str = "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, part \
     WHERE p_partkey = l_partkey AND p_type = 'STANDARD POLISHED TIN'";
pub const QQ_AGG: &str = "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av \
     FROM orders GROUP BY o_custkey";
/// Qq_int restricted to one order in seven, spread over the whole key
/// range so that every snapshot both ends and starts lifetimes.
pub const QQ_INT: &str = "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey % 7 = 0";

/// Qq_collate: the newest orders, from `date` on. The newest end is used
/// because refreshes delete the oldest orders: the predicate keeps its
/// selectivity over a long history and its text stays the same.
pub fn qq_collate(date: &str) -> String {
    format!("SELECT o_orderkey FROM orders WHERE o_orderdate >= '{date}'")
}

/// The order date below which `1 - newest` of the orders live at
/// snapshot `sid` fall, with `per_snapshot` orders refreshed per
/// snapshot. Dates rise with the order key, so this is the date of the
/// key at that rank.
pub fn collate_date(inputs: &Inputs, sid: u64, per_snapshot: i64, newest: f64) -> String {
    let all = inputs.tpch.orders_count();
    let key = sid as i64 * per_snapshot + ((1.0 - newest) * all as f64) as i64;
    inputs.tpch.order_row(key.max(1))[4]
        .as_str()
        .unwrap_or("1992-01-01")
        .to_owned()
}

/// Sizes. `full` is what every reported number is measured at; `quick`
/// is the smoke lane, whose timings are not comparable with anything.
#[derive(Clone, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// TPC-H scale factor (1.0 = 1.5 M orders).
    pub sf: f64,
    /// Snapshot-page cache, in 4-KiB pages: about 40 % of the heap.
    pub cache_pages: usize,
    /// Untimed ops before the timed ones.
    pub warmup: usize,
    /// Rounds of an untraced run: set-up is repeated this often for the
    /// `setup_s` median, and each repeat is followed by a block of ops.
    pub setups: usize,
    /// Times the store is reopened at the end of each round.
    pub reopens: usize,
    /// `scan_old`: aged snapshots, and the window one op scans.
    pub scan_history: u64,
    pub scan_window: u64,
    /// `join_recent` and `fold_wide`: snapshots, not aged.
    pub recent_history: u64,
    pub join_window: u64,
    pub fold_window: u64,
    /// `served_mixed`: snapshots in the data directory before serving,
    /// the window of its Qq_io programs and of its other three.
    pub served_history: u64,
    pub served_io_window: u64,
    pub served_tail: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            name: "full",
            sf: 0.02,
            cache_pages: 320,
            warmup: 2,
            setups: 3,
            reopens: 3,
            scan_history: 32,
            scan_window: 30,
            recent_history: 20,
            join_window: 5,
            fold_window: 3,
            served_history: 20,
            served_io_window: 8,
            served_tail: 2,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            name: "quick",
            sf: 0.005,
            cache_pages: 425,
            warmup: 1,
            setups: 1,
            reopens: 1,
            scan_history: 8,
            scan_window: 6,
            recent_history: 6,
            served_history: 6,
            served_io_window: 6,
            ..Scale::full()
        }
    }

    /// Orders deleted and inserted before each snapshot: UW30 (2 %, a
    /// 50-snapshot overwrite cycle) for the embedded histories.
    pub fn uw30(&self, inputs: &Inputs) -> i64 {
        rql_tpch::UW30.orders_per_snapshot(&inputs.tpch)
    }

    /// UW7.5 (0.5 %) for the commits interleaved into `served_mixed`.
    pub fn uw7_5(&self, inputs: &Inputs) -> i64 {
        rql_tpch::UW7_5.orders_per_snapshot(&inputs.tpch)
    }

    /// Timed ops for a run asked to measure for `seconds`: a fixed count,
    /// so the work and every counter repeat exactly from run to run. The
    /// count is the time asked for over what one op of the workload takes
    /// at `full` on the reference box (for `served_mixed`, one cycle of a
    /// commit and a read batch).
    pub fn ops_for(&self, workload: &str, seconds: u64) -> usize {
        let op_seconds = match workload {
            "scan_old" => 0.27,
            "join_recent" => 0.32,
            "fold_wide" => 0.67,
            _ => 0.94,
        };
        ((seconds as f64 / op_seconds).round() as usize).max(4)
    }
}

/// How a mechanism folds the per-snapshot answers of its Qq.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// `AggregateDataInVariable(…, 'avg')`.
    AvgVar,
    /// `CollateData`.
    Collate,
    /// `AggregateDataInTable(…, '(cn,max):(av,max)')` over Qq_agg.
    AggTableMax,
    /// `CollateDataIntoIntervals`.
    Intervals,
}

/// One mechanism call of a program.
#[derive(Clone, Debug)]
pub struct Call {
    pub fold: Fold,
    pub qq: String,
    pub table: &'static str,
    /// Snapshot window, inclusive.
    pub first: u64,
    pub last: u64,
}

impl Call {
    pub fn new(fold: Fold, qq: &str, table: &'static str, first: u64, last: u64) -> Call {
        Call {
            fold,
            qq: qq.to_owned(),
            table,
            first,
            last,
        }
    }

    pub fn snapshots(&self) -> std::ops::RangeInclusive<u64> {
        self.first..=self.last
    }

    /// The call in the paper's UDF form.
    pub fn statement(&self) -> String {
        let qq = self.qq.replace('\'', "''");
        let (udf, spec) = match self.fold {
            Fold::AvgVar => ("AggregateDataInVariable", ", 'avg'"),
            Fold::Collate => ("CollateData", ""),
            Fold::AggTableMax => ("AggregateDataInTable", ", '(cn,max):(av,max)'"),
            Fold::Intervals => ("CollateDataIntoIntervals", ""),
        };
        format!(
            "SELECT {udf}(snap_id, '{qq}', '{}'{spec}) FROM SnapIds \
             WHERE snap_id >= {} AND snap_id <= {} ORDER BY snap_id;\n",
            self.table, self.first, self.last
        )
    }

    /// The aux-database query that reads the result table back.
    pub fn read_back(&self) -> String {
        match self.fold {
            Fold::AggTableMax => format!("SELECT o_custkey, cn, av FROM {}", self.table),
            _ => format!("SELECT * FROM {}", self.table),
        }
    }
}

/// A program: mechanism calls under one `--@policy`. With `self_contained`
/// each call is preceded by the drop of its result table and followed by
/// the aux-database SELECT that returns it — what a client of the server
/// sends, since it has no other way to see the result.
pub fn program(policy_auto: bool, calls: &[Call], self_contained: bool) -> String {
    let mut text = String::new();
    if policy_auto {
        text.push_str("--@policy auto\n");
    }
    for c in calls {
        if self_contained {
            text.push_str(&format!("--@aux\nDROP TABLE IF EXISTS {};\n", c.table));
        }
        text.push_str(&c.statement());
        if self_contained {
            text.push_str(&format!("--@aux\n{};\n", c.read_back()));
        }
    }
    text
}
