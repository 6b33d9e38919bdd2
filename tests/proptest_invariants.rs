//! Property-based tests on the system's core invariants.
//!
//! * **Snapshot fidelity** — after an arbitrary sequence of inserts,
//!   deletes, updates and snapshot declarations, `SELECT AS OF s` returns
//!   exactly the model state at `s`'s declaration.
//! * **Monoid laws** — folding MIN/MAX/SUM/COUNT through the SQL
//!   engine's accumulator (the one the mechanisms use) gives one answer
//!   whatever the order of updates, NULLs included, and equals a direct
//!   fold.
//! * **Interval round-trip** — reconstructing per-snapshot membership
//!   from `CollateDataIntoIntervals` output equals the original
//!   membership, for arbitrary membership timelines.
//! * **Record codec** — encode/decode round-trips arbitrary rows; index
//!   keys order like values.
//! * **Tracing neutrality** — running the same workload with the trace
//!   layer recording vs disabled produces byte-identical results
//!   (observability must never perturb execution).

use std::collections::BTreeMap;

use proptest::prelude::*;

use rql::{AggOp, RqlSession};
use rql_sqlengine::record::{decode_row, encode_index_key, encode_row};
use rql_sqlengine::{AggAcc, Value};

// ---- snapshot fidelity ----------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    Delete(u8),
    Update(u8, i64),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Insert(k % 16, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 16)),
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Update(k % 16, v)),
        Just(Op::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn as_of_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let session = RqlSession::with_defaults().unwrap();
        session.execute("CREATE TABLE kv (k INTEGER, v INTEGER)").unwrap();
        let mut model: BTreeMap<u8, i64> = BTreeMap::new();
        let mut snapshots: Vec<(u64, BTreeMap<u8, i64>)> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    // Keep keys unique (delete first), like a keyed store.
                    session
                        .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                        .unwrap();
                    session
                        .execute(&format!("INSERT INTO kv VALUES ({k}, {v})"))
                        .unwrap();
                    model.insert(*k, *v);
                }
                Op::Delete(k) => {
                    session
                        .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                        .unwrap();
                    model.remove(k);
                }
                Op::Update(k, v) => {
                    session
                        .execute(&format!("UPDATE kv SET v = {v} WHERE k = {k}"))
                        .unwrap();
                    if model.contains_key(k) {
                        model.insert(*k, *v);
                    }
                }
                Op::Snapshot => {
                    let sid = session.declare_snapshot(None).unwrap();
                    snapshots.push((sid, model.clone()));
                }
            }
        }
        // Every declared snapshot must replay its model state exactly.
        for (sid, state) in &snapshots {
            let r = session
                .query(&format!("SELECT AS OF {sid} k, v FROM kv ORDER BY k"))
                .unwrap();
            let got: BTreeMap<u8, i64> = r
                .rows
                .iter()
                .map(|row| (row[0].as_i64().unwrap() as u8, row[1].as_i64().unwrap()))
                .collect();
            prop_assert_eq!(&got, state, "snapshot {} diverged", sid);
        }
        // And the current state matches the final model.
        let r = session.query("SELECT k, v FROM kv ORDER BY k").unwrap();
        let got: BTreeMap<u8, i64> = r
            .rows
            .iter()
            .map(|row| (row[0].as_i64().unwrap() as u8, row[1].as_i64().unwrap()))
            .collect();
        prop_assert_eq!(&got, &model);
    }
}

// ---- tracing neutrality -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tracing_never_changes_results(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        // One full workload: arbitrary mutations + snapshots, then a
        // mechanism over the whole history and an ordered read-back.
        let run = |ops: &[Op]| -> Vec<Vec<Value>> {
            let session = RqlSession::with_defaults().unwrap();
            session.execute("CREATE TABLE kv (k INTEGER, v INTEGER)").unwrap();
            let mut declared = false;
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        session.execute(&format!("DELETE FROM kv WHERE k = {k}")).unwrap();
                        session.execute(&format!("INSERT INTO kv VALUES ({k}, {v})")).unwrap();
                    }
                    Op::Delete(k) => {
                        session.execute(&format!("DELETE FROM kv WHERE k = {k}")).unwrap();
                    }
                    Op::Update(k, v) => {
                        session.execute(&format!("UPDATE kv SET v = {v} WHERE k = {k}")).unwrap();
                    }
                    Op::Snapshot => {
                        session.declare_snapshot(None).unwrap();
                        declared = true;
                    }
                }
            }
            if !declared {
                session.declare_snapshot(None).unwrap();
            }
            session
                .collate_data("SELECT snap_id FROM SnapIds", "SELECT k, v FROM kv", "t")
                .unwrap();
            session.query_aux("SELECT k, v FROM t ORDER BY k, v").unwrap().rows
        };

        rql_trace::set_enabled(true);
        let traced = run(&ops);
        rql_trace::set_enabled(false);
        let untraced = run(&ops);
        rql_trace::set_enabled(true);
        prop_assert_eq!(traced, untraced, "tracing perturbed results");
    }
}

// ---- monoid laws ------------------------------------------------------------

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-1000i64..1000).prop_map(Value::Integer),
        (-100.0f64..100.0).prop_map(Value::Real),
    ]
}

/// `values` folded in order through the SQL engine's accumulator for
/// `op`, the one the mechanisms fold with.
fn fold(op: AggOp, values: &[&Value]) -> Value {
    let mut acc = AggAcc::new(op.func());
    for v in values {
        acc.update(Some(v));
    }
    acc.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn combine_is_associative_and_commutative(
        a in small_value(),
        b in small_value(),
        c in small_value(),
    ) {
        // Folding three contributions in any order gives one answer.
        let orders = [[&a, &b, &c], [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a]];
        let mut ops = vec![AggOp::Min, AggOp::Max, AggOp::Count];
        // SUM over integers (floats would need epsilon comparison).
        if !orders[0].iter().any(|v| matches!(v, Value::Real(_))) {
            ops.push(AggOp::Sum);
        }
        for op in ops {
            let first = fold(op, &orders[0]);
            for order in &orders[1..] {
                prop_assert_eq!(&fold(op, order), &first, "{} over {:?}", op, order);
            }
        }
    }

    #[test]
    fn agg_state_fold_matches_direct_fold(values in proptest::collection::vec(-1000i64..1000, 0..30)) {
        // MIN/MAX/SUM/COUNT folded through the accumulator equal direct
        // folds, in either order.
        let values: Vec<Value> = values.into_iter().map(Value::Integer).collect();
        let forward: Vec<&Value> = values.iter().collect();
        let backward: Vec<&Value> = values.iter().rev().collect();
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count] {
            prop_assert_eq!(fold(op, &forward), fold(op, &backward), "{}", op);
        }
        let ints = values.iter().filter_map(Value::as_i64);
        if values.is_empty() {
            prop_assert!(fold(AggOp::Min, &forward).is_null());
            prop_assert!(fold(AggOp::Sum, &forward).is_null());
            prop_assert!(fold(AggOp::Avg, &forward).is_null());
            prop_assert_eq!(fold(AggOp::Count, &forward), Value::Integer(0));
        } else {
            prop_assert_eq!(fold(AggOp::Min, &forward), Value::Integer(ints.clone().min().unwrap()));
            prop_assert_eq!(fold(AggOp::Max, &forward), Value::Integer(ints.clone().max().unwrap()));
            prop_assert_eq!(fold(AggOp::Sum, &forward), Value::Integer(ints.clone().sum()));
            prop_assert_eq!(fold(AggOp::Count, &forward), Value::Integer(values.len() as i64));
            let avg = ints.sum::<i64>() as f64 / values.len() as f64;
            prop_assert_eq!(fold(AggOp::Avg, &forward), Value::Real(avg));
        }
    }
}

// ---- interval round-trip ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn intervals_reconstruct_membership(
        // timeline[s][k]: is key k present in snapshot s?
        timeline in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 6),
            1..8,
        ),
    ) {
        let session = RqlSession::with_defaults().unwrap();
        session.execute("CREATE TABLE m (k INTEGER)").unwrap();
        for present in &timeline {
            session.execute("DELETE FROM m").unwrap();
            for (k, p) in present.iter().enumerate() {
                if *p {
                    session.execute(&format!("INSERT INTO m VALUES ({k})")).unwrap();
                }
            }
            session.declare_snapshot(None).unwrap();
        }
        session
            .collate_data_into_intervals(
                "SELECT snap_id FROM SnapIds",
                "SELECT k FROM m",
                "iv",
            )
            .unwrap();
        let rows = session
            .query_aux("SELECT k, start_snapshot, end_snapshot FROM iv")
            .unwrap()
            .rows;
        // Intervals per key must not overlap and must reconstruct the
        // timeline exactly.
        for (s, present) in timeline.iter().enumerate() {
            let sid = s as i64 + 1;
            for (k, p) in present.iter().enumerate() {
                let covered = rows
                    .iter()
                    .filter(|r| r[0].as_i64() == Some(k as i64))
                    .filter(|r| {
                        r[1].as_i64().unwrap() <= sid && sid <= r[2].as_i64().unwrap()
                    })
                    .count();
                prop_assert_eq!(
                    covered,
                    usize::from(*p),
                    "key {} snapshot {}: expected {} covering interval(s)",
                    k,
                    sid,
                    u32::from(*p)
                );
            }
        }
    }
}

// ---- record codec --------------------------------------------------------------

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        any::<f64>()
            .prop_filter("no NaN", |f| !f.is_nan())
            .prop_map(Value::Real),
        "[a-zA-Z0-9 '\\u{e9}\\u{4e16}]{0,40}".prop_map(Value::Text),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn record_roundtrip(row in proptest::collection::vec(any_value(), 0..12)) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let back = decode_row(&buf).unwrap();
        prop_assert_eq!(row, back);
    }

    #[test]
    fn index_key_order_matches_total_cmp(a in any_value(), b in any_value()) {
        // Skip the documented big-integer key-space conflation.
        let big = |v: &Value| matches!(v, Value::Integer(i) if i.abs() > (1 << 52));
        prop_assume!(!big(&a) && !big(&b));
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        encode_index_key(std::slice::from_ref(&a), &mut ka);
        encode_index_key(std::slice::from_ref(&b), &mut kb);
        let cmp = a.total_cmp(&b);
        if cmp != std::cmp::Ordering::Equal {
            prop_assert_eq!(ka.cmp(&kb), cmp, "{:?} vs {:?}", a, b);
        }
    }
}
