//! Model-based property tests: the page-backed B-tree against a
//! `BTreeMap`, the slotted-page heap against a `HashMap`, and the WAL
//! against crash points at every byte.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use rql_pagestore::{LogStorage, MemStorage, Pager, PagerConfig, Wal};
use rql_sqlengine::btree::BTree;
use rql_sqlengine::heap::{FreeSpaceMap, HeapFile, RecordId};
use rql_sqlengine::record::{encode_index_key, encode_row};
use rql_sqlengine::{PredSummary, Value};

fn pager(page_size: usize) -> Arc<Pager> {
    Arc::new(Pager::new(PagerConfig {
        page_size,
        cache_capacity: 64,
        wal_sync_on_commit: false,
    }))
}

// ---- B-tree vs BTreeMap ----------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i16),
    Delete(i16),
    Lookup(i16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => any::<i16>().prop_map(|k| TreeOp::Insert(k % 200)),
        1 => any::<i16>().prop_map(|k| TreeOp::Delete(k % 200)),
        1 => any::<i16>().prop_map(|k| TreeOp::Lookup(k % 200)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(tree_op(), 1..300)) {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // Model: key -> the rid we stored under it (one per key here).
        let mut model: BTreeMap<i16, RecordId> = BTreeMap::new();
        let mut next_rid = 0u64;
        for op in &ops {
            match op {
                TreeOp::Insert(k) => {
                    if model.contains_key(k) {
                        continue; // keep one entry per key for the model
                    }
                    let rid = RecordId {
                        page: rql_pagestore::PageId(next_rid),
                        slot: 0,
                    };
                    next_rid += 1;
                    let mut key = Vec::new();
                    encode_index_key(&[Value::Integer(*k as i64)], &mut key);
                    tree.insert(&mut txn, &key, rid).unwrap();
                    model.insert(*k, rid);
                }
                TreeOp::Delete(k) => {
                    let mut key = Vec::new();
                    encode_index_key(&[Value::Integer(*k as i64)], &mut key);
                    let expected = model.remove(k);
                    match expected {
                        Some(rid) => {
                            prop_assert!(tree.delete(&mut txn, &key, rid).unwrap());
                        }
                        None => {
                            // Deleting an absent (key, rid) is a no-op.
                            let rid = RecordId {
                                page: rql_pagestore::PageId(u64::MAX - 1),
                                slot: 0,
                            };
                            prop_assert!(!tree.delete(&mut txn, &key, rid).unwrap());
                        }
                    }
                }
                TreeOp::Lookup(k) => {
                    let mut key = Vec::new();
                    encode_index_key(&[Value::Integer(*k as i64)], &mut key);
                    let hits = tree.scan_prefix(&txn, &key).unwrap();
                    match model.get(k) {
                        Some(rid) => prop_assert_eq!(hits, vec![*rid]),
                        None => prop_assert!(hits.is_empty()),
                    }
                }
            }
            // Edits in place leave every node as decode → encode would.
            if let Err(e) = tree.check_canonical(&txn) {
                prop_assert!(false, "after {:?}: {}", op, e);
            }
        }
        // Final full-scan order equals the model's key order.
        let mut scanned: Vec<RecordId> = Vec::new();
        tree.scan_all(&txn, |_, rid| {
            scanned.push(rid);
            Ok(true)
        })
        .unwrap();
        let expected: Vec<RecordId> = model.values().copied().collect();
        prop_assert_eq!(scanned, expected);
    }
}

// ---- heap vs HashMap --------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(u8, String),
    Delete(u8),
    Update(u8, String),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    let text = "[a-z]{0,24}";
    prop_oneof![
        3 => (any::<u8>(), text).prop_map(|(k, t)| HeapOp::Insert(k % 40, t)),
        1 => any::<u8>().prop_map(|k| HeapOp::Delete(k % 40)),
        2 => (any::<u8>(), text).prop_map(|(k, t)| HeapOp::Update(k % 40, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn heap_matches_hashmap(ops in proptest::collection::vec(heap_op(), 1..200)) {
        let pager = pager(256);
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        // Model: logical key -> (rid, payload).
        let mut model: HashMap<u8, (RecordId, String)> = HashMap::new();
        let encode = |k: u8, t: &str| {
            let mut buf = Vec::new();
            encode_row(&[Value::Integer(k as i64), Value::text(t)], &mut buf);
            buf
        };
        for op in &ops {
            match op {
                HeapOp::Insert(k, t) => {
                    if model.contains_key(k) {
                        continue;
                    }
                    let rid = heap.insert(&mut txn, &encode(*k, t), &mut fsm).unwrap();
                    model.insert(*k, (rid, t.clone()));
                }
                HeapOp::Delete(k) => {
                    if let Some((rid, _)) = model.remove(k) {
                        heap.delete(&mut txn, rid, &mut fsm).unwrap();
                    }
                }
                HeapOp::Update(k, t) => {
                    if let Some((rid, old)) = model.get(k).cloned() {
                        let new_rid = heap
                            .update(&mut txn, rid, &encode(*k, t), &mut fsm)
                            .unwrap();
                        if encode(*k, t).len() <= encode(*k, &old).len() {
                            prop_assert_eq!(new_rid, rid, "a record that fits keeps its slot");
                        }
                        model.insert(*k, (new_rid, t.clone()));
                    }
                }
            }
        }
        // Every live record readable at its rid with the right payload.
        for (k, (rid, t)) in &model {
            let row = heap.get_row(&txn, *rid).unwrap();
            prop_assert_eq!(&row[0], &Value::Integer(*k as i64));
            prop_assert_eq!(&row[1], &Value::text(t.clone()));
        }
        // Scan sees exactly the live set.
        let mut seen: HashMap<u8, String> = HashMap::new();
        heap.scan(&txn, &PredSummary::default(), None, |_, row| {
            let k = row[0].as_i64().unwrap() as u8;
            let t = row[1].as_str().unwrap().to_owned();
            assert!(seen.insert(k, t).is_none(), "duplicate key in scan");
            Ok(true)
        })
        .unwrap();
        prop_assert_eq!(seen.len(), model.len());
        for (k, (_, t)) in &model {
            prop_assert_eq!(seen.get(k), Some(t));
        }
    }
}

/// Records shrunk in place keep their rids and leave dead bytes in their
/// cells; filling the page again has to compact those bytes back into
/// room, with every record still readable where it is.
#[test]
fn shrink_then_fill_compacts_in_place() {
    let pager = pager(256);
    let mut txn = pager.begin_write().unwrap();
    let heap = HeapFile::create(&mut txn).unwrap();
    let mut fsm = FreeSpaceMap::new();
    let record = |k: i64, len: usize| {
        let mut buf = Vec::new();
        encode_row(&[Value::Integer(k), Value::text("x".repeat(len))], &mut buf);
        buf
    };
    // Four 55-byte records fill the 256-byte root page to 4 free bytes.
    let mut live = Vec::new();
    for k in 0..4 {
        let rid = heap.insert(&mut txn, &record(k, 50), &mut fsm).unwrap();
        assert_eq!(rid.page, heap.root());
        live.push((rid, k, 50));
    }
    // Shrink each to 10 bytes: 180 dead bytes, no rid moves.
    for (rid, k, len) in &mut live {
        let same = heap
            .update(&mut txn, *rid, &record(*k, 5), &mut fsm)
            .unwrap();
        assert_eq!(same, *rid);
        *len = 5;
    }
    // Three 49-byte inserts (record + slot) fit only once compacted.
    for k in 4..7 {
        let rid = heap.insert(&mut txn, &record(k, 40), &mut fsm).unwrap();
        assert_eq!(
            rid.page,
            heap.root(),
            "record {k} should fit after compaction"
        );
        live.push((rid, k, 40));
    }
    assert_eq!(heap.page_count_chain(&txn).unwrap(), 1);
    for (rid, k, len) in &live {
        let row = heap.get_row(&txn, *rid).unwrap();
        assert_eq!(row, vec![Value::Integer(*k), Value::text("x".repeat(*len))]);
    }
}

// ---- WAL crash points ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wal_recovery_is_prefix_consistent(
        txn_sizes in proptest::collection::vec(1usize..4, 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        // Write a sequence of committed transactions, then truncate the
        // log at an arbitrary byte: recovery must yield exactly the
        // transactions whose commit record survived, in order.
        let storage = Arc::new(MemStorage::new());
        let wal = Wal::new(storage.clone(), false);
        let mut commit_ends: Vec<(u64, u64)> = Vec::new(); // (txn, end offset)
        let mut txn_id = 0u64;
        for (i, &size) in txn_sizes.iter().enumerate() {
            txn_id = i as u64 + 1;
            for p in 0..size {
                let mut page = rql_pagestore::Page::zeroed(64);
                page.write_u64(0, txn_id * 100 + p as u64);
                wal.log_write(txn_id, rql_pagestore::PageId(p as u64), &page).unwrap();
            }
            wal.log_commit(txn_id, None).unwrap();
            commit_ends.push((txn_id, storage.len()));
        }
        let cut = (storage.len() as f64 * cut_frac) as u64;
        storage.truncate(cut).unwrap();
        let recovered = wal.recover().unwrap();
        // Expected: the last txn whose commit end <= cut.
        let expected_last = commit_ends
            .iter()
            .take_while(|(_, end)| *end <= cut)
            .map(|(t, _)| *t)
            .last()
            .unwrap_or(0);
        prop_assert_eq!(recovered.last_txn, expected_last);
        let _ = txn_id;
    }
}
