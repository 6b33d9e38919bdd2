//! The correctness oracle: snapshot reducibility. A mechanism's result
//! must equal its Qq evaluated at each snapshot on its own (`SELECT AS OF
//! s …`, no mechanism, no delta path, no memo) and folded here, in
//! benchmark code.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use rql::Value;
use rql_sqlengine::Row;

use crate::plan::{Call, Fold};
use crate::stats::table_checksum;
use crate::Res;

/// Qq rewritten to run at snapshot `sid` alone.
pub fn as_of(qq: &str, sid: u64) -> String {
    let rest = qq
        .strip_prefix("SELECT ")
        .expect("every Qq of the benchmark starts with SELECT");
    format!("SELECT AS OF {sid} {rest}")
}

/// Per-snapshot answers, fetched once per `(Qq, snapshot)` through
/// whatever runs a plain query (the embedded session or the wire).
#[derive(Default)]
pub struct Oracle {
    answers: HashMap<(String, u64), Vec<Row>>,
}

impl Oracle {
    /// The checksum `call`'s result table must have.
    pub fn expect(&mut self, call: &Call, run: &mut dyn FnMut(&str) -> Res<Vec<Row>>) -> Res<u64> {
        for sid in call.snapshots() {
            if let Entry::Vacant(slot) = self.answers.entry((call.qq.clone(), sid)) {
                slot.insert(run(&as_of(&call.qq, sid))?);
            }
        }
        let per_snapshot: Vec<(u64, &Vec<Row>)> = call
            .snapshots()
            .map(|sid| (sid, &self.answers[&(call.qq.clone(), sid)]))
            .collect();
        Ok(table_checksum(&fold(call.fold, &per_snapshot)))
    }

    /// Checksum of the plain answer of `qq` at `sid`, if it was fetched.
    pub fn answer_checksum(&self, qq: &str, sid: u64) -> Option<u64> {
        self.answers.get(&(qq.to_owned(), sid)).map(table_checksum)
    }
}

/// Fold per-snapshot answers (in snapshot order) the way `kind` defines.
pub fn fold(kind: Fold, per_snapshot: &[(u64, &Vec<Row>)]) -> Vec<Row> {
    match kind {
        Fold::Collate => per_snapshot
            .iter()
            .flat_map(|(_, rows)| rows.iter().cloned())
            .collect(),
        Fold::AvgVar => {
            let values: Vec<f64> = per_snapshot
                .iter()
                .filter_map(|(_, rows)| rows.first()?.first()?.as_f64())
                .collect();
            let avg = if values.is_empty() {
                Value::Null
            } else {
                Value::Real(values.iter().sum::<f64>() / values.len() as f64)
            };
            vec![vec![avg]]
        }
        Fold::AggTableMax => {
            // Rows are (group, cn, av); keep the largest cn and av a
            // group ever had.
            let mut groups: BTreeMap<i64, (Value, Value)> = BTreeMap::new();
            for (_, rows) in per_snapshot {
                for row in rows.iter() {
                    let key = row[0].as_i64().expect("integer group key");
                    let slot = groups
                        .entry(key)
                        .or_insert_with(|| (Value::Null, Value::Null));
                    for (best, new) in [(&mut slot.0, &row[1]), (&mut slot.1, &row[2])] {
                        if best.is_null()
                            || (!new.is_null()
                                && new.total_cmp(best) == std::cmp::Ordering::Greater)
                        {
                            *best = new.clone();
                        }
                    }
                }
            }
            groups
                .into_iter()
                .map(|(k, (cn, av))| vec![Value::Integer(k), cn, av])
                .collect()
        }
        Fold::Intervals => {
            // A record present in consecutive snapshots of the set has
            // one lifetime row (record, start, end); a gap starts a new
            // one. Keys are the records' canonical text.
            let mut open: HashMap<String, (Row, u64)> = HashMap::new();
            let mut out: Vec<Row> = Vec::new();
            let mut prev: Option<u64> = None;
            let close = |out: &mut Vec<Row>, (mut row, start): (Row, u64), end: u64| {
                row.push(Value::Integer(start as i64));
                row.push(Value::Integer(end as i64));
                out.push(row);
            };
            for (sid, rows) in per_snapshot {
                let mut next: HashMap<String, (Row, u64)> = HashMap::with_capacity(rows.len());
                for row in rows.iter() {
                    let key = format!("{row:?}");
                    let start = open.remove(&key).map_or(*sid, |(_, start)| start);
                    next.insert(key, (row.clone(), start));
                }
                for (_, ended) in open.drain() {
                    close(
                        &mut out,
                        ended,
                        prev.expect("open lifetimes have a previous snapshot"),
                    );
                }
                open = next;
                prev = Some(*sid);
            }
            if let Some(last) = prev {
                for (_, ended) in open.drain() {
                    close(&mut out, ended, last);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(rows: &[&[i64]]) -> Vec<Row> {
        rows.iter()
            .map(|r| r.iter().map(|v| Value::Integer(*v)).collect())
            .collect()
    }

    #[test]
    fn as_of_rewrites_the_head() {
        assert_eq!(
            as_of("SELECT COUNT(*) FROM t", 4),
            "SELECT AS OF 4 COUNT(*) FROM t"
        );
    }

    #[test]
    fn avg_and_collate() {
        let (a, b) = (ints(&[&[4]]), ints(&[&[8]]));
        let per = [(1, &a), (2, &b)];
        assert_eq!(fold(Fold::AvgVar, &per), vec![vec![Value::Real(6.0)]]);
        assert_eq!(fold(Fold::Collate, &per), ints(&[&[4], &[8]]));
    }

    #[test]
    fn agg_table_keeps_maxima() {
        let a = ints(&[&[1, 2, 10], &[2, 1, 5]]);
        let b = ints(&[&[1, 1, 30], &[3, 4, 4]]);
        assert_eq!(
            fold(Fold::AggTableMax, &[(1, &a), (2, &b)]),
            ints(&[&[1, 2, 30], &[2, 1, 5], &[3, 4, 4]])
        );
    }

    #[test]
    fn intervals_split_on_gaps() {
        let s1 = ints(&[&[7], &[8]]);
        let s2 = ints(&[&[7]]);
        let s3 = ints(&[&[7], &[8]]);
        let mut got = fold(Fold::Intervals, &[(1, &s1), (2, &s2), (3, &s3)]);
        got.sort_by_key(|r| (r[0].as_i64(), r[1].as_i64()));
        assert_eq!(got, ints(&[&[7, 1, 3], &[8, 1, 1], &[8, 3, 3]]));
    }
}
