//! Seeded inputs: the rows the store is loaded with, the refresh stream
//! that builds the snapshot history, and the SQL text of served commits.
//!
//! `rql_tpch::Tpch` derives every row from its key alone, so it cannot be
//! seeded. The benchmark keeps its vocabularies, cardinalities and date
//! model (which the five Qq depend on) and re-draws from `--seed` the
//! columns the queries compute over: `o_custkey`, `o_totalprice`,
//! `l_partkey`, `l_quantity`, `l_extendedprice`. Two seeds therefore load
//! different data and expect different answers; one seed always loads the
//! same bytes.

use rql::{Database, Result, Value};
use rql_sqlengine::Row;
use rql_tpch::Tpch;

const TAG_ORDER: u64 = 0x6f72_6465;
const TAG_LINE: u64 = 0x6c69_6e65;

/// SplitMix64 step: the whole generator is this one function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic stream of draws.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64, tag: u64, key: u64) -> Draw {
        Draw(mix(mix(seed ^ tag.rotate_left(32)) ^ key))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform real in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded row source.
#[derive(Clone, Copy)]
pub struct Inputs {
    pub tpch: Tpch,
    pub seed: u64,
}

impl Inputs {
    pub fn new(sf: f64, seed: u64) -> Inputs {
        Inputs {
            tpch: Tpch::new(sf),
            seed,
        }
    }

    pub fn order_row(&self, key: i64) -> Row {
        let mut row = self.tpch.order_row(key);
        let mut d = Draw::new(self.seed, TAG_ORDER, key as u64);
        row[1] = Value::Integer(d.range(1, self.tpch.customer_count()));
        row[3] = Value::Real((85_000.0 + d.unit() * 49_915_000.0).round() / 100.0);
        row
    }

    pub fn lineitem_rows(&self, orderkey: i64) -> Vec<Row> {
        let mut rows = self.tpch.lineitem_rows(orderkey);
        for (i, row) in rows.iter_mut().enumerate() {
            let mut d = Draw::new(self.seed, TAG_LINE, (orderkey * 8 + i as i64) as u64);
            let quantity = d.range(1, 50);
            row[1] = Value::Integer(d.range(1, self.tpch.part_count()));
            row[4] = Value::Integer(quantity);
            row[5] =
                Value::Real((quantity as f64 * (90_000.0 + d.unit() * 20_000.0)).round() / 100.0);
        }
        rows
    }
}

/// Bytes of user data in a row: 8 per number, the length of each text.
pub fn user_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null => 0,
            Value::Integer(_) | Value::Real(_) => 8,
            Value::Text(t) => t.len() as u64,
        })
        .sum()
}

fn insert_all(db: &Database, table: &str, rows: impl Iterator<Item = Row>) -> Result<(u64, u64)> {
    db.with_table_writer(table, |w| {
        let (mut n, mut bytes) = (0, 0);
        for row in rows {
            bytes += user_bytes(&row);
            n += 1;
            w.insert(row)?;
        }
        Ok((n, bytes))
    })
}

/// Create the TPC-H schema and load the initial database. Returns
/// `(rows, user bytes)` loaded.
pub fn load(db: &Database, inputs: &Inputs) -> Result<(u64, u64)> {
    rql_tpch::create_schema(db)?;
    let t = &inputs.tpch;
    let mut total = (0, 0);
    let mut add = |(n, b): (u64, u64)| total = (total.0 + n, total.1 + b);
    add(insert_all(db, "region", (0..5).map(|k| t.region_row(k)))?);
    add(insert_all(db, "nation", (0..25).map(|k| t.nation_row(k)))?);
    add(insert_all(
        db,
        "part",
        (1..=t.part_count()).map(|k| t.part_row(k)),
    )?);
    add(insert_all(
        db,
        "supplier",
        (1..=t.supplier_count()).map(|k| t.supplier_row(k)),
    )?);
    add(insert_all(
        db,
        "partsupp",
        (1..=t.part_count()).flat_map(|k| t.partsupp_rows(k)),
    )?);
    add(insert_all(
        db,
        "customer",
        (1..=t.customer_count()).map(|k| t.customer_row(k)),
    )?);
    add(insert_all(
        db,
        "orders",
        (1..=t.orders_count()).map(|k| inputs.order_row(k)),
    )?);
    add(insert_all(
        db,
        "lineitem",
        (1..=t.orders_count()).flat_map(|k| inputs.lineitem_rows(k)),
    )?);
    Ok(total)
}

/// The refresh stream (RF2 then RF1): each pair deletes the `n` oldest
/// orders with their lineitems and inserts `n` new seeded orders, so the
/// database keeps its size while its pages are overwritten.
pub struct Refresh {
    next_insert: i64,
    next_delete: i64,
}

/// One refresh pair's footprint.
pub struct RefreshFootprint {
    /// Rows deleted plus rows inserted.
    pub rows: u64,
    /// User bytes of the inserted rows.
    pub bytes: u64,
}

impl Refresh {
    pub fn new(inputs: &Inputs) -> Refresh {
        Refresh {
            next_insert: inputs.tpch.orders_count() + 1,
            next_delete: 1,
        }
    }

    /// Claim the key ranges of the next pair: `(delete, insert)`.
    fn claim(&mut self, n: i64) -> (std::ops::Range<i64>, std::ops::Range<i64>) {
        let del = self.next_delete..self.next_delete + n;
        let ins = self.next_insert..self.next_insert + n;
        self.next_delete = del.end;
        self.next_insert = ins.end;
        (del, ins)
    }

    /// Apply one pair through the embedded API (the set-up path).
    pub fn apply(&mut self, db: &Database, inputs: &Inputs, n: i64) -> Result<RefreshFootprint> {
        let (del, ins) = self.claim(n);
        let mut rows = 0;
        for (table, col) in [("orders", "o_orderkey"), ("lineitem", "l_orderkey")] {
            if let rql::ExecOutcome::Affected(k) = db.execute(&format!(
                "DELETE FROM {table} WHERE {col} >= {} AND {col} < {}",
                del.start, del.end
            ))? {
                rows += k;
            }
        }
        let (n_o, b_o) = insert_all(db, "orders", ins.clone().map(|k| inputs.order_row(k)))?;
        let (n_l, b_l) = insert_all(db, "lineitem", ins.flat_map(|k| inputs.lineitem_rows(k)))?;
        Ok(RefreshFootprint {
            rows: rows + n_o + n_l,
            bytes: b_o + b_l,
        })
    }

    /// The same pair as one transaction of SQL text ending in
    /// `COMMIT WITH SNAPSHOT` (the served path). Returns the program and
    /// the user bytes it inserts.
    pub fn program(&mut self, inputs: &Inputs, n: i64) -> (String, u64) {
        let (del, ins) = self.claim(n);
        let mut bytes = 0;
        let mut sql = String::from("BEGIN;\n");
        for (table, col) in [("orders", "o_orderkey"), ("lineitem", "l_orderkey")] {
            sql.push_str(&format!(
                "DELETE FROM {table} WHERE {col} >= {} AND {col} < {};\n",
                del.start, del.end
            ));
        }
        let mut values = |table: &str, rows: &mut dyn Iterator<Item = Row>| {
            sql.push_str(&format!("INSERT INTO {table} VALUES "));
            for (i, row) in rows.enumerate() {
                bytes += user_bytes(&row);
                sql.push_str(if i == 0 { "(" } else { ", (" });
                for (j, v) in row.iter().enumerate() {
                    if j > 0 {
                        sql.push_str(", ");
                    }
                    push_literal(&mut sql, v);
                }
                sql.push(')');
            }
            sql.push_str(";\n");
        };
        values("orders", &mut ins.clone().map(|k| inputs.order_row(k)));
        values("lineitem", &mut ins.flat_map(|k| inputs.lineitem_rows(k)));
        sql.push_str("COMMIT WITH SNAPSHOT;\n");
        (sql, bytes)
    }
}

fn push_literal(sql: &mut String, v: &Value) {
    match v {
        Value::Null => sql.push_str("NULL"),
        Value::Integer(i) => sql.push_str(&i.to_string()),
        Value::Real(r) => sql.push_str(&format!("{r:?}")),
        Value::Text(t) => {
            sql.push('\'');
            sql.push_str(&t.replace('\'', "''"));
            sql.push('\'');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let a = Inputs::new(0.001, 7);
        let b = Inputs::new(0.001, 8);
        assert_eq!(a.order_row(5), Inputs::new(0.001, 7).order_row(5));
        assert_eq!(a.lineitem_rows(5), Inputs::new(0.001, 7).lineitem_rows(5));
        assert_ne!(a.order_row(5), b.order_row(5));
        assert_ne!(a.lineitem_rows(5), b.lineitem_rows(5));
        // Only the seeded columns move; the date model is the generator's.
        assert_eq!(a.order_row(5)[4], b.order_row(5)[4]);
    }

    #[test]
    fn served_program_is_the_embedded_pair() {
        let inputs = Inputs::new(0.0005, 3);
        let embedded = Database::default_in_memory();
        let served = Database::default_in_memory();
        load(&embedded, &inputs).unwrap();
        load(&served, &inputs).unwrap();
        let foot = Refresh::new(&inputs).apply(&embedded, &inputs, 9).unwrap();
        let (sql, bytes) = Refresh::new(&inputs).program(&inputs, 9);
        served.execute(&sql).unwrap();
        assert_eq!(foot.bytes, bytes);
        for q in [
            "SELECT COUNT(*), MIN(o_orderkey), SUM(o_totalprice) FROM orders",
            "SELECT COUNT(*), SUM(l_extendedprice), SUM(l_partkey) FROM lineitem",
        ] {
            assert_eq!(
                embedded.query(q).unwrap().rows,
                served.query(q).unwrap().rows
            );
        }
    }
}
