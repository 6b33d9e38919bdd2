//! The `SnapIds` table.
//!
//! Paper §2/§3: every snapshot declaration enters the new identifier and
//! a current timestamp into `SnapIds`; the table "is stored in a separate
//! SQLite database than application data because it is a
//! non-snapshotable persistent table", it supports "user friendly
//! snapshot names", and its updates are transactional.

use rql_sqlengine::{Database, Result, Value};

/// Name of the snapshot-id table in the auxiliary database.
pub const SNAPIDS_TABLE: &str = "snapids";

/// The one definition of `SnapIds` (the analyzer's auxiliary catalog
/// folds it too).
pub const SNAPIDS_DDL: &str =
    "CREATE TABLE IF NOT EXISTS snapids (snap_id INTEGER, snap_ts TEXT, name TEXT)";

/// Create `SnapIds` if missing.
pub fn ensure_snapids(aux: &Database) -> Result<()> {
    aux.execute(SNAPIDS_DDL)?;
    Ok(())
}

/// Record a declared snapshot (transactional single-statement insert).
pub fn record_snapshot(
    aux: &Database,
    snap_id: u64,
    timestamp: &str,
    name: Option<&str>,
) -> Result<()> {
    let name_sql = match name {
        Some(n) => format!("'{}'", n.replace('\'', "''")),
        None => "NULL".to_owned(),
    };
    aux.execute(&format!(
        "INSERT INTO snapids (snap_id, snap_ts, name) VALUES ({snap_id}, '{timestamp}', {name_sql})"
    ))?;
    Ok(())
}

/// All recorded snapshots as `(id, timestamp, name)` in id order.
pub fn all_snapshots(aux: &Database) -> Result<Vec<(u64, String, Option<String>)>> {
    let r = aux.query("SELECT snap_id, snap_ts, name FROM snapids ORDER BY snap_id")?;
    Ok(r.rows
        .into_iter()
        .map(|row| {
            let id = row[0].as_i64().unwrap_or(0) as u64;
            let ts = row[1].as_str().unwrap_or("").to_owned();
            let name = match &row[2] {
                Value::Text(t) => Some(t.clone()),
                _ => None,
            };
            (id, ts, name)
        })
        .collect())
}

/// Resolve a user-friendly snapshot name to its id.
pub fn snapshot_by_name(aux: &Database, name: &str) -> Result<Option<u64>> {
    let r = aux.query(&format!(
        "SELECT snap_id FROM snapids WHERE name = '{}'",
        name.replace('\'', "''")
    ))?;
    Ok(r.rows
        .first()
        .and_then(|row| row[0].as_i64())
        .map(|i| i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_list() {
        let aux = Database::default_in_memory();
        ensure_snapids(&aux).unwrap();
        ensure_snapids(&aux).unwrap(); // idempotent
        record_snapshot(&aux, 1, "2008-11-09 23:59:59", None).unwrap();
        record_snapshot(&aux, 2, "2008-11-10 23:59:59", Some("end of day")).unwrap();
        let all = all_snapshots(&aux).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (1, "2008-11-09 23:59:59".into(), None));
        assert_eq!(
            all[1],
            (2, "2008-11-10 23:59:59".into(), Some("end of day".into()))
        );
        assert_eq!(snapshot_by_name(&aux, "end of day").unwrap(), Some(2));
        assert_eq!(snapshot_by_name(&aux, "missing").unwrap(), None);
    }

    #[test]
    fn names_with_quotes_escaped() {
        let aux = Database::default_in_memory();
        ensure_snapids(&aux).unwrap();
        record_snapshot(&aux, 1, "t", Some("bob's snap")).unwrap();
        assert_eq!(snapshot_by_name(&aux, "bob's snap").unwrap(), Some(1));
    }
}
