//! The schema environment the analyzer resolves names against.
//!
//! A [`SchemaEnv`] is a point-in-time view of what a database knows:
//! table schemas (keyed lowercase, matching the engine's catalog) and
//! the registered UDFs (builtins are implicit) — what the engine's
//! binder resolves against. It can be captured from a live [`Database`]
//! — the session pre-flight path — or built statically by folding a
//! program's DDL, which is how `rqlcheck` lints `.rql` files without
//! opening a store.

use std::collections::HashMap;

use rql_sqlengine::ast::Stmt;
use rql_sqlengine::{parse_statement, Database, Result, SqlError, TableSchema, UdfRegistry};

use crate::mechanism::MechanismKind;
use crate::snapids::SNAPIDS_DDL;

/// Tables and functions visible to a query under analysis.
#[derive(Debug, Clone, Default)]
pub struct SchemaEnv {
    tables: HashMap<String, TableSchema>,
    udfs: UdfRegistry,
}

impl SchemaEnv {
    /// An empty environment (no tables, no UDFs).
    pub fn new() -> SchemaEnv {
        SchemaEnv::default()
    }

    /// Capture the current catalog and UDF registry of a live database.
    pub fn from_database(db: &Database) -> Result<SchemaEnv> {
        Ok(SchemaEnv {
            tables: db.table_schemas()?,
            udfs: db.udfs(),
        })
    }

    /// The environment an auxiliary database starts with: the `SnapIds`
    /// virtual table (paper §3) plus the mechanism UDFs the session
    /// registers.
    pub fn aux_default() -> SchemaEnv {
        let mut env = SchemaEnv::new();
        if let Ok(ddl) = parse_statement(SNAPIDS_DDL) {
            env.apply_ddl(&ddl);
        }
        for kind in MechanismKind::ALL {
            env.add_function(kind.udf_name());
        }
        env
    }

    /// Look up a table schema (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Whether `name` is a table (case-insensitive).
    pub fn has_table(&self, name: &str) -> bool {
        self.table(name).is_some()
    }

    /// All table names (lowercase, unsorted).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Every table schema, keyed by lowercase name.
    pub fn tables(&self) -> &HashMap<String, TableSchema> {
        &self.tables
    }

    /// The registered UDFs. The engine's builtins and aggregates are not
    /// listed here — the binder knows them.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Whether `name` (any case) is a registered UDF.
    pub fn has_function(&self, name: &str) -> bool {
        self.udfs.get(name).is_some()
    }

    /// Insert or replace a table schema.
    pub fn add_table(&mut self, schema: TableSchema) {
        self.tables.insert(schema.name.to_ascii_lowercase(), schema);
    }

    /// Remove a table (DROP TABLE folding).
    pub fn remove_table(&mut self, name: &str) {
        self.tables.remove(&name.to_ascii_lowercase());
    }

    /// Register a callable function name (binding never calls it).
    pub fn add_function(&mut self, name: &str) {
        let declared = |_: &[rql_sqlengine::Value]| Err(SqlError::Udf("declared only".into()));
        self.udfs.register(name, declared);
    }

    /// Merge another environment's tables into this one (used to widen
    /// the current catalog with tables that only exist in old snapshots:
    /// a Qq may legitimately reference them under `AS OF`).
    pub fn absorb_tables(&mut self, other: &SchemaEnv) {
        for schema in other.tables.values() {
            if !self.tables.contains_key(&schema.name.to_ascii_lowercase()) {
                self.add_table(schema.clone());
            }
        }
    }

    /// Fold one statement's DDL effect into the environment. Returns
    /// `true` when the statement changed the set of tables.
    pub fn apply_ddl(&mut self, stmt: &Stmt) -> bool {
        match stmt {
            Stmt::CreateTable { name, columns, .. } => {
                self.add_table(TableSchema::new(name, columns.clone()));
                true
            }
            Stmt::CreateTableAs { name, .. } => {
                // Output schema is query-dependent; record the table with
                // an open schema so later references at least resolve the
                // table name.
                self.add_table(TableSchema::new(name, Vec::new()));
                true
            }
            Stmt::DropTable { name, .. } => {
                self.remove_table(name);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::ColumnType;

    #[test]
    fn ddl_folding() {
        let mut env = SchemaEnv::new();
        let stmts = rql_sqlengine::parse_statements(
            "CREATE TABLE t (a INTEGER, b TEXT); DROP TABLE t; CREATE TABLE u (x INTEGER)",
        )
        .unwrap();
        for s in &stmts {
            env.apply_ddl(s);
        }
        assert!(!env.has_table("t"));
        assert!(env.has_table("U"));
        assert_eq!(env.table("u").unwrap().columns.len(), 1);
    }

    #[test]
    fn aux_default_has_snapids() {
        let env = SchemaEnv::aux_default();
        assert!(env.has_table("SnapIds"));
        assert!(env.has_function("CollateData"));
        assert!(!env.has_function("median"));
    }

    #[test]
    fn absorb_prefers_existing() {
        let mut a = SchemaEnv::new();
        a.add_table(TableSchema::new("t", vec![("new".into(), ColumnType::Any)]));
        let mut b = SchemaEnv::new();
        b.add_table(TableSchema::new("t", vec![("old".into(), ColumnType::Any)]));
        b.add_table(TableSchema::new("gone", vec![]));
        a.absorb_tables(&b);
        assert_eq!(a.table("t").unwrap().columns[0].name, "new");
        assert!(a.has_table("gone"));
    }
}
