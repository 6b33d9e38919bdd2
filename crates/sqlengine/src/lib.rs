//! # rql-sqlengine
//!
//! A SQLite-like relational engine over the Retro snapshot store — the
//! substrate the RQL reproduction runs its SQL on.
//!
//! What it provides, mirroring the pieces the paper's implementation
//! (§3) relies on from SQLite/BDB:
//!
//! * dynamically typed [`value::Value`]s, slotted-page [`heap`] tables and
//!   page-backed [`btree`] indexes, all snapshot-captured because they
//!   live in pages (including the [`catalog`], rooted at page 0);
//! * a SQL subset ([`lexer`], [`parser`], [`ast`]) with the Retro
//!   extension `SELECT AS OF <sid>` and `COMMIT WITH SNAPSHOT`;
//! * a planner/executor ([`exec`]) that uses native indexes when present
//!   and builds ad-hoc hash indexes for un-indexed equi-joins, reporting
//!   that build separately (the cost split of the paper's Figure 9);
//! * a scalar [`udf`] framework (the `sqlite3_create_function` analog the
//!   RQL mechanisms are built on) and per-row callbacks (`sqlite3_exec`);
//! * [`db::Database`], the session facade: auto-commit or explicit
//!   `BEGIN`/`COMMIT [WITH SNAPSHOT]`, current-state reads over pinned
//!   MVCC views, `AS OF` reads over snapshot readers.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod ast;
pub mod btree;
pub mod cancel;
pub mod catalog;
pub mod cexpr;
pub mod db;
pub mod delta;
pub mod error;
pub mod exec;
pub mod exec_stats;
pub mod grouped;
pub mod heap;
pub mod lexer;
pub mod pagesource;
pub mod parser;
pub mod record;
pub mod schema;
pub mod sidecar;
pub mod tablewriter;
pub mod udf;
pub mod value;

pub use ast::{Expr, SelectStmt, Stmt};
pub use cancel::{CancelCause, CancelToken};
pub use catalog::{Catalog, IndexInfo, TableInfo};
pub use cexpr::AggFunc;
pub use db::{Database, ExecOutcome};
pub use delta::{CachedPage, DeltaScan, DeltaTableScanner, PageCache, ScanPages, SkipReason};
pub use error::{Result, SqlError};
pub use exec::{AggAcc, QueryResult, Scanned};
pub use exec_stats::ExecStats;
pub use grouped::GroupTable;
pub use heap::{FreeSpaceMap, HeapFile, RecordId};
pub use lexer::{tokenize_spanned, Span, SpannedToken};
pub use pagesource::PageSource;
pub use parser::{parse_select, parse_statement, parse_statements};
pub use record::Row;
pub use rql_retro::PageVersion;
pub use schema::{ColumnDef, ColumnType, IndexSchema, TableSchema};
pub use sidecar::{build_sidecar, PredAtom, PredSummary, Sidecar, SIDECAR_FORMAT_VERSION};
pub use tablewriter::TableWriter;
pub use udf::UdfRegistry;
pub use value::{GroupKey, GroupKeyRef, KeyMap, KeyState, Value};
