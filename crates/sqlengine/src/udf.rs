//! Scalar user-defined functions.
//!
//! This is the analog of SQLite's `sqlite3_create_function`: the RQL
//! mechanisms are "loop body" UDFs invoked once per row of the Qs result
//! (`SELECT rql_udf(snap_id, …) FROM SnapIds`, paper §3). UDFs may carry
//! state and perform side effects — the RQL callbacks run whole queries
//! and write result tables from inside the call.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::Result;
use crate::value::Value;

/// A scalar UDF: takes evaluated argument values, returns one value.
pub type UdfFn = dyn Fn(&[Value]) -> Result<Value> + Send + Sync;

/// Registry of scalar UDFs by (lower-case) name.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    funcs: HashMap<String, Arc<UdfFn>>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a function.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.funcs.insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<Arc<UdfFn>> {
        self.funcs.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Registered function names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.funcs.keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdfRegistry")
            .field("functions", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn register_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("double", |args| {
            Ok(args[0].add(&Value::Integer(0)).add(&args[0]))
        });
        let f = reg.get("DOUBLE").unwrap();
        assert_eq!(f(&[Value::Integer(21)]).unwrap(), Value::Integer(42));
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn udfs_may_carry_state() {
        let mut reg = UdfRegistry::new();
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        reg.register("tick", move |_| {
            Ok(Value::Integer(c.fetch_add(1, Ordering::Relaxed) as i64))
        });
        let f = reg.get("tick").unwrap();
        assert_eq!(f(&[]).unwrap(), Value::Integer(0));
        assert_eq!(f(&[]).unwrap(), Value::Integer(1));
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn names_sorted() {
        let mut reg = UdfRegistry::new();
        reg.register("zeta", |_| Ok(Value::Null));
        reg.register("alpha", |_| Ok(Value::Null));
        assert_eq!(reg.names(), vec!["alpha", "zeta"]);
    }
}
