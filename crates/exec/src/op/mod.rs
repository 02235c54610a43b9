//! Physical operator implementations.
//!
//! The join family lives in three modules — [`nl`], [`hash`], [`merge`] —
//! each implementing **all five** [`crate::JoinKind`]s, demonstrating the
//! paper's observation that the nest join is "a simple modification of any
//! common join implementation method" (Section 6). Grouping operators are
//! in [`group`]. These are the materialized *kernels*; the Volcano-style
//! streaming operator tree that drives them batch-at-a-time is defined in
//! [`operator`], with its operators one family per file beside it and the
//! one spill-partition driver they share in [`spill`].

pub mod apply;
mod breaker;
pub mod exchange;
pub mod group;
pub mod hash;
mod join;
pub mod merge;
pub mod nl;
pub mod operator;
mod scan;
pub mod spill;
mod stream;

use std::sync::Arc;

use tmql_algebra::Env;
use tmql_model::{Record, Result, Value};

/// The one-binding row `(var = value)` that scans and rebinding operators
/// emit. Operators intern `var` once when they are built, so binding a
/// row allocates the row body and nothing else.
pub fn bind_row(var: &Arc<str>, value: Value) -> Record {
    Record::single(var.clone(), value)
}

/// [`bind_row`] over a chunk of stored rows, each bound as a tuple.
pub fn bind_tuples(var: &Arc<str>, rows: Vec<Record>) -> Vec<Record> {
    let bind = |row| bind_row(var, Value::Tuple(row));
    rows.into_iter().map(bind).collect()
}

/// Evaluate a list of key expressions for a row pushed on `env`.
/// Returns `None` if any key is NULL (NULL never equi-joins).
pub fn eval_keys(keys: &[tmql_algebra::ScalarExpr], env: &mut Env) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = tmql_algebra::eval(k, env)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

/// Push a row's bindings, run `f`, pop them again.
pub fn with_row<T>(
    env: &mut Env,
    row: &Record,
    f: impl FnOnce(&mut Env) -> Result<T>,
) -> Result<T> {
    env.push_row(row);
    let r = f(env);
    env.pop();
    r
}

/// NULL-extend a row with the given variables (outerjoin dangling side).
pub fn null_extend(row: &Record, vars: &[Arc<str>]) -> Result<Record> {
    let nulls = vars.iter().map(|v| (v.clone(), Value::Null));
    Record::new(row.fields().iter().cloned().chain(nulls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;

    #[test]
    fn eval_keys_rejects_null() {
        let mut env = Env::new();
        env.push("x", Value::Null);
        let keys = vec![E::var("x")];
        assert_eq!(eval_keys(&keys, &mut env).unwrap(), None);
        env.push("x", Value::Int(3));
        assert_eq!(
            eval_keys(&keys, &mut env).unwrap(),
            Some(vec![Value::Int(3)])
        );
    }

    #[test]
    fn with_row_restores_env() {
        let mut env = Env::new();
        let row = Record::new([("a".to_string(), Value::Int(1))]).unwrap();
        let v = with_row(&mut env, &row, |e| e.get("a").cloned()).unwrap();
        assert_eq!(v, Value::Int(1));
        assert!(env.is_empty());
    }

    #[test]
    fn null_extend_binds_nulls() {
        let row = Record::new([("x".to_string(), Value::Int(1))]).unwrap();
        let out = null_extend(&row, &["y".into(), "z".into()]).unwrap();
        assert!(out.get("y").unwrap().is_null());
        assert!(out.get("z").unwrap().is_null());
    }
}
