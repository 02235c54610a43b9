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
//!
//! This module itself holds what all of them share: what a row between
//! two operators *is* ([`Shape`] — a record of bindings, or the stored
//! tuple itself when [`PhysPlan::row_var`] names the variable it is bound
//! to) and the only two ways an operator or kernel touches one: [`bind`]
//! (evaluate over it) and [`fields`] (build a wider row from it, through
//! [`concat()`], [`extend`], [`null_extend`], [`project`], [`output_value`]).
//! A kernel takes its inputs as [`Rows`]: a slice and its shape.

pub mod apply;
mod breaker;
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

use tmql_algebra::{Env, Plan};
use tmql_model::record::Field;
use tmql_model::{ModelError, Record, Result, Value};

use crate::physical::PhysPlan;

/// What a row between two operators is — known per plan node, never per
/// row. Either a **record of bindings** (one field per output variable:
/// what joins, maps and groupings build), or, when
/// [`PhysPlan::row_var`] says so, the **stored tuple itself**, bound to
/// that one variable by the plan alone: a scan hands out the handles
/// storage gave it and allocates nothing.
///
/// Operators never look inside a `Shape`. They go through [`bind`] to
/// evaluate over a row and through [`fields`] (or the builders on top of
/// it) to make a wider row out of it; only the executor's exits
/// ([`Shape::wrap`]) turn a bare row into the record its callers expect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shape(Option<Arc<str>>);

impl Shape {
    /// Records of bindings.
    pub const BOUND: Shape = Shape(None);

    /// Bare tuples, each bound to `var`.
    pub fn bare(var: &str) -> Shape {
        Shape(Some(Arc::from(var)))
    }

    /// The shape of `plan`'s output rows.
    pub fn of(plan: &PhysPlan) -> Shape {
        Shape(plan.row_var().map(Arc::from))
    }

    /// A row leaving the executor, as a record of bindings.
    pub fn wrap(&self, row: Record) -> Record {
        match &self.0 {
            None => row,
            Some(var) => bind_row(var, Value::Tuple(row)),
        }
    }
}

/// A slice of rows and the shape they all have: one kernel input.
pub type Rows<'a> = (&'a [Record], &'a Shape);

/// The one-binding row `(var = value)` that computing operators (map, set
/// expression scan, grouping, set operations) emit. Operators intern `var`
/// once when they are built, so binding a row allocates the row body and
/// nothing else.
pub fn bind_row(var: &Arc<str>, value: Value) -> Record {
    Record::single(var.clone(), value)
}

/// `env` with `row`'s variables bound in front, for as long as the result
/// lives: the one way operators evaluate over a row.
pub fn bind<'e>(env: &'e Env<'e>, shape: &'e Shape, row: &'e Record) -> Env<'e> {
    match &shape.0 {
        None => env.bind_row(row),
        Some(var) => env.bind_tuple(var, row),
    }
}

/// The `(label, value)` pairs of [`fields`]; its length is exact, so a
/// record collected from it (or from chains of it) is one allocation.
pub type Fields<'r> =
    std::iter::Chain<std::iter::Cloned<std::slice::Iter<'r, Field>>, std::option::IntoIter<Field>>;

/// The `(variable, value)` pairs `row` contributes when a wider row is
/// built from it.
pub fn fields<'r>(shape: &Shape, row: &'r Record) -> Fields<'r> {
    let (bound, bare): (&[Field], _) = match &shape.0 {
        None => (row.fields(), None),
        Some(var) => (&[], Some((var.clone(), Value::Tuple(row.clone())))),
    };
    bound.iter().cloned().chain(bare)
}

/// Tuple concatenation `l ++ r` of two rows (Section 6).
pub fn concat(ls: &Shape, l: &Record, rs: &Shape, r: &Record) -> Result<Record> {
    Record::new(fields(ls, l).chain(fields(rs, r)))
}

/// The paper's `x ++ (label = value)`.
pub fn extend(shape: &Shape, row: &Record, label: &Arc<str>, value: Value) -> Result<Record> {
    Record::new(fields(shape, row).chain([(label.clone(), value)]))
}

/// NULL-extend a row with the given variables (outerjoin dangling side).
pub fn null_extend(shape: &Shape, row: &Record, vars: &[Arc<str>]) -> Result<Record> {
    let nulls = vars.iter().map(|v| (v.clone(), Value::Null));
    Record::new(fields(shape, row).chain(nulls))
}

/// Projection of a row onto `vars` (in the order given).
pub fn project(shape: &Shape, row: &Record, vars: &[Arc<str>]) -> Result<Record> {
    let root = Env::new();
    let env = bind(&root, shape, row);
    let get = |v: &Arc<str>| match env.get(v) {
        Ok(value) => Ok((v.clone(), value)),
        Err(_) => Err(no_such_var(shape, row, v)),
    };
    Record::try_new(vars.iter().map(get))
}

/// The error for a variable a row does not bind.
pub(crate) fn no_such_var(shape: &Shape, row: &Record, var: &str) -> ModelError {
    ModelError::NoSuchField {
        field: var.to_string(),
        available: fields(shape, row).map(|(l, _)| l.to_string()).collect(),
    }
}

/// A row's output value (the convention of [`Plan::row_output_value`]): a
/// bare row is its one binding's value.
pub fn output_value(shape: &Shape, row: &Record) -> Value {
    match &shape.0 {
        None => Plan::row_output_value(row),
        Some(_) => Value::Tuple(row.clone()),
    }
}

/// Evaluate a list of key expressions over `env`.
/// Returns `None` if any key is NULL (NULL never equi-joins).
pub fn eval_keys(keys: &[tmql_algebra::ScalarExpr], env: &Env<'_>) -> Result<Option<Vec<Value>>> {
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

/// Test inputs built by hand are records of bindings.
#[cfg(test)]
pub(crate) fn bound(rows: &[Record]) -> Rows<'_> {
    static BOUND: Shape = Shape::BOUND;
    (rows, &BOUND)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;

    fn stored() -> Record {
        Record::new([("a", Value::Int(1)), ("b", Value::Int(2))]).unwrap()
    }

    #[test]
    fn eval_keys_rejects_null() {
        let mut env = Env::new();
        env.push("x", Value::Null);
        let keys = vec![E::var("x")];
        assert_eq!(eval_keys(&keys, &env).unwrap(), None);
        env.push("x", Value::Int(3));
        assert_eq!(eval_keys(&keys, &env).unwrap(), Some(vec![Value::Int(3)]));
    }

    #[test]
    fn with_row_restores_env() {
        let mut env = Env::new();
        env.push("a", Value::Int(0));
        let row = stored();
        for shape in [Shape::BOUND, Shape::bare("a")] {
            let inner = bind(&env, &shape, &row);
            assert_ne!(inner.get("a").unwrap(), Value::Int(0), "{shape:?}");
        }
        assert_eq!(env.get("a").unwrap(), Value::Int(0));
    }

    #[test]
    fn null_extend_binds_nulls() {
        let row = Record::new([("x".to_string(), Value::Int(1))]).unwrap();
        let out = null_extend(&Shape::BOUND, &row, &["y".into(), "z".into()]).unwrap();
        assert!(out.get("y").unwrap().is_null());
        assert!(out.get("z").unwrap().is_null());
    }

    #[test]
    fn a_bare_row_builds_what_its_envelope_built() {
        let row = stored();
        let (bare, bound) = (Shape::bare("x"), Shape::BOUND);
        let envelope = bare.wrap(row.clone());
        assert_eq!(envelope, bind_row(&"x".into(), Value::Tuple(row.clone())));
        assert_eq!(bound.wrap(envelope.clone()), envelope);
        let other = Record::new([("y", Value::Int(9))]).unwrap();
        let label: Arc<str> = "s".into();
        let vars: Vec<Arc<str>> = vec!["x".into()];
        assert_eq!(
            concat(&bare, &row, &bound, &other).unwrap(),
            concat(&bound, &envelope, &bound, &other).unwrap()
        );
        assert_eq!(
            concat(&bound, &other, &bare, &row).unwrap(),
            concat(&bound, &other, &bound, &envelope).unwrap()
        );
        assert_eq!(
            extend(&bare, &row, &label, Value::empty_set()).unwrap(),
            extend(&bound, &envelope, &label, Value::empty_set()).unwrap()
        );
        assert_eq!(
            null_extend(&bare, &row, &["y".into()]).unwrap(),
            null_extend(&bound, &envelope, &["y".into()]).unwrap()
        );
        assert_eq!(project(&bare, &row, &vars).unwrap(), envelope);
        assert_eq!(project(&bound, &envelope, &vars).unwrap(), envelope);
        assert_eq!(project(&bare, &row, &[]).unwrap(), Record::empty());
        assert_eq!(output_value(&bare, &row), Value::Tuple(row.clone()));
        assert_eq!(output_value(&bound, &envelope), Value::Tuple(row.clone()));
        assert_eq!(output_value(&bound, &row), Value::Tuple(row.clone()));
        // Clashing and missing variables are the errors they were.
        assert!(extend(&bare, &row, &"x".into(), Value::Null).is_err());
        assert!(concat(&bare, &row, &bare, &row).is_err());
        let missing: Vec<Arc<str>> = vec!["a".into()];
        assert_eq!(
            project(&bare, &row, &missing).unwrap_err(),
            envelope.project(&["a"]).unwrap_err()
        );
    }

    /// A nest join whose `func` fails on one probe row leaves nothing
    /// bound: the same correlation environment then gives clean input the
    /// clean answer, in every kernel. (Frames used to be pushed and popped
    /// by hand, and these paths returned with one or two still pushed.)
    #[test]
    fn a_failed_probe_row_leaves_no_frame_behind() {
        use crate::physical::JoinKind;
        use crate::Metrics;
        let x = |d: i64, e: Value| Record::new([("d", Value::Int(d)), ("e", e)]).unwrap();
        let y = |b: i64| Record::new([("b", Value::Int(b)), ("a", Value::Int(b * 10))]).unwrap();
        let clean = vec![x(1, Value::tuple([("z", Value::Int(7))]))];
        // The second row's `e` is no tuple: `x.e.z` fails once it matches.
        let dirty = vec![clean[0].clone(), x(2, Value::Int(7))];
        let right = vec![y(1), y(2), y(1)];
        let (xs, ys) = (Shape::bare("x"), Shape::bare("y"));
        let (lk, rk) = ([E::path("x", &["d"])], [E::path("y", &["b"])]);
        let pred = E::eq(lk[0].clone(), rk[0].clone());
        let kind = JoinKind::Nest {
            func: E::Tuple(vec![
                ("k".into(), E::var("k")),
                ("z".into(), E::path("x", &["e", "z"])),
                ("a".into(), E::path("y", &["a"])),
            ]),
            label: "s".into(),
        };
        let mut env = Env::new();
        env.push("k", Value::Int(42));
        type Kernel<'a> = &'a dyn Fn(&[Record], &Env<'_>) -> Result<Vec<Record>>;
        let m = || Metrics::new();
        let r = (right.as_slice(), &ys);
        let hash: Kernel<'_> =
            &|l, env| hash::join((l, &xs), r, &lk, &rk, None, &kind, env, &mut m());
        let nl: Kernel<'_> = &|l, env| nl::join((l, &xs), r, &pred, &kind, env, &mut m());
        let merge: Kernel<'_> =
            &|l, env| merge::join((l, &xs), r, &lk, &rk, None, &kind, env, &mut m());
        let item = |a: i64| {
            let fields = [("k", 42), ("z", 7), ("a", a)];
            Value::tuple(fields.map(|(l, v)| (l, Value::Int(v))))
        };
        let nested = Value::set([item(10)]);
        let want = vec![extend(&xs, &clean[0], &"s".into(), nested).unwrap()];
        for (name, kernel) in [("hash", hash), ("nl", nl), ("merge", merge)] {
            let err = kernel(&dirty, &env).unwrap_err();
            assert!(
                matches!(err, ModelError::KindMismatch { .. }),
                "{name}: {err}"
            );
            assert_eq!(kernel(&clean, &env).unwrap(), want, "{name}");
            assert!(env.get("x").is_err() && env.get("y").is_err(), "{name}");
        }
    }
}
