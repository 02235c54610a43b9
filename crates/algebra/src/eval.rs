//! Evaluation of scalar expressions against variable environments.

use std::sync::Arc;

use tmql_model::name::same;
use tmql_model::{setops, ModelError, Record, Result, Value};

use crate::scalar::{AggFn, ArithOp, Quantifier, ScalarExpr, SetBinOp, SetCmpOp};

/// A variable environment: a chain of lexically scoped frames, innermost
/// first. A scope **borrows** what it binds — a row between operators, a
/// quantifier element — so binding is a stack write: [`Env::bind`],
/// [`Env::bind_row`] and [`Env::bind_tuple`] return a new environment that
/// extends `self` and unbinds by going out of scope, on every path. Only
/// the bottom of a chain owns bindings: the correlation values an operator
/// tree keeps across calls ([`Env::new`] + [`Env::push`], or
/// [`Env::detach`] of a scoped chain).
#[derive(Debug, Clone, Default)]
pub struct Env<'a> {
    /// Bindings this environment owns, innermost last; they shadow `scope`.
    owned: Vec<(Arc<str>, Value)>,
    /// The borrowed frame this scope adds, and the scope it extends.
    scope: Option<(Frame<'a>, &'a Env<'a>)>,
}

#[derive(Debug, Clone, Copy)]
enum Frame<'a> {
    /// One variable.
    Var(&'a str, &'a Value),
    /// A record of bindings: every field is a variable.
    Row(&'a Record),
    /// A bare stored tuple, bound whole to one variable.
    Tuple(&'a str, &'a Record),
}

/// What a variable resolves to: a value that exists somewhere, or a bare
/// tuple (no `Value::Tuple` around it exists until somebody asks for one).
#[derive(Clone, Copy)]
enum Bound<'e> {
    Value(&'e Value),
    Tuple(&'e Record),
}

impl<'a> Env<'a> {
    /// Empty environment.
    pub fn new() -> Env<'static> {
        Env::default()
    }

    fn scoped<'e>(&'e self, frame: Frame<'e>) -> Env<'e> {
        Env {
            owned: Vec::new(),
            scope: Some((frame, self)),
        }
    }

    /// This environment with `name` bound to `value` in front.
    pub fn bind<'e>(&'e self, name: &'e str, value: &'e Value) -> Env<'e> {
        self.scoped(Frame::Var(name, value))
    }

    /// This environment with every field of `row` bound in front.
    pub fn bind_row<'e>(&'e self, row: &'e Record) -> Env<'e> {
        self.scoped(Frame::Row(row))
    }

    /// This environment with `name` bound to the tuple `row` in front.
    pub fn bind_tuple<'e>(&'e self, name: &'e str, row: &'e Record) -> Env<'e> {
        self.scoped(Frame::Tuple(name, row))
    }

    /// Own a binding (shadows every binding of the same name so far).
    pub fn push(&mut self, name: impl Into<Arc<str>>, value: Value) {
        self.owned.push((name.into(), value));
    }

    /// An environment that owns everything this chain binds — what an
    /// operator tree keeps as its correlation environment. Shadowed
    /// bindings are kept (harmless: lookups stop at the innermost).
    pub fn detach(&self) -> Env<'static> {
        let mut out = match self.scope {
            None => Env::new(),
            Some((frame, outer)) => {
                let mut out = outer.detach();
                match frame {
                    Frame::Var(l, v) => out.push(l, v.clone()),
                    Frame::Row(row) => out.owned.extend(row.fields().iter().cloned()),
                    Frame::Tuple(l, row) => out.push(l, Value::Tuple(row.clone())),
                }
                out
            }
        };
        out.owned.extend(self.owned.iter().cloned());
        out
    }

    /// The innermost binding of `name`. Names are compared in place
    /// ([`tmql_model::name`]): this runs for every variable of every
    /// expression evaluated on a row.
    fn resolve(&self, name: &str) -> Result<Bound<'_>> {
        let mut env = self;
        loop {
            if let Some((_, v)) = env.owned.iter().rev().find(|(l, _)| same(l, name)) {
                return Ok(Bound::Value(v));
            }
            let Some((frame, outer)) = env.scope else {
                return Err(ModelError::SchemaError(format!(
                    "unbound variable `{name}`"
                )));
            };
            match frame {
                Frame::Var(l, v) if same(l, name) => return Ok(Bound::Value(v)),
                Frame::Tuple(l, row) if same(l, name) => return Ok(Bound::Tuple(row)),
                Frame::Row(row) => {
                    if let Some(v) = row.find(name) {
                        return Ok(Bound::Value(v));
                    }
                }
                _ => {}
            }
            env = outer;
        }
    }

    /// Look up a variable, innermost binding first.
    pub fn get(&self, name: &str) -> Result<Value> {
        Ok(match self.resolve(name)? {
            Bound::Value(v) => v.clone(),
            Bound::Tuple(row) => Value::Tuple(row.clone()),
        })
    }
}

/// The value of a literal or a `Var`/`Field` chain, borrowed from the
/// expression or the environment; `None` for any other expression, and for
/// a variable bound to a bare tuple on its own (`x.b` borrows straight out
/// of the row; `x` has to be made).
fn borrowed<'e>(expr: &'e ScalarExpr, env: &'e Env<'_>) -> Option<Result<&'e Value>> {
    static NULL: Value = Value::Null;
    match expr {
        ScalarExpr::Lit(v) => Some(Ok(v)),
        ScalarExpr::Var(name) => match env.resolve(name) {
            Ok(Bound::Value(v)) => Some(Ok(v)),
            Ok(Bound::Tuple(_)) => None,
            Err(e) => Some(Err(e)),
        },
        ScalarExpr::Field(e, label) => {
            let base = match &**e {
                ScalarExpr::Var(name) => match env.resolve(name) {
                    Ok(Bound::Tuple(row)) => return Some(row.get(label)),
                    Ok(Bound::Value(v)) => Ok(v),
                    Err(e) => Err(e),
                },
                e => borrowed(e, env)?,
            };
            Some(base.and_then(|v| match v {
                // NULL propagates through field access (relational baseline:
                // NULL-extended outerjoin tuples have no fields).
                Value::Null => Ok(&NULL),
                v => v.as_tuple()?.get(label),
            }))
        }
        _ => None,
    }
}

/// Evaluate one operand and hand it to `f` — by reference, without a
/// copy, when it is a literal or a `Var`/`Field` chain.
pub fn with_value<T>(
    e: &ScalarExpr,
    env: &Env<'_>,
    f: impl FnOnce(&Value) -> Result<T>,
) -> Result<T> {
    if let Some(v) = borrowed(e, env) {
        return f(v?);
    }
    f(&eval(e, env)?)
}

/// [`with_value`] for two operands, evaluated left to right.
pub fn with_values<T>(
    a: &ScalarExpr,
    b: &ScalarExpr,
    env: &Env<'_>,
    f: impl FnOnce(&Value, &Value) -> Result<T>,
) -> Result<T> {
    if let (Some(va), Some(vb)) = (borrowed(a, env), borrowed(b, env)) {
        return f(va?, vb?);
    }
    let (va, vb) = (eval(a, env)?, eval(b, env)?);
    f(&va, &vb)
}

/// Evaluate an expression to a value.
pub fn eval(expr: &ScalarExpr, env: &Env<'_>) -> Result<Value> {
    match expr {
        ScalarExpr::Lit(v) => Ok(v.clone()),
        ScalarExpr::Var(name) => env.get(name),
        ScalarExpr::Field(e, label) => {
            // A chain is walked by reference; only the leaf is cloned (a
            // tuple or set leaf by bumping its count).
            if let Some(v) = borrowed(expr, env) {
                return v.cloned();
            }
            match eval(e, env)? {
                Value::Null => Ok(Value::Null),
                v => v.as_tuple()?.get(label).cloned(),
            }
        }
        ScalarExpr::Cmp(op, a, b) => {
            with_values(a, b, env, |va, vb| Ok(Value::Bool(op.test(va, vb))))
        }
        ScalarExpr::Arith(op, a, b) => with_values(a, b, env, |va, vb| {
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            match op {
                ArithOp::Add => va.add(vb),
                ArithOp::Sub => va.sub(vb),
                ArithOp::Mul => va.mul(vb),
                ArithOp::Div => va.div(vb),
            }
        }),
        ScalarExpr::And(a, b) => {
            // Short-circuit; two-valued logic (NULL comparisons are false).
            if !eval(a, env)?.as_bool()? {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval(b, env)?.as_bool()?))
        }
        ScalarExpr::Or(a, b) => {
            if eval(a, env)?.as_bool()? {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval(b, env)?.as_bool()?))
        }
        ScalarExpr::Not(e) => Ok(Value::Bool(!eval(e, env)?.as_bool()?)),
        ScalarExpr::SetBin(op, a, b) => with_values(a, b, env, |va, vb| match op {
            SetBinOp::Union => setops::union(va, vb),
            SetBinOp::Intersect => setops::intersect(va, vb),
            SetBinOp::Difference => setops::difference(va, vb),
        }),
        ScalarExpr::SetCmp(op, a, b) => with_values(a, b, env, |va, vb| {
            Ok(Value::Bool(eval_set_cmp(*op, va, vb)?))
        }),
        ScalarExpr::Agg(f, e) => with_value(e, env, |v| eval_agg(*f, v)),
        ScalarExpr::Tuple(fields) => {
            // Straight into the exact-size body: no field buffer.
            let fields = fields.iter().map(|(l, e)| Ok((l.clone(), eval(e, env)?)));
            Ok(Value::Tuple(Record::try_new(fields)?))
        }
        ScalarExpr::SetLit(items) => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval(e, env)?);
            }
            Ok(Value::set(out))
        }
        ScalarExpr::Quant { q, var, over, pred } => {
            let set = eval(over, env)?.into_set()?;
            // ∃ stops at the first hit, ∀ at the first miss.
            let stop_on = matches!(q, Quantifier::Exists);
            for item in &set {
                if eval_predicate(pred, &env.bind(var, item))? == stop_on {
                    return Ok(Value::Bool(stop_on));
                }
            }
            Ok(Value::Bool(!stop_on))
        }
        ScalarExpr::Unnest(e) => with_value(e, env, setops::unnest),
        ScalarExpr::IsNull(e) => with_value(e, env, |v| Ok(Value::Bool(v.is_null()))),
    }
}

/// Evaluate a predicate to a boolean.
pub fn eval_predicate(expr: &ScalarExpr, env: &Env<'_>) -> Result<bool> {
    eval(expr, env)?.as_bool()
}

fn eval_set_cmp(op: SetCmpOp, a: &Value, b: &Value) -> Result<bool> {
    match op {
        SetCmpOp::In => setops::member(a, b),
        SetCmpOp::NotIn => Ok(!setops::member(a, b)?),
        SetCmpOp::SubsetEq => setops::subseteq(a, b),
        SetCmpOp::Subset => setops::subset(a, b),
        SetCmpOp::SupersetEq => setops::superseteq(a, b),
        SetCmpOp::Superset => setops::superset(a, b),
        SetCmpOp::SetEq => Ok(a.as_set()? == b.as_set()?),
        SetCmpOp::SetNe => Ok(a.as_set()? != b.as_set()?),
        SetCmpOp::Disjoint => setops::disjoint(a, b),
        SetCmpOp::Intersects => Ok(!setops::disjoint(a, b)?),
    }
}

/// Evaluate an aggregate over a set value.
///
/// `COUNT(∅) = 0`; the other aggregates return NULL on the empty set —
/// exactly the asymmetry that makes COUNT the famous bug ([Ganski & Wong
/// 87]): a lost dangling tuple is indistinguishable from NULL for
/// SUM/MIN/MAX/AVG but not for COUNT.
pub(crate) fn eval_agg(f: AggFn, v: &Value) -> Result<Value> {
    match f {
        AggFn::Count => Ok(Value::Int(setops::count(v)?)),
        AggFn::Sum => setops::aggregate::sum(v),
        AggFn::Min => Ok(setops::aggregate::min(v)?.unwrap_or(Value::Null)),
        AggFn::Max => Ok(setops::aggregate::max(v)?.unwrap_or(Value::Null)),
        AggFn::Avg => Ok(setops::aggregate::avg(v)?.unwrap_or(Value::Null)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::CmpOp;

    fn env_xy() -> Env<'static> {
        let mut env = Env::new();
        env.push(
            "x",
            Value::tuple([
                ("a", Value::Int(2)),
                ("b", Value::set([Value::Int(1), Value::Int(2)])),
            ]),
        );
        env.push("y", Value::tuple([("c", Value::Int(5))]));
        env
    }

    #[test]
    fn var_and_field() {
        let env = env_xy();
        let v = eval(&ScalarExpr::path("x", &["a"]), &env).unwrap();
        assert_eq!(v, Value::Int(2));
        assert!(eval(&ScalarExpr::path("x", &["zz"]), &env).is_err());
        assert!(eval(&ScalarExpr::var("nope"), &env).is_err());
    }

    #[test]
    fn shadowing_lookup() {
        let mut env = Env::new();
        env.push("v", Value::Int(1));
        assert_eq!(env.get("v").unwrap(), Value::Int(1));
        env.push("v", Value::Int(2));
        assert_eq!(env.get("v").unwrap(), Value::Int(2));
        // A scope shadows what it extends and ends with its block.
        {
            let three = Value::Int(3);
            let inner = env.bind("v", &three);
            assert_eq!(inner.get("v").unwrap(), three);
        }
        assert_eq!(env.get("v").unwrap(), Value::Int(2));
    }

    #[test]
    fn comparisons_and_null() {
        let env = Env::new();
        let t = eval_predicate(
            &ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(1i64), ScalarExpr::lit(2i64)),
            &env,
        )
        .unwrap();
        assert!(t);
        // NULL = NULL is false; NULL ≠ 1 is false (unknown → false).
        let e = ScalarExpr::eq(ScalarExpr::Lit(Value::Null), ScalarExpr::Lit(Value::Null));
        assert!(!eval_predicate(&e, &env).unwrap());
        let e = ScalarExpr::cmp(
            CmpOp::Ne,
            ScalarExpr::Lit(Value::Null),
            ScalarExpr::lit(1i64),
        );
        assert!(!eval_predicate(&e, &env).unwrap());
    }

    #[test]
    fn null_propagates_through_field_access() {
        let mut env = Env::new();
        env.push("y", Value::Null);
        let v = eval(&ScalarExpr::path("y", &["c"]), &env).unwrap();
        assert!(v.is_null());
        let is_null = ScalarExpr::IsNull(Box::new(ScalarExpr::path("y", &["c"])));
        assert!(eval_predicate(&is_null, &env).unwrap());
    }

    #[test]
    fn quantifiers() {
        let env = env_xy();
        // ∃v ∈ x.b (v = x.a) — 2 ∈ {1,2}
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::eq(ScalarExpr::var("v"), ScalarExpr::path("x", &["a"])),
        );
        assert!(eval_predicate(&e, &env).unwrap());
        // ∀v ∈ x.b (v < 2) — false since 2 ∈ x.b
        let e = ScalarExpr::quant(
            Quantifier::Forall,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::var("v"), ScalarExpr::lit(2i64)),
        );
        assert!(!eval_predicate(&e, &env).unwrap());
        // Quantifier over empty set: ∃ false, ∀ true.
        let empty = ScalarExpr::Lit(Value::empty_set());
        let ex = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            empty.clone(),
            ScalarExpr::lit(true),
        );
        assert!(!eval_predicate(&ex, &env).unwrap());
        let fa = ScalarExpr::quant(Quantifier::Forall, "v", empty, ScalarExpr::lit(false));
        assert!(eval_predicate(&fa, &env).unwrap());
    }

    #[test]
    fn quantifier_over_a_non_set_is_the_same_kind_mismatch() {
        let env = env_xy();
        // `x.a` is an int; what `as_set` reports for it is the contract.
        let expected = Value::Int(2).as_set().unwrap_err();
        for q in [Quantifier::Exists, Quantifier::Forall] {
            let e = ScalarExpr::quant(q, "v", ScalarExpr::path("x", &["a"]), ScalarExpr::lit(true));
            assert_eq!(eval(&e, &env).unwrap_err(), expected);
        }
        assert!(matches!(
            expected,
            ModelError::KindMismatch { expected: "set", ref found } if found == "2"
        ));
    }

    /// The stored tuple `(b = 1, c = 2)`, its old envelope `(x = row)`,
    /// and a row of two bindings.
    fn rows() -> (Record, Record, Record) {
        let row = Record::new([("b", Value::Int(1)), ("c", Value::Int(2))]).unwrap();
        let bound = Record::single("x".into(), Value::Tuple(row.clone()));
        let wide = Record::new([("x", Value::Int(1)), ("y", Value::Int(2))]).unwrap();
        (row, bound, wide)
    }

    #[test]
    fn a_row_is_bound_as_one_frame_sharing_its_body() {
        let (row, _, wide) = rows();
        let root = Env::new();
        let env = root.bind_row(&wide);
        let seven = Value::Int(7);
        let env = env.bind("x", &seven);
        let env = env.bind_tuple("t", &row);
        // Innermost binding wins, whichever kind of frame holds it.
        assert_eq!(env.get("x").unwrap(), seven);
        assert_eq!(env.get("y").unwrap(), Value::Int(2));
        let y = ScalarExpr::var("y");
        let y = borrowed(&y, &env).unwrap().unwrap();
        assert!(std::ptr::eq(y, wide.get("y").unwrap()), "bound, not copied");
        let b = ScalarExpr::path("t", &["b"]);
        let b = borrowed(&b, &env).unwrap().unwrap();
        assert!(std::ptr::eq(b, row.get("b").unwrap()), "bound, not copied");
    }

    #[test]
    fn a_bare_tuple_is_the_same_value_as_its_old_binding() {
        let (row, bound, _) = rows();
        let root = Env::new();
        let (bare, old) = (root.bind_tuple("x", &row), root.bind_row(&bound));
        let x = ScalarExpr::var("x");
        assert!(borrowed(&x, &bare).is_none(), "`x` alone has to be made");
        assert_eq!(eval(&x, &bare).unwrap(), eval(&x, &old).unwrap());
        assert_eq!(eval(&x, &bare).unwrap(), Value::Tuple(row.clone()));
        for path in [&["b"][..], &["c"], &["zz"], &["b", "deeper"]] {
            let e = ScalarExpr::path("x", path);
            assert_eq!(eval(&e, &bare), eval(&e, &old), "x.{path:?}");
        }
        let e = eval(&ScalarExpr::path("x", &["zz"]), &bare).unwrap_err();
        let available = vec!["b".to_string(), "c".to_string()];
        assert_eq!(
            e,
            ModelError::NoSuchField {
                field: "zz".into(),
                available
            }
        );
        let e = eval(&ScalarExpr::var("nope"), &bare).unwrap_err();
        assert_eq!(e, ModelError::SchemaError("unbound variable `nope`".into()));
    }

    #[test]
    fn inner_scopes_shadow_a_scan_variable() {
        let (row, _, _) = rows();
        let root = Env::new();
        let outer = root.bind_tuple("x", &row);
        // ∃x ∈ {5} (x = 5): the quantifier's `x` hides the scan's.
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "x",
            ScalarExpr::SetLit(vec![ScalarExpr::lit(5i64)]),
            ScalarExpr::eq(ScalarExpr::var("x"), ScalarExpr::lit(5i64)),
        );
        assert!(eval_predicate(&e, &outer).unwrap());
        assert_eq!(
            eval(&ScalarExpr::path("x", &["b"]), &outer).unwrap(),
            Value::Int(1)
        );
        // An Apply's inner scan variable over an outer one of the same
        // name: the detached outer row sits below the inner scope.
        let inner_row = Record::new([("b", Value::Int(9))]).unwrap();
        let correlation = outer.detach();
        let inner = correlation.bind_tuple("x", &inner_row);
        assert_eq!(
            eval(&ScalarExpr::path("x", &["b"]), &inner).unwrap(),
            Value::Int(9)
        );
        assert_eq!(correlation.get("x").unwrap(), Value::Tuple(row.clone()));
    }

    #[test]
    fn null_propagates_beside_a_bare_frame() {
        // A NULL-extended outer row `(x = row, y = NULL)` next to a bare
        // `z`: `y.c` is NULL, `z.b` is read out of the row.
        let (row, _, _) = rows();
        let dangling = Record::new([("x", Value::Tuple(row.clone())), ("y", Value::Null)]).unwrap();
        let root = Env::new();
        let env = root.bind_row(&dangling);
        let env = env.bind_tuple("z", &row);
        assert!(eval(&ScalarExpr::path("y", &["c"]), &env)
            .unwrap()
            .is_null());
        assert_eq!(
            eval(&ScalarExpr::path("z", &["b"]), &env).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval(&ScalarExpr::path("x", &["c"]), &env).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn detach_owns_the_whole_chain_in_order() {
        let (row, _, wide) = rows();
        let mut root = Env::new();
        root.push("k", Value::Int(0));
        root.push("x", Value::Int(-1));
        let env = root.bind_row(&wide);
        let env = env.bind_tuple("t", &row);
        let owned: Env<'static> = env.detach();
        drop(env);
        assert_eq!(owned.get("k").unwrap(), Value::Int(0));
        assert_eq!(
            owned.get("x").unwrap(),
            Value::Int(1),
            "the row shadows the root"
        );
        assert_eq!(owned.get("t").unwrap(), Value::Tuple(row));
    }

    #[test]
    fn a_failed_tuple_field_is_the_error_and_costs_no_buffer() {
        let env = env_xy();
        let e = ScalarExpr::Tuple(vec![
            ("a".into(), ScalarExpr::path("x", &["a"])),
            ("boom".into(), ScalarExpr::var("nope")),
            ("c".into(), ScalarExpr::path("y", &["c"])),
        ]);
        let err = eval(&e, &env).unwrap_err();
        assert_eq!(
            err,
            ModelError::SchemaError("unbound variable `nope`".into())
        );
        let dup = ScalarExpr::Tuple(vec![
            ("a".into(), ScalarExpr::lit(1i64)),
            ("a".into(), ScalarExpr::lit(2i64)),
        ]);
        assert!(matches!(
            eval(&dup, &env),
            Err(ModelError::DuplicateField(_))
        ));
    }

    #[test]
    fn env_is_restored_after_quantifier() {
        // The quantifier's binding lives in a scope of its own: whether the
        // body succeeds or fails, `env` is what it was.
        let env = env_xy();
        let over = ScalarExpr::path("x", &["b"]);
        let ok = ScalarExpr::quant(
            Quantifier::Exists,
            "y",
            over.clone(),
            ScalarExpr::lit(false),
        );
        assert!(!eval_predicate(&ok, &env).unwrap());
        let failing = ScalarExpr::quant(Quantifier::Exists, "y", over, ScalarExpr::var("boom"));
        assert!(eval_predicate(&failing, &env).is_err());
        let c = eval(&ScalarExpr::path("y", &["c"]), &env).unwrap();
        assert_eq!(c, Value::Int(5), "`y` is the outer binding again");
    }

    #[test]
    fn aggregates_count_vs_others_on_empty() {
        assert_eq!(
            eval_agg(AggFn::Count, &Value::empty_set()).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_agg(AggFn::Sum, &Value::empty_set()).unwrap(),
            Value::Int(0)
        );
        assert!(eval_agg(AggFn::Min, &Value::empty_set()).unwrap().is_null());
        assert!(eval_agg(AggFn::Max, &Value::empty_set()).unwrap().is_null());
        assert!(eval_agg(AggFn::Avg, &Value::empty_set()).unwrap().is_null());
    }

    #[test]
    fn tuple_and_set_construction() {
        let env = env_xy();
        let e = ScalarExpr::Tuple(vec![
            ("a".into(), ScalarExpr::path("x", &["a"])),
            ("c".into(), ScalarExpr::path("y", &["c"])),
        ]);
        let v = eval(&e, &env).unwrap();
        assert_eq!(
            v,
            Value::tuple([("a", Value::Int(2)), ("c", Value::Int(5))])
        );
        let s = ScalarExpr::SetLit(vec![ScalarExpr::lit(1i64), ScalarExpr::lit(1i64)]);
        assert_eq!(eval(&s, &env).unwrap().as_set().unwrap().len(), 1);
    }

    #[test]
    fn arithmetic_with_null() {
        let env = Env::new();
        let e = ScalarExpr::Arith(
            ArithOp::Add,
            Box::new(ScalarExpr::Lit(Value::Null)),
            Box::new(ScalarExpr::lit(1i64)),
        );
        assert!(eval(&e, &env).unwrap().is_null());
    }

    #[test]
    fn short_circuit_and() {
        let env = Env::new();
        // Second conjunct would error (unbound var) if evaluated.
        let e = ScalarExpr::and(ScalarExpr::lit(false), ScalarExpr::var("boom"));
        assert!(!eval_predicate(&e, &env).unwrap());
        let e = ScalarExpr::or(ScalarExpr::lit(true), ScalarExpr::var("boom"));
        assert!(eval_predicate(&e, &env).unwrap());
    }
}
