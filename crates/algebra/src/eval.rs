//! Evaluation of scalar expressions against variable environments.

use std::sync::Arc;

use tmql_model::{setops, ModelError, Record, Result, Value};

use crate::scalar::{AggFn, ArithOp, Quantifier, ScalarExpr, SetBinOp, SetCmpOp};

/// A variable environment: an ordered stack of bindings. Later bindings
/// shadow earlier ones (inner scopes push on top). Rows flowing through the
/// algebra are [`Record`]s of bindings, so an env is usually built from one
/// or two rows plus quantifier bindings. A row is bound as one frame that
/// shares the row's body: binding it copies no value and no label.
#[derive(Debug, Clone, Default)]
pub struct Env {
    frames: Vec<Frame>,
}

#[derive(Debug, Clone)]
enum Frame {
    Var(Arc<str>, Value),
    Row(Record),
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Environment holding the bindings of one row.
    pub fn from_row(row: &Record) -> Env {
        Env {
            frames: vec![Frame::Row(row.clone())],
        }
    }

    /// Push a binding (shadows any previous binding of the same name).
    pub fn push(&mut self, name: impl Into<Arc<str>>, value: Value) {
        self.frames.push(Frame::Var(name.into(), value));
    }

    /// Pop the most recent frame: one [`Env::push`]ed binding, or all the
    /// bindings of one [`Env::push_row`]ed row.
    pub fn pop(&mut self) {
        self.frames.pop();
    }

    /// Push all bindings of a row as one frame (used by `Apply` to expose
    /// outer variables to the inner plan).
    pub fn push_row(&mut self, row: &Record) {
        self.frames.push(Frame::Row(row.clone()));
    }

    /// Look up a variable, innermost binding first.
    pub fn get(&self, name: &str) -> Result<&Value> {
        self.frames
            .iter()
            .rev()
            .find_map(|frame| match frame {
                Frame::Var(l, v) => (&**l == name).then_some(v),
                Frame::Row(row) => row.find(name),
            })
            .ok_or_else(|| ModelError::SchemaError(format!("unbound variable `{name}`")))
    }

    /// Number of frames currently on the stack.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True iff no bindings.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// The value of a literal or a `Var`/`Field` chain, borrowed from the
/// expression or the environment; `None` for any other expression.
fn borrowed<'e>(expr: &'e ScalarExpr, env: &'e Env) -> Option<Result<&'e Value>> {
    static NULL: Value = Value::Null;
    match expr {
        ScalarExpr::Lit(v) => Some(Ok(v)),
        ScalarExpr::Var(name) => Some(env.get(name)),
        ScalarExpr::Field(e, label) => Some(borrowed(e, env)?.and_then(|v| match v {
            // NULL propagates through field access (relational baseline:
            // NULL-extended outerjoin tuples have no fields).
            Value::Null => Ok(&NULL),
            v => v.as_tuple()?.get(label),
        })),
        _ => None,
    }
}

/// Evaluate one operand and hand it to `f` — by reference, without a
/// copy, when it is a literal or a `Var`/`Field` chain.
pub fn with_value<T>(
    e: &ScalarExpr,
    env: &mut Env,
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
    env: &mut Env,
    f: impl FnOnce(&Value, &Value) -> Result<T>,
) -> Result<T> {
    if let (Some(va), Some(vb)) = (borrowed(a, env), borrowed(b, env)) {
        return f(va?, vb?);
    }
    let (va, vb) = (eval(a, env)?, eval(b, env)?);
    f(&va, &vb)
}

/// Evaluate an expression to a value.
pub fn eval(expr: &ScalarExpr, env: &mut Env) -> Result<Value> {
    match expr {
        ScalarExpr::Lit(v) => Ok(v.clone()),
        ScalarExpr::Var(name) => env.get(name).cloned(),
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
            let mut out = Vec::with_capacity(fields.len());
            for (l, e) in fields {
                out.push((l.clone(), eval(e, env)?));
            }
            Ok(Value::Tuple(Record::new(out)?))
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
                env.push(var.clone(), item.clone());
                let hit = eval(pred, env).and_then(|v| v.as_bool());
                env.pop();
                if hit? == stop_on {
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
pub fn eval_predicate(expr: &ScalarExpr, env: &mut Env) -> Result<bool> {
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
pub fn eval_agg(f: AggFn, v: &Value) -> Result<Value> {
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

    fn env_xy() -> Env {
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
        let mut env = env_xy();
        let v = eval(&ScalarExpr::path("x", &["a"]), &mut env).unwrap();
        assert_eq!(v, Value::Int(2));
        assert!(eval(&ScalarExpr::path("x", &["zz"]), &mut env).is_err());
        assert!(eval(&ScalarExpr::var("nope"), &mut env).is_err());
    }

    #[test]
    fn shadowing_lookup() {
        let mut env = Env::new();
        env.push("v", Value::Int(1));
        env.push("v", Value::Int(2));
        assert_eq!(env.get("v").unwrap(), &Value::Int(2));
        env.pop();
        assert_eq!(env.get("v").unwrap(), &Value::Int(1));
    }

    #[test]
    fn comparisons_and_null() {
        let mut env = Env::new();
        let t = eval_predicate(
            &ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(1i64), ScalarExpr::lit(2i64)),
            &mut env,
        )
        .unwrap();
        assert!(t);
        // NULL = NULL is false; NULL ≠ 1 is false (unknown → false).
        let e = ScalarExpr::eq(ScalarExpr::Lit(Value::Null), ScalarExpr::Lit(Value::Null));
        assert!(!eval_predicate(&e, &mut env).unwrap());
        let e = ScalarExpr::cmp(
            CmpOp::Ne,
            ScalarExpr::Lit(Value::Null),
            ScalarExpr::lit(1i64),
        );
        assert!(!eval_predicate(&e, &mut env).unwrap());
    }

    #[test]
    fn null_propagates_through_field_access() {
        let mut env = Env::new();
        env.push("y", Value::Null);
        let v = eval(&ScalarExpr::path("y", &["c"]), &mut env).unwrap();
        assert!(v.is_null());
        let is_null = ScalarExpr::IsNull(Box::new(ScalarExpr::path("y", &["c"])));
        assert!(eval_predicate(&is_null, &mut env).unwrap());
    }

    #[test]
    fn quantifiers() {
        let mut env = env_xy();
        // ∃v ∈ x.b (v = x.a) — 2 ∈ {1,2}
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::eq(ScalarExpr::var("v"), ScalarExpr::path("x", &["a"])),
        );
        assert!(eval_predicate(&e, &mut env).unwrap());
        // ∀v ∈ x.b (v < 2) — false since 2 ∈ x.b
        let e = ScalarExpr::quant(
            Quantifier::Forall,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::var("v"), ScalarExpr::lit(2i64)),
        );
        assert!(!eval_predicate(&e, &mut env).unwrap());
        // Quantifier over empty set: ∃ false, ∀ true.
        let empty = ScalarExpr::Lit(Value::empty_set());
        let ex = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            empty.clone(),
            ScalarExpr::lit(true),
        );
        assert!(!eval_predicate(&ex, &mut env).unwrap());
        let fa = ScalarExpr::quant(Quantifier::Forall, "v", empty, ScalarExpr::lit(false));
        assert!(eval_predicate(&fa, &mut env).unwrap());
    }

    #[test]
    fn quantifier_over_a_non_set_is_the_same_kind_mismatch() {
        let mut env = env_xy();
        let depth = env.len();
        // `x.a` is an int; what `as_set` reports for it is the contract.
        let expected = Value::Int(2).as_set().unwrap_err();
        for q in [Quantifier::Exists, Quantifier::Forall] {
            let e = ScalarExpr::quant(q, "v", ScalarExpr::path("x", &["a"]), ScalarExpr::lit(true));
            assert_eq!(eval(&e, &mut env).unwrap_err(), expected);
            assert_eq!(env.len(), depth);
        }
        assert!(matches!(
            expected,
            ModelError::KindMismatch { expected: "set", ref found } if found == "2"
        ));
    }

    #[test]
    fn a_row_is_bound_as_one_frame_sharing_its_body() {
        let row = Record::new([("x", Value::Int(1)), ("y", Value::Int(2))]).unwrap();
        let mut env = Env::from_row(&row);
        env.push("x", Value::Int(7));
        env.push_row(&Record::new([("y", Value::Int(8))]).unwrap());
        assert_eq!(env.len(), 3);
        // Innermost binding wins, whichever kind of frame holds it.
        assert_eq!(env.get("x").unwrap(), &Value::Int(7));
        assert_eq!(env.get("y").unwrap(), &Value::Int(8));
        env.pop();
        assert_eq!(env.get("y").unwrap(), &Value::Int(2));
        env.pop();
        let x = env.get("x").unwrap();
        assert!(std::ptr::eq(x, row.get("x").unwrap()), "bound, not copied");
    }

    #[test]
    fn env_is_restored_after_quantifier() {
        let mut env = env_xy();
        let depth = env.len();
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::lit(false),
        );
        let _ = eval_predicate(&e, &mut env).unwrap();
        assert_eq!(env.len(), depth);
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
        let mut env = env_xy();
        let e = ScalarExpr::Tuple(vec![
            ("a".into(), ScalarExpr::path("x", &["a"])),
            ("c".into(), ScalarExpr::path("y", &["c"])),
        ]);
        let v = eval(&e, &mut env).unwrap();
        assert_eq!(
            v,
            Value::tuple([("a", Value::Int(2)), ("c", Value::Int(5))])
        );
        let s = ScalarExpr::SetLit(vec![ScalarExpr::lit(1i64), ScalarExpr::lit(1i64)]);
        assert_eq!(eval(&s, &mut env).unwrap().as_set().unwrap().len(), 1);
    }

    #[test]
    fn arithmetic_with_null() {
        let mut env = Env::new();
        let e = ScalarExpr::Arith(
            ArithOp::Add,
            Box::new(ScalarExpr::Lit(Value::Null)),
            Box::new(ScalarExpr::lit(1i64)),
        );
        assert!(eval(&e, &mut env).unwrap().is_null());
    }

    #[test]
    fn short_circuit_and() {
        let mut env = Env::new();
        // Second conjunct would error (unbound var) if evaluated.
        let e = ScalarExpr::and(ScalarExpr::lit(false), ScalarExpr::var("boom"));
        assert!(!eval_predicate(&e, &mut env).unwrap());
        let e = ScalarExpr::or(ScalarExpr::lit(true), ScalarExpr::var("boom"));
        assert!(eval_predicate(&e, &mut env).unwrap());
    }
}
