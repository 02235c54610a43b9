//! A reference evaluator for tmql queries: the nested-loop meaning of the
//! SELECT-FROM-WHERE syntax, written to be obviously right rather than fast.
//!
//! It reads the parsed query (`tmql_lang::parse_query`) and the stored rows
//! (`Table::rows_vec`), and shares nothing else with the engine: no plan,
//! no translation, no executor, and none of `Value`'s `==`, order or hash.
//! Every FROM item is a loop over a materialized `Vec`; values are the
//! oracle's own [`V`], with its own equality ([`same`]) and dedup. Numbers
//! are one kind: `Int(i)` equals `Float(f)` iff `f` is integral and exactly
//! `i`, `-0.0` equals `0`, NaN equals NaN, and a comparison with NULL is
//! false. What it does not cover — lists, variants, ordering across kinds
//! or of tuples and sets — is [`Failure::Unsupported`], never a guess.
//!
//! A suite includes it with
//!
//! ```text
//! #[path = "support/oracle.rs"]
//! mod oracle;
//! ```

#![allow(dead_code)]

use std::cmp::Ordering;

use tmql_lang::ast::{AggFn, ArithOp, CmpOp, Expr, FromItem, Quantifier, SetBinOp, SetCmpOp};
use tmql_model::Value;
use tmql_storage::Catalog;

/// A value. A set is a `Vec` without duplicates, in no particular order.
#[derive(Debug, Clone)]
pub enum V {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Tuple(Vec<(String, V)>),
    Set(Vec<V>),
}

impl V {
    /// The field `label` of a tuple.
    pub fn field(&self, label: &str) -> Option<&V> {
        match self {
            V::Tuple(fields) => fields.iter().find(|(l, _)| l == label).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Why there is no answer.
#[derive(Debug)]
pub enum Failure {
    /// A construct the oracle does not cover.
    Unsupported(String),
    /// A query that has no meaning: it does not parse, names nothing, or
    /// applies an operator to the wrong kind of value.
    Invalid(String),
}

type Res<T> = Result<T, Failure>;

fn invalid<T>(what: impl Into<String>) -> Res<T> {
    Err(Failure::Invalid(what.into()))
}

fn unsupported<T>(what: impl Into<String>) -> Res<T> {
    Err(Failure::Unsupported(what.into()))
}

/// The answer to `src` over the tables of `catalog`: its result set.
pub fn answer(catalog: &Catalog, src: &str) -> Res<Vec<V>> {
    let ast = tmql_lang::parse_query(src).or_else(|e| invalid(format!("{e:?}")))?;
    let mut tables = Vec::new();
    for name in catalog.table_names() {
        let table = catalog.table(name).or_else(|e| invalid(e.to_string()))?;
        let mut rows = Vec::new();
        for row in table.rows_vec().or_else(|e| invalid(e.to_string()))? {
            insert(&mut rows, from_value(&Value::Tuple(row))?);
        }
        tables.push((name.to_string(), rows));
    }
    Oracle { tables }.query(&ast)
}

/// The oracle's copy of an engine value.
pub fn from_value(v: &Value) -> Res<V> {
    Ok(match v {
        Value::Null => V::Null,
        Value::Bool(b) => V::Bool(*b),
        Value::Int(i) => V::Int(*i),
        Value::Float(f) => V::Float(*f),
        Value::Str(s) => V::Str(s.to_string()),
        Value::Tuple(r) => V::Tuple(
            r.iter()
                .map(|(l, v)| Ok((l.to_string(), from_value(v)?)))
                .collect::<Res<_>>()?,
        ),
        Value::Set(s) => V::Set(s.iter().map(from_value).collect::<Res<_>>()?),
        Value::List(_) | Value::Variant(..) => return unsupported(format!("value {v}")),
    })
}

/// Assert that the engine's result set `got` is the oracle's `want`: each
/// of them holds every value of the other, and they are equally large (so
/// a set the engine failed to deduplicate is caught too).
pub fn assert_matches<'a>(got: impl IntoIterator<Item = &'a Value>, want: &[V], case: &str) {
    let got: Vec<V> = got
        .into_iter()
        .map(|v| from_value(v).unwrap_or_else(|e| panic!("{case}: {e:?}")))
        .collect();
    let missing: Vec<&V> = want.iter().filter(|w| !member(w, &got)).collect();
    let extra: Vec<&V> = got.iter().filter(|g| !member(g, want)).collect();
    assert!(
        missing.is_empty() && extra.is_empty() && got.len() == want.len(),
        "{case}: the engine's {} values differ from the oracle's {}\n  missing: {missing:?}\n  extra: {extra:?}",
        got.len(),
        want.len()
    );
}

/// `x ∈ set` under the oracle's equality.
pub fn member(x: &V, set: &[V]) -> bool {
    set.iter().any(|e| same(x, e))
}

/// Add `x` to the duplicate-free `set` unless it is already there.
fn insert(set: &mut Vec<V>, x: V) {
    if !member(&x, set) {
        set.push(x);
    }
}

/// The one equality: structural, numbers by exact value, tuples as
/// label-to-value maps, sets as sets.
pub fn same(a: &V, b: &V) -> bool {
    match (a, b) {
        (V::Null, V::Null) => true,
        (V::Bool(x), V::Bool(y)) => x == y,
        (V::Str(x), V::Str(y)) => x == y,
        (V::Int(_) | V::Float(_), V::Int(_) | V::Float(_)) => num_cmp(a, b) == Ordering::Equal,
        (V::Tuple(x), V::Tuple(y)) => {
            x.len() == y.len()
                && x.iter()
                    .all(|(l, v)| y.iter().any(|(m, w)| l == m && same(v, w)))
        }
        (V::Set(x), V::Set(y)) => x.len() == y.len() && x.iter().all(|e| member(e, y)),
        _ => false,
    }
}

/// Two numbers by exact value; NaN equals NaN and is above every number.
fn num_cmp(a: &V, b: &V) -> Ordering {
    match (a, b) {
        (V::Int(x), V::Int(y)) => x.cmp(y),
        (V::Float(x), V::Float(y)) => match (x.is_nan(), y.is_nan()) {
            (false, false) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
            (nx, ny) => nx.cmp(&ny),
        },
        (V::Int(i), V::Float(f)) => int_float_cmp(*i, *f),
        (V::Float(f), V::Int(i)) => int_float_cmp(*i, *f).reverse(),
        _ => unreachable!("num_cmp of a non-number"),
    }
}

/// `i` against `f` without rounding `i` through a float.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    // In range, so the integral part converts exactly.
    i.cmp(&(whole as i64))
        .then_with(|| 0f64.partial_cmp(&(f - whole)).unwrap())
}

/// The order `<` and friends use: numbers, strings and booleans among
/// their own kind.
fn order(a: &V, b: &V) -> Res<Ordering> {
    match (a, b) {
        (V::Int(_) | V::Float(_), V::Int(_) | V::Float(_)) => Ok(num_cmp(a, b)),
        (V::Str(x), V::Str(y)) => Ok(x.as_bytes().cmp(y.as_bytes())),
        (V::Bool(x), V::Bool(y)) => Ok(x.cmp(y)),
        _ => unsupported(format!("ordering {a:?} against {b:?}")),
    }
}

fn set(v: V) -> Res<Vec<V>> {
    match v {
        V::Set(items) => Ok(items),
        other => invalid(format!("expected a set, found {other:?}")),
    }
}

fn boolean(v: V) -> Res<bool> {
    match v {
        V::Bool(b) => Ok(b),
        other => invalid(format!("expected a boolean, found {other:?}")),
    }
}

fn arith(op: ArithOp, a: V, b: V) -> Res<V> {
    let float = |x: f64, y: f64| match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
    };
    Ok(match (a, b) {
        (V::Null, _) | (_, V::Null) => V::Null,
        (V::Int(x), V::Int(y)) => {
            let r = match op {
                ArithOp::Add => x.checked_add(y),
                ArithOp::Sub => x.checked_sub(y),
                ArithOp::Mul => x.checked_mul(y),
                ArithOp::Div => x.checked_div(y),
            };
            V::Int(r.ok_or_else(|| Failure::Invalid(format!("{x} {op:?} {y}")))?)
        }
        (V::Float(x), V::Float(y)) => V::Float(float(x, y)),
        (V::Int(x), V::Float(y)) => V::Float(float(x as f64, y)),
        (V::Float(x), V::Int(y)) => V::Float(float(x, y as f64)),
        (a, b) => return invalid(format!("{a:?} {op:?} {b:?}")),
    })
}

/// What the translator reads as set-valued, so `=` or `<>` between it and
/// anything is set (in)equality.
fn setish(e: &Expr) -> bool {
    matches!(
        e,
        Expr::SetLit(..) | Expr::Sfw { .. } | Expr::SetBin(..) | Expr::Unnest(..)
    )
}

struct Oracle {
    /// Every stored table, as the set of its rows.
    tables: Vec<(String, Vec<V>)>,
}

/// Variables in scope, innermost last.
type Env = Vec<(String, V)>;

impl Oracle {
    /// A whole query's result set: a block's, a top-level `UNNEST` of a
    /// block's, a set operation between queries, or the one value of any
    /// other expression.
    fn query(&self, e: &Expr) -> Res<Vec<V>> {
        match e {
            Expr::Sfw { .. } => set(self.eval(e, &mut Env::new())?),
            Expr::Unnest(inner, _) if matches!(**inner, Expr::Sfw { .. }) => {
                set(self.eval(e, &mut Env::new())?)
            }
            Expr::SetBin(op, a, b)
                if matches!(**a, Expr::Sfw { .. } | Expr::SetBin(..))
                    && matches!(**b, Expr::Sfw { .. } | Expr::SetBin(..)) =>
            {
                Ok(set_bin(*op, self.query(a)?, self.query(b)?))
            }
            other => Ok(vec![self.eval(other, &mut Env::new())?]),
        }
    }

    fn eval(&self, e: &Expr, env: &mut Env) -> Res<V> {
        Ok(match e {
            Expr::Int(i, _) => V::Int(*i),
            Expr::Float(f, _) => V::Float(*f),
            Expr::Str(s, _) => V::Str(s.clone()),
            Expr::Bool(b, _) => V::Bool(*b),
            Expr::Var(name, _) => match env.iter().rev().find(|(v, _)| v == name) {
                Some((_, v)) => v.clone(),
                None => match self.tables.iter().find(|(t, _)| t == name) {
                    Some((_, rows)) => V::Set(rows.clone()),
                    None => return invalid(format!("unbound name `{name}`")),
                },
            },
            Expr::Field(base, label, _) => match self.eval(base, env)? {
                V::Null => V::Null,
                v => match v.field(label) {
                    Some(f) => f.clone(),
                    None => return invalid(format!("no field `{label}` in {v:?}")),
                },
            },
            Expr::Cmp(op, a, b) => {
                let (x, y) = (self.eval(a, env)?, self.eval(b, env)?);
                let setwise = matches!(op, CmpOp::Eq | CmpOp::Ne) && (setish(a) || setish(b));
                if setwise && !(matches!(x, V::Set(_)) && matches!(y, V::Set(_))) {
                    return invalid(format!("{x:?} {op:?} {y:?} compares sets"));
                }
                V::Bool(match (op, &x, &y) {
                    (_, V::Null, _) | (_, _, V::Null) => false,
                    (CmpOp::Eq, ..) => same(&x, &y),
                    (CmpOp::Ne, ..) => !same(&x, &y),
                    (CmpOp::Lt, ..) => order(&x, &y)? == Ordering::Less,
                    (CmpOp::Le, ..) => order(&x, &y)? != Ordering::Greater,
                    (CmpOp::Gt, ..) => order(&x, &y)? == Ordering::Greater,
                    (CmpOp::Ge, ..) => order(&x, &y)? != Ordering::Less,
                })
            }
            Expr::SetCmp(op, a, b) => {
                let x = self.eval(a, env)?;
                let y = set(self.eval(b, env)?)?;
                let subset = |x: &[V], y: &[V]| x.iter().all(|e| member(e, y));
                V::Bool(match op {
                    SetCmpOp::In => member(&x, &y),
                    SetCmpOp::NotIn => !member(&x, &y),
                    _ => {
                        let x = set(x)?;
                        match op {
                            SetCmpOp::SubsetEq => subset(&x, &y),
                            SetCmpOp::Subset => subset(&x, &y) && x.len() < y.len(),
                            SetCmpOp::SupersetEq => subset(&y, &x),
                            SetCmpOp::Superset => subset(&y, &x) && x.len() > y.len(),
                            SetCmpOp::SetEq => same(&V::Set(x), &V::Set(y)),
                            SetCmpOp::SetNe => !same(&V::Set(x), &V::Set(y)),
                            SetCmpOp::Disjoint => !x.iter().any(|e| member(e, &y)),
                            SetCmpOp::Intersects => x.iter().any(|e| member(e, &y)),
                            SetCmpOp::In | SetCmpOp::NotIn => unreachable!("handled above"),
                        }
                    }
                })
            }
            Expr::Arith(op, a, b) => arith(*op, self.eval(a, env)?, self.eval(b, env)?)?,
            Expr::SetBin(op, a, b) => {
                let (x, y) = (set(self.eval(a, env)?)?, set(self.eval(b, env)?)?);
                V::Set(set_bin(*op, x, y))
            }
            Expr::And(a, b) => {
                V::Bool(boolean(self.eval(a, env)?)? && boolean(self.eval(b, env)?)?)
            }
            Expr::Or(a, b) => V::Bool(boolean(self.eval(a, env)?)? || boolean(self.eval(b, env)?)?),
            Expr::Not(a) => V::Bool(!boolean(self.eval(a, env)?)?),
            Expr::Agg(f, a, _) => aggregate(*f, set(self.eval(a, env)?)?)?,
            Expr::Quant {
                q, var, over, pred, ..
            } => {
                let mut hits = 0;
                let items = set(self.eval(over, env)?)?;
                for item in &items {
                    env.push((var.clone(), item.clone()));
                    let holds = self.eval(pred, env).and_then(boolean);
                    env.pop();
                    hits += usize::from(holds?);
                }
                V::Bool(match q {
                    Quantifier::Exists => hits > 0,
                    Quantifier::Forall => hits == items.len(),
                })
            }
            Expr::TupleLit(fields, _) => {
                let mut out: Vec<(String, V)> = Vec::new();
                for (label, f) in fields {
                    if out.iter().any(|(l, _)| l == label) {
                        return invalid(format!("label `{label}` twice"));
                    }
                    out.push((label.clone(), self.eval(f, env)?));
                }
                V::Tuple(out)
            }
            Expr::SetLit(items, _) => {
                let mut out = Vec::new();
                for item in items {
                    insert(&mut out, self.eval(item, env)?);
                }
                V::Set(out)
            }
            Expr::Unnest(a, _) => {
                let mut out = Vec::new();
                for inner in set(self.eval(a, env)?)? {
                    for x in set(inner)? {
                        insert(&mut out, x);
                    }
                }
                V::Set(out)
            }
            Expr::Sfw {
                select,
                from,
                where_clause,
                with_bindings,
                ..
            } => {
                let block = Block {
                    select,
                    where_clause: where_clause.as_deref(),
                    with_bindings,
                };
                let mut out = Vec::new();
                self.block(&block, from, env, &mut out)?;
                V::Set(out)
            }
        })
    }

    /// One loop per FROM item, innermost last; inside all of them, the
    /// `WITH` definitions, the `WHERE` test and the `SELECT` value.
    fn block(&self, b: &Block<'_>, from: &[FromItem], env: &mut Env, out: &mut Vec<V>) -> Res<()> {
        let Some((item, rest)) = from.split_first() else {
            let depth = env.len();
            let result = self.row(b, env, out);
            env.truncate(depth);
            return result;
        };
        for elem in set(self.eval(&item.operand, env)?)? {
            env.push((item.var.clone(), elem));
            let result = self.block(b, rest, env, out);
            env.pop();
            result?;
        }
        Ok(())
    }

    fn row(&self, b: &Block<'_>, env: &mut Env, out: &mut Vec<V>) -> Res<()> {
        for (var, e) in b.with_bindings {
            let v = self.eval(e, env)?;
            env.push((var.clone(), v));
        }
        let keep = match b.where_clause {
            Some(w) => boolean(self.eval(w, env)?)?,
            None => true,
        };
        if keep {
            let v = self.eval(b.select, env)?;
            insert(out, v);
        }
        Ok(())
    }
}

/// The parts of a block evaluated per combination of FROM elements.
struct Block<'e> {
    select: &'e Expr,
    where_clause: Option<&'e Expr>,
    with_bindings: &'e [(String, Expr)],
}

fn set_bin(op: SetBinOp, x: Vec<V>, y: Vec<V>) -> Vec<V> {
    match op {
        SetBinOp::Union => {
            let mut out = x;
            for e in y {
                insert(&mut out, e);
            }
            out
        }
        SetBinOp::Intersect => x.into_iter().filter(|e| member(e, &y)).collect(),
        SetBinOp::Difference => x.into_iter().filter(|e| !member(e, &y)).collect(),
    }
}

/// `COUNT(∅) = 0` and `SUM(∅) = 0`; the others are NULL on the empty set.
fn aggregate(f: AggFn, items: Vec<V>) -> Res<V> {
    if member(&V::Null, &items) {
        return unsupported(format!("{f:?} over a set holding NULL"));
    }
    let n = items.len();
    let extreme = |keep: Ordering| -> Res<V> {
        let mut best: Option<V> = None;
        for x in items.iter() {
            best = match best {
                Some(b) if order(x, &b)? != keep => Some(b),
                _ => Some(x.clone()),
            };
        }
        Ok(best.unwrap_or(V::Null))
    };
    match f {
        AggFn::Count => Ok(V::Int(n as i64)),
        AggFn::Min => extreme(Ordering::Less),
        AggFn::Max => extreme(Ordering::Greater),
        AggFn::Sum | AggFn::Avg => {
            let sum = items
                .iter()
                .try_fold(V::Int(0), |acc, x| arith(ArithOp::Add, acc, x.clone()))?;
            match (f, n) {
                (AggFn::Sum, _) => Ok(sum),
                (_, 0) => Ok(V::Null),
                _ => arith(ArithOp::Div, sum, V::Float(n as f64)),
            }
        }
    }
}
