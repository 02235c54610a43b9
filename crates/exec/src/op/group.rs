//! Grouping operators: ν / ν* (nest), μ (unnest), and relational GROUP BY.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use tmql_algebra::{eval, AggFn, Env, ScalarExpr, SetOpKind};
use tmql_model::record::Field;
use tmql_model::{Record, Result, Value};

use crate::metrics::Metrics;

use super::{bind, bind_row, fields, no_such_var, output_value, project, Rows};

/// The nest operator ν (and ν*): group rows by the values of `keys`,
/// collapsing each group to `keys ++ (label = {value(row) | row ∈ group})`.
///
/// With `star = true` (ν* of Section 6), payload values that are NULL —
/// i.e. stem from the NULL-extended side of an outerjoin — are dropped, so
/// an all-NULL group yields ∅. This is exactly the step the nest join makes
/// unnecessary.
pub fn nest(
    (rows, shape): Rows<'_>,
    keys: &[String],
    value: &ScalarExpr,
    label: &str,
    star: bool,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    // The groups in first-seen order, and where each key's group is.
    let mut groups: Vec<(Record, Vec<Value>)> = Vec::new();
    let mut slots: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    let keys: Vec<Arc<str>> = keys.iter().map(|k| Arc::from(k.as_str())).collect();
    for row in rows {
        let key_rec = project(shape, row, &keys)?;
        let keyvals: Vec<Value> = key_rec.values().cloned().collect();
        let payload = eval(value, &bind(env, shape, row))?;
        m.comparisons += 1;
        let slot = *slots.entry(keyvals).or_insert_with(|| {
            groups.push((key_rec, Vec::new()));
            groups.len() - 1
        });
        if star && payload.is_null() {
            // ν*: "mapping nested sets consisting of a NULL-tuple to the
            // empty set".
            continue;
        }
        groups[slot].1.push(payload);
    }
    let label: Arc<str> = Arc::from(label);
    groups
        .into_iter()
        .map(|(rec, items)| rec.extend_field(label.clone(), Value::set(items)))
        .collect()
}

/// The unnest operator μ: for each row, bind every element of the set
/// `expr(row)` to `elem_var` (dropping `drop_vars`). Rows whose set is
/// empty vanish — μ is lossy on empty sets, which is why ν and μ are not
/// mutual inverses in general.
pub fn unnest(
    (rows, shape): Rows<'_>,
    expr: &ScalarExpr,
    elem_var: &str,
    drop_vars: &[String],
    env: &Env<'_>,
) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    let elem_var: Arc<str> = Arc::from(elem_var);
    // The variables a row keeps, gathered once per row.
    let mut kept: Vec<Field> = Vec::new();
    for row in rows {
        let set = eval(expr, &bind(env, shape, row))?.into_set()?;
        let mut dropped = 0;
        kept.clear();
        kept.extend(fields(shape, row).filter(|(l, _)| {
            let drop = drop_vars.iter().any(|d| **d == **l);
            dropped += usize::from(drop);
            !drop
        }));
        if dropped != drop_vars.len() {
            let bound = |d: &&String| fields(shape, row).any(|(l, _)| ***d == *l);
            let missing = drop_vars.iter().find(|d| !bound(d));
            return Err(no_such_var(shape, row, missing.map_or("", |d| d)));
        }
        for item in &set {
            let elem = [(elem_var.clone(), item.clone())];
            out.push(Record::new(kept.iter().cloned().chain(elem))?);
        }
    }
    Ok(out)
}

/// Relational GROUP BY with aggregates (multiset semantics over the rows of
/// each group) — the machinery Kim's algorithm and the Ganski–Wong fix are
/// built from (Section 2).
pub(crate) fn group_agg(
    (rows, shape): Rows<'_>,
    keys: &[(String, ScalarExpr)],
    aggs: &[(String, AggFn, ScalarExpr)],
    var: &str,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    // The groups in first-seen order (key values, per-agg argument value
    // lists), and where each key's group is.
    let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
    let mut slots: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    for row in rows {
        let e = bind(env, shape, row);
        let mut keyvals = Vec::with_capacity(keys.len());
        for (_, ke) in keys {
            keyvals.push(eval(ke, &e)?);
        }
        let mut argvals = Vec::with_capacity(aggs.len());
        for (_, _, ae) in aggs {
            argvals.push(eval(ae, &e)?);
        }
        m.comparisons += 1;
        let slot = *slots.entry(keyvals.clone()).or_insert_with(|| {
            groups.push((keyvals, vec![Vec::new(); aggs.len()]));
            groups.len() - 1
        });
        for (list, v) in groups[slot].1.iter_mut().zip(argvals) {
            list.push(v);
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    let var: Arc<str> = Arc::from(var);
    for (key, arglists) in groups {
        let mut fields = Vec::with_capacity(keys.len() + aggs.len());
        for ((label, _), v) in keys.iter().zip(key) {
            fields.push((label.as_str(), v));
        }
        for ((label, f, _), args) in aggs.iter().zip(arglists) {
            fields.push((label.as_str(), fold_agg(*f, &args)?));
        }
        out.push(bind_row(&var, Value::Tuple(Record::new(fields)?)));
    }
    Ok(out)
}

/// Fold an aggregate over the multiset of group argument values.
fn fold_agg(f: AggFn, args: &[Value]) -> Result<Value> {
    match f {
        AggFn::Count => Ok(Value::Int(args.len() as i64)),
        AggFn::Sum => {
            let mut acc = Value::Int(0);
            for v in args {
                acc = acc.add(v)?;
            }
            Ok(acc)
        }
        AggFn::Min => Ok(args.iter().min().cloned().unwrap_or(Value::Null)),
        AggFn::Max => Ok(args.iter().max().cloned().unwrap_or(Value::Null)),
        AggFn::Avg => {
            if args.is_empty() {
                return Ok(Value::Null);
            }
            let mut acc = Value::Int(0);
            for v in args {
                acc = acc.add(v)?;
            }
            acc.div(&Value::Float(args.len() as f64))
        }
    }
}

/// Set operation on the output values of two row sets, rebinding to `var`.
pub fn set_op(
    kind: SetOpKind,
    (left, ls): Rows<'_>,
    (right, rs): Rows<'_>,
    var: &str,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let lvals: BTreeSet<Value> = left.iter().map(|r| output_value(ls, r)).collect();
    let rvals: BTreeSet<Value> = right.iter().map(|r| output_value(rs, r)).collect();
    m.comparisons += (left.len() + right.len()) as u64;
    let vals: Vec<Value> = match kind {
        SetOpKind::Union => lvals.union(&rvals).cloned().collect(),
        SetOpKind::Intersect => lvals.intersection(&rvals).cloned().collect(),
        SetOpKind::Except => lvals.difference(&rvals).cloned().collect(),
    };
    let var: Arc<str> = Arc::from(var);
    Ok(vals.into_iter().map(|v| bind_row(&var, v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::bound;
    use tmql_algebra::ScalarExpr as E;

    fn row(pairs: &[(&str, Value)]) -> Record {
        Record::new(pairs.iter().map(|(l, v)| (l.to_string(), v.clone()))).unwrap()
    }

    #[test]
    fn nest_groups_and_keeps_keys() {
        let rows = vec![
            row(&[("b", Value::Int(1)), ("a", Value::Int(10))]),
            row(&[("b", Value::Int(1)), ("a", Value::Int(11))]),
            row(&[("b", Value::Int(2)), ("a", Value::Int(12))]),
        ];
        let out = nest(
            bound(&rows),
            &["b".to_string()],
            &E::var("a"),
            "as",
            false,
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("as").unwrap().as_set().unwrap().len(), 2);
        assert_eq!(out[1].get("as").unwrap().as_set().unwrap().len(), 1);
    }

    #[test]
    fn nest_star_elides_nulls() {
        // An outerjoined dangling row: payload NULL.
        let rows = vec![
            row(&[("x", Value::Int(1)), ("y", Value::Null)]),
            row(&[("x", Value::Int(2)), ("y", Value::Int(7))]),
        ];
        let star = nest(
            bound(&rows),
            &["x".to_string()],
            &E::var("y"),
            "ys",
            true,
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(star[0].get("ys").unwrap(), &Value::empty_set());
        assert_eq!(star[1].get("ys").unwrap().as_set().unwrap().len(), 1);
        // Plain ν keeps the NULL — the relational wart ν* exists to fix.
        let plain = nest(
            bound(&rows),
            &["x".to_string()],
            &E::var("y"),
            "ys",
            false,
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(plain[0].get("ys").unwrap().as_set().unwrap().len(), 1);
    }

    #[test]
    fn unnest_drops_empty_sets() {
        let rows = vec![
            row(&[
                ("x", Value::Int(1)),
                ("s", Value::set([Value::Int(1), Value::Int(2)])),
            ]),
            row(&[("x", Value::Int(2)), ("s", Value::empty_set())]),
        ];
        let out = unnest(
            bound(&rows),
            &E::var("s"),
            "v",
            &["s".to_string()],
            &Env::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.get("x").unwrap() == &Value::Int(1)));
        assert!(out.iter().all(|r| !r.has("s")));
    }

    #[test]
    fn nest_then_unnest_round_trips_nonempty() {
        let rows = vec![
            row(&[("b", Value::Int(1)), ("a", Value::Int(10))]),
            row(&[("b", Value::Int(1)), ("a", Value::Int(11))]),
        ];
        let nested = nest(
            bound(&rows),
            &["b".to_string()],
            &E::var("a"),
            "as",
            false,
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        let back = unnest(
            bound(&nested),
            &E::var("as"),
            "a",
            &["as".to_string()],
            &Env::new(),
        )
        .unwrap();
        let orig: BTreeSet<Record> = rows.into_iter().collect();
        let got: BTreeSet<Record> = back.into_iter().collect();
        assert_eq!(orig, got);
    }

    #[test]
    fn group_agg_count_matches_kim_t_table() {
        // T(C, CNT) = SELECT S.C, COUNT(*) FROM S GROUP BY S.C (Section 2).
        let s_rows = vec![
            row(&[(
                "y",
                Value::tuple([("c", Value::Int(1)), ("d", Value::Int(5))]),
            )]),
            row(&[(
                "y",
                Value::tuple([("c", Value::Int(1)), ("d", Value::Int(6))]),
            )]),
            row(&[(
                "y",
                Value::tuple([("c", Value::Int(2)), ("d", Value::Int(7))]),
            )]),
        ];
        let out = group_agg(
            bound(&s_rows),
            &[("c".to_string(), E::path("y", &["c"]))],
            &[("cnt".to_string(), AggFn::Count, E::var("y"))],
            "t",
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let t0 = out[0].get("t").unwrap().as_tuple().unwrap();
        assert_eq!(t0.get("cnt").unwrap(), &Value::Int(2));
    }

    #[test]
    fn agg_folds() {
        let vals = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(fold_agg(AggFn::Sum, &vals).unwrap(), Value::Int(6));
        assert_eq!(fold_agg(AggFn::Min, &vals).unwrap(), Value::Int(1));
        assert_eq!(fold_agg(AggFn::Max, &vals).unwrap(), Value::Int(3));
        assert_eq!(fold_agg(AggFn::Avg, &vals).unwrap(), Value::Float(2.0));
        assert_eq!(fold_agg(AggFn::Count, &[]).unwrap(), Value::Int(0));
        assert!(fold_agg(AggFn::Min, &[]).unwrap().is_null());
    }

    #[test]
    fn set_ops_on_values() {
        let l = vec![row(&[("v", Value::Int(1))]), row(&[("v", Value::Int(2))])];
        let r = vec![row(&[("v", Value::Int(2))]), row(&[("v", Value::Int(3))])];
        let mut m = Metrics::new();
        let u = set_op(SetOpKind::Union, bound(&l), bound(&r), "v", &mut m).unwrap();
        assert_eq!(u.len(), 3);
        let i = set_op(SetOpKind::Intersect, bound(&l), bound(&r), "v", &mut m).unwrap();
        assert_eq!(i.len(), 1);
        let d = set_op(SetOpKind::Except, bound(&l), bound(&r), "v", &mut m).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].get("v").unwrap(), &Value::Int(1));
    }
}
