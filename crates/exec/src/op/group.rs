//! Grouping operators: ν / ν* (nest), μ (unnest), and relational GROUP BY.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use tmql_algebra::{AggFn, Compiled, Env, SetOpKind};
use tmql_model::{Record, Result, Shape, ShapeMemo, Value};

use crate::metrics::Metrics;

use super::{
    bind, bind_row, no_such_var, output_value, project, shape_of, values, var_shape, Rows,
};

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
    value: &Compiled<'_>,
    label: &str,
    star: bool,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    // The groups in first-seen order, and where each key's group is.
    let mut groups: Vec<(Record, Vec<Value>)> = Vec::new();
    let mut slots: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let keys = Shape::new(keys.iter().map(String::as_str))?;
    for row in rows {
        let key_rec = project(shape, row, &keys)?;
        let keyvals: Vec<Value> = key_rec.values().to_vec();
        let payload = value.eval(&bind(env, shape, row))?;
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
    let nested = keys.extend([&Arc::from(label)])?;
    let row = |(rec, items): (Record, _)| {
        let values = rec.values().iter().cloned().chain([Value::set(items)]);
        Record::shaped(nested.clone(), values)
    };
    Ok(groups.into_iter().map(row).collect())
}

/// The unnest operator μ: for each row, bind every element of the set
/// `expr(row)` to `elem_var` (dropping `drop_vars`). Rows whose set is
/// empty vanish — μ is lossy on empty sets, which is why ν and μ are not
/// mutual inverses in general.
pub fn unnest(
    (rows, shape): Rows<'_>,
    expr: &Compiled<'_>,
    elem_var: &str,
    drop_vars: &[String],
    env: &Env<'_>,
) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    let elem_var: Arc<str> = Arc::from(elem_var);
    let dropped = |l: &Arc<str>| drop_vars.iter().any(|d| **d == **l);
    // The shape of a row's output rows, per the row's shape.
    let shapes = ShapeMemo::default();
    // The values a row keeps, gathered once per row.
    let mut kept: Vec<Value> = Vec::new();
    for row in rows {
        let set = expr.eval(&bind(env, shape, row))?.into_set()?;
        let labels = shape_of(shape, row).labels();
        if labels.iter().filter(|l| dropped(l)).count() != drop_vars.len() {
            let missing = drop_vars
                .iter()
                .find(|d| !labels.iter().any(|l| ***d == **l));
            return Err(no_such_var(shape, row, missing.map_or("", |d| d)));
        }
        let out_shape = shapes.get(shape_of(shape, row), None, || {
            let kept = labels.iter().filter(|l| !dropped(l));
            Shape::new(kept.chain([&elem_var]).cloned())
        })?;
        kept.clear();
        let mut keep = labels.iter().map(|l| !dropped(l));
        kept.extend(values(shape, row).filter(|_| keep.next() == Some(true)));
        for item in &set {
            let values = kept.iter().cloned().chain([item.clone()]);
            out.push(Record::shaped(out_shape.clone(), values));
        }
    }
    Ok(out)
}

/// Relational GROUP BY with aggregates (multiset semantics over the rows of
/// each group) — the machinery Kim's algorithm and the Ganski–Wong fix are
/// built from (Section 2).
pub(crate) fn group_agg(
    (rows, shape): Rows<'_>,
    keys: &[(String, Compiled<'_>)],
    aggs: &[(String, AggFn, Compiled<'_>)],
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
            keyvals.push(ke.eval(&e)?);
        }
        let mut argvals = Vec::with_capacity(aggs.len());
        for (_, _, ae) in aggs {
            argvals.push(ae.eval(&e)?);
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
    if groups.is_empty() {
        return Ok(out);
    }
    let var = var_shape(var);
    let labels = keys
        .iter()
        .map(|(l, _)| l)
        .chain(aggs.iter().map(|(l, _, _)| l));
    let tuple = Shape::new(labels.map(String::as_str))?;
    for (key, arglists) in groups {
        let aggs = aggs
            .iter()
            .zip(arglists)
            .map(|((_, f, _), args)| fold_agg(*f, &args));
        let row = Record::try_shaped(tuple.clone(), key.into_iter().map(Ok).chain(aggs))?;
        out.push(bind_row(&var, Value::Tuple(row)));
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
    let var = var_shape(var);
    Ok(vals.into_iter().map(|v| bind_row(&var, v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{bound, dynamic};
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
            &dynamic(&E::var("a")),
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
            &dynamic(&E::var("y")),
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
            &dynamic(&E::var("y")),
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
            &dynamic(&E::var("s")),
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
            &dynamic(&E::var("a")),
            "as",
            false,
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        let back = unnest(
            bound(&nested),
            &dynamic(&E::var("as")),
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
            &[("c".to_string(), dynamic(&E::path("y", &["c"])))],
            &[("cnt".to_string(), AggFn::Count, dynamic(&E::var("y")))],
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
