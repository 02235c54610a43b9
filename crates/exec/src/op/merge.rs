//! Sort-merge join.
//!
//! Both operands are sorted by their key expressions, then key groups are
//! merged pairwise. Because the left operand arrives in key order, the
//! nest join's per-left-row grouping falls out of the merge for free — the
//! paper's other "common join implementation method" (Section 6). A left
//! row's candidates are its equal-key right group, and its [`RowMatch`]
//! decides what it emits. Rows with NULL keys have no candidates (they
//! cannot equi-match): a left one still ends as dangling.

use tmql_algebra::{Compiled, Env};
use tmql_model::{Record, Result, Value};

use crate::metrics::Metrics;

use super::{bind, eval_keys, Emit, JoinKeys, RowMatch, Rows};

/// One operand row tagged with its evaluated key (`None` = NULL key).
struct Keyed<'a> {
    key: Option<Vec<Value>>,
    row: &'a Record,
}

fn sort_side<'a>(
    (rows, shape): Rows<'a>,
    keys: &[Compiled<'_>],
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Keyed<'a>>> {
    let mut keyed = Vec::with_capacity(rows.len());
    for row in rows {
        let key = eval_keys(keys, &bind(env, shape, row))?;
        keyed.push(Keyed { key, row });
        m.rows_sorted += 1;
    }
    keyed.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(keyed)
}

/// Sort-merge join of materialized operands on equi-keys plus an optional
/// residual predicate.
pub fn join(
    left: Rows<'_>,
    right: Rows<'_>,
    keys: &JoinKeys<'_>,
    emit: &Emit<'_>,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let (lshape, rshape) = (left.1, right.1);
    let ls = sort_side(left, &keys.left, env, m)?;
    let rs = sort_side(right, &keys.right, env, m)?;
    let mut out = Vec::new();
    // One left row's match state, reused across left rows.
    let mut row = RowMatch::default();

    // `None` keys sort first; skip them on the right, treat as dangling on
    // the left.
    let mut ri = 0usize;
    while ri < rs.len() && rs[ri].key.is_none() {
        ri += 1;
    }

    let mut li = 0usize;
    while li < ls.len() {
        let lkey = &ls[li].key;
        if lkey.is_none() {
            row.finish(emit, (lshape, ls[li].row), env, m, &mut out)?;
            li += 1;
            continue;
        }
        // Advance right cursor to the left key.
        while ri < rs.len() && rs[ri].key.as_ref() < lkey.as_ref() {
            m.comparisons += 1;
            ri += 1;
        }
        // Right group [ri, rj) with equal key.
        let mut rj = ri;
        while rj < rs.len() && rs[rj].key == *lkey {
            rj += 1;
        }
        if ri == rj {
            row.finish(emit, (lshape, ls[li].row), env, m, &mut out)?;
            li += 1;
            continue;
        }
        // Left group [li, lj) with equal key — all join against the same
        // right group.
        let mut lj = li;
        while lj < ls.len() && ls[lj].key == *lkey {
            lj += 1;
        }
        for lrow in &ls[li..lj] {
            let l = lrow.row;
            let left_env = bind(env, lshape, l);
            for rrow in &rs[ri..rj] {
                let r = rrow.row;
                let pair_env = bind(&left_env, rshape, r);
                if let Some(p) = &keys.residual {
                    m.comparisons += 1;
                    if !p.test(&pair_env)? {
                        continue;
                    }
                }
                row.hit(emit, (lshape, l), (rshape, r), &pair_env, m, &mut out)?;
                if row.decided(&emit.kind) {
                    break;
                }
            }
            row.finish(emit, (lshape, l), env, m, &mut out)?;
        }
        li = lj;
        ri = rj;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{bound, dynamic, keys, Emit, JoinKind};
    use std::collections::BTreeSet;
    use tmql_algebra::ScalarExpr as E;

    fn rows(name: &str, vals: &[(i64, i64)], f1: &str, f2: &str) -> Vec<Record> {
        vals.iter()
            .map(|(a, b)| {
                let tup = Record::new([
                    (f1.to_string(), Value::Int(*a)),
                    (f2.to_string(), Value::Int(*b)),
                ])
                .unwrap();
                Record::new([(name.to_string(), Value::Tuple(tup))]).unwrap()
            })
            .collect()
    }

    #[test]
    fn agrees_with_nested_loop_for_all_kinds() {
        // Unsorted inputs with duplicates-per-key and dangling rows on both
        // sides.
        let x = rows("x", &[(3, 3), (1, 1), (4, 9), (2, 1), (5, 3)], "e", "d");
        let y = rows("y", &[(2, 1), (3, 3), (1, 1), (7, 8)], "a", "b");
        let lk = vec![E::path("x", &["d"])];
        let rk = vec![E::path("y", &["b"])];
        let pred = E::eq(E::path("x", &["d"]), E::path("y", &["b"]));
        let kinds = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter {
                right_vars: vec!["y".into()],
            },
            JoinKind::Nest {
                func: dynamic(&E::var("y")),
                label: "s".into(),
            },
        ];
        for kind in kinds {
            let mj = join(
                bound(&x),
                bound(&y),
                &keys(&lk, &rk, None),
                &Emit::from(kind.clone()),
                &Env::new(),
                &mut Metrics::new(),
            )
            .unwrap();
            let nl = super::super::nl::join(
                bound(&x),
                bound(&y),
                &dynamic(&pred),
                &Emit::from(kind.clone()),
                &Env::new(),
                &mut Metrics::new(),
            )
            .unwrap();
            let ms: BTreeSet<Record> = mj.into_iter().collect();
            let ns: BTreeSet<Record> = nl.into_iter().collect();
            assert_eq!(ms, ns, "kind {kind:?}");
        }
    }

    #[test]
    fn nest_join_groups_per_left_row() {
        let x = rows("x", &[(1, 1), (2, 1)], "e", "d");
        let y = rows("y", &[(10, 1), (11, 1)], "a", "b");
        let kind = JoinKind::Nest {
            func: dynamic(&E::path("y", &["a"])),
            label: "s".into(),
        };
        let out = join(
            bound(&x),
            bound(&y),
            &keys(&[E::path("x", &["d"])], &[E::path("y", &["b"])], None),
            &Emit::from(kind.clone()),
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        for row in &out {
            assert_eq!(row.get("s").unwrap().as_set().unwrap().len(), 2);
        }
    }

    #[test]
    fn left_null_keys_are_dangling() {
        let mut x = rows("x", &[(1, 1)], "e", "d");
        let null_tup = Record::new([
            ("e".to_string(), Value::Int(9)),
            ("d".to_string(), Value::Null),
        ])
        .unwrap();
        x.push(Record::new([("x".to_string(), Value::Tuple(null_tup))]).unwrap());
        let y = rows("y", &[(1, 1)], "a", "b");
        let kind = JoinKind::Nest {
            func: dynamic(&E::var("y")),
            label: "s".into(),
        };
        let out = join(
            bound(&x),
            bound(&y),
            &keys(&[E::path("x", &["d"])], &[E::path("y", &["b"])], None),
            &Emit::from(kind.clone()),
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let null_row = out
            .iter()
            .find(|r| {
                r.get("x")
                    .unwrap()
                    .as_tuple()
                    .unwrap()
                    .get("d")
                    .unwrap()
                    .is_null()
            })
            .unwrap();
        assert_eq!(null_row.get("s").unwrap(), &Value::empty_set());
    }

    #[test]
    fn sort_metric_counts_both_sides() {
        let x = rows("x", &[(1, 1), (2, 2)], "e", "d");
        let y = rows("y", &[(1, 1)], "a", "b");
        let mut m = Metrics::new();
        let _ = join(
            bound(&x),
            bound(&y),
            &keys(&[E::path("x", &["d"])], &[E::path("y", &["b"])], None),
            &Emit::from(JoinKind::Inner),
            &Env::new(),
            &mut m,
        )
        .unwrap();
        assert_eq!(m.rows_sorted, 3);
    }
}
