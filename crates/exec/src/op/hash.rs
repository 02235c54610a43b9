//! Hash join: build on the right operand, probe with the left.
//!
//! All five [`JoinKind`]s share one matching loop. The nest join variant
//! differs from the inner join only in what the probe emits — matches are
//! collected into a set per probe row instead of emitted pairwise, and a
//! dangling probe row emits `label = ∅`. Building on the **right** operand
//! keeps the output grouped by left rows, which is the paper's
//! implementation restriction for the nest join (Section 6).
//!
//! The implementation is split into [`build`] (a pipeline breaker: it owns
//! the materialized build side) and [`probe`] (streamable: each probe batch
//! is independent), so the streaming executor builds once and probes
//! batch-at-a-time. [`join`] composes the two for one-shot callers.

use std::collections::{BTreeSet, HashMap};

use tmql_algebra::{eval, eval_predicate, Env, ScalarExpr};
use tmql_model::{Record, Result, Value};

use crate::metrics::Metrics;
use crate::physical::JoinKind;

use super::{eval_keys, null_extend, with_row};

/// A built hash table over the right (build) operand: the owned build rows
/// plus an index from key values to row positions.
#[derive(Debug)]
pub struct HashTable {
    rows: Vec<Record>,
    index: HashMap<Vec<Value>, Vec<usize>>,
}

impl HashTable {
    /// Number of resident build-side rows (for peak-memory accounting).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no build rows were retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Build phase: index `right` by its key values. Rows with a NULL key are
/// dropped — NULL never equi-joins, consistent with SQL semantics in the
/// relational baselines.
pub fn build(
    right: Vec<Record>,
    right_keys: &[ScalarExpr],
    env: &mut Env,
    m: &mut Metrics,
) -> Result<HashTable> {
    let mut table = HashTable {
        rows: Vec::with_capacity(right.len()),
        index: HashMap::new(),
    };
    for r in right {
        let key = with_row(env, &r, |e| eval_keys(right_keys, e))?;
        if let Some(key) = key {
            table.index.entry(key).or_default().push(table.rows.len());
            table.rows.push(r);
            m.hash_build_rows += 1;
        }
    }
    Ok(table)
}

/// Probe phase: join a batch of left rows against a built table. Left rows
/// are independent of each other, so this streams.
pub fn probe(
    left: &[Record],
    table: &HashTable,
    left_keys: &[ScalarExpr],
    residual: Option<&ScalarExpr>,
    kind: &JoinKind,
    env: &mut Env,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    for l in left {
        env.push_row(l);
        m.hash_probes += 1;
        let key = eval_keys(left_keys, env)?;
        let candidates: &[usize] = match &key {
            Some(k) => table.index.get(k).map(Vec::as_slice).unwrap_or(&[]),
            None => &[],
        };
        let mut matched = false;
        let mut nested: BTreeSet<Value> = BTreeSet::new();
        for &ri in candidates {
            let r = &table.rows[ri];
            env.push_row(r);
            let hit = match residual {
                Some(p) => {
                    m.comparisons += 1;
                    eval_predicate(p, env)
                }
                None => Ok(true),
            };
            let hit = match hit {
                Ok(h) => h,
                Err(e) => {
                    env.pop();
                    env.pop();
                    return Err(e);
                }
            };
            if hit {
                matched = true;
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter { .. } => out.push(l.concat(r)?),
                    JoinKind::Semi | JoinKind::Anti => {
                        env.pop();
                        break;
                    }
                    JoinKind::Nest { func, .. } => {
                        nested.insert(eval(func, env)?);
                    }
                }
            }
            env.pop();
        }
        env.pop();
        match kind {
            JoinKind::Inner => {}
            JoinKind::Semi => {
                if matched {
                    out.push(l.clone());
                }
            }
            JoinKind::Anti => {
                if !matched {
                    out.push(l.clone());
                }
            }
            JoinKind::LeftOuter { right_vars } => {
                if !matched {
                    out.push(null_extend(l, right_vars)?);
                }
            }
            JoinKind::Nest { label, .. } => {
                out.push(l.extend_field(label.as_str(), Value::Set(nested))?);
            }
        }
    }
    Ok(out)
}

/// One-shot hash join of materialized operands on equi-keys plus an
/// optional residual predicate ([`build`] then [`probe`]).
#[allow(clippy::too_many_arguments)]
pub fn join(
    left: &[Record],
    right: &[Record],
    left_keys: &[ScalarExpr],
    right_keys: &[ScalarExpr],
    residual: Option<&ScalarExpr>,
    kind: &JoinKind,
    env: &mut Env,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let table = build(right.to_vec(), right_keys, env, m)?;
    probe(left, &table, left_keys, residual, kind, env, m)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn fixture() -> (Vec<Record>, Vec<Record>, Vec<E>, Vec<E>) {
        let x = rows("x", &[(1, 1), (2, 1), (3, 3), (4, 9)], "e", "d");
        let y = rows("y", &[(1, 1), (2, 1), (3, 3)], "a", "b");
        (x, y, vec![E::path("x", &["d"])], vec![E::path("y", &["b"])])
    }

    #[test]
    fn agrees_with_nested_loop_for_all_kinds() {
        let (x, y, lk, rk) = fixture();
        let pred = E::eq(E::path("x", &["d"]), E::path("y", &["b"]));
        let kinds = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter {
                right_vars: vec!["y".into()],
            },
            JoinKind::Nest {
                func: E::var("y"),
                label: "s".into(),
            },
        ];
        for kind in kinds {
            let h = join(
                &x,
                &y,
                &lk,
                &rk,
                None,
                &kind,
                &mut Env::new(),
                &mut Metrics::new(),
            )
            .unwrap();
            let n =
                super::super::nl::join(&x, &y, &pred, &kind, &mut Env::new(), &mut Metrics::new())
                    .unwrap();
            let hs: BTreeSet<Record> = h.into_iter().collect();
            let ns: BTreeSet<Record> = n.into_iter().collect();
            assert_eq!(hs, ns, "kind {:?}", kind.name());
        }
    }

    #[test]
    fn probe_batches_compose_to_one_shot_join() {
        // Streaming contract: probing in arbitrary batch splits equals the
        // one-shot probe over the concatenation.
        let (x, y, lk, rk) = fixture();
        let mut env = Env::new();
        let mut m = Metrics::new();
        let table = build(y.clone(), &rk, &mut env, &mut m).unwrap();
        let whole = probe(&x, &table, &lk, None, &JoinKind::Inner, &mut env, &mut m).unwrap();
        for split in 1..x.len() {
            let mut pieces = Vec::new();
            for chunk in x.chunks(split) {
                pieces.extend(
                    probe(chunk, &table, &lk, None, &JoinKind::Inner, &mut env, &mut m).unwrap(),
                );
            }
            assert_eq!(pieces, whole, "split {split}");
        }
    }

    #[test]
    fn nest_join_dangling_probe_gets_empty_set() {
        let (x, y, lk, rk) = fixture();
        let kind = JoinKind::Nest {
            func: E::path("y", &["a"]),
            label: "s".into(),
        };
        let out = join(
            &x,
            &y,
            &lk,
            &rk,
            None,
            &kind,
            &mut Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        let dangling = out
            .iter()
            .find(|r| r.get("x").unwrap().as_tuple().unwrap().get("e").unwrap() == &Value::Int(4))
            .unwrap();
        assert_eq!(dangling.get("s").unwrap(), &Value::empty_set());
    }

    #[test]
    fn residual_prunes_matches() {
        let (x, y, lk, rk) = fixture();
        // Residual: y.a ≥ 2 — for d=1 probes only y=(2,1) survives.
        let residual = E::cmp(tmql_algebra::CmpOp::Ge, E::path("y", &["a"]), E::lit(2i64));
        let out = join(
            &x,
            &y,
            &lk,
            &rk,
            Some(&residual),
            &JoinKind::Inner,
            &mut Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 3); // x1·y2, x2·y2, x3·y3
    }

    #[test]
    fn null_keys_never_match() {
        let mut x = rows("x", &[(1, 1)], "e", "d");
        // A probe row whose key is NULL.
        let null_tup = Record::new([
            ("e".to_string(), Value::Int(9)),
            ("d".to_string(), Value::Null),
        ])
        .unwrap();
        x.push(Record::new([("x".to_string(), Value::Tuple(null_tup))]).unwrap());
        let y = rows("y", &[(1, 1)], "a", "b");
        let (lk, rk) = (vec![E::path("x", &["d"])], vec![E::path("y", &["b"])]);
        let out = join(
            &x,
            &y,
            &lk,
            &rk,
            None,
            &JoinKind::Inner,
            &mut Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn metrics_reflect_build_and_probe() {
        let (x, y, lk, rk) = fixture();
        let mut m = Metrics::new();
        let _ = join(
            &x,
            &y,
            &lk,
            &rk,
            None,
            &JoinKind::Inner,
            &mut Env::new(),
            &mut m,
        )
        .unwrap();
        assert_eq!(m.hash_build_rows, 3);
        assert_eq!(m.hash_probes, 4);
    }
}
