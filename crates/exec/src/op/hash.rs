//! Hash join: build on the right operand, probe with the left.
//!
//! The hash join finds a probe row's candidates in one bucket chain,
//! checks their keys and the residual, and hands each match to the row's
//! `RowMatch`, which decides what every join kind emits. Building on
//! the **right** operand keeps the output grouped by left rows, which is
//! the paper's implementation restriction for the nest join (Section 6).
//!
//! The implementation is split into [`build`] (a pipeline breaker: it owns
//! the materialized build side) and [`probe`] (streamable: each probe batch
//! is independent), so the streaming executor builds once and probes
//! batch-at-a-time.

use std::hash::{Hash, Hasher};

use tmql_algebra::{eval_predicate, with_value, with_values, Env, ScalarExpr};
use tmql_model::hash::{ChainIndex, ValueHasher};
use tmql_model::{Record, Result};

use crate::metrics::Metrics;

use super::{bind, Emit, RowMatch, Rows, Shape};

/// A built hash table over the right (build) operand: the owned build
/// rows, the hash of each row's key values, and one [`ChainIndex`] over
/// their positions. No key is stored: a candidate's key is compared by
/// reference out of its row, and only when its hash already matches.
#[derive(Debug)]
pub struct HashTable<'k> {
    rows: Vec<Record>,
    shape: Shape,
    hashes: Vec<u64>,
    index: ChainIndex,
    keys: &'k [ScalarExpr],
}

impl HashTable<'_> {
    /// Number of resident build-side rows (for peak-memory accounting).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no build rows were retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Hash the key values of the row(s) bound in `env`, by reference, on top
/// of what `h` already holds (nothing for a table; the level seed for a
/// spill partition). Returns `None` if any key is NULL (NULL never
/// equi-joins).
pub(super) fn hash_keys(
    keys: &[ScalarExpr],
    env: &Env<'_>,
    mut h: ValueHasher,
) -> Result<Option<u64>> {
    for k in keys {
        let null = with_value(k, env, |v| {
            v.hash(&mut h);
            Ok(v.is_null())
        })?;
        if null {
            return Ok(None);
        }
    }
    Ok(Some(h.finish()))
}

/// Build phase: index `right` (rows of shape `shape`) by its key values.
/// Rows with a NULL key are dropped — NULL never equi-joins, consistent
/// with SQL semantics in the relational baselines.
pub fn build<'k>(
    right: Vec<Record>,
    shape: &Shape,
    right_keys: &'k [ScalarExpr],
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<HashTable<'k>> {
    let mut rows = Vec::with_capacity(right.len());
    let mut hashes = Vec::with_capacity(right.len());
    for r in right {
        if let Some(hash) = hash_keys(right_keys, &bind(env, shape, &r), ValueHasher::default())? {
            hashes.push(hash);
            rows.push(r);
            m.hash_build_rows += 1;
        }
    }
    Ok(HashTable {
        index: ChainIndex::build(&hashes),
        rows,
        shape: shape.clone(),
        hashes,
        keys: right_keys,
    })
}

/// Probe phase: join a batch of left rows against a built table. Left rows
/// are independent of each other, so this streams.
pub fn probe(
    (left, ls): Rows<'_>,
    table: &HashTable<'_>,
    left_keys: &[ScalarExpr],
    residual: Option<&ScalarExpr>,
    emit: &Emit,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    let rs = &table.shape;
    // One probe row's match state, reused across probe rows.
    let mut row = RowMatch::default();
    for l in left {
        let probe_env = bind(env, ls, l);
        m.hash_probes += 1;
        let hash = hash_keys(left_keys, &probe_env, ValueHasher::default())?;
        // Build rows of this hash's bucket, in build order; `None` (a NULL
        // key) probes nothing.
        for ri in hash.into_iter().flat_map(|h| table.index.chain(h)) {
            if Some(table.hashes[ri]) != hash {
                continue;
            }
            let r = &table.rows[ri];
            let pair_env = bind(&probe_env, rs, r);
            // Equal hashes: now the keys themselves, both sides by
            // reference out of their rows, then the residual.
            let mut hit = true;
            for (lk, rk) in left_keys.iter().zip(table.keys) {
                hit = hit && with_values(lk, rk, &pair_env, |a, b| Ok(a == b))?;
            }
            if let (true, Some(p)) = (hit, residual) {
                m.comparisons += 1;
                hit = eval_predicate(p, &pair_env)?;
            }
            if hit {
                row.hit(emit, (ls, l), (rs, r), &pair_env, m, &mut out)?;
                if row.decided(&emit.kind) {
                    break;
                }
            }
        }
        row.finish(emit, (ls, l), env, m, &mut out)?;
    }
    Ok(out)
}

/// One-shot hash join of materialized operands on equi-keys plus an
/// optional residual predicate ([`build`] then [`probe`]).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn join(
    left: Rows<'_>,
    (right, rs): Rows<'_>,
    left_keys: &[ScalarExpr],
    right_keys: &[ScalarExpr],
    residual: Option<&ScalarExpr>,
    emit: &Emit,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let table = build(right.to_vec(), rs, right_keys, env, m)?;
    probe(left, &table, left_keys, residual, emit, env, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{bound, Emit, JoinKind};
    use std::collections::BTreeSet;
    use tmql_algebra::ScalarExpr as E;
    use tmql_model::Value;

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
                bound(&x),
                bound(&y),
                &lk,
                &rk,
                None,
                &Emit::from(kind.clone()),
                &Env::new(),
                &mut Metrics::new(),
            )
            .unwrap();
            let n = super::super::nl::join(
                bound(&x),
                bound(&y),
                &pred,
                &Emit::from(kind.clone()),
                &Env::new(),
                &mut Metrics::new(),
            )
            .unwrap();
            let hs: BTreeSet<Record> = h.into_iter().collect();
            let ns: BTreeSet<Record> = n.into_iter().collect();
            assert_eq!(hs, ns, "kind {kind:?}");
        }
    }

    #[test]
    fn agrees_with_nested_loop_on_a_generated_case_with_duplicate_keys() {
        // 1200 × 1000 rows over 97 keys (long chains, several keys per
        // bucket), some keys NULL on either side, and a residual that
        // prunes about half the key matches. Compared as sorted bags: the
        // nested loop emits its dangling rows after the matched ones.
        let key = |i: i64| match i % 13 {
            0 => Value::Null,
            _ => Value::Int(i * 7919 % 97),
        };
        let side = |name: &str, n: i64, f1: &str, f2: &str| -> Vec<Record> {
            let tup = |i| Record::new([(f1, Value::Int(i)), (f2, key(i))]).unwrap();
            let bind = |i| Record::new([(name, Value::Tuple(tup(i)))]).unwrap();
            (0..n).map(bind).collect()
        };
        let (x, y) = (side("x", 1200, "e", "d"), side("y", 1000, "a", "b"));
        let (lk, rk) = (vec![E::path("x", &["d"])], vec![E::path("y", &["b"])]);
        let sum = E::Arith(
            tmql_algebra::ArithOp::Add,
            Box::new(E::path("x", &["e"])),
            Box::new(E::path("y", &["a"])),
        );
        let residual = E::cmp(tmql_algebra::CmpOp::Lt, sum, E::lit(1100i64));
        let pred = E::and(E::eq(lk[0].clone(), rk[0].clone()), residual.clone());
        let kinds = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter {
                right_vars: vec!["y".into()],
            },
            JoinKind::Nest {
                func: E::path("y", &["a"]),
                label: "s".into(),
            },
        ];
        for kind in kinds {
            let (mut hm, mut nm) = (Metrics::new(), Metrics::new());
            let h = join(
                bound(&x),
                bound(&y),
                &lk,
                &rk,
                Some(&residual),
                &Emit::from(kind.clone()),
                &Env::new(),
                &mut hm,
            );
            let n = super::super::nl::join(
                bound(&x),
                bound(&y),
                &pred,
                &Emit::from(kind.clone()),
                &Env::new(),
                &mut nm,
            );
            let (mut h, mut n) = (h.unwrap(), n.unwrap());
            h.sort();
            n.sort();
            assert!(h.len() > 100 && h == n, "kind {kind:?}");
            assert_eq!(hm.hash_build_rows, 1000 - 77, "NULL build keys are dropped");
            assert_eq!(hm.hash_probes, 1200);
        }
    }

    #[test]
    fn probe_batches_compose_to_one_shot_join() {
        // Streaming contract: probing in arbitrary batch splits equals the
        // one-shot probe over the concatenation.
        let (x, y, lk, rk) = fixture();
        let env = Env::new();
        let mut m = Metrics::new();
        let table = build(y.clone(), &Shape::BOUND, &rk, &env, &mut m).unwrap();
        let whole = probe(
            bound(&x),
            &table,
            &lk,
            None,
            &Emit::from(JoinKind::Inner),
            &env,
            &mut m,
        )
        .unwrap();
        for split in 1..x.len() {
            let mut pieces = Vec::new();
            for chunk in x.chunks(split) {
                pieces.extend(
                    probe(
                        bound(chunk),
                        &table,
                        &lk,
                        None,
                        &Emit::from(JoinKind::Inner),
                        &env,
                        &mut m,
                    )
                    .unwrap(),
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
            bound(&x),
            bound(&y),
            &lk,
            &rk,
            None,
            &Emit::from(kind.clone()),
            &Env::new(),
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
            bound(&x),
            bound(&y),
            &lk,
            &rk,
            Some(&residual),
            &Emit::from(JoinKind::Inner),
            &Env::new(),
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
            bound(&x),
            bound(&y),
            &lk,
            &rk,
            None,
            &Emit::from(JoinKind::Inner),
            &Env::new(),
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
            bound(&x),
            bound(&y),
            &lk,
            &rk,
            None,
            &Emit::from(JoinKind::Inner),
            &Env::new(),
            &mut m,
        )
        .unwrap();
        assert_eq!(m.hash_build_rows, 3);
        assert_eq!(m.hash_probes, 4);
    }
}
