//! Nested-loop join: the universal fallback, correct for arbitrary
//! predicates and every join kind.
//!
//! A left row's candidates are every inner row; each one `pred` accepts
//! goes to the row's [`RowMatch`], which decides what the row emits. The
//! kernel is **chunk-feedable**: one `RowMatch` per left row carries the
//! match state across successive chunks of the inner operand, so the
//! operator can stream a spilled inner side from disk in batches — block
//! nested loop — and the index nested loop can feed it the rows one probe
//! fetches, chunk by chunk.

use tmql_algebra::{eval_predicate, Env, ScalarExpr};
use tmql_model::{Record, Result};

use crate::metrics::Metrics;

use super::{bind, Emit, RowMatch, Rows};

/// Join one chunk of the inner operand against the whole left block,
/// `state[i]` carrying left row `i`'s matches from chunk to chunk. A row
/// already [`RowMatch::decided`] is skipped. Call [`finish_block`] after
/// the last chunk.
#[allow(clippy::too_many_arguments)] // mirrors the other join kernels' shape
pub(crate) fn join_chunk(
    (left, ls): Rows<'_>,
    (chunk, rs): Rows<'_>,
    pred: &ScalarExpr,
    emit: &Emit,
    env: &Env<'_>,
    m: &mut Metrics,
    state: &mut [RowMatch],
    out: &mut Vec<Record>,
) -> Result<()> {
    for (l, row) in left.iter().zip(state) {
        if row.decided(&emit.kind) {
            continue;
        }
        let left_env = bind(env, ls, l);
        for r in chunk {
            let pair_env = bind(&left_env, rs, r);
            m.comparisons += 1;
            if eval_predicate(pred, &pair_env)? {
                row.hit(emit, (ls, l), (rs, r), &pair_env, m, out)?;
                if row.decided(&emit.kind) {
                    break;
                }
            }
        }
    }
    Ok(())
}

/// End a block: every left row's candidates are exhausted.
pub(crate) fn finish_block(
    (left, ls): Rows<'_>,
    emit: &Emit,
    env: &Env<'_>,
    m: &mut Metrics,
    state: &mut [RowMatch],
    out: &mut Vec<Record>,
) -> Result<()> {
    for (l, row) in left.iter().zip(state) {
        row.finish(emit, (ls, l), env, m, out)?;
    }
    Ok(())
}

/// Nested-loop join of fully materialized operands (one chunk + finish).
#[cfg(test)]
pub(crate) fn join(
    left: Rows<'_>,
    right: Rows<'_>,
    pred: &ScalarExpr,
    emit: &Emit,
    env: &Env<'_>,
    m: &mut Metrics,
) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    let mut state = vec![RowMatch::default(); left.0.len()];
    join_chunk(left, right, pred, emit, env, m, &mut state, &mut out)?;
    finish_block(left, emit, env, m, &mut state, &mut out)?;
    Ok(out)
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

    /// The paper's Table 1 operands: X(e, d) = {(1,1),(2,1),(3,3)},
    /// Y(a, b) = {(1,1),(2,1),(3,3)} equijoined on the second attribute.
    fn table1() -> (Vec<Record>, Vec<Record>, E) {
        let x = rows("x", &[(1, 1), (2, 1), (3, 3)], "e", "d");
        let y = rows("y", &[(1, 1), (2, 1), (3, 3)], "a", "b");
        let pred = E::eq(E::path("x", &["d"]), E::path("y", &["b"]));
        (x, y, pred)
    }

    #[test]
    fn inner_join_counts() {
        let (x, y, pred) = table1();
        let mut m = Metrics::new();
        let out = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(JoinKind::Inner),
            &Env::new(),
            &mut m,
        )
        .unwrap();
        // d=1 matches b=1 twice for two x rows (4 pairs) + d=3/b=3 (1 pair).
        assert_eq!(out.len(), 5);
        assert_eq!(m.comparisons, 9);
    }

    #[test]
    fn nest_join_reproduces_table1() {
        let (x, y, pred) = table1();
        let mut m = Metrics::new();
        let kind = JoinKind::Nest {
            func: E::var("y"),
            label: "s".into(),
        };
        let out = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(kind.clone()),
            &Env::new(),
            &mut m,
        )
        .unwrap();
        assert_eq!(out.len(), 3, "every left tuple survives");
        // x=(2,1): matches y=(1,1),(2,1) — wait, x=(2,1).d=1 matches b=1.
        let row0 = &out[0];
        assert_eq!(row0.get("s").unwrap().as_set().unwrap().len(), 2);
        // Paper's dangling example is x=(2,2) in Table 1; in this fixture
        // every x matches, so check ∅ with a separate dangling row below.
    }

    #[test]
    fn nest_join_dangling_gets_empty_set() {
        let x = rows("x", &[(2, 2)], "e", "d");
        let y = rows("y", &[(1, 1)], "a", "b");
        let pred = E::eq(E::path("x", &["d"]), E::path("y", &["b"]));
        let kind = JoinKind::Nest {
            func: E::var("y"),
            label: "s".into(),
        };
        let out = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(kind.clone()),
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("s").unwrap(), &Value::empty_set());
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let (x, y, pred) = table1();
        let semi = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(JoinKind::Semi),
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        let anti = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(JoinKind::Anti),
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(semi.len() + anti.len(), x.len());
        assert_eq!(semi.len(), 3);
    }

    #[test]
    fn semi_short_circuits() {
        let (x, y, pred) = table1();
        let mut m = Metrics::new();
        let _ = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(JoinKind::Semi),
            &Env::new(),
            &mut m,
        )
        .unwrap();
        // x1 stops at first y (1 cmp), x2 stops at first y (1), x3 scans to
        // third (3): fewer than the 9 full comparisons.
        assert!(
            m.comparisons < 9,
            "semijoin must short-circuit: {}",
            m.comparisons
        );
    }

    #[test]
    fn outer_join_null_extends() {
        let x = rows("x", &[(1, 1), (2, 9)], "e", "d");
        let y = rows("y", &[(1, 1)], "a", "b");
        let pred = E::eq(E::path("x", &["d"]), E::path("y", &["b"]));
        let kind = JoinKind::LeftOuter {
            right_vars: vec!["y".into()],
        };
        let out = join(
            bound(&x),
            bound(&y),
            &pred,
            &Emit::from(kind.clone()),
            &Env::new(),
            &mut Metrics::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let dangling = out.iter().find(|r| r.get("y").unwrap().is_null());
        assert!(dangling.is_some(), "dangling x must be NULL-extended");
    }

    #[test]
    fn chunked_inner_agrees_with_materialized_for_every_kind() {
        // Left rows matching in the first chunk, the second chunk, both,
        // or neither — the cases that distinguish block state handling.
        let x = rows("x", &[(1, 1), (2, 2), (3, 3), (4, 9)], "e", "d");
        let y = rows("y", &[(1, 1), (2, 3), (3, 2), (4, 3), (5, 1)], "a", "b");
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
            let kind = &Emit::from(kind);
            let whole = join(
                bound(&x),
                bound(&y),
                &pred,
                kind,
                &Env::new(),
                &mut Metrics::new(),
            )
            .unwrap();
            for chunk_size in [1usize, 2, 3, 5] {
                let mut state = vec![RowMatch::default(); x.len()];
                let mut out = Vec::new();
                for chunk in y.chunks(chunk_size) {
                    join_chunk(
                        bound(&x),
                        bound(chunk),
                        &pred,
                        kind,
                        &Env::new(),
                        &mut Metrics::new(),
                        &mut state,
                        &mut out,
                    )
                    .unwrap();
                }
                let (env, m) = (&Env::new(), &mut Metrics::new());
                finish_block(bound(&x), kind, env, m, &mut state, &mut out).unwrap();
                let a: BTreeSet<&Record> = whole.iter().collect();
                let b: BTreeSet<&Record> = out.iter().collect();
                assert_eq!(a, b, "kind {:?} chunk {chunk_size}", kind.kind);
                assert_eq!(
                    whole.len(),
                    out.len(),
                    "kind {:?} chunk {chunk_size}",
                    kind.kind
                );
            }
        }
    }
}
