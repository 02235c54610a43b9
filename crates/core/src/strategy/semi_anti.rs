//! Theorem 1 flattening: semijoin / antijoin replacement (Section 7).
//!
//! When the block predicate classifies as `∃v ∈ z (P')`, the block
//!
//! ```text
//! Select P(x,z)  Apply z := (I, Map G (Select Q (R)))
//! ```
//!
//! becomes the **semijoin** `I ⋉_{Q ∧ P'[v ↦ G]} R` — "the join predicate
//! is P'(x, G(x,y)) ∧ Q(x,y)" (Section 7). A `¬∃` classification yields
//! the **antijoin** `I ▷_{Q ∧ P'[v ↦ G]} R`. Dangling tuples need no
//! special care: a semijoin keeps exactly the matched left tuples and an
//! antijoin exactly the unmatched ones, which is the whole point of
//! Theorem 1 — for these predicates the subquery result never needs to be
//! materialized, so no grouping and no bug.

use tmql_algebra::{Plan, ScalarExpr};

use crate::classify::{Classification, FRESH_VAR};

use super::Block;

/// Flatten one WHERE block. `None` when its predicate requires grouping
/// (and for SELECT-clause nesting, which always does).
pub(super) fn plan(block: &Block<'_>) -> Option<Plan> {
    block.pred?;
    let Some((_, class)) = &block.zpart else {
        return Some(block.without_subquery());
    };
    let (p_prime, join): (_, fn(Plan, Plan, ScalarExpr) -> Plan) = match class {
        Classification::Existential { pred } => (pred, Plan::semi_join),
        Classification::NegatedExistential { pred } => (pred, Plan::anti_join),
        Classification::Independent | Classification::RequiresGrouping => return None,
    };
    let parts = block.parts;
    let join_pred = join_predicate(parts.q, p_prime, parts.g);
    Some(block.with_rest(join(block.input.clone(), parts.inner.clone(), join_pred)))
}

/// Build `Q(x,y) ∧ P'(x, G(x,y))`.
fn join_predicate(q: &ScalarExpr, p_prime: &ScalarExpr, g: &ScalarExpr) -> ScalarExpr {
    let p_on_g = p_prime.substitute(FRESH_VAR, g);
    match q {
        ScalarExpr::Lit(tmql_model::Value::Bool(true)) => p_on_g,
        _ => ScalarExpr::and(q.clone(), p_on_g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unnest_plan, UnnestStrategy};
    use tmql_algebra::{CmpOp, JoinKind, ScalarExpr as E, SetCmpOp};

    fn rewrite(plan: Plan) -> Plan {
        unnest_plan(plan, UnnestStrategy::FlattenSemiAnti)
    }

    fn sub() -> Plan {
        Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["a"]), "s")
    }

    fn block(pred: E) -> Plan {
        Plan::scan("X", "x")
            .apply(sub(), "z")
            .select(pred)
            .map(E::var("x"), "out")
    }

    #[test]
    fn membership_becomes_semijoin_with_papers_predicate() {
        // x.a ∈ z → X ⋉_{x.b=y.b ∧ y.a=x.a} Y.
        let out = rewrite(block(E::set_cmp(
            SetCmpOp::In,
            E::path("x", &["a"]),
            E::var("z"),
        )));
        assert!(!out.has_apply());
        let Plan::Map { input, .. } = out else {
            panic!("map root")
        };
        let Plan::Join {
            kind: JoinKind::Semi,
            pred,
            ..
        } = *input
        else {
            panic!("semijoin, got {input}")
        };
        // Join predicate must mention both Q and P'(x, G).
        assert!(pred.mentions("x") && pred.mentions("y"));
        assert!(!pred.mentions("z"));
        assert!(!pred.mentions(FRESH_VAR));
    }

    #[test]
    fn non_membership_becomes_antijoin() {
        let out = rewrite(block(E::set_cmp(
            SetCmpOp::NotIn,
            E::path("x", &["a"]),
            E::var("z"),
        )));
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Anti,
                ..
            }
        )));
    }

    #[test]
    fn grouping_predicate_left_as_nested_loop() {
        let out = rewrite(block(E::set_cmp(
            SetCmpOp::SubsetEq,
            E::path("x", &["a"]),
            E::var("z"),
        )));
        assert!(
            out.has_apply(),
            "⊆ requires grouping; this strategy must not flatten it"
        );
    }

    #[test]
    fn extra_conjuncts_survive_as_filter() {
        let pred = E::and(
            E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64)),
            E::set_cmp(SetCmpOp::In, E::path("x", &["a"]), E::var("z")),
        );
        let out = rewrite(block(pred));
        let Plan::Map { input, .. } = out else {
            panic!("map root")
        };
        let Plan::Select { pred: rest, input } = *input else {
            panic!("residual select")
        };
        assert!(rest.mentions("x") && !rest.mentions("z"));
        assert!(matches!(
            *input,
            Plan::Join {
                kind: JoinKind::Semi,
                ..
            }
        ));
    }

    #[test]
    fn dead_subquery_is_eliminated() {
        let out = rewrite(block(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64))));
        assert!(!out.has_apply());
        assert!(!out.any_node(&mut |n| matches!(n, Plan::ScanTable { table, .. } if table == "Y")));
    }

    #[test]
    fn uncorrelated_q_true_join_predicate_is_just_p_prime() {
        let sub = Plan::scan("Y", "y").map(E::path("y", &["a"]), "s");
        let q = Plan::scan("X", "x").apply(sub, "z").select(E::set_cmp(
            SetCmpOp::In,
            E::path("x", &["a"]),
            E::var("z"),
        ));
        let out = rewrite(q);
        let Plan::Join {
            kind: JoinKind::Semi,
            pred,
            ..
        } = out
        else {
            panic!("semijoin")
        };
        // No `true ∧ …` wrapper.
        assert!(matches!(pred, E::Cmp(..)));
    }
}
