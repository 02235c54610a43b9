//! Muralikrishna's improved unnesting [VLDB 89/92], as surveyed in
//! Section 2 — the *other* correct relational fix.
//!
//! Where Ganski–Wong modify Kim's join-first variant (2), Muralikrishna
//! modifies the group-first variant (1), which "in some cases is more
//! efficient": keep the aggregated table `T = γ(R)`, but replace the final
//! regular join by an **outerjoin with two predicates** — the regular
//! predicate applied to matched tuples, and an **antijoin predicate**
//! applied to the dangling ones:
//!
//! ```text
//! Select (t ≠ NULL ∧ P[H(z) ↦ t.agg]) ∨ (t = NULL ∧ P[H(z) ↦ H(∅)])
//!   I ⟕_{x.c = t.c} T
//! T = γ_{keys; agg}(R)
//! ```
//!
//! For the COUNT-bug query the antijoin predicate is the paper's
//! `R.B = 0` (COUNT of the empty set). The same trick generalizes to the
//! complex-object grouping predicates by substituting the **empty set**
//! for `z` in the antijoin predicate (`x.a ⊆ ∅` for the SUBSETEQ query) —
//! dangling tuples never see `T` at all, so the bug cannot occur.

use tmql_algebra::{AggFn, Plan, ScalarExpr};
use tmql_model::Value;

use crate::classify::Classification;

use super::kim::{correlation, find_unique_agg, grouped, nested, replace_agg, t_var};
use super::Block;

/// True when the scheme has no plan of its own for the block: an
/// existential predicate flattens exactly (Muralikrishna's treatment of
/// types N/J coincides with Kim's correct path, the semijoin of
/// [`super::semi_anti`]), a predicate that ignores the subquery needs no
/// join at all, and SELECT-clause nesting is left to other strategies (the
/// scheme fixes a *predicate*, and nested results have none).
pub(super) fn flattens(block: &Block<'_>) -> bool {
    matches!(
        block.zpart,
        None | Some((_, Classification::Existential { .. }))
    )
}

/// The outerjoin + antijoin-predicate plan of a block, or the flattening
/// where the block [flattens]. `None` leaves it a nested loop.
pub(super) fn plan(block: &Block<'_>) -> Option<Plan> {
    if flattens(block) {
        return super::semi_anti::plan(block);
    }
    let (zpart, _) = block.zpart.as_ref()?;
    let corr = correlation(block)?;

    let (t_plan, key_eqs, probe_var, matched_pred, anti_pred) =
        if let Some(agg) = find_unique_agg(zpart, block.label) {
            // Aggregate case: T = γ(R).
            let tvar = t_var(block.label);
            let agg_is = |by: &ScalarExpr| replace_agg(zpart, agg, block.label, by);
            let matched = agg_is(&ScalarExpr::path(&tvar, &["agg"]));
            if matched.mentions(block.label) {
                return None; // mixed aggregate/set use of z
            }
            // Antijoin predicate: H(∅).
            let anti = agg_is(&match agg {
                AggFn::Count | AggFn::Sum => ScalarExpr::lit(0i64),
                AggFn::Min | AggFn::Max | AggFn::Avg => ScalarExpr::Lit(Value::Null),
            });
            let (t, key_eqs) = grouped(corr, block, agg, &tvar);
            (t, key_eqs, tvar, matched, anti)
        } else {
            // Complex-object case: T = ν(R), antijoin predicate P[z ↦ ∅].
            let anti = zpart.substitute(block.label, &ScalarExpr::Lit(Value::empty_set()));
            let (t, key_eqs, key_vars) = nested(corr, block);
            let probe_var = key_vars
                .into_iter()
                .next()
                .unwrap_or_else(|| block.label.to_string());
            (t, key_eqs, probe_var, zpart.clone().into_owned(), anti)
        };

    // The outerjoin on the key equalities; matched/dangling split by a
    // NULL test on the T-side binding, the regular predicate re-applied
    // to matched rows only.
    let outer = Plan::left_outer_join(block.input.clone(), t_plan, ScalarExpr::conj(key_eqs));
    let is_null = ScalarExpr::IsNull(Box::new(ScalarExpr::var(probe_var)));
    let selected = outer.select(ScalarExpr::or(
        ScalarExpr::and(ScalarExpr::not(is_null.clone()), matched_pred),
        ScalarExpr::and(is_null, anti_pred),
    ));
    Some(block.with_rest(selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unnest_plan, UnnestStrategy};
    use tmql_algebra::{CmpOp, JoinKind, ScalarExpr as E, SetCmpOp};

    fn rewrite(plan: Plan) -> Plan {
        unnest_plan(plan, UnnestStrategy::Muralikrishna)
    }

    fn sub() -> Plan {
        Plan::scan("S", "y")
            .select(E::eq(E::path("x", &["c"]), E::path("y", &["c"])))
            .map(E::path("y", &["d"]), "s")
    }

    #[test]
    fn count_query_gets_outerjoin_with_antijoin_predicate() {
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(
            out.any_node(&mut |n| matches!(n, Plan::GroupAgg { .. })),
            "{out}"
        );
        assert!(
            out.any_node(&mut |n| matches!(
                n,
                Plan::Join {
                    kind: JoinKind::LeftOuter,
                    ..
                }
            )),
            "{out}"
        );
        // The dangling branch compares against COUNT(∅) = 0.
        let has_anti = out.any_node(&mut |n| {
            matches!(n, Plan::Select { pred, .. }
                if format!("{pred}").contains("IS NULL") && format!("{pred}").contains("= 0"))
        });
        assert!(has_anti, "{out}");
    }

    #[test]
    fn subseteq_query_gets_empty_set_antijoin_predicate() {
        let pred = E::set_cmp(SetCmpOp::SubsetEq, E::path("x", &["a"]), E::var("z"));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(
            out.any_node(&mut |n| matches!(n, Plan::Nest { star: false, .. })),
            "{out}"
        );
        let has_empty = out.any_node(
            &mut |n| matches!(n, Plan::Select { pred, .. } if format!("{pred}").contains("⊆ {}")),
        );
        assert!(has_empty, "{out}");
    }

    #[test]
    fn existential_delegates_to_semijoin() {
        let pred = E::set_cmp(SetCmpOp::In, E::path("x", &["b"]), E::var("z"));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(
            out.any_node(&mut |n| matches!(
                n,
                Plan::Join {
                    kind: JoinKind::Semi,
                    ..
                }
            )),
            "{out}"
        );
        assert!(!out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
        )));
    }

    #[test]
    fn non_equi_correlation_stays_nested_loop() {
        let sub = Plan::scan("S", "y")
            .select(E::cmp(
                CmpOp::Lt,
                E::path("x", &["c"]),
                E::path("y", &["c"]),
            ))
            .map(E::path("y", &["d"]), "s");
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let p = Plan::scan("R", "x").apply(sub, "z").select(pred);
        assert!(rewrite(p).has_apply());
    }
}
