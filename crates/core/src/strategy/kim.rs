//! Kim's unnesting algorithm [Kim 82], as surveyed in Section 2 —
//! **deliberately bug-compatible**.
//!
//! For an aggregate predicate (`x.b = count(z)`, Kim's type JA) the block
//! becomes
//!
//! ```text
//! (1)  T := γ_{keys; agg}(R)                 -- group + aggregate first
//!      I ⋈_{x.c = t.c ∧ P[H(z) ↦ t.agg]} T   -- then a regular join
//! ```
//!
//! For the complex-object predicates that need grouping (`x.a ⊆ z`, …) the
//! analogous transformation nests the inner operand first (the ν-based
//! variant the paper shows in Section 4):
//!
//! ```text
//! T := ν_{keys; z}(R)
//! I ⋈_{x.b = t.b ∧ P(x, z)} T
//! ```
//!
//! Both variants share the flaw exposed by [Kiessling 84]: `T` contains a
//! group **only for inner values that exist**, and the final regular join
//! drops dangling `I` tuples — the COUNT bug (`x.b = 0` rows vanish) and
//! the paper's generalization, the SUBSETEQ bug (`x.a = ∅` rows vanish).
//! The bug is kept intact here so experiments E1/E2 can demonstrate and
//! measure it; see `ganski_wong` and [`super::nestjoin`] for the
//! fixes.
//!
//! Predicates already in Theorem 1 form (`x.a ∈ z`, Kim's types N/J) are
//! flattened via the semijoin path, which is correct (no grouping, no
//! bug) — matching Kim's original treatment of those types.

use tmql_algebra::{AggFn, CmpOp, Plan, ScalarExpr};

use crate::classify::{Classification, FRESH_VAR};

use super::{replace_subexpr, Block};

/// Kim's plan for one block. `None` leaves it a nested loop (Kim has no
/// transformation for correlation that is not an equi predicate).
pub(super) fn plan(block: &Block<'_>) -> Option<Plan> {
    let parts = block.parts;
    if block.pred.is_none() {
        // SELECT-clause nesting: Kim's relational algorithm has no
        // equivalent (nested results are not relational); the join+ν
        // variant below still applies and still loses dangling tuples.
        let (t, key_eqs, _) = nested(correlation(block)?, block);
        return Some(joined(block, t, key_eqs, ScalarExpr::lit(true)));
    }
    let Some((zpart, class)) = &block.zpart else {
        return Some(block.without_subquery());
    };

    // Types N/J: predicates that classify existential flatten to a plain
    // join + projection — Kim handled those correctly.
    if let Classification::Existential { pred: p_prime } = class {
        let p_on_g = p_prime.substitute(FRESH_VAR, parts.g);
        let join_pred = ScalarExpr::and(parts.q.clone(), p_on_g);
        // Kim projects back onto the outer relation's attributes; our
        // set-semantics Project both restores the arity and (unlike
        // SQL multisets) removes the duplicates Kim's paper disregards.
        let projected = Plan::Project {
            input: Box::new(block.input.clone().join(parts.inner.clone(), join_pred)),
            vars: block.input.output_vars(),
        };
        return Some(block.with_rest(projected));
    }

    let corr = correlation(block)?;
    // Aggregate between blocks (type JA): group-then-join, unless z also
    // occurs outside the aggregate (mixed form).
    if let Some(agg) = find_unique_agg(zpart, block.label) {
        let tvar = t_var(block.label);
        let p_sub = replace_agg(zpart, agg, block.label, &ScalarExpr::path(&tvar, &["agg"]));
        if !p_sub.mentions(block.label) {
            let (t, key_eqs) = grouped(corr, block, agg, &tvar);
            return Some(joined(block, t, key_eqs, p_sub));
        }
    }
    // Complex-object grouping predicates: nest-then-join. The nested-set
    // label reuses the block label so `P(x, z)` applies unchanged.
    let (t, key_eqs, _) = nested(corr, block);
    Some(joined(block, t, key_eqs, zpart.clone().into_owned()))
}

/// `I ⋈_{keys ∧ p} T` under the `z`-free conjuncts: the regular join that
/// drops dangling `I` tuples.
fn joined(block: &Block<'_>, t: Plan, mut conjuncts: Vec<ScalarExpr>, p: ScalarExpr) -> Plan {
    conjuncts.push(p);
    block.with_rest(block.input.clone().join(t, ScalarExpr::conj(conjuncts)))
}

/// Correlation analysis shared by both variants (and by Muralikrishna):
/// `Q` split into equi pairs `outer-expr = inner-expr`, the inner-only
/// conjuncts already pushed into `R`.
pub(super) struct Correlation {
    outer_keys: Vec<ScalarExpr>,
    inner_keys: Vec<ScalarExpr>,
    inner_plan: Plan,
}

/// `None` when `Q` has a mixed conjunct that is not an equi predicate:
/// Kim's algorithm does not apply.
pub(super) fn correlation(block: &Block<'_>) -> Option<Correlation> {
    let parts = block.parts;
    let outer = |e: &ScalarExpr| e.reads_only(|v| block.input.binds(v));
    let inner = |e: &ScalarExpr| e.reads_only(|v| parts.inner.binds(v));
    let mut outer_keys = Vec::new();
    let mut inner_keys = Vec::new();
    let mut inner_resid = Vec::new();
    for c in parts.q.conjuncts() {
        if matches!(c, ScalarExpr::Lit(tmql_model::Value::Bool(true))) {
            continue;
        }
        if inner(c) {
            inner_resid.push(c);
            continue;
        }
        if let ScalarExpr::Cmp(CmpOp::Eq, a, b) = c {
            if outer(a) && inner(b) {
                outer_keys.push((**a).clone());
                inner_keys.push((**b).clone());
                continue;
            }
            if outer(b) && inner(a) {
                outer_keys.push((**b).clone());
                inner_keys.push((**a).clone());
                continue;
            }
        }
        return None;
    }
    let inner_plan = if inner_resid.is_empty() {
        parts.inner.clone()
    } else {
        parts
            .inner
            .clone()
            .select(ScalarExpr::conj(inner_resid.into_iter().cloned()))
    };
    Some(Correlation {
        outer_keys,
        inner_keys,
        inner_plan,
    })
}

/// The variable `T = γ(R)` is bound to.
pub(super) fn t_var(label: &str) -> String {
    format!("__t_{label}")
}

/// `p` with `H(z)` replaced by `by`.
pub(super) fn replace_agg(p: &ScalarExpr, agg: AggFn, z: &str, by: &ScalarExpr) -> ScalarExpr {
    replace_subexpr(p, &ScalarExpr::agg(agg, ScalarExpr::var(z)), by)
}

/// Variant (1) of Section 2: `T = γ_{keys; agg}(R)` bound to `tvar`, with
/// the key equalities `outer = tvar.k_i`.
pub(super) fn grouped(
    corr: Correlation,
    block: &Block<'_>,
    agg: AggFn,
    tvar: &str,
) -> (Plan, Vec<ScalarExpr>) {
    let keys: Vec<(String, ScalarExpr)> = corr
        .inner_keys
        .into_iter()
        .enumerate()
        .map(|(i, e)| (format!("k{i}"), e))
        .collect();
    let key_eqs = corr
        .outer_keys
        .into_iter()
        .zip(&keys)
        .map(|(o, (kname, _))| ScalarExpr::eq(o, ScalarExpr::var(tvar).field(kname.clone())))
        .collect();
    let t = Plan::GroupAgg {
        input: Box::new(corr.inner_plan),
        keys,
        aggs: vec![("agg".to_string(), agg, block.parts.g.clone())],
        var: tvar.to_string(),
    };
    (t, key_eqs)
}

/// The ν-based variant of Section 4: `T = ν_{keys; z}(R)` with `R`
/// extended by the key expressions as plain variables (so ν can group on
/// them), the key equalities `outer = key_i`, and the key variables.
pub(super) fn nested(corr: Correlation, block: &Block<'_>) -> (Plan, Vec<ScalarExpr>, Vec<String>) {
    let mut extended = corr.inner_plan;
    let mut key_vars = Vec::new();
    for (i, k) in corr.inner_keys.into_iter().enumerate() {
        let kname = format!("__k{i}_{}", block.label);
        extended = extended.extend(k, kname.clone());
        key_vars.push(kname);
    }
    let key_eqs = corr
        .outer_keys
        .into_iter()
        .zip(&key_vars)
        .map(|(o, k)| ScalarExpr::eq(o, ScalarExpr::var(k)))
        .collect();
    let t = Plan::Nest {
        input: Box::new(extended),
        keys: key_vars.clone(),
        value: block.parts.g.clone(),
        label: block.label.to_string(),
        star: false,
    };
    (t, key_eqs, key_vars)
}

/// Find the aggregate `H(z)` if `zpart` contains exactly one aggregate
/// application over `z`.
pub(super) fn find_unique_agg(e: &ScalarExpr, z: &str) -> Option<AggFn> {
    let mut found = Vec::new();
    collect_aggs(e, z, &mut found);
    match found.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

fn collect_aggs(e: &ScalarExpr, z: &str, out: &mut Vec<AggFn>) {
    match e {
        ScalarExpr::Agg(f, inner) if matches!(&**inner, ScalarExpr::Var(v) if v == z) => {
            out.push(*f)
        }
        _ => e.for_each_child(|c| collect_aggs(c, z, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unnest_plan, UnnestStrategy};
    use tmql_algebra::{JoinKind, ScalarExpr as E, SetCmpOp};

    fn rewrite(plan: Plan) -> Plan {
        unnest_plan(plan, UnnestStrategy::Kim)
    }

    fn sub() -> Plan {
        Plan::scan("S", "y")
            .select(E::eq(E::path("x", &["c"]), E::path("y", &["c"])))
            .map(E::path("y", &["d"]), "s")
    }

    #[test]
    fn count_query_becomes_group_then_join() {
        // SELECT * FROM R x WHERE x.b = COUNT(z), z = …
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(n, Plan::GroupAgg { .. })));
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Inner,
                ..
            }
        )));
        // No outerjoin, no nest join: that is exactly the bug.
        assert!(!out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
        )));
        assert!(!out.has_nest_join());
    }

    #[test]
    fn subseteq_query_becomes_nest_then_join() {
        let pred = E::set_cmp(SetCmpOp::SubsetEq, E::path("x", &["a"]), E::var("z"));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(n, Plan::Nest { star: false, .. })));
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Inner,
                ..
            }
        )));
    }

    #[test]
    fn membership_flattens_to_join_with_projection() {
        let pred = E::set_cmp(SetCmpOp::In, E::path("x", &["b"]), E::var("z"));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(n, Plan::Project { .. })));
        assert!(!out.any_node(&mut |n| matches!(n, Plan::GroupAgg { .. })));
    }

    #[test]
    fn non_equi_correlation_is_not_kims_case() {
        let sub = Plan::scan("S", "y")
            .select(E::cmp(
                CmpOp::Lt,
                E::path("x", &["c"]),
                E::path("y", &["c"]),
            ))
            .map(E::path("y", &["d"]), "s");
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let p = Plan::scan("R", "x").apply(sub, "z").select(pred);
        let out = rewrite(p);
        assert!(out.has_apply(), "Kim must leave non-equi correlation alone");
    }

    #[test]
    fn uncorrelated_aggregate_subquery_single_group() {
        // x.b = count(z), z uncorrelated → T is a single global group.
        let sub = Plan::scan("S", "y").map(E::path("y", &["d"]), "s");
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let p = Plan::scan("R", "x").apply(sub, "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        let has_keyless_group =
            out.any_node(&mut |n| matches!(n, Plan::GroupAgg { keys, .. } if keys.is_empty()));
        assert!(has_keyless_group);
    }
}
