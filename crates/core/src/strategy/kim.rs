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
//! measure it; see [`super::ganski_wong`] and [`super::nestjoin`] for the
//! fixes.
//!
//! Predicates already in Theorem 1 form (`x.a ∈ z`, Kim's types N/J) are
//! flattened via the semijoin path, which is correct (no grouping, no
//! bug) — matching Kim's original treatment of those types.

use std::collections::BTreeSet;

use tmql_algebra::{AggFn, CmpOp, Plan, ScalarExpr};

use crate::classify::{classify, split_on_z, Classification};

use super::{decompose_subquery, decorrelatable, replace_subexpr, rewrite_blocks, SubqueryParts};

/// Rewrite every decorrelatable block with Kim's algorithm.
pub fn rewrite(plan: Plan) -> Plan {
    rewrite_blocks(plan, &mut |pred, input, subquery, label| {
        rewrite_one(pred, input, subquery, label)
    })
}

/// Rewrite a single block. `None` leaves the block as a nested loop (Kim
/// has no transformation for correlated inner operands).
pub fn rewrite_one(
    pred: Option<&ScalarExpr>,
    input: &Plan,
    subquery: &Plan,
    label: &str,
) -> Option<Plan> {
    let parts = decompose_subquery(subquery)?;
    if !decorrelatable(&parts) {
        return None;
    }
    let Some(pred) = pred else {
        // SELECT-clause nesting: Kim's relational algorithm has no
        // equivalent (nested results are not relational); the join+ν
        // variant below still applies and still loses dangling tuples.
        return kim_nest_variant(&ScalarExpr::lit(true), &[], input, &parts, label);
    };
    let (zpart, rest) = split_on_z(pred, label);
    let zpart = match zpart {
        Some(p) => p,
        None => return Some(input.clone().select(ScalarExpr::conj(rest))),
    };

    // Types N/J: predicates that classify existential flatten to a plain
    // join + projection — Kim handled those correctly.
    if let Classification::Existential { pred: p_prime } = classify(&zpart, label) {
        let p_on_g = p_prime.substitute(crate::classify::FRESH_VAR, &parts.g);
        let join_pred = ScalarExpr::and(parts.q.clone(), p_on_g);
        let joined = input.clone().join(parts.inner.clone(), join_pred);
        // Kim projects back onto the outer relation's attributes; our
        // set-semantics Project both restores the arity and (unlike
        // SQL multisets) removes the duplicates Kim's paper disregards.
        let outer_vars: Vec<String> = input.output_vars();
        let projected = Plan::Project {
            input: Box::new(joined),
            vars: outer_vars,
        };
        return Some(if rest.is_empty() {
            projected
        } else {
            projected.select(ScalarExpr::conj(rest))
        });
    }

    // Aggregate between blocks (type JA): group-then-join.
    if let Some(agg) = find_unique_agg(&zpart, label) {
        return kim_agg_variant(&zpart, &rest, input, &parts, label, agg);
    }
    // Complex-object grouping predicates: nest-then-join.
    kim_nest_variant(&ScalarExpr::conj([zpart]), &rest, input, &parts, label)
}

/// Correlation analysis shared by both variants: split `Q` into equi pairs
/// `outer-expr = inner-expr` plus inner-only conjuncts (pushed into `R`).
/// Mixed non-equi conjuncts make Kim inapplicable.
pub(crate) struct Correlation {
    pub(crate) outer_keys: Vec<ScalarExpr>,
    pub(crate) inner_keys: Vec<ScalarExpr>,
    pub(crate) inner_plan: Plan,
}

pub(crate) fn correlation(input: &Plan, parts: &SubqueryParts) -> Option<Correlation> {
    let outer_vars: BTreeSet<String> = input.output_vars().into_iter().collect();
    let inner_vars: BTreeSet<String> = parts.inner.output_vars().into_iter().collect();
    let mut outer_keys = Vec::new();
    let mut inner_keys = Vec::new();
    let mut inner_resid = Vec::new();
    for c in parts.q.conjuncts() {
        if matches!(c, ScalarExpr::Lit(tmql_model::Value::Bool(true))) {
            continue;
        }
        let fv = c.free_vars();
        if fv.is_subset(&inner_vars) {
            inner_resid.push(c);
            continue;
        }
        if let ScalarExpr::Cmp(CmpOp::Eq, a, b) = &c {
            let (fa, fb) = (a.free_vars(), b.free_vars());
            if fa.is_subset(&outer_vars) && fb.is_subset(&inner_vars) {
                outer_keys.push((**a).clone());
                inner_keys.push((**b).clone());
                continue;
            }
            if fb.is_subset(&outer_vars) && fa.is_subset(&inner_vars) {
                outer_keys.push((**b).clone());
                inner_keys.push((**a).clone());
                continue;
            }
        }
        // Correlation that is not a simple equi predicate: Kim's
        // algorithm does not apply.
        return None;
    }
    let inner_plan = if inner_resid.is_empty() {
        parts.inner.clone()
    } else {
        parts.inner.clone().select(ScalarExpr::conj(inner_resid))
    };
    Some(Correlation {
        outer_keys,
        inner_keys,
        inner_plan,
    })
}

/// Kim variant (1) of Section 2: `T = γ(R)`, then join.
fn kim_agg_variant(
    zpart: &ScalarExpr,
    rest: &[ScalarExpr],
    input: &Plan,
    parts: &SubqueryParts,
    label: &str,
    agg: AggFn,
) -> Option<Plan> {
    let corr = correlation(input, parts)?;
    let tvar = format!("__t_{label}");
    let keys: Vec<(String, ScalarExpr)> = corr
        .inner_keys
        .iter()
        .enumerate()
        .map(|(i, e)| (format!("k{i}"), e.clone()))
        .collect();
    let t = Plan::GroupAgg {
        input: Box::new(corr.inner_plan),
        keys: keys.clone(),
        aggs: vec![("agg".to_string(), agg, parts.g.clone())],
        var: tvar.clone(),
    };
    // Join predicate: key equalities plus P with H(z) replaced by t.agg.
    let target = ScalarExpr::agg(agg, ScalarExpr::var(label));
    let p_sub = replace_subexpr(zpart, &target, &ScalarExpr::path(&tvar, &["agg"]));
    if p_sub.mentions(label) {
        // z occurs outside the aggregate too — mixed form, fall back.
        return kim_nest_variant(
            &ScalarExpr::conj([zpart.clone()]),
            rest,
            input,
            parts,
            label,
        );
    }
    let mut join_conjs: Vec<ScalarExpr> = corr
        .outer_keys
        .iter()
        .zip(&keys)
        .map(|(o, (kname, _))| {
            ScalarExpr::eq(o.clone(), ScalarExpr::var(&tvar).field(kname.clone()))
        })
        .collect();
    join_conjs.push(p_sub);
    let joined = input.clone().join(t, ScalarExpr::conj(join_conjs));
    Some(finish(joined, rest))
}

/// The ν-based variant of Section 4: `T = ν(R)`, then join. The nested-set
/// label reuses the block label so `P(x, z)` applies unchanged.
fn kim_nest_variant(
    zpart: &ScalarExpr,
    rest: &[ScalarExpr],
    input: &Plan,
    parts: &SubqueryParts,
    label: &str,
) -> Option<Plan> {
    let corr = correlation(input, parts)?;
    // Extend R with the key expressions as plain variables so ν can group
    // on them.
    let mut extended = corr.inner_plan;
    let mut key_vars = Vec::new();
    for (i, k) in corr.inner_keys.iter().enumerate() {
        let kname = format!("__k{i}_{label}");
        extended = extended.extend(k.clone(), kname.clone());
        key_vars.push(kname);
    }
    let t = Plan::Nest {
        input: Box::new(extended),
        keys: key_vars.clone(),
        value: parts.g.clone(),
        label: label.to_string(),
        star: false,
    };
    let mut join_conjs: Vec<ScalarExpr> = corr
        .outer_keys
        .iter()
        .zip(&key_vars)
        .map(|(o, k)| ScalarExpr::eq(o.clone(), ScalarExpr::var(k)))
        .collect();
    join_conjs.push(zpart.clone());
    let joined = input.clone().join(t, ScalarExpr::conj(join_conjs));
    Some(finish(joined, rest))
}

fn finish(plan: Plan, rest: &[ScalarExpr]) -> Plan {
    if rest.is_empty() {
        plan
    } else {
        plan.select(ScalarExpr::conj(rest.to_vec()))
    }
}

/// Find the aggregate `H(z)` if `zpart` contains exactly one aggregate
/// application over `z`.
pub(crate) fn find_unique_agg(e: &ScalarExpr, z: &str) -> Option<AggFn> {
    let mut found = Vec::new();
    collect_aggs(e, z, &mut found);
    match found.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

fn collect_aggs(e: &ScalarExpr, z: &str, out: &mut Vec<AggFn>) {
    if let ScalarExpr::Agg(f, inner) = e {
        if **inner == ScalarExpr::Var(z.to_string()) {
            out.push(*f);
            return;
        }
    }
    match e {
        ScalarExpr::Field(a, _)
        | ScalarExpr::Not(a)
        | ScalarExpr::Agg(_, a)
        | ScalarExpr::Unnest(a)
        | ScalarExpr::IsNull(a) => collect_aggs(a, z, out),
        ScalarExpr::Cmp(_, a, b)
        | ScalarExpr::Arith(_, a, b)
        | ScalarExpr::And(a, b)
        | ScalarExpr::Or(a, b)
        | ScalarExpr::SetBin(_, a, b)
        | ScalarExpr::SetCmp(_, a, b) => {
            collect_aggs(a, z, out);
            collect_aggs(b, z, out);
        }
        ScalarExpr::Tuple(fs) => fs.iter().for_each(|(_, x)| collect_aggs(x, z, out)),
        ScalarExpr::SetLit(es) => es.iter().for_each(|x| collect_aggs(x, z, out)),
        ScalarExpr::Quant { over, pred, .. } => {
            collect_aggs(over, z, out);
            collect_aggs(pred, z, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::{ScalarExpr as E, SetCmpOp};

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
        assert!(out.any_node(&mut |n| matches!(n, Plan::Join { .. })));
        // No outerjoin, no nest join: that is exactly the bug.
        assert!(!out.any_node(&mut |n| matches!(n, Plan::LeftOuterJoin { .. })));
        assert!(!out.has_nest_join());
    }

    #[test]
    fn subseteq_query_becomes_nest_then_join() {
        let pred = E::set_cmp(SetCmpOp::SubsetEq, E::path("x", &["a"]), E::var("z"));
        let p = Plan::scan("R", "x").apply(sub(), "z").select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(n, Plan::Nest { star: false, .. })));
        assert!(out.any_node(&mut |n| matches!(n, Plan::Join { .. })));
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
