//! The Ganski–Wong outerjoin fix [SIGMOD 87], as surveyed in Section 2.
//!
//! The block
//!
//! ```text
//! [Select P]  Apply z := (I, Map G (Select Q (R)))
//! ```
//!
//! becomes
//!
//! ```text
//! [Select P]
//!   ν*_{vars(I); z := G}      -- group by the outer tuple, NULLs → ∅
//!     I ⟕_Q R                 -- LEFT OUTERJOIN preserves dangling tuples
//! ```
//!
//! Dangling `I` tuples survive the outerjoin NULL-extended; the modified
//! nest operator ν* maps their `{NULL}` group to the empty set, after
//! which `P(x, z)` evaluates correctly (`count(z) = 0` for the COUNT-bug
//! query). This is the *relational* repair: correct, but it must (a) pay
//! for a full outerjoin result before grouping, and (b) "resort to NULLs"
//! — the paper's Section 6 point is that a complex object model can skip
//! both by nest-joining directly.

use std::collections::BTreeSet;

use tmql_algebra::{Plan, ScalarExpr};

use super::Block;

/// `ν*_{vars(I); z := G}(I ⟕_Q R)`, without the block predicate. `None`
/// when the result expression would not NULL-propagate.
pub(super) fn plan(block: &Block<'_>) -> Option<Plan> {
    let parts = block.parts;
    // ν* recognizes dangling tuples by their NULL payload, so G must
    // evaluate to NULL on a NULL-extended row. That holds for column
    // references (`y.a`, `y`), i.e. for everything expressible in the
    // relational model this fix was designed for; a constructed value like
    // a tuple literal would mask the NULL and silently resurrect the bug,
    // so we refuse and let the caller fall back.
    let inner_vars: BTreeSet<String> = parts.inner.output_vars().into_iter().collect();
    if !null_propagating(parts.g, &inner_vars) {
        return None;
    }
    let outer = Plan::left_outer_join(block.input.clone(), parts.inner.clone(), parts.q.clone());
    Some(Plan::Nest {
        input: Box::new(outer),
        keys: block.input.output_vars(),
        value: parts.g.clone(),
        label: block.label.to_string(),
        star: true,
    })
}

/// True iff `g` is a variable or field path rooted at one of `vars` —
/// the shapes that evaluate to NULL on NULL-extended rows.
fn null_propagating(g: &ScalarExpr, vars: &BTreeSet<String>) -> bool {
    match g {
        ScalarExpr::Var(v) => vars.contains(v),
        ScalarExpr::Field(inner, _) => null_propagating(inner, vars),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unnest_plan, UnnestStrategy};
    use tmql_algebra::{AggFn, CmpOp, JoinKind, ScalarExpr as E};

    fn rewrite(plan: Plan) -> Plan {
        unnest_plan(plan, UnnestStrategy::GanskiWong)
    }

    fn sub(g: E) -> Plan {
        Plan::scan("S", "y")
            .select(E::eq(E::path("x", &["c"]), E::path("y", &["c"])))
            .map(g, "s")
    }

    #[test]
    fn count_bug_query_gets_outerjoin_and_nu_star() {
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let p = Plan::scan("R", "x")
            .apply(sub(E::path("y", &["d"])), "z")
            .select(pred);
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
        )));
        assert!(out.any_node(&mut |n| matches!(n, Plan::Nest { star: true, .. })));
    }

    #[test]
    fn select_clause_nesting_supported() {
        // Grouping "following the join" (Section 5) — bare Apply.
        let p = Plan::scan("R", "x").apply(sub(E::var("y")), "emps").map(
            E::Tuple(vec![
                ("r".into(), E::var("x")),
                ("es".into(), E::var("emps")),
            ]),
            "out",
        );
        let out = rewrite(p);
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(n, Plan::Nest { star: true, .. })));
    }

    #[test]
    fn constructed_g_refused() {
        // G = (a = y.d) would hide the NULL from ν*; the strategy must
        // decline rather than produce wrong answers.
        let g = E::Tuple(vec![("a".into(), E::path("y", &["d"]))]);
        let pred = E::cmp(CmpOp::Ne, E::agg(AggFn::Count, E::var("z")), E::lit(0i64));
        let p = Plan::scan("R", "x").apply(sub(g), "z").select(pred);
        let out = rewrite(p);
        assert!(out.has_apply(), "non-null-propagating G must fall back");
    }

    #[test]
    fn correlated_inner_refused() {
        let sub = Plan::ScanExpr {
            expr: E::path("x", &["kids"]),
            var: "k".into(),
        }
        .map(E::var("k"), "s");
        let p = Plan::scan("R", "x").apply(sub, "z").select(E::cmp(
            CmpOp::Eq,
            E::agg(AggFn::Count, E::var("z")),
            E::lit(0i64),
        ));
        assert!(rewrite(p).has_apply());
    }
}
