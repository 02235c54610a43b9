//! The paper's nest join strategy (Section 6).
//!
//! Every canonical block
//!
//! ```text
//! [Select P]  Apply z := (I, Map G (Select Q (R)))
//! ```
//!
//! with a closed inner plan `R` becomes
//!
//! ```text
//! [Select P]  I Δ_{Q, G; z} R
//! ```
//!
//! Grouping happens *during* the join; dangling tuples of `I` survive with
//! `z = ∅`, so predicates like `x.a = count(z)` or `x.a ⊆ z` — and
//! SELECT-clause nesting, which builds nested results — evaluate correctly
//! without NULLs. This works uniformly for WHERE-clause and SELECT-clause
//! nesting; no predicate classification is needed (that is the nest join's
//! virtue; its cost relative to semi/antijoins is the subject of
//! benchmark B3).

use tmql_algebra::Plan;

use super::Block;

/// `I Δ_{Q, G; z} R`. The block predicate, if any, stays above it: `z` is
/// now the nest join's label.
pub(super) fn plan(block: &Block<'_>) -> Plan {
    let parts = block.parts;
    block.input.clone().nest_join(
        parts.inner.clone(),
        parts.q.clone(),
        parts.g.clone(),
        block.label,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{unnest_plan, UnnestStrategy};
    use tmql_algebra::{JoinKind, ScalarExpr as E, SetCmpOp};

    fn rewrite(plan: Plan) -> Plan {
        unnest_plan(plan, UnnestStrategy::NestJoin)
    }

    fn block() -> Plan {
        // SELECT x FROM X x WHERE x.a ⊆ (SELECT y.a FROM Y y WHERE x.b=y.b)
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["a"]), "s");
        Plan::scan("X", "x")
            .apply(sub, "z")
            .select(E::set_cmp(
                SetCmpOp::SubsetEq,
                E::path("x", &["a"]),
                E::var("z"),
            ))
            .map(E::var("x"), "out")
    }

    #[test]
    fn where_block_becomes_select_over_nestjoin() {
        let out = rewrite(block());
        assert!(!out.has_apply());
        assert!(out.has_nest_join());
        // Shape: Map(Select(NestJoin)).
        let Plan::Map { input, .. } = out else {
            panic!("map root")
        };
        let Plan::Select { input, pred } = *input else {
            panic!("select")
        };
        assert!(pred.mentions("z"));
        let Plan::Join {
            kind: JoinKind::Nest { label, .. },
            pred: q,
            ..
        } = *input
        else {
            panic!("nest join")
        };
        assert_eq!(label, "z");
        assert!(q.mentions("x") && q.mentions("y"));
    }

    #[test]
    fn select_clause_block_becomes_bare_nestjoin() {
        // Q2-style: nested result, no WHERE predicate over z.
        let sub = Plan::scan("EMP", "e")
            .select(E::eq(E::path("e", &["city"]), E::path("d", &["city"])))
            .map(E::var("e"), "s");
        let q2 = Plan::scan("DEPT", "d").apply(sub, "emps").map(
            E::Tuple(vec![
                ("dname".into(), E::path("d", &["name"])),
                ("emps".into(), E::var("emps")),
            ]),
            "out",
        );
        let out = rewrite(q2);
        assert!(!out.has_apply());
        assert!(out.has_nest_join());
    }

    #[test]
    fn correlated_inner_operand_stays_apply() {
        // FROM d.emps e — must NOT be flattened (Section 3.2).
        let sub = Plan::ScanExpr {
            expr: E::path("d", &["emps"]),
            var: "e".into(),
        }
        .map(E::var("e"), "s");
        let q = Plan::scan("DEPT", "d").apply(sub, "z").select(E::set_cmp(
            SetCmpOp::In,
            E::path("d", &["mgr"]),
            E::var("z"),
        ));
        let out = rewrite(q);
        assert!(out.has_apply());
        assert!(!out.has_nest_join());
    }

    #[test]
    fn multi_level_rewrites_both_blocks() {
        // Section 8 shape: X ⊆-correlates to Y which ⊆-correlates to Z.
        let sub2 = Plan::scan("Z", "zz")
            .select(E::eq(E::path("y", &["d"]), E::path("zz", &["d"])))
            .map(E::path("zz", &["c"]), "s2");
        let y_block = Plan::scan("Y", "y")
            .apply(sub2, "z2")
            .select(E::and(
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
                E::set_cmp(SetCmpOp::SubsetEq, E::path("y", &["c"]), E::var("z2")),
            ))
            .map(E::path("y", &["a"]), "s1");
        let top = Plan::scan("X", "x").apply(y_block, "z1").select(E::set_cmp(
            SetCmpOp::SubsetEq,
            E::path("x", &["a"]),
            E::var("z1"),
        ));
        let out = rewrite(top);
        assert!(!out.has_apply());
        assert_eq!(
            out.count_nodes(&mut |n| matches!(
                n,
                Plan::Join {
                    kind: JoinKind::Nest { .. },
                    ..
                }
            )),
            2
        );
    }
}
