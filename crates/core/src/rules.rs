//! Algebraic rewrite rules around the nest join (Sections 5 and 6).
//!
//! Section 6 warns that the nest join "like the outerjoin, has less
//! pleasant algebraic properties" — it is neither commutative nor
//! associative — but lists equivalences that *do* hold. Those are
//! implemented here, plus the Section 5 `UNNEST`-collapse law. Each rule
//! is a standalone function from a node to `Some(replacement)` or `None`;
//! [`cleanup`] applies the always-beneficial ones to a fixpoint. Selection
//! pushdown is one rule, [`select_pushdown`], for the whole join family:
//! which operands may take a selection is the only thing that differs
//! between ⋈, ⋉, ▷ and Δ.

use std::collections::BTreeSet;

use tmql_algebra::rewrite::fixpoint;
use tmql_algebra::{JoinKind, Plan, ScalarExpr};

use crate::strategy::{decompose_subquery, decorrelatable};

/// `π_X(X Δ Y) = X` (Section 6): projecting a nest join onto the left
/// operand's variables drops the nest join entirely — the nest join
/// preserves left tuples exactly.
pub fn project_nestjoin_elim(plan: &Plan) -> Option<Plan> {
    let Plan::Project { input, vars } = plan else {
        return None;
    };
    let Plan::Join {
        kind: JoinKind::Nest { label, .. },
        left,
        ..
    } = &**input
    else {
        return None;
    };
    if vars.contains(label) {
        return None;
    }
    let left_vars: BTreeSet<String> = left.output_vars().into_iter().collect();
    if !vars.iter().all(|v| left_vars.contains(v)) {
        return None;
    }
    Some(if *vars == left.output_vars() {
        (**left).clone()
    } else {
        Plan::Project {
            input: left.clone(),
            vars: vars.clone(),
        }
    })
}

/// Selection pushdown into the join operand that covers the predicate:
/// `σ_p(X ⋈ Y) = σ_p(X) ⋈ Y` when `p` references only `X`'s variables,
/// and symmetrically into `Y`. Through ⋉, ▷ and the nest join Δ
/// (Section 6) only the left operand takes it: the right operand decides
/// what each left row keeps, so filtering it changes the answer (a
/// dangling left tuple of Δ must still appear, with ∅). The left
/// outerjoin is left alone.
pub fn select_pushdown(plan: &Plan) -> Option<Plan> {
    let Plan::Select { input, pred } = plan else {
        return None;
    };
    let Plan::Join {
        kind, left, right, ..
    } = &**input
    else {
        return None;
    };
    let right = match kind {
        JoinKind::Inner => Some(right),
        JoinKind::Semi | JoinKind::Anti | JoinKind::Nest { .. } => None,
        JoinKind::LeftOuter => return None,
    };
    let fv = pred.free_vars();
    let covers = |p: &Plan| {
        let vars = p.output_vars();
        fv.iter().all(|v| vars.contains(v))
    };
    let side = if covers(left) {
        0
    } else if right.is_some_and(|r| covers(r)) {
        1
    } else {
        return None;
    };
    let mut out = (**input).clone();
    let operand = out.children_mut().swap_remove(side);
    *operand = std::mem::replace(operand, Plan::scan("", "")).select(pred.clone());
    Some(out)
}

/// Match `(X ⋈_{p1} Y) Δ_{p2} Z`, the shape both Section 6 laws below
/// rewrite, when Δ's predicate and function read only Z and the join's
/// `side` operand (0: X, 1: Y). Returns X, Y, `p1` and `W ↦ W Δ_{p2} Z`.
fn nest_over_join(
    plan: &Plan,
    side: usize,
) -> Option<(&Plan, &Plan, &ScalarExpr, impl Fn(&Plan) -> Plan + '_)> {
    let Plan::Join {
        kind: nest @ JoinKind::Nest { func, .. },
        left,
        right: z,
        pred: p2,
    } = plan
    else {
        return None;
    };
    let Plan::Join {
        kind: JoinKind::Inner,
        left: x,
        right: y,
        pred: p1,
    } = &**left
    else {
        return None;
    };
    let mut allowed: BTreeSet<String> = [x, y][side].output_vars().into_iter().collect();
    allowed.extend(z.output_vars());
    if !p2.free_vars().is_subset(&allowed) || !func.free_vars().is_subset(&allowed) {
        return None;
    }
    let delta = |w: &Plan| w.clone().join_as(nest.clone(), (**z).clone(), p2.clone());
    Some((&**x, &**y, p1, delta))
}

/// Section 6, second equivalence:
/// `(X ⋈_{r(x,y)} Y) Δ_{r(x,z)} Z ≡ (X Δ_{r(x,z)} Z) ⋈_{r(x,y)} Y`.
/// The nest join slides below a join when its predicate and function only
/// touch the join's left operand.
pub fn nestjoin_join_interchange(plan: &Plan) -> Option<Plan> {
    let (x, y, p1, delta) = nest_over_join(plan, 0)?;
    Some(delta(x).join(y.clone(), p1.clone()))
}

/// Section 6, third equivalence:
/// `(X ⋈_{r(x,y)} Y) Δ_{r(y,z)} Z ≡ X ⋈_{r(x,y)} (Y Δ_{r(y,z)} Z)`.
/// The nest join attaches to the join operand it actually references.
pub fn join_nestjoin_assoc(plan: &Plan) -> Option<Plan> {
    let (x, y, p1, delta) = nest_over_join(plan, 1)?;
    Some(x.clone().join(delta(y), p1.clone()))
}

/// Section 5's special case: `UNNEST(SELECT (SELECT …) FROM X)` is a flat
/// join. Recognizes the translated shape
///
/// ```text
/// Unnest e ∈ m (drop m)
///   Map m := z
///     Apply z := (I, Map G (Select Q (R)))
/// ```
///
/// and rewrites it to `Map e := G (Join Q (I, R))`: the set-of-sets is
/// never built. Dangling `I` rows contributed ∅ to the union, so the
/// inner join loses nothing.
pub fn unnest_collapse(plan: &Plan) -> Option<Plan> {
    let Plan::Unnest {
        input,
        expr,
        elem_var,
        drop_vars,
    } = plan
    else {
        return None;
    };
    // Peel an optional Map m := z between Unnest and Apply.
    let (apply, set_var) = match &**input {
        Plan::Map {
            input: apply,
            expr: ScalarExpr::Var(z),
            var: m,
        } => {
            if *expr != ScalarExpr::var(m.clone()) || drop_vars != std::slice::from_ref(m) {
                return None;
            }
            (&**apply, z.clone())
        }
        other => {
            let ScalarExpr::Var(z) = expr else {
                return None;
            };
            (other, z.clone())
        }
    };
    let Plan::Apply {
        input: outer,
        subquery,
        label,
    } = apply
    else {
        return None;
    };
    if *label != set_var {
        return None;
    }
    // When unnesting directly over the Apply, every input variable must be
    // dropped (the collapse forgets which outer row an element came from).
    if !matches!(&**input, Plan::Map { .. }) {
        let mut required: Vec<String> = outer.output_vars();
        required.push(label.clone());
        let dropped: BTreeSet<&String> = drop_vars.iter().collect();
        if !required.iter().all(|v| dropped.contains(v)) {
            return None;
        }
    }
    let parts = decompose_subquery(subquery).filter(decorrelatable)?;
    let join = (**outer).clone().join(parts.inner.clone(), parts.q.clone());
    Some(join.map(parts.g.clone(), elem_var.clone()))
}

/// Apply the always-beneficial rules (projection elimination, selection
/// pushdown, unnest collapse) bottom-up to a fixpoint.
pub fn cleanup(plan: Plan) -> Plan {
    fixpoint(plan, 8, &mut |node| {
        project_nestjoin_elim(node)
            .or_else(|| select_pushdown(node))
            .or_else(|| unnest_collapse(node))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::{CmpOp, ScalarExpr as E};

    fn nj() -> Plan {
        Plan::scan("X", "x").nest_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["a"]),
            "ys",
        )
    }

    #[test]
    fn projection_eliminates_nestjoin() {
        let p = nj().project(&["x"]);
        let out = project_nestjoin_elim(&p).unwrap();
        assert_eq!(out, Plan::scan("X", "x"));
        // Keeping the label blocks the rule.
        let keep = nj().project(&["x", "ys"]);
        assert!(project_nestjoin_elim(&keep).is_none());
    }

    #[test]
    fn select_pushes_into_left_of_nestjoin() {
        let p = nj().select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(1i64)));
        let out = select_pushdown(&p).unwrap();
        let Plan::Join {
            kind: JoinKind::Nest { .. },
            left,
            ..
        } = out
        else {
            panic!("nest join")
        };
        assert!(matches!(*left, Plan::Select { .. }));
        // Predicates over the label must not push.
        let blocked = nj().select(E::set_cmp(
            tmql_algebra::SetCmpOp::In,
            E::path("x", &["a"]),
            E::var("ys"),
        ));
        assert!(select_pushdown(&blocked).is_none());
    }

    #[test]
    fn join_pushdown_picks_side() {
        let j = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let left_pred = j
            .clone()
            .select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64)));
        let out = select_pushdown(&left_pred).unwrap();
        let Plan::Join {
            kind: JoinKind::Inner,
            left,
            ..
        } = out
        else {
            panic!()
        };
        assert!(matches!(*left, Plan::Select { .. }));
        let right_pred = j.select(E::cmp(CmpOp::Gt, E::path("y", &["c"]), E::lit(0i64)));
        let out = select_pushdown(&right_pred).unwrap();
        let Plan::Join {
            kind: JoinKind::Inner,
            right,
            ..
        } = out
        else {
            panic!()
        };
        assert!(matches!(*right, Plan::Select { .. }));
        // ⋉ and ▷ take a left-only predicate into their left operand.
        let on = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let x_pred = E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64));
        let semi = Plan::scan("X", "x").semi_join(Plan::scan("Y", "y"), on.clone());
        let anti = Plan::scan("X", "x").anti_join(Plan::scan("Y", "y"), on);
        for join in [&semi, &anti] {
            let out = select_pushdown(&join.clone().select(x_pred.clone())).unwrap();
            let left = &out.children()[0];
            assert!(matches!(left, Plan::Select { .. }), "{out}");
            assert_eq!(out.children()[1], join.children()[1]);
        }
        // Neither they nor Δ take a predicate over their right operand.
        let y_pred = E::cmp(CmpOp::Gt, E::path("y", &["c"]), E::lit(0i64));
        for join in [semi, anti, nj()] {
            assert!(select_pushdown(&join.select(y_pred.clone())).is_none());
        }
        // ⟕ takes neither: a left-only predicate would drop rows the
        // outerjoin must still NULL-extend, a right-only one would turn
        // matched rows into dangling ones.
        let outer = Plan::scan("X", "x").left_outer_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        for pred in [x_pred, y_pred] {
            assert!(select_pushdown(&outer.clone().select(pred)).is_none());
        }
    }

    #[test]
    fn interchange_requires_disjoint_reference() {
        // (X ⋈ Y) Δ Z with Δ-pred over x only: slides under.
        let xy = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let p = xy.nest_join(
            Plan::scan("Z", "z"),
            E::eq(E::path("x", &["c"]), E::path("z", &["c"])),
            E::var("z"),
            "zs",
        );
        let out = nestjoin_join_interchange(&p).unwrap();
        let Plan::Join {
            kind: JoinKind::Inner,
            left,
            ..
        } = &out
        else {
            panic!("join root")
        };
        assert!(matches!(
            **left,
            Plan::Join {
                kind: JoinKind::Nest { .. },
                ..
            }
        ));
        // A Δ-pred referencing y blocks the interchange (but enables the
        // associativity form instead).
        let xy = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let p = xy.nest_join(
            Plan::scan("Z", "z"),
            E::eq(E::path("y", &["d"]), E::path("z", &["d"])),
            E::var("z"),
            "zs",
        );
        assert!(nestjoin_join_interchange(&p).is_none());
        let out = join_nestjoin_assoc(&p).unwrap();
        let Plan::Join {
            kind: JoinKind::Inner,
            right,
            ..
        } = &out
        else {
            panic!("join root")
        };
        assert!(matches!(
            **right,
            Plan::Join {
                kind: JoinKind::Nest { .. },
                ..
            }
        ));
        // Both laws need an inner join under a nest join: neither touches
        // (X ⋉ Y) Δ Z or (X ⟕ Y) Δ Z, whichever operand Δ reads, nor
        // (X ⋈ Y) ⋉ Z.
        let on = |v: &str| E::eq(E::path(v, &["c"]), E::path("z", &["c"]));
        let xy = |kind| {
            Plan::scan("X", "x").join_as(
                kind,
                Plan::scan("Y", "y"),
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            )
        };
        let mut kept = vec![];
        for lower in [JoinKind::Semi, JoinKind::LeftOuter] {
            for v in ["x", "y"] {
                let z = Plan::scan("Z", "z");
                kept.push(xy(lower.clone()).nest_join(z, on(v), E::var("z"), "zs"));
            }
        }
        for v in ["x", "y"] {
            kept.push(xy(JoinKind::Inner).semi_join(Plan::scan("Z", "z"), on(v)));
        }
        for p in &kept {
            assert!(nestjoin_join_interchange(p).is_none(), "{p}");
            assert!(join_nestjoin_assoc(p).is_none(), "{p}");
        }
    }

    #[test]
    fn unnest_collapse_fires_on_translated_shape() {
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["a"])))
            .map(
                E::Tuple(vec![
                    ("a".into(), E::path("x", &["a"])),
                    ("b".into(), E::path("y", &["b"])),
                ]),
                "g",
            );
        let plan = Plan::Unnest {
            input: Box::new(Plan::scan("X", "x").apply(sub, "z").map(E::var("z"), "m")),
            expr: E::var("m"),
            elem_var: "u".into(),
            drop_vars: vec!["m".into()],
        };
        let out = unnest_collapse(&plan).unwrap();
        assert!(!out.has_apply());
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Inner,
                ..
            }
        )));
        let Plan::Map { var, .. } = out else {
            panic!("map root")
        };
        assert_eq!(var, "u");
    }

    #[test]
    fn cleanup_reaches_fixpoint() {
        // Stacked rules: select over nest join over join.
        let xy = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let p = xy
            .nest_join(
                Plan::scan("Z", "z"),
                E::eq(E::path("x", &["c"]), E::path("z", &["c"])),
                E::var("z"),
                "zs",
            )
            .select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64)))
            .project(&["x"]);
        let out = cleanup(p);
        // Projection kills the nest join; selection pushes to X's scan.
        assert!(!out.has_nest_join());
    }
}
