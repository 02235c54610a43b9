//! Experiment E5: the algebraic properties of the nest join (Section 6),
//! verified by execution on randomized databases.
//!
//! The paper lists (for identity join functions, predicates `r(a, b)`
//! touching only the named operands):
//!
//! 1. `π_X(X Δ Y) = X`
//! 2. `(X ⋈_{r(x,y)} Y) Δ_{r(x,z)} Z ≡ (X Δ_{r(x,z)} Z) ⋈_{r(x,y)} Y`
//! 3. `(X ⋈_{r(x,y)} Y) Δ_{r(y,z)} Z ≡ X ⋈_{r(x,y)} (Y Δ_{r(y,z)} Z)`
//!
//! and the *non*-properties: Δ is not commutative, and Δ does not
//! associate with ⋈ when typed the other way. We verify 1–3 by running
//! both sides and comparing result sets, and verify the negative claims
//! by exhibiting witnesses.

use proptest::prelude::*;
use tmql_algebra::{Plan, ScalarExpr as E};
use tmql_core::rules;
use tmql_exec::{run_values, ExecConfig};
use tmql_storage::{table::int_table, Catalog};

fn catalog(x: &[(i64, i64)], y: &[(i64, i64)], z: &[(i64, i64)]) -> Catalog {
    let mut cat = Catalog::new();
    let to_refs =
        |rows: &[(i64, i64)]| -> Vec<Vec<i64>> { rows.iter().map(|(a, b)| vec![*a, *b]).collect() };
    let xr = to_refs(x);
    let yr = to_refs(y);
    let zr = to_refs(z);
    cat.register(int_table(
        "X",
        &["a", "b"],
        &xr.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    cat.register(int_table(
        "Y",
        &["b", "c"],
        &yr.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    cat.register(int_table(
        "Z",
        &["c", "d"],
        &zr.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    cat
}

fn eval(plan: &Plan, cat: &Catalog) -> std::collections::BTreeSet<tmql_model::Value> {
    run_values(plan, cat, &ExecConfig::default()).expect("runs")
}

fn xy_join() -> Plan {
    Plan::scan("X", "x").join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Law 1: π_X(X Δ Y) = X.
    #[test]
    fn projection_absorbs_nest_join(
        x in prop::collection::vec((0i64..5, 0i64..4), 0..6),
        y in prop::collection::vec((0i64..4, 0i64..5), 0..6),
    ) {
        let cat = catalog(&x, &y, &[]);
        let lhs = Plan::scan("X", "x")
            .nest_join(
                Plan::scan("Y", "y"),
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
                E::var("y"),
                "ys",
            )
            .project(&["x"]);
        let rhs = Plan::scan("X", "x");
        prop_assert_eq!(eval(&lhs, &cat), eval(&rhs, &cat));
        // And the rule engine performs the same elimination syntactically.
        let rewritten = rules::project_nestjoin_elim(&lhs).expect("rule fires");
        prop_assert_eq!(eval(&rewritten, &cat), eval(&rhs, &cat));
    }

    /// Law 2: (X ⋈ Y) Δ Z ≡ (X Δ Z) ⋈ Y when the Δ predicate touches only X.
    #[test]
    fn interchange_law(
        x in prop::collection::vec((0i64..5, 0i64..4), 0..5),
        y in prop::collection::vec((0i64..4, 0i64..5), 0..5),
        z in prop::collection::vec((0i64..5, 0i64..4), 0..5),
    ) {
        let cat = catalog(&x, &y, &z);
        // Δ predicate r(x, z): x.a = z.c (x-only on the left side).
        let lhs = xy_join().nest_join(
            Plan::scan("Z", "z"),
            E::eq(E::path("x", &["a"]), E::path("z", &["c"])),
            E::path("z", &["d"]),
            "zs",
        );
        let rhs = rules::nestjoin_join_interchange(&lhs).expect("interchange applies");
        prop_assert_eq!(eval(&lhs, &cat), eval(&rhs, &cat));
    }

    /// Law 3: (X ⋈ Y) Δ Z ≡ X ⋈ (Y Δ Z) when the Δ predicate touches only Y.
    #[test]
    fn associativity_law(
        x in prop::collection::vec((0i64..5, 0i64..4), 0..5),
        y in prop::collection::vec((0i64..4, 0i64..5), 0..5),
        z in prop::collection::vec((0i64..5, 0i64..4), 0..5),
    ) {
        let cat = catalog(&x, &y, &z);
        let lhs = xy_join().nest_join(
            Plan::scan("Z", "z"),
            E::eq(E::path("y", &["c"]), E::path("z", &["c"])),
            E::path("z", &["d"]),
            "zs",
        );
        let rhs = rules::join_nestjoin_assoc(&lhs).expect("assoc applies");
        prop_assert_eq!(eval(&lhs, &cat), eval(&rhs, &cat));
    }

    /// Selection pushdown through Δ's left operand is sound.
    #[test]
    fn select_pushdown_sound(
        x in prop::collection::vec((0i64..5, 0i64..4), 0..6),
        y in prop::collection::vec((0i64..4, 0i64..5), 0..6),
        threshold in 0i64..5,
    ) {
        let cat = catalog(&x, &y, &[]);
        let base = Plan::scan("X", "x").nest_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["c"]),
            "ys",
        );
        let lhs = base.select(E::cmp(
            tmql_algebra::CmpOp::Ge,
            E::path("x", &["a"]),
            E::lit(threshold),
        ));
        let rhs = rules::select_pushdown(&lhs).expect("pushdown applies");
        prop_assert_eq!(eval(&lhs, &cat), eval(&rhs, &cat));
    }
}

/// The nest join is **not commutative**: `X Δ Y` and `Y Δ X` differ
/// already in type (Section 6).
#[test]
fn nest_join_not_commutative() {
    let cat = catalog(&[(1, 1)], &[(1, 7)], &[]);
    let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
    let xy = Plan::scan("X", "x").nest_join(Plan::scan("Y", "y"), pred.clone(), E::var("y"), "s");
    let yx = Plan::scan("Y", "y").nest_join(Plan::scan("X", "x"), pred, E::var("x"), "s");
    assert_ne!(eval(&xy, &cat), eval(&yx, &cat));
}

/// `X Δ (Y ⋈ Z)` is not `(X Δ Y) ⋈ Z` — "the two expressions already
/// being typed differently" (Section 6). Exhibit a witness database where
/// the results differ.
#[test]
fn nest_join_does_not_associate_with_join_naively() {
    let cat = catalog(&[(1, 1)], &[(1, 5)], &[(5, 9)]);
    let q_xy = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
    let q_yz = E::eq(E::path("y", &["c"]), E::path("z", &["c"]));
    // X Δ (Y ⋈ Z): nested sets contain (y, z) pairs.
    let lhs = Plan::scan("X", "x").nest_join(
        Plan::scan("Y", "y").join(Plan::scan("Z", "z"), q_yz.clone()),
        q_xy.clone(),
        E::var("y"),
        "s",
    );
    // (X Δ Y) ⋈ Z: the join predicate r(y, z) cannot even be stated — y is
    // hidden inside the nested set. The nearest typable analogue joins on
    // membership; its result differs.
    let rhs = Plan::scan("X", "x")
        .nest_join(Plan::scan("Y", "y"), q_xy, E::var("y"), "s")
        .join(Plan::scan("Z", "z"), E::lit(true));
    let (l, r) = (eval(&lhs, &cat), eval(&rhs, &cat));
    assert_ne!(l, r);
}
