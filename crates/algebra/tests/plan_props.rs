//! Property tests for the plan-rewriting framework: `map_children` must
//! round-trip arbitrary plans and visit children in `children()` order,
//! transforms must be the identity when the callback is, a rule that never
//! fires is asked once per node, `output_vars` / `free_vars` must be stable
//! under identity rewriting, and `ScalarExpr::substitute` must agree with
//! the per-variant definition it replaced (kept here as the reference).

use proptest::prelude::*;
use tmql_algebra::rewrite::{fixpoint, transform_up};
use tmql_algebra::{Plan, Quantifier, ScalarExpr as E, SetCmpOp};

fn ident() -> impl Strategy<Value = String> {
    "[a-c]".prop_map(|s| format!("v{s}"))
}

fn arb_scalar() -> impl Strategy<Value = E> {
    prop_oneof![
        (0i64..10).prop_map(E::lit),
        ident().prop_map(E::var),
        (ident(), "[a-c]").prop_map(|(v, f)| E::path(v, &[f.as_str()])),
        (ident(), ident()).prop_map(|(a, b)| E::eq(E::var(a), E::var(b))),
    ]
}

/// Expressions over every `ScalarExpr` variant, with quantifiers that bind
/// the same `va`…`vc` names the leaves mention, so substitution meets
/// shadowing.
fn arb_expr() -> impl Strategy<Value = E> {
    arb_scalar().prop_recursive(3, 24, 3, |inner| {
        let two = || (inner.clone(), inner.clone());
        prop_oneof![
            (inner.clone(), "[a-c]").prop_map(|(e, f)| e.field(f)),
            inner.clone().prop_map(E::not),
            inner
                .clone()
                .prop_map(|e| E::agg(tmql_algebra::AggFn::Count, e)),
            inner.clone().prop_map(|e| E::Unnest(Box::new(e))),
            inner.clone().prop_map(|e| E::IsNull(Box::new(e))),
            two().prop_map(|(a, b)| E::cmp(tmql_algebra::CmpOp::Lt, a, b)),
            two().prop_map(|(a, b)| E::Arith(tmql_algebra::ArithOp::Add, Box::new(a), Box::new(b))),
            two().prop_map(|(a, b)| E::and(a, b)),
            two().prop_map(|(a, b)| E::or(a, b)),
            two().prop_map(|(a, b)| E::SetBin(
                tmql_algebra::SetBinOp::Union,
                Box::new(a),
                Box::new(b)
            )),
            two().prop_map(|(a, b)| E::set_cmp(SetCmpOp::SubsetEq, a, b)),
            two().prop_map(|(a, b)| E::Tuple(vec![("a".into(), a), ("b".into(), b)])),
            prop::collection::vec(inner.clone(), 0..3).prop_map(E::SetLit),
            (ident(), inner.clone(), inner.clone()).prop_map(|(v, over, body)| E::quant(
                Quantifier::Exists,
                v,
                over,
                body
            )),
            (ident(), inner.clone(), inner.clone()).prop_map(|(v, over, body)| E::quant(
                Quantifier::Forall,
                v,
                over,
                body
            )),
        ]
    })
}

/// `ScalarExpr::substitute` as it was written before `map_children`: one
/// arm per variant.
fn substitute_reference(e: &E, var: &str, r: &E) -> E {
    let s = |e: &E| substitute_reference(e, var, r);
    let b = |e: &E| Box::new(substitute_reference(e, var, r));
    match e {
        E::Lit(_) => e.clone(),
        E::Var(v) => {
            if v == var {
                r.clone()
            } else {
                e.clone()
            }
        }
        E::Field(e, l) => E::Field(b(e), l.clone()),
        E::Not(e) => E::Not(b(e)),
        E::Agg(f, e) => E::Agg(*f, b(e)),
        E::Unnest(e) => E::Unnest(b(e)),
        E::IsNull(e) => E::IsNull(b(e)),
        E::Cmp(op, x, y) => E::Cmp(*op, b(x), b(y)),
        E::Arith(op, x, y) => E::Arith(*op, b(x), b(y)),
        E::And(x, y) => E::And(b(x), b(y)),
        E::Or(x, y) => E::Or(b(x), b(y)),
        E::SetBin(op, x, y) => E::SetBin(*op, b(x), b(y)),
        E::SetCmp(op, x, y) => E::SetCmp(*op, b(x), b(y)),
        E::Tuple(fs) => E::Tuple(fs.iter().map(|(l, e)| (l.clone(), s(e))).collect()),
        E::SetLit(es) => E::SetLit(es.iter().map(s).collect()),
        E::Quant {
            q,
            var: bv,
            over,
            pred,
        } => {
            let pred2 = if &**bv == var {
                (**pred).clone()
            } else {
                s(pred)
            };
            E::quant(*q, bv.clone(), s(over), pred2)
        }
    }
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![
        ("[A-C]", ident()).prop_map(|(t, v)| Plan::scan(t, v)),
        (arb_scalar(), ident()).prop_map(|(e, v)| Plan::ScanExpr { expr: e, var: v }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), arb_scalar()).prop_map(|(p, e)| p.select(e)),
            (inner.clone(), arb_scalar(), ident()).prop_map(|(p, e, v)| p.map(e, v)),
            (inner.clone(), inner.clone(), arb_scalar()).prop_map(|(l, r, e)| l.join(r, e)),
            (inner.clone(), inner.clone(), arb_scalar()).prop_map(|(l, r, e)| l.semi_join(r, e)),
            (
                inner.clone(),
                inner.clone(),
                arb_scalar(),
                arb_scalar(),
                ident()
            )
                .prop_map(|(l, r, p, g, lbl)| l.nest_join(r, p, g, lbl)),
            (inner.clone(), inner.clone(), ident()).prop_map(|(l, r, lbl)| l.apply(r, lbl)),
            (
                inner.clone(),
                prop::collection::vec(ident(), 0..2),
                arb_scalar(),
                ident()
            )
                .prop_map(|(p, keys, v, lbl)| Plan::Nest {
                    input: Box::new(p),
                    keys,
                    value: v,
                    label: lbl,
                    star: false,
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn map_children_round_trips(p in arb_plan()) {
        let mut p = p;
        let expected: Vec<Plan> = p.children().into_iter().cloned().collect();
        prop_assert_eq!(p.children_mut().len(), expected.len());
        let mut seen = Vec::new();
        let rebuilt = p.clone().map_children(&mut |c| {
            seen.push(c.clone());
            c
        });
        prop_assert_eq!(&rebuilt, &p);
        prop_assert_eq!(seen, expected, "children() order");
    }

    #[test]
    fn identity_transforms_are_identity(p in arb_plan()) {
        let up = transform_up(p.clone(), &mut |n| n);
        prop_assert_eq!(&up, &p);
    }

    #[test]
    fn a_rule_that_never_fires_is_asked_once_per_node(p in arb_plan()) {
        let mut calls = 0;
        let out = fixpoint(p.clone(), 8, &mut |_| {
            calls += 1;
            None
        });
        prop_assert_eq!(&out, &p);
        prop_assert_eq!(calls, p.size());
    }

    #[test]
    fn substitute_agrees_with_its_per_variant_definition(
        e in arb_expr(),
        var in ident(),
        r in arb_scalar(),
    ) {
        prop_assert_eq!(e.substitute(&var, &r), substitute_reference(&e, &var, &r));
    }

    #[test]
    fn size_matches_children_recursion(p in arb_plan()) {
        fn count(p: &Plan) -> usize {
            1 + p.children().iter().map(|c| count(c)).sum::<usize>()
        }
        prop_assert_eq!(p.size(), count(&p));
    }

    #[test]
    fn output_vars_nonempty_and_stable(p in arb_plan()) {
        let vars = p.output_vars();
        prop_assert!(!vars.is_empty(), "every operator binds something");
        let rebuilt = p.map_children(&mut |c| c);
        prop_assert_eq!(rebuilt.output_vars(), vars);
    }

    #[test]
    fn free_vars_shrink_under_apply(l in arb_plan(), r in arb_plan(), lbl in ident()) {
        // Wrapping r under Apply(l, r) can only *remove* free variables
        // (those now supplied by l's bindings), never add new ones beyond
        // l's own.
        let fv_l = l.free_vars();
        let fv_r = r.free_vars();
        let applied = l.apply(r, lbl);
        let fv = applied.free_vars();
        for v in &fv {
            prop_assert!(
                fv_l.contains(v) || fv_r.contains(v),
                "free var {} appeared from nowhere", v
            );
        }
    }
}
