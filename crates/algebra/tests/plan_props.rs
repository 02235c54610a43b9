//! Property tests for the plan-rewriting framework: `map_children` must
//! round-trip arbitrary plans and visit children in `children()` order,
//! transforms must be the identity when the callback is, a rule that never
//! fires is asked once per node, `output_vars` / `free_vars` must be stable
//! under identity rewriting, and `ScalarExpr::substitute` and the
//! `free_vars` of expressions and plans must agree with the per-variant
//! definitions they replaced (kept here as the references).

use std::collections::BTreeSet;

use proptest::prelude::*;
use tmql_algebra::rewrite::{fixpoint, transform_up};
use tmql_algebra::{JoinKind, Plan, Quantifier, ScalarExpr as E, SetCmpOp, SetOpKind};

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

/// `ScalarExpr::free_vars` as it was written before `free_refs`: one arm
/// per variant, with the quantifier-bound names in `bound`.
fn free_vars_reference(e: &E, bound: &mut BTreeSet<String>, out: &mut BTreeSet<String>) {
    match e {
        E::Lit(_) => {}
        E::Var(v) => {
            if !bound.contains(v) {
                out.insert(v.clone());
            }
        }
        E::Field(e, _) | E::Not(e) | E::Agg(_, e) | E::Unnest(e) | E::IsNull(e) => {
            free_vars_reference(e, bound, out)
        }
        E::Cmp(_, a, b)
        | E::Arith(_, a, b)
        | E::And(a, b)
        | E::Or(a, b)
        | E::SetBin(_, a, b)
        | E::SetCmp(_, a, b) => {
            free_vars_reference(a, bound, out);
            free_vars_reference(b, bound, out);
        }
        E::Tuple(fs) => fs
            .iter()
            .for_each(|(_, e)| free_vars_reference(e, bound, out)),
        E::SetLit(es) => es.iter().for_each(|e| free_vars_reference(e, bound, out)),
        E::Quant {
            var, over, pred, ..
        } => {
            free_vars_reference(over, bound, out);
            let fresh = bound.insert(var.to_string());
            free_vars_reference(pred, bound, out);
            if fresh {
                bound.remove(&**var);
            }
        }
    }
}

/// `Plan::free_vars` as it was written before `for_each_expr`: every
/// name an expression or a `Project` / `Nest` key list references, less
/// every name the tree binds.
fn plan_free_vars_reference(p: &Plan) -> BTreeSet<String> {
    fn walk(p: &Plan, referenced: &mut BTreeSet<String>, bound: &mut BTreeSet<String>) {
        let mut add = |e: &E| free_vars_reference(e, &mut BTreeSet::new(), referenced);
        match p {
            Plan::ScanTable { var, .. } => {
                bound.insert(var.clone());
            }
            Plan::ScanExpr { expr, var }
            | Plan::Map { expr, var, .. }
            | Plan::Extend { expr, var, .. } => {
                add(expr);
                bound.insert(var.clone());
            }
            Plan::Select { pred, .. }
            | Plan::Join {
                kind: JoinKind::Inner | JoinKind::Semi | JoinKind::Anti | JoinKind::LeftOuter,
                pred,
                ..
            } => add(pred),
            Plan::Project { vars, .. } => referenced.extend(vars.iter().cloned()),
            Plan::Join {
                kind: JoinKind::Nest { func, label },
                pred,
                ..
            } => {
                add(pred);
                add(func);
                bound.insert(label.clone());
            }
            Plan::Nest {
                keys, value, label, ..
            } => {
                add(value);
                referenced.extend(keys.iter().cloned());
                bound.insert(label.clone());
            }
            Plan::Unnest { expr, elem_var, .. } => {
                add(expr);
                bound.insert(elem_var.clone());
            }
            Plan::GroupAgg {
                keys, aggs, var, ..
            } => {
                keys.iter().for_each(|(_, e)| add(e));
                aggs.iter().for_each(|(_, _, e)| add(e));
                bound.insert(var.clone());
            }
            Plan::Apply { label: var, .. } | Plan::SetOp { var, .. } => {
                bound.insert(var.clone());
            }
        }
        for c in p.children() {
            walk(c, referenced, bound);
        }
    }
    let (mut referenced, mut bound) = (BTreeSet::new(), BTreeSet::new());
    walk(p, &mut referenced, &mut bound);
    referenced.difference(&bound).cloned().collect()
}

/// Plans over every `Plan` variant; selections, maps and nest-join
/// functions carry quantified expressions.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![
        ("[A-C]", ident()).prop_map(|(t, v)| Plan::scan(t, v)),
        (arb_scalar(), ident()).prop_map(|(e, v)| Plan::ScanExpr { expr: e, var: v }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), arb_expr()).prop_map(|(p, e)| p.select(e)),
            (inner.clone(), arb_expr(), ident()).prop_map(|(p, e, v)| p.map(e, v)),
            (inner.clone(), arb_scalar(), ident()).prop_map(|(p, e, v)| p.extend(e, v)),
            (inner.clone(), prop::collection::vec(ident(), 1..3)).prop_map(|(p, vars)| {
                Plan::Project {
                    input: Box::new(p),
                    vars,
                }
            }),
            (inner.clone(), inner.clone(), arb_scalar()).prop_map(|(l, r, e)| l.join(r, e)),
            (inner.clone(), inner.clone(), arb_scalar()).prop_map(|(l, r, e)| l.semi_join(r, e)),
            (inner.clone(), inner.clone(), arb_scalar()).prop_map(|(l, r, e)| l.anti_join(r, e)),
            (inner.clone(), inner.clone(), arb_scalar())
                .prop_map(|(l, r, e)| l.left_outer_join(r, e)),
            (
                inner.clone(),
                inner.clone(),
                arb_scalar(),
                arb_expr(),
                ident()
            )
                .prop_map(|(l, r, p, g, lbl)| l.nest_join(r, p, g, lbl)),
            (
                inner.clone(),
                arb_scalar(),
                ident(),
                prop::collection::vec(ident(), 0..2)
            )
                .prop_map(|(p, e, v, drop_vars)| Plan::Unnest {
                    input: Box::new(p),
                    expr: e,
                    elem_var: v,
                    drop_vars,
                }),
            (inner.clone(), arb_scalar(), arb_scalar(), ident()).prop_map(|(p, k, a, v)| {
                Plan::GroupAgg {
                    input: Box::new(p),
                    keys: vec![("k".into(), k)],
                    aggs: vec![("n".into(), tmql_algebra::AggFn::Count, a)],
                    var: v,
                }
            }),
            (inner.clone(), inner.clone(), ident()).prop_map(|(l, r, v)| Plan::SetOp {
                kind: SetOpKind::Union,
                left: Box::new(l),
                right: Box::new(r),
                var: v,
            }),
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
    fn free_vars_agrees_with_its_per_variant_definition(e in arb_expr(), p in arb_plan()) {
        let mut expected = BTreeSet::new();
        free_vars_reference(&e, &mut BTreeSet::new(), &mut expected);
        prop_assert_eq!(e.free_vars(), expected.clone());
        // Each free reference is its variable, or one field off it.
        let mut reported = BTreeSet::new();
        e.free_refs(|v, r| {
            let base = match r {
                E::Field(inner, _) => &**inner,
                other => other,
            };
            assert_eq!(base, &E::var(v), "{r} reported for {v}");
            reported.insert(v.to_string());
        });
        prop_assert_eq!(reported, expected);
        prop_assert_eq!(p.free_vars(), plan_free_vars_reference(&p));
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
