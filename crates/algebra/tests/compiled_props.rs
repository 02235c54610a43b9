//! One compiled expression reused over many rows must answer, on every
//! row, what a freshly compiled copy — and the name search every variable
//! took before expressions were compiled — answers: the same value, or
//! the same error (`NoSuchField` with its `available` list, `unbound
//! variable`). The rows are the ones that make a learned field position
//! stale: labels permuted from row to row, in a shared allocation or in
//! one of their own, missing from some rows, values and whole tuples NULL,
//! and bindings records that lack a variable the plan said they bind.
//! Quantifier variables shadow the scan variable.

use std::sync::Arc;

use proptest::prelude::*;
use tmql_algebra::{eval, AggFn, ArithOp, CmpOp, Compiled, Env, Quantifier, ScalarExpr as E};
use tmql_model::{Record, Value};

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// One generated field: which label, whether its label is the shared
/// allocation, and its value (`None`: NULL).
type FieldGen = (usize, bool, Option<i64>);

/// One generated row: its fields in order (later repeats of a label are
/// dropped), whether the whole tuple is NULL, whether the record of
/// bindings carries `s`, and `s`'s elements.
type RowGen = (Vec<FieldGen>, bool, bool, Vec<i64>);

fn row_gen() -> impl Strategy<Value = RowGen> {
    let field = (0usize..4, any::<bool>(), prop::option::of(0i64..4));
    (
        prop::collection::vec(field, 0..5),
        (0u8..8).prop_map(|n| n == 0),
        (0u8..4).prop_map(|n| n != 0),
        prop::collection::vec(0i64..4, 0..4),
    )
}

fn exprs() -> Vec<E> {
    let (xa, xb, xc) = (
        E::path("x", &["a"]),
        E::path("x", &["b"]),
        E::path("x", &["c"]),
    );
    let exists = |v: &str, over: E, body: E| E::quant(Quantifier::Exists, v, over, body);
    vec![
        xa.clone(),
        xb.clone(),
        xc.clone(),
        E::var("x"),
        E::var("s"),
        E::var("k"),
        E::var("nope"),
        E::path("x", &["a", "deeper"]),
        E::eq(xa.clone(), xb.clone()),
        E::Arith(ArithOp::Add, Box::new(xa.clone()), Box::new(E::var("k"))),
        E::Tuple(vec![("a".into(), xa.clone()), ("c".into(), xc.clone())]),
        E::IsNull(Box::new(xc.clone())),
        E::agg(AggFn::Count, E::var("s")),
        // The element `x` hides the scan's `x` inside the body only.
        exists("x", E::var("s"), E::eq(E::var("x"), E::lit(2i64))),
        exists("x", E::var("s"), E::eq(E::var("x"), xb.clone())),
        exists("y", E::var("s"), E::eq(E::var("y"), xa.clone())),
        exists(
            "x",
            E::var("s"),
            exists(
                "y",
                E::var("s"),
                E::cmp(CmpOp::Lt, E::var("x"), E::var("y")),
            ),
        ),
        E::and(
            E::IsNull(Box::new(xa)),
            exists("x", E::var("s"), E::lit(true)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_reused_compiled_expression_answers_what_a_fresh_one_does(
        rows in prop::collection::vec(row_gen(), 1..12),
        bare in any::<bool>(),
    ) {
        let shared: Vec<Arc<str>> = LABELS.iter().map(|l| Arc::from(*l)).collect();
        let (x, s): (Arc<str>, Arc<str>) = ("x".into(), "s".into());
        let frame: Vec<String> = match bare {
            true => vec!["x".into()],
            false => vec!["x".into(), "s".into()],
        };
        let exprs = exprs();
        let reused: Vec<Compiled> = exprs.iter().map(|e| Compiled::new(e, &[&frame])).collect();
        // The correlation environment: `k`, and an `s` that a row
        // without one falls back to.
        let mut root = Env::new();
        root.push("k", Value::Int(7));
        root.push("s", Value::set([Value::Int(1), Value::Int(3)]));
        for (fields, null, has_s, elems) in &rows {
            let mut seen = [false; 4];
            let fields: Vec<(Arc<str>, Value)> = fields
                .iter()
                .filter(|(l, _, _)| !std::mem::replace(&mut seen[*l], true))
                .map(|&(l, share, v)| {
                    let label = if share { shared[l].clone() } else { Arc::from(LABELS[l]) };
                    (label, v.map_or(Value::Null, Value::Int))
                })
                .collect();
            let tuple = Record::new(fields).unwrap();
            let set = Value::set(elems.iter().map(|&i| Value::Int(i)));
            let x_value = if *null { Value::Null } else { Value::Tuple(tuple.clone()) };
            let mut bindings = vec![(x.clone(), x_value)];
            if *has_s {
                bindings.insert(elems.len() % 2, (s.clone(), set));
            }
            let bindings = Record::new(bindings).unwrap();
            let env = match bare {
                true => root.bind_tuple("x", &tuple),
                false => root.bind_row(&bindings),
            };
            for (e, c) in exprs.iter().zip(&reused) {
                let fresh = Compiled::new(e, &[&frame]).eval(&env);
                prop_assert_eq!(c.eval(&env), fresh.clone(), "{} on {:?}", e, bindings);
                prop_assert_eq!(eval(e, &env), fresh, "searched: {} on {:?}", e, bindings);
            }
        }
    }
}
