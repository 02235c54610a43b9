//! **One equality across every join algorithm.**
//!
//! The paper's claim is that nest join and flattening keep the
//! nested-loop meaning, so which algorithm the planner picks must never
//! change an answer. Here every [`JoinKind`] × {nested loop, hash,
//! sort-merge, index nested loop} × memory budget {none, 7 rows} runs
//! `x.k = y.k` over keys chosen to collide — `Int`/`Float` spellings of one
//! number, ±0.0, NaN payloads, 2⁵³ ± 1, the ends of i64, 2⁶³ as a float,
//! NULL, and tuples and sets holding them — and must return exactly the
//! unbudgeted nested-loop join's rows. On the same keys the scan pre-test
//! must reject a row exactly when `eval` says the comparison is false, and
//! the two index kinds' probes must select exactly the rows `eval` does.

use proptest::prelude::*;
use tmql_algebra::{eval_predicate, CmpOp, Env, ScalarExpr as E};
use tmql_exec::{execute, ExecConfig, ExecContext, JoinKind, PhysPlan};
use tmql_model::{Record, Ty, Value};
use tmql_storage::spill::encode_record;
use tmql_storage::{Catalog, HashIndex, OrdIndex, RowTest, Table};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Scalars that meet their other spellings often.
fn arb_scalar() -> BoxedStrategy<Value> {
    let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
    let two_53 = 1i64 << 53;
    prop_oneof![
        Just(Value::Null),
        (-1i64..3).prop_map(Value::Int),
        (-1i64..3).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.5)),
        Just(nan(0)),
        Just(nan(0x8000_0000_0000_0001)),
        (-1i64..2).prop_map(move |d| Value::Int(two_53 + d)),
        Just(Value::Float(two_53 as f64)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Float(i64::MIN as f64)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Float(9_223_372_036_854_775_808.0)),
    ]
    .boxed()
}

fn arb_key() -> BoxedStrategy<Value> {
    prop_oneof![
        arb_scalar(),
        arb_scalar(),
        arb_scalar(),
        prop::collection::vec(arb_scalar(), 0..3).prop_map(Value::set),
        (arb_scalar(), arb_scalar()).prop_map(|(p, q)| Value::tuple([("p", p), ("q", q)])),
    ]
    .boxed()
}

/// Rows `(id = i, k = key)`: the id keeps rows with equal keys apart (a
/// table is a set).
fn rows(keys: &[Value]) -> Vec<Record> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| Record::new([("id", Value::Int(i as i64)), ("k", k.clone())]).unwrap())
        .collect()
}

fn table(name: &str, keys: &[Value]) -> Table {
    let columns = vec![("id".into(), Ty::Int), ("k".into(), Ty::Any)];
    Table::from_rows(name, columns, rows(keys)).unwrap()
}

fn kinds() -> [JoinKind; 5] {
    [
        JoinKind::Inner,
        JoinKind::Semi,
        JoinKind::Anti,
        JoinKind::LeftOuter {
            right_vars: vec!["y".into()],
        },
        JoinKind::Nest {
            func: E::path("y", &["id"]),
            label: "s".into(),
        },
    ]
}

/// `x.k = y.k` as each algorithm takes it.
fn plans(kind: &JoinKind) -> [(&'static str, PhysPlan); 4] {
    let scan = |table: &str, var: &str| {
        Box::new(PhysPlan::ScanTable {
            table: table.into(),
            var: var.into(),
            pred: None,
        })
    };
    let (xk, yk) = (E::path("x", &["k"]), E::path("y", &["k"]));
    let pred = E::eq(xk.clone(), yk.clone());
    [
        (
            "nested loop",
            PhysPlan::NlJoin {
                left: scan("X", "x"),
                right: scan("Y", "y"),
                pred: pred.clone(),
                kind: kind.clone(),
            },
        ),
        (
            "hash",
            PhysPlan::HashJoin {
                left: scan("X", "x"),
                right: scan("Y", "y"),
                left_keys: vec![xk.clone()],
                right_keys: vec![yk.clone()],
                residual: None,
                kind: kind.clone(),
            },
        ),
        (
            "sort-merge",
            PhysPlan::MergeJoin {
                left: scan("X", "x"),
                right: scan("Y", "y"),
                left_keys: vec![xk.clone()],
                right_keys: vec![yk],
                residual: None,
                kind: kind.clone(),
            },
        ),
        (
            "index nested loop",
            PhysPlan::IndexNLJoin {
                left: scan("X", "x"),
                right_table: "Y".into(),
                right_var: "y".into(),
                attr: "k".into(),
                key: xk,
                pred,
                kind: kind.clone(),
            },
        ),
    ]
}

fn run(plan: &PhysPlan, cat: &Catalog, budget: Option<usize>) -> Vec<Record> {
    let mut config = ExecConfig::default().batch_size(3);
    config.memory_budget_rows = budget;
    let mut ctx = ExecContext::with_config(cat, &config);
    let mut rows = execute(plan, &mut ctx, &Env::new()).unwrap();
    assert_eq!(ctx.resident_rows(), 0, "{plan}");
    rows.sort();
    rows
}

/// Positions of `keys` that `k ⟨op⟩ probe` holds for, as `eval` sees it.
fn selected(keys: &[Value], op: CmpOp, probe: &Value) -> Vec<usize> {
    (0..keys.len())
        .filter(|&i| op.test(&keys[i], probe))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_join_algorithm_answers_like_the_nested_loop(
        xs in prop::collection::vec(arb_key(), 0..10),
        ys in prop::collection::vec(arb_key(), 0..10),
    ) {
        let mut cat = Catalog::new();
        cat.register(table("X", &xs)).unwrap();
        cat.register(table("Y", &ys)).unwrap();
        cat.create_index("Y", "k").unwrap();
        for kind in kinds() {
            let [(_, reference), ..] = plans(&kind);
            let want = run(&reference, &cat, None);
            for budget in [None, Some(7)] {
                for (algo, plan) in plans(&kind) {
                    let got = run(&plan, &cat, budget);
                    prop_assert_eq!(
                        &got, &want,
                        "{} {} budget {:?} on {:?} ⋈ {:?}", kind.name(), algo, budget, xs, ys
                    );
                }
            }
        }
    }

    #[test]
    fn pretest_and_index_probes_select_what_eval_selects(
        keys in prop::collection::vec(arb_key(), 1..10),
        probes in prop::collection::vec(arb_key(), 1..4),
    ) {
        let t = table("Y", &keys);
        let (ord, hash) = (OrdIndex::build(&t, "k").unwrap(), HashIndex::build(&t, "k").unwrap());
        for probe in &probes {
            // Index probes: exact equality, and ranges exact on every
            // non-NULL key (the caller's re-check drops NULL ones).
            let eq = selected(&keys, CmpOp::Eq, probe);
            prop_assert_eq!(&ord.probe_eq(probe), &eq, "= {:?} over {:?}", probe, keys);
            prop_assert_eq!(&hash.probe_eq(probe), &eq, "= {:?} over {:?}", probe, keys);
            for lo in probes.iter().map(Some).chain([None]) {
                for hi in [Some(probe), None] {
                    let mut range = ord.probe_range(lo, hi);
                    range.retain(|&i| !keys[i].is_null());
                    let within = |i: &usize| {
                        let k = &keys[*i];
                        !k.is_null()
                            && lo.is_none_or(|lo| CmpOp::Ge.test(k, lo))
                            && hi.is_none_or(|hi| CmpOp::Le.test(k, hi))
                    };
                    let want: Vec<usize> = (0..keys.len()).filter(within).collect();
                    prop_assert_eq!(range, want, "[{:?}, {:?}] over {:?}", lo, hi, keys);
                }
            }
            // The scan pre-test, on the row and on its bytes.
            for (row, key) in rows(&keys).iter().zip(&keys) {
                let bytes = encode_record(row);
                for op in OPS {
                    let test = RowTest::new(vec![("k".into(), op, probe.clone())]);
                    let pred = E::cmp(op, E::path("x", &["k"]), E::Lit(probe.clone()));
                    let truth = eval_predicate(&pred, &Env::new().bind_tuple("x", row)).unwrap();
                    prop_assert_eq!(truth, op.test(key, probe));
                    prop_assert_eq!(test.rejects_row(row), !truth, "{:?} {} {:?}", key, op, probe);
                    prop_assert!(!test.rejects_bytes(&bytes) || !truth, "{:?} {} {:?}", key, op, probe);
                }
            }
        }
    }
}
