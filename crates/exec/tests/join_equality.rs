//! **One equality across every join algorithm.**
//!
//! The paper's claim is that nest join and flattening keep the
//! nested-loop meaning, so which algorithm the planner picks must never
//! change an answer. Here every [`JoinKind`] × {nested loop, hash,
//! sort-merge, index nested loop} × memory budget {none, 7 rows} runs
//! `x.k = y.k` over keys chosen to collide — `Int`/`Float` spellings of one
//! number, ±0.0, NaN payloads, 2⁵³ ± 1, the ends of i64, 2⁶³ as a float,
//! NULL, and tuples and sets holding them — and must return exactly the
//! rows the kind's definition gives, built here pair by pair without the
//! executor. With a selection over the join — on the nest label for Δ,
//! on both sides for ⋈ and ⟕, on the left row for ⋉ and ▷ — the join
//! fused with it and a `Filter` over the unfused join must both return
//! the definition's rows the selection keeps, with the same work
//! counters. With a root `Map` over the join — a tuple constructor, which
//! the join evaluates, and a path that is no tuple, which the exit
//! evaluates — the plan (with and without the selection fused in) must
//! answer the values the map takes over the unmapped join's rows, with
//! the counters the exit's evaluation of it over those rows adds. On the same keys the scan pre-test must reject a row exactly
//! when `eval` says the comparison is false, and the two index kinds'
//! probes must select exactly the rows `eval` does.

use std::ops::Bound;

use proptest::prelude::*;
use std::collections::BTreeSet;

use tmql_algebra::{eval, eval_predicate, AggFn, CmpOp, Env, JoinKind, Plan, ScalarExpr as E};
use tmql_exec::planner::EquiSplit;
use tmql_exec::{
    execute, execute_collect, execute_values, lower, ExecConfig, ExecContext, JoinPath,
    MetricClass, Metrics, OpProfile, PhysPlan,
};
use tmql_model::{ModelError, Record, Ty, Value};
use tmql_storage::spill::encode_record;
use tmql_storage::{Catalog, OrdIndex, RowTest, Table};

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
        JoinKind::LeftOuter,
        JoinKind::Nest {
            func: E::path("y", &["id"]),
            label: "s".into(),
        },
    ]
}

/// A selection over `kind`'s output rows that keeps some and drops some:
/// it reads the nest label (and the left row) for Δ, both sides for ⋈
/// and ⟕ (a dangling ⟕ row's NULL side too), and the left row for ⋉
/// and ▷.
fn selection(kind: &JoinKind) -> E {
    let (x_id, y_id) = (E::path("x", &["id"]), E::path("y", &["id"]));
    let below = |e: E, n: i64| E::cmp(CmpOp::Lt, e, E::lit(n));
    match kind {
        JoinKind::Nest { .. } => {
            let none = E::eq(E::agg(AggFn::Count, E::var("s")), E::lit(0i64));
            E::or(none, below(x_id, 4))
        }
        JoinKind::Inner | JoinKind::LeftOuter => {
            let dangling = E::and(E::IsNull(Box::new(E::var("y"))), below(x_id.clone(), 5));
            E::or(E::cmp(CmpOp::Le, x_id, y_id), dangling)
        }
        JoinKind::Semi | JoinKind::Anti => E::or(
            below(x_id.clone(), 3),
            E::cmp(CmpOp::Gt, x_id, E::lit(6i64)),
        ),
    }
}

/// Root maps over `kind`'s output rows: a tuple constructor (evaluated
/// by the join), and a path that is no tuple (NULL on a dangling ⟕ row;
/// evaluated by the exit).
fn maps(kind: &JoinKind) -> [E; 2] {
    let x_id = E::path("x", &["id"]);
    let (other, path) = match kind {
        JoinKind::Semi | JoinKind::Anti => (E::path("x", &["k"]), E::path("x", &["k"])),
        JoinKind::Inner | JoinKind::LeftOuter => (E::var("y"), E::path("y", &["id"])),
        JoinKind::Nest { .. } => (E::var("s"), E::var("s")),
    };
    [
        E::Tuple(vec![("i".into(), x_id), ("o".into(), other)]),
        path,
    ]
}

/// `x.k = y.k` as each algorithm takes it, with `select` fused in.
fn plans(kind: &JoinKind, select: Option<&E>) -> [(&'static str, PhysPlan); 4] {
    let scan = |table: &str, var: &str| {
        Box::new(PhysPlan::ScanTable {
            table: table.into(),
            var: var.into(),
            pred: None,
        })
    };
    let (xk, yk) = (E::path("x", &["k"]), E::path("y", &["k"]));
    let pred = E::eq(xk.clone(), yk.clone());
    let keys = EquiSplit {
        left_keys: vec![xk.clone()],
        right_keys: vec![yk],
        residual: None,
    };
    let join = |path| PhysPlan::Join {
        kind: kind.clone(),
        left: scan("X", "x"),
        path,
        select: select.cloned(),
    };
    [
        (
            "nested loop",
            join(JoinPath::NestedLoop {
                right: scan("Y", "y"),
                pred: pred.clone(),
            }),
        ),
        (
            "hash",
            join(JoinPath::Hash {
                right: scan("Y", "y"),
                keys: keys.clone(),
            }),
        ),
        (
            "sort-merge",
            join(JoinPath::SortMerge {
                right: scan("Y", "y"),
                keys,
            }),
        ),
        (
            "index nested loop",
            join(JoinPath::Index {
                table: "Y".into(),
                var: "y".into(),
                attr: "k".into(),
                key: xk,
                pred,
            }),
        ),
    ]
}

/// `plan`'s rows, sorted, its counters and its operators' profile lines
/// in pre-order.
fn run(
    plan: &PhysPlan,
    cat: &Catalog,
    budget: Option<usize>,
) -> (Vec<Record>, Metrics, Vec<OpProfile>) {
    let mut config = ExecConfig::default().batch_size(3);
    config.memory_budget_rows = budget;
    let mut ctx = ExecContext::with_config(cat, &config);
    let (mut rows, profile) = execute_collect(plan, &mut ctx, &Env::new(), None).unwrap();
    assert_eq!(ctx.resident_rows(), 0, "{plan}");
    rows.sort();
    (rows, ctx.metrics, profile)
}

/// [`run`] of a plan under a root `Map`: its result set.
fn run_values(
    plan: &PhysPlan,
    cat: &Catalog,
    budget: Option<usize>,
) -> (BTreeSet<Value>, Metrics, Vec<OpProfile>) {
    let mut config = ExecConfig::default().batch_size(3);
    config.memory_budget_rows = budget;
    let mut ctx = ExecContext::with_config(cat, &config);
    let (values, profile) = execute_values(plan, &mut ctx, &Env::new(), None).unwrap();
    assert_eq!(ctx.resident_rows(), 0, "{plan}");
    (values, ctx.metrics, profile)
}

/// The work-class counters of `m`, by label.
fn work(m: &Metrics) -> Vec<(&'static str, u64)> {
    let counters = Metrics::COUNTERS.iter();
    let work = counters.filter(|c| c.class == MetricClass::Work);
    work.map(|c| (c.label, (c.get)(m))).collect()
}

/// The rows `x ⟨kind⟩ y` on `x.k = y.k` holds by definition, sorted: a
/// pair matches when `eval_predicate` says so, and each kind's rows are
/// built with `Record::new` — ⋈ every matching pair, ⋉ the left rows with
/// a match, ▷ those without, ⟕ the pairs and the NULL-extended dangling
/// rows, Δ each left row with the set of its matches' `y.id` (∅ if none).
fn by_definition(kind: &JoinKind, xs: &[Record], ys: &[Record]) -> Vec<Record> {
    let pred = E::eq(E::path("x", &["k"]), E::path("y", &["k"]));
    let root = Env::new();
    let row = |fields: Vec<(&str, Value)>| Record::new(fields).unwrap();
    let mut out = Vec::new();
    for x in xs {
        let env = root.bind_tuple("x", x);
        let partners: Vec<&Record> = ys
            .iter()
            .filter(|y| eval_predicate(&pred, &env.bind_tuple("y", y)).unwrap())
            .collect();
        let x = ("x", Value::Tuple(x.clone()));
        let pairs = partners
            .iter()
            .map(|y| row(vec![x.clone(), ("y", Value::Tuple((*y).clone()))]));
        match kind {
            JoinKind::Inner => out.extend(pairs),
            JoinKind::Semi | JoinKind::Anti => {
                if partners.is_empty() == matches!(kind, JoinKind::Anti) {
                    out.push(row(vec![x]));
                }
            }
            JoinKind::LeftOuter if partners.is_empty() => {
                out.push(row(vec![x, ("y", Value::Null)]))
            }
            JoinKind::LeftOuter => out.extend(pairs),
            JoinKind::Nest { .. } => {
                let ids = partners.iter().map(|y| y.get("id").unwrap().clone());
                out.push(row(vec![x, ("s", Value::set(ids.collect::<Vec<_>>()))]));
            }
        }
    }
    out.sort();
    out
}

/// Whether `k` is within `bound`, as `eval` sees it: `k ⟨inclusive⟩ v`
/// or `k ⟨strict⟩ v` against its key `v`, and true when there is none.
fn holds(k: &Value, bound: Bound<&Value>, inclusive: CmpOp, strict: CmpOp) -> bool {
    match bound {
        Bound::Included(v) => inclusive.test(k, v),
        Bound::Excluded(v) => strict.test(k, v),
        Bound::Unbounded => true,
    }
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
    fn every_join_algorithm_answers_by_the_kinds_definition(
        xs in prop::collection::vec(arb_key(), 0..10),
        ys in prop::collection::vec(arb_key(), 0..10),
    ) {
        let mut cat = Catalog::new();
        cat.register(table("X", &xs)).unwrap();
        cat.register(table("Y", &ys)).unwrap();
        cat.create_index("Y", "k").unwrap();
        for kind in kinds() {
            let want = by_definition(&kind, &rows(&xs), &rows(&ys));
            let p = selection(&kind);
            let mut kept = want.clone();
            kept.retain(|row| eval_predicate(&p, &Env::new().bind_row(row)).unwrap());
            let fused = plans(&kind, Some(&p));
            for budget in [None, Some(7)] {
                for ((algo, plan), (_, fused)) in plans(&kind, None).into_iter().zip(&fused) {
                    let on = || format!("{} {algo} budget {budget:?} on {xs:?} ⋈ {ys:?}", kind.name());
                    let (got, ..) = run(&plan, &cat, budget);
                    prop_assert_eq!(&got, &want, "{}", on());
                    // A root `Map` over the join, with and without σ: the
                    // values and counters of the exit's evaluation of it
                    // over the join's rows.
                    for (join, map) in [&plan, fused].into_iter().flat_map(|j| maps(&kind).map(|m| (j, m))) {
                        let on = || format!("{} ↦ {map} over {join}", on());
                        let (rows, mut m_join, p_join) = run(join, &cat, budget);
                        let value = |row: &Record| eval(&map, &Env::new().bind_row(row)).unwrap();
                        let want: BTreeSet<Value> = rows.iter().map(value).collect();
                        let mapped = PhysPlan::Map {
                            input: Box::new(join.clone()),
                            expr: map.clone(),
                            var: "v".into(),
                        };
                        let (values, m_map, p_map) = run_values(&mapped, &cat, budget);
                        prop_assert_eq!(&values, &want, "{}", on());
                        m_join.rows_emitted += want.len() as u64;
                        m_join.batches_emitted += want.len().div_ceil(3) as u64;
                        prop_assert_eq!(work(&m_map), work(&m_join), "{}", on());
                        prop_assert_eq!(m_map.peak_resident_rows, m_join.peak_resident_rows, "{}", on());
                        prop_assert_eq!(p_map[0].rows_out, want.len() as u64, "{}", on());
                        prop_assert_eq!(p_map[1].rows_out, p_join[0].rows_out, "{}", on());
                        prop_assert_eq!(p_map[1].rows_skipped, p_join[0].rows_skipped, "{}", on());
                    }
                    // σ over the join: fused into it, and as a Filter.
                    let filter = PhysPlan::Filter { input: Box::new(plan), pred: p.clone() };
                    let (by_filter, m_filter, p_filter) = run(&filter, &cat, budget);
                    let (by_fused, m_fused, p_fused) = run(fused, &cat, budget);
                    prop_assert_eq!(&by_filter, &kept, "σ {}: Filter", on());
                    prop_assert_eq!(&by_fused, &kept, "σ {}: fused", on());
                    prop_assert_eq!(work(&m_fused), work(&m_filter), "σ {}", on());
                    prop_assert!(m_fused.peak_resident_rows <= m_filter.peak_resident_rows, "σ {}", on());
                    // What the Filter dropped, the fused join skipped.
                    let dropped = p_filter[1].rows_out - p_filter[0].rows_out;
                    prop_assert_eq!(p_fused[0].rows_skipped, dropped, "σ {}", on());
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
        let ord = OrdIndex::build(&t, "k").unwrap();
        for probe in &probes {
            // Index probes: exact equality, and ranges exact on every
            // non-NULL key (the caller's re-check drops NULL ones).
            let eq = selected(&keys, CmpOp::Eq, probe);
            prop_assert_eq!(&ord.probe_eq(probe), &eq, "= {:?} over {:?}", probe, keys);
            // Each bound inclusive (`≥`, `≤`), strict (`>`, `<`) or absent.
            let each = |v| [Bound::Included(v), Bound::Excluded(v)];
            for lo in probes.iter().flat_map(each).chain([Bound::Unbounded]) {
                for hi in each(probe).into_iter().chain([Bound::Unbounded]) {
                    let mut range = ord.probe_range(lo, hi);
                    range.retain(|&i| !keys[i].is_null());
                    let within = |i: &usize| {
                        let k = &keys[*i];
                        !k.is_null() && holds(k, lo, CmpOp::Ge, CmpOp::Gt)
                            && holds(k, hi, CmpOp::Le, CmpOp::Lt)
                    };
                    let want: Vec<usize> = (0..keys.len()).filter(within).collect();
                    prop_assert_eq!(range, want, "{:?} .. {:?} over {:?}", lo, hi, keys);
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

/// A strict range over an int index probes strictly: the probe fetches
/// exactly the rows the selection keeps, in either orientation of the
/// comparison, so none is fetched, decoded and re-checked only to go.
#[test]
fn a_strict_range_fetches_only_the_rows_it_keeps() {
    let mut t = Table::new("X", vec![("id".into(), Ty::Int), ("k".into(), Ty::Int)]);
    for i in 0..1024 {
        let row = Record::new([("id", Value::Int(i)), ("k", Value::Int(i % 256))]);
        t.insert(row.unwrap()).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(t).unwrap();
    cat.create_index("X", "k").unwrap();
    let k = || E::path("x", &["k"]);
    let lit = |i: i64| E::lit(i);
    for (pred, kept) in [
        (E::cmp(CmpOp::Lt, k(), lit(2)), 8),
        (E::cmp(CmpOp::Gt, k(), lit(253)), 8),
        (E::cmp(CmpOp::Gt, lit(2), k()), 8),
        (
            E::and(
                E::cmp(CmpOp::Gt, k(), lit(100)),
                E::cmp(CmpOp::Lt, k(), lit(102)),
            ),
            4,
        ),
    ] {
        let plan = Plan::scan("X", "x").select(pred.clone());
        let config = ExecConfig::default();
        let phys = lower(&plan, &cat, &config).unwrap();
        assert!(matches!(phys, PhysPlan::IndexScan { .. }), "{pred}: {phys}");
        let mut ctx = ExecContext::with_config(&cat, &config);
        let rows = execute(&phys, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), kept, "{pred}");
        assert_eq!(ctx.metrics.index_hits, kept as u64, "{pred}");
    }
}

/// A plan that expects an index the catalog no longer has fails with a
/// typed error when it runs — the index join looks its index up per left
/// batch, the index scan at its probe — and leaves nothing resident.
#[test]
fn a_dropped_index_is_a_typed_error() {
    let ints = |n: i64| (0..n).map(Value::Int).collect::<Vec<_>>();
    let mut cat = Catalog::new();
    cat.register(table("X", &ints(4))).unwrap();
    cat.register(table("Y", &ints(1000))).unwrap();
    cat.create_index("Y", "k").unwrap();
    let (xk, yk) = (E::path("x", &["k"]), E::path("y", &["k"]));
    let join = Plan::scan("X", "x").semi_join(Plan::scan("Y", "y"), E::eq(xk, yk.clone()));
    let probe = Plan::scan("Y", "y").select(E::eq(yk, E::lit(3i64)));
    let config = ExecConfig::default();
    let phys = [join, probe].map(|plan| lower(&plan, &cat, &config).unwrap());
    assert!(
        matches!(
            phys[0],
            PhysPlan::Join {
                path: JoinPath::Index { .. },
                ..
            }
        ),
        "{}",
        phys[0]
    );
    assert!(matches!(phys[1], PhysPlan::IndexScan { .. }), "{}", phys[1]);
    assert!(cat.drop_index("Y", "k").unwrap());
    for plan in &phys {
        let mut ctx = ExecContext::with_config(&cat, &config);
        let err = execute(plan, &mut ctx, &Env::new()).unwrap_err();
        let want = "plan expects an index on Y.k but none exists";
        assert_eq!(err, ModelError::SchemaError(want.into()), "{plan}");
        assert_eq!(ctx.resident_rows(), 0, "{plan}");
    }
}
