//! Streaming-executor invariants: for random small plans, execution is
//! insensitive to the batch size — identical row multisets and identical
//! `rows_scanned` for batch sizes {1, 2, 7, 1024} — and peak resident
//! rows stay below the total intermediate row count (streaming streams).

use proptest::prelude::*;
use tmql_algebra::{AggFn, CmpOp, Plan, ScalarExpr as E};
use tmql_exec::{run, ExecConfig, JoinAlgo};
use tmql_model::Record;
use tmql_storage::{table::int_table, Catalog};

const BATCH_SIZES: [usize; 4] = [1, 2, 7, 1024];

fn catalog(x: &[(i64, i64)], y: &[(i64, i64)]) -> Catalog {
    let mut cat = Catalog::new();
    let xr: Vec<Vec<i64>> = x.iter().map(|(a, b)| vec![*a, *b]).collect();
    let yr: Vec<Vec<i64>> = y.iter().map(|(b, c)| vec![*b, *c]).collect();
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
    cat
}

/// A corpus of plan shapes covering every streaming operator and every
/// pipeline breaker: filters/maps, all five join kinds, grouping, ν+μ
/// round-trips, set ops, and the correlated Apply.
fn plan_corpus(lim: i64) -> Vec<(&'static str, Plan)> {
    let equi = || E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
    let sub = || {
        Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["c"]), "s")
    };
    vec![
        (
            "filter-map",
            Plan::scan("X", "x")
                .select(E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(lim)))
                .map(E::path("x", &["a"]), "v"),
        ),
        (
            "join",
            Plan::scan("X", "x").join(Plan::scan("Y", "y"), equi()),
        ),
        (
            "semi",
            Plan::scan("X", "x").semi_join(Plan::scan("Y", "y"), equi()),
        ),
        (
            "anti",
            Plan::scan("X", "x").anti_join(Plan::scan("Y", "y"), equi()),
        ),
        (
            "outer",
            Plan::scan("X", "x").left_outer_join(Plan::scan("Y", "y"), equi()),
        ),
        (
            "nestjoin",
            Plan::scan("X", "x").nest_join(
                Plan::scan("Y", "y"),
                equi(),
                E::path("y", &["c"]),
                "cs",
            ),
        ),
        (
            "nest-unnest",
            Plan::Unnest {
                input: Box::new(Plan::Nest {
                    input: Box::new(Plan::scan("X", "x")),
                    keys: vec![],
                    value: E::var("x"),
                    label: "xs".into(),
                    star: false,
                }),
                expr: E::var("xs"),
                elem_var: "x".into(),
                drop_vars: vec!["xs".into()],
            },
        ),
        (
            "group-agg",
            Plan::GroupAgg {
                input: Box::new(Plan::scan("Y", "y")),
                keys: vec![("b".into(), E::path("y", &["b"]))],
                aggs: vec![("n".into(), AggFn::Count, E::var("y"))],
                var: "g".into(),
            },
        ),
        (
            "setop",
            Plan::SetOp {
                kind: tmql_algebra::SetOpKind::Except,
                left: Box::new(Plan::scan("X", "x").map(E::path("x", &["b"]), "v")),
                right: Box::new(Plan::scan("Y", "y").map(E::path("y", &["b"]), "v")),
                var: "v".into(),
            },
        ),
        (
            "apply",
            Plan::scan("X", "x")
                .apply(sub(), "z")
                .map(E::var("z"), "out"),
        ),
    ]
}

fn multiset(rows: Vec<Record>) -> Vec<Record> {
    let mut rows = rows;
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_size_invariance(
        x in prop::collection::vec((0i64..8, 0i64..5), 0..12),
        y in prop::collection::vec((0i64..5, 0i64..8), 0..12),
        lim in 0i64..8,
        algo_i in 0usize..4,
    ) {
        let algo = [JoinAlgo::Auto, JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge][algo_i];
        let cat = catalog(&x, &y);
        for (name, plan) in plan_corpus(lim) {
            let config = ExecConfig::with_join_algo(algo).batch_size(BATCH_SIZES[0]);
            let (rows0, m0) = run(&plan, &cat, &config).unwrap();
            let base = multiset(rows0);
            for &bs in &BATCH_SIZES[1..] {
                let config = ExecConfig::with_join_algo(algo).batch_size(bs);
                let (rows, m) = run(&plan, &cat, &config).unwrap();
                prop_assert_eq!(multiset(rows), base.clone(), "{}: batch {} changed rows", name, bs);
                prop_assert_eq!(m.rows_scanned, m0.rows_scanned,
                    "{}: batch {} changed rows_scanned", name, bs);
            }
        }
    }

    /// Resident-row accounting is balanced: whatever operators acquire
    /// they release, for every plan shape and batch size.
    #[test]
    fn resident_rows_return_to_zero(
        x in prop::collection::vec((0i64..8, 0i64..5), 0..10),
        y in prop::collection::vec((0i64..5, 0i64..8), 0..10),
        bs_i in 0usize..3,
    ) {
        let bs = [1usize, 3, 1024][bs_i];
        let cat = catalog(&x, &y);
        let mut max_peak = 0;
        for (name, plan) in plan_corpus(4) {
            let config = ExecConfig::default().batch_size(bs);
            let phys = tmql_exec::lower(&plan, &cat, &config).unwrap();
            let mut ctx = tmql_exec::ExecContext::with_config(&cat, &config);
            let _ = tmql_exec::execute(&phys, &mut ctx, &tmql_algebra::Env::new()).unwrap();
            prop_assert_eq!(ctx.resident_rows(), 0, "{}: leaked resident rows", name);
            max_peak = max_peak.max(ctx.metrics.peak_resident_rows);
        }
        if !x.is_empty() && !y.is_empty() {
            // At least one corpus shape (the equi-join build side) holds
            // materialized state, so the gauge must have moved.
            prop_assert!(max_peak >= 1, "peak gauge never moved");
        }
    }
}
