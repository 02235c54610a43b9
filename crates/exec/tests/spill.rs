//! Spill-tier invariants: with `memory_budget_rows` set, every pipeline
//! breaker produces results identical to the unbounded run, the resident
//! gauge respects the budget (up to batch-granular slack), and skew that
//! defeats partitioning degrades gracefully instead of failing.

use proptest::prelude::*;
use tmql_algebra::{AggFn, ArithOp, CmpOp, Env, Plan, ScalarExpr as E, SetOpKind};
use tmql_exec::op::spill::KeyFilter;
use tmql_exec::{run, ExecConfig, ExecContext, JoinAlgo};
use tmql_model::{Record, Ty, Value};
use tmql_storage::{table::int_table, Catalog, Table};

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

/// Sized catalog: X rows (i, i % modb), Y rows (i % modb, i) — every X row
/// has join partners on b, group keys collapse `modb`-ways.
fn sized_catalog(n: i64, modb: i64) -> Catalog {
    let x: Vec<(i64, i64)> = (0..n).map(|i| (i, i % modb)).collect();
    let y: Vec<(i64, i64)> = (0..n).map(|i| (i % modb, i)).collect();
    catalog(&x, &y)
}

/// Every breaker shape: hash/merge joins of all kinds, ν, GROUP BY, set
/// ops, and Map dedup.
fn breaker_corpus() -> Vec<(&'static str, Plan)> {
    let equi = || E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
    // A Map's dedup state spills only below the root: at the root it is
    // the result set itself. A selection every row passes keeps it there.
    let below_root = |map: Plan| map.select(E::cmp(CmpOp::Ge, E::var("v"), E::lit(0i64)));
    vec![
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
            "nest",
            Plan::Nest {
                input: Box::new(Plan::scan("X", "x")),
                keys: vec!["x".into()],
                value: E::path("x", &["b"]),
                label: "bs".into(),
                star: false,
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
            "setop-except",
            Plan::SetOp {
                kind: SetOpKind::Except,
                left: Box::new(Plan::scan("X", "x").map(E::path("x", &["a"]), "v")),
                right: Box::new(Plan::scan("Y", "y").map(E::path("y", &["b"]), "v")),
                var: "v".into(),
            },
        ),
        (
            "setop-union",
            Plan::SetOp {
                kind: SetOpKind::Union,
                left: Box::new(Plan::scan("X", "x").map(E::path("x", &["a"]), "v")),
                right: Box::new(Plan::scan("Y", "y").map(E::path("y", &["c"]), "v")),
                var: "v".into(),
            },
        ),
        (
            "map-dedup",
            below_root(Plan::scan("X", "x").map(E::path("x", &["a"]), "v")),
        ),
        (
            "filtered-map",
            below_root(
                Plan::scan("X", "x")
                    .select(E::cmp(CmpOp::Ge, E::path("x", &["a"]), E::lit(3i64)))
                    .map(E::path("x", &["a"]), "v"),
            ),
        ),
    ]
}

fn multiset(rows: Vec<Record>) -> Vec<Record> {
    let mut rows = rows;
    rows.sort();
    rows
}

#[test]
fn budgeted_runs_match_unbounded_for_every_breaker() {
    let cat = sized_catalog(512, 16);
    for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
        for (name, plan) in breaker_corpus() {
            let free = ExecConfig::with_join_algo(algo).batch_size(64);
            let (rows_free, m_free) = run(&plan, &cat, &free).unwrap();
            let tight = free.memory_budget(48);
            let (rows_tight, m_tight) = run(&plan, &cat, &tight).unwrap();
            assert_eq!(
                multiset(rows_free),
                multiset(rows_tight),
                "{name}/{algo:?}: budgeted result diverged"
            );
            assert!(
                m_tight.rows_spilled > 0,
                "{name}/{algo:?}: breaker state of 512 rows under a 48-row budget must spill"
            );
            assert_eq!(
                m_free.rows_spilled, 0,
                "{name}/{algo:?}: unbounded run spilled"
            );
            assert!(
                m_tight.peak_resident_rows < m_free.peak_resident_rows,
                "{name}/{algo:?}: spilling should lower the resident peak \
                 (free={} tight={})",
                m_free.peak_resident_rows,
                m_tight.peak_resident_rows
            );
        }
    }
}

#[test]
fn grace_hash_join_bounds_resident_rows() {
    // Build side 2048 rows at an 8× overshoot of the 256-row budget: the
    // grace join must keep the gauge within budget + batch-granular slack.
    let cat = sized_catalog(2048, 64);
    let plan = Plan::scan("X", "x").semi_join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
    );
    let budget = 256;
    let batch = 128;
    let config = ExecConfig::with_join_algo(JoinAlgo::Hash)
        .batch_size(batch)
        .memory_budget(budget);
    let (rows, m) = run(&plan, &cat, &config).unwrap();
    assert_eq!(rows.len(), 2048, "every X row has partners on b");
    assert!(m.rows_spilled > 0);
    assert!(m.spill_partitions > 0);
    assert!(
        m.peak_resident_rows <= (budget + 3 * batch) as u64,
        "peak {} exceeds budget {} + slack",
        m.peak_resident_rows,
        budget
    );
}

/// The five hash-joinable shapes of `breaker_corpus` over `x.k = y.k` and
/// the residual `x.id < y.id + 40`.
fn keyed_joins() -> Vec<(&'static str, Plan)> {
    let sum = E::Arith(
        ArithOp::Add,
        Box::new(E::path("y", &["id"])),
        Box::new(E::lit(40i64)),
    );
    let pred = || {
        E::and(
            E::eq(E::path("x", &["k"]), E::path("y", &["k"])),
            E::cmp(CmpOp::Lt, E::path("x", &["id"]), sum.clone()),
        )
    };
    let (x, y) = (|| Plan::scan("X", "x"), || Plan::scan("Y", "y"));
    let outer = x().left_outer_join(y(), pred());
    vec![
        ("join", x().join(y(), pred())),
        ("semi", x().semi_join(y(), pred())),
        ("anti", x().anti_join(y(), pred())),
        ("outer", outer),
        (
            "nestjoin",
            x().nest_join(y(), pred(), E::path("y", &["id"]), "ids"),
        ),
    ]
}

#[test]
fn grace_join_answers_partnerless_rows_like_the_unbudgeted_join() {
    // Join keys of every awkward kind, on both sides: NULL (never a
    // partner), duplicates, 1 and 1.0 (two keys to a hash join, which
    // compares structurally), NaN (equal to itself), tuples, sets — and on
    // each side keys the other lacks, which the partitioning pass answers
    // without spilling the row.
    let hostile = |side: i64| {
        vec![
            Value::Null,
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(2.5),
            Value::tuple([("a", Value::Int(1))]),
            Value::tuple([("a", Value::Int(side))]),
            Value::set([Value::Int(1), Value::Int(2)]),
            Value::empty_set(),
            Value::set([Value::Int(side)]),
            Value::Null,
            Value::str("k"),
            Value::Int(100 + side),
        ]
    };
    let table = |name: &str, side: i64, n: i64| {
        let keys = hostile(side);
        let key = |i: i64| match i % 3 {
            // A third of the rows: ints only this side (7) or both (11) have.
            0 => Value::Int(i * [7, 11][(i % 2) as usize] * side),
            _ => keys[(i as usize / 3) % keys.len()].clone(),
        };
        let rows = (0..n).map(|i| Record::new([("id", Value::Int(i)), ("k", key(i))]).unwrap());
        let columns = vec![("id".into(), Ty::Int), ("k".into(), Ty::Any)];
        Table::from_rows(name, columns, rows).unwrap()
    };
    let mut cat = Catalog::new();
    cat.register(table("X", 1, 150)).unwrap();
    cat.register(table("Y", 2, 120)).unwrap();
    let mut filtered = 0;
    for (name, plan) in keyed_joins() {
        let free = ExecConfig::with_join_algo(JoinAlgo::Hash).batch_size(16);
        let (want, _) = run(&plan, &cat, &free).unwrap();
        let want = multiset(want);
        assert!(want.len() > 10, "{name}: {} rows", want.len());
        for budget in [1, 7, 64] {
            let tight = free.memory_budget(budget);
            let phys = tmql_exec::lower(&plan, &cat, &tight).unwrap();
            let mut ctx = ExecContext::with_config(&cat, &tight);
            let got = tmql_exec::execute(&phys, &mut ctx, &Env::new()).unwrap();
            let case = format!("{name} budget={budget}");
            assert_eq!(multiset(got), want, "{case}");
            assert_eq!(ctx.resident_rows(), 0, "{case}");
            let m = ctx.metrics;
            assert!(m.rows_spilled >= 120 - 20, "{case}: the build side spills");
            // Every probe row is a probe, answered early or not.
            assert_eq!(m.hash_probes, 150, "{case}");
            filtered += m.spill_rows_filtered;
            // NULL keys at least: a twentieth of the probe side.
            assert!(m.spill_rows_filtered >= 7, "{case}: {m}");
        }
    }
    assert!(filtered > 15 * 30, "the 64-row budget's filter is sparse");
}

#[test]
fn mostly_dangling_probe_side_is_answered_not_spilled() {
    // 1 024 build keys under a 256-row budget: 16 filter bits per key,
    // so about 6 % of the 3 686 partnerless probe rows pass it.
    let y: Vec<(i64, i64)> = (0..1024).map(|i| (i, i)).collect();
    let x: Vec<(i64, i64)> = (0..4096)
        .map(|i| (i, if i % 10 == 0 { i % 1024 } else { 10_000 + i }))
        .collect();
    let cat = catalog(&x, &y);
    let equi = || E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
    let (budget, batch) = (256, 128);
    let free = ExecConfig::with_join_algo(JoinAlgo::Hash).batch_size(batch);
    let joins = [
        (
            "anti",
            Plan::scan("X", "x").anti_join(Plan::scan("Y", "y"), equi()),
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
    ];
    for (name, plan) in joins {
        let (want, _) = run(&plan, &cat, &free).unwrap();
        let (got, m) = run(&plan, &cat, &free.memory_budget(budget)).unwrap();
        assert_eq!(multiset(got), multiset(want), "{name}");
        assert!(
            m.peak_resident_rows <= (budget + 3 * batch) as u64,
            "{name}: peak {} over budget {budget} + 3 batches of {batch}",
            m.peak_resident_rows
        );
        let probe_spilled = 4096 - m.spill_rows_filtered;
        assert!(probe_spilled >= 410, "{name}: every row with a partner");
        assert!(
            probe_spilled < 4096 / 4,
            "{name}: {probe_spilled} probe rows spilled"
        );
        // No partition of the 1 024 build rows is over budget, so the
        // build side is written once and the rest is the probe side.
        assert_eq!(m.rows_spilled, 1024 + probe_spilled, "{name}: {m}");
        assert_eq!(m.hash_probes, 4096, "{name}");
    }
}

#[test]
fn skewed_keys_repartition_and_still_finish() {
    // Every row shares one join key: partitioning cannot split the build
    // side, so recursion must hit its depth cap and fall back to an
    // in-memory partition — correct results, no infinite loop.
    let x: Vec<(i64, i64)> = (0..256).map(|i| (i, 7)).collect();
    let y: Vec<(i64, i64)> = (0..256).map(|i| (7, i)).collect();
    let cat = catalog(&x, &y);
    let plan = Plan::scan("X", "x").nest_join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        E::path("y", &["c"]),
        "cs",
    );
    let free = ExecConfig::with_join_algo(JoinAlgo::Hash).batch_size(32);
    let (rows_free, _) = run(&plan, &cat, &free).unwrap();
    let (rows_tight, m) = run(&plan, &cat, &free.memory_budget(16)).unwrap();
    assert_eq!(multiset(rows_free), multiset(rows_tight));
    assert!(
        m.rows_spilled > 0,
        "the skewed build side still spills on the way through"
    );
}

#[test]
fn binary_breaker_budget_bounds_combined_operands() {
    // Each set-op operand fits the budget alone (100 rows ≤ 120); their
    // sum does not. The breaker bounds *combined* state, so this must
    // spill rather than holding ~200 rows resident.
    let cat = sized_catalog(100, 100);
    let plan = Plan::SetOp {
        kind: SetOpKind::Union,
        left: Box::new(Plan::scan("X", "x").map(E::path("x", &["a"]), "v")),
        right: Box::new(Plan::scan("Y", "y").map(E::path("y", &["c"]), "v")),
        var: "v".into(),
    };
    let free = ExecConfig::default().batch_size(32);
    let (rows_free, _) = run(&plan, &cat, &free).unwrap();
    let (rows_tight, m) = run(&plan, &cat, &free.memory_budget(120)).unwrap();
    assert_eq!(multiset(rows_free), multiset(rows_tight));
    assert!(
        m.rows_spilled > 0,
        "combined 200-row state over a 120-row budget must spill"
    );
}

#[test]
fn resident_gauge_returns_to_zero_after_spilling_runs() {
    let cat = sized_catalog(300, 8);
    for (name, plan) in breaker_corpus() {
        let config = ExecConfig::default().batch_size(32).memory_budget(24);
        let phys = tmql_exec::lower(&plan, &cat, &config).unwrap();
        let mut ctx = tmql_exec::ExecContext::with_config(&cat, &config);
        let _ = tmql_exec::execute(&phys, &mut ctx, &tmql_algebra::Env::new()).unwrap();
        assert_eq!(
            ctx.resident_rows(),
            0,
            "{name}: leaked resident rows after spill"
        );
    }
}

#[test]
fn nested_loop_inner_side_spills_under_budget() {
    // Force the nested-loop implementation of every join kind: the inner
    // materialization — flagged in the ROADMAP as non-spilling — now
    // moves to a run past the budget and block-joins chunk-at-a-time.
    let cat = sized_catalog(512, 16);
    let join_family = ["join", "semi", "anti", "outer", "nestjoin"];
    for (name, plan) in breaker_corpus() {
        if !join_family.contains(&name) {
            continue;
        }
        let free = ExecConfig::with_join_algo(JoinAlgo::NestedLoop).batch_size(64);
        let (rows_free, m_free) = run(&plan, &cat, &free).unwrap();
        let (rows_tight, m_tight) = run(&plan, &cat, &free.memory_budget(48)).unwrap();
        assert_eq!(
            multiset(rows_free),
            multiset(rows_tight),
            "{name}: block nested loop diverged"
        );
        assert_eq!(m_free.rows_spilled, 0, "{name}: unbounded NL join spilled");
        assert!(
            m_tight.rows_spilled >= 512,
            "{name}: the 512-row inner side must spill (got {})",
            m_tight.rows_spilled
        );
        assert!(
            m_tight.peak_resident_rows < m_free.peak_resident_rows,
            "{name}: spilling the inner side should lower the peak (free={} tight={})",
            m_free.peak_resident_rows,
            m_tight.peak_resident_rows
        );
    }
}

#[test]
fn nested_loop_spill_leaves_gauge_balanced() {
    let cat = sized_catalog(300, 8);
    let plan = Plan::scan("X", "x").anti_join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
    );
    let config = ExecConfig::with_join_algo(JoinAlgo::NestedLoop)
        .batch_size(32)
        .memory_budget(24);
    let phys = tmql_exec::lower(&plan, &cat, &config).unwrap();
    let mut ctx = tmql_exec::ExecContext::with_config(&cat, &config);
    let _ = tmql_exec::execute(&phys, &mut ctx, &tmql_algebra::Env::new()).unwrap();
    assert!(ctx.metrics.rows_spilled > 0);
    assert_eq!(
        ctx.resident_rows(),
        0,
        "leaked resident rows after NL spill"
    );
}

#[test]
fn scan_expr_buffered_set_spills_under_budget() {
    // A 300-element set expression: the buffered items count toward the
    // gauge, and past the budget only a budget's worth stays resident
    // while the tail streams back from a run.
    let cat = Catalog::new();
    let items: Vec<E> = (0..300).map(|i| E::lit(i as i64)).collect();
    let plan = Plan::ScanExpr {
        expr: E::SetLit(items),
        var: "v".into(),
    };
    let free = ExecConfig::default().batch_size(32);
    let (rows_free, m_free) = run(&plan, &cat, &free).unwrap();
    assert_eq!(rows_free.len(), 300);
    assert!(
        m_free.peak_resident_rows >= 300,
        "the buffered set is visible in the gauge"
    );
    let (rows_tight, m_tight) = run(&plan, &cat, &free.memory_budget(32)).unwrap();
    assert_eq!(multiset(rows_free), multiset(rows_tight));
    assert_eq!(
        m_tight.rows_spilled,
        300 - 32,
        "everything past the budget spilled"
    );
    assert!(
        m_tight.peak_resident_rows <= 32 + 32,
        "peak {} exceeds budget + one batch",
        m_tight.peak_resident_rows
    );
}

/// Plans whose breaker *kernel* fails on its first row: a path into a
/// field the rows do not have.
fn failing_kernels() -> Vec<(&'static str, Plan)> {
    vec![
        (
            "nest",
            Plan::Nest {
                input: Box::new(Plan::scan("X", "x")),
                keys: vec!["x".into()],
                value: E::path("x", &["missing"]),
                label: "bs".into(),
                star: false,
            },
        ),
        (
            "group-agg",
            Plan::GroupAgg {
                input: Box::new(Plan::scan("Y", "y")),
                keys: vec![("b".into(), E::path("y", &["b"]))],
                aggs: vec![("n".into(), AggFn::Sum, E::path("y", &["missing"]))],
                var: "g".into(),
            },
        ),
        (
            "hash-build",
            Plan::scan("X", "x").semi_join(
                Plan::scan("Y", "y"),
                E::eq(E::path("x", &["b"]), E::path("y", &["missing"])),
            ),
        ),
    ]
}

#[test]
fn failing_kernel_leaves_the_resident_gauge_at_zero() {
    let cat = sized_catalog(300, 8);
    for (name, plan) in failing_kernels() {
        for budget in [None, Some(24)] {
            let mut config = ExecConfig::with_join_algo(JoinAlgo::Hash).batch_size(32);
            config.memory_budget_rows = budget;
            let phys = tmql_exec::lower(&plan, &cat, &config).unwrap();
            let mut ctx = ExecContext::with_config(&cat, &config);
            let res = tmql_exec::execute(&phys, &mut ctx, &Env::new());
            let case = format!("{name} budget={budget:?}");
            assert!(res.is_err(), "{case}: the missing field must fail");
            assert_eq!(ctx.resident_rows(), 0, "{case}: leaked resident rows");
        }
    }
    // A nested-loop join whose inner operand fails mid-drain: one row per
    // batch, and the 41st (y.c = 40) divides by zero — after the join has
    // buffered 40 rows (budget None) or moved them to a run (budget 24).
    let divides = E::Arith(
        ArithOp::Div,
        Box::new(E::lit(100i64)),
        Box::new(E::Arith(
            ArithOp::Sub,
            Box::new(E::path("y", &["c"])),
            Box::new(E::lit(40i64)),
        )),
    );
    let inner = Plan::scan("Y", "y").select(E::cmp(CmpOp::Gt, divides, E::lit(-1000i64)));
    let plan = Plan::scan("X", "x").join(
        inner,
        E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::path("y", &["c"])),
    );
    for budget in [None, Some(24)] {
        let mut config = ExecConfig::with_join_algo(JoinAlgo::NestedLoop).batch_size(1);
        config.memory_budget_rows = budget;
        let phys = tmql_exec::lower(&plan, &cat, &config).unwrap();
        let mut ctx = ExecContext::with_config(&cat, &config);
        let res = tmql_exec::execute(&phys, &mut ctx, &Env::new());
        assert!(
            res.is_err(),
            "nl-inner budget={budget:?}: the division must fail"
        );
        assert!(
            ctx.metrics.rows_scanned >= 41,
            "the inner yielded batches first"
        );
        assert_eq!(
            ctx.resident_rows(),
            0,
            "nl-inner budget={budget:?}: leaked resident rows"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever was inserted is found again, at every size from one word
    /// up; a key that was not is mostly refused while the filter is sparse.
    #[test]
    fn key_filter_has_no_false_negatives(
        hashes in prop::collection::vec(any::<u64>(), 1..200),
        strangers in prop::collection::vec(any::<u64>(), 100..101),
    ) {
        for budget in [0usize, 1, 2, 3, 5, 64, 100, 512, 4096] {
            let mut filter = KeyFilter::for_budget(budget);
            prop_assert!(strangers.iter().all(|&h| !filter.may_contain(h)), "empty");
            for &h in &hashes {
                filter.insert(h);
            }
            prop_assert!(hashes.iter().all(|&h| filter.may_contain(h)), "budget {}", budget);
            if budget >= 512 {
                // At least 160 bits per inserted hash.
                let passed = strangers.iter().filter(|&&h| filter.may_contain(h)).count();
                prop_assert!(passed <= 5, "{} of 100 strangers at budget {}", passed, budget);
            }
        }
    }

    /// Differential: for random inputs, budgets, batch sizes, and join
    /// algorithms, budgeted execution returns exactly the unbounded rows.
    #[test]
    fn budget_never_changes_results(
        x in prop::collection::vec((0i64..16, 0i64..6), 0..48),
        y in prop::collection::vec((0i64..6, 0i64..16), 0..48),
        budget in 1usize..24,
        bs_i in 0usize..3,
        algo_i in 0usize..2,
    ) {
        let bs = [1usize, 7, 64][bs_i];
        let algo = [JoinAlgo::Hash, JoinAlgo::SortMerge][algo_i];
        let cat = catalog(&x, &y);
        for (name, plan) in breaker_corpus() {
            let free = ExecConfig::with_join_algo(algo).batch_size(bs);
            let (rows_free, _) = run(&plan, &cat, &free).unwrap();
            let (rows_tight, _) = run(&plan, &cat, &free.memory_budget(budget)).unwrap();
            prop_assert_eq!(
                multiset(rows_free),
                multiset(rows_tight),
                "{}: budget {} diverged", name, budget
            );
        }
    }
}
