//! Whole-pipeline differential tests: random generator configurations ×
//! the full Table 2 query corpus × every strategy × every join algorithm,
//! all compared against nested-loop semantics through the public API.

use proptest::prelude::*;
use tmql::{Database, JoinAlgo, QueryOptions, Record, Table, Ty, UnnestStrategy, Value};
use tmql_workload::gen::{gen_xy, gen_xyz, GenConfig, SkewKind};
use tmql_workload::queries::{self, table2_templates};

#[path = "support/oracle.rs"]
mod oracle;

fn correct_strategies() -> [UnnestStrategy; 5] {
    [
        UnnestStrategy::Optimal,
        UnnestStrategy::NestJoin,
        UnnestStrategy::GanskiWong,
        UnnestStrategy::Muralikrishna,
        UnnestStrategy::FlattenSemiAnti,
    ]
}

#[test]
fn corpus_under_all_join_algorithms() {
    let cfg = GenConfig {
        outer: 24,
        inner: 36,
        dangling_fraction: 0.3,
        ..GenConfig::default()
    };
    let db = Database::from_catalog(gen_xy(&cfg));
    for (name, src) in table2_templates() {
        let oracle = db
            .query_with(
                &src,
                QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
            )
            .unwrap();
        for strat in correct_strategies() {
            for algo in [
                JoinAlgo::NestedLoop,
                JoinAlgo::Hash,
                JoinAlgo::SortMerge,
                JoinAlgo::Auto,
            ] {
                let r = db
                    .query_with(
                        &src,
                        QueryOptions::default().strategy(strat).join_algo(algo),
                    )
                    .unwrap();
                assert_eq!(
                    r.values,
                    oracle.values,
                    "`{name}` / {} / {algo:?}",
                    strat.name()
                );
            }
        }
    }
}

#[test]
fn multilevel_corpus_under_skew() {
    for skew in [SkewKind::Uniform, SkewKind::Zipf(1.1)] {
        let cfg = GenConfig {
            outer: 20,
            inner: 25,
            dangling_fraction: 0.2,
            skew,
            ..GenConfig::default()
        };
        let db = Database::from_catalog(gen_xyz(&cfg));
        for src in [queries::SECTION8, queries::SECTION8_FLAT] {
            let oracle = db
                .query_with(
                    src,
                    QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
                )
                .unwrap();
            for strat in correct_strategies() {
                let r = db
                    .query_with(src, QueryOptions::default().strategy(strat))
                    .unwrap();
                assert_eq!(r.values, oracle.values, "{skew:?} {}", strat.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random generator configs: the full pipeline agrees with the oracle
    /// on membership, non-membership, count-compare and ⊆ — the four
    /// archetypes (semijoin, antijoin, aggregate grouping, set grouping).
    #[test]
    fn archetypes_on_random_configs(
        outer in 1usize..40,
        inner in 0usize..50,
        dangling in 0.0f64..1.0,
        max_set in 0usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = GenConfig { outer, inner, dangling_fraction: dangling, max_set, seed,
                              skew: SkewKind::Uniform };
        let db = Database::from_catalog(gen_xy(&cfg));
        let archetypes = [
            queries::MEMBERSHIP.to_string(),
            queries::NON_MEMBERSHIP.to_string(),
            queries::where_query("x.n = COUNT({Z})"),
            queries::SUBSETEQ_BUG.to_string(),
        ];
        for src in &archetypes {
            let oracle = db
                .query_with(src, QueryOptions::default().strategy(UnnestStrategy::NestedLoop))
                .unwrap();
            for strat in correct_strategies() {
                let r = db.query_with(src, QueryOptions::default().strategy(strat)).unwrap();
                prop_assert_eq!(&r.values, &oracle.values, "{}", strat.name());
            }
        }
    }

    /// The membership archetype flattens to a semijoin for every
    /// configuration — and never contains grouping operators.
    #[test]
    fn membership_always_flattens(seed in 0u64..500) {
        let cfg = GenConfig { outer: 10, inner: 10, seed, ..GenConfig::default() };
        let db = Database::from_catalog(gen_xy(&cfg));
        let (_, plan) = db
            .plan_with(queries::MEMBERSHIP, QueryOptions::default())
            .unwrap();
        let is_semi = plan.any_node(&mut |n| matches!(n, tmql::Plan::Join { kind: tmql_algebra::JoinKind::Semi, .. }));
        prop_assert!(!plan.has_apply());
        prop_assert!(!plan.has_nest_join());
        prop_assert!(is_semi);
    }
}

#[test]
fn statements_nested_to_the_parser_limit_run_on_a_default_thread_stack() {
    // `tmql_lang::MAX_QUERY_NESTING` exists so that everything that
    // recurses over a parsed statement — type check, translation, the
    // unnesting optimizer, costing, lowering, execution — fits a worker
    // thread's 2 MB stack (a spawned thread, not the main thread's 8 MB),
    // in an unoptimized build too. Each statement is a few levels short
    // of the limit; one level past it is a parse error.
    std::thread::spawn(|| {
        let db = Database::from_catalog(gen_xy(&GenConfig {
            outer: 8,
            inner: 8,
            ..GenConfig::default()
        }));
        let n = tmql_lang::MAX_QUERY_NESTING as usize - 4;
        let subqueries = (1..n / 2).fold("SELECT y.a FROM Y y".to_string(), |q, _| {
            format!("SELECT x.b FROM X x WHERE x.b IN ({q})")
        });
        let (open, close) = ("(".repeat(n), ")".repeat(n));
        let (open_set, close_set) = ("{".repeat(n), "}".repeat(n));
        for (query, rows) in [
            (subqueries, None),
            (
                format!("SELECT x.n FROM X x WHERE {open}x.n = 1{close}"),
                Some(1),
            ),
            (
                format!("SELECT x.n FROM X x WHERE {}x.n = 1", "NOT ".repeat(n)),
                Some(1),
            ),
            (format!("SELECT {open_set}x.n{close_set} FROM X x"), Some(8)),
        ] {
            let result = db.query(&query).expect("a statement within the limit runs");
            if let Some(rows) = rows {
                assert_eq!(result.len(), rows, "{query}");
            }
        }
        let too_deep = format!("SELECT x.n FROM X x WHERE {open}((((x.n = 1)))){close}");
        let err = db.query(&too_deep).expect_err("past the limit");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    })
    .join()
    .expect("no panic and no stack overflow");
}

#[test]
fn operator_chains_are_bounded_by_the_parser_not_by_the_stack() {
    // `a AND a AND …`, `x + x + …`, `s UNION s UNION …` and `x.f.f.f…` are
    // parsed by iteration, so the nesting limit does not count them — and
    // the left-deep tree they build is as deep as they are long. Before
    // `tmql_lang::MAX_CHAIN_LINKS`, 10 000 terms aborted an optimized
    // build on this 2 MB stack.
    let db = || {
        let mut db = Database::from_catalog(gen_xy(&GenConfig {
            outer: 8,
            inner: 8,
            ..GenConfig::default()
        }));
        // One row whose `t` is `(f = (f = … 1 …))`, 200 levels deep.
        let (ty, value) = (0..200).fold((Ty::Int, Value::Int(1)), |(ty, v), _| {
            (
                Ty::Tuple(vec![("f".into(), ty)]),
                Value::Tuple(Record::new([("f", v)]).unwrap()),
            )
        });
        let row = Record::new([("t", value)]).unwrap();
        db.register_table(Table::from_rows("T", vec![("t".into(), ty)], [row]).unwrap())
            .unwrap();
        db
    };
    let chains = |terms: usize| {
        [
            format!(
                "SELECT x.n FROM X x WHERE {}",
                vec!["x.n = 1"; terms].join(" AND ")
            ),
            format!(
                "SELECT x.n FROM X x WHERE {} = {terms}",
                vec!["x.n"; terms].join(" + ")
            ),
            format!(
                "SELECT x.n FROM X x WHERE x.n IN {}",
                vec!["{1}"; terms].join(" UNION ")
            ),
            format!("SELECT t.t{} FROM T t", ".f".repeat(terms)),
        ]
    };
    std::thread::spawn(move || {
        let db = db();
        for query in chains(100_000) {
            let err = db.query(&query).expect_err("past the limit");
            assert!(err.to_string().contains("chained operators"), "{err}");
        }
    })
    .join()
    .expect("no panic and no stack overflow");
    // Within the limit they run. An unoptimized build spends about ten
    // times an optimized one's stack per tree level (≈ 15 KB against
    // ≈ 1.2 KB, measured), so this half gets a stack that fits both.
    std::thread::Builder::new()
        .stack_size(32 << 20)
        .spawn(move || {
            let db = db();
            for (query, rows) in chains(200).into_iter().zip([1; 4]) {
                let result = db.query(&query).expect("a 200-term chain runs");
                assert_eq!(result.len(), rows, "{query}");
            }
        })
        .unwrap()
        .join()
        .expect("no panic and no stack overflow");
}

/// `R.a` is `REAL` but holds an `Int` too; `S.b` is `INT`. `=` between
/// them once meant numeric `==` to a nested loop and structural identity
/// to a hash or sort-merge join, so the answer depended on the plan.
fn mixed_numeric_db(indexed: bool) -> Database {
    let r = [
        (1, Value::Int(1)),
        (2, Value::Float(2.0)),
        (3, Value::Float(2.5)),
        (4, Value::Float(-0.0)),
        (5, Value::Int(9)),
    ];
    let s = [(1, 10), (2, 20), (0, 30), (2, 40), (7, 50)];
    let r = r.map(|(id, a)| Record::new([("id", Value::Int(id)), ("a", a)]).unwrap());
    let s = s.map(|(b, c)| Record::new([("b", Value::Int(b)), ("c", Value::Int(c))]).unwrap());
    let mut db = Database::new();
    let r_cols = vec![("id".into(), Ty::Int), ("a".into(), Ty::Float)];
    let s_cols = vec![("b".into(), Ty::Int), ("c".into(), Ty::Int)];
    db.register_table(Table::from_rows("R", r_cols, r).unwrap())
        .unwrap();
    db.register_table(Table::from_rows("S", s_cols, s).unwrap())
        .unwrap();
    if indexed {
        db.create_index("R", "a").unwrap();
        db.create_index("S", "b").unwrap();
    }
    db
}

#[test]
fn an_int_in_a_real_column_joins_one_way_under_every_plan() {
    let ids = |ids: &[i64]| ids.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    let cases = [
        // Membership: a semijoin once flattened.
        (
            "SELECT r.id FROM R r WHERE r.a IN (SELECT s.b FROM S s)",
            ids(&[1, 2, 4]),
        ),
        (
            "SELECT r.id FROM R r WHERE COUNT((SELECT s.c FROM S s WHERE s.b = r.a)) > 0",
            ids(&[1, 2, 4]),
        ),
        // The nest join: 2.0 meets both 2s, -0.0 meets 0.
        (
            "SELECT (i = r.id, cs = (SELECT s.c FROM S s WHERE s.b = r.a)) FROM R r \
             WHERE r.a < 9 AND r.a <> 2.5",
            ["{10}", "{20, 40}", "{30}"]
                .iter()
                .zip([1, 2, 4])
                .map(|(cs, i)| format!("(i = {i}, cs = {cs})"))
                .map(Value::from)
                .collect(),
        ),
        (
            "SELECT s.c FROM S s WHERE s.b IN (SELECT r.a FROM R r)",
            ids(&[10, 20, 30, 40]),
        ),
    ];
    for indexed in [false, true] {
        let db = mixed_numeric_db(indexed);
        for (src, want) in &cases {
            // The reference evaluator's equality is written on its own.
            let reference = oracle::answer(db.catalog(), src).unwrap();
            for strategy in UnnestStrategy::ALL {
                for algo in [JoinAlgo::Auto, JoinAlgo::Hash, JoinAlgo::SortMerge] {
                    let opts = QueryOptions::default().strategy(strategy).join_algo(algo);
                    let got = db.query_with(src, opts).unwrap();
                    let case =
                        format!("{src} / {} / {algo:?} / indexed={indexed}", strategy.name());
                    oracle::assert_matches(&got.values, &reference, &case);
                    let got: Vec<Value> = match want[0] {
                        Value::Str(_) => got.values.iter().map(|v| v.to_string().into()).collect(),
                        _ => got.values.into_iter().collect(),
                    };
                    assert_eq!(&got, want, "{case}");
                }
            }
        }
    }
}

#[test]
fn numbers_are_one_kind_to_sets_and_aggregates() {
    let db = mixed_numeric_db(false);
    let one = |src: &str| db.query(src).unwrap().render();
    assert_eq!(
        one("SELECT r.id FROM R r WHERE r.id = 1 AND 1 IN {1.0}"),
        "1\n"
    );
    assert_eq!(one("SELECT MAX({1, 0.5}) FROM R r"), "1\n");
    assert_eq!(one("SELECT MIN({1, 0.5}) FROM R r"), "0.5\n");
    assert_eq!(one("SELECT COUNT({1, 1.0}) FROM R r"), "1\n");
    // Result order is numeric across the two kinds.
    assert_eq!(one("SELECT r.a FROM R r"), "-0\n1\n2\n2.5\n9\n");
}

#[test]
fn a_string_literal_outside_ascii_finds_its_row() {
    // The lexer once built a literal one `char` per *byte*: 'café' became
    // "cafÃ©" and this query answered with no rows.
    let names = ["café", "cafe", "日本語", "ß"];
    let rows = names.map(|n| Record::new([("name", Value::str(n))]).unwrap());
    let mut db = Database::new();
    db.register_table(Table::from_rows("D", vec![("name".into(), Ty::Str)], rows).unwrap())
        .unwrap();
    for name in names {
        for quote in ['\'', '"'] {
            let q = format!("SELECT d FROM D d WHERE d.name = {quote}{name}{quote}");
            let result = db.query(&q).unwrap();
            assert_eq!(result.len(), 1, "{q}");
        }
    }
    // Outside a literal the character is reported whole, where it stands.
    let err = db
        .query("SELECT d FROM D d WHERE d.name = café")
        .unwrap_err();
    assert!(
        err.to_string().contains("unexpected character `é`"),
        "{err}"
    );
}
