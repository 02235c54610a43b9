//! Differential testing of `UnnestStrategy::CostBased` over the workload
//! schemas: whatever the cost model picks per block, the result **set**
//! must be identical to every correct strategy's result — strategy choice
//! must never change answers, only cost. (Kim is excluded: it is
//! deliberately bug-compatible and loses dangling tuples.)

use proptest::prelude::*;
use tmql::{Database, QueryOptions, UnnestStrategy};
use tmql_workload::gen::{gen_rs, gen_xy, GenConfig};
use tmql_workload::queries::{where_query, COUNT_BUG, MEMBERSHIP, NON_MEMBERSHIP, SUBSETEQ_BUG};

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (1usize..32, 1usize..48, 0u32..10, 0usize..4, any::<u64>()).prop_map(
        |(outer, inner, dangling, max_set, seed)| GenConfig {
            outer,
            inner,
            dangling_fraction: dangling as f64 / 10.0,
            max_set,
            seed,
            ..GenConfig::default()
        },
    )
}

/// Run `src` under every strategy and assert the result values agree with
/// the nested-loop ground truth — in particular for `CostBased`, whose
/// block choices depend on the generated data's statistics.
fn assert_all_strategies_agree(db: &Database, src: &str) {
    let oracle = db
        .query_with(
            src,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .expect("nested-loop oracle runs");
    for strat in UnnestStrategy::ALL {
        if strat.is_bug_compatible() {
            continue;
        }
        let got = db
            .query_with(src, QueryOptions::default().strategy(strat))
            .unwrap_or_else(|e| panic!("{} fails: {e}", strat.name()));
        assert_eq!(
            got.values,
            oracle.values,
            "strategy {} changed the result on {src}",
            strat.name()
        );
    }
}

/// Run every query on the index-free database (CostBased defaults) and on
/// the indexed one with and without a spilling memory budget: indexes may
/// change plans and cost, never the result set.
fn assert_indexes_change_nothing(plain: &Database, indexed: &Database, queries: &[String]) {
    for q in queries {
        let want = plain
            .query(q)
            .unwrap_or_else(|e| panic!("plain {q} fails: {e}"))
            .values;
        for budget in [None, Some(8usize)] {
            let opts = QueryOptions {
                memory_budget_rows: budget,
                ..QueryOptions::default()
            };
            let got = indexed
                .query_with(q, opts)
                .unwrap_or_else(|e| panic!("indexed {q} fails: {e}"));
            assert_eq!(
                got.values, want,
                "indexes changed the answer on {q} (budget={budget:?})"
            );
        }
    }
}

/// The Apply-cache transparency property: with the per-row baseline
/// (`apply_cache(false)`, forced nested loop) as oracle, the memoizing
/// executor must produce the same value set with and without a spilling
/// memory budget — cache hits and hoisted inner plans change counters and
/// cost, never answers — and so must the cost-based choice under that
/// budget, and every unnest strategy running with the cache on.
fn assert_apply_cache_is_transparent(db: &Database, src: &str) {
    let nl = QueryOptions::default().strategy(UnnestStrategy::NestedLoop);
    let oracle = db
        .query_with(src, nl.apply_cache(false))
        .expect("uncached nested-loop oracle runs");
    let budgeted = [
        nl,
        nl.memory_budget(8),
        QueryOptions::default().memory_budget(8),
    ];
    for opts in budgeted {
        let got = db
            .query_with(src, opts)
            .unwrap_or_else(|e| panic!("cached Apply fails: {e}"));
        let (strategy, budget) = (opts.strategy.name(), opts.memory_budget_rows);
        assert_eq!(
            got.values, oracle.values,
            "{strategy} changed the result on {src} (budget={budget:?})"
        );
        assert!(
            got.metrics.apply_invocations <= oracle.metrics.subquery_invocations,
            "memoization must never run the inner plan more often than per-row"
        );
    }
    assert_all_strategies_agree(db, src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cost_based_matches_all_strategies_on_rs(cfg in arb_config()) {
        let db = Database::from_catalog(gen_rs(&cfg));
        assert_apply_cache_is_transparent(&db, COUNT_BUG);
        assert_apply_cache_is_transparent(&db, "SELECT x.a FROM R x WHERE x.b IN (SELECT y.d FROM S y WHERE x.c = y.c)");
    }

    #[test]
    fn cost_based_matches_all_strategies_on_xy(cfg in arb_config()) {
        let db = Database::from_catalog(gen_xy(&cfg));
        for src in [
            MEMBERSHIP.to_string(),
            NON_MEMBERSHIP.to_string(),
            SUBSETEQ_BUG.to_string(),
            where_query("COUNT({Z}) = 0"),
            where_query("x.n = COUNT({Z})"),
            where_query("x.a INTERSECTS {Z}"),
        ] {
            assert_apply_cache_is_transparent(&db, &src);
        }
    }

    /// The index-consistency property: the same generator seed builds two
    /// identical databases, one with secondary indexes on the correlated
    /// inner columns. Whatever access paths CostBased then picks, the
    /// result sets never differ, with and without a spilling memory budget.
    #[test]
    fn cost_based_with_indexes_matches_without(cfg in arb_config()) {
        let plain = Database::from_catalog(gen_rs(&cfg));
        let mut indexed = Database::from_catalog(gen_rs(&cfg));
        indexed.create_index("S", "c").unwrap();
        indexed.create_index("R", "c").unwrap();
        assert_indexes_change_nothing(&plain, &indexed, &[
            COUNT_BUG.to_string(),
            "SELECT x.a FROM R x WHERE x.b IN (SELECT y.d FROM S y WHERE x.c = y.c)".to_string(),
        ]);

        let plain = Database::from_catalog(gen_xy(&cfg));
        let mut indexed = Database::from_catalog(gen_xy(&cfg));
        indexed.create_index("Y", "b").unwrap();
        assert_indexes_change_nothing(&plain, &indexed, &[
            MEMBERSHIP.to_string(),
            NON_MEMBERSHIP.to_string(),
            where_query("COUNT({Z}) = 0"),
        ]);
    }
}
