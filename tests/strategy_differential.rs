//! Differential testing of `UnnestStrategy::CostBased` over the workload
//! schemas: whatever the cost model picks per block, the result **set**
//! must be the reference evaluator's answer (`support/oracle.rs`, which
//! shares no code with the engine), as must every correct strategy's —
//! strategy choice must never change answers, only cost. (Kim is excluded:
//! it is deliberately bug-compatible and loses dangling tuples.) On the
//! same generator, a memory budget never changes the physical plan
//! lowering builds.

use proptest::prelude::*;
use tmql::{Database, ExecConfig, QueryOptions, UnnestStrategy};
use tmql_exec::lower;
use tmql_workload::gen::{gen_rs, gen_xy, GenConfig};
use tmql_workload::queries::{where_query, COUNT_BUG, MEMBERSHIP, NON_MEMBERSHIP, SUBSETEQ_BUG};

#[path = "support/oracle.rs"]
mod oracle;

/// A SELECT-clause subquery correlated on two columns of `R`: `x.b`
/// repeats across rows while `x.c` does not, so an Apply cache that keyed
/// on fewer than both would hand one row another row's set.
const TWO_BINDINGS: &str =
    "SELECT (a = x.a, ds = (SELECT y.d FROM S y WHERE x.c = y.c AND x.b <= y.d)) FROM R x";

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

/// The Apply-cache transparency property: the memoizing nested loop with
/// and without a spilling memory budget, the cost-based choice under that
/// budget, and every unnest strategy that is not bug-compatible all answer
/// what the reference evaluator answers — cache hits change counters and
/// cost, never answers.
fn assert_apply_cache_is_transparent(db: &Database, src: &str) {
    let want =
        oracle::answer(db.catalog(), src).unwrap_or_else(|e| panic!("oracle on {src}: {e:?}"));
    let nl = QueryOptions::default().strategy(UnnestStrategy::NestedLoop);
    let correct = UnnestStrategy::ALL
        .into_iter()
        .filter(|s| !s.is_bug_compatible())
        .map(|s| QueryOptions::default().strategy(s));
    let budgeted = [
        nl,
        nl.memory_budget(8),
        QueryOptions::default().memory_budget(8),
    ];
    for opts in budgeted.into_iter().chain(correct) {
        let (strategy, budget) = (opts.strategy.name(), opts.memory_budget_rows);
        let got = db
            .query_with(src, opts)
            .unwrap_or_else(|e| panic!("{strategy} fails: {e}"));
        oracle::assert_matches(
            &got.values,
            &want,
            &format!("{strategy} (budget={budget:?}) on {src}"),
        );
        assert!(
            got.metrics.apply_invocations <= got.metrics.subquery_invocations,
            "memoization must never run the inner plan more often than per-row"
        );
    }
}

/// Lowering under a one-row memory budget builds the physical plan it
/// builds under none, for every strategy's logical plan (ranked with and
/// without that budget): each physical choice reads only row counts and
/// the work of a bare inner scan, and a budget reprices neither.
fn assert_budget_lowers_the_same_plan(db: &Database, src: &str) {
    for strategy in UnnestStrategy::ALL {
        for opts in [
            QueryOptions::default(),
            QueryOptions::default().memory_budget(1),
        ] {
            let (_, plan) = db
                .plan_with(src, opts.strategy(strategy))
                .unwrap_or_else(|e| panic!("{} plans {src}: {e}", strategy.name()));
            let lowered = |config: &ExecConfig| lower(&plan, db.catalog(), config).unwrap();
            assert_eq!(
                lowered(&ExecConfig::default().memory_budget(1)),
                lowered(&ExecConfig::default()),
                "{} lowers {src} differently under a budget",
                strategy.name()
            );
        }
    }
}

/// The paper's baseline as `NestedLoop` runs it: one scan of `Y` per
/// distinct binding `x.b` over the same inner plan lowering builds
/// anywhere else — no index probe, no hash build behind the cost model's
/// back — and the reference evaluator's answer.
#[test]
fn nested_loop_runs_the_papers_baseline() {
    let cfg = GenConfig {
        outer: 64,
        inner: 48,
        ..GenConfig::default()
    };
    let db = Database::from_catalog(gen_xy(&cfg));
    let nl = QueryOptions::default().strategy(UnnestStrategy::NestedLoop);
    let got = db.query_with(MEMBERSHIP, nl).unwrap();
    let rows = |t: &str| db.catalog().table(t).unwrap().len() as u64;
    let distinct_b = db.query("SELECT x.b FROM X x").unwrap().len() as u64;
    let m = &got.metrics;
    assert_eq!((m.index_probes, m.hash_build_rows), (0, 0), "{m:?}");
    assert_eq!(m.subquery_invocations, rows("X"));
    assert_eq!(m.apply_invocations, distinct_b);
    assert_eq!(m.rows_scanned, rows("X") + m.apply_invocations * rows("Y"));
    let want = oracle::answer(db.catalog(), MEMBERSHIP).unwrap();
    oracle::assert_matches(&got.values, &want, "NestedLoop on MEMBERSHIP");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cost_based_matches_all_strategies_on_rs(cfg in arb_config()) {
        let db = Database::from_catalog(gen_rs(&cfg));
        assert_apply_cache_is_transparent(&db, COUNT_BUG);
        assert_apply_cache_is_transparent(&db, "SELECT x.a FROM R x WHERE x.b IN (SELECT y.d FROM S y WHERE x.c = y.c)");
        assert_apply_cache_is_transparent(&db, TWO_BINDINGS);
        assert_budget_lowers_the_same_plan(&db, COUNT_BUG);
        assert_budget_lowers_the_same_plan(&db, TWO_BINDINGS);
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
            assert_budget_lowers_the_same_plan(&db, &src);
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
        let queries = [
            COUNT_BUG.to_string(),
            "SELECT x.a FROM R x WHERE x.b IN (SELECT y.d FROM S y WHERE x.c = y.c)".to_string(),
        ];
        assert_indexes_change_nothing(&plain, &indexed, &queries);
        queries.iter().for_each(|q| assert_budget_lowers_the_same_plan(&indexed, q));

        let plain = Database::from_catalog(gen_xy(&cfg));
        let mut indexed = Database::from_catalog(gen_xy(&cfg));
        indexed.create_index("Y", "b").unwrap();
        let queries = [
            MEMBERSHIP.to_string(),
            NON_MEMBERSHIP.to_string(),
            where_query("COUNT({Z}) = 0"),
        ];
        assert_indexes_change_nothing(&plain, &indexed, &queries);
        queries.iter().for_each(|q| assert_budget_lowers_the_same_plan(&indexed, q));
    }
}
