//! Beyond the paper's core setting (its Section 9 future work): multiple
//! subqueries per WHERE clause, non-neighbour correlation (a subquery
//! referencing a variable two blocks up), uncorrelated subqueries, and
//! failure-path behaviour. These exercise the optimizer's *safety*: it
//! must rewrite what it can and leave the rest semantically intact.

use tmql::{Database, Plan, QueryOptions, TmqlError, UnnestStrategy};
use tmql_algebra::JoinKind;
use tmql_workload::gen::{gen_xy, gen_xyz, GenConfig};

fn xy_db() -> Database {
    let cfg = GenConfig {
        outer: 25,
        inner: 35,
        dangling_fraction: 0.3,
        ..GenConfig::default()
    };
    Database::from_catalog(gen_xy(&cfg))
}

fn xyz_db() -> Database {
    let cfg = GenConfig {
        outer: 18,
        inner: 22,
        dangling_fraction: 0.25,
        ..GenConfig::default()
    };
    Database::from_catalog(gen_xyz(&cfg))
}

fn strategies() -> [UnnestStrategy; 5] {
    [
        UnnestStrategy::Optimal,
        UnnestStrategy::NestJoin,
        UnnestStrategy::GanskiWong,
        UnnestStrategy::Muralikrishna,
        UnnestStrategy::FlattenSemiAnti,
    ]
}

#[test]
fn two_subqueries_in_one_where_clause() {
    // The paper restricts itself to one subquery per WHERE clause
    // ("we do not consider multiple subqueries", Section 4); the
    // implementation handles the conjunction of two.
    let db = xy_db();
    let q = "SELECT x.n FROM X x \
             WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b) \
               AND COUNT((SELECT y2.a FROM Y y2 WHERE x.b = y2.b)) < 5";
    let oracle = db
        .query_with(
            q,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    for strat in strategies() {
        let r = db
            .query_with(q, QueryOptions::default().strategy(strat))
            .unwrap();
        assert_eq!(r.values, oracle.values, "{}", strat.name());
    }
    // Optimal must fully decorrelate: one semijoin-able block, one
    // grouping block.
    let (_, plan) = db.plan_with(q, QueryOptions::default()).unwrap();
    assert!(!plan.has_apply(), "{plan}");
}

#[test]
fn non_neighbour_correlation_stays_correct() {
    // The innermost block references `x`, skipping the middle block — not
    // a "neighbour predicate" (Section 8), so the outer block cannot be
    // decorrelated; the inner one can.
    let db = xyz_db();
    let q = "SELECT x.b FROM X x \
             WHERE x.a SUBSETEQ (SELECT y.a FROM Y y \
                                 WHERE y.b = x.b AND \
                                       COUNT((SELECT z.c FROM Z z WHERE z.d = x.b)) > 0)";
    let oracle = db
        .query_with(
            q,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    for strat in strategies() {
        let r = db
            .query_with(q, QueryOptions::default().strategy(strat))
            .unwrap();
        assert_eq!(r.values, oracle.values, "{}", strat.name());
    }
    // The outer block must keep its Apply (its inner plan references x),
    // under every strategy.
    let (_, plan) = db.plan_with(q, QueryOptions::default()).unwrap();
    assert!(
        plan.has_apply(),
        "non-neighbour correlation cannot flatten\n{plan}"
    );
}

#[test]
fn uncorrelated_subquery_is_constant() {
    // "subqueries without free variables simply are constants"
    // (Section 3.2) — still unnested into a join by every strategy.
    let db = xy_db();
    let q = "SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE y.a > 2)";
    let oracle = db
        .query_with(
            q,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    for strat in strategies() {
        let r = db
            .query_with(q, QueryOptions::default().strategy(strat))
            .unwrap();
        assert_eq!(r.values, oracle.values, "{}", strat.name());
    }
    let (_, plan) = db.plan_with(q, QueryOptions::default()).unwrap();
    assert!(!plan.has_apply());
}

#[test]
fn triple_nesting_fully_decorrelates_with_neighbour_predicates() {
    let db = xyz_db();
    // x → y → z, each correlation strictly to the neighbour.
    let q = "SELECT x.b FROM X x \
             WHERE x.b IN (SELECT y.b FROM Y y \
                           WHERE y.b = x.b AND \
                                 y.d IN (SELECT z.d FROM Z z WHERE z.d = y.d))";
    let (_, plan) = db.plan_with(q, QueryOptions::default()).unwrap();
    assert!(!plan.has_apply(), "{plan}");
    assert_eq!(
        plan.count_nodes(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Semi,
                ..
            }
        )),
        2,
        "two membership blocks → two semijoins\n{plan}"
    );
    let oracle = db
        .query_with(
            q,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    let opt = db.query_with(q, QueryOptions::default()).unwrap();
    assert_eq!(opt.values, oracle.values);
}

#[test]
fn subquery_as_set_operand_in_expressions() {
    // Subqueries compose with set operators in scalar positions.
    let db = xy_db();
    let q = "SELECT x.b FROM X x \
             WHERE x.a SUBSETEQ ((SELECT y.a FROM Y y WHERE x.b = y.b) UNION x.a)";
    let oracle = db
        .query_with(
            q,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    // z appears under a ∪, so classification must refuse to flatten but
    // nest-join strategies still decorrelate the subquery binding.
    let all = db.catalog().table("X").unwrap().len();
    assert_eq!(oracle.len(), all, "s ⊆ (s' ∪ s) is a tautology");
    for strat in strategies() {
        let r = db
            .query_with(q, QueryOptions::default().strategy(strat))
            .unwrap();
        assert_eq!(r.values, oracle.values, "{}", strat.name());
    }
}

#[test]
fn failure_paths_are_errors_not_panics() {
    let db = xy_db();
    // Unknown table (caught by typecheck).
    assert!(matches!(
        db.query("SELECT q FROM Q q"),
        Err(TmqlError::Type(_))
    ));
    // Field access on an integer.
    assert!(db.query("SELECT x.n.w FROM X x").is_err());
    // Division by zero at runtime.
    let err = db.query("SELECT x.n / 0 FROM X x").unwrap_err();
    assert!(matches!(err, TmqlError::Model(_)), "{err}");
    // Aggregate over a non-set.
    assert!(db.query("SELECT COUNT(x.n) FROM X x").is_err());
    // Deeply unbalanced parens.
    assert!(db.query("SELECT ((((x FROM X x").is_err());
}

#[test]
fn typecheck_can_be_disabled_for_trusted_queries() {
    let db = xy_db();
    let opts = QueryOptions {
        typecheck: false,
        ..QueryOptions::default()
    };
    // Well-typed query still runs.
    assert!(db.query_with("SELECT x.n FROM X x", opts).is_ok());
    // An ill-typed query surfaces as a runtime (Model) error instead.
    let err = db.query_with("SELECT x.n.w FROM X x", opts).unwrap_err();
    assert!(matches!(err, TmqlError::Model(_)), "{err}");
}
