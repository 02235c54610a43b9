//! Experiment E4: the Section 5 UNNEST special case.
//!
//! `UNNEST(SELECT (SELECT (a = x.n, b = y.b) FROM Y y WHERE x.b = y.a) FROM X x)`
//! is equivalent to the flat join
//! `SELECT (a = x.n, b = y.b) FROM X x, Y y WHERE x.b = y.a` — "the one
//! special case in which grouping can be avoided" for SELECT-clause
//! nesting.

use tmql::{Database, QueryOptions, UnnestStrategy};
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::UNNEST_COLLAPSE;

fn db() -> Database {
    let cfg = GenConfig {
        outer: 25,
        inner: 30,
        dangling_fraction: 0.3,
        ..GenConfig::default()
    };
    Database::from_catalog(gen_xy(&cfg))
}

#[test]
fn collapse_rule_produces_flat_join() {
    let db = db();
    let (translated, optimized) = db
        .plan_with(UNNEST_COLLAPSE, QueryOptions::default())
        .unwrap();
    assert!(
        translated.has_apply(),
        "before: nested-loop semantics\n{translated}"
    );
    assert!(!optimized.has_apply(), "after: decorrelated\n{optimized}");
    assert!(
        !optimized.has_nest_join(),
        "after: no grouping at all\n{optimized}"
    );
    assert!(
        optimized.any_node(&mut |n| matches!(
            n,
            tmql::Plan::Join {
                kind: tmql_algebra::JoinKind::Inner,
                ..
            }
        )),
        "after: a plain join\n{optimized}"
    );
}

#[test]
fn collapse_equals_flat_join_query() {
    let db = db();
    let collapsed = db.query(UNNEST_COLLAPSE).unwrap();
    let flat = db
        .query("SELECT (a = x.n, b = y.b) FROM X x, Y y WHERE x.b = y.a")
        .unwrap();
    assert_eq!(collapsed.values, flat.values);
}

#[test]
fn collapse_equals_nested_loop_semantics() {
    let db = db();
    let oracle = db
        .query_with(
            UNNEST_COLLAPSE,
            QueryOptions {
                apply_rules: false,
                ..QueryOptions::default()
            }
            .strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    let optimized = db.query(UNNEST_COLLAPSE).unwrap();
    assert_eq!(optimized.values, oracle.values);
    // Under nest join without the collapse rule the result must also
    // agree (set-of-sets built, then flattened).
    let nj = db
        .query_with(
            UNNEST_COLLAPSE,
            QueryOptions {
                apply_rules: false,
                ..QueryOptions::default()
            }
            .strategy(UnnestStrategy::NestJoin),
        )
        .unwrap();
    assert_eq!(nj.values, oracle.values);
}

#[test]
fn collapse_saves_work() {
    let db = db();
    let with_rule = db.query(UNNEST_COLLAPSE).unwrap();
    let without_rule = db
        .query_with(
            UNNEST_COLLAPSE,
            QueryOptions {
                apply_rules: false,
                ..QueryOptions::default()
            }
            .strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    assert!(
        with_rule.metrics.total_work() < without_rule.metrics.total_work(),
        "collapsed {} vs nested-loop {}",
        with_rule.metrics.total_work(),
        without_rule.metrics.total_work()
    );
}
