//! Experiment E6: the Section 8 query processing example.
//!
//! The acyclic three-block query with neighbour correlation predicates:
//!
//! ```text
//! SELECT x FROM X x
//! WHERE x.a ⊆ (SELECT y.a FROM Y y
//!              WHERE x.b = y.b AND
//!                    y.c ⊆ (SELECT z.c FROM Z z WHERE y.d = z.d))
//! ```
//!
//! Both predicates require grouping (Table 2), so the paper's strategy is
//! two nest joins, built inside-out — steps (1)–(4) of Section 8. When the
//! operators change to ∈ / ∉, the inner nest join becomes an antijoin and
//! the outer one a semijoin.

use tmql::{Database, Plan, QueryOptions, UnnestStrategy, Value};
use tmql_algebra::JoinKind;
use tmql_workload::gen::{gen_xyz, GenConfig};
use tmql_workload::queries::{SECTION8, SECTION8_FLAT};
use tmql_workload::schemas::section8_catalog;

#[test]
fn subseteq_version_uses_two_nest_joins() {
    let db = Database::from_catalog(section8_catalog());
    let (translated, plan) = db
        .plan_with(
            SECTION8,
            QueryOptions::default().strategy(UnnestStrategy::Optimal),
        )
        .unwrap();
    assert_eq!(
        translated.count_nodes(&mut |n| matches!(n, Plan::Apply { .. })),
        2,
        "two nested blocks"
    );
    assert!(!plan.has_apply(), "{plan}");
    assert_eq!(
        plan.count_nodes(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Nest { .. },
                ..
            }
        )),
        2,
        "both blocks become nest joins (steps 1 and 3)\n{plan}"
    );
    // Step order: the Y Δ Z nest join must sit under the X Δ (…) one.
    let Some(outer_right_has_nj) = find_outer_nestjoin_right(&plan) else {
        panic!("outer nest join not found\n{plan}");
    };
    assert!(
        outer_right_has_nj,
        "inner nest join feeds the outer's right operand\n{plan}"
    );
}

fn find_outer_nestjoin_right(plan: &Plan) -> Option<bool> {
    let mut result = None;
    plan.any_node(&mut |n| {
        if let Plan::Join {
            kind: JoinKind::Nest { .. },
            left,
            right,
            ..
        } = n
        {
            if matches!(&**left, Plan::ScanTable { table, .. } if table == "X") {
                result = Some(right.has_nest_join());
                return true;
            }
        }
        false
    });
    result
}

#[test]
fn subseteq_version_expected_result() {
    // Hand-computed on the fixed fixture (see schemas::section8_catalog):
    // x2 = (∅, 2) and x4 = ({3}, 1) qualify.
    let db = Database::from_catalog(section8_catalog());
    let r = db.query(SECTION8).unwrap();
    assert_eq!(r.len(), 2, "{:?}", r.values);
    let bs: Vec<i64> = r
        .values
        .iter()
        .map(|v| v.as_tuple().unwrap().get("b").unwrap().as_int().unwrap())
        .collect();
    assert!(bs.contains(&2));
    assert!(bs.contains(&1));
    // The ∅-attribute row relies on correct dangling handling end-to-end.
    let has_empty = r
        .values
        .iter()
        .any(|v| v.as_tuple().unwrap().get("a").unwrap() == &Value::empty_set());
    assert!(has_empty);
}

#[test]
fn flat_version_replaces_nest_joins_with_semi_and_anti() {
    // "the nest join operation in (1) may be replaced by an antijoin
    // operation, and the nest join in (3) may be replaced by a semijoin."
    let db = Database::from_catalog(section8_catalog());
    let (_, plan) = db
        .plan_with(
            SECTION8_FLAT,
            QueryOptions::default().strategy(UnnestStrategy::Optimal),
        )
        .unwrap();
    assert!(!plan.has_apply(), "{plan}");
    assert!(!plan.has_nest_join(), "no grouping needed anywhere\n{plan}");
    assert!(
        plan.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Semi,
                ..
            }
        )),
        "outer block → semijoin\n{plan}"
    );
    assert!(
        plan.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Anti,
                ..
            }
        )),
        "inner block → antijoin\n{plan}"
    );
}

#[test]
fn all_strategies_agree_on_both_versions() {
    for (name, src) in [("SECTION8", SECTION8), ("SECTION8_FLAT", SECTION8_FLAT)] {
        for cfg in [
            GenConfig {
                outer: 25,
                inner: 30,
                dangling_fraction: 0.3,
                ..GenConfig::default()
            },
            GenConfig {
                outer: 40,
                inner: 20,
                dangling_fraction: 0.0,
                ..GenConfig::default()
            },
        ] {
            let db = Database::from_catalog(gen_xyz(&cfg));
            let oracle = db
                .query_with(
                    src,
                    QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
                )
                .unwrap();
            for strat in [
                UnnestStrategy::Optimal,
                UnnestStrategy::NestJoin,
                UnnestStrategy::GanskiWong,
                UnnestStrategy::FlattenSemiAnti,
            ] {
                let got = db
                    .query_with(src, QueryOptions::default().strategy(strat))
                    .unwrap();
                assert_eq!(got.values, oracle.values, "{name} under {}", strat.name());
            }
        }
    }
}

#[test]
fn flat_version_does_less_work_than_nest_join_version() {
    // The Section 8 punchline: semi/antijoins "can be implemented more
    // efficiently than the nest (or regular) join operator".
    let cfg = GenConfig {
        outer: 120,
        inner: 150,
        dangling_fraction: 0.25,
        ..GenConfig::default()
    };
    let db = Database::from_catalog(gen_xyz(&cfg));
    let flat = db
        .query_with(
            SECTION8_FLAT,
            QueryOptions::default().strategy(UnnestStrategy::Optimal),
        )
        .unwrap();
    let forced_nj = db
        .query_with(
            SECTION8_FLAT,
            QueryOptions::default().strategy(UnnestStrategy::NestJoin),
        )
        .unwrap();
    assert_eq!(flat.values, forced_nj.values);
    assert!(
        flat.metrics.total_work() <= forced_nj.metrics.total_work(),
        "flat {} vs nest join {}",
        flat.metrics.total_work(),
        forced_nj.metrics.total_work()
    );
}
