//! Experiment E2: the SUBSETEQ bug (Section 4) — the paper's
//! complex-object generalization of the COUNT bug.
//!
//! `SELECT x FROM X x WHERE x.a ⊆ (SELECT y.a FROM Y y WHERE x.b = y.b)`
//!
//! "X-tuples for which x.a = ∅ that are not matched by any t-tuple on the
//! condition x.b = t.b are lost" under the Kim-style transformation.

use tmql::{Database, QueryOptions, Table, UnnestStrategy, Value};
use tmql_model::{Record, Ty};
use tmql_storage::{table::int_table, Catalog};
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::SUBSETEQ_BUG;

#[path = "support/oracle.rs"]
mod oracle;

/// The Section 4 scenario, minimal: one dangling X row with x.a = ∅.
fn fixture() -> Catalog {
    let mut cat = Catalog::new();
    let mut x = Table::new(
        "X",
        vec![
            ("a".into(), Ty::Set(Box::new(Ty::Int))),
            ("b".into(), Ty::Int),
            ("n".into(), Ty::Int),
        ],
    );
    let rows: Vec<(Vec<i64>, i64, i64)> = vec![
        (vec![10], 1, 0),     // matched, {10} ⊆ {10, 11} ✓
        (vec![10, 99], 1, 1), // matched, 99 ∉ {10, 11} ✗
        (vec![], 7, 2),       // DANGLING with x.a = ∅: ∅ ⊆ ∅ ✓ — the bug row
        (vec![10], 7, 3),     // dangling with x.a ≠ ∅: {10} ⊆ ∅ ✗
    ];
    for (a, b, n) in rows {
        x.insert(
            Record::new([
                ("a".to_string(), Value::set(a.into_iter().map(Value::Int))),
                ("b".to_string(), Value::Int(b)),
                ("n".to_string(), Value::Int(n)),
            ])
            .unwrap(),
        )
        .unwrap();
    }
    cat.register(x).unwrap();
    cat.register(int_table("Y", &["b", "a"], &[&[1, 10], &[1, 11]]))
        .unwrap();
    cat
}

#[test]
fn subseteq_bug_demonstrated_and_fixed() {
    let db = Database::from_catalog(fixture());
    let nl = db
        .query_with(
            SUBSETEQ_BUG,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    let want = oracle::answer(db.catalog(), SUBSETEQ_BUG).unwrap();
    oracle::assert_matches(&nl.values, &want, "nested loop");
    assert_eq!(nl.len(), 2, "rows n=0 and n=2 qualify");

    let kim = db
        .query_with(
            SUBSETEQ_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Kim),
        )
        .unwrap();
    assert_eq!(
        kim.len(),
        1,
        "Kim loses the dangling ∅-row — the SUBSETEQ bug"
    );

    for strat in [
        UnnestStrategy::GanskiWong,
        UnnestStrategy::Muralikrishna,
        UnnestStrategy::NestJoin,
        UnnestStrategy::Optimal,
    ] {
        let got = db
            .query_with(SUBSETEQ_BUG, QueryOptions::default().strategy(strat))
            .unwrap();
        assert_eq!(got.values, nl.values, "{}", strat.name());
    }
}

#[test]
fn kim_plan_uses_nest_then_join_as_in_section4() {
    // The paper's Section 4 shows the transformation: T = ν(Y) grouped by
    // b, then X ⋈ T on x.b = t.b ∧ x.a ⊆ t.as.
    let db = Database::from_catalog(fixture());
    let (_, kim) = db
        .plan_with(
            SUBSETEQ_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Kim),
        )
        .unwrap();
    assert!(
        kim.any_node(&mut |n| matches!(n, tmql::Plan::Nest { star: false, .. })),
        "{kim}"
    );
    assert!(
        kim.any_node(&mut |n| matches!(
            n,
            tmql::Plan::Join {
                kind: tmql_algebra::JoinKind::Inner,
                ..
            }
        )),
        "{kim}"
    );
    assert!(!kim.has_apply());
}

#[test]
fn optimal_uses_nest_join_for_subseteq() {
    // ⊆ requires grouping (Table 2), so Optimal must pick Δ, not ⋉.
    let db = Database::from_catalog(fixture());
    let (_, plan) = db
        .plan_with(
            SUBSETEQ_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Optimal),
        )
        .unwrap();
    assert!(plan.has_nest_join(), "{plan}");
    assert!(!plan.any_node(&mut |n| matches!(
        n,
        tmql::Plan::Join {
            kind: tmql_algebra::JoinKind::Semi,
            ..
        }
    )));
}

#[test]
fn generated_sweep_counts_lost_rows() {
    // On generated data, Kim's deficit equals exactly the number of
    // dangling rows with x.a = ∅ (∅ ⊆ ∅ holds) — quantifying the bug.
    let cfg = GenConfig {
        outer: 80,
        inner: 60,
        dangling_fraction: 0.4,
        ..GenConfig::default()
    };
    let db = Database::from_catalog(gen_xy(&cfg));
    let want = oracle::answer(db.catalog(), SUBSETEQ_BUG).unwrap();
    let nl = db
        .query_with(
            SUBSETEQ_BUG,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    oracle::assert_matches(&nl.values, &want, "nested loop");
    let kim = db
        .query_with(
            SUBSETEQ_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Kim),
        )
        .unwrap();

    // Count the dangling ∅-rows of the oracle's answer.
    let matched_keys = oracle::answer(db.catalog(), "SELECT y.b FROM Y y").unwrap();
    let lost = want
        .iter()
        .filter(|x| {
            matches!(x.field("a"), Some(oracle::V::Set(a)) if a.is_empty())
                && !oracle::member(x.field("b").unwrap(), &matched_keys)
        })
        .count();
    assert_eq!(want.len() - kim.len(), lost, "deficit = dangling ∅-rows");
    assert!(lost > 0, "the sweep must actually exercise the bug");
}
