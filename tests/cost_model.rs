//! The cost-based decision layer end to end: storage statistics →
//! estimates → per-block strategy choice, estimated rows in `EXPLAIN`,
//! and estimated-vs-actual in the executed profile.

use tmql::{Database, Plan, QueryOptions, UnnestStrategy};
use tmql_algebra::JoinKind;
use tmql_workload::gen::{gen_rs, GenConfig};
use tmql_workload::queries::{COUNT_BUG, MEMBERSHIP};

fn rs_db(outer: usize, inner: usize) -> Database {
    let cfg = GenConfig {
        outer,
        inner,
        dangling_fraction: 0.25,
        ..GenConfig::default()
    };
    Database::from_catalog(gen_rs(&cfg))
}

fn plan_for(db: &Database, src: &str, strat: UnnestStrategy) -> Plan {
    db.plan_with(src, QueryOptions::default().strategy(strat))
        .expect("plans")
        .1
}

/// The headline divergence: on the COUNT-bug query with a high inner
/// fan-out, grouping *first* (Muralikrishna's γ + ⟕) touches each inner
/// row once and joins 1:1, while the rule-based Optimal pipeline's nest
/// join materializes a set per outer row before aggregating. The cost
/// model sees this through the stats; the rules cannot.
#[test]
fn cost_based_diverges_from_optimal_at_high_fanout() {
    let db = rs_db(128, 1024);
    let rule = plan_for(&db, COUNT_BUG, UnnestStrategy::Optimal);
    let cost = plan_for(&db, COUNT_BUG, UnnestStrategy::CostBased);
    assert!(
        rule.has_nest_join(),
        "rule-based choice is the nest join: {rule}"
    );
    assert!(
        !cost.has_nest_join(),
        "cost-based picks group-first here: {cost}"
    );
    assert!(
        cost.any_node(&mut |n| matches!(n, Plan::GroupAgg { .. })),
        "group-first shape expected: {cost}"
    );
    // Different plan, same answer.
    let a = db.query_with(COUNT_BUG, QueryOptions::default()).unwrap();
    let b = db
        .query_with(
            COUNT_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Optimal),
        )
        .unwrap();
    assert_eq!(a.values, b.values);
}

/// At balanced cardinalities the nest join wins the cost race and the
/// cost-based choice coincides with the paper's pipeline.
#[test]
fn cost_based_agrees_with_optimal_at_balanced_sizes() {
    let db = rs_db(128, 128);
    let rule = plan_for(&db, COUNT_BUG, UnnestStrategy::Optimal);
    let cost = plan_for(&db, COUNT_BUG, UnnestStrategy::CostBased);
    assert_eq!(rule, cost, "same choice expected at fan-out ≈ 1");
    assert!(cost.has_nest_join());
}

/// Theorem 1 flattening stays the winner wherever it applies: the
/// semijoin does strictly less work than any grouping strategy.
#[test]
fn cost_based_keeps_semijoin_for_membership() {
    let cfg = GenConfig {
        outer: 128,
        inner: 512,
        ..GenConfig::default()
    };
    let db = Database::from_catalog(tmql_workload::gen::gen_xy(&cfg));
    let cost = plan_for(&db, MEMBERSHIP, UnnestStrategy::CostBased);
    assert!(
        cost.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Semi,
                ..
            }
        )),
        "{cost}"
    );
    assert!(!cost.has_apply());
}

/// `EXPLAIN` carries the cost model's per-operator row estimates in both
/// the optimized-logical and physical sections.
#[test]
fn explain_shows_estimated_rows() {
    let db = rs_db(64, 64);
    let s = db.explain(COUNT_BUG).unwrap();
    let optimized = s.split("== optimized").nth(1).unwrap();
    assert!(optimized.contains("est_rows="), "{s}");
    let physical = s.split("== physical ==").nth(1).unwrap();
    assert!(physical.contains("est_rows="), "{s}");
    // The root scan's estimate is exact: stats know the cardinality.
    assert!(physical.contains("est_rows=64"), "{s}");
}

/// The executed profile shows estimated and actual rows side by side, and
/// the structured profiles expose a finite q-error.
#[test]
fn profile_shows_estimated_vs_actual() {
    let db = rs_db(64, 64);
    let s = db.profile_with(COUNT_BUG, QueryOptions::default()).unwrap();
    let executed = s.split("== analyze (executed) ==\n").nth(1).unwrap();
    assert!(
        executed.contains("est="),
        "estimates missing from profile: {s}"
    );
    let r = db.query_with(COUNT_BUG, QueryOptions::default()).unwrap();
    assert!(!r.ops.is_empty());
    assert!(
        r.ops.iter().all(|op| op.est_rows.is_some()),
        "every operator estimated"
    );
    let q = r.max_qerror();
    assert!(q >= 1.0 && q.is_finite(), "q-error {q}");
    // Scans are estimated exactly, so at least one operator has q-error 1.
    assert!(
        r.ops.iter().any(|op| op.qerror() == Some(1.0)),
        "{:?}",
        r.ops
    );
}

/// Facade-level pin of the Section 3.2 restriction: a subquery iterating a
/// set-valued attribute of the outer variable cannot be decorrelated, so
/// the cost-based default keeps the nested loop (the `Apply` survives).
#[test]
fn cost_based_keeps_nested_loop_for_set_valued_operands() {
    use tmql::{Record, Table, Ty, Value};
    let mut db = Database::new();
    let mut t = Table::new(
        "DEPT",
        vec![
            ("mgr".into(), Ty::Int),
            ("emps".into(), Ty::Set(Box::new(Ty::Int))),
        ],
    );
    t.insert(
        Record::new([
            ("mgr".to_string(), Value::Int(1)),
            (
                "emps".to_string(),
                Value::set([Value::Int(1), Value::Int(2)]),
            ),
        ])
        .unwrap(),
    )
    .unwrap();
    db.register_table(t).unwrap();
    let q = "SELECT d FROM DEPT d WHERE d.mgr IN (SELECT e FROM d.emps e)";
    let (_, plan) = db.plan_with(q, QueryOptions::default()).unwrap();
    assert!(plan.has_apply(), "not closed → nested loop: {plan}");
    let r = db.query(q).unwrap();
    assert_eq!(r.len(), 1);
}
