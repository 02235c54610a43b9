//! The paper's WITH clause: `WHERE P(x, z) WITH z = (SELECT …)` — the
//! exact notation of the general two-block format in Section 4 — must
//! parse, type-check, translate to the canonical Apply shape, and unnest
//! identically to the inline-subquery spelling.

use tmql::{Database, Plan, QueryOptions, UnnestStrategy};
use tmql_algebra::JoinKind;
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::SUBSETEQ_BUG;

const WITH_SUBSETEQ: &str = "\
SELECT x
FROM X x
WHERE x.a SUBSETEQ z
WITH z = (SELECT y.a FROM Y y WHERE x.b = y.b)";

const WITH_COUNT: &str = "\
SELECT x
FROM X x
WHERE x.n = COUNT(z)
WITH z = (SELECT y.a FROM Y y WHERE x.b = y.b)";

fn db() -> Database {
    let cfg = GenConfig {
        outer: 30,
        inner: 40,
        dangling_fraction: 0.3,
        ..GenConfig::default()
    };
    Database::from_catalog(gen_xy(&cfg))
}

#[test]
fn with_clause_equals_inline_subquery() {
    let db = db();
    let with_version = db.query(WITH_SUBSETEQ).unwrap();
    let inline_version = db.query(SUBSETEQ_BUG).unwrap();
    assert_eq!(with_version.values, inline_version.values);
}

#[test]
fn with_clause_unnests_into_a_nest_join_with_the_users_label() {
    let db = db();
    let (translated, optimized) = db
        .plan_with(WITH_SUBSETEQ, QueryOptions::default())
        .unwrap();
    // The Apply carries the user's name `z`, not a generated label.
    let has_z_apply =
        translated.any_node(&mut |n| matches!(n, Plan::Apply { label, .. } if label == "z"));
    assert!(has_z_apply, "{translated}");
    let has_z_nestjoin = optimized.any_node(
        &mut |n| matches!(n, Plan::Join { kind: JoinKind::Nest { label, .. }, .. } if label == "z"),
    );
    assert!(has_z_nestjoin, "{optimized}");
}

#[test]
fn with_clause_all_strategies_agree() {
    let db = db();
    for src in [WITH_SUBSETEQ, WITH_COUNT] {
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
            let r = db
                .query_with(src, QueryOptions::default().strategy(strat))
                .unwrap();
            assert_eq!(r.values, oracle.values, "{src} under {}", strat.name());
        }
    }
}

#[test]
fn with_plain_expression_binding() {
    let db = db();
    let r = db
        .query("SELECT (v = x.n, w = lim) FROM X x WHERE x.n < lim WITH lim = 10")
        .unwrap();
    for v in &r.values {
        let t = v.as_tuple().unwrap();
        assert!(t.get("v").unwrap().as_int().unwrap() < 10);
        assert_eq!(t.get("w").unwrap().as_int().unwrap(), 10);
    }
}

#[test]
fn with_chained_bindings() {
    let db = db();
    let r = db
        .query(
            "SELECT x.n FROM X x WHERE x.n >= lo AND x.n < hi \
             WITH lo = 2, hi = lo + 5",
        )
        .unwrap();
    for v in &r.values {
        let n = v.as_int().unwrap();
        assert!((2..7).contains(&n), "{n}");
    }
}

#[test]
fn with_shadowing_rejected() {
    let db = db();
    let err = db
        .query("SELECT x FROM X x WHERE TRUE WITH x = 1")
        .unwrap_err();
    assert!(matches!(err, tmql::TmqlError::Parse(_)), "{err}");
    let err = db
        .query("SELECT x FROM X x WHERE TRUE WITH a = 1, a = 2")
        .unwrap_err();
    assert!(matches!(err, tmql::TmqlError::Parse(_)), "{err}");
}
