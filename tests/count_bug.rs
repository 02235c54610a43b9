//! Experiment E1: the COUNT bug (Section 2).
//!
//! `SELECT * FROM R WHERE R.B = (SELECT COUNT(*) FROM S WHERE R.C = S.C)`
//!
//! Kim's algorithm loses the dangling `R` rows with `b = 0`; the
//! Ganski–Wong outerjoin fix and the paper's nest join keep them. This
//! test demonstrates the bug on the fixed Section 2 fixture and across a
//! dangling-fraction sweep on generated data.

use tmql::{Database, QueryOptions, UnnestStrategy, Value};
use tmql_workload::gen::{gen_rs, GenConfig};
use tmql_workload::queries::COUNT_BUG;
use tmql_workload::schemas::count_bug_catalog;

#[path = "support/oracle.rs"]
mod oracle;

#[test]
fn fixed_fixture_demonstrates_the_bug() {
    let db = Database::from_catalog(count_bug_catalog());

    let nl = db
        .query_with(
            COUNT_BUG,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    let want = oracle::answer(db.catalog(), COUNT_BUG).unwrap();
    oracle::assert_matches(&nl.values, &want, "nested loop");
    // Rows a=1 (b=2, two matches), a=2 (b=1, one match), a=3 (b=0,
    // dangling) qualify; a=4 has the wrong count.
    assert_eq!(nl.len(), 3);
    let has_dangling = nl
        .values
        .iter()
        .any(|v| v.as_tuple().unwrap().get("a").unwrap() == &Value::Int(3));
    assert!(
        has_dangling,
        "the b=0 dangling row is part of the correct answer"
    );

    // Kim: the bug — exactly the dangling row is missing.
    let kim = db
        .query_with(
            COUNT_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Kim),
        )
        .unwrap();
    assert_eq!(kim.len(), 2, "Kim loses the dangling row");
    assert!(kim.values.iter().all(|v| nl.values.contains(v)));
    let kim_has_dangling = kim
        .values
        .iter()
        .any(|v| v.as_tuple().unwrap().get("a").unwrap() == &Value::Int(3));
    assert!(
        !kim_has_dangling,
        "the missing row is precisely the dangling one"
    );

    // The fixes.
    for strat in [
        UnnestStrategy::GanskiWong,
        UnnestStrategy::Muralikrishna,
        UnnestStrategy::NestJoin,
        UnnestStrategy::Optimal,
    ] {
        let got = db
            .query_with(COUNT_BUG, QueryOptions::default().strategy(strat))
            .unwrap();
        assert_eq!(got.values, nl.values, "{} must fix the bug", strat.name());
    }
}

#[test]
fn plan_shapes_match_section2() {
    let db = Database::from_catalog(count_bug_catalog());
    // Kim: GROUP BY + regular join (transformation (1) of Section 2).
    let (_, kim) = db
        .plan_with(
            COUNT_BUG,
            QueryOptions::default().strategy(UnnestStrategy::Kim),
        )
        .unwrap();
    assert!(
        kim.any_node(&mut |n| matches!(n, tmql::Plan::GroupAgg { .. })),
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
    // Ganski–Wong: outerjoin + ν*.
    let (_, gw) = db
        .plan_with(
            COUNT_BUG,
            QueryOptions::default().strategy(UnnestStrategy::GanskiWong),
        )
        .unwrap();
    assert!(
        gw.any_node(&mut |n| matches!(
            n,
            tmql::Plan::Join {
                kind: tmql_algebra::JoinKind::LeftOuter,
                ..
            }
        )),
        "{gw}"
    );
    assert!(
        gw.any_node(&mut |n| matches!(n, tmql::Plan::Nest { star: true, .. })),
        "{gw}"
    );
    // The paper: one nest join, no outerjoin, no NULLs anywhere.
    let (_, nj) = db
        .plan_with(
            COUNT_BUG,
            QueryOptions::default().strategy(UnnestStrategy::NestJoin),
        )
        .unwrap();
    assert!(nj.has_nest_join(), "{nj}");
    assert!(
        !nj.any_node(&mut |n| matches!(
            n,
            tmql::Plan::Join {
                kind: tmql_algebra::JoinKind::LeftOuter,
                ..
            }
        )),
        "{nj}"
    );
}

#[test]
fn dangling_fraction_sweep() {
    for dangling in [0.0, 0.25, 0.5, 0.9] {
        let cfg = GenConfig {
            outer: 60,
            inner: 90,
            dangling_fraction: dangling,
            ..GenConfig::default()
        };
        let db = Database::from_catalog(gen_rs(&cfg));
        let want = oracle::answer(db.catalog(), COUNT_BUG).unwrap();
        let nl = db
            .query_with(
                COUNT_BUG,
                QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
            )
            .unwrap();
        oracle::assert_matches(
            &nl.values,
            &want,
            &format!("nested loop, dangling={dangling}"),
        );
        let kim = db
            .query_with(
                COUNT_BUG,
                QueryOptions::default().strategy(UnnestStrategy::Kim),
            )
            .unwrap();
        let fixed = db
            .query_with(
                COUNT_BUG,
                QueryOptions::default().strategy(UnnestStrategy::Optimal),
            )
            .unwrap();
        oracle::assert_matches(
            &fixed.values,
            &want,
            &format!("optimal, dangling={dangling}"),
        );

        // Kim's deficit is *exactly* the set of answer rows whose key has
        // no S partner: only those evaluate `b = COUNT(∅) = 0` correctly
        // in the nested query but vanish from the join. (Even at a 0.0
        // dangling fraction the uniform sampler can leave keys unhit, so
        // we count unmatched keys from the data rather than trusting the
        // knob.) Both sides of the count are the oracle's.
        let matched = oracle::answer(db.catalog(), "SELECT y.c FROM S y").unwrap();
        let lost = want
            .iter()
            .filter(|x| !oracle::member(x.field("c").unwrap(), &matched))
            .count();
        assert_eq!(
            want.len() - kim.len(),
            lost,
            "dangling={dangling}: deficit must equal the unmatched qualifying rows"
        );
        if dangling >= 0.25 {
            assert!(lost > 0, "dangling={dangling}: sweep must exercise the bug");
        }
    }
}
