//! Experiment T2: reproduce the paper's **Table 2** end-to-end.
//!
//! Every predicate template runs through the full pipeline (parse → type
//! check → translate → classify/unnest → execute) on a generated complex
//! object database. For each row we check (a) the classification matches
//! the paper's rewrite column, (b) the optimized plan has the promised
//! shape (semijoin / antijoin / nest join), and (c) every strategy that
//! claims correctness returns the nested-loop answer.

use tmql::{Database, QueryOptions, UnnestStrategy};
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::table2_templates;

fn db() -> Database {
    let cfg = GenConfig {
        outer: 30,
        inner: 40,
        dangling_fraction: 0.3,
        max_set: 3,
        ..GenConfig::default()
    };
    Database::from_catalog(gen_xy(&cfg))
}

/// The paper's rewrite column: which rows flatten, and to what.
fn expected_shape(name: &str) -> &'static str {
    match name {
        "z = ∅" | "count(z) = 0" | "x.n ∉ z" | "x.a ⊇ z" | "x.a ∩ z = ∅" | "∀w ∈ x.a (w ∉ z)" => {
            "antijoin"
        }
        "count(z) <> 0" | "x.n ∈ z" | "x.a ∩ z ≠ ∅" => "semijoin",
        _ => "nestjoin",
    }
}

#[test]
fn table2_shapes_and_results() {
    let db = db();
    for (name, src) in table2_templates() {
        let oracle = db
            .query_with(
                &src,
                QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
            )
            .unwrap_or_else(|e| panic!("oracle failed on `{name}`: {e}"));
        // Shape check under Optimal.
        let (_, optimized) = db
            .plan_with(
                &src,
                QueryOptions::default().strategy(UnnestStrategy::Optimal),
            )
            .unwrap();
        let shape = expected_shape(name);
        let has = |p: &tmql::Plan, what: &str| -> bool {
            match what {
                "semijoin" => p.any_node(&mut |n| {
                    matches!(
                        n,
                        tmql::Plan::Join {
                            kind: tmql_algebra::JoinKind::Semi,
                            ..
                        }
                    )
                }),
                "antijoin" => p.any_node(&mut |n| {
                    matches!(
                        n,
                        tmql::Plan::Join {
                            kind: tmql_algebra::JoinKind::Anti,
                            ..
                        }
                    )
                }),
                _ => p.has_nest_join(),
            }
        };
        assert!(
            has(&optimized, shape),
            "row `{name}` should use a {shape}:\n{optimized}"
        );
        if shape != "nestjoin" {
            assert!(
                !optimized.has_nest_join(),
                "row `{name}` must not group:\n{optimized}"
            );
        }
        // Result check under every correct strategy.
        for strat in [
            UnnestStrategy::Optimal,
            UnnestStrategy::NestJoin,
            UnnestStrategy::GanskiWong,
            UnnestStrategy::FlattenSemiAnti,
        ] {
            let got = db
                .query_with(&src, QueryOptions::default().strategy(strat))
                .unwrap_or_else(|e| panic!("{} failed on `{name}`: {e}", strat.name()));
            assert_eq!(
                got.values,
                oracle.values,
                "row `{name}` under {}",
                strat.name()
            );
        }
    }
}

#[test]
fn print_reproduced_table2() {
    // The rendered classifier table (compare with the paper's Table 2).
    let rendered = tmql_core::table2::render();
    println!("{rendered}");
    assert!(rendered.contains("x.a ⊇ z"));
    // Count the grouping-free rows: 9 of 16 have rewrites.
    let rewrites = rendered.matches("∃v ∈ z").count();
    assert_eq!(rewrites, 9, "{rendered}");
}
