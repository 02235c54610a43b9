//! A flat equi-join is planned as a join, not a cross product.
//!
//! `FROM X x, Y y WHERE x.b = y.b` translates to `σ[x.b = y.b](X ⋈[true]
//! Y)`. Selection pushdown splits σ's conjuncts: those one operand covers
//! go to that operand, the rest join the ⋈ predicate. So the equality
//! becomes a hash join's key, and the comparisons grow with the inputs,
//! not with their product. Each query's answer equals the answer without
//! the rewrite rules (the cross product under the fused σ) and the
//! reference evaluator's.

#[path = "support/oracle.rs"]
mod oracle;

use tmql::{Database, QueryOptions};
use tmql_workload::gen::{gen_xy, gen_xyz, GenConfig};

fn config(n: usize, seed: u64) -> GenConfig {
    GenConfig {
        outer: n,
        inner: n,
        dangling_fraction: 0.25,
        seed,
        ..GenConfig::default()
    }
}

const TWO_TABLES: [&str; 3] = [
    "SELECT (a = x.n, b = y.a) FROM X x, Y y WHERE x.b = y.b",
    "SELECT (a = x.n, b = y.a) FROM X x, Y y WHERE x.b = y.b AND x.n < 20",
    "SELECT (a = x.n, b = y.a) FROM X x, Y y WHERE y.a < 30 AND x.b = y.b AND x.n > 3",
];

const THREE_TABLES: [&str; 2] = [
    "SELECT (b = x.b, d = z.d) FROM X x, Y y, Z z WHERE x.b = y.b AND y.d = z.d",
    "SELECT (b = x.b, d = z.d) FROM X x, Y y, Z z WHERE x.b = y.b AND z.c < 5 AND y.d = z.d",
];

/// Run `src` with and without the rewrite rules and against the oracle;
/// check the plan and that the comparisons stay within `rows`, the sum
/// of the tables' sizes.
fn check(db: &Database, src: &str, rows: u64) {
    let got = db.query(src).expect("runs");
    let unrewritten = QueryOptions {
        apply_rules: false,
        ..QueryOptions::default()
    };
    let cross = db.query_with(src, unrewritten).expect("runs without rules");
    assert_eq!(
        got.values, cross.values,
        "rules changed the answer of {src}"
    );
    let want =
        oracle::answer(db.catalog(), src).unwrap_or_else(|e| panic!("oracle on {src}: {e:?}"));
    oracle::assert_matches(&got.values, &want, src);
    let plan = db.explain(src).expect("explains");
    let physical = plan
        .split("== physical ==")
        .nth(1)
        .expect("a physical section");
    assert!(physical.contains("HashJoin[join]"), "{src}:\n{plan}");
    assert!(!physical.contains("Join[join][σ]"), "{src}:\n{plan}");
    assert!(!plan.contains("true ∧"), "{src}:\n{plan}");
    let cmp = got.metrics.comparisons;
    assert!(cmp <= rows, "{src}: cmp={cmp} for {rows} stored rows");
    assert!(
        cross.metrics.comparisons > rows,
        "the cross product compares per pair"
    );
}

#[test]
fn two_table_equi_joins_are_hash_joins() {
    for seed in [1, 7, 42] {
        for n in [64, 256] {
            let db = Database::from_catalog(gen_xy(&config(n, seed)));
            for src in TWO_TABLES {
                check(&db, src, 2 * n as u64);
            }
        }
    }
}

#[test]
fn three_table_equi_joins_are_hash_joins() {
    for seed in [1, 7, 42] {
        let n = 32;
        let db = Database::from_catalog(gen_xyz(&config(n, seed)));
        for src in THREE_TABLES {
            check(&db, src, 3 * n as u64);
        }
    }
}
