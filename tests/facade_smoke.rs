//! Smoke test for the root `tmql` facade: the `Database::new` →
//! `register_table` → `query` → `explain` loop from `examples/quickstart.rs`
//! and the crate-level rustdoc, asserted end to end so the public entry
//! points cannot silently rot.

use tmql::{Database, QueryOptions, UnnestStrategy};
use tmql_storage::table::int_table;

fn sample_db() -> Database {
    let mut db = Database::new();
    db.register_table(int_table("X", &["a", "b"], &[&[1, 1], &[2, 9], &[3, 1]]))
        .expect("register X");
    db.register_table(int_table("Y", &["b", "c"], &[&[1, 10], &[1, 20]]))
        .expect("register Y");
    db
}

const ANTIJOIN_QUERY: &str =
    "SELECT x.a FROM X x WHERE COUNT((SELECT y.c FROM Y y WHERE x.b = y.b)) = 0";

#[test]
fn register_query_explain_round_trip() {
    let db = sample_db();

    // The dangling row (a = 2, b = 9) has no Y partners and must be the
    // only qualifying row — losing it would be the COUNT bug.
    let result = db.query(ANTIJOIN_QUERY).expect("query runs");
    assert_eq!(result.len(), 1);
    assert!(!result.is_empty());
    assert!(result.render().contains('2'), "row a = 2 must qualify");

    // Theorem 1 flattens the COUNT(..) = 0 predicate into an antijoin.
    let explain = db.explain(ANTIJOIN_QUERY).expect("explain runs");
    assert!(
        explain.contains("antijoin"),
        "expected an antijoin in the optimized plan, got:\n{explain}"
    );
}

#[test]
fn re_registering_a_table_errors_instead_of_clobbering() {
    let mut db = sample_db();
    let dup = int_table("X", &["a", "b"], &[&[7, 7]]);
    assert!(
        db.register_table(dup).is_err(),
        "re-registering extension X must not silently replace it"
    );
    // The original extension is untouched.
    assert_eq!(
        db.query("SELECT x.a FROM X x").expect("query runs").len(),
        3
    );
}

#[test]
fn every_strategy_agrees_on_the_antijoin_query() {
    let db = sample_db();
    let reference: Vec<String> = {
        let r = db.query(ANTIJOIN_QUERY).expect("default runs");
        r.values.iter().map(|v| v.to_string()).collect()
    };
    // Kim's strategy is deliberately bug-compatible (it loses dangling
    // tuples), so only the correct strategies are compared.
    for strat in [
        UnnestStrategy::NestedLoop,
        UnnestStrategy::GanskiWong,
        UnnestStrategy::NestJoin,
        UnnestStrategy::FlattenSemiAnti,
        UnnestStrategy::Optimal,
    ] {
        let opts = QueryOptions::default().strategy(strat);
        let r = db.query_with(ANTIJOIN_QUERY, opts).expect("strategy runs");
        let got: Vec<String> = r.values.iter().map(|v| v.to_string()).collect();
        assert_eq!(got, reference, "strategy {strat:?} diverged");
    }
}

/// `apply_cache` is an ignored name, kept only while the benchmark still
/// sets it: `false` runs the one memoizing Apply, with the default's
/// answer and the default's work counters.
#[test]
fn apply_cache_false_is_ignored() {
    let db = sample_db();
    let nl = QueryOptions::default().strategy(UnnestStrategy::NestedLoop);
    let off = QueryOptions {
        apply_cache: false,
        ..nl
    };
    let want = db.query_with(ANTIJOIN_QUERY, nl).expect("query runs");
    let got = db.query_with(ANTIJOIN_QUERY, off).expect("query runs");
    assert_eq!(got.values, want.values);
    assert_eq!(got.metrics, want.metrics);
    assert!(
        got.metrics.apply_cache_hits > 0,
        "X.b repeats, so the cache hits"
    );
    let default = QueryOptions {
        apply_cache: false,
        ..Default::default()
    };
    let got = db.query_with(ANTIJOIN_QUERY, default).expect("query runs");
    let want = db.query(ANTIJOIN_QUERY).expect("query runs");
    assert_eq!(got.values, want.values);
    assert_eq!(got.metrics, want.metrics);
}
