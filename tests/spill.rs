//! Facade-level spill acceptance: with `memory_budget_rows` set below the
//! hash build side, a join over data ≥ 4× the budget completes with
//! `rows_spilled > 0`, keeps `peak_resident_rows` within the budget plus
//! batch-granular slack, and returns results identical to the unbounded
//! run.

use tmql::{Database, QueryOptions, UnnestStrategy};
use tmql_storage::table::int_table;

/// X(n, b), Y(a, b): n rows each, b = key % MODB on both sides, y.a = a
/// row id — so `x.n IN (SELECT y.a ...)` matches every X row while the
/// semijoin's build side is the full Y extension.
fn join_db(n: i64, modb: i64) -> Database {
    let mut db = Database::new();
    let x: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % modb]).collect();
    let y: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % modb]).collect();
    db.register_table(int_table(
        "X",
        &["n", "b"],
        &x.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    db.register_table(int_table(
        "Y",
        &["a", "b"],
        &y.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    db
}

/// Membership query that flattens to a hash semijoin on (n = a, b = b):
/// the paper's Theorem 1 case, with a build side the size of Y. The
/// projected column keeps the result small so the join — not result
/// collection — dominates residency.
const MEMBER: &str = "SELECT x.b FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)";

#[test]
fn budgeted_join_spills_stays_bounded_and_agrees() {
    let budget = 512usize;
    let batch = 256usize;
    let n = 4096i64; // 8× the budget on each side
    let db = join_db(n, 64);

    let free = db
        .query_with(MEMBER, QueryOptions::default().batch_size(batch))
        .unwrap();
    assert_eq!(free.metrics.rows_spilled, 0, "no budget, no spilling");

    let opts = QueryOptions::default()
        .batch_size(batch)
        .memory_budget(budget);
    let tight = db.query_with(MEMBER, opts).unwrap();

    assert_eq!(
        tight.values, free.values,
        "spilling must not change results"
    );
    assert!(
        tight.metrics.rows_spilled > 0,
        "4096-row build side over a 512-row budget spills"
    );
    assert!(tight.metrics.spill_partitions > 0);
    let slack = (3 * batch) as u64;
    assert!(
        tight.metrics.peak_resident_rows <= budget as u64 + slack,
        "peak {} exceeds budget {} + slack {}",
        tight.metrics.peak_resident_rows,
        budget,
        slack
    );
    // The unbounded run really was larger than memory-at-budget: its peak
    // dwarfs the budgeted one.
    assert!(
        free.metrics.peak_resident_rows > 4 * tight.metrics.peak_resident_rows.min(u64::MAX / 4),
        "unbounded peak {} vs budgeted peak {}",
        free.metrics.peak_resident_rows,
        tight.metrics.peak_resident_rows
    );
}

#[test]
fn every_strategy_agrees_under_a_tight_budget() {
    let db = join_db(768, 16);
    let free = db
        .query_with(
            MEMBER,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    for strat in UnnestStrategy::ALL {
        if strat.is_bug_compatible() {
            continue;
        }
        let opts = QueryOptions::default()
            .strategy(strat)
            .batch_size(64)
            .memory_budget(96);
        let r = db.query_with(MEMBER, opts).unwrap();
        assert_eq!(
            r.values,
            free.values,
            "strategy {} diverged under budget",
            strat.name()
        );
    }
}

#[test]
fn profile_reports_spilled_rows_per_operator() {
    let db = join_db(1024, 32);
    let opts = QueryOptions::default().batch_size(128).memory_budget(128);
    let r = db.query_with(MEMBER, opts).unwrap();
    assert!(r.metrics.rows_spilled > 0);
    assert!(
        r.op_profile.contains("spilled="),
        "profile tree must show per-operator spill traffic:\n{}",
        r.op_profile
    );
    // And the unbounded profile stays clean of the annotation.
    let free = db.query_with(MEMBER, QueryOptions::default()).unwrap();
    assert!(!free.op_profile.contains("spilled="), "{}", free.op_profile);
}

#[test]
fn probe_rows_without_a_partner_are_reported_as_filtered_not_spilled() {
    // Y holds the even `a`s only, so every odd X row is dangling; the
    // build side (512 rows) is 4× the budget, 16 filter bits a key.
    let mut db = Database::new();
    for (table, key, step) in [("X", "n", 1), ("Y", "a", 2)] {
        let rows: Vec<[i64; 2]> = (0..1024).step_by(step).map(|i| [i, i % 32]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        db.register_table(int_table(table, &[key, "b"], &rows))
            .unwrap();
    }
    let free = db.query_with(MEMBER, QueryOptions::default()).unwrap();
    let opts = QueryOptions::default().batch_size(128).memory_budget(128);
    let tight = db.query_with(MEMBER, opts).unwrap();
    assert_eq!(tight.values, free.values);
    assert_eq!(free.metrics.spill_rows_filtered, 0);
    assert!(
        !free.op_profile.contains("filtered="),
        "{}",
        free.op_profile
    );

    let m = &tight.metrics;
    assert!(
        m.spill_rows_filtered > 400,
        "most of 512 dangling rows: {m}"
    );
    assert!(m.spill_rows_filtered <= 512, "none with a partner: {m}");
    assert_eq!(m.hash_probes, 1024, "answered early is still probed: {m}");
    // Build side once, the probe rows that passed once, nothing re-split.
    assert_eq!(m.rows_spilled, 512 + 1024 - m.spill_rows_filtered, "{m}");
    // The join's own line carries both, and the registry the total.
    let line = tight.op_profile.lines().find(|l| l.contains("filtered="));
    let line = line.unwrap_or_else(|| panic!("no filtered= in\n{}", tight.op_profile));
    let (spilled, filtered) = (m.rows_spilled, m.spill_rows_filtered);
    assert!(
        line.contains(&format!(" spilled={spilled} filtered={filtered}")),
        "{line}"
    );
    assert!(line.trim_start().starts_with("HashJoin"), "{line}");
    let exported = format!("tmql_exec_spill_rows_filtered_total {filtered}\n");
    assert!(
        db.metrics_text().contains(&exported),
        "{}",
        db.metrics_text()
    );
    assert!(m
        .to_string()
        .contains(&format!("spilled={spilled} filtered={filtered} ")));
}

#[test]
fn aggregation_and_grouping_spill_and_agree() {
    // COUNT-per-group over a grouped plan: exercises GroupAgg / Nest
    // breaker spilling end to end through the facade.
    let db = join_db(2048, 8);
    let q = "SELECT x.n FROM X x WHERE COUNT((SELECT y.a FROM Y y WHERE x.b = y.b)) > 0";
    let free = db.query_with(q, QueryOptions::default()).unwrap();
    let tight = db
        .query_with(
            q,
            QueryOptions::default().batch_size(128).memory_budget(256),
        )
        .unwrap();
    assert_eq!(tight.values, free.values);
    assert!(tight.metrics.rows_spilled > 0);
    assert!(tight.metrics.peak_resident_rows < free.metrics.peak_resident_rows);
}
