//! Cost-model accuracy smoke (wired into CI): run the B7 ablation
//! queries, compare the estimator's per-operator row predictions against
//! the executed profile's actual rows, and fail when the worst q-error
//! exceeds a generous pinned bound. Catches estimator regressions (a
//! broken selectivity or fan-out stat shows up as a 100×+ q-error long
//! before it misranks every plan).
//!
//! `TMQL_BENCH_QUICK=1` (the CI bench smoke env) shrinks the data so the
//! whole check runs in milliseconds.

use std::ops::Bound;

use tmql::{Database, QueryOptions};
use tmql_workload::gen::{gen_rs, gen_xy, GenConfig};
use tmql_workload::queries::{where_query, COUNT_BUG, UNNEST_COLLAPSE};

/// Generous upper bound on the worst per-operator q-error across the b7
/// queries. Exact estimates give 1.0; the current model stays around
/// 10–15 (group-size and residual-selectivity guesses); triple digits
/// means the estimator broke.
const MAX_QERROR: f64 = 64.0;

fn size() -> usize {
    let quick = std::env::var("TMQL_BENCH_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if quick {
        256
    } else {
        1024
    }
}

fn check(tag: &str, db: &Database, src: &str) {
    let r = db
        .query_with(src, QueryOptions::default())
        .expect("query runs");
    let q = r.max_qerror();
    assert!(
        q.is_finite() && q <= MAX_QERROR,
        "{tag}: max q-error {q:.1} exceeds {MAX_QERROR} — estimator regression?\n{}",
        r.op_profile()
    );
}

#[test]
fn b7_rules_query_estimates_within_bound() {
    let db = Database::from_catalog(gen_xy(&GenConfig::sized(size())));
    check("b7-rules", &db, &where_query("x.n < 4 AND x.n IN {Z}"));
}

#[test]
fn b7_collapse_query_estimates_within_bound() {
    let db = Database::from_catalog(gen_xy(&GenConfig::sized(size())));
    check("b7-collapse", &db, UNNEST_COLLAPSE);
}

/// Acceptance: the estimator's predicted scan→probe crossover on a
/// selectivity ladder lands within 4× of the measured one. Each ladder
/// step builds a table whose indexed column has `d` distinct values
/// (equality selectivity 1/d), forces both access paths, and compares
/// their measured `total_work`; the estimator's pick per step comes from
/// the same `select_access_paths` seam the planner uses. The two smallest
/// `d` where the probe first wins must agree within 4×.
#[test]
fn index_crossover_estimate_within_4x_of_measured() {
    use tmql_algebra::{Env, ScalarExpr as E};
    use tmql_exec::{execute, Estimator, ExecContext, PhysPlan};
    use tmql_storage::{table::int_table, Catalog};

    let n = size() as i64 * 4;
    let ladder = [1i64, 2, 4, 8, 16, 64, 256];
    let mut predicted: Option<i64> = None;
    let mut measured: Option<i64> = None;
    for &d in &ladder {
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % d]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let mut cat = Catalog::new();
        cat.register(int_table("X", &["a", "b"], &refs)).unwrap();
        cat.create_index("X", "b").unwrap();
        let pred = E::eq(E::path("x", &["b"]), E::lit(0i64));

        let est = Estimator::new(&cat);
        let (_, probe_work, scan_work) = est
            .select_access_paths("X", "x", &pred)
            .expect("an index on X.b exists");
        if predicted.is_none() && probe_work < scan_work {
            predicted = Some(d);
        }

        let scan = PhysPlan::Filter {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            pred: pred.clone(),
        };
        let probe = PhysPlan::IndexScan {
            table: "X".into(),
            var: "x".into(),
            attr: "b".into(),
            eq: Some(E::lit(0i64)),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            pred,
        };
        let mut sctx = ExecContext::new(&cat);
        execute(&scan, &mut sctx, &Env::new()).unwrap();
        let mut ictx = ExecContext::new(&cat);
        execute(&probe, &mut ictx, &Env::new()).unwrap();
        if measured.is_none() && ictx.metrics.total_work() < sctx.metrics.total_work() {
            measured = Some(d);
        }
    }
    let predicted = predicted.expect("the estimator never picked the probe");
    let measured = measured.expect("the measured probe never won");
    let ratio = (predicted.max(measured) as f64) / (predicted.min(measured) as f64);
    assert!(
        ratio <= 4.0,
        "crossover mismatch: estimator flips at d={predicted}, measured flips at d={measured} ({ratio:.1}x apart)"
    );
}

#[test]
fn b7_survey_query_estimates_within_bound() {
    let cfg = GenConfig {
        outer: size(),
        inner: size(),
        dangling_fraction: 0.25,
        ..GenConfig::default()
    };
    let db = Database::from_catalog(gen_rs(&cfg));
    check("b7-survey", &db, COUNT_BUG);
    // The cost-model ablation's high-fanout variant.
    let cfg = GenConfig {
        outer: size() / 4,
        inner: size(),
        ..cfg
    };
    let db = Database::from_catalog(gen_rs(&cfg));
    check("b7-costmodel", &db, COUNT_BUG);
}
