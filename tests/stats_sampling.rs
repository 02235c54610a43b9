//! Differential test for sampled statistics (the ROADMAP "sampling for
//! large tables" item): above [`STATS_SAMPLE_THRESHOLD`] rows,
//! registration builds statistics from a reservoir sample instead of an
//! exact pass. Over the bench generators, every estimate the cost model
//! consumes — distinct counts, histogram selectivities, set fan-outs,
//! null/empty fractions — must stay within a small q-error of the exact
//! pass.

use tmql_storage::stats::{StatsBuilder, STATS_SAMPLE_THRESHOLD};
use tmql_storage::{Table, TableStats};
use tmql_workload::gen::{gen_rs, gen_xy, GenConfig};

/// q-error bound for sampled scalar estimates (distinct counts, set
/// fan-outs). 2048 uniform samples of these generator distributions land
/// comfortably inside it; a broken estimator lands far outside.
const MAX_Q: f64 = 2.0;

fn qerr(est: f64, act: f64) -> f64 {
    let (e, a) = (est.max(1e-9), act.max(1e-9));
    (e / a).max(a / e)
}

fn exact_stats(t: &Table) -> TableStats {
    let mut b = StatsBuilder::exact(t.columns().iter().map(|(n, _)| n.as_str()));
    for row in t.rows() {
        b.observe(row);
    }
    b.finish()
}

/// Compare sampled (auto, via `TableStats::compute` past the threshold)
/// against exact statistics for one table.
fn check_table(tag: &str, t: &Table) {
    assert!(
        t.len() > STATS_SAMPLE_THRESHOLD,
        "{tag}: fixture must exceed the sampling threshold ({} rows)",
        t.len()
    );
    let sampled = TableStats::compute(t).unwrap();
    let exact = exact_stats(t);
    assert_eq!(
        sampled.cardinality, exact.cardinality,
        "{tag}: row counts are exact"
    );
    for (col, e) in &exact.columns {
        let s = &sampled.columns[col];
        // Extremes are tracked exactly in both modes.
        assert_eq!(s.min, e.min, "{tag}.{col}: min");
        assert_eq!(s.max, e.max, "{tag}.{col}: max");
        // Distinct counts: the 1/NDV selectivities the estimator uses.
        let q = qerr(s.distinct as f64, e.distinct as f64);
        assert!(
            q <= MAX_Q,
            "{tag}.{col}: distinct q-error {q:.2} (sampled {} vs exact {})",
            s.distinct,
            e.distinct
        );
        // Fractions feed NULL/empty-set selectivities directly.
        assert!(
            (s.null_fraction - e.null_fraction).abs() < 0.05,
            "{tag}.{col}: nulls"
        );
        assert!(
            (s.set_valued_fraction - e.set_valued_fraction).abs() < 0.05,
            "{tag}.{col}: set fraction"
        );
        assert!(
            (s.empty_set_fraction - e.empty_set_fraction).abs() < 0.05,
            "{tag}.{col}: empty-set fraction"
        );
        // Set fan-out drives ScanExpr/Unnest cardinalities.
        if e.avg_set_card > 0.0 {
            let q = qerr(s.avg_set_card, e.avg_set_card);
            assert!(q <= MAX_Q, "{tag}.{col}: fan-out q-error {q:.2}");
        }
        // Histogram selectivities: probe the quartiles of the exact range
        // and demand the sampled CDF track the exact one.
        if let Some(eh) = &e.histogram {
            assert!(
                s.histogram.is_some(),
                "{tag}.{col}: sampled pass lost the histogram"
            );
            for k in 1..4 {
                let probe = eh.lo + (eh.hi - eh.lo) * k as f64 / 4.0;
                let se = s.fraction_lt(probe).expect("sampled histogram");
                let ee = e.fraction_lt(probe).expect("exact histogram");
                assert!(
                    (se - ee).abs() < 0.08,
                    "{tag}.{col}: P[< {probe:.1}] sampled {se:.3} vs exact {ee:.3}"
                );
            }
        }
    }
}

#[test]
fn sampled_stats_track_exact_on_gen_xy() {
    let cat = gen_xy(&GenConfig::sized(STATS_SAMPLE_THRESHOLD * 2 + 500));
    for name in ["X", "Y"] {
        let t = cat.table(name).unwrap();
        if t.len() > STATS_SAMPLE_THRESHOLD {
            check_table(&format!("xy.{name}"), t);
        }
    }
}

#[test]
fn sampled_stats_track_exact_on_gen_rs() {
    let cfg = GenConfig {
        outer: STATS_SAMPLE_THRESHOLD * 2,
        inner: STATS_SAMPLE_THRESHOLD * 2,
        dangling_fraction: 0.25,
        ..GenConfig::default()
    };
    let cat = gen_rs(&cfg);
    for name in ["R", "S"] {
        let t = cat.table(name).unwrap();
        if t.len() > STATS_SAMPLE_THRESHOLD {
            check_table(&format!("rs.{name}"), t);
        }
    }
}

#[test]
fn registration_of_large_tables_uses_the_sampled_pass() {
    // The catalog path itself (register → stats) must go through the
    // sampled builder: identical cardinality, bounded q-error, and the
    // estimator keeps working end to end.
    use tmql::Database;
    let n = STATS_SAMPLE_THRESHOLD * 2;
    let db = Database::from_catalog(gen_xy(&GenConfig::sized(n)));
    let st = db.catalog().stats("X").expect("stats registered");
    assert_eq!(st.cardinality, n);
    let r = db
        .query("SELECT x.n FROM X x WHERE x.b < 100")
        .expect("query over sampled-stats table runs");
    assert!(r.max_qerror().is_finite());
}
