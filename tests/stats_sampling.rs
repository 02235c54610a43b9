//! Differential tests for sampled statistics (the ROADMAP "sampling for
//! large tables" item): above [`STATS_SAMPLE_THRESHOLD`] rows,
//! registration builds statistics from a reservoir sample instead of an
//! exact pass. Over the bench generators, every estimate the cost model
//! consumes — distinct counts, histogram selectivities, set fan-outs,
//! null and set-valued fractions — must stay within a small q-error of
//! [`TableStats::exact`]. And a disk-backed table's statistics, streamed
//! from its pages, must be those of the same rows in memory, on either
//! side of the threshold.

use std::path::PathBuf;

use tmql_model::{Ty, Value};
use tmql_storage::stats::STATS_SAMPLE_THRESHOLD;
use tmql_storage::{Catalog, Table, TableStats};
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
    TableStats::exact(t.columns(), &t.rows_vec().unwrap())
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
        // Distinct counts: the 1/NDV selectivities the estimator uses.
        let q = qerr(s.distinct as f64, e.distinct as f64);
        assert!(
            q <= MAX_Q,
            "{tag}.{col}: distinct q-error {q:.2} (sampled {} vs exact {})",
            s.distinct,
            e.distinct
        );
        // Fractions feed NULL selectivities and set fan-outs directly.
        assert!(
            (s.null_fraction - e.null_fraction).abs() < 0.05,
            "{tag}.{col}: nulls"
        );
        assert!(
            (s.set_valued_fraction - e.set_valued_fraction).abs() < 0.05,
            "{tag}.{col}: set fraction"
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

/// `n` distinct rows: a key, a skewed integer, a string, a set of up to
/// three integers (empty for a quarter of the rows) and a NULL in every
/// tenth row.
fn mixed_table(n: usize) -> Table {
    let columns = vec![
        ("id".to_string(), Ty::Int),
        ("k".to_string(), Ty::Int),
        ("s".to_string(), Ty::Str),
        ("a".to_string(), Ty::Set(Box::new(Ty::Int))),
        ("f".to_string(), Ty::Any),
    ];
    let mut t = Table::new("M", columns);
    for i in 0..n as i64 {
        let set = (0..i % 4).map(|j| Value::Int((i * 7 + j) % 50));
        let f = match i % 10 {
            0 => Value::Null,
            _ => Value::Float((i % 97) as f64 / 4.0),
        };
        t.insert_values([
            Value::Int(i),
            Value::Int((i * i) % 61),
            Value::str(format!("s{}", i % 300)),
            Value::set(set),
            f,
        ])
        .unwrap();
    }
    t
}

fn scratch_db(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tmql-stats-{}-{tag}.tmdb", std::process::id()))
}

/// A disk table streams its pages into the pass its rows take in memory:
/// the same exact statistics up to the threshold, the same reservoir
/// draws past it.
#[test]
fn a_disk_tables_statistics_are_those_of_its_rows_in_memory() {
    let t = STATS_SAMPLE_THRESHOLD;
    for n in [0, 1, t, t + 1, 3 * t] {
        let table = mixed_table(n);
        let mut mem = Catalog::new();
        mem.register(table.clone()).unwrap();
        let path = scratch_db(&n.to_string());
        let mut disk = Catalog::open(&path, 8).unwrap();
        disk.register(table).unwrap();
        let stored = disk.table("M").unwrap();
        assert!(stored.is_disk_backed());
        assert_eq!(stored.len(), n);
        let streamed = TableStats::compute(stored).unwrap();
        assert_eq!(&streamed, mem.stats("M").unwrap(), "{n} rows");
        assert_eq!(&streamed, disk.stats("M").unwrap(), "{n} rows");
        drop(disk);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal);
    }
}
