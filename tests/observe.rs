//! The observability layer end to end: per-operator timing is
//! zero-impact on results and work counters, `EXPLAIN ANALYZE` carries
//! timing + estimates + spill/pool counters in one tree, the metrics
//! registry exposes pool/WAL/latency series, and the JSONL query log
//! emits parseable records with the pinned schema.

use std::path::PathBuf;

use tmql::{Database, Metrics, QueryOptions, Record, Table, Ty, Value};
use tmql_storage::table::int_table;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tmql-observe-{tag}-{}.tmdb", std::process::id()))
}

fn clean(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.clone().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

/// `n`-row pair of tables whose correlated-IN query spills under a
/// 32-row budget (the facade's spill doctest, scalable).
fn spill_fixture_sized(db: &mut Database, n: i64) {
    let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % 8]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    db.register_table(int_table("X", &["n", "b"], &refs))
        .unwrap();
    db.register_table(int_table("Y", &["a", "b"], &refs))
        .unwrap();
}

fn spill_fixture(db: &mut Database) {
    spill_fixture_sized(db, 256);
}

const SPILL_QUERY: &str = "SELECT x.b FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)";

/// The work counters that must be identical between a timed and an
/// untimed run: everything except the timing-sensitive shape fields
/// (peak residency and batch counts can wobble under parallel
/// scheduling; they are compared only on serial runs).
fn stable_work(m: &Metrics) -> Metrics {
    let mut m = *m;
    m.peak_resident_rows = 0;
    m.batches_emitted = 0;
    m
}

#[test]
fn timing_collection_changes_neither_results_nor_work() {
    let mut db = Database::new();
    spill_fixture(&mut db);
    for threads in [1usize, 4] {
        for budget in [None, Some(32usize)] {
            let mut opts = QueryOptions::default().threads(threads);
            opts.memory_budget_rows = budget;
            let timed = db
                .query_with(SPILL_QUERY, opts.collect_timing(true))
                .unwrap();
            let untimed = db
                .query_with(SPILL_QUERY, opts.collect_timing(false))
                .unwrap();
            assert_eq!(
                timed.values, untimed.values,
                "threads={threads} budget={budget:?}"
            );
            assert_eq!(
                stable_work(&timed.metrics),
                stable_work(&untimed.metrics),
                "threads={threads} budget={budget:?}"
            );
            if threads == 1 {
                // Serial execution is fully deterministic: every counter
                // (including peak residency and batches) must match.
                assert_eq!(timed.metrics, untimed.metrics, "serial budget={budget:?}");
            }
            // The only observable difference: timed profiles carry
            // wall-clock spans, untimed ones do not.
            assert!(timed.op_profile.contains("time="), "{}", timed.op_profile);
            assert!(
                !untimed.op_profile.contains("time="),
                "{}",
                untimed.op_profile
            );
            assert!(timed.ops.iter().any(|o| o.wall_nanos > 0));
            assert!(untimed.ops.iter().all(|o| o.wall_nanos == 0));
        }
    }
}

#[test]
fn analyze_on_a_spilling_parallel_query_shows_everything_in_one_tree() {
    let path = scratch("analyze");
    clean(&path);
    // A four-page pool under several pages of table data guarantees
    // faults, so pool counters are nonzero.
    let mut db = Database::open_with(&path, 4).unwrap();
    spill_fixture_sized(&mut db, 2048);
    let opts = QueryOptions::default().memory_budget(32).threads(4);
    let report = db.analyze_with(SPILL_QUERY, opts).unwrap();
    assert!(report.contains("== analyze (executed) =="), "{report}");
    // Per-operator: actual rows, estimated rows, wall time, spilled rows.
    assert!(report.contains("rows="), "{report}");
    assert!(report.contains("est="), "{report}");
    assert!(report.contains("time="), "{report}");
    assert!(report.contains("spilled="), "{report}");
    // Run-level counters: spill traffic and pool hits/misses.
    assert!(report.contains("phit="), "{report}");
    assert!(
        !report.contains("pmiss=0 "),
        "pool faults expected: {report}"
    );
    assert!(report.contains("max_qerror="), "{report}");
    assert!(report.contains("total_work="), "{report}");
    // ANALYZE forces timing on even when the session disabled it.
    let report2 = db
        .analyze_with(SPILL_QUERY, opts.collect_timing(false))
        .unwrap();
    assert!(report2.contains("time="), "{report2}");
    drop(db);
    clean(&path);
}

#[test]
fn metrics_text_covers_pool_wal_latency_and_txn_series() {
    let path = scratch("metrics");
    clean(&path);
    let mut db = Database::open_with(&path, 4).unwrap();
    spill_fixture(&mut db);
    db.query(SPILL_QUERY).unwrap();
    db.query(SPILL_QUERY).unwrap();
    assert!(db.query("SELECT x.zz FROM X x").is_err());
    db.begin().unwrap();
    db.register_table(int_table("Z", &["c"], &[&[1]])).unwrap();
    db.commit().unwrap();
    db.begin().unwrap();
    db.rollback().unwrap();
    db.wal_checkpoint().unwrap();

    let text = db.metrics_text();
    // Storage: buffer pool and WAL series, polled from the store.
    assert!(
        text.contains("# TYPE tmql_pool_hits_total counter"),
        "{text}"
    );
    assert!(text.contains("tmql_pool_misses_total"), "{text}");
    assert!(text.contains("tmql_wal_appends_total"), "{text}");
    assert!(text.contains("tmql_wal_fsyncs_total"), "{text}");
    assert!(text.contains("tmql_wal_size_bytes"), "{text}");
    // The write path's latency histograms: one observation per commit,
    // per WAL fsync and per checkpoint the counters beside them count.
    let series = |name: &str| -> u64 {
        let line = text.lines().find(|l| l.starts_with(&format!("{name} ")));
        let value = line.and_then(|l| l.rsplit(' ').next()?.parse().ok());
        value.unwrap_or_else(|| panic!("no series `{name}` in {text}"))
    };
    for (histogram, counter) in [
        ("tmql_commit_micros", "tmql_wal_commits_total"),
        ("tmql_wal_fsync_micros", "tmql_wal_fsyncs_total"),
        ("tmql_checkpoint_micros", "tmql_wal_checkpoints_total"),
    ] {
        assert!(
            text.contains(&format!("# TYPE {histogram} histogram")),
            "{text}"
        );
        assert!(series(counter) >= 1, "{counter}");
        assert_eq!(series(&format!("{histogram}_count")), series(counter));
        let inf = format!("{histogram}_bucket{{le=\"+Inf\"}}");
        assert_eq!(series(&inf), series(counter));
    }
    assert_eq!(
        series("tmql_wal_commits_total"),
        3,
        "X, Y and the transaction"
    );
    // Executor: cumulative work counters.
    assert!(text.contains("tmql_exec_rows_scanned_total"), "{text}");
    // Facade: query counts, latency histogram, transactions.
    assert!(text.contains("tmql_queries_total 2\n"), "{text}");
    assert!(text.contains("tmql_query_errors_total 1\n"), "{text}");
    assert!(text.contains("tmql_query_wall_micros_count 2\n"), "{text}");
    assert!(
        text.contains("tmql_query_wall_micros_bucket{le=\"+Inf\"} 2"),
        "{text}"
    );
    assert!(text.contains("tmql_txn_commits_total 1\n"), "{text}");
    assert!(text.contains("tmql_txn_rollbacks_total 1\n"), "{text}");
    // Recovery gauges appear on reopen.
    drop(db);
    let db = Database::open_with(&path, 4).unwrap();
    let text = db.metrics_text();
    assert!(text.contains("tmql_recovery_replayed_txns"), "{text}");
    assert!(text.contains("tmql_recovery_discarded_records"), "{text}");
    drop(db);
    clean(&path);
}

#[test]
fn registry_is_per_database_not_global() {
    let mut a = Database::new();
    spill_fixture(&mut a);
    a.query(SPILL_QUERY).unwrap();
    let b = Database::new();
    assert!(a.metrics_text().contains("tmql_queries_total 1\n"));
    assert!(b.metrics_text().contains("tmql_queries_total 0\n"));
}

/// Keys every query-log record must carry, in emission order.
const REQUIRED_KEYS: &[&str] = &[
    "query_hash",
    "strategy",
    "est_rows",
    "actual_rows",
    "max_qerror",
    "total_work",
    "wall_micros",
    "rows_spilled",
    "pool_hits",
    "pool_misses",
    "wal_appends",
];

#[test]
fn query_log_emits_parseable_jsonl_with_the_pinned_schema() {
    let log_path = std::env::temp_dir().join(format!(
        "tmql-observe-query-log-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let mut db = Database::new();
    // Programmatic configuration — exactly what TMQL_QUERY_LOG and
    // TMQL_SLOW_QUERY_MICROS wire up at construction, without mutating
    // the process environment under concurrently running tests.
    db.set_query_log(tmql_obs::QueryLog::create(&log_path).unwrap());
    db.set_slow_query_micros(Some(0));

    assert_eq!(db.query_log_path(), Some(log_path.as_path()));
    spill_fixture(&mut db);
    db.query(SPILL_QUERY).unwrap();
    db.query_with(SPILL_QUERY, QueryOptions::default().memory_budget(32))
        .unwrap();
    // Opted-out statements never reach the log.
    db.query_with(
        "SELECT x.n FROM X x",
        QueryOptions::default().query_log(false),
    )
    .unwrap();

    let body = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "two logged statements:\n{body}");
    let expected_hash = format!("{:016x}", tmql_obs::fnv1a(SPILL_QUERY.as_bytes()));
    for line in &lines {
        let keys = tmql_obs::json::parse_object_keys(line)
            .unwrap_or_else(|e| panic!("invalid JSON ({e}): {line}"));
        for required in REQUIRED_KEYS {
            assert!(
                keys.iter().any(|k| k == required),
                "missing {required}: {line}"
            );
        }
        assert!(line.contains(&expected_hash), "{line}");
        assert!(line.contains("\"strategy\":\"cost-based\""), "{line}");
        // TMQL_SLOW_QUERY_MICROS=0 marks everything slow: the full
        // EXPLAIN ANALYZE tree rides along.
        assert!(
            tmql_obs::json::parse_object_keys(line)
                .unwrap()
                .iter()
                .any(|k| k == "analyze"),
            "{line}"
        );
    }
    // The budgeted run logged its spill traffic.
    assert!(lines[1].contains("\"rows_spilled\":"), "{}", lines[1]);
    assert!(!lines[1].contains("\"rows_spilled\":0,"), "{}", lines[1]);
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn a_failed_statement_leaves_one_record_naming_its_phase() {
    let log_path = std::env::temp_dir().join(format!(
        "tmql-observe-failed-log-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let mut db = Database::new();
    db.set_query_log(tmql_obs::QueryLog::create(&log_path).unwrap());
    // `e` is untyped: the checker admits `x.e.z`, and the row whose `e`
    // is no tuple fails it at run time.
    let rows = [Value::tuple([("z", Value::Int(7))]), Value::Int(7)]
        .into_iter()
        .enumerate()
        .map(|(d, e)| Record::new([("d", Value::Int(d as i64)), ("e", e)]).unwrap());
    let columns = vec![("d".into(), Ty::Int), ("e".into(), Ty::Any)];
    db.register_table(Table::from_rows("X", columns, rows).unwrap())
        .unwrap();
    let failing = [
        ("SELECT x.d FROM", "parse", "Parse"),
        ("SELECT x.zz FROM X x", "check", "Type"),
        ("SELECT x.e.z FROM X x", "execute", "Model.KindMismatch"),
    ];
    for (i, (src, phase, class)) in failing.iter().enumerate() {
        assert!(db.query(src).is_err(), "{src}");
        let errors = format!("tmql_query_errors_total {}\n", i + 1);
        assert!(db.metrics_text().contains(&errors), "{src}");
        let body = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), i + 1, "one record per statement:\n{body}");
        let line = lines[i];
        let keys = tmql_obs::json::parse_object_keys(line).unwrap();
        let want = [
            "query_hash",
            "strategy",
            "error_class",
            "phase",
            "wall_micros",
        ];
        assert_eq!(keys, want, "{line}");
        let hash = format!("{:016x}", tmql_obs::fnv1a(src.as_bytes()));
        assert!(
            line.contains(&format!("\"query_hash\":\"{hash}\"")),
            "{line}"
        );
        assert!(line.contains(&format!("\"phase\":\"{phase}\"")), "{line}");
        assert!(
            line.contains(&format!("\"error_class\":\"{class}\"")),
            "{line}"
        );
    }
    // Opted out, a failed statement is counted and not logged.
    let opts = QueryOptions::default().query_log(false);
    assert!(db.query_with(failing[0].0, opts).is_err());
    assert!(db.metrics_text().contains("tmql_query_errors_total 4\n"));
    let body = std::fs::read_to_string(&log_path).unwrap();
    assert_eq!(body.lines().count(), 3, "{body}");
    let _ = std::fs::remove_file(&log_path);
}
