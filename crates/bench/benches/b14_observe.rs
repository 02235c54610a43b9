//! B14 — observability overhead: per-operator wall-clock timing (the
//! `collect_timing` default) and JSONL query logging must stay under a
//! 5% tax on representative queries.
//!
//! Three modes over the same queries and data:
//!
//! * `timing-off` — `collect_timing(false)`: no clock reads at all, the
//!   pre-observability baseline.
//! * `timing-on` — the default: one `Instant` pair per `pull`/`open`/
//!   `close` call, inclusive spans per operator.
//! * `log-on` — timing plus a JSONL query-log record appended (and
//!   flushed) per statement.
//!
//! The query mix mirrors the earlier experiments: B1's flattenable
//! correlated IN (semijoin after unnesting) and B7's COUNT-aggregate
//! nesting (the count-bug shape). Recorded full-mode numbers live in
//! `BENCH_observe.json`; the acceptance pin is timing-on within 5% of
//! timing-off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmql::{Database, QueryOptions};
use tmql_bench::{criterion, ladder, quick_mode, report_work};
use tmql_workload::gen::{gen_xy, GenConfig};

/// B1-style: correlated IN, flattens to a semijoin.
const Q_FLAT: &str = "SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)";

/// B7-style: COUNT over a correlated subquery (the count-bug shape,
/// outer-join + grouping after unnesting).
const Q_AGG: &str = "SELECT x.n FROM X x WHERE COUNT((SELECT y.a FROM Y y WHERE x.b = y.b)) > 125";

fn modes() -> Vec<(&'static str, QueryOptions)> {
    let base = QueryOptions::default();
    vec![
        ("timing-off", base.collect_timing(false)),
        ("timing-on", base.collect_timing(true)),
        // Query logging implies timing: the record carries wall time.
        // The log sink is attached per-database below.
        ("log-on", base.collect_timing(true)),
    ]
}

fn bench_observe(c: &mut Criterion) {
    let mut g = c.benchmark_group("b14_observe");
    let log_path =
        std::env::temp_dir().join(format!("tmql-bench-observe-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);

    for n in ladder(&[1024, 4096]) {
        let db = Database::from_catalog(gen_xy(&GenConfig::sized(n)));
        // Only the `log-on` mode actually writes: other modes run on a
        // database without a log (the common case), `log-on` on one with
        // the sink attached — the difference between them is the
        // append+flush price.
        let mut logged_db = Database::from_catalog(gen_xy(&GenConfig::sized(n)));
        logged_db.set_query_log(tmql_obs::QueryLog::create(&log_path).expect("log file"));

        for query in [Q_FLAT, Q_AGG] {
            let tag = if query == Q_FLAT { "flat" } else { "agg" };
            for (mode, opts) in modes() {
                let target = if mode == "log-on" { &logged_db } else { &db };
                g.bench_with_input(BenchmarkId::new(format!("{tag}/{mode}"), n), &n, |b, _| {
                    b.iter(|| target.query_with(query, opts).expect("query runs").len())
                });
            }
        }
        if !quick_mode() {
            report_work(
                &format!("b14 n={n} flat"),
                &db,
                Q_FLAT,
                QueryOptions::default(),
            );
            report_work(
                &format!("b14 n={n} agg"),
                &db,
                Q_AGG,
                QueryOptions::default(),
            );
        }
    }
    let _ = std::fs::remove_file(&log_path);
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_observe
}
criterion_main!(benches);
