//! B12 — batched Apply: binding memoization across duplicate correlation
//! values.
//!
//! The membership query `x.n ∈ (SELECT y.a FROM Y y WHERE x.b = y.b)`
//! forced through nested-loop Apply (the query's direct semantics), on a
//! duplicate-binding ladder: the correlated column `x.b` carries `d`
//! distinct values over `n` outer rows (`d/n` ∈ {1%, 10%, 100%}). Each
//! rung runs the same plan two ways:
//!
//! * **uncached** — `apply_cache(false)`: the pre-batching executor, one
//!   inner execution per outer row (`ainv = n`);
//! * **cached** — the default: the inner operator tree is built once and
//!   rebound, completed result sets are memoized per distinct binding,
//!   and the whole-inner eq-selection hoists to a transient hash probe
//!   (`ainv = d`, `ahit = n - d`).
//!
//! Expected shape: at 1% distinct the cached run does ~1% of the inner
//! work and wins by well over an order of magnitude; at 100% distinct
//! every binding is new, the cache never hits, and the two runs stay at
//! parity (the cached side still amortizes the hoisted hash build). The
//! `[work]` lines pin the mechanism: `ainv` drops from `n` to `d` while
//! the row counts stay identical. Recorded trajectory: `BENCH_apply.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmql::{Database, QueryOptions, Record, Table, Ty, UnnestStrategy, Value};
use tmql_bench::{criterion, ladder, quick_mode, report_work, NL_CAP};

/// Membership with a correlated equality — lowers to Apply under the
/// forced nested-loop strategy.
const QUERY: &str = "SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)";

/// Percent of outer rows carrying a distinct correlation binding.
const DISTINCT_PCT: &[usize] = &[1, 10, 100];

fn db(n: usize, d: usize) -> Database {
    let mut x = Table::new("X", vec![("n".into(), Ty::Int), ("b".into(), Ty::Int)]);
    let mut y = Table::new("Y", vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)]);
    for i in 0..n as i64 {
        x.insert(
            Record::new([
                ("n".to_string(), Value::Int(i)),
                ("b".to_string(), Value::Int(i % d as i64)),
            ])
            .expect("distinct labels"),
        )
        .expect("valid row");
        // Even rows of Y share X's binding domain so roughly half the
        // outer rows find a match; odd rows are dangling inner tuples.
        y.insert(
            Record::new([
                ("a".to_string(), Value::Int(i)),
                (
                    "b".to_string(),
                    Value::Int(if i % 2 == 0 { i % d as i64 } else { -1 }),
                ),
            ])
            .expect("distinct labels"),
        )
        .expect("valid row");
    }
    let mut db = Database::new();
    db.register_table(x).expect("register X");
    db.register_table(y).expect("register Y");
    db
}

fn configs() -> Vec<(&'static str, QueryOptions)> {
    let apply = QueryOptions::default().strategy(UnnestStrategy::NestedLoop);
    vec![("uncached", apply.apply_cache(false)), ("cached", apply)]
}

fn bench_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("b12_apply");
    // The quick CI smoke shrinks the outer table below the quadratic
    // baseline's pain threshold while still exercising both configs.
    let ns: Vec<usize> = if quick_mode() {
        vec![256]
    } else {
        vec![1024, 4096]
    };
    for n in ns {
        for pct in ladder(DISTINCT_PCT) {
            let d = (n * pct / 100).max(1);
            let db = db(n, d);
            for (label, opts) in configs() {
                // The per-row baseline is quadratic; skip it above the
                // nested-loop cap (the cached side keeps climbing).
                if label == "uncached" && n > NL_CAP {
                    continue;
                }
                report_work(
                    &format!("b12-apply/{label}/n{n}-d{pct}pct"),
                    &db,
                    QUERY,
                    opts,
                );
                g.bench_with_input(
                    BenchmarkId::new(label, format!("n{n}-d{pct}pct")),
                    &d,
                    |b, _| b.iter(|| db.query_with(QUERY, opts).expect("runs").len()),
                );
            }
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_apply
}
criterion_main!(benches);
