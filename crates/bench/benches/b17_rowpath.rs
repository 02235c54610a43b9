//! B17 — what a row costs between a scan and its first consumer: the
//! layer micro-bench under "rows without envelopes" (a ROADMAP item that
//! has landed).
//!
//! A scan hands out the stored row itself and the plan says which variable
//! it is bound to, so the price of a scanned row is what its consumer does
//! with it. Four two-operator plans over `X(n, b)` of `n` two-int rows,
//! each run whole through [`tmql_exec::execute`] at one thread:
//!
//! * `build` — `HashJoin[semijoin](Scan(E), Scan(X))` with `E` empty:
//!   scan → hash build of all `n` rows, no probe;
//! * `probe/semi`, `probe/nest` — `HashJoin[…](Scan(X), Scan(K))` with
//!   `K` the 64 distinct keys: `n` probes against a tiny table, the
//!   semijoin emitting the probe row as it came, the nest join extending
//!   it with its set of matches;
//! * `map` — `Map[x.n](Scan(X))`: scan → evaluate → bind → dedup.
//!
//! in two backings: **memory** (rows are shared handles) and **disk-warm**
//! (a pool that holds the whole extent, warmed once: every row is decoded
//! from its page, no I/O).
//!
//! Times are per statement over all `n` rows (divide by `n` for ns/row).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmql::{Database, Record, Table, Ty, Value};
use tmql_algebra::{Env, ScalarExpr as E};
use tmql_bench::{criterion, ladder};
use tmql_exec::{execute, ExecConfig, ExecContext, JoinKind, PhysPlan};

const WARM_POOL: usize = 4096;
const KEYS: i64 = 64;

fn table(name: &str, rows: impl Iterator<Item = (i64, i64)>) -> Table {
    let mut t = Table::new(name, vec![("n".into(), Ty::Int), ("b".into(), Ty::Int)]);
    for (n, b) in rows {
        let row = [("n", Value::Int(n)), ("b", Value::Int(b))];
        t.insert(Record::new(row).expect("distinct labels"))
            .expect("valid row");
    }
    t
}

fn load(db: &mut Database, n: usize) {
    let x = (0..n as i64).map(|i| (i, i % KEYS));
    db.register_table(table("X", x)).expect("register X");
    db.register_table(table("K", (0..KEYS).map(|k| (k, k))))
        .expect("register K");
    db.register_table(table("E", std::iter::empty()))
        .expect("register E");
}

fn scan(table: &str, var: &str) -> Box<PhysPlan> {
    Box::new(PhysPlan::ScanTable {
        table: table.into(),
        var: var.into(),
        pred: None,
    })
}

fn hash_join(left: &str, right: &str, kind: JoinKind) -> PhysPlan {
    PhysPlan::HashJoin {
        left: scan(left, "l"),
        right: scan(right, "r"),
        left_keys: vec![E::path("l", &["b"])],
        right_keys: vec![E::path("r", &["b"])],
        residual: None,
        kind,
    }
}

fn bench_rowpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("b17_rowpath");
    let config = ExecConfig::default().collect_timing(false);
    for n in ladder(&[2048usize, 8192, 32768]) {
        let mut mem = Database::new();
        load(&mut mem, n);
        let path = std::env::temp_dir().join(format!(
            "tmql-bench-rowpath-{}-{n}.tmdb",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut warm = Database::open_with(&path, WARM_POOL).expect("create db");
        load(&mut warm, n);
        let nest = JoinKind::Nest {
            func: E::path("r", &["n"]),
            label: "s".into(),
        };
        let plans = [
            ("build", hash_join("E", "X", JoinKind::Semi), 0),
            ("probe/semi", hash_join("X", "K", JoinKind::Semi), n),
            ("probe/nest", hash_join("X", "K", nest), n),
            (
                "map",
                PhysPlan::Map {
                    input: scan("X", "x"),
                    expr: E::path("x", &["n"]),
                    var: "v".into(),
                },
                n,
            ),
        ];
        for (backing, db) in [("memory", &mem), ("disk-warm", &warm)] {
            for (name, plan, rows) in &plans {
                let run = || {
                    let mut ctx = ExecContext::with_config(db.catalog(), &config);
                    execute(plan, &mut ctx, &Env::new()).expect("runs").len()
                };
                // Also the warming pass of the pool.
                assert_eq!(run(), *rows, "{backing}/{name}");
                g.bench_with_input(
                    BenchmarkId::new(format!("{backing}/{name}"), n),
                    &n,
                    |b, _| b.iter(run),
                );
            }
        }
        drop(warm);
        let _ = std::fs::remove_file(&path);
        let mut wal = path.into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(wal);
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_rowpath
}
criterion_main!(benches);
