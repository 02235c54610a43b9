//! B16 — what a stored row costs a selection: the layer micro-bench under
//! the filtering scan ("sargable predicates on encoded bytes", a ROADMAP
//! item that has landed).
//!
//! One table `X(n, b)` of two-int rows — the shape the benchmark of
//! record's disk workloads scan — in three backings:
//!
//! * **memory** — rows are shared handles;
//! * **disk-warm** — a pool that holds the whole extent, warmed once: the
//!   price of the slotted-page walk and the codec with no I/O;
//! * **disk-cold** — a pool of [`COLD_POOL`] pages: every pass re-faults
//!   the extent.
//!
//! and, per backing, four passes over all `n` rows in 1024-row batches:
//!
//! * `batches` — the unfiltered [`Table::batches`] read: every row
//!   materialized (what a `Filter` over a scan used to pull);
//! * `where/none`, `where/quarter`, `where/all` —
//!   [`Table::batch_where`] behind a one-conjunct pre-test that admits
//!   no row, a quarter of them, every row. `none` is the floor (page
//!   walk + skip-scan + one comparison per row), `all` is `batches` plus
//!   the test, and the distance between them is what a rejected row no
//!   longer pays.
//!
//! Times are per pass over all `n` rows (divide by `n` for ns/row).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmql::{Database, Record, Table, Ty, Value};
use tmql_algebra::CmpOp;
use tmql_bench::{criterion, ladder};
use tmql_storage::RowTest;

const COLD_POOL: usize = 8;
const WARM_POOL: usize = 4096;
const BATCH: usize = 1024;

fn table(n: usize) -> Table {
    let mut t = Table::new("X", vec![("n".into(), Ty::Int), ("b".into(), Ty::Int)]);
    for i in 0..n as i64 {
        let row = [("n", Value::Int(i)), ("b", Value::Int(i % 64))];
        t.insert(Record::new(row).expect("distinct labels"))
            .expect("valid row");
    }
    t
}

fn disk_db(n: usize, pool: usize, tag: &str) -> (Database, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "tmql-bench-scanfilter-{}-{tag}-{n}.tmdb",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let mut db = Database::open_with(&path, pool).expect("create db");
        db.register_table(table(n)).expect("register");
    }
    // Reopen so the pool starts empty — registration leaves pages warm.
    (Database::open_with(&path, pool).expect("reopen db"), path)
}

/// Rows materialized by one unfiltered pass.
fn pass_batches(t: &Table) -> usize {
    t.batches(BATCH).map(|b| b.expect("reads").len()).sum()
}

/// Rows materialized by one pass behind `test`.
fn pass_where(t: &Table, test: &RowTest) -> usize {
    let (mut pos, mut kept) = (0, 0);
    loop {
        let (rows, visited) = t.batch_where(pos, BATCH, test).expect("reads");
        kept += rows.len();
        pos += visited;
        if visited < BATCH {
            return kept;
        }
    }
}

fn bench_scanfilter(c: &mut Criterion) {
    let mut g = c.benchmark_group("b16_scanfilter");
    for n in ladder(&[4096usize, 65536]) {
        let mem = {
            let mut db = Database::new();
            db.register_table(table(n)).expect("register");
            db
        };
        let (warm, warm_path) = disk_db(n, WARM_POOL, "warm");
        let (cold, cold_path) = disk_db(n, COLD_POOL, "cold");
        let one = |label: &str, op, key| RowTest::new(vec![(label.into(), op, Value::Int(key))]);
        let tests = [
            ("none", one("n", CmpOp::Lt, 0), 0),
            ("quarter", one("b", CmpOp::Lt, 16), n / 4),
            ("all", one("n", CmpOp::Ge, 0), n),
        ];
        for (backing, db) in [("memory", &mem), ("disk-warm", &warm), ("disk-cold", &cold)] {
            let t = db.catalog().table("X").expect("X");
            // Also the warming pass of the warm pool.
            assert_eq!(pass_batches(t), n);
            g.bench_with_input(
                BenchmarkId::new(format!("{backing}/batches"), n),
                &n,
                |b, _| b.iter(|| pass_batches(t)),
            );
            for (name, test, kept) in &tests {
                assert_eq!(pass_where(t, test), *kept, "{backing}/{name}");
                g.bench_with_input(
                    BenchmarkId::new(format!("{backing}/where/{name}"), n),
                    &n,
                    |b, _| b.iter(|| pass_where(t, test)),
                );
            }
        }
        let _ = std::fs::remove_file(&cold_path);
        let _ = std::fs::remove_file(&warm_path);
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_scanfilter
}
criterion_main!(benches);
