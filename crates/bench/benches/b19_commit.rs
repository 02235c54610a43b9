//! B19 — what a durable commit costs: the layer micro-bench of the write
//! path.
//!
//! The benchmark's `disk_rw` workload, included from
//! `tmqlbench/src/workloads.rs` and built at its pinned seed: a disk
//! database whose pool holds it, at the default checkpoint threshold.
//! Its two write shapes, timed per call with the checkpoints they
//! trigger amortized in:
//!
//! * `replace` — one auto-committed replace of a 256-row two-column
//!   table: three page images and a commit record (24 676 bytes of log),
//!   one WAL write, one fsync;
//! * `txn-of-four` — `begin`, four such replaces, `commit`: nine page
//!   images and one commit record (73 954 bytes), one write, one fsync.
//!
//! Statistics, row pages and the catalog image are priced with the
//! commit; the log's share is framing, checksumming, the write and the
//! fsync, and a checkpoint's share is the flush, two file syncs and the
//! WAL reset that starts its next generation.

#[allow(dead_code)]
#[path = "../../../tmqlbench/src/workloads.rs"]
mod workloads;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tmql_bench::criterion;
use workloads::PINNED_SEED;

fn bench_commit(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("tmql-bench-commit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let mut inst = workloads::build("disk_rw", PINNED_SEED, 1, &dir).expect("workload builds");
    let tables = inst.tables.clone();
    let db = &mut inst.dbs[0];
    let mut g = c.benchmark_group("b19_commit");
    g.bench_function("replace", |b| {
        b.iter(|| {
            let table = black_box(tables[0].clone());
            db.catalog_mut().replace(table).expect("replace commits")
        })
    });
    g.bench_function("txn-of-four", |b| {
        b.iter(|| {
            db.begin().expect("transaction begins");
            for table in &tables[4..8] {
                let table = black_box(table.clone());
                db.catalog_mut().replace(table).expect("replace writes");
            }
            db.commit().expect("transaction commits")
        })
    });
    g.finish();
    // Closing the database empties its log; then nothing is left.
    drop(inst);
    std::fs::remove_dir_all(&dir).expect("the temporary directory goes");
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_commit
}
criterion_main!(benches);
