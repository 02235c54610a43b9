//! Allocation budget of the spill tier — a machine-independent guard on
//! frames encoded into the run's buffer and decoded into the row's body.
//!
//! 2048 generated `X` rows `(a: P INT, b, n)` are dealt round-robin into
//! 8 runs of one scratch file, sealed, and read back in batches of 1024:
//! what a grace partitioning pass and its partition kernels do.
//!
//! Measured (allocations ÷ 2048 rows):
//!
//! * with a `Vec` per frame, a file per run, a `Vec<Field>` per row copied
//!   into the body and a `Vec<Value>` per set: **1.40 written, 3.68 read**;
//! * with frames encoded in place, runs as extents of one file, fields
//!   built in the body and sets through a reused accumulator:
//!   **0.02 written, 1.84 read** — the body of every row and of every
//!   non-empty set.
//!
//! Which run a row goes to is decided by the hash of its join keys, taken
//! by reference out of the row under the level's seed: **0** allocations,
//! where evaluating the keys into a `Vec<Value>` to hash them cost one per
//! row.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use tmql::Record;
use tmql_algebra::{Env, ScalarExpr};
use tmql_exec::op::{compile_all, spill, RowVar};
use tmql_storage::SpillDir;
use tmql_workload::gen::{gen_xy, GenConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROWS: usize = 2048;
const RUNS: usize = 8;
const BATCH: usize = 1024;
/// Per row written: a buffer per run and a list of extents, nothing per row.
const MAX_PER_ROW_WRITTEN: f64 = 0.1;
/// Per row read: its body and its set's, plus a vector per batch.
const MAX_PER_ROW_READ: f64 = 2.2;

/// Allocations `f` makes.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counting_alloc::allocations();
    let out = f();
    (out, counting_alloc::allocations() - before)
}

#[test]
fn spilling_a_row_allocates_nothing_and_reading_it_back_only_its_bodies() {
    let catalog = gen_xy(&GenConfig {
        outer: ROWS,
        inner: 1,
        ..GenConfig::default()
    });
    let table = catalog.table("X").expect("generated");
    let rows: Vec<Record> = table
        .batches(BATCH)
        .flat_map(|b| b.expect("in memory"))
        .collect();
    assert_eq!(rows.len(), ROWS);
    let dir = SpillDir::create().expect("temp dir is writable");

    // Partitioning by `(x.b, x.a)`: an integer and a set-valued key.
    let keys = [ScalarExpr::path("x", &["b"]), ScalarExpr::path("x", &["a"])];
    let part = spill::keys_part(compile_all(&keys, &[&["x".into()]]), &RowVar::bare("x"));
    let env = Env::new();
    let (slots, partitioned) = counted(|| {
        let mut slots = [0usize; RUNS];
        for (seed, r) in (0..4).flat_map(|seed| rows.iter().map(move |r| (seed, r))) {
            let hash = part(r, &env, seed).unwrap().expect("no NULL key");
            slots[(hash % RUNS as u64) as usize] += 1;
        }
        slots
    });
    assert_eq!(slots.iter().sum::<usize>(), 4 * ROWS);
    assert_eq!(
        partitioned, 0,
        "allocations to partition {ROWS} rows 4 times"
    );

    let (files, written) = counted(|| {
        let mut runs: Vec<_> = (0..RUNS).map(|_| dir.create_run().unwrap()).collect();
        for (i, r) in rows.iter().enumerate() {
            runs[i % RUNS].write(r).unwrap();
        }
        let sealed = runs.into_iter().map(|w| w.finish().unwrap());
        sealed.collect::<Vec<_>>()
    });
    let (back, read) = counted(|| {
        let mut back = Vec::with_capacity(RUNS);
        for f in &files {
            let mut reader = f.reader().unwrap();
            let mut run = Vec::new();
            loop {
                let batch = reader.read_batch(BATCH).unwrap();
                if batch.is_empty() {
                    break;
                }
                run.push(batch);
            }
            back.push(run);
        }
        back
    });

    let mut seen = 0;
    for (k, run) in back.iter().enumerate() {
        for (j, r) in run.iter().flatten().enumerate() {
            assert_eq!(*r, rows[j * RUNS + k]);
            seen += 1;
        }
    }
    assert_eq!(seen, ROWS, "every row came back");
    let (per_written, per_read) = (written as f64 / ROWS as f64, read as f64 / ROWS as f64);
    assert!(
        per_written <= MAX_PER_ROW_WRITTEN,
        "{written} allocations to write {ROWS} rows ({per_written:.2} per row, budget {MAX_PER_ROW_WRITTEN})"
    );
    assert!(
        per_read <= MAX_PER_ROW_READ,
        "{read} allocations to read {ROWS} rows ({per_read:.2} per row, budget {MAX_PER_ROW_READ})"
    );
    println!("written {per_written:.3} / read {per_read:.3} allocations per row");
}
