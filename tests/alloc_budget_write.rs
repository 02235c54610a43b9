//! Allocation budget of the write path — a machine-independent guard on
//! what a table replace and its commit cost beyond their bytes.
//!
//! A 256-row, two-column table of a disk database (a pool that holds all
//! of it) is replaced sixteen times, each replace its own commit; then
//! the catalog alone is committed sixteen times.
//!
//! Measured (allocations ÷ 4096 replaced rows, and per bare commit):
//!
//! * with statistics kept in an ordered set per column (a node split
//!   every few values, every value cloned into it), each row encoded into
//!   a fresh buffer, a page buffer per data page, and a commit that copied
//!   the schema, every table's statistics and extent into an image and
//!   framed each WAL record through two more buffers: **1.53 per row**
//!   (6 275), **42 per commit** (674);
//! * with statistics sorted out of one borrowed vector per column, one
//!   row buffer and one page buffer per table build, the image encoded
//!   from borrowed parts and the records framed in the log's own buffer:
//!   **0.18 per row** (755 — 47 a replace, whatever its row count),
//!   **8 per commit** (130).
//!
//! The bounds below are 0.3 allocations per row and 12 per commit.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use tmql::Database;
use tmql_storage::table::int_table;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROWS: i64 = 256;
const ROUNDS: u64 = 16;
/// Budget per replaced row (statistics, page writes and commit included).
const MAX_PER_ROW: f64 = 0.3;
/// Budget per commit of an unchanged catalog of three tables.
const MAX_PER_COMMIT: u64 = 12;

#[test]
fn replacing_a_row_and_committing_allocate_for_neither_rows_nor_copies() {
    let path = std::env::temp_dir().join(format!("tmql-alloc-write-{}.tmdb", std::process::id()));
    let mut db = Database::open_with(&path, 4096).expect("fresh database");
    // No checkpoint inside the measurement: it is paid per megabyte of
    // log, not per commit.
    db.set_wal_checkpoint_bytes(u64::MAX);
    let table = |name: &str, shift: i64| {
        let rows: Vec<Vec<i64>> = (0..ROWS).map(|i| vec![i * 3 + shift, i % 16]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        int_table(name, &["a", "b"], &refs)
    };
    for name in ["T0", "T1", "T2"] {
        db.register_table(table(name, 0)).expect("rows written");
    }
    // Built — and once replaced, so lazily initialised state is not
    // charged — before the count starts.
    let incoming: Vec<_> = (0..ROUNDS as i64).map(|i| table("T1", i)).collect();
    db.catalog_mut().replace(table("T1", 99)).expect("replace");

    let before = counting_alloc::allocations();
    for t in incoming {
        db.catalog_mut().replace(t).expect("replace");
    }
    let replacing = counting_alloc::allocations() - before;

    let before = counting_alloc::allocations();
    for _ in 0..ROUNDS {
        db.catalog().sync().expect("commit");
    }
    let committing = counting_alloc::allocations() - before;

    let rows = ROUNDS * ROWS as u64;
    assert_eq!(db.catalog().table("T1").expect("T1").len(), ROWS as usize);
    assert!(
        replacing as f64 <= MAX_PER_ROW * rows as f64,
        "{replacing} allocations for {rows} replaced rows ({:.2} per row, budget {MAX_PER_ROW})",
        replacing as f64 / rows as f64
    );
    assert!(
        committing <= MAX_PER_COMMIT * ROUNDS,
        "{committing} allocations for {ROUNDS} commits ({} per commit, budget {MAX_PER_COMMIT})",
        committing / ROUNDS
    );
    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}
