//! Allocation budget of the disk scan path — a machine-independent guard
//! on deciding a selection on page bytes.
//!
//! `SELECT x.n FROM X x WHERE x.n < 0` over an 8192-row **disk-backed**
//! `X` (a pool that holds all of it, so nothing but the row path runs)
//! visits every row and emits none.
//!
//! Measured (whole statement ÷ 8192 rows, planning included):
//!
//! * with every row copied out of its page slot, decoded into a `Record`
//!   and bound before the selection saw it: **5.7 allocations per row**
//!   (46 778) — the slot copy, the field buffer, the set-valued `a` and
//!   its elements, the row body, the binding;
//! * with the selection fused into the scan, whose pre-test skip-scans
//!   the encoded row in its latched page and compares `n` on the stack:
//!   **0.03 per row** (261) — planning plus one buffer per morsel.
//!
//! The bound below is a tenth of an allocation per row.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use tmql::{Database, QueryOptions};
use tmql_workload::gen::{gen_xy, GenConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROWS: u64 = 8192;
/// Budget for the whole statement: 0.1 allocations per row.
const MAX_ALLOCATIONS: u64 = ROWS / 10;

#[test]
fn scanning_a_disk_row_allocates_only_if_it_survives() {
    let path = std::env::temp_dir().join(format!("tmql-alloc-disk-{}.tmdb", std::process::id()));
    let mut db = Database::open_with(&path, 4096).expect("fresh database");
    let generated = gen_xy(&GenConfig {
        outer: ROWS as usize,
        inner: 16,
        ..GenConfig::default()
    });
    let x = generated.table("X").expect("generated").clone();
    db.register_table(x).expect("rows written to pages");
    assert!(db.catalog().table("X").expect("X").is_disk_backed());

    let query = "SELECT x.n FROM X x WHERE x.n < 0";
    let opts = QueryOptions::default();
    // Once unmeasured, so lazily initialised state is not charged.
    assert!(db.query_with(query, opts).expect("query runs").is_empty());

    let before = counting_alloc::allocations();
    let result = db.query_with(query, opts).expect("query runs");
    let allocations = counting_alloc::allocations() - before;

    assert!(result.is_empty(), "no `n` is negative");
    assert_eq!(result.metrics.rows_scanned, ROWS, "every row was visited");
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "{allocations} allocations for {ROWS} scanned rows ({:.2} per row, budget 0.1)",
        allocations as f64 / ROWS as f64
    );
    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}
