//! Allocation budget of the per-row scan path — a machine-independent
//! guard on the copy-free row representation.
//!
//! `SELECT x.n FROM X x WHERE x.n < 0` over an 8192-row in-memory `X`
//! visits every row and emits none, so its allocation count is the price
//! of the row path alone plus a fixed planning cost.
//!
//! Measured (whole statement ÷ 8192 rows, planning included):
//!
//! * before this representation (`Record` = `Vec<(String, Value)>`, rows
//!   deep-copied by `Table::batch`, `Env::push_row` and `eval(Var)`):
//!   **17.5 allocations per row** (143 080);
//! * with shared row bodies, interned binding variables and borrow-first
//!   `eval`: **1.0 per row** (8 475) — the body of the `(x = row)` binding;
//! * with the selection fused into the scan, whose pre-test rejects a row
//!   by reference before it is cloned or bound: **0.03 per row** (261)
//!   — planning plus one buffer per morsel.
//!
//! The bound below is a tenth of an allocation per row: binding the
//! rejected rows again is ten times that.
//!
//! The same test then prices the result path: `SELECT x.b FROM X x` over
//! the same `X`, whose values go straight into the sorted, deduplicated
//! result set. Wrapping each value in a `(v = value)` record on its way
//! there, deduplicating the records and sorting the values again cost
//! **1.12 allocations per result row**; without them it is 0.11, and the
//! bound is 0.25.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tmql::{Database, QueryOptions};
use tmql_workload::gen::{gen_xy, GenConfig};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with every allocation (and growing or shrinking
/// reallocation) counted.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect that
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: u64 = 8192;
/// Budget for the whole statement: 0.1 allocations per row.
const MAX_ALLOCATIONS: u64 = ROWS / 10;
/// Budget for the projection: allocations per result row.
const MAX_PER_RESULT_ROW: f64 = 0.25;

#[test]
fn scanning_a_row_allocates_a_small_fixed_number_of_times() {
    let db = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS as usize,
        inner: 16,
        ..GenConfig::default()
    }));
    let query = "SELECT x.n FROM X x WHERE x.n < 0";
    let opts = QueryOptions::default();
    // Once unmeasured, so lazily initialised state is not charged.
    assert!(db.query_with(query, opts).expect("query runs").is_empty());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = db.query_with(query, opts).expect("query runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(result.is_empty(), "no `n` is negative");
    assert_eq!(result.metrics.rows_scanned, ROWS, "every row was scanned");
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "{allocations} allocations for {ROWS} scanned rows ({:.2} per row, budget 0.1)",
        allocations as f64 / ROWS as f64
    );

    let query = "SELECT x.b FROM X x";
    let distinct = db.query_with(query, opts).expect("query runs").len();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = db.query_with(query, opts).expect("query runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(result.len(), distinct);
    assert!(distinct > 1000, "{distinct} result rows");
    let per_row = allocations as f64 / distinct as f64;
    assert!(
        per_row <= MAX_PER_RESULT_ROW,
        "{allocations} allocations for {distinct} result rows ({per_row:.2} per row, \
         budget {MAX_PER_RESULT_ROW})"
    );
}
