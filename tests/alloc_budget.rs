//! Allocation budget of the per-row scan path — a machine-independent
//! guard on the copy-free row representation.
//!
//! `SELECT x.n FROM X x WHERE x.n < 0` over an 8192-row in-memory `X`
//! scans, binds and filters every row and emits none, so its allocation
//! count is the price of the row path alone plus a fixed planning cost.
//!
//! Measured (whole statement ÷ 8192 rows, planning included):
//!
//! * before this representation (`Record` = `Vec<(String, Value)>`, rows
//!   deep-copied by `Table::batch`, `Env::push_row` and `eval(Var)`):
//!   **17.5 allocations per row** (143 080);
//! * with shared row bodies, interned binding variables and borrow-first
//!   `eval`: **1.0 per row** (8 475) — the body of the `(x = row)` binding.
//!
//! The bound below leaves headroom for a second allocation per row, not
//! for a return to copying: one deep copy of an `X` row alone is five.
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
const MAX_ALLOCATIONS_PER_ROW: u64 = 3;

#[test]
fn scanning_a_row_allocates_a_small_fixed_number_of_times() {
    let db = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS as usize,
        inner: 16,
        ..GenConfig::default()
    }));
    let query = "SELECT x.n FROM X x WHERE x.n < 0";
    // Serial: a worker wave's thread spawns allocate per batch, not per row.
    let opts = QueryOptions::default().threads(1);
    // Once unmeasured, so lazily initialised state is not charged.
    assert!(db.query_with(query, opts).expect("query runs").is_empty());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = db.query_with(query, opts).expect("query runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(result.is_empty(), "no `n` is negative");
    assert_eq!(result.metrics.rows_scanned, ROWS, "every row was scanned");
    assert!(
        allocations <= MAX_ALLOCATIONS_PER_ROW * ROWS,
        "{allocations} allocations for {ROWS} scanned rows ({:.1} per row, budget {MAX_ALLOCATIONS_PER_ROW})",
        allocations as f64 / ROWS as f64
    );
}
