//! Allocation budget of a flattened semijoin — a machine-independent
//! guard on rows without envelopes.
//!
//! `SELECT x FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)`
//! over 2048-row in-memory `X` and `Y` (the benchmark's `MEMBERSHIP`
//! statement) scans both tables, hash-builds `Y` and probes it once per
//! `X` row; a semijoin's output is its left row, so nothing is built per
//! row at all and the allocation count is planning, the hash table and a
//! buffer per batch.
//!
//! Measured (whole statement ÷ 4096 scanned rows, planning included):
//!
//! * with every scanned row re-made as a one-field record `(x = row)`:
//!   **1.30 per scanned row** (5 319) — 4 096 of them envelopes;
//! * with scans handing out the stored rows themselves: **0.30 per
//!   scanned row** (1 222) — planning, the hash table, a buffer per batch
//!   and the root `Map`'s output binding of each result row.
//!
//! The bound below is half an allocation per scanned row: an envelope on
//! either side of the join is twice that.
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

const ROWS: u64 = 2048;
/// Budget for the whole statement: 0.5 allocations per scanned row.
const MAX_ALLOCATIONS: u64 = ROWS;

#[test]
fn a_semijoin_allocates_nothing_per_scanned_row() {
    let db = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS as usize,
        inner: ROWS as usize,
        ..GenConfig::default()
    }));
    let query = tmql_workload::queries::MEMBERSHIP;
    // Serial: a worker wave's thread spawns allocate per batch, not per row.
    let opts = QueryOptions::default().threads(1);
    // Once unmeasured, so lazily initialised state is not charged.
    let rows = db.query_with(query, opts).expect("query runs").len();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = db.query_with(query, opts).expect("query runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(result.len(), rows);
    assert_eq!(result.metrics.rows_scanned, 2 * ROWS, "both tables scanned");
    assert_eq!(result.metrics.hash_probes, ROWS, "one probe per X row");
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "{allocations} allocations for {} scanned rows ({:.2} per row, budget 0.5)",
        2 * ROWS,
        allocations as f64 / (2 * ROWS) as f64
    );
}
