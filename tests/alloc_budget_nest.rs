//! Allocation budget of the nest-join probe path — a machine-independent
//! guard on complex objects as cheap keys.
//!
//! `SELECT (n = x.n, s = (SELECT y.a FROM Y y WHERE x.b = y.b)) FROM X x`
//! over 2048-row in-memory `X` and `Y` (the benchmark's SELECT-nesting
//! statement) hash-builds `Y`, probes it once per `X` row, nests the
//! matches into a set per row and builds one result tuple per row, so its
//! allocation count is the price of a probe row plus fixed planning and
//! build costs.
//!
//! Measured (whole statement ÷ 2048 probe rows; planning, the scan of
//! both tables and the hash build included):
//!
//! * before (`Value::Set(BTreeSet)`, `HashMap<Vec<Value>, Vec<usize>>`
//!   join table, labels allocated per output row): **14.1 per probe
//!   row** (28 808);
//! * with the shared-slice set, the chained join table, per-plan labels
//!   and exact-size record bodies: **7.0 per probe row**
//!   (14 255) — two scan bindings, the nested set, the extended row, the
//!   result tuple (its field buffer and its body) and its binding;
//! * with scans handing out the stored rows themselves and the result
//!   tuple evaluated straight into its body: **4.0 per probe row**
//!   (8 109) — the nested set, the extended row `x ++ (s = …)`, the result
//!   tuple's body and its `(v = tuple)` binding. A scanned row, on either
//!   side of the join, costs none.
//!
//! The bound below leaves headroom for about one more allocation per
//! row, not for a return to an envelope per scanned row, a key vector, a
//! B-tree node or a label per row.
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
const MAX_ALLOCATIONS_PER_PROBE_ROW: u64 = 5;

#[test]
fn nesting_a_probe_row_allocates_a_small_fixed_number_of_times() {
    let db = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS as usize,
        inner: ROWS as usize,
        dangling_fraction: 0.25,
        ..GenConfig::default()
    }));
    let query = "SELECT (n = x.n, s = (SELECT y.a FROM Y y WHERE x.b = y.b)) FROM X x";
    let opts = QueryOptions::default();
    // Once unmeasured, so lazily initialised state is not charged.
    let rows = db.query_with(query, opts).expect("query runs").len();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = db.query_with(query, opts).expect("query runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(result.len(), rows);
    assert_eq!(result.metrics.hash_probes, ROWS, "one probe per X row");
    assert!(
        allocations <= MAX_ALLOCATIONS_PER_PROBE_ROW * ROWS,
        "{allocations} allocations for {ROWS} probe rows ({:.1} per row, budget {MAX_ALLOCATIONS_PER_PROBE_ROW})",
        allocations as f64 / ROWS as f64
    );
}
