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
//!   side of the join, costs none;
//! * with the root `Map` evaluated by the exit into the result set (no
//!   `(v = tuple)` binding): **2.82 per probe row** (5 777) — the nested
//!   set, the extended row and the result tuple's body;
//! * with the root `Map` evaluated by the join where it would build
//!   `x ++ (s = …)`: **1.83 per probe row** (3 739) — the nested set (none
//!   for an empty one) and the result tuple's body.
//!
//! The bound below, 2.25 per probe row, fails a return to building the
//! intermediate row `x ++ (s = …)`, an envelope per scanned row, a key
//! vector, a B-tree node or a label per row.
//!
//! The same test prices the WHERE-clause nest join, `SUBSETEQ_BUG`
//! (`x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b)`, σ over Δ): the
//! selection is decided inside the join, on the left row and its nested
//! set, before `x ++ (z = set)` is built, so a row it rejects costs its
//! set and nothing more. Measured the same way:
//!
//! * with a `Filter` over the join: **1.87 per probe row** (3 835);
//! * with the selection fused into the join: **1.06 per probe row**
//!   (2 173), one fewer allocation per rejected row (1 653 of 2 048).
//!
//! Its bound, 1.25 per probe row, fails a return to building the rows
//! the selection drops.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use tmql::{Database, QueryOptions};
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::SUBSETEQ_BUG;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROWS: u64 = 2048;
const MAX_ALLOCATIONS_PER_PROBE_ROW: f64 = 2.25;
const MAX_ALLOCATIONS_PER_FILTERED_PROBE_ROW: f64 = 1.25;

#[test]
fn nesting_a_probe_row_allocates_a_small_fixed_number_of_times() {
    let db = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS as usize,
        inner: ROWS as usize,
        dangling_fraction: 0.25,
        ..GenConfig::default()
    }));
    // Allocations of a second run (the first is unmeasured, so lazily
    // initialised state is not charged), and its result.
    let measure = |query: &str| {
        let opts = QueryOptions::default();
        let rows = db.query_with(query, opts).expect("query runs").len();
        let before = counting_alloc::allocations();
        let result = db.query_with(query, opts).expect("query runs");
        let allocations = counting_alloc::allocations() - before;
        assert_eq!(result.len(), rows);
        assert_eq!(result.metrics.hash_probes, ROWS, "one probe per X row");
        allocations
    };

    let allocations =
        measure("SELECT (n = x.n, s = (SELECT y.a FROM Y y WHERE x.b = y.b)) FROM X x");
    assert!(
        allocations as f64 <= MAX_ALLOCATIONS_PER_PROBE_ROW * ROWS as f64,
        "{allocations} allocations for {ROWS} probe rows ({:.2} per row, budget {MAX_ALLOCATIONS_PER_PROBE_ROW})",
        allocations as f64 / ROWS as f64
    );

    let allocations = measure(SUBSETEQ_BUG);
    assert!(
        allocations as f64 <= MAX_ALLOCATIONS_PER_FILTERED_PROBE_ROW * ROWS as f64,
        "{allocations} allocations for {ROWS} probe rows ({:.2} per row, budget {MAX_ALLOCATIONS_PER_FILTERED_PROBE_ROW})",
        allocations as f64 / ROWS as f64
    );
}
