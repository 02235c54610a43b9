//! Allocation budget of building a table — a machine-independent guard
//! on one label per column.
//!
//! An 8192-row, two-column `int_table` is built, then `gen_xy`'s
//! 8192-row `X(a: P INT, b, n)` beside a 16-row `Y` (generation,
//! statistics and catalog included).
//!
//! Measured (allocations ÷ 8192 rows):
//!
//! * with every row labelled by fresh strings — each label a `String`
//!   turned into its own `Arc<str>`: **`int_table` 5.0 per row**
//!   (40 999), **`gen_xy` 8.6 per row** (70 811);
//! * with the table's one `Arc<str>` per column cloned into each row
//!   (`Table::insert_values`): **`int_table` 1.0 per row** (8 234),
//!   **`gen_xy` 2.6 per row** (21 602) — the body, and `X.a`'s set.
//!
//! The bounds below are 1.25 allocations per `int_table` row and 3.0
//! per `gen_xy` row: one label per row more fails either.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use tmql_storage::table::int_table;
use tmql_workload::gen::{gen_xy, GenConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROWS: usize = 8192;
/// Budget per `int_table` row: its body, and the table's growth.
const MAX_PER_INT_ROW: f64 = 1.25;
/// Budget per row of `gen_xy`'s `X`: its body and its set, and the
/// generator's fixed costs.
const MAX_PER_XY_ROW: f64 = 3.0;

#[test]
fn a_stored_row_allocates_for_its_values_and_not_its_labels() {
    let data: Vec<[i64; 2]> = (0..ROWS as i64).map(|i| [i, i % 16]).collect();
    let refs: Vec<&[i64]> = data.iter().map(|r| r.as_slice()).collect();
    let cfg = GenConfig {
        outer: ROWS,
        inner: 16,
        ..GenConfig::default()
    };
    // Once unmeasured, so lazily initialised state is not charged.
    int_table("T", &["n", "b"], &refs[..16]);
    gen_xy(&GenConfig::sized(16));

    let before = counting_alloc::allocations();
    let table = int_table("T", &["n", "b"], &refs);
    let building = counting_alloc::allocations() - before;

    let before = counting_alloc::allocations();
    let catalog = gen_xy(&cfg);
    let generating = counting_alloc::allocations() - before;

    assert_eq!(table.len(), ROWS);
    assert_eq!(catalog.table("X").expect("X").len(), ROWS);
    let per_row = |n: u64| n as f64 / ROWS as f64;
    assert!(
        per_row(building) <= MAX_PER_INT_ROW,
        "{building} allocations for {ROWS} int_table rows ({:.2} per row, budget {MAX_PER_INT_ROW})",
        per_row(building)
    );
    assert!(
        per_row(generating) <= MAX_PER_XY_ROW,
        "{generating} allocations for {ROWS} rows of X ({:.2} per row, budget {MAX_PER_XY_ROW})",
        per_row(generating)
    );
}
