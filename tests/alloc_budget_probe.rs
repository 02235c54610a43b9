//! Allocation budget of the index probe's fetch path — a
//! machine-independent guard on what one fetched disk row costs.
//!
//! `SELECT x.n FROM X x WHERE x.b = 7` over a 65 536-row **disk-backed**
//! `X(n, b)` with an index on `b` (256 keys, 256 rows each, spread over
//! the whole extent) behind an **8-page pool**: the probe fetches 256 rows,
//! each from a page faulted for it, and decodes them. The same statement
//! with a key no row holds (`x.b = -1`) plans, probes and fetches nothing;
//! the difference between the two is what the fetched rows cost.
//!
//! Measured (difference ÷ 256 fetched rows): **1.16 allocations per row**
//! (440 against 142) — the decoded row's body, its share of the
//! projection's result set and of the fetch's row vector; no label, no
//! page buffer. The bound below is 1.25.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

use tmql::{Database, QueryOptions};
use tmql_storage::table::int_table;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROWS: i64 = 65_536;
const KEYS: i64 = 256;
const POOL_PAGES: usize = 8;
/// Budget per fetched row, beyond the empty probe.
const MAX_PER_ROW: f64 = 1.25;

#[test]
fn fetching_a_probed_disk_row_allocates_its_row_and_little_else() {
    let path = std::env::temp_dir().join(format!("tmql-alloc-probe-{}.tmdb", std::process::id()));
    {
        let rows: Vec<[i64; 2]> = (0..ROWS).map(|i| [i, i % KEYS]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = Database::open_with(&path, POOL_PAGES).expect("fresh database");
        db.register_table(int_table("X", &["n", "b"], &refs))
            .expect("rows written to pages");
        db.create_index("X", "b").expect("index built");
    }
    // Reopened, so the pool starts empty, as the disk workloads' do.
    let db = Database::open_with(&path, POOL_PAGES).expect("reopened");
    let opts = QueryOptions::default();
    let allocations = |key: i64| {
        let query = format!("SELECT x.n FROM X x WHERE x.b = {key}");
        // Once unmeasured, so lazily initialised state is not charged.
        db.query_with(&query, opts).expect("query runs");
        let before = counting_alloc::allocations();
        let result = db.query_with(&query, opts).expect("query runs");
        let spent = counting_alloc::allocations() - before;
        assert_eq!(result.metrics.index_probes, 1, "{query} probes the index");
        (spent, result.metrics.index_hits, result.len())
    };
    let (empty, no_hits, no_rows) = allocations(-1);
    let (full, hits, rows) = allocations(7);
    assert_eq!((no_hits, no_rows), (0, 0));
    assert_eq!((hits, rows), (256, 256), "every fetched row is kept");
    let per_row = full.saturating_sub(empty) as f64 / hits as f64;
    assert!(
        per_row <= MAX_PER_ROW,
        "{full} allocations against {empty} for the empty probe: {per_row:.2} per fetched row \
         (budget {MAX_PER_ROW})"
    );
    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}
