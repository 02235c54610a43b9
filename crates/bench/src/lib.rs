#![warn(missing_docs)]

//! # tmql-bench — shared benchmark plumbing
//!
//! The Criterion bench targets under `benches/` are `table1_nestjoin` and
//! `b1`–`b7`, the paper's experiments (see the table "Experiment ladders
//! and the paper" in `tmqlbench/README.md`), `b14_observe`, the
//! observability tax, and three **layer micro-benches**
//! (the ROADMAP's "measured layer by layer" aim): `b15_values` prices a
//! complex object as a key, on the generated `X`/`Y` rows of the
//! `paper_nested` workload at n = 256
//! and 2048 — a record's hash walked vs remembered, a handle clone, `cmp`
//! between rows in canonical vs permuted label order, set
//! build/clone/compare/`⊆`, `RecordSet` insert, the ordered
//! `BTreeSet<Value>` collect of whole rows, and the hash join's build and
//! its semi/anti/nest probe — the ns/row numbers the end-to-end
//! `round_norm_ms` of that workload blends. `b16_scanfilter` is the second:
//! what a stored row costs a selection, on a two-int table in memory, on
//! disk behind a pool that holds it and behind an 8-page pool — the
//! unfiltered `Table::batches` read (every row materialized) against
//! `Table::batch_where` behind a pre-test that admits no row, a quarter of
//! them, every row; `where/none` is the floor a rejected row pays (page
//! walk, skip-scan, one comparison), `where/all` what the test adds to an
//! admitted one. `b17_rowpath`, the third, prices a scanned row into its
//! first consumer: hash build, semi / nest probe, map; its `lookup` group
//! prices the name path (`x.b`, `s`) each of them evaluates per row.
//!
//! This library holds the shared helpers: standard Criterion configuration, a
//! one-shot work-metrics reporter so every benchmark also logs the
//! executor's machine-independent counters, and the **quick-smoke mode**
//! (`TMQL_BENCH_QUICK=1`) CI uses to actually *execute* every bench target
//! in seconds instead of minutes: tiny sample counts and the smallest rung
//! of every cardinality ladder.

use std::time::Duration;

use criterion::Criterion;
use tmql::{Database, QueryOptions};

/// True when `TMQL_BENCH_QUICK` is set (to anything but `0`/empty):
/// shrink sampling and ladders so a full `cargo bench` run finishes in CI
/// smoke time while still executing every benchmark at least once.
pub fn quick_mode() -> bool {
    std::env::var("TMQL_BENCH_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Criterion tuned for interpreter-scale workloads: modest sample counts,
/// short measurement windows (the comparisons here are 2–100×, far above
/// noise). In [`quick_mode`] the windows collapse to smoke-test length.
pub fn criterion() -> Criterion {
    if quick_mode() {
        Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(40))
            .configure_from_args()
    } else {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(2))
            .configure_from_args()
    }
}

/// Run once and log the executor work counters (rows scanned, comparisons,
/// hash traffic, subquery invocations) — the machine-independent "shape"
/// of a run, to read alongside its wall time.
pub fn report_work(tag: &str, db: &Database, src: &str, opts: QueryOptions) {
    match db.query_with(src, opts) {
        Ok(r) => eprintln!(
            "[work] {tag}: rows={} {} total={}",
            r.len(),
            r.metrics,
            r.metrics.total_work()
        ),
        Err(e) => eprintln!("[work] {tag}: ERROR {e}"),
    }
}

/// The standard cardinality ladder. Nested-loop configurations skip the
/// top rung (quadratic blow-up would dominate the whole run); quick mode
/// keeps only the smallest rung.
pub fn sizes() -> Vec<usize> {
    ladder(&[256, 1024, 4096])
}

/// Truncate a per-bench scale ladder to its smallest rung in
/// [`quick_mode`], pass it through unchanged otherwise.
pub fn ladder<T: Clone>(full: &[T]) -> Vec<T> {
    if quick_mode() {
        full[..1.min(full.len())].to_vec()
    } else {
        full.to_vec()
    }
}

/// Cap for strategies with quadratic behaviour.
pub const NL_CAP: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_full_without_quick_env() {
        // The test process does not set TMQL_BENCH_QUICK, so ladders pass
        // through untouched.
        if !quick_mode() {
            assert_eq!(sizes(), vec![256, 1024, 4096]);
            assert_eq!(ladder(&[1, 2, 3]), vec![1, 2, 3]);
        }
    }
}
