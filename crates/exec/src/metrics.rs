//! Work counters reported by the executor.

use std::fmt;
use std::ops::AddAssign;

/// Execution work counters. All operators update these; benchmarks report
/// them next to wall-time so the *shape* of an experiment (e.g. the
/// quadratic blow-up of nested-loop Apply) is visible independent of the
/// machine.
///
/// # Unit of `comparisons`
///
/// One comparison = **one predicate (or residual) evaluation against one
/// candidate**. Operators therefore count at different granularities, by
/// design:
///
/// * `Filter` evaluates its predicate once per input row → one comparison
///   **per row**; a scan with the selection fused in counts the same, one
///   per *visited* row, whether its pre-test or the full predicate
///   decided the row;
/// * the nested-loop join evaluates the join predicate once per (left,
///   right) candidate → one comparison **per pair**;
/// * hash/merge joins count one comparison per *residual* evaluation (the
///   equi-part is covered by `hash_probes` / `rows_sorted`), plus one per
///   key-order advance in the merge.
///
/// Summing them is still meaningful: the total is the number of predicate
/// evaluations performed, which is exactly the work the paper's rewrites
/// reduce. The unit test `comparisons_unit_is_one_predicate_evaluation`
/// in `tests/operators.rs` pins both granularities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Predicate evaluations and key comparisons (see the struct docs for
    /// the per-operator granularity).
    pub comparisons: u64,
    /// Rows inserted into hash tables.
    pub hash_build_rows: u64,
    /// Hash table probes.
    pub hash_probes: u64,
    /// Rows passed through sorts (merge joins).
    pub rows_sorted: u64,
    /// Rows emitted by operators (every operator in the tree, scans
    /// included — the "total intermediate row count" of a streaming run).
    /// A scan with a selection fused in counts every row it visits here
    /// besides the rows it emits: the hand-over from scan to selection
    /// still happens, in place, and the cost model still prices it.
    pub rows_emitted: u64,
    /// Correlated subquery executions (Apply invocations) — the count the
    /// paper's unnesting eliminates.
    pub subquery_invocations: u64,
    /// Records written to spill files when breaker state exceeds
    /// [`crate::ExecConfig::memory_budget_rows`]. Each recursive
    /// repartitioning pass rewrites its rows, so a row can be counted more
    /// than once — this is real I/O traffic, and it is part of
    /// [`Metrics::total_work`]. Always 0 without a budget.
    pub rows_spilled: u64,
    /// Non-empty spill partitions created (grace-hash build/probe pairs
    /// count each side). A shape metric like `batches_emitted`, excluded
    /// from [`Metrics::total_work`].
    pub spill_partitions: u64,
    /// Probe rows of grace hash joins that were answered while the probe
    /// side was being partitioned — a NULL key, or a key hash the build
    /// side's [`crate::op::spill::KeyFilter`] had not seen — and so never
    /// written to a run. Each is also one of `hash_probes` (the probe it
    /// was spared), so this is a shape metric: what `rows_spilled` would
    /// otherwise have included, excluded from [`Metrics::total_work`].
    pub spill_rows_filtered: u64,
    /// Batches emitted by operators (streaming executor granularity).
    pub batches_emitted: u64,
    /// Buffer-pool page requests served from memory while this query ran
    /// (disk-backed catalogs only; always 0 for in-memory databases). A
    /// shape metric, excluded from [`Metrics::total_work`].
    pub pool_hits: u64,
    /// Buffer-pool page faults — pages read from disk — while this query
    /// ran. Real I/O, included in [`Metrics::total_work`]; the cost
    /// model's page-I/O charge for cold scans predicts exactly this
    /// traffic.
    pub pool_misses: u64,
    /// Secondary-index probes issued (one per equality/range lookup or
    /// per-outer-row join probe). Real work — each probe is an ordered
    /// map descent — included in [`Metrics::total_work`]; the cost
    /// model's `INDEX_PROBE_WORK` charge prices exactly this traffic.
    pub index_probes: u64,
    /// Candidate row positions returned by index probes (before the
    /// operator re-checks the full predicate). Included in
    /// [`Metrics::total_work`]: each hit is a row fetched and re-checked.
    pub index_hits: u64,
    /// Inner-plan executions actually performed by `Apply` operators
    /// (cache misses plus uncached runs). With binding memoization this
    /// drops from the outer row count to the *distinct* correlation-binding
    /// count; `subquery_invocations` keeps counting one per outer row, so
    /// the pair exposes the dedup ratio. Real work, included in
    /// [`Metrics::total_work`].
    pub apply_invocations: u64,
    /// Outer rows answered from the Apply binding-memoization cache
    /// instead of re-executing the inner plan. Each hit is a key
    /// evaluation plus a map probe plus a result replay — cheap but not
    /// free, so it is included in [`Metrics::total_work`] (the cost
    /// model's `cache_probe × rows` term prices exactly this traffic).
    pub apply_cache_hits: u64,
    /// High-water mark of rows resident in operator state at any point
    /// during execution: pipeline-breaker materializations (hash build
    /// sides, sort buffers, group tables), dedup sets, and carry-over
    /// buffers. The final result vector collected by the caller is *not*
    /// counted — this gauge measures what streaming saves, not what the
    /// query returns. A gauge, not a counter: `+=` merges by `max`.
    pub peak_resident_rows: u64,
}

impl Metrics {
    /// Zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Total work proxy: the sum of all *work* counters; the
    /// `batches_emitted` and `peak_resident_rows` gauges are excluded
    /// (they measure traffic granularity and memory shape, not work).
    /// Note that `rows_emitted` counts every operator's output including
    /// scans under the streaming executor, so absolute totals are higher
    /// than numbers recorded before the streaming refactor — compare
    /// totals only within one executor generation.
    pub fn total_work(&self) -> u64 {
        self.rows_scanned
            + self.comparisons
            + self.hash_build_rows
            + self.hash_probes
            + self.rows_sorted
            + self.rows_emitted
            + self.subquery_invocations
            + self.rows_spilled
            + self.pool_misses
            + self.index_probes
            + self.index_hits
            + self.apply_invocations
            + self.apply_cache_hits
    }

    /// Buffer-pool hit fraction of this query's page traffic (1.0 when
    /// the query touched no pages — in-memory tables, or a fully warm
    /// working set with zero requests recorded).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

impl AddAssign for Metrics {
    fn add_assign(&mut self, rhs: Metrics) {
        self.rows_scanned += rhs.rows_scanned;
        self.comparisons += rhs.comparisons;
        self.hash_build_rows += rhs.hash_build_rows;
        self.hash_probes += rhs.hash_probes;
        self.rows_sorted += rhs.rows_sorted;
        self.rows_emitted += rhs.rows_emitted;
        self.subquery_invocations += rhs.subquery_invocations;
        self.rows_spilled += rhs.rows_spilled;
        self.spill_partitions += rhs.spill_partitions;
        self.spill_rows_filtered += rhs.spill_rows_filtered;
        self.batches_emitted += rhs.batches_emitted;
        self.pool_hits += rhs.pool_hits;
        self.pool_misses += rhs.pool_misses;
        self.index_probes += rhs.index_probes;
        self.index_hits += rhs.index_hits;
        self.apply_invocations += rhs.apply_invocations;
        self.apply_cache_hits += rhs.apply_cache_hits;
        // Peak is a gauge: merging two runs keeps the higher water mark.
        self.peak_resident_rows = self.peak_resident_rows.max(rhs.peak_resident_rows);
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} cmp={} hbuild={} hprobe={} sorted={} emitted={} subq={} spilled={} \
             filtered={} parts={} batches={} peak={} phit={} pmiss={} iprobe={} ihit={} ainv={} ahit={}",
            self.rows_scanned,
            self.comparisons,
            self.hash_build_rows,
            self.hash_probes,
            self.rows_sorted,
            self.rows_emitted,
            self.subquery_invocations,
            self.rows_spilled,
            self.spill_rows_filtered,
            self.spill_partitions,
            self.batches_emitted,
            self.peak_resident_rows,
            self.pool_hits,
            self.pool_misses,
            self.index_probes,
            self.index_hits,
            self.apply_invocations,
            self.apply_cache_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = Metrics {
            rows_scanned: 1,
            comparisons: 2,
            ..Metrics::new()
        };
        let b = Metrics {
            rows_scanned: 10,
            rows_emitted: 5,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.rows_scanned, 11);
        assert_eq!(a.comparisons, 2);
        assert_eq!(a.rows_emitted, 5);
        assert_eq!(a.total_work(), 18);
    }

    #[test]
    fn peak_merges_by_max_and_stays_out_of_total_work() {
        let mut a = Metrics {
            peak_resident_rows: 100,
            batches_emitted: 3,
            ..Metrics::new()
        };
        let b = Metrics {
            peak_resident_rows: 40,
            batches_emitted: 2,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.peak_resident_rows, 100, "gauge merges by max");
        assert_eq!(a.batches_emitted, 5);
        assert_eq!(a.total_work(), 0, "gauges are not work");
    }

    #[test]
    fn spilled_rows_are_work_but_partitions_are_shape() {
        let mut a = Metrics {
            rows_spilled: 100,
            spill_partitions: 8,
            ..Metrics::new()
        };
        let b = Metrics {
            rows_spilled: 20,
            spill_partitions: 8,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.rows_spilled, 120);
        assert_eq!(a.spill_partitions, 16);
        assert_eq!(
            a.total_work(),
            120,
            "spilled rows are I/O work; partition count is not"
        );
        assert!(a.to_string().contains("spilled=120"));
        assert!(a.to_string().contains("parts=16"));
    }

    #[test]
    fn pool_misses_are_work_and_hits_are_shape() {
        let mut a = Metrics {
            pool_hits: 30,
            pool_misses: 10,
            ..Metrics::new()
        };
        let b = Metrics {
            pool_hits: 10,
            pool_misses: 0,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.pool_hits, 40);
        assert_eq!(a.total_work(), 10, "page faults are I/O work; hits are not");
        assert!((a.pool_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(
            Metrics::new().pool_hit_rate(),
            1.0,
            "no traffic reads as fully warm"
        );
        assert!(a.to_string().contains("phit=40"));
        assert!(a.to_string().contains("pmiss=10"));
    }

    #[test]
    fn index_probes_and_hits_are_work() {
        let mut a = Metrics {
            index_probes: 3,
            index_hits: 7,
            ..Metrics::new()
        };
        let b = Metrics {
            index_probes: 1,
            index_hits: 2,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.index_probes, 4);
        assert_eq!(a.index_hits, 9);
        assert_eq!(
            a.total_work(),
            13,
            "probes and candidate fetches are both work"
        );
        assert!(a.to_string().contains("iprobe=4"));
        assert!(a.to_string().contains("ihit=9"));
    }

    #[test]
    fn apply_counters_are_work() {
        let mut a = Metrics {
            apply_invocations: 3,
            apply_cache_hits: 5,
            ..Metrics::new()
        };
        let b = Metrics {
            apply_invocations: 1,
            apply_cache_hits: 0,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.apply_invocations, 4);
        assert_eq!(a.apply_cache_hits, 5);
        assert_eq!(
            a.total_work(),
            9,
            "inner executions and cache probes are both work"
        );
        assert!(a.to_string().contains("ainv=4"));
        assert!(a.to_string().contains("ahit=5"));
    }

    #[test]
    fn total_work_composition_is_pinned() {
        // Exhaustive literal, no `..Default`: adding a field to `Metrics`
        // breaks this construction, forcing the new counter to be
        // classified — work (add its power of two to `work` below and the
        // field to `total_work`) or shape/gauge (add it only here).
        // Distinct powers of two make any omission or double-count a
        // unique, visible delta.
        let m = Metrics {
            rows_scanned: 1 << 0,
            comparisons: 1 << 1,
            hash_build_rows: 1 << 2,
            hash_probes: 1 << 3,
            rows_sorted: 1 << 4,
            rows_emitted: 1 << 5,
            subquery_invocations: 1 << 6,
            rows_spilled: 1 << 7,
            spill_partitions: 1 << 8,
            batches_emitted: 1 << 9,
            pool_hits: 1 << 10,
            pool_misses: 1 << 11,
            index_probes: 1 << 12,
            index_hits: 1 << 13,
            apply_invocations: 1 << 14,
            apply_cache_hits: 1 << 15,
            peak_resident_rows: 1 << 16,
            spill_rows_filtered: 1 << 17,
        };
        // The documented work set: real row traffic, predicate/key
        // evaluations, I/O (spills + page faults), index and Apply work.
        let work: u64 = (1 << 0)
            + (1 << 1)
            + (1 << 2)
            + (1 << 3)
            + (1 << 4)
            + (1 << 5)
            + (1 << 6)
            + (1 << 7)
            + (1 << 11)
            + (1 << 12)
            + (1 << 13)
            + (1 << 14)
            + (1 << 15);
        assert_eq!(m.total_work(), work);
        // And the documented exclusions stay excluded: shape/gauge fields
        // contribute nothing.
        let shape_only = Metrics {
            spill_partitions: 8,
            spill_rows_filtered: 12,
            batches_emitted: 9,
            pool_hits: 10,
            peak_resident_rows: 11,
            ..Metrics::new()
        };
        assert_eq!(shape_only.total_work(), 0);
    }

    #[test]
    fn display_compact() {
        let m = Metrics::new();
        assert!(m.to_string().starts_with("scanned=0"));
        assert!(m.to_string().contains("peak=0"));
    }
}
