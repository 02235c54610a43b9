//! Work counters reported by the executor, declared once.
//!
//! [`Metrics`] and [`Metrics::COUNTERS`] come from one list: each entry
//! gives a counter's field, its [`MetricClass`], its `Display` label and
//! its registry series with help text. [`Metrics::total_work`], the
//! `Display` text (the `ANALYZE` footer and the shell's stats line),
//! `+=` and the facade's `tmql_exec_*` series all read that list, so a
//! new counter is one entry.

use std::fmt;
use std::ops::AddAssign;

/// What a [`Metrics`] counter measures, which decides how it is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Work the paper's rewrites and the cost model are about: summed
    /// across runs and part of [`Metrics::total_work`].
    Work,
    /// Traffic shape (granularity, cache hits, spill fan-out): summed
    /// across runs, not work.
    Shape,
    /// A high-water mark: runs merge by `max`, and the registry series is
    /// a gauge.
    Gauge,
}

impl MetricClass {
    /// Merge one run's value `b` into the running value `a`.
    fn merge(self, a: u64, b: u64) -> u64 {
        match self {
            MetricClass::Gauge => a.max(b),
            MetricClass::Work | MetricClass::Shape => a + b,
        }
    }
}

/// One entry of [`Metrics::COUNTERS`]: a counter as every report sees it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Label in the `Display` text (`scanned`, `cmp`, …).
    pub label: &'static str,
    /// Name of the process-lifetime registry series.
    pub series: &'static str,
    /// Help text of that series.
    pub help: &'static str,
    /// How the counter merges and whether it is work.
    pub class: MetricClass,
    /// Reads the counter from a [`Metrics`].
    pub get: fn(&Metrics) -> u64,
}

/// Declares [`Metrics`], its [`Metrics::COUNTERS`] list and its `+=` from
/// one list of `field: Class, "label", "series", "help";` entries, in
/// `Display` order.
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        pub struct Metrics {
            $(
                $(#[doc = $doc:literal])*
                $field:ident: $class:ident, $label:literal, $series:literal, $help:literal;
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct Metrics {
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        impl Metrics {
            /// Every counter, in `Display` order.
            pub const COUNTERS: &'static [MetricDef] = &[$(MetricDef {
                label: $label,
                series: $series,
                help: $help,
                class: MetricClass::$class,
                get: |m| m.$field,
            },)*];
        }

        impl AddAssign for Metrics {
            /// Counters sum; the peak-residency gauge keeps the higher
            /// water mark.
            fn add_assign(&mut self, rhs: Metrics) {
                $( self.$field = MetricClass::$class.merge(self.$field, rhs.$field); )*
            }
        }
    };
}

metrics! {
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
        rows_scanned: Work, "scanned", "tmql_exec_rows_scanned_total",
            "Rows read from base tables";
        /// Predicate evaluations and key comparisons (see the struct docs for
        /// the per-operator granularity).
        comparisons: Work, "cmp", "tmql_exec_comparisons_total",
            "Predicate evaluations and key comparisons";
        /// Rows inserted into hash-join build tables (a row whose key is
        /// NULL joins nothing and is not inserted). Nothing else builds a
        /// hash table over stored rows, so a plan without a `HashJoin`
        /// counts 0 — the paper's nested-loop baseline among them.
        hash_build_rows: Work, "hbuild", "tmql_exec_hash_build_rows_total",
            "Rows inserted into hash tables";
        /// Hash table probes.
        hash_probes: Work, "hprobe", "tmql_exec_hash_probes_total", "Hash table probes";
        /// Rows passed through sorts (merge joins).
        rows_sorted: Work, "sorted", "tmql_exec_rows_sorted_total", "Rows passed through sorts";
        /// Rows emitted by operators (every operator in the tree, scans
        /// included — the "total intermediate row count" of a streaming run).
        /// A scan with a selection fused in counts every row it visits here
        /// besides the rows it emits: the hand-over from scan to selection
        /// still happens, in place, and the cost model still prices it.
        rows_emitted: Work, "emitted", "tmql_exec_rows_emitted_total",
            "Rows emitted by all operators";
        /// Correlated subquery executions (Apply invocations) — the count the
        /// paper's unnesting eliminates.
        subquery_invocations: Work, "subq", "tmql_exec_subquery_invocations_total",
            "Correlated subquery executions";
        /// Records written to spill files when breaker state exceeds
        /// [`crate::ExecConfig::memory_budget_rows`]. Each recursive
        /// repartitioning pass rewrites its rows, so a row can be counted more
        /// than once — this is real I/O traffic, and it is part of
        /// [`Metrics::total_work`]. Always 0 without a budget.
        rows_spilled: Work, "spilled", "tmql_exec_rows_spilled_total",
            "Records written to spill files";
        /// Probe rows of grace hash joins that were answered while the probe
        /// side was being partitioned — a NULL key, or a key hash the build
        /// side's [`crate::op::spill::KeyFilter`] had not seen — and so never
        /// written to a run. Each is also one of `hash_probes` (the probe it
        /// was spared), so this is a shape metric: what `rows_spilled` would
        /// otherwise have included, excluded from [`Metrics::total_work`].
        spill_rows_filtered: Shape, "filtered", "tmql_exec_spill_rows_filtered_total",
            "Grace-join probe rows answered while partitioning, never spilled";
        /// Non-empty spill partitions created (grace-hash build/probe pairs
        /// count each side). A shape metric like `batches_emitted`, excluded
        /// from [`Metrics::total_work`].
        spill_partitions: Shape, "parts", "tmql_exec_spill_partitions_total",
            "Non-empty spill partitions created";
        /// Batches emitted by operators (streaming executor granularity).
        batches_emitted: Shape, "batches", "tmql_exec_batches_emitted_total",
            "Batches emitted by all operators";
        /// High-water mark of rows resident in operator state at any point
        /// during execution: pipeline-breaker materializations (hash build
        /// sides, sort buffers, group tables), dedup sets, and carry-over
        /// buffers. The final result vector collected by the caller is *not*
        /// counted — this gauge measures what streaming saves, not what the
        /// query returns. A gauge, not a counter: `+=` merges by `max`.
        peak_resident_rows: Gauge, "peak", "tmql_exec_peak_resident_rows",
            "High-water mark of resident operator-state rows over any single query";
        /// Buffer-pool page requests served from memory while this query ran
        /// (disk-backed catalogs only; always 0 for in-memory databases). A
        /// shape metric, excluded from [`Metrics::total_work`].
        pool_hits: Shape, "phit", "tmql_exec_pool_hits_total",
            "Buffer-pool hits attributed to queries";
        /// Buffer-pool page faults — pages read from disk — while this query
        /// ran. Real I/O, included in [`Metrics::total_work`]; the cost
        /// model's page-I/O charge for cold scans predicts exactly this
        /// traffic.
        pool_misses: Work, "pmiss", "tmql_exec_pool_misses_total",
            "Buffer-pool faults attributed to queries";
        /// Probes of persistent secondary indexes: one per `IndexScan` open
        /// (an equality or range lookup) and one per outer row of an
        /// `IndexNLJoin`. Real work — each probe is an ordered map descent
        /// — included in [`Metrics::total_work`]; the cost model's
        /// `INDEX_PROBE_WORK` charge prices exactly this traffic. A plan
        /// without an index operator counts 0.
        index_probes: Work, "iprobe", "tmql_exec_index_probes_total", "Secondary-index probes";
        /// Candidate row positions returned by index probes (before the
        /// operator re-checks the full predicate). Included in
        /// [`Metrics::total_work`]: each hit is a row fetched and re-checked.
        index_hits: Work, "ihit", "tmql_exec_index_hits_total",
            "Candidate rows returned by index probes";
        /// Inner-plan executions actually performed by `Apply` operators
        /// (cache misses plus uncached runs). With binding memoization this
        /// drops from the outer row count to the *distinct* correlation-binding
        /// count; `subquery_invocations` keeps counting one per outer row, so
        /// the pair exposes the dedup ratio. Real work, included in
        /// [`Metrics::total_work`].
        apply_invocations: Work, "ainv", "tmql_exec_apply_invocations_total",
            "Apply inner-plan executions performed";
        /// Outer rows answered from the Apply binding-memoization cache
        /// instead of re-executing the inner plan. Each hit is a key
        /// evaluation plus a map probe plus a result replay — cheap but not
        /// free, so it is included in [`Metrics::total_work`] (the cost
        /// model's `cache_probe × rows` term prices exactly this traffic).
        apply_cache_hits: Work, "ahit", "tmql_exec_apply_cache_hits_total",
            "Apply outer rows answered from the binding cache";
    }
}

impl Metrics {
    /// Zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Total work proxy: the sum of the [`MetricClass::Work`] counters;
    /// shape counters and the peak gauge are excluded (they measure
    /// traffic granularity and memory shape, not work). Note that
    /// `rows_emitted` counts every operator's output including scans
    /// under the streaming executor, so absolute totals are higher than
    /// numbers recorded before the streaming refactor — compare totals
    /// only within one executor generation.
    pub fn total_work(&self) -> u64 {
        Metrics::COUNTERS
            .iter()
            .filter(|c| c.class == MetricClass::Work)
            .map(|c| (c.get)(self))
            .sum()
    }

    /// Buffer-pool hit fraction of this query's page traffic (1.0 when
    /// the query touched no pages — in-memory tables, or a fully warm
    /// working set with zero requests recorded).
    pub fn pool_hit_rate(&self) -> f64 {
        let (hits, misses) = (self.pool_hits, self.pool_misses);
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// `label=value` for every counter of [`Metrics::COUNTERS`], in order.
impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in Metrics::COUNTERS.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}={}", c.label, (c.get)(self))?;
        }
        Ok(())
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
