//! The executor's contribution to the engine-wide metrics registry.
//!
//! [`Metrics`] is per-query and reset on every run; the registry wants
//! process-lifetime totals. [`MetricsRecorder`] bridges the two: it
//! registers one `tmql_exec_*` series per [`Metrics`] counter and
//! [`MetricsRecorder::record`] folds a finished query's counters in
//! (summing counters, ratcheting the peak-residency gauge).

use tmql_obs::{Counter, Gauge, MetricsRegistry};

use crate::metrics::Metrics;

/// Registry handles for every [`Metrics`] field, plus the cumulative
/// total-work counter.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    rows_scanned: Counter,
    comparisons: Counter,
    hash_build_rows: Counter,
    hash_probes: Counter,
    rows_sorted: Counter,
    rows_emitted: Counter,
    subquery_invocations: Counter,
    rows_spilled: Counter,
    spill_partitions: Counter,
    spill_rows_filtered: Counter,
    batches_emitted: Counter,
    pool_hits: Counter,
    pool_misses: Counter,
    index_probes: Counter,
    index_hits: Counter,
    apply_invocations: Counter,
    apply_cache_hits: Counter,
    total_work: Counter,
    peak_resident_rows: Gauge,
}

impl MetricsRecorder {
    /// Register the executor's series into `reg` (idempotent) and return
    /// the handles.
    pub fn register(reg: &MetricsRegistry) -> MetricsRecorder {
        let c = |name: &str, help: &str| reg.counter(name, help);
        MetricsRecorder {
            rows_scanned: c("tmql_exec_rows_scanned_total", "Rows read from base tables"),
            comparisons: c(
                "tmql_exec_comparisons_total",
                "Predicate evaluations and key comparisons",
            ),
            hash_build_rows: c(
                "tmql_exec_hash_build_rows_total",
                "Rows inserted into hash tables",
            ),
            hash_probes: c("tmql_exec_hash_probes_total", "Hash table probes"),
            rows_sorted: c("tmql_exec_rows_sorted_total", "Rows passed through sorts"),
            rows_emitted: c(
                "tmql_exec_rows_emitted_total",
                "Rows emitted by all operators",
            ),
            subquery_invocations: c(
                "tmql_exec_subquery_invocations_total",
                "Correlated subquery executions",
            ),
            rows_spilled: c(
                "tmql_exec_rows_spilled_total",
                "Records written to spill files",
            ),
            spill_partitions: c(
                "tmql_exec_spill_partitions_total",
                "Non-empty spill partitions created",
            ),
            spill_rows_filtered: c(
                "tmql_exec_spill_rows_filtered_total",
                "Grace-join probe rows answered while partitioning, never spilled",
            ),
            batches_emitted: c(
                "tmql_exec_batches_emitted_total",
                "Batches emitted by all operators",
            ),
            pool_hits: c(
                "tmql_exec_pool_hits_total",
                "Buffer-pool hits attributed to queries",
            ),
            pool_misses: c(
                "tmql_exec_pool_misses_total",
                "Buffer-pool faults attributed to queries",
            ),
            index_probes: c("tmql_exec_index_probes_total", "Secondary-index probes"),
            index_hits: c(
                "tmql_exec_index_hits_total",
                "Candidate rows returned by index probes",
            ),
            apply_invocations: c(
                "tmql_exec_apply_invocations_total",
                "Apply inner-plan executions performed",
            ),
            apply_cache_hits: c(
                "tmql_exec_apply_cache_hits_total",
                "Apply outer rows answered from the binding cache",
            ),
            total_work: c(
                "tmql_exec_total_work",
                "Cumulative Metrics::total_work across queries",
            ),
            peak_resident_rows: reg.gauge(
                "tmql_exec_peak_resident_rows",
                "High-water mark of resident operator-state rows over any single query",
            ),
        }
    }

    /// Fold one finished query's counters into the process totals.
    pub fn record(&self, m: &Metrics) {
        self.rows_scanned.add(m.rows_scanned);
        self.comparisons.add(m.comparisons);
        self.hash_build_rows.add(m.hash_build_rows);
        self.hash_probes.add(m.hash_probes);
        self.rows_sorted.add(m.rows_sorted);
        self.rows_emitted.add(m.rows_emitted);
        self.subquery_invocations.add(m.subquery_invocations);
        self.rows_spilled.add(m.rows_spilled);
        self.spill_partitions.add(m.spill_partitions);
        self.spill_rows_filtered.add(m.spill_rows_filtered);
        self.batches_emitted.add(m.batches_emitted);
        self.pool_hits.add(m.pool_hits);
        self.pool_misses.add(m.pool_misses);
        self.index_probes.add(m.index_probes);
        self.index_hits.add(m.index_hits);
        self.apply_invocations.add(m.apply_invocations);
        self.apply_cache_hits.add(m.apply_cache_hits);
        self.total_work.add(m.total_work());
        // Peak residency is a gauge merged by max, same as `AddAssign`.
        self.peak_resident_rows.fetch_max(m.peak_resident_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sums_counters_and_maxes_the_peak() {
        let reg = MetricsRegistry::new();
        let rec = MetricsRecorder::register(&reg);
        let mut m = Metrics::new();
        m.rows_scanned = 10;
        m.peak_resident_rows = 100;
        rec.record(&m);
        m.rows_scanned = 5;
        m.peak_resident_rows = 40;
        rec.record(&m);
        let text = reg.render();
        assert!(text.contains("tmql_exec_rows_scanned_total 15\n"), "{text}");
        assert!(
            text.contains("tmql_exec_peak_resident_rows 100\n"),
            "{text}"
        );
        assert!(text.contains("tmql_exec_total_work 15\n"), "{text}");
    }
}
