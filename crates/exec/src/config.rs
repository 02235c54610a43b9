//! Executor configuration.
//!
//! A statement runs on the thread that calls the executor, start to
//! finish; concurrency is many statements against one catalog, each on its
//! own thread (see `docs/architecture.md`, "One thread per statement").

/// Default number of rows per [`crate::op::operator::Batch`].
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Join algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Let the cost model decide (hash when equi-keys exist and the build
    /// side fits the heuristics, else nested-loop).
    #[default]
    Auto,
    /// Force nested-loop.
    NestedLoop,
    /// Force hash (falls back to nested-loop when no equi-key exists).
    Hash,
    /// Force sort-merge (falls back to nested-loop when no equi-key
    /// exists).
    SortMerge,
}

/// Configuration for planning and execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Algorithm for the join family (join/semi/anti/outer/nest join).
    pub join_algo: JoinAlgo,
    /// Rows per streaming batch (clamped to ≥ 1 by the executor). Smaller
    /// batches lower peak memory; larger batches amortize dispatch.
    pub batch_size: usize,
    /// Maximum rows any single pipeline breaker may hold resident before
    /// it spills to disk (`None` = unbounded, the default — queries behave
    /// exactly as before this knob existed). When set, hash-join builds
    /// switch to grace-hash partitioning, grouping/sort/set-op state and
    /// dedup sets below the root switch to partitioned spill files (the
    /// result set a root projection collects stays in memory), and
    /// [`crate::Metrics::rows_spilled`] / [`crate::Metrics::spill_partitions`]
    /// record the traffic. Best-effort: a single group or key run larger
    /// than the budget still has to be resident to be processed (recursive
    /// repartitioning stops at `crate::op::spill::MAX_REPARTITION_DEPTH`).
    pub memory_budget_rows: Option<usize>,
    /// Ignored: execution is serial; kept until the benchmark's mirror is
    /// deleted (ROADMAP "Unfence the benchmark" (c)).
    pub threads: usize,
    /// Ignored: a correlated `Apply` always memoizes its inner results;
    /// kept until the benchmark's mirror is deleted (ROADMAP "Unfence the
    /// benchmark" (c)).
    pub apply_cache: bool,
    /// Collect per-operator wall-clock spans (default `true`): the
    /// metered [`crate::op::operator::Operator::pull`] and the
    /// open/close walk wrap each call in an `Instant` span accumulated
    /// into [`crate::op::operator::OpStats::wall_nanos`], which is what
    /// `EXPLAIN ANALYZE` renders. Overhead is pinned below 5% by `b14_observe`;
    /// `false` skips the clock reads entirely and profiles report
    /// zero time.
    pub collect_timing: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            join_algo: JoinAlgo::Auto,
            batch_size: DEFAULT_BATCH_SIZE,
            memory_budget_rows: None,
            threads: 1,
            apply_cache: true,
            collect_timing: true,
        }
    }
}

impl ExecConfig {
    /// Pin a join algorithm (benchmarks use this to compare
    /// implementations, reproducing the paper's "the optimizer can choose
    /// the most suitable join execution method").
    pub fn with_join_algo(algo: JoinAlgo) -> ExecConfig {
        ExecConfig {
            join_algo: algo,
            ..ExecConfig::default()
        }
    }

    /// Override the streaming batch size.
    pub fn batch_size(mut self, n: usize) -> ExecConfig {
        self.batch_size = n.max(1);
        self
    }

    /// Bound resident breaker state to `n` rows, spilling beyond it
    /// (clamped to ≥ 1; the default, [`ExecConfig::default`], has no bound).
    pub fn memory_budget(mut self, n: usize) -> ExecConfig {
        self.memory_budget_rows = Some(n.max(1));
        self
    }

    /// Enable or disable per-operator wall-clock spans (default on).
    pub fn collect_timing(mut self, on: bool) -> ExecConfig {
        self.collect_timing = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_auto() {
        assert_eq!(ExecConfig::default().join_algo, JoinAlgo::Auto);
        assert_eq!(
            ExecConfig::with_join_algo(JoinAlgo::Hash).join_algo,
            JoinAlgo::Hash
        );
        assert_eq!(ExecConfig::default().batch_size, DEFAULT_BATCH_SIZE);
    }

    #[test]
    fn batch_size_is_clamped_to_one() {
        assert_eq!(ExecConfig::default().batch_size(0).batch_size, 1);
        assert_eq!(ExecConfig::default().batch_size(7).batch_size, 7);
    }

    #[test]
    fn memory_budget_defaults_off_and_clamps() {
        assert_eq!(ExecConfig::default().memory_budget_rows, None);
        assert_eq!(
            ExecConfig::default().memory_budget(0).memory_budget_rows,
            Some(1)
        );
        assert_eq!(
            ExecConfig::default().memory_budget(512).memory_budget_rows,
            Some(512)
        );
    }

    #[test]
    fn collect_timing_defaults_on() {
        assert!(ExecConfig::default().collect_timing);
        assert!(!ExecConfig::default().collect_timing(false).collect_timing);
    }
}
