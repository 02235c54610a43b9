//! Executor configuration.

/// Default number of rows per [`crate::op::operator::Batch`].
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Default worker count for parallel execution: **1** unless the
/// `TMQL_THREADS` environment variable says otherwise — a positive
/// number is that many workers, `auto` (or `0`) is
/// [`hardware_threads`]; unset, blank or unparsable is 1. Serial is the
/// default because it is the configuration that has measured fastest:
/// on the `b10_parallel` ladder two workers run 1.5–1.75× slower than
/// one (the ROADMAP item "Concurrency between statements" decides
/// whether the waves are fixed or removed).
/// The variable is read on every call, so a test or a CI leg that changes
/// it is honoured. There is one code path at every value: at `1` each
/// wave holds a single work item and [`crate::op::exchange::scatter`]
/// runs it in place on the calling thread, spawning nothing.
pub fn default_threads() -> usize {
    let Ok(v) = std::env::var("TMQL_THREADS") else {
        return 1;
    };
    match v.trim() {
        "0" => hardware_threads(),
        v if v.eq_ignore_ascii_case("auto") => hardware_threads(),
        v => v.parse().ok().filter(|&n| n >= 1).unwrap_or(1),
    }
}

/// The machine's [`std::thread::available_parallelism`] (1 when it cannot
/// be determined) — what `TMQL_THREADS=auto` and the shell's
/// `\set threads auto` mean. Asked for **once per process** and
/// remembered: the standard library re-reads `/proc` and the cgroup files
/// each time (≈ 23 µs).
pub fn hardware_threads() -> usize {
    static HARDWARE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

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
    /// repartitioning stops at [`crate::op::spill::MAX_REPARTITION_DEPTH`]).
    pub memory_budget_rows: Option<usize>,
    /// Worker threads for morsel-driven parallel execution (clamped to
    /// ≥ 1): how many scan morsels, or spilled partitions of a hash join,
    /// breaker or dedup, one wave hands to scoped workers. Operators run
    /// the same code at every value — at `1` a wave is one item,
    /// processed in place — and results and work counters do not depend
    /// on it. Values above `1` have so far measured *slower* than `1`
    /// (see [`default_threads`], which is why it says 1).
    pub threads: usize,
    /// Memoize correlated `Apply` inner results by the outer row's
    /// correlation-binding values (default `true`). Duplicate bindings
    /// replay the cached result set instead of re-executing the inner
    /// plan; the cache is budget-aware (it evicts LRU entries to respect
    /// `memory_budget_rows`) and never changes results — only the
    /// `apply_invocations` / `apply_cache_hits` counters. `false` restores
    /// the one-inner-execution-per-outer-row behavior (differential tests
    /// and benchmarks compare the two).
    pub apply_cache: bool,
    /// Collect per-operator wall-clock spans (default `true`): the
    /// metered [`crate::op::operator::Operator::pull`] and the
    /// open/close walk wrap each call in an `Instant` span accumulated
    /// into [`crate::op::operator::OpStats::wall_nanos`], which is what
    /// `EXPLAIN ANALYZE` renders. Spans are measured on the driver
    /// thread, so a parallel worker wave inside one operator's
    /// `next_batch` is observed as the wave's wall-clock (the slowest
    /// worker), not the sum of worker CPU — see `docs/architecture.md`
    /// § Observability. Overhead is pinned below 5% by `b14_observe`;
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
            threads: default_threads(),
            apply_cache: true,
            collect_timing: true,
        }
    }
}

impl ExecConfig {
    /// Cost-based defaults.
    pub fn auto() -> ExecConfig {
        ExecConfig::default()
    }

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
    /// (clamped to ≥ 1; use [`ExecConfig::unbounded`] to remove the bound).
    pub fn memory_budget(mut self, n: usize) -> ExecConfig {
        self.memory_budget_rows = Some(n.max(1));
        self
    }

    /// Remove the memory budget (the default): breakers never spill.
    pub fn unbounded(mut self) -> ExecConfig {
        self.memory_budget_rows = None;
        self
    }

    /// Set the worker-thread count (clamped to ≥ 1; `1` = serial).
    pub fn threads(mut self, n: usize) -> ExecConfig {
        self.threads = n.max(1);
        self
    }

    /// Enable or disable Apply binding memoization (default on).
    pub fn apply_cache(mut self, on: bool) -> ExecConfig {
        self.apply_cache = on;
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
        assert_eq!(ExecConfig::auto().join_algo, JoinAlgo::Auto);
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
        assert_eq!(
            ExecConfig::default()
                .memory_budget(512)
                .unbounded()
                .memory_budget_rows,
            None
        );
    }

    #[test]
    fn apply_cache_defaults_on() {
        assert!(ExecConfig::default().apply_cache);
        assert!(!ExecConfig::default().apply_cache(false).apply_cache);
    }

    #[test]
    fn collect_timing_defaults_on() {
        assert!(ExecConfig::default().collect_timing);
        assert!(!ExecConfig::default().collect_timing(false).collect_timing);
    }

    #[test]
    fn threads_default_positive_and_clamp() {
        assert!(ExecConfig::default().threads >= 1);
        assert_eq!(ExecConfig::default().threads(0).threads, 1);
        assert_eq!(ExecConfig::default().threads(8).threads, 8);
    }
}
