#![warn(missing_docs)]

//! # tmql-exec — physical execution engine
//!
//! Executes logical plans from `tmql-algebra` over tables stored in a
//! `tmql-storage` catalog. The point of the paper's transformation work is
//! that "a nested SQL query can be looked upon as a nested-loop join, which
//! is just one of the several join implementations" (Section 1) — so this
//! crate supplies the *several implementations*:
//!
//! * **nested-loop**, **hash**, and **sort-merge** variants of the inner
//!   join, semijoin, antijoin, left outerjoin, and the paper's **nest
//!   join** Δ (Section 6 notes the nest join "is a simple modification of
//!   any common join implementation method" — compare [`op::hash`] and
//!   `op::nl` to see exactly how small the modification is);
//! * grouping (`ν`/`ν*`, GROUP BY aggregation), unnesting (`μ`), set
//!   operations, and the correlated [`Plan::Apply`] as a real nested-loop —
//!   the baseline the paper wants to beat;
//! * a [`cost`] estimator that turns `tmql-storage` statistics
//!   (histograms, distinct counts, set-valued fan-outs) into per-plan
//!   `{rows, work, resident}` estimates — consumed by the logical
//!   optimizer's cost-based strategy selection, by `EXPLAIN`/profile
//!   annotation (estimated vs. actual rows), and by
//! * a [`planner`] that lowers logical plans to physical ones, extracting
//!   equi-join keys, choosing join algorithms, and building hash inner
//!   joins on the estimated-smaller side (overridable per [`ExecConfig`],
//!   which the benchmark harness uses to pin algorithms);
//! * [`Metrics`] counting scanned rows, predicate/key comparisons, hash
//!   operations, emitted rows/batches, and the peak-resident-row gauge, so
//!   experiments can report *work* and *memory shape* as well as wall-time.
//!   Each counter is one entry of [`Metrics::COUNTERS`] — its
//!   [`MetricClass`], `Display` label and registry series — which
//!   [`Metrics::total_work`], the `ANALYZE` footer and the facade's
//!   `tmql_exec_*` series all read.
//!
//! Execution is streaming: every physical operator implements the
//! Volcano-style [`Operator`] trait (`open` / `next_batch` / `close`) over
//! fixed-capacity [`Batch`]es ([`ExecConfig::batch_size`] rows). Scans,
//! filters, maps, unnests, hash-join probes and `Apply` outer rows are
//! pipelined; only genuine pipeline breakers (hash build sides, sorts,
//! grouping, set ops, dedup state) hold rows resident — which is what
//! [`Metrics::peak_resident_rows`] measures.
//!
//! Breakers are also the spill boundary: under
//! [`ExecConfig::memory_budget_rows`] they cap their resident state and
//! switch to grace-hash / partitioned execution over on-disk record runs
//! ([`op::spill`]), so workloads larger than memory complete with bounded
//! residency and identical results ([`Metrics::rows_spilled`] counts the
//! traffic).
//!
//! A statement runs start to finish on the thread that calls the
//! executor. Concurrency is between statements: an [`ExecContext`] is one
//! statement's, and many of them may read one catalog from as many
//! threads at once.

pub mod config;
pub mod cost;
pub mod exec;
pub mod metrics;
pub mod op;
pub mod physical;
pub mod planner;

pub use config::{ExecConfig, JoinAlgo, DEFAULT_BATCH_SIZE};
pub use cost::{CostEstimate, Estimator};
pub use exec::{execute, execute_collect, execute_values, ExecContext};
pub use metrics::{MetricClass, MetricDef, Metrics};
pub use op::operator::{Batch, OpProfile, OpStats, Operator};
pub use physical::{JoinKind, PhysPlan};
pub use planner::lower;

use tmql_algebra::Plan;
use tmql_model::{Record, Result};
use tmql_storage::Catalog;

/// One-call convenience: lower a logical plan with `config`, execute it
/// against `catalog`, and return rows plus metrics.
pub fn run(plan: &Plan, catalog: &Catalog, config: &ExecConfig) -> Result<(Vec<Record>, Metrics)> {
    let phys = planner::lower(plan, catalog, config)?;
    let mut ctx = ExecContext::with_config(catalog, config);
    let rows = exec::execute(&phys, &mut ctx, &tmql_algebra::Env::new())?;
    Ok((rows, ctx.metrics))
}

/// Run a plan and return its result as a set of output values (the
/// convention of [`Plan::row_output_value`]), which is how query results
/// are compared across unnesting strategies.
pub fn run_values(
    plan: &Plan,
    catalog: &Catalog,
    config: &ExecConfig,
) -> Result<std::collections::BTreeSet<tmql_model::Value>> {
    let phys = planner::lower(plan, catalog, config)?;
    let mut ctx = ExecContext::with_config(catalog, config);
    let (values, _) = exec::execute_values(&phys, &mut ctx, &tmql_algebra::Env::new(), None)?;
    Ok(values)
}
