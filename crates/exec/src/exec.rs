//! The execution driver: builds the streaming operator tree for a physical
//! plan and drains it.
//!
//! Execution flows through the Volcano-style [`crate::op::operator`] tree
//! batch-at-a-time, and leaves it through one exit, [`execute_values`]: the
//! query's result set, sorted and deduplicated once. [`execute_collect`]
//! (and [`execute`] on top of it) is the same exit with each value put back
//! into its record, for callers that consume row vectors.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use tmql_algebra::{eval, Env};
use tmql_model::{Record, Result, Value};
use tmql_storage::spill::RunWriter;
use tmql_storage::{Catalog, SpillDir};

use crate::config::ExecConfig;
use crate::metrics::Metrics;
use crate::op::operator::{self, OpProfile, OpStats};
use crate::op::{self, Shape};
use crate::physical::PhysPlan;

/// Execution context: the catalog, accumulated metrics, and the streaming
/// knobs shared by every operator in the tree. One statement's, used by
/// the one thread that runs it; other statements on other threads read the
/// same catalog through contexts of their own.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// Stored tables.
    pub catalog: &'a Catalog,
    /// Work counters, accumulated across the whole plan (including
    /// correlated subquery executions).
    pub metrics: Metrics,
    batch_size: usize,
    resident_rows: u64,
    memory_budget_rows: Option<usize>,
    /// Scratch file for spill runs, created on first spill; it has no
    /// name, and goes with the last handle onto it.
    spill_dir: Option<SpillDir>,
    /// Buffer-pool counters at context creation (persistent catalogs
    /// only); [`ExecContext::sync_pool_metrics`] diffs against this to
    /// report the query's own page traffic.
    pool_base: Option<tmql_storage::PoolStats>,
    collect_timing: bool,
}

impl<'a> ExecContext<'a> {
    /// Fresh context over a catalog with the default batch size.
    pub fn new(catalog: &'a Catalog) -> ExecContext<'a> {
        ExecContext::with_config(catalog, &ExecConfig::default())
    }

    /// Fresh context with explicit execution configuration.
    pub fn with_config(catalog: &'a Catalog, config: &ExecConfig) -> ExecContext<'a> {
        ExecContext {
            metrics: Metrics::new(),
            batch_size: config.batch_size.max(1),
            resident_rows: 0,
            memory_budget_rows: config.memory_budget_rows,
            spill_dir: None,
            pool_base: catalog.pool_stats(),
            collect_timing: config.collect_timing,
            catalog,
        }
    }

    /// Whether per-operator wall-clock spans are being collected (see
    /// [`ExecConfig::collect_timing`]).
    pub fn collect_timing(&self) -> bool {
        self.collect_timing
    }

    /// Fold the buffer pool's page traffic since this context was created
    /// into [`Metrics::pool_hits`] / [`Metrics::pool_misses`]. Called by
    /// the execution driver when a plan finishes; a no-op for in-memory
    /// catalogs.
    pub(crate) fn sync_pool_metrics(&mut self) {
        if let (Some(base), Some(now)) = (self.pool_base, self.catalog.pool_stats()) {
            self.metrics.pool_hits = now.hits.saturating_sub(base.hits);
            self.metrics.pool_misses = now.misses.saturating_sub(base.misses);
        }
    }

    /// Rows per streaming batch (≥ 1).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The per-breaker resident-row budget, if one is configured.
    pub fn memory_budget_rows(&self) -> Option<usize> {
        self.memory_budget_rows
    }

    /// True iff a budget is configured and `n` resident rows exceed it.
    pub(crate) fn over_budget(&self, n: usize) -> bool {
        self.memory_budget_rows.is_some_and(|b| n > b)
    }

    /// Open a fresh spill run in this query's scratch file (creating it on
    /// first use).
    pub(crate) fn spill_run(&mut self) -> Result<RunWriter> {
        let dir = match &mut self.spill_dir {
            Some(dir) => dir,
            none => none.insert(SpillDir::create()?),
        };
        dir.create_run()
    }

    /// Open `k` fresh spill runs (see [`ExecContext::spill_run`]).
    pub(crate) fn spill_runs(&mut self, k: usize) -> Result<Vec<RunWriter>> {
        (0..k).map(|_| self.spill_run()).collect()
    }

    /// Rows currently resident in operator state (0 after a clean close).
    pub fn resident_rows(&self) -> u64 {
        self.resident_rows
    }

    /// Record `n` rows entering operator state (build tables, sort/group
    /// buffers, dedup sets, carry queues) and bump the peak gauge.
    pub(crate) fn resident_acquire(&mut self, n: usize) {
        self.resident_rows += n as u64;
        if self.resident_rows > self.metrics.peak_resident_rows {
            self.metrics.peak_resident_rows = self.resident_rows;
        }
    }

    /// Record `n` rows leaving operator state.
    pub(crate) fn resident_release(&mut self, n: usize) {
        self.resident_rows = self.resident_rows.saturating_sub(n as u64);
    }
}

/// Execute a physical plan, collecting all result rows (those of
/// [`execute_collect`]: distinct, ascending). `env` carries correlation
/// bindings (outer rows of enclosing `Apply` operators).
///
/// The *collection* here is the query result, not an intermediate, so it
/// is excluded from [`Metrics::peak_resident_rows`].
pub fn execute(
    plan: &crate::PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
) -> Result<Vec<Record>> {
    execute_collect(plan, ctx, env, None).map(|(rows, _)| rows)
}

/// [`execute_values`] with each value put back into its record, for
/// callers that consume rows: under a root `Map` the one-binding row
/// `(var = value)`, under any other root the record of bindings the row
/// was (a bare row wrapped as [`Shape::wrap`] wraps it). The rows are
/// distinct and ascending, and only the distinct results are wrapped.
///
/// `est` supplies estimated output rows per operator in executed-tree
/// pre-order (see [`crate::cost::Estimator::exec_order_rows_phys`]); when
/// present, each profile entry carries estimated next to actual rows so
/// callers can render them side by side and compute q-error.
pub fn execute_collect(
    plan: &PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    est: Option<&[f64]>,
) -> Result<(Vec<Record>, Vec<OpProfile>)> {
    // Any other root's rows go into the result set whole, so each comes
    // back out as the record it was.
    let whole = |shape: &Shape, row: &Record| Value::Tuple(shape.wrap(row.clone()));
    let (values, profile) = exit(plan, ctx, env, est, whole)?;
    let rows = match plan {
        PhysPlan::Map { var, .. } => {
            let var = Arc::from(var.as_str());
            values.into_iter().map(|v| op::bind_row(&var, v)).collect()
        }
        _ => values
            .iter()
            .map(|v| v.as_tuple().cloned())
            .collect::<Result<_>>()?,
    };
    Ok((rows, profile))
}

/// Execute a physical plan and return its result set — the output value
/// (`op::output_value`) of every row the plan produces, deduplicated —
/// with the structured per-operator profile (`est` as for
/// [`execute_collect`]). The set is the query's answer, held in memory
/// whatever [`ExecConfig::memory_budget_rows`] says, and excluded from
/// [`Metrics::peak_resident_rows`].
pub fn execute_values(
    plan: &PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    est: Option<&[f64]>,
) -> Result<(BTreeSet<Value>, Vec<OpProfile>)> {
    let (values, profile) = exit(plan, ctx, env, est, op::output_value)?;
    // Ascending and distinct already, so the set is built in one pass.
    Ok((values.into_iter().collect(), profile))
}

/// The executor's one exit: drain `plan`'s operator tree into a
/// [`Collector`] and return its values, ascending and distinct, with the
/// operator profile.
///
/// A `Map` at the root is evaluated here instead of being built as an
/// operator: each row of its input goes through the expression straight
/// into the collector — no `(var = value)` envelope, no dedup state of its
/// own, so it neither spills nor counts as resident. It still appears in
/// the profile, with the distinct rows it produced, full batches of them,
/// and a span over its input; its rows and batches count into the metrics
/// as an emitting operator's would. Any other root's rows go in as
/// `row_value` makes them.
fn exit(
    plan: &PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    est: Option<&[f64]>,
    row_value: impl Fn(&Shape, &Record) -> Value,
) -> Result<(Vec<Value>, Vec<OpProfile>)> {
    let (input, map) = match plan {
        PhysPlan::Map { input, expr, .. } => (&**input, Some(expr)),
        root => (root, None),
    };
    let (mut results, batch) = (Collector::default(), ctx.batch_size());
    let mut root = operator::build(input, env);
    let span = (map.is_some() && ctx.collect_timing()).then(Instant::now);
    let drained = root.open_timed(ctx).and_then(|()| {
        while let Some(b) = root.pull(ctx)? {
            let shape = root.shape();
            for row in &b.rows {
                results.values.push(match map {
                    Some(expr) => eval(expr, &op::bind(env, shape, row))?,
                    None => row_value(shape, row),
                });
            }
            results.end_batch(batch);
        }
        Ok(())
    });
    root.close_timed(ctx);
    ctx.sync_pool_metrics();
    drained?;
    let values = results.finish();
    let mut profile = Vec::new();
    if map.is_some() {
        let stats = OpStats {
            rows_out: values.len() as u64,
            batches_out: values.len().div_ceil(batch) as u64,
            wall_nanos: span.map_or(0, |t| t.elapsed().as_nanos() as u64),
            ..OpStats::default()
        };
        ctx.metrics.rows_emitted += stats.rows_out;
        ctx.metrics.batches_emitted += stats.batches_out;
        let est_rows = est.and_then(|e| e.first().copied());
        profile.push(OpProfile::new(0, plan.op_label(), stats, est_rows));
    }
    operator::profile_into(root.as_ref(), profile.len(), est, &mut profile);
    Ok((values, profile))
}

/// The result set while it is collected: values in arrival order,
/// compacted — sorted, then deduplicated so the first of equal values
/// stays, as a streaming dedup would have kept it — whenever it has
/// doubled since the last compaction, and by at least one batch. It never
/// holds more than twice the distinct values plus one batch.
///
/// A set of complex objects (the first value is a tuple, set, list or
/// variant) is sorted on [`Value::sort_prefix`]es, each built once and
/// kept beside its value: two values are compared with `Value::cmp` only
/// where their prefixes are equal, and each compaction moves every value
/// once, to its sorted place. Numbers, strings and the like compare faster
/// than a prefix is built, and often arrive sorted, so they sort as they
/// are.
#[derive(Default)]
struct Collector {
    values: Vec<Value>,
    /// Distinct values after the last compaction.
    kept: usize,
    /// Present when the values are sorted on prefixes.
    keys: Option<Keys>,
}

/// The `(prefix, position)` of every value keyed so far: after a
/// compaction, the i-th pair is the i-th value's.
struct Keys {
    pairs: Vec<(u128, usize)>,
    /// The first value's tuple: while every tuple has its labels, prefixes
    /// leave them out and hold values only.
    schema: Option<Record>,
}

impl Collector {
    /// A batch of values has been pushed: compact if they doubled the set.
    fn end_batch(&mut self, batch: usize) {
        if self.values.len() - self.kept >= self.kept.max(batch) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        if self.kept == 0 {
            let first = self.values.first();
            let container = matches!(
                first,
                Some(Value::Tuple(_) | Value::Set(_) | Value::List(_) | Value::Variant(..))
            );
            self.keys = container.then(|| Keys {
                pairs: Vec::new(),
                schema: first.and_then(|v| v.as_tuple().ok()).cloned(),
            });
        }
        match &mut self.keys {
            Some(keys) => keys.compact(&mut self.values),
            None => {
                self.values.sort();
                self.values.dedup();
            }
        }
        self.kept = self.values.len();
    }

    /// The distinct values, ascending.
    fn finish(mut self) -> Vec<Value> {
        if self.values.len() > self.kept {
            self.compact();
        }
        self.values
    }
}

impl Keys {
    /// Key the values that arrived since the last compaction, sort every
    /// pair on (prefix, value), drop the later of equal values and move the
    /// rest to their places.
    fn compact(&mut self, values: &mut Vec<Value>) {
        while let Some(v) = values.get(self.pairs.len()) {
            match v.sort_prefix(self.schema.as_ref()) {
                Some(prefix) => self.pairs.push((prefix, self.pairs.len())),
                // A tuple of other labels: key everything again, labels
                // and all.
                None => {
                    self.schema = None;
                    self.pairs.clear();
                }
            }
        }
        // Stable, and the pairs are in arrival order: equal values stay so.
        self.pairs
            .sort_by(|a, b| (a.0.cmp(&b.0)).then_with(|| values[a.1].cmp(&values[b.1])));
        let mut dropped = Vec::new();
        self.pairs.dedup_by(|b, a| {
            let equal = a.0 == b.0 && values[a.1] == values[b.1];
            if equal {
                dropped.push(b.1);
            }
            equal
        });
        let mut from: Vec<usize> = self.pairs.iter().map(|p| p.1).chain(dropped).collect();
        permute(values, &mut from);
        values.truncate(self.pairs.len());
        for (i, p) in self.pairs.iter_mut().enumerate() {
            p.1 = i;
        }
    }
}

/// The exit's sort on its own: `values` ascending and distinct, the first
/// of equal values kept, as [`execute_values`] collects a result set. For
/// the layer benches.
pub fn sort_distinct(values: Vec<Value>) -> Vec<Value> {
    let collector = Collector {
        values,
        ..Collector::default()
    };
    collector.finish()
}

/// Move `values[from[j]]` to position `j` for every `j`, in place: one
/// swap per element along each cycle of the permutation `from`, which is
/// left marked done (`usize::MAX`) throughout.
fn permute(values: &mut [Value], from: &mut [usize]) {
    for start in 0..from.len() {
        let mut j = start;
        loop {
            let src = std::mem::replace(&mut from[j], usize::MAX);
            if src == start || src == usize::MAX {
                break;
            }
            values.swap(j, src);
            j = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysPlan;
    use std::ops::Bound;
    use tmql_algebra::ScalarExpr as E;
    use tmql_storage::table::int_table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(int_table(
            "X",
            &["a", "b"],
            &[&[1, 1], &[2, 1], &[3, 3], &[4, 9]],
        ))
        .unwrap();
        cat.register(int_table("Y", &["b", "c"], &[&[1, 10], &[1, 11], &[3, 30]]))
            .unwrap();
        cat
    }

    #[test]
    fn scan_filter_map() {
        let cat = catalog();
        let plan = PhysPlan::Map {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::ScanTable {
                    table: "X".into(),
                    var: "x".into(),
                    pred: None,
                }),
                pred: E::cmp(tmql_algebra::CmpOp::Gt, E::path("x", &["a"]), E::lit(2i64)),
            }),
            expr: E::path("x", &["a"]),
            var: "v".into(),
        };
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&plan, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(ctx.metrics.rows_scanned, 4);
    }

    #[test]
    fn map_dedups() {
        let cat = catalog();
        // Project X onto b: values {1, 1, 3, 9} → 3 distinct.
        let plan = PhysPlan::Map {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            expr: E::path("x", &["b"]),
            var: "v".into(),
        };
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&plan, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn apply_is_a_real_nested_loop() {
        let cat = catalog();
        // For each x: { y.c | y ∈ Y, x.b = y.b }
        let sub = PhysPlan::Map {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::ScanTable {
                    table: "Y".into(),
                    var: "y".into(),
                    pred: None,
                }),
                pred: E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            }),
            expr: E::path("y", &["c"]),
            var: "v".into(),
        };
        let plan = PhysPlan::Apply {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            subquery: Box::new(sub),
            label: "z".into(),
            // Keyed on the whole outer row: every row is a distinct binding.
            bindings: vec![E::var("x")],
        };
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&plan, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(ctx.metrics.subquery_invocations, 4);
        // Every outer row drains the (reused) inner tree.
        assert_eq!(ctx.metrics.apply_invocations, 4);
        assert_eq!(ctx.metrics.apply_cache_hits, 0);
        // x=(1,1): z = {10, 11}; x=(4,9): z = ∅ (dangling preserved!).
        let z1 = rows[0].get("z").unwrap().as_set().unwrap().len();
        assert_eq!(z1, 2);
        let z4 = rows[3].get("z").unwrap();
        assert_eq!(z4, &Value::empty_set());
    }

    #[test]
    fn apply_memoizes_per_distinct_binding() {
        let cat = catalog();
        // X.b values are {1, 1, 3, 9}: 3 distinct bindings over 4 rows.
        let sub = PhysPlan::Map {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::ScanTable {
                    table: "Y".into(),
                    var: "y".into(),
                    pred: None,
                }),
                pred: E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            }),
            expr: E::path("y", &["c"]),
            var: "v".into(),
        };
        let mk = |bindings| PhysPlan::Apply {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            subquery: Box::new(sub.clone()),
            label: "z".into(),
            bindings,
        };
        let cached = mk(vec![E::path("x", &["b"])]);
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&cached, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(ctx.metrics.subquery_invocations, 4, "logical count stays");
        assert_eq!(ctx.metrics.apply_invocations, 3, "one drain per binding");
        assert_eq!(ctx.metrics.apply_cache_hits, 1);
        // Same rows as a run keyed on the whole outer row (no hits).
        let mut ctx2 = ExecContext::new(&cat);
        let baseline = execute(&mk(vec![E::var("x")]), &mut ctx2, &Env::new()).unwrap();
        assert_eq!(ctx2.metrics.apply_cache_hits, 0);
        assert_eq!(rows, baseline);
        // The resident gauge returns to zero once the cache is released.
        assert_eq!(ctx.resident_rows(), 0);
        assert!(ctx.metrics.peak_resident_rows > 0);
    }

    #[test]
    fn apply_streams_outer_rows_per_batch() {
        // With batch_size=2 over 4 outer rows, the Apply sees two input
        // batches and the outer scan is never materialized whole: its
        // carry-free pipeline keeps resident rows well below 4 outer + all
        // subquery intermediates at once.
        let cat = catalog();
        let sub = PhysPlan::Filter {
            input: Box::new(PhysPlan::ScanTable {
                table: "Y".into(),
                var: "y".into(),
                pred: None,
            }),
            pred: E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        };
        let plan = PhysPlan::Apply {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            subquery: Box::new(sub),
            label: "z".into(),
            bindings: vec![E::var("x")],
        };
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(2));
        let (rows, profile) = execute_collect(&plan, &mut ctx, &Env::new(), None).unwrap();
        let profile = operator::render_profile(&profile);
        assert_eq!(rows.len(), 4);
        assert_eq!(ctx.metrics.subquery_invocations, 4);
        // Timing is on by default, so a ` time=…` suffix follows.
        assert!(
            profile.contains("Apply[memo] [rows=4 batches=2"),
            "{profile}"
        );
    }

    #[test]
    fn scan_expr_iterates_correlated_sets() {
        let cat = catalog();
        let plan = PhysPlan::ScanExpr {
            expr: E::var("zs"),
            var: "v".into(),
        };
        let mut env = Env::new();
        env.push("zs", Value::set([Value::Int(1), Value::Int(2)]));
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&plan, &mut ctx, &env).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn profile_tree_matches_plan_shape() {
        let cat = catalog();
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            pred: E::cmp(tmql_algebra::CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64)),
        };
        let mut ctx = ExecContext::new(&cat);
        let (_, profile) = execute_collect(&plan, &mut ctx, &Env::new(), None).unwrap();
        let profile = operator::render_profile(&profile);
        assert!(profile.starts_with("Filter"), "{profile}");
        assert!(profile.contains("  Scan(X)"), "{profile}");
    }

    #[test]
    fn eval_const_subquery() {
        // A constant subquery is a one-row plan over no table.
        let plan = PhysPlan::ScanExpr {
            expr: E::SetLit(vec![E::agg(
                tmql_algebra::AggFn::Count,
                E::SetLit(vec![E::lit(1i64)]),
            )]),
            var: "v".into(),
        };
        let cat = catalog();
        let mut ctx = ExecContext::new(&cat);
        let (rows, _) = execute_collect(&plan, &mut ctx, &Env::new(), None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("v").unwrap(), &Value::Int(1));
    }

    /// Rows as a multiset-insensitive, order-insensitive fingerprint.
    fn row_set(rows: &[Record]) -> std::collections::BTreeSet<String> {
        rows.iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn index_scan_agrees_with_filter_and_counts_probes() {
        let mut cat = catalog();
        cat.create_index("X", "b").unwrap();
        let pred = E::eq(E::path("x", &["b"]), E::lit(1i64));
        let scan = PhysPlan::Filter {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            pred: pred.clone(),
        };
        let probe = PhysPlan::IndexScan {
            table: "X".into(),
            var: "x".into(),
            attr: "b".into(),
            eq: Some(E::lit(1i64)),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            pred: pred.clone(),
        };
        let mut sctx = ExecContext::new(&cat);
        let expected = execute(&scan, &mut sctx, &Env::new()).unwrap();
        let mut ictx = ExecContext::new(&cat);
        let got = execute(&probe, &mut ictx, &Env::new()).unwrap();
        assert_eq!(row_set(&got), row_set(&expected));
        assert_eq!(got.len(), 2, "X has two rows with b=1");
        assert_eq!(ictx.metrics.index_probes, 1);
        assert_eq!(ictx.metrics.index_hits, 2, "only candidates are fetched");
        assert_eq!(ictx.metrics.rows_scanned, 0, "probes are not scans");

        // Range variant: b >= 3 selects the last two rows.
        let rpred = E::cmp(tmql_algebra::CmpOp::Ge, E::path("x", &["b"]), E::lit(3i64));
        let rprobe = PhysPlan::IndexScan {
            table: "X".into(),
            var: "x".into(),
            attr: "b".into(),
            eq: None,
            lo: Bound::Included(E::lit(3i64)),
            hi: Bound::Unbounded,
            pred: rpred,
        };
        let mut rctx = ExecContext::new(&cat);
        let rows = execute(&rprobe, &mut rctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rctx.metrics.index_probes, 1);
    }

    #[test]
    fn index_scan_without_index_is_a_schema_error() {
        let cat = catalog();
        let probe = PhysPlan::IndexScan {
            table: "X".into(),
            var: "x".into(),
            attr: "b".into(),
            eq: Some(E::lit(1i64)),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            pred: E::lit(true),
        };
        let mut ctx = ExecContext::new(&cat);
        let err = execute(&probe, &mut ctx, &Env::new()).unwrap_err();
        assert!(
            matches!(err, tmql_model::ModelError::SchemaError(_)),
            "{err}"
        );
    }

    #[test]
    fn index_nl_join_agrees_with_nl_join_for_every_kind() {
        use crate::physical::JoinPath;
        use tmql_algebra::JoinKind;
        let mut cat = catalog();
        cat.create_index("Y", "b").unwrap();
        let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let kinds = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter,
            JoinKind::Nest {
                func: E::var("y"),
                label: "ys".into(),
            },
        ];
        let scan = |table: &str, var: &str| {
            Box::new(PhysPlan::ScanTable {
                table: table.into(),
                var: var.into(),
                pred: None,
            })
        };
        for kind in kinds {
            let nl = PhysPlan::Join {
                kind: kind.clone(),
                left: scan("X", "x"),
                path: JoinPath::NestedLoop {
                    right: scan("Y", "y"),
                    pred: pred.clone(),
                },
                select: None,
            };
            let inl = PhysPlan::Join {
                kind: kind.clone(),
                left: scan("X", "x"),
                path: JoinPath::Index {
                    table: "Y".into(),
                    var: "y".into(),
                    attr: "b".into(),
                    key: E::path("x", &["b"]),
                    pred: pred.clone(),
                },
                select: None,
            };
            let mut nctx = ExecContext::new(&cat);
            let expected = execute(&nl, &mut nctx, &Env::new()).unwrap();
            let mut ictx = ExecContext::new(&cat);
            let got = execute(&inl, &mut ictx, &Env::new()).unwrap();
            assert_eq!(
                row_set(&got),
                row_set(&expected),
                "kind {kind:?} diverged from the nested-loop reference"
            );
            assert_eq!(
                ictx.metrics.index_probes, 4,
                "one probe per outer row (kind {kind:?})"
            );
        }
    }
}
