//! The execution driver: builds the streaming operator tree for a physical
//! plan and drains it.
//!
//! The old recursive `exec_inner` interpreter materialized a full
//! `Vec<Record>` at every plan node; it is gone. Execution now flows
//! through the Volcano-style [`crate::op::operator`] tree batch-at-a-time,
//! and [`execute`] is the thin collect-all wrapper kept for API
//! compatibility (differential tests and the facade consume row vectors).

use tmql_algebra::{eval, Env, ScalarExpr};
use tmql_model::{Record, Result, Value};
use tmql_storage::spill::RunWriter;
use tmql_storage::{Catalog, SpillDir};

use crate::config::ExecConfig;
use crate::metrics::Metrics;
use crate::op::operator;

/// Execution context: the catalog, accumulated metrics, and the streaming
/// knobs shared by every operator in the tree.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// Stored tables.
    pub catalog: &'a Catalog,
    /// Work counters, accumulated across the whole plan (including
    /// correlated subquery executions).
    pub metrics: Metrics,
    batch_size: usize,
    threads: usize,
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
            threads: config.threads.max(1),
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
    pub fn sync_pool_metrics(&mut self) {
        if let (Some(base), Some(now)) = (self.pool_base, self.catalog.pool_stats()) {
            self.metrics.pool_hits = now.hits.saturating_sub(base.hits);
            self.metrics.pool_misses = now.misses.saturating_sub(base.misses);
        }
    }

    /// Rows per streaming batch (≥ 1).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Worker threads per wave (≥ 1; at `1` a wave runs in place).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-breaker resident-row budget, if one is configured.
    pub fn memory_budget_rows(&self) -> Option<usize> {
        self.memory_budget_rows
    }

    /// True iff a budget is configured and `n` resident rows exceed it.
    pub(crate) fn over_budget(&self, n: usize) -> bool {
        self.memory_budget_rows.is_some_and(|b| n > b)
    }

    /// Open `k` fresh spill runs in this query's scratch file (creating
    /// it on first use).
    pub(crate) fn spill_runs(&mut self, k: usize) -> Result<Vec<RunWriter>> {
        let dir = match &mut self.spill_dir {
            Some(dir) => dir,
            none => none.insert(SpillDir::create()?),
        };
        (0..k).map(|_| dir.create_run()).collect()
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

/// Execute a physical plan, collecting all result rows. `env` carries
/// correlation bindings (outer rows of enclosing `Apply` operators).
///
/// This is the compatibility wrapper over the streaming executor: the
/// *collection* here is the query result, not an intermediate, so it is
/// excluded from [`Metrics::peak_resident_rows`].
pub fn execute(
    plan: &crate::PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
) -> Result<Vec<Record>> {
    execute_profiled(plan, ctx, env).map(|(rows, _)| rows)
}

/// Execute a physical plan and also return the per-operator profile: the
/// operator tree annotated with each operator's emitted rows and batches.
pub fn execute_profiled(
    plan: &crate::PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
) -> Result<(Vec<Record>, String)> {
    let (rows, profile) = execute_collect(plan, ctx, env, None)?;
    Ok((rows, operator::render_profile(&profile)))
}

/// Execute a physical plan and return structured per-operator profiles.
/// `est` supplies estimated output rows per operator in executed-tree
/// pre-order (see [`crate::cost::Estimator::exec_order_rows_phys`]); when
/// present, each profile entry carries estimated next to actual rows so
/// callers can render them side by side and compute q-error.
pub fn execute_collect(
    plan: &crate::PhysPlan,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    est: Option<&[f64]>,
) -> Result<(Vec<Record>, Vec<operator::OpProfile>)> {
    let mut root = operator::build(plan, env);
    let result = root
        .open_timed(ctx)
        .and_then(|()| operator::drain(&mut root, ctx));
    root.close_timed(ctx);
    ctx.sync_pool_metrics();
    // The executor's exit: callers see records of bindings, whatever
    // shape the root operator's rows had.
    let shape = root.shape();
    let rows = result?.into_iter().map(|r| shape.wrap(r)).collect();
    let profile = operator::collect_profile(root.as_ref(), est);
    Ok((rows, profile))
}

/// Lower a logical plan with `config` and execute it, returning rows only.
pub fn execute_logical(
    plan: &tmql_algebra::Plan,
    catalog: &Catalog,
    config: &ExecConfig,
) -> Result<Vec<Record>> {
    let phys = crate::planner::lower(plan, catalog, config)?;
    let mut ctx = ExecContext::with_config(catalog, config);
    execute(&phys, &mut ctx, &Env::new())
}

/// Evaluate a whole scalar expression tree as a constant (no tables); used
/// for constant subqueries.
pub fn eval_const(expr: &ScalarExpr) -> Result<Value> {
    eval(expr, &Env::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysPlan;
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
            bindings: None,
        };
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&plan, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(ctx.metrics.subquery_invocations, 4);
        // Uncached: every outer row drains the (reused) inner tree.
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
        let cached = mk(Some(vec![E::path("x", &["b"])]));
        let mut ctx = ExecContext::new(&cat);
        let rows = execute(&cached, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(ctx.metrics.subquery_invocations, 4, "logical count stays");
        assert_eq!(ctx.metrics.apply_invocations, 3, "one drain per binding");
        assert_eq!(ctx.metrics.apply_cache_hits, 1);
        // Same rows as the uncached run.
        let mut ctx2 = ExecContext::new(&cat);
        let baseline = execute(&mk(None), &mut ctx2, &Env::new()).unwrap();
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
            bindings: None,
        };
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(2));
        let (rows, profile) = execute_profiled(&plan, &mut ctx, &Env::new()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(ctx.metrics.subquery_invocations, 4);
        // Timing is on by default, so a ` time=…` suffix follows.
        assert!(profile.contains("Apply [rows=4 batches=2"), "{profile}");
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
        let (_, profile) = execute_profiled(&plan, &mut ctx, &Env::new()).unwrap();
        assert!(profile.starts_with("Filter"), "{profile}");
        assert!(profile.contains("  Scan(X)"), "{profile}");
    }

    #[test]
    fn eval_const_subquery() {
        let v = eval_const(&E::agg(
            tmql_algebra::AggFn::Count,
            E::SetLit(vec![E::lit(1i64)]),
        ))
        .unwrap();
        assert_eq!(v, Value::Int(1));
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
            lo: None,
            hi: None,
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
            lo: Some(E::lit(3i64)),
            hi: None,
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
            lo: None,
            hi: None,
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
        let mut cat = catalog();
        cat.create_index("Y", "b").unwrap();
        let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let kinds = [
            crate::JoinKind::Inner,
            crate::JoinKind::Semi,
            crate::JoinKind::Anti,
            crate::JoinKind::LeftOuter {
                right_vars: vec!["y".into()],
            },
            crate::JoinKind::Nest {
                func: E::var("y"),
                label: "ys".into(),
            },
        ];
        for kind in kinds {
            let nl = PhysPlan::NlJoin {
                left: Box::new(PhysPlan::ScanTable {
                    table: "X".into(),
                    var: "x".into(),
                    pred: None,
                }),
                right: Box::new(PhysPlan::ScanTable {
                    table: "Y".into(),
                    var: "y".into(),
                    pred: None,
                }),
                pred: pred.clone(),
                kind: kind.clone(),
            };
            let inl = PhysPlan::IndexNLJoin {
                left: Box::new(PhysPlan::ScanTable {
                    table: "X".into(),
                    var: "x".into(),
                    pred: None,
                }),
                right_table: "Y".into(),
                right_var: "y".into(),
                attr: "b".into(),
                key: E::path("x", &["b"]),
                pred: pred.clone(),
                kind: kind.clone(),
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
