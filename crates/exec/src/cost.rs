//! The cardinality and cost model over table statistics.
//!
//! This module turns `tmql-storage` statistics (cardinalities, distinct
//! counts, equi-width histograms, set-valued fan-outs) into per-plan
//! estimates the decision layers consume:
//!
//! * the **logical optimizer** (`tmql-core`) ranks rewritten candidate
//!   plans per query block under `UnnestStrategy::CostBased`;
//! * the **physical planner** ([`crate::planner`]) picks join algorithms
//!   and the hash-join build side;
//! * the **facade** annotates `EXPLAIN` output with estimated rows and the
//!   executed profile with estimated-vs-actual rows, making q-error
//!   visible.
//!
//! The model is deliberately classical (System-R lineage): per-operator
//! output cardinalities from selectivities, abstract `work` units that
//! mirror the executor's counters (rows scanned, predicate evaluations,
//! hash build/probe traffic, subquery invocations), and a `resident`
//! component that mirrors the streaming executor's pipeline-breaker model
//! from the `peak_resident_rows` gauge — breakers (hash build sides, sort
//! buffers, grouping state, dedup sets) hold rows, pipelined operators do
//! not.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use tmql_algebra::{CmpOp, Plan, ScalarExpr};
use tmql_model::Value;
use tmql_storage::stats::{ColumnStats, TableStats};
use tmql_storage::Catalog;

use crate::physical::{JoinKind, PhysPlan};
use crate::planner::extract_equi_keys;

/// Default selectivity of an opaque predicate.
pub const DEFAULT_SELECTIVITY: f64 = 0.25;
/// Default selectivity of an equi-join conjunct when no stats are known.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.01;
/// Default fan-out of a set-valued expression (`ScanExpr`, `Unnest`) when
/// no per-column average set-cardinality statistic is available — e.g. the
/// set is a subquery label or a constructed value. When the expression is
/// a stored column, [`TableStats::avg_set_card`] is used instead.
pub const DEFAULT_SET_FANOUT: f64 = 16.0;
/// Assumed cardinality of a table with no recorded statistics.
pub const UNKNOWN_TABLE_ROWS: f64 = 1000.0;
/// Grouping collapse factor when group-key distinct counts are unknown.
pub const GROUP_COLLAPSE: f64 = 0.1;
/// Abstract per-invocation overhead of a correlated `Apply` (operator
/// re-open + environment rebind), on top of the subquery's own work.
/// Charged once per *distinct* correlation binding — the executor
/// memoizes completed inner results per binding, so duplicate bindings
/// cost a cache probe, not an execution.
pub const APPLY_OVERHEAD: f64 = 4.0;
/// Abstract work units charged per outer row of an `Apply` for
/// evaluating the binding key and probing the result cache — mirrors
/// [`crate::Metrics::apply_cache_hits`] entering `total_work`.
pub const CACHE_PROBE_WORK: f64 = 1.0;
/// Floor for combined predicate selectivities.
const MIN_SELECTIVITY: f64 = 1e-4;
/// Scalar-expression nodes evaluated per abstract work unit: predicate
/// evaluation is interpretive (a tree walk per row), so a selection's
/// per-row cost scales with its predicate's size.
const EXPR_NODES_PER_WORK_UNIT: f64 = 4.0;
/// Abstract work units charged per row that a breaker spills (serialize +
/// write, then read + decode — several times the cost of touching a row in
/// memory). Mirrors [`crate::Metrics::rows_spilled`] entering
/// `total_work`, with the weight capturing that a spilled row is more
/// expensive than an emitted one.
pub const SPILL_IO_PER_ROW: f64 = 4.0;
/// Abstract work units charged per data page a scan must fault in from
/// disk (seek + read + slot decode for a whole 8 KiB page). Applied to
/// the pages of a disk-backed table that are **not** currently resident
/// in the buffer pool, so a cold scan costs more than the same scan warm
/// — mirroring [`crate::Metrics::pool_misses`] entering `total_work`.
pub const PAGE_IO_WORK: f64 = 16.0;
/// Abstract work units charged per secondary-index probe (an ordered-map
/// descent plus cursor setup). The probe path additionally pays for every
/// candidate row it fetches and re-checks, so the modeled crossover
/// against a full scan sits where the candidate traffic stops being small
/// — mirroring [`crate::Metrics::index_probes`] / `index_hits` entering
/// `total_work`.
pub const INDEX_PROBE_WORK: f64 = 4.0;
/// Weight of the `resident` component in [`CostEstimate::total`]: a mild
/// memory-pressure penalty so that, costs being close, the plan with the
/// smaller pipeline-breaker footprint wins.
const RESIDENT_WEIGHT: f64 = 0.25;
/// Abstract work units charged per row crossing an exchange when a plan
/// fragment runs on a worker wave (`threads > 1`): morsel hand-off, the
/// ordered gather, and the carry-queue copy. Keeps parallel estimates
/// from claiming a free `1/threads` — the modeled speedup saturates at
/// the point where exchange traffic dominates per-row work.
pub const EXCHANGE_COST_PER_ROW: f64 = 0.1;

/// Estimated execution characteristics of a plan (cumulative over the
/// whole subtree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Abstract work units: scans + predicate evaluations + hash traffic +
    /// emitted rows + subquery invocations, mirroring
    /// [`crate::Metrics::total_work`].
    pub work: f64,
    /// Estimated peak rows resident in operator state (pipeline breakers,
    /// dedup sets) — the model counterpart of
    /// [`crate::Metrics::peak_resident_rows`]. An upper bound: concurrent
    /// breaker states are summed.
    pub resident: f64,
}

impl CostEstimate {
    /// Total comparable cost: work plus a mild memory-pressure penalty.
    pub fn total(&self) -> f64 {
        self.work + RESIDENT_WEIGHT * self.resident
    }
}

/// Estimated cost (abstract work units) of executing a join of the given
/// cardinalities with each algorithm.
pub mod join_cost {
    /// Nested loop: |L|·|R| comparisons.
    pub fn nested_loop(l: f64, r: f64) -> f64 {
        l * r
    }

    /// Hash: build |R| + probe |L| (assuming few collisions).
    pub fn hash(l: f64, r: f64) -> f64 {
        r * 1.5 + l
    }

    /// Sort-merge: sort both sides (with a realistic per-row constant —
    /// key extraction and comparison are not free) + merge.
    pub fn sort_merge(l: f64, r: f64) -> f64 {
        let sort = |n: f64| 2.0 * n * (n + 2.0).log2();
        sort(l) + sort(r) + l + r
    }

    /// Index nested loop: one probe per outer row plus a fetch + full
    /// predicate re-check per candidate the probes return. The inner
    /// operand is never scanned or built — that saving is accounted by
    /// the caller dropping the inner subtree's work.
    pub fn index_nl(l: f64, matches: f64) -> f64 {
        l * super::INDEX_PROBE_WORK + 2.0 * matches
    }
}

/// Correlation scope for estimates under an `Apply`: iteration variables of
/// enclosing plans mapped to the table they scan.
type Scope = BTreeMap<String, String>;

/// The statistics-backed estimator. Cheap to construct (borrows the
/// catalog); all estimation is pure.
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    catalog: &'a Catalog,
    /// Mirror of [`crate::ExecConfig::memory_budget_rows`]: when a
    /// breaker's predicted state exceeds it, the model caps the resident
    /// contribution at the budget and charges [`SPILL_IO_PER_ROW`] per
    /// spilled row instead — so under tight memory, plans with smaller
    /// breaker state win on work, not just on the resident penalty.
    budget: Option<f64>,
    /// Mirror of [`crate::ExecConfig::threads`]: parallelizable fragments
    /// (scans; the per-partition work of spilled joins and breakers)
    /// divide their work across this many workers and pay
    /// [`EXCHANGE_COST_PER_ROW`] per row crossing the exchange. `1.0`
    /// models one-thread execution exactly. Resident state is **not**
    /// divided — concurrent partitions are summed, which is what the
    /// executor's budget-capped waves actually hold.
    threads: f64,
}

impl<'a> Estimator<'a> {
    /// An estimator over the catalog's statistics (no memory budget,
    /// serial execution).
    pub fn new(catalog: &'a Catalog) -> Estimator<'a> {
        Estimator {
            catalog,
            budget: None,
            threads: 1.0,
        }
    }

    /// An estimator that models spilling under the given breaker budget
    /// (`None` behaves exactly like [`Estimator::new`]).
    pub fn with_budget(catalog: &'a Catalog, budget: Option<usize>) -> Estimator<'a> {
        Estimator {
            catalog,
            budget: budget.map(|b| b as f64),
            threads: 1.0,
        }
    }

    /// Model parallel execution on `n` workers (clamped to ≥ 1; `1` is
    /// the serial model, unchanged).
    pub fn with_threads(mut self, n: usize) -> Estimator<'a> {
        self.threads = n.max(1) as f64;
        self
    }

    /// Work of a fragment the executor runs on a worker wave: divided
    /// across workers plus the exchange charge for the `rows` that cross
    /// it. Identity at `threads = 1`.
    fn parallel_work(&self, work: f64, rows: f64) -> f64 {
        if self.threads <= 1.0 {
            work
        } else {
            work / self.threads + EXCHANGE_COST_PER_ROW * rows
        }
    }

    /// Resident contribution and spill-I/O work of one breaker holding
    /// `state` rows: in memory it is `(state, 0)`; past the budget the
    /// resident share is capped at the budget and every state row is
    /// charged a spill round-trip.
    fn breaker_state(&self, state: f64) -> (f64, f64) {
        match self.budget {
            Some(b) if state > b => (b, SPILL_IO_PER_ROW * state),
            _ => (state, 0.0),
        }
    }

    /// Kernel work of a breaker over `state` input rows plus its spill
    /// I/O. An in-memory breaker runs its kernel once, serially; a
    /// spilled one runs it per grace partition on the worker wave, so the
    /// kernel share parallelizes (the spill I/O itself does not — the
    /// partitioning pass is serial).
    fn breaker_work(&self, state: f64, spill: f64) -> f64 {
        if spill > 0.0 {
            self.parallel_work(state, state) + spill
        } else {
            state
        }
    }

    /// Estimated output cardinality of a logical plan.
    pub fn rows(&self, plan: &Plan) -> f64 {
        self.node(plan, &Scope::new()).rows
    }

    /// Full cost estimate of a logical plan.
    pub fn cost(&self, plan: &Plan) -> CostEstimate {
        self.node(plan, &Scope::new())
    }

    /// Per-node row estimates in **executed-operator order**: pre-order
    /// over the plan, except that `Apply` descends only into its outer
    /// input — the subquery operator tree is instantiated per outer row
    /// and does not appear in the executed profile. Zips 1:1 with the
    /// streaming executor's profile tree for the same (lowered) plan.
    pub fn exec_order_rows(&self, plan: &Plan) -> Vec<f64> {
        let mut out = Vec::with_capacity(plan.size());
        self.collect_exec_order(plan, &Scope::new(), &mut out);
        out
    }

    /// [`Estimator::exec_order_rows`] for a physical plan (post join
    /// algorithm / build-side choice / index-path selection). Walks the
    /// **physical** tree — one estimate per executed operator — because
    /// index operators collapse logical shapes: an `IndexScan` is one
    /// operator implementing select-over-scan, an `IndexNLJoin` has no
    /// inner child at all. Each node's rows come from its
    /// [`logical_view`], so estimates agree with the logical model.
    pub fn exec_order_rows_phys(&self, phys: &PhysPlan) -> Vec<f64> {
        let mut out = Vec::new();
        self.collect_exec_order_phys(phys, &mut out);
        out
    }

    fn collect_exec_order_phys(&self, phys: &PhysPlan, out: &mut Vec<f64>) {
        out.push(self.node(&logical_view(phys), &Scope::new()).rows);
        match phys {
            // The Apply subquery tree is instantiated per outer row and
            // does not appear in the executed profile.
            PhysPlan::Apply { input, .. } => self.collect_exec_order_phys(input, out),
            other => {
                for c in other.children() {
                    self.collect_exec_order_phys(c, out);
                }
            }
        }
    }

    fn collect_exec_order(&self, plan: &Plan, outer: &Scope, out: &mut Vec<f64>) {
        out.push(self.node(plan, outer).rows);
        match plan {
            Plan::Apply { input, .. } => self.collect_exec_order(input, outer, out),
            other => {
                for c in other.children() {
                    self.collect_exec_order(c, outer, out);
                }
            }
        }
    }

    // -- statistics resolution ---------------------------------------------

    /// Table statistics for the iteration variable `var`, resolved against
    /// the given subtree roots (a `ScanTable` binding `var`) or the outer
    /// correlation scope.
    fn table_of(&self, roots: &[&Plan], outer: &Scope, var: &str) -> Option<&'a TableStats> {
        for root in roots {
            if let Some(stats) = Self::find_scan_stats(self.catalog, root, var) {
                return Some(stats);
            }
        }
        outer.get(var).and_then(|t| self.catalog.stats(t))
    }

    fn find_scan_stats<'c>(catalog: &'c Catalog, plan: &Plan, var: &str) -> Option<&'c TableStats> {
        if let Plan::ScanTable { table, var: v } = plan {
            if v == var {
                return catalog.stats(table);
            }
        }
        plan.children()
            .into_iter()
            .find_map(|c| Self::find_scan_stats(catalog, c, var))
    }

    /// Cold-page I/O charge for scanning or probing `table` right now:
    /// [`PAGE_IO_WORK`] per extent page not currently resident in the
    /// buffer pool (0 for in-memory tables).
    fn cold_page_io(&self, table: &str) -> f64 {
        self.catalog
            .page_residency(table)
            .map(|(resident, total)| PAGE_IO_WORK * total.saturating_sub(resident) as f64)
            .unwrap_or(0.0)
    }

    /// Column statistics for `var.col`.
    fn col_of(
        &self,
        roots: &[&Plan],
        outer: &Scope,
        var: &str,
        col: &str,
    ) -> Option<&'a ColumnStats> {
        self.table_of(roots, outer, var).and_then(|t| t.column(col))
    }

    /// Decompose `e` as a single-level column reference `var.col`.
    fn as_column(e: &ScalarExpr) -> Option<(&str, &str)> {
        if let ScalarExpr::Field(inner, col) = e {
            if let ScalarExpr::Var(v) = &**inner {
                return Some((v.as_str(), col.as_str()));
            }
        }
        None
    }

    /// Numeric literal value of `e`, if any.
    fn as_number(e: &ScalarExpr) -> Option<f64> {
        match e {
            ScalarExpr::Lit(Value::Int(i)) => Some(*i as f64),
            ScalarExpr::Lit(Value::Float(f)) => Some(*f),
            _ => None,
        }
    }

    /// Fan-out of a set-valued expression: the per-column average
    /// set-cardinality when the expression is a stored column,
    /// [`DEFAULT_SET_FANOUT`] otherwise.
    fn fanout(&self, expr: &ScalarExpr, roots: &[&Plan], outer: &Scope) -> f64 {
        if let Some((var, col)) = Self::as_column(expr) {
            if let Some(t) = self.table_of(roots, outer, var) {
                if let Some(f) = t.avg_set_card(col) {
                    return f.max(0.0);
                }
            }
        }
        if let ScalarExpr::SetLit(items) = expr {
            return items.len() as f64;
        }
        DEFAULT_SET_FANOUT
    }

    // -- selectivities -----------------------------------------------------

    /// Selectivity of a predicate, resolving columns against the subtree
    /// roots and the outer correlation scope. Conjuncts multiply, clamped
    /// to `[MIN_SELECTIVITY, 1]`.
    fn selectivity(&self, pred: &ScalarExpr, roots: &[&Plan], outer: &Scope) -> f64 {
        let s = self.conjunct_selectivity(pred, roots, outer);
        s.clamp(MIN_SELECTIVITY, 1.0)
    }

    fn conjunct_selectivity(&self, e: &ScalarExpr, roots: &[&Plan], outer: &Scope) -> f64 {
        match e {
            ScalarExpr::Lit(Value::Bool(true)) => 1.0,
            ScalarExpr::Lit(Value::Bool(false)) => MIN_SELECTIVITY,
            ScalarExpr::And(a, b) => {
                self.conjunct_selectivity(a, roots, outer)
                    * self.conjunct_selectivity(b, roots, outer)
            }
            ScalarExpr::Or(a, b) => {
                let sa = self.conjunct_selectivity(a, roots, outer);
                let sb = self.conjunct_selectivity(b, roots, outer);
                (sa + sb - sa * sb).min(1.0)
            }
            ScalarExpr::Not(inner) => {
                (1.0 - self.conjunct_selectivity(inner, roots, outer)).max(MIN_SELECTIVITY)
            }
            ScalarExpr::Cmp(op, a, b) => self.cmp_selectivity(*op, a, b, roots, outer),
            // Whole-set comparisons between blocks: no per-element stats;
            // assume the generic default.
            ScalarExpr::SetCmp(..) | ScalarExpr::Quant { .. } => DEFAULT_SELECTIVITY,
            ScalarExpr::IsNull(inner) => {
                if let Some((var, col)) = Self::as_column(inner) {
                    if let Some(c) = self.col_of(roots, outer, var, col) {
                        return c.null_fraction.max(MIN_SELECTIVITY);
                    }
                }
                DEFAULT_SELECTIVITY
            }
            _ => DEFAULT_SELECTIVITY,
        }
    }

    fn cmp_selectivity(
        &self,
        op: CmpOp,
        a: &ScalarExpr,
        b: &ScalarExpr,
        roots: &[&Plan],
        outer: &Scope,
    ) -> f64 {
        // Orient as column-op-something when possible.
        let (col, other, op) = match (Self::as_column(a), Self::as_column(b)) {
            (Some(_), _) => (a, b, op),
            (None, Some(_)) => (b, a, op.flip()),
            (None, None) => {
                return match op {
                    CmpOp::Eq => DEFAULT_EQ_SELECTIVITY,
                    CmpOp::Ne => 1.0 - DEFAULT_EQ_SELECTIVITY,
                    _ => DEFAULT_SELECTIVITY,
                }
            }
        };
        let (var, name) = Self::as_column(col).expect("oriented above");
        let cstats = self.col_of(roots, outer, var, name);
        match op {
            CmpOp::Eq | CmpOp::Ne => {
                // Column = column → 1/max(NDV); column = literal/expr →
                // 1/NDV of the column.
                let ndv_a = cstats.map(|c| c.distinct.max(1) as f64);
                let ndv_b = Self::as_column(other)
                    .and_then(|(v, c)| self.col_of(roots, outer, v, c))
                    .map(|c| c.distinct.max(1) as f64);
                let eq = match (ndv_a, ndv_b) {
                    (Some(x), Some(y)) => 1.0 / x.max(y),
                    (Some(x), None) | (None, Some(x)) => 1.0 / x,
                    (None, None) => DEFAULT_EQ_SELECTIVITY,
                };
                if op == CmpOp::Eq {
                    eq
                } else {
                    (1.0 - eq).max(MIN_SELECTIVITY)
                }
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                // Histogram-based range selectivity for column-vs-literal;
                // default for column-vs-column ranges. `fraction_lt` is
                // strict (P[x < v]) while `fraction_gt` is its complement
                // (P[x ≥ v]), so the mass of one distinct value moves the
                // strict/inclusive variants apart.
                let Some(v) = Self::as_number(other) else {
                    return DEFAULT_SELECTIVITY;
                };
                let Some(c) = cstats else {
                    return DEFAULT_SELECTIVITY;
                };
                let eq_mass = c.fraction_eq().unwrap_or(0.0);
                let frac = match op {
                    CmpOp::Lt => c.fraction_lt(v),
                    CmpOp::Le => c.fraction_lt(v).map(|f| f + eq_mass),
                    CmpOp::Ge => c.fraction_gt(v),
                    CmpOp::Gt => c.fraction_gt(v).map(|f| f - eq_mass),
                    _ => unreachable!("range ops only"),
                };
                frac.map(|f| f.clamp(0.0, 1.0))
                    .unwrap_or(DEFAULT_SELECTIVITY)
            }
        }
    }

    /// Selectivity of one equi-key pair of a join (1/max NDV).
    fn equi_pair_selectivity(
        &self,
        lk: &ScalarExpr,
        rk: &ScalarExpr,
        left: &Plan,
        right: &Plan,
        outer: &Scope,
    ) -> f64 {
        let ndv = |e: &ScalarExpr, root: &Plan| -> Option<f64> {
            Self::as_column(e)
                .and_then(|(v, c)| self.col_of(&[root], outer, v, c))
                .map(|c| c.distinct.max(1) as f64)
        };
        match (ndv(lk, left), ndv(rk, right)) {
            (Some(x), Some(y)) => 1.0 / x.max(y),
            (Some(x), None) | (None, Some(x)) => 1.0 / x,
            (None, None) => DEFAULT_EQ_SELECTIVITY,
        }
    }

    // -- the estimator proper ----------------------------------------------

    fn node(&self, plan: &Plan, outer: &Scope) -> CostEstimate {
        match plan {
            Plan::ScanTable { table, .. } => {
                let rows = self
                    .catalog
                    .stats(table)
                    .map(|s| s.cardinality as f64)
                    .unwrap_or(UNKNOWN_TABLE_ROWS);
                // Disk-backed tables pay page I/O for whatever part of
                // their extent is cold in the buffer pool right now; a
                // warm working set scans at in-memory cost.
                let page_io = self.cold_page_io(table);
                CostEstimate {
                    rows,
                    // Scans are morsel-parallel: page faults and row
                    // decoding divide across the wave; every row pays the
                    // exchange to reach the gather.
                    work: self.parallel_work(rows + page_io, rows),
                    resident: 0.0,
                }
            }
            Plan::ScanExpr { expr, .. } => {
                let rows = self.fanout(expr, &[], outer);
                // The set value is evaluated once and buffered.
                CostEstimate {
                    rows,
                    work: rows,
                    resident: rows,
                }
            }
            Plan::Select { input, pred } => {
                let c = self.node(input, outer);
                let sel = self.selectivity(pred, &[input], outer);
                let mut work = c.work + c.rows * expr_weight(pred);
                // A selection directly over an indexed scan has a second
                // access path: probe the index, re-check candidates. The
                // model prices both and takes the cheaper — the same
                // comparison the planner makes, so `CostBased` ranks
                // index-eligible shapes by what will actually run.
                if let Plan::ScanTable { table, var } = &**input {
                    if let Some((_, probe_work, scan_work)) =
                        self.select_access_paths(table, var, pred)
                    {
                        work = work.min(probe_work).min(scan_work);
                    }
                }
                CostEstimate {
                    rows: c.rows * sel,
                    work,
                    resident: c.resident,
                }
            }
            Plan::Map {
                input,
                expr,
                var: _,
            } => {
                let c = self.node(input, outer);
                // Map dedups: cap by the NDV of the projected column or the
                // cardinality of the projected table variable when known.
                let cap = match expr {
                    e if Self::as_column(e).is_some() => {
                        let (v, col) = Self::as_column(e).expect("checked");
                        self.col_of(&[input], outer, v, col)
                            .map(|c| c.distinct.max(1) as f64)
                    }
                    ScalarExpr::Var(v) => self
                        .table_of(&[input], outer, v)
                        .map(|t| t.cardinality.max(1) as f64),
                    _ => None,
                };
                let rows = cap.map_or(c.rows, |cap| c.rows.min(cap));
                // The dedup set is resident breaker state (spillable).
                let (res, spill) = self.breaker_state(rows);
                CostEstimate {
                    rows,
                    work: c.work + self.breaker_work(c.rows, spill),
                    resident: c.resident + res,
                }
            }
            Plan::Extend { input, .. } => {
                let c = self.node(input, outer);
                CostEstimate {
                    rows: c.rows,
                    work: c.work + c.rows,
                    resident: c.resident,
                }
            }
            Plan::Project { input, .. } => {
                let c = self.node(input, outer);
                let (res, spill) = self.breaker_state(c.rows);
                CostEstimate {
                    rows: c.rows,
                    work: c.work + self.breaker_work(c.rows, spill),
                    resident: c.resident + res,
                }
            }
            Plan::Join { .. }
            | Plan::SemiJoin { .. }
            | Plan::AntiJoin { .. }
            | Plan::LeftOuterJoin { .. }
            | Plan::NestJoin { .. } => self.join_node(plan, outer),
            Plan::Nest { input, keys, .. } => {
                let c = self.node(input, outer);
                // Groups: bounded by the cardinality of a key variable's
                // table when resolvable (ν over an outerjoin groups back to
                // the preserved side), else a generic collapse.
                let cap = keys
                    .iter()
                    .filter_map(|k| self.table_of(&[input], outer, k))
                    .map(|t| t.cardinality.max(1) as f64)
                    .fold(None::<f64>, |acc, card| {
                        Some(acc.map_or(card, |a| a.max(card)))
                    });
                let rows = cap
                    .map(|cap| c.rows.min(cap))
                    .unwrap_or((c.rows * GROUP_COLLAPSE).max(1.0));
                let (res, spill) = self.breaker_state(c.rows);
                CostEstimate {
                    rows,
                    work: c.work + self.breaker_work(c.rows, spill),
                    resident: c.resident + res,
                }
            }
            Plan::GroupAgg { input, keys, .. } => {
                let c = self.node(input, outer);
                let cap = keys
                    .iter()
                    .filter_map(|(_, e)| Self::as_column(e))
                    .filter_map(|(v, col)| self.col_of(&[input], outer, v, col))
                    .map(|cs| cs.distinct.max(1) as f64)
                    .fold(None::<f64>, |acc, ndv| {
                        Some(acc.map_or(ndv, |a| a.max(ndv)))
                    });
                let rows = cap
                    .map(|cap| c.rows.min(cap))
                    .unwrap_or((c.rows * GROUP_COLLAPSE).max(1.0));
                let (res, spill) = self.breaker_state(c.rows);
                CostEstimate {
                    rows,
                    work: c.work + self.breaker_work(c.rows, spill),
                    resident: c.resident + res,
                }
            }
            Plan::Unnest { input, expr, .. } => {
                let c = self.node(input, outer);
                let rows = c.rows * self.fanout(expr, &[input], outer);
                CostEstimate {
                    rows,
                    work: c.work + c.rows + rows,
                    resident: c.resident,
                }
            }
            Plan::Apply {
                input, subquery, ..
            } => {
                let c = self.node(input, outer);
                let mut inner_scope = outer.clone();
                bind_scans(input, &mut inner_scope);
                let sub = self.node(subquery, &inner_scope);
                // The executor memoizes inner results per distinct
                // correlation binding (on by default), so the inner plan
                // drains once per distinct binding; every outer row pays
                // a binding-key evaluation and cache probe. The cached
                // result sets are budget-capped resident state.
                let bindings = crate::planner::apply_bindings(subquery);
                let distinct = self.distinct_bindings(&bindings, input, &inner_scope, c.rows);
                let (cache_res, _) = self.breaker_state(distinct * sub.rows.max(0.0));
                CostEstimate {
                    rows: c.rows,
                    work: c.work
                        + distinct * (sub.work + APPLY_OVERHEAD)
                        + CACHE_PROBE_WORK * c.rows,
                    resident: c.resident + sub.resident + cache_res,
                }
            }
            Plan::SetOp {
                kind, left, right, ..
            } => {
                let l = self.node(left, outer);
                let r = self.node(right, outer);
                // Satellite fix: intersect is bounded by the smaller input
                // and except by the left input; only union can grow.
                let rows = match kind {
                    tmql_algebra::SetOpKind::Union => l.rows + r.rows,
                    tmql_algebra::SetOpKind::Intersect => l.rows.min(r.rows),
                    tmql_algebra::SetOpKind::Except => l.rows,
                };
                let (res, spill) = self.breaker_state(l.rows + r.rows);
                CostEstimate {
                    rows,
                    work: l.work + r.work + self.breaker_work(l.rows + r.rows, spill),
                    resident: l.resident + r.resident + res,
                }
            }
        }
    }

    /// Estimated number of distinct correlation bindings an `Apply` over
    /// `input` presents to its subquery: the product of the per-binding
    /// NDVs (column stats for `v.col`, table cardinality for a whole-row
    /// `v`, the outer row count when unknown), capped at the outer row
    /// count. Empty bindings — an invariant subquery — estimate as one.
    fn distinct_bindings(
        &self,
        bindings: &[ScalarExpr],
        input: &Plan,
        scope: &Scope,
        outer_rows: f64,
    ) -> f64 {
        let cap = outer_rows.max(1.0);
        let mut distinct = 1.0f64;
        for b in bindings {
            let ndv = match b {
                e if Self::as_column(e).is_some() => {
                    let (v, col) = Self::as_column(e).expect("checked");
                    self.col_of(&[input], scope, v, col)
                        .map(|c| c.distinct.max(1) as f64)
                }
                ScalarExpr::Var(v) => self
                    .table_of(&[input], scope, v)
                    .map(|t| t.cardinality.max(1) as f64),
                _ => None,
            };
            distinct *= ndv.unwrap_or(cap);
            if distinct >= cap {
                break;
            }
        }
        distinct.clamp(1.0, cap)
    }

    /// Planner hook: the distinct-binding estimate for an `Apply` of
    /// `subquery` over `input` — how many times the executor will
    /// actually drain the inner plan with memoization on.
    pub fn apply_distinct_bindings(&self, input: &Plan, subquery: &Plan) -> f64 {
        let bindings = crate::planner::apply_bindings(subquery);
        let mut scope = Scope::new();
        bind_scans(input, &mut scope);
        let outer_rows = self.node(input, &Scope::new()).rows;
        self.distinct_bindings(&bindings, input, &scope, outer_rows)
    }

    /// Price `probes` repetitions of `σ_pred(table)` along two access
    /// paths: a **transient hash index** on the eq-probed attribute —
    /// built once (hash-build cost per row plus whatever page I/O a cold
    /// extent costs), then per repetition one probe plus a fetch and
    /// full-predicate re-check per candidate — versus re-running the
    /// scan + filter every time. `covered` is the eq conjunct the probe
    /// answers (its selectivity sizes the candidate traffic). This is the
    /// eq-only, no-persistent-index complement of
    /// [`Estimator::select_access_paths`]: the build only amortizes when
    /// the repetition count is high enough, which is why it fires from
    /// `Apply` hoisting (probes = distinct bindings) and not from a
    /// single selection.
    pub fn transient_hash_paths(
        &self,
        table: &str,
        var: &str,
        pred: &ScalarExpr,
        covered: &ScalarExpr,
        probes: f64,
    ) -> (f64, f64) {
        let probes = probes.max(1.0);
        let input = Plan::ScanTable {
            table: table.to_string(),
            var: var.to_string(),
        };
        let outer = Scope::new();
        let scan = self.node(&input, &outer);
        let scan_work = probes * (scan.work + scan.rows * expr_weight(pred));
        let sel = self.selectivity(covered, &[&input], &outer);
        let candidates = scan.rows * sel;
        let build = 1.5 * scan.rows + self.cold_page_io(table);
        let probe_work =
            build + probes * (INDEX_PROBE_WORK + candidates * (2.0 + expr_weight(pred)));
        (probe_work, scan_work)
    }

    /// Price the two access paths of `σ_pred(table)` when the predicate
    /// has an index-eligible component: `(component, probe_work,
    /// scan_work)`. `None` when no conjunct probes an existing index.
    /// Shared by the model's `Select` pricing and the planner's
    /// scan-vs-probe choice, so the plan the planner emits is the plan
    /// the model priced. (For equality components with *no* persistent
    /// index, [`Estimator::transient_hash_paths`] prices the
    /// build-it-yourself alternative an `Apply` can amortize.)
    pub fn select_access_paths(
        &self,
        table: &str,
        var: &str,
        pred: &ScalarExpr,
    ) -> Option<(crate::planner::IndexSel, f64, f64)> {
        let isel = crate::planner::index_selection(pred, table, var, self.catalog)?;
        let input = Plan::ScanTable {
            table: table.to_string(),
            var: var.to_string(),
        };
        let outer = Scope::new();
        let scan = self.node(&input, &outer);
        let scan_work = scan.work + scan.rows * expr_weight(pred);
        // Candidates the probe returns: rows matching the covered
        // conjuncts alone (the full predicate is re-checked afterwards).
        let sel_idx = self.selectivity(&isel.covered, &[&input], &outer);
        let candidates = scan.rows * sel_idx;
        // Fetch + emit per candidate, the full predicate re-check, and
        // the covered fraction of whatever page I/O a cold extent costs.
        let probe_work = INDEX_PROBE_WORK
            + candidates * (2.0 + expr_weight(pred))
            + self.cold_page_io(table) * sel_idx;
        Some((isel, probe_work, scan_work))
    }

    /// Work of the index nested-loop path of a join: `Some` when `right`
    /// is a bare scan of a table carrying an index on one of the
    /// equi-key columns. The inner subtree's own work (scan + build) is
    /// *not* included — the path never runs it.
    fn index_join_work(
        &self,
        left_rows: f64,
        matches: f64,
        right: &Plan,
        right_keys: &[ScalarExpr],
    ) -> Option<f64> {
        let Plan::ScanTable { table, .. } = right else {
            return None;
        };
        right_keys.iter().find(|rk| {
            Self::as_column(rk).is_some_and(|(_, c)| self.catalog.index_on(table, c).is_some())
        })?;
        let r_rows = self
            .catalog
            .stats(table)
            .map(|s| s.cardinality as f64)
            .unwrap_or(UNKNOWN_TABLE_ROWS);
        let frac = if r_rows > 0.0 {
            (matches / r_rows).min(1.0)
        } else {
            0.0
        };
        Some(join_cost::index_nl(left_rows, matches) + self.cold_page_io(table) * frac)
    }

    /// Planner hook: should this join probe an index instead of scanning
    /// and building its inner operand? `Some(key_index)` — an index into
    /// the split's key vectors — when `right` is a bare scan of an
    /// indexed table and the modeled probe work beats the inner scan
    /// plus the best scan-based algorithm.
    pub fn index_join_beats(
        &self,
        left: &Plan,
        right: &Plan,
        split: &crate::planner::EquiSplit,
    ) -> Option<usize> {
        let Plan::ScanTable { table, .. } = right else {
            return None;
        };
        let key_idx = split.right_keys.iter().position(|rk| {
            Self::as_column(rk).is_some_and(|(_, c)| self.catalog.index_on(table, c).is_some())
        })?;
        let outer = Scope::new();
        let l = self.node(left, &outer);
        let r = self.node(right, &outer);
        let mut sel = 1.0f64;
        for (lk, rk) in split.left_keys.iter().zip(&split.right_keys) {
            sel *= self.equi_pair_selectivity(lk, rk, left, right, &outer);
        }
        if let Some(res) = &split.residual {
            sel *= self.selectivity(res, &[left, right], &outer);
        }
        let matches = l.rows * r.rows * sel.clamp(MIN_SELECTIVITY, 1.0);
        let index_work = self.index_join_work(l.rows, matches, right, &split.right_keys)?;
        let scan_algo = join_cost::hash(l.rows, r.rows).min(join_cost::sort_merge(l.rows, r.rows));
        (index_work < r.work + scan_algo).then_some(key_idx)
    }

    fn join_node(&self, plan: &Plan, outer: &Scope) -> CostEstimate {
        let (left, right, pred) = match plan {
            Plan::Join { left, right, pred }
            | Plan::SemiJoin { left, right, pred }
            | Plan::AntiJoin { left, right, pred }
            | Plan::LeftOuterJoin { left, right, pred }
            | Plan::NestJoin {
                left, right, pred, ..
            } => (left, right, pred),
            _ => unreachable!("join_node called on a non-join"),
        };
        let l = self.node(left, outer);
        let r = self.node(right, outer);
        let lv: BTreeSet<String> = left.output_vars().into_iter().collect();
        let rv: BTreeSet<String> = right.output_vars().into_iter().collect();
        let split = extract_equi_keys(pred, &lv, &rv);
        let mut sel = 1.0f64;
        for (lk, rk) in split.left_keys.iter().zip(&split.right_keys) {
            sel *= self.equi_pair_selectivity(lk, rk, left, right, outer);
        }
        if let Some(residual) = &split.residual {
            sel *= self.selectivity(residual, &[left, right], outer);
        }
        let sel = sel.clamp(MIN_SELECTIVITY, 1.0);
        let matches = l.rows * r.rows * sel;
        // Expected matches per left row → P(left row has ≥ 1 match).
        let match_frac = (r.rows * sel).min(1.0);
        let rows = match plan {
            Plan::Join { .. } => matches,
            Plan::SemiJoin { .. } => l.rows * match_frac,
            Plan::AntiJoin { .. } => l.rows * (1.0 - match_frac),
            Plan::LeftOuterJoin { .. } => matches.max(l.rows),
            Plan::NestJoin { .. } => l.rows,
            _ => unreachable!(),
        };
        // Per-match output/collection work (the nest join inserts each
        // match into a per-row set; flat joins emit rows).
        let emit = match plan {
            Plan::SemiJoin { .. } | Plan::AntiJoin { .. } => rows,
            _ => matches.max(rows),
        };
        let (algo_work, own_resident) = if split.left_keys.is_empty() {
            // No equi keys: nested loop, right side materialized (the NL
            // join does not spill, so no grace charge here — the resident
            // penalty reports the pressure honestly).
            (join_cost::nested_loop(l.rows, r.rows), r.rows)
        } else {
            // Hash join. Inner joins build on the smaller side (the
            // planner swaps); every left-preserving kind builds on the
            // right and probes with the left.
            let (probe, build) = if matches!(plan, Plan::Join { .. }) {
                (l.rows.max(r.rows), l.rows.min(r.rows))
            } else {
                (l.rows, r.rows)
            };
            let (res, build_spill) = self.breaker_state(build);
            // Grace hash writes and re-reads *both* sides once the build
            // overflows — charge the probe side's round-trip too.
            let spill = if build_spill > 0.0 {
                build_spill + SPILL_IO_PER_ROW * probe
            } else {
                0.0
            };
            // Grace partitions join partition-per-worker; the in-memory
            // build/probe pipeline is serial (the partitioning I/O is
            // serial either way).
            let hash_work = if spill > 0.0 {
                self.parallel_work(join_cost::hash(probe, build), probe + build)
            } else {
                join_cost::hash(probe, build)
            };
            (hash_work + spill, res)
        };
        // Index nested-loop alternative: a bare indexed inner scan is
        // probed per outer row — the inner subtree's scan work and the
        // build-side state both disappear. Priced against the scan-based
        // path with the same resident weighting the planner's total uses.
        let mut path_work = r.work + algo_work;
        let mut path_resident = own_resident;
        if let Some(iw) = self.index_join_work(l.rows, matches, right, &split.right_keys) {
            if iw < path_work + RESIDENT_WEIGHT * path_resident {
                path_work = iw;
                path_resident = 0.0;
            }
        }
        CostEstimate {
            rows,
            work: l.work + path_work + emit,
            resident: l.resident + r.resident + path_resident,
        }
    }
}

/// Per-row evaluation weight of a scalar expression: its node count in
/// [`EXPR_NODES_PER_WORK_UNIT`]-sized units, floored at one work unit. A
/// one-comparison predicate costs 1; the compound matched/dangling
/// predicates the relational rewrites produce cost proportionally more —
/// which is real interpreter time the optimizer must not ignore.
fn expr_weight(e: &ScalarExpr) -> f64 {
    (expr_nodes(e) as f64 / EXPR_NODES_PER_WORK_UNIT).max(1.0)
}

fn expr_nodes(e: &ScalarExpr) -> usize {
    use ScalarExpr as E;
    1 + match e {
        E::Lit(_) | E::Var(_) => 0,
        E::Field(a, _) | E::Not(a) | E::Agg(_, a) | E::Unnest(a) | E::IsNull(a) => expr_nodes(a),
        E::Cmp(_, a, b)
        | E::Arith(_, a, b)
        | E::And(a, b)
        | E::Or(a, b)
        | E::SetBin(_, a, b)
        | E::SetCmp(_, a, b) => expr_nodes(a) + expr_nodes(b),
        E::Tuple(fs) => fs.iter().map(|(_, x)| expr_nodes(x)).sum(),
        E::SetLit(xs) => xs.iter().map(expr_nodes).sum(),
        E::Quant { over, pred, .. } => expr_nodes(over) + expr_nodes(pred),
    }
}

/// Record the `ScanTable` bindings of a subtree into a correlation scope
/// (outer variables visible to an `Apply` subquery).
fn bind_scans(plan: &Plan, scope: &mut Scope) {
    if let Plan::ScanTable { table, var } = plan {
        scope.insert(var.clone(), table.clone());
    }
    for c in plan.children() {
        bind_scans(c, scope);
    }
}

/// Reconstruct the logical plan a physical plan implements (join algorithm
/// and build-side choices erased). Used to estimate rows per *physical*
/// operator — after lowering may have swapped an inner hash join's sides —
/// in the exact tree shape the executor profiles.
pub fn logical_view(phys: &PhysPlan) -> Plan {
    match phys {
        PhysPlan::ScanTable { table, var } => Plan::ScanTable {
            table: table.clone(),
            var: var.clone(),
        },
        PhysPlan::IndexScan {
            table, var, pred, ..
        } => Plan::Select {
            input: Box::new(Plan::ScanTable {
                table: table.clone(),
                var: var.clone(),
            }),
            pred: pred.clone(),
        },
        PhysPlan::IndexNLJoin {
            left,
            right_table,
            right_var,
            pred,
            kind,
            ..
        } => rebuild_join(
            logical_view(left),
            Plan::ScanTable {
                table: right_table.clone(),
                var: right_var.clone(),
            },
            pred.clone(),
            kind,
        ),
        PhysPlan::ScanExpr { expr, var } => Plan::ScanExpr {
            expr: expr.clone(),
            var: var.clone(),
        },
        PhysPlan::Filter { input, pred } => Plan::Select {
            input: Box::new(logical_view(input)),
            pred: pred.clone(),
        },
        PhysPlan::Map { input, expr, var } => Plan::Map {
            input: Box::new(logical_view(input)),
            expr: expr.clone(),
            var: var.clone(),
        },
        PhysPlan::Extend { input, expr, var } => Plan::Extend {
            input: Box::new(logical_view(input)),
            expr: expr.clone(),
            var: var.clone(),
        },
        PhysPlan::Project { input, vars } => Plan::Project {
            input: Box::new(logical_view(input)),
            vars: vars.clone(),
        },
        PhysPlan::NlJoin {
            left,
            right,
            pred,
            kind,
        } => rebuild_join(logical_view(left), logical_view(right), pred.clone(), kind),
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        }
        | PhysPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => {
            let mut conjs: Vec<ScalarExpr> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(lk, rk)| ScalarExpr::eq(lk.clone(), rk.clone()))
                .collect();
            conjs.extend(residual.iter().cloned());
            rebuild_join(
                logical_view(left),
                logical_view(right),
                ScalarExpr::conj(conjs),
                kind,
            )
        }
        PhysPlan::Nest {
            input,
            keys,
            value,
            label,
            star,
        } => Plan::Nest {
            input: Box::new(logical_view(input)),
            keys: keys.clone(),
            value: value.clone(),
            label: label.clone(),
            star: *star,
        },
        PhysPlan::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => Plan::Unnest {
            input: Box::new(logical_view(input)),
            expr: expr.clone(),
            elem_var: elem_var.clone(),
            drop_vars: drop_vars.clone(),
        },
        PhysPlan::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => Plan::GroupAgg {
            input: Box::new(logical_view(input)),
            keys: keys.clone(),
            aggs: aggs.clone(),
            var: var.clone(),
        },
        PhysPlan::Apply {
            input,
            subquery,
            label,
            bindings: _,
        } => Plan::Apply {
            input: Box::new(logical_view(input)),
            subquery: Box::new(logical_view(subquery)),
            label: label.clone(),
        },
        // Materialize is a pure replay buffer: logically transparent.
        PhysPlan::Materialize { input } => logical_view(input),
        // A transient hash probe implements select-over-scan exactly.
        PhysPlan::HashProbe {
            table, var, pred, ..
        } => Plan::Select {
            input: Box::new(Plan::ScanTable {
                table: table.clone(),
                var: var.clone(),
            }),
            pred: pred.clone(),
        },
        PhysPlan::SetOp {
            kind,
            left,
            right,
            var,
        } => Plan::SetOp {
            kind: *kind,
            left: Box::new(logical_view(left)),
            right: Box::new(logical_view(right)),
            var: var.clone(),
        },
    }
}

fn rebuild_join(left: Plan, right: Plan, pred: ScalarExpr, kind: &JoinKind) -> Plan {
    let l = Box::new(left);
    let r = Box::new(right);
    match kind {
        JoinKind::Inner => Plan::Join {
            left: l,
            right: r,
            pred,
        },
        JoinKind::Semi => Plan::SemiJoin {
            left: l,
            right: r,
            pred,
        },
        JoinKind::Anti => Plan::AntiJoin {
            left: l,
            right: r,
            pred,
        },
        JoinKind::LeftOuter { .. } => Plan::LeftOuterJoin {
            left: l,
            right: r,
            pred,
        },
        JoinKind::Nest { func, label } => Plan::NestJoin {
            left: l,
            right: r,
            pred,
            func: func.clone(),
            label: label.clone(),
        },
    }
}

/// Render a physical plan with per-operator estimated rows — the
/// `EXPLAIN` view of the cost model's predictions before execution.
pub fn explain_with_estimates(phys: &PhysPlan, catalog: &Catalog) -> String {
    fn go(p: &PhysPlan, est: &Estimator<'_>, depth: usize, out: &mut String) {
        let rows = est.rows(&logical_view(p));
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [est_rows={}]\n",
            p.op_label(),
            format_rows(rows)
        ));
        for c in p.children() {
            go(c, est, depth + 1, out);
        }
    }
    let est = Estimator::new(catalog);
    let mut s = String::new();
    go(phys, &est, 0, &mut s);
    s
}

/// Compact row-estimate formatting (integers below 10k, then 1 decimal).
pub fn format_rows(rows: f64) -> String {
    if rows < 10_000.0 {
        format!("{}", rows.round() as i64)
    } else {
        format!("{rows:.3e}")
    }
}

/// Estimated output cardinality of a logical plan (statistics-backed;
/// convenience wrapper over [`Estimator`]).
pub fn estimate_rows(plan: &Plan, catalog: &Catalog) -> f64 {
    Estimator::new(catalog).rows(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;
    use tmql_storage::table::int_table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        cat.register(int_table("SMALL", &["a", "b"], &[&[1, 1]]))
            .unwrap();
        cat
    }

    #[test]
    fn scan_estimates_use_stats() {
        let cat = catalog();
        assert_eq!(estimate_rows(&Plan::scan("BIG", "x"), &cat), 100.0);
        assert_eq!(estimate_rows(&Plan::scan("SMALL", "x"), &cat), 1.0);
        // Unknown table: fallback, not a panic.
        assert_eq!(
            estimate_rows(&Plan::scan("NOPE", "x"), &cat),
            UNKNOWN_TABLE_ROWS
        );
    }

    #[test]
    fn nest_join_preserves_left_cardinality() {
        let cat = catalog();
        let nj = Plan::scan("BIG", "x").nest_join(
            Plan::scan("BIG", "y"),
            E::lit(true),
            E::var("y"),
            "ys",
        );
        assert_eq!(estimate_rows(&nj, &cat), 100.0);
    }

    #[test]
    fn join_cost_ranking_large_inputs() {
        // At scale, hash < sort-merge < nested-loop.
        let (l, r) = (10_000.0, 10_000.0);
        assert!(join_cost::hash(l, r) < join_cost::sort_merge(l, r));
        assert!(join_cost::sort_merge(l, r) < join_cost::nested_loop(l, r));
    }

    #[test]
    fn histogram_select_estimates_beat_magic_constants() {
        let cat = catalog();
        // x.a < 25 on uniform 0..100 → about a quarter of the rows.
        let p =
            Plan::scan("BIG", "x").select(E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(25i64)));
        let rows = estimate_rows(&p, &cat);
        assert!((rows - 25.0).abs() < 8.0, "{rows}");
        // Equality on a 10-distinct column → a tenth.
        let p = Plan::scan("BIG", "x").select(E::eq(E::path("x", &["b"]), E::lit(3i64)));
        let rows = estimate_rows(&p, &cat);
        assert!((rows - 10.0).abs() < 1.0, "{rows}");
        // A tautology does not shrink the estimate.
        let p = Plan::scan("BIG", "x").select(E::lit(true));
        assert_eq!(estimate_rows(&p, &cat), 100.0);
        // Strict vs inclusive differ by one distinct value's mass:
        // a > 99 keeps (essentially) nothing, a ≥ 99 keeps ≈ one row.
        let gt =
            Plan::scan("BIG", "x").select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(99i64)));
        assert!(
            estimate_rows(&gt, &cat) < 1.0,
            "{}",
            estimate_rows(&gt, &cat)
        );
        let ge =
            Plan::scan("BIG", "x").select(E::cmp(CmpOp::Ge, E::path("x", &["a"]), E::lit(99i64)));
        let ge_rows = estimate_rows(&ge, &cat);
        assert!((ge_rows - 1.0).abs() < 1.0, "{ge_rows}");
    }

    #[test]
    fn equi_join_uses_distinct_counts() {
        let cat = catalog();
        // BIG ⋈ BIG on b (NDV 10): 100·100/10 = 1000.
        let j = Plan::scan("BIG", "x").join(
            Plan::scan("BIG", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let rows = estimate_rows(&j, &cat);
        assert!((rows - 1000.0).abs() < 1.0, "{rows}");
    }

    #[test]
    fn semi_and_anti_join_partition_left() {
        let cat = catalog();
        let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let semi = Plan::scan("BIG", "x").semi_join(Plan::scan("BIG", "y"), pred.clone());
        let anti = Plan::scan("BIG", "x").anti_join(Plan::scan("BIG", "y"), pred);
        let s = estimate_rows(&semi, &cat);
        let a = estimate_rows(&anti, &cat);
        assert!((s + a - 100.0).abs() < 1.0, "semi {s} + anti {a} ≈ |L|");
        assert!(s > a, "every b value has matches here");
    }

    #[test]
    fn setop_estimates_fixed() {
        let cat = catalog();
        let mk = |kind| Plan::SetOp {
            kind,
            left: Box::new(Plan::scan("BIG", "x")),
            right: Box::new(Plan::scan("SMALL", "y")),
            var: "v".into(),
        };
        use tmql_algebra::SetOpKind::*;
        assert_eq!(estimate_rows(&mk(Union), &cat), 101.0);
        assert_eq!(
            estimate_rows(&mk(Intersect), &cat),
            1.0,
            "∩ bounded by the smaller side"
        );
        assert_eq!(
            estimate_rows(&mk(Except), &cat),
            100.0,
            "\\ bounded by the left side"
        );
    }

    #[test]
    fn scan_expr_fanout_uses_column_stats() {
        use tmql_model::{Record, Ty, Value};
        let mut cat = Catalog::new();
        let mut t = tmql_storage::Table::new(
            "D",
            vec![
                ("emps".into(), Ty::Set(Box::new(Ty::Int))),
                ("k".into(), Ty::Int),
            ],
        );
        for i in 0..4i64 {
            t.insert(
                Record::new([
                    (
                        "emps".to_string(),
                        Value::set((0..3).map(|j| Value::Int(i * 10 + j))),
                    ),
                    ("k".to_string(), Value::Int(i)),
                ])
                .unwrap(),
            )
            .unwrap();
        }
        cat.register(t).unwrap();
        let est = Estimator::new(&cat);
        // FROM d.emps e under an Apply over D: fan-out 3, not the default.
        let apply = Plan::scan("D", "d").apply(
            Plan::ScanExpr {
                expr: E::path("d", &["emps"]),
                var: "e".into(),
            }
            .map(E::var("e"), "s"),
            "z",
        );
        let Plan::Apply { subquery, .. } = &apply else {
            unreachable!()
        };
        let Plan::Map { input, .. } = &**subquery else {
            unreachable!()
        };
        // Direct estimate of the correlated scan, resolved via the Apply.
        let cost = est.cost(&apply);
        assert!(cost.rows == 4.0);
        // The subquery's ScanExpr alone (no scope) falls back to default.
        assert_eq!(est.rows(input), DEFAULT_SET_FANOUT);
        // Fan-out stat is visible through the whole-plan work estimate:
        // 4 invocations × (≈3 scanned + ≈3 mapped + overhead) ≪ default 16.
        assert!(cost.work < 4.0 * (2.0 * DEFAULT_SET_FANOUT + APPLY_OVERHEAD) + 4.0);
    }

    #[test]
    fn budget_charges_spill_io_and_caps_resident() {
        let cat = catalog();
        // BIG ⋈ BIG on b: the 100-row build side overflows a 10-row budget.
        let j = Plan::scan("BIG", "x").join(
            Plan::scan("BIG", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let free = Estimator::new(&cat).cost(&j);
        let tight = Estimator::with_budget(&cat, Some(10)).cost(&j);
        assert_eq!(
            free.rows, tight.rows,
            "cardinalities are budget-independent"
        );
        assert!(
            tight.work > free.work + SPILL_IO_PER_ROW * 100.0,
            "grace hash charges both sides' spill round-trips: {} vs {}",
            tight.work,
            free.work
        );
        assert!(
            tight.resident < free.resident,
            "resident share is capped at the budget: {} vs {}",
            tight.resident,
            free.resident
        );
        // A budget nothing exceeds changes nothing.
        let loose = Estimator::with_budget(&cat, Some(100_000)).cost(&j);
        assert_eq!(loose.work, free.work);
        assert_eq!(loose.resident, free.resident);
        // And None behaves exactly like `new`.
        let none = Estimator::with_budget(&cat, None).cost(&j);
        assert_eq!(none.work, free.work);
    }

    #[test]
    fn parallel_fragments_divide_work_but_not_resident() {
        let cat = catalog();
        let scan = Plan::scan("BIG", "x");
        let serial = Estimator::new(&cat).cost(&scan);
        let par4 = Estimator::new(&cat).with_threads(4).cost(&scan);
        // threads=1 is the identity.
        assert_eq!(Estimator::new(&cat).with_threads(1).cost(&scan), serial);
        assert_eq!(par4.rows, serial.rows, "cardinalities are thread-free");
        assert!(par4.work < serial.work, "scan work divides across workers");
        assert!(
            par4.work > serial.work / 4.0,
            "the exchange charge keeps speedup sub-linear: {} vs {}",
            par4.work,
            serial.work
        );
        // A spilled hash join parallelizes its partition work but not its
        // spill I/O; resident state (summed across wave partitions) is
        // unchanged by threads.
        let j = Plan::scan("BIG", "x").join(
            Plan::scan("BIG", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let tight = Estimator::with_budget(&cat, Some(10)).cost(&j);
        let tight4 = Estimator::with_budget(&cat, Some(10))
            .with_threads(4)
            .cost(&j);
        assert!(tight4.work < tight.work);
        assert_eq!(tight4.resident, tight.resident);
        assert!(
            tight4.work > tight.work / 4.0,
            "serial spill I/O bounds the modeled speedup"
        );
    }

    #[test]
    fn apply_work_scales_with_distinct_bindings() {
        let cat = catalog();
        // Correlated on x.b (NDV 10): the memoized Apply drains its inner
        // plan 10 times, not 100.
        let sub_b = Plan::scan("BIG", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["a"]), "s");
        let apply_b = Plan::scan("BIG", "x").apply(sub_b, "z");
        // Correlated on x.a (NDV 100): every binding is distinct — the
        // cache never hits and the price approaches per-row execution.
        let sub_a = Plan::scan("BIG", "y")
            .select(E::eq(E::path("x", &["a"]), E::path("y", &["a"])))
            .map(E::path("y", &["a"]), "s");
        let apply_a = Plan::scan("BIG", "x").apply(sub_a, "z");
        let est = Estimator::new(&cat);
        let cost_b = est.cost(&apply_b);
        let cost_a = est.cost(&apply_a);
        assert!(
            cost_a.work > 5.0 * cost_b.work,
            "100 distinct bindings {} vs 10 {}",
            cost_a.work,
            cost_b.work
        );
        // Even memoized, the Apply still prices above the equivalent nest
        // join, which matches once instead of scanning per binding.
        let nj = Plan::scan("BIG", "x").nest_join(
            Plan::scan("BIG", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["a"]),
            "z",
        );
        let nj_cost = est.cost(&nj);
        assert!(
            cost_b.total() > nj_cost.total(),
            "apply {} vs nest join {}",
            cost_b.total(),
            nj_cost.total()
        );
    }

    #[test]
    fn invariant_apply_prices_one_execution() {
        let cat = catalog();
        // Uncorrelated subquery: empty bindings → one modeled execution,
        // so the Apply's work is far below outer_rows × inner scans.
        let sub = Plan::scan("BIG", "y").map(E::path("y", &["a"]), "s");
        let apply = Plan::scan("BIG", "x").apply(sub, "z");
        let cost = Estimator::new(&cat).cost(&apply);
        // outer scan (100) + one inner drain (~200) + 100 cache probes.
        assert!(cost.work < 1000.0, "{}", cost.work);
    }

    #[test]
    fn transient_hash_amortizes_with_repetition() {
        let cat = catalog();
        let est = Estimator::new(&cat);
        let pred = E::eq(E::path("y", &["b"]), E::path("x", &["b"]));
        // Selective probes: the marginal per-repetition cost of the hash
        // path (probe + candidate rechecks) is far below a full scan, so
        // repetition amortizes the one-time build.
        let (probe1, scan1) = est.transient_hash_paths("BIG", "y", &pred, &pred, 1.0);
        let (probe10, scan10) = est.transient_hash_paths("BIG", "y", &pred, &pred, 10.0);
        assert!(probe10 < scan10, "probe {probe10} vs scan {scan10}");
        assert!(
            probe10 - probe1 < (scan10 - scan1) / 2.0,
            "marginal probe {} vs marginal scan {}",
            probe10 - probe1,
            scan10 - scan1
        );
        // An unselective component returns every row as a candidate: the
        // probe path re-checks them all and never beats the scan.
        let all = E::lit(true);
        let (probe_all, scan_all) = est.transient_hash_paths("BIG", "y", &pred, &all, 10.0);
        assert!(probe_all > scan_all, "probe {probe_all} vs scan {scan_all}");
    }

    #[test]
    fn exec_order_skips_apply_subquery() {
        let cat = catalog();
        let sub = Plan::scan("BIG", "y").map(E::path("y", &["a"]), "s");
        let apply = Plan::scan("BIG", "x").apply(sub, "z");
        let est = Estimator::new(&cat);
        // Apply + its outer scan only — the subquery tree is per-row.
        assert_eq!(est.exec_order_rows(&apply).len(), 2);
        // Full pre-order would be 4 nodes.
        assert_eq!(apply.size(), 4);
    }

    #[test]
    fn logical_view_round_trips_lowering() {
        let cat = catalog();
        let plan = Plan::scan("BIG", "x")
            .join(
                Plan::scan("SMALL", "y"),
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            )
            .select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(10i64)));
        let phys = crate::planner::lower(&plan, &cat, &crate::ExecConfig::auto()).unwrap();
        let view = logical_view(&phys);
        // Same shape: one select, one join, two scans.
        assert_eq!(view.size(), plan.size());
        assert!(view.any_node(&mut |n| matches!(n, Plan::Join { .. })));
        let s = explain_with_estimates(&phys, &cat);
        assert!(s.contains("est_rows="), "{s}");
    }
}
