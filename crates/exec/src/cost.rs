//! The cardinality and cost model over table statistics, as one walk.
//!
//! This module turns `tmql-storage` statistics (cardinalities, distinct
//! counts, equi-width histograms, set-valued fan-outs) into per-plan
//! estimates the decision layers consume:
//!
//! * the **logical optimizer** (`tmql-core`) ranks rewritten candidate
//!   plans per query block under `UnnestStrategy::CostBased`
//!   ([`Estimator::cost`]);
//! * the **physical planner** ([`crate::planner`]) drives the same walk
//!   while it lowers, so every choice it makes — scan vs index probe, join
//!   algorithm and build side, index nested-loop vs scan-based join — is
//!   the choice the model priced;
//! * the **facade** annotates `EXPLAIN` output with estimated rows and the
//!   executed profile with estimated-vs-actual rows
//!   ([`Estimator::exec_order_rows_phys`], [`explain_with_estimates`]),
//!   making q-error visible.
//!
//! # Shape
//!
//! There is **one formula per operator** (`Estimator::estimate` over a
//! `Node`; `Walk::scan` for stored tables): it takes the estimates of the
//! operator's children and a `Scope` and returns the operator's own
//! [`CostEstimate`]. Three thin recursions feed the formulas, each
//! visiting every node once: `Walk::plan` over a logical [`Plan`],
//! `Walk::phys` over a lowered [`PhysPlan`], and the planner's lowering
//! recursion, which asks the same walk for each subtree's estimate while
//! it builds the physical tree. Each has one join arm: the join formula
//! reads the plan's [`JoinKind`], and a physical join is priced by its own
//! [`JoinPath`].
//!
//! The **scope** is how a formula resolves `var.col` to column
//! statistics. A walk appends every `ScanTable` it passes to one list in
//! depth-first order, so the scans below any node are a contiguous span
//! of that list; a name is looked up in the span below the node first
//! (first binding wins), then in the inputs of the enclosing `Apply`
//! operators, innermost first — a correlated subquery sees the scans of
//! the plan it is applied to.
//!
//! The model is deliberately classical (System-R lineage): per-operator
//! output cardinalities from selectivities, abstract `work` units that
//! mirror the executor's counters (rows scanned, predicate evaluations,
//! hash build/probe traffic, subquery invocations), and a `resident`
//! component that mirrors the streaming executor's pipeline-breaker model
//! from the `peak_resident_rows` gauge — breakers (hash build sides, sort
//! buffers, grouping state, dedup sets) hold rows, pipelined operators do
//! not.

use tmql_algebra::{CmpOp, JoinKind, Plan, ScalarExpr, SetOpKind};
use tmql_model::Value;
use tmql_storage::stats::{ColumnStats, TableStats};
use tmql_storage::Catalog;

use crate::config::JoinAlgo;
use crate::physical::{JoinPath, PhysPlan};
use crate::planner::{apply_bindings, extract_equi_keys, index_selection, IndexSel, KeySplit};

/// Default selectivity of an opaque predicate.
pub(crate) const DEFAULT_SELECTIVITY: f64 = 0.25;
/// Default selectivity of an equi-join conjunct when no stats are known.
pub(crate) const DEFAULT_EQ_SELECTIVITY: f64 = 0.01;
/// Default fan-out of a set-valued expression (`ScanExpr`, `Unnest`) when
/// no per-column average set-cardinality statistic is available — e.g. the
/// set is a subquery label or a constructed value. When the expression is
/// a stored column, [`TableStats::avg_set_card`] is used instead.
pub(crate) const DEFAULT_SET_FANOUT: f64 = 16.0;
/// Assumed cardinality of a table with no recorded statistics.
pub(crate) const UNKNOWN_TABLE_ROWS: f64 = 1000.0;
/// Grouping collapse factor when group-key distinct counts are unknown.
pub(crate) const GROUP_COLLAPSE: f64 = 0.1;
/// Abstract per-invocation overhead of a correlated `Apply` (operator
/// re-open + environment rebind), on top of the subquery's own work.
/// Charged once per *distinct* correlation binding — the executor
/// memoizes completed inner results per binding, so duplicate bindings
/// cost a cache probe, not an execution.
pub(crate) const APPLY_OVERHEAD: f64 = 4.0;
/// Abstract work units charged per outer row of an `Apply` for
/// evaluating the binding key and probing the result cache — mirrors
/// [`crate::Metrics::apply_cache_hits`] entering `total_work`.
pub(crate) const CACHE_PROBE_WORK: f64 = 1.0;
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
/// expensive than an emitted one. Traced spill write + read per `X` row:
/// 434 ns, 292 (53 + 239) since runs share one scratch file — 3–4 units.
pub(crate) const SPILL_IO_PER_ROW: f64 = 4.0;
/// Abstract work units charged per data page a scan must fault in from
/// disk (seek + read + slot decode for a whole 8 KiB page). Applied to
/// the pages of a disk-backed table that are **not** currently resident
/// in the buffer pool, so a cold scan costs more than the same scan warm
/// — mirroring [`crate::Metrics::pool_misses`] entering `total_work`.
pub(crate) const PAGE_IO_WORK: f64 = 16.0;
/// Abstract work units charged per secondary-index probe (an ordered-map
/// descent plus cursor setup). The probe path additionally pays for every
/// candidate row it fetches and re-checks, so the modeled crossover
/// against a full scan sits where the candidate traffic stops being small
/// — mirroring [`crate::Metrics::index_probes`] / `index_hits` entering
/// `total_work`.
pub(crate) const INDEX_PROBE_WORK: f64 = 4.0;
/// Weight of the `resident` component in [`CostEstimate::total`]: a mild
/// memory-pressure penalty so that, costs being close, the plan with the
/// smaller pipeline-breaker footprint wins.
const RESIDENT_WEIGHT: f64 = 0.25;

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
pub(crate) mod join_cost {
    /// Nested loop: |L|·|R| comparisons.
    pub fn nested_loop(l: f64, r: f64) -> f64 {
        l * r
    }

    /// Hash: build |R| + probe |L| (assuming few collisions).
    pub fn hash(l: f64, r: f64) -> f64 {
        r * 1.5 + l
    }

    /// Index nested loop: one probe per outer row plus a fetch + full
    /// predicate re-check per candidate the probes return. The inner
    /// operand is never scanned or built — that saving is accounted by
    /// the caller dropping the inner subtree's work.
    pub(crate) fn index_nl(l: f64, matches: f64) -> f64 {
        l * super::INDEX_PROBE_WORK + 2.0 * matches
    }
}

/// One `ScanTable` a walk has passed: its iteration variable and its
/// table's statistics (scans of tables without statistics bind nothing).
type Binding<'s, 'a> = (&'s str, &'a TableStats);

/// A half-open span `[start, end)` of a walk's binding list.
type Span = (usize, usize);

/// Where a formula resolves `var.col`: the scans `below` the node being
/// estimated — a span of the walk's depth-first binding list — and then
/// the inputs of the enclosing `Apply` operators, innermost (last) first.
/// Within a span the first binding of a name wins.
#[derive(Clone, Copy)]
pub(crate) struct Scope<'s, 'a> {
    scans: &'s [Binding<'s, 'a>],
    below: Span,
    outer: &'s [Span],
}

impl<'s, 'a> Scope<'s, 'a> {
    /// Table statistics for the iteration variable `var`.
    fn table_of(&self, var: &str) -> Option<&'a TableStats> {
        std::iter::once(&self.below)
            .chain(self.outer.iter().rev())
            .find_map(|&(lo, hi)| self.scans[lo..hi].iter().find(|(v, _)| *v == var))
            .map(|&(_, stats)| stats)
    }

    /// Column statistics for `var.col`.
    fn col_of(&self, var: &str, col: &str) -> Option<&'a ColumnStats> {
        self.table_of(var).and_then(|t| t.column(col))
    }

    /// Distinct values of `e` when it is a column with statistics.
    fn ndv(&self, e: &ScalarExpr) -> Option<f64> {
        let (var, col) = as_column(e)?;
        Some(self.col_of(var, col)?.distinct.max(1) as f64)
    }

    /// Distinct values of a projected or binding expression: a column's
    /// NDV, or its table's cardinality for a whole-row variable.
    fn distinct_values(&self, e: &ScalarExpr) -> Option<f64> {
        match e {
            ScalarExpr::Var(v) => self.table_of(v).map(|t| t.cardinality.max(1) as f64),
            _ => self.ndv(e),
        }
    }

    /// Fan-out of a set-valued expression: the per-column average
    /// set-cardinality when the expression is a stored column,
    /// [`DEFAULT_SET_FANOUT`] otherwise.
    fn fanout(&self, expr: &ScalarExpr) -> f64 {
        if let Some((var, col)) = as_column(expr) {
            if let Some(f) = self.table_of(var).and_then(|t| t.avg_set_card(col)) {
                return f.max(0.0);
            }
        }
        if let ScalarExpr::SetLit(items) = expr {
            return items.len() as f64;
        }
        DEFAULT_SET_FANOUT
    }

    /// Selectivity of a predicate. Conjuncts multiply, clamped to
    /// `[MIN_SELECTIVITY, 1]`.
    fn selectivity(&self, pred: &ScalarExpr) -> f64 {
        self.conjunct_selectivity(pred).clamp(MIN_SELECTIVITY, 1.0)
    }

    fn conjunct_selectivity(&self, e: &ScalarExpr) -> f64 {
        match e {
            ScalarExpr::Lit(Value::Bool(true)) => 1.0,
            ScalarExpr::Lit(Value::Bool(false)) => MIN_SELECTIVITY,
            ScalarExpr::And(a, b) => self.conjunct_selectivity(a) * self.conjunct_selectivity(b),
            ScalarExpr::Or(a, b) => {
                let sa = self.conjunct_selectivity(a);
                let sb = self.conjunct_selectivity(b);
                (sa + sb - sa * sb).min(1.0)
            }
            ScalarExpr::Not(inner) => (1.0 - self.conjunct_selectivity(inner)).max(MIN_SELECTIVITY),
            ScalarExpr::Cmp(op, a, b) => self.cmp_selectivity(*op, a, b),
            ScalarExpr::IsNull(inner) => as_column(inner)
                .and_then(|(var, col)| self.col_of(var, col))
                .map_or(DEFAULT_SELECTIVITY, |c| {
                    c.null_fraction.max(MIN_SELECTIVITY)
                }),
            // Whole-set comparisons between blocks and everything else:
            // no per-element stats; assume the generic default.
            _ => DEFAULT_SELECTIVITY,
        }
    }

    fn cmp_selectivity(&self, op: CmpOp, a: &ScalarExpr, b: &ScalarExpr) -> f64 {
        // Orient as column-op-something when possible.
        let ((var, name), other, op) = match (as_column(a), as_column(b)) {
            (Some(col), _) => (col, b, op),
            (None, Some(col)) => (col, a, op.flip()),
            (None, None) => {
                return match op {
                    CmpOp::Eq => DEFAULT_EQ_SELECTIVITY,
                    CmpOp::Ne => 1.0 - DEFAULT_EQ_SELECTIVITY,
                    _ => DEFAULT_SELECTIVITY,
                }
            }
        };
        let cstats = self.col_of(var, name);
        // Histogram-based range selectivity for column-vs-literal; default
        // for column-vs-column ranges. `fraction_lt` is strict (P[x < v])
        // while `fraction_gt` is its complement (P[x ≥ v]), so the mass of
        // one distinct value moves the strict/inclusive variants apart.
        let range = |frac: fn(&ColumnStats, f64, f64) -> Option<f64>| {
            as_number(other)
                .zip(cstats)
                .and_then(|(v, c)| frac(c, v, c.fraction_eq().unwrap_or(0.0)))
                .map_or(DEFAULT_SELECTIVITY, |f| f.clamp(0.0, 1.0))
        };
        match op {
            // Column = column → 1/max(NDV); column = literal/expr → 1/NDV
            // of the column.
            CmpOp::Eq | CmpOp::Ne => {
                let ndv = cstats.map(|c| c.distinct.max(1) as f64);
                let eq = eq_selectivity(ndv, self.ndv(other));
                if op == CmpOp::Eq {
                    eq
                } else {
                    (1.0 - eq).max(MIN_SELECTIVITY)
                }
            }
            CmpOp::Lt => range(|c, v, _| c.fraction_lt(v)),
            CmpOp::Le => range(|c, v, eq| c.fraction_lt(v).map(|f| f + eq)),
            CmpOp::Ge => range(|c, v, _| c.fraction_gt(v)),
            CmpOp::Gt => range(|c, v, eq| c.fraction_gt(v).map(|f| f - eq)),
        }
    }
}

/// Selectivity of `a = b` from the two sides' distinct counts: 1/max NDV.
fn eq_selectivity(a: Option<f64>, b: Option<f64>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => 1.0 / x.max(y),
        (Some(x), None) | (None, Some(x)) => 1.0 / x,
        (None, None) => DEFAULT_EQ_SELECTIVITY,
    }
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

/// How a join reaches and matches its inner operand — the physical choice
/// [`Estimator::join_path`] makes and [`Estimator::path_cost`] prices,
/// borrowed from the logical plan; lowering builds the [`JoinPath`] it
/// names.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PathChoice<'p> {
    /// Probe the index on `table.attr` once per left row with the `key`-th
    /// left key of the predicate's split (`work`: modeled probe work); the
    /// inner operand, a bare scan binding `var`, is never run.
    IndexNl {
        table: &'p str,
        var: &'p str,
        attr: &'p str,
        key: usize,
        work: f64,
    },
    /// Buffer the inner operand, compare every pair.
    NestedLoop,
    /// Build a hash table on the right operand, probe with the left —
    /// after exchanging them when `swap`.
    Hash { swap: bool },
    /// Sort both operands and merge. Only reachable by forcing the
    /// algorithm ([`JoinAlgo::Auto`] always hashes), and priced as a hash
    /// join.
    SortMerge,
}

/// A join's operands as a walk saw them: their estimates, and where their
/// scans start (`from` the left operand's, `mid` the right one's).
#[derive(Clone, Copy)]
pub(crate) struct Sides {
    pub from: usize,
    pub l: CostEstimate,
    pub mid: usize,
    pub r: CostEstimate,
}

/// An operator as its formula sees it: what it computes, with its
/// children already estimated ([`Estimator::estimate`]). Stored-table
/// scans are not here — they extend the scope ([`Walk::scan`]).
pub(crate) enum Node<'e> {
    ScanExpr(&'e ScalarExpr),
    /// Input, predicate, and the probe work of a chosen index path.
    Select(CostEstimate, &'e ScalarExpr, Option<f64>),
    Map(CostEstimate, &'e ScalarExpr),
    Extend(CostEstimate),
    Project(CostEstimate),
    Nest(CostEstimate, &'e [String]),
    GroupAgg(CostEstimate, &'e [(String, ScalarExpr)]),
    Unnest(CostEstimate, &'e ScalarExpr),
    SetOp(SetOpKind, CostEstimate, CostEstimate),
    /// Input, subquery, and the distinct bindings the input presents.
    Apply(CostEstimate, CostEstimate, f64),
    /// Any member of the join family: the clamped selectivity of the
    /// whole predicate and the `(work, resident)` of reaching and matching
    /// the inner operand ([`Estimator::path_cost`]).
    Join(&'e JoinKind, &'e Sides, f64, (f64, f64)),
}

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
}

impl<'a> Estimator<'a> {
    /// An estimator over the catalog's statistics (no memory budget).
    pub fn new(catalog: &'a Catalog) -> Estimator<'a> {
        Estimator::with_budget(catalog, None)
    }

    /// An estimator that models spilling under the given breaker budget
    /// (`None` behaves exactly like [`Estimator::new`]).
    pub fn with_budget(catalog: &'a Catalog, budget: Option<usize>) -> Estimator<'a> {
        Estimator {
            catalog,
            budget: budget.map(|b| b as f64),
        }
    }

    /// Ignored: execution is serial; kept until the benchmark's mirror is
    /// deleted (ROADMAP "Unfence the benchmark" (c)).
    pub fn with_threads(self, _n: usize) -> Estimator<'a> {
        self
    }

    /// Estimated output cardinality of a logical plan.
    pub fn rows(&self, plan: &Plan) -> f64 {
        self.cost(plan).rows
    }

    /// Full cost estimate of a logical plan.
    pub fn cost(&self, plan: &Plan) -> CostEstimate {
        Walk::new(*self).plan(plan)
    }

    /// Row estimates of a physical plan (post join algorithm / build-side
    /// choice / index-path selection) in **executed-operator order**:
    /// pre-order, except that `Apply` descends only into its outer input —
    /// the subquery operator tree is instantiated per outer row and does
    /// not appear in the executed profile. One estimate per executed
    /// operator (a filtering scan or an `IndexScan` is one operator
    /// implementing select-over-scan, and a join with a fused selection
    /// one implementing select-over-join; an index join has no inner
    /// child), so the vector zips 1:1 with the streaming executor's
    /// profile.
    pub fn exec_order_rows_phys(&self, phys: &PhysPlan) -> Vec<f64> {
        Walk::trace(*self, false, phys)
    }

    // -- shared arithmetic ---------------------------------------------------

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

    /// A breaker over `input` (its rows feed the kernel) that holds
    /// `state` rows resident — spillable — and emits `rows`. The kernel
    /// runs once over the input rows, in memory or once per grace
    /// partition, plus the spill I/O.
    fn breaker(&self, input: CostEstimate, state: f64, rows: f64) -> CostEstimate {
        let (res, spill) = self.breaker_state(state);
        CostEstimate {
            rows,
            work: input.work + (input.rows + spill),
            resident: input.resident + res,
        }
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

    /// Selectivity of `pred` over a bare scan of `table` bound to `var`,
    /// correlation variables unresolved. Access paths are priced with it,
    /// so a probe's candidate count does not depend on where the
    /// selection sits.
    fn scan_selectivity(&self, table: &str, var: &str, pred: &ScalarExpr) -> f64 {
        let binding = self.catalog.stats(table).map(|stats| (var, stats));
        let scans = binding.as_slice();
        let scope = Scope {
            scans,
            below: (0, scans.len()),
            outer: &[],
        };
        scope.selectivity(pred)
    }

    // -- one formula per operator ------------------------------------------

    /// Full scan of a stored table.
    fn scan(&self, table: &str) -> CostEstimate {
        let rows = self
            .catalog
            .stats(table)
            .map(|s| s.cardinality as f64)
            .unwrap_or(UNKNOWN_TABLE_ROWS);
        // Disk-backed tables pay page I/O for whatever part of their
        // extent is cold in the buffer pool right now; a warm working set
        // scans at in-memory cost.
        CostEstimate {
            rows,
            work: rows + self.cold_page_io(table),
            resident: 0.0,
        }
    }

    /// The formula of every other operator, from its children's estimates.
    pub(crate) fn estimate(&self, op: Node<'_>, scope: Scope<'_, 'a>) -> CostEstimate {
        // Groups of ν / GROUP BY: bounded by `cap` when the keys resolve
        // to statistics, else a generic collapse.
        let grouped = |c: CostEstimate, cap: Option<f64>| {
            let rows = cap.map_or((c.rows * GROUP_COLLAPSE).max(1.0), |cap| c.rows.min(cap));
            self.breaker(c, c.rows, rows)
        };
        match op {
            // The set value is evaluated once and buffered.
            Node::ScanExpr(expr) => {
                let rows = scope.fanout(expr);
                CostEstimate {
                    rows,
                    work: rows,
                    resident: rows,
                }
            }
            // `probe_work` is the work of the index path when
            // `index_scan_choice` picked it over scan-and-filter.
            Node::Select(c, pred, probe_work) => CostEstimate {
                rows: c.rows * scope.selectivity(pred),
                work: probe_work.unwrap_or(c.work + c.rows * expr_weight(pred)),
                resident: c.resident,
            },
            // Map dedups: the output is capped by the NDV of the projected
            // column or the cardinality of the projected table variable
            // when known, and the dedup set is resident breaker state.
            Node::Map(c, expr) => {
                let cap = scope.distinct_values(expr);
                let rows = cap.map_or(c.rows, |cap| c.rows.min(cap));
                self.breaker(c, rows, rows)
            }
            Node::Extend(c) => CostEstimate {
                work: c.work + c.rows,
                ..c
            },
            // Projection dedups too.
            Node::Project(c) => self.breaker(c, c.rows, c.rows),
            // ν groups back to the cardinality of a key variable's table
            // when resolvable (ν over an outerjoin: the preserved side).
            Node::Nest(c, keys) => {
                let tables = keys.iter().filter_map(|k| scope.table_of(k));
                grouped(
                    c,
                    tables.map(|t| t.cardinality.max(1) as f64).reduce(f64::max),
                )
            }
            // GROUP BY: at most the largest key column's NDV.
            Node::GroupAgg(c, keys) => {
                let ndvs = keys.iter().filter_map(|(_, e)| scope.ndv(e));
                grouped(c, ndvs.reduce(f64::max))
            }
            Node::Unnest(c, expr) => {
                let rows = c.rows * scope.fanout(expr);
                CostEstimate {
                    rows,
                    work: c.work + c.rows + rows,
                    resident: c.resident,
                }
            }
            // Intersect is bounded by the smaller input and except by the
            // left input; only union can grow.
            Node::SetOp(kind, l, r) => {
                let rows = match kind {
                    SetOpKind::Union => l.rows + r.rows,
                    SetOpKind::Intersect => l.rows.min(r.rows),
                    SetOpKind::Except => l.rows,
                };
                let both = CostEstimate {
                    rows: l.rows + r.rows,
                    work: l.work + r.work,
                    resident: l.resident + r.resident,
                };
                self.breaker(both, both.rows, rows)
            }
            // The executor memoizes inner results per distinct correlation
            // binding (on by default), so the inner plan drains once per
            // distinct binding; every outer row pays a binding-key
            // evaluation and cache probe. The cached result sets are
            // budget-capped resident state.
            Node::Apply(c, sub, distinct) => {
                let (cache_res, _) = self.breaker_state(distinct * sub.rows.max(0.0));
                CostEstimate {
                    rows: c.rows,
                    work: c.work
                        + distinct * (sub.work + APPLY_OVERHEAD)
                        + CACHE_PROBE_WORK * c.rows,
                    resident: c.resident + sub.resident + cache_res,
                }
            }
            Node::Join(kind, &Sides { l, r, .. }, sel, (path_work, path_resident)) => {
                let matches = l.rows * r.rows * sel;
                // P(a left row has ≥ 1 match) when each of the `r.rows`
                // right rows matches it with probability `sel`.
                let match_frac = 1.0 - (1.0 - sel.clamp(0.0, 1.0)).powf(r.rows.max(0.0));
                let rows = match kind {
                    JoinKind::Inner => matches,
                    JoinKind::Semi => l.rows * match_frac,
                    JoinKind::Anti => l.rows * (1.0 - match_frac),
                    JoinKind::LeftOuter => matches.max(l.rows),
                    JoinKind::Nest { .. } => l.rows,
                };
                // Per-match output/collection work (the nest join inserts
                // each match into a per-row set; flat joins emit rows).
                let emit = match kind {
                    JoinKind::Semi | JoinKind::Anti => rows,
                    _ => matches.max(rows),
                };
                CostEstimate {
                    rows,
                    work: l.work + path_work + emit,
                    resident: l.resident + r.resident + path_resident,
                }
            }
        }
    }

    /// `(work, resident)` of one [`PathChoice`] between operands estimated
    /// as `l` and `r`, the inner operand's own work included where the
    /// path runs it.
    fn path_cost(&self, path: &PathChoice<'_>, &Sides { l, r, .. }: &Sides) -> (f64, f64) {
        let swap = match path {
            // A bare indexed inner scan is probed per outer row — the
            // inner subtree's scan work and the build-side state both
            // disappear.
            PathChoice::IndexNl { work, .. } => return (*work, 0.0),
            // The inner side is materialized (the NL join does not spill,
            // so no grace charge here — the resident penalty reports the
            // pressure honestly).
            PathChoice::NestedLoop => {
                return (r.work + join_cost::nested_loop(l.rows, r.rows), r.rows)
            }
            PathChoice::Hash { swap } => *swap,
            PathChoice::SortMerge => false,
        };
        let (probe, build) = if swap {
            (r.rows, l.rows)
        } else {
            (l.rows, r.rows)
        };
        let (res, build_spill) = self.breaker_state(build);
        // Grace hash writes and re-reads *both* sides once the build
        // overflows — charge the probe side's round-trip too. In full: the
        // executor no longer spills probe rows its key filter shows to be
        // partnerless, so a selective grace join is overpriced here until
        // this constant is calibrated (ROADMAP "Calibrated").
        let spill = if build_spill > 0.0 {
            build_spill + SPILL_IO_PER_ROW * probe
        } else {
            0.0
        };
        (r.work + (join_cost::hash(probe, build) + spill), res)
    }

    /// Work of the index nested-loop path of a join whose inner operand is
    /// a bare scan of `table` estimated as `r`: one probe per left row, a
    /// fetch and re-check per match, and the matched fraction of whatever
    /// page I/O a cold extent costs. The inner scan's own work is *not*
    /// included — the path never runs it.
    fn index_nl_work(&self, &Sides { l, r, .. }: &Sides, sel: f64, table: &str) -> f64 {
        let matches = l.rows * r.rows * sel;
        let frac = if r.rows > 0.0 {
            (matches / r.rows).min(1.0)
        } else {
            0.0
        };
        join_cost::index_nl(l.rows, matches) + self.cold_page_io(table) * frac
    }

    // -- the physical choices ----------------------------------------------

    /// Price the two access paths of `σ_pred(table)` when the predicate
    /// has an index-eligible component: `(component, probe_work,
    /// scan_work)`. `None` when no conjunct probes an existing index.
    pub fn select_access_paths(
        &self,
        table: &str,
        var: &str,
        pred: &ScalarExpr,
    ) -> Option<(IndexSel, f64, f64)> {
        let isel = index_selection(pred, table, var, self.catalog)?;
        let scan = self.scan(table);
        let scan_work = scan.work + scan.rows * expr_weight(pred);
        // Candidates the probe returns: rows matching the covered
        // conjuncts alone (the full predicate is re-checked afterwards).
        let sel_idx = self.scan_selectivity(table, var, &isel.covered);
        let candidates = scan.rows * sel_idx;
        // Fetch + emit per candidate, the full predicate re-check, and
        // the covered fraction of whatever page I/O a cold extent costs.
        let probe_work = INDEX_PROBE_WORK
            + candidates * (2.0 + expr_weight(pred))
            + self.cold_page_io(table) * sel_idx;
        Some((isel, probe_work, scan_work))
    }

    /// **Scan vs probe**: the index component and probe work of
    /// `σ_pred(table)` when probing prices below scan-and-filter. The
    /// model's `select` and the planner's `IndexScan` both come from this
    /// one comparison.
    pub(crate) fn index_scan_choice(
        &self,
        table: &str,
        var: &str,
        pred: &ScalarExpr,
    ) -> Option<(IndexSel, f64)> {
        let (isel, probe_work, scan_work) = self.select_access_paths(table, var, pred)?;
        (probe_work < scan_work).then_some((isel, probe_work))
    }

    /// **Index nested-loop vs scan-based join, join algorithm, build
    /// side** — the one place all three are decided, for the model
    /// (`algo` = [`JoinAlgo::Auto`]) and for lowering (`algo` = the
    /// configured one; a forced algorithm never takes the index path).
    ///
    /// The index path needs `inner`, the bare `(table, var)` scan the
    /// right operand is, with an index on the column of one of `keys`'
    /// right sides,
    /// and wins when its probe work prices below scanning the inner
    /// operand plus a hash join. Otherwise: nested loop without equi
    /// keys; hash (sort-merge only when forced); and a hash *inner* join
    /// — symmetric, records compare label-insensitively — builds on the
    /// smaller operand. Every other kind is
    /// left-preserving, and for the nest join "only the right join operand
    /// may be the build table" (Section 6), so their sides stay fixed.
    pub(crate) fn join_path<'p>(
        &self,
        algo: JoinAlgo,
        kind: &JoinKind,
        sides: &Sides,
        sel: f64,
        inner: Option<(&'p str, &'p str)>,
        keys: &[(&'p ScalarExpr, &'p ScalarExpr)],
    ) -> PathChoice<'p> {
        let (l, r) = (sides.l, sides.r);
        let hash = join_cost::hash(l.rows, r.rows);
        if let (JoinAlgo::Auto, Some((table, var))) = (algo, inner) {
            let indexed = keys.iter().enumerate().find_map(|(key, &(_, rk))| {
                let (_, attr) = as_column(rk)?;
                self.catalog.index_on(table, attr).map(|_| (key, attr))
            });
            if let Some((key, attr)) = indexed {
                let work = self.index_nl_work(sides, sel, table);
                if work < r.work + hash {
                    return PathChoice::IndexNl {
                        table,
                        var,
                        attr,
                        key,
                        work,
                    };
                }
            }
        }
        match algo {
            _ if keys.is_empty() => PathChoice::NestedLoop,
            JoinAlgo::NestedLoop => PathChoice::NestedLoop,
            JoinAlgo::Auto => PathChoice::Hash {
                swap: matches!(kind, JoinKind::Inner) && l.rows < r.rows,
            },
            JoinAlgo::Hash => PathChoice::Hash { swap: false },
            JoinAlgo::SortMerge => PathChoice::SortMerge,
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
    let mut n = 1;
    e.for_each_child(|c| n += expr_nodes(c));
    n
}

/// One pass over a plan: the scans seen so far (the scope) and the
/// recursions that feed each operator's formula its children's estimates.
/// Every node is estimated exactly once per walk.
pub(crate) struct Walk<'a, 'p> {
    pub(crate) est: Estimator<'a>,
    /// `ScanTable` bindings in depth-first order.
    scans: Vec<Binding<'p, 'a>>,
    /// Spans of `scans` bound by the inputs of the `Apply` operators
    /// enclosing the node being estimated, outermost first.
    outer: Vec<Span>,
    /// [`Walk::phys`] records each executed operator's estimated rows
    /// here, in pre-order.
    trace: Option<Vec<f64>>,
    /// Trace the operators of `Apply` subqueries too (`EXPLAIN` shows
    /// them; the executed profile does not).
    show_subqueries: bool,
}

impl<'a, 'p> Walk<'a, 'p> {
    pub(crate) fn new(est: Estimator<'a>) -> Self {
        Walk {
            est,
            scans: Vec::new(),
            outer: Vec::new(),
            trace: None,
            show_subqueries: false,
        }
    }

    /// The position the next scan will take: take it before descending
    /// into a node, and `scope(mark)` afterwards resolves in that node's
    /// subtree.
    pub(crate) fn mark(&self) -> usize {
        self.scans.len()
    }

    /// The scope of a node whose subtree's scans start at `from`.
    pub(crate) fn scope(&self, from: usize) -> Scope<'_, 'a> {
        Scope {
            scans: &self.scans,
            below: (from, self.scans.len()),
            outer: &self.outer,
        }
    }

    /// Enter an `Apply` subquery whose input's scans start at `from`:
    /// those scans become the innermost correlation scope until
    /// [`Walk::leave_subquery`].
    pub(crate) fn enter_subquery(&mut self, from: usize) {
        self.outer.push((from, self.scans.len()));
    }

    pub(crate) fn leave_subquery(&mut self) {
        self.outer.pop();
    }

    pub(crate) fn scan(&mut self, table: &str, var: &'p str) -> CostEstimate {
        if let Some(stats) = self.est.catalog.stats(table) {
            self.scans.push((var, stats));
        }
        self.est.scan(table)
    }

    /// A selection directly over a stored table: the scan-vs-probe choice
    /// and the estimate of whichever path it picked.
    pub(crate) fn select_scan(
        &mut self,
        table: &str,
        var: &'p str,
        pred: &ScalarExpr,
    ) -> (CostEstimate, Option<IndexSel>) {
        let from = self.mark();
        let scan = self.scan(table, var);
        let (isel, probe_work) = self.est.index_scan_choice(table, var, pred).unzip();
        let op = Node::Select(scan, pred, probe_work);
        (self.est.estimate(op, self.scope(from)), isel)
    }

    /// Estimated number of distinct correlation bindings an `Apply` whose
    /// input's scans start at `from` presents to its subquery: the product
    /// of the per-binding distinct counts (the outer row count when
    /// unknown), capped at the outer row count. Empty bindings — an
    /// invariant subquery — estimate as one. This is how many times the
    /// executor drains the inner plan with memoization on.
    pub(crate) fn distinct_bindings(
        &self,
        bindings: &[ScalarExpr],
        from: usize,
        outer_rows: f64,
    ) -> f64 {
        let scope = self.scope(from);
        let cap = outer_rows.max(1.0);
        let mut distinct = 1.0f64;
        for b in bindings {
            distinct *= scope.distinct_values(b).unwrap_or(cap);
            if distinct >= cap {
                break;
            }
        }
        distinct.clamp(1.0, cap)
    }

    /// Clamped selectivity of a join predicate split into equi-key pairs
    /// and residual conjuncts: each pair resolves its sides against its
    /// own operand, the residual against both. The pairs multiply in
    /// order; the residual conjuncts multiply left to right, as their
    /// conjunction's selectivity does, and that product, clamped, is
    /// multiplied in.
    fn join_selectivity(&self, split: &KeySplit<'_>, sides: &Sides) -> f64 {
        let both = self.scope(sides.from);
        let left = Scope {
            below: (sides.from, sides.mid),
            ..both
        };
        let right = Scope {
            below: (sides.mid, both.below.1),
            ..both
        };
        let mut sel = 1.0f64;
        for &(lk, rk) in &split.keys {
            sel *= eq_selectivity(left.ndv(lk), right.ndv(rk));
        }
        if let Some((&first, rest)) = split.residual.split_first() {
            let residual = (rest.iter()).fold(both.conjunct_selectivity(first), |s, c| {
                s * both.conjunct_selectivity(c)
            });
            sel *= residual.clamp(MIN_SELECTIVITY, 1.0);
        }
        sel.clamp(MIN_SELECTIVITY, 1.0)
    }

    /// A logical join of `left` and `right`, estimated as `sides`: split
    /// the predicate, let [`Estimator::join_path`] pick the physical path
    /// under `algo`, and price it.
    pub(crate) fn join(
        &self,
        algo: JoinAlgo,
        kind: &JoinKind,
        (left, right): (&'p Plan, &'p Plan),
        pred: &'p ScalarExpr,
        sides: Sides,
    ) -> (CostEstimate, KeySplit<'p>, PathChoice<'p>) {
        let est = self.est;
        let split = extract_equi_keys(pred, |v| left.binds(v), |v| right.binds(v));
        let sel = self.join_selectivity(&split, &sides);
        let inner = match right {
            Plan::ScanTable { table, var } => Some((table.as_str(), var.as_str())),
            _ => None,
        };
        let path = est.join_path(algo, kind, &sides, sel, inner, &split.keys);
        let op = Node::Join(kind, &sides, sel, est.path_cost(&path, &sides));
        (est.estimate(op, self.scope(sides.from)), split, path)
    }

    /// Estimate a logical plan, as lowering under [`JoinAlgo::Auto`]
    /// would run it.
    pub(crate) fn plan(&mut self, plan: &'p Plan) -> CostEstimate {
        let (est, from) = (self.est, self.mark());
        let op = match plan {
            Plan::ScanTable { table, var } => return self.scan(table, var),
            Plan::Select { input, pred } => match &**input {
                Plan::ScanTable { table, var } => return self.select_scan(table, var, pred).0,
                input => Node::Select(self.plan(input), pred, None),
            },
            Plan::Join {
                kind,
                left,
                right,
                pred,
            } => {
                let sides = Sides {
                    from,
                    l: self.plan(left),
                    mid: self.mark(),
                    r: self.plan(right),
                };
                return self
                    .join(JoinAlgo::Auto, kind, (left, right), pred, sides)
                    .0;
            }
            Plan::ScanExpr { expr, .. } => Node::ScanExpr(expr),
            Plan::Map { input, expr, .. } => Node::Map(self.plan(input), expr),
            Plan::Extend { input, .. } => Node::Extend(self.plan(input)),
            Plan::Project { input, .. } => Node::Project(self.plan(input)),
            Plan::Nest { input, keys, .. } => Node::Nest(self.plan(input), keys),
            Plan::GroupAgg { input, keys, .. } => Node::GroupAgg(self.plan(input), keys),
            Plan::Unnest { input, expr, .. } => Node::Unnest(self.plan(input), expr),
            Plan::SetOp {
                kind, left, right, ..
            } => Node::SetOp(*kind, self.plan(left), self.plan(right)),
            Plan::Apply {
                input, subquery, ..
            } => {
                let c = self.plan(input);
                let distinct = self.distinct_bindings(&apply_bindings(subquery), from, c.rows);
                self.enter_subquery(from);
                let sub = self.plan(subquery);
                self.leave_subquery();
                Node::Apply(c, sub, distinct)
            }
        };
        est.estimate(op, self.scope(from))
    }

    /// [`Walk::estimate_phys`], traced: the operator's estimated rows go
    /// to its pre-order position in the trace.
    fn phys(&mut self, phys: &'p PhysPlan) -> CostEstimate {
        let slot = self.trace.as_mut().map(|rows| {
            rows.push(0.0);
            rows.len() - 1
        });
        let out = self.estimate_phys(phys);
        if let (Some(rows), Some(slot)) = (self.trace.as_mut(), slot) {
            rows[slot] = out.rows;
        }
        out
    }

    /// Estimate a physical plan as built — each operator by the formula
    /// of what it implements: a filtering scan / `IndexScan` = a scan then
    /// the selection, and a join by its own [`JoinPath`]: the index path =
    /// its left operand joined with a scan of the probed table, the nested
    /// loop = its predicate, hash / sort-merge = its key pairs plus
    /// residual — then, with a fused selection, the selection over it.
    fn estimate_phys(&mut self, phys: &'p PhysPlan) -> CostEstimate {
        use PhysPlan as P;
        let (est, from) = (self.est, self.mark());
        let sides;
        let op = match phys {
            P::ScanTable {
                table,
                var,
                pred: None,
            } => return self.scan(table, var),
            P::ScanTable {
                table,
                var,
                pred: Some(pred),
            }
            | P::IndexScan {
                table, var, pred, ..
            } => return self.select_scan(table, var, pred).0,
            P::ScanExpr { expr, .. } => Node::ScanExpr(expr),
            P::Filter { input, pred } => Node::Select(self.phys(input), pred, None),
            P::Map { input, expr, .. } => Node::Map(self.phys(input), expr),
            P::Extend { input, .. } => Node::Extend(self.phys(input)),
            P::Project { input, .. } => Node::Project(self.phys(input)),
            P::Nest { input, keys, .. } => Node::Nest(self.phys(input), keys),
            P::GroupAgg { input, keys, .. } => Node::GroupAgg(self.phys(input), keys),
            P::Unnest { input, expr, .. } => Node::Unnest(self.phys(input), expr),
            P::SetOp {
                kind, left, right, ..
            } => Node::SetOp(*kind, self.phys(left), self.phys(right)),
            P::Join {
                kind,
                left,
                path,
                select,
            } => {
                let (l, mid) = (self.phys(left), self.mark());
                let r = match path {
                    JoinPath::Index { table, var, .. } => self.scan(table, var),
                    JoinPath::NestedLoop { right, .. }
                    | JoinPath::Hash { right, .. }
                    | JoinPath::SortMerge { right, .. } => self.phys(right),
                };
                sides = Sides { from, l, mid, r };
                let split = match path {
                    JoinPath::NestedLoop { pred, .. } | JoinPath::Index { pred, .. } => {
                        let (lv, rv) = (left.output_vars(), path.right_vars());
                        let binds = |vars: &[String], v: &str| vars.iter().any(|b| b == v);
                        extract_equi_keys(pred, |v| binds(&lv, v), |v| binds(&rv, v))
                    }
                    JoinPath::Hash { keys, .. } | JoinPath::SortMerge { keys, .. } => keys.parts(),
                };
                let sel = self.join_selectivity(&split, &sides);
                let cost = match path {
                    JoinPath::Index { table, .. } => (est.index_nl_work(&sides, sel, table), 0.0),
                    JoinPath::NestedLoop { .. } => est.path_cost(&PathChoice::NestedLoop, &sides),
                    JoinPath::Hash { .. } => {
                        est.path_cost(&PathChoice::Hash { swap: false }, &sides)
                    }
                    JoinPath::SortMerge { .. } => est.path_cost(&PathChoice::SortMerge, &sides),
                };
                let join = Node::Join(kind, &sides, sel, cost);
                match select {
                    None => join,
                    Some(pred) => Node::Select(est.estimate(join, self.scope(from)), pred, None),
                }
            }
            P::Apply {
                input,
                subquery,
                bindings,
                ..
            } => {
                let c = self.phys(input);
                let distinct = self.distinct_bindings(bindings, from, c.rows);
                // The subquery's operators are not executed operators:
                // the Apply instantiates them per binding.
                let trace = self.trace.take();
                self.enter_subquery(from);
                let sub = self.phys(subquery);
                self.leave_subquery();
                self.trace = trace;
                // `EXPLAIN` lists them as estimated on their own — outside
                // the correlation scope the Apply's estimate resolved them
                // in.
                if let (true, Some(rows)) = (self.show_subqueries, self.trace.as_mut()) {
                    rows.extend(Walk::trace(est, true, subquery));
                }
                Node::Apply(c, sub, distinct)
            }
        };
        est.estimate(op, self.scope(from))
    }

    /// Walk `phys` and return every executed operator's estimated rows in
    /// pre-order — with `show_subqueries`, every operator's.
    fn trace(est: Estimator<'a>, show_subqueries: bool, phys: &'p PhysPlan) -> Vec<f64> {
        let mut walk = Walk {
            trace: Some(Vec::new()),
            show_subqueries,
            ..Walk::new(est)
        };
        walk.phys(phys);
        walk.trace.unwrap_or_default()
    }
}

/// Render a physical plan with per-operator estimated rows — the
/// `EXPLAIN` view of the cost model's predictions before execution.
pub fn explain_with_estimates(phys: &PhysPlan, catalog: &Catalog) -> String {
    fn go(p: &PhysPlan, depth: usize, rows: &mut impl Iterator<Item = f64>, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [est_rows={}]\n",
            p.op_label(),
            format_rows(rows.next().unwrap_or(f64::NAN))
        ));
        for c in p.children() {
            go(c, depth + 1, rows, out);
        }
    }
    let rows = Walk::trace(Estimator::new(catalog), true, phys);
    let mut s = String::new();
    go(phys, 0, &mut rows.into_iter(), &mut s);
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
        assert_eq!(Estimator::new(&cat).rows(&Plan::scan("BIG", "x")), 100.0);
        assert_eq!(Estimator::new(&cat).rows(&Plan::scan("SMALL", "x")), 1.0);
        // Unknown table: fallback, not a panic.
        assert_eq!(
            Estimator::new(&cat).rows(&Plan::scan("NOPE", "x")),
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
        assert_eq!(Estimator::new(&cat).rows(&nj), 100.0);
    }

    #[test]
    fn join_cost_ranking_large_inputs() {
        // At scale, hash < nested-loop.
        let (l, r) = (10_000.0, 10_000.0);
        assert!(join_cost::hash(l, r) < join_cost::nested_loop(l, r));
    }

    #[test]
    fn histogram_select_estimates_beat_magic_constants() {
        let cat = catalog();
        // x.a < 25 on uniform 0..100 → about a quarter of the rows.
        let p =
            Plan::scan("BIG", "x").select(E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(25i64)));
        let rows = Estimator::new(&cat).rows(&p);
        assert!((rows - 25.0).abs() < 8.0, "{rows}");
        // Equality on a 10-distinct column → a tenth.
        let p = Plan::scan("BIG", "x").select(E::eq(E::path("x", &["b"]), E::lit(3i64)));
        let rows = Estimator::new(&cat).rows(&p);
        assert!((rows - 10.0).abs() < 1.0, "{rows}");
        // A tautology does not shrink the estimate.
        let p = Plan::scan("BIG", "x").select(E::lit(true));
        assert_eq!(Estimator::new(&cat).rows(&p), 100.0);
        // Strict vs inclusive differ by one distinct value's mass:
        // a > 99 keeps (essentially) nothing, a ≥ 99 keeps ≈ one row.
        let gt =
            Plan::scan("BIG", "x").select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(99i64)));
        assert!(
            Estimator::new(&cat).rows(&gt) < 1.0,
            "{}",
            Estimator::new(&cat).rows(&gt)
        );
        let ge =
            Plan::scan("BIG", "x").select(E::cmp(CmpOp::Ge, E::path("x", &["a"]), E::lit(99i64)));
        let ge_rows = Estimator::new(&cat).rows(&ge);
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
        let rows = Estimator::new(&cat).rows(&j);
        assert!((rows - 1000.0).abs() < 1.0, "{rows}");
    }

    #[test]
    fn semi_and_anti_join_partition_left() {
        let cat = catalog();
        let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let semi = Plan::scan("BIG", "x").semi_join(Plan::scan("BIG", "y"), pred.clone());
        let anti = Plan::scan("BIG", "x").anti_join(Plan::scan("BIG", "y"), pred);
        let s = Estimator::new(&cat).rows(&semi);
        let a = Estimator::new(&cat).rows(&anti);
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
        assert_eq!(Estimator::new(&cat).rows(&mk(Union)), 101.0);
        assert_eq!(
            Estimator::new(&cat).rows(&mk(Intersect)),
            1.0,
            "∩ bounded by the smaller side"
        );
        assert_eq!(
            Estimator::new(&cat).rows(&mk(Except)),
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
    fn exec_order_skips_apply_subquery() {
        let cat = catalog();
        let sub = Plan::scan("BIG", "y").map(E::path("y", &["a"]), "s");
        let apply = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = crate::planner::lower(&apply, &cat, &crate::ExecConfig::default()).unwrap();
        // Apply + its outer scan only — the subquery tree is per-row.
        assert_eq!(Estimator::new(&cat).exec_order_rows_phys(&phys).len(), 2);
        // EXPLAIN lists all four operators, the subquery's included.
        let s = explain_with_estimates(&phys, &cat);
        assert_eq!(s.matches("est_rows=").count(), 4, "{s}");
        assert!(s.contains("    Scan(BIG) [est_rows=100]"), "{s}");
    }

    #[test]
    fn lowered_plan_estimates_agree_with_the_logical_ones() {
        let cat = catalog();
        let plan = Plan::scan("SMALL", "y")
            .join(
                Plan::scan("BIG", "x"),
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            )
            .select(E::cmp(CmpOp::Gt, E::path("x", &["a"]), E::lit(10i64)));
        let phys = crate::planner::lower(&plan, &cat, &crate::ExecConfig::default()).unwrap();
        // Same shape with the select fused into the join — one join with
        // the select's estimate, two scans — and the inner join's sides
        // swapped to build on SMALL; neither moves an estimate.
        let est = Estimator::new(&cat);
        let rows = est.exec_order_rows_phys(&phys);
        assert_eq!(rows.len(), plan.size() - 1, "{phys}");
        assert_eq!(rows[0], est.rows(&plan));
        assert_eq!(&rows[1..], [100.0, 1.0], "BIG probes, SMALL builds: {phys}");
        let s = explain_with_estimates(&phys, &cat);
        assert!(s.contains("est_rows="), "{s}");
    }

    #[test]
    fn a_shadowed_variable_resolves_to_its_first_binding_in_dfs_order() {
        let cat = catalog();
        let stats = |t: &str| cat.stats(t).unwrap();
        // Scans in depth-first order: x→BIG, y→SMALL, x→SMALL; an
        // enclosing Apply input bound y→BIG and z→BIG.
        let scans = [
            ("y", stats("BIG")),
            ("z", stats("BIG")),
            ("x", stats("BIG")),
            ("y", stats("SMALL")),
            ("x", stats("SMALL")),
        ];
        let outer = [(0, 2)];
        let scope = Scope {
            scans: &scans,
            below: (2, 5),
            outer: &outer,
        };
        let card = |s: Scope<'_, '_>, v: &str| s.table_of(v).map(|t| t.cardinality);
        assert_eq!(card(scope, "x"), Some(100), "first binding below wins");
        assert_eq!(card(scope, "y"), Some(1), "below shadows the Apply input");
        assert_eq!(
            card(scope, "z"),
            Some(100),
            "else the Apply input resolves it"
        );
        assert_eq!(card(scope, "w"), None);
        let right = Scope {
            below: (4, 5),
            ..scope
        };
        assert_eq!(card(right, "x"), Some(1), "one operand's span");
        // The same through a whole plan: the join's left operand binds x
        // first, so x.b takes BIG's 10 distinct values (a tenth of the
        // rows), not SMALL's 1 (all of them).
        let shadowed = Plan::scan("BIG", "x")
            .join(Plan::scan("SMALL", "x"), E::lit(true))
            .select(E::eq(E::path("x", &["b"]), E::lit(1i64)));
        let Plan::Select { input: join, .. } = &shadowed else {
            unreachable!()
        };
        assert_eq!(
            Estimator::new(&cat).rows(&shadowed),
            Estimator::new(&cat).rows(join) / 10.0
        );
    }
}
