//! Batched correlated Apply: operator reuse, binding memoization, and
//! invariant hoisting.
//!
//! [`ApplyOp`] is the paper's baseline nested loop, made cheap along three
//! axes. **Reuse**: the inner operator tree is built once and re-pointed at
//! each outer row via [`Operator::rebind`] + `open`, so no per-row planning
//! or allocation happens. **Memoization**: when the planner supplies
//! binding expressions (the correlation values the inner result depends
//! on), completed result sets are cached under the evaluated binding key —
//! duplicate bindings replay the cached set, and the inner plan executes
//! once per *distinct* binding. The cache is an LRU that respects
//! [`crate::ExecConfig::memory_budget_rows`] through the shared resident
//! gauge. **Hoisting** is the planner's side of the bargain:
//! correlation-independent subtrees of the inner plan are wrapped in
//! [`MaterializeOp`] (execute once, replay per re-open), and inner plans
//! shaped `σ[var.attr = key](table)` with a correlation-dependent key
//! become a [`HashProbeOp`] — one transient [`HashIndex`] build amortized
//! across all bindings, one probe per binding instead of one full scan.
//!
//! Counters: `subquery_invocations` stays one per outer row (the logical
//! nested-loop count), `apply_invocations` counts actual inner executions,
//! and `apply_cache_hits` counts rows answered from the cache — so
//! `ainv=`/`ahit=` in a profile expose exactly how much work memoization
//! removed. Caching never changes results: keys cover every free variable
//! of the inner plan, NULL bindings are cacheable values under the model's
//! total order, and a failed key evaluation falls back to plain
//! (uncached) execution.

use std::collections::BTreeMap;
use std::sync::Arc;

use tmql_algebra::{eval, eval_predicate, Env, ScalarExpr};
use tmql_model::hash::ValueMap;
use tmql_model::{Record, Result, SetValue, Value};
use tmql_storage::HashIndex;

use crate::exec::ExecContext;
use crate::op;
use crate::op::operator::{build, drain, op_base, Batch, BoxedOperator, OpBase, Operator};
use crate::physical::PhysPlan;

/// A memoized inner result: the completed subquery value set and its LRU
/// stamp (monotonic use counter; smallest = least recently used).
struct CacheEntry {
    set: SetValue,
    stamp: u64,
}

/// The binding memo of one [`ApplyOp`]: completed inner results by
/// evaluated binding key, evicted least recently used first.
#[derive(Default)]
struct Memo {
    entries: ValueMap<Vec<Value>, CacheEntry>,
    /// stamp → key index for O(log n) LRU eviction.
    lru: BTreeMap<u64, Vec<Value>>,
    next_stamp: u64,
    /// Total rows held by cached sets (mirrored in the resident gauge
    /// while the operator is open).
    rows: usize,
}

impl Memo {
    /// The cached result under `key`, moved to the most-recently-used
    /// position.
    fn hit(&mut self, key: &[Value]) -> Option<SetValue> {
        let e = self.entries.get_mut(key)?;
        self.lru.remove(&e.stamp);
        e.stamp = self.next_stamp;
        self.lru.insert(self.next_stamp, key.to_vec());
        self.next_stamp += 1;
        Some(e.set.clone())
    }

    /// Insert a completed result under `key`, evicting LRU entries while
    /// the cache would exceed the memory budget. A single result larger
    /// than the whole budget is not cached at all.
    fn insert(&mut self, key: Vec<Value>, set: SetValue, ctx: &mut ExecContext<'_>) {
        let add = set.len();
        if ctx.memory_budget_rows().is_some_and(|b| add > b) {
            return;
        }
        while ctx.over_budget(self.rows + add) {
            let Some((_, old_key)) = self.lru.pop_first() else {
                break;
            };
            if let Some(old) = self.entries.remove(&old_key) {
                self.rows -= old.set.len();
                ctx.resident_release(old.set.len());
            }
        }
        ctx.resident_acquire(add);
        self.rows += add;
        self.lru.insert(self.next_stamp, key.clone());
        self.entries.insert(
            key,
            CacheEntry {
                set,
                stamp: self.next_stamp,
            },
        );
        self.next_stamp += 1;
    }
}

/// Correlated Apply with inner-plan reuse and binding memoization. Outer
/// rows stream through batch-at-a-time; the subquery tree is built lazily
/// on the first row and re-opened (never rebuilt) for every execution.
pub struct ApplyOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    subquery: &'p PhysPlan,
    label: Arc<str>,
    /// `None` = memoization off (one execution per outer row);
    /// `Some([])` = invariant subquery (single cached execution);
    /// `Some(exprs)` = cache keyed on the evaluated expressions.
    bindings: Option<&'p [ScalarExpr]>,
    /// The long-lived inner operator tree (reused across rows via
    /// rebind/open; kept across `close` so nested re-opens stay cheap).
    inner: Option<BoxedOperator<'p>>,
    memo: Memo,
    gauge_held: bool,
}

impl<'p> ApplyOp<'p> {
    /// Wrap the outer child; the inner tree is built on first demand.
    pub(super) fn new(
        base: OpBase<'p>,
        child: BoxedOperator<'p>,
        subquery: &'p PhysPlan,
        label: &'p str,
        bindings: Option<&'p [ScalarExpr]>,
    ) -> ApplyOp<'p> {
        ApplyOp {
            base,
            child,
            subquery,
            label: Arc::from(label),
            bindings,
            inner: None,
            memo: Memo::default(),
            gauge_held: false,
        }
    }

    /// Execute the inner plan under `sub_env` (building the tree on first
    /// use, rebinding it afterwards) and collapse the result to a set.
    fn run_inner(
        inner: &mut Option<BoxedOperator<'p>>,
        subquery: &'p PhysPlan,
        sub_env: &Env<'_>,
        ctx: &mut ExecContext<'_>,
    ) -> Result<SetValue> {
        ctx.metrics.apply_invocations += 1;
        let inner = match inner {
            Some(op) => {
                op.rebind(sub_env);
                op
            }
            None => inner.insert(build(subquery, sub_env)),
        };
        inner.open_timed(ctx)?;
        let res = drain(inner, ctx);
        inner.close_timed(ctx);
        let shape = inner.shape();
        Ok(res?.iter().map(|r| op::output_value(shape, r)).collect())
    }
}

impl Operator for ApplyOp<'_> {
    // The inner tree is instantiated per binding and does not appear in
    // the executed profile (mirrors the cost model's exec-order walk,
    // which skips the Apply subquery). Cache entries stay valid across
    // rebinds: keys cover *all* free variables of the subquery, including
    // ones bound by enclosing Apply operators.
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        // The cache survives close/open cycles (a nested Apply re-opens
        // this operator once per enclosing binding); only its footprint
        // leaves and re-enters the resident gauge.
        if !self.gauge_held {
            ctx.resident_acquire(self.memo.rows);
            self.gauge_held = true;
        }
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(b) = self.child.pull(ctx)? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(b.len());
        let shape = self.child.shape().clone();
        let (inner, subquery) = (&mut self.inner, self.subquery);
        for row in b.rows {
            // The outer row's scope; the inner tree detaches it on rebind.
            let sub_env = op::bind(&self.base.env, &shape, &row);
            let mut run =
                |ctx: &mut ExecContext<'_>| Self::run_inner(inner, subquery, &sub_env, ctx);
            ctx.metrics.subquery_invocations += 1;
            let set = match self.bindings {
                None => run(ctx)?,
                Some(exprs) => {
                    // A key evaluation failure must not fail the query
                    // (the expression might never be reached under the
                    // inner plan's own evaluation order) — run uncached.
                    let key: std::result::Result<Vec<Value>, _> =
                        exprs.iter().map(|e| eval(e, &sub_env)).collect();
                    match key {
                        Err(_) => run(ctx)?,
                        Ok(key) => {
                            if let Some(set) = self.memo.hit(&key) {
                                ctx.metrics.apply_cache_hits += 1;
                                set
                            } else {
                                let set = run(ctx)?;
                                self.memo.insert(key, set.clone(), ctx);
                                set
                            }
                        }
                    }
                }
            };
            out.push(op::extend(&shape, &row, &self.label, Value::Set(set))?);
        }
        Ok(Some(Batch::new(out)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if self.gauge_held {
            ctx.resident_release(self.memo.rows);
            self.gauge_held = false;
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.close_timed(ctx);
        }
        self.child.close_timed(ctx);
    }
}

/// Replay buffer around a correlation-independent subtree of an Apply
/// inner plan: the child runs once, re-opens replay the buffer. If the
/// buffer would exceed the memory budget the operator degrades to
/// pass-through (the child re-executes per open — exactly the un-hoisted
/// behavior, so hoisting never costs memory it doesn't have).
pub struct MaterializeOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    /// Completed replay buffer (kept across close/open).
    buffer: Option<Vec<Record>>,
    /// Rows accumulated during the first execution.
    filling: Vec<Record>,
    cursor: usize,
    /// Set once the first execution overflowed the budget; from then on
    /// every open streams the child directly.
    overflowed: bool,
    /// Rows currently counted in the resident gauge.
    acquired: usize,
}

impl<'p> MaterializeOp<'p> {
    /// Wrap a hoisted child subtree.
    pub(super) fn new(base: OpBase<'p>, child: BoxedOperator<'p>) -> MaterializeOp<'p> {
        MaterializeOp {
            base: base.over(&child),
            child,
            buffer: None,
            filling: Vec::new(),
            cursor: 0,
            overflowed: false,
            acquired: 0,
        }
    }
}

impl Operator for MaterializeOp<'_> {
    // The subtree is correlation-independent by construction, so the
    // buffer stays valid across rebinds.
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        ctx.resident_release(self.acquired);
        self.acquired = 0;
        self.filling.clear();
        self.cursor = 0;
        if let Some(buf) = &self.buffer {
            // Replay answers everything; the child stays closed.
            ctx.resident_acquire(buf.len());
            self.acquired = buf.len();
            return Ok(());
        }
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if let Some(buf) = &self.buffer {
                if self.cursor >= buf.len() {
                    return Ok(None);
                }
                let end = (self.cursor + n).min(buf.len());
                let rows = buf[self.cursor..end].to_vec();
                self.cursor = end;
                return Ok(Some(Batch::new(rows)));
            }
            if self.overflowed {
                return self.child.pull(ctx);
            }
            match self.child.pull(ctx)? {
                None => {
                    self.buffer = Some(std::mem::take(&mut self.filling));
                    // `acquired` already covers the buffer.
                }
                Some(b) => {
                    ctx.resident_acquire(b.len());
                    self.acquired += b.len();
                    self.filling.extend(b.rows);
                    if ctx.over_budget(self.filling.len()) {
                        // Too big to hold: drop the buffer and degrade to
                        // pass-through, restarting the child's stream.
                        ctx.resident_release(self.acquired);
                        self.acquired = 0;
                        self.filling.clear();
                        self.overflowed = true;
                        self.child.open_timed(ctx)?;
                    }
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.acquired);
        self.acquired = 0;
        self.filling.clear();
        self.child.close_timed(ctx);
    }
}

/// Transient-hash-index scan for Apply inner plans shaped
/// `σ[var.attr = key](table)` with a correlation-dependent key: builds a
/// [`HashIndex`] over `table.attr` on first demand, keeps it across
/// re-opens, and answers each open with one equality probe — exact under
/// the equality `=` reads, as [`tmql_storage::OrdIndex`]'s is — and the
/// full predicate is re-checked per candidate, so results match the
/// scan+filter exactly. If
/// the key evaluation fails, the operator degrades to a full position
/// scan, which reproduces plain filter semantics.
pub struct HashProbeOp<'p> {
    base: OpBase<'p>,
    table: &'p str,
    attr: &'p str,
    key: &'p ScalarExpr,
    pred: &'p ScalarExpr,
    /// Built on first demand, kept across open/close.
    index: Option<HashIndex>,
    /// Rows the index covers (its resident-gauge footprint).
    indexed_rows: usize,
    /// Candidate positions for the current open's key, ascending.
    positions: Option<Vec<usize>>,
    cursor: usize,
    gauge_held: bool,
}

impl<'p> HashProbeOp<'p> {
    /// New probe operator; the index is built on first `next_batch`.
    pub(super) fn new(
        base: OpBase<'p>,
        table: &'p str,
        attr: &'p str,
        key: &'p ScalarExpr,
        pred: &'p ScalarExpr,
    ) -> HashProbeOp<'p> {
        HashProbeOp {
            base,
            table,
            attr,
            key,
            pred,
            index: None,
            indexed_rows: 0,
            positions: None,
            cursor: 0,
            gauge_held: false,
        }
    }
}

impl Operator for HashProbeOp<'_> {
    op_base!();

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.positions = None;
        self.cursor = 0;
        if self.index.is_some() && !self.gauge_held {
            ctx.resident_acquire(self.indexed_rows);
            self.gauge_held = true;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.index.is_none() {
            let t = ctx.catalog.table(self.table)?;
            let built = HashIndex::build(t, self.attr)?;
            self.indexed_rows = t.len();
            ctx.metrics.hash_build_rows += self.indexed_rows as u64;
            ctx.resident_acquire(self.indexed_rows);
            self.gauge_held = true;
            self.index = Some(built);
        }
        if self.positions.is_none() {
            let idx = self.index.as_ref().expect("built above");
            let positions = match eval(self.key, &self.base.env) {
                Ok(key) => idx.probe_eq(&key),
                // Key evaluation failed: fall back to checking every row
                // (plain scan+filter semantics).
                Err(_) => (0..self.indexed_rows).collect(),
            };
            ctx.metrics.index_probes += 1;
            ctx.metrics.index_hits += positions.len() as u64;
            self.positions = Some(positions);
            self.cursor = 0;
        }
        let n = ctx.batch_size();
        let t = ctx.catalog.table(self.table)?;
        loop {
            let positions = self.positions.as_ref().expect("probed above");
            if self.cursor >= positions.len() {
                return Ok(None);
            }
            let end = (self.cursor + n).min(positions.len());
            let chunk = &positions[self.cursor..end];
            self.cursor = end;
            let candidates = t.fetch_rows(chunk)?;
            let mut rows = Vec::with_capacity(candidates.len());
            let OpBase { env, shape, .. } = &self.base;
            for row in candidates {
                ctx.metrics.comparisons += 1;
                if eval_predicate(self.pred, &op::bind(env, shape, &row))? {
                    rows.push(row);
                }
            }
            if !rows.is_empty() {
                return Ok(Some(Batch::new(rows)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.positions = None;
        self.cursor = 0;
        if self.gauge_held {
            ctx.resident_release(self.indexed_rows);
            self.gauge_held = false;
        }
    }
}
