//! Batched correlated Apply: operator reuse and binding memoization.
//!
//! [`ApplyOp`] is the paper's baseline nested loop, made cheap along two
//! axes, neither of which changes the inner plan. **Reuse**: the inner
//! operator tree is built once and re-pointed at each outer row via
//! [`Operator::rebind`] + `open`, so no per-row planning or allocation
//! happens. **Memoization**: completed result sets are cached under the
//! evaluated binding key (the planner's binding expressions — the
//! correlation values the inner result depends on) — duplicate bindings
//! replay the cached set, and the inner plan executes once per *distinct*
//! binding, which is what the cost model prices. The cache is an LRU that
//! respects [`crate::ExecConfig::memory_budget_rows`] through the shared
//! resident gauge. The inner plan is the one lowering builds for the
//! subquery anywhere else: a scan of a stored table inside it is re-run
//! per distinct binding unless the model picked an `IndexScan` for it.
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

use tmql_algebra::{Compiled, Env};
use tmql_model::hash::ValueMap;
use tmql_model::{Result, SetValue, Value};

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
pub(crate) struct ApplyOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    subquery: &'p PhysPlan,
    label: Arc<str>,
    /// The cache key's expressions; empty for an invariant subquery
    /// (single cached execution), over an outer row.
    bindings: Vec<Compiled<'p>>,
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
        bindings: Vec<Compiled<'p>>,
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
            // A key evaluation failure must not fail the query (the
            // expression might never be reached under the inner plan's own
            // evaluation order) — run uncached.
            let key: std::result::Result<Vec<Value>, _> =
                self.bindings.iter().map(|e| e.eval(&sub_env)).collect();
            let set = match key {
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
