//! Streaming leaves: table scan, index scan, set-expression scan.

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;

use tmql_algebra::{eval, CmpOp, Compiled, ScalarExpr};
use tmql_model::{ModelError, Record, Result, Shape, Value};
use tmql_storage::spill::RunReader;
use tmql_storage::RowTest;

use crate::exec::ExecContext;
use crate::op;
use crate::op::operator::{op_base, pop_carry, Batch, OpBase, Operator};
use crate::planner::scan_pretest;

/// Scan over a stored table — with the selection directly over it fused
/// in, when there is one; reads row ranges through
/// [`tmql_storage::Table::batch_where`], never cloning the whole extension.
///
/// Each refill reads the next `batch_size` rows of the table (disk-backed
/// tables stream the pages they need through the buffer pool) into a carry
/// queue, so emitted batches keep the table's order and
/// `peak_resident_rows` stays bounded by one batch.
///
/// A selection is applied in two steps. `open` evaluates the keys of the
/// predicate's leading `var.attr ⟨cmp⟩ key` conjuncts
/// ([`scan_pretest`]) against the correlation environment — so a
/// correlated key follows every `rebind`, as [`IndexScanOp::probe`]'s
/// does — into a [`RowTest`] that storage runs on each stored row before
/// materializing it. Its survivors are a candidate superset: each is
/// bound and put through the whole predicate, exactly as a `Filter` over
/// the scan evaluated it, so results and errors are what they were. The
/// rows it emits are the handles storage returned — the plan, not an
/// envelope per row, says which variable they are bound to. The
/// work counters are too: a visited row is one `rows_scanned`, one
/// `comparisons` and — standing for the scan's hand-over to the selection,
/// which now happens in place — one `rows_emitted`, whether or not the
/// pre-test let it through.
pub(super) struct ScanTableOp<'p> {
    base: OpBase<'p>,
    table: &'p str,
    pred: Option<Compiled<'p>>,
    /// The pre-testable conjuncts of `pred`, keys unevaluated: `open`
    /// evaluates them once over the correlation environment alone.
    sargable: Vec<(Arc<str>, CmpOp, ScalarExpr)>,
    /// What `open` made of them (empty: storage rejects nothing).
    test: RowTest,
    pos: usize,
    carry: VecDeque<Record>,
    exhausted: bool,
}

impl<'p> ScanTableOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        table: &'p str,
        var: &str,
        pred: Option<&'p ScalarExpr>,
    ) -> Self {
        ScanTableOp {
            base,
            table,
            pred: pred.map(|p| Compiled::new(p, &[&[var.to_string()]])),
            sargable: pred.map_or_else(Vec::new, |p| scan_pretest(p, var)),
            test: RowTest::default(),
            pos: 0,
            carry: VecDeque::new(),
            exhausted: false,
        }
    }
}

impl Operator for ScanTableOp<'_> {
    op_base!();

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.close(ctx);
        self.pos = 0;
        self.exhausted = false;
        // A key that fails to evaluate ends the pre-test before its
        // conjunct: the rows that reach it raise the error themselves.
        let env = &self.base.env;
        let keys = self.sargable.iter().map_while(|(attr, op, key)| {
            let key = eval(key, env).ok()?;
            Some((attr.clone(), *op, key))
        });
        self.test = RowTest::new(keys.collect());
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if let Some(b) = pop_carry(&mut self.carry, n, ctx) {
                return Ok(Some(b));
            }
            if self.exhausted {
                return Ok(None);
            }
            // Owned rows: in-memory tables hand out handles to their shared
            // rows; disk-backed tables stream the needed pages through the
            // buffer pool.
            let t = ctx.catalog.table(self.table)?;
            let (rows, visited) = t.batch_where(self.pos, n, &self.test)?;
            self.exhausted = visited < n;
            self.pos += visited;
            ctx.metrics.rows_scanned += visited as u64;
            if let Some(pred) = &self.pred {
                ctx.metrics.comparisons += visited as u64;
                ctx.metrics.rows_emitted += visited as u64;
                self.base.stats.rows_skipped += (visited - rows.len()) as u64;
                let OpBase { env, row_var, .. } = &self.base;
                for row in rows {
                    if pred.test(&op::bind(env, row_var, &row))? {
                        ctx.resident_acquire(1);
                        self.carry.push_back(row);
                    }
                }
            } else {
                ctx.resident_acquire(rows.len());
                self.carry.extend(rows);
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
    }
}

/// Index-backed selection: probe the secondary index on `table.attr` for
/// the candidate row positions once at first pull, then stream them in
/// ascending position order through [`tmql_storage::Table::fetch_rows`]
/// (consecutive candidates coalesce into single page-friendly batch
/// reads). The probe is exact for the indexed conjunct (it reads the same
/// equality and order `CmpOp::test` does), and the full original predicate
/// is re-evaluated against every candidate before it is emitted.
pub(super) struct IndexScanOp<'p> {
    base: OpBase<'p>,
    table: &'p str,
    attr: &'p str,
    /// The probe's keys, over the correlation environment alone.
    eq: Option<Compiled<'p>>,
    lo: Bound<Compiled<'p>>,
    hi: Bound<Compiled<'p>>,
    pred: Compiled<'p>,
    /// Candidate positions (ascending), computed at first `next_batch`.
    positions: Option<Vec<usize>>,
    cursor: usize,
}

impl<'p> IndexScanOp<'p> {
    #[allow(clippy::too_many_arguments)] // the plan node's fields
    pub(super) fn new(
        base: OpBase<'p>,
        table: &'p str,
        var: &str,
        attr: &'p str,
        eq: Option<&'p ScalarExpr>,
        lo: Bound<&'p ScalarExpr>,
        hi: Bound<&'p ScalarExpr>,
        pred: &'p ScalarExpr,
    ) -> Self {
        let key = |e: &'p ScalarExpr| Compiled::new(e, &[]);
        IndexScanOp {
            base,
            table,
            attr,
            eq: eq.map(key),
            lo: lo.map(key),
            hi: hi.map(key),
            pred: Compiled::new(pred, &[&[var.to_string()]]),
            positions: None,
            cursor: 0,
        }
    }

    fn probe(&mut self, ctx: &mut ExecContext<'_>) -> Result<Vec<usize>> {
        let idx = ctx.catalog.index_on(self.table, self.attr).ok_or_else(|| {
            ModelError::SchemaError(format!(
                "plan expects an index on {}.{} but none exists",
                self.table, self.attr
            ))
        })?;
        let env = &self.base.env;
        let positions = match &self.eq {
            Some(eq) => idx.probe_eq(&eq.eval(env)?),
            None => {
                let bound = |b: Bound<&Compiled<'_>>| -> Result<Bound<Value>> {
                    Ok(match b {
                        Bound::Included(e) => Bound::Included(e.eval(env)?),
                        Bound::Excluded(e) => Bound::Excluded(e.eval(env)?),
                        Bound::Unbounded => Bound::Unbounded,
                    })
                };
                let (lo, hi) = (bound(self.lo.as_ref())?, bound(self.hi.as_ref())?);
                idx.probe_range(lo.as_ref(), hi.as_ref())
            }
        };
        ctx.metrics.index_probes += 1;
        ctx.metrics.index_hits += positions.len() as u64;
        Ok(positions)
    }
}

impl Operator for IndexScanOp<'_> {
    op_base!();

    fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.positions = None;
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.positions.is_none() {
            self.positions = Some(self.probe(ctx)?);
        }
        let positions = self.positions.as_deref().unwrap_or_default();
        let n = ctx.batch_size();
        let t = ctx.catalog.table(self.table)?;
        let mut rows = Vec::with_capacity(n.min(positions.len().saturating_sub(self.cursor)));
        while rows.is_empty() && self.cursor < positions.len() {
            let end = (self.cursor + n).min(positions.len());
            let OpBase { env, row_var, .. } = &self.base;
            for row in t.fetch_rows(&positions[self.cursor..end])? {
                ctx.metrics.comparisons += 1;
                if self.pred.test(&op::bind(env, row_var, &row))? {
                    rows.push(row);
                }
            }
            self.cursor = end;
        }
        Ok((!rows.is_empty()).then(|| Batch::new(rows)))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) {
        self.positions = None;
        self.cursor = 0;
    }
}

/// Iterate a set expression (correlated or constant): the set value is one
/// evaluation, buffered and re-emitted in batches. The buffered set is
/// resident state (it counts toward
/// [`Metrics::peak_resident_rows`](crate::Metrics::peak_resident_rows));
/// under a memory budget only the first budget-many elements stay in
/// memory and the overflow spills to a run that streams back after the
/// buffer drains.
pub(super) struct ScanExprOp<'p> {
    base: OpBase<'p>,
    /// Over the correlation environment alone.
    expr: Compiled<'p>,
    /// The shape `(var)` of the rows it emits.
    var: Arc<Shape>,
    items: Option<VecDeque<Value>>,
    /// The spilled tail, being read back.
    overflow: Option<RunReader>,
}

impl<'p> ScanExprOp<'p> {
    pub(super) fn new(base: OpBase<'p>, expr: &'p ScalarExpr, var: &str) -> Self {
        ScanExprOp {
            base,
            expr: Compiled::new(expr, &[]),
            var: op::var_shape(var),
            items: None,
            overflow: None,
        }
    }

    /// Evaluate the set; keep a budget's worth resident and send the tail
    /// to disk as ready-to-emit rows.
    fn load(&mut self, ctx: &mut ExecContext<'_>) -> Result<VecDeque<Value>> {
        let set = self.expr.eval(&self.base.env)?;
        let mut items: VecDeque<Value> = set.as_set()?.iter().cloned().collect();
        if let Some(keep) = ctx.memory_budget_rows().filter(|b| items.len() > *b) {
            let mut w = ctx.spill_run()?;
            for item in items.drain(keep..) {
                w.write(&op::bind_row(&self.var, item))?;
            }
            let spilled = w.rows();
            ctx.metrics.rows_spilled += spilled;
            ctx.metrics.spill_partitions += 1;
            self.base.stats.rows_spilled += spilled;
            self.overflow = Some(w.finish()?.reader()?);
        }
        ctx.resident_acquire(items.len());
        Ok(items)
    }
}

impl Operator for ScanExprOp<'_> {
    op_base!();

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.close(ctx);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        let mut items = match self.items.take() {
            Some(items) => items,
            None => self.load(ctx)?,
        };
        let k = n.min(items.len());
        let mut rows: Vec<Record> = items
            .drain(..k)
            .map(|item| op::bind_row(&self.var, item))
            .collect();
        self.items = Some(items);
        ctx.resident_release(k);
        if rows.is_empty() {
            // Memory drained: stream the spilled tail, if any.
            if let Some(reader) = self.overflow.as_mut() {
                rows = reader.read_batch(n)?;
            }
        }
        ctx.metrics.rows_scanned += rows.len() as u64;
        Ok((!rows.is_empty()).then(|| Batch::new(rows)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(items) = self.items.take() {
            ctx.resident_release(items.len());
        }
        self.overflow = None;
    }
}
