//! Streaming unary operators: σ, generalized projection (Map), binding
//! extension, π, and μ.

use std::collections::VecDeque;
use std::sync::Arc;

use tmql_algebra::Compiled;
use tmql_model::{Record, Result, Shape, ShapeMemo};

use crate::exec::ExecContext;
use crate::op::operator::{op_base, pop_carry, Batch, BoxedOperator, OpBase, Operator};
use crate::op::spill::SpillDedup;
use crate::op::{self, group};

/// Streaming σ: one predicate evaluation (= one `comparisons` tick) per
/// input row.
pub(super) struct FilterOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    pred: Compiled<'p>,
}

impl<'p> FilterOp<'p> {
    pub(super) fn new(base: OpBase<'p>, child: BoxedOperator<'p>, pred: Compiled<'p>) -> Self {
        let base = base.over(&child);
        FilterOp { base, child, pred }
    }
}

impl Operator for FilterOp<'_> {
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            let Some(b) = self.child.pull(ctx)? else {
                return Ok(None);
            };
            let mut out = Vec::new();
            for row in b.rows {
                ctx.metrics.comparisons += 1;
                let env = op::bind(&self.base.env, self.child.row_var(), &row);
                if self.pred.test(&env)? {
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(Some(Batch::new(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close_timed(ctx);
    }
}

/// Streaming generalized projection to a single binding, below the root:
/// it must hand its first occurrences on as they arrive. Dedup state (the
/// set of distinct records seen) is the only resident memory; under a
/// memory budget it spills via [`SpillDedup`], deferring emission of the
/// overflow to a partitioned drain after the input is exhausted. A Map at
/// the root is no operator: the executor's exit evaluates it straight into
/// the result set ([`crate::execute_values`]).
pub(super) struct MapOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    expr: Compiled<'p>,
    /// The shape `(var)` of the rows it emits.
    var: Arc<Shape>,
    dedup: SpillDedup,
}

impl<'p> MapOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        child: BoxedOperator<'p>,
        expr: Compiled<'p>,
        var: &str,
    ) -> Self {
        MapOp {
            base,
            child,
            expr,
            var: op::var_shape(var),
            dedup: SpillDedup::new(),
        }
    }
}

impl Operator for MapOp<'_> {
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.dedup.reset(ctx);
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let OpBase { env, stats, .. } = &mut self.base;
        let (shape, expr) = (self.child.row_var().clone(), &self.expr);
        self.dedup.next_batch(&mut self.child, ctx, stats, |row| {
            let v = expr.eval(&op::bind(env, &shape, &row))?;
            Ok(op::bind_row(&self.var, v))
        })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.dedup.reset(ctx);
        self.child.close_timed(ctx);
    }
}

/// Streaming binding extension (no dedup: input rows stay distinct).
pub(super) struct ExtendOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    expr: Compiled<'p>,
    var: Arc<str>,
    /// The shape of `row ++ (var = value)`, per input row shape.
    shapes: ShapeMemo,
}

impl<'p> ExtendOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        child: BoxedOperator<'p>,
        expr: Compiled<'p>,
        var: &str,
    ) -> Self {
        ExtendOp {
            base,
            child,
            expr,
            var: Arc::from(var),
            shapes: ShapeMemo::default(),
        }
    }
}

impl Operator for ExtendOp<'_> {
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(b) = self.child.pull(ctx)? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(b.len());
        let shape = self.child.row_var();
        for row in b.rows {
            let v = self.expr.eval(&op::bind(&self.base.env, shape, &row))?;
            out.push(op::extend(&self.shapes, (shape, &row), &self.var, v)?);
        }
        Ok(Some(Batch::new(out)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close_timed(ctx);
    }
}

/// Streaming π onto a variable subset, with streaming dedup (spilling via
/// [`SpillDedup`] under a memory budget, like [`MapOp`]).
pub(super) struct ProjectOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    /// The variables kept, as the shape of the rows it emits (or why
    /// they make none).
    vars: Result<Arc<Shape>>,
    dedup: SpillDedup,
}

impl<'p> ProjectOp<'p> {
    pub(super) fn new(base: OpBase<'p>, child: BoxedOperator<'p>, vars: &'p [String]) -> Self {
        ProjectOp {
            base,
            child,
            vars: Shape::new(vars.iter().map(String::as_str)),
            dedup: SpillDedup::new(),
        }
    }
}

impl Operator for ProjectOp<'_> {
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.dedup.reset(ctx);
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let stats = &mut self.base.stats;
        let shape = self.child.row_var().clone();
        self.dedup.next_batch(&mut self.child, ctx, stats, |row| {
            op::project(&shape, &row, self.vars.as_ref().map_err(Clone::clone)?)
        })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.dedup.reset(ctx);
        self.child.close_timed(ctx);
    }
}

/// Streaming μ: each input batch expands independently; a carry buffer
/// caps the emitted batch size despite per-row fan-out.
pub(super) struct UnnestOp<'p> {
    base: OpBase<'p>,
    child: BoxedOperator<'p>,
    expr: Compiled<'p>,
    elem_var: &'p str,
    drop_vars: &'p [String],
    carry: VecDeque<Record>,
    done: bool,
}

impl<'p> UnnestOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        child: BoxedOperator<'p>,
        expr: Compiled<'p>,
        elem_var: &'p str,
        drop_vars: &'p [String],
    ) -> Self {
        UnnestOp {
            base,
            child,
            expr,
            elem_var,
            drop_vars,
            carry: VecDeque::new(),
            done: false,
        }
    }
}

impl Operator for UnnestOp<'_> {
    op_base!(child);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.done = false;
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || self.done {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            match self.child.pull(ctx)? {
                None => self.done = true,
                Some(b) => {
                    let expanded = group::unnest(
                        (&b.rows, self.child.row_var()),
                        &self.expr,
                        self.elem_var,
                        self.drop_vars,
                        &self.base.env,
                    )?;
                    ctx.resident_acquire(expanded.len());
                    self.carry.extend(expanded);
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.child.close_timed(ctx);
    }
}
