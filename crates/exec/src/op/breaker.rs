//! The pipeline breaker over a materialized kernel: ν / ν* / GROUP BY (one
//! input), sort-merge join and set operations (two).

use std::collections::VecDeque;

use tmql_algebra::Env;
use tmql_model::{Record, Result};
use tmql_storage::spill::SpillFile;

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::operator::{op_base, pop_carry, Batch, BoxedOperator, OpBase, OpStats, Operator};
use crate::op::spill::{self, total_rows, Drained, PartFn, Partitions, Side};
use crate::op::{Rows, Shape};

/// The whole-input kernel of a breaker over `N` inputs, each a slice of rows
/// and the shape its operator emits them in, counting into the metrics and
/// the breaker's own counters. `Fn`, as it runs once per spill partition.
pub(super) type Kernel<'p, const N: usize> =
    Box<dyn Fn([Rows<'_>; N], &Env<'_>, &mut Metrics, &mut OpStats) -> Result<Vec<Record>> + 'p>;

/// A pipeline breaker: drains its `N` inputs, runs a materialized kernel
/// over them, then re-emits the result in batches.
///
/// Under a memory budget — which bounds the breaker's *combined* input
/// state — the inputs partition on keys that co-locate every interacting
/// set of rows (grouping keys; equi-join keys; whole output values for
/// set operations), and the kernel runs once per partition
/// ([`Partitions`]): per-partition outputs concatenate to the in-memory
/// result, up to emission order, which set semantics absorbs. If only a
/// later input overflows, the already-buffered ones are partitioned post
/// hoc so the pairing stays aligned.
pub(super) struct Breaker<'p, const N: usize> {
    base: OpBase<'p>,
    inputs: [BoxedOperator<'p>; N],
    parts: [PartFn<'p>; N],
    kernel: Kernel<'p, N>,
    /// Kernel output not yet emitted.
    out: VecDeque<Record>,
    /// Drained input rows this operator holds in the resident gauge.
    /// `close` releases them, so a failing kernel cannot leak them.
    held: usize,
    /// The inputs have been consumed.
    started: bool,
    /// Spilled inputs still to run the kernel over.
    grace: Option<Partitions<N>>,
}

impl<'p, const N: usize> Breaker<'p, N> {
    pub(super) fn new(
        base: OpBase<'p>,
        parts: [PartFn<'p>; N],
        inputs: [BoxedOperator<'p>; N],
        kernel: Kernel<'p, N>,
    ) -> Self {
        Breaker {
            base,
            inputs,
            parts,
            kernel,
            out: VecDeque::new(),
            held: 0,
            started: false,
            grace: None,
        }
    }

    fn sides<'a>(parts: &'a [PartFn<'p>; N]) -> [Side<'a, 'p>; N] {
        std::array::from_fn(|i| Side {
            part: &parts[i],
            drop_nullkey: false,
        })
    }

    /// Drain every input, then either run the kernel in memory or bring
    /// all inputs to the partitioned form.
    fn consume(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let OpBase { env, stats, .. } = &mut self.base;
        let env = &*env;
        let sides = Self::sides(&self.parts);
        let mut drained = Vec::with_capacity(N);
        for (input, side) in self.inputs.iter_mut().zip(sides) {
            let d = spill::drain_or_spill(input, ctx, env, side, stats)?;
            if let Drained::Mem(rows) = &d {
                self.held += rows.len();
            }
            drained.push(d);
        }
        let mem: Vec<&[Record]> = drained
            .iter()
            .filter_map(|d| match d {
                Drained::Mem(rows) => Some(rows.as_slice()),
                Drained::Spilled(..) => None,
            })
            .collect();
        // All `N` in memory — and inputs that each fit must still spill
        // when their sum overflows.
        let fits = !ctx.over_budget(self.held);
        if let (Ok(mem), true) = (<[&[Record]; N]>::try_from(mem), fits) {
            let rows = std::array::from_fn(|i| (mem[i], self.inputs[i].shape()));
            let out = (self.kernel)(rows, env, &mut ctx.metrics, stats)?;
            ctx.resident_acquire(out.len());
            self.out = out.into();
        } else {
            let mut files = Vec::with_capacity(N);
            for (d, side) in drained.into_iter().zip(sides) {
                files.push(match d {
                    // The key filter goes unused: filtering one input of a
                    // breaker by the other's keys is not taken.
                    Drained::Spilled(files, _) => files,
                    Drained::Mem(rows) => spill::spill_rows(rows, ctx, env, side, stats)?,
                });
            }
            self.grace = <[Vec<SpillFile>; N]>::try_from(files)
                .ok()
                .map(Partitions::new);
        }
        ctx.resident_release(self.held);
        self.held = 0;
        Ok(())
    }

    fn release(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.out.len() + self.held);
        self.out.clear();
        self.held = 0;
        self.started = false;
        self.grace = None;
    }
}

impl<const N: usize> Operator for Breaker<'_, N> {
    op_base!([inputs]);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release(ctx);
        self.inputs.iter_mut().try_for_each(|c| c.open_timed(ctx))
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            if let Some(b) = pop_carry(&mut self.out, ctx.batch_size(), ctx) {
                return Ok(Some(b));
            }
            if !self.started {
                self.started = true;
                self.consume(ctx)?;
                continue;
            }
            let Some(grace) = self.grace.as_mut() else {
                return Ok(None);
            };
            // A partition weighs all its rows (the kernel holds every
            // input); one with no rows at all has nothing to produce.
            let OpBase { env, stats, .. } = &mut self.base;
            let env = &*env;
            let sides = Self::sides(&self.parts);
            let all_empty = |files: &[SpillFile; N]| files.iter().all(SpillFile::is_empty);
            let Some(part) = grace.next(ctx, env, sides, total_rows, all_empty, stats)? else {
                self.grace = None;
                return Ok(None);
            };
            let kernel = &self.kernel;
            let shapes: [&Shape; N] = std::array::from_fn(|i| self.inputs[i].shape());
            self.out.extend(spill::run_partition(ctx, part, |files, m| {
                let mut inputs = Vec::with_capacity(N);
                for f in &files {
                    inputs.push(f.reader()?.read_all()?);
                }
                kernel(
                    std::array::from_fn(|i| (inputs[i].as_slice(), shapes[i])),
                    env,
                    m,
                    stats,
                )
            })?);
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release(ctx);
        for c in &mut self.inputs {
            c.close_timed(ctx);
        }
    }
}
