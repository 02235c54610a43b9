//! Streaming joins: one operator, [`JoinOp`], drives the nested-loop,
//! index nested-loop and hash algorithms. The left operand streams
//! batch-at-a-time through one carry loop; an [`Algo`] only decides how a
//! left row's candidates are found, and the kernels of [`nl`] / [`hash`]
//! hand each match to the row's [`RowMatch`], which decides the selection
//! fused over the join ([`Emit`]) before it builds a row — so the carry
//! holds only rows the selection kept. The sort-merge join is a breaker
//! (`breaker.rs`) over [`crate::op::merge`].

use std::collections::VecDeque;

use tmql_algebra::{Compiled, Env};
use tmql_model::{ModelError, Record, Result};
use tmql_storage::spill::{RunWriter, SpillFile};

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::operator::{op_base, pop_carry, Batch, BoxedOperator, OpBase, OpStats, Operator};
use crate::op::spill::{self, Drained, KeyFilter, PartFn, Partitions, Side};
use crate::op::{self, hash, nl, Emit, JoinKeys, RowMatch, RowVar};

/// How a [`JoinOp`] finds a left row's candidates.
pub(super) enum Algo<'p> {
    /// Nested loop: every row of the right operand, under `pred` (over a
    /// pair).
    Nl(Compiled<'p>),
    /// Index nested loop: no right operand is built. The secondary index
    /// on `table.attr` is probed with the left row's `key`, which finds
    /// the rows whose attribute equals it under the one equality `=`
    /// reads, and `pred` is re-evaluated per pair — so results match the
    /// nested loop's exactly, and semi/anti membership rewrites become
    /// per-row probes.
    Index {
        table: &'p str,
        attr: &'p str,
        key: Compiled<'p>,
        pred: Compiled<'p>,
    },
    /// Hash: the right operand is the build side, bucketed on the right
    /// keys of `keys`; a left row probes with the left ones, and the
    /// residual checks each key match. Past the memory budget both sides
    /// partition by `build_part` / `probe_part` (grace hash).
    Hash {
        keys: JoinKeys<'p>,
        build_part: PartFn<'p>,
        probe_part: PartFn<'p>,
    },
}

/// What a [`JoinOp`] holds of its right operand.
enum Inner {
    /// Not consumed yet (an index join never consumes one).
    Pending,
    /// Nested loop: the right operand's rows, resident.
    Rows(Vec<Record>),
    /// Nested loop past the budget: the right operand on disk, replayed
    /// chunk-at-a-time against each left batch (block nested loop).
    Runs(Vec<SpillFile>),
    /// Hash: the build side fit — one resident table, the probe side
    /// streams past it.
    Table(hash::HashTable),
    /// Hash past the budget: the build side is in runs, and the probe side
    /// is streaming into `probe` runs split the same way — those of its
    /// rows, that is, whose key hash `filter` has seen on the build side.
    /// The others are answered as they pass.
    Partitioning {
        build: Vec<SpillFile>,
        filter: KeyFilter,
        probe: Vec<RunWriter>,
    },
    /// Hash, both sides on disk: (build, probe) partition pairs. The
    /// partition driver ([`Partitions`]) hands them out, and each joins
    /// independently — an in-memory build over the pair's build rows (its
    /// weight), batch-streamed probes from its probe run.
    Grace(Partitions<2>),
}

/// A streaming join: the left operand streams batch-at-a-time, and what
/// the right one became ([`Inner`]) counts toward
/// [`crate::Metrics::peak_resident_rows`] while it is resident. Past the
/// memory budget the nested loop's right side goes to a run, and the hash
/// join's to grace partitions, where only probe rows that may have a
/// partner are spilled: a row with a NULL key, or a key hash no build row
/// had, takes its dangling answer unspilled.
pub(super) struct JoinOp<'p> {
    base: OpBase<'p>,
    left: BoxedOperator<'p>,
    /// The right operand (none for an index join).
    right: Option<BoxedOperator<'p>>,
    /// The shape of the inner rows: the right operand's, or (index join)
    /// the fetched tuples bound to the path's `var`.
    rs: RowVar,
    emit: Emit<'p>,
    algo: Algo<'p>,
    inner: Inner,
    /// Output rows not yet emitted: those the fused selection kept.
    carry: VecDeque<Record>,
    done: bool,
}

impl<'p> JoinOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        left: BoxedOperator<'p>,
        right: Option<BoxedOperator<'p>>,
        rs: RowVar,
        emit: Emit<'p>,
        algo: Algo<'p>,
    ) -> Self {
        JoinOp {
            base: base.over(&left),
            left,
            right,
            rs,
            emit,
            algo,
            inner: Inner::Pending,
            carry: VecDeque::new(),
            done: false,
        }
    }

    fn release(&mut self, ctx: &mut ExecContext<'_>) {
        match std::mem::replace(&mut self.inner, Inner::Pending) {
            Inner::Rows(rows) => ctx.resident_release(rows.len()),
            Inner::Table(table) => ctx.resident_release(table.len()),
            _ => {}
        }
        ctx.resident_release(self.carry.len());
        self.carry.clear();
    }
}

/// Consume the right operand into what `algo` joins against, buffering
/// while the budget allows and spilling past it (see [`spill::drain_or_spill`]).
fn drain<'p>(
    algo: &Algo<'p>,
    right: &mut BoxedOperator<'p>,
    rs: &RowVar,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    stats: &mut OpStats,
) -> Result<Inner> {
    Ok(match algo {
        Algo::Nl(_) => {
            // Every row to one partition: the spilled inner side is one run.
            let one: PartFn<'_> = Box::new(|_, _, _| Ok(None));
            let side = Side {
                part: &one,
                drop_nullkey: false,
            };
            match spill::drain_or_spill(right, ctx, env, side, stats)? {
                Drained::Mem(rows) => Inner::Rows(rows),
                Drained::Spilled(runs, _) => Inner::Runs(runs),
            }
        }
        Algo::Hash {
            keys, build_part, ..
        } => {
            // NULL keys never match, so build rows with one are dropped
            // before they hit disk.
            let side = Side {
                part: build_part,
                drop_nullkey: true,
            };
            match spill::drain_or_spill(right, ctx, env, side, stats)? {
                Drained::Mem(rows) => {
                    // `build` *moves* the drained rows (already counted by
                    // the drain) into the table; what it does not keep —
                    // NULL-key rows, or everything when it fails — leaves
                    // resident state.
                    let n_in = rows.len();
                    let m = &mut ctx.metrics;
                    let table = hash::build(rows, rs, keys, env, m);
                    ctx.resident_release(n_in - table.as_ref().map_or(0, hash::HashTable::len));
                    Inner::Table(table?)
                }
                // Grace mode: the probe side must partition the same way.
                Drained::Spilled(build, filter) => Inner::Partitioning {
                    build,
                    filter,
                    probe: ctx.spill_runs(spill::SPILL_FANOUT)?,
                },
            }
        }
        Algo::Index { .. } => Inner::Pending,
    })
}

impl Operator for JoinOp<'_> {
    op_base!(@own);

    fn children(&self) -> Vec<&dyn Operator> {
        std::iter::once(&self.left)
            .chain(&self.right)
            .map(|c| c.as_ref())
            .collect()
    }

    fn rebind(&mut self, env: &Env<'_>) {
        self.base.env = env.detach();
        self.left.rebind(env);
        if let Some(right) = &mut self.right {
            right.rebind(env);
        }
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release(ctx);
        self.done = false;
        self.left.open_timed(ctx)?;
        match &mut self.right {
            Some(right) => right.open_timed(ctx),
            None => Ok(()),
        }
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let JoinOp {
            base: OpBase { env, stats, .. },
            left,
            right,
            rs,
            emit,
            algo,
            inner,
            carry,
            done,
        } = self;
        let (env, emit, ls) = (&*env, &*emit, left.row_var().clone());
        if let (Inner::Pending, Some(right)) = (&*inner, right) {
            *inner = drain(algo, right, rs, ctx, env, stats)?;
        }
        let n = ctx.batch_size();
        loop {
            // With a fused selection, what one left batch (or partition)
            // kept goes out before the next is pulled: survivors never sit
            // resident while the left operand refills.
            if carry.len() >= n || *done || (emit.selects() && !carry.is_empty()) {
                return Ok(pop_carry(carry, n, ctx));
            }
            // Grace: the next partition pair, weighing its build rows.
            // Every join kind emits per probe row (or pair), so a pair
            // without probe rows is skipped. Its output comes back counted.
            if let (
                Algo::Hash {
                    keys,
                    build_part,
                    probe_part,
                },
                Inner::Grace(parts),
            ) = (&*algo, &mut *inner)
            {
                let sides = [
                    Side {
                        part: build_part,
                        drop_nullkey: true,
                    },
                    Side {
                        part: probe_part,
                        drop_nullkey: false,
                    },
                ];
                let weight = |[build, _]: &[SpillFile; 2]| build.rows();
                let no_probe = |[_, probe]: &[SpillFile; 2]| probe.is_empty();
                let Some(part) = parts.next(ctx, env, sides, weight, no_probe, stats)? else {
                    *done = true;
                    continue;
                };
                carry.extend(spill::run_partition(ctx, part, |[build_f, probe_f], m| {
                    let build = build_f.reader()?.read_all()?;
                    let table = hash::build(build, rs, keys, env, m)?;
                    let mut out = Vec::new();
                    let mut reader = probe_f.reader()?;
                    loop {
                        let batch = reader.read_batch(n)?;
                        if batch.is_empty() {
                            return Ok(out);
                        }
                        let left = (batch.as_slice(), &ls);
                        out.extend(hash::probe(left, &table, keys, emit, env, m)?);
                    }
                })?);
                stats.rows_skipped += emit.take_skipped();
                continue;
            }
            let Some(b) = left.pull(ctx)? else {
                // The probe side has ended: a partitioning hash join goes
                // on to its partition pairs.
                match inner {
                    Inner::Partitioning { build, probe, .. } => {
                        let probe = spill::finish_runs(std::mem::take(probe), ctx)?;
                        *inner = Inner::Grace(Partitions::new([std::mem::take(build), probe]));
                    }
                    _ => *done = true,
                }
                continue;
            };
            let left_rows = (b.rows.as_slice(), &ls);
            let mut out = Vec::new();
            match (&*algo, &mut *inner) {
                (Algo::Nl(pred), inner) => {
                    let mut state = vec![RowMatch::default(); b.len()];
                    let mut chunk = |rows: &[Record], m: &mut Metrics| {
                        let inner = (rows, &*rs);
                        nl::join_chunk(left_rows, inner, pred, emit, env, m, &mut state, &mut out)
                    };
                    match inner {
                        Inner::Rows(rows) => chunk(rows, &mut ctx.metrics)?,
                        // Block nested loop: replay the run in batch-sized
                        // chunks against this left block.
                        Inner::Runs(runs) => {
                            for run in runs.iter() {
                                let mut reader = run.reader()?;
                                loop {
                                    let rows = reader.read_batch(n)?;
                                    if rows.is_empty() {
                                        break;
                                    }
                                    ctx.resident_acquire(rows.len());
                                    let res = chunk(&rows, &mut ctx.metrics);
                                    ctx.resident_release(rows.len());
                                    res?;
                                }
                            }
                        }
                        _ => {}
                    }
                    let m = &mut ctx.metrics;
                    nl::finish_block(left_rows, emit, env, m, &mut state, &mut out)?;
                }
                (
                    Algo::Index {
                        table,
                        attr,
                        key,
                        pred,
                    },
                    _,
                ) => {
                    let catalog = ctx.catalog;
                    let idx = catalog.index_on(table, attr).ok_or_else(|| {
                        ModelError::SchemaError(format!(
                            "plan expects an index on {table}.{attr} but none exists"
                        ))
                    })?;
                    let t = catalog.table(table)?;
                    let mut state = [RowMatch::default()];
                    for l in &b.rows {
                        let positions = idx.probe_eq(&key.eval(&op::bind(env, &ls, l))?);
                        ctx.metrics.index_probes += 1;
                        ctx.metrics.index_hits += positions.len() as u64;
                        let outer = (std::slice::from_ref(l), &ls);
                        // Candidates stream in position-ascending chunks so
                        // one wide probe (a hot key) never materializes
                        // more than a batch at a time.
                        for chunk in positions.chunks(n.max(1)) {
                            let fetched = t.fetch_rows(chunk)?;
                            let m = &mut ctx.metrics;
                            let inner = (fetched.as_slice(), &*rs);
                            nl::join_chunk(outer, inner, pred, emit, env, m, &mut state, &mut out)?;
                        }
                        let m = &mut ctx.metrics;
                        nl::finish_block(outer, emit, env, m, &mut state, &mut out)?;
                    }
                }
                (Algo::Hash { keys, .. }, Inner::Table(table)) => {
                    let m = &mut ctx.metrics;
                    out = hash::probe(left_rows, table, keys, emit, env, m)?;
                }
                // Partitioning pass: a probe row goes to the run its hash
                // selects if a build row may share its key, and else takes
                // the dangling answer here. It is counted as the probe it
                // no longer needs.
                (Algo::Hash { probe_part, .. }, Inner::Partitioning { filter, probe, .. }) => {
                    for l in &b.rows {
                        match probe_part(l, env, 0)? {
                            Some(h) if filter.may_contain(h) => {
                                let run = &mut probe[spill::run_of(h)];
                                spill::write_spilled(run, l, &mut ctx.metrics, stats)?;
                            }
                            _ => {
                                ctx.metrics.hash_probes += 1;
                                ctx.metrics.spill_rows_filtered += 1;
                                stats.spill_rows_filtered += 1;
                                let m = &mut ctx.metrics;
                                RowMatch::default().finish(emit, (&ls, l), env, m, &mut out)?;
                            }
                        }
                    }
                }
                // A hash join's build side was drained above, and grace
                // answers no left batch.
                (Algo::Hash { .. }, _) => {}
            }
            stats.rows_skipped += emit.take_skipped();
            ctx.resident_acquire(out.len());
            carry.extend(out);
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release(ctx);
        self.left.close_timed(ctx);
        if let Some(right) = &mut self.right {
            right.close_timed(ctx);
        }
    }
}
