//! Streaming joins: nested-loop, index nested-loop and hash. Each drives
//! the five-kind kernels of [`nl`] / [`hash`]; the sort-merge join is a
//! breaker (`breaker.rs`) over [`crate::op::merge`].

use std::collections::VecDeque;

use tmql_algebra::{eval, ScalarExpr};
use tmql_model::{Record, Result};
use tmql_storage::spill::{RunWriter, SpillFile};

use crate::exec::ExecContext;
use crate::op::operator::{op_base, pop_carry, Batch, BoxedOperator, OpBase, Operator};
use crate::op::spill::{self, keys_part, Drained, KeyFilter, PartFn, Partitions, Side};
use crate::op::{self, hash, nl, Shape};
use crate::physical::JoinKind;

/// The materialized inner side of a nested-loop join: resident, or — past
/// the memory budget — a single on-disk run replayed per outer block.
enum NlInner {
    Mem(Vec<Record>),
    Spilled(SpillFile),
}

/// Nested-loop join: materializes the inner (right) operand once, streams
/// the outer (left) operand batch-at-a-time. The materialized inner side
/// counts toward [`crate::Metrics::peak_resident_rows`]; under a memory budget
/// it spills to a run instead, and each outer batch block-joins against
/// the run streamed back chunk-at-a-time ([`nl::join_chunk`] /
/// [`nl::finish_block`] carry per-row match state across chunks, so
/// semi/anti/outer/nest semantics survive the chunking).
pub(super) struct NlJoinOp<'p> {
    base: OpBase<'p>,
    left: BoxedOperator<'p>,
    right: BoxedOperator<'p>,
    pred: &'p ScalarExpr,
    kind: &'p JoinKind,
    inner: Option<NlInner>,
    carry: VecDeque<Record>,
    done: bool,
}

impl<'p> NlJoinOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        left: BoxedOperator<'p>,
        right: BoxedOperator<'p>,
        pred: &'p ScalarExpr,
        kind: &'p JoinKind,
    ) -> Self {
        NlJoinOp {
            base: base.over(&left),
            left,
            right,
            pred,
            kind,
            inner: None,
            carry: VecDeque::new(),
            done: false,
        }
    }

    fn release(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(NlInner::Mem(r)) = self.inner.take() {
            ctx.resident_release(r.len());
        }
        ctx.resident_release(self.carry.len());
        self.carry.clear();
    }

    /// Drain the right child, tracking residency as it accumulates; once
    /// the buffer exceeds the budget, move it (and the rest of the
    /// stream) into one spill run.
    fn materialize_inner(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let mut rows: Vec<Record> = Vec::new();
        let mut writer = None;
        let mut drain = || -> Result<()> {
            while let Some(b) = self.right.pull(ctx)? {
                match writer.as_mut() {
                    None => {
                        ctx.resident_acquire(b.len());
                        rows.extend(b.rows);
                        if ctx.over_budget(rows.len()) {
                            let mut w = ctx.spill_run()?;
                            for r in &rows {
                                w.write(r)?;
                            }
                            ctx.resident_release(rows.len());
                            rows.clear();
                            writer = Some(w);
                        }
                    }
                    Some(w) => {
                        for r in &b.rows {
                            w.write(r)?;
                        }
                    }
                }
            }
            Ok(())
        };
        // The buffer is local until the drain completes: when the child
        // or a spill write fails, whatever it still holds leaves the gauge.
        if let Err(e) = drain() {
            ctx.resident_release(rows.len());
            return Err(e);
        }
        self.inner = Some(match writer {
            None => NlInner::Mem(rows),
            Some(w) => {
                let spilled = w.rows();
                ctx.metrics.rows_spilled += spilled;
                ctx.metrics.spill_partitions += 1;
                self.base.stats.rows_spilled += spilled;
                NlInner::Spilled(w.finish()?)
            }
        });
        Ok(())
    }
}

impl Operator for NlJoinOp<'_> {
    op_base!(left, right);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release(ctx);
        self.done = false;
        self.left.open_timed(ctx)?;
        self.right.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.inner.is_none() {
            self.materialize_inner(ctx)?;
        }
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || self.done {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            match self.left.pull(ctx)? {
                None => self.done = true,
                Some(b) => {
                    let left = (b.rows.as_slice(), self.left.shape());
                    let (rs, env) = (self.right.shape(), &self.base.env);
                    let out = match self.inner.as_ref().expect("materialized above") {
                        NlInner::Mem(right) => nl::join(
                            left,
                            (right, rs),
                            self.pred,
                            self.kind,
                            env,
                            &mut ctx.metrics,
                        )?,
                        NlInner::Spilled(file) => {
                            // Block nested loop: replay the run in
                            // batch-sized chunks against this outer block.
                            let mut state = nl::BlockState::new(b.rows.len(), self.kind);
                            let mut out = Vec::new();
                            let mut reader = file.reader()?;
                            loop {
                                let chunk = reader.read_batch(n)?;
                                if chunk.is_empty() {
                                    break;
                                }
                                ctx.resident_acquire(chunk.len());
                                let res = nl::join_chunk(
                                    left,
                                    (&chunk, rs),
                                    self.pred,
                                    self.kind,
                                    env,
                                    &mut ctx.metrics,
                                    &mut state,
                                    &mut out,
                                );
                                ctx.resident_release(chunk.len());
                                res?;
                            }
                            nl::finish_block(left, self.kind, &mut state, &mut out)?;
                            out
                        }
                    };
                    ctx.resident_acquire(out.len());
                    self.carry.extend(out);
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release(ctx);
        self.left.close_timed(ctx);
        self.right.close_timed(ctx);
    }
}

/// Index nested-loop join: the inner table is never scanned — for each
/// outer row the join key is evaluated and the secondary index on
/// `right_table.attr` probed for candidate inner positions, which are
/// fetched and run through the shared nested-loop match/emit kernel
/// ([`nl::join_chunk`] + [`nl::finish_block`] with a one-row outer
/// block). A probe finds the rows whose attribute equals the key under
/// the one equality `=` reads, and the kernel re-evaluates the full join
/// predicate per pair, so results match `NlJoin` exactly for every
/// [`JoinKind`] — semi/anti membership rewrites become per-row probes.
pub(super) struct IndexNLJoinOp<'p> {
    base: OpBase<'p>,
    left: BoxedOperator<'p>,
    right_table: &'p str,
    /// The fetched inner rows: bare tuples bound to the plan's `right_var`.
    right: Shape,
    attr: &'p str,
    key: &'p ScalarExpr,
    pred: &'p ScalarExpr,
    kind: &'p JoinKind,
    carry: VecDeque<Record>,
    done: bool,
}

impl<'p> IndexNLJoinOp<'p> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        base: OpBase<'p>,
        left: BoxedOperator<'p>,
        right_table: &'p str,
        right_var: &str,
        attr: &'p str,
        key: &'p ScalarExpr,
        pred: &'p ScalarExpr,
        kind: &'p JoinKind,
    ) -> Self {
        IndexNLJoinOp {
            base: base.over(&left),
            left,
            right_table,
            right: Shape::bare(right_var),
            attr,
            key,
            pred,
            kind,
            carry: VecDeque::new(),
            done: false,
        }
    }

    /// Probe + match one outer row, appending its output to `out`.
    fn probe_row(
        &mut self,
        l: &Record,
        ctx: &mut ExecContext<'_>,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        let idx = ctx
            .catalog
            .index_on(self.right_table, self.attr)
            .ok_or_else(|| {
                tmql_model::ModelError::SchemaError(format!(
                    "plan expects an index on {}.{} but none exists",
                    self.right_table, self.attr
                ))
            })?;
        let (ls, env) = (self.left.shape(), &self.base.env);
        let key = eval(self.key, &op::bind(env, ls, l))?;
        let positions = idx.probe_eq(&key);
        ctx.metrics.index_probes += 1;
        ctx.metrics.index_hits += positions.len() as u64;
        let t = ctx.catalog.table(self.right_table)?;
        let mut state = nl::BlockState::new(1, self.kind);
        let outer = (std::slice::from_ref(l), ls);
        // Candidates stream in position-ascending chunks so one wide probe
        // (a hot key) never materializes more than a batch at a time.
        let n = ctx.batch_size();
        for chunk in positions.chunks(n.max(1)) {
            let inner = t.fetch_rows(chunk)?;
            nl::join_chunk(
                outer,
                (&inner, &self.right),
                self.pred,
                self.kind,
                env,
                &mut ctx.metrics,
                &mut state,
                out,
            )?;
        }
        nl::finish_block(outer, self.kind, &mut state, out)
    }
}

impl Operator for IndexNLJoinOp<'_> {
    op_base!(left);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.done = false;
        self.left.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || self.done {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            match self.left.pull(ctx)? {
                None => self.done = true,
                Some(b) => {
                    let mut out = Vec::new();
                    for l in &b.rows {
                        self.probe_row(l, ctx, &mut out)?;
                    }
                    ctx.resident_acquire(out.len());
                    self.carry.extend(out);
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.left.close_timed(ctx);
    }
}

/// What became of the build (right) side of a hash join.
enum Build<'p> {
    /// Not consumed yet.
    Pending,
    /// It fit: one resident table, the probe side streams past it.
    Table(hash::HashTable<'p>),
    /// It overflowed into `build` runs, and the probe side is streaming
    /// into `probe` runs split the same way — those of its rows, that is,
    /// whose key hash `filter` has seen on the build side. The others are
    /// answered as they pass.
    Partitioning {
        build: Vec<SpillFile>,
        filter: KeyFilter,
        probe: Vec<RunWriter>,
    },
    /// Both sides are on disk: (build, probe) partition pairs.
    Grace(Partitions<2>),
}

/// Hash join: the build side (right) is the pipeline breaker; the probe
/// side (left) streams. Under a memory budget the build switches to
/// **grace hash**: both sides hash-partition to spill files on the join
/// key, then the partition driver ([`Partitions`]) hands out the pairs
/// and each joins independently — an in-memory build over the
/// partition's build rows (its weight), batch-streamed probes from its
/// probe run. Only probe rows that may have a partner get that far: the
/// partitioning pass answers a row with a NULL key, or a key hash no
/// build row had, with its kind's dangling output, unspilled.
pub(super) struct HashJoinOp<'p> {
    base: OpBase<'p>,
    left: BoxedOperator<'p>,
    right: BoxedOperator<'p>,
    left_keys: &'p [ScalarExpr],
    right_keys: &'p [ScalarExpr],
    residual: Option<&'p ScalarExpr>,
    kind: &'p JoinKind,
    build_part: PartFn<'p>,
    probe_part: PartFn<'p>,
    build: Build<'p>,
    carry: VecDeque<Record>,
    done: bool,
}

impl<'p> HashJoinOp<'p> {
    pub(super) fn new(
        base: OpBase<'p>,
        left: BoxedOperator<'p>,
        right: BoxedOperator<'p>,
        left_keys: &'p [ScalarExpr],
        right_keys: &'p [ScalarExpr],
        residual: Option<&'p ScalarExpr>,
        kind: &'p JoinKind,
    ) -> Self {
        HashJoinOp {
            base: base.over(&left),
            build_part: keys_part(right_keys, right.shape()),
            probe_part: keys_part(left_keys, left.shape()),
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
            build: Build::Pending,
            carry: VecDeque::new(),
            done: false,
        }
    }

    fn release(&mut self, ctx: &mut ExecContext<'_>) {
        if let Build::Table(t) = std::mem::replace(&mut self.build, Build::Pending) {
            ctx.resident_release(t.len());
        }
        ctx.resident_release(self.carry.len());
        self.carry.clear();
    }
}

impl Operator for HashJoinOp<'_> {
    op_base!(left, right);

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release(ctx);
        self.done = false;
        self.left.open_timed(ctx)?;
        self.right.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let (left_keys, right_keys) = (self.left_keys, self.right_keys);
        let (residual, kind) = (self.residual, self.kind);
        // NULL keys never match, so build rows with one are dropped before
        // they hit disk, and NULL-key probe rows are answered before they
        // do (`drop_nullkey` is moot for the probe side: none is written).
        let build_side = Side {
            part: &self.build_part,
            drop_nullkey: true,
        };
        let probe_side = Side {
            part: &self.probe_part,
            drop_nullkey: false,
        };
        let OpBase { env, stats, .. } = &mut self.base;
        let env = &*env;
        let (ls, rs) = (self.left.shape().clone(), self.right.shape().clone());
        if let Build::Pending = self.build {
            self.build = match spill::drain_or_spill(&mut self.right, ctx, env, build_side, stats)?
            {
                Drained::Mem(rows) => {
                    // `build` *moves* the drained rows (already counted by
                    // the drain) into the table; what it does not keep —
                    // NULL-key rows, or everything when it fails — leaves
                    // resident state.
                    let n_in = rows.len();
                    let table = hash::build(rows, &rs, right_keys, env, &mut ctx.metrics);
                    ctx.resident_release(n_in - table.as_ref().map_or(0, hash::HashTable::len));
                    Build::Table(table?)
                }
                // Grace mode: the probe side must partition the same way.
                Drained::Spilled(build, filter) => Build::Partitioning {
                    build,
                    filter,
                    probe: ctx.spill_runs(spill::SPILL_FANOUT)?,
                },
            };
        }
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || self.done {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            let out = match &mut self.build {
                Build::Pending => None,
                // Partitioning pass: a probe row goes to the run its hash
                // selects if a build row may share its key, and else takes
                // the dangling answer here. It is counted as the probe it
                // no longer needs.
                Build::Partitioning {
                    build,
                    filter,
                    probe,
                } => {
                    let Some(b) = self.left.pull(ctx)? else {
                        let probe = spill::finish_runs(std::mem::take(probe), ctx)?;
                        let pairs = Partitions::new([std::mem::take(build), probe]);
                        self.build = Build::Grace(pairs);
                        continue;
                    };
                    let mut out = Vec::new();
                    for l in &b.rows {
                        match (self.probe_part)(l, env, 0)? {
                            Some(h) if filter.may_contain(h) => {
                                let run = &mut probe[spill::run_of(h)];
                                spill::write_spilled(run, l, &mut ctx.metrics, stats)?;
                            }
                            _ => {
                                ctx.metrics.hash_probes += 1;
                                ctx.metrics.spill_rows_filtered += 1;
                                stats.spill_rows_filtered += 1;
                                hash::finish_row(&ls, l, kind, false, &mut Vec::new(), &mut out)?;
                            }
                        }
                    }
                    ctx.resident_acquire(out.len());
                    Some(out)
                }
                // In-memory path: stream probe batches from the left child.
                Build::Table(table) => match self.left.pull(ctx)? {
                    None => None,
                    Some(b) => {
                        let m = &mut ctx.metrics;
                        let left = (b.rows.as_slice(), &ls);
                        let out = hash::probe(left, table, left_keys, residual, kind, env, m)?;
                        ctx.resident_acquire(out.len());
                        Some(out)
                    }
                },
                // Grace path: the next partition pair, weighing its build
                // rows. Every join kind emits per probe row (or pair), so a
                // pair without probe rows is skipped.
                Build::Grace(parts) => parts
                    .next(
                        ctx,
                        env,
                        [build_side, probe_side],
                        |[build, _]| build.rows(),
                        |[_, probe]| probe.is_empty(),
                        stats,
                    )?
                    .map(|part| {
                        spill::run_partition(ctx, part, |[build_f, probe_f], m| {
                            let build_rows = build_f.reader()?.read_all()?;
                            let table = hash::build(build_rows, &rs, right_keys, env, m)?;
                            let mut out = Vec::new();
                            let mut reader = probe_f.reader()?;
                            loop {
                                let batch = reader.read_batch(n)?;
                                if batch.is_empty() {
                                    return Ok(out);
                                }
                                let left = (batch.as_slice(), &ls);
                                out.extend(hash::probe(
                                    left, &table, left_keys, residual, kind, env, m,
                                )?);
                            }
                        })
                    })
                    .transpose()?,
            };
            match out {
                Some(rows) => self.carry.extend(rows),
                None => self.done = true,
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release(ctx);
        self.left.close_timed(ctx);
        self.right.close_timed(ctx);
    }
}
