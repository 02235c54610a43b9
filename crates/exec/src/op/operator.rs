//! Volcano-style streaming operator tree.
//!
//! Every physical operator implements [`Operator`]: `open` / `next_batch`
//! / `close`, where [`next_batch`](Operator::next_batch) produces a
//! [`Batch`] of at most [`ExecContext::batch_size`](crate::exec::ExecContext::batch_size)
//! rows (joins and unnests buffer overflow in a carry queue so batches keep
//! their nominal capacity). Scan / Filter / Map / Extend / Project /
//! Unnest / Apply stream batch-at-a-time; pipeline breakers (the hash join
//! *build side*, the sort-merge sort, ν / GROUP BY grouping, set
//! operations, and dedup state) consume their input before producing, but
//! still **emit** in batches — so memory is bounded by operator *state*
//! (build tables, sort buffers, dedup sets), not by every intermediate
//! result at once. [`Metrics::peak_resident_rows`] tracks exactly that
//! high-water mark; [`Metrics::batches_emitted`] counts the batch traffic.
//!
//! Under [`crate::ExecConfig::memory_budget_rows`] the breakers cap their
//! resident state and spill the excess to disk (grace-hash partitioning of
//! hash joins, partitioned grouping / set-op / sort state, hybrid dedup) —
//! see [`crate::op::spill`].
//!
//! The operator tree borrows the [`PhysPlan`] it was built from (no
//! expression cloning) and owns only its correlation [`Env`].
//! [`Apply`](PhysPlan::Apply) builds its subquery tree **once** and
//! re-opens it per outer row through [`Operator::rebind`] — the true
//! nested loop the paper's unnesting removes, without per-row planning or
//! allocation (see [`crate::op::apply`]).

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tmql_algebra::{eval, eval_predicate, Env, Plan, ScalarExpr};
use tmql_model::{Record, Result, Value};
use tmql_storage::spill::{RunReader, SpillFile};

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::exchange;
use crate::op::spill::{self, Drained, PartFn, SpillDedup, MAX_REPARTITION_DEPTH};
use crate::op::{self, group, hash, merge, nl};
use crate::physical::{JoinKind, PhysPlan};

/// A unit of streamed data: up to `batch_size` rows.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Batch {
    /// The rows (at most the configured batch size for pipelined
    /// operators; never empty when returned from `next_batch`).
    pub rows: Vec<Record>,
}

impl Batch {
    /// Wrap a row vector.
    pub fn new(rows: Vec<Record>) -> Batch {
        Batch { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Per-operator output counters, reported by the profile tree.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Rows this operator has emitted.
    pub rows_out: u64,
    /// Batches this operator has emitted.
    pub batches_out: u64,
    /// Records this operator wrote to spill runs (0 unless a
    /// [`crate::ExecConfig::memory_budget_rows`] forced it to disk;
    /// repartitioning passes re-count their rows, mirroring
    /// [`Metrics::rows_spilled`]).
    pub rows_spilled: u64,
    /// Wall-clock nanoseconds spent inside this operator's `open`,
    /// `next_batch`, and `close` calls, *inclusive* of its children
    /// (a parent's span covers the pulls it issues downstream, exactly
    /// like `EXPLAIN ANALYZE` elsewhere). Always 0 when
    /// [`crate::ExecConfig::collect_timing`] is off. Spans are measured
    /// on the driver thread: a parallel worker wave running inside one
    /// operator's `next_batch` contributes the wave's wall-clock — the
    /// slowest worker, not the sum of per-worker CPU.
    pub wall_nanos: u64,
}

/// A physical operator in the streaming executor.
///
/// Lifecycle: `open` (reset state, recurse into children), then `pull`
/// (the metered wrapper around `next_batch`) until `None`, then `close`
/// (release buffered state, recurse). Implementations return `None` only
/// when exhausted and never return an empty batch.
pub trait Operator {
    /// Display label (mirrors [`PhysPlan::op_label`]).
    fn label(&self) -> String;

    /// Reset to the start of the stream and open children.
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;

    /// Replace the correlation environment wholesale and recurse into
    /// children. `Apply` uses this to re-point one long-lived subquery
    /// tree at the next outer row's bindings before re-`open`ing it;
    /// stream state is untouched (that is `open`'s job).
    fn rebind(&mut self, env: &Env);

    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>>;

    /// Release buffered state and close children.
    fn close(&mut self, ctx: &mut ExecContext<'_>);

    /// Output counters so far.
    fn stats(&self) -> OpStats;

    /// Mutable access for the metering in [`Operator::pull`].
    fn stats_mut(&mut self) -> &mut OpStats;

    /// Children, left to right (for profile rendering).
    fn children(&self) -> Vec<&dyn Operator>;

    /// Metered `next_batch`: updates the global batch/row counters and the
    /// per-operator stats. Parents and drivers call this, not `next_batch`.
    fn pull(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let span = ctx.collect_timing().then(std::time::Instant::now);
        let next = self.next_batch(ctx);
        if let Some(t) = span {
            self.stats_mut().wall_nanos += t.elapsed().as_nanos() as u64;
        }
        match next? {
            Some(b) => {
                ctx.metrics.batches_emitted += 1;
                ctx.metrics.rows_emitted += b.len() as u64;
                let s = self.stats_mut();
                s.batches_out += 1;
                s.rows_out += b.len() as u64;
                Ok(Some(b))
            }
            None => Ok(None),
        }
    }

    /// `open` wrapped in a wall-clock span (when
    /// [`crate::ExecConfig::collect_timing`] is on). Parents and drivers
    /// call this, not `open`, so every operator's span also covers its
    /// setup work.
    fn open_timed(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let span = ctx.collect_timing().then(std::time::Instant::now);
        let r = self.open(ctx);
        if let Some(t) = span {
            self.stats_mut().wall_nanos += t.elapsed().as_nanos() as u64;
        }
        r
    }

    /// `close` wrapped in a wall-clock span, mirroring
    /// [`Operator::open_timed`].
    fn close_timed(&mut self, ctx: &mut ExecContext<'_>) {
        let span = ctx.collect_timing().then(std::time::Instant::now);
        self.close(ctx);
        if let Some(t) = span {
            self.stats_mut().wall_nanos += t.elapsed().as_nanos() as u64;
        }
    }
}

/// An owned operator borrowing plan nodes with lifetime `'p`.
pub type BoxedOperator<'p> = Box<dyn Operator + 'p>;

/// Drain an operator to completion through the metered [`Operator::pull`].
pub fn drain(op: &mut BoxedOperator<'_>, ctx: &mut ExecContext<'_>) -> Result<Vec<Record>> {
    let mut out = Vec::new();
    while let Some(b) = op.pull(ctx)? {
        out.extend(b.rows);
    }
    Ok(out)
}

/// One executed operator's profile line: its tree position, output
/// counters, and (when the caller supplied estimates) the cost model's
/// predicted output rows — estimated vs. actual side by side, which is
/// what makes q-error observable.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Depth in the operator tree (root = 0).
    pub depth: usize,
    /// Operator label (mirrors [`PhysPlan::op_label`]).
    pub label: String,
    /// Rows emitted.
    pub rows_out: u64,
    /// Batches emitted.
    pub batches_out: u64,
    /// Rows this operator spilled to disk (0 without a memory budget).
    pub rows_spilled: u64,
    /// Inclusive wall-clock nanoseconds (see [`OpStats::wall_nanos`];
    /// 0 when timing collection was off).
    pub wall_nanos: u64,
    /// Estimated output rows from the cost model, in the same pre-order
    /// position (None when executed without estimates).
    pub est_rows: Option<f64>,
}

impl OpProfile {
    /// The q-error of this operator's row estimate: `max(est/actual,
    /// actual/est)` with both sides floored at 1 row (so empty outputs
    /// and sub-row estimates stay finite). `None` without an estimate.
    pub fn qerror(&self) -> Option<f64> {
        self.est_rows.map(|est| {
            let est = est.max(1.0);
            let actual = (self.rows_out as f64).max(1.0);
            (est / actual).max(actual / est)
        })
    }
}

/// Collect per-operator profiles in pre-order. `est` supplies estimated
/// rows in the same pre-order (as produced by the cost model's
/// exec-order walk over the physical plan the tree was built from).
pub fn collect_profile(root: &dyn Operator, est: Option<&[f64]>) -> Vec<OpProfile> {
    fn go(
        op: &dyn Operator,
        depth: usize,
        est: Option<&[f64]>,
        idx: &mut usize,
        out: &mut Vec<OpProfile>,
    ) {
        let s = op.stats();
        let est_rows = est.and_then(|v| v.get(*idx)).copied();
        *idx += 1;
        out.push(OpProfile {
            depth,
            label: op.label(),
            rows_out: s.rows_out,
            batches_out: s.batches_out,
            rows_spilled: s.rows_spilled,
            wall_nanos: s.wall_nanos,
            est_rows,
        });
        for c in op.children() {
            go(c, depth + 1, est, idx, out);
        }
    }
    let mut out = Vec::new();
    go(root, 0, est, &mut 0, &mut out);
    out
}

/// Render collected profiles as the indented tree shown by `EXPLAIN
/// ANALYZE`-style output; estimated rows print next to actual rows when
/// present.
pub fn render_profile(entries: &[OpProfile]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&"  ".repeat(e.depth));
        // `spilled=` appears only when the operator actually spilled, so
        // in-memory profiles read exactly as before the spill tier existed.
        let spilled = if e.rows_spilled > 0 {
            format!(" spilled={}", e.rows_spilled)
        } else {
            String::new()
        };
        // `time=` appears only when spans were collected, so profiles
        // taken with `collect_timing` off render exactly as before the
        // observability layer existed.
        let time = if e.wall_nanos > 0 {
            format!(" time={}", tmql_obs::human_duration_nanos(e.wall_nanos))
        } else {
            String::new()
        };
        match e.est_rows {
            Some(est) => out.push_str(&format!(
                "{} [rows={} est={} batches={}{spilled}{time}]\n",
                e.label,
                e.rows_out,
                crate::cost::format_rows(est),
                e.batches_out
            )),
            None => out.push_str(&format!(
                "{} [rows={} batches={}{spilled}{time}]\n",
                e.label, e.rows_out, e.batches_out
            )),
        }
    }
    out
}

/// Render the operator tree with per-operator output metrics (the
/// post-execution profile shown by `EXPLAIN`).
pub fn render_tree(root: &dyn Operator) -> String {
    render_profile(&collect_profile(root, None))
}

/// Partition-key function over equi-join keys: the seeded hash of the
/// evaluated key values, `None` for NULL keys (the caller drops them on
/// build sides and routes them to partition 0 elsewhere).
fn keys_part<'p>(keys: &'p [ScalarExpr]) -> PartFn<'p> {
    Box::new(move |r, env, seed| {
        Ok(
            op::with_row(env, r, |e| op::eval_keys(keys, e))?.map(|vals| {
                let mut h = spill::seed_hasher(seed);
                vals.hash(&mut h);
                h.finish()
            }),
        )
    })
}

/// Partition-key function over a row's output value (set operations
/// compare whole output values, so equal values must co-partition).
fn value_part() -> PartFn<'static> {
    Box::new(|r, _env, seed| {
        let mut h = spill::seed_hasher(seed);
        Plan::row_output_value(r).hash(&mut h);
        Ok(Some(h.finish()))
    })
}

/// Pop up to `n` rows off a carry buffer as a batch (releasing them from
/// the resident-row gauge), or `None` when the buffer is empty.
fn pop_carry(carry: &mut VecDeque<Record>, n: usize, ctx: &mut ExecContext<'_>) -> Option<Batch> {
    if carry.is_empty() {
        return None;
    }
    let k = n.min(carry.len());
    let rows: Vec<Record> = carry.drain(..k).collect();
    ctx.resident_release(rows.len());
    Some(Batch::new(rows))
}

/// Build the operator tree for a physical plan. `env` carries correlation
/// bindings (outer rows of enclosing `Apply` operators); each operator
/// keeps its own copy so subtrees can be re-instantiated per outer row.
pub fn build<'p>(plan: &'p PhysPlan, env: &Env) -> BoxedOperator<'p> {
    match plan {
        PhysPlan::ScanTable { table, var } => Box::new(ScanTableOp {
            table,
            var: Arc::from(var.as_str()),
            pos: 0,
            carry: VecDeque::new(),
            exhausted: false,
            stats: OpStats::default(),
        }),
        PhysPlan::IndexScan {
            table,
            var,
            attr,
            eq,
            lo,
            hi,
            pred,
        } => Box::new(IndexScanOp {
            table,
            var: Arc::from(var.as_str()),
            attr,
            eq: eq.as_ref(),
            lo: lo.as_ref(),
            hi: hi.as_ref(),
            pred,
            env: env.clone(),
            positions: None,
            cursor: 0,
            stats: OpStats::default(),
        }),
        PhysPlan::IndexNLJoin {
            left,
            right_table,
            right_var,
            attr,
            key,
            pred,
            kind,
        } => Box::new(IndexNLJoinOp {
            left: build(left, env),
            right_table,
            right_var: Arc::from(right_var.as_str()),
            attr,
            key,
            pred,
            kind,
            env: env.clone(),
            carry: VecDeque::new(),
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::ScanExpr { expr, var } => Box::new(ScanExprOp {
            expr,
            var: Arc::from(var.as_str()),
            env: env.clone(),
            items: None,
            overflow: None,
            overflow_reader: None,
            stats: OpStats::default(),
        }),
        PhysPlan::Filter { input, pred } => Box::new(FilterOp {
            child: build(input, env),
            pred,
            env: env.clone(),
            stats: OpStats::default(),
        }),
        PhysPlan::Map { input, expr, var } => Box::new(MapOp {
            child: build(input, env),
            expr,
            var: Arc::from(var.as_str()),
            env: env.clone(),
            dedup: SpillDedup::new(),
            sealed: false,
            stats: OpStats::default(),
        }),
        PhysPlan::Extend { input, expr, var } => Box::new(ExtendOp {
            child: build(input, env),
            expr,
            var: Arc::from(var.as_str()),
            env: env.clone(),
            stats: OpStats::default(),
        }),
        PhysPlan::Project { input, vars } => Box::new(ProjectOp {
            child: build(input, env),
            vars: vars.iter().map(String::as_str).collect(),
            dedup: SpillDedup::new(),
            sealed: false,
            stats: OpStats::default(),
        }),
        PhysPlan::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => Box::new(UnnestOp {
            child: build(input, env),
            expr,
            elem_var,
            drop_vars,
            env: env.clone(),
            carry: VecDeque::new(),
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::NlJoin {
            left,
            right,
            pred,
            kind,
        } => Box::new(NlJoinOp {
            left: build(left, env),
            right: build(right, env),
            pred,
            kind,
            env: env.clone(),
            inner: None,
            carry: VecDeque::new(),
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => Box::new(HashJoinOp {
            left: build(left, env),
            right: build(right, env),
            left_keys,
            right_keys,
            residual: residual.as_ref(),
            kind,
            env: env.clone(),
            build_part: keys_part(right_keys),
            probe_part: keys_part(left_keys),
            table: None,
            grace: None,
            built: false,
            carry: VecDeque::new(),
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => Box::new(BinaryBreaker {
            name: format!("MergeJoin[{}]", kind.name()),
            left: build(left, env),
            right: build(right, env),
            env: env.clone(),
            kernel: Box::new(move |l, r, env, m| {
                merge::join(l, r, left_keys, right_keys, residual.as_ref(), kind, env, m)
            }),
            left_part: keys_part(left_keys),
            right_part: keys_part(right_keys),
            out: None,
            grace: None,
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::Nest {
            input,
            keys,
            value,
            label,
            star,
        } => Box::new(UnaryBreaker {
            name: if *star { "Nest[ν*]" } else { "Nest[ν]" }.into(),
            child: build(input, env),
            env: env.clone(),
            kernel: Box::new(move |rows, env, m| {
                group::nest(rows, keys, value, label, *star, env, m)
            }),
            // Groups co-partition by the hash of the grouping fields.
            part: Box::new(move |r, _env, seed| {
                let mut h = spill::seed_hasher(seed);
                for k in keys {
                    r.get(k)?.hash(&mut h);
                }
                Ok(Some(h.finish()))
            }),
            out: None,
            grace: None,
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => Box::new(UnaryBreaker {
            name: "GroupAgg".into(),
            child: build(input, env),
            env: env.clone(),
            kernel: Box::new(move |rows, env, m| group::group_agg(rows, keys, aggs, var, env, m)),
            part: Box::new(move |r, env, seed| {
                let mut h = spill::seed_hasher(seed);
                op::with_row(env, r, |e| {
                    for (_, ke) in keys {
                        eval(ke, e)?.hash(&mut h);
                    }
                    Ok(())
                })?;
                Ok(Some(h.finish()))
            }),
            out: None,
            grace: None,
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::SetOp {
            kind,
            left,
            right,
            var,
        } => Box::new(BinaryBreaker {
            name: "SetOp".into(),
            left: build(left, env),
            right: build(right, env),
            env: env.clone(),
            kernel: Box::new(move |l, r, _env, m| group::set_op(*kind, l, r, var, m)),
            // Equal output values co-partition, so per-partition
            // union/intersect/except concatenate to the global result.
            left_part: value_part(),
            right_part: value_part(),
            out: None,
            grace: None,
            done: false,
            stats: OpStats::default(),
        }),
        PhysPlan::Apply {
            input,
            subquery,
            label,
            bindings,
        } => Box::new(crate::op::apply::ApplyOp::new(
            build(input, env),
            subquery,
            label,
            bindings.as_deref(),
            env.clone(),
        )),
        PhysPlan::Materialize { input } => {
            Box::new(crate::op::apply::MaterializeOp::new(build(input, env)))
        }
        PhysPlan::HashProbe {
            table,
            var,
            attr,
            key,
            pred,
        } => Box::new(crate::op::apply::HashProbeOp::new(
            table,
            var,
            attr,
            key,
            pred,
            env.clone(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Streaming leaves
// ---------------------------------------------------------------------------

/// Cursor scan over a stored table; borrows one batch at a time via
/// [`tmql_storage::Table::batch`], never cloning the whole extension.
///
/// With [`ExecContext::threads`] > 1 the scan becomes morsel-driven: each
/// refill issues one wave of `threads` consecutive row ranges (morsels) to
/// scoped workers — disk-backed tables fault their pages in concurrently
/// through the latch-based buffer pool — and gathers the results in range
/// order into a carry queue, so emitted batches keep the exact serial
/// order and sizes. Morsels are `⌈batch_size / threads⌉` rows each, so a
/// wave holds roughly **one** batch in flight regardless of the worker
/// count: `peak_resident_rows` stays bounded by `O(batch_size)` instead of
/// growing as `threads × batch_size`.
struct ScanTableOp<'p> {
    table: &'p str,
    var: Arc<str>,
    pos: usize,
    carry: VecDeque<Record>,
    exhausted: bool,
    stats: OpStats,
}

impl Operator for ScanTableOp<'_> {
    fn label(&self) -> String {
        format!("Scan({})", self.table)
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.pos = 0;
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.exhausted = false;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        let threads = ctx.threads();
        if threads <= 1 {
            let t = ctx.catalog.table(self.table)?;
            // Owned batches: in-memory tables hand out handles to their
            // shared rows; disk-backed tables stream the needed pages
            // through the buffer pool.
            let rows = op::bind_tuples(&self.var, t.batch(self.pos, n)?);
            if rows.is_empty() {
                return Ok(None);
            }
            self.pos += rows.len();
            ctx.metrics.rows_scanned += rows.len() as u64;
            return Ok(Some(Batch::new(rows)));
        }
        loop {
            if let Some(b) = pop_carry(&mut self.carry, n, ctx) {
                return Ok(Some(b));
            }
            if self.exhausted {
                return Ok(None);
            }
            // One wave: `threads` consecutive morsels totalling about one
            // batch, gathered in order.
            let t = ctx.catalog.table(self.table)?;
            let var = &self.var;
            let m = n.div_ceil(threads).max(1);
            let starts: Vec<usize> = (0..threads).map(|i| self.pos + i * m).collect();
            let results = exchange::scatter(threads, starts, |start| -> Result<Vec<Record>> {
                Ok(op::bind_tuples(var, t.batch(start, m)?))
            });
            for res in results {
                let rows = res?;
                if rows.len() < m {
                    self.exhausted = true;
                }
                self.pos += rows.len();
                ctx.metrics.rows_scanned += rows.len() as u64;
                ctx.resident_acquire(rows.len());
                self.carry.extend(rows);
                if self.exhausted {
                    break;
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
    }

    fn rebind(&mut self, _env: &Env) {}

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![]
    }
}

/// Index-backed selection: probe the secondary index on `table.attr` for
/// the candidate row positions once at first pull, then stream them in
/// ascending position order through [`tmql_storage::Table::fetch_rows`]
/// (consecutive candidates coalesce into single page-friendly batch
/// reads). The probe result is a **superset** of the qualifying rows —
/// int/float key promotion and NaN totality are handled by widening, not
/// by trusting the index — so the full original predicate is re-evaluated
/// against every candidate before it is emitted.
struct IndexScanOp<'p> {
    table: &'p str,
    var: Arc<str>,
    attr: &'p str,
    eq: Option<&'p ScalarExpr>,
    lo: Option<&'p ScalarExpr>,
    hi: Option<&'p ScalarExpr>,
    pred: &'p ScalarExpr,
    env: Env,
    /// Candidate positions (ascending), computed at first `next_batch`.
    positions: Option<Vec<usize>>,
    cursor: usize,
    stats: OpStats,
}

impl IndexScanOp<'_> {
    fn probe(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let idx = ctx.catalog.index_on(self.table, self.attr).ok_or_else(|| {
            tmql_model::ModelError::SchemaError(format!(
                "plan expects an index on {}.{} but none exists",
                self.table, self.attr
            ))
        })?;
        let positions = match self.eq {
            Some(eq) => {
                let key = eval(eq, &mut self.env)?;
                idx.probe_eq(&key)
            }
            None => {
                let lo = self.lo.map(|e| eval(e, &mut self.env)).transpose()?;
                let hi = self.hi.map(|e| eval(e, &mut self.env)).transpose()?;
                idx.probe_range(lo.as_ref(), hi.as_ref())
            }
        };
        ctx.metrics.index_probes += 1;
        ctx.metrics.index_hits += positions.len() as u64;
        self.positions = Some(positions);
        self.cursor = 0;
        Ok(())
    }
}

impl Operator for IndexScanOp<'_> {
    fn label(&self) -> String {
        format!("IndexScan({}.{})", self.table, self.attr)
    }

    fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.positions = None;
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.positions.is_none() {
            self.probe(ctx)?;
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
            for row in candidates {
                let r = op::bind_row(&self.var, Value::Tuple(row));
                ctx.metrics.comparisons += 1;
                if op::with_row(&mut self.env, &r, |e| eval_predicate(self.pred, e))? {
                    rows.push(r);
                }
            }
            if !rows.is_empty() {
                return Ok(Some(Batch::new(rows)));
            }
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) {
        self.positions = None;
        self.cursor = 0;
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![]
    }
}

/// Iterate a set expression (correlated or constant): the set value is one
/// evaluation, buffered and re-emitted in batches. The buffered set is
/// resident state (it counts toward [`Metrics::peak_resident_rows`]);
/// under a memory budget only the first budget-many elements stay in
/// memory and the overflow spills to a run that streams back after the
/// buffer drains.
struct ScanExprOp<'p> {
    expr: &'p ScalarExpr,
    var: Arc<str>,
    env: Env,
    items: Option<VecDeque<Value>>,
    overflow: Option<SpillFile>,
    overflow_reader: Option<RunReader>,
    stats: OpStats,
}

impl ScanExprOp<'_> {
    fn release(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(items) = self.items.take() {
            ctx.resident_release(items.len());
        }
        self.overflow = None;
        self.overflow_reader = None;
    }
}

impl Operator for ScanExprOp<'_> {
    fn label(&self) -> String {
        "ScanExpr".into()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release(ctx);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.items.is_none() && self.overflow.is_none() {
            let set = eval(self.expr, &mut self.env)?;
            let mut items: VecDeque<Value> = set.as_set()?.iter().cloned().collect();
            if ctx.over_budget(items.len()) {
                // Keep a budget's worth resident; the tail goes to disk
                // as ready-to-emit rows.
                let keep = ctx
                    .memory_budget_rows()
                    .expect("over_budget implies a budget");
                let mut w = ctx.spill_runs(1)?.pop().expect("one run requested");
                for item in items.drain(keep..) {
                    w.write(&op::bind_row(&self.var, item))?;
                }
                let spilled = w.rows();
                ctx.metrics.rows_spilled += spilled;
                ctx.metrics.spill_partitions += 1;
                self.stats.rows_spilled += spilled;
                self.overflow = Some(w.finish()?);
            }
            ctx.resident_acquire(items.len());
            self.items = Some(items);
        }
        if let Some(items) = self.items.as_mut() {
            if !items.is_empty() {
                let k = ctx.batch_size().min(items.len());
                let mut rows = Vec::with_capacity(k);
                for _ in 0..k {
                    let item = items.pop_front().expect("k <= len");
                    rows.push(op::bind_row(&self.var, item));
                }
                ctx.resident_release(k);
                ctx.metrics.rows_scanned += rows.len() as u64;
                return Ok(Some(Batch::new(rows)));
            }
        }
        // Memory drained: stream the spilled tail, if any.
        let Some(file) = self.overflow.as_ref() else {
            return Ok(None);
        };
        if self.overflow_reader.is_none() {
            self.overflow_reader = Some(file.reader()?);
        }
        let reader = self.overflow_reader.as_mut().expect("opened above");
        let rows = reader.read_batch(ctx.batch_size())?;
        if rows.is_empty() {
            return Ok(None);
        }
        ctx.metrics.rows_scanned += rows.len() as u64;
        Ok(Some(Batch::new(rows)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![]
    }
}

// ---------------------------------------------------------------------------
// Streaming unary operators
// ---------------------------------------------------------------------------

/// Streaming σ: one predicate evaluation (= one `comparisons` tick) per
/// input row.
struct FilterOp<'p> {
    child: BoxedOperator<'p>,
    pred: &'p ScalarExpr,
    env: Env,
    stats: OpStats,
}

impl Operator for FilterOp<'_> {
    fn label(&self) -> String {
        "Filter".into()
    }

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
                let keep = op::with_row(&mut self.env, &row, |e| eval_predicate(self.pred, e))?;
                if keep {
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

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.child.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Streaming generalized projection to a single binding. Dedup state (the
/// set of distinct records seen) is the only resident memory; under a
/// memory budget it spills via [`SpillDedup`], deferring emission of the
/// overflow to a partitioned drain after the input is exhausted.
struct MapOp<'p> {
    child: BoxedOperator<'p>,
    expr: &'p ScalarExpr,
    var: Arc<str>,
    env: Env,
    dedup: SpillDedup,
    sealed: bool,
    stats: OpStats,
}

impl Operator for MapOp<'_> {
    fn label(&self) -> String {
        "Map".into()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.dedup.reset(ctx);
        self.sealed = false;
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            if self.sealed {
                let out = self
                    .dedup
                    .next_deferred(ctx.batch_size(), ctx, &mut self.stats)?;
                return Ok(if out.is_empty() {
                    None
                } else {
                    Some(Batch::new(out))
                });
            }
            match self.child.pull(ctx)? {
                None => {
                    self.dedup.seal(ctx)?;
                    self.sealed = true;
                }
                Some(b) => {
                    let mut out = Vec::new();
                    for row in b.rows {
                        let v = op::with_row(&mut self.env, &row, |e| eval(self.expr, e))?;
                        let rec = op::bind_row(&self.var, v);
                        if let Some(rec) = self.dedup.offer(rec, ctx, &mut self.stats)? {
                            out.push(rec);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(Batch::new(out)));
                    }
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.dedup.reset(ctx);
        self.child.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.child.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Streaming binding extension (no dedup: input rows stay distinct).
struct ExtendOp<'p> {
    child: BoxedOperator<'p>,
    expr: &'p ScalarExpr,
    var: Arc<str>,
    env: Env,
    stats: OpStats,
}

impl Operator for ExtendOp<'_> {
    fn label(&self) -> String {
        "Extend".into()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(b) = self.child.pull(ctx)? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(b.len());
        for row in b.rows {
            let v = op::with_row(&mut self.env, &row, |e| eval(self.expr, e))?;
            out.push(row.extend_field(self.var.clone(), v)?);
        }
        Ok(Some(Batch::new(out)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.child.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Streaming π onto a variable subset, with streaming dedup (spilling via
/// [`SpillDedup`] under a memory budget, like [`MapOp`]).
struct ProjectOp<'p> {
    child: BoxedOperator<'p>,
    vars: Vec<&'p str>,
    dedup: SpillDedup,
    sealed: bool,
    stats: OpStats,
}

impl Operator for ProjectOp<'_> {
    fn label(&self) -> String {
        "Project".into()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.dedup.reset(ctx);
        self.sealed = false;
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            if self.sealed {
                let out = self
                    .dedup
                    .next_deferred(ctx.batch_size(), ctx, &mut self.stats)?;
                return Ok(if out.is_empty() {
                    None
                } else {
                    Some(Batch::new(out))
                });
            }
            match self.child.pull(ctx)? {
                None => {
                    self.dedup.seal(ctx)?;
                    self.sealed = true;
                }
                Some(b) => {
                    let mut out = Vec::new();
                    for row in b.rows {
                        let rec = row.project(&self.vars)?;
                        if let Some(rec) = self.dedup.offer(rec, ctx, &mut self.stats)? {
                            out.push(rec);
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(Batch::new(out)));
                    }
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.dedup.reset(ctx);
        self.child.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.child.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Streaming μ: each input batch expands independently; a carry buffer
/// caps the emitted batch size despite per-row fan-out.
struct UnnestOp<'p> {
    child: BoxedOperator<'p>,
    expr: &'p ScalarExpr,
    elem_var: &'p str,
    drop_vars: &'p [String],
    env: Env,
    carry: VecDeque<Record>,
    done: bool,
    stats: OpStats,
}

impl Operator for UnnestOp<'_> {
    fn label(&self) -> String {
        "Unnest".into()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.done = false;
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || (self.done && !self.carry.is_empty()) {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            if self.done {
                return Ok(None);
            }
            match self.child.pull(ctx)? {
                None => self.done = true,
                Some(b) => {
                    let expanded = group::unnest(
                        &b.rows,
                        self.expr,
                        self.elem_var,
                        self.drop_vars,
                        &mut self.env,
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

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.child.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The materialized inner side of a nested-loop join: resident, or — past
/// the memory budget — a single on-disk run replayed per outer block.
enum NlInner {
    Mem(Vec<Record>),
    Spilled(SpillFile),
}

/// Nested-loop join: materializes the inner (right) operand once, streams
/// the outer (left) operand batch-at-a-time. The materialized inner side
/// counts toward [`Metrics::peak_resident_rows`]; under a memory budget
/// it spills to a run instead, and each outer batch block-joins against
/// the run streamed back chunk-at-a-time ([`nl::join_chunk`] /
/// [`nl::finish_block`] carry per-row match state across chunks, so
/// semi/anti/outer/nest semantics survive the chunking).
struct NlJoinOp<'p> {
    left: BoxedOperator<'p>,
    right: BoxedOperator<'p>,
    pred: &'p ScalarExpr,
    kind: &'p JoinKind,
    env: Env,
    inner: Option<NlInner>,
    carry: VecDeque<Record>,
    done: bool,
    stats: OpStats,
}

impl NlJoinOp<'_> {
    fn release_inner(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(NlInner::Mem(r)) = self.inner.take() {
            ctx.resident_release(r.len());
        }
    }

    /// Drain the right child, tracking residency as it accumulates; once
    /// the buffer exceeds the budget, move it (and the rest of the
    /// stream) into one spill run.
    fn materialize_inner(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let mut rows: Vec<Record> = Vec::new();
        let mut writer = None;
        while let Some(b) = self.right.pull(ctx)? {
            match writer.as_mut() {
                None => {
                    ctx.resident_acquire(b.len());
                    rows.extend(b.rows);
                    if ctx.over_budget(rows.len()) {
                        let mut w = ctx.spill_runs(1)?.pop().expect("one run requested");
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
        self.inner = Some(match writer {
            None => NlInner::Mem(rows),
            Some(w) => {
                let spilled = w.rows();
                ctx.metrics.rows_spilled += spilled;
                ctx.metrics.spill_partitions += 1;
                self.stats.rows_spilled += spilled;
                NlInner::Spilled(w.finish()?)
            }
        });
        Ok(())
    }
}

impl Operator for NlJoinOp<'_> {
    fn label(&self) -> String {
        format!("NlJoin[{}]", self.kind.name())
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release_inner(ctx);
        ctx.resident_release(self.carry.len());
        self.carry.clear();
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
            if self.carry.len() >= n || (self.done && !self.carry.is_empty()) {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            if self.done {
                return Ok(None);
            }
            match self.left.pull(ctx)? {
                None => self.done = true,
                Some(b) => {
                    let out = match self.inner.as_ref().expect("materialized above") {
                        NlInner::Mem(right) => nl::join(
                            &b.rows,
                            right,
                            self.pred,
                            self.kind,
                            &mut self.env,
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
                                    &b.rows,
                                    &chunk,
                                    self.pred,
                                    self.kind,
                                    &mut self.env,
                                    &mut ctx.metrics,
                                    &mut state,
                                    &mut out,
                                );
                                ctx.resident_release(chunk.len());
                                res?;
                            }
                            nl::finish_block(&b.rows, self.kind, &mut state, &mut out)?;
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
        self.release_inner(ctx);
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.left.close_timed(ctx);
        self.right.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.left.rebind(env);
        self.right.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }
}

/// Index nested-loop join: the inner table is never scanned — for each
/// outer row the join key is evaluated and the secondary index on
/// `right_table.attr` probed for candidate inner positions, which are
/// fetched and run through the shared nested-loop match/emit kernel
/// ([`nl::join_chunk`] + [`nl::finish_block`] with a one-row outer
/// block). Probes return equality-candidate **supersets** (int/float
/// promotion, NaN totality), and the kernel re-evaluates the full join
/// predicate per pair, so results match `NlJoin` exactly for every
/// [`JoinKind`] — semi/anti membership rewrites become per-row probes.
struct IndexNLJoinOp<'p> {
    left: BoxedOperator<'p>,
    right_table: &'p str,
    right_var: Arc<str>,
    attr: &'p str,
    key: &'p ScalarExpr,
    pred: &'p ScalarExpr,
    kind: &'p JoinKind,
    env: Env,
    carry: VecDeque<Record>,
    done: bool,
    stats: OpStats,
}

impl IndexNLJoinOp<'_> {
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
        let key = op::with_row(&mut self.env, l, |e| eval(self.key, e))?;
        let positions = idx.probe_eq(&key);
        ctx.metrics.index_probes += 1;
        ctx.metrics.index_hits += positions.len() as u64;
        let t = ctx.catalog.table(self.right_table)?;
        let mut state = nl::BlockState::new(1, self.kind);
        let outer = std::slice::from_ref(l);
        // Candidates stream in position-ascending chunks so one wide probe
        // (a hot key) never materializes more than a batch at a time.
        let n = ctx.batch_size();
        for chunk in positions.chunks(n.max(1)) {
            let inner = op::bind_tuples(&self.right_var, t.fetch_rows(chunk)?);
            nl::join_chunk(
                outer,
                &inner,
                self.pred,
                self.kind,
                &mut self.env,
                &mut ctx.metrics,
                &mut state,
                out,
            )?;
        }
        nl::finish_block(outer, self.kind, &mut state, out)
    }
}

impl Operator for IndexNLJoinOp<'_> {
    fn label(&self) -> String {
        format!(
            "IndexNLJoin[{}]({}.{})",
            self.kind.name(),
            self.right_table,
            self.attr
        )
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.done = false;
        self.left.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || (self.done && !self.carry.is_empty()) {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            if self.done {
                return Ok(None);
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

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.left.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref()]
    }
}

/// Grace-hash-join state: build/probe partition pairs still to process,
/// and the partition currently being probed.
struct GraceJoin {
    /// (build, probe, depth) triples, processed front to back.
    parts: VecDeque<(SpillFile, SpillFile, usize)>,
    cur: Option<GracePart>,
}

struct GracePart {
    table: hash::HashTable,
    reader: RunReader,
    /// Keeps the probe run alive while its reader streams.
    _file: SpillFile,
}

/// Hash join: the build side (right) is the pipeline breaker; the probe
/// side (left) streams. Under a memory budget the build switches to
/// **grace hash**: both sides hash-partition to spill files on the join
/// key, then each partition joins independently (an in-memory build over
/// the partition's build rows, batch-streamed probes from its probe run),
/// with oversized partitions recursively repartitioned under a fresh seed.
struct HashJoinOp<'p> {
    left: BoxedOperator<'p>,
    right: BoxedOperator<'p>,
    left_keys: &'p [ScalarExpr],
    right_keys: &'p [ScalarExpr],
    residual: Option<&'p ScalarExpr>,
    kind: &'p JoinKind,
    env: Env,
    build_part: PartFn<'p>,
    probe_part: PartFn<'p>,
    table: Option<hash::HashTable>,
    grace: Option<GraceJoin>,
    built: bool,
    carry: VecDeque<Record>,
    done: bool,
    stats: OpStats,
}

impl Operator for HashJoinOp<'_> {
    fn label(&self) -> String {
        format!("HashJoin[{}]", self.kind.name())
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if let Some(t) = self.table.take() {
            ctx.resident_release(t.len());
        }
        if let Some(g) = self.grace.take() {
            if let Some(cur) = g.cur {
                ctx.resident_release(cur.table.len());
            }
        }
        self.built = false;
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.done = false;
        self.left.open_timed(ctx)?;
        self.right.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if !self.built {
            match spill::drain_or_spill(
                &mut self.right,
                ctx,
                &mut self.env,
                &self.build_part,
                true, // NULL keys never match: drop them before they hit disk
                &mut self.stats,
            )? {
                Drained::Mem(r) => {
                    let n_in = r.len();
                    let table = hash::build(r, self.right_keys, &mut self.env, &mut ctx.metrics)?;
                    // `build` *moves* the drained rows (already counted by
                    // the drain) into the table; only the NULL-key rows it
                    // drops leave resident state.
                    ctx.resident_release(n_in - table.len());
                    self.table = Some(table);
                }
                Drained::Spilled(build_files) => {
                    // Grace mode: the probe side must partition the same
                    // way (NULL-key probe rows go to partition 0, where
                    // they probe empty and take the kind's dangling path).
                    let probe_files = spill::spill_stream(
                        &mut self.left,
                        ctx,
                        &mut self.env,
                        &self.probe_part,
                        false,
                        &mut self.stats,
                    )?;
                    let parts = build_files
                        .into_iter()
                        .zip(probe_files)
                        .map(|(b, p)| (b, p, 1))
                        .collect();
                    self.grace = Some(GraceJoin { parts, cur: None });
                }
            }
            self.built = true;
        }
        let n = ctx.batch_size();
        loop {
            if self.carry.len() >= n || (self.done && !self.carry.is_empty()) {
                return Ok(pop_carry(&mut self.carry, n, ctx));
            }
            if self.done {
                return Ok(None);
            }
            if let Some(table) = self.table.as_ref() {
                // In-memory path: stream probe batches from the left child.
                match self.left.pull(ctx)? {
                    None => self.done = true,
                    Some(b) => {
                        let out = hash::probe(
                            &b.rows,
                            table,
                            self.left_keys,
                            self.residual,
                            self.kind,
                            &mut self.env,
                            &mut ctx.metrics,
                        )?;
                        ctx.resident_acquire(out.len());
                        self.carry.extend(out);
                    }
                }
                continue;
            }
            if ctx.threads() > 1 {
                // Parallel grace: collect a wave of ready partitions
                // (repartitioning skewed ones first, exactly like the
                // serial path) and join them partition-per-worker. Waves
                // are budget-capped — concurrent build tables are summed
                // resident state — but always take at least one partition.
                let mut wave: Vec<(SpillFile, SpillFile)> = Vec::new();
                let mut wave_rows: u64 = 0;
                while wave.len() < ctx.threads() {
                    let next = self
                        .grace
                        .as_mut()
                        .expect("grace mode engaged")
                        .parts
                        .pop_front();
                    let Some((bf, pf, depth)) = next else { break };
                    if ctx.over_budget(bf.rows() as usize)
                        && depth < MAX_REPARTITION_DEPTH
                        && bf.rows() > 1
                    {
                        let seed = depth as u64;
                        let nb = spill::repartition(
                            bf,
                            ctx,
                            &mut self.env,
                            &self.build_part,
                            seed,
                            true,
                            &mut self.stats,
                        )?;
                        let np = spill::repartition(
                            pf,
                            ctx,
                            &mut self.env,
                            &self.probe_part,
                            seed,
                            false,
                            &mut self.stats,
                        )?;
                        let g = self.grace.as_mut().expect("still grace");
                        for (b2, p2) in nb.into_iter().zip(np).rev() {
                            g.parts.push_front((b2, p2, depth + 1));
                        }
                        continue;
                    }
                    if pf.is_empty() {
                        continue;
                    }
                    if !wave.is_empty() && ctx.over_budget((wave_rows + bf.rows()) as usize) {
                        let g = self.grace.as_mut().expect("still grace");
                        g.parts.push_front((bf, pf, depth));
                        break;
                    }
                    wave_rows += bf.rows();
                    wave.push((bf, pf));
                }
                if wave.is_empty() {
                    self.done = true;
                    continue;
                }
                ctx.resident_acquire(wave_rows as usize);
                let (left_keys, right_keys) = (self.left_keys, self.right_keys);
                let (residual, kind) = (self.residual, self.kind);
                let base_env = &self.env;
                let results = exchange::scatter(
                    ctx.threads(),
                    wave,
                    |(bf, pf)| -> Result<(Vec<Record>, Metrics)> {
                        let mut env = base_env.clone();
                        let mut m = Metrics::new();
                        let build_rows = bf.reader()?.read_all()?;
                        let table = hash::build(build_rows, right_keys, &mut env, &mut m)?;
                        let mut out = Vec::new();
                        let mut reader = pf.reader()?;
                        loop {
                            let batch = reader.read_batch(n)?;
                            if batch.is_empty() {
                                break;
                            }
                            out.extend(hash::probe(
                                &batch, &table, left_keys, residual, kind, &mut env, &mut m,
                            )?);
                        }
                        Ok((out, m))
                    },
                );
                ctx.resident_release(wave_rows as usize);
                for res in results {
                    let (out, m) = res?;
                    ctx.metrics += m;
                    ctx.resident_acquire(out.len());
                    self.carry.extend(out);
                }
                continue;
            }
            // Grace path: stream probe batches from the current
            // partition's run, loading the next partition as needed.
            let g = self.grace.as_mut().expect("grace mode engaged");
            if let Some(cur) = g.cur.as_mut() {
                let batch = cur.reader.read_batch(n)?;
                if batch.is_empty() {
                    ctx.resident_release(cur.table.len());
                    g.cur = None;
                    continue;
                }
                let out = hash::probe(
                    &batch,
                    &cur.table,
                    self.left_keys,
                    self.residual,
                    self.kind,
                    &mut self.env,
                    &mut ctx.metrics,
                )?;
                ctx.resident_acquire(out.len());
                self.carry.extend(out);
                continue;
            }
            match g.parts.pop_front() {
                None => self.done = true,
                Some((bf, pf, depth)) => {
                    if ctx.over_budget(bf.rows() as usize)
                        && depth < MAX_REPARTITION_DEPTH
                        && bf.rows() > 1
                    {
                        // Skewed partition: re-split both sides with the
                        // next seed so equal keys stay paired.
                        let seed = depth as u64;
                        let nb = spill::repartition(
                            bf,
                            ctx,
                            &mut self.env,
                            &self.build_part,
                            seed,
                            true,
                            &mut self.stats,
                        )?;
                        let np = spill::repartition(
                            pf,
                            ctx,
                            &mut self.env,
                            &self.probe_part,
                            seed,
                            false,
                            &mut self.stats,
                        )?;
                        let g = self.grace.as_mut().expect("still grace");
                        for (b2, p2) in nb.into_iter().zip(np).rev() {
                            g.parts.push_front((b2, p2, depth + 1));
                        }
                        continue;
                    }
                    if pf.is_empty() {
                        // Every join kind emits per probe row (or pair);
                        // no probe rows means no output from this part.
                        continue;
                    }
                    let build_rows = bf.reader()?.read_all()?;
                    let table =
                        hash::build(build_rows, self.right_keys, &mut self.env, &mut ctx.metrics)?;
                    ctx.resident_acquire(table.len());
                    let reader = pf.reader()?;
                    let g = self.grace.as_mut().expect("still grace");
                    g.cur = Some(GracePart {
                        table,
                        reader,
                        _file: pf,
                    });
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(t) = self.table.take() {
            ctx.resident_release(t.len());
        }
        if let Some(g) = self.grace.take() {
            if let Some(cur) = g.cur {
                ctx.resident_release(cur.table.len());
            }
        }
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.left.close_timed(ctx);
        self.right.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.left.rebind(env);
        self.right.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }
}

// ---------------------------------------------------------------------------
// Pipeline breakers (generic over the materialized kernel)
// ---------------------------------------------------------------------------

/// Materialized kernel of a one-input breaker. `Fn + Send + Sync` so a
/// parallel wave can run it concurrently over several spill partitions —
/// all mutable state (env, metrics) comes in through the arguments.
type UnaryKernel<'p> =
    Box<dyn Fn(&[Record], &mut Env, &mut Metrics) -> Result<Vec<Record>> + Send + Sync + 'p>;

/// A one-input pipeline breaker: drains its child, runs a materialized
/// kernel (ν / ν* / GROUP BY), then re-emits the result in batches.
///
/// Under a memory budget the drain switches to partitioned spill on the
/// operator's grouping key ([`spill::drain_or_spill`]); the kernel then
/// runs once per partition — grouping keys co-partition, so per-partition
/// outputs concatenate to the in-memory result (up to emission order,
/// which set semantics absorbs).
struct UnaryBreaker<'p> {
    name: String,
    child: BoxedOperator<'p>,
    env: Env,
    kernel: UnaryKernel<'p>,
    part: PartFn<'p>,
    out: Option<VecDeque<Record>>,
    grace: Option<VecDeque<(SpillFile, usize)>>,
    done: bool,
    stats: OpStats,
}

impl Operator for UnaryBreaker<'_> {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if let Some(out) = self.out.take() {
            ctx.resident_release(out.len());
        }
        self.grace = None;
        self.done = false;
        self.child.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            if let Some(out) = self.out.as_mut() {
                if let Some(b) = pop_carry(out, ctx.batch_size(), ctx) {
                    return Ok(Some(b));
                }
                self.out = None;
                if self.grace.is_none() {
                    self.done = true;
                }
            }
            if self.done {
                return Ok(None);
            }
            if self.grace.is_none() {
                match spill::drain_or_spill(
                    &mut self.child,
                    ctx,
                    &mut self.env,
                    &self.part,
                    false,
                    &mut self.stats,
                )? {
                    Drained::Mem(input) => {
                        let out = (self.kernel)(&input, &mut self.env, &mut ctx.metrics)?;
                        ctx.resident_acquire(out.len());
                        ctx.resident_release(input.len());
                        drop(input);
                        self.out = Some(out.into());
                        continue;
                    }
                    Drained::Spilled(files) => {
                        self.grace = Some(files.into_iter().map(|f| (f, 1)).collect());
                    }
                }
            }
            if ctx.threads() > 1 {
                // Parallel grace: one kernel invocation per partition on a
                // worker wave, outputs gathered in partition order (the
                // exact serial emission order). Budget-capped, ≥ 1 per wave.
                let mut wave: Vec<SpillFile> = Vec::new();
                let mut wave_rows: u64 = 0;
                while wave.len() < ctx.threads() {
                    let next = self.grace.as_mut().expect("grace mode engaged").pop_front();
                    let Some((file, depth)) = next else { break };
                    if ctx.over_budget(file.rows() as usize)
                        && depth < MAX_REPARTITION_DEPTH
                        && file.rows() > 1
                    {
                        let subs = spill::repartition(
                            file,
                            ctx,
                            &mut self.env,
                            &self.part,
                            depth as u64,
                            false,
                            &mut self.stats,
                        )?;
                        let g = self.grace.as_mut().expect("still grace");
                        for f in subs.into_iter().rev() {
                            g.push_front((f, depth + 1));
                        }
                        continue;
                    }
                    if file.is_empty() {
                        continue;
                    }
                    if !wave.is_empty() && ctx.over_budget((wave_rows + file.rows()) as usize) {
                        let g = self.grace.as_mut().expect("still grace");
                        g.push_front((file, depth));
                        break;
                    }
                    wave_rows += file.rows();
                    wave.push(file);
                }
                if wave.is_empty() {
                    self.done = true;
                    return Ok(None);
                }
                ctx.resident_acquire(wave_rows as usize);
                let base_env = &self.env;
                let kernel = &self.kernel;
                let results = exchange::scatter(
                    ctx.threads(),
                    wave,
                    |file| -> Result<(Vec<Record>, Metrics)> {
                        let mut env = base_env.clone();
                        let mut m = Metrics::new();
                        let input = file.reader()?.read_all()?;
                        let out = (kernel)(&input, &mut env, &mut m)?;
                        Ok((out, m))
                    },
                );
                ctx.resident_release(wave_rows as usize);
                let mut combined: VecDeque<Record> = VecDeque::new();
                for res in results {
                    let (rows, m) = res?;
                    ctx.metrics += m;
                    ctx.resident_acquire(rows.len());
                    combined.extend(rows);
                }
                self.out = Some(combined);
                continue;
            }
            // Grace mode: run the kernel over the next partition.
            let g = self.grace.as_mut().expect("grace mode engaged");
            match g.pop_front() {
                None => {
                    self.done = true;
                    return Ok(None);
                }
                Some((file, depth)) => {
                    if ctx.over_budget(file.rows() as usize)
                        && depth < MAX_REPARTITION_DEPTH
                        && file.rows() > 1
                    {
                        let subs = spill::repartition(
                            file,
                            ctx,
                            &mut self.env,
                            &self.part,
                            depth as u64,
                            false,
                            &mut self.stats,
                        )?;
                        let g = self.grace.as_mut().expect("still grace");
                        for f in subs.into_iter().rev() {
                            g.push_front((f, depth + 1));
                        }
                        continue;
                    }
                    if file.is_empty() {
                        continue;
                    }
                    let input = file.reader()?.read_all()?;
                    ctx.resident_acquire(input.len());
                    let out = (self.kernel)(&input, &mut self.env, &mut ctx.metrics)?;
                    ctx.resident_acquire(out.len());
                    ctx.resident_release(input.len());
                    self.out = Some(out.into());
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(out) = self.out.take() {
            ctx.resident_release(out.len());
        }
        self.grace = None;
        self.child.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.child.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }
}

/// Materialized kernel of a two-input breaker (see [`UnaryKernel`] for the
/// `Fn + Send + Sync` rationale).
type BinaryKernel<'p> = Box<
    dyn Fn(&[Record], &[Record], &mut Env, &mut Metrics) -> Result<Vec<Record>> + Send + Sync + 'p,
>;

/// A two-input pipeline breaker: drains both children, runs a materialized
/// kernel (sort-merge join, set operation), then re-emits in batches.
///
/// Under a memory budget both operands partition on keys that co-locate
/// every interacting pair of rows (equi-join keys; whole output values for
/// set operations), and the kernel runs per partition pair. If only the
/// second operand overflows, the already-buffered first operand is
/// partitioned post hoc so the pairing stays aligned.
struct BinaryBreaker<'p> {
    name: String,
    left: BoxedOperator<'p>,
    right: BoxedOperator<'p>,
    env: Env,
    kernel: BinaryKernel<'p>,
    left_part: PartFn<'p>,
    right_part: PartFn<'p>,
    out: Option<VecDeque<Record>>,
    grace: Option<VecDeque<(SpillFile, SpillFile, usize)>>,
    done: bool,
    stats: OpStats,
}

impl Operator for BinaryBreaker<'_> {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if let Some(out) = self.out.take() {
            ctx.resident_release(out.len());
        }
        self.grace = None;
        self.done = false;
        self.left.open_timed(ctx)?;
        self.right.open_timed(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            if let Some(out) = self.out.as_mut() {
                if let Some(b) = pop_carry(out, ctx.batch_size(), ctx) {
                    return Ok(Some(b));
                }
                self.out = None;
                if self.grace.is_none() {
                    self.done = true;
                }
            }
            if self.done {
                return Ok(None);
            }
            if self.grace.is_none() {
                let left = spill::drain_or_spill(
                    &mut self.left,
                    ctx,
                    &mut self.env,
                    &self.left_part,
                    false,
                    &mut self.stats,
                )?;
                let right = spill::drain_or_spill(
                    &mut self.right,
                    ctx,
                    &mut self.env,
                    &self.right_part,
                    false,
                    &mut self.stats,
                )?;
                match (left, right) {
                    // The budget bounds the breaker's *combined* state, so
                    // two individually-fitting operands must still spill
                    // when their sum overflows.
                    (Drained::Mem(l), Drained::Mem(r)) if !ctx.over_budget(l.len() + r.len()) => {
                        let out = (self.kernel)(&l, &r, &mut self.env, &mut ctx.metrics)?;
                        ctx.resident_acquire(out.len());
                        ctx.resident_release(l.len() + r.len());
                        drop((l, r));
                        self.out = Some(out.into());
                        continue;
                    }
                    (l, r) => {
                        // At least one side spilled (or the sides only
                        // overflow together): bring both to the same
                        // partitioned form.
                        let lf = match l {
                            Drained::Spilled(files) => files,
                            Drained::Mem(rows) => {
                                let n = rows.len();
                                let files = spill::spill_rows(
                                    rows,
                                    ctx,
                                    &mut self.env,
                                    &self.left_part,
                                    false,
                                    &mut self.stats,
                                )?;
                                ctx.resident_release(n);
                                files
                            }
                        };
                        let rf = match r {
                            Drained::Spilled(files) => files,
                            Drained::Mem(rows) => {
                                let n = rows.len();
                                let files = spill::spill_rows(
                                    rows,
                                    ctx,
                                    &mut self.env,
                                    &self.right_part,
                                    false,
                                    &mut self.stats,
                                )?;
                                ctx.resident_release(n);
                                files
                            }
                        };
                        self.grace = Some(lf.into_iter().zip(rf).map(|(a, b)| (a, b, 1)).collect());
                    }
                }
            }
            if ctx.threads() > 1 {
                // Parallel grace: kernel per partition pair on a worker
                // wave, outputs gathered in pair order. Budget-capped on
                // the summed pair sizes, ≥ 1 pair per wave.
                let mut wave: Vec<(SpillFile, SpillFile)> = Vec::new();
                let mut wave_rows: u64 = 0;
                while wave.len() < ctx.threads() {
                    let next = self.grace.as_mut().expect("grace mode engaged").pop_front();
                    let Some((lf, rf, depth)) = next else { break };
                    let total = lf.rows() + rf.rows();
                    if ctx.over_budget(total as usize) && depth < MAX_REPARTITION_DEPTH && total > 1
                    {
                        let seed = depth as u64;
                        let nl = spill::repartition(
                            lf,
                            ctx,
                            &mut self.env,
                            &self.left_part,
                            seed,
                            false,
                            &mut self.stats,
                        )?;
                        let nr = spill::repartition(
                            rf,
                            ctx,
                            &mut self.env,
                            &self.right_part,
                            seed,
                            false,
                            &mut self.stats,
                        )?;
                        let g = self.grace.as_mut().expect("still grace");
                        for (a, b) in nl.into_iter().zip(nr).rev() {
                            g.push_front((a, b, depth + 1));
                        }
                        continue;
                    }
                    if lf.is_empty() && rf.is_empty() {
                        continue;
                    }
                    if !wave.is_empty() && ctx.over_budget((wave_rows + total) as usize) {
                        let g = self.grace.as_mut().expect("still grace");
                        g.push_front((lf, rf, depth));
                        break;
                    }
                    wave_rows += total;
                    wave.push((lf, rf));
                }
                if wave.is_empty() {
                    self.done = true;
                    return Ok(None);
                }
                ctx.resident_acquire(wave_rows as usize);
                let base_env = &self.env;
                let kernel = &self.kernel;
                let results = exchange::scatter(
                    ctx.threads(),
                    wave,
                    |(lf, rf)| -> Result<(Vec<Record>, Metrics)> {
                        let mut env = base_env.clone();
                        let mut m = Metrics::new();
                        let l = lf.reader()?.read_all()?;
                        let r = rf.reader()?.read_all()?;
                        let out = (kernel)(&l, &r, &mut env, &mut m)?;
                        Ok((out, m))
                    },
                );
                ctx.resident_release(wave_rows as usize);
                let mut combined: VecDeque<Record> = VecDeque::new();
                for res in results {
                    let (rows, m) = res?;
                    ctx.metrics += m;
                    ctx.resident_acquire(rows.len());
                    combined.extend(rows);
                }
                self.out = Some(combined);
                continue;
            }
            // Grace mode: kernel per partition pair.
            let g = self.grace.as_mut().expect("grace mode engaged");
            match g.pop_front() {
                None => {
                    self.done = true;
                    return Ok(None);
                }
                Some((lf, rf, depth)) => {
                    let total = lf.rows() + rf.rows();
                    if ctx.over_budget(total as usize) && depth < MAX_REPARTITION_DEPTH && total > 1
                    {
                        let seed = depth as u64;
                        let nl = spill::repartition(
                            lf,
                            ctx,
                            &mut self.env,
                            &self.left_part,
                            seed,
                            false,
                            &mut self.stats,
                        )?;
                        let nr = spill::repartition(
                            rf,
                            ctx,
                            &mut self.env,
                            &self.right_part,
                            seed,
                            false,
                            &mut self.stats,
                        )?;
                        let g = self.grace.as_mut().expect("still grace");
                        for (a, b) in nl.into_iter().zip(nr).rev() {
                            g.push_front((a, b, depth + 1));
                        }
                        continue;
                    }
                    if lf.is_empty() && rf.is_empty() {
                        continue;
                    }
                    let l = lf.reader()?.read_all()?;
                    let r = rf.reader()?.read_all()?;
                    ctx.resident_acquire(l.len() + r.len());
                    let out = (self.kernel)(&l, &r, &mut self.env, &mut ctx.metrics)?;
                    ctx.resident_acquire(out.len());
                    ctx.resident_release(l.len() + r.len());
                    self.out = Some(out.into());
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(out) = self.out.take() {
            ctx.resident_release(out.len());
        }
        self.grace = None;
        self.left.close_timed(ctx);
        self.right.close_timed(ctx);
    }

    fn rebind(&mut self, env: &Env) {
        self.env = env.clone();
        self.left.rebind(env);
        self.right.rebind(env);
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::exec::ExecContext;
    use tmql_algebra::ScalarExpr as E;
    use tmql_storage::{table::int_table, Catalog};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i % 3]).collect();
        cat.register(int_table(
            "X",
            &["a", "b"],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        ))
        .unwrap();
        cat
    }

    fn scan_filter() -> PhysPlan {
        PhysPlan::Filter {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
            }),
            pred: E::cmp(tmql_algebra::CmpOp::Gt, E::path("x", &["a"]), E::lit(3i64)),
        }
    }

    #[test]
    fn batches_respect_batch_size() {
        let cat = catalog();
        let plan = PhysPlan::ScanTable {
            table: "X".into(),
            var: "x".into(),
        };
        // Serial: the exact shape is pinned — full batches then the rest.
        let mut ctx =
            ExecContext::with_config(&cat, &ExecConfig::default().batch_size(3).threads(1));
        let mut root = build(&plan, &Env::new());
        root.open(&mut ctx).unwrap();
        let mut sizes = Vec::new();
        while let Some(b) = root.pull(&mut ctx).unwrap() {
            assert!(!b.is_empty(), "operators never emit empty batches");
            sizes.push(b.len());
        }
        root.close(&mut ctx);
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert_eq!(ctx.metrics.batches_emitted, 4);
        assert_eq!(ctx.metrics.rows_scanned, 10);
        // Parallel waves may cut differently (⌈batch/threads⌉-row
        // morsels), but the cap and the row total are invariant.
        let mut ctx =
            ExecContext::with_config(&cat, &ExecConfig::default().batch_size(3).threads(4));
        let mut root = build(&plan, &Env::new());
        root.open(&mut ctx).unwrap();
        while let Some(b) = root.pull(&mut ctx).unwrap() {
            assert!(!b.is_empty(), "operators never emit empty batches");
            assert!(b.len() <= 3, "batch overflows batch_size: {}", b.len());
        }
        root.close(&mut ctx);
        assert_eq!(ctx.metrics.rows_scanned, 10);
    }

    #[test]
    fn per_op_stats_show_in_profile_tree() {
        let cat = catalog();
        let plan = scan_filter();
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(4));
        let mut root = build(&plan, &Env::new());
        root.open(&mut ctx).unwrap();
        let rows = drain(&mut root, &mut ctx).unwrap();
        root.close(&mut ctx);
        assert_eq!(rows.len(), 6);
        let tree = render_tree(root.as_ref());
        assert!(tree.contains("Filter [rows=6"), "{tree}");
        assert!(tree.contains("Scan(X) [rows=10"), "{tree}");
    }

    #[test]
    fn resident_gauge_returns_to_zero_after_close() {
        let cat = catalog();
        // A breaker (Nest) plus dedup state (Map): both must release.
        let plan = PhysPlan::Nest {
            input: Box::new(PhysPlan::Map {
                input: Box::new(PhysPlan::ScanTable {
                    table: "X".into(),
                    var: "x".into(),
                }),
                expr: E::path("x", &["b"]),
                var: "v".into(),
            }),
            keys: vec!["v".into()],
            value: E::var("v"),
            label: "vs".into(),
            star: false,
        };
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(2));
        let mut root = build(&plan, &Env::new());
        root.open(&mut ctx).unwrap();
        let _ = drain(&mut root, &mut ctx).unwrap();
        root.close(&mut ctx);
        assert!(
            ctx.metrics.peak_resident_rows > 0,
            "breaker state was tracked"
        );
        assert_eq!(ctx.resident_rows(), 0, "close released everything");
    }
}
