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
//! result at once. [`Metrics::peak_resident_rows`](crate::Metrics::peak_resident_rows)
//! tracks exactly that high-water mark;
//! [`Metrics::batches_emitted`](crate::Metrics::batches_emitted) counts the
//! batch traffic.
//!
//! This module holds what all operators share — the trait, [`Batch`],
//! the per-plan-node `OpBase`, the profile tree and [`build`] — and the
//! operators live one family per file beside it: `scan.rs` (table, index
//! and set-expression leaves), `stream.rs` (σ, π, map, extend, μ),
//! `join.rs` (one operator for the nested-loop, index nested-loop and
//! hash joins), `breaker.rs` (ν, GROUP BY, sort-merge join, set
//! operations) and `crate::op::apply`.
//! The tree runs on the thread that drives it. Under
//! [`crate::ExecConfig::memory_budget_rows`] the
//! breakers cap their resident state and spill the excess to disk; the
//! one partition driver in [`crate::op::spill`] decides what happens to
//! each spilled partition for all of them.
//!
//! Rows arrive in the [`Shape`] their producer reports
//! ([`Operator::shape`], decided by `PhysPlan::row_var`): a scan's rows
//! are the stored tuples themselves, and every consumer reads them through
//! [`op::bind`] and [`op::fields`] only.
//!
//! The operator tree borrows the [`PhysPlan`] it was built from (no
//! expression cloning) and owns only its correlation [`Env`]; a row is
//! bound over it in a scope that borrows the row and ends with the block.
//! [`Apply`](PhysPlan::Apply) builds its subquery tree **once** and
//! re-opens it per outer row through [`Operator::rebind`] — the true
//! nested loop the paper's unnesting removes, without per-row planning or
//! allocation (see `crate::op::apply`).

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use tmql_algebra::{Compiled, Env, ScalarExpr};
use tmql_model::{Record, Result};

use crate::exec::ExecContext;
use crate::op::apply::ApplyOp;
use crate::op::breaker::Breaker;
use crate::op::join::{Algo, JoinOp};
use crate::op::scan::{IndexScanOp, ScanExprOp, ScanTableOp};
use crate::op::spill::{self, keys_part, value_part};
use crate::op::stream::{ExtendOp, FilterOp, MapOp, ProjectOp, UnnestOp};
use crate::op::{self, group, merge, Emit, JoinKeys, Shape};
use crate::physical::{JoinPath, PhysPlan};

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
    /// [`crate::Metrics::rows_spilled`]).
    pub rows_spilled: u64,
    /// Probe rows a grace hash join answered while partitioning its probe
    /// side instead of spilling them (mirrors
    /// [`crate::Metrics::spill_rows_filtered`]; 0 for every other operator).
    pub spill_rows_filtered: u64,
    /// Rows rejected before they were materialized: stored rows a
    /// filtering scan's pre-test rejected inside storage, before they were
    /// decoded or bound, and rows a join's fused selection rejected before
    /// the join built them (0 for every other operator).
    pub rows_skipped: u64,
    /// Wall-clock nanoseconds spent inside this operator's `open`,
    /// `next_batch`, and `close` calls, *inclusive* of its children
    /// (a parent's span covers the pulls it issues downstream, exactly
    /// like `EXPLAIN ANALYZE` elsewhere). Always 0 when
    /// [`crate::ExecConfig::collect_timing`] is off.
    pub wall_nanos: u64,
}

/// A physical operator in the streaming executor.
///
/// Lifecycle: `open` (reset state, recurse into children), then `pull`
/// (the metered wrapper around `next_batch`) until `None`, then `close`
/// (release buffered state, recurse). Implementations return `None` only
/// when exhausted and never return an empty batch.
pub trait Operator {
    /// Display label: the plan node's `PhysPlan::op_label`.
    fn label(&self) -> String;

    /// The layout of the rows this operator emits.
    fn shape(&self) -> &Shape;

    /// Reset to the start of the stream and open children.
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;

    /// Replace the correlation environment wholesale and recurse into
    /// children. `Apply` uses this to re-point one long-lived subquery
    /// tree at the next outer row's bindings before re-`open`ing it;
    /// stream state is untouched (that is `open`'s job).
    fn rebind(&mut self, env: &Env<'_>);

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
    /// Operator label (mirrors `PhysPlan::op_label`).
    pub label: String,
    /// Rows emitted.
    pub rows_out: u64,
    /// Batches emitted.
    pub batches_out: u64,
    /// Rows this operator spilled to disk (0 without a memory budget).
    pub rows_spilled: u64,
    /// Probe rows answered instead of spilled (see
    /// [`OpStats::spill_rows_filtered`]).
    pub spill_rows_filtered: u64,
    /// Rows rejected before materialization (see
    /// [`OpStats::rows_skipped`]).
    pub rows_skipped: u64,
    /// Inclusive wall-clock nanoseconds (see [`OpStats::wall_nanos`];
    /// 0 when timing collection was off).
    pub wall_nanos: u64,
    /// Estimated output rows from the cost model, in the same pre-order
    /// position (None when executed without estimates).
    pub est_rows: Option<f64>,
}

impl OpProfile {
    /// The profile line of an operator labelled `label` at `depth`, with
    /// the counters `s` and the estimate `est_rows`.
    pub(crate) fn new(depth: usize, label: String, s: OpStats, est_rows: Option<f64>) -> Self {
        OpProfile {
            depth,
            label,
            rows_out: s.rows_out,
            batches_out: s.batches_out,
            rows_spilled: s.rows_spilled,
            spill_rows_filtered: s.spill_rows_filtered,
            rows_skipped: s.rows_skipped,
            wall_nanos: s.wall_nanos,
            est_rows,
        }
    }

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

/// Append the profiles of `op`'s subtree, `op` at `depth`, to the
/// pre-order list `out`; an entry's estimate is `est` at its position (as
/// produced by the cost model's exec-order walk over the physical plan
/// the tree was built from).
pub(crate) fn profile_into(
    op: &dyn Operator,
    depth: usize,
    est: Option<&[f64]>,
    out: &mut Vec<OpProfile>,
) {
    let est_rows = est.and_then(|v| v.get(out.len())).copied();
    out.push(OpProfile::new(depth, op.label(), op.stats(), est_rows));
    for c in op.children() {
        profile_into(c, depth + 1, est, out);
    }
}

/// Each entry's exclusive (self) wall time: its inclusive
/// [`OpProfile::wall_nanos`] minus its children's — the entries one level
/// deeper that follow it before the next one at its depth or shallower. A
/// parent's span encloses its children's, so over a whole tree these add
/// up to the root's inclusive time (never below zero; a clock that read
/// a child longer than its parent would clamp at zero).
pub fn self_nanos(entries: &[OpProfile]) -> Vec<u64> {
    let children = |i: usize| {
        let depth = entries[i].depth;
        (entries[i + 1..].iter())
            .take_while(move |c| c.depth > depth)
            .filter(move |c| c.depth == depth + 1)
    };
    (0..entries.len())
        .map(|i| {
            let nested: u64 = children(i).map(|c| c.wall_nanos).sum();
            entries[i].wall_nanos.saturating_sub(nested)
        })
        .collect()
}

/// Render collected profiles as the indented tree shown by `EXPLAIN
/// ANALYZE`-style output; estimated rows print next to actual rows when
/// present.
pub fn render_profile(entries: &[OpProfile]) -> String {
    let mut out = String::new();
    let own = self_nanos(entries);
    let total = entries.first().map_or(0, |root| root.wall_nanos);
    for (e, own) in entries.iter().zip(own) {
        out.push_str(&"  ".repeat(e.depth));
        // `spilled=` appears only when the operator actually spilled, so
        // in-memory profiles read exactly as before the spill tier existed;
        // `filtered=` beside it only on a grace join whose partitioning
        // pass answered rows, and `skipped=` only on a scan whose pre-test,
        // or a join whose fused selection, rejected some.
        let nonzero = |name: &str, n: u64| match n {
            0 => String::new(),
            n => format!(" {name}={n}"),
        };
        let spilled =
            nonzero("spilled", e.rows_spilled) + &nonzero("filtered", e.spill_rows_filtered);
        let skipped = nonzero("skipped", e.rows_skipped);
        // `time=` (inclusive) and `self=` (exclusive, with its share of
        // the root's time) appear only when spans were collected, so
        // profiles taken with `collect_timing` off render exactly as
        // before the observability layer existed.
        let time = if e.wall_nanos > 0 {
            let share = 100.0 * own as f64 / total.max(1) as f64;
            format!(
                " time={} self={} ({share:.0}%)",
                tmql_obs::human_duration_nanos(e.wall_nanos),
                tmql_obs::human_duration_nanos(own)
            )
        } else {
            String::new()
        };
        match e.est_rows {
            Some(est) => out.push_str(&format!(
                "{} [rows={} est={} batches={}{spilled}{skipped}{time}]\n",
                e.label,
                e.rows_out,
                crate::cost::format_rows(est),
                e.batches_out
            )),
            None => out.push_str(&format!(
                "{} [rows={} batches={}{spilled}{skipped}{time}]\n",
                e.label, e.rows_out, e.batches_out
            )),
        }
    }
    out
}

/// What an operator knows per plan node rather than per row: the node it
/// was built from (whose [`PhysPlan::op_label`] is its label), the shape
/// of the rows it emits, its correlation environment and its output
/// counters. Every operator holds one as `base` and gets `label`, `shape`,
/// `stats`, `stats_mut`, `children` and the default `rebind` from
/// [`op_base!`](op_base).
pub(crate) struct OpBase<'p> {
    pub(super) plan: &'p PhysPlan,
    pub(super) shape: Shape,
    pub(super) env: Env<'static>,
    pub(super) stats: OpStats,
}

impl OpBase<'_> {
    /// For an operator that may hand its first input's rows on unchanged:
    /// when the plan says this node does ([`PhysPlan::row_var`]), its rows
    /// have whatever shape that input's really have.
    pub(super) fn over(mut self, first: &BoxedOperator<'_>) -> Self {
        if self.shape != Shape::BOUND {
            self.shape = first.shape().clone();
        }
        self
    }
}

/// The part of `impl Operator` that is the same for every operator with a
/// `base: OpBase` field. Arguments name the child fields left to right
/// (`[field]` for an array of children); `rebind` replaces the
/// environment and recurses into them.
macro_rules! op_base {
    (@own) => {
        fn label(&self) -> String {
            self.base.plan.op_label()
        }

        fn shape(&self) -> &$crate::op::Shape {
            &self.base.shape
        }

        fn stats(&self) -> $crate::op::operator::OpStats {
            self.base.stats
        }

        fn stats_mut(&mut self) -> &mut $crate::op::operator::OpStats {
            &mut self.base.stats
        }
    };
    ([$children:ident]) => {
        $crate::op::operator::op_base!(@own);

        fn children(&self) -> Vec<&dyn $crate::op::operator::Operator> {
            self.$children.iter().map(|c| c.as_ref()).collect()
        }

        fn rebind(&mut self, env: &tmql_algebra::Env<'_>) {
            self.base.env = env.detach();
            for c in &mut self.$children {
                c.rebind(env);
            }
        }
    };
    ($($child:ident),*) => {
        $crate::op::operator::op_base!(@own);

        fn children(&self) -> Vec<&dyn $crate::op::operator::Operator> {
            vec![$(self.$child.as_ref()),*]
        }

        fn rebind(&mut self, env: &tmql_algebra::Env<'_>) {
            self.base.env = env.detach();
            $(self.$child.rebind(env);)*
        }
    };
}
pub(crate) use op_base;

/// Pop up to `n` rows off a carry buffer as a batch (releasing them from
/// the resident-row gauge), or `None` when the buffer is empty.
pub(crate) fn pop_carry(
    carry: &mut VecDeque<Record>,
    n: usize,
    ctx: &mut ExecContext<'_>,
) -> Option<Batch> {
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
pub fn build<'p>(plan: &'p PhysPlan, env: &Env<'_>) -> BoxedOperator<'p> {
    build_with(plan, env, &|leaf| leaf)
}

/// [`build`] with every leaf operator passed through `leaf` (the hook the
/// row-shape differential test uses to re-wrap scan rows the old way).
#[doc(hidden)]
pub fn build_with<'p>(
    plan: &'p PhysPlan,
    env: &Env<'_>,
    leaf: &dyn Fn(BoxedOperator<'p>) -> BoxedOperator<'p>,
) -> BoxedOperator<'p> {
    node(plan, env, leaf, None)
}

/// [`build`] of a join with the root `Map` over it — a tuple constructor
/// — evaluated by the join: the operator emits the map's tuples as rows.
pub(crate) fn build_mapped<'p>(
    join: &'p PhysPlan,
    env: &Env<'_>,
    map: &'p ScalarExpr,
) -> BoxedOperator<'p> {
    node(join, env, &|leaf| leaf, Some(map))
}

/// Build `plan`'s operator, compiling every expression it evaluates per
/// row for the frames its rows bind; `map` is a root `Map` for a join to
/// evaluate (ignored by every other operator).
fn node<'p>(
    plan: &'p PhysPlan,
    env: &Env<'_>,
    leaf: &dyn Fn(BoxedOperator<'p>) -> BoxedOperator<'p>,
    map: Option<&'p ScalarExpr>,
) -> BoxedOperator<'p> {
    let sub = |p: &'p PhysPlan| node(p, env, leaf, None);
    // An expression over one row of `input`.
    let over = |input: &PhysPlan, e: &'p ScalarExpr| Compiled::new(e, &[&input.output_vars()]);
    let base = OpBase {
        plan,
        shape: Shape::of(plan),
        env: env.detach(),
        stats: OpStats::default(),
    };
    match plan {
        PhysPlan::ScanTable { table, var, pred } => {
            leaf(Box::new(ScanTableOp::new(base, table, var, pred.as_ref())))
        }
        PhysPlan::IndexScan {
            table,
            var,
            attr,
            eq,
            lo,
            hi,
            pred,
        } => leaf(Box::new(IndexScanOp::new(
            base,
            table,
            var,
            attr,
            eq.as_ref(),
            lo.as_ref(),
            hi.as_ref(),
            pred,
        ))),
        PhysPlan::ScanExpr { expr, var } => leaf(Box::new(ScanExprOp::new(base, expr, var))),
        PhysPlan::Filter { input, pred } => {
            Box::new(FilterOp::new(base, sub(input), over(input, pred)))
        }
        PhysPlan::Map { input, expr, var } => {
            Box::new(MapOp::new(base, sub(input), over(input, expr), var))
        }
        PhysPlan::Extend { input, expr, var } => {
            Box::new(ExtendOp::new(base, sub(input), over(input, expr), var))
        }
        PhysPlan::Project { input, vars } => Box::new(ProjectOp::new(base, sub(input), vars)),
        PhysPlan::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => Box::new(UnnestOp::new(
            base,
            sub(input),
            over(input, expr),
            elem_var,
            drop_vars,
        )),
        PhysPlan::Join {
            kind,
            left,
            path,
            select,
        } => {
            let (lv, rv) = (left.output_vars(), path.right_vars());
            let vars = (lv.as_slice(), rv.as_slice());
            let pair: &[&[String]] = &[&rv[..], &lv[..]];
            let (left, emit) = (sub(left), Emit::new(kind, vars, select.as_ref(), map));
            let (right, algo) = match path {
                JoinPath::NestedLoop { right, pred } => {
                    (sub(right), Algo::Nl(Compiled::new(pred, pair)))
                }
                JoinPath::Index {
                    table,
                    var,
                    attr,
                    key,
                    pred,
                } => {
                    let algo = Algo::Index {
                        table,
                        attr,
                        key: Compiled::new(key, &[&lv]),
                        pred: Compiled::new(pred, pair),
                    };
                    let rs = Shape::bare(var);
                    return Box::new(JoinOp::new(base, left, None, rs, emit, algo));
                }
                JoinPath::Hash { right, keys } => {
                    let (right, keys) = (sub(right), JoinKeys::new(keys, vars));
                    let algo = Algo::Hash {
                        build_part: keys_part(keys.right.clone(), right.shape()),
                        probe_part: keys_part(keys.left.clone(), left.shape()),
                        keys,
                    };
                    (right, algo)
                }
                JoinPath::SortMerge { right, keys } => {
                    let (right, keys) = (sub(right), JoinKeys::new(keys, vars));
                    let parts = [
                        keys_part(keys.left.clone(), left.shape()),
                        keys_part(keys.right.clone(), right.shape()),
                    ];
                    return Box::new(Breaker::new(
                        base.over(&left),
                        parts,
                        [left, right],
                        Box::new(move |[l, r], env, m, stats| {
                            let out = merge::join(l, r, &keys, &emit, env, m);
                            stats.rows_skipped += emit.take_skipped();
                            out
                        }),
                    ));
                }
            };
            let rs = right.shape().clone();
            Box::new(JoinOp::new(base, left, Some(right), rs, emit, algo))
        }
        PhysPlan::Nest {
            input,
            keys,
            value,
            label,
            star,
        } => {
            let value = over(input, value);
            let input = sub(input);
            let shape = input.shape().clone();
            Box::new(Breaker::new(
                base,
                // Groups co-partition by the hash of the grouping fields.
                [Box::new(move |r, env, seed| {
                    let mut h = spill::seed_hasher(seed);
                    let env = op::bind(env, &shape, r);
                    for k in keys {
                        env.get(k)?.hash(&mut h);
                    }
                    Ok(Some(h.finish()))
                })],
                [input],
                Box::new(move |[rows], env, m, _| {
                    group::nest(rows, keys, &value, label, *star, env, m)
                }),
            ))
        }
        PhysPlan::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => {
            let vars = input.output_vars();
            let over = |e: &'p ScalarExpr| Compiled::new(e, &[&vars]);
            let keys: Vec<_> = keys.iter().map(|(l, e)| (l.clone(), over(e))).collect();
            let aggs: Vec<_> = (aggs.iter())
                .map(|(l, f, e)| (l.clone(), *f, over(e)))
                .collect();
            let input = sub(input);
            let shape = input.shape().clone();
            let part_keys: Vec<Compiled> = keys.iter().map(|(_, k)| k.clone()).collect();
            Box::new(Breaker::new(
                base,
                [Box::new(move |r, env, seed| {
                    let mut h = spill::seed_hasher(seed);
                    let env = op::bind(env, &shape, r);
                    for k in &part_keys {
                        k.eval(&env)?.hash(&mut h);
                    }
                    Ok(Some(h.finish()))
                })],
                [input],
                Box::new(move |[rows], env, m, _| {
                    group::group_agg(rows, &keys, &aggs, var, env, m)
                }),
            ))
        }
        PhysPlan::SetOp {
            kind,
            left,
            right,
            var,
        } => {
            let (left, right) = (sub(left), sub(right));
            Box::new(Breaker::new(
                base,
                // Equal output values co-partition, so per-partition
                // union/intersect/except concatenate to the global result.
                [value_part(left.shape()), value_part(right.shape())],
                [left, right],
                Box::new(move |[l, r], _env, m, _| group::set_op(*kind, l, r, var, m)),
            ))
        }
        PhysPlan::Apply {
            input,
            subquery,
            label,
            bindings,
        } => {
            let vars = input.output_vars();
            let bindings = (bindings.iter())
                .map(|e| Compiled::new(e, &[&vars]))
                .collect();
            Box::new(ApplyOp::new(base, sub(input), subquery, label, bindings))
        }
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
                pred: None,
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
            pred: None,
        };
        // Full batches, then the rest.
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(3));
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
        let mut profile = Vec::new();
        profile_into(root.as_ref(), 0, None, &mut profile);
        let tree = render_profile(&profile);
        assert!(tree.contains("Filter [rows=6"), "{tree}");
        assert!(tree.contains("Scan(X) [rows=10"), "{tree}");
    }

    #[test]
    fn self_times_add_up_to_the_root_and_render_only_when_timed() {
        let entry = |depth, wall_nanos| OpProfile {
            depth,
            label: "Op".into(),
            rows_out: 0,
            batches_out: 0,
            rows_spilled: 0,
            spill_rows_filtered: 0,
            rows_skipped: 0,
            wall_nanos,
            est_rows: None,
        };
        let tree = [entry(0, 100), entry(1, 60), entry(2, 50), entry(1, 30)];
        assert_eq!(self_nanos(&tree), vec![10, 10, 50, 30]);

        // A root `Map` over a hash nest join, timed and untimed.
        use crate::planner::EquiSplit;
        let scan = |var: &str| {
            Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: var.into(),
                pred: None,
            })
        };
        let plan = PhysPlan::Map {
            input: Box::new(PhysPlan::Join {
                kind: tmql_algebra::JoinKind::Nest {
                    func: E::path("y", &["a"]),
                    label: "s".into(),
                },
                left: scan("x"),
                path: JoinPath::Hash {
                    right: scan("y"),
                    keys: EquiSplit {
                        left_keys: vec![E::path("x", &["b"])],
                        right_keys: vec![E::path("y", &["b"])],
                        residual: None,
                    },
                },
                select: None,
            }),
            expr: E::Tuple(vec![
                ("n".into(), E::path("x", &["a"])),
                ("s".into(), E::var("s")),
            ]),
            var: "v".into(),
        };
        let cat = catalog();
        for timed in [true, false] {
            let config = ExecConfig::default().batch_size(3).collect_timing(timed);
            let mut ctx = ExecContext::with_config(&cat, &config);
            let (values, profile) =
                crate::execute_values(&plan, &mut ctx, &Env::new(), None).unwrap();
            assert_eq!(values.len(), 10);
            let own = self_nanos(&profile);
            assert_eq!(
                own.iter().sum::<u64>(),
                profile[0].wall_nanos,
                "{profile:?}"
            );
            let rendered = render_profile(&profile);
            assert_eq!(rendered.contains(" self="), timed, "{rendered}");
            assert_eq!(rendered.contains(" time="), timed, "{rendered}");
            if timed {
                assert!(profile.iter().all(|e| e.wall_nanos > 0), "{profile:?}");
            } else {
                assert!(
                    rendered.starts_with("Map [rows=10 batches=4]\n"),
                    "{rendered}"
                );
            }
        }
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
                    pred: None,
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
