//! Larger-than-memory execution: partitioned spilling for pipeline
//! breakers.
//!
//! When [`crate::ExecConfig::memory_budget_rows`] is set, every pipeline
//! breaker bounds its resident state with the classic grace discipline:
//! rows are hash-partitioned by the operator's key into
//! `SPILL_FANOUT`-way on-disk runs ([`tmql_storage::spill`]), and each
//! partition is then processed independently — a partition holds every row
//! that could possibly interact (equal keys, equal group keys, equal
//! values), so per-partition results concatenate to the global result.
//!
//! Getting rows onto disk has two entry points: `drain_or_spill`
//! accumulates a child's stream in memory and switches to partitioned
//! spill the moment the budget is crossed (hash-join builds, grouping
//! inputs, set-op / sort-merge operands), recording every key hash it
//! routes by in a [`KeyFilter`]; `spill_rows` partitions an
//! already-materialized operand whose sibling spilled. The probe side of
//! a grace hash join is the one input that is not spilled whole: the join
//! partitions it batch by batch and writes only the rows whose hash the
//! build side's filter has seen — the rest take their dangling answer on
//! the spot, having cost a hash and one bit test.
//!
//! Getting them back has **one**: `Partitions`, the partition driver
//! shared by the grace hash join, the breakers over one or two inputs and
//! `SpillDedup`. It queues `N` aligned runs per partition and
//! `Partitions::next` alone decides each partition's fate — a
//! partition still over budget is **recursively repartitioned** with a
//! fresh hash seed, up to `MAX_REPARTITION_DEPTH` (past that —
//! pathological skew, one key carrying more rows than the whole budget —
//! it is processed in memory anyway: correctness first, the gauge records
//! the overshoot); a partition the operator cannot produce output from is
//! dropped unread; the next one left is handed out. `run_partition`
//! runs the operator's kernel over it in place and materialises the
//! output, so a spilled partition's result is resident once, whole. The
//! operator supplies only what differs: per input a `Side` (partition
//! key, NULL-key routing), a *weight* (the rows its kernel holds
//! resident), a *skip* rule and the kernel.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use tmql_algebra::{Env, ScalarExpr};
use tmql_model::hash::ValueHasher;
use tmql_model::{Record, RecordSet, Result};
use tmql_storage::spill::{RunWriter, SpillFile};

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::operator::{pop_carry, Batch, BoxedOperator, OpStats};
use crate::op::{self, Shape};

/// Number of partitions per spill pass. 8-way: a breaker at `k×` the
/// budget lands partitions at `k/8 ×`, so one pass absorbs overshoots up
/// to 8× and recursion handles the rest.
pub(crate) const SPILL_FANOUT: usize = 8;

/// Maximum recursive repartitioning depth. With [`SPILL_FANOUT`] = 8 this
/// gives up to `8^4 = 4096` effective partitions before skew is accepted.
pub(crate) const MAX_REPARTITION_DEPTH: usize = 4;

/// Partition-key function of one operator: the hash of the row's
/// partitioning key under the given seed, or `None` when the key is NULL
/// (the [`Side`] says what happens to such rows).
pub(crate) type PartFn<'p> = Box<dyn Fn(&Record, &Env<'_>, u64) -> Result<Option<u64>> + 'p>;

/// How one input of a partitioned operator is split: its key function,
/// and whether NULL-key rows are dropped (hash-join build sides — NULL
/// never matches) or routed to partition 0 so they stay together.
#[derive(Clone, Copy)]
pub(crate) struct Side<'a, 'p> {
    /// The input's partition-key function.
    pub part: &'a PartFn<'p>,
    /// Drop NULL-key rows instead of sending them to partition 0.
    pub drop_nullkey: bool,
}

/// The engine's hasher with a recursion-level seed mixed in first, so
/// repartitioning a skewed partition redistributes rows instead of
/// reproducing the same split — and so a partition's rows, which agree on
/// `hash % SPILL_FANOUT`, do not also agree on the bucket bits of the
/// unseeded hash the kernel's in-memory table is built on.
pub fn seed_hasher(seed: u64) -> ValueHasher {
    let mut h = ValueHasher::default();
    h.write_u64(0x746d_716c ^ seed.rotate_left(17));
    h
}

/// Hash a whole record under a seed (partitioning key for dedup state,
/// where the row itself is the key): the seed mixed with the row's
/// remembered [`Record::structural_hash`], so no row is walked twice.
pub(crate) fn hash_record(rec: &Record, seed: u64) -> u64 {
    let mut h = seed_hasher(seed);
    h.write_u64(rec.structural_hash());
    h.finish()
}

/// Partition-key function over equi-join keys of rows of `shape`: the
/// seeded hash of the key values, taken by reference out of the row (no
/// key is evaluated into a value of its own), `None` for NULL keys.
pub fn keys_part<'p>(keys: &'p [ScalarExpr], shape: &Shape) -> PartFn<'p> {
    let shape = shape.clone();
    Box::new(move |r, env, seed| {
        op::hash::hash_keys(keys, &op::bind(env, &shape, r), seed_hasher(seed))
    })
}

/// Partition-key function over a row's output value (set operations
/// compare whole output values, so equal values must co-partition).
pub(crate) fn value_part(shape: &Shape) -> PartFn<'static> {
    let shape = shape.clone();
    Box::new(move |r, _env, seed| {
        let mut h = seed_hasher(seed);
        op::output_value(&shape, r).hash(&mut h);
        Ok(Some(h.finish()))
    })
}

/// The build-side keys of a grace hash join, as one bit per seed-0
/// partition hash: a probe row whose hash the filter has not seen has no
/// partner among the build rows and need not be spilled to learn that.
/// One hash function, so a false positive (two hashes on one bit) costs
/// one spilled row and never an answer; past about 64 keys per budgeted
/// row every bit is set and the filter passes everything.
#[derive(Debug)]
pub struct KeyFilter {
    /// A power of two of 64-bit words.
    words: Vec<u64>,
}

impl KeyFilter {
    /// An empty filter of 64 bits per budgeted row, rounded up to a power
    /// of two (one word at least): 8 bytes a row next to the rows the
    /// budget already allows resident.
    pub fn for_budget(rows: usize) -> KeyFilter {
        KeyFilter {
            words: vec![0; rows.max(1).next_power_of_two()],
        }
    }

    /// The word and bit of `hash`. `hash % SPILL_FANOUT` picked the row's
    /// partition; the bits above pick its place here, so the rows of one
    /// partition still spread over the whole filter.
    fn slot(&self, hash: u64) -> (usize, u64) {
        let bit = hash / SPILL_FANOUT as u64;
        let word = (bit / 64) as usize & (self.words.len() - 1);
        (word, 1 << (bit % 64))
    }

    /// Record a build row's hash.
    pub fn insert(&mut self, hash: u64) {
        let (word, bit) = self.slot(hash);
        self.words[word] |= bit;
    }

    /// False only if no inserted hash equals `hash`.
    pub fn may_contain(&self, hash: u64) -> bool {
        let (word, bit) = self.slot(hash);
        self.words[word] & bit != 0
    }
}

/// Summed rows of a partition's runs: the weight of an operator whose
/// kernel holds every input resident.
pub(crate) fn total_rows<const N: usize>(files: &[SpillFile; N]) -> u64 {
    files.iter().map(SpillFile::rows).sum()
}

/// The run of a [`SPILL_FANOUT`]-way split that a row of `hash` goes to.
pub(super) fn run_of(hash: u64) -> usize {
    (hash % SPILL_FANOUT as u64) as usize
}

/// Route one record into the partition its hash selects, counting the
/// spill traffic. Returns the hash (`None` for a NULL key).
fn route(
    writers: &mut [RunWriter],
    side: Side<'_, '_>,
    env: &Env<'_>,
    rec: &Record,
    seed: u64,
    m: &mut Metrics,
    ops: &mut OpStats,
) -> Result<Option<u64>> {
    let hash = (side.part)(rec, env, seed)?;
    let idx = match hash {
        Some(h) => run_of(h),
        None if side.drop_nullkey => return Ok(None),
        None => 0,
    };
    write_spilled(&mut writers[idx], rec, m, ops)?;
    Ok(hash)
}

/// Append one record to a run, counting the spill traffic.
pub(super) fn write_spilled(
    w: &mut RunWriter,
    rec: &Record,
    m: &mut Metrics,
    ops: &mut OpStats,
) -> Result<()> {
    w.write(rec)?;
    m.rows_spilled += 1;
    ops.rows_spilled += 1;
    Ok(())
}

/// Seal a set of partition writers, counting the non-empty ones. The
/// returned files keep their positions (callers pair build/probe
/// partitions by index), including empty ones.
pub(super) fn finish_runs(
    writers: Vec<RunWriter>,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<SpillFile>> {
    let mut out = Vec::with_capacity(writers.len());
    for w in writers {
        let f = w.finish()?;
        if !f.is_empty() {
            ctx.metrics.spill_partitions += 1;
        }
        out.push(f);
    }
    Ok(out)
}

/// Split the batches `next` yields (an empty one ends the stream) into
/// [`SPILL_FANOUT`] fresh runs.
fn partition(
    mut next: impl FnMut(&mut ExecContext<'_>) -> Result<Vec<Record>>,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    side: Side<'_, '_>,
    seed: u64,
    ops: &mut OpStats,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    loop {
        let rows = next(ctx)?;
        if rows.is_empty() {
            return finish_runs(ws, ctx);
        }
        for r in &rows {
            route(&mut ws, side, env, r, seed, &mut ctx.metrics, ops)?;
        }
    }
}

/// Outcome of [`drain_or_spill`].
pub(crate) enum Drained {
    /// The input fit in the budget. The rows are **already counted** in
    /// the resident gauge; the caller releases them when done.
    Mem(Vec<Record>),
    /// The input overflowed and was hash-partitioned to disk (seed 0):
    /// its runs, and the filter of every key hash a row was routed by.
    /// Nothing is resident.
    Spilled(Vec<SpillFile>, KeyFilter),
}

/// Drain `child` to completion, buffering in memory while the budget
/// allows and switching to [`SPILL_FANOUT`]-way partitioned spill (seed 0)
/// the moment it does not. Without a budget this is a plain materializing
/// drain. On an error nothing stays counted in the resident gauge.
pub(crate) fn drain_or_spill(
    child: &mut BoxedOperator<'_>,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    side: Side<'_, '_>,
    ops: &mut OpStats,
) -> Result<Drained> {
    // `buf` is exactly what this call holds in the gauge at any moment.
    let mut buf: Vec<Record> = Vec::new();
    let mut spill: Option<(Vec<RunWriter>, KeyFilter)> = None;
    let filled = (|| -> Result<()> {
        while let Some(b) = child.pull(ctx)? {
            let rows = match &spill {
                Some(_) => b.rows,
                None => {
                    ctx.resident_acquire(b.len());
                    buf.extend(b.rows);
                    if !ctx.over_budget(buf.len()) {
                        continue;
                    }
                    let budget = ctx.memory_budget_rows().unwrap_or(0);
                    spill = Some((ctx.spill_runs(SPILL_FANOUT)?, KeyFilter::for_budget(budget)));
                    ctx.resident_release(buf.len());
                    std::mem::take(&mut buf)
                }
            };
            if let Some((ws, filter)) = &mut spill {
                for r in &rows {
                    if let Some(h) = route(ws, side, env, r, 0, &mut ctx.metrics, ops)? {
                        filter.insert(h);
                    }
                }
            }
        }
        Ok(())
    })();
    if filled.is_err() {
        ctx.resident_release(buf.len());
    }
    filled?;
    match spill {
        None => Ok(Drained::Mem(buf)),
        Some((ws, filter)) => Ok(Drained::Spilled(finish_runs(ws, ctx)?, filter)),
    }
}

/// Partition an already-materialized row vector (seed 0). The caller is
/// responsible for releasing the rows' resident accounting.
pub(crate) fn spill_rows(
    rows: Vec<Record>,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    side: Side<'_, '_>,
    ops: &mut OpStats,
) -> Result<Vec<SpillFile>> {
    let mut rows = Some(rows);
    partition(
        |_| Ok(rows.take().unwrap_or_default()),
        ctx,
        env,
        side,
        0,
        ops,
    )
}

/// Re-split one oversized partition with a fresh seed (skew recovery).
/// Reads the run back batch-at-a-time, so memory stays at one batch.
fn repartition(
    file: SpillFile,
    ctx: &mut ExecContext<'_>,
    env: &Env<'_>,
    side: Side<'_, '_>,
    seed: u64,
    ops: &mut OpStats,
) -> Result<Vec<SpillFile>> {
    let mut reader = file.reader()?;
    let n = ctx.batch_size();
    partition(|_| reader.read_batch(n), ctx, env, side, seed, ops)
}

// ---------------------------------------------------------------------------
// The partition driver
// ---------------------------------------------------------------------------

/// Pair up the `i`-th runs of every side. Ends at the shortest side (all
/// sides hold [`SPILL_FANOUT`] runs, empty ones included).
fn zip_sides<const N: usize>(sides: Vec<Vec<SpillFile>>) -> impl Iterator<Item = [SpillFile; N]> {
    let mut sides: Vec<_> = sides.into_iter().map(Vec::into_iter).collect();
    std::iter::from_fn(move || {
        let row: Vec<SpillFile> = sides.iter_mut().filter_map(Iterator::next).collect();
        row.try_into().ok()
    })
}

/// The spilled state of one operator: a queue of partitions, each `N`
/// aligned runs (one per input) plus the repartitioning depth it was
/// written at, processed front to back.
pub(crate) struct Partitions<const N: usize> {
    queue: VecDeque<([SpillFile; N], usize)>,
}

impl<const N: usize> Partitions<N> {
    /// Queue the first-pass (seed 0) runs of every input, `i`-th with
    /// `i`-th.
    pub fn new(sides: [Vec<SpillFile>; N]) -> Partitions<N> {
        Partitions {
            queue: zip_sides(sides.into()).map(|files| (files, 1)).collect(),
        }
    }

    /// The next partition to process — its `N` aligned runs and its
    /// weight — or `None` when the queue is exhausted. Front to back, each
    /// partition is
    ///
    /// 1. **re-split** when its `weight` exceeds the budget, it is above
    ///    one row and below [`MAX_REPARTITION_DEPTH`]: every side is
    ///    repartitioned under seed = depth (so equal keys stay paired)
    ///    and the children take its place in the queue;
    /// 2. else **dropped** unread when `skip` says the kernel has nothing
    ///    to produce from it;
    /// 3. else **handed out**.
    pub fn next(
        &mut self,
        ctx: &mut ExecContext<'_>,
        env: &Env<'_>,
        sides: [Side<'_, '_>; N],
        weight: impl Fn(&[SpillFile; N]) -> u64,
        skip: impl Fn(&[SpillFile; N]) -> bool,
        ops: &mut OpStats,
    ) -> Result<Option<([SpillFile; N], u64)>> {
        while let Some((files, depth)) = self.queue.pop_front() {
            let w = weight(&files);
            if ctx.over_budget(w as usize) && depth < MAX_REPARTITION_DEPTH && w > 1 {
                let mut subs = Vec::with_capacity(N);
                for (file, side) in files.into_iter().zip(sides) {
                    subs.push(repartition(file, ctx, env, side, depth as u64, ops)?);
                }
                let children: Vec<_> = zip_sides(subs).collect();
                for files in children.into_iter().rev() {
                    self.queue.push_front((files, depth + 1));
                }
            } else if !skip(&files) {
                return Ok(Some((files, w)));
            }
            // A skipped partition's runs are deleted unread as they drop.
        }
        Ok(None)
    }
}

/// Run `kernel` over one partition, in place on the context's metrics,
/// and return its output. The partition's weight is held in the resident
/// gauge while the kernel runs; the returned rows are **already counted**
/// in it (the caller releases them as it emits them). On an error nothing
/// stays counted.
pub(crate) fn run_partition<const N: usize>(
    ctx: &mut ExecContext<'_>,
    (files, weight): ([SpillFile; N], u64),
    kernel: impl FnOnce([SpillFile; N], &mut Metrics) -> Result<Vec<Record>>,
) -> Result<Vec<Record>> {
    ctx.resident_acquire(weight as usize);
    let out = kernel(files, &mut ctx.metrics);
    ctx.resident_release(weight as usize);
    let out = out?;
    ctx.resident_acquire(out.len());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Spillable dedup (Map / Project seen-sets)
// ---------------------------------------------------------------------------

/// Hybrid streaming/spilling dedup: the whole `next_batch` of an operator
/// that maps each input row to an output row and emits the distinct ones.
///
/// While the distinct-set fits the budget the first occurrence of a row
/// is emitted immediately. On overflow the operator degrades to a
/// breaker: the seen-set is spilled into per-partition "seen" runs (these
/// rows were **already emitted** and must be suppressed later), every
/// further candidate goes to a paired "candidate" run, and once the input
/// is exhausted the (seen, candidates) pairs drain through
/// [`Partitions`] — load the partition's seen-set, stream its candidates
/// through it, emit the new distinct rows.
#[derive(Default)]
pub(crate) struct SpillDedup {
    seen: RecordSet,
    /// The (seen, candidate) partition writers, once overflowed.
    writers: Option<[Vec<RunWriter>; 2]>,
    /// The input is exhausted (and `writers`, if any, became `drain`).
    sealed: bool,
    drain: Option<Partitions<2>>,
    /// Deferred rows a drained partition produced, handed out in batches.
    ready: VecDeque<Record>,
}

/// The run of a [`SPILL_FANOUT`]-way split that `rec` belongs to.
fn dedup_slot(rec: &Record, seed: u64) -> usize {
    run_of(hash_record(rec, seed))
}

impl SpillDedup {
    /// Fresh, empty dedup state (streaming mode).
    pub fn new() -> SpillDedup {
        SpillDedup::default()
    }

    /// Produce the operator's next batch: pull from `child`, map each row
    /// through `project`, and emit the rows not seen before; after the
    /// input ends, the rows deferred to spill partitions.
    pub fn next_batch(
        &mut self,
        child: &mut BoxedOperator<'_>,
        ctx: &mut ExecContext<'_>,
        ops: &mut OpStats,
        mut project: impl FnMut(Record) -> Result<Record>,
    ) -> Result<Option<Batch>> {
        while !self.sealed {
            let Some(b) = child.pull(ctx)? else {
                self.seal(ctx)?;
                break;
            };
            let mut out = Vec::new();
            for row in b.rows {
                if let Some(rec) = self.offer(project(row)?, ctx, ops)? {
                    out.push(rec);
                }
            }
            if !out.is_empty() {
                return Ok(Some(Batch::new(out)));
            }
        }
        self.next_deferred(ctx, ops)
    }

    /// Offer a candidate row. Returns `Some(row)` when the row is new and
    /// can be emitted immediately (streaming mode); `None` when it is a
    /// duplicate or was deferred to a spill partition.
    fn offer(
        &mut self,
        rec: Record,
        ctx: &mut ExecContext<'_>,
        ops: &mut OpStats,
    ) -> Result<Option<Record>> {
        if self.writers.is_none() {
            if !self.seen.insert(rec.clone()) {
                return Ok(None);
            }
            if !ctx.over_budget(self.seen.len()) {
                ctx.resident_acquire(1);
                return Ok(Some(rec));
            }
            // Overflow: spill the emitted set — `seen` but for its last
            // row, this one — and defer this and all further candidates.
            let mut emitted = std::mem::take(&mut self.seen).into_rows();
            emitted.pop();
            // Out of `seen`, so out of the gauge, even if a write fails.
            ctx.resident_release(emitted.len());
            let mut seen_parts = ctx.spill_runs(SPILL_FANOUT)?;
            let cand_parts = ctx.spill_runs(SPILL_FANOUT)?;
            for r in emitted {
                write_spilled(
                    &mut seen_parts[dedup_slot(&r, 0)],
                    &r,
                    &mut ctx.metrics,
                    ops,
                )?;
            }
            self.writers = Some([seen_parts, cand_parts]);
        }
        if let Some([_, cand_parts]) = self.writers.as_mut() {
            write_spilled(
                &mut cand_parts[dedup_slot(&rec, 0)],
                &rec,
                &mut ctx.metrics,
                ops,
            )?;
        }
        Ok(None)
    }

    /// Input exhausted: seal the spill writers (if any) into the
    /// partitions of the drain phase.
    fn seal(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.sealed = true;
        if let Some([seen_parts, cand_parts]) = self.writers.take() {
            let seen_files = finish_runs(seen_parts, ctx)?;
            let cand_files = finish_runs(cand_parts, ctx)?;
            self.drain = Some(Partitions::new([seen_files, cand_files]));
        }
        Ok(())
    }

    /// The next batch of deferred distinct rows; `None` when the drain is
    /// complete (the immediate answer when nothing was deferred). A
    /// partition weighs its seen-set plus its candidates — together the
    /// most its kernel's set can hold — and one without candidates has
    /// nothing left to emit.
    fn next_deferred(
        &mut self,
        ctx: &mut ExecContext<'_>,
        ops: &mut OpStats,
    ) -> Result<Option<Batch>> {
        // Whole-record partitioning: dedup's key is the row itself.
        let part: PartFn<'static> = Box::new(|r, _env, seed| Ok(Some(hash_record(r, seed))));
        let side = Side {
            part: &part,
            drop_nullkey: false,
        };
        let n = ctx.batch_size();
        let env = Env::new();
        loop {
            if let Some(b) = pop_carry(&mut self.ready, n, ctx) {
                return Ok(Some(b));
            }
            let Some(drain) = self.drain.as_mut() else {
                return Ok(None);
            };
            let no_candidates = |[_, cand]: &[SpillFile; 2]| cand.is_empty();
            let part = drain.next(ctx, &env, [side; 2], total_rows, no_candidates, ops)?;
            let Some(part) = part else {
                self.drain = None;
                return Ok(None);
            };
            self.ready
                .extend(run_partition(ctx, part, |[seen_f, cand_f], _| {
                    let mut seen: RecordSet = seen_f.reader()?.read_all()?.into_iter().collect();
                    let mut out = cand_f.reader()?.read_all()?;
                    out.retain(|r| seen.insert(r.clone()));
                    Ok(out)
                })?);
        }
    }

    /// Release all resident accounting and drop every spill artifact
    /// (open/close path of the owning operator).
    pub fn reset(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.seen.len() + self.ready.len());
        self.seen.clear();
        self.ready.clear();
        self.writers = None;
        self.drain = None;
        self.sealed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use tmql_model::Value;
    use tmql_storage::Catalog;

    /// Partition key = the `k` field; NULL has no key.
    fn by_k() -> PartFn<'static> {
        Box::new(|r, _env, seed| {
            let k = r.get("k")?;
            let mut h = seed_hasher(seed);
            k.hash(&mut h);
            Ok((!k.is_null()).then(|| h.finish()))
        })
    }

    /// The run of a split under `seed` that key `k` lands in.
    fn slot(k: &Value, seed: u64) -> usize {
        let row = Record::single("k".into(), k.clone());
        let h = by_k()(&row, &Env::new(), seed).unwrap().unwrap();
        (h % SPILL_FANOUT as u64) as usize
    }

    /// A hand-built run of one-field rows; a negative key stands for NULL.
    fn run_of(ctx: &mut ExecContext<'_>, keys: impl IntoIterator<Item = i64>) -> SpillFile {
        let mut w = ctx.spill_run().unwrap();
        for k in keys {
            let v = if k < 0 { Value::Null } else { Value::Int(k) };
            w.write(&Record::single("k".into(), v)).unwrap();
        }
        w.finish().unwrap()
    }

    fn keys_of(file: &SpillFile) -> Vec<Value> {
        let rows = file.reader().unwrap().read_all().unwrap();
        rows.iter().map(|r| r.get("k").unwrap().clone()).collect()
    }

    /// One partition as the test sees it: its weight and the keys in each
    /// side's run.
    type Seen<const N: usize> = (u64, [Vec<Value>; N]);

    /// Drain the driver under weight = summed rows, skip = every run empty.
    fn drain<const N: usize>(
        mut parts: Partitions<N>,
        ctx: &mut ExecContext<'_>,
        drop_nullkey: [bool; N],
        ops: &mut OpStats,
    ) -> Vec<Seen<N>> {
        let part = by_k();
        let sides = drop_nullkey.map(|drop_nullkey| Side {
            part: &part,
            drop_nullkey,
        });
        let all_empty = |f: &[SpillFile; N]| f.iter().all(SpillFile::is_empty);
        let mut out = Vec::new();
        while let Some((files, weight)) = parts
            .next(ctx, &Env::new(), sides, total_rows, all_empty, ops)
            .unwrap()
        {
            out.push((weight, std::array::from_fn(|i| keys_of(&files[i]))));
        }
        out
    }

    fn ctx_with(cat: &Catalog, budget: usize) -> ExecContext<'_> {
        ExecContext::with_config(cat, &ExecConfig::default().memory_budget(budget))
    }

    #[test]
    fn partitions_come_one_at_a_time_and_skip_without_io() {
        let cat = Catalog::new();
        let mut ctx = ctx_with(&cat, 10);
        let sizes = [0, 4, 0, 4, 4, 0, 4, 9, 3, 0];
        let runs = sizes.map(|n| run_of(&mut ctx, 0..n)).into();
        let mut ops = OpStats::default();
        let got = drain(Partitions::new([runs]), &mut ctx, [false], &mut ops);
        // Every non-empty partition is handed out once, alone, in queue
        // order, weighing its rows; the empty ones between them are not.
        let weights: Vec<u64> = got.iter().map(|(w, _)| *w).collect();
        assert_eq!(weights, vec![4, 4, 4, 4, 9, 3]);
        for (weight, [run]) in &got {
            assert_eq!(*weight, run.len() as u64);
        }
        assert_eq!(ops.rows_spilled, 0, "nothing was re-split");
        assert_eq!(ctx.metrics.spill_partitions, 0, "no run was written");
    }

    #[test]
    fn oversize_partition_is_resplit_with_seed_depth_in_queue_order() {
        let cat = Catalog::new();
        let mut ctx = ctx_with(&cat, 8);
        let runs = vec![run_of(&mut ctx, 0..20), run_of(&mut ctx, 100..102)];
        let mut ops = OpStats::default();
        let got = drain(Partitions::new([runs]), &mut ctx, [false], &mut ops);
        assert_eq!(ops.rows_spilled, 20, "only the 20-row partition re-split");
        // The 20 rows come back as the non-empty runs of a split under
        // seed 1 (the parent's depth), in run order and ahead of the
        // sibling that was queued behind them.
        let Some(((_, sibling), children)) = got.split_last() else {
            panic!("no partitions");
        };
        assert_eq!(sibling[0], vec![Value::Int(100), Value::Int(101)]);
        let children: Vec<&Vec<Value>> = children.iter().map(|(_, p)| &p[0]).collect();
        assert_eq!(children.iter().map(|c| c.len()).sum::<usize>(), 20);
        let slots: Vec<usize> = children.iter().map(|c| slot(&c[0], 1)).collect();
        assert!(slots.windows(2).all(|p| p[0] < p[1]), "{slots:?}");
        for (c, s) in children.iter().zip(&slots) {
            assert!(c.iter().all(|k| slot(k, 1) == *s), "{c:?} not in run {s}");
        }
    }

    #[test]
    fn recursion_stops_at_max_depth_and_at_one_row() {
        let cat = Catalog::new();
        // One key carries every row: no seed can split it.
        let mut ctx = ctx_with(&cat, 4);
        let runs = vec![run_of(&mut ctx, [7; 20])];
        let mut ops = OpStats::default();
        let got = drain(Partitions::new([runs]), &mut ctx, [false], &mut ops);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1[0].len(), 20, "processed whole, over budget");
        let passes = (MAX_REPARTITION_DEPTH - 1) as u64;
        assert_eq!(ops.rows_spilled, 20 * passes, "depths 1..MAX re-split");
        // A single row is over a zero budget, and still not re-split.
        let mut ctx = ctx_with(&cat, 0);
        let runs = vec![run_of(&mut ctx, [1])];
        let mut ops = OpStats::default();
        let got = drain(Partitions::new([runs]), &mut ctx, [false], &mut ops);
        assert_eq!((got.len(), ops.rows_spilled), (1, 0));
    }

    #[test]
    fn the_seed_decorrelates_partitions_from_each_other_and_from_the_table_hash() {
        use tmql_model::hash::ChainIndex;
        // The partition hash and the in-memory table's are one family now.
        // Were they one *function*, the rows of a partition — equal in
        // `hash % 8` — would share an eighth of their table's buckets.
        let keys = [ScalarExpr::path("x", &["k"])];
        let shape = Shape::bare("x");
        let part = keys_part(&keys, &shape);
        let rows: Vec<Record> = (0..8192)
            .map(|k| Record::single("k".into(), Value::Int(k)))
            .collect();
        let env = Env::new();
        let table_hash = |r: &Record| {
            let bound = op::bind(&env, &shape, r);
            op::hash::hash_keys(&keys, &bound, ValueHasher::default()).unwrap()
        };
        let even = rows.len() / SPILL_FANOUT;
        let mut splits = Vec::new();
        for seed in 0..4 {
            let mut runs = vec![Vec::new(); SPILL_FANOUT];
            for r in &rows {
                let h = part(r, &env, seed).unwrap().expect("no NULL key");
                runs[(h % SPILL_FANOUT as u64) as usize].push(table_hash(r).expect("no NULL"));
            }
            for (i, hashes) in runs.iter().enumerate() {
                let off = hashes.len().abs_diff(even);
                assert!(
                    off * 4 <= even,
                    "seed {seed} run {i}: {} rows",
                    hashes.len()
                );
                let table = ChainIndex::build(hashes);
                let longest = hashes.iter().map(|&h| table.chain(h).count()).max();
                assert!(
                    longest <= Some(8),
                    "seed {seed} run {i}: chain of {longest:?}"
                );
            }
            splits.push(runs);
        }
        // A re-split under the next seed cuts a run eight ways again.
        for pair in splits.windows(2) {
            let again: std::collections::BTreeSet<u64> = pair[1][0].iter().copied().collect();
            let kept = pair[0][0].iter().filter(|h| again.contains(h)).count();
            assert!(
                kept * 4 <= pair[0][0].len(),
                "{kept} of run 0 stay together"
            );
        }
    }

    #[test]
    fn null_keys_drop_or_land_in_partition_zero_per_side() {
        let cat = Catalog::new();
        let mut ctx = ctx_with(&cat, 8);
        // Sixteen keyed rows and three NULL-key rows on both sides: the
        // pair is over budget, so both sides are re-split.
        let keys = || (0..16).chain([-1, -1, -1]);
        let (l, r) = (run_of(&mut ctx, keys()), run_of(&mut ctx, keys()));
        let mut ops = OpStats::default();
        let parts = Partitions::new([vec![l], vec![r]]);
        let got = drain(parts, &mut ctx, [true, false], &mut ops);
        let pairs: Vec<&[Vec<Value>; 2]> = got.iter().map(|(_, p)| p).collect();
        let nulls = |run: &Vec<Value>| run.iter().filter(|k| k.is_null()).count();
        let total = |side: usize| pairs.iter().map(|p| p[side].len()).sum::<usize>();
        assert_eq!((total(0), total(1)), (16, 19), "dropped left, kept right");
        assert!(pairs.iter().all(|p| nulls(&p[0]) == 0));
        assert_eq!(nulls(&pairs[0][1]), 3, "NULL keys stay in partition 0");
        for [l, r] in &pairs {
            assert!(l.iter().all(|k| r.contains(k)), "sides stay paired");
        }
    }
}
