//! Larger-than-memory execution: partitioned spilling for pipeline
//! breakers.
//!
//! When [`crate::ExecConfig::memory_budget_rows`] is set, every pipeline
//! breaker bounds its resident state with the classic grace discipline:
//! rows are hash-partitioned by the operator's key into
//! [`SPILL_FANOUT`]-way on-disk runs ([`tmql_storage::spill`]), and each
//! partition is then processed independently — a partition holds every row
//! that could possibly interact (equal keys, equal group keys, equal
//! values), so per-partition results concatenate to the global result.
//! A partition that still exceeds the budget is **recursively
//! repartitioned** with a fresh hash seed, up to
//! [`MAX_REPARTITION_DEPTH`]; past that (pathological skew: one key
//! carrying more rows than the whole budget) the partition is processed in
//! memory anyway — correctness first, the gauge records the overshoot.
//!
//! Three entry points cover the breaker shapes:
//!
//! * [`drain_or_spill`] — accumulate a child's stream in memory, switching
//!   to partitioned spill the moment the budget is crossed (hash-join
//!   builds, grouping inputs, set-op / sort-merge operands);
//! * [`spill_stream`] / [`spill_rows`] — partition unconditionally (the
//!   probe side of a grace hash join; an already-materialized operand
//!   whose sibling spilled);
//! * [`SpillDedup`] — the hybrid dedup used by Map / Project: streams
//!   distinct rows while the seen-set fits, and degrades to a two-file
//!   (seen, candidate) partitioned dedup when it does not.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use tmql_algebra::Env;
use tmql_model::{Record, RecordSet, Result};
use tmql_storage::spill::{RunReader, RunWriter, SpillFile};

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::operator::{BoxedOperator, OpStats};

/// Number of partitions per spill pass. 8-way: a breaker at `k×` the
/// budget lands partitions at `k/8 ×`, so one pass absorbs overshoots up
/// to 8× and recursion handles the rest.
pub const SPILL_FANOUT: usize = 8;

/// Maximum recursive repartitioning depth. With [`SPILL_FANOUT`] = 8 this
/// gives up to `8^4 = 4096` effective partitions before skew is accepted.
pub const MAX_REPARTITION_DEPTH: usize = 4;

/// Partition-key function of one operator: the hash of the row's
/// partitioning key under the given seed, or `None` when the key is NULL
/// (the caller decides whether NULL-key rows are dropped — hash-join build
/// sides — or routed to partition 0 so they stay together).
pub type PartFn<'p> = Box<dyn Fn(&Record, &mut Env, u64) -> Result<Option<u64>> + 'p>;

/// A hasher mixing in a recursion-level seed, so repartitioning a skewed
/// partition redistributes rows instead of reproducing the same split.
pub fn seed_hasher(seed: u64) -> DefaultHasher {
    let mut h = DefaultHasher::new();
    h.write_u64(0x746d_716c ^ seed.rotate_left(17));
    h
}

/// Hash a whole record under a seed (partitioning key for dedup state,
/// where the row itself is the key).
pub fn hash_record(rec: &Record, seed: u64) -> u64 {
    let mut h = seed_hasher(seed);
    rec.hash(&mut h);
    h.finish()
}

/// Route one record into the partition its hash selects, counting the
/// spill traffic. NULL-key rows are dropped or sent to partition 0 per
/// `drop_nullkey`.
#[allow(clippy::too_many_arguments)]
fn route(
    writers: &mut [RunWriter],
    part: &PartFn<'_>,
    env: &mut Env,
    rec: &Record,
    seed: u64,
    drop_nullkey: bool,
    m: &mut Metrics,
    ops: &mut OpStats,
) -> Result<()> {
    let idx = match part(rec, env, seed)? {
        Some(h) => (h % writers.len() as u64) as usize,
        None if drop_nullkey => return Ok(()),
        None => 0,
    };
    writers[idx].write(rec)?;
    m.rows_spilled += 1;
    ops.rows_spilled += 1;
    Ok(())
}

/// Seal a set of partition writers, counting the non-empty ones. The
/// returned files keep their positions (callers pair build/probe
/// partitions by index), including empty ones.
fn finish_runs(writers: Vec<RunWriter>, ctx: &mut ExecContext<'_>) -> Result<Vec<SpillFile>> {
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

/// Outcome of [`drain_or_spill`].
pub enum Drained {
    /// The input fit in the budget. The rows are **already counted** in
    /// the resident gauge; the caller releases them when done.
    Mem(Vec<Record>),
    /// The input overflowed and was hash-partitioned to disk (seed 0).
    /// Nothing is resident.
    Spilled(Vec<SpillFile>),
}

/// Drain `child` to completion, buffering in memory while the budget
/// allows and switching to [`SPILL_FANOUT`]-way partitioned spill (seed 0)
/// the moment it does not. Without a budget this is a plain materializing
/// drain.
pub fn drain_or_spill(
    child: &mut BoxedOperator<'_>,
    ctx: &mut ExecContext<'_>,
    env: &mut Env,
    part: &PartFn<'_>,
    drop_nullkey: bool,
    ops: &mut OpStats,
) -> Result<Drained> {
    let mut buf: Vec<Record> = Vec::new();
    let mut writers: Option<Vec<RunWriter>> = None;
    while let Some(b) = child.pull(ctx)? {
        match writers.as_mut() {
            None => {
                ctx.resident_acquire(b.len());
                buf.extend(b.rows);
                if ctx.over_budget(buf.len()) {
                    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
                    let n = buf.len();
                    for r in buf.drain(..) {
                        route(
                            &mut ws,
                            part,
                            env,
                            &r,
                            0,
                            drop_nullkey,
                            &mut ctx.metrics,
                            ops,
                        )?;
                    }
                    ctx.resident_release(n);
                    writers = Some(ws);
                }
            }
            Some(ws) => {
                for r in b.rows {
                    route(ws, part, env, &r, 0, drop_nullkey, &mut ctx.metrics, ops)?;
                }
            }
        }
    }
    match writers {
        None => Ok(Drained::Mem(buf)),
        Some(ws) => Ok(Drained::Spilled(finish_runs(ws, ctx)?)),
    }
}

/// Drain `child` straight into partitions (seed 0), buffering nothing —
/// the probe side of a grace hash join.
pub fn spill_stream(
    child: &mut BoxedOperator<'_>,
    ctx: &mut ExecContext<'_>,
    env: &mut Env,
    part: &PartFn<'_>,
    drop_nullkey: bool,
    ops: &mut OpStats,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    while let Some(b) = child.pull(ctx)? {
        for r in b.rows {
            route(
                &mut ws,
                part,
                env,
                &r,
                0,
                drop_nullkey,
                &mut ctx.metrics,
                ops,
            )?;
        }
    }
    finish_runs(ws, ctx)
}

/// Partition an already-materialized row vector (seed 0). The caller is
/// responsible for releasing the rows' resident accounting.
pub fn spill_rows(
    rows: Vec<Record>,
    ctx: &mut ExecContext<'_>,
    env: &mut Env,
    part: &PartFn<'_>,
    drop_nullkey: bool,
    ops: &mut OpStats,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    for r in &rows {
        route(
            &mut ws,
            part,
            env,
            r,
            0,
            drop_nullkey,
            &mut ctx.metrics,
            ops,
        )?;
    }
    finish_runs(ws, ctx)
}

/// Re-split one oversized partition with a fresh seed (skew recovery).
/// Reads the run back batch-at-a-time, so memory stays at one batch.
pub fn repartition(
    file: SpillFile,
    ctx: &mut ExecContext<'_>,
    env: &mut Env,
    part: &PartFn<'_>,
    seed: u64,
    drop_nullkey: bool,
    ops: &mut OpStats,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    let mut reader = file.reader()?;
    loop {
        let batch = reader.read_batch(ctx.batch_size())?;
        if batch.is_empty() {
            break;
        }
        for r in &batch {
            route(
                &mut ws,
                part,
                env,
                r,
                seed,
                drop_nullkey,
                &mut ctx.metrics,
                ops,
            )?;
        }
    }
    finish_runs(ws, ctx)
}

// ---------------------------------------------------------------------------
// Spillable dedup (Map / Project seen-sets)
// ---------------------------------------------------------------------------

/// Hybrid streaming/spilling dedup state.
///
/// While the distinct-set fits the budget, [`SpillDedup::offer`] behaves
/// like a streaming set insert: the first occurrence of a row is
/// returned for immediate emission. On overflow the operator degrades to a
/// breaker: the seen-set is spilled into per-partition "seen" runs (these
/// rows were **already emitted** and must be suppressed later), every
/// further candidate goes to a paired "candidate" run, and after
/// [`SpillDedup::seal`] the partitions drain one at a time — load the
/// partition's seen-set, stream its candidates through it, emit the new
/// distinct rows. Oversized partitions repartition recursively like every
/// other spill consumer.
#[derive(Default)]
pub struct SpillDedup {
    seen: RecordSet,
    writers: Option<DedupWriters>,
    drain: Option<DedupDrain>,
    /// Deferred rows produced by a parallel drain wave, handed out in
    /// batch-sized slices (serial drains never use this buffer).
    ready: VecDeque<Record>,
}

struct DedupWriters {
    seen_parts: Vec<RunWriter>,
    cand_parts: Vec<RunWriter>,
}

struct DedupDrain {
    /// (seen, candidates, depth) triples still to process.
    parts: VecDeque<(SpillFile, SpillFile, usize)>,
    cur: Option<CurPart>,
}

struct CurPart {
    seen: RecordSet,
    reader: RunReader,
    /// Keeps the candidate run alive while its reader streams.
    _file: SpillFile,
}

/// Whole-record partitioning: dedup's key is the row itself.
fn dedup_part() -> PartFn<'static> {
    Box::new(|r, _env, seed| Ok(Some(hash_record(r, seed))))
}

impl SpillDedup {
    /// Fresh, empty dedup state (streaming mode).
    pub fn new() -> SpillDedup {
        SpillDedup::default()
    }

    /// True iff dedup overflowed and rows are deferred to the drain phase.
    pub fn spilled(&self) -> bool {
        self.writers.is_some() || self.drain.is_some()
    }

    /// Offer a candidate row. Returns `Some(row)` when the row is new and
    /// can be emitted immediately (streaming mode); `None` when it is a
    /// duplicate or was deferred to a spill partition.
    pub fn offer(
        &mut self,
        rec: Record,
        ctx: &mut ExecContext<'_>,
        ops: &mut OpStats,
    ) -> Result<Option<Record>> {
        if let Some(w) = self.writers.as_mut() {
            let idx = (hash_record(&rec, 0) % w.cand_parts.len() as u64) as usize;
            w.cand_parts[idx].write(&rec)?;
            ctx.metrics.rows_spilled += 1;
            ops.rows_spilled += 1;
            return Ok(None);
        }
        if !self.seen.insert(rec.clone()) {
            return Ok(None);
        }
        if ctx.over_budget(self.seen.len()) {
            // Overflow: spill the emitted set, defer this and all further
            // candidates.
            self.seen.remove(&rec);
            let seen_parts = ctx.spill_runs(SPILL_FANOUT)?;
            let cand_parts = ctx.spill_runs(SPILL_FANOUT)?;
            let mut w = DedupWriters {
                seen_parts,
                cand_parts,
            };
            let n = self.seen.len();
            for r in std::mem::take(&mut self.seen) {
                let idx = (hash_record(&r, 0) % w.seen_parts.len() as u64) as usize;
                w.seen_parts[idx].write(&r)?;
                ctx.metrics.rows_spilled += 1;
                ops.rows_spilled += 1;
            }
            ctx.resident_release(n);
            let idx = (hash_record(&rec, 0) % w.cand_parts.len() as u64) as usize;
            w.cand_parts[idx].write(&rec)?;
            ctx.metrics.rows_spilled += 1;
            ops.rows_spilled += 1;
            self.writers = Some(w);
            return Ok(None);
        }
        ctx.resident_acquire(1);
        Ok(Some(rec))
    }

    /// Input exhausted: seal the spill writers (if any) and prepare the
    /// drain phase.
    pub fn seal(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if let Some(w) = self.writers.take() {
            let seen_files = finish_runs(w.seen_parts, ctx)?;
            let cand_files = finish_runs(w.cand_parts, ctx)?;
            let parts = seen_files
                .into_iter()
                .zip(cand_files)
                .map(|(s, c)| (s, c, 1))
                .collect();
            self.drain = Some(DedupDrain { parts, cur: None });
        }
        Ok(())
    }

    /// Pull up to `n` deferred distinct rows from the drain phase. An
    /// empty vector means the drain is complete (and is the immediate
    /// answer in streaming mode, where nothing was deferred).
    pub fn next_deferred(
        &mut self,
        n: usize,
        ctx: &mut ExecContext<'_>,
        ops: &mut OpStats,
    ) -> Result<Vec<Record>> {
        let part = dedup_part();
        if ctx.threads() > 1 {
            return self.next_deferred_parallel(n, ctx, ops, &part);
        }
        loop {
            let Some(drain) = self.drain.as_mut() else {
                return Ok(Vec::new());
            };
            if let Some(cur) = drain.cur.as_mut() {
                let batch = cur.reader.read_batch(n)?;
                if batch.is_empty() {
                    ctx.resident_release(cur.seen.len());
                    drain.cur = None;
                    continue;
                }
                let mut out = Vec::new();
                for r in batch {
                    if cur.seen.insert(r.clone()) {
                        ctx.resident_acquire(1);
                        out.push(r);
                    }
                }
                if out.is_empty() {
                    continue;
                }
                return Ok(out);
            }
            match drain.parts.pop_front() {
                None => {
                    self.drain = None;
                    return Ok(Vec::new());
                }
                Some((seen_f, cand_f, depth)) => {
                    let total = seen_f.rows() + cand_f.rows();
                    if ctx.over_budget(total as usize) && depth < MAX_REPARTITION_DEPTH && total > 1
                    {
                        let mut env = Env::new();
                        let seed = depth as u64;
                        let new_seen = repartition(seen_f, ctx, &mut env, &part, seed, false, ops)?;
                        let new_cand = repartition(cand_f, ctx, &mut env, &part, seed, false, ops)?;
                        let drain = self.drain.as_mut().expect("still draining");
                        for (s, c) in new_seen.into_iter().zip(new_cand).rev() {
                            drain.parts.push_front((s, c, depth + 1));
                        }
                        continue;
                    }
                    if cand_f.is_empty() {
                        continue;
                    }
                    let seen: RecordSet = seen_f.reader()?.read_all()?.into_iter().collect();
                    ctx.resident_acquire(seen.len());
                    let reader = cand_f.reader()?;
                    drain.cur = Some(CurPart {
                        seen,
                        reader,
                        _file: cand_f,
                    });
                }
            }
        }
    }

    /// Drain-phase wave for parallel execution: up to `threads` (seen,
    /// candidates) partition pairs dedup concurrently on scoped workers,
    /// gathered in partition order into the `ready` buffer and handed out
    /// in batch-sized slices — so emission order and batch sizes match the
    /// serial drain exactly. Waves are budget-capped on the summed pair
    /// sizes (concurrent seen-sets are summed resident state), ≥ 1 pair
    /// per wave.
    fn next_deferred_parallel(
        &mut self,
        n: usize,
        ctx: &mut ExecContext<'_>,
        ops: &mut OpStats,
        part: &PartFn<'_>,
    ) -> Result<Vec<Record>> {
        loop {
            if !self.ready.is_empty() {
                let k = n.min(self.ready.len());
                let out: Vec<Record> = self.ready.drain(..k).collect();
                ctx.resident_release(out.len());
                return Ok(out);
            }
            if self.drain.is_none() {
                return Ok(Vec::new());
            }
            let mut wave: Vec<(SpillFile, SpillFile)> = Vec::new();
            let mut wave_rows: u64 = 0;
            while wave.len() < ctx.threads() {
                let next = self
                    .drain
                    .as_mut()
                    .expect("still draining")
                    .parts
                    .pop_front();
                let Some((seen_f, cand_f, depth)) = next else {
                    break;
                };
                let total = seen_f.rows() + cand_f.rows();
                if ctx.over_budget(total as usize) && depth < MAX_REPARTITION_DEPTH && total > 1 {
                    let mut env = Env::new();
                    let seed = depth as u64;
                    let new_seen = repartition(seen_f, ctx, &mut env, part, seed, false, ops)?;
                    let new_cand = repartition(cand_f, ctx, &mut env, part, seed, false, ops)?;
                    let drain = self.drain.as_mut().expect("still draining");
                    for (s, c) in new_seen.into_iter().zip(new_cand).rev() {
                        drain.parts.push_front((s, c, depth + 1));
                    }
                    continue;
                }
                if cand_f.is_empty() {
                    continue;
                }
                if !wave.is_empty() && ctx.over_budget((wave_rows + total) as usize) {
                    let drain = self.drain.as_mut().expect("still draining");
                    drain.parts.push_front((seen_f, cand_f, depth));
                    break;
                }
                wave_rows += total;
                wave.push((seen_f, cand_f));
            }
            if wave.is_empty() {
                self.drain = None;
                return Ok(Vec::new());
            }
            ctx.resident_acquire(wave_rows as usize);
            let results = crate::op::exchange::scatter(
                ctx.threads(),
                wave,
                |(seen_f, cand_f)| -> Result<Vec<Record>> {
                    let mut seen: RecordSet = seen_f.reader()?.read_all()?.into_iter().collect();
                    let mut out = Vec::new();
                    let mut reader = cand_f.reader()?;
                    loop {
                        let batch = reader.read_batch(n)?;
                        if batch.is_empty() {
                            break;
                        }
                        for r in batch {
                            if seen.insert(r.clone()) {
                                out.push(r);
                            }
                        }
                    }
                    Ok(out)
                },
            );
            ctx.resident_release(wave_rows as usize);
            for res in results {
                let rows = res?;
                ctx.resident_acquire(rows.len());
                self.ready.extend(rows);
            }
        }
    }

    /// Release all resident accounting and drop every spill artifact
    /// (open/close path of the owning operator).
    pub fn reset(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.seen.len());
        self.seen.clear();
        self.writers = None;
        ctx.resident_release(self.ready.len());
        self.ready.clear();
        if let Some(drain) = self.drain.take() {
            if let Some(cur) = drain.cur {
                ctx.resident_release(cur.seen.len());
            }
        }
    }
}
