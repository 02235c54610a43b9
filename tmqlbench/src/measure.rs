//! One workload, measured: set-up, the correctness oracle, the timed
//! rounds (spans off) and the traced run (spans on).
//!
//! A closed loop with one client: the next statement starts when the
//! previous one has returned and been checked. Checking is outside every
//! timed interval.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use tmql::{Database, Metrics, QueryOptions, Table, TmqlError, UnnestStrategy, Value};
use tmql_storage::{PoolStats, WalActivity};

use crate::clock::{calibrate, thread_cpu};
use crate::layers;
use crate::manifest::{MetricDef, END_TO_END, PER_LAYER};
use crate::pipeline::{self, Tracer, COLLECT, EXECUTE, PLAN_STAGES, ROOT, STAGES};
use crate::stats::{median, tail};
use crate::workloads::{build, Instance, Op, PINNED_SEED, WARMUP_ROUNDS};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds a run measures at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Traced rounds (each paired with an untraced one) whose work counters
/// are reported: a fixed number, so the counts repeat exactly while the
/// timings use every round the time window allows.
pub const COUNTED_ROUNDS: usize = 10;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (checked against the manifest by the caller).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Divisor of the generated row counts (1 = sizes of record).
    pub shrink: usize,
}

/// Result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Statements executed in measured rounds.
    pub attempted: u64,
    /// Statements that returned an error or a wrong result.
    pub failed: u64,
    /// Every declared metric of the mode, in manifest order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable diagnostics (not gates).
    pub report: String,
}

impl Outcome {
    /// The line the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Row count and FNV-1a fingerprint of a result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    rows: usize,
    fingerprint: u64,
}

/// FNV-1a over the rendered values (the constants of `tmql_obs::fnv1a`),
/// streamed so a large result is never rendered into one string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn summarize(values: &BTreeSet<Value>) -> Expected {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for v in values {
        writeln!(h, "{v}").expect("hashing cannot fail");
    }
    Expected {
        rows: values.len(),
        fingerprint: h.0,
    }
}

/// Expected result of every query of the round, computed once under
/// `UnnestStrategy::NestedLoop` — the paper's defining semantics and a
/// different plan from the cost-based one that is timed. At the pinned
/// seed and full size the row count must also equal the literal in the
/// workload table; a mismatch makes every execution of that statement a
/// failed operation.
fn oracle(inst: &Instance, pinned: bool) -> Result<Vec<Option<Expected>>, TmqlError> {
    let opts = QueryOptions::default()
        .threads(1)
        .strategy(UnnestStrategy::NestedLoop);
    let mut cache: BTreeMap<(usize, &str), Expected> = BTreeMap::new();
    let mut out = Vec::with_capacity(inst.stmts.len());
    for s in &inst.stmts {
        let Op::Query(src) = &s.op else {
            out.push(None);
            continue;
        };
        let mut e = match cache.get(&(s.db, src.as_str())) {
            Some(e) => *e,
            None => {
                let e = summarize(&inst.dbs[s.db].query_with(src, opts)?.values);
                cache.insert((s.db, src.as_str()), e);
                e
            }
        };
        if pinned && e.rows != s.rows_pinned {
            eprintln!(
                "pinned row count differs: {} rows, literal {} — {}",
                e.rows,
                s.rows_pinned,
                src.split_whitespace().collect::<Vec<_>>().join(" ")
            );
            e.rows = s.rows_pinned;
        }
        out.push(Some(e));
    }
    Ok(out)
}

/// One executed statement.
struct Done {
    /// Wall time of the call, seconds.
    wall: f64,
    /// On-CPU time of the call, seconds.
    cpu: f64,
    /// Executor work counters (queries only).
    metrics: Metrics,
    /// Returned without error and matched the oracle.
    ok: bool,
    /// A WAL checkpoint ran inside the call (writes only).
    checkpointed: bool,
}

/// Wall and CPU clocks read together around one call.
struct Stopwatch(Instant, f64);

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch(Instant::now(), thread_cpu())
    }

    /// (wall, cpu) seconds since `start`.
    fn stop(&self) -> (f64, f64) {
        let cpu = thread_cpu() - self.1;
        (self.0.elapsed().as_secs_f64(), cpu)
    }
}

fn checkpoints(db: &Database) -> u64 {
    db.catalog()
        .wal_activity()
        .map_or(0, |w| w.checkpoints_total)
}

/// An open root span of a traced statement: tracer, root id, statement id.
type Traced<'a> = Option<(&'a mut Tracer, u32, u32)>;

/// Run `f` inside a child span of the statement's root, or bare when the
/// run is untraced.
fn spanned<T>(traced: &mut Traced<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match traced {
        Some((tr, root, id)) => tr.span(*root, *id, name, f),
        None => f(),
    }
}

/// Execute statement `i` of the round through the facade, or — when a
/// tracer is given — through the mirrored pipeline under span id `stmt`.
fn run_stmt(
    inst: &mut Instance,
    i: usize,
    expected: Option<Expected>,
    trace: Option<(&mut Tracer, u32)>,
) -> Done {
    let Instance {
        dbs, stmts, tables, ..
    } = inst;
    let s = &stmts[i];
    let db = &mut dbs[s.db];
    let Op::Query(src) = &s.op else {
        return run_write(db, &s.op, tables, trace);
    };
    let watch = Stopwatch::start();
    let result = match trace {
        Some((tr, id)) => pipeline::run_traced(db, src, s.opts, tr, id),
        None => db.query_with(src, s.opts).map(|r| (r.values, r.metrics)),
    };
    let (wall, cpu) = watch.stop();
    let (ok, metrics) = match result {
        Ok((values, metrics)) => (Some(summarize(&values)) == expected, metrics),
        Err(e) => {
            eprintln!("statement failed: {e} — {src}");
            (false, Metrics::default())
        }
    };
    Done {
        wall,
        cpu,
        metrics,
        ok,
        checkpointed: false,
    }
}

/// A write statement: one auto-committed replace, or a transaction of
/// several. Traced, the commit call (and each in-transaction write) gets
/// a span under the statement's root.
fn run_write(
    db: &mut Database,
    op: &Op,
    tables: &[Table],
    trace: Option<(&mut Tracer, u32)>,
) -> Done {
    let batch: Vec<Table> = match op {
        Op::Replace(t) => vec![tables[*t].clone()],
        Op::Txn(ts) => ts.iter().map(|t| tables[*t].clone()).collect(),
        Op::Query(_) => unreachable!("queries go through run_stmt"),
    };
    let before = checkpoints(db);
    let watch = Stopwatch::start();
    let mut traced: Traced<'_> = trace.map(|(tr, id)| {
        let root = tr.open(0, id, ROOT);
        (tr, root, id)
    });
    let result: Result<(), TmqlError> = if matches!(op, Op::Replace(_)) {
        let table = batch.into_iter().next().expect("one table");
        spanned(&mut traced, "storage.commit", || {
            db.catalog_mut().replace(table).map_err(TmqlError::from)
        })
    } else {
        (|| {
            db.begin()?;
            for table in batch {
                spanned(&mut traced, "storage.write", || {
                    db.catalog_mut().replace(table)
                })?;
            }
            spanned(&mut traced, "storage.commit", || db.commit())
        })()
    };
    if let Some((tr, root, _)) = traced {
        tr.close(root);
    }
    let (wall, cpu) = watch.stop();
    if let Err(e) = &result {
        eprintln!("write failed: {e}");
    }
    Done {
        wall,
        cpu,
        metrics: Metrics::default(),
        ok: result.is_ok(),
        checkpointed: checkpoints(db) > before,
    }
}

/// Samples of a sequence of rounds run one way (facade or mirror).
#[derive(Default)]
struct Samples {
    /// Per statement slot of the round: wall seconds of every execution.
    wall: Vec<Vec<f64>>,
    /// Per statement slot of the round: on-CPU seconds of every execution.
    cpu: Vec<Vec<f64>>,
    /// On-CPU seconds of the calibration kernel, once per round.
    calibration: Vec<f64>,
    /// Σ work counters per round.
    work: Vec<Metrics>,
    /// Write wall times by (slot, a checkpoint ran inside the call).
    writes: BTreeMap<(usize, bool), Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn rounds(&self) -> usize {
        self.work.len()
    }

    /// Wall seconds of each round (Σ over its statements).
    fn round_walls(&self) -> Vec<f64> {
        (0..self.rounds())
            .map(|r| self.wall.iter().map(|slot| slot[r]).sum())
            .collect()
    }

    /// The gated time metric: Σ over the round's statements of the median
    /// on-CPU time, in units of the calibration kernel's median on-CPU
    /// time (nominally 1 ms — hence "reference milliseconds"). Per-slot
    /// medians rather than the median of round sums, so one slow
    /// statement does not taint the round it fell in.
    fn round_norm_ms(&self) -> f64 {
        let cpu: f64 = self.cpu.iter().map(|slot| median(slot)).sum();
        cpu / median(&self.calibration)
    }

    /// Correct statements per second of statement wall time.
    fn stmts_per_s(&self) -> f64 {
        let busy: f64 = self.wall.iter().flatten().sum();
        (self.attempted - self.failed) as f64 / busy
    }
}

fn run_round(
    inst: &mut Instance,
    expected: &[Option<Expected>],
    mut tracer: Option<&mut Tracer>,
    out: &mut Samples,
) {
    let per_round = inst.stmts.len();
    out.wall.resize(per_round, Vec::new());
    out.cpu.resize(per_round, Vec::new());
    let round = out.rounds();
    let mut work = Metrics::default();
    for (i, expected) in expected.iter().enumerate() {
        let id = (round * per_round + i) as u32;
        let trace = tracer.as_deref_mut().map(|t| (t, id));
        let done = run_stmt(inst, i, *expected, trace);
        out.wall[i].push(done.wall);
        out.cpu[i].push(done.cpu);
        work += done.metrics;
        if !matches!(inst.stmts[i].op, Op::Query(_)) {
            out.writes
                .entry((i, done.checkpointed))
                .or_default()
                .push(done.wall);
        }
        out.attempted += 1;
        out.failed += u64::from(!done.ok);
    }
    out.work.push(work);
    out.calibration.push(calibrate());
}

/// One set-up: the loaded workload and what loading it cost.
struct SetUp {
    inst: Instance,
    /// Wall seconds.
    wall: f64,
    /// On-CPU seconds in units of the calibration kernel run just before
    /// and after, times the kernel's nominal millisecond: "reference
    /// seconds", the same normalisation as `round_norm_ms`.
    norm_s: f64,
}

/// Load the workload and run the warm-up rounds.
fn set_up(args: &Args, dir: &Path) -> Result<SetUp, TmqlError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    let before = calibrate();
    let watch = Stopwatch::start();
    let mut inst = build(&args.workload, args.seed, args.shrink, dir)?;
    for _ in 0..WARMUP_ROUNDS {
        for i in 0..inst.stmts.len() {
            let s = &inst.stmts[i];
            if let Op::Query(src) = &s.op {
                inst.dbs[s.db].query_with(src, s.opts)?;
            } else if !run_stmt(&mut inst, i, None, None).ok {
                return Err(io_error(dir, "a warm-up write failed"));
            }
        }
    }
    let (wall, cpu) = watch.stop();
    let kernel = (before + calibrate()) / 2.0;
    Ok(SetUp {
        inst,
        wall,
        norm_s: cpu / kernel * 1e-3,
    })
}

fn io_error(path: &Path, e: impl std::fmt::Display) -> TmqlError {
    TmqlError::Model(tmql_model::ModelError::Io(format!(
        "{}: {e}",
        path.display()
    )))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock diagnostics: per statement class the median and the highest
/// percentile that still has ten samples beyond it.
fn class_report(out: &mut String, inst: &Instance, samples: &Samples) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, slot) in inst.stmts.iter().zip(&samples.wall) {
        by_class.entry(s.class).or_default().extend(slot);
    }
    let _ = writeln!(
        out,
        "  {:<18} {:>8} {:>12} {:>16}",
        "class", "samples", "wall_p50_ms", "wall_tail_ms"
    );
    for (class, v) in &by_class {
        let tail = tail(v).map_or("-".to_string(), |(p, x)| format!("p{p}={:.3}", x * 1e3));
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>12.3} {:>16}",
            class,
            v.len(),
            median(v) * 1e3,
            tail
        );
    }
}

fn header(args: &Args, inst: &Instance) -> String {
    let mut sizes = Vec::new();
    for (i, db) in inst.dbs.iter().enumerate() {
        for name in db.catalog().table_names() {
            let rows = db.catalog().table(name).map_or(0, Table::len);
            sizes.push(format!("db{i}.{name}={rows}"));
        }
    }
    format!(
        "workload={} seed={} seconds={} trace={} shrink={} statements_per_round={}\n  tables: {}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.shrink,
        inst.stmts.len(),
        sizes.join(" ")
    )
}

fn emit(defs: &[MetricDef], mut values: BTreeMap<&'static str, f64>) -> Vec<(MetricDef, f64)> {
    let out = defs
        .iter()
        .map(|m| (*m, values.remove(m.name).unwrap_or(0.0)))
        .collect();
    assert!(
        values.is_empty(),
        "metrics not in the manifest: {:?}",
        values.keys()
    );
    out
}

/// Run `args`. Database, WAL and spill files live under `tmp` (the
/// caller removes it); the traced run writes its span file into `out`.
pub fn run(args: &Args, tmp: &Path, out: &Path) -> Result<Outcome, TmqlError> {
    if args.trace {
        traced_run(args, tmp, out)
    } else {
        timed_run(args, tmp)
    }
}

fn timed_run(args: &Args, tmp: &Path) -> Result<Outcome, TmqlError> {
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut loaded = None;
    for _ in 0..SETUPS {
        // At most one loaded instance at a time, so peak memory is that
        // of one set-up.
        drop(loaded.take());
        let done = set_up(args, tmp)?;
        setups.push(done.norm_s);
        setup_walls.push(done.wall);
        loaded = Some(done.inst);
    }
    let mut inst = loaded.expect("SETUPS > 0");

    let check = Instant::now();
    let expected = oracle(&inst, args.seed == PINNED_SEED && args.shrink == 1)?;
    let check_s = check.elapsed().as_secs_f64();

    let mut samples = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while samples.rounds() < MIN_ROUNDS || Instant::now() < deadline {
        run_round(&mut inst, &expected, None, &mut samples);
    }

    let values = BTreeMap::from([
        ("round_norm_ms", samples.round_norm_ms()),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    let mut report = header(args, &inst);
    let _ = writeln!(
        report,
        "  rounds={} ops_attempted={} ops_failed={} check_s={check_s:.3} setup_wall_s={setup_walls:.3?}",
        samples.rounds(),
        samples.attempted,
        samples.failed
    );
    let _ = writeln!(
        report,
        "  wall (ungated): round_p50_ms={:.3} stmts_per_s={:.1} calibration_us={:.1}",
        median(&samples.round_walls()) * 1e3,
        samples.stmts_per_s(),
        median(&samples.calibration) * 1e6
    );
    class_report(&mut report, &inst, &samples);
    Ok(Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        metrics: emit(&END_TO_END, values),
        report,
    })
}

/// Pool and WAL counters of the workload's disk database (zeros for an
/// in-memory one).
fn storage_counters(inst: &Instance) -> (PoolStats, WalActivity) {
    let cat = inst.dbs[0].catalog();
    (
        cat.pool_stats().unwrap_or_default(),
        cat.wal_activity().unwrap_or_default(),
    )
}

/// Median over rounds of the per-round sum of `name` spans, µs.
fn stage_us(per_round: &[BTreeMap<&'static str, u64>], name: &str) -> f64 {
    let sums: Vec<f64> = per_round
        .iter()
        .map(|r| r.get(name).copied().unwrap_or(0) as f64 / 1e3)
        .collect();
    median(&sums)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn traced_run(args: &Args, tmp: &Path, out: &Path) -> Result<Outcome, TmqlError> {
    let mut inst = set_up(args, tmp)?.inst;
    let expected = oracle(&inst, args.seed == PINNED_SEED && args.shrink == 1)?;
    let layers = layers::measure(&inst.dbs[0])?;

    let mut tracer = Tracer::default();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let (pool0, wal0) = storage_counters(&inst);
    let (mut pool1, mut wal1) = (pool0, wal0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while traced.rounds() < COUNTED_ROUNDS || Instant::now() < deadline {
        run_round(&mut inst, &expected, None, &mut plain);
        run_round(&mut inst, &expected, Some(&mut tracer), &mut traced);
        if traced.rounds() == COUNTED_ROUNDS {
            (pool1, wal1) = storage_counters(&inst);
        }
    }

    // Per round: Σ span time by name.
    let per_round_stmts = inst.stmts.len();
    let mut per_round = vec![BTreeMap::<&'static str, u64>::new(); traced.rounds()];
    for s in tracer.spans() {
        *per_round[s.stmt as usize / per_round_stmts]
            .entry(s.name)
            .or_default() += s.nanos();
    }
    let stage: Vec<f64> = STAGES.iter().map(|n| stage_us(&per_round, n)).collect();
    let plan_us: f64 = stage[..PLAN_STAGES].iter().sum();
    let root_us = stage_us(&per_round, ROOT);
    let children_us: f64 = stage.iter().sum::<f64>()
        + stage_us(&per_round, "storage.commit")
        + stage_us(&per_round, "storage.write");
    let plain_us = median(&plain.round_walls()) * 1e6;

    // Exact counts: the first COUNTED_ROUNDS traced rounds, per round.
    let mut work = Metrics::default();
    for m in &traced.work[..COUNTED_ROUNDS] {
        work += *m;
    }
    let per = |x: u64| x as f64 / COUNTED_ROUNDS as f64;
    // Storage counters cover the untraced twin of each counted round too.
    let per_both = |x: u64| x as f64 / (2 * COUNTED_ROUNDS) as f64;
    let requests = (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses);
    let commits = wal1.commits_total - wal0.commits_total;
    let execute_ns = stage[EXECUTE] * 1e3;

    // A write's usual time is its slot's median without a checkpoint; what
    // a checkpoint adds is the extra time of the writes it ran inside.
    let usual = |slot: usize| traced.writes.get(&(slot, false)).map_or(0.0, |v| median(v));
    let stalls: Vec<f64> = traced
        .writes
        .iter()
        .filter(|((_, checkpointed), _)| *checkpointed)
        .flat_map(|((slot, _), v)| v.iter().map(|x| (x - usual(*slot)) * 1e3))
        .collect();
    let commit_slots: Vec<f64> = (0..per_round_stmts)
        .filter(|i| matches!(inst.stmts[*i].op, Op::Replace(_)))
        .map(usual)
        .collect();

    let space_amp = match &inst.disk_path {
        Some(path) => layers::space_amp(&inst.dbs[0], path)?,
        None => 0.0,
    };
    let trace_path = out.join(format!("trace-{}.jsonl", args.workload));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| io_error(&trace_path, e))?;

    let values = BTreeMap::from([
        ("wall.round_p50_ms", plain_us / 1e3),
        ("wall.stmts_per_s", plain.stmts_per_s()),
        ("calibration_us", median(&plain.calibration) * 1e6),
        ("lang.parse_us", stage[0]),
        ("lang.check_us", stage[1]),
        ("translate.us", stage[2]),
        ("core.optimize_us", stage[3]),
        ("exec.lower_us", stage[4]),
        ("exec.estimate_us", stage[5]),
        ("plan_us", plan_us),
        ("plan_share", 100.0 * ratio(plan_us, root_us)),
        ("exec.execute_us", stage[EXECUTE]),
        ("exec.rows_scanned", per(work.rows_scanned)),
        ("exec.total_work", per(work.total_work())),
        (
            "exec.ns_per_row_scanned",
            ratio(execute_ns, per(work.rows_scanned)),
        ),
        (
            "exec.ns_per_work",
            ratio(execute_ns, per(work.total_work())),
        ),
        ("facade.collect_us", stage[COLLECT]),
        ("facade.residual_us", plain_us - children_us),
        ("exec.rows_spilled", per(work.rows_spilled)),
        ("exec.spill_partitions", per(work.spill_partitions)),
        ("exec.peak_resident_rows", work.peak_resident_rows as f64),
        (
            "storage.spill_write_ns_per_row",
            layers.spill_write_ns_per_row,
        ),
        (
            "storage.spill_read_ns_per_row",
            layers.spill_read_ns_per_row,
        ),
        ("storage.batch_ns_per_row", layers.batch_ns_per_row),
        (
            "storage.pool_hit_rate",
            ratio((pool1.hits - pool0.hits) as f64, requests as f64),
        ),
        ("storage.pool_misses", per_both(pool1.misses - pool0.misses)),
        (
            "storage.evictions",
            per_both(pool1.evictions - pool0.evictions),
        ),
        ("storage.index_probe_us", layers.index_probe_us),
        ("exec.index_probes", per(work.index_probes)),
        ("exec.index_hits", per(work.index_hits)),
        ("storage.commit_us", median(&commit_slots) * 1e6),
        (
            "storage.wal_appends",
            per_both(wal1.appends_total - wal0.appends_total),
        ),
        (
            "storage.wal_syncs",
            per_both(wal1.syncs_total - wal0.syncs_total),
        ),
        (
            "storage.wal_bytes_per_commit",
            ratio(
                (wal1.bytes_appended_total - wal0.bytes_appended_total) as f64,
                commits as f64,
            ),
        ),
        (
            "storage.wal_syncs_per_commit",
            ratio((wal1.syncs_total - wal0.syncs_total) as f64, commits as f64),
        ),
        ("storage.checkpoint_ms", median(&stalls)),
        (
            "storage.checkpoints",
            (wal1.checkpoints_total - wal0.checkpoints_total) as f64,
        ),
        ("storage.space_amp", space_amp),
        ("storage.open_ms", inst.open_ms),
        ("trace_rounds", traced.rounds() as f64),
        ("trace_overhead", ratio(root_us, plain_us) - 1.0),
    ]);

    let mut report = header(args, &inst);
    let _ = writeln!(
        report,
        "  traced_rounds={} untraced_rounds={} ops_attempted={} ops_failed={} spans={} -> {}",
        traced.rounds(),
        plain.rounds(),
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        tracer.spans().len(),
        trace_path.display()
    );
    let _ = writeln!(
        report,
        "  per round (p50): untraced={plain_us:.1}us traced_root={root_us:.1}us spans={children_us:.1}us root_self={:.1}us",
        root_us - children_us
    );
    class_report(&mut report, &inst, &traced);
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: emit(&PER_LAYER, values),
        report,
    })
}
