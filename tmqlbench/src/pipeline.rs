//! The benchmark's own mirror of `Database::run_pipeline`, one span per
//! stage-boundary call.
//!
//! The engine has no phase spans yet (ROADMAP open item 1), so the traced
//! run replays each statement through the same seven public calls the
//! facade makes, in the same order and with the same arguments, and times
//! them from outside. Every span of a statement hangs under one root span;
//! the stage spans do not nest, so a stage's self time is its duration and
//! the root's self time is the glue between the calls.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tmql::{Database, EstimatorCostModel, Metrics, Plan, QueryOptions, TmqlError, Value};
use tmql_exec::{Estimator, ExecConfig, ExecContext};
use tmql_storage::Catalog;

/// The stage spans of one query statement, in pipeline order. The first
/// six are planning (`plan_us` is their sum).
pub const STAGES: [&str; 8] = [
    "lang.parse",
    "lang.check",
    "translate",
    "core.optimize",
    "exec.lower",
    "exec.estimate",
    "exec.execute",
    "facade.collect",
];

/// How many of [`STAGES`] are planning.
pub const PLAN_STAGES: usize = 6;
/// Index of the execution stage in [`STAGES`].
pub const EXECUTE: usize = 6;
/// Index of the result-collection stage in [`STAGES`].
pub const COLLECT: usize = 7;

/// Name of a statement's root span.
pub const ROOT: &str = "stmt";

/// One timed interval. `parent` is 0 for a root span; `stmt` is shared by
/// all spans of one statement execution.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the span that caused this one (0 = none).
    pub parent: u32,
    /// Statement execution this span belongs to.
    pub stmt: u32,
    /// Stage or layer call the span covers.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory for the whole run and written out at exit.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::close`] and as `parent`.
    pub fn open(&mut self, parent: u32, stmt: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the span `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.now();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Run `f` inside a child span of `parent`.
    pub fn span<T>(
        &mut self,
        parent: u32,
        stmt: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, stmt, name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The catalog's row types for the language type checker (the facade's
/// private adapter, restated).
struct CatalogTypes<'a>(&'a Catalog);

impl tmql_algebra::typing::TableTypes for CatalogTypes<'_> {
    fn row_ty(&self, table: &str) -> tmql_model::Result<tmql_model::Ty> {
        self.0.row_ty(table)
    }
}

/// Run `src` through the mirrored pipeline under `opts`, recording one
/// root span and one child span per stage. Returns what the facade's
/// `QueryResult` would carry that the benchmark checks: the result set and
/// the executor's work counters.
pub fn run_traced(
    db: &Database,
    src: &str,
    opts: QueryOptions,
    tr: &mut Tracer,
    stmt: u32,
) -> Result<(BTreeSet<Value>, Metrics), TmqlError> {
    let root = tr.open(0, stmt, ROOT);
    // Everything the stages allocate is dropped inside the root span, as
    // the facade drops it before `query_with` returns.
    let out = stages(db.catalog(), src, opts, tr, root, stmt);
    tr.close(root);
    out
}

fn stages(
    cat: &Catalog,
    src: &str,
    opts: QueryOptions,
    tr: &mut Tracer,
    root: u32,
    stmt: u32,
) -> Result<(BTreeSet<Value>, Metrics), TmqlError> {
    let ast = tr.span(root, stmt, STAGES[0], || tmql_lang::parse_query(src))?;
    if opts.typecheck {
        tr.span(root, stmt, STAGES[1], || {
            tmql_lang::check_query(&ast, &CatalogTypes(cat))
        })?;
    }
    let translated = tr.span(root, stmt, STAGES[2], || {
        let extensions: BTreeSet<String> = cat.table_names().map(str::to_string).collect();
        tmql_translate::translate_query(&ast, &extensions)
    })?;
    let optimized = tr.span(root, stmt, STAGES[3], || {
        let model = EstimatorCostModel(
            Estimator::with_budget(cat, opts.memory_budget_rows).with_threads(opts.threads),
        );
        tmql_core::Optimizer {
            strategy: opts.strategy,
            apply_rules: opts.apply_rules,
        }
        .optimize_with(translated.clone(), Some(&model))
    });
    let config = ExecConfig {
        join_algo: opts.join_algo,
        batch_size: opts.batch_size,
        memory_budget_rows: opts.memory_budget_rows,
        threads: opts.threads.max(1),
        apply_cache: opts.apply_cache,
        collect_timing: opts.collect_timing,
    };
    let phys = tr.span(root, stmt, STAGES[4], || {
        tmql_exec::lower(&optimized, cat, &config)
    })?;
    let est = tr.span(root, stmt, STAGES[5], || {
        Estimator::new(cat).exec_order_rows_phys(&phys)
    });
    let (rows, ops, metrics) = tr.span(root, stmt, STAGES[EXECUTE], || {
        let mut ctx = ExecContext::with_config(cat, &config);
        tmql_exec::execute_collect(&phys, &mut ctx, &tmql_algebra::Env::new(), Some(&est))
            .map(|(rows, ops)| (rows, ops, ctx.metrics))
    })?;
    let values = tr.span(root, stmt, STAGES[COLLECT], || {
        let values: BTreeSet<Value> = rows.iter().map(Plan::row_output_value).collect();
        black_box(tmql_exec::op::operator::render_profile(&ops));
        values
    });
    Ok((values, metrics))
}
