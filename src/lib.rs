#![deny(missing_docs)]

//! # tmql — nested query optimization in a complex object model
//!
//! A full implementation of Steenhagen, Apers & Blanken, *Optimization of
//! Nested Queries in a Complex Object Model* (EDBT 1994): the TM
//! SELECT-FROM-WHERE language over complex objects, its complex object
//! algebra, and — the paper's contribution — the **nest join** operator Δ
//! plus the Theorem 1 classification that decides when a nested query can
//! instead be flattened into a semijoin/antijoin.
//!
//! ```
//! use tmql::{Database, QueryOptions, UnnestStrategy};
//! use tmql_storage::table::int_table;
//!
//! let mut db = Database::new();
//! db.register_table(int_table("X", &["a", "b"], &[&[1, 1], &[2, 9]])).unwrap();
//! db.register_table(int_table("Y", &["b", "c"], &[&[1, 10]])).unwrap();
//!
//! // Nested query: which X rows have no Y partners?
//! let result = db
//!     .query("SELECT x.a FROM X x WHERE COUNT((SELECT y.c FROM Y y WHERE x.b = y.b)) = 0")
//!     .unwrap();
//! assert_eq!(result.len(), 1); // x.a = 2 — dangling tuples are not lost
//!
//! // The optimizer flattened it into an antijoin (Theorem 1):
//! let explain = db.explain("SELECT x.a FROM X x \
//!                           WHERE COUNT((SELECT y.c FROM Y y WHERE x.b = y.b)) = 0").unwrap();
//! assert!(explain.contains("antijoin"));
//! # let _ = QueryOptions::default().strategy(UnnestStrategy::NestedLoop);
//! ```
//!
//! The crates underneath (each re-exported here):
//!
//! | crate | role |
//! |-------|------|
//! | `tmql-model` | complex object values, types |
//! | `tmql-storage` | stored extensions (in-memory and paged/disk-backed), catalog + persistence, buffer pool, statistics, spill runs |
//! | `tmql-lang` | the SFW language: parser + type checker |
//! | `tmql-algebra` | the complex object algebra (ADL-like) |
//! | `tmql-translate` | SFW → algebra (Apply-based nested-loop semantics) |
//! | `tmql-core` | **the paper**: Table 2 classifier, Theorem 1, unnesting strategies (incl. cost-based selection), nest join rules |
//! | `tmql-exec` | physical operators: NL/hash/sort-merge × join/semi/anti/outer/**nest join**; the statistics-backed cost estimator |
//! | `tmql-workload` | paper fixtures, random generators, query corpus |

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub use tmql_algebra::Plan;
pub use tmql_core::{Classification, CostModel, UnnestStrategy};
pub use tmql_exec::{CostEstimate, Estimator, ExecConfig, JoinAlgo, Metrics, OpProfile};
pub use tmql_model::{Record, Ty, Value};
pub use tmql_obs::{MetricsRegistry, QueryLog};
pub use tmql_storage::{Catalog, RecoveryReport, Table, WalActivity};

use tmql_exec::MetricClass;
use tmql_obs::{json::ObjectBuilder, Counter, Histogram};

/// Adapter wiring `tmql-exec`'s statistics-backed [`Estimator`] into the
/// logical optimizer's [`CostModel`] trait — the seam through which
/// storage stats reach `UnnestStrategy::CostBased` without the core crate
/// depending on the execution crate.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorCostModel<'a>(pub Estimator<'a>);

impl CostModel for EstimatorCostModel<'_> {
    fn total_cost(&self, plan: &Plan) -> f64 {
        self.0.cost(plan).total()
    }
}

/// Everything that can go wrong between source text and result set.
#[derive(Debug, Clone, PartialEq)]
pub enum TmqlError {
    /// Lexing/parsing failed.
    Parse(tmql_lang::ParseError),
    /// The query does not type-check.
    Type(tmql_lang::TypeError),
    /// Translation to the algebra failed.
    Translate(tmql_translate::TranslateError),
    /// Execution or catalog error.
    Model(tmql_model::ModelError),
}

impl fmt::Display for TmqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmqlError::Parse(e) => write!(f, "{e}"),
            TmqlError::Type(e) => write!(f, "{e}"),
            TmqlError::Translate(e) => write!(f, "{e}"),
            TmqlError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TmqlError {}

impl From<tmql_lang::ParseError> for TmqlError {
    fn from(e: tmql_lang::ParseError) -> Self {
        TmqlError::Parse(e)
    }
}

impl From<tmql_lang::TypeError> for TmqlError {
    fn from(e: tmql_lang::TypeError) -> Self {
        TmqlError::Type(e)
    }
}

impl From<tmql_translate::TranslateError> for TmqlError {
    fn from(e: tmql_translate::TranslateError) -> Self {
        TmqlError::Translate(e)
    }
}

impl From<tmql_model::ModelError> for TmqlError {
    fn from(e: tmql_model::ModelError) -> Self {
        TmqlError::Model(e)
    }
}

/// A statement that failed: the error, and the pipeline phase it failed
/// in — `parse`, `check`, `translate`, `lower` or `execute` (optimizing
/// cannot fail).
struct Failed {
    phase: &'static str,
    error: TmqlError,
}

/// Tag an error with the phase it came from.
fn at<E: Into<TmqlError>>(phase: &'static str) -> impl FnOnce(E) -> Failed {
    move |e| Failed {
        phase,
        error: e.into(),
    }
}

/// The `error_class` of a failed statement's query-log record: the
/// error's variant, and a model error's kind after a dot.
fn error_class(e: &TmqlError) -> &'static str {
    use tmql_model::ModelError as M;
    match e {
        TmqlError::Parse(_) => "Parse",
        TmqlError::Type(_) => "Type",
        TmqlError::Translate(_) => "Translate",
        TmqlError::Model(m) => match m {
            M::NoSuchField { .. } => "Model.NoSuchField",
            M::KindMismatch { .. } => "Model.KindMismatch",
            M::TypeMismatch { .. } => "Model.TypeMismatch",
            M::DuplicateField(_) => "Model.DuplicateField",
            M::TooWide(_) => "Model.TooWide",
            M::SchemaError(_) => "Model.SchemaError",
            M::Arithmetic(_) => "Model.Arithmetic",
            M::Io(_) => "Model.Io",
        },
    }
}

/// The fields every query-log record starts with.
fn log_record(src: &str, opts: QueryOptions) -> ObjectBuilder {
    let hash = format!("{:016x}", tmql_obs::fnv1a(src.as_bytes()));
    ObjectBuilder::new()
        .str("query_hash", &hash)
        .str("strategy", opts.strategy.name())
}

/// Per-query knobs: unnesting strategy, join algorithm, batch size, rule
/// cleanup, and whether to type-check before executing.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Logical unnesting strategy (default: cost-based per-block choice
    /// over storage statistics; `Optimal` is the paper's rule-based
    /// Section 8 pipeline).
    pub strategy: UnnestStrategy,
    /// Physical join algorithm selection (default: cost-based Auto).
    pub join_algo: JoinAlgo,
    /// Rows per streaming batch in the executor (default 1024). Smaller
    /// batches lower peak memory; larger batches amortize dispatch.
    pub batch_size: usize,
    /// Maximum rows any single pipeline breaker (hash-join build, grouping
    /// or set-operation state, dedup set) may hold resident before
    /// spilling to disk. `None` (the default) means unbounded — identical
    /// behavior to before the spill tier existed. See
    /// [`ExecConfig::memory_budget_rows`] for the exact semantics.
    ///
    /// ```
    /// use tmql::QueryOptions;
    ///
    /// let opts = QueryOptions::default().memory_budget(10_000);
    /// assert_eq!(opts.memory_budget_rows, Some(10_000));
    /// assert_eq!(QueryOptions::default().memory_budget_rows, None);
    /// ```
    pub memory_budget_rows: Option<usize>,
    /// Ignored: execution is serial; kept until the benchmark's mirror is
    /// deleted (ROADMAP "Unfence the benchmark" (c)).
    pub threads: usize,
    /// Ignored: a correlated `Apply` always memoizes its inner results by
    /// their correlation bindings (`ainv=`/`ahit=` in the profile); kept
    /// until the benchmark's mirror is deleted (ROADMAP "Unfence the
    /// benchmark" (c)).
    pub apply_cache: bool,
    /// Apply the Section 5/6 rewrite rules after unnesting.
    pub apply_rules: bool,
    /// Run the type checker (on by default; turn off for benchmarks that
    /// measure pure execution).
    pub typecheck: bool,
    /// Collect per-operator wall-clock timing during execution (default
    /// `true`; the `b14_observe` benchmark pins the overhead under 5%).
    /// When on, every operator's profile carries an inclusive `time=`
    /// span — see [`OpProfile::wall_nanos`]. `false` skips all clock reads.
    ///
    /// ```
    /// use tmql::QueryOptions;
    ///
    /// assert!(QueryOptions::default().collect_timing);
    /// assert!(!QueryOptions::default().collect_timing(false).collect_timing);
    /// ```
    pub collect_timing: bool,
    /// Emit a structured JSONL record for this statement to the
    /// database's query log, when one is configured via the
    /// `TMQL_QUERY_LOG` environment variable (default `true`; a no-op
    /// without a configured log). `false` opts a single statement out —
    /// e.g. the metrics-scraping statements of a monitoring loop.
    pub query_log: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            strategy: UnnestStrategy::CostBased,
            join_algo: JoinAlgo::Auto,
            batch_size: tmql_exec::DEFAULT_BATCH_SIZE,
            memory_budget_rows: None,
            threads: 1,
            apply_cache: true,
            apply_rules: true,
            typecheck: true,
            collect_timing: true,
            query_log: true,
        }
    }
}

impl QueryOptions {
    /// Set the unnesting strategy.
    pub fn strategy(mut self, s: UnnestStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Set the join algorithm.
    pub fn join_algo(mut self, a: JoinAlgo) -> Self {
        self.join_algo = a;
        self
    }

    /// Set the streaming batch size (clamped to ≥ 1).
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Bound resident breaker state to `n` rows, spilling beyond it
    /// (clamped to ≥ 1). Results are identical to an unbounded run; the
    /// spill traffic shows up in [`Metrics::rows_spilled`].
    pub fn memory_budget(mut self, n: usize) -> Self {
        self.memory_budget_rows = Some(n.max(1));
        self
    }

    /// Ignored: execution is serial; kept until the benchmark's mirror is
    /// deleted (ROADMAP "Unfence the benchmark" (c)).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Enable or disable per-operator wall-clock timing (default on).
    pub fn collect_timing(mut self, on: bool) -> Self {
        self.collect_timing = on;
        self
    }

    /// Enable or disable query-log emission for this statement (default
    /// on; only meaningful when `TMQL_QUERY_LOG` is set).
    pub fn query_log(mut self, on: bool) -> Self {
        self.query_log = on;
        self
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            join_algo: self.join_algo,
            batch_size: self.batch_size,
            memory_budget_rows: self.memory_budget_rows,
            threads: 1,
            apply_cache: true,
            collect_timing: self.collect_timing,
        }
    }
}

/// A query result: the result **set** (TM queries denote sets) plus the
/// metrics and operator profiles of the run that produced it
/// ([`Database::plan_with`] returns the logical plans).
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result values, deduplicated and ordered by the model's total
    /// order.
    pub values: BTreeSet<Value>,
    /// Executor work counters.
    pub metrics: Metrics,
    /// Structured per-operator profiles (pre-order over the executed
    /// tree), each carrying estimated and actual output rows.
    pub ops: Vec<OpProfile>,
    /// Whole-statement wall-clock time in microseconds, parse through
    /// last row (also the value observed into the
    /// `tmql_query_wall_micros` histogram).
    pub wall_micros: u64,
}

impl QueryResult {
    /// Number of result values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the result is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The executed operator tree annotated with per-operator emitted
    /// rows/batches and the cost model's estimated rows (the streaming
    /// executor's profile with estimated vs. actual side by side),
    /// rendered from [`QueryResult::ops`].
    pub fn op_profile(&self) -> String {
        tmql_exec::op::operator::render_profile(&self.ops)
    }

    /// The worst per-operator q-error of the run — `max(est/actual,
    /// actual/est)` over all executed operators (both sides floored at
    /// one row). 1.0 means every estimate was exact; CI smokes pin an
    /// upper bound on this to catch estimator regressions.
    ///
    /// ```
    /// use tmql::Database;
    /// use tmql_storage::table::int_table;
    ///
    /// let mut db = Database::new();
    /// db.register_table(int_table("X", &["a"], &[&[1], &[2], &[3]])).unwrap();
    /// let r = db.query("SELECT x.a FROM X x").unwrap();
    /// // Exact statistics on a plain scan-and-project: every operator's
    /// // estimate is spot on.
    /// assert_eq!(r.max_qerror(), 1.0);
    /// assert!(!r.ops.is_empty(), "structured per-operator profiles");
    /// ```
    pub fn max_qerror(&self) -> f64 {
        self.ops
            .iter()
            .filter_map(OpProfile::qerror)
            .fold(1.0, f64::max)
    }

    /// Render the `EXPLAIN ANALYZE` report for this (already executed)
    /// run: the executed operator tree — each operator annotated with
    /// actual rows, the cost model's estimated rows, batches, spilled
    /// rows, and inclusive wall-clock time — followed by the run's work
    /// counters (pool hits/misses, index probes, spill traffic, …) and a
    /// one-line summary. [`Database::analyze_with`] returns exactly this;
    /// the slow-query log embeds it for offending statements.
    pub(crate) fn render_analyze(&self) -> String {
        format!(
            "== analyze (executed) ==\n{}-- {}\n-- wall={}µs max_qerror={:.2} total_work={}\n",
            self.op_profile(),
            self.metrics,
            self.wall_micros,
            self.max_qerror(),
            self.metrics.total_work(),
        )
    }

    /// Render the result set one value per line (deterministic order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.values {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// A TM database: catalog + query pipeline.
///
/// [`Database::new`] is fully in-memory (exactly the pre-storage-tier
/// behavior); [`Database::open`] is **disk-backed** — tables live in
/// slotted pages behind a fixed-capacity buffer pool, the catalog
/// (column types, rows, statistics) persists across processes, and scans
/// stream pages on demand, so the database can exceed the pool — and
/// RAM.
///
/// A statement runs on the thread that calls [`Database::query_with`].
/// Concurrency is many statements against one `Database` (it is `Send +
/// Sync`; share it by reference or in an `Arc`): each reader pins at most
/// one buffer-pool page at a time, so readers no more numerous than the
/// pool's frames always get one, and a reader beyond that may get the
/// typed I/O error `buffer pool exhausted` — never a wrong answer.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    obs: DbObs,
}

// Fails to compile if `Database` stops being shareable between threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Database>();
};

/// Upper bucket bounds (microseconds) of the `tmql_query_wall_micros`
/// latency histogram: 100µs to 5s, roughly half-decade steps.
const QUERY_LATENCY_BOUNDS_MICROS: &[u64] = &[
    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
];

/// Per-database observability state: the engine-wide metrics registry
/// plus the facade's own instruments and the (optional) query log.
#[derive(Debug)]
struct DbObs {
    registry: MetricsRegistry,
    queries: Counter,
    query_errors: Counter,
    txn_commits: Counter,
    txn_rollbacks: Counter,
    query_wall_micros: Histogram,
    /// Every successful statement's [`Metrics`] folded with `+=`, which
    /// the `tmql_exec_*` series poll.
    exec: Arc<Mutex<Metrics>>,
    query_log: Option<QueryLog>,
    slow_micros: Option<u64>,
}

/// The folded executor metrics, also after a thread panicked while
/// holding them: `+=` updates each counter on its own, so a fold cut
/// short leaves every counter a valid, if incomplete, total.
fn lock(total: &Mutex<Metrics>) -> MutexGuard<'_, Metrics> {
    total.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for DbObs {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        let queries = registry.counter("tmql_queries_total", "Statements executed successfully");
        let query_errors = registry.counter(
            "tmql_query_errors_total",
            "Statements that failed (parse, type, translate, or execution error)",
        );
        let txn_commits = registry.counter("tmql_txn_commits_total", "Transactions committed");
        let txn_rollbacks =
            registry.counter("tmql_txn_rollbacks_total", "Transactions rolled back");
        let query_wall_micros = registry.histogram(
            "tmql_query_wall_micros",
            "Whole-statement wall-clock latency in microseconds",
            QUERY_LATENCY_BOUNDS_MICROS,
        );
        let exec = Arc::new(Mutex::new(Metrics::new()));
        for c in Metrics::COUNTERS {
            let total = Arc::clone(&exec);
            let read = move || (c.get)(&lock(&total));
            match c.class {
                MetricClass::Gauge => registry.gauge_fn(c.series, c.help, read),
                MetricClass::Work | MetricClass::Shape => {
                    registry.counter_fn(c.series, c.help, read)
                }
            }
        }
        let total = Arc::clone(&exec);
        registry.counter_fn(
            "tmql_exec_total_work",
            "Cumulative Metrics::total_work across queries",
            move || lock(&total).total_work(),
        );
        DbObs {
            registry,
            queries,
            query_errors,
            txn_commits,
            txn_rollbacks,
            query_wall_micros,
            exec,
            query_log: QueryLog::from_env(),
            slow_micros: tmql_obs::log::slow_query_micros_from_env(),
        }
    }
}

/// Default buffer-pool capacity of [`Database::open`], in 8 KiB pages
/// (re-exported from the storage tier).
pub const DEFAULT_POOL_PAGES: usize = tmql_storage::DEFAULT_POOL_PAGES;

/// Buffer-pool capacity [`Database::open`] actually uses: the
/// `TMQL_TEST_POOL_PAGES` environment variable when set to a positive
/// integer, else [`DEFAULT_POOL_PAGES`]. The variable is a test/CI hook —
/// exporting e.g. `TMQL_TEST_POOL_PAGES=4` runs every suite that opens a
/// database through `Database::open` under a four-page pool, shaking out
/// eviction and refault bugs that a comfortably sized pool would hide.
/// Invalid or zero values fall back to the default.
pub(crate) fn default_pool_pages() -> usize {
    std::env::var("TMQL_TEST_POOL_PAGES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_POOL_PAGES)
}

/// Adapter exposing the catalog's row types to the language type checker.
struct CatalogTypes<'a>(&'a Catalog);

impl tmql_algebra::typing::TableTypes for CatalogTypes<'_> {
    fn row_ty(&self, table: &str) -> tmql_model::Result<Ty> {
        self.0.row_ty(table)
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// A database over an existing catalog (e.g. from `tmql-workload`).
    pub fn from_catalog(catalog: Catalog) -> Database {
        let obs = DbObs::default();
        // Storage contributes its series (pool, WAL, free list, recovery,
        // write-path latencies) — a no-op for transient catalogs.
        catalog.register_metrics(&obs.registry);
        Database { catalog, obs }
    }

    /// Open (or create) a **disk-backed** database at `path` with the
    /// default buffer pool ([`DEFAULT_POOL_PAGES`] pages). Registered
    /// tables are written into pages and committed durably, so the whole
    /// database — column types, rows, statistics — survives a close/reopen:
    ///
    /// ```
    /// use tmql::Database;
    /// use tmql_storage::table::int_table;
    ///
    /// let path = std::env::temp_dir().join(format!("tmql-doc-open-{}.tmdb", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// {
    ///     let mut db = Database::open(&path).unwrap();
    ///     db.register_table(int_table("X", &["a"], &[&[1], &[2]])).unwrap();
    /// } // dropped: nothing of the database is left in memory
    /// let db = Database::open(&path).unwrap();
    /// let r = db.query("SELECT x.a FROM X x").unwrap();
    /// assert_eq!(r.len(), 2);
    /// assert!(r.metrics.pool_hits + r.metrics.pool_misses > 0, "the scan went through the pool");
    /// # drop(db);
    /// # let _ = std::fs::remove_file(&path);
    /// # let _ = std::fs::remove_file(path.with_extension("tmdb.wal"));
    /// ```
    ///
    /// A file admits **one live `Database`** at a time. The open takes an
    /// exclusive lock on the file, held until the `Database` drops, and a
    /// second open of a live file — from this process or another — fails
    /// with a [`ModelError::Io`](tmql_model::ModelError::Io) that names
    /// the path. Opening replays the write-ahead log and checkpoints, which
    /// truncates the log; a second handle would do that under a writer
    /// still appending to it. Readers on one file share one `Database`.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Database, TmqlError> {
        Database::open_with(path, default_pool_pages())
    }

    /// [`Database::open`] with an explicit buffer-pool capacity in pages.
    /// A pool smaller than the data is the point: scans stream and evict,
    /// so workloads larger than memory run in bounded space (cold pages
    /// simply fault back in, visible as [`Metrics::pool_misses`]).
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        pool_pages: usize,
    ) -> Result<Database, TmqlError> {
        Ok(Database::from_catalog(Catalog::open(path, pool_pages)?))
    }

    /// True iff this database writes through to a paged store on disk.
    pub fn is_persistent(&self) -> bool {
        self.catalog.is_persistent()
    }

    /// Copy this database (every table and index) into a **new**
    /// disk-backed database at `path` and return it. The source is
    /// untouched; the copy is immediately durable. The target must not
    /// exist — persisting over an existing database would merge with
    /// (and partially clobber) its contents rather than copy.
    pub fn persist_to(
        &self,
        path: impl AsRef<std::path::Path>,
        pool_pages: usize,
    ) -> Result<Database, TmqlError> {
        let path = path.as_ref();
        if path.exists() {
            return Err(TmqlError::Model(tmql_model::ModelError::Io(format!(
                "persist target `{}` already exists; choose a fresh path (or delete it first)",
                path.display()
            ))));
        }
        let mut catalog = Catalog::open(path, pool_pages)?;
        let names: Vec<String> = self.catalog.table_names().map(str::to_string).collect();
        for name in names {
            let table = self.catalog.table(&name)?;
            catalog.replace(table.clone())?;
        }
        // Secondary indexes travel with the data: rebuild each one in the
        // copy so index-aware plans work identically on the persisted side.
        let specs: Vec<(String, String)> = self
            .catalog
            .indexes()
            .map(|(t, a, _)| (t.to_string(), a.to_string()))
            .collect();
        for (table, attr) in specs {
            catalog.create_index(&table, &attr)?;
        }
        catalog.sync()?;
        Ok(Database::from_catalog(catalog))
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (table registration and replacement).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Register a table as a class extension.
    pub fn register_table(&mut self, table: Table) -> Result<(), TmqlError> {
        self.catalog.register(table).map_err(TmqlError::from)
    }

    /// Create a secondary (ordered) index on `table.attr`. From then on
    /// the planner probes it instead of scanning whenever the cost model
    /// says a probe is cheaper — equality and range selections, and joins
    /// whose inner side is an indexed scan. On a disk-backed database the
    /// index persists and survives a reopen.
    ///
    /// ```
    /// use tmql::Database;
    /// use tmql_storage::table::int_table;
    ///
    /// let mut db = Database::new();
    /// let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i, i % 20]).collect();
    /// let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    /// db.register_table(int_table("X", &["a", "b"], &refs)).unwrap();
    /// db.create_index("X", "b").unwrap();
    ///
    /// let r = db.query("SELECT x.a FROM X x WHERE x.b = 3").unwrap();
    /// assert_eq!(r.len(), 10);
    /// assert!(r.metrics.index_probes > 0, "selection ran as an index probe");
    /// assert_eq!(r.metrics.rows_scanned, 0, "no full scan of X");
    /// assert!(db.explain("SELECT x.a FROM X x WHERE x.b = 3").unwrap()
    ///     .contains("IndexScan(X.b)"));
    /// ```
    pub fn create_index(&mut self, table: &str, attr: &str) -> Result<(), TmqlError> {
        self.catalog
            .create_index(table, attr)
            .map_err(TmqlError::from)
    }

    /// Drop the index on `table.attr`, returning whether one existed.
    pub fn drop_index(&mut self, table: &str, attr: &str) -> Result<bool, TmqlError> {
        self.catalog
            .drop_index(table, attr)
            .map_err(TmqlError::from)
    }

    /// All secondary indexes as `(table, attr, entries)` sorted by table
    /// then attribute, where `entries` is the number of indexed rows.
    pub fn indexes(&self) -> Vec<(String, String, usize)> {
        self.catalog
            .indexes()
            .map(|(t, a, ix)| (t.to_string(), a.to_string(), ix.len()))
            .collect()
    }

    /// Open a multi-statement transaction (`BEGIN`). Every
    /// [`Database::register_table`], [`Database::create_index`], and
    /// [`Database::drop_index`] until the matching [`Database::commit`]
    /// becomes one atomic unit: on a disk-backed database they reach the
    /// write-ahead log as a single commit record behind one `fsync`, so
    /// either all of them survive a crash or none do.
    /// [`Database::rollback`] — or a failing statement, or dropping the
    /// database mid-transaction — discards the whole group. Without an
    /// explicit transaction each statement auto-commits by itself.
    /// Nested transactions are an error.
    ///
    /// ```
    /// use tmql::Database;
    /// use tmql_storage::table::int_table;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-txn-{}.tmdb", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// # let _ = std::fs::remove_file({ let mut w = path.clone().into_os_string(); w.push(".wal"); std::path::PathBuf::from(w) });
    /// let mut db = Database::open(&path).unwrap();
    /// db.begin().unwrap();
    /// db.register_table(int_table("X", &["a"], &[&[1]])).unwrap();
    /// db.register_table(int_table("Y", &["b"], &[&[2]])).unwrap();
    /// assert!(db.in_transaction());
    /// db.commit().unwrap(); // X and Y become durable together
    ///
    /// db.begin().unwrap();
    /// db.register_table(int_table("Z", &["c"], &[&[3]])).unwrap();
    /// db.rollback().unwrap(); // Z never happened
    ///
    /// drop(db); // a file admits one live `Database`
    /// let db = Database::open(&path).unwrap();
    /// assert!(db.query("SELECT x.a FROM X x").is_ok());
    /// assert!(db.query("SELECT z.c FROM Z z").is_err());
    /// # let _ = std::fs::remove_file(&path);
    /// # let _ = std::fs::remove_file({ let mut w = path.clone().into_os_string(); w.push(".wal"); std::path::PathBuf::from(w) });
    /// ```
    pub fn begin(&mut self) -> Result<(), TmqlError> {
        self.catalog.begin().map_err(TmqlError::from)
    }

    /// Commit the open transaction: every statement since
    /// [`Database::begin`] becomes durable atomically. On failure the
    /// transaction is rolled back and the error returned.
    pub fn commit(&mut self) -> Result<(), TmqlError> {
        let r = self.catalog.commit().map_err(TmqlError::from);
        if r.is_ok() {
            self.obs.txn_commits.inc();
        }
        r
    }

    /// Abandon the open transaction, restoring the database to its
    /// [`Database::begin`] state and reclaiming the pages it wrote.
    pub fn rollback(&mut self) -> Result<(), TmqlError> {
        let r = self.catalog.rollback().map_err(TmqlError::from);
        if r.is_ok() {
            self.obs.txn_rollbacks.inc();
        }
        r
    }

    /// Whether a [`Database::begin`] transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.catalog.in_transaction()
    }

    /// Force a WAL checkpoint: flush dirty pages, rewrite the header,
    /// start the log's next generation, and release replaced pages for
    /// reuse. No-op on an in-memory database; an error while a
    /// transaction is open.
    /// Checkpoints also happen automatically once the log exceeds its
    /// threshold (see [`Database::set_wal_checkpoint_bytes`]) and when
    /// the database is dropped.
    pub fn wal_checkpoint(&self) -> Result<(), TmqlError> {
        self.catalog.wal_checkpoint().map_err(TmqlError::from)
    }

    /// Override the WAL-size threshold beyond which a commit triggers an
    /// automatic checkpoint (default
    /// [`tmql_storage::DEFAULT_WAL_CHECKPOINT_BYTES`], overridable
    /// globally via the `TMQL_WAL_CHECKPOINT_BYTES` environment
    /// variable). `u64::MAX` disables automatic checkpoints; `1` forces
    /// one after every commit. No-op on an in-memory database.
    pub fn set_wal_checkpoint_bytes(&self, bytes: u64) {
        self.catalog.set_wal_checkpoint_bytes(bytes);
    }

    /// What crash recovery found when this database was opened: replayed
    /// transactions and any discarded (torn or corrupt) log records.
    /// `None` for in-memory databases;
    /// [`RecoveryReport::is_clean`] for the common nothing-happened case.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.catalog.recovery()
    }

    /// Run a query with default options.
    pub fn query(&self, src: &str) -> Result<QueryResult, TmqlError> {
        self.query_with(src, QueryOptions::default())
    }

    /// Run a query with explicit options.
    ///
    /// With a memory budget, pipeline breakers spill to disk instead of
    /// growing past it — same results, bounded residency:
    ///
    /// ```
    /// use tmql::{Database, QueryOptions};
    /// use tmql_storage::table::int_table;
    ///
    /// let mut db = Database::new();
    /// let rows: Vec<Vec<i64>> = (0..256).map(|i| vec![i, i % 8]).collect();
    /// let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    /// db.register_table(int_table("X", &["n", "b"], &refs)).unwrap();
    /// db.register_table(int_table("Y", &["a", "b"], &refs)).unwrap();
    ///
    /// let q = "SELECT x.b FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)";
    /// let free = db.query(q).unwrap();
    /// let tight = db.query_with(q, QueryOptions::default().memory_budget(32)).unwrap();
    /// assert_eq!(free.values, tight.values);
    /// assert_eq!(free.metrics.rows_spilled, 0);
    /// assert!(tight.metrics.rows_spilled > 0, "the 256-row build side spilled");
    /// assert!(tight.metrics.peak_resident_rows < free.metrics.peak_resident_rows);
    /// ```
    pub fn query_with(&self, src: &str, opts: QueryOptions) -> Result<QueryResult, TmqlError> {
        let start = Instant::now();
        let wal_before = self.catalog.wal_activity().unwrap_or_default();
        match self.run_pipeline(src, opts) {
            Ok(mut result) => {
                result.wall_micros = start.elapsed().as_micros() as u64;
                self.observe_query(src, opts, &result, &wal_before);
                Ok(result)
            }
            Err(Failed { phase, error }) => {
                self.obs.query_errors.inc();
                if let Some(log) = self.query_log_for(opts) {
                    let record = log_record(src, opts)
                        .str("error_class", error_class(&error))
                        .str("phase", phase)
                        .u64("wall_micros", start.elapsed().as_micros() as u64);
                    log.append(&record.finish());
                }
                Err(error)
            }
        }
    }

    /// The uninstrumented parse→plan→execute pipeline behind
    /// [`Database::query_with`].
    fn run_pipeline(&self, src: &str, opts: QueryOptions) -> Result<QueryResult, Failed> {
        let optimized = self.optimize(self.translate(src, opts)?, opts);
        let config = opts.exec_config();
        let phys = tmql_exec::lower(&optimized, &self.catalog, &config).map_err(at("lower"))?;
        // Estimated rows per executed operator (same pre-order as the
        // operator tree), so profiles show estimated vs. actual.
        let est = Estimator::new(&self.catalog).exec_order_rows_phys(&phys);
        let mut ctx = tmql_exec::ExecContext::with_config(&self.catalog, &config);
        let env = tmql_algebra::Env::new();
        let (values, ops) =
            tmql_exec::execute_values(&phys, &mut ctx, &env, Some(&est)).map_err(at("execute"))?;
        Ok(QueryResult {
            values,
            metrics: ctx.metrics,
            ops,
            wall_micros: 0,
        })
    }

    /// The query log, if one is attached and `opts` lets the statement
    /// into it.
    fn query_log_for(&self, opts: QueryOptions) -> Option<&QueryLog> {
        self.obs.query_log.as_ref().filter(|_| opts.query_log)
    }

    /// Fold one finished statement into the registry and (when
    /// configured) append its query-log record.
    fn observe_query(
        &self,
        src: &str,
        opts: QueryOptions,
        result: &QueryResult,
        wal_before: &WalActivity,
    ) {
        self.obs.queries.inc();
        self.obs.query_wall_micros.observe(result.wall_micros);
        *lock(&self.obs.exec) += result.metrics;
        let Some(log) = self.query_log_for(opts) else {
            return;
        };
        let wal_after = self.catalog.wal_activity().unwrap_or_default();
        let est_root = result.ops.first().and_then(|o| o.est_rows).unwrap_or(0.0);
        let m = &result.metrics;
        let mut record = log_record(src, opts)
            .f64("est_rows", est_root)
            .u64("actual_rows", result.len() as u64)
            .f64("max_qerror", result.max_qerror())
            .u64("total_work", m.total_work())
            .u64("wall_micros", result.wall_micros)
            .u64("rows_spilled", m.rows_spilled)
            .u64("pool_hits", m.pool_hits)
            .u64("pool_misses", m.pool_misses)
            .u64(
                "wal_appends",
                wal_after
                    .appends_total
                    .saturating_sub(wal_before.appends_total),
            );
        // Slow-query escalation: offenders get their full EXPLAIN ANALYZE
        // tree embedded (rendered from this run — the query is not rerun).
        if let Some(slow) = self.obs.slow_micros {
            if result.wall_micros >= slow {
                record = record.str("analyze", &result.render_analyze());
            }
        }
        log.append(&record.finish());
    }

    /// `EXPLAIN ANALYZE` with default options — see
    /// [`Database::analyze_with`].
    pub fn analyze(&self, src: &str) -> Result<String, TmqlError> {
        self.analyze_with(src, QueryOptions::default())
    }

    /// `EXPLAIN ANALYZE`: **run** the query, then render the executed
    /// operator tree with estimated vs. actual rows, per-operator
    /// inclusive wall-clock time, spilled rows, and the run's work
    /// counters (pool, index, spill, WAL-adjacent). The shell exposes
    /// this as `ANALYZE <query>`.
    ///
    /// ```
    /// use tmql::Database;
    /// use tmql_storage::table::int_table;
    ///
    /// let mut db = Database::new();
    /// db.register_table(int_table("X", &["a"], &[&[1], &[2]])).unwrap();
    /// let report = db.analyze("SELECT x.a FROM X x").unwrap();
    /// assert!(report.contains("Scan(X) [rows=2 est=2"), "{report}");
    /// assert!(report.contains("time="), "{report}");
    /// assert!(report.contains("max_qerror="), "{report}");
    /// ```
    pub fn analyze_with(&self, src: &str, opts: QueryOptions) -> Result<String, TmqlError> {
        // Timing is the point of ANALYZE: force collection on even if the
        // caller's options disabled it.
        let result = self.query_with(src, opts.collect_timing(true))?;
        Ok(result.render_analyze())
    }

    /// Render every registered metric in Prometheus text exposition
    /// format: engine-wide counters/gauges/histograms from storage
    /// (`tmql_pool_*`, `tmql_wal_*`, `tmql_recovery_*`), the executor
    /// (`tmql_exec_*`), and the facade (`tmql_queries_total`,
    /// `tmql_query_wall_micros`, `tmql_txn_*`). The shell exposes this as
    /// `\metrics`.
    ///
    /// ```
    /// use tmql::Database;
    /// use tmql_storage::table::int_table;
    ///
    /// let mut db = Database::new();
    /// db.register_table(int_table("X", &["a"], &[&[7]])).unwrap();
    /// db.query("SELECT x.a FROM X x").unwrap();
    /// let text = db.metrics_text();
    /// assert!(text.contains("tmql_queries_total 1\n"), "{text}");
    /// assert!(text.contains("tmql_exec_rows_scanned_total"), "{text}");
    /// assert!(text.contains("tmql_query_wall_micros_count 1\n"), "{text}");
    /// ```
    pub fn metrics_text(&self) -> String {
        self.obs.registry.render()
    }

    /// The path of the active query log (set via `TMQL_QUERY_LOG` when
    /// the database was created, or [`Database::set_query_log`]), if any.
    pub fn query_log_path(&self) -> Option<&std::path::Path> {
        self.obs.query_log.as_ref().map(QueryLog::path)
    }

    /// Attach (or replace) the query log programmatically — the
    /// environment-independent alternative to `TMQL_QUERY_LOG`.
    pub fn set_query_log(&mut self, log: QueryLog) {
        self.obs.query_log = Some(log);
    }

    /// Set (or clear) the slow-query threshold: statements at or above
    /// `micros` get their full `EXPLAIN ANALYZE` tree embedded in their
    /// query-log record. The environment-independent alternative to
    /// `TMQL_SLOW_QUERY_MICROS`.
    pub fn set_slow_query_micros(&mut self, micros: Option<u64>) {
        self.obs.slow_micros = micros;
    }

    /// Produce the translated and optimized logical plans without
    /// executing.
    pub fn plan_with(&self, src: &str, opts: QueryOptions) -> Result<(Plan, Plan), TmqlError> {
        let translated = self.translate(src, opts).map_err(|f| f.error)?;
        Ok((translated.clone(), self.optimize(translated, opts)))
    }

    /// Parse, check and translate `src`, naming the phase an error came
    /// from.
    fn translate(&self, src: &str, opts: QueryOptions) -> Result<Plan, Failed> {
        let ast = tmql_lang::parse_query(src).map_err(at("parse"))?;
        if opts.typecheck {
            tmql_lang::check_query(&ast, &CatalogTypes(&self.catalog)).map_err(at("check"))?;
        }
        let extensions: BTreeSet<String> = self.catalog.table_names().map(str::to_string).collect();
        tmql_translate::translate_query(&ast, &extensions).map_err(at("translate"))
    }

    /// Unnest and rewrite a translated plan under `opts`' strategy.
    fn optimize(&self, translated: Plan, opts: QueryOptions) -> Plan {
        let optimizer = tmql_core::Optimizer {
            strategy: opts.strategy,
            apply_rules: opts.apply_rules,
        };
        // Storage statistics flow into strategy choice here: the
        // estimator-backed cost model ranks CostBased candidates. The
        // memory budget flows in too, so under tight memory the model
        // charges spill I/O to plans with oversized breaker state.
        let model = EstimatorCostModel(Estimator::with_budget(
            &self.catalog,
            opts.memory_budget_rows,
        ));
        optimizer.optimize_with(translated, Some(&model))
    }

    /// `EXPLAIN`: the translated plan, the optimized logical plan, and the
    /// physical plan, as one printable report.
    pub fn explain(&self, src: &str) -> Result<String, TmqlError> {
        self.explain_with(src, QueryOptions::default())
    }

    /// `EXPLAIN` under explicit options (plans only, does not execute).
    /// The optimized and physical sections carry the cost model's
    /// estimated rows per operator.
    pub fn explain_with(&self, src: &str, opts: QueryOptions) -> Result<String, TmqlError> {
        let (translated, optimized) = self.plan_with(src, opts)?;
        let config = opts.exec_config();
        let phys = tmql_exec::lower(&optimized, &self.catalog, &config)?;
        let est = Estimator::new(&self.catalog);
        let annotated = tmql_algebra::pretty::explain_annotated(&optimized, &mut |node| {
            Some(format!(
                "est_rows={}",
                tmql_exec::cost::format_rows(est.rows(node))
            ))
        });
        Ok(format!(
            "== translated (nested-loop semantics) ==\n{}\
             == optimized ({}) ==\n{}\
             == physical ==\n{}",
            tmql_algebra::pretty::explain(&translated),
            opts.strategy.name(),
            annotated,
            tmql_exec::cost::explain_with_estimates(&phys, &self.catalog),
        ))
    }

    /// The full [`Database::explain_with`] report followed by
    /// [`Database::analyze_with`]'s: the plans, then the **executed**
    /// operator tree and the run's work counters. This runs the query.
    pub fn profile_with(&self, src: &str, opts: QueryOptions) -> Result<String, TmqlError> {
        let explain = self.explain_with(src, opts)?;
        Ok(explain + &self.analyze_with(src, opts)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_storage::table::int_table;

    fn db() -> Database {
        let mut db = Database::new();
        db.register_table(int_table("X", &["a", "b"], &[&[1, 1], &[2, 1], &[3, 9]]))
            .unwrap();
        db.register_table(int_table("Y", &["b", "c"], &[&[1, 10], &[1, 11]]))
            .unwrap();
        db
    }

    #[test]
    fn end_to_end_flat_query() {
        let r = db().query("SELECT x.a FROM X x WHERE x.b = 1").unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.values.contains(&Value::Int(1)));
    }

    #[test]
    fn end_to_end_nested_query_all_strategies_agree() {
        let db = db();
        let q = "SELECT x.a FROM X x WHERE x.a IN (SELECT y.c - 9 FROM Y y WHERE x.b = y.b)";
        let base = db
            .query_with(
                q,
                QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
            )
            .unwrap();
        for strat in UnnestStrategy::ALL {
            if strat.is_bug_compatible() {
                continue;
            }
            let r = db
                .query_with(q, QueryOptions::default().strategy(strat))
                .unwrap();
            assert_eq!(r.values, base.values, "strategy {}", strat.name());
        }
    }

    #[test]
    fn explain_mentions_all_layers() {
        let s = db()
            .explain("SELECT x.a FROM X x WHERE x.a IN (SELECT y.c FROM Y y WHERE x.b = y.b)")
            .unwrap();
        assert!(s.contains("translated"), "{s}");
        assert!(s.contains("Apply"), "{s}");
        assert!(s.contains("semijoin"), "{s}");
        assert!(s.contains("HashJoin") || s.contains("MergeJoin"), "{s}");
    }

    #[test]
    fn type_errors_surface() {
        let err = db().query("SELECT x.zz FROM X x").unwrap_err();
        assert!(matches!(err, TmqlError::Type(_)));
        let err = db().query("SELECT x FROM").unwrap_err();
        assert!(matches!(err, TmqlError::Parse(_)));
        let err = db().query("SELECT w FROM W w").unwrap_err();
        assert!(matches!(err, TmqlError::Type(_)));
    }

    #[test]
    fn metrics_populated() {
        let r = db().query("SELECT x FROM X x").unwrap();
        assert!(r.metrics.rows_scanned >= 3);
        assert!(r.metrics.batches_emitted >= 1);
        assert!(!r.render().is_empty());
    }

    #[test]
    fn profile_shows_executed_operator_tree() {
        let s = db()
            .profile_with(
                "SELECT x.a FROM X x WHERE x.b = 1",
                QueryOptions::default().batch_size(2),
            )
            .unwrap();
        assert!(s.contains("== physical ==\n"), "{s}");
        assert!(s.contains("== analyze (executed) ==\n"), "{s}");
        // The selection runs inside the scan: one line, showing the row
        // its pre-test rejected before it was bound.
        assert!(s.contains("Scan(X)[σ] [rows=2"), "{s}");
        assert!(s.contains("skipped=1"), "{s}");
        assert!(!s.contains("Filter"), "{s}");
        assert!(s.contains("scanned=3 cmp=3"), "{s}");
    }

    /// `name -> kind` of every family a registry renders.
    fn families(reg: &MetricsRegistry) -> std::collections::BTreeMap<String, String> {
        reg.render()
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_once(' '))
            .map(|(name, kind)| (name.to_string(), kind.to_string()))
            .collect()
    }

    #[test]
    fn engine_series_never_clash() {
        // A kind clash hands out a detached handle (`MetricsRegistry`), so
        // the engine's own series must be distinct: the facade's and the
        // executor's (`DbObs`) and storage's pool / WAL / recovery /
        // latency series, all on the registry of one disk database.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let (a, b) = (
            dir.join(format!("tmql-series-a-{pid}.tmdb")),
            dir.join(format!("tmql-series-b-{pid}.tmdb")),
        );
        let all = families(&Database::open(&a).unwrap().obs.registry);
        // Each part alone, on a registry of its own.
        let facade = families(&DbObs::default().registry);
        let storage_reg = MetricsRegistry::new();
        Catalog::open(&b, 8).unwrap().register_metrics(&storage_reg);
        let storage = families(&storage_reg);
        for p in [a, b] {
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_file(p.with_extension("tmdb.wal"));
        }
        assert!(storage.contains_key("tmql_commit_micros"), "{storage:?}");
        let mut parts = facade.clone();
        for (name, kind) in &storage {
            assert!(parts.insert(name.clone(), kind.clone()).is_none(), "{name}");
        }
        assert!(
            storage.contains_key("tmql_recovery_replayed_txns"),
            "{storage:?}"
        );
        for (name, kind) in &all {
            assert_eq!(parts.remove(name).as_ref(), Some(kind), "{name}");
        }
        assert!(parts.is_empty(), "not rendered: {parts:?}");
    }

    #[test]
    fn index_lifecycle_through_facade() {
        let mut db = Database::new();
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        db.register_table(int_table("Z", &["a", "b"], &refs))
            .unwrap();
        db.create_index("Z", "b").unwrap();
        assert_eq!(db.indexes(), vec![("Z".to_string(), "b".to_string(), 100)]);

        let q = "SELECT z.a FROM Z z WHERE z.b = 7";
        let probed = db.query(q).unwrap();
        assert!(probed.metrics.index_probes > 0, "{}", probed.metrics);
        let explain = db.explain(q).unwrap();
        assert!(explain.contains("IndexScan(Z.b)"), "{explain}");
        assert!(explain.contains("est_rows="), "{explain}");

        assert!(db.drop_index("Z", "b").unwrap());
        assert!(!db.drop_index("Z", "b").unwrap());
        let scanned = db.query(q).unwrap();
        assert_eq!(scanned.values, probed.values);
        assert_eq!(scanned.metrics.index_probes, 0);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let db = db();
        let q = "SELECT x.a FROM X x WHERE x.a IN (SELECT y.c - 9 FROM Y y WHERE x.b = y.b)";
        let base = db.query_with(q, QueryOptions::default()).unwrap();
        for bs in [1, 2, 7] {
            let r = db
                .query_with(q, QueryOptions::default().batch_size(bs))
                .unwrap();
            assert_eq!(r.values, base.values, "batch_size {bs}");
            assert_eq!(
                r.metrics.rows_scanned, base.metrics.rows_scanned,
                "batch_size {bs}"
            );
        }
    }
}
