//! The six workloads: what data each builds from the seed and which
//! statements make up one round.
//!
//! A *round* is one pass over a workload's fixed statement list, so every
//! round is the same work. All tables come from the `tmql-workload`
//! generators and fixtures or from `int_table`; the benchmark never builds
//! a `Record` or an `Env` itself, so a data-plane refactor behind those
//! functions does not touch it. Why each workload exists is recorded in
//! `BENCHMARK.json` (generated from [`crate::manifest`]) and the README.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tmql::{Database, QueryOptions, Table, TmqlError};
use tmql_storage::table::int_table;
use tmql_workload::gen::{gen_xy, gen_xyz, GenConfig};
use tmql_workload::queries::{self, table2_templates, where_query};
use tmql_workload::schemas;
use tmql_workload::zipf::Zipf;

/// The seed whose row counts are pinned as literals below.
pub const PINNED_SEED: u64 = 42;

/// Pool of the cold workload: 8 pages (64 KiB) under a ~290-page extent.
const COLD_POOL_PAGES: usize = 8;
/// Pool of the read/write workload: holds every table and index.
const WARM_POOL_PAGES: usize = 4096;
/// Distinct keys of the indexed column `X.b` on both disk workloads.
const KEYS: usize = 256;
/// Rounds run (unverified) after loading, so caches and lazy set-up are
/// done before the first timed round.
pub const WARMUP_ROUNDS: usize = 2;

/// SELECT-clause nesting over the generated X/Y pair: a nest join whose
/// result is the answer (one nested tuple per X row, ∅ for danglers).
const SELECT_NESTING: &str = "SELECT (n = x.n, s = (SELECT y.a FROM Y y WHERE x.b = y.b)) FROM X x";

/// The paper's Table 1 as a query over `table1_catalog`.
const TABLE1: &str = "SELECT (e = x.e, d = x.d, s = (SELECT y FROM Y y WHERE x.d = y.b)) FROM X x";

/// Touches every row, emits none.
const SCAN_NONE: &str = "SELECT x.n FROM X x WHERE x.n < 0";
/// Projects one column and deduplicates.
const SCAN_PROJECT: &str = "SELECT x.b FROM X x";

/// What one statement of a round does.
#[derive(Debug, Clone)]
pub enum Op {
    /// `Database::query_with(src, opts)`.
    Query(String),
    /// One auto-committed `catalog_mut().replace(tables[i])`.
    Replace(usize),
    /// `BEGIN`; replace each of `tables[i]`; `COMMIT`.
    Txn(Vec<usize>),
}

/// One statement of a round.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement class for the per-class latency report.
    pub class: &'static str,
    /// Index into [`Instance::dbs`].
    pub db: usize,
    /// The call.
    pub op: Op,
    /// Options of a query (ignored by writes).
    pub opts: QueryOptions,
    /// Result rows at [`PINNED_SEED`] and full size (0 for writes).
    pub rows_pinned: usize,
}

/// A loaded workload: its databases and one round of statements.
#[derive(Debug)]
pub struct Instance {
    /// The databases the statements run against.
    pub dbs: Vec<Database>,
    /// One round.
    pub stmts: Vec<Stmt>,
    /// Replacement tables of the write statements.
    pub tables: Vec<Table>,
    /// `Database::open_with` on the populated file, milliseconds (0 for
    /// in-memory workloads).
    pub open_ms: f64,
    /// File of the disk database (`None` for in-memory workloads).
    pub disk_path: Option<PathBuf>,
}

/// Every statement runs serially: tmql is an embedded library with one
/// caller, and the host's second core belongs to the operating system.
fn opts() -> QueryOptions {
    QueryOptions::default().threads(1)
}

fn query(class: &'static str, db: usize, src: impl Into<String>, rows_pinned: usize) -> Stmt {
    Stmt {
        class,
        db,
        op: Op::Query(src.into()),
        opts: opts(),
        rows_pinned,
    }
}

fn write(class: &'static str, op: Op) -> Stmt {
    Stmt {
        class,
        db: 0,
        op,
        opts: opts(),
        rows_pinned: 0,
    }
}

fn gen_config(n: usize, inner: usize, seed: u64) -> GenConfig {
    GenConfig {
        outer: n,
        inner,
        dangling_fraction: 0.25,
        seed,
        ..GenConfig::default()
    }
}

/// A table of two integer columns from generated rows.
fn two_column(name: &str, cols: [&str; 2], rows: impl Iterator<Item = [i64; 2]>) -> Table {
    let data: Vec<[i64; 2]> = rows.collect();
    let refs: Vec<&[i64]> = data.iter().map(|r| r.as_slice()).collect();
    int_table(name, &cols, &refs)
}

/// `X(n, b)` with `n = i` and `b = (i + seed) mod KEYS`: every key has the
/// same number of rows, scattered over every page of the extent.
fn keyed_table(rows: usize, seed: u64) -> Table {
    let key = |i: u64| ((i + seed) % KEYS as u64) as i64;
    two_column(
        "X",
        ["n", "b"],
        (0..rows as u64).map(|i| [i as i64, key(i)]),
    )
}

/// `T<slot>(a, b)`: the small tables the read/write workload joins and
/// replaces.
fn small_table(slot: usize, rows: usize, seed: u64) -> Table {
    let (step, shift) = (slot as i64 + 1, (seed % 7) as i64);
    let rows = (0..rows as i64).map(|j| [j * step + shift, j % 16]);
    two_column(&format!("T{slot}"), ["a", "b"], rows)
}

/// `count` equality probes of `X.b` with keys drawn Zipf(KEYS, 0.9) from
/// the seed; every key selects `rows_pinned` rows at full size.
fn zipf_probes(class: &'static str, count: usize, seed: u64, rows_pinned: usize) -> Vec<Stmt> {
    let zipf = Zipf::new(KEYS, 0.9);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let k = zipf.sample(&mut rng);
            let src = format!("SELECT x.n FROM X x WHERE x.b = {k}");
            query(class, 0, src, rows_pinned)
        })
        .collect()
}

/// Create a disk database at `path` holding `tables` with an index on
/// `X.b` (one transaction, so one fsync whatever the table count), close
/// it, and reopen it so the pool starts empty. Returns the reopened
/// database and the reopen time in milliseconds.
fn disk_db(path: &Path, pool: usize, tables: Vec<Table>) -> Result<(Database, f64), TmqlError> {
    {
        let mut db = Database::open_with(path, pool)?;
        db.begin()?;
        for t in tables {
            db.register_table(t)?;
        }
        db.create_index("X", "b")?;
        db.commit()?;
    }
    let start = Instant::now();
    let db = Database::open_with(path, pool)?;
    Ok((db, start.elapsed().as_secs_f64() * 1e3))
}

/// Load workload `name` from `seed`. `shrink` divides every generated
/// row count (1 = the sizes of record; the smoke test uses more); disk
/// files go under `dir`.
pub fn build(name: &str, seed: u64, shrink: usize, dir: &Path) -> Result<Instance, TmqlError> {
    let shrink = shrink.max(1);
    let mut tables = Vec::new();
    let mut open_ms = 0.0;
    let mut disk_path = None;
    let (dbs, stmts) = match name {
        "paper_nested" => {
            // The two-level query runs on a smaller chain: its oracle is
            // the quadratic nested loop, which set-up must afford.
            let (n, chain) = (2048 / shrink, 512 / shrink);
            let dbs = vec![
                Database::from_catalog(gen_xy(&gen_config(n, n, seed))),
                Database::from_catalog(gen_xyz(&gen_config(chain, chain, seed))),
            ];
            let stmts = vec![
                query("semijoin", 0, queries::MEMBERSHIP, 119),
                query("antijoin", 0, queries::NON_MEMBERSHIP, 1929),
                query("nestjoin_filter", 0, queries::SUBSETEQ_BUG, 395),
                query("nestjoin_filter", 0, where_query("x.n = COUNT({Z})"), 139),
                query("nestjoin_select", 0, SELECT_NESTING, 816),
                query("nestjoin_2level", 1, queries::SECTION8, 96),
            ];
            (dbs, stmts)
        }
        "plan_heavy" => {
            // At most 16 rows per table at every scale: execution is tiny
            // by construction, so planning is most of each statement.
            let dbs = vec![
                Database::from_catalog(gen_xy(&gen_config(16, 16, seed))),
                Database::from_catalog(schemas::company_catalog()),
                Database::from_catalog(schemas::count_bug_catalog()),
                Database::from_catalog(schemas::section8_catalog()),
                Database::from_catalog(schemas::table1_catalog()),
            ];
            let pinned = [9, 9, 7, 1, 2, 14, 2, 1, 10, 9, 1, 15, 14, 2, 2, 14];
            let mut stmts: Vec<Stmt> = table2_templates()
                .into_iter()
                .zip(pinned)
                .map(|((_, src), rows)| query("table2", 0, src, rows))
                .collect();
            stmts.extend([
                query("paper", 1, queries::Q1, 1),
                query("paper", 1, queries::Q2, 3),
                query("paper", 2, queries::COUNT_BUG, 3),
                query("paper", 0, queries::SUBSETEQ_BUG, 2),
                query("paper", 3, queries::SECTION8, 2),
                query("paper", 3, queries::SECTION8_FLAT, 2),
                query("paper", 0, queries::UNNEST_COLLAPSE, 16),
                query("paper", 0, queries::MEMBERSHIP, 2),
                query("paper", 0, queries::NON_MEMBERSHIP, 14),
                query("paper", 4, TABLE1, 3),
            ]);
            (dbs, stmts)
        }
        "scan_mem" => {
            let n = 8192 / shrink;
            let dbs = vec![Database::from_catalog(gen_xy(&gen_config(n, 16, seed)))];
            let quarter = format!("SELECT x FROM X x WHERE x.b < {}", n / 4);
            let stmts = vec![
                query("scan_filter", 0, SCAN_NONE, 0),
                query("scan_project", 0, SCAN_PROJECT, 8192),
                query("scan_tuples", 0, quarter, 2048),
            ];
            (dbs, stmts)
        }
        "spill_join" => {
            let n = 2048 / shrink;
            let dbs = vec![Database::from_catalog(gen_xy(&gen_config(n, n, seed)))];
            let mut stmts = vec![
                query("grace_semijoin", 0, queries::MEMBERSHIP, 119),
                query("spill_nestjoin", 0, queries::SUBSETEQ_BUG, 395),
                query("spill_dedup", 0, SCAN_PROJECT, 2048),
            ];
            for s in &mut stmts {
                s.opts = s.opts.memory_budget(512 / shrink).batch_size(1024);
            }
            (dbs, stmts)
        }
        "disk_cold" => {
            let rows = 65536 / shrink;
            let x = keyed_table(rows, seed);
            let path = dir.join("cold.tmdb");
            let (db, ms) = disk_db(&path, COLD_POOL_PAGES, vec![x])?;
            (open_ms, disk_path) = (ms, Some(path));
            let mut stmts = vec![query("cold_scan", 0, SCAN_NONE, 0)];
            stmts.extend(zipf_probes("cold_probe", 16, seed, 256));
            let range = "SELECT x.n FROM X x WHERE x.b < 2";
            stmts.push(query("cold_range", 0, range, 512));
            (vec![db], stmts)
        }
        "disk_rw" => {
            let rows = 16384 / shrink;
            let t_rows = (256 / shrink).max(16);
            tables = (0..8).map(|i| small_table(i, t_rows, seed)).collect();
            let mut load = vec![keyed_table(rows, seed)];
            load.extend(tables.iter().cloned());
            let path = dir.join("rw.tmdb");
            let (db, ms) = disk_db(&path, WARM_POOL_PAGES, load)?;
            (open_ms, disk_path) = (ms, Some(path));
            let mut stmts = zipf_probes("warm_probe", 12, seed, 64);
            for (pair, rows) in [(0, 8), (2, 4), (4, 3)] {
                let src = format!(
                    "SELECT x FROM T{pair} x WHERE x.a IN (SELECT y.a FROM T{} y WHERE x.b = y.b)",
                    pair + 1
                );
                stmts.push(query("warm_join", 0, src, rows));
            }
            stmts.push(query("warm_scan", 0, SCAN_NONE, 0));
            stmts.extend((0..3).map(|i| write("commit", Op::Replace(i))));
            stmts.push(write("txn", Op::Txn(vec![4, 5, 6, 7])));
            (vec![db], stmts)
        }
        other => panic!("workload `{other}` is not in the manifest; callers check the name first"),
    };
    Ok(Instance {
        dbs,
        stmts,
        tables,
        open_ms,
        disk_path,
    })
}
