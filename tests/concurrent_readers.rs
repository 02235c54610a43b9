//! Many readers, one `Database`: statements run at the same time from
//! several threads against one disk-backed database behind a 4-page
//! buffer pool, each on the thread that called it.
//!
//! A running statement holds at most one page pin, so the contract is:
//! with no more reading threads than pool frames, every statement answers
//! exactly what it answers alone; with more, a statement may instead fail
//! with the typed I/O error `buffer pool exhausted` — never a panic, never
//! another answer. Afterwards no frame is left pinned and no scratch file
//! is left behind.
//!
//! This file holds exactly one test: its scratch-file check covers every
//! `tmql-spill-` entry of the process, so a second test spilling beside it
//! would be seen too.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

use tmql::{Database, QueryOptions, TmqlError, Value};
use tmql_model::ModelError;
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries;

const ROWS: usize = 2048;
const POOL_PAGES: usize = 4;
const BUDGET: usize = 32;
const ROUNDS: usize = 6;

/// A semijoin, an antijoin, a SELECT-clause nest join and a filtered scan.
const STATEMENTS: [&str; 4] = [
    queries::MEMBERSHIP,
    queries::NON_MEMBERSHIP,
    "SELECT (n = x.n, s = (SELECT y.a FROM Y y WHERE x.b = y.b)) FROM X x",
    "SELECT x.n FROM X x WHERE x.n < 512 AND x.b = 3",
];

/// Scratch entries of this process still under the temp directory.
fn leaked_scratch() -> Vec<PathBuf> {
    let ours = format!("tmql-spill-{}-", std::process::id());
    let is_ours = |p: &Path| {
        let name = p.file_name().unwrap_or_default().to_string_lossy();
        name.starts_with(&ours)
    };
    let entries = std::fs::read_dir(std::env::temp_dir()).expect("temp dir lists");
    let paths = entries.map(|e| e.expect("temp dir entry").path());
    paths.filter(|p| is_ours(p)).collect()
}

fn remove_db(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

/// Run every statement `ROUNDS` times on each of `readers` threads, all
/// released at once, reader `i` starting its rotation at statement `i`.
/// Returns how many statements ran and how many found the pool
/// exhausted; any other outcome than the serial answer or that error
/// fails the test.
fn run_readers(db: &Database, readers: usize, serial: &[BTreeSet<Value>]) -> (usize, usize) {
    let opts = QueryOptions::default().memory_budget(BUDGET);
    let start = Barrier::new(readers);
    let exhausted: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..readers)
            .map(|i| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let mut exhausted = 0;
                    for round in 0..ROUNDS {
                        for k in 0..STATEMENTS.len() {
                            let at = (i + round + k) % STATEMENTS.len();
                            match db.query_with(STATEMENTS[at], opts) {
                                Ok(r) => assert_eq!(
                                    r.values, serial[at],
                                    "{readers} readers: statement {at} answered differently"
                                ),
                                Err(TmqlError::Model(ModelError::Io(msg)))
                                    if msg.contains("buffer pool exhausted") =>
                                {
                                    exhausted += 1
                                }
                                Err(e) => panic!("{readers} readers: statement {at}: {e}"),
                            }
                        }
                    }
                    exhausted
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no reader panics"))
            .sum()
    });
    (readers * ROUNDS * STATEMENTS.len(), exhausted)
}

/// After a full scan of `table`, every frame of the pool holds one of its
/// pages — which no frame left pinned by an earlier statement could.
fn assert_every_frame_is_free(db: &Database, table: &str) {
    db.query(&format!("SELECT t.b FROM {table} t"))
        .expect("a serial scan runs");
    let (resident, total) = db.catalog().page_residency(table).expect("disk table");
    assert!(total > 2 * POOL_PAGES, "{table}: {total} pages");
    assert_eq!(resident, POOL_PAGES, "{table}: a frame stayed pinned");
}

#[test]
fn many_readers_share_one_database_and_its_pool() {
    let path = std::env::temp_dir().join(format!(
        "tmql-concurrent-readers-{}.tmdb",
        std::process::id()
    ));
    remove_db(&path);
    let mem = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS,
        inner: ROWS,
        ..GenConfig::default()
    }));
    let db = mem.persist_to(&path, POOL_PAGES).expect("persists");
    drop(mem);

    let opts = QueryOptions::default().memory_budget(BUDGET);
    let serial: Vec<BTreeSet<Value>> = STATEMENTS
        .iter()
        .map(|src| db.query_with(src, opts).expect("runs alone").values)
        .collect();
    assert!(
        serial.iter().all(|v| !v.is_empty()),
        "every statement answers"
    );

    for readers in [2, POOL_PAGES] {
        let (ran, exhausted) = run_readers(&db, readers, &serial);
        assert_eq!(exhausted, 0, "{readers} readers, {ran} statements");
    }
    // Twice the frames: some statements may find all four pinned.
    let (ran, exhausted) = run_readers(&db, 2 * POOL_PAGES, &serial);
    assert!(exhausted < ran, "{exhausted} of {ran} exhausted");

    assert_every_frame_is_free(&db, "Y");
    assert_every_frame_is_free(&db, "X");
    drop(db);
    remove_db(&path);
    assert_eq!(leaked_scratch(), Vec::<PathBuf>::new());
}
