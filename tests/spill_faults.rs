//! I/O faults on the spill tier's scratch file: whichever write (or the
//! file's creation) is the one that fails, a spilling statement ends in a
//! typed `Io` error — no panic, nothing left counted in the resident
//! gauge, nothing left under the temp directory.
//!
//! The three statements run over 2048-row `X` and `Y` under a 512-row
//! budget: the benchmark's grace hash semijoin and spilled nest join, and
//! a union of two projections whose dedup spills. (A projection at the
//! root does not spill: its dedup state is the result set, which stays in
//! memory whatever the budget; the Maps under a union are below the root.)
//! A counting failpoint first learns
//! how many scratch operations each performs; then a kill is swept through
//! every one of them, and a torn write through three. The two joins answer
//! their partnerless probe rows while the probe side is being partitioned,
//! so some of those kills land with such answers waiting in the join's
//! carry queue: the sweep checks that it reached that state.
//!
//! This file holds exactly one test: a failpoint on the `tmql-spill-`
//! prefix matches every scratch file of the process, so a second test
//! spilling beside it would be counted — and killed — too.

use std::path::{Path, PathBuf};

use tmql::{Database, QueryOptions, TmqlError};
use tmql_algebra::Env;
use tmql_exec::{ExecConfig, ExecContext, Metrics};
use tmql_model::{ModelError, Record};
use tmql_storage::{IoFailpoint, IoOp};
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries;

const ROWS: usize = 2048;
const BUDGET: usize = 512;
const BATCH: usize = 1024;

const STATEMENTS: [(&str, &str); 3] = [
    ("grace semijoin", queries::MEMBERSHIP),
    ("spilled nest join", queries::SUBSETEQ_BUG),
    (
        "spilled dedup",
        "(SELECT x.b FROM X x) UNION (SELECT y.b FROM Y y)",
    ),
];

/// What every scratch file of this process is named under.
fn scratch_prefix() -> PathBuf {
    std::env::temp_dir().join("tmql-spill-")
}

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

/// Run `src` through the executor's own entry point, where the resident
/// gauge can be read afterwards: the rows (sorted) or the error, and the
/// counters as they stood when it returned.
fn execute(
    db: &Database,
    src: &str,
    budget: Option<usize>,
) -> (Result<Vec<Record>, TmqlError>, Metrics) {
    let mut opts = QueryOptions::default().batch_size(BATCH);
    let mut config = ExecConfig::auto().batch_size(BATCH);
    if let Some(b) = budget {
        (opts, config) = (opts.memory_budget(b), config.memory_budget(b));
    }
    let (_, plan) = db.plan_with(src, opts).expect("plans");
    let phys = tmql_exec::lower(&plan, db.catalog(), &config).expect("lowers");
    let mut ctx = ExecContext::with_config(db.catalog(), &config);
    let result = tmql_exec::execute(&phys, &mut ctx, &Env::new());
    assert_eq!(ctx.resident_rows(), 0, "leaked resident rows: {src}");
    let metrics = ctx.metrics;
    drop(ctx);
    let sorted = result.map(|mut rows| {
        rows.sort();
        rows
    });
    (sorted.map_err(TmqlError::from), metrics)
}

fn assert_io_error<T: std::fmt::Debug>(result: Result<T, TmqlError>, case: &str) {
    match result {
        Err(TmqlError::Model(ModelError::Io(msg))) => {
            assert!(msg.contains("injected crash"), "{case}: {msg}")
        }
        other => panic!("{case}: expected an injected Io error, got {other:?}"),
    }
}

#[test]
fn a_fault_at_any_scratch_operation_is_a_typed_error_that_leaks_nothing() {
    let db = Database::from_catalog(gen_xy(&GenConfig {
        outer: ROWS,
        inner: ROWS,
        ..GenConfig::default()
    }));
    let prefix = scratch_prefix();
    for (name, src) in STATEMENTS {
        // Unarmed: the budgeted answer is the unbudgeted one.
        let (free, m) = execute(&db, src, None);
        assert_eq!(m.rows_spilled, 0, "{name}: no budget, no spilling");
        let free = free.expect("runs without a budget");
        let (tight, m) = execute(&db, src, Some(BUDGET));
        assert!(
            m.rows_spilled > 0,
            "{name}: 2048 rows over a 512-row budget"
        );
        assert_eq!(tight.expect("runs under the budget"), free, "{name}");
        let is_join = m.hash_build_rows > 0;
        assert_eq!(m.spill_rows_filtered > 0, is_join, "{name}: {m}");
        let opts = QueryOptions::default()
            .batch_size(BATCH)
            .memory_budget(BUDGET);
        if !is_join {
            let ops = db.query_with(src, opts).expect("runs").ops;
            let maps = ops.iter().filter(|o| o.label == "Map");
            let spilled: u64 = maps.map(|o| o.rows_spilled).sum();
            assert!(spilled > 0, "{name}: the Maps' dedup spills");
        }

        // Counted: one scratch file for the whole statement, then writes.
        let counter = IoFailpoint::count(&prefix);
        let (counted, _) = execute(&db, src, Some(BUDGET));
        assert_eq!(counted.expect("a counting failpoint fails nothing"), free);
        let log = counter.log();
        drop(counter);
        let writes = log.iter().filter(|op| matches!(op, IoOp::SpillWrite(_)));
        assert_eq!(log[0], IoOp::SpillCreate, "{name}: {log:?}");
        assert_eq!(writes.count(), log.len() - 1, "{name}: one create: {log:?}");
        assert!(
            log.len() > 8,
            "{name}: only {} scratch operations",
            log.len()
        );

        // Killed at every operation, through the executor and the facade.
        let mut killed_partitioning = 0;
        for k in 0..log.len() as u64 {
            let case = format!("{name}, killed at operation {k} of {}", log.len());
            let fp = IoFailpoint::kill_at(&prefix, k);
            let (killed, m) = execute(&db, src, Some(BUDGET));
            assert_io_error(killed, &case);
            assert!(fp.triggered(), "{case}");
            // Probe rows answered and no partition table built yet: the
            // join died partitioning its probe side.
            killed_partitioning += (m.spill_rows_filtered > 0 && m.hash_build_rows == 0) as u32;
            assert_io_error(db.query_with(src, opts), &case);
            drop(fp);
            assert_eq!(leaked_scratch(), Vec::<PathBuf>::new(), "{case}");
        }
        assert_eq!(
            killed_partitioning > 0,
            is_join,
            "{name}: {killed_partitioning}"
        );
        // Torn at the first write, a middle one and the last.
        for k in [1, log.len() as u64 / 2, log.len() as u64 - 1] {
            let case = format!("{name}, write {k} of {} torn", log.len());
            let fp = IoFailpoint::torn_at(&prefix, k);
            assert_io_error(execute(&db, src, Some(BUDGET)).0, &case);
            assert!(fp.triggered(), "{case}");
            drop(fp);
            assert_eq!(leaked_scratch(), Vec::<PathBuf>::new(), "{case}");
        }
        // Disarmed, the statement runs again.
        assert_eq!(execute(&db, src, Some(BUDGET)).0.expect("runs"), free);
    }
    // A whole round is three scratch files, one per spilling statement.
    let counter = IoFailpoint::count(&prefix);
    for (_, src) in STATEMENTS {
        execute(&db, src, Some(BUDGET)).0.expect("runs");
    }
    let created = |op: &&IoOp| **op == IoOp::SpillCreate;
    assert_eq!(counter.log().iter().filter(created).count(), 3);
}
