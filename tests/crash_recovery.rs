//! Differential crash-recovery harness: the WAL's acceptance test.
//!
//! A script of catalog statements — `register` / `replace` /
//! `create_index` / `drop_index`, some grouped into explicit
//! transactions — runs against a disk database while an armed
//! [`IoFailpoint`] kills (or tears) the process at one I/O boundary.
//! A shadow interpreter tracks the state every *acknowledged* commit
//! promised. After the crash, reopening must yield **exactly a
//! committed prefix**: the last acknowledged state, or — when the crash
//! landed between the WAL fsync and the statement's acknowledgment —
//! the very next one. Tables, the catalog, and secondary indexes all
//! have to agree with the shadow, and every recovered index must answer
//! probes identically to one freshly rebuilt from the recovered rows.
//!
//! Two drivers share the machinery:
//!
//! * a deterministic sweep that counts the boundary ops of a fixed
//!   script, then re-runs it once per boundary with a kill right there;
//! * a proptest over random scripts × random failpoints × kill/torn
//!   mode.
//!
//! A third test is about failing without dying: an index build whose
//! page writes hit a full disk (refused, or cut short) is an `Io` error
//! that leaves the process serving the old index, and succeeds when
//! retried.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tmql::{Database, TmqlError, Value};
use tmql_model::ModelError;
use tmql_storage::table::int_table;
use tmql_storage::{IoFailpoint, IoOp, OrdIndex, Table};

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tmql-crash-{}-{tag}-{n}.tmdb", std::process::id()))
}

fn clean(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

const TABLES: [&str; 3] = ["T0", "T1", "T2"];
const ATTRS: [&str; 2] = ["a", "b"];

/// One scripted statement. Table contents are a pure function of
/// `(slot, seed)`, so the shadow can regenerate them at checking time.
#[derive(Debug, Clone, Copy)]
enum Op {
    Begin,
    Commit,
    Rollback,
    Register(usize, u16),
    Replace(usize, u16),
    CreateIndex(usize, usize),
    DropIndex(usize, usize),
}

fn rows_for(slot: usize, seed: u16) -> Vec<Vec<i64>> {
    let n = i64::from(seed % 40) + 1;
    let stride = slot as i64 + 2;
    let modb = i64::from(seed % 7) + 1;
    (0..n)
        .map(|i| vec![i * stride + i64::from(seed), i % modb])
        .collect()
}

fn make_table(slot: usize, seed: u16) -> Table {
    let rows = rows_for(slot, seed);
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    int_table(TABLES[slot], &ATTRS, &refs)
}

/// What the database should contain: per-table generation parameters
/// plus the set of secondary indexes.
#[derive(Debug, Clone, Default, PartialEq)]
struct Shadow {
    tables: BTreeMap<String, (usize, u16)>,
    indexes: BTreeSet<(String, String)>,
}

/// Mirrors the engine's *pre-statement* validation: invalid ops error
/// without touching any state (and without aborting a transaction).
fn is_valid(visible: &Shadow, txn_open: bool, op: Op) -> bool {
    match op {
        Op::Begin => !txn_open,
        Op::Commit | Op::Rollback => txn_open,
        Op::Register(t, _) => !visible.tables.contains_key(TABLES[t]),
        Op::Replace(..) | Op::DropIndex(..) => true,
        Op::CreateIndex(t, a) => {
            visible.tables.contains_key(TABLES[t])
                && !visible
                    .indexes
                    .contains(&(TABLES[t].to_string(), ATTRS[a].to_string()))
        }
    }
}

/// Apply a (valid) data statement to a shadow. `replace` keeps existing
/// indexes — the engine rebuilds them over the new rows.
fn apply_data(shadow: &mut Shadow, op: Op) {
    match op {
        Op::Register(t, s) | Op::Replace(t, s) => {
            shadow.tables.insert(TABLES[t].to_string(), (t, s));
        }
        Op::CreateIndex(t, a) => {
            shadow
                .indexes
                .insert((TABLES[t].to_string(), ATTRS[a].to_string()));
        }
        Op::DropIndex(t, a) => {
            shadow
                .indexes
                .remove(&(TABLES[t].to_string(), ATTRS[a].to_string()));
        }
        Op::Begin | Op::Commit | Op::Rollback => {}
    }
}

fn exec(db: &mut Database, op: Op) -> Result<(), TmqlError> {
    match op {
        Op::Begin => db.begin(),
        Op::Commit => db.commit(),
        Op::Rollback => db.rollback(),
        Op::Register(t, s) => db.register_table(make_table(t, s)),
        Op::Replace(t, s) => db
            .catalog_mut()
            .replace(make_table(t, s))
            .map_err(TmqlError::from),
        Op::CreateIndex(t, a) => db.create_index(TABLES[t], ATTRS[a]),
        Op::DropIndex(t, a) => db.drop_index(TABLES[t], ATTRS[a]).map(|_| ()),
    }
}

/// Run a script against `path` under whatever failpoint is armed.
/// Returns the history of *commit-attempt* states (`history[0]` is the
/// empty initial state) and the index of the last acknowledged one.
/// Stops at the first injected crash, as a killed process would.
fn run_script(path: &Path, ops: &[Op]) -> (Vec<Shadow>, usize) {
    let Ok(mut db) = Database::open_with(path, 8) else {
        // The failpoint killed even the file's creation: nothing exists.
        return (vec![Shadow::default()], 0);
    };
    // A small threshold makes automatic checkpoints part of the swept
    // boundary space instead of only firing at close.
    db.set_wal_checkpoint_bytes(32 * 1024);
    let mut committed = Shadow::default();
    let mut visible = Shadow::default();
    let mut txn_open = false;
    let mut history = vec![committed.clone()];
    let mut acked = 0usize;

    for &op in ops {
        if !is_valid(&visible, txn_open, op) {
            assert!(
                exec(&mut db, op).is_err(),
                "engine accepted an invalid statement: {op:?}"
            );
            continue;
        }
        // A durability point: an auto-commit mutation outside a
        // transaction, or COMMIT itself. (A drop of a nonexistent index
        // writes nothing and commits nothing.)
        let commit_attempt = match op {
            Op::Commit => true,
            Op::Register(..) | Op::Replace(..) | Op::CreateIndex(..) => !txn_open,
            Op::DropIndex(t, a) => {
                !txn_open
                    && visible
                        .indexes
                        .contains(&(TABLES[t].to_string(), ATTRS[a].to_string()))
            }
            Op::Begin | Op::Rollback => false,
        };
        let candidate = match op {
            Op::Rollback => committed.clone(),
            _ => {
                let mut c = visible.clone();
                apply_data(&mut c, op);
                c
            }
        };
        if commit_attempt {
            history.push(candidate.clone());
        }
        match exec(&mut db, op) {
            Ok(()) => {
                match op {
                    Op::Begin => txn_open = true,
                    Op::Commit | Op::Rollback => txn_open = false,
                    _ => {}
                }
                visible = candidate;
                if commit_attempt {
                    acked = history.len() - 1;
                    committed = visible.clone();
                }
            }
            Err(e) => {
                assert!(
                    e.to_string().contains("injected crash"),
                    "unexpected engine error for {op:?}: {e}"
                );
                break; // the process is dead
            }
        }
    }
    (history, acked)
}

fn state_matches(db: &Database, shadow: &Shadow) -> bool {
    let names: BTreeSet<String> = db.catalog().table_names().map(str::to_string).collect();
    let want: BTreeSet<String> = shadow.tables.keys().cloned().collect();
    if names != want {
        return false;
    }
    for (name, &(t, seed)) in &shadow.tables {
        let expect = make_table(t, seed);
        let got = db.catalog().table(name).unwrap();
        if !got.same_contents(&expect).unwrap() {
            return false;
        }
    }
    let idx: BTreeSet<(String, String)> =
        db.indexes().into_iter().map(|(t, a, _)| (t, a)).collect();
    idx == shadow.indexes
}

/// Every recovered index must answer probes exactly like one freshly
/// rebuilt from the recovered rows (the `strategy_differential` index
/// consistency, applied post-crash).
fn assert_index_consistency(db: &Database, shadow: &Shadow) {
    for (tname, attr) in &shadow.indexes {
        let table = db.catalog().table(tname).unwrap();
        let persisted = db
            .catalog()
            .index_on(tname, attr)
            .expect("matched shadow has this index");
        let fresh = OrdIndex::build(table, attr).unwrap();
        assert_eq!(persisted.len(), fresh.len(), "{tname}.{attr} entry count");
        let &(t, seed) = shadow.tables.get(tname).expect("indexed table exists");
        let col = usize::from(attr == "b");
        for row in rows_for(t, seed) {
            let key = Value::Int(row[col]);
            assert_eq!(
                persisted.probe_eq(&key),
                fresh.probe_eq(&key),
                "{tname}.{attr} probe {key:?} diverged after recovery"
            );
        }
        assert!(persisted.probe_eq(&Value::Int(i64::MIN)).is_empty());
    }
}

/// Reopen after a crash and check the recovered state is a committed
/// prefix: `history[acked]`, or `history[acked + 1]` when the crash hit
/// after the WAL fsync of the next commit but before its
/// acknowledgment.
fn assert_committed_prefix(path: &Path, history: &[Shadow], acked: usize) {
    let db = Database::open_with(path, 8).unwrap();
    let mut allowed: Vec<&Shadow> = vec![&history[acked]];
    if let Some(next) = history.get(acked + 1) {
        allowed.push(next);
    }
    let Some(matched) = allowed.iter().find(|s| state_matches(&db, s)) else {
        panic!(
            "recovered state is not a committed prefix: acked {acked}, \
             {} attempt(s), recovery {:?}, recovered tables {:?}",
            history.len() - 1,
            db.recovery_report(),
            db.catalog().table_names().collect::<Vec<_>>(),
        );
    };
    assert_index_consistency(&db, matched);
}

/// The deterministic matrix: count the fixed script's I/O boundaries,
/// then kill at every single one of them (and once past the end, which
/// must recover the full final state).
#[test]
fn kill_sweep_over_every_io_boundary_recovers_a_committed_prefix() {
    let path = scratch("sweep");
    let script = [
        Op::Register(0, 5),
        Op::CreateIndex(0, 1),
        Op::Begin,
        Op::Replace(0, 9),
        Op::Register(1, 7),
        Op::Commit,
        Op::Begin,
        Op::Replace(1, 3),
        Op::Rollback,
        Op::DropIndex(0, 1),
        Op::Replace(0, 11),
        Op::CreateIndex(1, 0),
        Op::Begin,
        Op::Register(2, 13),
        Op::CreateIndex(2, 1),
        Op::Commit,
    ];
    clean(&path);
    let total = {
        let fp = IoFailpoint::count(&path);
        let (_, acked) = run_script(&path, &script);
        assert_eq!(acked, 7, "the unkilled pass acknowledges every commit");
        fp.ops()
    };
    assert!(
        total > 10,
        "the script must cross many boundaries ({total})"
    );
    for k in 0..=total {
        clean(&path);
        let fp = IoFailpoint::kill_at(&path, k);
        let (history, acked) = run_script(&path, &script);
        drop(fp);
        assert_committed_prefix(&path, &history, acked);
    }
    clean(&path);
}

/// Rows of the index-build fault test: `n` and `b` are both keys, so an
/// index on `b` has one entry per row and its blob spans several pages.
const WIDE_ROWS: i64 = 2000;

fn wide_table(generation: i64) -> Table {
    let rows: Vec<Vec<i64>> = (0..WIDE_ROWS)
        .map(|i| vec![i, (i * 7 + generation) % WIDE_ROWS + generation * WIDE_ROWS])
        .collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    int_table("X", &["n", "b"], &refs)
}

/// `X` holds generation `generation`, and `X.b` is indexed iff `indexed`
/// — by an index that answers like one built afresh over those rows.
fn assert_wide_state(db: &Database, generation: i64, indexed: bool) {
    let table = db.catalog().table("X").unwrap();
    assert!(table.same_contents(&wide_table(generation)).unwrap());
    let index = db.catalog().index_on("X", "b");
    assert_eq!(index.is_some(), indexed, "index on X.b");
    let Some(index) = index else { return };
    let fresh = OrdIndex::build(table, "b").unwrap();
    assert_eq!(index.len(), fresh.len());
    for i in (0..WIDE_ROWS).step_by(97) {
        let key = Value::Int(i + generation * WIDE_ROWS);
        assert_eq!(index.probe_eq(&key).len(), 1, "{key:?}");
        assert_eq!(index.probe_eq(&key), fresh.probe_eq(&key), "{key:?}");
    }
}

/// A full disk in the middle of an index build — `create_index`'s own, and
/// the rebuild `replace` does for an indexed table. The pool has no frames,
/// so every page `write_blob` (and `write_table`) writes is one write to
/// the file, and each of them is failed in turn, outright (ENOSPC) and
/// half-way (a short write). The statement is an `Io` error, the catalog
/// goes on serving the table and index it had, the allocator's lists are
/// where they were, the same statement then succeeds, and a reopen sees
/// its result.
#[test]
fn a_failed_index_build_write_keeps_the_old_index_and_the_retry_succeeds() {
    for rebuild in [false, true] {
        let path = scratch(if rebuild { "ix-rebuild" } else { "ix-create" });
        let setup = || {
            clean(&path);
            let mut db = Database::open_with(&path, 0).unwrap();
            db.register_table(wide_table(0)).unwrap();
            if rebuild {
                db.create_index("X", "b").unwrap();
            }
            db.wal_checkpoint().unwrap();
            db
        };
        let run = |db: &mut Database| match rebuild {
            false => db.create_index("X", "b"),
            true => db.catalog_mut().replace(wide_table(1)).map_err(Into::into),
        };
        // The statement's page writes: everything before its WAL batch.
        let page_writes = {
            let mut db = setup();
            let fp = IoFailpoint::count(&path);
            run(&mut db).unwrap();
            let log = fp.log();
            let batch = log.iter().position(|op| matches!(op, IoOp::WalWrite(_)));
            let writes = &log[..batch.expect("the statement committed")];
            assert!(writes.iter().all(|op| matches!(op, IoOp::PageWrite(_))));
            writes.len() as u64
        };
        assert!(
            page_writes >= 6,
            "the index chain alone is several pages ({page_writes})"
        );
        for k in 0..page_writes {
            for arm in [IoFailpoint::kill_at, IoFailpoint::torn_at] {
                let mut db = setup();
                let lists = db.catalog().free_list_len();
                let fp = arm(&path, k);
                let err = run(&mut db).unwrap_err();
                assert!(
                    matches!(err, TmqlError::Model(ModelError::Io(_))),
                    "write {k}: {err}"
                );
                assert!(fp.triggered());
                drop(fp);
                assert_wide_state(&db, 0, rebuild);
                assert_eq!(db.catalog().free_list_len(), lists, "write {k}");
                run(&mut db).unwrap();
                assert_wide_state(&db, i64::from(rebuild), true);
                drop(db);
                let db = Database::open_with(&path, 8).unwrap();
                assert_wide_state(&db, i64::from(rebuild), true);
            }
        }
        clean(&path);
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0u16..400).prop_map(|(t, s)| Op::Register(t, s)),
        (0usize..3, 0u16..400).prop_map(|(t, s)| Op::Replace(t, s)),
        (0usize..3, 0usize..2).prop_map(|(t, a)| Op::CreateIndex(t, a)),
        (0usize..3, 0usize..2).prop_map(|(t, a)| Op::DropIndex(t, a)),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scripts, random crash point, kill or torn-write mode: the
    /// reopened database is always exactly a committed prefix.
    #[test]
    fn random_interleavings_crash_to_a_committed_prefix(
        ops in prop::collection::vec(arb_op(), 1..24),
        k in 0u64..160,
        torn in any::<bool>(),
    ) {
        let path = scratch("prop");
        clean(&path);
        let fp = if torn {
            IoFailpoint::torn_at(&path, k)
        } else {
            IoFailpoint::kill_at(&path, k)
        };
        let (history, acked) = run_script(&path, &ops);
        drop(fp);
        assert_committed_prefix(&path, &history, acked);
        clean(&path);
    }
}
