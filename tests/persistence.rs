//! Facade-level persistence acceptance:
//!
//! * register → close → open → query round-trips the full complex-object
//!   value universe (NaN floats included) with results differentially
//!   identical to the in-memory path (property-based);
//! * a buffer pool capped well below the table size still answers
//!   identically, with pool residency pinned below the row count;
//! * corrupted and truncated database files surface as
//!   `ModelError::Io`, never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tmql::{Database, QueryOptions, TmqlError, Ty, Value};
use tmql_model::{ModelError, Record};
use tmql_storage::table::int_table;
use tmql_storage::{IoFailpoint, IoOp, OrdIndex, Table};

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tmql-persist-{}-{tag}-{n}.tmdb",
        std::process::id()
    ))
}

/// The WAL sidecar a database keeps next to its file.
fn wal_path(path: &Path) -> PathBuf {
    let mut w = path.to_path_buf().into_os_string();
    w.push(".wal");
    PathBuf::from(w)
}

/// Remove a scratch database and its WAL sidecar.
fn clean(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
}

/// Arbitrary bounded-depth complex object values — every `Value` kind,
/// with NaN explicitly in the float pool.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        "[a-z]{0,6}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            ("[a-d]", inner.clone())
                .prop_map(|(l, v)| Value::Variant(Arc::from(l.as_str()), Box::new(v))),
            prop::collection::vec(("[a-d]", inner), 0..3).prop_map(|pairs| {
                let mut rec = Record::empty();
                for (l, v) in pairs {
                    // Skip duplicate labels rather than fail the case.
                    let _ = rec.push(l, v);
                }
                Value::Tuple(rec)
            }),
        ]
    })
}

fn value_table(values: &[Value]) -> Table {
    let mut t = Table::new("T", vec![("v".into(), Ty::Any), ("k".into(), Ty::Int)]);
    for (i, v) in values.iter().enumerate() {
        t.insert(
            Record::new([
                ("v".to_string(), v.clone()),
                ("k".to_string(), Value::Int(i as i64)),
            ])
            .unwrap(),
        )
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: for arbitrary complex-object rows,
    /// register into a disk database, drop it, reopen, and the query
    /// answer is identical to the in-memory database's.
    #[test]
    fn register_close_open_query_round_trips(values in prop::collection::vec(arb_value(), 0..24)) {
        let path = scratch("prop");
        let table = value_table(&values);

        let mut mem = Database::new();
        mem.register_table(table.clone()).unwrap();
        let expected = mem.query("SELECT t.v FROM T t").unwrap();

        {
            let mut disk = Database::open_with(&path, 8).unwrap();
            prop_assert!(disk.is_persistent());
            disk.register_table(table).unwrap();
        } // dropped: the process keeps nothing in memory

        let reopened = Database::open_with(&path, 8).unwrap();
        let got = reopened.query("SELECT t.v FROM T t").unwrap();
        prop_assert_eq!(&got.values, &expected.values, "reopened result diverged");
        prop_assert_eq!(got.len(), values.iter().collect::<std::collections::BTreeSet<_>>().len());
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Secondary indexes round-trip through the pager: over arbitrary
    /// complex-object keys (NaN floats included), a reopened index
    /// answers every probe exactly like one freshly built from the rows.
    #[test]
    fn index_round_trips_through_disk(values in prop::collection::vec(arb_value(), 1..24)) {
        let path = scratch("ixprop");
        let table = value_table(&values);
        {
            let mut disk = Database::open_with(&path, 8).unwrap();
            disk.register_table(table.clone()).unwrap();
            disk.create_index("T", "v").unwrap();
            disk.create_index("T", "k").unwrap();
        } // dropped: the index must come back from pages, not memory

        let reopened = Database::open_with(&path, 8).unwrap();
        let fresh = OrdIndex::build(&table, "v").unwrap();
        let ix = reopened.catalog().index_on("T", "v").expect("index survived reopen");
        prop_assert_eq!(ix.len(), fresh.len());
        for v in &values {
            prop_assert_eq!(ix.probe_eq(v), fresh.probe_eq(v), "probe diverged for {:?}", v);
        }

        // And the indexed plan answers identically to the in-memory,
        // index-free database.
        let mut mem = Database::new();
        mem.register_table(table).unwrap();
        let q = "SELECT t.v FROM T t WHERE t.k = 0";
        prop_assert_eq!(reopened.query(q).unwrap().values, mem.query(q).unwrap().values);
        let _ = std::fs::remove_file(&path);
    }
}

/// Crash safety: the header is written last, so a crash after the index
/// pages land but before the catalog header commits leaves the *old*
/// catalog — reopening sees no index and never reads a torn one.
#[test]
fn crash_between_index_write_and_commit_keeps_old_catalog() {
    let path = scratch("ixcrash");
    let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i, i % 10]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    {
        let mut disk = Database::open_with(&path, 8).unwrap();
        disk.register_table(int_table("X", &["n", "b"], &refs))
            .unwrap();
    }
    // Snapshot the committed header (page 0) before the index exists.
    let pre_index_header = {
        let bytes = std::fs::read(&path).unwrap();
        bytes[..8192].to_vec()
    };
    {
        let mut disk = Database::open_with(&path, 8).unwrap();
        disk.create_index("X", "b").unwrap();
    }
    // "Crash" before the commit point: the index and new catalog pages
    // are on disk, but the header still references the old catalog. The
    // header-last protocol never reuses the old chain's pages within the
    // same commit, so restoring the old header restores the old catalog.
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(&pre_index_header).unwrap();
    drop(f);

    let reopened = Database::open_with(&path, 8).unwrap();
    assert!(
        reopened.indexes().is_empty(),
        "the un-committed index must not be visible"
    );
    let r = reopened.query("SELECT x.n FROM X x WHERE x.b = 3").unwrap();
    assert_eq!(r.len(), 50);
    assert_eq!(r.metrics.index_probes, 0, "no index to probe");
    let _ = std::fs::remove_file(&path);
}

/// A corrupted index page surfaces as `ModelError::Io` — never a panic,
/// never a silently wrong answer.
#[test]
fn corrupted_index_page_surfaces_as_io_error() {
    let path = scratch("ixcorrupt");
    let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i, i % 10]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    {
        let mut disk = Database::open_with(&path, 8).unwrap();
        disk.register_table(int_table("X", &["n", "b"], &refs))
            .unwrap();
    }
    // The index blob is allocated at the then-end of the file (the free
    // list is empty on a fresh database), so its first page sits exactly
    // at the pre-create-index file length.
    let index_first = std::fs::metadata(&path).unwrap().len();
    {
        let mut disk = Database::open_with(&path, 8).unwrap();
        disk.create_index("X", "b").unwrap();
    }
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(index_first)).unwrap();
    f.write_all(&vec![0xCDu8; 8192]).unwrap();
    drop(f);

    match Database::open_with(&path, 8) {
        Err(TmqlError::Model(ModelError::Io(_))) => {}
        Ok(_) => panic!("opening a database with a torn index must fail"),
        Err(other) => panic!("expected ModelError::Io, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// The headline acceptance: a dataset bigger than the buffer pool,
/// closed, reopened, and queried — differentially identical to the
/// in-memory path, with the pool pinned below the table size.
#[test]
fn bounded_pool_database_agrees_with_memory() {
    let path = scratch("bounded");
    let n = 4096i64;
    let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % 64]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let queries = [
        "SELECT x.b FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)",
        "SELECT x.n FROM X x WHERE COUNT((SELECT y.a FROM Y y WHERE x.b = y.b)) > 0",
        "SELECT x.n FROM X x WHERE x.n < 50",
    ];

    let mut mem = Database::new();
    mem.register_table(int_table("X", &["n", "b"], &refs))
        .unwrap();
    mem.register_table(int_table("Y", &["a", "b"], &refs))
        .unwrap();

    {
        let mut disk = Database::open_with(&path, 4).unwrap();
        disk.register_table(int_table("X", &["n", "b"], &refs))
            .unwrap();
        disk.register_table(int_table("Y", &["a", "b"], &refs))
            .unwrap();
    }
    let disk = Database::open_with(&path, 4).unwrap();

    // The pool is capped far below the table: its 4 frames cannot hold
    // the extent, so residency stays under the page count — and pages
    // hold at most a few hundred rows, so resident rows < row count.
    let (resident, total) = disk.catalog().page_residency("X").unwrap();
    assert!(
        total > 4,
        "4096 rows must span more pages than the 4-frame pool (got {total})"
    );
    assert!(
        resident <= 4,
        "residency is bounded by the pool ({resident}/{total})"
    );
    assert!(
        resident < n as usize,
        "pool residency stays below the row count"
    );

    for q in queries {
        let want = mem.query(q).unwrap();
        let got = disk.query(q).unwrap();
        assert_eq!(
            got.values, want.values,
            "disk-backed answer diverged for {q}"
        );
        assert!(
            got.metrics.pool_hits + got.metrics.pool_misses > 0,
            "disk-backed scans must go through the pool for {q}"
        );
    }

    // Scanning 4096 rows through 4 frames evicts continuously: a second
    // identical scan still faults (the working set exceeds the pool).
    let again = disk.query(queries[0]).unwrap();
    assert!(
        again.metrics.pool_misses > 0,
        "a working set larger than the pool keeps faulting: {}",
        again.metrics
    );
    let _ = std::fs::remove_file(&path);
}

/// A warm pool large enough for the table serves rescans from memory.
#[test]
fn warm_pool_stops_faulting() {
    let path = scratch("warm");
    let rows: Vec<Vec<i64>> = (0..512).map(|i| vec![i, i % 8]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let mut disk = Database::open_with(&path, 64).unwrap();
    disk.register_table(int_table("X", &["n", "b"], &refs))
        .unwrap();
    let cold = disk.query("SELECT x.n FROM X x WHERE x.n < 0").unwrap();
    let warm = disk.query("SELECT x.n FROM X x WHERE x.n < 0").unwrap();
    assert_eq!(
        warm.metrics.pool_misses, 0,
        "warm rescan faulted: {}",
        warm.metrics
    );
    assert!(warm.metrics.pool_hits > 0);
    assert!((warm.metrics.pool_hit_rate() - 1.0).abs() < 1e-12);
    // The estimator's page-I/O charge reflects the temperature: the warm
    // scan is priced cheaper than the cold one was.
    assert!(cold.metrics.pool_misses > 0 || cold.metrics.pool_hits > 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_page_surfaces_as_io_error() {
    let path = scratch("corrupt");
    let rows: Vec<Vec<i64>> = (0..2000).map(|i| vec![i, i % 4]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    {
        let mut disk = Database::open_with(&path, 8).unwrap();
        disk.register_table(int_table("X", &["n", "b"], &refs))
            .unwrap();
    }
    // Scribble garbage over the first data page (page 1; page 0 is the
    // header and the catalog chain is written after the data).
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(8192)).unwrap();
    f.write_all(&vec![0xABu8; 8192]).unwrap();
    drop(f);

    let disk = Database::open_with(&path, 8).unwrap();
    let err = disk.query("SELECT x.n FROM X x").unwrap_err();
    match err {
        TmqlError::Model(ModelError::Io(msg)) => {
            assert!(msg.contains("page"), "unexpected message: {msg}")
        }
        other => panic!("expected ModelError::Io, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_file_surfaces_as_io_error() {
    let path = scratch("truncated");
    {
        let mut disk = Database::open_with(&path, 8).unwrap();
        let rows: Vec<Vec<i64>> = (0..2000).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        disk.register_table(int_table("X", &["n"], &refs)).unwrap();
    }
    // Chop everything after the header: the catalog chain itself is gone.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(8192).unwrap();
    drop(f);
    match Database::open_with(&path, 8) {
        Err(TmqlError::Model(ModelError::Io(_))) => {}
        other => panic!("expected ModelError::Io on truncated open, got {other:?}"),
    }
    // And a non-database file is rejected outright.
    std::fs::write(&path, b"not a database").unwrap();
    match Database::open_with(&path, 8) {
        Err(TmqlError::Model(ModelError::Io(_))) => {}
        other => panic!("expected ModelError::Io on bad magic, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// The crash matrix: a counting failpoint first records the workload's I/O
// boundary sequence, then a second identical run is killed (or torn) at a
// semantically chosen boundary. After every crash, reopening must
// recover exactly the committed prefix — the WAL's whole claim.
// ---------------------------------------------------------------------------

/// Crash **between the WAL commit fsync and any page write-back**: the
/// log is the only durable copy of the transaction. Replay must
/// reconstruct it.
#[test]
fn crash_after_wal_sync_before_write_back_recovers_the_commit() {
    let path = scratch("crash-wb");
    let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i, i % 7]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let run = |path: &Path| {
        let mut db = Database::open_with(path, 8).unwrap();
        // No size-triggered checkpoint: write-back happens only at close.
        db.set_wal_checkpoint_bytes(u64::MAX);
        db.register_table(int_table("X", &["n", "b"], &refs))
    };

    // Pass 1: count. The last WalSync is the commit's durability point;
    // everything after it is write-back (the close-time checkpoint).
    clean(&path);
    let last_sync = {
        let fp = IoFailpoint::count(&path);
        run(&path).unwrap();
        let log = fp.log();
        log.iter()
            .rposition(|op| *op == IoOp::WalSync)
            .expect("the commit synced the WAL") as u64
    };

    // Pass 2: kill immediately after that sync — the checkpoint's first
    // page write (and everything after) fails.
    clean(&path);
    let fp = IoFailpoint::kill_at(&path, last_sync + 1);
    run(&path).unwrap(); // the commit itself was durable before the kill
    assert!(fp.triggered(), "the write-back must have been reached");
    drop(fp);

    let db = Database::open_with(&path, 8).unwrap();
    let rep = db.recovery_report().expect("disk-backed");
    assert_eq!(rep.replayed_txns, 1, "the logged commit was replayed");
    assert_eq!(rep.discarded_records, 0);
    let r = db.query("SELECT x.n FROM X x WHERE x.b = 3").unwrap();
    assert_eq!(r.len(), 43);
    clean(&path);
}

/// Crash **mid-WAL-append** (torn tail): a commit's records reach the log
/// as one batch in one write, and the crash tears that write. The commit
/// never became durable, so recovery must discard the torn transaction —
/// and say so — while keeping everything committed before it.
#[test]
fn crash_mid_wal_append_discards_the_torn_transaction() {
    let path = scratch("crash-torn");
    let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let setup = |path: &Path| {
        let mut db = Database::open_with(path, 8).unwrap();
        db.register_table(int_table("X", &["n"], &refs)).unwrap();
        db.wal_checkpoint().unwrap(); // X is checkpoint-durable; WAL empty
        db
    };

    // Pass 1: count. The second register's batch — its page records, then
    // its commit record — is the one WAL write before the WalSync.
    clean(&path);
    let (batch, batch_len) = {
        let mut db = setup(&path);
        let fp = IoFailpoint::count(&path);
        db.register_table(int_table("Y", &["m"], &refs)).unwrap();
        drop(db);
        let log = fp.log();
        let sync = log
            .iter()
            .position(|op| *op == IoOp::WalSync)
            .expect("the commit synced the WAL");
        let appends: Vec<(usize, usize)> = log[..sync]
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                IoOp::WalWrite(len) => Some((i, *len)),
                _ => None,
            })
            .collect();
        assert_eq!(appends.len(), 1, "one write per commit: {log:?}");
        appends[0]
    };
    assert!(batch_len > 2 * 8192, "Y's page, the catalog's, the commit");

    // Pass 2: tear that write — the first half of the batch reaches disk:
    // a whole page record and part of the next, no commit record.
    clean(&path);
    let mut db = setup(&path);
    let fp = IoFailpoint::torn_at(&path, batch as u64);
    let err = db
        .register_table(int_table("Y", &["m"], &refs))
        .unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");
    drop(db); // close-time checkpoint also dies: the process is "gone"
    assert!(fp.triggered());
    drop(fp);
    let torn = std::fs::metadata(wal_path(&path)).unwrap().len();
    assert_eq!(torn, batch_len as u64 / 2, "half the batch was written");

    let db = Database::open_with(&path, 8).unwrap();
    let rep = db.recovery_report().expect("disk-backed");
    assert_eq!(rep.replayed_txns, 0, "no commit record, nothing to replay");
    assert_eq!(
        rep.discarded_records, 2,
        "the whole page record and the torn one are reported, not silently dropped: {rep:?}"
    );
    assert_eq!(rep.discarded_bytes, torn, "{rep:?}");
    assert!(db.query("SELECT x.n FROM X x").is_ok(), "X survived");
    assert!(
        db.query("SELECT y.m FROM Y y").is_err(),
        "the torn Y must not exist"
    );
    clean(&path);
}

/// Crash **between the commit record and checkpoint completion**: the
/// statement already reported success (its fsync happened), so the
/// failed checkpoint must not lose it — replay reconstructs the pages
/// the write-back never finished.
#[test]
fn crash_between_commit_and_checkpoint_keeps_the_commit() {
    let path = scratch("crash-ckpt");
    let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let setup = |path: &Path| {
        let mut db = Database::open_with(path, 8).unwrap();
        db.register_table(int_table("X", &["n"], &refs)).unwrap();
        db.wal_checkpoint().unwrap(); // X checkpoint-durable; WAL empty
        db
    };

    // Pass 1: count. With a 1-byte threshold the commit is chased by an
    // automatic checkpoint; its first operation follows the WalSync.
    clean(&path);
    let commit_sync = {
        let mut db = setup(&path);
        db.set_wal_checkpoint_bytes(1);
        let fp = IoFailpoint::count(&path);
        db.register_table(int_table("Y", &["m"], &refs)).unwrap();
        drop(db);
        fp.log()
            .iter()
            .position(|op| *op == IoOp::WalSync)
            .expect("the commit synced the WAL") as u64
    };

    // Pass 2: kill the checkpoint's first operation. The statement still
    // succeeds — its durability point already passed.
    clean(&path);
    let mut db = setup(&path);
    db.set_wal_checkpoint_bytes(1);
    let fp = IoFailpoint::kill_at(&path, commit_sync + 1);
    db.register_table(int_table("Y", &["m"], &refs))
        .expect("the commit was durable before the checkpoint died");
    drop(db);
    assert!(fp.triggered());
    drop(fp);

    let db = Database::open_with(&path, 8).unwrap();
    let rep = db.recovery_report().expect("disk-backed");
    assert_eq!(rep.replayed_txns, 1, "the acknowledged commit came back");
    assert_eq!(db.query("SELECT x.n FROM X x").unwrap().len(), 200);
    assert_eq!(db.query("SELECT y.m FROM Y y").unwrap().len(), 200);
    clean(&path);
}

/// A bit flip **mid-log** (satellite of the WAL-scan unit test, end to
/// end): replay stops at the last valid commit before the flip and the
/// discarded suffix is counted in the recovery report.
#[test]
fn bit_flipped_wal_record_stops_replay_at_last_valid_commit() {
    let path = scratch("crash-flip");
    let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();

    clean(&path);
    let txn1_end;
    {
        let mut db = Database::open_with(&path, 8).unwrap();
        db.set_wal_checkpoint_bytes(u64::MAX); // keep both commits in the log
        db.register_table(int_table("X", &["n"], &refs)).unwrap();
        txn1_end = std::fs::metadata(wal_path(&path)).unwrap().len();
        db.register_table(int_table("Y", &["m"], &refs)).unwrap();
        // Crash the close so the WAL survives intact…
        let _fp = IoFailpoint::kill_at(&path, 0);
        drop(db);
    }
    // …then flip one byte inside the second transaction's first record.
    let wal = wal_path(&path);
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() as u64 > txn1_end, "txn 2 appended records");
    let victim = txn1_end as usize + 16;
    bytes[victim] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();

    let db = Database::open_with(&path, 8).unwrap();
    let rep = db.recovery_report().expect("disk-backed");
    assert_eq!(rep.replayed_txns, 1, "replay stopped after txn 1: {rep:?}");
    assert!(rep.discarded_records >= 1, "{rep:?}");
    assert!(rep.discarded_bytes > 0, "{rep:?}");
    assert_eq!(db.query("SELECT x.n FROM X x").unwrap().len(), 200);
    assert!(
        db.query("SELECT y.m FROM Y y").is_err(),
        "the corrupt txn 2 must be gone"
    );
    // The reopen checkpointed what it recovered: a second open is clean.
    drop(db);
    let db = Database::open_with(&path, 8).unwrap();
    assert!(db.recovery_report().unwrap().is_clean());
    clean(&path);
}

/// `persist_to` copies an in-memory database wholesale; the copy answers
/// identically after reopen.
#[test]
fn persist_to_copies_a_live_database() {
    let path = scratch("persistto");
    let mut mem = Database::new();
    mem.register_table(int_table("X", &["a", "b"], &[&[1, 1], &[2, 1], &[3, 9]]))
        .unwrap();
    mem.register_table(int_table("Y", &["b", "c"], &[&[1, 10], &[9, 90]]))
        .unwrap();
    mem.create_index("X", "b").unwrap();
    let q = "SELECT x.a FROM X x WHERE x.a IN (SELECT y.c - 9 FROM Y y WHERE x.b = y.b)";
    let want = mem.query(q).unwrap();

    let copy = mem.persist_to(&path, 8).unwrap();
    assert!(copy.is_persistent());
    assert_eq!(
        copy.indexes(),
        vec![("X".to_string(), "b".to_string(), 3)],
        "indexes travel with persist_to"
    );
    assert_eq!(copy.query(q).unwrap().values, want.values);
    drop(copy);

    let reopened = Database::open_with(&path, 8).unwrap();
    assert_eq!(reopened.query(q).unwrap().values, want.values);
    // Options thread through unchanged on the disk path.
    let tight = reopened
        .query_with(q, QueryOptions::default().memory_budget(2))
        .unwrap();
    assert_eq!(tight.values, want.values);

    // Persisting over an existing database is refused (it would merge,
    // not copy).
    match mem.persist_to(&path, 8) {
        Err(TmqlError::Model(ModelError::Io(msg))) => {
            assert!(msg.contains("already exists"), "{msg}")
        }
        other => panic!("expected refusal on existing target, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
