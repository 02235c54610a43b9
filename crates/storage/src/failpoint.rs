//! Fault injection for the pager's I/O path — the crash half of the WAL
//! story's proof obligation — and for the spill tier's scratch file.
//!
//! A database is only as durable as its behaviour at the worst possible
//! kill point, so the crash-recovery tests need a way to *be* the crash:
//! [`IoFailpoint::kill_at`] arms a failpoint that lets the first `n`
//! write/sync operations on files under a path prefix succeed and then
//! fails **every** subsequent operation on those files (a killed process
//! does not come back for one more write), while
//! [`IoFailpoint::torn_at`] additionally writes a prefix of the fatal
//! write before failing, modelling a torn sector, and
//! [`IoFailpoint::fail_once_at`] fails one operation alone, an I/O error
//! the process lives through. [`IoFailpoint::count`]
//! arms a counting-only observer that records the operation log, so a
//! test can first learn how many sync boundaries a workload crosses (and
//! which kind each one is) and then sweep a kill through every single
//! one of them.
//!
//! The seam lives here rather than behind `cfg(test)` because the crash
//! harness drives it from *integration* tests; production code pays one
//! relaxed atomic load per I/O while no failpoint is armed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use tmql_model::{ModelError, Result};

/// What an armed failpoint does when its trigger operation is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailMode {
    /// Fail the trigger operation outright (and everything after it).
    Kill,
    /// Write a prefix of the trigger operation's bytes, then fail it
    /// (and everything after it). Only meaningful on writes; a sync at
    /// the trigger index behaves like [`FailMode::Kill`].
    Torn,
    /// Fail the trigger operation only: an I/O error the process lives
    /// through (`EIO`, `ENOSPC`), not a crash.
    Once,
    /// Never fail; just count operations and record the log.
    Count,
}

/// One I/O operation as observed by a counting failpoint, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A page-sized positional write to the database file (page id).
    PageWrite(u32),
    /// An `fsync` of the database file.
    FileSync,
    /// An append to the write-ahead log (byte length).
    WalWrite(usize),
    /// An `fsync` of the write-ahead log.
    WalSync,
    /// The start of the write-ahead log's next generation — its header
    /// rewritten, or the file emptied — and its sync (checkpoint
    /// completion, close).
    WalReset,
    /// The creation of a query's scratch file, on its first spill.
    SpillCreate,
    /// A positional write of one extent to a query's scratch file (byte
    /// length).
    SpillWrite(usize),
}

#[derive(Debug)]
struct Entry {
    prefix: PathBuf,
    mode: FailMode,
    /// Operation index at which to fail; `u64::MAX` for count-only.
    fail_at: u64,
    ops: AtomicU64,
    tripped: AtomicBool,
    log: Mutex<Vec<IoOp>>,
}

/// Lock `m`, recovering from poisoning: a test that panicked while holding
/// it leaves a registry or log that is still whole (each is one `Vec`
/// push or removal), so later tests keep using it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn registry() -> &'static Mutex<Vec<Arc<Entry>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Entry>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Number of currently armed failpoints; the production fast path.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// An armed I/O failpoint. Dropping it disarms the fault.
///
/// Failpoints match by path prefix, so arming on a database path also
/// covers its `.wal` sidecar. The operation counter covers writes,
/// syncs, and WAL resets — the boundaries where a crash changes
/// what recovery can see — plus the creation and every write of a
/// query's scratch file, and is shared across all matched files, so a
/// trigger index identifies one global point in the workload's I/O
/// sequence.
#[derive(Debug)]
pub struct IoFailpoint {
    entry: Arc<Entry>,
}

impl IoFailpoint {
    fn arm(prefix: &Path, mode: FailMode, fail_at: u64) -> IoFailpoint {
        let entry = Arc::new(Entry {
            prefix: prefix.to_path_buf(),
            mode,
            fail_at,
            ops: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
        });
        lock(registry()).push(Arc::clone(&entry));
        ARMED.fetch_add(1, Ordering::SeqCst);
        IoFailpoint { entry }
    }

    /// Arm a counting observer under `prefix`: never fails, records the
    /// operation log so a sweep can target specific boundaries.
    pub fn count(prefix: &Path) -> IoFailpoint {
        IoFailpoint::arm(prefix, FailMode::Count, u64::MAX)
    }

    /// Arm a kill: operations `0..n` succeed, operation `n` and every
    /// one after it fail with an injected-crash error.
    pub fn kill_at(prefix: &Path, n: u64) -> IoFailpoint {
        IoFailpoint::arm(prefix, FailMode::Kill, n)
    }

    /// Arm a torn write: like [`IoFailpoint::kill_at`], but the trigger
    /// operation (if it is a write) persists a prefix of its bytes
    /// before failing — the torn-sector crash.
    pub fn torn_at(prefix: &Path, n: u64) -> IoFailpoint {
        IoFailpoint::arm(prefix, FailMode::Torn, n)
    }

    /// Arm one failure: operation `n` fails with an injected error, and
    /// every other one succeeds.
    pub fn fail_once_at(prefix: &Path, n: u64) -> IoFailpoint {
        IoFailpoint::arm(prefix, FailMode::Once, n)
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.entry.ops.load(Ordering::SeqCst)
    }

    /// Whether the failpoint has fired at least once.
    pub fn triggered(&self) -> bool {
        self.entry.tripped.load(Ordering::SeqCst)
    }

    /// The recorded operation log (counting mode records every
    /// operation; failing modes record those that were allowed).
    pub fn log(&self) -> Vec<IoOp> {
        lock(&self.entry.log).clone()
    }
}

impl Drop for IoFailpoint {
    fn drop(&mut self) {
        let mut reg = lock(registry());
        if let Some(i) = reg.iter().position(|e| Arc::ptr_eq(e, &self.entry)) {
            reg.swap_remove(i);
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn injected() -> ModelError {
    ModelError::Io("injected crash (failpoint)".into())
}

/// Whether `e` fails everything from now on: it has killed the process.
fn dead(e: &Entry) -> bool {
    e.mode != FailMode::Once && e.tripped.load(Ordering::SeqCst)
}

/// Count one operation under `e` and say whether it fails.
fn fails(e: &Entry) -> bool {
    let idx = e.ops.fetch_add(1, Ordering::SeqCst);
    let fail = idx == e.fail_at || (idx > e.fail_at && e.mode != FailMode::Once);
    if fail {
        e.tripped.store(true, Ordering::SeqCst);
    }
    fail
}

fn matching(path: &Path) -> Option<Arc<Entry>> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    // Byte-prefix match, not `Path::starts_with` (which is per-component
    // and would not let a database path cover its `<db>.wal` sidecar).
    let bytes = path.as_os_str().as_encoded_bytes();
    let reg = lock(registry());
    reg.iter()
        .find(|e| bytes.starts_with(e.prefix.as_os_str().as_encoded_bytes()))
        .map(Arc::clone)
}

/// Outcome of consulting the failpoint before a write of `len` bytes.
pub(crate) enum WriteCheck {
    /// Perform the full write.
    Full,
    /// Write only the first `n` bytes, then report an injected crash.
    Torn(usize),
}

/// Consult the failpoint before a write. `Err` means the write must not
/// happen at all; `Ok(Torn(n))` means persist `n` bytes then fail.
pub(crate) fn check_write(path: &Path, op: IoOp, len: usize) -> Result<WriteCheck> {
    let Some(e) = matching(path) else {
        return Ok(WriteCheck::Full);
    };
    if dead(&e) {
        return Err(injected());
    }
    if fails(&e) {
        if e.mode == FailMode::Torn {
            return Ok(WriteCheck::Torn(len / 2));
        }
        return Err(injected());
    }
    lock(&e.log).push(op);
    Ok(WriteCheck::Full)
}

/// Consult the failpoint before a boundary that moves no bytes: a sync,
/// a truncation, the creation of a scratch file.
pub(crate) fn check_sync(path: &Path, op: IoOp) -> Result<()> {
    let Some(e) = matching(path) else {
        return Ok(());
    };
    if dead(&e) || fails(&e) {
        return Err(injected());
    }
    lock(&e.log).push(op);
    Ok(())
}

/// Consult the failpoint before a read: reads are not counted as crash
/// boundaries, but a tripped failpoint (dead process) fails them too.
pub(crate) fn check_read(path: &Path) -> Result<()> {
    let Some(e) = matching(path) else {
        return Ok(());
    };
    if dead(&e) {
        return Err(injected());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_mode_never_fails_and_logs() {
        let p = Path::new("/tmp/failpoint-count-test");
        let fp = IoFailpoint::count(p);
        check_sync(p, IoOp::FileSync).unwrap();
        assert!(matches!(
            check_write(p, IoOp::PageWrite(3), 8,).unwrap(),
            WriteCheck::Full
        ));
        assert_eq!(fp.ops(), 2);
        assert_eq!(fp.log(), vec![IoOp::FileSync, IoOp::PageWrite(3)]);
        assert!(!fp.triggered());
    }

    #[test]
    fn kill_is_sticky_after_the_trigger() {
        let p = Path::new("/tmp/failpoint-kill-test");
        let fp = IoFailpoint::kill_at(p, 1);
        check_sync(p, IoOp::WalSync).unwrap();
        assert!(check_sync(p, IoOp::WalSync).is_err());
        assert!(check_read(p).is_err());
        assert!(check_write(p, IoOp::WalWrite(4), 4).is_err());
        assert!(fp.triggered());
    }

    #[test]
    fn torn_allows_a_prefix_on_the_trigger_write_only() {
        let p = Path::new("/tmp/failpoint-torn-test");
        let _fp = IoFailpoint::torn_at(p, 0);
        match check_write(p, IoOp::WalWrite(10), 10).unwrap() {
            WriteCheck::Torn(n) => assert_eq!(n, 5),
            WriteCheck::Full => panic!("expected torn"),
        }
        assert!(check_write(p, IoOp::WalWrite(10), 10).is_err());
    }

    #[test]
    fn once_fails_the_trigger_operation_alone() {
        let p = Path::new("/tmp/failpoint-once-test");
        let fp = IoFailpoint::fail_once_at(p, 1);
        check_sync(p, IoOp::FileSync).unwrap();
        assert!(check_sync(p, IoOp::FileSync).is_err());
        assert!(fp.triggered());
        check_read(p).unwrap();
        check_sync(p, IoOp::WalReset).unwrap();
        assert!(matches!(
            check_write(p, IoOp::WalWrite(4), 4).unwrap(),
            WriteCheck::Full
        ));
        assert_eq!(fp.ops(), 4);
        assert_eq!(
            fp.log(),
            vec![IoOp::FileSync, IoOp::WalReset, IoOp::WalWrite(4)]
        );
    }

    #[test]
    fn unmatched_paths_are_untouched() {
        let p = Path::new("/tmp/failpoint-scope-test");
        let _fp = IoFailpoint::kill_at(p, 0);
        check_sync(Path::new("/tmp/other-file"), IoOp::FileSync).unwrap();
    }
}
