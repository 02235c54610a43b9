//! The write-ahead log: redo records that make commits durable before
//! any page write-back.
//!
//! The log is a sidecar file (`<db>.wal`) of length-prefixed,
//! checksummed records in the spill codec's framing style: each record
//! is `[u32 payload len][u64 FNV-1a checksum][payload]`, little-endian.
//! Two payload kinds exist:
//!
//! * **page image** — a page id plus its full [`PAGE_SIZE`] bytes, one
//!   per page a transaction wrote (data, overflow, index-chain, and
//!   catalog-chain pages alike);
//! * **commit** — the transaction's resulting header state (watermark,
//!   catalog chain head/length, free list) plus the pages it freed.
//!
//! A commit reaches the file as one **batch**: its page records and its
//! commit record are framed, one after the other, into a buffer the log
//! keeps ([`Wal::batch`]), checksummed where they lie, and written with
//! one positional write. The bytes are those of record-at-a-time appends;
//! a batch the crash tore is a torn tail like any other, because every
//! record carries its own checksum and the commit record comes last.
//!
//! A transaction is durable exactly when its commit record is fsynced;
//! page images without a following commit are an in-flight transaction
//! a crash aborted, and recovery ignores them. Replay
//! ([`Wal::scan`] + the store's redo pass) walks records in order,
//! stops at the first torn or corrupt record, and reports what it had
//! to discard — a truncated tail is an expected crash artifact, but it
//! is never silently dropped (see [`RecoveryReport`]).

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tmql_model::{ModelError, Result};
use tmql_obs::fnv1a;

use crate::bytes::{put_len, put_u32, put_u64, put_u8, Reader};
use crate::failpoint::{self, IoOp, WriteCheck};
use crate::pager::page::{PageId, PAGE_SIZE};

/// Payload tag for a page-image record.
const KIND_PAGE: u8 = 1;
/// Payload tag for a commit record.
const KIND_COMMIT: u8 = 2;
/// Bytes of framing before each payload: u32 length + u64 checksum (the
/// payload's 64-bit FNV-1a).
const FRAME_BYTES: usize = 12;
/// Payload bytes of a page-image record: kind tag, page id, image.
const PAGE_RECORD_BYTES: usize = 1 + 4 + PAGE_SIZE;

fn io_err(msg: impl Into<String>) -> ModelError {
    ModelError::Io(msg.into())
}

/// The header state a committed transaction leaves behind, logged as
/// the transaction's commit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CommitRecord {
    /// Page allocation watermark after the transaction.
    pub next_page: PageId,
    /// Head of the catalog blob chain.
    pub catalog_first: PageId,
    /// Byte length of the catalog blob.
    pub catalog_len: u64,
    /// Reusable free list as of this commit (already checkpoint-durable
    /// pages only; pages this and earlier WAL-only commits freed are in
    /// `freed`).
    pub free: Vec<PageId>,
    /// Pages this transaction freed; they may be reused only after the
    /// checkpoint that folds them into the durable free list.
    pub freed: Vec<PageId>,
}

impl CommitRecord {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, KIND_COMMIT);
        put_u32(out, self.next_page);
        put_u32(out, self.catalog_first);
        put_u64(out, self.catalog_len);
        for list in [&self.free, &self.freed] {
            put_len(out, list.len());
            for &pid in list {
                put_u32(out, pid);
            }
        }
    }

    /// Decode what follows a commit record's kind tag.
    pub(crate) fn decode(mut r: Reader<'_>) -> Result<CommitRecord> {
        let next_page = r.u32()?;
        let catalog_first = r.u32()?;
        let catalog_len = r.u64()?;
        let free = r.counted(4, Reader::u32)?;
        let freed = r.counted(4, Reader::u32)?;
        r.finish()?;
        Ok(CommitRecord {
            next_page,
            catalog_first,
            catalog_len,
            free,
            freed,
        })
    }
}

/// One durable transaction recovered from the log: the page images it
/// wrote, in order, and its commit record.
#[derive(Debug)]
pub(crate) struct WalTxn {
    /// `(page id, full page image)` in write order.
    pub pages: Vec<(PageId, Vec<u8>)>,
    /// The transaction's resulting header state.
    pub commit: CommitRecord,
}

/// What a scan of the log found: the committed transactions to replay,
/// plus an account of everything after the last valid commit.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Committed transactions in log order.
    pub txns: Vec<WalTxn>,
    /// Well-formed records after the last commit (an in-flight
    /// transaction's page images) plus one for a torn or corrupt tail,
    /// if any — all discarded by replay.
    pub discarded_records: usize,
    /// Bytes after the last valid commit record.
    pub discarded_bytes: u64,
}

/// Recovery summary surfaced through `Database::recovery_report` after
/// an open that found work in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed into the database file.
    pub replayed_txns: usize,
    /// Records discarded after the last valid commit (in-flight page
    /// images and/or one torn/corrupt tail record).
    pub discarded_records: usize,
    /// Bytes discarded after the last valid commit.
    pub discarded_bytes: u64,
}

impl RecoveryReport {
    /// True when the open neither replayed nor discarded anything.
    pub fn is_clean(&self) -> bool {
        self.replayed_txns == 0 && self.discarded_records == 0
    }
}

/// A point-in-time snapshot of WAL activity, surfaced through
/// `Catalog::wal_activity` for the metrics registry and shell `\stats`.
///
/// `*_total` fields are monotonic for the lifetime of the open store
/// (they survive checkpoints); `*_since_checkpoint` fields reset when a
/// checkpoint truncates the log. `checkpoints_total` is tracked by the
/// store, not the log — `Wal::activity` reports it as 0 and
/// `PagedStore::wal_activity` fills it in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalActivity {
    /// Current log size in bytes.
    pub size_bytes: u64,
    /// Records appended since the last checkpoint.
    pub records_since_checkpoint: u64,
    /// Commit records appended since the last checkpoint.
    pub commits_since_checkpoint: u64,
    /// Records appended since the store was opened.
    pub appends_total: u64,
    /// Commit records appended since the store was opened.
    pub commits_total: u64,
    /// Fsyncs of the log since the store was opened.
    pub syncs_total: u64,
    /// Bytes appended (framing included) since the store was opened.
    pub bytes_appended_total: u64,
    /// Checkpoints taken since the store was opened (filled in by the
    /// store, which owns checkpointing).
    pub checkpoints_total: u64,
}

/// Activity counters, atomics so [`Wal::sync`] (`&self`) can count too.
#[derive(Debug, Default)]
struct WalCounters {
    records: AtomicU64,
    commits: AtomicU64,
    appends_total: AtomicU64,
    commits_total: AtomicU64,
    syncs_total: AtomicU64,
    bytes_appended_total: AtomicU64,
}

/// An open write-ahead log: append-only between checkpoints, truncated
/// by them.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    end: u64,
    /// The frames of the batch being built; kept for its capacity.
    batch: Vec<u8>,
    counters: WalCounters,
}

/// One commit's records, framed into the log's buffer and not yet
/// written: any number of [`Batch::page`]s, then [`Batch::commit`].
/// Dropped without a commit, it leaves the file untouched.
#[derive(Debug)]
pub struct Batch<'a> {
    wal: &'a mut Wal,
    records: u64,
}

impl Batch<'_> {
    /// Frame whatever `payload` appends as the batch's next record:
    /// length and checksum are filled in over the bytes where they lie.
    fn frame(&mut self, payload: impl FnOnce(&mut Vec<u8>)) {
        let buf = &mut self.wal.batch;
        let at = buf.len();
        buf.extend_from_slice(&[0; FRAME_BYTES]);
        payload(buf);
        let (head, body) = buf[at..].split_at_mut(FRAME_BYTES);
        head[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&fnv1a(body).to_le_bytes());
        self.records += 1;
    }

    /// Add a page-image redo record.
    pub fn page(&mut self, pid: PageId, image: &[u8]) {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        self.frame(|out| {
            put_u8(out, KIND_PAGE);
            put_u32(out, pid);
            out.extend_from_slice(image);
        });
    }

    /// Add the commit record and write the batch at the end of the log,
    /// in one write; the transaction becomes durable at the next
    /// [`Wal::sync`].
    pub fn commit(mut self, rec: &CommitRecord) -> Result<()> {
        self.frame(|out| rec.encode_into(out));
        let Batch { wal, records } = self;
        let len = wal.batch.len();
        let allowed = match failpoint::check_write(&wal.path, IoOp::WalWrite(len), len)? {
            WriteCheck::Full => len,
            WriteCheck::Torn(n) => n,
        };
        wal.file
            .write_all_at(&wal.batch[..allowed], wal.end)
            .map_err(|e| io_err(format!("wal append: {e}")))?;
        if allowed < len {
            return Err(io_err("injected crash (torn wal append)"));
        }
        wal.end += len as u64;
        let c = &wal.counters;
        c.records.fetch_add(records, Ordering::Relaxed);
        c.appends_total.fetch_add(records, Ordering::Relaxed);
        c.bytes_appended_total
            .fetch_add(len as u64, Ordering::Relaxed);
        c.commits.fetch_add(1, Ordering::Relaxed);
        c.commits_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Wal {
    /// The sidecar path for a database file: `<db>.wal`.
    pub(crate) fn path_for(db_path: &Path) -> PathBuf {
        let mut os = db_path.as_os_str().to_os_string();
        os.push(".wal");
        PathBuf::from(os)
    }

    /// Open (creating if missing) the log for appending. The caller is
    /// expected to have scanned and replayed first; appends start at
    /// the current end of file.
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(format!("wal open {}: {e}", path.display())))?;
        let end = file
            .metadata()
            .map_err(|e| io_err(format!("wal stat: {e}")))?
            .len();
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            end,
            batch: Vec::new(),
            counters: WalCounters::default(),
        })
    }

    /// Bytes currently in the log (the checkpoint trigger input).
    pub fn bytes(&self) -> u64 {
        self.end
    }

    /// Snapshot of this log's activity counters.
    /// `checkpoints_total` is 0 here — checkpointing belongs to the
    /// store, which overlays its own count.
    pub fn activity(&self) -> WalActivity {
        let c = &self.counters;
        WalActivity {
            size_bytes: self.end,
            records_since_checkpoint: c.records.load(Ordering::Relaxed),
            commits_since_checkpoint: c.commits.load(Ordering::Relaxed),
            appends_total: c.appends_total.load(Ordering::Relaxed),
            commits_total: c.commits_total.load(Ordering::Relaxed),
            syncs_total: c.syncs_total.load(Ordering::Relaxed),
            bytes_appended_total: c.bytes_appended_total.load(Ordering::Relaxed),
            checkpoints_total: 0,
        }
    }

    /// Start the batch of one commit (abandoning what an earlier batch
    /// that never committed left in the buffer).
    pub fn batch(&mut self) -> Batch<'_> {
        self.batch.clear();
        Batch {
            wal: self,
            records: 0,
        }
    }

    /// Fsync the log — the durability point for everything appended.
    pub fn sync(&self) -> Result<()> {
        failpoint::check_sync(&self.path, IoOp::WalSync)?;
        self.file
            .sync_all()
            .map_err(|e| io_err(format!("wal sync: {e}")))?;
        self.counters.syncs_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Truncate the log after a checkpoint has made its contents
    /// redundant with the database file.
    pub fn reset(&mut self) -> Result<()> {
        failpoint::check_sync(&self.path, IoOp::WalReset)?;
        self.file
            .set_len(0)
            .map_err(|e| io_err(format!("wal truncate: {e}")))?;
        self.file
            .sync_all()
            .map_err(|e| io_err(format!("wal truncate sync: {e}")))?;
        self.end = 0;
        self.counters.records.store(0, Ordering::Relaxed);
        self.counters.commits.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Scan a log file for committed transactions. A missing file is an
    /// empty log. The scan stops at the first torn or corrupt record —
    /// nothing after it can be trusted — and accounts for what it
    /// discarded.
    pub fn scan(path: &Path) -> Result<WalScan> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)
                    .map_err(|e| io_err(format!("wal read: {e}")))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
            Err(e) => return Err(io_err(format!("wal open for scan: {e}"))),
        }
        let mut scan = WalScan::default();
        let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
        let mut r = Reader::new("wal", &data);
        // Bytes after the last commit, and whether the loop stopped at a
        // record it could not get past.
        let mut uncommitted = data.len();
        let mut stuck = false;
        while r.remaining() > 0 {
            match Wal::next_record(&mut r) {
                Ok(WalRecord::Page(pid, image)) => pending.push((pid, image.to_vec())),
                Ok(WalRecord::Commit(commit)) => {
                    scan.txns.push(WalTxn {
                        pages: std::mem::take(&mut pending),
                        commit,
                    });
                    uncommitted = r.remaining();
                }
                // A torn tail, a corrupt record or an unknown kind:
                // nothing after it can be trusted.
                Err(_) => {
                    stuck = true;
                    break;
                }
            }
        }
        // Well-formed-but-uncommitted records, plus one for a torn or
        // corrupt tail the parse loop could not get past.
        scan.discarded_records = pending.len() + usize::from(stuck);
        scan.discarded_bytes = uncommitted as u64;
        Ok(scan)
    }

    /// Read one framed record: length, checksum, payload.
    fn next_record<'a>(r: &mut Reader<'a>) -> Result<WalRecord<'a>> {
        let len = r.u32()? as usize;
        let sum = r.u64()?;
        let payload = r.take(len)?;
        if fnv1a(payload) != sum {
            return Err(r.err("checksum mismatch"));
        }
        let mut p = Reader::new("wal", payload);
        match p.u8()? {
            KIND_PAGE if len == PAGE_RECORD_BYTES => {
                Ok(WalRecord::Page(p.u32()?, p.take(PAGE_SIZE)?))
            }
            KIND_COMMIT => CommitRecord::decode(p).map(WalRecord::Commit),
            _ => Err(r.err("unknown record kind or malformed page record")),
        }
    }
}

/// One well-formed log record.
enum WalRecord<'a> {
    /// A page id and its full image.
    Page(PageId, &'a [u8]),
    Commit(CommitRecord),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tmql-wal-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// One batch: a page filled with each of `fills`, then `rec`.
    fn log(wal: &mut Wal, fills: &[(PageId, u8)], rec: &CommitRecord) {
        let mut batch = wal.batch();
        for &(pid, fill) in fills {
            batch.page(pid, &vec![fill; PAGE_SIZE]);
        }
        batch.commit(rec).unwrap();
    }

    fn commit(next: PageId) -> CommitRecord {
        CommitRecord {
            next_page: next,
            catalog_first: 7,
            catalog_len: 42,
            free: vec![3, 4],
            freed: vec![5],
        }
    }

    #[test]
    fn committed_transactions_round_trip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[(2, 0xAB), (3, 0xCD)], &commit(9));
        wal.sync().unwrap();

        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.discarded_records, 0);
        assert_eq!(scan.discarded_bytes, 0);
        let txn = &scan.txns[0];
        assert_eq!(txn.pages.len(), 2);
        assert_eq!(txn.pages[0].0, 2);
        assert_eq!(txn.pages[1].1, vec![0xCD; PAGE_SIZE]);
        assert_eq!(txn.commit, commit(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn uncommitted_pages_are_discarded_and_counted() {
        let path = tmp("uncommitted");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[], &commit(1));
        // A batch torn between its last page record and its commit record.
        log(&mut wal, &[(4, 1), (5, 2)], &commit(2));
        let full = std::fs::read(&path).unwrap();
        let commit_frame = FRAME_BYTES + 25 + 4 * 3;
        std::fs::write(&path, &full[..full.len() - commit_frame]).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.discarded_records, 2);
        assert!(scan.discarded_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_scan() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[], &commit(1));
        let committed = std::fs::read(&path).unwrap();
        log(&mut wal, &[], &commit(2));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..committed.len() + 5]).unwrap();

        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.txns[0].commit, commit(1));
        assert_eq!(scan.discarded_records, 1);
        assert_eq!(scan.discarded_bytes, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_stops_replay_at_the_last_valid_commit() {
        let path = tmp("bitflip");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[], &commit(1));
        let one = std::fs::read(&path).unwrap().len();
        log(&mut wal, &[(4, 7)], &commit(2));

        let mut data = std::fs::read(&path).unwrap();
        data[one + FRAME_BYTES + 100] ^= 0x40; // flip a bit inside txn 2's page image
        std::fs::write(&path, &data).unwrap();

        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.txns.len(), 1, "replay must stop before the corruption");
        assert_eq!(scan.discarded_records, 1);
        assert_eq!(scan.discarded_bytes, (data.len() - one) as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn activity_counters_track_appends_and_reset() {
        let path = tmp("activity");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[(2, 0xAB)], &commit(9));
        wal.sync().unwrap();
        let a = wal.activity();
        assert_eq!(a.records_since_checkpoint, 2);
        assert_eq!(a.commits_since_checkpoint, 1);
        assert_eq!(a.appends_total, 2);
        assert_eq!(a.commits_total, 1);
        assert_eq!(a.syncs_total, 1);
        assert_eq!(a.size_bytes, wal.bytes());
        assert_eq!(a.bytes_appended_total, wal.bytes());

        wal.reset().unwrap();
        let a = wal.activity();
        assert_eq!(a.size_bytes, 0);
        assert_eq!(a.records_since_checkpoint, 0, "since-checkpoint resets");
        assert_eq!(a.commits_since_checkpoint, 0);
        assert_eq!(a.appends_total, 2, "totals survive the checkpoint");
        assert_eq!(a.commits_total, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let scan = Wal::scan(Path::new("/tmp/definitely-not-a-wal-file.wal")).unwrap();
        assert!(scan.txns.is_empty());
        assert_eq!(scan.discarded_records, 0);
    }
}
