//! The write-ahead log: redo records that make commits durable before
//! any page write-back.
//!
//! The log is a sidecar file (`<db>.wal`) that a checkpoint recycles in
//! place: each checkpoint starts a new **generation** by rewriting the
//! file's header, and the generation's records overwrite the last one's.
//! Format version 2, little-endian throughout:
//!
//! * **header**, 24 bytes at offset 0: `TMQW`, `u32` version 2, the
//!   generation's `u64` **epoch**, and an XXH64 (seed 0) of the 16 bytes
//!   before it;
//! * **frames** from offset 24: `[u32 payload len][u64 XXH64(payload,
//!   seed = epoch)][payload]`, in the spill codec's framing style;
//! * an **end marker** after the generation's last frame: `[u32 0][u64
//!   XXH64(∅, epoch)]`.
//!
//! Two payload kinds exist:
//!
//! * **page image** — a page id plus its full [`PAGE_SIZE`] bytes, one
//!   per page a transaction wrote (data, overflow, index-chain, and
//!   catalog-chain pages alike);
//! * **commit** — the transaction's resulting header state (watermark,
//!   catalog chain head/length, free list) plus the pages it freed.
//!
//! A commit reaches the file as one **batch**: its page records, its
//! commit record and a new end marker are framed, one after the other,
//! into a buffer the log keeps ([`Wal::batch`]), checksummed where they
//! lie, and written over the old marker with one positional write. The
//! first batch into an empty file carries the header in the same write.
//! A batch the crash tore is a torn tail like any other, because every
//! record carries its own checksum and the commit record comes last.
//!
//! Seeding every checksum with the epoch is what makes recycling safe:
//! past the marker lie the older generations' frames, and a write the
//! crash tore or reordered can expose them at a frame boundary, but none
//! of them checks under the current epoch. An epoch is never reused over
//! bytes it might have written: a reset moves to the next one, and a log
//! the store did not write since it opened — whatever a crash left,
//! version 1 and damaged logs among it — is truncated, never extended.
//!
//! A transaction is durable exactly when its commit record is fsynced;
//! page images without a following commit are an in-flight transaction
//! a crash aborted, and recovery ignores them. Replay
//! ([`Wal::scan`] + the store's redo pass) walks records in order,
//! stops at the marker or at the first torn or corrupt record, and
//! reports what it had to discard — a truncated tail is an expected
//! crash artifact, but it is never silently dropped (see
//! [`RecoveryReport`]). A file that does not begin with the magic is a
//! version 1 log — the same frames from offset 0, checksummed with
//! FNV-1a, no marker — and is read, never extended.

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
use crate::xxh64::xxh64;

/// Payload tag for a page-image record.
const KIND_PAGE: u8 = 1;
/// Payload tag for a commit record.
const KIND_COMMIT: u8 = 2;
/// Bytes of framing before each payload: u32 length + u64 checksum. An
/// end marker is a frame header with no payload.
const FRAME_BYTES: usize = 12;
/// Payload bytes of a page-image record: kind tag, page id, image.
const PAGE_RECORD_BYTES: usize = 1 + 4 + PAGE_SIZE;
/// The first bytes of a version 2 log.
const MAGIC: [u8; 4] = *b"TMQW";
const VERSION: u32 = 2;
/// Bytes of the header: magic, version, epoch, the header's checksum.
const HEADER_BYTES: usize = 24;

fn io_err(msg: impl Into<String>) -> ModelError {
    ModelError::Io(msg.into())
}

/// The header of the generation `epoch`.
fn header(epoch: u64) -> [u8; HEADER_BYTES] {
    let mut head = [0; HEADER_BYTES];
    head[..4].copy_from_slice(&MAGIC);
    head[4..8].copy_from_slice(&VERSION.to_le_bytes());
    head[8..16].copy_from_slice(&epoch.to_le_bytes());
    let sum = xxh64(&head[..16], 0);
    head[16..].copy_from_slice(&sum.to_le_bytes());
    head
}

/// The end marker of the generation `epoch`.
fn marker(epoch: u64) -> [u8; FRAME_BYTES] {
    let mut mark = [0; FRAME_BYTES];
    mark[4..].copy_from_slice(&xxh64(&[], epoch).to_le_bytes());
    mark
}

/// The epoch of a valid version 2 header at the front of `data`.
fn read_header(data: &[u8]) -> Option<u64> {
    let head = data.get(..HEADER_BYTES)?;
    let epoch = u64::from_le_bytes(head[8..16].try_into().ok()?);
    (head == header(epoch)).then_some(epoch)
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
    /// transaction's page images) plus one when the scan stopped short
    /// of an end — a torn or corrupt record, or a version 2 log without
    /// its marker — all discarded by replay.
    pub discarded_records: usize,
    /// Bytes after the last valid commit record: up to the end marker,
    /// or to the end of the file when the scan stopped short of one.
    pub discarded_bytes: u64,
    /// The epoch of the log's version 2 header, if it has a valid one.
    pub epoch: Option<u64>,
}

/// Recovery summary surfaced through `Database::recovery_report` after
/// an open that found work in the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
/// checkpoint starts the log's next generation. `checkpoints_total` is
/// tracked by the store, not the log — `Wal::activity` reports it as 0
/// and `PagedStore::wal_activity` fills it in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalActivity {
    /// Bytes of the current generation's records (framing included; the
    /// header and the end marker are not counted).
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

/// What the log file holds at offset 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    /// Nothing: the file is empty.
    Empty,
    /// The current generation's header.
    Current,
    /// Bytes the log cannot extend in place: whatever a crash left (any
    /// file not empty at open — a version 1 log, a damaged header, a
    /// current one), or a reset that failed. The next reset truncates
    /// them.
    Stale,
}

/// An open write-ahead log: appended to within a generation, recycled
/// in place by checkpoints, emptied at close.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    head: Head,
    /// The current generation's epoch, the seed of its checksums.
    epoch: u64,
    /// Where the generation's end marker lies: the next batch goes there.
    end: u64,
    /// Room for the header, then the frames of the batch being built;
    /// kept for its capacity.
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
        head[4..].copy_from_slice(&xxh64(body, self.wal.epoch).to_le_bytes());
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

    /// Add the commit record and an end marker and write the batch over
    /// the generation's old marker, in one write (from offset 0, header
    /// first, into a log without one); the transaction becomes durable
    /// at the next [`Wal::sync`].
    pub fn commit(mut self, rec: &CommitRecord) -> Result<()> {
        self.frame(|out| rec.encode_into(out));
        let Batch { wal, records } = self;
        let appended = (wal.batch.len() - HEADER_BYTES) as u64;
        wal.batch.extend_from_slice(&marker(wal.epoch));
        let (bytes, at) = if wal.head == Head::Current {
            (&wal.batch[HEADER_BYTES..], wal.end)
        } else {
            wal.batch[..HEADER_BYTES].copy_from_slice(&header(wal.epoch));
            (&wal.batch[..], 0)
        };
        let len = bytes.len();
        let allowed = match failpoint::check_write(&wal.path, IoOp::WalWrite(len), len)? {
            WriteCheck::Full => len,
            WriteCheck::Torn(n) => n,
        };
        wal.file
            .write_all_at(&bytes[..allowed], at)
            .map_err(|e| io_err(format!("wal append: {e}")))?;
        if allowed < len {
            return Err(io_err("injected crash (torn wal append)"));
        }
        wal.head = Head::Current;
        wal.end += appended;
        let c = &wal.counters;
        c.records.fetch_add(records, Ordering::Relaxed);
        c.appends_total.fetch_add(records, Ordering::Relaxed);
        c.bytes_appended_total
            .fetch_add(appended, Ordering::Relaxed);
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

    /// Open (creating if missing) a log after its scan. An empty file is
    /// ready for its first batch. Any other is what a crash left — a close
    /// empties the log — and is never extended: past its marker may lie
    /// bytes of its own epoch that a torn write could expose, so it must
    /// be [reset](Wal::reset), which truncates it, before a batch is
    /// written. The store's open does that by checkpointing.
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(format!("wal open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| io_err(format!("wal stat: {e}")))?
            .len();
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            head: if len == 0 { Head::Empty } else { Head::Stale },
            epoch: 1,
            end: HEADER_BYTES as u64,
            batch: Vec::new(),
            counters: WalCounters::default(),
        })
    }

    /// Bytes of the current generation's records (the checkpoint trigger
    /// input).
    pub fn bytes(&self) -> u64 {
        self.end - HEADER_BYTES as u64
    }

    /// Whether the file holds what only a checkpoint can settle: this
    /// generation's records, or bytes the log cannot extend — a log a
    /// crash left, whose records no checkpoint has yet folded into the
    /// database file, or a reset that failed.
    pub fn needs_checkpoint(&self) -> bool {
        self.bytes() > 0 || self.head == Head::Stale
    }

    /// Snapshot of this log's activity counters.
    /// `checkpoints_total` is 0 here — checkpointing belongs to the
    /// store, which overlays its own count.
    pub fn activity(&self) -> WalActivity {
        let c = &self.counters;
        WalActivity {
            size_bytes: self.bytes(),
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
        self.batch.extend_from_slice(&[0; HEADER_BYTES]);
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

    /// Empty the log file unless it already is: what a close leaves once
    /// its checkpoint is done, and what a database being created starts
    /// from. The file is synced.
    pub fn clear(&mut self) -> Result<()> {
        if self.head == Head::Empty {
            return Ok(());
        }
        failpoint::check_sync(&self.path, IoOp::WalReset)?;
        self.restart();
        self.file
            .set_len(0)
            .map_err(|e| io_err(format!("wal truncate: {e}")))?;
        self.file
            .sync_all()
            .map_err(|e| io_err(format!("wal reset sync: {e}")))?;
        (self.head, self.epoch) = (Head::Empty, 1);
        Ok(())
    }

    /// Start the log's next generation once a checkpoint has made this
    /// one redundant with the database file: rewrite the header, with
    /// the next epoch and an empty generation's marker, in place and sync
    /// it. A log without a current header is [cleared](Wal::clear)
    /// instead.
    pub fn reset(&mut self) -> Result<()> {
        if self.head != Head::Current {
            return self.clear();
        }
        failpoint::check_sync(&self.path, IoOp::WalReset)?;
        self.restart();
        let mut start = [0; HEADER_BYTES + FRAME_BYTES];
        start[..HEADER_BYTES].copy_from_slice(&header(self.epoch));
        start[HEADER_BYTES..].copy_from_slice(&marker(self.epoch));
        self.file
            .write_all_at(&start, 0)
            .map_err(|e| io_err(format!("wal header rewrite: {e}")))?;
        self.file
            .sync_all()
            .map_err(|e| io_err(format!("wal reset sync: {e}")))?;
        self.head = Head::Current;
        Ok(())
    }

    /// Leave the generation behind: the since-checkpoint counters start
    /// over, and the next batch goes right after the header under a new
    /// epoch. Until the reset is synced, what the file begins with is not
    /// that epoch's header, so a batch written meanwhile brings its own,
    /// and the next reset truncates.
    fn restart(&mut self) {
        self.end = HEADER_BYTES as u64;
        self.counters.records.store(0, Ordering::Relaxed);
        self.counters.commits.store(0, Ordering::Relaxed);
        self.head = Head::Stale;
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Scan a log file for committed transactions. A missing file is an
    /// empty log. The scan stops at the current generation's end marker
    /// or at the first torn or corrupt record — nothing after either can
    /// be trusted — and accounts for what it discarded.
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
        let frames = if data.starts_with(&MAGIC) {
            scan.epoch = read_header(&data);
            if scan.epoch.is_none() {
                // A damaged header: nothing in the file can be trusted.
                scan.discarded_records = 1;
                scan.discarded_bytes = data.len() as u64;
                return Ok(scan);
            }
            &data[HEADER_BYTES..]
        } else {
            &data[..]
        };
        let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
        let mut r = Reader::new("wal", frames);
        // Bytes left after the last commit, and where the loop stopped:
        // the bytes left before the end it found, or `None` when it could
        // not get past a record.
        let mut uncommitted = frames.len();
        let end = loop {
            let left = r.remaining();
            if left == 0 && scan.epoch.is_none() {
                break Some(0);
            }
            match Wal::next_record(&mut r, scan.epoch) {
                Ok(Some(WalRecord::Page(pid, image))) => pending.push((pid, image.to_vec())),
                Ok(Some(WalRecord::Commit(commit))) => {
                    scan.txns.push(WalTxn {
                        pages: std::mem::take(&mut pending),
                        commit,
                    });
                    uncommitted = r.remaining();
                }
                Ok(None) => break Some(left),
                // A torn tail, a corrupt record, an unknown kind or an
                // older generation's frame: nothing after it can be
                // trusted.
                Err(_) => break None,
            }
        };
        scan.discarded_records = pending.len() + usize::from(end.is_none());
        scan.discarded_bytes = (uncommitted - end.unwrap_or(0)) as u64;
        Ok(scan)
    }

    /// Read one framed record — length, checksum, payload — checksummed
    /// with XXH64 under `epoch`, or with FNV-1a in a version 1 log.
    /// `None` is the generation's end marker.
    fn next_record<'a>(r: &mut Reader<'a>, epoch: Option<u64>) -> Result<Option<WalRecord<'a>>> {
        let len = r.u32()? as usize;
        let sum = r.u64()?;
        let payload = r.take(len)?;
        let expected = match epoch {
            Some(epoch) => xxh64(payload, epoch),
            None => fnv1a(payload),
        };
        if expected != sum {
            return Err(r.err("checksum mismatch"));
        }
        if payload.is_empty() && epoch.is_some() {
            return Ok(None);
        }
        let mut p = Reader::new("wal", payload);
        match p.u8()? {
            KIND_PAGE if len == PAGE_RECORD_BYTES => {
                Ok(Some(WalRecord::Page(p.u32()?, p.take(PAGE_SIZE)?)))
            }
            KIND_COMMIT => CommitRecord::decode(p).map(|c| Some(WalRecord::Commit(c))),
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

    /// Where the next batch of `wal` begins in its file.
    fn end(wal: &Wal) -> usize {
        HEADER_BYTES + wal.bytes() as usize
    }

    /// Bytes of a page record's frame.
    const PAGE_FRAME: usize = FRAME_BYTES + PAGE_RECORD_BYTES;

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
        assert_eq!(scan.epoch, Some(1));
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
        let first = end(&wal);
        // A batch torn between its last page record and its commit
        // record: the two page records, and no end marker after them.
        log(&mut wal, &[(4, 1), (5, 2)], &commit(2));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..first + 2 * PAGE_FRAME]).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.discarded_records, 3, "two page records, no marker");
        assert_eq!(scan.discarded_bytes, 2 * PAGE_FRAME as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_scan() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[], &commit(1));
        let committed = end(&wal);
        log(&mut wal, &[], &commit(2));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..committed + 5]).unwrap();

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
        let one = end(&wal);
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
    fn a_reset_starts_the_next_generation_in_place_and_its_scan_ignores_the_last() {
        let path = tmp("recycle");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[(2, 0xAB), (3, 0xCD)], &commit(9));
        let grown = std::fs::metadata(&path).unwrap().len();
        wal.reset().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            grown,
            "not truncated"
        );
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.epoch, Some(2));
        assert_eq!((scan.txns.len(), scan.discarded_records), (0, 0));

        // A shorter generation over the longer one: the older frames past
        // its marker are never read.
        log(&mut wal, &[], &commit(10));
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.txns[0].commit, commit(10));
        assert_eq!((scan.discarded_records, scan.discarded_bytes), (0, 0));

        wal.clear().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert!(!wal.needs_checkpoint());
        log(&mut wal, &[], &commit(11));
        assert_eq!(
            Wal::scan(&path).unwrap().epoch,
            Some(1),
            "an empty log starts over"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// What a reordered, unsynced write can expose: the current
    /// generation's frames, then — where its marker should be — a whole
    /// transaction an older generation wrote at that offset. Its frames
    /// check under their own epoch, not under the current one, so the
    /// scan stops there as at a torn record.
    #[test]
    fn a_stale_generation_at_a_frame_boundary_is_a_torn_record_not_a_transaction() {
        let path = tmp("stale");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[(4, 0xEE)], &commit(5));
        let older = std::fs::read(&path).unwrap()[HEADER_BYTES..end(&wal)].to_vec();
        assert_eq!(
            Wal::scan(&path).unwrap().txns.len(),
            1,
            "whole under its epoch"
        );
        wal.reset().unwrap();
        log(&mut wal, &[], &commit(2));
        let mut data = std::fs::read(&path).unwrap()[..end(&wal)].to_vec();
        data.extend_from_slice(&older);
        std::fs::write(&path, &data).unwrap();

        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.epoch, Some(2));
        assert_eq!(scan.txns.len(), 1, "only the current generation replays");
        assert_eq!(scan.txns[0].commit, commit(2));
        assert_eq!(scan.discarded_records, 1);
        assert_eq!(scan.discarded_bytes, older.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_damaged_header_discards_the_whole_log() {
        let path = tmp("header");
        let mut wal = Wal::open(&path).unwrap();
        log(&mut wal, &[], &commit(1));
        let mut data = std::fs::read(&path).unwrap();
        data[9] ^= 1; // the epoch, no longer what the header's checksum covers
        std::fs::write(&path, &data).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!((scan.epoch, scan.txns.len()), (None, 0));
        assert_eq!(scan.discarded_records, 1);
        assert_eq!(scan.discarded_bytes, data.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let scan = Wal::scan(Path::new("/tmp/definitely-not-a-wal-file.wal")).unwrap();
        assert!(scan.txns.is_empty());
        assert_eq!(scan.discarded_records, 0);
    }
}
