//! The paged database file and the store façade over it.
//!
//! One database is one file. Page 0 is the header (magic, format version,
//! page size, the allocation watermark, the free list, and a pointer to
//! the current catalog chain); every other page is a [data or
//! overflow](super::page) page reached through the [`BufferPool`]. Format
//! version 2 writes data pages of frames and integers as varints;
//! version 1 files, of whole records and 8-byte integers, are read, and
//! their first commit rewrites the header as version 2 before it logs
//! anything, so a build that knows only version 1 refuses the file
//! instead of misreading its new pages. Tables occupy *extents* —
//! ordered lists of data pages, each knowing how many rows it holds — so a
//! scan cursor can map a row offset to a page without touching earlier
//! pages. A sidecar write-ahead log (`<db>.wal`, [`crate::wal`]) makes
//! commits durable before any page write-back.
//!
//! # Concurrency
//!
//! Reads ([`PagedStore::read_rows`]) are fully concurrent: the file uses
//! positional I/O (`&self`), and the pool is latch-based (see
//! [`super::pool`]), so statements running on many threads share the store
//! without a global lock. Writers ([`PagedStore::write_table`],
//! [`PagedStore::write_catalog`]) serialize on one write lock; the header
//! state (watermark + free list) sits behind its own small mutex.
//!
//! # Durability rules
//!
//! * Data and catalog pages are written through the pool; eviction and
//!   [`BufferPool::flush`] perform the actual file writes, at any time.
//! * A catalog update ([`PagedStore::write_catalog`]) is the commit point:
//!   every page the transaction wrote is appended to the WAL as a full
//!   image, followed by a commit record carrying the resulting header
//!   state, and the WAL is fsynced **before** the in-memory state
//!   advances. Nothing else need reach the database file for the commit
//!   to survive — redo on open replays the images.
//! * A **checkpoint** ([`PagedStore::checkpoint`], triggered when the
//!   WAL exceeds its threshold and on close) flushes all pages, syncs
//!   the file, rewrites the header to the committed state, syncs again,
//!   and only then starts the WAL's next generation (rewriting the log's
//!   header in place; a close then empties the log). A crash at any
//!   point leaves either a header or a WAL (or both) describing the last
//!   committed state.
//! * Pages freed by a commit (a replaced table's extent + overflow
//!   chains, superseded index chains, and the superseded catalog chain)
//!   are quarantined in a *pending* list and join the reusable **free
//!   list** only at the next checkpoint. The allocator therefore only
//!   ever writes pages that are dead in the checkpointed on-disk state,
//!   so eviction-time write-back of uncommitted pages can never corrupt
//!   what recovery reconstructs. The free list is minimal: it holds up
//!   to [`FREE_LIST_CAP`] page ids in the header page; anything past
//!   that is leaked until the database is copied
//!   ([`Table`](crate::Table) re-registration into a fresh file).
//! * Recovery on open scans the WAL, replays every committed
//!   transaction's page images in order, adopts the last commit's
//!   header state, and checkpoints whenever the log is not empty — and
//!   that checkpoint truncates the log, so a reopened database never
//!   appends under an epoch a crash may have left bytes of. A torn or
//!   corrupt record stops the scan at the last valid commit; what
//!   follows is discarded and **reported** (see [`crate::wal::RecoveryReport`]), never silently
//!   dropped.

use std::fs::{File, OpenOptions, TryLockError};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use tmql_model::{ModelError, Record, Result};
use tmql_obs::{Histogram, MetricsRegistry};

use super::image::{decode_catalog, CatalogImage};
use super::page::{self, PageId, NO_PAGE, OVF_CAPACITY, PAGE_SIZE};
use super::pool::{BufferPool, PoolStats};
use crate::bytes::{put_len, put_u16, put_u32, put_u64, Reader};
use crate::failpoint::{self, IoOp, WriteCheck};
use crate::spill::{encode_frame, encode_record, writing_v1, RecordDecoder, StoredRow};
use crate::wal::{CommitRecord, RecoveryReport, Wal, WalActivity};

/// Default buffer-pool capacity in pages (2 MiB at the 8 KiB page size).
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Default WAL size (bytes) past which a commit triggers a checkpoint.
/// Override per store with `PagedStore::set_checkpoint_bytes` or
/// process-wide with `TMQL_WAL_CHECKPOINT_BYTES` (read at open/create;
/// `1` forces a checkpoint after every commit — the starved-WAL test
/// setting).
pub const DEFAULT_WAL_CHECKPOINT_BYTES: u64 = 1 << 20;

const MAGIC: [u8; 4] = *b"TMQB";
/// The header's format version: 2 since data pages hold frames and
/// integers are varints. A version 1 file is read, and its first commit
/// rewrites its header as version 2 (see [`MetaState::v1_header`]).
const VERSION: u16 = 2;

/// Fixed header bytes before the free list (magic, version, page size,
/// watermark, catalog pointer + length).
const META_BYTES: usize = 26;

/// Maximum free-page ids the header page can record (the rest of the page
/// after the fixed fields, 4 bytes per id).
pub(crate) const FREE_LIST_CAP: usize = (PAGE_SIZE - META_BYTES - 4) / 4;

fn io_err(e: std::io::Error) -> ModelError {
    ModelError::Io(e.to_string())
}

fn checkpoint_bytes_from_env() -> u64 {
    std::env::var("TMQL_WAL_CHECKPOINT_BYTES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_WAL_CHECKPOINT_BYTES)
}

// ---------------------------------------------------------------------------
// The file
// ---------------------------------------------------------------------------

/// Raw page-granular I/O over the database file. Positional reads/writes
/// (`pread`/`pwrite`) take `&self`, so concurrent page faults never
/// serialize on a seek cursor. Every operation passes the
/// [`crate::failpoint`] seam, which is how the crash harness injects
/// kills and torn writes at each I/O boundary.
#[derive(Debug)]
pub(crate) struct PagedFile {
    file: File,
    path: PathBuf,
}

impl PagedFile {
    /// Create (truncating) a database file. Truncates only once the lock
    /// is held, so a refused create leaves a live database intact.
    pub fn create(path: &Path) -> Result<PagedFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let paged = PagedFile::locked(file, path)?;
        paged.file.set_len(0).map_err(io_err)?;
        Ok(paged)
    }

    /// Open an existing database file.
    pub fn open(path: &Path) -> Result<PagedFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        PagedFile::locked(file, path)
    }

    /// Take the file's exclusive lock, held until the file closes. One
    /// live store per file, in this process or another: a second one
    /// would replay and recycle the log the first is appending to.
    fn locked(file: File, path: &Path) -> Result<PagedFile> {
        match file.try_lock() {
            Ok(()) => Ok(PagedFile {
                file,
                path: path.to_path_buf(),
            }),
            Err(TryLockError::WouldBlock) => Err(ModelError::Io(format!(
                "`{}` is already open in another live database",
                path.display()
            ))),
            Err(TryLockError::Error(e)) => Err(io_err(e)),
        }
    }

    /// Read page `pid` into `buf` (exactly one page).
    pub(crate) fn read_page(&self, pid: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        failpoint::check_read(&self.path)?;
        self.file
            .read_exact_at(buf, pid as u64 * PAGE_SIZE as u64)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    ModelError::Io(format!("truncated database file: page {pid} is missing"))
                } else {
                    io_err(e)
                }
            })
    }

    /// Write page `pid` from `buf`.
    pub(crate) fn write_page(&self, pid: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let allowed = match failpoint::check_write(&self.path, IoOp::PageWrite(pid), buf.len())? {
            WriteCheck::Full => buf.len(),
            WriteCheck::Torn(n) => n,
        };
        self.file
            .write_all_at(&buf[..allowed], pid as u64 * PAGE_SIZE as u64)
            .map_err(io_err)?;
        if allowed < buf.len() {
            return Err(ModelError::Io("injected crash (torn page write)".into()));
        }
        Ok(())
    }

    /// Force everything to stable storage.
    pub fn sync(&self) -> Result<()> {
        failpoint::check_sync(&self.path, IoOp::FileSync)?;
        self.file.sync_all().map_err(io_err)
    }
}

// ---------------------------------------------------------------------------
// Header / meta
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub(crate) struct Meta {
    /// Next never-allocated page id (page 0 is the header).
    pub(crate) next_page: PageId,
    /// First page of the current catalog chain ([`NO_PAGE`] when empty).
    pub(crate) catalog_first: PageId,
    /// Byte length of the current catalog blob.
    pub(crate) catalog_len: u64,
}

impl Meta {
    /// Encode the header page: fixed fields, then the free list
    /// (count + ids), zero-padded to a page. Files written before the
    /// free list existed decode with a count of 0, so the free list moved
    /// no format version.
    pub(crate) fn encode(&self, free: &[PageId]) -> Vec<u8> {
        debug_assert!(free.len() <= FREE_LIST_CAP);
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        buf.extend_from_slice(&MAGIC);
        put_u16(&mut buf, VERSION);
        put_u32(&mut buf, PAGE_SIZE as u32);
        put_u32(&mut buf, self.next_page);
        put_u32(&mut buf, self.catalog_first);
        put_u64(&mut buf, self.catalog_len);
        put_len(&mut buf, free.len());
        for &pid in free {
            put_u32(&mut buf, pid);
        }
        buf.resize(PAGE_SIZE, 0);
        buf
    }

    /// Decode a header page of version 1 or 2: the header state, the
    /// free list and the version.
    pub(crate) fn decode(buf: &[u8]) -> Result<(Meta, Vec<PageId>, u16)> {
        let mut r = Reader::new("header", buf);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(ModelError::Io(
                "not a tmql database file (bad magic)".into(),
            ));
        }
        let version = r.u16()?;
        if !(1..=VERSION).contains(&version) {
            return Err(ModelError::Io(format!(
                "unsupported database format version {version} (this build reads 1 to {VERSION})"
            )));
        }
        let page_size = r.u32()?;
        if page_size as usize != PAGE_SIZE {
            return Err(ModelError::Io(format!(
                "database page size {page_size} does not match this build's {PAGE_SIZE}"
            )));
        }
        let meta = Meta {
            next_page: r.u32()?,
            catalog_first: r.u32()?,
            catalog_len: r.u64()?,
        };
        // At most `FREE_LIST_CAP` ids fit the rest of the page, and a
        // header that claims more is refused.
        Ok((meta, r.counted(4, Reader::u32)?, version))
    }
}

/// The begin-of-transaction snapshot a rollback restores.
#[derive(Debug)]
struct TxnSnapshot {
    meta: Meta,
    free: Vec<PageId>,
}

/// Header state: the allocation watermark plus the in-memory free list
/// and the transaction bookkeeping around them. Mutated only by writers
/// (serialized by the store's write lock).
#[derive(Debug)]
struct MetaState {
    meta: Meta,
    /// Pages reusable now: free in the checkpointed on-disk state.
    free: Vec<PageId>,
    /// Pages freed by WAL-committed transactions; they become reusable
    /// only at the next checkpoint (see the module's durability rules).
    pending_free: Vec<PageId>,
    /// Pages allocated (and therefore written) since the last commit —
    /// what the next commit logs to the WAL, and what a rollback
    /// discards.
    txn_pages: Vec<PageId>,
    /// Present while an explicit transaction is open.
    snapshot: Option<TxnSnapshot>,
    /// The file's header is version 1: an older build may still open the
    /// file, and would misread the frames this build writes. The next
    /// commit therefore checkpoints before it logs anything, which
    /// rewrites the header as version 2.
    v1_header: bool,
}

impl MetaState {
    /// Allocate one page: reuse the free list before growing the file.
    fn alloc(&mut self) -> PageId {
        let pid = if let Some(pid) = self.free.pop() {
            pid
        } else {
            let pid = self.meta.next_page;
            self.meta.next_page += 1;
            pid
        };
        self.txn_pages.push(pid);
        pid
    }
}

// ---------------------------------------------------------------------------
// Extents
// ---------------------------------------------------------------------------

/// The on-disk footprint of one table: its data pages in scan order, each
/// with its row count (overflow chains hang off individual slots and are
/// not listed here).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct TableExtent {
    /// `(page id, rows in page)` in scan order.
    pub pages: Vec<(PageId, u16)>,
    /// Total rows across all pages.
    pub rows: u64,
}

impl TableExtent {
    /// The extent's data page ids in scan order.
    pub(crate) fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().map(|(p, _)| *p)
    }

    /// Number of data pages.
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// In-progress table write: sealed pages plus the page being filled
/// (built in a local buffer, installed into the pool when sealed).
#[derive(Debug, Default)]
struct TableBuild<'l> {
    /// The table's column labels, which its rows are framed against.
    labels: &'l [Arc<str>],
    pages: Vec<(PageId, u16)>,
    /// The id of the page being filled, if one is open; its bytes are
    /// `buf`, which every page of the build reuses, as every row does
    /// `row` for its frame.
    cur: Option<PageId>,
    buf: Vec<u8>,
    row: Vec<u8>,
    rows_in_cur: u16,
    rows: u64,
}

// ---------------------------------------------------------------------------
// The thread-safe store
// ---------------------------------------------------------------------------

/// A shared handle to one paged database: the file, its buffer pool, its
/// write-ahead log, and its header state. Cloned freely via `Arc` —
/// every disk-backed [`crate::Table`] of a database holds one. Reads are
/// concurrent; writes serialize on an internal write lock (see the
/// module docs).
#[derive(Debug)]
pub(crate) struct PagedStore {
    file: PagedFile,
    pool: BufferPool,
    state: Mutex<MetaState>,
    /// Serializes writers (`write_table` / `write_catalog`); readers never
    /// take it. Also what makes pool installs/flushes single-threaded.
    write_lock: Mutex<()>,
    wal: Mutex<Wal>,
    /// WAL size past which a commit checkpoints.
    checkpoint_bytes: AtomicU64,
    /// Checkpoints taken since this store was opened.
    checkpoints: AtomicU64,
    /// What recovery found when this store was opened.
    recovery: RecoveryReport,
    /// Where commit, fsync and checkpoint latencies are recorded, once a
    /// registry asked for them.
    latencies: OnceLock<Latencies>,
}

/// The write path's latency histograms, in microseconds.
#[derive(Debug)]
struct Latencies {
    commit: Histogram,
    wal_fsync: Histogram,
    checkpoint: Histogram,
}

/// Upper bucket bounds of the write path's latency histograms (µs).
const LATENCY_BOUNDS_MICROS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000,
];

impl PagedStore {
    /// Create a fresh database file (and an empty write-ahead log,
    /// truncating any stale sidecar from a previous database at the
    /// same path).
    pub fn create(path: impl AsRef<Path>, pool_pages: usize) -> Result<Arc<PagedStore>> {
        let path = path.as_ref();
        let file = PagedFile::create(path)?;
        let meta = Meta {
            next_page: 1,
            catalog_first: NO_PAGE,
            catalog_len: 0,
        };
        file.write_page(0, &meta.encode(&[]))?;
        file.sync()?;
        let mut wal = Wal::open(&Wal::path_for(path))?;
        wal.clear()?;
        let recovery = RecoveryReport::default();
        let store = PagedStore::assemble(file, pool_pages, meta, vec![], vec![], wal, recovery);
        Ok(store)
    }

    /// Open an existing database file without touching its catalog:
    /// scan the WAL, replay every committed transaction's page images,
    /// adopt the last commit's header state, and checkpoint (truncating
    /// the log) unless it was empty.
    fn open_store(path: &Path, pool_pages: usize) -> Result<Arc<PagedStore>> {
        let file = PagedFile::open(path)?;
        let wal_path = Wal::path_for(path);
        let scan = Wal::scan(&wal_path)?;
        let mut buf = vec![0u8; PAGE_SIZE];
        let header = file
            .read_page(0, &mut buf)
            .and_then(|()| Meta::decode(&buf));
        // The WAL's last commit is always at least as new as the header
        // (checkpoints start the log's next generation only after the
        // header is synced),
        // so prefer it — which also recovers from a torn header write,
        // as long as at least one commit survives in the log.
        // A version 1 header is rewritten by the first checkpoint, below
        // when the log is not empty; a torn one is rewritten there too.
        let v1_header = matches!(header, Ok((_, _, 1)));
        let (meta, free) = match (header, scan.txns.last()) {
            (_, Some(last)) => (
                Meta {
                    next_page: last.commit.next_page,
                    catalog_first: last.commit.catalog_first,
                    catalog_len: last.commit.catalog_len,
                },
                last.commit.free.clone(),
            ),
            (Ok((meta, free, _)), None) => (meta, free),
            (Err(e), None) => return Err(e),
        };
        let pending_free: Vec<PageId> = scan
            .txns
            .iter()
            .flat_map(|t| t.commit.freed.iter().copied())
            .collect();
        for txn in &scan.txns {
            for (pid, image) in &txn.pages {
                file.write_page(*pid, image)?;
            }
        }
        let wal = Wal::open(&wal_path)?;
        let recovery = RecoveryReport {
            replayed_txns: scan.txns.len(),
            discarded_records: scan.discarded_records,
            discarded_bytes: scan.discarded_bytes,
        };
        let store = PagedStore::assemble(file, pool_pages, meta, free, pending_free, wal, recovery);
        store.state().v1_header = v1_header;
        // Make the replay durable and empty the log (discarding any torn
        // tail with it) before anything is appended — also when the scan
        // found nothing: past the marker of a log a crash left may lie
        // bytes of its own epoch, so it is truncated, not recycled.
        // Idempotent: a crash anywhere in here just replays again on the
        // next open. An empty log has nothing to checkpoint.
        store.checkpoint()?;
        Ok(store)
    }

    /// The store over an opened file and log, with its header state —
    /// the header, the pages free now and those freed by logged commits —
    /// and what recovery found. No I/O.
    fn assemble(
        file: PagedFile,
        pool_pages: usize,
        meta: Meta,
        free: Vec<PageId>,
        pending_free: Vec<PageId>,
        wal: Wal,
        recovery: RecoveryReport,
    ) -> Arc<PagedStore> {
        Arc::new(PagedStore {
            file,
            pool: BufferPool::new(pool_pages),
            state: Mutex::new(MetaState {
                meta,
                free,
                pending_free,
                txn_pages: Vec::new(),
                snapshot: None,
                v1_header: false,
            }),
            write_lock: Mutex::new(()),
            wal: Mutex::new(wal),
            checkpoint_bytes: AtomicU64::new(checkpoint_bytes_from_env()),
            checkpoints: AtomicU64::new(0),
            recovery,
            latencies: OnceLock::new(),
        })
    }

    /// Open an existing database file and decode its persisted catalog.
    pub fn open(
        path: impl AsRef<Path>,
        pool_pages: usize,
    ) -> Result<(Arc<PagedStore>, CatalogImage)> {
        let store = PagedStore::open_store(path.as_ref(), pool_pages)?;
        let image = match store.read_catalog()? {
            Some(blob) => decode_catalog(&blob)?,
            None => CatalogImage::default(),
        };
        Ok((store, image))
    }

    fn state(&self) -> MutexGuard<'_, MetaState> {
        // A panic while holding the lock leaves no torn in-memory state we
        // could not keep using (the WAL commit protocol guards the file),
        // so recover from poisoning instead of propagating it.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_lock(&self) -> MutexGuard<'_, ()> {
        self.write_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wal(&self) -> MutexGuard<'_, Wal> {
        self.wal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn alloc(&self) -> PageId {
        self.state().alloc()
    }

    // -- transactions --------------------------------------------------------

    /// Start an explicit transaction: snapshot the header state so a
    /// rollback can restore it. Commit is [`PagedStore::write_catalog`],
    /// which clears the snapshot.
    pub(crate) fn begin_txn(&self) {
        let mut st = self.state();
        let snap = TxnSnapshot {
            meta: st.meta,
            free: st.free.clone(),
        };
        st.snapshot = Some(snap);
    }

    /// Abandon everything written since [`PagedStore::begin_txn`] (or
    /// since the last commit, for an auto-commit statement that failed):
    /// restore the header snapshot and drop the written pages from the
    /// pool so their frames never reach the file as live data.
    pub(crate) fn rollback_txn(&self) {
        let pages = {
            let mut st = self.state();
            if let Some(snap) = st.snapshot.take() {
                st.meta = snap.meta;
                st.free = snap.free;
            }
            std::mem::take(&mut st.txn_pages)
        };
        self.pool.discard(pages.into_iter());
    }

    /// Whether an explicit transaction snapshot is open.
    pub(crate) fn txn_open(&self) -> bool {
        self.state().snapshot.is_some()
    }

    // -- writing ------------------------------------------------------------

    /// Seal the page being filled (if any) and open a fresh one.
    fn next_data_page(&self, build: &mut TableBuild) -> Result<()> {
        self.seal_data_page(build)?;
        build.buf.clear();
        build.buf.resize(PAGE_SIZE, 0);
        let form = match writing_v1() {
            true => page::FORM_RECORD,
            false => page::FORM_FRAME,
        };
        page::init_data(&mut build.buf, form);
        build.cur = Some(self.alloc());
        Ok(())
    }

    fn seal_data_page(&self, build: &mut TableBuild) -> Result<()> {
        if let Some(pid) = build.cur.take() {
            self.pool.install(pid, &build.buf, &self.file)?;
            build.pages.push((pid, build.rows_in_cur));
            build.rows_in_cur = 0;
        }
        Ok(())
    }

    /// Append one row, framed against the table's labels, to an
    /// in-progress table build.
    fn append_row(&self, build: &mut TableBuild, rec: &Record) -> Result<()> {
        build.row.clear();
        match writing_v1() {
            true => build.row.extend(encode_record(rec)),
            false => encode_frame(&mut build.row, rec, build.labels),
        }
        let len = build.row.len();
        if len <= page::MAX_INLINE {
            if build.cur.is_none() || !page::fits_inline(&build.buf, len) {
                self.next_data_page(build)?;
            }
            page::push_inline(&mut build.buf, &build.row);
        } else {
            // Oversized record: spill its bytes into an overflow chain,
            // then reference the chain from the data page.
            let total = u32::try_from(len).map_err(|_| {
                ModelError::Io(format!(
                    "row too large: one record encodes to {len} bytes (max {})",
                    u32::MAX
                ))
            })?;
            let first = self.write_chain(&build.row)?;
            if build.cur.is_none() || !page::fits_overflow_ref(&build.buf) {
                self.next_data_page(build)?;
            }
            page::push_overflow_ref(&mut build.buf, first, total);
        }
        build.rows_in_cur += 1;
        build.rows += 1;
        Ok(())
    }

    /// Write a whole table, its rows framed against its column `labels`
    /// (which reading it back takes again), and return its extent.
    pub fn write_table(&self, rows: &[Record], labels: &[Arc<str>]) -> Result<TableExtent> {
        let _w = self.write_lock();
        let mut build = TableBuild {
            labels,
            ..TableBuild::default()
        };
        for rec in rows {
            self.append_row(&mut build, rec)?;
        }
        let rows = build.rows;
        self.seal_data_page(&mut build)?;
        Ok(TableExtent {
            pages: build.pages,
            rows,
        })
    }

    // -- reading ------------------------------------------------------------

    /// Write `bytes` as a chain of overflow pages and return its head
    /// ([`NO_PAGE`] for no bytes). The pages are allocated first, in chain
    /// order, then installed through the pool.
    fn write_chain(&self, bytes: &[u8]) -> Result<PageId> {
        let chunks = bytes.chunks(OVF_CAPACITY);
        let ids: Vec<PageId> = chunks.clone().map(|_| self.alloc()).collect();
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        for (i, chunk) in chunks.enumerate() {
            let next = ids.get(i + 1).copied().unwrap_or(NO_PAGE);
            page::init_overflow(&mut buf, next, chunk);
            self.pool.install(ids[i], &buf, &self.file)?;
        }
        Ok(ids.first().copied().unwrap_or(NO_PAGE))
    }

    /// The one walk over an overflow chain: show `visit` each page's id
    /// and chunk, from `first` to the terminator. `total` is the byte
    /// length its owner (a slot, an index image, the header) claims for
    /// it, and the walk trusts nothing else: a claim the allocated pages
    /// could not hold, a chain with more pages than `total` bytes need
    /// (which covers every cycle, zero-length chunks included) and a
    /// chain whose chunks do not add up to `total` are all errors.
    fn walk_chain(
        &self,
        first: PageId,
        total: u64,
        mut visit: impl FnMut(PageId, &[u8]),
    ) -> Result<()> {
        let corrupt =
            |what: String| ModelError::Io(format!("corrupted page: overflow chain {what}"));
        let allocated = self.state().meta.next_page as u64 * OVF_CAPACITY as u64;
        if total > allocated {
            return Err(corrupt(format!(
                "claims {total} bytes, the file's pages hold {allocated}"
            )));
        }
        let mut pages_left = total / OVF_CAPACITY as u64 + 2;
        let mut seen = 0u64;
        let mut pid = first;
        while pid != NO_PAGE {
            if seen > total || pages_left == 0 {
                return Err(corrupt("too long".into()));
            }
            pages_left -= 1;
            let g = self.pool.read(pid, &self.file)?;
            let chunk = page::ovf_data(&g)?;
            seen += chunk.len() as u64;
            visit(pid, chunk);
            pid = page::ovf_next(&g)?;
        }
        if seen != total {
            return Err(corrupt(format!("holds {seen} bytes, expected {total}")));
        }
        Ok(())
    }

    /// Assemble the full bytes of an overflow chain starting at `first`.
    /// The buffer grows with the bytes found, never with the bytes claimed.
    fn read_chain(&self, first: PageId, total: u64) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.walk_chain(first, total, |_, chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// The page ids of an overflow chain — the freeing side's enumeration.
    fn chain_pages(&self, first: PageId, total: u64, out: &mut Vec<PageId>) -> Result<()> {
        self.walk_chain(first, total, |pid, _| out.push(pid))
    }

    /// Read up to `n` decoded rows starting at row offset `start` of a
    /// table with column `labels`. Fully concurrent: statements on other
    /// threads may read the same extent at the same time.
    pub(crate) fn read_rows(
        &self,
        extent: &TableExtent,
        labels: &[Arc<str>],
        start: usize,
        n: usize,
    ) -> Result<Vec<Record>> {
        let cap = n.min(extent.rows as usize);
        Ok(self
            .read_runs(extent, labels, [(start, n)], cap, |_| true)?
            .0)
    }

    /// The one page-read path: visit every row in `runs` — ascending,
    /// disjoint `(first row, length)` ranges — and decode those whose
    /// stored bytes `admit` lets through. Returns the decoded rows (in a
    /// vector of capacity `cap`) and how many rows were visited (fewer
    /// than asked when a run passes the end of the extent). One cursor
    /// walks the extent's pages across all runs, so an index probe's
    /// far-apart positions cost one pass, and the runs that fall in one
    /// page share one latch of it.
    ///
    /// A row is a whole record or a frame as its page's row form says; a
    /// frame is decoded against `labels`, the table's columns, whose `Arc`s
    /// the rows then share. A latched page is checked once
    /// ([`PagedStore::latch_data`]) and its rows are then walked in one
    /// loop over its checked view. An inline row is visited **in place**,
    /// as a slice of its latched page: nothing is copied out, and a row
    /// `admit` turns down is never allocated; decoding one it lets through
    /// is the call out of the loop. An overflow-chained row is visited as
    /// its assembled chain, read with the data page's latch released (a
    /// chain faults other pages, and a thread holds one pin at a time);
    /// the page is latched again for the rows after it.
    pub(crate) fn read_runs(
        &self,
        extent: &TableExtent,
        labels: &[Arc<str>],
        runs: impl IntoIterator<Item = (usize, usize)>,
        cap: usize,
        mut admit: impl FnMut(StoredRow<'_>) -> bool,
    ) -> Result<(Vec<Record>, usize)> {
        let mut out = Vec::with_capacity(cap);
        let mut decoder = RecordDecoder::default();
        let mut runs = (runs.into_iter())
            .filter(|&(_, len)| len > 0)
            .map(|(start, len)| (start, start.saturating_add(len)));
        // What is left of the run under the cursor: `(next row, end)`.
        let mut pending = runs.next();
        let (mut base, mut visited) = (0usize, 0usize);
        for &(pid, rows_in_page) in &extent.pages {
            let next = base + rows_in_page as usize;
            while pending.is_some_and(|(row, _)| row < next) {
                let chained = self.latch_data(pid, rows_in_page, |page| {
                    let frames = page.holds_frames();
                    while let Some((row, end)) = pending.filter(|&(row, _)| row < next) {
                        if row < base {
                            return Err(ModelError::Io("row positions must ascend".into()));
                        }
                        let stop = end.min(next);
                        // Past the last row walked, and the chain it ends at.
                        let (mut walked, mut chain) = (stop, None);
                        for at in row..stop {
                            match page.slot(at - base)? {
                                page::SlotRef::Inline(bytes) => {
                                    let stored = StoredRow::of(frames, bytes);
                                    if admit(stored) {
                                        out.push(decoder.decode_stored(stored, labels)?);
                                    }
                                }
                                page::SlotRef::Overflow { first, total } => {
                                    (walked, chain) = (at + 1, Some((frames, first, total)));
                                    break;
                                }
                            }
                        }
                        visited += walked - row;
                        pending = match walked < end {
                            true => Some((walked, end)),
                            false => runs.next(),
                        };
                        if chain.is_some() {
                            return Ok(chain);
                        }
                    }
                    Ok(None)
                })?;
                if let Some((frames, first, total)) = chained {
                    let chain = self.read_chain(first, total.into())?;
                    let stored = StoredRow::of(frames, &chain);
                    if admit(stored) {
                        out.push(decoder.decode_stored(stored, labels)?);
                    }
                }
            }
            base = next;
        }
        Ok((out, visited))
    }

    /// Latch data page `pid` of an extent that says it holds `rows` rows,
    /// check it once — its kind, row form and slot directory
    /// ([`page::DataPage::check`]) and its slot count against the extent —
    /// and show `walk` the checked view. The latch is held until `walk`
    /// returns.
    fn latch_data<R>(
        &self,
        pid: PageId,
        rows: u16,
        walk: impl FnOnce(page::DataPage<'_>) -> Result<R>,
    ) -> Result<R> {
        let g = self.pool.read(pid, &self.file)?;
        let page = page::DataPage::check(&g)?;
        if page.slots() != rows as usize {
            return Err(ModelError::Io(format!(
                "corrupted page: data page {pid} does not match the catalog extent"
            )));
        }
        walk(page)
    }

    /// Every page an extent owns: its data pages plus all overflow chains
    /// hanging off their slots. This is what a replace frees. Each data
    /// page is read as a scan reads it ([`PagedStore::latch_data`]), so a
    /// page that disagrees with the extent fails the enumeration instead
    /// of freeing what its bytes claim.
    pub(crate) fn extent_pages(&self, extent: &TableExtent) -> Result<Vec<PageId>> {
        let mut out: Vec<PageId> = extent.page_ids().collect();
        let mut chains = Vec::new();
        for &(pid, rows) in &extent.pages {
            self.latch_data(pid, rows, |page| {
                for i in 0..page.slots() {
                    if let page::SlotRef::Overflow { first, total } = page.slot(i)? {
                        chains.push((first, total));
                    }
                }
                Ok(())
            })?;
        }
        for (first, total) in chains {
            self.chain_pages(first, total.into(), &mut out)?;
        }
        Ok(out)
    }

    // -- standalone blobs (index chains) ------------------------------------

    /// Write a standalone blob as an overflow-page chain and return its
    /// head page and byte length. **Not a commit**: the chain becomes
    /// durable only at the next catalog commit, whose WAL records carry
    /// the chain's pages and the moved watermark. A crash (or rollback)
    /// before that commit leaves the old catalog intact and the
    /// allocation is reclaimed — which is what makes index writes
    /// crash-safe.
    pub fn write_blob(&self, blob: &[u8]) -> Result<(PageId, u64)> {
        let _w = self.write_lock();
        Ok((self.write_chain(blob)?, blob.len() as u64))
    }

    /// Read back a blob written by [`PagedStore::write_blob`].
    pub(crate) fn read_blob(&self, first: PageId, len: u64) -> Result<Vec<u8>> {
        self.read_chain(first, len)
    }

    /// The page ids of a blob chain — what freeing it hands back to the
    /// free list at a commit.
    pub(crate) fn blob_pages(&self, first: PageId, len: u64) -> Result<Vec<PageId>> {
        let mut out = Vec::new();
        self.chain_pages(first, len, &mut out)?;
        Ok(out)
    }

    // -- committing ---------------------------------------------------------

    /// Persist a new catalog blob — the transaction commit. Every page
    /// written since the last commit is appended to the WAL as a full
    /// image, followed by a commit record with the resulting header
    /// state; the WAL fsync is the durability point. `freed` pages —
    /// plus the superseded catalog chain — are quarantined until the
    /// next checkpoint (see the module's durability rules).
    ///
    /// Two states make a commit checkpoint before it logs anything, and
    /// fail if that checkpoint does: a log whose last write or sync failed
    /// takes no more batches in its generation ([`Wal::broken`]), and a
    /// version 1 header must not stay in front of the frames this build
    /// writes ([`MetaState::v1_header`]).
    pub(crate) fn write_catalog(&self, blob: &[u8], mut freed: Vec<PageId>) -> Result<()> {
        let _w = self.write_lock();
        let started = Instant::now();
        let broken = self.wal().broken();
        if broken || self.state().v1_header {
            self.checkpoint_now()?;
        }
        // The chain being superseded is freed by this commit too.
        let (old_first, old_len) = {
            let st = self.state();
            (st.meta.catalog_first, st.meta.catalog_len)
        };
        self.chain_pages(old_first, old_len, &mut freed)?;
        // Write the new chain. Allocation draws on the *current* free
        // list (pages free in the checkpointed state) — never on `freed`
        // or the pending list, which recovery may still need intact.
        let first = self.write_chain(blob)?;
        freed.sort_unstable();
        freed.dedup();
        // Log every page this transaction wrote — minus pages it also
        // freed (created and dropped within the transaction), which no
        // committed state references — then the commit record itself.
        let (to_log, commit) = {
            let st = self.state();
            let mut pages = st.txn_pages.clone();
            pages.sort_unstable();
            pages.dedup();
            pages.retain(|p| freed.binary_search(p).is_err());
            let commit = CommitRecord {
                next_page: st.meta.next_page,
                catalog_first: first,
                catalog_len: blob.len() as u64,
                free: st.free.clone(),
                freed: freed.clone(),
            };
            (pages, commit)
        };
        {
            let mut wal = self.wal();
            let mut batch = wal.batch();
            for &pid in &to_log {
                batch.page(pid, &self.pool.read(pid, &self.file)?);
            }
            batch.commit(&commit)?;
            // The durability point: after this fsync the transaction
            // survives any crash, before it none of it does.
            let appended = Instant::now();
            wal.sync()?;
            self.observe(|l| &l.wal_fsync, appended);
        }
        {
            let mut st = self.state();
            st.meta.catalog_first = first;
            st.meta.catalog_len = blob.len() as u64;
            st.pending_free.extend(freed.iter().copied());
            st.txn_pages.clear();
            st.snapshot = None;
        }
        // Freed pages are dead in every state a recovery can produce
        // from here on; drop any resident copies so stale frames never
        // shadow later contents.
        self.pool.discard(freed.into_iter());
        self.observe(|l| &l.commit, started);
        // The commit is durable in the log; a checkpoint failure must
        // not un-commit it, so it is swallowed here and the checkpoint
        // retried at the next commit or at close.
        let _ = self.maybe_checkpoint_locked();
        Ok(())
    }

    /// Read the current catalog blob ([`None`] when the database is empty).
    fn read_catalog(&self) -> Result<Option<Vec<u8>>> {
        let (first, len) = {
            let st = self.state();
            (st.meta.catalog_first, st.meta.catalog_len)
        };
        if first == NO_PAGE {
            return Ok(None);
        }
        self.read_chain(first, len).map(Some)
    }

    // -- checkpointing -------------------------------------------------------

    /// Checkpoint: flush all pages, sync the file, rewrite the header to
    /// the committed state (folding quarantined freed pages into the
    /// free list), sync again, then start the WAL's next generation.
    /// After it, the database file alone describes the last committed
    /// state.
    pub fn checkpoint(&self) -> Result<()> {
        let _w = self.write_lock();
        self.checkpoint_locked()
    }

    fn checkpoint_locked(&self) -> Result<()> {
        let idle = { !self.wal().needs_checkpoint() } && { self.state().pending_free.is_empty() };
        if idle {
            return Ok(());
        }
        self.checkpoint_now()
    }

    /// [`PagedStore::checkpoint`] whether or not anything is due; the
    /// header it writes is this build's version.
    fn checkpoint_now(&self) -> Result<()> {
        let started = Instant::now();
        self.pool.flush(&self.file)?;
        self.file.sync()?;
        {
            let mut st = self.state();
            let pending = std::mem::take(&mut st.pending_free);
            st.free.extend(pending);
            st.free.sort_unstable();
            st.free.dedup();
            if st.free.len() > FREE_LIST_CAP {
                // Minimal free list: overflow leaks until the database is
                // copied, exactly like the pre-free-list behavior.
                st.free.truncate(FREE_LIST_CAP);
            }
            self.file.write_page(0, &st.meta.encode(&st.free))?;
            st.v1_header = false;
        }
        self.file.sync()?;
        self.wal().reset()?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.observe(|l| &l.checkpoint, started);
        Ok(())
    }

    fn maybe_checkpoint_locked(&self) -> Result<()> {
        if self.wal().bytes() >= self.checkpoint_bytes.load(Ordering::Relaxed) {
            self.checkpoint_locked()
        } else {
            Ok(())
        }
    }

    /// Override the WAL-size checkpoint threshold for this store
    /// (`1` checkpoints after every commit, `u64::MAX` never
    /// auto-checkpoints — close still does).
    pub(crate) fn set_checkpoint_bytes(&self, bytes: u64) {
        self.checkpoint_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Snapshot of WAL activity since this store was opened, with the
    /// store's checkpoint count folded in.
    pub fn wal_activity(&self) -> WalActivity {
        let mut a = self.wal().activity();
        a.checkpoints_total = self.checkpoints.load(Ordering::Relaxed);
        a
    }

    /// `(reusable free pages, checkpoint-quarantined freed pages)` —
    /// the allocator free list and the `pending_free` quarantine that
    /// the next checkpoint folds into it.
    pub fn free_list_len(&self) -> (usize, usize) {
        let st = self.state();
        (st.free.len(), st.pending_free.len())
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    // -- introspection ------------------------------------------------------

    /// Record the write path's latencies into `reg` from now on:
    /// `tmql_commit_micros` (a catalog commit: new catalog chain, WAL
    /// batch, fsync), `tmql_wal_fsync_micros` (the fsync alone) and
    /// `tmql_checkpoint_micros`. Only the first registry to ask is served.
    pub(crate) fn register_latencies(&self, reg: &MetricsRegistry) {
        self.latencies.get_or_init(|| {
            let histogram = |name, help| reg.histogram(name, help, LATENCY_BOUNDS_MICROS);
            Latencies {
                commit: histogram(
                    "tmql_commit_micros",
                    "Catalog commit latency in microseconds (WAL batch and fsync included)",
                ),
                wal_fsync: histogram("tmql_wal_fsync_micros", "WAL fsync latency in microseconds"),
                checkpoint: histogram(
                    "tmql_checkpoint_micros",
                    "Checkpoint latency in microseconds (flush, two file syncs, WAL reset)",
                ),
            }
        });
    }

    /// Record the time since `started` in one of the latency histograms,
    /// if a registry asked for them.
    fn observe(&self, which: impl Fn(&Latencies) -> &Histogram, started: Instant) {
        if let Some(l) = self.latencies.get() {
            which(l).observe(started.elapsed().as_micros() as u64);
        }
    }

    /// Cumulative buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Buffer-pool capacity in pages.
    pub fn pool_pages(&self) -> usize {
        self.pool.capacity()
    }

    /// How many of an extent's data pages — `pages`, sorted ascending and
    /// distinct — are currently resident: the cost model's input for
    /// pricing a cold vs. warm scan. `memo` is the caller's per-extent
    /// memory of the last answer (see [`BufferPool::resident_among`]).
    pub(crate) fn resident_pages(
        &self,
        pages: &[PageId],
        memo: &mut Option<(u64, usize)>,
    ) -> usize {
        self.pool.resident_among(pages, memo)
    }
}

impl Drop for PagedStore {
    /// Best-effort clean shutdown: roll back any transaction left open
    /// (dropping a database mid-transaction aborts it), then checkpoint
    /// and, only once that succeeded, empty the WAL, so the next open
    /// needs no replay and no generation stays on disk. Errors are
    /// ignored — a failed close is exactly a crash, and recovery covers
    /// crashes.
    fn drop(&mut self) {
        if self.txn_open() {
            self.rollback_txn();
        }
        let _w = self.write_lock();
        if self.checkpoint_locked().is_ok() {
            let _ = self.wal().clear();
        }
    }
}

/// What the tests drive and observe of a store.
#[cfg(test)]
impl PagedStore {
    /// Persist a catalog image (the commit point of register/replace).
    pub(crate) fn save_catalog(&self, image: &CatalogImage) -> Result<()> {
        self.write_catalog(&super::image::encode_catalog(image), Vec::new())
    }

    /// Total outstanding page pins.
    pub(crate) fn pinned_pages(&self) -> u64 {
        self.pool.pinned_frames()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{IoFailpoint, IoOp};
    use tmql_model::Value;

    fn scratch(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "tmql-store-test-{}-{name}.tmdb",
            std::process::id()
        ));
        clean(&p);
        p
    }

    /// Remove a scratch database and its WAL sidecar.
    fn clean(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(Wal::path_for(path));
    }

    /// The labels of [`int_rows`], as a table's columns.
    fn ab() -> Vec<Arc<str>> {
        vec![Arc::from("a"), Arc::from("b")]
    }

    /// How many of an extent's rows live in overflow chains.
    fn chained(store: &PagedStore, extent: &TableExtent) -> usize {
        let mut n = 0;
        for &(pid, rows) in &extent.pages {
            store
                .latch_data(pid, rows, |page| {
                    for i in 0..page.slots() {
                        n += matches!(page.slot(i), Ok(page::SlotRef::Overflow { .. })) as usize;
                    }
                    Ok(())
                })
                .unwrap();
        }
        n
    }

    fn int_rows(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new([
                    ("a".to_string(), Value::Int(i)),
                    ("b".to_string(), Value::Int(i % 7)),
                ])
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn write_and_read_rows_across_pages() {
        let path = scratch("rw");
        let store = PagedStore::create(&path, 4).unwrap();
        let rows = int_rows(2000);
        let extent = store.write_table(&rows, &ab()).unwrap();
        assert_eq!(extent.rows, 2000);
        assert!(extent.page_count() > 1, "2000 rows span multiple pages");
        // Sequential cursor reads reassemble the exact row sequence.
        let mut got = Vec::new();
        let mut pos = 0;
        loop {
            let batch = store.read_rows(&extent, &ab(), pos, 300).unwrap();
            if batch.is_empty() {
                break;
            }
            pos += batch.len();
            got.extend(batch);
        }
        assert_eq!(got, rows);
        // Random-access batch in the middle.
        assert_eq!(
            store.read_rows(&extent, &ab(), 1500, 5).unwrap(),
            rows[1500..1505]
        );
        clean(&path);
    }

    #[test]
    fn one_cursor_visits_far_apart_runs_in_one_pass() {
        let path = scratch("runs");
        let store = PagedStore::create(&path, 4).unwrap();
        let mut rows = int_rows(2000);
        // One chained row among the inline ones, inside a visited run.
        let big = Value::Str(std::sync::Arc::from("x".repeat(2 * PAGE_SIZE)));
        rows[501] =
            Record::new([("a".to_string(), big), ("b".to_string(), Value::Int(0))]).unwrap();
        let extent = store.write_table(&rows, &ab()).unwrap();
        assert_eq!(chained(&store, &extent), 1, "row 501 is chained");
        let read = |runs: &[(usize, usize)]| {
            store.read_runs(&extent, &ab(), runs.iter().copied(), runs.len(), |_| true)
        };
        // Two runs in one page, one spanning pages and a chain, one that
        // runs off the end of the extent, one wholly past it.
        let (got, visited) = read(&[(3, 2), (7, 1), (499, 4), (1998, 5), (5000, 1)]).unwrap();
        let want: Vec<Record> = [3, 4, 7, 499, 500, 501, 502, 1998, 1999]
            .iter()
            .map(|&i| rows[i].clone())
            .collect();
        assert_eq!(got, want);
        assert_eq!(visited, 9, "rows visited, not rows asked for");
        assert_eq!(read(&[]).unwrap().1, 0);
        // The cursor only moves forward.
        assert!(matches!(read(&[(1500, 1), (3, 1)]), Err(ModelError::Io(_))));
        assert_eq!(store.pinned_pages(), 0, "every latch was released");
        clean(&path);
    }

    #[test]
    fn the_benchmarks_keyed_table_takes_94_pages() {
        // `disk_cold`'s `X(n, b)` at seed 42: 65 536 rows of two integers,
        // `b` cycling through 256 keys. A row is a frame of two varints
        // (8 bytes at most) and its slot (4); as whole records with 8-byte
        // integers, it took 289 pages.
        let path = scratch("density");
        let store = PagedStore::create(&path, 8).unwrap();
        let labels = vec![Arc::from("n"), Arc::from("b")];
        let rows: Vec<Record> = (0..65_536i64)
            .map(|n| {
                let values = [Value::Int(n), Value::Int((n + 42) % 256)];
                Record::new(labels.iter().cloned().zip(values)).unwrap()
            })
            .collect();
        let extent = store.write_table(&rows, &labels).unwrap();
        assert_eq!(extent.rows, 65_536);
        assert_eq!(extent.page_count(), 94);
        assert_eq!(
            store.read_rows(&extent, &labels, 65_000, 536).unwrap(),
            rows[65_000..]
        );
        drop(store);
        clean(&path);
    }

    #[test]
    fn oversized_records_take_overflow_chains() {
        let path = scratch("ovf");
        let store = PagedStore::create(&path, 4).unwrap();
        // A record whose encoding far exceeds one page.
        let big = Record::new([(
            "s".to_string(),
            Value::Str(std::sync::Arc::from("x".repeat(3 * PAGE_SIZE))),
        )])
        .unwrap();
        let small = Record::new([("s".to_string(), Value::str("tiny"))]).unwrap();
        let rows = vec![small.clone(), big.clone(), small.clone()];
        let s = [Arc::from("s")];
        let extent = store.write_table(&rows, &s).unwrap();
        assert_eq!(chained(&store, &extent), 1);
        assert_eq!(store.read_rows(&extent, &s, 0, 10).unwrap(), rows);
        clean(&path);
    }

    #[test]
    fn a_replace_frees_nothing_from_a_page_that_disagrees_with_its_extent() {
        let path = scratch("extent-check");
        let table = |rows: &[&str]| {
            let mut t = crate::Table::new("R", vec![("s".into(), tmql_model::Ty::Str)]);
            for s in rows {
                t.insert_values([Value::str(s)]).unwrap();
            }
            t
        };
        let big = "x".repeat(3 * PAGE_SIZE);
        let mut cat = crate::Catalog::open(&path, 16).unwrap();
        cat.register(table(&["tiny", &big])).unwrap();
        let (store, extent) = cat.table("R").unwrap().disk_parts().unwrap();
        let (store, extent) = (Arc::clone(store), Arc::clone(extent));
        assert_eq!((extent.page_count(), chained(&store, &extent)), (1, 1));
        let freed = store.extent_pages(&extent).unwrap().len();
        assert_eq!(
            freed,
            1 + big.len().div_ceil(OVF_CAPACITY),
            "the page and its chain"
        );
        // The page now counts one slot fewer than the extent: its bytes no
        // longer show the chain hanging off the last slot.
        let (pid, rows) = extent.pages[0];
        let mut image = store.pool.read(pid, &store.file).unwrap().to_vec();
        image[2..4].copy_from_slice(&(rows - 1).to_le_bytes());
        store.pool.install(pid, &image, &store.file).unwrap();
        let before = cat.free_list_len();
        let refused = cat.replace(table(&["new"]));
        assert!(
            matches!(&refused, Err(ModelError::Io(m)) if m.contains("does not match the catalog extent")),
            "{refused:?}"
        );
        assert_eq!(cat.free_list_len(), before, "nothing freed");
        let kept = cat.table("R").unwrap().disk_parts().unwrap().1;
        assert!(Arc::ptr_eq(kept, &extent), "the old table stays");
        drop(cat);
        clean(&path);
    }

    #[test]
    fn catalog_blob_round_trips_through_reopen() {
        let path = scratch("cat");
        {
            let store = PagedStore::create(&path, 4).unwrap();
            store
                .write_catalog(&vec![9u8; 3 * OVF_CAPACITY + 17], Vec::new())
                .unwrap();
        }
        let store = PagedStore::open_store(&path, 4).unwrap();
        let blob = store.read_catalog().unwrap().expect("catalog present");
        assert_eq!(blob.len(), 3 * OVF_CAPACITY + 17);
        assert!(blob.iter().all(|&b| b == 9));
        clean(&path);
    }

    #[test]
    fn commit_survives_a_crash_before_any_checkpoint() {
        // The WAL property in one test: commit, then "kill the process"
        // (a sticky failpoint fails the close-time checkpoint), reopen,
        // and the committed catalog is there — replayed from the log.
        let path = scratch("wal-replay");
        {
            let store = PagedStore::create(&path, 4).unwrap();
            store.set_checkpoint_bytes(u64::MAX);
            store
                .write_catalog(&vec![5u8; 2 * OVF_CAPACITY], Vec::new())
                .unwrap();
            let _fp = IoFailpoint::kill_at(&path, 0); // everything from here fails
            drop(store); // close-time checkpoint dies
        }
        let store = PagedStore::open_store(&path, 4).unwrap();
        assert_eq!(store.recovery().replayed_txns, 1);
        let blob = store.read_catalog().unwrap().expect("catalog replayed");
        assert_eq!(blob, vec![5u8; 2 * OVF_CAPACITY]);
        // Past the marker of a log a crash left may lie bytes of its own
        // epoch: the recovery checkpoint truncates it, never recycles it.
        let log = std::fs::metadata(Wal::path_for(&path)).unwrap().len();
        assert_eq!(log, 0, "a log a crash left is truncated");
        clean(&path);
    }

    #[test]
    fn a_recovery_checkpoint_that_fails_leaves_the_commit_in_the_log() {
        // The open after a crash replays the log and checkpoints. When
        // that checkpoint fails before the header is rewritten — an I/O
        // error, not a crash — the log alone holds the commit, and the
        // half-opened store's close must not empty it before a checkpoint
        // has folded it in. The commit frees no page, so only the log
        // says that a checkpoint is due.
        let path = scratch("failed-recovery");
        let crash = || {
            let store = PagedStore::create(&path, 4).unwrap();
            store.set_checkpoint_bytes(u64::MAX);
            store
                .write_catalog(&vec![6u8; OVF_CAPACITY], Vec::new())
                .unwrap();
            let _fp = IoFailpoint::kill_at(&path, 0);
            drop(store);
        };
        crash();
        // Where the recovery checkpoint's first file sync falls.
        let sync = {
            let fp = IoFailpoint::count(&path);
            drop(PagedStore::open_store(&path, 4).unwrap());
            let log = fp.log();
            log.iter().position(|op| *op == IoOp::FileSync).unwrap() as u64
        };
        clean(&path);
        crash();
        {
            let fp = IoFailpoint::fail_once_at(&path, sync);
            assert!(PagedStore::open_store(&path, 4).is_err());
            assert!(fp.triggered());
        }
        let store = PagedStore::open_store(&path, 4).unwrap();
        let blob = store.read_catalog().unwrap().expect("the commit survived");
        assert_eq!(blob, vec![6u8; OVF_CAPACITY]);
        drop(store);
        assert_eq!(std::fs::metadata(Wal::path_for(&path)).unwrap().len(), 0);
        clean(&path);
    }

    #[test]
    fn a_failed_batch_ends_its_generation_and_its_commit_never_replays() {
        // Commit A; commit B, torn just before its end marker, is reported
        // failed; commit C, one page shorter than B, is torn where B's
        // second frame began. Written where B was and under B's epoch, C's
        // first frame would lead a replay into B's second frame and B's
        // commit record: B, reported failed, would come back. C must
        // checkpoint first, and write into the next generation.
        const PAGE_FRAME: usize = 12 + 1 + 4 + PAGE_SIZE;
        let path = scratch("broken-batch");
        // The sequence up to C's commit, which `fp` watches; then a crash.
        let run = |arm: &dyn Fn() -> IoFailpoint| {
            clean(&path);
            let store = PagedStore::create(&path, 64).unwrap();
            store.set_checkpoint_bytes(u64::MAX);
            store.write_catalog(b"A", Vec::new()).unwrap();
            // B: a data page and its catalog page.
            store.write_table(&int_rows(10), &ab()).unwrap();
            {
                let _tear = IoFailpoint::torn_keeping(&path, 0, |len| len - 12);
                assert!(store.write_catalog(b"B", Vec::new()).is_err());
            }
            store.rollback_txn();
            assert!(store.wal().broken());
            let fp = arm();
            let c = store.write_catalog(b"C", Vec::new());
            drop(store); // with `fp` armed: a crash, if it fired
            (c, fp.log())
        };
        // Where C's log write falls: after a whole checkpoint.
        let (c, log) = run(&|| IoFailpoint::count(&path));
        assert!(c.is_ok());
        let write = log.iter().position(|op| matches!(op, IoOp::WalWrite(_)));
        let write = write.unwrap();
        let ahead = &log[..write];
        assert!(ahead.contains(&IoOp::PageWrite(0)) && ahead.contains(&IoOp::WalReset));
        // Torn there, C fails too; the reopened database is A's.
        let (c, _) = run(&|| IoFailpoint::torn_keeping(&path, write as u64, |_| PAGE_FRAME));
        assert!(c.is_err());
        let store = PagedStore::open_store(&path, 4).unwrap();
        assert_eq!(store.read_catalog().unwrap().as_deref(), Some(&b"A"[..]));
        assert_eq!(store.recovery().replayed_txns, 0);
        drop(store);

        // Until the checkpoint succeeds, commits fail, and none is logged.
        let (c, log) = run(&|| IoFailpoint::fail_once_at(&path, 0));
        assert!(c.is_err());
        assert!(!log.iter().any(|op| matches!(op, IoOp::WalWrite(_))));
        clean(&path);
    }

    #[test]
    fn rollback_restores_watermark_and_free_list() {
        let path = scratch("rollback");
        let store = PagedStore::create(&path, 4).unwrap();
        let before = {
            let st = store.state();
            (st.meta.next_page, st.free.clone())
        };
        store.begin_txn();
        let _ = store.write_table(&int_rows(500), &ab()).unwrap();
        assert!(store.state().meta.next_page > before.0);
        store.rollback_txn();
        let after = {
            let st = store.state();
            (st.meta.next_page, st.free.clone())
        };
        assert_eq!(after, before, "rollback restores the allocation state");
        assert!(store.state().txn_pages.is_empty());
        clean(&path);
    }

    #[test]
    fn cyclic_overflow_chain_errors_instead_of_hanging() {
        // Hand-craft a database whose catalog chain is a self-referential
        // overflow page with a zero-length chunk: the byte count never
        // grows, so only the page bound can stop the walk.
        let path = scratch("cycle");
        {
            let store = PagedStore::create(&path, 4).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            page::init_overflow(&mut buf, 1, b""); // page 1 → page 1, 0 bytes
            store.file.write_page(1, &buf).unwrap();
            let mut st = store.state();
            st.meta.next_page = 2;
            st.meta.catalog_first = 1;
            st.meta.catalog_len = 64;
            store.file.write_page(0, &st.meta.encode(&st.free)).unwrap();
            store.file.sync().unwrap();
        }
        let store = PagedStore::open_store(&path, 4).unwrap();
        let err = store.read_catalog().unwrap_err();
        assert!(matches!(err, ModelError::Io(_)), "{err}");
        clean(&path);
    }

    #[test]
    fn open_rejects_non_database_files() {
        let path = scratch("magic");
        std::fs::write(&path, vec![0u8; 2 * PAGE_SIZE]).unwrap();
        assert!(matches!(
            PagedStore::open_store(&path, 4),
            Err(ModelError::Io(_))
        ));
        clean(&path);
    }

    #[test]
    fn truncated_file_reads_error_not_panic() {
        let path = scratch("trunc");
        let extent;
        {
            let store = PagedStore::create(&path, 4).unwrap();
            extent = store.write_table(&int_rows(1000), &ab()).unwrap();
            store.write_catalog(b"x", Vec::new()).unwrap();
        } // close-time checkpoint flushes + syncs everything
          // Chop the file after the header: every data page is gone.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(PAGE_SIZE as u64).unwrap();
        drop(f);
        let store2 = PagedStore::open_store(&path, 4).unwrap();
        let err = store2.read_rows(&extent, &ab(), 0, 10).unwrap_err();
        assert!(matches!(err, ModelError::Io(_)), "{err}");
        clean(&path);
    }

    #[test]
    fn pool_stats_reflect_scan_temperature() {
        let path = scratch("temp");
        let store = PagedStore::create(&path, 64).unwrap();
        let extent = store.write_table(&int_rows(2000), &ab()).unwrap();
        let before = store.pool_stats();
        let _ = store.read_rows(&extent, &ab(), 0, 2000).unwrap();
        let warm = store.pool_stats();
        assert_eq!(
            warm.misses, before.misses,
            "freshly written pages are resident"
        );
        assert!(warm.hits > before.hits);
        let mut pages: Vec<PageId> = extent.page_ids().collect();
        pages.sort_unstable();
        assert_eq!(store.resident_pages(&pages, &mut None), extent.page_count());
        clean(&path);
    }

    #[test]
    fn free_list_round_trips_through_the_header() {
        let path = scratch("freelist-hdr");
        {
            let store = PagedStore::create(&path, 4).unwrap();
            let extent = store.write_table(&int_rows(500), &ab()).unwrap();
            let freed = store.extent_pages(&extent).unwrap();
            assert!(!freed.is_empty());
            store.write_catalog(b"v2", freed.clone()).unwrap();
            // Freed pages are quarantined until the checkpoint...
            assert!(store.state().free.is_empty());
            store.checkpoint().unwrap();
            // ...and reusable after it.
            assert_eq!(store.state().free.len(), freed.len());
        }
        let store = PagedStore::open_store(&path, 4).unwrap();
        assert!(
            !store.state().free.is_empty(),
            "free list survived the reopen"
        );
        clean(&path);
    }

    #[test]
    fn replaces_reuse_freed_pages_keeping_file_size_bounded() {
        // The PR-5 leak, pinned shut: repeatedly replacing a table (write
        // new extent, then commit freeing the old one) must not grow the
        // file once the double-buffering steady state is reached. Includes
        // an oversized record so overflow chains are freed too. Each
        // iteration checkpoints, since only checkpointed pages recycle.
        let path = scratch("freelist-size");
        let store = PagedStore::create(&path, 8).unwrap();
        let mut rows = int_rows(600);
        rows.push(
            Record::new([(
                "s".to_string(),
                Value::Str(std::sync::Arc::from("y".repeat(2 * PAGE_SIZE))),
            )])
            .unwrap(),
        );
        let mut extent = store.write_table(&rows, &ab()).unwrap();
        store.write_catalog(b"c0", Vec::new()).unwrap();
        store.checkpoint().unwrap();
        let size = |p: &PathBuf| std::fs::metadata(p).unwrap().len();
        let mut settled = 0;
        for i in 0..10 {
            let freed = store.extent_pages(&extent).unwrap();
            extent = store.write_table(&rows, &ab()).unwrap();
            store.write_catalog(b"cx", freed).unwrap();
            store.checkpoint().unwrap();
            if i == 2 {
                settled = size(&path);
            }
        }
        assert_eq!(
            size(&path),
            settled,
            "replaces reuse freed pages instead of growing the file"
        );
        clean(&path);
    }
}
