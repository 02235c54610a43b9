//! The buffer pool: a fixed set of page frames shared **concurrently** by
//! every reader of one database file.
//!
//! Many statements read one database at once, each on its own thread
//! (a thread holds one pin at a time), so the pool is latch-based rather
//! than hidden behind one big mutex:
//!
//! * each frame carries its own reader/writer **latch** (the page data),
//!   an atomic **pin count**, and atomic dirty/referenced bits;
//! * one small mutex protects only the **mapping table** (page id →
//!   frame) and the clock hand — it is held for map lookups and victim
//!   selection, never across I/O;
//! * [`PoolStats`] counters are atomics, updated lock-free.
//!
//! The latch protocol for a page read ([`BufferPool::read`]):
//!
//! 1. **Hit** — under the map lock: pin the frame and mark it referenced.
//!    Release the map lock, then acquire the frame's shared latch. The pin
//!    taken under the map lock is what keeps victim selection away while
//!    the latch is still being acquired. After latching, re-check that the
//!    frame still holds the wanted page (only [`BufferPool::discard`] or a
//!    failed fault can change it) and retry on a mismatch.
//! 2. **Miss** — still under the map lock: sweep the clock for a victim
//!    frame that is unpinned, has spent its second chance, and whose
//!    exclusive latch can be taken without waiting (`try_write`). The old
//!    mapping is removed, the new one published, the dirty bit claimed,
//!    and the frame pinned — all before the map lock is released. The
//!    write-back of the evicted page and the fault-in read then run
//!    **outside** the map lock, with the exclusive latch held, so other
//!    pages stay fully available during the I/O. A thread that hits the
//!    new mapping meanwhile simply blocks on the shared latch until the
//!    fault completes.
//!
//! Dirty pages exist only for *uncommitted* writes ([`BufferPool::install`]),
//! and writers are serialized by the store's write lock, so the dirty bit
//! is only ever set by one thread at a time; eviction claims it under the
//! map lock, which is what keeps [`BufferPool::flush`] (the commit point)
//! from ever pairing a stale dirty bit with a fresh mapping.
//!
//! Guards release the data latch **before** dropping their pin, so a pin
//! count of zero implies no outstanding latch holders.
//!
//! A frame's page buffer is allocated when the frame is first claimed, so
//! a pool pays for the frames it has used, not for its capacity. Victim
//! selection, still under the map lock, takes a frame [`BufferPool::discard`]
//! emptied before one never used, and one never used before evicting:
//! a workload that keeps replacing what it wrote cycles through the same
//! few buffers instead of walking the clock hand across the whole pool.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use tmql_model::{ModelError, Result};

use super::page::{PageId, NO_PAGE, PAGE_SIZE};
use super::store::PagedFile;

/// Cumulative buffer-pool counters (monotonic over the pool's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that faulted the page in from disk.
    pub misses: u64,
    /// Frames whose previous page was displaced to serve a fault.
    pub evictions: u64,
    /// Dirty pages written back to the file (evictions + flushes).
    pub writebacks: u64,
}

impl PoolStats {
    /// Fraction of requests served without disk I/O (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One page frame: its data behind a reader/writer latch, plus the atomic
/// bookkeeping victim selection reads without latching.
#[derive(Debug)]
struct Frame {
    /// The page bytes ([`PAGE_SIZE`] of them once the frame has been
    /// claimed, none before). Shared for readers, exclusive for
    /// fault-in/install.
    data: RwLock<Box<[u8]>>,
    /// Pin count: non-zero keeps the frame out of victim selection.
    pins: AtomicU32,
    /// The page this frame holds ([`NO_PAGE`] when free). Mirrors the
    /// mapping table (mutations happen under the map lock); readable
    /// without the map lock for post-latch guard validation.
    page: AtomicU32,
    /// Set by [`BufferPool::install`]; cleared when the page is written
    /// back (eviction or flush) or discarded.
    dirty: AtomicBool,
    /// Clock second-chance bit.
    referenced: AtomicBool,
}

/// The mutex-protected mapping table and clock hand.
#[derive(Debug, Default)]
struct MapState {
    map: HashMap<PageId, usize>,
    clock: usize,
    /// Frames `..used` have been claimed at least once (and own a
    /// buffer); the clock sweeps only those.
    used: usize,
    /// Frames emptied by `discard` or a failed fault, newest last. An
    /// entry whose frame holds a page again (the clock got there first)
    /// is stale and dropped when met.
    free: Vec<usize>,
    /// Bumped by every insertion into and removal from `map`: what was
    /// resident at one epoch is resident for as long as the epoch stands.
    epoch: u64,
}

/// A fixed-capacity, concurrency-safe page cache with clock eviction.
/// See the module docs for the latch protocol.
#[derive(Debug)]
pub(crate) struct BufferPool {
    frames: Vec<Frame>,
    map: Mutex<MapState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

/// A pinned, latched page (or, in the pool-less direct mode, an owned
/// copy of the page bytes). Derefs to the page bytes; dropping releases
/// the latch first and the pin second, so `pins == 0` implies no latch
/// holders.
#[derive(Debug)]
pub(crate) struct PageRead<'a> {
    inner: ReadInner<'a>,
}

#[derive(Debug)]
enum ReadInner<'a> {
    /// Fields drop in declaration order: the latch before the pin.
    Pooled { latch: Latch<'a>, _pin: Pin<'a> },
    /// Zero-capacity pools read straight from the file into an owned
    /// buffer — no frame, no pin, no accounting.
    Direct(Box<[u8]>),
}

#[derive(Debug)]
enum Latch<'a> {
    Shared(RwLockReadGuard<'a, Box<[u8]>>),
    Exclusive(RwLockWriteGuard<'a, Box<[u8]>>),
}

/// One pin on a frame, given back when dropped.
#[derive(Debug)]
struct Pin<'a>(&'a Frame);

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.0.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Deref for PageRead<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            ReadInner::Pooled { latch, .. } => match latch {
                Latch::Shared(g) => g,
                Latch::Exclusive(g) => g,
            },
            ReadInner::Direct(buf) => buf,
        }
    }
}

impl BufferPool {
    /// A pool of `capacity` frames (clamped to at least 2, so one pinned
    /// page can never wedge the pool). A capacity of **zero** selects the
    /// pool-less direct mode: reads and installs go straight to the file
    /// with no caching, no eviction, and no stats accounting — the fast
    /// path for workloads that want no pool at all.
    pub fn new(capacity: usize) -> BufferPool {
        let capacity = if capacity == 0 { 0 } else { capacity.max(2) };
        BufferPool {
            frames: (0..capacity)
                .map(|_| Frame {
                    data: RwLock::default(),
                    pins: AtomicU32::new(0),
                    page: AtomicU32::new(NO_PAGE),
                    dirty: AtomicBool::new(false),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            map: Mutex::new(MapState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// Capacity in frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    fn lock_map(&self) -> MutexGuard<'_, MapState> {
        // Map state stays consistent across a panic elsewhere; recover
        // from poisoning instead of propagating it.
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// How many of `pages` — sorted ascending, without repeats — are
    /// currently resident. The count starts from the smaller side: a pool
    /// holding fewer pages than asked about searches `pages` for each of
    /// its own, so a small pool in front of a large table costs at most
    /// one search per frame. `memo` remembers the answer with the map
    /// epoch it was counted at, so asking again about the same pages
    /// before anything faulted or was evicted — every formula of one
    /// planning pass — is a comparison, not a count.
    pub(crate) fn resident_among(
        &self,
        pages: &[PageId],
        memo: &mut Option<(u64, usize)>,
    ) -> usize {
        let m = self.lock_map();
        match *memo {
            Some((epoch, count)) if epoch == m.epoch => count,
            _ => {
                let count = if m.map.len() < pages.len() {
                    let mapped = m.map.keys();
                    mapped.filter(|p| pages.binary_search(p).is_ok()).count()
                } else {
                    pages.iter().filter(|p| m.map.contains_key(p)).count()
                };
                *memo = Some((m.epoch, count));
                count
            }
        }
    }

    /// The frame's exclusive latch, if nobody pins or holds it.
    fn try_claim(f: &Frame) -> Option<RwLockWriteGuard<'_, Box<[u8]>>> {
        if f.pins.load(Ordering::SeqCst) != 0 {
            return None;
        }
        match f.data.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Under the map lock: claim a frame for a new page — one a discard
    /// emptied, else one never used (allocating its buffer), else the
    /// clock's choice among the used ones: unpinned, second chance spent,
    /// exclusive latch available without waiting. Claims the dirty bit
    /// (see module docs) and returns the latch, the frame index, the
    /// displaced page (if any), and whether its bytes still need writing
    /// back.
    #[allow(clippy::type_complexity)]
    fn victim(
        &self,
        m: &mut MapState,
    ) -> Result<(usize, RwLockWriteGuard<'_, Box<[u8]>>, Option<PageId>, bool)> {
        for at in (0..m.free.len()).rev() {
            let i = m.free[at];
            let f = &self.frames[i];
            if f.page.load(Ordering::SeqCst) != NO_PAGE {
                m.free.swap_remove(at);
            } else if let Some(g) = BufferPool::try_claim(f) {
                m.free.swap_remove(at);
                return Ok((i, g, None, false));
            }
        }
        if let Some(f) = self.frames.get(m.used) {
            let mut g = f.data.write().unwrap_or_else(|e| e.into_inner());
            *g = vec![0u8; PAGE_SIZE].into_boxed_slice();
            m.used += 1;
            return Ok((m.used - 1, g, None, false));
        }
        for _ in 0..3 * self.frames.len() {
            let i = m.clock;
            m.clock = (m.clock + 1) % self.frames.len();
            let f = &self.frames[i];
            if f.pins.load(Ordering::SeqCst) != 0 {
                continue;
            }
            if f.referenced.swap(false, Ordering::SeqCst) {
                continue;
            }
            let Some(g) = BufferPool::try_claim(f) else {
                continue;
            };
            let old = match f.page.load(Ordering::SeqCst) {
                NO_PAGE => None,
                p => Some(p),
            };
            let was_dirty = f.dirty.swap(false, Ordering::SeqCst);
            return Ok((i, g, old, was_dirty));
        }
        Err(ModelError::Io(format!(
            "buffer pool exhausted: all {} frames pinned",
            self.frames.len()
        )))
    }

    /// Under the map lock: displace `old` (if any) and map `page` to the
    /// claimed frame. Returns whether an eviction happened — the caller
    /// bumps the stats counter *after* releasing the map lock.
    fn publish(&self, m: &mut MapState, idx: usize, old: Option<PageId>, page: PageId) -> bool {
        let evicted = match old {
            Some(old) => {
                m.map.remove(&old);
                true
            }
            None => false,
        };
        m.map.insert(page, idx);
        m.epoch += 1;
        self.frames[idx].page.store(page, Ordering::SeqCst);
        self.frames[idx].referenced.store(true, Ordering::SeqCst);
        evicted
    }

    /// Undo a published mapping after a failed fault-in, so waiters
    /// re-fault instead of reading a torn frame. Called while the caller
    /// still holds the frame's exclusive latch.
    fn unpublish(&self, idx: usize, page: PageId) {
        let mut m = self.lock_map();
        if m.map.get(&page) == Some(&idx) {
            m.map.remove(&page);
            m.epoch += 1;
            self.frames[idx].page.store(NO_PAGE, Ordering::SeqCst);
            m.free.push(idx);
        }
    }

    /// Latch `page` for reading, faulting it in from `file` on a miss.
    pub fn read<'a>(&'a self, page: PageId, file: &PagedFile) -> Result<PageRead<'a>> {
        if self.frames.is_empty() {
            // Direct mode: no frames, no map, no accounting.
            let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
            file.read_page(page, &mut buf)?;
            return Ok(PageRead {
                inner: ReadInner::Direct(buf),
            });
        }
        loop {
            let mut m = self.lock_map();
            if let Some(&idx) = m.map.get(&page) {
                let f = &self.frames[idx];
                f.pins.fetch_add(1, Ordering::SeqCst);
                f.referenced.store(true, Ordering::SeqCst);
                drop(m);
                self.hits.fetch_add(1, Ordering::Relaxed);
                let g = f.data.read().unwrap_or_else(|e| e.into_inner());
                if f.page.load(Ordering::SeqCst) == page {
                    return Ok(PageRead {
                        inner: ReadInner::Pooled {
                            latch: Latch::Shared(g),
                            _pin: Pin(f),
                        },
                    });
                }
                // The mapping moved between pinning and latching
                // (discard or a failed fault): retry from the top.
                drop(g);
                f.pins.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let (idx, mut g, old, was_dirty) = self.victim(&mut m)?;
            let evicted = self.publish(&mut m, idx, old, page);
            let f = &self.frames[idx];
            f.pins.fetch_add(1, Ordering::SeqCst);
            drop(m);
            // Stats bumps stay fully outside the short map lock.
            self.misses.fetch_add(1, Ordering::Relaxed);
            if evicted {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let res = (|| -> Result<()> {
                if was_dirty {
                    if let Some(old) = old {
                        file.write_page(old, &g)?;
                        self.writebacks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                file.read_page(page, &mut g)
            })();
            if let Err(e) = res {
                self.unpublish(idx, page);
                drop(g);
                f.pins.fetch_sub(1, Ordering::SeqCst);
                return Err(e);
            }
            return Ok(PageRead {
                inner: ReadInner::Pooled {
                    latch: Latch::Exclusive(g),
                    _pin: Pin(f),
                },
            });
        }
    }

    /// Install `page` with the given contents and mark it dirty (the
    /// page-writer path: freshly built data/overflow/catalog pages).
    /// Callers serialize installs against [`BufferPool::flush`] — the
    /// store's write lock does this.
    pub(crate) fn install(&self, page: PageId, bytes: &[u8], file: &PagedFile) -> Result<()> {
        if self.frames.is_empty() {
            // Direct mode: the write reaches the file immediately (the
            // commit's sync makes it durable), no frame bookkeeping at all.
            return file.write_page(page, bytes);
        }
        debug_assert_eq!(bytes.len(), PAGE_SIZE);
        let mut m = self.lock_map();
        if let Some(&idx) = m.map.get(&page) {
            // Rewriting a resident page in place. Pin under the map lock,
            // then wait for readers on the frame's exclusive latch.
            let f = &self.frames[idx];
            f.pins.fetch_add(1, Ordering::SeqCst);
            f.referenced.store(true, Ordering::SeqCst);
            drop(m);
            {
                let mut g = f.data.write().unwrap_or_else(|e| e.into_inner());
                g.copy_from_slice(bytes);
                f.dirty.store(true, Ordering::SeqCst);
            }
            f.pins.fetch_sub(1, Ordering::SeqCst);
            return Ok(());
        }
        let (idx, mut g, old, was_dirty) = self.victim(&mut m)?;
        let evicted = self.publish(&mut m, idx, old, page);
        let f = &self.frames[idx];
        f.pins.fetch_add(1, Ordering::SeqCst);
        drop(m);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let res = (|| -> Result<()> {
            if was_dirty {
                if let Some(old) = old {
                    file.write_page(old, &g)?;
                    self.writebacks.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        })();
        let out = match res {
            Ok(()) => {
                g.copy_from_slice(bytes);
                f.dirty.store(true, Ordering::SeqCst);
                Ok(())
            }
            Err(e) => {
                self.unpublish(idx, page);
                Err(e)
            }
        };
        drop(g);
        f.pins.fetch_sub(1, Ordering::SeqCst);
        out
    }

    /// Write every dirty resident page back to the file (the first half of
    /// the commit point). Serialized with installs by the caller;
    /// concurrent readers are unaffected (the latch taken per page is
    /// shared).
    pub fn flush(&self, file: &PagedFile) -> Result<()> {
        let m = self.lock_map();
        for f in &self.frames[..m.used] {
            let page = f.page.load(Ordering::SeqCst);
            if page == NO_PAGE || !f.dirty.swap(false, Ordering::SeqCst) {
                continue;
            }
            let g = f.data.read().unwrap_or_else(|e| e.into_inner());
            file.write_page(page, &g)?;
            self.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        drop(m);
        Ok(())
    }

    /// Drop any resident copies of `pages` without writing them back —
    /// called when pages join the free list, so a later reuse of the id
    /// starts from a clean slate. In-flight guards on a discarded page
    /// stay valid (the frame's bytes are untouched until reclaimed).
    pub fn discard(&self, pages: impl Iterator<Item = PageId>) {
        let mut m = self.lock_map();
        for p in pages {
            if let Some(idx) = m.map.remove(&p) {
                m.epoch += 1;
                let f = &self.frames[idx];
                f.page.store(NO_PAGE, Ordering::SeqCst);
                f.dirty.store(false, Ordering::SeqCst);
                f.referenced.store(false, Ordering::SeqCst);
                m.free.push(idx);
            }
        }
    }
}

/// What the tests observe of a pool.
#[cfg(test)]
impl BufferPool {
    /// True iff `page` is currently resident.
    pub(crate) fn is_resident(&self, page: PageId) -> bool {
        self.lock_map().map.contains_key(&page)
    }

    /// Total outstanding pins across all frames (returns to zero when no
    /// guards are live).
    pub(crate) fn pinned_frames(&self) -> u64 {
        self.frames
            .iter()
            .map(|f| f.pins.load(Ordering::SeqCst) as u64)
            .sum()
    }

    /// Total frames that own a page buffer.
    pub(crate) fn allocated_frames(&self) -> usize {
        self.lock_map().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn scratch(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("tmql-pool-test-{}-{name}.tmdb", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A file whose pages 1..=n hold recognizable byte patterns.
    fn file_with_pages(path: &Path, n: u8) -> PagedFile {
        let file = PagedFile::create(path).unwrap();
        file.write_page(0, &[0u8; PAGE_SIZE]).unwrap();
        for pid in 1..=n {
            file.write_page(pid as PageId, &[pid; PAGE_SIZE]).unwrap();
        }
        file
    }

    #[test]
    fn hits_and_misses_counted() {
        let path = scratch("hits");
        let file = file_with_pages(&path, 3);
        let pool = BufferPool::new(4);
        {
            let g = pool.read(1, &file).unwrap();
            assert_eq!(g[0], 1);
        }
        {
            let g = pool.read(1, &file).unwrap();
            assert_eq!(g[0], 1);
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(pool.is_resident(1));
        let mut memo = None;
        assert_eq!(pool.resident_among(&[1, 2, 3], &mut memo), 1);
        // A standing epoch answers from the memo without looking at the
        // pages; a fault moves the epoch and the count with it.
        assert_eq!(pool.resident_among(&[], &mut memo), 1);
        let _ = pool.read(2, &file).unwrap();
        assert_eq!(pool.resident_among(&[1, 2, 3], &mut memo), 2);
        // Either side counts the same: the pool holds two pages, so the
        // first two lists are walked and the last is searched.
        for pages in [&[2, 3][..], &[1], &[0, 1, 2, 3]] {
            let want = pages.iter().filter(|p| pool.is_resident(**p)).count();
            assert_eq!(pool.resident_among(pages, &mut None), want, "{pages:?}");
        }
        assert_eq!(pool.pinned_frames(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_writes_back_and_refaults() {
        let path = scratch("evict");
        let file = file_with_pages(&path, 3);
        let pool = BufferPool::new(2);
        // Install a dirty page 1, then evict it by faulting 2 and 3.
        pool.install(1, &[0xAA; PAGE_SIZE], &file).unwrap();
        let _ = pool.read(2, &file).unwrap();
        let _ = pool.read(3, &file).unwrap();
        assert!(!pool.is_resident(1), "page 1 was evicted");
        let s = pool.stats();
        assert!(s.evictions >= 1, "{s:?}");
        assert_eq!(s.writebacks, 1, "dirty page written back on eviction");
        // Refault: the written-back bytes come back from the file.
        let g = pool.read(1, &file).unwrap();
        assert_eq!(g[0], 0xAA);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let path = scratch("pin");
        let file = file_with_pages(&path, 4);
        let pool = BufferPool::new(2);
        let g1 = pool.read(1, &file).unwrap();
        let _ = pool.read(2, &file).unwrap();
        let _ = pool.read(3, &file).unwrap();
        let _ = pool.read(4, &file).unwrap();
        assert!(pool.is_resident(1), "pinned page was never evicted");
        assert_eq!(g1[0], 1);
        drop(g1);
        assert_eq!(pool.pinned_frames(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn all_pinned_is_an_error_not_a_panic() {
        let path = scratch("wedge");
        let file = file_with_pages(&path, 3);
        let pool = BufferPool::new(2);
        let _g1 = pool.read(1, &file).unwrap();
        let _g2 = pool.read(2, &file).unwrap();
        let err = pool.read(3, &file).unwrap_err();
        assert!(matches!(err, ModelError::Io(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_clears_dirt() {
        let path = scratch("flush");
        let file = file_with_pages(&path, 1);
        let pool = BufferPool::new(2);
        pool.install(1, &[0xBB; PAGE_SIZE], &file).unwrap();
        pool.flush(&file).unwrap();
        assert_eq!(pool.stats().writebacks, 1);
        // A second flush writes nothing new.
        pool.flush(&file).unwrap();
        assert_eq!(pool.stats().writebacks, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0xBB, "flush reached the file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn discard_forgets_pages_without_writeback() {
        let path = scratch("discard");
        let file = file_with_pages(&path, 1);
        let pool = BufferPool::new(2);
        pool.install(1, &[0xCC; PAGE_SIZE], &file).unwrap();
        pool.discard([1u32].into_iter());
        assert!(!pool.is_resident(1));
        pool.flush(&file).unwrap();
        assert_eq!(pool.stats().writebacks, 0, "discarded dirt is not flushed");
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "file bytes untouched");
        let _ = std::fs::remove_file(&path);
    }

    /// A table of `live` pages replaced `generations` times: the new
    /// pages installed, then the ones they supersede discarded.
    fn replace_loop(pool: &BufferPool, file: &PagedFile, generations: u32, live: u32) {
        for g in 0..generations {
            let first = g * live + 1;
            for pid in first..first + live {
                pool.install(pid, &[pid as u8; PAGE_SIZE], file).unwrap();
            }
            pool.discard(first.saturating_sub(live)..first);
        }
    }

    #[test]
    fn frames_are_allocated_as_claimed_and_discarded_ones_are_claimed_first() {
        let path = scratch("lazy");
        let file = file_with_pages(&path, 1);
        let pool = BufferPool::new(4096);
        assert_eq!(pool.allocated_frames(), 0, "capacity costs nothing");
        // One reader keeps a discarded page pinned throughout.
        pool.install(9_999_999, &[7; PAGE_SIZE], &file).unwrap();
        let pinned = pool.read(9_999_999, &file).unwrap();
        pool.discard([9_999_999].into_iter());
        replace_loop(&pool, &file, 3_334, 3); // 10 002 installs
        assert_eq!(pinned[0], 7, "a pinned frame is nobody's victim");
        assert!(
            pool.allocated_frames() <= 3 + 3 + 1,
            "{} frames for three live pages, the three replacing them and a pin",
            pool.allocated_frames()
        );
        assert_eq!(pool.stats().evictions, 0);
        assert!(pool.is_resident(10_002) && !pool.is_resident(9_999));
        drop(pinned);
        // The smallest pool: a discarded frame, then eviction.
        let pool = BufferPool::new(2);
        replace_loop(&pool, &file, 100, 1);
        assert_eq!(pool.allocated_frames(), 2);
        assert_eq!(pool.read(100, &file).unwrap()[0], 100);
        pool.install(200, &[200; PAGE_SIZE], &file).unwrap();
        pool.install(201, &[201; PAGE_SIZE], &file).unwrap();
        assert_eq!(pool.stats().evictions, 1, "only once nothing was free");
        assert!(pool.is_resident(201));
        assert_eq!(pool.pinned_frames(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_capacity_pool_is_direct_io() {
        let path = scratch("direct");
        let file = file_with_pages(&path, 3);
        let pool = BufferPool::new(0);
        assert_eq!(pool.capacity(), 0);
        {
            let g = pool.read(2, &file).unwrap();
            assert_eq!(g[0], 2);
            assert_eq!(g.len(), PAGE_SIZE);
        }
        // Nothing is cached and nothing is accounted.
        assert!(!pool.is_resident(2));
        assert_eq!(pool.stats(), PoolStats::default());
        assert_eq!(pool.pinned_frames(), 0);
        // Installs write straight through; flush has nothing to do.
        pool.install(1, &[0xDD; PAGE_SIZE], &file).unwrap();
        pool.flush(&file).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0xDD);
        assert_eq!(pool.read(1, &file).unwrap()[0], 0xDD);
        pool.discard([1u32].into_iter());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_scans_share_a_tiny_pool() {
        // The stress test: N threads hammer a 4-frame pool over
        // 8 pages; every read sees the right bytes, the hit/miss counters
        // account for every request, and all pins return to zero.
        //
        // One thread per frame, each holding one pin at a time: the pool's
        // contract is that pinning threads never outnumber frames. With
        // more (this test ran 8 over 4 frames) a fault can find every
        // frame pinned and `victim` rightly reports "buffer pool
        // exhausted" — a flake in the test, not a pool bug. The other fix,
        // a `victim` that yields and retries, is the wrong trade: it runs
        // under the map lock, where pins can only fall, so waiting there
        // stalls every hit in the process to paper over a caller that
        // broke the contract (which `all_pinned_is_an_error_not_a_panic` pins).
        const FRAMES: usize = 4;
        const THREADS: usize = FRAMES;
        const ITERS: usize = 400;
        const PAGES: u8 = 8;
        let path = scratch("stress");
        let file = file_with_pages(&path, PAGES);
        let pool = BufferPool::new(FRAMES);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = &pool;
                let file = &file;
                s.spawn(move || {
                    for i in 0..ITERS {
                        let pid = ((t * 31 + i * 7) % PAGES as usize + 1) as PageId;
                        let g = pool.read(pid, file).unwrap();
                        assert_eq!(g[0], pid as u8, "torn read of page {pid}");
                        assert_eq!(g[PAGE_SIZE - 1], pid as u8);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(
            s.hits + s.misses,
            (THREADS * ITERS) as u64,
            "no lost hits/misses: {s:?}"
        );
        assert_eq!(pool.pinned_frames(), 0, "all pins released");
        let _ = std::fs::remove_file(&path);
    }
}
