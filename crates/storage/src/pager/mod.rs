//! Disk-backed table storage: slotted pages, a buffer pool, and a
//! persistent catalog.
//!
//! This is the tier that lifts the base-data ceiling: where the spill
//! machinery ([`crate::spill`]) bounds *operator state*, the pager bounds
//! *stored tables*. A database is one file of fixed-size
//! [pages](page::PAGE_SIZE); registered tables are written as slotted
//! [data pages](page) (reusing the spill crate's Record/Value codec, so
//! the full complex-object universe round-trips bit-exactly), faulted in
//! on demand through a fixed-capacity, **latch-based concurrent**
//! [`BufferPool`] with clock eviction, atomic pin counts, and dirty
//! write-back, and described by a [catalog image](image::CatalogImage)
//! whose header-last commit makes register/replace durable. Pages a
//! replace displaces join a header-resident free list at that same commit
//! and are reused by later writes.
//!
//! The pieces:
//!
//! * [`page`] — byte-level slotted/overflow page layout;
//! * [`pool`] — the buffer pool ([`BufferPool`], [`PoolStats`]);
//! * [`store`] — the database file, extents, and the [`PagedStore`]
//!   façade tables and the catalog share;
//! * [`image`] — the persisted catalog blob (column types + extents + stats).

pub(crate) mod image;
pub(crate) mod page;
pub(crate) mod pool;
pub(crate) mod store;

pub(crate) use page::PageId;
pub use pool::PoolStats;
pub(crate) use store::{PagedStore, TableExtent};
pub use store::{DEFAULT_POOL_PAGES, DEFAULT_WAL_CHECKPOINT_BYTES};
