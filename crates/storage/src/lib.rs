#![warn(missing_docs)]

//! # tmql-storage — stored class extensions, in memory and on disk
//!
//! The paper assumes class extensions (`EMP`, `DEPT`, or the relational
//! `R`, `S` of Section 2) are stored tables: "set-valued attributes are
//! stored with the objects themselves (as materialized joins), at least
//! conceptually" (Section 3.2). This crate provides:
//!
//! * [`Table`] — a typed, duplicate-free (set semantics) collection of
//!   [`tmql_model::Record`]s, either in memory or disk-backed through the
//!   pager's buffer pool (scans are batch cursors in both cases);
//! * [`Catalog`] — maps extension names to tables, whose columns are
//!   the extensions' types; [`Catalog::open`] makes it **persistent**:
//!   register/replace write rows into pages and commit a durable catalog
//!   image, so a database outlives the process;
//! * `pager` (crate-private) — the disk tier: slotted pages, the
//!   fixed-capacity buffer pool (clock eviction, pin counts, dirty
//!   write-back; [`PoolStats`] counts its traffic), table extents, and
//!   the persisted catalog image;
//! * [`stats::TableStats`] — cardinality, and per column the distinct
//!   count, an equi-width histogram, the null and set-valued fractions
//!   and the set-valued fan-out: what the cost-based optimizer and
//!   physical planner read. Built on registration a column at a time
//!   (from a reservoir sample past [`stats::STATS_SAMPLE_THRESHOLD`]
//!   rows);
//! * [`index`] — the ordered index over one attribute.
//!   [`Catalog::create_index`] builds an [`OrdIndex`], persists it
//!   through the pager, and rebuilds it on register/replace
//!   write-through; the executor's `IndexScan`/`IndexNLJoin` operators
//!   probe it instead of scanning when the planner's crossover favors
//!   probes;
//! * `wal` (crate-private) — the write-ahead log: page-image + commit redo records,
//!   one batch and one write per commit, XXH64-checksummed under the
//!   generation's epoch, fsynced before any write-back, replayed on
//!   open; a checkpoint recycles it in place by starting the next
//!   generation, a close empties it. [`Catalog::begin`]/[`Catalog::commit`]/
//!   [`Catalog::rollback`] make register/replace/create_index atomic
//!   multi-statement units on top of it;
//! * [`failpoint`] — the fault-injection seam over the pager's and the
//!   spill tier's I/O, driving the differential crash-recovery harness;
//! * [`spill`] — record runs in a query's one unnamed scratch file
//!   ([`SpillDir`], [`RunWriter`], [`SpillFile`], [`RunReader`]) with a
//!   length-prefixed binary codec, the substrate of the executor's
//!   larger-than-memory (grace-hash / partitioned) mode — and of the
//!   pager's page payloads, which reuse the same Record/Value codec.

mod bytes;
pub mod catalog;
pub mod failpoint;
mod format_tests;
pub mod index;
pub(crate) mod pager;
pub mod pretest;
pub mod spill;
pub mod stats;
pub mod table;
pub(crate) mod wal;
mod xxh64;

pub use catalog::Catalog;
pub use failpoint::{IoFailpoint, IoOp};
pub use index::OrdIndex;
pub use pager::{PoolStats, DEFAULT_POOL_PAGES, DEFAULT_WAL_CHECKPOINT_BYTES};
pub use pretest::RowTest;
pub use spill::{RunReader, RunWriter, SpillDir, SpillFile};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::Table;
pub use wal::{RecoveryReport, WalActivity};

pub use tmql_model::{ModelError, Result};
