//! The catalog: named extensions (tables), in memory or durable.
//!
//! A catalog is either **transient** (the default — tables live in
//! memory, exactly the pre-pager behavior) or **persistent**
//! ([`Catalog::open`]): backed by a paged store, where
//! [`Catalog::register`] / [`Catalog::replace`] write the rows into
//! slotted pages and commit a new catalog image
//! — column types, extents, and statistics — so
//! `register → drop → open` round-trips the whole database. Reads stream
//! through the store's buffer pool; the catalog itself keeps only
//! descriptors.
//!
//! # Transactions
//!
//! Every mutating statement (`register`, `replace`, `create_index`,
//! `drop_index`) is transactional. Outside an explicit transaction each
//! statement **auto-commits**: it is its own durability point, exactly
//! the pre-WAL behavior. [`Catalog::begin`] opens a multi-statement
//! transaction: statements mutate the in-memory view and write pages,
//! but nothing commits until [`Catalog::commit`] logs the lot to the
//! write-ahead log as one atomic unit; [`Catalog::rollback`] restores
//! the catalog (tables, stats, indexes) and the store's
//! allocation state to the begin snapshot. A statement that *fails*
//! inside an open transaction aborts the whole transaction — partial
//! transactions are never left half-applied.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use tmql_model::{ModelError, Record, Result, Ty};

use crate::index::{decode_index, encode_index, OrdIndex};
use crate::pager::image::{check_ty, encode_parts, IndexParts, TableParts};
use crate::pager::{PageId, PagedStore, PoolStats};
use crate::spill::check_nesting;
use crate::stats::TableStats;
use crate::table::Table;
use crate::wal::{RecoveryReport, WalActivity};
use tmql_obs::MetricsRegistry;

/// How a polled storage series renders.
#[derive(Clone, Copy)]
enum Series {
    /// A monotonic total (`# TYPE … counter`).
    Counter,
    /// A point-in-time value (`# TYPE … gauge`).
    Gauge,
}

/// One polled storage series: name, help, kind, and how to read it off
/// the store.
type StoreSeries = (&'static str, &'static str, Series, fn(&PagedStore) -> u64);

/// Every polled series [`Catalog::register_metrics`] registers.
#[rustfmt::skip]
const STORE_SERIES: &[StoreSeries] = &[
    ("tmql_pool_hits_total", "Buffer-pool page requests served from memory",
        Series::Counter, |s| s.pool_stats().hits),
    ("tmql_pool_misses_total", "Buffer-pool page faults (disk reads)",
        Series::Counter, |s| s.pool_stats().misses),
    ("tmql_pool_evictions_total", "Buffer-pool frames evicted",
        Series::Counter, |s| s.pool_stats().evictions),
    ("tmql_pool_writebacks_total", "Dirty pages written back by the pool",
        Series::Counter, |s| s.pool_stats().writebacks),
    ("tmql_pool_pages", "Buffer-pool capacity in pages",
        Series::Gauge, |s| s.pool_pages() as u64),
    ("tmql_wal_size_bytes", "Bytes of the write-ahead log's current generation",
        Series::Gauge, |s| s.wal_activity().size_bytes),
    ("tmql_wal_appends_total", "WAL records appended",
        Series::Counter, |s| s.wal_activity().appends_total),
    ("tmql_wal_commits_total", "WAL commit records appended",
        Series::Counter, |s| s.wal_activity().commits_total),
    ("tmql_wal_fsyncs_total", "WAL fsyncs (durability points)",
        Series::Counter, |s| s.wal_activity().syncs_total),
    ("tmql_wal_bytes_written_total", "Bytes appended to the WAL",
        Series::Counter, |s| s.wal_activity().bytes_appended_total),
    ("tmql_wal_checkpoints_total", "Checkpoints taken",
        Series::Counter, |s| s.wal_activity().checkpoints_total),
    ("tmql_free_list_pages", "Reusable free pages in the allocator",
        Series::Gauge, |s| s.free_list_len().0 as u64),
    ("tmql_pending_free_pages", "Freed pages quarantined until the next checkpoint",
        Series::Gauge, |s| s.free_list_len().1 as u64),
    ("tmql_recovery_replayed_txns", "Committed transactions replayed from the WAL at open",
        Series::Gauge, |s| s.recovery().replayed_txns as u64),
    ("tmql_recovery_discarded_records", "Torn or uncommitted WAL records discarded at open",
        Series::Gauge, |s| s.recovery().discarded_records as u64),
    ("tmql_recovery_discarded_bytes", "WAL bytes discarded at open",
        Series::Gauge, |s| s.recovery().discarded_bytes),
];

/// One maintained secondary index: the in-memory structure plus (when the
/// catalog is persistent) the page chain holding its encoded entries.
/// The structure is shared, so a transaction snapshot of an index of any
/// size is a reference-count bump.
#[derive(Debug, Clone)]
struct IndexEntry {
    ord: Arc<OrdIndex>,
    chain: Option<(PageId, u64)>,
}

/// One registered table with the statistics computed when it was
/// installed (shared, like an index's entries).
#[derive(Debug, Clone)]
struct Stored {
    table: Table,
    stats: Arc<TableStats>,
}

/// The begin-of-transaction snapshot [`Catalog::rollback`] restores,
/// plus the pages statements inside the transaction have freed (handed
/// to the store only at commit).
#[derive(Debug)]
struct TxnState {
    tables: BTreeMap<String, Stored>,
    indexes: BTreeMap<(String, String), IndexEntry>,
    freed: Vec<PageId>,
}

/// Maps extension names (`EMP`, `DEPT`, `R`, `S`, ...) to stored tables,
/// whose columns are the extensions' types. See the module docs for the
/// transient/persistent split.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Stored>,
    indexes: BTreeMap<(String, String), IndexEntry>,
    store: Option<Arc<PagedStore>>,
    txn: Option<TxnState>,
}

impl Catalog {
    /// An empty transient catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Open (or create) a persistent catalog at `path` with a buffer pool
    /// of `pool_pages` frames. An existing database loads its persisted
    /// table descriptors and statistics; rows stay on disk until scanned.
    pub fn open(path: impl AsRef<Path>, pool_pages: usize) -> Result<Catalog> {
        let path = path.as_ref();
        // An empty file is a fresh database too: a crash during creation
        // (before the header's first byte) leaves exactly that behind.
        let fresh = match std::fs::metadata(path) {
            Ok(m) => m.len() == 0,
            Err(_) => true,
        };
        if fresh {
            let store = PagedStore::create(path, pool_pages)?;
            return Ok(Catalog {
                store: Some(store),
                ..Catalog::default()
            });
        }
        let (store, image) = PagedStore::open(path, pool_pages)?;
        let mut tables = BTreeMap::new();
        for t in image.tables {
            let table = Table::disk(t.name.clone(), t.columns, store.clone(), Arc::new(t.extent));
            let stats = Arc::new(t.stats);
            tables.insert(t.name, Stored { table, stats });
        }
        // Indexes load eagerly: they are small relative to their tables,
        // and a corrupted chain must surface here as an I/O error rather
        // than mid-query.
        let mut indexes = BTreeMap::new();
        for ix in image.indexes {
            if !tables.contains_key(&ix.table) {
                return Err(ModelError::Io(format!(
                    "catalog names an index over unknown table `{}`",
                    ix.table
                )));
            }
            let blob = store.read_blob(ix.first, ix.len)?;
            let ord = Arc::new(decode_index(&ix.attr, &blob)?);
            indexes.insert(
                (ix.table, ix.attr),
                IndexEntry {
                    ord,
                    chain: Some((ix.first, ix.len)),
                },
            );
        }
        Ok(Catalog {
            tables,
            indexes,
            store: Some(store),
            txn: None,
        })
    }

    // -- transactions --------------------------------------------------------

    /// Open a multi-statement transaction. Statements issued until the
    /// matching [`Catalog::commit`] become one atomic, durable unit;
    /// [`Catalog::rollback`] (or a failing statement, or dropping the
    /// catalog) discards all of them. Nested transactions are not
    /// supported.
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(ModelError::SchemaError(
                "transaction already open (nested transactions are not supported)".into(),
            ));
        }
        if let Some(store) = &self.store {
            store.begin_txn();
        }
        self.txn = Some(TxnState {
            tables: self.tables.clone(),
            indexes: self.indexes.clone(),
            freed: Vec::new(),
        });
        Ok(())
    }

    /// Commit the open transaction: one catalog image, one WAL commit
    /// record, one fsync — every statement since [`Catalog::begin`]
    /// becomes durable together. On failure the transaction is rolled
    /// back (the catalog never serves state that would vanish on
    /// reopen) and the error is returned.
    pub fn commit(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Err(ModelError::SchemaError(
                "no open transaction to commit".into(),
            ));
        };
        if let Err(e) = self.sync_freeing(txn.freed.clone()) {
            self.restore(txn);
            if let Some(store) = &self.store {
                store.rollback_txn();
            }
            return Err(e);
        }
        Ok(())
    }

    /// Abandon the open transaction: restore the catalog to its begin
    /// snapshot and reclaim every page the transaction wrote.
    pub fn rollback(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Err(ModelError::SchemaError(
                "no open transaction to roll back".into(),
            ));
        };
        self.restore(txn);
        if let Some(store) = &self.store {
            store.rollback_txn();
        }
        Ok(())
    }

    /// Whether a [`Catalog::begin`] transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    fn restore(&mut self, txn: TxnState) {
        self.tables = txn.tables;
        self.indexes = txn.indexes;
    }

    /// Run one mutating statement with transactional bracketing: outside
    /// a transaction the statement is its own transaction (auto-commit,
    /// with the store's allocations reclaimed on failure); inside one, a
    /// failure aborts the whole transaction before returning the error.
    fn statement<R>(&mut self, f: impl FnOnce(&mut Catalog) -> Result<R>) -> Result<R> {
        let auto = self.txn.is_none();
        if auto {
            if let Some(store) = &self.store {
                store.begin_txn();
            }
        }
        match f(self) {
            Ok(r) => {
                if auto {
                    if let Some(store) = &self.store {
                        // A statement that committed already cleared the
                        // store's snapshot (this is a no-op then); one
                        // that ended up writing nothing (e.g. dropping a
                        // nonexistent index) discards it here.
                        store.rollback_txn();
                    }
                }
                Ok(r)
            }
            Err(e) => {
                if auto {
                    if let Some(store) = &self.store {
                        store.rollback_txn();
                    }
                } else {
                    // A failed statement aborts the enclosing transaction:
                    // the alternative would leave the transaction
                    // half-applied with no way to complete it.
                    let _ = self.rollback();
                }
                Err(e)
            }
        }
    }

    /// Force a checkpoint: flush pages, rewrite the header, start the
    /// WAL's next generation (see the pager's durability rules). No-op
    /// for transient catalogs; an error while a transaction is open.
    pub fn wal_checkpoint(&self) -> Result<()> {
        if self.txn.is_some() {
            return Err(ModelError::SchemaError(
                "cannot checkpoint while a transaction is open".into(),
            ));
        }
        match &self.store {
            Some(store) => store.checkpoint(),
            None => Ok(()),
        }
    }

    /// Override the WAL-size checkpoint threshold (no-op for transient
    /// catalogs); see [`crate::DEFAULT_WAL_CHECKPOINT_BYTES`].
    pub fn set_wal_checkpoint_bytes(&self, bytes: u64) {
        if let Some(store) = &self.store {
            store.set_checkpoint_bytes(bytes);
        }
    }

    /// What crash recovery found when this catalog was opened (`None`
    /// for transient catalogs).
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.store.as_ref().map(|s| s.recovery())
    }

    /// True iff this catalog writes through to a paged store.
    pub fn is_persistent(&self) -> bool {
        self.store.is_some()
    }

    /// The persistent store's cumulative buffer-pool counters (`None` for
    /// transient catalogs). The executor diffs snapshots of these into
    /// per-query hit/miss metrics.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.store.as_ref().map(|s| s.pool_stats())
    }

    /// Buffer-pool residency of a disk-backed table: `(resident pages,
    /// total pages)`. `None` for transient catalogs and in-memory tables —
    /// the cost model charges page I/O only where pages exist.
    pub fn page_residency(&self, name: &str) -> Option<(usize, usize)> {
        self.tables.get(name)?.table.page_residency()
    }

    /// Snapshot of the persistent store's WAL activity (`None` for
    /// transient catalogs) — sizes, append/fsync/checkpoint counts; the
    /// input for shell `\stats` and the `tmql_wal_*` metrics series.
    pub fn wal_activity(&self) -> Option<WalActivity> {
        self.store.as_ref().map(|s| s.wal_activity())
    }

    /// `(reusable free pages, checkpoint-quarantined freed pages)` of
    /// the persistent store (`None` for transient catalogs).
    pub fn free_list_len(&self) -> Option<(usize, usize)> {
        self.store.as_ref().map(|s| s.free_list_len())
    }

    /// Register this catalog's storage series into an engine-wide
    /// metrics registry: buffer-pool traffic (`tmql_pool_*`), WAL
    /// activity (`tmql_wal_*`), allocator free-list gauges and what
    /// recovery found at open (`tmql_recovery_*`), one row of
    /// `STORE_SERIES` each. These series are *polled* — sampled from
    /// the store at render time — so nothing is double-counted and the
    /// hot paths gain no new work. The write path's latency histograms
    /// (`tmql_commit_micros`, `tmql_wal_fsync_micros`,
    /// `tmql_checkpoint_micros`) are the exception: the store records
    /// into them, two clock reads per timed section. A transient
    /// (in-memory) catalog registers nothing.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        let Some(store) = &self.store else { return };
        store.register_latencies(reg);
        for &(name, help, kind, read) in STORE_SERIES {
            let s = Arc::clone(store);
            let poll = move || read(&s);
            match kind {
                Series::Counter => reg.counter_fn(name, help, poll),
                Series::Gauge => reg.gauge_fn(name, help, poll),
            }
        }
    }

    /// Register a table under its own name. Statistics are computed eagerly
    /// (tables are immutable once registered — the paper's queries are
    /// read-only); on a persistent catalog the rows are written through
    /// the buffer pool and the catalog image is committed durably —
    /// immediately when no transaction is open (auto-commit), at the
    /// enclosing [`Catalog::commit`] otherwise.
    pub fn register(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(ModelError::SchemaError(format!(
                "table `{name}` already registered"
            )));
        }
        self.statement(|cat| cat.install(name, table))
    }

    /// Replace a table (e.g. between benchmark iterations), refreshing
    /// stats. On a persistent catalog the new rows are written and
    /// committed (participating in any enclosing transaction, like
    /// [`Catalog::register`]); the old extent's pages (including overflow
    /// chains) are returned to the pager's free list at the checkpoint
    /// after the commit and reused by later writes (see the pager's
    /// durability rules).
    pub fn replace(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        self.statement(|cat| cat.install(name, table))
    }

    /// Install a prepared table + stats and commit the catalog image,
    /// rolling the in-memory view back if the durable commit fails — the
    /// catalog never serves state that would vanish on reopen. Secondary
    /// indexes over the table are rebuilt from the incoming rows
    /// (write-through maintenance) in the same commit. The displaced
    /// table's pages — and the displaced index chains — are freed at
    /// (and only at) a successful commit, so a rollback leaks nothing
    /// and frees nothing. Inside an open transaction nothing syncs yet:
    /// the freed pages accumulate on the transaction and the whole unit
    /// commits at [`Catalog::commit`].
    fn install(&mut self, name: String, table: Table) -> Result<()> {
        // Enumerate everything the displaced state owns *before* mutating,
        // so a failure below leaves the catalog untouched.
        let mut freed = self.displaced_pages(self.tables.get(&name).map(|t| &t.table))?;
        let index_keys: Vec<(String, String)> = self
            .indexes
            .keys()
            .filter(|(t, _)| *t == name)
            .cloned()
            .collect();
        for key in &index_keys {
            if let (Some(store), Some((first, len))) =
                (self.store.as_ref(), self.indexes[key].chain)
            {
                freed.extend(store.blob_pages(first, len)?);
            }
        }
        let stored = self.prepare(table)?;
        // Rebuild the table's indexes over the incoming rows and write
        // their new chains (durable only at the commit below).
        let mut rebuilt = Vec::with_capacity(index_keys.len());
        for key in index_keys {
            let entry = self.build_index(&stored.table, &key.1)?;
            rebuilt.push((key, entry));
        }
        let prev_table = self.tables.insert(name.clone(), stored);
        let mut prev_entries = Vec::new();
        for (key, entry) in rebuilt {
            let prev = self.indexes.insert(key.clone(), entry);
            prev_entries.push((key, prev));
        }
        if let Some(txn) = self.txn.as_mut() {
            txn.freed.extend(freed);
            return Ok(());
        }
        if let Err(e) = self.sync_freeing(freed) {
            match prev_table {
                Some(t) => self.tables.insert(name.clone(), t),
                None => self.tables.remove(&name),
            };
            for (key, prev) in prev_entries {
                match prev {
                    Some(p) => self.indexes.insert(key, p),
                    None => self.indexes.remove(&key),
                };
            }
            return Err(e);
        }
        Ok(())
    }

    /// Build the index on `table.attr` and, when persistent, write its
    /// chain (durable only at the next commit).
    fn build_index(&self, table: &Table, attr: &str) -> Result<IndexEntry> {
        let ord = Arc::new(OrdIndex::build(table, attr)?);
        let chain = match self.store.as_ref() {
            Some(store) => Some(store.write_blob(&encode_index(&ord))?),
            None => None,
        };
        Ok(IndexEntry { ord, chain })
    }

    /// Every page the displaced table owned (empty for transient catalogs
    /// and first registrations).
    fn displaced_pages(&self, prev: Option<&Table>) -> Result<Vec<PageId>> {
        match prev.and_then(|t| t.disk_parts()) {
            Some((store, extent)) => store.extent_pages(extent),
            None => Ok(Vec::new()),
        }
    }

    /// Compute statistics for an incoming table and, when persistent,
    /// write its rows through the store, returning the (possibly now
    /// disk-backed) table to catalog. A row or a column type nested
    /// deeper than the store's decoders follow is refused here, before
    /// any page is allocated: written, it would fail on its first read.
    fn prepare(&mut self, table: Table) -> Result<Stored> {
        let Some(store) = self.store.clone() else {
            let stats = Arc::new(TableStats::compute(&table)?);
            return Ok(Stored { table, stats });
        };
        // `rows_vec` materializes disk-backed sources (e.g. copying a
        // database) — user registrations are in-memory.
        let materialized;
        let rows: &[Record] = match table.mem_rows() {
            Some(rows) => rows,
            None => {
                materialized = table.rows_vec()?;
                &materialized
            }
        };
        table
            .columns()
            .iter()
            .try_for_each(|(_, ty)| check_ty(ty))?;
        rows.iter().try_for_each(check_nesting)?;
        let stats = Arc::new(TableStats::of_rows(table.columns(), rows));
        let extent = Arc::new(store.write_table(rows, table.shape())?);
        let table = Table::disk(table.name(), table.columns().to_vec(), store, extent);
        Ok(Stored { table, stats })
    }

    /// Commit the current table and index descriptors to the store
    /// (no-op for transient catalogs). Called automatically by
    /// [`Catalog::register`] / [`Catalog::replace`]; an error while a
    /// transaction is open (commit or roll back instead).
    pub fn sync(&self) -> Result<()> {
        if self.txn.is_some() {
            return Err(ModelError::SchemaError(
                "cannot sync while a transaction is open (commit or roll back first)".into(),
            ));
        }
        self.sync_freeing(Vec::new())
    }

    /// Commit the catalog image — encoded from the live catalog's parts,
    /// borrowed — handing `freed` pages (a displaced table's extent) back
    /// to the store's free list at the commit point.
    fn sync_freeing(&self, freed: Vec<PageId>) -> Result<()> {
        let Some(store) = self.store.as_ref() else {
            return Ok(());
        };
        let not_on_disk = |what: String| {
            ModelError::Io(format!(
                "persistent catalog holds {what} that is not on disk"
            ))
        };
        let mut tables = Vec::with_capacity(self.tables.len());
        for (name, t) in &self.tables {
            let Some((_, extent)) = t.table.disk_parts() else {
                return Err(not_on_disk(format!("a table `{name}`")));
            };
            tables.push(TableParts {
                name,
                columns: t.table.columns(),
                extent,
                stats: &t.stats,
            });
        }
        let mut indexes = Vec::with_capacity(self.indexes.len());
        for ((table, attr), e) in &self.indexes {
            let Some((first, len)) = e.chain else {
                return Err(not_on_disk(format!("an index `{table}.{attr}`")));
            };
            indexes.push(IndexParts {
                table,
                attr,
                kind: 0,
                first,
                len,
            });
        }
        store.write_catalog(&encode_parts(&tables, &indexes), freed)
    }

    /// Create a secondary (ordered) index on `table.attr`. Rows lacking
    /// the attribute are simply not indexed. On a persistent catalog the
    /// index is written through the pager and committed with the catalog
    /// image (at the enclosing [`Catalog::commit`] when a transaction is
    /// open), so it survives a reopen; maintenance on `register`/`replace`
    /// is automatic from then on.
    pub fn create_index(&mut self, table: &str, attr: &str) -> Result<()> {
        let key = (table.to_string(), attr.to_string());
        if self.indexes.contains_key(&key) {
            return Err(ModelError::SchemaError(format!(
                "index on `{table}.{attr}` already exists"
            )));
        }
        self.table(table)?;
        self.statement(|cat| {
            let entry = cat.build_index(cat.table(&key.0)?, &key.1)?;
            cat.indexes.insert(key.clone(), entry);
            if cat.txn.is_some() {
                return Ok(()); // commits with the enclosing transaction
            }
            if let Err(e) = cat.sync() {
                cat.indexes.remove(&key);
                return Err(e);
            }
            Ok(())
        })
    }

    /// Drop the index on `table.attr`, returning whether one existed. On
    /// a persistent catalog its pages return to the free list at the
    /// checkpoint after the commit.
    pub fn drop_index(&mut self, table: &str, attr: &str) -> Result<bool> {
        let key = (table.to_string(), attr.to_string());
        if !self.indexes.contains_key(&key) {
            return Ok(false);
        }
        self.statement(|cat| {
            // Enumerate the chain's pages *before* removing the entry, so
            // an I/O error here leaves the index in place.
            let chain = cat.indexes.get(&key).and_then(|e| e.chain);
            let freed = match (cat.store.as_ref(), chain) {
                (Some(store), Some((first, len))) => store.blob_pages(first, len)?,
                _ => Vec::new(),
            };
            let Some(entry) = cat.indexes.remove(&key) else {
                return Ok(false);
            };
            if let Some(txn) = cat.txn.as_mut() {
                txn.freed.extend(freed);
                return Ok(true);
            }
            if let Err(e) = cat.sync_freeing(freed) {
                cat.indexes.insert(key.clone(), entry);
                return Err(e);
            }
            Ok(true)
        })
    }

    /// The index on `table.attr`, if one exists. Found by comparing the
    /// names in place: a keyed lookup would allocate its owned key, and
    /// the planner looks up per join key and per conjunct, while a
    /// catalog holds a handful of indexes.
    pub fn index_on(&self, table: &str, attr: &str) -> Option<&OrdIndex> {
        self.indexes()
            .find_map(|(t, a, index)| (t == table && a == attr).then_some(index))
    }

    /// All indexes as `(table, attr, index)`, sorted by table then attr.
    pub fn indexes(&self) -> impl Iterator<Item = (&str, &str, &OrdIndex)> {
        self.indexes
            .iter()
            .map(|((t, a), e)| (t.as_str(), a.as_str(), &*e.ord))
    }

    /// Look up a table by extension name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        match self.tables.get(name) {
            Some(t) => Ok(&t.table),
            None => Err(ModelError::SchemaError(format!("unknown table `{name}`"))),
        }
    }

    /// Look up precomputed statistics for a table.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name).map(|t| &*t.stats)
    }

    /// The row type of a stored table: a tuple of its columns.
    pub fn row_ty(&self, name: &str) -> Result<Ty> {
        self.table(name).map(Table::row_ty)
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::int_table;

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register(int_table("R", &["a", "b"], &[&[1, 2]]))
            .unwrap();
        assert_eq!(cat.table("R").unwrap().len(), 1);
        assert!(cat.table("S").is_err());
        assert!(cat.register(int_table("R", &["a"], &[])).is_err());
        assert!(!cat.is_persistent());
        assert_eq!(cat.pool_stats(), None);
        assert_eq!(cat.page_residency("R"), None);
    }

    #[test]
    fn stats_computed_on_register() {
        let mut cat = Catalog::new();
        cat.register(int_table("R", &["a"], &[&[1], &[2], &[2]]))
            .unwrap();
        let st = cat.stats("R").unwrap();
        assert_eq!(st.cardinality, 2); // set semantics deduped the 2
    }

    #[test]
    fn replace_refreshes_stats() {
        let mut cat = Catalog::new();
        cat.register(int_table("R", &["a"], &[&[1]])).unwrap();
        cat.replace(int_table("R", &["a"], &[&[1], &[2], &[3]]))
            .unwrap();
        assert_eq!(cat.stats("R").unwrap().cardinality, 3);
    }

    #[test]
    fn row_ty_from_table() {
        let mut cat = Catalog::new();
        cat.register(int_table("R", &["a", "b"], &[])).unwrap();
        let ty = cat.row_ty("R").unwrap();
        assert_eq!(
            ty,
            Ty::Tuple(vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)])
        );
        assert!(cat.row_ty("NOPE").is_err());
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "tmql-catalog-test-{}-{name}.tmdb",
            std::process::id()
        ));
        clean(&p);
        p
    }

    /// Remove a scratch database and its WAL sidecar.
    fn clean(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(crate::wal::Wal::path_for(path));
    }

    #[test]
    fn persistent_catalog_round_trips_through_reopen() {
        let path = scratch("roundtrip");
        {
            let mut cat = Catalog::open(&path, 16).unwrap();
            assert!(cat.is_persistent());
            cat.register(int_table("R", &["a", "b"], &[&[1, 10], &[2, 20], &[3, 20]]))
                .unwrap();
            let t = cat.table("R").unwrap();
            assert!(t.is_disk_backed(), "registration wrote through the pager");
            assert_eq!(t.len(), 3);
        }
        let cat = Catalog::open(&path, 16).unwrap();
        let t = cat.table("R").unwrap();
        assert_eq!(t.len(), 3);
        // Cold after the reopen — asked twice, so the second answer is the
        // remembered one — and the scan below must move it.
        assert_eq!(cat.page_residency("R"), Some((0, 1)));
        assert_eq!(cat.page_residency("R"), Some((0, 1)));
        assert_eq!(
            t.batch(1, 2).unwrap(),
            int_table("X", &["a", "b"], &[&[2, 20], &[3, 20]])
                .batch(0, 2)
                .unwrap(),
            "reopened rows are identical"
        );
        let st = cat.stats("R").unwrap();
        assert_eq!(st.cardinality, 3);
        assert_eq!(st.columns["b"].distinct, 2, "statistics round-tripped");
        assert_eq!(cat.page_residency("R"), Some((1, 1)), "warm after the scan");
        clean(&path);
    }

    #[test]
    fn persistent_replace_commits_new_rows() {
        let path = scratch("replace");
        {
            let mut cat = Catalog::open(&path, 16).unwrap();
            cat.register(int_table("R", &["a"], &[&[1]])).unwrap();
            cat.replace(int_table("R", &["a"], &[&[7], &[8]])).unwrap();
        }
        let cat = Catalog::open(&path, 16).unwrap();
        assert_eq!(cat.table("R").unwrap().len(), 2);
        assert_eq!(cat.stats("R").unwrap().cardinality, 2);
        clean(&path);
    }

    #[test]
    fn repeated_replaces_do_not_grow_the_file() {
        // PR 5 left `replace` leaking the old extent inside the file; the
        // pager's free list now reuses those pages, so the file size
        // settles after the write-then-free double-buffering warms up.
        let path = scratch("freelist");
        let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i, i % 13]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("R", &["a", "b"], &refs)).unwrap();
        let size = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
        let mut settled = 0;
        for i in 0..10 {
            cat.replace(int_table("R", &["a", "b"], &refs)).unwrap();
            // Freed pages recycle only after a checkpoint folds them into
            // the durable free list.
            cat.wal_checkpoint().unwrap();
            if i == 2 {
                settled = size(&path);
            }
        }
        assert_eq!(size(&path), settled, "replaces reuse freed pages");
        // And the data still reads back correctly after all that churn.
        assert_eq!(cat.table("R").unwrap().len(), 500);
        drop(cat);
        let cat = Catalog::open(&path, 16).unwrap();
        assert_eq!(cat.table("R").unwrap().len(), 500);
        clean(&path);
    }

    #[test]
    fn index_round_trips_through_reopen() {
        use tmql_model::Value;
        let path = scratch("idx-roundtrip");
        {
            let mut cat = Catalog::open(&path, 16).unwrap();
            cat.register(int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]))
                .unwrap();
            cat.create_index("R", "b").unwrap();
            assert!(cat.index_on("R", "b").is_some());
            assert!(cat.create_index("R", "b").is_err(), "duplicate rejected");
            assert!(cat.create_index("NOPE", "b").is_err(), "unknown table");
        }
        let cat = Catalog::open(&path, 16).unwrap();
        let idx = cat.index_on("R", "b").expect("index survived reopen");
        assert_eq!(idx.probe_eq(&Value::Int(10)), vec![0, 1]);
        assert_eq!(idx.probe_eq(&Value::Int(20)), vec![2]);
        assert_eq!(cat.indexes().count(), 1);
        clean(&path);
    }

    #[test]
    fn replace_rebuilds_indexes_write_through() {
        use tmql_model::Value;
        let path = scratch("idx-maint");
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("R", &["a"], &[&[1]])).unwrap();
        cat.create_index("R", "a").unwrap();
        cat.replace(int_table("R", &["a"], &[&[7], &[8], &[7]]))
            .unwrap();
        let idx = cat.index_on("R", "a").unwrap();
        assert_eq!(idx.probe_eq(&Value::Int(1)), Vec::<usize>::new());
        assert_eq!(idx.probe_eq(&Value::Int(7)), vec![0]);
        assert_eq!(idx.probe_eq(&Value::Int(8)), vec![1]);
        drop(cat);
        let cat = Catalog::open(&path, 16).unwrap();
        let idx = cat.index_on("R", "a").unwrap();
        assert_eq!(
            idx.probe_eq(&Value::Int(8)),
            vec![1],
            "maintained index persisted"
        );
        clean(&path);
    }

    #[test]
    fn transient_catalog_indexes_work_without_a_store() {
        use tmql_model::Value;
        let mut cat = Catalog::new();
        cat.register(int_table("R", &["a"], &[&[4], &[5]])).unwrap();
        cat.create_index("R", "a").unwrap();
        assert_eq!(
            cat.index_on("R", "a").unwrap().probe_eq(&Value::Int(5)),
            vec![1]
        );
        cat.replace(int_table("R", &["a"], &[&[9]])).unwrap();
        assert_eq!(
            cat.index_on("R", "a").unwrap().probe_eq(&Value::Int(9)),
            vec![0]
        );
        assert!(cat.drop_index("R", "a").unwrap());
        assert!(!cat.drop_index("R", "a").unwrap());
        assert!(cat.index_on("R", "a").is_none());
    }

    #[test]
    fn borrowed_index_lookup_matches_the_pair_of_names() {
        let mut cat = Catalog::new();
        cat.register(int_table("R", &["a", "ab"], &[&[1, 2]]))
            .unwrap();
        cat.register(int_table("RA", &["b"], &[&[3]])).unwrap();
        for (table, attr) in [("R", "ab"), ("RA", "b")] {
            cat.create_index(table, attr).unwrap();
        }
        let found = |t, a| cat.index_on(t, a).map(|ix| ix.len());
        assert_eq!((found("R", "ab"), found("RA", "b")), (Some(1), Some(1)));
        for (table, attr) in [("R", "a"), ("R", "b"), ("RA", "ab"), ("", "Rab")] {
            assert_eq!(found(table, attr), None, "{table}.{attr}");
        }
    }

    #[test]
    fn drop_index_frees_its_pages() {
        // Index chains join the free list on drop, so a
        // create → drop → create cycle must not grow the file.
        let path = scratch("idx-free");
        let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i, i % 13]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("R", &["a", "b"], &refs)).unwrap();
        let size = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
        let mut settled = 0;
        for i in 0..8 {
            cat.create_index("R", "a").unwrap();
            assert!(cat.drop_index("R", "a").unwrap());
            cat.wal_checkpoint().unwrap();
            if i == 2 {
                settled = size(&path);
            }
        }
        assert_eq!(size(&path), settled, "index churn reuses freed pages");
        clean(&path);
    }

    #[test]
    fn transaction_commit_is_atomic_and_rollback_restores() {
        use tmql_model::Value;
        let path = scratch("txn");
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("base", &["a"], &[&[1]])).unwrap();

        // Rolled-back transaction: nothing survives, not even in memory.
        cat.begin().unwrap();
        assert!(cat.in_transaction());
        cat.register(int_table("R", &["a"], &[&[1], &[2]])).unwrap();
        cat.create_index("R", "a").unwrap();
        cat.replace(int_table("base", &["a"], &[&[9]])).unwrap();
        assert_eq!(cat.table("R").unwrap().len(), 2, "txn sees its writes");
        cat.rollback().unwrap();
        assert!(!cat.in_transaction());
        assert!(cat.table("R").is_err());
        assert!(cat.index_on("R", "a").is_none());
        assert_eq!(cat.stats("base").unwrap().cardinality, 1);

        // Committed transaction: all three statements land together.
        cat.begin().unwrap();
        assert!(cat.begin().is_err(), "nested transactions rejected");
        assert!(cat.sync().is_err(), "sync blocked inside a transaction");
        cat.register(int_table("R", &["a"], &[&[1], &[2]])).unwrap();
        cat.create_index("R", "a").unwrap();
        cat.replace(int_table("base", &["a"], &[&[9]])).unwrap();
        cat.commit().unwrap();
        assert!(cat.commit().is_err(), "no transaction left to commit");
        drop(cat);

        let cat = Catalog::open(&path, 16).unwrap();
        assert_eq!(cat.table("R").unwrap().len(), 2);
        assert_eq!(
            cat.index_on("R", "a").unwrap().probe_eq(&Value::Int(2)),
            vec![1]
        );
        assert_eq!(cat.stats("base").unwrap().cardinality, 1);
        assert_eq!(
            cat.table("base").unwrap().batch(0, 1).unwrap()[0]
                .get("a")
                .unwrap(),
            &Value::Int(9)
        );
        clean(&path);
    }

    #[test]
    fn rollback_gives_back_the_very_indexes_and_statistics_it_found() {
        // A snapshot shares what it snapshots: `begin` bumps reference
        // counts whatever the index holds, and a rollback restores the
        // same allocations, not copies of them.
        let path = scratch("txn-shared");
        let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i, i % 13]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("R", &["a", "b"], &refs)).unwrap();
        cat.create_index("R", "b").unwrap();
        let index: *const OrdIndex = cat.index_on("R", "b").unwrap();
        let stats: *const TableStats = cat.stats("R").unwrap();

        cat.begin().unwrap();
        cat.replace(int_table("R", &["a", "b"], &[&[1, 2]]))
            .unwrap();
        cat.create_index("R", "a").unwrap();
        assert!(!std::ptr::eq(cat.index_on("R", "b").unwrap(), index));
        assert_eq!(cat.stats("R").unwrap().cardinality, 1);
        cat.rollback().unwrap();

        assert!(std::ptr::eq(cat.index_on("R", "b").unwrap(), index));
        assert!(std::ptr::eq(cat.stats("R").unwrap(), stats));
        assert!(cat.index_on("R", "a").is_none());
        assert_eq!(cat.stats("R").unwrap().cardinality, 300);
        assert_eq!(cat.index_on("R", "b").unwrap().len(), 300);
        clean(&path);
    }

    /// `depth` containers of one kind (a set, else a tuple) around an
    /// integer.
    fn nested(kind: usize, depth: usize) -> tmql_model::Value {
        use tmql_model::Value;
        (0..depth).fold(Value::Int(7), |v, _| match kind {
            0 => Value::set([v]),
            _ => Value::tuple([("f", v)]),
        })
    }

    #[test]
    fn a_row_the_store_could_not_read_back_is_refused_before_it_is_written() {
        // 128 levels is what every decoder follows. One more could be
        // encoded — the encoder cannot fail — and never read again.
        let path = scratch("nesting");
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("keep", &["a"], &[&[1]])).unwrap();
        let deep = |name: &str, kind, depth| {
            let row = Record::new([("n", tmql_model::Value::Int(1)), ("v", nested(kind, depth))]);
            let columns = vec![("n".into(), Ty::Int), ("v".into(), Ty::Any)];
            Table::from_rows(name, columns, [row.unwrap()]).unwrap()
        };
        for kind in 0..2 {
            let before = (cat.free_list_len(), cat.wal_activity());
            let err = cat.register(deep("deep", kind, 129)).unwrap_err();
            assert!(matches!(err, ModelError::SchemaError(_)), "{err}");
            assert!(err.to_string().contains("128"), "{err}");
            assert!(cat.table("deep").is_err());
            assert_eq!((cat.free_list_len(), cat.wal_activity()), before);

            let name = format!("ok{kind}");
            let table = deep(&name, kind, 128);
            let rows = table.rows_vec().unwrap();
            cat.register(table).unwrap();
            assert_eq!(cat.table(&name).unwrap().rows_vec().unwrap(), rows);
        }
        // A column type is held to the same limit.
        let ty = |depth| (0..depth).fold(Ty::Int, |t, _| Ty::Set(Box::new(t)));
        let typed = |depth| Table::new("typed", vec![("s".into(), ty(depth))]);
        let err = cat.register(typed(129)).unwrap_err();
        assert!(matches!(err, ModelError::SchemaError(_)), "{err}");
        cat.register(typed(128)).unwrap();
        drop(cat);
        let cat = Catalog::open(&path, 16).unwrap();
        assert_eq!(cat.table_names().count(), 4, "everything accepted reopens");
        assert_eq!(cat.table("ok1").unwrap().rows_vec().unwrap().len(), 1);
        clean(&path);
    }

    #[test]
    fn failing_statement_aborts_the_enclosing_transaction() {
        use crate::failpoint::IoFailpoint;
        // A two-frame pool forces installs to evict (and so to touch the
        // file), which is where the injected failure lands.
        let path = scratch("txn-abort");
        let mut cat = Catalog::open(&path, 2).unwrap();
        cat.register(int_table("R", &["a"], &[&[1]])).unwrap();
        cat.begin().unwrap();
        cat.replace(int_table("R", &["a"], &[&[2]])).unwrap();
        // A validation failure pre-statement (duplicate register) does
        // not abort the transaction...
        assert!(cat.register(int_table("R", &["a"], &[])).is_err());
        assert!(cat.in_transaction());
        // ...but an I/O failure inside a statement body does.
        let rows: Vec<Vec<i64>> = (0..2000).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let fp = IoFailpoint::kill_at(&path, 0);
        assert!(cat.register(int_table("big", &["a"], &refs)).is_err());
        drop(fp);
        assert!(!cat.in_transaction(), "failed statement aborted the txn");
        assert!(cat.table("big").is_err());
        assert_eq!(cat.stats("R").unwrap().cardinality, 1, "rolled back");
        clean(&path);
    }

    #[test]
    fn transaction_rollback_reclaims_pages() {
        // A big rolled-back register must not leave the file grown after
        // a checkpoint: rollback returns its allocations.
        let path = scratch("txn-reclaim");
        let rows: Vec<Vec<i64>> = (0..400).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(int_table("keep", &["a"], &[&[1]])).unwrap();
        cat.wal_checkpoint().unwrap();
        let size = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
        let before = size(&path);
        for _ in 0..5 {
            cat.begin().unwrap();
            cat.register(int_table("big", &["a"], &refs)).unwrap();
            cat.rollback().unwrap();
        }
        cat.wal_checkpoint().unwrap();
        assert_eq!(size(&path), before, "rolled-back writes reuse no space");
        clean(&path);
    }
}
