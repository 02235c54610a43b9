//! Typed tables with TM set semantics, in memory or disk-backed.
//!
//! A [`Table`] is an ordered schema plus a duplicate-free set of records.
//! Two backings share the type:
//!
//! * **In-memory** (the default): rows live in one [`RecordSet`] — a
//!   vector in insertion order with a hash index over it, so duplicates
//!   are absorbed on [`Table::insert`] and each row is held (and hashed)
//!   once — and a scan hands out reference-counted handles to them.
//! * **Disk-backed**: rows live in slotted pages of a
//!   paged store and stream through its buffer pool; the table holds
//!   only the store handle and its extent. Disk tables are immutable —
//!   they are created by registering an in-memory table into a
//!   persistent [`crate::Catalog`], which writes the rows through the
//!   pool and records the extent durably.
//!
//! The scan API is backing-agnostic: [`Table::batch`] /
//! [`Table::batches`] return owned row batches (a disk fault can fail,
//! so both are fallible), which is what the streaming executor's scan
//! cursor consumes; [`Table::batch_where`] is the same read behind a
//! [`RowTest`], which turns rows down before they are materialized.
//! [`Table::rows_vec`] materializes every row of either backing, and
//! [`Table::mem_rows`] borrows them from an in-memory table.

use std::fmt;
use std::sync::{Arc, Mutex};

use tmql_model::{ModelError, Record, RecordSet, Result, Ty, Value};

use crate::pager::{PageId, PagedStore, TableExtent};
use crate::pretest::RowTest;

/// A table: an ordered schema plus a duplicate-free multiset of records.
///
/// TM extensions are *sets* of complex objects, so inserting an already
/// present record is a no-op. Insertion order of first occurrences is
/// preserved so results print deterministically.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<(String, Ty)>,
    /// One label per column, in column order: every stored row spells
    /// its top-level labels with these `Arc`s.
    labels: Vec<Arc<str>>,
    backing: Backing,
}

#[derive(Debug, Clone)]
enum Backing {
    Mem {
        rows: RecordSet,
    },
    Disk {
        store: Arc<PagedStore>,
        extent: Arc<TableExtent>,
        /// The extent's distinct page ids, sorted once: what
        /// [`Table::page_residency`] counts.
        pages: Arc<[PageId]>,
        /// The last [`Table::page_residency`] answer and the pool epoch
        /// it holds for.
        resident: Arc<Mutex<Option<(u64, usize)>>>,
    },
}

impl Table {
    /// Create an empty in-memory table with the given column schema.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Ty)>) -> Table {
        let rows = RecordSet::default();
        Table::with_backing(name.into(), columns, Backing::Mem { rows })
    }

    fn with_backing(name: String, columns: Vec<(String, Ty)>, backing: Backing) -> Table {
        let labels = columns.iter().map(|(l, _)| Arc::from(l.as_str())).collect();
        Table {
            name,
            columns,
            labels,
            backing,
        }
    }

    /// Build an in-memory table directly from rows, validating each
    /// against the schema.
    pub fn from_rows(
        name: impl Into<String>,
        columns: Vec<(String, Ty)>,
        rows: impl IntoIterator<Item = Record>,
    ) -> Result<Table> {
        let mut t = Table::new(name, columns);
        for r in rows {
            t.insert(r)?;
        }
        Ok(t)
    }

    /// A disk-backed table over an extent already written to `store`
    /// (rows were validated and deduplicated before they hit the pages).
    pub(crate) fn disk(
        name: impl Into<String>,
        columns: Vec<(String, Ty)>,
        store: Arc<PagedStore>,
        extent: Arc<TableExtent>,
    ) -> Table {
        let mut pages: Vec<PageId> = extent.page_ids().collect();
        pages.sort_unstable();
        pages.dedup();
        let backing = Backing::Disk {
            store,
            extent,
            pages: pages.into(),
            resident: Arc::default(),
        };
        Table::with_backing(name.into(), columns, backing)
    }

    /// Table name (usually the extension name, e.g. `EMP`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column schema in declaration order.
    pub fn columns(&self) -> &[(String, Ty)] {
        &self.columns
    }

    /// The column labels in column order: every row [`Table::insert`]
    /// stores spells its top-level labels with these `Arc`s.
    pub fn labels(&self) -> &[Arc<str>] {
        &self.labels
    }

    /// The tuple type of one row.
    pub fn row_ty(&self) -> Ty {
        Ty::Tuple(self.columns.clone())
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Mem { rows, .. } => rows.len(),
            Backing::Disk { extent, .. } => extent.rows as usize,
        }
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff the rows live in pages of a persistent store.
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.backing, Backing::Disk { .. })
    }

    /// Buffer-pool residency of a disk-backed table: `(resident pages,
    /// total pages)`; `None` in memory. Counts only when the pool's
    /// mapping has changed since the last call — every formula of one
    /// planning pass after the first reads the remembered count — and
    /// then from the smaller side (`BufferPool::resident_among`).
    pub fn page_residency(&self) -> Option<(usize, usize)> {
        let Backing::Disk {
            store,
            extent,
            pages,
            resident,
        } = &self.backing
        else {
            return None;
        };
        // The memo is a plain pair, valid whatever a panicking holder did.
        let mut memo = resident.lock().unwrap_or_else(|e| e.into_inner());
        Some((store.resident_pages(pages, &mut memo), extent.page_count()))
    }

    /// The store and extent of a disk-backed table.
    pub(crate) fn disk_parts(&self) -> Option<(&Arc<PagedStore>, &Arc<TableExtent>)> {
        match &self.backing {
            Backing::Mem { .. } => None,
            Backing::Disk { store, extent, .. } => Some((store, extent)),
        }
    }

    /// Insert a record. Returns `Ok(true)` if the record was new,
    /// `Ok(false)` if it was a duplicate (set semantics: silently absorbed),
    /// and an error if it does not match the schema — or if the table is
    /// disk-backed (disk tables are immutable; build in memory and
    /// re-register). The stored row spells its labels with the table's
    /// [`Table::labels`] (`Record::share_labels`), in the row's own field
    /// order.
    pub fn insert(&mut self, row: Record) -> Result<bool> {
        self.validate(&row)?;
        match &mut self.backing {
            Backing::Mem { rows } => Ok(rows.insert(row.share_labels(&self.labels))),
            Backing::Disk { .. } => Err(ModelError::SchemaError(format!(
                "table `{}` is disk-backed and immutable; build a new table and re-register",
                self.name
            ))),
        }
    }

    /// Insert one row given as its values in column order, labelled with
    /// the table's own [`Table::labels`]: [`Table::insert`] of that
    /// record. A value count other than the column count, or a table
    /// whose column names repeat, is a typed error.
    pub fn insert_values(&mut self, values: impl IntoIterator<Item = Value>) -> Result<bool> {
        let mut values = values.into_iter();
        let row = Record::new(self.labels.iter().cloned().zip(values.by_ref()))?;
        if values.next().is_some() {
            return Err(ModelError::SchemaError(format!(
                "table `{}` expects {} columns, row has more",
                self.name,
                self.columns.len()
            )));
        }
        self.insert(row)
    }

    /// Validate a record against the column schema: same label set,
    /// admissible values.
    pub(crate) fn validate(&self, row: &Record) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(ModelError::SchemaError(format!(
                "table `{}` expects {} columns, row has {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (label, ty) in &self.columns {
            let v = row.get(label)?;
            if !ty.admits(v) {
                return Err(ModelError::SchemaError(format!(
                    "column `{}` of table `{}` has type {}, got {}",
                    label, self.name, ty, v
                )));
            }
        }
        Ok(())
    }

    /// Borrow the rows in first-insertion order: `None` for a disk-backed
    /// table, whose rows cannot be borrowed — [`Table::rows_vec`] reads
    /// every backing, and [`Table::batches`] streams it.
    pub fn mem_rows(&self) -> Option<&[Record]> {
        match &self.backing {
            Backing::Mem { rows } => Some(rows.as_slice()),
            Backing::Disk { .. } => None,
        }
    }

    /// All rows, materialized (disk tables stream through the buffer
    /// pool; in-memory tables hand out handles to their shared rows).
    pub fn rows_vec(&self) -> Result<Vec<Record>> {
        match &self.backing {
            Backing::Mem { rows } => Ok(rows.as_slice().to_vec()),
            Backing::Disk { store, extent, .. } => {
                store.read_rows(extent, &self.labels, 0, extent.rows as usize)
            }
        }
    }

    /// Iterate the table as owned batches of at most `n` rows (the
    /// streaming executor's scan granularity). Disk-backed tables stream
    /// pages through the buffer pool one batch at a time, so a fault can
    /// fail — each batch is a `Result`.
    pub fn batches(&self, n: usize) -> impl Iterator<Item = Result<Vec<Record>>> + '_ {
        let n = n.max(1);
        let mut pos = 0usize;
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            match self.batch(pos, n) {
                Ok(batch) if batch.is_empty() => None,
                Ok(batch) => {
                    pos += batch.len();
                    Some(Ok(batch))
                }
                Err(e) => {
                    done = true;
                    Some(Err(e))
                }
            }
        })
    }

    /// The batch of up to `n` rows starting at row offset `start` (empty
    /// when `start` is past the end). Cursor-style access for scan
    /// operators; disk-backed tables fault the needed pages through the
    /// buffer pool.
    pub fn batch(&self, start: usize, n: usize) -> Result<Vec<Record>> {
        Ok(self.batch_where(start, n, &RowTest::default())?.0)
    }

    /// [`Table::batch`] behind a pre-test: visit the up-to-`n` rows from
    /// row offset `start` and return those `test` does not reject — a
    /// **candidate superset** of the rows its selection keeps (see
    /// [`crate::pretest`]) — with the number of rows visited, which is
    /// what advances a scan cursor. A rejected row costs no allocation on
    /// either backing: an in-memory row is tested by reference before its
    /// handle is cloned, a disk row on the bytes of its latched page
    /// before anything is decoded. The test is resolved against the
    /// columns once per call — each label to its position, each `Int` key
    /// to an `i64` — not once per row.
    pub fn batch_where(
        &self,
        start: usize,
        n: usize,
        test: &RowTest,
    ) -> Result<(Vec<Record>, usize)> {
        match &self.backing {
            Backing::Mem { rows } => {
                let rows = rows.as_slice();
                let lo = start.min(rows.len());
                let hi = start.saturating_add(n).min(rows.len());
                let rows = &rows[lo..hi];
                let out = if test.is_empty() {
                    rows.to_vec()
                } else {
                    let kept = rows.iter().filter(|r| !test.rejects_row(r));
                    kept.cloned().collect()
                };
                Ok((out, hi - lo))
            }
            Backing::Disk { store, extent, .. } => {
                let cap = n.min(extent.rows as usize);
                let test = test.resolve(&self.labels);
                store.read_runs(extent, &self.labels, [(start, n)], cap, |row| {
                    !test.rejects(row)
                })
            }
        }
    }

    /// Fetch the rows at the given ascending positions (an index probe's
    /// result). A disk-backed table reads them in one pass over its
    /// extent, consecutive positions as one run.
    pub fn fetch_rows(&self, positions: &[usize]) -> Result<Vec<Record>> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let out = match &self.backing {
            Backing::Mem { rows } => {
                let rows = rows.as_slice();
                let found = positions.iter().filter_map(|&p| rows.get(p).cloned());
                found.collect()
            }
            Backing::Disk { store, extent, .. } => {
                // Consecutive positions as one `(first, length)` run.
                let mut rest = positions;
                let runs = std::iter::from_fn(|| {
                    let start = *rest.first()?;
                    let consecutive = rest.iter().zip(start..).take_while(|(p, q)| *p == q);
                    let len = consecutive.count();
                    rest = &rest[len..];
                    Some((start, len))
                });
                let cap = positions.len();
                store
                    .read_runs(extent, &self.labels, runs, cap, |_| true)?
                    .0
            }
        };
        if out.len() != positions.len() {
            return Err(ModelError::Io(format!(
                "table `{}`: index positions past the end ({} rows)",
                self.name,
                self.len()
            )));
        }
        Ok(out)
    }

    /// Membership test (set semantics makes this well-defined). Constant
    /// time in memory; a scan for disk-backed tables.
    pub fn contains(&self, row: &Record) -> Result<bool> {
        match &self.backing {
            Backing::Mem { rows } => Ok(rows.contains(row)),
            Backing::Disk { .. } => {
                for batch in self.batches(1024) {
                    if batch?.iter().any(|r| r == row) {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Consume the table into its row vector (materializing disk rows).
    pub fn into_rows(self) -> Result<Vec<Record>> {
        match self.backing {
            Backing::Mem { rows } => Ok(rows.into_rows()),
            Backing::Disk { .. } => self.rows_vec(),
        }
    }

    /// Order-insensitive equality of contents (the correct notion of result
    /// equality for set-semantics queries; used pervasively by differential
    /// tests between unnesting strategies and between backings).
    pub fn same_contents(&self, other: &Table) -> Result<bool> {
        fn row_set(t: &Table) -> Result<RecordSet> {
            if let Backing::Mem { rows } = &t.backing {
                return Ok(rows.clone());
            }
            Ok(t.rows_vec()?.into_iter().collect())
        }
        Ok(row_set(self)? == row_set(other)?)
    }

    /// Render as an aligned ASCII table (used by examples to reproduce the
    /// paper's Table 1 layout). An I/O failure on a disk-backed table
    /// renders as an error line rather than failing the display.
    pub fn render(&self) -> String {
        let rows = match self.rows_vec() {
            Ok(rows) => rows,
            Err(e) => return format!("<unreadable table `{}`: {e}>\n", self.name),
        };
        let headers: Vec<String> = self.columns.iter().map(|(l, _)| l.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                headers
                    .iter()
                    .enumerate()
                    .map(|(i, h)| {
                        let s = r.get(h).map(|v| v.to_string()).unwrap_or_default();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let fmt_row = |cols: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cols.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &cells {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} rows)\n{}", self.name, self.len(), self.render())
    }
}

/// Builder ergonomic for tests and workload generators: construct a table
/// of `INT` columns from tuples of integers.
pub fn int_table(name: &str, cols: &[&str], data: &[&[i64]]) -> Table {
    let columns: Vec<(String, Ty)> = cols.iter().map(|c| (c.to_string(), Ty::Int)).collect();
    let mut t = Table::new(name, columns);
    for row in data {
        assert_eq!(row.len(), cols.len(), "int_table row arity mismatch");
        let row = row.iter().map(|&v| Value::Int(v));
        t.insert_values(row).expect("distinct column names");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics_absorbs_duplicates() {
        let mut t = int_table("T", &["a"], &[]);
        let r = Record::new([("a".to_string(), Value::Int(1))]).unwrap();
        assert!(t.insert(r.clone()).unwrap());
        assert!(!t.insert(r).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn memory_table_holds_one_copy_and_scans_hand_out_handles() {
        let mut t = Table::new("T", vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)]);
        // A row that already spells its labels with the table's is stored
        // as it is: the table's copy is the caller's body.
        let values = [Value::Int(1), Value::Int(2)];
        let row = Record::new(t.labels().iter().cloned().zip(values)).unwrap();
        assert!(t.insert(row.clone()).unwrap());
        // The same mapping in another field order is the same row.
        let permuted = Record::new([("b", Value::Int(2)), ("a", Value::Int(1))]).unwrap();
        assert!(!t.insert(permuted.clone()).unwrap());
        assert!(t.contains(&permuted).unwrap());
        let body = |r: &Record| r.fields().as_ptr();
        assert_eq!(t.mem_rows().map(<[Record]>::len), Some(1));
        for scanned in [t.batch(0, 8).unwrap(), t.rows_vec().unwrap()] {
            assert_eq!(body(&scanned[0]), body(&row));
        }
    }

    #[test]
    fn stored_rows_spell_their_labels_with_the_tables() {
        let mut t = Table::new("T", vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)]);
        let fresh = |fields: [(&str, i64); 2]| {
            Record::new(fields.map(|(l, v)| (l.to_string(), Value::Int(v)))).unwrap()
        };
        // Kept by the caller (a shared body, copied once) or not (relabelled
        // in place); in column order or permuted.
        let given = [fresh([("a", 1), ("b", 2)]), fresh([("b", 4), ("a", 3)])];
        for row in &given {
            assert!(t.insert(row.clone()).unwrap());
        }
        assert!(t.insert(fresh([("b", 6), ("a", 5)])).unwrap());
        let given = [&given[0], &given[1], &fresh([("b", 6), ("a", 5)])];
        let stored = t.mem_rows().unwrap();
        assert_eq!(stored.len(), 3);
        for (row, given) in stored.iter().zip(given) {
            assert_eq!(row, given);
            assert_eq!(row.cmp(given), std::cmp::Ordering::Equal);
            assert_eq!(row.structural_hash(), given.structural_hash());
            assert!(row.labels().eq(given.labels()), "field order is kept");
            for (label, _) in row.fields() {
                let column = t.labels().iter().find(|c| **c == *label).unwrap();
                assert!(Arc::ptr_eq(label, column), "`{label}` is not the table's");
            }
        }
        // Second copies are still absorbed, however they are labelled.
        let again = stored[1].clone();
        assert!(!t.insert(fresh([("a", 1), ("b", 2)])).unwrap());
        assert!(!t.insert(again).unwrap());
        assert!(!t.insert_values([Value::Int(5), Value::Int(6)]).unwrap());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn positional_insert_checks_the_row() {
        let mut t = Table::new("T", vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)]);
        assert!(t.insert_values([Value::Int(1), Value::Int(2)]).unwrap());
        assert!(t.insert_values([Value::Int(1)]).is_err());
        assert!(t.insert_values([1, 2, 3].map(Value::Int)).is_err());
        assert!(t.insert_values([Value::Int(1), Value::str("x")]).is_err());
        assert_eq!(t.len(), 1);
        // Repeated column names are a typed error, not a malformed row.
        let mut twice = Table::new("D", vec![("a".into(), Ty::Int), ("a".into(), Ty::Int)]);
        let err = twice.insert_values([Value::Int(1), Value::Int(2)]);
        assert!(matches!(err, Err(ModelError::DuplicateField(l)) if l == "a"));
        assert!(twice.is_empty());
    }

    #[test]
    fn schema_validation() {
        let mut t = Table::new("T", vec![("a".into(), Ty::Int), ("b".into(), Ty::Str)]);
        let bad_arity = Record::new([("a".to_string(), Value::Int(1))]).unwrap();
        assert!(t.insert(bad_arity).is_err());
        let bad_type = Record::new([
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Int(2)),
        ])
        .unwrap();
        assert!(t.insert(bad_type).is_err());
        let good = Record::new([
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::str("x")),
        ])
        .unwrap();
        assert!(t.insert(good).is_ok());
    }

    #[test]
    fn complex_valued_columns() {
        let mut t = Table::new(
            "DEPT",
            vec![
                ("name".into(), Ty::Str),
                ("emps".into(), Ty::Set(Box::new(Ty::Any))),
            ],
        );
        let row = Record::new([
            ("name".to_string(), Value::str("CS")),
            ("emps".to_string(), Value::set([Value::str("ann")])),
        ])
        .unwrap();
        t.insert(row).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn same_contents_is_order_insensitive() {
        let a = int_table("A", &["x"], &[&[1], &[2]]);
        let b = int_table("B", &["x"], &[&[2], &[1]]);
        assert!(a.same_contents(&b).unwrap());
        let c = int_table("C", &["x"], &[&[2]]);
        assert!(!a.same_contents(&c).unwrap());
    }

    #[test]
    fn render_is_aligned() {
        let t = int_table("T", &["col", "b"], &[&[1, 22], &[333, 4]]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn batches_cover_all_rows_without_overlap() {
        let t = int_table("T", &["a"], &[&[1], &[2], &[3], &[4], &[5]]);
        let chunks: Vec<Vec<Record>> = t
            .batches(2)
            .collect::<Result<_>>()
            .expect("in-memory batches");
        assert_eq!(
            chunks.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        let flat: Vec<Record> = chunks.into_iter().flatten().collect();
        assert_eq!(flat.len(), t.len());
        // Zero batch size is clamped, not a panic.
        assert_eq!(t.batches(0).next().unwrap().unwrap().len(), 1);
    }

    #[test]
    fn batch_cursor_access() {
        let t = int_table("T", &["a"], &[&[1], &[2], &[3]]);
        assert_eq!(t.batch(0, 2).unwrap().len(), 2);
        assert_eq!(t.batch(2, 2).unwrap().len(), 1);
        assert!(t.batch(3, 2).unwrap().is_empty());
        assert!(t.batch(usize::MAX, 2).unwrap().is_empty());
    }

    #[test]
    fn contains_after_insert() {
        let t = int_table("T", &["a"], &[&[5]]);
        let r = Record::new([("a".to_string(), Value::Int(5))]).unwrap();
        assert!(t.contains(&r).unwrap());
    }

    #[test]
    fn in_memory_table_reports_no_pages() {
        let t = int_table("T", &["a"], &[&[5]]);
        assert!(!t.is_disk_backed());
        assert_eq!(t.page_residency(), None);
        assert_eq!(t.mem_rows().map(<[Record]>::len), Some(1));
    }
}
