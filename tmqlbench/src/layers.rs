//! Storage-layer measurements taken around public `tmql-storage` calls on
//! the workload's own table `X` — the numbers the end-to-end rounds blend.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tmql::{Database, Record, Value};
use tmql_model::Result;
use tmql_storage::spill::encode_record;
use tmql_storage::SpillDir;

use crate::stats::median;

/// Rows per batch, the executor's default scan granularity.
const BATCH: usize = 1024;
/// Passes over the table per measurement; the median pass is reported.
const PASSES: usize = 5;
/// Index keys probed.
const PROBES: i64 = 32;

/// Per-row and per-probe storage costs of one loaded workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// `Table::batches` over the whole extent, ns per row (memory clone
    /// or pool fetch + slotted-page decode).
    pub batch_ns_per_row: f64,
    /// `RunWriter::write` + `finish`, ns per row.
    pub spill_write_ns_per_row: f64,
    /// `RunReader::read_batch` to the end of the run, ns per row.
    pub spill_read_ns_per_row: f64,
    /// `OrdIndex::probe_eq` + `Table::fetch_rows`, µs per probe (0
    /// without an index on `X.b`).
    pub index_probe_us: f64,
}

fn scan(db: &Database) -> Result<Vec<Record>> {
    let mut rows = Vec::new();
    for batch in db.catalog().table("X")?.batches(BATCH) {
        rows.extend(batch?);
    }
    Ok(rows)
}

/// Measure the layers under `db`'s table `X`.
pub fn measure(db: &Database) -> Result<Layers> {
    let mut batch = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..PASSES {
        let start = Instant::now();
        rows = scan(db)?;
        batch.push(start.elapsed().as_nanos() as f64 / rows.len().max(1) as f64);
    }
    let n = rows.len().max(1) as f64;

    let dir = SpillDir::create()?;
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let start = Instant::now();
        let mut run = dir.create_run()?;
        for r in &rows {
            run.write(r)?;
        }
        let file = run.finish()?;
        writes.push(start.elapsed().as_nanos() as f64 / n);

        let start = Instant::now();
        let mut reader = file.reader()?;
        while !black_box(reader.read_batch(BATCH)?).is_empty() {}
        reads.push(start.elapsed().as_nanos() as f64 / n);
    }

    let mut probes = Vec::new();
    if let Some(index) = db.catalog().index_on("X", "b") {
        let table = db.catalog().table("X")?;
        for k in 0..PROBES {
            let start = Instant::now();
            let positions = index.probe_eq(&Value::Int(k));
            black_box(table.fetch_rows(&positions)?);
            probes.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Ok(Layers {
        batch_ns_per_row: median(&batch),
        spill_write_ns_per_row: median(&writes),
        spill_read_ns_per_row: median(&reads),
        index_probe_us: median(&probes),
    })
}

/// Bytes on disk (database file + WAL) per byte of live rows in the spill
/// codec — what the page format, the index and the not-yet-reclaimed
/// replaced extents cost in space.
pub fn space_amp(db: &Database, path: &Path) -> Result<f64> {
    let mut live = 0u64;
    for name in db.catalog().table_names() {
        for batch in db.catalog().table(name)?.batches(BATCH) {
            live += batch?
                .iter()
                .map(|r| encode_record(r).len() as u64)
                .sum::<u64>();
        }
    }
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let on_disk: u64 = [path, Path::new(&wal)]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    Ok(on_disk as f64 / live.max(1) as f64)
}
