//! Spill files: on-disk runs of records for larger-than-memory execution.
//!
//! The streaming executor's pipeline breakers (hash-join build sides,
//! grouping state, sort buffers, dedup sets) are the only places resident
//! memory grows with the data. When a breaker's state would exceed the
//! configured `memory_budget_rows`, it spills rows here: a [`RunWriter`]
//! serializes records **length-prefixed** into a file under a per-query
//! [`SpillDir`] in the OS temp directory, and a [`RunReader`] streams them
//! back in batches. Files delete themselves when the owning [`SpillFile`]
//! drops, and the whole directory is removed when the [`SpillDir`] drops —
//! a crash leaves at most one stale `tmql-spill-*` directory per process,
//! inside the OS temp dir where it is reclaimed by the platform.
//!
//! # On-disk format
//!
//! A run is a sequence of frames, each `u32` little-endian payload length
//! followed by the payload: one encoded [`Record`]. Values are encoded with
//! a one-byte kind tag followed by the payload (integers and float bits
//! little-endian, strings and labels as `u32` length + UTF-8, containers as
//! `u32` element count + elements). The codec covers the full [`Value`]
//! universe — nested tuples, sets, lists, and variants round-trip exactly,
//! including `NaN` floats (bit-pattern preserved via `to_bits`).

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tmql_model::{ModelError, Record, Result, Value};

use crate::bytes::{put_f64, put_len, put_len_prefixed, put_str, put_u64, put_u8, Reader};

/// Map an I/O failure into the model error type (rendered, since
/// `io::Error` is neither `Clone` nor `PartialEq`).
fn io_err(e: std::io::Error) -> ModelError {
    ModelError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Value / Record codec
// ---------------------------------------------------------------------------

mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STR: u8 = 5;
    pub const TUPLE: u8 = 6;
    pub const SET: u8 = 7;
    pub const LIST: u8 = 8;
    pub const VARIANT: u8 = 9;
}

/// Append the encoding of one value to `out`.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, tag::NULL),
        Value::Bool(false) => put_u8(out, tag::FALSE),
        Value::Bool(true) => put_u8(out, tag::TRUE),
        Value::Int(i) => {
            put_u8(out, tag::INT);
            put_u64(out, *i as u64);
        }
        Value::Float(x) => {
            put_u8(out, tag::FLOAT);
            put_f64(out, *x);
        }
        Value::Str(s) => {
            put_u8(out, tag::STR);
            put_str(out, s);
        }
        Value::Tuple(rec) => {
            put_u8(out, tag::TUPLE);
            encode_fields(out, rec);
        }
        Value::Set(items) => {
            put_u8(out, tag::SET);
            put_len(out, items.len());
            for item in items {
                encode_value(out, item);
            }
        }
        Value::List(items) => {
            put_u8(out, tag::LIST);
            put_len(out, items.len());
            for item in items {
                encode_value(out, item);
            }
        }
        Value::Variant(label, inner) => {
            put_u8(out, tag::VARIANT);
            put_str(out, label);
            encode_value(out, inner);
        }
    }
}

fn encode_fields(out: &mut Vec<u8>, rec: &Record) {
    put_len(out, rec.len());
    for (label, v) in rec.iter() {
        put_str(out, label);
        encode_value(out, v);
    }
}

/// Encode one record as a standalone byte payload (no length prefix —
/// framing is the run writer's job).
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_fields(&mut out, rec);
    out
}

/// Decoder for a stream of records (one spill run, one page batch) that
/// hands every row the label `Arc`s of the rows before it: rows of one
/// schema repeat their labels, so after the first row decoding a label
/// is a byte comparison and a reference-count bump, not an allocation.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    labels: Vec<Arc<str>>,
    /// Where the last hit was: labels recur in a cycle, so the search
    /// starts just past it and usually ends at once.
    next: usize,
}

/// Labels remembered per decoder; more distinct ones than this (not a
/// schema, but bytes can claim anything) are allocated per occurrence.
const MAX_LABELS: usize = 64;

impl RecordDecoder {
    /// Decode one record from an encoded payload (the inverse of
    /// [`encode_record`]). Fails on truncated or malformed bytes, and on
    /// a payload whose containers nest deeper than 128 levels (the budget
    /// every decoder of this crate spends, so that no bytes can exhaust
    /// the stack).
    pub fn decode(&mut self, payload: &[u8]) -> Result<Record> {
        let mut c = Cursor::new(payload, self);
        let rec = c.record()?;
        c.r.finish()?;
        Ok(rec)
    }

    fn intern(&mut self, label: &str) -> Arc<str> {
        let n = self.labels.len();
        for i in (self.next..n).chain(0..self.next) {
            if &*self.labels[i] == label {
                self.next = (i + 1) % n;
                return self.labels[i].clone();
            }
        }
        let label: Arc<str> = Arc::from(label);
        if n < MAX_LABELS {
            self.labels.push(label.clone());
            self.next = 0;
        }
        label
    }
}

/// What the [`Reader`]'s errors call this codec.
const FORMAT: &str = "record";

/// Fewest bytes one encoded value takes (its tag), and one encoded field
/// (an empty label's length prefix, then a value).
const MIN_VALUE_BYTES: usize = 1;
const MIN_FIELD_BYTES: usize = 4 + MIN_VALUE_BYTES;

/// Step over one encoded value without building it.
fn skip_value(r: &mut Reader<'_>) -> Result<()> {
    match r.u8()? {
        tag::NULL | tag::FALSE | tag::TRUE => {}
        tag::INT | tag::FLOAT => {
            r.take(8)?;
        }
        tag::STR => {
            r.bytes()?;
        }
        tag::TUPLE => {
            r.descend()?;
            for _ in 0..r.u32()? {
                r.bytes()?;
                skip_value(r)?;
            }
            r.ascend();
        }
        tag::SET | tag::LIST => {
            r.descend()?;
            for _ in 0..r.u32()? {
                skip_value(r)?;
            }
            r.ascend();
        }
        tag::VARIANT => {
            r.descend()?;
            r.bytes()?;
            skip_value(r)?;
            r.ascend();
        }
        other => return Err(r.err(format_args!("unknown value tag {other}"))),
    }
    Ok(())
}

/// The value behind a fixed-size tag — built without allocating — or
/// `None` for every other tag.
#[inline]
fn scalar(r: &mut Reader<'_>, tag: u8) -> Result<Option<Value>> {
    Ok(Some(match tag {
        tag::NULL => Value::Null,
        tag::FALSE => Value::Bool(false),
        tag::TRUE => Value::Bool(true),
        tag::INT => Value::Int(r.u64()? as i64),
        tag::FLOAT => Value::Float(r.f64()?),
        _ => return Ok(None),
    }))
}

/// The value-level decoder: a [`Reader`] over one payload plus the label
/// interner of the stream it belongs to.
struct Cursor<'a> {
    r: Reader<'a>,
    names: &'a mut RecordDecoder,
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a [u8], names: &'a mut RecordDecoder) -> Cursor<'a> {
        Cursor {
            r: Reader::new(FORMAT, payload),
            names,
        }
    }

    fn value(&mut self) -> Result<Value> {
        let tag = self.r.u8()?;
        if let Some(v) = scalar(&mut self.r, tag)? {
            return Ok(v);
        }
        if tag == tag::STR {
            return Ok(Value::Str(Arc::from(self.r.str()?)));
        }
        self.r.descend()?;
        let v = match tag {
            tag::TUPLE => Value::Tuple(self.record()?),
            // An encoder writes a set in order; `Value::set` re-sorts (one
            // pass over sorted input) so no payload can yield a set that
            // is out of order or holds duplicates.
            tag::SET => Value::set(self.values()?),
            tag::LIST => Value::List(self.values()?),
            tag::VARIANT => {
                let label = self.label()?;
                Value::Variant(label, Box::new(self.value()?))
            }
            other => return Err(self.r.err(format_args!("unknown value tag {other}"))),
        };
        self.r.ascend();
        Ok(v)
    }

    /// A count-prefixed run of values.
    fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.r.count(MIN_VALUE_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(self.value()?);
        }
        Ok(items)
    }

    fn label(&mut self) -> Result<Arc<str>> {
        let label = self.r.str()?;
        Ok(self.names.intern(label))
    }

    fn record(&mut self) -> Result<Record> {
        let n = self.r.count(MIN_FIELD_BYTES)?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let label = self.label()?;
            fields.push((label, self.value()?));
        }
        // A repeated label is malformed bytes, like any other.
        Record::new(fields).map_err(|e| self.r.err(e))
    }
}

/// Decode one value from the front of a payload (the inverse of
/// [`encode_value`]), returning the value and the number of bytes
/// consumed.
pub fn decode_value(payload: &[u8]) -> Result<(Value, usize)> {
    let mut names = RecordDecoder::default();
    let mut c = Cursor::new(payload, &mut names);
    let v = c.value()?;
    Ok((v, payload.len() - c.r.remaining()))
}

/// Read one length-prefixed value — how the catalog image stores
/// statistics min/max and the index blob its keys. The value must fill
/// its length exactly.
pub(crate) fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    let bytes = r.bytes()?;
    match decode_value(bytes)? {
        (v, used) if used == bytes.len() => Ok(v),
        _ => Err(r.err("trailing bytes after an embedded value")),
    }
}

/// Skip-scan an encoded record for its top-level field `label` and decode
/// it **on the stack** when it is NULL, a boolean, an integer or a float.
/// `None` — the caller cannot decide on these bytes — when the label is
/// absent, the field is a string or a container, or the payload is
/// malformed or nested too deep on the way there; whatever is wrong with
/// it is then [`RecordDecoder::decode`]'s to report.
pub(crate) fn scalar_field(payload: &[u8], label: &str) -> Option<Value> {
    let mut r = Reader::new(FORMAT, payload);
    for _ in 0..r.u32().ok()? {
        if r.bytes().ok()? != label.as_bytes() {
            skip_value(&mut r).ok()?;
            continue;
        }
        let tag = r.u8().ok()?;
        return scalar(&mut r, tag).ok()?;
    }
    None
}

/// Decode one standalone record ([`RecordDecoder::decode`] with nothing
/// to share labels with).
pub fn decode_record(payload: &[u8]) -> Result<Record> {
    RecordDecoder::default().decode(payload)
}

// ---------------------------------------------------------------------------
// Spill directory / runs
// ---------------------------------------------------------------------------

static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Bytes of framing before each record of a run: its `u32` length.
const FRAME_LEN_BYTES: usize = 4;

/// A per-query scratch directory under the OS temp dir. Created lazily by
/// the executor the first time anything spills; removed (with everything
/// in it) on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    run_seq: AtomicU64,
}

impl SpillDir {
    /// Create a fresh, uniquely named spill directory.
    pub fn create() -> Result<SpillDir> {
        let unique = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tmql-spill-{}-{unique}", std::process::id()));
        fs::create_dir_all(&path).map_err(io_err)?;
        Ok(SpillDir {
            path,
            run_seq: AtomicU64::new(0),
        })
    }

    /// The directory path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open a new run for writing.
    pub fn create_run(&self) -> Result<RunWriter> {
        let n = self.run_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.path.join(format!("run-{n}.spill"));
        let file = File::create(&path).map_err(io_err)?;
        Ok(RunWriter {
            out: BufWriter::new(file),
            path,
            rows: 0,
        })
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best-effort cleanup; leaking a temp dir is not worth a panic.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// An open spill run being written. Call [`RunWriter::finish`] to flush and
/// turn it into a readable [`SpillFile`].
#[derive(Debug)]
pub struct RunWriter {
    out: BufWriter<File>,
    path: PathBuf,
    rows: u64,
}

impl RunWriter {
    /// Append one record (length-prefixed frame).
    pub fn write(&mut self, rec: &Record) -> Result<()> {
        let mut frame = Vec::with_capacity(64);
        put_len_prefixed(&mut frame, |out| encode_fields(out, rec));
        // One frame is capped at u32::MAX bytes. This also guards every
        // inner length the codec wrote: an overflowing string or container
        // length implies an overflowing payload.
        let payload_len = frame.len() - FRAME_LEN_BYTES;
        if u32::try_from(payload_len).is_err() {
            return Err(ModelError::Io(format!(
                "spill frame too large: one record encodes to {payload_len} bytes (max {})",
                u32::MAX
            )));
        }
        self.out.write_all(&frame).map_err(io_err)?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> Result<SpillFile> {
        self.out.flush().map_err(io_err)?;
        Ok(SpillFile {
            path: self.path,
            rows: self.rows,
        })
    }
}

/// A sealed on-disk run. The file is deleted when this handle drops.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    rows: u64,
}

impl SpillFile {
    /// Number of records in the run.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True iff the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Open the run for a fresh sequential read.
    pub fn reader(&self) -> Result<RunReader> {
        let file = File::open(&self.path).map_err(io_err)?;
        Ok(RunReader {
            input: BufReader::new(file),
            remaining: self.rows,
            decoder: RecordDecoder::default(),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Sequential batched reader over a sealed run.
#[derive(Debug)]
pub struct RunReader {
    input: BufReader<File>,
    remaining: u64,
    decoder: RecordDecoder,
}

impl RunReader {
    /// Records not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read up to `n` records; an empty vector means end of run.
    pub fn read_batch(&mut self, n: usize) -> Result<Vec<Record>> {
        let k = (n as u64).min(self.remaining) as usize;
        let mut out = Vec::with_capacity(k);
        let mut payload = Vec::new();
        for _ in 0..k {
            let mut len_buf = [0u8; FRAME_LEN_BYTES];
            self.input.read_exact(&mut len_buf).map_err(io_err)?;
            let len = Reader::new("spill run", &len_buf).u32()? as usize;
            payload.resize(len, 0);
            self.input.read_exact(&mut payload).map_err(io_err)?;
            out.push(self.decoder.decode(&payload)?);
            self.remaining -= 1;
        }
        Ok(out)
    }

    /// Read the whole remainder of the run.
    pub fn read_all(&mut self) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        loop {
            let batch = self.read_batch(4096)?;
            if batch.is_empty() {
                return Ok(out);
            }
            out.extend(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Record> {
        let nested = Value::tuple([
            ("name", Value::str("ann")),
            ("tags", Value::set([Value::Int(1), Value::Int(2)])),
        ]);
        vec![
            Record::new([("a".to_string(), Value::Int(1)), ("b".to_string(), nested)]).unwrap(),
            Record::new([
                ("a".to_string(), Value::Float(f64::NAN)),
                (
                    "b".to_string(),
                    Value::List(vec![Value::Bool(true), Value::Null]),
                ),
            ])
            .unwrap(),
            Record::new([
                (
                    "a".to_string(),
                    Value::Variant(Arc::from("left"), Box::new(Value::Int(7))),
                ),
                ("b".to_string(), Value::empty_set()),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn codec_round_trips_every_value_kind() {
        for rec in sample_rows() {
            let bytes = encode_record(&rec);
            let back = decode_record(&bytes).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn a_hostile_set_payload_decodes_to_a_well_formed_set_or_an_error() {
        // No encoder writes this: elements out of order and repeated, at
        // two nesting levels. The decoder must hand back a real set —
        // strictly ascending, so `contains` and the merges stay right.
        let hostile_set = |items: &[Value]| {
            let mut bytes = vec![tag::SET];
            put_len(&mut bytes, items.len());
            items.iter().for_each(|v| encode_value(&mut bytes, v));
            bytes
        };
        let ints = [3, 1, 3, 2, 1].map(Value::Int);
        let mut bytes = vec![tag::SET];
        put_len(&mut bytes, 3);
        for inner in [&ints[..], &ints[1..3], &ints[..]] {
            bytes.extend(hostile_set(inner));
        }
        let (v, used) = decode_value(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(v.to_string(), "{{1, 2, 3}, {1, 3}}");
        for inner in v.as_set().unwrap() {
            let s = inner.as_set().unwrap();
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.contains(&Value::Int(3)) && !s.contains(&Value::Int(0)));
        }
        // A length that promises more than the payload holds, and every
        // truncation of a good payload, are errors — never a panic.
        let mut lying = vec![tag::SET];
        put_len(&mut lying, u32::MAX as usize);
        lying.push(tag::NULL);
        assert!(matches!(decode_value(&lying), Err(ModelError::Io(_))));
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_value(&bytes[..cut]),
                Err(ModelError::Io(_))
            ));
        }
    }

    #[test]
    fn nan_float_round_trips_bit_exact() {
        let rec = Record::new([("x".to_string(), Value::Float(f64::NAN))]).unwrap();
        let back = decode_record(&encode_record(&rec)).unwrap();
        match back.get("x").unwrap() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[1, 0, 0, 0, 0, 0, 0, 0, 255]).is_err());
        // Trailing bytes after a well-formed record are an error too.
        let mut bytes = encode_record(&Record::empty());
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }

    #[test]
    fn run_round_trips_and_batches() {
        let dir = SpillDir::create().unwrap();
        let rows = sample_rows();
        let mut w = dir.create_run().unwrap();
        for r in &rows {
            w.write(r).unwrap();
        }
        assert_eq!(w.rows(), 3);
        let file = w.finish().unwrap();
        assert_eq!(file.rows(), 3);
        let mut r = file.reader().unwrap();
        assert_eq!(r.read_batch(2).unwrap().len(), 2);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.read_batch(2).unwrap().len(), 1);
        assert!(r.read_batch(2).unwrap().is_empty(), "EOF is an empty batch");
        // A second reader re-reads from the start.
        let again = file.reader().unwrap().read_all().unwrap();
        assert_eq!(again, rows);
    }

    #[test]
    fn rows_of_one_run_share_their_label_allocations() {
        let row = |i: i64| {
            let inner = Value::tuple([("k", Value::Int(i)), ("v", Value::str("s"))]);
            Record::new([("a", Value::Int(i)), ("b", Value::set([inner]))]).unwrap()
        };
        let dir = SpillDir::create().unwrap();
        let mut w = dir.create_run().unwrap();
        for i in 0..3 {
            w.write(&row(i)).unwrap();
        }
        // Batches of one: the labels outlive a `read_batch` call.
        let mut reader = w.finish().unwrap().reader().unwrap();
        let rows: Vec<Record> = (0..3)
            .map(|_| reader.read_batch(1).unwrap().remove(0))
            .collect();
        let nested = |r: &Record| match r.get("b").unwrap().as_set().unwrap().first() {
            Some(Value::Tuple(t)) => t.clone(),
            other => panic!("expected a tuple, got {other:?}"),
        };
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(*r, row(i as i64));
            for (f, (label, _)) in r.fields().iter().enumerate() {
                assert!(
                    Arc::ptr_eq(label, &rows[0].fields()[f].0),
                    "row {i} `{label}`"
                );
            }
            for (f, (label, _)) in nested(r).fields().iter().enumerate() {
                assert!(Arc::ptr_eq(label, &nested(&rows[0]).fields()[f].0));
            }
        }
        // A standalone decode has nothing to share with.
        let alone = decode_record(&encode_record(&rows[0])).unwrap();
        assert!(!Arc::ptr_eq(&alone.fields()[0].0, &rows[0].fields()[0].0));
    }

    #[test]
    fn decoder_remembers_a_bounded_number_of_labels() {
        let mut decoder = RecordDecoder::default();
        let wide =
            |n: usize| -> Record { (0..n).map(|i| (format!("f{i}"), Value::Int(0))).collect() };
        let bytes = encode_record(&wide(MAX_LABELS + 8));
        let (first, second) = (
            decoder.decode(&bytes).unwrap(),
            decoder.decode(&bytes).unwrap(),
        );
        assert_eq!(first, second);
        assert_eq!(decoder.labels.len(), MAX_LABELS);
        let shared = |i: usize| Arc::ptr_eq(&first.fields()[i].0, &second.fields()[i].0);
        assert!(shared(0) && shared(MAX_LABELS - 1));
        assert!(!shared(MAX_LABELS), "past the cap labels are per-row");
    }

    #[test]
    fn spill_files_and_dir_clean_up_after_themselves() {
        let dir = SpillDir::create().unwrap();
        let dir_path = dir.path().to_path_buf();
        let mut w = dir.create_run().unwrap();
        w.write(&Record::empty()).unwrap();
        let file = w.finish().unwrap();
        let file_path = dir_path.join("run-0.spill");
        assert!(file_path.exists());
        drop(file);
        assert!(!file_path.exists(), "SpillFile removes its file on drop");
        drop(dir);
        assert!(!dir_path.exists(), "SpillDir removes itself on drop");
    }

    #[test]
    fn empty_run_is_fine() {
        let dir = SpillDir::create().unwrap();
        let file = dir.create_run().unwrap().finish().unwrap();
        assert!(file.is_empty());
        assert!(file.reader().unwrap().read_all().unwrap().is_empty());
    }
}
