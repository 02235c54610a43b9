//! The spill tier: runs of records in a query's scratch file, for
//! larger-than-memory execution — and the record/value codec and the
//! frames they share with the pager's pages.
//!
//! The streaming executor's pipeline breakers (hash-join build sides,
//! grouping state, sort buffers, dedup sets) are the only places resident
//! memory grows with the data. When a breaker's state would exceed the
//! configured `memory_budget_rows`, it spills rows here: a [`RunWriter`]
//! encodes them as **frames**, a sealed [`SpillFile`] remembers where the
//! frames went, and a [`RunReader`] streams them back in batches.
//!
//! # The scratch file
//!
//! A query has **one** scratch file ([`SpillDir`]), created in the OS temp
//! directory the first time anything spills and **unlinked at once**: the
//! kernel reclaims it when the last handle closes — after a clean drop, an
//! error, a panic or a `kill -9` alike, nothing is left behind.
//!
//! The file is handed out in 8 KiB **blocks**. A writer gathers whole
//! frames in a buffer of its own and, when the next frame would overflow a
//! block, writes what it has as one **extent** at a block it reserves
//! then; a frame longer than a block goes out alone, over consecutive
//! fresh blocks. A run is its list of extents — an empty run has none and
//! touches no file — and dropping it (and every reader of it) puts its
//! blocks on a free list that later runs of the query draw from, so
//! recursive repartitioning reuses the space of the partitions it
//! consumed. Every read and write is positional: the many runs a statement
//! has open at once — a breaker's partitions, the runs of breakers nested
//! under an `Apply` — interleave their reads and writes without a shared
//! cursor (as writers and readers on other threads could), and the one
//! lock covers the block bookkeeping, taken once per extent. The one write
//! and the one read call consult [`crate::failpoint`] under the name the
//! file was created with.
//!
//! # What is on disk, and what is not
//!
//! An extent is a sequence of frames, each a `u32` little-endian payload
//! length and the payload: a kind byte, then
//!
//! * `0`, **shaped** — the row has the labels of the run's first row, in
//!   that order: only its values follow;
//! * `1`, **full** — any other row (a permuted stored row, the other
//!   operand of a set operation): a whole encoded [`Record`] follows.
//!
//! [`encode_frame`] makes that choice, for a run against its first row's
//! labels and for a data page slot against its table's columns: a page
//! slot holds a frame's payload, its length in the slot.
//!
//! The labels of the first row stay in the run's handle, in memory, with
//! the extent list and the row count. A shaped row read back therefore
//! carries the **same** `Arc<str>` labels as the row that was written —
//! comparisons keep their pointer fast path across a spill — and a frame
//! with one value too few or too many for those labels is an error.
//! Frames are parsed out of the extent where it was read, through the
//! same checked `bytes::Reader` as everything else: a damaged length is a
//! bounds error, not an allocation.
//!
//! # The codec
//!
//! Values are encoded with a one-byte kind tag followed by the payload:
//! an integer as a zigzag LEB128 varint under tag 10 (1 byte for −64 to
//! 63, 10 for the ends of the range), float bits little-endian, strings
//! and labels as `u32` length + UTF-8, containers as a `u32` element
//! count and the elements. Tag 3, an integer in 8 little-endian bytes,
//! is what database format version 1 wrote — pages, index blobs and the
//! catalog statistics of older files hold it — and is read, never
//! written. The codec covers the full [`Value`] universe — nested tuples
//! and sets round-trip exactly, including `NaN` floats (bit-pattern
//! preserved via `to_bits`).
//!
//! A `RecordDecoder` reads a stream of rows — a page batch, a spill run
//! — at about what the rows' bytes cost. A record's fields are decoded
//! straight into its body: a scalar where its tag is read, a container
//! out of line, a set's elements through an accumulator the decoder
//! reuses. A top-level label is compared, as bytes, with the last row's
//! label at the same position; only when they differ is it checked as
//! UTF-8 and interned (nested tuples' labels are always interned), so
//! rows of one schema share their label `Arc`s and validate none after
//! the first. Every label comparison of the codec is the model's
//! in-place one ([`tmql_model::name`]): a label is a few bytes, and a
//! call to `memcmp` costs more than comparing them. Page slots and
//! spill frames share `Cursor::fields`, and a decoder returns for every
//! payload exactly what a fresh one would.
//!
//! The scan pre-test ([`crate::pretest`]) reads no row at all. In a
//! shaped frame it reads the field at its column with `shaped_field`, a
//! walk over the slice that steps over the values before it (scalars and
//! strings inline, an integer's varint read where it lies, a container
//! through the codec's checked skip) and answers `None` for anything it
//! cannot decide, without building an error; in a whole record, and in a
//! full frame, it finds the field by label with `stored_field`, a
//! skip-scan of the encoded fields. Either compares the field where it
//! lies.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tmql_model::{name, ModelError, Record, Result, SetValue, Value};

use crate::bytes::{
    put_f64, put_len, put_len_prefixed, put_str, put_u64, put_u8, put_uvarint, too_deep_to_store,
    Reader, MAX_NESTING,
};
use crate::failpoint::{self, IoOp, WriteCheck};

// ---------------------------------------------------------------------------
// Value / Record codec
// ---------------------------------------------------------------------------

mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    /// An integer in 8 bytes: what version 1 wrote, and still read.
    pub const INT_FIXED: u8 = 3;
    pub(crate) const FLOAT: u8 = 4;
    pub(crate) const STR: u8 = 5;
    pub(crate) const TUPLE: u8 = 6;
    pub(crate) const SET: u8 = 7;
    // 8 and 9 were lists and variants, which older files may hold: they
    // decode as an unknown tag, and must never be reused.
    /// An integer as a zigzag varint, 1 to 10 bytes.
    pub const INT: u8 = 10;
}

/// Whether this thread writes the formats of version 1 (see `v1`): never,
/// outside this crate's tests.
#[cfg(not(test))]
#[inline(always)]
pub(crate) const fn writing_v1() -> bool {
    false
}
/// Zigzag: small magnitudes of either sign to small unsigned numbers
/// (0, −1, 1, −2, … to 0, 1, 2, 3, …), so a varint keeps them short.
#[inline(always)]
fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

#[inline(always)]
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Append the encoding of one value to `out`.
pub(crate) fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, tag::NULL),
        Value::Bool(false) => put_u8(out, tag::FALSE),
        Value::Bool(true) => put_u8(out, tag::TRUE),
        Value::Int(i) if writing_v1() => {
            put_u8(out, tag::INT_FIXED);
            put_u64(out, *i as u64);
        }
        Value::Int(i) => {
            put_u8(out, tag::INT);
            put_uvarint(out, zigzag(*i));
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

/// The first byte of a frame.
pub mod frame {
    /// A row with the run's (or the table's) labels in that order: its
    /// values.
    pub const SHAPED: u8 = 0;
    /// Any other row: a whole encoded record.
    pub const FULL: u8 = 1;
}

/// Append `rec` as a frame's payload against `labels`, the labels of the
/// run or the table it is stored in: a [`frame::SHAPED`] kind and the
/// values alone when the row has exactly those labels in that order, else
/// a [`frame::FULL`] kind and the whole record. The frame's length is its
/// container's to keep: a run writes it in front, a page slot holds it.
pub fn encode_frame(out: &mut Vec<u8>, rec: &Record, labels: &[Arc<str>]) {
    let shaped = rec.len() == labels.len()
        && std::iter::zip(rec.fields(), labels)
            .all(|((l, _), m)| Arc::ptr_eq(l, m) || name::same(l, m));
    if shaped {
        put_u8(out, frame::SHAPED);
        rec.values().for_each(|v| encode_value(out, v));
    } else {
        put_u8(out, frame::FULL);
        encode_fields(out, rec);
    }
}

/// A stored row's bytes, in one of the two forms a data page's slots
/// take (see [`crate::pager::page`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum StoredRow<'a> {
    /// A whole encoded record ([`encode_record`]): a form 0 slot.
    Record(&'a [u8]),
    /// A frame's payload ([`encode_frame`]) against the table's labels:
    /// a form 1 slot.
    Frame(&'a [u8]),
}

impl<'a> StoredRow<'a> {
    /// A slot's bytes as its page's row form says: a frame when the page
    /// `frames`, else a whole record.
    #[inline(always)]
    pub(crate) fn of(frames: bool, bytes: &'a [u8]) -> StoredRow<'a> {
        match frames {
            true => StoredRow::Frame(bytes),
            false => StoredRow::Record(bytes),
        }
    }
}

/// Refuse a row whose values nest more container levels than the decoder
/// will follow ([`MAX_NESTING`]). The language cannot build one, the Rust
/// API can, and the encoder is infallible: unchecked, the row is written
/// and fails on its first read.
pub(crate) fn check_nesting(rec: &Record) -> Result<()> {
    fn fits(v: &Value, budget: u32) -> bool {
        match v {
            Value::Tuple(rec) => budget > 0 && rec.iter().all(|(_, v)| fits(v, budget - 1)),
            Value::Set(items) => budget > 0 && items.iter().all(|v| fits(v, budget - 1)),
            _ => true,
        }
    }
    match rec.iter().all(|(_, v)| fits(v, MAX_NESTING)) {
        true => Ok(()),
        false => Err(too_deep_to_store("value")),
    }
}

/// Decoder for a stream of records (one spill run, one page batch) that
/// hands every row the label `Arc`s of the rows before it: rows of one
/// schema repeat their labels, so after the first row a top-level label
/// is one byte comparison against the last row's label at its position
/// and a reference-count bump — no UTF-8 check, no search, no allocation.
/// Only a label that differs from the last row's is validated and
/// interned.
#[derive(Debug, Default)]
pub(crate) struct RecordDecoder {
    /// The last row's top-level labels by position (the first
    /// [`MAX_LABELS`] of them).
    row: Vec<Arc<str>>,
    /// Every label interned so far, top-level or nested.
    labels: Vec<Arc<str>>,
    /// Where the last hit was: labels recur in a cycle, so the search
    /// starts just past it and usually ends at once.
    next: usize,
    /// Emptied element accumulators, one per depth of set nesting met so
    /// far: a set takes one while its elements decode and hands it back,
    /// so a stream of rows allocates each set's body and nothing else.
    accumulators: Vec<Vec<Value>>,
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
        let mut c = Cursor::new(FORMAT, payload, self);
        let rec = c.record(true)?;
        c.r.finish()?;
        Ok(rec)
    }

    /// Decode the payload of one frame written against `labels` (a run's
    /// first row's, a table's columns): a [`frame::SHAPED`] one holds
    /// exactly their values, and the row is spelled with those `Arc`s; a
    /// [`frame::FULL`] one holds a record as [`RecordDecoder::decode`]
    /// reads it.
    pub(crate) fn decode_frame(&mut self, payload: &[u8], labels: &[Arc<str>]) -> Result<Record> {
        let mut c = Cursor::new(FRAME_FORMAT, payload, self);
        let rec = match c.r.u8()? {
            frame::SHAPED => c.fields(labels.iter().map(Some), false)?,
            frame::FULL => c.record(true)?,
            other => return Err(c.r.err(format_args!("unknown frame kind {other}"))),
        };
        c.r.finish()?;
        Ok(rec)
    }

    /// Decode a stored row of either form; a frame against `labels`. Out
    /// of line: it is the call a page's row loop makes for a row its
    /// pre-test admits, and the loop stays small without it.
    #[inline(never)]
    pub(crate) fn decode_stored(
        &mut self,
        row: StoredRow<'_>,
        labels: &[Arc<str>],
    ) -> Result<Record> {
        match row {
            StoredRow::Record(bytes) => self.decode(bytes),
            StoredRow::Frame(bytes) => self.decode_frame(bytes, labels),
        }
    }

    fn intern(&mut self, label: &str) -> Arc<str> {
        let n = self.labels.len();
        for i in (self.next..n).chain(0..self.next) {
            if name::same(&self.labels[i], label) {
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

/// What the [`Reader`]'s errors call this codec, and its frames.
const FORMAT: &str = "record";
const FRAME_FORMAT: &str = "frame";

/// Fewest bytes one encoded value takes (its tag), and one encoded field
/// (an empty label's length prefix, then a value).
const MIN_VALUE_BYTES: usize = 1;
const MIN_FIELD_BYTES: usize = 4 + MIN_VALUE_BYTES;

/// Step over one encoded value without building it.
fn skip_value(r: &mut Reader<'_>) -> Result<()> {
    let tag = r.u8()?;
    skip_tagged(r, tag)
}

/// [`skip_value`] past the tag: the scalar kinds inline, the rest out of
/// line — on a copy of the reader, so that the caller's never has its
/// address taken and can stay in registers.
#[inline(always)]
fn skip_tagged(r: &mut Reader<'_>, tag: u8) -> Result<()> {
    match tag {
        tag::NULL | tag::FALSE | tag::TRUE => Ok(()),
        tag::INT => r.uvarint().map(drop),
        tag::INT_FIXED | tag::FLOAT => r.take(8).map(drop),
        tag => {
            let mut rest = r.clone();
            skip_variable(&mut rest, tag)?;
            *r = rest;
            Ok(())
        }
    }
}

fn skip_variable(r: &mut Reader<'_>, tag: u8) -> Result<()> {
    match tag {
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
        tag::SET => {
            r.descend()?;
            for _ in 0..r.u32()? {
                skip_value(r)?;
            }
            r.ascend();
        }
        other => return Err(r.err(format_args!("unknown value tag {other}"))),
    }
    Ok(())
}

/// The value-level decoder: a [`Reader`] over one payload plus the label
/// interner of the stream it belongs to.
struct Cursor<'a> {
    r: Reader<'a>,
    names: &'a mut RecordDecoder,
}

impl<'a> Cursor<'a> {
    fn new(format: &'static str, payload: &'a [u8], names: &'a mut RecordDecoder) -> Cursor<'a> {
        Cursor {
            r: Reader::new(format, payload),
            names,
        }
    }

    /// One value: a scalar decoded in place, a container out of line.
    #[inline]
    fn value(&mut self) -> Result<Value> {
        Ok(match self.r.u8()? {
            tag::NULL => Value::Null,
            tag::FALSE => Value::Bool(false),
            tag::TRUE => Value::Bool(true),
            tag::INT => Value::Int(unzigzag(self.r.uvarint()?)),
            tag::INT_FIXED => Value::Int(self.r.u64()? as i64),
            tag::FLOAT => Value::Float(self.r.f64()?),
            tag::STR => Value::Str(Arc::from(self.r.str()?)),
            tag => self.container(tag)?,
        })
    }

    fn container(&mut self, tag: u8) -> Result<Value> {
        self.r.descend()?;
        let v = match tag {
            tag::TUPLE => Value::Tuple(self.record(false)?),
            tag::SET => Value::Set(self.set()?),
            other => return Err(self.r.err(format_args!("unknown value tag {other}"))),
        };
        self.r.ascend();
        Ok(v)
    }

    /// A count-prefixed set. An encoder writes the elements in order;
    /// [`SetValue::drain_from`] sorts again (one pass over sorted input)
    /// so no payload can yield a set that is out of order or holds
    /// duplicates.
    fn set(&mut self) -> Result<SetValue> {
        let n = self.r.count(MIN_VALUE_BYTES)?;
        let mut items = self.names.accumulators.pop().unwrap_or_default();
        items.reserve(n);
        let set = (0..n)
            .try_for_each(|_| self.value().map(|v| items.push(v)))
            .map(|()| SetValue::drain_from(&mut items));
        items.clear();
        self.names.accumulators.push(items);
        set
    }

    fn label(&mut self) -> Result<Arc<str>> {
        let label = self.r.str()?;
        Ok(self.names.intern(label))
    }

    /// The label of a top-level field at position `at`: the last row's
    /// there when the bytes are the same, else validated, interned and
    /// remembered for the next row.
    #[inline]
    fn top_label(&mut self, at: usize) -> Result<Arc<str>> {
        let bytes = self.r.bytes()?;
        match self.names.row.get(at) {
            Some(last) if name::same_bytes(last.as_bytes(), bytes) => Ok(last.clone()),
            _ => self.new_top_label(at, bytes),
        }
    }

    /// [`Cursor::top_label`] when the bytes are not the last row's label.
    #[cold]
    fn new_top_label(&mut self, at: usize, bytes: &[u8]) -> Result<Arc<str>> {
        let label = std::str::from_utf8(bytes)
            .map_err(|e| self.r.err(format_args!("invalid UTF-8: {e}")))?;
        let label = self.names.intern(label);
        let row = &mut self.names.row;
        if at < row.len() {
            row[at] = label.clone();
        } else if at == row.len() && at < MAX_LABELS {
            row.push(label.clone());
        }
        Ok(label)
    }

    /// A count-prefixed record: the one a payload holds (`top`), or a
    /// tuple nested in it.
    fn record(&mut self, top: bool) -> Result<Record> {
        let n = self.r.count(MIN_FIELD_BYTES)?;
        self.fields((0..n).map(|_| None), top)
    }

    /// The record of one field per item of `labels` — the label given, or
    /// read from the bytes ahead of its value — built in place in the
    /// record's body. The labels of a `top` record are read by
    /// [`Cursor::top_label`].
    fn fields<'l>(
        &mut self,
        labels: impl ExactSizeIterator<Item = Option<&'l Arc<str>>>,
        top: bool,
    ) -> Result<Record> {
        // `try_new` drives the iterator to its end; past the first error
        // nothing more is read, and the placeholders are dropped unseen.
        let mut intact = true;
        let built = Record::try_new(labels.enumerate().map(|(at, given)| {
            if !intact {
                return Err(ModelError::Io(String::new()));
            }
            let field = match given {
                Some(label) => Ok(label.clone()),
                None if top => self.top_label(at),
                None => self.label(),
            }
            .and_then(|label| Ok((label, self.value()?)));
            intact = field.is_ok();
            field
        }));
        // A repeated label is malformed bytes, like any other.
        built.map_err(|e| match e {
            ModelError::DuplicateField(_) => self.r.err(e),
            e => e,
        })
    }
}

/// Decode one value from the front of a payload (the inverse of
/// [`encode_value`]), returning the value and the number of bytes
/// consumed.
pub(crate) fn decode_value(payload: &[u8]) -> Result<(Value, usize)> {
    let mut names = RecordDecoder::default();
    let mut c = Cursor::new(FORMAT, payload, &mut names);
    let v = c.value()?;
    Ok((v, payload.len() - c.r.remaining()))
}

/// Read one length-prefixed value — how the index blob stores its keys,
/// and an older catalog image its statistics' min/max. The value must
/// fill its length exactly.
pub(crate) fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    let bytes = r.bytes()?;
    match decode_value(bytes)? {
        (v, used) if used == bytes.len() => Ok(v),
        _ => Err(r.err("trailing bytes after an embedded value")),
    }
}

/// A top-level field of a stored row, read where it lies: nothing of it
/// is on the heap.
pub(crate) enum Stored<'a> {
    /// An integer.
    Int(i64),
    /// A string, its bytes checked as UTF-8.
    Str(&'a str),
    /// NULL, a boolean or a float.
    Scalar(Value),
}

/// Skip-scan an encoded record for its top-level field `label`: the
/// scalar values before it are stepped over inline, strings and
/// containers out of line. `None` — the caller cannot decide on
/// these bytes — when the label is absent, the field is a container or a
/// string that is not UTF-8, or the payload is malformed or nested too
/// deep on the way there; whatever is wrong with it is then
/// [`RecordDecoder::decode`]'s to report.
#[inline]
pub(crate) fn stored_field<'a>(payload: &'a [u8], label: &str) -> Option<Stored<'a>> {
    let mut r = Reader::new(FORMAT, payload);
    for _ in 0..r.u32().ok()? {
        let hit = name::same_bytes(label.as_bytes(), r.bytes().ok()?);
        let tag = r.u8().ok()?;
        if hit {
            let rest = r.take(r.remaining()).ok()?;
            return stored_value(rest, &mut 0, tag);
        }
        skip_tagged(&mut r, tag).ok()?;
    }
    None
}

/// The value at `column` of a [`frame::SHAPED`] frame, given its `values`
/// (the payload past the kind byte): a walk over the slice that steps over
/// the values before it — NULLs, booleans, integers and floats inline, an
/// integer's varint read where it lies, a string by its length — and
/// reads the field as [`stored_field`] reads one. `None` when these bytes
/// cannot decide: the frame holds fewer values, the field is a container
/// or a string that is not UTF-8, or the bytes are malformed on the way.
/// Only a container before the column leaves the loop (for the checked
/// skip of the codec), and nothing builds an error.
#[inline(always)]
pub(crate) fn shaped_field(values: &[u8], column: usize) -> Option<Stored<'_>> {
    let mut at = 0;
    for _ in 0..column {
        let tag = *values.get(at)?;
        at += 1;
        match tag {
            tag::NULL | tag::FALSE | tag::TRUE => {}
            tag::INT => {
                varint(values, &mut at)?;
            }
            tag::INT_FIXED | tag::FLOAT => at += 8,
            tag::STR => at += 4 + u32::from_le_bytes(array(values, at)?) as usize,
            tag::TUPLE | tag::SET => at = skip_container(values, at, tag)?,
            _ => return None,
        }
    }
    let tag = *values.get(at)?;
    at += 1;
    stored_value(values, &mut at, tag)
}

/// The scalar or string under `tag` at `bytes[*at..]`, where it lies;
/// `None` for a container, a string that is not UTF-8, or bytes that end
/// too soon.
#[inline(always)]
fn stored_value<'a>(bytes: &'a [u8], at: &mut usize, tag: u8) -> Option<Stored<'a>> {
    Some(match tag {
        tag::INT => Stored::Int(unzigzag(varint(bytes, at)?)),
        tag::INT_FIXED => Stored::Int(u64::from_le_bytes(array(bytes, *at)?) as i64),
        tag::STR => {
            let len = u32::from_le_bytes(array(bytes, *at)?) as usize;
            let s = bytes.get(*at + 4..*at + 4 + len)?;
            Stored::Str(std::str::from_utf8(s).ok()?)
        }
        tag::FLOAT => Stored::Scalar(Value::Float(f64::from_bits(u64::from_le_bytes(array(
            bytes, *at,
        )?)))),
        tag::NULL => Stored::Scalar(Value::Null),
        tag::FALSE | tag::TRUE => Stored::Scalar(Value::Bool(tag == tag::TRUE)),
        _ => return None,
    })
}

/// The `N` bytes at `bytes[at..]`, if there are that many.
#[inline(always)]
fn array<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// [`Reader::uvarint`] on a slice, read where it lies from `bytes[*at..]`,
/// which it advances past the varint: the same values from the same
/// bytes, overlong and non-canonical spellings alike, and `None` where
/// the reader fails.
#[inline(always)]
fn varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..63).step_by(7) {
        let byte = *bytes.get(*at)?;
        *at += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte < 0x80 {
            return Some(v);
        }
    }
    let last = *bytes.get(*at)?;
    *at += 1;
    (last <= 1).then_some(v | (last as u64) << 63)
}

/// [`shaped_field`]'s step over a tuple or a set at `values[at..]`, past
/// its tag: the codec's checked skip, out of line. Where it ends.
#[inline(never)]
fn skip_container(values: &[u8], at: usize, tag: u8) -> Option<usize> {
    let mut r = Reader::new(FRAME_FORMAT, values.get(at..)?);
    skip_variable(&mut r, tag).ok()?;
    Some(values.len() - r.remaining())
}

/// Decode one standalone record (`RecordDecoder::decode` with nothing
/// to share labels with).
pub fn decode_record(payload: &[u8]) -> Result<Record> {
    RecordDecoder::default().decode(payload)
}

// ---------------------------------------------------------------------------
// The scratch file
// ---------------------------------------------------------------------------

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// The unit the scratch file is handed out and taken back in, and about
/// how many bytes of frames a writer gathers before it writes them.
const BLOCK: usize = 8 * 1024;

/// One write of a run: `len` bytes of whole frames at the start of
/// `len.div_ceil(BLOCK)` consecutive blocks, the first at index `block`.
#[derive(Debug, Clone, Copy)]
struct Extent {
    block: u64,
    len: usize,
}

impl Extent {
    fn offset(&self) -> u64 {
        self.block * BLOCK as u64
    }

    fn blocks(&self) -> u64 {
        self.len.div_ceil(BLOCK) as u64
    }
}

/// Which blocks of the scratch file are in nobody's run.
#[derive(Debug, Default)]
struct Blocks {
    /// Blocks `0..end` have been handed out at least once.
    end: u64,
    /// Blocks of dropped runs, handed out again before the file grows.
    free: Vec<u64>,
}

/// One query's scratch file, shared by its [`SpillDir`] and every run in
/// it. All I/O is positional, so writers and readers on any thread share
/// no cursor; the lock guards block bookkeeping, taken once per extent.
#[derive(Debug)]
struct Scratch {
    file: File,
    /// The name the file was created under and lost at once: what a
    /// failpoint matches and an error message shows.
    name: PathBuf,
    blocks: Mutex<Blocks>,
}

/// An I/O failure on the scratch file created as `name` (rendered, since
/// `io::Error` is neither `Clone` nor `PartialEq`).
fn scratch_err(name: &Path, e: impl std::fmt::Display) -> ModelError {
    ModelError::Io(format!("spill file {}: {e}", name.display()))
}

impl Scratch {
    fn err(&self, e: impl std::fmt::Display) -> ModelError {
        scratch_err(&self.name, e)
    }

    fn blocks(&self) -> MutexGuard<'_, Blocks> {
        // Every update leaves the bookkeeping valid, so a panic elsewhere
        // under the lock is no reason to stop handing out blocks.
        self.blocks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Set aside room for `len` bytes: one block comes off the free list
    /// when there is one, a longer stretch is always fresh.
    fn reserve(&self, len: usize) -> Extent {
        let n = len.div_ceil(BLOCK) as u64;
        let mut blocks = self.blocks();
        let recycled = if n == 1 { blocks.free.pop() } else { None };
        let block = recycled.unwrap_or_else(|| {
            let fresh = blocks.end;
            blocks.end += n;
            fresh
        });
        Extent { block, len }
    }

    fn release(&self, extents: &[Extent]) {
        let mut blocks = self.blocks();
        for e in extents {
            blocks.free.extend(e.block..e.block + e.blocks());
        }
    }

    /// The one write call of the spill tier.
    fn write(&self, at: Extent, bytes: &[u8]) -> Result<()> {
        let op = IoOp::SpillWrite(bytes.len());
        let allowed = match failpoint::check_write(&self.name, op, bytes.len())? {
            WriteCheck::Full => bytes.len(),
            WriteCheck::Torn(n) => n,
        };
        self.file
            .write_all_at(&bytes[..allowed], at.offset())
            .map_err(|e| self.err(e))?;
        if allowed < bytes.len() {
            return Err(self.err("injected crash (torn spill write)"));
        }
        Ok(())
    }

    /// The one read call of the spill tier: `buf` becomes the extent.
    fn read(&self, from: Extent, buf: &mut Vec<u8>) -> Result<()> {
        failpoint::check_read(&self.name)?;
        buf.resize(from.len, 0);
        self.file
            .read_exact_at(buf, from.offset())
            .map_err(|e| self.err(e))
    }
}

/// A query's scratch space: one file, created by the executor the first
/// time anything spills. (The name is from when it was a directory of
/// run files.)
#[derive(Debug)]
pub struct SpillDir {
    scratch: Arc<Scratch>,
}

impl SpillDir {
    /// Create the scratch file under the OS temp directory and unlink it
    /// at once: it lives exactly as long as the handles onto it.
    pub fn create() -> Result<SpillDir> {
        let unique = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = std::env::temp_dir().join(format!("tmql-spill-{}-{unique}", std::process::id()));
        failpoint::check_sync(&name, IoOp::SpillCreate)?;
        let scratch = Scratch {
            file: File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&name)
                .map_err(|e| scratch_err(&name, e))?,
            name,
            blocks: Mutex::default(),
        };
        std::fs::remove_file(&scratch.name).map_err(|e| scratch.err(e))?;
        Ok(SpillDir {
            scratch: Arc::new(scratch),
        })
    }

    /// Open a new run for writing. Touches no file: an empty run never
    /// does.
    pub fn create_run(&self) -> Result<RunWriter> {
        Ok(RunWriter {
            run: Run {
                scratch: Arc::clone(&self.scratch),
                extents: Vec::new(),
                labels: Vec::new(),
                rows: 0,
            },
            buf: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// What the [`Reader`]'s errors call the framing of a run.
const RUN_FORMAT: &str = "spill run";

/// A run whose extents and row count disagree.
fn run_err(what: impl std::fmt::Display) -> ModelError {
    ModelError::Io(format!("{RUN_FORMAT} decode: {what}"))
}

/// Bytes of framing before each frame's kind: its `u32` length.
const FRAME_LEN_BYTES: usize = 4;

/// What a run is besides its bytes: where they are, and what they leave
/// out. Dropping it gives the blocks back.
#[derive(Debug)]
struct Run {
    scratch: Arc<Scratch>,
    extents: Vec<Extent>,
    /// The labels of the run's first row, in its order.
    labels: Vec<Arc<str>>,
    rows: u64,
}

impl Drop for Run {
    fn drop(&mut self) {
        self.scratch.release(&self.extents);
    }
}

/// An open spill run being written. Call [`RunWriter::finish`] to flush and
/// turn it into a readable [`SpillFile`].
#[derive(Debug)]
pub struct RunWriter {
    run: Run,
    /// Whole frames not yet written.
    buf: Vec<u8>,
}

impl RunWriter {
    /// Append one record as one frame.
    pub fn write(&mut self, rec: &Record) -> Result<()> {
        if self.run.rows == 0 {
            self.run.labels = rec.fields().iter().map(|(l, _)| l.clone()).collect();
            self.buf.reserve(BLOCK);
        }
        let start = self.buf.len();
        let labels = &self.run.labels;
        put_len_prefixed(&mut self.buf, |out| encode_frame(out, rec, labels));
        // One frame is capped at u32::MAX bytes. This also guards every
        // inner length the codec wrote: an overflowing string or container
        // length implies an overflowing payload.
        let payload_len = self.buf.len() - start - FRAME_LEN_BYTES;
        if u32::try_from(payload_len).is_err() {
            self.buf.truncate(start);
            return Err(ModelError::Io(format!(
                "spill frame too large: one record encodes to {payload_len} bytes (max {})",
                u32::MAX
            )));
        }
        self.run.rows += 1;
        if self.buf.len() > BLOCK {
            // The frames before this one fill their block as far as whole
            // frames can; one too long for any block goes out by itself.
            self.flush(start)?;
            if self.buf.len() > BLOCK {
                self.flush(self.buf.len())?;
            }
        }
        Ok(())
    }

    /// Write the first `len` buffered bytes as one extent.
    fn flush(&mut self, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let extent = self.run.scratch.reserve(len);
        self.run.extents.push(extent);
        self.run.scratch.write(extent, &self.buf[..len])?;
        self.buf.drain(..len);
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.run.rows
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> Result<SpillFile> {
        self.flush(self.buf.len())?;
        Ok(SpillFile {
            run: Arc::new(self.run),
        })
    }
}

/// A sealed run. Its blocks of the scratch file are free for other runs
/// once this handle and every reader of it have dropped.
#[derive(Debug)]
pub struct SpillFile {
    run: Arc<Run>,
}

impl SpillFile {
    /// Number of records in the run.
    pub fn rows(&self) -> u64 {
        self.run.rows
    }

    /// True iff the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.run.rows == 0
    }

    /// Open the run for a fresh sequential read.
    pub fn reader(&self) -> Result<RunReader> {
        Ok(RunReader {
            run: Arc::clone(&self.run),
            next_extent: 0,
            buf: Vec::new(),
            pos: 0,
            remaining: self.run.rows,
            decoder: RecordDecoder::default(),
        })
    }
}

/// Sequential batched reader over a sealed run, which it keeps alive.
#[derive(Debug)]
pub struct RunReader {
    run: Arc<Run>,
    /// The extent to load when `buf` is used up.
    next_extent: usize,
    /// The extent being read, and how much of it is consumed.
    buf: Vec<u8>,
    pos: usize,
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
        while out.len() < k {
            if self.pos == self.buf.len() {
                let Some(&extent) = self.run.extents.get(self.next_extent) else {
                    let missing = k - out.len();
                    return Err(run_err(format_args!("the run ends {missing} rows early")));
                };
                self.run.scratch.read(extent, &mut self.buf)?;
                self.next_extent += 1;
                self.pos = 0;
            }
            let mut frames = Reader::new(RUN_FORMAT, &self.buf[self.pos..]);
            while out.len() < k && frames.remaining() > 0 {
                let payload = frames.bytes()?;
                out.push(self.decoder.decode_frame(payload, &self.run.labels)?);
            }
            self.pos = self.buf.len() - frames.remaining();
        }
        self.remaining -= k as u64;
        let unread = self.buf.len() - self.pos;
        if self.remaining == 0 && (unread > 0 || self.next_extent < self.run.extents.len()) {
            return Err(run_err("bytes left after the last row"));
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

/// The field readers the pre-test had before [`shaped_field`]: a checked
/// [`Reader`] over the row, its values skipped by [`skip_value`] and the
/// field read through the reader. Kept as the reference the walker, and
/// [`stored_field`]'s reading of the field, are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The top-level field `label` of an encoded record.
    pub(crate) fn stored_field<'a>(payload: &'a [u8], label: &str) -> Option<Stored<'a>> {
        let mut r = Reader::new(FORMAT, payload);
        for _ in 0..r.u32().ok()? {
            let hit = name::same_bytes(label.as_bytes(), r.bytes().ok()?);
            let tag = r.u8().ok()?;
            if hit {
                return stored_value(&mut r, tag);
            }
            skip_tagged(&mut r, tag).ok()?;
        }
        None
    }

    /// The field `label`, at `column` among the labels a frame was
    /// written against, of a frame's whole `payload`.
    pub(crate) fn stored_frame_field<'a>(
        payload: &'a [u8],
        label: &str,
        column: Option<usize>,
    ) -> Option<Stored<'a>> {
        let (&kind, rest) = payload.split_first()?;
        match kind {
            frame::SHAPED => {
                let mut r = Reader::new(FRAME_FORMAT, rest);
                for _ in 0..column? {
                    skip_value(&mut r).ok()?;
                }
                let tag = r.u8().ok()?;
                stored_value(&mut r, tag)
            }
            frame::FULL => stored_field(rest, label),
            _ => None,
        }
    }

    fn stored_value<'a>(r: &mut Reader<'a>, tag: u8) -> Option<Stored<'a>> {
        match tag {
            tag::INT => Some(Stored::Int(unzigzag(r.uvarint().ok()?))),
            tag::INT_FIXED => Some(Stored::Int(r.u64().ok()? as i64)),
            tag::STR => std::str::from_utf8(r.bytes().ok()?).ok().map(Stored::Str),
            tag::FLOAT => Some(Stored::Scalar(Value::Float(r.f64().ok()?))),
            tag::NULL => Some(Stored::Scalar(Value::Null)),
            tag::FALSE | tag::TRUE => Some(Stored::Scalar(Value::Bool(tag == tag::TRUE))),
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) use v1::writing as writing_v1;

/// Version 1's writers, for the tests that build a file as an older build
/// left it: an `Int` under tag 3 and data pages of whole records (form 0).
/// Per thread.
#[cfg(test)]
pub(crate) mod v1 {
    use std::cell::Cell;

    thread_local! {
        static WRITING: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn writing() -> bool {
        WRITING.with(Cell::get)
    }

    /// Run `f` with this thread writing version 1.
    pub(crate) fn write<T>(f: impl FnOnce() -> T) -> T {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                WRITING.with(|w| w.set(false));
            }
        }
        WRITING.with(|w| w.set(true));
        let _reset = Reset;
        f()
    }
}

#[cfg(test)]
impl SpillDir {
    /// A sealed run of `rows` rows with `labels` whose one extent is
    /// `bytes`, whatever they hold: how a damaged scratch file looks to a
    /// reader.
    pub(crate) fn run_of_bytes(&self, bytes: &[u8], labels: &[&str], rows: u64) -> SpillFile {
        let mut w = self.create_run().unwrap();
        w.buf.extend_from_slice(bytes);
        w.run.labels = labels.iter().map(|l| Arc::from(*l)).collect();
        w.run.rows = rows;
        w.finish().unwrap()
    }
}

#[cfg(test)]
impl SpillFile {
    /// The run's extents as they lie in the scratch file, end to end.
    pub(crate) fn raw(&self) -> Vec<u8> {
        let (mut out, mut buf) = (Vec::new(), Vec::new());
        for &extent in &self.run.extents {
            self.run.scratch.read(extent, &mut buf).unwrap();
            out.extend_from_slice(&buf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_tests::arb_value;
    use proptest::prelude::*;
    use std::sync::Barrier;

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
                    Value::set([Value::Bool(true), Value::Null]),
                ),
            ])
            .unwrap(),
            Record::new([
                ("a".to_string(), Value::str("left")),
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
            |n: usize| Record::new((0..n).map(|i| (format!("f{i}"), Value::Int(0)))).unwrap();
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

    /// Bytes the scratch file has grown to.
    fn scratch_len(dir: &SpillDir) -> u64 {
        dir.scratch.file.metadata().unwrap().len()
    }

    fn write_run(dir: &SpillDir, rows: &[Record]) -> SpillFile {
        let mut w = dir.create_run().unwrap();
        rows.iter().for_each(|r| w.write(r).unwrap());
        w.finish().unwrap()
    }

    /// `(a = i, b = {i, i + 1}, c = "…")`, about 27 bytes a frame.
    fn wide_row(i: i64) -> Record {
        let b = Value::set([Value::Int(i), Value::Int(i + 1)]);
        Record::new([("a", Value::Int(i)), ("b", b), ("c", Value::str("pad"))]).unwrap()
    }

    #[test]
    fn scratch_file_has_no_name_and_an_empty_run_does_no_io() {
        let dir = SpillDir::create().unwrap();
        let name = dir.scratch.name.clone();
        assert!(name.starts_with(std::env::temp_dir()));
        assert!(!name.exists(), "unlinked at once: nothing to clean up");
        let empty = dir.create_run().unwrap().finish().unwrap();
        assert!(empty.run.extents.is_empty());
        assert!(empty.reader().unwrap().read_all().unwrap().is_empty());
        assert_eq!(scratch_len(&dir), 0, "never written");
        // The file lives as long as a handle onto it, not as long as the
        // `SpillDir`.
        let file = write_run(&dir, &[Record::empty()]);
        drop(dir);
        assert_eq!(
            file.reader().unwrap().read_all().unwrap(),
            [Record::empty()]
        );
        assert!(!name.exists());
    }

    #[test]
    fn rows_read_back_carry_the_labels_of_the_rows_written() {
        let dir = SpillDir::create().unwrap();
        // The writer's rows share one set of labels, as a table's do; the
        // last row has equal labels in allocations of its own.
        let first = wide_row(0);
        let mut rows: Vec<Record> = (1..4)
            .map(|i| {
                let values = wide_row(i);
                let fields = std::iter::zip(first.fields(), values.values());
                Record::new(fields.map(|((l, _), v)| (l.clone(), v.clone()))).unwrap()
            })
            .collect();
        rows.insert(0, first.clone());
        rows.push(wide_row(9));
        let back = write_run(&dir, &rows).reader().unwrap().read_all().unwrap();
        assert_eq!(back, rows);
        for (i, r) in back.iter().enumerate() {
            for (f, (label, _)) in r.fields().iter().enumerate() {
                assert!(
                    Arc::ptr_eq(label, &first.fields()[f].0),
                    "row {i} `{label}`"
                );
            }
        }
    }

    /// Rows of three shapes over arbitrary values: `(a, b, s)`, the same
    /// labels permuted, and one label more.
    fn arb_mixed_rows() -> impl Strategy<Value = Vec<Record>> {
        let row =
            (0usize..3, arb_value(), arb_value(), arb_value()).prop_map(|(shape, a, b, s)| {
                let extra = Value::set([a.clone(), Value::Float(f64::NAN), Value::Float(-0.0)]);
                let fields = match shape {
                    0 => vec![("a", a), ("b", b), ("s", s)],
                    1 => vec![("s", s), ("a", a), ("b", b)],
                    _ => vec![("a", a), ("b", b), ("s", s), ("t", extra)],
                };
                Record::new(fields).unwrap()
            });
        prop::collection::vec(row, 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mixed_shape_runs_round_trip_row_for_row_at_every_batch_size(rows in arb_mixed_rows()) {
            let dir = SpillDir::create().unwrap();
            let file = write_run(&dir, &rows);
            for batch in [1, 7, 4096] {
                let mut reader = file.reader().unwrap();
                let mut back = Vec::new();
                loop {
                    let rows = reader.read_batch(batch).unwrap();
                    if rows.is_empty() {
                        break;
                    }
                    prop_assert!(rows.len() <= batch);
                    back.extend(rows);
                }
                prop_assert_eq!(&back, &rows);
                // `==` merges NaN payloads and zero signs; the bytes say
                // those and each row's own label order survived too.
                for (b, r) in back.iter().zip(&rows) {
                    prop_assert_eq!(encode_record(b), encode_record(r));
                }
            }
        }

        /// A decoder carries the last row's labels into the next: whatever
        /// came before, each payload decodes exactly as it would alone — the
        /// same row, or the same error — through label sets and orders that
        /// change, and payloads cut short, with a byte replaced anywhere or in
        /// the first label.
        #[test]
        fn one_decoder_over_a_stream_answers_each_payload_as_a_fresh_one(
            rows in arb_mixed_rows(),
            damage in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 24..25),
        ) {
            let mut stream = RecordDecoder::default();
            for (row, (damage, at, byte)) in rows.iter().zip(damage) {
                let mut bytes = encode_record(row);
                let n = bytes.len();
                match damage {
                    1 => bytes.truncate(at % n),
                    2 => bytes[at % n] = byte,
                    // After the field count and the first label's length.
                    3 => bytes[8] = byte,
                    _ => {}
                }
                let recode = |r: Result<Record>| r.map(|r| encode_record(&r));
                let alone = recode(RecordDecoder::default().decode(&bytes));
                prop_assert_eq!(recode(stream.decode(&bytes)), alone, "{:?}", bytes);
            }
        }
    }

    #[test]
    fn a_frame_larger_than_a_block_takes_blocks_of_its_own() {
        let dir = SpillDir::create().unwrap();
        let big = |c: char| {
            let text: String = std::iter::repeat_n(c, 3 * BLOCK + 17).collect();
            Record::new([("a", Value::Int(1)), ("text", Value::str(&text))]).unwrap()
        };
        let small = Record::new([("a", Value::Int(2)), ("text", Value::str(""))]).unwrap();
        let rows = vec![small.clone(), big('x'), small.clone(), big('y'), small];
        let file = write_run(&dir, &rows);
        let lens: Vec<usize> = file.run.extents.iter().map(|e| e.len).collect();
        assert_eq!(lens.len(), 5, "a big frame shares no extent: {lens:?}");
        assert_eq!(file.run.extents[1].blocks(), 4);
        for batch in [1, 2, 4096] {
            let mut reader = file.reader().unwrap();
            let mut back = Vec::new();
            while back.len() < rows.len() {
                back.extend(reader.read_batch(batch).unwrap());
            }
            assert_eq!(back, rows);
            assert!(reader.read_batch(batch).unwrap().is_empty());
        }
    }

    #[test]
    fn dropped_runs_give_their_blocks_to_later_runs() {
        let dir = SpillDir::create().unwrap();
        let rows: Vec<Record> = (0..4000).map(wide_row).collect();
        let one_run = {
            let file = write_run(&dir, &rows);
            assert!(file.run.extents.len() > 8, "several blocks a run");
            scratch_len(&dir)
        };
        for _ in 0..20 {
            let file = write_run(&dir, &rows);
            assert_eq!(file.reader().unwrap().read_all().unwrap(), rows);
        }
        assert!(
            scratch_len(&dir) <= one_run + BLOCK as u64,
            "21 runs in sequence grew the file from {one_run} to {}",
            scratch_len(&dir)
        );
        // A writer dropped unsealed (an error path) gives back as well.
        let mut w = dir.create_run().unwrap();
        rows.iter().for_each(|r| w.write(r).unwrap());
        drop(w);
        drop(write_run(&dir, &rows));
        assert!(scratch_len(&dir) <= one_run + BLOCK as u64);
    }

    #[test]
    fn writers_and_readers_on_many_threads_share_one_scratch_file() {
        let dir = SpillDir::create().unwrap();
        let rows_of = |seed: i64| -> Vec<Record> { (0..600).map(|i| wide_row(seed + i)).collect() };
        let shared: Vec<SpillFile> = (0..2)
            .map(|s| write_run(&dir, &rows_of(s * 1000)))
            .collect();
        // All six start together: two write (and drop, so blocks change
        // hands) while four read the two sealed runs.
        let start = Barrier::new(6);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (dir, start) = (&dir, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..8 {
                        let rows = rows_of(10_000 * (t + 1) + round);
                        let file = write_run(dir, &rows);
                        assert_eq!(file.reader().unwrap().read_all().unwrap(), rows);
                    }
                });
            }
            for t in 0..4 {
                let (file, start) = (&shared[t % 2], &start);
                let want = rows_of((t as i64 % 2) * 1000);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..8 {
                        let mut reader = file.reader().unwrap();
                        let mut back = Vec::new();
                        while reader.remaining() > 0 {
                            back.extend(reader.read_batch(64).unwrap());
                        }
                        assert_eq!(back, want);
                    }
                });
            }
        });
    }

    #[test]
    fn a_reader_keeps_its_run_after_the_handle_is_gone() {
        let dir = SpillDir::create().unwrap();
        let rows: Vec<Record> = (0..500).map(wide_row).collect();
        let file = write_run(&dir, &rows);
        let mut reader = file.reader().unwrap();
        drop(file);
        // Were the blocks free now, this run would take and overwrite them.
        let other = write_run(&dir, &(500..1000).map(wide_row).collect::<Vec<_>>());
        assert_eq!(reader.read_all().unwrap(), rows);
        drop(other);
    }

    #[test]
    fn empty_run_is_fine() {
        let dir = SpillDir::create().unwrap();
        let file = dir.create_run().unwrap().finish().unwrap();
        assert!(file.is_empty());
        assert!(file.reader().unwrap().read_all().unwrap().is_empty());
    }
}
