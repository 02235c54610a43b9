#![cfg(test)]
//! What outside bytes can and cannot do to this crate's decoders, checked
//! in one place because they all sit on one [`Reader`]:
//!
//! * **the formats did not move** — the bytes of one fixed input per
//!   format, captured at the commit before `bytes.rs` existed, are pinned
//!   as hex literals;
//! * **no bytes panic, hang, overflow the stack or over-allocate** — every
//!   decoder, on arbitrary bytes and on every single-site corruption of a
//!   valid encoding (a byte replaced, a suffix cut, a length or count
//!   overwritten, a chain pointed back at itself), returns `Ok` of a value
//!   that re-encodes to a fixed point or `Err(ModelError::Io)`, having
//!   allocated no more than a fixed multiple of its input;
//! * **valid values round-trip bit-exactly** through the writer and the
//!   reader, over the value universe of `crates/exec/tests/scan_pretest.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tmql_model::{ModelError, Record, Result, Ty, Value};

use crate::bytes::{put_len, put_len_prefixed, put_str, put_u64, Reader, MAX_NESTING};
use crate::index::{decode_index, encode_index, OrdIndex};
use crate::pager::image::{decode_catalog, encode_catalog, CatalogImage, IndexImage, TableImage};
use crate::pager::page::{NO_PAGE, OVF_CAPACITY, PAGE_SIZE};
use crate::pager::store::{Meta, PagedStore, TableExtent};
use crate::pretest::RowTest;
use crate::spill::{
    decode_record, decode_value, encode_record, encode_value, frame, RecordDecoder, SpillDir,
};
use crate::stats::{ColumnStats, Histogram, TableStats};
use crate::wal::{CommitRecord, Wal, WalScan};

// ---------------------------------------------------------------------------
// Allocation metering
// ---------------------------------------------------------------------------

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and the highest
    /// that figure has been, since the last [`peak_alloc`] reset.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, with each thread's live bytes tallied.
struct Metered;

fn tally(delta: isize) {
    // `try_with`: a thread being torn down has no tally left to keep.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are `Cell<isize>`s with
// constant initializers and no destructor, so touching them neither
// allocates nor runs code that could.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Metered = Metered;

/// Run `f` and report the most bytes it had allocated at once, beyond
/// what this thread held when it started.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get) as usize)
}

/// What a decoder may allocate for `len` input bytes. The steepest honest
/// ratio is a container of one-byte elements (a set of NULLs): a
/// `Value` per byte in the vector, as much again while `Value::set` sorts,
/// and the `Record`/`Arc` bodies around them (measured: under 30 bytes
/// per byte). The fixed part covers a re-encoded header page and error
/// messages. A count or length taken on trust would blow through this by
/// orders of magnitude.
fn alloc_budget(len: usize) -> usize {
    2 * PAGE_SIZE + 4 * std::mem::size_of::<Value>() * len
}

// ---------------------------------------------------------------------------
// Fixed inputs of the format goldens
// ---------------------------------------------------------------------------

fn golden_row() -> Record {
    Record::new([
        ("id", Value::Int(-7)),
        ("x", Value::Float(-0.0)),
        ("nan", Value::Float(f64::from_bits(0x7ff8_0000_0000_beef))),
        ("s", Value::str("héllo")),
        ("ok", Value::Bool(true)),
        ("no", Value::Bool(false)),
        ("nil", Value::Null),
        (
            "t",
            Value::tuple([
                ("a", Value::Int(1)),
                ("b", Value::set([Value::Int(2), Value::Int(1)])),
            ]),
        ),
    ])
    .unwrap()
}

fn golden_column(histogram: Option<Histogram>) -> ColumnStats {
    ColumnStats {
        distinct: 3,
        null_fraction: 0.25,
        set_valued_fraction: 0.5,
        avg_set_card: 2.5,
        histogram,
    }
}

fn golden_catalog() -> CatalogImage {
    let histogram = Histogram {
        lo: -1.5,
        hi: 10.0,
        counts: vec![2, 0, 1],
        total: 3,
    };
    let r_stats = TableStats {
        cardinality: 3,
        columns: [
            ("a".to_string(), golden_column(Some(histogram))),
            ("b".to_string(), golden_column(None)),
        ]
        .into_iter()
        .collect(),
    };
    let s_stats = TableStats {
        cardinality: 0,
        columns: [("flag".to_string(), golden_column(None))]
            .into_iter()
            .collect(),
    };
    CatalogImage {
        tables: vec![
            TableImage {
                name: "R".into(),
                columns: vec![
                    ("a".into(), Ty::Int),
                    ("b".into(), Ty::Set(Box::new(Ty::Int))),
                ],
                extent: TableExtent {
                    pages: vec![(1, 2), (2, 1)],
                    rows: 3,
                },
                stats: r_stats,
            },
            TableImage {
                name: "S".into(),
                columns: vec![("flag".into(), Ty::Bool), ("any".into(), Ty::Any)],
                extent: TableExtent::default(),
                stats: s_stats,
            },
        ],
        indexes: vec![IndexImage {
            table: "R".into(),
            attr: "a".into(),
            kind: 0,
            first: 7,
            len: 123,
        }],
    }
}

fn golden_index() -> OrdIndex {
    OrdIndex::from_entries(
        "k",
        [
            (Value::Int(1), vec![0, 5]),
            (Value::Float(1.5), vec![2]),
            (Value::str("z"), vec![3, 4]),
        ],
    )
}

fn golden_commit() -> CommitRecord {
    CommitRecord {
        next_page: 9,
        catalog_first: 7,
        catalog_len: 42,
        free: vec![3, 4],
        freed: vec![5],
    }
}

fn golden_page_image() -> Vec<u8> {
    (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect()
}

fn golden_header() -> Vec<u8> {
    let meta = Meta {
        next_page: 9,
        catalog_first: 7,
        catalog_len: 4242,
    };
    meta.encode(&[3, 4, 8])
}

/// A commit record's payload, as the log frames it.
fn commit_bytes(commit: &CommitRecord) -> Vec<u8> {
    let mut out = Vec::new();
    commit.encode_into(&mut out);
    out
}

/// The WAL file after one batch of a page record and a commit record.
fn golden_wal() -> Vec<u8> {
    let path = scratch_file("golden.wal");
    let mut wal = Wal::open(&path).unwrap();
    let mut batch = wal.batch();
    batch.page(3, &golden_page_image());
    batch.commit(&golden_commit()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// The formats did not move
// ---------------------------------------------------------------------------

// Captured at a7c1ee1, the commit before this crate had one reader and one
// writer. A change to any of these literals is a format change: bump
// `VERSION` and migrate, do not re-capture.
const GOLDEN_RECORD: &str = concat!(
    "0a00000002000000696403f9ffffffffffffff01000000780400000000000000",
    "80030000006e616e04efbe00000000f87f0100000073050600000068c3a96c6c",
    "6f020000006f6b02020000006e6f01030000006e696c00010000007406020000",
    "0001000000610301000000000000000100000062070200000003010000000000",
    "0000030200000000000000010000006c0802000000070000000003ffffffffff",
    "ffff7f010000007609040000006c6566740500000000",
);
const GOLDEN_CATALOG: &str = concat!(
    "0100000003000000456d7003000000454d5002000000040000006e616d650304",
    "0000006b696473050402000000010000006e0303000000616765010100000005",
    "0000005368617065070200000006000000636972636c650204000000706f6c79",
    "060803000000456d700200000001000000520200000001000000610101000000",
    "6205010300000000000000020000000100000002000200000001000300000000",
    "0000000200000001000000610300000000000000010900000003010000000000",
    "00000109000000030300000000000000000000000000d03f000000000000e03f",
    "000000000000c03f000000000000044001000000000000f8bf00000000000024",
    "4003000000020000000000000000000000000000000100000000000000030000",
    "00000000000100000062030000000000000001050000000700000000010e0000",
    "000701000000030400000000000000000000000000d03f000000000000e03f00",
    "0000000000c03f00000000000004400001000000530200000004000000666c61",
    "670003000000616e790900000000000000000000000000000000000000000100",
    "000004000000666c616703000000000000000000000000000000d03f00000000",
    "0000e03f000000000000c03f0000000000000440000100000001000000520100",
    "00006100070000007b00000000000000",
);
/// How many bytes at the end of [`GOLDEN_RECORD`] are its last two fields:
/// `l`, a list `[{}, i64::MAX]` (value tag 8), and `v`, a variant
/// `left("")` (value tag 9). A row without them writes the literal with
/// those bytes cut and a field count of 8, not 10.
const GOLDEN_LIST_VARIANT_BYTES: usize = 43;
/// How many bytes at the front of [`GOLDEN_CATALOG`] are its class and
/// sort sections: the class `Emp` (extension `EMP`) and the sort `Shape`,
/// whose `L Emp` holds a class-type tag. A catalog now writes two zero
/// counts there.
const GOLDEN_SCHEMA_BYTES: usize = 105;
/// Where [`GOLDEN_CATALOG`]'s three columns (`R.a`, `R.b`, `S.flag`) hold
/// their `min`/`max`: the offset and length of the two option encodings
/// (two integers, two sets, two absent tags). A catalog now writes two
/// absent tags there, `00 00`.
const GOLDEN_EXTREMES: [(usize, usize); 3] = [(180, 28), (306, 29), (434, 2)];
/// Where the same three columns hold their empty-set fraction (`0.125`).
/// A catalog now writes `0.0` there.
const GOLDEN_EMPTY_SET_FRACTIONS: [usize; 3] = [224, 351, 452];
const GOLDEN_INDEX: &str = concat!(
    "0300000009000000030100000000000000020000000000000000000000050000",
    "00000000000900000004000000000000f83f0100000002000000000000000600",
    "000005010000007a0200000003000000000000000400000000000000",
);
const GOLDEN_COMMIT: &str = concat!(
    "0209000000070000002a00000000000000020000000300000004000000010000",
    "0005000000",
);
/// Frame header (length, checksum) + kind tag + page id of the page record.
const GOLDEN_WAL_PAGE_HEAD: &str = "052000003f6aac7d68a040680103000000";
const GOLDEN_WAL_COMMIT_FRAME: &str = concat!(
    "25000000f052e24e662609260209000000070000002a00000000000000020000",
    "0003000000040000000100000005000000",
);
/// The header page up to the end of its free list; zeros follow.
const GOLDEN_HEADER_HEAD: &str = concat!(
    "544d514201000020000009000000070000009210000000000000030000000300",
    "00000400000008000000",
);

/// [`GOLDEN_CATALOG`] as the catalog is written now: two zero counts for
/// its class and sort sections, and in each column's statistics two
/// absent option tags for its extremes and a zero empty-set fraction.
fn golden_catalog_now() -> Vec<u8> {
    let legacy = unhex(GOLDEN_CATALOG);
    let mut now = vec![0; 8];
    let mut at = GOLDEN_SCHEMA_BYTES;
    for ((extremes, len), fraction) in GOLDEN_EXTREMES.into_iter().zip(GOLDEN_EMPTY_SET_FRACTIONS) {
        assert!(legacy[extremes] <= 1, "an option tag at {extremes}");
        assert_eq!(legacy[fraction..fraction + 8], 0.125f64.to_le_bytes());
        now.extend_from_slice(&legacy[at..extremes]);
        now.extend_from_slice(&[0, 0]);
        now.extend_from_slice(&legacy[extremes + len..fraction]);
        now.extend_from_slice(&0.0f64.to_le_bytes());
        at = fraction + 8;
    }
    now.extend_from_slice(&legacy[at..]);
    now
}

/// [`GOLDEN_RECORD`] as a row without its list and variant is written.
fn golden_record_now() -> String {
    assert_eq!(&GOLDEN_RECORD[..8], "0a000000", "ten fields");
    let end = GOLDEN_RECORD.len() - 2 * GOLDEN_LIST_VARIANT_BYTES;
    format!("08000000{}", &GOLDEN_RECORD[8..end])
}

#[test]
fn encoded_bytes_are_what_they_were_before_the_shared_writer() {
    assert_eq!(hex(&encode_record(&golden_row())), golden_record_now());
    assert_eq!(
        hex(&encode_catalog(&golden_catalog())),
        hex(&golden_catalog_now())
    );
    assert_eq!(hex(&encode_index(&golden_index())), GOLDEN_INDEX);
    assert_eq!(hex(&commit_bytes(&golden_commit())), GOLDEN_COMMIT);

    let wal = golden_wal();
    let (page_head, rest) = wal.split_at(GOLDEN_WAL_PAGE_HEAD.len() / 2);
    let (image, commit_frame) = rest.split_at(PAGE_SIZE);
    assert_eq!(hex(page_head), GOLDEN_WAL_PAGE_HEAD);
    assert_eq!(image, golden_page_image());
    assert_eq!(hex(commit_frame), GOLDEN_WAL_COMMIT_FRAME);

    let header = golden_header();
    let (head, padding) = header.split_at(GOLDEN_HEADER_HEAD.len() / 2);
    assert_eq!(hex(head), GOLDEN_HEADER_HEAD);
    assert_eq!(header.len(), PAGE_SIZE);
    assert!(padding.iter().all(|&b| b == 0));
}

#[test]
fn the_pinned_bytes_decode_to_their_inputs() {
    assert_eq!(
        decode_record(&unhex(&golden_record_now())).unwrap(),
        golden_row()
    );
    // NaN-free, so `==` on the statistics' floats is meaningful. The
    // class and sort the bytes begin with are read past, and so are each
    // column's extremes and empty-set fraction.
    assert_eq!(
        decode_catalog(&unhex(GOLDEN_CATALOG)).unwrap(),
        golden_catalog()
    );
    assert_eq!(
        decode_catalog(&golden_catalog_now()).unwrap(),
        golden_catalog()
    );
    assert_eq!(
        decode_index("k", &unhex(GOLDEN_INDEX)).unwrap(),
        golden_index()
    );
    assert_eq!(
        decode_commit(&unhex(GOLDEN_COMMIT)).unwrap(),
        golden_commit()
    );
    let (meta, free) = Meta::decode(&golden_header()).unwrap();
    assert_eq!(
        (meta.next_page, meta.catalog_first, meta.catalog_len, free),
        (9, 7, 4242, vec![3, 4, 8])
    );
    let scan = scan_bytes(&golden_wal());
    assert_eq!((scan.txns.len(), scan.discarded_records), (1, 0));
    assert_eq!(scan.txns[0].commit, golden_commit());
    assert_eq!(scan.txns[0].pages, vec![(3, golden_page_image())]);
}

#[test]
fn a_batch_torn_at_any_byte_is_no_transaction_and_takes_no_earlier_one_with_it() {
    // A commit's records are one write. Wherever a crash cuts it, replay
    // finds the transactions before it whole and nothing of this one: its
    // records are checksummed one by one, and the commit record is last.
    let path = scratch_file("torn-batch.wal");
    let mut wal = Wal::open(&path).unwrap();
    wal.batch().commit(&golden_commit()).unwrap();
    let first = wal.bytes() as usize;
    let mut batch = wal.batch();
    batch.page(3, &golden_page_image());
    batch.page(4, &golden_page_image());
    batch
        .commit(&CommitRecord {
            next_page: 11,
            ..golden_commit()
        })
        .unwrap();
    let log = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let frame = GOLDEN_WAL_PAGE_HEAD.len() / 2 + PAGE_SIZE;
    assert_eq!(log.len(), 2 * first + 2 * frame);
    for cut in first..log.len() {
        let scan = scan_bytes(&log[..cut]);
        assert_eq!(scan.txns.len(), 1, "cut at {cut}");
        assert_eq!(scan.txns[0].commit, golden_commit());
        assert!(scan.txns[0].pages.is_empty());
        assert_eq!(scan.discarded_bytes, (cut - first) as u64);
        // The whole page records before the cut, and the record it fell in.
        let whole = ((cut - first) / frame).min(2);
        let torn = usize::from(cut - first > whole * frame);
        assert_eq!(scan.discarded_records, whole + torn, "cut at {cut}");
    }
    let scan = scan_bytes(&log);
    assert_eq!((scan.txns.len(), scan.discarded_bytes), (2, 0));
    assert_eq!(scan.txns[1].pages.len(), 2);
    assert_eq!(scan.txns[1].commit.next_page, 11);
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// A scratch file of this process that no other test uses.
fn scratch_file(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tmql-format-{tag}-{}-{n}", std::process::id()))
}

/// A commit record's payload, kind tag included, as [`Wal::scan`] meets it.
fn decode_commit(payload: &[u8]) -> Result<CommitRecord> {
    let mut r = Reader::new("wal", payload);
    r.u8()?;
    CommitRecord::decode(r)
}

/// [`Wal::scan`] over a log file holding exactly `log`.
fn scan_bytes(log: &[u8]) -> WalScan {
    let path = scratch_file("scan");
    std::fs::write(&path, log).unwrap();
    let scan = Wal::scan(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(scan.discarded_bytes <= log.len() as u64);
    scan
}

/// The log that holds exactly the committed transactions of `log`.
fn committed_log(log: &[u8]) -> Vec<u8> {
    let path = scratch_file("relog");
    let mut wal = Wal::open(&path).unwrap();
    for txn in scan_bytes(log).txns {
        let mut batch = wal.batch();
        for (pid, image) in &txn.pages {
            batch.page(*pid, image);
        }
        batch.commit(&txn.commit).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

// ---------------------------------------------------------------------------
// No bytes panic, hang or over-allocate
// ---------------------------------------------------------------------------

/// A decoder followed by its encoder: bytes in, the canonical bytes of
/// what they decoded to out.
type Recode = fn(&[u8]) -> Result<Vec<u8>>;
/// A format's name and its [`Recode`].
type Decoder = (&'static str, Recode);

/// Every decoder of outside bytes in the crate.
const RECORD: Decoder = ("record", |b| decode_record(b).map(|r| encode_record(&r)));
const VALUE: Decoder = ("value", |b| {
    decode_value(b).map(|(v, _)| {
        let mut out = Vec::new();
        encode_value(&mut out, &v);
        out
    })
});
const CATALOG: Decoder = ("catalog", |b| decode_catalog(b).map(|c| encode_catalog(&c)));
const INDEX: Decoder = ("index", |b| decode_index("k", b).map(|i| encode_index(&i)));
const COMMIT: Decoder = ("commit", |b| decode_commit(b).map(|c| commit_bytes(&c)));
const HEADER: Decoder = ("header", |b| {
    Meta::decode(b).map(|(meta, free)| meta.encode(&free))
});
const LOG: Decoder = ("wal scan", |b| Ok(committed_log(b)));
// One extent of a spill run that remembers `RUN_ROWS` rows and the labels
// `RUN_LABELS`; canonically every frame is a full one, which reads back
// the same whatever the run's labels.
const RUN: Decoder = ("spill run", |b| {
    Ok(read_run(b)?.iter().flat_map(full_frame).collect())
});
const DECODERS: [Decoder; 8] = [RECORD, VALUE, CATALOG, INDEX, COMMIT, HEADER, LOG, RUN];

const RUN_LABELS: [&str; 2] = ["k", "s"];
const RUN_ROWS: u64 = 3;

/// Read `extent` back as the one extent of such a run.
fn read_run(extent: &[u8]) -> Result<Vec<Record>> {
    let run = SpillDir::create()?.run_of_bytes(extent, &RUN_LABELS, RUN_ROWS);
    run.reader()?.read_all()
}

/// `row` framed with its labels, as a run writes a row unlike its first.
fn full_frame(row: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    put_len_prefixed(&mut out, |out| {
        out.push(frame::FULL);
        out.extend(encode_record(row));
    });
    out
}

/// The extent a run of [`RUN_ROWS`] rows writes: the first row and one
/// like it as values only, then the same labels the other way round in a
/// full frame. Returns the bytes and where each frame starts.
fn golden_run() -> (Vec<u8>, [usize; 3]) {
    let s = |items: &[i64]| Value::set(items.iter().map(|&i| Value::Int(i)));
    let row = |k: i64, s: Value| Record::new([("k", Value::Int(k)), ("s", s)]).unwrap();
    let permuted = Record::new([("s", Value::Null), ("k", Value::str("z"))]).unwrap();
    let rows = [row(1, s(&[2, 3])), row(-1, s(&[])), permuted];
    let dir = SpillDir::create().unwrap();
    let mut w = dir.create_run().unwrap();
    rows.iter().for_each(|r| w.write(r).unwrap());
    let run = w.finish().unwrap();
    assert_eq!(run.reader().unwrap().read_all().unwrap(), rows);
    let bytes = run.raw();
    let mut frames = Reader::new("spill run", &bytes);
    let starts = [(); 3].map(|()| {
        let start = bytes.len() - frames.remaining();
        frames.bytes().unwrap();
        start
    });
    let kind = |i: usize| bytes[starts[i] + 4];
    assert_eq!(
        [kind(0), kind(1), kind(2)],
        [frame::SHAPED, frame::SHAPED, frame::FULL]
    );
    (bytes, starts)
}

/// The contract on one input: `Ok` of something whose encoding decodes to
/// itself, or `Err(ModelError::Io)`; within the allocation budget.
fn check((format, recode): Decoder, input: &[u8]) {
    let (result, peak) = peak_alloc(|| recode(input));
    assert!(
        peak <= alloc_budget(input.len()),
        "{format}: {peak} bytes allocated for {} bytes of input {}",
        input.len(),
        hex(&input[..input.len().min(64)])
    );
    match result {
        Ok(canonical) => assert_eq!(
            recode(&canonical).as_ref(),
            Ok(&canonical),
            "{format}: decoded to a value that does not survive its own encoding"
        ),
        Err(ModelError::Io(_)) => {}
        Err(other) => panic!("{format}: malformed bytes must be an Io error, got {other:?}"),
    }
}

/// Every single-site corruption of `valid` at the offsets in `sites`:
/// the byte replaced (by every tag value of every format, the sign-bit
/// neighbours, and its own low bit flipped), a `u32` overwritten (by the
/// largest count, the largest positive one, and one more than the bytes
/// that follow), and everything from there on cut off.
fn check_corruptions(decoder: Decoder, valid: &[u8], sites: impl Iterator<Item = usize>) {
    check(decoder, valid);
    for at in sites {
        check(decoder, &valid[..at]);
        let mut bytes = valid.to_vec();
        for replacement in (0..=10).chain([0x7f, 0x80, 0xff, valid[at] ^ 1]) {
            bytes[at] = replacement;
            check(decoder, &bytes);
        }
        bytes[at] = valid[at];
        if at + 4 <= valid.len() {
            let after = (valid.len() - at - 4) as u32;
            for claim in [u32::MAX, i32::MAX as u32, after + 1] {
                bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                check(decoder, &bytes);
            }
        }
    }
}

#[test]
fn no_corruption_of_a_valid_encoding_panics_or_over_allocates() {
    let everywhere = |bytes: &[u8]| 0..bytes.len();
    let record = encode_record(&golden_row());
    check_corruptions(RECORD, &record, everywhere(&record));
    // The same bytes behind a tuple tag are a value.
    let value = [&[6u8][..], &record].concat();
    check_corruptions(VALUE, &value, everywhere(&value));
    let catalog = encode_catalog(&golden_catalog());
    check_corruptions(CATALOG, &catalog, everywhere(&catalog));
    // An older catalog, with a class, a sort and values for extremes.
    let legacy = unhex(GOLDEN_CATALOG);
    check_corruptions(CATALOG, &legacy, everywhere(&legacy));
    // A row an older file holds, with a list and a variant in it.
    let legacy = unhex(GOLDEN_RECORD);
    check_corruptions(RECORD, &legacy, everywhere(&legacy));
    let index = encode_index(&golden_index());
    check_corruptions(INDEX, &index, everywhere(&index));
    let commit = commit_bytes(&golden_commit());
    check_corruptions(COMMIT, &commit, everywhere(&commit));
    // The header's fields and free list; the zero padding after them is
    // never read.
    check_corruptions(
        HEADER,
        &golden_header(),
        0..GOLDEN_HEADER_HEAD.len() / 2 + 8,
    );
    // The log's two frame headers and the whole commit frame; a flipped
    // byte inside the page image is one checksum mismatch like another.
    let log = golden_wal();
    let commit_frame = log.len() - GOLDEN_WAL_COMMIT_FRAME.len() / 2;
    check_corruptions(LOG, &log, (0..24).chain(commit_frame..log.len()));
    // Every byte of both kinds of frame: the lengths, the kinds, the
    // values a shaped frame holds and the record a full one does.
    let (run, _) = golden_run();
    check_corruptions(RUN, &run, everywhere(&run));
}

#[test]
fn a_damaged_run_is_an_io_error_whichever_way_its_frames_and_its_handle_disagree() {
    let (run, [_, second, third]) = golden_run();
    let read = |bytes: &[u8]| {
        let (result, peak) = peak_alloc(|| read_run(bytes));
        assert!(peak <= alloc_budget(bytes.len()), "{peak} bytes allocated");
        result
    };
    let expect = |bytes: &[u8], what: &str| match read(bytes) {
        Err(ModelError::Io(msg)) => assert!(msg.contains(what), "{msg}: expected {what}"),
        other => panic!("expected an error about {what}, got {other:?}"),
    };
    assert_eq!(read(&run).unwrap().len(), 3);
    // A length that claims the rest of the address space: refused against
    // the extent, before anything is allocated for it.
    let mut lying = run.clone();
    lying[second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    expect(&lying, "truncated");
    // The tail cut off: inside a frame, and between two.
    expect(&run[..run.len() - 1], "truncated");
    expect(&run[..third], "ends 1 rows early");
    // A frame more than the handle counts, and stray bytes.
    expect(
        &[&run[..], &run[third..]].concat(),
        "bytes left after the last row",
    );
    expect(
        &[&run[..], &[0][..]].concat(),
        "bytes left after the last row",
    );
    // A shaped frame holds one value per label of the run: one fewer is
    // not a short row, one more is not dropped or padded.
    let shaped = |values: &[Value]| {
        let mut frame = Vec::new();
        put_len_prefixed(&mut frame, |out| {
            out.push(frame::SHAPED);
            values.iter().for_each(|v| encode_value(out, v));
        });
        [&run[..second], &frame, &run[third..]].concat()
    };
    let sevens = [7, 7, 7].map(Value::Int);
    assert_eq!(read(&shaped(&sevens[..2])).unwrap().len(), 3);
    expect(&shaped(&sevens[..1]), "truncated");
    expect(&shaped(&sevens), "trailing bytes");
    // A kind no writer writes.
    let mut unknown = run.clone();
    unknown[second + 4] = 2;
    expect(&unknown, "unknown frame kind 2");
}

/// The counted runs at the front of each format: `(decoder, valid bytes,
/// offset of the count, fewest bytes per counted element)`.
fn leading_counts() -> [(Decoder, Vec<u8>, usize, usize); 6] {
    let commit = commit_bytes(&golden_commit());
    [
        (RECORD, encode_record(&golden_row()), 0, 5),
        (CATALOG, encode_catalog(&golden_catalog()), 0, 12),
        (INDEX, encode_index(&golden_index()), 0, 9),
        // kind (1) + watermark (4) + catalog head (4) + length (8).
        (COMMIT, commit.clone(), 17, 4),
        // ... + the two-entry free list before the freed list's count.
        (COMMIT, commit, 17 + 4 + 2 * 4, 4),
        (HEADER, golden_header(), 26, 4),
    ]
}

#[test]
fn a_count_the_remaining_bytes_cannot_hold_is_refused_without_allocating_for_it() {
    for ((format, recode), mut bytes, at, min_elem_bytes) in leading_counts() {
        let just_over = (bytes.len() - at - 4) / min_elem_bytes + 1;
        for claim in [u32::MAX, just_over as u32] {
            bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            let (result, peak) = peak_alloc(|| recode(&bytes));
            assert!(
                matches!(result, Err(ModelError::Io(_))),
                "{format}: a count of {claim} at {at} gave {result:?}"
            );
            // The error message, and nothing sized by the claim.
            assert!(peak < 1024, "{format}: count {claim} allocated {peak}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_to_a_value_or_an_io_error(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        small in prop::collection::vec(0u8..12, 0..160),
    ) {
        // `small` stays inside the tag and short-length range, so it gets
        // past the first field far more often than uniform bytes do.
        for decoder in DECODERS {
            check(decoder, &bytes);
            check(decoder, &small);
        }
    }
}

// ---------------------------------------------------------------------------
// Valid values round-trip bit-exactly
// ---------------------------------------------------------------------------

/// The scalar universe of `crates/exec/tests/scan_pretest.rs`: every pair
/// a comparison treats specially, plus arbitrary float bit patterns.
fn arb_scalar() -> BoxedStrategy<Value> {
    let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        Just(Value::Int((1 << 53) + 1)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(nan(0)),
        Just(nan(0x8000_0000_0000_0001)),
        any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
        "[a-b]{0,2}".prop_map(Value::str),
    ]
    .boxed()
}

/// Scalars under up to three levels of sets (empty ones included) and
/// tuples.
pub(crate) fn arb_value() -> BoxedStrategy<Value> {
    arb_scalar()
        .prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
                (inner.clone(), inner).prop_map(|(p, q)| Value::tuple([("q", q), ("p", p)])),
            ]
        })
        .boxed()
}

/// A row over a random non-empty subset of three labels, in random order.
fn arb_row() -> impl Strategy<Value = Record> {
    let field = (any::<u64>(), prop::option::of(arb_value()));
    (arb_value(), prop::collection::vec(field, 2..3)).prop_map(|(first, rest)| {
        let mut fields = vec![(0u64, "a", first)];
        for ((order, v), label) in rest.into_iter().zip(["b", "c"]) {
            fields.extend(v.map(|v| (order, label, v)));
        }
        fields.sort_by_key(|(order, ..)| *order);
        Record::new(fields.into_iter().map(|(_, l, v)| (l, v))).unwrap()
    })
}

proptest! {
    #[test]
    fn rows_values_and_indexes_round_trip_bit_exactly(
        rows in prop::collection::vec(arb_row(), 1..4),
    ) {
        // One decoder across the rows, as a run or a page batch has.
        let mut decoder = RecordDecoder::default();
        let mut entries = Vec::new();
        for (pos, row) in rows.iter().enumerate() {
            let bytes = encode_record(row);
            let back = decoder.decode(&bytes).unwrap();
            prop_assert_eq!(&back, row);
            // `==` merges NaN payloads and zero signs; the bytes say those
            // and the label order survived too.
            prop_assert_eq!(encode_record(&back), bytes);
            for (_, v) in row.iter() {
                let mut bytes = Vec::new();
                encode_value(&mut bytes, v);
                prop_assert_eq!(decode_value(&bytes).unwrap(), (v.clone(), bytes.len()));
                entries.push((v.clone(), vec![pos, pos + 7]));
            }
        }
        let index = OrdIndex::from_entries("k", entries);
        let blob = encode_index(&index);
        let back = decode_index("k", &blob).unwrap();
        prop_assert_eq!(encode_index(&back), blob);
        prop_assert_eq!(back, index);
    }

    #[test]
    fn no_corruption_of_a_generated_row_panics_or_over_allocates(row in arb_row()) {
        let bytes = encode_record(&row);
        check_corruptions(RECORD, &bytes, 0..bytes.len());
    }
}

// ---------------------------------------------------------------------------
// No bytes exhaust the stack
// ---------------------------------------------------------------------------

// The record codec's container tags and the catalog's type tags, as the
// formats fix them.
const TUPLE: u8 = 6;
const SET: u8 = 7;
const TY_INT: u8 = 1;
const TY_SET: u8 = 5;
const TY_LIST: u8 = 6;
const TY_VARIANT: u8 = 7;
const TY_CLASS: u8 = 8;

/// The row `(deep = <`depth` containers of `kind` around NULL>, n = 5)`,
/// written without building the value (which could not be dropped).
fn nested_row(kind: u8, depth: usize) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, 2);
    put_str(&mut out, "deep");
    for _ in 0..depth {
        out.push(kind);
        put_len(&mut out, 1);
        if kind == TUPLE {
            put_str(&mut out, "f");
        }
    }
    out.push(0); // NULL
    put_str(&mut out, "n");
    out.extend([3, 5, 0, 0, 0, 0, 0, 0, 0]); // Int(5)
    out
}

/// `depth` set types around `Int`, as the catalog writes a type.
fn nested_ty(depth: usize) -> Vec<u8> {
    let mut out = vec![TY_SET; depth];
    out.push(TY_INT);
    out
}

/// A catalog whose one table, `T`, has no rows and one column of the
/// type written as `ty`.
fn column_catalog(ty: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, 0); // classes
    put_len(&mut out, 0); // sorts
    put_len(&mut out, 1); // tables
    put_str(&mut out, "T");
    put_len(&mut out, 1); // columns
    put_str(&mut out, "c");
    out.extend(ty);
    put_u64(&mut out, 0); // rows
    put_len(&mut out, 0); // extent pages
    put_u64(&mut out, 0); // cardinality
    put_len(&mut out, 0); // column statistics
    put_len(&mut out, 0); // indexes
    out
}

/// A catalog whose one column is `depth` set types around `Int`.
fn nested_type_catalog(depth: usize) -> Vec<u8> {
    column_catalog(&nested_ty(depth))
}

/// A catalog as a class-and-sort schema wrote it: no tables, and one sort
/// of `depth` set types around `Int`.
fn nested_sort_catalog(depth: usize) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, 0); // classes
    put_len(&mut out, 1); // sorts
    put_str(&mut out, "Deep");
    out.extend(nested_ty(depth));
    put_len(&mut out, 0); // tables
    put_len(&mut out, 0); // indexes
    out
}

fn assert_too_deep<T: std::fmt::Debug>(result: Result<T>) {
    match result {
        Err(ModelError::Io(msg)) => assert!(msg.contains("nested too deep"), "{msg}"),
        other => panic!("expected a nesting error, got {other:?}"),
    }
}

#[test]
fn nesting_past_the_limit_is_an_io_error_on_a_default_thread_stack() {
    // A spawned thread: the 2 MB a worker has, not the main thread's 8.
    // Each of these decodes overflowed it before the nesting budget.
    std::thread::spawn(|| {
        let n_is_negative =
            RowTest::new(vec![(Arc::from("n"), tmql_model::CmpOp::Lt, Value::Int(0))]);
        for kind in [TUPLE, SET] {
            for depth in [MAX_NESTING as usize + 1, 100_000] {
                let row = nested_row(kind, depth);
                assert_too_deep(decode_record(&row));
                assert_too_deep(RecordDecoder::default().decode(&row));
                // The field's value alone: "deep"'s label is 8 bytes in.
                assert_too_deep(decode_value(&row[4 + 8..]));
                // The skip-scan cannot get past `deep` to `n`: undecided,
                // so the row is admitted and fails in `decode`, above.
                assert!(!n_is_negative.rejects_bytes(&row));
            }
        }
        for depth in [MAX_NESTING as usize + 1, 100_000] {
            assert_too_deep(decode_catalog(&nested_type_catalog(depth)));
            assert_too_deep(decode_catalog(&nested_sort_catalog(depth)));
        }
    })
    .join()
    .expect("no panic, no overflow");
}

#[test]
fn nesting_up_to_the_limit_decodes() {
    let n_is_negative = RowTest::new(vec![(Arc::from("n"), tmql_model::CmpOp::Lt, Value::Int(0))]);
    for kind in [TUPLE, SET] {
        let row = nested_row(kind, MAX_NESTING as usize);
        let rec = decode_record(&row).unwrap();
        assert_eq!(encode_record(&rec), row);
        assert!(n_is_negative.rejects_bytes(&row), "skipped to `n` = 5");
    }
    let catalog = nested_type_catalog(MAX_NESTING as usize);
    assert_eq!(encode_catalog(&decode_catalog(&catalog).unwrap()), catalog);
    let legacy = decode_catalog(&nested_sort_catalog(MAX_NESTING as usize)).unwrap();
    assert_eq!(legacy, CatalogImage::default(), "a sort is read past");
}

#[test]
fn a_class_typed_column_decodes_as_any() {
    // A class type admitted only NULL, so such a column held only NULLs.
    let mut class_ty = vec![TY_CLASS];
    put_str(&mut class_ty, "Emp");
    let image = decode_catalog(&column_catalog(&class_ty)).unwrap();
    assert_eq!(image.tables[0].columns, vec![("c".to_string(), Ty::Any)]);
}

#[test]
fn a_list_or_variant_typed_column_decodes_as_any() {
    // TMQL builds no list or variant, so such a column held only NULLs.
    let list_ty = [TY_LIST, TY_INT];
    let mut variant_ty = vec![TY_VARIANT];
    put_len(&mut variant_ty, 1);
    put_str(&mut variant_ty, "a");
    variant_ty.push(TY_INT);
    for ty in [&list_ty[..], &variant_ty] {
        let image = decode_catalog(&column_catalog(ty)).unwrap();
        assert_eq!(image.tables[0].columns, vec![("c".to_string(), Ty::Any)]);
    }
    // The element or alternatives are still read, under the nesting limit.
    let mut deep = vec![TY_LIST; MAX_NESTING as usize + 1];
    deep.push(TY_INT);
    assert_too_deep(decode_catalog(&column_catalog(&deep)));
}

#[test]
fn a_stored_list_or_variant_is_an_io_error_never_a_panic() {
    let unknown = |result: Result<Record>, tag: u8| match result {
        Err(ModelError::Io(msg)) => {
            assert!(msg.contains(&format!("unknown value tag {tag}")), "{msg}")
        }
        other => panic!("expected tag {tag} to be refused, got {other:?}"),
    };
    // A row an older file holds: `l` (tag 8) before `v` (tag 9).
    let legacy = unhex(GOLDEN_RECORD);
    unknown(decode_record(&legacy), 8);
    unknown(RecordDecoder::default().decode(&legacy), 8);
    // `v`'s value alone: its tag, the label "left", then "".
    let variant = &legacy[legacy.len() - 14..];
    assert_eq!(variant[0], 9);
    unknown(decode_value(variant).map(|_| Record::empty()), 9);
    // The skip-scan stops at the list: a field behind it is undecided, so
    // the row is admitted and fails in the decoder, above. A field in
    // front of it is still decided.
    let test = |label: &str, op, key| RowTest::new(vec![(Arc::from(label), op, key)]);
    let lt = tmql_model::CmpOp::Lt;
    assert!(!test("v", lt, Value::Int(0)).rejects_bytes(&legacy));
    assert!(!test("missing", lt, Value::Int(0)).rejects_bytes(&legacy));
    assert!(test("id", lt, Value::Int(-7)).rejects_bytes(&legacy));
}

// ---------------------------------------------------------------------------
// No chain is walked on trust
// ---------------------------------------------------------------------------

/// An edit to the bytes of a database file.
type Patch<'a> = &'a dyn Fn(&mut [u8]);

#[test]
fn a_corrupted_chain_is_an_io_error_never_a_hang_or_a_claim_taken_on_trust() {
    // A blob of three full overflow pages and a part: pages 1-4 of a
    // fresh file, committed and checkpointed by the close.
    let path = scratch_file("chain.tmdb");
    let blob: Vec<u8> = (0..3 * OVF_CAPACITY + 100)
        .map(|i| (i % 251) as u8)
        .collect();
    let first = {
        let store = PagedStore::create(&path, 8).unwrap();
        let (first, len) = store.write_blob(&blob).unwrap();
        assert_eq!((first, len), (1, blob.len() as u64));
        store.save_catalog(&CatalogImage::default()).unwrap();
        first
    };
    let pristine = std::fs::read(&path).unwrap();
    // Reopen the file with `patch` applied and read the chain back,
    // believing it holds `claimed` bytes.
    let read = |patch: Patch, claimed: u64| {
        let mut file = pristine.clone();
        patch(&mut file);
        std::fs::write(&path, &file).unwrap();
        let (store, _) = PagedStore::open(&path, 8).unwrap();
        let ((bytes, pages), peak) = peak_alloc(|| {
            (
                store.read_blob(first, claimed),
                store.blob_pages(first, claimed),
            )
        });
        assert!(
            peak <= 3 * pristine.len(),
            "{peak} bytes allocated over a {}-byte file, claim {claimed}",
            pristine.len()
        );
        assert_eq!(bytes.is_ok(), pages.is_ok(), "one walk, one verdict");
        bytes
    };
    let exact = blob.len() as u64;
    assert_eq!(read(&|_| {}, exact).unwrap(), blob);

    // Page `p`'s overflow header: kind at +0, next at +2, length at +6.
    let set = |p: usize, at: usize, v: &'static [u8]| {
        move |file: &mut [u8]| file[p * PAGE_SIZE + at..][..v.len()].copy_from_slice(v)
    };
    let corruptions: [Patch; 10] = [
        &set(2, 2, &[2, 0, 0, 0]),             // next → itself
        &set(3, 2, &[1, 0, 0, 0]),             // next → the head: a cycle
        &set(1, 2, &[3, 0, 0, 0]),             // next skips a page
        &set(2, 2, &[0xe7, 3, 0, 0]),          // next → past the end of the file
        &set(2, 2, &[NO_PAGE as u8, 0, 0, 0]), // the chain ends early
        &set(1, 6, &[0, 0]),                   // an empty chunk
        &set(1, 6, &[0xff, 0xff]),             // a chunk longer than its page
        &set(4, 6, &[99, 0]),                  // the last chunk one byte short
        &set(3, 0, &[1]),                      // a data page in the chain
        &|file: &mut [u8]| {
            // Zero-length chunks in a cycle: the byte count never grows.
            file[PAGE_SIZE + 2..][..4].copy_from_slice(&[1, 0, 0, 0]);
            file[PAGE_SIZE + 6..][..2].copy_from_slice(&[0, 0]);
        },
    ];
    for (i, patch) in corruptions.iter().enumerate() {
        let result = read(patch, exact);
        assert!(
            matches!(result, Err(ModelError::Io(_))),
            "corruption {i}: {result:?}"
        );
    }
    // An honest chain under a dishonest length.
    for claimed in [0, exact - 1, exact + 1, u32::MAX as u64, u64::MAX] {
        let result = read(&|_| {}, claimed);
        assert!(
            matches!(result, Err(ModelError::Io(_))),
            "claim {claimed}: {result:?}"
        );
    }
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(Wal::path_for(&path));
}
