#![cfg(test)]
//! What outside bytes can and cannot do to this crate's decoders, checked
//! in one place because they all sit on one [`Reader`]:
//!
//! * **the formats did not move** — the bytes of one fixed input per
//!   format are pinned as hex literals: captured at the commit before
//!   `bytes.rs` existed, and, for what database format version 2 changed
//!   (integers as varints, data pages of frames, the header's version),
//!   when it did; the older literals stay as inputs the decoders must
//!   still read;
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
use tmql_model::{ModelError, Record, Result, Shape, Ty, Value};

use crate::bytes::{put_len, put_len_prefixed, put_str, put_u64, Reader, MAX_NESTING};
use crate::index::{decode_index, encode_index, OrdIndex};
use crate::pager::image::{decode_catalog, encode_catalog, CatalogImage, IndexImage, TableImage};
use crate::pager::page::{self, NO_PAGE, OVF_CAPACITY, PAGE_SIZE};
use crate::pager::store::{Meta, PagedStore, TableExtent};
use crate::pretest::RowTest;
use crate::spill::{
    decode_record, decode_value, encode_frame, encode_record, encode_value, frame, v1,
    RecordDecoder, SpillDir, StoredRow,
};
use crate::stats::{ColumnStats, Histogram, TableStats};
use crate::wal::{CommitRecord, Wal, WalScan};
use crate::xxh64::xxh64;
use crate::{Catalog, Table};

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

/// The labels of [`golden_row`] in its order, as a shape: the columns of
/// a table that stores it as a frame of values.
fn golden_labels() -> Arc<Shape> {
    golden_row().shape().clone()
}

/// [`golden_row`] with its fields the other way round: against
/// [`golden_labels`], a frame holding the whole record.
fn golden_row_reversed() -> Record {
    let fields = golden_row()
        .fields()
        .rev()
        .map(|(l, v)| (l.clone(), v.clone()))
        .collect::<Vec<_>>();
    Record::new(fields).unwrap()
}

/// The integers whose varints [`GOLDEN_INTS`] pins: both ends of the
/// range, and each side of the one- and two-byte boundaries.
const GOLDEN_INT_CASES: [i64; 12] = [
    0,
    -1,
    1,
    63,
    -63,
    64,
    -64,
    -65,
    8191,
    -8193,
    i64::MAX,
    i64::MIN,
];

fn golden_ints() -> Vec<u8> {
    let mut out = Vec::new();
    for i in GOLDEN_INT_CASES {
        encode_value(&mut out, &Value::Int(i));
    }
    out
}

/// `row` as a frame against the shape `labels`.
fn frame_of(row: &Record, labels: &Arc<Shape>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(&mut out, row, labels);
    out
}

/// The first data page of a table of [`golden_row`] and
/// [`golden_row_reversed`] over the columns [`golden_labels`], as the
/// store writes it.
fn golden_data_page() -> Vec<u8> {
    let path = scratch_file("page.tmdb");
    {
        let store = PagedStore::create(&path, 8).unwrap();
        let rows = [golden_row(), golden_row_reversed()];
        let extent = store.write_table(&rows, &golden_labels()).unwrap();
        assert_eq!(extent.page_ids().collect::<Vec<_>>(), [1]);
        store.save_catalog(&CatalogImage::default()).unwrap();
    }
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(Wal::path_for(&path));
    file[PAGE_SIZE..2 * PAGE_SIZE].to_vec()
}

/// A commit record's payload, as the log frames it.
fn commit_bytes(commit: &CommitRecord) -> Vec<u8> {
    let mut out = Vec::new();
    commit.encode_into(&mut out);
    out
}

/// The WAL file after one batch of a page record and a commit record:
/// the header of epoch 1, the two frames, the end marker.
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

/// [`golden_wal`] as format version 1 wrote it: the same frames from
/// offset 0, checksummed with FNV-1a, and no header and no marker.
fn golden_wal_v1() -> Vec<u8> {
    let page_head = unhex(GOLDEN_WAL_V1_PAGE_HEAD);
    let commit_frame = unhex(GOLDEN_WAL_V1_COMMIT_FRAME);
    [page_head, golden_page_image(), commit_frame].concat()
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
/// Frame header (length, FNV-1a checksum) + kind tag + page id of the
/// page record, as format version 1 of the log wrote it. Only read now.
const GOLDEN_WAL_V1_PAGE_HEAD: &str = "052000003f6aac7d68a040680103000000";
const GOLDEN_WAL_V1_COMMIT_FRAME: &str = concat!(
    "25000000f052e24e662609260209000000070000002a00000000000000020000",
    "0003000000040000000100000005000000",
);
// Captured when the log's format became version 2: a fresh log, epoch 1.
// The frames carry version 1's lengths and payloads under XXH64
// checksums seeded with the epoch.
/// The log's header: magic, version, epoch, the header's XXH64.
const GOLDEN_WAL_HEADER: &str = "544d5157020000000100000000000000247010e44a8e9f97";
/// Frame header (length, checksum) + kind tag + page id of the page record.
const GOLDEN_WAL_PAGE_HEAD: &str = "0520000076c943fa98cfed280103000000";
const GOLDEN_WAL_COMMIT_FRAME: &str = concat!(
    "25000000493f09938e482d140209000000070000002a00000000000000020000",
    "0003000000040000000100000005000000",
);
/// The end marker: a zero length and the XXH64 of nothing, seeded with
/// the epoch.
const GOLDEN_WAL_MARKER: &str = "000000004bbea33613baafd5";
/// The header page up to the end of its free list; zeros follow. Version
/// 1: read, never written now.
const GOLDEN_HEADER_HEAD: &str = concat!(
    "544d514201000020000009000000070000009210000000000000030000000300",
    "00000400000008000000",
);

// Captured when the database format became version 2: an `Int` is tag
// 10 and a zigzag varint, a data page's second byte is its row form, and
// form 1 slots hold frames. [`GOLDEN_RECORD`] (as
// [`golden_record_now`] cuts it), [`GOLDEN_INDEX`] and
// [`GOLDEN_HEADER_HEAD`] are what version 1 wrote for the same inputs.
/// [`golden_row`]: its integers are `0a 0d` (−7) and `0a 02` (1).
const GOLDEN_RECORD_V2: &str = concat!(
    "080000000200000069640a0d0100000078040000000000000080030000006e61",
    "6e04efbe00000000f87f0100000073050600000068c3a96c6c6f020000006f6b",
    "02020000006e6f01030000006e696c000100000074060200000001000000610a",
    "02010000006207020000000a020a04",
);
/// [`golden_index`]: the key `1` is `0a 02`.
const GOLDEN_INDEX_V2: &str = concat!(
    "03000000020000000a0202000000000000000000000005000000000000000900",
    "000004000000000000f83f010000000200000000000000060000000501000000",
    "7a0200000003000000000000000400000000000000",
);
/// The values of [`GOLDEN_INT_CASES`], one after another.
const GOLDEN_INTS: &str = concat!(
    "0a000a010a020a7e0a7d0a80010a7f0a81010afe7f0a8180010afeffffffffff",
    "ffffff010affffffffffffffffff01",
);
/// [`golden_row`] as a frame against its own labels: the kind, then its
/// values alone.
const GOLDEN_FRAME_SHAPED: &str = concat!(
    "000a0d04000000000000008004efbe00000000f87f050600000068c3a96c6c6f",
    "020100060200000001000000610a02010000006207020000000a020a04",
);
/// [`golden_row_reversed`] as a frame against [`golden_labels`]: the
/// kind, then the whole record.
const GOLDEN_FRAME_FULL: &str = concat!(
    "01080000000100000074060200000001000000610a0201000000620702000000",
    "0a020a04030000006e696c00020000006e6f01020000006f6b02010000007305",
    "0600000068c3a96c6c6f030000006e616e04efbe00000000f87f010000007804",
    "00000000000000800200000069640a0d",
);
/// [`golden_data_page`]'s header (kind 1, row form 1, two slots, the free
/// offset) and slot directory; zeros follow up to the two frames, which
/// end the page, the first slot's last.
const GOLDEN_DATA_PAGE_HEAD: &str = "01010200531fc31f3d00531f7000";
/// [`GOLDEN_HEADER_HEAD`] as version 2 writes it.
const GOLDEN_HEADER_V2_HEAD: &str = concat!(
    "544d514202000020000009000000070000009210000000000000030000000300",
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
    // What version 2 did not change: the catalog image, the commit record
    // and the log.
    assert_eq!(
        hex(&encode_catalog(&golden_catalog())),
        hex(&golden_catalog_now())
    );
    assert_eq!(hex(&commit_bytes(&golden_commit())), GOLDEN_COMMIT);

    let wal = golden_wal();
    let (header, rest) = wal.split_at(GOLDEN_WAL_HEADER.len() / 2);
    let (page_head, rest) = rest.split_at(GOLDEN_WAL_PAGE_HEAD.len() / 2);
    let (image, rest) = rest.split_at(PAGE_SIZE);
    let (commit_frame, marker) = rest.split_at(GOLDEN_WAL_COMMIT_FRAME.len() / 2);
    assert_eq!(hex(header), GOLDEN_WAL_HEADER);
    assert_eq!(hex(page_head), GOLDEN_WAL_PAGE_HEAD);
    assert_eq!(image, golden_page_image());
    assert_eq!(hex(commit_frame), GOLDEN_WAL_COMMIT_FRAME);
    assert_eq!(hex(marker), GOLDEN_WAL_MARKER);
    // Version 2 logs version 1's bytes; only the checksums differ.
    let unsummed = |frame: &str| format!("{}{}", &frame[..8], &frame[24..]);
    assert_eq!(
        unsummed(GOLDEN_WAL_PAGE_HEAD),
        unsummed(GOLDEN_WAL_V1_PAGE_HEAD)
    );
    assert_eq!(
        unsummed(GOLDEN_WAL_COMMIT_FRAME),
        unsummed(GOLDEN_WAL_V1_COMMIT_FRAME)
    );
}

#[test]
fn the_bytes_of_format_version_2_are_pinned() {
    assert_eq!(hex(&encode_record(&golden_row())), GOLDEN_RECORD_V2);
    assert_eq!(hex(&encode_index(&golden_index())), GOLDEN_INDEX_V2);
    assert_eq!(hex(&golden_ints()), GOLDEN_INTS);
    let (shaped, full) = (
        frame_of(&golden_row(), &golden_labels()),
        frame_of(&golden_row_reversed(), &golden_labels()),
    );
    assert_eq!(hex(&shaped), GOLDEN_FRAME_SHAPED);
    assert_eq!(hex(&full), GOLDEN_FRAME_FULL);
    // A frame of values is the record without its count and its labels;
    // a whole one is the record behind the kind.
    assert_eq!(full[1..], encode_record(&golden_row_reversed())[..]);
    assert!(shaped.len() < encode_record(&golden_row()).len());

    let page = golden_data_page();
    let (head, rest) = page.split_at(GOLDEN_DATA_PAGE_HEAD.len() / 2);
    assert_eq!(hex(head), GOLDEN_DATA_PAGE_HEAD);
    let (zeros, payloads) = rest.split_at(rest.len() - shaped.len() - full.len());
    assert!(zeros.iter().all(|&b| b == 0));
    assert_eq!(payloads, [&full[..], &shaped[..]].concat());

    let header = golden_header();
    let (head, padding) = header.split_at(GOLDEN_HEADER_V2_HEAD.len() / 2);
    assert_eq!(hex(head), GOLDEN_HEADER_V2_HEAD);
    assert_eq!(header.len(), PAGE_SIZE);
    assert!(padding.iter().all(|&b| b == 0));
    // Version 2 changed only the version of the header.
    assert_eq!(GOLDEN_HEADER_V2_HEAD[..8], GOLDEN_HEADER_HEAD[..8]);
    assert_eq!(&GOLDEN_HEADER_V2_HEAD[8..12], "0200");
    assert_eq!(GOLDEN_HEADER_V2_HEAD[12..], GOLDEN_HEADER_HEAD[12..]);
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
    for (head, version) in [(GOLDEN_HEADER_HEAD, 1), (GOLDEN_HEADER_V2_HEAD, 2)] {
        let mut header = unhex(head);
        header.resize(PAGE_SIZE, 0);
        let (meta, free, read) = Meta::decode(&header).unwrap();
        assert_eq!(
            (
                meta.next_page,
                meta.catalog_first,
                meta.catalog_len,
                free,
                read
            ),
            (9, 7, 4242, vec![3, 4, 8], version)
        );
    }
    // Version 2's integers, frames and page.
    assert_eq!(
        decode_record(&unhex(GOLDEN_RECORD_V2)).unwrap(),
        golden_row()
    );
    assert_eq!(
        decode_index("k", &unhex(GOLDEN_INDEX_V2)).unwrap(),
        golden_index()
    );
    let ints = unhex(GOLDEN_INTS);
    let mut at = 0;
    for i in GOLDEN_INT_CASES {
        let (v, used) = decode_value(&ints[at..]).unwrap();
        assert_eq!(v, Value::Int(i));
        at += used;
    }
    assert_eq!(at, ints.len());
    let mut decoder = RecordDecoder::default();
    for (frame, row) in [
        (GOLDEN_FRAME_SHAPED, golden_row()),
        (GOLDEN_FRAME_FULL, golden_row_reversed()),
    ] {
        let back = decoder
            .decode_frame(&unhex(frame), &golden_labels())
            .unwrap();
        assert_eq!(back, row);
        assert!(back.labels().eq(row.labels()), "its field order too");
    }
    assert_eq!(
        decode_page(&golden_data_page()).unwrap(),
        [golden_row(), golden_row_reversed()]
    );
    let scan = scan_bytes(&golden_wal());
    assert_eq!((scan.txns.len(), scan.discarded_records), (1, 0));
    assert_eq!(scan.txns[0].commit, golden_commit());
    assert_eq!(scan.txns[0].pages, vec![(3, golden_page_image())]);
}

#[test]
fn a_log_format_version_1_wrote_still_replays() {
    let scan = scan_bytes(&golden_wal_v1());
    assert_eq!(scan.epoch, None);
    assert_eq!((scan.txns.len(), scan.discarded_records), (1, 0));
    assert_eq!(scan.txns[0].commit, golden_commit());
    assert_eq!(scan.txns[0].pages, vec![(3, golden_page_image())]);
    // Whatever it holds is replayed under its own checksum: the same
    // frames under XXH64 are no version 1 log.
    let scan = scan_bytes(&golden_wal()[GOLDEN_WAL_HEADER.len() / 2..]);
    assert_eq!((scan.txns.len(), scan.discarded_records), (0, 1));
}

#[test]
fn xxh64_is_the_published_function() {
    // Vectors of the C reference implementation, as published with it and
    // in the `twox-hash` crate's tests. Between them they take every
    // branch under seed 0 and others: no 32-byte stripe and whole stripes
    // (the sentence, 39 bytes; the count, 100), then a tail of 8-byte
    // words ("Hello, world!\0", 14 bytes: one word, one half, two bytes),
    // 4-byte halves and single bytes.
    let count: Vec<u8> = (0..100).collect();
    let vectors: [(&[u8], u64, u64); 10] = [
        (b"", 0, 0xEF46_DB37_51D8_E999),
        (b"a", 0, 0xD24E_C4F1_A98C_6E5B),
        (b"abc", 0, 0x44BC_2CF5_AD77_0999),
        (
            b"Nobody inspects the spammish repetition",
            0,
            0xFBCE_A83C_8A37_8BF1,
        ),
        (b"xxhash", 0, 0x32DD_3895_2C4B_C720),
        (b"xxhash", 20_141_025, 0xB559_B98D_844E_0635),
        (&[42], 0, 0x0A9E_DECE_BEB0_3AE4),
        (b"Hello, world!\0", 0, 0x7B06_C531_EA43_E89F),
        (&count, 0, 0x6AC1_E580_3216_6597),
        (b"", 0xAE05_4331_1B70_2D91, 0x4B6A_04FC_DF7A_4672),
    ];
    for (input, seed, hash) in vectors {
        assert_eq!(xxh64(input, seed), hash, "{input:?} seed {seed}");
    }
}

#[test]
fn a_batch_torn_at_any_byte_is_no_transaction_and_takes_no_earlier_one_with_it() {
    // A commit's records are one write, over the marker the last one
    // ended with. Wherever a crash cuts it, replay finds the transactions
    // before it whole and nothing of this one: its records are
    // checksummed one by one, and the commit record is last.
    let path = scratch_file("torn-batch.wal");
    let mut wal = Wal::open(&path).unwrap();
    wal.batch().commit(&golden_commit()).unwrap();
    let header = GOLDEN_WAL_HEADER.len() / 2;
    let first = header + wal.bytes() as usize;
    let before = std::fs::read(&path).unwrap();
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
    let marker = GOLDEN_WAL_MARKER.len() / 2;
    assert_eq!(log.len(), 2 * first - header + 2 * frame + marker);
    // Where the second commit record ends and its marker begins.
    let second = log.len() - marker;
    for cut in first + 1..log.len() {
        // The write reached `cut`; past it the file holds what it held,
        // the first batch's marker or nothing.
        let torn = [&log[..cut], before.get(cut..).unwrap_or_default()].concat();
        let scan = scan_bytes(&torn);
        if cut < second {
            assert_eq!(scan.txns.len(), 1, "cut at {cut}");
            assert_eq!(scan.txns[0].commit, golden_commit());
            assert!(scan.txns[0].pages.is_empty());
            assert_eq!(scan.discarded_bytes, (torn.len() - first) as u64);
            // The whole page records before the cut, and the record the
            // scan could not get past: the one the cut fell in, or the
            // marker missing after a whole one.
            let whole = ((cut - first) / frame).min(2);
            assert_eq!(scan.discarded_records, whole + 1, "cut at {cut}");
        } else {
            // Only the marker is torn: the commit record is whole.
            assert_eq!(scan.txns.len(), 2, "cut at {cut}");
            assert_eq!(scan.discarded_records, 1, "cut at {cut}");
            assert_eq!(scan.discarded_bytes, (cut - second) as u64);
        }
    }
    let scan = scan_bytes(&before);
    assert_eq!((scan.txns.len(), scan.discarded_records), (1, 0));
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

#[test]
fn an_overlong_or_overflowing_varint_is_an_io_error() {
    let int = |varint: &[u8]| decode_value(&[&[10u8][..], varint].concat());
    let refused = |varint: &[u8]| match int(varint) {
        Err(ModelError::Io(msg)) => assert!(msg.contains("varint"), "{msg}"),
        other => panic!("{varint:02x?} decoded to {other:?}"),
    };
    // Ten bytes carry 64 bits; the tenth holds only the top one.
    let max = [[0xff; 9].as_slice(), &[0x01]].concat();
    assert_eq!(int(&max).unwrap(), (Value::Int(i64::MIN), 11));
    refused(&[[0xff; 9].as_slice(), &[0x02]].concat());
    refused(&[[0xff; 9].as_slice(), &[0x81, 0x00]].concat());
    refused(&[[0x80; 10].as_slice(), &[0x00]].concat());
    // Cut short at every byte.
    for cut in 0..max.len() {
        assert!(matches!(int(&max[..cut]), Err(ModelError::Io(_))));
    }
    // A longer spelling than the writer's of a value that fits is read as
    // that value: the bytes are not malformed, only not canonical.
    assert_eq!(int(&[0x80, 0x00]).unwrap(), (Value::Int(0), 3));
    // The skip-scan refuses what the decoder refuses: the field behind an
    // overlong integer is undecided, and the row is admitted.
    let mut row = Vec::new();
    put_len(&mut row, 2);
    put_str(&mut row, "i");
    row.push(10);
    row.extend([0xff; 10]);
    row.push(0x01);
    put_str(&mut row, "n");
    row.extend([10, 10]);
    let n_is_negative = RowTest::new(vec![(Arc::from("n"), tmql_model::CmpOp::Lt, Value::Int(0))]);
    assert!(!n_is_negative.rejects_bytes(&row));
    assert!(matches!(decode_record(&row), Err(ModelError::Io(_))));
}

/// Decode a data page's slots as the store's read path does — through
/// the view its latch checks once, its frames against [`golden_labels`];
/// an overflow reference, which needs the rest of the file, is refused.
fn decode_page(image: &[u8]) -> Result<Vec<Record>> {
    let page = page::DataPage::check(image)?;
    let (labels, mut decoder) = (golden_labels(), RecordDecoder::default());
    (0..page.slots())
        .map(|i| match page.slot(i)? {
            page::SlotRef::Inline(bytes) => {
                decoder.decode_stored(StoredRow::of(page.holds_frames(), bytes), &labels)
            }
            page::SlotRef::Overflow { .. } => Err(ModelError::Io("an overflow slot".into())),
        })
        .collect()
}

/// A data page of `rows` framed against [`golden_labels`], as many as fit.
fn encode_page(rows: &[Record]) -> Vec<u8> {
    let mut image = vec![0u8; PAGE_SIZE];
    page::init_data(&mut image, page::FORM_FRAME);
    let labels = golden_labels();
    for row in rows {
        let frame = frame_of(row, &labels);
        if !page::fits_inline(&image, frame.len()) {
            break;
        }
        page::push_inline(&mut image, &frame);
    }
    image
}

/// `T(n, b, s)`: integers of every varint length and both signs, one row
/// in five with its fields the other way round, and one string too long
/// for a page slot.
fn mixed_table(name: &str, rows: i64) -> Table {
    let columns = vec![
        ("n".to_string(), Ty::Int),
        ("b".to_string(), Ty::Int),
        ("s".to_string(), Ty::Any),
    ];
    let mut t = Table::new(name, columns);
    for i in 0..rows {
        let (n, b) = (i * 1_000_003 - 7_000_000, i % 41 - 20);
        let s = match i {
            7 => Value::str("x".repeat(2 * PAGE_SIZE)),
            _ if i % 3 == 0 => Value::set([Value::Int(i), Value::Int(-i)]),
            _ => Value::str(format!("s{i}")),
        };
        if i % 5 == 0 {
            let reversed = [("s", s), ("b", Value::Int(b)), ("n", Value::Int(n))];
            t.insert(Record::new(reversed).unwrap()).unwrap();
        } else {
            t.insert_values([Value::Int(n), Value::Int(b), s]).unwrap();
        }
    }
    t
}

/// The version of the database header in the file at `path`.
fn header_version(path: &std::path::Path) -> u16 {
    let file = std::fs::read(path).unwrap();
    u16::from_le_bytes([file[4], file[5]])
}

/// What the scan, the probe and the pre-tested scan of `T.b` answer.
fn reads(cat: &Catalog, name: &str) -> (Vec<Record>, Vec<Record>, Vec<Record>) {
    let t = cat.table(name).unwrap();
    let rows = t.rows_vec().unwrap();
    let hits = cat.index_on(name, "b").unwrap().probe_eq(&Value::Int(3));
    let probed = t.fetch_rows(&hits).unwrap();
    let test = RowTest::new(vec![(
        Arc::from("b"),
        tmql_model::CmpOp::Lt,
        Value::Int(-15),
    )]);
    let (kept, visited) = t.batch_where(0, t.len(), &test).unwrap();
    assert_eq!(visited, t.len());
    (rows, probed, kept)
}

#[test]
fn a_version_1_file_reads_as_before_and_its_first_commit_makes_it_version_2() {
    let path = scratch_file("v1.tmdb");
    let (old, new) = (mixed_table("OLD", 3000), mixed_table("NEW", 2000));
    let (mut want_old, mut want_new) = (Catalog::new(), Catalog::new());
    want_old.register(old.clone()).unwrap();
    want_old.create_index("OLD", "b").unwrap();
    want_new.register(new.clone()).unwrap();
    want_new.create_index("NEW", "b").unwrap();
    // The file an older build left: `Int`s under tag 3 in pages of whole
    // records, in the index too, behind a version 1 header — which is a
    // version 2 header with its version 1 (the goldens pin that).
    v1::write(|| {
        let mut cat = Catalog::open(&path, 16).unwrap();
        cat.register(old).unwrap();
        cat.create_index("OLD", "b").unwrap();
    });
    let mut file = std::fs::read(&path).unwrap();
    file[4] = 1;
    std::fs::write(&path, &file).unwrap();
    assert_eq!(header_version(&path), 1);
    assert_eq!(
        file[PAGE_SIZE..PAGE_SIZE + 2],
        [page::KIND_DATA, page::FORM_RECORD]
    );
    // The first row ends the page: its last field, `n = −7 000 000`.
    let n = [&[3u8][..], &(-7_000_000i64).to_le_bytes()].concat();
    assert_eq!(file[2 * PAGE_SIZE - 9..2 * PAGE_SIZE], n);

    // Read as the parent read it, through a pool far smaller than it.
    let mut cat = Catalog::open(&path, 4).unwrap();
    let want = reads(&want_old, "OLD");
    assert_eq!(reads(&cat, "OLD"), want);
    assert_eq!(want.1.len(), 73, "the probe finds rows");
    assert!(
        !want.2.is_empty() && want.2.len() < 3000,
        "the pre-test rejects"
    );
    assert_eq!(header_version(&path), 1, "reading rewrites nothing");

    // The first commit rewrites the header before it logs anything.
    cat.register(new).unwrap();
    cat.create_index("NEW", "b").unwrap();
    assert_eq!(header_version(&path), 2);
    let side_by_side = |cat: &Catalog| {
        assert_eq!(reads(cat, "OLD"), want);
        assert_eq!(reads(cat, "NEW"), reads(&want_new, "NEW"));
    };
    side_by_side(&cat);
    drop(cat);
    side_by_side(&Catalog::open(&path, 4).unwrap());
    // An older build refuses a version 2 file, as this one refuses a
    // version it does not know.
    let mut header = std::fs::read(&path).unwrap()[..PAGE_SIZE].to_vec();
    header[4] = 3;
    match Meta::decode(&header) {
        Err(ModelError::Io(msg)) => {
            assert!(
                msg.contains("unsupported database format version 3"),
                "{msg}"
            )
        }
        other => panic!("version 3 read as {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(Wal::path_for(&path));
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
    Meta::decode(b).map(|(meta, free, _)| meta.encode(&free))
});
const LOG: Decoder = ("wal scan", |b| Ok(committed_log(b)));
// A frame written against [`golden_labels`]; canonically a frame of values
// whenever the row has those labels in that order.
const FRAME: Decoder = ("frame", |b| {
    let labels = golden_labels();
    let row = RecordDecoder::default().decode_frame(b, &labels)?;
    Ok(frame_of(&row, &labels))
});
const PAGE: Decoder = ("data page", |b| {
    decode_page(b).map(|rows| encode_page(&rows))
});
// One extent of a spill run that remembers `RUN_ROWS` rows and the labels
// `RUN_LABELS`; canonically every frame is a full one, which reads back
// the same whatever the run's labels.
const RUN: Decoder = ("spill run", |b| {
    Ok(read_run(b)?.iter().flat_map(full_frame).collect())
});
const DECODERS: [Decoder; 9] = [
    RECORD, VALUE, CATALOG, INDEX, COMMIT, HEADER, LOG, RUN, FRAME,
];

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
    // The log's header, its two frame headers, the whole commit frame and
    // the marker; a flipped byte inside the page image is one checksum
    // mismatch like another. The same for the frames of a version 1 log.
    let log = golden_wal();
    let header = GOLDEN_WAL_HEADER.len() / 2;
    let commit_frame = log.len() - (GOLDEN_WAL_COMMIT_FRAME.len() + GOLDEN_WAL_MARKER.len()) / 2;
    check_corruptions(LOG, &log, (0..header + 24).chain(commit_frame..log.len()));
    let log = golden_wal_v1();
    let commit_frame = log.len() - GOLDEN_WAL_V1_COMMIT_FRAME.len() / 2;
    check_corruptions(LOG, &log, (0..24).chain(commit_frame..log.len()));
    // Every byte of both kinds of frame: the lengths, the kinds, the
    // values a shaped frame holds and the record a full one does.
    let (run, _) = golden_run();
    check_corruptions(RUN, &run, everywhere(&run));
    // The same two kinds as page slots, and the integers on their own.
    for row in [golden_row(), golden_row_reversed()] {
        let frame = frame_of(&row, &golden_labels());
        check_corruptions(FRAME, &frame, everywhere(&frame));
    }
    let ints = unhex(GOLDEN_INTS);
    check_corruptions(VALUE, &ints, everywhere(&ints));
    // A data page: its header (kind, row form, count, free offset), its
    // slot directory and both slots' bytes; the free space between is
    // never read.
    let image = golden_data_page();
    let head = GOLDEN_DATA_PAGE_HEAD.len() / 2;
    let payloads = PAGE_SIZE - GOLDEN_FRAME_SHAPED.len() / 2 - GOLDEN_FRAME_FULL.len() / 2;
    check_corruptions(PAGE, &image, (0..head).chain(payloads..PAGE_SIZE));
    // Among those: a count whose directory runs into the payloads, and a
    // free offset past the page, both refused before any slot is read.
    for (at, byte) in [(3, 0x08), (5, 0xff)] {
        let mut bad = image.clone();
        bad[at] = byte;
        let refused = decode_page(&bad);
        assert!(
            matches!(&refused, Err(ModelError::Io(m)) if m.contains("slot directory")),
            "byte {at} = {byte:#x}: {refused:?}"
        );
    }
    // A page as version 1 wrote it: whole records.
    let mut legacy = vec![0u8; PAGE_SIZE];
    page::init_data(&mut legacy, page::FORM_RECORD);
    let record = unhex(&golden_record_now());
    page::push_inline(&mut legacy, &record);
    let at = PAGE_SIZE - record.len();
    check_corruptions(PAGE, &legacy, (0..head - 4).chain(at..PAGE_SIZE));
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
/// a comparison treats specially, plus arbitrary float bit patterns — and
/// integers at every length of their varint.
fn arb_scalar() -> BoxedStrategy<Value> {
    let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
    let varint_edge = (0..GOLDEN_INT_CASES.len()).prop_map(|i| Value::Int(GOLDEN_INT_CASES[i]));
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        varint_edge,
        (0u32..64).prop_map(|bits| Value::Int(-1i64 << bits)),
        any::<i64>().prop_map(Value::Int),
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
            // As a frame of values against its own labels, and against
            // the three columns, which it has in that order only by chance.
            let own = row.shape().clone();
            let abc = Shape::new(["a", "b", "c"]).unwrap();
            for labels in [&own, &abc] {
                let frame = frame_of(row, labels);
                let back = decoder.decode_frame(&frame, labels).unwrap();
                prop_assert_eq!(encode_record(&back), encode_record(row));
                prop_assert_eq!(frame_of(&back, labels), frame);
            }
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
    out.extend([10, 10]); // Int(5): tag 10, zigzag varint 10
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
