//! The persisted catalog image: each table's column types, extent and
//! statistics, and each index's page chain, serialized into one blob
//! (stored as a page chain by [`super::store::PagedStore`]'s header-last
//! catalog commit).
//!
//! Values (statistics min/max) reuse the spill codec
//! ([`crate::spill::encode_value`] / [`crate::spill::decode_value`]), so
//! the full complex-object universe — NaN floats included — round-trips
//! bit-exactly. Everything else (types, histograms, fractions) has a
//! straightforward tagged little-endian encoding, written and read
//! through the crate's one `bytes::Reader`; malformed bytes decode to
//! [`tmql_model::ModelError::Io`], never a panic.

use std::collections::BTreeMap;

use tmql_model::{Result, Ty, Value};

use super::page::PageId;
use super::store::TableExtent;
use crate::bytes::{
    put_f64, put_len, put_len_prefixed, put_str, put_u16, put_u32, put_u64, put_u8,
    too_deep_to_store, Reader, MAX_NESTING,
};
use crate::spill::{encode_value, read_value};
use crate::stats::{ColumnStats, Histogram, TableStats};

/// One persisted table: its identity, column types, extent, and statistics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableImage {
    /// Extension name.
    pub name: String,
    /// Column types in declaration order.
    pub columns: Vec<(String, Ty)>,
    /// Data pages on disk.
    pub extent: TableExtent,
    /// Statistics computed at registration.
    pub stats: TableStats,
}

/// One persisted secondary index: its identity plus the page chain
/// holding its encoded entries (see [`crate::index::encode_index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexImage {
    /// Table the index is over.
    pub table: String,
    /// Indexed attribute.
    pub attr: String,
    /// Index kind (0 = ordered; reserved for future kinds).
    pub kind: u8,
    /// Head page of the entry chain ([`super::page::NO_PAGE`] when empty).
    pub first: PageId,
    /// Byte length of the encoded entries.
    pub len: u64,
}

/// The whole persisted catalog.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CatalogImage {
    /// All registered tables.
    pub tables: Vec<TableImage>,
    /// All secondary indexes. Encoded as a trailing section, so files
    /// written before indexes existed (which end at the tables) still
    /// decode; new files always carry the section, even when empty.
    pub indexes: Vec<IndexImage>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

mod ty_tag {
    pub const BOOL: u8 = 0;
    pub const INT: u8 = 1;
    pub(crate) const FLOAT: u8 = 2;
    pub(crate) const STR: u8 = 3;
    pub(crate) const TUPLE: u8 = 4;
    pub(crate) const SET: u8 = 5;
    // Lists, variants and classes are read from older files, never written.
    pub(crate) const LIST: u8 = 6;
    pub(crate) const VARIANT: u8 = 7;
    pub const CLASS: u8 = 8;
    pub const ANY: u8 = 9;
}

/// Refuse a type that nests more compound levels than the decoder will
/// follow ([`MAX_NESTING`]): written, it would leave a catalog that no
/// open can read.
pub(crate) fn check_ty(ty: &Ty) -> Result<()> {
    fn fits(ty: &Ty, budget: u32) -> bool {
        match ty {
            Ty::Tuple(items) => budget > 0 && items.iter().all(|(_, t)| fits(t, budget - 1)),
            Ty::Set(t) => budget > 0 && fits(t, budget - 1),
            _ => true,
        }
    }
    match fits(ty, MAX_NESTING) {
        true => Ok(()),
        false => Err(too_deep_to_store("type")),
    }
}

fn put_ty(out: &mut Vec<u8>, ty: &Ty) {
    match ty {
        Ty::Bool => put_u8(out, ty_tag::BOOL),
        Ty::Int => put_u8(out, ty_tag::INT),
        Ty::Float => put_u8(out, ty_tag::FLOAT),
        Ty::Str => put_u8(out, ty_tag::STR),
        Ty::Tuple(fields) => {
            put_u8(out, ty_tag::TUPLE);
            put_labelled_tys(out, fields);
        }
        Ty::Set(t) => {
            put_u8(out, ty_tag::SET);
            put_ty(out, t);
        }
        Ty::Any => put_u8(out, ty_tag::ANY),
    }
}

/// Tuple fields, table columns: a count, then `(label, type)` pairs.
fn put_labelled_tys(out: &mut Vec<u8>, items: &[(String, Ty)]) {
    put_len(out, items.len());
    for (l, t) in items {
        put_str(out, l);
        put_ty(out, t);
    }
}

fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_len_prefixed(out, |out| encode_value(out, v));
        }
    }
}

fn put_histogram(out: &mut Vec<u8>, h: &Option<Histogram>) {
    match h {
        None => put_u8(out, 0),
        Some(h) => {
            put_u8(out, 1);
            put_f64(out, h.lo);
            put_f64(out, h.hi);
            put_len(out, h.counts.len());
            for &c in &h.counts {
                put_u64(out, c);
            }
            put_u64(out, h.total);
        }
    }
}

fn put_column_stats(out: &mut Vec<u8>, c: &ColumnStats) {
    put_u64(out, c.distinct as u64);
    put_opt_value(out, &c.min);
    put_opt_value(out, &c.max);
    put_f64(out, c.null_fraction);
    put_f64(out, c.set_valued_fraction);
    put_f64(out, c.empty_set_fraction);
    put_f64(out, c.avg_set_card);
    put_histogram(out, &c.histogram);
}

fn put_table_stats(out: &mut Vec<u8>, s: &TableStats) {
    put_u64(out, s.cardinality as u64);
    put_len(out, s.columns.len());
    for (name, c) in &s.columns {
        put_str(out, name);
        put_column_stats(out, c);
    }
}

/// What the encoder reads of one table, borrowed: a commit encodes the
/// live catalog without first copying it into a [`CatalogImage`].
pub(crate) struct TableParts<'a> {
    pub(crate) name: &'a str,
    pub(crate) columns: &'a [(String, Ty)],
    pub(crate) extent: &'a TableExtent,
    pub(crate) stats: &'a TableStats,
}

/// What the encoder reads of one index (the fields of an [`IndexImage`]).
pub(crate) struct IndexParts<'a> {
    pub(crate) table: &'a str,
    pub(crate) attr: &'a str,
    pub(crate) kind: u8,
    pub(crate) first: PageId,
    pub(crate) len: u64,
}

/// Serialize a catalog, given as borrowed parts, into one blob.
pub(crate) fn encode_parts(tables: &[TableParts<'_>], indexes: &[IndexParts<'_>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    // No classes, no sorts: the sections a class-and-sort schema filled.
    put_len(&mut out, 0);
    put_len(&mut out, 0);
    // Tables.
    put_len(&mut out, tables.len());
    for t in tables {
        put_str(&mut out, t.name);
        put_labelled_tys(&mut out, t.columns);
        put_u64(&mut out, t.extent.rows);
        put_len(&mut out, t.extent.pages.len());
        for &(pid, rows) in &t.extent.pages {
            put_u32(&mut out, pid);
            put_u16(&mut out, rows);
        }
        put_table_stats(&mut out, t.stats);
    }
    // Indexes (trailing section; absent in pre-index files).
    put_len(&mut out, indexes.len());
    for ix in indexes {
        put_str(&mut out, ix.table);
        put_str(&mut out, ix.attr);
        put_u8(&mut out, ix.kind);
        put_u32(&mut out, ix.first);
        put_u64(&mut out, ix.len);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// Fewest bytes one element of each counted run can take — what
// `Reader::count` holds a claimed count against.
/// A label's length prefix, then a type tag.
const MIN_LABELLED_TY_BYTES: usize = 4 + 1;
/// A class: two names, then an attribute count.
const MIN_CLASS_BYTES: usize = 3 * 4;
/// A column's statistics: a name, the distinct count, two option tags,
/// four fractions, a histogram tag.
const MIN_COLUMN_STATS_BYTES: usize = 4 + 8 + 2 + 4 * 8 + 1;
/// A table: a name, a column count, the row and page counts, then the
/// statistics' cardinality and column count.
const MIN_TABLE_BYTES: usize = 4 + 4 + 8 + 4 + 8 + 4;
/// An extent page: page id + rows in it.
const EXTENT_PAGE_BYTES: usize = 4 + 2;
/// An index: two names, kind, chain head and length.
const MIN_INDEX_BYTES: usize = 4 + 4 + 1 + 4 + 8;

fn string(r: &mut Reader<'_>) -> Result<String> {
    r.str().map(str::to_string)
}

fn ty(r: &mut Reader<'_>) -> Result<Ty> {
    Ok(match r.u8()? {
        ty_tag::BOOL => Ty::Bool,
        ty_tag::INT => Ty::Int,
        ty_tag::FLOAT => Ty::Float,
        ty_tag::STR => Ty::Str,
        // A class type admitted only NULL, which `ANY` admits too.
        ty_tag::CLASS => {
            r.str()?;
            Ty::Any
        }
        ty_tag::ANY => Ty::Any,
        compound => {
            r.descend()?;
            let t = match compound {
                ty_tag::TUPLE => Ty::Tuple(labelled_tys(r)?),
                ty_tag::SET => Ty::Set(Box::new(ty(r)?)),
                // TMQL builds no list or variant, so such a column held
                // only NULL, which `ANY` admits too.
                ty_tag::LIST => ty(r).map(|_| Ty::Any)?,
                ty_tag::VARIANT => labelled_tys(r).map(|_| Ty::Any)?,
                other => return Err(r.err(format_args!("unknown type tag {other}"))),
            };
            r.ascend();
            t
        }
    })
}

fn labelled_tys(r: &mut Reader<'_>) -> Result<Vec<(String, Ty)>> {
    r.counted(MIN_LABELLED_TY_BYTES, |r| Ok((string(r)?, ty(r)?)))
}

fn opt_value(r: &mut Reader<'_>) -> Result<Option<Value>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_value(r)?)),
        other => Err(r.err(format_args!("bad option tag {other}"))),
    }
}

fn histogram(r: &mut Reader<'_>) -> Result<Option<Histogram>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let lo = r.f64()?;
            let hi = r.f64()?;
            let counts = r.counted(8, Reader::u64)?;
            let total = r.u64()?;
            Ok(Some(Histogram {
                lo,
                hi,
                counts,
                total,
            }))
        }
        other => Err(r.err(format_args!("bad histogram tag {other}"))),
    }
}

fn column_stats(r: &mut Reader<'_>) -> Result<ColumnStats> {
    Ok(ColumnStats {
        distinct: r.u64()? as usize,
        min: opt_value(r)?,
        max: opt_value(r)?,
        null_fraction: r.f64()?,
        set_valued_fraction: r.f64()?,
        empty_set_fraction: r.f64()?,
        avg_set_card: r.f64()?,
        histogram: histogram(r)?,
    })
}

fn table_stats(r: &mut Reader<'_>) -> Result<TableStats> {
    let cardinality = r.u64()? as usize;
    let mut columns = BTreeMap::new();
    for _ in 0..r.count(MIN_COLUMN_STATS_BYTES)? {
        let name = string(r)?;
        columns.insert(name, column_stats(r)?);
    }
    Ok(TableStats {
        cardinality,
        columns,
    })
}

/// Decode a catalog blob (the inverse of [`encode_catalog`]).
pub(crate) fn decode_catalog(blob: &[u8]) -> Result<CatalogImage> {
    let mut r = Reader::new("catalog", blob);
    // Classes, then sorts, as a file written with a class-and-sort schema
    // holds them: no query read them, so they are read past.
    for _ in 0..r.count(MIN_CLASS_BYTES)? {
        r.str()?;
        r.str()?;
        labelled_tys(&mut r)?;
    }
    for _ in 0..r.count(MIN_LABELLED_TY_BYTES)? {
        r.str()?;
        ty(&mut r)?;
    }
    let tables = r.counted(MIN_TABLE_BYTES, |r| {
        let name = string(r)?;
        let columns = labelled_tys(r)?;
        let rows = r.u64()?;
        let pages = r.counted(EXTENT_PAGE_BYTES, |r| Ok((r.u32()?, r.u16()?)))?;
        Ok(TableImage {
            name,
            columns,
            extent: TableExtent { pages, rows },
            stats: table_stats(r)?,
        })
    })?;
    // Index section: files written before indexes existed end exactly at
    // the tables, so only read it when bytes remain.
    let mut indexes = Vec::new();
    if r.remaining() > 0 {
        indexes = r.counted(MIN_INDEX_BYTES, |r| {
            Ok(IndexImage {
                table: string(r)?,
                attr: string(r)?,
                kind: r.u8()?,
                first: r.u32()?,
                len: r.u64()?,
            })
        })?;
    }
    r.finish()?;
    Ok(CatalogImage { tables, indexes })
}

/// Serialize a catalog image into one blob (the tests' reference for
/// [`encode_parts`]).
#[cfg(test)]
pub(crate) fn encode_catalog(img: &CatalogImage) -> Vec<u8> {
    let tables = img.tables.iter().map(|t| TableParts {
        name: &t.name,
        columns: &t.columns,
        extent: &t.extent,
        stats: &t.stats,
    });
    let indexes = img.indexes.iter().map(|ix| IndexParts {
        table: &ix.table,
        attr: &ix.attr,
        kind: ix.kind,
        first: ix.first,
        len: ix.len,
    });
    encode_parts(&tables.collect::<Vec<_>>(), &indexes.collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::int_table;

    #[test]
    fn catalog_image_round_trips() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let stats = TableStats::compute(&t).unwrap();
        let img = CatalogImage {
            tables: vec![TableImage {
                name: "R".into(),
                columns: t.columns().to_vec(),
                extent: TableExtent {
                    pages: vec![(1, 2), (2, 1)],
                    rows: 3,
                },
                stats,
            }],
            indexes: vec![IndexImage {
                table: "R".into(),
                attr: "b".into(),
                kind: 0,
                first: 7,
                len: 123,
            }],
        };
        let blob = encode_catalog(&img);
        let back = decode_catalog(&blob).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pre_index_blobs_still_decode() {
        // A blob that ends at the tables section (how pre-index files
        // look) must decode to an index-less image.
        let img = CatalogImage::default();
        let mut blob = encode_catalog(&img);
        blob.truncate(blob.len() - 4); // drop the (empty) index section
        let back = decode_catalog(&blob).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn nan_min_max_survive_the_round_trip() {
        let mut stats = TableStats {
            cardinality: 1,
            columns: BTreeMap::new(),
        };
        stats.columns.insert(
            "x".into(),
            ColumnStats {
                distinct: 1,
                min: Some(Value::Float(f64::NAN)),
                max: Some(Value::Float(f64::NAN)),
                null_fraction: 0.0,
                set_valued_fraction: 0.0,
                empty_set_fraction: 0.0,
                avg_set_card: 0.0,
                histogram: None,
            },
        );
        let img = CatalogImage {
            tables: vec![TableImage {
                name: "N".into(),
                columns: vec![("x".into(), Ty::Float)],
                extent: TableExtent::default(),
                stats,
            }],
            indexes: Vec::new(),
        };
        let back = decode_catalog(&encode_catalog(&img)).unwrap();
        match &back.tables[0].stats.columns["x"].min {
            Some(Value::Float(f)) => assert!(f.is_nan()),
            other => panic!("expected NaN min, got {other:?}"),
        }
    }

    #[test]
    fn garbage_blobs_error_not_panic() {
        assert!(decode_catalog(&[1, 2, 3]).is_err());
        let mut blob = encode_catalog(&CatalogImage::default());
        blob.push(0);
        assert!(
            decode_catalog(&blob).is_err(),
            "trailing bytes are an error"
        );
    }
}
