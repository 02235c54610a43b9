//! Single-attribute secondary indexes over stored tables.
//!
//! Both index kinds map an attribute value to the row positions holding
//! it. [`OrdIndex`] is the persistent kind: the planner's `IndexScan` and
//! `IndexNLJoin` operators probe it, and [`crate::Catalog`] maintains one
//! per `create_index` call, rebuilding it on `register`/`replace`
//! write-through and committing it through the pager's header-last
//! catalog protocol (see `encode_index` / `decode_index`).
//!
//! # Probe semantics
//!
//! A probe is an exact lookup in [`Value`]'s own equality and order — the
//! ones `=` and `<` in a predicate read (`CmpOp::test`) — so an `Int` key
//! finds the rows whose attribute is the equal `Float`, `-0.0` finds `0`,
//! and NULL finds nothing. Callers still re-apply the whole predicate to
//! the fetched rows, which may hold more than the indexed conjunct.
//!
//! Rows that *lack* the indexed attribute are simply not indexed — the
//! same semantics a scan-side predicate gives an absent field (it can
//! never compare equal), so index paths and scan paths agree.

use std::collections::BTreeMap;
use std::ops::Bound;

use tmql_model::hash::ValueMap;
use tmql_model::{Result, Value};

use crate::bytes::{put_len, put_len_prefixed, put_u64, Reader};
use crate::spill::{encode_value, read_value};
use crate::table::Table;

/// Batch granularity for index builds (disk tables stream through the
/// buffer pool at this size).
const BUILD_BATCH: usize = 1024;

fn index_rows(table: &Table, attr: &str, mut insert: impl FnMut(Value, usize)) -> Result<()> {
    let mut pos = 0usize;
    for batch in table.batches(BUILD_BATCH) {
        for row in batch? {
            // Rows without the attribute are not indexed (they can never
            // satisfy a predicate over it).
            if let Ok(v) = row.get(attr) {
                insert(v.clone(), pos);
            }
            pos += 1;
        }
    }
    Ok(())
}

/// Hash index: attribute value → row positions. Transient (never
/// persisted); equality probes only.
#[derive(Debug, Clone)]
pub struct HashIndex {
    attr: String,
    map: ValueMap<Value, Vec<usize>>,
}

impl HashIndex {
    /// Build over `table.attr`, skipping rows that lack the attribute.
    pub fn build(table: &Table, attr: &str) -> Result<HashIndex> {
        let mut map: ValueMap<Value, Vec<usize>> = ValueMap::default();
        index_rows(table, attr, |v, pos| map.entry(v).or_default().push(pos))?;
        Ok(HashIndex {
            attr: attr.to_string(),
            map,
        })
    }

    /// The indexed attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// Row positions whose attribute equals `key`, ascending; none for
    /// NULL, which equals nothing.
    pub fn probe_eq(&self, key: &Value) -> Vec<usize> {
        match self.map.get(key) {
            Some(ps) if !key.is_null() => ps.clone(),
            _ => Vec::new(),
        }
    }
}

/// Ordered index: attribute value → row positions in the attribute's
/// total order, supporting equality and range probes. This is the kind
/// the catalog persists and the planner's index paths probe.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdIndex {
    attr: String,
    map: BTreeMap<Value, Vec<usize>>,
}

impl OrdIndex {
    /// Build over `table.attr`, skipping rows that lack the attribute.
    pub fn build(table: &Table, attr: &str) -> Result<OrdIndex> {
        let mut map: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        index_rows(table, attr, |v, pos| map.entry(v).or_default().push(pos))?;
        Ok(OrdIndex {
            attr: attr.to_string(),
            map,
        })
    }

    /// Reassemble from decoded `(key, positions)` entries. Entries whose
    /// keys are equal — `1` and `1.0` in a blob written when those were
    /// two keys — merge their positions, ascending and without repeats.
    pub(crate) fn from_entries(
        attr: impl Into<String>,
        entries: impl IntoIterator<Item = (Value, Vec<usize>)>,
    ) -> OrdIndex {
        let mut map: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (key, positions) in entries {
            map.entry(key).or_default().extend(positions);
        }
        for positions in map.values_mut() {
            positions.sort_unstable();
            positions.dedup();
        }
        OrdIndex {
            attr: attr.into(),
            map,
        }
    }

    /// The indexed attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// Row positions whose attribute equals `key`, ascending; none for
    /// NULL, which equals nothing.
    pub fn probe_eq(&self, key: &Value) -> Vec<usize> {
        match self.map.get(key) {
            Some(ps) if !key.is_null() => ps.clone(),
            _ => Vec::new(),
        }
    }

    /// Row positions whose attribute lies between `lo` and `hi`, each
    /// bound inclusive, strict or absent, ascending; none when a bound is
    /// NULL. Exact on every non-NULL attribute: a NULL one sorts below
    /// every bound and is left to the caller's re-check.
    pub fn probe_range<'k>(&self, lo: Bound<&'k Value>, hi: Bound<&'k Value>) -> Vec<usize> {
        let key = |b: Bound<&'k Value>| match b {
            Bound::Included(v) | Bound::Excluded(v) => Some(v),
            Bound::Unbounded => None,
        };
        let (lo_key, hi_key) = (key(lo), key(hi));
        let null = lo_key.is_some_and(Value::is_null) || hi_key.is_some_and(Value::is_null);
        // Crossed bounds, and equal ones either of which is strict, select
        // nothing (`BTreeMap::range` panics on crossed or equal strict ones).
        let empty = lo_key.zip(hi_key).is_some_and(|(l, h)| {
            l > h || (l == h && !matches!((lo, hi), (Bound::Included(_), Bound::Included(_))))
        });
        if null || empty {
            return Vec::new();
        }
        let runs = self.map.range::<Value, _>((lo, hi));
        let mut out: Vec<usize> = runs.flat_map(|(_, ps)| ps).copied().collect();
        out.sort_unstable();
        out
    }

    /// Iterate `(key, positions)` in key order — yields the table as sorted
    /// runs for merge-based operators, and feeds the persisted encoding.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &[usize])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Total indexed positions across all keys.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// True iff no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Persisted encoding (stored as a page chain; committed with the catalog)
// ---------------------------------------------------------------------------

/// Serialize an [`OrdIndex`]'s entries (keys reuse the spill value codec,
/// so NaN floats and complex keys round-trip bit-exactly).
pub(crate) fn encode_index(idx: &OrdIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_len(&mut out, idx.map.len());
    for (k, ps) in idx.iter() {
        put_len_prefixed(&mut out, |out| encode_value(out, k));
        put_len(&mut out, ps.len());
        for &p in ps {
            put_u64(&mut out, p as u64);
        }
    }
    out
}

/// Fewest bytes one encoded entry takes: a key's length prefix and tag,
/// then a position count.
const MIN_ENTRY_BYTES: usize = 4 + 1 + 4;

/// Decode a persisted index blob (the inverse of [`encode_index`]).
/// Malformed bytes are [`tmql_model::ModelError::Io`], never a panic.
pub(crate) fn decode_index(attr: &str, blob: &[u8]) -> Result<OrdIndex> {
    let mut r = Reader::new("index", blob);
    let entries = r.counted(MIN_ENTRY_BYTES, |r| {
        let key = read_value(r)?;
        let positions = r.counted(8, |r| Ok(r.u64()? as usize))?;
        Ok((key, positions))
    })?;
    r.finish()?;
    Ok(OrdIndex::from_entries(attr, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::int_table;
    use std::ops::Bound::{Excluded as Ex, Included as In, Unbounded as Unb};
    use tmql_model::Record;

    #[test]
    fn hash_index_probe() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let idx = HashIndex::build(&t, "b").unwrap();
        assert_eq!(idx.probe_eq(&Value::Int(10)), vec![0, 1]);
        assert_eq!(idx.probe_eq(&Value::Int(99)), Vec::<usize>::new());
        assert_eq!(idx.probe_eq(&Value::Float(10.0)), vec![0, 1]);
        assert_eq!(idx.probe_eq(&Value::Int(20)), vec![2]);
        assert_eq!(idx.attr(), "b");
    }

    #[test]
    fn ord_index_range() {
        let t = int_table("R", &["a"], &[&[5], &[1], &[3], &[9]]);
        let idx = OrdIndex::build(&t, "a").unwrap();
        assert_eq!(
            t.fetch_rows(&[1, 2]).unwrap(),
            t.batch(1, 2).unwrap(),
            "ascending position fetch groups runs"
        );
        let (two, six) = (Value::Int(2), Value::Int(6));
        assert_eq!(idx.probe_range(In(&two), In(&six)), vec![0, 2]);
        assert_eq!(idx.probe_range(In(&Value::Float(4.5)), Unb), vec![0, 3]);
        assert_eq!(idx.probe_range(Unb, In(&Value::Int(1))), vec![1]);
        assert_eq!(idx.probe_range(Unb, Unb), vec![0, 1, 2, 3]);
        // Float bounds cut the integers exactly; crossed bounds select
        // nothing.
        let (lo, hi) = (Value::Float(2.5), Value::Float(5.0));
        assert_eq!(idx.probe_range(In(&lo), In(&hi)), vec![0, 2]);
        assert_eq!(idx.probe_range(In(&hi), In(&lo)), Vec::<usize>::new());
        // Strict bounds leave their key out; equal bounds keep it only
        // when both are inclusive.
        let (three, five) = (Value::Int(3), Value::Int(5));
        assert_eq!(idx.probe_range(Ex(&three), Ex(&Value::Int(9))), vec![0]);
        assert_eq!(
            idx.probe_range(Ex(&Value::Float(0.5)), Ex(&five)),
            vec![1, 2]
        );
        assert_eq!(idx.probe_range(In(&five), In(&five)), vec![0]);
        for (lo, hi) in [
            (Ex(&five), In(&five)),
            (In(&five), Ex(&five)),
            (Ex(&five), Ex(&five)),
        ] {
            assert_eq!(idx.probe_range(lo, hi), Vec::<usize>::new());
        }
    }

    #[test]
    fn ord_index_iter_is_sorted() {
        let t = int_table("R", &["a"], &[&[5], &[1], &[3]]);
        let idx = OrdIndex::build(&t, "a").unwrap();
        let keys: Vec<i64> = idx.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn missing_attrs_are_simply_not_indexed() {
        // Rows lacking the attribute are skipped, mirroring scan-side
        // predicate semantics — not an error, not a panic.
        let t = int_table("R", &["a"], &[&[1], &[2]]);
        let h = HashIndex::build(&t, "zz").unwrap();
        assert_eq!(h.probe_eq(&Value::Int(1)), Vec::<usize>::new());
        let o = OrdIndex::build(&t, "zz").unwrap();
        assert!(o.is_empty());
        assert_eq!(o.probe_eq(&Value::Int(1)), Vec::<usize>::new());
    }

    #[test]
    fn probe_eq_promotes_across_int_and_float_keys() {
        use tmql_model::Ty;
        let mut t =
            crate::table::Table::new("M", vec![("i".into(), Ty::Int), ("x".into(), Ty::Any)]);
        let vals = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Null,
        ];
        // `i` keeps rows with equal `x` distinct: a table is a set.
        for (i, v) in vals.iter().enumerate() {
            t.insert(Record::new([("i", Value::Int(i as i64)), ("x", v.clone())]).unwrap())
                .unwrap();
        }
        let idx = OrdIndex::build(&t, "x").unwrap();
        // One numeric kind: Int(1) finds Float(1.0) and vice versa, both
        // zeros are 0, and the first row of a key names it.
        assert_eq!(idx.probe_eq(&Value::Int(1)), vec![0, 1]);
        assert_eq!(idx.probe_eq(&Value::Float(1.0)), vec![0, 1]);
        assert_eq!(idx.probe_eq(&Value::Int(0)), vec![2, 3, 4]);
        assert_eq!(idx.probe_eq(&Value::Float(-0.0)), vec![2, 3, 4]);
        assert_eq!(idx.iter().count(), 4);
        // Every NaN is one key, and NULL equals nothing.
        let payload = Value::Float(f64::from_bits(0x7ff8_0000_0000_0001));
        assert_eq!(idx.probe_eq(&payload), vec![5]);
        assert_eq!(idx.probe_eq(&Value::Null), Vec::<usize>::new());
        let hash = HashIndex::build(&t, "x").unwrap();
        for v in vals.iter().chain([&payload]) {
            assert_eq!(hash.probe_eq(v), idx.probe_eq(v), "{v:?}");
        }
        // A range over the numbers holds both kinds, and NULL sorts below.
        let (lo, hi) = (Value::Float(-0.5), Value::Int(1));
        assert_eq!(idx.probe_range(In(&lo), In(&hi)), vec![0, 1, 2, 3, 4]);
        assert_eq!(idx.probe_range(Unb, In(&hi)), vec![0, 1, 2, 3, 4, 6]);
    }

    #[test]
    fn decode_merges_keys_that_are_now_equal() {
        // A blob written when `1` and `1.0`, and `-0.0` and `0`, were four
        // keys, in that order's sequence, with a position listed twice.
        let entries = [
            (Value::Int(0), vec![4]),
            (Value::Int(1), vec![0, 7]),
            (Value::Float(-0.0), vec![2]),
            (Value::Float(1.0), vec![3, 7]),
        ];
        let mut blob = Vec::new();
        put_len(&mut blob, entries.len());
        for (k, ps) in &entries {
            put_len_prefixed(&mut blob, |out| encode_value(out, k));
            put_len(&mut blob, ps.len());
            for &p in ps {
                put_u64(&mut blob, p as u64);
            }
        }
        let idx = decode_index("k", &blob).unwrap();
        assert_eq!(idx.iter().count(), 2);
        assert_eq!(idx.probe_eq(&Value::Float(1.0)), vec![0, 3, 7]);
        assert_eq!(idx.probe_eq(&Value::Int(0)), vec![2, 4]);
        // The first spelling of a key is the one kept.
        let keys: Vec<&Value> = idx.iter().map(|(k, _)| k).collect();
        assert!(
            matches!(keys[..], [Value::Int(0), Value::Int(1)]),
            "{keys:?}"
        );
        // A stored set {1, 1.0} decodes to one element: a list's payload
        // under a set's tag.
        let (mut bytes, mut set_tag) = (Vec::new(), Vec::new());
        encode_value(
            &mut bytes,
            &Value::List(vec![Value::Int(1), Value::Float(1.0)]),
        );
        encode_value(&mut set_tag, &Value::empty_set());
        bytes[0] = set_tag[0];
        let set = crate::spill::decode_value(&bytes).unwrap().0;
        assert_eq!(set.as_set().unwrap().len(), 1, "{set}");
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let idx = OrdIndex::build(&t, "b").unwrap();
        let blob = encode_index(&idx);
        let back = decode_index("b", &blob).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.len(), 3);
        // Malformed bytes error, never panic.
        assert!(decode_index("b", &blob[..blob.len() - 1]).is_err());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(decode_index("b", &trailing).is_err());
        assert!(decode_index("b", &[7]).is_err());
    }
}
