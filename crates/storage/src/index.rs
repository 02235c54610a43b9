//! Single-attribute secondary indexes over stored tables.
//!
//! Both index kinds map an attribute value to the row positions holding
//! it. [`OrdIndex`] is the persistent kind: the planner's `IndexScan` and
//! `IndexNLJoin` operators probe it, and [`crate::Catalog`] maintains one
//! per `create_index` call, rebuilding it on `register`/`replace`
//! write-through and committing it through the pager's header-last
//! catalog protocol (see [`encode_index`] / [`decode_index`]).
//!
//! # Probe semantics: candidate supersets
//!
//! The engine's predicate equality (`Value::sql_eq`) promotes `Int` to
//! `Float`, while the map keys here use [`Value`]'s *total order*
//! (`f64::total_cmp`, so `0.0` and `-0.0` are distinct keys and NaN is
//! self-equal). A probe therefore returns a **candidate superset**: every
//! key that could `sql_eq` (or `sql_cmp` into range of) the probe value
//! is looked up, and callers always re-apply the original predicate to
//! the fetched rows. Over-approximation costs a few extra re-checks;
//! under-approximation (a missed match) is impossible by construction.
//!
//! Rows that *lack* the indexed attribute are simply not indexed — the
//! same semantics a scan-side predicate gives an absent field (it can
//! never compare equal), so index paths and scan paths agree.

use std::collections::BTreeMap;

use tmql_model::hash::ValueMap;
use tmql_model::{Result, Value};

use crate::bytes::{put_len, put_len_prefixed, put_u64, Reader};
use crate::spill::{encode_value, read_value};
use crate::table::Table;

/// Batch granularity for index builds (disk tables stream through the
/// buffer pool at this size).
const BUILD_BATCH: usize = 1024;

/// Every key that could `sql_eq` the probe value, in index-key (total
/// order) terms. `Null` equals nothing; `Int`/`Float` promote both ways;
/// every other kind is equal only to itself.
pub fn eq_keys(key: &Value) -> Vec<Value> {
    match key {
        Value::Null => Vec::new(),
        Value::Int(i) => {
            let mut ks = vec![Value::Int(*i), Value::Float(*i as f64)];
            if *i == 0 {
                // `Int(0).sql_eq(Float(-0.0))` holds, but -0.0 is its own
                // total-order key.
                ks.push(Value::Float(-0.0));
            }
            ks
        }
        Value::Float(f) => {
            let mut ks = vec![Value::Float(*f)];
            if *f == 0.0 {
                ks.push(Value::Int(0));
            } else if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                ks.push(Value::Int(*f as i64));
            }
            ks
        }
        other => vec![other.clone()],
    }
}

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

    /// Row positions whose attribute is *key-identical* to `key`.
    pub fn probe(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Candidate row positions for `attr sql_eq key`, ascending. A
    /// superset: the caller re-checks the predicate on the fetched rows.
    pub fn probe_eq(&self, key: &Value) -> Vec<usize> {
        let mut out = Vec::new();
        for k in eq_keys(key) {
            out.extend_from_slice(self.probe(&k));
        }
        out.sort_unstable();
        out
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
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

    /// Reassemble from decoded `(key, positions)` entries.
    pub fn from_entries(
        attr: impl Into<String>,
        entries: impl IntoIterator<Item = (Value, Vec<usize>)>,
    ) -> OrdIndex {
        OrdIndex {
            attr: attr.into(),
            map: entries.into_iter().collect(),
        }
    }

    /// The indexed attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// Row positions whose attribute is *key-identical* to `key`.
    pub fn probe(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Candidate row positions for `attr sql_eq key`, ascending. A
    /// superset: the caller re-checks the predicate on the fetched rows.
    pub fn probe_eq(&self, key: &Value) -> Vec<usize> {
        let mut out = Vec::new();
        for k in eq_keys(key) {
            out.extend_from_slice(self.probe(&k));
        }
        out.sort_unstable();
        out
    }

    /// Candidate row positions for `lo ≤ attr ≤ hi` under `sql_cmp`
    /// (either bound may be absent), ascending. Numeric bounds probe the
    /// `Int` and `Float` key bands; anything else falls back to every
    /// position. Always a superset — the caller re-checks the predicate.
    pub fn probe_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<usize> {
        let (lo, hi) = match (lo.map(NumericBound::of), hi.map(NumericBound::of)) {
            (Some(None), _) | (_, Some(None)) => return self.all_positions(),
            (lo, hi) => (lo.flatten(), hi.flatten()),
        };
        let mut out = Vec::new();
        match (lo, hi) {
            (None, None) => return self.all_positions(),
            (Some(l), None) => {
                // Ints ≥ lo, every float, and all higher-ranked kinds
                // (which `sql_cmp` orders above any numeric bound).
                self.collect_range(Some(Value::Int(l.int_lo)), None, &mut out);
            }
            (None, Some(h)) => {
                // Bools sort below the int band and satisfy any numeric
                // upper bound (rank comparison); nulls ride along
                // harmlessly. Then ints and floats up to the bound;
                // higher ranks never satisfy it.
                self.collect_range(None, Some(Value::Int(h.int_hi)), &mut out);
                self.collect_range(
                    Some(Value::Float(bottom_float())),
                    Some(Value::Float(h.float)),
                    &mut out,
                );
            }
            (Some(l), Some(h)) => {
                if l.int_lo <= h.int_hi {
                    let (il, ih) = (Value::Int(l.int_lo), Value::Int(h.int_hi));
                    self.collect_range(Some(il), Some(ih), &mut out);
                }
                if l.float.total_cmp(&h.float) != std::cmp::Ordering::Greater {
                    let (lf, hf) = (Value::Float(l.float), Value::Float(h.float));
                    self.collect_range(Some(lf), Some(hf), &mut out);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn collect_range(&self, lo: Option<Value>, hi: Option<Value>, out: &mut Vec<usize>) {
        use std::ops::Bound;
        let lo = lo.map_or(Bound::Unbounded, Bound::Included);
        let hi = hi.map_or(Bound::Unbounded, Bound::Included);
        for (_, ps) in self.map.range((lo, hi)) {
            out.extend_from_slice(ps);
        }
    }

    fn all_positions(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.map.values().flatten().copied().collect();
        out.sort_unstable();
        out
    }

    /// Row positions with attribute in `[lo, hi]` in the keys' total
    /// order, in key order (merge-operator input; not a predicate probe —
    /// see [`OrdIndex::probe_range`] for those).
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<usize> {
        self.map
            .range(lo.clone()..=hi.clone())
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Iterate `(key, positions)` in key order — yields the table as sorted
    /// runs for merge-based operators, and feeds the persisted encoding.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &[usize])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
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
pub fn encode_index(idx: &OrdIndex) -> Vec<u8> {
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
pub fn decode_index(attr: &str, blob: &[u8]) -> Result<OrdIndex> {
    let mut r = Reader::new("index", blob);
    let entries = r.counted(MIN_ENTRY_BYTES, |r| {
        let key = read_value(r)?;
        let positions = r.counted(8, |r| Ok(r.u64()? as usize))?;
        Ok((key, positions))
    })?;
    r.finish()?;
    Ok(OrdIndex::from_entries(attr, entries))
}

/// A numeric range-probe bound as each key band sees it. Int-band edges
/// are exact for an `Int` bound (int/int comparison never promotes); a
/// `Float` bound gets slack for the `j as f64` rounding the predicate's
/// promotion performs. The float band takes the promoted bound verbatim —
/// `sql_cmp` uses the same `i as f64` promotion and the same total order.
#[derive(Clone, Copy)]
struct NumericBound {
    /// The smallest int the band must include for `attr ≥ bound`.
    int_lo: i64,
    /// The largest int the band must include for `attr ≤ bound`.
    int_hi: i64,
    float: f64,
}

impl NumericBound {
    /// `v` as a bound, or `None` if it is not an `Int` or a `Float`.
    fn of(v: &Value) -> Option<NumericBound> {
        match *v {
            Value::Int(i) => Some(NumericBound {
                int_lo: i,
                int_hi: i,
                float: i as f64,
            }),
            Value::Float(f) => Some(NumericBound {
                int_lo: int_lo(f),
                int_hi: int_hi(f),
                float: f,
            }),
            _ => None,
        }
    }
}

// Widened int-band bounds for range probes: `j as f64` rounds for huge
// magnitudes, so slacken by more than half an ulp to keep the band a
// superset of every int the predicate could admit.

/// The minimum `f64` under `total_cmp` (a negative NaN with full payload).
fn bottom_float() -> f64 {
    f64::from_bits(0xFFFF_FFFF_FFFF_FFFF)
}

/// Ints near a float bound of at most this magnitude promote to `f64`
/// exactly, so the band edge can be tight; past it, `j as f64` rounds and
/// the edge needs slack to stay a superset.
const EXACT_PROMOTION: f64 = 9.0e15; // < 2^53

fn saturate(g: f64) -> i64 {
    if g <= i64::MIN as f64 {
        i64::MIN
    } else if g >= i64::MAX as f64 {
        i64::MAX
    } else {
        g as i64
    }
}

/// Smallest int the band must include for `attr ≥ b`.
fn int_lo(b: f64) -> i64 {
    if b.is_nan() {
        return i64::MIN;
    }
    if b.abs() <= EXACT_PROMOTION {
        return saturate(b.ceil());
    }
    saturate((b - (b.abs() * 1e-15 + 1.0)).floor())
}

/// Largest int the band must include for `attr ≤ b`.
fn int_hi(b: f64) -> i64 {
    if b.is_nan() {
        return i64::MAX;
    }
    if b.abs() <= EXACT_PROMOTION {
        return saturate(b.floor());
    }
    saturate((b + (b.abs() * 1e-15 + 1.0)).ceil())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::int_table;
    use tmql_model::Record;

    #[test]
    fn hash_index_probe() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let idx = HashIndex::build(&t, "b").unwrap();
        assert_eq!(idx.probe(&Value::Int(10)).len(), 2);
        assert_eq!(idx.probe(&Value::Int(99)).len(), 0);
        assert_eq!(idx.probe_eq(&Value::Float(10.0)), vec![0, 1]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.attr(), "b");
    }

    #[test]
    fn ord_index_range() {
        let t = int_table("R", &["a"], &[&[5], &[1], &[3], &[9]]);
        let idx = OrdIndex::build(&t, "a").unwrap();
        let hits = idx.range(&Value::Int(2), &Value::Int(6));
        let rows = t.rows_vec().unwrap();
        let vals: Vec<i64> = hits
            .iter()
            .map(|&i| rows[i].get("a").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![3, 5]);
        assert_eq!(
            t.fetch_rows(&[1, 2]).unwrap(),
            t.batch(1, 2).unwrap(),
            "ascending position fetch groups runs"
        );
        assert_eq!(
            idx.probe_range(Some(&Value::Int(2)), Some(&Value::Int(6))),
            vec![0, 2]
        );
        assert_eq!(idx.probe_range(Some(&Value::Float(4.5)), None), vec![0, 3]);
        assert_eq!(idx.probe_range(None, Some(&Value::Int(1))), vec![1]);
        assert_eq!(idx.probe_range(None, None), vec![0, 1, 2, 3]);
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
        assert_eq!(h.distinct_keys(), 0);
        let o = OrdIndex::build(&t, "zz").unwrap();
        assert!(o.is_empty());
        assert_eq!(o.probe_eq(&Value::Int(1)), Vec::<usize>::new());
    }

    #[test]
    fn probe_eq_promotes_across_int_and_float_keys() {
        let mut t = crate::table::Table::new("M", vec![("x".into(), tmql_model::Ty::Any)]);
        let vals = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Null,
        ];
        for v in &vals {
            t.insert(Record::new([("x".to_string(), v.clone())]).unwrap())
                .unwrap();
        }
        let idx = OrdIndex::build(&t, "x").unwrap();
        // sql_eq promotion: Int(1) matches Float(1.0) and vice versa.
        assert_eq!(idx.probe_eq(&Value::Int(1)), vec![0, 1]);
        assert_eq!(idx.probe_eq(&Value::Float(1.0)), vec![0, 1]);
        // Zero: Int(0) sql_eq's both float zeros; the superset carries all
        // candidates and the caller's re-check settles it.
        assert_eq!(idx.probe_eq(&Value::Int(0)), vec![2, 3, 4]);
        assert!(idx.probe_eq(&Value::Float(0.0)).contains(&3));
        // NaN is a self-equal key under the total order.
        assert_eq!(idx.probe_eq(&Value::Float(f64::NAN)), vec![5]);
        // Null sql_eq's nothing.
        assert_eq!(idx.probe_eq(&Value::Null), Vec::<usize>::new());
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
