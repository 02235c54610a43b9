//! Table statistics for the cost-based optimizer and physical planner:
//! what `tmql-exec`'s cost model reads, and nothing else.
//!
//! Statistics are built **a column at a time** over rows held in memory
//! ([`TableStats::exact`]: the table's rows, or a sample of them): the
//! column's values are collected, sorted and counted as runs, which
//! costs a comparison sort instead of one ordered-set probe, insert and
//! clone per value. [`TableStats::compute`] is the one front: it knows a
//! table's row count before its first row, so it takes the exact pass up
//! to [`STATS_SAMPLE_THRESHOLD`] rows and a reservoir sample past it. The
//! finished [`TableStats`] carry the row count and, per column:
//!
//! * the distinct count (the 1/NDV of equality selectivities),
//! * an **equi-width histogram** over numeric values (comparison
//!   selectivities better than a magic constant),
//! * the **null fraction** (the relational baselines introduce NULLs),
//! * the **set-valued fraction** and the **average set-valued fan-out**
//!   — the complex-object inputs that drive `ScanExpr`/`Unnest`
//!   cardinality and unnest-strategy choice (Section 3.2: subqueries
//!   over set-valued attributes).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmql_model::{Record, Result, Ty, Value};

use crate::table::Table;

/// Number of buckets in per-column equi-width histograms. Small on
/// purpose: 16 buckets bound the estimation error well below the cost
/// gaps the optimizer has to rank, and a catalog image spends 8 bytes on
/// each.
pub(crate) const HISTOGRAM_BUCKETS: usize = 16;

/// Above this many rows, statistics switch from an exact full pass to
/// **reservoir sampling**: per-row work becomes an O(1) reservoir update,
/// and the finished statistics are estimated from a uniform
/// `STATS_SAMPLE_SIZE`-row sample (the row count stays exact).
pub const STATS_SAMPLE_THRESHOLD: usize = 8192;

/// Reservoir capacity of the sampled statistics pass (Vitter's
/// Algorithm R over the registration stream, deterministic seed).
pub(crate) const STATS_SAMPLE_SIZE: usize = 2048;

/// An equi-width histogram over the numeric values of one column
/// (`Int` and `Float` values; everything else is ignored).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower bound of the value range (inclusive).
    pub lo: f64,
    /// Upper bound of the value range (inclusive).
    pub hi: f64,
    /// Per-bucket value counts over `[lo, hi]` split equi-width.
    pub counts: Vec<u64>,
    /// Total number of values counted.
    pub total: u64,
}

impl Histogram {
    /// Build from a sample of numeric values; `None` when empty.
    pub fn build(values: &[f64]) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
        let width = (hi - lo).max(f64::MIN_POSITIVE);
        for &v in values {
            let idx = (((v - lo) / width) * HISTOGRAM_BUCKETS as f64) as usize;
            counts[idx.min(HISTOGRAM_BUCKETS - 1)] += 1;
        }
        Some(Histogram {
            lo,
            hi,
            counts,
            total: values.len() as u64,
        })
    }

    /// Estimated fraction of values strictly below `v` (linear
    /// interpolation inside the bucket containing `v`).
    pub(crate) fn fraction_below(&self, v: f64) -> f64 {
        if v <= self.lo {
            return 0.0;
        }
        if v > self.hi {
            return 1.0;
        }
        let width = (self.hi - self.lo).max(f64::MIN_POSITIVE) / HISTOGRAM_BUCKETS as f64;
        let pos = (v - self.lo) / width;
        let bucket = (pos as usize).min(HISTOGRAM_BUCKETS - 1);
        let within = pos - bucket as f64;
        let below: u64 = self.counts[..bucket].iter().sum();
        (below as f64 + self.counts[bucket] as f64 * within) / self.total.max(1) as f64
    }

    /// Estimated fraction of values at or above `v`: the complement of
    /// `fraction_below`.
    pub(crate) fn fraction_above(&self, v: f64) -> f64 {
        if v < self.lo {
            return 1.0;
        }
        (1.0 - self.fraction_below(v)).max(0.0)
    }
}

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct: usize,
    /// Fraction of rows in which the value is NULL (the relational
    /// outerjoin baselines are the only producers of NULLs in TM data).
    pub null_fraction: f64,
    /// Fraction of rows in which the value is a set — set-valued attributes
    /// change unnesting decisions (Section 3.2).
    pub set_valued_fraction: f64,
    /// Average cardinality of the set values in this column (0.0 when the
    /// column holds no sets) — the per-column fan-out of `ScanExpr`/unnest.
    pub avg_set_card: f64,
    /// Equi-width histogram over the numeric values, when any exist.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Estimated fraction of rows with value `< v` (histogram-based; `None`
    /// when the column has no numeric histogram).
    pub fn fraction_lt(&self, v: f64) -> Option<f64> {
        self.histogram.as_ref().map(|h| h.fraction_below(v))
    }

    /// Estimated fraction of rows with value `>= v` (the complement of
    /// [`ColumnStats::fraction_lt`]).
    pub fn fraction_gt(&self, v: f64) -> Option<f64> {
        self.histogram.as_ref().map(|h| h.fraction_above(v))
    }

    /// Estimated fraction of rows with value `= v`: 1/NDV, `None` for an
    /// empty column.
    pub fn fraction_eq(&self) -> Option<f64> {
        if self.distinct == 0 {
            return None;
        }
        Some(1.0 / self.distinct as f64)
    }
}

/// The value of the column declared `i`-th as `name` in `row`: read by
/// position when the row's labels are the declared columns, looked up by
/// name in any other row (`None` when the row lacks the field).
#[inline]
fn field<'a>(row: &'a Record, i: usize, name: &str) -> Option<&'a Value> {
    match row.shape().labels().get(i) {
        Some(label) if **label == *name => row.values().get(i),
        _ => row.find(name),
    }
}

/// One column of `rows`, and how many of its distinct values occur
/// exactly once and exactly twice (the Chao1 inputs). The counters and
/// the histogram's numerics are taken as the values go by; then the
/// values are sorted, which makes every distinct value one run: the
/// distinct count is the number of runs. The sort borrows, so no value is
/// cloned; a column of nothing but `Int`s sorts as `i64`s, which is the
/// same order and the same runs.
fn column_pass(rows: &[Record], i: usize, name: &str) -> (ColumnStats, usize, usize) {
    let column = || rows.iter().filter_map(|row| field(row, i, name));
    if column().all(|v| matches!(v, Value::Int(_))) {
        return int_column_pass(rows.len(), column());
    }
    let mut values: Vec<&Value> = Vec::with_capacity(rows.len());
    let mut numerics = Vec::new();
    let (mut nulls, mut sets, mut set_elems) = (0usize, 0usize, 0usize);
    for v in column() {
        match v {
            Value::Null => nulls += 1,
            Value::Set(s) => {
                sets += 1;
                set_elems += s.len();
            }
            Value::Int(i) => numerics.push(*i as f64),
            Value::Float(f) => numerics.push(*f),
            _ => {}
        }
        values.push(v);
    }
    values.sort();
    let (distinct, once, twice) = runs(&values);
    let n = rows.len().max(1) as f64;
    let stats = ColumnStats {
        distinct,
        null_fraction: nulls as f64 / n,
        set_valued_fraction: sets as f64 / n,
        avg_set_card: if sets > 0 {
            set_elems as f64 / sets as f64
        } else {
            0.0
        },
        histogram: Histogram::build(&numerics),
    };
    (stats, once, twice)
}

/// [`column_pass`] over a column of `Int`s alone, of a table of `rows`
/// rows: no NULLs and no sets.
fn int_column_pass<'a>(
    rows: usize,
    column: impl Iterator<Item = &'a Value>,
) -> (ColumnStats, usize, usize) {
    let mut ints: Vec<i64> = Vec::with_capacity(rows);
    ints.extend(column.filter_map(|v| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }));
    let numerics: Vec<f64> = ints.iter().map(|&i| i as f64).collect();
    ints.sort_unstable();
    let (distinct, once, twice) = runs(&ints);
    let stats = ColumnStats {
        distinct,
        null_fraction: 0.0,
        set_valued_fraction: 0.0,
        avg_set_card: 0.0,
        histogram: Histogram::build(&numerics),
    };
    (stats, once, twice)
}

/// The runs of equal values in `sorted`: how many there are, and how many
/// are one and two long.
fn runs<T: PartialEq>(sorted: &[T]) -> (usize, usize, usize) {
    let (mut distinct, mut once, mut twice, mut run_start) = (0usize, 0usize, 0usize, 0usize);
    for end in 1..=sorted.len() {
        if end < sorted.len() && sorted[end] == sorted[run_start] {
            continue;
        }
        distinct += 1;
        once += usize::from(end - run_start == 1);
        twice += usize::from(end - run_start == 2);
        run_start = end;
    }
    (distinct, once, twice)
}

/// Estimate a column's distinct count from a uniform sample of
/// `sample_n` rows out of `total` (Chao1 with the standard bias-corrected
/// fallback). `freq_once`/`freq_twice` count sample values seen exactly
/// once / exactly twice. An all-distinct sample reads as a key column.
fn estimate_distinct(
    d_sample: usize,
    freq_once: usize,
    freq_twice: usize,
    sample_n: usize,
    total: usize,
) -> usize {
    if total <= sample_n || d_sample == 0 {
        return d_sample;
    }
    if d_sample == sample_n {
        // Every sampled value was unique: a key-like column.
        return total;
    }
    let d = d_sample as f64;
    let f1 = freq_once as f64;
    let est = if freq_twice > 0 {
        d + (f1 * f1) / (2.0 * freq_twice as f64)
    } else {
        d + (f1 * (f1 - 1.0)) / 2.0
    };
    (est.round() as usize).clamp(d_sample, total)
}

/// The sampled pass: a uniform reservoir of [`STATS_SAMPLE_SIZE`] rows
/// (Vitter's Algorithm R, deterministic seed) beside the exact row count.
#[derive(Debug)]
struct Sampler {
    rows: usize,
    reservoir: Vec<Record>,
    rng: StdRng,
}

impl Sampler {
    fn new() -> Sampler {
        Sampler {
            rows: 0,
            reservoir: Vec::with_capacity(STATS_SAMPLE_SIZE),
            // Deterministic: registering the same table twice yields the
            // same statistics.
            rng: StdRng::seed_from_u64(0x7153_7461_7473),
        }
    }

    fn offer(&mut self, row: &Record) {
        self.rows += 1;
        // Algorithm R: every row ends up in the reservoir with
        // probability STATS_SAMPLE_SIZE / rows.
        if self.reservoir.len() < STATS_SAMPLE_SIZE {
            self.reservoir.push(row.clone());
        } else {
            let j = self.rng.gen_range(0..self.rows);
            if j < STATS_SAMPLE_SIZE {
                self.reservoir[j] = row.clone();
            }
        }
    }

    /// Fractions, fan-outs and histograms straight from the sample;
    /// distinct counts through Chao1; the row count exact.
    fn finish(self, columns: &[(String, Ty)]) -> TableStats {
        let sample_n = self.reservoir.len();
        let column = |(i, (name, _)): (usize, &(String, Ty))| {
            let (mut cs, once, twice) = column_pass(&self.reservoir, i, name);
            cs.distinct = estimate_distinct(cs.distinct, once, twice, sample_n, self.rows);
            (name.clone(), cs)
        };
        TableStats {
            cardinality: self.rows,
            columns: columns.iter().enumerate().map(column).collect(),
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Row count (after set-semantics dedup).
    pub cardinality: usize,
    /// Per-column stats keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// The exact statistics of `rows` over the declared `columns`, at any
    /// size: one sort per column over borrowed values. The reference the
    /// sampled pass is measured against.
    pub fn exact(columns: &[(String, Ty)], rows: &[Record]) -> TableStats {
        let column =
            |(i, (name, _)): (usize, &(String, Ty))| (name.clone(), column_pass(rows, i, name).0);
        TableStats {
            cardinality: rows.len(),
            columns: columns.iter().enumerate().map(column).collect(),
        }
    }

    /// The statistics of a table whose `rows` are all in memory — what
    /// registration ([`crate::Catalog::register`] /
    /// [`crate::Catalog::replace`]) and [`TableStats::compute`] share:
    /// the exact pass up to [`STATS_SAMPLE_THRESHOLD`] rows, a reservoir
    /// sample past it.
    pub(crate) fn of_rows(columns: &[(String, Ty)], rows: &[Record]) -> TableStats {
        if rows.len() <= STATS_SAMPLE_THRESHOLD {
            return TableStats::exact(columns, rows);
        }
        let mut sampler = Sampler::new();
        rows.iter().for_each(|row| sampler.offer(row));
        sampler.finish(columns)
    }

    /// Compute the table's statistics, the pass chosen from its row
    /// count: a disk-backed table at or below [`STATS_SAMPLE_THRESHOLD`]
    /// rows is read whole for the exact pass, a larger one streams its
    /// batches through one reservoir — the statistics the same rows give
    /// in memory. Infallible for in-memory tables; for disk-backed tables
    /// a failed page read is the error, never statistics over the
    /// readable prefix.
    pub fn compute(table: &Table) -> Result<TableStats> {
        if let Some(rows) = table.mem_rows() {
            return Ok(TableStats::of_rows(table.columns(), rows));
        }
        if table.len() <= STATS_SAMPLE_THRESHOLD {
            return Ok(TableStats::exact(table.columns(), &table.rows_vec()?));
        }
        let mut sampler = Sampler::new();
        for batch in table.batches(1024) {
            batch?.iter().for_each(|row| sampler.offer(row));
        }
        Ok(sampler.finish(table.columns()))
    }

    /// Per-column stats, `None` for unknown columns.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Average set-valued fan-out of `column` — the expected element count
    /// when iterating `x.column` — or `None` when the column is unknown or
    /// holds no sets.
    pub fn avg_set_card(&self, column: &str) -> Option<f64> {
        match self.columns.get(column) {
            Some(c) if c.set_valued_fraction > 0.0 => Some(c.avg_set_card),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::int_table;
    use crate::table::Table;
    use proptest::prelude::*;
    use tmql_model::{Record, Ty};

    #[test]
    fn basic_stats() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let st = TableStats::compute(&t).unwrap();
        assert_eq!(st.cardinality, 3);
        assert_eq!(st.columns["a"].distinct, 3);
        assert_eq!(st.columns["b"].distinct, 2);
    }

    #[test]
    fn set_valued_fraction_and_fanout() {
        let mut t = Table::new("X", vec![("a".into(), Ty::Any)]);
        t.insert(
            Record::new([("a".to_string(), Value::set([Value::Int(1), Value::Int(2)]))]).unwrap(),
        )
        .unwrap();
        t.insert(Record::new([("a".to_string(), Value::set([Value::Int(7)]))]).unwrap())
            .unwrap();
        t.insert(Record::new([("a".to_string(), Value::empty_set())]).unwrap())
            .unwrap();
        t.insert(Record::new([("a".to_string(), Value::Int(1))]).unwrap())
            .unwrap();
        let st = TableStats::compute(&t).unwrap();
        let c = &st.columns["a"];
        assert!((c.set_valued_fraction - 0.75).abs() < 1e-12);
        assert!((c.avg_set_card - 1.0).abs() < 1e-12, "(2 + 1 + 0) / 3 sets");
        assert_eq!(st.avg_set_card("a"), Some(1.0));
        assert_eq!(st.avg_set_card("nope"), None);
    }

    #[test]
    fn null_fraction_counted() {
        let mut t = Table::new("N", vec![("a".into(), Ty::Any)]);
        t.insert(Record::new([("a".to_string(), Value::Null)]).unwrap())
            .unwrap();
        t.insert(Record::new([("a".to_string(), Value::Int(3))]).unwrap())
            .unwrap();
        let st = TableStats::compute(&t).unwrap();
        assert!((st.columns["a"].null_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_fractions() {
        // Uniform 0..100: P(< 25) ≈ 0.25, P(> 75) ≈ 0.25.
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let st = TableStats::compute(&int_table("H", &["a"], &refs)).unwrap();
        let c = &st.columns["a"];
        let below = c.fraction_lt(25.0).unwrap();
        assert!((below - 0.25).abs() < 0.05, "{below}");
        let above = c.fraction_gt(75.0).unwrap();
        assert!((above - 0.25).abs() < 0.05, "{above}");
        // Out-of-range probes clamp.
        assert_eq!(c.fraction_lt(-1.0), Some(0.0));
        assert_eq!(c.fraction_gt(1000.0), Some(0.0));
        assert_eq!(c.fraction_lt(1000.0), Some(1.0));
    }

    #[test]
    fn histogram_skew_visible() {
        // Two distinct clusters (values 0..=9 and 170..=179, one row
        // each under set semantics): the histogram puts half the mass in
        // the low buckets, so P(< 50) ≈ 0.5 — not the uniform ≈ 0.28.
        let rows: Vec<Vec<i64>> = (0..10i64)
            .map(|v| vec![v])
            .chain((170..180).map(|v| vec![v]))
            .collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let st = TableStats::compute(&int_table("S", &["a"], &refs)).unwrap();
        let below = st.columns["a"].fraction_lt(50.0).unwrap();
        assert!((below - 0.5).abs() < 0.1, "{below}");
    }

    #[test]
    fn empty_table_stats() {
        let t = int_table("E", &["a"], &[]);
        let st = TableStats::compute(&t).unwrap();
        assert_eq!(st.cardinality, 0);
        assert_eq!(st.columns["a"].distinct, 0);
        assert!(st.columns["a"].histogram.is_none());
        assert_eq!(st.columns["a"].fraction_eq(), None);
    }

    fn wide_columns() -> Vec<(String, Ty)> {
        vec![("id".into(), Ty::Int), ("m".into(), Ty::Int)]
    }

    fn wide_rows(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new([
                    ("id".to_string(), Value::Int(i)),
                    ("m".to_string(), Value::Int(i % 64)),
                ])
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn sampling_kicks_in_past_the_threshold() {
        let n = (STATS_SAMPLE_THRESHOLD * 3) as i64;
        let rows = wide_rows(n);
        let s = TableStats::of_rows(&wide_columns(), &rows);
        let e = TableStats::exact(&wide_columns(), &rows);
        // The row count is exact in both modes.
        assert_eq!(s.cardinality, e.cardinality);
        // Distinct estimates: the key column reads as all-distinct, the
        // modulo column is saturated in the sample.
        assert_eq!(s.columns["id"].distinct, n as usize);
        let q = |est: usize, act: usize| {
            let (e, a) = (est.max(1) as f64, act.max(1) as f64);
            (e / a).max(a / e)
        };
        assert!(
            q(s.columns["m"].distinct, 64) <= 1.5,
            "{}",
            s.columns["m"].distinct
        );
        // Sampled histogram fractions track the exact ones.
        for probe in [n / 4, n / 2, 3 * n / 4] {
            let fs = s.columns["id"].fraction_lt(probe as f64).unwrap();
            let fe = e.columns["id"].fraction_lt(probe as f64).unwrap();
            assert!(
                (fs - fe).abs() < 0.05,
                "probe {probe}: sampled {fs} vs exact {fe}"
            );
        }
    }

    #[test]
    fn small_tables_keep_the_exact_pass() {
        let rows = wide_rows(512);
        assert_eq!(
            TableStats::of_rows(&wide_columns(), &rows),
            TableStats::exact(&wide_columns(), &rows),
            "below the threshold nothing changes"
        );
    }

    #[test]
    fn distinct_estimator_shapes() {
        // Saturated sample: estimate equals the sample's distinct count.
        assert_eq!(estimate_distinct(64, 0, 0, 2048, 100_000), 64);
        // All-unique sample: key column, estimate the full cardinality.
        assert_eq!(estimate_distinct(2048, 2048, 0, 2048, 100_000), 100_000);
        // No sampling happened (sample covers the table): exact.
        assert_eq!(estimate_distinct(77, 10, 5, 2048, 2000), 77);
        // Chao1 interior case stays between the sample count and the total.
        let est = estimate_distinct(1000, 500, 250, 2048, 100_000);
        assert!((1000..=100_000).contains(&est), "{est}");
    }

    /// The builder this module had before it sorted columns, kept as the
    /// reference: per value, a probe of (and a clone into) the column's
    /// ordered set, by-name field lookups, and — past `threshold` rows —
    /// Algorithm R.
    fn reference(names: &[&str], rows: &[Record], threshold: usize) -> TableStats {
        use std::collections::BTreeSet;
        fn column(rows: &[Record], name: &str) -> (ColumnStats, usize, usize) {
            let mut distinct = BTreeSet::new();
            let mut freq: BTreeMap<&Value, usize> = BTreeMap::new();
            let (mut nulls, mut sets, mut set_elems) = (0, 0, 0);
            let mut numerics = Vec::new();
            for v in rows.iter().filter_map(|r| r.get(name).ok()) {
                match v {
                    Value::Null => nulls += 1,
                    Value::Set(s) => {
                        sets += 1;
                        set_elems += s.len();
                    }
                    Value::Int(i) => numerics.push(*i as f64),
                    Value::Float(f) => numerics.push(*f),
                    _ => {}
                }
                if !distinct.contains(v) {
                    distinct.insert(v.clone());
                }
                *freq.entry(v).or_default() += 1;
            }
            let n = rows.len().max(1) as f64;
            let stats = ColumnStats {
                distinct: distinct.len(),
                null_fraction: nulls as f64 / n,
                set_valued_fraction: sets as f64 / n,
                avg_set_card: match sets {
                    0 => 0.0,
                    _ => set_elems as f64 / sets as f64,
                },
                histogram: Histogram::build(&numerics),
            };
            let exactly = |n| freq.values().filter(|&&c| c == n).count();
            (stats, exactly(1), exactly(2))
        }
        let mut columns = BTreeMap::new();
        if rows.len() <= threshold {
            for name in names {
                columns.insert(name.to_string(), column(rows, name).0);
            }
        } else {
            let mut rng = StdRng::seed_from_u64(0x7153_7461_7473);
            let mut reservoir: Vec<Record> = Vec::new();
            for (seen, row) in rows.iter().enumerate() {
                if reservoir.len() < STATS_SAMPLE_SIZE {
                    reservoir.push(row.clone());
                } else {
                    let j = rng.gen_range(0..seen + 1);
                    if j < STATS_SAMPLE_SIZE {
                        reservoir[j] = row.clone();
                    }
                }
            }
            for name in names {
                let (mut cs, once, twice) = column(&reservoir, name);
                cs.distinct =
                    estimate_distinct(cs.distinct, once, twice, reservoir.len(), rows.len());
                columns.insert(name.to_string(), cs);
            }
        }
        TableStats {
            cardinality: rows.len(),
            columns,
        }
    }

    /// A row over the declared columns `a`, `b`, `c`: as declared, in
    /// another order, lacking one or two of them, or with a stranger among
    /// them that shifts the positions.
    fn arb_row(value: fn() -> BoxedStrategy<Value>) -> impl Strategy<Value = Record> {
        (value(), value(), value(), 0usize..5).prop_map(|(a, b, c, shape)| {
            let fields = match shape {
                0 => vec![("a", a), ("b", b), ("c", c)],
                1 => vec![("c", c), ("a", a), ("b", b)],
                2 => vec![("a", a), ("c", c)],
                3 => vec![("a", a), ("z", Value::Null), ("b", b), ("c", c)],
                _ => vec![("b", b)],
            };
            Record::new(fields).unwrap()
        })
    }

    /// Integers that repeat, and a few far apart.
    fn arb_int() -> BoxedStrategy<Value> {
        prop_oneof![
            (-4i64..5).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            Just(Value::Int(i64::MIN)),
            Just(Value::Int(i64::MAX)),
        ]
        .boxed()
    }

    /// Numbers as `Int`s and as `Float`s, the same number often both ways
    /// (one value to the statistics), and ±0.0, NaN and halves.
    fn arb_number() -> BoxedStrategy<Value> {
        prop_oneof![
            arb_int(),
            (-4i64..5).prop_map(|i| Value::Float(i as f64)),
            (-8i64..9).prop_map(|i| Value::Float(i as f64 / 2.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Int(1 << 53)),
            Just(Value::Float((1u64 << 53) as f64)),
        ]
        .boxed()
    }

    /// Rows whose values are drawn from anything, from `Int`s alone, or
    /// from `Int`s and `Float`s.
    fn arb_pool() -> impl Strategy<Value = Vec<Record>> {
        let rows = |value| prop::collection::vec(arb_row(value), 1..24);
        prop_oneof![
            rows(crate::format_tests::arb_value),
            rows(arb_int),
            rows(arb_number),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        #[test]
        fn sorted_columns_give_the_statistics_the_ordered_sets_gave(
            pool in arb_pool(),
        ) {
            let names = ["a", "b", "c"];
            let columns: Vec<(String, Ty)> =
                names.iter().map(|n| (n.to_string(), Ty::Any)).collect();
            // The bytes a catalog image spends on the statistics: every
            // float compared bit for bit.
            let bytes = |stats: &TableStats| {
                crate::pager::image::encode_catalog(&crate::pager::image::CatalogImage {
                    tables: vec![crate::pager::image::TableImage {
                        name: "T".into(),
                        columns: columns.clone(),
                        extent: Default::default(),
                        stats: stats.clone(),
                    }],
                    ..Default::default()
                })
            };
            let t = STATS_SAMPLE_THRESHOLD;
            for size in [0, 1, pool.len(), t - 1, t, t + 1, 2 * t + 77] {
                let rows: Vec<Record> =
                    (0..size).map(|i| pool[(i * 31 + i / 7) % pool.len()].clone()).collect();
                let want = reference(&names, &rows, t);
                let got = TableStats::of_rows(&columns, &rows);
                prop_assert_eq!(bytes(&got), bytes(&want), "size {}", size);
                prop_assert_eq!(got, want, "size {}", size);
                let exact = TableStats::exact(&columns, &rows);
                prop_assert_eq!(exact, reference(&names, &rows, usize::MAX), "size {}", size);
            }
        }
    }
}
