//! Table statistics for the cost-based optimizer and physical planner.
//!
//! Statistics are built **a column at a time** over rows that are held
//! anyway (`TableStats::of_rows`: the table being registered, or the
//! sample of it): the column's values are collected, sorted and counted
//! as runs, which costs a comparison sort instead of one ordered-set
//! probe, insert and clone per value. [`StatsBuilder`] is the same pass
//! behind a row-at-a-time front for rows that arrive as a stream. The
//! finished [`TableStats`] carry, per column:
//!
//! * distinct count, min/max (classic System-R inputs),
//! * an **equi-width histogram** over numeric values (comparison
//!   selectivities better than a magic constant),
//! * the **null fraction** (the relational baselines introduce NULLs),
//! * the **set-valued / empty-set fractions** and the **average
//!   set-valued fan-out** — the complex-object inputs that drive
//!   `ScanExpr`/`Unnest` cardinality and unnest-strategy choice
//!   (Section 3.2: subqueries over set-valued attributes).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmql_model::{Record, Result, Ty, Value};

use crate::table::Table;

/// Number of buckets in per-column equi-width histograms. Small on
/// purpose: tables are in-memory and queries are selective enough that
/// 16 buckets bound the estimation error well below the cost gaps the
/// optimizer has to rank.
pub(crate) const HISTOGRAM_BUCKETS: usize = 16;

/// Above this many rows, statistics switch from an exact full pass to
/// **reservoir sampling**: per-row work becomes an O(1) reservoir update,
/// and the finished statistics are estimated from a uniform
/// `STATS_SAMPLE_SIZE`-row sample (row count and min/max stay exact).
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

    /// Estimated fraction of values strictly above `v`.
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
    /// Minimum value under the model's total order (None for empty tables).
    pub min: Option<Value>,
    /// Maximum value under the model's total order.
    pub max: Option<Value>,
    /// Fraction of rows in which the value is NULL (the relational
    /// outerjoin baselines are the only producers of NULLs in TM data).
    pub null_fraction: f64,
    /// Fraction of rows in which the value is a set — set-valued attributes
    /// change unnesting decisions (Section 3.2).
    pub set_valued_fraction: f64,
    /// Fraction of rows in which the value is the **empty** set. Empty sets
    /// make membership-style predicates trivially false and cut the fan-out
    /// of `FROM x.a e` iteration.
    pub empty_set_fraction: f64,
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

    /// Estimated fraction of rows with value `> v`.
    pub fn fraction_gt(&self, v: f64) -> Option<f64> {
        self.histogram.as_ref().map(|h| h.fraction_above(v))
    }

    /// Estimated fraction of rows with value `= v`: histogram bucket mass
    /// spread over the distinct values, falling back to 1/NDV.
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
    match row.fields().get(i) {
        Some((label, v)) if **label == *name => Some(v),
        _ => row.find(name),
    }
}

/// One column of `rows`, and how many of its distinct values occur
/// exactly once and exactly twice (the Chao1 inputs). The counters and
/// the histogram's numerics are taken as the values go by; then the
/// values are sorted, which makes every distinct value one run: the
/// distinct count is the number of runs, min and max are the two ends.
/// The sort is stable and borrows, so among equal values the one that
/// survives is the first met, and nothing is cloned but the two extremes.
fn column_pass(rows: &[Record], i: usize, name: &str) -> (ColumnStats, usize, usize) {
    let mut values: Vec<&Value> = Vec::with_capacity(rows.len());
    let mut numerics = Vec::new();
    let (mut nulls, mut sets, mut empty_sets, mut set_elems) = (0usize, 0usize, 0usize, 0usize);
    for v in rows.iter().filter_map(|row| field(row, i, name)) {
        match v {
            Value::Null => nulls += 1,
            Value::Set(s) => {
                sets += 1;
                empty_sets += usize::from(s.is_empty());
                set_elems += s.len();
            }
            Value::Int(i) => numerics.push(*i as f64),
            Value::Float(f) => numerics.push(*f),
            _ => {}
        }
        values.push(v);
    }
    values.sort();
    let (mut distinct, mut once, mut twice) = (0usize, 0usize, 0usize);
    let (mut run_start, mut max) = (0usize, None);
    for end in 1..=values.len() {
        if end < values.len() && values[end] == values[run_start] {
            continue;
        }
        distinct += 1;
        once += usize::from(end - run_start == 1);
        twice += usize::from(end - run_start == 2);
        max = Some(values[run_start]);
        run_start = end;
    }
    let n = rows.len().max(1) as f64;
    let stats = ColumnStats {
        distinct,
        min: values.first().map(|v| (*v).clone()),
        max: max.cloned(),
        null_fraction: nulls as f64 / n,
        set_valued_fraction: sets as f64 / n,
        empty_set_fraction: empty_sets as f64 / n,
        avg_set_card: if sets > 0 {
            set_elems as f64 / sets as f64
        } else {
            0.0
        },
        histogram: Histogram::build(&numerics),
    };
    (stats, once, twice)
}

/// The exact statistics of `rows`: one [`column_pass`] per column.
fn exact_stats<S: AsRef<str>>(names: &[S], rows: &[Record]) -> TableStats {
    let column = |(i, name): (usize, &S)| {
        let name = name.as_ref();
        (name.to_string(), column_pass(rows, i, name).0)
    };
    TableStats {
        cardinality: rows.len(),
        columns: names.iter().enumerate().map(column).collect(),
    }
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
/// (Vitter's Algorithm R, deterministic seed) beside the exact row count
/// and the exact running extremes of every column.
#[derive(Debug)]
struct Sampler {
    rows: usize,
    reservoir: Vec<Record>,
    rng: StdRng,
    extremes: Vec<(Option<Value>, Option<Value>)>,
}

impl Sampler {
    fn new(columns: usize) -> Sampler {
        Sampler {
            rows: 0,
            reservoir: Vec::with_capacity(STATS_SAMPLE_SIZE),
            // Deterministic: registering the same table twice yields the
            // same statistics.
            rng: StdRng::seed_from_u64(0x7153_7461_7473),
            extremes: vec![(None, None); columns],
        }
    }

    fn offer<S: AsRef<str>>(&mut self, names: &[S], row: &Record) {
        self.rows += 1;
        for (i, (min, max)) in self.extremes.iter_mut().enumerate() {
            if let Some(v) = field(row, i, names[i].as_ref()) {
                if min.as_ref().is_none_or(|m| v < m) {
                    *min = Some(v.clone());
                }
                if max.as_ref().is_none_or(|m| v > m) {
                    *max = Some(v.clone());
                }
            }
        }
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
    /// distinct counts through Chao1; row count and extremes exact.
    fn finish<S: AsRef<str>>(self, names: &[S]) -> TableStats {
        let sample_n = self.reservoir.len();
        let column = |((i, name), (min, max)): ((usize, &S), _)| {
            let name = name.as_ref();
            let (mut cs, once, twice) = column_pass(&self.reservoir, i, name);
            cs.distinct = estimate_distinct(cs.distinct, once, twice, sample_n, self.rows);
            (cs.min, cs.max) = (min, max);
            (name.to_string(), cs)
        };
        TableStats {
            cardinality: self.rows,
            columns: names
                .iter()
                .enumerate()
                .zip(self.extremes)
                .map(column)
                .collect(),
        }
    }
}

/// Streaming statistics builder for rows whose number is not known in
/// advance (a disk-backed table's batches): feed rows one at a time, then
/// [`StatsBuilder::finish`]. Rows already in memory go through
/// `TableStats::of_rows`, which this agrees with at every size.
///
/// Up to [`STATS_SAMPLE_THRESHOLD`] rows the builder only keeps a handle
/// to each row and the statistics are exact. The row after that abandons
/// the exact pass for good: the rows kept so far are replayed into a
/// uniform reservoir of `STATS_SAMPLE_SIZE` rows — the same draws, in
/// the same order, as if sampling had run from the first row — and from
/// there per-row work is an O(1) reservoir update. Fractions, fan-outs
/// and histograms then come from the sample and distinct counts through a
/// Chao1 estimator, while the row count and per-column min/max stay
/// exact. [`StatsBuilder::exact`] disables sampling for callers that
/// need the full pass regardless of size (differential tests pin the
/// sampled estimates against it).
#[derive(Debug)]
pub struct StatsBuilder {
    names: Vec<String>,
    threshold: usize,
    /// Every row so far, while there are at most `threshold` of them.
    kept: Vec<Record>,
    /// The reservoir, once there are more.
    sampler: Option<Sampler>,
}

impl StatsBuilder {
    /// A builder for the given column names (sampling past
    /// [`STATS_SAMPLE_THRESHOLD`] rows).
    pub fn new<'a>(columns: impl IntoIterator<Item = &'a str>) -> StatsBuilder {
        StatsBuilder::with_threshold(columns, STATS_SAMPLE_THRESHOLD)
    }

    /// A builder that never samples — the exact full pass at any size.
    pub fn exact<'a>(columns: impl IntoIterator<Item = &'a str>) -> StatsBuilder {
        StatsBuilder::with_threshold(columns, usize::MAX)
    }

    fn with_threshold<'a>(
        columns: impl IntoIterator<Item = &'a str>,
        threshold: usize,
    ) -> StatsBuilder {
        StatsBuilder {
            names: columns.into_iter().map(str::to_string).collect(),
            threshold,
            kept: Vec::new(),
            sampler: None,
        }
    }

    /// Observe one row (missing fields are simply not counted).
    pub fn observe(&mut self, row: &Record) {
        match &mut self.sampler {
            Some(sampler) => sampler.offer(&self.names, row),
            None if self.kept.len() < self.threshold => self.kept.push(row.clone()),
            None => {
                let mut sampler = Sampler::new(self.names.len());
                for kept in self.kept.drain(..) {
                    sampler.offer(&self.names, &kept);
                }
                sampler.offer(&self.names, row);
                self.sampler = Some(sampler);
            }
        }
    }

    /// Finish into per-table statistics.
    pub fn finish(self) -> TableStats {
        match self.sampler {
            Some(sampler) => sampler.finish(&self.names),
            None => exact_stats(&self.names, &self.kept),
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
    /// The statistics of a table whose `rows` are all in memory — the one
    /// entry registration ([`crate::Catalog::register`] /
    /// [`crate::Catalog::replace`]) and [`TableStats::compute`] share.
    /// Knowing the row count up front decides the pass before the first
    /// row: at or below [`STATS_SAMPLE_THRESHOLD`] it is exact, one sort
    /// per column over borrowed values, with no reservoir and no running
    /// extremes to maintain; above it only the reservoir is kept (see
    /// [`StatsBuilder`], which yields the same statistics row by row).
    pub(crate) fn of_rows(columns: &[(String, Ty)], rows: &[Record]) -> TableStats {
        let names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
        if rows.len() <= STATS_SAMPLE_THRESHOLD {
            return exact_stats(&names, rows);
        }
        let mut sampler = Sampler::new(names.len());
        rows.iter().for_each(|row| sampler.offer(&names, row));
        sampler.finish(&names)
    }

    /// Compute the table's statistics (sampling past
    /// [`STATS_SAMPLE_THRESHOLD`] rows). Infallible for in-memory tables;
    /// for disk-backed tables a failed page read is the error, never
    /// statistics over the readable prefix.
    pub fn compute(table: &Table) -> Result<TableStats> {
        if let Some(rows) = table.mem_rows() {
            return Ok(TableStats::of_rows(table.columns(), rows));
        }
        let mut b = StatsBuilder::new(table.columns().iter().map(|(n, _)| n.as_str()));
        for batch in table.batches(1024) {
            batch?.iter().for_each(|r| b.observe(r));
        }
        Ok(b.finish())
    }

    /// Per-column stats, `None` for unknown columns.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Estimated selectivity of an equality predicate on `column`
    /// (classic 1/NDV); 0.1 fallback when the column is unknown.
    pub fn eq_selectivity(&self, column: &str) -> f64 {
        match self.columns.get(column) {
            Some(c) if c.distinct > 0 => 1.0 / c.distinct as f64,
            _ => 0.1,
        }
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
        assert_eq!(st.columns["a"].min, Some(Value::Int(1)));
        assert_eq!(st.columns["a"].max, Some(Value::Int(3)));
    }

    #[test]
    fn selectivity() {
        let t = int_table("R", &["a"], &[&[1], &[2], &[3], &[4]]);
        let st = TableStats::compute(&t).unwrap();
        assert!((st.eq_selectivity("a") - 0.25).abs() < 1e-12);
        assert!((st.eq_selectivity("zz") - 0.1).abs() < 1e-12);
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
        assert!((c.empty_set_fraction - 0.25).abs() < 1e-12);
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
        assert_eq!(st.columns["a"].min, None);
        assert!(st.columns["a"].histogram.is_none());
        assert_eq!(st.columns["a"].fraction_eq(), None);
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
        let mut sampled = StatsBuilder::new(["id", "m"]);
        let mut exact = StatsBuilder::exact(["id", "m"]);
        for row in wide_rows(n) {
            sampled.observe(&row);
            exact.observe(&row);
        }
        let s = sampled.finish();
        let e = exact.finish();
        // Row count and extremes are exact in both modes.
        assert_eq!(s.cardinality, e.cardinality);
        assert_eq!(s.columns["id"].min, e.columns["id"].min);
        assert_eq!(s.columns["id"].max, e.columns["id"].max);
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
        let mut sampled = StatsBuilder::new(["id", "m"]);
        let mut exact = StatsBuilder::exact(["id", "m"]);
        for row in wide_rows(512) {
            sampled.observe(&row);
            exact.observe(&row);
        }
        assert_eq!(
            sampled.finish(),
            exact.finish(),
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
    /// Algorithm R beside running extremes.
    fn reference(names: &[&str], rows: &[Record], threshold: usize) -> TableStats {
        use std::collections::BTreeSet;
        fn column(rows: &[Record], name: &str) -> (ColumnStats, usize, usize) {
            let mut distinct = BTreeSet::new();
            let mut freq: BTreeMap<&Value, usize> = BTreeMap::new();
            let (mut nulls, mut sets, mut empty_sets, mut set_elems) = (0, 0, 0, 0);
            let mut numerics = Vec::new();
            for v in rows.iter().filter_map(|r| r.get(name).ok()) {
                match v {
                    Value::Null => nulls += 1,
                    Value::Set(s) => {
                        sets += 1;
                        empty_sets += usize::from(s.is_empty());
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
                min: distinct.iter().next().cloned(),
                max: distinct.iter().next_back().cloned(),
                null_fraction: nulls as f64 / n,
                set_valued_fraction: sets as f64 / n,
                empty_set_fraction: empty_sets as f64 / n,
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
                (cs.min, cs.max) = (None, None);
                for v in rows.iter().filter_map(|r| r.get(name).ok()) {
                    if cs.min.as_ref().is_none_or(|m| v < m) {
                        cs.min = Some(v.clone());
                    }
                    if cs.max.as_ref().is_none_or(|m| v > m) {
                        cs.max = Some(v.clone());
                    }
                }
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
    fn arb_row() -> impl Strategy<Value = Record> {
        let value = crate::format_tests::arb_value;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn sorted_columns_give_the_statistics_the_ordered_sets_gave(
            pool in prop::collection::vec(arb_row(), 1..24),
        ) {
            let names = ["a", "b", "c"];
            let columns: Vec<(String, Ty)> =
                names.iter().map(|n| (n.to_string(), Ty::Any)).collect();
            // The bytes a catalog image spends on the statistics: equal
            // bytes means the same NaNs and the same representative of
            // tuples that are equal under another label order.
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
                let stream = |mut b: StatsBuilder| {
                    rows.iter().for_each(|r| b.observe(r));
                    b.finish()
                };
                let want = reference(&names, &rows, t);
                for got in [TableStats::of_rows(&columns, &rows), stream(StatsBuilder::new(names))] {
                    prop_assert_eq!(bytes(&got), bytes(&want), "size {}", size);
                    prop_assert_eq!(got, want.clone(), "size {}", size);
                }
                let exact = stream(StatsBuilder::exact(names));
                prop_assert_eq!(exact, reference(&names, &rows, usize::MAX), "size {}", size);
            }
        }
    }

    #[test]
    fn incremental_builder_matches_compute() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let mut b = StatsBuilder::new(["a", "b"]);
        for row in t.rows() {
            b.observe(row);
        }
        assert_eq!(b.finish(), TableStats::compute(&t).unwrap());
    }
}
