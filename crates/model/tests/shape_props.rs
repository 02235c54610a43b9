//! A row built under a [`Shape`] is the row [`Record::new`] builds from the
//! same fields: equality, order, both hashes, rendering and field lookup
//! agree — with the labels permuted, under two shapes of equal labels but
//! separate handles, and at both edges of every bucket of the width ladder.
//! Past the last bucket, a shape is a typed error.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use tmql_model::record::{BUCKETS, EXACT, MAX_WIDTH};
use tmql_model::{ModelError, Record, Shape, Value};

fn hash_of(r: &Record) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// Everything a caller can observe of `a` and `b` agrees — their rendering
/// too when they declare their labels in one order — and against a third
/// row `c` they stand alike; `probe` labels are looked up in both.
fn same_row(a: &Record, b: &Record, c: &Record, probe: &[&str]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a, b);
    prop_assert_eq!(b, a);
    prop_assert_eq!(a.cmp(b), Ordering::Equal);
    prop_assert_eq!(hash_of(a), hash_of(b));
    prop_assert_eq!(a.structural_hash(), b.structural_hash());
    if a.labels().eq(b.labels()) {
        prop_assert_eq!(a.to_string(), b.to_string());
    }
    prop_assert_eq!(a.len(), b.len());
    for label in probe {
        prop_assert_eq!(a.find(label), b.find(label), "{}", label);
    }
    prop_assert_eq!(a.cmp(c), b.cmp(c));
    prop_assert_eq!(c.cmp(a), c.cmp(b));
    prop_assert_eq!(a == c, b == c);
    Ok(())
}

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-4i64..4).prop_map(Value::Int),
        prop_oneof![Just(0.5), Just(-0.0), Just(f64::NAN)].prop_map(Value::Float),
        "[xy]{0,2}".prop_map(Value::str),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::set),
            prop::collection::vec(("[pq]", inner), 0..3).prop_map(|fields| {
                let distinct: BTreeMap<String, Value> = fields.into_iter().collect();
                Value::Tuple(Record::new(distinct).unwrap())
            }),
        ]
    })
}

/// Distinct labels in some order, with a value each; sometimes wider than
/// [`EXACT`], so padded bodies meet exact ones.
fn arb_fields() -> impl Strategy<Value = Vec<(String, Value)>> {
    let labels = prop_oneof![
        prop::collection::btree_set("[a-e]", 0..5),
        prop::collection::btree_set("[a-h][a-h]?", 9..20),
    ];
    let values = prop::collection::vec(arb_value(), 20..21);
    (labels, values, any::<u64>()).prop_map(|(labels, values, seed)| {
        let mut fields: Vec<(String, Value)> = labels.into_iter().zip(values).collect();
        shuffle(&mut fields, seed);
        fields
    })
}

fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

fn shaped(fields: &[(String, Value)]) -> Record {
    let shape = Shape::new(fields.iter().map(|(l, _)| l.as_str())).unwrap();
    Record::shaped(shape, fields.iter().map(|(_, v)| v.clone()))
}

fn checked(fields: &[(String, Value)]) -> Record {
    Record::new(fields.iter().map(|(l, v)| (l.as_str(), v.clone()))).unwrap()
}

const PROBES: [&str; 6] = ["a", "c", "e", "hh", "ab", "z"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_shaped_row_is_the_checked_row(fields in arb_fields(), other in arb_fields(), seed in any::<u64>()) {
        let (a, b, c) = (shaped(&fields), checked(&fields), checked(&other));
        same_row(&a, &b, &c, &PROBES)?;
        // The same mapping with the labels permuted, under a shape of its own.
        let mut permuted = fields.clone();
        shuffle(&mut permuted, seed);
        same_row(&a, &shaped(&permuted), &c, &PROBES)?;
        same_row(&b, &checked(&permuted), &c, &PROBES)?;
    }

    #[test]
    fn equal_labels_under_two_handles_are_one_shape(fields in arb_fields(), other in arb_fields()) {
        let labels = || Shape::new(fields.iter().map(|(l, _)| l.as_str())).unwrap();
        let (s, t) = (labels(), labels());
        prop_assert!(!Arc::ptr_eq(&s, &t));
        prop_assert!(Shape::same(&s, &t));
        let values = || fields.iter().map(|(_, v)| v.clone());
        let (a, b) = (Record::shaped(s, values()), Record::shaped(t, values()));
        same_row(&a, &b, &checked(&other), &PROBES)?;
        // Differing in one value, they differ as the checked rows do.
        if let Some((label, v)) = fields.first() {
            let mut changed = fields.clone();
            changed[0].1 = Value::Int(if *v == Value::Int(9) { 8 } else { 9 });
            let (x, y) = (shaped(&changed), checked(&changed));
            prop_assert_eq!(a == x, b == y);
            prop_assert_eq!(a.cmp(&x), b.cmp(&y));
            prop_assert_eq!(x.find(label), y.find(label));
        }
    }
}

/// The widths at both edges of every rung of the ladder: each exact width,
/// then the first and last width of every bucket.
fn ladder_edges() -> Vec<usize> {
    let mut widths: Vec<usize> = (0..=EXACT).collect();
    let mut low = EXACT + 1;
    for &bucket in &BUCKETS {
        widths.extend([low, bucket]);
        low = bucket + 1;
    }
    widths
}

#[test]
fn every_edge_of_the_width_ladder_is_the_checked_row() {
    for n in ladder_edges() {
        // Declared in descending order, so the canonical order is a
        // permutation too.
        let fields: Vec<(String, Value)> = (0..n)
            .rev()
            .map(|i| (format!("f{i:04}"), Value::Int(i as i64 % 5)))
            .collect();
        let (a, b) = (shaped(&fields), checked(&fields));
        let mut bigger = fields.clone();
        if let Some(last) = bigger.last_mut() {
            last.1 = Value::Int(7);
        }
        let probes = ["f0000", "f0008", "f1023", "g"];
        same_row(&a, &b, &checked(&bigger), &probes).unwrap_or_else(|e| panic!("width {n}: {e}"));
        assert_eq!(a.values().len(), n, "width {n}: padding shows");
        assert_eq!(a.fields().count(), n);
        assert!(a.iter().all(|(l, v)| b.find(l) == Some(v)));
        assert_eq!(
            a.cmp(&checked(&bigger)),
            b.cmp(&checked(&bigger)),
            "width {n}"
        );
    }
}

#[test]
fn past_the_last_bucket_a_shape_is_a_typed_error() {
    for n in [MAX_WIDTH + 1, 4 * MAX_WIDTH] {
        let labels = || (0..n).map(|i| format!("f{i}"));
        assert_eq!(Shape::new(labels()).unwrap_err(), ModelError::TooWide(n));
        let fields = labels().map(|l| (l, Value::Null));
        assert_eq!(Record::new(fields).unwrap_err(), ModelError::TooWide(n));
    }
    // The widest row there is: a concatenation one field past it fails too.
    let wide = Record::new((0..MAX_WIDTH).map(|i| (format!("f{i}"), Value::Int(1)))).unwrap();
    let one = Record::new([("x", Value::Int(0))]).unwrap();
    assert_eq!(
        wide.concat(&one).unwrap_err(),
        ModelError::TooWide(MAX_WIDTH + 1)
    );
    assert_eq!(wide.len(), MAX_WIDTH);
}
