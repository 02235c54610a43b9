//! The shared-body `Record` and the shared-slice set against references:
//! equality, ordering and hashing must stay **label-permutation-
//! insensitive**, mutually consistent, and agree with the obvious
//! sort-by-label / `BTreeSet` implementations kept here — with or without
//! a remembered hash — and no mutator may write through a body that
//! another handle shares.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use tmql_model::hash::ValueHasher;
use tmql_model::{setops, ModelError, Record, Value};

// ---------------------------------------------------------------------------
// Reference implementation: allocate, sort by label, compare pairwise
// ---------------------------------------------------------------------------

fn canonical(r: &Record) -> Vec<(&str, &Value)> {
    let mut fields: Vec<(&str, &Value)> = r.iter().collect();
    fields.sort_by(|a, b| a.0.cmp(b.0));
    fields
}

fn ref_cmp_record(a: &Record, b: &Record) -> Ordering {
    let (ca, cb) = (canonical(a), canonical(b));
    for ((la, va), (lb, vb)) in ca.iter().zip(&cb) {
        let c = la.cmp(lb).then_with(|| ref_cmp(va, vb));
        if c != Ordering::Equal {
            return c;
        }
    }
    ca.len().cmp(&cb.len())
}

fn ref_cmp_seq<'a>(
    a: impl Iterator<Item = &'a Value>,
    b: impl Iterator<Item = &'a Value>,
) -> Ordering {
    let (a, b): (Vec<_>, Vec<_>) = (a.collect(), b.collect());
    for (x, y) in a.iter().zip(&b) {
        let c = ref_cmp(x, y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

/// `Value::cmp` with every tuple comparison routed through the reference.
fn ref_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Tuple(x), Value::Tuple(y)) => ref_cmp_record(x, y),
        (Value::Set(x), Value::Set(y)) => ref_cmp_seq(x.iter(), y.iter()),
        (Value::List(x), Value::List(y)) => ref_cmp_seq(x.iter(), y.iter()),
        (Value::Variant(lx, x), Value::Variant(ly, y)) => lx.cmp(ly).then_with(|| ref_cmp(x, y)),
        _ => a.cmp(b),
    }
}

fn ref_hash(r: &Record) -> u64 {
    let mut h = DefaultHasher::new();
    for (l, v) in canonical(r) {
        l.hash(&mut h);
        v.hash(&mut h);
    }
    h.finish()
}

fn hash_of<T: Hash>(r: &T) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// `Record::structural_hash` from scratch: label order by sorting, nested
/// tuples by recursion, nothing remembered.
fn ref_structural(r: &Record) -> u64 {
    fn feed(v: &Value, h: &mut ValueHasher) {
        let all = |rank: u8, items: &[Value], h: &mut ValueHasher| {
            rank.hash(h);
            items.len().hash(h);
            items.iter().for_each(|v| feed(v, h));
        };
        match v {
            Value::Tuple(r) => {
                5u8.hash(h);
                h.write_u64(ref_structural(r));
            }
            Value::Set(s) => all(6, s, h),
            Value::List(l) => all(7, l, h),
            Value::Variant(label, inner) => {
                8u8.hash(h);
                label.hash(h);
                feed(inner, h);
            }
            scalar => scalar.hash(h),
        }
    }
    let mut h = ValueHasher::default();
    for (l, v) in canonical(r) {
        l.hash(&mut h);
        feed(v, &mut h);
    }
    h.finish() >> 2
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn record_of(pairs: Vec<(String, Value)>) -> Record {
    let mut rec = Record::empty();
    for (l, v) in pairs {
        // Skip duplicate labels rather than fail the case.
        let _ = rec.push(l, v);
    }
    rec
}

/// Values with nested tuples, sets of tuples and NaN among the leaves.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        // Another NaN payload, and both zeros: equal values, distinct bits.
        Just(Value::Float(f64::from_bits(0x7ff8_0000_0000_0001))),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        any::<bool>().prop_map(Value::Bool),
        (-4i64..4).prop_map(Value::Int),
        (-2.0f64..2.0).prop_map(Value::Float),
        "[a-b]{0,2}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::List),
            prop::collection::vec(("[a-d]", inner), 0..4)
                .prop_map(|pairs| Value::Tuple(record_of(pairs))),
        ]
    })
}

/// Records from narrow to wider than the stack-ordered width (16), over a
/// small label alphabet so that two draws often share a label set.
fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        prop::collection::vec(("[a-d]", arb_value()), 0..5).prop_map(record_of),
        prop::collection::vec(("[a-h]{1,2}", arb_value()), 20..30).prop_map(record_of),
    ]
}

/// The same label→value mapping in another declaration order, at every
/// nesting level: a shuffle driven by `seed` on top, a reversal below.
fn permuted(r: &Record, seed: u64) -> Record {
    fn deep(v: &Value) -> Value {
        match v {
            Value::Tuple(r) => {
                let fields = r.fields().iter().rev().map(|(l, v)| (l.clone(), deep(v)));
                Value::Tuple(Record::new(fields).unwrap())
            }
            Value::Set(s) => Value::set(s.iter().map(deep)),
            Value::List(l) => Value::List(l.iter().map(deep).collect()),
            Value::Variant(l, v) => Value::Variant(l.clone(), Box::new(deep(v))),
            other => other.clone(),
        }
    }
    let mut fields: Vec<_> = r
        .fields()
        .iter()
        .map(|(l, v)| (l.clone(), deep(v)))
        .collect();
    let mut state = seed | 1;
    for i in (1..fields.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        fields.swap(i, (state >> 33) as usize % (i + 1));
    }
    Record::new(fields).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn eq_ord_hash_agree_with_the_reference(a in arb_record(), b in arb_record()) {
        let expected = ref_cmp_record(&a, &b);
        prop_assert_eq!(a.cmp(&b), expected);
        prop_assert_eq!(b.cmp(&a), expected.reverse());
        prop_assert_eq!(a == b, expected == Ordering::Equal);
        prop_assert_eq!(hash_of(&a), ref_hash(&a));
        prop_assert_eq!(hash_of(&b), ref_hash(&b));
    }

    #[test]
    fn value_eq_is_cmp_equal(a in arb_value(), b in arb_value(), seed in any::<u64>()) {
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        prop_assert_eq!(a == b, ref_cmp(&a, &b) == Ordering::Equal);
        // Reflexive through a deep copy in another label order (NaN and
        // -0.0 included: floats are equal when their bits are).
        let wrapped = Record::new([("v", a.clone())]).unwrap();
        let copy = permuted(&wrapped, seed);
        prop_assert_eq!(copy.get("v").unwrap(), &a);
        prop_assert_eq!(copy.get("v").unwrap().cmp(&a), Ordering::Equal);
    }

    #[test]
    fn the_remembered_hash_is_the_from_scratch_hash(a in arb_record(), b in arb_record(), seed in any::<u64>()) {
        let expected = ref_structural(&a);
        let p = permuted(&a, seed);
        // `p` is hashed cold (nested tuples cold too); `a` twice, the
        // second time from the memo; a clone carries it.
        prop_assert_eq!(p.structural_hash(), expected);
        prop_assert_eq!(a.structural_hash(), expected);
        prop_assert_eq!(a.structural_hash(), expected);
        prop_assert_eq!(a.clone().structural_hash(), expected);
        // Remembering a hash changes no other answer: `b` stays cold,
        // `a` and `p` are warm, every result is the reference's.
        prop_assert_eq!(a.cmp(&b), ref_cmp_record(&a, &b));
        prop_assert_eq!(a == b, ref_cmp_record(&a, &b) == Ordering::Equal);
        prop_assert_eq!(b == p, ref_cmp_record(&a, &b) == Ordering::Equal);
        prop_assert_eq!(&a, &p);
        prop_assert_eq!(hash_of(&a), ref_hash(&a));
        if a == b {
            prop_assert_eq!(b.structural_hash(), expected);
        }
    }

    #[test]
    fn a_set_is_the_btree_set_of_its_elements(
        xs in prop::collection::vec(arb_value(), 0..8),
        ys in prop::collection::vec(arb_value(), 0..8),
    ) {
        // Unsorted input with duplicates, NaN, sets of sets and tuples.
        let (rx, ry): (BTreeSet<Value>, BTreeSet<Value>) =
            (xs.iter().cloned().collect(), ys.iter().cloned().collect());
        let (x, y) = (Value::set(xs.iter().cloned()), Value::set(ys.iter().cloned()));
        let as_ref = |v: &Value| v.as_set().unwrap().iter().cloned().collect::<Vec<_>>();
        let of = |s: Vec<&Value>| s.into_iter().cloned().collect::<Vec<_>>();
        prop_assert_eq!(as_ref(&x), of(rx.iter().collect()));
        prop_assert_eq!(x.cmp(&y), rx.iter().cmp(ry.iter()));
        prop_assert_eq!(x == y, rx == ry);
        // The byte stream `impl Hash` feeds: rank, length, the elements.
        let mut h = DefaultHasher::new();
        (6u8, rx.len()).hash(&mut h);
        rx.iter().for_each(|v| v.hash(&mut h));
        prop_assert_eq!(hash_of(&x), h.finish());
        // The algebra, against the B-tree's.
        prop_assert_eq!(as_ref(&setops::union(&x, &y).unwrap()), of(rx.union(&ry).collect()));
        prop_assert_eq!(as_ref(&setops::intersect(&x, &y).unwrap()), of(rx.intersection(&ry).collect()));
        prop_assert_eq!(as_ref(&setops::difference(&x, &y).unwrap()), of(rx.difference(&ry).collect()));
        prop_assert_eq!(setops::subseteq(&x, &y).unwrap(), rx.is_subset(&ry));
        prop_assert_eq!(setops::superset(&x, &y).unwrap(), rx.is_superset(&ry) && rx.len() > ry.len());
        prop_assert_eq!(setops::disjoint(&x, &y).unwrap(), rx.is_disjoint(&ry));
        for v in xs.iter().chain(&ys) {
            prop_assert_eq!(setops::member(v, &y).unwrap(), ry.contains(v));
        }
    }

    #[test]
    fn a_permutation_is_the_same_record(a in arb_record(), b in arb_record(), seed in any::<u64>()) {
        let p = permuted(&a, seed);
        prop_assert_eq!(&p, &a);
        prop_assert_eq!(&a, &p);
        prop_assert_eq!(p.cmp(&a), Ordering::Equal);
        prop_assert_eq!(hash_of(&p), hash_of(&a));
        // ...and stands where `a` stands against any third record.
        prop_assert_eq!(p.cmp(&b), a.cmp(&b));
        prop_assert_eq!(p == b, a == b);
    }

    #[test]
    fn one_changed_value_is_seen_in_any_order(a in arb_record(), seed in any::<u64>(), v in arb_value()) {
        if a.is_empty() {
            return Ok(());
        }
        let victim = seed as usize % a.len();
        let changed = Record::new(
            a.fields()
                .iter()
                .enumerate()
                .map(|(i, (l, old))| (l.clone(), if i == victim { v.clone() } else { old.clone() })),
        )
        .unwrap();
        let p = permuted(&changed, seed);
        let expected = ref_cmp(&a.fields()[victim].1, &v);
        prop_assert_eq!(a == p, expected == Ordering::Equal);
        prop_assert_eq!(a.cmp(&p), ref_cmp_record(&a, &p));
    }
}

// ---------------------------------------------------------------------------
// Representation pins
// ---------------------------------------------------------------------------

#[test]
fn a_value_is_four_words() {
    // The memo word rides in the `Record` handle; it must not widen `Value`.
    assert!(std::mem::size_of::<Value>() <= 32);
    assert!(std::mem::size_of::<Record>() <= 24);
}

#[test]
fn one_declaration_order_is_not_the_canonical_order() {
    // Same labels, same (descending) declaration order on both sides: a
    // positional walk would compare `b` first and answer `Less`; the
    // canonical order compares `a` first. A `cmp` that skipped the
    // canonical-order check fails here.
    let x = Record::new([("b", Value::Int(1)), ("a", Value::Int(2))]).unwrap();
    let y = Record::new([("b", Value::Int(2)), ("a", Value::Int(1))]).unwrap();
    assert_eq!(x.cmp(&y), Ordering::Greater);
    assert_eq!(y.cmp(&x), Ordering::Less);
    // One side canonical, the other not: still the canonical answer.
    let x_sorted = Record::new([("a", Value::Int(2)), ("b", Value::Int(1))]).unwrap();
    assert_eq!(x_sorted.cmp(&y), Ordering::Greater);
    assert_eq!(x_sorted.cmp(&x), Ordering::Equal);
    assert_eq!(x_sorted.structural_hash(), x.structural_hash());
    assert_eq!(hash_of(&x_sorted), hash_of(&x));
}

#[test]
fn a_set_keeps_the_first_of_equal_elements() {
    // Equal tuples in two label orders: the one offered first is the one
    // displayed, as a `BTreeSet` insert would have kept it.
    let ab = Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]);
    let ba = Value::tuple([("b", Value::Int(2)), ("a", Value::Int(1))]);
    assert_eq!(
        Value::set([ba.clone(), ab.clone()]).to_string(),
        "{(b = 2, a = 1)}"
    );
    assert_eq!(Value::set([ab, ba]).to_string(), "{(a = 1, b = 2)}");
}

// ---------------------------------------------------------------------------
// Copy-on-write aliasing
// ---------------------------------------------------------------------------

fn sample() -> Record {
    Record::new([
        ("a", Value::Int(1)),
        ("b", Value::set([Value::Int(2), Value::Int(3)])),
        ("c", Value::tuple([("d", Value::str("x"))])),
    ])
    .unwrap()
}

fn shares_body(a: &Record, b: &Record) -> bool {
    std::ptr::eq(a.fields().as_ptr(), b.fields().as_ptr())
}

#[test]
fn a_clone_shares_the_body_and_copies_nothing() {
    let a = sample();
    let b = a.clone();
    assert!(shares_body(&a, &b));
    assert_eq!(a, b);
}

#[test]
fn push_on_a_clone_leaves_the_original_untouched() {
    let a = sample();
    let mut b = a.clone();
    b.push("z", Value::Int(9)).unwrap();
    assert_eq!(a, sample());
    assert!(!a.has("z"));
    assert_eq!(b.len(), a.len() + 1);
    assert_eq!(b.get("z").unwrap(), &Value::Int(9));
    assert!(!shares_body(&a, &b));
    // A rejected push changes nothing either.
    let mut c = a.clone();
    assert!(c.push("a", Value::Int(0)).is_err());
    assert!(shares_body(&a, &c));
}

#[test]
fn concat_extend_project_without_never_mutate_their_operands() {
    let a = sample();
    let other = Record::new([("y", Value::Bool(true))]).unwrap();
    let (a_alias, other_alias) = (a.clone(), other.clone());

    let joined = a.concat(&other).unwrap();
    assert_eq!(joined.len(), 4);
    let extended = a.extend_field("s", Value::empty_set()).unwrap();
    assert_eq!(extended.get("s").unwrap(), &Value::empty_set());
    let projected = a.project(&["c", "a"]).unwrap();
    assert_eq!(projected.labels().collect::<Vec<_>>(), ["c", "a"]);
    let dropped = a.without("b").unwrap();
    assert!(!dropped.has("b"));

    for r in [&a, &a_alias] {
        assert_eq!(*r, sample());
        assert_eq!(r.labels().collect::<Vec<_>>(), ["a", "b", "c"]);
    }
    assert!(shares_body(&a, &a_alias));
    assert_eq!(other, Record::new([("y", Value::Bool(true))]).unwrap());
    assert!(shares_body(&other, &other_alias));
}

#[test]
fn derived_records_share_label_allocations_with_their_source() {
    let a = sample();
    let extended = a.extend_field("s", Value::Null).unwrap();
    let projected = a.project(&["c"]).unwrap();
    assert!(std::sync::Arc::ptr_eq(
        &a.fields()[0].0,
        &extended.fields()[0].0
    ));
    assert!(std::sync::Arc::ptr_eq(
        &a.fields()[2].0,
        &projected.fields()[0].0
    ));
}

/// Labels are compared by their bytes, never by their allocation: a row
/// whose labels are separate allocations (a row decoded from a page, a
/// tuple built by a query) finds, compares, equals and orders like one
/// that shares them, and a duplicate label is refused either way.
#[test]
fn labels_in_separate_allocations_behave_as_shared_ones() {
    use std::sync::Arc;
    // Declared out of canonical order, with multi-byte and `\0` labels.
    const LABELS: [&str; 5] = ["b", "é", "a", "a\0", "∅"];
    let fresh = || Vec::from(LABELS.map(Arc::<str>::from));
    let shared = fresh();
    let row = |labels: Vec<Arc<str>>, first: i64| {
        let values = (first..).map(Value::Int);
        Record::new(labels.into_iter().zip(values)).unwrap()
    };
    let (a, b) = (row(shared.clone(), 0), row(shared.clone(), 1));
    let (fa, fb) = (row(fresh(), 0), row(fresh(), 1));
    let separate = |x: &Record, y: &Record| {
        std::iter::zip(x.fields(), y.fields()).all(|((l, _), (m, _))| !Arc::ptr_eq(l, m))
    };
    assert!(separate(&a, &fa) && separate(&fa, &fb));

    for label in LABELS.into_iter().chain(["", "a\0\0", "e", "c"]) {
        assert_eq!(fa.find(label), a.find(label), "{label:?}");
        assert_eq!(fa.has(label), a.has(label), "{label:?}");
    }
    assert_eq!(fa, a);
    assert_ne!(fa, fb);
    assert_eq!(fa.cmp(&a), Ordering::Equal);
    assert_eq!(fa.cmp(&fb), a.cmp(&b));
    assert_eq!(fb.cmp(&a), b.cmp(&a));
    assert_eq!(fa.cmp(&fb), ref_cmp_record(&fa, &fb));

    // In canonical order (the positional comparison) and permuted (the
    // sorted one), each against the other allocation.
    let mut ascending = fresh();
    ascending.sort();
    let canonical =
        Record::new(ascending.into_iter().zip([2, 3, 0, 1, 4].map(Value::Int))).unwrap();
    assert_eq!(canonical, a);
    assert_eq!(canonical.cmp(&a), Ordering::Equal);
    assert_eq!(canonical.cmp(&b), ref_cmp_record(&canonical, &b));
    assert_eq!(hash_of(&canonical), hash_of(&a));
    assert_eq!(canonical.structural_hash(), a.structural_hash());

    let duplicate = |labels: &[&str]| {
        let body = labels.iter().map(|&l| (Arc::<str>::from(l), Value::Null));
        Record::new(body.collect::<Vec<_>>())
    };
    for labels in [&["é", "é"][..], &["b", "é", "b"], &["∅", "a", "a\0", "∅"]] {
        let refused = duplicate(labels);
        assert!(
            matches!(refused, Err(ModelError::DuplicateField(_))),
            "{labels:?}"
        );
    }
    assert!(fa.concat(&row(fresh()[..1].to_vec(), 9)).is_err());
    assert!(fa.extend_field(Arc::<str>::from("é"), Value::Null).is_err());
}
