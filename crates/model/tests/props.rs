//! Property-based tests for the value universe: total-order laws, set
//! algebra laws, and record concatenation invariants. These are the
//! foundations every operator upstream relies on — if `Value`'s order were
//! not total, `BTreeSet` sets (and hence TM set semantics) would silently
//! corrupt.

use proptest::prelude::*;
use tmql_model::{name, setops, Record, Ty, Value};

/// Strategy for arbitrary (bounded-depth) complex object values.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::vec(("[a-d]", inner), 0..3).prop_map(|pairs| {
                let mut rec = Record::empty();
                for (l, v) in pairs {
                    // Skip duplicate labels rather than fail the case.
                    let _ = rec.push(l, v);
                }
                Value::Tuple(rec)
            }),
        ]
    })
}

/// Numbers chosen to collide: `Int`/`Float` spellings of one value, ±0.0,
/// NaN payloads, 2⁵³ ± 1 (where `i as f64` rounds), the ends of i64 and
/// 2⁶³ as a float — and tuples and sets holding them.
fn arb_numeric() -> BoxedStrategy<Value> {
    numeric_leaf()
        .prop_recursive(2, 12, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..3).prop_map(Value::set),
                (inner.clone(), inner).prop_map(|(p, q)| Value::tuple([("p", p), ("q", q)])),
            ]
        })
        .boxed()
}

/// The numbers of [`arb_numeric`], without the containers.
fn numeric_leaf() -> BoxedStrategy<Value> {
    let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
    let two_53 = 1i64 << 53;
    prop_oneof![
        (-2i64..3).prop_map(Value::Int),
        (-2i64..3).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.5)),
        Just(nan(0)),
        Just(nan(1)),
        Just(nan(0x8000_0000_0000_0001)),
        (-1i64..2).prop_map(move |d| Value::Int(two_53 + d)),
        Just(Value::Float(two_53 as f64)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Float(i64::MIN as f64)),
        Just(Value::Float(9_223_372_036_854_775_808.0)),
        Just(Value::Float(f64::INFINITY)),
    ]
    .boxed()
}

/// Values at the edges of a sort prefix: the numbers above, fractions next
/// to their floor and floats below the i64 range; strings with `0x00` and
/// `0x01` bytes and shared starts; tuples with permuted labels and with
/// different label sets (the empty label included); sets and lists longer
/// than the prefix; variants.
fn arb_prefixed() -> BoxedStrategy<Value> {
    let piece = prop_oneof![Just("a"), Just("ab"), Just("\0"), Just("\u{1}"), Just("é")];
    let label = prop_oneof![Just(""), Just("a"), Just("a\0"), Just("b")];
    let leaf = prop_oneof![
        arb_near(),
        Just(Value::Float(-1e300)),
        Just(Value::Float(f64::NEG_INFINITY)),
        prop::collection::vec(piece, 0..5).prop_map(|p| Value::str(p.concat())),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
    ];
    leaf.prop_recursive(3, 24, 6, move |inner| {
        let field = (label.clone(), inner.clone());
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..9).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..9).prop_map(Value::List),
            prop::collection::vec(field, 0..4).prop_map(|fields| {
                let mut rec = Record::empty();
                for (l, v) in fields {
                    // Skip duplicate labels rather than fail the case.
                    let _ = rec.push(l, v);
                }
                Value::Tuple(rec)
            }),
            (label.clone(), inner).prop_map(|(l, v)| Value::Variant(l.into(), Box::new(v))),
        ]
    })
}

/// The numbers of [`arb_numeric`] and fractions next to their floor.
fn arb_near() -> BoxedStrategy<Value> {
    let fraction = prop_oneof![Just(0.25), Just(0.5), Just(0.75)];
    prop_oneof![
        numeric_leaf(),
        (-2i64..3, fraction).prop_map(|(floor, f)| Value::Float(floor as f64 + f)),
    ]
    .boxed()
}

/// The prefix laws on one pair: `a ≤ b ⇒ prefix(a) ≤ prefix(b)`, and equal
/// values have equal prefixes.
fn prefix_laws(a: &Value, b: &Value, schema: Option<&Record>) -> Result<(), TestCaseError> {
    use std::cmp::Ordering::*;
    let (pa, pb) = (a.sort_prefix(schema), b.sort_prefix(schema));
    prop_assert!(pa.is_some() && pb.is_some(), "{:?} / {:?}", a, b);
    let held = match a.cmp(b) {
        Less => pa <= pb,
        Equal => pa == pb,
        Greater => pa >= pb,
    };
    prop_assert!(held, "{:?} vs {:?}: {:032x?} vs {:032x?}", a, b, pa, pb);
    Ok(())
}

fn value_hash(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = tmql_model::hash::ValueHasher::default();
    v.hash(&mut h);
    h.finish()
}

fn arb_int_set() -> impl Strategy<Value = Value> {
    prop::collection::btree_set((-20i64..20).prop_map(Value::Int), 0..8).prop_map(Value::set)
}

proptest! {
    #[test]
    fn ordering_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering::*;
        match a.cmp(&b) {
            Equal => prop_assert_eq!(b.cmp(&a), Equal),
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
        }
    }

    #[test]
    fn ordering_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    #[test]
    fn type_of_admits_its_value(a in arb_value()) {
        let t = Ty::of(&a);
        prop_assert!(t.admits(&a), "inferred type {} must admit {}", t, a);
    }

    #[test]
    fn union_is_commutative_associative_idempotent(
        a in arb_int_set(), b in arb_int_set(), c in arb_int_set()
    ) {
        let ab = setops::union(&a, &b).unwrap();
        let ba = setops::union(&b, &a).unwrap();
        prop_assert_eq!(&ab, &ba);
        let ab_c = setops::union(&ab, &c).unwrap();
        let bc = setops::union(&b, &c).unwrap();
        let a_bc = setops::union(&a, &bc).unwrap();
        prop_assert_eq!(ab_c, a_bc);
        prop_assert_eq!(setops::union(&a, &a).unwrap(), a);
    }

    #[test]
    fn demorgan_for_containment(a in arb_int_set(), b in arb_int_set()) {
        // a ⊆ b  ⟺  a \ b = ∅ — the identity Table 2's ⊆ rows rest on.
        let diff = setops::difference(&a, &b).unwrap();
        prop_assert_eq!(
            setops::subseteq(&a, &b).unwrap(),
            setops::count(&diff).unwrap() == 0
        );
    }

    #[test]
    fn disjoint_iff_intersection_empty(a in arb_int_set(), b in arb_int_set()) {
        let inter = setops::intersect(&a, &b).unwrap();
        prop_assert_eq!(
            setops::disjoint(&a, &b).unwrap(),
            setops::count(&inter).unwrap() == 0
        );
    }

    #[test]
    fn proper_subset_is_strict(a in arb_int_set(), b in arb_int_set()) {
        if setops::subset(&a, &b).unwrap() {
            prop_assert!(setops::subseteq(&a, &b).unwrap());
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn unnest_of_singletons_is_identity(a in arb_int_set()) {
        // UNNEST({{x} | x ∈ a}) = a
        let singletons = Value::set(
            a.as_set().unwrap().iter().map(|v| Value::set([v.clone()]))
        );
        prop_assert_eq!(setops::unnest(&singletons).unwrap(), a);
    }

    #[test]
    fn record_concat_preserves_fields(
        xs in prop::collection::vec(("[a-c]", -5i64..5), 0..3),
        ys in prop::collection::vec(("[d-f]", -5i64..5), 0..3),
    ) {
        let mut x = Record::empty();
        for (l, v) in &xs { let _ = x.push(l.clone(), Value::Int(*v)); }
        let mut y = Record::empty();
        for (l, v) in &ys { let _ = y.push(l.clone(), Value::Int(*v)); }
        let joined = x.concat(&y).unwrap();
        prop_assert_eq!(joined.len(), x.len() + y.len());
        for (l, v) in x.iter() {
            prop_assert_eq!(joined.get(l).unwrap(), v);
        }
        for (l, v) in y.iter() {
            prop_assert_eq!(joined.get(l).unwrap(), v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Equal values hash equal under `ValueHasher`, and as fields of a
    /// record under `Record::structural_hash` — over values that are equal
    /// without being clones.
    #[test]
    fn equal_values_hash_equal(a in arb_numeric(), b in arb_numeric()) {
        prop_assert_eq!(value_hash(&a), value_hash(&a.clone()));
        if a == b {
            prop_assert_eq!(value_hash(&a), value_hash(&b), "{:?} == {:?}", a, b);
            let (ra, rb) = (Record::new([("k", a)]).unwrap(), Record::new([("k", b)]).unwrap());
            prop_assert_eq!(ra.structural_hash(), rb.structural_hash());
        }
    }

    /// One relation: `==` is `cmp` saying `Equal`, and the order is
    /// antisymmetric, over numbers spelled every way.
    #[test]
    fn numeric_equality_is_the_order(a in arb_numeric(), b in arb_numeric()) {
        use std::cmp::Ordering::Equal;
        prop_assert_eq!(a == b, a.cmp(&b) == Equal, "{:?} vs {:?}", a, b);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    #[test]
    fn numeric_order_is_transitive(
        a in arb_numeric(), b in arb_numeric(), c in arb_numeric(),
    ) {
        let v = [a, b, c];
        for (x, y, z) in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)] {
            let (x, y, z) = (&v[x], &v[y], &v[z]);
            prop_assert!(!(x <= y && y <= z) || x <= z, "{:?} ≤ {:?} ≤ {:?}", x, y, z);
            prop_assert!(!(x == y && y == z) || x == z, "{:?} = {:?} = {:?}", x, y, z);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The sort prefix is monotone in the order, with labels encoded: on
    /// the pair, and on lists and tuples led by a shared value or by two
    /// numbers near each other, so the pair is compared behind them.
    #[test]
    fn sort_prefix_is_monotone(
        x in arb_prefixed(), (m, n) in (arb_near(), arb_near()),
        a in arb_prefixed(), b in arb_prefixed(),
    ) {
        prefix_laws(&a, &b, None)?;
        for (x, y) in [(&x, &x), (&m, &n)] {
            let list = |x: &Value, v: &Value| Value::List(vec![x.clone(), v.clone()]);
            prefix_laws(&list(x, &a), &list(y, &b), None)?;
            let pair = |x: &Value, v: &Value| Value::tuple([("p", x.clone()), ("q", v.clone())]);
            prefix_laws(&pair(x, &a), &pair(y, &b), None)?;
        }
    }

    /// With labels left out: rows of one schema (canonical labels, shared
    /// or only equal) against the first row's record; a tuple of other
    /// labels gets no prefix.
    #[test]
    fn sort_prefix_without_labels_is_monotone(
        x in arb_prefixed(), (m, n) in (arb_near(), arb_near()),
        a in arb_prefixed(), b in arb_prefixed(),
    ) {
        let row = |v: &Value| Record::new([("p", x.clone()), ("q", v.clone())]).unwrap();
        let schema = row(&a);
        prefix_laws(&Value::Tuple(row(&a)), &Value::Tuple(row(&b)), Some(&schema))?;
        let led = |v: &Value| Value::Tuple(Record::new([("p", v.clone()), ("q", x.clone())]).unwrap());
        prefix_laws(&led(&a), &led(&b), Some(&schema))?;
        let near = |p: &Value, v: &Value| Value::Tuple(Record::new([("p", p.clone()), ("q", v.clone())]).unwrap());
        prefix_laws(&near(&m, &a), &near(&n, &b), Some(&schema))?;
        let swapped = Record::new([("q", b.clone()), ("p", x.clone())]).unwrap();
        let other = Record::new([("p", x.clone()), ("r", b.clone())]).unwrap();
        for r in [swapped, other, Record::new([("p", x.clone())]).unwrap()] {
            prop_assert_eq!(Value::Tuple(r).sort_prefix(Some(&schema)), None);
        }
    }
}

/// Names for the in-place comparison: short strings over an alphabet with
/// multi-byte UTF-8 (`é` and `è` are 2 bytes and differ in the second,
/// `∅` is 3), `\0` and the empty string, names sharing a prefix, and
/// printable text — so equal pairs, pairs that differ inside a multi-byte
/// char and prefix pairs are all common.
fn arb_name() -> BoxedStrategy<String> {
    prop_oneof![
        "[ab\u{0}éè∅]{0,3}",
        ("[ab]{0,2}", "[a\u{0}é∅]{0,2}").prop_map(|(p, s)| format!("ab{p}{s}")),
        "\\PC{0,8}",
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `name::same` and `name::order` are `str`'s `==` and `Ord`, on
    /// arbitrary pairs and on a name against itself extended.
    #[test]
    fn name_comparison_is_strs(a in arb_name(), b in arb_name()) {
        let longer = format!("{a}{b}");
        for (x, y) in [(&a, &b), (&b, &a), (&a, &longer), (&longer, &a)] {
            prop_assert_eq!(name::same(x, y), x == y, "{:?} {:?}", x, y);
            prop_assert_eq!(name::same_bytes(x.as_bytes(), y.as_bytes()), x == y);
            prop_assert_eq!(name::order(x, y), x.cmp(y), "{:?} {:?}", x, y);
        }
        prop_assert!(name::same(&a, &a.clone()));
    }
}
