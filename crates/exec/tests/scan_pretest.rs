//! The filtering scan's **superset contract**.
//!
//! A selection directly over a stored table is one operator: the scan
//! hands storage a pre-test built from the predicate's leading
//! `var.attr ⟨cmp⟩ key` conjuncts and re-evaluates the whole predicate on
//! what survives. Two properties make that safe, and both are checked here
//! over the full value universe (NULL, booleans, integers past 2⁵³, floats
//! with NaN payloads and ±0.0, strings, tuples, sets), rows with permuted
//! and missing labels, rows long enough to take an overflow chain, all six
//! comparison operators in both orientations, and one to three conjuncts
//! with a non-testable one at every position:
//!
//! * **the pre-test rejects a row only if `eval_predicate` is `Ok(false)`
//!   on it** — on the materialized row, on its encoded bytes and on its
//!   frame against a table's columns (values alone when the columns are
//!   the row's labels in its order, the whole record otherwise) — and on
//!   the bytes it decides whatever it decides on the row, when the tested
//!   fields are scalars or strings;
//! * **the fused scan is indistinguishable from a `Filter` over an
//!   unfiltered scan** — rows, errors, `rows_scanned`, `comparisons` and
//!   `total_work` — on an in-memory table, a disk table that fits its pool
//!   and one behind a 4-page pool.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tmql_algebra::{eval, eval_predicate, CmpOp, Env, Plan, ScalarExpr as E};
use tmql_exec::planner::scan_pretest;
use tmql_exec::{execute_collect, lower, Estimator, ExecConfig, ExecContext, Metrics, PhysPlan};
use tmql_model::{ModelError, Record, Ty, Value};
use tmql_storage::spill::{decode_record, encode_frame, encode_record};
use tmql_storage::{Catalog, RowTest, Table};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const LABELS: [&str; 3] = ["a", "b", "c"];

/// Scalars chosen to collide: every pair the comparison treats specially
/// (Int and Float spellings at and past 2⁵³, `-0.0 = 0`, two NaN payloads,
/// NULL, cross-kind ranks) is drawn often enough to meet itself.
fn arb_scalar() -> BoxedStrategy<Value> {
    let nan = |bits: u64| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        Just(Value::Int(1 << 53)),
        Just(Value::Int((1 << 53) + 1)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        (-3i64..4).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.5)),
        Just(Value::Float((1u64 << 53) as f64)),
        Just(Value::Float(f64::INFINITY)),
        Just(nan(0)),
        Just(nan(0x8000_0000_0000_0001)),
        any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
        "[a-b]{0,2}".prop_map(Value::str),
    ]
    .boxed()
}

fn arb_value() -> BoxedStrategy<Value> {
    let pair = |(x, y): (Value, Value)| Value::tuple([("p", x), ("q", y)]);
    prop_oneof![
        arb_scalar(),
        arb_scalar(),
        arb_scalar(),
        prop::collection::vec(arb_scalar(), 0..3).prop_map(Value::set),
        (arb_scalar(), arb_scalar()).prop_map(pair),
    ]
    .boxed()
}

/// A row over a random subset of [`LABELS`] (at least one), in random
/// order — rows of one table need not agree on label order.
fn arb_row(all_labels: bool) -> impl Strategy<Value = Record> {
    let field = (any::<u64>(), prop::option::of(arb_value()));
    prop::collection::vec(field, 3..4).prop_map(move |fields| {
        let mut fields: Vec<(u64, &str, Value)> = fields
            .into_iter()
            .zip(LABELS)
            .filter_map(|((order, v), l)| match v {
                Some(v) => Some((order, l, v)),
                None if all_labels => Some((order, l, Value::Null)),
                None => None,
            })
            .collect();
        fields.sort_by_key(|(order, ..)| *order);
        Record::new(fields.into_iter().map(|(_, l, v)| (l, v))).expect("distinct labels")
    })
}

/// A key expression free of `x`: a literal, a reference to the outer
/// binding `o.k`, arithmetic on it, or one that fails to evaluate.
fn arb_key() -> BoxedStrategy<E> {
    prop_oneof![
        arb_value().prop_map(E::Lit),
        arb_value().prop_map(E::Lit),
        Just(E::path("o", &["k"])),
        Just(E::Arith(
            tmql_algebra::ArithOp::Add,
            Box::new(E::path("o", &["k"])),
            Box::new(E::lit(1i64)),
        )),
        Just(E::path("o", &["missing"])),
    ]
    .boxed()
}

/// One conjunct: mostly `x.l ⟨op⟩ key` in either orientation, else
/// something the pre-test cannot use — including non-boolean conjuncts,
/// which make `AND` itself fail.
fn arb_conjunct() -> BoxedStrategy<E> {
    let label = || (0usize..4).prop_map(|i| ["a", "b", "c", "zz"][i]);
    let sargable = (label(), 0usize..6, arb_key(), any::<bool>())
        .prop_map(|(l, op, key, flip)| {
            let col = E::path("x", &[l]);
            if flip {
                E::cmp(OPS[op], key, col)
            } else {
                E::cmp(OPS[op], col, key)
            }
        })
        .boxed();
    prop_oneof![
        sargable.clone(),
        sargable.clone(),
        sargable.clone(),
        sargable,
        (label(), label(), 0usize..6).prop_map(|(l, r, op)| E::cmp(
            OPS[op],
            E::path("x", &[l]),
            E::path("x", &[r])
        )),
        label().prop_map(|l| E::IsNull(Box::new(E::path("x", &[l])))),
        label().prop_map(|l| E::not(E::eq(E::path("x", &[l]), E::lit(0i64)))),
        Just(E::lit(true)),
        Just(E::lit(3i64)),
    ]
    .boxed()
}

/// One to three conjuncts, nested to the left or to the right.
fn arb_pred() -> impl Strategy<Value = E> {
    (prop::collection::vec(arb_conjunct(), 1..4), any::<bool>()).prop_map(|(conjuncts, left)| {
        if left {
            E::conj(conjuncts)
        } else {
            let mut it = conjuncts.into_iter().rev();
            let last = it.next().expect("at least one");
            it.fold(last, |acc, c| E::and(c, acc))
        }
    })
}

/// The correlation environment every case runs under: `o = (k = …)`.
fn outer_env(k: &Value) -> Env<'static> {
    let mut env = Env::new();
    env.push("o", Value::tuple([("k", k.clone())]));
    env
}

/// The row's labels in the order `key` picks — one of every permutation,
/// the row's own among them — as a table's columns; and the row framed
/// against them.
fn framed(row: &Record, key: u64) -> (Vec<u8>, Vec<Arc<str>>) {
    let mut columns: Vec<Arc<str>> = row.fields().iter().map(|(l, _)| l.clone()).collect();
    let turn = key as usize % columns.len().max(1);
    columns.rotate_left(turn);
    if key & (1 << 32) != 0 {
        columns.reverse();
    }
    let mut frame = Vec::new();
    encode_frame(&mut frame, row, &columns);
    (frame, columns)
}

/// What `ScanTableOp::open` builds: keys evaluated left to right, the
/// first failure ending the test.
fn row_test(pred: &E, env: &Env<'_>) -> RowTest {
    let keys = scan_pretest(pred, "x")
        .into_iter()
        .map_while(|(attr, op, key)| Some((attr, op, eval(&key, env).ok()?)));
    RowTest::new(keys.collect())
}

/// `eval_predicate(pred)` on `row` bound to `x`, as the executor binds it.
fn eval_on(pred: &E, row: &Record, env: &Env<'_>) -> Result<bool, ModelError> {
    eval_predicate(pred, &env.bind_tuple("x", row))
}

static REJECTED: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    fn pretest_cases(
        row in arb_row(false),
        pred in arb_pred(),
        k in arb_scalar(),
        order in any::<u64>(),
    ) {
        let env = outer_env(&k);
        let test = row_test(&pred, &env);
        let truth = eval_on(&pred, &row, &env);
        let bytes = encode_record(&row);
        let (frame, columns) = framed(&row, order);
        let on_bytes = [test.rejects_bytes(&bytes), test.rejects_frame(&frame, &columns)];
        for rejected in [test.rejects_row(&row), on_bytes[0], on_bytes[1]] {
            if rejected {
                REJECTED.fetch_add(1, Ordering::Relaxed);
                prop_assert_eq!(&truth, &Ok(false), "{:?} rejected {:?}", test, row);
            }
        }
        // Bytes decide no more than the row does.
        for rejected in on_bytes {
            prop_assert!(test.rejects_row(&row) || !rejected);
        }
    }
}

#[test]
fn pretest_rejects_only_rows_the_predicate_rejects() {
    pretest_cases();
    // ... and is not vacuous: it does reject.
    let rejected = REJECTED.load(Ordering::Relaxed);
    assert!(rejected > 400, "only {rejected} rejections in 4096 cases");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Bytes decide as much as the row: when every tested field present
    /// is a scalar or a string, the byte path reaches the row path's
    /// decision — it does not quietly fall back to "admit".
    #[test]
    fn bytes_decide_as_much_as_the_row(
        row in arb_row(false),
        pred in arb_pred(),
        k in arb_scalar(),
        order in any::<u64>(),
    ) {
        let env = outer_env(&k);
        let test = row_test(&pred, &env);
        let scalar = |v: &Value| !matches!(v, Value::Tuple(_) | Value::Set(_));
        let tested = scan_pretest(&pred, "x");
        if tested.iter().all(|(attr, ..)| row.find(attr).is_none_or(scalar)) {
            let bytes = encode_record(&row);
            let (frame, columns) = framed(&row, order);
            let want = test.rejects_row(&row);
            prop_assert_eq!(test.rejects_bytes(&bytes), want, "{:?} on {:?}", test, row);
            prop_assert_eq!(test.rejects_frame(&frame, &columns), want, "{:?} on {:?} framed against {:?}", test, row, columns);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes and mutated encodings — records, and frames against
    /// the columns — go through the skip-scan, the frame walk and then the
    /// decoder: admit, reject or `Err` — never a panic.
    #[test]
    fn hostile_payloads_never_panic(
        row in arb_row(false),
        noise in prop::collection::vec(any::<u8>(), 0..48),
        at in any::<usize>(),
        pred in arb_pred(),
        order in any::<u64>(),
    ) {
        let test = row_test(&pred, &outer_env(&Value::Int(1)));
        let columns = LABELS.map(Arc::from);
        let _ = test.rejects_bytes(&noise);
        let _ = test.rejects_frame(&noise, &columns);
        let _ = decode_record(&noise);
        // Overwrite a window, then truncate: lengths, tags and counts all
        // get hit over the cases. A frame is read against the columns it
        // was written for, and against `a, b, c`.
        let (frame, framed_on) = framed(&row, order);
        for (mut bytes, frame_columns) in [
            (encode_record(&row), None),
            (frame, Some(framed_on)),
        ] {
            let hit = |bytes: &[u8]| match &frame_columns {
                None => {
                    let _ = test.rejects_bytes(bytes);
                    let _ = decode_record(bytes);
                }
                Some(on) => {
                    let _ = test.rejects_frame(bytes, on);
                    let _ = test.rejects_frame(bytes, &columns);
                }
            };
            for (i, b) in noise.iter().enumerate() {
                let n = bytes.len();
                bytes[(at.wrapping_add(i)) % n] = *b;
            }
            hit(&bytes);
            bytes.truncate(at % (bytes.len() + 1));
            hit(&bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// The fused scan against Filter-over-Scan
// ---------------------------------------------------------------------------

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tmql-scan-pretest-{}-{n}.tmdb", std::process::id()))
}

fn remove_db(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}

fn table(rows: &[Record]) -> Table {
    let columns = LABELS.iter().map(|l| (l.to_string(), Ty::Any)).collect();
    Table::from_rows("X", columns, rows.iter().cloned()).expect("every column admits anything")
}

fn scan(pred: Option<E>) -> PhysPlan {
    PhysPlan::ScanTable {
        table: "X".into(),
        var: "x".into(),
        pred,
    }
}

type Outcome = Result<(Vec<Record>, Metrics), ModelError>;

fn run(plan: &PhysPlan, cat: &Catalog, config: &ExecConfig, env: &Env<'_>) -> Outcome {
    let mut ctx = ExecContext::with_config(cat, config);
    let (rows, _) = execute_collect(plan, &mut ctx, env, None)?;
    Ok((rows, ctx.metrics))
}

/// The fused scan and the operator pair it replaced agree on everything a
/// caller can observe. Page faults depend on what the run before left in
/// the pool, so `total_work` is compared without them.
fn assert_same(fused: &Outcome, pair: &Outcome, what: &str) {
    match (fused, pair) {
        (Ok((rows, m)), Ok((want, wm))) => {
            assert_eq!(rows, want, "{what}: rows");
            assert_eq!(m.rows_scanned, wm.rows_scanned, "{what}: rows_scanned");
            assert_eq!(m.comparisons, wm.comparisons, "{what}: comparisons");
            assert_eq!(
                m.total_work() - m.pool_misses,
                wm.total_work() - wm.pool_misses,
                "{what}: total_work"
            );
        }
        (Err(e), Err(want)) => assert_eq!(e, want, "{what}: error"),
        (fused, pair) => panic!("{what}: fused {fused:?} but Filter-over-Scan {pair:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_scan_equals_filter_over_scan(
        rows in prop::collection::vec(arb_row(true), 0..40),
        long in prop::option::of(0usize..40),
        pred in arb_pred(),
        k in arb_scalar(),
        batch in 1usize..9,
    ) {
        // Sometimes one row carries a string too long for a page slot, so
        // it lives in an overflow chain.
        let mut rows = rows;
        if let Some(at) = long.filter(|at| *at < rows.len()) {
            let mut fields: Vec<(Arc<str>, Value)> = rows[at].fields().to_vec();
            fields[0].1 = Value::str("s".repeat(9000));
            rows[at] = Record::new(fields).expect("labels unchanged");
        }
        let env = outer_env(&k);
        let fused = scan(Some(pred.clone()));
        let pair = PhysPlan::Filter { input: Box::new(scan(None)), pred };

        let mut mem = Catalog::new();
        mem.register(table(&rows)).expect("registers");
        let (warm_path, starved_path) = (scratch(), scratch());
        let mut warm = Catalog::open(&warm_path, 64).expect("opens");
        warm.register(table(&rows)).expect("registers");
        let mut starved = Catalog::open(&starved_path, 4).expect("opens");
        starved.register(table(&rows)).expect("registers");

        for (name, cat) in [("memory", &mem), ("disk-warm", &warm), ("disk-4-pages", &starved)] {
            let config = ExecConfig::default().batch_size(batch);
            let what = format!("{name}, batch {batch}");
            assert_same(&run(&fused, cat, &config, &env), &run(&pair, cat, &config, &env), &what);
        }
        drop((warm, starved));
        remove_db(&warm_path);
        remove_db(&starved_path);
    }
}

fn int_rows(ns: impl IntoIterator<Item = i64>) -> Vec<Record> {
    ns.into_iter()
        .map(|n| {
            Record::new([
                ("a", Value::Int(n)),
                ("b", Value::Int(n % 3)),
                ("c", Value::Null),
            ])
        })
        .collect::<Result<_, _>>()
        .expect("distinct labels")
}

/// A morsel whose every row the pre-test rejects returns no rows; the
/// scan must still count it as read in full, not as the end of the table.
#[test]
fn a_fully_rejected_morsel_does_not_end_the_scan() {
    let mut cat = Catalog::new();
    cat.register(table(&int_rows(0..10))).unwrap();
    let pred = E::cmp(CmpOp::Ge, E::path("x", &["a"]), E::lit(6i64));
    // Refills of 2 rows: the first three are rejected whole.
    let config = ExecConfig::default().batch_size(2);
    let mut ctx = ExecContext::with_config(&cat, &config);
    let (rows, profile) = execute_collect(&scan(Some(pred)), &mut ctx, &Env::new(), None).unwrap();
    assert_eq!(rows.len(), 4, "rows 6..10 survive");
    assert_eq!(ctx.metrics.rows_scanned, 10);
    assert_eq!(profile[0].rows_skipped, 6);
    assert_eq!(profile[0].label, "Scan(X)[σ]");
    assert_eq!(ctx.resident_rows(), 0, "close released the carry");
}

/// Inside an `Apply` the scan is re-opened per distinct binding after a
/// `rebind`: a correlated key must be the new row's, not the first one's.
#[test]
fn a_correlated_key_is_reevaluated_after_rebind() {
    let mut cat = Catalog::new();
    cat.register(table(&int_rows(0..12))).unwrap();
    let mut outer = Table::new("O", vec![("k".into(), Ty::Int)]);
    for k in [0, 2, 1, 2] {
        outer
            .insert(Record::new([("k", Value::Int(k))]).unwrap())
            .unwrap();
    }
    cat.register(outer).unwrap();
    // For each o: the set of x.a with x.b = o.k and x.a < 9, read by a
    // filtering scan (built by hand: the planner would probe a hash index).
    let pred = E::and(
        E::eq(E::path("x", &["b"]), E::path("o", &["k"])),
        E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(9i64)),
    );
    let phys = PhysPlan::Apply {
        input: Box::new(PhysPlan::ScanTable {
            table: "O".into(),
            var: "o".into(),
            pred: None,
        }),
        subquery: Box::new(PhysPlan::Map {
            input: Box::new(scan(Some(pred))),
            expr: E::path("x", &["a"]),
            var: "v".into(),
        }),
        label: "z".into(),
        bindings: vec![E::path("o", &["k"])],
    };
    let mut ctx = ExecContext::new(&cat);
    let (rows, _) = execute_collect(&phys, &mut ctx, &Env::new(), None).unwrap();
    assert_eq!(rows.len(), 3, "three distinct outer rows");
    assert_eq!(
        ctx.metrics.apply_invocations, 3,
        "one scan per distinct key"
    );
    for row in rows {
        let k = row
            .get("o")
            .unwrap()
            .as_tuple()
            .unwrap()
            .get("k")
            .unwrap()
            .clone();
        let Value::Int(k) = k else {
            panic!("k is an int")
        };
        let want = Value::set((0..9).filter(|a| a % 3 == k).map(Value::Int));
        assert_eq!(row.get("z").unwrap(), &want, "o.k = {k}");
    }
}

/// One executed operator, one estimate: the fused node carries the
/// estimate the `Filter` of the old pair had, and the estimate vector
/// still zips 1:1 with the executed profile.
#[test]
fn the_profile_and_the_estimates_line_up() {
    let mut cat = Catalog::new();
    cat.register(table(&int_rows(0..100))).unwrap();
    let pred = E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(25i64));
    let plan = Plan::scan("X", "x")
        .select(pred.clone())
        .map(E::path("x", &["a"]), "v");
    let config = ExecConfig::default();
    let phys = lower(&plan, &cat, &config).unwrap();
    assert!(!phys.explain().contains("Filter"), "{phys}");
    let est = Estimator::new(&cat).exec_order_rows_phys(&phys);
    let mut ctx = ExecContext::with_config(&cat, &config);
    let (rows, profile) = execute_collect(&phys, &mut ctx, &Env::new(), Some(&est)).unwrap();
    assert_eq!(rows.len(), 25);
    assert_eq!(profile.len(), est.len(), "{profile:?} vs {est:?}");
    assert_eq!(profile[1].label, "Scan(X)[σ]");
    assert_eq!(profile[1].rows_skipped, 75);
    let select = Estimator::new(&cat).rows(&Plan::scan("X", "x").select(pred));
    assert_eq!(profile[1].est_rows, Some(select));
}
