//! The executor's one exit: a query's result set is collected once —
//! values sorted and deduplicated in place, the first of equal values kept
//! — and a projection at the root neither spills nor counts as resident,
//! yet still shows in `ANALYZE`.
//!
//! The budget pin counts every scratch file of the process, so no other
//! test in this file may spill.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tmql::{Database, Plan, QueryOptions, Record, Value};
use tmql_algebra::{Env, ScalarExpr as E};
use tmql_exec::{execute_collect, execute_values, ExecConfig, ExecContext, PhysPlan};
use tmql_model::RecordSet;
use tmql_storage::{table::int_table, Catalog, IoFailpoint};

/// How many values [`palette`] holds.
const PALETTE: usize = 37;

/// Values that are equal but render differently (tuples and sets holding
/// permuted labels, `1` and `1.0` inside tuples, lists and variants),
/// equal under the model but not under `==` on floats (NaN), distinct but
/// close (±0.0, 1 and 1.0), and nested — and values at the edges of the
/// collector's sort prefixes: fractions next to their floor, floats past
/// the i64 range, strings with `0x00` / `0x01` bytes and a shared start,
/// rows of one schema and tuples of others, sets and lists longer than a
/// prefix, variants.
fn palette() -> Vec<Value> {
    let ab = Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]);
    let ba = Value::tuple([("b", Value::Int(2)), ("a", Value::Int(1))]);
    let row = |a: Value, b: Value| Value::tuple([("a", a), ("b", b)]);
    let long = |last: Value| (0..9).map(Value::Int).chain([last]).collect::<Vec<_>>();
    let variant = |l: &str, v: Value| Value::Variant(l.into(), Box::new(v));
    vec![
        Value::Null,
        Value::Int(1),
        Value::Int(2),
        Value::Float(1.0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::str("k"),
        ab.clone(),
        ba.clone(),
        Value::tuple([("t", ab.clone()), ("n", Value::Int(1))]),
        Value::tuple([("n", Value::Int(1)), ("t", ba.clone())]),
        Value::set([Value::Int(1), Value::Int(2)]),
        Value::set([ab.clone(), Value::Int(3)]),
        Value::set([ba, Value::Int(3)]),
        Value::empty_set(),
        Value::Float(1.5),
        Value::Float(1.25),
        Value::Float(-1e300),
        Value::Float(1e19),
        Value::Int(i64::MIN),
        Value::str("a\0"),
        Value::str("a\u{1}b"),
        Value::str("a"),
        row(Value::Int(1), Value::Float(2.0)),
        row(Value::Float(1.5), Value::Int(0)),
        row(Value::Float(1.25), Value::Int(9)),
        row(Value::Int(1), Value::str("a\0")),
        Value::tuple([("a", Value::Int(1))]),
        Value::tuple([("a", Value::Int(1)), ("c", Value::Int(2))]),
        Value::set(long(Value::Int(10))),
        Value::set(long(Value::Float(10.0))),
        Value::List(long(Value::Int(9))),
        Value::List(long(Value::Float(9.0))),
        variant("some", Value::Int(1)),
        variant("some", Value::Float(1.0)),
        variant("none", ab),
    ]
}

/// The result set as it was built before the executor had one exit: the
/// root Map emitted the first `(v = value)` row of each value (a
/// `RecordSet` deduplicated them), and the rows' output values were then
/// sorted into a `BTreeSet`.
fn reference(values: &[Value]) -> BTreeSet<Value> {
    let mut seen = RecordSet::default();
    let rows: Vec<Record> = values
        .iter()
        .map(|v| Record::new([("v", v.clone())]).unwrap())
        .filter(|r| seen.insert(r.clone()))
        .collect();
    rows.iter().map(Plan::row_output_value).collect()
}

fn render<'a>(values: impl IntoIterator<Item = &'a Value>) -> Vec<String> {
    values.into_iter().map(Value::to_string).collect()
}

/// `SELECT x.v FROM xs x`, with the rows of `xs` in the order given.
fn projection(values: &[Value]) -> (PhysPlan, Env<'static>) {
    let plan = PhysPlan::Map {
        input: Box::new(PhysPlan::ScanExpr {
            expr: E::var("xs"),
            var: "x".into(),
        }),
        expr: E::path("x", &["v"]),
        var: "v".into(),
    };
    // A set iterates in order, and these tuples order by `i` first.
    let row =
        |(i, v): (usize, &Value)| Value::tuple([("i", Value::Int(i as i64)), ("v", v.clone())]);
    let mut env = Env::new();
    env.push("xs", Value::set(values.iter().enumerate().map(row)));
    (plan, env)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exit against the old path, at batch sizes that put compactions
    /// between equal values and at collector sizes around the batch that
    /// triggers one; the same values through a Map below the root, which
    /// hands its first occurrences to a root `Filter`.
    #[test]
    fn the_result_set_keeps_the_first_of_equal_values(
        codes in prop::collection::vec(0..PALETTE, 17..160),
    ) {
        let palette = palette();
        prop_assert_eq!(palette.len(), PALETTE);
        let cat = Catalog::new();
        for batch in [1, 2, 3, 8] {
            let config = ExecConfig::default().batch_size(batch);
            for n in [0, 1, batch, batch + 1, 2 * batch + 1, codes.len()] {
                let values: Vec<Value> = codes[..n].iter().map(|&c| palette[c].clone()).collect();
                let want = reference(&values);
                let (map, env) = projection(&values);
                let filter = PhysPlan::Filter {
                    input: Box::new(map.clone()),
                    pred: E::lit(true),
                };
                for plan in [&map, &filter] {
                    let mut ctx = ExecContext::with_config(&cat, &config);
                    let (got, _) = execute_values(plan, &mut ctx, &env, None).unwrap();
                    prop_assert_eq!(render(&got), render(&want), "batch {}, n = {}", batch, n);
                }
                let mut ctx = ExecContext::with_config(&cat, &config);
                let (rows, _) = execute_collect(&map, &mut ctx, &env, None).unwrap();
                let enveloped = want.iter().map(|v| Record::new([("v", v.clone())]).unwrap());
                let want_rows: Vec<String> = enveloped.map(|r| r.to_string()).collect();
                let rows: Vec<String> = rows.iter().map(Record::to_string).collect();
                prop_assert_eq!(rows, want_rows, "batch {}, n = {}", batch, n);
            }
        }
    }
}

#[test]
fn a_root_projection_under_a_budget_writes_no_scratch_file() {
    let rows: Vec<Vec<i64>> = (0..2048).map(|i| vec![i, i % 1024]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let mut db = Database::new();
    db.register_table(int_table("X", &["n", "b"], &refs))
        .unwrap();
    // 1 024 distinct values, sixteen times the budget.
    let query = "SELECT x.b FROM X x";
    let free = db.query(query).unwrap();
    assert_eq!(free.len(), 1024);

    let opts = QueryOptions::default().memory_budget(64);
    let (_, plan) = db.plan_with(query, opts).unwrap();
    let config = ExecConfig::default().memory_budget(64);
    let phys = tmql_exec::lower(&plan, db.catalog(), &config).unwrap();
    assert!(matches!(phys, PhysPlan::Map { .. }), "{phys}");
    let counter = IoFailpoint::count(&std::env::temp_dir().join("tmql-spill-"));
    let mut ctx = ExecContext::with_config(db.catalog(), &config);
    let (values, _) = execute_values(&phys, &mut ctx, &Env::new(), None).unwrap();
    let budgeted = db.query_with(query, opts).unwrap();
    assert_eq!(counter.log(), vec![], "no scratch file was created");
    drop(counter);
    assert_eq!(values, free.values);
    assert_eq!(budgeted.values, free.values);
    assert_eq!(ctx.metrics.rows_spilled, 0);
    assert_eq!(ctx.resident_rows(), 0);
}

#[test]
fn analyze_shows_a_root_projection_as_its_map() {
    let mut db = Database::new();
    db.register_table(int_table("X", &["a", "b"], &[&[1, 1], &[2, 1], &[3, 9]]))
        .unwrap();
    let report = db.analyze("SELECT x.b FROM X x").unwrap();
    let mut tree = report.lines().skip(1);
    let root = tree.next().unwrap();
    assert!(root.starts_with("Map [rows=2 est="), "{report}");
    assert!(root.contains(" batches=1 time="), "{report}");
    let scan = tree.next().unwrap();
    assert!(scan.starts_with("  Scan(X) [rows=3 est="), "{report}");
}
