//! Experiment T1: reproduce the paper's **Table 1** exactly — the nest
//! equijoin of `X(e, d)` and `Y(a, b)` on the second attribute with the
//! identity join function:
//!
//! ```text
//! e  d  |  a  b  |  e  d  s(e,d)
//! 1  1  |  1  1  |  1  1  {(1,1),(2,1)}
//! 2  2  |  2  1  |  2  2  ∅
//! 3  3  |  3  3  |  3  3  {(3,3)}
//! ```

use tmql_algebra::{Plan, ScalarExpr as E};
use tmql_exec::{run, ExecConfig, JoinAlgo};
use tmql_model::{Record, Value};
use tmql_workload::schemas::table1_catalog;

fn nest_join_plan() -> Plan {
    Plan::scan("X", "x").nest_join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["d"]), E::path("y", &["b"])),
        E::var("y"),
        "s",
    )
}

fn y_tuple(a: i64, b: i64) -> Value {
    Value::Tuple(
        Record::new([
            ("a".to_string(), Value::Int(a)),
            ("b".to_string(), Value::Int(b)),
        ])
        .unwrap(),
    )
}

#[test]
fn table1_exact_output() {
    let cat = table1_catalog();
    for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge] {
        let (rows, _) = run(&nest_join_plan(), &cat, &ExecConfig::with_join_algo(algo)).unwrap();
        assert_eq!(
            rows.len(),
            3,
            "every X tuple appears exactly once ({algo:?})"
        );

        let by_e = |e: i64| {
            rows.iter()
                .find(|r| {
                    r.get("x").unwrap().as_tuple().unwrap().get("e").unwrap() == &Value::Int(e)
                })
                .unwrap_or_else(|| panic!("x with e={e} present"))
        };

        // Row 1: x=(1,1) matches y=(1,1) and y=(2,1).
        let s1 = by_e(1).get("s").unwrap();
        assert_eq!(s1, &Value::set([y_tuple(1, 1), y_tuple(2, 1)]), "{algo:?}");

        // Row 2: x=(2,2) is dangling — the paper's key cell: s = ∅, not NULL.
        let s2 = by_e(2).get("s").unwrap();
        assert_eq!(s2, &Value::empty_set(), "{algo:?}");
        assert!(!s2.is_null());

        // Row 3: x=(3,3) matches y=(3,3).
        let s3 = by_e(3).get("s").unwrap();
        assert_eq!(s3, &Value::set([y_tuple(3, 3)]), "{algo:?}");
    }
}

#[test]
fn table1_via_outerjoin_and_nu_star_agrees() {
    // Section 6: X Δ Y = ν*(X ⟕ Y) — the algebraic characterization.
    let cat = table1_catalog();
    let outer_nu = Plan::Nest {
        input: Box::new(Plan::scan("X", "x").left_outer_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["d"]), E::path("y", &["b"])),
        )),
        keys: vec!["x".into()],
        value: E::var("y"),
        label: "s".into(),
        star: true,
    };
    let cfg = ExecConfig::default();
    let (nj_rows, _) = run(&nest_join_plan(), &cat, &cfg).unwrap();
    let (oj_rows, _) = run(&outer_nu, &cat, &cfg).unwrap();
    let nj: std::collections::BTreeSet<Record> = nj_rows.into_iter().collect();
    let oj: std::collections::BTreeSet<Record> = oj_rows.into_iter().collect();
    assert_eq!(nj, oj);
}

#[test]
fn table1_rendered_for_the_record() {
    // Regenerate the table as text (the examples print this too).
    let cat = table1_catalog();
    let (rows, _) = run(&nest_join_plan(), &cat, &ExecConfig::default()).unwrap();
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let x = r.get("x").unwrap().as_tuple().unwrap();
            format!(
                "{} {} {}",
                x.get("e").unwrap(),
                x.get("d").unwrap(),
                r.get("s").unwrap()
            )
        })
        .collect();
    lines.sort();
    assert_eq!(lines[0], "1 1 {(a = 1, b = 1), (a = 2, b = 1)}");
    assert_eq!(lines[1], "2 2 {}");
    assert_eq!(lines[2], "3 3 {(a = 3, b = 3)}");
}
