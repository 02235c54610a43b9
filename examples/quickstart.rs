//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Employee/Department database of Section 3.2, reproduces
//! Table 1's nest join, and runs the paper's queries Q1 and Q2 under the
//! Optimal strategy.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tmql::{Database, Plan, QueryOptions, UnnestStrategy};
use tmql_algebra::ScalarExpr as E;
use tmql_exec::{run, ExecConfig};
use tmql_workload::queries::{Q1, Q2};
use tmql_workload::schemas::{company_catalog, table1_catalog};

fn main() {
    // ——— Table 1: the nest join, exactly as printed in the paper ———
    println!("== Table 1: X Δ Y (nest equijoin on the second attribute) ==\n");
    let cat = table1_catalog();
    println!("{}", cat.table("X").unwrap());
    println!("{}", cat.table("Y").unwrap());
    let nest_join = Plan::scan("X", "x").nest_join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["d"]), E::path("y", &["b"])),
        E::var("y"),
        "s",
    );
    let (rows, _) = run(&nest_join, &cat, &ExecConfig::default()).expect("nest join runs");
    println!("X Δ Y:");
    for r in &rows {
        let x = r.get("x").unwrap().as_tuple().unwrap();
        println!(
            "  e = {}, d = {}, s = {}",
            x.get("e").unwrap(),
            x.get("d").unwrap(),
            r.get("s").unwrap()
        );
    }
    println!("\nNote the dangling tuple (2, 2): its s is ∅ — not NULL, and not lost.\n");

    // ——— The company database and the paper's queries ———
    let db = Database::from_catalog(company_catalog());

    println!("== Q1: departments with an employee living in the same street ==\n{Q1}\n");
    let r = db.query(Q1).expect("Q1 runs");
    println!("result ({} department):\n{}", r.len(), r.render());
    println!(
        "Q1's subquery ranges over the set-valued attribute d.emps, so no\n\
         flattening applies (Section 3.2) — the plan keeps its Apply:\n"
    );
    println!("{}", db.explain(Q1).unwrap());

    println!("== Q2: departments with their same-city employees (nested result) ==\n{Q2}\n");
    let r = db.query(Q2).expect("Q2 runs");
    for v in &r.values {
        let t = v.as_tuple().unwrap();
        println!(
            "  {} -> {} employees",
            t.get("dname").unwrap(),
            t.get("emps").unwrap().as_set().unwrap().len()
        );
    }
    println!();
    let nl = db
        .query_with(
            Q2,
            QueryOptions::default().strategy(UnnestStrategy::NestedLoop),
        )
        .unwrap();
    println!(
        "work: nested loop = {} units, nest join = {} units",
        nl.metrics.total_work(),
        r.metrics.total_work()
    );
    println!("\nOptimized Q2 plan (SELECT-clause nesting → nest join):\n");
    println!("{}", db.explain(Q2).unwrap());
}
