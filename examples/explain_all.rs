//! Table 2, live: classify every predicate form of the paper's catalogue
//! and show the plan each one optimizes to.
//!
//! ```sh
//! cargo run --example explain_all
//! ```

use tmql::{Database, Plan, QueryOptions};
use tmql_algebra::JoinKind;
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::table2_templates;

fn shape(plan: &Plan) -> &'static str {
    let has = |kind: JoinKind| {
        plan.any_node(&mut |n| matches!(n, Plan::Join { kind: k, .. } if *k == kind))
    };
    if has(JoinKind::Semi) {
        "semijoin ⋉"
    } else if has(JoinKind::Anti) {
        "antijoin ▷"
    } else if plan.has_nest_join() {
        "nest join Δ"
    } else if plan.has_apply() {
        "nested loop"
    } else {
        "flat"
    }
}

fn main() {
    println!("== The reproduced Table 2 (classifier output) ==\n");
    println!("{}", tmql_core::table2::render());

    println!("== What each predicate's query plan becomes ==\n");
    let db = Database::from_catalog(gen_xy(&GenConfig::sized(32)));
    println!("{:<22} {:<14} {:>8}", "P(x, z)", "operator", "rows");
    println!("{}", "-".repeat(48));
    for (name, src) in table2_templates() {
        let (_, plan) = db.plan_with(&src, QueryOptions::default()).unwrap();
        let rows = db.query(&src).unwrap().len();
        println!("{:<22} {:<14} {:>8}", name, shape(&plan), rows);
    }

    println!("\n== One full EXPLAIN: the SUBSETEQ predicate ==\n");
    let (name, src) = &table2_templates()[6];
    println!("-- {name} --\n{src}\n");
    println!("{}", db.explain(src).unwrap());
}
