//! B18 — what planning a statement costs: the layer micro-bench of
//! "Planning at the cost of its work".
//!
//! One round of the benchmark's `plan_heavy` workload, its 26 paper
//! statements over tables of at most 16 rows, included from
//! `tmqlbench/src/workloads.rs` and built at its pinned seed, timed per
//! round (divide by 26 for a statement):
//!
//! * `parse` — [`tmql_lang::parse_query`] of every statement;
//! * `plan-nested-loop`, `plan-optimal`, `plan-cost-based` —
//!   `Database::plan_with` (parse, check, translate, optimize; no
//!   lowering) under the `NestedLoop` baseline, which decides nothing,
//!   the rule-based Section 8 pipeline, and the cost-based choice, which
//!   prices every candidate rewrite of every block. The gap between the
//!   last two is the price of choosing by cost.

#[allow(dead_code)]
#[path = "../../../tmqlbench/src/workloads.rs"]
mod workloads;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tmql::UnnestStrategy;
use tmql_bench::criterion;
use workloads::{Op, PINNED_SEED};

fn bench_plan(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("tmql-bench-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let built = workloads::build("plan_heavy", PINNED_SEED, 1, &dir);
    // An in-memory workload: nothing was written under `dir`.
    std::fs::remove_dir_all(&dir).expect("the temporary directory goes");
    let inst = built.expect("workload builds");
    let queries: Vec<(usize, &str)> = (inst.stmts.iter())
        .filter_map(|s| match &s.op {
            Op::Query(src) => Some((s.db, src.as_str())),
            _ => None,
        })
        .collect();
    let mut g = c.benchmark_group("b18_plan");
    g.bench_function("parse", |b| {
        b.iter(|| {
            for &(_, src) in &queries {
                black_box(tmql_lang::parse_query(black_box(src)).expect("statement parses"));
            }
        })
    });
    let strategies = [
        ("plan-nested-loop", UnnestStrategy::NestedLoop),
        ("plan-optimal", UnnestStrategy::Optimal),
        ("plan-cost-based", UnnestStrategy::CostBased),
    ];
    for (name, strategy) in strategies {
        let opts = inst.stmts[0].opts.strategy(strategy);
        g.bench_function(name, |b| {
            b.iter(|| {
                for &(db, src) in &queries {
                    let plans = inst.dbs[db].plan_with(black_box(src), opts);
                    black_box(plans.expect("statement plans"));
                }
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_plan
}
criterion_main!(benches);
