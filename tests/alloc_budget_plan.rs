//! Allocation budget of planning — a machine-independent guard on the
//! cost-based choice of Section 8 staying cheap.
//!
//! One round of `plan_heavy`, the benchmark's 26 statements over tables of
//! at most 16 rows, included from `tmqlbench/src/workloads.rs` and built
//! at its pinned seed, goes through `Database::plan_with` (parse, check,
//! translate, optimize; no lowering, no execution) under three
//! strategies: the `NestedLoop` baseline, the rule-based `Optimal`
//! pipeline and `CostBased`, which prices every candidate rewrite of each
//! block. The round is counted after a warm-up round.
//!
//! Measured, allocations per round (`NestedLoop` / `Optimal` /
//! `CostBased`, release build; a debug build makes 54 more in each):
//!
//! * with `ScalarExpr::conjuncts` deep-cloning the predicate for each
//!   caller, the equi-key split cloning both sides of every key pair and
//!   building two `BTreeSet<String>`s per equality, `Catalog::index_on`
//!   allocating its key per lookup, the nested-loop baseline rebuilt to be
//!   priced, and every token cloned by the parser: **5 029 / 6 388 /
//!   13 978** (`CostBased` 2.19 × `Optimal`; parse alone 1 620);
//! * with borrowed conjuncts, a borrowed equi-key split, borrowed index
//!   lookups, bindings sorted without formatting, the block priced as it
//!   stands and tokens moved out of the parser: **4 287 / 5 244 / 8 334**
//!   (1.59 ×; parse alone 878).
//!
//! `MAX_COST_BASED` is the debug build's 8 388 plus 10 %: it fails a
//! return to cloned conjuncts (9 543). A return to `String`-keyed index
//! lookups adds only 150 (75 lookups a round), so the test also checks
//! that a lookup, hit or miss, allocates nothing.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! second test running beside it would be counted too.

#[allow(dead_code)]
#[path = "../tmqlbench/src/workloads.rs"]
mod workloads;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use tmql::UnnestStrategy;
use workloads::{Op, PINNED_SEED};

/// `CostBased` allocations per round: the measured count plus 10 %.
const MAX_COST_BASED: u64 = 9_230;

#[test]
fn cost_based_planning_allocates_within_budget() {
    let dir = std::env::temp_dir().join(format!("tmql-alloc-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let built = workloads::build("plan_heavy", PINNED_SEED, 1, &dir);
    // An in-memory workload: nothing was written under `dir`.
    std::fs::remove_dir_all(&dir).expect("the temporary directory goes");
    let mut inst = built.expect("workload builds");
    let queries: Vec<(usize, &str)> = (inst.stmts.iter())
        .filter_map(|s| match &s.op {
            Op::Query(src) => Some((s.db, src.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(queries.len(), 26, "plan_heavy's statements");
    let round = |strategy: UnnestStrategy| {
        for &(db, src) in &queries {
            let opts = inst.stmts[0].opts.strategy(strategy);
            inst.dbs[db].plan_with(src, opts).expect("statement plans");
        }
    };
    let count = |strategy| {
        round(strategy);
        let before = counting_alloc::allocations();
        round(strategy);
        counting_alloc::allocations() - before
    };
    let parse = {
        let before = counting_alloc::allocations();
        for &(_, src) in &queries {
            tmql_lang::parse_query(src).expect("statement parses");
        }
        counting_alloc::allocations() - before
    };
    let [nested_loop, optimal, cost_based] = [
        UnnestStrategy::NestedLoop,
        UnnestStrategy::Optimal,
        UnnestStrategy::CostBased,
    ]
    .map(count);
    println!(
        "allocations per round: parse {parse}, NestedLoop {nested_loop}, Optimal {optimal}, \
         CostBased {cost_based} ({:.2} x Optimal)",
        cost_based as f64 / optimal as f64
    );
    assert!(
        cost_based <= MAX_COST_BASED,
        "CostBased planning made {cost_based} allocations per round, budget {MAX_COST_BASED}"
    );

    // An index lookup, hit or miss, allocates nothing.
    inst.dbs[0].create_index("X", "b").expect("index on X.b");
    let catalog = inst.dbs[0].catalog();
    let before = counting_alloc::allocations();
    let found = [("X", "b"), ("X", "a"), ("Y", "b")].map(|(t, a)| catalog.index_on(t, a).is_some());
    assert_eq!(counting_alloc::allocations() - before, 0, "index lookups");
    assert_eq!(found, [true, false, false]);
}
