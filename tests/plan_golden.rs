//! Plans and estimates, pinned byte for byte.
//!
//! For the 26 statements of the `plan_heavy` benchmark workload under
//! every unnesting strategy, and for hand-built indexed / Apply shapes,
//! this renders what the planning walk produces — the `EXPLAIN` text, the
//! per-executed-operator row estimates, and the cost model's
//! `{rows, work, resident}` under three memory budgets — and compares the
//! rendering with `tests/golden/plan_golden.txt`. Floats are written as
//! their `f64::to_bits` (next to a readable value), so a refactor of the
//! walk that changes one bit of one estimate, or one operator of one plan,
//! fails here.
//!
//! Everything runs over in-memory catalogs, so every CI leg
//! (`TMQL_TEST_POOL_PAGES`) renders the same text. Regenerate after an
//! *intended* plan or estimate change with
//! `TMQL_BLESS=1 cargo test --test plan_golden`.

use std::fmt::Write as _;

use tmql::{
    Catalog, Database, Estimator, ExecConfig, JoinAlgo, Plan, QueryOptions, UnnestStrategy,
};
use tmql_algebra::{CmpOp, Env, ScalarExpr as E};
use tmql_exec::{cost::explain_with_estimates, execute_collect, lower, ExecContext, PhysPlan};
use tmql_storage::table::int_table;
use tmql_workload::gen::{gen_xy, GenConfig};
use tmql_workload::queries::{self, table2_templates};
use tmql_workload::schemas;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_golden.txt");

/// The memory budgets every logical plan is costed under: the planner's
/// own, a budget nothing here overflows, and a budget small enough that
/// these 16–100-row breakers spill.
const SETTINGS: [Option<usize>; 3] = [None, Some(512), Some(8)];

/// The strategies whose full `EXPLAIN` report is pinned; the other five
/// pin the physical section only.
const FULL_TEXT: [UnnestStrategy; 3] = [
    UnnestStrategy::CostBased,
    UnnestStrategy::Optimal,
    UnnestStrategy::NestedLoop,
];

fn bits(x: f64) -> String {
    format!("{x:?}@{:016x}", x.to_bits())
}

fn bits_vec(xs: &[f64]) -> String {
    xs.iter().map(|x| bits(*x)).collect::<Vec<_>>().join(" ")
}

/// The estimate lines shared by both corpora: executed-order rows of the
/// physical plan and the logical plan's cost under [`SETTINGS`].
fn estimates(out: &mut String, cat: &Catalog, logical: &Plan, phys: &PhysPlan) -> usize {
    let rows = Estimator::new(cat).exec_order_rows_phys(phys);
    writeln!(out, "exec_order_rows: {}", bits_vec(&rows)).unwrap();
    for budget in SETTINGS {
        let c = Estimator::with_budget(cat, budget).cost(logical);
        writeln!(
            out,
            "cost(budget={budget:?}): rows={} work={} resident={}",
            bits(c.rows),
            bits(c.work),
            bits(c.resident)
        )
        .unwrap();
    }
    rows.len()
}

/// The `plan_heavy` statement list of `tmqlbench/src/workloads.rs`: the
/// Table 2 sweep over a 16-row X/Y pair plus the paper's named queries
/// over their fixtures.
fn corpus() -> Vec<(String, Database, String)> {
    let xy = || {
        Database::from_catalog(gen_xy(&GenConfig {
            outer: 16,
            inner: 16,
            dangling_fraction: 0.25,
            seed: 42,
            ..GenConfig::default()
        }))
    };
    let mut out: Vec<(String, Database, String)> = table2_templates()
        .into_iter()
        .map(|(name, src)| (format!("table2 {name}"), xy(), src))
        .collect();
    let company = || Database::from_catalog(schemas::company_catalog());
    let section8 = || Database::from_catalog(schemas::section8_catalog());
    let paper: [(&str, Database, &str); 10] = [
        ("Q1", company(), queries::Q1),
        ("Q2", company(), queries::Q2),
        (
            "COUNT_BUG",
            Database::from_catalog(schemas::count_bug_catalog()),
            queries::COUNT_BUG,
        ),
        ("SUBSETEQ_BUG", xy(), queries::SUBSETEQ_BUG),
        ("SECTION8", section8(), queries::SECTION8),
        ("SECTION8_FLAT", section8(), queries::SECTION8_FLAT),
        ("UNNEST_COLLAPSE", xy(), queries::UNNEST_COLLAPSE),
        ("MEMBERSHIP", xy(), queries::MEMBERSHIP),
        ("NON_MEMBERSHIP", xy(), queries::NON_MEMBERSHIP),
        (
            "TABLE1",
            Database::from_catalog(schemas::table1_catalog()),
            "SELECT (e = x.e, d = x.d, s = (SELECT y FROM Y y WHERE x.d = y.b)) FROM X x",
        ),
    ];
    out.extend(
        paper
            .into_iter()
            .map(|(name, db, src)| (format!("paper {name}"), db, src.to_string())),
    );
    out
}

fn render_corpus(out: &mut String) {
    for (name, db, src) in corpus() {
        for strategy in UnnestStrategy::ALL {
            let opts = QueryOptions::default().strategy(strategy);
            writeln!(out, "### {name} [{}]", strategy.name()).unwrap();
            let (_, optimized) = db.plan_with(&src, opts).expect("plans");
            let phys = lower(&optimized, db.catalog(), &ExecConfig::default()).expect("lowers");
            if FULL_TEXT.contains(&strategy) {
                out.push_str(&db.explain_with(&src, opts).expect("explains"));
            } else {
                out.push_str(&explain_with_estimates(&phys, db.catalog()));
            }
            let n = estimates(out, db.catalog(), &optimized, &phys);
            let result = db.query_with(&src, opts).expect("runs");
            assert_eq!(
                n,
                result.ops.len(),
                "{name} [{}]: one estimate per executed operator\n{}",
                strategy.name(),
                result.op_profile()
            );
            out.push('\n');
        }
    }
}

/// BIG(a = 0..100, b = a mod 10), MID(a = 0..40, b = a mod 8) and
/// TINY(b, c) of two rows; `indexed` adds an index on BIG.b.
fn shapes_catalog(indexed: bool) -> Catalog {
    let mut cat = Catalog::new();
    let table = |name: &str, n: i64, m: i64| {
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % m]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        int_table(name, &["a", "b"], &refs)
    };
    cat.register(table("BIG", 100, 10)).unwrap();
    cat.register(table("MID", 40, 8)).unwrap();
    cat.register(int_table("TINY", &["b", "c"], &[&[1, 10], &[2, 20]]))
        .unwrap();
    if indexed {
        cat.create_index("BIG", "b").unwrap();
    }
    cat
}

fn col(var: &str, attr: &str) -> E {
    E::path(var, &[attr])
}

/// Hand-built logical plans that lower to the index operators and Apply
/// shapes no corpus statement reaches, each with the catalog flavour
/// (indexed or not) and the config it is lowered under.
fn shapes() -> Vec<(&'static str, bool, ExecConfig, Plan)> {
    let auto = ExecConfig::default;
    let forced = ExecConfig::with_join_algo;
    let tb_xb = || E::eq(col("t", "b"), col("x", "b"));
    let tiny = || Plan::scan("TINY", "t");
    let big = |v: &str| Plan::scan("BIG", v);
    let boxed = |p: Plan| Box::new(p);
    let mut out = vec![
        (
            "IndexScan eq",
            true,
            auto(),
            big("x").select(E::eq(col("x", "b"), E::lit(3i64))),
        ),
        (
            "IndexScan range under a residual conjunct",
            true,
            auto(),
            big("x").select(E::and(
                E::and(
                    E::cmp(CmpOp::Ge, col("x", "b"), E::lit(3i64)),
                    E::cmp(CmpOp::Lt, col("x", "b"), E::lit(4i64)),
                ),
                E::cmp(CmpOp::Gt, col("x", "a"), E::lit(20i64)),
            )),
        ),
        (
            "indexed selection the scan still wins",
            true,
            auto(),
            big("x").select(E::cmp(CmpOp::Ge, col("x", "b"), E::lit(0i64))),
        ),
        (
            "IndexNLJoin inner",
            true,
            auto(),
            tiny().join(big("x"), tb_xb()),
        ),
        (
            "IndexNLJoin semi",
            true,
            auto(),
            tiny().semi_join(big("x"), tb_xb()),
        ),
        (
            "IndexNLJoin anti",
            true,
            auto(),
            tiny().anti_join(big("x"), tb_xb()),
        ),
        (
            "IndexNLJoin left outer",
            true,
            auto(),
            tiny().left_outer_join(big("x"), tb_xb()),
        ),
        (
            "IndexNLJoin nest, residual conjunct, map on top",
            true,
            auto(),
            tiny()
                .nest_join(
                    big("x"),
                    E::and(tb_xb(), E::cmp(CmpOp::Lt, col("t", "c"), col("x", "a"))),
                    col("x", "a"),
                    "xs",
                )
                .map(E::var("xs"), "v"),
        ),
        (
            "indexed inner the hash join still wins",
            true,
            auto(),
            big("y").semi_join(big("x"), E::eq(col("y", "b"), col("x", "b"))),
        ),
        (
            "inner hash join whose sides swap",
            false,
            auto(),
            tiny().join(big("x"), tb_xb()),
        ),
        (
            "semijoin keeps its sides",
            false,
            auto(),
            tiny().semi_join(big("x"), tb_xb()),
        ),
        (
            "swapped join under a select, a nest and a project",
            false,
            auto(),
            Plan::Nest {
                input: boxed(
                    tiny()
                        .join(Plan::scan("MID", "m"), E::eq(col("t", "b"), col("m", "b")))
                        .select(E::cmp(CmpOp::Gt, col("m", "a"), E::lit(10i64))),
                ),
                keys: vec!["t".into()],
                value: col("m", "a"),
                label: "ms".into(),
                star: false,
            }
            .project(&["t", "ms"]),
        ),
    ];
    for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
        out.push((
            match algo {
                JoinAlgo::Hash => "forced hash join with a residual",
                JoinAlgo::SortMerge => "forced merge join with a residual",
                _ => "forced nested-loop join with equi keys",
            },
            true,
            forced(algo),
            tiny().join(
                big("x"),
                E::and(tb_xb(), E::cmp(CmpOp::Lt, col("t", "c"), col("x", "a"))),
            ),
        ));
    }
    let probe_sub = |v: &str| big(v).select(E::eq(col(v, "b"), col("x", "b")));
    out.extend([
        (
            "Apply over an indexed inner: IndexScan, no transient build",
            true,
            auto(),
            big("x").apply(probe_sub("y"), "z"),
        ),
        (
            "invariant Apply: nothing to hoist",
            false,
            auto(),
            tiny().apply(Plan::scan("MID", "y").map(col("y", "b"), "q"), "z"),
        ),
        (
            "nested Apply: the inner subquery sees both enclosing scans",
            false,
            auto(),
            tiny().apply(
                Plan::scan("MID", "m")
                    .select(E::eq(col("m", "b"), col("t", "b")))
                    .apply(
                        big("y")
                            .select(E::and(
                                E::eq(col("y", "b"), col("m", "b")),
                                E::cmp(CmpOp::Gt, col("y", "a"), col("t", "c")),
                            ))
                            .map(col("y", "a"), "q"),
                        "ys",
                    )
                    .map(E::var("ys"), "r"),
                "z",
            ),
        ),
        (
            "nested Apply: an invariant selection under both levels' filters",
            false,
            auto(),
            tiny().apply(
                Plan::scan("MID", "m")
                    .apply(
                        big("y")
                            .select(E::cmp(CmpOp::Lt, col("y", "a"), E::lit(30i64)))
                            .select(E::eq(col("y", "b"), col("m", "b")))
                            .select(E::cmp(CmpOp::Gt, col("y", "a"), col("t", "c"))),
                        "ys",
                    )
                    .map(E::var("ys"), "r"),
                "z",
            ),
        ),
        (
            "Apply whose correlation column is more selective than the inner one",
            false,
            auto(),
            big("x").apply(
                Plan::scan("MID", "y")
                    .select(E::eq(col("y", "b"), col("x", "a")))
                    .map(col("y", "a"), "q"),
                "z",
            ),
        ),
        (
            "set operation over a grouped and a mapped operand",
            false,
            auto(),
            Plan::SetOp {
                kind: tmql_algebra::SetOpKind::Union,
                left: boxed(Plan::GroupAgg {
                    input: boxed(big("x")),
                    keys: vec![("b".into(), col("x", "b"))],
                    aggs: vec![("n".into(), tmql_algebra::AggFn::Count, col("x", "a"))],
                    var: "g".into(),
                }),
                right: boxed(Plan::scan("MID", "m").map(col("m", "b"), "v")),
                var: "u".into(),
            },
        ),
        (
            "set-valued correlated scan and an unnest",
            false,
            auto(),
            Plan::Unnest {
                input: boxed(
                    tiny().apply(
                        Plan::ScanExpr {
                            expr: E::SetLit(vec![col("t", "b"), col("t", "c")]),
                            var: "e".into(),
                        }
                        .map(E::var("e"), "s"),
                        "z",
                    ),
                ),
                expr: E::var("z"),
                elem_var: "u".into(),
                drop_vars: vec!["z".into()],
            },
        ),
    ]);
    out
}

fn render_shapes(out: &mut String) {
    for (name, indexed, config, plan) in shapes() {
        let cat = shapes_catalog(indexed);
        writeln!(
            out,
            "### shape: {name} [{}, {:?}]",
            if indexed { "indexed" } else { "no index" },
            config.join_algo,
        )
        .unwrap();
        let phys = lower(&plan, &cat, &config).expect("lowers");
        out.push_str(&explain_with_estimates(&phys, &cat));
        let n = estimates(out, &cat, &plan, &phys);
        let est = Estimator::new(&cat).exec_order_rows_phys(&phys);
        let mut ctx = ExecContext::with_config(&cat, &config);
        let (_, ops) = execute_collect(&phys, &mut ctx, &Env::new(), Some(&est)).expect("runs");
        assert_eq!(n, ops.len(), "{name}: one estimate per executed operator");
        out.push('\n');
    }
}

#[test]
fn plans_and_estimates_match_the_golden_file() {
    let mut rendered = String::new();
    render_corpus(&mut rendered);
    render_shapes(&mut rendered);
    if std::env::var_os("TMQL_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/plan_golden.txt exists");
    if rendered != golden {
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        let show = |s: &str| s.lines().nth(line).unwrap_or("<end of text>").to_string();
        let header = rendered
            .lines()
            .take(line + 1)
            .filter(|l| l.starts_with("### "))
            .last()
            .unwrap_or("<start>")
            .to_string();
        panic!(
            "plan golden mismatch at line {} (under `{header}`):\n  golden:   {}\n  rendered: {}\n\
             rerun with TMQL_BLESS=1 if the change is intended",
            line + 1,
            show(&golden),
            show(&rendered)
        );
    }
}

/// The shapes above reach every physical operator the corpus does not —
/// otherwise the golden file pins less than it claims.
#[test]
fn shapes_reach_the_index_and_hoisting_operators() {
    let mut text = String::new();
    render_shapes(&mut text);
    for label in [
        "IndexScan(BIG.b)",
        "IndexNLJoin[join](BIG.b)",
        "IndexNLJoin[semijoin](BIG.b)",
        "IndexNLJoin[antijoin](BIG.b)",
        "IndexNLJoin[outerjoin](BIG.b)",
        "IndexNLJoin[nestjoin](BIG.b)",
        "MergeJoin[join]",
        "NlJoin[join]",
        "Apply[once]",
        "Apply[memo]",
        "Apply ",
        "ScanExpr",
        "Unnest",
        "SetOp",
        "GroupAgg",
    ] {
        assert!(
            text.contains(label),
            "no shape lowers to `{label}`:\n{text}"
        );
    }
}
