//! Cross-operator integration tests for the executor: pipelines that
//! combine grouping, unnesting, outerjoins and aggregation, plus
//! differential checks of the three join algorithms on randomized inputs.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Bound;
use tmql_algebra::{AggFn, CmpOp, Env, Plan, ScalarExpr as E};
use tmql_exec::op::operator::{build, build_with, drain, Batch, BoxedOperator, OpStats};
use tmql_exec::op::Shape;
use tmql_exec::{run, run_values, ExecConfig, ExecContext, JoinAlgo, JoinKind, Operator, PhysPlan};
use tmql_model::{Record, Ty, Value};
use tmql_storage::{table::int_table, Catalog, Table};

fn catalog(x: &[(i64, i64)], y: &[(i64, i64)]) -> Catalog {
    let mut cat = Catalog::new();
    let xr: Vec<Vec<i64>> = x.iter().map(|(a, b)| vec![*a, *b]).collect();
    let yr: Vec<Vec<i64>> = y.iter().map(|(b, c)| vec![*b, *c]).collect();
    cat.register(int_table(
        "X",
        &["a", "b"],
        &xr.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    cat.register(int_table(
        "Y",
        &["b", "c"],
        &yr.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    ))
    .unwrap();
    cat
}

#[test]
fn nest_join_then_aggregate_pipeline() {
    // For each x: the count of its matches, computed from the nest join's
    // set-valued label (no GROUP BY needed — the paper's point).
    let cat = catalog(&[(1, 1), (2, 1), (3, 9)], &[(1, 10), (1, 11)]);
    let plan = Plan::scan("X", "x")
        .nest_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["c"]),
            "cs",
        )
        .map(
            E::Tuple(vec![
                ("a".into(), E::path("x", &["a"])),
                ("n".into(), E::agg(AggFn::Count, E::var("cs"))),
            ]),
            "out",
        );
    let vals = run_values(&plan, &cat, &ExecConfig::default()).unwrap();
    let expect: BTreeSet<Value> = [
        Value::tuple([("a", Value::Int(1)), ("n", Value::Int(2))]),
        Value::tuple([("a", Value::Int(2)), ("n", Value::Int(2))]),
        Value::tuple([("a", Value::Int(3)), ("n", Value::Int(0))]), // dangling → 0
    ]
    .into_iter()
    .collect();
    assert_eq!(vals, expect);
}

#[test]
fn outerjoin_nulls_flow_through_group_agg() {
    // GROUP BY over an outerjoin: NULL payloads participate in COUNT of
    // rows (relational COUNT(*) semantics) — the machinery the GW fix
    // composes from.
    let cat = catalog(&[(1, 1), (2, 9)], &[(1, 10)]);
    let plan = Plan::GroupAgg {
        input: Box::new(Plan::LeftOuterJoin {
            left: Box::new(Plan::scan("X", "x")),
            right: Box::new(Plan::scan("Y", "y")),
            pred: E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        }),
        keys: vec![("a".into(), E::path("x", &["a"]))],
        aggs: vec![
            ("rows".into(), AggFn::Count, E::var("y")),
            ("maxc".into(), AggFn::Max, E::path("y", &["c"])),
        ],
        var: "g".into(),
    };
    let (rows, _) = run(&plan, &cat, &ExecConfig::default()).unwrap();
    assert_eq!(rows.len(), 2);
    let by_a = |a: i64| {
        rows.iter()
            .map(|r| r.get("g").unwrap().as_tuple().unwrap())
            .find(|g| g.get("a").unwrap() == &Value::Int(a))
            .unwrap()
            .clone()
    };
    assert_eq!(by_a(1).get("maxc").unwrap(), &Value::Int(10));
    // Dangling x=2: one NULL-extended row; MAX over {NULL} is NULL.
    assert!(by_a(2).get("maxc").unwrap().is_null());
}

#[test]
fn nest_unnest_group_roundtrip_via_plans() {
    let cat = catalog(&[(1, 1), (2, 1), (3, 2)], &[]);
    // ν by b, then μ back: loses nothing (no empty groups arise from ν).
    let nested = Plan::Nest {
        input: Box::new(Plan::scan("X", "x")),
        keys: vec![],
        value: E::var("x"),
        label: "xs".into(),
        star: false,
    };
    let back = Plan::Unnest {
        input: Box::new(nested),
        expr: E::var("xs"),
        elem_var: "x".into(),
        drop_vars: vec!["xs".into()],
    };
    let orig = run_values(&Plan::scan("X", "x"), &cat, &ExecConfig::default()).unwrap();
    let round = run_values(&back, &cat, &ExecConfig::default()).unwrap();
    assert_eq!(orig, round);
}

#[test]
fn env_depth_is_preserved_across_failures() {
    // An erroring plan must not poison the shared Env: rows are bound in
    // scopes of their own, so a failed statement leaves what it was given
    // and the same environment answers the next one.
    let cat = catalog(&[(1, 1)], &[(1, 10)]);
    let bad = Plan::scan("X", "x").join(
        Plan::scan("Y", "y"),
        // y.c + "zzz" type-errors at runtime.
        E::eq(
            E::path("x", &["b"]),
            E::Arith(
                tmql_algebra::ArithOp::Add,
                Box::new(E::path("y", &["c"])),
                Box::new(E::lit("zzz")),
            ),
        ),
    );
    let phys = tmql_exec::lower(&bad, &cat, &ExecConfig::default()).unwrap();
    let mut ctx = tmql_exec::ExecContext::new(&cat);
    let mut env = Env::new();
    env.push("k", Value::Int(7));
    assert!(tmql_exec::execute(&phys, &mut ctx, &env).is_err());
    assert_eq!(env.get("k").unwrap(), Value::Int(7));
    assert!(env.get("x").is_err() && env.get("y").is_err());
    let good = tmql_exec::lower(&Plan::scan("X", "x"), &cat, &ExecConfig::default()).unwrap();
    assert_eq!(tmql_exec::execute(&good, &mut ctx, &env).unwrap().len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All three algorithms agree for every join kind on random inputs —
    /// the "simple modification of any common join implementation method"
    /// claim, tested at the operator level through the planner.
    #[test]
    fn join_algorithms_agree(
        x in prop::collection::vec((0i64..8, 0i64..5), 0..12),
        y in prop::collection::vec((0i64..5, 0i64..8), 0..12),
    ) {
        let cat = catalog(&x, &y);
        let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let plans = [
            Plan::scan("X", "x").join(Plan::scan("Y", "y"), pred.clone()),
            Plan::scan("X", "x").semi_join(Plan::scan("Y", "y"), pred.clone()),
            Plan::scan("X", "x").anti_join(Plan::scan("Y", "y"), pred.clone()),
            Plan::LeftOuterJoin {
                left: Box::new(Plan::scan("X", "x")),
                right: Box::new(Plan::scan("Y", "y")),
                pred: pred.clone(),
            },
            Plan::scan("X", "x").nest_join(
                Plan::scan("Y", "y"),
                pred,
                E::path("y", &["c"]),
                "cs",
            ),
        ];
        for plan in &plans {
            let nl = run_values(plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::NestedLoop))
                .unwrap();
            let h = run_values(plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::Hash)).unwrap();
            let m = run_values(plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::SortMerge))
                .unwrap();
            prop_assert_eq!(&nl, &h);
            prop_assert_eq!(&nl, &m);
        }
    }

    /// Nest join output cardinality always equals |left| and the union of
    /// its nested sets is exactly the semijoin-matched image.
    #[test]
    fn nest_join_invariants(
        x in prop::collection::vec((0i64..8, 0i64..5), 0..10),
        y in prop::collection::vec((0i64..5, 0i64..8), 0..10),
    ) {
        let cat = catalog(&x, &y);
        let pred = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let nj = Plan::scan("X", "x").nest_join(
            Plan::scan("Y", "y"),
            pred.clone(),
            E::path("y", &["c"]),
            "cs",
        );
        let (rows, _) = run(&nj, &cat, &ExecConfig::default()).unwrap();
        prop_assert_eq!(rows.len(), cat.table("X").unwrap().len());
        // A row's set is empty iff the row is antijoin-dangling.
        let anti = run_values(
            &Plan::scan("X", "x").anti_join(Plan::scan("Y", "y"), pred),
            &cat,
            &ExecConfig::default(),
        ).unwrap();
        for r in &rows {
            let is_empty = r.get("cs").unwrap().as_set().unwrap().is_empty();
            let x_val = r.get("x").unwrap().clone();
            prop_assert_eq!(is_empty, anti.contains(&x_val), "{}", x_val);
        }
    }

    /// Filter-then-join equals join-then-filter (pushdown soundness at the
    /// physical level).
    #[test]
    fn pushdown_physical_equivalence(
        x in prop::collection::vec((0i64..8, 0i64..5), 0..10),
        y in prop::collection::vec((0i64..5, 0i64..8), 0..10),
        lim in 0i64..8,
    ) {
        let cat = catalog(&x, &y);
        let jp = E::eq(E::path("x", &["b"]), E::path("y", &["b"]));
        let fp = E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(lim));
        let early = Plan::scan("X", "x")
            .select(fp.clone())
            .join(Plan::scan("Y", "y"), jp.clone());
        let late = Plan::scan("X", "x").join(Plan::scan("Y", "y"), jp).select(fp);
        prop_assert_eq!(
            run_values(&early, &cat, &ExecConfig::default()).unwrap(),
            run_values(&late, &cat, &ExecConfig::default()).unwrap()
        );
    }
}

#[test]
fn comparisons_unit_is_one_predicate_evaluation() {
    // The documented unit of `Metrics::comparisons` (see metrics.rs): one
    // comparison = one predicate evaluation against one candidate.
    let x: Vec<(i64, i64)> = (0..7).map(|i| (i, i % 2)).collect();
    let y: Vec<(i64, i64)> = (0..5).map(|i| (i % 2, i)).collect();
    let cat = catalog(&x, &y);

    // Filter: one comparison PER INPUT ROW, match or not.
    let filter = Plan::scan("X", "x").select(E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::lit(3i64)));
    let (_, m) = run(&filter, &cat, &ExecConfig::default()).unwrap();
    assert_eq!(m.comparisons, 7, "Filter: |X| evaluations");

    // Nested-loop join: one comparison PER (LEFT, RIGHT) PAIR.
    let join = Plan::scan("X", "x").join(
        Plan::scan("Y", "y"),
        E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::path("y", &["c"])),
    );
    let (_, m) = run(
        &join,
        &cat,
        &ExecConfig::with_join_algo(JoinAlgo::NestedLoop),
    )
    .unwrap();
    assert_eq!(m.comparisons, 7 * 5, "NlJoin: |X|·|Y| evaluations");
}

#[test]
fn metrics_distinguish_algorithms() {
    let rows: Vec<(i64, i64)> = (0..50).map(|i| (i, i % 10)).collect();
    let yrows: Vec<(i64, i64)> = (0..50).map(|i| (i % 10, i)).collect();
    let cat = catalog(&rows, &yrows);
    let plan = Plan::scan("X", "x").join(
        Plan::scan("Y", "y"),
        E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
    );
    let work = |algo| {
        let (_, m) = run(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
        m
    };
    let nl = work(JoinAlgo::NestedLoop);
    let h = work(JoinAlgo::Hash);
    let sm = work(JoinAlgo::SortMerge);
    assert_eq!(nl.comparisons, 2500, "NL compares every pair");
    assert_eq!(h.hash_build_rows, 50);
    assert_eq!(h.hash_probes, 50);
    assert_eq!(sm.rows_sorted, 100);
    assert!(h.comparisons < nl.comparisons);
}

#[test]
fn apply_env_visibility() {
    // The Apply exposes outer bindings to arbitrary depth of the subplan.
    let cat = catalog(&[(1, 1)], &[(1, 10), (1, 11)]);
    let sub = Plan::scan("Y", "y")
        .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
        .map(
            E::Arith(
                tmql_algebra::ArithOp::Add,
                Box::new(E::path("y", &["c"])),
                Box::new(E::path("x", &["a"])), // outer var in the Map too
            ),
            "v",
        );
    let plan = Plan::scan("X", "x").apply(sub, "z").map(E::var("z"), "out");
    let vals = run_values(&plan, &cat, &ExecConfig::default()).unwrap();
    let expect: BTreeSet<Value> = [Value::set([Value::Int(11), Value::Int(12)])]
        .into_iter()
        .collect();
    assert_eq!(vals, expect);
    let _ = Record::empty();
}

// ---------------------------------------------------------------------------
// Row shape is invisible
// ---------------------------------------------------------------------------

/// The old row path as an operator: wraps every row of a bare leaf in its
/// one-field envelope `(var = row)` and reports records of bindings. It
/// meters nothing and shows nowhere — label, counters and children are the
/// leaf's — so a tree built over it differs from the plain one in the
/// shape of its leaf rows alone.
struct Envelope<'p> {
    leaf: BoxedOperator<'p>,
}

impl Operator for Envelope<'_> {
    fn label(&self) -> String {
        self.leaf.label()
    }
    fn shape(&self) -> &Shape {
        &Shape::BOUND
    }
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> tmql_model::Result<()> {
        self.leaf.open(ctx)
    }
    fn rebind(&mut self, env: &Env<'_>) {
        self.leaf.rebind(env)
    }
    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> tmql_model::Result<Option<Batch>> {
        self.leaf.next_batch(ctx)
    }
    fn pull(&mut self, ctx: &mut ExecContext<'_>) -> tmql_model::Result<Option<Batch>> {
        let shape = self.leaf.shape().clone();
        let wrap = |b: Batch| Batch::new(b.rows.into_iter().map(|r| shape.wrap(r)).collect());
        Ok(self.leaf.pull(ctx)?.map(wrap))
    }
    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.leaf.close(ctx)
    }
    fn stats(&self) -> OpStats {
        self.leaf.stats()
    }
    fn stats_mut(&mut self) -> &mut OpStats {
        self.leaf.stats_mut()
    }
    fn children(&self) -> Vec<&dyn Operator> {
        self.leaf.children()
    }
}

/// X(a, b) with every other stored row's labels permuted, Y(b, c), and
/// S(k, items) with a set-valued attribute; `X.b` ∈ 0..9 and `Y.b` ∈ 0..7,
/// so some X rows dangle. Indexes on `X.b` and `Y.b`.
fn shape_catalog() -> Catalog {
    let any = |labels: &[&str]| labels.iter().map(|l| (l.to_string(), Ty::Any)).collect();
    let int = Value::Int;
    let x = (0..40).map(|i| {
        let (a, b) = (("a", int(i)), ("b", int(i % 9)));
        Record::new(if i % 2 == 0 { [a, b] } else { [b, a] }).unwrap()
    });
    let y = (0..30).map(|i| Record::new([("b", int(i % 7)), ("c", int(i))]).unwrap());
    let s = (0..12).map(|i| {
        let items = Value::set((0..i % 4).map(|j| int(i * 10 + j)));
        Record::new([("k", int(i)), ("items", items)]).unwrap()
    });
    let mut cat = Catalog::new();
    for t in [
        Table::from_rows("X", any(&["a", "b"]), x),
        Table::from_rows("Y", any(&["b", "c"]), y),
        Table::from_rows("S", any(&["k", "items"]), s),
    ] {
        cat.register(t.unwrap()).unwrap();
    }
    cat.create_index("X", "b").unwrap();
    cat.create_index("Y", "b").unwrap();
    cat
}

fn scan(table: &str, var: &str) -> Box<PhysPlan> {
    Box::new(PhysPlan::ScanTable {
        table: table.into(),
        var: var.into(),
        pred: None,
    })
}

/// Every physical operator, the joins in every family and kind, over bare
/// leaves, pass-through chains and records of bindings.
fn shape_corpus() -> Vec<(String, PhysPlan)> {
    use PhysPlan as P;
    let xb = || E::path("x", &["b"]);
    let yb = || E::path("y", &["b"]);
    let equi = || E::eq(xb(), yb());
    let small = |var: &str| E::cmp(CmpOp::Lt, E::path(var, &["b"]), E::lit(6i64));
    let residual = || E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::path("y", &["c"]));
    let kinds = || {
        [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter {
                right_vars: vec!["y".into()],
            },
            JoinKind::Nest {
                func: E::Tuple(vec![
                    ("y".into(), E::var("y")),
                    ("a".into(), E::path("x", &["a"])),
                ]),
                label: "ys".into(),
            },
        ]
    };
    // Left operands: a bare scan, a bare row passed on by σ and by a
    // semijoin, an index access path, and a record of two bindings.
    let lefts = || -> Vec<(&str, Box<PhysPlan>)> {
        vec![
            ("scan", scan("X", "x")),
            (
                "filter",
                Box::new(P::Filter {
                    input: scan("X", "x"),
                    pred: small("x"),
                }),
            ),
            (
                "semi",
                Box::new(P::HashJoin {
                    left: scan("X", "x"),
                    right: scan("Y", "w"),
                    left_keys: vec![xb()],
                    right_keys: vec![E::path("w", &["b"])],
                    residual: None,
                    kind: JoinKind::Anti,
                }),
            ),
            (
                "index",
                Box::new(P::IndexScan {
                    table: "X".into(),
                    var: "x".into(),
                    attr: "b".into(),
                    eq: None,
                    lo: Bound::Included(E::lit(2i64)),
                    hi: Bound::Unbounded,
                    pred: E::cmp(CmpOp::Ge, xb(), E::lit(2i64)),
                }),
            ),
            (
                "pair",
                Box::new(P::NlJoin {
                    left: scan("X", "x"),
                    right: scan("S", "s"),
                    pred: E::eq(E::path("x", &["a"]), E::path("s", &["k"])),
                    kind: JoinKind::Inner,
                }),
            ),
        ]
    };
    let mut out: Vec<(String, PhysPlan)> = Vec::new();
    for kind in kinds() {
        for (lname, left) in lefts() {
            let right = || scan("Y", "y");
            let name = |family: &str| format!("{family}[{}]({lname}, Y)", kind.name());
            let (lk, rk) = (vec![xb()], vec![yb()]);
            out.push((
                name("nl"),
                P::NlJoin {
                    left: left.clone(),
                    right: right(),
                    pred: E::and(equi(), residual()),
                    kind: kind.clone(),
                },
            ));
            out.push((
                name("hash"),
                P::HashJoin {
                    left: left.clone(),
                    right: right(),
                    left_keys: lk.clone(),
                    right_keys: rk.clone(),
                    residual: Some(residual()),
                    kind: kind.clone(),
                },
            ));
            out.push((
                name("merge"),
                P::MergeJoin {
                    left: left.clone(),
                    right: right(),
                    left_keys: lk,
                    right_keys: rk,
                    residual: None,
                    kind: kind.clone(),
                },
            ));
            out.push((
                name("index-nl"),
                P::IndexNLJoin {
                    left,
                    right_table: "Y".into(),
                    right_var: "y".into(),
                    attr: "b".into(),
                    key: xb(),
                    pred: equi(),
                    kind: kind.clone(),
                },
            ));
        }
        // A right operand that is a record of bindings (a set-expression
        // scan), against a bare left.
        out.push((
            format!("nl[{}](scan, ScanExpr)", kind.name()),
            P::NlJoin {
                left: scan("X", "x"),
                right: Box::new(P::ScanExpr {
                    expr: E::SetLit(
                        (0..5)
                            .map(|i| E::Tuple(vec![("b".into(), E::lit(i))]))
                            .collect(),
                    ),
                    var: "y".into(),
                }),
                pred: equi(),
                kind,
            },
        ));
    }
    let unary: Vec<(&str, PhysPlan)> = vec![
        ("scan", *scan("X", "x")),
        (
            "scan[σ]",
            P::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: Some(small("x")),
            },
        ),
        (
            "filter",
            P::Filter {
                input: scan("X", "x"),
                pred: small("x"),
            },
        ),
        (
            "map",
            P::Map {
                input: scan("X", "x"),
                expr: xb(),
                var: "v".into(),
            },
        ),
        (
            "map-whole",
            P::Map {
                input: scan("X", "x"),
                expr: E::var("x"),
                var: "v".into(),
            },
        ),
        (
            "extend",
            P::Extend {
                input: scan("X", "x"),
                expr: xb(),
                var: "n".into(),
            },
        ),
        (
            "project-bare-var",
            P::Project {
                input: scan("X", "x"),
                vars: vec!["x".into()],
            },
        ),
        (
            "project-nothing",
            P::Project {
                input: scan("X", "x"),
                vars: vec![],
            },
        ),
        (
            "unnest-drops-bare-var",
            P::Unnest {
                input: scan("S", "s"),
                expr: E::path("s", &["items"]),
                elem_var: "v".into(),
                drop_vars: vec!["s".into()],
            },
        ),
        (
            "unnest-keeps-bare-var",
            P::Unnest {
                input: scan("S", "s"),
                expr: E::path("s", &["items"]),
                elem_var: "v".into(),
                drop_vars: vec![],
            },
        ),
        (
            "nest-by-bare-var",
            P::Nest {
                input: scan("X", "x"),
                keys: vec!["x".into()],
                value: xb(),
                label: "bs".into(),
                star: false,
            },
        ),
        (
            "nest-all",
            P::Nest {
                input: scan("X", "x"),
                keys: vec![],
                value: xb(),
                label: "bs".into(),
                star: true,
            },
        ),
        (
            "group-agg",
            P::GroupAgg {
                input: scan("Y", "y"),
                keys: vec![("b".into(), yb())],
                aggs: vec![("n".into(), AggFn::Count, E::var("y"))],
                var: "g".into(),
            },
        ),
        (
            "setop-two-vars",
            P::SetOp {
                kind: tmql_algebra::SetOpKind::Union,
                left: scan("X", "x"),
                right: scan("Y", "y"),
                var: "v".into(),
            },
        ),
        (
            "setop-except",
            P::SetOp {
                kind: tmql_algebra::SetOpKind::Except,
                left: scan("X", "x"),
                right: Box::new(P::Filter {
                    input: scan("X", "z"),
                    pred: small("z"),
                }),
                var: "v".into(),
            },
        ),
        (
            "apply-filter",
            P::Apply {
                input: scan("X", "x"),
                subquery: Box::new(P::Filter {
                    input: scan("Y", "y"),
                    pred: equi(),
                }),
                label: "z".into(),
                bindings: vec![E::var("x")],
            },
        ),
        (
            "apply-shadowing-scan-var",
            P::Apply {
                input: scan("X", "x"),
                subquery: Box::new(P::Map {
                    input: scan("Y", "x"),
                    expr: E::path("x", &["c"]),
                    var: "v".into(),
                }),
                label: "z".into(),
                bindings: vec![],
            },
        ),
    ];
    out.extend(unary.into_iter().map(|(n, p)| (n.to_string(), p)));
    out
}

/// Result rows (as records of bindings, sorted) and the exact counters.
type ShapeRun = (Vec<Record>, [(&'static str, u64); 8]);

fn run_shaped(plan: &PhysPlan, cat: &Catalog, config: &ExecConfig, enveloped: bool) -> ShapeRun {
    let mut ctx = ExecContext::with_config(cat, config);
    let env = Env::new();
    let mut root = match enveloped {
        false => build(plan, &env),
        true => build_with(plan, &env, &|leaf| match *leaf.shape() == Shape::BOUND {
            true => leaf,
            false => Box::new(Envelope { leaf }),
        }),
    };
    root.open_timed(&mut ctx).unwrap();
    let rows = drain(&mut root, &mut ctx).unwrap();
    root.close_timed(&mut ctx);
    assert_eq!(ctx.resident_rows(), 0, "close released everything");
    let mut rows: Vec<Record> = rows.into_iter().map(|r| root.shape().wrap(r)).collect();
    rows.sort();
    let m = &ctx.metrics;
    let counters = [
        ("rows_scanned", m.rows_scanned),
        ("comparisons", m.comparisons),
        ("rows_emitted", m.rows_emitted),
        ("hash_build_rows", m.hash_build_rows),
        ("hash_probes", m.hash_probes),
        ("rows_spilled", m.rows_spilled),
        ("spill_partitions", m.spill_partitions),
        ("peak_resident_rows", m.peak_resident_rows),
    ];
    (rows, counters)
}

#[test]
fn row_shape_is_invisible_to_results_and_counters() {
    let cat = shape_catalog();
    let free = ExecConfig::default().batch_size(16);
    let mut spilled = 0;
    for (name, plan) in shape_corpus() {
        for (config, budget) in [(free, "free"), (free.memory_budget(6), "budget")] {
            let bare = run_shaped(&plan, &cat, &config, false);
            let bound = run_shaped(&plan, &cat, &config, true);
            assert_eq!(bare.0, bound.0, "{name}/{budget}: rows");
            assert_eq!(bare.1, bound.1, "{name}/{budget}: counters");
            // And what `execute` hands its callers is the same again.
            let mut ctx = ExecContext::with_config(&cat, &config);
            let mut rows = tmql_exec::execute(&plan, &mut ctx, &Env::new()).unwrap();
            rows.sort();
            assert_eq!(rows, bare.0, "{name}/{budget}: execute");
            spilled += bare.1[5].1;
        }
    }
    assert!(spilled > 0, "the budgeted half of the corpus spills");
}

#[test]
fn a_dangling_outer_row_binds_its_bare_right_side_to_null() {
    let cat = shape_catalog();
    let plan = PhysPlan::HashJoin {
        left: scan("X", "x"),
        right: scan("Y", "y"),
        left_keys: vec![E::path("x", &["b"])],
        right_keys: vec![E::path("y", &["b"])],
        residual: None,
        kind: JoinKind::LeftOuter {
            right_vars: vec!["y".into()],
        },
    };
    let (rows, _) = run_shaped(&plan, &cat, &ExecConfig::default(), false);
    let dangling: Vec<&Record> = rows
        .iter()
        .filter(|r| r.get("y").unwrap().is_null())
        .collect();
    // b ∈ {7, 8} has no partner: i = 7, 8, 16, 17, 25, 26, 34, 35.
    assert_eq!(dangling.len(), 8);
    for r in dangling {
        let labels: Vec<&str> = r.labels().collect();
        assert_eq!(labels, ["x", "y"], "{r}");
        assert!(r.get("x").unwrap().as_tuple().is_ok());
    }
    let matched = rows
        .iter()
        .find(|r| !r.get("y").unwrap().is_null())
        .unwrap();
    assert!(matched.get("y").unwrap().as_tuple().unwrap().has("c"));
}
