//! The unnesting optimizer: strategy dispatch, cost-based strategy
//! selection, and rule-based cleanup.

use tmql_algebra::Plan;

use crate::rules;
use crate::strategy::{self, Block, UnnestStrategy};

/// A cost model the optimizer can rank candidate plans with. Implemented
/// by `tmql-exec`'s statistics-backed estimator (adapted in the `tmql`
/// facade); the trait lives here so logical optimization does not depend
/// on the execution crate.
pub trait CostModel {
    /// Total estimated cost of executing `plan`, in abstract work units.
    /// Only the *ordering* matters to the optimizer.
    fn total_cost(&self, plan: &Plan) -> f64;
}

/// Rewrite a translated plan under the given strategy. This is pure plan
/// surgery — execution method selection (hash vs sort-merge vs nested
/// loop) happens later in `tmql-exec`'s planner, exactly the layering the
/// paper argues for: "after rewriting a nested query into a join query,
/// the optimizer has better possibilities to choose the most appropriate
/// join implementation" (Section 1).
///
/// [`UnnestStrategy::CostBased`] needs a [`CostModel`] to rank candidates;
/// this entry point has none and therefore degrades it to the rule-based
/// [`UnnestStrategy::Optimal`] pipeline. Use [`Optimizer::optimize_with`]
/// to supply one.
pub fn unnest_plan(plan: Plan, strat: UnnestStrategy) -> Plan {
    unnest_plan_with(plan, strat, None)
}

/// [`unnest_plan`] with an optional cost model for
/// [`UnnestStrategy::CostBased`]. Every nested block is analysed once
/// ([`strategy::Block`]) and decided once: by [`strategy::candidate`], or
/// by cost (`cheapest`) when there is a model to rank with.
pub(crate) fn unnest_plan_with(
    plan: Plan,
    strat: UnnestStrategy,
    model: Option<&dyn CostModel>,
) -> Plan {
    if strat == UnnestStrategy::NestedLoop {
        return plan; // nothing to decide, so no block is analysed
    }
    strategy::rewrite_blocks(plan, &mut |block| match (strat, model) {
        (UnnestStrategy::CostBased, Some(model)) => cheapest(block, model),
        _ => strategy::candidate(block, strat),
    })
}

/// Fraction by which a later candidate must undercut the incumbent's
/// estimated cost to displace it. Candidates are enumerated in the
/// paper's rule-preference order, so this is hysteresis against
/// estimation noise: the model overrides the Section 8 rules only when
/// it predicts a clear win, not on a coin-flip-sized gap.
const COST_MARGIN: f64 = 0.2;

/// Cost-based selection for one block: cost each of its
/// [`strategy::candidates`] and keep the cheapest (subject to
/// [`COST_MARGIN`]), provided it is no dearer than the nested loop. When
/// Theorem 1 denies a flat join, only the grouping strategies compete;
/// a block with no candidate stays nested-loop.
fn cheapest(block: &Block<'_>, model: &dyn CostModel) -> Option<Plan> {
    let mut best: Option<(Plan, f64)> = None;
    for (_, candidate) in strategy::candidates(block) {
        let cost = model.total_cost(&candidate);
        let displaces = match &best {
            None => true,
            Some((_, incumbent)) => cost < incumbent * (1.0 - COST_MARGIN),
        };
        if displaces {
            best = Some((candidate, cost));
        }
    }
    // The rewrites still have to beat keeping the Apply outright (no
    // margin: the nested loop is the fallback, not the preference).
    best.filter(|(_, cost)| *cost <= model.total_cost(&block.nested_loop()))
        .map(|(plan, _)| plan)
}

/// A configured optimizer: strategy + optional rule cleanup.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    /// Unnesting strategy.
    pub strategy: UnnestStrategy,
    /// Run [`rules::cleanup`] (selection pushdown, projection elimination,
    /// UNNEST collapse) after unnesting.
    pub apply_rules: bool,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            strategy: UnnestStrategy::CostBased,
            apply_rules: true,
        }
    }
}

impl Optimizer {
    /// Run the full logical optimization pipeline without a cost model
    /// ([`UnnestStrategy::CostBased`] degrades to the rule-based
    /// pipeline — see [`unnest_plan`]).
    pub fn optimize(&self, plan: Plan) -> Plan {
        self.optimize_with(plan, None)
    }

    /// Run the full logical optimization pipeline, ranking
    /// [`UnnestStrategy::CostBased`] candidates with `model`.
    pub fn optimize_with(&self, plan: Plan, model: Option<&dyn CostModel>) -> Plan {
        // UNNEST collapse must run before unnesting: it removes the Apply
        // entirely (Section 5's special case), which is strictly better
        // than any join strategy for it.
        let plan = if self.apply_rules {
            tmql_algebra::rewrite::fixpoint(plan, 4, &mut rules::unnest_collapse)
        } else {
            plan
        };
        let plan = unnest_plan_with(plan, self.strategy, model);
        if self.apply_rules {
            rules::cleanup(plan)
        } else {
            plan
        }
    }
}

// What each strategy makes of each statement — `unnest_plan(p, s)` for every
// `s` in `UnnestStrategy::ALL` over the 26 `plan_heavy` statements — is pinned
// byte for byte by `tests/plan_golden.rs`; the tests here pin the decisions.
#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::{AggFn, JoinKind, ScalarExpr as E, SetCmpOp};

    fn sub() -> Plan {
        Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["a"]), "s")
    }

    fn where_block(pred: E) -> Plan {
        Plan::scan("X", "x")
            .apply(sub(), "z")
            .select(pred)
            .map(E::var("x"), "out")
    }

    /// A deterministic toy model: counts operators, charging `Apply`
    /// heavily (so any rewrite beats the baseline) and `LeftOuterJoin`
    /// mildly (so the nest join beats the relational fixes), mirroring the
    /// ranking of the real estimator without needing a catalog.
    struct OpCountModel;

    impl CostModel for OpCountModel {
        fn total_cost(&self, plan: &Plan) -> f64 {
            let mut cost = 0.0;
            plan.any_node(&mut |n| {
                cost += match n {
                    Plan::Apply { .. } => 1000.0,
                    Plan::Join {
                        kind: JoinKind::LeftOuter,
                        ..
                    } => 50.0,
                    Plan::GroupAgg { .. } | Plan::Nest { .. } => 25.0,
                    Plan::Join {
                        kind: JoinKind::Nest { .. },
                        ..
                    } => 20.0,
                    _ => 1.0,
                };
                false
            });
            cost
        }
    }

    #[test]
    fn optimal_flattens_membership_to_semijoin() {
        let plan = where_block(E::set_cmp(SetCmpOp::In, E::path("x", &["a"]), E::var("z")));
        let out = unnest_plan(plan, UnnestStrategy::Optimal);
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Semi,
                ..
            }
        )));
        assert!(!out.has_nest_join());
    }

    #[test]
    fn optimal_uses_nestjoin_for_grouping_predicates() {
        let plan = where_block(E::set_cmp(
            SetCmpOp::SubsetEq,
            E::path("x", &["a"]),
            E::var("z"),
        ));
        let out = unnest_plan(plan, UnnestStrategy::Optimal);
        assert!(out.has_nest_join());
        assert!(!out.has_apply());
    }

    #[test]
    fn optimal_handles_select_clause_nesting() {
        let q2 = Plan::scan("DEPT", "d")
            .apply(sub(), "emps")
            .map(E::var("emps"), "out");
        let out = unnest_plan(q2, UnnestStrategy::Optimal);
        assert!(out.has_nest_join());
    }

    #[test]
    fn all_strategies_remove_apply_for_count_query_except_nested_loop() {
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        for strat in UnnestStrategy::ALL {
            let out = unnest_plan(where_block(pred.clone()), strat);
            match strat {
                UnnestStrategy::NestedLoop | UnnestStrategy::FlattenSemiAnti => {
                    assert!(
                        out.has_apply(),
                        "{} should keep the Apply here",
                        strat.name()
                    );
                }
                _ => assert!(!out.has_apply(), "{} should unnest", strat.name()),
            }
        }
    }

    #[test]
    fn cost_based_picks_semijoin_for_membership() {
        let plan = where_block(E::set_cmp(SetCmpOp::In, E::path("x", &["a"]), E::var("z")));
        let out = unnest_plan_with(plan, UnnestStrategy::CostBased, Some(&OpCountModel));
        assert!(
            out.any_node(&mut |n| matches!(
                n,
                Plan::Join {
                    kind: JoinKind::Semi,
                    ..
                }
            )),
            "{out}"
        );
        assert!(!out.has_apply());
    }

    #[test]
    fn cost_based_chooses_cheapest_grouping_candidate() {
        // ⊆ requires grouping: candidates are Muralikrishna (ν + ⟕),
        // nest join, Ganski–Wong (⟕ + ν*). Under the toy model the nest
        // join (20) beats Muralikrishna (25 + 50) and GW (50 + 25).
        let plan = where_block(E::set_cmp(
            SetCmpOp::SubsetEq,
            E::path("x", &["a"]),
            E::var("z"),
        ));
        let out = unnest_plan_with(plan, UnnestStrategy::CostBased, Some(&OpCountModel));
        assert!(out.has_nest_join(), "{out}");
        assert!(
            !out.any_node(&mut |n| matches!(
                n,
                Plan::Join {
                    kind: JoinKind::LeftOuter,
                    ..
                }
            )),
            "{out}"
        );
        assert!(!out.has_apply());
    }

    #[test]
    fn cost_based_can_prefer_group_first_when_model_says_so() {
        // Same query, but a model that charges the nest join above the
        // relational group-first plan: Muralikrishna's ν + ⟕ shape wins.
        struct NestJoinHostile;
        impl CostModel for NestJoinHostile {
            fn total_cost(&self, plan: &Plan) -> f64 {
                let mut cost = 0.0;
                plan.any_node(&mut |n| {
                    cost += match n {
                        Plan::Apply { .. } => 1000.0,
                        Plan::Join {
                            kind: JoinKind::Nest { .. },
                            ..
                        } => 500.0,
                        _ => 1.0,
                    };
                    false
                });
                cost
            }
        }
        let pred = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, E::var("z")));
        let out = unnest_plan_with(
            where_block(pred),
            UnnestStrategy::CostBased,
            Some(&NestJoinHostile),
        );
        assert!(!out.has_apply());
        assert!(!out.has_nest_join(), "{out}");
        assert!(
            out.any_node(&mut |n| matches!(n, Plan::GroupAgg { .. })),
            "{out}"
        );
    }

    #[test]
    fn cost_based_degrades_to_nested_loop_when_inner_not_closed() {
        // FROM d.emps e — the inner plan references the outer variable, so
        // no strategy applies (Section 3.2) and the Apply must survive.
        let sub = Plan::ScanExpr {
            expr: E::path("d", &["emps"]),
            var: "e".into(),
        }
        .map(E::var("e"), "s");
        let plan = Plan::scan("DEPT", "d").apply(sub, "z").select(E::set_cmp(
            SetCmpOp::In,
            E::path("d", &["mgr"]),
            E::var("z"),
        ));
        let out = unnest_plan_with(plan, UnnestStrategy::CostBased, Some(&OpCountModel));
        assert!(out.has_apply(), "{out}");
        assert!(!out.has_nest_join());
    }

    /// [`OpCountModel`], counting how often it is asked.
    struct Counting(std::cell::Cell<usize>);

    impl CostModel for Counting {
        fn total_cost(&self, plan: &Plan) -> f64 {
            self.0.set(self.0.get() + 1);
            OpCountModel.total_cost(plan)
        }
    }

    fn times_costed(plan: Plan) -> usize {
        let model = Counting(std::cell::Cell::new(0));
        unnest_plan_with(plan, UnnestStrategy::CostBased, Some(&model));
        model.0.get()
    }

    #[test]
    fn cost_based_costs_each_distinct_candidate_once() {
        // x.a ∈ z: flatten, nest join, Ganski–Wong and the nested-loop
        // baseline. Muralikrishna's entry is the semijoin again; it could
        // never displace (equal cost does not clear the margin) and is
        // neither built nor costed.
        let member = E::set_cmp(SetCmpOp::In, E::path("x", &["a"]), E::var("z"));
        assert_eq!(times_costed(where_block(member)), 4);
        // x.a ⊆ z: Theorem 1 denies the flat join; nest join,
        // Muralikrishna, Ganski–Wong and the baseline.
        let subset = E::set_cmp(SetCmpOp::SubsetEq, E::path("x", &["a"]), E::var("z"));
        assert_eq!(times_costed(where_block(subset)), 4);
        // Not closed (Section 3.2): no candidate, so no baseline either.
        let sub = Plan::ScanExpr {
            expr: E::path("d", &["emps"]),
            var: "e".into(),
        }
        .map(E::var("e"), "s");
        let plan = Plan::scan("DEPT", "d").apply(sub, "z").select(E::set_cmp(
            SetCmpOp::In,
            E::path("d", &["mgr"]),
            E::var("z"),
        ));
        assert_eq!(times_costed(plan), 0);
    }

    #[test]
    fn cost_based_without_model_matches_optimal() {
        for pred in [
            E::set_cmp(SetCmpOp::In, E::path("x", &["a"]), E::var("z")),
            E::set_cmp(SetCmpOp::SubsetEq, E::path("x", &["a"]), E::var("z")),
        ] {
            let a = unnest_plan(where_block(pred.clone()), UnnestStrategy::CostBased);
            let b = unnest_plan(where_block(pred), UnnestStrategy::Optimal);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn optimizer_pipeline_applies_cleanup() {
        // Membership block with an extra x-only conjunct: after flattening,
        // the residual select pushes below the semijoin.
        let pred = E::and(
            E::cmp(tmql_algebra::CmpOp::Gt, E::path("x", &["a"]), E::lit(0i64)),
            E::set_cmp(SetCmpOp::In, E::path("x", &["a"]), E::var("z")),
        );
        let out = Optimizer::default().optimize(where_block(pred));
        // Residual landed below the semijoin's left input.
        let pushed = out.any_node(&mut |n| {
            matches!(n, Plan::Join { kind: JoinKind::Semi, left, .. } if matches!(&**left, Plan::Select { .. }))
        });
        assert!(pushed, "{out}");
    }

    #[test]
    fn optimizer_collapses_unnest_before_strategies() {
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["a"])))
            .map(E::path("y", &["b"]), "g");
        let plan = Plan::Unnest {
            input: Box::new(Plan::scan("X", "x").apply(sub, "z").map(E::var("z"), "m")),
            expr: E::var("m"),
            elem_var: "u".into(),
            drop_vars: vec!["m".into()],
        };
        let out = Optimizer::default().optimize(plan);
        assert!(!out.has_apply());
        assert!(!out.has_nest_join(), "collapse must beat nest join: {out}");
        assert!(out.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: JoinKind::Inner,
                ..
            }
        )));
    }
}
