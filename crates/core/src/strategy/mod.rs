//! Unnesting strategies.
//!
//! Every strategy rewrites the canonical translated shape of a nested
//! SFW block (see `tmql-translate`):
//!
//! ```text
//! Select P(x, z)                    -- nesting in the WHERE clause, or
//!   Apply z :=                      -- a bare Apply for SELECT-clause
//!     input:    <outer plan I>      -- nesting
//!     subquery: Map G(x, y)
//!                 Select Q(x, y)
//!                   <inner plan R>
//! ```
//!
//! into a join shape, eliminating the correlated `Apply` (the nested
//! loop). The strategies differ exactly as the paper's Section 2/6 survey
//! does — see each submodule. All of them require the inner plan `R` to be
//! **closed** (no free variables): a subquery iterating a set-valued
//! attribute of the outer variable (`FROM d.emps e`) stays a nested loop,
//! which is the paper's point that "there is no use to flatten nested
//! queries in which subquery operands are set-valued attributes"
//! (Section 3.2).

pub(crate) mod ganski_wong;
pub mod kim;
pub mod muralikrishna;
pub mod nested_loop;
pub mod nestjoin;
pub(crate) mod semi_anti;

use std::borrow::Cow;

use tmql_algebra::{Plan, ScalarExpr};

use crate::classify::{classify, split_on_z, Classification};

/// Which unnesting strategy to apply to a translated plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnnestStrategy {
    /// Keep the correlated `Apply`: nested-loop processing. Always correct;
    /// the paper's "naive way" (Section 9).
    NestedLoop,
    /// Kim's algorithm [Kim 82] — join + grouping, **bug-compatible**:
    /// loses dangling outer tuples whenever grouping is involved (the
    /// COUNT bug of Section 2 and the SUBSETEQ bug of Section 4).
    Kim,
    /// Ganski–Wong [SIGMOD 87] — outerjoin + ν* grouping; the relational
    /// repair of Kim's bug using NULLs.
    GanskiWong,
    /// Muralikrishna [VLDB 89/92] — group-first unnesting repaired with
    /// an outerjoin and an antijoin predicate for dangling tuples.
    Muralikrishna,
    /// The paper's nest join Δ (Section 6): grouping during the join,
    /// dangling tuples get ∅.
    NestJoin,
    /// Theorem 1 flattening only: rewrite into semijoin/antijoin where the
    /// predicate classification allows, leave everything else as `Apply`.
    FlattenSemiAnti,
    /// The paper's full pipeline (Section 8): flatten to semi/antijoin
    /// where Theorem 1 allows, use the nest join everywhere else.
    Optimal,
    /// Cost-based per-block choice: enumerate the applicable rewrites
    /// (semi/antijoin flattening, nest join, Ganski–Wong, Muralikrishna,
    /// and the nested-loop baseline), estimate each candidate's cost with
    /// a [`crate::optimizer::CostModel`] over storage statistics, and keep
    /// the cheapest. Where Theorem 1 or closedness restricts the
    /// candidates (Section 3.2), only the legal ones compete; with no
    /// model available it degrades to the rule-based [`Self::Optimal`].
    #[default]
    CostBased,
}

impl UnnestStrategy {
    /// All strategies, for differential tests and benchmarks.
    pub const ALL: [UnnestStrategy; 8] = [
        UnnestStrategy::NestedLoop,
        UnnestStrategy::Kim,
        UnnestStrategy::GanskiWong,
        UnnestStrategy::Muralikrishna,
        UnnestStrategy::NestJoin,
        UnnestStrategy::FlattenSemiAnti,
        UnnestStrategy::Optimal,
        UnnestStrategy::CostBased,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            UnnestStrategy::NestedLoop => "nested-loop",
            UnnestStrategy::Kim => "kim",
            UnnestStrategy::GanskiWong => "ganski-wong",
            UnnestStrategy::Muralikrishna => "muralikrishna",
            UnnestStrategy::NestJoin => "nest-join",
            UnnestStrategy::FlattenSemiAnti => "semi-anti",
            UnnestStrategy::Optimal => "optimal",
            UnnestStrategy::CostBased => "cost-based",
        }
    }

    /// True for the strategies that are documented to return wrong answers
    /// on dangling tuples (kept for bug-demonstration experiments).
    pub fn is_bug_compatible(&self) -> bool {
        matches!(self, UnnestStrategy::Kim)
    }
}

/// The canonical subquery `Map G (Select Q (R))`, borrowed apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SubqueryParts<'a> {
    /// Inner operand plan `R` (everything under the block's Select).
    pub inner: &'a Plan,
    /// Correlation/selection predicate `Q(x, y)` (`true` when absent).
    pub q: &'a ScalarExpr,
    /// Result expression `G(x, y)`.
    pub g: &'a ScalarExpr,
}

/// The `Q` of a subquery that has no Select.
static TRUE: ScalarExpr = ScalarExpr::Lit(tmql_model::Value::Bool(true));

/// Take a subquery plan apart into [`SubqueryParts`]. Returns `None` when
/// the plan is not of the canonical `Map (Select …)` / `Map (…)` shape.
pub(crate) fn decompose_subquery(sub: &Plan) -> Option<SubqueryParts<'_>> {
    let Plan::Map { input, expr: g, .. } = sub else {
        return None;
    };
    Some(match &**input {
        Plan::Select { input: inner, pred } => SubqueryParts { inner, q: pred, g },
        inner => SubqueryParts { inner, q: &TRUE, g },
    })
}

/// True iff the inner plan can be decorrelated: it has no free variables
/// (all correlation lives in `Q`/`G`, not in `R` itself).
pub(crate) fn decorrelatable(parts: &SubqueryParts<'_>) -> bool {
    parts.inner.free_vars().is_empty()
}

/// Replace every occurrence of the subexpression `target` inside `expr`
/// by `replacement` (structural equality).
pub(crate) fn replace_subexpr(
    expr: &ScalarExpr,
    target: &ScalarExpr,
    replacement: &ScalarExpr,
) -> ScalarExpr {
    if expr == target {
        return replacement.clone();
    }
    expr.map_children(&mut |e| replace_subexpr(e, target, replacement))
}

/// One nested block `[Select P] Apply z := (I, Map G (Select Q (R)))`,
/// analysed once for every strategy that may rewrite it. A `Block` exists
/// only for a canonical subquery whose operand `R` is closed.
#[derive(Debug)]
pub(crate) struct Block<'a> {
    /// The block as it stands: nested-loop processing.
    plan: &'a Plan,
    /// Block predicate `P(x, z)`; `None` for SELECT-clause nesting.
    pub pred: Option<&'a ScalarExpr>,
    /// Outer plan `I`.
    pub input: &'a Plan,
    /// Label `z` of the subquery result.
    pub label: &'a str,
    /// `R`, `Q` and `G` of the subquery.
    pub parts: SubqueryParts<'a>,
    /// The conjunct of `P` that mentions `z` with its Theorem 1
    /// classification ([`split_on_z`]: several such conjuncts are one
    /// conjunction). `None` when `P` is absent or ignores `z`.
    pub zpart: Option<(Cow<'a, ScalarExpr>, Classification)>,
    /// The conjuncts of `P` that do not mention `z`.
    pub rest: Vec<&'a ScalarExpr>,
}

impl<'a> Block<'a> {
    /// Analyse one `Apply`, or a Select directly over one. `None` for
    /// any other plan, and when no strategy applies: the subquery is not
    /// canonical, or `R` is correlated (Section 3.2).
    pub(crate) fn analyse(plan: &'a Plan) -> Option<Block<'a>> {
        let (pred, apply) = match plan {
            Plan::Select { input, pred } => (Some(pred), &**input),
            apply => (None, apply),
        };
        let Plan::Apply {
            input,
            subquery,
            label,
        } = apply
        else {
            return None;
        };
        let parts = decompose_subquery(subquery).filter(decorrelatable)?;
        let (zpart, rest) = pred.map_or((None, Vec::new()), |p| split_on_z(p, label));
        let zpart = zpart.map(|z| {
            let class = classify(&z, label);
            (z, class)
        });
        Some(Block {
            plan,
            pred,
            input,
            label,
            parts,
            zpart,
            rest,
        })
    }

    /// The block as it stands: nested-loop processing.
    pub fn nested_loop(&self) -> &'a Plan {
        self.plan
    }

    /// `plan` under the block predicate, for rewrites that bind `z` and
    /// leave `P` as it is.
    fn with_pred(&self, plan: Plan) -> Plan {
        match self.pred {
            Some(p) => plan.select(p.clone()),
            None => plan,
        }
    }

    /// `plan` under the `z`-free conjuncts, for rewrites that absorb the
    /// `z` conjunct.
    fn with_rest(&self, plan: Plan) -> Plan {
        if self.rest.is_empty() {
            plan
        } else {
            plan.select(ScalarExpr::conj(self.rest.iter().map(|&c| c.clone())))
        }
    }

    /// The rewrite of a WHERE block whose predicate ignores the subquery:
    /// drop the `Apply`, keep the filter.
    fn without_subquery(&self) -> Plan {
        self.with_rest(self.input.clone())
    }
}

/// The strategies that build a plan of their own, in the paper's
/// rule-preference order (Section 8 first, then the relational repairs).
pub(crate) const CANDIDATES: [UnnestStrategy; 4] = [
    UnnestStrategy::FlattenSemiAnti,
    UnnestStrategy::NestJoin,
    UnnestStrategy::Muralikrishna,
    UnnestStrategy::GanskiWong,
];

/// The replacement `strategy` has for an analysed block — the whole of it,
/// block predicate included — or `None` to keep nested-loop processing.
/// The two choosing strategies are answered by rule here: the first
/// applicable of Theorem 1 flattening and the nest join (Section 8: "if
/// predicates between query blocks require grouping, a nest join operator
/// is applied; if predicates do not need grouping a flat join operation is
/// executed"; SELECT-clause nesting always groups). Choosing by cost is
/// [`crate::optimizer`]'s, over [`candidates`].
pub(crate) fn candidate(block: &Block<'_>, strategy: UnnestStrategy) -> Option<Plan> {
    use UnnestStrategy as S;
    match strategy {
        S::NestedLoop => None,
        S::Kim => kim::plan(block),
        S::GanskiWong => ganski_wong::plan(block).map(|p| block.with_pred(p)),
        S::Muralikrishna => muralikrishna::plan(block),
        S::NestJoin => Some(block.with_pred(nestjoin::plan(block))),
        S::FlattenSemiAnti => semi_anti::plan(block),
        S::Optimal | S::CostBased => [S::FlattenSemiAnti, S::NestJoin]
            .into_iter()
            .find_map(|s| candidate(block, s)),
    }
}

/// Every distinct rewrite of the block, tagged, in [`CANDIDATES`] order.
/// Muralikrishna's entry is left out where it *is* the flattening entry.
pub(crate) fn candidates(block: &Block<'_>) -> Vec<(UnnestStrategy, Plan)> {
    CANDIDATES
        .into_iter()
        .filter(|s| *s != UnnestStrategy::Muralikrishna || !muralikrishna::flattens(block))
        .filter_map(|s| Some((s, candidate(block, s)?)))
        .collect()
}

/// Offer every nested block of the plan to `rewriter`, inside-out: the
/// nested blocks of a multi-level query are decided before their enclosing
/// block (the order of the paper's Section 8 example). A block is a
/// `Select(Apply)` (WHERE-clause nesting) or a bare `Apply` (SELECT-clause
/// nesting); `rewriter` returns the replacement plan, or `None` to keep
/// nested-loop processing. A block [`Block::analyse`] refuses is kept
/// without asking.
pub(crate) fn rewrite_blocks(
    plan: Plan,
    rewriter: &mut impl FnMut(&Block<'_>) -> Option<Plan>,
) -> Plan {
    let mut inside = |c| rewrite_blocks(c, rewriter);
    let block = match plan {
        Plan::Select { mut input, pred } if matches!(*input, Plan::Apply { .. }) => {
            // The Apply is this block: only its children are rewritten.
            let apply = std::mem::replace(&mut *input, Plan::scan("", ""));
            *input = apply.map_children(&mut inside);
            Plan::Select { input, pred }
        }
        apply @ Plan::Apply { .. } => apply.map_children(&mut inside),
        other => return other.map_children(&mut inside),
    };
    let replacement = Block::analyse(&block).and_then(|b| rewriter(&b));
    replacement.unwrap_or(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tmql_algebra::{CmpOp, ScalarExpr as E};

    fn canonical_sub() -> Plan {
        Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["a"]), "sub")
    }

    #[test]
    fn decompose_canonical() {
        let sub = canonical_sub();
        let parts = decompose_subquery(&sub).unwrap();
        assert_eq!(*parts.inner, Plan::scan("Y", "y"));
        assert!(parts.q.mentions("x"));
        assert_eq!(*parts.g, E::path("y", &["a"]));
        assert!(decorrelatable(&parts));
    }

    #[test]
    fn decompose_without_select() {
        let sub = Plan::scan("Y", "y").map(E::var("y"), "sub");
        let parts = decompose_subquery(&sub).unwrap();
        assert_eq!(*parts.q, E::lit(true));
    }

    #[test]
    fn non_canonical_shapes_refused() {
        assert!(decompose_subquery(&Plan::scan("Y", "y")).is_none());
    }

    #[test]
    fn correlated_inner_not_decorrelatable() {
        // FROM d.emps e — inner plan references the outer var d.
        let sub = Plan::ScanExpr {
            expr: E::path("d", &["emps"]),
            var: "e".into(),
        }
        .map(E::var("e"), "sub");
        let parts = decompose_subquery(&sub).unwrap();
        assert!(!decorrelatable(&parts));
    }

    #[test]
    fn replace_subexpr_replaces_all_occurrences() {
        let count_z = E::agg(tmql_algebra::AggFn::Count, E::var("z"));
        let e = E::and(
            E::cmp(CmpOp::Eq, E::path("x", &["b"]), count_z.clone()),
            E::cmp(CmpOp::Lt, count_z.clone(), E::lit(10i64)),
        );
        let replaced = replace_subexpr(&e, &count_z, &E::path("t", &["cnt"]));
        assert!(!replaced.mentions("z"));
        assert!(replaced.mentions("t"));
    }

    /// `replace_subexpr` as it was written before `ScalarExpr::map_children`:
    /// one arm per variant.
    fn replace_reference(e: &E, target: &E, by: &E) -> E {
        if e == target {
            return by.clone();
        }
        let r = |e: &E| replace_reference(e, target, by);
        let b = |e: &E| Box::new(replace_reference(e, target, by));
        match e {
            E::Lit(_) | E::Var(_) => e.clone(),
            E::Field(e, l) => E::Field(b(e), l.clone()),
            E::Not(e) => E::Not(b(e)),
            E::Agg(f, e) => E::Agg(*f, b(e)),
            E::Unnest(e) => E::Unnest(b(e)),
            E::IsNull(e) => E::IsNull(b(e)),
            E::Cmp(op, x, y) => E::Cmp(*op, b(x), b(y)),
            E::Arith(op, x, y) => E::Arith(*op, b(x), b(y)),
            E::And(x, y) => E::And(b(x), b(y)),
            E::Or(x, y) => E::Or(b(x), b(y)),
            E::SetBin(op, x, y) => E::SetBin(*op, b(x), b(y)),
            E::SetCmp(op, x, y) => E::SetCmp(*op, b(x), b(y)),
            E::Tuple(fs) => E::Tuple(fs.iter().map(|(l, e)| (l.clone(), r(e))).collect()),
            E::SetLit(es) => E::SetLit(es.iter().map(r).collect()),
            E::Quant { q, var, over, pred } => E::quant(*q, var.clone(), r(over), r(pred)),
        }
    }

    /// Expressions over every variant whose leaves are few enough that a
    /// generated target recurs inside a generated expression.
    fn arb_expr() -> impl Strategy<Value = E> {
        use tmql_algebra::{AggFn, ArithOp, Quantifier, SetBinOp, SetCmpOp};
        let leaf = prop_oneof![
            (0i64..2).prop_map(E::lit),
            "[x-z]".prop_map(E::var),
            "[x-z]".prop_map(|v| E::agg(AggFn::Count, E::var(v))),
        ];
        leaf.prop_recursive(3, 24, 3, |inner| {
            let two = || (inner.clone(), inner.clone());
            prop_oneof![
                inner.clone().prop_map(|e| e.field("a")),
                inner.clone().prop_map(E::not),
                inner.clone().prop_map(|e| E::agg(AggFn::Count, e)),
                inner.clone().prop_map(|e| E::Unnest(Box::new(e))),
                inner.clone().prop_map(|e| E::IsNull(Box::new(e))),
                two().prop_map(|(a, b)| E::cmp(CmpOp::Eq, a, b)),
                two().prop_map(|(a, b)| E::Arith(ArithOp::Add, Box::new(a), Box::new(b))),
                two().prop_map(|(a, b)| E::and(a, b)),
                two().prop_map(|(a, b)| E::or(a, b)),
                two().prop_map(|(a, b)| E::SetBin(SetBinOp::Union, Box::new(a), Box::new(b))),
                two().prop_map(|(a, b)| E::set_cmp(SetCmpOp::In, a, b)),
                two().prop_map(|(a, b)| E::Tuple(vec![("a".into(), a), ("b".into(), b)])),
                prop::collection::vec(inner.clone(), 0..3).prop_map(E::SetLit),
                ("[x-z]", inner.clone(), inner.clone()).prop_map(|(v, over, body)| E::quant(
                    Quantifier::Exists,
                    v,
                    over,
                    body
                )),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn replace_subexpr_agrees_with_its_per_variant_definition(
            e in arb_expr(),
            target in arb_expr(),
            by in arb_expr(),
        ) {
            prop_assert_eq!(
                replace_subexpr(&e, &target, &by),
                replace_reference(&e, &target, &by)
            );
        }
    }

    #[test]
    fn rewrite_blocks_visits_inner_first() {
        // Two-level nesting: record visit order of labels.
        let inner_sub = Plan::scan("Z", "z2scan").map(E::path("z2scan", &["c"]), "s2");
        let y_block = Plan::scan("Y", "y")
            .apply(inner_sub, "z2")
            .select(E::set_cmp(
                tmql_algebra::SetCmpOp::In,
                E::path("y", &["c"]),
                E::var("z2"),
            ))
            .map(E::path("y", &["a"]), "s1");
        let top = Plan::scan("X", "x").apply(y_block, "z1").select(E::set_cmp(
            tmql_algebra::SetCmpOp::In,
            E::path("x", &["a"]),
            E::var("z1"),
        ));
        let mut order = Vec::new();
        let _ = rewrite_blocks(top, &mut |block| {
            order.push(block.label.to_string());
            None
        });
        assert_eq!(order, vec!["z2".to_string(), "z1".to_string()]);
    }

    #[test]
    fn rewrite_blocks_can_replace() {
        let sub = canonical_sub();
        let top = Plan::scan("X", "x").apply(sub, "z");
        let out = rewrite_blocks(top, &mut |block| Some(block.input.clone()));
        assert_eq!(out, Plan::scan("X", "x"));
    }

    #[test]
    fn a_block_is_analysed_once_and_only_when_a_strategy_could_apply() {
        let member = E::set_cmp(
            tmql_algebra::SetCmpOp::In,
            E::path("x", &["a"]),
            E::var("z"),
        );
        let pred = E::and(E::eq(E::path("x", &["b"]), E::lit(1i64)), member.clone());
        let (outer, sub) = (Plan::scan("X", "x"), canonical_sub());
        let block = |sub: &Plan| outer.clone().apply(sub.clone(), "z");
        let nested = block(&sub).select(pred.clone());
        let analysed = Block::analyse(&nested).unwrap();
        let (zpart, class) = analysed.zpart.as_ref().unwrap();
        assert_eq!(**zpart, member);
        assert!(matches!(class, Classification::Existential { .. }));
        assert_eq!(analysed.rest.len(), 1);
        assert!(std::ptr::eq(analysed.nested_loop(), &nested));
        // Muralikrishna's entry would be the semijoin again: three tags.
        let tags: Vec<_> = candidates(&analysed).into_iter().map(|(s, _)| s).collect();
        assert_eq!(
            tags,
            [
                UnnestStrategy::FlattenSemiAnti,
                UnnestStrategy::NestJoin,
                UnnestStrategy::GanskiWong
            ]
        );
        // SELECT-clause nesting has no predicate to split or classify.
        let analysed = Block::analyse(nested.children()[0]).unwrap();
        assert!(analysed.zpart.is_none() && analysed.rest.is_empty());
        // No Apply, not canonical, or not closed (Section 3.2): no block at
        // all.
        assert!(Block::analyse(&outer.clone().select(pred.clone())).is_none());
        assert!(Block::analyse(&block(&Plan::scan("Y", "y"))).is_none());
        let correlated = Plan::ScanExpr {
            expr: E::path("x", &["kids"]),
            var: "k".into(),
        }
        .map(E::var("k"), "s");
        assert!(Block::analyse(&block(&correlated).select(pred)).is_none());
    }

    #[test]
    fn strategy_names_unique() {
        let names: std::collections::BTreeSet<_> =
            UnnestStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), UnnestStrategy::ALL.len());
    }
}
