//! Predicate classification — the engine behind Theorem 1.
//!
//! Given a predicate `P(x, z)` between query blocks, where `z` names the
//! subquery result, decide whether `P` can be rewritten into one of the two
//! calculus forms of **Theorem 1** (Section 7):
//!
//! 1. `∃v ∈ z (P'(x, v))` — no grouping needed; the nested query flattens
//!    to a **semijoin**;
//! 2. `¬∃v ∈ z (P'(x, v))` — no grouping needed; flattens to an
//!    **antijoin**;
//!
//! or whether it **requires grouping** (nest join territory). The rewrites
//! cover the paper's Table 2 catalogue ([`crate::table2`]) plus a few
//! sound extensions (MIN/MAX comparisons, quantifier bodies), each
//! documented at its match arm.

use std::borrow::Cow;

use tmql_algebra::{AggFn, CmpOp, Quantifier, ScalarExpr, SetCmpOp};
use tmql_model::Value;

/// The fresh variable name used for `v` in produced rewrites. Double
/// underscore keeps it out of the user's namespace (the parser rejects
/// leading `__`).
pub(crate) const FRESH_VAR: &str = "__v";

/// Result of classifying a predicate `P(x, z)` with respect to `z`.
#[derive(Debug, Clone, PartialEq)]
pub enum Classification {
    /// `P` does not mention `z` at all; the subquery is dead code for this
    /// predicate.
    Independent,
    /// `P ≡ ∃v ∈ z (pred)` with `v` = the fresh variable `__v` free in `pred`.
    Existential {
        /// The rewritten body `P'(x, v)`.
        pred: ScalarExpr,
    },
    /// `P ≡ ¬∃v ∈ z (pred)`.
    NegatedExistential {
        /// The rewritten body `P'(x, v)`.
        pred: ScalarExpr,
    },
    /// No rewrite into Theorem 1 form found: the subquery result must be
    /// available *as a whole* (Section 4: "all tuples belonging to the
    /// subquery result must be kept").
    RequiresGrouping,
}

impl Classification {
    /// True iff the classification licenses a flat (semi/anti) join.
    pub fn avoids_grouping(&self) -> bool {
        matches!(
            self,
            Classification::Independent
                | Classification::Existential { .. }
                | Classification::NegatedExistential { .. }
        )
    }

    fn negate(self) -> Classification {
        match self {
            Classification::Existential { pred } => Classification::NegatedExistential { pred },
            Classification::NegatedExistential { pred } => Classification::Existential { pred },
            Classification::Independent => Classification::Independent,
            Classification::RequiresGrouping => Classification::RequiresGrouping,
        }
    }
}

/// Split a conjunctive predicate into the conjunct mentioning `z` and the
/// remaining `x`-only conjuncts. Returns `None` for the z-part when no
/// conjunct mentions `z`; classification demands **exactly one** mention
/// ("P(x, z) contains only one occurrence of z", Section 4) — with more,
/// the whole conjunction is returned as the z-part so it classifies as
/// requiring grouping. Only a conjunction of several is built; the
/// conjuncts are borrowed.
pub(crate) fn split_on_z<'e>(
    pred: &'e ScalarExpr,
    z: &str,
) -> (Option<Cow<'e, ScalarExpr>>, Vec<&'e ScalarExpr>) {
    let (with_z, without_z): (Vec<_>, Vec<_>) =
        pred.conjuncts().into_iter().partition(|c| c.mentions(z));
    let zpart = match with_z[..] {
        [] => None,
        [one] => Some(Cow::Borrowed(one)),
        _ => Some(Cow::Owned(ScalarExpr::conj(with_z.into_iter().cloned()))),
    };
    (zpart, without_z)
}

/// Classify a predicate with respect to the subquery variable `z`.
pub fn classify(pred: &ScalarExpr, z: &str) -> Classification {
    if !pred.mentions(z) {
        return Classification::Independent;
    }
    classify_pos(pred, z)
}

/// Classification under positive polarity; negation flips the result.
fn classify_pos(pred: &ScalarExpr, z: &str) -> Classification {
    let v = || ScalarExpr::var(FRESH_VAR);
    match pred {
        // ¬P: classify P and flip (∃ ↔ ¬∃). Grouping stays grouping —
        // negation does not make a whole-set predicate scannable.
        ScalarExpr::Not(inner) => classify_pos(inner, z).negate(),

        // Already in calculus form: (¬)∃v ∈ z (P') with arbitrary P' —
        // Theorem 1 explicitly allows any body, so accept directly
        // (the body must not mention z again).
        ScalarExpr::Quant {
            q,
            var,
            over,
            pred: body,
        } if **over == ScalarExpr::Var(z.into()) => {
            if body.mentions(z) {
                return Classification::RequiresGrouping;
            }
            let renamed = body.substitute(var, &v());
            // Rename the bound variable to the canonical fresh name. If the
            // body shadows our fresh name something is off; be conservative.
            if body.mentions(FRESH_VAR) {
                return Classification::RequiresGrouping;
            }
            match q {
                Quantifier::Exists => Classification::Existential { pred: renamed },
                // ∀v ∈ z (P') ≡ ¬∃v ∈ z (¬P').
                Quantifier::Forall => Classification::NegatedExistential {
                    pred: ScalarExpr::not(renamed),
                },
            }
        }

        // Quantifier over a z-free set S whose body tests membership of the
        // bound variable in z — Table 2's quantified spellings of the
        // intersection predicates:
        //   ∀w ∈ S (w ∉ z) ≡ S ∩ z = ∅ ≡ ¬∃v ∈ z (v ∈ S)
        //   ∃w ∈ S (w ∈ z) ≡ S ∩ z ≠ ∅ ≡ ∃v ∈ z (v ∈ S)
        // (∀w ∈ S (w ∈ z) is S ⊆ z and ∃w ∈ S (w ∉ z) is S ⊈ z — both need
        // grouping, handled by the fallthrough.)
        ScalarExpr::Quant {
            q,
            var,
            over,
            pred: body,
        } if !over.mentions(z) => {
            let member =
                ScalarExpr::set_cmp(SetCmpOp::In, ScalarExpr::var(FRESH_VAR), (**over).clone());
            match (q, &**body) {
                (Quantifier::Forall, ScalarExpr::SetCmp(SetCmpOp::NotIn, w, zz))
                    if **w == ScalarExpr::var(&**var) && **zz == ScalarExpr::Var(z.into()) =>
                {
                    Classification::NegatedExistential { pred: member }
                }
                (Quantifier::Exists, ScalarExpr::SetCmp(SetCmpOp::In, w, zz))
                    if **w == ScalarExpr::var(&**var) && **zz == ScalarExpr::Var(z.into()) =>
                {
                    Classification::Existential { pred: member }
                }
                _ => Classification::RequiresGrouping,
            }
        }

        ScalarExpr::SetCmp(op, lhs, rhs) => classify_set_cmp(*op, lhs, rhs, z),

        ScalarExpr::Cmp(op, lhs, rhs) => classify_cmp(*op, lhs, rhs, z),

        // Anything else that mentions z (arithmetic over aggregates,
        // disjunctions, z used as a set constructor argument, ...) needs
        // the whole set.
        _ => Classification::RequiresGrouping,
    }
}

/// Set-comparison rows of Table 2.
fn classify_set_cmp(op: SetCmpOp, lhs: &ScalarExpr, rhs: &ScalarExpr, z: &str) -> Classification {
    let zvar = ScalarExpr::Var(z.to_string());
    let v = || ScalarExpr::var(FRESH_VAR);

    // Normalize so that z is alone on the *right* where the operator is
    // symmetric or has a mirror (a ⊆ z ↔ z ⊇ a).
    let (op, a) = if *rhs == zvar && !lhs.mentions(z) {
        (op, lhs.clone())
    } else if *lhs == zvar && !rhs.mentions(z) {
        let mirrored = match op {
            SetCmpOp::SubsetEq => SetCmpOp::SupersetEq,
            SetCmpOp::Subset => SetCmpOp::Superset,
            SetCmpOp::SupersetEq => SetCmpOp::SubsetEq,
            SetCmpOp::Superset => SetCmpOp::Subset,
            // =, ≠, disjointness are symmetric; ∈/∉ have no mirror with z
            // as the *element* — that calls for the whole set.
            SetCmpOp::SetEq | SetCmpOp::SetNe | SetCmpOp::Disjoint | SetCmpOp::Intersects => op,
            SetCmpOp::In | SetCmpOp::NotIn => return Classification::RequiresGrouping,
        };
        (mirrored, rhs.clone())
    } else {
        // z nested deeper inside one of the operands.
        return Classification::RequiresGrouping;
    };

    match op {
        // x.a ∈ z ≡ ∃v ∈ z (v = x.a) — Table 2.
        SetCmpOp::In => Classification::Existential {
            pred: ScalarExpr::eq(v(), a),
        },
        // x.a ∉ z ≡ ¬∃v ∈ z (v = x.a) — Table 2.
        SetCmpOp::NotIn => Classification::NegatedExistential {
            pred: ScalarExpr::eq(v(), a),
        },
        // x.a ⊇ z ≡ ¬∃v ∈ z (v ∉ x.a) — Table 2.
        SetCmpOp::SupersetEq => Classification::NegatedExistential {
            pred: ScalarExpr::set_cmp(SetCmpOp::NotIn, v(), a),
        },
        // z = ∅ ≡ ¬∃v ∈ z (true); z ≠ ∅ ≡ ∃v ∈ z (true) — Table 2.
        SetCmpOp::SetEq if is_empty_set_expr(&a) => Classification::NegatedExistential {
            pred: ScalarExpr::lit(true),
        },
        SetCmpOp::SetNe if is_empty_set_expr(&a) => Classification::Existential {
            pred: ScalarExpr::lit(true),
        },
        // x.a ∩ z = ∅ ≡ ¬∃v ∈ z (v ∈ x.a); ≠ ∅ ≡ ∃v ∈ z (v ∈ x.a) — Table 2.
        SetCmpOp::Disjoint => Classification::NegatedExistential {
            pred: ScalarExpr::set_cmp(SetCmpOp::In, v(), a),
        },
        SetCmpOp::Intersects => Classification::Existential {
            pred: ScalarExpr::set_cmp(SetCmpOp::In, v(), a),
        },
        // x.a ⊆ z (the SUBSETEQ bug predicate), x.a ⊂ z, x.a ⊃ z,
        // x.a = z, x.a ≠ z: the subquery result is needed as a whole —
        // Table 2 lists all of these as requiring grouping.
        SetCmpOp::SubsetEq
        | SetCmpOp::Subset
        | SetCmpOp::Superset
        | SetCmpOp::SetEq
        | SetCmpOp::SetNe => Classification::RequiresGrouping,
    }
}

/// Atomic-comparison rows: aggregates between query blocks.
fn classify_cmp(op: CmpOp, lhs: &ScalarExpr, rhs: &ScalarExpr, z: &str) -> Classification {
    // Normalize to `a OP H(z)` with z on the right.
    let (op, a, agg) = match (extract_agg(lhs, z), extract_agg(rhs, z)) {
        (None, Some(f)) if !lhs.mentions(z) => (op, lhs.clone(), f),
        (Some(f), None) if !rhs.mentions(z) => (op.flip(), rhs.clone(), f),
        _ => return Classification::RequiresGrouping,
    };
    let v = || ScalarExpr::var(FRESH_VAR);
    match agg {
        AggFn::Count => {
            // Only the ∅-detecting comparisons are grouping-free:
            //   count(z) = 0 ≡ ¬∃v ∈ z (true)        (Table 2)
            //   count(z) ≠ 0, count(z) > 0, count(z) ≥ 1 ≡ ∃v ∈ z (true)
            //   count(z) ≤ 0, count(z) < 1 ≡ ¬∃v ∈ z (true)
            // A genuine `x.a = count(z)` requires the cardinality — the
            // COUNT bug row of Table 2.
            let zero = ScalarExpr::lit(0i64);
            let one = ScalarExpr::lit(1i64);
            let t = ScalarExpr::lit(true);
            match (&a, op) {
                (a, CmpOp::Eq) if *a == zero => Classification::NegatedExistential { pred: t },
                (a, CmpOp::Ne) if *a == zero => Classification::Existential { pred: t },
                // 0 < count(z) / 1 ≤ count(z)
                (a, CmpOp::Lt) if *a == zero => Classification::Existential { pred: t },
                (a, CmpOp::Le) if *a == one => Classification::Existential { pred: t },
                // 0 ≥ count(z) / 1 > count(z)
                (a, CmpOp::Ge) if *a == zero => Classification::NegatedExistential { pred: t },
                (a, CmpOp::Gt) if *a == one => Classification::NegatedExistential { pred: t },
                _ => Classification::RequiresGrouping,
            }
        }
        // Extensions beyond Table 2 (sound under the model's convention
        // that MIN/MAX of ∅ is NULL, which fails every comparison — the
        // same truth table as ∃ over ∅):
        //   a < max(z)  ≡ ∃v ∈ z (a < v)      a ≤ max(z) ≡ ∃v ∈ z (a ≤ v)
        //   a > min(z)  ≡ ∃v ∈ z (a > v)      a ≥ min(z) ≡ ∃v ∈ z (a ≥ v)
        AggFn::Max => match op {
            CmpOp::Lt | CmpOp::Le => Classification::Existential {
                pred: ScalarExpr::cmp(op, a, v()),
            },
            _ => Classification::RequiresGrouping,
        },
        AggFn::Min => match op {
            CmpOp::Gt | CmpOp::Ge => Classification::Existential {
                pred: ScalarExpr::cmp(op, a, v()),
            },
            _ => Classification::RequiresGrouping,
        },
        // SUM/AVG always need the whole set.
        AggFn::Sum | AggFn::Avg => Classification::RequiresGrouping,
    }
}

/// The empty set, in either of its spellings (`Lit(∅)` from builders,
/// `SetLit([])` from the parser's `{}`).
fn is_empty_set_expr(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Lit(Value::Set(s)) => s.is_empty(),
        ScalarExpr::SetLit(items) => items.is_empty(),
        _ => false,
    }
}

/// If `e` is `H(z)` for an aggregate H directly over the variable `z`,
/// return H.
fn extract_agg(e: &ScalarExpr, z: &str) -> Option<AggFn> {
    match e {
        ScalarExpr::Agg(f, inner) if **inner == ScalarExpr::Var(z.to_string()) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;

    fn xa() -> E {
        E::path("x", &["a"])
    }

    fn zv() -> E {
        E::var("z")
    }

    // Theorem 1 (Section 7): "grouping is not necessary if the predicate
    // expression P(x, z) can be rewritten into … (1) ∃v ∈ z (P'(x, v)) or
    // (2) ¬∃v ∈ z (P'(x, v)). In this expression, P'(x, v) may be
    // arbitrary." RequiresGrouping means this rewriter found no such form,
    // not a proof that none exists.

    #[test]
    fn section8_example_predicates() {
        // P1: x.a ⊆ z and P2: y.c ⊆ z "do require grouping (see Table 2)".
        let p1 = E::set_cmp(SetCmpOp::SubsetEq, xa(), zv());
        assert_eq!(classify(&p1, "z"), Classification::RequiresGrouping);
        // "Now assume that the operators ⊆ in predicates P1 and P2 are
        // changed in ∈ and ∉ respectively, then the nest join operation in
        // (1) may be replaced by an antijoin operation, and the nest join
        // in (3) may be replaced by a semijoin operation."
        let p1_in = E::set_cmp(SetCmpOp::In, xa(), zv());
        assert!(matches!(
            classify(&p1_in, "z"),
            Classification::Existential { .. }
        ));
        let p2_notin = E::set_cmp(SetCmpOp::NotIn, E::path("y", &["c"]), zv());
        assert!(matches!(
            classify(&p2_notin, "z"),
            Classification::NegatedExistential { .. }
        ));
    }

    #[test]
    fn count_bug_predicate_needs_grouping() {
        let p = E::eq(E::path("x", &["b"]), E::agg(AggFn::Count, zv()));
        assert_eq!(classify(&p, "z"), Classification::RequiresGrouping);
    }

    #[test]
    fn arbitrary_body_allowed() {
        // ∃v ∈ z (v.age < x.limit ∧ v.name ≠ "root") — P' arbitrary.
        let body = E::and(
            E::cmp(CmpOp::Lt, E::path("v", &["age"]), E::path("x", &["limit"])),
            E::cmp(CmpOp::Ne, E::path("v", &["name"]), E::lit("root")),
        );
        let p = E::quant(Quantifier::Exists, "v", zv(), body);
        assert!(matches!(
            classify(&p, "z"),
            Classification::Existential { .. }
        ));
    }

    #[test]
    fn independent_predicate_has_no_flat_join() {
        assert_eq!(classify(&E::lit(true), "z"), Classification::Independent);
    }

    #[test]
    fn membership_is_existential() {
        let c = classify(&E::set_cmp(SetCmpOp::In, xa(), zv()), "z");
        assert_eq!(
            c,
            Classification::Existential {
                pred: E::eq(E::var(FRESH_VAR), xa())
            }
        );
        let c = classify(&E::set_cmp(SetCmpOp::NotIn, xa(), zv()), "z");
        assert!(matches!(c, Classification::NegatedExistential { .. }));
    }

    #[test]
    fn negation_flips() {
        let c = classify(&E::not(E::set_cmp(SetCmpOp::In, xa(), zv())), "z");
        assert!(matches!(c, Classification::NegatedExistential { .. }));
        let c = classify(&E::not(E::not(E::set_cmp(SetCmpOp::In, xa(), zv()))), "z");
        assert!(matches!(c, Classification::Existential { .. }));
    }

    #[test]
    fn subseteq_needs_grouping_but_superseteq_does_not() {
        // The asymmetry at the heart of Sections 4 and 7.
        let sub = classify(&E::set_cmp(SetCmpOp::SubsetEq, xa(), zv()), "z");
        assert_eq!(sub, Classification::RequiresGrouping);
        let sup = classify(&E::set_cmp(SetCmpOp::SupersetEq, xa(), zv()), "z");
        assert!(matches!(sup, Classification::NegatedExistential { .. }));
    }

    #[test]
    fn side_mirroring() {
        // z ⊇ x.a ≡ x.a ⊆ z → grouping; z ⊆ x.a ≡ x.a ⊇ z → antijoin.
        let g = classify(&E::set_cmp(SetCmpOp::SupersetEq, zv(), xa()), "z");
        assert_eq!(g, Classification::RequiresGrouping);
        let ok = classify(&E::set_cmp(SetCmpOp::SubsetEq, zv(), xa()), "z");
        assert!(matches!(ok, Classification::NegatedExistential { .. }));
    }

    #[test]
    fn z_as_element_needs_grouping() {
        // z ∈ x.a compares the whole set z.
        let c = classify(&E::set_cmp(SetCmpOp::In, zv(), xa()), "z");
        assert_eq!(c, Classification::RequiresGrouping);
    }

    #[test]
    fn emptiness_tests() {
        let c = classify(
            &E::set_cmp(SetCmpOp::SetEq, zv(), E::Lit(Value::empty_set())),
            "z",
        );
        assert_eq!(c, Classification::NegatedExistential { pred: E::lit(true) });
        let c = classify(
            &E::set_cmp(SetCmpOp::SetNe, zv(), E::Lit(Value::empty_set())),
            "z",
        );
        assert_eq!(c, Classification::Existential { pred: E::lit(true) });
        // z = {1} (non-empty literal) needs the whole set.
        let c = classify(
            &E::set_cmp(SetCmpOp::SetEq, zv(), E::SetLit(vec![E::lit(1i64)])),
            "z",
        );
        assert_eq!(c, Classification::RequiresGrouping);
    }

    #[test]
    fn count_comparisons() {
        let count = || E::agg(AggFn::Count, zv());
        // count(z) = 0 → antijoin.
        let c = classify(&E::cmp(CmpOp::Eq, count(), E::lit(0i64)), "z");
        assert_eq!(c, Classification::NegatedExistential { pred: E::lit(true) });
        // 0 = count(z) — flipped side.
        let c = classify(&E::cmp(CmpOp::Eq, E::lit(0i64), count()), "z");
        assert_eq!(c, Classification::NegatedExistential { pred: E::lit(true) });
        // count(z) > 0 → semijoin.
        let c = classify(&E::cmp(CmpOp::Gt, count(), E::lit(0i64)), "z");
        assert_eq!(c, Classification::Existential { pred: E::lit(true) });
        // count(z) ≥ 1 → semijoin (flip handling: 1 ≤ count(z)).
        let c = classify(&E::cmp(CmpOp::Ge, count(), E::lit(1i64)), "z");
        assert_eq!(c, Classification::Existential { pred: E::lit(true) });
        // The COUNT bug row: x.a = count(z) needs grouping.
        let c = classify(&E::cmp(CmpOp::Eq, xa(), count()), "z");
        assert_eq!(c, Classification::RequiresGrouping);
    }

    #[test]
    fn min_max_extensions() {
        let maxz = E::agg(AggFn::Max, zv());
        let c = classify(&E::cmp(CmpOp::Lt, xa(), maxz.clone()), "z");
        assert_eq!(
            c,
            Classification::Existential {
                pred: E::cmp(CmpOp::Lt, xa(), E::var(FRESH_VAR))
            }
        );
        // max(z) > x.a flips to x.a < max(z).
        let c = classify(&E::cmp(CmpOp::Gt, maxz.clone(), xa()), "z");
        assert!(matches!(c, Classification::Existential { .. }));
        // x.a = max(z) genuinely needs the whole set.
        let c = classify(&E::cmp(CmpOp::Eq, xa(), maxz), "z");
        assert_eq!(c, Classification::RequiresGrouping);
        let minz = E::agg(AggFn::Min, zv());
        let c = classify(&E::cmp(CmpOp::Gt, xa(), minz), "z");
        assert!(matches!(c, Classification::Existential { .. }));
        // SUM is never scannable.
        let c = classify(&E::cmp(CmpOp::Lt, xa(), E::agg(AggFn::Sum, zv())), "z");
        assert_eq!(c, Classification::RequiresGrouping);
    }

    #[test]
    fn quantifier_forms_pass_through() {
        // ∃s ∈ z (s = x.a) — already Theorem 1 form, arbitrary body allowed.
        let q = E::quant(Quantifier::Exists, "s", zv(), E::eq(E::var("s"), xa()));
        let c = classify(&q, "z");
        let Classification::Existential { pred } = c else {
            panic!("existential expected")
        };
        assert!(pred.mentions(FRESH_VAR));
        assert!(!pred.mentions("s"), "bound var must be renamed");
        // ∀s ∈ z (s ≠ x.a) ≡ ¬∃s ∈ z (s = x.a).
        let q = E::quant(
            Quantifier::Forall,
            "s",
            zv(),
            E::cmp(CmpOp::Ne, E::var("s"), xa()),
        );
        assert!(matches!(
            classify(&q, "z"),
            Classification::NegatedExistential { .. }
        ));
    }

    #[test]
    fn independent_predicate() {
        assert_eq!(
            classify(&E::eq(xa(), E::lit(1i64)), "z"),
            Classification::Independent
        );
    }

    #[test]
    fn disjunction_with_z_is_conservative() {
        let p = E::or(
            E::eq(xa(), E::lit(1i64)),
            E::set_cmp(SetCmpOp::In, xa(), zv()),
        );
        assert_eq!(classify(&p, "z"), Classification::RequiresGrouping);
    }

    #[test]
    fn split_on_z_partitions_conjuncts() {
        let p = E::and(
            E::eq(xa(), E::lit(1i64)),
            E::set_cmp(SetCmpOp::In, E::path("x", &["b"]), zv()),
        );
        let (zpart, rest) = split_on_z(&p, "z");
        assert!(zpart.unwrap().mentions("z"));
        assert_eq!(rest.len(), 1);
        // No z at all.
        let t = E::lit(true);
        let (zpart, rest) = split_on_z(&t, "z");
        assert!(zpart.is_none());
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn double_z_mention_requires_grouping() {
        // count(z) = count(z): silly, but must not misclassify.
        let c = classify(
            &E::cmp(
                CmpOp::Eq,
                E::agg(AggFn::Count, zv()),
                E::agg(AggFn::Count, zv()),
            ),
            "z",
        );
        assert_eq!(c, Classification::RequiresGrouping);
    }

    #[test]
    fn intersection_tests() {
        let c = classify(&E::set_cmp(SetCmpOp::Disjoint, xa(), zv()), "z");
        assert!(matches!(c, Classification::NegatedExistential { .. }));
        let c = classify(&E::set_cmp(SetCmpOp::Intersects, zv(), xa()), "z");
        assert!(matches!(c, Classification::Existential { .. }));
    }
}
