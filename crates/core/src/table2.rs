//! The paper's **Table 2**: "Rewriting TM predicates".
//!
//! Table 2 catalogues predicate forms `P(x, z)` and their calculus
//! rewrites, separating SQL-expressible predicates (above the line) from
//! TM-specific predicates over set-valued attributes (below the line).
//! This module materializes the catalogue as data so that:
//!
//! * the classifier is tested against every row,
//! * the table itself can be regenerated (`render()`), and
//! * the differential test-suite can execute each row's predicate under
//!   every unnesting strategy.
//!
//! The machine-readable rows were reconstructed from the paper's (OCR-
//! degraded) table by semantic equivalence; each rewrite below is verified
//! executable-equivalent by the property tests in the workspace's
//! `tests/table2.rs` and in `crates/core/tests/differential.rs`.

use tmql_algebra::{AggFn, CmpOp, Quantifier, ScalarExpr, SetCmpOp};
use tmql_model::Value;

use crate::classify::{classify, Classification};

/// Whether a Table 2 row is SQL-expressible (above the separation line) or
/// TM-specific (below it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dialect {
    /// Predicates that may occur in SQL (a subset of TM).
    Sql,
    /// Predicates involving set-valued attributes — TM only.
    Tm,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Entry {
    /// Human-readable predicate form, paper notation.
    pub form: &'static str,
    /// Which language fragment the row belongs to.
    pub(crate) dialect: Dialect,
    /// The predicate, built over outer variable `x` (attribute `a`,
    /// set-valued where the form requires) and subquery variable `z`.
    pub pred: ScalarExpr,
    /// The expected classification.
    pub expected: Classification,
}

fn xa() -> ScalarExpr {
    ScalarExpr::path("x", &["a"])
}

fn z() -> ScalarExpr {
    ScalarExpr::var("z")
}

fn v() -> ScalarExpr {
    ScalarExpr::var(crate::classify::FRESH_VAR)
}

/// All rows of Table 2, in the paper's order. The rewrite column of the
/// paper maps onto [`Classification`]: `∃v ∈ z (...)` rows are
/// [`Classification::Existential`], `¬∃v ∈ z (...)` rows are
/// [`Classification::NegatedExistential`], rows without a rewrite require
/// grouping.
pub fn entries() -> Vec<Table2Entry> {
    use Classification::*;
    let t = || ScalarExpr::lit(true);
    vec![
        // ——— SQL-expressible rows ———
        Table2Entry {
            form: "z = ∅",
            dialect: Dialect::Sql,
            pred: ScalarExpr::set_cmp(SetCmpOp::SetEq, z(), ScalarExpr::Lit(Value::empty_set())),
            expected: NegatedExistential { pred: t() },
        },
        Table2Entry {
            form: "count(z) = 0",
            dialect: Dialect::Sql,
            pred: ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::agg(AggFn::Count, z()),
                ScalarExpr::lit(0i64),
            ),
            expected: NegatedExistential { pred: t() },
        },
        Table2Entry {
            form: "count(z) ≠ 0",
            dialect: Dialect::Sql,
            pred: ScalarExpr::cmp(
                CmpOp::Ne,
                ScalarExpr::agg(AggFn::Count, z()),
                ScalarExpr::lit(0i64),
            ),
            expected: Existential { pred: t() },
        },
        Table2Entry {
            form: "x.a = count(z)",
            dialect: Dialect::Sql,
            pred: ScalarExpr::cmp(CmpOp::Eq, xa(), ScalarExpr::agg(AggFn::Count, z())),
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "x.a ∈ z",
            dialect: Dialect::Sql,
            pred: ScalarExpr::set_cmp(SetCmpOp::In, xa(), z()),
            expected: Existential {
                pred: ScalarExpr::eq(v(), xa()),
            },
        },
        Table2Entry {
            form: "x.a ∉ z",
            dialect: Dialect::Sql,
            pred: ScalarExpr::set_cmp(SetCmpOp::NotIn, xa(), z()),
            expected: NegatedExistential {
                pred: ScalarExpr::eq(v(), xa()),
            },
        },
        // ——— TM-specific rows (set-valued x.a) ———
        Table2Entry {
            form: "x.a ⊆ z",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::SubsetEq, xa(), z()),
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "x.a ⊂ z",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::Subset, xa(), z()),
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "x.a ⊇ z",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::SupersetEq, xa(), z()),
            expected: NegatedExistential {
                pred: ScalarExpr::set_cmp(SetCmpOp::NotIn, v(), xa()),
            },
        },
        Table2Entry {
            form: "x.a ⊃ z",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::Superset, xa(), z()),
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "x.a = z",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::SetEq, xa(), z()),
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "x.a ≠ z",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::SetNe, xa(), z()),
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "x.a ∩ z = ∅",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::Disjoint, xa(), z()),
            expected: NegatedExistential {
                pred: ScalarExpr::set_cmp(SetCmpOp::In, v(), xa()),
            },
        },
        Table2Entry {
            form: "x.a ∩ z ≠ ∅",
            dialect: Dialect::Tm,
            pred: ScalarExpr::set_cmp(SetCmpOp::Intersects, xa(), z()),
            expected: Existential {
                pred: ScalarExpr::set_cmp(SetCmpOp::In, v(), xa()),
            },
        },
        Table2Entry {
            form: "∀w ∈ x.a (w ∈ z)",
            dialect: Dialect::Tm,
            pred: ScalarExpr::quant(
                Quantifier::Forall,
                "w",
                xa(),
                ScalarExpr::set_cmp(SetCmpOp::In, ScalarExpr::var("w"), z()),
            ),
            // ≡ x.a ⊆ z: the quantifier ranges over x.a, not z, so the
            // inner membership still needs the whole subquery result.
            expected: RequiresGrouping,
        },
        Table2Entry {
            form: "∀w ∈ x.a (w ∉ z)",
            dialect: Dialect::Tm,
            pred: ScalarExpr::quant(
                Quantifier::Forall,
                "w",
                xa(),
                ScalarExpr::set_cmp(SetCmpOp::NotIn, ScalarExpr::var("w"), z()),
            ),
            // ≡ x.a ∩ z = ∅ ≡ ¬∃v ∈ z (v ∈ x.a) — the quantified spelling
            // of disjointness, rewritten per Table 2.
            expected: NegatedExistential {
                pred: ScalarExpr::set_cmp(SetCmpOp::In, v(), xa()),
            },
        },
    ]
}

/// Render the reproduced Table 2 in the paper's two-column layout.
pub fn render() -> String {
    let rows = entries();
    let mut out = String::new();
    out.push_str(&format!("{:<22} | {}\n", "P(x, z)", "rewrite"));
    out.push_str(&format!("{:-<22}-+-{:-<40}\n", "", ""));
    let mut last_dialect = Dialect::Sql;
    for e in rows {
        if e.dialect != last_dialect {
            out.push_str(&format!("{:-<22}-+-{:-<40}\n", "", ""));
            last_dialect = e.dialect;
        }
        let rewrite = match classify(&e.pred, "z") {
            Classification::Existential { pred } => format!("∃v ∈ z ({pred})"),
            Classification::NegatedExistential { pred } => format!("¬∃v ∈ z ({pred})"),
            Classification::RequiresGrouping => "— (grouping required)".to_string(),
            Classification::Independent => "independent of z".to_string(),
        };
        out.push_str(&format!("{:<22} | {}\n", e.form, rewrite));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_classifies_as_the_paper_says() {
        for e in entries() {
            let got = classify(&e.pred, "z");
            assert_eq!(got, e.expected, "row `{}`", e.form);
        }
    }

    #[test]
    fn row_counts_and_dialect_split() {
        let rows = entries();
        assert_eq!(rows.len(), 16);
        let sql = rows.iter().filter(|e| e.dialect == Dialect::Sql).count();
        assert_eq!(sql, 6, "six SQL-expressible rows above the line");
    }

    #[test]
    fn grouping_free_rows_match_paper() {
        // Exactly these forms avoid grouping.
        let free: Vec<&str> = entries()
            .iter()
            .filter(|e| e.expected.avoids_grouping())
            .map(|e| e.form)
            .collect();
        assert_eq!(
            free,
            vec![
                "z = ∅",
                "count(z) = 0",
                "count(z) ≠ 0",
                "x.a ∈ z",
                "x.a ∉ z",
                "x.a ⊇ z",
                "x.a ∩ z = ∅",
                "x.a ∩ z ≠ ∅",
                "∀w ∈ x.a (w ∉ z)",
            ]
        );
    }

    #[test]
    fn render_contains_both_sections() {
        let s = render();
        assert!(s.contains("x.a ⊆ z"), "{s}");
        assert!(s.contains("grouping required"), "{s}");
        assert!(s.contains("∃v ∈ z"), "{s}");
    }
}
