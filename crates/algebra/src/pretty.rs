//! `EXPLAIN`-style rendering of logical plans.

use std::fmt::Write as _;

use crate::plan::{JoinKind, Plan, SetOpKind};

/// Render a plan as an indented operator tree, one operator per line, using
/// the paper's operator symbols where they exist (⋈ ⋉ ▷ ⟕ Δ ν μ σ π).
pub fn explain(plan: &Plan) -> String {
    explain_annotated(plan, &mut |_| None)
}

/// [`explain`] with a per-node annotation hook: whatever the callback
/// returns is appended to that operator's line as `  -- note`. The
/// facade uses this to print estimated rows next to each operator.
pub fn explain_annotated(
    plan: &Plan,
    annotate: &mut impl FnMut(&Plan) -> Option<String>,
) -> String {
    fn go(
        plan: &Plan,
        depth: usize,
        annotate: &mut impl FnMut(&Plan) -> Option<String>,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        match annotate(plan) {
            Some(note) => {
                let _ = writeln!(out, "{pad}{}  -- {note}", head(plan));
            }
            None => {
                let _ = writeln!(out, "{pad}{}", head(plan));
            }
        }
        for c in plan.children() {
            go(c, depth + 1, annotate, out);
        }
    }
    let mut out = String::new();
    go(plan, 0, annotate, &mut out);
    out
}

/// The one-line operator header (no indentation, no children).
fn head(plan: &Plan) -> String {
    match plan {
        Plan::ScanTable { table, var } => format!("Scan {table} {var}"),
        Plan::ScanExpr { expr, var } => format!("ScanExpr {expr} {var}"),
        Plan::Select { pred, .. } => format!("σ [{pred}]"),
        Plan::Map { expr, var, .. } => format!("Map [{var} := {expr}]"),
        Plan::Extend { expr, var, .. } => format!("Extend [{var} := {expr}]"),
        Plan::Project { vars, .. } => format!("π [{}]", vars.join(", ")),
        Plan::Join { kind, pred, .. } => match kind {
            JoinKind::Inner => format!("⋈ [{pred}]"),
            JoinKind::Semi => format!("⋉ semijoin [{pred}]"),
            JoinKind::Anti => format!("▷ antijoin [{pred}]"),
            JoinKind::LeftOuter => format!("⟕ outerjoin [{pred}]"),
            JoinKind::Nest { func, label } => {
                format!("Δ nestjoin [{pred}; {label} := {{{func}}}]")
            }
        },
        Plan::Nest {
            keys,
            value,
            label,
            star,
            ..
        } => {
            let star_s = if *star { "ν*" } else { "ν" };
            format!("{star_s} [by {}; {label} := {{{value}}}]", keys.join(", "))
        }
        Plan::Unnest {
            expr,
            elem_var,
            drop_vars,
            ..
        } => {
            let drop = if drop_vars.is_empty() {
                String::new()
            } else {
                format!("; drop {}", drop_vars.join(", "))
            };
            format!("μ [{elem_var} ∈ {expr}{drop}]")
        }
        Plan::GroupAgg {
            keys, aggs, var, ..
        } => {
            let ks: Vec<String> = keys.iter().map(|(l, e)| format!("{l} := {e}")).collect();
            let ags: Vec<String> = aggs
                .iter()
                .map(|(l, f, e)| format!("{l} := {f}({e})"))
                .collect();
            format!("γ [{var}: by {}; {}]", ks.join(", "), ags.join(", "))
        }
        Plan::Apply { label, .. } => format!("Apply [{label} := subquery]"),
        Plan::SetOp { kind, var, .. } => {
            let sym = match kind {
                SetOpKind::Union => "∪",
                SetOpKind::Intersect => "∩",
                SetOpKind::Except => "\\",
            };
            format!("{sym} [{var}]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr as E;

    #[test]
    fn explain_shows_structure() {
        let p = Plan::scan("X", "x")
            .nest_join(
                Plan::scan("Y", "y"),
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
                E::path("y", &["a"]),
                "ys",
            )
            .select(E::set_cmp(
                crate::scalar::SetCmpOp::SubsetEq,
                E::path("x", &["a"]),
                E::var("ys"),
            ));
        let s = explain(&p);
        assert!(s.contains("Δ nestjoin"), "{s}");
        assert!(s.contains("σ"), "{s}");
        assert!(s.contains("Scan X x"), "{s}");
        // Indentation: scans one level under the nest join.
        assert!(s.lines().any(|l| l.starts_with("    Scan X x")), "{s}");
    }

    #[test]
    fn explain_apply() {
        let p = Plan::scan("X", "x").apply(Plan::scan("Y", "y"), "z");
        let s = explain(&p);
        assert!(s.starts_with("Apply [z := subquery]"), "{s}");
    }

    #[test]
    fn annotations_attach_per_node() {
        let p = Plan::scan("X", "x").select(E::lit(true));
        let s = explain_annotated(&p, &mut |n| match n {
            Plan::ScanTable { .. } => Some("~3 rows".into()),
            _ => None,
        });
        assert!(s.contains("Scan X x  -- ~3 rows"), "{s}");
        assert!(s.lines().next().unwrap().ends_with("σ [true]"), "{s}");
    }
}
