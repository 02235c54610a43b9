//! Physical plans: logical operators annotated with implementation choice.
//!
//! A join keeps its logical [`JoinKind`] and adds the [`JoinPath`] the
//! cost model picked for it: one `PhysPlan::Join` node for every kind and
//! every algorithm. A [`PhysPlan`] is pure description; [`crate::op::operator::build`]
//! turns it into the streaming operator tree that actually executes. The
//! `op_label` names here match the operator labels in the executed
//! profile so `EXPLAIN` output lines up before and after execution.

use std::fmt;
use std::ops::Bound;

use tmql_algebra::{AggFn, JoinKind, ScalarExpr, SetOpKind};

use crate::planner::EquiSplit;

/// How a [`PhysPlan::Join`] reaches and matches its right side: the path
/// the cost model priced and lowering picked. Every path implements every
/// [`JoinKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum JoinPath {
    /// Nested loop: the right operand is buffered and `pred` is tested on
    /// every pair — the universal fallback for arbitrary predicates.
    NestedLoop {
        /// Right (inner loop) operand.
        right: Box<PhysPlan>,
        /// Full join predicate.
        pred: ScalarExpr,
    },
    /// Index nested loop: for each left row, evaluate `key` and probe the
    /// index on `table.attr` for candidate rows, each bound to `var` and
    /// re-checked against the full `pred`. The stored table is probed,
    /// never scanned, so semi/anti set-membership rewrites become per-row
    /// index probes.
    Index {
        /// Probed stored table.
        table: String,
        /// Binding variable of its rows.
        var: String,
        /// Indexed attribute.
        attr: String,
        /// Key expression over left variables.
        key: ScalarExpr,
        /// Full join predicate, re-evaluated per candidate pair.
        pred: ScalarExpr,
    },
    /// Hash: build on the right operand, probe with the left, on the
    /// equi-key pairs plus residual of `keys`. For the nest join the right
    /// side **must** be the build side — the paper's implementation
    /// restriction ("only the right join operand may be the build table",
    /// Section 6).
    Hash {
        /// Build side.
        right: Box<PhysPlan>,
        /// Key pairs and residual.
        keys: EquiSplit,
    },
    /// Sort-merge on `keys`. Merging on sorted left keys emits each left
    /// group's matches contiguously, so the nest join's grouping is free.
    SortMerge {
        /// Right operand.
        right: Box<PhysPlan>,
        /// Key pairs and residual.
        keys: EquiSplit,
    },
}

impl JoinPath {
    /// The right operand, unless the path probes a stored table instead.
    pub fn right(&self) -> Option<&PhysPlan> {
        match self {
            JoinPath::NestedLoop { right, .. }
            | JoinPath::Hash { right, .. }
            | JoinPath::SortMerge { right, .. } => Some(right),
            JoinPath::Index { .. } => None,
        }
    }

    /// The variables the right side binds.
    pub fn right_vars(&self) -> Vec<String> {
        match self {
            JoinPath::Index { var, .. } => vec![var.clone()],
            JoinPath::NestedLoop { right, .. }
            | JoinPath::Hash { right, .. }
            | JoinPath::SortMerge { right, .. } => right.output_vars(),
        }
    }
}

/// A physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Scan of a stored table, with the selection directly over it (if
    /// any) fused in: the scan hands storage a **pre-test** built from the
    /// leading `var.attr ⟨cmp⟩ key` conjuncts of `pred`, so a row those
    /// reject is never materialized, and re-evaluates the whole `pred` on
    /// every row that survives — a candidate superset, the same contract
    /// `IndexScan` has.
    ScanTable {
        /// Table name.
        table: String,
        /// Binding variable.
        var: String,
        /// Full selection predicate over `var` (`None`: every row).
        pred: Option<ScalarExpr>,
    },
    /// Probe a secondary index on `table.attr` instead of scanning: an
    /// equality key and/or range bounds (constant expressions) select a
    /// **candidate superset** of row positions, fetched in ascending
    /// position order; `pred` is the full original predicate, re-checked
    /// against every candidate, so the probe can over-approximate (NULL
    /// attributes sort below a range, `pred` may hold more than the
    /// indexed conjuncts) but never changes results.
    IndexScan {
        /// Table name.
        table: String,
        /// Binding variable.
        var: String,
        /// Indexed attribute.
        attr: String,
        /// Equality key expression (constant w.r.t. the scan), if any.
        eq: Option<ScalarExpr>,
        /// Lower bound: inclusive for `≥`, strict for `>`.
        lo: Bound<ScalarExpr>,
        /// Upper bound: inclusive for `≤`, strict for `<`.
        hi: Bound<ScalarExpr>,
        /// Full selection predicate, re-evaluated per candidate row.
        pred: ScalarExpr,
    },
    /// Iterate a set expression (correlated or constant).
    ScanExpr {
        /// Set expression.
        expr: ScalarExpr,
        /// Binding variable.
        var: String,
    },
    /// Filter.
    Filter {
        /// Input.
        input: Box<PhysPlan>,
        /// Predicate.
        pred: ScalarExpr,
    },
    /// Generalized projection to a single binding (dedups).
    Map {
        /// Input.
        input: Box<PhysPlan>,
        /// Expression.
        expr: ScalarExpr,
        /// Output variable.
        var: String,
    },
    /// Add a binding.
    Extend {
        /// Input.
        input: Box<PhysPlan>,
        /// Expression.
        expr: ScalarExpr,
        /// New variable.
        var: String,
    },
    /// Keep a subset of variables (dedups).
    Project {
        /// Input.
        input: Box<PhysPlan>,
        /// Variables kept.
        vars: Vec<String>,
    },
    /// A member of the join family, implemented by `path`, with the
    /// selection directly over it (if any) fused in, as `ScanTable` fuses
    /// its own: `select` filters the join's **output rows**, decided on
    /// each row's bindings before the row is built, so the join never
    /// builds a row the selection drops. It is never part of the join
    /// predicate — that would change what ⟕ and Δ answer for a dangling
    /// row.
    Join {
        /// What a left row emits.
        kind: JoinKind,
        /// Left (outer, probe) operand.
        left: Box<PhysPlan>,
        /// How the right side is reached and matched.
        path: JoinPath,
        /// Selection over the join's output rows (`None`: every row).
        select: Option<ScalarExpr>,
    },
    /// ν / ν* grouping.
    Nest {
        /// Input.
        input: Box<PhysPlan>,
        /// Group keys (variables).
        keys: Vec<String>,
        /// Payload expression.
        value: ScalarExpr,
        /// Nested-set label.
        label: String,
        /// ν* NULL-elision.
        star: bool,
    },
    /// μ unnest.
    Unnest {
        /// Input.
        input: Box<PhysPlan>,
        /// Set expression to flatten.
        expr: ScalarExpr,
        /// Element variable.
        elem_var: String,
        /// Variables dropped after flattening.
        drop_vars: Vec<String>,
    },
    /// Hash GROUP BY with aggregates.
    GroupAgg {
        /// Input.
        input: Box<PhysPlan>,
        /// Key label/expression pairs.
        keys: Vec<(String, ScalarExpr)>,
        /// Aggregate label/function/argument triples.
        aggs: Vec<(String, AggFn, ScalarExpr)>,
        /// Output variable.
        var: String,
    },
    /// Correlated apply — a true nested loop over subquery executions; the
    /// paper's baseline. The executor builds the inner operator tree
    /// **once** and re-opens it per outer row (operator reuse), and
    /// memoizes completed inner result sets by the evaluated binding
    /// values, so the inner plan runs once per *distinct* binding.
    Apply {
        /// Outer plan.
        input: Box<PhysPlan>,
        /// Inner (correlated) plan.
        subquery: Box<PhysPlan>,
        /// Label bound to the subquery result set.
        label: String,
        /// Correlation-binding key expressions the inner result depends
        /// on, which key the cache; empty marks an invariant subquery (a
        /// single cached execution answers every row).
        bindings: Vec<ScalarExpr>,
    },
    /// Set operation on output values.
    SetOp {
        /// Operation.
        kind: SetOpKind,
        /// Left operand.
        left: Box<PhysPlan>,
        /// Right operand.
        right: Box<PhysPlan>,
        /// Output variable.
        var: String,
    },
}

impl PhysPlan {
    /// Operator label (with algorithm) for explain output.
    pub(crate) fn op_label(&self) -> String {
        match self {
            PhysPlan::ScanTable {
                table, pred: None, ..
            } => format!("Scan({table})"),
            PhysPlan::ScanTable { table, .. } => format!("Scan({table})[σ]"),
            PhysPlan::IndexScan { table, attr, .. } => format!("IndexScan({table}.{attr})"),
            PhysPlan::ScanExpr { .. } => "ScanExpr".into(),
            PhysPlan::Filter { .. } => "Filter".into(),
            PhysPlan::Map { .. } => "Map".into(),
            PhysPlan::Extend { .. } => "Extend".into(),
            PhysPlan::Project { .. } => "Project".into(),
            PhysPlan::Join {
                kind, path, select, ..
            } => {
                let kind = kind.name();
                let label = match path {
                    JoinPath::NestedLoop { .. } => format!("NlJoin[{kind}]"),
                    JoinPath::Index { table, attr, .. } => {
                        format!("IndexNLJoin[{kind}]({table}.{attr})")
                    }
                    JoinPath::Hash { .. } => format!("HashJoin[{kind}]"),
                    JoinPath::SortMerge { .. } => format!("MergeJoin[{kind}]"),
                };
                match select {
                    None => label,
                    Some(_) => label + "[σ]",
                }
            }
            PhysPlan::Nest { star, .. } => if *star { "Nest[ν*]" } else { "Nest[ν]" }.into(),
            PhysPlan::Unnest { .. } => "Unnest".into(),
            PhysPlan::GroupAgg { .. } => "GroupAgg".into(),
            PhysPlan::Apply { bindings, .. } if bindings.is_empty() => "Apply[once]".into(),
            PhysPlan::Apply { .. } => "Apply[memo]".into(),
            PhysPlan::SetOp { .. } => "SetOp".into(),
        }
    }

    /// Children, left to right.
    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::ScanTable { .. } | PhysPlan::IndexScan { .. } | PhysPlan::ScanExpr { .. } => {
                vec![]
            }
            PhysPlan::Join { left, path, .. } => {
                std::iter::once(&**left).chain(path.right()).collect()
            }
            PhysPlan::Filter { input, .. }
            | PhysPlan::Map { input, .. }
            | PhysPlan::Extend { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Nest { input, .. }
            | PhysPlan::Unnest { input, .. }
            | PhysPlan::GroupAgg { input, .. } => vec![input],
            PhysPlan::SetOp { left, right, .. } => vec![left, right],
            PhysPlan::Apply {
                input, subquery, ..
            } => vec![input, subquery],
        }
    }

    /// The variables bound in this plan's output rows, in order — the
    /// physical mirror of [`tmql_algebra::Plan::output_vars`].
    pub fn output_vars(&self) -> Vec<String> {
        use std::slice::from_ref;
        use PhysPlan as P;
        // Each operator: the variables it passes on, then those it adds.
        let (mut vars, added): (Vec<String>, &[String]) = match self {
            P::ScanTable { var, .. }
            | P::IndexScan { var, .. }
            | P::ScanExpr { var, .. }
            | P::Map { var, .. }
            | P::GroupAgg { var, .. }
            | P::SetOp { var, .. } => (vec![], from_ref(var)),
            P::Filter { input, .. } => (input.output_vars(), &[]),
            P::Extend { input, var, .. } => (input.output_vars(), from_ref(var)),
            P::Project { vars, .. } => (vec![], vars),
            P::Nest { keys, label, .. } => (keys.clone(), from_ref(label)),
            P::Apply { input, label, .. } => (input.output_vars(), from_ref(label)),
            P::Unnest {
                input,
                elem_var,
                drop_vars,
                ..
            } => {
                let mut vars = input.output_vars();
                vars.retain(|v| !drop_vars.contains(v));
                (vars, from_ref(elem_var))
            }
            P::Join {
                kind, left, path, ..
            } => return kind.output_vars(left.output_vars(), path.right_vars()),
        };
        vars.extend_from_slice(added);
        vars
    }

    /// What a row of this plan's output is: `Some(var)` when it is a stored
    /// tuple itself, bound to `var` by the plan alone — a table or index
    /// access path, and whatever passes such rows on unchanged (σ, the
    /// semi/anti kind of every join) — and `None` when it is a record of
    /// bindings, one field per [output variable](PhysPlan::output_vars).
    pub(crate) fn row_var(&self) -> Option<&str> {
        use PhysPlan as P;
        match self {
            P::ScanTable { var, .. } | P::IndexScan { var, .. } => Some(var),
            P::Filter { input, .. } => input.row_var(),
            P::Join {
                kind: JoinKind::Semi | JoinKind::Anti,
                left,
                ..
            } => left.row_var(),
            _ => None,
        }
    }

    /// Indented explain rendering.
    pub fn explain(&self) -> String {
        fn go(p: &PhysPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&p.op_label());
            out.push('\n');
            for c in p.children() {
                go(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;

    #[test]
    fn explain_shows_algorithms() {
        let p = PhysPlan::Join {
            kind: JoinKind::Nest {
                func: E::var("y"),
                label: "ys".into(),
            },
            left: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            path: JoinPath::Hash {
                right: Box::new(PhysPlan::ScanTable {
                    table: "Y".into(),
                    var: "y".into(),
                    pred: None,
                }),
                keys: EquiSplit {
                    left_keys: vec![E::path("x", &["b"])],
                    right_keys: vec![E::path("y", &["b"])],
                    residual: None,
                },
            },
            select: None,
        };
        let s = p.explain();
        assert!(s.contains("HashJoin[nestjoin]"), "{s}");
        assert!(s.contains("Scan(X)"), "{s}");
        // A fused selection shows on the join's own line, as on a scan's.
        let PhysPlan::Join {
            kind, left, path, ..
        } = p
        else {
            unreachable!()
        };
        let select = Some(E::lit(true));
        let fused = PhysPlan::Join {
            kind,
            left,
            path,
            select,
        };
        assert_eq!(
            fused.explain().lines().next(),
            Some("HashJoin[nestjoin][σ]")
        );
        assert_eq!(fused.children().len(), 2);
    }

    #[test]
    fn index_ops_label_table_and_attr() {
        let scan = PhysPlan::IndexScan {
            table: "R".into(),
            var: "r".into(),
            attr: "a".into(),
            eq: Some(E::lit(3i64)),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            pred: E::lit(true),
        };
        assert_eq!(scan.op_label(), "IndexScan(R.a)");
        // A fused selection shows on the scan's own line.
        let fused = PhysPlan::ScanTable {
            table: "R".into(),
            var: "r".into(),
            pred: Some(E::lit(true)),
        };
        assert_eq!(fused.op_label(), "Scan(R)[σ]");
        assert!(fused.children().is_empty());
        assert!(scan.children().is_empty());
        let join = PhysPlan::Join {
            kind: JoinKind::Semi,
            left: Box::new(scan),
            path: JoinPath::Index {
                table: "S".into(),
                var: "s".into(),
                attr: "b".into(),
                key: E::path("r", &["a"]),
                pred: E::lit(true),
            },
            select: None,
        };
        assert_eq!(join.op_label(), "IndexNLJoin[semijoin](S.b)");
        assert_eq!(join.children().len(), 1, "the probed inner is no child");
    }

    #[test]
    fn apply_labels_show_the_caching_decision() {
        let scan = |t: &str, v: &str| {
            Box::new(PhysPlan::ScanTable {
                table: t.into(),
                var: v.into(),
                pred: None,
            })
        };
        let apply = |bindings: Vec<ScalarExpr>| PhysPlan::Apply {
            input: scan("X", "x"),
            subquery: scan("Y", "y"),
            label: "z".into(),
            bindings,
        };
        assert_eq!(apply(vec![]).op_label(), "Apply[once]");
        assert_eq!(apply(vec![E::path("x", &["b"])]).op_label(), "Apply[memo]");
    }

    #[test]
    fn join_kind_names() {
        assert_eq!(JoinKind::Inner.name(), "join");
        assert_eq!(JoinKind::Semi.name(), "semijoin");
        assert_eq!(JoinKind::Anti.name(), "antijoin");
        assert_eq!(JoinKind::LeftOuter.name(), "outerjoin");
    }
}
