//! Physical plans: logical operators annotated with implementation choice.
//!
//! A [`PhysPlan`] is pure description; [`crate::op::operator::build`]
//! turns it into the streaming operator tree that actually executes. The
//! `op_label` names here match the operator labels in the executed
//! profile so `EXPLAIN` output lines up before and after execution.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use tmql_algebra::{AggFn, ScalarExpr, SetOpKind};

/// What a join produces — shared across the nested-loop, hash, and
/// sort-merge implementations. The `Nest` variant is the paper's Δ: the
/// *same* matching machinery, but emitting one output row per left row with
/// the matches collected into a set (and ∅ for dangling rows).
#[derive(Debug, Clone, PartialEq)]
pub enum JoinKind {
    /// Regular join: concatenated matching pairs.
    Inner,
    /// Semijoin ⋉: left rows with a match.
    Semi,
    /// Antijoin ▷: left rows without a match.
    Anti,
    /// Left outerjoin ⟕: dangling left rows NULL-extended on the right
    /// variables (listed here so the executor knows what to bind).
    LeftOuter {
        /// Variables of the right operand to NULL-bind for dangling rows
        /// (interned here, once per plan: a dangling row allocates no label).
        right_vars: Vec<Arc<str>>,
    },
    /// Nest join Δ: left row extended with the set of `func` images of
    /// matching right rows under `label`.
    Nest {
        /// Join function G(x, y).
        func: ScalarExpr,
        /// Output label for the nested set (interned once per plan).
        label: Arc<str>,
    },
}

impl JoinKind {
    /// The output variables of a join of this kind, from its operands'.
    fn output_vars(&self, mut left: Vec<String>, right: Vec<String>) -> Vec<String> {
        match self {
            JoinKind::Inner | JoinKind::LeftOuter { .. } => left.extend(right),
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Nest { label, .. } => left.push(label.to_string()),
        }
        left
    }

    /// Short name for explain output.
    pub fn name(&self) -> &'static str {
        match self {
            JoinKind::Inner => "join",
            JoinKind::Semi => "semijoin",
            JoinKind::Anti => "antijoin",
            JoinKind::LeftOuter { .. } => "outerjoin",
            JoinKind::Nest { .. } => "nestjoin",
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
    /// Nested-loop implementation of any [`JoinKind`]; the universal
    /// fallback for arbitrary predicates.
    NlJoin {
        /// Left (outer loop) operand.
        left: Box<PhysPlan>,
        /// Right (inner loop) operand.
        right: Box<PhysPlan>,
        /// Full join predicate.
        pred: ScalarExpr,
        /// Output shape.
        kind: JoinKind,
    },
    /// Hash implementation for equi-predicates: build on the right
    /// operand, probe with the left. For `JoinKind::Nest` the right side
    /// **must** be the build side — the paper's implementation restriction
    /// ("only the right join operand may be the build table", Section 6).
    HashJoin {
        /// Probe side.
        left: Box<PhysPlan>,
        /// Build side.
        right: Box<PhysPlan>,
        /// Key expressions over left variables (same length as
        /// `right_keys`).
        left_keys: Vec<ScalarExpr>,
        /// Key expressions over right variables.
        right_keys: Vec<ScalarExpr>,
        /// Residual non-equi predicate, if any.
        residual: Option<ScalarExpr>,
        /// Output shape.
        kind: JoinKind,
    },
    /// Index nested-loop join: for each left row, evaluate `key` and
    /// probe the index on `right_table.attr` for candidate inner rows,
    /// then run them through the same match/emit machinery as `NlJoin`
    /// (`pred` is the full join predicate, re-checked per candidate).
    /// Supports every [`JoinKind`], so semi/anti set-membership rewrites
    /// become per-row index probes.
    IndexNLJoin {
        /// Outer operand.
        left: Box<PhysPlan>,
        /// Inner stored table (probed, never scanned).
        right_table: String,
        /// Inner binding variable.
        right_var: String,
        /// Indexed attribute on the inner table.
        attr: String,
        /// Key expression over left variables.
        key: ScalarExpr,
        /// Full join predicate, re-evaluated per candidate pair.
        pred: ScalarExpr,
        /// Output shape.
        kind: JoinKind,
    },
    /// Sort-merge implementation for equi-predicates. For
    /// `JoinKind::Nest`, merging on sorted left keys emits each left
    /// group's matches contiguously, so grouping is free.
    MergeJoin {
        /// Left operand.
        left: Box<PhysPlan>,
        /// Right operand.
        right: Box<PhysPlan>,
        /// Key expressions over left variables.
        left_keys: Vec<ScalarExpr>,
        /// Key expressions over right variables.
        right_keys: Vec<ScalarExpr>,
        /// Residual non-equi predicate, if any.
        residual: Option<ScalarExpr>,
        /// Output shape.
        kind: JoinKind,
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
            PhysPlan::IndexNLJoin {
                right_table,
                attr,
                kind,
                ..
            } => format!("IndexNLJoin[{}]({right_table}.{attr})", kind.name()),
            PhysPlan::ScanExpr { .. } => "ScanExpr".into(),
            PhysPlan::Filter { .. } => "Filter".into(),
            PhysPlan::Map { .. } => "Map".into(),
            PhysPlan::Extend { .. } => "Extend".into(),
            PhysPlan::Project { .. } => "Project".into(),
            PhysPlan::NlJoin { kind, .. } => format!("NlJoin[{}]", kind.name()),
            PhysPlan::HashJoin { kind, .. } => format!("HashJoin[{}]", kind.name()),
            PhysPlan::MergeJoin { kind, .. } => format!("MergeJoin[{}]", kind.name()),
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
            PhysPlan::IndexNLJoin { left, .. } => vec![left],
            PhysPlan::Filter { input, .. }
            | PhysPlan::Map { input, .. }
            | PhysPlan::Extend { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Nest { input, .. }
            | PhysPlan::Unnest { input, .. }
            | PhysPlan::GroupAgg { input, .. } => vec![input],
            PhysPlan::NlJoin { left, right, .. }
            | PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::MergeJoin { left, right, .. }
            | PhysPlan::SetOp { left, right, .. } => vec![left, right],
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
            P::IndexNLJoin {
                left,
                right_var,
                kind,
                ..
            } => return kind.output_vars(left.output_vars(), vec![right_var.clone()]),
            P::NlJoin {
                left, right, kind, ..
            }
            | P::HashJoin {
                left, right, kind, ..
            }
            | P::MergeJoin {
                left, right, kind, ..
            } => return kind.output_vars(left.output_vars(), right.output_vars()),
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
            P::NlJoin { left, kind, .. }
            | P::HashJoin { left, kind, .. }
            | P::MergeJoin { left, kind, .. }
            | P::IndexNLJoin { left, kind, .. }
                if matches!(kind, JoinKind::Semi | JoinKind::Anti) =>
            {
                left.row_var()
            }
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
        let p = PhysPlan::HashJoin {
            left: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
                pred: None,
            }),
            right: Box::new(PhysPlan::ScanTable {
                table: "Y".into(),
                var: "y".into(),
                pred: None,
            }),
            left_keys: vec![E::path("x", &["b"])],
            right_keys: vec![E::path("y", &["b"])],
            residual: None,
            kind: JoinKind::Nest {
                func: E::var("y"),
                label: "ys".into(),
            },
        };
        let s = p.explain();
        assert!(s.contains("HashJoin[nestjoin]"), "{s}");
        assert!(s.contains("Scan(X)"), "{s}");
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
        let join = PhysPlan::IndexNLJoin {
            left: Box::new(scan),
            right_table: "S".into(),
            right_var: "s".into(),
            attr: "b".into(),
            key: E::path("r", &["a"]),
            pred: E::lit(true),
            kind: JoinKind::Semi,
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
        assert_eq!(
            JoinKind::LeftOuter { right_vars: vec![] }.name(),
            "outerjoin"
        );
    }
}
