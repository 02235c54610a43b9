//! Logical plan operators for the complex object algebra.

use std::collections::BTreeSet;
use std::fmt;

use tmql_model::{Record, Value};

pub use crate::scalar::AggFn;
use crate::scalar::ScalarExpr;

/// Set operations between plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// `∪`
    Union,
    /// `∩`
    Intersect,
    /// `\`
    Except,
}

/// What a [`Plan::Join`] emits per left row: the paper treats the join
/// family as one operator that differs only in this (Section 6).
#[derive(Debug, Clone, PartialEq)]
pub enum JoinKind {
    /// Regular join ⋈: the concatenated matching pairs.
    Inner,
    /// Semijoin ⋉: left rows with at least one matching right row.
    Semi,
    /// Antijoin ▷: left rows with no matching right row.
    Anti,
    /// Left outerjoin ⟕: like join, but dangling left rows survive with the
    /// right side's variables bound to NULL. **Relational baseline only** —
    /// the nest join makes this unnecessary in the complex object model.
    LeftOuter,
    /// The paper's **nest join** Δ: each left row is extended with
    /// `label = { func(l ++ r) | r ∈ right, pred(l ++ r) }`. Dangling left
    /// rows get `label = ∅`.
    Nest {
        /// Join function G(x, y) applied to matching right rows.
        func: ScalarExpr,
        /// Fresh label for the nested set ("an arbitrary label not occurring
        /// on the top level of X").
        label: String,
    },
}

impl JoinKind {
    /// The output variables of a join of this kind, from its operands'.
    pub fn output_vars(&self, mut left: Vec<String>, right: Vec<String>) -> Vec<String> {
        match self {
            JoinKind::Inner | JoinKind::LeftOuter => left.extend(right),
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Nest { label, .. } => left.push(label.clone()),
        }
        left
    }

    /// Short name for explain output.
    pub fn name(&self) -> &'static str {
        match self {
            JoinKind::Inner => "join",
            JoinKind::Semi => "semijoin",
            JoinKind::Anti => "antijoin",
            JoinKind::LeftOuter => "outerjoin",
            JoinKind::Nest { .. } => "nestjoin",
        }
    }
}

/// A logical plan. Rows are [`Record`]s of variable bindings; see the crate
/// docs for the representation.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a stored table (class extension), binding each tuple to `var`.
    ScanTable {
        /// Extension / table name.
        table: String,
        /// Iteration variable.
        var: String,
    },
    /// Iterate a set-valued expression (e.g. `d.emps`, or a constant set),
    /// binding each element to `var`. The expression may reference outer
    /// variables when this plan appears under an [`Plan::Apply`].
    ScanExpr {
        /// Set expression to iterate.
        expr: ScalarExpr,
        /// Iteration variable.
        var: String,
    },
    /// Selection σ.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Filter predicate over the input's variables.
        pred: ScalarExpr,
    },
    /// Generalized projection: replace each row by the single binding
    /// `var = expr(row)`. Output is deduplicated (set semantics).
    Map {
        /// Input plan.
        input: Box<Plan>,
        /// Result expression.
        expr: ScalarExpr,
        /// Output variable.
        var: String,
    },
    /// Add a binding `var = expr(row)` to every row, keeping existing ones.
    Extend {
        /// Input plan.
        input: Box<Plan>,
        /// Expression for the new binding.
        expr: ScalarExpr,
        /// New variable name.
        var: String,
    },
    /// Keep only the named variables (π). Deduplicated.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Variables to keep.
        vars: Vec<String>,
    },
    /// A member of the join family (Section 6): one predicate over two
    /// operands, with `kind` saying what a left row emits.
    Join {
        /// Which join: ⋈, ⋉, ▷, ⟕ or Δ.
        kind: JoinKind,
        /// Left operand.
        left: Box<Plan>,
        /// Right operand.
        right: Box<Plan>,
        /// Join predicate over both sides' variables (Δ's Q(x, y)).
        pred: ScalarExpr,
    },
    /// The nest operator ν (and its ν* variant): group rows by the values
    /// of `keys`, collapsing each group to one row with
    /// `label = { value(row) | row ∈ group }`.
    ///
    /// With `star = true` this is ν* of [Scholl 86] as used in Section 6:
    /// payload values stemming from NULL-extended tuples are dropped, so a
    /// group consisting only of NULL payloads yields ∅.
    Nest {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping variables (kept in the output).
        keys: Vec<String>,
        /// Payload expression collected into the nested set.
        value: ScalarExpr,
        /// Label of the nested set.
        label: String,
        /// ν* NULL-elision flag.
        star: bool,
    },
    /// Unnest μ: for each row, iterate the set bound to `set_var`'s
    /// expression and bind each element to `elem_var` (the inverse of ν).
    Unnest {
        /// Input plan.
        input: Box<Plan>,
        /// Expression yielding the set to flatten (usually a variable).
        expr: ScalarExpr,
        /// Variable bound to each element.
        elem_var: String,
        /// If true, drop the variables listed here after unnesting.
        drop_vars: Vec<String>,
    },
    /// Relational grouping with aggregates (GROUP BY) — used by the Kim and
    /// Ganski–Wong baselines (Section 2).
    GroupAgg {
        /// Input plan.
        input: Box<Plan>,
        /// Group-key expressions with output labels.
        keys: Vec<(String, ScalarExpr)>,
        /// Aggregates: output label, function, argument expression.
        /// `Count` counts rows in the group regardless of its argument.
        aggs: Vec<(String, AggFn, ScalarExpr)>,
        /// Output variable holding the (keys ++ aggs) tuple.
        var: String,
    },
    /// Correlated apply: for each input row, run `subquery` with the row's
    /// variables in scope and bind the *set* of its results to `label`.
    /// This is the direct semantics of a nested SFW expression — the
    /// paper's "nested-loop processing" baseline — and the construct every
    /// unnesting strategy tries to eliminate.
    Apply {
        /// Outer plan.
        input: Box<Plan>,
        /// Correlated inner plan.
        subquery: Box<Plan>,
        /// Label for the subquery result set.
        label: String,
    },
    /// Set operation between two plans; rows are compared by their
    /// [output value](Plan::row_output_value) and rebound to `var`.
    SetOp {
        /// Which operation.
        kind: SetOpKind,
        /// Left operand.
        left: Box<Plan>,
        /// Right operand.
        right: Box<Plan>,
        /// Output variable.
        var: String,
    },
}

impl Plan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>, var: impl Into<String>) -> Plan {
        Plan::ScanTable {
            table: table.into(),
            var: var.into(),
        }
    }

    /// Selection builder.
    pub fn select(self, pred: ScalarExpr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// Map builder.
    pub fn map(self, expr: ScalarExpr, var: impl Into<String>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            expr,
            var: var.into(),
        }
    }

    /// Extend builder.
    pub fn extend(self, expr: ScalarExpr, var: impl Into<String>) -> Plan {
        Plan::Extend {
            input: Box::new(self),
            expr,
            var: var.into(),
        }
    }

    /// Project builder.
    pub fn project(self, vars: &[&str]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            vars: vars.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Join builder: `self ⟨kind⟩_pred right`.
    pub fn join_as(self, kind: JoinKind, right: Plan, pred: ScalarExpr) -> Plan {
        Plan::Join {
            kind,
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// Join builder.
    pub fn join(self, right: Plan, pred: ScalarExpr) -> Plan {
        self.join_as(JoinKind::Inner, right, pred)
    }

    /// Semijoin builder.
    pub fn semi_join(self, right: Plan, pred: ScalarExpr) -> Plan {
        self.join_as(JoinKind::Semi, right, pred)
    }

    /// Antijoin builder.
    pub fn anti_join(self, right: Plan, pred: ScalarExpr) -> Plan {
        self.join_as(JoinKind::Anti, right, pred)
    }

    /// Left outerjoin builder.
    pub fn left_outer_join(self, right: Plan, pred: ScalarExpr) -> Plan {
        self.join_as(JoinKind::LeftOuter, right, pred)
    }

    /// Nest join builder.
    pub fn nest_join(
        self,
        right: Plan,
        pred: ScalarExpr,
        func: ScalarExpr,
        label: impl Into<String>,
    ) -> Plan {
        let label = label.into();
        self.join_as(JoinKind::Nest { func, label }, right, pred)
    }

    /// Apply builder.
    pub fn apply(self, subquery: Plan, label: impl Into<String>) -> Plan {
        Plan::Apply {
            input: Box::new(self),
            subquery: Box::new(subquery),
            label: label.into(),
        }
    }

    /// The variables bound in this plan's output rows, in order.
    pub fn output_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_output_var(&mut |v| out.push(v.to_owned()));
        out
    }

    /// True iff `var` is one of [`Plan::output_vars`], found without
    /// collecting them.
    pub fn binds(&self, var: &str) -> bool {
        let mut found = false;
        self.for_each_output_var(&mut |v| found = found || v == var);
        found
    }

    /// Visit the variables bound in this plan's output rows, in order.
    fn for_each_output_var<'a>(&'a self, f: &mut dyn FnMut(&'a str)) {
        match self {
            Plan::ScanTable { var, .. }
            | Plan::ScanExpr { var, .. }
            | Plan::Map { var, .. }
            | Plan::GroupAgg { var, .. }
            | Plan::SetOp { var, .. } => f(var),
            Plan::Select { input, .. } => input.for_each_output_var(f),
            Plan::Extend { input, var, .. }
            | Plan::Apply {
                input, label: var, ..
            } => {
                input.for_each_output_var(f);
                f(var);
            }
            Plan::Project { vars, .. } => vars.iter().for_each(|v| f(v)),
            Plan::Join {
                kind, left, right, ..
            } => {
                left.for_each_output_var(f);
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => right.for_each_output_var(f),
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Nest { label, .. } => f(label),
                }
            }
            Plan::Nest { keys, label, .. } => {
                keys.iter().for_each(|k| f(k));
                f(label);
            }
            Plan::Unnest {
                input,
                elem_var,
                drop_vars,
                ..
            } => {
                input.for_each_output_var(&mut |v| {
                    if !drop_vars.iter().any(|d| d == v) {
                        f(v)
                    }
                });
                f(elem_var);
            }
        }
    }

    /// The value a row denotes when the plan is used as a set expression
    /// (subquery result, set operand, final query result): single-variable
    /// rows unwrap to the bound value; multi-variable rows stay a tuple of
    /// bindings.
    pub fn row_output_value(row: &Record) -> Value {
        match row.fields() {
            [(_, only)] => only.clone(),
            _ => Value::Tuple(row.clone()),
        }
    }

    /// Immutable child plans, left to right.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::ScanTable { .. } | Plan::ScanExpr { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Map { input, .. }
            | Plan::Extend { input, .. }
            | Plan::Project { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::GroupAgg { input, .. } => vec![input],
            Plan::Join { left, right, .. } | Plan::SetOp { left, right, .. } => {
                vec![left, right]
            }
            Plan::Apply {
                input, subquery, ..
            } => vec![input, subquery],
        }
    }

    /// Mutable child plans, in [`Plan::children`] order.
    pub fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::ScanTable { .. } | Plan::ScanExpr { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Map { input, .. }
            | Plan::Extend { input, .. }
            | Plan::Project { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::GroupAgg { input, .. } => vec![input],
            Plan::Join { left, right, .. } | Plan::SetOp { left, right, .. } => {
                vec![left, right]
            }
            Plan::Apply {
                input, subquery, ..
            } => vec![input, subquery],
        }
    }

    /// The same operator over `f(child)` for each child, left to right.
    /// Children are moved out and back in; nothing is copied.
    pub fn map_children(mut self, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
        for child in self.children_mut() {
            // An empty scan holds no heap memory; it stands in for the
            // child while `f` owns it.
            let taken = std::mem::replace(child, Plan::scan("", ""));
            *child = f(taken);
        }
        self
    }

    /// Number of operators in the plan tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// True iff any node satisfies the predicate.
    pub fn any_node(&self, pred: &mut impl FnMut(&Plan) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        self.children().into_iter().any(|c| c.any_node(pred))
    }

    /// Count nodes satisfying a predicate.
    pub fn count_nodes(&self, pred: &mut impl FnMut(&Plan) -> bool) -> usize {
        let own = usize::from(pred(self));
        own + self
            .children()
            .into_iter()
            .map(|c| c.count_nodes(pred))
            .sum::<usize>()
    }

    /// Free variables of the plan: variables referenced by any expression
    /// in the tree that are not bound anywhere within the tree itself
    /// (scan/iteration variables, labels, quantifier variables). A plan
    /// with free variables is **correlated** — it can only run under an
    /// [`Plan::Apply`] that supplies those bindings; a closed plan can be
    /// decorrelated into a join (the precondition of every unnesting
    /// strategy).
    pub fn free_vars(&self) -> BTreeSet<String> {
        let (mut referenced, mut bound) = (BTreeSet::new(), BTreeSet::new());
        self.collect_vars(&mut referenced, &mut bound);
        referenced.difference(&bound).cloned().collect()
    }

    fn collect_vars(&self, referenced: &mut BTreeSet<String>, bound: &mut BTreeSet<String>) {
        self.for_each_expr(|e| e.add_free_vars(referenced));
        match self {
            Plan::ScanTable { var, .. }
            | Plan::ScanExpr { var, .. }
            | Plan::Map { var, .. }
            | Plan::Extend { var, .. }
            | Plan::GroupAgg { var, .. }
            | Plan::SetOp { var, .. }
            | Plan::Unnest { elem_var: var, .. }
            | Plan::Join {
                kind: JoinKind::Nest { label: var, .. },
                ..
            }
            | Plan::Apply { label: var, .. } => {
                bound.insert(var.clone());
            }
            Plan::Project { vars, .. } => referenced.extend(vars.iter().cloned()),
            Plan::Nest { keys, label, .. } => {
                referenced.extend(keys.iter().cloned());
                bound.insert(label.clone());
            }
            Plan::Select { .. } | Plan::Join { .. } => {}
        }
        for c in self.children() {
            c.collect_vars(referenced, bound);
        }
    }

    /// Visit the expressions this node itself evaluates (not its
    /// children's), in field order: a scan's set expression, a
    /// selection's or join's predicate, a nest join's predicate then
    /// function, a grouping's keys then aggregate arguments.
    pub fn for_each_expr<'a>(&'a self, mut f: impl FnMut(&'a ScalarExpr)) {
        match self {
            Plan::ScanExpr { expr, .. }
            | Plan::Map { expr, .. }
            | Plan::Extend { expr, .. }
            | Plan::Unnest { expr, .. }
            | Plan::Nest { value: expr, .. }
            | Plan::Select { pred: expr, .. } => f(expr),
            Plan::Join { kind, pred, .. } => {
                f(pred);
                if let JoinKind::Nest { func, .. } = kind {
                    f(func);
                }
            }
            Plan::GroupAgg { keys, aggs, .. } => {
                keys.iter().for_each(|(_, e)| f(e));
                aggs.iter().for_each(|(_, _, e)| f(e));
            }
            Plan::ScanTable { .. }
            | Plan::Project { .. }
            | Plan::Apply { .. }
            | Plan::SetOp { .. } => {}
        }
    }

    /// True iff the plan still contains a correlated [`Plan::Apply`] —
    /// i.e. unnesting has not (fully) happened.
    pub fn has_apply(&self) -> bool {
        self.any_node(&mut |p| matches!(p, Plan::Apply { .. }))
    }

    /// True iff the plan contains a nest join.
    pub fn has_nest_join(&self) -> bool {
        self.any_node(&mut |p| {
            matches!(
                p,
                Plan::Join {
                    kind: JoinKind::Nest { .. },
                    ..
                }
            )
        })
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::explain(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr as E;

    fn sample() -> Plan {
        Plan::scan("X", "x")
            .join(
                Plan::scan("Y", "y"),
                E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            )
            .map(E::var("x"), "out")
    }

    #[test]
    fn output_vars_compose() {
        let j = Plan::scan("X", "x").join(Plan::scan("Y", "y"), E::lit(true));
        assert_eq!(j.output_vars(), vec!["x", "y"]);
        assert_eq!(sample().output_vars(), vec!["out"]);
        let nj =
            Plan::scan("X", "x").nest_join(Plan::scan("Y", "y"), E::lit(true), E::var("y"), "ys");
        assert_eq!(nj.output_vars(), vec!["x", "ys"]);
        let semi = Plan::scan("X", "x").semi_join(Plan::scan("Y", "y"), E::lit(true));
        assert_eq!(semi.output_vars(), vec!["x"]);
    }

    #[test]
    fn unnest_output_vars_drop() {
        let u = Plan::Unnest {
            input: Box::new(Plan::scan("X", "x").apply(Plan::scan("Y", "y"), "zs")),
            expr: E::var("zs"),
            elem_var: "z".into(),
            drop_vars: vec!["zs".into()],
        };
        assert_eq!(u.output_vars(), vec!["x", "z"]);
    }

    /// `binds` answers what `output_vars` lists, for every operator.
    #[test]
    fn binds_is_membership_in_output_vars() {
        let (x, y) = (|| Plan::scan("X", "x"), || Plan::scan("Y", "y"));
        let t = || E::lit(true);
        let plans = [
            sample(),
            x().join(y(), t()).select(t()),
            x().semi_join(y(), t()),
            x().anti_join(y(), t()),
            x().left_outer_join(y(), t()),
            x().nest_join(y(), t(), E::var("y"), "ys"),
            x().extend(E::var("x"), "e").project(&["e"]),
            x().apply(y(), "zs").extend(E::var("zs"), "e"),
            Plan::Unnest {
                input: Box::new(x().apply(y(), "zs")),
                expr: E::var("zs"),
                elem_var: "z".into(),
                drop_vars: vec!["zs".into()],
            },
            Plan::Nest {
                input: Box::new(x().join(y(), t())),
                keys: vec!["x".into()],
                value: E::var("y"),
                label: "ys".into(),
                star: false,
            },
            Plan::GroupAgg {
                input: Box::new(x()),
                keys: vec![],
                aggs: vec![],
                var: "g".into(),
            },
            Plan::ScanExpr {
                expr: E::path("x", &["a"]),
                var: "a".into(),
            },
        ];
        for plan in plans {
            let vars = plan.output_vars();
            for v in ["x", "y", "e", "zs", "z", "ys", "out", "g", "a", ""] {
                assert_eq!(plan.binds(v), vars.iter().any(|o| o == v), "{v} in {plan}");
            }
        }
    }

    #[test]
    fn row_output_value_unwraps_singletons() {
        let mut r = Record::empty();
        r.push("x", Value::Int(1)).unwrap();
        assert_eq!(Plan::row_output_value(&r), Value::Int(1));
        r.push("y", Value::Int(2)).unwrap();
        assert_eq!(Plan::row_output_value(&r), Value::Tuple(r.clone()));
    }

    #[test]
    fn free_vars_detect_correlation() {
        // Subquery SELECT y.c FROM Y y WHERE x.b = y.b: `x` is free.
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["c"]), "v");
        let fv = sub.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec!["x".to_string()]);
        // The full Apply is closed.
        let full = Plan::scan("X", "x").apply(
            Plan::scan("Y", "y")
                .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
                .map(E::path("y", &["c"]), "v"),
            "z",
        );
        assert!(full.free_vars().is_empty());
    }

    #[test]
    fn scan_expr_over_attribute_is_correlated() {
        // FROM d.emps e — references outer d.
        let p = Plan::ScanExpr {
            expr: E::path("d", &["emps"]),
            var: "e".into(),
        };
        assert!(p.free_vars().contains("d"));
    }

    #[test]
    fn tree_queries() {
        let p = sample();
        assert_eq!(p.size(), 4);
        assert!(!p.has_apply());
        let a = Plan::scan("X", "x").apply(Plan::scan("Y", "y"), "z");
        assert!(a.has_apply());
        assert_eq!(
            a.count_nodes(&mut |n| matches!(n, Plan::ScanTable { .. })),
            2
        );
    }
}
