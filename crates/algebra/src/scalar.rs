//! The scalar expression language used inside algebra operators.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

pub use tmql_model::CmpOp;
use tmql_model::Value;

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Binary set-to-set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetBinOp {
    /// `∪`
    Union,
    /// `∩`
    Intersect,
    /// `\`
    Difference,
}

/// Set comparison predicates — the forms of Section 4.1 / Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetCmpOp {
    /// `a ∈ s`
    In,
    /// `a ∉ s`
    NotIn,
    /// `a ⊆ s`
    SubsetEq,
    /// `a ⊂ s`
    Subset,
    /// `a ⊇ s`
    SupersetEq,
    /// `a ⊃ s`
    Superset,
    /// `a = s` (set equality)
    SetEq,
    /// `a ≠ s`
    SetNe,
    /// `a ∩ s = ∅`
    Disjoint,
    /// `a ∩ s ≠ ∅`
    Intersects,
}

/// Aggregate functions `H` in predicates `x.a OP H(z)` (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Cardinality; total even on ∅ — the root of the COUNT bug.
    Count,
    /// Sum (0 on ∅).
    Sum,
    /// Minimum (undefined on ∅).
    Min,
    /// Maximum (undefined on ∅).
    Max,
    /// Average (undefined on ∅).
    Avg,
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFn::Count => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
            AggFn::Avg => "AVG",
        };
        write!(f, "{s}")
    }
}

/// Bounded quantifiers over set values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `∃ v ∈ s (p)`
    Exists,
    /// `∀ v ∈ s (p)`
    Forall,
}

/// A scalar expression evaluated against an environment of variable
/// bindings. Predicates are scalar expressions of boolean type.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Literal value.
    Lit(Value),
    /// Variable reference (an iteration variable such as `x`).
    Var(String),
    /// Tuple field access `e.label`.
    Field(Box<ScalarExpr>, String),
    /// Comparison of atomic values.
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Negation.
    Not(Box<ScalarExpr>),
    /// Binary set operator (∪ ∩ \).
    SetBin(SetBinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Set comparison predicate (∈ ⊆ …).
    SetCmp(SetCmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Aggregate application `H(s)`.
    Agg(AggFn, Box<ScalarExpr>),
    /// Tuple construction `(a = e1, b = e2)`.
    Tuple(Vec<(Arc<str>, ScalarExpr)>),
    /// Set construction `{e1, e2, …}` (duplicates collapse).
    SetLit(Vec<ScalarExpr>),
    /// Bounded quantifier `Q v ∈ s (p)`; binds `v` inside `p`.
    Quant {
        /// ∃ or ∀.
        q: Quantifier,
        /// Bound variable.
        var: Arc<str>,
        /// Set expression ranged over.
        over: Box<ScalarExpr>,
        /// Body predicate.
        pred: Box<ScalarExpr>,
    },
    /// `UNNEST(s)`: collapse a set of sets (Section 5).
    Unnest(Box<ScalarExpr>),
    /// `IS NULL` test — for the relational (Ganski–Wong) baseline only.
    IsNull(Box<ScalarExpr>),
}

impl ScalarExpr {
    /// Variable reference.
    pub fn var(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Var(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Lit(v.into())
    }

    /// Dotted path `var.f1.f2…`.
    pub fn path(var: impl Into<String>, fields: &[&str]) -> ScalarExpr {
        let mut e = ScalarExpr::var(var);
        for f in fields {
            e = ScalarExpr::Field(Box::new(e), f.to_string());
        }
        e
    }

    /// Field access.
    pub fn field(self, label: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Field(Box::new(self), label.into())
    }

    /// Comparison builder.
    pub fn cmp(op: CmpOp, lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Equality shorthand.
    pub fn eq(lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        Self::cmp(CmpOp::Eq, lhs, rhs)
    }

    /// Conjunction shorthand.
    pub fn and(lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::And(Box::new(lhs), Box::new(rhs))
    }

    /// Disjunction shorthand.
    pub fn or(lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Or(Box::new(lhs), Box::new(rhs))
    }

    /// Negation shorthand.
    #[allow(clippy::should_implement_trait)] // domain term, takes by value
    pub fn not(e: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Not(Box::new(e))
    }

    /// Set-comparison builder.
    pub fn set_cmp(op: SetCmpOp, lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::SetCmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Aggregate builder.
    pub fn agg(f: AggFn, e: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Agg(f, Box::new(e))
    }

    /// Quantifier builder.
    pub fn quant(
        q: Quantifier,
        var: impl Into<Arc<str>>,
        over: ScalarExpr,
        pred: ScalarExpr,
    ) -> ScalarExpr {
        ScalarExpr::Quant {
            q,
            var: var.into(),
            over: Box::new(over),
            pred: Box::new(pred),
        }
    }

    /// Conjunction of many terms (`true` for the empty list).
    pub fn conj(terms: impl IntoIterator<Item = ScalarExpr>) -> ScalarExpr {
        let mut it = terms.into_iter();
        match it.next() {
            None => ScalarExpr::Lit(Value::Bool(true)),
            Some(first) => it.fold(first, ScalarExpr::and),
        }
    }

    /// The top-level conjuncts, left to right (the inverse of
    /// [`ScalarExpr::conj`] for a non-empty list).
    pub fn conjuncts(&self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other.clone()],
        }
    }

    /// Free variables: variables referenced but not bound by an enclosing
    /// quantifier. This is the analysis that detects correlated subqueries
    /// ("subqueries in which free variables occur", Section 3.2).
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.add_free_vars(&mut out);
        out
    }

    /// Add the free variables to `out`, allocating only for new names.
    pub(crate) fn add_free_vars(&self, out: &mut BTreeSet<String>) {
        self.free_refs(|v, _| {
            if !out.contains(v) {
                out.insert(v.to_owned());
            }
        });
    }

    /// Report every free reference, left to right, with its variable: a
    /// bare `v`, or the outermost field path `v.f` when `v` is read through
    /// one (`v.f.g` reports `v.f`). A quantifier's variable is bound in its
    /// body, so references to it there are not reported.
    pub fn free_refs<'a>(&'a self, mut f: impl FnMut(&'a str, &'a ScalarExpr)) {
        self.free_refs_under(&mut Vec::new(), &mut f);
    }

    fn free_refs_under<'a>(
        &'a self,
        bound: &mut Vec<&'a str>,
        f: &mut impl FnMut(&'a str, &'a ScalarExpr),
    ) {
        use ScalarExpr as E;
        let mut report = |v: &'a String, e: &'a ScalarExpr| {
            if !bound.contains(&v.as_str()) {
                f(v, e);
            }
        };
        match self {
            E::Var(v) => report(v, self),
            E::Field(inner, _) => match &**inner {
                E::Var(v) => report(v, self),
                other => other.free_refs_under(bound, f),
            },
            E::Quant {
                var, over, pred, ..
            } => {
                over.free_refs_under(bound, f);
                bound.push(var);
                pred.free_refs_under(bound, f);
                bound.pop();
            }
            _ => self.for_each_child(|c| c.free_refs_under(bound, f)),
        }
    }

    /// Visit each direct subexpression in [`ScalarExpr::map_children`]
    /// order: left to right, a quantifier's `over` before its body.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a ScalarExpr)) {
        use ScalarExpr as E;
        match self {
            E::Lit(_) | E::Var(_) => {}
            E::Field(e, _) | E::Not(e) | E::Agg(_, e) | E::Unnest(e) | E::IsNull(e) => f(e),
            E::Cmp(_, x, y)
            | E::Arith(_, x, y)
            | E::And(x, y)
            | E::Or(x, y)
            | E::SetBin(_, x, y)
            | E::SetCmp(_, x, y)
            | E::Quant {
                over: x, pred: y, ..
            } => {
                f(x);
                f(y);
            }
            E::Tuple(fs) => fs.iter().for_each(|(_, e)| f(e)),
            E::SetLit(es) => es.iter().for_each(f),
        }
    }

    /// True iff `var` occurs free in the expression.
    pub fn mentions(&self, var: &str) -> bool {
        self.free_vars().contains(var)
    }

    /// The same node over `f(child)` for each direct subexpression, left to
    /// right (a quantifier's `over`, then its body). Leaves are cloned.
    pub fn map_children(&self, f: &mut impl FnMut(&ScalarExpr) -> ScalarExpr) -> ScalarExpr {
        use ScalarExpr as E;
        let mut b = |e: &ScalarExpr| Box::new(f(e));
        match self {
            E::Lit(_) | E::Var(_) => self.clone(),
            E::Field(e, l) => E::Field(b(e), l.clone()),
            E::Not(e) => E::Not(b(e)),
            E::Agg(h, e) => E::Agg(*h, b(e)),
            E::Unnest(e) => E::Unnest(b(e)),
            E::IsNull(e) => E::IsNull(b(e)),
            E::Cmp(op, x, y) => E::Cmp(*op, b(x), b(y)),
            E::Arith(op, x, y) => E::Arith(*op, b(x), b(y)),
            E::And(x, y) => E::And(b(x), b(y)),
            E::Or(x, y) => E::Or(b(x), b(y)),
            E::SetBin(op, x, y) => E::SetBin(*op, b(x), b(y)),
            E::SetCmp(op, x, y) => E::SetCmp(*op, b(x), b(y)),
            E::Tuple(fs) => E::Tuple(fs.iter().map(|(l, e)| (l.clone(), f(e))).collect()),
            E::SetLit(es) => E::SetLit(es.iter().map(f).collect()),
            E::Quant { q, var, over, pred } => E::Quant {
                q: *q,
                var: var.clone(),
                over: b(over),
                pred: b(pred),
            },
        }
    }

    /// Substitute every free occurrence of variable `var` by `replacement`.
    /// Quantifier bindings shadow as expected.
    pub fn substitute(&self, var: &str, replacement: &ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Var(v) if v == var => replacement.clone(),
            // The quantifier rebinds `var`: only its range is in scope.
            ScalarExpr::Quant {
                q,
                var: bound,
                over,
                pred,
            } if &**bound == var => ScalarExpr::Quant {
                q: *q,
                var: bound.clone(),
                over: Box::new(over.substitute(var, replacement)),
                pred: pred.clone(),
            },
            _ => self.map_children(&mut |e| e.substitute(var, replacement)),
        }
    }
}

impl fmt::Display for SetCmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SetCmpOp::In => "∈",
            SetCmpOp::NotIn => "∉",
            SetCmpOp::SubsetEq => "⊆",
            SetCmpOp::Subset => "⊂",
            SetCmpOp::SupersetEq => "⊇",
            SetCmpOp::Superset => "⊃",
            SetCmpOp::SetEq => "=",
            SetCmpOp::SetNe => "≠",
            SetCmpOp::Disjoint => "∩=∅",
            SetCmpOp::Intersects => "∩≠∅",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Lit(v) => write!(f, "{v}"),
            ScalarExpr::Var(v) => write!(f, "{v}"),
            ScalarExpr::Field(e, l) => write!(f, "{e}.{l}"),
            ScalarExpr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            ScalarExpr::Arith(op, a, b) => {
                let s = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                write!(f, "({a} {s} {b})")
            }
            ScalarExpr::And(a, b) => write!(f, "({a} ∧ {b})"),
            ScalarExpr::Or(a, b) => write!(f, "({a} ∨ {b})"),
            ScalarExpr::Not(e) => write!(f, "¬{e}"),
            ScalarExpr::SetBin(op, a, b) => {
                let s = match op {
                    SetBinOp::Union => "∪",
                    SetBinOp::Intersect => "∩",
                    SetBinOp::Difference => "\\",
                };
                write!(f, "({a} {s} {b})")
            }
            ScalarExpr::SetCmp(op, a, b) => match op {
                SetCmpOp::Disjoint => write!(f, "({a} ∩ {b} = ∅)"),
                SetCmpOp::Intersects => write!(f, "({a} ∩ {b} ≠ ∅)"),
                _ => write!(f, "({a} {op} {b})"),
            },
            ScalarExpr::Agg(fun, e) => write!(f, "{fun}({e})"),
            ScalarExpr::Tuple(fs) => {
                write!(f, "(")?;
                for (i, (l, e)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l} = {e}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::SetLit(es) => {
                write!(f, "{{")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            ScalarExpr::Quant { q, var, over, pred } => {
                let s = match q {
                    Quantifier::Exists => "∃",
                    Quantifier::Forall => "∀",
                };
                write!(f, "{s}{var} ∈ {over} ({pred})")
            }
            ScalarExpr::Unnest(e) => write!(f, "UNNEST({e})"),
            ScalarExpr::IsNull(e) => write!(f, "({e} IS NULL)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_quantifier_binding() {
        // ∃v ∈ z (v = x.a): free = {z, x}
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::var("z"),
            ScalarExpr::eq(ScalarExpr::var("v"), ScalarExpr::path("x", &["a"])),
        );
        let fv = e.free_vars();
        assert_eq!(
            fv.into_iter().collect::<Vec<_>>(),
            vec!["x".to_string(), "z".to_string()]
        );
    }

    #[test]
    fn shadowed_var_stays_bound() {
        // ∃x ∈ s (x = 1) — x is bound, s free.
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "x",
            ScalarExpr::var("s"),
            ScalarExpr::eq(ScalarExpr::var("x"), ScalarExpr::lit(1i64)),
        );
        assert!(!e.mentions("x"));
        assert!(e.mentions("s"));
    }

    #[test]
    fn substitute_respects_shadowing() {
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::var("z"),
            ScalarExpr::eq(ScalarExpr::var("v"), ScalarExpr::var("w")),
        );
        let sub = e.substitute("w", &ScalarExpr::lit(7i64));
        assert!(!sub.mentions("w"));
        // Substituting the bound name is a no-op inside the body.
        let sub2 = e.substitute("v", &ScalarExpr::lit(7i64));
        assert_eq!(sub2, e);
    }

    #[test]
    fn cmp_op_algebra() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn conj_of_empty_is_true() {
        assert_eq!(ScalarExpr::conj([]), ScalarExpr::Lit(Value::Bool(true)));
    }

    #[test]
    fn display_paper_predicate() {
        // x.a ⊆ z prints recognizably.
        let e = ScalarExpr::set_cmp(
            SetCmpOp::SubsetEq,
            ScalarExpr::path("x", &["a"]),
            ScalarExpr::var("z"),
        );
        assert_eq!(e.to_string(), "(x.a ⊆ z)");
    }
}
