//! The translation algorithm.

use std::collections::BTreeSet;
use std::fmt;

use tmql_algebra::{Plan, ScalarExpr, SetCmpOp, SetOpKind};
use tmql_lang::ast::{Expr, FromItem};
use tmql_lang::token::Span;

/// A translation error with source location.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateError {
    /// Message.
    pub message: String,
    /// Source span.
    pub span: Span,
}

impl TranslateError {
    fn new(message: impl Into<String>, span: Span) -> TranslateError {
        TranslateError {
            message: message.into(),
            span,
        }
    }

    /// Render with line/column against the source.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        format!("translation error at {line}:{col}: {}", self.message)
    }
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.message)
    }
}

impl std::error::Error for TranslateError {}

/// Translate a parsed query into a logical plan. `extensions` are the
/// known class extension (table) names.
pub fn translate_query(expr: &Expr, extensions: &BTreeSet<String>) -> Result<Plan, TranslateError> {
    Translator::new(extensions).query(expr)
}

/// The stateful translator (fresh-name counter + scope stack).
pub(crate) struct Translator<'a> {
    extensions: &'a BTreeSet<String>,
    scope: Vec<String>,
    counter: usize,
}

impl<'a> Translator<'a> {
    /// Create a translator over the given extension names.
    pub fn new(extensions: &'a BTreeSet<String>) -> Translator<'a> {
        Translator {
            extensions,
            scope: Vec::new(),
            counter: 0,
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}#{}", self.counter)
    }

    fn in_scope(&self, name: &str) -> bool {
        self.scope.iter().any(|v| v == name)
    }

    /// Translate a top-level query expression.
    pub fn query(&mut self, expr: &Expr) -> Result<Plan, TranslateError> {
        match expr {
            Expr::Sfw { .. } => Ok(self.sfw(expr)?.0),
            // Top-level UNNEST(query): plan-level μ, in the shape the
            // Section 5 collapse rule recognizes.
            Expr::Unnest(inner, _) if matches!(**inner, Expr::Sfw { .. }) => {
                let (sub, mvar) = self.sfw(inner)?;
                let elem = self.fresh("u");
                Ok(Plan::Unnest {
                    input: Box::new(sub),
                    expr: ScalarExpr::var(&mvar),
                    elem_var: elem,
                    drop_vars: vec![mvar],
                })
            }
            // Top-level set operations between queries.
            Expr::SetBin(op, a, b)
                if matches!(**a, Expr::Sfw { .. } | Expr::SetBin(..))
                    && matches!(**b, Expr::Sfw { .. } | Expr::SetBin(..)) =>
            {
                let left = self.query(a)?;
                let right = self.query(b)?;
                let kind = match op {
                    tmql_algebra::SetBinOp::Union => SetOpKind::Union,
                    tmql_algebra::SetBinOp::Intersect => SetOpKind::Intersect,
                    tmql_algebra::SetBinOp::Difference => SetOpKind::Except,
                };
                let var = self.fresh("q");
                Ok(Plan::SetOp {
                    kind,
                    left: Box::new(left),
                    right: Box::new(right),
                    var,
                })
            }
            // A constant scalar expression as a query: a one-row plan.
            other => {
                let mut applies = Vec::new();
                let scalar = self.to_scalar(other, &mut applies)?;
                let var = self.fresh("q");
                if applies.is_empty() {
                    return Ok(Plan::ScanExpr {
                        expr: ScalarExpr::SetLit(vec![scalar]),
                        var,
                    });
                }
                // Constant subqueries inside the expression (rare path,
                // e.g. the bare query `COUNT((SELECT …))`): bind them with
                // Applys around a one-row scan, then project the value.
                let unit_var = self.fresh("q");
                let mut plan = Plan::ScanExpr {
                    expr: ScalarExpr::SetLit(vec![ScalarExpr::lit(0i64)]),
                    var: unit_var,
                };
                for (label, sub) in applies {
                    plan = plan.apply(sub, label);
                }
                Ok(plan.map(scalar, var))
            }
        }
    }

    /// Translate an SFW block into `Map(select) ∘ Select(where) ∘ FROM`,
    /// and name the variable the `Map` binds.
    fn sfw(&mut self, expr: &Expr) -> Result<(Plan, String), TranslateError> {
        let Expr::Sfw {
            select,
            from,
            where_clause,
            with_bindings,
            span,
        } = expr
        else {
            return Err(TranslateError::new("expected an SFW block", expr.span()));
        };
        let Some((first, rest)) = from.split_first() else {
            return Err(TranslateError::new("a block needs a FROM item", *span));
        };
        let depth = self.scope.len();
        let result = self.sfw_inner(select, first, rest, where_clause.as_deref(), with_bindings);
        self.scope.truncate(depth);
        result
    }

    fn sfw_inner(
        &mut self,
        select: &Expr,
        first: &FromItem,
        rest: &[FromItem],
        where_clause: Option<&Expr>,
        with_bindings: &[(String, Expr)],
    ) -> Result<(Plan, String), TranslateError> {
        // FROM items, left to right.
        let mut plan = self.from_operand(&first.operand, &first.var)?;
        self.scope.push(first.var.clone());
        for item in rest {
            let item_plan = self.from_operand(&item.operand, &item.var)?;
            plan = if item_plan.free_vars().is_empty() {
                // Independent table: cartesian product (the flat "join
                // query" format of Section 4).
                plan.join(item_plan, ScalarExpr::lit(true))
            } else {
                // Depends on earlier FROM variables: iterate per row. For a
                // ScanExpr this is exactly μ.
                match item_plan {
                    Plan::ScanExpr { expr, var } => Plan::Unnest {
                        input: Box::new(plan),
                        expr,
                        elem_var: var,
                        drop_vars: vec![],
                    },
                    other => {
                        // Correlated derived table: Apply + μ.
                        let label = self.fresh("z");
                        Plan::Unnest {
                            input: Box::new(plan.apply(other, label.clone())),
                            expr: ScalarExpr::var(&label),
                            elem_var: item.var.clone(),
                            drop_vars: vec![label],
                        }
                    }
                }
            };
            self.scope.push(item.var.clone());
        }

        // WITH bindings (the paper's local definitions, Section 4): a
        // subquery binding becomes an Apply with the user's label — i.e.
        // `WITH z = (SELECT …)` is *literally* the canonical nested shape;
        // a plain expression becomes an Extend.
        for (var, e) in with_bindings {
            match e {
                Expr::Sfw { .. } => {
                    let (sub, _) = self.sfw(e)?;
                    plan = plan.apply(sub, var.clone());
                }
                other => {
                    let mut applies = Vec::new();
                    let scalar = self.to_scalar(other, &mut applies)?;
                    for (label, sub) in applies {
                        plan = plan.apply(sub, label);
                    }
                    plan = plan.extend(scalar, var.clone());
                }
            }
            self.scope.push(var.clone());
        }

        // WHERE clause: extract subqueries as Applys *under* the Select.
        if let Some(w) = where_clause {
            let mut applies = Vec::new();
            let pred = self.to_scalar(w, &mut applies)?;
            for (label, sub) in applies {
                plan = plan.apply(sub, label);
            }
            plan = plan.select(pred);
        }

        // SELECT clause: subqueries become Applys above the Select (bare
        // Applys — SELECT-clause nesting, Section 5).
        let mut applies = Vec::new();
        let out = self.to_scalar(select, &mut applies)?;
        for (label, sub) in applies {
            plan = plan.apply(sub, label);
        }
        let var = self.fresh("q");
        Ok((plan.map(out, var.clone()), var))
    }

    /// Translate one FROM operand binding `var`.
    #[allow(clippy::wrong_self_convention)] // "from" = the FROM clause, not a conversion
    fn from_operand(&mut self, operand: &Expr, var: &str) -> Result<Plan, TranslateError> {
        match operand {
            // An extension name not shadowed by an iteration variable.
            Expr::Var(name, _) if !self.in_scope(name) && self.extensions.contains(name) => {
                Ok(Plan::scan(name, var))
            }
            Expr::Var(name, span) if !self.in_scope(name) => Err(TranslateError::new(
                format!("unknown extension or variable `{name}` in FROM"),
                *span,
            )),
            // A derived table: rebind the subquery's output variable.
            Expr::Sfw { .. } => {
                let (sub, out) = self.sfw(operand)?;
                Ok(sub.map(ScalarExpr::var(&out), var))
            }
            // Any set-valued expression (`d.emps`, `{1,2}`, `a UNION b`…).
            other => {
                if other.has_subquery() {
                    return Err(TranslateError::new(
                        "subquery inside a FROM operand expression is not supported; \
                         use FROM (SELECT …) v instead",
                        other.span(),
                    ));
                }
                let mut no_applies = Vec::new();
                let scalar = self.to_scalar(other, &mut no_applies)?;
                debug_assert!(no_applies.is_empty());
                Ok(Plan::ScanExpr {
                    expr: scalar,
                    var: var.to_string(),
                })
            }
        }
    }

    /// Convert an AST expression to a scalar expression, extracting every
    /// nested SFW block (and extension-as-value reference) into `applies`
    /// as `(label, plan)` pairs and replacing it with `Var(label)`.
    #[allow(clippy::wrong_self_convention)] // "to" = lowering direction, not a conversion
    fn to_scalar(
        &mut self,
        expr: &Expr,
        applies: &mut Vec<(String, Plan)>,
    ) -> Result<ScalarExpr, TranslateError> {
        Ok(match expr {
            Expr::Int(i, _) => ScalarExpr::lit(*i),
            Expr::Float(x, _) => ScalarExpr::lit(*x),
            Expr::Str(s, _) => ScalarExpr::lit(s.as_str()),
            Expr::Bool(b, _) => ScalarExpr::lit(*b),
            Expr::Var(name, span) => {
                if self.in_scope(name) {
                    ScalarExpr::var(name)
                } else if self.extensions.contains(name) {
                    // Extension used as a set value: a constant subquery.
                    let label = self.fresh("z");
                    let v = self.fresh("q");
                    let plan = Plan::scan(name, &v).map(ScalarExpr::var(&v), self.fresh("q"));
                    applies.push((label.clone(), plan));
                    ScalarExpr::var(&label)
                } else {
                    return Err(TranslateError::new(
                        format!("unbound variable `{name}`"),
                        *span,
                    ));
                }
            }
            Expr::Field(base, label, _) => {
                ScalarExpr::Field(Box::new(self.to_scalar(base, applies)?), label.clone())
            }
            Expr::Cmp(op, a, b) => {
                // `=`/`<>` between syntactically set-valued operands is
                // set (in)equality — required so `z = {}` classifies per
                // Table 2.
                if matches!(op, tmql_algebra::CmpOp::Eq | tmql_algebra::CmpOp::Ne)
                    && (is_setish(a) || is_setish(b))
                {
                    let sop = if matches!(op, tmql_algebra::CmpOp::Eq) {
                        SetCmpOp::SetEq
                    } else {
                        SetCmpOp::SetNe
                    };
                    return Ok(ScalarExpr::set_cmp(
                        sop,
                        self.to_scalar(a, applies)?,
                        self.to_scalar(b, applies)?,
                    ));
                }
                ScalarExpr::cmp(
                    *op,
                    self.to_scalar(a, applies)?,
                    self.to_scalar(b, applies)?,
                )
            }
            Expr::SetCmp(op, a, b) => ScalarExpr::set_cmp(
                *op,
                self.to_scalar(a, applies)?,
                self.to_scalar(b, applies)?,
            ),
            Expr::Arith(op, a, b) => ScalarExpr::Arith(
                *op,
                Box::new(self.to_scalar(a, applies)?),
                Box::new(self.to_scalar(b, applies)?),
            ),
            Expr::SetBin(op, a, b) => ScalarExpr::SetBin(
                *op,
                Box::new(self.to_scalar(a, applies)?),
                Box::new(self.to_scalar(b, applies)?),
            ),
            Expr::And(a, b) => {
                ScalarExpr::and(self.to_scalar(a, applies)?, self.to_scalar(b, applies)?)
            }
            Expr::Or(a, b) => {
                ScalarExpr::or(self.to_scalar(a, applies)?, self.to_scalar(b, applies)?)
            }
            Expr::Not(e) => ScalarExpr::not(self.to_scalar(e, applies)?),
            Expr::Agg(f, e, _) => ScalarExpr::agg(*f, self.to_scalar(e, applies)?),
            Expr::Quant {
                q, var, over, pred, ..
            } => {
                let over_s = self.to_scalar(over, applies)?;
                self.scope.push(var.clone());
                let pred_s = self.to_scalar(pred, applies);
                self.scope.pop();
                ScalarExpr::quant(*q, var.clone(), over_s, pred_s?)
            }
            Expr::TupleLit(fields, _) => {
                let mut out = Vec::with_capacity(fields.len());
                for (l, e) in fields {
                    out.push((l.as_str().into(), self.to_scalar(e, applies)?));
                }
                ScalarExpr::Tuple(out)
            }
            Expr::SetLit(items, _) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.to_scalar(e, applies)?);
                }
                ScalarExpr::SetLit(out)
            }
            Expr::Unnest(e, _) => ScalarExpr::Unnest(Box::new(self.to_scalar(e, applies)?)),
            Expr::Sfw { .. } => {
                // The heart of the translation: a nested SFW becomes a
                // fresh Apply label (correlated nested-loop semantics;
                // the optimizer will unnest it).
                let (sub, _) = self.sfw(expr)?;
                let label = self.fresh("z");
                applies.push((label.clone(), sub));
                ScalarExpr::var(&label)
            }
        })
    }
}

/// Syntactic set-ness (for `=`/`<>` disambiguation).
fn is_setish(e: &Expr) -> bool {
    matches!(
        e,
        Expr::SetLit(..) | Expr::Sfw { .. } | Expr::SetBin(..) | Expr::Unnest(..)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_lang::parse_query;

    fn exts() -> BTreeSet<String> {
        ["X", "Y", "Z", "R", "S", "EMP", "DEPT"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn translate(src: &str) -> Plan {
        let ast = parse_query(src).expect("parses");
        translate_query(&ast, &exts()).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn flat_query_shape() {
        let p = translate("SELECT x.a FROM X x WHERE x.b = 3");
        let Plan::Map { input, .. } = p else {
            panic!("map root")
        };
        let Plan::Select { input, .. } = *input else {
            panic!("select")
        };
        assert!(matches!(*input, Plan::ScanTable { .. }));
    }

    #[test]
    fn where_subquery_becomes_apply_under_select() {
        let p = translate("SELECT x FROM X x WHERE x.b IN (SELECT y.a FROM Y y WHERE x.b = y.b)");
        let Plan::Map { input, .. } = p else {
            panic!("map root")
        };
        let Plan::Select { input, pred } = *input else {
            panic!("select")
        };
        assert!(pred.mentions("z#2"), "{pred}");
        let Plan::Apply {
            input,
            subquery,
            label,
        } = *input
        else {
            panic!("apply")
        };
        assert_eq!(label, "z#2");
        assert!(matches!(*input, Plan::ScanTable { .. }));
        // Canonical subquery shape: Map(Select(Scan)).
        let Plan::Map { input: si, .. } = *subquery else {
            panic!("sub map")
        };
        assert!(matches!(*si, Plan::Select { .. }));
    }

    #[test]
    fn select_subquery_becomes_bare_apply() {
        let p = translate(
            "SELECT (dname = d.name, es = (SELECT e FROM EMP e WHERE e.sal > 0)) FROM DEPT d",
        );
        let Plan::Map { input, .. } = p else {
            panic!("map root")
        };
        assert!(
            matches!(*input, Plan::Apply { .. }),
            "bare apply for SELECT nesting"
        );
    }

    #[test]
    fn set_valued_attribute_from_is_unnest() {
        let p = translate("SELECT c.name FROM EMP e, e.children c");
        assert!(p.any_node(&mut |n| matches!(n, Plan::Unnest { .. })));
        assert!(!p.has_apply());
    }

    #[test]
    fn two_tables_cartesian() {
        let p = translate("SELECT (a = x.a, b = y.b) FROM X x, Y y WHERE x.b = y.b");
        assert!(p.any_node(&mut |n| matches!(
            n,
            Plan::Join {
                kind: tmql_algebra::JoinKind::Inner,
                pred: ScalarExpr::Lit(tmql_model::Value::Bool(true)),
                ..
            }
        )));
    }

    #[test]
    fn unnest_query_shape_collapsible() {
        let p = translate("UNNEST(SELECT (SELECT y.b FROM Y y WHERE x.b = y.a) FROM X x)");
        let Plan::Unnest { .. } = &p else {
            panic!("unnest root")
        };
        // The core rule must fire on this exact shape.
        let collapsed = tmql_core::rules::unnest_collapse(&p).expect("collapse fires");
        assert!(!collapsed.has_apply());
    }

    #[test]
    fn empty_set_comparison_is_set_eq() {
        let p = translate("SELECT x FROM X x WHERE (SELECT y.a FROM Y y WHERE x.b = y.b) = {}");
        let has_set_eq = p.any_node(&mut |n| {
            matches!(n, Plan::Select { pred, .. }
                if matches!(pred, ScalarExpr::SetCmp(SetCmpOp::SetEq, ..)))
        });
        assert!(has_set_eq, "{p}");
    }

    #[test]
    fn extension_as_value() {
        let p = translate("SELECT x FROM X x WHERE COUNT(Y) = x.b");
        assert!(p.has_apply());
    }

    #[test]
    fn union_of_queries() {
        let p = translate("(SELECT x.a FROM X x) UNION (SELECT y.a FROM Y y)");
        assert!(matches!(
            p,
            Plan::SetOp {
                kind: SetOpKind::Union,
                ..
            }
        ));
    }

    #[test]
    fn derived_table_in_from() {
        let p = translate("SELECT v FROM (SELECT x.a FROM X x) v WHERE v > 1");
        assert!(!p.has_apply());
        assert!(p.any_node(&mut |n| matches!(n, Plan::Map { var, .. } if var == "v")));
    }

    #[test]
    fn errors_located() {
        let ast = parse_query("SELECT q FROM X x").unwrap();
        let err = translate_query(&ast, &exts()).unwrap_err();
        assert!(err.message.contains("unbound"), "{err:?}");
        let ast = parse_query("SELECT x FROM NOPE x").unwrap();
        let err = translate_query(&ast, &exts()).unwrap_err();
        assert!(err.message.contains("unknown extension"), "{err:?}");
        let ast = parse_query("SELECT c FROM EMP e, (SELECT k FROM (SELECT e2 FROM EMP e2) k) c")
            .unwrap();
        assert!(translate_query(&ast, &exts()).is_ok());
    }

    #[test]
    fn a_block_without_from_is_an_error_not_a_panic() {
        // The parser never builds one; a hand-built AST can.
        let span = tmql_lang::token::Span::new(3, 9);
        let empty = Expr::Sfw {
            select: Box::new(Expr::Int(1, span)),
            from: vec![],
            where_clause: None,
            with_bindings: vec![],
            span,
        };
        let err = translate_query(&empty, &exts()).unwrap_err();
        assert!(err.message.contains("FROM"), "{err:?}");
        assert_eq!(err.span, span);
        // Nested, and as a FROM operand, it fails the same way.
        let nested = Expr::Agg(tmql_algebra::AggFn::Count, Box::new(empty.clone()), span);
        assert_eq!(translate_query(&nested, &exts()).unwrap_err(), err);
        let ast = parse_query("SELECT v FROM X v").unwrap();
        let Expr::Sfw {
            select, span: s, ..
        } = ast
        else {
            panic!("a block");
        };
        let derived = Expr::Sfw {
            select,
            from: vec![FromItem {
                operand: empty,
                var: "v".into(),
                span: s,
            }],
            where_clause: None,
            with_bindings: vec![],
            span: s,
        };
        assert_eq!(translate_query(&derived, &exts()).unwrap_err(), err);
    }

    #[test]
    fn quantifier_scope_in_translation() {
        let p = translate("SELECT e FROM EMP e WHERE EXISTS c IN e.children (c.age < 10)");
        let ok = p.any_node(&mut |n| {
            matches!(n, Plan::Select { pred, .. } if matches!(pred, ScalarExpr::Quant { .. }))
        });
        assert!(ok);
    }
}
