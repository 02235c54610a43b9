//! Output-type derivation for plans and scalar expressions.
//!
//! Typing is best-effort: anything the rules cannot determine becomes
//! [`Ty::Any`]. It is used by the physical planner (e.g. to know a nest
//! join label is set-typed) and by the facade for result schema display,
//! not for rejecting programs — the language front end does full checking.

use std::collections::BTreeMap;

use tmql_model::{ModelError, Result, Ty};

use crate::plan::Plan;
use crate::scalar::{AggFn, ArithOp, ScalarExpr};

/// Source of row types for stored tables; implemented by the storage
/// catalog (kept abstract so `tmql-algebra` does not depend on storage).
pub trait TableTypes {
    /// The tuple type of one row of `table`.
    fn row_ty(&self, table: &str) -> Result<Ty>;
}

/// A var → type environment.
pub type TyEnv = BTreeMap<String, Ty>;

/// Infer the type of a scalar expression under a variable typing.
pub fn infer_scalar(expr: &ScalarExpr, vars: &TyEnv) -> Ty {
    match expr {
        ScalarExpr::Lit(v) => Ty::of(v),
        ScalarExpr::Var(n) => vars.get(n).cloned().unwrap_or(Ty::Any),
        ScalarExpr::Field(e, label) => match infer_scalar(e, vars) {
            Ty::Tuple(fs) => fs
                .into_iter()
                .find(|(l, _)| l == label)
                .map(|(_, t)| t)
                .unwrap_or(Ty::Any),
            _ => Ty::Any,
        },
        ScalarExpr::Cmp(..)
        | ScalarExpr::And(..)
        | ScalarExpr::Or(..)
        | ScalarExpr::Not(_)
        | ScalarExpr::SetCmp(..)
        | ScalarExpr::Quant { .. }
        | ScalarExpr::IsNull(_) => Ty::Bool,
        ScalarExpr::Arith(op, a, b) => {
            let (ta, tb) = (infer_scalar(a, vars), infer_scalar(b, vars));
            match (op, ta, tb) {
                (_, Ty::Float, _) | (_, _, Ty::Float) | (ArithOp::Div, Ty::Int, Ty::Int) => {
                    // Int/Int division stays Int in eval; report Int.
                    if matches!(op, ArithOp::Div) {
                        Ty::Int
                    } else {
                        Ty::Float
                    }
                }
                (_, Ty::Int, Ty::Int) => Ty::Int,
                _ => Ty::Any,
            }
        }
        ScalarExpr::SetBin(_, a, b) => {
            let ta = infer_scalar(a, vars);
            match ta {
                Ty::Set(_) => ta,
                _ => infer_scalar(b, vars),
            }
        }
        ScalarExpr::Agg(f, e) => match f {
            AggFn::Count => Ty::Int,
            AggFn::Avg => Ty::Float,
            AggFn::Sum | AggFn::Min | AggFn::Max => match infer_scalar(e, vars) {
                Ty::Set(el) => *el,
                _ => Ty::Any,
            },
        },
        ScalarExpr::Tuple(fs) => Ty::Tuple(
            fs.iter()
                .map(|(l, e)| (l.to_string(), infer_scalar(e, vars)))
                .collect(),
        ),
        ScalarExpr::SetLit(es) => {
            let el = es.first().map(|e| infer_scalar(e, vars)).unwrap_or(Ty::Any);
            Ty::Set(Box::new(el))
        }
        ScalarExpr::Unnest(e) => match infer_scalar(e, vars) {
            Ty::Set(inner) => match *inner {
                Ty::Set(_) => *inner,
                _ => Ty::Set(Box::new(Ty::Any)),
            },
            _ => Ty::Set(Box::new(Ty::Any)),
        },
    }
}

/// Derive the output variable typing of a plan. `outer` supplies types of
/// correlation variables when typing the inner plan of an `Apply`.
pub fn derive(plan: &Plan, tables: &dyn TableTypes, outer: &TyEnv) -> Result<TyEnv> {
    Ok(match plan {
        Plan::ScanTable { table, var } => {
            let mut env = TyEnv::new();
            env.insert(var.clone(), tables.row_ty(table)?);
            env
        }
        Plan::ScanExpr { expr, var } => {
            let elem = match infer_scalar(expr, outer) {
                Ty::Set(el) => *el,
                _ => Ty::Any,
            };
            let mut env = TyEnv::new();
            env.insert(var.clone(), elem);
            env
        }
        Plan::Select { input, .. } => derive(input, tables, outer)?,
        Plan::Map { input, expr, var } => {
            let mut in_env = derive(input, tables, outer)?;
            merge_outer(&mut in_env, outer);
            let t = infer_scalar(expr, &in_env);
            let mut env = TyEnv::new();
            env.insert(var.clone(), t);
            env
        }
        Plan::Extend { input, expr, var } => {
            let mut env = derive(input, tables, outer)?;
            let mut scope = env.clone();
            merge_outer(&mut scope, outer);
            env.insert(var.clone(), infer_scalar(expr, &scope));
            env
        }
        Plan::Project { input, vars } => {
            let env = derive(input, tables, outer)?;
            let mut out = TyEnv::new();
            for v in vars {
                let t = env.get(v).cloned().ok_or_else(|| {
                    ModelError::SchemaError(format!("projection references unknown variable `{v}`"))
                })?;
                out.insert(v.clone(), t);
            }
            out
        }
        Plan::Join { left, right, .. } | Plan::LeftOuterJoin { left, right, .. } => {
            let mut env = derive(left, tables, outer)?;
            env.extend(derive(right, tables, outer)?);
            env
        }
        Plan::SemiJoin { left, .. } | Plan::AntiJoin { left, .. } => derive(left, tables, outer)?,
        Plan::NestJoin {
            left,
            right,
            func,
            label,
            ..
        } => {
            let mut env = derive(left, tables, outer)?;
            let mut scope = env.clone();
            scope.extend(derive(right, tables, outer)?);
            merge_outer(&mut scope, outer);
            env.insert(label.clone(), Ty::Set(Box::new(infer_scalar(func, &scope))));
            env
        }
        Plan::Nest {
            input,
            keys,
            value,
            label,
            ..
        } => {
            let in_env = derive(input, tables, outer)?;
            let mut env = TyEnv::new();
            for k in keys {
                env.insert(k.clone(), in_env.get(k).cloned().unwrap_or(Ty::Any));
            }
            env.insert(
                label.clone(),
                Ty::Set(Box::new(infer_scalar(value, &in_env))),
            );
            env
        }
        Plan::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => {
            let mut env = derive(input, tables, outer)?;
            let elem = match infer_scalar(expr, &env) {
                Ty::Set(el) => *el,
                _ => Ty::Any,
            };
            for d in drop_vars {
                env.remove(d);
            }
            env.insert(elem_var.clone(), elem);
            env
        }
        Plan::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => {
            let mut in_env = derive(input, tables, outer)?;
            merge_outer(&mut in_env, outer);
            let mut fields = Vec::new();
            for (l, e) in keys {
                fields.push((l.clone(), infer_scalar(e, &in_env)));
            }
            for (l, f, e) in aggs {
                let t = match f {
                    AggFn::Count => Ty::Int,
                    AggFn::Avg => Ty::Float,
                    _ => infer_scalar(e, &in_env),
                };
                fields.push((l.clone(), t));
            }
            let mut env = TyEnv::new();
            env.insert(var.clone(), Ty::Tuple(fields));
            env
        }
        Plan::Apply {
            input,
            subquery,
            label,
        } => {
            let mut env = derive(input, tables, outer)?;
            let mut inner_outer = env.clone();
            merge_outer(&mut inner_outer, outer);
            let sub_env = derive(subquery, tables, &inner_outer)?;
            let elem = single_output_ty(&sub_env);
            env.insert(label.clone(), Ty::Set(Box::new(elem)));
            env
        }
        Plan::SetOp { left, var, .. } => {
            let l_env = derive(left, tables, outer)?;
            let mut env = TyEnv::new();
            env.insert(var.clone(), single_output_ty(&l_env));
            env
        }
    })
}

fn merge_outer(env: &mut TyEnv, outer: &TyEnv) {
    for (k, v) in outer {
        env.entry(k.clone()).or_insert_with(|| v.clone());
    }
}

fn single_output_ty(env: &TyEnv) -> Ty {
    if env.len() == 1 {
        env.values().next().expect("len checked").clone()
    } else {
        Ty::Tuple(env.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
    }
}

/// A [`TableTypes`] backed by a fixed map — convenient for tests.
#[derive(Debug, Default)]
pub struct StaticTables(pub BTreeMap<String, Ty>);

impl TableTypes for StaticTables {
    fn row_ty(&self, table: &str) -> Result<Ty> {
        self.0
            .get(table)
            .cloned()
            .ok_or_else(|| ModelError::SchemaError(format!("unknown table `{table}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr as E;

    fn tables() -> StaticTables {
        let mut m = BTreeMap::new();
        m.insert(
            "X".to_string(),
            Ty::Tuple(vec![
                ("a".into(), Ty::Set(Box::new(Ty::Int))),
                ("b".into(), Ty::Int),
            ]),
        );
        m.insert(
            "Y".to_string(),
            Ty::Tuple(vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)]),
        );
        StaticTables(m)
    }

    #[test]
    fn scan_and_join_types() {
        let p = Plan::scan("X", "x").join(Plan::scan("Y", "y"), E::lit(true));
        let env = derive(&p, &tables(), &TyEnv::new()).unwrap();
        assert_eq!(env["x"].field("b"), Some(&Ty::Int));
        assert_eq!(env["y"].field("a"), Some(&Ty::Int));
    }

    #[test]
    fn nest_join_label_is_set_typed() {
        let p = Plan::scan("X", "x").nest_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["a"]),
            "ys",
        );
        let env = derive(&p, &tables(), &TyEnv::new()).unwrap();
        assert_eq!(env["ys"], Ty::Set(Box::new(Ty::Int)));
    }

    #[test]
    fn apply_binds_set_of_subquery_results() {
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["a"]), "v");
        let p = Plan::scan("X", "x").apply(sub, "z");
        let env = derive(&p, &tables(), &TyEnv::new()).unwrap();
        assert_eq!(env["z"], Ty::Set(Box::new(Ty::Int)));
    }

    #[test]
    fn agg_and_scan_expr_types() {
        let vars: TyEnv = [("z".to_string(), Ty::Set(Box::new(Ty::Int)))]
            .into_iter()
            .collect();
        assert_eq!(
            infer_scalar(&E::agg(AggFn::Count, E::var("z")), &vars),
            Ty::Int
        );
        assert_eq!(
            infer_scalar(&E::agg(AggFn::Max, E::var("z")), &vars),
            Ty::Int
        );
        let p = Plan::ScanExpr {
            expr: E::var("z"),
            var: "v".into(),
        };
        let env = derive(&p, &tables(), &vars).unwrap();
        assert_eq!(env["v"], Ty::Int);
    }

    #[test]
    fn project_unknown_var_errors() {
        let p = Plan::scan("X", "x").project(&["nope"]);
        assert!(derive(&p, &tables(), &TyEnv::new()).is_err());
    }

    #[test]
    fn group_agg_tuple_type() {
        let p = Plan::GroupAgg {
            input: Box::new(Plan::scan("Y", "y")),
            keys: vec![("c".into(), E::path("y", &["b"]))],
            aggs: vec![("cnt".into(), AggFn::Count, E::var("y"))],
            var: "t".into(),
        };
        let env = derive(&p, &tables(), &TyEnv::new()).unwrap();
        let t = &env["t"];
        assert_eq!(t.field("c"), Some(&Ty::Int));
        assert_eq!(t.field("cnt"), Some(&Ty::Int));
    }
}
