//! Lowering logical plans to physical plans.
//!
//! The planner's one interesting job is the paper's motivation in
//! Section 2: once a nested query has been rewritten into a join query,
//! "the optimizer can choose the most suitable join execution method".
//! [`lower`] is one recursion over the logical plan. It drives the cost
//! model's walk ([`crate::cost`]) as it goes, so each subtree comes back
//! as its [`PhysPlan`] *and* its estimate, and every physical choice is
//! made by the function the model itself prices with:
//!
//! * **scan vs probe** — a selection directly over a stored table becomes
//!   an `IndexScan` when `Estimator::index_scan_choice` prices the probe
//!   below scan-and-filter, and otherwise a scan with the selection fused
//!   in (never a `Filter` over a `ScanTable`): its leading
//!   `var.attr ⟨cmp⟩ key` conjuncts ([`scan_pretest`]) reject rows inside
//!   storage, before they are materialized;
//! * **join path** — a logical join of any kind lowers to one
//!   [`PhysPlan::Join`] that keeps the kind. Its predicate is split into
//!   equi-key pairs `left-expr = right-expr` (each side over one
//!   operand's variables) plus a residual ([`EquiSplit`]), and
//!   `Estimator::join_path` picks the [`JoinPath`] — index nested-loop /
//!   nested-loop / hash (with its build side) / sort-merge — per the
//!   [`ExecConfig`] and the operands' estimates. A selection directly
//!   over a join is fused into it (never a `Filter` over a join): the
//!   join decides it on each output row before building the row. The
//!   choice of path does not read it.
//!
//! A correlated subquery lowers like any other plan: the `Apply` keeps
//! the inner plan these choices build, and runs it once per distinct
//! binding (`apply_bindings`, the subquery's free references), which is
//! how the model prices it.
//!
//! Lowering walks with the statement's memory budget, the estimator
//! `CostBased` ranked the logical candidates with. No budget can move a
//! physical choice: each reads only row counts and the work of a bare
//! inner scan, and a budget changes neither (it reprices breakers' work
//! and resident state only).
//!
//! The produced [`PhysPlan`] is a description only: the streaming
//! [`crate::op::operator::build`] instantiates it as an operator tree that
//! borrows the plan's expressions, so lowering once and executing many
//! times (as the benchmarks do) never re-clones the plan.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use tmql_algebra::{JoinKind, Plan, ScalarExpr};
use tmql_model::Result;
use tmql_storage::Catalog;

use crate::config::ExecConfig;
use crate::cost::{CostEstimate, Estimator, Node, PathChoice, Sides, Walk};
use crate::physical::{JoinPath, PhysPlan};

/// A join predicate split into equi-key pairs and a residual: what the
/// hash and sort-merge paths match on.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiSplit {
    /// Key expressions over the left operand's variables.
    pub left_keys: Vec<ScalarExpr>,
    /// Matching key expressions over the right operand's variables.
    pub right_keys: Vec<ScalarExpr>,
    /// Conjunction of the remaining conjuncts (None = nothing left).
    pub residual: Option<ScalarExpr>,
}

impl EquiSplit {
    /// The split as borrowed parts, the residual as one conjunct.
    pub(crate) fn parts(&self) -> KeySplit<'_> {
        KeySplit {
            keys: self.left_keys.iter().zip(&self.right_keys).collect(),
            residual: self.residual.iter().collect(),
        }
    }
}

/// A join predicate split as borrowed parts: `(left, right)` equi-key
/// pairs and the residual conjuncts, each in predicate order. The model
/// prices a join from it; lowering makes the owned [`EquiSplit`] a hash or
/// sort-merge join keeps from it.
#[derive(Debug, PartialEq)]
pub(crate) struct KeySplit<'e> {
    pub keys: Vec<(&'e ScalarExpr, &'e ScalarExpr)>,
    pub residual: Vec<&'e ScalarExpr>,
}

impl KeySplit<'_> {
    /// The owned split, the residual conjuncts conjoined left to right.
    pub(crate) fn owned(&self) -> EquiSplit {
        let (left_keys, right_keys) = self
            .keys
            .iter()
            .map(|&(l, r)| (l.clone(), r.clone()))
            .unzip();
        let residual = (!self.residual.is_empty())
            .then(|| ScalarExpr::conj(self.residual.iter().map(|&c| c.clone())));
        EquiSplit {
            left_keys,
            right_keys,
            residual,
        }
    }
}

/// Split `pred` into equi-key pairs between the operands binding the
/// variables `left` and `right` accept, plus the residual conjuncts: a
/// key is a side whose free variables are all bound by one operand (and
/// which has some). Conjuncts referencing outer (correlation) variables
/// stay in the residual.
pub(crate) fn extract_equi_keys<'e>(
    pred: &'e ScalarExpr,
    left: impl Fn(&str) -> bool,
    right: impl Fn(&str) -> bool,
) -> KeySplit<'e> {
    // Whether all of `e`'s free variables, and at least one, are bound by
    // the left operand, and by the right one.
    let sides = |e: &ScalarExpr| {
        let (mut any, mut l, mut r) = (false, true, true);
        e.free_refs(|v, _| {
            any = true;
            l = l && left(v);
            r = r && right(v);
        });
        (any && l, any && r)
    };
    let mut split = KeySplit {
        keys: vec![],
        residual: vec![],
    };
    for conj in pred.conjuncts() {
        if let ScalarExpr::Cmp(tmql_algebra::CmpOp::Eq, a, b) = conj {
            let ((a_left, a_right), (b_left, b_right)) = (sides(a), sides(b));
            // Either orientation: `left-expr = right-expr` or the reverse.
            if a_left && b_right {
                split.keys.push((a, b));
                continue;
            }
            if b_left && a_right {
                split.keys.push((b, a));
                continue;
            }
        }
        split.residual.push(conj);
    }
    split
}

/// The index-eligible component of a selection predicate over one scan:
/// conjuncts of the form `var.attr ⟨cmp⟩ constant` on an attribute that
/// carries a secondary index. Either an equality key or range bounds, each
/// as strict as its comparison (`<` and `>` probe exclusively).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSel {
    /// The indexed attribute.
    pub attr: String,
    /// Equality probe key (constant w.r.t. the scanned variable), if the
    /// component is `attr = k`.
    pub eq: Option<ScalarExpr>,
    /// Lower range bound.
    pub lo: Bound<ScalarExpr>,
    /// Upper range bound.
    pub hi: Bound<ScalarExpr>,
    /// Conjunction of the conjuncts the probe covers — what the cost
    /// model estimates the candidate count from.
    pub covered: ScalarExpr,
}

/// Decompose `conj` as `var.attr ⟨cmp⟩ key` (either orientation) where
/// `key` does not reference `var`.
fn attr_cmp<'e>(
    conj: &'e ScalarExpr,
    var: &str,
) -> Option<(&'e str, tmql_algebra::CmpOp, &'e ScalarExpr)> {
    let ScalarExpr::Cmp(op, a, b) = conj else {
        return None;
    };
    let oriented = |col: &'e ScalarExpr, key: &'e ScalarExpr, op: tmql_algebra::CmpOp| match col {
        ScalarExpr::Field(inner, attr)
            if matches!(&**inner, ScalarExpr::Var(v) if v == var) && !key.mentions(var) =>
        {
            Some((attr.as_str(), op, key))
        }
        _ => None,
    };
    oriented(a, b, *op).or_else(|| oriented(b, a, op.flip()))
}

/// The conjuncts a fused scan of `var` can pre-test in storage: the
/// longest prefix of `pred`'s conjuncts that are each `var.attr ⟨cmp⟩ key`,
/// as `(attr, cmp, key)`. A prefix, because a conjunct behind one that is
/// not of this shape is reached only by rows on which that one evaluated
/// to true without an error — which storage cannot know.
pub fn scan_pretest(
    pred: &ScalarExpr,
    var: &str,
) -> Vec<(Arc<str>, tmql_algebra::CmpOp, ScalarExpr)> {
    pred.conjuncts()
        .into_iter()
        .map_while(|conj| attr_cmp(conj, var))
        .map(|(attr, op, key)| (attr.into(), op, key.clone()))
        .collect()
}

/// Extract the index-eligible component of `pred` for a scan of `table`
/// binding `var`: an equality conjunct on an indexed attribute wins;
/// otherwise range bounds on one indexed attribute are collected. `None`
/// when no conjunct can probe an existing index. The conjuncts are read
/// borrowed; only the component found is cloned.
pub(crate) fn index_selection(
    pred: &ScalarExpr,
    table: &str,
    var: &str,
    catalog: &Catalog,
) -> Option<IndexSel> {
    use tmql_algebra::CmpOp;
    if catalog.indexes().all(|(t, ..)| t != table) {
        return None;
    }
    // [`attr_cmp`] on an attribute that carries a secondary index.
    let indexed_cmp =
        |conj| attr_cmp(conj, var).filter(|&(attr, ..)| catalog.index_on(table, attr).is_some());
    let conjuncts = pred.conjuncts();
    for &conj in &conjuncts {
        if let Some((attr, CmpOp::Eq, key)) = indexed_cmp(conj) {
            return Some(IndexSel {
                attr: attr.to_string(),
                eq: Some(key.clone()),
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                covered: conj.clone(),
            });
        }
    }
    let mut attr: Option<&str> = None;
    let mut lo = Bound::Unbounded;
    let mut hi = Bound::Unbounded;
    let mut used: Vec<&ScalarExpr> = Vec::new();
    for &conj in &conjuncts {
        let Some((a, op, key)) = indexed_cmp(conj) else {
            continue;
        };
        // Bounds must all probe one attribute — the first one seen.
        if attr.is_some_and(|seen| seen != a) {
            continue;
        }
        let (slot, bound) = match op {
            CmpOp::Gt => (&mut lo, Bound::Excluded(key)),
            CmpOp::Ge => (&mut lo, Bound::Included(key)),
            CmpOp::Lt => (&mut hi, Bound::Excluded(key)),
            CmpOp::Le => (&mut hi, Bound::Included(key)),
            _ => continue,
        };
        if matches!(slot, Bound::Unbounded) {
            *slot = bound;
            attr = Some(a);
            used.push(conj);
        }
    }
    Some(IndexSel {
        attr: attr?.to_string(),
        eq: None,
        lo: lo.cloned(),
        hi: hi.cloned(),
        covered: ScalarExpr::conj(used.into_iter().cloned()),
    })
}

/// The correlation-binding expressions of an `Apply` subquery: the outer
/// environment expressions (`o`, `o.b`, …) the subquery's result can
/// depend on — each free reference ([`ScalarExpr::free_refs`]) in the
/// subquery's expressions whose variable is free in the whole subquery.
/// These are the memoization keys of the executor's Apply cache and the
/// NDV source of the cost model's distinct-binding pricing. An empty
/// vector means the subquery is invariant — one execution serves every
/// outer row. Field paths are kept as paths (the cache then hits whenever
/// `o.b` repeats, not just when the whole row does); a whole-row reference
/// `o` subsumes every `o.*` path. Sorted and deduplicated so equal
/// subqueries yield identical keys.
pub(crate) fn apply_bindings(subquery: &Plan) -> Vec<ScalarExpr> {
    type Refs<'p> = Vec<(&'p str, &'p ScalarExpr)>;
    fn walk<'p>(plan: &'p Plan, corr: &BTreeSet<String>, out: &mut Refs<'p>) {
        plan.for_each_expr(|e| {
            e.free_refs(|v, r| {
                if corr.contains(v) {
                    out.push((v, r));
                }
            })
        });
        plan.children().into_iter().for_each(|c| walk(c, corr, out));
    }
    let mut refs = Refs::new();
    walk(subquery, &subquery.free_vars(), &mut refs);
    let is_whole = |r: &ScalarExpr| matches!(r, ScalarExpr::Var(_));
    let whole: BTreeSet<&str> = refs
        .iter()
        .filter(|(_, r)| is_whole(r))
        .map(|(v, _)| *v)
        .collect();
    refs.retain(|(v, r)| is_whole(r) || !whole.contains(v));
    refs.sort_by(|a, b| binding_order(*a, *b));
    refs.dedup_by(|(_, a), (_, b)| a == b);
    refs.into_iter().map(|(_, r)| r.clone()).collect()
}

/// The order of two correlation bindings' `Debug` renderings, found
/// without rendering them: every `v.f` path (`Field(Var(..), ..)`)
/// before every whole row `v` (`Var(..)`), then by variable and by
/// field. A binding is one of the two ([`ScalarExpr::free_refs`]), and
/// the names are identifiers, whose characters all sort after the `"`
/// and `)` that follow a rendered name.
fn binding_order(a: (&str, &ScalarExpr), b: (&str, &ScalarExpr)) -> std::cmp::Ordering {
    fn key<'e>((v, e): (&'e str, &'e ScalarExpr)) -> (bool, &'e str, &'e str) {
        match e {
            ScalarExpr::Field(_, f) => (false, v, f),
            _ => (true, v, ""),
        }
    }
    key(a).cmp(&key(b))
}

/// Lower a logical plan to a physical plan.
pub fn lower(plan: &Plan, catalog: &Catalog, config: &ExecConfig) -> Result<PhysPlan> {
    let walk = Walk::new(Estimator::with_budget(catalog, config.memory_budget_rows));
    Ok(Lowering { walk, config }.lower(plan).0)
}

/// The lowering recursion: builds each subtree's [`PhysPlan`] and, from
/// the same [`Walk`] the cost model runs, its estimate — which is what
/// the physical choices above that subtree read.
struct Lowering<'a, 'p, 'c> {
    walk: Walk<'a, 'p>,
    config: &'c ExecConfig,
}

impl<'p> Lowering<'_, 'p, '_> {
    /// Lower an operand.
    fn child(&mut self, plan: &'p Plan) -> (Box<PhysPlan>, CostEstimate) {
        let (phys, est) = self.lower(plan);
        (Box::new(phys), est)
    }

    fn lower(&mut self, plan: &'p Plan) -> (PhysPlan, CostEstimate) {
        let from = self.walk.mark();
        let (phys, op) = match plan {
            Plan::ScanTable { table, var } => {
                let (est, (table, var)) =
                    (self.walk.scan(table, var), (table.clone(), var.clone()));
                let phys = PhysPlan::ScanTable {
                    table,
                    var,
                    pred: None,
                };
                return (phys, est);
            }
            Plan::Select { input, pred } => match &**input {
                // Scan vs probe: a selection directly over a stored table
                // probes an index when the model prices that below
                // scan-and-filter, and is otherwise one scan that filters
                // as it reads.
                Plan::ScanTable { table, var } => {
                    let (est, isel) = self.walk.select_scan(table, var, pred);
                    let (table, var, pred) = (table.clone(), var.clone(), pred.clone());
                    let phys = match isel {
                        Some(isel) => PhysPlan::IndexScan {
                            table,
                            var,
                            attr: isel.attr,
                            eq: isel.eq,
                            lo: isel.lo,
                            hi: isel.hi,
                            pred,
                        },
                        None => PhysPlan::ScanTable {
                            table,
                            var,
                            pred: Some(pred),
                        },
                    };
                    return (phys, est);
                }
                // A selection directly over a join is decided inside it,
                // on each output row before the row is built.
                Plan::Join {
                    kind,
                    left,
                    right,
                    pred: on,
                } => {
                    let (phys, c) = self.join(kind, (left, right), on, Some(pred), from);
                    (phys, Node::Select(c, pred, None))
                }
                input => {
                    let (input, c) = self.child(input);
                    let phys = PhysPlan::Filter {
                        input,
                        pred: pred.clone(),
                    };
                    (phys, Node::Select(c, pred, None))
                }
            },
            Plan::Join {
                kind,
                left,
                right,
                pred,
            } => return self.join(kind, (left, right), pred, None, from),
            Plan::ScanExpr { expr, var } => {
                let phys = PhysPlan::ScanExpr {
                    expr: expr.clone(),
                    var: var.clone(),
                };
                (phys, Node::ScanExpr(expr))
            }
            Plan::Map { input, expr, var } => {
                let (input, c) = self.child(input);
                let phys = PhysPlan::Map {
                    input,
                    expr: expr.clone(),
                    var: var.clone(),
                };
                (phys, Node::Map(c, expr))
            }
            Plan::Extend { input, expr, var } => {
                let (input, c) = self.child(input);
                let phys = PhysPlan::Extend {
                    input,
                    expr: expr.clone(),
                    var: var.clone(),
                };
                (phys, Node::Extend(c))
            }
            Plan::Project { input, vars } => {
                let (input, c) = self.child(input);
                let vars = vars.clone();
                (PhysPlan::Project { input, vars }, Node::Project(c))
            }
            Plan::Nest {
                input,
                keys,
                value,
                label,
                star,
            } => {
                let (input, c) = self.child(input);
                let phys = PhysPlan::Nest {
                    input,
                    keys: keys.clone(),
                    value: value.clone(),
                    label: label.clone(),
                    star: *star,
                };
                (phys, Node::Nest(c, keys))
            }
            Plan::Unnest {
                input,
                expr,
                elem_var,
                drop_vars,
            } => {
                let (input, c) = self.child(input);
                let phys = PhysPlan::Unnest {
                    input,
                    expr: expr.clone(),
                    elem_var: elem_var.clone(),
                    drop_vars: drop_vars.clone(),
                };
                (phys, Node::Unnest(c, expr))
            }
            Plan::GroupAgg {
                input,
                keys,
                aggs,
                var,
            } => {
                let (input, c) = self.child(input);
                let phys = PhysPlan::GroupAgg {
                    input,
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    var: var.clone(),
                };
                (phys, Node::GroupAgg(c, keys))
            }
            Plan::SetOp {
                kind,
                left,
                right,
                var,
            } => {
                let (left, l) = self.child(left);
                let (right, r) = self.child(right);
                let phys = PhysPlan::SetOp {
                    kind: *kind,
                    left,
                    right,
                    var: var.clone(),
                };
                (phys, Node::SetOp(*kind, l, r))
            }
            Plan::Apply {
                input,
                subquery,
                label,
            } => {
                let (input, c) = self.child(input);
                // Batched Apply: memoize inner results by the correlation
                // bindings, one inner execution per distinct binding.
                let bindings = apply_bindings(subquery);
                let distinct = self.walk.distinct_bindings(&bindings, from, c.rows);
                self.walk.enter_subquery(from);
                let (sub, sub_est) = self.lower(subquery);
                self.walk.leave_subquery();
                let phys = PhysPlan::Apply {
                    input,
                    subquery: Box::new(sub),
                    label: label.clone(),
                    bindings,
                };
                (phys, Node::Apply(c, sub_est, distinct))
            }
        };
        (phys, self.walk.est.estimate(op, self.walk.scope(from)))
    }

    /// Lower a join, with the selection directly over it if there is one:
    /// the walk splits the predicate, picks the path under the configured
    /// algorithm and prices the join; this builds what it picked. The
    /// estimate is the join's, before any selection.
    fn join(
        &mut self,
        kind: &JoinKind,
        (left, right): (&'p Plan, &'p Plan),
        pred: &'p ScalarExpr,
        select: Option<&ScalarExpr>,
        from: usize,
    ) -> (PhysPlan, CostEstimate) {
        let (mut l, l_est) = self.child(left);
        let mid = self.walk.mark();
        let (mut r, r_est) = self.child(right);
        let sides = Sides {
            from,
            l: l_est,
            mid,
            r: r_est,
        };
        let algo = self.config.join_algo;
        let (est, split, choice) = self.walk.join(algo, kind, (left, right), pred, sides);
        let path = match choice {
            PathChoice::IndexNl {
                table,
                var,
                attr,
                key,
                ..
            } => JoinPath::Index {
                table: table.to_string(),
                var: var.to_string(),
                attr: attr.to_string(),
                key: split.keys[key].0.clone(),
                pred: pred.clone(),
            },
            PathChoice::NestedLoop => JoinPath::NestedLoop {
                right: r,
                pred: pred.clone(),
            },
            PathChoice::Hash { swap } => {
                let mut keys = split.owned();
                if swap {
                    std::mem::swap(&mut l, &mut r);
                    std::mem::swap(&mut keys.left_keys, &mut keys.right_keys);
                }
                JoinPath::Hash { right: r, keys }
            }
            PathChoice::SortMerge => JoinPath::SortMerge {
                right: r,
                keys: split.owned(),
            },
        };
        let (kind, select) = (kind.clone(), select.cloned());
        (
            PhysPlan::Join {
                kind,
                left: l,
                path,
                select,
            },
            est,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JoinAlgo;
    use tmql_algebra::{CmpOp, Quantifier, ScalarExpr as E};
    use tmql_storage::table::int_table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(int_table("X", &["a", "b"], &[&[1, 1]]))
            .unwrap();
        cat.register(int_table("Y", &["b", "c"], &[&[1, 10]]))
            .unwrap();
        cat
    }

    /// The equi-key split between an operand binding `x` and one binding
    /// `y`.
    fn split_xy(p: &ScalarExpr) -> KeySplit<'_> {
        extract_equi_keys(p, |v| v == "x", |v| v == "y")
    }

    #[test]
    fn split_conjuncts_flattens() {
        let p = E::and(E::and(E::lit(true), E::lit(false)), E::lit(true));
        assert_eq!(p.conjuncts().len(), 3);
    }

    #[test]
    fn extracts_equi_keys_both_orientations() {
        let p = E::and(
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::eq(E::path("y", &["c"]), E::path("x", &["a"])),
        );
        let s = split_xy(&p);
        assert_eq!(s.keys.len(), 2);
        assert_eq!(s.keys[1], (&E::path("x", &["a"]), &E::path("y", &["c"])));
        assert!(s.residual.is_empty());
        let owned = s.owned();
        assert_eq!(owned.left_keys[1], E::path("x", &["a"]));
        assert_eq!(owned.right_keys[1], E::path("y", &["c"]));
        assert_eq!(owned.parts(), s);
    }

    #[test]
    fn non_equi_and_correlated_conjuncts_stay_residual() {
        // x.a < y.c is not equi; x.b = o.b references the outer var `o`.
        let p = E::and(
            E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::path("y", &["c"])),
            E::eq(E::path("x", &["b"]), E::path("o", &["b"])),
        );
        let s = split_xy(&p);
        assert!(s.keys.is_empty());
        assert_eq!(s.residual, p.conjuncts());
        // The owned residual is their conjunction, left to right.
        assert_eq!(s.owned().residual, Some(p.clone()));
    }

    #[test]
    fn constant_sides_are_not_keys() {
        // x.b = 3 must not become a hash key pair (right side has no vars).
        let p = E::eq(E::path("x", &["b"]), E::lit(3i64));
        assert!(split_xy(&p).keys.is_empty());
    }

    #[test]
    fn lower_picks_hash_for_equi_join_auto() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        assert_eq!(phys.op_label(), "HashJoin[join]", "{phys}");
    }

    #[test]
    fn lower_falls_back_to_nl_without_keys() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::path("y", &["b"])),
        );
        for algo in [JoinAlgo::Auto, JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
            assert_eq!(phys.op_label(), "NlJoin[join]", "{phys}");
        }
    }

    #[test]
    fn auto_inner_join_builds_on_smaller_side() {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..50).map(|i| vec![i, i % 5]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        cat.register(int_table("TINY", &["b", "c"], &[&[1, 10], &[2, 20]]))
            .unwrap();
        // TINY ⋈ BIG under Auto: probe the big side, build on the tiny one.
        let plan = Plan::scan("TINY", "t").join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Join {
            left,
            path: JoinPath::Hash { right, keys },
            ..
        } = phys
        else {
            panic!("hash join expected");
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "BIG"));
        assert!(matches!(*right, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
        // Keys swapped with the sides.
        assert_eq!(keys.left_keys, vec![E::path("x", &["b"])]);
        // A forced algorithm keeps the written build side.
        let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::Hash)).unwrap();
        let PhysPlan::Join {
            left,
            path: JoinPath::Hash { .. },
            ..
        } = phys
        else {
            panic!("hash join expected")
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
        // Left-preserving kinds never swap, whatever the cardinalities.
        let semi = Plan::scan("TINY", "t").semi_join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&semi, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Join {
            kind: JoinKind::Semi,
            left,
            path: JoinPath::Hash { .. },
            select: None,
        } = phys
        else {
            panic!("hash semijoin expected");
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
    }

    #[test]
    fn forced_algorithms_respected() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").semi_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let h = lower(&plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::Hash)).unwrap();
        assert_eq!(h.op_label(), "HashJoin[semijoin]");
        let m = lower(
            &plan,
            &cat,
            &ExecConfig::with_join_algo(JoinAlgo::SortMerge),
        )
        .unwrap();
        assert_eq!(m.op_label(), "MergeJoin[semijoin]");
        let n = lower(
            &plan,
            &cat,
            &ExecConfig::with_join_algo(JoinAlgo::NestedLoop),
        )
        .unwrap();
        assert_eq!(n.op_label(), "NlJoin[semijoin]");
    }

    #[test]
    fn nest_join_lowering_keeps_func_and_label() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").nest_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["c"]),
            "zs",
        );
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Join {
            kind: JoinKind::Nest { label, .. },
            path: JoinPath::Hash { .. },
            ..
        } = phys
        else {
            panic!("expected hash nest join");
        };
        assert_eq!(&*label, "zs");
    }

    /// BIG(100 rows, b with 10 distinct values) + TINY(2 rows): large
    /// enough that probing an index on BIG.b beats scanning BIG.
    fn indexed_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        cat.register(int_table("TINY", &["b", "c"], &[&[1, 10], &[2, 20]]))
            .unwrap();
        cat.create_index("BIG", "b").unwrap();
        cat
    }

    #[test]
    fn indexed_selection_lowers_to_index_scan() {
        let cat = indexed_catalog();
        let plan = Plan::scan("BIG", "x").select(E::eq(E::path("x", &["b"]), E::lit(3i64)));
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::IndexScan {
            attr, eq, lo, hi, ..
        } = phys
        else {
            panic!("expected IndexScan, got {phys}");
        };
        assert_eq!(attr, "b");
        assert_eq!(eq, Some(E::lit(3i64)));
        assert_eq!((lo, hi), (Bound::Unbounded, Bound::Unbounded));
    }

    #[test]
    fn indexed_range_selection_lowers_with_bounds() {
        let cat = indexed_catalog();
        let pred = E::and(
            E::cmp(CmpOp::Ge, E::path("x", &["b"]), E::lit(3i64)),
            E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::lit(4i64)),
        );
        let plan = Plan::scan("BIG", "x").select(pred);
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::IndexScan {
            attr, eq, lo, hi, ..
        } = phys
        else {
            panic!("expected IndexScan, got {phys}");
        };
        assert_eq!(attr, "b");
        assert!(eq.is_none());
        assert_eq!(lo, Bound::Included(E::lit(3i64)));
        assert_eq!(hi, Bound::Excluded(E::lit(4i64)));
    }

    #[test]
    fn selection_without_index_still_scans() {
        let cat = indexed_catalog();
        // Column `a` has no index: the plan stays a scan, the selection
        // fused into it.
        let pred = E::eq(E::path("x", &["a"]), E::lit(3i64));
        let plan = Plan::scan("BIG", "x").select(pred.clone());
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let fused = PhysPlan::ScanTable {
            table: "BIG".into(),
            var: "x".into(),
            pred: Some(pred),
        };
        assert_eq!(phys, fused);
    }

    #[test]
    fn indexed_inner_scan_lowers_to_index_nl_join_under_auto() {
        let cat = indexed_catalog();
        let plan = Plan::scan("TINY", "t").join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Join {
            path: JoinPath::Index {
                table, attr, key, ..
            },
            ..
        } = phys
        else {
            panic!("expected IndexNLJoin, got {phys}");
        };
        assert_eq!(table, "BIG");
        assert_eq!(attr, "b");
        assert_eq!(key, E::path("t", &["b"]));
        // Forced algorithms never take the index path.
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
            let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
            assert!(!phys.op_label().starts_with("IndexNLJoin"), "{phys}");
        }
    }

    #[test]
    fn apply_bindings_extracts_correlation_paths() {
        // σ[x.b = y.b](Y): the result depends on the outer row only
        // through `x.b`.
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["c"]), "s");
        assert_eq!(apply_bindings(&sub), vec![E::path("x", &["b"])]);
        // An invariant subquery has no bindings at all.
        let inv = Plan::scan("Y", "y").map(E::path("y", &["c"]), "s");
        assert!(apply_bindings(&inv).is_empty());
        // A whole-row reference subsumes field paths off the same var.
        let sub2 = Plan::scan("Y", "y").select(E::and(
            E::eq(E::var("x"), E::path("y", &["b"])),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        ));
        assert_eq!(apply_bindings(&sub2), vec![E::var("x")]);
        // A scan variable shadows a same-named outer variable.
        let shadowed = Plan::scan("X", "x").select(E::eq(E::path("x", &["b"]), E::lit(3i64)));
        assert!(apply_bindings(&shadowed).is_empty());
        // A quantifier that rebinds `x` hides its body's `x.c`; the free
        // `x.b` beside it is the key.
        let rebound = Plan::scan("Y", "y").select(E::and(
            E::quant(
                Quantifier::Exists,
                "x",
                E::path("y", &["s"]),
                E::eq(E::path("x", &["c"]), E::lit(1i64)),
            ),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        ));
        assert_eq!(apply_bindings(&rebound), vec![E::path("x", &["b"])]);
        // Inside a nested Apply, the inner subquery's read of the
        // outermost `x` is a key; its read of `y`, bound here, is not.
        let nested = Plan::scan("Y", "y").apply(
            Plan::scan("Z", "z").select(E::and(
                E::eq(E::path("z", &["c"]), E::path("x", &["a"])),
                E::eq(E::path("z", &["d"]), E::path("y", &["d"])),
            )),
            "zs",
        );
        assert_eq!(apply_bindings(&nested), vec![E::path("x", &["a"])]);
    }

    /// `binding_order` is the order of the bindings' `Debug` renderings,
    /// which the Apply cache keys and `distinct_bindings` have always
    /// read, over the shapes `plan_golden` holds: whole rows and field
    /// paths off the blocks' variables, the translator's and the
    /// relational rewrites' generated names among them, with names that
    /// are prefixes of one another.
    #[test]
    fn bindings_sort_as_their_debug_renderings() {
        let (vars, fields) = (
            ["x", "x1", "x_", "xy", "y", "d", "e", "z", "__t_z", "__k0_z"],
            ["a", "ab", "a_b", "b", "address", "name", "k0", "n"],
        );
        let mut refs: Vec<ScalarExpr> = Vec::new();
        for v in vars {
            refs.push(E::var(v));
            refs.extend(fields.iter().map(|f| E::path(v, &[f])));
        }
        // A fixed scramble of the list.
        let n = refs.len();
        let scrambled: Vec<&ScalarExpr> = (0..n).map(|i| &refs[(i * 37 + 11) % n]).collect();
        let root = |e: &ScalarExpr| match e {
            ScalarExpr::Field(inner, _) => match &**inner {
                ScalarExpr::Var(v) => v.clone(),
                _ => unreachable!("a binding is a path off a variable"),
            },
            ScalarExpr::Var(v) => v.clone(),
            _ => unreachable!("a binding is a variable or a path"),
        };
        let roots: Vec<String> = scrambled.iter().map(|e| root(e)).collect();
        let mut ours: Vec<(&str, &ScalarExpr)> = roots
            .iter()
            .map(String::as_str)
            .zip(scrambled.iter().copied())
            .collect();
        ours.sort_by(|a, b| binding_order(*a, *b));
        let mut debug = scrambled.clone();
        debug.sort_by_key(|e| format!("{e:?}"));
        assert!(ours.iter().map(|(_, e)| *e).eq(debug), "{ours:?}");
    }

    #[test]
    fn scan_pretest_is_the_leading_comparisons_only() {
        let cmp = |l: &str, k: i64| E::cmp(CmpOp::Lt, E::path("x", &[l]), E::lit(k));
        let opaque = E::eq(E::path("x", &["a"]), E::path("x", &["b"]));
        let labels = |p: &ScalarExpr| -> Vec<String> {
            let attrs = scan_pretest(p, "x").into_iter();
            attrs.map(|(attr, ..)| attr.to_string()).collect()
        };
        assert_eq!(labels(&E::and(cmp("a", 1), cmp("b", 2))), ["a", "b"]);
        // Nothing behind a conjunct storage cannot decide: the rows that
        // reach it are the ones that one let through without an error.
        assert_eq!(
            labels(&E::conj([cmp("a", 1), opaque.clone(), cmp("b", 2)])),
            ["a"]
        );
        assert!(labels(&E::and(opaque, cmp("b", 2))).is_empty());
        // Either orientation; the key may be correlated but not `x`'s own.
        let flipped = E::cmp(CmpOp::Lt, E::path("o", &["k"]), E::path("x", &["a"]));
        let (attr, op, key) = scan_pretest(&flipped, "x").remove(0);
        assert_eq!((&*attr, op, key), ("a", CmpOp::Gt, E::path("o", &["k"])));
    }

    #[test]
    fn join_without_index_keeps_hash_plan() {
        let mut cat = indexed_catalog();
        cat.drop_index("BIG", "b").unwrap();
        let plan = Plan::scan("TINY", "t").join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        assert_eq!(phys.op_label(), "HashJoin[join]", "{phys}");
    }

    /// The seam the shared `join_path` closes: the model prices the index
    /// nested-loop path exactly when lowering emits an `IndexNLJoin`. With
    /// |R| = 1000 unique indexed keys the index path wins below |L| = 500,
    /// for every join kind.
    #[test]
    fn index_nl_is_priced_iff_it_is_emitted() {
        let table = |name: &str, n: i64| {
            let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i]).collect();
            let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            int_table(name, &["k"], &refs)
        };
        let pred = || E::eq(E::path("l", &["k"]), E::path("r", &["k"]));
        for n in [400, 480, 500, 520, 549, 551, 600] {
            let catalog = || {
                let mut cat = Catalog::new();
                cat.register(table("L", n)).unwrap();
                cat.register(table("R", 1000)).unwrap();
                cat
            };
            let (plain, mut indexed) = (catalog(), catalog());
            indexed.create_index("R", "k").unwrap();
            let plans = [
                Plan::scan("L", "l").join(Plan::scan("R", "r"), pred()),
                Plan::scan("L", "l").semi_join(Plan::scan("R", "r"), pred()),
                Plan::scan("L", "l").anti_join(Plan::scan("R", "r"), pred()),
                Plan::scan("L", "l").left_outer_join(Plan::scan("R", "r"), pred()),
                Plan::scan("L", "l").nest_join(Plan::scan("R", "r"), pred(), E::var("r"), "rs"),
            ];
            for plan in plans {
                let phys = lower(&plan, &indexed, &ExecConfig::default()).unwrap();
                let emitted = phys.op_label().starts_with("IndexNLJoin");
                // Same statistics with and without the index: the costs
                // differ exactly when the index path is the one priced.
                let priced =
                    Estimator::new(&indexed).cost(&plan) != Estimator::new(&plain).cost(&plan);
                assert_eq!(priced, emitted, "|L| = {n}: {phys}");
                assert_eq!(emitted, n < 500, "|L| = {n}: {phys}");
            }
        }
    }

    /// σ directly over a join of every kind, under every algorithm, is
    /// the join that lowering picks without it, with the selection fused
    /// in and its line estimated as the `Filter` over it was. A second σ,
    /// or a σ over anything but a join, stays a `Filter`.
    #[test]
    fn a_selection_directly_over_a_join_is_fused_into_it() {
        let cat = indexed_catalog();
        let est = Estimator::new(&cat);
        let on_b = || E::eq(E::path("t", &["b"]), E::path("x", &["b"]));
        let p = E::cmp(CmpOp::Lt, E::path("t", &["c"]), E::lit(15i64));
        let kinds = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter,
            JoinKind::Nest {
                func: E::path("x", &["a"]),
                label: "xs".into(),
            },
        ];
        let algos = [
            JoinAlgo::Auto,
            JoinAlgo::Hash,
            JoinAlgo::SortMerge,
            JoinAlgo::NestedLoop,
        ];
        for kind in kinds {
            let join = Plan::scan("TINY", "t").join_as(kind, Plan::scan("BIG", "x"), on_b());
            for algo in algos {
                let config = ExecConfig::with_join_algo(algo);
                let fused = lower(&join.clone().select(p.clone()), &cat, &config).unwrap();
                let bare = lower(&join, &cat, &config).unwrap();
                let PhysPlan::Join {
                    kind,
                    left,
                    path,
                    select: None,
                } = bare.clone()
                else {
                    panic!("a join expected: {bare}");
                };
                let select = Some(p.clone());
                assert_eq!(
                    fused,
                    PhysPlan::Join {
                        kind,
                        left,
                        path,
                        select
                    }
                );
                assert!(fused.op_label().ends_with("[σ]"), "{fused}");
                let filter = PhysPlan::Filter {
                    input: Box::new(bare),
                    pred: p.clone(),
                };
                let (f, j) = (
                    est.exec_order_rows_phys(&filter),
                    est.exec_order_rows_phys(&fused),
                );
                assert_eq!(j[0], f[0], "{fused}");
                assert_eq!(j[1..], f[2..], "{fused}");
            }
            let twice = join.select(p.clone()).select(E::lit(true));
            let phys = lower(&twice, &cat, &ExecConfig::default()).unwrap();
            let PhysPlan::Filter { input, .. } = &phys else {
                panic!("a Filter expected: {phys}");
            };
            assert!(
                matches!(
                    **input,
                    PhysPlan::Join {
                        select: Some(_),
                        ..
                    }
                ),
                "{phys}"
            );
        }
        let over_apply = Plan::scan("BIG", "x")
            .apply(Plan::scan("TINY", "t").select(on_b()), "z")
            .select(p);
        let phys = lower(&over_apply, &cat, &ExecConfig::default()).unwrap();
        assert_eq!(phys.op_label(), "Filter", "{phys}");
    }

    #[test]
    fn lowered_plans_bind_the_logical_output_variables() {
        let cat = indexed_catalog();
        let on_b = || E::eq(E::path("t", &["b"]), E::path("x", &["b"]));
        let (tiny, big) = (|| Plan::scan("TINY", "t"), || Plan::scan("BIG", "x"));
        let kinds = [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter,
            JoinKind::Nest {
                func: E::path("x", &["a"]),
                label: "xs".into(),
            },
        ];
        // Every kind over an indexed inner: Auto probes the index, and the
        // forced algorithms take the other three paths.
        let mut plans: Vec<Plan> = kinds
            .into_iter()
            .map(|kind| tiny().join_as(kind, big(), on_b()))
            .collect();
        let paths = plans.len();
        plans.extend([
            big().join(
                tiny(),
                E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::path("t", &["b"])),
            ),
            big()
                .apply(tiny().select(on_b()).map(E::path("t", &["c"]), "q"), "z")
                .extend(E::path("x", &["a"]), "e")
                .project(&["z", "e"]),
        ]);
        let algos = [
            JoinAlgo::Auto,
            JoinAlgo::Hash,
            JoinAlgo::SortMerge,
            JoinAlgo::NestedLoop,
        ];
        for (i, plan) in plans.iter().enumerate() {
            let mut labels = BTreeSet::new();
            for algo in algos {
                let phys = lower(plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
                // A swapped inner hash join binds the same variables in
                // the other order.
                let sorted = |mut v: Vec<String>| {
                    v.sort();
                    v
                };
                assert_eq!(
                    sorted(phys.output_vars()),
                    sorted(plan.output_vars()),
                    "{phys}"
                );
                let label = phys.op_label();
                labels.insert(label[..label.find('[').unwrap_or(label.len())].to_string());
            }
            if i < paths {
                let all = ["HashJoin", "IndexNLJoin", "MergeJoin", "NlJoin"];
                assert!(labels.iter().eq(all.iter()), "{plan}: {labels:?}");
            }
        }
    }
}
