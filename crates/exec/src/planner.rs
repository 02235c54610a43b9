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
//! * **join path** — for every member of the join family the predicate is
//!   split into equi-key pairs `left-expr = right-expr` (each side over one
//!   operand's variables) plus a residual, and `Estimator::join_path`
//!   picks index nested-loop / nested-loop / hash (with its build side) /
//!   sort-merge per the [`ExecConfig`] and the operands' estimates;
//! * **Apply hoisting** — inside a correlated subquery, an eq-selection on
//!   the binding becomes a transient `HashProbe`
//!   (`Estimator::hash_probe_choice`), and any other operand that
//!   references no correlation variable is wrapped in `Materialize`,
//!   decided on the way down from the logical subtree's free variables.
//!
//! Lowering decides at no memory budget and one thread, whatever the
//! budget and thread count `CostBased` ranked the logical candidates
//! with.
//!
//! The produced [`PhysPlan`] is a description only: the streaming
//! [`crate::op::operator::build`] instantiates it as an operator tree that
//! borrows the plan's expressions, so lowering once and executing many
//! times (as the benchmarks do) never re-clones the plan.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use tmql_algebra::{Plan, ScalarExpr};
use tmql_model::Result;
use tmql_storage::Catalog;

use crate::config::ExecConfig;
use crate::cost::{CostEstimate, Estimator, JoinOut, JoinPath, Node, Sides, Walk};
use crate::physical::{JoinKind, PhysPlan};

/// Extracted equi-join structure.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EquiSplit {
    /// Key expressions over the left operand's variables.
    pub left_keys: Vec<ScalarExpr>,
    /// Matching key expressions over the right operand's variables.
    pub right_keys: Vec<ScalarExpr>,
    /// Conjunction of the remaining conjuncts (None = nothing left).
    pub residual: Option<ScalarExpr>,
}

/// Try to split `pred` into equi-key pairs between `left_vars` and
/// `right_vars` plus a residual. Conjuncts referencing outer (correlation)
/// variables stay in the residual.
pub(crate) fn extract_equi_keys(
    pred: &ScalarExpr,
    left_vars: &BTreeSet<String>,
    right_vars: &BTreeSet<String>,
) -> EquiSplit {
    let mut split = EquiSplit {
        left_keys: vec![],
        right_keys: vec![],
        residual: None,
    };
    let mut residuals = Vec::new();
    for conj in pred.conjuncts() {
        if let ScalarExpr::Cmp(tmql_algebra::CmpOp::Eq, a, b) = &conj {
            let (fa, fb) = (a.free_vars(), b.free_vars());
            let sides = |l: &BTreeSet<String>, r: &BTreeSet<String>| {
                !l.is_empty() && !r.is_empty() && l.is_subset(left_vars) && r.is_subset(right_vars)
            };
            // Either orientation: `left-expr = right-expr` or the reverse.
            let pair = if sides(&fa, &fb) {
                Some((a, b))
            } else if sides(&fb, &fa) {
                Some((b, a))
            } else {
                None
            };
            if let Some((lk, rk)) = pair {
                split.left_keys.push((**lk).clone());
                split.right_keys.push((**rk).clone());
                continue;
            }
        }
        residuals.push(conj);
    }
    if !residuals.is_empty() {
        split.residual = Some(ScalarExpr::conj(residuals));
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
fn attr_cmp(conj: &ScalarExpr, var: &str) -> Option<(String, tmql_algebra::CmpOp, ScalarExpr)> {
    let ScalarExpr::Cmp(op, a, b) = conj else {
        return None;
    };
    let oriented = |col: &ScalarExpr, key: &ScalarExpr, op: tmql_algebra::CmpOp| match col {
        ScalarExpr::Field(inner, attr)
            if matches!(&**inner, ScalarExpr::Var(v) if v == var)
                && !key.free_vars().contains(var) =>
        {
            Some((attr.clone(), op, key.clone()))
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
        .iter()
        .map_while(|conj| attr_cmp(conj, var))
        .map(|(attr, op, key)| (attr.into(), op, key))
        .collect()
}

/// [`attr_cmp`] on an attribute that carries a secondary index on `table`.
fn indexed_cmp(
    conj: &ScalarExpr,
    table: &str,
    var: &str,
    catalog: &Catalog,
) -> Option<(String, tmql_algebra::CmpOp, ScalarExpr)> {
    attr_cmp(conj, var).filter(|(attr, ..)| catalog.index_on(table, attr).is_some())
}

/// Extract the index-eligible component of `pred` for a scan of `table`
/// binding `var`: an equality conjunct on an indexed attribute wins;
/// otherwise range bounds on one indexed attribute are collected. `None`
/// when no conjunct can probe an existing index.
pub(crate) fn index_selection(
    pred: &ScalarExpr,
    table: &str,
    var: &str,
    catalog: &Catalog,
) -> Option<IndexSel> {
    use tmql_algebra::CmpOp;
    let conjuncts = pred.conjuncts();
    for conj in &conjuncts {
        if let Some((attr, CmpOp::Eq, key)) = indexed_cmp(conj, table, var, catalog) {
            return Some(IndexSel {
                attr,
                eq: Some(key),
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                covered: conj.clone(),
            });
        }
    }
    let mut attr: Option<String> = None;
    let mut lo = Bound::Unbounded;
    let mut hi = Bound::Unbounded;
    let mut used: Vec<ScalarExpr> = Vec::new();
    for conj in &conjuncts {
        let Some((a, op, key)) = indexed_cmp(conj, table, var, catalog) else {
            continue;
        };
        // Bounds must all probe one attribute — the first one seen.
        if attr.as_deref().is_some_and(|seen| seen != a) {
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
            used.push(conj.clone());
        }
    }
    let attr = attr?;
    let covered = ScalarExpr::conj(used);
    Some(IndexSel {
        attr,
        eq: None,
        lo,
        hi,
        covered,
    })
}

/// The correlation-binding expressions of an `Apply` subquery: the outer
/// environment expressions (`o`, `o.b`, …) the subquery's result can
/// depend on. These are the memoization keys of the executor's Apply
/// cache and the NDV source of the cost model's distinct-binding pricing.
/// An empty vector means the subquery is invariant — one execution serves
/// every outer row. Field paths are kept as paths (the cache then hits
/// whenever `o.b` repeats, not just when the whole row does); a whole-row
/// reference `o` subsumes every `o.*` path. Sorted and deduplicated so
/// equal subqueries yield identical keys.
pub(crate) fn apply_bindings(subquery: &Plan) -> Vec<ScalarExpr> {
    let corr = subquery.free_vars();
    let mut out = Vec::new();
    plan_bindings(subquery, &corr, &mut out);
    out.sort_by_key(|e| format!("{e:?}"));
    out.dedup();
    let whole: BTreeSet<String> = out
        .iter()
        .filter_map(|e| match e {
            ScalarExpr::Var(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    out.retain(|e| match e {
        ScalarExpr::Field(inner, _) => !matches!(&**inner, ScalarExpr::Var(v) if whole.contains(v)),
        _ => true,
    });
    out
}

/// Collect correlation references from one plan node's expressions, then
/// recurse. `corr` is the candidate outer-variable set; each node's
/// expressions see its children's output variables, which shadow
/// same-named outer variables.
fn plan_bindings(plan: &Plan, corr: &BTreeSet<String>, out: &mut Vec<ScalarExpr>) {
    let ov = |p: &Plan| -> BTreeSet<String> { p.output_vars().into_iter().collect() };
    match plan {
        Plan::ScanTable { .. } | Plan::Project { .. } | Plan::SetOp { .. } => {}
        Plan::ScanExpr { expr, .. } => expr_bindings(expr, corr, &BTreeSet::new(), out),
        Plan::Select { input, pred } => expr_bindings(pred, corr, &ov(input), out),
        Plan::Map { input, expr, .. } | Plan::Extend { input, expr, .. } => {
            expr_bindings(expr, corr, &ov(input), out)
        }
        Plan::Join { left, right, pred }
        | Plan::SemiJoin { left, right, pred }
        | Plan::AntiJoin { left, right, pred }
        | Plan::LeftOuterJoin { left, right, pred } => {
            let mut vis = ov(left);
            vis.extend(ov(right));
            expr_bindings(pred, corr, &vis, out);
        }
        Plan::NestJoin {
            left,
            right,
            pred,
            func,
            ..
        } => {
            let mut vis = ov(left);
            vis.extend(ov(right));
            expr_bindings(pred, corr, &vis, out);
            expr_bindings(func, corr, &vis, out);
        }
        Plan::Nest { input, value, .. } => expr_bindings(value, corr, &ov(input), out),
        Plan::Unnest { input, expr, .. } => expr_bindings(expr, corr, &ov(input), out),
        Plan::GroupAgg {
            input, keys, aggs, ..
        } => {
            let vis = ov(input);
            for (_, k) in keys {
                expr_bindings(k, corr, &vis, out);
            }
            for (_, _, e) in aggs {
                expr_bindings(e, corr, &vis, out);
            }
        }
        Plan::Apply {
            input, subquery, ..
        } => {
            // A nested Apply binds its input's variables inside its own
            // subquery; those shadow same-named outer variables there.
            plan_bindings(input, corr, out);
            let shadow = ov(input);
            let inner: BTreeSet<String> = corr.difference(&shadow).cloned().collect();
            plan_bindings(subquery, &inner, out);
            return;
        }
    }
    for c in plan.children() {
        plan_bindings(c, corr, out);
    }
}

/// Record references to unshadowed correlation variables in `e`: a bare
/// `Var(v)` or a field path `v.f` directly off one. Deeper paths key on
/// their first level (`o.a` determines `o.a.b`, so the coarser key is
/// still sound).
fn expr_bindings(
    e: &ScalarExpr,
    corr: &BTreeSet<String>,
    visible: &BTreeSet<String>,
    out: &mut Vec<ScalarExpr>,
) {
    use ScalarExpr as E;
    match e {
        E::Lit(_) => {}
        E::Var(v) => {
            if corr.contains(v) && !visible.contains(v) {
                out.push(e.clone());
            }
        }
        E::Field(inner, _) => {
            if let E::Var(v) = &**inner {
                if corr.contains(v) && !visible.contains(v) {
                    out.push(e.clone());
                }
            } else {
                expr_bindings(inner, corr, visible, out);
            }
        }
        E::Not(a) | E::Agg(_, a) | E::Unnest(a) | E::IsNull(a) => {
            expr_bindings(a, corr, visible, out)
        }
        E::Cmp(_, a, b)
        | E::Arith(_, a, b)
        | E::And(a, b)
        | E::Or(a, b)
        | E::SetBin(_, a, b)
        | E::SetCmp(_, a, b) => {
            expr_bindings(a, corr, visible, out);
            expr_bindings(b, corr, visible, out);
        }
        E::Tuple(fs) => {
            for (_, x) in fs {
                expr_bindings(x, corr, visible, out);
            }
        }
        E::SetLit(xs) => {
            for x in xs {
                expr_bindings(x, corr, visible, out);
            }
        }
        E::Quant {
            var, over, pred, ..
        } => {
            expr_bindings(over, corr, visible, out);
            let mut vis = visible.clone();
            vis.insert(var.to_string());
            expr_bindings(pred, corr, &vis, out);
        }
    }
}

/// Decompose some conjunct of `pred` as `var.attr = key` (either
/// orientation) where `key` does not reference `var` — the shape a
/// transient hash index can probe per distinct key. Unlike
/// [`indexed_cmp`] no persistent index is required; the caller prices the
/// build. Returns `(attr, key, covered_conjunct)`.
pub(crate) fn eq_probe_candidate(
    pred: &ScalarExpr,
    var: &str,
) -> Option<(String, ScalarExpr, ScalarExpr)> {
    pred.conjuncts()
        .into_iter()
        .find_map(|conj| match attr_cmp(&conj, var) {
            Some((attr, tmql_algebra::CmpOp::Eq, key)) => Some((attr, key, conj)),
            _ => None,
        })
}

/// Lower a logical plan to a physical plan.
pub fn lower(plan: &Plan, catalog: &Catalog, config: &ExecConfig) -> Result<PhysPlan> {
    let walk = Walk::new(Estimator::new(catalog));
    Ok(Lowering { walk, config }.lower(plan, Hoist::NONE).0)
}

/// What lowering inside an `Apply` subquery may hoist out of the
/// per-binding path (everything `None` outside one, and for an invariant
/// subquery — the Apply cache's empty binding key already collapses it to
/// one execution).
#[derive(Clone, Copy)]
struct Hoist<'h> {
    /// The subquery's correlation variables: a subtree that references
    /// none of them executes once behind a [`PhysPlan::Materialize`].
    corr: Option<&'h BTreeSet<String>>,
    /// `(attr, key)` of the transient hash index that replaces the
    /// eq-selection at the bottom of the subquery's `Map` / `Extend` /
    /// `Project` spine; set only while lowering that spine.
    probe: Option<&'h (String, ScalarExpr)>,
}

impl Hoist<'_> {
    const NONE: Hoist<'static> = Hoist {
        corr: None,
        probe: None,
    };
}

/// The lowering recursion: builds each subtree's [`PhysPlan`] and, from
/// the same [`Walk`] the cost model runs, its estimate — which is what
/// the physical choices above that subtree read.
struct Lowering<'a, 'p, 'c> {
    walk: Walk<'a, 'p>,
    config: &'c ExecConfig,
}

impl<'p> Lowering<'_, 'p, '_> {
    /// Lower an operand. Inside an `Apply` subquery a maximal
    /// correlation-independent operand that does real work over stored
    /// tables is wrapped in [`PhysPlan::Materialize`] — executed once,
    /// replayed on every re-open; there is nothing to gain deeper inside
    /// it, and a dependent operand keeps hoisting among its own operands.
    /// (Not on the spine above a chosen hash probe: the probe is that
    /// subquery's hoist.)
    fn child(&mut self, plan: &'p Plan, hoist: Hoist<'_>) -> (Box<PhysPlan>, CostEstimate) {
        let independent = |corr: &BTreeSet<String>| plan.free_vars().is_disjoint(corr);
        if hoist.probe.is_none() && hoist.corr.is_some_and(independent) {
            let (phys, est) = self.lower(plan, Hoist::NONE);
            let phys = if worth_materializing(&phys) {
                PhysPlan::Materialize {
                    input: Box::new(phys),
                }
            } else {
                phys
            };
            return (Box::new(phys), est);
        }
        let (phys, est) = self.lower(plan, hoist);
        (Box::new(phys), est)
    }

    fn lower(&mut self, plan: &'p Plan, hoist: Hoist<'_>) -> (PhysPlan, CostEstimate) {
        let from = self.walk.mark();
        // Operands below anything but Map / Extend / Project are off the
        // subquery's spine.
        let below = Hoist {
            probe: None,
            ..hoist
        };
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
                // probes the Apply's transient hash index, or a persistent
                // index when the model prices that below scan-and-filter,
                // which is otherwise one scan that filters as it reads.
                Plan::ScanTable { table, var } => {
                    let (est, isel) = self.walk.select_scan(table, var, pred);
                    let (table, var, pred) = (table.clone(), var.clone(), pred.clone());
                    let phys = match (hoist.probe, isel) {
                        (Some((attr, key)), _) => PhysPlan::HashProbe {
                            table,
                            var,
                            attr: attr.clone(),
                            key: key.clone(),
                            pred,
                        },
                        (None, Some(isel)) => PhysPlan::IndexScan {
                            table,
                            var,
                            attr: isel.attr,
                            eq: isel.eq,
                            lo: isel.lo,
                            hi: isel.hi,
                            pred,
                        },
                        (None, None) => PhysPlan::ScanTable {
                            table,
                            var,
                            pred: Some(pred),
                        },
                    };
                    return (phys, est);
                }
                input => {
                    let (input, c) = self.child(input, below);
                    let phys = PhysPlan::Filter {
                        input,
                        pred: pred.clone(),
                    };
                    (phys, Node::Select(c, pred, None))
                }
            },
            Plan::Join { left, right, pred } => {
                return self.join(JoinKind::Inner, left, right, pred, below, from)
            }
            Plan::SemiJoin { left, right, pred } => {
                return self.join(JoinKind::Semi, left, right, pred, below, from)
            }
            Plan::AntiJoin { left, right, pred } => {
                return self.join(JoinKind::Anti, left, right, pred, below, from)
            }
            Plan::LeftOuterJoin { left, right, pred } => {
                let kind = JoinKind::LeftOuter {
                    right_vars: right.output_vars().into_iter().map(Arc::from).collect(),
                };
                return self.join(kind, left, right, pred, below, from);
            }
            Plan::NestJoin {
                left,
                right,
                pred,
                func,
                label,
            } => {
                let kind = JoinKind::Nest {
                    func: func.clone(),
                    label: label.as_str().into(),
                };
                return self.join(kind, left, right, pred, below, from);
            }
            Plan::ScanExpr { expr, var } => {
                let phys = PhysPlan::ScanExpr {
                    expr: expr.clone(),
                    var: var.clone(),
                };
                (phys, Node::ScanExpr(expr))
            }
            Plan::Map { input, expr, var } => {
                let (input, c) = self.child(input, hoist);
                let phys = PhysPlan::Map {
                    input,
                    expr: expr.clone(),
                    var: var.clone(),
                };
                (phys, Node::Map(c, expr))
            }
            Plan::Extend { input, expr, var } => {
                let (input, c) = self.child(input, hoist);
                let phys = PhysPlan::Extend {
                    input,
                    expr: expr.clone(),
                    var: var.clone(),
                };
                (phys, Node::Extend(c))
            }
            Plan::Project { input, vars } => {
                let (input, c) = self.child(input, hoist);
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
                let (input, c) = self.child(input, below);
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
                let (input, c) = self.child(input, below);
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
                let (input, c) = self.child(input, below);
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
                let (left, l) = self.child(left, below);
                let (right, r) = self.child(right, below);
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
                let (input, c) = self.child(input, below);
                let bindings = apply_bindings(subquery);
                let distinct = self.walk.distinct_bindings(&bindings, from, c.rows);
                // Batched Apply: memoize inner results by the correlation
                // bindings, and hoist correlation-independent work out of
                // the per-binding path — a transient hash probe when the
                // whole inner plan is an eq-selection (one build amortized
                // over the distinct bindings, one probe each), else
                // materialized subtrees.
                let corr = subquery.free_vars();
                let est = self.walk.est;
                let probe = spine_selection(subquery)
                    .and_then(|(t, v, pred)| est.hash_probe_choice(t, v, pred, distinct));
                let hoist = Hoist {
                    corr: Some(&corr).filter(|c| !c.is_empty()),
                    probe: probe.as_ref(),
                };
                self.walk.enter_subquery(from);
                let (sub, sub_est) = self.lower(subquery, hoist);
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

    /// Lower a join: the walk splits the predicate, picks the path under
    /// the configured algorithm and prices it; this builds what it picked.
    fn join(
        &mut self,
        kind: JoinKind,
        left: &'p Plan,
        right: &'p Plan,
        pred: &ScalarExpr,
        hoist: Hoist<'_>,
        from: usize,
    ) -> (PhysPlan, CostEstimate) {
        let (mut l, l_est) = self.child(left, hoist);
        let mid = self.walk.mark();
        let (mut r, r_est) = self.child(right, hoist);
        let sides = Sides {
            from,
            l: l_est,
            mid,
            r: r_est,
        };
        let (algo, out) = (self.config.join_algo, JoinOut::from(&kind));
        let (est, mut split, path) = self.walk.join(algo, out, (left, right), pred, sides);
        let pred = pred.clone();
        let phys = match path {
            JoinPath::IndexNl {
                table,
                var,
                attr,
                key,
                ..
            } => PhysPlan::IndexNLJoin {
                left: l,
                right_table: table.to_string(),
                right_var: var.to_string(),
                attr,
                key: split.left_keys.swap_remove(key),
                pred,
                kind,
            },
            JoinPath::NestedLoop => PhysPlan::NlJoin {
                left: l,
                right: r,
                pred,
                kind,
            },
            JoinPath::Hash { swap } => {
                if swap {
                    std::mem::swap(&mut l, &mut r);
                    std::mem::swap(&mut split.left_keys, &mut split.right_keys);
                }
                PhysPlan::HashJoin {
                    left: l,
                    right: r,
                    left_keys: split.left_keys,
                    right_keys: split.right_keys,
                    residual: split.residual,
                    kind,
                }
            }
            JoinPath::SortMerge => PhysPlan::MergeJoin {
                left: l,
                right: r,
                left_keys: split.left_keys,
                right_keys: split.right_keys,
                residual: split.residual,
                kind,
            },
        };
        (phys, est)
    }
}

/// The selection directly over a stored table at the bottom of a
/// subquery's row-shaping spine (`Map` / `Extend` / `Project` consume a
/// probe's rows exactly as they would the selection's): `(table, var,
/// pred)`.
fn spine_selection(mut plan: &Plan) -> Option<(&str, &str, &ScalarExpr)> {
    while let Plan::Map { input, .. } | Plan::Extend { input, .. } | Plan::Project { input, .. } =
        plan
    {
        plan = input;
    }
    match plan {
        Plan::Select { input, pred } => match &**input {
            Plan::ScanTable { table, var } => Some((table, var, pred)),
            _ => None,
        },
        _ => None,
    }
}

/// Does materializing this subtree save real work per re-execution? True
/// for subtrees that access a stored table and do more than fetch its
/// rows — any operator above one, or a scan with a selection fused in (a
/// bare scan or probe replays as cheaply as it re-reads, so wrapping it
/// only spends memory).
fn worth_materializing(phys: &PhysPlan) -> bool {
    fn touches_table(p: &PhysPlan) -> bool {
        matches!(
            p,
            PhysPlan::ScanTable { .. }
                | PhysPlan::IndexScan { .. }
                | PhysPlan::IndexNLJoin { .. }
                | PhysPlan::HashProbe { .. }
        ) || p.children().into_iter().any(touches_table)
    }
    let selects = matches!(phys, PhysPlan::ScanTable { pred: Some(_), .. });
    (selects || !phys.children().is_empty()) && touches_table(phys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JoinAlgo;
    use tmql_algebra::{CmpOp, ScalarExpr as E};
    use tmql_storage::table::int_table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(int_table("X", &["a", "b"], &[&[1, 1]]))
            .unwrap();
        cat.register(int_table("Y", &["b", "c"], &[&[1, 10]]))
            .unwrap();
        cat
    }

    fn vars(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
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
        let s = extract_equi_keys(&p, &vars(&["x"]), &vars(&["y"]));
        assert_eq!(s.left_keys.len(), 2);
        assert_eq!(s.left_keys[1], E::path("x", &["a"]));
        assert_eq!(s.right_keys[1], E::path("y", &["c"]));
        assert!(s.residual.is_none());
    }

    #[test]
    fn non_equi_and_correlated_conjuncts_stay_residual() {
        // x.a < y.c is not equi; x.b = o.b references the outer var `o`.
        let p = E::and(
            E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::path("y", &["c"])),
            E::eq(E::path("x", &["b"]), E::path("o", &["b"])),
        );
        let s = extract_equi_keys(&p, &vars(&["x"]), &vars(&["y"]));
        assert!(s.left_keys.is_empty());
        assert!(s.residual.is_some());
    }

    #[test]
    fn constant_sides_are_not_keys() {
        // x.b = 3 must not become a hash key pair (right side has no vars).
        let p = E::eq(E::path("x", &["b"]), E::lit(3i64));
        let s = extract_equi_keys(&p, &vars(&["x"]), &vars(&["y"]));
        assert!(s.left_keys.is_empty());
    }

    #[test]
    fn lower_picks_hash_for_equi_join_auto() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        assert!(matches!(phys, PhysPlan::HashJoin { .. }), "{phys}");
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
            assert!(matches!(phys, PhysPlan::NlJoin { .. }), "{phys}");
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
        let PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            ..
        } = phys
        else {
            panic!("hash join expected");
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "BIG"));
        assert!(matches!(*right, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
        // Keys swapped with the sides.
        assert_eq!(left_keys, vec![E::path("x", &["b"])]);
        // A forced algorithm keeps the written build side.
        let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::Hash)).unwrap();
        let PhysPlan::HashJoin { left, .. } = phys else {
            panic!("hash join expected")
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
        // Left-preserving kinds never swap, whatever the cardinalities.
        let semi = Plan::scan("TINY", "t").semi_join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&semi, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::HashJoin {
            left,
            kind: JoinKind::Semi,
            ..
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
        assert!(matches!(
            h,
            PhysPlan::HashJoin {
                kind: JoinKind::Semi,
                ..
            }
        ));
        let m = lower(
            &plan,
            &cat,
            &ExecConfig::with_join_algo(JoinAlgo::SortMerge),
        )
        .unwrap();
        assert!(matches!(
            m,
            PhysPlan::MergeJoin {
                kind: JoinKind::Semi,
                ..
            }
        ));
        let n = lower(
            &plan,
            &cat,
            &ExecConfig::with_join_algo(JoinAlgo::NestedLoop),
        )
        .unwrap();
        assert!(matches!(
            n,
            PhysPlan::NlJoin {
                kind: JoinKind::Semi,
                ..
            }
        ));
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
        let PhysPlan::HashJoin {
            kind: JoinKind::Nest { label, .. },
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
        let PhysPlan::IndexNLJoin {
            right_table,
            attr,
            key,
            ..
        } = phys
        else {
            panic!("expected IndexNLJoin, got {phys}");
        };
        assert_eq!(right_table, "BIG");
        assert_eq!(attr, "b");
        assert_eq!(key, E::path("t", &["b"]));
        // Forced algorithms never take the index path.
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
            let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
            assert!(!matches!(phys, PhysPlan::IndexNLJoin { .. }), "{phys}");
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
    }

    #[test]
    fn correlated_eq_selection_hoists_to_hash_probe() {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        // Apply over BIG with subquery σ[y.b = x.b](BIG): 10 distinct
        // x.b bindings amortize a transient hash build on BIG.b.
        let sub = Plan::scan("BIG", "y").select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Apply {
            subquery, bindings, ..
        } = phys
        else {
            panic!("expected Apply");
        };
        assert_eq!(bindings, vec![E::path("x", &["b"])]);
        let PhysPlan::HashProbe {
            table, attr, key, ..
        } = *subquery
        else {
            panic!("expected HashProbe subquery, got {subquery}");
        };
        assert_eq!(table, "BIG");
        assert_eq!(attr, "b");
        assert_eq!(key, E::path("x", &["b"]));
        // Row-shaping wrappers peel: a projecting Map over the same
        // eq-selection keeps its shape with the probe underneath.
        let sub = Plan::scan("BIG", "y")
            .select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])))
            .map(E::path("y", &["a"]), "q");
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Apply { subquery, .. } = phys else {
            panic!("expected Apply");
        };
        let PhysPlan::Map { input, .. } = *subquery else {
            panic!("expected Map subquery, got {subquery}");
        };
        assert!(matches!(*input, PhysPlan::HashProbe { .. }), "{input}");
        // With a persistent index on b the ordinary IndexScan path wins
        // and no transient build is planned.
        cat.create_index("BIG", "b").unwrap();
        let sub = Plan::scan("BIG", "y").select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Apply { subquery, .. } = phys else {
            panic!("expected Apply");
        };
        assert!(
            !matches!(*subquery, PhysPlan::HashProbe { .. }),
            "{subquery}"
        );
    }

    #[test]
    fn independent_subtrees_materialize_inside_apply() {
        let cat = catalog();
        // Subquery σ[y.b = x.b](Y ⋈ Y'): the join of the two inner scans
        // is correlation-independent and hoists behind a Materialize; the
        // dependent filter stays in the per-binding path.
        let sub = Plan::scan("Y", "y")
            .join(
                Plan::scan("Y", "w"),
                E::eq(E::path("y", &["b"]), E::path("w", &["b"])),
            )
            .select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("X", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Apply { subquery, .. } = phys else {
            panic!("expected Apply");
        };
        let PhysPlan::Filter { input, .. } = *subquery else {
            panic!("expected Filter subquery, got {subquery}");
        };
        assert!(
            matches!(*input, PhysPlan::Materialize { .. }),
            "expected Materialize under the correlated filter, got {input}"
        );
    }

    #[test]
    fn an_independent_filtered_scan_materializes_inside_apply() {
        let cat = catalog();
        // Subquery Y ⋈[y.b = w.b ∧ y.c < x.a] σ[w.c > 5](Y w): the join
        // depends on x, so hoisting looks at its operands. The filtered
        // scan is a leaf now, but it still does a selection's work per
        // re-execution and must keep its Materialize; the bare scan of Y
        // replays as cheaply as it re-reads and stays unwrapped.
        let filtered =
            Plan::scan("Y", "w").select(E::cmp(CmpOp::Gt, E::path("w", &["c"]), E::lit(5i64)));
        let sub = Plan::scan("Y", "y").join(
            filtered,
            E::and(
                E::eq(E::path("y", &["b"]), E::path("w", &["b"])),
                E::cmp(CmpOp::Lt, E::path("y", &["c"]), E::path("x", &["a"])),
            ),
        );
        let plan = Plan::scan("X", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::default()).unwrap();
        let PhysPlan::Apply { subquery, .. } = &phys else {
            panic!("expected Apply, got {phys}");
        };
        let operands = subquery.children();
        assert_eq!(operands.len(), 2, "{subquery}");
        let wrapped = |p: &PhysPlan| match p {
            PhysPlan::Materialize { input } => {
                matches!(**input, PhysPlan::ScanTable { pred: Some(_), .. })
            }
            _ => false,
        };
        assert!(operands.iter().any(|p| wrapped(p)), "{subquery}");
        let bare = |p: &PhysPlan| matches!(p, PhysPlan::ScanTable { pred: None, .. });
        assert!(operands.iter().any(|p| bare(p)), "{subquery}");
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
        assert!(matches!(phys, PhysPlan::HashJoin { .. }), "{phys}");
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
        let (l, r) = (
            || Box::new(Plan::scan("L", "l")),
            || Box::new(Plan::scan("R", "r")),
        );
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
                Plan::LeftOuterJoin {
                    left: l(),
                    right: r(),
                    pred: pred(),
                },
                Plan::scan("L", "l").nest_join(Plan::scan("R", "r"), pred(), E::var("r"), "rs"),
            ];
            for plan in plans {
                let phys = lower(&plan, &indexed, &ExecConfig::default()).unwrap();
                let emitted = matches!(phys, PhysPlan::IndexNLJoin { .. });
                // Same statistics with and without the index: the costs
                // differ exactly when the index path is the one priced.
                let priced =
                    Estimator::new(&indexed).cost(&plan) != Estimator::new(&plain).cost(&plan);
                assert_eq!(priced, emitted, "|L| = {n}: {phys}");
                assert_eq!(emitted, n < 500, "|L| = {n}: {phys}");
            }
        }
    }

    #[test]
    fn lowered_plans_bind_the_logical_output_variables() {
        let cat = indexed_catalog();
        let on_b = || E::eq(E::path("t", &["b"]), E::path("x", &["b"]));
        let (tiny, big) = (|| Plan::scan("TINY", "t"), || Plan::scan("BIG", "x"));
        let plans = [
            tiny().join(big(), on_b()),
            tiny().semi_join(big(), on_b()),
            tiny().nest_join(big(), on_b(), E::path("x", &["a"]), "xs"),
            big().join(
                tiny(),
                E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::path("t", &["b"])),
            ),
            big()
                .apply(tiny().select(on_b()).map(E::path("t", &["c"]), "q"), "z")
                .extend(E::path("x", &["a"]), "e")
                .project(&["z", "e"]),
        ];
        for plan in plans {
            for algo in [JoinAlgo::Auto, JoinAlgo::Hash, JoinAlgo::NestedLoop] {
                let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
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
            }
        }
    }
}
