//! A small plan-transformation framework.
//!
//! The unnesting strategies in `tmql-core` are expressed as bottom-up
//! rewrites over [`Plan`] trees. The framework is deliberately plain — a
//! rewrite is any `FnMut(Plan) -> Plan`, a rule any
//! `FnMut(&Plan) -> Option<Plan>` — and owns the tree it rewrites: nodes
//! are moved through [`Plan::map_children`], never copied.

use crate::plan::Plan;

/// Bottom-up transform: children first, then the node over its new
/// children is handed to `f`. `f` returns the (possibly) replaced node.
pub fn transform_up(plan: Plan, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
    let plan = plan.map_children(&mut |child| transform_up(child, f));
    f(plan)
}

/// Apply `rule` bottom-up, pass after pass, until a pass in which it fires
/// on no node (`None` everywhere), with a safety bound of `max_rounds`
/// passes.
pub fn fixpoint(
    mut plan: Plan,
    max_rounds: usize,
    rule: &mut impl FnMut(&Plan) -> Option<Plan>,
) -> Plan {
    for _ in 0..max_rounds {
        let mut fired = false;
        plan = transform_up(plan, &mut |node| match rule(&node) {
            Some(replaced) => {
                fired = true;
                replaced
            }
            None => node,
        });
        if !fired {
            break;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr as E;

    fn truep() -> E {
        E::lit(true)
    }

    #[test]
    fn map_children_round_trips() {
        let p = Plan::scan("X", "x").join(Plan::scan("Y", "y"), truep());
        assert_eq!(p.clone().map_children(&mut |c| c), p);
    }

    #[test]
    fn transform_up_renames_scans() {
        let p = Plan::scan("X", "x").join(Plan::scan("Y", "y"), truep());
        let out = transform_up(p, &mut |n| match n {
            Plan::ScanTable { table, var } => Plan::ScanTable {
                table: format!("{table}2"),
                var,
            },
            other => other,
        });
        let tables: Vec<String> = collect_tables(&out);
        assert_eq!(tables, vec!["X2", "Y2"]);
    }

    #[test]
    fn fixpoint_stops_after_the_first_pass_in_which_nothing_fired() {
        // A rule that peels nested Selects one at a time, bottom-up: the
        // first pass fuses both, the second finds nothing and is the last.
        let p = Plan::scan("X", "x").select(truep()).select(truep());
        let mut calls = 0;
        let out = fixpoint(p, 8, &mut |n| {
            calls += 1;
            let Plan::Select { input, pred } = n else {
                return None;
            };
            let Plan::Select {
                input: inner,
                pred: ip,
            } = &**input
            else {
                return None;
            };
            Some(Plan::Select {
                input: inner.clone(),
                pred: E::and(ip.clone(), pred.clone()),
            })
        });
        assert_eq!(out.size(), 2, "{out}");
        assert_eq!(calls, 3 + 2, "one pass of three nodes, one of two");
    }

    #[test]
    fn fixpoint_calls_a_rule_that_never_fires_once_per_node() {
        let p = Plan::scan("X", "x")
            .join(Plan::scan("Y", "y"), truep())
            .select(truep());
        let mut calls = 0;
        let out = fixpoint(p.clone(), 8, &mut |_| {
            calls += 1;
            None
        });
        assert_eq!(out, p);
        assert_eq!(calls, p.size());
    }

    #[test]
    fn fixpoint_terminates_on_nonconverging_rule() {
        // A rule that flips the literal forever: the round bound stops it.
        let p = Plan::scan("X", "x").select(E::lit(true));
        let mut fired = 0;
        let out = fixpoint(p, 4, &mut |n| {
            let Plan::Select { input, pred } = n else {
                return None;
            };
            fired += 1;
            Some(Plan::Select {
                input: input.clone(),
                pred: E::lit(*pred != E::lit(true)),
            })
        });
        // Terminated at the bound; an even number of flips is `true` again.
        assert_eq!(fired, 4);
        assert_eq!(out, Plan::scan("X", "x").select(E::lit(true)));
    }

    fn collect_tables(p: &Plan) -> Vec<String> {
        let mut out = Vec::new();
        fn go(p: &Plan, out: &mut Vec<String>) {
            if let Plan::ScanTable { table, .. } = p {
                out.push(table.clone());
            }
            for c in p.children() {
                go(c, out);
            }
        }
        go(p, &mut out);
        out
    }
}
