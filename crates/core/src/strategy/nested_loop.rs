//! Nested-loop processing: the identity strategy.
//!
//! "A naive way to handle nested queries is by nested-loop processing"
//! (Section 9). The correlated `Apply` *is* the nested loop, so this
//! strategy rewrites nothing. It is always correct — which makes it the
//! semantics oracle every other strategy is differentially tested against —
//! and often very inefficient, which is what the benchmarks show.

#[cfg(test)]
mod tests {
    use crate::{unnest_plan, UnnestStrategy};
    use tmql_algebra::{Plan, ScalarExpr as E};

    #[test]
    fn keeps_apply_nodes() {
        let p = Plan::scan("X", "x")
            .apply(Plan::scan("Y", "y").map(E::var("y"), "s"), "z")
            .select(E::lit(true));
        let out = unnest_plan(p.clone(), UnnestStrategy::NestedLoop);
        assert_eq!(out, p);
        assert!(out.has_apply());
    }
}
