#![warn(missing_docs)]

//! # tmql-algebra — an algebra for complex objects (ADL-like)
//!
//! The paper translates TM into "ADL, an algebra for complex objects which
//! is an extension of the NF² algebra of [Schek & Scholl 86]" (Section 1).
//! This crate is that algebra:
//!
//! * [`scalar::ScalarExpr`] — the expression language inside operators:
//!   paths, comparisons, boolean connectives, set operators and comparisons
//!   (`∈ ⊆ ⊂ ⊇ ⊃ ∩=∅ …`), aggregates (`COUNT/SUM/MIN/MAX/AVG`), tuple and
//!   set construction, and **bounded quantifiers** `∃v ∈ s (p)` /
//!   `∀v ∈ s (p)` — the calculus forms Theorem 1 rewrites into;
//! * [`plan::Plan`] — logical operators: scans, select, map (generalized
//!   projection), the join family (join, semijoin ⋉, antijoin ▷,
//!   left outerjoin ⟕, **nest join Δ**), grouping (`ν` nest / `ν*` /
//!   group-aggregate), `μ` unnest, set operations, and the correlated
//!   [`plan::Plan::Apply`] that gives nested SFW expressions their
//!   nested-loop semantics before unnesting;
//! * [`mod@eval`] — scalar expressions compiled once per operator
//!   ([`eval::Compiled`]: every variable a frame slot) and evaluated
//!   against variable environments;
//! * [`typing`] — [`typing::TableTypes`], where the front end gets stored row types;
//! * [`rewrite`] — a small bottom-up plan-transformation framework used by
//!   the unnesting strategies in `tmql-core`;
//! * [`pretty`] — `EXPLAIN`-style plan rendering.
//!
//! ## Row representation
//!
//! A row is a [`tmql_model::Record`] whose top-level fields are **variable
//! bindings**: scanning `X x` yields rows `(x = ⟨tuple⟩)`; a join of `X x`
//! and `Y y` yields `(x = …, y = …)`; a nest join yields `(x = …, ys = {…})`.
//! This mirrors the paper's notation `x ++ (a = z)` directly and makes
//! variable scoping explicit instead of positional.

pub mod eval;
pub mod plan;
pub mod pretty;
pub mod rewrite;
pub mod scalar;
pub mod typing;

pub use eval::{eval, eval_predicate, with_values, Compiled, Env};
pub use plan::{AggFn, JoinKind, Plan, SetOpKind};
pub use scalar::{ArithOp, CmpOp, Quantifier, ScalarExpr, SetBinOp, SetCmpOp};

pub use tmql_model::{ModelError, Result};
