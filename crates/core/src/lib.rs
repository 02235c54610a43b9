#![deny(missing_docs)]

//! # tmql-core — optimization of nested queries (the paper's contribution)
//!
//! This crate implements the central results of Steenhagen, Apers & Blanken,
//! *Optimization of Nested Queries in a Complex Object Model* (EDBT 1994):
//!
//! * [`mod@classify`] — the rewrite analysis behind **Theorem 1** (Section 7):
//!   a nested predicate `P(x, z)` needs **no grouping** iff it can be
//!   rewritten into `∃v ∈ z (P'(x, v))` or `¬∃v ∈ z (P'(x, v))`; the
//!   classifier performs exactly these rewrites, covering (and extending)
//!   the catalogue of **Table 2** ([`table2`]);
//! * [`strategy`] — the unnesting strategies compared in the paper:
//!   * [`strategy::UnnestStrategy::NestedLoop`] — keep the correlated
//!     `Apply` (the paper's always-correct but "very inefficient" baseline),
//!   * [`strategy::UnnestStrategy::Kim`] — Kim's algorithm [Kim 82],
//!     **deliberately bug-compatible**: it loses dangling outer tuples,
//!     reproducing the COUNT bug and its complex-object generalizations,
//!   * [`strategy::UnnestStrategy::GanskiWong`] — the relational repair
//!     [Ganski & Wong 87]: outerjoin + ν* grouping over NULLs,
//!   * [`strategy::UnnestStrategy::NestJoin`] — the paper's **nest join**:
//!     grouping during the join, ∅ for dangling tuples, no NULLs,
//!   * [`strategy::UnnestStrategy::FlattenSemiAnti`] — Theorem 1 flattening
//!     into semijoin/antijoin with join predicate `P'(x, G(x,y)) ∧ Q(x,y)`,
//!   * [`strategy::UnnestStrategy::Optimal`] — the paper's full pipeline
//!     (Section 8): flatten where Theorem 1 allows, nest join elsewhere,
//!   * [`strategy::UnnestStrategy::CostBased`] — per-block candidate
//!     enumeration ranked by a [`CostModel`] over storage statistics
//!     (the deployed-optimizer refinement of the Section 8 pipeline);
//! * [`rules`] — the algebraic properties of the nest join from Section 6
//!   (`π_X(X Δ Y) = X`, the Δ/⋈ interchange laws, selection pushdown) and
//!   the Section 5 `UNNEST`-collapse equivalence.

pub mod classify;
pub mod optimizer;
pub mod rules;
pub mod strategy;
pub mod table2;

pub use classify::{classify, Classification};
pub use optimizer::{unnest_plan, CostModel, Optimizer};
pub use strategy::UnnestStrategy;

pub use tmql_model::{ModelError, Result};
